//! Variable elimination for conjunctions of rational linear constraints.
//!
//! Projection — the `π` operator of the Constraint Query Algebra — is
//! existential quantification over the dropped attributes, and for linear
//! rational constraints the quantifier can be eliminated exactly:
//!
//! 1. **Gaussian step.** While some *equation* mentions the variable being
//!    eliminated, solve it for the variable and substitute everywhere. This
//!    is both exact and cheap, and it is the ablation-worthy optimization
//!    the benches compare against raw elimination.
//! 2. **Fourier–Motzkin step.** Split the remaining inequalities into lower
//!    and upper bounds on the variable and emit one combined inequality per
//!    (lower, upper) pair, strict iff either side is strict.
//!
//! The procedure is the textbook one (Schrijver, cited as \[29\] by the
//! paper); the output can grow quadratically per variable, so a cheap
//! *parallel-constraint pruning* pass keeps only the tightest of any family
//! of constraints sharing the same linear part.

use crate::atom::{Atom, Rel};
use crate::budget::{Budget, BudgetExceeded};
use crate::var::Var;
use cqa_num::Rat;
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of an elimination: either a (possibly empty) set of atoms over
/// the remaining variables, or a proof that the input was unsatisfiable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Eliminated {
    /// Equivalent atoms over the remaining variables.
    Atoms(BTreeSet<Atom>),
    /// The conjunction is unsatisfiable.
    Unsat,
}

/// Eliminates every variable in `vars` from the conjunction `atoms`.
///
/// The result is a set of atoms over the remaining variables whose
/// conjunction is equivalent to `∃ vars. ⋀ atoms`. The working-system
/// size is charged against `budget` after every eliminated variable, so
/// a blow-up surfaces as [`BudgetExceeded`] instead of unbounded
/// allocation.
pub fn eliminate(
    atoms: &BTreeSet<Atom>,
    vars: &BTreeSet<Var>,
    budget: &Budget<'_>,
) -> Result<Eliminated, BudgetExceeded> {
    eliminate_opt(atoms, vars, true, budget)
}

/// [`eliminate`] without the parallel-constraint pruning pass and without
/// a budget — the ablation baseline benchmarked in `cqa-bench`.
/// Semantically equivalent, but intermediate conjunctions can grow
/// quadratically per variable.
pub fn eliminate_unpruned(atoms: &BTreeSet<Atom>, vars: &BTreeSet<Var>) -> Eliminated {
    // An unlimited budget never trips.
    eliminate_opt(atoms, vars, false, &Budget::default()).unwrap_or(Eliminated::Unsat)
}

fn eliminate_opt(
    atoms: &BTreeSet<Atom>,
    vars: &BTreeSet<Var>,
    prune: bool,
    budget: &Budget<'_>,
) -> Result<Eliminated, BudgetExceeded> {
    budget.count_fm_call();
    let mut current: BTreeSet<Atom> = BTreeSet::new();
    for a in atoms {
        match a.ground_truth() {
            Some(true) => {}
            Some(false) => return Ok(Eliminated::Unsat),
            None => {
                current.insert(a.clone());
            }
        }
    }
    budget.charge_fm_atoms(current.len())?;
    // Eliminate in an order that keeps intermediate growth small: at each
    // round pick the variable with the fewest lower×upper combinations.
    let mut remaining: BTreeSet<Var> = vars.clone();
    while !remaining.is_empty() {
        let v = pick_variable(&current, &remaining);
        remaining.remove(&v);
        match eliminate_one(&current, v) {
            Eliminated::Atoms(next) => current = next,
            Eliminated::Unsat => return Ok(Eliminated::Unsat),
        }
        if prune {
            current = prune_parallel(current);
        }
        budget.charge_fm_atoms(current.len())?;
    }
    Ok(Eliminated::Atoms(current))
}

/// Chooses the variable whose elimination generates the fewest new atoms
/// (the classic min-fill heuristic specialized to Fourier–Motzkin). A
/// variable appearing in an equation is free to eliminate, so it wins.
fn pick_variable(atoms: &BTreeSet<Atom>, candidates: &BTreeSet<Var>) -> Var {
    let mut best: Option<(usize, Var)> = None;
    for &v in candidates {
        let mut lowers = 0usize;
        let mut uppers = 0usize;
        let mut in_equation = false;
        for a in atoms {
            let c = a.expr().coeff(v);
            if c.is_zero() {
                continue;
            }
            match a.rel() {
                Rel::Eq => in_equation = true,
                _ if c.is_positive() => uppers += 1,
                _ => lowers += 1,
            }
        }
        let cost = if in_equation { 0 } else { lowers * uppers };
        match best {
            Some((c, _)) if c <= cost => {}
            _ => best = Some((cost, v)),
        }
    }
    best.expect("candidates nonempty").1
}

/// Eliminates the single variable `v`.
fn eliminate_one(atoms: &BTreeSet<Atom>, v: Var) -> Eliminated {
    // Gaussian step: use an equation if one mentions v.
    if let Some(eq) = atoms.iter().find(|a| a.rel() == Rel::Eq && a.mentions(v)) {
        let solution = eq.expr().solve_for(v).expect("mentions v");
        let mut out = BTreeSet::new();
        for a in atoms {
            if a == eq {
                continue; // ∃v. v = e  is  true
            }
            let s = a.substitute(v, &solution);
            match s.ground_truth() {
                Some(true) => {}
                Some(false) => return Eliminated::Unsat,
                None => {
                    out.insert(s);
                }
            }
        }
        return Eliminated::Atoms(out);
    }

    // Fourier–Motzkin step over inequalities.
    let mut lowers: Vec<(crate::LinExpr, Rel)> = Vec::new(); // bound ≤/< v
    let mut uppers: Vec<(crate::LinExpr, Rel)> = Vec::new(); // v ≤/< bound
    let mut rest: BTreeSet<Atom> = BTreeSet::new();
    for a in atoms {
        let c = a.expr().coeff(v);
        if c.is_zero() {
            rest.insert(a.clone());
            continue;
        }
        debug_assert!(a.rel() != Rel::Eq);
        // a: c·v + e rel 0  ⇔  v rel -e/c (c>0)   or   -e/c rel v (c<0)
        let mut e = a.expr().clone();
        e.add_term(v, -c.clone());
        let bound = e.scale(&(-Rat::one() / &c));
        if c.is_positive() {
            uppers.push((bound, a.rel()));
        } else {
            lowers.push((bound, a.rel()));
        }
    }
    for (lo, rl) in &lowers {
        for (hi, rh) in &uppers {
            let combined = Atom::new(lo - hi, rl.chain(*rh));
            match combined.ground_truth() {
                Some(true) => {}
                Some(false) => return Eliminated::Unsat,
                None => {
                    rest.insert(combined);
                }
            }
        }
    }
    Eliminated::Atoms(rest)
}

/// Keeps only the tightest atom of each family sharing the same linear
/// part: `e + a ⊲ 0` dominates `e + b ⊳ 0` when it implies it.
///
/// Fourier–Motzkin generates many such parallel constraints, so this cheap
/// syntactic pruning keeps intermediate conjunctions small without invoking
/// a full (recursive) entailment check.
pub fn prune_parallel(atoms: BTreeSet<Atom>) -> BTreeSet<Atom> {
    // Key: the variable part of the expression, scaled so its leading
    // coefficient has magnitude one (atoms are stored with integer content-1
    // coefficients, so parallel constraints may carry different scalings).
    // For inequalities the tightest has the *largest* constant
    // (e + c ≤ 0 ⇔ vars ≤ -c, larger c means smaller -c: tighter).
    let mut ineqs: BTreeMap<crate::LinExpr, (Rat, Rel)> = BTreeMap::new();
    let mut out: BTreeSet<Atom> = BTreeSet::new();
    for a in atoms {
        if a.rel() == Rel::Eq {
            out.insert(a);
            continue;
        }
        let mut key = a.expr().clone();
        key.set_constant(Rat::zero());
        let scale = match key.leading_coeff() {
            Some(c) => Rat::one() / c.abs(),
            None => Rat::one(), // ground atom; caller filtered, defensive
        };
        let key = key.scale(&scale);
        let c = a.expr().constant_term() * &scale;
        match ineqs.get_mut(&key) {
            None => {
                ineqs.insert(key, (c, a.rel()));
            }
            Some((c0, r0)) => {
                let tighter = c > *c0 || (c == *c0 && a.rel() == Rel::Lt && *r0 == Rel::Le);
                if tighter {
                    *c0 = c;
                    *r0 = a.rel();
                }
            }
        }
    }
    for (mut key, (c, rel)) in ineqs {
        key.set_constant(c);
        out.insert(Atom::new(key, rel));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn x() -> Var {
        Var(0)
    }
    fn y() -> Var {
        Var(1)
    }
    fn z() -> Var {
        Var(2)
    }
    fn ri(v: i64) -> Rat {
        Rat::from_int(v)
    }

    fn atoms(list: Vec<Atom>) -> BTreeSet<Atom> {
        list.into_iter().collect()
    }

    fn elim(atoms: &BTreeSet<Atom>, vars: &BTreeSet<Var>) -> Eliminated {
        eliminate(atoms, vars, &Budget::default()).unwrap()
    }

    #[test]
    fn eliminate_between_bounds() {
        // 1 ≤ x ∧ x ≤ y   ⇒ ∃x: 1 ≤ y
        let set = atoms(vec![
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(1)),
            Atom::le(LinExpr::var(x()), LinExpr::var(y())),
        ]);
        let got = elim(&set, &[x()].into_iter().collect());
        let want = atoms(vec![Atom::ge(LinExpr::var(y()), LinExpr::constant_int(1))]);
        assert_eq!(got, Eliminated::Atoms(want));
    }

    #[test]
    fn strictness_propagates() {
        // 1 < x ∧ x ≤ y  ⇒ 1 < y
        let set = atoms(vec![
            Atom::gt(LinExpr::var(x()), LinExpr::constant_int(1)),
            Atom::le(LinExpr::var(x()), LinExpr::var(y())),
        ]);
        let got = elim(&set, &[x()].into_iter().collect());
        let want = atoms(vec![Atom::gt(LinExpr::var(y()), LinExpr::constant_int(1))]);
        assert_eq!(got, Eliminated::Atoms(want));
    }

    #[test]
    fn unsat_detected() {
        // x < 1 ∧ x > 2
        let set = atoms(vec![
            Atom::lt(LinExpr::var(x()), LinExpr::constant_int(1)),
            Atom::gt(LinExpr::var(x()), LinExpr::constant_int(2)),
        ]);
        assert_eq!(elim(&set, &[x()].into_iter().collect()), Eliminated::Unsat);
    }

    #[test]
    fn point_boundary_strictness() {
        // x ≤ 1 ∧ x ≥ 1 is satisfiable (x = 1); x < 1 ∧ x ≥ 1 is not.
        let sat = atoms(vec![
            Atom::le(LinExpr::var(x()), LinExpr::constant_int(1)),
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(1)),
        ]);
        assert!(matches!(elim(&sat, &[x()].into_iter().collect()), Eliminated::Atoms(_)));
        let unsat = atoms(vec![
            Atom::lt(LinExpr::var(x()), LinExpr::constant_int(1)),
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(1)),
        ]);
        assert_eq!(elim(&unsat, &[x()].into_iter().collect()), Eliminated::Unsat);
    }

    #[test]
    fn gaussian_substitution_used_for_equations() {
        // x = y + 1 ∧ x ≤ 3 ∧ x ≥ 0  ⇒ ∃x: y ≤ 2 ∧ y ≥ -1
        let set = atoms(vec![
            Atom::eq(
                LinExpr::var(x()),
                LinExpr::from_terms([(y(), ri(1))], ri(1)),
            ),
            Atom::le(LinExpr::var(x()), LinExpr::constant_int(3)),
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(0)),
        ]);
        let got = elim(&set, &[x()].into_iter().collect());
        let want = atoms(vec![
            Atom::le(LinExpr::var(y()), LinExpr::constant_int(2)),
            Atom::ge(LinExpr::var(y()), LinExpr::constant_int(-1)),
        ]);
        assert_eq!(got, Eliminated::Atoms(want));
    }

    #[test]
    fn eliminating_all_vars_decides_satisfiability() {
        // x + y ≤ 2 ∧ x ≥ 1 ∧ y ≥ 1: the only point is (1,1) — satisfiable.
        let set = atoms(vec![
            Atom::le(
                LinExpr::from_terms([(x(), ri(1)), (y(), ri(1))], Rat::zero()),
                LinExpr::constant_int(2),
            ),
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(1)),
            Atom::ge(LinExpr::var(y()), LinExpr::constant_int(1)),
        ]);
        let all: BTreeSet<Var> = [x(), y()].into_iter().collect();
        assert_eq!(elim(&set, &all), Eliminated::Atoms(BTreeSet::new()));
        // Make it strict and it becomes unsatisfiable.
        let strict = atoms(vec![
            Atom::lt(
                LinExpr::from_terms([(x(), ri(1)), (y(), ri(1))], Rat::zero()),
                LinExpr::constant_int(2),
            ),
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(1)),
            Atom::ge(LinExpr::var(y()), LinExpr::constant_int(1)),
        ]);
        assert_eq!(elim(&strict, &all), Eliminated::Unsat);
    }

    #[test]
    fn three_var_chain() {
        // x ≤ y ∧ y ≤ z ∧ z ≤ x ∧ x = 1: eliminating x,y,z is satisfiable.
        let set = atoms(vec![
            Atom::le(LinExpr::var(x()), LinExpr::var(y())),
            Atom::le(LinExpr::var(y()), LinExpr::var(z())),
            Atom::le(LinExpr::var(z()), LinExpr::var(x())),
            Atom::var_eq_const(x(), ri(1)),
        ]);
        let all: BTreeSet<Var> = [x(), y(), z()].into_iter().collect();
        assert_eq!(elim(&set, &all), Eliminated::Atoms(BTreeSet::new()));
    }

    #[test]
    fn prune_parallel_keeps_tightest() {
        let set = atoms(vec![
            Atom::le(LinExpr::var(x()), LinExpr::constant_int(5)),
            Atom::le(LinExpr::var(x()), LinExpr::constant_int(3)),
            Atom::lt(LinExpr::var(x()), LinExpr::constant_int(3)),
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(0)),
        ]);
        let pruned = prune_parallel(set);
        let want = atoms(vec![
            Atom::lt(LinExpr::var(x()), LinExpr::constant_int(3)),
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(0)),
        ]);
        assert_eq!(pruned, want);
    }

    #[test]
    fn unpruned_elimination_is_equivalent() {
        // A chain that generates parallel constraints during elimination.
        let set = atoms(vec![
            Atom::le(LinExpr::var(x()), LinExpr::var(y())),
            Atom::le(LinExpr::var(x()), LinExpr::constant_int(5)),
            Atom::le(LinExpr::var(x()), LinExpr::constant_int(9)),
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(0)),
            Atom::le(LinExpr::var(y()), LinExpr::var(z())),
        ]);
        let vars: BTreeSet<Var> = [x(), y()].into_iter().collect();
        let pruned = elim(&set, &vars);
        let unpruned = eliminate_unpruned(&set, &vars);
        match (pruned, unpruned) {
            (Eliminated::Atoms(a), Eliminated::Atoms(b)) => {
                // Unpruned may carry redundant parallels; pruning its
                // output must give the pruned result.
                assert_eq!(a, prune_parallel(b));
            }
            other => panic!("expected satisfiable results: {:?}", other),
        }
        // Unsat agrees too.
        let bad = atoms(vec![
            Atom::lt(LinExpr::var(x()), LinExpr::constant_int(0)),
            Atom::gt(LinExpr::var(x()), LinExpr::constant_int(0)),
        ]);
        let vars: BTreeSet<Var> = [x()].into_iter().collect();
        assert_eq!(eliminate_unpruned(&bad, &vars), Eliminated::Unsat);
    }

    #[test]
    fn budget_trips_on_growth_and_records_peak() {
        // A dense system whose unpruned elimination multiplies bounds.
        let mut list = Vec::new();
        for i in 0..6 {
            list.push(Atom::ge(LinExpr::var(x()), LinExpr::constant_int(-i)));
            list.push(Atom::le(
                LinExpr::var(x()),
                LinExpr::from_terms([(y(), ri(1))], ri(i)),
            ));
        }
        let set = atoms(list);
        let vars: BTreeSet<Var> = [x()].into_iter().collect();
        let (peak, calls) = (AtomicU64::new(0), AtomicU64::new(0));
        // Generous budget: succeeds and matches the unbudgeted result.
        let generous = Budget {
            max_fm_atoms: Some(1000),
            fm_peak: Some(&peak),
            fm_calls: Some(&calls),
            ..Budget::default()
        };
        assert_eq!(eliminate(&set, &vars, &generous), Ok(elim(&set, &vars)));
        assert!(peak.load(Ordering::Relaxed) >= set.len() as u64);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // A budget below the input size trips immediately.
        let tight = Budget { max_fm_atoms: Some(2), ..Budget::default() };
        match eliminate(&set, &vars, &tight) {
            Err(BudgetExceeded { what: "fm atoms", used, limit: 2 }) => assert!(used > 2),
            other => panic!("expected budget trip, got {:?}", other),
        }
    }

    #[test]
    fn variables_not_mentioned_are_noops() {
        let set = atoms(vec![Atom::ge(LinExpr::var(y()), LinExpr::constant_int(1))]);
        let got = elim(&set, &[x()].into_iter().collect());
        assert_eq!(got, Eliminated::Atoms(set));
    }
}

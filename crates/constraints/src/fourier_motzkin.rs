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
//!
//! A *box system* — every atom names at most one variable, as every
//! range-valued tuple, window and index extent does, and as a system is
//! once Gaussian steps have used up its multi-variable equations — needs
//! neither step: eliminating a variable only asks whether its interval is
//! empty. So each round of [`eliminate`] first tests for a box, and on
//! one hands the variables still to go to exact per-variable intervals,
//! which return what the rounds would, with the same budget charges.

use crate::atom::{Atom, Rel};
use crate::budget::{Budget, BudgetExceeded};
use crate::interval::Interval;
use crate::var::Var;
use cqa_num::Rat;
use std::borrow::Cow;
use std::collections::btree_map::Entry;
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
/// allocation. Once the working system is a box, the variables left are
/// decided from per-variable intervals, with the identical result and
/// charges.
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
/// quadratically per variable. It never hands off to intervals, so it
/// is also the plain loop the box hand-off is tested against.
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
    // The input and `vars` stay borrowed until a round changes them; the
    // input is copied up front only to drop its ground atoms.
    let mut current = Cow::Borrowed(atoms);
    if atoms.iter().any(|a| a.expr().is_constant()) {
        if atoms.iter().any(Atom::is_trivially_false) {
            return Ok(Eliminated::Unsat);
        }
        current = Cow::Owned(atoms.iter().filter(|a| !a.expr().is_constant()).cloned().collect());
    }
    budget.charge_fm_atoms(current.len())?;
    let mut remaining = Cow::Borrowed(vars);
    loop {
        // A box stays a box and never grows as its variables go, so the
        // charges the rounds would still make can neither trip nor raise
        // the peak.
        if prune && current.iter().all(|a| a.expr().arity() <= 1) {
            budget.count_fm_interval_call();
            return Ok(finish_box(&current, &remaining));
        }
        // Eliminate in an order that keeps intermediate growth small: at
        // each round pick the variable with the fewest lower×upper
        // combinations.
        let Some(v) = pick_variable(&current, &remaining) else { break };
        remaining.to_mut().remove(&v);
        let next = match eliminate_one(&current, v) {
            Eliminated::Atoms(next) => next,
            Eliminated::Unsat => return Ok(Eliminated::Unsat),
        };
        current = Cow::Owned(if prune { prune_parallel(next) } else { next });
        budget.charge_fm_atoms(current.len())?;
        if remaining.is_empty() {
            break;
        }
    }
    Ok(Eliminated::Atoms(current.into_owned()))
}

/// Eliminates `remaining` from the ground-free box system `current`.
/// Eliminating `v` keeps the atoms not on `v` as they are and is
/// unsatisfiable exactly when the interval `v`'s atoms cut out is empty,
/// so the rounds would end in `Unsat` on an empty interval of a variable
/// in `remaining`, and otherwise in the pruned atoms on the other
/// variables (unpruned when `remaining` is empty, as no round runs).
fn finish_box(current: &BTreeSet<Atom>, remaining: &BTreeSet<Var>) -> Eliminated {
    // Atoms order by their linear part, so each variable's atoms are
    // adjacent and one running interval suffices.
    let mut run: Option<(Var, Interval)> = None;
    for a in current {
        let Some((v, c)) = a.expr().terms().next() else { continue };
        if !remaining.contains(&v) {
            continue;
        }
        if !matches!(run, Some((u, _)) if u == v) {
            debug_assert!(!matches!(run, Some((u, _)) if u > v), "atoms grouped by variable");
            run = Some((v, Interval::full()));
        }
        let (_, interval) = run.as_mut().expect("set above");
        interval.narrow(a, c);
        if interval.is_empty() {
            return Eliminated::Unsat;
        }
    }
    let kept = current.iter().filter(|a| a.vars().next().is_some_and(|v| !remaining.contains(&v)));
    // A round prunes after each eliminated variable, and pruning is
    // idempotent and commutes with dropping a variable's atoms.
    Eliminated::Atoms(if remaining.is_empty() {
        kept.cloned().collect()
    } else {
        prune_parallel(kept.cloned())
    })
}

/// Chooses the variable whose elimination generates the fewest new atoms
/// (the classic min-fill heuristic specialized to Fourier–Motzkin), or
/// `None` when there is none left. A variable appearing in an equation is
/// free to eliminate, so it wins.
fn pick_variable(atoms: &BTreeSet<Atom>, candidates: &BTreeSet<Var>) -> Option<Var> {
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
    best.map(|(_, v)| v)
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
/// a full (recursive) entailment check. The kept atoms are the input's own.
pub fn prune_parallel(atoms: impl IntoIterator<Item = Atom>) -> BTreeSet<Atom> {
    // Key: the variable part of the expression, scaled so its leading
    // coefficient has magnitude one (atoms are stored with integer content-1
    // coefficients, so parallel constraints may carry different scalings).
    // For inequalities the tightest has the *largest* scaled constant
    // (e + c ≤ 0 ⇔ vars ≤ -c, larger c means smaller -c: tighter).
    let mut ineqs: BTreeMap<crate::LinExpr, (Rat, Atom)> = BTreeMap::new();
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
        match ineqs.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((c, a));
            }
            Entry::Occupied(mut slot) => {
                let c0 = &slot.get().0;
                if c > *c0 || (c == *c0 && a.rel() == Rel::Lt) {
                    slot.insert((c, a));
                }
            }
        }
    }
    out.extend(ineqs.into_values().map(|(_, a)| a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;
    use cqa_num::prng::Pcg32;
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

    /// A random box system: 0–8 atoms over 1–4 variables, each on one
    /// variable (`=`/`≤`/`<`, either coefficient sign, so `3x ≤ 7`-style
    /// non-unit bounds) or ground. Small constants make intervals often
    /// collapse to a point, touch strictly, or come out empty. `vars` is
    /// a random subset of the variables plus one no atom mentions, so it
    /// may be empty, partial, or name an unmentioned variable.
    fn random_box_system(rng: &mut Pcg32) -> (BTreeSet<Atom>, BTreeSet<Var>) {
        let n_vars = rng.gen_range_i64(1, 4) as u32;
        let mut set = BTreeSet::new();
        for _ in 0..rng.gen_below_usize(9) {
            let rel = [Rel::Eq, Rel::Le, Rel::Lt][rng.gen_below_usize(3)];
            let k = ri(rng.gen_range_i64(-6, 6));
            let expr = if rng.gen_bool(0.08) {
                LinExpr::constant(k)
            } else {
                let v = Var(rng.gen_below_u64(n_vars as u64) as u32);
                let c = [-3, -2, -1, 1, 2, 3][rng.gen_below_usize(6)];
                LinExpr::from_terms([(v, ri(c))], k)
            };
            set.insert(Atom::new(expr, rel));
        }
        let vars = (0..=n_vars).filter(|_| rng.gen_bool(0.5)).map(Var).collect();
        (set, vars)
    }

    /// [`eliminate`] under `max_fm_atoms` `limit`, with the peak charge,
    /// the FM calls and the interval hand-offs it counted.
    fn counted(
        set: &BTreeSet<Atom>,
        vars: &BTreeSet<Var>,
        limit: Option<u64>,
    ) -> (Result<Eliminated, BudgetExceeded>, u64, u64, u64) {
        let (peak, calls, by_interval) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let budget = Budget {
            max_fm_atoms: limit,
            fm_peak: Some(&peak),
            fm_calls: Some(&calls),
            fm_interval_calls: Some(&by_interval),
            ..Budget::default()
        };
        let got = eliminate(set, vars, &budget);
        (got, peak.into_inner(), calls.into_inner(), by_interval.into_inner())
    }

    /// What the plain loop answers, pruned as the pruning loop would
    /// prune it: never when `vars` is empty, as no round runs then.
    fn pruned_reference(set: &BTreeSet<Atom>, vars: &BTreeSet<Var>) -> Eliminated {
        match eliminate_unpruned(set, vars) {
            Eliminated::Atoms(rest) if !vars.is_empty() => Eliminated::Atoms(prune_parallel(rest)),
            other => other,
        }
    }

    #[test]
    fn a_box_system_is_decided_by_intervals() {
        let mut rng = Pcg32::seed_from_u64(0xB0C5);
        let (mut unsat, mut sat) = (0, 0);
        for case in 0..6000 {
            let (set, vars) = random_box_system(&mut rng);
            let want = pruned_reference(&set, &vars);
            let (got, peak, calls, by_interval) = counted(&set, &vars, None);
            assert_eq!(got, Ok(want.clone()), "case {case}: {set:?} over {vars:?}");
            match want {
                Eliminated::Unsat => unsat += 1,
                Eliminated::Atoms(_) => sat += 1,
            }
            if set.iter().any(Atom::is_trivially_false) {
                // Decided before any charge or hand-off.
                assert_eq!((peak, calls, by_interval), (0, 1, 0), "case {case}");
                continue;
            }
            // The closed form: one charge of the ground-free input, one
            // hand-off on entry, and a trip exactly below that charge.
            let size = set.iter().filter(|a| !a.expr().is_constant()).count() as u64;
            assert_eq!((peak, calls, by_interval), (size, 1, 1), "case {case}");
            for limit in 0..=size + 1 {
                let want = if limit < size {
                    Err(BudgetExceeded { what: "fm atoms", used: size, limit })
                } else {
                    Ok(want.clone())
                };
                assert_eq!(counted(&set, &vars, Some(limit)).0, want, "case {case} under {limit}");
            }
        }
        // Both outcomes are well represented.
        assert!(unsat > 1000 && sat > 1000, "unsat {unsat}, sat {sat}");
    }

    #[test]
    fn a_box_left_by_gaussian_steps_is_decided_by_intervals() {
        // Shaped like a hurricane pair system: a position on a linear path,
        // `a·x = b·t + c` and `d·y = e·t + f`, with bounds on x and y and
        // box atoms on t. Eliminating x and y substitutes their equations away and
        // leaves a box over t, so every variable still to go after them
        // is decided from intervals.
        let (x, y, t, w) = (x(), y(), z(), Var(3));
        let mut rng = Pcg32::seed_from_u64(0x6A55);
        let coeff = |rng: &mut Pcg32| ri([-3, -2, -1, 1, 2, 3][rng.gen_below_usize(6)]);
        let (mut unsat, mut sat) = (0, 0);
        for case in 0..3000 {
            let mut set = BTreeSet::new();
            for v in [x, y] {
                let lhs = LinExpr::term(v, coeff(&mut rng));
                let rhs = LinExpr::from_terms([(t, coeff(&mut rng))], ri(rng.gen_range_i64(-6, 6)));
                set.insert(Atom::eq(lhs, rhs));
            }
            for _ in 0..rng.gen_range_i64(1, 6) {
                let v = [x, y, t][rng.gen_below_usize(3)];
                // An equation on x or y would be solved instead of the
                // path's, and could decide the system before any box.
                let rels: &[Rel] = if v == t { &[Rel::Eq, Rel::Le, Rel::Lt] } else { &[Rel::Le, Rel::Lt] };
                let rel = rels[rng.gen_below_usize(rels.len())];
                let k = ri(rng.gen_range_i64(-6, 6));
                set.insert(Atom::new(LinExpr::from_terms([(v, coeff(&mut rng))], k), rel));
            }
            // t, the variable no atom mentions, or both, besides x and y.
            let mut vars: BTreeSet<Var> = [x, y].into_iter().collect();
            match rng.gen_below_usize(3) {
                0 => vars.insert(t),
                1 => vars.insert(w),
                _ => vars.insert(t) && vars.insert(w),
            };
            let want = pruned_reference(&set, &vars);
            let (got, peak, calls, by_interval) = counted(&set, &vars, None);
            assert_eq!(got, Ok(want.clone()), "case {case}: {set:?} over {vars:?}");
            assert_eq!((peak, calls, by_interval), (set.len() as u64, 1, 1), "case {case}");
            match want {
                Eliminated::Unsat => unsat += 1,
                Eliminated::Atoms(_) => sat += 1,
            }
        }
        assert!(unsat > 300 && sat > 300, "unsat {unsat}, sat {sat}");
    }

    #[test]
    fn a_two_variable_atom_takes_the_fm_loop() {
        // x ≤ y is not a box atom: eliminating x must chain 0 ≤ x into
        // 0 ≤ y, which no per-variable interval can produce.
        let set = atoms(vec![
            Atom::ge(LinExpr::var(x()), LinExpr::constant_int(0)),
            Atom::le(LinExpr::var(x()), LinExpr::var(y())),
        ]);
        let vars: BTreeSet<Var> = [x()].into_iter().collect();
        let (calls, by_interval) = (AtomicU64::new(0), AtomicU64::new(0));
        let budget = Budget {
            fm_calls: Some(&calls),
            fm_interval_calls: Some(&by_interval),
            ..Budget::default()
        };
        let want = atoms(vec![Atom::ge(LinExpr::var(y()), LinExpr::constant_int(0))]);
        assert_eq!(eliminate(&set, &vars, &budget), Ok(Eliminated::Atoms(want)));
        assert_eq!((calls.load(Ordering::Relaxed), by_interval.load(Ordering::Relaxed)), (1, 0));
        // Drop the two-variable atom and intervals answer on entry.
        let boxed: BTreeSet<Atom> = set.into_iter().filter(|a| a.expr().arity() == 1).collect();
        assert!(matches!(eliminate(&boxed, &vars, &budget), Ok(Eliminated::Atoms(_))));
        assert_eq!((calls.load(Ordering::Relaxed), by_interval.load(Ordering::Relaxed)), (2, 1));
    }

    #[test]
    fn variables_not_mentioned_are_noops() {
        let set = atoms(vec![Atom::ge(LinExpr::var(y()), LinExpr::constant_int(1))]);
        let got = elim(&set, &[x()].into_iter().collect());
        assert_eq!(got, Eliminated::Atoms(set));
    }
}

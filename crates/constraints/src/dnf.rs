//! Disjunctive normal forms — the body of a constraint relation.
//!
//! Per Definition 2 of the paper, the formula of a constraint relation is
//! the *disjunction* of the formulas of its constraint tuples, i.e. a
//! first-order formula in DNF. [`Dnf`] provides the closure operations the
//! Constraint Query Algebra needs at the relation level: union,
//! intersection, **negation** (needed by the difference operator),
//! projection, and satisfiability.

use crate::assignment::Assignment;
use crate::budget::{Budget, BudgetExceeded};
use crate::conj::Conjunction;
use crate::var::Var;
use std::collections::BTreeSet;
use std::fmt;

/// A disjunction of conjunctions of linear constraint atoms.
///
/// The empty disjunction is `false`; a disjunction containing the empty
/// conjunction is `true`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Dnf {
    conjs: Vec<Conjunction>,
}

impl Dnf {
    /// The unsatisfiable formula `false` (no disjuncts).
    pub fn fals() -> Dnf {
        Dnf::default()
    }

    /// The valid formula `true` (one empty disjunct).
    pub fn tru() -> Dnf {
        Dnf { conjs: vec![Conjunction::tru()] }
    }

    /// A single-disjunct formula.
    pub fn from_conjunction(c: Conjunction) -> Dnf {
        Dnf { conjs: vec![c] }
    }

    /// Builds from disjuncts, dropping trivially false ones.
    pub fn from_conjunctions(cs: impl IntoIterator<Item = Conjunction>) -> Dnf {
        Dnf { conjs: cs.into_iter().filter(|c| !c.is_trivially_false()).collect() }
    }

    /// The disjuncts.
    pub fn conjunctions(&self) -> &[Conjunction] {
        &self.conjs
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.conjs.len()
    }

    /// Whether there are no disjuncts (syntactically false).
    pub fn is_empty(&self) -> bool {
        self.conjs.is_empty()
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.conjs.iter().flat_map(|c| c.vars()).collect()
    }

    /// Disjunction.
    pub fn or(&self, other: &Dnf) -> Dnf {
        Dnf::from_conjunctions(self.conjs.iter().chain(&other.conjs).cloned())
    }

    /// Conjunction: the cross product of disjuncts, unsatisfiable products
    /// dropped eagerly by a satisfiability check under `budget`'s FM
    /// ceiling. Every product built is counted into
    /// [`Budget::dnf_built`]; keeping more than
    /// [`Budget::max_dnf_conjunctions`] aborts the expansion with a typed
    /// error instead of letting the cross product grow without bound.
    pub fn and(&self, other: &Dnf, budget: &Budget<'_>) -> Result<Dnf, BudgetExceeded> {
        let mut out = Vec::new();
        for a in &self.conjs {
            for b in &other.conjs {
                budget.count_dnf_built();
                let c = a.and(b);
                if !c.is_trivially_false() && c.is_satisfiable_budgeted(budget)? {
                    out.push(c);
                    budget.charge_dnf_conjunctions(out.len())?;
                }
            }
        }
        Ok(Dnf { conjs: out })
    }

    /// Negation, re-normalized to DNF.
    ///
    /// `¬(C₁ ∨ … ∨ Cₙ) = ¬C₁ ∧ … ∧ ¬Cₙ`, and each `¬Cᵢ` is the disjunction
    /// of its atoms' negations; the conjunction of those disjunctions is
    /// expanded by distribution, each factor under `budget`. This is
    /// worst-case exponential — which is exactly why the paper treats the
    /// difference operator (the only CQA operator that needs negation) as
    /// the expensive one.
    pub fn negate(&self, budget: &Budget<'_>) -> Result<Dnf, BudgetExceeded> {
        let mut acc = Dnf::tru();
        for c in &self.conjs {
            // ¬C = ∨_{atom a ∈ C} ¬a   (each ¬a is 1–2 atoms)
            let mut neg_c = Vec::new();
            if c.is_empty() {
                return Ok(Dnf::fals()); // ¬true = false
            }
            for atom in c.atoms() {
                for n in atom.negate() {
                    neg_c.push(Conjunction::from_atoms([n]));
                }
            }
            acc = acc.and(&Dnf::from_conjunctions(neg_c), budget)?;
            if acc.is_empty() {
                return Ok(acc);
            }
        }
        Ok(acc)
    }

    /// Set difference `self ∧ ¬other`, both expansions under `budget`.
    pub fn minus(&self, other: &Dnf, budget: &Budget<'_>) -> Result<Dnf, BudgetExceeded> {
        self.and(&other.negate(budget)?, budget)
    }

    /// Projects out `vars` from every disjunct (∃ distributes over ∨).
    pub fn eliminate(&self, vars: impl IntoIterator<Item = Var> + Clone) -> Dnf {
        Dnf::from_conjunctions(self.conjs.iter().map(|c| c.eliminate(vars.clone())))
    }

    /// Whether some disjunct is satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        self.conjs.iter().any(|c| c.is_satisfiable())
    }

    /// Point membership: true iff some disjunct is satisfied. `None` if the
    /// assignment misses a variable of a disjunct that is not already
    /// decided by the bound ones.
    pub fn eval(&self, a: &Assignment) -> Option<bool> {
        let mut any_unknown = false;
        for c in &self.conjs {
            match c.eval(a) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => any_unknown = true,
            }
        }
        if any_unknown {
            None
        } else {
            Some(false)
        }
    }

    /// Drops unsatisfiable disjuncts and disjuncts absorbed by another
    /// (i.e. whose point set is contained in another disjunct's), every
    /// satisfiability and entailment check under `budget`.
    pub fn normalize(&self, budget: &Budget<'_>) -> Result<Dnf, BudgetExceeded> {
        let mut sat = Vec::new();
        for c in &self.conjs {
            if c.is_satisfiable_budgeted(budget)? {
                sat.push(c.simplify(budget)?);
            }
        }
        let mut keep: Vec<bool> = vec![true; sat.len()];
        for i in 0..sat.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..sat.len() {
                if i == j || !keep[j] {
                    continue;
                }
                // Drop i if i ⊆ j (prefer dropping the later of equals).
                if sat[i].implies(&sat[j], budget)? && (!sat[j].implies(&sat[i], budget)? || j < i) {
                    keep[i] = false;
                    break;
                }
            }
        }
        Ok(Dnf {
            conjs: sat
                .into_iter()
                .zip(keep)
                .filter(|(_, k)| *k)
                .map(|(c, _)| c)
                .collect(),
        })
    }

    /// Whether every point of `self` is a point of `other`.
    /// Exact but potentially expensive (uses negation).
    pub fn contained_in(&self, other: &Dnf) -> bool {
        // An unlimited budget never trips.
        self.minus(other, &Budget::default()).is_ok_and(|d| !d.is_satisfiable())
    }

    /// Semantic equivalence.
    pub fn equivalent(&self, other: &Dnf) -> bool {
        self.contained_in(other) && other.contained_in(self)
    }

}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conjs.is_empty() {
            return f.write_str("false");
        }
        for (i, c) in self.conjs.iter().enumerate() {
            if i > 0 {
                f.write_str(" or ")?;
            }
            write!(f, "({})", c)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dnf({})", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::linexpr::LinExpr;
    use cqa_num::Rat;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn x() -> Var {
        Var(0)
    }
    fn ri(v: i64) -> Rat {
        Rat::from_int(v)
    }
    fn between(v: Var, lo: i64, hi: i64) -> Conjunction {
        Conjunction::from_atoms([
            Atom::ge(LinExpr::var(v), LinExpr::constant_int(lo)),
            Atom::le(LinExpr::var(v), LinExpr::constant_int(hi)),
        ])
    }
    fn holds(d: &Dnf, v: i64) -> bool {
        d.eval(&Assignment::from_pairs([(x(), ri(v))])).unwrap()
    }

    #[test]
    fn truth_constants() {
        assert!(!Dnf::fals().is_satisfiable());
        assert!(Dnf::tru().is_satisfiable());
        assert_eq!(Dnf::tru().negate(&Budget::default()).unwrap(), Dnf::fals());
        assert!(Dnf::fals().negate(&Budget::default()).unwrap().equivalent(&Dnf::tru()));
    }

    #[test]
    fn union_and_membership() {
        let d = Dnf::from_conjunctions([between(x(), 0, 1), between(x(), 5, 6)]);
        assert!(holds(&d, 0));
        assert!(holds(&d, 6));
        assert!(!holds(&d, 3));
    }

    #[test]
    fn intersection() {
        let a = Dnf::from_conjunction(between(x(), 0, 10));
        let b = Dnf::from_conjunctions([between(x(), 5, 15), between(x(), -5, -1)]);
        let i = a.and(&b, &Budget::default()).unwrap();
        assert!(holds(&i, 7));
        assert!(!holds(&i, 2)); // only in a
        assert!(!holds(&i, -3)); // a ∧ [-5,-1] is unsat, dropped
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn negation_complements_pointwise() {
        let d = Dnf::from_conjunctions([between(x(), 0, 2), between(x(), 5, 6)]);
        let n = d.negate(&Budget::default()).unwrap();
        for v in -2..9 {
            assert_eq!(holds(&n, v), !holds(&d, v), "at {}", v);
        }
    }

    #[test]
    fn difference() {
        let a = Dnf::from_conjunction(between(x(), 0, 10));
        let b = Dnf::from_conjunction(between(x(), 3, 5));
        let diff = a.minus(&b, &Budget::default()).unwrap();
        assert!(holds(&diff, 1));
        assert!(!holds(&diff, 4));
        assert!(holds(&diff, 9));
        // Difference with self is empty.
        assert!(!a.minus(&a, &Budget::default()).unwrap().is_satisfiable());
    }

    #[test]
    fn containment_and_equivalence() {
        let small = Dnf::from_conjunction(between(x(), 2, 3));
        let big = Dnf::from_conjunction(between(x(), 0, 10));
        assert!(small.contained_in(&big));
        assert!(!big.contained_in(&small));
        let split = Dnf::from_conjunctions([between(x(), 0, 5), between(x(), 5, 10)]);
        assert!(split.equivalent(&big));
    }

    #[test]
    fn normalize_absorbs() {
        let d = Dnf::from_conjunctions([
            between(x(), 0, 10),
            between(x(), 2, 3), // absorbed
            Conjunction::from_atoms([
                Atom::ge(LinExpr::var(x()), LinExpr::constant_int(5)),
                Atom::le(LinExpr::var(x()), LinExpr::constant_int(4)),
            ]), // unsat
        ]);
        let n = d.normalize(&Budget::default()).unwrap();
        assert_eq!(n.len(), 1);
        assert!(n.equivalent(&d));
    }

    #[test]
    fn projection_distributes() {
        let y = Var(1);
        let c1 = Conjunction::from_atoms([
            Atom::ge(LinExpr::var(x()), LinExpr::var(y)),
            Atom::ge(LinExpr::var(y), LinExpr::constant_int(3)),
        ]);
        let c2 = between(x(), 0, 1);
        let d = Dnf::from_conjunctions([c1, c2]).eliminate([y]);
        assert!(holds(&d, 5)); // from c1: x ≥ 3
        assert!(holds(&d, 1)); // from c2
        assert!(!holds(&d, 2));
    }

    #[test]
    fn display() {
        assert_eq!(Dnf::fals().to_string(), "false");
        let d = Dnf::from_conjunction(between(x(), 0, 1));
        assert!(d.to_string().starts_with('('));
    }

    #[test]
    fn bounded_ops_match_unbounded_under_generous_caps() {
        // A generous budget gives the same result as the default one.
        let a = Dnf::from_conjunctions([between(x(), 0, 10), between(x(), 20, 30)]);
        let b = Dnf::from_conjunction(between(x(), 3, 25));
        let generous = Budget { max_dnf_conjunctions: Some(1000), ..Budget::default() };
        assert_eq!(a.and(&b, &generous), a.and(&b, &Budget::default()));
        assert_eq!(a.negate(&generous), a.negate(&Budget::default()));
        assert_eq!(a.minus(&b, &generous), a.minus(&b, &Budget::default()));
    }

    #[test]
    fn bounded_negation_trips_on_tight_cap() {
        // A tight disjunct cap trips the negation's expansion.
        let c =
            Dnf::from_conjunctions([between(x(), 0, 1), between(x(), 3, 4), between(x(), 6, 7)]);
        let tight = Budget { max_dnf_conjunctions: Some(1), ..Budget::default() };
        match c.negate(&tight) {
            Err(BudgetExceeded { what: "dnf conjunctions", used, limit: 1 }) => assert!(used > 1),
            other => panic!("expected budget trip, got {:?}", other),
        }
    }

    #[test]
    fn budget_counts_every_product() {
        // Every product is counted, kept or not: 2 × 1 here.
        let a = Dnf::from_conjunctions([between(x(), 0, 10), between(x(), 20, 30)]);
        let b = Dnf::from_conjunction(between(x(), 3, 25));
        let built = AtomicU64::new(0);
        a.and(&b, &Budget { dnf_built: Some(&built), ..Budget::default() }).unwrap();
        assert_eq!(built.load(Ordering::Relaxed), 2);
    }
}

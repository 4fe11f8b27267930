//! Constraint tuples: conjunctions of atomic constraints.
//!
//! A [`Conjunction`] is the syntactic object of Definition 1 of the paper —
//! "a constraint k-tuple is a set of constraints on k variables" — whose
//! semantics is the set of assignments satisfying all of its atoms. All the
//! reasoning the Constraint Query Algebra needs (satisfiability, projection,
//! entailment, bounds) happens here, on the syntactic layer, in accordance
//! with the closure principle of §2.5.

use crate::assignment::Assignment;
use crate::atom::Atom;
use crate::budget::{Budget, BudgetExceeded};
use crate::fourier_motzkin::{self, Eliminated};
use crate::interval::Interval;
use crate::linexpr::LinExpr;
use crate::var::Var;
use cqa_num::Rat;
use std::collections::BTreeSet;
use std::fmt;

/// A conjunction of atomic linear constraints (a constraint tuple body).
///
/// Trivially true atoms are never stored; a detected ground contradiction
/// collapses the conjunction to the single [`Atom::falsum`] atom. Beyond
/// that, unsatisfiability is *semantic* and detected by [`Self::is_satisfiable`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Conjunction {
    atoms: BTreeSet<Atom>,
}

impl Conjunction {
    /// The empty conjunction — `true`, satisfied by every assignment.
    pub fn tru() -> Conjunction {
        Conjunction::default()
    }

    /// The canonical contradiction — `false`.
    pub fn falsum() -> Conjunction {
        let mut atoms = BTreeSet::new();
        atoms.insert(Atom::falsum());
        Conjunction { atoms }
    }

    /// Builds a conjunction from atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Conjunction {
        let mut c = Conjunction::tru();
        for a in atoms {
            c.add(a);
        }
        c
    }

    /// Adds one atom, folding ground truths.
    pub fn add(&mut self, atom: Atom) {
        if self.is_trivially_false() {
            return;
        }
        match atom.ground_truth() {
            Some(true) => {}
            Some(false) => {
                self.atoms.clear();
                self.atoms.insert(Atom::falsum());
            }
            None => {
                self.atoms.insert(atom);
            }
        }
    }

    /// Conjunction of two conjunctions.
    pub fn and(&self, other: &Conjunction) -> Conjunction {
        let mut out = self.clone();
        for a in &other.atoms {
            out.add(a.clone());
        }
        out
    }

    /// Iterates over the stored atoms in canonical order.
    pub fn atoms(&self) -> impl Iterator<Item = &Atom> + '_ {
        self.atoms.iter()
    }

    /// Number of stored atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the conjunction is the trivial `true`.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Whether the conjunction is the stored contradiction.
    pub fn is_trivially_false(&self) -> bool {
        self.atoms.len() == 1 && self.atoms.iter().next().unwrap().is_trivially_false()
    }

    /// The set of variables mentioned by any atom.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// Whether any atom mentions `v`. Per the broad semantics of
    /// Definition 1, a variable *not* mentioned ranges over the whole
    /// domain.
    pub fn mentions(&self, v: Var) -> bool {
        self.atoms.iter().any(|a| a.mentions(v))
    }

    /// Evaluates the conjunction at a point. `None` if the assignment does
    /// not bind every mentioned variable.
    pub fn eval(&self, a: &Assignment) -> Option<bool> {
        let mut result = true;
        for atom in &self.atoms {
            match atom.eval(a) {
                Some(true) => {}
                Some(false) => result = false, // keep scanning: totality check
                None => return None,
            }
        }
        Some(result)
    }

    /// Decides satisfiability over the rationals (exact), without limits.
    pub fn is_satisfiable(&self) -> bool {
        // An unlimited budget never trips.
        self.is_satisfiable_budgeted(&Budget::default()).unwrap_or(false)
    }

    /// [`Self::is_satisfiable`] under a budget: the decision runs full
    /// variable elimination, so a blow-up surfaces as a typed error
    /// instead of unbounded allocation.
    pub fn is_satisfiable_budgeted(&self, budget: &Budget<'_>) -> Result<bool, BudgetExceeded> {
        Ok(match fourier_motzkin::eliminate(&self.atoms, &self.vars(), budget)? {
            Eliminated::Atoms(rest) => {
                debug_assert!(rest.is_empty(), "eliminating all vars leaves ground atoms only");
                true
            }
            Eliminated::Unsat => false,
        })
    }

    /// Projects out `vars`, without limits: returns a conjunction
    /// equivalent to `∃ vars . self` over the remaining variables.
    pub fn eliminate(&self, vars: impl IntoIterator<Item = Var>) -> Conjunction {
        // An unlimited budget never trips.
        self.eliminate_budgeted(vars, &Budget::default()).unwrap_or_else(|_| Conjunction::falsum())
    }

    /// [`Self::eliminate`] under a budget.
    pub fn eliminate_budgeted(
        &self,
        vars: impl IntoIterator<Item = Var>,
        budget: &Budget<'_>,
    ) -> Result<Conjunction, BudgetExceeded> {
        let vars: BTreeSet<Var> = vars.into_iter().collect();
        Ok(match fourier_motzkin::eliminate(&self.atoms, &vars, budget)? {
            Eliminated::Atoms(atoms) => Conjunction { atoms },
            Eliminated::Unsat => Conjunction::falsum(),
        })
    }

    /// Substitutes `repl` for `v` in every atom.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> Conjunction {
        Conjunction::from_atoms(self.atoms.iter().map(|a| a.substitute(v, repl)))
    }

    /// Renames every variable at once: each `(from, to)` pair sends `from`
    /// to `to`, and a variable absent from `mapping` keeps its index. The
    /// map must be injective on the mentioned variables; it may permute
    /// them freely.
    ///
    /// No arithmetic runs: an injective renaming maps distinct atoms to
    /// distinct non-ground atoms, so the renamed atoms go straight into
    /// the set with nothing to fold.
    pub fn rename(&self, mapping: &[(Var, Var)]) -> Conjunction {
        let to = |v: Var| mapping.iter().find(|(from, _)| *from == v).map_or(v, |&(_, to)| to);
        let atoms: BTreeSet<Atom> = self.atoms.iter().map(|a| a.map_vars(to)).collect();
        debug_assert_eq!(atoms.len(), self.atoms.len(), "renaming merged two atoms");
        Conjunction { atoms }
    }

    /// Whether this conjunction entails the atom (`self ⊨ atom`), each
    /// refutation decided under `budget`.
    pub fn implies_atom(&self, atom: &Atom, budget: &Budget<'_>) -> Result<bool, BudgetExceeded> {
        // self ⊨ a  iff  self ∧ ¬a is unsatisfiable, for every disjunct of ¬a.
        for neg in atom.negate() {
            let mut c = self.clone();
            c.add(neg);
            if c.is_satisfiable_budgeted(budget)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether this conjunction entails every atom of `other`
    /// (semantic containment of the denoted point sets, assuming `self`
    /// is satisfiable), under `budget`.
    pub fn implies(&self, other: &Conjunction, budget: &Budget<'_>) -> Result<bool, BudgetExceeded> {
        for a in &other.atoms {
            if !self.implies_atom(a, budget)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Semantic equivalence of two conjunctions.
    pub fn equivalent(&self, other: &Conjunction) -> bool {
        // An unlimited budget never trips.
        let implies = |a: &Conjunction, b| a.implies(b, &Budget::default()).unwrap_or(false);
        match (self.is_satisfiable(), other.is_satisfiable()) {
            (false, false) => true,
            (true, true) => implies(self, other) && implies(other, self),
            _ => false,
        }
    }

    /// Removes redundant atoms under `budget`: an atom entailed by the
    /// others is dropped. An unsatisfiable conjunction collapses to
    /// [`Conjunction::falsum`].
    pub fn simplify(&self, budget: &Budget<'_>) -> Result<Conjunction, BudgetExceeded> {
        if !self.is_satisfiable_budgeted(budget)? {
            return Ok(Conjunction::falsum());
        }
        let mut kept: Vec<Atom> = self.atoms.iter().cloned().collect();
        let mut i = 0;
        while i < kept.len() {
            let candidate = kept[i].clone();
            let rest = Conjunction::from_atoms(
                kept.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, a)| a.clone()),
            );
            if rest.implies_atom(&candidate, budget)? {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        Ok(Conjunction { atoms: kept.into_iter().collect() })
    }

    /// The exact interval of values `v` can take under this conjunction
    /// (the projection of the denoted set onto `v`).
    pub fn bounds(&self, v: Var) -> Interval {
        let others: Vec<Var> = self.vars().into_iter().filter(|&u| u != v).collect();
        let projected = self.eliminate(others);
        if projected.is_trivially_false() {
            return Interval::empty();
        }
        let mut interval = Interval::full();
        for a in &projected.atoms {
            let c = a.expr().coeff(v);
            // Ground leftovers are true by construction.
            if !c.is_zero() {
                interval.narrow(a, &c);
            }
        }
        interval
    }

    /// Picks an arbitrary satisfying assignment over the given variables,
    /// if one exists. Useful for tests and counterexamples.
    pub fn sample_point(&self, vars: &[Var]) -> Option<Assignment> {
        let mut current = self.clone();
        let mut asg = Assignment::new();
        for (i, &v) in vars.iter().enumerate() {
            let interval = current.bounds(v);
            if interval.is_empty() {
                return None;
            }
            let value = pick_in_interval(&interval);
            asg.set(v, value.clone());
            current = current.substitute(v, &LinExpr::constant(value));
            if current.is_trivially_false() {
                return None;
            }
            let _ = i;
        }
        if current.is_satisfiable() {
            Some(asg)
        } else {
            None
        }
    }

    /// Partitions the mentioned variables into *independence components*:
    /// the connected components of the co-occurrence graph (two variables
    /// are adjacent when some atom mentions both).
    ///
    /// Variables in different components are **independent** in the sense
    /// of Chomicki–Goldin–Kuper–Toman (the paper's \[5\]): the conjunction
    /// factorizes as a product of sub-conjunctions over the components, so
    /// the denoted point set is a cartesian product. §3.2 notes the C/R
    /// flag interacts with this — a relational attribute never occurs in
    /// constraints, so it is automatically independent of everything.
    ///
    /// This is the syntactic criterion: it is sound (syntactically
    /// independent ⇒ semantically independent) and becomes complete after
    /// [`Self::simplify`] removes redundant linking atoms.
    pub fn independence_components(&self) -> Vec<BTreeSet<Var>> {
        let vars: Vec<Var> = self.vars().into_iter().collect();
        let index: std::collections::BTreeMap<Var, usize> =
            vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        // Union-find over the mentioned variables.
        let mut parent: Vec<usize> = (0..vars.len()).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = i;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for atom in &self.atoms {
            let mut it = atom.vars();
            if let Some(first) = it.next() {
                let fi = index[&first];
                for v in it {
                    let (a, b) = (find(&mut parent, fi), find(&mut parent, index[&v]));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        let mut components: std::collections::BTreeMap<usize, BTreeSet<Var>> =
            std::collections::BTreeMap::new();
        for (i, &v) in vars.iter().enumerate() {
            components.entry(find(&mut parent, i)).or_default().insert(v);
        }
        components.into_values().collect()
    }

    /// Whether `u` and `v` are (syntactically) independent — in different
    /// independence components, or not mentioned at all.
    pub fn independent(&self, u: Var, v: Var) -> bool {
        if u == v {
            return false;
        }
        !self
            .independence_components()
            .iter()
            .any(|c| c.contains(&u) && c.contains(&v))
    }

    /// Factorizes the conjunction along its independence components:
    /// returns one sub-conjunction per component. (Ground atoms cannot
    /// occur here: [`Self::add`] folds trivial truths away and collapses
    /// contradictions to the variable-free falsum, which has no
    /// components and returns unsplit.) The conjunction of the factors
    /// is the original formula.
    pub fn factor(&self) -> Vec<Conjunction> {
        let components = self.independence_components();
        if components.len() <= 1 {
            return vec![self.clone()];
        }
        components
            .iter()
            .map(|comp| {
                Conjunction::from_atoms(
                    self.atoms
                        .iter()
                        .filter(|a| a.vars().next().map(|v| comp.contains(&v)).unwrap_or(false))
                        .cloned(),
                )
            })
            .collect()
    }

    /// Renders with a custom variable printer.
    pub fn display_with<'a>(&'a self, name: &'a dyn Fn(Var) -> String) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Conjunction, &'a dyn Fn(Var) -> String);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.atoms.is_empty() {
                    return f.write_str("true");
                }
                for (i, a) in self.0.atoms.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" and ")?;
                    }
                    write!(f, "{}", a.display_with(self.1))?;
                }
                Ok(())
            }
        }
        D(self, name)
    }
}

/// Some rational inside a nonempty interval.
fn pick_in_interval(i: &Interval) -> Rat {
    debug_assert!(!i.is_empty());
    match (i.lo(), i.hi()) {
        (None, None) => Rat::zero(),
        (Some(l), None) => &l.value + &Rat::one(),
        (None, Some(h)) => &h.value - &Rat::one(),
        (Some(l), Some(h)) => {
            if !l.strict && !h.strict && l.value == h.value {
                l.value.clone()
            } else {
                (&l.value + &h.value) / Rat::from_int(2)
            }
        }
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |v: Var| v.to_string();
        let d = self.display_with(&name);
        write!(f, "{}", d)
    }
}

impl fmt::Debug for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Conjunction({})", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Bound;

    fn x() -> Var {
        Var(0)
    }
    fn y() -> Var {
        Var(1)
    }
    fn ri(v: i64) -> Rat {
        Rat::from_int(v)
    }
    fn le(v: Var, c: i64) -> Atom {
        Atom::le(LinExpr::var(v), LinExpr::constant_int(c))
    }
    fn ge(v: Var, c: i64) -> Atom {
        Atom::ge(LinExpr::var(v), LinExpr::constant_int(c))
    }

    #[test]
    fn trivial_truth_and_falsity() {
        let mut c = Conjunction::tru();
        assert!(c.is_empty());
        assert!(c.is_satisfiable());
        c.add(Atom::le(LinExpr::constant_int(0), LinExpr::constant_int(1)));
        assert!(c.is_empty()); // trivially true atom dropped
        c.add(Atom::le(LinExpr::constant_int(1), LinExpr::constant_int(0)));
        assert!(c.is_trivially_false());
        assert!(!c.is_satisfiable());
        // adding more after falsum keeps falsum
        c.add(le(x(), 5));
        assert!(c.is_trivially_false());
    }

    #[test]
    fn satisfiability() {
        let c = Conjunction::from_atoms([ge(x(), 0), le(x(), 10), ge(y(), 5), le(y(), 5)]);
        assert!(c.is_satisfiable());
        let d = c.and(&Conjunction::from_atoms([Atom::gt(
            LinExpr::var(y()),
            LinExpr::constant_int(5),
        )]));
        assert!(!d.is_satisfiable());
    }

    #[test]
    fn eval_total_and_partial() {
        let c = Conjunction::from_atoms([ge(x(), 0), le(x(), 10)]);
        let inside = Assignment::from_pairs([(x(), ri(5))]);
        let outside = Assignment::from_pairs([(x(), ri(11))]);
        assert_eq!(c.eval(&inside), Some(true));
        assert_eq!(c.eval(&outside), Some(false));
        assert_eq!(c.eval(&Assignment::new()), None);
    }

    #[test]
    fn projection_is_shadow() {
        // The triangle 0 ≤ x, 0 ≤ y, x + y ≤ 2 projected on x is [0, 2].
        let c = Conjunction::from_atoms([
            ge(x(), 0),
            ge(y(), 0),
            Atom::le(
                LinExpr::from_terms([(x(), ri(1)), (y(), ri(1))], Rat::zero()),
                LinExpr::constant_int(2),
            ),
        ]);
        let p = c.eliminate([y()]);
        assert_eq!(p.bounds(x()), Interval::closed(ri(0), ri(2)));
        assert!(!p.mentions(y()));
    }

    #[test]
    fn bounds_keep_strictness() {
        let c = Conjunction::from_atoms([
            ge(x(), 1),
            Atom::lt(LinExpr::var(x()), LinExpr::constant_int(4)),
            Atom::var_eq_const(y(), ri(7)),
        ]);
        let bx = c.bounds(x());
        assert_eq!(
            bx,
            Interval::new(Some(Bound::closed(ri(1))), Some(Bound::open(ri(4))))
        );
        assert_eq!(c.bounds(y()), Interval::point(ri(7)));
        // Unconstrained variable: full line (broad semantics).
        assert!(c.bounds(Var(9)).is_full());
    }

    #[test]
    fn entailment() {
        let unlimited = Budget::default();
        let c = Conjunction::from_atoms([ge(x(), 2), le(x(), 3)]);
        assert!(c.implies_atom(&ge(x(), 0), &unlimited).unwrap());
        assert!(!c.implies_atom(&ge(x(), 3), &unlimited).unwrap());
        assert!(c.implies_atom(&le(x(), 3), &unlimited).unwrap());
        let weaker = Conjunction::from_atoms([ge(x(), 0), le(x(), 5)]);
        assert!(c.implies(&weaker, &unlimited).unwrap());
        assert!(!weaker.implies(&c, &unlimited).unwrap());
        // Equality entailment needs both branches of the negation.
        let point = Conjunction::from_atoms([ge(x(), 2), le(x(), 2)]);
        assert!(point.implies_atom(&Atom::var_eq_const(x(), ri(2)), &unlimited).unwrap());
    }

    #[test]
    fn equivalence() {
        let a = Conjunction::from_atoms([ge(x(), 2), le(x(), 2)]);
        let b = Conjunction::from_atoms([Atom::var_eq_const(x(), ri(2))]);
        assert!(a.equivalent(&b));
        let f1 = Conjunction::from_atoms([Atom::gt(LinExpr::var(x()), LinExpr::var(x()))]);
        assert!(f1.equivalent(&Conjunction::falsum()));
    }

    #[test]
    fn simplify_drops_redundant() {
        let c = Conjunction::from_atoms([ge(x(), 2), ge(x(), 0), le(x(), 9), le(x(), 9)]);
        let s = c.simplify(&Budget::default()).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.equivalent(&c));
        let unsat = Conjunction::from_atoms([ge(x(), 2), le(x(), 1)]);
        assert!(unsat.simplify(&Budget::default()).unwrap().is_trivially_false());
    }

    #[test]
    fn substitution_and_rename() {
        let c = Conjunction::from_atoms([Atom::le(LinExpr::var(x()), LinExpr::var(y()))]);
        let renamed = c.rename(&[(x(), Var(5))]);
        assert!(!renamed.mentions(x()));
        assert!(renamed.mentions(Var(5)));
        assert!(renamed.mentions(y()), "an unmapped variable keeps its index");
        let fixed = c.substitute(y(), &LinExpr::constant_int(3));
        assert_eq!(fixed.bounds(x()), Interval::new(None, Some(Bound::closed(ri(3)))));
    }

    #[test]
    fn rename_swaps_variables() {
        // x ≤ y with the swap x ↔ y becomes y ≤ x.
        let swap = [(x(), y()), (y(), x())];
        let c = Conjunction::from_atoms([Atom::le(LinExpr::var(x()), LinExpr::var(y()))]);
        let swapped = c.rename(&swap);
        assert_eq!(swapped.rename(&swap), c);
        assert_ne!(swapped, c);
        // Semantics: swapped holds at (x=2, y=1).
        let asg = Assignment::from_pairs([(x(), ri(2)), (y(), ri(1))]);
        assert_eq!(swapped.eval(&asg), Some(true));
        assert_eq!(c.eval(&asg), Some(false));
        // An equation whose leading coefficient turns negative is negated
        // back into canonical form: x - 2y = 0 becomes y - 2x = 0.
        let eq = Conjunction::from_atoms([Atom::eq(
            LinExpr::var(x()),
            LinExpr::term(y(), ri(2)),
        )]);
        let expected = Conjunction::from_atoms([Atom::eq(
            LinExpr::var(y()),
            LinExpr::term(x(), ri(2)),
        )]);
        assert_eq!(eq.rename(&swap), expected);
    }

    #[test]
    fn sample_point_inside() {
        let c = Conjunction::from_atoms([
            ge(x(), 0),
            ge(y(), 0),
            Atom::le(
                LinExpr::from_terms([(x(), ri(1)), (y(), ri(1))], Rat::zero()),
                LinExpr::constant_int(2),
            ),
        ]);
        let p = c.sample_point(&[x(), y()]).unwrap();
        assert_eq!(c.eval(&p), Some(true));
        let unsat = Conjunction::from_atoms([ge(x(), 2), le(x(), 1)]);
        assert!(unsat.sample_point(&[x()]).is_none());
    }

    #[test]
    fn display() {
        let c = Conjunction::from_atoms([ge(x(), 1), le(y(), 2)]);
        let s = c.to_string();
        assert!(s.contains("and"), "{}", s);
        assert_eq!(Conjunction::tru().to_string(), "true");
    }

    #[test]
    fn independence_components() {
        let z = Var(2);
        let w = Var(3);
        // x–y linked, z–w linked, the pairs independent.
        let c = Conjunction::from_atoms([
            Atom::le(LinExpr::var(x()), LinExpr::var(y())),
            ge(x(), 0),
            Atom::le(LinExpr::var(z), LinExpr::var(w)),
        ]);
        let comps = c.independence_components();
        assert_eq!(comps.len(), 2);
        assert!(c.independent(x(), z));
        assert!(c.independent(y(), w));
        assert!(!c.independent(x(), y()));
        assert!(!c.independent(x(), x()));
        // Unmentioned variables are independent of everything.
        assert!(c.independent(x(), Var(9)));
    }

    #[test]
    fn independence_is_transitive_through_atoms() {
        let z = Var(2);
        // x–y and y–z each linked: one component {x, y, z}.
        let c = Conjunction::from_atoms([
            Atom::le(LinExpr::var(x()), LinExpr::var(y())),
            Atom::le(LinExpr::var(y()), LinExpr::var(z)),
        ]);
        assert_eq!(c.independence_components().len(), 1);
        assert!(!c.independent(x(), z));
    }

    #[test]
    fn factorization_preserves_semantics() {
        let z = Var(2);
        let c = Conjunction::from_atoms([
            ge(x(), 0),
            le(x(), 1),
            Atom::le(LinExpr::var(y()), LinExpr::var(z)),
            ge(y(), 5),
        ]);
        let factors = c.factor();
        assert_eq!(factors.len(), 2);
        let product = factors.iter().fold(Conjunction::tru(), |acc, f| acc.and(f));
        assert_eq!(product, c);
        // Each factor mentions only its own component's variables.
        for f in &factors {
            let vars = f.vars();
            assert!(vars.contains(&x()) != vars.contains(&y()));
        }
        // Single-component conjunctions do not split.
        let linked = Conjunction::from_atoms([Atom::le(LinExpr::var(x()), LinExpr::var(y()))]);
        assert_eq!(linked.factor().len(), 1);
    }
}

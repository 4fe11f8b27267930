//! The dense-order-with-constants constraint class.
//!
//! §2.3 of the paper stresses that the CDB framework "encompasses all
//! classes of constraints" with a decidable theory — Definition 3 names the
//! theory of dense order with constants (Ferrante–Geiser, the paper's \[8\])
//! alongside the reals. This module implements that class as a *sublanguage*
//! of the rational linear class: atoms are `u ⊲ v` where `u, v` are
//! variables or constants and `⊲ ∈ {<, ≤, =}`.
//!
//! The class is closed under the algebra's operations: Fourier–Motzkin
//! combination of two order atoms is again an order atom (chaining
//! `x ≤ y ≤ z` gives `x ≤ z`), so projection never leaves the class. The
//! [`OrderConjunction::eliminate`] implementation *checks* this closure on
//! every output atom, making the closure principle of §2.5 an executable
//! invariant rather than a proof obligation.

use crate::atom::{Atom, Rel};
use crate::conj::Conjunction;
use crate::linexpr::LinExpr;
use crate::var::Var;
use cqa_num::Rat;
use std::fmt;

/// One side of a dense-order atom: a variable or a rational constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Rat),
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{}", v),
            Term::Const(c) => write!(f, "{}", c),
        }
    }
}

/// An atomic dense-order constraint `lhs rel rhs`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderAtom {
    /// Left term.
    pub lhs: Term,
    /// One of `<`, `≤`, `=` (as [`Rel::Lt`], [`Rel::Le`], [`Rel::Eq`]).
    pub rel: Rel,
    /// Right term.
    pub rhs: Term,
}

/// Error returned when a linear atom falls outside the dense-order class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotInClass {
    /// Human-readable rendering of the offending atom.
    pub atom: String,
}

impl fmt::Display for NotInClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "atom outside the dense-order class: {}", self.atom)
    }
}

impl std::error::Error for NotInClass {}

impl OrderAtom {
    /// `lhs < rhs`.
    pub fn lt(lhs: Term, rhs: Term) -> OrderAtom {
        OrderAtom { lhs, rel: Rel::Lt, rhs }
    }

    /// `lhs ≤ rhs`.
    pub fn le(lhs: Term, rhs: Term) -> OrderAtom {
        OrderAtom { lhs, rel: Rel::Le, rhs }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: Term, rhs: Term) -> OrderAtom {
        OrderAtom { lhs, rel: Rel::Eq, rhs }
    }

    /// Embeds the atom into the linear class.
    pub fn to_linear(&self) -> Atom {
        let side = |t: &Term| match t {
            Term::Var(v) => LinExpr::var(*v),
            Term::Const(c) => LinExpr::constant(c.clone()),
        };
        match self.rel {
            Rel::Lt => Atom::lt(side(&self.lhs), side(&self.rhs)),
            Rel::Le => Atom::le(side(&self.lhs), side(&self.rhs)),
            Rel::Eq => Atom::eq(side(&self.lhs), side(&self.rhs)),
        }
    }

    /// Recognizes a linear atom as a dense-order atom, if it is one.
    ///
    /// A linear atom is in the class when its expression is `±x ∓ y + c = 0`
    /// with `c = 0`, or `±x + c rel 0` — i.e. at most two variables, unit
    /// coefficients of opposite sign, and no constant when two variables
    /// are present.
    pub fn from_linear(atom: &Atom) -> Result<OrderAtom, NotInClass> {
        let err = || NotInClass { atom: atom.to_string() };
        let e = atom.expr();
        let terms: Vec<(Var, Rat)> = e.terms().map(|(v, c)| (v, c.clone())).collect();
        let one = Rat::one();
        let minus_one = -Rat::one();
        match terms.as_slice() {
            [] => Err(err()),
            [(v, c)] if *c == one => {
                // x + k rel 0  ⇔  x rel -k
                Ok(OrderAtom {
                    lhs: Term::Var(*v),
                    rel: atom.rel(),
                    rhs: Term::Const(-e.constant_term()),
                })
            }
            [(v, c)] if *c == minus_one => {
                // -x + k rel 0  ⇔  k rel x
                Ok(OrderAtom {
                    lhs: Term::Const(e.constant_term().clone()),
                    rel: atom.rel(),
                    rhs: Term::Var(*v),
                })
            }
            [(v1, c1), (v2, c2)] if e.constant_term().is_zero() => {
                if *c1 == one && *c2 == minus_one {
                    // x - y rel 0 ⇔ x rel y
                    Ok(OrderAtom { lhs: Term::Var(*v1), rel: atom.rel(), rhs: Term::Var(*v2) })
                } else if *c1 == minus_one && *c2 == one {
                    Ok(OrderAtom { lhs: Term::Var(*v2), rel: atom.rel(), rhs: Term::Var(*v1) })
                } else {
                    Err(err())
                }
            }
            _ => Err(err()),
        }
    }
}

impl fmt::Display for OrderAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.rel, self.rhs)
    }
}

/// A conjunction of dense-order atoms.
///
/// Delegates reasoning to the linear engine but verifies that every result
/// stays within the class — an executable form of the closure requirement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OrderConjunction {
    atoms: Vec<OrderAtom>,
}

impl OrderConjunction {
    /// Builds from atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = OrderAtom>) -> OrderConjunction {
        OrderConjunction { atoms: atoms.into_iter().collect() }
    }

    /// The atoms.
    pub fn atoms(&self) -> &[OrderAtom] {
        &self.atoms
    }

    /// Embeds into the linear class.
    pub fn to_linear(&self) -> Conjunction {
        Conjunction::from_atoms(self.atoms.iter().map(|a| a.to_linear()))
    }

    /// Satisfiability over a dense order (equivalently, over the rationals).
    pub fn is_satisfiable(&self) -> bool {
        self.to_linear().is_satisfiable()
    }

    /// Quantifier elimination within the class. Returns an error if a
    /// result atom leaves the class — which the closure property guarantees
    /// cannot happen; the check makes the guarantee executable.
    pub fn eliminate(&self, vars: impl IntoIterator<Item = Var>) -> Result<OrderConjunction, NotInClass> {
        let lin = self.to_linear().eliminate(vars);
        if lin.is_trivially_false() {
            // `false` is representable in any class with constants: 1 < 0 is
            // not an order atom between distinct terms, so use 1 < 1.
            return Ok(OrderConjunction::from_atoms([OrderAtom::lt(
                Term::Const(Rat::one()),
                Term::Const(Rat::one()),
            )]));
        }
        let mut out = Vec::new();
        for atom in lin.atoms() {
            out.push(OrderAtom::from_linear(atom)?);
        }
        Ok(OrderConjunction { atoms: out })
    }
}

impl fmt::Display for OrderConjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return f.write_str("true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(" and ")?;
            }
            write!(f, "{}", a)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }
    fn c(n: i64) -> Term {
        Term::Const(Rat::from_int(n))
    }

    #[test]
    fn roundtrip_through_linear() {
        let atoms = vec![
            OrderAtom::lt(v(0), v(1)),
            OrderAtom::le(v(1), c(5)),
            OrderAtom::eq(v(2), c(3)),
            OrderAtom::lt(c(0), v(0)),
        ];
        for a in atoms {
            let lin = a.to_linear();
            let back = OrderAtom::from_linear(&lin).unwrap();
            // Equations may flip but semantics must be preserved.
            assert_eq!(back.to_linear(), lin, "{} vs {}", a, back);
        }
    }

    #[test]
    fn rejects_out_of_class() {
        let a = Atom::le(
            LinExpr::from_terms([(Var(0), Rat::from_int(2))], Rat::zero()),
            LinExpr::constant_int(3),
        );
        assert!(OrderAtom::from_linear(&a).is_err());
        let b = Atom::le(
            LinExpr::from_terms(
                [(Var(0), Rat::one()), (Var(1), Rat::one())],
                Rat::zero(),
            ),
            LinExpr::constant_int(0),
        );
        assert!(OrderAtom::from_linear(&b).is_err());
    }

    #[test]
    fn satisfiability() {
        let sat = OrderConjunction::from_atoms([
            OrderAtom::lt(v(0), v(1)),
            OrderAtom::lt(v(1), v(2)),
            OrderAtom::lt(c(0), v(0)),
            OrderAtom::lt(v(2), c(1)),
        ]);
        assert!(sat.is_satisfiable()); // density: room between 0 and 1
        let unsat = OrderConjunction::from_atoms([
            OrderAtom::lt(v(0), v(1)),
            OrderAtom::lt(v(1), v(0)),
        ]);
        assert!(!unsat.is_satisfiable());
    }

    #[test]
    fn elimination_stays_in_class() {
        // x < y ∧ y < z  ⇒ ∃y: x < z
        let conj = OrderConjunction::from_atoms([
            OrderAtom::lt(v(0), v(1)),
            OrderAtom::lt(v(1), v(2)),
        ]);
        let out = conj.eliminate([Var(1)]).unwrap();
        assert_eq!(out.atoms(), &[OrderAtom::lt(v(0), v(2))]);
    }

    #[test]
    fn elimination_with_constants() {
        // 3 ≤ y ∧ y < x ∧ x = z ⇒ ∃x: 3 ≤ y ∧ y < z  (via substitution)
        let conj = OrderConjunction::from_atoms([
            OrderAtom::le(c(3), v(1)),
            OrderAtom::lt(v(1), v(0)),
            OrderAtom::eq(v(0), v(2)),
        ]);
        let out = conj.eliminate([Var(0)]).unwrap();
        assert!(out.is_satisfiable());
        let lin = out.to_linear();
        // Check semantics: y < z and 3 ≤ y must be implied.
        assert!(lin.implies_atom(&OrderAtom::lt(v(1), v(2)).to_linear(), &Budget::default()).unwrap());
        assert!(lin.implies_atom(&OrderAtom::le(c(3), v(1)).to_linear(), &Budget::default()).unwrap());
    }

    #[test]
    fn unsat_elimination_representable() {
        let conj = OrderConjunction::from_atoms([
            OrderAtom::lt(v(0), c(0)),
            OrderAtom::lt(c(1), v(0)),
        ]);
        let out = conj.eliminate([Var(0)]).unwrap();
        assert!(!out.is_satisfiable());
    }

    #[test]
    fn display() {
        let a = OrderAtom::lt(v(0), c(2));
        assert_eq!(a.to_string(), "v0 < 2");
        assert_eq!(OrderConjunction::default().to_string(), "true");
    }
}

//! Atomic linear constraints.
//!
//! An [`Atom`] is `e = 0`, `e ≤ 0`, or `e < 0` for a linear expression `e`.
//! The richer surface forms (`e₁ ≥ e₂`, `e₁ > e₂`, `e₁ = e₂`) normalize into
//! these three at construction. Atoms are kept in a canonical scaling —
//! integer coefficients with content 1, and for equations a positive leading
//! coefficient — so semantically identical atoms are structurally equal,
//! which lets conjunctions deduplicate syntactically.

use crate::assignment::Assignment;
use crate::linexpr::LinExpr;
use crate::var::Var;
use cqa_num::{BigInt, Rat};
use std::fmt;

/// The relation of an atom to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rel {
    /// `e = 0`
    Eq,
    /// `e ≤ 0`
    Le,
    /// `e < 0`
    Lt,
}

impl Rel {
    /// The strictness resulting from chaining two bounds (used by
    /// Fourier–Motzkin): strict if either side is strict.
    pub fn chain(self, other: Rel) -> Rel {
        debug_assert!(self != Rel::Eq && other != Rel::Eq);
        if self == Rel::Lt || other == Rel::Lt {
            Rel::Lt
        } else {
            Rel::Le
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rel::Eq => "=",
            Rel::Le => "<=",
            Rel::Lt => "<",
        })
    }
}

/// An atomic constraint `expr rel 0` in canonical scaling.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    expr: LinExpr,
    rel: Rel,
}

impl Atom {
    /// Builds `expr rel 0`, canonicalizing the scaling.
    pub fn new(expr: LinExpr, rel: Rel) -> Atom {
        Atom { expr, rel }.canonicalize()
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Atom {
        Atom::new(&lhs - &rhs, Rel::Eq)
    }

    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Atom {
        Atom::new(&lhs - &rhs, Rel::Le)
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: LinExpr, rhs: LinExpr) -> Atom {
        Atom::new(&lhs - &rhs, Rel::Lt)
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Atom {
        Atom::le(rhs, lhs)
    }

    /// `lhs > rhs`.
    pub fn gt(lhs: LinExpr, rhs: LinExpr) -> Atom {
        Atom::lt(rhs, lhs)
    }

    /// `v = c` for a constant.
    pub fn var_eq_const(v: Var, c: Rat) -> Atom {
        Atom::eq(LinExpr::var(v), LinExpr::constant(c))
    }

    /// The always-false atom `1 ≤ 0`, used as the canonical contradiction.
    pub fn falsum() -> Atom {
        Atom { expr: LinExpr::constant_int(1), rel: Rel::Le }
    }

    /// The expression compared against zero.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The relation against zero.
    pub fn rel(&self) -> Rel {
        self.rel
    }

    /// Scales to integer coefficients with content 1; for equations also
    /// flips so the leading coefficient (or, for ground atoms, the constant)
    /// is positive.
    fn canonicalize(mut self) -> Atom {
        if self.expr.is_zero() {
            return self;
        }
        // Multiplier = lcm(denominators) / gcd(numerators) over all
        // coefficients and the constant term.
        let mut lcm_den = BigInt::one();
        let mut gcd_num = BigInt::zero();
        {
            let mut feed = |r: &Rat| {
                if !r.is_zero() {
                    let d = r.denom();
                    let g = lcm_den.gcd(d);
                    lcm_den = &lcm_den * &(d / &g);
                    gcd_num = gcd_num.gcd(r.numer());
                }
            };
            for (_, c) in self.expr.terms() {
                feed(c);
            }
            feed(self.expr.constant_term());
        }
        if gcd_num.is_zero() {
            return self; // expression was zero (handled above), defensive
        }
        let mult = Rat::new(lcm_den, gcd_num); // positive: gcd & lcm are positive
        if mult != Rat::one() {
            self.expr = self.expr.scale(&mult);
        }
        if self.rel == Rel::Eq {
            let flip = match self.expr.leading_coeff() {
                Some(c) => c.is_negative(),
                None => self.expr.constant_term().is_negative(),
            };
            if flip {
                self.expr = -&self.expr;
            }
        }
        self
    }

    /// If the atom mentions no variables, its truth value.
    pub fn ground_truth(&self) -> Option<bool> {
        if !self.expr.is_constant() {
            return None;
        }
        let c = self.expr.constant_term();
        Some(match self.rel {
            Rel::Eq => c.is_zero(),
            Rel::Le => !c.is_positive(),
            Rel::Lt => c.is_negative(),
        })
    }

    /// Whether the atom is trivially true (e.g. `0 ≤ 0`).
    pub fn is_trivially_true(&self) -> bool {
        self.ground_truth() == Some(true)
    }

    /// Whether the atom is trivially false (e.g. `1 ≤ 0`).
    pub fn is_trivially_false(&self) -> bool {
        self.ground_truth() == Some(false)
    }

    /// Whether `v` occurs in the atom.
    pub fn mentions(&self, v: Var) -> bool {
        self.expr.mentions(v)
    }

    /// Variables mentioned, in order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.expr.vars()
    }

    /// Evaluates under an assignment; `None` if some variable is unbound.
    pub fn eval(&self, a: &Assignment) -> Option<bool> {
        let val = self.expr.eval(a)?;
        Some(match self.rel {
            Rel::Eq => val.is_zero(),
            Rel::Le => !val.is_positive(),
            Rel::Lt => val.is_negative(),
        })
    }

    /// Replaces `v` by `repl` everywhere.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> Atom {
        if !self.mentions(v) {
            return self.clone();
        }
        Atom::new(self.expr.substitute(v, repl), self.rel)
    }

    /// The negation, as a disjunction of atoms:
    ///
    /// * `¬(e = 0)` → `e < 0 ∨ -e < 0`
    /// * `¬(e ≤ 0)` → `-e < 0`
    /// * `¬(e < 0)` → `-e ≤ 0`
    pub fn negate(&self) -> Vec<Atom> {
        match self.rel {
            Rel::Eq => vec![
                Atom::new(self.expr.clone(), Rel::Lt),
                Atom::new(-&self.expr, Rel::Lt),
            ],
            Rel::Le => vec![Atom::new(-&self.expr, Rel::Lt)],
            Rel::Lt => vec![Atom::new(-&self.expr, Rel::Le)],
        }
    }

    /// Renames variables through the injective `to`. A renaming keeps the
    /// coprime integer coefficients, so only an equation whose new leading
    /// coefficient is negative needs work: negating it restores canonical
    /// form.
    pub(crate) fn map_vars(&self, to: impl Fn(Var) -> Var) -> Atom {
        let mut expr = self.expr.map_vars(to);
        if self.rel == Rel::Eq && expr.leading_coeff().is_some_and(Rat::is_negative) {
            expr = -expr;
        }
        Atom { expr, rel: self.rel }
    }

    /// Renders with a custom variable printer, as `lhs rel rhs` with the
    /// constant moved to the right-hand side.
    pub fn display_with<'a>(&'a self, name: &'a dyn Fn(Var) -> String) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Atom, &'a dyn Fn(Var) -> String);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut lhs = self.0.expr.clone();
                let c = lhs.constant_term().clone();
                lhs.set_constant(Rat::zero());
                let rhs = -c;
                let lhs_d = lhs.display_with(self.1);
                write!(f, "{} {} {}", lhs_d, self.0.rel, rhs)
            }
        }
        D(self, name)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |v: Var| v.to_string();
        let d = self.display_with(&name);
        write!(f, "{}", d)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Atom({})", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: i64, q: i64) -> Rat {
        Rat::from_pair(p, q)
    }
    fn x() -> Var {
        Var(0)
    }
    fn y() -> Var {
        Var(1)
    }

    #[test]
    fn canonical_scaling_merges_equivalent_atoms() {
        // x/2 + y/3 ≤ 1   and   3x + 2y ≤ 6 are the same atom.
        let a1 = Atom::le(
            LinExpr::from_terms([(x(), r(1, 2)), (y(), r(1, 3))], Rat::zero()),
            LinExpr::constant_int(1),
        );
        let a2 = Atom::le(
            LinExpr::from_terms([(x(), r(3, 1)), (y(), r(2, 1))], Rat::zero()),
            LinExpr::constant_int(6),
        );
        assert_eq!(a1, a2);
    }

    #[test]
    fn equation_sign_canonical() {
        // x - y = 0 and y - x = 0 are the same atom.
        let a1 = Atom::eq(LinExpr::var(x()), LinExpr::var(y()));
        let a2 = Atom::eq(LinExpr::var(y()), LinExpr::var(x()));
        assert_eq!(a1, a2);
        // But x - y ≤ 0 and y - x ≤ 0 differ.
        let b1 = Atom::le(LinExpr::var(x()), LinExpr::var(y()));
        let b2 = Atom::le(LinExpr::var(y()), LinExpr::var(x()));
        assert_ne!(b1, b2);
    }

    #[test]
    fn ground_truth() {
        assert_eq!(Atom::new(LinExpr::constant_int(0), Rel::Eq).ground_truth(), Some(true));
        assert_eq!(Atom::new(LinExpr::constant_int(1), Rel::Eq).ground_truth(), Some(false));
        assert_eq!(Atom::new(LinExpr::constant_int(-1), Rel::Lt).ground_truth(), Some(true));
        assert_eq!(Atom::new(LinExpr::constant_int(0), Rel::Lt).ground_truth(), Some(false));
        assert_eq!(Atom::new(LinExpr::constant_int(0), Rel::Le).ground_truth(), Some(true));
        assert_eq!(Atom::new(LinExpr::var(x()), Rel::Le).ground_truth(), None);
        assert!(Atom::falsum().is_trivially_false());
    }

    #[test]
    fn eval() {
        // 2x - y < 0
        let a = Atom::lt(
            LinExpr::from_terms([(x(), r(2, 1))], Rat::zero()),
            LinExpr::var(y()),
        );
        let mut asg = Assignment::new();
        asg.set(x(), r(1, 1));
        asg.set(y(), r(3, 1));
        assert_eq!(a.eval(&asg), Some(true));
        asg.set(y(), r(2, 1));
        assert_eq!(a.eval(&asg), Some(false));
        let partial = Assignment::from_pairs([(x(), r(1, 1))]);
        assert_eq!(a.eval(&partial), None);
    }

    #[test]
    fn negation_is_complement() {
        let atoms = vec![
            Atom::eq(LinExpr::var(x()), LinExpr::constant_int(2)),
            Atom::le(LinExpr::var(x()), LinExpr::constant_int(2)),
            Atom::lt(LinExpr::var(x()), LinExpr::constant_int(2)),
        ];
        for a in atoms {
            let neg = a.negate();
            for val in [0i64, 1, 2, 3, 4] {
                let asg = Assignment::from_pairs([(x(), Rat::from_int(val))]);
                let original = a.eval(&asg).unwrap();
                let negated = neg.iter().any(|n| n.eval(&asg).unwrap());
                assert_eq!(original, !negated, "atom {} at {}", a, val);
            }
        }
    }

    #[test]
    fn ge_gt_flip() {
        let a = Atom::ge(LinExpr::var(x()), LinExpr::constant_int(4));
        // x >= 4  ⇒  4 - x <= 0, canonical integers
        let asg = Assignment::from_pairs([(x(), Rat::from_int(4))]);
        assert_eq!(a.eval(&asg), Some(true));
        let b = Atom::gt(LinExpr::var(x()), LinExpr::constant_int(4));
        assert_eq!(b.eval(&asg), Some(false));
    }

    #[test]
    fn display() {
        let a = Atom::le(
            LinExpr::from_terms([(x(), r(1, 1)), (y(), r(1, 1))], Rat::zero()),
            LinExpr::constant_int(2),
        );
        assert_eq!(a.to_string(), "v0 + v1 <= 2");
        let e = Atom::var_eq_const(x(), r(5, 2));
        assert_eq!(e.to_string(), "2*v0 = 5");
    }

    #[test]
    fn substitution() {
        // x + y ≤ 2 with x := 1 - y  →  1 ≤ 2 (trivially true)
        let a = Atom::le(
            LinExpr::from_terms([(x(), r(1, 1)), (y(), r(1, 1))], Rat::zero()),
            LinExpr::constant_int(2),
        );
        let repl = LinExpr::from_terms([(y(), r(-1, 1))], r(1, 1));
        let out = a.substitute(x(), &repl);
        assert!(out.is_trivially_true());
    }
}

//! Linear expressions with exact rational coefficients.

use crate::assignment::Assignment;
use crate::var::Var;
use cqa_num::Rat;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A linear expression `c₁·x₁ + … + cₖ·xₖ + c₀` over rational coefficients.
///
/// Terms with zero coefficient are never stored, so two expressions denote
/// the same linear function iff they are structurally equal.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    terms: BTreeMap<Var, Rat>,
    constant: Rat,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr { terms: BTreeMap::new(), constant: c }
    }

    /// An integer constant expression.
    pub fn constant_int(c: i64) -> LinExpr {
        LinExpr::constant(Rat::from_int(c))
    }

    /// The expression consisting of the single variable `v`.
    pub fn var(v: Var) -> LinExpr {
        LinExpr::term(v, Rat::one())
    }

    /// The expression `coeff · v`.
    pub fn term(v: Var, coeff: Rat) -> LinExpr {
        let mut terms = BTreeMap::new();
        if !coeff.is_zero() {
            terms.insert(v, coeff);
        }
        LinExpr { terms, constant: Rat::zero() }
    }

    /// Builds an expression from `(variable, coefficient)` pairs and a
    /// constant; duplicate variables are summed.
    pub fn from_terms(pairs: impl IntoIterator<Item = (Var, Rat)>, constant: Rat) -> LinExpr {
        let mut e = LinExpr::constant(constant);
        for (v, c) in pairs {
            e.add_term(v, c);
        }
        e
    }

    /// Adds `coeff · v` in place.
    pub fn add_term(&mut self, v: Var, coeff: Rat) {
        if coeff.is_zero() {
            return;
        }
        let entry = self.terms.entry(v).or_insert_with(Rat::zero);
        *entry = &*entry + &coeff;
        if entry.is_zero() {
            self.terms.remove(&v);
        }
    }

    /// The coefficient of `v` (zero when absent).
    pub fn coeff(&self, v: Var) -> Rat {
        self.terms.get(&v).cloned().unwrap_or_else(Rat::zero)
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rat {
        &self.constant
    }

    /// Mutable access to the constant term.
    pub fn set_constant(&mut self, c: Rat) {
        self.constant = c;
    }

    /// Whether the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant.is_zero()
    }

    /// Whether `v` occurs with a nonzero coefficient.
    pub fn mentions(&self, v: Var) -> bool {
        self.terms.contains_key(&v)
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (Var, &Rat)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, c))
    }

    /// The set of variables mentioned, in order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.keys().copied()
    }

    /// Number of variables mentioned.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Multiplies the whole expression by a rational scalar.
    pub fn scale(&self, k: &Rat) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|(v, c)| (*v, c * k)).collect(),
            constant: &self.constant * k,
        }
    }

    /// Replaces `v` by the expression `repl` (which must not mention `v`).
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> LinExpr {
        debug_assert!(!repl.mentions(v), "substitution must eliminate the variable");
        match self.terms.get(&v) {
            None => self.clone(),
            Some(c) => {
                let mut out = self.clone();
                out.terms.remove(&v);
                &out + &repl.scale(c)
            }
        }
    }

    /// Re-keys every term through `to` in one pass; coefficients and the
    /// constant are unchanged. `to` must be injective on the mentioned
    /// variables, so no two terms merge.
    pub(crate) fn map_vars(&self, to: impl Fn(Var) -> Var) -> LinExpr {
        let terms: BTreeMap<Var, Rat> =
            self.terms.iter().map(|(v, c)| (to(*v), c.clone())).collect();
        debug_assert_eq!(terms.len(), self.terms.len(), "renaming merged two terms");
        LinExpr { terms, constant: self.constant.clone() }
    }

    /// Evaluates under a (total, for the mentioned variables) assignment.
    ///
    /// Returns `None` if some mentioned variable is unassigned.
    pub fn eval(&self, a: &Assignment) -> Option<Rat> {
        let mut acc = self.constant.clone();
        for (v, c) in &self.terms {
            acc += &(c * a.get(*v)?);
        }
        Some(acc)
    }

    /// Solves `self = 0` for `v`: returns `e` such that `v = e` is
    /// equivalent, with `v` not occurring in `e`. `None` if `v` is absent.
    pub fn solve_for(&self, v: Var) -> Option<LinExpr> {
        let c = self.terms.get(&v)?.clone();
        let mut rest = self.clone();
        rest.terms.remove(&v);
        // c·v + rest = 0  ⇒  v = -rest / c
        Some(rest.scale(&(-Rat::one() / c)))
    }

    /// The leading (smallest-variable) coefficient, if any.
    pub fn leading_coeff(&self) -> Option<&Rat> {
        self.terms.values().next()
    }

    /// Renders the expression using `name` to print variables.
    pub fn display_with<'a>(&'a self, name: &'a dyn Fn(Var) -> String) -> impl fmt::Display + 'a {
        struct D<'a>(&'a LinExpr, &'a dyn Fn(Var) -> String);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut first = true;
                for (v, c) in &self.0.terms {
                    let vn = (self.1)(*v);
                    if first {
                        if c == &Rat::one() {
                            write!(f, "{}", vn)?;
                        } else if c == &(-Rat::one()) {
                            write!(f, "-{}", vn)?;
                        } else {
                            write!(f, "{}*{}", c, vn)?;
                        }
                        first = false;
                    } else if c.is_negative() {
                        let a = c.abs();
                        if a == Rat::one() {
                            write!(f, " - {}", vn)?;
                        } else {
                            write!(f, " - {}*{}", a, vn)?;
                        }
                    } else if c == &Rat::one() {
                        write!(f, " + {}", vn)?;
                    } else {
                        write!(f, " + {}*{}", c, vn)?;
                    }
                }
                let c0 = &self.0.constant;
                if first {
                    write!(f, "{}", c0)?;
                } else if c0.is_positive() {
                    write!(f, " + {}", c0)?;
                } else if c0.is_negative() {
                    write!(f, " - {}", c0.abs())?;
                }
                Ok(())
            }
        }
        D(self, name)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |v: Var| v.to_string();
        let d = self.display_with(&name);
        write!(f, "{}", d)
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LinExpr({})", self)
    }
}

impl Add for &LinExpr {
    type Output = LinExpr;
    fn add(self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for (v, c) in &other.terms {
            out.add_term(*v, c.clone());
        }
        out.constant = &out.constant + &other.constant;
        out
    }
}

impl Sub for &LinExpr {
    type Output = LinExpr;
    fn sub(self, other: &LinExpr) -> LinExpr {
        self + &(-other)
    }
}

impl Neg for &LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scale(&(-Rat::one()))
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        -&self
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, other: LinExpr) -> LinExpr {
        &self + &other
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, other: LinExpr) -> LinExpr {
        &self - &other
    }
}

impl Mul<&Rat> for &LinExpr {
    type Output = LinExpr;
    fn mul(self, k: &Rat) -> LinExpr {
        self.scale(k)
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
    fn construction_drops_zero_terms() {
        let e = LinExpr::from_terms([(x(), r(1, 1)), (x(), r(-1, 1)), (y(), r(2, 1))], r(3, 1));
        assert!(!e.mentions(x()));
        assert_eq!(e.coeff(y()), r(2, 1));
        assert_eq!(e.constant_term(), &r(3, 1));
        assert_eq!(e.arity(), 1);
    }

    #[test]
    fn add_sub_scale() {
        let e1 = LinExpr::from_terms([(x(), r(1, 2))], r(1, 1));
        let e2 = LinExpr::from_terms([(x(), r(1, 2)), (y(), r(1, 1))], r(-1, 1));
        let s = &e1 + &e2;
        assert_eq!(s.coeff(x()), r(1, 1));
        assert_eq!(s.coeff(y()), r(1, 1));
        assert!(s.constant_term().is_zero());
        let d = &e1 - &e1;
        assert!(d.is_zero());
        let sc = e2.scale(&r(2, 1));
        assert_eq!(sc.coeff(x()), r(1, 1));
        assert_eq!(sc.coeff(y()), r(2, 1));
    }

    #[test]
    fn substitute_eliminates() {
        // e = 2x + y + 1, substitute x := 3 - y  → 2(3-y) + y + 1 = -y + 7
        let e = LinExpr::from_terms([(x(), r(2, 1)), (y(), r(1, 1))], r(1, 1));
        let repl = LinExpr::from_terms([(y(), r(-1, 1))], r(3, 1));
        let out = e.substitute(x(), &repl);
        assert!(!out.mentions(x()));
        assert_eq!(out.coeff(y()), r(-1, 1));
        assert_eq!(out.constant_term(), &r(7, 1));
    }

    #[test]
    fn solve_for_variable() {
        // 2x + 4y - 6 = 0  ⇒  x = -2y + 3
        let e = LinExpr::from_terms([(x(), r(2, 1)), (y(), r(4, 1))], r(-6, 1));
        let sol = e.solve_for(x()).unwrap();
        assert_eq!(sol.coeff(y()), r(-2, 1));
        assert_eq!(sol.constant_term(), &r(3, 1));
        assert!(e.solve_for(Var(9)).is_none());
    }

    #[test]
    fn eval() {
        let e = LinExpr::from_terms([(x(), r(2, 1)), (y(), r(-1, 1))], r(1, 2));
        let mut a = Assignment::new();
        a.set(x(), r(1, 1));
        assert_eq!(e.eval(&a), None); // y unassigned
        a.set(y(), r(3, 1));
        assert_eq!(e.eval(&a), Some(r(-1, 2)));
    }

    #[test]
    fn display_pretty() {
        let e = LinExpr::from_terms([(x(), r(1, 1)), (y(), r(-2, 1))], r(5, 1));
        assert_eq!(e.to_string(), "v0 - 2*v1 + 5");
        assert_eq!(LinExpr::zero().to_string(), "0");
        assert_eq!((-&LinExpr::var(x())).to_string(), "-v0");
    }
}

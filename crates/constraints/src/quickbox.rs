//! Cheap-filter boxes: conservative `f64` interval bounds per
//! [`Conjunction`], for filter-first evaluation.
//!
//! The paper's multi-step processing idea — approximate geometry first,
//! exact geometry only for survivors — applied to constraint tuples.
//! [`Conjunction::quick_box`] derives, from the *single-variable* atoms
//! only, an axis-aligned box that **encloses** the conjunction's point
//! set. Deriving it is O(atoms) with one small rational division per
//! bound — orders of magnitude cheaper than Fourier–Motzkin — and two
//! boxes that do not overlap prove the two conjunctions jointly
//! unsatisfiable, so the exact check can be skipped.
//!
//! Soundness is one-directional by design:
//!
//! * every bound is widened **outward** by a relative epsilon larger
//!   than any `Rat → f64` rounding error, so the float box always
//!   contains the exact rational box;
//! * strict bounds are treated as closed (again: outward);
//! * multi-variable atoms are ignored (they can only shrink the exact
//!   set, never grow it);
//! * a bound whose `f64` image is non-finite is discarded (unbounded).
//!
//! Hence `quick_disjoint(a, b) == true` **implies** `a ∧ b` is
//! unsatisfiable, while `false` says nothing — exactly the contract a
//! filter needs. The property suite checks the implication against the
//! exact solver.
//!
//! For a survivor that is itself a box system (every atom on one
//! variable), the exact check that follows is cheap too:
//! [`crate::fourier_motzkin::eliminate`] decides it from the same
//! single-variable bounds in exact rationals, with strictness, instead
//! of running Fourier–Motzkin.

use crate::{Conjunction, Rel, Var};

/// Outward widening factor; `Rat::to_f64` is within a few ulps
/// (relative error ≤ ~2⁻⁵⁰), so a relative 1e-9 margin dominates it.
const WIDEN_EPS: f64 = 1e-9;

fn widen_down(x: f64) -> f64 {
    x - WIDEN_EPS * (1.0 + x.abs())
}

fn widen_up(x: f64) -> f64 {
    x + WIDEN_EPS * (1.0 + x.abs())
}

/// A conservative per-variable `f64` bounding box for a conjunction's
/// point set over variables `Var(0) .. Var(arity)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuickBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl QuickBox {
    /// The box containing no points at all (used for trivially false
    /// conjunctions).
    pub fn empty(arity: usize) -> QuickBox {
        QuickBox { lo: vec![f64::INFINITY; arity], hi: vec![f64::NEG_INFINITY; arity] }
    }

    /// The unbounded box over `arity` variables.
    pub fn full(arity: usize) -> QuickBox {
        QuickBox { lo: vec![f64::NEG_INFINITY; arity], hi: vec![f64::INFINITY; arity] }
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.lo.len()
    }

    /// The (widened) bounds of one dimension.
    pub fn dim(&self, d: usize) -> (f64, f64) {
        (self.lo[d], self.hi[d])
    }

    /// `true` when some dimension admits no value — which proves the
    /// underlying conjunction unsatisfiable (the float bounds are outward
    /// approximations of exact rational bounds on a single variable).
    pub fn is_known_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(lo, hi)| lo > hi)
    }

    /// `true` when the boxes provably share no point: some dimension's
    /// intervals are disjoint. Dimensions beyond the shorter box are
    /// treated as unbounded.
    pub fn disjoint(&self, other: &QuickBox) -> bool {
        if self.is_known_empty() || other.is_known_empty() {
            return true;
        }
        let dims = self.arity().min(other.arity());
        (0..dims).any(|d| self.hi[d] < other.lo[d] || other.hi[d] < self.lo[d])
    }
}

impl Conjunction {
    /// Computes the conservative [`QuickBox`] over `Var(0) .. Var(arity)`.
    ///
    /// Cost: one pass over the atoms; one small rational division per
    /// single-variable atom. No Fourier–Motzkin.
    pub fn quick_box(&self, arity: usize) -> QuickBox {
        let mut bx = QuickBox::full(arity);
        for atom in self.atoms() {
            if atom.is_trivially_false() {
                return QuickBox::empty(arity);
            }
            let expr = atom.expr();
            if expr.arity() != 1 {
                continue; // multi-variable: ignoring it only over-approximates
            }
            let (var, coeff) = expr.terms().next().expect("arity-1 expression has a term");
            let Var(v) = var;
            let d = v as usize;
            if d >= arity {
                continue;
            }
            // `c·v + k rel 0`  ⇔  `v rel' -k/c` (rel' flips when c < 0).
            let bound = -(&(expr.constant_term() / coeff));
            let bf = bound.to_f64();
            if !bf.is_finite() {
                continue; // magnitude beyond f64: leave the side unbounded
            }
            let upper_side = coeff.is_positive();
            match atom.rel() {
                Rel::Eq => {
                    bx.lo[d] = bx.lo[d].max(widen_down(bf));
                    bx.hi[d] = bx.hi[d].min(widen_up(bf));
                }
                // Strictness is dropped: closed bounds are outward.
                Rel::Le | Rel::Lt => {
                    if upper_side {
                        bx.hi[d] = bx.hi[d].min(widen_up(bf));
                    } else {
                        bx.lo[d] = bx.lo[d].max(widen_down(bf));
                    }
                }
            }
        }
        bx
    }

    /// `true` only when `self ∧ other` is provably unsatisfiable by the
    /// cheap box test over `Var(0) .. Var(arity)`; `false` is
    /// inconclusive and the exact check must run.
    pub fn quick_disjoint(&self, other: &Conjunction, arity: usize) -> bool {
        self.quick_box(arity).disjoint(&other.quick_box(arity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, LinExpr};
    use cqa_num::Rat;

    const X: Var = Var(0);
    const Y: Var = Var(1);

    fn range_conj(v: Var, lo: i64, hi: i64) -> Conjunction {
        Conjunction::from_atoms([
            Atom::ge(LinExpr::var(v), LinExpr::constant_int(lo)),
            Atom::le(LinExpr::var(v), LinExpr::constant_int(hi)),
        ])
    }

    #[test]
    fn boxes_enclose_ranges() {
        let c = range_conj(X, 2, 5);
        let bx = c.quick_box(2);
        let (lo, hi) = bx.dim(0);
        assert!(lo <= 2.0 && 2.0 - lo < 1e-6);
        assert!(hi >= 5.0 && hi - 5.0 < 1e-6);
        assert_eq!(bx.dim(1), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn disjoint_ranges_are_detected() {
        let a = range_conj(X, 0, 10);
        let b = range_conj(X, 20, 30);
        assert!(a.quick_disjoint(&b, 1));
        assert!(b.quick_disjoint(&a, 1));
        assert!(!a.quick_box(1).disjoint(&a.quick_box(1)));
    }

    #[test]
    fn touching_ranges_are_not_disjoint() {
        // x ≤ 5 meets x ≥ 5 at a point: the filter must NOT reject.
        let a = range_conj(X, 0, 5);
        let b = range_conj(X, 5, 9);
        assert!(!a.quick_disjoint(&b, 1));
        // Strict versions still must not reject (strictness is dropped).
        let sa = Conjunction::from_atoms([Atom::lt(
            LinExpr::var(X),
            LinExpr::constant_int(5),
        )]);
        let sb = Conjunction::from_atoms([Atom::gt(
            LinExpr::var(X),
            LinExpr::constant_int(5),
        )]);
        assert!(!sa.quick_disjoint(&sb, 1));
    }

    #[test]
    fn multi_variable_atoms_are_conservative() {
        // x + y ≤ 0 puts no box bound on either variable.
        let c = Conjunction::from_atoms([Atom::le(
            LinExpr::from_terms([(X, Rat::one()), (Y, Rat::one())], Rat::zero()),
            LinExpr::zero(),
        )]);
        let bx = c.quick_box(2);
        assert_eq!(bx.dim(0), (f64::NEG_INFINITY, f64::INFINITY));
        assert_eq!(bx.dim(1), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn trivially_false_is_empty() {
        let mut c = Conjunction::tru();
        c.add(Atom::falsum());
        assert!(c.quick_box(3).is_known_empty());
        assert!(c.quick_disjoint(&Conjunction::tru(), 3));
    }

    #[test]
    fn conflicting_bounds_make_empty_box() {
        let c = Conjunction::from_atoms([
            Atom::ge(LinExpr::var(X), LinExpr::constant_int(10)),
            Atom::le(LinExpr::var(X), LinExpr::constant_int(1)),
        ]);
        assert!(c.quick_box(1).is_known_empty());
        assert!(!c.is_satisfiable());
    }

    #[test]
    fn rational_bounds_respect_widening() {
        // x = 1/3: the box must contain the exact value despite f64
        // rounding on either side.
        let third = Rat::from_pair(1, 3);
        let c = Conjunction::from_atoms([Atom::var_eq_const(X, third.clone())]);
        let (lo, hi) = c.quick_box(1).dim(0);
        let f = third.to_f64();
        assert!(lo < f && f < hi);
    }

    #[test]
    fn eq_atoms_bound_both_sides() {
        let a = Conjunction::from_atoms([Atom::var_eq_const(X, Rat::from_int(4))]);
        let b = range_conj(X, 6, 8);
        assert!(a.quick_disjoint(&b, 1));
        let c = range_conj(X, 3, 5);
        assert!(!a.quick_disjoint(&c, 1));
    }
}

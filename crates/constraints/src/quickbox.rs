//! Cheap-filter boxes: conservative `f64` interval bounds per
//! [`Conjunction`], for filter-first evaluation.
//!
//! The paper's multi-step processing idea — approximate geometry first,
//! exact geometry only for survivors — applied to constraint tuples.
//! [`Conjunction::quick_box`] derives an axis-aligned box that
//! **encloses** the conjunction's point set in two steps:
//!
//! 1. each *single-variable* atom bounds its variable directly, with one
//!    small rational division per bound;
//! 2. two rounds of HC4-style interval propagation ("revise", Benhamou
//!    et al. 1999) run over the *multi-variable* atoms in `f64`: for
//!    `Σ cᵢ·xᵢ + k rel 0`, each variable `xⱼ` is bounded by
//!    `(−k − rest)/cⱼ`, where `rest` is the interval sum of the other
//!    terms over the current box. An `Eq` atom bounds both sides of
//!    `xⱼ`, a `Le`/`Lt` atom one side.
//!
//! So the segment `t ∈ [i, i+1]; x = t; 4y − d·t = c` gets a bounded box
//! in `x` and `y`, not just in `t`. Deriving the box is O(atoms) `f64`
//! work — orders of magnitude cheaper than Fourier–Motzkin — and two
//! boxes that do not overlap prove the two conjunctions jointly
//! unsatisfiable, so the exact check can be skipped. A box system has no
//! multi-variable atoms and pays for step 1 only.
//!
//! Soundness is one-directional by design:
//!
//! * every single-variable bound is [`cqa_num::Rat::to_f64_enclosure`]
//!   of the exact rational bound, so the float box always contains the
//!   exact rational box;
//! * a propagated bound is further widened by
//!   `WIDEN_EPS·(1 + Σ|cᵢ·xᵢ| + |k|)/|cⱼ|`, which dominates the rounding
//!   of the `f64` sum and the cancellation between its terms;
//! * strict bounds are treated as closed (again: outward);
//! * a multi-variable atom is skipped (it can only shrink the exact set,
//!   never grow it) when a coefficient's `f64` image is zero, subnormal
//!   or non-finite, when its constant's image is non-finite, or when it
//!   names a variable outside the box;
//! * a bound whose `f64` image is non-finite is discarded (unbounded).
//!
//! Hence `quick_disjoint(a, b) == true` **implies** `a ∧ b` is
//! unsatisfiable, while `false` says nothing — exactly the contract a
//! filter needs. The property suite checks the implication against the
//! exact solver, and the box against the exact per-variable bounds.
//!
//! The first step alone is a [`BoxSeed`]. Seeds of two conjunctions meet
//! into the seed of their conjunction, so `select` finds the box of each
//! residual `tuple ∧ window` from the tuple's seed and a window seed made
//! once, without building the residual. Meeting the *propagated* boxes
//! instead would not do: a propagated bound's widening grows with the
//! finite magnitudes of the box it starts from, so the residual's box can
//! be looser than the intersection of its parts' boxes.
//!
//! For a survivor that is itself a box system (every atom on one
//! variable), the exact check that follows is cheap too:
//! [`crate::fourier_motzkin::eliminate`] decides it from the same
//! single-variable bounds in exact rationals, with strictness, instead
//! of running Fourier–Motzkin.

use crate::{Atom, Conjunction, Rel, Var};
use cqa_num::{enclose, WIDEN_EPS};

/// Rounds of propagation over the multi-variable atoms.
const PROPAGATION_ROUNDS: usize = 2;

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

/// A conjunction's multi-variable atoms in `f64`: row `r` is
/// `Σ cᵢ·x_{dᵢ} + k rel 0` over its slice of `terms`.
#[derive(Default)]
struct Rows {
    /// `(dimension, coefficient)` of every row, row after row.
    terms: Vec<(usize, f64)>,
    /// Per row: end of its terms, `k`, and whether `rel` is `Eq`.
    rows: Vec<(usize, f64, bool)>,
}

impl Rows {
    /// Adds `atom` unless its constant's `f64` image is non-finite, a
    /// coefficient's is zero, subnormal or non-finite, or it names a
    /// variable `≥ arity`; skipping an atom only over-approximates.
    fn push(&mut self, atom: &Atom, arity: usize) {
        let start = self.terms.len();
        let k = atom.expr().constant_term().to_f64();
        let usable = k.is_finite()
            && atom.expr().terms().all(|(Var(v), c)| {
                let c = c.to_f64();
                self.terms.push((v as usize, c));
                (v as usize) < arity && c.is_normal()
            });
        if usable {
            self.rows.push((self.terms.len(), k, atom.rel() == Rel::Eq));
        } else {
            self.terms.truncate(start);
        }
    }

    /// Runs [`PROPAGATION_ROUNDS`] passes of [`revise`] over every row.
    fn propagate(&self, bx: &mut QuickBox) {
        for _ in 0..PROPAGATION_ROUNDS {
            let mut start = 0;
            for &(end, k, eq) in &self.rows {
                revise(bx, &self.terms[start..end], k, eq);
                start = end;
            }
        }
    }
}

/// The interval of `c·x` for `x` in dimension `d` of `bx`.
fn term(bx: &QuickBox, d: usize, c: f64) -> (f64, f64) {
    if c > 0.0 {
        (c * bx.lo[d], c * bx.hi[d])
    } else {
        (c * bx.hi[d], c * bx.lo[d])
    }
}

/// The sum of all terms but one on one side, given the sum of the finite
/// sides, the count of the non-finite ones and the excluded term's side;
/// `infinity` when the rest is unbounded on this side.
fn rest(sum: f64, infinite: usize, own: f64, infinity: f64) -> f64 {
    match (infinite, own.is_finite()) {
        (0, _) => sum - own,
        (1, false) => sum,
        _ => infinity,
    }
}

/// One HC4 "revise" of the row `Σ cᵢ·xᵢ + k rel 0` against `bx`: each
/// `xⱼ` is tightened to `(−k − rest)/cⱼ`, `rest` being the interval sum
/// of the other terms, widened by `WIDEN_EPS·(1 + Σ|cᵢ·xᵢ| + |k|)/|cⱼ|`
/// and then by [`enclose`].
fn revise(bx: &mut QuickBox, terms: &[(usize, f64)], k: f64, eq: bool) {
    // Non-finite sides (unbounded, or overflowed) are counted rather than
    // summed, so each variable's `rest` is the total minus its own term.
    let (mut lo_sum, mut hi_sum, mut lo_inf, mut hi_inf, mut mag) = (0.0, 0.0, 0, 0, k.abs());
    for &(d, c) in terms {
        let (lo, hi) = term(bx, d, c);
        if lo.is_finite() {
            lo_sum += lo;
            mag += lo.abs();
        } else {
            lo_inf += 1;
        }
        if hi.is_finite() {
            hi_sum += hi;
            mag += hi.abs();
        } else {
            hi_inf += 1;
        }
    }
    // Each variable occurs once per row, so its own term is unchanged by
    // the tightening of the variables before it.
    for &(d, c) in terms {
        let (lo, hi) = term(bx, d, c);
        let rest_lo = rest(lo_sum, lo_inf, lo, f64::NEG_INFINITY);
        let rest_hi = rest(hi_sum, hi_inf, hi, f64::INFINITY);
        let slack = WIDEN_EPS * (1.0 + mag) / c.abs();
        let mut tighten = |bound: f64, upper: bool| {
            if !bound.is_finite() {
                return;
            }
            if upper {
                bx.hi[d] = bx.hi[d].min(enclose(bound + slack).1);
            } else {
                bx.lo[d] = bx.lo[d].max(enclose(bound - slack).0);
            }
        };
        // `cⱼ·xⱼ ≤ −k − rest_lo`; an equality also gives `≥ −k − rest_hi`.
        tighten((-k - rest_lo) / c, c > 0.0);
        if eq {
            tighten((-k - rest_hi) / c, c < 0.0);
        }
    }
}

/// [`Conjunction::quick_box`] before its propagation step: the box the
/// single-variable atoms give, and the multi-variable atoms left to
/// propagate, in canonical order.
///
/// Seeds [`meet`](BoxSeed::meet) like the conjunctions they come from:
/// `a.box_seed(n).meet(&b.box_seed(n)).finish()` is
/// `a.and(&b).quick_box(n)` bit for bit, because the single-variable
/// pass is a per-dimension `max`/`min` over the same per-atom bounds in
/// any order, and the merged atom list is `a ∧ b`'s. So a seed computed
/// once (a selection's window, say) gives the box of its conjunction
/// with many others without building any of those conjunctions.
#[derive(Debug, Clone)]
pub struct BoxSeed<'a> {
    bx: QuickBox,
    multi: Vec<&'a Atom>,
}

impl<'a> BoxSeed<'a> {
    /// The seed of the conjunction of both seeds' conjunctions, which
    /// must share an arity.
    pub fn meet(mut self, other: &BoxSeed<'a>) -> BoxSeed<'a> {
        debug_assert_eq!(self.bx.arity(), other.bx.arity());
        for (lo, other) in self.bx.lo.iter_mut().zip(&other.bx.lo) {
            *lo = lo.max(*other);
        }
        for (hi, other) in self.bx.hi.iter_mut().zip(&other.bx.hi) {
            *hi = hi.min(*other);
        }
        if !other.multi.is_empty() {
            // Canonical order, an atom in both kept once: `a ∧ b`'s atoms.
            self.multi.extend(&other.multi);
            self.multi.sort_unstable();
            self.multi.dedup();
        }
        self
    }

    /// Propagates over the multi-variable atoms, giving the conjunction's
    /// [`QuickBox`].
    pub fn finish(self) -> QuickBox {
        let mut bx = self.bx;
        if !self.multi.is_empty() && !bx.is_known_empty() {
            let mut rows = Rows::default();
            for atom in self.multi {
                rows.push(atom, bx.arity());
            }
            rows.propagate(&mut bx);
        }
        bx
    }
}

impl Conjunction {
    /// Computes the conservative [`QuickBox`] over `Var(0) .. Var(arity)`.
    ///
    /// Cost: one pass over the atoms, with one small rational division
    /// per single-variable atom; then, when there are multi-variable
    /// atoms, two passes of `f64` interval propagation over them. No
    /// Fourier–Motzkin.
    pub fn quick_box(&self, arity: usize) -> QuickBox {
        self.box_seed(arity).finish()
    }

    /// The single-variable pass of [`Self::quick_box`], as a [`BoxSeed`].
    pub fn box_seed(&self, arity: usize) -> BoxSeed<'_> {
        let mut bx = QuickBox::full(arity);
        let mut multi = Vec::new();
        for atom in self.atoms() {
            if atom.is_trivially_false() {
                return BoxSeed { bx: QuickBox::empty(arity), multi: Vec::new() };
            }
            let expr = atom.expr();
            match expr.arity() {
                0 => continue, // ground and not false: true
                1 => {}
                _ => {
                    multi.push(atom);
                    continue;
                }
            }
            let (var, coeff) = expr.terms().next().expect("arity-1 expression has a term");
            let Var(v) = var;
            let d = v as usize;
            if d >= arity {
                continue;
            }
            // `c·v + k rel 0`  ⇔  `v rel' -k/c` (rel' flips when c < 0).
            // A bound beyond the f64 range encloses to the whole line.
            let (lo, hi) = (-(&(expr.constant_term() / coeff))).to_f64_enclosure();
            let upper_side = coeff.is_positive();
            match atom.rel() {
                Rel::Eq => {
                    bx.lo[d] = bx.lo[d].max(lo);
                    bx.hi[d] = bx.hi[d].min(hi);
                }
                // Strictness is dropped: closed bounds are outward.
                Rel::Le | Rel::Lt => {
                    if upper_side {
                        bx.hi[d] = bx.hi[d].min(hi);
                    } else {
                        bx.lo[d] = bx.lo[d].max(lo);
                    }
                }
            }
        }
        BoxSeed { bx, multi }
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
    use crate::LinExpr;
    use cqa_num::{BigInt, Rat};

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
    fn inequalities_propagate_one_side() {
        // x + y ≤ 0 and x ≥ 1 give y ≤ -1, and nothing below.
        let mut c = Conjunction::from_atoms([Atom::le(
            LinExpr::from_terms([(X, Rat::one()), (Y, Rat::one())], Rat::zero()),
            LinExpr::zero(),
        )]);
        c.add(Atom::ge(LinExpr::var(X), LinExpr::constant_int(1)));
        let (lo, hi) = c.quick_box(2).dim(1);
        assert_eq!(lo, f64::NEG_INFINITY);
        assert!((-1.0..-1.0 + 1e-6).contains(&hi));
    }

    /// A hurricane segment `t ∈ [0, 1]; x = t; 4y − 3t = 8` over
    /// `(t, x, y)`, and parcels over `(x, y)` at the same positions.
    fn segment() -> Conjunction {
        let t = Var(0);
        let mut c = range_conj(t, 0, 1);
        c.add(Atom::eq(LinExpr::var(X_OF_T), LinExpr::var(t)));
        c.add(Atom::eq(
            LinExpr::from_terms([(Y_OF_T, Rat::from_int(4)), (t, Rat::from_int(-3))], Rat::zero()),
            LinExpr::constant_int(8),
        ));
        c
    }
    const X_OF_T: Var = Var(1);
    const Y_OF_T: Var = Var(2);

    fn parcel(x: (i64, i64), y: (i64, i64)) -> Conjunction {
        range_conj(X_OF_T, x.0, x.1).and(&range_conj(Y_OF_T, y.0, y.1))
    }

    #[test]
    fn hurricane_segment_misses_parcel() {
        let seg = segment();
        // x ∈ [0, 1] and y ∈ [2, 2.75] are derived from t's range.
        let bx = seg.quick_box(3);
        let (xlo, xhi) = bx.dim(1);
        let (ylo, yhi) = bx.dim(2);
        assert!((-1e-6..=0.0).contains(&xlo) && (1.0..1.0 + 1e-6).contains(&xhi));
        assert!((2.0 - 1e-6..=2.0).contains(&ylo) && (2.75..2.75 + 1e-6).contains(&yhi));
        // East of the segment, and north of it.
        assert!(seg.quick_disjoint(&parcel((6, 10), (0, 4)), 3));
        assert!(seg.quick_disjoint(&parcel((0, 4), (3, 5)), 3));
        assert!(!seg.and(&parcel((0, 4), (3, 5))).is_satisfiable());
        // A parcel the segment crosses survives the filter.
        assert!(!seg.quick_disjoint(&parcel((0, 4), (0, 4)), 3));
    }

    #[test]
    fn unusable_coefficients_skip_the_atom() {
        // 2^-1100·t + y = 0: the coefficient's f64 image is 0, so the atom
        // bounds nothing (y is in fact within ±2^-1100, but dropping an
        // atom only over-approximates).
        let tiny = Rat::new(BigInt::one(), BigInt::one().shl(1100));
        let mut c = range_conj(X, 0, 1);
        c.add(Atom::eq(
            LinExpr::from_terms([(X, tiny), (Y, Rat::one())], Rat::zero()),
            LinExpr::zero(),
        ));
        assert_eq!(c.quick_box(2).dim(1), (f64::NEG_INFINITY, f64::INFINITY));
        // A variable beyond the box's arity skips the atom too.
        let mut c = range_conj(X, 0, 1);
        c.add(Atom::eq(LinExpr::var(Y), LinExpr::var(X)));
        assert_eq!(c.quick_box(1).dim(0), range_conj(X, 0, 1).quick_box(1).dim(0));
    }

    /// T: `x + y ≤ 0, y ∈ [−200, 1]`; W: `y ≤ −100, x ≥ 200 + 17/20000000`.
    /// Their boxes are disjoint in `x`, but T ∧ W starts from a tighter box
    /// whose finite sides (`y ≤ −100`, `x ≥ 200…`) widen the propagated
    /// bound `x ≤ −y` by more, so the box of T ∧ W is not known-empty.
    /// Disjoint boxes prove T ∧ W unsatisfiable; they do not make its box
    /// empty, which is why `BoxSeed::meet` exists.
    #[test]
    fn tighter_start_can_propagate_looser() {
        let t = Conjunction::from_atoms([
            Atom::le(
                LinExpr::from_terms([(X, Rat::one()), (Y, Rat::one())], Rat::zero()),
                LinExpr::zero(),
            ),
            Atom::ge(LinExpr::var(Y), LinExpr::constant_int(-200)),
            Atom::le(LinExpr::var(Y), LinExpr::constant_int(1)),
        ]);
        let w = Conjunction::from_atoms([
            Atom::le(LinExpr::var(Y), LinExpr::constant_int(-100)),
            Atom::ge(
                LinExpr::var(X),
                LinExpr::constant(Rat::from_int(200) + Rat::from_pair(17, 20_000_000)),
            ),
        ]);
        assert!(t.quick_disjoint(&w, 2));
        assert!(!t.and(&w).is_satisfiable());
        let met = t.box_seed(2).meet(&w.box_seed(2)).finish();
        assert!(!met.is_known_empty());
        assert_eq!(met, t.and(&w).quick_box(2));
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

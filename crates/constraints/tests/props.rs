//! Property-based tests for the constraint layer.
//!
//! The key soundness property is the closure principle of §2.5: syntactic
//! operations on constraint representations must agree with the semantic
//! (set-of-points) operations. We check this by sampling random small
//! conjunctions/formulas and random rational points, and comparing the
//! results of syntactic manipulation against pointwise evaluation.

use cqa_constraints::{Assignment, Atom, Budget, Conjunction, Dnf, LinExpr, Var};
use cqa_num::{BigInt, Rat};
use proptest::prelude::*;

const X: Var = Var(0);
const Y: Var = Var(1);
const Z: Var = Var(2);

/// A small rational from compact parts, so random points often hit
/// constraint boundaries.
fn rat(n: i32, d: u8) -> Rat {
    Rat::from_pair(n as i64, d as i64 % 4 + 1)
}

/// Strategy: one random atom over x, y, z with small coefficients.
fn arb_atom() -> impl Strategy<Value = Atom> {
    (
        -3i32..=3,
        -3i32..=3,
        -3i32..=3,
        -6i32..=6,
        0u8..3,
    )
        .prop_filter("nontrivial", |(a, b, c, _, _)| *a != 0 || *b != 0 || *c != 0)
        .prop_map(|(a, b, c, k, rel)| {
            let e = LinExpr::from_terms(
                [
                    (X, Rat::from_int(a as i64)),
                    (Y, Rat::from_int(b as i64)),
                    (Z, Rat::from_int(c as i64)),
                ],
                Rat::from_int(k as i64),
            );
            match rel {
                0 => Atom::new(e, cqa_constraints::Rel::Le),
                1 => Atom::new(e, cqa_constraints::Rel::Lt),
                _ => Atom::new(e, cqa_constraints::Rel::Eq),
            }
        })
}

fn arb_conj(max_atoms: usize) -> impl Strategy<Value = Conjunction> {
    prop::collection::vec(arb_atom(), 0..=max_atoms).prop_map(Conjunction::from_atoms)
}

fn arb_point() -> impl Strategy<Value = Assignment> {
    (-4i32..=4, 0u8..4, -4i32..=4, 0u8..4, -4i32..=4, 0u8..4).prop_map(|(a, ad, b, bd, c, cd)| {
        Assignment::from_pairs([(X, rat(a, ad)), (Y, rat(b, bd)), (Z, rat(c, cd))])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// If a point satisfies the conjunction, the conjunction is satisfiable.
    #[test]
    fn sat_is_sound(c in arb_conj(4), p in arb_point()) {
        if c.eval(&p) == Some(true) {
            prop_assert!(c.is_satisfiable());
        }
    }

    /// Projection is the shadow: a satisfying point of C restricted to the
    /// remaining variables satisfies ∃z.C, and an unsatisfiable projection
    /// means no point satisfies C.
    #[test]
    fn projection_soundness(c in arb_conj(4), p in arb_point()) {
        let projected = c.eliminate([Z]);
        if c.eval(&p) == Some(true) {
            let restricted = p.restrict([X, Y]);
            // The projection mentions only x, y, so eval is decided.
            prop_assert_eq!(projected.eval(&restricted), Some(true));
        }
        if !projected.is_satisfiable() {
            prop_assert!(!c.is_satisfiable());
        }
    }

    /// The cheap bounding-box filter is sound: whenever `quick_disjoint`
    /// claims two conjunctions cannot share a point, the exact conjunction
    /// of the two must be unsatisfiable. (The box is conservative, so the
    /// converse is not required.)
    #[test]
    fn quick_disjoint_implies_unsat(a in arb_conj(4), b in arb_conj(4)) {
        if a.quick_disjoint(&b, 3) {
            prop_assert!(!a.and(&b).is_satisfiable(),
                "quick_disjoint rejected a satisfiable pair: {} vs {}", a, b);
        }
    }

    /// And the box really encloses the conjunction: any satisfying point
    /// lies inside the (widened) per-dimension bounds.
    #[test]
    fn quick_box_encloses_satisfying_points(c in arb_conj(4), p in arb_point()) {
        if c.eval(&p) == Some(true) {
            let bx = c.quick_box(3);
            for (d, v) in [(0usize, X), (1, Y), (2, Z)] {
                let (lo, hi) = bx.dim(d);
                let vf = p.get(v).unwrap().to_f64();
                prop_assert!(lo <= vf && vf <= hi,
                    "dim {} point {} outside box [{}, {}] for {}", d, vf, lo, hi, c);
            }
        }
    }

    /// Projection is exact (not just an over-approximation): every point of
    /// the projection extends to a witness. We verify via sample_point on
    /// the extension problem.
    #[test]
    fn projection_completeness(c in arb_conj(3), p in arb_point()) {
        let projected = c.eliminate([Z]);
        let restricted = p.restrict([X, Y]);
        if projected.eval(&restricted) == Some(true) {
            // Fix x, y at the point; the z-problem must be satisfiable.
            let mut fixed = c.clone();
            fixed = fixed.substitute(X, &LinExpr::constant(p.get(X).unwrap().clone()));
            fixed = fixed.substitute(Y, &LinExpr::constant(p.get(Y).unwrap().clone()));
            prop_assert!(fixed.is_satisfiable(),
                "projection said ({:?}) extends, but it does not; conj = {}", restricted, c);
        }
    }

    /// sample_point returns a genuine witness whenever it returns at all,
    /// and returns None only for unsatisfiable conjunctions.
    #[test]
    fn sample_point_is_witness(c in arb_conj(4)) {
        match c.sample_point(&[X, Y, Z]) {
            Some(p) => prop_assert_eq!(c.eval(&p), Some(true)),
            None => prop_assert!(!c.is_satisfiable()),
        }
    }

    /// Entailment agrees with pointwise implication on sampled points.
    #[test]
    fn entailment_sound(c in arb_conj(3), a in arb_atom(), p in arb_point()) {
        if c.implies_atom(&a, &Budget::default()).unwrap() && c.eval(&p) == Some(true) {
            prop_assert_eq!(a.eval(&p), Some(true));
        }
    }

    /// simplify preserves semantics.
    #[test]
    fn simplify_preserves_semantics(c in arb_conj(4), p in arb_point()) {
        let s = c.simplify(&Budget::default()).unwrap();
        prop_assert_eq!(s.eval(&p).unwrap_or(false), c.eval(&p).unwrap_or(false));
    }

    /// Bounds are exact projections onto one variable.
    #[test]
    fn bounds_contain_all_points(c in arb_conj(4), p in arb_point()) {
        if c.eval(&p) == Some(true) {
            for v in [X, Y, Z] {
                prop_assert!(c.bounds(v).contains(p.get(v).unwrap()),
                    "bounds({}) of {} missed witness", v, c);
            }
        }
    }

    /// DNF negation complements pointwise.
    #[test]
    fn dnf_negation_complements(cs in prop::collection::vec(arb_conj(2), 0..3), p in arb_point()) {
        let d = Dnf::from_conjunctions(cs);
        let n = d.negate(&Budget::default()).unwrap();
        let dv = d.eval(&p).unwrap_or(false);
        let nv = n.eval(&p).unwrap_or(false);
        prop_assert_eq!(dv, !nv, "d = {}, ¬d = {}", d, n);
    }

    /// DNF difference is pointwise set difference.
    #[test]
    fn dnf_difference_pointwise(
        a in prop::collection::vec(arb_conj(2), 0..3),
        b in prop::collection::vec(arb_conj(2), 0..3),
        p in arb_point()
    ) {
        let da = Dnf::from_conjunctions(a);
        let db = Dnf::from_conjunctions(b);
        let diff = da.minus(&db, &Budget::default()).unwrap();
        let want = da.eval(&p).unwrap_or(false) && !db.eval(&p).unwrap_or(false);
        prop_assert_eq!(diff.eval(&p).unwrap_or(false), want);
    }

    /// DNF normalize preserves semantics.
    #[test]
    fn dnf_normalize_preserves(cs in prop::collection::vec(arb_conj(3), 0..4), p in arb_point()) {
        let d = Dnf::from_conjunctions(cs);
        let n = d.normalize(&Budget::default()).unwrap();
        prop_assert_eq!(d.eval(&p).unwrap_or(false), n.eval(&p).unwrap_or(false));
    }
}

/// Strategy: one random *box* atom — on a single variable of x, y, z —
/// so the conjunction is decided from per-variable intervals.
fn arb_box_atom() -> impl Strategy<Value = Atom> {
    (0u32..3, -3i32..=3, -6i32..=6, 0u8..3)
        .prop_filter("nonzero coefficient", |(_, c, _, _)| *c != 0)
        .prop_map(|(v, c, k, rel)| {
            let e = LinExpr::from_terms([(Var(v), Rat::from_int(c as i64))], Rat::from_int(k as i64));
            match rel {
                0 => Atom::new(e, cqa_constraints::Rel::Le),
                1 => Atom::new(e, cqa_constraints::Rel::Lt),
                _ => Atom::new(e, cqa_constraints::Rel::Eq),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The interval hand-off against pointwise semantics: a point that
    /// satisfies a box conjunction proves it satisfiable and lies in
    /// every variable's bounds.
    #[test]
    fn box_bounds_contain_all_points(
        atoms in prop::collection::vec(arb_box_atom(), 0..=5),
        p in arb_point(),
    ) {
        let c = Conjunction::from_atoms(atoms);
        if c.eval(&p) == Some(true) {
            prop_assert!(c.is_satisfiable(), "{} satisfied at a point", c);
            for v in [X, Y, Z] {
                prop_assert!(c.bounds(v).contains(p.get(v).unwrap()),
                    "bounds({}) of {} missed witness", v, c);
            }
        }
    }
}

/// A coefficient or constant that stresses `quick_box`'s `f64`
/// propagation, by `kind`: small, integral or not; near-cancelling (`10^k` next to
/// `10^k + 1`, one `k` per system); huge, in and beyond the `f64` range;
/// or tiny, with an `f64` image of 0.
fn stress_rat(k: u32, (kind, small, neg): (u8, i64, bool)) -> Rat {
    let r = match kind {
        0..=1 => Rat::from_int(small),
        2..=3 => Rat::from_pair(small, 7),
        4..=6 => Rat::from_int(10i64.pow(k) + small.rem_euclid(2)),
        7 => Rat::from(BigInt::from(10).pow(200)),
        8 => Rat::from(BigInt::one().shl(1100)),
        _ => Rat::new(BigInt::one(), BigInt::one().shl(1100)),
    };
    if neg {
        -r
    } else {
        r
    }
}

/// Strategy: up to five atoms, each over a nonempty subset of x, y, z,
/// with [`stress_rat`] coefficients and constant sharing one `k`.
fn arb_stress_conj() -> impl Strategy<Value = Conjunction> {
    let rat = (0u8..10, -3i64..=3, any::<bool>());
    let atom = (prop::collection::vec(rat, 4), 1u8..8, 0u8..3);
    (1u32..=15, prop::collection::vec(atom, 1..=5)).prop_map(|(k, atoms)| {
        Conjunction::from_atoms(atoms.into_iter().map(|(rats, mask, rel)| {
            let terms = [X, Y, Z]
                .into_iter()
                .zip(&rats)
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, (v, &r))| (v, stress_rat(k, r)));
            let e = LinExpr::from_terms(terms, stress_rat(k, rats[3]));
            match rel {
                0 => Atom::new(e, cqa_constraints::Rel::Le),
                1 => Atom::new(e, cqa_constraints::Rel::Lt),
                _ => Atom::new(e, cqa_constraints::Rel::Eq),
            }
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The enclosure oracle: each dimension of the propagated box contains
    /// the exact Fourier–Motzkin bounds of its variable. The exact bound's
    /// `to_f64` is within a few ulps, which the box's 1e-9 widening dwarfs;
    /// an exact side beyond the `f64` range must stay unbounded.
    #[test]
    fn quick_box_encloses_exact_bounds(c in arb_stress_conj()) {
        let bx = c.quick_box(3);
        for (d, v) in [(0usize, X), (1, Y), (2, Z)] {
            let exact = c.bounds(v);
            if exact.is_empty() {
                continue;
            }
            let (lo, hi) = bx.dim(d);
            let want_lo = exact.lo().map_or(f64::NEG_INFINITY, |b| b.value.to_f64());
            let want_hi = exact.hi().map_or(f64::INFINITY, |b| b.value.to_f64());
            prop_assert!(lo <= want_lo && want_hi <= hi,
                "dim {} box [{}, {}] misses exact [{}, {}] of {}", d, lo, hi, want_lo, want_hi, c);
        }
    }
}

/// Strategy: a selection window — up to three single-variable atoms and
/// up to two atoms over one to three of x, y, z.
fn arb_window() -> impl Strategy<Value = Conjunction> {
    (prop::collection::vec(arb_box_atom(), 0..=3), prop::collection::vec(arb_atom(), 0..=2))
        .prop_map(|(single, multi)| Conjunction::from_atoms(single.into_iter().chain(multi)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `select` rejects a tuple `t` on the box of its residual `t ∧ w ∧ p`
    /// (window `w`, per-tuple atoms `p`), met from the parts' seeds
    /// without building the residual. Its filter counters equal those of
    /// building every residual first iff the met box *is* the residual's
    /// box, which this pins bit for bit. It holds because the
    /// single-variable pass is a per-dimension `max`/`min` over the same
    /// per-atom bounds in any order, so the residual's seed box is the
    /// intersection T ∩ W ∩ P of the parts' seed boxes, and propagation
    /// then runs over the same multi-variable rows in the same canonical
    /// order.
    ///
    /// The residual's *propagated* box need not lie inside the
    /// intersection of the parts' propagated boxes: a propagated bound's
    /// widening grows with the finite magnitudes of the box it starts
    /// from, so a tighter start can end looser. Rejecting on
    /// `quick_box(t).disjoint(&quick_box(w))` would therefore reject some
    /// tuples whose residual box is not empty — still only unsatisfiable
    /// ones, but counted differently (see the `quickbox` unit test
    /// `tighter_start_can_propagate_looser`).
    #[test]
    fn box_seeds_meet_to_the_residual_box(
        t in prop_oneof![arb_conj(4), arb_stress_conj()],
        w in prop_oneof![arb_window(), arb_stress_conj()],
        p in arb_conj(2),
    ) {
        let n = 3;
        let met = t.box_seed(n).meet(&w.box_seed(n)).meet(&p.box_seed(n)).finish();
        prop_assert_eq!(&met, &t.and(&w).and(&p).quick_box(n), "{} and {} and {}", t, w, p);
    }
}

/// The six orders of x, y, z, as target indices.
const PERMUTATIONS: [[u32; 3]; 6] =
    [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];

/// Strategy: an injective renaming of x, y, z — a permutation shifted by
/// 0 (in place) to 4 (into a fresh range). Pairs that fix their variable
/// are left out, so variables absent from the map are exercised too.
fn arb_renaming() -> impl Strategy<Value = Vec<(Var, Var)>> {
    (prop::sample::select(PERMUTATIONS.to_vec()), 0u32..=4).prop_map(|(perm, shift)| {
        [X, Y, Z]
            .into_iter()
            .zip(perm)
            .map(|(v, p)| (v, Var(p + shift)))
            .filter(|(from, to)| from != to)
            .collect()
    })
}

/// The reference renaming: each mapped variable moves to a disjoint
/// temporary range and then to its target, every step a `substitute`
/// that rebuilds and re-canonicalises the atoms.
fn two_phase_rename(c: &Conjunction, mapping: &[(Var, Var)]) -> Conjunction {
    let vars = c.vars();
    let max = vars.iter().chain(mapping.iter().flat_map(|(a, b)| [a, b])).map(|v| v.0).max();
    let offset = max.unwrap_or(0) + 1;
    let mut out = c.clone();
    for &(from, _) in mapping {
        out = out.substitute(from, &LinExpr::var(Var(from.0 + offset)));
    }
    for &(from, to) in mapping {
        out = out.substitute(Var(from.0 + offset), &LinExpr::var(to));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The one-pass renaming equals the two-phase reference structurally,
    /// holds at the renamed point exactly where the original holds at the
    /// original point, and is undone by the inverse map.
    #[test]
    fn rename_matches_two_phase_reference(
        c in prop_oneof![arb_conj(4), arb_stress_conj()],
        m in arb_renaming(),
        p in arb_point(),
    ) {
        let renamed = c.rename(&m);
        prop_assert_eq!(&renamed, &two_phase_rename(&c, &m));
        let to = |v: Var| m.iter().find(|(from, _)| *from == v).map_or(v, |&(_, to)| to);
        let mut q = Assignment::new();
        for v in [X, Y, Z] {
            q.set(to(v), p.get(v).unwrap().clone());
        }
        prop_assert_eq!(renamed.eval(&q), c.eval(&p));
        let inverse: Vec<(Var, Var)> = m.iter().map(|&(from, to)| (to, from)).collect();
        prop_assert_eq!(renamed.rename(&inverse), c);
    }
}

/// Interval algebra properties: intersection is pointwise conjunction, and
/// membership respects strictness at the endpoints.
mod interval_props {
    use cqa_constraints::{Bound, Interval};
    use cqa_num::Rat;
    use proptest::prelude::*;

    fn arb_bound() -> impl Strategy<Value = Option<Bound>> {
        prop::option::of((-20i64..20, any::<bool>()).prop_map(|(v, strict)| Bound {
            value: Rat::from_int(v),
            strict,
        }))
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (arb_bound(), arb_bound()).prop_map(|(lo, hi)| Interval::new(lo, hi))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn intersection_is_pointwise_and(a in arb_interval(), b in arb_interval(), p in -21i64..21, half in any::<bool>()) {
            let v = if half { Rat::from_pair(2 * p + 1, 2) } else { Rat::from_int(p) };
            let i = a.intersect(&b);
            prop_assert_eq!(i.contains(&v), a.contains(&v) && b.contains(&v));
        }

        #[test]
        fn empty_contains_nothing(a in arb_interval(), p in -21i64..21) {
            if a.is_empty() {
                prop_assert!(!a.contains(&Rat::from_int(p)));
                prop_assert!(a.width().is_none());
            }
        }

        #[test]
        fn overlap_symmetric(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        }

        #[test]
        fn f64_bounds_enclose(a in arb_interval(), p in -21i64..21) {
            let v = Rat::from_int(p);
            if a.contains(&v) {
                let (lo, hi) = a.to_f64_bounds();
                prop_assert!(lo <= p as f64 && p as f64 <= hi);
            }
        }
    }
}

//! The closure principle (§2.5) as a property-based test over the whole
//! algebra: every CQA operator, applied *syntactically* to random
//! heterogeneous relations, must agree pointwise with the corresponding
//! set operation on the denoted (possibly infinite) point sets.
//!
//! Points are sampled from a small rational grid so boundaries (where
//! strictness bugs live) are hit often.

use cqa::core::plan::{CmpOp, Selection};
use cqa::core::{ops, AttrDef, ExecOptions, ExecStats, HRelation, Schema, Tuple, Value};
use cqa::num::Rat;
use proptest::prelude::*;

/// Schema under test: one relational string, two constraint rationals.
fn schema() -> Schema {
    Schema::new(vec![
        AttrDef::str_rel("id"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .unwrap()
}

/// A tuple description the strategy can generate: id, an interval per
/// constraint attribute (possibly missing = broad), and optionally a
/// linking atom x ≤ y.
#[derive(Debug, Clone)]
struct TupleDesc {
    id: Option<u8>,
    x: Option<(i8, i8)>,
    y: Option<(i8, i8)>,
    link: bool,
}

fn arb_tuple() -> impl Strategy<Value = TupleDesc> {
    (
        prop::option::weighted(0.9, 0u8..3),
        prop::option::weighted(0.8, (-3i8..4, 0i8..4)),
        prop::option::weighted(0.8, (-3i8..4, 0i8..4)),
        any::<bool>(),
    )
        .prop_map(|(id, x, y, link)| TupleDesc {
            id,
            x: x.map(|(lo, w)| (lo, lo.saturating_add(w))),
            y: y.map(|(lo, w)| (lo, lo.saturating_add(w))),
            link,
        })
}

fn arb_relation(max: usize) -> impl Strategy<Value = Vec<TupleDesc>> {
    prop::collection::vec(arb_tuple(), 0..=max)
}

fn materialize(descs: &[TupleDesc]) -> HRelation {
    let mut rel = HRelation::new(schema());
    for d in descs {
        let mut b = Tuple::builder(rel.schema());
        if let Some(id) = d.id {
            b = b.set("id", Value::str(format!("i{}", id)));
        }
        if let Some((lo, hi)) = d.x {
            b = b.range("x", lo as i64, hi as i64);
        }
        if let Some((lo, hi)) = d.y {
            b = b.range("y", lo as i64, hi as i64);
        }
        if d.link {
            use cqa::constraints::{Atom, LinExpr, Var};
            b = b.atom(Atom::le(LinExpr::var(Var(1)), LinExpr::var(Var(2))));
        }
        rel.insert(b.build().unwrap());
    }
    rel
}

/// The sample grid: ids i0..i2 plus an id no tuple carries, and rational
/// coordinates at integer and half-integer positions.
fn sample_points() -> Vec<[Value; 3]> {
    let mut out = Vec::new();
    for id in 0..4u8 {
        for xi in [-2i64, 0, 1, 3, 7] {
            for yi in [-2i64, 0, 1, 3] {
                out.push([
                    Value::str(format!("i{}", id)),
                    Value::rat(Rat::from_pair(2 * xi + 1, 2)),
                    Value::int(yi),
                ]);
                out.push([Value::str(format!("i{}", id)), Value::int(xi), Value::int(yi)]);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn select_is_pointwise_filter(descs in arb_relation(4), lo in -3i8..4) {
        let (opts, stats) = (ExecOptions::default(), ExecStats::new());
        let rel = materialize(&descs);
        let sel = Selection::all().cmp_int("x", CmpOp::Ge, lo as i64);
        let out = ops::select(&rel, &sel, &opts, &stats).unwrap();
        for p in sample_points() {
            let in_rel = rel.contains_point(&p).unwrap();
            let passes = p[1].as_rat().unwrap() >= &Rat::from_int(lo as i64);
            prop_assert_eq!(
                out.contains_point(&p).unwrap(),
                in_rel && passes,
                "point {:?}", p
            );
        }
    }

    #[test]
    fn project_is_pointwise_shadow(descs in arb_relation(4)) {
        let (opts, stats) = (ExecOptions::default(), ExecStats::new());
        let rel = materialize(&descs);
        let out = ops::project(&rel, &["id".into(), "x".into()], &opts, &stats).unwrap();
        // The reversed order moves x to a lower variable position.
        let reversed = ops::project(&rel, &["x".into(), "id".into()], &opts, &stats).unwrap();
        for p in sample_points() {
            let shadow = [p[0].clone(), p[1].clone()];
            // Shadow membership: ∃y at this (id, x). Our y-extents all lie
            // within [-3, 7]; sample a few candidate ys plus the broad case.
            let mut exists = false;
            for yi in -4i64..=8 {
                for half in [0, 1] {
                    let y = Value::rat(Rat::from_pair(2 * yi + half, 2));
                    if rel.contains_point(&[p[0].clone(), p[1].clone(), y]).unwrap() {
                        exists = true;
                        break;
                    }
                }
            }
            prop_assert_eq!(out.contains_point(&shadow).unwrap(), exists, "shadow {:?}", shadow);
            let flipped = [p[1].clone(), p[0].clone()];
            prop_assert_eq!(reversed.contains_point(&flipped).unwrap(), exists, "{:?}", flipped);
        }
    }

    #[test]
    fn union_is_pointwise_or(a in arb_relation(3), b in arb_relation(3)) {
        let (ra, rb) = (materialize(&a), materialize(&b));
        let out = ops::union(&ra, &rb).unwrap();
        for p in sample_points() {
            prop_assert_eq!(
                out.contains_point(&p).unwrap(),
                ra.contains_point(&p).unwrap() || rb.contains_point(&p).unwrap()
            );
        }
    }

    #[test]
    fn difference_is_pointwise_andnot(a in arb_relation(3), b in arb_relation(3)) {
        let (opts, stats) = (ExecOptions::default(), ExecStats::new());
        let (ra, rb) = (materialize(&a), materialize(&b));
        let out = ops::difference(&ra, &rb, &opts, &stats).unwrap();
        for p in sample_points() {
            prop_assert_eq!(
                out.contains_point(&p).unwrap(),
                ra.contains_point(&p).unwrap() && !rb.contains_point(&p).unwrap(),
                "point {:?}", p
            );
        }
    }

    #[test]
    fn join_on_full_schema_is_intersection(a in arb_relation(3), b in arb_relation(3)) {
        let (opts, stats) = (ExecOptions::default(), ExecStats::new());
        // Same schema on both sides: natural join = intersection (the
        // paper's remark under the Natural-Join definition).
        let (ra, rb) = (materialize(&a), materialize(&b));
        let out = ops::join(&ra, &rb, &opts, &stats).unwrap();
        // The right operand reordered to [y, x, id] (no elimination): the
        // join must rename its variables back into the left's positions.
        let names = ["y".into(), "x".into(), "id".into()];
        let rb_reordered = ops::project(&rb, &names, &opts, &stats).unwrap();
        let out_reordered = ops::join(&ra, &rb_reordered, &opts, &stats).unwrap();
        for p in sample_points() {
            let both = ra.contains_point(&p).unwrap() && rb.contains_point(&p).unwrap();
            prop_assert_eq!(out.contains_point(&p).unwrap(), both);
            prop_assert_eq!(out_reordered.contains_point(&p).unwrap(), both);
        }
    }

    #[test]
    fn rename_preserves_points(descs in arb_relation(4)) {
        let rel = materialize(&descs);
        let out = ops::rename(&rel, "x", "z").unwrap();
        for p in sample_points() {
            prop_assert_eq!(out.contains_point(&p).unwrap(), rel.contains_point(&p).unwrap());
        }
    }

    /// Algebraic laws that follow from closure: R − (R − S) ⊆ S and
    /// idempotence of union.
    #[test]
    fn double_difference_law(a in arb_relation(2), b in arb_relation(2)) {
        let (opts, stats) = (ExecOptions::default(), ExecStats::new());
        let (ra, rb) = (materialize(&a), materialize(&b));
        let diff = ops::difference(&ra, &rb, &opts, &stats).unwrap();
        let dd = ops::difference(&ra, &diff, &opts, &stats).unwrap();
        for p in sample_points() {
            if dd.contains_point(&p).unwrap() {
                prop_assert!(ra.contains_point(&p).unwrap());
                prop_assert!(rb.contains_point(&p).unwrap());
            }
        }
        let uu = ops::union(&ra, &ra).unwrap();
        for p in sample_points().into_iter().take(30) {
            prop_assert_eq!(uu.contains_point(&p).unwrap(), ra.contains_point(&p).unwrap());
        }
    }
}

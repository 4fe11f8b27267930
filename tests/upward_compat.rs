//! Upward compatibility (§3.2): on purely relational schemas the
//! heterogeneous engine must behave exactly like a classical relational
//! engine — the paper's Claim, tested property-style against the
//! `cqa::core::relational` oracle with random tables, nulls included.

use cqa::core::plan::{CmpOp, Selection};
use cqa::core::relational::RelTable;
use cqa::core::{ops, AttrDef, ExecOptions, ExecStats, HRelation, Schema, Tuple, Value};

/// A random small relational table over (name: Str, a: Rat, b: Rat) with
/// occasional nulls.
#[derive(Debug, Clone)]
struct TestTable {
    rows: Vec<(Option<u8>, Option<i8>, Option<i8>)>,
}

fn schema() -> Schema {
    Schema::new(vec![
        AttrDef::str_rel("name"),
        AttrDef::rat_rel("a"),
        AttrDef::rat_rel("b"),
    ])
    .unwrap()
}

fn to_hrelation(t: &TestTable) -> HRelation {
    let mut r = HRelation::new(schema());
    for (n, a, b) in &t.rows {
        let mut builder = Tuple::builder(r.schema());
        if let Some(n) = n {
            builder = builder.set("name", Value::str(format!("n{}", n)));
        }
        if let Some(a) = a {
            builder = builder.set("a", Value::int(*a as i64));
        }
        if let Some(b) = b {
            builder = builder.set("b", Value::int(*b as i64));
        }
        r.insert(builder.build().unwrap());
    }
    r
}

fn to_reltable(t: &TestTable) -> RelTable {
    let mut r = RelTable::new(vec!["name".into(), "a".into(), "b".into()]);
    for (n, a, b) in &t.rows {
        r.insert(vec![
            n.map(|n| Value::str(format!("n{}", n))),
            a.map(|a| Value::int(a as i64)),
            b.map(|b| Value::int(b as i64)),
        ]);
    }
    r
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_table() -> impl Strategy<Value = TestTable> {
        prop::collection::vec(
            (
                prop::option::weighted(0.85, 0u8..4),
                prop::option::weighted(0.85, -4i8..4),
                prop::option::weighted(0.85, -4i8..4),
            ),
            0..8,
        )
        .prop_map(|rows| TestTable { rows })
    }

    /// Normalizes an HRelation over a purely relational schema to sorted rows.
    fn h_rows(r: &HRelation) -> Vec<Vec<Option<Value>>> {
        let mut rows: Vec<Vec<Option<Value>>> = r
            .tuples()
            .iter()
            .map(|t| (0..r.schema().arity()).map(|i| t.value(i).cloned()).collect())
            .collect();
        rows.sort();
        rows.dedup();
        rows
    }

    fn rel_rows(r: &RelTable) -> Vec<Vec<Option<Value>>> {
        let n = r.normalized();
        n.rows().to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn select_matches_oracle(t in arb_table(), threshold in -4i8..4, op_idx in 0usize..6) {
            let (opts, stats) = (ExecOptions::default(), ExecStats::new());
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt][op_idx];
            let sel = Selection::all().cmp_int("a", op, threshold as i64);
            let h = ops::select(&to_hrelation(&t), &sel, &opts, &stats).unwrap();
            let o = to_reltable(&t).select(&sel).unwrap();
            prop_assert_eq!(h_rows(&h), rel_rows(&o));
        }

        #[test]
        fn string_select_matches_oracle(t in arb_table(), target in 0u8..4, ne in any::<bool>()) {
            let (opts, stats) = (ExecOptions::default(), ExecStats::new());
            let value = format!("n{}", target);
            let sel = if ne {
                Selection::all().str_ne("name", value)
            } else {
                Selection::all().str_eq("name", value)
            };
            let h = ops::select(&to_hrelation(&t), &sel, &opts, &stats).unwrap();
            let o = to_reltable(&t).select(&sel).unwrap();
            prop_assert_eq!(h_rows(&h), rel_rows(&o));
        }

        #[test]
        fn project_matches_oracle(t in arb_table()) {
            let (opts, stats) = (ExecOptions::default(), ExecStats::new());
            let attrs = vec!["name".to_string(), "b".to_string()];
            let h = ops::project(&to_hrelation(&t), &attrs, &opts, &stats).unwrap();
            let o = to_reltable(&t).project(&attrs).unwrap();
            prop_assert_eq!(h_rows(&h), rel_rows(&o));
        }

        #[test]
        fn join_matches_oracle(t1 in arb_table(), t2 in arb_table()) {
            let (opts, stats) = (ExecOptions::default(), ExecStats::new());
            // Join on the shared attribute `name` after projecting different
            // column sets so the join is not trivial.
            let l_attrs = vec!["name".to_string(), "a".to_string()];
            let r_attrs = vec!["name".to_string(), "b".to_string()];
            let hl = ops::project(&to_hrelation(&t1), &l_attrs, &opts, &stats).unwrap();
            let hr = ops::project(&to_hrelation(&t2), &r_attrs, &opts, &stats).unwrap();
            let h = ops::join(&hl, &hr, &opts, &stats).unwrap();
            let ol = to_reltable(&t1).project(&l_attrs).unwrap();
            let or = to_reltable(&t2).project(&r_attrs).unwrap();
            let o = ol.join(&or).unwrap();
            prop_assert_eq!(h_rows(&h), rel_rows(&o));
        }

        #[test]
        fn union_matches_oracle(t1 in arb_table(), t2 in arb_table()) {
            let h = ops::union(&to_hrelation(&t1), &to_hrelation(&t2)).unwrap();
            let o = to_reltable(&t1).union(&to_reltable(&t2)).unwrap();
            prop_assert_eq!(h_rows(&h), rel_rows(&o));
        }

        #[test]
        fn difference_matches_oracle(t1 in arb_table(), t2 in arb_table()) {
            let (opts, stats) = (ExecOptions::default(), ExecStats::new());
            let h = ops::difference(&to_hrelation(&t1), &to_hrelation(&t2), &opts, &stats).unwrap();
            let o = to_reltable(&t1).difference(&to_reltable(&t2)).unwrap();
            prop_assert_eq!(h_rows(&h), rel_rows(&o));
        }

        #[test]
        fn rename_matches_oracle(t in arb_table()) {
            let h = ops::rename(&to_hrelation(&t), "a", "alpha").unwrap();
            let o = to_reltable(&t).rename("a", "alpha").unwrap();
            prop_assert_eq!(h.schema().attrs()[1].name.as_str(), "alpha");
            prop_assert_eq!(h_rows(&h), rel_rows(&o));
        }
    }

}

/// The motivating example, stated directly: an employee with missing age
/// is not returned by "whose age is 40?" in either engine.
#[test]
fn missing_age_example() {
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let t = TestTable { rows: vec![(Some(1), None, Some(0))] };
    let sel = Selection::all().cmp_int("a", CmpOp::Eq, 40);
    let h = ops::select(&to_hrelation(&t), &sel, &opts, &stats).unwrap();
    let o = to_reltable(&t).select(&sel).unwrap();
    assert!(h.is_empty());
    assert!(o.is_empty());
}

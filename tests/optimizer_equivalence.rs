//! Optimizer soundness, property-style: for random plans over random
//! heterogeneous relations, the optimized plan denotes the same point set
//! as the original. (Syntactic tuples may differ — e.g. projection
//! pushdown changes intermediate shapes — so equivalence is checked
//! semantically, on a grid of sample points.)

use cqa::core::plan::{CmpOp, Plan, Selection};
use cqa::core::{
    exec, optimizer, AttrDef, Catalog, ExecOptions, ExecStats, HRelation, Schema, Tuple, Value,
};
use cqa::num::Rat;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        AttrDef::str_rel("id"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .unwrap()
}

fn base_relation(seed: &[(u8, i8, i8, i8, i8)]) -> HRelation {
    let mut rel = HRelation::new(schema());
    for &(id, xlo, xw, ylo, yw) in seed {
        let t = Tuple::builder(rel.schema())
            .set("id", Value::str(format!("i{}", id % 3)))
            .range("x", xlo as i64, xlo as i64 + xw.unsigned_abs() as i64)
            .range("y", ylo as i64, ylo as i64 + yw.unsigned_abs() as i64)
            .build()
            .unwrap();
        rel.insert(t);
    }
    rel
}

/// A recipe for a random plan over base relations `A` and `B`.
#[derive(Debug, Clone)]
enum Step {
    SelectX(i8, u8),
    SelectY(i8, u8),
    SelectId(u8),
    ProjectIdX,
    RenameYtoZ,
    JoinB,
    UnionSelf,
    DiffB,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (-4i8..5, 0u8..6).prop_map(|(v, op)| Step::SelectX(v, op)),
            (-4i8..5, 0u8..6).prop_map(|(v, op)| Step::SelectY(v, op)),
            (0u8..4).prop_map(Step::SelectId),
            Just(Step::ProjectIdX),
            Just(Step::RenameYtoZ),
            Just(Step::JoinB),
            Just(Step::UnionSelf),
            Just(Step::DiffB),
        ],
        0..5,
    )
}

fn cmp_of(op: u8) -> CmpOp {
    [CmpOp::Eq, CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq][op as usize % 6]
}

/// Builds a plan from steps, tracking which attributes survive so every
/// step stays well-formed.
fn build_plan(steps: &[Step]) -> Plan {
    let mut plan = Plan::scan("A");
    let mut has_y = true;
    let mut has_x = true;
    let mut same_schema_as_base = true; // for union/diff compatibility
    for step in steps {
        match step {
            Step::SelectX(v, op) if has_x => {
                plan = plan.select(Selection::all().cmp_int("x", cmp_of(*op), *v as i64));
            }
            Step::SelectY(v, op) if has_y => {
                plan = plan.select(Selection::all().cmp_int("y", cmp_of(*op), *v as i64));
            }
            Step::SelectId(n) => {
                plan = plan.select(Selection::all().str_eq("id", format!("i{}", n % 3)));
            }
            Step::ProjectIdX if has_x => {
                plan = plan.project(&["id", "x"]);
                has_y = false;
                same_schema_as_base = false;
            }
            Step::RenameYtoZ if has_y => {
                plan = plan.rename("y", "z");
                has_y = false;
                same_schema_as_base = false;
            }
            Step::JoinB => {
                plan = plan.join(Plan::scan("B"));
                // B contributes x and y again (natural join extends the
                // schema with any missing attributes).
                has_x = true;
                has_y = true;
                same_schema_as_base = false; // order may differ; be safe
            }
            Step::UnionSelf => {
                plan = plan.clone().union(plan);
            }
            Step::DiffB if same_schema_as_base => {
                plan = plan.minus(Plan::scan("B"));
            }
            _ => {}
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn optimized_plans_are_semantically_equivalent(
        a in prop::collection::vec((any::<u8>(), -3i8..3, 0i8..4, -3i8..3, 0i8..4), 0..4),
        b in prop::collection::vec((any::<u8>(), -3i8..3, 0i8..4, -3i8..3, 0i8..4), 0..4),
        steps in arb_steps(),
    ) {
        let mut catalog = Catalog::new();
        catalog.register("A", base_relation(&a));
        catalog.register("B", base_relation(&b));
        let plan = build_plan(&steps);
        let (opts, stats) = (ExecOptions::default(), ExecStats::new());
        let original = match exec::execute(&plan, &catalog, &opts, &stats) {
            Ok(rel) => rel,
            Err(_) => return Ok(()), // ill-typed composition; nothing to compare
        };
        let optimized_plan = optimizer::optimize(&plan, &catalog).unwrap();
        let optimized = exec::execute(&optimized_plan, &catalog, &opts, &stats).unwrap();
        prop_assert_eq!(original.schema(), optimized.schema(), "plan:\n{}", plan);

        // Semantic comparison on a sample grid over the output schema.
        let arity = original.schema().arity();
        let mut point = vec![Value::int(0); arity];
        for id in 0..3u8 {
            for v1 in [-3i64, -1, 0, 1, 2, 4] {
                for v2 in [-3i64, 0, 2, 5] {
                    for (i, attr) in original.schema().attrs().iter().enumerate() {
                        point[i] = match attr.ty {
                            cqa::core::AttrType::Str => Value::str(format!("i{}", id)),
                            cqa::core::AttrType::Rat => {
                                if i % 2 == 0 {
                                    Value::rat(Rat::from_pair(2 * v1 + 1, 2))
                                } else {
                                    Value::int(v2)
                                }
                            }
                        };
                    }
                    prop_assert_eq!(
                        original.contains_point(&point).unwrap(),
                        optimized.contains_point(&point).unwrap(),
                        "point {:?}\nplan:\n{}\noptimized:\n{}",
                        point, plan, optimized_plan
                    );
                }
            }
        }
    }
}

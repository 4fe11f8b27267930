//! Property test: any well-formed heterogeneous relation survives a save /
//! load round trip through the storage engine bit-for-bit — the "no loss of
//! accuracy" promise of §3.3 extended to disk.

use cqa_core::persist::{load_relation, save_relation};
use cqa_core::{AttrDef, HRelation, Schema, Tuple, Value};
use cqa_num::Rat;
use cqa_storage::{BufferPool, MemDisk};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct TupleDesc {
    name: Option<String>,
    count: Option<(i64, i64)>, // rational value p/q
    x: Option<(i32, i32, u8)>, // lo num, hi num, shared denom
    link_xy: bool,
}

fn arb_tuple() -> impl Strategy<Value = TupleDesc> {
    (
        prop::option::of("[a-zA-Z0-9 ]{0,12}"),
        prop::option::of((any::<i32>(), 1i32..10_000)),
        prop::option::of((-1000i32..1000, 0i32..1000, 1u8..9)),
        any::<bool>(),
    )
        .prop_map(|(name, count, x, link_xy)| TupleDesc {
            name,
            count: count.map(|(p, q)| (p as i64, q as i64)),
            x: x.map(|(lo, w, d)| (lo, lo + w, d)),
            link_xy,
        })
}

fn schema() -> Schema {
    Schema::new(vec![
        AttrDef::str_rel("name"),
        AttrDef::rat_rel("count"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .unwrap()
}

fn materialize(descs: Vec<TupleDesc>) -> HRelation {
    let mut rel = HRelation::new(schema());
    for d in descs {
        let mut b = Tuple::builder(rel.schema());
        if let Some(n) = &d.name {
            b = b.set("name", Value::str(n.as_str()));
        }
        if let Some((p, q)) = d.count {
            b = b.set("count", Value::rat(Rat::from_pair(p, q)));
        }
        if let Some((lo, hi, den)) = d.x {
            b = b.range_rat(
                "x",
                Rat::from_pair(lo as i64, den as i64),
                Rat::from_pair(hi as i64, den as i64),
            );
        }
        if d.link_xy {
            use cqa::constraints::{Atom, LinExpr, Var};
            b = b.atom(Atom::le(
                LinExpr::from_terms(
                    [(Var(2), Rat::from_int(3)), (Var(3), Rat::from_pair(-1, 7))],
                    Rat::from_pair(5, 11),
                ),
                LinExpr::zero(),
            ));
        }
        rel.insert(b.build().unwrap());
    }
    rel
}

// The facade is available through the dev-dependency graph of the cqa crate;
// core's own tests import constraints directly.
use cqa_constraints as _;
mod cqa {
    pub use cqa_constraints as constraints;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn save_load_is_identity(descs in prop::collection::vec(arb_tuple(), 0..12), pool_size in 1usize..6) {
        let rel = materialize(descs);
        let mut pool = BufferPool::new(MemDisk::new(), pool_size);
        let heap = save_relation(&rel, &mut pool).unwrap();
        pool.clear().unwrap();
        let back = load_relation(&heap, &mut pool).unwrap();
        prop_assert_eq!(rel, back);
    }
}

//! Property-based tests for the R\*-tree: random interleavings of inserts
//! and removes, checked against a linear-scan oracle, with structural
//! invariants verified after every mutation.

use cqa_index::{RStarParams, RStarTree, Rect};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { x: i16, y: i16, w: u8, h: u8 },
    /// Remove the i-th live entry (mod current size).
    Remove(u16),
    Query { x: i16, y: i16, w: u8, h: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<i16>(), any::<i16>(), any::<u8>(), any::<u8>())
            .prop_map(|(x, y, w, h)| Op::Insert { x, y, w, h }),
        1 => any::<u16>().prop_map(Op::Remove),
        2 => (any::<i16>(), any::<i16>(), any::<u8>(), any::<u8>())
            .prop_map(|(x, y, w, h)| Op::Query { x, y, w, h }),
    ]
}

fn rect(x: i16, y: i16, w: u8, h: u8) -> Rect<2> {
    let (x, y) = (x as f64, y as f64);
    Rect::new([x, y], [x + w as f64, y + h as f64])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_linear_scan_oracle(ops in prop::collection::vec(arb_op(), 0..120)) {
        let mut tree: RStarTree<2, u64> = RStarTree::new(RStarParams::with_max(5));
        let mut oracle: Vec<(Rect<2>, u64)> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Insert { x, y, w, h } => {
                    let r = rect(x, y, w, h);
                    tree.insert(r, next_id);
                    oracle.push((r, next_id));
                    next_id += 1;
                }
                Op::Remove(i) => {
                    if oracle.is_empty() {
                        continue;
                    }
                    let idx = i as usize % oracle.len();
                    let (r, id) = oracle.swap_remove(idx);
                    prop_assert!(tree.remove(&r, &id), "remove of live entry must succeed");
                }
                Op::Query { x, y, w, h } => {
                    let q = rect(x, y, w, h);
                    let (mut got, _) = tree.search(&q);
                    got.sort_unstable();
                    let mut want: Vec<u64> = oracle
                        .iter()
                        .filter(|(r, _)| r.intersects(&q))
                        .map(|(_, id)| *id)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
            tree.check_invariants();
            prop_assert_eq!(tree.len(), oracle.len());
        }
        // Drain everything: the tree must return to the empty state.
        for (r, id) in oracle {
            prop_assert!(tree.remove(&r, &id));
            tree.check_invariants();
        }
        prop_assert!(tree.is_empty());
        prop_assert_eq!(tree.height(), 1);
    }

    #[test]
    fn bulk_load_equals_incremental(entries in prop::collection::vec(
        (any::<i16>(), any::<i16>(), any::<u8>(), any::<u8>()), 0..200
    )) {
        let items: Vec<(Rect<2>, u64)> = entries
            .iter()
            .enumerate()
            .map(|(i, &(x, y, w, h))| (rect(x, y, w, h), i as u64))
            .collect();
        let bulk = cqa_index::bulk::str_load(RStarParams::with_max(6), items.clone(), 0);
        bulk.check_invariants();
        let mut incr: RStarTree<2, u64> = RStarTree::new(RStarParams::with_max(6));
        for (r, id) in &items {
            incr.insert(*r, *id);
        }
        let q = Rect::new([-10000.0, -10000.0], [10000.0, 10000.0]);
        let (mut a, _) = bulk.search(&q);
        let (mut b, _) = incr.search(&q);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

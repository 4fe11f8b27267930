//! Property-based tests for the R\*-tree: random interleavings of inserts
//! and queries, checked against a linear-scan oracle, with structural
//! invariants verified after every operation; and STR packing
//! ([`cqa_index::bulk::str_load`]) checked the same way, in 1-D and 2-D.

use cqa_index::bulk::str_load;
use cqa_index::{RStarParams, RStarTree, Rect};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { x: i16, y: i16, w: u8, h: u8 },
    Query { x: i16, y: i16, w: u8, h: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<i16>(), any::<i16>(), any::<u8>(), any::<u8>())
            .prop_map(|(x, y, w, h)| Op::Insert { x, y, w, h }),
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
    }
}

/// One side of a packed entry: `[x, x + w]`, or unbounded on one or both
/// ends (kind 0–2), as a constraint attribute with a missing bound gives.
fn side(x: i16, w: u8, kind: u8) -> (f64, f64) {
    let (x, w, inf) = (x as f64, w as f64, f64::INFINITY);
    match kind % 16 {
        0 => (-inf, inf),
        1 => (x, inf),
        2 => (-inf, x),
        _ => (x, x + w),
    }
}

/// `n` seeded entries for a `D`-dimensional pack; every 7th repeats the
/// rect of the entry before it, so duplicate rects occur.
fn packed_entries<const D: usize>(n: usize, seed: u64) -> Vec<(Rect<D>, u64)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut out: Vec<(Rect<D>, u64)> = Vec::with_capacity(n);
    for i in 0..n {
        let rect = match out.last() {
            Some(&(prev, _)) if i % 7 == 0 => prev,
            _ => {
                let (mut lo, mut hi) = ([0.0; D], [0.0; D]);
                for d in 0..D {
                    let v = next();
                    (lo[d], hi[d]) = side((v >> 16) as i16 / 8, v as u8, (v >> 8) as u8);
                }
                Rect::new(lo, hi)
            }
        };
        out.push((rect, i as u64));
    }
    out
}

fn scan<const D: usize>(entries: &[(Rect<D>, u64)], q: &Rect<D>) -> Vec<u64> {
    let mut ids: Vec<u64> =
        entries.iter().filter(|(r, _)| r.intersects(q)).map(|(_, id)| *id).collect();
    ids.sort_unstable();
    ids
}

fn searched<const D: usize>(tree: &RStarTree<D, u64>, q: &Rect<D>) -> Vec<u64> {
    let (mut ids, _) = tree.search(q);
    ids.sort_unstable();
    ids
}

/// Packs `entries` and checks the tree: invariants, every window in
/// `windows` against a linear scan, a repeat pack builds the same tree,
/// and the invariants survive 20 inserts afterwards.
fn check_pack<const D: usize>(max: usize, entries: Vec<(Rect<D>, u64)>, windows: &[Rect<D>]) {
    let params = RStarParams::with_max(max);
    let mut tree = str_load(params, entries.clone());
    tree.check_invariants();
    assert_eq!(tree.len(), entries.len());
    // Each level of `k` items packs into `⌈k/M⌉` nodes.
    let (mut level, mut height) = (entries.len().div_ceil(max), 1);
    while level > 1 {
        (level, height) = (level.div_ceil(max), height + 1);
    }
    assert_eq!(tree.height(), height, "height for {} entries", entries.len());
    for q in windows {
        assert_eq!(searched(&tree, q), scan(&entries, q), "window {:?}", q);
    }
    assert!(tree.same_structure(&str_load(params, entries.clone())), "repeat pack differs");

    let mut live = entries;
    let extra = packed_entries::<D>(20, live.len() as u64 + 1);
    for (k, (r, _)) in extra.into_iter().enumerate() {
        let id = 1_000_000 + k as u64;
        tree.insert(r, id);
        live.push((r, id));
        tree.check_invariants();
    }
    assert_eq!(tree.len(), live.len());
    for q in windows {
        assert_eq!(searched(&tree, q), scan(&live, q), "window {:?} after inserts", q);
    }
}

/// Pack sizes around the fan-out's multiples: empty, one entry, one node
/// exactly, the first split, and two and three levels of full nodes ±1.
fn sizes(max: usize) -> Vec<usize> {
    let mut out = vec![0, 1, max - 1, max, max + 1];
    for k in [max * max, max * max * max] {
        out.extend([k - 1, k, k + 1]);
    }
    out.push(3000);
    out
}

fn windows_2d() -> Vec<Rect<2>> {
    let inf = f64::INFINITY;
    vec![
        Rect::new([-100.0, -100.0], [100.0, 100.0]),
        Rect::new([0.0, -4096.0], [0.0, 4096.0]),
        Rect::new([-5000.0, 2000.0], [-3000.0, 2100.0]),
        Rect::new([3000.0, -inf], [3001.0, inf]),
        Rect::new([-inf, -inf], [inf, inf]),
        Rect::new([1e9, 1e9], [2e9, 2e9]),
    ]
}

fn windows_1d() -> Vec<Rect<1>> {
    let inf = f64::INFINITY;
    vec![
        Rect::new([-100.0], [100.0]),
        Rect::new([2500.0], [2500.0]),
        Rect::new([-inf], [-4000.0]),
        Rect::new([-inf], [inf]),
        Rect::new([1e9], [2e9]),
    ]
}

#[test]
fn packed_2d_matches_linear_scan_at_every_size() {
    for max in [4, 7, 12] {
        for n in sizes(max) {
            check_pack::<2>(max, packed_entries(n, n as u64 * 31 + max as u64), &windows_2d());
        }
    }
}

#[test]
fn packed_1d_matches_linear_scan_at_every_size() {
    for max in [4, 9] {
        for n in sizes(max) {
            check_pack::<1>(max, packed_entries(n, n as u64 * 17 + max as u64), &windows_1d());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_tree_matches_linear_scan(
        max in 4usize..=12,
        raw in prop::collection::vec(
            (any::<i16>(), any::<u8>(), any::<u8>(), any::<i16>(), any::<u8>(), any::<u8>()),
            0..300,
        ),
        window in (any::<i16>(), any::<u16>(), any::<i16>(), any::<u16>()),
    ) {
        let entries: Vec<(Rect<2>, u64)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(x, w, kx, y, h, ky))| {
                let ((x0, x1), (y0, y1)) = (side(x, w, kx), side(y, h, ky));
                (Rect::new([x0, y0], [x1, y1]), i as u64)
            })
            .collect();
        let (wx, ww, wy, wh) = window;
        let q = Rect::new([wx as f64, wy as f64], [wx as f64 + ww as f64, wy as f64 + wh as f64]);
        check_pack::<2>(max, entries, &[q, Rect::new([-1e6, -1e6], [1e6, 1e6])]);
    }
}

//! Sort-tile-recursive (STR) packing (Leutenegger, Lopez and Edgington,
//! ICDE 1997).
//!
//! [`str_load`] builds a tree bottom up: one level at a time, the items
//! are tiled into nodes of near-full fan-out, and the nodes' MBRs become
//! the next level's items, until one root remains. No R\* insert runs, so
//! packing costs a few sorts instead of one overlap-minimising insert per
//! entry. The catalog's relation indexes are packed; the paper's §5
//! experiments ([`crate::strategy`]) build by insertion, the
//! configuration whose node accesses they measure.

use crate::rect::Rect;
use crate::rstar::{Node, NodeId, NodeKind, RStarParams, RStarTree};

/// Packs `entries` into a fresh tree.
///
/// A level of `k` items becomes `P = ⌈k/M⌉` nodes, node `j` taking items
/// `[⌊k·j/P⌋, ⌊k·(j+1)/P⌋)` of the tiled order, so every node holds
/// `⌊k/P⌋` or `⌈k/P⌉` items: between `min_entries` and `M`. The order
/// is STR's: stable-sort by center on axis 0, cut into `⌈P^(1/D)⌉` slabs
/// of whole nodes, and tile each slab the same way on the remaining axes.
/// Centers are ordered by `total_cmp`, so a `[-inf, +inf]` side (whose
/// center is NaN) sorts deterministically.
///
/// The result satisfies every R\*-tree invariant, and later inserts
/// behave as usual. The same input always packs into the same
/// tree.
pub fn str_load<const D: usize, T: Clone>(
    params: RStarParams,
    entries: Vec<(Rect<D>, T)>,
) -> RStarTree<D, T> {
    if entries.is_empty() {
        return RStarTree::new(params);
    }
    let len = entries.len();
    let mut nodes = Vec::new();
    let mut level = pack_level(params, entries, |e| e.0, NodeKind::Leaf, &mut nodes);
    let mut height = 1;
    while level.len() > 1 {
        let make = |children: Vec<(Rect<D>, NodeId)>| {
            NodeKind::Internal(children.into_iter().map(|(_, c)| c).collect())
        };
        level = pack_level(params, level, |e| e.0, make, &mut nodes);
        height += 1;
    }
    RStarTree::from_arena(params, nodes, level[0].1, height, len)
}

/// Packs one level: tiles `items` into nodes built by `make`, pushes them
/// onto `nodes`, and returns each new node's MBR and id in tiled order.
fn pack_level<const D: usize, T, E>(
    params: RStarParams,
    mut items: Vec<E>,
    rect_of: impl Fn(&E) -> Rect<D>,
    make: impl Fn(Vec<E>) -> NodeKind<D, T>,
    nodes: &mut Vec<Node<D, T>>,
) -> Vec<(Rect<D>, NodeId)> {
    let k = items.len();
    let p = k.div_ceil(params.max_entries);
    let bound = |j: usize| k * j / p;
    tile(&mut items, &rect_of, &bound, 0..p, 0);
    let mut items = items.into_iter();
    (0..p)
        .map(|j| {
            let group: Vec<E> = items.by_ref().take(bound(j + 1) - bound(j)).collect();
            let rect = group.iter().fold(Rect::empty(), |acc, e| acc.union(&rect_of(e)));
            nodes.push(Node { rect, kind: make(group) });
            (rect, NodeId(nodes.len() as u32 - 1))
        })
        .collect()
}

/// Orders the items of the nodes `range` (items `[bound(start),
/// bound(end))`) by center on `axis`, then cuts them into `⌈n^(1/r)⌉`
/// slabs of whole nodes, `n` nodes and `r` axes remaining, and orders
/// each slab on the next axis.
fn tile<const D: usize, E>(
    items: &mut [E],
    rect_of: &impl Fn(&E) -> Rect<D>,
    bound: &impl Fn(usize) -> usize,
    range: std::ops::Range<usize>,
    axis: usize,
) {
    let center = |e: &E| {
        let r = rect_of(e);
        (r.lo[axis] + r.hi[axis]) / 2.0
    };
    items[bound(range.start)..bound(range.end)].sort_by(|a, b| center(a).total_cmp(&center(b)));
    if axis + 1 == D {
        return;
    }
    let n = range.len();
    let slabs = ceil_root(n, D - axis);
    for s in 0..slabs {
        let slab = range.start + n * s / slabs..range.start + n * (s + 1) / slabs;
        tile(items, rect_of, bound, slab, axis + 1);
    }
}

/// `⌈n^(1/r)⌉`, exactly.
fn ceil_root(n: usize, r: usize) -> usize {
    let pow = |s: usize| (0..r).fold(1usize, |acc, _| acc.saturating_mul(s));
    let mut s = (n as f64).powf(1.0 / r as f64).ceil() as usize;
    while s > 1 && pow(s - 1) >= n {
        s -= 1;
    }
    while pow(s) < n {
        s += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_queries() {
        let entries: Vec<(Rect<2>, usize)> = (0..200)
            .map(|i| {
                let x = (i % 20) as f64 * 5.0;
                let y = (i / 20) as f64 * 5.0;
                (Rect::new([x, y], [x + 1.0, y + 1.0]), i)
            })
            .collect();
        let tree = str_load(RStarParams::with_max(10), entries.clone());
        assert_eq!(tree.len(), 200);
        // 20 leaves under 2 internal nodes under the root.
        assert_eq!(tree.height(), 3);
        assert_eq!(tree.node_count(), 23);
        tree.check_invariants();
        for (r, i) in &entries {
            assert!(tree.search(r).0.contains(i));
        }
    }

    #[test]
    fn packs_grid_into_square_tiles() {
        // 16 unit cells on a 4×4 grid at fan-out 4: STR packs each 2×2
        // quadrant into one leaf, so a point probe reads root + one leaf.
        let entries: Vec<(Rect<2>, usize)> = (0..16)
            .map(|i| {
                let (x, y) = ((i % 4) as f64 * 2.0, (i / 4) as f64 * 2.0);
                (Rect::new([x, y], [x + 1.0, y + 1.0]), i)
            })
            .collect();
        let tree = str_load(RStarParams::with_max(4), entries);
        tree.check_invariants();
        assert_eq!(tree.height(), 2);
        let (hits, accesses) = tree.search(&Rect::point([0.5, 0.5]));
        assert_eq!((hits, accesses), (vec![0], 2));
        let (mut hits, accesses) = tree.search(&Rect::new([0.0, 0.0], [3.0, 3.0]));
        hits.sort();
        assert_eq!((hits, accesses), (vec![0, 1, 4, 5], 2));
    }

    #[test]
    fn unbounded_sides_load_and_search() {
        // A `[-inf, +inf]` side has a NaN center; the slab sorts still
        // order it deterministically.
        let entries = crate::rstar::tests::unbounded_entries();
        let params = RStarParams::with_max(4);
        let tree = str_load(params, entries.clone());
        tree.check_invariants();
        assert!(tree.same_structure(&str_load(params, entries.clone())));
        for q in [Rect::new([0.0, 0.0], [4.0, 4.0]), Rect::new([-1e300, 10.0], [-1e299, 12.0])] {
            let (mut got, _) = tree.search(&q);
            got.sort();
            let want: Vec<usize> =
                entries.iter().filter(|(r, _)| r.intersects(&q)).map(|(_, i)| *i).collect();
            assert_eq!(got, want, "query {:?}", q);
        }
    }

    #[test]
    fn empty_load() {
        let tree: RStarTree<2, u32> = str_load(RStarParams::with_max(8), Vec::new());
        assert!(tree.is_empty());
        tree.check_invariants();
    }

    #[test]
    fn ceil_root_is_exact() {
        for (n, r, want) in [(1, 2, 1), (4, 2, 2), (5, 2, 3), (9, 2, 3), (10, 2, 4), (8, 3, 2), (9, 3, 3)]
        {
            assert_eq!(ceil_root(n, r), want, "ceil_root({}, {})", n, r);
        }
        for n in 1..2000 {
            let s = ceil_root(n, 2);
            assert!(s * s >= n && (s - 1) * (s - 1) < n, "n = {}", n);
        }
    }

    #[test]
    fn bulk_tree_not_worse_than_random_insertion() {
        // Compare query accesses on the same data.
        let mut entries: Vec<(Rect<2>, usize)> = Vec::new();
        let mut state = 99u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) * 1000.0
        };
        for i in 0..1000 {
            let (x, y) = (rnd(), rnd());
            entries.push((Rect::new([x, y], [x + 10.0, y + 10.0]), i));
        }
        let params = RStarParams::with_max(16);
        let bulk = str_load(params, entries.clone());
        let mut incremental = RStarTree::new(params);
        for (r, i) in entries {
            incremental.insert(r, i);
        }
        let q = Rect::new([100.0, 100.0], [200.0, 200.0]);
        let (hits_b, acc_b) = bulk.search(&q);
        let (hits_i, acc_i) = incremental.search(&q);
        let (mut hb, mut hi) = (hits_b, hits_i);
        hb.sort();
        hi.sort();
        assert_eq!(hb, hi);
        // Bulk loading should not be drastically worse.
        assert!(acc_b <= acc_i * 2, "bulk {} vs incremental {}", acc_b, acc_i);
        // Packed nodes are full, so the packed tree has fewer pages.
        assert!(bulk.node_count() < incremental.node_count());
    }
}

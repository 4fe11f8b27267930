//! The R\*-tree (Beckmann, Kriegel, Schneider, Seeger — the paper's \[2\]).
//!
//! Implemented from the original description: ChooseSubtree minimizes
//! overlap enlargement at the leaf level and area enlargement above it;
//! OverflowTreatment performs one **forced reinsertion** of the 30% of
//! entries farthest from the node center per level per insertion before
//! resorting to a split; Split chooses the axis by minimum margin sum and
//! the distribution by minimum overlap.
//!
//! Nodes live in an arena; one node corresponds to one disk page (the
//! fan-out is derived from [`cqa_storage::PAGE_SIZE`] by
//! [`RStarParams::fitting_page`]), which makes *nodes visited during a
//! search* the faithful analogue of the paper's "number of disk accesses".

use crate::rect::Rect;
use std::sync::OnceLock;

/// Global observability handles for R\*-tree searches, registered once.
/// Searches may run inside parallel workers, so only order-independent
/// counters/histograms are recorded here — never spans.
struct SearchMetrics {
    searches: &'static cqa_obs::Counter,
    node_accesses: &'static cqa_obs::Counter,
    search_accesses: &'static cqa_obs::Histogram,
}

fn search_metrics() -> &'static SearchMetrics {
    static M: OnceLock<SearchMetrics> = OnceLock::new();
    M.get_or_init(|| SearchMetrics {
        searches: cqa_obs::counter("index.rstar.searches"),
        node_accesses: cqa_obs::counter("index.rstar.node_accesses"),
        search_accesses: cqa_obs::histogram("index.rstar.search_accesses"),
    })
}

/// Tuning parameters of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RStarParams {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node (`m`, 40% of `M` per the R\* paper).
    pub min_entries: usize,
    /// Entries removed by forced reinsertion (`p`, 30% of `M`).
    pub reinsert_count: usize,
}

impl RStarParams {
    /// Parameters with the given maximum fan-out.
    pub fn with_max(max_entries: usize) -> RStarParams {
        assert!(max_entries >= 4, "R*-tree needs fan-out of at least 4");
        RStarParams {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
            reinsert_count: (max_entries * 3 / 10).max(1),
        }
    }

    /// Parameters sized so one node fills one disk page: an entry is `2·D`
    /// `f64` coordinates plus an 8-byte payload (child pointer or record
    /// id), and 16 bytes of page header are reserved.
    pub fn fitting_page(dims: usize) -> RStarParams {
        let entry = dims * 16 + 8;
        RStarParams::with_max((cqa_storage::PAGE_SIZE - 16) / entry)
    }
}

/// Index of a node in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeId(pub(crate) u32);

#[derive(Debug, Clone)]
pub(crate) enum NodeKind<const D: usize, T> {
    Internal(Vec<NodeId>),
    Leaf(Vec<(Rect<D>, T)>),
}

#[derive(Debug, Clone)]
pub(crate) struct Node<const D: usize, T> {
    pub(crate) rect: Rect<D>,
    pub(crate) kind: NodeKind<D, T>,
}

/// An R\*-tree mapping `D`-dimensional rectangles to payloads of type `T`.
///
/// Searches are `&self` and thread-safe: each returns its own node-access
/// count (the paper's disk-access metric), so a tree shared across the
/// parallel executor's workers keeps no per-tree tally; the global
/// `index.rstar.*` counters sum order-independently.
#[derive(Debug, Clone)]
pub struct RStarTree<const D: usize, T> {
    params: RStarParams,
    nodes: Vec<Node<D, T>>,
    root: NodeId,
    height: usize, // leaf = level 0; root is at level height - 1
    len: usize,
}

impl<const D: usize, T: Clone> Default for RStarTree<D, T> {
    fn default() -> Self {
        RStarTree::new(RStarParams::fitting_page(D))
    }
}

impl<const D: usize, T: Clone> RStarTree<D, T> {
    /// An empty tree with the given parameters.
    pub fn new(params: RStarParams) -> RStarTree<D, T> {
        let root = Node { rect: Rect::empty(), kind: NodeKind::Leaf(Vec::new()) };
        RStarTree {
            params,
            nodes: vec![root],
            root: NodeId(0),
            height: 1,
            len: 0,
        }
    }

    /// A tree over a prebuilt arena (the bulk loader's output): `root`
    /// heads `height` levels that hold `len` entries.
    pub(crate) fn from_arena(
        params: RStarParams,
        nodes: Vec<Node<D, T>>,
        root: NodeId,
        height: usize,
        len: usize,
    ) -> RStarTree<D, T> {
        RStarTree { params, nodes, root, height, len }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = a single leaf node).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The parameters in force.
    pub fn params(&self) -> RStarParams {
        self.params
    }

    /// The bounding rectangle of the whole tree.
    pub fn bounds(&self) -> Rect<D> {
        self.node(self.root).rect
    }

    /// Number of nodes (≈ pages the tree would occupy).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Structural (node-level) equality: same height, same tree shape,
    /// same node rectangles, and same leaf entries in the same order.
    /// Slot indices in the arena are allowed to differ — two trees built
    /// through different allocation histories still compare equal if
    /// every page a query would touch is identical. Pins the contract
    /// that packing the same entries twice builds the same tree.
    pub fn same_structure(&self, other: &RStarTree<D, T>) -> bool
    where
        T: PartialEq,
    {
        fn eq_node<const D: usize, T: Clone + PartialEq>(
            a: &RStarTree<D, T>,
            an: NodeId,
            b: &RStarTree<D, T>,
            bn: NodeId,
        ) -> bool {
            let (na, nb) = (a.node(an), b.node(bn));
            if na.rect != nb.rect {
                return false;
            }
            match (&na.kind, &nb.kind) {
                (NodeKind::Internal(ca), NodeKind::Internal(cb)) => {
                    ca.len() == cb.len()
                        && ca.iter().zip(cb.iter()).all(|(&x, &y)| eq_node(a, x, b, y))
                }
                (NodeKind::Leaf(ea), NodeKind::Leaf(eb)) => ea == eb,
                _ => false,
            }
        }
        self.len == other.len
            && self.height == other.height
            && (self.is_empty() || eq_node(self, self.root, other, other.root))
    }

    fn node(&self, id: NodeId) -> &Node<D, T> {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node<D, T> {
        &mut self.nodes[id.0 as usize]
    }

    fn alloc(&mut self, node: Node<D, T>) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// All payloads whose rectangle intersects `query`, and the node
    /// accesses this query performed (the paper's disk-access metric).
    pub fn search(&self, query: &Rect<D>) -> (Vec<T>, u64) {
        let mut results = Vec::new();
        let mut stack = vec![self.root];
        let mut accesses = 0u64;
        while let Some(id) = stack.pop() {
            accesses += 1; // reading this node's page
            match &self.node(id).kind {
                NodeKind::Leaf(entries) => {
                    for (r, t) in entries {
                        if r.intersects(query) {
                            results.push(t.clone());
                        }
                    }
                }
                NodeKind::Internal(children) => {
                    for &c in children {
                        if self.node(c).rect.intersects(query) {
                            stack.push(c);
                        }
                    }
                }
            }
        }
        if cqa_obs::metrics_enabled() {
            let m = search_metrics();
            m.searches.inc();
            m.node_accesses.add(accesses);
            m.search_accesses.record(accesses);
        }
        (results, accesses)
    }

    /// Iterates over every `(rect, payload)` entry.
    pub fn iter(&self) -> impl Iterator<Item = (Rect<D>, T)> + '_ {
        let mut stack = vec![self.root];
        let mut pending: Vec<(Rect<D>, T)> = Vec::new();
        std::iter::from_fn(move || loop {
            if let Some(e) = pending.pop() {
                return Some(e);
            }
            let id = stack.pop()?;
            match &self.node(id).kind {
                NodeKind::Leaf(entries) => pending.extend(entries.iter().cloned()),
                NodeKind::Internal(children) => stack.extend(children.iter().copied()),
            }
        })
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts an entry.
    pub fn insert(&mut self, rect: Rect<D>, item: T) {
        debug_assert!(!rect.is_empty(), "cannot index the empty rectangle");
        self.len += 1;
        let mut reinserted = vec![false; self.height + 1];
        self.insert_leaf_entry(rect, item, &mut reinserted);
    }

    fn insert_leaf_entry(&mut self, rect: Rect<D>, item: T, reinserted: &mut Vec<bool>) {
        let path = self.choose_path(&rect, 0);
        let leaf = *path.last().unwrap();
        match &mut self.node_mut(leaf).kind {
            NodeKind::Leaf(entries) => entries.push((rect, item)),
            NodeKind::Internal(_) => unreachable!("choose_path(0) returns a leaf"),
        }
        self.refresh_rects(&path);
        self.handle_overflow_chain(path, reinserted);
    }

    /// The path from the root down to a node at `level` chosen for `rect`.
    fn choose_path(&self, rect: &Rect<D>, level: usize) -> Vec<NodeId> {
        let mut path = vec![self.root];
        let mut current_level = self.height - 1;
        let mut id = self.root;
        while current_level > level {
            let children = match &self.node(id).kind {
                NodeKind::Internal(c) => c,
                NodeKind::Leaf(_) => break,
            };
            let next = if current_level == 1 && level == 0 {
                self.pick_min_overlap_child(children, rect)
            } else {
                self.pick_min_enlargement_child(children, rect)
            };
            path.push(next);
            id = next;
            current_level -= 1;
        }
        path
    }

    /// R\* leaf-level choice: the child whose *overlap with its siblings*
    /// grows least when enlarged to cover `rect`. Per the R\* paper's
    /// "nearly no affect on retrieval performance" optimization, only the
    /// 32 children with least area enlargement are examined when the node
    /// is large, keeping insertion subquadratic in the fan-out.
    fn pick_min_overlap_child(&self, children: &[NodeId], rect: &Rect<D>) -> NodeId {
        const CANDIDATES: usize = 32;
        let shortlist: Vec<NodeId>;
        let children: &[NodeId] = if children.len() > CANDIDATES {
            let mut by_enlargement: Vec<(f64, NodeId)> = children
                .iter()
                .map(|&c| (self.node(c).rect.enlargement(rect), c))
                .collect();
            // An unbounded side makes the enlargement NaN (inf − inf), so
            // the order is `total_cmp`'s, which equals `partial_cmp`'s on
            // the (never −0.0) non-NaN enlargements.
            by_enlargement.sort_by(|a, b| a.0.total_cmp(&b.0));
            shortlist = by_enlargement.into_iter().take(CANDIDATES).map(|(_, c)| c).collect();
            &shortlist
        } else {
            children
        };
        let mut best: Option<(f64, f64, f64, NodeId)> = None;
        for &c in children {
            let cr = self.node(c).rect;
            let enlarged = cr.union(rect);
            let mut overlap_delta = 0.0;
            for &o in children {
                if o == c {
                    continue;
                }
                let or = self.node(o).rect;
                overlap_delta += enlarged.overlap_area(&or) - cr.overlap_area(&or);
            }
            let key = (overlap_delta, cr.enlargement(rect), cr.area(), c);
            match &best {
                Some((d, e, a, _))
                    if (*d, *e, *a) <= (key.0, key.1, key.2) => {}
                _ => best = Some(key),
            }
        }
        best.expect("internal node has children").3
    }

    /// Above the leaf level: least area enlargement, then least area.
    fn pick_min_enlargement_child(&self, children: &[NodeId], rect: &Rect<D>) -> NodeId {
        let mut best: Option<(f64, f64, NodeId)> = None;
        for &c in children {
            let cr = self.node(c).rect;
            let key = (cr.enlargement(rect), cr.area(), c);
            match &best {
                Some((e, a, _)) if (*e, *a) <= (key.0, key.1) => {}
                _ => best = Some(key),
            }
        }
        best.expect("internal node has children").2
    }

    /// Recomputes bounding rectangles along a root-to-node path.
    fn refresh_rects(&mut self, path: &[NodeId]) {
        for &id in path.iter().rev() {
            let rect = self.compute_rect(id);
            self.node_mut(id).rect = rect;
        }
    }

    fn compute_rect(&self, id: NodeId) -> Rect<D> {
        match &self.node(id).kind {
            NodeKind::Leaf(entries) => entries
                .iter()
                .fold(Rect::empty(), |acc, (r, _)| acc.union(r)),
            NodeKind::Internal(children) => children
                .iter()
                .fold(Rect::empty(), |acc, &c| acc.union(&self.node(c).rect)),
        }
    }

    fn entry_count(&self, id: NodeId) -> usize {
        match &self.node(id).kind {
            NodeKind::Leaf(e) => e.len(),
            NodeKind::Internal(c) => c.len(),
        }
    }

    /// Walks the path bottom-up resolving overflows by forced reinsertion
    /// or splitting.
    fn handle_overflow_chain(&mut self, mut path: Vec<NodeId>, reinserted: &mut Vec<bool>) {
        while let Some(&node) = path.last() {
            if self.entry_count(node) <= self.params.max_entries {
                return;
            }
            let level = self.height - path.len();
            let is_root = path.len() == 1;
            let is_leaf = matches!(self.node(node).kind, NodeKind::Leaf(_));
            if !is_root && is_leaf && !reinserted.get(level).copied().unwrap_or(false) {
                if level < reinserted.len() {
                    reinserted[level] = true;
                }
                self.forced_reinsert(node, &path, reinserted);
                return; // reinsertion restarts its own overflow handling
            }
            self.split_node(&mut path, reinserted);
        }
    }

    /// Removes the `p` entries farthest from the node's center and
    /// reinserts them (R\* OverflowTreatment, leaf level).
    fn forced_reinsert(&mut self, node: NodeId, path: &[NodeId], reinserted: &mut Vec<bool>) {
        let node_rect = self.node(node).rect;
        let reinsert_count = self.params.reinsert_count;
        let removed: Vec<(Rect<D>, T)> = match &mut self.node_mut(node).kind {
            NodeKind::Leaf(entries) => {
                // Sort by center distance, farthest first. An unbounded
                // side makes the distance NaN (inf − inf), so the order is
                // `total_cmp`'s, which equals `partial_cmp`'s on the
                // (never −0.0) non-NaN sums of squares.
                let dist = |e: &(Rect<D>, T)| node_rect.center_distance2(&e.0);
                entries.sort_by(|a, b| dist(a).total_cmp(&dist(b)));
                let keep = entries.len() - reinsert_count.min(entries.len() - 1);
                entries.split_off(keep)
            }
            NodeKind::Internal(_) => unreachable!("forced reinsert is leaf-level"),
        };
        self.refresh_rects(path);
        for (r, t) in removed {
            self.insert_leaf_entry(r, t, reinserted);
        }
    }

    /// Splits the node at the end of `path`, inserting the new sibling into
    /// the parent (or growing a new root).
    fn split_node(&mut self, path: &mut Vec<NodeId>, _reinserted: &mut [bool]) {
        let node = path.pop().unwrap();
        let params = self.params;
        let (sibling_kind, sibling_rect, node_rect) = match &mut self.node_mut(node).kind {
            NodeKind::Leaf(entries) => {
                let all = std::mem::take(entries);
                let (keep, give) = split_entries(params, all, |e| e.0);
                let node_rect = keep.iter().fold(Rect::empty(), |a, e| a.union(&e.0));
                let sib_rect = give.iter().fold(Rect::empty(), |a, e| a.union(&e.0));
                *entries = keep;
                (NodeKind::Leaf(give), sib_rect, node_rect)
            }
            NodeKind::Internal(children) => {
                let all: Vec<NodeId> = std::mem::take(children);
                // Need rects: gather, split, then write back ids.
                let with_rects: Vec<(Rect<D>, NodeId)> =
                    all.iter().map(|&c| (self.nodes[c.0 as usize].rect, c)).collect();
                let (keep, give) = split_entries(params, with_rects, |e| e.0);
                let node_rect = keep.iter().fold(Rect::empty(), |a, e| a.union(&e.0));
                let sib_rect = give.iter().fold(Rect::empty(), |a, e| a.union(&e.0));
                let keep_ids: Vec<NodeId> = keep.into_iter().map(|e| e.1).collect();
                let give_ids: Vec<NodeId> = give.into_iter().map(|e| e.1).collect();
                match &mut self.node_mut(node).kind {
                    NodeKind::Internal(children) => *children = keep_ids,
                    _ => unreachable!(),
                }
                (NodeKind::Internal(give_ids), sib_rect, node_rect)
            }
        };
        self.node_mut(node).rect = node_rect;
        let sibling = self.alloc(Node { rect: sibling_rect, kind: sibling_kind });

        if let Some(&parent) = path.last() {
            match &mut self.node_mut(parent).kind {
                NodeKind::Internal(children) => children.push(sibling),
                NodeKind::Leaf(_) => unreachable!("parents are internal"),
            }
            self.refresh_rects(path);
        } else {
            // node was the root: grow the tree.
            let new_root_rect = node_rect.union(&sibling_rect);
            let new_root = self.alloc(Node {
                rect: new_root_rect,
                kind: NodeKind::Internal(vec![node, sibling]),
            });
            self.root = new_root;
            self.height += 1;
            path.push(new_root);
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (used by tests)
    // ------------------------------------------------------------------

    /// Verifies structural invariants; panics with a description on
    /// violation. Intended for tests.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        self.check_node(self.root, self.height - 1, true, &mut seen);
        assert_eq!(seen, self.len, "entry count mismatch");
    }

    fn check_node(&self, id: NodeId, level: usize, is_root: bool, seen: &mut usize) {
        let node = self.node(id);
        let count = self.entry_count(id);
        assert!(count <= self.params.max_entries, "node overflow");
        if !is_root {
            assert!(count >= self.params.min_entries, "node underflow: {} entries", count);
        }
        let computed = self.compute_rect(id);
        assert_eq!(node.rect, computed, "stale bounding rect");
        match &node.kind {
            NodeKind::Leaf(entries) => {
                assert_eq!(level, 0, "leaves must be at level 0");
                *seen += entries.len();
            }
            NodeKind::Internal(children) => {
                assert!(level > 0, "internal node at leaf level");
                for &c in children {
                    self.check_node(c, level - 1, false, seen);
                }
            }
        }
    }
}

/// The R\* split of a set of entries: axis by minimum margin sum, then
/// distribution by minimum overlap (ties: minimum total area).
pub(crate) fn split_entries<const D: usize, E>(
    params: RStarParams,
    mut entries: Vec<E>,
    rect_of: impl Fn(&E) -> Rect<D>,
) -> (Vec<E>, Vec<E>) {
    let m = params.min_entries;
    let total = entries.len();
    debug_assert!(total >= 2 * m);

    // Choose the split axis: for each axis, sort by lo then by hi and sum
    // the margins of all legal distributions.
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..D {
        let mut margin_sum = 0.0;
        for by_hi in [false, true] {
            let mut sorted: Vec<Rect<D>> = entries.iter().map(&rect_of).collect();
            sorted.sort_by(|a, b| {
                let (ka, kb) = if by_hi { (a.hi[axis], b.hi[axis]) } else { (a.lo[axis], b.lo[axis]) };
                ka.partial_cmp(&kb).unwrap()
            });
            let prefixes = running_unions(&sorted);
            let suffixes = running_unions_rev(&sorted);
            for k in m..=total - m {
                margin_sum += prefixes[k - 1].margin() + suffixes[k].margin();
            }
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }

    // Choose the distribution on the best axis.
    let mut best: Option<(f64, f64, bool, usize)> = None; // (overlap, area, by_hi, k)
    for by_hi in [false, true] {
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by(|&i, &j| {
            let (a, b) = (rect_of(&entries[i]), rect_of(&entries[j]));
            let (ka, kb) = if by_hi {
                (a.hi[best_axis], b.hi[best_axis])
            } else {
                (a.lo[best_axis], b.lo[best_axis])
            };
            ka.partial_cmp(&kb).unwrap()
        });
        let sorted: Vec<Rect<D>> = order.iter().map(|&i| rect_of(&entries[i])).collect();
        let prefixes = running_unions(&sorted);
        let suffixes = running_unions_rev(&sorted);
        for k in m..=total - m {
            let (r1, r2) = (prefixes[k - 1], suffixes[k]);
            let key = (r1.overlap_area(&r2), r1.area() + r2.area());
            match best {
                Some((o, a, _, _)) if (o, a) <= key => {}
                _ => best = Some((key.0, key.1, by_hi, k)),
            }
        }
    }
    let (_, _, by_hi, k) = best.expect("at least one distribution");

    // Materialize the chosen distribution.
    entries.sort_by(|a, b| {
        let (ra, rb) = (rect_of(a), rect_of(b));
        let (ka, kb) = if by_hi {
            (ra.hi[best_axis], rb.hi[best_axis])
        } else {
            (ra.lo[best_axis], rb.lo[best_axis])
        };
        ka.partial_cmp(&kb).unwrap()
    });
    let give = entries.split_off(k);
    (entries, give)
}

fn running_unions<const D: usize>(rects: &[Rect<D>]) -> Vec<Rect<D>> {
    let mut out = Vec::with_capacity(rects.len());
    let mut acc = Rect::empty();
    for r in rects {
        acc = acc.union(r);
        out.push(acc);
    }
    out
}

fn running_unions_rev<const D: usize>(rects: &[Rect<D>]) -> Vec<Rect<D>> {
    let mut out = vec![Rect::empty(); rects.len() + 1];
    let mut acc = Rect::empty();
    for (i, r) in rects.iter().enumerate().rev() {
        acc = acc.union(r);
        out[i] = acc;
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn small_tree() -> RStarTree<2, usize> {
        RStarTree::new(RStarParams::with_max(4))
    }

    fn unit_rect(x: f64, y: f64) -> Rect<2> {
        Rect::new([x, y], [x + 1.0, y + 1.0])
    }

    #[test]
    fn empty_tree() {
        let t = small_tree();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.search(&Rect::new([0.0, 0.0], [100.0, 100.0])).0.is_empty());
        t.check_invariants();
    }

    #[test]
    fn insert_and_search_grid() {
        let mut t = small_tree();
        for i in 0..10 {
            for j in 0..10 {
                t.insert(unit_rect(i as f64 * 2.0, j as f64 * 2.0), i * 10 + j);
            }
        }
        assert_eq!(t.len(), 100);
        assert!(t.height() > 1);
        t.check_invariants();

        // Query one cell.
        let (hits, _) = t.search(&Rect::new([0.5, 0.5], [0.6, 0.6]));
        assert_eq!(hits, vec![0]);
        // Query a 2x2 block of cells.
        let (mut hits, _) = t.search(&Rect::new([0.0, 0.0], [2.5, 2.5]));
        hits.sort();
        assert_eq!(hits, vec![0, 1, 10, 11]);
        // Query everything.
        assert_eq!(t.search(&t.bounds()).0.len(), 100);
        // Query nothing.
        assert!(t.search(&Rect::new([500.0, 500.0], [501.0, 501.0])).0.is_empty());
    }

    #[test]
    fn search_matches_linear_scan() {
        let mut t = RStarTree::new(RStarParams::with_max(8));
        let mut data = Vec::new();
        // Deterministic pseudo-random boxes.
        let mut state = 12345u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) * 100.0
        };
        for i in 0..500usize {
            let (x, y) = (rnd(), rnd());
            let (w, h) = (rnd() / 10.0, rnd() / 10.0);
            let r = Rect::new([x, y], [x + w, y + h]);
            t.insert(r, i);
            data.push((r, i));
        }
        t.check_invariants();
        for _ in 0..50 {
            let (x, y) = (rnd(), rnd());
            let (w, h) = (rnd() / 4.0, rnd() / 4.0);
            let q = Rect::new([x, y], [x + w, y + h]);
            let (mut got, _) = t.search(&q);
            got.sort();
            let mut want: Vec<usize> =
                data.iter().filter(|(r, _)| r.intersects(&q)).map(|(_, i)| *i).collect();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn access_counting() {
        let mut t = small_tree();
        for i in 0..64 {
            t.insert(unit_rect((i % 8) as f64 * 3.0, (i / 8) as f64 * 3.0), i);
        }
        let before = cqa_obs::snapshot();
        let (_, small_q) = t.search(&Rect::new([0.0, 0.0], [0.5, 0.5]));
        let (_, big_q) = t.search(&t.bounds());
        assert!(small_q >= t.height() as u64, "must at least walk one path");
        assert!(big_q as usize >= t.node_count(), "full query touches every node");
        assert!(small_q < big_q);
        // Other tests may search concurrently, so the registry is checked
        // for growth.
        let moved = cqa_obs::snapshot().delta(&before).counter("index.rstar.node_accesses");
        assert!(moved >= small_q + big_q, "registry grew by {}", moved);
    }

    #[test]
    fn duplicates_supported() {
        let mut t = small_tree();
        let r = unit_rect(0.0, 0.0);
        for _ in 0..10 {
            t.insert(r, 7);
        }
        assert_eq!(t.search(&r).0.len(), 10);
        t.check_invariants();
    }

    #[test]
    fn one_dimensional_tree() {
        let mut t: RStarTree<1, u32> = RStarTree::new(RStarParams::with_max(4));
        for i in 0..100u32 {
            t.insert(Rect::new([i as f64], [i as f64 + 0.5]), i);
        }
        t.check_invariants();
        let (mut hits, _) = t.search(&Rect::new([10.0], [12.0]));
        hits.sort();
        assert_eq!(hits, vec![10, 11, 12]);
    }

    /// Rects with infinite sides, as a feature box yields where a
    /// coordinate is beyond the f64 range and so encloses to the whole
    /// line: a `[-inf, +inf]` side has a NaN center.
    pub(crate) fn unbounded_entries() -> Vec<(Rect<2>, usize)> {
        let inf = f64::INFINITY;
        (0..60usize)
            .map(|i| {
                let (x, y) = ((i % 8) as f64 * 3.0, (i / 8) as f64 * 3.0);
                let r = match i % 5 {
                    0 => Rect::new([-inf, y], [inf, y + 1.0]),
                    1 => Rect::new([x, y], [inf, y + 1.0]),
                    2 => Rect::new([x, -inf], [x + 1.0, y]),
                    _ => unit_rect(x, y),
                };
                (r, i)
            })
            .collect()
    }

    #[test]
    fn unbounded_sides_insert_and_search() {
        let entries = unbounded_entries();
        let mut t = small_tree();
        for (r, i) in &entries {
            t.insert(*r, *i);
        }
        assert!(t.height() > 1, "forced reinsertion ran");
        t.check_invariants();
        let queries = [
            Rect::new([0.0, 0.0], [4.0, 4.0]),
            Rect::new([-1e300, 10.0], [-1e299, 12.0]),
            Rect::new([100.0, -50.0], [200.0, -40.0]),
            t.bounds(),
        ];
        for q in queries {
            let (mut got, _) = t.search(&q);
            got.sort();
            let want: Vec<usize> =
                entries.iter().filter(|(r, _)| r.intersects(&q)).map(|(_, i)| *i).collect();
            assert_eq!(got, want, "query {:?}", q);
        }
    }

    #[test]
    fn unbounded_sides_at_large_fan_out() {
        // Above 32 children the leaf choice shortlists by enlargement,
        // which is NaN for a child with a `[-inf, +inf]` side; the
        // shortlist sort must still be a total order.
        let inf = f64::INFINITY;
        let mut state = 3u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut t = RStarTree::new(RStarParams::with_max(40));
        let mut entries = Vec::new();
        for i in 0..4000usize {
            let (x, y) = (rnd() * 1000.0, rnd() * 1000.0);
            let (mut lo, mut hi) = ([x, y], [x + 2.0, y + 2.0]);
            if rnd() < 0.15 {
                (lo[0], hi[0]) = (-inf, inf);
            }
            if rnd() < 0.10 {
                (lo[1], hi[1]) = (-inf, inf);
            }
            let r = Rect::new(lo, hi);
            t.insert(r, i);
            entries.push((r, i));
        }
        t.check_invariants();
        for q in [
            Rect::new([100.0, 100.0], [140.0, 120.0]),
            Rect::new([-5.0, 990.0], [3.0, 1005.0]),
            Rect::new([2000.0, 2000.0], [2001.0, 2001.0]),
        ] {
            let (mut got, _) = t.search(&q);
            got.sort();
            let want: Vec<usize> =
                entries.iter().filter(|(r, _)| r.intersects(&q)).map(|(_, i)| *i).collect();
            assert_eq!(got, want, "query {:?}", q);
        }
    }

    #[test]
    fn iter_visits_everything() {
        let mut t = small_tree();
        for i in 0..30 {
            t.insert(unit_rect(i as f64, 0.0), i);
        }
        let mut items: Vec<usize> = t.iter().map(|(_, i)| i).collect();
        items.sort();
        assert_eq!(items, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn page_fitting_params() {
        let p1 = RStarParams::fitting_page(1);
        let p2 = RStarParams::fitting_page(2);
        assert!(p1.max_entries > p2.max_entries, "1-D nodes have higher fan-out");
        assert!(p2.max_entries >= 50);
        assert!(p1.min_entries >= 2 && p1.min_entries <= p1.max_entries / 2);
    }
}

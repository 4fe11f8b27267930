//! The two indexing strategies compared in §5.4 of the paper.
//!
//! * [`JointIndex`]: one 2-dimensional R\*-tree over both attributes. A
//!   query constraining only one attribute searches with the other bound
//!   set "from minimum to maximum" (§5.4).
//! * [`SeparateIndices`]: one 1-dimensional R\*-tree per attribute. A
//!   two-attribute query searches each index and intersects the result
//!   sets; the disk-access count is "the sum of the numbers for the two
//!   subqueries" (§5.4.1).
//!
//! Payloads are `u64` tuple identifiers, which is what both the heap-file
//! record ids and the experiment generators use.

use crate::rect::Rect;
use crate::rstar::{RStarParams, RStarTree};
use std::collections::HashSet;

/// A rectangle query over two attributes; `None` leaves an attribute
/// unconstrained (the §5.4 "queries involve one attribute" case).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxQuery {
    /// Bounds on the first attribute.
    pub x: Option<(f64, f64)>,
    /// Bounds on the second attribute.
    pub y: Option<(f64, f64)>,
}

impl BoxQuery {
    /// A query constraining both attributes.
    pub fn both(x: (f64, f64), y: (f64, f64)) -> BoxQuery {
        BoxQuery { x: Some(x), y: Some(y) }
    }

    /// A query constraining only the first attribute.
    pub fn x_only(x: (f64, f64)) -> BoxQuery {
        BoxQuery { x: Some(x), y: None }
    }

    /// A query constraining only the second attribute.
    pub fn y_only(y: (f64, f64)) -> BoxQuery {
        BoxQuery { x: None, y: Some(y) }
    }

    /// The implied 2-D rectangle, with unconstrained attributes stretched
    /// over `world` (the "minimum to maximum" bounds of §5.4).
    pub fn to_rect(&self, world: (f64, f64)) -> Rect<2> {
        let x = self.x.unwrap_or(world);
        let y = self.y.unwrap_or(world);
        Rect::new([x.0, y.0], [x.1, y.1])
    }
}

/// Result of running one query against a strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Matching tuple ids (sorted, deduplicated).
    pub ids: Vec<u64>,
    /// Disk (node) accesses charged to the query.
    pub accesses: u64,
}

/// An attribute-indexing strategy: answers box queries over two attributes.
pub trait IndexStrategy {
    /// Inserts a tuple's bounding box.
    fn insert(&mut self, x: (f64, f64), y: (f64, f64), id: u64);

    /// Runs a query, returning matches and the disk-access count.
    fn query(&self, q: &BoxQuery) -> QueryOutcome;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// One 2-dimensional R\*-tree over both attributes.
pub struct JointIndex {
    tree: RStarTree<2, u64>,
    world: (f64, f64),
}

impl JointIndex {
    /// Creates the index; `world` bounds substitute for unconstrained
    /// attributes in one-attribute queries.
    pub fn new(params: RStarParams, world: (f64, f64)) -> JointIndex {
        JointIndex { tree: RStarTree::new(params), world }
    }
}

impl IndexStrategy for JointIndex {
    fn insert(&mut self, x: (f64, f64), y: (f64, f64), id: u64) {
        self.tree.insert(Rect::new([x.0, y.0], [x.1, y.1]), id);
    }

    fn query(&self, q: &BoxQuery) -> QueryOutcome {
        let (mut ids, accesses) = self.tree.search(&q.to_rect(self.world));
        ids.sort_unstable();
        ids.dedup();
        QueryOutcome { ids, accesses }
    }

    fn name(&self) -> &'static str {
        "joint"
    }
}

/// One 1-dimensional R\*-tree per attribute.
pub struct SeparateIndices {
    x_tree: RStarTree<1, u64>,
    y_tree: RStarTree<1, u64>,
}

impl SeparateIndices {
    /// Creates both single-attribute indexes.
    pub fn new(params: RStarParams) -> SeparateIndices {
        SeparateIndices { x_tree: RStarTree::new(params), y_tree: RStarTree::new(params) }
    }
}

impl IndexStrategy for SeparateIndices {
    fn insert(&mut self, x: (f64, f64), y: (f64, f64), id: u64) {
        self.x_tree.insert(Rect::new([x.0], [x.1]), id);
        self.y_tree.insert(Rect::new([y.0], [y.1]), id);
    }

    fn query(&self, q: &BoxQuery) -> QueryOutcome {
        match (q.x, q.y) {
            (Some(x), None) => {
                let (mut ids, acc) = self.x_tree.search(&Rect::new([x.0], [x.1]));
                ids.sort_unstable();
                ids.dedup();
                QueryOutcome { ids, accesses: acc }
            }
            (None, Some(y)) => {
                let (mut ids, acc) = self.y_tree.search(&Rect::new([y.0], [y.1]));
                ids.sort_unstable();
                ids.dedup();
                QueryOutcome { ids, accesses: acc }
            }
            (Some(x), Some(y)) => {
                // Search each index, sum the accesses, intersect the sets
                // (§5.4.1).
                let (xs, ax) = self.x_tree.search(&Rect::new([x.0], [x.1]));
                let (ys, ay) = self.y_tree.search(&Rect::new([y.0], [y.1]));
                let xset: HashSet<u64> = xs.into_iter().collect();
                let mut ids: Vec<u64> = ys.into_iter().filter(|id| xset.contains(id)).collect();
                ids.sort_unstable();
                ids.dedup();
                QueryOutcome { ids, accesses: ax + ay }
            }
            (None, None) => {
                // Unconstrained: a full scan of one index.
                let (mut ids, acc) = self.x_tree.search(&self.x_tree.bounds());
                ids.sort_unstable();
                ids.dedup();
                QueryOutcome { ids, accesses: acc }
            }
        }
    }

    fn name(&self) -> &'static str {
        "separate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> (JointIndex, SeparateIndices) {
        let params = RStarParams::with_max(8);
        let mut joint = JointIndex::new(params, (0.0, 100.0));
        let mut sep = SeparateIndices::new(params);
        // A 10×10 grid of unit boxes, id = col * 10 + row.
        for i in 0..10u64 {
            for j in 0..10u64 {
                let x = (i as f64 * 10.0, i as f64 * 10.0 + 1.0);
                let y = (j as f64 * 10.0, j as f64 * 10.0 + 1.0);
                joint.insert(x, y, i * 10 + j);
                sep.insert(x, y, i * 10 + j);
            }
        }
        (joint, sep)
    }

    #[test]
    fn same_answers_two_attribute_query() {
        let (joint, sep) = build();
        let q = BoxQuery::both((0.0, 10.5), (0.0, 10.5));
        let a = joint.query(&q);
        let b = sep.query(&q);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.ids, vec![0, 1, 10, 11]);
        assert!(a.accesses > 0 && b.accesses > 0);
    }

    #[test]
    fn same_answers_one_attribute_query() {
        let (joint, sep) = build();
        for q in [BoxQuery::x_only((20.0, 30.5)), BoxQuery::y_only((20.0, 30.5))] {
            let a = joint.query(&q);
            let b = sep.query(&q);
            assert_eq!(a.ids, b.ids, "query {:?}", q);
            assert_eq!(a.ids.len(), 20, "two grid lines of ten");
        }
    }

    #[test]
    fn separate_sums_subquery_accesses() {
        let (_, sep) = build();
        let two = sep.query(&BoxQuery::both((0.0, 10.5), (0.0, 10.5)));
        let just_x = sep.query(&BoxQuery::x_only((0.0, 10.5)));
        let just_y = sep.query(&BoxQuery::y_only((0.0, 10.5)));
        assert_eq!(two.accesses, just_x.accesses + just_y.accesses);
    }

    #[test]
    fn joint_wins_on_selective_conjunction() {
        // §5.3 scenario: each predicate alone matches half the data, the
        // conjunction matches almost nothing.
        let params = RStarParams::with_max(16);
        let mut joint = JointIndex::new(params, (0.0, 1000.0));
        let mut sep = SeparateIndices::new(params);
        // Half the tuples on the left edge, half on the bottom edge.
        for i in 0..500u64 {
            let t = i as f64;
            joint.insert((0.0, 1.0), (t, t + 1.0), i);
            sep.insert((0.0, 1.0), (t, t + 1.0), i);
            joint.insert((t, t + 1.0), (0.0, 1.0), 500 + i);
            sep.insert((t, t + 1.0), (0.0, 1.0), 500 + i);
        }
        // x small AND y small: only the corner qualifies.
        let q = BoxQuery::both((0.0, 2.0), (0.0, 2.0));
        let a = joint.query(&q);
        let b = sep.query(&q);
        assert_eq!(a.ids, b.ids);
        assert!(
            a.accesses * 5 < b.accesses,
            "joint ({}) should be far cheaper than separate ({})",
            a.accesses,
            b.accesses
        );
    }

    #[test]
    fn unconstrained_query_returns_everything() {
        let (joint, sep) = build();
        let q = BoxQuery { x: None, y: None };
        assert_eq!(joint.query(&q).ids.len(), 100);
        assert_eq!(sep.query(&q).ids.len(), 100);
    }
}

//! Spatial constraint relations (§4.2 of the paper).
//!
//! A *spatial constraint relation* is a relation whose only non-spatial
//! attribute is the feature ID; the spatial extent is kept per feature. An
//! R\*-tree over feature bounding boxes provides the filter step for the
//! whole-feature operators.

use crate::feature::{Feature, Geometry};
use cqa_index::{RStarParams, RStarTree, Rect};
use cqa_num::Rat;

/// A collection of identified spatial features with a bounding-box index.
pub struct SpatialRelation {
    features: Vec<Feature>,
    index: RStarTree<2, u64>,
}

impl SpatialRelation {
    /// An empty relation.
    pub fn new() -> SpatialRelation {
        SpatialRelation {
            features: Vec::new(),
            index: RStarTree::new(RStarParams::fitting_page(2)),
        }
    }

    /// Builds a relation from features.
    pub fn from_features(features: impl IntoIterator<Item = Feature>) -> SpatialRelation {
        let mut rel = SpatialRelation::new();
        for f in features {
            rel.insert(f);
        }
        rel
    }

    /// Adds a feature.
    pub fn insert(&mut self, feature: Feature) {
        let (lo, hi) = feature.geom.bbox_f64(&Rat::zero());
        let id = self.features.len() as u64;
        self.features.push(feature);
        self.index.insert(Rect::new(lo, hi), id);
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the relation has no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The features in insertion order.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// A feature by internal index.
    pub fn get(&self, idx: usize) -> &Feature {
        &self.features[idx]
    }

    /// Looks a feature up by its id string.
    pub fn by_id(&self, id: &str) -> Option<&Feature> {
        self.features.iter().find(|f| f.id == id)
    }

    /// Internal indexes of features whose bounding box intersects `rect`
    /// (filter step), plus the node accesses spent.
    pub fn candidates(&self, rect: &Rect<2>) -> (Vec<usize>, u64) {
        let (ids, acc) = self.index.search(rect);
        (ids.into_iter().map(|i| i as usize).collect(), acc)
    }

    /// The geometries, for direct vector-model evaluation (§6).
    pub fn geometries(&self) -> impl Iterator<Item = (&str, &Geometry)> + '_ {
        self.features.iter().map(|f| (f.id.as_str(), &f.geom))
    }
}

impl Default for SpatialRelation {
    fn default() -> Self {
        SpatialRelation::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    fn pt_feature(id: &str, x: i64, y: i64) -> Feature {
        Feature::new(id, Geometry::Point(Point::from_ints(x, y)))
    }

    #[test]
    fn insert_lookup_candidates() {
        let rel = SpatialRelation::from_features([
            pt_feature("a", 0, 0),
            pt_feature("b", 10, 10),
            pt_feature("c", 20, 20),
        ]);
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.by_id("b").unwrap().id, "b");
        assert!(rel.by_id("zz").is_none());
        let (cands, acc) = rel.candidates(&Rect::new([-1.0, -1.0], [11.0, 11.0]));
        assert_eq!(cands.len(), 2);
        assert!(acc >= 1);
    }
}

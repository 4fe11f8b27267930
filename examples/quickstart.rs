//! Quickstart: build a heterogeneous constraint database, query it through
//! both the Rust API and the ASCII script language.
//!
//! Run with: `cargo run -p cqa --example quickstart`

use cqa::core::plan::{CmpOp, Plan, Selection};
use cqa::core::{exec, AttrDef, Catalog, ExecOptions, ExecStats, HRelation, Schema, Value};
use cqa::lang::ScriptRunner;

fn main() {
    // --- 1. A heterogeneous schema: the C/R flag per attribute. ---------
    // `city` is relational (narrow nulls); `low`/`high` are constraint
    // attributes: each tuple stores a *range* of temperatures, i.e.
    // infinitely many points, finitely represented.
    let schema = Schema::new(vec![
        AttrDef::str_rel("city"),
        AttrDef::rat_con("temp"),
    ])
    .unwrap();

    let mut forecast = HRelation::new(schema);
    forecast
        .insert_with(|b| b.set("city", "Storrs").range("temp", -5, 8))
        .unwrap();
    forecast
        .insert_with(|b| b.set("city", "Hartford").range("temp", -2, 11))
        .unwrap();
    forecast
        .insert_with(|b| b.set("city", "Mystic").range("temp", 3, 14))
        .unwrap();

    println!("The Forecast relation (finite representation of infinite point sets):");
    println!("{}", forecast);

    // --- 2. Query through the algebra API. -------------------------------
    let mut catalog = Catalog::new();
    catalog.register("Forecast", forecast);

    // Which cities can reach exactly 12 degrees? Conjoining `temp = 12`
    // with each tuple's range keeps only satisfiable combinations.
    let plan = Plan::scan("Forecast")
        .select(Selection::all().cmp_int("temp", CmpOp::Eq, 12))
        .project(&["city"]);
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    let answer = exec::execute(&plan, &catalog, &opts, &stats).unwrap();
    println!("Cities whose range admits 12°:");
    println!("{}", answer);
    assert!(answer.contains_point(&[Value::str("Mystic")]).unwrap());

    // --- 3. The same database through the §3.3 ASCII script syntax. -----
    let mut runner = ScriptRunner::new(catalog);
    let result = runner
        .run(
            "Freezing = select temp <= 0 from Forecast\n\
             Names = project Freezing on city\n",
        )
        .unwrap();
    println!("Cities whose range admits freezing temperatures (via script):");
    println!("{}", result);
    assert_eq!(result.len(), 2); // Storrs and Hartford

    // Intermediate script steps are regular catalog relations.
    let freezing = runner.catalog().get("Freezing").unwrap();
    println!(
        "The intermediate step kept its constraint form: {} tuple(s), e.g.\n  {}",
        freezing.len(),
        freezing.tuples()[0].display(freezing.schema())
    );
}

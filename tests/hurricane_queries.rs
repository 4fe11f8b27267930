//! The Hurricane case study (§3.3) as an executable specification: loads
//! the Figure 2 instance shipped in `examples/data/hurricane.cdb` and
//! checks the five queries' answers, including the exact constraint
//! semantics of the outputs.

use cqa::core::{Catalog, HRelation, Value};
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::ScriptRunner;
use cqa::num::Rat;

const DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data/hurricane.cdb");

fn runner() -> ScriptRunner {
    let source = std::fs::read_to_string(DATA).expect("hurricane.cdb present");
    let mut catalog = Catalog::new();
    parse_cdb(&source).expect("valid .cdb file").load_into(&mut catalog);
    ScriptRunner::new(catalog)
}

fn names(rel: &HRelation, col: usize) -> Vec<String> {
    let mut out: Vec<String> = rel
        .tuples()
        .iter()
        .filter_map(|t| t.value(col).and_then(|v| v.as_str().map(str::to_string)))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn the_instance_loads_with_expected_shape() {
    let r = runner();
    let land = r.catalog().get("Land").unwrap();
    assert_eq!(land.len(), 3);
    let owners = r.catalog().get("Landownership").unwrap();
    assert_eq!(owners.len(), 5);
    let hurricane = r.catalog().get("Hurricane").unwrap();
    assert_eq!(hurricane.len(), 3, "one constraint tuple per path segment");
    // The storm is at (2, 2) at t = 2 …
    assert!(hurricane
        .contains_point(&[Value::int(2), Value::int(2), Value::int(2)])
        .unwrap());
    // … and nowhere else at that time.
    assert!(!hurricane
        .contains_point(&[Value::int(2), Value::int(3), Value::int(2)])
        .unwrap());
}

#[test]
fn query1_owners_of_land_a() {
    let mut r = runner();
    let out = r
        .run(
            "R0 = select landId = \"A\" from Landownership\n\
             R1 = project R0 on name, t\n",
        )
        .unwrap();
    assert_eq!(names(&out, 0), vec!["Ann", "Bob"]);
    // Ann's ownership interval is [0, 5]; Bob's is [5, 12].
    assert!(out.contains_point(&[Value::str("Ann"), Value::int(3)]).unwrap());
    assert!(!out.contains_point(&[Value::str("Ann"), Value::int(6)]).unwrap());
    assert!(out.contains_point(&[Value::str("Bob"), Value::int(6)]).unwrap());
    assert!(out.contains_point(&[Value::str("Bob"), Value::int(5)]).unwrap());
    assert!(!out.contains_point(&[Value::str("Bob"), Value::int(13)]).unwrap());
}

#[test]
fn query2_parcels_the_hurricane_passed() {
    let mut r = runner();
    let out = r
        .run(
            "R0 = join Hurricane and Land\n\
             R1 = project R0 on landId\n",
        )
        .unwrap();
    assert_eq!(names(&out, 0), vec!["A", "B", "C"], "the path crosses all three parcels");
}

/// Q2's join on the Figure 2 instance pins the multi-variable filter: a
/// segment `t ∈ [a, b]; x = t; y = 2` bounds `x` only by propagation
/// through `x = t`, which rejects 4 of the 9 pairs (the parcels east or
/// west of each segment). The filter must not change the answer.
#[test]
fn query2_filter_rejects_parcels_off_each_segment() {
    use cqa::core::{ExecCounter, ExecOptions};
    let q2 = "R0 = join Hurricane and Land\n";
    let mut filtered = runner();
    let with = filtered.run(q2).unwrap();
    let stats = filtered.exec_stats();
    assert_eq!(stats.get(ExecCounter::FilterChecked), 9);
    assert_eq!(stats.get(ExecCounter::FilterRejected), 4);

    let mut exact = runner();
    exact.set_exec_options(ExecOptions { bbox_filter: false, ..ExecOptions::default() });
    let without = exact.run(q2).unwrap();
    assert_eq!(exact.exec_stats().get(ExecCounter::FilterChecked), 0);
    assert_eq!(with, without);
}

#[test]
fn query3_owners_hit_between_4_and_9() {
    let mut r = runner();
    let out = r
        .run(
            "R0 = join Landownership and Land\n\
             R1 = select t >= 4, t <= 9 from Hurricane\n\
             R2 = join R0 and R1\n\
             R3 = project R2 on name\n",
        )
        .unwrap();
    // In [4, 9] the storm is in A for t ∈ [4] (x = t ≤ 4) — owned by Ann
    // until t = 5 — and in B for t ∈ [6, 9] — owned by Carl. Bob takes A
    // at t = 5 but the storm has already left A (x = t > 4). Precisely at
    // t = 4 the storm sits on A's boundary while Ann owns it.
    assert_eq!(names(&out, 0), vec!["Ann", "Carl"]);
}

#[test]
fn query4_hit_parcels_ann_never_owned() {
    let mut r = runner();
    let out = r
        .run(
            "R0 = join Hurricane and Land\n\
             R1 = project R0 on landId\n\
             R2 = select name = \"Ann\" from Landownership\n\
             R3 = project R2 on landId\n\
             R4 = diff R1 and R3\n",
        )
        .unwrap();
    assert_eq!(names(&out, 0), vec!["B", "C"]);
}

#[test]
fn query5_when_parcel_b_was_hit() {
    let mut r = runner();
    let out = r
        .run(
            "R0 = select landId = \"B\" from Land\n\
             R1 = join Hurricane and R0\n\
             R2 = project R1 on t\n",
        )
        .unwrap();
    // B spans x ∈ [6, 10] and the storm has x = t: hit during t ∈ [6, 10].
    assert!(out.contains_point(&[Value::int(6)]).unwrap());
    assert!(out.contains_point(&[Value::int(10)]).unwrap());
    assert!(out.contains_point(&[Value::rat(Rat::from_pair(17, 2))]).unwrap());
    assert!(!out.contains_point(&[Value::int(5)]).unwrap());
    assert!(!out.contains_point(&[Value::int(11)]).unwrap());
}

#[test]
fn queries_are_independent_of_optimizer() {
    for script in [
        "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from Hurricane\nR2 = join R0 and R1\nR3 = project R2 on name\n",
        "R0 = join Hurricane and Land\nR1 = project R0 on landId\n",
    ] {
        let mut with = runner();
        let mut without = runner().without_optimizer();
        assert_eq!(
            with.run(script).unwrap(),
            without.run(script).unwrap(),
            "script {:?}",
            script
        );
    }
}

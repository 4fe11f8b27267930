//! Determinism of the structured span trace.
//!
//! Span sites sit on the serial spine of evaluation (plan nodes, the
//! projection's Fourier–Motzkin loop, index probes); parallel inner loops
//! contribute only order-independent counters into the enclosing span. The
//! recorded span sequence — kinds, labels, sequence numbers, payload
//! counters, everything except wall time — must therefore be bit-identical
//! across thread counts.
//!
//! This file holds a single test on purpose: the span ring is global to
//! the process, so it must not race with other tests in the same binary.

use cqa::core::plan::Plan;
use cqa::core::{exec, AttrDef, Catalog, ExecOptions, ExecStats, HRelation, Schema};
use cqa::num::prng::Pcg32;

fn interval_relation(id_attr: &str, n: usize, seed: u64) -> HRelation {
    let schema = Schema::new(vec![
        AttrDef::str_rel("g"),
        AttrDef::str_rel(id_attr),
        AttrDef::rat_con("x"),
    ])
    .unwrap();
    let mut rel = HRelation::new(schema);
    let mut rng = Pcg32::seed_from_u64(seed);
    for i in 0..n {
        let lo = rng.gen_range_i64(0, 500);
        let w = rng.gen_range_i64(1, 60);
        let g = rng.gen_range_i64(0, 40);
        rel.insert_with(|b| {
            b.set("g", format!("g{}", g).as_str())
                .set(id_attr, format!("{}{}", id_attr, i).as_str())
                .range("x", lo, lo + w)
        })
        .unwrap();
    }
    rel
}

#[test]
fn span_sequence_identical_across_thread_counts() {
    let mut catalog = Catalog::new();
    catalog.register("L", interval_relation("a", 500, 2003));
    catalog.register("R", interval_relation("b", 500, 2004));
    catalog.build_index("L", &["x"]).unwrap();
    // Join (parallel inner work) then project (serial FM spans), plus an
    // index-assisted select to get an index.probe span into the sequence.
    let join_plan = Plan::scan("L").join(Plan::scan("R")).project(&["g", "x"]);
    let select_plan = Plan::scan("L").select(
        cqa::core::plan::Selection::all()
            .cmp_int("x", cqa::core::plan::CmpOp::Ge, 100)
            .cmp_int("x", cqa::core::plan::CmpOp::Le, 200),
    );

    cqa::obs::set_spans_enabled(true);
    let mut identities: Vec<String> = Vec::new();
    let mut results = Vec::new();
    for threads in [1usize, 2, 8] {
        cqa::obs::reset_spans();
        let opts = ExecOptions::with_threads(threads);
        let (r1, t1) =
            exec::execute_traced(&join_plan, &catalog, &opts, &ExecStats::new()).unwrap();
        let (r2, t2) =
            exec::execute_traced(&select_plan, &catalog, &opts, &ExecStats::new()).unwrap();
        let spans = cqa::obs::drain_spans();
        assert!(spans.spans.iter().any(|s| s.kind == "fm.eliminate"), "projection spans");
        assert!(spans.spans.iter().any(|s| s.kind == "exec.node"), "plan-node spans");
        assert!(spans.spans.iter().any(|s| s.kind == "index.probe"), "index spans");
        identities.push(spans.identity());
        results.push((r1, t1.identity(), r2, t2.identity()));
    }
    cqa::obs::set_spans_enabled(false);
    cqa::obs::reset_spans();

    for (i, threads) in [2usize, 8].iter().enumerate() {
        assert_eq!(identities[0], identities[i + 1], "span ring diverged at threads={}", threads);
        assert_eq!(results[0], results[i + 1], "results diverged at threads={}", threads);
    }
    // Sanity: the identity really is non-trivial (many spans recorded).
    assert!(identities[0].lines().count() > 100, "expected a rich span sequence");
}

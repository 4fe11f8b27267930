//! Determinism contract of the parallel evaluator, and soundness of the
//! cheap bounding-box filter.
//!
//! The chunked executor promises *bit-identical* output for every thread
//! count: it partitions the outer tuple loop into contiguous chunks and
//! concatenates per-chunk outputs in partition order, so the result is the
//! serial loop's, merely computed by more workers. These tests pin that
//! contract on the Hurricane case-study queries (§3.3) and on seeded random
//! interval workloads.
//!
//! The filter's contract is different per operator: for `select` and `join`
//! it may only skip work the exact path would discard anyway (output
//! byte-identical with the filter off); for `difference` it prunes
//! provably-redundant subtrahends (semantics preserved, syntax may
//! simplify), so thread-count comparisons hold the filter setting fixed.

use cqa::constraints::{Atom, LinExpr, Var};
use cqa::core::ops::{difference, join, select};
use cqa::core::plan::{CmpOp, Selection};
use cqa::core::{AttrDef, Catalog, ExecOptions, ExecStats, HRelation, Schema};
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::ScriptRunner;
use cqa::num::prng::Pcg32;
use cqa::num::Rat;

const DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data/hurricane.cdb");

const HURRICANE_QUERIES: [&str; 5] = [
    // Query 1: owners of parcel A over time.
    "R0 = select landId = \"A\" from Landownership\nR1 = project R0 on name, t\n",
    // Query 2: parcels the hurricane passed.
    "R0 = join Hurricane and Land\nR1 = project R0 on landId\n",
    // Query 3: owners hit between t = 4 and t = 9.
    "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from Hurricane\nR2 = join R0 and R1\nR3 = project R2 on name\n",
    // Query 4: hit parcels Ann never owned.
    "R0 = join Hurricane and Land\nR1 = project R0 on landId\nR2 = select name = \"Ann\" from Landownership\nR3 = project R2 on landId\nR4 = diff R1 and R3\n",
    // Query 5: when parcel B was hit.
    "R0 = select landId = \"B\" from Land\nR1 = join Hurricane and R0\nR2 = project R1 on t\n",
];

fn runner_with(opts: ExecOptions) -> ScriptRunner {
    let source = std::fs::read_to_string(DATA).expect("hurricane.cdb present");
    let mut catalog = Catalog::new();
    parse_cdb(&source).expect("valid .cdb file").load_into(&mut catalog);
    let mut r = ScriptRunner::new(catalog);
    r.set_exec_options(opts);
    r
}

#[test]
fn hurricane_queries_identical_across_thread_counts() {
    for (i, script) in HURRICANE_QUERIES.iter().enumerate() {
        for filter in [false, true] {
            let baseline = runner_with(ExecOptions { threads: 1, bbox_filter: filter, ..ExecOptions::default() })
                .run(script)
                .unwrap();
            for threads in [2usize, 4, 7] {
                let out = runner_with(ExecOptions { threads, bbox_filter: filter, ..ExecOptions::default() })
                    .run(script)
                    .unwrap();
                assert_eq!(
                    baseline, out,
                    "query {} diverged at threads={} filter={}",
                    i + 1,
                    threads,
                    filter
                );
            }
        }
    }
}

#[test]
fn hurricane_filter_is_invisible_without_difference() {
    // Queries 1, 2, 3 and 5 use only select/join/project, where the filter
    // must be byte-invisible. (Query 4 uses diff, whose pruning may
    // simplify the output's syntax — checked semantically elsewhere.)
    for (i, script) in HURRICANE_QUERIES.iter().enumerate() {
        if i == 3 {
            continue;
        }
        let off = runner_with(ExecOptions { threads: 1, bbox_filter: false, ..ExecOptions::default() }).run(script).unwrap();
        let on = runner_with(ExecOptions { threads: 1, bbox_filter: true, ..ExecOptions::default() }).run(script).unwrap();
        assert_eq!(off, on, "query {} changed under the bbox filter", i + 1);
    }
}

#[test]
fn hurricane_query4_filter_preserves_semantics() {
    let script = HURRICANE_QUERIES[3];
    let off = runner_with(ExecOptions { threads: 1, bbox_filter: false, ..ExecOptions::default() }).run(script).unwrap();
    let on = runner_with(ExecOptions { threads: 1, bbox_filter: true, ..ExecOptions::default() }).run(script).unwrap();
    // Same point sets, whatever the syntax: B and C hit, A not.
    for id in ["A", "B", "C"] {
        assert_eq!(
            off.contains_point(&[cqa::core::Value::str(id)]).unwrap(),
            on.contains_point(&[cqa::core::Value::str(id)]).unwrap(),
            "parcel {}",
            id
        );
    }
}

/// A relation `(id: string relational, x: rational constraint)` of seeded
/// random integer intervals — the same workload family as the
/// `parallel_speedup` bench.
fn interval_relation(id_attr: &str, n: usize, seed: u64) -> HRelation {
    let schema =
        Schema::new(vec![AttrDef::str_rel(id_attr), AttrDef::rat_con("x")]).unwrap();
    let mut rel = HRelation::new(schema);
    let mut rng = Pcg32::seed_from_u64(seed);
    for i in 0..n {
        let lo = rng.gen_range_i64(0, 500);
        let w = rng.gen_range_i64(1, 60);
        rel.insert_with(|b| {
            b.set(id_attr, format!("{}{}", id_attr, i).as_str()).range("x", lo, lo + w)
        })
        .unwrap();
    }
    rel
}

#[test]
fn random_joins_identical_across_threads_and_filter() {
    for seed in [1u64, 99, 0xDEAD] {
        let left = interval_relation("a", 60, seed);
        let right = interval_relation("b", 60, seed ^ 0x5555);
        let base = join(&left, &right, &ExecOptions::serial(), &ExecStats::new()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            for filter in [false, true] {
                let opts = ExecOptions { threads, bbox_filter: filter, ..ExecOptions::default() };
                let out = join(&left, &right, &opts, &ExecStats::new()).unwrap();
                assert_eq!(base, out, "seed={} threads={} filter={}", seed, threads, filter);
            }
        }
    }
}

#[test]
fn random_selects_identical_across_threads_and_filter() {
    let rel = interval_relation("a", 120, 7);
    let sel = Selection::all().cmp_int("x", CmpOp::Ge, 100).cmp_int("x", CmpOp::Le, 220);
    let base = select(&rel, &sel, &ExecOptions::serial(), &ExecStats::new()).unwrap();
    for threads in [1usize, 2, 4, 8] {
        for filter in [false, true] {
            let opts = ExecOptions { threads, bbox_filter: filter, ..ExecOptions::default() };
            let out = select(&rel, &sel, &opts, &ExecStats::new()).unwrap();
            assert_eq!(base, out, "threads={} filter={}", threads, filter);
        }
    }
}

#[test]
fn random_differences_identical_across_threads() {
    // Same ids on both sides so subtrahends actually match; the filter is
    // held fixed per comparison (it may change the output's syntax).
    let left = interval_relation("a", 50, 11);
    let right = {
        let schema =
            Schema::new(vec![AttrDef::str_rel("a"), AttrDef::rat_con("x")]).unwrap();
        let mut rel = HRelation::new(schema);
        let mut rng = Pcg32::seed_from_u64(12);
        for i in 0..50 {
            let lo = rng.gen_range_i64(0, 500);
            let w = rng.gen_range_i64(1, 60);
            rel.insert_with(|b| {
                b.set("a", format!("a{}", i).as_str()).range("x", lo, lo + w)
            })
            .unwrap();
        }
        rel
    };
    for filter in [false, true] {
        let base = difference(
            &left,
            &right,
            &ExecOptions { threads: 1, bbox_filter: filter, ..ExecOptions::default() },
            &ExecStats::new(),
        )
        .unwrap();
        for threads in [2usize, 4, 8] {
            let opts = ExecOptions { threads, bbox_filter: filter, ..ExecOptions::default() };
            let out = difference(&left, &right, &opts, &ExecStats::new()).unwrap();
            assert_eq!(base, out, "threads={} filter={}", threads, filter);
        }
    }
}

/// A 500×500 join keyed by a shared relational group attribute (so the
/// hash pre-bucketing partitions it), projected afterwards so Fourier–
/// Motzkin runs too. The traced evaluator must produce the same relation
/// AND the same trace identity (labels, row counts, every counter —
/// everything but wall time) for every thread count.
#[test]
fn trace_identity_invariant_across_thread_counts() {
    let make = |id_attr: &str, seed: u64| {
        let schema = Schema::new(vec![
            AttrDef::str_rel("g"),
            AttrDef::str_rel(id_attr),
            AttrDef::rat_con("x"),
        ])
        .unwrap();
        let mut rel = HRelation::new(schema);
        let mut rng = Pcg32::seed_from_u64(seed);
        for i in 0..500 {
            let lo = rng.gen_range_i64(0, 500);
            let w = rng.gen_range_i64(1, 60);
            let g = rng.gen_range_i64(0, 50);
            rel.insert_with(|b| {
                b.set("g", format!("g{}", g).as_str())
                    .set(id_attr, format!("{}{}", id_attr, i).as_str())
                    .range("x", lo, lo + w)
            })
            .unwrap();
        }
        rel
    };
    let mut catalog = Catalog::new();
    catalog.register("L", make("a", 41));
    catalog.register("R", make("b", 42));
    let plan = cqa::core::plan::Plan::scan("L")
        .join(cqa::core::plan::Plan::scan("R"))
        .project(&["g", "x"]);

    let opts1 = ExecOptions::with_threads(1);
    let (base_rel, base_trace) =
        cqa::core::exec::execute_traced(&plan, &catalog, &opts1, &ExecStats::new()).unwrap();
    // Bucketing really kicked in: far fewer pairs than the full 250 000.
    assert!(base_trace.children[0].pairs_enumerated > 0);
    assert!(
        base_trace.children[0].pairs_enumerated < 250_000 / 10,
        "hash pre-bucketing should cut pair enumeration well below the cross product, got {}",
        base_trace.children[0].pairs_enumerated
    );
    let base_id = base_trace.identity();
    for threads in [2usize, 8] {
        let opts = ExecOptions::with_threads(threads);
        let (rel, trace) =
            cqa::core::exec::execute_traced(&plan, &catalog, &opts, &ExecStats::new())
                .unwrap();
        assert_eq!(base_rel, rel, "relation diverged at threads={}", threads);
        assert_eq!(base_id, trace.identity(), "trace diverged at threads={}", threads);
    }
}

/// Seeded random single-variable conjunctions for the filter-soundness
/// check below.
fn random_conjunction(rng: &mut Pcg32, arity: usize) -> cqa::constraints::Conjunction {
    let mut atoms = Vec::new();
    for d in 0..arity {
        let v = Var(d as u32);
        let lo = rng.gen_range_i64(-50, 50);
        let w = rng.gen_range_i64(0, 30);
        // Mix strict/non-strict and rational endpoints.
        let lo_expr = LinExpr::from_terms(
            [(v, Rat::from_int(rng.gen_range_i64(1, 4)))],
            Rat::from_pair(-lo, rng.gen_range_i64(1, 3)),
        );
        atoms.push(if rng.gen_bool(0.5) {
            Atom::ge(lo_expr.clone(), LinExpr::zero())
        } else {
            Atom::gt(lo_expr.clone(), LinExpr::zero())
        });
        let hi_expr =
            LinExpr::from_terms([(v, Rat::one())], Rat::from_int(-(lo + w)));
        atoms.push(if rng.gen_bool(0.5) {
            Atom::le(hi_expr, LinExpr::zero())
        } else {
            Atom::lt(hi_expr, LinExpr::zero())
        });
    }
    cqa::constraints::Conjunction::from_atoms(atoms)
}

/// The filter's soundness contract: whenever `quick_disjoint` fires, the
/// exact conjunction must really be unsatisfiable. (The converse need not
/// hold — the box is conservative.)
#[test]
fn quick_disjoint_implies_exact_unsat_seeded() {
    let mut rng = Pcg32::seed_from_u64(2024);
    let arity = 2;
    let mut fired = 0;
    for _ in 0..500 {
        let a = random_conjunction(&mut rng, arity);
        let b = random_conjunction(&mut rng, arity);
        if a.quick_disjoint(&b, arity) {
            fired += 1;
            assert!(!a.and(&b).is_satisfiable(), "filter rejected a satisfiable pair:\n{:?}\n{:?}", a, b);
        }
    }
    assert!(fired > 0, "the seed should produce some disjoint pairs");
}

//! Observability-layer harness: overhead gate, golden metrics snapshot,
//! and the §5-style index experiment, with per-operator breakdowns.
//!
//! Three jobs in one binary:
//!
//! * **Overhead gate** — the instrumented evaluator with metrics *enabled*
//!   must stay within 3% of the same evaluator with metrics *disabled* on
//!   the seeded bench join (disabled short-circuits to the pre-existing
//!   per-run atomics, i.e. the seed's cost). Interleaved on/off pairs —
//!   at least 21, and at least 3 s per side — gate the median of the
//!   per-pair ratios; their interquartile range is printed beside it.
//! * **Golden snapshot** (`--golden`) — runs a fixed seeded workload
//!   (algebra + indexed selection + faulty buffer pool) against a reset
//!   registry and prints `Snapshot::canonical()`: counter/gauge values and
//!   histogram counts only, no timings, so the output is bit-stable and
//!   diffable in CI.
//! * **§5 index experiment** — the same box selections answered through a
//!   joint 2-D `[x, y]` index vs. two separate 1-D indexes, comparing
//!   R\*-tree node accesses and refinement candidates (the paper's
//!   multi-attribute-indexing lesson).
//! * **Prometheus golden** (`--golden-prom`) — the same fixed workload
//!   rendered through the canonical Prometheus exporter (timing series
//!   skipped), for the byte-exact exposition-format golden in verify.sh.
//! * **Flight smoke** (`--flight-smoke`) — installs the flight recorder
//!   into a temp dir, aborts a traced join with a zero governor deadline
//!   and then with an injected panic, and asserts both dumps parse and
//!   carry the aborted query's span tail.
//!
//! Usage: `obs_bench [--quick] [--gate] [--golden] [--golden-prom]
//! [--flight-smoke] [--out PATH]`

use cqa::core::plan::{CmpOp, Plan, Selection};
use cqa::core::{exec, AttrDef, Catalog, ExecCounter, ExecOptions, ExecStats, HRelation, Schema};
use cqa::num::prng::Pcg32;
use cqa::obs::json::Json;
use cqa::storage::fault::FaultKind;
use cqa::storage::{BufferPool, FaultConfig, FaultyDisk, MemDisk};
use std::time::Instant;

const SEED: u64 = 0x0B5E_7B5E;
const OVERHEAD_LIMIT: f64 = 1.03;
/// The overhead gate measures at least this many on/off pairs...
const MIN_PAIRS: usize = 21;
/// ...and until each side has run for at least this long.
const MIN_SIDE_MS: f64 = 3000.0;

fn main() {
    let mut quick = false;
    let mut golden = false;
    let mut golden_prom = false;
    let mut flight_smoke = false;
    let mut gate = false;
    let mut out_path = String::from("BENCH_obs.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--golden" => golden = true,
            "--golden-prom" => golden_prom = true,
            "--flight-smoke" => flight_smoke = true,
            "--gate" => gate = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: obs_bench [--quick] [--gate] [--golden] [--golden-prom] [--flight-smoke] [--out PATH]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {:?}", other);
                std::process::exit(2);
            }
        }
    }

    if golden || golden_prom {
        run_golden_workload();
        let snap = cqa::obs::snapshot();
        if golden {
            print!("{}", snap.canonical());
        } else {
            print!("{}", cqa::obs::prom::render_canonical(&snap));
        }
        return;
    }
    if flight_smoke {
        run_flight_smoke();
        return;
    }

    let n = if quick { 150 } else { 400 };
    println!("# obs_bench ({}): seed {:#x}", if quick { "quick" } else { "full" }, SEED);

    let Overhead { ratio, iqr, pairs, med_on, med_off } = overhead_gate(n);
    println!(
        "OVERHEAD_RATIO {:.4} IQR {:.4} (median of {} on/off pair ratios; metrics on {:.2} ms vs off {:.2} ms)",
        ratio, iqr, pairs, med_on, med_off
    );
    let pass = ratio <= OVERHEAD_LIMIT;
    println!("OVERHEAD_GATE {}", if pass { "PASS" } else { "FAIL" });
    if gate && !pass {
        eprintln!("metrics-enabled overhead {:.2}% exceeds the 3% budget", (ratio - 1.0) * 100.0);
        std::process::exit(1);
    }

    let index_expt = index_experiment(if quick { 500 } else { 2000 });
    let breakdown = operator_breakdown(n);

    let metrics = vec![
        ("mode".to_string(), Json::str(if quick { "quick" } else { "full" })),
        ("seed".to_string(), Json::from_u64(SEED)),
        ("overhead".to_string(), Json::Obj(vec![
            ("metrics_on_ms".to_string(), Json::Num(med_on)),
            ("metrics_off_ms".to_string(), Json::Num(med_off)),
            ("ratio".to_string(), Json::Num((ratio * 1e4).round() / 1e4)),
            ("ratio_iqr".to_string(), Json::Num((iqr * 1e4).round() / 1e4)),
            ("pairs".to_string(), Json::from_u64(pairs as u64)),
            ("limit".to_string(), Json::Num(OVERHEAD_LIMIT)),
            ("pass".to_string(), Json::Bool(pass)),
        ])),
        ("index_experiment".to_string(), index_expt),
        ("explain_analyze".to_string(), breakdown),
    ];
    if let Err(e) = cqa_bench::report::write(&out_path, "obs_bench", metrics) {
        eprintln!("cannot write {}: {}", out_path, e);
        std::process::exit(1);
    }
    println!("wrote {}", out_path);
}

/// Seeded 1-D interval relation, the bench-join workload family.
fn interval_relation(id_attr: &str, n: usize, seed: u64) -> HRelation {
    let schema =
        Schema::new(vec![AttrDef::str_rel(id_attr), AttrDef::rat_con("x")]).expect("valid schema");
    let mut rel = HRelation::new(schema);
    let mut rng = Pcg32::seed_from_u64(seed);
    for i in 0..n {
        let lo = rng.gen_range_i64(0, 3000);
        let w = rng.gen_range_i64(1, 100);
        rel.insert_with(|b| {
            b.set(id_attr, format!("{}{}", id_attr, i).as_str()).range("x", lo, lo + w)
        })
        .expect("valid tuple");
    }
    rel
}

/// Seeded 2-D box relation for the index experiment and golden workload.
fn box_relation(n: usize, seed: u64) -> HRelation {
    let schema = Schema::new(vec![
        AttrDef::str_rel("id"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .expect("valid schema");
    let mut rel = HRelation::new(schema);
    let mut rng = Pcg32::seed_from_u64(seed);
    for i in 0..n {
        let (lx, ly) = (rng.gen_range_i64(0, 1000), rng.gen_range_i64(0, 1000));
        let (w, h) = (rng.gen_range_i64(1, 20), rng.gen_range_i64(1, 20));
        rel.insert_with(|b| {
            b.set("id", format!("t{}", i).as_str())
                .range("x", lx, lx + w)
                .range("y", ly, ly + h)
        })
        .expect("valid tuple");
    }
    rel
}

/// The overhead gate's measurement: the median and interquartile range
/// of the per-pair on/off ratios, the pair count, and each side's median.
struct Overhead {
    ratio: f64,
    iqr: f64,
    pairs: usize,
    med_on: f64,
    med_off: f64,
}

/// Interleaved on/off pairs of the seeded join with the full telemetry
/// path on vs. off. "On" is the complete enabled configuration — metrics
/// registry and JSONL event log — because that is what a production
/// scrape target actually runs; "off" is the single master switch users
/// get, which short-circuits all of it. A pair's two runs are adjacent,
/// so machine drift cancels within its ratio; the gate reads the median
/// ratio.
fn overhead_gate(n: usize) -> Overhead {
    let mut cat = Catalog::new();
    cat.register("L", interval_relation("aid", n, SEED));
    cat.register("R", interval_relation("bid", n, SEED ^ 0x9E37_79B9));
    let plan = Plan::scan("L").join(Plan::scan("R"));
    let opts = ExecOptions::default();

    let log_path = std::env::temp_dir().join(format!("cqa-obs-bench-{}.jsonl", std::process::id()));
    cqa::obs::eventlog::install(
        &log_path,
        cqa::obs::eventlog::DEFAULT_MAX_BYTES,
        cqa::obs::eventlog::DEFAULT_MAX_FILES,
    )
    .expect("event log installs");

    let run_once = |enabled: bool| -> f64 {
        cqa::obs::set_metrics_enabled(enabled);
        let stats = ExecStats::new();
        let t = Instant::now();
        let out = exec::execute(&plan, &cat, &opts, &stats).expect("join succeeds");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(out.len());
        ms
    };
    // Warm up both paths once, then measure pairs, alternating which side
    // runs first so neither always follows the other.
    run_once(true);
    run_once(false);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    while on.len() < MIN_PAIRS
        || on.iter().sum::<f64>() < MIN_SIDE_MS
        || off.iter().sum::<f64>() < MIN_SIDE_MS
    {
        if on.len() % 2 == 0 {
            on.push(run_once(true));
            off.push(run_once(false));
        } else {
            off.push(run_once(false));
            on.push(run_once(true));
        }
    }
    cqa::obs::set_metrics_enabled(true);
    cqa::obs::eventlog::uninstall();
    let _ = std::fs::remove_file(&log_path);
    let mut ratios: Vec<f64> = on.iter().zip(&off).map(|(a, b)| a / b).collect();
    let [q1, ratio, q3] = quartiles(&mut ratios);
    Overhead {
        ratio,
        iqr: q3 - q1,
        pairs: ratios.len(),
        med_on: quartiles(&mut on)[1],
        med_off: quartiles(&mut off)[1],
    }
}

/// The lower quartile, median, and upper quartile of `v` (nearest rank).
fn quartiles(v: &mut [f64]) -> [f64; 3] {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let at = |k: usize| v[(v.len() - 1) * k / 4];
    [at(1), at(2), at(3)]
}

/// §5-style experiment: the same bounded selections through a joint 2-D
/// index vs. two separate 1-D indexes, node accesses and refinement
/// candidates compared.
fn index_experiment(n: usize) -> Json {
    let rel = box_relation(n, SEED ^ 0x51);
    let mut joint = Catalog::new();
    joint.register("R", rel.clone());
    joint.build_index("R", &["x", "y"]).expect("joint index");
    let mut separate = Catalog::new();
    separate.register("R", rel.clone());
    separate.build_index("R", &["x"]).expect("x index");
    separate.build_index("R", &["y"]).expect("y index");

    let mut rng = Pcg32::seed_from_u64(SEED ^ 0x52);
    let mut queries = Vec::new();
    for _ in 0..20 {
        let (qx, qy) = (rng.gen_range_i64(0, 900), rng.gen_range_i64(0, 900));
        let (w, h) = (rng.gen_range_i64(20, 120), rng.gen_range_i64(20, 120));
        queries.push(
            Selection::all()
                .cmp_int("x", CmpOp::Ge, qx)
                .cmp_int("x", CmpOp::Le, qx + w)
                .cmp_int("y", CmpOp::Ge, qy)
                .cmp_int("y", CmpOp::Le, qy + h),
        );
    }

    let run = |cat: &Catalog| -> (u64, u64, usize) {
        let stats = ExecStats::new();
        let mut rows = 0usize;
        for sel in &queries {
            let plan = Plan::scan("R").select(sel.clone());
            let out = exec::execute(&plan, cat, &ExecOptions::default(), &stats)
                .expect("selection succeeds");
            rows += out.len();
        }
        (stats.get(ExecCounter::IndexAccesses), stats.get(ExecCounter::FilterChecked), rows)
    };
    let (joint_accesses, joint_candidates, joint_rows) = run(&joint);
    let (sep_accesses, sep_candidates, sep_rows) = run(&separate);
    assert_eq!(joint_rows, sep_rows, "index choice must not change results");

    println!(
        "index experiment: joint [x, y] {} node accesses / {} candidates; separate 1-D {} node accesses / {} candidates ({} queries, {} rows)",
        joint_accesses, joint_candidates, sep_accesses, sep_candidates, queries.len(), joint_rows
    );
    Json::Obj(vec![
        ("tuples".to_string(), Json::from_u64(n as u64)),
        ("queries".to_string(), Json::from_u64(queries.len() as u64)),
        ("result_rows".to_string(), Json::from_u64(joint_rows as u64)),
        ("joint_xy".to_string(), Json::Obj(vec![
            ("node_accesses".to_string(), Json::from_u64(joint_accesses)),
            ("refinement_candidates".to_string(), Json::from_u64(joint_candidates)),
        ])),
        ("separate_1d".to_string(), Json::Obj(vec![
            ("node_accesses".to_string(), Json::from_u64(sep_accesses)),
            ("refinement_candidates".to_string(), Json::from_u64(sep_candidates)),
        ])),
    ])
}

/// Per-operator breakdown: the bench join + projection, traced, as JSON.
fn operator_breakdown(n: usize) -> Json {
    let mut cat = Catalog::new();
    cat.register("L", interval_relation("aid", n, SEED));
    cat.register("R", interval_relation("bid", n, SEED ^ 0x9E37_79B9));
    let plan = Plan::scan("L").join(Plan::scan("R")).project(&["x"]);
    let (_, trace) =
        exec::execute_traced(&plan, &cat, &ExecOptions::default(), &ExecStats::new())
            .expect("traced join succeeds");
    trace.to_json()
}

/// The fixed golden workload: algebra (join, project, select, difference),
/// index-assisted selection, and a faulty buffer pool, against a freshly
/// reset registry. Both golden modes render only order- and
/// timing-independent values from the resulting registry state.
fn run_golden_workload() {
    cqa::obs::reset_metrics();
    cqa::obs::set_metrics_enabled(true);

    // Algebra with an index: counters are identical for every thread count
    // (the determinism contract), so the snapshot pins threads = 2 only to
    // prove the point.
    let mut cat = Catalog::new();
    cat.register("L", interval_relation("aid", 120, SEED));
    cat.register("R", interval_relation("bid", 120, SEED ^ 0x9E37_79B9));
    cat.register("B", box_relation(300, SEED ^ 0x51));
    cat.build_index("B", &["x", "y"]).expect("index");
    let opts = ExecOptions::with_threads(2);
    let run = |cat: &Catalog, plan: &Plan| {
        exec::execute(plan, cat, &opts, &ExecStats::new()).expect("golden query succeeds")
    };
    run(&cat, &Plan::scan("L").join(Plan::scan("R")).project(&["x"]));
    run(
        &cat,
        &Plan::scan("B").select(
            Selection::all()
                .cmp_int("x", CmpOp::Ge, 100)
                .cmp_int("x", CmpOp::Le, 400)
                .cmp_int("y", CmpOp::Ge, 100)
                .cmp_int("y", CmpOp::Le, 400),
        ),
    );
    run(&cat, &Plan::scan("L").minus(Plan::scan("L")));

    // Storage: seeded faulty disk under a tiny pool — hits, misses,
    // writebacks, retried I/O errors, and checksum rereads all fire
    // deterministically from the seed.
    let disk = FaultyDisk::new(MemDisk::new(), FaultConfig::only(13, FaultKind::IoError, 0.15));
    let mut pool = BufferPool::new(disk, 2);
    let mut pages = Vec::new();
    for _ in 0..6 {
        pages.push(pool.allocate().expect("allocate"));
    }
    for (i, &p) in pages.iter().enumerate() {
        pool.with_page_mut(p, |bytes| bytes[64] = i as u8).expect("write");
    }
    pool.flush().expect("flush");
    pool.clear().expect("clear");
    for &p in &pages {
        pool.with_page(p, |_| ()).expect("read");
    }
}

/// Flight-recorder smoke test: both trigger conditions must produce a
/// parseable dump carrying the aborted query's span tail and plan tree.
fn run_flight_smoke() {
    let dir = std::env::temp_dir().join(format!("cqa-flight-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cqa::obs::flight::install(&dir, 64).expect("flight recorder installs");
    cqa::obs::set_spans_enabled(true);
    cqa::obs::reset_spans();

    // Trigger 1: governor DeadlineExceeded. A zero timeout trips at the
    // join's first check, after the traced scan children have already
    // closed their spans — so the dump's tail holds the aborted query's
    // own spans.
    let mut cat = Catalog::new();
    cat.register("L", interval_relation("aid", 60, SEED));
    cat.register("R", interval_relation("bid", 60, SEED ^ 0x9E37_79B9));
    let plan = Plan::scan("L").join(Plan::scan("R"));
    let mut opts = ExecOptions::with_threads(2);
    opts.governor.timeout = Some(std::time::Duration::ZERO);
    let err = exec::execute_traced(&plan, &cat, &opts, &ExecStats::new())
        .expect_err("zero deadline must abort the join");
    assert_eq!(err.outcome(), "deadline_exceeded", "got {:?}", err);

    let dumps = cqa::obs::flight::list_dumps(&dir);
    assert_eq!(dumps.len(), 1, "governor abort writes exactly one dump");
    let doc = parse_dump(&dumps[0]);
    let reason = doc.get("reason").and_then(Json::as_str).expect("reason");
    assert!(reason.contains("deadline"), "reason {:?}", reason);
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(!spans.is_empty(), "dump carries the aborted query's span tail");
    assert!(
        spans.iter().any(|s| s
            .get("label")
            .and_then(Json::as_str)
            .is_some_and(|l| l.starts_with("Scan"))),
        "span tail holds the traced scan children"
    );
    let active = doc
        .get("context")
        .and_then(|c| c.get("active_query"))
        .and_then(Json::as_str)
        .expect("active_query context");
    assert!(active.contains("Join"), "plan tree {:?}", active);
    println!("flight smoke: governor abort -> {}", dumps[0].display());

    // Trigger 2: panic hook.
    cqa::obs::flight::install_panic_hook();
    let caught = std::panic::catch_unwind(|| panic!("injected flight-smoke panic"));
    assert!(caught.is_err());
    let dumps = cqa::obs::flight::list_dumps(&dir);
    assert_eq!(dumps.len(), 2, "panic writes a second dump");
    let doc = parse_dump(&dumps[1]);
    let reason = doc.get("reason").and_then(Json::as_str).expect("reason");
    assert!(reason.contains("injected flight-smoke panic"), "reason {:?}", reason);
    println!("flight smoke: panic hook    -> {}", dumps[1].display());

    cqa::obs::flight::uninstall();
    cqa::obs::set_spans_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
    println!("FLIGHT_SMOKE PASS");
}

/// Reads and parses one dump, asserting the schema envelope.
fn parse_dump(path: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(path).expect("dump readable");
    let doc = cqa::obs::json::parse(&text).expect("dump parses as obs JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_num), Some(1.0));
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("flight"));
    assert!(matches!(doc.get("metrics"), Some(Json::Obj(_))), "metrics snapshot present");
    doc
}

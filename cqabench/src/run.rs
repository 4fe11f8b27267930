//! The two kinds of run. The untraced closed loop yields the end-to-end
//! metrics; the traced pass yields the per-layer ones. Both set up the
//! same way and check every answer.

use crate::gen::Sizes;
use crate::layers::{self, TraceAcc};
use crate::stats::{median, peak_rss_mib, quantile, ratio};
use crate::workload::{Op, Probe, Session, Spec};
use cqa::core::ExecOptions;
use cqa::obs::metrics::MetricValue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One run's parameters.
pub struct Config {
    /// The workload's name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured closed loop, in seconds.
    pub seconds: f64,
    /// Executor threads, as `ExecOptions::with_threads` takes them.
    pub threads: usize,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for databases and replay files.
    pub work: PathBuf,
}

/// A reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// What a run reports.
pub struct Outcome {
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops that failed or whose answer the oracle rejected.
    pub failed: u64,
    /// The end-to-end or the per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result: sample counts, and figures that
    /// are not result metrics.
    pub notes: Vec<String>,
}

/// A set-up session, warmed up, with its oracles prepared.
struct Ready {
    spec: Spec,
    session: Session,
    setup_s: f64,
    attempted: u64,
    failed: u64,
}

impl Ready {
    /// Sets up `SETUPS` times and keeps the last session, prepares the
    /// oracles, and warms up with one cycle, checked but not timed.
    fn new(cfg: &Config) -> Result<Ready, String> {
        std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
        let opts = ExecOptions::with_threads(cfg.threads);
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        for _ in 0..SETUPS {
            // Free the previous set-up first, so peak memory is one set-up's.
            drop(last.take());
            let t0 = Instant::now();
            let spec = Spec::new(&cfg.workload, cfg.seed, &cfg.sizes)
                .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
            let session = Session::setup(&spec, &opts, &cfg.work)?;
            times.push(t0.elapsed().as_secs_f64());
            last = Some((spec, session));
        }
        let (spec, mut session) = last.expect("SETUPS > 0");
        session.prepare(&spec)?;
        let mut ready = Ready {
            spec,
            session,
            setup_s: median(&times),
            attempted: 0,
            failed: 0,
        };
        let Ready {
            spec,
            session,
            attempted,
            failed,
            ..
        } = &mut ready;
        for op in &spec.ops[..spec.cycle] {
            *attempted += 1;
            let res = session.exec(op);
            if !judged(session, op, res) {
                *failed += 1;
            }
        }
        Ok(ready)
    }
}

/// Whether an op that ran succeeded and its answer passes the oracle;
/// says why on standard error when not.
fn judged(session: &mut Session, op: &Op, res: Result<(), String>) -> bool {
    match res {
        Err(e) => {
            eprintln!("failed: {}: {e}", op.label());
            false
        }
        Ok(()) if session.check(op) => true,
        Ok(()) => {
            eprintln!("wrong answer: {}", op.label());
            false
        }
    }
}

/// The untraced closed loop: ops back to back for `seconds`, stopping on
/// a cycle boundary, each timed. Reports the end-to-end metrics.
pub fn untraced(cfg: &Config) -> Result<Outcome, String> {
    let Ready {
        spec,
        mut session,
        setup_s,
        mut attempted,
        mut failed,
    } = Ready::new(cfg)?;
    // Latencies in ms by op kind: reads, writes, opens, saves.
    let mut ms: [Vec<f64>; 4] = Default::default();
    let mut busy = 0.0;
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || i % spec.cycle != 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let op = &spec.ops[i % spec.ops.len()];
        i += 1;
        attempted += 1;
        let t0 = Instant::now();
        let res = session.exec(op);
        let took = t0.elapsed().as_secs_f64();
        busy += took;
        if res.is_ok() {
            let kind = match op {
                Op::Read { .. } => 0,
                Op::Write { .. } => 1,
                Op::Open => 2,
                Op::Save => 3,
            };
            ms[kind].push(took * 1e3);
        }
        if !judged(&mut session, op, res) {
            failed += 1;
        }
    }
    let [reads, writes, opens, saves] = &ms;
    let p95 = quantile(reads, 0.95);
    let mut notes = vec![
        format!(
            "reads {} ({} beyond p95), writes {}, opens {}, saves {}; client busy {busy:.3} s",
            reads.len(),
            reads.iter().filter(|&&r| r > p95).count(),
            writes.len(),
            opens.len(),
            saves.len()
        ),
        format!(
            "error_rate {} ratio ({failed} of {attempted} ops failed or were answered wrongly)",
            ratio(failed as f64, attempted as f64)
        ),
    ];
    for (name, samples) in [
        ("write_p50_ms", writes),
        ("open_p50_ms", opens),
        ("save_p50_ms", saves),
    ] {
        if !samples.is_empty() {
            notes.push(format!(
                "{name} {} ms (n={})",
                median(samples),
                samples.len()
            ));
        }
    }
    if let Probe::Windows = spec.probe {
        let accesses = layers::section5(&spec.boxes, &Spec::windows(&spec.ops));
        let shown: Vec<String> = accesses
            .iter()
            .map(|(n, _, v)| format!("{n} {v:.2}"))
            .collect();
        notes.push(format!(
            "§5 node accesses per query (fan-out 20): {}",
            shown.join(", ")
        ));
    }
    if let Some(hash) = session.result_hash() {
        notes.push(format!("result_hash {hash:016x}"));
    }
    Ok(Outcome {
        attempted,
        failed,
        notes,
        metrics: vec![
            ("query_p50_ms", "ms", median(reads)),
            ("query_p95_ms", "ms", p95),
            ("throughput_qps", "query/s", ratio(reads.len() as f64, busy)),
            ("setup_s", "s", setup_s),
            ("peak_rss_mb", "MiB", peak_rss_mib()),
        ],
    })
}

/// A finished traced pass.
struct Traced {
    ready: Ready,
    acc: TraceAcc,
    ops: Vec<Op>,
    plain: Duration,
    traced: Duration,
    counts: BTreeMap<String, u64>,
}

/// Runs a fixed number of cycles untraced, then the same cycles traced
/// between two registry snapshots.
fn traced_pass(cfg: &Config) -> Result<Traced, String> {
    let mut ready = Ready::new(cfg)?;
    let n = ready.spec.trace_cycles * ready.spec.cycle;
    let ops: Vec<Op> = ready.spec.ops.iter().cycle().take(n).cloned().collect();
    let plain = pass(&mut ready, &ops, None);
    cqa::obs::reset_metrics();
    let before = cqa::obs::snapshot();
    let mut acc = TraceAcc::default();
    let traced = pass(&mut ready, &ops, Some(&mut acc));
    let after = cqa::obs::snapshot();
    let mut counts: BTreeMap<String, u64> = after
        .entries()
        .iter()
        .filter_map(|(name, value)| match value {
            MetricValue::Counter(v) => {
                Some((name.to_string(), v.saturating_sub(before.counter(name))))
            }
            MetricValue::Gauge(v) => Some((name.to_string(), *v)),
            MetricValue::Histogram { .. } => None,
        })
        .collect();
    counts.insert("trace.reads".into(), acc.queries);
    counts.insert("trace.join.rows".into(), acc.join_rows);
    counts.insert("trace.join.pairs".into(), acc.join_pairs);
    Ok(Traced {
        ready,
        acc,
        ops,
        plain,
        traced,
        counts,
    })
}

/// The registry deltas (counters and gauges) and trace counts of the
/// traced pass: the counts that must repeat exactly for a seed, at every
/// thread count.
pub fn trace_counts(cfg: &Config) -> Result<BTreeMap<String, u64>, String> {
    traced_pass(cfg).map(|t| t.counts)
}

/// The traced run: per-layer metrics from the traced pass and from the
/// layer replays.
pub fn traced(cfg: &Config) -> Result<Outcome, String> {
    let Traced {
        ready,
        acc,
        ops,
        plain,
        traced,
        counts,
    } = traced_pass(cfg)?;
    let mut metrics = layers::trace_metrics(&acc, &counts);
    metrics.push((
        "obs.trace_overhead_ratio",
        "ratio",
        ratio(traced.as_secs_f64(), plain.as_secs_f64()),
    ));
    let catalog = ready.session.runner.catalog();
    metrics.extend(layers::replays(
        &ready.spec,
        catalog,
        &acc,
        &ops,
        &cfg.work,
    )?);
    let notes = vec![format!(
        "traced pass: {} ops ({} reads, {} statements), run untraced and then traced",
        ops.len(),
        acc.queries,
        acc.statements
    )];
    Ok(Outcome {
        attempted: ready.attempted,
        failed: ready.failed,
        metrics,
        notes,
    })
}

/// Runs `ops` one statement at a time, as a shell user types them, and
/// returns the time spent in query statements. With `acc`, each query
/// statement runs through `run_traced` after the lang and optimizer
/// replays on it.
fn pass(ready: &mut Ready, ops: &[Op], mut acc: Option<&mut TraceAcc>) -> Duration {
    let mut in_queries = Duration::ZERO;
    for op in ops {
        ready.attempted += 1;
        let session = &mut ready.session;
        let res = match (op, acc.as_deref_mut()) {
            (Op::Read { script, .. }, None) => {
                script
                    .split_inclusive('\n')
                    .try_for_each(|stmt| -> Result<(), String> {
                        let t0 = Instant::now();
                        session.runner.run(stmt).map_err(|e| e.to_string())?;
                        in_queries += t0.elapsed();
                        Ok(())
                    })
            }
            (Op::Read { script, .. }, Some(acc)) => script
                .split_inclusive('\n')
                .try_for_each(|stmt| -> Result<(), String> {
                    in_queries += acc.statement(&mut session.runner, stmt)?;
                    Ok(())
                })
                .map(|()| acc.finish_read(&session.runner, script)),
            (Op::Write { stmt, .. }, Some(acc)) => {
                acc.parse_only(stmt).and_then(|()| session.exec(op))
            }
            _ => session.exec(op),
        };
        if !judged(session, op, res) {
            ready.failed += 1;
        }
    }
    in_queries
}

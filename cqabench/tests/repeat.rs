//! Checks of the benchmark itself, on small inputs: every workload's
//! oracles pass, and the per-layer counts later changes may claim on
//! repeat exactly, across two runs of one seed and across thread counts.
//!
//! Both tests read the process-global metrics registry, so they hold one
//! lock and never overlap.

use cqabench::gen::Sizes;
use cqabench::run::{self, Config};
use cqabench::workload::WORKLOADS;
use std::path::PathBuf;
use std::sync::Mutex;

static REGISTRY: Mutex<()> = Mutex::new(());

fn config(workload: &str, threads: usize, tag: &str) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.001,
        threads,
        sizes: Sizes::small(),
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}")),
    }
}

#[test]
fn oracles_pass_on_every_workload() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let cfg = config(w, 2, "oracles");
        let out = run::untraced(&cfg).expect("untraced run completes");
        assert_eq!(
            out.failed, 0,
            "{w}: {} of {} ops failed",
            out.failed, out.attempted
        );
        let out = run::traced(&cfg).expect("traced run completes");
        assert_eq!(
            out.failed, 0,
            "{w} traced: {} of {} ops failed",
            out.failed, out.attempted
        );
        let _ = std::fs::remove_dir_all(&cfg.work);
    }
}

#[test]
fn per_layer_counts_repeat_exactly() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let parallel = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .max(2);
    for w in WORKLOADS {
        let counts = |threads: usize, tag: &str| {
            let cfg = config(w, threads, tag);
            let counts = run::trace_counts(&cfg).expect("traced pass runs");
            let _ = std::fs::remove_dir_all(&cfg.work);
            counts
        };
        let first = counts(parallel, "first");
        assert!(
            first.get("exec.runs").is_some_and(|&runs| runs > 0),
            "{w}: no query counted"
        );
        assert_eq!(
            first,
            counts(parallel, "second"),
            "{w}: two runs of one seed"
        );
        assert_eq!(
            first,
            counts(1, "serial"),
            "{w}: threads=1 vs threads={parallel}"
        );
    }
}

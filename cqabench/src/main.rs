//! `cqabench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the CQA/CDB benchmark from the root of a
//! checkout. Prints `#` lines of provenance and notes, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics, each as
//! `{"value": …, "unit": …}`. Exits with 2 on bad arguments and with 1,
//! printing no result, when the run cannot complete.

use cqa::obs::json::Json;
use cqabench::gen::Sizes;
use cqabench::run::{self, Config, Outcome};
use cqabench::workload::WORKLOADS;
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit checked out, read from `.git` without running git;
/// "unknown" in a checkout exported without `.git`.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the system's sources under `crates/`: names the code
/// measured where no commit id is available.
fn source_fingerprint() -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", cqa::obs::fnv1a(&bytes))
}

fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            let entry = vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::str(unit)),
            ];
            (name.to_string(), Json::Obj(entry))
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(out.failed == 0)),
        ("attempted".to_string(), Json::from_u64(out.attempted)),
        ("failed".to_string(), Json::from_u64(out.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .render()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("cqabench: {e}");
        std::process::exit(2)
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let cfg = Config {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        threads,
        sizes: Sizes::full(),
        work: work.clone(),
    };
    println!(
        "# cqabench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# provenance: hardware_threads={threads} exec_threads={threads} profile={} commit={} source_fnv={}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit(),
        source_fingerprint()
    );
    println!("# flush policy: nothing is fsynced; open and save latencies are page-cache latencies, not a device's");
    println!("# telemetry: metrics registry on; spans, event log and sampler off");
    let result = if args.trace {
        run::traced(&cfg)
    } else {
        run::untraced(&cfg)
    };
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            println!("{}", result_line(&out));
        }
        Err(e) => {
            eprintln!("cqabench: {e}");
            std::process::exit(1);
        }
    }
}

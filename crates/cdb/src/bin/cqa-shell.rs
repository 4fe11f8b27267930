//! `cqa-shell` — an interactive shell for CQA/CDB.
//!
//! Usage:
//!
//! ```text
//! cqa-shell [data.cdb ...] [--script queries.cqa]
//! ```
//!
//! Loads the given `.cdb` files into the catalog, runs `--script` files
//! non-interactively if given, then (on a TTY or pipe) reads statements
//! from stdin, one per line, in the paper's §3.3 syntax:
//!
//! ```text
//! cqa> R0 = select landId = "A" from Landownership
//! cqa> R1 = project R0 on name, t
//! ```
//!
//! Meta-commands: `\list` (relations), `\schema NAME`, `\show NAME`,
//! `\plan STATEMENT` (optimized plan), `\trace [json] STATEMENT`,
//! `\explain analyze STATEMENT`, `\metrics [reset|export]`, `\top [N]`,
//! `\load FILE.cdb`, `\help`, `\quit`.
//!
//! Telemetry flags:
//!
//! * `--telemetry-port N` — serve Prometheus text format on
//!   `127.0.0.1:N/metrics` for the lifetime of the shell;
//! * `--event-log FILE` — append query start/finish events as JSONL
//!   (size-rotated);
//! * `--flight-dir DIR` — install the flight recorder: panics and
//!   governor aborts dump spans + metrics + the active plan to
//!   `DIR/flight-*.json`.

use cqa::core::{exec, optimizer, Catalog, ExecCounter, ExecOptions};
use cqa::lang::lower::lower_expr;
use cqa::lang::parse::parse_script;
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::ScriptRunner;
use cqa::obs::metrics::MetricValue;
use cqa::obs::Snapshot;
use std::io::{BufRead, IsTerminal, Write};
use std::time::Instant;

/// Shell-owned telemetry state: the listener (dropped, and thus cleanly
/// shut down, when the shell exits) and the registry snapshot `\top`
/// diffs against, taken at start-up and at each `\top`.
struct Telemetry {
    server: Option<cqa::obs::http::TelemetryServer>,
    top_baseline: (Snapshot, Instant),
}

fn main() {
    let mut catalog = Catalog::new();
    let mut scripts: Vec<String> = Vec::new();
    let mut telemetry =
        Telemetry { server: None, top_baseline: (cqa::obs::snapshot(), Instant::now()) };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--script" => match args.next() {
                Some(path) => scripts.push(path),
                None => {
                    eprintln!("--script needs a file argument");
                    std::process::exit(2);
                }
            },
            "--telemetry-port" => {
                let Some(port) = args.next().and_then(|p| p.parse::<u16>().ok()) else {
                    eprintln!("--telemetry-port needs a port number");
                    std::process::exit(2);
                };
                match cqa::obs::http::serve(("127.0.0.1", port)) {
                    Ok(server) => {
                        println!("telemetry: http://127.0.0.1:{}/metrics", server.port());
                        telemetry.server = Some(server);
                    }
                    Err(e) => {
                        eprintln!("cannot bind telemetry port {}: {}", port, e);
                        std::process::exit(1);
                    }
                }
            }
            "--event-log" => {
                let Some(path) = args.next() else {
                    eprintln!("--event-log needs a file argument");
                    std::process::exit(2);
                };
                if let Err(e) = cqa::obs::eventlog::install(
                    &path,
                    cqa::obs::eventlog::DEFAULT_MAX_BYTES,
                    cqa::obs::eventlog::DEFAULT_MAX_FILES,
                ) {
                    eprintln!("cannot open event log {}: {}", path, e);
                    std::process::exit(1);
                }
                println!("event log: {}", path);
            }
            "--flight-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("--flight-dir needs a directory argument");
                    std::process::exit(2);
                };
                if let Err(e) = cqa::obs::flight::install(&dir, cqa::obs::flight::DEFAULT_SPAN_TAIL)
                {
                    eprintln!("cannot prepare flight dir {}: {}", dir, e);
                    std::process::exit(1);
                }
                cqa::obs::flight::install_panic_hook();
                // Dumps carry a span tail, so keep the ring recording.
                cqa::obs::set_spans_enabled(true);
                println!("flight recorder: {}", dir);
            }
            "--help" | "-h" => {
                println!(
                    "usage: cqa-shell [data.cdb ...] [--script queries.cqa] \
                     [--telemetry-port N] [--event-log FILE] [--flight-dir DIR]"
                );
                return;
            }
            path => {
                if let Err(e) = load_cdb(&mut catalog, path) {
                    eprintln!("error loading {}: {}", path, e);
                    std::process::exit(1);
                }
                println!("loaded {}", path);
            }
        }
    }

    let mut runner = ScriptRunner::new(catalog);
    for path in scripts {
        match std::fs::read_to_string(&path) {
            Ok(src) => match runner.run(&src) {
                Ok(result) => {
                    println!("# {} =>", path);
                    print!("{}", result);
                }
                Err(e) => {
                    eprintln!("error in {}: {}", path, e);
                    std::process::exit(1);
                }
            },
            Err(e) => {
                eprintln!("cannot read {}: {}", path, e);
                std::process::exit(1);
            }
        }
    }

    repl(&mut runner, &mut telemetry);
    cqa::obs::eventlog::uninstall();
}

fn load_cdb(catalog: &mut Catalog, path: &str) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse_cdb(&src).map_err(|e| e.to_string())?.load_into(catalog);
    Ok(())
}

fn repl(runner: &mut ScriptRunner, telemetry: &mut Telemetry) {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    // Prompt only when a person is typing: not for piped input, and not
    // when `CQA_NONINTERACTIVE` is set (e.g. a terminal pane being captured).
    let interactive = stdin.is_terminal() && std::env::var_os("CQA_NONINTERACTIVE").is_none();
    loop {
        if interactive {
            print!("cqa> ");
            let _ = out.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {}", e);
                return;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('\\') {
            if !meta_command(runner, telemetry, rest) {
                return;
            }
            continue;
        }
        match runner.run(&format!("{}\n", line)) {
            Ok(result) => print!("{}", result),
            Err(e) => eprintln!("error: {}", e),
        }
    }
}

/// Handles a meta command; returns false to quit.
fn meta_command(runner: &mut ScriptRunner, telemetry: &mut Telemetry, cmd: &str) -> bool {
    let (head, rest) = match cmd.split_once(char::is_whitespace) {
        Some((h, r)) => (h, r.trim()),
        None => (cmd, ""),
    };
    match head {
        "quit" | "q" => return false,
        "help" | "?" => {
            println!("statements:  NAME = select COND, ... from REL");
            println!("             NAME = project REL on attr, ...");
            println!("             NAME = join|union|diff A and B");
            println!("             NAME = rename a to b in REL");
            println!("             NAME = bufferjoin A and B distance D");
            println!("             NAME = knearest A and B k N");
            println!("ddl/dml:     create relation NAME {{ attr: type kind; ... }}");
            println!("             insert into NAME {{ conds }}");
            println!("             drop NAME");
            println!("meta:        \\list  \\schema NAME  \\show NAME  \\plan STMT");
            println!("             \\trace [json] STMT  \\explain analyze STMT");
            println!("             \\metrics [reset|export]  \\top [N]");
            println!("             \\set threads N  \\set filter on|off  \\set");
            println!("             \\set timeout MS|off  \\set budget fm|dnf|tuples N|off");
            println!("             \\stats governor");
            println!("             \\load FILE.cdb  \\save DIR  \\open DIR  \\quit");
        }
        "list" | "l" => {
            for name in runner.catalog().names() {
                if let Ok(rel) = runner.catalog().get(name) {
                    println!("{}  {} ({} tuples)", name, rel.schema(), rel.len());
                }
            }
            for name in runner.catalog().spatial_names() {
                if let Ok(rel) = runner.catalog().get_spatial(name) {
                    println!("{}  (spatial, {} features)", name, rel.len());
                }
            }
        }
        "schema" => match runner.catalog().get(rest) {
            Ok(rel) => println!("{}", rel.schema()),
            Err(e) => eprintln!("error: {}", e),
        },
        "show" => match runner.catalog().get(rest) {
            Ok(rel) => print!("{}", rel),
            Err(e) => eprintln!("error: {}", e),
        },
        "trace" => {
            // `\trace json STMT` emits the span tree as JSON; `\trace STMT`
            // renders it as text followed by the result.
            let (json, stmt) = match rest.strip_prefix("json") {
                Some(r) if r.starts_with(char::is_whitespace) => (true, r.trim()),
                _ => (false, rest),
            };
            match runner.run_traced(&format!("{}\n", stmt)) {
                Ok((result, trace)) if json => {
                    println!("{}", trace.to_json().render());
                    drop(result);
                }
                Ok((result, trace)) => {
                    print!("{}", trace);
                    print!("{}", result);
                }
                Err(e) => eprintln!("error: {}", e),
            }
        }
        "explain" => {
            let Some(stmt) = rest.strip_prefix("analyze").map(str::trim).filter(|s| !s.is_empty())
            else {
                eprintln!("usage: \\explain analyze STATEMENT");
                return true;
            };
            match runner.run_traced(&format!("{}\n", stmt)) {
                Ok((_result, trace)) => {
                    print!("{}", exec::render_explain_analyze(&trace, runner.exec_options()));
                }
                Err(e) => eprintln!("error: {}", e),
            }
        }
        "metrics" => match rest {
            "" => print!("{}", cqa::obs::snapshot().render_text()),
            "reset" => {
                cqa::obs::reset_metrics();
                println!("metrics reset");
            }
            // Byte-identical to what `GET /metrics` serves for the same
            // registry state (both call `prom::render` on a snapshot).
            "export" => print!("{}", cqa::obs::prom::render(&cqa::obs::snapshot())),
            other => {
                eprintln!("unknown metrics argument {:?} (try \\metrics reset|export)", other)
            }
        },
        "top" => {
            let n = rest.parse::<usize>().unwrap_or(10);
            let (prev, at) = std::mem::replace(
                &mut telemetry.top_baseline,
                (cqa::obs::snapshot(), Instant::now()),
            );
            let delta = telemetry.top_baseline.0.delta(&prev);
            println!("moved in the last {:.1} s:", at.elapsed().as_secs_f64());
            // Counters and histogram counts; gauges are high-water marks,
            // not movement, and stay in `\metrics`.
            let mut moved: Vec<(&str, u64, &str)> = delta
                .entries()
                .iter()
                .filter_map(|(name, v)| match v {
                    MetricValue::Counter(d @ 1..) => Some((*name, *d, "")),
                    MetricValue::Histogram { count: d @ 1.., .. } => Some((*name, *d, " observations")),
                    _ => None,
                })
                .collect();
            moved.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            if moved.is_empty() {
                println!("  (idle: nothing moved)");
            }
            for (name, d, suffix) in moved.iter().take(n) {
                println!("  {:<40} +{}{}", name, d, suffix);
            }
        }
        "plan" => match parse_script(&format!("{}\n", rest)) {
            Ok(script) if script.statements.len() == 1 => {
                let stmt = &script.statements[0];
                let Some((expr, line)) = stmt_query(stmt) else {
                    eprintln!("\\plan takes a query statement");
                    return true;
                };
                match lower_expr(expr, line) {
                    Ok(plan) => match optimizer::optimize(&plan, runner.catalog()) {
                        Ok(optimized) => {
                            println!("unoptimized:\n{}", plan);
                            println!("optimized:\n{}", optimized);
                        }
                        Err(e) => eprintln!("error: {}", e),
                    },
                    Err(e) => eprintln!("error: {}", e),
                }
            }
            Ok(_) => eprintln!("\\plan takes exactly one statement"),
            Err(e) => eprintln!("error: {}", e),
        },
        "set" => {
            let mut opts = runner.exec_options().clone();
            match rest.split_once(char::is_whitespace).map(|(k, v)| (k, v.trim())) {
                Some(("threads", v)) => match v.parse::<usize>() {
                    Ok(n) => {
                        opts.threads = n;
                        runner.set_exec_options(opts);
                    }
                    Err(_) => eprintln!("\\set threads takes a number (0 = all cores)"),
                },
                Some(("filter", v)) => match v {
                    "on" => {
                        opts.bbox_filter = true;
                        runner.set_exec_options(opts);
                    }
                    "off" => {
                        opts.bbox_filter = false;
                        runner.set_exec_options(opts);
                    }
                    _ => eprintln!("\\set filter takes on|off"),
                },
                Some(("timeout", v)) => match v {
                    "off" => {
                        opts.governor.timeout = None;
                        runner.set_exec_options(opts);
                    }
                    _ => match v.parse::<u64>() {
                        Ok(ms) => {
                            opts.governor.timeout =
                                Some(std::time::Duration::from_millis(ms));
                            runner.set_exec_options(opts);
                        }
                        Err(_) => eprintln!("\\set timeout takes milliseconds or off"),
                    },
                },
                Some(("budget", v)) => {
                    let (which, amount) = match v.split_once(char::is_whitespace) {
                        Some((w, a)) => (w, a.trim()),
                        None => {
                            eprintln!("usage: \\set budget fm|dnf|tuples N|off");
                            return true;
                        }
                    };
                    let parsed = match amount {
                        "off" => Ok(None),
                        _ => amount.parse::<u64>().map(Some).map_err(|_| ()),
                    };
                    match (which, parsed) {
                        ("fm", Ok(n)) => {
                            opts.governor.budgets.max_fm_atoms = n;
                            runner.set_exec_options(opts);
                        }
                        ("dnf", Ok(n)) => {
                            opts.governor.budgets.max_dnf_conjunctions = n;
                            runner.set_exec_options(opts);
                        }
                        ("tuples", Ok(n)) => {
                            opts.governor.budgets.max_output_tuples = n;
                            runner.set_exec_options(opts);
                        }
                        (_, Err(())) => eprintln!("\\set budget takes a number or off"),
                        (other, _) => {
                            eprintln!("unknown budget {:?} (fm, dnf, tuples)", other)
                        }
                    }
                }
                Some((other, _)) => {
                    eprintln!("unknown setting {:?} (threads, filter, timeout, budget)", other)
                }
                None if rest.is_empty() => {
                    let o = runner.exec_options();
                    println!(
                        "threads = {} (effective {}), filter = {}",
                        o.threads,
                        o.effective_threads(),
                        if o.bbox_filter { "on" } else { "off" }
                    );
                    print_governor_settings(o);
                }
                None => eprintln!(
                    "usage: \\set threads N | \\set filter on|off | \\set timeout MS|off | \\set budget fm|dnf|tuples N|off | \\set"
                ),
            }
        }
        "stats" => match rest {
            "governor" | "" => {
                let o = runner.exec_options();
                let stats = runner.exec_stats();
                print_governor_settings(o);
                println!(
                    "governor checks (last run) = {}, fm peak atoms = {}",
                    o.governor.checks(),
                    stats.get(ExecCounter::FmPeakAtoms),
                );
                println!(
                    "bbox filter: {} checked, {} rejected",
                    stats.get(ExecCounter::FilterChecked),
                    stats.get(ExecCounter::FilterRejected),
                );
                let snap = cqa::obs::snapshot();
                match (
                    snap.histogram_quantile("exec.query.latency_us", 0.50),
                    snap.histogram_quantile("exec.query.latency_us", 0.95),
                    snap.histogram_quantile("exec.query.latency_us", 0.99),
                ) {
                    (Some(p50), Some(p95), Some(p99)) => println!(
                        "query latency (µs): p50<={} p95<={} p99<={}",
                        p50, p95, p99
                    ),
                    _ => println!("query latency: no queries recorded yet"),
                }
            }
            other => eprintln!("unknown stats {:?} (try \\stats governor)", other),
        },
        "load" => match load_cdb(runner.catalog_mut(), rest) {
            Ok(()) => println!("loaded {}", rest),
            Err(e) => eprintln!("error: {}", e),
        },
        "save" => match cqa::lang::db::save_catalog(runner.catalog(), rest) {
            Ok(()) => println!("saved database to {}", rest),
            Err(e) => eprintln!("error: {}", e),
        },
        "open" => match cqa::lang::db::open_catalog(rest) {
            Ok(catalog) => {
                // Swap the catalog only: `\set` options and `\stats`
                // counters are session state and survive the reopen.
                *runner.catalog_mut() = catalog;
                println!("opened database {}", rest);
            }
            Err(e) => eprintln!("error: {}", e),
        },
        other => eprintln!("unknown meta command \\{} (try \\help)", other),
    }
    true
}

/// The governor line of `\set` and `\stats governor`.
fn print_governor_settings(o: &ExecOptions) {
    let off_or = |v: Option<String>| v.unwrap_or_else(|| "off".into());
    let budgets = &o.governor.budgets;
    println!(
        "timeout = {}, budget fm = {}, budget dnf = {}, budget tuples = {}",
        off_or(o.governor.timeout.map(|d| format!("{} ms", d.as_millis()))),
        off_or(budgets.max_fm_atoms.map(|n| n.to_string())),
        off_or(budgets.max_dnf_conjunctions.map(|n| n.to_string())),
        off_or(budgets.max_output_tuples.map(|n| n.to_string())),
    );
}

fn stmt_query(
    stmt: &cqa::lang::ast::Statement,
) -> Option<(&cqa::lang::ast::QueryExpr, usize)> {
    match stmt {
        cqa::lang::ast::Statement::Query { expr, line, .. } => Some((expr, *line)),
        _ => None,
    }
}

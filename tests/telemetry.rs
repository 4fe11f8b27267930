//! End-to-end telemetry export: the HTTP listener, the shell-equivalent
//! exporter, the JSONL event log, flight dumps on governor aborts, and
//! the query-latency histogram — exercised together in one process.
//!
//! This file holds a single test on purpose: the metrics registry, the
//! event log, and the flight recorder are global to the process, and the
//! byte-identity check below requires that nothing mutates the registry
//! between the two renders.

use cqa::core::plan::Plan;
use cqa::core::{exec, ExecOptions, ExecStats};
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::ScriptRunner;
use cqa::obs::json::Json;
use std::io::{Read as _, Write as _};

const POINTS: &str = r#"
relation P {
  id: string relational;
  x: rational constraint;
}
tuple P { id = "a"; x >= 0; x <= 10 }
tuple P { id = "b"; x >= 5; x <= 15 }
tuple P { id = "c"; x >= 20; x <= 30 }
"#;

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {} HTTP/1.1\r\nHost: t\r\n\r\n", path).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let (head, body) = out.split_once("\r\n\r\n").expect("response has a head");
    (head.to_string(), body.to_string())
}

#[test]
fn telemetry_surfaces_agree_end_to_end() {
    let tmp = std::env::temp_dir().join(format!("cqa-telemetry-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let log_path = tmp.join("events.jsonl");

    cqa::obs::set_metrics_enabled(true);
    cqa::obs::eventlog::install(&log_path, cqa::obs::eventlog::DEFAULT_MAX_BYTES, 2).unwrap();

    // A scripted workload through the lang layer: exec-level telemetry
    // must cover it with no lang changes.
    let mut catalog = cqa::core::Catalog::new();
    parse_cdb(POINTS).unwrap().load_into(&mut catalog);
    let mut runner = ScriptRunner::new(catalog);
    let out = runner.run("Lo = select x <= 12 from P\nIds = project Lo on id\n").unwrap();
    assert_eq!(out.len(), 2);

    // Latency histogram: the workload recorded at least one query, and
    // quantiles answer.
    let snap = cqa::obs::snapshot();
    for q in [0.5, 0.95, 0.99] {
        assert!(
            snap.histogram_quantile("exec.query.latency_us", q).is_some(),
            "latency quantile p{} missing",
            q * 100.0
        );
    }

    // Event log: every line parses; the workload's start/finish pairs are
    // present, correlated by seq, with outcome "ok".
    cqa::obs::eventlog::uninstall();
    let log = std::fs::read_to_string(&log_path).unwrap();
    let events: Vec<Json> =
        log.lines().map(|l| cqa::obs::json::parse(l).expect("event line parses")).collect();
    assert!(events.len() >= 4, "expected >= 2 query start/finish pairs, got {}", events.len());
    let finishes: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("query_finish"))
        .collect();
    assert!(!finishes.is_empty());
    for f in &finishes {
        assert_eq!(f.get("outcome").and_then(Json::as_str), Some("ok"));
        let seq = f.get("seq").and_then(Json::as_num).unwrap();
        assert!(
            events.iter().any(|e| e.get("event").and_then(Json::as_str) == Some("query_start")
                && e.get("seq").and_then(Json::as_num) == Some(seq)),
            "finish seq {} has no matching start",
            seq
        );
        assert!(f.get("governor").and_then(|g| g.get("checks")).is_some());
    }

    // HTTP exporter vs. the shell's `\metrics export`: byte-identical for
    // the same registry state (nothing runs queries between the renders).
    let server = cqa::obs::http::serve("127.0.0.1:0").unwrap();
    let local = cqa::obs::prom::render(&cqa::obs::snapshot());
    let (head, body) = http_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{}", head);
    assert!(head.contains("text/plain; version=0.0.4"));
    assert_eq!(body, local, "GET /metrics and \\metrics export must be byte-identical");
    assert!(body.contains("# TYPE cqa_exec_runs counter"));
    assert!(body.contains("cqa_exec_query_latency_us_bucket"));
    drop(server);

    // Flight recorder: a governor DeadlineExceeded on a traced query dumps
    // the span tail and the active plan.
    cqa::obs::flight::install(&tmp, 32).unwrap();
    cqa::obs::set_spans_enabled(true);
    cqa::obs::reset_spans();
    let mut opts = ExecOptions::with_threads(2);
    opts.governor.timeout = Some(std::time::Duration::ZERO);
    let plan = Plan::scan("P").join(Plan::scan("P").rename("id", "id2"));
    let err = exec::execute_traced(&plan, runner.catalog(), &opts, &ExecStats::new())
        .expect_err("zero deadline aborts");
    assert!(err.is_governor_abort());
    let dumps = cqa::obs::flight::list_dumps(&tmp);
    assert_eq!(dumps.len(), 1, "governor abort produced a dump");
    let doc = cqa::obs::json::parse(&std::fs::read_to_string(&dumps[0]).unwrap()).unwrap();
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("flight"));
    assert!(doc
        .get("reason")
        .and_then(Json::as_str)
        .is_some_and(|r| r.contains("deadline")));
    assert!(!doc.get("spans").and_then(Json::as_arr).unwrap().is_empty());
    assert!(doc
        .get("context")
        .and_then(|c| c.get("active_query"))
        .and_then(Json::as_str)
        .is_some_and(|q| q.contains("Join")));

    cqa::obs::flight::uninstall();
    cqa::obs::set_spans_enabled(false);
    cqa::obs::reset_spans();
    let _ = std::fs::remove_dir_all(&tmp);
}

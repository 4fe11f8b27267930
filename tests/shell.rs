//! End-to-end test of the `cqa-shell` binary: one script piped into one
//! child process.

use std::io::Write;
use std::process::{Command, Stdio};

/// `\open DIR` swaps the catalog but keeps the session: a `\set` made
/// before the reopen is still in force after it, and queries still answer
/// against the reopened database.
#[test]
fn open_keeps_session_settings_and_queries_still_answer() {
    let dir = std::env::temp_dir().join(format!("cqa-shell-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data/hurricane.cdb");
    let script = format!(
        "\\set threads 3\n\\save {dir}\n\\open {dir}\n\\set\nR0 = select landId = \"B\" from Land\n\\quit\n",
        dir = dir.display()
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_cqa-shell"))
        .arg(data)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cqa-shell starts");
    child.stdin.take().expect("piped stdin").write_all(script.as_bytes()).expect("script written");
    let out = child.wait_with_output().expect("cqa-shell exits");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        stdout,
        stderr
    );
    assert!(stderr.is_empty(), "no command failed:\n{}", stderr);
    let reopened = stdout.find("opened database").expect("\\open reports success");
    let after = &stdout[reopened..];
    assert!(after.contains("threads = 3 "), "threads survive the reopen:\n{}", stdout);
    assert!(after.contains("(landId = \"B\","), "the query answers after the reopen:\n{}", stdout);
    assert!(!stdout.contains("cqa> "), "piped input gets no prompt:\n{}", stdout);
}

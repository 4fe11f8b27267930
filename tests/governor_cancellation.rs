//! Cancellation determinism: aborting a run at *any* governor check, under
//! *any* thread count, must behave exactly like a run that never started.
//!
//! The contract under test (the governor's all-or-nothing guarantee):
//!
//! * the run returns a typed error (`execution cancelled`), never a panic
//!   and never a partial result;
//! * the catalog is bit-identical to its pre-run state — the script
//!   runner registers a query target only on `Ok`, and the chunked
//!   executor discards all partial output when the token is raised;
//! * runs that are *not* tripped produce bit-identical results for every
//!   thread count.
//!
//! The trip point is driven by `Governor::trip_after(n)`, which raises
//! the cancellation token at the n-th governor check — a deterministic
//! stand-in for "a user hit Ctrl-C at an arbitrary moment".

use cqa::core::HRelation;
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::ScriptRunner;

/// ~30 interval tuples: enough to cross the parallel executor's minimum
/// item count, so multi-thread cells genuinely run chunked.
fn dataset() -> String {
    let mut src = String::from(
        "relation R {\n  id: string relational;\n  x: rational constraint;\n}\n",
    );
    for i in 0..30 {
        src.push_str(&format!(
            "tuple R {{ id = \"t{:02}\"; {} <= x; x <= {} }}\n",
            i,
            i,
            i + 2
        ));
    }
    src
}

fn runner() -> ScriptRunner {
    let mut catalog = cqa::core::Catalog::new();
    parse_cdb(&dataset()).expect("static dataset").load_into(&mut catalog);
    ScriptRunner::new(catalog)
}

/// The query: difference runs on the chunked executor and checks the
/// governor once per left tuple, so every trip point 1..=30 is reachable.
const QUERY: &str = "Out = diff R and R\n";

/// Catalog snapshot for exact state comparison.
fn snapshot(r: &ScriptRunner) -> Vec<(String, HRelation)> {
    let mut names: Vec<String> = r.catalog().names().map(str::to_string).collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let rel = r.catalog().get(&n).expect("listed name resolves").clone();
            (n, rel)
        })
        .collect()
}

const THREADS: [usize; 5] = [0, 1, 2, 4, 8];

#[test]
fn tripped_runs_error_and_leave_no_trace() {
    for threads in THREADS {
        for trip_at in [1u64, 2, 3, 5, 9, 17, 30] {
            let mut r = runner();
            let mut opts = r.exec_options().clone();
            opts.threads = threads;
            opts.governor.trip_after(trip_at);
            r.set_exec_options(opts);

            let before = snapshot(&r);
            let err = r.run(QUERY).expect_err("tripped run must fail");
            assert!(
                err.to_string().contains("cancelled"),
                "threads={} trip={}: expected a cancellation error, got {}",
                threads,
                trip_at,
                err
            );
            assert_eq!(
                snapshot(&r),
                before,
                "threads={} trip={}: catalog must be as if the run never happened",
                threads,
                trip_at
            );
            assert!(
                !r.catalog().contains("Out"),
                "threads={} trip={}: no partial target registered",
                threads,
                trip_at
            );
        }
    }
}

#[test]
fn untripped_runs_are_bit_identical_across_thread_counts() {
    let baseline = {
        let mut r = runner();
        let mut opts = r.exec_options().clone();
        opts.threads = 1;
        r.set_exec_options(opts);
        r.run(QUERY).expect("baseline run")
    };
    for threads in THREADS {
        let mut r = runner();
        let mut opts = r.exec_options().clone();
        opts.threads = threads;
        r.set_exec_options(opts);
        let out = r.run(QUERY).expect("untripped run succeeds");
        assert_eq!(out, baseline, "threads={}: result must match serial run", threads);
        assert!(r.catalog().contains("Out"));
    }
}

#[test]
fn rearming_after_a_trip_recovers_fully() {
    // A governor trip must not poison the runner: the very next run with
    // the hook cleared succeeds and matches an untainted runner's output.
    let mut r = runner();
    let mut opts = r.exec_options().clone();
    opts.threads = 4;
    opts.governor.trip_after(2);
    r.set_exec_options(opts.clone());
    r.run(QUERY).expect_err("first run trips");

    opts.governor.trip_after(0); // disable the hook
    r.set_exec_options(opts);
    let recovered = r.run(QUERY).expect("second run succeeds");
    let fresh = runner().run(QUERY).expect("fresh run");
    assert_eq!(recovered, fresh);
}

/// Property form of the same contract: random trip points and thread
/// counts.
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn any_trip_point_is_all_or_nothing(
            threads in 0usize..9,
            trip_at in 1u64..40,
        ) {
            let mut r = runner();
            let mut opts = r.exec_options().clone();
            opts.threads = threads;
            opts.governor.trip_after(trip_at);
            r.set_exec_options(opts);
            let before = snapshot(&r);
            match r.run(QUERY) {
                // Trip points beyond the run's total check count never fire.
                Ok(_) => prop_assert!(r.catalog().contains("Out")),
                Err(e) => {
                    prop_assert!(e.to_string().contains("cancelled"));
                    prop_assert_eq!(snapshot(&r), before);
                }
            }
        }
    }
}

#!/usr/bin/env bash
# Repo verification: tier-1 (warnings-as-errors build + full test suite)
# plus the parallel evaluator's determinism gate — the quick speedup grid
# is run twice and the two RESULT_HASH lines must agree (and each run
# already fails internally if any grid cell diverges).
set -euo pipefail
cd "$(dirname "$0")/.."
# Output files go to a private directory, so concurrent runs do not
# clobber each other; it is removed on exit.
outdir=$(mktemp -d)
trap 'rm -rf "$outdir"' EXIT

echo "== tier-1: build (RUSTFLAGS=-D warnings) =="
RUSTFLAGS="-D warnings" cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== frozen benchmark: cqabench's own tests (oracles, count determinism) =="
# cqabench is a separate crate that uses the public API; building and
# testing it here catches a rename of any name it calls.
cargo test -q --release --manifest-path cqabench/Cargo.toml

echo "== benchmark hash gate: hurricane seed 1 =="
# One untimed pass of the frozen benchmark's hurricane workload: its
# oracle must hold and its result hash must match the committed value.
hurricane=$(cargo run -q --release --offline --manifest-path cqabench/Cargo.toml -- \
    --workload hurricane --seed 1 --seconds 0 --trace 0)
if ! grep -q '"correct":true' <<<"$hurricane" \
    || ! grep -qx '# result_hash 3eb20a49a3eb0c3f' <<<"$hurricane"; then
    echo "$hurricane" >&2
    echo "hurricane seed 1 is incorrect or its result hash moved" >&2
    exit 1
fi
echo "hurricane seed 1: correct, result_hash 3eb20a49a3eb0c3f"

echo "== benchmark gate: ingest seed 1 =="
# One untimed pass of the frozen benchmark's ingest workload, the only one
# that runs unindexed selections over a reopened database: its oracle must
# hold and no operation may fail.
ingest=$(cargo run -q --release --offline --manifest-path cqabench/Cargo.toml -- \
    --workload ingest --seed 1 --seconds 0 --trace 0)
if ! grep -q '"correct":true' <<<"$ingest" || ! grep -q '"failed":0,' <<<"$ingest"; then
    echo "$ingest" >&2
    echo "ingest seed 1 is incorrect or an operation failed" >&2
    exit 1
fi
echo "ingest seed 1: correct, no failed operations"

echo "== benchmark gate: region_select seed 1 =="
# One untimed pass of the frozen benchmark's region_select workload, the
# only one that builds and probes a catalog R*-tree index: its oracle
# must hold and no operation may fail.
region=$(cargo run -q --release --offline --manifest-path cqabench/Cargo.toml -- \
    --workload region_select --seed 1 --seconds 0 --trace 0)
if ! grep -q '"correct":true' <<<"$region" || ! grep -q '"failed":0,' <<<"$region"; then
    echo "$region" >&2
    echo "region_select seed 1 is incorrect or an operation failed" >&2
    exit 1
fi
echo "region_select seed 1: correct, no failed operations"

echo "== parallel determinism gate: quick grid, twice =="
out1=$(cargo run -q --release -p cqa-bench --bin parallel_speedup -- --quick --out "$outdir/parallel_1.json")
echo "$out1"
out2=$(cargo run -q --release -p cqa-bench --bin parallel_speedup -- --quick --out "$outdir/parallel_2.json")

hash1=$(echo "$out1" | grep '^RESULT_HASH')
hash2=$(echo "$out2" | grep '^RESULT_HASH')
if [ "$hash1" != "$hash2" ]; then
    echo "NONDETERMINISM across runs: '$hash1' vs '$hash2'" >&2
    exit 1
fi
echo "determinism gate passed: $hash1 (stable across runs and grid cells)"

echo "== fault-matrix gate: injected storage faults stay typed =="
cargo run -q --release -p cqa-bench --bin fault_matrix | tail -2

echo "== observability gates: overhead <= 3%, golden metrics snapshot =="
# --gate makes obs_bench exit non-zero if the median ratio of
# interleaved telemetry-enabled (metrics + event log) / disabled runs of
# the bench join exceeds 1.03 (at least 21 pairs, at least 3 s per side).
cargo run -q --release -p cqa-bench --bin obs_bench -- --quick --gate --out "$outdir/obs.json"
# The seeded golden workload must reproduce the committed counter
# snapshot exactly (counts only — no timings — so this is bit-stable).
cargo run -q --release -p cqa-bench --bin obs_bench -- --golden > "$outdir/obs_golden.txt"
if ! diff -u tests/golden/metrics_seeded.txt "$outdir/obs_golden.txt"; then
    echo "golden metrics snapshot diverged (see diff above)" >&2
    exit 1
fi
echo "golden metrics snapshot matches"

echo "== telemetry export gate: canonical Prometheus exposition =="
# The same seeded workload rendered through the canonical exporter
# (timing series skipped) must match byte-for-byte — this is the text a
# scraper sees on GET /metrics, minus the wall-clock-dependent series.
cargo run -q --release -p cqa-bench --bin obs_bench -- --golden-prom > "$outdir/obs_prom.txt"
if ! diff -u tests/golden/prometheus_seeded.txt "$outdir/obs_prom.txt"; then
    echo "golden Prometheus exposition diverged (see diff above)" >&2
    exit 1
fi
echo "golden Prometheus exposition matches"

echo "== flight-recorder smoke: governor abort + panic both dump =="
cargo run -q --release -p cqa-bench --bin obs_bench -- --flight-smoke 2>/dev/null | grep FLIGHT_SMOKE

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy -q --workspace --all-targets --no-deps -- -D warnings
echo "clippy clean"

echo "== rustdoc (workspace, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline
echo "rustdoc clean"

echo "== verify OK =="

#!/usr/bin/env bash
# A/B timing of the frozen benchmark: a parent revision against the
# working tree, in alternating pairs.
#
#   scripts/ab.sh <parent-rev> [workloads] [pairs]
#
# `workloads` is a comma-separated list (default: every workload in
# BENCHMARK.json) and `pairs` the number of pairs per workload (default
# 10). Each run is one `cqabench --seed 1 --trace 0` at BENCHMARK.json's
# `run_seconds`; pair i runs the parent first when i is even and the
# change first when it is odd, so drift over the whole run falls on both
# sides alike.
#
# The parent is exported with `git archive` into a directory from
# `mktemp -d` (honouring TMPDIR), built there with `--offline`, and
# removed on exit; the repository's `.git` is only read. The change side
# is the working tree as it stands, uncommitted edits included.
#
# Before and after every run the script reads the machine's steal time
# (the `steal` column of the `cpu` line of /proc/stat, read only) and
# its total CPU time. A pair is flagged when steal rose by more than 1%
# of the CPU time that passed during either of its runs: another tenant
# took CPU time from it, so read its numbers with care rather than
# averaging them in silently. (On a shared VM steal creeps up by a few
# ticks in nearly every run; flagging any rise at all would flag all.)
#
# Besides the result line's metrics, a record carries the `# NAME VALUE
# ms (n=…)` latency notes cqabench prints (ingest's write_p50_ms,
# open_p50_ms and save_p50_ms), counted as lower-is-better for wins.
#
# Output: per-pair lines and a per-metric table (medians, interquartile
# ranges, change-wins) on stderr; on stdout one schema-1 JSON record per
# workload, one record per line, ready to append to BENCH_cqabench.json:
#
#   scripts/ab.sh HEAD~1 >> BENCH_cqabench.json
#
# Timing on a shared VM is noisy, so this is evidence for a reader, never
# a gate: scripts/verify.sh does not run it.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/ab.sh <parent-rev> [workloads] [pairs]" >&2
    exit 2
fi
parent_rev=$(git rev-parse --verify "$1^{commit}")
all_workloads=$(sed -n 's/.*{"name": *"\([a-z_]*\)", *"why".*/\1/p' BENCHMARK.json | paste -sd, -)
workloads=${2:-$all_workloads}
pairs=${3:-10}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
# "name better" per end-to-end metric and latency note, e.g.
# "throughput_qps higher", separated by ";".
directions=$(sed -n 's/.*{"name": *"\([a-z0-9_]*\)",.*"better": *"\([a-z]*\)".*/\1 \2/p' BENCHMARK.json \
    | paste -sd';' -)";write_p50_ms lower;open_p50_ms lower;save_p50_ms lower"
change_rev=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    change_rev="$change_rev+dirty"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_rev" | tar -x -C "$tmp/parent"

echo "== building cqabench: change ($change_rev) and parent ($parent_rev) ==" >&2
cargo build --quiet --release --offline --manifest-path cqabench/Cargo.toml
cargo build --quiet --release --offline --manifest-path "$tmp/parent/cqabench/Cargo.toml"

# "steal total" CPU ticks, summed over all CPUs.
cpu_ticks() {
    awk '$1 == "cpu" { t = 0; for (i = 2; i <= NF; i++) t += $i; print $9, t; exit }' /proc/stat
}

# run SIDE WORKLOAD: one timed run from SIDE's checkout; appends
# "SIDE steal_percent metric=value ..." to $tmp/runs.
run() {
    local dir=$root
    [ "$1" = parent ] && dir=$tmp/parent
    local before after out
    before=$(cpu_ticks)
    out=$(cd "$dir" && ./cqabench/target/release/cqabench \
        --workload "$2" --seed 1 --seconds "$seconds" --trace 0)
    after=$(cpu_ticks)
    local steal_percent
    steal_percent=$(awk -v b="$before" -v a="$after" 'BEGIN {
        split(b, x, " "); split(a, y, " ")
        printf "%.2f", (y[2] > x[2] ? 100 * (y[1] - x[1]) / (y[2] - x[2]) : 0) }')
    local result
    result=$(tail -n 1 <<<"$out")
    if ! grep -q '"correct":true' <<<"$result"; then
        echo "$out" >&2
        echo "ab.sh: $1 run of $2 answered wrongly" >&2
        exit 1
    fi
    local metrics
    metrics=$(grep -o '"[a-z0-9_]*":{"value":[-0-9.eE+]*' <<<"$result" \
        | sed 's/^"\([a-z0-9_]*\)":{"value":/\1=/' | paste -sd' ' -)
    local notes
    notes=$(sed -n 's/^# \([a-z0-9_]*_ms\) \([-0-9.eE+]*\) ms (n=[0-9]*)$/\1=\2/p' <<<"$out" | paste -sd' ' -)
    local failed
    failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$result")
    echo "$1 $steal_percent failed=$failed $metrics $notes" >>"$tmp/runs"
}

IFS=, read -r -a names <<<"$workloads"
for w in "${names[@]}"; do
    : >"$tmp/runs"
    echo "== $w: $pairs pairs at ${seconds}s ==" >&2
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run parent "$w"
            run change "$w"
        else
            run change "$w"
            run parent "$w"
        fi
        echo "pair $i: $(tail -n 2 "$tmp/runs" | paste -sd'|' -)" >&2
    done
    # Pair up the runs (parent and change of pair i are lines 2i, 2i+1
    # in either order) and summarise every metric.
    awk -v workload="$w" -v change_rev="$change_rev" -v parent_rev="$parent_rev" \
        -v seconds="$seconds" -v pairs="$pairs" -v directions="$directions" '
        function quantile(a, n, q,    s, i, j, t, pos, lo) {
            for (i = 1; i <= n; i++) s[i] = a[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
            pos = 1 + (n - 1) * q
            lo = int(pos)
            return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
        }
        BEGIN {
            split(directions, d, ";")
            for (k in d) { split(d[k], f, " "); better[f[1]] = f[2] }
        }
        {
            pair = int((NR - 1) / 2)
            side = $1
            if ($2 > 1) flagged[pair] = 1
            if ($2 > max_steal) max_steal = $2
            for (k = 3; k <= NF; k++) {
                split($k, kv, "=")
                if (!(kv[1] in seen)) { seen[kv[1]] = 1; order[++nm] = kv[1] }
                val[side, kv[1], pair] = kv[2]
            }
        }
        END {
            nflag = 0
            for (p = 0; p < pairs; p++) if (p in flagged) nflag++
            printf "%-16s %14s %10s %14s %10s %6s %9s\n", workload, "parent_median", "iqr", "change_median", "iqr", "wins", "ratio" > "/dev/stderr"
            body = ""
            for (m = 1; m <= nm; m++) {
                name = order[m]
                wins = 0
                for (p = 0; p < pairs; p++) {
                    a[p + 1] = val["parent", name, p]
                    b[p + 1] = val["change", name, p]
                    if (name in better) {
                        if (better[name] == "higher" ? b[p + 1] > a[p + 1] : b[p + 1] < a[p + 1]) wins++
                    }
                }
                pm = quantile(a, pairs, 0.5); piqr = quantile(a, pairs, 0.75) - quantile(a, pairs, 0.25)
                cm = quantile(b, pairs, 0.5); ciqr = quantile(b, pairs, 0.75) - quantile(b, pairs, 0.25)
                ratio = pm != 0 ? cm / pm : 0
                shown = (name in better) ? wins "/" pairs : "-"
                printf "%-16s %14.6g %10.4g %14.6g %10.4g %6s %9.4f\n", name, pm, piqr, cm, ciqr, shown, ratio > "/dev/stderr"
                body = body sprintf("%s\"%s\":{\"parent_median\":%.6g,\"parent_iqr\":%.6g,\"change_median\":%.6g,\"change_iqr\":%.6g%s}", \
                    m > 1 ? "," : "", name, pm, piqr, cm, ciqr, (name in better) ? sprintf(",\"change_wins\":%d", wins) : "")
            }
            printf "%d of %d pairs flagged for steal time above 1%% (largest: %.2f%%)\n", nflag, pairs, max_steal > "/dev/stderr"
            printf "{\"name\":\"cqabench_ab\",\"schema\":1,\"metrics\":{\"workload\":\"%s\",\"commit\":\"%s\",\"parent\":\"%s\",\"seed\":1,\"seconds\":%s,\"pairs\":%d,\"steal_flagged_pairs\":%d,\"max_steal_percent\":%.2f,\"end_to_end\":{%s}}}\n", \
                workload, change_rev, parent_rev, seconds, pairs, nflag, max_steal, body
        }' "$tmp/runs"
done

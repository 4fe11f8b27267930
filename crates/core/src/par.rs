//! Execution options and statistics for the parallel, filter-and-refine
//! evaluator.
//!
//! Two independent switches, both defaulting to "on":
//!
//! * **Parallelism** ([`ExecOptions::threads`]): operators fan their outer
//!   tuple loop out over the deterministic chunked executor in
//!   [`cqa_num::par`]. Results are bit-identical for every thread count.
//! * **Cheap filter** ([`ExecOptions::bbox_filter`]): operators consult
//!   conservative [`cqa_constraints::QuickBox`] bounds before running
//!   exact (big-rational) satisfiability. For `select` and `join` the
//!   filter only skips work whose outcome is already decided, so output
//!   is bit-identical with the filter off; for `difference` it prunes
//!   provably-redundant subtrahends, which preserves semantics but may
//!   simplify the syntactic output.
//!
//! [`ExecStats`] holds one atomic cell per [`ExecCounter`] (a row of the
//! counter table below), so the counters work under the parallel executor.

use crate::governor::Governor;
use std::sync::atomic::{AtomicU64, Ordering};

pub use cqa_num::par::{
    effective_threads, map_chunks, try_flat_map_chunks, try_map_chunks, CancelToken, Cancelled,
};

/// Evaluation knobs, threaded from the shell/driver down to operators.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for operator-level data parallelism; `0` means all
    /// hardware threads.
    pub threads: usize,
    /// Whether operators run the cheap bounding-box filter before exact
    /// constraint arithmetic.
    pub bbox_filter: bool,
    /// Cancellation token, wall-clock deadline, and resource budgets.
    /// Defaults to unlimited — a plain run never observes it.
    pub governor: Governor,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { threads: 0, bbox_filter: true, governor: Governor::default() }
    }
}

impl ExecOptions {
    /// The pre-parallelism baseline: one thread, no filtering. Useful as
    /// the reference side of determinism checks and benchmarks.
    pub fn serial() -> ExecOptions {
        ExecOptions { threads: 1, bbox_filter: false, ..ExecOptions::default() }
    }

    /// Default options with an explicit thread count.
    pub fn with_threads(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    /// The resolved worker count (`0` → hardware parallelism).
    pub fn effective_threads(&self) -> usize {
        effective_threads(self.threads)
    }
}

/// How an executor counter combines across workers, plan nodes, and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// An event count: summed, a registry counter.
    Sum,
    /// A high-water mark: maxed, a registry gauge.
    Max,
}

/// Declares [`ExecCounter`] and its table, one row per counter:
/// `Variant: "field" => "registry.name", Kind;`.
macro_rules! exec_counters {
    ($($(#[$doc:meta])* $variant:ident: $field:literal => $registry:literal, $kind:ident;)+) => {
        /// An executor counter, defined by its row in the counter table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum ExecCounter {
            $($(#[$doc])* $variant,)+
        }

        /// Number of executor counters.
        pub const N_COUNTERS: usize = [$($field),+].len();

        impl ExecCounter {
            /// Every counter, in table order.
            pub const ALL: [ExecCounter; N_COUNTERS] = [$(ExecCounter::$variant),+];
            const TABLE: [(&'static str, &'static str, CounterKind); N_COUNTERS] =
                [$(($field, $registry, CounterKind::$kind)),+];
        }
    };
}

// The one definition of each executor counter. Adding a counter is one
// row here plus its increment site: stats, registry flush, traces, JSON,
// trace identity, and span payloads all iterate this table.
exec_counters! {
    /// Candidates checked by the bounding-box filter.
    FilterChecked: "filter_checked" => "exec.filter.checked", Sum;
    /// Candidates the filter rejected before exact arithmetic.
    FilterRejected: "filter_rejected" => "exec.filter.rejected", Sum;
    /// Peak intermediate atom count of any Fourier–Motzkin elimination.
    FmPeakAtoms: "fm_peak_atoms" => "exec.fm.peak_atoms", Max;
    /// Fourier–Motzkin runs (satisfiability checks and projections),
    /// each counted once, whether or not the loop hands it to intervals.
    FmCalls: "fm_calls" => "exec.fm.calls", Sum;
    /// Of `exec.fm.calls`, those handed to per-variable intervals: the
    /// working system was a box on entry or became one while variables
    /// remained.
    FmIntervalCalls: "fm_interval_calls" => "exec.fm.interval_calls", Sum;
    /// Index-assisted selection probes.
    IndexProbes: "index_probes" => "exec.index.probes", Sum;
    /// R*-tree nodes visited by those probes.
    IndexAccesses: "index_accesses" => "exec.index.accesses", Sum;
    /// Join candidate pairs enumerated (after hash pre-bucketing).
    PairsEnumerated: "pairs_enumerated" => "exec.join.pairs_enumerated", Sum;
    /// Conjunctions built by difference's DNF negation expansion.
    DnfConjunctions: "dnf_conjunctions" => "exec.dnf.conjunctions", Sum;
}

impl ExecCounter {
    /// Short name: the trace-JSON, span-payload, and trace-identity key.
    pub fn field(self) -> &'static str {
        Self::TABLE[self as usize].0
    }

    /// Name in the global `cqa-obs` metrics registry.
    pub fn registry(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// How this counter combines.
    pub fn kind(self) -> CounterKind {
        Self::TABLE[self as usize].2
    }
}

/// Per-run (or per-plan-node, in traces) executor counters, one atomic
/// cell per [`ExecCounter`]. Every counter is order-independent (sums and
/// maxes), so any thread count gives a serial run's values; the run's
/// totals reach the global registry once, via [`ExecStats::flush_global`].
#[derive(Debug, Default)]
pub struct ExecStats {
    cells: [AtomicU64; N_COUNTERS],
}

impl ExecStats {
    /// Fresh zeroed counters.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Records `n` into `c`: added to a `Sum` counter, maxed into a `Max`
    /// one.
    pub fn add(&self, c: ExecCounter, n: u64) {
        match c.kind() {
            CounterKind::Sum => self.cell(c).fetch_add(n, Ordering::Relaxed),
            CounterKind::Max => self.cell(c).fetch_max(n, Ordering::Relaxed),
        };
    }

    /// `c`'s current value.
    pub fn get(&self, c: ExecCounter) -> u64 {
        self.cell(c).load(Ordering::Relaxed)
    }

    /// Every counter's current value, in table order.
    pub fn values(&self) -> [u64; N_COUNTERS] {
        ExecCounter::ALL.map(|c| self.get(c))
    }

    /// `c`'s cell, for recorders that take a raw atomic (the
    /// Fourier–Motzkin budget, DNF expansion).
    pub(crate) fn cell(&self, c: ExecCounter) -> &AtomicU64 {
        &self.cells[c as usize]
    }

    /// Folds another counter set into this one, each counter by its kind.
    pub fn absorb(&self, other: &ExecStats) {
        for c in ExecCounter::ALL {
            self.add(c, other.get(c));
        }
    }

    /// Mirrors this run's totals into the global `cqa-obs` registry under
    /// each counter's registry name. A no-op when global metrics are
    /// disabled — the run-local counters still work, so traces and
    /// `\stats` are unaffected by the flag.
    pub fn flush_global(&self) {
        if !cqa_obs::metrics_enabled() {
            return;
        }
        // Registry handles, registered once per process.
        enum Sink {
            Counter(&'static cqa_obs::Counter),
            Gauge(&'static cqa_obs::Gauge),
        }
        static SINKS: std::sync::OnceLock<[Sink; N_COUNTERS]> = std::sync::OnceLock::new();
        let sinks = SINKS.get_or_init(|| {
            ExecCounter::ALL.map(|c| match c.kind() {
                CounterKind::Sum => Sink::Counter(cqa_obs::counter(c.registry())),
                CounterKind::Max => Sink::Gauge(cqa_obs::gauge(c.registry())),
            })
        });
        for (sink, c) in sinks.iter().zip(ExecCounter::ALL) {
            match sink {
                Sink::Counter(m) => m.add(self.get(c)),
                Sink::Gauge(m) => m.record_max(self.get(c)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_serial() {
        let d = ExecOptions::default();
        assert_eq!(d.threads, 0);
        assert!(d.bbox_filter);
        assert!(d.effective_threads() >= 1);
        let s = ExecOptions::serial();
        assert_eq!(s.threads, 1);
        assert!(!s.bbox_filter);
        assert_eq!(ExecOptions::with_threads(3).threads, 3);
    }

    #[test]
    fn stats_count_and_absorb() {
        use ExecCounter::{FilterChecked, FilterRejected};
        let s = ExecStats::new();
        s.add(FilterChecked, 3);
        s.add(FilterRejected, 2);
        assert_eq!(s.get(FilterChecked), 3);
        assert_eq!(s.get(FilterRejected), 2);
        let t = ExecStats::new();
        t.add(FilterChecked, 1);
        t.add(FilterRejected, 1);
        t.absorb(&s);
        assert_eq!(t.get(FilterChecked), 4);
        assert_eq!(t.get(FilterRejected), 3);
    }

    #[test]
    fn fm_peak_is_a_gauge() {
        let s = ExecStats::new();
        s.cell(ExecCounter::FmPeakAtoms).fetch_max(7, Ordering::Relaxed);
        let t = ExecStats::new();
        t.cell(ExecCounter::FmPeakAtoms).fetch_max(3, Ordering::Relaxed);
        t.absorb(&s);
        assert_eq!(t.get(ExecCounter::FmPeakAtoms), 7, "absorb takes the max, not the sum");
    }

    #[test]
    fn every_counter_absorbs_and_flushes_by_kind() {
        for c in ExecCounter::ALL {
            let (a, b) = (ExecStats::new(), ExecStats::new());
            a.add(c, 7);
            b.add(c, 3);
            b.absorb(&a);
            let want = if c.kind() == CounterKind::Sum { 10 } else { 7 };
            assert_eq!(b.get(c), want, "{} absorbs by its kind", c.field());
            assert_eq!(b.values().iter().sum::<u64>(), want, "{} stays in its cell", c.field());
            // A registry lookup of the wrong kind reads 0; other tests may
            // flush concurrently, so counters are checked for growth.
            let before = cqa_obs::snapshot();
            b.flush_global();
            let moved = cqa_obs::snapshot().delta(&before);
            let landed = match c.kind() {
                CounterKind::Sum => moved.counter(c.registry()) >= want,
                CounterKind::Max => moved.gauge(c.registry()) >= want,
            };
            assert!(landed, "{} lands in the registry as a {:?} row", c.registry(), c.kind());
        }
    }
}

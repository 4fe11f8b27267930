//! Lock-light process-global metrics registry.
//!
//! Naming scheme: `layer.object.metric` in lowercase snake case, e.g.
//! `exec.filter.checked`, `index.rstar.node_accesses`,
//! `storage.pool.io_retries`. The registry is a `BTreeMap` keyed by name,
//! so snapshots are deterministically sorted.
//!
//! Cost model:
//! * registration ([`counter`]/[`gauge`]/[`histogram`]) takes the registry
//!   lock and leaks one allocation the first time a name is seen — call
//!   sites cache the `&'static` handle in a `OnceLock` so this happens
//!   once per process, not per event;
//! * recording is a relaxed atomic add/max with no lock;
//! * hot paths guard recording behind [`metrics_enabled`], one relaxed
//!   load, so the disabled configuration costs a predictable branch.
//!
//! Histograms come in two flavors. Plain histograms measure workload
//! quantities (rows, atoms) that are pure functions of the input and
//! belong in golden snapshots. *Timing* histograms
//! ([`timing_histogram`]) measure wall-clock (query latency): their
//! counts are deterministic but their sums are not, so
//! [`Snapshot::canonical`] prints only the count and the Prometheus
//! canonical exporter skips them entirely.

use crate::error::ObsError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Monotonic counter (combined across sources by sum).
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Fresh zeroed counter (for local, non-registered use).
    pub const fn new() -> Counter {
        Counter { v: AtomicU64::new(0) }
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// High-water-mark gauge (combined across sources by max).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// Fresh zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge { v: AtomicU64::new(0) }
    }

    /// Raises the gauge to at least `n`.
    pub fn record_max(&self, n: u64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: powers of two up to 2^30, plus a final
/// overflow bucket. Bucket 0 is always empty (0 records into bucket 1);
/// bucket `i ≥ 1` counts observations in `[2^(i-1), 2^i)`, so its
/// inclusive upper bound is `2^i − 1`; the last bucket absorbs everything
/// at or above `2^(BUCKETS-2)`. 32 buckets cover microsecond latencies
/// from sub-µs up past 17 minutes, which is what the per-query latency
/// histograms need.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The inclusive upper bound of bucket `i` (`0` for bucket 0, `2^i − 1`
/// for interior buckets, `u64::MAX` for the overflow bucket). Exact for
/// integer observations, which is what makes the Prometheus `le` labels
/// honest.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Quantile estimate over a bucket array: the inclusive upper bound of
/// the first bucket whose cumulative count reaches rank `ceil(q·count)`.
/// `None` when the histogram is empty. The estimate is exact at bucket
/// boundaries and otherwise overshoots by less than the bucket width
/// (a factor of 2), which is the usual power-of-two-histogram contract.
pub fn quantile_from_buckets(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> Option<u64> {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cum += b;
        if cum >= rank {
            return Some(bucket_upper_bound(i));
        }
    }
    Some(u64::MAX)
}

/// Fixed-bucket (power-of-two) histogram of `u64` observations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Fresh empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        // v < 2^i picks bucket i; 65-v.leading_zeros() would overflow the
        // array for huge v, so clamp into the overflow bucket.
        let idx = ((64 - u64::leading_zeros(v | 1)) as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate instead of wrapping: a long-lived process recording
        // near-u64::MAX observations should pin the sum at the ceiling,
        // not silently restart it.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(v)));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (bucket `i ≥ 1` holds observations in
    /// `[2^(i-1), 2^i)`, with 0 landing in bucket 1 and the last bucket
    /// holding everything ≥ 2^(BUCKETS-2)).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Quantile estimate (see [`quantile_from_buckets`]); `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.buckets(), q)
    }

    /// Resets all buckets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram { h: &'static Histogram, timing: bool },
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram { .. } => "histogram",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(true);

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REG: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

// A poisoned registry lock means some thread panicked mid-registration;
// the map holds only `&'static` handles and atomics, all of which are
// valid regardless, so recover the guard instead of cascading the panic
// through every metrics call site.
fn lock_registry() -> MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether global-metric recording is on (call sites should check this
/// before recording on hot paths). Defaults to enabled. This is the
/// master telemetry switch: the exec layer also gates event-log emission
/// on it, so "metrics off" means the whole enabled-path is off.
pub fn metrics_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global-metric recording on or off.
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Registers (or fetches) the counter named `name`, reporting a kind
/// clash as a typed error. The handle is `'static`: cache it, don't call
/// this per event.
pub fn try_counter(name: &'static str) -> Result<&'static Counter, ObsError> {
    let mut reg = lock_registry();
    match reg.entry(name).or_insert_with(|| Metric::Counter(Box::leak(Box::default()))) {
        Metric::Counter(c) => Ok(c),
        other => Err(ObsError::MetricKindMismatch {
            name,
            registered: other.kind(),
            requested: "counter",
        }),
    }
}

/// Registers (or fetches) the gauge named `name`, reporting a kind clash
/// as a typed error.
pub fn try_gauge(name: &'static str) -> Result<&'static Gauge, ObsError> {
    let mut reg = lock_registry();
    match reg.entry(name).or_insert_with(|| Metric::Gauge(Box::leak(Box::default()))) {
        Metric::Gauge(g) => Ok(g),
        other => Err(ObsError::MetricKindMismatch {
            name,
            registered: other.kind(),
            requested: "gauge",
        }),
    }
}

fn try_histogram_inner(
    name: &'static str,
    timing: bool,
) -> Result<&'static Histogram, ObsError> {
    let mut reg = lock_registry();
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Histogram { h: Box::leak(Box::default()), timing })
    {
        // The timing flag is fixed at first registration; later fetches
        // under either flavor return the same handle.
        Metric::Histogram { h, .. } => Ok(h),
        other => Err(ObsError::MetricKindMismatch {
            name,
            registered: other.kind(),
            requested: "histogram",
        }),
    }
}

/// Registers (or fetches) the histogram named `name`, reporting a kind
/// clash as a typed error.
pub fn try_histogram(name: &'static str) -> Result<&'static Histogram, ObsError> {
    try_histogram_inner(name, false)
}

/// Registers (or fetches) the *timing* histogram named `name`: same data
/// structure, but flagged so canonical/golden renderings omit its
/// wall-clock-dependent sum (see the module docs).
pub fn try_timing_histogram(name: &'static str) -> Result<&'static Histogram, ObsError> {
    try_histogram_inner(name, true)
}

/// Infallible [`try_counter`]: a kind clash is a programming error at a
/// static call site, so it panics with the typed error's message.
pub fn counter(name: &'static str) -> &'static Counter {
    try_counter(name).unwrap_or_else(|e| panic!("{}", e))
}

/// Infallible [`try_gauge`] (panics on kind clash).
pub fn gauge(name: &'static str) -> &'static Gauge {
    try_gauge(name).unwrap_or_else(|e| panic!("{}", e))
}

/// Infallible [`try_histogram`] (panics on kind clash).
pub fn histogram(name: &'static str) -> &'static Histogram {
    try_histogram(name).unwrap_or_else(|e| panic!("{}", e))
}

/// Infallible [`try_timing_histogram`] (panics on kind clash).
pub fn timing_histogram(name: &'static str) -> &'static Histogram {
    try_timing_histogram(name).unwrap_or_else(|e| panic!("{}", e))
}

/// Resets every registered metric to zero (the registry itself — names
/// and handles — survives).
pub fn reset_metrics() {
    let reg = lock_registry();
    for m in reg.values() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram { h, .. } => h.reset(),
        }
    }
}

/// One metric's value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge high-water mark.
    Gauge(u64),
    /// Histogram count, sum, and per-bucket counts (boxed to keep the
    /// enum small next to the word-sized variants). `timing` marks
    /// wall-clock histograms whose sums are excluded from canonical
    /// renderings.
    Histogram { count: u64, sum: u64, buckets: Box<[u64; HISTOGRAM_BUCKETS]>, timing: bool },
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    entries: Vec<(&'static str, MetricValue)>,
}

/// Captures the current value of every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = lock_registry();
    let entries = reg
        .iter()
        .map(|(name, m)| {
            let v = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram { h, timing } => MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: Box::new(h.buckets()),
                    timing: *timing,
                },
            };
            (*name, v)
        })
        .collect();
    Snapshot { entries }
}

impl Snapshot {
    /// The captured `(name, value)` pairs, sorted by name.
    pub fn entries(&self) -> &[(&'static str, MetricValue)] {
        &self.entries
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Convenience: a counter's value, or 0 when absent/not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: a gauge's value, or 0 when absent/not a gauge.
    pub fn gauge(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: a histogram's quantile, or `None` when the metric is
    /// absent, not a histogram, or empty.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Histogram { buckets, .. }) => quantile_from_buckets(buckets, q),
            _ => None,
        }
    }

    /// What moved since `prev`: counters and histogram counts, sums, and
    /// buckets become increments over `prev` (saturating at zero across a
    /// reset); gauges keep their absolute high-water mark. A metric absent
    /// from `prev` moved by its whole value. This is the shell's `\top`.
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        use MetricValue::{Counter, Histogram};
        let entries = self.entries.iter().map(|(name, v)| {
            let moved = match (v, prev.get(name)) {
                (Counter(n), Some(Counter(p))) => Counter(n.saturating_sub(*p)),
                (
                    Histogram { count, sum, buckets, timing },
                    Some(Histogram { count: c0, sum: s0, buckets: b0, .. }),
                ) => Histogram {
                    count: count.saturating_sub(*c0),
                    sum: sum.saturating_sub(*s0),
                    buckets: Box::new(std::array::from_fn(|i| buckets[i].saturating_sub(b0[i]))),
                    timing: *timing,
                },
                _ => v.clone(),
            };
            (*name, moved)
        });
        Snapshot { entries: entries.collect() }
    }

    /// Human-readable one-metric-per-line rendering (sorted by name).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.entries {
            match v {
                MetricValue::Counter(n) => {
                    let _ = writeln!(out, "{:<40} {}", name, n);
                }
                MetricValue::Gauge(n) => {
                    let _ = writeln!(out, "{:<40} {} (gauge)", name, n);
                }
                MetricValue::Histogram { count, sum, buckets, .. } => {
                    let mean = if *count > 0 { *sum as f64 / *count as f64 } else { 0.0 };
                    let _ = write!(
                        out,
                        "{:<40} count={} sum={} mean={:.1}",
                        name, count, sum, mean
                    );
                    if let (Some(p50), Some(p95), Some(p99)) = (
                        quantile_from_buckets(buckets, 0.50),
                        quantile_from_buckets(buckets, 0.95),
                        quantile_from_buckets(buckets, 0.99),
                    ) {
                        let _ = write!(out, " p50<={} p95<={} p99<={}", p50, p95, p99);
                    }
                    let _ = writeln!(out, " (histogram)");
                }
            }
        }
        out
    }

    /// Canonical deterministic form for golden-snapshot diffs: counters,
    /// gauges, and histogram counts/sums — everything here is a pure
    /// function of the workload (no wall-clock; timing histograms print
    /// only their deterministic count).
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.entries {
            match v {
                MetricValue::Counter(n) => {
                    let _ = writeln!(out, "counter {} {}", name, n);
                }
                MetricValue::Gauge(n) => {
                    let _ = writeln!(out, "gauge {} {}", name, n);
                }
                MetricValue::Histogram { count, timing: true, .. } => {
                    let _ = writeln!(out, "histogram {} count={}", name, count);
                }
                MetricValue::Histogram { count, sum, .. } => {
                    let _ = writeln!(out, "histogram {} count={} sum={}", name, count, sum);
                }
            }
        }
        out
    }

    /// The snapshot as a JSON object, `{"name": value, ...}` with
    /// histograms as nested objects. Keys are sorted (registry order).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let mut obj: Vec<(String, Json)> = Vec::new();
        for (name, v) in &self.entries {
            let val = match v {
                MetricValue::Counter(n) => Json::from_u64(*n),
                MetricValue::Gauge(n) => Json::from_u64(*n),
                MetricValue::Histogram { count, sum, buckets, .. } => Json::Obj(vec![
                    ("count".into(), Json::from_u64(*count)),
                    ("sum".into(), Json::from_u64(*sum)),
                    (
                        "buckets".into(),
                        Json::Arr(buckets.iter().map(|b| Json::from_u64(*b)).collect()),
                    ),
                ]),
            };
            obj.push((name.to_string(), val));
        }
        Json::Obj(obj)
    }

    /// JSON text rendering of [`Snapshot::to_json`].
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_record() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.record_max(5);
        g.record_max(2);
        assert_eq!(g.get(), 5);

        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let b = h.buckets();
        assert_eq!(b.iter().sum::<u64>(), 6);
        assert_eq!(b[0], 0, "bucket 0 is always empty");
        assert_eq!(b[1], 2, "0 and 1 land in the lowest occupied bucket");
        assert_eq!(b[HISTOGRAM_BUCKETS - 1], 1, "u64::MAX overflows into the last bucket");
    }

    #[test]
    fn histogram_sum_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(7);
        assert_eq!(h.sum(), u64::MAX, "sum pins at the ceiling instead of wrapping");
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantiles_hit_bucket_boundaries() {
        // Empty histogram: no quantile.
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);

        // Ten observations of exactly 8 (bucket 4, bound 15): every
        // quantile reports that bucket's inclusive upper bound.
        for _ in 0..10 {
            h.record(8);
        }
        assert_eq!(h.quantile(0.0), Some(15));
        assert_eq!(h.quantile(0.5), Some(15));
        assert_eq!(h.quantile(1.0), Some(15));

        // Boundary split: 50 obs at 1 (bucket 1, bound 1), 50 at 1000
        // (bucket 10, bound 1023). p50's rank (50) lands exactly on the
        // last observation of the low bucket; anything above crosses.
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..50 {
            h.record(1000);
        }
        assert_eq!(h.quantile(0.50), Some(1));
        assert_eq!(h.quantile(0.51), Some(1023));
        assert_eq!(h.quantile(0.95), Some(1023));

        // All-zero observations stay in bucket 1 with bound 1.
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.99), Some(1));

        // Overflow bucket reports the open-ended bound.
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn bucket_bounds_are_inclusive_and_exact() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(4), 15);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every interior bound is the largest value its bucket accepts.
        let h = Histogram::new();
        h.record(15);
        assert_eq!(h.buckets()[4], 1);
        let h = Histogram::new();
        h.record(16);
        assert_eq!(h.buckets()[5], 1);
    }

    #[test]
    fn registry_roundtrip_and_snapshot_sorted() {
        let c = counter("test.registry.alpha");
        let g = gauge("test.registry.beta");
        let h = histogram("test.registry.gamma");
        c.add(7);
        g.record_max(9);
        h.record(3);
        // Same handle on re-registration.
        assert!(std::ptr::eq(c, counter("test.registry.alpha")));
        // Kind clashes surface as typed errors (and the infallible
        // wrappers panic with the same message).
        let err = try_gauge("test.registry.alpha").unwrap_err();
        assert_eq!(
            err,
            ObsError::MetricKindMismatch {
                name: "test.registry.alpha",
                registered: "counter",
                requested: "gauge",
            }
        );
        let snap = snapshot();
        assert_eq!(snap.counter("test.registry.alpha"), 7);
        assert_eq!(snap.gauge("test.registry.beta"), 9);
        let names: Vec<_> = snap.entries().iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot is name-sorted");
        assert!(snap.render_text().contains("test.registry.alpha"));
        assert!(snap.canonical().contains("counter test.registry.alpha 7"));
        // JSON parses back.
        let parsed = crate::json::parse(&snap.render_json()).unwrap();
        assert!(parsed.get("test.registry.alpha").is_some());
    }

    #[test]
    fn delta_reports_what_moved_between_snapshots() {
        let c = counter("test.delta.work");
        gauge("test.delta.peak").record_max(4);
        let prev = snapshot();
        c.add(10);
        histogram("test.delta.sizes").record(3);
        let cur = snapshot();
        let d = cur.delta(&prev);
        assert_eq!(d.counter("test.delta.work"), 10, "the increment after the baseline");
        assert_eq!(d.gauge("test.delta.peak"), 4, "gauges stay absolute");
        assert!(matches!(d.get("test.delta.sizes"), Some(MetricValue::Histogram { count: 1, sum: 3, .. })));
        assert_eq!(cur.delta(&cur).counter("test.delta.work"), 0, "nothing moved");
    }

    #[test]
    fn timing_histograms_hide_sums_from_canonical() {
        let h = timing_histogram("test.registry.latency");
        h.record(1234);
        let snap = snapshot();
        let canon = snap.canonical();
        let line = canon
            .lines()
            .find(|l| l.contains("test.registry.latency"))
            .expect("timing histogram present");
        assert_eq!(line, "histogram test.registry.latency count=1");
        assert!(!line.contains("sum="), "wall-clock sum is excluded");
        assert_eq!(snap.histogram_quantile("test.registry.latency", 0.5), Some(2047));
    }

    #[test]
    fn enable_flag_toggles() {
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
        set_metrics_enabled(true);
    }
}

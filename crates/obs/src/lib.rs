//! Unified observability layer for the CQA/CDB stack.
//!
//! The paper's "lessons learned" are empirical: §5's indexing comparison
//! (one multidimensional R*-tree vs. separate 1-D indices) exists only
//! because CQA/CDB could *measure* page accesses and probe costs per
//! operator. This crate is the measurement substrate the rest of the
//! workspace records into, plus the export surfaces that let those
//! measurements leave the process:
//!
//! * [`metrics`] — a process-global registry of named atomic counters,
//!   gauges, and fixed-bucket histograms (quantile-capable). Registration
//!   takes a lock once per call site (call sites cache the returned
//!   `&'static` handle); recording is a relaxed atomic op guarded by one
//!   relaxed flag load, so a disabled registry costs a branch.
//! * [`span`] — structured spans (FM elimination calls, index probes,
//!   buffer-pool page accesses, plan nodes) recorded into a bounded ring
//!   buffer. Spans carry a deterministic sequence number and payload
//!   counters; wall-time lives in a field excluded from the determinism
//!   digest, so traced runs compare bit-identical across thread counts.
//! * [`json`] — a minimal JSON writer/parser (no external deps) used by
//!   `\trace json`, `\metrics`, the bench bins' `BENCH_*.json`, the
//!   event log, and flight dumps.
//! * [`prom`] — Prometheus text-format exposition of a snapshot
//!   (`\metrics export` and the `--telemetry-port` listener).
//! * [`eventlog`] — JSONL query event log with size-based rotation.
//! * [`flight`] — crash-forensics dumps (panic hook / governor abort).
//! * [`http`] — minimal blocking TCP listener serving `GET /metrics`.
//! * [`error`] — the layer's typed errors ([`ObsError`], [`JsonError`]).
//!
//! Nothing here depends on the rest of the workspace; every other crate
//! may depend on `cqa-obs`.

pub mod error;
pub mod eventlog;
pub mod flight;
pub mod http;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod span;

pub use error::{JsonError, ObsError};
pub use metrics::{
    counter, gauge, histogram, metrics_enabled, reset_metrics, set_metrics_enabled, snapshot,
    timing_histogram, Counter, Gauge, Histogram, Snapshot,
};
pub use span::{
    drain_spans, peek_spans, record_span, reset_spans, set_span_capacity, set_spans_enabled,
    spans_enabled, Span, SpanTrace,
};

/// FNV-1a hash of a byte string. Used for query-text hashes in the event
/// log (stable across runs and platforms, unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes tests that mutate process-global obs state (the span ring,
/// the flight recorder): `cargo test` runs tests on parallel threads, so
/// exact-count assertions over shared rings must not interleave.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Stable across calls (the event log relies on this for joining
        // start/finish records of the same query text).
        assert_eq!(super::fnv1a(b"select x from R"), super::fnv1a(b"select x from R"));
    }
}

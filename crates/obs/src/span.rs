//! Structured span tracing into a bounded ring buffer.
//!
//! A [`Span`] is one completed unit of instrumented work: a plan node, an
//! FM elimination call, an R*-tree probe, a buffer-pool page access. Each
//! span carries a kind, a label, payload counters, and two orthogonal
//! orderings:
//!
//! * `seq` — a deterministic sequence number assigned at record time.
//!   Span-producing sites sit on the *serial spine* of evaluation (plan
//!   nodes evaluate one after another; project's elimination loop, index
//!   probes, and buffer-pool accesses are single-threaded), while the
//!   parallel inner loops contribute only order-independent counters
//!   *into* the enclosing span. Consequently the sequence of recorded
//!   spans — and the trace digest — is bit-identical across thread
//!   counts.
//! * `elapsed_ns` — wall time, excluded from [`Span::identity`] and the
//!   determinism digest (time is the one thing that legitimately varies
//!   between runs).
//!
//! The ring is bounded ([`set_span_capacity`], default 4096): on
//! overflow the oldest span is dropped and a drop count kept, so a
//! pathological traced run degrades to "most recent window" instead of
//! unbounded memory.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Default ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// One completed instrumented unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Deterministic sequence number (record order on the serial spine).
    pub seq: u64,
    /// Site kind, e.g. `exec.node`, `fm.eliminate`, `index.probe`,
    /// `storage.page`.
    pub kind: &'static str,
    /// Human label (operator name, page id, relation name…).
    pub label: String,
    /// Wall time in nanoseconds. Excluded from [`Span::identity`].
    pub elapsed_ns: u64,
    /// Payload counters, in recording order (e.g. `rows`, `atoms_in`).
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// A counter's value, or `None` when the span didn't record it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Canonical identity string: everything except wall time. Two runs
    /// of the same workload produce identical identities regardless of
    /// thread count.
    pub fn identity(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{}#{} {:?}", self.kind, self.seq, self.label);
        for (name, v) in &self.counters {
            let _ = write!(out, " {}={}", name, v);
        }
        out
    }
}

/// A drained copy of the ring: spans in sequence order plus how many were
/// dropped to the capacity bound.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    /// Retained spans, ascending `seq`.
    pub spans: Vec<Span>,
    /// Spans evicted because the ring was full.
    pub dropped: u64,
}

impl SpanTrace {
    /// Deterministic digest of the whole trace (identities only — no
    /// wall time), for cross-thread-count comparisons.
    pub fn identity(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.identity());
            out.push('\n');
        }
        if self.dropped > 0 {
            out.push_str(&format!("dropped {}\n", self.dropped));
        }
        out
    }
}

struct Ring {
    spans: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring { spans: VecDeque::new(), capacity: DEFAULT_SPAN_CAPACITY, dropped: 0 })
    })
}

// A poisoned ring means a recording thread panicked; the ring only holds
// completed spans, which stay valid, so recover the guard. This matters
// for the flight recorder: its panic-hook dump must still be able to
// read the span tail.
fn lock_ring() -> MutexGuard<'static, Ring> {
    ring().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether span recording is on. Defaults to off — spans cost a mutex
/// push each, so only traced/analyzed runs enable them.
pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off.
pub fn set_spans_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the ring capacity (existing overflow is evicted oldest-first).
pub fn set_span_capacity(capacity: usize) {
    let mut r = lock_ring();
    r.capacity = capacity.max(1);
    while r.spans.len() > r.capacity {
        r.spans.pop_front();
        r.dropped += 1;
    }
}

/// Records one span (no-op when recording is disabled). `seq` is
/// assigned here, monotonically.
pub fn record_span(kind: &'static str, label: String, elapsed_ns: u64, counters: Vec<(&'static str, u64)>) {
    if !spans_enabled() {
        return;
    }
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let span = Span { seq, kind, label, elapsed_ns, counters };
    let mut r = lock_ring();
    if r.spans.len() >= r.capacity {
        r.spans.pop_front();
        r.dropped += 1;
    }
    r.spans.push_back(span);
}

/// Drains the ring: returns everything recorded since the last drain (or
/// [`reset_spans`]) and empties it. The drained spans are already in
/// ascending `seq` order.
pub fn drain_spans() -> SpanTrace {
    let mut r = lock_ring();
    let spans = r.spans.drain(..).collect();
    let dropped = std::mem::take(&mut r.dropped);
    SpanTrace { spans, dropped }
}

/// Copies the newest `n` spans without draining the ring. This is the
/// flight recorder's read path: a crash dump must not perturb the trace
/// an operator later drains.
pub fn peek_spans(n: usize) -> SpanTrace {
    let r = lock_ring();
    let skip = r.spans.len().saturating_sub(n);
    let spans = r.spans.iter().skip(skip).cloned().collect();
    SpanTrace { spans, dropped: r.dropped }
}

/// Empties the ring and restarts sequence numbering from zero (so two
/// identical workloads traced back-to-back produce identical traces).
pub fn reset_spans() {
    let mut r = lock_ring();
    r.spans.clear();
    r.dropped = 0;
    NEXT_SEQ.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The span ring is process-global; run the whole lifecycle in one
    // test so parallel test scheduling can't interleave ring state.
    #[test]
    fn ring_lifecycle() {
        let _guard = crate::test_guard();
        assert!(!spans_enabled(), "spans default off");
        record_span("test.kind", "ignored".into(), 1, vec![]);
        assert!(drain_spans().spans.is_empty(), "disabled recording is a no-op");

        set_spans_enabled(true);
        reset_spans();
        record_span("test.kind", "a".into(), 10, vec![("rows", 3)]);
        record_span("test.kind", "b".into(), 20, vec![("rows", 5)]);
        // Peeking is non-destructive and windows from the newest end.
        let peeked = peek_spans(1);
        assert_eq!(peeked.spans.len(), 1);
        assert_eq!(peeked.spans[0].label, "b");
        assert_eq!(peek_spans(10).spans.len(), 2);
        let t = drain_spans();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.spans[0].seq, 0);
        assert_eq!(t.spans[1].seq, 1);
        assert_eq!(t.spans[1].counter("rows"), Some(5));
        assert!(t.identity().contains("test.kind#0 \"a\" rows=3"));

        // Identity excludes wall time: same workload, different timings,
        // same digest.
        reset_spans();
        record_span("test.kind", "a".into(), 999, vec![("rows", 3)]);
        record_span("test.kind", "b".into(), 1, vec![("rows", 5)]);
        let t2 = drain_spans();
        assert_eq!(t.identity(), t2.identity());

        // Bounded: capacity 2 keeps the newest two and counts drops.
        reset_spans();
        set_span_capacity(2);
        for i in 0..5u64 {
            record_span("test.kind", format!("s{}", i), 0, vec![]);
        }
        let t = drain_spans();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.spans[0].label, "s3");
        set_span_capacity(DEFAULT_SPAN_CAPACITY);
        set_spans_enabled(false);
        reset_spans();
    }
}

//! Bottom-up plan evaluation.
//!
//! Plans are checked for safety, then evaluated by materializing each node
//! — the "efficient bottom-up evaluation strategy" of §2.2 in its simplest
//! correct form. Whole-feature operators evaluate against the catalog's
//! spatial relations and produce ordinary (finite, relational) relations
//! keyed by feature IDs, as §4 prescribes.
//!
//! Evaluation is parameterized by [`ExecOptions`]: the tuple-level
//! operators run on the deterministic chunked executor (output identical
//! for every thread count) and consult the conservative bounding-box
//! filter before exact constraint arithmetic. Base-relation scans are
//! borrowed from the catalog (`Cow`), not cloned, so a scan feeding an
//! operator costs nothing.
//!
//! There are two entries, both `(plan, catalog, opts, stats)`:
//! [`execute`] returns the relation, and [`execute_traced`] also returns
//! the per-node [`TraceNode`] tree. They share **one** evaluator: `eval`
//! takes an optional trace sink, so the traced path makes exactly the
//! physical choices (index-assisted selection included) the untraced path
//! makes — `EXPLAIN ANALYZE` reports the plan that actually runs. Per-run
//! totals flush into the global `cqa-obs` metrics registry at run end.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use crate::catalog::Catalog;
use crate::error::Result;
use crate::ops;
use crate::par::{ExecCounter, ExecOptions, ExecStats, N_COUNTERS};
use crate::plan::Plan;
use crate::relation::HRelation;
use crate::safety;
use crate::schema::{AttrDef, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use cqa_constraints::Conjunction;

/// Evaluates a plan against a catalog (after a safety check) under
/// `opts`; evaluation counters (filter hits, FM calls/peak, index probes,
/// join pairs, DNF growth) accumulate into `stats` across the whole plan.
///
/// The run is governed: the governor in `opts` is armed (deadline reset,
/// token lowered) before evaluation, operators poll its token between
/// chunks, and budget trips surface as typed errors. A run that fails
/// mid-way returns `Err` with **no** partial output — callers registering
/// results only on `Ok` observe all-or-nothing semantics.
pub fn execute(
    plan: &Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<HRelation> {
    run_plan(plan, catalog, opts, stats, None)
}

/// Per-node evaluation statistics, mirroring the plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// Operator label, including the physical choice (e.g. `Scan R`,
    /// `Select`, `Select (index [x, y])`, `Join`).
    pub label: String,
    /// Number of (syntactic) tuples this node produced.
    pub rows: usize,
    /// Wall-clock time spent in this node, *excluding* its children.
    pub elapsed: Duration,
    /// This node's executor counters, in [`ExecCounter`] table order
    /// (read through [`TraceNode::counter`]).
    counters: [u64; N_COUNTERS],
    /// Join candidate pairs enumerated: `counter(PairsEnumerated)`, kept
    /// as a field for readers of the pre-table API.
    pub pairs_enumerated: u64,
    /// Child traces in plan order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    fn from_stats(
        label: String,
        rows: usize,
        elapsed: Duration,
        stats: &ExecStats,
        children: Vec<TraceNode>,
    ) -> TraceNode {
        TraceNode {
            label,
            rows,
            elapsed,
            counters: stats.values(),
            pairs_enumerated: stats.get(ExecCounter::PairsEnumerated),
            children,
        }
    }

    /// This node's value of counter `c`.
    pub fn counter(&self, c: ExecCounter) -> u64 {
        self.counters[c as usize]
    }

    /// Rows flowing *into* this node: what its candidate pool was. For a
    /// join that is the enumerated pair count; otherwise the children's
    /// row counts summed.
    pub fn input_rows(&self) -> u64 {
        if self.pairs_enumerated > 0 {
            self.pairs_enumerated
        } else {
            self.children.iter().map(|c| c.rows as u64).sum()
        }
    }

    /// Output rows over input candidates, when the node has input.
    pub fn selectivity(&self) -> Option<f64> {
        let input = self.input_rows();
        (input > 0 && !self.children.is_empty() || self.pairs_enumerated > 0)
            .then(|| self.rows as f64 / input.max(1) as f64)
    }

    /// One line per node, children indented below: the text of both
    /// `\trace` and `EXPLAIN ANALYZE`.
    fn render(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        use ExecCounter::*;
        let c = |k| self.counter(k);
        let _ = write!(
            out,
            "{}{}  [{} row(s), {:.2?}",
            "  ".repeat(depth),
            self.label,
            self.rows,
            self.elapsed
        );
        if let Some(sel) = self.selectivity() {
            let _ = write!(out, ", selectivity {:.1}%", sel * 100.0);
        }
        if self.pairs_enumerated > 0 {
            let _ = write!(out, ", {} pair(s) enumerated", self.pairs_enumerated);
        }
        if c(FilterChecked) > 0 {
            let _ = write!(
                out,
                ", bbox filter {}/{} rejected",
                c(FilterRejected),
                c(FilterChecked)
            );
        }
        if c(IndexAccesses) > 0 {
            let _ = write!(out, ", {} index node(s) accessed", c(IndexAccesses));
        }
        if c(FmCalls) > 0 {
            let _ = write!(out, ", fm {} call(s)", c(FmCalls));
            if c(FmIntervalCalls) > 0 {
                let _ = write!(out, " ({} by interval)", c(FmIntervalCalls));
            }
            let _ = write!(out, " peak {} atom(s)", c(FmPeakAtoms));
        }
        if c(DnfConjunctions) > 0 {
            let _ = write!(out, ", dnf {} conjunction(s) built", c(DnfConjunctions));
        }
        let _ = writeln!(out, "]");
        for child in &self.children {
            child.render(out, depth + 1);
        }
    }

    /// Canonical identity of the whole trace, excluding wall time — two
    /// runs of the same workload produce identical identities regardless
    /// of thread count.
    pub fn identity(&self) -> String {
        let mut out = String::new();
        self.identity_into(&mut out, 0);
        out
    }

    fn identity_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let _ = write!(out, "{}{} rows={}", "  ".repeat(depth), self.label, self.rows);
        for c in ExecCounter::ALL {
            let _ = write!(out, " {}={}", c.field(), self.counter(c));
        }
        out.push('\n');
        for child in &self.children {
            child.identity_into(out, depth + 1);
        }
    }

    /// Machine-readable span tree (the `\trace json` payload).
    pub fn to_json(&self) -> cqa_obs::json::Json {
        use cqa_obs::json::Json;
        let counters = ExecCounter::ALL
            .iter()
            .map(|&c| (c.field().into(), Json::from_u64(self.counter(c))))
            .collect();
        Json::Obj(vec![
            ("label".into(), Json::str(self.label.clone())),
            ("rows".into(), Json::from_u64(self.rows as u64)),
            ("elapsed_ns".into(), Json::from_u64(self.elapsed.as_nanos() as u64)),
            ("counters".into(), Json::Obj(counters)),
            ("children".into(), Json::Arr(self.children.iter().map(|c| c.to_json()).collect())),
        ])
    }

    fn fold<A>(&self, acc: A, f: &impl Fn(A, &TraceNode) -> A) -> A {
        let mut acc = f(acc, self);
        for c in &self.children {
            acc = c.fold(acc, f);
        }
        acc
    }
}

impl std::fmt::Display for TraceNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.render(&mut out, 0);
        f.write_str(&out)
    }
}

/// Renders a completed trace as `EXPLAIN ANALYZE` text: the annotated
/// plan tree (per-node wall time, row counts, filter selectivity, index
/// node accesses) followed by run totals and governor budget headroom.
pub fn render_explain_analyze(trace: &TraceNode, opts: &ExecOptions) -> String {
    use std::fmt::Write as _;
    use ExecCounter::*;
    let mut out = trace.to_string();
    let total: Duration = trace.fold(Duration::ZERO, &|acc, n| acc + n.elapsed);
    // Every counter over the whole tree, each combined by its kind.
    let totals = ExecStats::new();
    trace.fold((), &|(), n| ExecCounter::ALL.into_iter().for_each(|c| totals.add(c, n.counter(c))));
    let _ = writeln!(out, "totals: {:.2?} wall, {} fm call(s)", total, totals.get(FmCalls));
    let g = &opts.governor;
    let headroom = |used: u64, limit: Option<u64>| match limit {
        Some(l) => format!("{}/{} ({}% headroom)", used, l, 100u64.saturating_sub(used * 100 / l.max(1))),
        None => format!("{}/unlimited", used),
    };
    let _ = writeln!(
        out,
        "governor: {} check(s); fm atoms {}; dnf conjunctions {}; output tuples {}",
        g.checks(),
        headroom(totals.get(FmPeakAtoms), g.budgets.max_fm_atoms),
        headroom(totals.get(DnfConjunctions), g.budgets.max_dnf_conjunctions),
        headroom(trace.rows as u64, g.budgets.max_output_tuples),
    );
    out
}

/// Evaluates a plan, also producing a per-node trace (row counts,
/// self-times, filter hit rates, index accesses) — the data behind the
/// `EXPLAIN ANALYZE` of the CQA layer. Counters accumulate into `stats`
/// (absorbed at run end, like [`execute`]).
///
/// The traced evaluator **is** the plain evaluator with a trace sink
/// attached: physical choices (index-assisted selection included) and
/// results are identical to [`execute`].
pub fn execute_traced(
    plan: &Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<(HRelation, TraceNode)> {
    let mut roots = Vec::new();
    let rel = run_plan(plan, catalog, opts, stats, Some(&mut roots))?;
    Ok((rel, roots.pop().expect("traced eval pushes exactly one root")))
}

/// The run lifecycle shared by [`execute`] and [`execute_traced`]:
/// safety check, governor arm, evaluation (with the trace sink, if any),
/// then run-end bookkeeping and telemetry.
fn run_plan(
    plan: &Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
    stats: &ExecStats,
    mut trace: Option<&mut Vec<TraceNode>>,
) -> Result<HRelation> {
    safety::check(plan)?;
    opts.governor.arm();
    let tel = QueryTelemetry::start(plan);
    let run = ExecStats::new();
    let result = eval(plan, catalog, opts, &run, trace.as_deref_mut()).map(Cow::into_owned);
    if let Ok(out) = &result {
        // Run-end bookkeeping: the run's counters, run count, output rows,
        // and governor checks into the global registry (when enabled).
        stats.absorb(&run);
        run.flush_global();
        if cqa_obs::metrics_enabled() {
            static M: std::sync::OnceLock<[&'static cqa_obs::Counter; 3]> = std::sync::OnceLock::new();
            let [runs, rows_out, checks] = M.get_or_init(|| {
                ["exec.runs", "exec.rows_out", "governor.checks"].map(cqa_obs::counter)
            });
            runs.inc();
            rows_out.add(out.len() as u64);
            checks.add(opts.governor.checks());
        }
    }
    // A failed run pushes no root, so its finish record carries no nodes.
    tel.finish(&run, opts, &result, trace.and_then(|t| t.last()));
    result
}

/// Per-query telemetry: latency into the `exec.query.latency_us` timing
/// histogram, `query_start`/`query_finish` event-log records, and
/// flight-recorder context + abort dumps.
///
/// Everything is gated on the global switches ([`cqa_obs::metrics_enabled`]
/// as the master, plus the event log's and flight recorder's own installed
/// flags), so an unconfigured process pays a few relaxed loads per query
/// and never renders the plan. Event-log emission is tied to the metrics
/// switch on purpose: "metrics off" is the measured disabled-path
/// configuration, and it must disable the whole enabled path.
struct QueryTelemetry {
    t0: Instant,
    /// Correlation id shared by this query's start and finish events.
    seq: u64,
    /// FNV-1a hash of the rendered plan (stable across runs).
    hash: u64,
    logging: bool,
    flight: bool,
}

impl QueryTelemetry {
    fn start(plan: &Plan) -> QueryTelemetry {
        use cqa_obs::json::Json;
        let logging = cqa_obs::metrics_enabled() && cqa_obs::eventlog::enabled();
        let flight = cqa_obs::flight::installed();
        let mut tel = QueryTelemetry { t0: Instant::now(), seq: 0, hash: 0, logging, flight };
        if !(logging || flight) {
            return tel;
        }
        let text = plan.to_string();
        tel.hash = cqa_obs::fnv1a(text.as_bytes());
        if flight {
            // The dump's "which query was active" payload: the rendered
            // plan tree, replaced at every query start.
            cqa_obs::flight::set_context("active_query", Json::str(text));
        }
        if logging {
            tel.seq = cqa_obs::eventlog::next_seq();
            cqa_obs::eventlog::emit(&Json::Obj(vec![
                ("event".into(), Json::str("query_start")),
                ("seq".into(), Json::from_u64(tel.seq)),
                ("ts_ms".into(), Json::from_u64(cqa_obs::eventlog::now_ms())),
                ("query_hash".into(), Json::str(format!("{:016x}", tel.hash))),
            ]));
        }
        tel
    }

    /// Records the query's latency, dumps the flight recorder on a
    /// governor abort, and emits the `query_finish` event.
    fn finish(
        &self,
        run: &ExecStats,
        opts: &ExecOptions,
        result: &Result<HRelation>,
        trace: Option<&TraceNode>,
    ) {
        use cqa_obs::json::Json;
        let latency_us = self.t0.elapsed().as_micros() as u64;
        if cqa_obs::metrics_enabled() {
            static H: std::sync::OnceLock<&'static cqa_obs::Histogram> = std::sync::OnceLock::new();
            H.get_or_init(|| cqa_obs::timing_histogram("exec.query.latency_us")).record(latency_us);
        }
        let (outcome, rows) = match result {
            Ok(rel) => ("ok", rel.len() as u64),
            Err(e) => {
                if self.flight && e.is_governor_abort() {
                    cqa_obs::flight::record_abort(&format!("governor abort: {}", e));
                }
                (e.outcome(), 0)
            }
        };
        if !self.logging {
            return;
        }
        let lim = |l: Option<u64>| l.map(Json::from_u64).unwrap_or(Json::Null);
        let counter_entry = |c: ExecCounter| (c.field().into(), Json::from_u64(run.get(c)));
        let b = &opts.governor.budgets;
        let governor = Json::Obj(vec![
            ("checks".into(), Json::from_u64(opts.governor.checks())),
            counter_entry(ExecCounter::FmPeakAtoms),
            ("max_fm_atoms".into(), lim(b.max_fm_atoms)),
            counter_entry(ExecCounter::DnfConjunctions),
            ("max_dnf_conjunctions".into(), lim(b.max_dnf_conjunctions)),
            ("output_tuples".into(), Json::from_u64(rows)),
            ("max_output_tuples".into(), lim(b.max_output_tuples)),
        ]);
        let mut fields = vec![
            ("event".into(), Json::str("query_finish")),
            ("seq".into(), Json::from_u64(self.seq)),
            ("ts_ms".into(), Json::from_u64(cqa_obs::eventlog::now_ms())),
            ("query_hash".into(), Json::str(format!("{:016x}", self.hash))),
            ("outcome".into(), Json::str(outcome)),
            ("latency_us".into(), Json::from_u64(latency_us)),
            ("rows".into(), Json::from_u64(rows)),
            ("governor".into(), governor),
        ];
        if let Some(t) = trace {
            let mut nodes = Vec::new();
            flatten_nodes(t, &mut nodes);
            fields.push(("nodes".into(), Json::Arr(nodes)));
        }
        cqa_obs::eventlog::emit(&Json::Obj(fields));
    }
}

/// Pre-order flattening of a trace into per-node event-log entries
/// (label, rows, selectivity).
fn flatten_nodes(t: &TraceNode, out: &mut Vec<cqa_obs::json::Json>) {
    use cqa_obs::json::Json;
    out.push(Json::Obj(vec![
        ("label".into(), Json::str(t.label.clone())),
        ("rows".into(), Json::from_u64(t.rows as u64)),
        ("selectivity".into(), t.selectivity().map(Json::Num).unwrap_or(Json::Null)),
    ]));
    for c in &t.children {
        flatten_nodes(c, out);
    }
}

/// The one evaluator. With `trace == None` this is plain evaluation:
/// operators record into `stats` directly. With `trace == Some(sink)`
/// each node runs against a fresh node-local counter set (absorbed into
/// `stats` afterwards, so run totals match the untraced path), is timed,
/// and pushes its [`TraceNode`] — children first, then itself — into the
/// sink. Physical plan choices are made before the mode is consulted, so
/// they cannot diverge.
fn eval<'a>(
    plan: &Plan,
    catalog: &'a Catalog,
    opts: &ExecOptions,
    stats: &ExecStats,
    trace: Option<&mut Vec<TraceNode>>,
) -> Result<Cow<'a, HRelation>> {
    let Some(parent) = trace else {
        let (_label, _elapsed, rel) = eval_node(plan, catalog, opts, stats, stats, None)?;
        // Every node — scans included — answers to the output-tuple
        // budget: a governed run bounds its intermediates wherever they
        // arise.
        opts.governor.guard_output(rel.len())?;
        return Ok(rel);
    };
    let node_stats = ExecStats::new();
    let mut children: Vec<TraceNode> = Vec::new();
    let (label, elapsed, rel) =
        eval_node(plan, catalog, opts, &node_stats, stats, Some(&mut children))?;
    let rows = rel.len();
    opts.governor.guard_output(rows)?;
    stats.absorb(&node_stats);
    let node = TraceNode::from_stats(label, rows, elapsed, &node_stats, children);
    if cqa_obs::spans_enabled() {
        cqa_obs::record_span(
            "exec.node",
            node.label.clone(),
            node.elapsed.as_nanos() as u64,
            std::iter::once(("rows", node.rows as u64))
                .chain(ExecCounter::ALL.map(|c| (c.field(), node.counter(c))))
                .collect(),
        );
    }
    parent.push(node);
    Ok(rel)
}

/// Evaluates one node: children recurse through [`eval`] (recording into
/// `child_stats` / `children_out`), the node's own operator records into
/// `op_stats`. Returns the label, the node's self-time (children
/// excluded), and the result.
fn eval_node<'a>(
    plan: &Plan,
    catalog: &'a Catalog,
    opts: &ExecOptions,
    op_stats: &ExecStats,
    child_stats: &ExecStats,
    mut children_out: Option<&mut Vec<TraceNode>>,
) -> Result<(String, Duration, Cow<'a, HRelation>)> {
    match plan {
        Plan::Scan(name) => {
            let t0 = Instant::now();
            let rel = Cow::Borrowed(catalog.get(name)?);
            Ok((format!("Scan {}", name), t0.elapsed(), rel))
        }
        Plan::SpatialScan(name) => {
            let t0 = Instant::now();
            let rel = Cow::Owned(crate::spatial_bridge::spatial_to_hrelation(
                catalog.get_spatial(name)?,
            )?);
            Ok((format!("SpatialScan {}", name), t0.elapsed(), rel))
        }
        Plan::Select { input, selection } => {
            // Index-assisted selection over a base relation: decided here,
            // before the trace mode is consulted, so traced and untraced
            // runs make the same physical choice.
            if let Plan::Scan(name) = input.as_ref() {
                let t0 = Instant::now();
                if let Some((result, via)) =
                    try_index_select(catalog, name, selection, opts, op_stats)?
                {
                    let elapsed = t0.elapsed();
                    if let Some(out) = children_out.as_deref_mut() {
                        // The scan child is never materialized on this
                        // path; synthesize its node so the trace still
                        // mirrors the logical plan.
                        let base = catalog.get(name)?;
                        out.push(TraceNode::from_stats(
                            format!("Scan {}", name),
                            base.len(),
                            Duration::ZERO,
                            &ExecStats::new(),
                            Vec::new(),
                        ));
                    }
                    return Ok((format!("Select (index [{}])", via), elapsed, Cow::Owned(result)));
                }
            }
            let rel = eval(input, catalog, opts, child_stats, children_out.as_deref_mut())?;
            let t0 = Instant::now();
            let out = ops::select(&rel, selection, opts, op_stats)?;
            Ok(("Select".to_string(), t0.elapsed(), Cow::Owned(out)))
        }
        Plan::Project { input, attrs } => {
            let rel = eval(input, catalog, opts, child_stats, children_out.as_deref_mut())?;
            let t0 = Instant::now();
            let out = ops::project(&rel, attrs, opts, op_stats)?;
            Ok((format!("Project on {}", attrs.join(", ")), t0.elapsed(), Cow::Owned(out)))
        }
        Plan::Join { left, right } => {
            let l = eval(left, catalog, opts, child_stats, children_out.as_deref_mut())?;
            let r = eval(right, catalog, opts, child_stats, children_out.as_deref_mut())?;
            let t0 = Instant::now();
            let out = ops::join(&l, &r, opts, op_stats)?;
            Ok(("Join".to_string(), t0.elapsed(), Cow::Owned(out)))
        }
        Plan::Union { left, right } => {
            let l = eval(left, catalog, opts, child_stats, children_out.as_deref_mut())?;
            let r = eval(right, catalog, opts, child_stats, children_out.as_deref_mut())?;
            let t0 = Instant::now();
            let out = ops::union(&l, &r)?;
            Ok(("Union".to_string(), t0.elapsed(), Cow::Owned(out)))
        }
        Plan::Difference { left, right } => {
            let l = eval(left, catalog, opts, child_stats, children_out.as_deref_mut())?;
            let r = eval(right, catalog, opts, child_stats, children_out.as_deref_mut())?;
            let t0 = Instant::now();
            let out = ops::difference(&l, &r, opts, op_stats)?;
            Ok(("Difference".to_string(), t0.elapsed(), Cow::Owned(out)))
        }
        Plan::Rename { input, from, to } => {
            let rel = eval(input, catalog, opts, child_stats, children_out)?;
            let t0 = Instant::now();
            let out = ops::rename(&rel, from, to)?;
            Ok((format!("Rename {} -> {}", from, to), t0.elapsed(), Cow::Owned(out)))
        }
        Plan::BufferJoin { left, right, distance } => {
            let t0 = Instant::now();
            let l = catalog.get_spatial(left)?;
            let r = catalog.get_spatial(right)?;
            let (pairs, _accesses) =
                cqa_spatial::ops::buffer_join(l, r, distance, opts.effective_threads());
            Ok((
                format!("BufferJoin {} and {}", left, right),
                t0.elapsed(),
                Cow::Owned(id_pairs_relation(pairs)),
            ))
        }
        Plan::KNearest { left, right, k } => {
            let t0 = Instant::now();
            let l = catalog.get_spatial(left)?;
            let r = catalog.get_spatial(right)?;
            let out =
                id_pairs_relation(cqa_spatial::ops::k_nearest(l, r, *k, opts.effective_threads()));
            Ok((
                format!("KNearest {} and {} k {}", left, right, k),
                t0.elapsed(),
                Cow::Owned(out),
            ))
        }
        Plan::Distance { .. } => unreachable!("rejected by the safety check"),
    }
}

/// Index-assisted selection over a base relation (the "through the use of
/// indexing" half of §1.1's optimization story): when the scanned relation
/// has an index whose attributes the selection bounds, probe it for
/// candidate tuples and run the exact selection only on those. Returns
/// `None` when no index applies; the result, when `Some`, is identical to
/// the unindexed path (the filter is conservative, the refinement exact)
/// and comes with a label describing the physical choice.
fn try_index_select(
    catalog: &Catalog,
    name: &str,
    selection: &crate::plan::Selection,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<Option<(HRelation, String)>> {
    let rel = catalog.get(name)?;
    let indexes = catalog.indexes(name);
    if indexes.is_empty() || rel.is_empty() {
        return Ok(None);
    }
    // Resolving surfaces errors exactly as the unindexed path would.
    let schema = rel.schema();
    let resolved = ops::select::resolve(schema, selection)?;

    // The probe window: the QuickBox of the selection's linear predicates
    // over every rational attribute. It encloses every point the
    // selection admits (the refinement re-checks exactly).
    let window = Conjunction::from_atoms(resolved.iter().filter_map(|r| r.window_atom(schema)))
        .quick_box(schema.arity());
    // A contradiction (x ≥ 10 ∧ x ≤ 5): no tuple can pass the selection,
    // and an inverted probe rectangle would be rejected by the index.
    // Answer directly.
    if window.is_known_empty() {
        return Ok(Some((HRelation::new(schema.clone()), "contradiction".to_string())));
    }
    let dim = |a: &String| window.dim(schema.position(a).expect("indexed attribute exists"));
    let bounded = |a: &String| dim(a) != (f64::NEG_INFINITY, f64::INFINITY);

    // Pick the index covering the most bounded attributes.
    let best = indexes.iter().max_by_key(|ix| ix.attrs().iter().filter(|a| bounded(a)).count());
    let Some(index) = best else { return Ok(None) };
    if !index.attrs().iter().any(bounded) {
        return Ok(None);
    }
    let probe: Vec<Option<(f64, f64)>> = index.attrs().iter().map(|a| Some(dim(a))).collect();
    let accesses_before = index.accesses();
    let span_start = cqa_obs::spans_enabled().then(Instant::now);
    let candidates = index.probe(&probe);
    let accesses = index.accesses() - accesses_before;
    stats.add(ExecCounter::IndexProbes, 1);
    stats.add(ExecCounter::IndexAccesses, accesses);
    let via = index.attrs().join(", ");
    if let Some(t0) = span_start {
        cqa_obs::record_span(
            "index.probe",
            format!("{} [{}]", name, via),
            t0.elapsed().as_nanos() as u64,
            vec![("accesses", accesses), ("candidates", candidates.len() as u64)],
        );
    }

    // Exact refinement on the candidates only, preserving scan order.
    let candidates: Vec<&Tuple> = candidates.into_iter().map(|i| &rel.tuples()[i]).collect();
    Ok(Some((ops::select::select_tuples(schema, &candidates, &resolved, opts, stats)?, via)))
}

/// Schema of whole-feature operator outputs: two relational string
/// attributes `id1`, `id2`.
pub fn id_pair_schema() -> Schema {
    Schema::new(vec![AttrDef::str_rel("id1"), AttrDef::str_rel("id2")])
        .expect("static schema is valid")
}

fn id_pairs_relation(pairs: Vec<(String, String)>) -> HRelation {
    let schema = id_pair_schema();
    let mut rel = HRelation::new(schema);
    for (a, b) in pairs {
        let t = Tuple::builder(rel.schema())
            .set("id1", Value::str(a))
            .set("id2", Value::str(b))
            .build()
            .expect("id pair tuple is valid");
        rel.insert(t);
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CmpOp, Predicate, Selection};
    use crate::schema::AttrKind;
    use cqa_num::Rat;
    use cqa_spatial::{Feature, Geometry, Point, SpatialRelation};

    fn run(plan: &Plan, cat: &Catalog) -> Result<HRelation> {
        execute(plan, cat, &ExecOptions::default(), &ExecStats::new())
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![
            AttrDef::str_rel("id"),
            AttrDef { name: "x".into(), ty: crate::schema::AttrType::Rat, kind: AttrKind::Constraint },
        ])
        .unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("id", "a").range("x", 0, 10)).unwrap();
        r.insert_with(|b| b.set("id", "b").range("x", 20, 30)).unwrap();
        cat.register("R", r);

        let cities = SpatialRelation::from_features([
            Feature::new("c0", Geometry::Point(Point::from_ints(0, 0))),
            Feature::new("c1", Geometry::Point(Point::from_ints(10, 0))),
        ]);
        let probes = SpatialRelation::from_features([Feature::new(
            "p",
            Geometry::Point(Point::from_ints(1, 0)),
        )]);
        cat.register_spatial("Cities", cities);
        cat.register_spatial("Probes", probes);
        cat
    }

    #[test]
    fn scan_select_project_pipeline() {
        let cat = catalog();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 5))
            .project(&["id"]);
        let out = run(&plan, &cat).unwrap();
        assert_eq!(out.len(), 2, "both intervals reach x ≥ 5");
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 15))
            .project(&["id"]);
        let out = run(&plan, &cat).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].value(0), Some(&Value::str("b")));
    }

    #[test]
    fn missing_relation_is_an_error() {
        let cat = catalog();
        assert!(run(&Plan::scan("Nope"), &cat).is_err());
        assert!(run(
            &Plan::BufferJoin { left: "Nope".into(), right: "Cities".into(), distance: Rat::one() },
            &cat
        )
        .is_err());
    }

    #[test]
    fn buffer_join_produces_id_pairs() {
        let cat = catalog();
        let plan = Plan::BufferJoin {
            left: "Probes".into(),
            right: "Cities".into(),
            distance: Rat::from_int(2),
        };
        let out = run(&plan, &cat).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out
            .contains_point(&[Value::str("p"), Value::str("c0")])
            .unwrap());
        assert!(out.schema().is_purely_relational(), "whole-feature output is traditional");
    }

    #[test]
    fn knearest_composes_with_algebra() {
        let cat = catalog();
        let plan = Plan::KNearest { left: "Probes".into(), right: "Cities".into(), k: 2 }
            .select(Selection::all().str_eq("id2", "c1"));
        let out = run(&plan, &cat).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn traced_execution_matches_and_counts() {
        let cat = catalog();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 5))
            .project(&["id"]);
        let plain = run(&plan, &cat).unwrap();
        let (traced, trace) =
            execute_traced(&plan, &cat, &ExecOptions::default(), &ExecStats::new()).unwrap();
        assert_eq!(plain, traced);
        // Trace shape mirrors the plan: Project -> Select -> Scan.
        assert!(trace.label.starts_with("Project"));
        assert_eq!(trace.rows, traced.len());
        assert_eq!(trace.children.len(), 1);
        assert!(trace.children[0].label.starts_with("Select"));
        let scan = &trace.children[0].children[0];
        assert_eq!(scan.label, "Scan R");
        assert_eq!(scan.rows, 2);
        let shown = trace.to_string();
        assert!(shown.contains("row(s)"), "{}", shown);
        // The Select node checked its residuals against the bbox filter.
        assert_eq!(trace.children[0].counter(ExecCounter::FilterChecked), 2);
        // The projection's eliminations are visible per node.
        assert!(trace.counter(ExecCounter::FmCalls) >= 1, "project runs FM per tuple");
        // Every tuple is a box, so every run was handed to intervals on entry.
        assert_eq!(trace.counter(ExecCounter::FmIntervalCalls), trace.counter(ExecCounter::FmCalls));
        assert!(shown.contains(" by interval) peak "), "{}", shown);
        // Safety still enforced.
        let bad = Plan::Distance { left: "Probes".into(), right: "Cities".into() };
        assert!(execute_traced(&bad, &cat, &ExecOptions::default(), &ExecStats::new()).is_err());
    }

    #[test]
    fn traced_run_accumulates_run_stats_like_untraced() {
        let cat = catalog();
        let plan = Plan::scan("R").select(Selection::all().cmp_int("x", CmpOp::Ge, 5));
        let plain_stats = ExecStats::new();
        execute(&plan, &cat, &ExecOptions::default(), &plain_stats).unwrap();
        let traced_stats = ExecStats::new();
        execute_traced(&plan, &cat, &ExecOptions::default(), &traced_stats).unwrap();
        assert_eq!(plain_stats.values(), traced_stats.values());
    }

    #[test]
    fn traced_and_untraced_share_the_index_path() {
        // The traced evaluator must make the same physical choice as the
        // untraced one — index-assisted selection included.
        let mut cat = catalog();
        cat.build_index("R", &["x"]).unwrap();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 15).cmp_int("x", CmpOp::Le, 40));
        let accesses_before = cat.indexes("R")[0].accesses();
        let plain = run(&plan, &cat).unwrap();
        let untraced_accesses = cat.indexes("R")[0].accesses() - accesses_before;
        assert!(untraced_accesses > 0, "untraced path probed the index");

        let stats = ExecStats::new();
        let (traced, trace) =
            execute_traced(&plan, &cat, &ExecOptions::default(), &stats).unwrap();
        let traced_accesses = cat.indexes("R")[0].accesses() - accesses_before - untraced_accesses;
        assert_eq!(plain, traced, "identical relations");
        assert_eq!(untraced_accesses, traced_accesses, "identical physical plan");
        assert!(trace.label.contains("index [x]"), "trace reports the choice: {}", trace.label);
        assert_eq!(trace.counter(ExecCounter::IndexAccesses), traced_accesses, "trace counts the probe");
        assert_eq!(stats.get(ExecCounter::IndexProbes), 1);
        // The synthesized scan child keeps the tree shape.
        assert_eq!(trace.children.len(), 1);
        assert_eq!(trace.children[0].label, "Scan R");
        // And the identity digest is stable across thread counts.
        let id1 = trace.identity();
        for threads in [1usize, 2, 8] {
            let (rel, t) = execute_traced(
                &plan,
                &cat,
                &ExecOptions::with_threads(threads),
                &ExecStats::new(),
            )
            .unwrap();
            assert_eq!(rel, traced, "threads={}", threads);
            assert_eq!(t.identity(), id1, "threads={}", threads);
        }
    }

    #[test]
    fn explain_analyze_renders_annotations() {
        let mut cat = catalog();
        cat.build_index("R", &["x"]).unwrap();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 5))
            .project(&["id"]);
        let opts = ExecOptions::default();
        let (_, trace) = execute_traced(&plan, &cat, &opts, &ExecStats::new()).unwrap();
        let text = render_explain_analyze(&trace, &opts);
        assert!(text.contains("row(s)"), "{}", text);
        assert!(text.contains("index [x]"), "{}", text);
        assert!(text.contains("index node(s) accessed"), "{}", text);
        assert!(text.contains("selectivity"), "{}", text);
        assert!(text.contains("governor:"), "{}", text);
        assert!(text.contains("unlimited"), "{}", text);
        // JSON round-trips through the obs parser.
        let json = trace.to_json().render();
        let parsed = cqa_obs::json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("label").and_then(|l| l.as_str()),
            Some(trace.label.as_str())
        );
    }

    #[test]
    fn execute_opts_matches_default_across_thread_counts() {
        let cat = catalog();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 5))
            .project(&["id"]);
        let base = run(&plan, &cat).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let stats = ExecStats::new();
            let out =
                execute(&plan, &cat, &ExecOptions::with_threads(threads), &stats).unwrap();
            assert_eq!(base, out, "threads={}", threads);
        }
        // The serial pre-parallelism baseline agrees too (filter off).
        let stats = ExecStats::new();
        let out = execute(&plan, &cat, &ExecOptions::serial(), &stats).unwrap();
        assert_eq!(base, out);
        assert_eq!(stats.get(ExecCounter::FilterChecked), 0, "serial baseline never consults the filter");
    }

    #[test]
    fn index_backed_select_matches_plain_select() {
        // A bigger relation with mixed intervals and a null.
        let schema = Schema::new(vec![
            AttrDef::str_rel("id"),
            AttrDef {
                name: "x".into(),
                ty: crate::schema::AttrType::Rat,
                kind: AttrKind::Constraint,
            },
            AttrDef {
                name: "y".into(),
                ty: crate::schema::AttrType::Rat,
                kind: AttrKind::Constraint,
            },
        ])
        .unwrap();
        let mut rel = HRelation::new(schema);
        for i in 0..200i64 {
            let lo = (i * 7) % 500;
            rel.insert_with(|b| {
                b.set("id", format!("t{}", i).as_str())
                    .range("x", lo, lo + 10)
                    .range("y", (i * 3) % 300, (i * 3) % 300 + 5)
            })
            .unwrap();
        }
        // A broad tuple (no constraints at all) must still be found.
        rel.insert_with(|b| b.set("id", "broad")).unwrap();

        let mut plain = Catalog::new();
        plain.register("R", rel.clone());
        let mut only_x = Catalog::new();
        only_x.register("R", rel.clone());
        only_x.build_index("R", &["x"]).unwrap();
        let mut indexed = Catalog::new();
        indexed.register("R", rel);
        indexed.build_index("R", &["x", "y"]).unwrap();
        indexed.build_index("R", &["x"]).unwrap();

        // x is bounded only through x = y: the [x] index still applies.
        let through_y = Selection::all()
            .cmp_attrs("x", CmpOp::Eq, "y")
            .cmp_int("y", CmpOp::Ge, 5)
            .cmp_int("y", CmpOp::Le, 6);
        let plan = Plan::scan("R").select(through_y.clone());
        let expected = run(&plan, &plain).unwrap();
        assert!(!expected.is_empty());
        assert_eq!(run(&plan, &only_x).unwrap(), expected);
        assert!(only_x.indexes("R")[0].accesses() > 0, "the [x] index should be probed");

        let selections = [
            Selection::all().cmp_int("x", CmpOp::Ge, 100).cmp_int("x", CmpOp::Le, 150),
            Selection::all()
                .cmp_int("x", CmpOp::Ge, 100)
                .cmp_int("x", CmpOp::Lt, 150)
                .cmp_int("y", CmpOp::Le, 50),
            Selection::all().cmp_int("y", CmpOp::Eq, 33),
            Selection::all().cmp_int("x", CmpOp::Gt, 10_000), // empty result
            Selection::all().str_eq("id", "t5").cmp_int("x", CmpOp::Ge, 0),
            through_y,
            // x ≥ 10 and x = y force y ≥ 10: empty only by propagation.
            Selection::all()
                .cmp_attrs("x", CmpOp::Eq, "y")
                .cmp_int("x", CmpOp::Ge, 10)
                .cmp_int("y", CmpOp::Le, 5),
        ];
        for sel in selections {
            let plan = Plan::scan("R").select(sel.clone());
            let a = run(&plan, &plain).unwrap();
            let b = run(&plan, &indexed).unwrap();
            assert_eq!(a, b, "selection {:?}", sel);
        }
        // The index actually got used.
        assert!(
            indexed.indexes("R").iter().any(|ix| ix.accesses() > 0),
            "index probes should have been charged"
        );
    }

    #[test]
    fn packed_index_probes_match_a_linear_scan() {
        // 3,000 boxes pack into a tree of many leaves. One tuple has no
        // constraints (it spans the clamped world), one is known empty
        // (not indexed), and every 500th lies beyond the ±1e15 clamp.
        let world = 1.0e15;
        let schema =
            Schema::new(vec![AttrDef::str_rel("id"), AttrDef::rat_con("x"), AttrDef::rat_con("y")])
                .unwrap();
        let mut rel = HRelation::new(schema);
        // Each ordinal's expected clamped extent in (x, y); `None` = empty.
        let mut extents: Vec<Option<[(f64, f64); 2]>> = Vec::new();
        let mut state = 11u64;
        let mut rnd = move |n: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64 % n
        };
        for i in 0..3000i64 {
            let (x, y) = if i % 500 == 7 {
                (2_000_000_000_000_000, rnd(1000))
            } else {
                (rnd(10_000) - 5000, rnd(10_000) - 5000)
            };
            let (w, h) = (rnd(60), rnd(60));
            rel.insert_with(|b| {
                b.set("id", format!("t{}", i).as_str()).range("x", x, x + w).range("y", y, y + h)
            })
            .unwrap();
            let clamp = |lo: i64, hi: i64| ((lo as f64).min(world), (hi as f64).min(world));
            extents.push(Some([clamp(x, x + w), clamp(y, y + h)]));
        }
        rel.insert_with(|b| b.set("id", "broad")).unwrap();
        extents.push(Some([(-world, world); 2]));
        rel.insert_with(|b| b.set("id", "empty").range("x", 5, 3)).unwrap();
        extents.push(None);

        let mut plain = Catalog::new();
        plain.register("R", rel.clone());
        let mut indexed = Catalog::new();
        indexed.register("R", rel);
        indexed.build_index("R", &["x"]).unwrap();
        indexed.build_index("R", &["x", "y"]).unwrap();
        let (by_x, by_xy) = (&indexed.indexes("R")[0], &indexed.indexes("R")[1]);

        let windows = [
            [Some((-100.0, 100.0)), Some((0.0, 400.0))],
            [Some((4990.0, 6000.0)), None],
            [None, Some((-5000.0, -4990.0))],
            [Some((3e15, 4e15)), None],
            [Some((7.0, 7.0)), Some((-8.0, -8.0))],
            [None, None],
        ];
        let meets = |ext: &Option<[(f64, f64); 2]>, w: &[Option<(f64, f64)>]| {
            ext.is_some_and(|ext| {
                w.iter().zip(ext).all(|(bound, (lo, hi))| match bound {
                    Some((l, h)) => lo <= h.clamp(-world, world) && l.clamp(-world, world) <= hi,
                    None => true,
                })
            })
        };
        for w in &windows {
            let want_xy: Vec<usize> = (0..extents.len()).filter(|&i| meets(&extents[i], w)).collect();
            assert_eq!(by_xy.probe(w), want_xy, "[x, y] window {:?}", w);
            let want_x: Vec<usize> =
                (0..extents.len()).filter(|&i| meets(&extents[i], &w[..1])).collect();
            assert_eq!(by_x.probe(&w[..1]), want_x, "[x] window {:?}", &w[..1]);
        }
        // The whole-world probe reads every page: a root and many leaves.
        let before = by_xy.accesses();
        assert_eq!(by_xy.probe(&[None, None]).len(), 3001);
        assert!(by_xy.accesses() - before > 20, "{} pages", by_xy.accesses() - before);

        let selections = [
            Selection::all().cmp_int("x", CmpOp::Ge, -100).cmp_int("x", CmpOp::Le, 100),
            Selection::all()
                .cmp_int("x", CmpOp::Ge, 0)
                .cmp_int("x", CmpOp::Lt, 700)
                .cmp_int("y", CmpOp::Gt, 4000),
            Selection::all().cmp_int("x", CmpOp::Ge, 1_999_999_999_999_990),
            Selection::all().cmp_int("y", CmpOp::Eq, 33),
        ];
        for sel in selections {
            let plan = Plan::scan("R").select(sel.clone());
            let want = run(&plan, &plain).unwrap();
            assert!(!want.is_empty(), "selection {:?}", sel);
            assert_eq!(run(&plan, &indexed).unwrap(), want, "selection {:?}", sel);
        }
    }

    #[test]
    fn index_handles_contradictory_bounds() {
        // x ≥ 10 ∧ x ≤ 5 would form an inverted probe rectangle; the
        // index path must answer "empty" directly instead.
        let mut cat = catalog();
        cat.build_index("R", &["x"]).unwrap();
        let plan = Plan::scan("R").select(
            Selection::all().cmp_int("x", CmpOp::Ge, 10).cmp_int("x", CmpOp::Le, 5),
        );
        let out = run(&plan, &cat).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn index_path_reports_selection_errors_like_select() {
        let mut cat = catalog();
        cat.build_index("R", &["x"]).unwrap();
        let bounded = Selection::all().cmp_int("x", CmpOp::Ge, 5);
        for sel in [
            bounded.clone().cmp_int("missing", CmpOp::Eq, 1),
            bounded.clone().cmp_int("x", CmpOp::Ne, 1),
            bounded.clone().cmp_int("id", CmpOp::Le, 3),
            bounded.clone().str_eq("x", "v"),
            bounded.with(Predicate::Str { attr: "id".into(), op: CmpOp::Lt, value: "a".into() }),
        ] {
            let rel = cat.get("R").unwrap();
            let plain = ops::select(rel, &sel, &ExecOptions::default(), &ExecStats::new());
            let indexed = run(&Plan::scan("R").select(sel.clone()), &cat);
            assert_eq!(
                indexed.unwrap_err().to_string(),
                plain.unwrap_err().to_string(),
                "{:?}",
                sel
            );
        }
        assert_eq!(cat.indexes("R")[0].accesses(), 0, "no probe before the error");
    }

    #[test]
    fn index_ignored_when_it_cannot_help() {
        let cat = {
            let mut c = catalog();
            c.build_index("R", &["x"]).unwrap();
            c
        };
        // A selection that bounds nothing the index covers.
        let plan = Plan::scan("R").select(Selection::all().str_eq("id", "a"));
        let out = run(&plan, &cat).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(cat.indexes("R")[0].accesses(), 0, "no probe charged");
    }

    #[test]
    fn index_build_rejects_bad_attrs() {
        let mut cat = catalog();
        assert!(cat.build_index("R", &["id"]).is_err(), "string attribute");
        assert!(cat.build_index("R", &[]).is_err());
        assert!(cat.build_index("R", &["x", "x", "x"]).is_err());
        assert!(cat.build_index("Nope", &["x"]).is_err());
        // Re-registering drops stale indexes.
        cat.build_index("R", &["x"]).unwrap();
        assert_eq!(cat.indexes("R").len(), 1);
        let rel = cat.get("R").unwrap().clone();
        cat.register("R", rel);
        assert!(cat.indexes("R").is_empty());
    }

    #[test]
    fn governor_trips_are_typed_errors() {
        use crate::error::CoreError;
        let cat = catalog();
        let plan = Plan::scan("R").select(Selection::all().cmp_int("x", CmpOp::Ge, 0));

        // Output-tuple budget: the scan node itself (2 tuples) exceeds 1.
        let mut opts = ExecOptions::default();
        opts.governor.budgets.max_output_tuples = Some(1);
        assert!(matches!(
            execute(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::BudgetExceeded { what: "output tuples", used: 2, limit: 1 })
        ));

        // An already-elapsed deadline: DeadlineExceeded on every thread count.
        for threads in [1usize, 4] {
            let mut opts = ExecOptions::with_threads(threads);
            opts.governor.timeout = Some(std::time::Duration::ZERO);
            assert_eq!(
                execute(&plan, &cat, &opts, &ExecStats::new()),
                Err(CoreError::DeadlineExceeded),
                "threads={}",
                threads
            );
        }

        // Deterministic cancellation at the first governor check.
        let opts = ExecOptions::default();
        opts.governor.trip_after(1);
        assert_eq!(
            execute(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::Cancelled)
        );

        // A generous governor changes nothing.
        let mut opts = ExecOptions::default();
        opts.governor.timeout = Some(std::time::Duration::from_secs(3600));
        opts.governor.budgets.max_output_tuples = Some(1_000_000);
        assert_eq!(
            execute(&plan, &cat, &opts, &ExecStats::new()).unwrap(),
            run(&plan, &cat).unwrap()
        );
    }

    #[test]
    fn fm_and_dnf_budgets_bound_the_expensive_operators() {
        use crate::error::CoreError;
        let cat = catalog();

        // Projection eliminates x from 2-atom intervals; a 1-atom FM
        // budget trips, a generous one records the peak instead.
        let plan = Plan::scan("R").project(&["id"]);
        let mut opts = ExecOptions::default();
        opts.governor.budgets.max_fm_atoms = Some(1);
        assert!(matches!(
            execute(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::BudgetExceeded { what: "fm atoms", .. })
        ));
        let stats = ExecStats::new();
        execute(&plan, &cat, &ExecOptions::default(), &stats).unwrap();
        assert!(stats.get(ExecCounter::FmPeakAtoms) >= 2, "peak gauge saw the interval atoms");
        assert!(stats.get(ExecCounter::FmCalls) >= 2, "one elimination per tuple");

        // Difference's negation expansion answers to the DNF budget.
        let plan = Plan::Difference {
            left: Box::new(Plan::scan("R")),
            right: Box::new(Plan::scan("R")),
        };
        let mut opts = ExecOptions::default();
        opts.governor.budgets.max_dnf_conjunctions = Some(0);
        assert!(matches!(
            execute(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::BudgetExceeded { what: "dnf conjunctions", .. })
        ));
        // Each product's satisfiability check answers to the FM budget.
        let mut opts = ExecOptions::default();
        opts.governor.budgets.max_fm_atoms = Some(1);
        assert!(matches!(
            execute(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::BudgetExceeded { what: "fm atoms", .. })
        ));
        // With room to run, the built conjunctions and their FM checks
        // are counted.
        let stats = ExecStats::new();
        execute(&plan, &cat, &ExecOptions::default(), &stats).unwrap();
        assert!(stats.get(ExecCounter::DnfConjunctions) > 0, "negation expansion was counted");
        assert!(stats.get(ExecCounter::FmCalls) > 0, "each product's FM check was counted");
    }

    #[test]
    fn difference_normalize_answers_to_the_fm_budget() {
        use crate::error::CoreError;
        // 0 ≤ x ≤ 10 minus 3 ≤ y ≤ 5 leaves two 3-atom disjuncts,
        // y < 3 and 5 < y, so the expansion's checks fit 3 atoms. Deciding
        // whether one disjunct absorbs the other adds a negated atom to a
        // disjunct, and that 4-atom check must answer to the same budget.
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![
            AttrDef::str_rel("id"),
            AttrDef::rat_con("x"),
            AttrDef::rat_con("y"),
        ])
        .unwrap();
        for (name, attr, lo, hi) in [("L", "x", 0, 10), ("S", "y", 3, 5)] {
            let mut r = HRelation::new(schema.clone());
            r.insert_with(|b| b.set("id", "a").range(attr, lo, hi)).unwrap();
            cat.register(name, r);
        }
        let plan = Plan::Difference { left: Box::new(Plan::scan("L")), right: Box::new(Plan::scan("S")) };
        assert_eq!(run(&plan, &cat).unwrap().len(), 2, "two disjuncts remain");
        let mut opts = ExecOptions::default();
        opts.governor.budgets.max_fm_atoms = Some(3);
        assert_eq!(
            execute(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::BudgetExceeded { what: "fm atoms", used: 4, limit: 3 })
        );
        opts.governor.budgets.max_fm_atoms = Some(4);
        assert_eq!(execute(&plan, &cat, &opts, &ExecStats::new()), run(&plan, &cat));
    }

    #[test]
    fn unsafe_distance_rejected_before_evaluation() {
        let cat = catalog();
        let plan = Plan::Distance { left: "Probes".into(), right: "Cities".into() };
        assert!(matches!(
            run(&plan, &cat),
            Err(crate::error::CoreError::UnsafeOperation(_))
        ));
    }
}

//! Per-layer measurement: the traced pass's accumulator, and replays that
//! call each layer's public entry points on the workload's own data from
//! the benchmark's code, timing every call.

use crate::gen::{self, IBox, Window};
use crate::run::Metric;
use crate::stats::{median, ratio};
use crate::workload::{targets, Op, Probe, Spec};
use cqa::constraints::{Atom, Conjunction, LinExpr, Var};
use cqa::core::catalog::RelationIndex;
use cqa::core::exec::TraceNode;
use cqa::core::persist::{load_relation, save_relation};
use cqa::core::plan::Plan;
use cqa::core::{optimizer, Catalog, HRelation, Schema};
use cqa::index::strategy::{BoxQuery, IndexStrategy, JointIndex, SeparateIndices};
use cqa::index::RStarParams;
use cqa::lang::ast::Statement;
use cqa::lang::lower::lower_expr;
use cqa::lang::parse::parse_script;
use cqa::lang::ScriptRunner;
use cqa::storage::{BufferPool, FileDisk, HeapFile, PageId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Frames of the replay's buffer pool: what `lang::db` gives each file.
const POOL_PAGES: usize = 16;
/// Caps on replayed calls, so that no replay takes more than a few seconds.
const SAT_CALLS: usize = 30_000;
const ELIMINATE_CALLS: usize = 4_000;
/// Repeats of each timed whole-relation replay; the median is reported.
const REPEATS: usize = 3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What the traced pass gathers, statement by statement.
#[derive(Default)]
pub struct TraceAcc {
    /// Read scripts run.
    pub queries: u64,
    /// Statements parsed: queries and inserts.
    pub statements: u64,
    query_statements: u64,
    parse: Duration,
    optimize: Duration,
    /// Node self-time by operator: select, join, project, difference, other.
    self_time: [Duration; 5],
    /// Rows out of join nodes.
    pub join_rows: u64,
    /// Candidate pairs enumerated by join nodes.
    pub join_pairs: u64,
    /// Inputs of the pass's projections, with the attributes kept.
    projected: Vec<(HRelation, Vec<String>)>,
    /// Final results of the pass's reads, kept when nothing is projected.
    results: Vec<HRelation>,
    kept_tuples: usize,
}

impl TraceAcc {
    /// Times the lang layer (`parse_script`, `lower_expr`) and the
    /// optimizer on `stmt`, then runs it through `run_traced`; returns the
    /// time `run_traced` took.
    pub fn statement(&mut self, runner: &mut ScriptRunner, stmt: &str) -> Result<Duration, String> {
        let t0 = Instant::now();
        let script = parse_script(stmt).map_err(err)?;
        let [Statement::Query { expr, line, .. }] = &script.statements[..] else {
            return Err(format!("not one query statement: {stmt:?}"));
        };
        let plan = lower_expr(expr, *line).map_err(err)?;
        self.parse += t0.elapsed();
        let t1 = Instant::now();
        black_box(optimizer::optimize(&plan, runner.catalog()).map_err(err)?);
        self.optimize += t1.elapsed();
        self.statements += 1;
        self.query_statements += 1;
        if let Plan::Project { input, attrs } = &plan {
            if let (Plan::Scan(name), true) = (input.as_ref(), self.kept_tuples < ELIMINATE_CALLS) {
                let rel = runner.catalog().get(name).map_err(err)?;
                self.kept_tuples += rel.len();
                self.projected.push((rel.clone(), attrs.clone()));
            }
        }
        let t2 = Instant::now();
        let (_, trace) = runner.run_traced(stmt).map_err(err)?;
        let took = t2.elapsed();
        self.add_trace(&trace);
        Ok(took)
    }

    /// Times parsing a statement that is not a query (an insert).
    pub fn parse_only(&mut self, stmt: &str) -> Result<(), String> {
        let t0 = Instant::now();
        black_box(parse_script(stmt).map_err(err)?);
        self.parse += t0.elapsed();
        self.statements += 1;
        Ok(())
    }

    /// Closes a read script: counts it and keeps its final result.
    pub fn finish_read(&mut self, runner: &ScriptRunner, script: &str) {
        self.queries += 1;
        if !self.projected.is_empty() || self.kept_tuples >= ELIMINATE_CALLS {
            return;
        }
        if let Some(out) = targets(script)
            .last()
            .and_then(|t| runner.catalog().get(t).ok())
        {
            self.kept_tuples += out.len();
            self.results.push(out.clone());
        }
    }

    fn add_trace(&mut self, node: &TraceNode) {
        let kind = match node.label.split_whitespace().next() {
            Some("Select") => 0,
            Some("Join") => 1,
            Some("Project") => 2,
            Some("Difference") => 3,
            _ => 4,
        };
        self.self_time[kind] += node.elapsed;
        if kind == 1 {
            self.join_rows += node.rows as u64;
            self.join_pairs += node.pairs_enumerated;
        }
        for child in &node.children {
            self.add_trace(child);
        }
    }
}

/// Per-layer metrics of the traced pass: the lang and optimizer timings,
/// node self-times from the traces, and the registry deltas in `counts`.
pub fn trace_metrics(acc: &TraceAcc, counts: &BTreeMap<String, u64>) -> Vec<Metric> {
    let n = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let q = acc.queries as f64;
    let total: Duration = acc.self_time.iter().sum();
    let share = |k: usize| ratio(acc.self_time[k].as_secs_f64(), total.as_secs_f64());
    vec![
        (
            "lang.parse_us_per_stmt",
            "us",
            ratio(acc.parse.as_secs_f64() * 1e6, acc.statements as f64),
        ),
        (
            "optimizer.us_per_stmt",
            "us",
            ratio(
                acc.optimize.as_secs_f64() * 1e6,
                acc.query_statements as f64,
            ),
        ),
        (
            "exec.self_ms_per_query",
            "ms",
            ratio(total.as_secs_f64() * 1e3, q),
        ),
        ("exec.select.self_share", "ratio", share(0)),
        ("exec.join.self_share", "ratio", share(1)),
        ("exec.project.self_share", "ratio", share(2)),
        ("exec.diff.self_share", "ratio", share(3)),
        (
            "exec.filter.checked_per_query",
            "count",
            ratio(n("exec.filter.checked"), q),
        ),
        (
            "exec.filter.reject_ratio",
            "ratio",
            ratio(n("exec.filter.rejected"), n("exec.filter.checked")),
        ),
        (
            "exec.join.pairs_per_query",
            "count",
            ratio(n("exec.join.pairs_enumerated"), q),
        ),
        (
            "exec.join.rows_per_pair",
            "ratio",
            ratio(acc.join_rows as f64, acc.join_pairs as f64),
        ),
        (
            "governor.checks_per_query",
            "count",
            ratio(n("governor.checks"), q),
        ),
        (
            "constraints.fm_calls_per_query",
            "count",
            ratio(n("exec.fm.calls"), q),
        ),
        (
            "constraints.fm_peak_atoms",
            "count",
            n("exec.fm.peak_atoms"),
        ),
        (
            "constraints.dnf_conjs_per_query",
            "count",
            ratio(n("exec.dnf.conjunctions"), q),
        ),
    ]
}

/// The layer replays, on the workload's data as the traced pass left it.
pub fn replays(
    spec: &Spec,
    catalog: &Catalog,
    acc: &TraceAcc,
    ops: &[Op],
    work: &Path,
) -> Result<Vec<Metric>, String> {
    let windows = Spec::windows(ops);
    let mut out = index_and_sat(spec, catalog, &windows)?;
    out.push(eliminate(acc));
    out.extend(storage(spec, catalog, work)?);
    out.extend(catalog_copy(spec, catalog)?);
    out.extend(section5(&spec.boxes, &windows));
    Ok(out)
}

/// An index probe and the conjunction its candidates are refined with.
struct ProbeIn {
    bounds: Vec<Option<(f64, f64)>>,
    conj: Conjunction,
}

fn window_probe(schema: &Schema, w: &Window) -> Result<ProbeIn, String> {
    let (mut bounds, mut atoms) = (Vec::new(), Vec::new());
    for (attr, range) in [("x", w.x), ("y", w.y)] {
        let v = schema.var_of(attr).map_err(err)?;
        bounds.push(range.map(|(lo, hi)| (lo as f64, hi as f64)));
        if let Some((lo, hi)) = range {
            atoms.push(Atom::ge(LinExpr::var(v), LinExpr::constant_int(lo)));
            atoms.push(Atom::le(LinExpr::var(v), LinExpr::constant_int(hi)));
        }
    }
    Ok(ProbeIn {
        bounds,
        conj: Conjunction::from_atoms(atoms),
    })
}

/// `index.*` and `constraints.sat_us_per_call`: builds a `RelationIndex`,
/// probes it, and decides each candidate's conjunction with
/// `Conjunction::is_satisfiable`, the refinement the workload's
/// selections or joins run on those candidates.
fn index_and_sat(
    spec: &Spec,
    catalog: &Catalog,
    windows: &[Window],
) -> Result<Vec<Metric>, String> {
    let (indexed, attrs, probes) = match spec.probe {
        Probe::Windows => {
            let rel = catalog.get("Boxes").map_err(err)?;
            let probes = windows
                .iter()
                .map(|w| window_probe(rel.schema(), w))
                .collect::<Result<Vec<_>, _>>()?;
            (rel, &["x", "y"][..], probes)
        }
        Probe::Tuples {
            indexed,
            attrs,
            outer,
        } => {
            let rel = catalog.get(indexed).map_err(err)?;
            let outer = catalog.get(outer).map_err(err)?;
            let (is, os) = (rel.schema(), outer.schema());
            // An outer tuple's conjunction with an indexed one is their
            // join's only where shared attributes sit at the same positions.
            for i in os.constraint_positions() {
                if is.var_of(&os.attrs()[i].name).ok() != Some(os.var(i)) {
                    return Err(format!(
                        "{} sits at different positions",
                        os.attrs()[i].name
                    ));
                }
            }
            let mut probes = Vec::new();
            for t in outer.tuples() {
                let mut bounds = Vec::new();
                for a in attrs {
                    let v = os.var_of(a).map_err(err)?;
                    bounds.push(Some(t.constraint().bounds(v).to_f64_bounds()));
                }
                probes.push(ProbeIn {
                    bounds,
                    conj: t.constraint().clone(),
                });
            }
            (rel, attrs, probes)
        }
    };
    let mut builds = Vec::new();
    let mut index = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let built = RelationIndex::build(indexed, attrs).map_err(err)?;
        builds.push(t0.elapsed().as_secs_f64());
        index = Some(built);
    }
    let index = index.expect("REPEATS > 0");
    let (mut probe_time, mut sat_time) = (Duration::ZERO, Duration::ZERO);
    let (mut candidates, mut sat_calls, mut rows) = (0usize, 0usize, 0usize);
    for p in &probes {
        let t0 = Instant::now();
        let found = index.probe(&p.bounds);
        probe_time += t0.elapsed();
        candidates += found.len();
        for &i in found.iter().take(SAT_CALLS.saturating_sub(sat_calls)) {
            let conj = indexed.tuples()[i].constraint().and(&p.conj);
            let t0 = Instant::now();
            let sat = conj.is_satisfiable();
            sat_time += t0.elapsed();
            sat_calls += 1;
            rows += usize::from(sat);
        }
    }
    let probed = probes.len() as f64;
    Ok(vec![
        ("index.build_s", "s", median(&builds)),
        (
            "index.probe_us",
            "us",
            ratio(probe_time.as_secs_f64() * 1e6, probed),
        ),
        (
            "index.node_accesses_per_query",
            "count",
            ratio(index.accesses() as f64, probed),
        ),
        (
            "index.candidates_per_query",
            "count",
            ratio(candidates as f64, probed),
        ),
        (
            "index.precision",
            "ratio",
            ratio(rows as f64, sat_calls as f64),
        ),
        (
            "constraints.sat_us_per_call",
            "us",
            ratio(sat_time.as_secs_f64() * 1e6, sat_calls as f64),
        ),
    ])
}

/// `constraints.eliminate_us_per_call`: `Conjunction::eliminate` on the
/// tuples the pass projected, dropping what the projection drops. A
/// workload that projects nothing replays projecting its reads' results
/// onto their relational attributes (listing the matching ids).
fn eliminate(acc: &TraceAcc) -> Metric {
    let inputs: Vec<(&HRelation, Vec<String>)> = if acc.projected.is_empty() {
        acc.results
            .iter()
            .map(|r| {
                let s = r.schema();
                (
                    r,
                    s.relational_positions()
                        .map(|i| s.attrs()[i].name.clone())
                        .collect(),
                )
            })
            .collect()
    } else {
        acc.projected
            .iter()
            .map(|(r, keep)| (r, keep.clone()))
            .collect()
    };
    let (mut time, mut calls) = (Duration::ZERO, 0usize);
    for (rel, keep) in inputs {
        let s = rel.schema();
        let dropped: Vec<Var> = s
            .constraint_positions()
            .filter(|&i| !keep.contains(&s.attrs()[i].name))
            .map(|i| s.var(i))
            .collect();
        for t in rel
            .tuples()
            .iter()
            .take(ELIMINATE_CALLS.saturating_sub(calls))
        {
            let t0 = Instant::now();
            black_box(t.constraint().eliminate(dropped.iter().copied()));
            time += t0.elapsed();
            calls += 1;
        }
    }
    (
        "constraints.eliminate_us_per_call",
        "us",
        ratio(time.as_secs_f64() * 1e6, calls as f64),
    )
}

/// `storage.*` and `persist.*`: each base relation saved with
/// `save_relation`, then read back with `HeapFile::scan` and, on a cold
/// pool, `load_relation`, through the benchmark's own
/// `BufferPool<FileDisk>` of `POOL_PAGES` frames.
fn storage(spec: &Spec, catalog: &Catalog, work: &Path) -> Result<Vec<Metric>, String> {
    let (mut encode, mut scan, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    let (mut logical, mut physical, mut writebacks, mut bytes, mut tuples) =
        (0u64, 0u64, 0u64, 0u64, 0usize);
    for rep in 0..REPEATS {
        let (mut e, mut s, mut d) = (0.0, 0.0, 0.0);
        for (k, name) in spec.base.iter().enumerate() {
            let rel = catalog.get(name).map_err(err)?;
            let path = work.join(format!("replay{k}.db"));
            let _ = std::fs::remove_file(&path);
            let t0 = Instant::now();
            let mut pool = BufferPool::new(FileDisk::open(&path).map_err(err)?, POOL_PAGES);
            save_relation(rel, &mut pool).map_err(err)?;
            let saved = pool.stats();
            pool.into_disk().map_err(err)?;
            e += t0.elapsed().as_secs_f64() * 1e3;
            let open = || -> Result<(BufferPool<FileDisk>, HeapFile), String> {
                let pool = BufferPool::new(FileDisk::open(&path).map_err(err)?, POOL_PAGES);
                let heap = HeapFile::from_pages((0..pool.num_pages()).map(PageId).collect());
                Ok((pool, heap))
            };
            let (mut pool, heap) = open()?;
            let t0 = Instant::now();
            black_box(heap.scan(&mut pool).map_err(err)?);
            let scanned = t0.elapsed().as_secs_f64() * 1e3;
            let (mut pool, heap) = open()?;
            let t0 = Instant::now();
            let back = load_relation(&heap, &mut pool).map_err(err)?;
            let loaded = t0.elapsed().as_secs_f64() * 1e3;
            if &back != rel {
                return Err(format!("{name} changed in a save and load"));
            }
            s += scanned;
            d += loaded - scanned;
            if rep == 0 {
                let read = pool.stats();
                logical += read.logical;
                physical += read.physical;
                writebacks += saved.writebacks;
                bytes += std::fs::metadata(&path).map_err(err)?.len();
                tuples += rel.len();
            }
            std::fs::remove_file(&path).map_err(err)?;
        }
        encode.push(e);
        scan.push(s);
        decode.push(d);
    }
    Ok(vec![
        ("storage.heap_scan_ms", "ms", median(&scan)),
        ("persist.decode_ms", "ms", median(&decode)),
        ("persist.encode_ms", "ms", median(&encode)),
        (
            "storage.pool.hit_ratio",
            "ratio",
            ratio(logical.saturating_sub(physical) as f64, logical as f64),
        ),
        ("storage.pool.physical_per_open", "count", physical as f64),
        (
            "storage.pool.writebacks_per_save",
            "count",
            writebacks as f64,
        ),
        (
            "storage.bytes_per_tuple",
            "B",
            ratio(bytes as f64, tuples as f64),
        ),
    ])
}

/// `catalog.*`: on the workload's largest base relation, the
/// whole-relation copy `insert into` makes of its target, and the
/// `Catalog::register` that replaces the old version with it.
fn catalog_copy(spec: &Spec, catalog: &Catalog) -> Result<Vec<Metric>, String> {
    let mut largest: Option<(&str, &HRelation)> = None;
    for &name in spec.base {
        let rel = catalog.get(name).map_err(err)?;
        if largest.is_none_or(|(_, l)| rel.len() > l.len()) {
            largest = Some((name, rel));
        }
    }
    let (name, rel) = largest.ok_or("no base relation")?;
    let mut scratch = Catalog::new();
    scratch.register(name, rel.clone());
    let (mut copies, mut registers) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let copy = rel.clone();
        copies.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        scratch.register(name, copy);
        registers.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(vec![
        ("catalog.relation_clone_ms", "ms", median(&copies)),
        ("catalog.register_us", "us", median(&registers)),
    ])
}

/// The §5.4 metric: mean node accesses per query of one joint `[x, y]`
/// R*-tree and of two 1-D trees (a two-attribute query charged both),
/// replaying `windows` over `boxes`, by query kind; counts only. Fan-out
/// 20, as the §5 experiments use.
pub fn section5(boxes: &[IBox], windows: &[Window]) -> Vec<Metric> {
    let params = RStarParams::with_max(20);
    let mut joint = JointIndex::new(params, gen::WORLD);
    let mut separate = SeparateIndices::new(params);
    let f = |(lo, hi): (i64, i64)| (lo as f64, hi as f64);
    if !windows.is_empty() {
        for (i, b) in boxes.iter().enumerate() {
            joint.insert(f(b.x), f(b.y), i as u64);
            separate.insert(f(b.x), f(b.y), i as u64);
        }
    }
    let (mut sums, mut n) = ([[0u64; 2]; 2], [0u64; 2]);
    for w in windows {
        let q = BoxQuery {
            x: w.x.map(f),
            y: w.y.map(f),
        };
        let kind = usize::from(!w.two_attr());
        sums[0][kind] += joint.query(&q).accesses;
        sums[1][kind] += separate.query(&q).accesses;
        n[kind] += 1;
    }
    let mean = |s: usize, k: usize| ratio(sums[s][k] as f64, n[k] as f64);
    vec![
        ("index.joint.accesses_2attr", "count", mean(0, 0)),
        ("index.joint.accesses_1attr", "count", mean(0, 1)),
        ("index.separate.accesses_2attr", "count", mean(1, 0)),
        ("index.separate.accesses_1attr", "count", mean(1, 1)),
    ]
}

//! The four workloads: the inputs each generates from its seed, the state
//! its set-up builds, the op stream its one client sends, and the oracle
//! every answer is checked against.

use crate::gen::{self, IBox, Sizes, Window};
use cqa::core::{Catalog, ExecOptions, HRelation};
use cqa::lang::db::{open_catalog, save_catalog};
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::ScriptRunner;
use cqa::num::prng::Pcg32;
use std::path::{Path, PathBuf};

/// The workloads `--workload` accepts.
pub const WORKLOADS: [&str; 4] = ["hurricane", "region_select", "interval_join", "ingest"];

/// One operation of the closed loop.
#[derive(Debug, Clone)]
pub enum Op {
    /// A read: a CQA script of one or more `NAME = …` statements.
    Read {
        /// The script text, one statement per line.
        script: String,
        /// The oracle for its answer.
        check: Check,
    },
    /// One `insert into Boxes` statement.
    Write {
        /// The statement text.
        stmt: String,
        /// The box it inserts.
        added: IBox,
    },
    /// Reopen the pristine base database (`open_catalog`).
    Open,
    /// Save the catalog to a fresh directory (`save_catalog`).
    Save,
}

impl Op {
    /// A one-line description for messages.
    pub fn label(&self) -> String {
        match self {
            Op::Read { script, .. } => script.lines().last().unwrap_or_default().to_string(),
            Op::Write { stmt, .. } => stmt.trim_end().to_string(),
            Op::Open => "open".to_string(),
            Op::Save => "save".to_string(),
        }
    }
}

/// The oracle a read is checked against.
#[derive(Debug, Clone)]
pub enum Check {
    /// The final result's ids are the boxes of `Boxes` the window overlaps.
    Window(Window),
    /// The final result has exactly this many tuples.
    Rows(usize),
    /// Every statement's result equals that of the `n`-th script of the
    /// reference run without the optimizer.
    Reference(usize),
}

/// What the per-layer index and satisfiability replays probe.
#[derive(Debug, Clone, Copy)]
pub enum Probe {
    /// An index on `Boxes [x, y]`, probed with each read's window.
    Windows,
    /// An index on `indexed`'s `attrs`, probed with the box of each tuple
    /// of `outer`: the filter step of joining the two.
    Tuples {
        /// The indexed relation.
        indexed: &'static str,
        /// Its indexed attributes.
        attrs: &'static [&'static str],
        /// The relation whose tuples probe.
        outer: &'static str,
    },
}

/// Everything a workload generates from its seed.
pub struct Spec {
    /// The relations the system loads at set-up, as `.cdb` text.
    pub cdb: String,
    /// Their names.
    pub base: &'static [&'static str],
    /// The index set-up builds, as `(relation, attributes)`.
    pub index: Option<(&'static str, &'static [&'static str])>,
    /// Whether set-up saves the catalog as the base every `Open` restarts
    /// from.
    pub durable: bool,
    /// The op stream; the closed loop cycles through it.
    pub ops: Vec<Op>,
    /// Ops per cycle; a run starts and stops on a cycle boundary.
    pub cycle: usize,
    /// Cycles of the traced pass: a fixed count, so its counts repeat.
    pub trace_cycles: usize,
    /// The tuples of `Boxes` at set-up, by id.
    pub boxes: Vec<IBox>,
    /// What the index and satisfiability replays probe.
    pub probe: Probe,
}

impl Spec {
    /// Generates workload `name` from `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64, sizes: &Sizes) -> Option<Spec> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let spec = match name {
            "hurricane" => {
                let h = gen::hurricane(&mut rng, sizes.segments, sizes.parcels);
                let ops: Vec<Op> = h
                    .scripts
                    .into_iter()
                    .enumerate()
                    .map(|(n, script)| Op::Read {
                        script,
                        check: Check::Reference(n),
                    })
                    .collect();
                Spec {
                    cdb: h.cdb,
                    base: &["Hurricane", "Land", "Landownership"],
                    index: None,
                    durable: false,
                    cycle: ops.len(),
                    trace_cycles: 4,
                    ops,
                    boxes: Vec::new(),
                    probe: Probe::Tuples {
                        indexed: "Hurricane",
                        attrs: &["x", "y"],
                        outer: "Land",
                    },
                }
            }
            "region_select" => {
                let boxes = gen::random_boxes(&mut rng, sizes.boxes);
                let ops = (0..sizes.windows)
                    .map(|i| {
                        let w = Window::nth(&mut rng, i);
                        Op::Read {
                            script: w.script("S"),
                            check: Check::Window(w),
                        }
                    })
                    .collect();
                Spec {
                    cdb: gen::boxes_cdb(&boxes),
                    base: &["Boxes"],
                    index: Some(("Boxes", &["x", "y"])),
                    durable: false,
                    ops,
                    cycle: 3,
                    trace_cycles: 40,
                    boxes,
                    probe: Probe::Windows,
                }
            }
            "interval_join" => {
                let iv = gen::intervals(
                    &mut rng,
                    sizes.intervals,
                    sizes.grouped_intervals,
                    sizes.groups,
                );
                let ungrouped = Op::Read {
                    script: iv.ungrouped,
                    check: Check::Rows(iv.ungrouped_rows),
                };
                let grouped = Op::Read {
                    script: iv.grouped,
                    check: Check::Rows(iv.grouped_rows),
                };
                // Two ungrouped joins per grouped one, so the median and the
                // p95 fall inside one form's latencies rather than on the
                // boundary between the two forms.
                Spec {
                    cdb: iv.cdb,
                    base: &["A", "B", "GA", "GB"],
                    index: None,
                    durable: false,
                    ops: vec![ungrouped.clone(), grouped, ungrouped],
                    cycle: 3,
                    trace_cycles: 10,
                    boxes: Vec::new(),
                    probe: Probe::Tuples {
                        indexed: "B",
                        attrs: &["x"],
                        outer: "A",
                    },
                }
            }
            "ingest" => {
                let boxes = gen::random_boxes(&mut rng, sizes.base_boxes);
                let h = gen::hurricane(&mut rng, sizes.segments, sizes.parcels);
                let mut ops = Vec::new();
                for _ in 0..sizes.cycles {
                    ops.push(Op::Open);
                    for k in 0..sizes.writes_per_cycle {
                        let added = gen::random_boxes(&mut rng, 1)[0];
                        ops.push(Op::Write {
                            stmt: gen::insert_stmt(boxes.len() + k, &added),
                            added,
                        });
                        let w = Window::nth(&mut rng, k);
                        ops.push(Op::Read {
                            script: w.script("S"),
                            check: Check::Window(w),
                        });
                    }
                    ops.push(Op::Save);
                }
                Spec {
                    cdb: gen::boxes_cdb(&boxes) + &h.cdb,
                    base: &["Boxes", "Hurricane", "Land", "Landownership"],
                    index: None,
                    durable: true,
                    ops,
                    cycle: 2 + 2 * sizes.writes_per_cycle,
                    trace_cycles: 2,
                    boxes,
                    probe: Probe::Windows,
                }
            }
            _ => return None,
        };
        Some(spec)
    }

    /// The windows of the reads among `ops`.
    pub fn windows(ops: &[Op]) -> Vec<Window> {
        ops.iter()
            .filter_map(|op| match op {
                Op::Read {
                    check: Check::Window(w),
                    ..
                } => Some(*w),
                _ => None,
            })
            .collect()
    }
}

/// The client's state: its script runner, and what the oracles need to
/// know about it.
pub struct Session {
    /// The runner every statement goes through.
    pub runner: ScriptRunner,
    /// The boxes `Boxes` holds now, by id.
    boxes: Vec<IBox>,
    base_len: usize,
    base_dir: Option<PathBuf>,
    work: PathBuf,
    saves: usize,
    /// The runner an `Open` replaced, dropped outside the timed op.
    retired: Option<ScriptRunner>,
    /// Per reference script, every statement's target and result.
    reference: Vec<Vec<(String, HRelation)>>,
}

fn runner_over(catalog: Catalog, opts: &ExecOptions) -> ScriptRunner {
    let mut runner = ScriptRunner::new(catalog);
    runner.set_exec_options(opts.clone());
    runner
}

fn load(cdb: &str) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    parse_cdb(cdb)
        .map_err(|e| format!("generated relations do not parse: {e}"))?
        .load_into(&mut catalog);
    Ok(catalog)
}

/// The targets of a script's statements, in order.
pub fn targets(script: &str) -> impl Iterator<Item = &str> {
    script
        .lines()
        .filter_map(|line| line.split_once(" = ").map(|(target, _)| target.trim()))
}

fn same_relations(a: &Catalog, b: &Catalog) -> bool {
    a.names().eq(b.names()) && a.names().all(|n| a.get(n).ok() == b.get(n).ok())
}

/// The box ids of a selection over `Boxes`, ascending.
fn box_ids(rel: &HRelation) -> Option<Vec<u64>> {
    let id = rel.schema().position("id").ok()?;
    let mut ids = rel
        .tuples()
        .iter()
        .map(|t| t.value(id)?.as_str()?.strip_prefix('b')?.parse().ok())
        .collect::<Option<Vec<u64>>>()?;
    ids.sort_unstable();
    Some(ids)
}

impl Session {
    /// The timed set-up: load the generated relations into a catalog,
    /// build the index, and save the base database of a durable workload.
    pub fn setup(spec: &Spec, opts: &ExecOptions, work: &Path) -> Result<Session, String> {
        let mut catalog = load(&spec.cdb)?;
        if let Some((rel, attrs)) = spec.index {
            catalog.build_index(rel, attrs).map_err(|e| e.to_string())?;
        }
        let base_dir = if spec.durable {
            let dir = work.join("base");
            let _ = std::fs::remove_dir_all(&dir);
            save_catalog(&catalog, &dir).map_err(|e| e.to_string())?;
            Some(dir)
        } else {
            None
        };
        Ok(Session {
            runner: runner_over(catalog, opts),
            boxes: spec.boxes.clone(),
            base_len: spec.boxes.len(),
            base_dir,
            work: work.to_path_buf(),
            saves: 0,
            retired: None,
            reference: Vec::new(),
        })
    }

    /// Untimed oracle preparation: runs every `Reference` script on a
    /// runner without the optimizer over the same relations, and checks
    /// that the saved base database reopens to the catalog it was saved
    /// from.
    pub fn prepare(&mut self, spec: &Spec) -> Result<(), String> {
        let mut reference =
            runner_over(load(&spec.cdb)?, self.runner.exec_options()).without_optimizer();
        for op in &spec.ops {
            if let Op::Read {
                script,
                check: Check::Reference(_),
            } = op
            {
                reference
                    .run(script)
                    .map_err(|e| format!("reference run: {e}"))?;
                let results = targets(script)
                    .map(|t| -> Result<(String, HRelation), String> {
                        let rel = reference.catalog().get(t).map_err(|e| e.to_string())?;
                        Ok((t.to_string(), rel.clone()))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                self.reference.push(results);
            }
        }
        if let Some(dir) = &self.base_dir {
            let back = open_catalog(dir).map_err(|e| e.to_string())?;
            if !same_relations(&back, self.runner.catalog()) {
                return Err("the reopened base database differs from the catalog saved".into());
            }
        }
        Ok(())
    }

    /// FNV-1a over the reference results, for workloads that have them.
    pub fn result_hash(&self) -> Option<u64> {
        if self.reference.is_empty() {
            return None;
        }
        let mut text = String::new();
        for (target, rel) in self.reference.iter().flatten() {
            text.push_str(target);
            text.push_str(&rel.to_string());
        }
        Some(cqa::obs::fnv1a(text.as_bytes()))
    }

    /// Runs one op as the client sends it: the part a run times.
    pub fn exec(&mut self, op: &Op) -> Result<(), String> {
        match op {
            Op::Read { script, .. } => self.runner.run(script).map(drop).map_err(|e| e.to_string()),
            Op::Write { stmt, added } => {
                self.runner.run(stmt).map_err(|e| e.to_string())?;
                self.boxes.push(*added);
                Ok(())
            }
            Op::Open => {
                let dir = self
                    .base_dir
                    .as_ref()
                    .ok_or_else(|| "no saved base database".to_string())?;
                let catalog = open_catalog(dir).map_err(|e| e.to_string())?;
                let opened = runner_over(catalog, self.runner.exec_options());
                self.retired = Some(std::mem::replace(&mut self.runner, opened));
                self.boxes.truncate(self.base_len);
                Ok(())
            }
            Op::Save => {
                self.saves += 1;
                save_catalog(self.runner.catalog(), self.save_dir()).map_err(|e| e.to_string())
            }
        }
    }

    fn save_dir(&self) -> PathBuf {
        self.work.join(format!("save{}", self.saves))
    }

    /// The oracle for the op just run; never timed.
    pub fn check(&mut self, op: &Op) -> bool {
        self.retired = None;
        let catalog = self.runner.catalog();
        let boxes_ok = || {
            catalog
                .get("Boxes")
                .is_ok_and(|r| r.len() == self.boxes.len())
        };
        match op {
            Op::Read { script, check } => {
                let Some(out) = targets(script).last().and_then(|t| catalog.get(t).ok()) else {
                    return false;
                };
                match check {
                    Check::Window(w) => box_ids(out) == Some(w.matches(&self.boxes)),
                    Check::Rows(n) => out.len() == *n,
                    Check::Reference(n) => self.reference[*n]
                        .iter()
                        .all(|(t, want)| catalog.get(t).is_ok_and(|got| got == want)),
                }
            }
            Op::Write { .. } | Op::Open => boxes_ok(),
            Op::Save => {
                let dir = self.save_dir();
                let ok = boxes_ok()
                    && open_catalog(&dir).is_ok_and(|back| same_relations(&back, catalog));
                let _ = std::fs::remove_dir_all(&dir);
                ok
            }
        }
    }
}

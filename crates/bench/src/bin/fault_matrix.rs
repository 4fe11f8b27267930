//! Fault-matrix sweep: storage robustness under injected faults.
//!
//! Persists a reference relation through a buffer pool over a
//! [`FaultyDisk`] (the pool seals and verifies every page, as every pool
//! does), sweeping fault kind × injection rate × schedule seed, and
//! asserts the robustness contract at every cell:
//!
//! * every injected fault that reaches the caller is a **typed error**
//!   (`PersistError::Storage` / `Corrupt`) — the process never panics;
//! * an `Ok` round trip is **bit-identical** to the original relation —
//!   faults are healed (retry, reread) or reported, never absorbed into
//!   silently wrong data;
//! * the zero-fault control column round-trips identically for every
//!   seed and pool capacity, i.e. the fault machinery at rate 0 is a
//!   true no-op.
//!
//! Run with `cargo run --release --bin fault_matrix`. Exits non-zero on
//! any contract violation.

use cqa::core::persist::{load_relation, save_relation, PersistError};
use cqa::core::{AttrDef, HRelation, Schema};
use cqa::storage::fault::FaultKind;
use cqa::storage::{BufferPool, FaultConfig, FaultyDisk, MemDisk};

/// A relation big enough to span several pages (so eviction, reread and
/// torn-write detection all engage) but quick to build.
fn reference_relation() -> HRelation {
    let schema = Schema::new(vec![
        AttrDef::str_rel("parcel"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .expect("static schema");
    let mut r = HRelation::new(schema);
    for i in 0..120i64 {
        let name = format!("p{:03}", i);
        r.insert_with(|b| {
            b.set("parcel", name.as_str())
                .range("x", i, i + 3)
                .range("y", 2 * i, 2 * i + 5)
        })
        .expect("static tuple");
    }
    r
}

struct Cell {
    kind: &'static str,
    rate: f64,
    seed: u64,
    injected: u64,
    retries: u64,
    rereads: u64,
    outcome: &'static str,
}

/// One sweep cell: save + flush + load through a pool over a faulty disk.
/// Returns the cell summary, or an error message on contract violation.
fn run_cell(
    original: &HRelation,
    kind_name: &'static str,
    cfg: FaultConfig,
    capacity: usize,
) -> Result<Cell, String> {
    let rate = cfg.io_error_rate + cfg.torn_write_rate + cfg.bit_flip_rate;
    let mut pool = BufferPool::new(FaultyDisk::new(MemDisk::new(), cfg), capacity);
    let outcome = save_relation(original, &mut pool)
        .and_then(|heap| {
            pool.flush()?;
            load_relation(&heap, &mut pool)
        });
    let injected = pool.disk().counts().total();
    let stats = pool.stats();
    let outcome_tag = match outcome {
        Ok(loaded) => {
            if &loaded != original {
                return Err(format!(
                    "SILENT CORRUPTION: kind={} rate={} seed={}: Ok round trip differs from original",
                    kind_name, rate, cfg.seed
                ));
            }
            "ok"
        }
        Err(PersistError::Storage(_)) => "err:storage",
        Err(PersistError::Corrupt(_)) => "err:corrupt",
        Err(PersistError::Core(e)) => {
            return Err(format!(
                "UNEXPECTED ERROR CLASS: kind={} rate={} seed={}: {}",
                kind_name, rate, cfg.seed, e
            ));
        }
    };
    Ok(Cell {
        kind: kind_name,
        rate,
        seed: cfg.seed,
        injected,
        retries: stats.io_retries,
        rereads: stats.corrupt_rereads,
        outcome: outcome_tag,
    })
}

fn main() {
    let original = reference_relation();
    let kinds = [
        (FaultKind::IoError, "io_error"),
        (FaultKind::TornWrite, "torn_write"),
        (FaultKind::BitFlip, "bit_flip"),
    ];
    let rates = [0.01, 0.05, 0.2, 0.5];
    let seeds = 0..8u64;
    let mut cells: Vec<Cell> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    // Zero-fault control: every seed and capacity must round-trip Ok and
    // inject nothing — the decorator at rate 0 is a true passthrough.
    for seed in seeds.clone() {
        for capacity in [2usize, 8, 64] {
            match run_cell(&original, "control", FaultConfig::none(seed), capacity) {
                Ok(cell) => {
                    if cell.outcome != "ok" || cell.injected != 0 {
                        violations.push(format!(
                            "CONTROL FAILED: seed={} capacity={} outcome={} injected={}",
                            seed, capacity, cell.outcome, cell.injected
                        ));
                    }
                    cells.push(cell);
                }
                Err(v) => violations.push(v),
            }
        }
    }

    for (kind, kind_name) in kinds {
        for rate in rates {
            for seed in seeds.clone() {
                match run_cell(&original, kind_name, FaultConfig::only(seed, kind, rate), 4) {
                    Ok(cell) => cells.push(cell),
                    Err(v) => violations.push(v),
                }
            }
        }
    }

    println!("# fault matrix: {} cells", cells.len());
    println!("# kind rate seed injected retries rereads outcome");
    let mut healed = 0u64;
    let mut typed = 0u64;
    for c in &cells {
        println!(
            "RESULT {} {} {} {} {} {} {}",
            c.kind, c.rate, c.seed, c.injected, c.retries, c.rereads, c.outcome
        );
        if c.outcome == "ok" && c.injected > 0 {
            healed += 1;
        }
        if c.outcome.starts_with("err") {
            typed += 1;
        }
    }
    println!(
        "# summary: {} cells, {} healed-with-faults, {} typed errors, {} violations",
        cells.len(),
        healed,
        typed,
        violations.len()
    );

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("{}", v);
        }
        std::process::exit(1);
    }
    // The sweep is vacuous unless both survival paths were exercised:
    // some cells must heal injected faults and some must fail typed.
    if healed == 0 || typed == 0 {
        eprintln!(
            "SWEEP TOO WEAK: healed={} typed={} — adjust rates/seeds",
            healed, typed
        );
        std::process::exit(1);
    }
    println!("fault matrix passed");
}

//! One resource budget for the constraint algorithms.
//!
//! Fourier–Motzkin elimination can square its working system per
//! variable, and DNF negation is worst-case exponential. A [`Budget`]
//! turns either blow-up into a typed [`BudgetExceeded`] instead of
//! unbounded allocation, and optionally counts the work done.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Optional ceilings and counters for one constraint-algorithm run.
/// `Default` is unlimited and uncounted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget<'a> {
    /// Abort when an elimination's working system holds more than this
    /// many atoms (checked on the input and after each eliminated variable).
    pub max_fm_atoms: Option<u64>,
    /// Abort when a DNF product keeps more than this many disjuncts.
    pub max_dnf_conjunctions: Option<u64>,
    /// If set, the peak working-system size is recorded here (`fetch_max`).
    pub fm_peak: Option<&'a AtomicU64>,
    /// If set, incremented once per elimination run.
    pub fm_calls: Option<&'a AtomicU64>,
    /// If set, incremented once per elimination run handed to
    /// per-variable intervals: one whose working system is a box on
    /// entry or becomes one while variables remain (a subset of
    /// `fm_calls`).
    pub fm_interval_calls: Option<&'a AtomicU64>,
    /// If set, incremented once per conjunction a DNF product builds,
    /// kept or discarded.
    pub dnf_built: Option<&'a AtomicU64>,
}

impl Budget<'_> {
    /// Counts one elimination run.
    pub(crate) fn count_fm_call(&self) {
        if let Some(calls) = self.fm_calls {
            calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one elimination run handed to per-variable intervals.
    pub(crate) fn count_fm_interval_call(&self) {
        if let Some(calls) = self.fm_interval_calls {
            calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charges an elimination's working-system size, updating the peak.
    pub(crate) fn charge_fm_atoms(&self, atoms: usize) -> Result<(), BudgetExceeded> {
        let atoms = atoms as u64;
        if let Some(peak) = self.fm_peak {
            peak.fetch_max(atoms, Ordering::Relaxed);
        }
        check("fm atoms", atoms, self.max_fm_atoms)
    }

    /// Counts one built DNF product.
    pub(crate) fn count_dnf_built(&self) {
        if let Some(built) = self.dnf_built {
            built.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charges the disjuncts a DNF product has kept so far.
    pub(crate) fn charge_dnf_conjunctions(&self, kept: usize) -> Result<(), BudgetExceeded> {
        check("dnf conjunctions", kept as u64, self.max_dnf_conjunctions)
    }
}

fn check(what: &'static str, used: u64, limit: Option<u64>) -> Result<(), BudgetExceeded> {
    match limit {
        Some(limit) if used > limit => Err(BudgetExceeded { what, used, limit }),
        _ => Ok(()),
    }
}

/// A [`Budget`] ceiling was crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Which ceiling tripped: `"fm atoms"` or `"dnf conjunctions"`.
    pub what: &'static str,
    /// The demand that crossed it.
    pub used: u64,
    /// The configured ceiling.
    pub limit: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget exceeded ({} > {})",
            self.what, self.used, self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

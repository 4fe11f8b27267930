//! Error type of the query layer.

use std::fmt;

/// Errors raised by schema validation, operator application, and plan
/// evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Duplicate attribute name in a schema.
    DuplicateAttribute(String),
    /// A constraint attribute with a non-rational type.
    NonRationalConstraintAttribute(String),
    /// Attribute not present in a schema.
    UnknownAttribute(String),
    /// Relation not present in the catalog.
    UnknownRelation(String),
    /// Two schemas were required to be identical (union, difference).
    SchemaMismatch(String),
    /// A shared join attribute whose C/R flags disagree.
    KindMismatch(String),
    /// A value of the wrong type for an attribute.
    TypeMismatch { attribute: String, expected: &'static str },
    /// A rename target that already exists, or renaming a missing source.
    BadRename(String),
    /// The query violates the closure requirement of §2.4 (e.g. exposes
    /// `distance` as a constraint): its output is not representable in the
    /// system's constraint class.
    UnsafeOperation(String),
    /// A predicate that references an attribute unusable in that position
    /// (e.g. a linear constraint over a string attribute).
    BadPredicate(String),
    /// Evaluation observed a raised cancellation token. All partial output
    /// was discarded, so a cancelled run leaves no trace of itself.
    Cancelled,
    /// The governor's wall-clock deadline passed mid-evaluation.
    DeadlineExceeded,
    /// A resource budget was exhausted; `used` is the demand that crossed
    /// `limit`. Turns would-be memory blow-ups (DNF negation, FM
    /// elimination, huge intermediates) into typed, recoverable errors.
    BudgetExceeded {
        /// Which budget tripped (`"fm atoms"`, `"dnf conjunctions"`,
        /// `"output tuples"`).
        what: &'static str,
        /// The observed demand.
        used: u64,
        /// The configured ceiling.
        limit: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicateAttribute(a) => write!(f, "duplicate attribute {:?}", a),
            CoreError::NonRationalConstraintAttribute(a) => {
                write!(f, "constraint attribute {:?} must be rational", a)
            }
            CoreError::UnknownAttribute(a) => write!(f, "unknown attribute {:?}", a),
            CoreError::UnknownRelation(r) => write!(f, "unknown relation {:?}", r),
            CoreError::SchemaMismatch(what) => write!(f, "schema mismatch: {}", what),
            CoreError::KindMismatch(a) => {
                write!(f, "attribute {:?} is constraint on one side and relational on the other", a)
            }
            CoreError::TypeMismatch { attribute, expected } => {
                write!(f, "attribute {:?} expects a {} value", attribute, expected)
            }
            CoreError::BadRename(what) => write!(f, "bad rename: {}", what),
            CoreError::UnsafeOperation(what) => {
                write!(f, "unsafe operation (no closed-form output): {}", what)
            }
            CoreError::BadPredicate(what) => write!(f, "bad predicate: {}", what),
            CoreError::Cancelled => f.write_str("execution cancelled"),
            CoreError::DeadlineExceeded => f.write_str("execution deadline exceeded"),
            CoreError::BudgetExceeded { what, used, limit } => {
                write!(f, "{} budget exceeded ({} > {})", what, used, limit)
            }
        }
    }
}

impl CoreError {
    /// Stable outcome tag for the telemetry event log: `ok` is reserved
    /// for successful runs; errors map to `budget_exceeded`,
    /// `deadline_exceeded`, `cancelled`, `corrupt` (storage-originated
    /// corruption surfaced through an error message), or `error`.
    pub fn outcome(&self) -> &'static str {
        match self {
            CoreError::BudgetExceeded { .. } => "budget_exceeded",
            CoreError::DeadlineExceeded => "deadline_exceeded",
            CoreError::Cancelled => "cancelled",
            e if e.to_string().to_ascii_lowercase().contains("corrupt") => "corrupt",
            _ => "error",
        }
    }

    /// Whether this error is the governor killing the run (the flight
    /// recorder's second trigger condition, besides panics).
    pub fn is_governor_abort(&self) -> bool {
        matches!(
            self,
            CoreError::BudgetExceeded { .. } | CoreError::DeadlineExceeded | CoreError::Cancelled
        )
    }
}

impl std::error::Error for CoreError {}

impl From<cqa_num::par::Cancelled> for CoreError {
    fn from(_: cqa_num::par::Cancelled) -> CoreError {
        CoreError::Cancelled
    }
}

impl From<cqa_constraints::BudgetExceeded> for CoreError {
    fn from(e: cqa_constraints::BudgetExceeded) -> CoreError {
        CoreError::BudgetExceeded { what: e.what, used: e.used, limit: e.limit }
    }
}

/// Result alias for the query layer.
pub type Result<T> = std::result::Result<T, CoreError>;

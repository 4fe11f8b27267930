//! Typed errors for the observability layer.
//!
//! Mirrors the PR 2 error taxonomy in `cqa-core`: a small closed enum,
//! structured payloads instead of stringly errors, `Display` renders the
//! operator-facing message. Fallible obs paths (JSON parsing, metric
//! registration under a mismatched kind, export I/O) return these instead
//! of panicking.

use std::fmt;

/// A JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Errors raised by the observability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// A metric name was registered under one kind and requested as
    /// another (e.g. `counter("x")` after `gauge("x")`).
    MetricKindMismatch {
        /// The metric name.
        name: &'static str,
        /// The kind it is already registered as.
        registered: &'static str,
        /// The kind the caller asked for.
        requested: &'static str,
    },
    /// JSON that failed to parse.
    Json(JsonError),
    /// An export-path I/O failure (event log, flight dump, listener).
    Io {
        /// What the layer was doing (`"eventlog write"`, `"flight dump"`…).
        op: &'static str,
        /// The underlying `std::io` message.
        msg: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::MetricKindMismatch { name, registered, requested } => write!(
                f,
                "metric {:?} is registered as a {} but was requested as a {}",
                name, registered, requested
            ),
            ObsError::Json(e) => write!(f, "json: {}", e),
            ObsError::Io { op, msg } => write!(f, "{}: {}", op, msg),
        }
    }
}

impl std::error::Error for ObsError {}

impl From<JsonError> for ObsError {
    fn from(e: JsonError) -> ObsError {
        ObsError::Json(e)
    }
}

impl ObsError {
    /// Wraps an I/O error with the operation that hit it.
    pub fn io(op: &'static str, e: std::io::Error) -> ObsError {
        ObsError::Io { op, msg: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_operator_readable() {
        let e = ObsError::MetricKindMismatch {
            name: "x.y",
            registered: "gauge",
            requested: "counter",
        };
        assert!(e.to_string().contains("registered as a gauge"));
        let e = ObsError::from(JsonError { offset: 7, msg: "expected ','".into() });
        assert_eq!(e.to_string(), "json: expected ',' at byte 7");
        let io = ObsError::io("flight dump", std::io::Error::other("disk full"));
        assert!(io.to_string().starts_with("flight dump: "));
    }
}

//! The workspace-wide typed error hierarchy.
//!
//! Every fallible path in the DICE reproduction — trace parsing, config
//! validation, file I/O, runtime invariant audits — reports a
//! [`DiceError`] instead of panicking. Errors carry enough structured
//! context (path, line, set index, field) to be actionable without a
//! backtrace, and each maps to an [`ErrorClass`] so a caller or test can
//! tell failure modes apart without parsing messages. A runner cell's
//! panic or timeout is not one of these: it is the cell's
//! `CellOutcome`, counted as `runner.failed` / `runner.timed_out`.
//!
//! Hand-rolled like the rest of `dice-obs`: no `thiserror`, no
//! dependencies.

use std::fmt;

/// Result alias used across the workspace.
pub type DiceResult<T> = Result<T, DiceError>;

/// Coarse error classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorClass {
    /// Malformed or truncated trace/spec input.
    TraceParse,
    /// Invalid configuration (empty workload set, bad flag value, …).
    Config,
    /// A runtime invariant audit found corrupted simulator state.
    Invariant,
    /// An underlying I/O operation failed.
    Io,
}

/// A structured, classified error. All context is owned `String`s so the
/// error is `Clone + Send + 'static` and survives thread boundaries and
/// `catch_unwind` payload extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiceError {
    /// A trace or spec file failed to parse.
    TraceParse {
        /// Source path (or `"<memory>"` for in-memory input).
        path: String,
        /// 1-based line number of the offending record.
        line: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A configuration value is invalid.
    Config {
        /// The field or flag at fault.
        field: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A runtime invariant audit detected corrupted state.
    Invariant {
        /// Where the audit ran (`"l4 set 12"`, `"l3"`, …).
        context: String,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// An I/O operation failed.
    Io {
        /// What was being done (`"read trace /path"`, …).
        context: String,
        /// Stringified `std::io::Error`.
        reason: String,
    },
}

impl DiceError {
    /// Build an [`DiceError::Io`] from a `std::io::Error` with context.
    #[must_use]
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        DiceError::Io {
            context: context.into(),
            reason: err.to_string(),
        }
    }

    /// The class this error belongs to.
    #[must_use]
    pub fn class(&self) -> ErrorClass {
        match self {
            DiceError::TraceParse { .. } => ErrorClass::TraceParse,
            DiceError::Config { .. } => ErrorClass::Config,
            DiceError::Invariant { .. } => ErrorClass::Invariant,
            DiceError::Io { .. } => ErrorClass::Io,
        }
    }
}

impl fmt::Display for DiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiceError::TraceParse { path, line, reason } => {
                write!(f, "trace parse error at {path}:{line}: {reason}")
            }
            DiceError::Config { field, reason } => {
                write!(f, "invalid config `{field}`: {reason}")
            }
            DiceError::Invariant { context, detail } => {
                write!(f, "invariant violated in {context}: {detail}")
            }
            DiceError::Io { context, reason } => {
                write!(f, "io error while {context}: {reason}")
            }
        }
    }
}

impl std::error::Error for DiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = DiceError::TraceParse {
            path: "/tmp/t.trace".into(),
            line: 12,
            reason: "expected 3 fields, got 2".into(),
        };
        assert_eq!(
            e.to_string(),
            "trace parse error at /tmp/t.trace:12: expected 3 fields, got 2"
        );
        assert_eq!(e.class(), ErrorClass::TraceParse);

        let e = DiceError::Config {
            field: "jobs".into(),
            reason: "must be nonzero".into(),
        };
        assert_eq!(e.to_string(), "invalid config `jobs`: must be nonzero");
        assert_eq!(e.class(), ErrorClass::Config);
    }

    #[test]
    fn io_helper_keeps_context_and_reason() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = DiceError::io("read trace /x", &io);
        assert_eq!(e.class(), ErrorClass::Io);
        assert!(e.to_string().contains("read trace /x"));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let e = DiceError::Invariant {
            context: "l4 set 3".into(),
            detail: "duplicate tag".into(),
        };
        assert_eq!(e.clone(), e);
    }
}

//! The shared error type.
//!
//! The variant that matters most to the reproduction is
//! [`GdmError::Unsupported`]: engine emulations return it for every
//! operation the real 2012-era product did not provide, and the
//! comparison harness in `gdm-compare` turns those refusals into the
//! blank cells of the paper's tables. Features the paper marks `◦`
//! (partial support) succeed but are flagged through
//! [`Support::Partial`](crate::Support) in the engine descriptor.

use std::fmt;
use std::io;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GdmError>;

/// Why a governed execution stopped before completing (see
/// [`GdmError::Interrupted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// The wall-clock deadline elapsed.
    Deadline,
    /// A resource budget (node/edge visits or emitted rows) ran out.
    Budget,
    /// The caller's cancel token was triggered.
    Cancelled,
    /// The query's tenant exhausted its shared-pool credit allowance —
    /// the multi-tenant fairness signal. Unlike [`Self::Budget`] (a
    /// per-query ceiling), this means *other* tenants' traffic is
    /// being protected; retrying after the next refill may succeed.
    Throttled,
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::Deadline => write!(f, "deadline exceeded"),
            InterruptReason::Budget => write!(f, "budget exhausted"),
            InterruptReason::Cancelled => write!(f, "cancelled"),
            InterruptReason::Throttled => write!(f, "tenant allowance exhausted"),
        }
    }
}

/// Errors produced anywhere in the library.
#[derive(Debug)]
pub enum GdmError {
    /// The engine does not implement this feature — the probe signal for
    /// the comparison tables.
    Unsupported {
        /// Name of the engine refusing the operation.
        engine: &'static str,
        /// Human-readable feature description, e.g. `"query language"`.
        feature: String,
    },
    /// A query text failed to parse.
    Parse {
        /// Which dialect's parser rejected the text.
        dialect: &'static str,
        /// What went wrong.
        message: String,
        /// Byte offset in the source text where the error was detected.
        position: usize,
    },
    /// A schema definition was malformed or inconsistent.
    Schema(String),
    /// An integrity constraint rejected an update (Table VI machinery).
    Constraint(String),
    /// A storage substrate failed (page corruption, full page, ...).
    Storage(String),
    /// An underlying I/O failure.
    Io(io::Error),
    /// A referenced entity does not exist.
    NotFound(String),
    /// A caller-supplied argument was invalid.
    InvalidArgument(String),
    /// A value had the wrong type for the requested operation.
    Type {
        /// What the operation required.
        expected: &'static str,
        /// What it was given.
        got: String,
    },
    /// The operation is supported by the engine but refused in durable
    /// mode because the write-ahead journal has no stable encoding for
    /// it — replaying it after a crash would be impossible, so durable
    /// engines reject it up front instead of silently losing it.
    /// Distinct from [`GdmError::Unsupported`]: that records a 2012
    /// product's missing feature, this records a limitation of the
    /// reproduction's own journaling subsystem.
    NotJournalable {
        /// Name of the engine refusing the operation.
        engine: &'static str,
        /// The refused facade operation, e.g. `"define_node_type"`.
        op: String,
        /// Which encoding is missing and where that is tracked.
        detail: String,
    },
    /// A governed execution was stopped cooperatively by its
    /// [`ExecutionGuard`](https://docs.rs/gdm-govern) — by deadline,
    /// budget, or cancellation — after producing `partial` results.
    Interrupted {
        /// What tripped the guard.
        reason: InterruptReason,
        /// Number of result rows produced before the interrupt (the
        /// caller may have received them through an output sink).
        partial: u64,
    },
}

impl GdmError {
    /// Convenience constructor for [`GdmError::Unsupported`].
    pub fn unsupported(engine: &'static str, feature: impl Into<String>) -> Self {
        GdmError::Unsupported {
            engine,
            feature: feature.into(),
        }
    }

    /// True when the error means "this engine lacks the feature", which
    /// the table-probing harness maps to an empty cell.
    pub fn is_unsupported(&self) -> bool {
        matches!(self, GdmError::Unsupported { .. })
    }

    /// Convenience constructor for [`GdmError::NotJournalable`].
    pub fn not_journalable(
        engine: &'static str,
        op: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        GdmError::NotJournalable {
            engine,
            op: op.into(),
            detail: detail.into(),
        }
    }

    /// True when the error is a durable-mode journaling limitation
    /// (see [`GdmError::NotJournalable`]).
    pub fn is_not_journalable(&self) -> bool {
        matches!(self, GdmError::NotJournalable { .. })
    }

    /// Convenience constructor for [`GdmError::Interrupted`].
    pub fn interrupted(reason: InterruptReason, partial: u64) -> Self {
        GdmError::Interrupted { reason, partial }
    }

    /// True when the error means "execution was stopped on purpose, the
    /// data is fine" ([`GdmError::Interrupted`]).
    pub fn is_interrupted(&self) -> bool {
        matches!(self, GdmError::Interrupted { .. })
    }

    /// The interrupt reason, when the error is an interruption.
    pub fn interrupt_reason(&self) -> Option<InterruptReason> {
        match self {
            GdmError::Interrupted { reason, .. } => Some(*reason),
            _ => None,
        }
    }
}

impl fmt::Display for GdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdmError::Unsupported { engine, feature } => {
                write!(f, "{engine} does not support {feature}")
            }
            GdmError::Parse {
                dialect,
                message,
                position,
            } => write!(f, "{dialect} parse error at byte {position}: {message}"),
            GdmError::Schema(m) => write!(f, "schema error: {m}"),
            GdmError::Constraint(m) => write!(f, "integrity constraint violated: {m}"),
            GdmError::Storage(m) => write!(f, "storage error: {m}"),
            GdmError::Io(e) => write!(f, "I/O error: {e}"),
            GdmError::NotFound(m) => write!(f, "not found: {m}"),
            GdmError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            GdmError::Type { expected, got } => {
                write!(f, "type error: expected {expected}, got {got}")
            }
            GdmError::NotJournalable { engine, op, detail } => {
                write!(f, "{engine} cannot journal {op} in durable mode: {detail}")
            }
            GdmError::Interrupted { reason, partial } => {
                write!(f, "execution interrupted ({reason}) after {partial} rows")
            }
        }
    }
}

impl std::error::Error for GdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GdmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GdmError {
    fn from(e: io::Error) -> Self {
        GdmError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_is_detectable() {
        let e = GdmError::unsupported("neo4j", "nested graphs");
        assert!(e.is_unsupported());
        assert_eq!(e.to_string(), "neo4j does not support nested graphs");
    }

    #[test]
    fn other_errors_are_not_unsupported() {
        assert!(!GdmError::Schema("x".into()).is_unsupported());
        assert!(!GdmError::NotFound("n1".into()).is_unsupported());
        assert_eq!(GdmError::Schema("x".into()).interrupt_reason(), None);
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: GdmError = io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn interrupted_display_covers_every_reason() {
        for (reason, text) in [
            (InterruptReason::Deadline, "deadline exceeded"),
            (InterruptReason::Budget, "budget exhausted"),
            (InterruptReason::Cancelled, "cancelled"),
            (InterruptReason::Throttled, "tenant allowance exhausted"),
        ] {
            let e = GdmError::interrupted(reason, 7);
            let s = e.to_string();
            assert!(s.contains(text) && s.contains('7'), "{s}");
            assert!(e.is_interrupted());
            assert!(!e.is_unsupported());
            assert_eq!(e.interrupt_reason(), Some(reason));
        }
    }

    #[test]
    fn not_journalable_is_structured_and_distinct_from_unsupported() {
        let e = GdmError::not_journalable(
            "Neo4j",
            "define_node_type",
            "gdm-schema types have no stable wire encoding",
        );
        assert!(e.is_not_journalable());
        assert!(!e.is_unsupported());
        let s = e.to_string();
        assert!(s.contains("journal") && s.contains("durable"), "{s}");
    }

    #[test]
    fn parse_error_reports_position() {
        let e = GdmError::Parse {
            dialect: "cypher",
            message: "unexpected token".into(),
            position: 12,
        };
        let s = e.to_string();
        assert!(s.contains("cypher") && s.contains("12"));
    }
}

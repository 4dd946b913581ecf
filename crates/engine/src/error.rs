//! The single error type every engine entry point returns.

use qld_core::CwError;
use qld_logic::LogicError;
use std::fmt;

/// Unified error for the whole evaluation pipeline.
///
/// Every layer's error converts into this via `From`, so callers of
/// [`Engine`](crate::Engine) handle exactly one error type no matter which
/// semantics ran: parse/validation failures surface as
/// [`EngineError::Logic`] and database-construction failures as
/// [`EngineError::Cw`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Ill-formed query: parse error, arity mismatch, unknown symbol,
    /// free-variable problems.
    Logic(LogicError),
    /// Ill-formed closed-world database (builder/validation failures).
    Cw(CwError),
    /// A [`PreparedQuery`](crate::PreparedQuery) was executed on an engine
    /// other than the one that prepared it. Prepared artifacts reference
    /// the preparing engine's extended vocabulary, so they are not
    /// portable across engines.
    PreparedElsewhere,
    /// The write-ahead log failed (storage error on append, sync, or
    /// checkpoint) or recovery found an inconsistent log. Carries the
    /// underlying diagnostic; the database itself is untouched, but a
    /// durable engine whose log failed should be abandoned and
    /// recovered.
    Durability(String),
    /// The engine is serving as a read-only replication follower:
    /// mutations must go to the primary (or wait for a `promote`). The
    /// `Display` text deliberately starts with `read-only` so the server
    /// surfaces it as `error: read-only …` on the wire.
    ReadOnly,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Logic(e) => write!(f, "{e}"),
            EngineError::Cw(e) => write!(f, "{e}"),
            EngineError::PreparedElsewhere => write!(
                f,
                "prepared query belongs to a different engine; re-prepare it on this one"
            ),
            EngineError::Durability(e) => write!(f, "durability: {e}"),
            EngineError::ReadOnly => write!(
                f,
                "read-only: this engine is a replication follower; send writes to the primary"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LogicError> for EngineError {
    fn from(e: LogicError) -> Self {
        EngineError::Logic(e)
    }
}

impl From<CwError> for EngineError {
    fn from(e: CwError) -> Self {
        EngineError::Cw(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_inner_message() {
        let e = EngineError::Logic(LogicError::UnknownSymbol("NOPE".into()));
        assert!(e.to_string().contains("NOPE"));
    }
}

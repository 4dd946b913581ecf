//! Logic kernel for the reproduction of Vardi's *Querying Logical Databases*
//! (PODS 1985 / JCSS 33:142–160, 1986).
//!
//! This crate provides the syntactic substrate the paper works with:
//!
//! * **relational vocabularies** (§2.1): finitely many constant symbols and
//!   predicate symbols plus equality, no function symbols ([`Vocabulary`]);
//! * **first- and second-order formulas and queries** `(x).φ(x)`
//!   ([`Formula`], [`Query`]);
//! * **negation normal form** (the first step of the §5 approximation
//!   algorithm, [`nnf::to_nnf`]);
//! * a small **parser** ([`parser::parse_query`]) and pretty-printer so that
//!   examples and tests can use a readable surface syntax;
//! * the **formula constructions of Lemma 10**: the `O(k log k)`
//!   connectivity formula `β_k`, the edge formula `γ_{x,y}`, and the
//!   provable-disagreement formula `α_P` ([`builders`]).
//!
//! Everything downstream (physical evaluation, certain answers, the
//! approximate simulation, the complexity reductions) is built on these
//! types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod display;
pub mod formula;
pub mod nnf;
pub mod parser;
pub mod query;
pub mod symbols;
pub mod term;

pub use formula::Formula;
pub use query::{Query, QueryClass};
pub use symbols::{ConstId, PredId, PredVarId, Var, Vocabulary};
pub use term::Term;

/// Errors produced while constructing or validating logical objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// A predicate was used with the wrong number of arguments.
    ArityMismatch {
        /// Name of the offending predicate.
        predicate: String,
        /// Declared arity.
        expected: usize,
        /// Number of arguments supplied.
        found: usize,
    },
    /// A symbol was not found in the vocabulary.
    UnknownSymbol(String),
    /// A symbol was declared twice.
    DuplicateSymbol(String),
    /// The query header mentions a variable that is bound in the body, or
    /// the body has a free variable missing from the header.
    FreeVariableMismatch(String),
    /// Parse error with position information.
    Parse {
        /// Byte offset in the input where the error occurred.
        offset: usize,
        /// Human-readable message.
        message: String,
    },
    /// A second-order variable was used with inconsistent arity.
    PredVarArity {
        /// Display name of the predicate variable.
        name: String,
        /// Declared arity.
        expected: usize,
        /// Number of arguments supplied.
        found: usize,
    },
}

impl std::fmt::Display for LogicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogicError::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "predicate {predicate} has arity {expected} but was applied to {found} arguments"
            ),
            LogicError::UnknownSymbol(s) => write!(f, "unknown symbol: {s}"),
            LogicError::DuplicateSymbol(s) => write!(f, "duplicate symbol: {s}"),
            LogicError::FreeVariableMismatch(s) => {
                write!(f, "free-variable mismatch in query: {s}")
            }
            LogicError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            LogicError::PredVarArity {
                name,
                expected,
                found,
            } => write!(
                f,
                "predicate variable {name} has arity {expected} but was applied to {found} arguments"
            ),
        }
    }
}

impl std::error::Error for LogicError {}

/// Convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, LogicError>;

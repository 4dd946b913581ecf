//! Physical databases — databases as *interpretations* (paper §2.1).
//!
//! A physical database is a pair `(L, I)` where `I` is a finite
//! interpretation: a nonempty finite domain, an assignment of a domain
//! element to every constant symbol, and a relation of the right arity for
//! every predicate symbol (equality is always interpreted as true equality).
//!
//! Queries are evaluated under the ordinary semantic notion of truth:
//! `Q(PB) = { d ∈ D^|x| : I satisfies φ(d) }`.
//!
//! This crate provides:
//!
//! * [`Relation`] — a sorted, duplicate-free set of tuples in one flat
//!   buffer, built through the one append path, [`RowWriter`];
//! * [`PhysicalDb`] — the interpretation, with a validating builder;
//! * [`eval`] — a straightforward recursive evaluator for first-order
//!   formulas (LOGSPACE data complexity, matching Theorem 4(1)) and, by
//!   brute-force relation enumeration, second-order quantifiers (used only
//!   by the Theorem 3 precise simulation on small instances);
//! * [`tuples::TupleSpace`] — iteration over `Dᵏ`, shared by the evaluator
//!   and by the certain-answer machinery in `qld-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod eval;
pub mod relation;
pub mod tuples;

pub use db::{PhysicalDb, PhysicalDbBuilder, PhysicalError};
pub use eval::{eval_query, satisfies, satisfies_all, Evaluator, LoweredQuery, QueryEvaluator};
pub use relation::{Elem, Relation, RowWriter};
pub use tuples::TupleSpace;

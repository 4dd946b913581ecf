//! The sound approximate query-evaluation algorithm of §5.
//!
//! Exact certain-answer evaluation is co-NP-hard in the database
//! (Theorem 5), so the paper builds an approximation with Reiter's
//! desiderata: it must be **sound** (`Â(Q,LB) ⊆ Q(LB)`, Theorem 11),
//! **complete for fully specified databases** (Theorem 12), and — a bonus
//! the paper proves in Theorem 13 — **complete for positive queries**;
//! and it must cost no more than physical-database evaluation
//! (Theorem 14).
//!
//! The scheme: store `LB` as the physical database `Ph₂(LB)` (facts plus
//! the `NE` inequality relation) and compile every query `Q` to `Q̂`:
//!
//! 1. push negations to atoms (NNF);
//! 2. replace `¬(x = y)` by `NE(x, y)`;
//! 3. replace `¬P(x)` by the provable-disagreement formula `α_P(x)` of
//!    Lemma 10.
//!
//! [`ApproxEngine`] follows Theorem 14's proof: it treats `α_P` as an
//! atomic relation, materialized in polynomial time by the union-find
//! disagreement test of [`disagree`], and stores `NE` explicitly, as the
//! symmetric relation [`ne_store::NeBits`] builds. It evaluates `Q̂` with
//! the evaluator of `qld-physical`. `Q̂` is first-order over
//! `Ph₂(LB)` whenever `Q` is, so it is also a query "on top of a standard
//! database management system": `qld-algebra` compiles it to relational
//! algebra, and the tests check that plan against this engine. The literal
//! Lemma 10 formula and the virtual `NE` store that §5 closes with are
//! references the tests check `Q̂` against (`tests/support/ne_store.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod completeness;
pub mod disagree;
pub mod engine;
pub mod ne_store;
pub mod rewrite;

pub use completeness::{exactness_theorem, CompletenessTheorem};
pub use engine::ApproxEngine;
pub use rewrite::AlphaMode;

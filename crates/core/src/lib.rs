//! Closed-world logical databases (CW logical databases) and certain-answer
//! query evaluation — the core of the reproduction of Vardi's *Querying
//! Logical Databases* (PODS 1985 / JCSS 1986).
//!
//! A CW logical database `LB = (L, T)` (§2.2) is a first-order theory with
//! five components: atomic fact axioms, uniqueness axioms `¬(cᵢ=cⱼ)`, the
//! domain-closure axiom, and per-predicate completion axioms. As the paper
//! notes, it suffices to store the facts and the uniqueness axioms — the
//! rest is determined — and that is exactly what [`CwDatabase`] does (with
//! [`CwDatabase::theory_sentences`] available to materialize the full
//! theory for cross-checking).
//!
//! The answer to a query is the set of *certain* tuples:
//! `Q(LB) = { c ∈ C^|x| : T ⊨_f φ(c) }`.
//!
//! Evaluation goes through the paper's Theorem 1: `c ∈ Q(LB)` iff
//! `h(c) ∈ Q(h(Ph₁(LB)))` for every `h : C → C` that respects the
//! uniqueness axioms. Module [`mappings`] enumerates those `h` (one
//! canonical representative per kernel partition, an isomorphism-invariance
//! optimization documented in ARCHITECTURE.md — plus the raw enumeration the
//! oracle uses); module [`exact`] implements the evaluation itself — one
//! walk — with the Corollary 2 fast path for fully specified databases;
//! module [`oracle`] holds the two references that walk is tested against
//! (Theorem 1 verbatim over every raw mapping, and first principles:
//! enumerate candidate models, check the *explicit* theory); and
//! module [`precise`] implements the Theorem 3 second-order simulation
//! `Q(LB) = Q′(Ph₂(LB))`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod mappings;
pub mod oracle;
pub mod ph;
pub mod precise;
pub mod textio;
pub mod theory;
pub mod worlds;

pub use exact::{
    certain_answers, certain_answers_batch_with, certain_answers_with, certainly_holds,
    possible_answers, possible_answers_batch_with, possible_answers_with, AnswerMode, EvalStats,
    ExactOptions,
};
pub use mappings::ParallelConfig;
pub use ph::Ph2;
pub use theory::{CwDatabase, CwDatabaseBuilder, CwError};

/// Renders an answer relation over `Ph₁`-style element ids (where element
/// `i` is constant `ConstId(i)`) using the vocabulary's constant names.
pub fn answer_names(voc: &qld_logic::Vocabulary, rel: &qld_physical::Relation) -> Vec<Vec<String>> {
    rel.iter()
        .map(|t| {
            t.iter()
                .map(|&e| voc.const_name(qld_logic::ConstId(e)).to_owned())
                .collect()
        })
        .collect()
}

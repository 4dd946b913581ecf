//! # Querying Logical Databases
//!
//! A comprehensive Rust reproduction of Moshe Y. Vardi's *Querying Logical
//! Databases* (PODS 1985; JCSS 33:142–160, 1986): closed-world logical
//! databases with unknown values, certain-answer query evaluation, the
//! complexity landscape of §4, and the sound approximate evaluation
//! algorithm of §5 that runs on a standard relational engine.
//!
//! ## Crates
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`logic`] | vocabularies, first-/second-order formulas and queries, NNF, parser, Lemma 10 formula builders |
//! | [`physical`] | physical databases (interpretations) and Tarskian evaluation (§2.1) |
//! | [`algebra`] | relational-algebra engine + FO→algebra compiler (the "standard relational system" of §5) |
//! | [`core`] | CW logical databases, Theorem 1 exact evaluation, Corollary 2 fast path, the model-enumeration oracle, the Theorem 3 precise simulation |
//! | [`approx`] | the §5 approximation: `Q ↦ Q̂`, `α_P`, virtual `NE`, algebra backend, completeness predicates |
//! | [`engine`] | **the front door**: the unified [`Engine`](prelude::Engine) session API — prepared queries, four semantics, exactness certificates |
//! | [`server`] | the TCP network front-end: a std-only line-protocol server over [`SharedEngine`](prelude::SharedEngine) plus the blocking [`Client`](prelude::Client) |
//! | [`reductions`] | §4 lower-bound constructions (3-colorability, QBF) + oracles |
//! | [`workloads`] | seeded generators for databases, graphs, QBFs, queries |
//!
//! ## Quickstart
//!
//! ```
//! use querying_logical_databases::prelude::*;
//!
//! // Vocabulary: three philosophers and one constant of unknown identity.
//! let mut voc = Vocabulary::new();
//! let ids = voc.add_consts(["socrates", "plato", "mystery"]).unwrap();
//! let teaches = voc.add_pred("TEACHES", 2).unwrap();
//!
//! // Closed-world theory: one fact, one uniqueness axiom.
//! let db = CwDatabase::builder(voc)
//!     .fact(teaches, &[ids[0], ids[1]])
//!     .unique(ids[0], ids[1])
//!     .build()
//!     .unwrap();
//!
//! // One engine, every evaluation regime. `Auto` runs the cheapest path
//! // the paper proves exact and certifies it.
//! let engine = Engine::builder(db).semantics(Semantics::Auto).build();
//!
//! // Prepare once (parse/validate/rewrite/compile), execute many.
//! let q = engine.prepare_text("(x) . TEACHES(socrates, x)").unwrap();
//! let answers = engine.execute(&q).unwrap();
//!
//! // A positive query: the §5 approximation ran and is exact (Thm 13).
//! assert!(answers.is_exact());
//! assert_eq!(answers.evidence().regime, Regime::Approximation);
//! assert_eq!(engine.answer_names(&answers), vec![vec!["plato"]]);
//!
//! // The same prepared query under other semantics: the possible-answer
//! // upper bound includes `mystery` (it might be plato).
//! let possible = engine.execute_as(&q, Semantics::Possible).unwrap();
//! assert_eq!(possible.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use qld_algebra as algebra;
pub use qld_approx as approx;
pub use qld_core as core;
pub use qld_engine as engine;
pub use qld_logic as logic;
pub use qld_physical as physical;
pub use qld_reductions as reductions;
pub use qld_server as server;
pub use qld_workloads as workloads;

/// The most common imports in one place, centred on the [`engine::Engine`]
/// session API.
pub mod prelude {
    pub use qld_approx::{AlphaMode, ApproxEngine, Backend, CompletenessTheorem, NeStore};
    pub use qld_core::textio::{from_text, to_text};
    pub use qld_core::worlds::{answer_bounds, count_worlds, for_each_world, AnswerBounds};
    pub use qld_core::{answer_names, CwDatabase};
    pub use qld_engine::{
        Answers, Certificate, Delta, DeltaReport, DeltaStats, Engine, EngineBuilder, EngineError,
        EngineSnapshot, Evidence, NeStoreMode, ParallelConfig, PreparedQuery, QueryFootprint,
        Regime, Semantics, SharedEngine, SharedSession, SharedStats, SnapshotStats,
    };
    pub use qld_logic::parser::{parse_query, parse_sentence};
    pub use qld_logic::{Formula, Query, Term, Var, Vocabulary};
    pub use qld_physical::{eval_query, PhysicalDb, Relation};
    pub use qld_server::{Client, RetryPolicy, Server, ServerConfig, ServerHandle, ServerStats};
}

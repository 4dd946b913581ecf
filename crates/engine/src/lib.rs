//! One engine to query them all: the unified session API over every
//! evaluation regime of Vardi's *Querying Logical Databases*.
//!
//! The paper's point is that a single logical database admits several
//! evaluation regimes with different cost/guarantee trade-offs:
//!
//! * **Theorem 1** — exact certain answers by enumerating respecting
//!   mappings (exponential; co-NP-hard data complexity by Theorem 5);
//! * **Corollary 2** — when the database is fully specified, one
//!   evaluation over `Ph₁(LB)` is exact;
//! * **§5 (Theorems 11–14)** — a polynomial approximation on a standard
//!   relational system: always sound, complete on fully specified
//!   databases (Thm 12) and positive queries (Thm 13);
//! * the **possible-answer** dual — tuples true in some model.
//!
//! [`Engine`] packages all of them behind one session API:
//!
//! * [`Engine::builder`] configures semantics ([`Semantics`]), the
//!   Theorem 1 worker count, the Corollary 2 fast path, a mapping budget
//!   for `Auto` escalations, and the answer cache;
//! * [`Engine::prepare`] turns a query into a [`PreparedQuery`] —
//!   parse/validate/rewrite once, execute many;
//! * execution returns [`Answers`]: the tuples plus an [`Evidence`]
//!   report saying which [`Regime`] ran, how long it took, and — the
//!   crucial part — a [`Certificate`] stating how the tuples relate to
//!   the true certain answers and which theorem proves it;
//! * every failure is a single [`EngineError`];
//! * [`Engine::apply`] mutates the database through [`Delta`]s with
//!   incremental maintenance of every derived structure (`Ph₁`, `Ph₂`,
//!   `α_P`, the `NE` relation) and *selective* answer-cache invalidation
//!   keyed on each entry's [`QueryFootprint`];
//! * [`SharedEngine`] lifts one engine to concurrent multi-session
//!   serving: `Send + Sync`, wait-free readers on immutable epoch-stamped
//!   [`EngineSnapshot`]s, a single writer publishing [`Delta`]s
//!   atomically, and one sharded answer cache, shared by writer and
//!   snapshots, keyed `(fingerprint, semantics)`: each entry carries the
//!   epoch range it is true at, and a delta extends or evicts it before
//!   the new snapshot is published.
//!
//! Under [`Semantics::Auto`] the engine is a *certifying dispatcher*: it
//! runs the cheapest path the paper licenses as exact and escalates to
//! the exponential Theorem 1 enumeration only when no completeness
//! theorem applies — so callers get polynomial evaluation whenever the
//! theory permits it, without guessing when the cheap answer is the real
//! one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod concurrent;
mod delta;
mod durable;
mod error;
mod evidence;
mod lru;
mod prepared;
mod session;

pub use cache::SHARD_COUNT;
pub use concurrent::{CommitFeed, EngineSnapshot, SharedEngine, SharedSession, SharedStats};
pub use delta::{Delta, DeltaReport, DeltaStats, QueryFootprint};
pub use durable::{DurabilityConfig, RecoveryReport};
pub use error::EngineError;
pub use evidence::{Answers, Certificate, Evidence, Regime, Semantics};
pub use lru::Lru;
pub use prepared::PreparedQuery;
pub use session::{Engine, EngineBuilder};

// The certificate vocabulary callers need alongside `Evidence`.
pub use qld_approx::CompletenessTheorem;
// The durability vocabulary callers need alongside `SharedEngine::durable`
// (storage backends, fsync policies, and the fault injector the crash
// tests drive).
pub use qld_core::mappings::ParallelConfig;
pub use qld_wal::{
    has_state as wal_has_state, DiskStorage, FaultPlan, FaultyStorage, FsyncPolicy, MemStorage,
    PowerLoss, ReadOnlyStorage, Storage, WalConfig, WalRecord, WalStats,
};

#[cfg(test)]
mod tests {
    use super::*;
    use qld_core::{certain_answers, possible_answers, CwDatabase};
    use qld_logic::Vocabulary;

    /// socrates/plato/aristotle pairwise distinct; `mystery` unknown.
    fn teaching() -> CwDatabase {
        let mut voc = Vocabulary::new();
        let ids = voc
            .add_consts(["socrates", "plato", "aristotle", "mystery"])
            .unwrap();
        let teaches = voc.add_pred("TEACHES", 2).unwrap();
        CwDatabase::builder(voc)
            .fact(teaches, &[ids[0], ids[1]])
            .pairwise_unique(&ids[..3])
            .build()
            .unwrap()
    }

    fn fully_specified() -> CwDatabase {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "c"]).unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        CwDatabase::builder(voc)
            .fact(r, &[ids[0], ids[1]])
            .fact(r, &[ids[1], ids[2]])
            .fully_specified()
            .build()
            .unwrap()
    }

    #[test]
    fn auto_routes_positive_queries_through_the_approximation() {
        let engine = Engine::new(teaching());
        let ans = engine.query("(x) . TEACHES(socrates, x)").unwrap();
        assert_eq!(ans.evidence().regime, Regime::Approximation);
        assert_eq!(
            ans.evidence().certificate,
            Certificate::ExactCompleteness(CompletenessTheorem::PositiveQuery)
        );
        assert!(ans.is_exact());
        assert_eq!(engine.answer_names(&ans), vec![vec!["plato"]]);
    }

    #[test]
    fn auto_uses_corollary2_on_fully_specified_databases() {
        let engine = Engine::new(fully_specified());
        let ans = engine.query("(x) . !R(x, x)").unwrap();
        assert_eq!(ans.evidence().regime, Regime::Corollary2);
        assert_eq!(ans.evidence().certificate, Certificate::ExactCorollary2);
        assert_eq!(
            ans.into_tuples(),
            certain_answers(
                engine.db(),
                &engine.prepare_text("(x) . !R(x, x)").unwrap().query
            )
            .unwrap()
        );
    }

    #[test]
    fn auto_escalates_to_theorem1_only_without_a_certificate() {
        let engine = Engine::new(teaching());
        let ans = engine.query("(x) . !TEACHES(socrates, x)").unwrap();
        assert_eq!(ans.evidence().regime, Regime::Theorem1);
        assert_eq!(ans.evidence().certificate, Certificate::ExactTheorem1);
        assert!(ans.evidence().mappings_evaluated > 0);
    }

    #[test]
    fn explicit_semantics_run_their_regime() {
        let db = teaching();
        let mut engine = Engine::new(db.clone());
        let prepared = engine.prepare_text("(x) . TEACHES(socrates, x)").unwrap();

        let exact = engine.execute_as(&prepared, Semantics::Exact).unwrap();
        assert_eq!(exact.evidence().regime, Regime::Theorem1);
        assert_eq!(
            *exact.tuples(),
            certain_answers(&db, prepared.query()).unwrap()
        );

        let approx = engine.execute_as(&prepared, Semantics::Approx).unwrap();
        assert_eq!(approx.evidence().regime, Regime::Approximation);

        let possible = engine.execute_as(&prepared, Semantics::Possible).unwrap();
        assert_eq!(
            possible.evidence().certificate,
            Certificate::PossibleUpperBound
        );
        assert_eq!(
            *possible.tuples(),
            possible_answers(&db, prepared.query()).unwrap()
        );
        assert!(exact.tuples().is_subset_of(possible.tuples()));

        engine.set_semantics(Semantics::Possible);
        assert_eq!(engine.semantics(), Semantics::Possible);
        let via_default = engine.execute(&prepared).unwrap();
        assert_eq!(via_default.tuples(), possible.tuples());
    }

    #[test]
    fn approx_semantics_reports_sound_lower_bound_without_certificate() {
        // The known incompleteness example: P(u) ∨ u ≠ a is certain but
        // the approximation misses it — the certificate must say "lower
        // bound", not "exact".
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "u"]).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        let db = CwDatabase::builder(voc)
            .fact(p, &[ids[0]])
            .unique(ids[0], ids[1])
            .build()
            .unwrap();
        let engine = Engine::builder(db).semantics(Semantics::Approx).build();
        let ans = engine.query("P(u) | u != a").unwrap();
        assert_eq!(ans.evidence().certificate, Certificate::SoundLowerBound);
        assert!(!ans.is_exact());
        assert!(ans.is_empty(), "the approximation misses the tautology");
        // Auto on the same query escalates and finds it.
        let auto = engine
            .execute_as(
                &engine.prepare_text("P(u) | u != a").unwrap(),
                Semantics::Auto,
            )
            .unwrap();
        assert!(auto.is_exact());
        assert!(auto.holds());
    }

    #[test]
    fn prepared_queries_are_engine_bound() {
        let a = Engine::new(teaching());
        let b = Engine::new(teaching());
        let prepared = a.prepare_text("(x) . TEACHES(socrates, x)").unwrap();
        assert_eq!(
            b.execute(&prepared).unwrap_err(),
            EngineError::PreparedElsewhere
        );
    }

    #[test]
    fn invalid_queries_are_one_error_type() {
        let engine = Engine::new(teaching());
        assert!(matches!(engine.query("NOPE("), Err(EngineError::Logic(_))));
        assert!(matches!(
            engine.query("(x) . UNKNOWN_PRED(x)"),
            Err(EngineError::Logic(_))
        ));
    }

    #[test]
    fn parallelism_is_bit_identical_and_reports_workers() {
        let db = teaching();
        // Cache off: this test re-executes the same queries and asserts
        // fresh per-run evidence (worker counts), which a cache hit would
        // — correctly — short-circuit.
        let sequential = Engine::builder(db.clone())
            .semantics(Semantics::Exact)
            .parallelism(1)
            .answer_cache(false)
            .build();
        for threads in [2usize, 4, 8] {
            let parallel = Engine::builder(db.clone())
                .semantics(Semantics::Exact)
                .parallelism(threads)
                .answer_cache(false)
                .build();
            assert_eq!(parallel.parallelism(), threads);
            for text in [
                "(x) . !TEACHES(socrates, x)",
                "(x, y) . TEACHES(x, y)",
                "forall x. TEACHES(socrates, x) -> x != aristotle",
            ] {
                let a = sequential.query(text).unwrap();
                let b = parallel.query(text).unwrap();
                assert_eq!(a.tuples(), b.tuples(), "{text} at {threads} threads");
                assert_eq!(a.evidence().workers_used, 1);
                assert!(b.evidence().workers_used >= 1);
                // Possible answers run through the same worker pool.
                let pa = sequential
                    .execute_as(&sequential.prepare_text(text).unwrap(), Semantics::Possible)
                    .unwrap();
                let pb = parallel
                    .execute_as(&parallel.prepare_text(text).unwrap(), Semantics::Possible)
                    .unwrap();
                assert_eq!(pa.tuples(), pb.tuples(), "possible {text}");
            }
        }
        // The knob is also mutable on a live session.
        let mut engine = Engine::new(teaching());
        engine.set_parallelism(2);
        assert_eq!(engine.parallelism(), 2);
        let ans = engine.query("(x) . !TEACHES(socrates, x)").unwrap();
        assert!(ans.evidence().workers_used >= 1);
    }

    #[test]
    fn execute_batch_matches_individual_execution() {
        let db = teaching();
        let engine = Engine::builder(db.clone())
            .semantics(Semantics::Exact)
            .answer_cache(false)
            .build();
        let reference = Engine::builder(db).answer_cache(false).build();
        let texts = [
            "(x) . !TEACHES(socrates, x)",
            "(x, y) . TEACHES(x, y)",
            "TEACHES(socrates, mystery)",
        ];
        let prepared: Vec<_> = texts
            .iter()
            .map(|t| engine.prepare_text(t).unwrap())
            .collect();
        for semantics in Semantics::ALL {
            let batch = engine.execute_batch_as(&prepared, semantics).unwrap();
            assert_eq!(batch.len(), prepared.len());
            for (i, t) in texts.iter().enumerate() {
                let solo = reference
                    .execute_as(&reference.prepare_text(t).unwrap(), semantics)
                    .unwrap();
                assert_eq!(batch[i].tuples(), solo.tuples(), "{semantics:?} on {t}");
            }
        }
        // Theorem-1-bound queries under Exact share one enumeration: all
        // three report the same shared total and the batch size.
        let batch = engine
            .execute_batch_as(&prepared, Semantics::Exact)
            .unwrap();
        let shared = batch[0].evidence().mappings_evaluated;
        assert!(shared > 0);
        for a in &batch {
            assert_eq!(a.evidence().mappings_evaluated, shared);
            assert_eq!(a.evidence().shared_batch, Some(3));
            assert!(a.evidence().workers_used >= 1);
        }

        // A batch of one is `execute_as`, counters included: a query
        // prepared before the axioms that make the database fully
        // specified is re-certified once on either path.
        for semantics in Semantics::ALL {
            let engines = [(); 2].map(|_| {
                let mut engine = Engine::builder(teaching()).answer_cache(false).build();
                let prepared = engine.prepare_text("(x) . !TEACHES(socrates, x)").unwrap();
                let voc = engine.db().voc();
                let mystery = voc.const_id("mystery").unwrap();
                let mut delta = Delta::new();
                for other in ["socrates", "plato", "aristotle"] {
                    delta = delta.assert_ne(mystery, voc.const_id(other).unwrap());
                }
                engine.apply(&delta).unwrap();
                assert!(engine.db().is_fully_specified());
                (engine, prepared)
            });
            let [(solo, p), (batched, q)] = &engines;
            let one = solo.execute_as(p, semantics).unwrap();
            let batch = batched
                .execute_batch_as(std::slice::from_ref(q), semantics)
                .unwrap();
            assert_eq!(batch[0].tuples(), one.tuples(), "{semantics:?}");
            assert_eq!(
                batch[0].evidence().certificate,
                one.evidence().certificate,
                "{semantics:?}"
            );
            assert_eq!(
                batched.delta_stats().queries_recertified,
                solo.delta_stats().queries_recertified,
                "{semantics:?}"
            );
            assert_eq!(solo.delta_stats().queries_recertified, 1, "{semantics:?}");
        }
    }

    #[test]
    fn execute_batch_deduplicates_and_serves_cache() {
        let engine = Engine::builder(teaching())
            .semantics(Semantics::Exact)
            .build();
        let p1 = engine.prepare_text("(x) . !TEACHES(socrates, x)").unwrap();
        let p2 = engine.prepare_text("(x) . !TEACHES(socrates, x)").unwrap();
        let p3 = engine.prepare_text("(x, y) . TEACHES(x, y)").unwrap();
        // p1 and p2 are structurally identical: the shared group holds two
        // distinct queries, not three.
        let batch = engine.execute_batch(&[p1.clone(), p2.clone(), p3]).unwrap();
        assert_eq!(batch[0].tuples(), batch[1].tuples());
        assert_eq!(batch[0].evidence().shared_batch, Some(2));
        assert!(!batch[0].evidence().cache_hit);
        // A second batch over cached queries enumerates nothing.
        let again = engine.execute_batch(&[p1, p2]).unwrap();
        for a in &again {
            assert!(a.evidence().cache_hit);
            assert_eq!(a.evidence().mappings_evaluated, 0);
        }
        assert_eq!(again[0].tuples(), batch[0].tuples());
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::new(teaching());
        assert!(engine.execute_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn batch_rejects_foreign_prepared_queries() {
        let a = Engine::new(teaching());
        let b = Engine::new(teaching());
        let p = a.prepare_text("TEACHES(socrates, plato)").unwrap();
        assert_eq!(
            b.execute_batch(&[p]).unwrap_err(),
            EngineError::PreparedElsewhere
        );
    }

    #[test]
    fn cache_serves_repeated_executions() {
        let engine = Engine::builder(teaching())
            .semantics(Semantics::Exact)
            .build();
        assert!(engine.cache_enabled());
        let prepared = engine.prepare_text("(x) . !TEACHES(socrates, x)").unwrap();
        let first = engine.execute(&prepared).unwrap();
        assert!(!first.evidence().cache_hit);
        assert!(first.evidence().mappings_evaluated > 0);
        assert_eq!(engine.cache_len(), 1);

        let second = engine.execute(&prepared).unwrap();
        assert!(second.evidence().cache_hit);
        assert_eq!(second.evidence().mappings_evaluated, 0);
        assert_eq!(second.evidence().workers_used, 0);
        assert_eq!(second.tuples(), first.tuples());
        assert_eq!(second.evidence().certificate, first.evidence().certificate);
        assert_eq!(second.evidence().regime, first.evidence().regime);

        // Different semantics: separate cache slot, fresh run.
        let possible = engine.execute_as(&prepared, Semantics::Possible).unwrap();
        assert!(!possible.evidence().cache_hit);
        assert_eq!(engine.cache_len(), 2);

        // Invalidation empties the cache; the next run is fresh again.
        engine.invalidate_cache();
        assert_eq!(engine.cache_len(), 0);
        let third = engine.execute(&prepared).unwrap();
        assert!(!third.evidence().cache_hit);
        assert_eq!(third.tuples(), first.tuples());

        // Toggling the cache off stops lookups and inserts.
        engine.set_cache_enabled(false);
        let fourth = engine.execute(&prepared).unwrap();
        assert!(!fourth.evidence().cache_hit);
    }

    #[test]
    fn mapping_budget_refuses_hopeless_escalations_with_certified_bounds() {
        let db = teaching(); // kernel count > 1 (mystery is unconstrained)
        let budgeted = Engine::builder(db.clone()).mapping_budget(1).build();
        let unbudgeted = Engine::new(db);
        // A query with no completeness certificate: Auto would escalate.
        let text = "(x) . !TEACHES(socrates, x)";
        let bounded = budgeted.query(text).unwrap();
        assert_eq!(bounded.evidence().certificate, Certificate::BoundedPair);
        assert_eq!(bounded.evidence().mappings_evaluated, 0);
        assert!(!bounded.is_exact());
        let upper = bounded.upper_bound().expect("bounded pair carries bounds");
        let truth = unbudgeted.query(text).unwrap();
        assert!(
            bounded.tuples().is_subset_of(truth.tuples()),
            "lower bound unsound"
        );
        assert!(
            truth.tuples().is_subset_of(upper),
            "upper bound not a superset"
        );
        // Within budget, Auto still escalates normally.
        let generous = Engine::builder(budgeted.db().clone())
            .mapping_budget(1_000_000)
            .build();
        let exact = generous.query(text).unwrap();
        assert_eq!(exact.evidence().certificate, Certificate::ExactTheorem1);
        assert_eq!(exact.tuples(), truth.tuples());
        // Certified paths are untouched by the budget.
        let positive = budgeted.query("(x) . TEACHES(socrates, x)").unwrap();
        assert!(positive.is_exact());
        // Non-bounded answers carry no upper bound.
        assert!(positive.upper_bound().is_none());
    }

    #[test]
    fn evidence_summary_is_printable() {
        let engine = Engine::new(teaching());
        let ans = engine.query("TEACHES(socrates, plato)").unwrap();
        let line = ans.evidence().summary();
        assert!(line.contains("auto"), "{line}");
        assert!(line.contains("Theorem 13"), "{line}");
    }
}

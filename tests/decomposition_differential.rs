//! Differential tests of the one Theorem 1 walk (kernel partitions of the
//! core, free nulls collapsed): the engine must agree with the raw-mapping
//! oracle — Theorem 1 verbatim over every respecting `h` — and, on tiny
//! instances, with the model-enumeration oracle, across every semantics,
//! solo and batched, on random databases and random query sets, *after*
//! random delta sequences exercising the cross-delta decomposition memo,
//! and on hand-picked inputs for each shape the walk's plan can take. The
//! accounting invariant rides along: visited images plus pruned mappings
//! must cover the kernel space exactly, and the closed-form kernel counter
//! must agree with brute enumeration.
//!
//! Run under `QLD_THREADS=1` and `QLD_THREADS=4` (CI does both): the walk
//! must be thread-count deterministic.

#[macro_use]
#[path = "support/cases.rs"]
mod cases;
#[path = "support/scenario.rs"]
mod scenario;

use cases::Outcome;
use querying_logical_databases::core::exact::{certain_answers_with, AnswerMode, ExactOptions};
use querying_logical_databases::core::mappings::{
    count_kernel_mappings, count_kernel_mappings_by_enumeration,
};
use querying_logical_databases::core::oracle::{answers_by_raw_mappings, certain_answers_oracle};
use querying_logical_databases::core::textio::from_text;
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::Query;
use querying_logical_databases::prelude::{Engine, PreparedQuery, Semantics};
use scenario::{prepare_all, Scenario, Shape, SMALL};

/// Sparser facts than the other differential suites: constants outside
/// every fact and axiom are exactly the free constants the walk
/// collapses, so leave room for them to occur. Fact inserts land on both
/// core and free constants (re-capturing free ones — the
/// memo-invalidation path), NE asserts always reset the memo.
const SPARSE: Shape = Shape {
    consts: 1..=5,
    facts_per_pred: 2,
    ..SMALL
};

/// The engine under test at `threads` workers, and `s`'s queries
/// prepared on it.
fn engine_for(s: &Scenario, threads: usize) -> (Engine, Vec<PreparedQuery>) {
    let engine = Engine::builder(s.db.clone())
        .parallelism(threads)
        .answer_cache(false)
        .build();
    let prepared = prepare_all(&engine, s);
    (engine, prepared)
}

/// The differential property: under every semantics the engine's answer
/// for each query stands in the certified relation to the raw-mapping
/// oracle's (`Possible` equals the union dual; an exact certificate means
/// equality with the certain answers — `Exact` always carries one; anything
/// else is a sound lower bound), the model-enumeration oracle concurs when
/// the instance is small enough for it, a batch equals its solo runs, and
/// every enumeration accounts for the whole kernel space.
fn assert_engine_matches_oracles(
    engine: &Engine,
    prepared: &[PreparedQuery],
    queries: &[Query],
    context: &str,
) -> Outcome {
    let db = engine.db();
    let kernel_count = count_kernel_mappings(db);
    let mut solo = Vec::new();
    for (p, q) in prepared.iter().zip(queries) {
        let (certain, _) = answers_by_raw_mappings(db, q, AnswerMode::Certain);
        let (possible, _) = answers_by_raw_mappings(db, q, AnswerMode::Possible);
        if db.num_consts() <= 3 {
            ensure_eq!(
                &certain_answers_oracle(db, q).unwrap(),
                &certain,
                "raw mappings diverged from model enumeration on {:?} ({})",
                q,
                context
            );
        }
        for semantics in Semantics::ALL {
            let answers = engine.execute_as(p, semantics).unwrap();
            let e = answers.evidence();
            if semantics == Semantics::Possible {
                ensure_eq!(
                    answers.tuples(),
                    &possible,
                    "possible answers diverged from raw mappings on {:?} ({})",
                    q,
                    context
                );
            } else if answers.is_exact() {
                ensure_eq!(
                    answers.tuples(),
                    &certain,
                    "{:?} certified {:?} but diverged from raw mappings on {:?} ({})",
                    semantics,
                    e.certificate,
                    q,
                    context
                );
            } else {
                ensure!(
                    semantics != Semantics::Exact,
                    "Exact must certify exactness"
                );
                ensure!(
                    answers.tuples().is_subset_of(&certain),
                    "{:?} lower bound is unsound on {:?} ({})",
                    semantics,
                    q,
                    context
                );
            }
            // `components > 0` marks the answers an enumeration produced.
            if e.components > 0 {
                ensure_eq!(
                    e.mappings_evaluated + e.mappings_pruned,
                    kernel_count,
                    "evaluated + pruned must equal the kernel count ({})",
                    context
                );
            }
            solo.push(answers);
        }
    }
    for (si, semantics) in Semantics::ALL.into_iter().enumerate() {
        let batch = engine.execute_batch_as(prepared, semantics).unwrap();
        for (qi, member) in batch.iter().enumerate() {
            let alone = &solo[qi * Semantics::ALL.len() + si];
            ensure_eq!(
                member.tuples(),
                alone.tuples(),
                "batch member {} diverged from its solo run under {:?} ({})",
                qi,
                semantics,
                context
            );
            ensure_eq!(member.evidence().certificate, alone.evidence().certificate);
        }
    }
    Ok(())
}

/// Hand-picked inputs to the same property, one per shape the walk's plan
/// can take.
#[test]
fn plan_shapes_match_oracles() {
    // a ≠ b, P(a), Q(a, b); `u` and `v` are free.
    let mixed = "const a b u v\npred P/1 Q/2\nfact P(a)\nfact Q(a, b)\nunique a b\n";
    let cases: [(&str, &str, &[&str]); 6] = [
        (
            "every constant free: empty core, e starts at 1",
            "const u v w\npred P/1 Q/2\n",
            &["(x) . !P(x)", "exists x, y. x != y", "(x, y) . x = y"],
        ),
        (
            "the query mentions every free constant: no free constant left",
            mixed,
            &["(x) . x = u | x = v | !P(x)", "(x) . Q(a, x) | x = u | x = v"],
        ),
        (
            // |D| ≥ 4 (two sets cut the domain into four inhabited types)
            // at first-order rank 1: only the image with e = m = 3 fresh
            // elements satisfies it, beyond the EF cap of 2.
            "second-order queries count: no EF cap, e runs to m",
            "const a u v w\npred P/1 Q/2\nfact P(a)\n",
            &[
                "exists2 ?A:1. exists2 ?B:1. (exists x. ?A(x) & ?B(x)) & (exists x. ?A(x) & !?B(x)) \
                 & (exists x. !?A(x) & ?B(x)) & (exists x. !?A(x) & !?B(x))",
                "forall2 ?A:1. forall2 ?B:1. !((exists x. ?A(x) & ?B(x)) & (exists x. ?A(x) & !?B(x)) \
                 & (exists x. !?A(x) & ?B(x)) & (exists x. !?A(x) & !?B(x)))",
            ],
        ),
        (
            // Rank 2 at arities 0–2 caps `e` at 3 = m: four images per core
            // partition share one mapping of the relations and differ in
            // domain and constants only.
            "three free nulls beside a core that holds the facts",
            "const a b u v w\npred P/1 Q/2\nfact P(a)\nfact Q(a, b)\nfact Q(b, b)\nunique a b\n",
            &[
                "exists x, y. x != y & !P(x) & !P(y)",
                "(x) . forall y. Q(y, x) | exists z. z != y & !Q(z, z)",
                "(x, y) . !Q(x, y) & exists z. z != x & forall t. Q(t, z) -> t = y",
            ],
        ),
        (
            "single constant",
            "const only\npred P/1 Q/2\nfact P(only)\n",
            &["forall x, y. x = y", "(x) . P(x)", "(x, y) . !Q(x, y)"],
        ),
        (
            "batch of arities 0-2 whose Boolean member empties on the first image",
            mixed,
            &["P(b)", "(x) . !P(x)", "(x, y) . !Q(x, y) | x = y"],
        ),
    ];
    for (shape, text, inputs) in cases {
        let db = from_text(text).unwrap();
        let queries = inputs.iter().map(|t| parse_query(db.voc(), t).unwrap());
        let s = Scenario::fixed(db.clone(), queries.collect(), Vec::new());
        for threads in [1, 4] {
            let (engine, prepared) = engine_for(&s, threads);
            assert_engine_matches_oracles(&engine, &prepared, &s.queries, shape).unwrap();
        }
    }
}

property! {
    /// The walk — decomposed where constants are free, the classic
    /// one-image-per-kernel case where none is — ≡ the raw-mapping oracle
    /// (≡ model enumeration when tiny) on random databases and queries,
    /// under every semantics; the pruning accounting covers the kernel
    /// space.
    fn decomposed_equals_classic_and_raw(s in |rng| Scenario::generate(&SPARSE, rng); 16) {
        let (engine, prepared) = engine_for(s, s.threads);
        assert_engine_matches_oracles(&engine, &prepared, &s.queries, "static db")
    }

    /// The same equivalence *through* random delta sequences: the engine
    /// keeps (or correctly invalidates) its cached decomposition across
    /// fact inserts and NE asserts, and stays identical to oracles that
    /// recompute everything from the mutated database.
    fn decomposed_equals_classic_after_deltas(
        s in |rng| Scenario::generate(&Shape { consts: 2..=5, queries: 2, ..SPARSE }, rng); 16
    ) {
        let (mut engine, prepared) = engine_for(s, s.threads);
        // Warm the decomposition memo (and every derived structure) before
        // mutating, so the deltas exercise invalidation rather than
        // first-use initialization.
        assert_engine_matches_oracles(&engine, &prepared, &s.queries, "pre-delta warmup")?;
        for (i, op) in s.ops.iter().enumerate() {
            engine.apply(&op.to_delta().unwrap()).unwrap();
            let context = format!("after op {i} = {}", s.line(op));
            assert_engine_matches_oracles(&engine, &prepared, &s.queries, &context)?;
        }
        Ok(())
    }

    /// The closed-form kernel counter (Stirling/Bell products over NE
    /// components) agrees with brute-force kernel enumeration, and the
    /// core evaluator's totals line up with it when early exit is off.
    fn closed_form_kernel_count_matches_enumeration(
        s in |rng| Scenario::generate(&Shape { consts: 1..=6, queries: 1, ..SPARSE }, rng); 16
    ) {
        let closed = count_kernel_mappings(&s.db);
        ensure_eq!(closed, count_kernel_mappings_by_enumeration(&s.db));
        // With no early exit, visited + pruned covers exactly that space.
        let opts = ExactOptions {
            corollary2_fast_path: false,
            early_exit: false,
            ..ExactOptions::new()
        };
        let (_, stats) = certain_answers_with(&s.db, &s.queries[0], opts).unwrap();
        ensure_eq!(stats.mappings_evaluated + stats.mappings_pruned, closed);
        Ok(())
    }
}

//! Integration tests of the unified `qld_engine::Engine` session API,
//! against the shared harness's oracle (`tests/support/`): certificate
//! correctness on random workloads, prepared-query reuse, and the
//! builder's knobs.

#[macro_use]
#[path = "support/cases.rs"]
mod cases;
#[path = "support/scenario.rs"]
mod scenario;

use querying_logical_databases::core::{certain_answers, possible_answers};
use querying_logical_databases::logic::display::display_query;
use querying_logical_databases::prelude::{Certificate, Engine, Regime, Semantics};
use rand::rngs::StdRng;
use scenario::{prepare_all, Observation, Scenario, Shape};

/// Five constants, four facts per predicate, no deltas; the queries vary.
const API: Shape = Shape {
    consts: 5..=5,
    known_tenths: 0..=10,
    facts_per_pred: 4,
    queries: 0,
    ops: 0..=0,
};

/// `API` with `queries` queries.
fn api(queries: usize) -> impl FnMut(&mut StdRng) -> Scenario {
    move |rng| Scenario::generate(&Shape { queries, ..API }, rng)
}

property! {
    /// The acceptance criterion for `Auto` mode, differentially: on random
    /// databases and queries, every `Auto` answer is certified exact, is
    /// bit-identical to `certain_answers` (Theorem 1, independent of the
    /// engine's routing) and matches the oracle, and escalation to
    /// Theorem 1 happens exactly when no completeness theorem applies.
    fn auto_mode_agrees_with_certain_answers_and_certifies_correctly(s in api(12); 25) {
        let engine = Engine::new(s.db.clone());
        let mut observed = Vec::new();
        for (i, prepared) in prepare_all(&engine, s).iter().enumerate() {
            let answers = engine.eval(&s.queries[i]).unwrap();
            let ev = answers.evidence();
            ensure!(ev.certificate.is_exact(), "auto must always certify");
            ensure_eq!(
                answers.tuples(),
                &certain_answers(&s.db, &s.queries[i]).unwrap(),
                "auto disagrees with certain_answers under {:?}",
                ev.certificate
            );
            // Escalation discipline: Theorem 1 runs iff no completeness
            // theorem applies.
            let escalated = ev.regime == Regime::Theorem1;
            ensure!(
                escalated == prepared.completeness().is_none(),
                "{} escalation",
                if escalated { "needless" } else { "missing" }
            );
            observed.push(Observation::of(i, Semantics::Auto, &answers));
        }
        s.check(&observed)
    }

    /// Approx-semantics certificates are honest on random workloads: they
    /// match the oracle's, claimed exactness implies equality with
    /// `certain_answers`, and the uncertified case is still sound.
    fn approx_certificates_are_sound_on_random_workloads(s in api(5); 15) {
        let engine = Engine::builder(s.db.clone()).semantics(Semantics::Approx).build();
        let mut observed = Vec::new();
        for (i, q) in s.queries.iter().enumerate() {
            let answers = engine.eval(q).unwrap();
            let certain = certain_answers(&s.db, q).unwrap();
            let shown = display_query(s.db.voc(), q);
            ensure!(
                answers.tuples().is_subset_of(&certain),
                "Theorem 11 soundness violated on `{shown}`"
            );
            ensure!(
                !answers.is_exact() || *answers.tuples() == certain,
                "exactness certificate lied on `{shown}`"
            );
            observed.push(Observation::of(i, Semantics::Approx, &answers));
        }
        s.check(&observed)
    }

    /// A reused `PreparedQuery` returns identical results to one-shot
    /// evaluation across all four semantics — repeatedly.
    fn prepared_query_reuse_matches_one_shot_across_semantics(s in api(4); 10) {
        let engine = Engine::new(s.db.clone());
        let mut observed = Vec::new();
        for (i, prepared) in prepare_all(&engine, s).iter().enumerate() {
            for semantics in Semantics::ALL {
                let mut one_shot = Engine::new(s.db.clone());
                one_shot.set_semantics(semantics);
                let one_shot = one_shot.eval(&s.queries[i]).unwrap();
                // The same prepared query twice, and a fresh one-shot
                // engine: all three answer like the oracle.
                for answers in [
                    engine.execute_as(prepared, semantics).unwrap(),
                    engine.execute_as(prepared, semantics).unwrap(),
                    one_shot,
                ] {
                    observed.push(Observation::of(i, semantics, &answers));
                }
            }
        }
        s.check(&observed)
    }

    /// Exact and Possible semantics through the engine match the qld_core
    /// reference functions, and the evidence layer reports mapping effort.
    fn exact_and_possible_match_reference_functions(s in api(2); 10) {
        let engine = Engine::new(s.db.clone());
        for (prepared, q) in prepare_all(&engine, s).iter().zip(&s.queries) {
            let exact = engine.execute_as(prepared, Semantics::Exact).unwrap();
            ensure_eq!(*exact.tuples(), certain_answers(&s.db, q).unwrap());
            let possible = engine.execute_as(prepared, Semantics::Possible).unwrap();
            ensure_eq!(*possible.tuples(), possible_answers(&s.db, q).unwrap());
            ensure_eq!(possible.evidence().certificate, Certificate::PossibleUpperBound);
            ensure!(possible.evidence().mappings_evaluated > 0);
            ensure!(exact.tuples().is_subset_of(possible.tuples()));
        }
        Ok(())
    }
}

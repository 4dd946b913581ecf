//! What building `α_P` costs, counted before it is clocked.
//!
//! `α_P` is the set of tuples of `C^k` that disagree with every fact of
//! `P`. The scan this build replaced put every tuple against every fact
//! through the union-find test — about `|C|^k · |facts| / 2` tests. The
//! index-driven build (see `qld_approx::disagree`) settles almost every
//! pair on single coordinates of an `NE` bit matrix and sends only the
//! pairs whose edges share a vertex to the union-find, so a build must
//! stay under `|C|^k` tests and must not grow with the number of facts.
//! `DisagreeScratch` counts its tests in a plain `u64`, which
//! `ApproxEngine::disagree_tests` reads; the count is a pure function of
//! the database, so these bounds hold or fail identically on any host.

use querying_logical_databases::approx::ApproxEngine;
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::ConstId;
use querying_logical_databases::workloads::{random_cw_db, DbGenConfig};

/// `qld_bench`'s serving shape (`known_fraction 0.7`, `2·n` facts per
/// predicate unless doubled) over the given predicate arities.
fn generated_db(num_consts: usize, pred_arities: &[usize], facts_per_pred: usize) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: pred_arities.to_vec(),
        facts_per_pred,
        known_fraction: 0.7,
        extra_ne_pairs: 0,
        seed: 1,
    })
}

#[test]
fn a_build_runs_fewer_union_find_tests_than_the_tuple_space_has_tuples() {
    for (num_consts, pred_arities) in [(32, &[2, 1][..]), (160, &[2, 1]), (64, &[3])] {
        let space = (num_consts as u64).pow(pred_arities[0] as u32);
        let count = |facts_per_pred| {
            ApproxEngine::new(&generated_db(num_consts, pred_arities, facts_per_pred))
                .disagree_tests()
        };
        let (base, doubled) = (count(2 * num_consts), count(4 * num_consts));
        assert!(
            base <= space && doubled <= space,
            "{num_consts} constants, arities {pred_arities:?}: {base} / {doubled} tests for {space} tuples"
        );
        assert!(
            (doubled as f64) < 1.25 * base as f64,
            "{num_consts} constants, arities {pred_arities:?}: doubling the facts took {base} tests to {doubled}"
        );
    }
}

#[test]
fn an_ne_delta_rechecks_within_the_same_bound() {
    let mut db = generated_db(160, &[2, 1], 320);
    let mut engine = ApproxEngine::new(&db);
    let built = engine.disagree_tests();
    // The first two constants without an axiom between them (two nulls).
    let n = db.num_consts() as u32;
    let (a, b) = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .find(|&(a, b)| !db.is_ne(ConstId(a), ConstId(b)))
        .expect("30 % of the constants are nulls");
    assert!(db.insert_ne(ConstId(a), ConstId(b)).unwrap());
    engine.apply_delta(&db, &[], &[(a, b)]);
    let rechecked = engine.disagree_tests() - built;
    assert!(
        rechecked <= 160 * 160,
        "one axiom on a built 160-constant engine ran {rechecked} union-find tests"
    );
    assert_eq!(engine.extended_db(), ApproxEngine::new(&db).extended_db());
}

#[test]
fn an_engine_grown_delta_by_delta_equals_the_built_one() {
    let full = generated_db(32, &[2, 1], 64);
    let mut db = CwDatabase::builder(full.voc().clone()).build().unwrap();
    let mut engine = ApproxEngine::new(&db);
    // Facts and axioms interleaved, so both delta paths meet α_P relations
    // and an NE matrix the other one has already changed.
    let facts = full.voc().preds().flat_map(|p| {
        full.facts(p)
            .iter()
            .map(move |row| (p, Box::<[u32]>::from(row)))
    });
    let mut axioms = full.ne_pairs().iter().copied();
    for fact in facts {
        let args: Vec<ConstId> = fact.1.iter().map(|&e| ConstId(e)).collect();
        assert!(db.insert_fact(fact.0, &args).unwrap());
        engine.apply_delta(&db, &[fact], &[]);
        for (a, b) in axioms.by_ref().take(2) {
            assert!(db.insert_ne(ConstId(a), ConstId(b)).unwrap());
            engine.apply_delta(&db, &[], &[(a, b)]);
        }
    }
    for (a, b) in axioms {
        assert!(db.insert_ne(ConstId(a), ConstId(b)).unwrap());
        engine.apply_delta(&db, &[], &[(a, b)]);
    }
    assert_eq!(db, full);
    assert_eq!(engine.extended_db(), ApproxEngine::new(&full).extended_db());
}

//! Randomized verification of the §5 approximation theorems:
//! soundness (Thm 11), completeness on fully specified databases
//! (Thm 12), completeness on positive queries (Thm 13), agreement of the
//! materialized `α_P` with the literal Lemma 10 formula and of the explicit
//! `NE` with the virtual one (`support/ne_store.rs`), and the
//! relational-algebra compilation of `Q̂`.

#[path = "support/ne_store.rs"]
mod ne_store;

use ne_store::{lemma10_expand, NeStore, VirtualNe};
use qld_algebra::compile::eval_via_algebra;
use qld_algebra::{CompileError, ExecOptions};
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::approx::{AlphaMode, ApproxEngine};
use querying_logical_databases::core::{certain_answers, CwDatabase};
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::{ConstId, Formula, Query, Vocabulary};
use querying_logical_databases::physical::{eval_query, Relation};

fn db_cfg(seed: u64, known_fraction: f64) -> DbGenConfig {
    DbGenConfig {
        num_consts: 5,
        pred_arities: vec![2, 1],
        facts_per_pred: 4,
        known_fraction,
        extra_ne_pairs: 1,
        seed,
    }
}

fn q_cfg(fragment: QueryFragment, head_arity: usize, seed: u64) -> QueryGenConfig {
    QueryGenConfig {
        fragment,
        max_depth: 3,
        head_arity,
        seed,
    }
}

/// The engine's `Q̂` for `q`.
fn q_hat(engine: &ApproxEngine, q: &Query) -> Query {
    engine.rewrite(q, AlphaMode::Materialized).unwrap()
}

/// `Q̂` with the literal Lemma 10 formula in place of every `α_P` scan,
/// over the engine's `Ph₂(LB)`.
fn eval_lemma10(engine: &ApproxEngine, q: &Query) -> Relation {
    eval_query(
        engine.extended_db(),
        &lemma10_expand(engine, &q_hat(engine, q)),
    )
}

/// `Q̂` over the virtual `NE` store, with materialized `α_P` and with the
/// Lemma 10 formula (the interaction of the two substitutions).
fn eval_virtual(engine: &ApproxEngine, virt: &VirtualNe, q: &Query) -> [Relation; 2] {
    let q_hat = q_hat(engine, q);
    [
        virt.eval(&q_hat),
        virt.eval(&lemma10_expand(engine, &q_hat)),
    ]
}

#[test]
fn theorem_11_soundness_on_random_instances() {
    for seed in 0..25 {
        let db = random_cw_db(&db_cfg(seed, 0.4));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..8 {
            let q = random_query(
                db.voc(),
                &q_cfg(
                    QueryFragment::FullFo,
                    (qseed % 3) as usize,
                    qseed * 31 + seed,
                ),
            );
            let approx = engine.eval(&q).unwrap();
            let exact = certain_answers(&db, &q).unwrap();
            assert!(
                approx.is_subset_of(&exact),
                "UNSOUND: db seed {seed}, query {q:?}: {approx:?} ⊄ {exact:?}"
            );
        }
    }
}

#[test]
fn theorem_12_completeness_on_fully_specified() {
    for seed in 0..20 {
        let db = random_cw_db(&db_cfg(seed, 1.0));
        assert!(db.is_fully_specified());
        let engine = ApproxEngine::new(&db);
        for qseed in 0..8 {
            let q = random_query(
                db.voc(),
                &q_cfg(QueryFragment::FullFo, 1, qseed * 61 + seed),
            );
            assert_eq!(
                engine.eval(&q).unwrap(),
                certain_answers(&db, &q).unwrap(),
                "Theorem 12 violated: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn theorem_13_completeness_on_positive_queries() {
    for seed in 0..20 {
        let db = random_cw_db(&db_cfg(seed, 0.4));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..8 {
            let q = random_query(
                db.voc(),
                &q_cfg(QueryFragment::Positive, 1, qseed * 47 + seed),
            );
            assert!(q.is_positive());
            assert_eq!(
                engine.eval(&q).unwrap(),
                certain_answers(&db, &q).unwrap(),
                "Theorem 13 violated: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn alpha_modes_agree() {
    for seed in 0..15 {
        let db = random_cw_db(&db_cfg(seed, 0.4));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..6 {
            let q = random_query(
                db.voc(),
                &q_cfg(QueryFragment::FullFo, 1, qseed * 17 + seed),
            );
            assert_eq!(
                engine.eval(&q).unwrap(),
                eval_lemma10(&engine, &q),
                "α realizations disagree: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn virtual_ne_agrees_with_explicit() {
    for seed in 0..15 {
        let db = random_cw_db(&db_cfg(seed, 0.6));
        let explicit = ApproxEngine::new(&db);
        let virtual_ne = VirtualNe::new(&db, &explicit);
        for qseed in 0..6 {
            let q = random_query(
                db.voc(),
                &q_cfg(QueryFragment::FullFo, 1, qseed * 11 + seed),
            );
            let answers = explicit.eval(&q).unwrap();
            let [virt, lemma10_virt] = eval_virtual(&explicit, &virtual_ne, &q);
            assert_eq!(answers, virt, "virtual NE: db seed {seed}, query {q:?}");
            assert_eq!(
                answers, lemma10_virt,
                "Lemma 10 × virtual NE: db seed {seed}, query {q:?}"
            );
        }
    }
}

/// `Q̂` compiled to relational algebra — §5's "standard relational
/// system" — returns what the engine's evaluator returns, under both join
/// algorithms; a second-order `Q̂` is refused, not mis-compiled.
#[test]
fn algebra_backend_agrees_with_naive() {
    use qld_algebra::JoinAlgo;
    for seed in 0..15 {
        let db = random_cw_db(&db_cfg(seed, 0.4));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..6 {
            let q = random_query(
                db.voc(),
                &q_cfg(
                    QueryFragment::FullFo,
                    (qseed % 2) as usize,
                    qseed * 13 + seed,
                ),
            );
            let naive = engine.eval(&q).unwrap();
            let rewritten = q_hat(&engine, &q);
            for join in [JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
                let algebra = eval_via_algebra(
                    engine.extended_voc(),
                    engine.extended_db(),
                    &rewritten,
                    ExecOptions { join },
                )
                .unwrap();
                assert_eq!(
                    naive, algebra,
                    "algebra backend ({join:?}) disagrees: db seed {seed}, query {q:?}"
                );
            }
        }
        let second_order = parse_query(db.voc(), "exists2 ?S:1. ?S(k0) & !?S(k1)").unwrap();
        let rewritten = q_hat(&engine, &second_order);
        assert_eq!(
            eval_via_algebra(
                engine.extended_voc(),
                engine.extended_db(),
                &rewritten,
                ExecOptions::default(),
            ),
            Err(CompileError::SecondOrder),
            "db seed {seed}"
        );
    }
}

#[test]
fn approximation_precision_is_exactly_one() {
    // Soundness means precision 1.0 — every reported tuple is certain.
    // Measure it the way experiment E7 does, as a sanity-check of the
    // metric computation itself.
    let mut reported = 0usize;
    let mut correct = 0usize;
    for seed in 0..10 {
        let db = random_cw_db(&db_cfg(seed, 0.3));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..5 {
            let q = random_query(db.voc(), &q_cfg(QueryFragment::FullFo, 1, qseed + seed));
            let approx = engine.eval(&q).unwrap();
            let exact = certain_answers(&db, &q).unwrap();
            reported += approx.len();
            correct += approx.iter().filter(|t| exact.contains(t)).count();
        }
    }
    assert_eq!(reported, correct, "precision must be exactly 1");
}

// The references' own checks, on hand-picked tiny databases.

/// §2.2-flavoured database: socrates/plato/aristotle pairwise distinct;
/// `mystery` a null. TEACHES(socrates, plato).
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

const TEACHING_QUERIES: &[&str] = &[
    "(x) . TEACHES(socrates, x)",
    "(x) . !TEACHES(socrates, x)",
    "(x, y) . TEACHES(x, y)",
    "(x) . x != plato",
    "(x) . !TEACHES(x, x) & x != mystery",
    "exists x. TEACHES(x, plato)",
    "forall x. TEACHES(socrates, x) -> x != aristotle",
    "(x) . TEACHES(socrates, x) | x = socrates",
    "!TEACHES(plato, socrates)",
];

#[test]
fn lemma10_mode_matches_materialized() {
    let db = teaching();
    let engine = ApproxEngine::new(&db);
    for input in TEACHING_QUERIES {
        let q = parse_query(db.voc(), input).unwrap();
        assert_eq!(
            engine.eval(&q).unwrap(),
            eval_lemma10(&engine, &q),
            "α realizations disagree on {input}"
        );
    }
}

#[test]
fn virtual_ne_matches_explicit() {
    let db = teaching();
    let engine = ApproxEngine::new(&db);
    let virtual_ne = VirtualNe::new(&db, &engine);
    for input in TEACHING_QUERIES {
        let q = parse_query(db.voc(), input).unwrap();
        let answers = engine.eval(&q).unwrap();
        let [virt, lemma10_virt] = eval_virtual(&engine, &virtual_ne, &q);
        assert_eq!(answers, virt, "virtual NE disagrees on {input}");
        assert_eq!(
            answers, lemma10_virt,
            "virtual NE disagrees on {input} (Lemma 10)"
        );
    }
}

#[test]
fn lemma10_mode_builds_formula() {
    let db = teaching();
    let engine = ApproxEngine::new(&db);
    let q = parse_query(db.voc(), "(x) . !TEACHES(x, x)").unwrap();
    let scan = q_hat(&engine, &q);
    assert!(
        matches!(scan.body(), Formula::Atom(p, _) if *p == engine.alpha_preds()[0]),
        "Q̂ is one α scan: {scan:?}"
    );
    let formula = lemma10_expand(&engine, &scan);
    // The α formula quantifies and mentions NE, and no α atom is left for
    // a second substitution to replace.
    assert!(formula.body().size() > 10);
    formula.check(engine.extended_voc()).unwrap();
    assert_eq!(lemma10_expand(&engine, &formula), formula);
}

/// 6 constants: 0..4 pairwise distinct ("known"), 4 and 5 are nulls;
/// additionally we know null 4 ≠ constant 0.
fn mostly_known() -> CwDatabase {
    let mut voc = Vocabulary::new();
    let ids = voc
        .add_consts(["k0", "k1", "k2", "k3", "u4", "u5"])
        .unwrap();
    let known = &ids[..4];
    CwDatabase::builder(voc)
        .pairwise_unique(known)
        .unique(ids[4], ids[0])
        .build()
        .unwrap()
}

#[test]
fn representations_agree() {
    let db = mostly_known();
    let explicit = NeStore::explicit(&db);
    let virt = NeStore::virtualized(&db);
    for a in 0..6 {
        for b in 0..6 {
            assert_eq!(
                explicit.contains(a, b),
                virt.contains(a, b),
                "disagreement at ({a},{b})"
            );
            assert_eq!(explicit.contains(a, b), db.is_ne(ConstId(a), ConstId(b)));
        }
    }
    assert_eq!(explicit.to_relation(6), virt.to_relation(6));
}

#[test]
fn virtual_is_smaller_on_mostly_known_data() {
    let db = mostly_known();
    let explicit = NeStore::explicit(&db);
    let virt = NeStore::virtualized(&db);
    // Explicit: (C(4,2)+1)*2 = 14 tuples. Virtual: 2 unknowns + 2
    // oriented NE′ tuples = 4 entries.
    assert_eq!(explicit.stored_entries(), 14);
    assert_eq!(virt.stored_entries(), 4);
}

#[test]
fn fully_specified_has_empty_virtual_side() {
    let mut voc = Vocabulary::new();
    voc.add_consts(["a", "b", "c"]).unwrap();
    let db = CwDatabase::builder(voc).fully_specified().build().unwrap();
    let virt = NeStore::virtualized(&db);
    match &virt {
        NeStore::Virtual { unknown, ne_prime } => {
            assert!(unknown.is_empty());
            assert!(ne_prime.is_empty());
        }
        other => panic!("expected virtual store, got {other:?}"),
    }
    // NE(x,y) ≡ x ≠ y, as the paper says.
    assert!(virt.contains(0, 1));
    assert!(!virt.contains(2, 2));
}

#[test]
fn no_axioms_means_everything_unknown() {
    let mut voc = Vocabulary::new();
    voc.add_consts(["a", "b"]).unwrap();
    let db = CwDatabase::builder(voc).build().unwrap();
    let virt = NeStore::virtualized(&db);
    assert!(!virt.contains(0, 1));
    // One constant may sit in the (vacuous) known clique; the other is
    // unknown — and no pair is reported distinct.
    assert_eq!(virt.stored_entries(), 1);
    assert!(virt.to_relation(2).is_empty());
}

#[test]
fn known_unknown_pair_not_ne_unless_axiom() {
    let db = mostly_known();
    let virt = NeStore::virtualized(&db);
    // u4 ≠ k0 is an axiom → in NE.
    assert!(virt.contains(4, 0));
    // u4 vs k1: no axiom → not in NE (u4 might equal k1).
    assert!(!virt.contains(4, 1));
    // u4 vs u5: no axiom → not in NE.
    assert!(!virt.contains(4, 5));
}

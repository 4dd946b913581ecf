//! Differential tests of the exact certain-answer evaluator: the
//! production Theorem 1 walk against the raw-mapping oracle (Theorem 1
//! verbatim), against the model-enumeration oracle, and against the
//! Theorem 3 precise simulation — on seeded random databases and queries.

#[path = "support/oracle.rs"]
mod oracle;
#[path = "support/precise.rs"]
mod precise;

use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::exact::{
    certain_answers_with, possible_answers_with, AnswerMode, ExactOptions,
};
use querying_logical_databases::core::mappings::{
    count_kernel_mappings, count_kernel_mappings_up_to, for_each_kernel_mapping, respects,
};
use querying_logical_databases::core::ph::ph1;
use querying_logical_databases::core::worlds::for_each_world;
use querying_logical_databases::core::{certain_answers, CwDatabase};
use querying_logical_databases::logic::builders::VarGen;
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::{ConstId, Formula, QueryClass, Vocabulary};
use querying_logical_databases::physical::{satisfies_all, Elem};
use std::collections::HashSet;

fn kernels() -> ExactOptions {
    ExactOptions {
        corollary2_fast_path: false,
        ..ExactOptions::new()
    }
}

#[test]
fn kernel_enumeration_equals_raw_enumeration() {
    for seed in 0..30 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: 5,
            pred_arities: vec![2, 1],
            facts_per_pred: 4,
            known_fraction: 0.5,
            extra_ne_pairs: 1,
            seed,
        });
        for qseed in 0..6 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 3,
                    head_arity: (qseed % 3) as usize,
                    seed: qseed * 1000 + seed,
                },
            );
            let a = certain_answers_with(&db, &q, kernels()).unwrap().0;
            let b = oracle::answers_by_raw_mappings(&db, &q, AnswerMode::Certain).0;
            assert_eq!(
                a, b,
                "kernel walk ≠ raw mappings: db seed {seed}, query seed {qseed}, query {q:?}"
            );
        }
    }
}

#[test]
fn exact_equals_model_enumeration_oracle() {
    // Tiny instances: the oracle is doubly exponential.
    for seed in 0..12 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: 3,
            pred_arities: vec![2],
            facts_per_pred: 2,
            known_fraction: if seed % 2 == 0 { 0.34 } else { 0.67 },
            extra_ne_pairs: 0,
            seed,
        });
        for qseed in 0..4 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 2,
                    head_arity: (qseed % 2) as usize,
                    seed: qseed * 777 + seed,
                },
            );
            let fast = certain_answers(&db, &q).unwrap();
            let slow = oracle::certain_answers_oracle(&db, &q).unwrap();
            assert_eq!(fast, slow, "oracle mismatch: db seed {seed}, query {q:?}");
        }
    }
}

#[test]
fn precise_simulation_equals_exact() {
    // The Theorem 3 second-order simulation is doubly exponential in the
    // database: keep |C| minimal.
    for seed in 0..8 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: 3,
            pred_arities: vec![1],
            facts_per_pred: 2,
            known_fraction: 0.34,
            extra_ne_pairs: (seed % 2) as usize,
            seed,
        });
        for qseed in 0..4 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 2,
                    head_arity: (qseed % 2) as usize,
                    seed: qseed * 131 + seed,
                },
            );
            let direct = certain_answers(&db, &q).unwrap();
            let simulated = precise::evaluate(&db, &q).unwrap();
            assert_eq!(
                simulated, direct,
                "Theorem 3 mismatch: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn corollary2_on_random_fully_specified_databases() {
    for seed in 0..20 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: 5,
            pred_arities: vec![2, 1],
            facts_per_pred: 5,
            known_fraction: 1.0,
            extra_ne_pairs: 0,
            seed,
        });
        assert!(db.is_fully_specified());
        for qseed in 0..5 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 3,
                    head_arity: 1,
                    seed: qseed * 313 + seed,
                },
            );
            let (fast, s) = certain_answers_with(&db, &q, ExactOptions::new()).unwrap();
            assert!(s.fast_path);
            let (generic, _) = certain_answers_with(&db, &q, kernels()).unwrap();
            assert_eq!(
                fast, generic,
                "Corollary 2 violated: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn certain_answers_monotone_in_uniqueness_axioms() {
    // Adding uniqueness axioms shrinks the model set, so certain answers
    // can only grow — for *positive* queries this is observable and makes
    // a good metamorphic invariant. (For queries with negation the answer
    // sets are not comparable in general.)
    for seed in 0..15 {
        let base_cfg = DbGenConfig {
            num_consts: 5,
            pred_arities: vec![2],
            facts_per_pred: 4,
            known_fraction: 0.0,
            extra_ne_pairs: 0,
            seed,
        };
        let weak = random_cw_db(&base_cfg);
        // Same facts, plus axioms: rebuild with one extra pair.
        let mut builder = CwDatabase::builder(weak.voc().clone());
        for p in weak.voc().preds() {
            for t in weak.facts(p).iter() {
                let args: Vec<ConstId> = t.iter().map(|&e| ConstId(e)).collect();
                builder = builder.fact(p, &args);
            }
        }
        let strong = builder.unique(ConstId(0), ConstId(1)).build().unwrap();
        for qseed in 0..5 {
            let q = random_query(
                weak.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::Positive,
                    max_depth: 3,
                    head_arity: 1,
                    seed: qseed * 97 + seed,
                },
            );
            let weak_ans = certain_answers(&weak, &q).unwrap();
            let strong_ans = certain_answers(&strong, &q).unwrap();
            assert!(
                weak_ans.is_subset_of(&strong_ans),
                "monotonicity violated: seed {seed}, query {q:?}"
            );
        }
    }
}

// The reference walks' own checks, on hand-picked tiny databases.

/// Tiny database: 3 constants, one binary predicate, partial uniqueness.
fn tiny() -> CwDatabase {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b", "x"]).unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    CwDatabase::builder(voc)
        .fact(r, &[ids[0], ids[1]])
        .unique(ids[0], ids[1])
        .build()
        .unwrap()
}

/// socrates, plato and aristotle pairwise distinct, `mystery` a null;
/// `TEACHES(socrates, plato)`.
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

/// `n` constants `c0…`, no predicate, the uniqueness axioms `ne`.
fn db_with(n: usize, ne: &[(u32, u32)]) -> CwDatabase {
    let mut voc = Vocabulary::new();
    for i in 0..n {
        voc.add_const(&format!("c{i}")).unwrap();
    }
    let mut b = CwDatabase::builder(voc);
    for &(x, y) in ne {
        b = b.unique(ConstId(x), ConstId(y));
    }
    b.build().unwrap()
}

#[test]
fn oracle_agrees_with_theorem1_on_positive_queries() {
    let db = tiny();
    for input in ["(u) . R(a, u)", "(u, v) . R(u, v)", "exists u. R(u, b)"] {
        let q = parse_query(db.voc(), input).unwrap();
        assert_eq!(
            oracle::certain_answers_oracle(&db, &q).unwrap(),
            certain_answers(&db, &q).unwrap(),
            "mismatch on {input}"
        );
    }
}

#[test]
fn oracle_agrees_with_theorem1_on_negation() {
    let db = tiny();
    for input in [
        "(u) . !R(a, u)",
        "!R(b, a)",
        "(u) . u != a",
        "forall u. R(a, u) -> u != a",
    ] {
        let q = parse_query(db.voc(), input).unwrap();
        assert_eq!(
            oracle::certain_answers_oracle(&db, &q).unwrap(),
            certain_answers(&db, &q).unwrap(),
            "mismatch on {input}"
        );
    }
}

#[test]
fn oracle_agrees_on_fully_specified() {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b"]).unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    let db = CwDatabase::builder(voc)
        .fact(r, &[ids[0], ids[1]])
        .fully_specified()
        .build()
        .unwrap();
    for input in ["(u) . !R(u, u)", "R(a, b)", "(u, v) . R(u, v) & u != v"] {
        let q = parse_query(db.voc(), input).unwrap();
        assert_eq!(
            oracle::certain_answers_oracle(&db, &q).unwrap(),
            certain_answers(&db, &q).unwrap(),
            "mismatch on {input}"
        );
    }
}

#[test]
#[should_panic(expected = "oracle instance too large")]
fn oversized_instance_rejected() {
    let mut voc = Vocabulary::new();
    for i in 0..8 {
        voc.add_const(&format!("c{i}")).unwrap();
    }
    voc.add_pred("R", 3).unwrap();
    let db = CwDatabase::builder(voc).build().unwrap();
    let q = parse_query(db.voc(), "exists x. R(x, x, x)").unwrap();
    let _ = oracle::certain_answers_oracle(&db, &q);
}

fn tiny_unary() -> CwDatabase {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b", "x"]).unwrap();
    let m = voc.add_pred("M", 1).unwrap();
    CwDatabase::builder(voc)
        .fact(m, &[ids[0]])
        .unique(ids[0], ids[1])
        .build()
        .unwrap()
}

fn tiny_binary() -> CwDatabase {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b"]).unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    CwDatabase::builder(voc)
        .fact(r, &[ids[0], ids[1]])
        .build()
        .unwrap()
}

#[test]
fn query_prime_is_second_order_and_wellformed() {
    let db = tiny_unary();
    let q = parse_query(db.voc(), "(u) . M(u)").unwrap();
    let sim = precise::build(&db, &q).unwrap();
    assert_eq!(sim.query.class(), QueryClass::SecondOrder);
    assert_eq!(sim.query.arity(), 1);
}

#[test]
fn matches_certain_answers_unary_positive() {
    let db = tiny_unary();
    for input in ["(u) . M(u)", "exists u. M(u)", "M(b)"] {
        let q = parse_query(db.voc(), input).unwrap();
        assert_eq!(
            precise::evaluate(&db, &q).unwrap(),
            certain_answers(&db, &q).unwrap(),
            "mismatch on {input}"
        );
    }
}

#[test]
fn matches_certain_answers_unary_negative() {
    let db = tiny_unary();
    for input in ["(u) . !M(u)", "!M(b)", "(u) . u != a"] {
        let q = parse_query(db.voc(), input).unwrap();
        assert_eq!(
            precise::evaluate(&db, &q).unwrap(),
            certain_answers(&db, &q).unwrap(),
            "mismatch on {input}"
        );
    }
}

#[test]
fn matches_certain_answers_binary() {
    let db = tiny_binary();
    for input in ["(u, v) . R(u, v)", "(u) . R(a, u)", "(u) . !R(u, u)"] {
        let q = parse_query(db.voc(), input).unwrap();
        assert_eq!(
            precise::evaluate(&db, &q).unwrap(),
            certain_answers(&db, &q).unwrap(),
            "mismatch on {input}"
        );
    }
}

#[test]
fn fully_specified_simulation() {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b"]).unwrap();
    let m = voc.add_pred("M", 1).unwrap();
    let db = CwDatabase::builder(voc)
        .fact(m, &[ids[0]])
        .fully_specified()
        .build()
        .unwrap();
    for input in ["(u) . M(u)", "(u) . !M(u)"] {
        let q = parse_query(db.voc(), input).unwrap();
        assert_eq!(
            precise::evaluate(&db, &q).unwrap(),
            certain_answers(&db, &q).unwrap(),
            "mismatch on {input}"
        );
    }
}

#[test]
fn walk_matches_raw_mapping_oracle_on_teaching_queries() {
    let db = teaching();
    for input in [
        "(x) . TEACHES(socrates, x)",
        "(x) . !TEACHES(socrates, x)",
        "(x, y) . TEACHES(x, y)",
        "(x, y) . !TEACHES(x, y)",
        "TEACHES(plato, socrates)",
        "TEACHES(socrates, plato)",
        "(x) . x = mystery",
        "(x) . !(x = mystery)",
        "exists x. TEACHES(x, mystery)",
        "(x) . exists y. TEACHES(y, x)",
        "forall x. TEACHES(socrates, x) -> x != aristotle",
    ] {
        let q = parse_query(db.voc(), input).unwrap();
        let (certain, _) = oracle::answers_by_raw_mappings(&db, &q, AnswerMode::Certain);
        let (possible, _) = oracle::answers_by_raw_mappings(&db, &q, AnswerMode::Possible);
        for threads in [1usize, 4] {
            let opts = ExactOptions {
                corollary2_fast_path: false,
                ..ExactOptions::with_threads(threads)
            };
            let (c, _) = certain_answers_with(&db, &q, opts).unwrap();
            assert_eq!(
                c, certain,
                "certain mismatch on {input} at {threads} threads"
            );
            let (p, _) = possible_answers_with(&db, &q, opts).unwrap();
            assert_eq!(
                p, possible,
                "possible mismatch on {input} at {threads} threads"
            );
        }
    }
}

#[test]
fn closed_form_count_matches_enumeration() {
    for (n, ne) in [
        (1usize, vec![]),
        (4, vec![]),
        (3, vec![(0u32, 1u32)]),
        (4, vec![(0, 1), (2, 3)]),
        (4, vec![(0, 1), (1, 2)]),
        (5, vec![(0, 1), (0, 2), (1, 2)]),
        (6, vec![(0, 3), (1, 4), (1, 3)]),
        (6, vec![(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
    ] {
        let db = db_with(n, &ne);
        assert_eq!(
            count_kernel_mappings(&db),
            oracle::count_kernel_mappings_by_enumeration(&db),
            "n={n}, ne={ne:?}"
        );
    }
}

#[test]
fn closed_form_bounded_count_matches_enumeration() {
    let db = db_with(5, &[(0, 1)]);
    let total = oracle::count_kernel_mappings_by_enumeration(&db);
    for limit in [0u64, 1, 2, total - 1, total, total + 1, u64::MAX] {
        assert_eq!(
            count_kernel_mappings_up_to(&db, limit),
            total.min(limit),
            "limit={limit}"
        );
    }
}

// The moved reference items' own checks: the raw-mapping walk, `h(Ph₁)`
// and the explicit theory.

#[test]
fn unconstrained_counts() {
    // n^n mappings, Bell(n) kernels.
    for (n, raw, bell) in [(1, 1u64, 1u64), (2, 4, 2), (3, 27, 5), (4, 256, 15)] {
        let db = db_with(n, &[]);
        assert_eq!(oracle::count_respecting_mappings(&db), raw, "n={n}");
        assert_eq!(count_kernel_mappings(&db), bell, "n={n}");
    }
}

#[test]
fn fully_specified_counts() {
    // All pairs distinct: respecting mappings are the n! injections; only
    // one kernel (the discrete partition).
    let db = db_with(3, &[(0, 1), (0, 2), (1, 2)]);
    assert_eq!(oracle::count_respecting_mappings(&db), 6);
    assert_eq!(count_kernel_mappings(&db), 1);
}

#[test]
fn single_constraint() {
    // n=3, NE(0,1): raw = 27 − |h(0)=h(1)| = 27 − 9 = 18.
    // Kernels: partitions of {0,1,2} separating 0 and 1:
    // {0}{1}{2}, {0,2}{1}, {0}{1,2} → 3.
    let db = db_with(3, &[(0, 1)]);
    assert_eq!(oracle::count_respecting_mappings(&db), 18);
    assert_eq!(count_kernel_mappings(&db), 3);
}

#[test]
fn every_raw_mapping_respects() {
    let db = db_with(4, &[(0, 1), (2, 3)]);
    let complete = oracle::for_each_respecting_mapping(&db, |h| {
        assert!(respects(&db, h));
        true
    });
    assert!(complete);
}

#[test]
fn early_exit_works() {
    let db = db_with(3, &[]);
    let mut n = 0;
    let completed = oracle::for_each_respecting_mapping(&db, |_| {
        n += 1;
        n < 5
    });
    assert!(!completed);
    assert_eq!(n, 5);
}

#[test]
fn kernel_set_equals_raw_kernel_set() {
    // The set of kernels of raw respecting mappings equals the set of
    // enumerated kernel partitions.
    let db = db_with(4, &[(0, 3), (1, 3)]);
    let kernel_of = |h: &[Elem]| -> Vec<u32> {
        // canonical kernel encoding: block id = first occurrence index
        let mut ids: Vec<u32> = Vec::new();
        let mut seen: Vec<(Elem, u32)> = Vec::new();
        for &v in h {
            match seen.iter().find(|(e, _)| *e == v) {
                Some((_, id)) => ids.push(*id),
                None => {
                    let id = seen.len() as u32;
                    seen.push((v, id));
                    ids.push(id);
                }
            }
        }
        ids
    };
    let mut raw_kernels = HashSet::new();
    oracle::for_each_respecting_mapping(&db, |h| {
        raw_kernels.insert(kernel_of(h));
        true
    });
    let mut canon_kernels = HashSet::new();
    for_each_kernel_mapping(&db, |h| {
        canon_kernels.insert(kernel_of(h));
        true
    });
    assert_eq!(raw_kernels, canon_kernels);
}

/// `a`, `b`, `c`; `R(a, b)`, `R(b, c)`; `a ≠ b`.
fn sample() -> CwDatabase {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b", "c"]).unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    CwDatabase::builder(voc)
        .fact(r, &[ids[0], ids[1]])
        .fact(r, &[ids[1], ids[2]])
        .unique(ids[0], ids[1])
        .build()
        .unwrap()
}

#[test]
fn apply_identity_mapping_is_ph1() {
    let db = sample();
    assert_eq!(oracle::apply_mapping(&db, &[0, 1, 2]), ph1(&db));
}

#[test]
fn apply_collapsing_mapping() {
    let db = sample();
    // Merge c into b (allowed: only a≠b is an axiom).
    let pdb = oracle::apply_mapping(&db, &[0, 1, 1]);
    assert_eq!(pdb.domain(), &[0, 1]);
    let r = db.voc().pred_id("R").unwrap();
    assert!(pdb.relation(r).contains(&[0, 1]));
    assert!(pdb.relation(r).contains(&[1, 1]));
    assert_eq!(pdb.relation(r).len(), 2);
}

#[test]
fn assign_mapped_image_matches_apply_mapping() {
    let db = sample();
    let base = ph1(&db);
    let mut image = base.clone();
    for h in [[0u32, 1, 2], [0, 1, 1], [0, 1, 0], [2, 0, 0]] {
        image.assign_mapped_image(&base, &h);
        assert_eq!(image, oracle::apply_mapping(&db, &h), "mapping {h:?}");
    }
}

#[test]
fn theory_sentences_shape() {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["socrates", "plato", "aristotle"]).unwrap();
    let teaches = voc.add_pred("TEACHES", 2).unwrap();
    let db = CwDatabase::builder(voc)
        .fact(teaches, &[ids[0], ids[1]])
        .unique(ids[0], ids[1])
        .build()
        .unwrap();
    let sentences = oracle::theory_sentences(&db);
    // 1 fact + 1 uniqueness + 1 domain closure + 1 completion
    assert_eq!(sentences.len(), 4);
    for sentence in &sentences {
        assert!(sentence.free_vars().is_empty());
        sentence.check(db.voc()).unwrap();
    }
}

#[test]
fn every_world_satisfies_the_explicit_theory() {
    let db = teaching();
    let theory = oracle::theory_sentences(&db);
    for_each_world(&db, |world| {
        assert!(satisfies_all(world, &theory));
        true
    });
}

#[test]
fn domain_closure_shape() {
    let mut voc = Vocabulary::new();
    voc.add_consts(["a", "b", "c"]).unwrap();
    let mut gen = VarGen::after(None);
    let f = oracle::domain_closure_axiom(&voc, &mut gen);
    assert!(f.free_vars().is_empty());
    match &f {
        Formula::Forall(_, inner) => match &**inner {
            Formula::Or(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected Or, got {other:?}"),
        },
        other => panic!("expected Forall, got {other:?}"),
    }
}

#[test]
fn completion_axiom_empty_facts() {
    let mut voc = Vocabulary::new();
    voc.add_const("a").unwrap();
    let p = voc.add_pred("P", 1).unwrap();
    let mut gen = VarGen::after(None);
    let f = oracle::completion_axiom(p, 1, &[], &mut gen);
    // ∀x ¬P(x)
    match &f {
        Formula::Forall(_, inner) => assert!(matches!(**inner, Formula::Not(_))),
        other => panic!("expected Forall, got {other:?}"),
    }
    f.check(&voc).unwrap();
}

#[test]
fn completion_axiom_with_facts() {
    let mut voc = Vocabulary::new();
    let a = voc.add_const("a").unwrap();
    let b = voc.add_const("b").unwrap();
    let p = voc.add_pred("P", 2).unwrap();
    let mut gen = VarGen::after(None);
    let facts: Vec<Box<[ConstId]>> = vec![vec![a, b].into_boxed_slice()];
    let f = oracle::completion_axiom(p, 2, &facts, &mut gen);
    f.check(&voc).unwrap();
    assert!(f.free_vars().is_empty());
}

//! Cross-crate edge cases: degenerate databases, extreme quantifier
//! shapes, non-contiguous domains, constant-only queries.

#[path = "support/oracle.rs"]
mod oracle;

use oracle::count_respecting_mappings;
use qld_algebra::{compile_query, execute, optimize, ExecOptions};
use querying_logical_databases::approx::ApproxEngine;
use querying_logical_databases::core::mappings::count_kernel_mappings;
use querying_logical_databases::core::{certain_answers, certainly_holds, CwDatabase};
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::Vocabulary;
use querying_logical_databases::physical::{eval_query, PhysicalDb};

#[test]
fn single_constant_database() {
    let mut voc = Vocabulary::new();
    voc.add_const("only").unwrap();
    let p = voc.add_pred("P", 1).unwrap();
    let db = CwDatabase::builder(voc)
        .fact(p, &[querying_logical_databases::logic::ConstId(0)])
        .build()
        .unwrap();
    assert_eq!(count_kernel_mappings(&db), 1);
    assert_eq!(count_respecting_mappings(&db), 1);
    assert!(db.is_fully_specified(), "vacuously: no pairs exist");
    // Domain closure collapses everything to one element.
    let q = parse_query(db.voc(), "forall x, y. x = y").unwrap();
    assert!(certainly_holds(&db, &q).unwrap());
    let q = parse_query(db.voc(), "forall x. P(x)").unwrap();
    assert!(certainly_holds(&db, &q).unwrap());
}

#[test]
fn database_with_no_facts() {
    let mut voc = Vocabulary::new();
    voc.add_consts(["a", "b"]).unwrap();
    voc.add_pred("P", 1).unwrap();
    let db = CwDatabase::builder(voc).build().unwrap();
    // Completion: ∀x ¬P(x) is certain.
    let q = parse_query(db.voc(), "forall x. !P(x)").unwrap();
    assert!(certainly_holds(&db, &q).unwrap());
    // And the approximation agrees (α of the empty predicate is total).
    let engine = ApproxEngine::new(&db);
    assert_eq!(engine.eval(&q).unwrap().len(), 1);
}

#[test]
fn constant_only_boolean_queries() {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b", "u"]).unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    let db = CwDatabase::builder(voc)
        .fact(r, &[ids[0], ids[1]])
        .unique(ids[0], ids[1])
        .build()
        .unwrap();
    for (text, expected) in [
        ("R(a, b)", true),
        ("R(b, a)", false),
        ("a = a", true),
        ("a = b", false),  // a ≠ b is an axiom, so a = b is impossible
        ("u = a", false),  // possible but not certain
        ("u != a", false), // also not certain
        ("a != b", true),
        ("true", true),
        ("false", false),
    ] {
        let q = parse_query(db.voc(), text).unwrap();
        assert_eq!(certainly_holds(&db, &q).unwrap(), expected, "query: {text}");
    }
}

#[test]
fn zero_arity_predicate_through_the_whole_stack() {
    let mut voc = Vocabulary::new();
    voc.add_consts(["a", "b"]).unwrap();
    let flag = voc.add_pred("FLAG", 0).unwrap();
    voc.add_pred("OTHER", 0).unwrap();
    let db = CwDatabase::builder(voc).fact(flag, &[]).build().unwrap();
    let q = parse_query(db.voc(), "FLAG()").unwrap();
    assert!(certainly_holds(&db, &q).unwrap());
    let q = parse_query(db.voc(), "!OTHER()").unwrap();
    assert!(certainly_holds(&db, &q).unwrap());
    // Approximation: α of a 0-ary predicate.
    let engine = ApproxEngine::new(&db);
    assert_eq!(engine.eval(&q).unwrap().len(), 1);
}

#[test]
fn non_contiguous_physical_domain() {
    let mut voc = Vocabulary::new();
    let a = voc.add_const("a").unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    let db = PhysicalDb::builder(&voc)
        .domain([3, 7, 11])
        .constant(a, 7)
        .relation_from_tuples(r, vec![vec![3, 7], vec![7, 11]])
        .build()
        .unwrap();
    let q = parse_query(&voc, "(x) . exists y. R(x, y) & y != a").unwrap();
    let naive = eval_query(&db, &q);
    assert_eq!(naive.len(), 1);
    assert!(naive.contains(&[7]));
    let plan = optimize(&voc, compile_query(&voc, &q).unwrap());
    assert_eq!(execute(&db, &plan, ExecOptions::default()), naive);
}

#[test]
fn deep_quantifier_alternation() {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b", "u"]).unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    let db = CwDatabase::builder(voc)
        .fact(r, &[ids[0], ids[1]])
        .fact(r, &[ids[1], ids[2]])
        .unique(ids[0], ids[1])
        .build()
        .unwrap();
    // Rank-6 alternation; mostly testing the evaluators don't buckle.
    let q = parse_query(
        db.voc(),
        "forall x1. exists x2. forall x3. exists x4. forall x5. exists x6. \
         R(x1, x2) | x3 = x4 | R(x5, x6) | x1 != x1",
    )
    .unwrap();
    let exact = certainly_holds(&db, &q).unwrap();
    // x3 = x4 can always be satisfied by the ∃x4 — the sentence is valid.
    assert!(exact);
    let engine = ApproxEngine::new(&db);
    assert_eq!(engine.eval(&q).unwrap().len(), 1);
}

#[test]
fn head_arity_three() {
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "b"]).unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    let db = CwDatabase::builder(voc)
        .fact(r, &[ids[0], ids[1]])
        .fully_specified()
        .build()
        .unwrap();
    let q = parse_query(db.voc(), "(x, y, z) . R(x, y) & R(x, y) & z = z").unwrap();
    let ans = certain_answers(&db, &q).unwrap();
    assert_eq!(ans.len(), 2); // (a,b,a), (a,b,b)
}

#[test]
fn all_constants_unknown_maximizes_worlds() {
    use querying_logical_databases::core::worlds::count_worlds;
    let mut voc = Vocabulary::new();
    voc.add_consts(["u1", "u2", "u3", "u4"]).unwrap();
    let db = CwDatabase::builder(voc).build().unwrap();
    assert_eq!(count_worlds(&db), 15); // Bell(4)
}

#[test]
fn contradictory_looking_but_satisfiable() {
    // R(u,u) stored while R is "irreflexive" on knowns — fine, since u is
    // its own constant and CW semantics just records the fact.
    let mut voc = Vocabulary::new();
    let ids = voc.add_consts(["a", "u"]).unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    let db = CwDatabase::builder(voc)
        .fact(r, &[ids[1], ids[1]])
        .build()
        .unwrap();
    let q = parse_query(db.voc(), "exists x. R(x, x)").unwrap();
    assert!(certainly_holds(&db, &q).unwrap());
    // But "R(a, a)" is merely possible (u might be a), not certain.
    let q = parse_query(db.voc(), "R(a, a)").unwrap();
    assert!(!certainly_holds(&db, &q).unwrap());
}

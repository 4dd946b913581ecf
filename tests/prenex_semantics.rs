//! Prenex normal form: semantics preservation against the Tarskian
//! evaluator on random formulas and databases, plus the Σᴱₖ shape check
//! on the Theorem 7 reduction outputs.

#[path = "support/prenex.rs"]
mod prenex;

use prenex::{to_prenex, Prenex, QuantKind};
use qld_reductions::{qbf_fo, Lit, Qbf, Quant};
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::ph::ph1;
use querying_logical_databases::logic::builders::VarGen;
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::{Formula, Query, Var, Vocabulary};
use querying_logical_databases::physical::eval_query;

#[test]
fn prenexing_preserves_semantics() {
    for seed in 0..20 {
        let cw = random_cw_db(&DbGenConfig {
            num_consts: 5,
            pred_arities: vec![2, 1],
            facts_per_pred: 5,
            known_fraction: 0.6,
            extra_ne_pairs: 0,
            seed,
        });
        let db = ph1(&cw);
        for qseed in 0..8 {
            let q = random_query(
                cw.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 4,
                    head_arity: (qseed % 3) as usize,
                    seed: qseed * 919 + seed,
                },
            );
            let mut gen = VarGen::after(
                q.body()
                    .max_var()
                    .into_iter()
                    .chain(q.head().iter().copied())
                    .max(),
            );
            let prenex = to_prenex(q.body(), &mut gen).expect("FO formula");
            let pq = Query::new(q.head().to_vec(), prenex.to_formula()).unwrap();
            assert_eq!(
                eval_query(&db, &q),
                eval_query(&db, &pq),
                "prenexing changed semantics: seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn theorem7_queries_are_sigma_k_shaped() {
    // The Theorem 7 reduction of a B_{k+1} formula must produce a query
    // whose prenex form has ≤ k blocks starting existentially (for k ≥ 1).
    let cases = [
        (
            Qbf::new(
                vec![(Quant::Forall, 2), (Quant::Exists, 2)],
                vec![
                    vec![Lit::pos(0), Lit::pos(2)],
                    vec![Lit::neg(1), Lit::pos(3)],
                ],
            ),
            1usize,
        ),
        (
            Qbf::new(
                vec![(Quant::Forall, 1), (Quant::Exists, 2), (Quant::Forall, 1)],
                vec![vec![Lit::pos(1), Lit::neg(3)]],
            ),
            2,
        ),
        (
            Qbf::new(
                vec![
                    (Quant::Forall, 1),
                    (Quant::Exists, 1),
                    (Quant::Forall, 1),
                    (Quant::Exists, 1),
                ],
                vec![vec![Lit::pos(1), Lit::pos(2), Lit::neg(3)]],
            ),
            3,
        ),
    ];
    for (qbf, k) in cases {
        let inst = qbf_fo::reduce(&qbf);
        let mut gen = VarGen::after(inst.query.body().max_var());
        let prenex = to_prenex(inst.query.body(), &mut gen).expect("FO query");
        assert!(
            prenex.is_sigma_k(k),
            "expected Σᴱ_{k}, got blocks {:?}",
            prenex.blocks()
        );
        assert_eq!(
            prenex.blocks().first().map(|(q, _)| *q),
            Some(QuantKind::Exists),
            "Σᴱₖ queries start existentially"
        );
    }
}

// `to_prenex` on hand-picked formulas.

fn voc() -> Vocabulary {
    let mut voc = Vocabulary::new();
    voc.add_consts(["a", "b"]).unwrap();
    voc.add_pred("R", 2).unwrap();
    voc.add_pred("M", 1).unwrap();
    voc
}

fn prenex_of(text: &str) -> Prenex {
    let voc = voc();
    let q = parse_query(&voc, text).unwrap();
    let mut gen = VarGen::after(q.body().max_var());
    to_prenex(q.body(), &mut gen).unwrap()
}

fn is_quantifier_free(f: &Formula) -> bool {
    match f {
        Formula::Exists(..)
        | Formula::Forall(..)
        | Formula::SoExists(..)
        | Formula::SoForall(..) => false,
        Formula::True
        | Formula::False
        | Formula::Atom(..)
        | Formula::SoAtom(..)
        | Formula::Eq(..) => true,
        Formula::Not(g) => is_quantifier_free(g),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(is_quantifier_free),
        Formula::Implies(p, q) | Formula::Iff(p, q) => {
            is_quantifier_free(p) && is_quantifier_free(q)
        }
    }
}

#[test]
fn matrix_is_quantifier_free_and_binders_distinct() {
    let p = prenex_of("(exists x. R(x, x)) & (forall y. M(y) -> exists z. R(y, z))");
    assert!(is_quantifier_free(&p.matrix));
    let mut vars: Vec<Var> = p.prefix.iter().map(|(_, v)| *v).collect();
    let n = vars.len();
    vars.sort_unstable();
    vars.dedup();
    assert_eq!(vars.len(), n, "binders must be pairwise distinct");
}

#[test]
fn block_structure() {
    let p = prenex_of("exists x, y. forall z. exists w. R(x, y) & R(z, w)");
    let blocks = p.blocks();
    assert_eq!(
        blocks.iter().map(|(q, n)| (*q, *n)).collect::<Vec<_>>(),
        vec![
            (QuantKind::Exists, 2),
            (QuantKind::Forall, 1),
            (QuantKind::Exists, 1)
        ]
    );
    assert_eq!(p.alternation(), (3, true));
    assert!(p.is_sigma_k(3));
    assert!(!p.is_sigma_k(2));
}

#[test]
fn negation_flips_hidden_quantifiers() {
    // ¬∀x M(x) is prenex-∃.
    let p = prenex_of("!(forall x. M(x))");
    assert_eq!(p.blocks().first().map(|(q, _)| *q), Some(QuantKind::Exists));
}

#[test]
fn quantifier_free_formula() {
    let p = prenex_of("R(a, b) | !M(a)");
    assert!(p.prefix.is_empty());
    assert_eq!(p.alternation(), (0, true));
    assert!(p.is_sigma_k(0));
}

#[test]
fn shadowing_resolved_by_renaming() {
    // exists x. M(x) & exists x. R(x, x): both binders named x in the
    // source; prenexing must keep them apart.
    let p = prenex_of("exists x. M(x) & (exists x. R(x, x))");
    assert_eq!(p.prefix.len(), 2);
    assert_ne!(p.prefix[0].1, p.prefix[1].1);
}

#[test]
fn free_variables_preserved() {
    let voc = voc();
    let q = parse_query(&voc, "(u) . exists x. R(u, x) & forall y. M(y)").unwrap();
    let mut gen = VarGen::after(q.body().max_var());
    let p = to_prenex(q.body(), &mut gen).unwrap();
    assert_eq!(p.to_formula().free_vars(), q.body().free_vars());
}

#[test]
fn second_order_rejected() {
    let voc = voc();
    let q = parse_query(&voc, "exists2 ?S:1. exists x. ?S(x)").unwrap();
    let mut gen = VarGen::after(q.body().max_var());
    assert!(to_prenex(q.body(), &mut gen).is_none());
}

//! Prenex normal form: semantics preservation against the Tarskian
//! evaluator on random formulas and databases, plus the Σᴱₖ shape check
//! on the Theorem 7 reduction outputs.

use qld_reductions::{qbf_fo, Lit, Qbf, Quant};
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::ph::ph1;
use querying_logical_databases::logic::builders::VarGen;
use querying_logical_databases::logic::prenex::{to_prenex, QuantKind};
use querying_logical_databases::logic::Query;
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

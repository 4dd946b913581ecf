//! Randomized equivalence of the relational-algebra engine with the
//! naive Tarskian evaluator (Codd's theorem, executable edition), and of
//! NNF with the original formula — over image databases `h(Ph₁(LB))`,
//! which exercise merged constants and shrunken domains.

#[path = "support/oracle.rs"]
mod oracle;

use oracle::apply_mapping;
use qld_algebra::{compile_query, execute, optimize, ExecOptions, JoinAlgo};
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::mappings::for_each_kernel_mapping;
use querying_logical_databases::core::ph::ph1;
use querying_logical_databases::logic::nnf::{is_nnf, to_nnf};
use querying_logical_databases::logic::Query;
use querying_logical_databases::physical::eval_query;

fn dbs(
    seed: u64,
) -> Vec<(
    querying_logical_databases::logic::Vocabulary,
    querying_logical_databases::physical::PhysicalDb,
)> {
    let cw = random_cw_db(&DbGenConfig {
        num_consts: 5,
        pred_arities: vec![2, 1],
        facts_per_pred: 5,
        known_fraction: 0.4,
        extra_ne_pairs: 0,
        seed,
    });
    // Ph1 plus a couple of proper images (merged constants, smaller
    // domains — the shapes Theorem 1 evaluation feeds the evaluator).
    let mut out = vec![(cw.voc().clone(), ph1(&cw))];
    let mut count = 0;
    for_each_kernel_mapping(&cw, |h| {
        out.push((cw.voc().clone(), apply_mapping(&cw, h)));
        count += 1;
        count < 3
    });
    out
}

#[test]
fn algebra_equals_naive_on_random_queries() {
    for seed in 0..12 {
        for (voc, db) in dbs(seed) {
            for qseed in 0..6 {
                let q = random_query(
                    &voc,
                    &QueryGenConfig {
                        fragment: QueryFragment::FullFo,
                        max_depth: 3,
                        head_arity: (qseed % 3) as usize,
                        seed: qseed * 211 + seed,
                    },
                );
                let naive = eval_query(&db, &q);
                let plan = compile_query(&voc, &q).unwrap();
                let opt = optimize(&voc, plan.clone());
                for join in [JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
                    let raw = execute(&db, &plan, ExecOptions { join });
                    let optimized = execute(&db, &opt, ExecOptions { join });
                    assert_eq!(raw, naive, "plan ≠ naive: seed {seed}, {q:?}");
                    assert_eq!(optimized, naive, "optimized ≠ naive: seed {seed}, {q:?}");
                }
            }
        }
    }
}

#[test]
fn optimizer_never_grows_plans() {
    for seed in 0..20 {
        let (voc, _) = dbs(seed).into_iter().next().unwrap();
        for qseed in 0..6 {
            let q = random_query(
                &voc,
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 3,
                    head_arity: 1,
                    seed: qseed * 331 + seed,
                },
            );
            let plan = compile_query(&voc, &q).unwrap();
            let opt = optimize(&voc, plan.clone());
            assert!(
                opt.num_nodes() <= plan.num_nodes(),
                "optimizer grew the plan: seed {seed}, {} -> {}",
                plan.num_nodes(),
                opt.num_nodes()
            );
        }
    }
}

#[test]
fn nnf_preserves_semantics_on_random_instances() {
    for seed in 0..15 {
        for (voc, db) in dbs(seed) {
            for qseed in 0..8 {
                let q = random_query(
                    &voc,
                    &QueryGenConfig {
                        fragment: QueryFragment::FullFo,
                        max_depth: 4,
                        head_arity: (qseed % 2) as usize,
                        seed: qseed * 7 + seed,
                    },
                );
                let nnf_body = to_nnf(q.body());
                assert!(is_nnf(&nnf_body), "to_nnf output not in NNF: {nnf_body:?}");
                let nnf_q = Query::new(q.head().to_vec(), nnf_body).unwrap();
                assert_eq!(
                    eval_query(&db, &q),
                    eval_query(&db, &nnf_q),
                    "NNF changed semantics: seed {seed}, {q:?}"
                );
            }
        }
    }
}

#[test]
fn parser_printer_round_trip_on_random_queries() {
    use querying_logical_databases::logic::display::display_query;
    use querying_logical_databases::logic::parser::parse_query;
    for seed in 0..40 {
        let (voc, db) = dbs(seed % 8).into_iter().next().unwrap();
        let q = random_query(
            &voc,
            &QueryGenConfig {
                fragment: QueryFragment::FullFo,
                max_depth: 3,
                head_arity: (seed % 3) as usize,
                seed,
            },
        );
        let printed = display_query(&voc, &q).to_string();
        let reparsed = parse_query(&voc, &printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        // Same semantics (variable names may be renumbered).
        assert_eq!(
            eval_query(&db, &q),
            eval_query(&db, &reparsed),
            "round-trip changed semantics for `{printed}`"
        );
    }
}

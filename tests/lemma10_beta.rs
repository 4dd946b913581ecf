//! Direct semantic validation of the Lemma 10 machinery:
//!
//! * the `O(log n)` reachability formula `β` against a BFS oracle, both
//!   for full reachability and for bounded path lengths;
//! * the syntactic `α_P(x)` formula evaluated on `Ph₂(LB)` (the §5
//!   engine's extended database; the formula mentions only `P` and `NE`)
//!   against the union-find disagreement test, tuple by tuple (sharper
//!   than the whole-query comparisons elsewhere).

use qld_workloads::{random_cw_db, DbGenConfig};
use querying_logical_databases::approx::disagree::disagrees;
use querying_logical_databases::approx::ApproxEngine;
use querying_logical_databases::logic::builders::{alpha_p, reachability, VarGen};
use querying_logical_databases::logic::{Formula, Term, Var, Vocabulary};
use querying_logical_databases::physical::{Evaluator, PhysicalDb, TupleSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Directed BFS: vertices reachable from `start` within `bound` edges.
fn bfs_within(adj: &[Vec<u32>], start: u32, bound: usize) -> Vec<bool> {
    let mut dist = vec![usize::MAX; adj.len()];
    dist[start as usize] = 0;
    let mut frontier = vec![start];
    for d in 1..=bound {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in &adj[u as usize] {
                if dist[v as usize] == usize::MAX {
                    dist[v as usize] = d;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist.iter().map(|&d| d <= bound).collect()
}

fn random_edge_db(n: u32, edges: usize, seed: u64) -> (Vocabulary, PhysicalDb, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let e = voc.add_pred("E", 2).unwrap();
    let tuples: Vec<Vec<u32>> = (0..edges)
        .map(|_| vec![rng.gen_range(0..n), rng.gen_range(0..n)])
        .collect();
    let db = PhysicalDb::builder(&voc)
        .domain(0..n)
        .relation_from_tuples(e, tuples.clone())
        .build()
        .unwrap();
    let mut adj = vec![Vec::new(); n as usize];
    for t in &tuples {
        adj[t[0] as usize].push(t[1]);
    }
    (voc, db, adj)
}

#[test]
fn beta_reachability_matches_bfs() {
    for seed in 0..10 {
        let n = 5u32;
        let (voc, db, adj) = random_edge_db(n, 7, seed);
        let e = voc.pred_id("E").unwrap();
        for bound in [1usize, 2, 5] {
            let (u, v) = (Var(0), Var(1));
            let mut gen = VarGen::after(Some(v));
            let mut edge = |a: Term, b: Term| Formula::atom(e, [a, b]);
            let formula = reachability(bound, Term::Var(u), Term::Var(v), &mut edge, &mut gen);
            formula.check(&voc).unwrap();
            for start in 0..n {
                let reachable = bfs_within(&adj, start, bound);
                for target in 0..n {
                    let mut ev = Evaluator::new(&db, &formula);
                    ev.bind(u, start);
                    ev.bind(v, target);
                    assert_eq!(
                        ev.eval(&formula),
                        reachable[target as usize],
                        "β_{bound}({start},{target}) wrong on seed {seed}: {adj:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn syntactic_alpha_matches_disagreement_tuplewise() {
    for seed in 0..8 {
        let cw = random_cw_db(&DbGenConfig {
            num_consts: 4,
            pred_arities: vec![2],
            facts_per_pred: 3,
            known_fraction: 0.5,
            extra_ne_pairs: 1,
            seed,
        });
        let extended = ApproxEngine::new(&cw);
        let p = cw.voc().pred_id("P0").unwrap();
        let (x0, x1) = (Var(0), Var(1));
        let mut gen = VarGen::after(Some(x1));
        let formula = alpha_p(
            p,
            2,
            extended.ne_pred(),
            &[Term::Var(x0), Term::Var(x1)],
            &mut gen,
        );
        formula.check(extended.extended_voc()).unwrap();

        let consts: Vec<u32> = (0..cw.num_consts() as u32).collect();
        for tuple in TupleSpace::new(&consts, 2) {
            let semantic = cw.facts(p).iter().all(|d| disagrees(&cw, &tuple, d));
            let mut ev = Evaluator::new(extended.extended_db(), &formula);
            ev.bind(x0, tuple[0]);
            ev.bind(x1, tuple[1]);
            let syntactic = ev.eval(&formula);
            assert_eq!(
                syntactic, semantic,
                "α_P({tuple:?}) mismatch on seed {seed}"
            );
        }
    }
}

#[test]
fn alpha_with_constants_and_repeated_vars() {
    // ¬P(c, x, x)-style patterns: constants and repeated variables in the
    // argument tuple must flow into the γ edge formula correctly.
    for seed in 0..6 {
        let cw = random_cw_db(&DbGenConfig {
            num_consts: 4,
            pred_arities: vec![3],
            facts_per_pred: 3,
            known_fraction: 0.5,
            extra_ne_pairs: 1,
            seed,
        });
        let extended = ApproxEngine::new(&cw);
        let p = cw.voc().pred_id("P0").unwrap();
        let x = Var(0);
        let c0 = querying_logical_databases::logic::ConstId(0);
        let mut gen = VarGen::after(Some(x));
        let args = [Term::Const(c0), Term::Var(x), Term::Var(x)];
        let formula = alpha_p(p, 3, extended.ne_pred(), &args, &mut gen);
        formula.check(extended.extended_voc()).unwrap();
        for e in 0..cw.num_consts() as u32 {
            let grounded = [0u32, e, e];
            let semantic = cw.facts(p).iter().all(|d| disagrees(&cw, &grounded, d));
            let mut ev = Evaluator::new(extended.extended_db(), &formula);
            ev.bind(x, e);
            assert_eq!(
                ev.eval(&formula),
                semantic,
                "α_P(c0,{e},{e}) mismatch on seed {seed}"
            );
        }
    }
}

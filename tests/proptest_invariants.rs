//! Property-based invariants on the core data structures — relations,
//! mappings/kernels, disagreement, NE stores, and NNF — through the
//! shared case loop (`tests/support/cases.rs`).

#[macro_use]
#[path = "support/cases.rs"]
mod cases;
#[path = "support/ne_store.rs"]
mod ne_store;
#[path = "support/oracle.rs"]
mod oracle;
#[path = "support/scenario.rs"]
mod scenario;

use cases::Case;
use ne_store::NeStore;
use oracle::{count_respecting_mappings, theory_sentences};
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::approx::disagree::disagrees;
use querying_logical_databases::core::codec::{decode, encode};
use querying_logical_databases::core::mappings::{
    count_kernel_mappings, for_each_kernel_mapping, respects,
};
use querying_logical_databases::core::textio::{from_text, to_text};
use querying_logical_databases::core::worlds::{count_worlds, for_each_world};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::nnf::{is_nnf, to_nnf};
use querying_logical_databases::logic::{ConstId, Formula, Query, Vocabulary};
use querying_logical_databases::physical::Relation;
use rand::rngs::StdRng;
use rand::Rng;
use scenario::{Scenario, Shape, SMALL};

/// The cases every invariant runs.
const CASES: u32 = 64;

impl Case for Vec<Vec<u32>> {}
impl Case for (Vec<Vec<u32>>, u32) {}
impl Case for (usize, Vec<(u32, u32)>) {}
impl Case for (usize, Vec<(u32, u32)>, Vec<u32>, Vec<u32>) {}
impl Case for u64 {}

/// Up to 19 binary rows over `0..6`.
fn rows(rng: &mut StdRng) -> Vec<Vec<u32>> {
    let len = rng.gen_range(0..20);
    (0..len)
        .map(|_| vec![rng.gen_range(0..6), rng.gen_range(0..6)])
        .collect()
}

/// `n` from `consts` and fewer than `max_pairs` pairs over `0..=n_max`.
fn axioms(
    rng: &mut StdRng,
    consts: std::ops::Range<usize>,
    max_pairs: usize,
) -> (usize, Vec<(u32, u32)>) {
    let n_max = consts.end as u32;
    let n = rng.gen_range(consts);
    let len = rng.gen_range(0..max_pairs);
    (
        n,
        (0..len)
            .map(|_| (rng.gen_range(0..n_max), rng.gen_range(0..n_max)))
            .collect(),
    )
}

/// Checks a physical database against the explicit theory sentences.
fn qld_satisfies_theory(
    db: &CwDatabase,
    world: &querying_logical_databases::physical::PhysicalDb,
) -> bool {
    querying_logical_databases::physical::satisfies_all(world, &theory_sentences(db))
}

/// Builds a CW database with `n` constants and the given uniqueness pairs
/// (invalid pairs filtered).
fn db_from_pairs(n: usize, pairs: &[(u32, u32)]) -> CwDatabase {
    let mut voc = Vocabulary::new();
    for i in 0..n {
        voc.add_const(&format!("c{i}")).unwrap();
    }
    let mut b = CwDatabase::builder(voc);
    for &(x, y) in pairs {
        let (x, y) = (x % n as u32, y % n as u32);
        if x != y {
            b = b.unique(ConstId(x), ConstId(y));
        }
    }
    b.build().unwrap()
}

/// A depth-4 query of `fragment` over the default generated database.
fn query(seed: u64, fragment: QueryFragment) -> Query {
    let db = random_cw_db(&DbGenConfig {
        seed,
        ..DbGenConfig::default()
    });
    let cfg = QueryGenConfig {
        fragment,
        max_depth: 4,
        head_arity: 1,
        seed,
    };
    random_query(db.voc(), &cfg)
}

fn has_not(f: &Formula) -> bool {
    use Formula::*;
    match f {
        Not(_) => true,
        True | False | Atom(..) | SoAtom(..) | Eq(..) => false,
        And(fs) | Or(fs) => fs.iter().any(has_not),
        Implies(p, q) | Iff(p, q) => has_not(p) || has_not(q),
        Exists(_, g) | Forall(_, g) | SoExists(_, _, g) | SoForall(_, _, g) => has_not(g),
    }
}

property! {
    fn relation_membership_matches_construction(tuples in rows; CASES) {
        let rel = Relation::from_rows(2, tuples);
        // Everything inserted is found; nothing else is.
        for t in tuples {
            ensure!(rel.contains(t));
        }
        for a in 0..6u32 {
            for b in 0..6u32 {
                let present = tuples.iter().any(|t| t[..] == [a, b]);
                ensure_eq!(rel.contains(&[a, b]), present);
            }
        }
        // Sorted, deduplicated iteration.
        let collected: Vec<Vec<u32>> = rel.iter().map(<[u32]>::to_vec).collect();
        let mut expected = tuples.clone();
        expected.sort_unstable();
        expected.dedup();
        ensure_eq!(collected, expected);
        Ok(())
    }

    fn map_elems_never_grows((tuples, target) in |rng| (rows(rng), rng.gen_range(0..6)); CASES) {
        let rel = Relation::from_rows(2, tuples);
        let mapped = rel.map_elems(|e| e.min(*target));
        ensure!(mapped.len() <= rel.len());
        Ok(())
    }

    fn kernels_never_outnumber_raw_mappings((n, pairs) in |rng| axioms(rng, 1..5, 6); CASES) {
        let db = db_from_pairs(*n, pairs);
        let raw = count_respecting_mappings(&db);
        let kernels = count_kernel_mappings(&db);
        ensure!(kernels >= 1, "at least the identity kernel");
        ensure!(kernels <= raw);
        // Every enumerated kernel mapping respects the axioms.
        for_each_kernel_mapping(&db, |h| {
            assert!(respects(&db, h));
            true
        });
        Ok(())
    }

    fn disagreement_is_symmetric_and_irreflexive((n, pairs, c, d) in |rng| {
        let (n, pairs) = axioms(rng, 2..6, 6);
        let mut tuple = || vec![rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)];
        (n, pairs, tuple(), tuple())
    }; CASES) {
        let db = db_from_pairs(*n, pairs);
        ensure!(!disagrees(&db, c, c), "a tuple never disagrees with itself");
        ensure_eq!(disagrees(&db, c, d), disagrees(&db, d, c));
        Ok(())
    }

    fn ne_store_representations_agree((n, pairs) in |rng| axioms(rng, 1..7, 10); CASES) {
        let db = db_from_pairs(*n, pairs);
        let explicit = NeStore::explicit(&db);
        let virt = NeStore::virtualized(&db);
        for a in 0..*n as u32 {
            for b in 0..*n as u32 {
                let (e, v) = (explicit.contains(a, b), virt.contains(a, b));
                ensure_eq!(e, v, "stores disagree at ({a}, {b})");
            }
        }
        ensure!(
            virt.stored_entries() <= explicit.stored_entries() + n,
            "virtual store should not blow up"
        );
        Ok(())
    }

    fn textio_round_trip_on_random_databases(
        s in |rng| Scenario::generate(&Shape { consts: 1..=6, ..SMALL }, rng); CASES
    ) {
        let text = to_text(&s.db);
        let back = from_text(&text).map_err(|e| format!("reparse failed: {e}\n{text}"))?;
        ensure_eq!(&s.db, &back);
        // The binary codec round-trips to the same database and text, and
        // reads the text as its legacy layout.
        let binary =
            decode(&encode(&s.db)).map_err(|e| format!("binary decode failed: {e}\n{text}"))?;
        ensure_eq!(&binary, &s.db);
        ensure_eq!(to_text(&binary), text.clone());
        ensure_eq!(decode(text.as_bytes()), Ok(s.db.clone()));
        Ok(())
    }

    fn worlds_count_consistent_with_enumeration((n, pairs) in |rng| axioms(rng, 1..5, 5); CASES) {
        let db = db_from_pairs(*n, pairs);
        let mut seen = 0u64;
        for_each_world(&db, |world| {
            // Every world is a model of the explicit theory.
            assert!(qld_satisfies_theory(&db, world));
            seen += 1;
            true
        });
        ensure_eq!(seen, count_worlds(&db));
        Ok(())
    }

    fn nnf_is_idempotent_and_normal(&seed in |rng| rng.gen_range(0..10_000u64); CASES) {
        let q = query(seed, QueryFragment::FullFo);
        let once = to_nnf(q.body());
        ensure!(is_nnf(&once));
        let twice = to_nnf(&once);
        ensure_eq!(once, twice);
        Ok(())
    }

    /// Theorem 13's syntactic core: a positive query's NNF is
    /// negation-free, so Q̂ = Q.
    fn positive_queries_have_no_negative_rewrite(&seed in |rng| rng.gen_range(0..10_000u64); CASES) {
        let q = query(seed, QueryFragment::Positive);
        ensure!(q.is_positive());
        ensure!(!has_not(&to_nnf(q.body())));
        Ok(())
    }
}

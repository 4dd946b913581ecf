//! Property-based invariants (proptest) on the core data structures:
//! relations, mappings/kernels, disagreement, NE stores, and NNF.

use proptest::prelude::*;
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::approx::disagree::disagrees;
use querying_logical_databases::approx::NeStore;
use querying_logical_databases::core::mappings::{
    count_kernel_mappings, count_respecting_mappings, for_each_kernel_mapping, respects,
};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::nnf::{is_nnf, to_nnf};
use querying_logical_databases::logic::{ConstId, Vocabulary};
use querying_logical_databases::physical::Relation;

/// Checks a physical database against the explicit theory sentences.
fn qld_satisfies_theory(
    db: &CwDatabase,
    world: &querying_logical_databases::physical::PhysicalDb,
) -> bool {
    querying_logical_databases::physical::satisfies_all(world, &db.theory_sentences())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relation_membership_matches_construction(
        tuples in proptest::collection::vec(proptest::collection::vec(0u32..6, 2), 0..20)
    ) {
        let rel = Relation::from_rows(2, &tuples);
        // Everything inserted is found; nothing else is.
        for t in &tuples {
            prop_assert!(rel.contains(t));
        }
        for a in 0..6u32 {
            for b in 0..6u32 {
                let present = tuples.iter().any(|t| t[..] == [a, b]);
                prop_assert_eq!(rel.contains(&[a, b]), present);
            }
        }
        // Sorted, deduplicated iteration.
        let collected: Vec<Vec<u32>> = rel.iter().map(<[u32]>::to_vec).collect();
        let mut expected = tuples;
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn map_elems_never_grows(
        tuples in proptest::collection::vec(proptest::collection::vec(0u32..6, 2), 0..20),
        target in 0u32..6
    ) {
        let rel = Relation::from_rows(2, tuples);
        let mapped = rel.map_elems(|e| if e > target { target } else { e });
        prop_assert!(mapped.len() <= rel.len());
    }

    #[test]
    fn kernels_never_outnumber_raw_mappings(
        n in 1usize..5,
        pairs in proptest::collection::vec((0u32..5, 0u32..5), 0..6)
    ) {
        let db = db_from_pairs(n, &pairs);
        let raw = count_respecting_mappings(&db);
        let kernels = count_kernel_mappings(&db);
        prop_assert!(kernels >= 1, "at least the identity kernel");
        prop_assert!(kernels <= raw);
        // Every enumerated kernel mapping respects the axioms.
        for_each_kernel_mapping(&db, |h| {
            assert!(respects(&db, h));
            true
        });
    }

    #[test]
    fn disagreement_is_symmetric_and_irreflexive(
        n in 2usize..6,
        pairs in proptest::collection::vec((0u32..6, 0u32..6), 0..6),
        c in proptest::collection::vec(0u32..6, 2),
        d in proptest::collection::vec(0u32..6, 2)
    ) {
        let db = db_from_pairs(n, &pairs);
        let c: Vec<u32> = c.iter().map(|&e| e % n as u32).collect();
        let d: Vec<u32> = d.iter().map(|&e| e % n as u32).collect();
        prop_assert!(!disagrees(&db, &c, &c), "a tuple never disagrees with itself");
        prop_assert_eq!(disagrees(&db, &c, &d), disagrees(&db, &d, &c));
    }

    #[test]
    fn ne_store_representations_agree(
        n in 1usize..7,
        pairs in proptest::collection::vec((0u32..7, 0u32..7), 0..10)
    ) {
        let db = db_from_pairs(n, &pairs);
        let explicit = NeStore::explicit(&db);
        let virt = NeStore::virtualized(&db);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                prop_assert_eq!(explicit.contains(a, b), virt.contains(a, b),
                    "stores disagree at ({}, {})", a, b);
            }
        }
        prop_assert!(virt.stored_entries() <= explicit.stored_entries() + n,
            "virtual store should not blow up");
    }

    #[test]
    fn textio_round_trip_on_random_databases(
        seed in 0u64..10_000,
        n in 1usize..7,
        known in 0u8..=10,
    ) {
        use querying_logical_databases::core::codec::{decode, encode};
        use querying_logical_databases::core::textio::{from_text, to_text};
        use qld_workloads::{random_cw_db as gen_db, DbGenConfig as Cfg};
        let db = gen_db(&Cfg {
            num_consts: n,
            pred_arities: vec![2, 1],
            facts_per_pred: 3,
            known_fraction: f64::from(known) / 10.0,
            extra_ne_pairs: (seed % 3) as usize,
            seed,
        });
        let text = to_text(&db);
        let back = from_text(&text).map_err(|e| {
            TestCaseError::fail(format!("reparse failed: {e}\n{text}"))
        })?;
        prop_assert_eq!(&db, &back);
        // The binary codec round-trips to the same database and text,
        // and reads the text as its legacy layout.
        let binary = decode(&encode(&db)).map_err(|e| {
            TestCaseError::fail(format!("binary decode failed: {e}\n{text}"))
        })?;
        prop_assert_eq!(&binary, &db);
        prop_assert_eq!(to_text(&binary), text.clone());
        prop_assert_eq!(decode(text.as_bytes()), Ok(db));
    }

    #[test]
    fn worlds_count_consistent_with_enumeration(
        n in 1usize..5,
        pairs in proptest::collection::vec((0u32..5, 0u32..5), 0..5)
    ) {
        use querying_logical_databases::core::worlds::{count_worlds, for_each_world};
        let db = db_from_pairs(n, &pairs);
        let mut seen = 0u64;
        for_each_world(&db, |world| {
            // Every world is a model of the explicit theory.
            assert!(qld_satisfies_theory(&db, world));
            seen += 1;
            true
        });
        prop_assert_eq!(seen, count_worlds(&db));
    }

    #[test]
    fn nnf_is_idempotent_and_normal(seed in 0u64..10_000) {
        let db = random_cw_db(&DbGenConfig { seed, ..DbGenConfig::default() });
        let q = random_query(db.voc(), &QueryGenConfig {
            fragment: QueryFragment::FullFo,
            max_depth: 4,
            head_arity: 1,
            seed,
        });
        let once = to_nnf(q.body());
        prop_assert!(is_nnf(&once));
        let twice = to_nnf(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn positive_queries_have_no_negative_rewrite(seed in 0u64..10_000) {
        // Theorem 13's syntactic core: a positive query's NNF is
        // negation-free, so Q̂ = Q.
        let db = random_cw_db(&DbGenConfig { seed, ..DbGenConfig::default() });
        let q = random_query(db.voc(), &QueryGenConfig {
            fragment: QueryFragment::Positive,
            max_depth: 4,
            head_arity: 1,
            seed,
        });
        prop_assert!(q.is_positive());
        let nnf = to_nnf(q.body());
        fn has_not(f: &querying_logical_databases::logic::Formula) -> bool {
            use querying_logical_databases::logic::Formula::*;
            match f {
                Not(_) => true,
                True | False | Atom(..) | SoAtom(..) | Eq(..) => false,
                And(fs) | Or(fs) => fs.iter().any(has_not),
                Implies(p, q) | Iff(p, q) => has_not(p) || has_not(q),
                Exists(_, g) | Forall(_, g) | SoExists(_, _, g) | SoForall(_, _, g) => has_not(g),
            }
        }
        prop_assert!(!has_not(&nnf));
    }
}

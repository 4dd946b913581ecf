//! What a publish costs, measured without a clock, and what it must not
//! break.
//!
//! `SharedEngine::apply` publishes a clone of the writer engine after
//! every delta. With a flat `Relation` and `Arc`-shared `CwDatabase`
//! parts that clone is reference-count bumps plus a copy of the one
//! relation the delta touched, so its cost must not depend on how many
//! facts the database holds. Wall clocks on a shared host cannot pin
//! that; a counting `#[global_allocator]` can: the number of allocations
//! one `apply` performs is a constant of the code path, and the bytes it
//! allocates are bounded by the touched relation alone.
//!
//! The other half is that sharing must stay invisible: a snapshot taken
//! before a run of writes still answers — and serializes — exactly as it
//! did, and the live database equals one rebuilt from scratch.
//!
//! The allocator counts only while the test thread asks it to, and this
//! is the one test of its binary, so nothing else allocates meanwhile.

use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::{ConstId, PredId};
use querying_logical_databases::physical::Relation;
use querying_logical_databases::prelude::{to_text, Delta, Engine, Semantics, SharedEngine};
use querying_logical_databases::workloads::{random_cw_db, DbGenConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{measured, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The serving-shaped database `qld_bench`'s `durable_write` writes into:
/// binary `P0`, unary `P1`, `2·n` generated facts each, 70 % of the
/// constants pairwise unique.
fn generated_db(num_consts: usize, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: vec![2, 1],
        facts_per_pred: 2 * num_consts,
        known_fraction: 0.7,
        extra_ne_pairs: 0,
        seed,
    })
}

/// `P0` pairs that are not facts of `db`, in row order.
fn fresh_pairs(db: &CwDatabase, p0: PredId) -> impl Iterator<Item = Delta> + '_ {
    let n = db.num_consts() as u32;
    (0..n)
        .flat_map(move |a| (0..n).map(move |b| (a, b)))
        .filter(move |&(a, b)| !db.facts(p0).contains(&[a, b]))
        .map(move |(a, b)| Delta::new().insert_fact(p0, &[ConstId(a), ConstId(b)]))
}

fn relation_bytes(rel: &Relation) -> usize {
    rel.len() * rel.arity() * std::mem::size_of::<u32>()
}

/// Allocations one `SharedEngine::apply` of one fresh `P0` pair performs,
/// whatever the database holds: the fact's tuple and the delta
/// bookkeeping, the copy of `P0` and the growth of that copy by one row,
/// the cloned engine's own fixed parts, and the snapshot's `Arc`.
const ALLOCATIONS_PER_APPLY: usize = 9;

/// Bytes those allocations ask for beyond the touched relation's share.
const FIXED_BYTES_PER_APPLY: usize = 2048;

fn publish_cost_does_not_depend_on_the_fact_count() {
    let db = generated_db(160, 19);
    let p0 = db.voc().pred_id("P0").unwrap();
    let p1 = db.voc().pred_id("P1").unwrap();
    let mut fresh = fresh_pairs(&db, p0);
    let shared = SharedEngine::new(Engine::new(db.clone()));

    // One apply on the generated database (≈ 320 `P0` facts) …
    let small = relation_bytes(db.facts(p0));
    let delta = fresh.next().unwrap();
    let (report, allocations_small, bytes_small) = measured(|| shared.apply(&delta).unwrap());
    assert_eq!(report.facts_inserted, 1);

    // … and one after 1,000 more facts have gone in.
    for delta in fresh.by_ref().take(1000) {
        assert!(shared.apply(&delta).unwrap().changed());
    }
    let before = shared.snapshot();
    let large = relation_bytes(before.engine().db().facts(p0));
    assert!(
        large >= 4 * small,
        "the second measurement needs a bigger relation"
    );
    let delta = fresh.next().unwrap();
    let (report, allocations_large, bytes_large) = measured(|| shared.apply(&delta).unwrap());
    assert_eq!(report.facts_inserted, 1);
    let after = shared.snapshot();

    assert_eq!(
        (allocations_small, allocations_large),
        (ALLOCATIONS_PER_APPLY, ALLOCATIONS_PER_APPLY),
        "allocations per apply moved, or depend on the fact count"
    );
    // The touched relation is copied once and its copy grows by one row
    // (a `Vec` at capacity doubles): three times its size, nothing that
    // scales with the rest of the database — the 6,216 axiom pairs alone
    // are 48 KiB.
    for (bytes, relation) in [(bytes_small, small), (bytes_large, large)] {
        assert!(
            bytes <= 3 * relation + FIXED_BYTES_PER_APPLY,
            "one apply allocated {bytes} bytes against a {relation}-byte relation"
        );
    }
    assert!(std::mem::size_of_val(db.ne_pairs()) > 3 * small + FIXED_BYTES_PER_APPLY);

    // What the delta did not touch is the same memory in both snapshots.
    let (old, new) = (before.engine().db(), after.engine().db());
    assert!(std::ptr::eq(old.voc(), new.voc()), "vocabulary was copied");
    assert!(std::ptr::eq(old.facts(p1), new.facts(p1)), "P1 was copied");
    assert!(
        std::ptr::eq(old.ne_pairs(), new.ne_pairs()),
        "axioms were copied"
    );
    assert!(
        !std::ptr::eq(old.facts(p0), new.facts(p0)),
        "P0 is shared with a snapshot"
    );
    assert_eq!(old.facts(p0).len() + 1, new.facts(p0).len());

    // A delta of duplicates publishes nothing and copies no relation.
    let (a, b): (u32, u32) = {
        let row = new.facts(p0).iter().next().unwrap();
        (row[0], row[1])
    };
    let duplicate = Delta::new().insert_fact(p0, &[ConstId(a), ConstId(b)]);
    let (report, _, bytes) = measured(|| shared.apply(&duplicate).unwrap());
    assert!(!report.changed());
    assert_eq!(report.facts_duplicate, 1);
    assert!(
        bytes < FIXED_BYTES_PER_APPLY && bytes < small,
        "a duplicate-only delta allocated {bytes} bytes"
    );
    assert!(std::ptr::eq(
        after.engine().db().facts(p0),
        shared.snapshot().engine().db().facts(p0)
    ));
}

const QUERIES: [&str; 4] = [
    "(x, z) . exists y. P0(x, y) & P0(y, z)",
    "(x) . P1(x) & !P0(x, x)",
    "(x) . forall y. P0(x, y) -> P1(y)",
    "exists x. P0(x, x)",
];

fn old_snapshots_are_isolated_from_later_writes() {
    let db = generated_db(10, 7);
    let n = db.num_consts() as u32;
    let p0 = db.voc().pred_id("P0").unwrap();
    let p1 = db.voc().pred_id("P1").unwrap();
    let shared = SharedEngine::new(Engine::new(db.clone()));

    let frozen = shared.snapshot();
    let answers = |engine: &Engine| -> Vec<_> {
        QUERIES
            .iter()
            .flat_map(|text| {
                let prepared = engine.prepare_text(text).unwrap();
                Semantics::ALL.map(|semantics| {
                    let answers = engine.execute_as(&prepared, semantics).unwrap();
                    let certificate = answers.evidence().certificate;
                    (answers.into_tuples(), certificate)
                })
            })
            .collect()
    };
    let answers_before = answers(frozen.engine());
    let text_before = to_text(frozen.engine().db());
    assert_eq!(text_before, to_text(&db));

    // 100 applies touching both relations and the axiom list.
    let mut rebuilt = CwDatabase::builder(db.voc().clone());
    for p in [p0, p1] {
        for row in db.facts(p) {
            let args: Vec<ConstId> = row.iter().map(|&e| ConstId(e)).collect();
            rebuilt = rebuilt.fact(p, &args);
        }
    }
    for &(a, b) in db.ne_pairs() {
        rebuilt = rebuilt.unique(ConstId(a), ConstId(b));
    }
    let mut changed = 0;
    for i in 0..100u32 {
        // Every (a, b) pair over the 10 constants, once.
        let (a, b) = (ConstId(i % n), ConstId((i / n + i % n * 3) % n));
        let delta = match i % 3 {
            0 => {
                rebuilt = rebuilt.fact(p0, &[a, b]);
                Delta::new().insert_fact(p0, &[a, b])
            }
            1 => {
                rebuilt = rebuilt.fact(p1, &[a]);
                Delta::new().insert_fact(p1, &[a])
            }
            _ if a != b => {
                rebuilt = rebuilt.unique(a, b);
                Delta::new().assert_ne(a, b)
            }
            _ => continue,
        };
        changed += usize::from(shared.apply(&delta).unwrap().changed());
    }
    assert!(
        changed >= 20,
        "the write stream must really change the database"
    );

    // The old snapshot is exactly what it was …
    assert_eq!(frozen.engine().db(), &db);
    assert_eq!(to_text(frozen.engine().db()), text_before);
    assert_eq!(answers(frozen.engine()), answers_before);
    // … and the live database is what a rebuild from scratch gives.
    let live = shared.snapshot();
    assert_eq!(live.epoch(), changed as u64);
    let rebuilt = rebuilt.build().unwrap();
    assert_eq!(live.engine().db(), &rebuilt);
    assert_eq!(to_text(live.engine().db()), to_text(&rebuilt));
    assert_eq!(
        answers(live.engine()),
        answers(&Engine::new(rebuilt)),
        "live engine ≠ fresh engine over the rebuilt database"
    );
}

#[test]
fn publish_is_o_touched_and_snapshots_stay_frozen() {
    publish_cost_does_not_depend_on_the_fact_count();
    old_snapshots_are_isolated_from_later_writes();
}

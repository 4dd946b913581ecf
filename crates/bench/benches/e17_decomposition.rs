//! E17 — sub-exponential Theorem 1 search via free-null decomposition.
//!
//! Series: visited-image counts and wall-clock for the same exact
//! evaluation on the E1-style join workload as the vocabulary grows a
//! tail of *free* constants (in no fact, no uniqueness axiom, unmentioned
//! by the query). Every free constant multiplies the kernel count; the
//! walk's visited-image count stays pinned at `core kernels × (cap + 1)`,
//! which is where the sub-exponential claim is measured.
//!
//! Asserted here, not just measured, from `Evidence` alone:
//! `evaluated + pruned` covers the kernel space exactly, and at the widest
//! point the walk visits ≥10× fewer images than there are kernels (what a
//! one-image-per-kernel enumeration would pay). That the answers are the
//! certain answers is `tests/decomposition_differential.rs`' job.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qld_bench::{fmt_duration, print_header, print_row, scaling_query, sparse_null_db, time_once};
use qld_core::mappings::count_kernel_mappings;
use qld_engine::{Engine, Semantics};
use std::time::Duration;

const N_CORE: usize = 6;
const FREE_SWEEP: [usize; 5] = [0, 1, 2, 3, 4];

fn exact_engine(db: &qld_core::CwDatabase) -> Engine {
    Engine::builder(db.clone())
        .semantics(Semantics::Exact)
        .corollary2_fast_path(false)
        // Measure the enumeration, not answer-cache hits.
        .answer_cache(false)
        .build()
}

fn print_series() {
    println!(
        "\nE17: free-null decomposition — visited images vs kernel count (query: certain join)"
    );
    print_header(&[
        "free",
        "kernels",
        "visited",
        "pruned",
        "comps",
        "t(walk)",
        "reduction",
    ]);
    for m_free in FREE_SWEEP {
        let db = sparse_null_db(N_CORE, m_free, 42);
        // The `∨ z = z` wrapper keeps every tuple certain, so early exit
        // never fires and the walk reports its full deterministic total
        // (same trick as E10).
        let q = scaling_query(&db);
        let engine = exact_engine(&db);
        let prepared = engine.prepare(q).unwrap();
        let (a, t_walk) = time_once(|| engine.execute(&prepared).unwrap());
        assert!(a.is_exact(), "the walk certifies exact answers");
        let kernels = count_kernel_mappings(&db);
        let visited = a.evidence().mappings_evaluated;
        let pruned = a.evidence().mappings_pruned;
        assert_eq!(
            visited + pruned,
            kernels,
            "evaluated + pruned must cover the kernel space"
        );
        let reduction = kernels as f64 / visited as f64;
        if m_free == *FREE_SWEEP.last().unwrap() {
            // The acceptance bar for the decomposition: at the widest
            // vocabulary the canonical-image walk is ≥10× smaller.
            assert!(
                reduction >= 10.0,
                "expected ≥10× fewer visited images, got {reduction:.1}× \
                 ({visited} of {kernels})"
            );
        }
        print_row(&[
            m_free.to_string(),
            kernels.to_string(),
            visited.to_string(),
            pruned.to_string(),
            a.evidence().components.to_string(),
            fmt_duration(t_walk),
            format!("{reduction:.1}x"),
        ]);
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e17_decomposition");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for m_free in [2usize, 4] {
        let db = sparse_null_db(N_CORE, m_free, 42);
        let engine = exact_engine(&db);
        let prepared = engine.prepare(scaling_query(&db)).unwrap();
        group.bench_with_input(BenchmarkId::new("decomposed", m_free), &m_free, |b, _| {
            b.iter(|| engine.execute(&prepared).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

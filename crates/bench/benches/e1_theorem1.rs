//! E1 — Theorem 1: certain answers as quantification over respecting
//! mappings.
//!
//! Series: exact evaluation cost by |C| for three evaluation routes —
//! kernel-partition enumeration (default), raw mapping enumeration
//! (Theorem 1 verbatim), and the naive model-enumeration oracle (the bare
//! `T ⊨_f` definition; tiny sizes only). All are exponential; each route
//! is successively cheaper, and all agree (asserted here).
//!
//! The kernel route is driven through `qld_engine::Engine` with a prepared
//! query (mapping counts come from the evidence report); the raw route is
//! the reference `oracle::answers_by_raw_mappings`, which reports how many
//! mappings it visited.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qld_bench::{fmt_duration, print_header, print_row, standard_db, standard_queries, time_once};
use qld_core::exact::AnswerMode;
use qld_core::mappings::{count_kernel_mappings, count_respecting_mappings};
use qld_core::oracle::{answers_by_raw_mappings, certain_answers_oracle};
use qld_engine::{Engine, Semantics};
use std::time::Duration;

fn kernel_engine(db: &qld_core::CwDatabase) -> Engine {
    Engine::builder(db.clone())
        .semantics(Semantics::Exact)
        .corollary2_fast_path(false)
        // Measure the enumeration, not answer-cache hits.
        .answer_cache(false)
        .build()
}

fn print_series() {
    println!("\nE1: exact certain answers — enumeration strategy costs (query: join)");
    print_header(&[
        "|C|",
        "kernels",
        "raw mappings",
        "t(kernel)",
        "t(raw)",
        "t(oracle)",
    ]);
    for n in [3usize, 4, 5, 6, 7] {
        let db = standard_db(n, 42);
        let queries = standard_queries(&db);
        let (_, q) = &queries[0];
        let kernels = kernel_engine(&db);
        let pk = kernels.prepare(q.clone()).unwrap();
        let (a, t_kernel) = time_once(|| kernels.execute(&pk).unwrap());
        let ((b, raw_visited), t_raw) =
            time_once(|| answers_by_raw_mappings(&db, q, AnswerMode::Certain));
        assert_eq!(*a.tuples(), b, "kernel walk and raw mappings must agree");
        assert!(a.is_exact(), "Theorem 1 answers are certified exact");
        let t_oracle = if n <= 3 {
            let (c, t) = time_once(|| certain_answers_oracle(&db, q).unwrap());
            assert_eq!(*a.tuples(), c, "oracle must agree");
            fmt_duration(t)
        } else {
            "—".to_string()
        };
        print_row(&[
            n.to_string(),
            count_kernel_mappings(&db).to_string(),
            count_respecting_mappings(&db).to_string(),
            fmt_duration(t_kernel),
            fmt_duration(t_raw),
            t_oracle,
        ]);
        // The evidence reports how much enumeration the kernel walk did
        // (early exit on an emptied candidate set can shorten it); the raw
        // reference visits every respecting mapping.
        assert!(a.evidence().mappings_evaluated <= count_kernel_mappings(&db));
        assert_eq!(raw_visited, count_respecting_mappings(&db));
        assert!(a.evidence().mappings_evaluated > 0);
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e1_theorem1");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for n in [3usize, 4, 5, 6] {
        let db = standard_db(n, 42);
        let queries = standard_queries(&db);
        let (_, q) = &queries[0];
        let kernels = kernel_engine(&db);
        let pk = kernels.prepare(q.clone()).unwrap();
        group.bench_with_input(BenchmarkId::new("kernels", n), &n, |b, _| {
            b.iter(|| kernels.execute(&pk).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("raw", n), &n, |b, _| {
            b.iter(|| answers_by_raw_mappings(&db, q, AnswerMode::Certain))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! E2 — Corollary 2: on fully specified databases, `Q(LB) = Q(Ph₁(LB))`.
//!
//! Series: evaluation cost by |C| for (a) the Corollary 2 fast path (one
//! physical evaluation), (b) kernel enumeration (which collapses to a
//! single kernel when all constants are pairwise distinct — the
//! isomorphism-invariance optimization makes Corollary 2 nearly free),
//! and (c) raw mapping enumeration (all |C|! injections — the cost the
//! corollary saves), via the reference `oracle::answers_by_raw_mappings`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qld_bench::{fmt_duration, print_header, print_row, standard_queries, time_once};
use qld_core::exact::{certain_answers_with, AnswerMode, ExactOptions};
use qld_core::oracle::answers_by_raw_mappings;
use qld_core::CwDatabase;
use qld_workloads::{random_cw_db, DbGenConfig};
use std::time::Duration;

fn fully_specified_db(n: usize) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts: n,
        pred_arities: vec![2, 1],
        facts_per_pred: 2 * n,
        known_fraction: 1.0,
        extra_ne_pairs: 0,
        seed: 7,
    })
}

fn fast() -> ExactOptions {
    ExactOptions::new()
}

fn kernels() -> ExactOptions {
    ExactOptions {
        corollary2_fast_path: false,
        ..ExactOptions::new()
    }
}

fn print_series() {
    println!("\nE2: fully specified databases — Corollary 2 fast path vs generic evaluation");
    print_header(&["|C|", "t(fast path)", "t(kernels)", "t(raw = |C|!)"]);
    for n in [4usize, 5, 6, 7, 16, 32] {
        let db = fully_specified_db(n);
        let queries = standard_queries(&db);
        let (_, q) = &queries[1];
        let (a, t_fast) = time_once(|| certain_answers_with(&db, q, fast()).unwrap());
        let (b, t_kern) = time_once(|| certain_answers_with(&db, q, kernels()).unwrap());
        assert_eq!(a.0, b.0, "Corollary 2 violated");
        let t_raw = if n <= 7 {
            let (c, t) = time_once(|| answers_by_raw_mappings(&db, q, AnswerMode::Certain));
            assert_eq!(a.0, c.0);
            fmt_duration(t)
        } else {
            "—".to_string()
        };
        print_row(&[
            n.to_string(),
            fmt_duration(t_fast),
            fmt_duration(t_kern),
            t_raw,
        ]);
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e2_corollary2");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for n in [4usize, 6, 16, 32] {
        let db = fully_specified_db(n);
        let queries = standard_queries(&db);
        let (_, q) = &queries[1];
        group.bench_with_input(BenchmarkId::new("fast_path", n), &n, |b, _| {
            b.iter(|| certain_answers_with(&db, q, fast()).unwrap())
        });
        if n <= 6 {
            group.bench_with_input(BenchmarkId::new("raw_factorial", n), &n, |b, _| {
                b.iter(|| answers_by_raw_mappings(&db, q, AnswerMode::Certain))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

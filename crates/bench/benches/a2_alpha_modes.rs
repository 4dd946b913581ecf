//! Ablation A2 — the two realizations of `α_P` in the approximation.
//!
//! `Materialized` pre-computes the provably-false relation and scans it
//! (Theorem 14's reading); `Lemma10` splices the literal `O(k log k)`
//! first-order formula into `Q̂` and pays quantifier evaluation per
//! negated atom. Same answers (asserted), different cost profiles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qld_approx::{AlphaMode, ApproxEngine};
use qld_bench::{fmt_duration, print_header, print_row, standard_db, time_once};
use qld_logic::parser::parse_query;
use std::time::Duration;

fn print_series() {
    println!("\nA2: alpha_P realizations (query: (x) . P1(x) & !P0(x, x))");
    print_header(&["|C|", "t(materialized)", "t(lemma10)", "t(build engine)"]);
    for n in [6usize, 8, 10, 12, 32, 64] {
        let db = standard_db(n, 5);
        let (engine, t_build) = time_once(|| ApproxEngine::new(&db));
        let q = parse_query(db.voc(), "(x) . P1(x) & !P0(x, x)").unwrap();
        let (a, t_mat) = time_once(|| engine.eval_with(&q, AlphaMode::Materialized).unwrap());
        // The literal Lemma 10 formula is short (O(k log k)) but deeply
        // quantified: naive evaluation costs |C|^depth, so the series
        // stops where that becomes pointless. That asymmetry is this
        // ablation's finding.
        let t_lem = if n <= 12 {
            let (b, t) = time_once(|| engine.eval_with(&q, AlphaMode::Lemma10).unwrap());
            assert_eq!(a, b, "alpha modes must agree");
            fmt_duration(t)
        } else {
            "—".to_string()
        };
        print_row(&[
            n.to_string(),
            fmt_duration(t_mat),
            t_lem,
            fmt_duration(t_build),
        ]);
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("a2_alpha_modes");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for n in [8usize, 16, 32] {
        let db = standard_db(n, 5);
        let engine = ApproxEngine::new(&db);
        let q = parse_query(db.voc(), "(x) . P1(x) & !P0(x, x)").unwrap();
        group.bench_with_input(BenchmarkId::new("materialized", n), &n, |b, _| {
            b.iter(|| engine.eval_with(&q, AlphaMode::Materialized).unwrap())
        });
        if n <= 8 {
            group.bench_with_input(BenchmarkId::new("lemma10", n), &n, |b, _| {
                b.iter(|| engine.eval_with(&q, AlphaMode::Lemma10).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

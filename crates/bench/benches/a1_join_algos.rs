//! Ablation A1 — join algorithm choice in the relational engine.
//!
//! Sort-merge vs nested-loop equi-join on growing random relations. The
//! engine's default is sort-merge; nested-loop is the quadratic reference
//! implementation every result is verified against. (A hash join was the
//! third column until it won at no size from 64 to 4,096 rows per side.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qld_algebra::exec::join;
use qld_algebra::JoinAlgo;
use qld_bench::{fmt_duration, print_header, print_row, time_once};
use qld_physical::Relation;
use std::time::Duration;

/// Deterministic pseudo-random binary relation with `rows` tuples over a
/// domain of `rows / 4` values (so joins have real fan-out).
fn rel(rows: usize, salt: u64) -> Relation {
    let domain = (rows / 4).max(4) as u64;
    Relation::from_rows(
        2,
        (0..rows as u64).map(|i| {
            let x = (i.wrapping_mul(6364136223846793005).wrapping_add(salt)) % domain;
            let y = (i
                .wrapping_mul(1442695040888963407)
                .wrapping_add(salt ^ 0xabcd))
                % domain;
            [x as u32, y as u32]
        }),
    )
}

fn print_series() {
    println!("\nA1: equi-join algorithms (R ⋈ S on R.1 = S.0)");
    print_header(&["rows/side", "out rows", "t(sort-merge)", "t(nested loop)"]);
    for rows in [64usize, 256, 1024, 4096] {
        let left = rel(rows, 1);
        let right = rel(rows, 2);
        let keys = [(1usize, 0usize)];
        let (s, t_merge) = time_once(|| join(&left, &right, &keys, JoinAlgo::SortMerge));
        let t_nested = if rows <= 1024 {
            let (n, t) = time_once(|| join(&left, &right, &keys, JoinAlgo::NestedLoop));
            assert_eq!(s, n);
            fmt_duration(t)
        } else {
            "—".to_string()
        };
        print_row(&[
            rows.to_string(),
            s.len().to_string(),
            fmt_duration(t_merge),
            t_nested,
        ]);
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("a1_join_algos");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for rows in [256usize, 1024, 4096] {
        let left = rel(rows, 1);
        let right = rel(rows, 2);
        let keys = [(1usize, 0usize)];
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("sort_merge", rows), &rows, |b, _| {
            b.iter(|| join(&left, &right, &keys, JoinAlgo::SortMerge))
        });
        if rows <= 1024 {
            group.bench_with_input(BenchmarkId::new("nested_loop", rows), &rows, |b, _| {
                b.iter(|| join(&left, &right, &keys, JoinAlgo::NestedLoop))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

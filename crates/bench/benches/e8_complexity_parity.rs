//! E8 — Theorem 14: the approximation costs what physical evaluation
//! costs.
//!
//! Series: the same query evaluated (a) on the plain physical database
//! `Ph₁(LB)` (the §2.1 semantics — the baseline), (b) approximately on
//! `Ph₂(LB)` by the engine's evaluator, and (c) approximately as a
//! relational-algebra plan run by `qld_algebra::execute` — as |C| grows
//! into the hundreds. All three are polynomial with a bounded constant
//! factor between them; exact evaluation is absent from this table
//! because it stopped being runnable two orders of magnitude earlier (see
//! E1/E4).
//!
//! (b) is `Engine::execute` on a query prepared once (so the
//! per-execution cost excludes the rewrite — the "execute many" half of
//! the prepared-query story); (c) compiles the same `Q̂` once through
//! `qld_bench::approx_plan`. A fourth column measures one-shot
//! `Engine::eval` to show what preparation amortizes away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qld_algebra::{execute, ExecOptions};
use qld_bench::{
    approx_plan, fmt_duration, print_header, print_row, standard_db, standard_queries, time_once,
};
use qld_core::ph::ph1;
use qld_engine::{Engine, Semantics};
use qld_physical::eval_query;
use std::time::Duration;

const SIZES: [usize; 4] = [16, 32, 64, 128];

fn engine(db: &qld_core::CwDatabase) -> Engine {
    Engine::builder(db.clone())
        .semantics(Semantics::Approx)
        // Measure the evaluation, not answer-cache hits.
        .answer_cache(false)
        .build()
}

fn print_series() {
    println!("\nE8: approximation vs physical evaluation (query: negation mix)");
    print_header(&[
        "|C|",
        "t(physical)",
        "t(approx naive)",
        "t(approx algebra)",
        "t(one-shot)",
    ]);
    for n in SIZES {
        let db = standard_db(n, 9);
        let physical = ph1(&db);
        let queries = standard_queries(&db);
        let (_, q) = &queries[1];
        let (_, t_phys) = time_once(|| eval_query(&physical, q));
        let naive = engine(&db);
        let pn = naive.prepare(q.clone()).unwrap();
        let plan = approx_plan(&naive, &pn);
        let ph2 = naive.approx_engine().extended_db();
        let (a, t_naive) = time_once(|| naive.execute(&pn).unwrap());
        let (b, t_algebra) = time_once(|| execute(ph2, &plan, ExecOptions::default()));
        assert_eq!(*a.tuples(), b);
        // One-shot: parse-free but re-prepares (rewrite) every time — the
        // cost PreparedQuery amortizes.
        let (_, t_oneshot) = time_once(|| naive.eval(q).unwrap());
        print_row(&[
            n.to_string(),
            fmt_duration(t_phys),
            fmt_duration(t_naive),
            fmt_duration(t_algebra),
            fmt_duration(t_oneshot),
        ]);
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e8_complexity_parity");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for n in SIZES {
        let db = standard_db(n, 9);
        let physical = ph1(&db);
        let queries = standard_queries(&db);
        let (_, q) = &queries[1];
        let naive = engine(&db);
        let pn = naive.prepare(q.clone()).unwrap();
        let plan = approx_plan(&naive, &pn);
        let ph2 = naive.approx_engine().extended_db();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("physical", n), &n, |b, _| {
            b.iter(|| eval_query(&physical, q))
        });
        group.bench_with_input(BenchmarkId::new("approx_naive", n), &n, |b, _| {
            b.iter(|| naive.execute(&pn).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("approx_algebra", n), &n, |b, _| {
            b.iter(|| execute(ph2, &plan, ExecOptions::default()))
        });
        group.bench_with_input(BenchmarkId::new("prepare", n), &n, |b, _| {
            b.iter(|| naive.prepare(q.clone()).unwrap())
        });
        // Engine construction (α_P materialization + NE) is polynomial
        // set-up cost; measure it separately so query-time parity is
        // visible. `approx_engine()` forces the lazy build.
        group.bench_with_input(BenchmarkId::new("engine_build", n), &n, |b, _| {
            b.iter(|| {
                let e = Engine::new(db.clone());
                e.approx_engine().extended_db().num_relations()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

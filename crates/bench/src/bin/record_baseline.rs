//! `record_baseline` — runs the headline workloads (E1 exact enumeration,
//! E7 approximation, E8 polynomial parity, E10 parallel scaling, E11 batch
//! amortization, E12 incremental deltas, E13 in-process concurrent
//! serving, E14 the same load over loopback TCP, E15 WAL append overhead
//! and recovery replay, E16 replication catch-up, lag, and replica
//! reads, E17 free-null decomposition) once each and writes the
//! measurements to a JSON
//! file, so the repository carries a recorded perf trajectory instead of
//! folklore.
//!
//! ```text
//! record_baseline [--out BENCH_baseline.json] [--smoke]
//! ```
//!
//! `--smoke` shrinks every workload (CI uses it to prove the recorder
//! itself works without paying the full enumeration). The committed
//! `BENCH_baseline.json` at the workspace root is produced by a plain run;
//! future perf PRs re-run it and diff.

use qld_bench::{
    approx_plan, batch_queries, concurrent_load, fresh_facts, high_null_db, replication_load,
    scaling_query, socket_load, sparse_null_db, standard_db, standard_queries, time_once,
};
use qld_core::mappings::count_kernel_mappings;
use qld_engine::{
    Delta, DiskStorage, DurabilityConfig, Engine, FsyncPolicy, Semantics, SharedEngine, WalConfig,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// One measured workload.
struct Entry {
    workload: &'static str,
    threads: usize,
    wall: Duration,
    /// Mappings enumerated (0 for the polynomial regimes).
    mappings: u64,
}

impl Entry {
    fn mappings_per_sec(&self) -> f64 {
        if self.mappings == 0 {
            0.0
        } else {
            self.mappings as f64 / self.wall.as_secs_f64()
        }
    }
}

fn exact_engine(db: &qld_core::CwDatabase, threads: usize) -> Engine {
    Engine::builder(db.clone())
        .semantics(Semantics::Exact)
        .corollary2_fast_path(false)
        .parallelism(threads)
        .build()
}

fn run_workloads(smoke: bool) -> Vec<Entry> {
    let mut entries = Vec::new();

    // E1: exact certain answers by the Theorem 1 walk (join query).
    let n = if smoke { 5 } else { 6 };
    let db = standard_db(n, 42);
    let queries = standard_queries(&db);
    let (_, join) = &queries[0];
    let engine = exact_engine(&db, 1);
    let prepared = engine.prepare(join.clone()).unwrap();
    let (ans, wall) = time_once(|| engine.execute(&prepared).unwrap());
    entries.push(Entry {
        workload: "e1_theorem1_kernels",
        threads: 1,
        wall,
        mappings: ans.evidence().mappings_evaluated,
    });

    // E7: the §5 approximation on the same database (negation query —
    // the class where approximation is the only polynomial option).
    let (_, negation) = &queries[1];
    let approx = Engine::builder(db.clone())
        .semantics(Semantics::Approx)
        .build();
    let prepared = approx.prepare(negation.clone()).unwrap();
    let (_, wall) = time_once(|| approx.execute(&prepared).unwrap());
    entries.push(Entry {
        workload: "e7_approx_negation",
        threads: 1,
        wall,
        mappings: 0,
    });

    // E8: polynomial parity at a size exact evaluation cannot touch.
    let big = standard_db(if smoke { 32 } else { 64 }, 9);
    let big_queries = standard_queries(&big);
    let (_, big_negation) = &big_queries[1];
    let engine = Engine::builder(big.clone())
        .semantics(Semantics::Approx)
        .build();
    let prepared = engine.prepare(big_negation.clone()).unwrap();
    let plan = approx_plan(&engine, &prepared);
    let ph2 = engine.approx_engine().extended_db();
    let (_, naive) = time_once(|| engine.execute(&prepared).unwrap());
    let (_, algebra) =
        time_once(|| qld_algebra::execute(ph2, &plan, qld_algebra::ExecOptions::default()));
    for (workload, wall) in [("e8_parity_naive", naive), ("e8_parity_algebra", algebra)] {
        entries.push(Entry {
            workload,
            threads: 1,
            wall,
            mappings: 0,
        });
    }

    // E10: parallel kernel enumeration at high null density — the thread
    // sweep this PR's speedup claims are measured against.
    let dense = high_null_db(if smoke { 7 } else { 8 }, 42);
    let q = scaling_query(&dense);
    let sweep: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut reference: Option<qld_physical::Relation> = None;
    for &threads in sweep {
        let engine = exact_engine(&dense, threads);
        let prepared = engine.prepare(q.clone()).unwrap();
        let (ans, wall) = time_once(|| engine.execute(&prepared).unwrap());
        match &reference {
            None => reference = Some(ans.tuples().clone()),
            Some(rel) => assert_eq!(
                ans.tuples(),
                rel,
                "parallel run diverged at {threads} threads"
            ),
        }
        entries.push(Entry {
            workload: "e10_parallel_scaling",
            threads,
            wall,
            mappings: ans.evidence().mappings_evaluated,
        });
    }

    // E11: batch amortization — N Theorem-1-bound queries as N sequential
    // executes vs one execute_batch sharing a single enumeration. The
    // workload names encode the batch size; the amortization factor at
    // each size is sequential wall / batched wall.
    let dense = high_null_db(if smoke { 7 } else { 8 }, 42);
    let sizes: &[(usize, &'static str, &'static str)] = if smoke {
        &[
            (1, "e11_batch_sequential_x1", "e11_batch_batched_x1"),
            (4, "e11_batch_sequential_x4", "e11_batch_batched_x4"),
        ]
    } else {
        &[
            (1, "e11_batch_sequential_x1", "e11_batch_batched_x1"),
            (4, "e11_batch_sequential_x4", "e11_batch_batched_x4"),
            (16, "e11_batch_sequential_x16", "e11_batch_batched_x16"),
        ]
    };
    for &(size, seq_name, batch_name) in sizes {
        let engine = Engine::builder(dense.clone())
            .semantics(Semantics::Exact)
            .corollary2_fast_path(false)
            .answer_cache(false)
            .parallelism(1)
            .build();
        let prepared: Vec<_> = batch_queries(&dense, size)
            .iter()
            .map(|q| engine.prepare(q.clone()).unwrap())
            .collect();
        let run_sequential = || -> Vec<qld_engine::Answers> {
            prepared
                .iter()
                .map(|p| engine.execute(p).unwrap())
                .collect()
        };
        // Warm up both paths: the baseline records steady-state walls.
        run_sequential();
        engine.execute_batch(&prepared).unwrap();
        let (seq_answers, seq_wall) = time_once(run_sequential);
        let (batch_answers, batch_wall) = time_once(|| engine.execute_batch(&prepared).unwrap());
        for (s, b) in seq_answers.iter().zip(batch_answers.iter()) {
            assert_eq!(s.tuples(), b.tuples(), "batch diverged at size {size}");
        }
        // Sequential re-execution pays the enumeration per query; the
        // batch pays it once.
        let per_query = seq_answers[0].evidence().mappings_evaluated;
        entries.push(Entry {
            workload: seq_name,
            threads: 1,
            wall: seq_wall,
            mappings: per_query * size as u64,
        });
        assert_eq!(batch_answers[0].evidence().mappings_evaluated, per_query);
        entries.push(Entry {
            workload: batch_name,
            threads: 1,
            wall: batch_wall,
            mappings: per_query,
        });
    }

    // E12: incremental delta maintenance — K update-then-query
    // transactions through `Engine::apply` on one live engine vs an
    // engine rebuild per update, on the high-null workload. The query is
    // the standard negation (its footprint overlaps every update, so the
    // delta path re-evaluates honestly each step); answers are asserted
    // bit-identical per transaction. The acceptance target is the delta
    // path ≥ 5× faster at 64 updates.
    let base = high_null_db(if smoke { 10 } else { 24 }, 42);
    let query =
        qld_logic::parser::parse_query(base.voc(), "(x) . P1(x) & !P0(x, x)").expect("E12 query");
    let approx_engine = |db: qld_core::CwDatabase| {
        Engine::builder(db)
            .semantics(Semantics::Approx)
            .parallelism(1)
            .build()
    };
    let sizes: &[(usize, &'static str, &'static str)] = if smoke {
        &[
            (1, "e12_rebuild_x1", "e12_delta_x1"),
            (8, "e12_rebuild_x8", "e12_delta_x8"),
        ]
    } else {
        &[
            (1, "e12_rebuild_x1", "e12_delta_x1"),
            (8, "e12_rebuild_x8", "e12_delta_x8"),
            (64, "e12_rebuild_x64", "e12_delta_x64"),
        ]
    };
    for &(k, rebuild_name, delta_name) in sizes {
        let facts = fresh_facts(&base, k, 7);
        let (rebuilt, rebuild_wall) = time_once(|| {
            let mut db = base.clone();
            let mut answers = Vec::with_capacity(k);
            for (p, args) in &facts {
                db.insert_fact(*p, args).unwrap();
                let engine = approx_engine(db.clone());
                let prepared = engine.prepare(query.clone()).unwrap();
                answers.push(engine.execute(&prepared).unwrap());
            }
            answers
        });
        // The live engine (structures built, cache warm) is the state the
        // delta path maintains; its construction is amortized over the
        // engine's life and excluded, like every steady-state baseline.
        let mut engine = approx_engine(base.clone());
        let prepared = engine.prepare(query.clone()).unwrap();
        engine.execute(&prepared).unwrap();
        let (incremental, delta_wall) = time_once(|| {
            let mut answers = Vec::with_capacity(k);
            for (p, args) in &facts {
                engine.apply(&Delta::new().insert_fact(*p, args)).unwrap();
                answers.push(engine.execute(&prepared).unwrap());
            }
            answers
        });
        for (step, (r, d)) in rebuilt.iter().zip(incremental.iter()).enumerate() {
            assert_eq!(
                r.tuples(),
                d.tuples(),
                "delta path diverged from rebuild at update {step} (K = {k})"
            );
        }
        entries.push(Entry {
            workload: rebuild_name,
            threads: 1,
            wall: rebuild_wall,
            mappings: 0,
        });
        entries.push(Entry {
            workload: delta_name,
            threads: 1,
            wall: delta_wall,
            mappings: 0,
        });
    }

    // E13: concurrent serving — N reader sessions against one
    // delta-publishing writer on a `SharedEngine` (the serving
    // configuration: `Auto` semantics, shared epoch-keyed cache on).
    // Three entries per session count: read p50, read p99 (`wall_ms` is
    // the latency, `threads` the session count), and the writer's wall
    // for the whole delta stream (`mappings` holds the delta count, so
    // `mappings_per_sec` is the writer throughput in deltas/s).
    let serve_db = standard_db(if smoke { 8 } else { 16 }, 42);
    let (reads, delta_count) = if smoke { (40, 8) } else { (200, 64) };
    let session_sweep: &[usize] = if smoke { &[2] } else { &[4, 8] };
    for &sessions in session_sweep {
        let report = concurrent_load(&serve_db, sessions, reads, delta_count, 7);
        let (p50_name, p99_name, writer_name): (&'static str, &'static str, &'static str) =
            match sessions {
                2 => ("e13_read_p50_s2", "e13_read_p99_s2", "e13_writer_s2"),
                4 => ("e13_read_p50_s4", "e13_read_p99_s4", "e13_writer_s4"),
                _ => ("e13_read_p50_s8", "e13_read_p99_s8", "e13_writer_s8"),
            };
        entries.push(Entry {
            workload: p50_name,
            threads: sessions,
            wall: report.read_p50,
            mappings: 0,
        });
        entries.push(Entry {
            workload: p99_name,
            threads: sessions,
            wall: report.read_p99,
            mappings: 0,
        });
        entries.push(Entry {
            workload: writer_name,
            threads: sessions,
            wall: report.writer_wall,
            mappings: report.deltas as u64,
        });
    }

    // E14: the E13 workload over real loopback TCP through the network
    // front-end — same query mix, same delta stream, but every read is a
    // `Client::request` round-trip and every delta an `:insert` script
    // line. The E14 − E13 gap at matching session counts is the protocol
    // and kernel cost of serving over sockets.
    for &sessions in session_sweep {
        let report = socket_load(&serve_db, sessions, reads, delta_count, 7);
        let (p50_name, p99_name, writer_name): (&'static str, &'static str, &'static str) =
            match sessions {
                2 => ("e14_read_p50_s2", "e14_read_p99_s2", "e14_writer_s2"),
                4 => ("e14_read_p50_s4", "e14_read_p99_s4", "e14_writer_s4"),
                _ => ("e14_read_p50_s8", "e14_read_p99_s8", "e14_writer_s8"),
            };
        entries.push(Entry {
            workload: p50_name,
            threads: sessions,
            wall: report.read_p50,
            mappings: 0,
        });
        entries.push(Entry {
            workload: p99_name,
            threads: sessions,
            wall: report.read_p99,
            mappings: 0,
        });
        entries.push(Entry {
            workload: writer_name,
            threads: sessions,
            wall: report.writer_wall,
            mappings: report.deltas as u64,
        });
    }

    // E15: durability — what the WAL costs the writer path and what
    // recovery costs by replay length, on real files. Writer entries
    // apply the same delta stream through a `SharedEngine` with no WAL,
    // with a WAL fsyncing every record, and with a WAL that never
    // fsyncs (`mappings` holds the delta count, so `mappings_per_sec`
    // is writer throughput in deltas/s; the off/fsync gap is the full
    // durability overhead, the off/nofsync gap the pure append cost).
    // Recovery entries seed a WAL, log N deltas with checkpoints off,
    // and time `SharedEngine::recover_with` replaying all N.
    let wal_db = high_null_db(if smoke { 12 } else { 32 }, 42);
    let wal_deltas = if smoke { 16 } else { 256 };
    let wal_facts = fresh_facts(&wal_db, wal_deltas, 7);
    let wal_root = std::env::temp_dir().join(format!("qld_e15_wal_{}", std::process::id()));
    let wal_config = |fsync| DurabilityConfig {
        wal: WalConfig {
            fsync,
            ..WalConfig::default()
        },
        checkpoint_every: 0,
    };
    for (workload, fsync) in [
        ("e15_wal_off_writer", None),
        ("e15_wal_fsync_writer", Some(FsyncPolicy::Always)),
        ("e15_wal_nofsync_writer", Some(FsyncPolicy::Never)),
    ] {
        let engine = Engine::builder(wal_db.clone()).parallelism(1).build();
        let shared = match fsync {
            None => SharedEngine::new(engine),
            Some(policy) => {
                let _ = std::fs::remove_dir_all(&wal_root);
                let storage = DiskStorage::open(&wal_root).expect("E15 WAL directory");
                SharedEngine::durable(engine, Box::new(storage), wal_config(policy))
                    .expect("E15 seed")
            }
        };
        let (_, wall) = time_once(|| {
            for (p, args) in &wal_facts {
                shared.apply(&Delta::new().insert_fact(*p, args)).unwrap();
            }
        });
        if let Some(stats) = shared.wal_stats() {
            assert_eq!(stats.records_appended, wal_deltas as u64, "{workload}");
        }
        entries.push(Entry {
            workload,
            threads: 1,
            wall,
            mappings: wal_deltas as u64,
        });
    }
    let recover_sizes: &[(usize, &'static str)] = if smoke {
        &[(16, "e15_recover_x16"), (64, "e15_recover_x64")]
    } else {
        &[(64, "e15_recover_x64"), (512, "e15_recover_x512")]
    };
    for &(k, workload) in recover_sizes {
        let facts = fresh_facts(&wal_db, k, 7);
        let _ = std::fs::remove_dir_all(&wal_root);
        let storage = DiskStorage::open(&wal_root).expect("E15 WAL directory");
        let shared = SharedEngine::durable(
            Engine::builder(wal_db.clone()).parallelism(1).build(),
            Box::new(storage),
            wal_config(FsyncPolicy::Never),
        )
        .expect("E15 seed");
        for (p, args) in &facts {
            shared.apply(&Delta::new().insert_fact(*p, args)).unwrap();
        }
        drop(shared);
        let ((_, report), wall) = time_once(|| {
            SharedEngine::recover_with(
                Box::new(DiskStorage::open(&wal_root).expect("E15 reopen")),
                wal_config(FsyncPolicy::Never),
                |db| Engine::builder(db).parallelism(1).build(),
            )
            .expect("E15 recovery")
        });
        assert_eq!(report.records_replayed, k as u64, "{workload}");
        entries.push(Entry {
            workload,
            threads: 1,
            wall,
            mappings: k as u64,
        });
    }
    let _ = std::fs::remove_dir_all(&wal_root);

    // E16: replication — a fresh follower bootstraps through the feed
    // over loopback TCP, then applies the primary's delta stream while
    // reader threads hammer the replica. `e16_catchup` holds the record
    // count in `mappings`, so `mappings_per_sec` is follower catch-up
    // throughput in records/s; the lag entries store epochs of lag in
    // `mappings` (sampled every millisecond over the streaming window);
    // the read entries are replica read-latency percentiles to set next
    // to the E13 (in-process) and E14 (socket) series.
    let repl_sessions = if smoke { 2 } else { 4 };
    let report = replication_load(&serve_db, repl_sessions, reads, delta_count, 7);
    entries.push(Entry {
        workload: "e16_catchup",
        threads: 1,
        wall: report.catchup_wall,
        mappings: report.deltas as u64,
    });
    entries.push(Entry {
        workload: "e16_lag_p50",
        threads: 1,
        wall: report.catchup_wall,
        mappings: report.lag_p50,
    });
    entries.push(Entry {
        workload: "e16_lag_max",
        threads: 1,
        wall: report.catchup_wall,
        mappings: report.lag_max,
    });
    entries.push(Entry {
        workload: "e16_read_p50",
        threads: repl_sessions,
        wall: report.read_p50,
        mappings: 0,
    });
    entries.push(Entry {
        workload: "e16_read_p99",
        threads: repl_sessions,
        wall: report.read_p99,
        mappings: 0,
    });

    // E17: free-null decomposition — the E1-style join workload with a
    // tail of free constants (in no fact, no uniqueness axiom). The walk
    // visits one canonical image per core kernel and null-block count;
    // `mappings` records those visited images, and the evidence accounts
    // for the rest of the kernel space.
    let (e17_core, e17_free) = if smoke { (5, 2) } else { (6, 4) };
    let sparse = sparse_null_db(e17_core, e17_free, 42);
    let engine = exact_engine(&sparse, 1);
    let prepared = engine.prepare(scaling_query(&sparse)).unwrap();
    let (ans, wall) = time_once(|| engine.execute(&prepared).unwrap());
    let visited = ans.evidence().mappings_evaluated;
    let kernels = count_kernel_mappings(&sparse);
    assert_eq!(
        visited + ans.evidence().mappings_pruned,
        kernels,
        "evaluated + pruned must cover the kernel space"
    );
    if !smoke {
        assert!(
            kernels >= 10 * visited,
            "expected ≥10× fewer visited images than kernels: {visited} vs {kernels}"
        );
    }
    entries.push(Entry {
        workload: "e17_decomposed",
        threads: 1,
        wall,
        mappings: visited,
    });

    entries
}

fn to_json(entries: &[Entry]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let recorded_at = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"recorded_at_unix\": {recorded_at},");
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"threads\": {}, \"wall_ms\": {:.6}, \
             \"mappings\": {}, \"mappings_per_sec\": {:.0}}}",
            e.workload,
            e.threads,
            e.wall.as_secs_f64() * 1e3,
            e.mappings,
            e.mappings_per_sec(),
        );
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_baseline.json");
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" | "-o" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--smoke" => smoke = true,
            "-h" | "--help" => {
                println!("usage: record_baseline [--out BENCH_baseline.json] [--smoke]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let entries = run_workloads(smoke);
    println!(
        "{:<24} {:>7} {:>12} {:>10} {:>14}",
        "workload", "threads", "wall_ms", "mappings", "mappings/s"
    );
    for e in &entries {
        println!(
            "{:<24} {:>7} {:>12.3} {:>10} {:>14.0}",
            e.workload,
            e.threads,
            e.wall.as_secs_f64() * 1e3,
            e.mappings,
            e.mappings_per_sec()
        );
    }
    let json = to_json(&entries);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nbaseline written to {out_path}");
    ExitCode::SUCCESS
}

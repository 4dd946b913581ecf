//! The per-layer probes of a traced run: each times one layer's public
//! call on the workload's own inputs and reports a mean (over the fastest
//! of six rounds) — or a count, which must repeat exactly. Names follow the crate and module names.
//!
//! The Theorem 1 probes (`core.mappings.*`, `core.exact.*`) always run on
//! a 6-constant high-null database: an enumeration over a serving-sized
//! database does not finish.

use super::inputs::{batch_texts, fresh_facts, parse, NEGATION_FULL, SCALING, UNIVERSAL_FULL};
use super::stats::{median, percentile_sorted, Floor, Sample};
use super::workloads::serving_engine;
use super::{Metric, RunConfig};
use qld_algebra::{compile_query_ordered, execute, optimize, ExecOptions};
use qld_approx::{AlphaMode, ApproxEngine};
use qld_core::exact::{certain_answers_batch_with, certain_answers_with, ExactOptions};
use qld_core::mappings::{count_kernel_mappings, for_each_kernel_mapping, ParallelConfig};
use qld_core::ph::ph1;
use qld_core::textio::{from_text, to_text};
use qld_core::CwDatabase;
use qld_engine::{
    Delta, DiskStorage, DurabilityConfig, Engine, MemStorage, SharedEngine, WalConfig, WalRecord,
};
use qld_logic::parser::parse_query;
use qld_logic::Query;
use qld_physical::eval_query;
use qld_server::{proto, script, Client, Server, ServerConfig};
use qld_wal::Wal;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// What the probes run on.
#[derive(Debug, Clone)]
pub struct ProbeInputs {
    /// The workload's database.
    pub db: CwDatabase,
    /// A 6-constant high-null database for the Theorem 1 probes (the
    /// workload's own for `exact_scan`).
    pub exact_db: CwDatabase,
    /// The query texts the workload reads.
    pub texts: Vec<String>,
}

/// Time each probe may spend looping.
struct Budget {
    per_probe: Duration,
    max_calls: usize,
}

/// Rounds a probe's budget is split into; the fastest round is reported.
const ROUNDS: u32 = 6;

impl Budget {
    /// Seconds per call of `call(i)`, for `i = 0, 1, …` until the budget
    /// or `limit` calls are used up (at least one call): the mean over
    /// the fastest of [`ROUNDS`] rounds — what the host adds to a round
    /// is never negative (see `stats::Floor`).
    fn mean(&self, limit: usize, mut call: impl FnMut(usize)) -> f64 {
        let limit = limit.clamp(1, self.max_calls);
        let mut calls = 0;
        let mut fastest = f64::MAX;
        for _ in 0..ROUNDS {
            let start = Instant::now();
            let before = calls;
            while calls < limit {
                call(calls);
                calls += 1;
                if start.elapsed() >= self.per_probe / ROUNDS {
                    break;
                }
            }
            if calls > before {
                fastest = fastest.min(start.elapsed().as_secs_f64() / (calls - before) as f64);
            }
        }
        fastest
    }

    /// [`Budget::mean`] without a call limit of its own.
    fn mean_unbounded(&self, call: impl FnMut(usize)) -> f64 {
        self.mean(usize::MAX, call)
    }
}

fn push(out: &mut Vec<Metric>, name: &str, unit: &'static str, value: f64) {
    out.push(Metric::single(name, unit, value));
}

/// Runs every probe; the order of the result is the order of the
/// per-layer table in the README.
pub fn probe(inputs: &ProbeInputs, config: &RunConfig) -> Vec<Metric> {
    let budget = if config.smoke {
        Budget {
            per_probe: Duration::from_millis(2),
            max_calls: 50,
        }
    } else {
        Budget {
            per_probe: Duration::from_millis(120),
            max_calls: 100_000,
        }
    };
    let db = &inputs.db;
    let queries: Vec<Query> = inputs.texts.iter().map(|t| parse(db, t)).collect();
    let n = queries.len();
    let facts = fresh_facts(
        db,
        (db.num_consts() * db.num_consts() / 2).min(2_000),
        config.seed,
    );
    let deltas: Vec<Delta> = facts
        .iter()
        .map(|(p, args)| Delta::new().insert_fact(*p, args))
        .collect();
    let mut out = Vec::new();

    // logic + engine, solo.
    let parse_s = budget.mean_unbounded(|i| {
        black_box(parse_query(db.voc(), &inputs.texts[i % n]).expect("parses"));
    });
    push(&mut out, "logic.parse_us", "us", parse_s * 1e6);
    let build_s = budget.mean_unbounded(|_| {
        black_box(serving_engine(db.clone()));
    });
    push(&mut out, "engine.build_ms", "ms", build_s * 1e3);
    let engine = serving_engine(db.clone());
    engine.set_cache_enabled(false);
    let prepared: Vec<_> = queries
        .iter()
        .map(|q| engine.prepare(q.clone()).expect("prepares"))
        .collect();
    let prepare_s = budget.mean_unbounded(|i| {
        black_box(engine.prepare(queries[i % n].clone()).expect("prepares"));
    });
    push(&mut out, "engine.prepare_us", "us", prepare_s * 1e6);
    {
        // A bare engine, as the shared writer holds it: no `Ph₁`, no
        // approximation built.
        let mut writer = serving_engine(db.clone());
        // Cloned before it grows: what a publish copies at the start of a
        // pass.
        let clone_s = budget.mean_unbounded(|_| {
            black_box(writer.clone());
        });
        let apply_s = budget.mean(deltas.len(), |i| {
            black_box(writer.apply(&deltas[i]).expect("applies"));
        });
        push(&mut out, "engine.apply_us", "us", apply_s * 1e6);
        push(&mut out, "engine.clone_us", "us", clone_s * 1e6);
    }
    let miss_s = budget.mean_unbounded(|i| {
        black_box(engine.execute(&prepared[i % n]).expect("executes"));
    });
    push(&mut out, "engine.execute_miss_us", "us", miss_s * 1e6);
    engine.set_cache_enabled(true);
    for p in &prepared {
        engine.execute(p).expect("executes");
    }
    let hit_block_s = budget.mean_unbounded(|_| {
        for i in 0..1_000 {
            black_box(engine.execute(&prepared[i % n]).expect("hits"));
        }
    });
    push(&mut out, "engine.cache_hit_ns", "ns", hit_block_s * 1e6);

    probe_exact(&inputs.exact_db, &budget, &mut out);

    // core::textio + physical.
    let text = to_text(db);
    let to_text_s = budget.mean_unbounded(|_| {
        black_box(to_text(db));
    });
    push(&mut out, "core.textio.to_text_ms", "ms", to_text_s * 1e3);
    let from_text_s = budget.mean_unbounded(|_| {
        black_box(from_text(&text).expect("round-trips"));
    });
    push(
        &mut out,
        "core.textio.from_text_ms",
        "ms",
        from_text_s * 1e3,
    );
    let ph1_db = ph1(db);
    let eval_s = budget.mean_unbounded(|i| {
        black_box(eval_query(&ph1_db, &queries[i % n]));
    });
    push(&mut out, "physical.eval_query_us", "us", eval_s * 1e6);
    let p0 = facts[0].0;
    let insert_block_s = budget.mean_unbounded(|_| {
        let mut relation = db.facts(p0).clone();
        for (_, [a, b]) in &facts {
            black_box(relation.insert(&[a.0, b.0]));
        }
    });
    push(
        &mut out,
        "physical.relation_insert_ns",
        "ns",
        insert_block_s * 1e9 / facts.len() as f64,
    );

    // approx + algebra.
    let build_s = budget.mean_unbounded(|_| {
        black_box(ApproxEngine::new(db));
    });
    push(&mut out, "approx.build_ms", "ms", build_s * 1e3);
    let approx = ApproxEngine::new(db);
    {
        let mut grown_db = db.clone();
        let mut grown = approx.clone();
        let mut spent = Duration::ZERO;
        let mut calls = 0;
        for (p, args) in &facts {
            grown_db.insert_fact(*p, args).expect("fresh fact");
            let new_fact = [(*p, args.iter().map(|c| c.0).collect::<Box<[u32]>>())];
            let timer = Instant::now();
            grown.apply_delta(&grown_db, &new_fact, &[]);
            spent += timer.elapsed();
            calls += 1;
            if spent >= budget.per_probe || calls >= budget.max_calls {
                break;
            }
        }
        push(
            &mut out,
            "approx.apply_delta_us",
            "us",
            spent.as_secs_f64() * 1e6 / calls as f64,
        );
    }
    let rewrite_s = budget.mean_unbounded(|i| {
        black_box(
            approx
                .rewrite(&queries[i % n], AlphaMode::Materialized)
                .expect("rewrites"),
        );
    });
    push(&mut out, "approx.rewrite_us", "us", rewrite_s * 1e6);
    let eval_s = budget.mean_unbounded(|i| {
        black_box(approx.eval(&queries[i % n]).expect("evaluates"));
    });
    push(&mut out, "approx.eval_us", "us", eval_s * 1e6);
    let rewritten: Vec<Query> = queries
        .iter()
        .map(|q| {
            approx
                .rewrite(q, AlphaMode::Materialized)
                .expect("rewrites")
        })
        .filter(Query::is_first_order)
        .collect();
    let compile = |q: &Query| {
        let plan = compile_query_ordered(approx.extended_voc(), approx.extended_db(), q)
            .expect("first-order rewrite compiles");
        optimize(approx.extended_voc(), plan)
    };
    let compile_s = budget.mean_unbounded(|i| {
        black_box(compile(&rewritten[i % rewritten.len()]));
    });
    push(&mut out, "algebra.compile_us", "us", compile_s * 1e6);
    let plans: Vec<_> = rewritten.iter().map(compile).collect();
    let execute_s = budget.mean_unbounded(|i| {
        black_box(execute(
            approx.extended_db(),
            &plans[i % plans.len()],
            ExecOptions::default(),
        ));
    });
    push(&mut out, "algebra.execute_us", "us", execute_s * 1e6);

    probe_concurrent(db, &inputs.texts, &deltas, &budget, &mut out);
    probe_wal(db, &deltas, &facts, config, &budget, &mut out);
    probe_server(db, &inputs.texts, &engine, &prepared, &budget, &mut out);
    out
}

/// `core::mappings` and `core::exact` on the 6-constant database.
fn probe_exact(db: &CwDatabase, budget: &Budget, out: &mut Vec<Metric>) {
    let kernels = count_kernel_mappings(db);
    let walk_s = budget.mean_unbounded(|_| {
        let mut visited = 0u64;
        for_each_kernel_mapping(db, |h| {
            visited += 1;
            black_box(h);
            true
        });
        assert_eq!(visited, kernels, "closed-form count ≠ walk");
    });
    push(out, "core.mappings.kernel_count", "count", kernels as f64);
    push(
        out,
        "core.mappings.kernels_per_s",
        "1/s",
        kernels as f64 / walk_s,
    );

    let opts = ExactOptions {
        corollary2_fast_path: false,
        parallel: ParallelConfig::sequential(),
        ..ExactOptions::new()
    };
    let solo: Vec<Query> = [NEGATION_FULL, UNIVERSAL_FULL, SCALING]
        .iter()
        .map(|t| parse(db, t))
        .collect();
    let mut images = 0;
    for q in &solo {
        let (_, stats) = certain_answers_with(db, q, opts).expect("exact query evaluates");
        images += stats.mappings_evaluated;
    }
    let solo_s = budget.mean_unbounded(|i| {
        black_box(certain_answers_with(db, &solo[i % solo.len()], opts).expect("evaluates"));
    });
    push(out, "core.exact.solo_us", "us", solo_s * 1e6);
    push(out, "core.exact.mappings_evaluated", "count", images as f64);
    push(
        out,
        "core.exact.images_per_s",
        "1/s",
        images as f64 / solo.len() as f64 / solo_s,
    );
    let batch: Vec<Query> = batch_texts(db, 16).iter().map(|t| parse(db, t)).collect();
    let batch_s = budget.mean_unbounded(|_| {
        black_box(certain_answers_batch_with(db, &batch, opts).expect("evaluates"));
    });
    push(out, "core.exact.batch16_us", "us", batch_s * 1e6);
}

/// `engine::concurrent` without a log: publish cost, and reads by class.
fn probe_concurrent(
    db: &CwDatabase,
    texts: &[String],
    deltas: &[Delta],
    budget: &Budget,
    out: &mut Vec<Metric>,
) {
    // Fresh engines over and over, a few writes into each, so every
    // sample is taken on a database of the workload's size (the clone a
    // publish makes and the approximation a first read builds both grow
    // with the fact count). `concurrent.apply_us` is the mean over the
    // per-write floor of the repeats (see `stats::Floor`).
    let writes = deltas.len().min(8);
    let mut apply_ns = Vec::new();
    let mut apply_floor = Floor::default();
    let started = Instant::now();
    loop {
        let shared = SharedEngine::new(serving_engine(db.clone()));
        let repeat: Vec<Sample> = deltas[..writes]
            .iter()
            .map(|delta| {
                let timer = Instant::now();
                shared.apply(delta).expect("applies");
                let ns = timer.elapsed().as_nanos() as u64;
                Sample { class: 0, ns }
            })
            .collect();
        apply_ns.extend(repeat.iter().map(|s| s.ns));
        apply_floor.fold(&repeat);
        if started.elapsed() >= budget.per_probe || apply_ns.len() >= budget.max_calls {
            break;
        }
    }
    apply_ns.sort_unstable();
    push(
        out,
        "concurrent.apply_us",
        "us",
        apply_floor.total_s() * 1e6 / writes as f64,
    );
    push(
        out,
        "concurrent.write_p50_us",
        "us",
        percentile_sorted(&apply_ns, 50.0) as f64 / 1e3,
    );
    push(
        out,
        "concurrent.write_p99_us",
        "us",
        percentile_sorted(&apply_ns, 99.0) as f64 / 1e3,
    );

    // After a publish: the first read pays the snapshot's approximation
    // build, the other texts miss, and a second round hits. Medians: one
    // read caught by the host would carry a mean of a few.
    let (mut first, mut miss, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let shared = SharedEngine::new(serving_engine(db.clone()));
        let mut session = shared.session();
        let prepared: Vec<_> = texts
            .iter()
            .map(|t| session.prepare_text(t).expect("prepares"))
            .collect();
        shared.apply(&deltas[0]).expect("applies");
        for round in 0..2 {
            for (q, p) in prepared.iter().enumerate() {
                let timer = Instant::now();
                let answers = session.execute(p).expect("executes");
                let us = timer.elapsed().as_secs_f64() * 1e6;
                match (round, q) {
                    (0, 0) => first.push(us),
                    (0, _) => miss.push(us),
                    _ => {
                        assert!(answers.evidence().cache_hit, "second round hits");
                        hit.push(us);
                    }
                }
            }
        }
        if started.elapsed() >= budget.per_probe || first.len() >= budget.max_calls {
            break;
        }
    }
    push(out, "concurrent.first_read_us", "us", median(&first));
    push(out, "concurrent.miss_us", "us", median(&miss));
    push(out, "concurrent.hit_us", "us", median(&hit));
}

/// `qld_wal` on memory and disk, and `engine::durable` on top of it,
/// under the default `FsyncPolicy::Always`.
fn probe_wal(
    db: &CwDatabase,
    deltas: &[Delta],
    facts: &[(qld_logic::PredId, [qld_logic::ConstId; 2])],
    config: &RunConfig,
    budget: &Budget,
    out: &mut Vec<Metric>,
) {
    let records: Vec<WalRecord> = facts
        .iter()
        .enumerate()
        .map(|(i, (p, args))| WalRecord {
            epoch: i as u64 + 1,
            facts: vec![(p.0, args.iter().map(|c| c.0).collect())],
            ne_pairs: Vec::new(),
        })
        .collect();
    let encode_s = budget.mean_unbounded(|i| {
        black_box(records[i % records.len()].encode_frame());
    });
    push(out, "wal.encode_ns", "ns", encode_s * 1e9);

    let (mut mem, _) =
        Wal::open(Box::new(MemStorage::new()), WalConfig::default()).expect("memory log opens");
    let mem_s = budget.mean(records.len(), |i| {
        mem.append(&records[i]).expect("appends");
    });
    push(out, "wal.append_mem_us", "us", mem_s * 1e6);

    let dir = config.scratch.join("probe_wal");
    let disk = |dir: &Path| Box::new(DiskStorage::open(dir).expect("scratch directory opens"));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _) = Wal::open(disk(&dir), WalConfig::default()).expect("disk log opens");
    let disk_s = budget.mean(records.len(), |i| {
        wal.append(&records[i]).expect("appends");
    });
    push(out, "wal.append_disk_us", "us", disk_s * 1e6);
    let payload = to_text(db);
    let checkpoint_s = budget.mean(20, |i| {
        wal.checkpoint(records.len() as u64 + i as u64, 1, payload.as_bytes())
            .expect("checkpoints");
    });
    push(out, "wal.checkpoint_ms", "ms", checkpoint_s * 1e3);
    drop(wal);

    // A durable engine through one checkpoint and a tail of every − 1
    // records: the fixed write count makes the WalStats ratios counts.
    // (Capped by the fresh pairs a small database has left.)
    let every = (deltas.len() / 2).min(if config.smoke { 16 } else { 256 }) as u64;
    let durability = DurabilityConfig {
        checkpoint_every: every,
        ..DurabilityConfig::default()
    };
    let writes = 2 * every as usize - 1;
    let _ = std::fs::remove_dir_all(&dir);
    let shared = SharedEngine::durable(serving_engine(db.clone()), disk(&dir), durability)
        .expect("fresh log directory seeds");
    let start = Instant::now();
    for delta in &deltas[..writes] {
        shared.apply(delta).expect("applies");
    }
    let spent = start.elapsed().as_secs_f64();
    let stats = shared.wal_stats().expect("durable engine has a log");
    drop(shared);
    push(out, "durable.apply_us", "us", spent * 1e6 / writes as f64);
    push(
        out,
        "wal.fsyncs_per_write",
        "count",
        stats.fsyncs as f64 / writes as f64,
    );
    push(
        out,
        "wal.bytes_per_write",
        "count",
        stats.bytes_appended as f64 / writes as f64,
    );
    let open_runs: Vec<f64> = (0..3)
        .map(|_| {
            let timer = Instant::now();
            black_box(Wal::open(disk(&dir), WalConfig::default()).expect("log opens"));
            timer.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    push(out, "wal.open_scan_ms", "ms", median(&open_runs));
    let recover_runs: Vec<f64> = (0..3)
        .map(|_| {
            let timer = Instant::now();
            let recovered = SharedEngine::recover_with(disk(&dir), durability, serving_engine)
                .expect("recovers");
            let ms = timer.elapsed().as_secs_f64() * 1e3;
            drop(recovered);
            ms
        })
        .collect();
    push(out, "durable.recover_ms", "ms", median(&recover_runs));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `qld_server`: the script parser, the reply renderer, and the socket.
fn probe_server(
    db: &CwDatabase,
    texts: &[String],
    engine: &Engine,
    prepared: &[qld_engine::PreparedQuery],
    budget: &Budget,
    out: &mut Vec<Metric>,
) {
    let n = texts.len();
    let parse_s = budget.mean_unbounded(|i| {
        black_box(script::parse_line(db.voc(), &texts[i % n]).expect("parses"));
    });
    push(out, "server.parse_line_us", "us", parse_s * 1e6);
    let answers: Vec<_> = prepared
        .iter()
        .map(|p| engine.execute(p).expect("executes"))
        .collect();
    let mode = engine.semantics();
    let render_s = budget.mean_unbounded(|i| {
        let a = &answers[i % n];
        black_box(proto::answer_lines(
            db.voc(),
            mode,
            prepared[i % n].query().is_boolean(),
            a,
        ));
        black_box(proto::evidence_tag(a.evidence()));
    });
    push(out, "server.render_us", "us", render_s * 1e6);

    let server = Server::bind(
        SharedEngine::new(serving_engine(db.clone())),
        ServerConfig::default(),
    )
    .expect("loopback server binds");
    let addr = server.local_addr().expect("bound address");
    let running = server.spawn().expect("server thread starts");
    let connects: Vec<f64> = (0..budget.max_calls.min(20))
        .map(|_| {
            let timer = Instant::now();
            let client = Client::connect(addr).expect("connects");
            let ms = timer.elapsed().as_secs_f64() * 1e3;
            let _ = client.quit();
            ms
        })
        .collect();
    push(out, "server.connect_ms", "ms", median(&connects));
    let mut client = Client::connect(addr).expect("connects");
    let noop_s = budget.mean_unbounded(|_| {
        black_box(client.request("# noop").expect("round-trips"));
    });
    push(out, "server.roundtrip_noop_us", "us", noop_s * 1e6);
    let _ = client.quit();
    let _ = running.shutdown();
}

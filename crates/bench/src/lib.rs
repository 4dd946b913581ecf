//! Shared helpers for the E1–E9 benchmark harness (see the benchmark
//! section of ARCHITECTURE.md at the workspace root).
//!
//! Each bench binary prints the experiment's measured series as a table
//! (the paper is a theory paper, so the "tables/figures" being reproduced
//! are the complexity *shapes* its theorems claim) and then runs Criterion
//! measurements for the same points.

#![forbid(unsafe_code)]

use qld_core::CwDatabase;
use qld_logic::parser::parse_query;
use qld_logic::Query;
use qld_workloads::{random_cw_db, DbGenConfig};

/// A standard partially-specified database for the evaluation benches:
/// one binary and one unary predicate, 30% of constants with unknown
/// identity.
pub fn standard_db(num_consts: usize, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: vec![2, 1],
        facts_per_pred: (2 * num_consts).max(4),
        known_fraction: 0.7,
        extra_ne_pairs: 0,
        seed,
    })
}

/// The high-unknown-density variant of [`standard_db`] used by the E10
/// parallel-scaling experiment and the recorded baseline: only 20% of
/// constant pairs carry uniqueness axioms, so the kernel count approaches
/// Bell(|C|) — the worst case Theorem 5 promises, and the regime where
/// parallel enumeration pays.
pub fn high_null_db(num_consts: usize, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: vec![2, 1],
        facts_per_pred: (2 * num_consts).max(4),
        known_fraction: 0.2,
        extra_ne_pairs: 0,
        seed,
    })
}

/// The E17 decomposition workload: the [`standard_db`] fact core over
/// `n_core` constants, extended with `m_free` *free* constants (`f0,
/// f1, …`) that appear in no fact and no uniqueness axiom — the
/// signature of a logical database whose vocabulary is wider than its
/// data (null-heavy records, staged-but-unused identifiers).
///
/// Every free constant multiplies the raw kernel count, but the
/// free-null collapse in `qld_core::exact` folds all their placements
/// into a handful of canonical images per core kernel, so this is the
/// regime where the E17 decomposition bench shows its reduction.
///
/// # Panics
/// Panics if the vocabulary rejects a fresh `f{i}` constant name (the
/// generated names never collide with `standard_db`'s `k*`/`u*`).
pub fn sparse_null_db(n_core: usize, m_free: usize, seed: u64) -> CwDatabase {
    let core = standard_db(n_core, seed);
    let mut voc = core.voc().clone();
    for i in 0..m_free {
        voc.add_const(&format!("f{i}"))
            .expect("fresh free constant");
    }
    // Core constants keep their ids (the new names are appended), so the
    // core's facts and uniqueness axioms transfer verbatim.
    let mut builder = CwDatabase::builder(voc);
    for p in core.voc().preds() {
        for tuple in core.facts(p).iter() {
            let args: Vec<qld_logic::ConstId> =
                tuple.iter().map(|&e| qld_logic::ConstId(e)).collect();
            builder = builder.fact(p, &args);
        }
    }
    for &(a, b) in core.ne_pairs() {
        builder = builder.unique(qld_logic::ConstId(a), qld_logic::ConstId(b));
    }
    builder
        .build()
        .expect("sparse-null database is well-formed")
}

/// The E10 scaling query: the standard join wrapped in `∨ z = z`, which
/// makes every tuple certain — the candidate set never empties, early
/// exit never fires, and every thread count enumerates exactly the same
/// full kernel set (so wall-clock differences measure the enumeration,
/// not a lucky refutation order).
pub fn scaling_query(db: &CwDatabase) -> Query {
    parse_query(db.voc(), "(x, z) . (exists y. P0(x, y) & P0(y, z)) | z = z")
        .expect("scaling query parses")
}

/// The E11 batch workload: `n` distinct Boolean integrity constraints
/// that all route through the Theorem 1 enumeration and never stabilize
/// (each sentence is certainly true, so no mapping refutes it and no
/// early exit fires) — every query, batched or not, walks exactly the
/// full kernel set, making the amortization measurement deterministic and
/// composition-uniform across batch sizes.
///
/// This models the workload batching is built for: certifying many cheap
/// questions ("does constraint C hold in every model?") against one
/// co-NP-hard scan of the same uncertain database.
pub fn batch_queries(db: &CwDatabase, n: usize) -> Vec<Query> {
    let templates = [
        "exists x, y. P0(x, y)",
        "exists x. P1(x) | exists y. P0(y, y)",
        "forall x. x = x",
        "exists x, y. P0(x, y) | P0(y, x)",
        "exists x. (exists y. P0(x, y)) | P1(x)",
        "forall x. P1(x) -> P1(x)",
        "exists x, y. P0(x, y) & x = x",
        "exists x. exists y. P0(x, y) | P1(y)",
    ];
    (0..n)
        .map(|i| {
            let base = templates[i % templates.len()];
            let text = if i < templates.len() {
                base.to_string()
            } else {
                // Same shape, distinct syntax: conjoin a trivially true
                // equality on the (i mod |C|)-th constant.
                let name = db
                    .voc()
                    .const_name(qld_logic::ConstId((i % db.num_consts()) as u32));
                format!("({base}) & {name} = {name}")
            };
            parse_query(db.voc(), &text).expect("batch query parses")
        })
        .collect()
}

/// The E12 update stream: `count` *fresh* facts for the binary predicate
/// `P0` of a generated database — pairs that are not already facts,
/// enumerated deterministically from `seed` so every run (and both the
/// rebuild and delta paths) sees the same stream.
///
/// # Panics
/// Panics if the database has fewer than `count` non-fact pairs left.
pub fn fresh_facts(
    db: &CwDatabase,
    count: usize,
    seed: u64,
) -> Vec<(qld_logic::PredId, Vec<qld_logic::ConstId>)> {
    let p0 = db.voc().pred_id("P0").expect("workload predicate P0");
    let n = db.num_consts() as u64;
    let facts = db.facts(p0);
    let mut out = Vec::with_capacity(count);
    // The rotation `offset ↦ (offset + seed·31) mod n²` visits every pair
    // exactly once, so emitted tuples cannot repeat.
    for offset in 0..n * n {
        if out.len() == count {
            break;
        }
        let pair = (offset.wrapping_add(seed.wrapping_mul(31))) % (n * n);
        let (a, b) = ((pair / n) as u32, (pair % n) as u32);
        if facts.contains(&[a, b]) {
            continue;
        }
        out.push((p0, vec![qld_logic::ConstId(a), qld_logic::ConstId(b)]));
    }
    assert_eq!(out.len(), count, "database too dense for the update stream");
    out
}

/// The raw text forms of [`standard_queries`] — what the E14 socket
/// clients send over the wire, one request line each.
pub const STANDARD_QUERY_TEXTS: [(&str, &str); 3] = [
    ("join", "(x, z) . exists y. P0(x, y) & P0(y, z)"),
    ("negation", "(x) . P1(x) & !P0(x, x)"),
    ("universal", "(x) . forall y. P0(x, y) -> P1(y)"),
];

/// The standard query mix used across experiments: a join, a negation,
/// and a universally quantified implication.
pub fn standard_queries(db: &CwDatabase) -> Vec<(&'static str, Query)> {
    STANDARD_QUERY_TEXTS
        .into_iter()
        .map(|(name, text)| {
            (
                name,
                parse_query(db.voc(), text).expect("standard query parses"),
            )
        })
        .collect()
}

/// A prepared query's `Q̂`, compiled once to an optimized
/// relational-algebra plan over the engine's extended database `Ph₂(LB)` —
/// what §5's "standard relational system" would run. Time it with
/// [`qld_algebra::execute`] against `engine.approx_engine().extended_db()`;
/// the engine itself evaluates the same `Q̂` with its Tarskian evaluator.
///
/// # Panics
/// Panics if `Q̂` is second-order (the algebra compiles first-order
/// queries only).
pub fn approx_plan(
    engine: &qld_engine::Engine,
    prepared: &qld_engine::PreparedQuery,
) -> qld_algebra::Plan {
    let approx = engine.approx_engine();
    let voc = approx.extended_voc();
    let plan = qld_algebra::compile_query_ordered(voc, approx.extended_db(), prepared.rewritten())
        .expect("first-order Q̂ compiles to algebra");
    qld_algebra::optimize(voc, plan)
}

/// Prints a Markdown-ish table row, padding columns to a fixed width.
pub fn print_row(cols: &[String]) {
    let rendered: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("| {} |", rendered.join(" | "));
}

/// Prints a table header followed by a separator row.
pub fn print_header(cols: &[&str]) {
    print_row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    print_row(&cols.iter().map(|_| "---".to_string()).collect::<Vec<_>>());
}

/// Formats a `Duration` compactly for the series tables.
pub fn fmt_duration(d: std::time::Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

/// Times a closure once (for the printed series; Criterion does the
/// statistically careful measurement separately).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The `p`-th percentile (0.0–100.0) of a latency sample, by the
/// nearest-rank method. Sorts the slice in place.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(samples: &mut [std::time::Duration], p: f64) -> std::time::Duration {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// What the E13 multi-client load generator measured: per-read latency
/// percentiles across all reader sessions, and the writer's sustained
/// delta throughput over the same window.
pub struct ConcurrentLoadReport {
    /// Reader sessions that ran.
    pub sessions: usize,
    /// Total reads across all sessions.
    pub reads: usize,
    /// Median read latency.
    pub read_p50: std::time::Duration,
    /// 99th-percentile read latency.
    pub read_p99: std::time::Duration,
    /// Deltas the writer published.
    pub deltas: usize,
    /// Wall-clock the writer spent applying (and publishing) them.
    pub writer_wall: std::time::Duration,
}

impl ConcurrentLoadReport {
    /// Deltas published per second.
    pub fn writer_throughput(&self) -> f64 {
        self.deltas as f64 / self.writer_wall.as_secs_f64()
    }
}

/// The E13 multi-client load generator: `sessions` reader threads each
/// execute `reads_per_session` queries (the [`standard_queries`] mix,
/// `Auto` semantics, shared epoch-keyed cache on — the serving
/// configuration) against a `SharedEngine`, while one writer thread
/// applies `deltas` fresh `P0` facts from [`fresh_facts`], yielding
/// between publications so readers genuinely interleave with the epoch
/// stream. Returns read-latency percentiles and writer throughput.
pub fn concurrent_load(
    db: &CwDatabase,
    sessions: usize,
    reads_per_session: usize,
    deltas: usize,
    seed: u64,
) -> ConcurrentLoadReport {
    use qld_engine::{Delta, Engine, SharedEngine};
    use std::sync::Barrier;
    use std::time::Instant;

    let shared = SharedEngine::new(Engine::new(db.clone()));
    let prepared: Vec<qld_engine::PreparedQuery> = {
        let snap = shared.snapshot();
        standard_queries(db)
            .into_iter()
            .map(|(_, q)| snap.engine().prepare(q).expect("load query prepares"))
            .collect()
    };
    let stream = fresh_facts(db, deltas, seed);
    // Everyone starts together: latency percentiles measured while the
    // writer is live, not after it drained.
    let barrier = Barrier::new(sessions + 1);

    let (writer_wall, latencies) = std::thread::scope(|scope| {
        let writer = {
            let shared = shared.clone();
            let barrier = &barrier;
            let stream = &stream;
            scope.spawn(move || {
                barrier.wait();
                let start = Instant::now();
                for (p, args) in stream {
                    shared
                        .apply(&Delta::new().insert_fact(*p, args))
                        .expect("load delta applies");
                    std::thread::yield_now();
                }
                start.elapsed()
            })
        };
        let readers: Vec<_> = (0..sessions)
            .map(|i| {
                let shared = shared.clone();
                let barrier = &barrier;
                let prepared = &prepared;
                scope.spawn(move || {
                    let mut session = shared.session();
                    let mut samples = Vec::with_capacity(reads_per_session);
                    barrier.wait();
                    for r in 0..reads_per_session {
                        let p = &prepared[(i + r) % prepared.len()];
                        let start = Instant::now();
                        session.execute(p).expect("load query executes");
                        samples.push(start.elapsed());
                    }
                    samples
                })
            })
            .collect();
        let wall = writer.join().expect("writer thread");
        let latencies: Vec<std::time::Duration> = readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread"))
            .collect();
        (wall, latencies)
    });

    let mut latencies = latencies;
    let reads = latencies.len();
    ConcurrentLoadReport {
        sessions,
        reads,
        read_p50: percentile(&mut latencies, 50.0),
        read_p99: percentile(&mut latencies, 99.0),
        deltas,
        writer_wall,
    }
}

/// The E14 socket load generator: the [`concurrent_load`] workload driven
/// over real loopback TCP through `qld_server`. Each reader session is a
/// blocking [`qld_server::Client`] sending the [`STANDARD_QUERY_TEXTS`]
/// round-robin as request lines; one writer client streams the same
/// [`fresh_facts`] deltas as `:insert` script lines. Latencies therefore
/// include parse, framing, and the kernel's loopback round-trip on top of
/// the in-process numbers E13 records — the gap between the two series is
/// the cost of the network front-end itself.
pub fn socket_load(
    db: &CwDatabase,
    sessions: usize,
    reads_per_session: usize,
    deltas: usize,
    seed: u64,
) -> ConcurrentLoadReport {
    use qld_engine::{Engine, SharedEngine};
    use qld_server::{Client, Server, ServerConfig};
    use std::sync::Barrier;
    use std::time::Instant;

    let shared = SharedEngine::new(Engine::new(db.clone()));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: sessions + 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(shared, config).expect("bench server binds");
    let addr = server.local_addr().expect("bench server addr");
    let running = server.spawn().expect("bench server spawns");

    // Render the writer's insert lines up front so the measured window is
    // pure protocol + engine work, not string formatting.
    let voc = db.voc();
    let inserts: Vec<String> = fresh_facts(db, deltas, seed)
        .into_iter()
        .map(|(p, args)| {
            let names: Vec<&str> = args.iter().map(|&c| voc.const_name(c)).collect();
            format!(":insert {}({})", voc.pred_name(p), names.join(", "))
        })
        .collect();
    let barrier = Barrier::new(sessions + 1);

    let (writer_wall, latencies) = std::thread::scope(|scope| {
        let writer = {
            let barrier = &barrier;
            let inserts = &inserts;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("writer connects");
                barrier.wait();
                let start = Instant::now();
                for line in inserts {
                    let reply = client.request(line).expect("writer delta round-trips");
                    assert!(reply.is_ok(), "writer delta rejected: {:?}", reply.error);
                    std::thread::yield_now();
                }
                let wall = start.elapsed();
                let _ = client.quit();
                wall
            })
        };
        let readers: Vec<_> = (0..sessions)
            .map(|i| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    let mut samples = Vec::with_capacity(reads_per_session);
                    barrier.wait();
                    for r in 0..reads_per_session {
                        let (_, text) = STANDARD_QUERY_TEXTS[(i + r) % STANDARD_QUERY_TEXTS.len()];
                        let start = Instant::now();
                        let reply = client.request(text).expect("reader query round-trips");
                        samples.push(start.elapsed());
                        assert!(reply.is_ok(), "reader query rejected: {:?}", reply.error);
                    }
                    let _ = client.quit();
                    samples
                })
            })
            .collect();
        let wall = writer.join().expect("writer thread");
        let latencies: Vec<std::time::Duration> = readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread"))
            .collect();
        (wall, latencies)
    });

    running.shutdown().expect("bench server stops");

    let mut latencies = latencies;
    let reads = latencies.len();
    ConcurrentLoadReport {
        sessions,
        reads,
        read_p50: percentile(&mut latencies, 50.0),
        read_p99: percentile(&mut latencies, 99.0),
        deltas,
        writer_wall,
    }
}

/// What the E16 replication load generator measured: how fast a fresh
/// follower bootstraps and applies the primary's delta stream, how far
/// it trails while the writer is live, and what reads cost on the
/// replica itself.
pub struct ReplicationLoadReport {
    /// Deltas streamed through the primary (and applied by the follower).
    pub deltas: usize,
    /// Wall-clock from the first blast-phase write until the follower
    /// had applied the final blast epoch; catch-up throughput is
    /// `deltas / catchup_wall`.
    pub catchup_wall: std::time::Duration,
    /// Median replication lag in epochs (primary epoch − follower
    /// applied epoch), sampled every millisecond during the *paced*
    /// phase, where the writer publishes at a sustainable rate — a
    /// healthy follower holds this near zero.
    pub lag_p50: u64,
    /// Worst lag in epochs observed in the paced window.
    pub lag_max: u64,
    /// Total reads the replica served during the stream.
    pub reads: usize,
    /// Median replica read latency.
    pub read_p50: std::time::Duration,
    /// 99th-percentile replica read latency.
    pub read_p99: std::time::Duration,
}

impl ReplicationLoadReport {
    /// Records the follower applied per second during catch-up.
    pub fn catchup_throughput(&self) -> f64 {
        self.deltas as f64 / self.catchup_wall.as_secs_f64()
    }
}

/// The E16 replication load generator: a primary `qld_server` over `db`,
/// a fresh follower bootstrapping through the replication feed over real
/// loopback TCP, then one writer streaming fresh `P0` facts through the
/// primary in two phases — a *blast* of `deltas` records applied
/// back-to-back (timing how long the follower takes to drain them =
/// catch-up throughput) and a *paced* stream of `deltas` more at one
/// record per 500µs (sampling the epoch lag every millisecond =
/// steady-state lag) — while `sessions` reader threads hammer the
/// *follower's* `SharedEngine` with the [`STANDARD_QUERY_TEXTS`] mix.
/// Returns catch-up throughput, lag percentiles, and replica read
/// latencies — the replica numbers to set next to E13 (in-process) and
/// E14 (socket) reads.
pub fn replication_load(
    db: &CwDatabase,
    sessions: usize,
    reads_per_session: usize,
    deltas: usize,
    seed: u64,
) -> ReplicationLoadReport {
    use qld_engine::{Delta, Engine, SharedEngine};
    use qld_server::replication::FollowerLink;
    use qld_server::{RetryPolicy, Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    let primary = SharedEngine::new(Engine::new(db.clone()));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind(primary.clone(), config).expect("bench primary binds");
    let addr = server.local_addr().expect("bench primary addr");
    let running = server.spawn().expect("bench primary spawns");

    // A fresh follower: placeholder database (bootstrap handshake →
    // snapshot transfer), then the live frame stream.
    let placeholder = qld_core::textio::from_text("const bootstrap").expect("placeholder db");
    let follower = SharedEngine::new(Engine::new(placeholder));
    let link = FollowerLink::new(
        follower.clone(),
        addr.to_string(),
        None,
        RetryPolicy::default(),
        Arc::new(Engine::new),
    );
    let handle = link.spawn();

    // Warm-up delta: once the follower has applied epoch 1 the snapshot
    // landed and its vocabulary matches the primary's, so the readers
    // can prepare against the replica.
    let mut stream = fresh_facts(db, 2 * deltas + 1, seed);
    let (wp, wargs) = stream.remove(0);
    primary
        .apply(&Delta::new().insert_fact(wp, &wargs))
        .expect("warm-up delta applies");
    let bootstrap_deadline = Instant::now() + Duration::from_secs(30);
    while follower.epoch() < 1 {
        assert!(
            Instant::now() < bootstrap_deadline,
            "follower never bootstrapped"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let prepared: Vec<qld_engine::PreparedQuery> = {
        let snap = follower.snapshot();
        let voc = snap.engine().db().voc();
        STANDARD_QUERY_TEXTS
            .iter()
            .map(|(name, text)| {
                let query = parse_query(voc, text).expect(name);
                snap.engine().prepare(query).expect(name)
            })
            .collect()
    };

    let (blast, paced) = stream.split_at(deltas);
    let blast_target = deltas as u64 + 1;
    let paced_target = 2 * deltas as u64 + 1;
    let barrier = Barrier::new(sessions + 2);
    // Lag is only meaningful while the writer paces itself: during the
    // blast the primary is always a full stream ahead by construction.
    let pacing = AtomicBool::new(false);
    let streaming = AtomicBool::new(true);

    let (catchup_wall, lag_samples, latencies) = std::thread::scope(|scope| {
        let writer = {
            let primary = primary.clone();
            let follower = follower.clone();
            let barrier = &barrier;
            let pacing = &pacing;
            let streaming = &streaming;
            scope.spawn(move || {
                barrier.wait();
                let start = Instant::now();
                for (p, args) in blast {
                    primary
                        .apply(&Delta::new().insert_fact(*p, args))
                        .expect("bench delta applies");
                }
                while follower.epoch() < blast_target {
                    std::thread::sleep(Duration::from_micros(200));
                }
                let wall = start.elapsed();
                pacing.store(true, Ordering::Release);
                for (p, args) in paced {
                    primary
                        .apply(&Delta::new().insert_fact(*p, args))
                        .expect("bench delta applies");
                    std::thread::sleep(Duration::from_micros(500));
                }
                while follower.epoch() < paced_target {
                    std::thread::sleep(Duration::from_micros(200));
                }
                streaming.store(false, Ordering::Release);
                wall
            })
        };
        let sampler = {
            let primary = primary.clone();
            let follower = follower.clone();
            let barrier = &barrier;
            let pacing = &pacing;
            let streaming = &streaming;
            scope.spawn(move || {
                let mut samples = Vec::new();
                barrier.wait();
                while streaming.load(Ordering::Acquire) {
                    if pacing.load(Ordering::Acquire) {
                        samples.push(primary.epoch().saturating_sub(follower.epoch()));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                samples
            })
        };
        let readers: Vec<_> = (0..sessions)
            .map(|i| {
                let follower = follower.clone();
                let barrier = &barrier;
                let prepared = &prepared;
                scope.spawn(move || {
                    let mut session = follower.session();
                    let mut samples = Vec::with_capacity(reads_per_session);
                    barrier.wait();
                    for r in 0..reads_per_session {
                        let p = &prepared[(i + r) % prepared.len()];
                        let start = Instant::now();
                        session.execute(p).expect("replica read executes");
                        samples.push(start.elapsed());
                    }
                    samples
                })
            })
            .collect();
        let wall = writer.join().expect("writer thread");
        let lags = sampler.join().expect("sampler thread");
        let latencies: Vec<Duration> = readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread"))
            .collect();
        (wall, lags, latencies)
    });

    handle.stop();
    running.shutdown().expect("bench primary stops");

    let mut lags = lag_samples;
    lags.sort_unstable();
    let lag_p50 = lags.get(lags.len() / 2).copied().unwrap_or(0);
    let lag_max = lags.last().copied().unwrap_or(0);
    let mut latencies = latencies;
    let reads = latencies.len();
    ReplicationLoadReport {
        deltas,
        catchup_wall,
        lag_p50,
        lag_max,
        reads,
        read_p50: percentile(&mut latencies, 50.0),
        read_p99: percentile(&mut latencies, 99.0),
    }
}

//! Fault-injection battery for primary/follower replication, in the
//! style of `tests/wal_recovery.rs`: a real primary `Server` on
//! loopback, real `FollowerLink`s streaming the feed, and faults
//! injected at the worst moments — the primary torn down mid-stream,
//! the follower reconnecting and resuming from its last applied epoch,
//! a promote bumping the generation and fencing the stale stream.
//!
//! The spine is the differential discipline of `tests/server_e2e.rs`
//! carried across the replication boundary: because `Engine::apply` is
//! deterministic, every answer a follower serves must be byte-identical
//! to a solo engine rebuilt from the database as it stood at the
//! answer's stamped epoch — tuples, verdicts, and certificates, under
//! all four semantics.
//!
//! Run under `QLD_THREADS=1` and `QLD_THREADS=4` (CI does both).

use proptest::prelude::*;
use qld_workloads::{random_cw_db, DbGenConfig};
use querying_logical_databases::core::textio::{from_text, to_text};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::engine::{
    wal_has_state, DiskStorage, DurabilityConfig, Engine, EngineError, Semantics, SharedEngine,
    Storage,
};
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::ConstId;
use querying_logical_databases::prelude::{Client, RetryPolicy, Server, ServerConfig};
use querying_logical_databases::server::replication::{FollowerHandle, FollowerLink};
use querying_logical_databases::server::{proto, RunningServer};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A partially-specified database with parser-friendly constant names
/// (`k0…`/`u0…`), so deltas can travel as `:insert` script text.
fn test_db(seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts: 6,
        pred_arities: vec![2, 1],
        facts_per_pred: 8,
        known_fraction: 0.7,
        extra_ne_pairs: 0,
        seed,
    })
}

/// The query mix, with each text's Boolean-ness.
const QUERIES: [(&str, bool); 3] = [
    ("(x, z) . exists y. P0(x, y) & P0(y, z)", false),
    ("(x) . P1(x) & !P0(x, x)", false),
    ("exists x. P0(x, x)", true),
];

/// `count` fresh (non-fact) `P0` pairs as `(ConstIds, script line)` —
/// each insert changes the database, so the epoch after the k-th insert
/// is exactly `k`.
fn fresh_inserts(db: &CwDatabase, count: usize) -> Vec<(Vec<ConstId>, String)> {
    let voc = db.voc();
    let p0 = voc.pred_id("P0").expect("workload predicate P0");
    let facts = db.facts(p0);
    let n = db.num_consts() as u32;
    let mut out = Vec::with_capacity(count);
    'outer: for a in 0..n {
        for b in 0..n {
            if out.len() == count {
                break 'outer;
            }
            if facts.contains(&[a, b]) {
                continue;
            }
            let line = format!(
                ":insert P0({}, {})",
                voc.const_name(ConstId(a)),
                voc.const_name(ConstId(b))
            );
            out.push((vec![ConstId(a), ConstId(b)], line));
        }
    }
    assert_eq!(out.len(), count, "database too dense for the delta stream");
    out
}

fn start(shared: SharedEngine, config: ServerConfig) -> (RunningServer, SocketAddr) {
    let server = Server::bind(shared, config).expect("server binds");
    let addr = server.local_addr().expect("server addr");
    (server.spawn().expect("server spawns"), addr)
}

/// A retry policy tight enough that reconnect tests run in milliseconds
/// but still exercises the backoff path.
fn fast_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        jitter_seed: seed,
    }
}

/// Spawns a bootstrap follower (empty placeholder engine) against the
/// primary at `addr`.
fn spawn_follower(addr: SocketAddr, seed: u64) -> (SharedEngine, FollowerHandle) {
    let shared = SharedEngine::new(Engine::new(
        from_text("const bootstrap").expect("placeholder db"),
    ));
    let link = FollowerLink::new(
        shared.clone(),
        addr.to_string(),
        None,
        fast_retry(seed),
        Arc::new(Engine::new),
    );
    (shared, link.spawn())
}

/// Polls `cond` until it holds or `timeout` elapses (then panics with
/// `what`). Replication is asynchronous by design; every assertion about
/// "the follower has caught up" goes through here.
fn wait_until(timeout: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// The database as it stood at each epoch: base plus the first k
/// inserts.
fn db_at(db: &CwDatabase, inserts: &[(Vec<ConstId>, String)]) -> HashMap<u64, CwDatabase> {
    let p0 = db.voc().pred_id("P0").unwrap();
    let mut map = HashMap::new();
    let mut evolving = db.clone();
    map.insert(0, evolving.clone());
    for (k, (args, _)) in inserts.iter().enumerate() {
        evolving.insert_fact(p0, args).unwrap();
        map.insert(k as u64 + 1, evolving.clone());
    }
    map
}

/// Bootstrap, catch-up, live streaming, and the read-only contract, end
/// to end: a fresh follower converges on the primary's exact state and
/// serves reads over its own socket while refusing writes.
#[test]
fn follower_bootstraps_streams_and_serves_read_only() {
    const DELTAS: usize = 6;
    let db = test_db(42);
    let inserts = fresh_inserts(&db, DELTAS);
    let primary = SharedEngine::new(Engine::new(db.clone()));
    let (running, addr) = start(primary.clone(), ServerConfig::default());

    let (follower, handle) = spawn_follower(addr, 3);
    wait_until(Duration::from_secs(10), "bootstrap snapshot", || {
        follower.epoch() == primary.epoch() && follower.stats().source_epoch >= primary.epoch()
    });

    // Stream writes through the primary's socket; the follower applies
    // each committed delta from the live feed.
    let mut writer = Client::connect(addr).expect("writer connects");
    for (i, (_, line)) in inserts.iter().enumerate() {
        let reply = writer.request(line).expect("insert round-trips");
        assert!(reply.is_ok(), "{reply:?}");
        assert_eq!(reply.epoch, Some(i as u64 + 1), "{reply:?}");
    }
    wait_until(Duration::from_secs(10), "live stream catch-up", || {
        follower.epoch() == DELTAS as u64
    });

    // Converged byte-for-byte.
    let final_db = db_at(&db, &inserts)[&(DELTAS as u64)].clone();
    assert_eq!(
        to_text(follower.snapshot().engine().db()),
        to_text(&final_db),
        "follower state diverged from the primary's history"
    );

    // The primary counts its follower; the follower reports its role.
    let stats = primary.stats();
    assert_eq!(stats.followers, 1, "{stats:?}");
    assert!(!stats.read_only, "{stats:?}");

    // The follower serves reads over its own socket at its applied
    // epoch, and answers writes with a clean `error: read-only`.
    let (follower_server, follower_addr) = start(follower.clone(), ServerConfig::default());
    let mut client = Client::connect(follower_addr).expect("read client connects");
    let reply = client.request(QUERIES[0].0).expect("query round-trips");
    assert!(reply.is_ok(), "{reply:?}");
    assert_eq!(reply.epoch, Some(DELTAS as u64), "{reply:?}");
    let reply = client.request(&inserts[0].1).expect("write round-trips");
    assert!(
        reply
            .error
            .as_deref()
            .unwrap_or("")
            .starts_with("read-only"),
        "{reply:?}"
    );
    let reply = client.request(":stats").expect("stats round-trips");
    let replication = reply
        .stats
        .iter()
        .find(|line| line.starts_with("replication:"))
        .expect("stats report replication state");
    assert!(
        replication.contains("role=follower")
            && replication.contains("generation=1")
            && replication.contains(&format!("applied={DELTAS}")),
        "{replication}"
    );

    follower_server.shutdown().expect("follower server drains");
    handle.stop();
    running.shutdown().expect("primary drains");
}

/// The primary dies mid-stream. The follower must hold *exactly* an
/// epoch prefix of the primary's history (never a torn or reordered
/// state), and when a primary comes back, catch-up must converge from
/// the follower's resumed epoch — through the WAL tail, not a fresh
/// snapshot.
#[test]
fn primary_crash_mid_stream_leaves_an_exact_prefix_then_catchup_converges() {
    crash_mid_stream_then_catch_up(DurabilityConfig::default().checkpoint_every);
}

/// The same with a checkpoint every two writes, written in the
/// background while the feed serves catch-up from the log tail.
#[test]
fn crash_mid_stream_then_catch_up_with_a_checkpoint_every_two_writes() {
    crash_mid_stream_then_catch_up(2);
}

fn crash_mid_stream_then_catch_up(checkpoint_every: u64) {
    const DELTAS: usize = 10;
    const CRASH_AFTER: usize = 4;
    let dir = tempdir();
    let db = test_db(7);
    let inserts = fresh_inserts(&db, DELTAS);
    let history = db_at(&db, &inserts);

    let primary = durable_primary(db.clone(), &dir, checkpoint_every);
    let (running, addr) = start(primary.clone(), ServerConfig::default());
    let (follower, handle) = spawn_follower(addr, 11);

    let mut writer = Client::connect(addr).expect("writer connects");
    for (_, line) in inserts.iter().take(CRASH_AFTER) {
        assert!(writer.request(line).expect("insert").is_ok());
    }
    wait_until(Duration::from_secs(10), "pre-crash catch-up", || {
        follower.epoch() == CRASH_AFTER as u64
    });

    // Tear the primary down abruptly: every connection (including the
    // feed) drops mid-stream. The follower now holds some epoch prefix
    // and keeps retrying the dead address in the background.
    drop(writer);
    running.shutdown().expect("primary dies");
    let held = follower.epoch();
    assert!(held <= DELTAS as u64);
    assert_eq!(
        to_text(follower.snapshot().engine().db()),
        to_text(&history[&held]),
        "follower holds something other than the epoch-{held} prefix"
    );

    // A primary returns with the same history (recovered from its WAL,
    // as a restart would) on a fresh address; the follower resumes from
    // its held epoch and converges on the rest of the stream.
    let revived = durable_primary(db.clone(), &dir, checkpoint_every);
    assert_eq!(revived.epoch(), CRASH_AFTER as u64, "WAL recovery replays");
    let (running, addr) = start(revived.clone(), ServerConfig::default());
    handle.stop();
    let link = FollowerLink::new(
        follower.clone(),
        addr.to_string(),
        None,
        fast_retry(13),
        Arc::new(Engine::new),
    );
    let handle = link.spawn();

    let mut writer = Client::connect(addr).expect("writer reconnects");
    for (_, line) in inserts.iter().skip(CRASH_AFTER) {
        assert!(writer.request(line).expect("insert").is_ok());
    }
    wait_until(Duration::from_secs(10), "post-crash convergence", || {
        follower.epoch() == DELTAS as u64
    });
    assert_eq!(
        to_text(follower.snapshot().engine().db()),
        to_text(&history[&(DELTAS as u64)]),
        "catch-up after the crash diverged"
    );
    handle.stop();
    running.shutdown().expect("revived primary drains");
}

/// Promote turns the follower into a writable primary under a bumped
/// generation, writes resume there, and the stale primary's stream is
/// fenced in both directions.
#[test]
fn promote_resumes_writes_and_fences_the_stale_generation() {
    const DELTAS: usize = 8;
    const BEFORE_FAILOVER: usize = 5;
    let db = test_db(23);
    let inserts = fresh_inserts(&db, DELTAS);
    let history = db_at(&db, &inserts);

    let primary = SharedEngine::new(Engine::new(db.clone()));
    let (running, addr) = start(primary.clone(), ServerConfig::default());
    let (follower, handle) = spawn_follower(addr, 17);
    let (follower_server, follower_addr) = start(follower.clone(), ServerConfig::default());

    let mut writer = Client::connect(addr).expect("writer connects");
    for (_, line) in inserts.iter().take(BEFORE_FAILOVER) {
        assert!(writer.request(line).expect("insert").is_ok());
    }
    wait_until(Duration::from_secs(10), "pre-failover catch-up", || {
        follower.epoch() == BEFORE_FAILOVER as u64
    });

    // The primary is gone; promote the follower over its own socket.
    drop(writer);
    running.shutdown().expect("old primary dies");
    let epoch_before = follower.epoch();
    let mut admin = Client::connect(follower_addr).expect("admin connects");
    let reply = admin.request(":promote").expect("promote round-trips");
    assert!(reply.is_ok(), "{reply:?}");
    assert_eq!(reply.promoted, Some(2), "generation bumps exactly once");
    // Promoting an already-writable primary is a clean error.
    let reply = admin.request(":promote").expect("second promote");
    assert!(
        reply
            .error
            .as_deref()
            .unwrap_or("")
            .contains("already a writable primary"),
        "{reply:?}"
    );

    // Writes resume on the new primary under the bumped generation, and
    // reads never regressed an epoch across the failover.
    for (_, line) in inserts.iter().skip(BEFORE_FAILOVER) {
        let reply = admin.request(line).expect("post-failover insert");
        assert!(reply.is_ok(), "{reply:?}");
        assert!(reply.epoch.unwrap() >= epoch_before, "{reply:?}");
    }
    assert_eq!(follower.epoch(), DELTAS as u64);
    assert_eq!(
        to_text(follower.snapshot().engine().db()),
        to_text(&history[&(DELTAS as u64)]),
        "history diverged across the failover"
    );
    let stats = follower.stats();
    assert!(!stats.read_only, "{stats:?}");
    assert_eq!(stats.generation, 2, "{stats:?}");
    // The apply loop notices the promotion and exits on its own; stop()
    // just joins it.
    handle.stop();

    // Fencing, primary side: the new primary (generation 2) refuses a
    // handshake claiming a *newer* generation still...
    let mut stale = Client::connect(follower_addr).expect("stale connects");
    // The feed closes the connection after refusing, so a transport
    // error on the read is also a legal observation.
    if let Ok(reply) = stale.request(":follow epoch=0 generation=99") {
        assert!(
            reply.error.as_deref().unwrap_or("").starts_with("fenced:"),
            "{reply:?}"
        );
    }

    // ...and fencing, follower side: a replica that has adopted
    // generation 2 refuses a primary still serving generation 1.
    let stale_primary = SharedEngine::new(Engine::new(db.clone()));
    let (stale_running, stale_addr) = start(stale_primary.clone(), ServerConfig::default());
    let fenced = SharedEngine::new(Engine::new(from_text("const bootstrap").unwrap()));
    fenced.set_generation(2);
    let link = FollowerLink::new(
        fenced.clone(),
        stale_addr.to_string(),
        None,
        fast_retry(19),
        Arc::new(Engine::new),
    );
    let fenced_handle = link.spawn();
    // Give the link several reconnect rounds: it must keep refusing the
    // stale stream rather than applying anything from it.
    thread::sleep(Duration::from_millis(200));
    assert_eq!(fenced.epoch(), 0, "a fenced follower applied stale data");
    assert_eq!(fenced.generation(), 2);
    fenced_handle.stop();
    stale_running.shutdown().expect("stale primary drains");
    follower_server.shutdown().expect("new primary drains");
}

/// A writable primary refuses `:promote` (there is nothing to fail over
/// from), and its stats report the primary role.
#[test]
fn promote_on_a_primary_is_a_clean_error() {
    let db = test_db(5);
    let primary = SharedEngine::new(Engine::new(db));
    let (running, addr) = start(primary, ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let reply = client.request(":promote").unwrap();
    assert!(
        reply
            .error
            .as_deref()
            .unwrap_or("")
            .contains("already a writable primary"),
        "{reply:?}"
    );
    let reply = client.request(":stats").unwrap();
    assert!(
        reply
            .stats
            .iter()
            .any(|l| l.starts_with("replication: role=primary generation=1")),
        "{reply:?}"
    );
    running.shutdown().unwrap();
}

/// A durable primary over a WAL directory, checkpointing every
/// `checkpoint_every` writes (the crash-revival tests recover from the
/// same directory to model a restart).
fn durable_primary(db: CwDatabase, dir: &std::path::Path, checkpoint_every: u64) -> SharedEngine {
    let storage = DiskStorage::open(dir).expect("wal dir opens");
    let config = DurabilityConfig {
        checkpoint_every,
        ..DurabilityConfig::default()
    };
    if wal_has_state(&storage).unwrap_or(false) {
        let boxed: Box<dyn Storage> = Box::new(storage);
        SharedEngine::recover_with(boxed, config, Engine::new)
            .expect("wal recovers")
            .0
    } else {
        SharedEngine::durable(Engine::new(db), Box::new(storage), config).expect("wal seeds")
    }
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qld-replication-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp wal dir");
    dir
}

/// The semantic clauses of an evidence summary — regime and
/// certification — with performance metadata (mapping, component and
/// pruning counts, the engine-local epoch clause, the `(cached)` marker)
/// dropped.
fn normalize_certificate(summary: &str) -> String {
    summary
        .split(", ")
        .filter(|clause| {
            !clause.ends_with("mapping(s)")
                && !clause.ends_with("component(s)")
                && !clause.contains("mapping(s) pruned")
                && !clause.ends_with("worker(s)")
                && !clause.starts_with("epoch ")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// One observed follower answer: query index, semantics, stamped epoch,
/// rendered answer lines, and the certificate summary.
type Observation = (usize, Semantics, u64, Vec<String>, String);

/// Executes the query mix under all four semantics against the follower
/// engine, re-preparing when a bootstrap swap invalidates the prepared
/// artifact mid-flight.
fn observe_follower(follower: &SharedEngine) -> Vec<Observation> {
    let mut session = follower.session();
    let mut observed = Vec::new();
    for (qi, (text, _)) in QUERIES.iter().enumerate() {
        for mode in Semantics::ALL {
            // A `reset_replica` between prepare and execute invalidates
            // the prepared query; re-prepare against the new engine.
            let answers = loop {
                let snapshot = follower.snapshot();
                let query = match parse_query(snapshot.engine().db().voc(), text) {
                    Ok(query) => query,
                    // The pre-bootstrap placeholder lacks the workload
                    // vocabulary; skip until the snapshot lands.
                    Err(_) => break None,
                };
                match session
                    .prepare(query)
                    .and_then(|prepared| session.execute_as(&prepared, mode))
                {
                    Ok(answers) => break Some(answers),
                    Err(EngineError::PreparedElsewhere) => continue,
                    Err(e) => panic!("follower query failed: {e}"),
                }
            };
            if let Some(answers) = answers {
                let evidence = answers.evidence().clone();
                let voc_lines = {
                    let snapshot = follower.snapshot();
                    proto::answer_lines(snapshot.engine().db().voc(), mode, QUERIES[qi].1, &answers)
                };
                observed.push((qi, mode, evidence.epoch, voc_lines, evidence.summary()));
            }
        }
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The replication differential: every answer a follower serves —
    /// while bootstrapping, while catching up, while streaming live —
    /// is byte-identical (tuples, verdicts, certificates) to a solo
    /// engine rebuilt from the database as it stood at the answer's
    /// stamped epoch, under all four semantics.
    #[test]
    fn follower_answers_equal_solo_engines_at_their_stamped_epochs(
        seed in 0u64..1000,
        deltas in 4usize..9,
    ) {
        follower_differential(seed, deltas, SharedEngine::new(Engine::new(test_db(seed))))?;
    }

    /// The same over a durable primary that checkpoints every two
    /// writes: bootstrap and catch-up read a log its background
    /// checkpointer keeps truncating.
    #[test]
    fn follower_answers_equal_solo_engines_over_a_checkpointing_primary(
        seed in 0u64..1000,
        deltas in 4usize..9,
    ) {
        let primary = durable_primary(test_db(seed), &tempdir(), 2);
        follower_differential(seed, deltas, primary)?;
    }
}

/// The body of the replication differential, over `primary` (which
/// serves `test_db(seed)` at epoch 0).
fn follower_differential(
    seed: u64,
    deltas: usize,
    primary: SharedEngine,
) -> Result<(), TestCaseError> {
    let db = test_db(seed);
    let inserts = fresh_inserts(&db, deltas);
    let history = db_at(&db, &inserts);
    let (running, addr) = start(primary.clone(), ServerConfig::default());
    let (follower, handle) = spawn_follower(addr, seed | 1);

    // Stream writes while a reader hammers the follower: the
    // observations span bootstrap, catch-up, and live streaming.
    let observations: Vec<Observation> = thread::scope(|scope| {
        let follower_ref = &follower;
        let reader = scope.spawn(move || {
            let mut observed = Vec::new();
            let mut last_epoch = 0u64;
            while follower_ref.epoch() < deltas as u64 {
                let chunk = observe_follower(follower_ref);
                // Reads never regress an epoch, even across the
                // bootstrap swap and reconnects.
                for (_, _, epoch, _, _) in &chunk {
                    assert!(
                        *epoch >= last_epoch,
                        "follower reads regressed: epoch {epoch} after {last_epoch}"
                    );
                    last_epoch = *epoch;
                }
                observed.extend(chunk);
            }
            // One more sweep at the converged state.
            observed.extend(observe_follower(follower_ref));
            observed
        });
        let mut writer = Client::connect(addr).expect("writer connects");
        for (_, line) in &inserts {
            let reply = writer.request(line).expect("insert round-trips");
            assert!(reply.is_ok(), "{reply:?}");
            thread::sleep(Duration::from_millis(2));
        }
        wait_until(Duration::from_secs(20), "follower convergence", || {
            follower_ref.epoch() == deltas as u64
        });
        reader.join().expect("reader panicked")
    });

    // Solo verification: rebuild an engine at each observed epoch
    // (answer cache off so certificates reflect real evaluations)
    // and demand identical rendered answers and certificates.
    let mut solo: HashMap<u64, Engine> = HashMap::new();
    prop_assert!(!observations.is_empty());
    for (qi, mode, epoch, answers, certificate) in observations {
        let engine = solo.entry(epoch).or_insert_with(|| {
            Engine::builder(history[&epoch].clone())
                .answer_cache(false)
                .build()
        });
        let (text, is_boolean) = QUERIES[qi];
        let prepared = engine.prepare_text(text).unwrap();
        let truth = engine.execute_as(&prepared, mode).unwrap();
        let truth_lines = proto::answer_lines(history[&epoch].voc(), mode, is_boolean, &truth);
        prop_assert_eq!(
            &answers,
            &truth_lines,
            "follower answer diverged from solo at epoch {} on {:?} under {:?}",
            epoch,
            text,
            mode
        );
        // Compare the certificate's semantic clauses (regime and
        // certification) and normalize out performance metadata:
        // the epoch clause (a rebuilt solo engine counts from 0 —
        // the real epoch check is the `done:`-stamped epoch that
        // selected `history[&epoch]`), the mapping count, and the
        // `(cached)` marker (cache hits elide the enumeration).
        let truth_cert = normalize_certificate(&truth.evidence().summary());
        let observed_cert = normalize_certificate(&certificate);
        prop_assert_eq!(
            &observed_cert,
            &truth_cert,
            "certificate diverged at epoch {} on {:?} under {:?}",
            epoch,
            text,
            mode
        );
    }

    handle.stop();
    running.shutdown().expect("primary drains");
    Ok(())
}

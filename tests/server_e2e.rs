//! End-to-end tests of the TCP network front-end over real loopback
//! sockets: N concurrent [`Client`]s against one `qld_server::Server`,
//! with every answer verified against a solo engine rebuilt at the epoch
//! stamped into the reply (the PR 6 differential discipline, now through
//! the wire). Also: the admission-control paths (auth, quotas, busy
//! rejection), abrupt mid-script disconnects, and graceful shutdown
//! draining in-flight replies.
//!
//! Run under `QLD_THREADS=1` and `QLD_THREADS=4` (CI does both): the
//! enumeration pool inside each snapshot is orthogonal to the socket
//! concurrency outside it.

use qld_workloads::{random_cw_db, DbGenConfig};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::ConstId;
use querying_logical_databases::prelude::{Client, Engine, Server, ServerConfig, SharedEngine};
use querying_logical_databases::server::proto;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

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

/// The query mix the reader clients send, with each text's Boolean-ness
/// (needed to render the solo engine's answers the way the server does).
const QUERIES: [(&str, bool); 3] = [
    ("(x, z) . exists y. P0(x, y) & P0(y, z)", false),
    ("(x) . P1(x) & !P0(x, x)", false),
    ("exists x. P0(x, x)", true),
];

/// `count` fresh (non-fact) `P0` pairs, as `(ConstIds, script line)` —
/// each insert is guaranteed to change the database, so the epoch after
/// the k-th insert is exactly `k` and the database there is exactly
/// `base` plus the first `k` facts.
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

fn start(
    db: &CwDatabase,
    config: ServerConfig,
) -> (
    querying_logical_databases::server::RunningServer,
    SocketAddr,
) {
    let shared = SharedEngine::new(Engine::new(db.clone()));
    let server = Server::bind(shared, config).expect("server binds");
    let addr = server.local_addr().expect("server addr");
    (server.spawn().expect("server spawns"), addr)
}

/// The differential tier: 3 concurrent clients hammer the query mix over
/// real sockets while a writer client streams `:insert` lines; every
/// reply's answer lines must be byte-identical to a solo engine rebuilt
/// from the database as it stood at the reply's stamped epoch.
#[test]
fn concurrent_clients_match_solo_engines_at_their_stamped_epochs() {
    const READERS: usize = 3;
    const ROUNDS: usize = 6;
    const DELTAS: usize = 10;
    let db = test_db(42);
    let inserts = fresh_inserts(&db, DELTAS);
    let (running, addr) = start(&db, ServerConfig::default());

    // What one reader saw for one request: query index, stamped epoch,
    // and the rendered answer lines.
    type Observation = (usize, u64, Vec<String>);
    let observations: Vec<Observation> = thread::scope(|scope| {
        let writer = {
            let inserts = &inserts;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("writer connects");
                for (i, (_, line)) in inserts.iter().enumerate() {
                    let reply = client.request(line).expect("insert round-trips");
                    assert!(reply.is_ok(), "{reply:?}");
                    // Fresh facts: the k-th insert publishes epoch k.
                    assert_eq!(reply.epoch, Some(i as u64 + 1), "{reply:?}");
                    thread::sleep(Duration::from_millis(1));
                }
                client.quit().expect("writer quits");
            })
        };
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    let mut observed: Vec<Observation> = Vec::new();
                    let mut last_epoch = 0u64;
                    for round in 0..ROUNDS {
                        for (qi, (text, _)) in QUERIES.iter().enumerate() {
                            let _ = (r, round);
                            let reply = client.request(text).expect("query round-trips");
                            assert!(reply.is_ok(), "{reply:?}");
                            let epoch = reply.epoch.expect("done line stamps the epoch");
                            assert!(
                                epoch >= last_epoch,
                                "epoch ran backwards over the wire: {epoch} after {last_epoch}"
                            );
                            last_epoch = epoch;
                            observed.push((qi, epoch, reply.answers));
                        }
                    }
                    client.quit().expect("reader quits");
                    observed
                })
            })
            .collect();
        writer.join().expect("writer panicked");
        readers
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    running.shutdown().expect("server drains");

    // The database as it stood at each epoch: base plus the first k
    // inserts (every insert was fresh, so each one published).
    let p0 = db.voc().pred_id("P0").unwrap();
    let mut db_at: HashMap<u64, CwDatabase> = HashMap::new();
    let mut evolving = db.clone();
    db_at.insert(0, evolving.clone());
    for (k, (args, _)) in inserts.iter().enumerate() {
        evolving.insert_fact(p0, args).unwrap();
        db_at.insert(k as u64 + 1, evolving.clone());
    }

    // Solo verification: rebuild an engine at the observed epoch and
    // demand the identical rendered answer lines.
    assert!(observations.len() >= READERS * ROUNDS * QUERIES.len());
    let mut solo: HashMap<u64, Engine> = HashMap::new();
    for (qi, epoch, answers) in observations {
        let engine = solo.entry(epoch).or_insert_with(|| {
            Engine::builder(db_at[&epoch].clone())
                .answer_cache(false)
                .build()
        });
        let (text, is_boolean) = QUERIES[qi];
        let prepared = engine.prepare_text(text).unwrap();
        let truth = engine.execute(&prepared).unwrap();
        let truth_lines =
            proto::answer_lines(db_at[&epoch].voc(), engine.semantics(), is_boolean, &truth);
        assert_eq!(
            answers, truth_lines,
            "socket answer diverged from solo engine at epoch {epoch} on {text:?}"
        );
    }
}

/// Admission control: a wrong (or missing) token closes the connection
/// with `error: auth`; the right token admits and serves.
#[test]
fn auth_token_gates_the_socket() {
    let db = test_db(7);
    let (running, addr) = start(
        &db,
        ServerConfig {
            auth_token: Some("sesame".to_string()),
            ..ServerConfig::default()
        },
    );

    let mut client = Client::connect(addr).unwrap();
    assert!(client.hello().auth_required);
    let reply = client.authenticate("wrong-token").unwrap();
    assert!(
        reply.error.as_deref().unwrap().starts_with("auth:"),
        "{reply:?}"
    );
    assert!(client.request("P1(k0)").is_err(), "connection must close");

    let mut client = Client::connect(addr).unwrap();
    let reply = client.authenticate("sesame").unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    let reply = client.request("exists x. P0(x, x)").unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    assert_eq!(reply.answers.len(), 1);
    running.shutdown().unwrap();
}

/// Quota exhaustion is a clean `error: quota` terminator followed by a
/// closed connection — never a hang — and other connections are
/// unaffected (quotas are per connection).
#[test]
fn quota_exhaustion_returns_a_clean_error_not_a_hang() {
    let db = test_db(11);
    let (running, addr) = start(
        &db,
        ServerConfig {
            query_quota: Some(2),
            delta_quota: Some(1),
            ..ServerConfig::default()
        },
    );

    let mut client = Client::connect(addr).unwrap();
    for _ in 0..2 {
        let reply = client.request("exists x. P0(x, x)").unwrap();
        assert!(reply.is_ok(), "{reply:?}");
    }
    let reply = client.request("exists x. P0(x, x)").unwrap();
    assert_eq!(
        reply.error.as_deref(),
        Some("quota: query quota exhausted (limit 2)"),
        "{reply:?}"
    );
    assert!(client.request("P1(k0)").is_err(), "connection must close");

    // The delta quota closes independently of the query quota.
    let mut client = Client::connect(addr).unwrap();
    let line = &fresh_inserts(&db, 1)[0].1;
    let reply = client.request(line).unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    let reply = client.request(line).unwrap();
    assert_eq!(
        reply.error.as_deref(),
        Some("quota: delta quota exhausted (limit 1)"),
        "{reply:?}"
    );

    // A fresh connection starts with a fresh quota.
    let mut client = Client::connect(addr).unwrap();
    let reply = client.request("exists x. P0(x, x)").unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    running.shutdown().unwrap();
}

/// An abrupt disconnect mid-script (a half-written request, no `:quit`)
/// must leave the shared writer fully usable: the next client applies
/// deltas and queries normally.
#[test]
fn mid_script_disconnect_leaves_the_writer_usable() {
    let db = test_db(23);
    let inserts = fresh_inserts(&db, 2);
    let (running, addr) = start(&db, ServerConfig::default());

    {
        // A raw socket so we can vanish mid-line: read the greeting, send
        // a delta, then drop with a half-written second request.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut greeting = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut greeting)
            .unwrap();
        assert!(greeting.starts_with("hello: qld"), "{greeting:?}");
        stream
            .write_all(format!("{}\n:insert P0(k0", inserts[0].1).as_bytes())
            .unwrap();
        // Dropped here: no newline, no :quit.
    }

    // The writer lock must be free: a fresh client can mutate and read.
    let mut client = Client::connect(addr).unwrap();
    let reply = client.request(&inserts[1].1).unwrap();
    assert!(reply.is_ok(), "writer wedged after disconnect: {reply:?}");
    let reply = client.request("(x, y) . P0(x, y)").unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    client.quit().unwrap();
    running.shutdown().unwrap();
}

/// Graceful shutdown: a client with requests in flight sees only
/// complete, well-formed reply frames (a torn frame would hang the
/// client or fail the terminator parse), and `run()` returns once the
/// drain completes.
#[test]
fn graceful_shutdown_drains_in_flight_replies() {
    let db = test_db(31);
    let (running, addr) = start(&db, ServerConfig::default());
    let handle = running.handle();
    let replies_seen = AtomicU64::new(0);

    thread::scope(|scope| {
        let reader = {
            let replies_seen = &replies_seen;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                let mut complete = 0u64;
                // The connection closing between frames (the `Err`) is the
                // one legal end: drain never cuts a frame in half.
                while let Ok(reply) = client.request("(x, z) . exists y. P0(x, y) & P0(y, z)") {
                    // Every reply that arrives is a full frame with its
                    // terminator's epoch stamp intact.
                    assert!(reply.is_ok(), "{reply:?}");
                    assert_eq!(reply.epoch, Some(0), "{reply:?}");
                    complete += 1;
                    replies_seen.store(complete, Ordering::Release);
                }
                complete
            })
        };
        // Let the client get real work in flight, then pull the plug.
        while replies_seen.load(Ordering::Acquire) < 5 {
            thread::yield_now();
        }
        handle.shutdown();
        let complete = reader.join().expect("reader panicked");
        assert!(complete >= 5, "only {complete} replies before shutdown");
    });
    running.join().expect("accept loop drains and returns");
}

/// Over-capacity connections are turned away with `error: busy` at
/// greeting time; capacity frees when a connection closes.
#[test]
fn busy_rejection_when_the_connection_cap_is_reached() {
    let db = test_db(47);
    let (running, addr) = start(
        &db,
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    );

    let mut first = Client::connect(addr).unwrap();
    // Round-trip once so the server has registered the connection.
    assert!(first.request("exists x. P0(x, x)").unwrap().is_ok());

    let err = Client::connect(addr).expect_err("second connection over cap");
    assert!(
        err.to_string().contains("busy"),
        "expected a busy rejection, got: {err}"
    );

    // Closing the first connection frees the slot.
    first.quit().unwrap();
    let mut second = loop {
        // The slot frees when the server-side thread finishes; poll.
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    };
    assert!(second.request("exists x. P0(x, x)").unwrap().is_ok());
    running.shutdown().unwrap();

    // After shutdown the port no longer accepts (or resets immediately).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let mut buf = [0u8; 1];
            let _ = s.set_read_timeout(Some(Duration::from_secs(1)));
            assert_ne!(s.read(&mut buf).unwrap_or(0), 1, "server still greeting");
        }
    }
}

/// `Client::set_timeout` (satellite): a wedged server surfaces as
/// [`std::io::ErrorKind::TimedOut`] with a diagnostic that says so, a
/// closed connection stays [`std::io::ErrorKind::UnexpectedEof`], and a
/// generous timeout leaves normal requests untouched.
#[test]
fn client_timeout_distinguishes_wedged_from_closed() {
    let greeting = proto::Hello {
        version: proto::PROTOCOL_VERSION,
        epoch: 0,
        auth_required: false,
    }
    .render();

    // A hand-rolled accept loop: greet, swallow one request line, then
    // either wedge (hold the socket silently) or slam it shut.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let banner = greeting.clone();
    let stage = thread::spawn(move || {
        let mut wedged = Vec::new();
        for turn in 0..2 {
            let (mut socket, _) = listener.accept().unwrap();
            writeln!(socket, "{banner}").unwrap();
            let mut line = String::new();
            BufReader::new(socket.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            if turn == 0 {
                wedged.push(socket); // never reply, never close
            } // turn == 1: drop = close mid-reply
        }
        wedged
    });

    // Wedged: the request goes out, no reply ever comes back.
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_millis(80))).unwrap();
    let err = client.request("exists x. P0(x, x)").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(err.to_string().contains("timed out"), "{err}");
    drop(client);

    // Closed: same timeout budget, but the error is the EOF diagnostic,
    // not a timeout — the two failure modes stay distinguishable.
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let err = client.request("exists x. P0(x, x)").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(err.to_string().contains("closed the connection"), "{err}");
    stage.join().unwrap();

    // A real server under a generous timeout answers normally.
    let db = test_db(77);
    let (running, addr) = start(&db, ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = client.request("exists x. P0(x, x)").unwrap();
    assert!(reply.error.is_none(), "{reply:?}");
    running.shutdown().unwrap();
}

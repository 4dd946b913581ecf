//! Prepared statements on the wire change what a repeated request line
//! costs, never what it means.
//!
//! A server connection keeps the query lines it has seen prepared
//! (`qld_server::script::Statements`) and the rendered `answer:` block
//! lives beside the cached answer, so a line sent again is neither parsed,
//! prepared nor rendered again. This suite sends one seeded script —
//! queries, repeats, `:insert`, `:assert-ne`, `# comments`, more distinct
//! lines than a connection keeps — three ways:
//!
//! * **(a)** down one long-lived connection, where every repeat is warm;
//! * **(b)** one fresh connection per line, where nothing ever is;
//! * **(c)** through a solo `Engine` and `proto::answer_lines`, no server.
//!
//! (a) and (b) must agree on every reply byte but the evidence tag's
//! `in <time>` tail and effort counts (a parallel enumeration's early
//! exit moves those); (c) must agree with both on every `answer:` block,
//! certificate and `done: epoch=`. The script puts a repeat on either
//! side of a delta (a kept statement outlives the epoch it was prepared
//! at) and on either side of the delta that makes the database fully
//! specified (its certificate must move from Theorem 1 to Corollary 2).
//!
//! Run under `QLD_THREADS=1` and `QLD_THREADS=4` (CI does both).

use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::ConstId;
use querying_logical_databases::prelude::{Client, Engine, Server, ServerConfig, SharedEngine};
use querying_logical_databases::server::proto::{self, Reply};
use querying_logical_databases::server::script::{self, Outcome};
use querying_logical_databases::server::RunningServer;
use querying_logical_databases::workloads::{random_cw_db, DbGenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;

const TOKEN: &str = "sesame";

/// More than a connection keeps prepared, so the long-lived connection
/// evicts and re-prepares.
const DISTINCT_LINES: usize = script::STATEMENT_CAPACITY + 8;

/// The open query whose certificate the last delta moves.
const NEGATED: &str = "(x) . !P1(x)";

/// The open query repeated either side of an insert that changes its
/// answer.
const SYMMETRIC: &str = "(x, y) . P0(x, y) | P0(y, x)";

const POOL: [&str; 6] = [
    "(x, z) . exists y. P0(x, y) & P0(y, z)",
    "(x) . P1(x) & !P0(x, x)",
    "exists x. P0(x, x)",
    NEGATED,
    SYMMETRIC,
    "forall x. P1(x) | !P0(x, x)",
];

/// A partially specified database with parser-friendly constant names.
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

/// The script, a function of the database and the seed.
fn script_lines(db: &CwDatabase, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let voc = db.voc();
    let n = db.num_consts() as u32;
    let name = |c: u32| voc.const_name(ConstId(c));
    let mut lines: Vec<String> = Vec::new();

    // Queries and their repeats among comments, blanks and deltas (an
    // `:insert` may repeat a fact and an `:assert-ne` an axiom: a delta
    // that changes nothing publishes nothing, on every path).
    for step in 0..60 {
        match rng.gen_range(0..20) {
            0 | 1 => lines.push(format!("# step {step}")),
            2 => lines.push(String::new()),
            3..=5 => lines.push(format!(
                ":insert P0({}, {})",
                name(rng.gen_range(0..n)),
                name(rng.gen_range(0..n))
            )),
            6 => {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                lines.push(format!(":assert-ne {} {}", name(a), name(b)));
            }
            _ => lines.push(POOL[rng.gen_range(0..POOL.len())].to_string()),
        }
    }

    // A repeat either side of a delta that certainly changes its answer.
    // (The random inserts above may have added the pair already; the
    // test checks they did not.)
    let p0 = voc.pred_id("P0").expect("workload predicate P0");
    let facts = db.facts(p0);
    let (a, b) = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .rfind(|&(a, b)| !facts.contains(&[a, b]) && !facts.contains(&[b, a]))
        .expect("a P0 pair that is not a fact either way round");
    lines.push(SYMMETRIC.to_string());
    lines.push(format!(":insert P0({}, {})", name(a), name(b)));
    lines.push(SYMMETRIC.to_string());

    // More distinct query lines than a connection keeps, then the
    // earliest of them again (evicted by now) and the pool (likewise).
    let distinct: Vec<String> = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .flat_map(|(a, b)| {
            let atom = format!("P0({}, {})", name(a), name(b));
            [atom.clone(), format!("!{atom}")]
                .into_iter()
                .chain((0..n).map(move |c| format!("{atom} & P1({})", name(c))))
                .collect::<Vec<_>>()
        })
        .take(DISTINCT_LINES)
        .collect();
    assert_eq!(distinct.len(), DISTINCT_LINES);
    lines.extend(distinct.iter().cloned());
    lines.extend(distinct.iter().take(4).cloned());
    lines.extend(POOL.iter().map(|q| q.to_string()));

    // The delta that makes the database fully specified, one axiom at a
    // time, with a repeat on either side.
    lines.push(NEGATED.to_string());
    for a in 0..n {
        for b in a + 1..n {
            if !db.is_ne(ConstId(a), ConstId(b)) {
                lines.push(format!(":assert-ne {} {}", name(a), name(b)));
            }
        }
    }
    lines.push(NEGATED.to_string());
    lines.extend(POOL.iter().map(|q| q.to_string()));
    lines
}

fn start(db: &CwDatabase, config: ServerConfig) -> (RunningServer, SocketAddr) {
    let shared = SharedEngine::new(Engine::new(db.clone()));
    let server = Server::bind(shared, config).expect("server binds");
    let addr = server.local_addr().expect("server addr");
    (server.spawn().expect("server spawns"), addr)
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("client connects");
    assert!(client.hello().auth_required);
    let reply = client.authenticate(TOKEN).expect("auth round-trips");
    assert!(reply.is_ok(), "{reply:?}");
    client
}

/// What two runs of one request must agree on in an evidence tag:
/// requested semantics and regime, certificate, epoch and the `(cached)`
/// mark. The `in <time>` tail is a clock, and the effort counts between
/// certificate and epoch (mappings evaluated and pruned, workers) move
/// with a parallel enumeration's early exit.
fn evidence_core(tag: &str) -> String {
    let (tag, _time) = tag.rsplit_once(" in ").expect("a tag ends in its time");
    let mut parts = tag.split(", ");
    let regime = parts.next().expect("requested → regime");
    let certificate = parts.next().expect("certificate");
    let epoch = parts.last().expect("epoch, and the cached mark");
    assert!(epoch.starts_with("epoch "), "{tag}");
    format!("{regime}, {certificate}, {epoch}")
}

/// A reply with what two runs may differ in removed.
fn comparable(mut reply: Reply) -> Reply {
    reply.evidence = reply.evidence.map(|tag| evidence_core(&tag));
    reply
}

/// A delta report without its cache clause: the reference it is held
/// against is a solo engine built without a cache, which evicts and
/// retains nothing. (`script_frontends` compares whole reports.)
fn delta_core(report: &str) -> &str {
    report.split(", cache:").next().unwrap()
}

#[test]
fn warm_cold_and_solo_agree_on_one_seeded_script() {
    let db = test_db(22);
    let lines = script_lines(&db, 22);
    let config = || ServerConfig {
        auth_token: Some(TOKEN.to_string()),
        ..ServerConfig::default()
    };

    // (a) One long-lived connection.
    let (running, addr) = start(&db, config());
    let mut client = connect(addr);
    let warm: Vec<Reply> = lines
        .iter()
        .map(|line| comparable(client.request(line).expect("request round-trips")))
        .collect();
    let stats = client.request(":stats").expect("stats round-trip");
    client.quit().expect("client quits");
    running.shutdown().expect("server drains");

    // (b) A fresh connection per line, against a server of its own (the
    // answer cache is the engine's, so it fills exactly as in (a)).
    let (running, addr) = start(&db, config());
    let cold: Vec<Reply> = lines
        .iter()
        .map(|line| {
            let mut client = connect(addr);
            let reply = client.request(line).expect("request round-trips");
            client.quit().expect("client quits");
            comparable(reply)
        })
        .collect();
    running.shutdown().expect("server drains");

    for (i, line) in lines.iter().enumerate() {
        assert_eq!(warm[i], cold[i], "line {i} `{line}`: warm ≠ cold");
    }

    // (c) A solo engine, no cache, no server.
    let mut solo = Engine::builder(db.clone()).answer_cache(false).build();
    for (i, line) in lines.iter().enumerate() {
        let reply = &warm[i];
        let context = format!("line {i} `{line}`: {reply:?}");
        let parsed = script::parse_line(solo.db().voc(), line).expect("the script parses");
        let Some(parsed) = parsed else {
            assert!(reply.is_ok() && reply.answers.is_empty(), "{context}");
            assert_eq!(reply.epoch, Some(solo.epoch()), "{context}");
            continue;
        };
        match script::run_line(&mut solo, parsed).expect("the script runs") {
            Outcome::Answers {
                is_boolean,
                answers,
            } => {
                let want =
                    proto::answer_lines(solo.db().voc(), solo.semantics(), is_boolean, &answers);
                assert_eq!(reply.answers, want, "{context}");
                let evidence = answers.evidence();
                let tag = reply
                    .evidence
                    .as_deref()
                    .expect("a query reply has evidence");
                let certified = format!(
                    "{} → {}, {}",
                    evidence.requested, evidence.regime, evidence.certificate
                );
                assert!(tag.starts_with(&certified), "{context}: want {certified}");
                assert!(
                    tag.contains(&format!(", epoch {}", evidence.epoch)),
                    "{context}"
                );
                assert_eq!(reply.epoch, Some(evidence.epoch), "{context}");
            }
            Outcome::Delta(report) => {
                let got = reply
                    .delta
                    .as_deref()
                    .expect("a mutation reply has a report");
                assert_eq!(
                    delta_core(got),
                    delta_core(&report.to_string()),
                    "{context}"
                );
                assert_eq!(reply.epoch, Some(report.epoch), "{context}");
            }
            other => panic!("{context}: unexpected {other:?}"),
        }
    }
    assert!(solo.db().is_fully_specified());

    // The script did what its comments claim.
    let negated: Vec<&Reply> = lines
        .iter()
        .zip(&warm)
        .filter(|(line, _)| *line == NEGATED)
        .map(|(_, reply)| reply)
        .collect();
    let tag = |reply: &Reply| reply.evidence.clone().unwrap();
    assert!(tag(negated[0]).contains("Theorem 1"), "{negated:?}");
    let last_two = &negated[negated.len() - 2..];
    assert!(tag(last_two[0]).contains("Corollary 2"), "{negated:?}");
    assert!(tag(last_two[1]).contains("(cached)"), "{negated:?}");
    let straddle = lines
        .iter()
        .rposition(|line| line.starts_with(":insert"))
        .expect("the straddled insert");
    let (before, after) = (&warm[straddle - 1], &warm[straddle + 1]);
    assert_eq!(lines[straddle - 1], lines[straddle + 1]);
    assert_eq!(after.epoch, before.epoch.map(|e| e + 1));
    assert!(!tag(after).contains("(cached)"), "served across a delta");
    assert_ne!(before.answers, after.answers);

    // Every repeat on the long-lived connection was warm unless the
    // statement had been evicted: at least the pool repeats were, and
    // fewer than all queries (the distinct lines were not).
    let connection = stats
        .stats
        .iter()
        .find(|s| s.starts_with("connection: "))
        .expect("a connection stat line");
    let reused: usize = connection
        .split(", ")
        .find_map(|part| part.strip_suffix(" statement(s) reused)"))
        .and_then(|count| count.parse().ok())
        .unwrap_or_else(|| panic!("no reuse count in `{connection}`"));
    let queries = warm.iter().filter(|r| r.evidence.is_some()).count();
    assert!(reused >= 20, "{connection}");
    assert!(reused < queries - DISTINCT_LINES, "{connection}");
}

#[test]
fn a_warm_statement_still_meets_the_quota_and_the_auth_gate() {
    let db = test_db(7);
    let (running, addr) = start(
        &db,
        ServerConfig {
            auth_token: Some(TOKEN.to_string()),
            query_quota: Some(3),
            ..ServerConfig::default()
        },
    );

    // The statement is warm from the second send on; the quota counts it
    // all the same and closes the connection at the limit.
    let mut client = connect(addr);
    for i in 0..3 {
        let reply = client.request(POOL[0]).expect("query round-trips");
        assert!(reply.is_ok(), "send {i}: {reply:?}");
    }
    let reply = client.request(POOL[0]).expect("the refusal round-trips");
    assert_eq!(
        reply.error.as_deref(),
        Some("quota: query quota exhausted (limit 3)")
    );
    assert!(
        client.request(POOL[0]).is_err(),
        "the connection should be closed"
    );

    // A line another connection has made hot is still behind the gate.
    let mut stranger = Client::connect(addr).expect("client connects");
    let reply = stranger.request(POOL[0]).expect("the refusal round-trips");
    assert!(
        reply.error.as_deref().unwrap().starts_with("auth:"),
        "{reply:?}"
    );
    running.shutdown().expect("server drains");
}

//! One script, four front-ends: the interactive shell (line by line),
//! `--batch`, `--sessions N` and a loopback server all execute the
//! dialect through `qld_server::script::{run_line, run_script}`, so after
//! stripping each front-end's dressing the same script must mean the
//! same thing everywhere — tuples, verdicts, regimes, certificates,
//! epochs and whole delta reports, the cache clause included (one cache
//! policy behind every front-end) — and a malformed line must draw the
//! same diagnostic.
//!
//! Run under `QLD_THREADS=1` and `QLD_THREADS=4` (CI does both).

use querying_logical_databases::cli::{concurrent_batch_text, Outcome, Session};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::prelude::{
    from_text, Client, Engine, Server, ServerConfig, SharedEngine,
};
use querying_logical_databases::server::proto::Reply;
use querying_logical_databases::server::script::parse_line;

/// `mystery` may be any of the three named philosophers: not fully
/// specified until it is told apart from each of them.
fn sample() -> CwDatabase {
    from_text(
        "const socrates plato aristotle mystery\n\
         pred TEACHES/2\n\
         fact TEACHES(socrates, plato)\n\
         distinct socrates plato aristotle\n",
    )
    .unwrap()
}

/// A positive query (§5, Theorem 13), a negated one that escalates to
/// Theorem 1, a Boolean one, an insert and its duplicate, three axioms
/// the last of which makes the database fully specified and flips the
/// negated query's certificate to Corollary 2, and `:stats`. One
/// escalating query per segment and no repeat inside one, so the
/// evidence does not depend on who batches what.
const SCRIPT: &[&str] = &[
    "# one script, four front-ends",
    "(x) . TEACHES(socrates, x)",
    "(x) . !TEACHES(socrates, x)",
    "TEACHES(socrates, mystery)",
    ":insert TEACHES(plato, aristotle)",
    ":insert TEACHES(plato, aristotle)",
    ":assert-ne mystery socrates",
    ":assert-ne mystery plato",
    "(x) . !TEACHES(socrates, x)",
    "",
    ":assert-ne mystery aristotle",
    "(x) . !TEACHES(socrates, x)",
    ":stats",
];

/// What a front-end said, without its dressing.
#[derive(Debug, Default, PartialEq)]
struct Transcript {
    /// One entry per query, delta or error, in script order.
    events: Vec<String>,
    /// The `:stats` lines (each front-end has its own set).
    stats: Vec<String>,
}

/// The part of an evidence tag every front-end must agree on: requested
/// semantics, regime, certificate and epoch. Mapping counts, cache and
/// batch marks and the elapsed time depend on who ran the query beside
/// which others.
fn evidence_core(tag: &str) -> String {
    let mut parts = tag.splitn(3, ", ");
    let regime = parts.next().unwrap();
    let certificate = parts.next().unwrap();
    let rest = parts.next().unwrap();
    let epoch = rest.split(", ").find(|p| p.starts_with("epoch ")).unwrap();
    let epoch = epoch.split(' ').nth(1).unwrap();
    format!("{regime}, {certificate}, epoch {epoch}")
}

fn answer_event(payload: &[String], tag: &str) -> String {
    format!("answer {} | {}", payload.join(" "), evidence_core(tag))
}

/// Reads what the shell, `--batch` and `--sessions` print.
fn local_transcript(output: &str) -> Transcript {
    let mut transcript = Transcript::default();
    let mut tuples: Vec<String> = Vec::new();
    for line in output.lines() {
        if line.starts_with("> ") || line.contains("batch: ") {
            // The echo and the footer.
        } else if let Some((body, tag)) = line.rsplit_once("   [") {
            let tag = tag.strip_suffix(']').unwrap();
            let payload = match body.strip_suffix(" tuple(s)") {
                Some(count) => {
                    assert_eq!(count.parse::<usize>().unwrap(), tuples.len(), "{output}");
                    std::mem::take(&mut tuples)
                }
                None => vec![body.to_string()],
            };
            transcript.events.push(answer_event(&payload, tag));
        } else if line.starts_with('(') {
            tuples.push(line.to_string());
        } else if line.contains(" fact(s) inserted (") {
            transcript.events.push(format!("delta {line}"));
        } else if let Some(e) = line.strip_prefix("error: ") {
            transcript.events.push(format!("error {e}"));
        } else {
            transcript.stats.push(line.to_string());
        }
    }
    assert!(tuples.is_empty(), "{output}");
    transcript
}

/// Reads the replies a server sent.
fn wire_transcript(replies: &[Reply]) -> Transcript {
    let mut transcript = Transcript::default();
    for reply in replies {
        if let Some(e) = &reply.error {
            transcript.events.push(format!("error {e}"));
        } else if let Some(tag) = &reply.evidence {
            transcript.events.push(answer_event(&reply.answers, tag));
            assert_eq!(
                evidence_core(tag).rsplit(' ').next().unwrap().parse().ok(),
                reply.epoch,
                "`done: epoch=` is the epoch in the evidence"
            );
        } else if let Some(report) = &reply.delta {
            transcript.events.push(format!("delta {report}"));
        }
        transcript.stats.extend(reply.stats.iter().cloned());
    }
    transcript
}

fn shell(lines: &[&str]) -> String {
    let mut session = Session::new(sample());
    let mut out = Vec::new();
    for line in lines {
        session.execute(line, &mut out).unwrap();
    }
    String::from_utf8(out).unwrap()
}

fn batch(text: &str) -> (String, bool) {
    let mut out = Vec::new();
    let ran = Session::new(sample()).batch_text(text, &mut out).unwrap();
    (String::from_utf8(out).unwrap(), ran)
}

fn sessions(n: usize, text: &str) -> (String, bool) {
    let mut out = Vec::new();
    let ran = concurrent_batch_text(Engine::new(sample()), n, text, &mut out).unwrap();
    (String::from_utf8(out).unwrap(), ran)
}

/// Sends every line to a fresh loopback server, one request each.
fn wire(lines: &[&str]) -> Vec<Reply> {
    let shared = SharedEngine::new(Engine::new(sample()));
    let server = Server::bind(shared, ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let running = server.spawn().unwrap();
    let mut client = Client::connect(addr).unwrap();
    let replies = lines
        .iter()
        .map(|line| client.request(line).unwrap())
        .collect();
    running.shutdown().unwrap();
    replies
}

#[test]
fn one_script_means_the_same_in_all_four_front_ends() {
    let text = SCRIPT.join("\n");
    let by_line = local_transcript(&shell(SCRIPT));

    // What the script is there to show, read off the shell's transcript.
    let events = &by_line.events;
    assert_eq!(events.len(), 10, "{events:#?}");
    assert!(
        events[0].starts_with("answer (plato) | auto → §5 approx, exact (Theorem 11 + Theorem 13)"),
        "{events:#?}"
    );
    assert!(
        events[1]
            .starts_with("answer (socrates) (aristotle) | auto → Theorem 1, exact (Theorem 1)"),
        "{events:#?}"
    );
    assert!(
        events[2].starts_with("answer not certain | "),
        "{events:#?}"
    );
    assert!(events[3].starts_with("delta 1 fact(s) inserted (0 duplicate)"));
    assert!(
        events[3].ends_with("cache: 3 evicted / 0 retained"),
        "{events:#?}"
    );
    assert!(events[4].starts_with("delta 0 fact(s) inserted (1 duplicate)"));
    assert!(
        events[8].ends_with("cache: 1 evicted / 0 retained"),
        "{events:#?}"
    );
    assert!(events[7].contains("auto → Theorem 1, exact (Theorem 1), epoch 3"));
    assert!(
        events[9].contains("auto → Corollary 2, exact (Corollary 2), epoch 4"),
        "the fully specifying axiom flips the certificate: {events:#?}"
    );

    let (batch_out, ran) = batch(&text);
    assert!(ran, "{batch_out}");
    assert!(batch_out.ends_with("batch: 5 query(s), 5 delta(s)\n"));
    assert_eq!(local_transcript(&batch_out).events, *events, "--batch");

    let mut pools = Vec::new();
    for n in [1, 3] {
        let (out, ran) = sessions(n, &text);
        assert!(ran, "{out}");
        let footer = format!(
            "concurrent batch: 5 query(s) across {n} session(s), 5 delta(s), final epoch 4\n"
        );
        assert!(out.ends_with(&footer), "{out}");
        let pool = local_transcript(&out);
        assert_eq!(pool.events, *events, "--sessions {n}");
        pools.push(pool);
    }

    let remote = wire_transcript(&wire(SCRIPT));
    assert_eq!(remote.events, *events, "over the wire");

    // `:stats` is rendered once for every front-end over a shared engine:
    // the wire adds only its own connection and server lines.
    let shared_stats: Vec<String> = remote
        .stats
        .into_iter()
        .filter(|l| !l.starts_with("connection: ") && !l.starts_with("server: "))
        .collect();
    assert_eq!(
        shared_stats, pools[0].stats,
        "the wire against --sessions 1"
    );
    let line = |stats: &[String], prefix: &str| -> String {
        let found = stats.iter().find(|l| l.starts_with(prefix));
        found
            .unwrap_or_else(|| panic!("no `{prefix}` in {stats:#?}"))
            .clone()
    };
    let decomposition = line(&pools[0].stats, "decomposition: ");
    assert_eq!(
        decomposition,
        "decomposition: 1 NE component(s), 0 free constant(s)"
    );
    assert!(line(&by_line.stats, "decomposition: ").starts_with(&decomposition));
    assert_eq!(
        line(&pools[1].stats, "replication: "),
        "replication: role=primary generation=1 applied=4 lag=0 followers=0"
    );
}

#[test]
fn a_malformed_line_draws_one_diagnostic_everywhere() {
    // The table of `script.rs::error_diagnostics_are_stable`. `:mode` is
    // the one line the shell takes and a script refuses.
    let malformed = [
        "NOPE(",
        ":insert TEACHES(socrates, plato) | TEACHES(plato, socrates)",
        ":insert TEACHES(socrates, x)",
        ":insert",
        ":assert-ne socrates",
        ":assert-ne socrates nope",
        ":mode exact",
    ];
    let db = sample();
    for bad in malformed {
        let diagnostic = parse_line(db.voc(), bad).unwrap_err().to_string();
        // A good line first: nothing of it may run.
        let text = format!("TEACHES(socrates, plato)\n{bad}\n");
        let refused = format!("line 2: {diagnostic}\n");

        let (out, ran) = batch(&text);
        assert!(!ran);
        assert_eq!(out, refused, "--batch on {bad}");
        let (out, ran) = sessions(2, &text);
        assert!(!ran);
        assert_eq!(out, refused, "--sessions on {bad}");

        let reply = &wire(&[bad])[0];
        assert_eq!(reply.error.as_deref(), Some(&*diagnostic), "wire on {bad}");

        let said = shell(&[bad]);
        if bad.starts_with(":mode") {
            assert_eq!(said, "mode: exact\n");
        } else {
            assert_eq!(said, format!("{diagnostic}\n"), "shell on {bad}");
        }
    }
}

#[test]
fn shutdown_quits_the_shell() {
    let mut session = Session::new(sample());
    let mut out = Vec::new();
    let outcome = session.execute(":shutdown", &mut out).unwrap();
    assert_eq!(outcome, Outcome::Quit);
    assert!(out.is_empty(), "{}", String::from_utf8_lossy(&out));
}

#[test]
fn one_reader_session_shares_an_enumeration_like_batch() {
    // `batch_text_shares_one_enumeration`'s script (src/cli.rs).
    let script = "# comment\n\
                  (x) . TEACHES(socrates, x)\n\
                  (x) . !TEACHES(socrates, x)\n\
                  (x, y) . !TEACHES(x, y)\n";
    let (solo, ran) = batch(script);
    assert!(ran, "{solo}");
    let (pooled, ran) = sessions(1, script);
    assert!(ran, "{pooled}");
    for out in [&solo, &pooled] {
        assert_eq!(out.matches("shared across batch of 2").count(), 2, "{out}");
    }
    assert_eq!(
        local_transcript(&solo).events,
        local_transcript(&pooled).events
    );
}

//! `wire_read` — the network front-end, on the cache-hit side.
//!
//! `qld_server::Server`s on loopback ports, one blocking `Client` each,
//! 48 distinct request lines round-robin, no writes. Per request the
//! server runs `script::parse_line` → `prepare` → shared-cache hit →
//! `proto` render → frame → socket, so the parser, prepare/rewrite, the
//! cache-hit path, `proto` and TCP do the work; evaluation, publish and
//! the WAL do none. It is the hit side of the same cache and snapshot
//! machinery `approx_churn` uses on the miss side.
//!
//! A run draws [`DATABASES`] databases from its seed, serves each from a
//! server of its own and sends a quarter of a pass's requests to each in
//! turn (one connection is busy at a time, the others wait in `read`). A
//! reply costs what its answer is long: the join's 34 µs against 11–17 µs
//! for the other shapes hold p95, and the join of a single 24-constant
//! database moves it by ±9 % from seed to seed.

use crate::harness::inputs::{self, standard_db, wire_lines};
use crate::harness::layers::ProbeInputs;
use crate::harness::stats::Sample;
use crate::harness::trace::Tracer;
use crate::harness::{Class, PassLog, RunConfig, Workload};
use qld_core::CwDatabase;
use qld_engine::{SharedEngine, SharedSession};
use qld_server::proto::{self, Reply};
use qld_server::script::{self, ScriptLine};
use qld_server::{Client, RunningServer, Server, ServerConfig};
use std::time::Instant;

use super::{exact_probe_db, serving_engine, sub_seed};

/// Databases — and servers — per run.
const DATABASES: usize = 4;
const CONSTANTS: usize = 24;
/// Request lines per serving shape (the shape itself + 7 `c = c` forms).
const LINES_PER_SHAPE: usize = 8;

/// One served database.
struct Target {
    db: CwDatabase,
    lines: Vec<String>,
    shared: SharedEngine,
    /// `Some` until drop.
    client: Option<Client>,
    server: Option<RunningServer>,
    /// An in-process session on the served engine: the traced pass replays
    /// each request through the calls the connection thread makes.
    replay: SharedSession,
}

/// See the module docs.
pub struct WireRead {
    targets: Vec<Target>,
    requests: usize,
    warm_up_requests: usize,
    checked: bool,
    seed: u64,
}

impl Target {
    fn serve(db: CwDatabase) -> Target {
        let shared = SharedEngine::new(serving_engine(db.clone()));
        let server =
            Server::bind(shared.clone(), ServerConfig::default()).expect("loopback server binds");
        let addr = server.local_addr().expect("bound address");
        let server = server.spawn().expect("server thread starts");
        let client = Client::connect(addr).expect("client connects");
        Target {
            lines: wire_lines(&db, LINES_PER_SHAPE),
            db,
            replay: shared.session(),
            shared,
            client: Some(client),
            server: Some(server),
        }
    }

    /// The server's request path for a query line, one span per layer
    /// call (the connection thread itself cannot be instrumented from
    /// here; this is the same work on the same shared cache).
    fn replay_request(&mut self, l: usize, tracer: &mut Tracer) {
        let snapshot = self.shared.snapshot();
        let voc = snapshot.engine().db().voc();
        let mode = snapshot.engine().semantics();
        let open = tracer.begin("server.parse_line");
        let parsed = script::parse_line(voc, &self.lines[l]);
        tracer.end(open);
        let Ok(Some(ScriptLine::Query(query))) = parsed else {
            return;
        };
        let is_boolean = query.is_boolean();
        let open = tracer.begin("engine.prepare");
        let prepared = self.replay.prepare(query);
        tracer.end(open);
        let Ok(prepared) = prepared else { return };
        let open = tracer.begin("concurrent.execute.hit");
        let answers = self.replay.execute_as(&prepared, mode);
        tracer.end(open);
        let Ok(answers) = answers else { return };
        let open = tracer.begin("server.render");
        let rendered = (
            proto::answer_lines(voc, mode, is_boolean, &answers),
            proto::evidence_tag(answers.evidence()),
        );
        tracer.end(open);
        std::hint::black_box(rendered);
    }

    /// `requests` requests round-robin over the lines; returns the cache
    /// hits and the first reply to each line.
    fn request_loop(
        &mut self,
        requests: usize,
        tracer: &mut Tracer,
        log: &mut PassLog,
    ) -> (u64, Vec<Option<Reply>>) {
        let mut first: Vec<Option<Reply>> = vec![None; self.lines.len()];
        let mut hits = 0;
        for i in 0..requests {
            let l = i % self.lines.len();
            tracer.next_op();
            let op = tracer.begin("op");
            let open = tracer.begin("client.request");
            let timer = Instant::now();
            let reply = self
                .client
                .as_mut()
                .expect("client lives until drop")
                .request(&self.lines[l]);
            let ns = timer.elapsed().as_nanos() as u64;
            tracer.end(open);
            log.samples.push(Sample { class: 0, ns });
            match reply {
                // Every timed reply is a cache hit.
                Ok(reply)
                    if reply.is_ok()
                        && reply
                            .evidence
                            .as_deref()
                            .is_some_and(|e| e.contains("(cached)")) =>
                {
                    hits += 1;
                    if i < first.len() {
                        first[l] = Some(reply);
                    }
                }
                _ => log.failed_ops += 1,
            }
            if tracer.enabled() {
                self.replay_request(l, tracer);
            }
            tracer.end(op);
        }
        (hits, first)
    }

    /// Each distinct line's `answer:` lines against a solo engine's.
    fn check(&self, first: &[Option<Reply>], log: &mut PassLog) {
        let solo = serving_engine(self.db.clone());
        for (line, reply) in self.lines.iter().zip(first) {
            let query = inputs::parse(&self.db, line);
            let want = solo.query(line).map(|answers| {
                proto::answer_lines(
                    self.db.voc(),
                    solo.semantics(),
                    query.is_boolean(),
                    &answers,
                )
            });
            let ok = match (reply, want) {
                (Some(reply), Ok(want)) => reply.answers == want,
                _ => false,
            };
            log.check(ok, || format!("`{line}`: answer lines ≠ a solo engine's"));
        }
    }
}

impl Drop for Target {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            let _ = client.quit();
        }
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
    }
}

impl WireRead {
    /// `requests` requests, an equal share to each server in turn; with
    /// `check`, each line's first reply against a solo engine.
    fn request_loop(
        &mut self,
        requests: usize,
        check: bool,
        tracer: &mut Tracer,
        log: &mut PassLog,
    ) {
        let share = requests / self.targets.len();
        let mut hits = 0;
        let mut firsts = Vec::with_capacity(self.targets.len());
        let start = Instant::now();
        for target in &mut self.targets {
            let (target_hits, first) = target.request_loop(share, tracer, log);
            hits += target_hits;
            firsts.push(first);
        }
        log.wall = start.elapsed();
        log.counters = vec![("reads", log.samples.len() as u64), ("cache_hits", hits)];
        if check {
            for (target, first) in self.targets.iter().zip(&firsts) {
                target.check(first, log);
            }
        }
    }
}

impl Workload for WireRead {
    const NAME: &'static str = "wire_read";
    const CLASSES: &'static [Class] = &[Class {
        name: "hit",
        gated: true,
    }];

    fn setup(config: &RunConfig) -> WireRead {
        let (databases, requests, warm_up_requests) = if config.smoke {
            (2, 200, 100)
        } else {
            (DATABASES, 5_000, 14_000)
        };
        WireRead {
            targets: (0..databases)
                .map(|k| Target::serve(standard_db(CONSTANTS, sub_seed(config.seed, k as u64))))
                .collect(),
            requests,
            warm_up_requests,
            checked: false,
            seed: config.seed,
        }
    }

    fn warm_up(&mut self) -> Vec<Sample> {
        // The first round misses by design; the replies are checked in
        // the first timed pass instead.
        let mut log = PassLog::default();
        self.request_loop(self.warm_up_requests, false, &mut Tracer::off(), &mut log);
        log.samples
    }

    fn pass(&mut self, tracer: &mut Tracer) -> PassLog {
        let mut log = PassLog::default();
        let check = !std::mem::replace(&mut self.checked, true);
        self.request_loop(self.requests, check, tracer, &mut log);
        log
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            db: self.targets[0].db.clone(),
            exact_db: exact_probe_db(self.seed),
            texts: self.targets[0].lines.clone(),
        }
    }
}

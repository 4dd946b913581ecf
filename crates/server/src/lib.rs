//! # qld_server — the TCP network front-end for the shared engine
//!
//! A std-only (no async runtime) line-protocol server that exposes a
//! [`SharedEngine`] over sockets, speaking the same `:batch` script
//! dialect the CLI runs locally (see [`script`]). The design is the
//! classic thread-per-connection loop over the snapshot-publish core
//! built in `qld_engine::concurrent`:
//!
//! * the accept loop hands each connection its own OS thread and one
//!   persistent [`SharedSession`] — reads are wait-free against the
//!   epoch-stamped published snapshot, `:insert`/`:assert-ne` route
//!   through the engine's single writer, and every reply carries the
//!   epoch that produced it (see [`proto`] for the framing);
//! * **admission control** is layered: a connection cap
//!   ([`ServerConfig::max_connections`], excess connections get
//!   `error: busy` and are closed), optional per-connection query/delta
//!   quotas (`error: quota`), an optional shared-secret token
//!   ([`ServerConfig::auth_token`], checked before anything else), and —
//!   at the engine layer — `mapping_budget`, which makes Auto refuse
//!   hopeless Theorem 1 enumerations with a certified bound instead of
//!   burning the server's CPU;
//! * **graceful shutdown**: [`ServerHandle::shutdown`] (or the
//!   `:shutdown` wire command) flips a flag, closes the read half of
//!   every open connection and wakes the blocking accept loop with one
//!   loopback connect; an idle connection thread reads EOF at once, a
//!   busy one finishes its in-flight reply first, and the server joins
//!   them all before returning — no reply is ever cut off mid-frame.
//!   Nothing runs on a tick: accepts, reads and the follower's backoff
//!   block until their own event wakes them, and an idle replication
//!   feed notices shutdown at its next heartbeat;
//! * per-connection [`ConnectionStats`] (queries, cache hits, deltas,
//!   rejections) fold into aggregate [`ServerStats`] counters and are
//!   reported live in the `:stats` reply.
//!
//! The crate also ships the blocking [`Client`] used by the e2e tests,
//! the CI smoke driver, and `perfbench`'s `wire_read` workload.
//!
//! ```no_run
//! use qld_engine::{Engine, SharedEngine};
//! use qld_server::{Client, Server, ServerConfig};
//! # let db: qld_core::CwDatabase = unimplemented!();
//!
//! let shared = SharedEngine::new(Engine::new(db));
//! let server = Server::bind(shared, ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let running = server.spawn().unwrap();
//!
//! let mut client = Client::connect(addr).unwrap();
//! let reply = client.request("(x) . TEACHES(socrates, x)").unwrap();
//! assert!(reply.is_ok());
//! println!("{:?} at epoch {:?}", reply.answers, reply.epoch);
//! running.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod proto;
pub mod replication;
pub mod script;

use proto::{EvidenceTag, Hello, Reply, PROTOCOL_VERSION};
use qld_engine::{SharedEngine, SharedSession};
use script::{Database, Outcome, Readers, ScriptLine, Statement, Statements};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port; read the
    /// actual one back with [`Server::local_addr`]).
    pub addr: String,
    /// Connection cap: further connections are greeted with
    /// `error: busy` and closed immediately.
    pub max_connections: usize,
    /// Optional shared secret. When set, the first request on every
    /// connection must be `auth <token>`; anything else (or a wrong
    /// token) gets `error: auth` and the connection is closed.
    pub auth_token: Option<String>,
    /// Per-connection query quota: the connection is closed with
    /// `error: quota` when a request would exceed it.
    pub query_quota: Option<u64>,
    /// Per-connection delta quota (`:insert`/`:assert-ne`).
    pub delta_quota: Option<u64>,
    /// Idle cutoff: a connection silent this long, or still sending one
    /// request line this long after it began, is closed with
    /// `error: timeout` (a trickling client within twice this). Non-zero
    /// ([`Server::bind`] refuses zero).
    pub read_timeout: Duration,
    /// Socket write timeout for replies (a stuck client cannot wedge a
    /// connection thread forever); non-zero, like `read_timeout`.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            auth_token: None,
            query_quota: None,
            delta_quota: None,
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Structured statistics of one connection, folded into the server
/// aggregates when the connection closes and reported in its `:stats`
/// reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Queries answered on this connection.
    pub queries: u64,
    /// Of those, answers served from the engine's answer cache.
    pub cache_hits: u64,
    /// Of those, query lines the connection had already prepared: sent
    /// again, they ran without being parsed or prepared again (see
    /// [`script::STATEMENT_CAPACITY`]).
    pub statements_reused: u64,
    /// Deltas applied by this connection.
    pub deltas: u64,
    /// Requests refused (auth failures, quota/timeout closures, script
    /// and engine errors).
    pub rejections: u64,
}

/// Aggregate server counters (monotone over the server's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted into a handler thread.
    pub connections_accepted: u64,
    /// Connections turned away by the `max_connections` cap.
    pub connections_rejected: u64,
    /// Connections currently being served.
    pub active_connections: usize,
    /// Queries answered across all connections.
    pub queries_served: u64,
    /// Of those, answer-cache hits.
    pub cache_hits: u64,
    /// Deltas applied across all connections.
    pub deltas_applied: u64,
    /// `error:` terminators sent.
    pub errors_sent: u64,
    /// Malformed frames refused at the transport layer (over-long
    /// request lines, invalid UTF-8) — before script parsing even runs.
    pub protocol_errors: u64,
}

#[derive(Debug, Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    queries_served: AtomicU64,
    cache_hits: AtomicU64,
    deltas_applied: AtomicU64,
    errors_sent: AtomicU64,
    protocol_errors: AtomicU64,
}

#[derive(Debug)]
struct ServerState {
    /// The listener's address: where shutdown's wake-up connect goes.
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Every open connection's socket, by id. Its lock orders
    /// registration against the shutdown sweep, so no accepted
    /// connection misses the sweep.
    open: Mutex<HashMap<u64, TcpStream>>,
    counters: Counters,
}

impl ServerState {
    fn open(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        // The map is whole after any panic: poisoning guards nothing.
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds an accepted connection to the registry. One that arrives
    /// after shutdown began has its read half closed at once.
    fn register(&self, id: u64, stream: TcpStream) {
        let mut open = self.open();
        if self.shutdown.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        open.insert(id, stream);
    }

    /// Signals graceful shutdown (once): sets the flag and closes the
    /// read half of every open connection under the registry lock — an
    /// idle connection reads EOF at once, one mid-request still writes
    /// its reply whole — then wakes the blocking accept loop with one
    /// connect to the listener.
    fn shutdown(&self) {
        {
            let open = self.open();
            if self.shutdown.swap(true, Ordering::AcqRel) {
                return;
            }
            for stream in open.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.counters.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.counters.connections_rejected.load(Ordering::Relaxed),
            active_connections: self.open().len(),
            queries_served: self.counters.queries_served.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            deltas_applied: self.counters.deltas_applied.load(Ordering::Relaxed),
            errors_sent: self.counters.errors_sent.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable remote control for a running [`Server`]: signal shutdown
/// and read live statistics from any thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Signals graceful shutdown: stop accepting, close the read half
    /// of every connection (a reply being written still goes out whole),
    /// join every connection thread. [`Server::run`] returns once the
    /// drain completes.
    pub fn shutdown(&self) {
        self.state.shutdown();
    }

    /// Whether shutdown has been signalled.
    pub fn is_shutdown(&self) -> bool {
        self.state.shutdown.load(Ordering::Acquire)
    }

    /// A snapshot of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }
}

/// The TCP front-end: a bound listener plus the [`SharedEngine`] it
/// serves. Drive it with [`Server::run`] (blocking) or
/// [`Server::spawn`] (own thread, for tests and embedding).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: SharedEngine,
    config: Arc<ServerConfig>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener. The engine keeps serving local sessions too —
    /// `SharedEngine` is already shared; the server is just one more
    /// front door. A zero `read_timeout` or `write_timeout` is refused
    /// ([`io::ErrorKind::InvalidInput`]): no socket takes a zero timeout.
    pub fn bind(shared: SharedEngine, config: ServerConfig) -> io::Result<Server> {
        if config.read_timeout.is_zero() || config.write_timeout.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "read_timeout and write_timeout must be non-zero",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            shared,
            config: Arc::new(config),
            state: Arc::new(ServerState {
                addr: listener.local_addr()?,
                shutdown: AtomicBool::new(false),
                open: Mutex::new(HashMap::new()),
                counters: Counters::default(),
            }),
            listener,
        })
    }

    /// The bound address (the real port when the config asked for `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control valid for this server's whole lifetime.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            state: self.state.clone(),
        })
    }

    /// Runs the accept loop until shutdown is signalled (via a
    /// [`ServerHandle`] or the `:shutdown` wire command), then joins
    /// every connection thread so all in-flight replies drain before
    /// returning.
    pub fn run(self) -> io::Result<()> {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let result = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            // Shutdown's wake-up connect, or a client that raced it:
            // neither counted nor served.
            if self.state.shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            workers.retain(|w| !w.is_finished());
            if self.state.open().len() >= self.config.max_connections {
                self.state
                    .counters
                    .connections_rejected
                    .fetch_add(1, Ordering::Relaxed);
                reject_busy(stream, self.config.max_connections);
                continue;
            }
            // A connection the sweep could not reach is not served.
            let Ok(registered) = stream.try_clone() else {
                continue;
            };
            let id = self
                .state
                .counters
                .connections_accepted
                .fetch_add(1, Ordering::Relaxed);
            self.state.register(id, registered);
            let session = self.shared.session();
            let shared = self.shared.clone();
            let config = self.config.clone();
            let state = self.state.clone();
            workers.push(thread::spawn(move || {
                let _ = serve_connection(stream, session, shared, &config, &state);
                state.open().remove(&id);
            }));
        };
        // Already done after a signalled shutdown; after an accept error
        // it drains the open connections.
        self.state.shutdown();
        for worker in workers {
            let _ = worker.join();
        }
        result
    }

    /// Spawns [`Server::run`] on its own thread and returns the pair of
    /// remote control + join handle.
    pub fn spawn(self) -> io::Result<RunningServer> {
        let handle = self.handle()?;
        let thread = thread::Builder::new()
            .name("qld-server-accept".to_string())
            .spawn(move || self.run())?;
        Ok(RunningServer { handle, thread })
    }
}

/// A server running on its own thread (from [`Server::spawn`]).
#[derive(Debug)]
pub struct RunningServer {
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// A cloneable remote control.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// A snapshot of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        self.handle.stats()
    }

    /// Signals shutdown and waits for the full drain.
    pub fn shutdown(self) -> io::Result<()> {
        self.handle.shutdown();
        self.join()
    }

    /// Waits for the server to stop on its own (e.g. after a client's
    /// `:shutdown`).
    pub fn join(self) -> io::Result<()> {
        self.thread.join().expect("server accept thread panicked")
    }
}

/// Tells an over-cap connection why it is being dropped. Best-effort:
/// the socket may already be gone.
fn reject_busy(mut stream: TcpStream, cap: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = writeln!(
        stream,
        "error: busy: connection limit reached ({cap} active)"
    );
}

/// What [`read_request`] produced.
enum Request<'a> {
    /// A UTF-8 request line, in the connection's buffer.
    Line(&'a str),
    /// A malformed frame (invalid UTF-8) was refused with a
    /// `error: protocol:` reply; the connection stays usable — the
    /// newline still framed the request, so the stream is in sync.
    Skip,
    /// The connection is finished (EOF, shutdown, idle timeout,
    /// over-long line, hard I/O error). Any diagnostic owed to the
    /// client has already been sent.
    Closed,
}

/// Whether a socket error is its timeout firing.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A connection's read side under the idle cutoff. The socket's read
/// timeout, `timeout`, cuts off silence; past `timeout` since a
/// request's first read, its next read fails too, so a client trickling
/// bytes is cut off like a silent one, within twice `timeout`.
struct Deadline<'a> {
    stream: &'a TcpStream,
    timeout: Duration,
    /// The current request's cutoff, set by its first read (`None`
    /// before it, and when `timeout` is past the clock's range).
    until: Option<Instant>,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.until {
            None => self.until = Instant::now().checked_add(self.timeout),
            Some(until) if Instant::now() >= until => return Err(io::ErrorKind::TimedOut.into()),
            Some(_) => {}
        }
        self.stream.read(buf)
    }
}

/// Reads one request line into `buf` (the connection's, reused from
/// request to request) through [`proto::read_line`]. A trailing
/// unterminated line at EOF still counts as a request. Malformed input
/// and the idle cutoff ([`Deadline`]) are answered here, with a clean
/// `error: protocol:` or `error: timeout:` reply (and counted), never a
/// panic or a wedged connection.
fn read_request<'a>(
    reader: &mut BufReader<Deadline<'_>>,
    mut writer: &TcpStream,
    buf: &'a mut Vec<u8>,
    config: &ServerConfig,
    state: &ServerState,
    stats: &mut ConnectionStats,
) -> Request<'a> {
    reader.get_mut().until = None;
    let (request, diagnostic) = match proto::read_line(reader, buf) {
        Ok(_) if buf.is_empty() => return Request::Closed,
        Ok(_) => match std::str::from_utf8(buf) {
            Ok(line) => return Request::Line(line),
            Err(_) => (
                Request::Skip,
                "protocol: request line is not valid UTF-8".to_string(),
            ),
        },
        Err(e) if is_timeout(&e) => (
            Request::Closed,
            format!("timeout: idle for {:?}", config.read_timeout),
        ),
        // Over-long: closing (rather than draining to the next newline)
        // is deliberate — the peer is either broken or hostile, and the
        // rest of the line is unbounded.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            (Request::Closed, format!("protocol: request {e}"))
        }
        Err(_) => return Request::Closed,
    };
    stats.rejections += 1;
    state.counters.errors_sent.fetch_add(1, Ordering::Relaxed);
    if diagnostic.starts_with("protocol:") {
        state
            .counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    let _ = writeln!(writer, "error: {diagnostic}");
    request
}

/// One connection, start to finish: greeting, optional auth handshake,
/// then the request/reply loop. Every reply is composed in full and
/// written with a single syscall, so a reply is never interleaved or cut
/// off mid-frame. Returns the connection's final stats (also folded into
/// the aggregates).
fn serve_connection(
    stream: TcpStream,
    mut session: SharedSession,
    shared: SharedEngine,
    config: &ServerConfig,
    state: &ServerState,
) -> io::Result<ConnectionStats> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let mut writer = &stream;
    let mut reader = BufReader::new(Deadline {
        stream: &stream,
        timeout: config.read_timeout,
        until: None,
    });

    let hello = Hello {
        version: PROTOCOL_VERSION,
        epoch: shared.epoch(),
        auth_required: config.auth_token.is_some(),
    };
    writer.write_all(format!("{}\n", hello.render()).as_bytes())?;

    let mut stats = ConnectionStats::default();
    let mut statements = Statements::default();
    let mut authed = config.auth_token.is_none();
    let mut buf = Vec::new();
    let mut reply = String::new();
    // Re-checked before every read, not only at EOF: the sweep closes the
    // read half, but bytes a client already sent stay readable, and a
    // client streaming requests back-to-back must not hold the drain
    // hostage.
    while !state.shutdown.load(Ordering::Acquire) {
        let line = match read_request(&mut reader, writer, &mut buf, config, state, &mut stats) {
            Request::Line(line) => line,
            // The protocol error has been replied to; the stream is
            // still framed, so keep serving.
            Request::Skip => continue,
            Request::Closed => break,
        };
        let request = line.trim();
        let mut words = request.split_whitespace();
        let verb = words.next();
        reply.clear();
        let mut close = false;

        if !authed {
            let ok = verb == Some("auth")
                && words.next() == config.auth_token.as_deref()
                && words.next().is_none();
            if ok {
                authed = true;
                let _ = writeln!(reply, "done: epoch={}", shared.epoch());
            } else {
                stats.rejections += 1;
                state.counters.errors_sent.fetch_add(1, Ordering::Relaxed);
                let _ = writeln!(reply, "error: auth: this server requires `auth <token>`");
                close = true;
            }
        } else if verb == Some("auth") {
            // Re-authenticating an open or already-authed connection is a
            // harmless no-op.
            let _ = writeln!(reply, "done: epoch={}", shared.epoch());
        } else if verb == Some(":follow") {
            // A follower takes the connection over entirely: it becomes a
            // replication feed until the follower drops or the server
            // shuts down, then closes. Write errors just mean the
            // follower went away — it reconnects and resumes on its own.
            let _ = replication::serve_feed(request, writer, &shared, state);
            break;
        } else {
            close = handle_request(
                request,
                &mut session,
                &mut statements,
                config,
                state,
                &mut stats,
                &mut reply,
            );
        }

        writer.write_all(reply.as_bytes())?;
        if close {
            break;
        }
    }

    let c = &state.counters;
    c.queries_served.fetch_add(stats.queries, Ordering::Relaxed);
    c.cache_hits.fetch_add(stats.cache_hits, Ordering::Relaxed);
    c.deltas_applied.fetch_add(stats.deltas, Ordering::Relaxed);
    Ok(stats)
}

/// Dispatches one authenticated request into `reply`; returns whether
/// the connection must close afterwards.
///
/// The request pins the published snapshot once, as a [`Readers`] over
/// the connection's one session: the line is parsed and prepared against
/// it, executes on it, is rendered with its vocabulary and semantics and
/// acknowledged with its epoch.
fn handle_request(
    request: &str,
    session: &mut SharedSession,
    statements: &mut Statements,
    config: &ServerConfig,
    state: &ServerState,
    stats: &mut ConnectionStats,
    reply: &mut String,
) -> bool {
    if request == ":promote" {
        // Failover: turn this follower into a writable primary under a
        // bumped generation. Admin-only in the sense that it rides the
        // same auth gate as every other request.
        let shared = session.shared();
        match shared.promote() {
            Ok(generation) => {
                let _ = writeln!(reply, "promoted: generation={generation}");
                let _ = writeln!(reply, "done: epoch={}", shared.epoch());
            }
            Err(e) => {
                state.counters.errors_sent.fetch_add(1, Ordering::Relaxed);
                let _ = writeln!(reply, "error: {e}");
            }
        }
        return false;
    }
    let mut db = Readers::new(std::slice::from_mut(session));
    let mut reject = |reply: &mut String, diagnostic: fmt::Arguments| {
        stats.rejections += 1;
        state.counters.errors_sent.fetch_add(1, Ordering::Relaxed);
        let _ = writeln!(reply, "error: {diagnostic}");
    };
    let statement = match statements.resolve(db.engine().db().voc(), request) {
        Ok(None) => {
            // Blank lines and comments are acknowledged so that 1 request
            // line always equals 1 reply frame.
            let _ = writeln!(reply, "done: epoch={}", db.engine().epoch());
            return false;
        }
        Ok(Some(statement)) => statement,
        Err(e) => {
            // A malformed line is the same diagnostic the local batch
            // drivers print — and, like the interactive shell, it does not
            // cost the client its connection.
            reject(reply, format_args!("{e}"));
            return false;
        }
    };
    // Quotas are the server's own, checked before the line runs.
    let quota = match &statement {
        Statement::Warm(_) | Statement::Cold(ScriptLine::Query(_)) => {
            Some(("query", stats.queries, config.query_quota))
        }
        Statement::Cold(ScriptLine::Insert(..) | ScriptLine::AssertNe(..)) => {
            Some(("delta", stats.deltas, config.delta_quota))
        }
        _ => None,
    };
    if let Some((kind, used, Some(limit))) = quota {
        if used >= limit {
            reject(
                reply,
                format_args!("quota: {kind} quota exhausted (limit {limit})"),
            );
            return true;
        }
    }
    if matches!(statement, Statement::Warm(_)) {
        stats.statements_reused += 1;
    }
    let outcome = statements.run(&mut db, request, statement);
    // The pinned snapshot, or after a write the one that write published.
    let engine = db.engine();
    match outcome {
        Ok(Outcome::Answers {
            is_boolean,
            answers,
        }) => {
            stats.queries += 1;
            if answers.evidence().cache_hit {
                stats.cache_hits += 1;
            }
            let mode = engine.semantics();
            proto::push_answer_block(reply, engine.db().voc(), mode, is_boolean, &answers);
            let _ = writeln!(reply, "evidence: {}", EvidenceTag(answers.evidence()));
            let _ = writeln!(reply, "done: epoch={}", answers.evidence().epoch);
            false
        }
        Ok(Outcome::Delta(report)) => {
            stats.deltas += 1;
            let _ = writeln!(reply, "delta: {report}");
            let _ = writeln!(reply, "done: epoch={}", report.epoch);
            false
        }
        Ok(Outcome::Stats(lines)) => {
            let server = state.stats();
            let _ = writeln!(
                reply,
                "stat: connection: {} query(s) ({} cache hit(s), {} statement(s) reused), \
                 {} delta(s), {} rejection(s)",
                stats.queries,
                stats.cache_hits,
                stats.statements_reused,
                stats.deltas,
                stats.rejections
            );
            let _ = writeln!(
                reply,
                "stat: server: {} active connection(s), {} accepted, {} rejected, \
                 {} query(s) served, {} delta(s) applied, {} protocol error(s)",
                server.active_connections,
                server.connections_accepted,
                server.connections_rejected,
                server.queries_served + stats.queries,
                server.deltas_applied + stats.deltas,
                server.protocol_errors
            );
            for line in lines {
                let _ = writeln!(reply, "stat: {line}");
            }
            let _ = writeln!(reply, "done: epoch={}", engine.epoch());
            false
        }
        Ok(Outcome::Quit) => {
            let _ = writeln!(reply, "done: epoch={}", engine.epoch());
            true
        }
        Ok(Outcome::Shutdown) => {
            let _ = writeln!(reply, "done: epoch={}", engine.epoch());
            state.shutdown();
            true
        }
        Err(e) => {
            reject(reply, format_args!("{e}"));
            false
        }
    }
}

/// Bounded exponential backoff with jitter for
/// [`Client::connect_with_retry`]. Retrying is opt-in: plain
/// [`Client::connect`] fails fast, exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts, the first of which is immediate
    /// (clamped to at least 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles on each further retry.
    pub base_delay: Duration,
    /// Cap on any single backoff delay.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter. Give each client its own seed
    /// so a herd of rejected clients spreads out instead of retrying in
    /// lockstep; fix it in tests for reproducible schedules.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(1),
            jitter_seed: 1,
        }
    }
}

/// One step of a xorshift64 generator — enough randomness for retry
/// jitter without pulling in a dependency.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl RetryPolicy {
    /// The jittered backoff before retry `n` (the first retry is `n = 1`):
    /// exponential `base_delay * 2^(n-1)` capped at `max_delay`, then
    /// jittered into `[delay/2, delay]` — "equal jitter", which keeps a
    /// floor under the backoff while decorrelating synchronized clients.
    pub fn delay_before(&self, retry: u32, rng: &mut u64) -> Duration {
        let doublings = retry.saturating_sub(1).min(20);
        let capped = self
            .base_delay
            .saturating_mul(1u32 << doublings)
            .min(self.max_delay);
        let half = capped / 2;
        let span = half.as_nanos().max(1) as u64;
        half + Duration::from_nanos(xorshift64(rng) % span)
    }
}

/// A blocking client for the wire protocol: one request line out, one
/// framed reply back. Used by the e2e tests, the CI smoke driver, and
/// `perfbench`'s `wire_read` workload.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    hello: Hello,
    /// The outgoing frame, reused from request to request.
    frame: Vec<u8>,
}

impl Client {
    /// Connects and reads the greeting. If the greeting announces
    /// `auth=required`, call [`Client::authenticate`] before anything
    /// else.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let _ = writer.set_nodelay(true);
        let mut reader = BufReader::new(writer.try_clone()?);
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                line.trim().to_string(),
            ));
        }
        // An over-capacity server sends `error: busy` instead of a
        // greeting — surface that as a connection error.
        let hello = Hello::parse(&line).ok_or_else(|| {
            io::Error::new(io::ErrorKind::ConnectionRefused, line.trim().to_string())
        })?;
        Ok(Client {
            writer,
            reader,
            hello,
            frame: Vec::new(),
        })
    }

    /// [`Client::connect`] with bounded exponential backoff: retries
    /// connections that fail with [`io::ErrorKind::ConnectionRefused`] —
    /// which covers both a TCP-level refusal (server not up yet) and an
    /// `error: busy` greeting from an over-capacity server (mapped to
    /// `ConnectionRefused` by `connect`). Any other error, including
    /// exhausting the attempt budget, is returned immediately.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
    ) -> io::Result<Client> {
        let mut rng = policy.jitter_seed | 1;
        let mut last = None;
        for retry in 0..policy.attempts.max(1) {
            if retry > 0 {
                thread::sleep(policy.delay_before(retry, &mut rng));
            }
            match Client::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// The greeting the server sent on connect.
    pub fn hello(&self) -> Hello {
        self.hello
    }

    /// Sets (or clears, with `None`) the socket read/write timeout for
    /// every subsequent request. By default a client blocks forever
    /// waiting for a reply; with a timeout set, a wedged or partitioned
    /// server surfaces as [`io::ErrorKind::TimedOut`] with a diagnostic
    /// that says so — distinct from the `UnexpectedEof` "server closed
    /// the connection" error a disconnect produces. After a timeout the
    /// reply framing is unsynchronized: drop the client and reconnect.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_write_timeout(timeout)?;
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Performs the `auth <token>` handshake.
    pub fn authenticate(&mut self, token: &str) -> io::Result<Reply> {
        self.request(&format!("auth {token}"))
    }

    /// Sends one script line and reads the full reply frame. An
    /// `error:`-terminated reply is `Ok` with [`Reply::error`] set; `Err`
    /// means the transport itself failed (including the server closing
    /// the connection mid-reply) — or that `line` contains a newline: the
    /// server would answer it as two requests and the connection would be
    /// one reply out of step from then on, so it is refused unsent
    /// ([`io::ErrorKind::InvalidInput`]).
    ///
    /// The line and its terminator leave in one `write`: on a
    /// `TCP_NODELAY` socket two writes are two segments.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        if line.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a request is one line: it must not contain a newline",
            ));
        }
        self.frame.clear();
        self.frame.extend_from_slice(line.as_bytes());
        self.frame.push(b'\n');
        self.writer.write_all(&self.frame)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let mut reply = Reply::default();
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-reply",
                    ));
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server reply timed out (see Client::set_timeout); the connection \
                         is unsynchronized — reconnect before retrying",
                    ));
                }
                Err(e) => return Err(e),
            }
            if reply.push_line(&line) {
                return Ok(reply);
            }
        }
    }

    /// Sends `:quit` and consumes the client (the server closes the
    /// connection after the ack).
    pub fn quit(mut self) -> io::Result<Reply> {
        self.request(":quit")
    }

    /// Sends `:shutdown`: the ack comes back, then the whole server
    /// drains and stops.
    pub fn shutdown_server(&mut self) -> io::Result<Reply> {
        self.request(":shutdown")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_core::CwDatabase;
    use qld_engine::Engine;
    use qld_logic::Vocabulary;

    fn shared() -> SharedEngine {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "c"]).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        let db = CwDatabase::builder(voc).fact(p, &[ids[0]]).build().unwrap();
        SharedEngine::new(Engine::new(db))
    }

    fn start(config: ServerConfig) -> (RunningServer, SocketAddr) {
        let server = Server::bind(shared(), config).unwrap();
        let addr = server.local_addr().unwrap();
        (server.spawn().unwrap(), addr)
    }

    #[test]
    fn round_trip_query_delta_stats_quit() {
        let (running, addr) = start(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.hello().epoch, 0);
        assert!(!client.hello().auth_required);

        let reply = client.request("(x) . P(x)").unwrap();
        assert!(reply.is_ok(), "{reply:?}");
        assert_eq!(reply.answers, vec!["(a)"]);
        assert_eq!(reply.epoch, Some(0));
        assert!(reply.evidence.as_deref().unwrap().contains("epoch 0"));

        let reply = client.request(":insert P(b)").unwrap();
        assert!(reply.is_ok(), "{reply:?}");
        assert_eq!(reply.epoch, Some(1));
        assert!(reply
            .delta
            .as_deref()
            .unwrap()
            .contains("1 fact(s) inserted"));

        let reply = client.request("(x) . P(x)").unwrap();
        assert_eq!(reply.answers.len(), 2);
        assert_eq!(reply.epoch, Some(1));

        let reply = client.request(":stats").unwrap();
        assert!(
            reply
                .stats
                .iter()
                .any(|s| s.starts_with("connection: 2 query(s)")),
            "{reply:?}"
        );
        assert!(
            reply.stats.iter().any(|s| s.contains("1 delta(s) applied")),
            "{reply:?}"
        );
        assert!(
            reply
                .stats
                .iter()
                .any(|s| s.starts_with("snapshot: epoch 1")),
            "{reply:?}"
        );

        let reply = client.quit().unwrap();
        assert!(reply.is_ok());
        running.shutdown().unwrap();
    }

    #[test]
    fn a_request_with_a_newline_is_refused_unsent() {
        let (running, addr) = start(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let err = client.request("P(a)\nP(b)").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Nothing was sent, so the next reply is the next request's.
        let reply = client.request("P(b)").unwrap();
        assert_eq!(reply.answers, vec!["not certain"]);
        let reply = client.request(":stats").unwrap();
        assert!(
            reply
                .stats
                .iter()
                .any(|s| s.starts_with("connection: 1 query(s)")),
            "{reply:?}"
        );
        running.shutdown().unwrap();
    }

    #[test]
    fn a_statement_outlives_deltas_and_an_engine_swap() {
        let shared = shared();
        let server = Server::bind(shared.clone(), ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let running = server.spawn().unwrap();
        let mut client = Client::connect(addr).unwrap();

        let reply = client.request("(x) . P(x)").unwrap();
        assert_eq!(reply.answers, vec!["(a)"]);
        // A delta: the kept statement runs at the new epoch.
        assert!(client.request(":insert P(b)").unwrap().is_ok());
        let reply = client.request("(x) . P(x)").unwrap();
        assert_eq!(reply.answers, vec!["(a)", "(b)"]);
        assert_eq!(reply.epoch, Some(1));

        // A follower re-bootstrap replaces the engine: the statement
        // belongs to the old one and is prepared afresh, unseen.
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "c"]).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        let db = CwDatabase::builder(voc).fact(p, &[ids[2]]).build().unwrap();
        shared.set_read_only(true); // only a follower takes a reset
        shared.reset_replica(Engine::new(db), 5).unwrap();
        for _ in 0..2 {
            let reply = client.request("(x) . P(x)").unwrap();
            assert_eq!(reply.answers, vec!["(c)"], "{reply:?}");
            assert_eq!(reply.epoch, Some(5));
        }
        let reply = client.request(":stats").unwrap();
        assert!(
            reply
                .stats
                .iter()
                .any(|s| s
                    .starts_with("connection: 4 query(s) (1 cache hit(s), 3 statement(s) reused)")),
            "{reply:?}"
        );
        running.shutdown().unwrap();
    }

    #[test]
    fn script_errors_keep_the_connection_open() {
        let (running, addr) = start(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let reply = client.request("NOPE(").unwrap();
        assert!(
            reply.error.as_deref().unwrap().starts_with("parse error"),
            "{reply:?}"
        );
        let reply = client.request(":mode exact").unwrap();
        assert!(reply
            .error
            .as_deref()
            .unwrap()
            .contains("not available in script mode"));
        // Still alive and serving.
        let reply = client.request("P(a)").unwrap();
        assert_eq!(reply.answers, vec!["CERTAIN"]);
        running.shutdown().unwrap();
    }

    #[test]
    fn auth_gate_rejects_and_admits() {
        let (running, addr) = start(ServerConfig {
            auth_token: Some("sesame".to_string()),
            ..ServerConfig::default()
        });
        // Wrong first request: closed.
        let mut client = Client::connect(addr).unwrap();
        assert!(client.hello().auth_required);
        let reply = client.request("P(a)").unwrap();
        assert!(
            reply.error.as_deref().unwrap().starts_with("auth:"),
            "{reply:?}"
        );
        assert!(
            client.request("P(a)").is_err(),
            "connection should be closed"
        );
        // Wrong token: closed.
        let mut client = Client::connect(addr).unwrap();
        let reply = client.authenticate("mellon").unwrap();
        assert!(!reply.is_ok());
        // Right token: served.
        let mut client = Client::connect(addr).unwrap();
        let reply = client.authenticate("sesame").unwrap();
        assert!(reply.is_ok(), "{reply:?}");
        let reply = client.request("P(a)").unwrap();
        assert_eq!(reply.answers, vec!["CERTAIN"]);
        running.shutdown().unwrap();
    }

    /// A raw socket speaking bytes, for malformed-frame tests the
    /// well-behaved [`Client`] cannot produce.
    fn raw_connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut greeting = String::new();
        reader.read_line(&mut greeting).unwrap();
        assert!(greeting.starts_with("hello:"), "{greeting}");
        (stream, reader)
    }

    fn read_line_from(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    #[test]
    fn invalid_utf8_is_refused_and_the_connection_survives() {
        let (running, addr) = start(ServerConfig::default());
        let (mut stream, mut reader) = raw_connect(addr);

        stream.write_all(b"\xff\xfe bogus bytes \x80\n").unwrap();
        let reply = read_line_from(&mut reader);
        assert!(
            reply.starts_with("error: protocol: request line is not valid UTF-8"),
            "{reply}"
        );

        // The newline framed the garbage, so the connection still works.
        stream.write_all(b"P(a)\n").unwrap();
        let reply = read_line_from(&mut reader);
        assert!(reply.starts_with("answer: CERTAIN"), "{reply}");

        // The refusal is counted and visible in the wire stats.
        stream.write_all(b":stats\n").unwrap();
        loop {
            let line = read_line_from(&mut reader);
            if line.starts_with("stat: server:") {
                assert!(line.contains("1 protocol error(s)"), "{line}");
            }
            if line.starts_with("done:") {
                break;
            }
        }
        running.shutdown().unwrap();
    }

    #[test]
    fn overlong_request_line_is_refused_and_closed() {
        let (running, addr) = start(ServerConfig::default());
        let (mut stream, mut reader) = raw_connect(addr);

        // 80 KiB of 'a' without a newline: past the cap the server
        // refuses and hangs up — it must not buffer without bound.
        let blob = vec![b'a'; 80 * 1024];
        // The server may close mid-write; that is the point.
        let _ = stream.write_all(&blob);
        let _ = stream.write_all(b"\n");
        let reply = read_line_from(&mut reader);
        assert!(
            reply.starts_with("error: protocol: request line exceeds"),
            "{reply}"
        );
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");
        running.shutdown().unwrap();
    }

    #[test]
    fn binary_garbage_never_panics_or_wedges_the_server() {
        let (running, addr) = start(ServerConfig::default());
        // A battery of hostile frames, each on a fresh connection: ASCII
        // control soup, truncated UTF-8 multibyte heads, NULs, a
        // zero-length line, a lone carriage return, and overlong UTF-8.
        let frames: &[&[u8]] = &[
            b"\x00\x01\x02\x03\n",
            b"\xc3(\n",
            b"\xe2\x82\n",
            b"\xf0\x9f\x92\n",
            b"\n",
            b"\r\n",
            b"\xc0\xaf\n",
            b"\xed\xa0\x80\n",
        ];
        for frame in frames {
            let (mut stream, mut reader) = raw_connect(addr);
            stream.write_all(frame).unwrap();
            let reply = read_line_from(&mut reader);
            // Every frame gets exactly one terminator line back: either
            // a protocol/script error or a blank-line ack.
            assert!(
                reply.starts_with("error:") || reply.starts_with("done:"),
                "frame {frame:?} got {reply}"
            );
            // And the connection is still in sync afterwards.
            stream.write_all(b"P(a)\n").unwrap();
            let reply = read_line_from(&mut reader);
            assert!(
                reply.starts_with("answer: CERTAIN"),
                "frame {frame:?} wedged the connection: {reply}"
            );
        }
        running.shutdown().unwrap();
    }

    #[test]
    fn retry_delays_grow_exponentially_and_cap_with_jitter() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(60),
            jitter_seed: 42,
        };
        let mut rng = policy.jitter_seed | 1;
        // Uncapped: 10, 20, 40; capped at 60 from retry 4 on. Jitter
        // keeps each delay within [capped/2, capped].
        for (retry, capped_ms) in [(1, 10), (2, 20), (3, 40), (4, 60), (5, 60), (10, 60)] {
            let d = policy.delay_before(retry, &mut rng);
            let capped = Duration::from_millis(capped_ms);
            assert!(d >= capped / 2 && d <= capped, "retry {retry}: {d:?}");
        }
        // Two different seeds give different schedules (decorrelation).
        let (mut a, mut b) = (3u64, 4u64);
        let schedule = |rng: &mut u64| {
            (1..=4)
                .map(|r| policy.delay_before(r, rng))
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(&mut a), schedule(&mut b));
    }

    #[test]
    fn connect_with_retry_rides_out_a_busy_server() {
        // Capacity 1: the parked client makes every new connection get
        // `error: busy` until it quits.
        let (running, addr) = start(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let parked = Client::connect(addr).unwrap();
        assert!(
            Client::connect(addr).is_err(),
            "fail-fast connect should see busy"
        );
        let unparker = thread::spawn(move || {
            thread::sleep(Duration::from_millis(60));
            parked.quit().unwrap();
        });
        let policy = RetryPolicy {
            attempts: 50,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
            jitter_seed: 7,
        };
        let mut client = Client::connect_with_retry(addr, policy).expect("retry should win");
        let reply = client.request("P(a)").unwrap();
        assert_eq!(reply.answers, vec!["CERTAIN"]);
        unparker.join().unwrap();
        running.shutdown().unwrap();
    }

    #[test]
    fn connect_with_retry_gives_up_when_nothing_listens() {
        // Bind-then-drop: the ephemeral port is free again, so every
        // attempt is refused at the TCP level.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter_seed: 9,
        };
        let err = Client::connect_with_retry(addr, policy).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn request_lines_at_and_past_the_cap() {
        let (running, addr) = start(ServerConfig::default());
        let (mut stream, mut reader) = raw_connect(addr);
        // Exactly the cap, newline included: served.
        let mut line = format!("{:<1$}\n", "P(a)", proto::MAX_LINE_BYTES - 1);
        assert_eq!(line.len(), proto::MAX_LINE_BYTES);
        stream.write_all(line.as_bytes()).unwrap();
        let reply = read_line_from(&mut reader);
        assert!(reply.starts_with("answer: CERTAIN"), "{reply}");
        assert!(read_line_from(&mut reader).starts_with("evidence:"));
        assert!(read_line_from(&mut reader).starts_with("done:"));
        // One byte more: refused, then closed.
        line.insert(0, ' ');
        stream.write_all(line.as_bytes()).unwrap();
        let reply = read_line_from(&mut reader);
        assert!(
            reply.starts_with("error: protocol: request line exceeds 65536 bytes"),
            "{reply}"
        );
        assert_eq!(read_line_from(&mut reader), "");
        running.shutdown().unwrap();
    }

    #[test]
    fn a_trailing_unterminated_line_at_eof_is_a_request() {
        let (running, addr) = start(ServerConfig::default());
        let (mut stream, mut reader) = raw_connect(addr);
        stream.write_all(b"P(a)").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let reply = read_line_from(&mut reader);
        assert!(reply.starts_with("answer: CERTAIN"), "{reply}");
        running.shutdown().unwrap();
    }

    #[test]
    fn a_silent_connection_is_cut_off_at_read_timeout() {
        let (running, addr) = start(ServerConfig {
            read_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        });
        let (_stream, mut reader) = raw_connect(addr);
        let reply = read_line_from(&mut reader);
        assert!(
            reply.starts_with("error: timeout: idle for 200ms"),
            "{reply}"
        );
        assert_eq!(read_line_from(&mut reader), "", "closed after the timeout");
        assert_eq!(running.stats().errors_sent, 1);
        running.shutdown().unwrap();
    }

    #[test]
    fn a_client_talking_every_half_timeout_is_not_cut_off() {
        let timeout = Duration::from_millis(300);
        let (running, addr) = start(ServerConfig {
            read_timeout: timeout,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(addr).unwrap();
        // Eight half-timeouts: the connection outlives four read timeouts.
        for _ in 0..8 {
            thread::sleep(timeout / 2);
            assert_eq!(client.request("P(a)").unwrap().answers, vec!["CERTAIN"]);
        }
        assert_eq!(running.stats().errors_sent, 0);
        running.shutdown().unwrap();
    }

    #[test]
    fn a_client_trickling_one_request_is_cut_off() {
        let timeout = Duration::from_millis(200);
        let (running, addr) = start(ServerConfig {
            read_timeout: timeout,
            ..ServerConfig::default()
        });
        let (stream, mut reader) = raw_connect(addr);
        // One byte every half-timeout, never a newline: each byte arrives
        // well inside the socket timeout, but the request never ends.
        let stop = Arc::new(AtomicBool::new(false));
        let trickler = {
            let (stop, mut stream) = (stop.clone(), stream.try_clone().unwrap());
            thread::spawn(move || {
                while !stop.load(Ordering::Acquire) && stream.write_all(b"P").is_ok() {
                    thread::sleep(timeout / 2);
                }
            })
        };
        // `raw_connect`'s 5 s read timeout bounds the wait.
        let reply = read_line_from(&mut reader);
        stop.store(true, Ordering::Release);
        assert!(
            reply.starts_with("error: timeout: idle for 200ms"),
            "{reply}"
        );
        trickler.join().unwrap();
        assert_eq!(running.stats().errors_sent, 1);
        running.shutdown().unwrap();
    }

    #[test]
    fn a_zero_timeout_is_refused_at_bind() {
        for config in [
            ServerConfig {
                read_timeout: Duration::ZERO,
                ..ServerConfig::default()
            },
            ServerConfig {
                write_timeout: Duration::ZERO,
                ..ServerConfig::default()
            },
        ] {
            let err = Server::bind(shared(), config).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn shutdown_wakes_an_idle_client_and_an_attached_feed() {
        let (running, addr) = start(ServerConfig::default());
        let handle = running.handle();
        let (_idle, mut idle_reader) = raw_connect(addr);
        let (mut feed, mut feed_reader) = raw_connect(addr);
        feed.write_all(b":follow bootstrap generation=0\n").unwrap();
        let header = read_line_from(&mut feed_reader);
        assert!(header.starts_with("feed:"), "{header}");

        let (done, returned) = std::sync::mpsc::channel();
        let stopper = thread::spawn(move || done.send(running.shutdown()));
        returned
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown returns with an idle client and a feed attached")
            .unwrap();
        stopper.join().unwrap().unwrap();
        assert_eq!(read_line_from(&mut idle_reader), "");
        // The wake-up connect is neither accepted nor rejected.
        let stats = handle.stats();
        assert_eq!(stats.connections_accepted, 2, "{stats:?}");
        assert_eq!(stats.connections_rejected, 0, "{stats:?}");
        assert_eq!(stats.active_connections, 0, "{stats:?}");
    }

    #[test]
    fn a_connection_registered_after_shutdown_reads_eof_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let state = ServerState {
            addr: listener.local_addr().unwrap(),
            shutdown: AtomicBool::new(false),
            open: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        };
        state.shutdown();
        let (_wake, _) = listener.accept().unwrap();
        let _client = TcpStream::connect(state.addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        state.register(0, stream.try_clone().unwrap());
        // The client is silent: without the sweep this read times out.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        assert!(!proto::read_line(&mut BufReader::new(&stream), &mut buf).unwrap());
        assert!(buf.is_empty());
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let (running, addr) = start(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let reply = client.shutdown_server().unwrap();
        assert!(reply.is_ok());
        // The accept loop drains and run() returns on its own.
        running.join().unwrap();
    }
}

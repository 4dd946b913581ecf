//! The interactive `qld` shell: load a `.qld` database, ask queries,
//! switch between exact certain answers, the §5 approximation, possible
//! answers, and the certified `auto` dispatch.
//!
//! The command logic lives here (testable, I/O injected); the binary in
//! `src/bin/qld.rs` is a thin wrapper. The shell is a front-end over
//! [`qld_engine::Engine`]: every query is prepared and executed by the
//! engine, and the evidence line after each answer reports which regime
//! actually ran and what the answer is certified to mean.

use qld_core::CwDatabase;
use qld_engine::{
    wal_has_state, Certificate, DiskStorage, DurabilityConfig, Engine, FsyncPolicy,
    ReadOnlyStorage, Regime, Semantics, SharedEngine, WalConfig,
};
use qld_logic::display::display_query;
use qld_logic::parser::parse_query;
use qld_physical::LoweredQuery;
use qld_server::replication::FollowerLink;
use qld_server::script::{
    self, describe_threads, parse_line, print_outcome, run_line, run_script, Readers, ScriptError,
};
use qld_server::{Client, RetryPolicy, Server, ServerConfig};
use std::io::{self, Write};

/// The shell's evaluation mode *is* the engine's semantics — one
/// definition shared by the `:mode` command, the binary's `--mode` flag,
/// and the library API.
pub type Mode = Semantics;

/// The `:mode`/`--mode` argument spelling, shared by the shell help text
/// and the binary usage string (kept in sync with [`Semantics::ALL`] by a
/// test below).
pub const MODE_USAGE: &str = "exact|approx|possible|auto";

/// Whether the session should keep reading input.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Keep going.
    Continue,
    /// The user asked to quit.
    Quit,
}

/// An interactive session over one database, driving a
/// [`qld_engine::Engine`].
pub struct Session {
    engine: Engine,
}

impl Session {
    /// Starts a session in [`Semantics::Auto`] (the engine default).
    pub fn new(db: CwDatabase) -> Session {
        Session::with_engine(Engine::new(db))
    }

    /// Starts a session over an already configured engine (see
    /// [`engine_from`]).
    pub fn with_engine(engine: Engine) -> Session {
        Session { engine }
    }

    /// Enables/disables the engine's answer cache.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.engine.set_cache_enabled(enabled);
    }

    fn db(&self) -> &CwDatabase {
        self.engine.db()
    }

    /// Executes one input line. A line of the script dialect (a query,
    /// `:insert`, `:assert-ne`, `:stats`, `:quit`) does what it does in
    /// every front-end ([`run_line`]); what the dialect does not know is
    /// one of the shell's own commands.
    pub fn execute(&mut self, line: &str, out: &mut dyn Write) -> io::Result<Outcome> {
        match parse_line(self.db().voc(), line) {
            Ok(None) => Ok(Outcome::Continue),
            Ok(Some(parsed)) => {
                let outcome = run_line(&mut self.engine, parsed);
                print_outcome(&self.engine, &outcome, out)?;
                Ok(match outcome {
                    Ok(script::Outcome::Quit | script::Outcome::Shutdown) => Outcome::Quit,
                    _ => Outcome::Continue,
                })
            }
            Err(ScriptError::Unsupported(_)) => {
                let cmd = line.trim().strip_prefix(':').unwrap_or_default();
                self.command(cmd.trim(), out)
            }
            Err(e) => {
                writeln!(out, "{e}")?;
                Ok(Outcome::Continue)
            }
        }
    }

    /// The shell-only commands.
    fn command(&mut self, cmd: &str, out: &mut dyn Write) -> io::Result<Outcome> {
        let mut words = cmd.split_whitespace();
        match words.next() {
            Some("help") | Some("h") => {
                writeln!(out, "queries: any formula in the surface syntax, e.g.")?;
                writeln!(out, "    (x) . TEACHES(socrates, x)")?;
                writeln!(out, "    forall y. M(y) -> exists z. R(z, z)")?;
                writeln!(out, "commands:")?;
                writeln!(out, "    :mode {MODE_USAGE}   switch semantics")?;
                writeln!(out, "        auto runs the cheapest path the paper proves")?;
                writeln!(out, "        exact and reports which theorem certified it")?;
                writeln!(
                    out,
                    "    :set threads <N>              enumeration worker threads (0 = all CPUs)"
                )?;
                writeln!(
                    out,
                    "    :cache on|off                 answer cache (repeat queries are free)"
                )?;
                writeln!(
                    out,
                    "    :batch <file>                 run a query file as one batch"
                )?;
                writeln!(
                    out,
                    "        all Theorem-1-bound queries share a single mapping enumeration"
                )?;
                writeln!(
                    out,
                    "    :insert P(c1, ..., ck)        add a fact (incremental, no rebuild)"
                )?;
                writeln!(
                    out,
                    "    :assert-ne <a> <b>            add a uniqueness axiom a != b"
                )?;
                writeln!(
                    out,
                    "        deltas refresh Ph1/Ph2/alpha in place and evict only the"
                )?;
                writeln!(
                    out,
                    "        cached answers whose predicate footprint they touch"
                )?;
                writeln!(out, "    :stats                        database statistics")?;
                writeln!(
                    out,
                    "    :worlds                       count possible worlds"
                )?;
                writeln!(
                    out,
                    "    :explain <query>              show the route, Q̂ and the plan it runs"
                )?;
                writeln!(out, "    :dump                         print the database")?;
                writeln!(out, "    :help  :quit")?;
            }
            Some("mode") => match words.next().and_then(Mode::parse) {
                Some(mode) => {
                    self.engine.set_semantics(mode);
                    writeln!(out, "mode: {}", mode.name())?;
                }
                None => writeln!(out, "usage: :mode {MODE_USAGE}")?,
            },
            Some("set") => match (words.next(), words.next()) {
                (Some("threads"), Some(n)) => match n.parse::<usize>() {
                    // Answers are identical at any thread count; only the
                    // Theorem 1 and possible-answer enumerations speed up.
                    Ok(threads) => {
                        self.engine.set_parallelism(threads);
                        writeln!(out, "threads: {}", describe_threads(threads))?;
                    }
                    Err(_) => writeln!(out, "usage: :set threads <N>  (0 = all CPUs)")?,
                },
                _ => writeln!(out, "usage: :set threads <N>  (0 = all CPUs)")?,
            },
            Some("cache") => match words.next() {
                Some("on") => {
                    self.set_cache_enabled(true);
                    writeln!(out, "cache: on")?;
                }
                Some("off") => {
                    self.set_cache_enabled(false);
                    writeln!(out, "cache: off")?;
                }
                _ => writeln!(out, "usage: :cache on|off")?,
            },
            Some("batch") => {
                let rest = cmd["batch".len()..].trim();
                if rest.is_empty() {
                    writeln!(out, "usage: :batch <file>")?;
                } else {
                    // Interactive shell: a failed batch printed its error
                    // and the session continues.
                    let _ran = self.batch_file(rest, out)?;
                }
            }
            Some("dump") => {
                write!(out, "{}", qld_core::textio::to_text(self.db()))?;
            }
            Some("worlds") => {
                let n = qld_core::worlds::count_worlds(self.db());
                writeln!(
                    out,
                    "{n} possible world(s) up to isomorphism{}",
                    if n == 1 { " (fully determined)" } else { "" }
                )?;
            }
            Some("explain") => {
                let rest = cmd["explain".len()..].trim();
                if rest.is_empty() {
                    writeln!(out, "usage: :explain <query>")?;
                } else {
                    self.explain(rest, out)?;
                }
            }
            Some(other) => writeln!(out, "unknown command `:{other}` (try :help)")?,
            None => writeln!(out, "empty command (try :help)")?,
        }
        Ok(Outcome::Continue)
    }

    /// Shows how a query runs under the session's semantics: the route
    /// [`Engine::route`] decides, worded like the evidence line, then
    /// `Q̂` over the extended vocabulary, the completeness verdict, and
    /// the lowered plan of each evaluation that route makes.
    fn explain(&mut self, text: &str, out: &mut dyn Write) -> io::Result<()> {
        let query = match parse_query(self.db().voc(), text) {
            Ok(q) => q,
            Err(e) => return writeln!(out, "parse error: {e}"),
        };
        let prepared = match self.engine.prepare(query) {
            Ok(p) => p,
            Err(e) => return writeln!(out, "error: {e}"),
        };
        let semantics = self.engine.semantics();
        let (regime, certificate) = self.engine.route(&prepared, semantics);
        writeln!(out, "route: {semantics} → {regime}, {certificate}")?;
        let approx = self.engine.approx_engine();
        let (voc, extended) = (self.db().voc(), approx.extended_voc());
        writeln!(out, "Q̂: {}", display_query(extended, prepared.rewritten()))?;
        match prepared.completeness() {
            Some(theorem) => writeln!(out, "complete by {theorem}")?,
            None => writeln!(out, "no completeness theorem applies")?,
        }
        let (q, q_hat) = (prepared.query(), prepared.rewritten());
        let upper;
        let plans = match (regime, certificate) {
            (Regime::Theorem1 | Regime::PossibleWorlds, _) => vec![("Q per kernel image", voc, q)],
            (Regime::Corollary2, _) => vec![("Q over Ph₁(LB)", voc, q)],
            (_, Certificate::BoundedPair) => {
                upper = match approx.upper_bound_query(q) {
                    Ok(upper) => upper,
                    Err(e) => return writeln!(out, "error: {e}"),
                };
                vec![
                    ("lower, Q̂ over Ph₂(LB)", extended, q_hat),
                    ("upper, ¬(¬Q)^ over Ph₂(LB)", extended, &upper),
                ]
            }
            (Regime::Approximation, _) => vec![("Q̂ over Ph₂(LB)", extended, q_hat)],
        };
        for (what, voc, query) in plans {
            let plan = LoweredQuery::new(query);
            write!(out, "plan, {what}:\n{}", plan.display(voc))?;
        }
        Ok(())
    }

    /// The `:batch` script mode: reads a query file (one query per line;
    /// blank lines and `#` comments ignored), prepares every query, and
    /// executes the whole set through [`Engine::execute_batch`] — all
    /// Theorem-1-bound queries share a single mapping enumeration.
    ///
    /// Returns whether the batch actually executed (`false` on an
    /// unreadable file or a bad query line — the error is printed and the
    /// whole batch is aborted, so scripted callers like `--batch` can
    /// fail loudly while the interactive shell just shows the message).
    ///
    /// [`Engine::execute_batch`]: qld_engine::Engine::execute_batch
    pub fn batch_file(&mut self, path: &str, out: &mut dyn Write) -> io::Result<bool> {
        match read_script(path, out)? {
            Some(text) => self.batch_text(&text, out),
            None => Ok(false),
        }
    }

    /// Runs batch-script text (see [`Session::batch_file`]) through
    /// [`run_script`]: the dialect of `--sessions` and the TCP server
    /// (queries, `:insert`, `:assert-ne`, `:stats`, `:quit`, comments).
    /// Queries between two mutations form a segment sharing one
    /// [`Engine::execute_batch`] enumeration; malformed lines abort
    /// before anything runs, with the diagnostics the server sends over
    /// the wire.
    ///
    /// [`Engine::execute_batch`]: qld_engine::Engine::execute_batch
    pub fn batch_text(&mut self, text: &str, out: &mut dyn Write) -> io::Result<bool> {
        let Some((queries, deltas, shared_mappings)) = run_script(&mut self.engine, text, out)?
        else {
            return Ok(false);
        };
        write!(out, "batch: {queries} query(s)")?;
        if deltas > 0 {
            write!(out, ", {deltas} delta(s)")?;
        }
        if shared_mappings > 0 {
            write!(
                out,
                ", {shared_mappings} mapping(s) in one shared enumeration"
            )?;
        }
        writeln!(out)?;
        Ok(true)
    }
}

/// Reads a script file; an unreadable one prints why and is `None`.
fn read_script(path: &str, out: &mut dyn Write) -> io::Result<Option<String>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) => {
            writeln!(out, "cannot read {path}: {e}")?;
            Ok(None)
        }
    }
}

/// The engine the command-line flags describe — one builder for the
/// shell, `--sessions` and `qld serve`. `cache = false` turns the engine's
/// answer cache off, which a [`SharedEngine`]'s snapshots read through
/// too.
pub fn engine_from(
    db: CwDatabase,
    mode: Mode,
    threads: Option<usize>,
    cache: bool,
    budget: Option<u64>,
) -> Engine {
    let mut builder = Engine::builder(db).semantics(mode).answer_cache(cache);
    if let Some(threads) = threads {
        builder = builder.parallelism(threads);
    }
    if let Some(budget) = budget {
        builder = builder.mapping_budget(budget);
    }
    builder.build()
}

/// Runs a batch script concurrently (`--sessions N`): a [`SharedEngine`]
/// over `engine` serves the script's queries across `sessions` reader
/// sessions while the writer applies `:insert`/`:assert-ne` deltas
/// between query segments.
///
/// The script runs through [`run_script`] on [`Readers`], segmented at
/// mutation lines: all queries between two mutations execute (one
/// session runs them inline; more deal them round-robin, one thread
/// each, each batching its share against the latest published snapshot),
/// then the mutation publishes the next epoch, then the next segment
/// runs. Answers are printed in script order, each stamped with the epoch
/// it was computed at, so the output is deterministic. `:stats` lines
/// print the live epoch/session/cache counters. Returns whether the
/// script actually executed (parse errors abort before anything runs,
/// like [`Session::batch_text`]).
pub fn concurrent_batch_text(
    engine: Engine,
    sessions: usize,
    text: &str,
    out: &mut dyn Write,
) -> io::Result<bool> {
    if sessions == 0 {
        writeln!(out, "error: --sessions needs at least 1 reader session")?;
        return Ok(false);
    }
    let shared = SharedEngine::new(engine);
    let mut readers: Vec<_> = (0..sessions).map(|_| shared.session()).collect();
    let Some((queries, deltas, _)) = run_script(&mut Readers::new(&mut readers), text, out)? else {
        return Ok(false);
    };
    writeln!(
        out,
        "concurrent batch: {} query(s) across {} session(s), {} delta(s), final epoch {}",
        queries,
        sessions,
        deltas,
        shared.epoch()
    )?;
    Ok(true)
}

/// Runs a concurrent batch script from a file (see
/// [`concurrent_batch_text`]).
pub fn concurrent_batch_file(
    engine: Engine,
    sessions: usize,
    path: &str,
    out: &mut dyn Write,
) -> io::Result<bool> {
    match read_script(path, out)? {
        Some(text) => concurrent_batch_text(engine, sessions, &text, out),
        None => Ok(false),
    }
}

/// Options of `qld serve` (the TCP front-end over a [`SharedEngine`]).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port `0` picks an ephemeral port,
    /// printed in the `listening on` line).
    pub addr: String,
    /// Connection cap (`--sessions-max`): excess connections are turned
    /// away with `error: busy`.
    pub sessions_max: usize,
    /// Optional shared-secret token every connection must present first.
    pub token: Option<String>,
    /// Optional mapping budget (admission control at the engine layer:
    /// Auto refuses Theorem 1 enumerations past the budget and returns
    /// certified bounds instead).
    pub budget: Option<u64>,
    /// Per-connection query quota.
    pub query_quota: Option<u64>,
    /// Per-connection delta quota.
    pub delta_quota: Option<u64>,
    /// Evaluation mode for every connection.
    pub mode: Mode,
    /// Enumeration worker threads (`None` = engine default).
    pub threads: Option<usize>,
    /// Whether the engine's answer cache is enabled.
    pub cache: bool,
    /// Optional write-ahead-log directory (`--wal-dir`). When set, every
    /// delta is logged (and, under [`FsyncPolicy::Always`], fsynced)
    /// before its epoch is published, so every acknowledged write
    /// survives a crash; a directory that already holds a log is
    /// recovered instead of re-seeded, and the database file argument
    /// is ignored.
    pub wal_dir: Option<String>,
    /// WAL fsync policy (`--fsync always|never|every:<N>`).
    pub fsync: FsyncPolicy,
    /// Checkpoint cadence in logged deltas (`--checkpoint-every`; `0`
    /// disables automatic checkpoints).
    pub checkpoint_every: u64,
    /// Follower mode (`--follow <host:port>`): instead of accepting
    /// writes, stream the replication feed from the primary at this
    /// address and serve wait-free reads at the last applied epoch.
    /// Mutually exclusive with `--wal-dir`; the database argument is
    /// only a placeholder (the feed bootstrap replaces it).
    pub follow: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            // The paper's year; override with --addr (port 0 = ephemeral).
            addr: "127.0.0.1:1985".to_string(),
            sessions_max: 64,
            token: None,
            budget: None,
            query_quota: None,
            delta_quota: None,
            mode: Mode::Auto,
            threads: None,
            cache: true,
            wal_dir: None,
            fsync: FsyncPolicy::Always,
            checkpoint_every: DurabilityConfig::default().checkpoint_every,
            follow: None,
        }
    }
}

/// Parses an `--fsync` argument: `always`, `never`, or `every:<N>`
/// (sync once per `N` appended records, `N >= 1`).
pub fn parse_fsync(s: &str) -> Option<FsyncPolicy> {
    match s {
        "always" => Some(FsyncPolicy::Always),
        "never" => Some(FsyncPolicy::Never),
        _ => s
            .strip_prefix("every:")
            .and_then(|n| n.parse().ok())
            .filter(|&n| n > 0)
            .map(FsyncPolicy::EveryN),
    }
}

/// The `qld serve` driver: wraps the database in a [`SharedEngine`],
/// binds the TCP front-end, prints a parseable `listening on <addr>`
/// line, and runs the accept loop until a client sends `:shutdown` (or
/// the process is killed). Returns whether the server ran and stopped
/// cleanly.
pub fn serve(db: CwDatabase, opts: &ServeOptions, out: &mut dyn Write) -> io::Result<bool> {
    let (mode, threads, cache, budget) = (opts.mode, opts.threads, opts.cache, opts.budget);
    let build = move |db: CwDatabase| engine_from(db, mode, threads, cache, budget);

    let (shared, follower) = match (&opts.follow, &opts.wal_dir) {
        (Some(_), Some(_)) => {
            writeln!(
                out,
                "error: --follow and --wal-dir are mutually exclusive (the primary owns the log)"
            )?;
            return Ok(false);
        }
        // Follower mode: no WAL of our own (the primary owns the log); the
        // database argument is only a placeholder until the feed
        // bootstraps.
        (Some(primary), None) => {
            let shared = SharedEngine::new(build(db));
            let link = FollowerLink::new(
                shared.clone(),
                primary.clone(),
                opts.token.clone(),
                RetryPolicy::default(),
                std::sync::Arc::new(build),
            );
            (shared, Some((primary, link.spawn())))
        }
        (None, None) => (SharedEngine::new(build(db)), None),
        (None, Some(dir)) => {
            let config = DurabilityConfig {
                wal: WalConfig {
                    fsync: opts.fsync,
                    ..WalConfig::default()
                },
                checkpoint_every: opts.checkpoint_every,
            };
            let storage = match DiskStorage::open(dir) {
                Ok(storage) => storage,
                Err(e) => {
                    writeln!(out, "error: cannot open WAL directory {dir}: {e}")?;
                    return Ok(false);
                }
            };
            let opened = if wal_has_state(&storage).unwrap_or(false) {
                // The log is the authority: recover from it and ignore
                // the database file (which reflects some older state).
                SharedEngine::recover_with(Box::new(storage), config, build).map(
                    |(shared, report)| {
                        let ignored =
                            "wal: database argument ignored; state comes from the recovered log";
                        (shared, format!("wal: {report}\n{ignored}"))
                    },
                )
            } else {
                SharedEngine::durable(build(db), Box::new(storage), config)
                    .map(|shared| (shared, format!("wal: logging to {dir}")))
            };
            match opened {
                Ok((shared, banner)) => {
                    writeln!(out, "{banner}")?;
                    (shared, None)
                }
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    return Ok(false);
                }
            }
        }
    };

    let config = ServerConfig {
        addr: opts.addr.clone(),
        max_connections: opts.sessions_max,
        auth_token: opts.token.clone(),
        query_quota: opts.query_quota,
        delta_quota: opts.delta_quota,
        ..ServerConfig::default()
    };
    let result = match Server::bind(shared, config) {
        Ok(server) => {
            if let Some((primary, _)) = &follower {
                writeln!(
                    out,
                    "following {primary} (read-only; writes are refused until `qld promote`)"
                )?;
            }
            writeln!(out, "listening on {}", server.local_addr()?)?;
            out.flush()?;
            server.run().map_err(|e| e.to_string())
        }
        Err(e) => Err(format!("cannot bind {}: {e}", opts.addr)),
    };
    if let Some((_, link)) = follower {
        link.stop();
    }
    match result {
        Ok(()) => {
            writeln!(out, "server stopped")?;
            Ok(true)
        }
        Err(e) => {
            writeln!(out, "error: {e}")?;
            Ok(false)
        }
    }
}

/// The `qld promote` driver: asks the server at `addr` — normally a
/// `--follow` replica — to become the writable primary under a bumped
/// generation. After the ack the old primary's stream is fenced: its
/// feed carries a stale generation and every re-pointed follower
/// refuses it. Returns whether the promotion was acknowledged.
pub fn promote(addr: &str, token: Option<&str>, out: &mut dyn Write) -> io::Result<bool> {
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            writeln!(out, "error: cannot connect to {addr}: {e}")?;
            return Ok(false);
        }
    };
    if client.hello().auth_required {
        let Some(token) = token else {
            writeln!(out, "error: auth: the server requires --token <secret>")?;
            return Ok(false);
        };
        match client.authenticate(token) {
            Ok(reply) if reply.is_ok() => {}
            Ok(reply) => {
                writeln!(out, "error: {}", reply.error.unwrap_or_default())?;
                return Ok(false);
            }
            Err(e) => {
                writeln!(out, "error: {e}")?;
                return Ok(false);
            }
        }
    }
    let reply = match client.request(":promote") {
        Ok(reply) => reply,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(false);
        }
    };
    match (reply.promoted, reply.error) {
        (Some(generation), None) => {
            writeln!(
                out,
                "promoted: writable primary at generation {generation}, epoch {}",
                reply.epoch.unwrap_or(0)
            )?;
            Ok(true)
        }
        (_, Some(e)) => {
            writeln!(out, "error: {e}")?;
            Ok(false)
        }
        _ => {
            writeln!(out, "error: malformed reply to :promote")?;
            Ok(false)
        }
    }
}

/// Options of `qld recover` (offline WAL recovery).
#[derive(Debug, Clone, Default)]
pub struct RecoverOptions {
    /// The WAL directory to recover.
    pub dir: String,
    /// Optional path the recovered database is written to as `.qld`
    /// text (`--out`).
    pub out: Option<String>,
    /// Scan without repairing (`--read-only`): compute the same
    /// recovery result but leave the directory byte-for-byte untouched
    /// — torn tails stay on disk as evidence instead of being
    /// physically truncated.
    pub read_only: bool,
}

/// The `qld recover` driver: rebuilds an engine from a WAL directory
/// (newest valid checkpoint plus the replayed record tail), prints the
/// recovery report, the WAL counters, and the recovered database
/// statistics, and optionally writes the state back out as a `.qld`
/// file. Returns whether recovery succeeded.
///
/// By default this **repairs the log in place**, exactly as `qld serve
/// --wal-dir` would on restart: torn tails are physically truncated at
/// the first bad checksum, segments beyond a corrupt frame are removed,
/// and a fresh frame boundary is prepared for future appends. Pass
/// [`RecoverOptions::read_only`] for a purely diagnostic scan that
/// leaves the directory untouched.
pub fn recover(opts: &RecoverOptions, out: &mut dyn Write) -> io::Result<bool> {
    if !std::path::Path::new(&opts.dir).is_dir() {
        writeln!(out, "error: no such WAL directory: {}", opts.dir)?;
        return Ok(false);
    }
    let disk = match DiskStorage::open(&opts.dir) {
        Ok(storage) => storage,
        Err(e) => {
            writeln!(out, "error: cannot open WAL directory {}: {e}", opts.dir)?;
            return Ok(false);
        }
    };
    let storage: Box<dyn qld_engine::Storage> = if opts.read_only {
        writeln!(out, "read-only scan: the log will not be modified")?;
        Box::new(ReadOnlyStorage::new(disk))
    } else {
        Box::new(disk)
    };
    match SharedEngine::recover_with(storage, DurabilityConfig::default(), Engine::new) {
        Ok((shared, report)) => {
            writeln!(out, "{report}")?;
            if let Some(wal) = shared.wal_stats() {
                writeln!(out, "wal: {wal}")?;
            }
            let snapshot = shared.snapshot();
            let db = snapshot.engine().db();
            writeln!(
                out,
                "{} constants, {} predicates, {} facts, {} uniqueness axioms, epoch {}",
                db.num_consts(),
                db.voc().num_preds(),
                db.num_facts(),
                db.num_ne(),
                shared.epoch()
            )?;
            if let Some(path) = &opts.out {
                match std::fs::write(path, qld_core::textio::to_text(db)) {
                    Ok(()) => writeln!(out, "wrote {path}")?,
                    Err(e) => {
                        writeln!(out, "error: cannot write {path}: {e}")?;
                        return Ok(false);
                    }
                }
            }
            Ok(true)
        }
        Err(e) => {
            writeln!(out, "error: {e}")?;
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_core::textio::from_text;
    use qld_engine::Delta;

    const SAMPLE: &str = "
const socrates plato aristotle mystery
pred TEACHES/2
fact TEACHES(socrates, plato)
distinct socrates plato aristotle
";

    fn run(lines: &[&str]) -> (String, Outcome) {
        let mut session = Session::new(from_text(SAMPLE).unwrap());
        let mut out = Vec::new();
        let mut outcome = Outcome::Continue;
        for line in lines {
            outcome = session.execute(line, &mut out).unwrap();
        }
        (String::from_utf8(out).unwrap(), outcome)
    }

    #[test]
    fn mode_usage_matches_semantics() {
        let joined: Vec<&str> = Mode::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(MODE_USAGE, joined.join("|"));
    }

    #[test]
    fn open_query_lists_answers() {
        let (out, _) = run(&["(x) . TEACHES(socrates, x)"]);
        assert!(out.contains("(plato)"), "{out}");
        assert!(out.contains("1 tuple(s)"), "{out}");
    }

    #[test]
    fn default_mode_is_auto_and_reports_the_regime() {
        let (out, _) = run(&[":stats", "(x) . TEACHES(socrates, x)"]);
        assert!(out.contains("mode: auto"), "{out}");
        // Positive query: §5 ran, certified by Theorem 13.
        assert!(out.contains("§5 approx"), "{out}");
        assert!(out.contains("Theorem 13"), "{out}");
    }

    #[test]
    fn auto_escalation_is_visible() {
        let (out, _) = run(&["(x) . !TEACHES(socrates, x)"]);
        // Negation + unknown identities: no completeness theorem, so auto
        // escalates and says so.
        assert!(out.contains("Theorem 1,"), "{out}");
        assert!(out.contains("mapping(s)"), "{out}");
    }

    #[test]
    fn boolean_query_verdicts() {
        let (out, _) = run(&["TEACHES(socrates, plato)"]);
        assert!(out.contains("CERTAIN"), "{out}");
        let (out, _) = run(&["TEACHES(socrates, mystery)"]);
        assert!(out.contains("not certain"), "{out}");
    }

    #[test]
    fn mode_switching() {
        let (out, _) = run(&[
            ":mode possible",
            "TEACHES(socrates, mystery)",
            ":mode approx",
            "(x) . TEACHES(socrates, x)",
            ":mode exact",
            "(x) . TEACHES(socrates, x)",
        ]);
        assert!(out.contains("POSSIBLE"), "{out}");
        assert!(out.contains("(plato)"), "{out}");
        assert!(out.contains("upper bound"), "{out}");
    }

    #[test]
    fn set_threads_command() {
        let (out, _) = run(&[
            ":set threads 4",
            ":stats",
            "(x) . !TEACHES(socrates, x)",
            ":set threads 0",
            ":set threads",
            ":set threads nope",
            ":set frobs 3",
        ]);
        assert!(out.contains("threads: 4"), "{out}");
        // The Theorem 1 escalation still answers identically in parallel.
        assert!(out.contains("Theorem 1,"), "{out}");
        assert!(out.contains("threads: auto (all CPUs)"), "{out}");
        assert_eq!(out.matches("usage: :set threads").count(), 3, "{out}");
    }

    #[test]
    fn cache_command_toggles_and_reports() {
        let (out, _) = run(&[
            ":cache off",
            ":stats",
            ":cache on",
            ":stats",
            ":cache",
            ":cache sideways",
        ]);
        assert!(out.contains("cache: off"), "{out}");
        assert!(out.contains("cache: on"), "{out}");
        assert_eq!(out.matches("usage: :cache on|off").count(), 2, "{out}");
    }

    #[test]
    fn repeated_query_is_a_cache_hit() {
        let (out, _) = run(&["(x) . !TEACHES(socrates, x)", "(x) . !TEACHES(socrates, x)"]);
        assert_eq!(out.matches("(cached)").count(), 1, "{out}");
        // Both executions print the same answer tuples.
        assert_eq!(out.matches("(aristotle)").count(), 2, "{out}");
    }

    #[test]
    fn batch_text_shares_one_enumeration() {
        let mut session = Session::new(from_text(SAMPLE).unwrap());
        let mut out = Vec::new();
        let ran = session
            .batch_text(
                "# comment\n\
                 (x) . TEACHES(socrates, x)\n\
                 (x) . !TEACHES(socrates, x)\n\
                 (x, y) . !TEACHES(x, y)\n",
                &mut out,
            )
            .unwrap();
        assert!(ran);
        let out = String::from_utf8(out).unwrap();
        // The positive query runs the certified §5 path…
        assert!(out.contains("Theorem 13"), "{out}");
        // …the two escalating queries share one enumeration.
        assert!(out.contains("shared across batch of 2"), "{out}");
        assert!(out.contains("batch: 3 query(s)"), "{out}");
        assert!(out.contains("in one shared enumeration"), "{out}");
        assert!(out.contains("> (x) . TEACHES(socrates, x)"), "{out}");
    }

    #[test]
    fn batch_command_handles_missing_file_and_usage() {
        let (out, _) = run(&[":batch", ":batch /nonexistent/queries.batch"]);
        assert!(out.contains("usage: :batch <file>"), "{out}");
        assert!(out.contains("cannot read"), "{out}");
    }

    #[test]
    fn batch_text_reports_bad_lines_and_does_not_run() {
        let mut session = Session::new(from_text(SAMPLE).unwrap());
        let mut out = Vec::new();
        let ran = session
            .batch_text("TEACHES(socrates, plato)\nNOPE(\n", &mut out)
            .unwrap();
        assert!(!ran);
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("line 2: parse error"), "{out}");
        assert!(!out.contains("CERTAIN"), "{out}");
    }

    #[test]
    fn batch_text_speaks_the_full_script_dialect() {
        let mut session = Session::new(from_text(SAMPLE).unwrap());
        let mut out = Vec::new();
        let ran = session
            .batch_text(
                "(x) . TEACHES(socrates, x)\n\
                 :insert TEACHES(socrates, aristotle)\n\
                 (x) . TEACHES(socrates, x)\n\
                 :stats\n\
                 :quit\n\
                 this line is never parsed because :quit ended the script\n",
                &mut out,
            )
            .unwrap();
        assert!(ran);
        let out = String::from_utf8(out).unwrap();
        // Segment 1 sees one student, the delta lands, segment 2 sees two.
        assert!(out.contains("1 tuple(s)"), "{out}");
        assert!(out.contains("1 fact(s) inserted (0 duplicate)"), "{out}");
        assert!(out.contains("2 tuple(s)"), "{out}");
        // :stats mid-script reports the post-delta epoch.
        assert!(out.contains("epoch 1"), "{out}");
        assert!(out.contains("batch: 2 query(s), 1 delta(s)"), "{out}");
    }

    #[test]
    fn batch_text_rejects_shell_only_commands() {
        let mut session = Session::new(from_text(SAMPLE).unwrap());
        let mut out = Vec::new();
        let ran = session.batch_text(":mode exact\n", &mut out).unwrap();
        assert!(!ran);
        let out = String::from_utf8(out).unwrap();
        assert!(
            out.contains("line 1: `:mode` is not available in script mode"),
            "{out}"
        );
    }

    #[test]
    fn insert_fact_command_updates_answers_incrementally() {
        let (out, _) = run(&[
            "(x) . TEACHES(socrates, x)",
            ":insert TEACHES(socrates, aristotle)",
            "(x) . TEACHES(socrates, x)",
            ":stats",
        ]);
        assert!(out.contains("1 fact(s) inserted (0 duplicate)"), "{out}");
        assert!(out.contains("(aristotle)"), "{out}");
        assert!(out.contains("2 tuple(s)"), "{out}");
        assert!(
            out.contains("deltas: 1 applied (1 fact(s), 0 axiom(s) inserted)"),
            "{out}"
        );
    }

    #[test]
    fn insert_fact_command_rejects_non_facts() {
        let (out, _) = run(&[
            ":insert",
            ":insert NOPE(",
            ":insert TEACHES(socrates, x)",
            ":insert TEACHES(socrates, plato) | TEACHES(plato, socrates)",
            ":insert WISEGUY(socrates)",
        ]);
        assert!(out.contains("usage: :insert"), "{out}");
        assert_eq!(
            out.lines().filter(|l| l.starts_with("parse error")).count(),
            3,
            "{out}"
        );
        assert!(out.contains("ground atom"), "{out}");
    }

    #[test]
    fn assert_ne_command_and_errors() {
        let (out, _) = run(&[
            ":assert-ne mystery socrates",
            ":assert-ne mystery socrates",
            ":assert-ne mystery",
            ":assert-ne nope socrates",
            ":assert-ne socrates socrates",
            ":stats",
        ]);
        assert!(out.contains("1 axiom(s) inserted (0 duplicate)"), "{out}");
        assert!(out.contains("0 axiom(s) inserted (1 duplicate)"), "{out}");
        assert!(out.contains("usage: :assert-ne <a> <b>"), "{out}");
        assert!(out.contains("unknown constant `nope`"), "{out}");
        assert!(out.contains("unsatisfiable"), "{out}");
        assert!(out.contains("4 uniqueness axioms"), "{out}");
    }

    #[test]
    fn footprint_invalidation_keeps_positive_answers_across_axiom_deltas() {
        let (out, _) = run(&[
            "(x) . TEACHES(socrates, x)",
            ":assert-ne mystery socrates",
            "(x) . TEACHES(socrates, x)",
            "(x) . !TEACHES(socrates, x)",
        ]);
        // The positive query's cached answer survives the axiom delta
        // (Theorem 13 makes it axiom-independent); the negation runs
        // fresh against the updated α/NE.
        assert_eq!(out.matches("(cached)").count(), 1, "{out}");
    }

    #[test]
    fn stats_reports_cache_capacity() {
        let (out, _) = run(&[":stats"]);
        assert!(out.contains("0/4096 answer(s) cached"), "{out}");
        assert!(out.contains("0 re-certification(s)"), "{out}");
    }

    #[test]
    fn unknown_mode_prints_usage() {
        let (out, _) = run(&[":mode frobnicate"]);
        assert!(
            out.contains("usage: :mode exact|approx|possible|auto"),
            "{out}"
        );
    }

    #[test]
    fn stats_and_dump() {
        let (out, _) = run(&[":stats", ":dump"]);
        assert!(out.contains("4 constants"), "{out}");
        assert!(out.contains("fact TEACHES(socrates, plato)"), "{out}");
    }

    #[test]
    fn worlds_command() {
        let (out, _) = run(&[":worlds"]);
        // socrates/plato/aristotle fixed; mystery can be itself or any of
        // the three.
        assert!(out.contains("4 possible world(s)"), "{out}");
    }

    /// `:explain` on one query per route — Theorem 1, Theorem 13 (with a
    /// guard that lowers to a `scan`), a second-order query, Corollary 2
    /// once the database is fully specified, and the bounded pair of an
    /// engine whose budget is below the kernel count (4 > 3) — pinned as
    /// a transcript of the `:explain` lines.
    #[test]
    fn explain_command() {
        let negation = ":explain (x) . !TEACHES(socrates, x)";
        let full = [
            negation,
            ":explain (x) . TEACHES(socrates, x)",
            ":explain (x) . exists y. TEACHES(x, y) & TEACHES(y, aristotle)",
            ":explain exists2 ?S:1. ?S(plato) & !?S(aristotle)",
            ":explain",
            ":explain NOPE(",
            ":assert-ne mystery socrates",
            ":assert-ne mystery plato",
            ":assert-ne mystery aristotle",
            negation,
        ];
        let budget = engine_from(from_text(SAMPLE).unwrap(), Mode::Auto, None, true, Some(3));
        let mut transcript = String::new();
        for (engine, lines) in [
            (Engine::new(from_text(SAMPLE).unwrap()), &full[..]),
            (budget, &[negation][..]),
        ] {
            let mut session = Session::with_engine(engine);
            for line in lines {
                let mut out = Vec::new();
                session.execute(line, &mut out).unwrap();
                if line.starts_with(":explain") {
                    transcript += &format!("> {line}\n{}", String::from_utf8(out).unwrap());
                }
            }
        }
        assert!(
            transcript == EXPLAIN_TRANSCRIPT,
            "`:explain` changed; the new transcript:\n{transcript}"
        );
    }

    const EXPLAIN_TRANSCRIPT: &str = r"> :explain (x) . !TEACHES(socrates, x)
route: auto → Theorem 1, exact (Theorem 1)
Q̂: (x0) . ALPHA_TEACHES(socrates, x0)
no completeness theorem applies
plan, Q per kernel image:
pre-loop
  true
head x0 in domain
  not
    probe TEACHES(socrates, x0)
> :explain (x) . TEACHES(socrates, x)
route: auto → §5 approx, exact (Theorem 11 + Theorem 13)
Q̂: (x0) . TEACHES(socrates, x0)
complete by Theorem 13
plan, Q̂ over Ph₂(LB):
pre-loop
  true
head x0 in domain
  probe TEACHES(socrates, x0)
> :explain (x) . exists y. TEACHES(x, y) & TEACHES(y, aristotle)
route: auto → §5 approx, exact (Theorem 11 + Theorem 13)
Q̂: (x0) . exists x1. TEACHES(x0, x1) & TEACHES(x1, aristotle)
complete by Theorem 13
plan, Q̂ over Ph₂(LB):
pre-loop
  true
head x0 in domain
  scan TEACHES(x0, x1) by prefix (x0)
    probe TEACHES(x1, aristotle)
> :explain exists2 ?S:1. ?S(plato) & !?S(aristotle)
route: auto → Theorem 1, exact (Theorem 1)
Q̂: exists2 ?R0:1. ?R0(plato) & (forall x0. ?R0(x0) -> (exists x1. exists x2. NE(x1, x2) & (exists x3. forall x4. forall x5. x4 = x1 & x5 = x3 | x4 = x3 & x5 = x2 -> x4 = x5 | (x4 = aristotle & x5 = x0 | x4 = x0 & x5 = aristotle))))
no completeness theorem applies
plan, Q per kernel image:
pre-loop
  exists2 ?R0/1 over all relations
    and
      probe ?R0(plato)
      not
        probe ?R0(aristotle)
> :explain
usage: :explain <query>
> :explain NOPE(
parse error: parse error at byte 4: unknown predicate NOPE
> :explain (x) . !TEACHES(socrates, x)
route: auto → Corollary 2, exact (Corollary 2)
Q̂: (x0) . ALPHA_TEACHES(socrates, x0)
complete by Theorem 12
plan, Q over Ph₁(LB):
pre-loop
  true
head x0 in domain
  not
    probe TEACHES(socrates, x0)
> :explain (x) . !TEACHES(socrates, x)
route: auto → §5 approx, certified bounds (Theorem 11 on Q and ¬Q; over budget)
Q̂: (x0) . ALPHA_TEACHES(socrates, x0)
no completeness theorem applies
plan, lower, Q̂ over Ph₂(LB):
pre-loop
  true
head x0 in domain
  probe ALPHA_TEACHES(socrates, x0)
plan, upper, ¬(¬Q)^ over Ph₂(LB):
pre-loop
  true
head x0 in domain
  not
    probe TEACHES(socrates, x0)
";

    #[test]
    fn quit_and_unknown() {
        let (_, outcome) = run(&[":quit"]);
        assert_eq!(outcome, Outcome::Quit);
        let (out, outcome) = run(&[":frobnicate"]);
        assert_eq!(outcome, Outcome::Continue);
        assert!(out.contains("unknown command"), "{out}");
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let (out, outcome) = run(&["NOPE(", "(x) . TEACHES(socrates, x)"]);
        assert_eq!(outcome, Outcome::Continue);
        assert!(out.contains("parse error"), "{out}");
        assert!(out.contains("(plato)"), "{out}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let (out, _) = run(&["", "# a comment"]);
        assert!(out.is_empty(), "{out}");
    }

    fn run_concurrent(sessions: usize, script: &str) -> (String, bool) {
        let mut out = Vec::new();
        let engine = engine_from(from_text(SAMPLE).unwrap(), Mode::Auto, Some(1), true, None);
        let ran = concurrent_batch_text(engine, sessions, script, &mut out).unwrap();
        (String::from_utf8(out).unwrap(), ran)
    }

    #[test]
    fn concurrent_batch_interleaves_queries_and_deltas() {
        let (out, ran) = run_concurrent(
            3,
            "# epoch 0: one student\n\
             (x) . TEACHES(socrates, x)\n\
             TEACHES(socrates, plato)\n\
             :stats\n\
             :insert TEACHES(socrates, aristotle)\n\
             (x) . TEACHES(socrates, x)\n\
             :stats\n",
        );
        assert!(ran, "{out}");
        // Pre-delta segment answers at epoch 0…
        assert!(out.contains("epoch 0"), "{out}");
        assert!(out.contains("1 tuple(s)"), "{out}");
        assert!(out.contains("CERTAIN"), "{out}");
        // …the :stats lines track the epoch counter across the delta…
        assert!(out.contains("epoch: 0, sessions: 3"), "{out}");
        assert!(out.contains("epoch: 1, sessions: 3"), "{out}");
        // …including the snapshot-machinery line (shard occupancy, age)…
        assert!(out.contains("snapshot: epoch 0, shared cache"), "{out}");
        assert!(out.contains("snapshot: epoch 1, shared cache"), "{out}");
        assert!(out.contains("snapshot age 0 delta(s)"), "{out}");
        assert!(out.contains("1 fact(s) inserted"), "{out}");
        // …and the post-delta segment sees the new epoch and the new fact.
        assert!(out.contains("epoch 1"), "{out}");
        assert!(out.contains("(aristotle)"), "{out}");
        assert!(out.contains("2 tuple(s)"), "{out}");
        assert!(
            out.contains(
                "concurrent batch: 3 query(s) across 3 session(s), 1 delta(s), final epoch 1"
            ),
            "{out}"
        );
    }

    #[test]
    fn concurrent_batch_output_is_in_script_order() {
        let script = "(x) . TEACHES(socrates, x)\n\
                      (x) . !TEACHES(socrates, x)\n\
                      TEACHES(socrates, mystery)\n\
                      (x, y) . TEACHES(x, y)\n";
        let (solo, ran_solo) = run_concurrent(1, script);
        assert!(ran_solo);
        for sessions in [2, 4, 8] {
            let (many, ran) = run_concurrent(sessions, script);
            assert!(ran);
            // Same answers, same order, regardless of the session count —
            // only the trailing summary differs.
            let strip = |s: &str| {
                s.lines()
                    .filter(|l| !l.starts_with("concurrent batch:"))
                    // Timings differ run to run; compare everything else.
                    .map(|l| l.split("   [").next().unwrap().to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(strip(&solo), strip(&many), "at {sessions} sessions");
        }
    }

    #[test]
    fn concurrent_batch_supports_assert_ne_and_rejects_other_commands() {
        let (out, ran) = run_concurrent(
            2,
            ":assert-ne mystery socrates\n\
             :stats\n",
        );
        assert!(ran, "{out}");
        assert!(out.contains("1 axiom(s) inserted"), "{out}");
        assert!(out.contains("0 fact(s), 1 axiom(s) inserted"), "{out}");

        let (out, ran) = run_concurrent(2, ":mode exact\n");
        assert!(!ran);
        assert!(out.contains("not available in script mode"), "{out}");
    }

    #[test]
    fn concurrent_batch_fails_loudly_before_running() {
        let (out, ran) = run_concurrent(2, "TEACHES(socrates, plato)\nNOPE(\n");
        assert!(!ran);
        assert!(out.contains("line 2: parse error"), "{out}");
        assert!(!out.contains("CERTAIN"), "{out}");

        let (out, ran) = run_concurrent(
            2,
            ":insert TEACHES(socrates, plato) | TEACHES(plato, socrates)\n",
        );
        assert!(!ran);
        assert!(out.contains("ground atom"), "{out}");

        let (out, ran) = run_concurrent(2, ":assert-ne nope socrates\n");
        assert!(!ran);
        assert!(out.contains("unknown constant `nope`"), "{out}");

        let (out, ran) = run_concurrent(0, "TEACHES(socrates, plato)\n");
        assert!(!ran);
        assert!(out.contains("at least 1"), "{out}");
    }

    #[test]
    fn session_stats_report_the_epoch() {
        let (out, _) = run(&[":stats", ":insert TEACHES(plato, aristotle)", ":stats"]);
        assert!(out.contains("epoch 0"), "{out}");
        assert!(out.contains("epoch 1"), "{out}");
    }

    #[test]
    fn parse_fsync_spellings() {
        assert_eq!(parse_fsync("always"), Some(FsyncPolicy::Always));
        assert_eq!(parse_fsync("never"), Some(FsyncPolicy::Never));
        assert_eq!(parse_fsync("every:8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(parse_fsync("every:0"), None);
        assert_eq!(parse_fsync("every:"), None);
        assert_eq!(parse_fsync("sometimes"), None);
    }

    /// A scratch WAL directory, removed from any previous run.
    fn wal_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("qld_cli_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn recover_round_trips_a_logged_database() {
        let dir = wal_dir("recover");
        // Log two deltas through a durable engine, then "crash" (drop).
        let storage = DiskStorage::open(&dir).unwrap();
        let shared = SharedEngine::durable(
            Engine::new(from_text(SAMPLE).unwrap()),
            Box::new(storage),
            DurabilityConfig::default(),
        )
        .unwrap();
        let voc = shared.snapshot().engine().db().voc().clone();
        let teaches = voc.pred_id("TEACHES").unwrap();
        let (p, a, m) = (
            voc.const_id("plato").unwrap(),
            voc.const_id("aristotle").unwrap(),
            voc.const_id("mystery").unwrap(),
        );
        shared
            .apply(&Delta::new().insert_fact(teaches, &[p, a]))
            .unwrap();
        shared.apply(&Delta::new().assert_ne(m, a)).unwrap();
        drop(shared);

        let out_file = format!("{dir}/recovered.qld");
        let mut out = Vec::new();
        let opts = RecoverOptions {
            dir: dir.clone(),
            out: Some(out_file.clone()),
            read_only: false,
        };
        assert!(recover(&opts, &mut out).unwrap());
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("recovered epoch 2"), "{out}");
        assert!(out.contains("2 record(s) replayed"), "{out}");
        assert!(out.contains("2 facts"), "{out}");
        assert!(out.contains("epoch 2"), "{out}");
        assert!(out.contains("wrote "), "{out}");

        // The written .qld file holds the post-delta state.
        let db = from_text(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
        assert_eq!(db.num_facts(), 2);
        assert_eq!(db.num_ne(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_recover_leaves_the_log_untouched() {
        let dir = wal_dir("recover_ro");
        let shared = SharedEngine::durable(
            Engine::new(from_text(SAMPLE).unwrap()),
            Box::new(DiskStorage::open(&dir).unwrap()),
            DurabilityConfig::default(),
        )
        .unwrap();
        let voc = shared.snapshot().engine().db().voc().clone();
        let teaches = voc.pred_id("TEACHES").unwrap();
        let (p, a) = (
            voc.const_id("plato").unwrap(),
            voc.const_id("aristotle").unwrap(),
        );
        shared
            .apply(&Delta::new().insert_fact(teaches, &[p, a]))
            .unwrap();
        drop(shared);
        // Tear the live segment's tail, crash-style.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 2]).unwrap();
        let torn = std::fs::read(&seg).unwrap();

        let mut out = Vec::new();
        let opts = RecoverOptions {
            dir: dir.clone(),
            out: None,
            read_only: true,
        };
        assert!(recover(&opts, &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("read-only scan"), "{text}");
        assert!(text.contains("recovered epoch 0"), "{text}");
        // The torn tail is still there, byte for byte.
        assert_eq!(std::fs::read(&seg).unwrap(), torn);

        // A plain recover repairs it in place.
        let mut out = Vec::new();
        let opts = RecoverOptions {
            read_only: false,
            ..opts
        };
        assert!(recover(&opts, &mut out).unwrap());
        assert!(std::fs::read(&seg).unwrap().len() < torn.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_reports_missing_and_empty_directories() {
        let mut out = Vec::new();
        let opts = RecoverOptions {
            dir: "/nonexistent/wal".to_string(),
            ..RecoverOptions::default()
        };
        assert!(!recover(&opts, &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("no such WAL directory"), "{text}");

        let dir = wal_dir("recover_empty");
        std::fs::create_dir_all(&dir).unwrap();
        let mut out = Vec::new();
        let opts = RecoverOptions {
            dir: dir.clone(),
            ..RecoverOptions::default()
        };
        assert!(!recover(&opts, &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("no valid checkpoint"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_rejects_an_unusable_wal_directory() {
        // A *file* where the WAL directory should be: serve fails before
        // it ever binds.
        let dir = wal_dir("serve_badwal");
        std::fs::write(&dir, "not a directory").unwrap();
        let opts = ServeOptions {
            wal_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let mut out = Vec::new();
        assert!(!serve(from_text(SAMPLE).unwrap(), &opts, &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("cannot open WAL directory"), "{text}");
        let _ = std::fs::remove_file(&dir);
    }
}

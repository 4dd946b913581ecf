//! The `:batch` script dialect: parsed in exactly one place, executed in
//! exactly one place.
//!
//! A script line is one of:
//!
//! * a **query** in the surface syntax (`(x) . P(x, y)`, `forall y. …`);
//! * `:insert P(c1, ..., ck)` — a ground-atom fact delta;
//! * `:assert-ne <a> <b>` — a uniqueness-axiom delta;
//! * `:stats` — live epoch/cache/session counters;
//! * `:quit` (also `:q`, `:exit`) — end of script / close connection;
//! * `:shutdown` — stop the whole server (wire only; local drivers treat
//!   it like `:quit`);
//! * blank lines and `#` comments, which parse to nothing.
//!
//! Every front-end — the interactive shell, `--batch`, `--sessions` and
//! the TCP server — parses through [`parse_line`], so a malformed line
//! produces the same [`ScriptError`] diagnostic everywhere, and gets a
//! line's effect from [`run_line`], the only `match` over [`ScriptLine`]
//! outside the parser. Whole scripts go through [`run_script`]: the one
//! parse-and-prepare-up-front loop (a bad line aborts before anything
//! runs), the one segment loop (the queries between two mutations
//! execute together), the one `> line` echo.
//!
//! What a line runs *against* is the four-method [`Database`] seam, with
//! three implementations:
//!
//! * [`Engine`] — the shell and `--batch`. `query` is
//!   [`Engine::execute_batch`], so a segment's Theorem-1-bound queries
//!   share one mapping enumeration (and a batch of one is bit-identical
//!   to [`Engine::execute`]).
//! * `Pinned` — one request of a server connection: the connection's
//!   [`SharedSession`] read through the one snapshot the request took.
//!   Reads run inline on the connection thread, one [`Engine::execute`]
//!   on the snapshot's engine per query; writes go to the session's
//!   [`SharedEngine`](qld_engine::SharedEngine).
//! * `Vec<SharedSession>` — `--sessions N`. A segment is dealt
//!   round-robin to the readers, one scoped thread each, every reader
//!   batching its share through [`SharedSession::execute_batch_as`].
//!
//! How an [`Outcome`] is shown is the front-end's: local drivers print
//! it with [`print_outcome`]; the server frames the same outcome as
//! `answer:`/`evidence:`/`delta:`/`stat:` lines.
//!
//! A server connection also keeps the query lines it has seen *prepared*
//! (`Statements`): the paper's data complexity fixes the query and
//! varies the database, and so does a client that sends one line many
//! times. A repeated line skips [`parse_line`] and `prepare` and goes
//! straight to [`run_prepared`] — which is also where [`run_line`] sends
//! a query it has just prepared, so a query still executes in one place.

use crate::proto;
use qld_core::CwDatabase;
use qld_engine::{
    Answers, Delta, DeltaReport, Engine, EngineError, EngineSnapshot, Lru, PreparedQuery,
    SharedSession, SharedStats,
};
use qld_logic::parser::parse_query;
use qld_logic::{ConstId, Formula, PredId, Query, Term, Vocabulary};
use std::fmt;
use std::io::{self, Write};
use std::ops::Deref;
use std::sync::Arc;

/// One parsed script line.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptLine {
    /// A query to prepare and execute.
    Query(Query),
    /// `:insert P(c1, ..., ck)` — a fact delta.
    Insert(PredId, Vec<ConstId>),
    /// `:assert-ne a b` — a uniqueness-axiom delta.
    AssertNe(ConstId, ConstId),
    /// `:stats`.
    Stats,
    /// `:quit` — end of script (close the connection over the wire).
    Quit,
    /// `:shutdown` — stop the server (local drivers treat it as `:quit`).
    Shutdown,
}

impl ScriptLine {
    /// The [`Delta`] a mutation line applies (`None` for non-mutations).
    pub fn to_delta(&self) -> Option<Delta> {
        match self {
            ScriptLine::Insert(p, args) => Some(Delta::new().insert_fact(*p, args)),
            ScriptLine::AssertNe(a, b) => Some(Delta::new().assert_ne(*a, *b)),
            _ => None,
        }
    }
}

/// A malformed script line. The `Display` strings are the shared
/// diagnostics: local drivers print them prefixed `line {n}: `, the
/// server sends them prefixed `error: `.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    /// The query (or `:insert` atom) failed to parse.
    Parse(String),
    /// `:insert` got something other than a ground atom.
    NotAFact,
    /// A command was called with the wrong shape of arguments.
    Usage(&'static str),
    /// `:assert-ne` named a constant outside the vocabulary.
    UnknownConstant(String),
    /// A shell-only command (`:mode`, `:dump`, …) in a script.
    Unsupported(String),
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Parse(e) => write!(f, "parse error: {e}"),
            ScriptError::NotAFact => {
                write!(f, "a fact is a ground atom: :insert P(c1, ..., ck)")
            }
            ScriptError::Usage(usage) => write!(f, "usage: {usage}"),
            ScriptError::UnknownConstant(c) => write!(f, "unknown constant `{c}`"),
            ScriptError::Unsupported(cmd) => write!(
                f,
                "`:{cmd}` is not available in script mode \
                 (only :insert, :assert-ne, :stats, :quit)"
            ),
        }
    }
}

impl std::error::Error for ScriptError {}

/// Parses one script line. `Ok(None)` is a blank line or comment.
pub fn parse_line(voc: &Vocabulary, raw: &str) -> Result<Option<ScriptLine>, ScriptError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let Some(cmd) = line.strip_prefix(':') else {
        let query = parse_query(voc, line).map_err(|e| ScriptError::Parse(e.to_string()))?;
        return Ok(Some(ScriptLine::Query(query)));
    };
    let cmd = cmd.trim();
    match cmd.split_whitespace().next().unwrap_or("") {
        "stats" => Ok(Some(ScriptLine::Stats)),
        "quit" | "q" | "exit" => Ok(Some(ScriptLine::Quit)),
        "shutdown" => Ok(Some(ScriptLine::Shutdown)),
        "insert" => {
            let rest = cmd["insert".len()..].trim();
            if rest.is_empty() {
                return Err(ScriptError::Usage(":insert P(c1, ..., ck)"));
            }
            let (p, args) = parse_fact(voc, rest)?;
            Ok(Some(ScriptLine::Insert(p, args)))
        }
        "assert-ne" => {
            let mut words = cmd["assert-ne".len()..].split_whitespace();
            let (Some(a), Some(b)) = (words.next(), words.next()) else {
                return Err(ScriptError::Usage(":assert-ne <a> <b>"));
            };
            let (ca, cb) = (voc.const_id(a), voc.const_id(b));
            match (ca, cb) {
                (Some(ca), Some(cb)) => Ok(Some(ScriptLine::AssertNe(ca, cb))),
                _ => {
                    let unknown = if ca.is_none() { a } else { b };
                    Err(ScriptError::UnknownConstant(unknown.to_string()))
                }
            }
        }
        other => Err(ScriptError::Unsupported(other.to_string())),
    }
}

/// Parses a ground atom in the query syntax (e.g.
/// `TEACHES(socrates, plato)`) into a fact, for `:insert` everywhere the
/// dialect is spoken.
pub fn parse_fact(voc: &Vocabulary, text: &str) -> Result<(PredId, Vec<ConstId>), ScriptError> {
    let query = parse_query(voc, text).map_err(|e| ScriptError::Parse(e.to_string()))?;
    let (head, body) = query.into_parts();
    let Formula::Atom(p, terms) = body else {
        return Err(ScriptError::NotAFact);
    };
    if !head.is_empty() {
        return Err(ScriptError::NotAFact);
    }
    let mut args = Vec::with_capacity(terms.len());
    for term in terms.iter() {
        match term {
            Term::Const(c) => args.push(*c),
            Term::Var(_) => return Err(ScriptError::NotAFact),
        }
    }
    Ok((p, args))
}

/// What a script line runs against: the engine behind a front-end.
pub trait Database {
    /// The engine a line is parsed, prepared and rendered against — its
    /// vocabulary, its default semantics, its `prepare`. For a shared
    /// engine this is the currently published snapshot.
    fn engine(&self) -> impl Deref<Target = Engine>;

    /// Applies one delta (a `:insert` or `:assert-ne` line).
    fn add(&mut self, delta: &Delta) -> Result<DeltaReport, EngineError>;

    /// Executes the queries of one segment under the engine's default
    /// semantics; the `i`-th answer belongs to `prepared[i]`.
    fn query(&mut self, prepared: &[PreparedQuery]) -> Result<Vec<Answers>, EngineError>;

    /// The `:stats` lines.
    fn stats(&self) -> Vec<String>;
}

/// Renders a thread-count setting (`0` means one worker per CPU).
pub fn describe_threads(threads: usize) -> String {
    if threads == 0 {
        "auto (all CPUs)".to_string()
    } else {
        threads.to_string()
    }
}

/// The `decomposition:` stats line (the solo engine appends what the
/// enumeration does with the free constants).
fn decomposition_line(db: &CwDatabase) -> String {
    let decomp = qld_core::mappings::analyze_decomposition(db);
    format!(
        "decomposition: {} NE component(s), {} free constant(s)",
        decomp.components,
        decomp.free.len()
    )
}

/// The `replication:` stats line (`stat: replication: …` on the wire).
fn replication_line(stats: &SharedStats) -> String {
    format!(
        "replication: role={} generation={} applied={} lag={} followers={}",
        if stats.read_only {
            "follower"
        } else {
            "primary"
        },
        stats.generation,
        stats.epoch,
        stats.replication_lag(),
        stats.followers
    )
}

impl Database for Engine {
    fn engine(&self) -> impl Deref<Target = Engine> {
        self
    }

    fn add(&mut self, delta: &Delta) -> Result<DeltaReport, EngineError> {
        self.apply(delta)
    }

    fn query(&mut self, prepared: &[PreparedQuery]) -> Result<Vec<Answers>, EngineError> {
        self.execute_batch(prepared)
    }

    fn stats(&self) -> Vec<String> {
        let db = self.db();
        let deltas = self.delta_stats();
        vec![
            format!(
                "{} constants, {} predicates, {} facts, {} uniqueness axioms, fully specified: {}",
                db.num_consts(),
                db.voc().num_preds(),
                db.num_facts(),
                db.num_ne(),
                db.is_fully_specified()
            ),
            format!(
                "mode: {}, threads: {}, cache: {} ({}/{} answer(s) cached)",
                self.semantics().name(),
                describe_threads(self.parallelism()),
                if self.cache_enabled() { "on" } else { "off" },
                self.cache_len(),
                self.cache_capacity()
            ),
            format!(
                "{} (enumeration collapses them to canonical images)",
                decomposition_line(db)
            ),
            format!(
                "deltas: {} applied ({} fact(s), {} axiom(s) inserted), \
                 {} cache eviction(s), {} re-certification(s), epoch {}",
                deltas.deltas_applied,
                deltas.facts_inserted,
                deltas.ne_inserted,
                deltas.cache_evicted,
                deltas.queries_recertified,
                self.epoch()
            ),
        ]
    }
}

/// A published snapshot, dereferencing to the engine frozen inside it.
struct Frozen(Arc<EngineSnapshot>);

impl Deref for Frozen {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        self.0.engine()
    }
}

/// One request of a server connection: the connection's session, read
/// through the one snapshot the request took. Whatever the request parses
/// against, prepares on, executes on and is rendered with is that
/// snapshot, so a publish that lands mid-request cannot give a reply one
/// epoch's semantics and another's answer.
pub(crate) struct Pinned<'a> {
    pub(crate) session: &'a SharedSession,
    /// From [`SharedSession::snapshot`] on `session`.
    pub(crate) snapshot: &'a EngineSnapshot,
}

impl Database for Pinned<'_> {
    fn engine(&self) -> impl Deref<Target = Engine> {
        self.snapshot.engine()
    }

    fn add(&mut self, delta: &Delta) -> Result<DeltaReport, EngineError> {
        self.session.shared().apply(delta)
    }

    /// Inline and per query: a request is one line, and `wire_read`'s
    /// cache hit is short enough that a spawned thread or a batch set-up
    /// per request would show in it.
    fn query(&mut self, prepared: &[PreparedQuery]) -> Result<Vec<Answers>, EngineError> {
        let engine = self.snapshot.engine();
        prepared.iter().map(|p| engine.execute(p)).collect()
    }

    fn stats(&self) -> Vec<String> {
        let shared = self.session.shared();
        let stats = shared.stats();
        let mut lines = vec![
            format!("snapshot: {}", shared.snapshot_stats()),
            replication_line(&stats),
        ];
        if let Some(wal) = stats.wal {
            lines.push(format!("wal: {wal}"));
        }
        if shared.wal_poisoned() {
            lines.push(
                "wal: write-poisoned by an earlier WAL failure — reads \
                 serve the last durable epoch, every write fails; restart and \
                 recover from the log"
                    .to_string(),
            );
        }
        lines
    }
}

/// The `--sessions N` reader pool: at least one session, all of one
/// [`SharedEngine`](qld_engine::SharedEngine). The sessions persist
/// across segments, so each one's monotone epoch observation spans the
/// whole script.
impl Database for Vec<SharedSession> {
    fn engine(&self) -> impl Deref<Target = Engine> {
        Frozen(self[0].shared().snapshot())
    }

    fn add(&mut self, delta: &Delta) -> Result<DeltaReport, EngineError> {
        self[0].shared().apply(delta)
    }

    /// Deals the segment round-robin to the readers, one scoped thread
    /// per reader, each batching its share against the snapshot it reads.
    fn query(&mut self, prepared: &[PreparedQuery]) -> Result<Vec<Answers>, EngineError> {
        let n = self.len();
        let mode = self.engine().semantics();
        let shares: Vec<Vec<PreparedQuery>> = (0..n)
            .map(|r| prepared.iter().skip(r).step_by(n).cloned().collect())
            .collect();
        let answered: Vec<Result<Vec<Answers>, EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .iter_mut()
                .zip(&shares)
                .map(|(session, share)| scope.spawn(move || session.execute_batch_as(share, mode)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader session thread panicked"))
                .collect()
        });
        let mut answered = answered
            .into_iter()
            .map(|share| share.map(Vec::into_iter))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((0..prepared.len())
            .map(|j| answered[j % n].next().expect("every segment slot answered"))
            .collect())
    }

    fn stats(&self) -> Vec<String> {
        let shared = self[0].shared();
        let stats = shared.stats();
        vec![
            format!(
                "epoch: {}, sessions: {}, shared cache: {}/{} answer(s), \
                 deltas: {} applied ({} fact(s), {} axiom(s) inserted)",
                stats.epoch,
                stats.sessions_started,
                stats.cache_len,
                stats.cache_capacity,
                stats.deltas.deltas_applied,
                stats.deltas.facts_inserted,
                stats.deltas.ne_inserted
            ),
            format!("snapshot: {}", shared.snapshot_stats()),
            decomposition_line(shared.snapshot().engine().db()),
            replication_line(&stats),
        ]
    }
}

/// What running one script line did.
#[derive(Debug)]
pub enum Outcome {
    /// A query's answers; `is_boolean` says they are a verdict, not
    /// tuples.
    Answers {
        /// Whether the query was a Boolean sentence.
        is_boolean: bool,
        /// The answers, evidence included.
        answers: Answers,
    },
    /// The report of an applied `:insert`/`:assert-ne`.
    Delta(DeltaReport),
    /// The `:stats` lines of the [`Database`] the line ran against.
    Stats(Vec<String>),
    /// `:quit` — stop reading (close the connection over the wire).
    Quit,
    /// `:shutdown` — stop the server; local drivers treat it as `:quit`.
    Shutdown,
}

/// Runs one parsed line against `db`.
pub fn run_line<D: Database>(db: &mut D, line: ScriptLine) -> Result<Outcome, EngineError> {
    match line {
        ScriptLine::Query(query) => {
            let prepared = db.engine().prepare(query)?;
            run_prepared(db, &prepared)
        }
        ScriptLine::Insert(..) | ScriptLine::AssertNe(..) => {
            let delta = line.to_delta().expect("mutation lines carry a delta");
            db.add(&delta).map(Outcome::Delta)
        }
        ScriptLine::Stats => Ok(Outcome::Stats(db.stats())),
        ScriptLine::Quit => Ok(Outcome::Quit),
        ScriptLine::Shutdown => Ok(Outcome::Shutdown),
    }
}

/// Runs one prepared query against `db` under its default semantics: the
/// one place a query line executes, whether [`run_line`] has just
/// prepared it or a server connection kept it from an earlier request.
pub fn run_prepared<D: Database>(
    db: &mut D,
    prepared: &PreparedQuery,
) -> Result<Outcome, EngineError> {
    let answers = db
        .query(std::slice::from_ref(prepared))?
        .pop()
        .expect("one query in, one answer out");
    Ok(Outcome::Answers {
        is_boolean: prepared.query().is_boolean(),
        answers,
    })
}

/// Distinct query lines a server connection keeps prepared, by trimmed
/// request text, least recently used out: a line sent again skips
/// [`parse_line`] and `prepare`. A constant, not a setting: a prepared query is a kilobyte or two (the query, its `Q̂`,
/// its footprint), so a full map is a few hundred KiB on a connection
/// that really sends that many different lines, and a client cycling
/// through more lines than this only pays what every request paid before
/// there was a map.
pub const STATEMENT_CAPACITY: usize = 256;

/// The query lines one server connection has prepared, by trimmed request
/// text, least recently used first out at [`STATEMENT_CAPACITY`]. Only
/// query lines enter: a mutation or `:stats` is parsed every time it is
/// sent.
///
/// A kept statement never goes stale. The vocabulary a line was parsed
/// against does not change; a [`PreparedQuery`] survives every delta
/// (execution re-certifies a verdict older than the snapshot it runs on);
/// and the map holds no answers — those live in the engine's answer
/// cache, which knows the epochs each is true at. The one thing
/// that can orphan a statement is the engine itself being replaced under
/// the connection (a follower re-bootstrap): [`Statements::run`] then
/// drops it and prepares the line afresh.
#[derive(Default)]
pub(crate) struct Statements(Lru<Arc<str>, Arc<PreparedQuery>>);

/// A request line, as far as it is known before it runs.
pub(crate) enum Statement {
    /// A query line an earlier request on the connection prepared.
    Warm(Arc<PreparedQuery>),
    /// Any other line, parsed.
    Cold(ScriptLine),
}

impl Statements {
    /// The statement for the trimmed request `text`: one map lookup for a
    /// query line seen before, [`parse_line`] for everything else.
    /// `Ok(None)` is a blank line or comment.
    pub(crate) fn resolve(
        &mut self,
        voc: &Vocabulary,
        text: &str,
    ) -> Result<Option<Statement>, ScriptError> {
        match self.0.get_touch(text) {
            Some(prepared) => Ok(Some(Statement::Warm(prepared.clone()))),
            None => Ok(parse_line(voc, text)?.map(Statement::Cold)),
        }
    }

    /// Runs what [`Statements::resolve`] returned for `text`. A cold query
    /// line is prepared against `db`'s engine and kept; every query, warm
    /// or cold, executes through [`run_prepared`], and every other line
    /// through [`run_line`].
    pub(crate) fn run<D: Database>(
        &mut self,
        db: &mut D,
        text: &str,
        statement: Statement,
    ) -> Result<Outcome, EngineError> {
        let prepared = match statement {
            Statement::Warm(prepared) => match run_prepared(db, &prepared) {
                // The engine was replaced under the connection: this
                // statement belongs to the old one. Parse and prepare the
                // line against the new engine, once.
                Err(EngineError::PreparedElsewhere) => {
                    self.0.remove(text);
                    db.engine().prepare_text(text)?
                }
                outcome => return outcome,
            },
            Statement::Cold(ScriptLine::Query(query)) => db.engine().prepare(query)?,
            Statement::Cold(line) => return run_line(db, line),
        };
        let prepared = Arc::new(prepared);
        self.0
            .put(text.into(), prepared.clone(), STATEMENT_CAPACITY);
        run_prepared(db, &prepared)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Prints what a line did the way every local driver shows it. The
/// payload rendering lives in [`crate::proto`], so a remote answer is
/// byte-identical to a local one; only the trailing tuple count and the
/// bracketed evidence tag are local dressing.
pub fn print_outcome(
    engine: &Engine,
    outcome: &Result<Outcome, EngineError>,
    out: &mut dyn Write,
) -> io::Result<()> {
    match outcome {
        Ok(Outcome::Answers {
            is_boolean,
            answers,
        }) => {
            let tag = proto::evidence_tag(answers.evidence());
            if *is_boolean {
                let verdict = proto::verdict(engine.semantics(), answers.holds());
                writeln!(out, "{verdict}   [{tag}]")
            } else {
                for line in proto::tuple_lines(engine.db().voc(), answers) {
                    writeln!(out, "{line}")?;
                }
                writeln!(out, "{} tuple(s)   [{tag}]", answers.len())
            }
        }
        Ok(Outcome::Delta(report)) => writeln!(out, "{report}"),
        Ok(Outcome::Stats(lines)) => lines.iter().try_for_each(|line| writeln!(out, "{line}")),
        Ok(Outcome::Quit | Outcome::Shutdown) => Ok(()),
        Err(e @ EngineError::Compile(_)) => {
            writeln!(out, "error: {e} (try :mode auto or :mode exact)")
        }
        Err(e) => writeln!(out, "error: {e}"),
    }
}

/// A run of queries and the non-query line, if any, that ends it.
#[derive(Default)]
struct Segment {
    lines: Vec<String>,
    prepared: Vec<PreparedQuery>,
    then: Option<(String, ScriptLine)>,
}

/// Runs a whole script against `db`, printing to `out`.
///
/// The script is parsed and every query prepared before anything runs: a
/// bad line prints `line N: <diagnostic>` — the diagnostic the server
/// sends over the wire — and aborts, so scripted callers fail loudly. It
/// then runs in segments: the queries between two mutations go to
/// [`Database::query`] together and print in script order, each under
/// its `> line` echo; then the mutation (or `:stats`) runs. A failed
/// segment or mutation prints its error and aborts. `:quit`/`:shutdown`
/// end the script; nothing after them is parsed.
///
/// Returns `None` when the script aborted, otherwise what the caller's
/// footer reports: `(queries answered, deltas applied, mappings of the
/// largest shared enumeration)`.
pub fn run_script<D: Database>(
    db: &mut D,
    text: &str,
    out: &mut dyn Write,
) -> io::Result<Option<(usize, usize, u64)>> {
    let mut segments = vec![Segment::default()];
    {
        let engine = db.engine();
        for (lineno, raw) in text.lines().enumerate().map(|(i, l)| (i + 1, l.trim())) {
            let line = match parse_line(engine.db().voc(), raw) {
                Ok(None) => continue,
                Ok(Some(line)) => line,
                Err(e) => {
                    writeln!(out, "line {lineno}: {e}")?;
                    return Ok(None);
                }
            };
            let segment = segments.last_mut().expect("never empty");
            if let ScriptLine::Query(query) = line {
                // Prepared once: valid at every later epoch.
                match engine.prepare(query) {
                    Ok(prepared) => {
                        segment.lines.push(raw.to_string());
                        segment.prepared.push(prepared);
                    }
                    Err(e) => {
                        writeln!(out, "line {lineno}: error: {e}")?;
                        return Ok(None);
                    }
                }
            } else if matches!(line, ScriptLine::Quit | ScriptLine::Shutdown) {
                break;
            } else {
                segment.then = Some((raw.to_string(), line));
                segments.push(Segment::default());
            }
        }
    }

    let (mut queries, mut deltas, mut shared_mappings) = (0, 0, 0);
    for segment in segments {
        if !segment.prepared.is_empty() {
            let answers = match db.query(&segment.prepared) {
                Ok(answers) => answers,
                Err(e) => {
                    print_outcome(&db.engine(), &Err(e), out)?;
                    return Ok(None);
                }
            };
            let engine = db.engine();
            for ((line, prepared), answers) in
                segment.lines.iter().zip(&segment.prepared).zip(answers)
            {
                queries += 1;
                if answers.evidence().shared_batch.is_some() {
                    shared_mappings = shared_mappings.max(answers.evidence().mappings_evaluated);
                }
                writeln!(out, "> {line}")?;
                let is_boolean = prepared.query().is_boolean();
                let outcome = Outcome::Answers {
                    is_boolean,
                    answers,
                };
                print_outcome(&engine, &Ok(outcome), out)?;
            }
        }
        let Some((line, item)) = segment.then else {
            continue;
        };
        let outcome = run_line(db, item);
        if !matches!(outcome, Ok(Outcome::Stats(_))) {
            writeln!(out, "> {line}")?;
        }
        print_outcome(&db.engine(), &outcome, out)?;
        match outcome {
            Ok(Outcome::Delta(_)) => deltas += 1,
            Ok(_) => {}
            Err(_) => return Ok(None),
        }
    }
    Ok(Some((queries, deltas, shared_mappings)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voc() -> Vocabulary {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b"]).unwrap();
        voc.add_pred("P", 2).unwrap();
        voc
    }

    #[test]
    fn parses_queries_commands_and_noise() {
        let voc = voc();
        assert_eq!(parse_line(&voc, "").unwrap(), None);
        assert_eq!(parse_line(&voc, "  # comment").unwrap(), None);
        assert!(matches!(
            parse_line(&voc, "(x) . P(a, x)").unwrap(),
            Some(ScriptLine::Query(_))
        ));
        assert_eq!(parse_line(&voc, ":stats").unwrap(), Some(ScriptLine::Stats));
        assert_eq!(parse_line(&voc, ":quit").unwrap(), Some(ScriptLine::Quit));
        assert_eq!(parse_line(&voc, ":q").unwrap(), Some(ScriptLine::Quit));
        assert_eq!(
            parse_line(&voc, ":shutdown").unwrap(),
            Some(ScriptLine::Shutdown)
        );
        let insert = parse_line(&voc, ":insert P(a, b)").unwrap().unwrap();
        assert!(matches!(insert, ScriptLine::Insert(_, ref args) if args.len() == 2));
        assert!(insert.to_delta().is_some());
        let ne = parse_line(&voc, ":assert-ne a b").unwrap().unwrap();
        assert!(matches!(ne, ScriptLine::AssertNe(_, _)));
        assert!(ne.to_delta().is_some());
        assert!(ScriptLine::Stats.to_delta().is_none());
    }

    #[test]
    fn statements_keep_query_lines_only_and_only_so_many() {
        let mut voc = voc();
        let names: Vec<String> = (0..STATEMENT_CAPACITY).map(|i| format!("c{i}")).collect();
        voc.add_consts(names.iter().map(String::as_str)).unwrap();
        let db = CwDatabase::builder(voc).build().unwrap();
        let mut engine = Engine::new(db);
        let mut statements = Statements::default();
        let voc = engine.db().voc().clone();
        let mut run = |statements: &mut Statements, text: &str| {
            let statement = statements
                .resolve(engine.db().voc(), text)
                .unwrap()
                .expect("not a blank line");
            let warm = matches!(statement, Statement::Warm(_));
            statements.run(&mut engine, text, statement).unwrap();
            warm
        };

        assert!(!run(&mut statements, "P(a, b)"));
        assert!(run(&mut statements, "P(a, b)"));
        // A mutation, `:stats` and a comment are parsed every time.
        for _ in 0..2 {
            assert!(!run(&mut statements, ":insert P(a, b)"));
            assert!(!run(&mut statements, ":stats"));
            assert!(statements.resolve(&voc, "# P(a, b)").unwrap().is_none());
        }
        assert_eq!(statements.len(), 1);
        // The statement survived the delta and runs at the new epoch.
        assert!(run(&mut statements, "P(a, b)"));

        // Past capacity the least recently used statement goes.
        for i in 0..STATEMENT_CAPACITY {
            assert!(!run(&mut statements, &format!("P(a, c{i})")));
        }
        assert_eq!(statements.len(), STATEMENT_CAPACITY);
        assert!(!run(&mut statements, "P(a, b)"));
        assert!(run(
            &mut statements,
            &format!("P(a, c{})", STATEMENT_CAPACITY - 1)
        ));
    }

    #[test]
    fn error_diagnostics_are_stable() {
        let voc = voc();
        let parse = parse_line(&voc, "NOPE(").unwrap_err();
        assert!(parse.to_string().starts_with("parse error: "), "{parse}");
        let fact = parse_line(&voc, ":insert P(a, b) | P(b, a)").unwrap_err();
        assert!(fact.to_string().contains("ground atom"), "{fact}");
        let var = parse_line(&voc, ":insert P(a, x)").unwrap_err();
        assert!(matches!(var, ScriptError::Parse(_) | ScriptError::NotAFact));
        let usage = parse_line(&voc, ":insert").unwrap_err();
        assert_eq!(usage.to_string(), "usage: :insert P(c1, ..., ck)");
        let usage = parse_line(&voc, ":assert-ne a").unwrap_err();
        assert_eq!(usage.to_string(), "usage: :assert-ne <a> <b>");
        let unknown = parse_line(&voc, ":assert-ne a nope").unwrap_err();
        assert_eq!(unknown.to_string(), "unknown constant `nope`");
        let cmd = parse_line(&voc, ":mode exact").unwrap_err();
        assert!(
            cmd.to_string()
                .contains("`:mode` is not available in script mode"),
            "{cmd}"
        );
    }
}

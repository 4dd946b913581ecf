//! `qld` — an interactive shell over closed-world logical databases.
//!
//! ```text
//! qld <database.qld>                         # REPL (auto semantics)
//! qld <database.qld> -q "(x) . P(x)"         # one-shot query
//! qld <database.qld> --mode approx -q "..."  # choose semantics
//! qld serve <database.qld> --addr 127.0.0.1:1985   # TCP front-end
//! ```

use querying_logical_databases::cli::{
    concurrent_batch_file, engine_from, parse_fsync, promote, recover, serve, ConcurrentConfig,
    Mode, Outcome, RecoverOptions, ServeOptions, Session, MODE_USAGE,
};
use querying_logical_databases::core::CwDatabase;
use std::io::{self, BufRead, Write};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: qld <database.qld> [--mode {MODE_USAGE}] [--threads <N>]\n\
         \x20          [--no-cache] [--batch <file>] [--sessions <N>] [-q <query>]...\n\
         \x20      qld serve <database.qld> [options]   (see qld serve --help)\n\
         \x20      qld serve --follow <host:port> [options]   (replication follower)\n\
         \x20      qld promote <host:port> [--token <secret>]   (failover)\n\
         \x20      qld recover <wal-dir> [--out <file.qld>] [--read-only]\n\
         With no -q/--batch, starts an interactive shell (:help for commands).\n\
         The default mode is `auto`: the engine runs the cheapest evaluation\n\
         path the paper proves exact and reports which theorem certified it.\n\
         --threads sets the enumeration worker count (0 = all CPUs; default\n\
         from QLD_THREADS, else 1). Answers are identical at any count.\n\
         --batch runs a query file (one query per line, # comments) as one\n\
         batch: all Theorem-1-bound queries share a single mapping\n\
         enumeration. --no-cache disables the answer cache.\n\
         --sessions N serves the batch concurrently: N reader sessions\n\
         execute against epoch-stamped snapshots of one shared engine while\n\
         :insert/:assert-ne lines in the script publish new epochs between\n\
         query segments (every answer reports the epoch it was computed at)."
    )
}

/// A scripted action, kept in command-line order (`-q ':mode exact'
/// --batch f.q` must run the mode switch before the batch).
enum Action {
    Query(String),
    Batch(String),
}

/// What a subcommand returns: its exit code, or — as `Err`, so flag
/// parsing can use `?` — the exit code of a refused command line.
type Exit = Result<ExitCode, ExitCode>;

/// The command line being read.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    /// The value after `flag`, through `parse`. A missing or malformed
    /// value prints `<flag> needs <what>` and is exit code 2.
    fn value<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, ExitCode> {
        let value = self.0.next().map(String::as_str).and_then(parse);
        value.ok_or_else(|| {
            eprintln!("{flag} needs {what}");
            ExitCode::from(2)
        })
    }
}

/// What the driver in `cli` reported, as an exit code.
fn finished(ran: io::Result<bool>) -> Exit {
    Ok(match ran {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) | Err(_) => ExitCode::FAILURE,
    })
}

/// [`Args::value`] parsers: any text, a number, a number that is at least 1.
fn text(s: &str) -> Option<String> {
    Some(s.to_owned())
}

fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

fn positive(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&n| n > 0)
}

fn serve_usage() -> String {
    format!(
        "usage: qld serve <database.qld> [--addr <host:port>] [--sessions-max <N>]\n\
         \x20          [--token <secret>] [--budget <mappings>] [--quota-queries <N>]\n\
         \x20          [--quota-deltas <N>] [--mode {MODE_USAGE}] [--threads <N>]\n\
         \x20          [--no-cache] [--wal-dir <dir>] [--fsync always|never|every:<N>]\n\
         \x20          [--checkpoint-every <N>] [--follow <host:port>]\n\
         Serves the database over TCP: a line protocol speaking the same\n\
         script dialect as --batch (queries, :insert, :assert-ne, :stats,\n\
         :quit, :shutdown), one shared engine with epoch-stamped snapshots\n\
         behind every connection. Defaults: --addr 127.0.0.1:1985 (port 0\n\
         picks an ephemeral port), --sessions-max 64. --token demands an\n\
         `auth <token>` handshake; --budget caps Theorem 1 enumerations\n\
         (Auto returns certified bounds past it); the quotas are per\n\
         connection. A client's :shutdown stops the server gracefully.\n\
         --wal-dir logs every delta to a write-ahead log before its epoch\n\
         is published (default --fsync always: an acknowledged write is\n\
         durable); a directory that already holds a log is recovered and\n\
         the database file is ignored. `qld recover <dir>` replays a log\n\
         offline (repairing torn tails in place; --read-only to only\n\
         inspect).\n\
         --follow <host:port> runs a replication follower: instead of\n\
         accepting writes, it streams the primary's commit feed (resuming\n\
         from its last applied epoch across reconnects), serves wait-free\n\
         reads at the epoch it has applied, and answers writes with\n\
         `error: read-only`. The database argument is optional and only a\n\
         placeholder — the feed transfers a snapshot on first contact.\n\
         `qld promote <host:port>` turns a follower into the writable\n\
         primary under a bumped generation, fencing the old primary's\n\
         stream. --follow excludes --wal-dir (the primary owns the log);\n\
         --token is used both for the server's own auth gate and to\n\
         authenticate to the primary."
    )
}

/// The `qld serve` subcommand.
fn serve_main(args: &[String]) -> Exit {
    let mut opts = ServeOptions::default();
    let mut path: Option<String> = None;
    let mut args = Args(args.iter());
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{}", serve_usage());
                return Ok(ExitCode::SUCCESS);
            }
            "--addr" | "-a" => opts.addr = args.value("--addr", "a host:port argument", text)?,
            "--sessions-max" => {
                let what = "a connection cap (>= 1)";
                opts.sessions_max = args.value("--sessions-max", what, positive)?
            }
            "--token" => opts.token = Some(args.value("--token", "a secret argument", text)?),
            "--budget" => opts.budget = Some(args.value("--budget", "a mapping count", number)?),
            "--quota-queries" => {
                let what = "a per-connection count";
                opts.query_quota = Some(args.value("--quota-queries", what, number)?)
            }
            "--quota-deltas" => {
                let what = "a per-connection count";
                opts.delta_quota = Some(args.value("--quota-deltas", what, number)?)
            }
            "--mode" | "-m" => opts.mode = args.value("--mode", MODE_USAGE, Mode::parse)?,
            "--threads" | "-t" => {
                let what = "a worker count (0 = all CPUs)";
                opts.threads = Some(args.value("--threads", what, number)?)
            }
            "--no-cache" => opts.cache = false,
            "--wal-dir" | "-w" => {
                opts.wal_dir = Some(args.value("--wal-dir", "a directory argument", text)?)
            }
            "--fsync" => {
                let what = "always, never, or every:<N>";
                opts.fsync = args.value("--fsync", what, parse_fsync)?
            }
            "--checkpoint-every" => {
                let what = "a delta count (0 disables)";
                opts.checkpoint_every = args.value("--checkpoint-every", what, number)?
            }
            "--follow" | "-f" => {
                let what = "the primary's host:port";
                opts.follow = Some(args.value("--follow", what, text)?)
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument `{other}`\n{}", serve_usage());
                return Ok(ExitCode::from(2));
            }
        }
    }
    if opts.follow.is_some() && opts.wal_dir.is_some() {
        eprintln!("--follow and --wal-dir are mutually exclusive (the primary owns the log)");
        return Ok(ExitCode::from(2));
    }
    // A follower needs no database file: its state arrives over the
    // feed. If one is given anyway it is only the pre-sync placeholder.
    let db = match (&path, opts.follow.is_some()) {
        (Some(path), _) => match load_db(path) {
            Some(db) => db,
            None => return Ok(ExitCode::FAILURE),
        },
        // A closed-world database needs a non-empty domain, so the
        // pre-sync placeholder holds one throwaway constant.
        (None, true) => querying_logical_databases::core::textio::from_text("const bootstrap")
            .expect("placeholder database text"),
        (None, false) => {
            eprintln!("{}", serve_usage());
            return Ok(ExitCode::from(2));
        }
    };
    finished(serve(db, &opts, &mut io::stdout().lock()))
}

fn promote_usage() -> &'static str {
    "usage: qld promote <host:port> [--token <secret>]\n\
     Asks the server at <host:port> — normally a `qld serve --follow`\n\
     replica — to become the writable primary under a bumped generation\n\
     (failover). After the ack the replica stops following, accepts\n\
     writes, and the old primary's replication stream is fenced: every\n\
     follower re-pointed at the new primary refuses the stale\n\
     generation. Promoting a server that is already a writable primary\n\
     fails with a diagnostic."
}

/// The `qld promote` subcommand.
fn promote_main(args: &[String]) -> Exit {
    let mut addr: Option<String> = None;
    let mut token: Option<String> = None;
    let mut args = Args(args.iter());
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{}", promote_usage());
                return Ok(ExitCode::SUCCESS);
            }
            "--token" => token = Some(args.value("--token", "a secret argument", text)?),
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument `{other}`\n{}", promote_usage());
                return Ok(ExitCode::from(2));
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("{}", promote_usage());
        return Ok(ExitCode::from(2));
    };
    finished(promote(&addr, token.as_deref(), &mut io::stdout().lock()))
}

fn recover_usage() -> &'static str {
    "usage: qld recover <wal-dir> [--out <file.qld>] [--read-only]\n\
     Recovers the engine state persisted in a `qld serve --wal-dir`\n\
     directory: loads the newest valid checkpoint, replays the record\n\
     tail, and prints the recovery report, the WAL counters, and the\n\
     recovered database statistics. By default the log is repaired in\n\
     place, exactly as serving from it would: torn tails are truncated\n\
     at the first bad checksum and segments beyond a corrupt frame are\n\
     removed. --read-only computes the same report without modifying\n\
     the directory (torn bytes stay on disk as evidence). --out writes\n\
     the recovered state as a `.qld` file."
}

/// The `qld recover` subcommand.
fn recover_main(args: &[String]) -> Exit {
    let mut opts = RecoverOptions::default();
    let mut dir: Option<String> = None;
    let mut args = Args(args.iter());
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{}", recover_usage());
                return Ok(ExitCode::SUCCESS);
            }
            "--read-only" => opts.read_only = true,
            "--out" | "-o" => opts.out = Some(args.value("--out", "a file argument", text)?),
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument `{other}`\n{}", recover_usage());
                return Ok(ExitCode::from(2));
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{}", recover_usage());
        return Ok(ExitCode::from(2));
    };
    opts.dir = dir;
    finished(recover(&opts, &mut io::stdout().lock()))
}

/// Loads a `.qld` database file, printing the error on failure.
fn load_db(path: &str) -> Option<CwDatabase> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return None;
        }
    };
    match querying_logical_databases::core::textio::from_text(&text) {
        Ok(db) => Some(db),
        Err(e) => {
            eprintln!("{path}: {e}");
            None
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exit = match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("recover") => recover_main(&args[1..]),
        Some("promote") => promote_main(&args[1..]),
        _ => shell_main(&args),
    };
    exit.unwrap_or_else(|refused| refused)
}

/// Everything but the subcommands: one-shot queries, batches, the REPL.
fn shell_main(args: &[String]) -> Exit {
    let mut args = Args(args.iter());
    let mut path: Option<String> = None;
    let mut mode: Option<Mode> = None;
    let mut threads: Option<usize> = None;
    let mut no_cache = false;
    let mut sessions: Option<usize> = None;
    let mut actions: Vec<Action> = Vec::new();
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            "--mode" | "-m" => mode = Some(args.value("--mode", MODE_USAGE, Mode::parse)?),
            "--threads" | "-t" => {
                let what = "a worker count (0 = all CPUs)";
                threads = Some(args.value("--threads", what, number)?)
            }
            "-q" | "--query" => {
                let query = args.value("-q", "a query argument", text)?;
                actions.push(Action::Query(query))
            }
            "--batch" | "-b" => {
                let file = args.value("--batch", "a query-file argument", text)?;
                actions.push(Action::Batch(file))
            }
            "--no-cache" => no_cache = true,
            "--sessions" | "-s" => {
                let what = "a reader-session count (>= 1)";
                sessions = Some(args.value("--sessions", what, positive)?)
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument `{other}`\n{}", usage());
                return Ok(ExitCode::from(2));
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{}", usage());
        return Ok(ExitCode::from(2));
    };

    let Some(db) = load_db(&path) else {
        return Ok(ExitCode::FAILURE);
    };

    // Concurrent serving: the script drives a shared engine with N reader
    // sessions instead of one single-owner shell.
    if let Some(n) = sessions {
        let batches: Vec<&String> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Batch(f) => Some(f),
                Action::Query(_) => None,
            })
            .collect();
        if batches.len() != actions.len() || batches.is_empty() {
            eprintln!("--sessions needs --batch (concurrent mode is script-driven)");
            return Ok(ExitCode::from(2));
        }
        let config = ConcurrentConfig {
            sessions: n,
            mode: mode.unwrap_or_default(),
            threads,
            cache: !no_cache,
        };
        let stdout = io::stdout();
        let mut out = stdout.lock();
        for file in batches {
            // Each batch gets a fresh copy of the database (mutations in
            // one script don't leak into the next).
            match concurrent_batch_file(db.clone(), config, file, &mut out) {
                Ok(true) => {}
                Ok(false) | Err(_) => return Ok(ExitCode::FAILURE),
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    // `--no-cache` is the shell's `:cache off`: `:cache on` brings it back.
    let engine = engine_from(db, mode.unwrap_or_default(), threads, !no_cache, None);
    let mut session = Session::with_engine(engine);
    let stdout = io::stdout();
    let mut out = stdout.lock();

    if !actions.is_empty() {
        for action in &actions {
            match action {
                Action::Query(q) => {
                    if session.execute(q, &mut out).is_err() {
                        return Ok(ExitCode::FAILURE);
                    }
                }
                // Scripting mode: an unreadable file or bad query line
                // aborts with a failing exit code so callers can detect it.
                Action::Batch(f) => match session.batch_file(f, &mut out) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => return Ok(ExitCode::FAILURE),
                },
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    let _ = writeln!(
        out,
        "qld — querying logical databases ({}). :help for commands.",
        path
    );
    let stdin = io::stdin();
    loop {
        let _ = write!(out, "qld> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => match session.execute(&line, &mut out) {
                Ok(Outcome::Quit) => break,
                Ok(Outcome::Continue) => {}
                Err(e) => {
                    eprintln!("io error: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            },
            Err(e) => {
                eprintln!("io error: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

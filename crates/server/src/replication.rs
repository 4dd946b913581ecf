//! Primary/follower streaming replication over the wire protocol.
//!
//! # Feed protocol
//!
//! A follower opens an ordinary client connection (greeting + optional
//! `auth`), then switches it into a **replication feed** with one
//! handshake line:
//!
//! ```text
//! :follow epoch=<E> generation=<G>     -- resume after epoch E
//! :follow bootstrap generation=<G>     -- fresh follower, no usable state
//! ```
//!
//! The primary answers with its own term and epoch — or refuses:
//!
//! ```text
//! feed: generation=<Gp> epoch=<Ep>
//! error: fenced: <diagnostic>          -- the *primary* is stale (G > Gp)
//! ```
//!
//! then one catch-up header:
//!
//! ```text
//! resume: epoch=<E>                    -- incremental records follow
//! snapshot: epoch=<Ep> bytes=<N>       -- N bytes of encoded database follow
//! ```
//!
//! and finally a continuous stream of **binary WAL frames** (the exact
//! `[len][crc][payload]` framing of [`qld_wal`] segments, see
//! [`WalRecord::encode_frame`]) — first any log-tail records needed to
//! catch up, then every delta as it commits. Frames with no facts and no
//! `NE` pairs are heartbeats carrying the primary's current epoch; the
//! follower uses them to measure replication lag and never applies them.
//!
//! # Epoch-resume rules
//!
//! The primary serves incrementally iff its newest WAL checkpoint is at
//! or below the follower's epoch (the truncated log still covers the
//! gap); otherwise it transfers the published snapshot's database in the
//! binary [`qld_core::codec`] layout (a follower also accepts the `.qld`
//! text that primaries sent before the codec; `codec::decode` tells the
//! two apart).
//! The follower applies a record at exactly `current + 1`, skips records
//! at or below its epoch (the tail and the live stream may overlap), and
//! treats anything further ahead as a gap: it drops the connection and
//! reconnects, resuming from its last applied epoch. Reconnection uses
//! the same [`RetryPolicy`] backoff as clients, forever — a follower
//! outlives any primary outage. A primary heartbeats an idle feed, so a
//! follower that hears nothing for five heartbeat periods once the
//! stream is live drops the connection and reconnects too.
//!
//! # Generation fencing
//!
//! Both sides carry a generation (failover term). `qld promote` bumps
//! the follower's generation and checkpoints it into the WAL header, so
//! after a failover the old primary's feed — still serving the previous
//! term — is refused by every re-pointed follower (`Gp < G`), and the
//! old primary refuses followers from the future (`G > Gp`) instead of
//! feeding them a stale history.
//!
//! Because `Engine::apply` is deterministic, a follower that has applied
//! the epoch-ordered stream answers byte-identically to a solo engine
//! rebuilt at the same epoch — `tests/replication.rs` asserts exactly
//! that, across all four semantics.

use crate::proto::{self, Hello};
use crate::{RetryPolicy, ServerState};
use qld_core::CwDatabase;
use qld_engine::{Engine, SharedEngine};
use qld_wal::{WalRecord, MAX_RECORD_BYTES};
use std::convert::Infallible;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How often an idle feed sends a heartbeat frame (empty record at the
/// primary's current epoch). Followers use it for lag accounting and as
/// a liveness signal; a dead follower is detected by the write failing.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// How long a follower waits on a silent live stream — five missed
/// heartbeats — before it drops the connection and reconnects.
const LIVENESS_DEADLINE: Duration = HEARTBEAT_EVERY.saturating_mul(5);

/// A follower's bound on every write, and on each read until the stream
/// is live: a primary may wait for a checkpoint or encode a snapshot then.
const CATCH_UP_DEADLINE: Duration = Duration::from_secs(10);

/// The parsed `:follow` handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowRequest {
    /// The follower's last applied epoch; `None` means bootstrap — the
    /// follower has no usable state and needs a snapshot transfer.
    pub epoch: Option<u64>,
    /// The follower's generation (highest failover term it has served
    /// under or adopted).
    pub generation: u64,
}

impl FollowRequest {
    /// Renders the handshake line.
    pub fn render(&self) -> String {
        match self.epoch {
            Some(epoch) => format!(":follow epoch={epoch} generation={}", self.generation),
            None => format!(":follow bootstrap generation={}", self.generation),
        }
    }

    /// Parses a `:follow …` request line (`None` if malformed).
    pub fn parse(line: &str) -> Option<FollowRequest> {
        let rest = line.trim().strip_prefix(":follow")?.trim();
        let mut epoch = None;
        let mut bootstrap = false;
        let mut generation = None;
        for word in rest.split_whitespace() {
            if word == "bootstrap" {
                bootstrap = true;
            } else if let Some(e) = word.strip_prefix("epoch=") {
                epoch = Some(e.parse().ok()?);
            } else if let Some(g) = word.strip_prefix("generation=") {
                generation = Some(g.parse().ok()?);
            } else {
                return None;
            }
        }
        if bootstrap == epoch.is_some() {
            return None; // exactly one of `bootstrap` / `epoch=` required
        }
        Some(FollowRequest {
            epoch,
            generation: generation?,
        })
    }
}

/// Decrements the primary's follower gauge when the feed ends, however
/// it ends.
struct FeedGuard<'a>(&'a SharedEngine);

impl Drop for FeedGuard<'_> {
    fn drop(&mut self) {
        self.0.follower_detached();
    }
}

/// Serves one replication feed on a connection that sent `:follow …`.
/// Runs until the follower disconnects (write failure), the server
/// shuts down (noticed at the next record or heartbeat), or the
/// handshake is refused; the connection closes afterwards either way.
pub(crate) fn serve_feed(
    request: &str,
    mut writer: &TcpStream,
    shared: &SharedEngine,
    state: &ServerState,
) -> io::Result<()> {
    let Some(follow) = FollowRequest::parse(request) else {
        state.counters.errors_sent.fetch_add(1, Ordering::Relaxed);
        writeln!(
            writer,
            "error: protocol: malformed handshake (use `:follow epoch=<E> generation=<G>` \
             or `:follow bootstrap generation=<G>`)"
        )?;
        return Ok(());
    };
    let generation = shared.generation();
    if follow.generation > generation {
        // This primary's term is over: a follower from the future means
        // someone was promoted past us. Refuse rather than feeding it a
        // history the new primary has diverged from.
        state.counters.errors_sent.fetch_add(1, Ordering::Relaxed);
        writeln!(
            writer,
            "error: fenced: follower is at generation {} but this primary serves \
             generation {generation}; it has been superseded",
            follow.generation
        )?;
        return Ok(());
    }

    shared.follower_attached();
    let _guard = FeedGuard(shared);

    // Subscribe *before* deciding how to catch up: the subscription
    // snapshot and the commit feed are atomic (no record can fall
    // between them), so tail records + feed records cover everything
    // after the follower's epoch, with overlaps handled by the
    // follower's skip rule.
    let (snapshot, feed) = shared.subscribe_commits();
    writeln!(
        writer,
        "feed: generation={generation} epoch={}",
        snapshot.epoch()
    )?;

    let resume_from = match follow.epoch {
        Some(epoch) if epoch >= snapshot.epoch() => Some((epoch, Vec::new())),
        Some(epoch) => match shared.wal_tail() {
            // The log tail reaches back far enough: replay it.
            Ok(Some((checkpoint_epoch, records))) if checkpoint_epoch <= epoch => {
                Some((epoch, records))
            }
            // No WAL, a truncated log, or a tail read failure: fall back
            // to a full snapshot transfer.
            _ => None,
        },
        None => None,
    };
    match resume_from {
        Some((epoch, records)) => {
            writeln!(writer, "resume: epoch={epoch}")?;
            for record in records.iter().filter(|r| r.epoch > epoch) {
                writer.write_all(&record.encode_frame())?;
            }
        }
        None => {
            let bytes = qld_core::codec::encode(snapshot.engine().db());
            writeln!(
                writer,
                "snapshot: epoch={} bytes={}",
                snapshot.epoch(),
                bytes.len()
            )?;
            writer.write_all(&bytes)?;
        }
    }

    while !state.shutdown.load(Ordering::Acquire) {
        let record = match feed.recv_timeout(HEARTBEAT_EVERY) {
            Ok(record) => record,
            Err(RecvTimeoutError::Timeout) => WalRecord {
                epoch: shared.epoch(),
                facts: Vec::new(),
                ne_pairs: Vec::new(),
            },
            Err(RecvTimeoutError::Disconnected) => break,
        };
        writer.write_all(&record.encode_frame())?;
    }
    Ok(())
}

/// How an engine for a transferred snapshot database is built — the
/// follower's equivalent of the `build` closure
/// [`SharedEngine::recover_with`] takes (semantics, parallelism, cache
/// configuration).
pub type BuildEngine = Arc<dyn Fn(CwDatabase) -> Engine + Send + Sync>;

/// A configured-but-not-yet-running follower connection: which primary
/// to stream from, how to authenticate, and how hard to retry.
///
/// Construction marks the engine read-only; [`FollowerLink::spawn`]
/// starts the apply loop. The loop reconnects with [`RetryPolicy`]
/// backoff forever (the `attempts` budget caps the *backoff growth*,
/// not the retries), resuming from the last applied epoch, and exits
/// when the handle is stopped or the engine stops being read-only —
/// i.e. after a promote.
pub struct FollowerLink {
    shared: SharedEngine,
    primary: String,
    token: Option<String>,
    retry: RetryPolicy,
    build: BuildEngine,
    synced: AtomicBool,
    stop: Arc<Mutex<Stop>>,
}

/// What [`FollowerHandle::stop`] reaches into, under one lock so that a
/// socket the link opens after the stop request is refused.
#[derive(Debug, Default)]
struct Stop {
    requested: bool,
    /// The link's current connection to the primary.
    socket: Option<TcpStream>,
}

fn lock(stop: &Mutex<Stop>) -> MutexGuard<'_, Stop> {
    // Two plain fields, whole after any panic: poisoning guards nothing.
    stop.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for FollowerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FollowerLink")
            .field("primary", &self.primary)
            .field("synced", &self.synced)
            .finish_non_exhaustive()
    }
}

impl FollowerLink {
    /// Prepares `shared` to follow `primary`: marks it read-only and
    /// remembers the connection parameters. `build` configures the
    /// engine for a transferred snapshot database, exactly like the
    /// closure [`SharedEngine::recover_with`] takes.
    pub fn new(
        shared: SharedEngine,
        primary: impl Into<String>,
        token: Option<String>,
        retry: RetryPolicy,
        build: BuildEngine,
    ) -> FollowerLink {
        shared.set_read_only(true);
        // A follower that already holds state (recovered from its own
        // WAL) resumes from its epoch; a fresh epoch-0 placeholder must
        // bootstrap, because its database need not share the primary's
        // vocabulary until a snapshot lands.
        let synced = AtomicBool::new(shared.epoch() > 0);
        FollowerLink {
            shared,
            primary: primary.into(),
            token,
            retry,
            build,
            synced,
            stop: Arc::default(),
        }
    }

    /// Starts the apply loop on its own thread.
    pub fn spawn(self) -> FollowerHandle {
        let stop = self.stop.clone();
        let shared = self.shared.clone();
        let thread = thread::Builder::new()
            .name("qld-follower".to_string())
            .spawn(move || self.run())
            .expect("spawn follower thread");
        FollowerHandle {
            stop,
            shared,
            thread,
        }
    }

    fn stopped(&self) -> bool {
        lock(&self.stop).requested || !self.shared.is_read_only()
    }

    fn run(self) {
        let mut rng = self.retry.jitter_seed | 1;
        let mut failures: u32 = 0;
        while !self.stopped() {
            let _ = self.feed_once();
            lock(&self.stop).socket = None;
            failures = failures.saturating_add(1);
            if self.stopped() {
                break;
            }
            // `FollowerHandle::stop` unparks this wait.
            thread::park_timeout(
                self.retry
                    .delay_before(failures.min(self.retry.attempts.max(1)), &mut rng),
            );
        }
    }

    /// One connection lifetime: connect, handshake, catch up, apply the
    /// stream until it breaks — a feed never ends cleanly, so this
    /// returns only an error: EOF, a refusal, a primary silent past
    /// [`CATCH_UP_DEADLINE`] before the stream or [`LIVENESS_DEADLINE`]
    /// during it, or a stop shutting the socket down.
    fn feed_once(&self) -> io::Result<Infallible> {
        let stream = TcpStream::connect(&self.primary)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(CATCH_UP_DEADLINE))?;
        stream.set_write_timeout(Some(CATCH_UP_DEADLINE))?;
        {
            let mut stop = lock(&self.stop);
            if stop.requested {
                return Err(feed_err("the link was stopped".to_string()));
            }
            stop.socket = Some(stream.try_clone()?);
        }
        let mut writer = &stream;
        let mut reader = BufReader::new(&stream);
        let mut buf = Vec::new();

        // Greeting, then auth if the primary demands it.
        let line = next_line(&mut reader, &mut buf)?;
        let hello = Hello::parse(line)
            .ok_or_else(|| feed_err(format!("unexpected greeting: {}", line.trim())))?;
        if hello.auth_required {
            let token = self.token.as_deref().ok_or_else(|| {
                feed_err("primary requires auth and no --token was configured".to_string())
            })?;
            writeln!(writer, "auth {token}")?;
            let line = next_line(&mut reader, &mut buf)?;
            if !line.starts_with("done:") {
                return Err(feed_err(format!("auth refused: {}", line.trim())));
            }
        }

        // Handshake.
        let request = FollowRequest {
            epoch: self
                .synced
                .load(Ordering::Acquire)
                .then(|| self.shared.epoch()),
            generation: self.shared.generation(),
        };
        writeln!(writer, "{}", request.render())?;
        let line = next_line(&mut reader, &mut buf)?.trim();
        let Some(rest) = line.strip_prefix("feed:") else {
            // `error: fenced: …` and every other refusal lands here.
            return Err(feed_err(format!("feed refused: {line}")));
        };
        let (Some(feed_generation), Some(feed_epoch)) =
            (field::<u64>(rest, "generation="), field(rest, "epoch="))
        else {
            return Err(feed_err(format!("malformed feed header: {line}")));
        };
        if feed_generation < self.shared.generation() {
            // Fencing, follower side: this primary's term predates ours
            // (we were promoted, or follow a newer primary's history).
            return Err(feed_err(format!(
                "fenced: primary serves generation {feed_generation} but this follower \
                 is at generation {}; refusing its stale stream",
                self.shared.generation()
            )));
        }
        self.shared.set_generation(feed_generation);
        self.shared.note_source_epoch(feed_epoch);

        // Catch-up header.
        let line = next_line(&mut reader, &mut buf)?.trim();
        if let Some(rest) = line.strip_prefix("snapshot:") {
            let (Some(epoch), Some(bytes)) = (field(rest, "epoch="), field(rest, "bytes=")) else {
                return Err(feed_err(format!("malformed snapshot header: {line}")));
            };
            let mut payload = vec![0u8; bytes];
            reader.read_exact(&mut payload)?;
            let db = qld_core::codec::decode(&payload)
                .map_err(|e| feed_err(format!("snapshot database invalid: {e}")))?;
            self.shared
                .reset_replica((self.build)(db), epoch)
                .map_err(|e| feed_err(e.to_string()))?;
            self.synced.store(true, Ordering::Release);
        } else if !line.starts_with("resume:") {
            return Err(feed_err(format!("unexpected catch-up header: {line}")));
        }

        // The stream: tail records, then live commits and heartbeats.
        stream.set_read_timeout(Some(LIVENESS_DEADLINE))?;
        loop {
            let record = read_frame(&mut reader)?;
            let applied = !record.facts.is_empty() || !record.ne_pairs.is_empty();
            self.shared
                .apply_replica(&record)
                .map_err(|e| feed_err(e.to_string()))?;
            if applied {
                self.synced.store(true, Ordering::Release);
            }
        }
    }
}

/// Remote control for a spawned [`FollowerLink`].
#[derive(Debug)]
pub struct FollowerHandle {
    stop: Arc<Mutex<Stop>>,
    shared: SharedEngine,
    thread: JoinHandle<()>,
}

impl FollowerHandle {
    /// The engine this follower maintains (read-only until promoted).
    pub fn shared(&self) -> &SharedEngine {
        &self.shared
    }

    /// Stops the apply loop and waits for it to exit: shuts down the
    /// link's socket, which ends a blocked read at once, and unparks a
    /// backoff wait. A promote ([`SharedEngine::promote`]) ends the loop
    /// too — `apply_replica` refuses the next record or heartbeat, and a
    /// link in backoff exits when the wait ends — so `stop` after a
    /// promote just joins it.
    pub fn stop(self) {
        {
            let mut stop = lock(&self.stop);
            stop.requested = true;
            if let Some(socket) = &stop.socket {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        self.thread.thread().unpark();
        self.thread.join().expect("follower thread panicked");
    }
}

fn feed_err(message: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("replication: {message}"),
    )
}

/// The value of the `key` word (`key` ends in `=`) of a feed header.
fn field<T: std::str::FromStr>(header: &str, key: &str) -> Option<T> {
    header
        .split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.parse().ok())
}

/// Reads one protocol line of the feed through [`proto::read_line`].
/// EOF — even after an unterminated tail — is an error (a primary never
/// ends a feed), and so is a line that is not UTF-8.
fn next_line<'a>(reader: &mut impl BufRead, buf: &'a mut Vec<u8>) -> io::Result<&'a str> {
    if !proto::read_line(reader, buf)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "primary closed the replication connection",
        ));
    }
    std::str::from_utf8(buf).map_err(|_| feed_err("protocol line is not valid UTF-8".to_string()))
}

/// Reads one binary WAL frame off the feed. A frame that fails its CRC
/// is an error (the follower reconnects and resyncs rather than
/// guessing).
fn read_frame(reader: &mut impl Read) -> io::Result<WalRecord> {
    let mut frame = vec![0u8; 8];
    reader.read_exact(&mut frame)?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return Err(feed_err(format!("oversized frame ({len} bytes)")));
    }
    frame.resize(8 + len as usize, 0);
    reader.read_exact(&mut frame[8..])?;
    match WalRecord::decode_frame(&frame) {
        Some((record, consumed)) if consumed == frame.len() => Ok(record),
        _ => Err(feed_err("corrupt replication frame".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// Every wait in these tests is bounded by this, never timed.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// A fake primary: a loopback listener that hands every connection
    /// it accepts to the test. Its thread is left blocked in `accept`
    /// until the test process exits.
    fn fake_primary() -> (String, mpsc::Receiver<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            for stream in listener.incoming() {
                if tx.send(stream.unwrap()).is_err() {
                    break;
                }
            }
        });
        (addr, rx)
    }

    /// A bootstrap follower of `primary` whose every backoff is within
    /// `[backoff / 2, backoff]`.
    fn follow(primary: &str, backoff: Duration) -> FollowerHandle {
        let placeholder = qld_core::textio::from_text("const bootstrap").unwrap();
        let retry = RetryPolicy {
            attempts: 1,
            base_delay: backoff,
            max_delay: backoff,
            jitter_seed: 1,
        };
        FollowerLink::new(
            SharedEngine::new(Engine::new(placeholder)),
            primary,
            None,
            retry,
            Arc::new(Engine::new),
        )
        .spawn()
    }

    fn accept(connections: &mpsc::Receiver<TcpStream>) -> TcpStream {
        let stream = connections
            .recv_timeout(DEADLINE)
            .expect("the follower connects");
        stream.set_read_timeout(Some(DEADLINE)).unwrap();
        stream
    }

    const HELLO: &str = "hello: qld 1 epoch=0 auth=open";

    /// Greets the follower on `stream` and returns the handshake it sends.
    fn greet(stream: &TcpStream) -> String {
        writeln!(&*stream, "{HELLO}").unwrap();
        let mut handshake = String::new();
        BufReader::new(stream).read_line(&mut handshake).unwrap();
        handshake
    }

    fn stop_within_deadline(handle: FollowerHandle) {
        let (done, stopped) = mpsc::channel();
        let stopper = thread::spawn(move || {
            handle.stop();
            done.send(())
        });
        stopped
            .recv_timeout(DEADLINE)
            .expect("FollowerHandle::stop returns");
        stopper.join().unwrap().unwrap();
    }

    #[test]
    fn stop_wakes_a_link_blocked_on_a_silent_primary() {
        let (primary, connections) = fake_primary();
        let handle = follow(&primary, Duration::from_secs(60));
        let stream = accept(&connections);
        assert!(greet(&stream).starts_with(":follow bootstrap"));
        // The link now waits for the feed header that never comes.
        stop_within_deadline(handle);
    }

    #[test]
    fn stop_wakes_a_link_in_backoff() {
        // Bind-then-drop: nothing listens, so every connect is refused
        // and the link parks for at least 30 s.
        let closed = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let handle = follow(&closed.to_string(), Duration::from_secs(60));
        // Nothing observable marks the park; this only makes it likely.
        // A stop that lands first ends the loop too, so the test cannot
        // fail spuriously — only a backoff that ignores `stop` fails it.
        thread::sleep(Duration::from_millis(50));
        stop_within_deadline(handle);
    }

    /// The headers that take a follower from its handshake to the live
    /// stream without any record to catch up.
    const LIVE: &[u8] = b"feed: generation=0 epoch=0\nresume: epoch=0\n";

    #[test]
    fn a_silent_primary_is_dropped_at_the_liveness_deadline() {
        let (primary, connections) = fake_primary();
        let handle = follow(&primary, Duration::from_millis(10));
        let mut first = accept(&connections);
        assert!(greet(&first).starts_with(":follow bootstrap"));
        first.write_all(LIVE).unwrap();
        // `first` stays open and sends no heartbeat; the follower gives
        // up on it and reconnects.
        let second = accept(&connections);
        assert!(greet(&second).starts_with(":follow bootstrap"));
        drop(first);
        stop_within_deadline(handle);
    }

    #[test]
    fn a_slow_catch_up_outlasts_the_liveness_deadline() {
        let (primary, connections) = fake_primary();
        let handle = follow(&primary, Duration::from_millis(10));
        let mut first = accept(&connections);
        assert!(greet(&first).starts_with(":follow bootstrap"));
        // A primary busy before its catch-up header (a checkpoint's
        // fsync, a large snapshot's encode) sends no heartbeat, and the
        // follower keeps waiting on it.
        assert!(connections.recv_timeout(LIVENESS_DEADLINE * 2).is_err());
        first.write_all(LIVE).unwrap();
        stop_within_deadline(handle);
    }

    #[test]
    fn feed_lines_at_and_past_the_cap_not_utf8_or_unterminated() {
        let at_cap = format!("{HELLO:<0$}\n", proto::MAX_LINE_BYTES - 1);
        let past_cap = format!(" {at_cap}");
        assert_eq!(past_cap.len(), proto::MAX_LINE_BYTES + 1);
        let not_utf8 = [HELLO.as_bytes(), b" \xff\n"].concat();
        for (greeting, accepted) in [
            (at_cap.as_bytes(), true),
            (past_cap.as_bytes(), false),
            (&not_utf8[..], false),
            (HELLO.as_bytes(), false),
        ] {
            let (primary, connections) = fake_primary();
            let handle = follow(&primary, Duration::from_millis(10));
            let mut first = accept(&connections);
            first.write_all(greeting).unwrap();
            first.shutdown(Shutdown::Write).unwrap();
            // What the follower sent before it hung up: the handshake iff
            // it took the greeting.
            let mut sent = Vec::new();
            let _ = first.read_to_end(&mut sent);
            assert_eq!(
                sent.starts_with(b":follow"),
                accepted,
                "greeting of {} bytes",
                greeting.len()
            );
            // Either way the feed failed, and the follower reconnects.
            accept(&connections);
            stop_within_deadline(handle);
        }
    }

    #[test]
    fn follow_handshake_round_trips() {
        for request in [
            FollowRequest {
                epoch: Some(17),
                generation: 3,
            },
            FollowRequest {
                epoch: None,
                generation: 0,
            },
        ] {
            assert_eq!(FollowRequest::parse(&request.render()), Some(request));
        }
        assert_eq!(
            FollowRequest::parse(":follow epoch=2 generation=1"),
            Some(FollowRequest {
                epoch: Some(2),
                generation: 1
            })
        );
        // Malformed: missing generation, both/neither of bootstrap+epoch,
        // stray words, non-numeric values.
        for bad in [
            ":follow",
            ":follow epoch=2",
            ":follow bootstrap",
            ":follow generation=1",
            ":follow bootstrap epoch=2 generation=1",
            ":follow epoch=x generation=1",
            ":follow epoch=2 generation=1 extra",
        ] {
            assert_eq!(FollowRequest::parse(bad), None, "{bad}");
        }
    }
}

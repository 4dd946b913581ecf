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
//! outlives any primary outage.
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

use crate::proto::Hello;
use crate::{RetryPolicy, ServerState, POLL_TICK};
use qld_core::CwDatabase;
use qld_engine::{Engine, SharedEngine};
use qld_wal::{WalRecord, MAX_RECORD_BYTES};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often an idle feed sends a heartbeat frame (empty record at the
/// primary's current epoch). Followers use it for lag accounting and as
/// a liveness signal; a dead follower is detected by the write failing.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Longest accepted protocol line on the follower side of the feed.
const MAX_FEED_LINE: usize = 64 * 1024;

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
/// shuts down, or the handshake is refused; the connection closes
/// afterwards either way.
pub(crate) fn serve_feed(
    request: &str,
    writer: &mut TcpStream,
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

    let mut last_send = Instant::now();
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        match feed.recv_timeout(POLL_TICK) {
            Ok(record) => {
                writer.write_all(&record.encode_frame())?;
                last_send = Instant::now();
            }
            Err(RecvTimeoutError::Timeout) => {
                if last_send.elapsed() >= HEARTBEAT_EVERY {
                    let heartbeat = WalRecord {
                        epoch: shared.epoch(),
                        facts: Vec::new(),
                        ne_pairs: Vec::new(),
                    };
                    writer.write_all(&heartbeat.encode_frame())?;
                    last_send = Instant::now();
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
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
    stop: Arc<AtomicBool>,
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
            stop: Arc::new(AtomicBool::new(false)),
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
        self.stop.load(Ordering::Acquire) || !self.shared.is_read_only()
    }

    fn run(self) {
        let mut rng = self.retry.jitter_seed | 1;
        let mut failures: u32 = 0;
        while !self.stopped() {
            match self.feed_once() {
                Ok(()) => break,
                Err(_) => failures = failures.saturating_add(1),
            }
            if self.stopped() {
                break;
            }
            // Backoff, polling the stop flag so promotion/shutdown never
            // waits out a long delay.
            let backoff = self
                .retry
                .delay_before(failures.min(self.retry.attempts.max(1)), &mut rng);
            let waited_until = Instant::now() + backoff;
            while Instant::now() < waited_until && !self.stopped() {
                thread::sleep(POLL_TICK.min(backoff));
            }
        }
    }

    /// One connection lifetime: connect, handshake, catch up, apply the
    /// stream until it breaks or a stop is requested.
    fn feed_once(&self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.primary)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(POLL_TICK))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let stop = || self.stopped();

        // Greeting, then auth if the primary demands it.
        let Some(line) = read_feed_line(&mut reader, &stop)? else {
            return Ok(());
        };
        let hello = Hello::parse(&line)
            .ok_or_else(|| feed_err(format!("unexpected greeting: {}", line.trim())))?;
        if hello.auth_required {
            let token = self.token.as_deref().ok_or_else(|| {
                feed_err("primary requires auth and no --token was configured".to_string())
            })?;
            writeln!(writer, "auth {token}")?;
            let Some(line) = read_feed_line(&mut reader, &stop)? else {
                return Ok(());
            };
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
        let Some(line) = read_feed_line(&mut reader, &stop)? else {
            return Ok(());
        };
        let line = line.trim();
        let Some(rest) = line.strip_prefix("feed:") else {
            // `error: fenced: …` and every other refusal lands here.
            return Err(feed_err(format!("feed refused: {line}")));
        };
        let mut feed_generation = None;
        let mut feed_epoch = None;
        for word in rest.split_whitespace() {
            if let Some(g) = word.strip_prefix("generation=") {
                feed_generation = g.parse::<u64>().ok();
            } else if let Some(e) = word.strip_prefix("epoch=") {
                feed_epoch = e.parse::<u64>().ok();
            }
        }
        let (feed_generation, feed_epoch) = match (feed_generation, feed_epoch) {
            (Some(g), Some(e)) => (g, e),
            _ => return Err(feed_err(format!("malformed feed header: {line}"))),
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
        let Some(line) = read_feed_line(&mut reader, &stop)? else {
            return Ok(());
        };
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("snapshot:") {
            let mut epoch = None;
            let mut bytes = None;
            for word in rest.split_whitespace() {
                if let Some(e) = word.strip_prefix("epoch=") {
                    epoch = e.parse::<u64>().ok();
                } else if let Some(b) = word.strip_prefix("bytes=") {
                    bytes = b.parse::<usize>().ok();
                }
            }
            let (epoch, bytes) = match (epoch, bytes) {
                (Some(e), Some(b)) => (e, b),
                _ => return Err(feed_err(format!("malformed snapshot header: {line}"))),
            };
            let mut payload = vec![0u8; bytes];
            if !read_exact_polling(&mut reader, &mut payload, &stop)? {
                return Ok(());
            }
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
        loop {
            match read_frame(&mut reader, &stop)? {
                None => return Ok(()),
                Some(record) => {
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
    }
}

/// Remote control for a spawned [`FollowerLink`].
#[derive(Debug)]
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    shared: SharedEngine,
    thread: JoinHandle<()>,
}

impl FollowerHandle {
    /// The engine this follower maintains (read-only until promoted).
    pub fn shared(&self) -> &SharedEngine {
        &self.shared
    }

    /// Signals the apply loop to stop and waits for it to exit. Called
    /// automatically by promotion workflows: clearing the read-only flag
    /// (via [`SharedEngine::promote`]) also stops the loop at its next
    /// poll tick, so `stop` after a promote returns promptly.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("follower thread panicked");
    }
}

fn feed_err(message: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("replication: {message}"),
    )
}

/// Matches the error kinds a socket read timeout surfaces as.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one protocol line, polling `stop` across read-timeout ticks so
/// a waiting follower reacts to promotion/shutdown promptly. `Ok(None)`
/// means a stop was requested mid-line; EOF is an error (the feed never
/// ends cleanly from the primary side).
fn read_feed_line(
    reader: &mut BufReader<TcpStream>,
    stop: &dyn Fn() -> bool,
) -> io::Result<Option<String>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (take, complete) = match reader.fill_buf() {
            Ok([]) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "primary closed the replication connection",
                ))
            }
            Ok(available) => {
                let newline = available.iter().position(|&b| b == b'\n');
                (
                    newline.map_or(available.len(), |i| i + 1),
                    newline.is_some(),
                )
            }
            Err(e) if is_timeout(&e) => {
                if stop() {
                    return Ok(None);
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.len() + take > MAX_FEED_LINE {
            return Err(feed_err("protocol line exceeds the line cap".to_string()));
        }
        buf.extend_from_slice(&reader.buffer()[..take]);
        reader.consume(take);
        if complete {
            return String::from_utf8(buf)
                .map(Some)
                .map_err(|_| feed_err("protocol line is not valid UTF-8".to_string()));
        }
    }
}

/// `read_exact` that survives read-timeout ticks (polling `stop`)
/// without losing already-read bytes. Returns `false` if a stop was
/// requested before the buffer filled.
fn read_exact_polling(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    stop: &dyn Fn() -> bool,
) -> io::Result<bool> {
    let mut at = 0;
    while at < buf.len() {
        match reader.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "primary closed the replication connection mid-frame",
                ))
            }
            Ok(n) => at += n,
            Err(e) if is_timeout(&e) => {
                if stop() {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one binary WAL frame off the feed. `Ok(None)` means a stop was
/// requested; a frame that fails its CRC is an error (the follower
/// reconnects and resyncs rather than guessing).
fn read_frame(
    reader: &mut BufReader<TcpStream>,
    stop: &dyn Fn() -> bool,
) -> io::Result<Option<WalRecord>> {
    let mut frame = vec![0u8; 8];
    if !read_exact_polling(reader, &mut frame, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return Err(feed_err(format!("oversized frame ({len} bytes)")));
    }
    frame.resize(8 + len as usize, 0);
    if !read_exact_polling(reader, &mut frame[8..], stop)? {
        return Ok(None);
    }
    match WalRecord::decode_frame(&frame) {
        Some((record, consumed)) if consumed == frame.len() => Ok(Some(record)),
        _ => Err(feed_err("corrupt replication frame".to_string())),
    }
}

use std::io::Read as _;

#[cfg(test)]
mod tests {
    use super::*;

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

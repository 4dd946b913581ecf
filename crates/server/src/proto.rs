//! The wire protocol: newline-delimited UTF-8 frames over TCP.
//!
//! # Grammar
//!
//! On connect the server sends one greeting line:
//!
//! ```text
//! hello: qld <version> epoch=<N> auth=<required|open>
//! ```
//!
//! Each **request** is one script line (see [`crate::script`]):
//! a query, `:insert …`, `:assert-ne …`, `:stats`, `:quit`, `:shutdown`,
//! the admin verbs `:promote` (turn a follower into a writable primary)
//! and `:follow epoch=<E> generation=<G>` (switch the connection into a
//! replication feed — see [`crate::replication`]), or — when the server
//! was started with a token — the `auth <token>` handshake, which must
//! come first.
//!
//! Each **reply** is zero or more tagged data lines followed by exactly
//! one terminator line, so the client always knows where a reply ends:
//!
//! ```text
//! answer: (plato, aristotle)      -- one per tuple (open query)
//! answer: CERTAIN                 -- or one verdict (boolean query)
//! evidence: auto → §5 approx, exact (Theorem 13), epoch 3 in 12.3µs
//! delta: 1 fact(s) inserted (0 duplicate), …   -- mutation replies
//! stat: …                         -- :stats replies
//! promoted: generation=<G>        -- :promote replies
//! done: epoch=<N>                 -- success terminator
//! error: <diagnostic>             -- failure terminator
//! ```
//!
//! The epoch on `done:` is the consistency contract: for a query it is
//! the epoch of the snapshot that produced the tuples (identical to the
//! epoch inside the `evidence:` line), for a mutation the epoch the
//! delta published, for everything else the currently published epoch.
//! Failure diagnostics are namespaced: `error: auth: …`,
//! `error: quota: …`, `error: busy: …`, and `error: timeout: …` are
//! connection-level (the server closes the connection after sending
//! them); `error: protocol: …` marks a malformed frame at the transport
//! layer (an over-long request line closes the connection; a complete
//! but non-UTF-8 line is refused and the connection stays usable);
//! every other `error:` carries a script/engine diagnostic and leaves
//! the connection open.

use qld_engine::{Answers, Evidence, Semantics};
use qld_logic::{ConstId, Vocabulary};
use std::fmt;
use std::io::{self, BufRead, Read};

/// Protocol version in the greeting; bump on incompatible changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Longest line either end accepts, newline included: a request on the
/// server, a greeting or header on a follower. Orders of magnitude beyond
/// any sane query, and small enough that a hostile peer streaming an
/// endless "line" cannot balloon a thread's memory.
pub(crate) const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reads one line into `buf` (cleared first): through its `\n`, or up to
/// EOF. Returns whether the line ended in `\n`; `false` with an empty
/// `buf` is a clean EOF. A line longer than [`MAX_LINE_BYTES`] is an
/// [`io::ErrorKind::InvalidData`] error: the rest of it is unbounded, so
/// the stream cannot be resynchronised. Socket errors, timeouts
/// included, pass through. The bytes are not checked for UTF-8 — what a
/// bad line costs is the caller's rule.
pub(crate) fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if buf.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    Ok(buf.last() == Some(&b'\n'))
}

/// The boolean-query verdict word (shared by the CLI and the wire, so a
/// remote answer renders identically to a local one).
pub fn verdict(mode: Semantics, holds: bool) -> &'static str {
    match (mode, holds) {
        (Semantics::Possible, true) => "POSSIBLE",
        (Semantics::Possible, false) => "impossible",
        (_, true) => "CERTAIN",
        (_, false) => "not certain",
    }
}

/// Appends one answer tuple (element `i` is constant `ConstId(i)`) as
/// `(c1, ..., ck)`, constants by name.
fn push_tuple(out: &mut String, voc: &Vocabulary, tuple: &[u32]) {
    out.push('(');
    for (i, &elem) in tuple.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(voc.const_name(ConstId(elem)));
    }
    out.push(')');
}

/// Answer tuples rendered with the vocabulary's constant names, one
/// `(c1, ..., ck)` string per tuple.
pub fn tuple_lines(voc: &Vocabulary, answers: &Answers) -> Vec<String> {
    answers
        .tuples()
        .iter()
        .map(|tuple| {
            let mut line = String::new();
            push_tuple(&mut line, voc, tuple);
            line
        })
        .collect()
}

/// The payload of an `answer:` reply: verdict word for a boolean query,
/// one line per tuple otherwise.
pub fn answer_lines(
    voc: &Vocabulary,
    mode: Semantics,
    is_boolean: bool,
    answers: &Answers,
) -> Vec<String> {
    if is_boolean {
        vec![verdict(mode, answers.holds()).to_string()]
    } else {
        tuple_lines(voc, answers)
    }
}

/// Appends the `answer:` lines of a query reply — what [`answer_lines`]
/// returns, each line tagged and newline-terminated — to `reply`.
///
/// The block is a function of the answer alone (the vocabulary never
/// changes, and `mode` and `is_boolean` are those of the one query under
/// the one semantics the answer was computed for), so it is rendered
/// once and kept beside the tuples ([`Answers::text_memo`]): the cached
/// entry, and every hit any connection is served from it, share the one
/// text, and a warm reply costs a copy of its bytes. The memo is dropped
/// with the answer — the engine's answer cache bounds both. The
/// `evidence:` and `done:` lines differ per request and are not part of
/// it.
pub(crate) fn push_answer_block(
    reply: &mut String,
    voc: &Vocabulary,
    mode: Semantics,
    is_boolean: bool,
    answers: &Answers,
) {
    reply.push_str(answers.text_memo(|| {
        let mut block = String::new();
        if is_boolean {
            block.push_str("answer: ");
            block.push_str(verdict(mode, answers.holds()));
            block.push('\n');
        } else {
            for tuple in answers.tuples() {
                block.push_str("answer: ");
                push_tuple(&mut block, voc, tuple);
                block.push('\n');
            }
        }
        block
    }));
}

/// The evidence tag printed after every answer (regime, certificate,
/// epoch, elapsed time).
pub fn evidence_tag(evidence: &Evidence) -> String {
    EvidenceTag(evidence).to_string()
}

/// [`evidence_tag`] as a `Display` value, for writing the tag into a
/// reply without building it first.
pub(crate) struct EvidenceTag<'a>(pub(crate) &'a Evidence);

impl fmt::Display for EvidenceTag<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {:.2?}", self.0, self.0.elapsed)
    }
}

/// The server greeting, as parsed by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version announced by the server.
    pub version: u32,
    /// The epoch published when the connection was accepted.
    pub epoch: u64,
    /// Whether the server demands an `auth <token>` handshake first.
    pub auth_required: bool,
}

impl Hello {
    /// Renders the greeting line.
    pub fn render(&self) -> String {
        format!(
            "hello: qld {} epoch={} auth={}",
            self.version,
            self.epoch,
            if self.auth_required {
                "required"
            } else {
                "open"
            }
        )
    }

    /// Parses a greeting line (`None` if it is not a valid greeting).
    pub fn parse(line: &str) -> Option<Hello> {
        let rest = line.trim().strip_prefix("hello: qld ")?;
        let mut words = rest.split_whitespace();
        let version = words.next()?.parse().ok()?;
        let epoch = words.next()?.strip_prefix("epoch=")?.parse().ok()?;
        let auth_required = match words.next()?.strip_prefix("auth=")? {
            "required" => true,
            "open" => false,
            _ => return None,
        };
        Some(Hello {
            version,
            epoch,
            auth_required,
        })
    }
}

/// One parsed reply, accumulated by the client until the terminator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    /// `answer:` payloads (tuples or a verdict word).
    pub answers: Vec<String>,
    /// The `evidence:` tag, if the request was a query.
    pub evidence: Option<String>,
    /// The `delta:` report, if the request was a mutation.
    pub delta: Option<String>,
    /// `stat:` lines, if the request was `:stats`.
    pub stats: Vec<String>,
    /// The new generation from a `promoted:` line, if the request was
    /// `:promote`.
    pub promoted: Option<u64>,
    /// The epoch stamped on the `done:` terminator.
    pub epoch: Option<u64>,
    /// The diagnostic from an `error:` terminator.
    pub error: Option<String>,
}

impl Reply {
    /// Whether the reply terminated with `done:` (no error).
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Folds one reply line in; returns `true` when the line terminated
    /// the reply (`done:` or `error:`).
    pub fn push_line(&mut self, line: &str) -> bool {
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some(rest) = line.strip_prefix("answer: ") {
            self.answers.push(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("evidence: ") {
            self.evidence = Some(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("delta: ") {
            self.delta = Some(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("stat: ") {
            self.stats.push(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("promoted:") {
            self.promoted = rest
                .split_whitespace()
                .find_map(|w| w.strip_prefix("generation=").and_then(|g| g.parse().ok()));
        } else if let Some(rest) = line.strip_prefix("done:") {
            self.epoch = rest
                .split_whitespace()
                .find_map(|w| w.strip_prefix("epoch=").and_then(|e| e.parse().ok()));
            return true;
        } else if let Some(rest) = line.strip_prefix("error: ") {
            self.error = Some(rest.to_string());
            return true;
        }
        // Unknown tags are skipped (forward compatibility).
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrips() {
        for hello in [
            Hello {
                version: 1,
                epoch: 0,
                auth_required: false,
            },
            Hello {
                version: 1,
                epoch: 42,
                auth_required: true,
            },
        ] {
            assert_eq!(Hello::parse(&hello.render()), Some(hello));
        }
        assert_eq!(Hello::parse("hi there"), None);
        assert_eq!(Hello::parse("hello: qld x epoch=0 auth=open"), None);
    }

    #[test]
    fn reply_accumulates_until_terminator() {
        let mut reply = Reply::default();
        assert!(!reply.push_line("answer: (plato)"));
        assert!(!reply.push_line("answer: (aristotle)"));
        assert!(!reply.push_line("evidence: auto, epoch 3 in 1.00µs"));
        assert!(!reply.push_line("mystery: ignored"));
        assert!(reply.push_line("done: epoch=3"));
        assert!(reply.is_ok());
        assert_eq!(reply.epoch, Some(3));
        assert_eq!(reply.answers.len(), 2);
        assert!(reply.evidence.as_deref().unwrap().contains("epoch 3"));

        let mut err = Reply::default();
        assert!(err.push_line("error: quota: query quota exhausted (limit 2)"));
        assert!(!err.is_ok());
        assert!(err.error.as_deref().unwrap().starts_with("quota:"));

        let mut promoted = Reply::default();
        assert!(!promoted.push_line("promoted: generation=7"));
        assert!(promoted.push_line("done: epoch=12"));
        assert_eq!(promoted.promoted, Some(7));
        assert_eq!(promoted.epoch, Some(12));
    }

    #[test]
    fn the_answer_block_is_the_answer_lines_tagged_and_rendered_once() {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "c"]).unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let db = qld_core::CwDatabase::builder(voc)
            .fact(r, &[ids[0], ids[1]])
            .fact(r, &[ids[1], ids[2]])
            .build()
            .unwrap();
        let engine = qld_engine::Engine::new(db);
        let (voc, mode) = (engine.db().voc(), engine.semantics());
        for (text, is_boolean) in [("(x, y) . R(x, y)", false), ("R(a, b)", true)] {
            let answers = engine.query(text).unwrap();
            let want: String = answer_lines(voc, mode, is_boolean, &answers)
                .iter()
                .map(|line| format!("answer: {line}\n"))
                .collect();
            let mut reply = String::from("kept: ");
            push_answer_block(&mut reply, voc, mode, is_boolean, &answers);
            assert_eq!(reply, format!("kept: {want}"));
            // A cache hit shares the block with the answer it came from.
            let hit = engine.query(text).unwrap();
            assert!(hit.evidence().cache_hit);
            assert_eq!(hit.text_memo(|| unreachable!("rendered once")), want);
        }
    }

    #[test]
    fn read_line_is_bounded_and_reports_the_terminator() {
        let at_cap = [vec![b'a'; MAX_LINE_BYTES - 1], b"\nnext".to_vec()].concat();
        let mut reader = &at_cap[..];
        let mut buf = Vec::new();
        assert!(read_line(&mut reader, &mut buf).unwrap());
        assert_eq!(buf.len(), MAX_LINE_BYTES);
        // The unterminated tail at EOF, then a clean EOF.
        assert!(!read_line(&mut reader, &mut buf).unwrap());
        assert_eq!(buf, b"next");
        assert!(!read_line(&mut reader, &mut buf).unwrap());
        assert!(buf.is_empty());

        let over = [vec![b'a'; MAX_LINE_BYTES], b"\n".to_vec()].concat();
        let err = read_line(&mut &over[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn verdict_words_cover_the_modes() {
        assert_eq!(verdict(Semantics::Auto, true), "CERTAIN");
        assert_eq!(verdict(Semantics::Exact, false), "not certain");
        assert_eq!(verdict(Semantics::Possible, true), "POSSIBLE");
        assert_eq!(verdict(Semantics::Possible, false), "impossible");
    }
}

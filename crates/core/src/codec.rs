//! The binary encoding of a [`CwDatabase`], for WAL checkpoints and
//! replication snapshot transfer.
//!
//! §2.2 determines a CW logical database by its constants, its atomic
//! facts and its uniqueness axioms (domain closure and completion follow),
//! so the encoding is those three lists and nothing else. After an
//! 8-byte [`MAGIC`], with every integer a `u32` in little-endian order:
//!
//! ```text
//! [nconsts] nconsts × ([len] len bytes of UTF-8 name)
//! [npreds]  npreds  × ([len] len bytes of UTF-8 name, [arity], [rows], rows × arity × [const id])
//! [nne]     nne     × ([a] [b])            -- the sorted (lo, hi) uniqueness pairs
//! ```
//!
//! Rows are written in the relation's sorted order. [`decode`] checks
//! every length against the bytes that remain before it trusts it, and
//! builds the database through [`CwDatabase::builder`], which checks
//! arities, constant ids and reflexive axioms; any defect is a
//! [`CodecError`], never a panic.
//!
//! Bytes that do not open with [`MAGIC`] are read as `.qld` text through
//! [`textio::from_text`]: checkpoints and snapshots written before the
//! binary layout existed still load, and which layout a payload is in is
//! decided here and nowhere else. `textio` stays the human import/export
//! format.

use crate::textio::{self, TextError};
use crate::theory::{CwDatabase, CwError};
use qld_logic::{ConstId, LogicError, Vocabulary};
use std::fmt;

/// Opens every binary encoding. Its first byte, `0xFF`, never occurs in
/// UTF-8, so no `.qld` text can be mistaken for the binary layout.
pub const MAGIC: &[u8; 8] = b"\xFFQLDCW1\n";

/// Why [`decode`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The binary layout is broken: it ends early, has bytes left over,
    /// or holds a name that is not UTF-8. Also bytes without [`MAGIC`]
    /// that are not UTF-8 text either.
    Malformed(&'static str),
    /// Two constants or two predicates share a name.
    Logic(LogicError),
    /// The lists describe no valid database: a constant id outside the
    /// vocabulary, a reflexive uniqueness axiom, no constants at all.
    Cw(CwError),
    /// Legacy `.qld` text that does not parse.
    Text(TextError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed(what) => write!(f, "malformed database encoding: {what}"),
            CodecError::Logic(e) => write!(f, "{e}"),
            CodecError::Cw(e) => write!(f, "{e}"),
            CodecError::Text(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<LogicError> for CodecError {
    fn from(e: LogicError) -> Self {
        CodecError::Logic(e)
    }
}

impl From<CwError> for CodecError {
    fn from(e: CwError) -> Self {
        CodecError::Cw(e)
    }
}

/// Encodes `db` in the binary layout of the module docs.
pub fn encode(db: &CwDatabase) -> Vec<u8> {
    let voc = db.voc();
    let mut out = Vec::with_capacity(
        MAGIC.len() + 12 + 16 * (voc.num_consts() + voc.num_preds()) + 8 * db.num_ne(),
    );
    let put = |out: &mut Vec<u8>, n: usize| {
        let n = u32::try_from(n).expect("database sizes fit the u32 ids they index");
        out.extend_from_slice(&n.to_le_bytes());
    };
    let put_name = |out: &mut Vec<u8>, name: &str| {
        put(out, name.len());
        out.extend_from_slice(name.as_bytes());
    };
    out.extend_from_slice(MAGIC);
    put(&mut out, voc.num_consts());
    for c in voc.consts() {
        put_name(&mut out, voc.const_name(c));
    }
    put(&mut out, voc.num_preds());
    for p in voc.preds() {
        let facts = db.facts(p);
        put_name(&mut out, voc.pred_name(p));
        put(&mut out, facts.arity());
        put(&mut out, facts.len());
        out.reserve(4 * facts.arity() * facts.len());
        for row in facts.iter() {
            for e in row {
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
    }
    put(&mut out, db.num_ne());
    for (a, b) in db.ne_pairs() {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

/// Decodes what [`encode`] wrote, or legacy `.qld` text (see the module
/// docs). Never panics: every defect of the input is a [`CodecError`].
pub fn decode(bytes: &[u8]) -> Result<CwDatabase, CodecError> {
    let Some(body) = bytes.strip_prefix(MAGIC.as_slice()) else {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| CodecError::Malformed("neither the binary layout nor UTF-8 text"))?;
        return textio::from_text(text).map_err(CodecError::Text);
    };
    let mut input = Reader(body);

    let mut voc = Vocabulary::new();
    for _ in 0..input.count(4)? {
        voc.add_const(input.name()?)?;
    }
    // Declare every predicate before the builder takes the vocabulary,
    // keeping each one's rows as the slice of input they occupy.
    let npreds = input.count(12)?;
    let mut rows_of = Vec::with_capacity(npreds);
    for _ in 0..npreds {
        let name = input.name()?;
        let arity = input.u32()? as usize;
        let rows = input.u32()? as usize;
        if arity == 0 && rows > 1 {
            return Err(CodecError::Malformed(
                "a 0-ary relation holds at most one row",
            ));
        }
        let bytes = rows
            .checked_mul(arity)
            .and_then(|cells| cells.checked_mul(4))
            .ok_or(CodecError::Malformed("relation size overflows"))?;
        rows_of.push((voc.add_pred(name, arity)?, arity, rows, input.take(bytes)?));
    }
    let nne = input.count(8)?;
    let ne = input.take(8 * nne)?;
    if !input.0.is_empty() {
        return Err(CodecError::Malformed("bytes after the uniqueness axioms"));
    }

    fn const_ids(data: &[u8]) -> impl Iterator<Item = ConstId> + '_ {
        let (ids, _) = data.as_chunks::<4>();
        ids.iter().map(|id| ConstId(u32::from_le_bytes(*id)))
    }
    let mut builder = CwDatabase::builder(voc);
    let mut args = Vec::new();
    for (p, arity, rows, data) in rows_of {
        let mut ids = const_ids(data);
        for _ in 0..rows {
            args.clear();
            args.extend(ids.by_ref().take(arity));
            builder = builder.fact(p, &args);
        }
    }
    let mut ne = const_ids(ne);
    while let (Some(a), Some(b)) = (ne.next(), ne.next()) {
        builder = builder.unique(a, b);
    }
    Ok(builder.build()?)
}

/// The unread rest of a binary encoding.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.0.len() {
            return Err(CodecError::Malformed("ends early"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// A list length, refused unless the rest of the input could hold
    /// that many items of at least `min_item` bytes each.
    fn count(&mut self, min_item: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.0.len() / min_item {
            return Err(CodecError::Malformed("a list is longer than the input"));
        }
        Ok(n)
    }

    fn name(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| CodecError::Malformed("a name is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "const socrates plato aristotle mystery\n\
                          pred TEACHES/2 WISE/1 FLAG/0 EMPTY/3\n\
                          fact TEACHES(socrates, plato)\nfact TEACHES(plato, aristotle)\n\
                          fact WISE(socrates)\nfact FLAG()\n\
                          distinct socrates plato aristotle\nunique mystery socrates\n";

    fn sample() -> CwDatabase {
        textio::from_text(SAMPLE).unwrap()
    }

    /// A hand-built binary encoding: `MAGIC`, then the given `u32`s and
    /// names in order.
    enum Item<'a> {
        N(u32),
        S(&'a [u8]),
    }

    fn layout(items: &[Item]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        for item in items {
            match item {
                Item::N(n) => out.extend_from_slice(&n.to_le_bytes()),
                Item::S(s) => {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s);
                }
            }
        }
        out
    }

    #[test]
    fn round_trip_is_exact_and_smaller_than_text() {
        let db = sample();
        let bytes = encode(&db);
        assert!(bytes.starts_with(MAGIC));
        assert_eq!(decode(&bytes), Ok(db.clone()));
        assert_eq!(encode(&decode(&bytes).unwrap()), bytes, "canonical");
        assert!(bytes.len() < textio::to_text(&db).len());
        // Fully specified, and a one-constant database with no axioms.
        let full =
            textio::from_text("const a b c\npred P/1\nfact P(b)\nfully_specified\n").unwrap();
        assert_eq!(decode(&encode(&full)), Ok(full));
        let one = textio::from_text("const only\n").unwrap();
        assert_eq!(decode(&encode(&one)), Ok(one));
    }

    #[test]
    fn the_layout_is_the_documented_one() {
        let db = textio::from_text("const a b\npred P/2 F/0\nfact P(b, a)\nunique b a\n").unwrap();
        let expected = layout(&[
            Item::N(2),
            Item::S(b"a"),
            Item::S(b"b"),
            Item::N(2),
            Item::S(b"P"),
            Item::N(2),
            Item::N(1),
            Item::N(1),
            Item::N(0),
            Item::S(b"F"),
            Item::N(0),
            Item::N(0),
            Item::N(1),
            Item::N(0),
            Item::N(1),
        ]);
        assert_eq!(encode(&db), expected);
    }

    #[test]
    fn bytes_without_the_magic_are_legacy_text() {
        let db = sample();
        assert_eq!(decode(textio::to_text(&db).as_bytes()), Ok(db));
        assert!(matches!(
            decode(b"const a\nbogus\n"),
            Err(CodecError::Text(TextError::Syntax { line: 2, .. }))
        ));
        assert_eq!(
            decode(b"\xFEnot text"),
            Err(CodecError::Malformed(
                "neither the binary layout nor UTF-8 text"
            ))
        );
    }

    #[test]
    fn every_defect_is_an_error() {
        use Item::{N, S};
        let malformed = |items: &[Item], what: &'static str| {
            assert_eq!(decode(&layout(items)), Err(CodecError::Malformed(what)));
        };
        // Each list ends with its count of zero where a test needs it.
        malformed(&[N(1), S(b"a"), N(0)], "ends early");
        malformed(
            &[N(1), S(b"a"), N(0), N(0), N(9)],
            "bytes after the uniqueness axioms",
        );
        malformed(&[N(1), S(b"\xC3"), N(0), N(0)], "a name is not UTF-8");
        malformed(&[N(1_000_000)], "a list is longer than the input");
        malformed(
            &[N(1), S(b"a"), N(1), S(b"F"), N(0), N(2), N(0)],
            "a 0-ary relation holds at most one row",
        );
        malformed(
            &[N(1), S(b"a"), N(1), S(b"P"), N(1), N(3), N(0), N(0), N(0)],
            "ends early",
        );
        assert!(matches!(
            decode(&layout(&[N(2), S(b"a"), S(b"a"), N(0), N(0)])),
            Err(CodecError::Logic(LogicError::DuplicateSymbol(_)))
        ));
        assert!(matches!(
            decode(&layout(&[
                N(1),
                S(b"a"),
                N(2),
                S(b"P"),
                N(1),
                N(0),
                S(b"P"),
                N(1),
                N(0),
                N(0)
            ])),
            Err(CodecError::Logic(LogicError::DuplicateSymbol(_)))
        ));
        let cw =
            |items: &[Item], e: CwError| assert_eq!(decode(&layout(items)), Err(CodecError::Cw(e)));
        cw(
            &[N(1), S(b"a"), N(1), S(b"P"), N(1), N(1), N(7), N(0)],
            CwError::UnknownConstant(7),
        );
        cw(
            &[N(2), S(b"a"), S(b"b"), N(0), N(1), N(0), N(9)],
            CwError::UnknownConstant(9),
        );
        cw(
            &[N(2), S(b"a"), S(b"b"), N(0), N(1), N(1), N(1)],
            CwError::ReflexiveUniqueness("b".into()),
        );
        cw(&[N(0), N(0), N(0)], CwError::NoConstants);
    }
}

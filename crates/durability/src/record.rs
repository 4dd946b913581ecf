//! The on-disk record format: length-prefixed, CRC-checksummed frames.
//!
//! A segment file is an 8-byte magic header followed by zero or more
//! records. Each record is
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! and the payload serializes one delta:
//!
//! ```text
//! [epoch: u64] [nfacts: u32] nfacts × ([pred: u32] [arity: u32] arity × [arg: u32])
//!              [nne: u32]    nne × ([a: u32] [b: u32])
//! ```
//!
//! (all integers little-endian). Decoding is *strict*: a frame whose
//! payload does not parse to exactly `len` bytes is as corrupt as a bad
//! CRC, and [`decode_segment`] stops at the first problem — that is the
//! torn-tail tolerance recovery relies on.

use std::fmt;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"QWALSEG1";

/// Magic bytes opening a legacy (pre-replication) checkpoint file.
/// Decoded for backward compatibility; such checkpoints carry
/// generation 0.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"QWALCKP1";

/// Magic bytes opening every checkpoint file written today: the `V2`
/// layout adds the primary generation (the failover fencing term) to
/// the header, between the epoch and the payload length.
pub const CHECKPOINT_MAGIC_V2: &[u8; 8] = b"QWALCKP2";

/// Hard upper bound on one record's payload (sanity check against a
/// corrupt length prefix sending the decoder on a gigabyte allocation).
pub const MAX_RECORD_BYTES: u32 = 1 << 28;

/// The slicing-by-8 tables of [`crc32`]: `CRC_TABLES[0]` is the classic
/// bytewise table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight table lookups advance the CRC by eight
/// input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum on every
/// record and checkpoint payload. Slicing-by-8: eight bytes per step
/// through eight lookup tables, the last `len % 8` bytes one at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut crc = !0u32;
    let (chunks, rest) = data.as_chunks::<8>();
    for chunk in chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in rest {
        crc = t[0][byte(crc ^ u32::from(b), 0)] ^ (crc >> 8);
    }
    !crc
}

/// One logged delta, in storage-neutral form: raw predicate/constant ids
/// plus the epoch the delta produced. The engine layer converts its
/// `Delta` type to and from this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The database epoch *after* this delta was applied. Records in a
    /// log have strictly increasing epochs (only changing deltas are
    /// logged, and each bumps the epoch by one).
    pub epoch: u64,
    /// Fact insertions: `(predicate id, argument constant ids)`.
    pub facts: Vec<(u32, Vec<u32>)>,
    /// Uniqueness-axiom insertions: `(constant id, constant id)`.
    pub ne_pairs: Vec<(u32, u32)>,
}

impl WalRecord {
    /// Serializes the payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.facts.len() * 16 + self.ne_pairs.len() * 8);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.facts.len() as u32).to_le_bytes());
        for (pred, args) in &self.facts {
            out.extend_from_slice(&pred.to_le_bytes());
            out.extend_from_slice(&(args.len() as u32).to_le_bytes());
            for arg in args {
                out.extend_from_slice(&arg.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.ne_pairs.len() as u32).to_le_bytes());
        for (a, b) in &self.ne_pairs {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    /// Serializes the full frame: length prefix, CRC, payload.
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses a payload; `None` unless it decodes cleanly and consumes
    /// every byte.
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut cursor = Cursor {
            buf: payload,
            at: 0,
        };
        let epoch = cursor.u64()?;
        let nfacts = cursor.u32()? as usize;
        let mut facts = Vec::with_capacity(nfacts.min(1024));
        for _ in 0..nfacts {
            let pred = cursor.u32()?;
            let arity = cursor.u32()? as usize;
            let mut args = Vec::with_capacity(arity.min(1024));
            for _ in 0..arity {
                args.push(cursor.u32()?);
            }
            facts.push((pred, args));
        }
        let nne = cursor.u32()? as usize;
        let mut ne_pairs = Vec::with_capacity(nne.min(1024));
        for _ in 0..nne {
            ne_pairs.push((cursor.u32()?, cursor.u32()?));
        }
        if cursor.at != payload.len() {
            return None; // trailing garbage: treat as corrupt
        }
        Some(WalRecord {
            epoch,
            facts,
            ne_pairs,
        })
    }

    /// Decodes one frame at the start of `bytes`; `None` on any torn or
    /// corrupt condition. Returns the record and the bytes consumed
    /// (`8 + payload length`). This is the segment scanner's inner step,
    /// exposed so a replication follower can decode the same frames off
    /// a byte stream.
    pub fn decode_frame(bytes: &[u8]) -> Option<(WalRecord, usize)> {
        if bytes.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            return None;
        }
        let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let end = 8usize.checked_add(len as usize)?;
        let payload = bytes.get(8..end)?;
        if crc32(payload) != crc {
            return None;
        }
        let record = WalRecord::decode_payload(payload)?;
        Some((record, end))
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.buf.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// The result of scanning one segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Records that decoded cleanly, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic header plus whole
    /// records). Truncating the file to this length removes exactly the
    /// torn/corrupt tail.
    pub valid_len: u64,
    /// Whether a torn or corrupt suffix follows the valid prefix.
    pub corrupt: bool,
}

/// Scans a segment file: validates the magic, then decodes records until
/// the bytes run out (clean) or a frame fails its length/CRC/payload
/// checks (corrupt — everything from that frame on is the tail to drop).
pub fn decode_segment(bytes: &[u8]) -> SegmentScan {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return SegmentScan {
            records: Vec::new(),
            valid_len: 0,
            corrupt: !bytes.is_empty(),
        };
    }
    let mut records = Vec::new();
    let mut at = SEGMENT_MAGIC.len();
    loop {
        if at == bytes.len() {
            return SegmentScan {
                records,
                valid_len: at as u64,
                corrupt: false,
            };
        }
        let frame = WalRecord::decode_frame(&bytes[at..]);
        match frame {
            Some((record, consumed)) => {
                records.push(record);
                at += consumed;
            }
            None => {
                return SegmentScan {
                    records,
                    valid_len: at as u64,
                    corrupt: true,
                };
            }
        }
    }
}

/// A database checkpoint: the serialized state at one epoch, under one
/// primary generation. The payload is opaque to the WAL (the engine
/// layer stores the binary `qld_core::codec` encoding of its database
/// there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The epoch the payload captures.
    pub epoch: u64,
    /// The primary generation (failover term) the state was written
    /// under. Bumped by promotion; used to fence a stale primary's
    /// replication stream. Legacy `QWALCKP1` checkpoints decode as
    /// generation 0.
    pub generation: u64,
    /// The serialized database.
    pub payload: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the whole checkpoint file (always the `V2` layout:
    /// magic, epoch, generation, payload length, payload CRC, payload).
    pub fn encode(&self) -> Vec<u8> {
        let header = Checkpoint::header(self.epoch, self.generation, &self.payload);
        [&header[..], &self.payload].concat()
    }

    /// The bytes of a checkpoint file that precede its payload, so a
    /// writer can append them and then the payload it borrows, without
    /// building the file in a buffer of its own.
    pub fn header(epoch: u64, generation: u64, payload: &[u8]) -> [u8; 32] {
        let mut header = [0u8; 32];
        header[..8].copy_from_slice(CHECKPOINT_MAGIC_V2);
        header[8..16].copy_from_slice(&epoch.to_le_bytes());
        header[16..24].copy_from_slice(&generation.to_le_bytes());
        header[24..28].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[28..].copy_from_slice(&crc32(payload).to_le_bytes());
        header
    }

    /// Parses a checkpoint file; `None` unless the magic, length, and
    /// CRC all check out exactly (a torn checkpoint is simply invalid —
    /// recovery falls back to the previous one). Accepts both the
    /// current `QWALCKP2` layout and the legacy `QWALCKP1` layout
    /// (which carried no generation; it decodes as generation 0).
    pub fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        let magic = CHECKPOINT_MAGIC.len();
        let head = bytes.get(..magic)?;
        let mut cursor = Cursor {
            buf: bytes,
            at: magic,
        };
        let generation_present = if head == CHECKPOINT_MAGIC_V2 {
            true
        } else if head == CHECKPOINT_MAGIC {
            false
        } else {
            return None;
        };
        let epoch = cursor.u64()?;
        let generation = if generation_present { cursor.u64()? } else { 0 };
        let len = cursor.u32()? as usize;
        let crc = cursor.u32()?;
        let payload = bytes.get(cursor.at..)?;
        if payload.len() != len || crc32(payload) != crc {
            return None;
        }
        Some(Checkpoint {
            epoch,
            generation,
            payload: payload.to_vec(),
        })
    }
}

impl fmt::Display for WalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {} ({} fact(s), {} axiom(s))",
            self.epoch,
            self.facts.len(),
            self.ne_pairs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> WalRecord {
        WalRecord {
            epoch,
            facts: vec![(0, vec![1, 2]), (3, vec![])],
            ne_pairs: vec![(1, 2)],
        }
    }

    /// The bytewise CRC-32 loop, the reference the sliced one must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        // A deterministic byte stream (64-bit LCG, high byte).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..100 * 1024)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn record_payload_round_trips() {
        for record in [
            sample(0),
            sample(u64::MAX),
            WalRecord {
                epoch: 7,
                facts: vec![],
                ne_pairs: vec![],
            },
        ] {
            let payload = record.encode_payload();
            assert_eq!(WalRecord::decode_payload(&payload), Some(record));
        }
        // Trailing garbage is corrupt, not ignored.
        let mut payload = sample(1).encode_payload();
        payload.push(0);
        assert_eq!(WalRecord::decode_payload(&payload), None);
        // A truncated payload is corrupt.
        let payload = sample(1).encode_payload();
        assert_eq!(
            WalRecord::decode_payload(&payload[..payload.len() - 1]),
            None
        );
    }

    #[test]
    fn segment_scan_accepts_clean_files_and_stops_at_corruption() {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&sample(1).encode_frame());
        bytes.extend_from_slice(&sample(2).encode_frame());
        let clean = decode_segment(&bytes);
        assert!(!clean.corrupt);
        assert_eq!(clean.valid_len, bytes.len() as u64);
        assert_eq!(clean.records.len(), 2);
        assert_eq!(clean.records[1].epoch, 2);

        // Tear the second record at every byte: the scan always keeps
        // exactly the first record and reports the tear.
        let first_end = SEGMENT_MAGIC.len() + sample(1).encode_frame().len();
        for cut in first_end + 1..bytes.len() {
            let scan = decode_segment(&bytes[..cut]);
            assert!(scan.corrupt, "cut at {cut}");
            assert_eq!(scan.valid_len as usize, first_end, "cut at {cut}");
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
        }

        // Flip a payload byte: bad CRC, same truncation point.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        let scan = decode_segment(&flipped);
        assert!(scan.corrupt);
        assert_eq!(scan.records.len(), 1);

        // A bad magic yields nothing; an empty file is merely empty.
        assert!(decode_segment(b"NOTMAGIC").corrupt);
        assert!(!decode_segment(b"").corrupt);
        assert!(decode_segment(b"QWAL").corrupt);
    }

    #[test]
    fn oversized_length_prefix_is_corrupt() {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&(MAX_RECORD_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        let scan = decode_segment(&bytes);
        assert!(scan.corrupt);
        assert_eq!(scan.valid_len as usize, SEGMENT_MAGIC.len());
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_corruption() {
        let ckpt = Checkpoint {
            epoch: 42,
            generation: 7,
            payload: b"db text here".to_vec(),
        };
        let bytes = ckpt.encode();
        assert_eq!(Checkpoint::decode(&bytes), Some(ckpt.clone()));
        // Torn at any byte: invalid.
        for cut in 0..bytes.len() {
            assert_eq!(Checkpoint::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        // Flipped payload byte: invalid.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert_eq!(Checkpoint::decode(&flipped), None);
        // Extra byte: invalid.
        let mut extra = bytes;
        extra.push(0);
        assert_eq!(Checkpoint::decode(&extra), None);
    }

    #[test]
    fn legacy_v1_checkpoints_decode_as_generation_zero() {
        // Hand-build the QWALCKP1 layout (no generation field).
        let payload = b"legacy state".to_vec();
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let decoded = Checkpoint::decode(&bytes).expect("legacy layout decodes");
        assert_eq!(decoded.epoch, 9);
        assert_eq!(decoded.generation, 0);
        assert_eq!(decoded.payload, payload);
        // Torn at any byte: invalid, same as the current layout.
        for cut in 0..bytes.len() {
            assert_eq!(Checkpoint::decode(&bytes[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn public_frame_decode_matches_the_segment_scanner() {
        let record = sample(5);
        let frame = record.encode_frame();
        let (decoded, consumed) = WalRecord::decode_frame(&frame).expect("frame decodes");
        assert_eq!(decoded, record);
        assert_eq!(consumed, frame.len());
        // Torn at every byte: no partial decode.
        for cut in 0..frame.len() {
            assert_eq!(WalRecord::decode_frame(&frame[..cut]), None, "cut at {cut}");
        }
        // Extra trailing bytes are fine — the frame knows its own length.
        let mut stream = frame.clone();
        stream.extend_from_slice(&sample(6).encode_frame());
        let (first, consumed) = WalRecord::decode_frame(&stream).expect("first frame decodes");
        assert_eq!(first.epoch, 5);
        let (second, _) = WalRecord::decode_frame(&stream[consumed..]).expect("second frame");
        assert_eq!(second.epoch, 6);
    }

    #[test]
    fn record_display_summarizes() {
        let line = sample(9).to_string();
        assert!(line.contains("epoch 9"), "{line}");
        assert!(line.contains("2 fact(s)"), "{line}");
    }
}

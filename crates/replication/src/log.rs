//! The replicated log, as laid out in each member's RDMA-exposed region.
//!
//! Mu's (and therefore P4CE's) log is a byte array the leader appends to
//! with one-sided writes and that each member consumes asynchronously
//! (§III). An entry only counts once its *canary* byte is present, so a
//! reader never consumes a torn entry whose tail packets have not landed
//! yet.
//!
//! Entry wire format:
//!
//! ```text
//! magic(2) = 0x4C45   len(2)   seq(8)   payload(len)   canary(1) = 0xA5
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

/// Marks the start of a serialized entry.
pub const ENTRY_MAGIC: u16 = 0x4C45;
/// Trailing completeness marker.
pub const ENTRY_CANARY: u8 = 0xA5;
/// Bytes of framing around a payload.
pub const ENTRY_OVERHEAD: usize = 13;

/// A decided value as stored in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Consensus sequence number (slot).
    pub seq: u64,
    /// The replicated value.
    pub payload: Bytes,
}

impl LogEntry {
    /// Serialized size of this entry.
    pub fn wire_len(&self) -> usize {
        ENTRY_OVERHEAD + self.payload.len()
    }

    /// Serializes the entry for appending to a log region.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the 16-bit length field.
    pub fn encode(&self) -> Bytes {
        assert!(self.payload.len() <= u16::MAX as usize, "payload too large");
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u16(ENTRY_MAGIC);
        buf.put_u16(self.payload.len() as u16);
        buf.put_u64(self.seq);
        buf.put_slice(&self.payload);
        buf.put_u8(ENTRY_CANARY);
        buf.freeze()
    }
}

/// Result of attempting to decode an entry at some log offset. `E` is
/// how a complete entry is held: an owned [`LogEntry`] from [`decode_at`],
/// or — inside [`LogReader::walk`] — a `Span` with nothing copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<E = LogEntry> {
    /// A complete entry and the offset just past it.
    Entry(E, usize),
    /// Nothing written here (yet).
    Empty,
    /// An entry header is present but the canary has not landed: tail
    /// packets are still in flight.
    Torn,
}

/// An entry located but not materialized: its sequence number and its
/// payload's byte range within the log.
type Span = (u64, std::ops::Range<usize>);

/// Locates (without copying) the entry at `offset` in `log`.
fn decode_span(log: &[u8], offset: usize) -> Result<Decoded<Span>, LogError> {
    if offset + 4 > log.len() {
        return Ok(Decoded::Empty);
    }
    let magic = u16::from_be_bytes([log[offset], log[offset + 1]]);
    if magic == 0 {
        return Ok(Decoded::Empty);
    }
    // A half-delivered header: the first magic byte has landed on
    // zero-initialized memory, the second has not. Tail packets are in
    // flight — wait, exactly as for a missing canary.
    if magic == u16::from_be_bytes([ENTRY_MAGIC.to_be_bytes()[0], 0]) {
        return Ok(Decoded::Torn);
    }
    if magic != ENTRY_MAGIC {
        return Err(LogError::Corrupt { offset });
    }
    let len = u16::from_be_bytes([log[offset + 2], log[offset + 3]]) as usize;
    let end = offset + ENTRY_OVERHEAD + len;
    if end > log.len() {
        // The length field may itself be mid-delivery; without a canary
        // in bounds there is nothing safe to consume yet.
        return Ok(Decoded::Torn);
    }
    if log[end - 1] != ENTRY_CANARY {
        return Ok(Decoded::Torn);
    }
    let seq = u64::from_be_bytes(log[offset + 4..offset + 12].try_into().expect("length"));
    Ok(Decoded::Entry((seq, offset + 12..end - 1), end))
}

/// Decodes the entry at `offset` in `log`.
///
/// # Errors
///
/// Returns [`LogError::Corrupt`] if bytes are present but do not start
/// with the entry magic.
pub fn decode_at(log: &[u8], offset: usize) -> Result<Decoded, LogError> {
    Ok(match decode_span(log, offset)? {
        Decoded::Entry((seq, payload), next) => Decoded::Entry(
            LogEntry {
                seq,
                payload: Bytes::copy_from_slice(&log[payload]),
            },
            next,
        ),
        Decoded::Empty => Decoded::Empty,
        Decoded::Torn => Decoded::Torn,
    })
}

/// Append-side bookkeeping for the leader.
///
/// The log is a ring: when an entry does not fit at the tail, the writer
/// wraps to offset zero and overwrites the oldest entries — Mu recycles
/// its logs the same way. The ring must be sized well above
/// `max_in_flight × entry_size` so no unacknowledged entry is ever
/// overwritten (16 in-flight × 8 KiB ≪ the 16 MiB default).
#[derive(Debug, Clone)]
pub struct LogWriter {
    capacity: usize,
    offset: usize,
    next_seq: u64,
    wraps: u64,
}

impl LogWriter {
    /// A writer over a log of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        LogWriter {
            capacity,
            offset: 0,
            next_seq: 0,
            wraps: 0,
        }
    }

    /// How many times the writer wrapped to the head of the ring.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// The next append offset.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Reserves space for `payload`, returning the entry, its bytes and
    /// the offset to write them at. Wraps to the head of the ring when
    /// the tail cannot hold the entry.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Full`] only when a single entry exceeds the
    /// whole ring.
    pub fn append(&mut self, payload: Bytes) -> Result<(LogEntry, Bytes, usize), LogError> {
        let entry = LogEntry {
            seq: self.next_seq,
            payload,
        };
        let bytes = entry.encode();
        if bytes.len() > self.capacity {
            return Err(LogError::Full {
                needed: bytes.len(),
                free: self.capacity,
            });
        }
        if self.offset + bytes.len() > self.capacity {
            self.offset = 0;
            self.wraps += 1;
        }
        let at = self.offset;
        self.offset += bytes.len();
        self.next_seq += 1;
        Ok((entry, bytes, at))
    }

    /// Resumes appending at `offset` with `next_seq` — a new leader
    /// continues from the log state it accumulated as a replica.
    pub fn resume(&mut self, offset: usize, next_seq: u64) {
        self.offset = offset;
        self.next_seq = next_seq;
    }
}

/// Consume-side bookkeeping for any member.
#[derive(Debug, Clone, Default)]
pub struct LogReader {
    offset: usize,
    consumed: u64,
}

impl LogReader {
    /// A reader starting at the head of the log.
    pub fn new() -> Self {
        LogReader::default()
    }

    /// Entries consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The reader's current offset.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Walks every complete entry currently visible in `log`, handing
    /// each to `visit` as `(seq, payload)` borrowed straight out of `log`
    /// — no copy, no allocation — and advancing past it. Stops at the
    /// first empty or torn position (a torn tail waits for its canary).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Corrupt`] only when the *first* unvisited
    /// position is corrupt; entries visited before a later corruption
    /// stay consumed (the reader stops in front of the damage and the
    /// next call reports it).
    pub fn walk<'a>(
        &mut self,
        log: &'a [u8],
        mut visit: impl FnMut(u64, &'a [u8]),
    ) -> Result<(), LogError> {
        let from = self.consumed;
        loop {
            match decode_span(log, self.offset) {
                Ok(Decoded::Entry((seq, payload), next)) => {
                    self.offset = next;
                    self.consumed += 1;
                    visit(seq, &log[payload]);
                }
                Ok(Decoded::Empty | Decoded::Torn) => return Ok(()),
                Err(e) if self.consumed == from => return Err(e),
                Err(_) => return Ok(()),
            }
        }
    }

    /// [`LogReader::walk`], collecting owned copies of the entries.
    ///
    /// # Errors
    ///
    /// As [`LogReader::walk`].
    pub fn drain(&mut self, log: &[u8]) -> Result<Vec<LogEntry>, LogError> {
        let mut out = Vec::new();
        self.walk(log, |seq, payload| {
            out.push(LogEntry {
                seq,
                payload: Bytes::copy_from_slice(payload),
            });
        })?;
        Ok(out)
    }

    /// Restarts from the head (view change).
    pub fn reset(&mut self) {
        self.offset = 0;
        self.consumed = 0;
    }
}

/// A deterministic state machine fed by decided log entries — the
/// "application" of state-machine replication. Replicas apply entries in
/// sequence order as they become visible in their log.
pub trait StateMachine: std::any::Any {
    /// Applies one decided entry. `payload` is borrowed from the log
    /// region and is only valid for the call.
    fn apply(&mut self, seq: u64, payload: &[u8]);
}

/// Log access errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// The log region is out of space.
    Full {
        /// Bytes the entry needs.
        needed: usize,
        /// Bytes remaining.
        free: usize,
    },
    /// Bytes at `offset` are not a valid entry header.
    Corrupt {
        /// Offending offset.
        offset: usize,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Full { needed, free } => {
                write!(f, "log full: entry needs {needed} bytes, {free} free")
            }
            LogError::Corrupt { offset } => write!(f, "corrupt log entry at offset {offset}"),
        }
    }
}

impl Error for LogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let e = LogEntry {
            seq: 42,
            payload: Bytes::from_static(b"value"),
        };
        let bytes = e.encode();
        assert_eq!(bytes.len(), e.wire_len());
        let mut log = vec![0u8; 256];
        log[..bytes.len()].copy_from_slice(&bytes);
        match decode_at(&log, 0).expect("decode") {
            Decoded::Entry(back, next) => {
                assert_eq!(back, e);
                assert_eq!(next, bytes.len());
            }
            other => panic!("expected entry, got {other:?}"),
        }
    }

    #[test]
    fn empty_log_reads_empty() {
        let log = vec![0u8; 64];
        assert_eq!(decode_at(&log, 0).expect("ok"), Decoded::Empty);
        assert_eq!(decode_at(&log, 62).expect("ok"), Decoded::Empty);
    }

    #[test]
    fn torn_entry_is_not_consumed() {
        let e = LogEntry {
            seq: 1,
            payload: Bytes::from(vec![7u8; 100]),
        };
        let bytes = e.encode();
        let mut log = vec![0u8; 256];
        // Simulate the tail packet not having landed: omit the last byte.
        log[..bytes.len() - 1].copy_from_slice(&bytes[..bytes.len() - 1]);
        assert_eq!(decode_at(&log, 0).expect("ok"), Decoded::Torn);
        // Now the canary lands.
        log[bytes.len() - 1] = ENTRY_CANARY;
        assert!(matches!(
            decode_at(&log, 0).expect("ok"),
            Decoded::Entry(_, _)
        ));
    }

    #[test]
    fn torn_header_is_torn_not_corrupt() {
        let mut log = vec![0u8; 64];
        // Only the first magic byte has landed.
        log[0] = ENTRY_MAGIC.to_be_bytes()[0];
        assert_eq!(decode_at(&log, 0).expect("ok"), Decoded::Torn);
    }

    #[test]
    fn oversized_length_field_is_torn_not_corrupt() {
        let mut log = vec![0u8; 32];
        log[0..2].copy_from_slice(&ENTRY_MAGIC.to_be_bytes());
        log[2..4].copy_from_slice(&1000u16.to_be_bytes()); // beyond the log
        assert_eq!(decode_at(&log, 0).expect("ok"), Decoded::Torn);
    }

    #[test]
    fn drain_preserves_entries_before_corruption() {
        let mut w = LogWriter::new(1 << 12);
        let mut log = vec![0u8; 1 << 12];
        let (_e, bytes, at) = w.append(Bytes::from_static(b"good")).expect("space");
        log[at..at + bytes.len()].copy_from_slice(&bytes);
        // Garbage right after the valid entry.
        let junk = at + bytes.len();
        log[junk] = 0xde;
        log[junk + 1] = 0xad;
        let mut r = LogReader::new();
        let first = r.drain(&log).expect("good entry survives");
        assert_eq!(first.len(), 1);
        // The damage is reported on the next call, with nothing lost.
        assert!(r.drain(&log).is_err());
    }

    #[test]
    fn corruption_is_reported() {
        let mut log = vec![0u8; 64];
        log[0] = 0xde;
        log[1] = 0xad;
        assert_eq!(decode_at(&log, 0), Err(LogError::Corrupt { offset: 0 }));
    }

    #[test]
    fn writer_reader_pipeline() {
        let mut w = LogWriter::new(1024);
        let mut log = vec![0u8; 1024];
        for i in 0..5u8 {
            let (_e, bytes, at) = w.append(Bytes::from(vec![i; 10])).expect("space");
            log[at..at + bytes.len()].copy_from_slice(&bytes);
        }
        let mut r = LogReader::new();
        let entries = r.drain(&log).expect("clean");
        assert_eq!(entries.len(), 5);
        assert_eq!(r.consumed(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.payload[0], i as u8);
        }
        // Draining again yields nothing new.
        assert!(r.drain(&log).expect("clean").is_empty());
        // Another append flows through incrementally.
        let (_e, bytes, at) = w.append(Bytes::from_static(b"x")).expect("space");
        log[at..at + bytes.len()].copy_from_slice(&bytes);
        assert_eq!(r.drain(&log).expect("clean").len(), 1);
    }

    #[test]
    fn writer_reports_full_only_for_oversized_entries() {
        let mut w = LogWriter::new(20);
        let err = w.append(Bytes::from(vec![0u8; 64])).expect_err("full");
        assert!(matches!(err, LogError::Full { .. }));
        // A small entry still fits.
        assert!(w.append(Bytes::from_static(b"ab")).is_ok());
    }

    #[test]
    fn writer_wraps_like_a_ring() {
        // Capacity for exactly two 10-byte-payload entries (23 B each).
        let mut w = LogWriter::new(50);
        let (_, _, a0) = w.append(Bytes::from(vec![1u8; 10])).expect("fits");
        let (_, _, a1) = w.append(Bytes::from(vec![2u8; 10])).expect("fits");
        assert_eq!((a0, a1), (0, 23));
        // The third wraps to the head and keeps the sequence counter.
        let (e2, _, a2) = w.append(Bytes::from(vec![3u8; 10])).expect("wraps");
        assert_eq!(a2, 0);
        assert_eq!(e2.seq, 2);
        assert_eq!(w.wraps(), 1);
    }

    #[test]
    fn walk_borrows_payloads_from_the_log() {
        let mut w = LogWriter::new(1024);
        let mut log = vec![0u8; 1024];
        let (_e1, b1, a1) = w.append(Bytes::from(vec![1u8; 10])).expect("space");
        let (_e2, b2, a2) = w.append(Bytes::from(vec![2u8; 10])).expect("space");
        log[a1..a1 + b1.len()].copy_from_slice(&b1);
        // Entry 2 is torn: its second half has not landed.
        log[a2..a2 + b2.len() / 2].copy_from_slice(&b2[..b2.len() / 2]);
        let mut r = LogReader::new();
        let mut seen = Vec::new();
        r.walk(&log, |seq, payload| {
            seen.push((seq, payload.as_ptr_range()))
        })
        .expect("clean");
        // The payload is the log's own bytes, not a copy.
        assert_eq!(seen, vec![(0, log[a1 + 12..a1 + 22].as_ptr_range())]);
        assert_eq!((r.consumed(), r.offset()), (1, b1.len()));
        // The rest lands; the walk resumes where it stopped.
        log[a2..a2 + b2.len()].copy_from_slice(&b2);
        let mut later = Vec::new();
        r.walk(&log, |seq, payload| later.push((seq, payload.to_vec())))
            .expect("clean");
        assert_eq!(later, vec![(1, vec![2u8; 10])]);
    }

    #[test]
    fn reset_restarts_the_reader() {
        let mut r = LogReader::new();
        r.reset();
        assert_eq!(r.offset(), 0);
    }
}

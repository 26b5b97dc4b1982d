//! The replicated log, as laid out in each member's RDMA-exposed region.
//!
//! Mu's (and therefore P4CE's) log is a ring the leader appends to with
//! one-sided writes and that each member consumes asynchronously (§III).
//! The leader wraps to offset 0 when an entry does not fit at the tail,
//! and the replicas follow it around: a reader only ever accepts the
//! entry carrying the *next* sequence number, at its own offset or, once
//! the writer has wrapped, at offset 0.
//!
//! Entry wire format:
//!
//! ```text
//! len(2)   seq(8)   payload(len)   check(3) = (seq ^ 0xA5A5A5) & 0xFF_FFFF
//! ```
//!
//! Fixed-size entries land at the same offsets on every lap, so the tail
//! names its entry: the previous lap's stale tail, a torn tail and zeroed
//! memory all fail the check, and 2²⁴ covers more sequence numbers than a
//! ring can hold entries.

use bytes::{BufMut, Bytes, BytesMut};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Bytes of framing around a payload.
pub const ENTRY_OVERHEAD: usize = HEAD + TAIL;
/// `len(2) seq(8)`.
const HEAD: usize = 10;
/// The check that names the entry's seq.
const TAIL: usize = 3;

/// The tail of entry `seq`: its low 24 bits, scrambled so that zeroed
/// memory (seq 0, tail 0) never passes.
fn tail_check(seq: u64) -> [u8; TAIL] {
    let [.., a, b, c] = ((seq ^ 0xA5A5A5) & 0xFF_FFFF).to_be_bytes();
    [a, b, c]
}

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
        buf.put_u16(self.payload.len() as u16);
        buf.put_u64(self.seq);
        buf.put_slice(&self.payload);
        buf.put_slice(&tail_check(self.seq));
        buf.freeze()
    }
}

/// Locates (without copying) entry `seq` at `offset` in `log`: its
/// payload's byte range and the offset just past it, if the whole entry
/// has landed there. Anything else — nothing written, a torn entry, an
/// older lap's entry, another seq — is "not here yet".
fn span_at(log: &[u8], offset: usize, seq: u64) -> Option<(Range<usize>, usize)> {
    let head = log.get(offset..offset.checked_add(HEAD)?)?;
    if head[2..] != seq.to_be_bytes() {
        return None;
    }
    let end = offset + ENTRY_OVERHEAD + usize::from(u16::from_be_bytes([head[0], head[1]]));
    let tail = log.get(end - TAIL..end)?;
    (tail == tail_check(seq)).then_some((offset + HEAD..end - TAIL, end))
}

/// Entry `seq` at `offset` in `log`, copied out, and the offset just past
/// it — `None` unless the whole entry has landed there.
pub fn decode_at(log: &[u8], offset: usize, seq: u64) -> Option<(LogEntry, usize)> {
    let (payload, end) = span_at(log, offset, seq)?;
    let payload = Bytes::copy_from_slice(&log[payload]);
    Some((LogEntry { seq, payload }, end))
}

/// Spans a writer keeps per lap, at most: consecutive entries share one
/// until it covers `capacity / SPANS_PER_LAP` bytes, so the bookkeeping
/// is a few KiB whatever the entry size, and the floor check errs by at
/// most that much on the safe side.
const SPANS_PER_LAP: usize = 256;

/// Bytes of the ring and the newest seq stored in them.
#[derive(Debug, Clone, Copy)]
struct Span {
    seq: u64,
    start: u32,
    end: u32,
}

impl Span {
    fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Append-side bookkeeping for the leader.
///
/// The log is a ring: when an entry does not fit at the tail, the writer
/// wraps to offset zero — Mu recycles its logs the same way. It never
/// takes back the bytes of an entry a reader may still need
/// ([`LogWriter::append_below`]); with the default 4 MiB ring that bound
/// is a back-stop, two heartbeat periods of line-rate writes fit in it.
#[derive(Debug, Clone)]
pub struct LogWriter {
    capacity: usize,
    offset: usize,
    next_seq: u64,
    /// What the ring holds, oldest first: spans of the entries this writer
    /// appended, and after [`LogWriter::resume`] one span for each lap the
    /// member inherited.
    ring: VecDeque<Span>,
    /// Every entry below this seq has had its bytes taken back.
    oldest: u64,
}

impl LogWriter {
    /// A writer over a log of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not fit in 32 bits.
    pub fn new(capacity: usize) -> Self {
        assert!(u32::try_from(capacity).is_ok(), "log ring above 4 GiB");
        LogWriter {
            capacity,
            offset: 0,
            next_seq: 0,
            ring: VecDeque::new(),
            oldest: 0,
        }
    }

    /// The next append offset.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The seq the next append gets.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The oldest seq whose bytes the ring may still hold: every entry
    /// below it has been taken back, so a reader that still needs one of
    /// those cannot be served from the ring. After [`LogWriter::resume`]
    /// the inherited lap's first seq is not known, and this is 0 until
    /// the writer takes that lap back.
    pub fn oldest_seq(&self) -> u64 {
        self.oldest
    }

    /// [`LogWriter::append_below`] with no reader to wait for: the ring
    /// takes back its oldest bytes whenever it wraps.
    ///
    /// # Errors
    ///
    /// As [`LogWriter::append_below`]; only [`LogError::TooLarge`] can
    /// happen.
    pub fn append(&mut self, payload: Bytes) -> Result<(LogEntry, Bytes, usize), LogError> {
        self.append_below(payload, || u64::MAX)
    }

    /// Reserves space for `payload`, returning the entry, its bytes and
    /// the offset to write them at. Wraps to the head of the ring when
    /// the tail cannot hold the entry, and never reuses the bytes of an
    /// entry at or above `floor()` — the oldest seq some reader still
    /// needs, asked for only when the entry takes back bytes of the ring
    /// the writer has not checked yet (once a span, not once an entry).
    ///
    /// # Errors
    ///
    /// [`LogError::Full`] when the entry would overwrite one at or above
    /// the floor (retry once the floor has risen), [`LogError::TooLarge`]
    /// when it exceeds the whole ring.
    pub fn append_below(
        &mut self,
        payload: Bytes,
        floor: impl FnOnce() -> u64,
    ) -> Result<(LogEntry, Bytes, usize), LogError> {
        let needed = ENTRY_OVERHEAD + payload.len();
        if needed > self.capacity {
            return Err(LogError::TooLarge {
                needed,
                capacity: self.capacity,
            });
        }
        let wrap = self.offset + needed > self.capacity;
        let at = if wrap { 0 } else { self.offset };
        // The write takes back the oldest spans; when it wraps, the spans
        // past the lap's end go too, older still than the ones checked.
        let lap_end = self.offset;
        let left_behind = |s: &Span| wrap && s.range().start >= lap_end;
        let overwritten = |s: &Span| s.range().start < at + needed && s.range().end > at;
        let newest = (self.ring.iter())
            .skip_while(|s| left_behind(s))
            .take_while(|s| overwritten(s))
            .last();
        if let Some(s) = newest.filter(|s| s.seq >= floor()) {
            return Err(LogError::Full { seq: s.seq });
        }
        while (self.ring.front()).is_some_and(|s| left_behind(s) || overwritten(s)) {
            self.oldest = self.ring.pop_front().expect("checked").seq + 1;
        }
        let entry = LogEntry {
            seq: self.next_seq,
            payload,
        };
        let end = (at + needed) as u32;
        match self.ring.back_mut() {
            Some(last)
                if last.end as usize == at
                    && last.range().len() < self.capacity / SPANS_PER_LAP =>
            {
                (last.seq, last.end) = (entry.seq, end);
            }
            _ => self.ring.push_back(Span {
                seq: entry.seq,
                start: at as u32,
                end,
            }),
        }
        self.offset = at + needed;
        self.next_seq += 1;
        let bytes = entry.encode();
        Ok((entry, bytes, at))
    }

    /// Resumes appending where `reader` stopped — a new leader continues
    /// from the log it walked as a replica, at the seq after the last
    /// entry it walked. Its layout is not known entry by entry: the
    /// current lap holds seqs below that one, the previous lap's remains
    /// seqs below the lap's first.
    pub fn resume(&mut self, reader: &LogReader) {
        self.offset = reader.offset;
        self.next_seq = reader.next_seq;
        self.oldest = 0;
        self.ring.clear();
        let inherited = [
            (reader.lap_start > 0 && self.offset < self.capacity).then(|| Span {
                seq: reader.lap_start - 1,
                start: self.offset as u32,
                end: self.capacity as u32,
            }),
            (self.offset > 0).then(|| Span {
                seq: self.next_seq - 1,
                start: 0,
                end: self.offset as u32,
            }),
        ];
        self.ring.extend(inherited.into_iter().flatten());
    }

    /// The bytes of the previous lap still in the ring that hold `seq` or
    /// later: what a reader that has not reached `seq` needs besides the
    /// current lap, `[0, offset)`. `None` when the current lap is enough.
    pub fn behind(&self, seq: u64) -> Option<Range<usize>> {
        let mut needed = (self.ring.iter())
            .take_while(|s| s.range().start >= self.offset)
            .skip_while(|s| s.seq < seq);
        let first = needed.next()?;
        let last = needed.last().unwrap_or(first);
        Some(first.range().start..last.range().end)
    }
}

/// Consume-side bookkeeping for any member: it follows the writer around
/// the ring.
#[derive(Debug, Clone, Default)]
pub struct LogReader {
    offset: usize,
    next_seq: u64,
    /// The seq of the entry at offset 0 in the lap being read; every entry
    /// left of the previous lap is older.
    lap_start: u64,
}

impl LogReader {
    /// A reader starting at the head of the log.
    pub fn new() -> Self {
        LogReader::default()
    }

    /// The seq the next visited entry carries: the entries visited so far
    /// are exactly `0..next_seq()`.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The reader's current offset.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Walks every entry that continues the run, handing each to `visit`
    /// as `(seq, payload)` borrowed straight out of `log` — no copy, no
    /// allocation — and advancing past it. The next entry is looked for
    /// at the reader's offset, then at offset 0 (the writer wrapped);
    /// anything else there — nothing, a torn entry, an older lap's entry
    /// — has not landed yet, and the walk stops. Returns how many entries
    /// it visited.
    pub fn walk<'a>(&mut self, log: &'a [u8], mut visit: impl FnMut(u64, &'a [u8])) -> usize {
        let mut visited = 0;
        loop {
            let seq = self.next_seq;
            let (payload, end) = match span_at(log, self.offset, seq) {
                Some(found) => found,
                None if self.offset == 0 => return visited,
                None => match span_at(log, 0, seq) {
                    Some(found) => {
                        self.lap_start = seq;
                        found
                    }
                    None => return visited,
                },
            };
            self.offset = end;
            self.next_seq += 1;
            visited += 1;
            visit(seq, &log[payload]);
        }
    }

    /// [`LogReader::walk`], collecting owned copies of the entries. A walk
    /// cannot fail; the `Result` is the shape the benchmark's kernel
    /// (`benchmark/src/kernels.rs`) calls.
    ///
    /// # Errors
    ///
    /// None: the error type is [`Infallible`].
    pub fn drain(&mut self, log: &[u8]) -> Result<Vec<LogEntry>, Infallible> {
        let mut out = Vec::new();
        self.walk(log, |seq, payload| {
            out.push(LogEntry {
                seq,
                payload: Bytes::copy_from_slice(payload),
            });
        });
        Ok(out)
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

/// Why an append did not happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// The entry would overwrite entry `seq`, which a reader still needs.
    Full {
        /// The newest entry in the way.
        seq: u64,
    },
    /// The entry does not fit in the whole ring.
    TooLarge {
        /// Bytes the entry needs.
        needed: usize,
        /// Bytes the ring holds.
        capacity: usize,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Full { seq } => write!(f, "log full: entry {seq} is still needed"),
            LogError::TooLarge { needed, capacity } => {
                write!(f, "entry needs {needed} bytes, the log holds {capacity}")
            }
        }
    }
}

impl Error for LogError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `payload` through `w` into `log`, returning the entry's
    /// range.
    fn put(w: &mut LogWriter, log: &mut [u8], payload: &[u8]) -> Range<usize> {
        let (_e, bytes, at) = w.append(Bytes::copy_from_slice(payload)).expect("fits");
        log[at..at + bytes.len()].copy_from_slice(&bytes);
        at..at + bytes.len()
    }

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
        assert_eq!(decode_at(&log, 0, 42), Some((e, bytes.len())));
        assert_eq!(decode_at(&log, 0, 41), None, "the head names another seq");
    }

    #[test]
    fn zeroed_memory_is_no_entry() {
        let log = vec![0u8; 64];
        assert_eq!(decode_at(&log, 0, 0), None);
        assert_eq!(decode_at(&log, 60, 0), None);
    }

    #[test]
    fn torn_entry_is_not_consumed() {
        let e = LogEntry {
            seq: 1,
            payload: Bytes::from(vec![7u8; 100]),
        };
        let bytes = e.encode();
        let mut log = vec![0u8; 256];
        // The tail packet has not landed: omit the last byte.
        log[..bytes.len() - 1].copy_from_slice(&bytes[..bytes.len() - 1]);
        assert_eq!(decode_at(&log, 0, 1), None);
        log[bytes.len() - 1] = bytes[bytes.len() - 1];
        assert!(decode_at(&log, 0, 1).is_some());
    }

    #[test]
    fn a_stale_tail_does_not_complete_a_new_head() {
        // Two laps of one fixed-size entry: the new head lands over the
        // old entry, whose tail is still there.
        let old = LogEntry {
            seq: 3,
            payload: Bytes::from(vec![1u8; 20]),
        }
        .encode();
        let new = LogEntry {
            seq: 4,
            payload: Bytes::from(vec![2u8; 20]),
        }
        .encode();
        let mut log = old.to_vec();
        log[..HEAD].copy_from_slice(&new[..HEAD]);
        assert_eq!(decode_at(&log, 0, 4), None);
        log.copy_from_slice(&new);
        assert!(decode_at(&log, 0, 4).is_some());
    }

    #[test]
    fn oversized_length_field_is_not_an_entry() {
        let mut log = vec![0u8; 32];
        log[..2].copy_from_slice(&1000u16.to_be_bytes()); // beyond the log
        assert_eq!(decode_at(&log, 0, 0), None);
    }

    #[test]
    fn writer_reader_pipeline() {
        let mut w = LogWriter::new(1024);
        let mut log = vec![0u8; 1024];
        for i in 0..5u8 {
            put(&mut w, &mut log, &[i; 10]);
        }
        let mut r = LogReader::new();
        let entries = r.drain(&log).expect("infallible");
        assert_eq!(entries.len(), 5);
        assert_eq!(r.next_seq(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.payload[0], i as u8);
        }
        // Draining again yields nothing new.
        assert!(r.drain(&log).expect("infallible").is_empty());
        // Another append flows through incrementally.
        put(&mut w, &mut log, b"x");
        assert_eq!(r.drain(&log).expect("infallible").len(), 1);
    }

    #[test]
    fn writer_refuses_only_oversized_entries_without_a_floor() {
        let mut w = LogWriter::new(20);
        let err = w.append(Bytes::from(vec![0u8; 64])).expect_err("too large");
        assert_eq!(
            err,
            LogError::TooLarge {
                needed: 77,
                capacity: 20
            }
        );
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
        assert_eq!((a2, e2.seq, w.offset()), (0, 2, 23));
    }

    #[test]
    fn writer_waits_for_the_floor() {
        let mut w = LogWriter::new(50);
        for _ in 0..2 {
            w.append_below(Bytes::from(vec![0u8; 10]), || 0)
                .expect("fresh bytes");
        }
        // Wrapping would take back entry 0, which a reader still needs.
        let full = w.append_below(Bytes::from(vec![0u8; 10]), || 0);
        assert_eq!(full.expect_err("full"), LogError::Full { seq: 0 });
        // Once entry 0 is applied everywhere, only entry 0 goes.
        let (e, _, at) = (w.append_below(Bytes::from(vec![0u8; 10]), || 1)).expect("room");
        assert_eq!((e.seq, at), (2, 0));
        let full = w.append_below(Bytes::from(vec![0u8; 10]), || 1);
        assert_eq!(full.expect_err("full"), LogError::Full { seq: 1 });
    }

    #[test]
    fn oldest_seq_is_the_first_entry_not_taken_back() {
        let mut w = LogWriter::new(50); // two 23-byte entries a lap
        for _ in 0..2 {
            w.append(Bytes::from(vec![0u8; 10])).expect("fits");
        }
        assert_eq!(w.oldest_seq(), 0);
        w.append(Bytes::from(vec![0u8; 10]))
            .expect("wraps over entry 0");
        assert_eq!(w.oldest_seq(), 1);
        // The successor does not know where the inherited lap begins.
        let mut r = LogReader::new();
        let mut log = vec![0u8; 50];
        let mut fresh = LogWriter::new(50);
        for _ in 0..3 {
            put(&mut fresh, &mut log, &[0u8; 10]);
        }
        r.walk(&log, |_, _| {});
        w.resume(&r);
        assert_eq!(w.oldest_seq(), 0);
    }

    #[test]
    fn the_writer_keeps_a_few_spans_a_lap() {
        let mut w = LogWriter::new(64 << 10);
        for _ in 0..100_000 {
            w.append(Bytes::from_static(b"x")).expect("fits"); // 14 B: 21 laps
        }
        assert!(w.ring.len() <= SPANS_PER_LAP + 1, "{} spans", w.ring.len());
    }

    #[test]
    fn reader_follows_the_writer_around_the_ring() {
        let mut w = LogWriter::new(64);
        let mut log = vec![0u8; 64];
        let mut r = LogReader::new();
        for i in 0..12u8 {
            put(&mut w, &mut log, &[i; 7]); // 20 B: three per lap
            let got = r.drain(&log).expect("infallible");
            assert_eq!(got.len(), 1, "entry {i}");
            assert_eq!((got[0].seq, got[0].payload[0]), (u64::from(i), i));
        }
        assert_eq!(r.next_seq(), 12);
    }

    #[test]
    fn reader_waits_at_a_stale_lap() {
        let mut w = LogWriter::new(64);
        let mut log = vec![0u8; 64];
        for i in 0..3u8 {
            put(&mut w, &mut log, &[i; 7]);
        }
        let mut r = LogReader::new();
        assert_eq!(r.walk(&log, |_, _| {}), 3);
        // Entry 3 wraps to offset 0 but has not landed: the previous
        // lap's entry 0 is there, and entry 0 is not what comes next.
        let (_e, bytes, at) = w.append(Bytes::from(vec![3u8; 7])).expect("wraps");
        assert_eq!(at, 0);
        assert_eq!(r.walk(&log, |_, _| {}), 0);
        log[..bytes.len()].copy_from_slice(&bytes);
        assert_eq!(r.walk(&log, |seq, _| assert_eq!(seq, 3)), 1);
    }

    #[test]
    fn walk_borrows_payloads_from_the_log() {
        let mut w = LogWriter::new(1024);
        let mut log = vec![0u8; 1024];
        let first = put(&mut w, &mut log, &[1u8; 10]);
        let (_e2, b2, a2) = w.append(Bytes::from(vec![2u8; 10])).expect("space");
        // Entry 1 is torn: its second half has not landed.
        log[a2..a2 + b2.len() / 2].copy_from_slice(&b2[..b2.len() / 2]);
        let mut r = LogReader::new();
        let mut seen = Vec::new();
        r.walk(&log, |seq, payload| {
            seen.push((seq, payload.as_ptr_range()))
        });
        // The payload is the log's own bytes, not a copy.
        assert_eq!(seen, vec![(0, log[HEAD..HEAD + 10].as_ptr_range())]);
        assert_eq!((r.next_seq(), r.offset()), (1, first.end));
        // The rest lands; the walk resumes where it stopped.
        log[a2..a2 + b2.len()].copy_from_slice(&b2);
        let mut later = Vec::new();
        r.walk(&log, |seq, payload| later.push((seq, payload.to_vec())));
        assert_eq!(later, vec![(1, vec![2u8; 10])]);
    }

    #[test]
    fn a_successor_resumes_after_the_last_walked_entry() {
        let mut w = LogWriter::new(64);
        let mut log = vec![0u8; 64];
        let mut r = LogReader::new();
        for i in 0..5u8 {
            put(&mut w, &mut log, &[i; 7]);
            assert_eq!(r.walk(&log, |_, _| {}), 1);
        }
        let mut successor = LogWriter::new(64);
        successor.resume(&r);
        assert_eq!((successor.next_seq(), successor.offset()), (5, 40));
        // Its next entry takes back the previous lap's entry 2; the bound
        // for the inherited lap is its first seq, 3.
        let blocked = successor.append_below(Bytes::from(vec![5u8; 7]), || 2);
        assert_eq!(blocked.expect_err("full"), LogError::Full { seq: 2 });
        assert_eq!(successor.behind(2), Some(40..64));
        assert_eq!(successor.behind(3), None);
        let (e, _, at) = (successor.append_below(Bytes::from(vec![5u8; 7]), || 3)).expect("room");
        assert_eq!((e.seq, at), (5, 40));
    }

    #[test]
    fn behind_names_the_previous_lap_a_reader_still_needs() {
        let mut w = LogWriter::new(100);
        for _ in 0..6 {
            w.append(Bytes::from(vec![0u8; 7])).expect("fits"); // 20 B each
        }
        // Entries 5 at [0, 20); 1..=4 of the previous lap at [20, 100).
        assert_eq!(w.behind(0), Some(20..100));
        assert_eq!(w.behind(3), Some(60..100));
        assert_eq!(w.behind(5), None);
    }
}

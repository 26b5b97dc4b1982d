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

/// Append-side bookkeeping for the leader.
///
/// The log is a ring: when an entry does not fit at the tail, the writer
/// wraps to offset zero — Mu recycles its logs the same way. Where it
/// stands is one monotonic byte position, `laps × capacity + offset`, the
/// pad left at each lap's end included; the ring holds the history
/// `[position − capacity, position)`. It never takes back bytes a reader
/// may still need ([`LogWriter::append_below`]); with the default 4 MiB
/// ring that bound is a back-stop, two heartbeat periods of line-rate
/// writes fit in it.
#[derive(Debug, Clone, Copy)]
pub struct LogWriter {
    capacity: usize,
    position: u64,
    next_seq: u64,
}

impl LogWriter {
    /// A writer over a log of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        LogWriter {
            capacity,
            position: 0,
            next_seq: 0,
        }
    }

    /// Bytes of history written so far: the next append goes at
    /// `position() % capacity`, or at 0 if it does not fit there.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The seq the next append gets.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
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
    /// the tail cannot hold the entry, and never takes back history at
    /// or above `floor()` — the lowest position some reader still needs,
    /// asked for on each append that takes back bytes.
    ///
    /// # Errors
    ///
    /// [`LogError::Full`] when the entry would overwrite history at or
    /// above the floor (retry once the floor has risen),
    /// [`LogError::TooLarge`] when it exceeds the whole ring.
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
        let capacity = self.capacity as u64;
        let offset = (self.position % capacity) as usize;
        let start = if offset + needed > self.capacity {
            self.position + (self.capacity - offset) as u64
        } else {
            self.position
        };
        let end = start + needed as u64;
        // The write, pad included, takes back the history one ring below
        // it, up to what the writer has written.
        if end > capacity && (end - capacity).min(self.position) > floor() {
            return Err(LogError::Full);
        }
        let entry = LogEntry {
            seq: self.next_seq,
            payload,
        };
        self.position = end;
        self.next_seq += 1;
        let bytes = entry.encode();
        Ok((entry, bytes, (start % capacity) as usize))
    }

    /// `true` when the ring no longer holds the history a reader at
    /// `position` needs next: `position + capacity < self.position()`.
    /// Pad counts as history here, so a reader stopped at a lap's end
    /// counts as lapped up to a pad's width early (at once, after an
    /// entry wider than half the ring).
    pub(crate) fn lapped(&self, position: u64) -> bool {
        self.position.saturating_sub(position) > self.capacity as u64
    }

    /// Resumes appending where `reader` stopped — a new leader continues
    /// from the log it walked as a replica, at its reader's position and
    /// the seq after the last entry it walked.
    pub fn resume(&mut self, reader: &LogReader) {
        self.position = reader.position;
        self.next_seq = reader.next_seq;
    }

    /// The bytes a reader at `position` lacks, as at most two ranges of
    /// the ring: the current lap `[0, end)`, whole, and what is left of
    /// the previous lap from `position` on (empty unless the reader
    /// stands there). A writer that ended a lap exactly at the ring's
    /// end is still on that lap.
    pub fn since(&self, position: u64) -> [Range<usize>; 2] {
        let capacity = self.capacity as u64;
        let lap = self.position.saturating_sub(1) / capacity * capacity;
        let fill = (self.position - lap) as usize;
        let previous = if position < lap {
            let from = position.max(self.position - capacity) + capacity - lap;
            from as usize..self.capacity
        } else {
            self.capacity..self.capacity
        };
        [0..fill, previous]
    }
}

/// Consume-side bookkeeping for any member: it follows the writer around
/// the ring, its position counting bytes of history as the writer's does.
#[derive(Debug, Clone, Default)]
pub struct LogReader {
    position: u64,
    next_seq: u64,
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

    /// Bytes of history read so far, the pad skipped at each wrap
    /// included: the writer's position when it wrote the last visited
    /// entry.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Walks every entry that continues the run, handing each to `visit`
    /// as `(seq, payload)` borrowed straight out of `log` — no copy, no
    /// allocation — and advancing past it. The next entry is looked for
    /// at the reader's offset, then at offset 0 (the writer wrapped);
    /// anything else there — nothing, a torn entry, an older lap's entry
    /// — has not landed yet, and the walk stops. Returns how many entries
    /// it visited.
    pub fn walk<'a>(&mut self, log: &'a [u8], mut visit: impl FnMut(u64, &'a [u8])) -> usize {
        let capacity = log.len() as u64;
        let mut visited = 0;
        loop {
            let seq = self.next_seq;
            let Some(offset) = self.position.checked_rem(capacity) else {
                return visited;
            };
            let lap = self.position - offset;
            let (lap, found) = match span_at(log, offset as usize, seq) {
                // The writer wrapped: the entry opens the next lap, and the
                // pad it left behind is history too.
                None if offset > 0 => (lap + capacity, span_at(log, 0, seq)),
                found => (lap, found),
            };
            let Some((payload, end)) = found else {
                return visited;
            };
            self.position = lap + end as u64;
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
    /// The entry would overwrite history a reader still needs.
    Full,
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
            LogError::Full => f.write_str("log full: a reader still needs the bytes"),
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
        assert_eq!((a2, e2.seq, w.position()), (0, 2, 73));
    }

    #[test]
    fn writer_waits_for_the_floor() {
        let mut w = LogWriter::new(50); // two 23-byte entries a lap
        for _ in 0..2 {
            w.append_below(Bytes::from(vec![0u8; 10]), || 0)
                .expect("fresh bytes");
        }
        // Wrapping takes back history [0, 23), entry 0, which a reader
        // at position 0 still needs.
        let full = w.append_below(Bytes::from(vec![0u8; 10]), || 0);
        assert_eq!(full.expect_err("full"), LogError::Full);
        // Once entry 0 is applied everywhere, only entry 0 goes.
        let (e, _, at) = (w.append_below(Bytes::from(vec![0u8; 10]), || 23)).expect("room");
        assert_eq!((e.seq, at, w.position()), (2, 0, 73));
        let full = w.append_below(Bytes::from(vec![0u8; 10]), || 23);
        assert_eq!(full.expect_err("full"), LogError::Full);
        // The floor is asked only once the append takes back bytes.
        let mut fresh = LogWriter::new(50);
        fresh
            .append_below(Bytes::from(vec![0u8; 10]), || {
                unreachable!("nothing taken back")
            })
            .expect("first lap");
    }

    #[test]
    fn a_reader_a_ring_behind_is_lapped() {
        let mut w = LogWriter::new(50); // two 23-byte entries a lap
        for _ in 0..3 {
            w.append(Bytes::from(vec![0u8; 10])).expect("fits");
        }
        // History [23, 73) is in the ring: entry 0 at [0, 23) is gone.
        assert_eq!(w.position(), 73);
        assert!(w.lapped(22));
        assert!(!w.lapped(23));
        assert!(!w.lapped(73));
        assert!(
            !w.lapped(100),
            "a reader ahead of a successor is not lapped"
        );
    }

    #[test]
    fn an_entry_that_ends_at_the_ring_end_closes_its_lap() {
        let mut w = LogWriter::new(60); // three 20-byte entries fill it
        let mut log = vec![0u8; 60];
        let mut r = LogReader::new();
        for i in 0..3u8 {
            put(&mut w, &mut log, &[i; 7]);
        }
        assert_eq!(r.walk(&log, |_, _| {}), 3);
        assert_eq!((w.position(), r.position()), (60, 60));
        // The catch-up of a reader on that lap is the whole lap.
        assert_eq!(w.since(20), [0..60, 60..60]);
        // The next entry goes at 0 with no pad, on both sides.
        assert_eq!(put(&mut w, &mut log, &[3; 7]), 0..20);
        assert_eq!(r.walk(&log, |seq, _| assert_eq!(seq, 3)), 1);
        assert_eq!((w.position(), r.position()), (80, 80));
    }

    #[test]
    fn positions_hold_across_the_wrap_of_the_reported_position() {
        use crate::heartbeat::{heartbeat_word, reported_position};
        // A successor takes over 50 bytes before the reported position
        // wraps (2⁴⁰ = 0 mod 64): offset 14.
        let before = (1u64 << 40) - 50;
        let mut w = LogWriter::new(64);
        w.resume(&LogReader {
            position: before,
            next_seq: 9,
        });
        let word = heartbeat_word(7, before);
        assert_eq!(reported_position(word, w.position()), before);
        // 20-byte entries at 14 and 34; the third pads past 2⁴⁰.
        for at in [14, 34] {
            assert_eq!(w.append(Bytes::from(vec![0u8; 7])).expect("fits").2, at);
        }
        let floor = reported_position(word, w.position());
        let full = w.append_below(Bytes::from(vec![0u8; 7]), || floor);
        assert_eq!(
            full.expect_err("takes back [2⁴⁰ − 74, 2⁴⁰ − 44)"),
            LogError::Full
        );
        let (_, _, at) = (w.append_below(Bytes::from(vec![0u8; 7]), || before + 20)).expect("room");
        assert_eq!((at, w.position()), (0, (1 << 40) + 20));
        // Read against the writer past the wrap: a replica that read up
        // to it reports 20, one entry past `before` stands in the
        // previous lap, and `before` itself has been lapped.
        let reported = |at: u64| reported_position(heartbeat_word(8, at), w.position());
        assert_eq!(heartbeat_word(8, w.position()) & ((1 << 40) - 1), 20);
        assert_eq!(reported(w.position()), w.position());
        assert_eq!(w.since(reported(w.position())), [0..20, 64..64]);
        assert_eq!(w.since(reported(before + 20)), [0..20, 34..64]);
        assert!(!w.lapped(reported(before + 20)));
        assert!(w.lapped(reported(before)));
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
        assert_eq!((r.next_seq(), r.position()), (1, first.end as u64));
        // The rest lands; the walk resumes where it stopped.
        log[a2..a2 + b2.len()].copy_from_slice(&b2);
        let mut later = Vec::new();
        r.walk(&log, |seq, payload| later.push((seq, payload.to_vec())));
        assert_eq!(later, vec![(1, vec![2u8; 10])]);
    }

    #[test]
    fn a_successor_resumes_at_its_readers_position() {
        let mut w = LogWriter::new(64);
        let mut log = vec![0u8; 64];
        let mut r = LogReader::new();
        for i in 0..5u8 {
            put(&mut w, &mut log, &[i; 7]);
            assert_eq!(r.walk(&log, |_, _| {}), 1);
        }
        // Three 20-byte entries, a 4-byte pad, then two more at 0 and 20.
        assert_eq!(r.position(), 104);
        let mut successor = LogWriter::new(64);
        successor.resume(&r);
        assert_eq!((successor.next_seq(), successor.position()), (5, 104));
        // Its next entry takes back the previous lap's entry 2, history
        // [40, 60): a replica at 40 still needs it, one at 60 does not.
        let blocked = successor.append_below(Bytes::from(vec![5u8; 7]), || 40);
        assert_eq!(blocked.expect_err("full"), LogError::Full);
        assert_eq!(successor.since(40), [0..40, 40..64]);
        assert_eq!(successor.since(60), [0..40, 60..64], "the pad");
        assert_eq!(successor.since(64), [0..40, 64..64]);
        let (e, _, at) = (successor.append_below(Bytes::from(vec![5u8; 7]), || 60)).expect("room");
        assert_eq!((e.seq, at), (5, 40));
    }

    #[test]
    fn since_names_the_previous_lap_a_reader_still_needs() {
        let mut w = LogWriter::new(100);
        for _ in 0..6 {
            w.append(Bytes::from(vec![0u8; 7])).expect("fits"); // 20 B each
        }
        // Entry 5 at [0, 20); 1..=4 of the previous lap at [20, 100).
        assert_eq!(w.since(0), [0..20, 20..100], "lapped: what is left");
        assert_eq!(w.since(60), [0..20, 60..100]);
        assert_eq!(w.since(100), [0..20, 100..100]);
    }
}

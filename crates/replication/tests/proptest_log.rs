//! Property-based tests of the replicated log and the decision-protocol
//! building blocks.

use bytes::Bytes;
use netsim::SimTime;
use proptest::prelude::*;
use replication::{
    decode_at, leader_of, ArrivalClock, FailureDetector, LogError, LogReader, LogWriter, MemberId,
    ViewTracker,
};
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

/// Payload bytes per packet of a write message (the RDMA MTU).
const MTU: usize = 1024;

/// One replica's log under a leader that laps it several times: write
/// messages land packet by packet over stale bytes, the replica walks
/// whenever it likes, and half-way through the leader dies and a
/// successor that walked everything takes over.
struct Ring {
    /// The leader's own log: what every write message carries.
    leader: Vec<u8>,
    /// The lagging replica's log, where packets land.
    replica: Vec<u8>,
    /// Packets posted and not yet landed on the replica, in order.
    in_flight: VecDeque<(usize, Vec<u8>)>,
    /// The message being gathered: consecutive entries go out as one
    /// write, like a catch-up chunk, so packet boundaries fall anywhere
    /// in an entry — inside its head too.
    message: Option<Range<usize>>,
    /// Entries whose bytes are intact in the leader's log, by the
    /// position they start at.
    live: Vec<(u64, Range<usize>)>,
    /// Every appended payload, by seq.
    appended: Vec<Vec<u8>>,
    reader: LogReader,
    /// What the replica applied, in order.
    applied: Vec<(u64, Vec<u8>)>,
    /// A replica that walks the leader's log after every append: the
    /// successor.
    ahead: LogReader,
}

impl Ring {
    fn new(capacity: usize, noise: &[u8]) -> Ring {
        let stale: Vec<u8> = noise.iter().copied().cycle().take(capacity).collect();
        Ring {
            leader: stale.clone(),
            replica: stale,
            in_flight: VecDeque::new(),
            message: None,
            live: Vec::new(),
            appended: Vec::new(),
            reader: LogReader::new(),
            applied: Vec::new(),
            ahead: LogReader::new(),
        }
    }

    /// Posts `bytes` of the leader's log as one write message.
    fn post(&mut self, bytes: Range<usize>) {
        for start in bytes.clone().step_by(MTU) {
            let end = (start + MTU).min(bytes.end);
            self.in_flight
                .push_back((start, self.leader[start..end].to_vec()));
        }
    }

    fn flush(&mut self) {
        if let Some(bytes) = self.message.take() {
            self.post(bytes);
        }
    }

    fn walk(&mut self) {
        let applied = &mut self.applied;
        self.reader.walk(&self.replica, |seq, payload| {
            applied.push((seq, payload.to_vec()))
        });
    }

    /// Lands the next packet, then walks; `false` if none was in flight.
    fn land_one(&mut self) -> bool {
        let Some((at, packet)) = self.in_flight.pop_front() else {
            return false;
        };
        self.replica[at..at + packet.len()].copy_from_slice(&packet);
        self.walk();
        true
    }

    /// Appends `payload` through `writer`, landing packets while the ring
    /// has no room, and checks that no byte of an entry at or above the
    /// floor, the replica's position, is reused.
    fn append(&mut self, writer: &mut LogWriter, payload: Vec<u8>, batch: usize) {
        let (bytes, at) = loop {
            let floor = self.reader.position();
            match writer.append_below(Bytes::from(payload.clone()), || floor) {
                Ok((_, bytes, at)) => {
                    let end = at + bytes.len();
                    let reused = (self.live.iter())
                        .find(|(start, r)| *start >= floor && r.start < end && r.end > at);
                    assert!(reused.is_none(), "floor {floor}: {reused:?} overwritten");
                    break (bytes, at);
                }
                Err(LogError::Full) => {
                    self.flush();
                    assert!(
                        self.land_one(),
                        "the writer stalls behind a caught-up replica"
                    );
                }
                Err(e) => panic!("{e}"),
            }
        };
        let range = at..at + bytes.len();
        self.live
            .retain(|(_, r)| r.start >= range.end || r.end <= range.start);
        let start = writer.position() - bytes.len() as u64;
        self.live.push((start, range.clone()));
        self.leader[range.clone()].copy_from_slice(&bytes);
        self.appended.push(payload);
        let ahead = &mut self.ahead;
        assert_eq!(
            ahead.walk(&self.leader, |_, _| {}),
            1,
            "the successor follows"
        );
        self.message = match self.message.take() {
            Some(m) if m.end == at && m.len() + bytes.len() <= batch * MTU => {
                Some(m.start..range.end)
            }
            other => {
                if let Some(m) = other {
                    self.post(m);
                }
                Some(range)
            }
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever sequence of payloads the leader appends, a reader over
    /// the same bytes recovers exactly that sequence, in order, with
    /// consecutive sequence numbers.
    #[test]
    fn log_write_read_roundtrip(payloads in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..200), 1..40)) {
        let mut w = LogWriter::new(1 << 20);
        let mut log = vec![0u8; 1 << 20];
        let mut expected = Vec::new();
        for p in &payloads {
            let (entry, bytes, at) = w.append(Bytes::from(p.clone())).expect("space");
            log[at..at + bytes.len()].copy_from_slice(&bytes);
            expected.push(entry);
        }
        let mut r = LogReader::new();
        let got = r.drain(&log).expect("infallible");
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g, e);
        }
        for (i, e) in got.iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64);
        }
    }

    /// Incremental visibility: however the log bytes land (in arbitrary
    /// chunk sizes, in order), the reader never sees a torn entry and
    /// eventually sees everything.
    #[test]
    fn incremental_arrival_never_yields_partial_entries(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..100), 1..10),
        chunk in 1usize..50,
    ) {
        let mut w = LogWriter::new(1 << 16);
        let mut source = vec![0u8; 1 << 16];
        let mut total = 0usize;
        for p in &payloads {
            let (_e, bytes, at) = w.append(Bytes::from(p.clone())).expect("space");
            source[at..at + bytes.len()].copy_from_slice(&bytes);
            total = at + bytes.len();
        }
        // Deliver the byte stream chunk by chunk, draining after each.
        let mut visible = vec![0u8; 1 << 16];
        let mut r = LogReader::new();
        let mut seen = 0usize;
        let mut delivered = 0usize;
        while delivered < total {
            let end = (delivered + chunk).min(total);
            visible[delivered..end].copy_from_slice(&source[delivered..end]);
            delivered = end;
            for e in &r.drain(&visible).expect("infallible") {
                prop_assert_eq!(e.seq, seen as u64, "in-order, gap-free");
                prop_assert_eq!(&e.payload[..], &payloads[seen][..]);
                seen += 1;
            }
        }
        prop_assert_eq!(seen, payloads.len());
    }

    /// The borrowing walk and the collecting `drain` are one decoder:
    /// over a clean log, a torn tail, a damaged first head and garbage
    /// behind the good entries they yield the same `(seq, payload)`
    /// sequence and leave the reader at the same place — call after call.
    #[test]
    fn walk_and_drain_agree(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..12),
        damage in 0u8..4,
        cut in 1usize..13,
    ) {
        let mut w = LogWriter::new(1 << 12);
        let mut log = vec![0u8; 1 << 12];
        let mut last = 0..0;
        for p in &payloads {
            let (_e, bytes, at) = w.append(Bytes::from(p.clone())).expect("space");
            log[at..at + bytes.len()].copy_from_slice(&bytes);
            last = at..at + bytes.len();
        }
        match damage {
            0 => {}
            // Torn tail: the last entry's final bytes have not landed.
            1 => log[last.end - cut..last.end].fill(0),
            // The first entry's seq is not the one a reader starts at.
            2 => log[2..10].copy_from_slice(&[0xde; 8]),
            // Garbage right behind the good entries.
            _ => log[last.end..last.end + 12].copy_from_slice(&[0xde; 12]),
        }
        let (mut walker, mut drainer) = (LogReader::new(), LogReader::new());
        for _call in 0..2 {
            let mut walked = Vec::new();
            walker.walk(&log, |seq, payload| walked.push((seq, payload.to_vec())));
            let drained: Vec<(u64, Vec<u8>)> = (drainer.drain(&log).expect("infallible").iter())
                .map(|e| (e.seq, e.payload.to_vec()))
                .collect();
            prop_assert_eq!(walked, drained);
            prop_assert_eq!(walker.position(), drainer.position());
            prop_assert_eq!(walker.next_seq(), drainer.next_seq());
        }
        let expect_walked = match damage {
            0 | 3 => payloads.len(),
            1 => payloads.len() - 1,
            _ => 0,
        };
        prop_assert_eq!(walker.next_seq(), expect_walked as u64);
    }

    /// The ring keeps sequence numbers monotonic across wraps and every
    /// returned offset stays in bounds.
    #[test]
    fn ring_offsets_stay_in_bounds(
        sizes in prop::collection::vec(1usize..300, 1..200),
        capacity in 512usize..4096,
    ) {
        let mut w = LogWriter::new(capacity);
        for (i, &sz) in sizes.iter().enumerate() {
            match w.append(Bytes::from(vec![0u8; sz])) {
                Ok((entry, bytes, at)) => {
                    prop_assert!(at + bytes.len() <= capacity, "entry fits");
                    prop_assert_eq!(entry.seq, i as u64);
                }
                Err(e) => {
                    // Only oversized single entries may fail.
                    prop_assert!(matches!(e, LogError::TooLarge { .. }) && sz + 13 > capacity);
                    break;
                }
            }
        }
    }

    /// Decoding at arbitrary offsets of arbitrary bytes never panics.
    #[test]
    fn decode_any_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        offset in 0usize..600,
        seq in any::<u64>(),
    ) {
        let _ = decode_at(&bytes, offset, seq);
    }

    /// Three laps and more of mixed-size entries, each write message
    /// landing on the lagging replica packet by packet at 1,024-byte
    /// boundaries over an earlier lap's bytes (and over noise before the
    /// first), with a leader change in the middle of a lap: the head at
    /// offset 0 zeroed on the replica, the packets in flight lost, the
    /// successor resuming at its reader's position and catching the
    /// replica up on what it lacks since its own (`LogWriter::since`: the
    /// current lap and whatever of the previous one it still needs). The
    /// replica applies exactly the appended entries, in order, never a
    /// torn or stale one; no writer reuses bytes of an entry at or above
    /// the replica's position.
    #[test]
    fn replicas_follow_the_writer_around_the_ring(
        capacity in 2048usize..4096,
        sizes in prop::collection::vec(0usize..1500, 40..80),
        batches in prop::collection::vec(1usize..4, 80..81),
        landings in prop::collection::vec(0usize..4, 80..81),
        change_at in 10usize..40,
        noise in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut ring = Ring::new(capacity, &noise);
        let mut writer = LogWriter::new(capacity);
        for (i, &size) in sizes.iter().enumerate() {
            if i == change_at {
                ring.flush();
                ring.in_flight.clear();
                ring.replica[..10].fill(0);
                writer = LogWriter::new(capacity);
                writer.resume(&ring.ahead);
                prop_assert_eq!(writer.next_seq(), i as u64, "the seq after the last walked");
                for bytes in writer.since(ring.reader.position()) {
                    ring.post(bytes);
                }
            }
            let payload: Vec<u8> = (0..size).map(|b| (i * 7 + b) as u8).collect();
            ring.append(&mut writer, payload, batches[i]);
            for _ in 0..landings[i] {
                ring.land_one();
            }
        }
        ring.flush();
        while ring.land_one() {}
        prop_assert!(
            ring.appended.iter().map(|p| p.len() + 13).sum::<usize>() >= 3 * capacity,
            "three laps at least"
        );
        for (k, (seq, payload)) in ring.applied.iter().enumerate() {
            prop_assert_eq!(*seq, k as u64, "application {}", k);
            prop_assert!(
                payload == &ring.appended[k],
                "entry {k} applied torn or stale: {} B, last byte {:?}; appended {} B",
                payload.len(),
                payload.last(),
                ring.appended[k].len()
            );
        }
        prop_assert_eq!(ring.applied.len(), ring.appended.len(), "every entry applied");
    }

    /// The failure detector: a peer whose counter strictly increases on
    /// every observation is never declared dead, regardless of the
    /// interleaving with stalls of other peers.
    #[test]
    fn advancing_peer_survives(
        threshold in 1u32..10,
        steps in 1u64..100,
    ) {
        let mut fd = FailureDetector::new(threshold, [MemberId(0), MemberId(1)]);
        for v in 1..=steps {
            fd.observe(MemberId(0), v);
            fd.observe(MemberId(1), 1); // stalls after the first
        }
        prop_assert!(fd.is_alive(MemberId(0)));
        if steps > u64::from(threshold) {
            prop_assert!(!fd.is_alive(MemberId(1)));
        }
    }

    /// Leadership: the elected leader is always the minimum of the alive
    /// set, and view numbers only move forward.
    #[test]
    fn views_monotonic_and_lowest_leads(
        alive_sets in prop::collection::vec(
            prop::collection::btree_set(0u8..8, 0..8), 1..30),
    ) {
        let mut vt = ViewTracker::new();
        let mut last_view = 0;
        for raw in &alive_sets {
            let alive: BTreeSet<MemberId> = raw.iter().map(|&i| MemberId(i)).collect();
            if let Some(change) = vt.update(&alive) {
                prop_assert!(change.view > last_view);
                last_view = change.view;
                prop_assert_eq!(change.new, leader_of(&alive));
            }
            prop_assert_eq!(vt.leader(), leader_of(&alive));
        }
    }

    /// Arrival clocks: instants are non-decreasing and the long-run rate
    /// matches the request.
    #[test]
    fn arrival_clock_rate_holds(rate in 1.0e3..1.0e7_f64, n in 10u64..1000) {
        let mut c = ArrivalClock::new(SimTime::ZERO, rate);
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let t = c.next_arrival();
            prop_assert!(t >= last);
            last = t;
            c.advance();
        }
        let elapsed = last.as_secs_f64();
        if elapsed > 0.0 {
            let achieved = (n - 1) as f64 / elapsed;
            prop_assert!((achieved - rate).abs() / rate < 0.01,
                "rate {achieved} vs requested {rate}");
        }
    }
}

#[test]
fn torn_tail_is_not_consumed() {
    let mut w = LogWriter::new(1 << 12);
    let (_e, bytes, at) = w.append(Bytes::from(vec![7u8; 64])).expect("space");
    let mut log = vec![0u8; 1 << 12];
    // All but the last byte of the check.
    log[at..at + bytes.len() - 1].copy_from_slice(&bytes[..bytes.len() - 1]);
    assert_eq!(decode_at(&log, at, 0), None);
    assert_eq!(LogReader::new().walk(&log, |_, _| {}), 0);
}

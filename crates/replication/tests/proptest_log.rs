//! Property-based tests of the replicated log and the decision-protocol
//! building blocks.

use bytes::Bytes;
use netsim::SimTime;
use proptest::prelude::*;
use replication::{
    decode_at, leader_of, ArrivalClock, Decoded, FailureDetector, LogReader, LogWriter, MemberId,
    ViewTracker,
};
use std::collections::BTreeSet;

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
        let got = r.drain(&log).expect("clean log");
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
            let got = r.drain(&visible).expect("no corruption from in-order chunks");
            for e in &got {
                prop_assert_eq!(e.seq, seen as u64, "in-order, gap-free");
                seen += 1;
            }
        }
        prop_assert_eq!(seen, payloads.len());
    }

    /// The borrowing walk and the collecting `drain` are one decoder:
    /// over a clean log, a torn tail, a corrupt head and corruption after
    /// good entries they yield the same `(seq, payload)` sequence, the
    /// same error, and leave the reader at the same offset — call after
    /// call.
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
            // Corrupt head.
            2 => log[..2].copy_from_slice(&[0xde, 0xad]),
            // Corruption right behind the good entries.
            _ => log[last.end..last.end + 2].copy_from_slice(&[0xde, 0xad]),
        }
        let (mut walker, mut drainer) = (LogReader::new(), LogReader::new());
        for _call in 0..2 {
            let mut walked = Vec::new();
            let w_res = walker.walk(&log, |seq, payload| walked.push((seq, payload.to_vec())));
            let (drained, d_res) = match drainer.drain(&log) {
                Ok(entries) => (entries, Ok(())),
                Err(e) => (Vec::new(), Err(e)),
            };
            let drained: Vec<(u64, Vec<u8>)> =
                drained.iter().map(|e| (e.seq, e.payload.to_vec())).collect();
            prop_assert_eq!(w_res, d_res);
            prop_assert_eq!(walked, drained);
            prop_assert_eq!(walker.offset(), drainer.offset());
            prop_assert_eq!(walker.consumed(), drainer.consumed());
        }
        let expect_consumed = match damage {
            0 | 3 => payloads.len(),
            1 => payloads.len() - 1,
            _ => 0,
        };
        prop_assert_eq!(walker.consumed(), expect_consumed as u64);
    }

    /// The ring keeps sequence numbers monotonic across wraps and every
    /// returned offset stays in bounds.
    #[test]
    fn ring_offsets_stay_in_bounds(
        sizes in prop::collection::vec(1usize..300, 1..200),
        capacity in 512usize..4096,
    ) {
        let mut w = LogWriter::new(capacity);
        let mut last_seq = None;
        for (i, &sz) in sizes.iter().enumerate() {
            match w.append(Bytes::from(vec![0u8; sz])) {
                Ok((entry, bytes, at)) => {
                    prop_assert!(at + bytes.len() <= capacity, "entry fits");
                    prop_assert_eq!(entry.seq, i as u64);
                    last_seq = Some(entry.seq);
                }
                Err(_) => {
                    // Only oversized single entries may fail.
                    prop_assert!(sz + 13 > capacity);
                    break;
                }
            }
        }
        let _ = last_seq;
    }

    /// Decoding at arbitrary offsets of arbitrary bytes never panics.
    #[test]
    fn decode_any_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        offset in 0usize..600,
    ) {
        let _ = decode_at(&bytes, offset);
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
fn torn_tail_is_reported_not_consumed() {
    let mut w = LogWriter::new(1 << 12);
    let (_e, bytes, at) = w.append(Bytes::from(vec![7u8; 64])).expect("space");
    let mut log = vec![0u8; 1 << 12];
    // All but the canary.
    log[at..at + bytes.len() - 1].copy_from_slice(&bytes[..bytes.len() - 1]);
    assert_eq!(decode_at(&log, at).expect("ok"), Decoded::Torn);
}

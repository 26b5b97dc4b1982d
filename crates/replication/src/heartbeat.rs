//! Liveness via heartbeat counters (§III, "Decision protocol").
//!
//! Every member keeps a counter in RDMA-readable memory and increments it
//! periodically; every member reads everyone else's counter at the same
//! period. A peer whose counter stops advancing for `threshold`
//! consecutive reads — or whose reads fail outright — is suspected dead.
//! Heartbeats are *never* accelerated by the switch (they are a few
//! hundred messages per second and latency-insensitive, §III-A).
//!
//! The 8-byte word a member publishes carries its reader's position in
//! the log ring too (`heartbeat_word`): the counter in the high bits, so
//! the word grows on every tick whatever the position does, and the
//! leader learns how far each replica has read from the read it makes
//! anyway.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::MemberId;

#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    last: u64,
    unchanged: u32,
    alive: bool,
}

/// Tracks peer liveness from observed heartbeat counters.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    threshold: u32,
    peers: BTreeMap<MemberId, PeerHealth>,
}

impl FailureDetector {
    /// A detector that declares a peer dead after `threshold` consecutive
    /// non-advancing observations.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u32, peers: impl IntoIterator<Item = MemberId>) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        FailureDetector {
            threshold,
            peers: peers
                .into_iter()
                .map(|id| {
                    (
                        id,
                        PeerHealth {
                            last: 0,
                            unchanged: 0,
                            alive: true,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Feeds one successful heartbeat read of `peer`.
    pub fn observe(&mut self, peer: MemberId, counter: u64) {
        let Some(h) = self.peers.get_mut(&peer) else {
            return;
        };
        if counter > h.last {
            h.last = counter;
            h.unchanged = 0;
            h.alive = true;
        } else {
            h.unchanged += 1;
            if h.unchanged >= self.threshold {
                h.alive = false;
            }
        }
    }

    /// `true` if `peer` is currently believed alive (unknown peers are
    /// dead).
    pub fn is_alive(&self, peer: MemberId) -> bool {
        self.peers.get(&peer).map(|h| h.alive).unwrap_or(false)
    }

    /// The set of peers currently believed alive.
    pub fn alive_peers(&self) -> BTreeSet<MemberId> {
        self.peers
            .iter()
            .filter(|(_, h)| h.alive)
            .map(|(&id, _)| id)
            .collect()
    }
}

/// Bits of a heartbeat word that carry the reader's position (2⁴⁰ bytes
/// of history, wrapping); the 24 above carry the counter (2²⁴ ticks, 28
/// minutes at 100 µs).
const POSITION_BITS: u32 = 40;
const POSITION_MASK: u64 = (1 << POSITION_BITS) - 1;

/// The word a member publishes: tick `counter` and its reader's position
/// in the log ring.
pub(crate) fn heartbeat_word(counter: u64, position: u64) -> u64 {
    (counter << POSITION_BITS) | (position & POSITION_MASK)
}

/// The reader position `word` reports, read against the position of the
/// writer that asks: the one within 2³⁹ bytes of it, behind or (a
/// successor's peer that walked further) ahead.
pub(crate) fn reported_position(word: u64, writer: u64) -> u64 {
    let behind = writer.wrapping_sub(word) & POSITION_MASK;
    let shift = 64 - POSITION_BITS;
    writer.wrapping_sub((((behind << shift) as i64) >> shift) as u64)
}

/// The local heartbeat counter a member exposes to its peers.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeartbeatCounter(u64);

impl HeartbeatCounter {
    /// Starts at zero.
    pub fn new() -> Self {
        HeartbeatCounter(0)
    }

    /// Bumps the counter, returning the value to publish.
    pub fn tick(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u8) -> Vec<MemberId> {
        (0..n).map(MemberId).collect()
    }

    #[test]
    fn advancing_counters_stay_alive() {
        let mut fd = FailureDetector::new(3, ids(2));
        for v in 1..10 {
            fd.observe(MemberId(0), v);
            fd.observe(MemberId(1), v);
        }
        assert!(fd.is_alive(MemberId(0)));
        assert_eq!(fd.alive_peers().len(), 2);
    }

    #[test]
    fn stalled_counter_dies_after_threshold() {
        let mut fd = FailureDetector::new(3, ids(1));
        fd.observe(MemberId(0), 5);
        assert!(fd.is_alive(MemberId(0)));
        fd.observe(MemberId(0), 5);
        fd.observe(MemberId(0), 5);
        assert!(fd.is_alive(MemberId(0)), "two stalls < threshold");
        fd.observe(MemberId(0), 5);
        assert!(!fd.is_alive(MemberId(0)), "third stall kills it");
    }

    #[test]
    fn recovery_revives_a_dead_peer() {
        let mut fd = FailureDetector::new(2, ids(1));
        fd.observe(MemberId(0), 1);
        fd.observe(MemberId(0), 1);
        fd.observe(MemberId(0), 1);
        assert!(!fd.is_alive(MemberId(0)));
        fd.observe(MemberId(0), 2);
        assert!(fd.is_alive(MemberId(0)), "progress revives");
    }

    #[test]
    fn unknown_peers_are_dead_and_ignored() {
        let mut fd = FailureDetector::new(2, ids(1));
        fd.observe(MemberId(9), 100);
        assert!(!fd.is_alive(MemberId(9)));
    }

    #[test]
    fn a_word_grows_with_the_counter_whatever_the_position_does() {
        let (early, late) = (heartbeat_word(1, 1_000_000), heartbeat_word(2, 0));
        assert!(late > early, "a tick is progress");
        assert_eq!(reported_position(early, 1_000_000), 1_000_000);
        assert_eq!(reported_position(late, 5), 0);
        assert!(heartbeat_word(2, 5) > heartbeat_word(2, 4));
        // Past 2⁴⁰ bytes the low bits wrap, and the tick still grows.
        let wrapped = heartbeat_word(3, 1 << 40);
        assert!(wrapped > heartbeat_word(2, (1 << 40) - 1));
    }

    #[test]
    fn a_position_is_read_against_the_writer_across_the_wrap() {
        let wrap = 1u64 << 40;
        for writer in [wrap - 10, wrap, wrap + 10, 5 * wrap + 3] {
            for reader in [writer - (4 << 20), writer - 1, writer, writer + 100] {
                let word = heartbeat_word(9, reader);
                assert_eq!(reported_position(word, writer), reader, "{writer} {reader}");
            }
        }
        // A peer not heard from yet reads as the head of the log.
        assert_eq!(reported_position(0, 4 << 20), 0);
    }

    #[test]
    fn counter_ticks_monotonically() {
        let mut c = HeartbeatCounter::new();
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = FailureDetector::new(0, ids(1));
    }

    #[test]
    fn stale_epoch_heartbeat_does_not_revive() {
        // A peer reboots: its counter restarts below the value we last
        // saw. Those stale heartbeats must read as "no progress", not
        // as life — otherwise a wrapped/reset counter keeps a dead
        // member's view slots occupied forever.
        let mut fd = FailureDetector::new(2, ids(1));
        fd.observe(MemberId(0), 100);
        assert!(fd.is_alive(MemberId(0)));
        fd.observe(MemberId(0), 3);
        fd.observe(MemberId(0), 4); // still below 100: stale epoch
        assert!(
            !fd.is_alive(MemberId(0)),
            "backwards counters are stalls, not progress"
        );
        // Only genuinely fresh progress (past the high-water mark)
        // revives the peer.
        fd.observe(MemberId(0), 101);
        assert!(fd.is_alive(MemberId(0)));
    }

    #[test]
    fn intermittent_progress_below_threshold_stays_alive() {
        // One stalled read between advances must never accumulate into
        // a death sentence: progress resets the stall counter.
        let mut fd = FailureDetector::new(2, ids(1));
        for v in 1..=10 {
            fd.observe(MemberId(0), v);
            fd.observe(MemberId(0), v); // exactly one stall each round
        }
        assert!(fd.is_alive(MemberId(0)));
    }
}

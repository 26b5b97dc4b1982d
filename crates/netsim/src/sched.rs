//! Pluggable event scheduling — the model-checking hook.
//!
//! A deterministic discrete-event simulation fixes one interleaving per
//! seed: events at the same instant fire in insertion order. That is
//! perfect for benchmarks and terrible for finding races — the schedules
//! that break consensus protocols hide in the *other* orders the
//! hardware could have delivered. A [`Scheduler`] installed with
//! [`crate::Simulation::set_scheduler`] gets to choose, at every instant
//! with more than one pending event, which of the *co-enabled* events
//! (those sharing the earliest timestamp) fires first. Everything else —
//! link timing, RNG draws, node logic — stays deterministic, so a run is
//! a pure function of `(seed, topology, schedule choices)` and any
//! violating schedule can be replayed from its recorded choice sequence.
//!
//! Choosing index 0 always reproduces the engine's default FIFO order,
//! which is what a simulation without a scheduler does.

use crate::node::{NodeId, PortId, TimerToken};
use crate::time::SimTime;

/// What one pending event will do, as visible to a [`Scheduler`].
///
/// Frame payloads are deliberately not exposed: schedulers permute
/// delivery order, they do not inspect or alter traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// A frame of `len` bytes arriving on `port` of `node`.
    Frame {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortId,
        /// Frame length in bytes.
        len: usize,
    },
    /// A timer firing on `node` with `token`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The application's timer cookie.
        token: TimerToken,
    },
}

impl EventClass {
    /// The node the event is addressed to.
    pub fn node(&self) -> NodeId {
        match self {
            EventClass::Frame { node, .. } | EventClass::Timer { node, .. } => *node,
        }
    }
}

/// Descriptor of one pending event in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventInfo {
    /// When the event is due.
    pub at: SimTime,
    /// Insertion order (global, monotonically increasing). The default
    /// engine order fires equal-`at` events by ascending `seq`.
    pub seq: u64,
    /// What the event will do.
    pub class: EventClass,
}

/// Chooses among co-enabled events.
///
/// The engine calls [`Scheduler::choose`] whenever two or more events
/// share the earliest pending timestamp. `candidates` is sorted by
/// ascending `seq`; returning `0` keeps the default order, returning `k`
/// lets candidate `k` overtake the `k` events queued before it (the
/// *delay* of that choice, in delay-bounded-search terms). Out-of-range
/// indices are clamped to the last candidate.
pub trait Scheduler {
    /// Picks the index of the candidate to fire next.
    fn choose(&mut self, candidates: &[EventInfo]) -> usize;
}

/// A bug a run carries on purpose — a fault, like a [`crate::FaultPlan`],
/// set with [`crate::Simulation::plant`] — so that the model checker can
/// prove an oracle sees the guarantee it breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planted {
    /// Members skip their epoch fence: the deposed leader keeps its grants.
    SkipEpochRevoke,
    /// The switch scatters one group's writes into another group's logs.
    CrosswireGroups,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The engine's default policy, made explicit: always index 0, i.e.
    /// strict (time, insertion-order) FIFO. Installing this scheduler is
    /// behaviourally identical to installing none.
    #[derive(Debug, Default, Clone, Copy)]
    pub(crate) struct FifoScheduler;

    impl Scheduler for FifoScheduler {
        fn choose(&mut self, _candidates: &[EventInfo]) -> usize {
            0
        }
    }

    /// Replays a recorded choice sequence: the `i`-th call to `choose` with
    /// more than one candidate returns the `i`-th recorded choice (clamped);
    /// once the recording is exhausted, falls back to FIFO. Single-candidate
    /// calls never consume a recorded choice, mirroring how recorders only
    /// log branching points.
    #[derive(Debug, Clone)]
    pub(crate) struct ReplayScheduler {
        choices: Vec<u32>,
        cursor: usize,
    }

    impl ReplayScheduler {
        /// A scheduler replaying `choices` at successive branching points.
        pub(crate) fn new(choices: Vec<u32>) -> Self {
            ReplayScheduler { choices, cursor: 0 }
        }
    }

    impl Scheduler for ReplayScheduler {
        fn choose(&mut self, candidates: &[EventInfo]) -> usize {
            if candidates.len() <= 1 {
                return 0;
            }
            let Some(&c) = self.choices.get(self.cursor) else {
                return 0;
            };
            self.cursor += 1;
            (c as usize).min(candidates.len() - 1)
        }
    }

    fn info(seq: u64) -> EventInfo {
        EventInfo {
            at: SimTime::from_nanos(10),
            seq,
            class: EventClass::Timer {
                node: NodeId(0),
                token: TimerToken(seq),
            },
        }
    }

    #[test]
    fn fifo_always_picks_first() {
        let mut s = FifoScheduler;
        assert_eq!(s.choose(&[info(0), info(1), info(2)]), 0);
    }

    #[test]
    fn replay_consumes_only_at_branching_points() {
        let mut s = ReplayScheduler::new(vec![2, 1]);
        assert_eq!(s.choose(&[info(0)]), 0, "single candidate is forced");
        assert_eq!(s.choose(&[info(0), info(1), info(2)]), 2);
        assert_eq!(s.choose(&[info(0), info(1)]), 1);
        // Exhausted: falls back to FIFO.
        assert_eq!(s.choose(&[info(0), info(1)]), 0);
    }

    #[test]
    fn replay_clamps_out_of_range_choices() {
        let mut s = ReplayScheduler::new(vec![9]);
        assert_eq!(s.choose(&[info(0), info(1)]), 1);
    }

    #[test]
    fn event_class_reports_node() {
        assert_eq!(
            EventClass::Frame {
                node: NodeId(3),
                port: PortId(0),
                len: 64
            }
            .node(),
            NodeId(3)
        );
    }
}

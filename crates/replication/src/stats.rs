//! Measurement state of a member, whatever its communication module.

use crate::MemberId;
use netsim::{LatencyRecorder, SimDuration, SimTime, Throughput};

/// Cluster-visible happenings, timestamped for the fail-over experiments
/// (Table IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberEvent {
    /// The member observed a leadership change.
    ViewChange {
        /// New view number.
        view: u64,
        /// New leader, if any member is alive.
        leader: Option<MemberId>,
    },
    /// This member became leader.
    BecameLeader {
        /// The view it leads.
        view: u64,
    },
    /// The leader reached a replication quorum and can decide values.
    LeaderOperational {
        /// The view it leads.
        view: u64,
    },
    /// The leader excluded a crashed replica from replication.
    ReplicaExcluded {
        /// The excluded member.
        id: MemberId,
    },
    /// The member switched to its backup network path.
    PathFailover,
    /// The first value decided in a view (fail-over end marker).
    FirstDecision {
        /// The view in which it was decided.
        view: u64,
        /// Its consensus sequence number.
        seq: u64,
    },
    /// The communication group (re-)established through the switch
    /// (P4CE only).
    GroupEstablished,
    /// The member fell back to direct, un-accelerated replication
    /// (P4CE only, §III-A).
    FellBack,
    /// A harness-initiated communication rebuild began (Table IV, "new
    /// communication group").
    CommRebuildStarted,
}

/// How many events a member keeps ([`MemberStats::events`]).
pub const MAX_EVENTS: usize = 4096;

/// Per-member measurement state.
#[derive(Debug)]
pub struct MemberStats {
    /// Consensus operations decided (leader side).
    pub decided: u64,
    /// Requests issued to the replication engine.
    pub issued: u64,
    /// Latency samples (excludes the warm-up prefix), stored exactly.
    pub latency: LatencyRecorder,
    /// Decided-operations throughput window (excludes warm-up).
    pub throughput: Throughput,
    /// Entries applied from the log (replica side).
    pub applied: u64,
    /// Proposals that found no room in the log ring and were parked,
    /// each counted once however often it is retried: the next entry
    /// would have overwritten one the slowest live replica has not
    /// applied, or one not yet decided (leader side).
    pub writer_stalls: u64,
    /// The lowest flow-control credit count observed on successful
    /// acknowledgements (leader side; 31 = never constrained).
    pub min_credit_seen: u8,
    /// Timestamped cluster events: the newest [`MAX_EVENTS`] of them.
    pub events: Vec<(SimTime, MemberEvent)>,
    /// Events dropped, oldest first, to keep `events` at the cap. No run
    /// in tier-1, `explore-smoke` or the benchmark comes near the cap, so
    /// this reads 0 in all of them and no recorded bit depends on it.
    pub events_dropped: u64,
}

impl Default for MemberStats {
    fn default() -> Self {
        MemberStats {
            decided: 0,
            issued: 0,
            latency: LatencyRecorder::default(),
            throughput: Throughput::default(),
            applied: 0,
            writer_stalls: 0,
            min_credit_seen: 31,
            events: Vec::new(),
            events_dropped: 0,
        }
    }
}

impl MemberStats {
    /// Records an event at `now`.
    pub fn event(&mut self, now: SimTime, ev: MemberEvent) {
        if self.events.len() == MAX_EVENTS {
            self.events.remove(0);
            self.events_dropped += 1;
        }
        self.events.push((now, ev));
    }

    /// The instant of the first event matching `pred`, if any.
    pub fn event_time(&self, pred: impl Fn(&MemberEvent) -> bool) -> Option<SimTime> {
        self.events.iter().find(|(_, e)| pred(e)).map(|&(t, _)| t)
    }

    /// The instant of the first event matching `pred` at or after
    /// `after`, if any.
    pub fn event_time_after(
        &self,
        after: SimTime,
        pred: impl Fn(&MemberEvent) -> bool,
    ) -> Option<SimTime> {
        self.events
            .iter()
            .find(|&&(t, ref e)| t >= after && pred(e))
            .map(|&(t, _)| t)
    }

    /// Mean decided latency.
    pub fn mean_latency(&self) -> SimDuration {
        self.latency.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lookup() {
        let mut s = MemberStats::default();
        s.event(
            SimTime::from_micros(5),
            MemberEvent::BecameLeader { view: 1 },
        );
        s.event(
            SimTime::from_micros(9),
            MemberEvent::FirstDecision { view: 1, seq: 0 },
        );
        let t = s
            .event_time(|e| matches!(e, MemberEvent::FirstDecision { view: 1, .. }))
            .expect("recorded");
        assert_eq!(t, SimTime::from_micros(9));
        assert!(s
            .event_time(|e| matches!(e, MemberEvent::PathFailover))
            .is_none());
    }

    #[test]
    fn event_list_is_bounded_and_counts_what_it_drops() {
        let mut s = MemberStats::default();
        for i in 0..(MAX_EVENTS as u64 + 10) {
            s.event(
                SimTime::from_micros(i),
                MemberEvent::BecameLeader { view: i },
            );
        }
        assert_eq!(s.events.len(), MAX_EVENTS);
        assert_eq!(s.events_dropped, 10);
        assert_eq!(s.events[0].1, MemberEvent::BecameLeader { view: 10 });
        let newest = MAX_EVENTS as u64 + 9;
        let found = s.event_time_after(SimTime::from_micros(newest), |e| {
            matches!(e, MemberEvent::BecameLeader { .. })
        });
        assert_eq!(found, Some(SimTime::from_micros(newest)));
    }
}

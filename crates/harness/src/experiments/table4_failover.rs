//! E5 — Table IV: average fail-over times.
//!
//! Four scenarios, both systems. Expected shape (paper §V-E):
//!
//! | scenario            | Mu      | P4CE    |
//! |---------------------|---------|---------|
//! | new comm. group     | ~0.1 ms | ~40.1 ms|
//! | crashed replica     | ≈0 (+detection) | +40 ms reconfiguration |
//! | crashed leader      | ~0.9 ms | ~40.9 ms|
//! | crashed switch      | ~60 ms  | ~60 ms  |

use netsim::{SimDuration, SimTime};
use replication::{ClusterBuilder, Deployment, Fabric, MemberEvent, WorkloadSpec};

use crate::faults::{Fault, FaultSchedule, Faults};
use crate::report::{fmt_f64, TableRow};
use crate::runner::System;

/// One fail-over measurement.
#[derive(Debug, Clone, Copy)]
pub struct FailoverRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// System under test.
    pub system: System,
    /// Time to detect the failure (heartbeats / timeouts), ms.
    pub detection_ms: f64,
    /// Recovery work after detection (permission changes, switch
    /// reconfiguration, reconnects), ms.
    pub recovery_ms: f64,
    /// Total disruption, ms.
    pub total_ms: f64,
}

impl TableRow for FailoverRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "scenario",
            "system",
            "detection_ms",
            "recovery_ms",
            "total_ms",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.to_owned(),
            self.system.to_string(),
            fmt_f64(self.detection_ms),
            fmt_f64(self.recovery_ms),
            fmt_f64(self.total_ms),
        ]
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        total_requests: 0,
        warmup_requests: 0,
        ..WorkloadSpec::closed(2, 64, 0)
    }
}

/// A 3-member cluster of `F`, run to `system`'s steady state (P4CE needs
/// the switch's 40 ms group set-up on top of Mu's election).
fn steady<F: Fabric>(system: System, backup_fabric: bool) -> (Deployment<F>, SimTime) {
    let mut d = ClusterBuilder::<F>::new(3)
        .workload(workload())
        .backup_fabric(backup_fabric)
        .build();
    d.sim.run_until(SimTime::from_millis(match system {
        System::Mu => 30,
        System::P4ce => 80,
    }));
    let now = d.sim.now();
    (d, now)
}

/// Whether a member event ends a phase on `system`.
type Ends = fn(System, &MemberEvent) -> bool;

/// A row: its label, its fault, how long to watch (ms), whose events to
/// read, and the events that end detection and recovery.
type Scenario = (&'static str, Option<Fault>, u64, usize, Ends, Ends);

/// Table IV's rows, in order, each one fault at steady state. A row
/// without one is a rebuild forced by hand, measured from its start.
const SCENARIOS: [Scenario; 4] = [
    // Permissions already granted: pure communication setup, CM
    // round-trips for Mu, CM + 40 ms reconfiguration for P4CE.
    (
        "new communication group",
        None,
        200,
        0,
        |_, e| matches!(e, MemberEvent::CommRebuildStarted),
        |system, e| match system {
            System::Mu => matches!(e, MemberEvent::LeaderOperational { .. }),
            System::P4ce => matches!(e, MemberEvent::GroupEstablished),
        },
    ),
    // Mu excludes the replica and carries on; P4CE must rebuild the
    // switch group over the survivors.
    (
        "crashed replica",
        Some(Fault::Kill(2)),
        200,
        0,
        |system, e| match system {
            System::Mu => matches!(e, MemberEvent::ReplicaExcluded { .. }),
            System::P4ce => matches!(e, MemberEvent::CommRebuildStarted),
        },
        |system, e| match system {
            System::Mu => matches!(e, MemberEvent::ReplicaExcluded { .. }),
            System::P4ce => matches!(e, MemberEvent::GroupEstablished),
        },
    ),
    // The next-lowest member takes over.
    (
        "crashed leader",
        Some(Fault::Kill(0)),
        300,
        1,
        |_, e| matches!(e, MemberEvent::BecameLeader { .. }),
        |_, e| matches!(e, MemberEvent::FirstDecision { .. }),
    ),
    // The cluster reroutes over the backup fabric; both systems pay the
    // RDMA timeout + reconnection penalty.
    (
        "crashed switch",
        Some(Fault::KillSwitch),
        300,
        0,
        |_, e| matches!(e, MemberEvent::PathFailover),
        |_, e| matches!(e, MemberEvent::FirstDecision { .. }),
    ),
];

/// One body for every row: steady state, the row's one-entry schedule,
/// then start, detection and recovery off the watched member's events.
fn measure<F: Fabric>(system: System, row: usize) -> FailoverRow {
    let (scenario, fault, watch_ms, member, detects, recovers) = SCENARIOS[row];
    let (mut d, t0) = steady::<F>(system, fault == Some(Fault::KillSwitch));
    if fault.is_none() {
        d.with_member(0, |member, ops| member.force_rebuild_comm(ops));
    }
    let schedule = FaultSchedule::new(fault.map(|f| (0, f)).into_iter().collect());
    let until = t0 + SimDuration::from_millis(watch_ms);
    Faults::new(&schedule, Some(t0), &d.members).run_until(&mut d.sim, until);
    let stats = &d.member(member).stats;
    let detected = (stats.event_time_after(t0, |e| detects(system, e)))
        .unwrap_or_else(|| panic!("{scenario} on {system}: no detection"));
    let done = (stats.event_time_after(detected, |e| recovers(system, e)))
        .unwrap_or_else(|| panic!("{scenario} on {system}: no recovery"));
    let start = if fault.is_some() { t0 } else { detected };
    FailoverRow {
        scenario,
        system,
        detection_ms: ms(detected.duration_since(start)),
        recovery_ms: ms(done.duration_since(detected)),
        total_ms: ms(done.duration_since(start)),
    }
}

/// Runs all of Table IV, each row on Mu then P4CE.
pub fn run() -> Vec<FailoverRow> {
    (0..SCENARIOS.len())
        .flat_map(|row| {
            [
                measure::<mu::PlainFabric>(System::Mu, row),
                measure::<p4ce::P4ceFabric>(System::P4ce, row),
            ]
        })
        .collect()
}

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

/// The event that ends a communication rebuild on `system`.
fn rebuilt(system: System, e: &MemberEvent) -> bool {
    match system {
        System::Mu => matches!(e, MemberEvent::LeaderOperational { .. }),
        System::P4ce => matches!(e, MemberEvent::GroupEstablished),
    }
}

/// Scenario 1: configure a fresh communication group at steady state
/// (permissions already granted, so the cost is pure communication
/// setup: CM round-trips for Mu, CM + 40 ms reconfiguration for P4CE).
pub fn new_group(system: System) -> FailoverRow {
    match system {
        System::Mu => new_group_on::<mu::PlainFabric>(system),
        System::P4ce => new_group_on::<p4ce::P4ceFabric>(system),
    }
}

fn new_group_on<F: Fabric>(system: System) -> FailoverRow {
    let (mut d, t0) = steady::<F>(system, false);
    d.with_member(0, |member, ops| member.force_rebuild_comm(ops));
    d.sim.run_until(t0 + SimDuration::from_millis(200));
    let stats = &d.leader().stats;
    let started = stats
        .event_time_after(t0, |e| matches!(e, MemberEvent::CommRebuildStarted))
        .expect("rebuild started");
    let done = stats
        .event_time_after(started, |e| rebuilt(system, e))
        .expect("rebuild finished");
    FailoverRow {
        scenario: "new communication group",
        system,
        detection_ms: 0.0,
        recovery_ms: ms(done.duration_since(started)),
        total_ms: ms(done.duration_since(started)),
    }
}

/// Scenario 2: a replica crashes. Mu excludes it and carries on; P4CE
/// must rebuild the switch group over the survivors.
pub fn crashed_replica(system: System) -> FailoverRow {
    match system {
        System::Mu => crashed_replica_on::<mu::PlainFabric>(system),
        System::P4ce => crashed_replica_on::<p4ce::P4ceFabric>(system),
    }
}

fn crashed_replica_on<F: Fabric>(system: System) -> FailoverRow {
    let (mut d, t_kill) = steady::<F>(system, false);
    d.kill_member(2);
    d.sim.run_until(t_kill + SimDuration::from_millis(200));
    let stats = &d.leader().stats;
    let (detected, done) = match system {
        System::Mu => {
            let excluded = stats
                .event_time_after(t_kill, |e| matches!(e, MemberEvent::ReplicaExcluded { .. }))
                .expect("replica excluded");
            (excluded, excluded)
        }
        System::P4ce => {
            let started = stats
                .event_time_after(t_kill, |e| matches!(e, MemberEvent::CommRebuildStarted))
                .expect("rebuild started");
            let done = stats
                .event_time_after(started, |e| rebuilt(system, e))
                .expect("group rebuilt");
            (started, done)
        }
    };
    FailoverRow {
        scenario: "crashed replica",
        system,
        detection_ms: ms(detected.duration_since(t_kill)),
        recovery_ms: ms(done.duration_since(detected)),
        total_ms: ms(done.duration_since(t_kill)),
    }
}

/// Scenario 3: the leader crashes; the next-lowest member takes over.
pub fn crashed_leader(system: System) -> FailoverRow {
    match system {
        System::Mu => crashed_leader_on::<mu::PlainFabric>(system),
        System::P4ce => crashed_leader_on::<p4ce::P4ceFabric>(system),
    }
}

fn crashed_leader_on<F: Fabric>(system: System) -> FailoverRow {
    let (mut d, t_kill) = steady::<F>(system, false);
    d.kill_member(0);
    d.sim.run_until(t_kill + SimDuration::from_millis(300));
    let stats = &d.member(1).stats;
    let became = stats
        .event_time_after(t_kill, |e| matches!(e, MemberEvent::BecameLeader { .. }))
        .expect("took over");
    let first = stats
        .event_time_after(became, |e| matches!(e, MemberEvent::FirstDecision { .. }))
        .expect("decided");
    let (detection, recovery) = (became.duration_since(t_kill), first.duration_since(became));
    FailoverRow {
        scenario: "crashed leader",
        system,
        detection_ms: ms(detection),
        recovery_ms: ms(recovery),
        total_ms: ms(detection + recovery),
    }
}

/// Scenario 4: the switch dies; the cluster reroutes over the backup
/// fabric (both systems pay the RDMA timeout + reconnection penalty).
pub fn crashed_switch(system: System) -> FailoverRow {
    match system {
        System::Mu => crashed_switch_on::<mu::PlainFabric>(system),
        System::P4ce => crashed_switch_on::<p4ce::P4ceFabric>(system),
    }
}

fn crashed_switch_on<F: Fabric>(system: System) -> FailoverRow {
    let (mut d, t_kill) = steady::<F>(system, true);
    d.kill_switch();
    d.sim.run_until(t_kill + SimDuration::from_millis(300));
    let stats = &d.leader().stats;
    let failover = stats
        .event_time_after(t_kill, |e| matches!(e, MemberEvent::PathFailover))
        .expect("path failover");
    let first = stats
        .event_time_after(failover, |e| matches!(e, MemberEvent::FirstDecision { .. }))
        .expect("decided after recovery");
    let (detection, total) = (
        failover.duration_since(t_kill),
        first.duration_since(t_kill),
    );
    FailoverRow {
        scenario: "crashed switch",
        system,
        detection_ms: ms(detection),
        recovery_ms: ms(total - detection),
        total_ms: ms(total),
    }
}

/// Runs all of Table IV.
pub fn run() -> Vec<FailoverRow> {
    let mut rows = Vec::new();
    for &system in &[System::Mu, System::P4ce] {
        rows.push(new_group(system));
    }
    for &system in &[System::Mu, System::P4ce] {
        rows.push(crashed_replica(system));
    }
    for &system in &[System::Mu, System::P4ce] {
        rows.push(crashed_leader(system));
    }
    for &system in &[System::Mu, System::P4ce] {
        rows.push(crashed_switch(system));
    }
    rows
}

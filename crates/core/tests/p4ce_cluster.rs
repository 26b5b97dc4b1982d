//! Cluster tests for P4CE: in-network replication, fail-over behaviours
//! (§III-A, §V-E), and the fallback path.

use netsim::{SimDuration, SimTime};
use p4ce::{ClusterBuilder, MemberEvent, MemberId, P4ceSwitchConfig, SwitchSetters, WorkloadSpec};

#[test]
fn steady_state_runs_accelerated_and_decides() {
    let mut d = ClusterBuilder::new(3)
        .workload(WorkloadSpec::closed(8, 64, 2000))
        .build();
    d.sim.run_until(SimTime::from_millis(150));

    let leader = d.leader();
    assert!(leader.is_operational_leader());
    assert!(leader.is_accelerated(), "steady state is in-network");
    assert_eq!(leader.stats.decided, 2000);

    // Replicas applied every entry.
    for i in 1..3 {
        assert_eq!(d.member(i).stats.applied, 2000, "replica {i}");
    }

    // The switch did the communication work: one ACK per consensus
    // reached the leader, the rest died in-network.
    let prog = d.switch_program();
    assert_eq!(prog.stats.acks_forwarded, 2000);
    assert_eq!(prog.stats.acks_absorbed, 2000, "f=1 of 2 replicas");
    assert!(prog.stats.scattered >= 2000);
}

#[test]
fn group_setup_includes_reconfiguration_delay() {
    let d = {
        let mut d = ClusterBuilder::new(3)
            .workload(WorkloadSpec::closed(1, 64, 10))
            .build();
        d.sim.run_until(SimTime::from_millis(120));
        d
    };
    let leader = d.leader();
    let became = leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::BecameLeader { .. }))
        .expect("led");
    let group = leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::GroupEstablished))
        .expect("accelerated");
    let setup = group.duration_since(became);
    // Table IV: configuring a communication group costs ~40 ms of switch
    // reconfiguration (plus the replicas' 0.9 ms permission change).
    assert!(setup >= SimDuration::from_millis(40), "setup {setup}");
    assert!(setup <= SimDuration::from_millis(43), "setup {setup}");
}

#[test]
fn leader_crash_takeover_costs_about_41_ms() {
    let mut d = ClusterBuilder::new(3)
        .workload(WorkloadSpec::closed(2, 64, 0))
        .seed(7)
        .build();
    d.sim.run_until(SimTime::from_millis(100));
    assert!(d.leader().is_accelerated());
    let before = d.leader().stats.decided;
    assert!(before > 0);

    d.kill_member(0);
    d.sim.run_until(SimTime::from_millis(250));

    let new_leader = d.member(1);
    assert!(new_leader.is_operational_leader(), "member 1 takes over");
    assert!(new_leader.is_accelerated(), "and re-accelerates");
    assert!(new_leader.stats.decided > 0);

    let became = new_leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::BecameLeader { .. }))
        .expect("became leader");
    let first = new_leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::FirstDecision { .. }))
        .expect("decided");
    let takeover = first.duration_since(became);
    // Table IV: P4CE leader fail-over ≈ 40.9 ms (reconfiguration + the
    // 0.9 ms permission change).
    assert!(
        takeover >= SimDuration::from_millis(40),
        "takeover {takeover} must include the switch reconfiguration"
    );
    assert!(
        takeover <= SimDuration::from_millis(44),
        "takeover {takeover} should be ≈ 40.9 ms"
    );
}

#[test]
fn replica_crash_triggers_group_rebuild_with_40ms_gap() {
    let mut d = ClusterBuilder::new(4)
        .workload(WorkloadSpec::closed(2, 64, 0))
        .build();
    d.sim.run_until(SimTime::from_millis(100));
    let before = d.leader().stats.decided;
    assert!(before > 0);

    d.kill_member(3);
    d.sim.run_until(SimTime::from_millis(300));

    let leader = d.leader();
    assert!(leader.is_accelerated(), "rebuilt over the survivors");
    assert!(leader.stats.decided > before, "consensus resumed");
    // Two group establishments: the initial one and the rebuild.
    let establishments: Vec<SimTime> = leader
        .stats
        .events
        .iter()
        .filter(|(_, e)| matches!(e, MemberEvent::GroupEstablished))
        .map(|&(t, _)| t)
        .collect();
    assert_eq!(establishments.len(), 2, "initial + rebuild");
}

#[test]
fn a_rebuilt_group_supersedes_the_one_it_replaces() {
    // Control-plane latencies shrunk the way the explorer shrinks them, so
    // a thousand rebuilds stay cheap.
    let fast_switch = P4ceSwitchConfig {
        reconfig_delay: SimDuration::from_micros(500),
        ..Default::default()
    };
    let mut d = ClusterBuilder::new(4)
        .switch_config(fast_switch)
        .reaccel_period(SimDuration::from_millis(5))
        .build();
    d.sim.run_until(SimTime::from_millis(10));
    assert_eq!(d.switch_program().group_ids(), [1]);

    d.kill_member(3);
    d.sim.run_until(SimTime::from_millis(20));
    let leader_ip = d.cluster.addr_of(MemberId(0));
    assert!(d.leader().is_accelerated(), "rebuilt over the survivors");
    assert_eq!(d.switch_program().group_ids(), [2], "group 1 left");
    assert_eq!(
        d.switch_program().gid_of_leader(leader_ip),
        Some(2),
        "the switch names the group the leader drives"
    );

    // More rebuilds than the scatter table (`bcast_qp`, 1 Ki entries) could
    // hold if a superseded group kept its entries.
    const REBUILDS: u64 = 1100;
    for round in 0..REBUILDS {
        d.with_member(0, |member, ops| member.force_rebuild_comm(ops));
        d.sim.run_for(SimDuration::from_millis(1));
        assert!(d.leader().is_accelerated(), "rebuild {round}");
    }
    let prog = d.switch_program();
    assert_eq!(prog.active_groups(), 1);
    assert_eq!(prog.group_ids().len(), 1);
    assert_eq!(prog.gid_of_leader(leader_ip), Some(2 + REBUILDS as u16));
    // No request was refused: every group asked for went active, and
    // every one but the last was dropped by its successor.
    assert_eq!(prog.stats.groups_created, 2 + REBUILDS);
    assert_eq!(prog.stats.reconfigs, prog.stats.groups_created);
    assert_eq!(prog.stats.groups_retired, prog.stats.groups_created - 1);
    assert_eq!(prog.stats.gid_exhausted, 0);
}

#[test]
fn a_group_too_large_for_one_request_replicates_directly() {
    // A group request names f, a count and four address bytes per
    // replica in 92 bytes of CM private data: 22 replicas fit, 23 do not.
    let cluster = |members, ms| {
        let mut d = ClusterBuilder::new(members)
            .log_size(64 << 10)
            .workload(WorkloadSpec::closed(2, 64, 50))
            .build();
        d.sim.run_until(SimTime::from_millis(ms));
        d
    };

    let d = cluster(24, 10);
    let leader = d.leader();
    assert!(!leader.is_accelerated());
    assert!(leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::FellBack))
        .is_some());
    assert_eq!(leader.stats.decided, 50, "decided on the direct path");
    assert_eq!(d.switch_program().stats.groups_created, 0, "never asked");

    // Past the switch's 40 ms reconfiguration.
    let d = cluster(23, 45);
    assert!(d.leader().is_accelerated());
    assert_eq!(d.leader().stats.decided, 50);
}

#[test]
fn async_reconfig_keeps_deciding_through_replica_crash() {
    // The Lesson-3 extension: replication continues through the old
    // group while the new one is programmed.
    let mut d = ClusterBuilder::new(4)
        .workload(WorkloadSpec::closed(2, 64, 0))
        .async_reconfig(true)
        .build();
    d.sim.run_until(SimTime::from_millis(100));
    let before = d.leader().stats.decided;

    d.kill_member(3);
    // Shortly after the kill + detection, but well inside the 40 ms
    // reconfiguration window, decisions must keep flowing (f=2 of the
    // remaining 2 replicas still ACK through the old group).
    d.sim.run_until(SimTime::from_millis(120));
    let during = d.leader().stats.decided;
    assert!(
        during > before + 1000,
        "async reconfig keeps deciding during the rebuild: {before} -> {during}"
    );
}

#[test]
fn async_reconfig_hands_over_without_falling_back() {
    // The old group serves until the instant the new one goes active and
    // is dropped then; what was in flight on it is re-posted on the new
    // queue pair, not left to time out into a fall-back.
    let mut d = ClusterBuilder::new(4)
        .workload(WorkloadSpec::closed(2, 64, 0))
        .async_reconfig(true)
        .build();
    d.sim.run_until(SimTime::from_millis(100));
    d.kill_member(3);
    d.sim.run_until(SimTime::from_millis(300));

    let leader = d.leader();
    assert!(leader.is_accelerated());
    assert!(leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::FellBack))
        .is_none());
    assert_eq!(d.switch_program().group_ids(), [2]);
    assert_eq!(d.switch_program().stats.groups_retired, 1);
}

#[test]
fn switch_crash_falls_back_over_backup_fabric() {
    let mut d = ClusterBuilder::new(3)
        .workload(WorkloadSpec::closed(2, 64, 0))
        .backup_fabric(true)
        .build();
    d.sim.run_until(SimTime::from_millis(100));
    assert!(d.leader().is_accelerated());
    let before = d.leader().stats.decided;

    let kill_at = d.sim.now();
    d.kill_switch();
    d.sim.run_until(SimTime::from_millis(400));

    let leader = d.leader();
    assert!(
        leader.is_operational_leader(),
        "consensus survives the switch"
    );
    assert!(
        !leader.is_accelerated(),
        "no P4CE switch reachable: direct replication"
    );
    assert!(leader.stats.decided > before, "decisions resumed");

    // The recovery involved a path fail-over and a fallback.
    let failover = leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::PathFailover))
        .expect("path failover");
    assert!(failover > kill_at);
    let recovered = leader
        .stats
        .events
        .iter()
        .filter(|&&(t, ref e)| t > kill_at && matches!(e, MemberEvent::FirstDecision { .. }))
        .map(|&(t, _)| t)
        .next();
    if let Some(recovered) = recovered {
        let total = recovered.duration_since(kill_at);
        // Table IV: ≈ 60 ms, dominated by reconnection via the backup
        // route.
        assert!(
            total >= SimDuration::from_millis(50) && total <= SimDuration::from_millis(80),
            "switch-crash recovery {total} should be ≈ 60 ms"
        );
    }
}

#[test]
fn five_members_quorum_two_applies_everywhere() {
    let mut d = ClusterBuilder::new(5)
        .workload(WorkloadSpec::closed(8, 128, 1000))
        .build();
    d.sim.run_until(SimTime::from_millis(150));
    let leader = d.leader();
    assert!(leader.is_accelerated());
    assert_eq!(leader.stats.decided, 1000);
    for i in 1..5 {
        assert_eq!(d.member(i).stats.applied, 1000, "replica {i}");
    }
    let prog = d.switch_program();
    // f=2 of 4 replicas: per consensus 1 forwarded + 3 absorbed.
    assert_eq!(prog.stats.acks_forwarded, 1000);
    assert_eq!(prog.stats.acks_absorbed, 3000);
}

#[test]
fn deterministic_across_runs() {
    let run = |seed: u64| {
        let mut d = ClusterBuilder::new(3)
            .workload(WorkloadSpec::closed(4, 64, 500))
            .seed(seed)
            .build();
        d.sim.run_until(SimTime::from_millis(100));
        (
            d.leader().stats.decided,
            d.leader().stats.latency.mean().as_nanos(),
            d.sim.events_processed(),
        )
    };
    assert_eq!(run(1), run(1), "same seed, same trace");
}

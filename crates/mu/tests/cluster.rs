//! Cluster tests for the Mu baseline: election, replication, fail-over.

use mu::{MemberEvent, MuComm, MuMember};
use netsim::{LinkSpec, NodeId, SimDuration, SimTime, Simulation};
use rdma::{Host, HostConfig};
use replication::{ClusterConfig, MemberConfig, MemberId, WorkloadSpec};
use std::net::Ipv4Addr;
use tofino::{L3Forwarder, Switch, SwitchConfig};

const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

fn member_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1 + i as u8)
}

struct TestCluster {
    sim: Simulation,
    members: Vec<NodeId>,
}

impl TestCluster {
    fn new(n: usize, workload: WorkloadSpec) -> Self {
        let ips: Vec<Ipv4Addr> = (0..n).map(member_ip).collect();
        let cluster = ClusterConfig::new(&ips);
        let mut sim = Simulation::new(99);
        let mut members = Vec::new();
        for i in 0..n {
            let mut cfg = MemberConfig::new(cluster.clone(), MemberId(i as u8));
            // Every member carries the workload: whoever leads drives it.
            cfg.workload = Some(workload);
            members.push(sim.add_node(Box::new(Host::new(
                HostConfig::new(member_ip(i)),
                MuMember::new(cfg, MuComm::default()),
            ))));
        }
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig::tofino1(SW_IP),
            n,
            L3Forwarder,
        )));
        for (i, &m) in members.iter().enumerate() {
            let (_, swp) = sim.connect(m, sw, LinkSpec::default());
            sim.node_mut::<Switch<L3Forwarder>>(sw)
                .add_route(member_ip(i), swp);
        }
        TestCluster { sim, members }
    }

    fn member(&self, i: usize) -> &MuMember {
        self.sim.node_ref::<Host<MuMember>>(self.members[i]).app()
    }
}

#[test]
fn lowest_id_becomes_operational_leader_and_decides() {
    let mut tc = TestCluster::new(3, WorkloadSpec::closed(4, 64, 1000));
    tc.sim.run_until(SimTime::from_millis(50));

    let leader = tc.member(0);
    assert!(leader.is_operational_leader(), "member 0 must lead");
    assert_eq!(leader.believed_leader(), Some(MemberId(0)));
    assert_eq!(leader.stats.decided, 1000, "workload ran to completion");
    assert!(!leader.stats.latency.is_empty());

    // Replicas follow and applied the decided entries.
    for i in 1..3 {
        let r = tc.member(i);
        assert!(!r.is_operational_leader());
        assert_eq!(r.believed_leader(), Some(MemberId(0)));
        assert_eq!(r.stats.applied, 1000, "replica {i} applied the log");
    }
}

#[test]
fn leader_crash_elects_next_lowest() {
    let mut tc = TestCluster::new(3, WorkloadSpec::closed(2, 64, 0));
    tc.sim.run_until(SimTime::from_millis(20));
    assert!(tc.member(0).is_operational_leader());
    let decided_before = tc.member(0).stats.decided;
    assert!(decided_before > 0);

    // Kill the leader.
    let kill_at = tc.sim.now();
    let m0 = tc.members[0];
    tc.sim.set_node_down(m0, true);
    tc.sim
        .run_until(kill_at + netsim::SimDuration::from_millis(30));

    let new_leader = tc.member(1);
    assert!(
        new_leader.is_operational_leader(),
        "member 1 must take over"
    );
    assert!(new_leader.stats.decided > 0, "new view decides values");
    assert_eq!(tc.member(2).believed_leader(), Some(MemberId(1)));

    // Fail-over timeline: detection, takeover, first decision.
    let became = new_leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::BecameLeader { .. }))
        .expect("became leader");
    let first = new_leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::FirstDecision { view, .. } if *view >= 2))
        .expect("decided in new view");
    let takeover = first.duration_since(became);
    // Paper (Table IV): Mu leader fail-over ≈ 0.9 ms, dominated by the
    // permission change. Allow the CM round-trips on top.
    assert!(
        takeover >= netsim::SimDuration::from_micros(900),
        "takeover {takeover} must include the permission change"
    );
    assert!(
        takeover <= netsim::SimDuration::from_micros(1500),
        "takeover {takeover} should be dominated by the 0.9 ms permission change"
    );
}

#[test]
fn replica_crash_does_not_stop_consensus() {
    let mut tc = TestCluster::new(3, WorkloadSpec::closed(2, 64, 0));
    tc.sim.run_until(SimTime::from_millis(20));
    let before = tc.member(0).stats.decided;
    assert!(before > 0);

    // Kill one replica; with f = 1 the other replica's ACKs suffice.
    let m2 = tc.members[2];
    tc.sim.set_node_down(m2, true);
    tc.sim.run_until(SimTime::from_millis(60));

    let leader = tc.member(0);
    assert!(leader.is_operational_leader(), "leader keeps the quorum");
    assert!(
        leader.stats.decided > before + 100,
        "consensus kept flowing: {} -> {}",
        before,
        leader.stats.decided
    );
    // The dead replica was excluded.
    assert!(leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::ReplicaExcluded { id } if *id == MemberId(2)))
        .is_some());
    // No view change: the leader did not move.
    assert_eq!(leader.believed_leader(), Some(MemberId(0)));
}

#[test]
fn five_member_cluster_waits_for_quorum_of_two() {
    let mut tc = TestCluster::new(5, WorkloadSpec::closed(4, 64, 500));
    tc.sim.run_until(SimTime::from_millis(50));
    let leader = tc.member(0);
    assert!(leader.is_operational_leader());
    assert_eq!(leader.stats.decided, 500);
    // All four replicas eventually apply everything (they all receive the
    // writes even though only f=2 ACKs gate each decision).
    for i in 1..5 {
        assert_eq!(tc.member(i).stats.applied, 500, "replica {i}");
    }
}

#[test]
fn open_loop_workload_reaches_target_rate() {
    // 100 k ops/s for 2000 requests = 20 ms of traffic.
    let mut tc = TestCluster::new(3, WorkloadSpec::open_loop(100_000.0, 64, 2000));
    tc.sim.run_until(SimTime::from_millis(60));
    let leader = tc.member(0);
    assert_eq!(leader.stats.decided, 2000);
    // At this modest rate latency must be flat (no queueing): a few µs.
    let mean = leader.stats.mean_latency();
    assert!(
        mean <= netsim::SimDuration::from_micros(10),
        "uncontended Mu latency should be microseconds, got {mean}"
    );
}

#[test]
fn new_leader_fences_its_own_log_on_takeover() {
    let mut d = mu::ClusterBuilder::new(3)
        .workload(WorkloadSpec::closed(2, 64, 0))
        .build();
    d.sim.run_until(SimTime::from_millis(20));
    assert!(d.member(0).is_operational_leader());
    let deposed = member_ip(0);
    let log_writable_by_deposed = |d: &mu::Deployment| {
        let host = d.sim.node_ref::<Host<MuMember>>(d.members[1]);
        let region = host.app().log_region().expect("registered");
        host.memory().effective_perms(region, deposed).remote_write
    };
    assert!(
        log_writable_by_deposed(&d),
        "member 0 writes member 1's log"
    );

    d.kill_member(0);
    d.sim.run_for(SimDuration::from_millis(30));
    let new_leader = d.member(1);
    assert!(
        new_leader.is_operational_leader(),
        "member 1 must take over"
    );
    // A new leader's own log is an old-epoch log too: the deposed
    // leader's grant must die with the takeover, and the member must not
    // go on naming it as its epoch's writer.
    assert!(
        !log_writable_by_deposed(&d),
        "deposed leader still holds WRITE on the new leader's log"
    );
    assert_eq!(new_leader.epoch_leader(), None);
}

#[test]
fn open_loop_workload_survives_a_comm_rebuild() {
    let mut d = mu::ClusterBuilder::new(3)
        .workload(WorkloadSpec::open_loop(1e5, 64, 0))
        .build();
    d.sim.run_until(SimTime::from_millis(30));
    let before = d.leader().stats.decided;
    assert!(before > 0);

    // Arrivals that land while the links are down must park and the
    // arrival clock must stay armed; otherwise the stream ends here.
    d.with_member(0, |m, ops| m.force_rebuild_comm(ops));
    d.sim.run_for(SimDuration::from_millis(40));
    let after = d.leader().stats.decided;
    assert!(
        after > before + 1000,
        "open-loop stream stopped at the rebuild: {before} -> {after}"
    );
}

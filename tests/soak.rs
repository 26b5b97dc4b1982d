//! Long-horizon soak: a scripted schedule of faults over one cluster,
//! asserting the system keeps deciding, converges, and replays
//! deterministically.

use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use p4ce::{ClusterBuilder, MemberEvent, StateMachine, WorkloadSpec};

#[derive(Default)]
struct Counter {
    applied: u64,
    bytes: u64,
}

impl StateMachine for Counter {
    fn apply(&mut self, _seq: u64, payload: &[u8]) {
        self.applied += 1;
        self.bytes += payload.len() as u64;
    }
}

fn run_soak(seed: u64) -> (u64, u64, u64) {
    let mut d = ClusterBuilder::new(5)
        .workload(WorkloadSpec::closed(4, 128, 0))
        .backup_fabric(true)
        .seed(seed)
        .build();
    for i in 0..5 {
        d.member_mut(i)
            .set_state_machine(Box::new(Counter::default()));
    }

    // Phase 1: steady state.
    d.sim.run_until(SimTime::from_millis(100));
    let steady = d.leader().stats.decided;
    assert!(d.leader().is_accelerated(), "phase 1: accelerated");
    assert!(steady > 50_000, "phase 1: high throughput, got {steady}");

    // Phase 2: lose a replica (group rebuild, 40 ms).
    d.kill_member(4);
    d.sim.run_for(SimDuration::from_millis(150));
    let after_replica = d.leader().stats.decided;
    assert!(d.leader().is_accelerated(), "phase 2: re-accelerated");
    assert!(after_replica > steady, "phase 2: progress");

    // Phase 3: lose the leader; member 1 takes over with a 4-member
    // majority (m1..m3 alive of 5).
    d.kill_member(0);
    d.sim.run_for(SimDuration::from_millis(200));
    let new_leader_decided = d.member(1).stats.decided;
    assert!(
        d.member(1).is_operational_leader(),
        "phase 3: m1 leads with 4 live members of 5"
    );
    assert!(new_leader_decided > 0, "phase 3: new leader decides");
    let _ = after_replica;

    // Phase 5: the switch dies; survivors reroute and fall back.
    d.kill_switch();
    d.sim.run_for(SimDuration::from_millis(300));
    let final_leader = d.member(1);
    assert!(
        final_leader.is_operational_leader(),
        "phase 5: survives the switch"
    );
    assert!(
        !final_leader.is_accelerated(),
        "phase 5: direct replication"
    );
    let final_decided = final_leader.stats.decided;
    assert!(
        final_decided > new_leader_decided,
        "phase 5: still deciding"
    );

    // Liveness events happened in order.
    let events = &final_leader.stats.events;
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, MemberEvent::BecameLeader { .. })));
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, MemberEvent::PathFailover)));
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, MemberEvent::FellBack)));

    (final_decided, d.sim.events_processed(), steady)
}

#[test]
fn scripted_fault_schedule_keeps_the_cluster_live() {
    run_soak(2026);
}

#[test]
fn soak_replays_deterministically() {
    assert_eq!(run_soak(7), run_soak(7));
}

#[test]
fn zero_byte_values_replicate() {
    // Degenerate payloads: consensus on zero-length values must work
    // (framing carries all the information).
    let mut d = ClusterBuilder::new(3).build();
    for i in 0..3 {
        d.member_mut(i)
            .set_state_machine(Box::new(Counter::default()));
    }
    d.sim.run_until(SimTime::from_millis(60));
    for _ in 0..5 {
        d.with_member(0, |leader, ops| {
            assert!(leader.propose_value(Bytes::new(), ops));
        });
        d.sim.run_for(SimDuration::from_micros(20));
    }
    d.sim.run_for(SimDuration::from_millis(1));
    for i in 1..3 {
        let sm = d.member(i).state_machine().expect("installed");
        let counter = (sm as &dyn std::any::Any)
            .downcast_ref::<Counter>()
            .expect("counter");
        assert_eq!(counter.applied, 5, "replica {i}");
        assert_eq!(counter.bytes, 0, "replica {i} empty payloads");
    }
}

#[test]
fn open_loop_rides_through_a_group_rebuild() {
    // Open-loop arrivals keep coming while the switch reconfigures after
    // a replica death; the parked requests must all eventually decide,
    // with the outage visible in their latency.
    let mut d = ClusterBuilder::new(4)
        .workload(WorkloadSpec {
            total_requests: 0,
            warmup_requests: 0,
            ..WorkloadSpec::open_loop(50_000.0, 64, 0)
        })
        .build();
    d.sim.run_until(SimTime::from_millis(100));
    let t0 = d.sim.now();
    d.member_mut(0).reset_measurements(t0);
    d.kill_member(3);
    d.sim.run_for(SimDuration::from_millis(150));

    let leader = d.member_mut(0);
    let issued = leader.stats.issued;
    let decided = leader.stats.decided;
    // 50 k/s × 150 ms ≈ 7500 arrivals; all but the very tail decided.
    assert!(
        decided + 50 >= issued,
        "parked arrivals drained: issued {issued}, decided {decided}"
    );
    // The 40 ms outage shows up in the worst-case latency.
    let max = leader.stats.latency.max();
    assert!(
        max >= SimDuration::from_millis(39),
        "outage must be visible in tail latency, max {max}"
    );
    // But the median stays microsecond-scale.
    let p50 = leader.stats.latency.percentile(50.0);
    assert!(
        p50 <= SimDuration::from_micros(10),
        "median stays fast, p50 {p50}"
    );
}

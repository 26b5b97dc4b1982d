//! The §III-A fallback/re-acceleration loop, end to end: the switch
//! dies, the leader reverts to direct replication; the switch returns,
//! and the periodic probe regains in-network acceleration.

use netsim::{SimDuration, SimTime};
use p4ce::{ClusterBuilder, MemberEvent, SwitchSetters, WorkloadSpec};

#[test]
fn leader_falls_back_and_reaccelerates_when_the_switch_returns() {
    let mut d = ClusterBuilder::new(3)
        .workload(WorkloadSpec::closed(2, 64, 0))
        .build();
    d.sim.run_until(SimTime::from_millis(100));
    assert!(d.leader().is_accelerated());
    let decided_steady = d.leader().stats.decided;
    assert!(decided_steady > 0);

    // The switch blacks out for 150 ms. Without a backup fabric, even
    // heartbeats stop; the cluster stalls and recovers on the same path.
    let switch = d.switch;
    d.sim.set_node_down(switch, true);
    d.sim.run_for(SimDuration::from_millis(150));
    d.sim.set_node_down(switch, false);

    // After the fabric returns: heartbeats resume, the leader first
    // re-establishes *direct* replication (the fallback), then the
    // re-acceleration probe rebuilds the in-network group.
    d.sim.run_for(SimDuration::from_millis(400));

    let leader = d.leader();
    assert!(leader.is_operational_leader(), "cluster recovered");
    assert!(
        leader.is_accelerated(),
        "the probe must regain in-network acceleration"
    );
    assert!(
        leader.stats.decided > decided_steady,
        "decisions resumed: {} -> {}",
        decided_steady,
        leader.stats.decided
    );

    // The event log tells the §III-A story: fallback first, group later.
    let fell_back = leader
        .stats
        .event_time(|e| matches!(e, MemberEvent::FellBack))
        .expect("fallback happened");
    let regained = leader
        .stats
        .events
        .iter()
        .filter(|&&(t, ref e)| t > fell_back && matches!(e, MemberEvent::GroupEstablished))
        .map(|&(t, _)| t)
        .next()
        .expect("re-acceleration happened");
    assert!(regained > fell_back);
}

#[test]
fn async_reconfig_smooths_replica_loss() {
    // Measure the largest decision gap around a replica crash with and
    // without asynchronous reconfiguration.
    let gap_with = largest_gap(true);
    let gap_without = largest_gap(false);
    // Synchronous reconfiguration stalls for the 40 ms switch update;
    // the asynchronous variant keeps the old group serving.
    assert!(
        gap_without >= SimDuration::from_millis(39),
        "sync gap {gap_without}"
    );
    assert!(
        gap_with <= SimDuration::from_millis(5),
        "async gap {gap_with}"
    );
}

fn largest_gap(async_reconfig: bool) -> SimDuration {
    let mut d = ClusterBuilder::new(4)
        .workload(WorkloadSpec::closed(2, 64, 0))
        .async_reconfig(async_reconfig)
        .build();
    d.sim.run_until(SimTime::from_millis(100));
    let kill_at = d.sim.now();
    d.kill_member(3);
    // Sample decided counts every millisecond; the largest run of
    // no-progress samples approximates the decision gap.
    let mut last_decided = d.leader().stats.decided;
    let mut gap = SimDuration::ZERO;
    let mut current_gap = SimDuration::ZERO;
    for _ in 0..150 {
        d.sim.run_for(SimDuration::from_millis(1));
        let now_decided = d.leader().stats.decided;
        if now_decided == last_decided {
            current_gap += SimDuration::from_millis(1);
            gap = gap.max(current_gap);
        } else {
            current_gap = SimDuration::ZERO;
        }
        last_decided = now_decided;
    }
    let _ = kill_at;
    gap
}

#[test]
fn deterministic_replay_across_full_recovery() {
    let run = || {
        let mut d = ClusterBuilder::new(3)
            .workload(WorkloadSpec::closed(2, 64, 0))
            .seed(99)
            .build();
        d.sim.run_until(SimTime::from_millis(60));
        let switch = d.switch;
        d.sim.set_node_down(switch, true);
        d.sim.run_for(SimDuration::from_millis(100));
        d.sim.set_node_down(switch, false);
        d.sim.run_for(SimDuration::from_millis(300));
        (d.leader().stats.decided, d.sim.events_processed())
    };
    assert_eq!(run(), run(), "recovery must replay identically");
}

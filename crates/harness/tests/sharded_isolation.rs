//! Multi-group isolation: a seeded chaos storm (loss + partition +
//! leader kill) confined to group 0's links must leave group 1's
//! decided log, replica fingerprints and every layer's counters **bit
//! identical** to a fault-free run of the same service. The per-group
//! switch tables are what make this hold — the storm exercises them
//! with retransmissions, CM re-handshakes and a group that dies
//! mid-flight, all on ports the healthy group never touches.

use netsim::{FaultPlan, PortId, SimDuration, SimTime, Tracer};
use p4ce_harness::shard::{await_leaders, build_sharded, store_of, ShardedPointConfig};
use p4ce_harness::{HashRing, ShardKvCommand, ZipfSampler};
use p4ce_switch::GroupStats;
use rdma::HostStats;

/// What the healthy group looked like at the end of a run.
#[derive(Debug, PartialEq)]
struct GroupFingerprint {
    decided: u64,
    log_hash_replica1: u64,
    log_hash_replica2: u64,
    applied: u64,
    /// Per member: count, mean, p50, p99 and max of its decide
    /// latencies, in ns.
    latency: Vec<[u64; 5]>,
    /// Per member: every field of its `MemberStats` — counters, events
    /// and each latency sample in recording order — as `Debug` prints it
    /// (the type has no `PartialEq`).
    members: Vec<String>,
    hosts: Vec<HostStats>,
    switch: GroupStats,
}

/// Runs the two-group service; when `storm` is set, group 0's three
/// links take 5% loss plus a 3 ms partition of its leader, and the
/// leader process is killed outright at 8 ms. Group 1's driver schedule
/// is identical in both runs.
fn run_service(storm: bool) -> GroupFingerprint {
    let mut cfg = ShardedPointConfig::new(2);
    cfg.seed = 7;
    let mut d = build_sharded(&cfg, &Tracer::disabled());
    await_leaders(&mut d);

    if storm {
        let storm_from = d.sim.now() + SimDuration::from_millis(2);
        let storm_until = d.sim.now() + SimDuration::from_millis(5);
        let primary = PortId::from_index(0);
        for i in 0..3 {
            let m = d.members[0][i];
            let mut plan = FaultPlan::new().loss(0.05);
            if i == 0 {
                plan = plan.partition(storm_from, storm_until);
            }
            d.sim.set_fault_plan(m, primary, plan.clone());
            let (sw, swp) = d.sim.peer_of(m, primary);
            d.sim.set_fault_plan(sw, swp, plan);
        }
    }

    // Open-loop driver: a fixed schedule of Zipf-routed writes into both
    // groups, 4 µs apart. Group 0's proposals stop at the kill point in
    // the storm run (one cannot drive a dead process); group 1's
    // schedule never depends on group 0's fate.
    let ring = HashRing::new(2, 64);
    let mut zipf = ZipfSampler::new(256, 0.99, cfg.seed);
    let kill_at = d.sim.now() + SimDuration::from_millis(8);
    let mut killed = false;
    let mut counter = 0u64;
    let end = d.sim.now() + SimDuration::from_millis(14);
    while d.sim.now() < end {
        if storm && !killed && d.sim.now() >= kill_at {
            d.kill_member(0, 0);
            killed = true;
        }
        let key = zipf.next_key();
        let g = usize::from(ring.group_of(key));
        counter += 1;
        if g == 1 || !killed {
            let payload = ShardKvCommand {
                key,
                group: g as u16,
                counter,
            }
            .encode(64);
            d.with_member(g, 0, |m, ops| m.propose_value(payload, ops));
        }
        d.sim.run_for(SimDuration::from_micros(4));
    }
    d.sim.run_for(SimDuration::from_millis(2));

    // Everything group 1's layers counted, latency distributions
    // included.
    let stats = (0..3).map(|i| &d.member(1, i).stats);
    let latency = (stats.clone())
        .map(|s| {
            let mut samples = s.latency.clone();
            [
                samples.len() as u64,
                samples.mean().as_nanos(),
                samples.percentile(50.0).as_nanos(),
                samples.percentile(99.0).as_nanos(),
                samples.max().as_nanos(),
            ]
        })
        .collect();
    let members = stats.map(|s| format!("{s:?}")).collect();
    let hosts = (d.members[1].iter())
        .map(|&m| d.sim.node_ref::<rdma::Host<p4ce::P4ceMember>>(m).stats())
        .collect();
    let gid = d
        .switch_program()
        .gid_of_leader(p4ce::ShardedClusterBuilder::member_ip(1, 0))
        .expect("group 1 accelerated");

    GroupFingerprint {
        decided: d.leader(1).stats.decided,
        log_hash_replica1: store_of(&d, 1, 1).log_hash,
        log_hash_replica2: store_of(&d, 1, 2).log_hash,
        applied: store_of(&d, 1, 1).applied,
        latency,
        members,
        hosts,
        switch: d.switch_program().group_stats(gid).expect("live group"),
    }
}

#[test]
fn storm_on_group_zero_is_invisible_to_group_one() {
    let clean = run_service(false);
    let stormy = run_service(true);
    assert!(clean.decided > 0, "healthy run decided nothing in group 1");
    assert!(clean.applied > 0, "group 1 replicas applied nothing");
    assert_eq!(
        clean, stormy,
        "group 0's storm leaked into group 1's log or counters"
    );
}

#[test]
fn the_storm_actually_hurt_group_zero() {
    // Control for the control: the same storm visibly degrades the group
    // it targets (killed leader stops deciding; replicas keep whatever
    // decided before the kill).
    let mut cfg = ShardedPointConfig::new(2);
    cfg.seed = 7;
    let mut d = build_sharded(&cfg, &Tracer::disabled());
    await_leaders(&mut d);
    let primary = PortId::from_index(0);
    for i in 0..3 {
        let m = d.members[0][i];
        d.sim.set_fault_plan(m, primary, FaultPlan::new().loss(0.5));
        let (sw, swp) = d.sim.peer_of(m, primary);
        d.sim.set_fault_plan(sw, swp, FaultPlan::new().loss(0.5));
    }
    let before = d.sim.fault_stats(d.members[0][0], primary).dropped;
    for c in 0..50u64 {
        let payload = ShardKvCommand {
            key: c,
            group: 0,
            counter: c + 1,
        }
        .encode(64);
        d.with_member(0, 0, |m, ops| m.propose_value(payload, ops));
        d.sim.run_for(SimDuration::from_micros(10));
    }
    d.sim.run_until(SimTime::from_millis(40));
    let dropped = d.sim.fault_stats(d.members[0][0], primary).dropped - before;
    assert!(
        dropped > 0,
        "the storm dropped nothing — test proves nothing"
    );
}

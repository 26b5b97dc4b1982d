//! The sharded-KV service battery: multi-group points decide in every
//! shard, routing never leaks across groups, every layer's counters come
//! back in their own group's row, and the group lifecycle (a rebuild
//! under a fresh switch group id) leaves co-resident shards untouched.

use netsim::{SimDuration, Tracer};
use p4ce_harness::shard::{
    build_sharded, observe_sharded_point, run_sharded_point, store_of, ShardedPointConfig,
};
use p4ce_harness::{Observe, ShardKvStore};

fn small_point(groups: usize) -> ShardedPointConfig {
    let mut cfg = ShardedPointConfig::new(groups);
    cfg.warmup = SimDuration::from_millis(1);
    cfg.window = SimDuration::from_millis(5);
    cfg
}

#[test]
fn every_group_decides_and_nothing_leaks() {
    let cfg = small_point(3);
    let outcome = run_sharded_point(&cfg);
    assert_eq!(outcome.per_group.len(), 3);
    let decided: u64 = outcome.per_group.iter().map(|g| g.decided).sum();
    assert!(decided > 0, "the service decided nothing");
    for (g, row) in outcome.per_group.iter().enumerate() {
        assert!(row.accelerated, "group {g} fell off the in-network path");
        assert!(row.decided > 0, "group {g} decided nothing — routing hole");
        assert_eq!(row.foreign, 0, "group {g} applied another shard's writes");
        assert!(row.p99_latency_us > 0.0, "group {g} recorded no latency");
    }
    assert!(outcome.aggregate_ops_per_sec > 0.0);
    assert!(outcome.aggregate_goodput_bytes_per_sec > 0.0);
    // Decisions lag proposals across the window/drain boundaries, so only
    // sanity-check the offered load was real.
    assert!(
        outcome.proposed > 0,
        "the client population proposed nothing"
    );
}

#[test]
fn group_logs_are_disjoint_and_internally_agreed() {
    let cfg = small_point(2);
    let mut d = build_sharded(&cfg, &Tracer::disabled());
    p4ce_harness::shard::await_leaders(&mut d);
    let ring = p4ce_harness::HashRing::new(2, 64);
    let mut zipf = p4ce_harness::ZipfSampler::new(cfg.keys, cfg.zipf_theta, cfg.seed);
    for counter in 1..=200 {
        let key = zipf.next_key();
        let g = usize::from(ring.group_of(key));
        let payload = p4ce_harness::ShardKvCommand {
            key,
            group: g as u16,
            counter,
        }
        .encode(cfg.value_size);
        d.with_member(g, 0, |m, ops| m.propose_value(payload, ops));
        d.sim.run_for(SimDuration::from_micros(4));
    }
    d.sim.run_for(SimDuration::from_millis(2));

    // Replicas of one group agree bit-exactly; different groups hold
    // different logs; nobody applied a foreign command.
    for g in 0..2 {
        let h1 = store_of(&d, g, 1).log_hash;
        let h2 = store_of(&d, g, 2).log_hash;
        assert_eq!(h1, h2, "group {g}'s replicas diverged");
        assert!(store_of(&d, g, 1).applied > 0, "group {g} applied nothing");
        for i in 0..3 {
            assert_eq!(store_of(&d, g, i).foreign, 0, "g{g}m{i} leaked");
        }
    }
    assert_ne!(
        store_of(&d, 0, 1).log_hash,
        store_of(&d, 1, 1).log_hash,
        "two shards replicated the same log"
    );
}

#[test]
fn metered_point_hands_back_every_layer_per_group() {
    let cfg = small_point(2);
    let (outcome, layers) = observe_sharded_point(&cfg, &Observe::Metrics);
    let layers = layers.expect("asked for");
    assert!(outcome.per_group.iter().all(|g| g.decided > 0));

    // Every member and host of every group, in its own group's row.
    assert_eq!(layers.members.len(), 2);
    assert_eq!(layers.hosts.len(), 2);
    for g in 0..2 {
        assert_eq!(layers.members[g].len(), cfg.members_per_group, "g{g}");
        assert_eq!(layers.hosts[g].len(), cfg.members_per_group, "g{g}");
        assert!(
            layers.members[g][0].decided >= outcome.per_group[g].decided,
            "g{g}: the leader's count covers its own group's window"
        );
        assert!(
            layers.hosts[g].iter().all(|h| h.packets_received > 0),
            "g{g}"
        );
    }
    // The switch's per-group slice, keyed by the switch group id the
    // group's leader drives.
    let (gid0, slice0) = layers.groups[0].expect("group 0 accelerated");
    let (gid1, slice1) = layers.groups[1].expect("group 1 accelerated");
    assert_ne!(gid0, gid1, "two shards shared one switch group id");
    for (g, slice) in [(0, slice0), (1, slice1)] {
        assert!(
            slice.scattered > 0,
            "switch did no scattering for group {g}"
        );
    }
    let program = layers.program.expect("the P4CE program");
    assert!(program.scattered >= slice0.scattered + slice1.scattered);
}

#[test]
fn rebuilding_one_group_leaves_the_other_accelerated() {
    let cfg = small_point(2);
    let mut d = build_sharded(&cfg, &Tracer::disabled());
    p4ce_harness::shard::await_leaders(&mut d);
    let gid_of = |d: &p4ce::ShardedDeployment, g| {
        d.switch_program()
            .gid_of_leader(p4ce::ShardedClusterBuilder::member_ip(g, 0))
    };
    let old_gid = gid_of(&d, 0).expect("group 0 registered");
    let gid1 = gid_of(&d, 1).expect("group 1 registered");

    // Group 0's leader asks the switch for a new group; group 1 keeps
    // its group and its in-network path while that one is built.
    d.with_member(0, 0, |m, ops| m.force_rebuild_comm(ops));
    for _ in 0..2_000 {
        if d.leader(0).is_accelerated() {
            break;
        }
        d.sim.run_for(SimDuration::from_micros(100));
        assert!(
            d.leader(1).is_accelerated(),
            "group 1 disturbed by the rebuild"
        );
        assert_eq!(gid_of(&d, 1), Some(gid1), "group 1 changed its group");
    }
    assert!(d.leader(0).is_accelerated(), "group 0 never re-accelerated");
    let new_gid = gid_of(&d, 0).expect("group 0 re-registered");
    assert_ne!(new_gid, old_gid, "switch recycled a superseded gid");
    assert!(!d.switch_program().group_ids().contains(&old_gid));
    assert_eq!(d.switch_program().group_ids().len(), 2);

    // Both groups decide on their groups afterwards.
    for g in 0..2 {
        for c in 0..20u64 {
            let payload = p4ce_harness::ShardKvCommand {
                key: c,
                group: g as u16,
                counter: c + 1,
            }
            .encode(cfg.value_size);
            d.with_member(g, 0, |m, ops| m.propose_value(payload, ops));
            d.sim.run_for(SimDuration::from_micros(20));
        }
    }
    d.sim.run_for(SimDuration::from_millis(2));
    for g in 0..2 {
        assert!(
            store_of(&d, g, 1).applied >= 20,
            "group {g} stopped deciding"
        );
        assert!(d.leader(g).is_accelerated(), "group {g} fell back");
    }
    assert_eq!(gid_of(&d, 0), Some(new_gid));
    assert_eq!(gid_of(&d, 1), Some(gid1));
}

#[test]
fn single_group_service_matches_its_own_rerun_bit_for_bit() {
    let cfg = small_point(1);
    let a = run_sharded_point(&cfg);
    let b = run_sharded_point(&cfg);
    assert_eq!(a, b, "sharded point is not a pure function of its config");
    // Downcast sanity: the store type reads back.
    let mut d = build_sharded(&cfg, &Tracer::disabled());
    p4ce_harness::shard::await_leaders(&mut d);
    let sm = d.member(0, 1).state_machine().expect("installed");
    assert!((sm as &dyn std::any::Any)
        .downcast_ref::<ShardKvStore>()
        .is_some());
}

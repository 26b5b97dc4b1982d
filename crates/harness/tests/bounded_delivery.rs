//! Replicas poll their log: the host keeps at most one queued
//! remote-write notification per watched region, so a replica whose NIC
//! lands packets faster than its CPU reaps them (8 KiB values at line
//! rate: 12.5 M packets/s against 4.76 M reaps/s) runs behind in *time*
//! but its delivery queue no longer grows with the packets.

use netsim::SimDuration;
use p4ce_harness::{observe_point, Observe, PointConfig, System};
use replication::WorkloadSpec;

#[test]
fn replica_delivery_queues_do_not_grow_with_landed_packets() {
    let mut cfg = PointConfig::new(System::P4ce, 4, WorkloadSpec::closed(16, 8192, 0));
    cfg.warmup = SimDuration::from_millis(1);
    cfg.window = SimDuration::from_millis(3);
    cfg.seed = 42;
    let observed = observe_point(&cfg, &Observe::Metrics);
    let (out, layers) = (observed.outcome, observed.layers.expect("asked for"));
    assert!(out.accelerated && out.decided > 0);
    // What can still queue behind the overloaded CPU is the replica's own
    // posted work: 4 heartbeat reads per 100 µs tick. The load lasts at
    // most 5 ms (the runner polls for an operational leader every 1 ms,
    // then 1 ms warm-up + 3 ms window), so at most 200 of those complete
    // under load — plus the one log notification.
    const POSTED_UNDER_LOAD: u64 = 4 * 50;
    for i in 1..=4 {
        let host = &layers.hosts[0][i];
        let landed = host.rx_zero_copy_deliveries;
        let merged = host.rx_notifications_merged;
        assert!(
            landed > 50_000,
            "replica {i}: {landed} packets is no overload"
        );
        assert!(
            merged * 10 > landed * 9,
            "replica {i} merged {merged}/{landed}"
        );
        let high_water = host.delivery_queue_high_water;
        assert!(
            high_water <= POSTED_UNDER_LOAD + 1,
            "replica {i} queued {high_water}"
        );
        assert!(layers.members[0][i].applied > 0, "replica {i}");
    }
}

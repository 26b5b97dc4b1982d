//! Replicas poll their log and reap a write message, not a packet: the
//! host keeps at most one queued remote-write notification per watched
//! region and queues or widens it once per message, so a replica taking
//! 8 KiB values at line rate (9 packets each) pays one 210 ns reap per
//! value, keeps up with the leader, and its delivery queue stays short.

use netsim::SimDuration;
use p4ce_harness::{observe_point, Observe, PointConfig, System};
use replication::{MemberEvent, WorkloadSpec};

/// Packets of one 8 KiB log entry (8,192 B + 13 B of framing, 1,024 B
/// per packet).
const PACKETS_PER_ENTRY: u64 = 9;

#[test]
fn replica_delivery_queues_do_not_grow_with_landed_packets() {
    let mut cfg = PointConfig::new(System::P4ce, 4, WorkloadSpec::closed(16, 8192, 0));
    cfg.warmup = SimDuration::from_millis(1);
    cfg.window = SimDuration::from_millis(3);
    cfg.seed = 42;
    let observed = observe_point(&cfg, &Observe::Metrics);
    let (out, layers) = (observed.outcome, observed.layers.expect("asked for"));
    assert!(out.accelerated && out.decided > 0);
    for i in 1..=4 {
        let host = &layers.hosts[0][i];
        let landed = host.rx_zero_copy_deliveries;
        assert!(
            landed > 50_000,
            "replica {i}: {landed} packets is no overload"
        );
        // One notification, one reap, per message; the run may end in
        // the middle of one.
        let messages = host.rx_write_messages;
        assert!(
            (0..PACKETS_PER_ENTRY).contains(&(landed - messages * PACKETS_PER_ENTRY)),
            "replica {i}: {messages} messages in {landed} packets"
        );
        // What can queue behind the CPU is the replica's own posted work
        // (4 heartbeat reads per tick), its log notification and a CM
        // event or two — not the packets.
        let high_water = host.delivery_queue_high_water;
        assert!(high_water <= 16, "replica {i} queued {high_water}");
        assert!(layers.members[0][i].applied > 0, "replica {i}");
    }
}

/// About 50 laps of the 4 MiB ring at line rate: the replicas follow the
/// writer around it, the leader never waits for room, and the replicas'
/// heartbeats keep the failure detector quiet.
#[test]
fn replicas_keep_up_with_a_long_line_rate_run() {
    let mut cfg = PointConfig::new(System::P4ce, 4, WorkloadSpec::closed(16, 8192, 0));
    cfg.warmup = SimDuration::from_millis(1);
    cfg.window = SimDuration::from_millis(20);
    cfg.seed = 42;
    let observed = observe_point(&cfg, &Observe::Metrics);
    let (out, layers) = (observed.outcome, observed.layers.expect("asked for"));
    assert!(out.accelerated);
    let leader = &layers.members[0][0];
    let entry_bytes = 8192 + replication::log::ENTRY_OVERHEAD as u64;
    let laps = leader.decided * entry_bytes / replication::config::DEFAULT_LOG_SIZE as u64;
    assert!(laps >= 40, "{laps} laps of the ring");
    assert_eq!(leader.writer_stalls, 0, "the leader waited for room");
    let in_flight = leader.issued - leader.decided;
    let steady = (leader.event_time(|e| matches!(e, MemberEvent::GroupEstablished)))
        .expect("the leader accelerated");
    for (i, member) in layers.members[0].iter().enumerate() {
        if i > 0 {
            let lag = leader.decided.abs_diff(member.applied);
            assert!(
                lag <= in_flight + 32,
                "replica {i} applied {} of {} decided",
                member.applied,
                leader.decided
            );
        }
        let late_view =
            member.event_time_after(steady, |e| matches!(e, MemberEvent::ViewChange { .. }));
        assert_eq!(late_view, None, "member {i} changed views in steady state");
    }
}

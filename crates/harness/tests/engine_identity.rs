//! Engine identity: literal outcomes of three seed-42 runs, recorded on
//! the commit before the event engine was rebuilt (slab wheel,
//! direct-push `Context`). An engine change that reorders, drops or adds
//! a single event moves `events_processed`; one that perturbs a tie-break
//! or a fault-plan draw moves the decided count or a percentile. The
//! numbers are the proof — they are not to be re-recorded by a PR that
//! touches `netsim`. `events_processed` has been re-recorded three times,
//! each time by a change that moved events on purpose and with a test
//! below that derives the move from the run's own counters; no other
//! literal in this file has ever moved.

use netsim::SimDuration;
use p4ce_harness::{
    observe_point, run_failover, run_point, ChaosSpec, FailoverConfig, FailoverOutcome, Observe,
    PointConfig, PointOutcome, System,
};
use rdma::HostStats;
use replication::WorkloadSpec;
use tofino::SwitchStats;

fn quick_cfg(system: System) -> PointConfig {
    let mut cfg = PointConfig::new(system, 2, WorkloadSpec::closed(16, 64, 0));
    cfg.warmup = SimDuration::from_millis(1);
    cfg.window = SimDuration::from_millis(4);
    cfg.seed = 42;
    cfg
}

fn quick_point(system: System) -> PointOutcome {
    run_point(&quick_cfg(system))
}

/// Events the one-event pipeline pass no longer fires, from the run's own
/// counters: the walk it replaced woke the switch once per copy to charge
/// the egress parser (`TK_EGRESS`) and once per copy to deparse
/// (`TK_EMIT`); the pass charges the parser from the ingress and wakes the
/// deparser once per release instant. Nothing was tail-dropped in these
/// runs, so every copy that entered the egress came out of it.
fn fused_pass_saving(pipeline: &SwitchStats) -> u64 {
    assert_eq!(pipeline.parser_overflow_drops, 0);
    let copies_admitted = pipeline.forwarded + pipeline.dropped_egress;
    copies_admitted + (copies_admitted - pipeline.emit_events)
}

/// The first re-recording: when replicas began polling their log
/// (one coalesced notification per watched region), each `events_processed`
/// fell by exactly the `TK_DELIVER` timers no longer scheduled *and fired*
/// — one per write packet that merged into an already-queued notification
/// — and nothing else moved. Mu's run ends mid-burst: its last 8 merged
/// packets land within 180 ns of the 7 ms mark behind a busy CPU, so their
/// per-packet timers were due after the end and the old count never
/// included them. The stormy fail-over's drop, 153,023 − 152,895 = 128,
/// equals its merged count too (EXPERIMENTS E13). The counts have fallen
/// once more since ([`the_fused_pass_drop_is_exactly_its_egress_and_shared_emit_events`]);
/// that saving is added back before comparing.
#[test]
fn the_rerecorded_drop_is_exactly_the_merged_notifications() {
    for (system, before, due_after_end) in [(System::P4ce, 391_397, 0), (System::Mu, 241_018, 8)] {
        let observed = observe_point(&quick_cfg(system), &Observe::Metrics);
        let (out, layers) = (observed.outcome, observed.layers.expect("asked for"));
        let merged: u64 = (layers.hosts[0].iter())
            .map(|host| host.rx_notifications_merged)
            .sum();
        assert_eq!(
            before - (out.events_processed + fused_pass_saving(&layers.pipeline)),
            merged - due_after_end,
            "{system}"
        );
    }
}

/// The second re-recording: the switch went from three timers per copy
/// (`TK_INGRESS → TK_EGRESS → TK_EMIT`) to one event per pipeline pass.
/// Each `events_processed` fell by exactly `copies_admitted +
/// (copies_admitted − emit_events)` — the egress wake-ups, plus the
/// deparser wake-ups that same-instant copies of one pass now share — and
/// nothing else moved: `decided` and both percentiles are the literals
/// recorded before it (EXPERIMENTS E19). Mu's switch only forwards, so
/// its second term is zero.
#[test]
fn the_fused_pass_drop_is_exactly_its_egress_and_shared_emit_events() {
    for (system, before, shares) in [(System::P4ce, 372_853, true), (System::Mu, 230_814, false)] {
        let observed = observe_point(&quick_cfg(system), &Observe::Metrics);
        let (out, layers) = (observed.outcome, observed.layers.expect("asked for"));
        let pipeline = layers.pipeline;
        assert_eq!(
            before - out.events_processed,
            fused_pass_saving(&pipeline),
            "{system}"
        );
        assert_eq!(
            pipeline.emit_events < pipeline.forwarded,
            shares,
            "{system}"
        );
    }
}

#[test]
fn p4ce_point_matches_the_recorded_run() {
    let out = quick_point(System::P4ce);
    assert_eq!(out.events_processed, 312_140);
    assert_eq!(out.decided, 9_443);
    assert_eq!(out.p50_latency_us, 6.72);
    assert_eq!(out.p99_latency_us, 7.56);
    assert!(out.accelerated);
}

#[test]
fn mu_point_matches_the_recorded_run() {
    let out = quick_point(System::Mu);
    assert_eq!(out.events_processed, 202_444);
    assert_eq!(out.decided, 4_721);
    assert_eq!(out.p50_latency_us, 13.44);
    assert_eq!(out.p99_latency_us, 14.28);
}

/// A leader kill under a loss + duplication + reorder + jitter +
/// corruption storm: every frame on the group's links draws from the
/// simulation RNG, so this also pins the order of fault-plan draws.
fn stormy_failover() -> FailoverOutcome {
    run_failover(&FailoverConfig {
        seed: 42,
        observe_for: SimDuration::from_millis(80),
        sample: false,
        chaos: Some(ChaosSpec::seeded(42, 3)),
        ..FailoverConfig::default()
    })
}

/// The third re-recording: a replica reaps a write message, not a packet.
/// Only the stormy fail-over has multi-packet log writes (the successor
/// falls back to direct replication and catches the replicas up in 64 KiB
/// writes), and the same packets land as before (its trace is unchanged).
/// A notification is one event: before, every watched packet queued one
/// or merged into one (128 merged); now every message does. The less busy
/// replica CPU merges less, and `events_processed` rose by exactly the
/// notifications queued now minus those queued then: one.
#[test]
fn the_stormy_rise_is_exactly_the_extra_notifications() {
    let (before, merged_before) = (134_122, 128);
    let out = stormy_failover();
    let sum = |field: fn(&HostStats) -> u64| out.hosts[0].iter().map(field).sum::<u64>();
    let packets = sum(|h| h.rx_zero_copy_deliveries);
    let (messages, merged) = (
        sum(|h| h.rx_write_messages),
        sum(|h| h.rx_notifications_merged),
    );
    assert!(messages < packets, "the catch-up is multi-packet");
    assert_eq!(
        out.events_processed + (packets - merged_before),
        before + (messages - merged)
    );
}

#[test]
fn stormy_failover_matches_the_recorded_run() {
    let out = stormy_failover();
    assert_eq!(out.events_processed, 134_123);
    assert_eq!(out.group_decided, vec![1_926]);
    assert_eq!(out.budget.unavailability().as_nanos(), 42_463_806);
    assert!(out.budget.reconciles());
}

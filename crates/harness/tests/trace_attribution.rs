//! Satellite: end-to-end span attribution on a live 3-member P4CE
//! cluster. Every decided instance on the accelerated path must produce
//! a *complete* span chain (propose → wire_tx → scatter → quorum →
//! ack_rx → decide), and the per-stage durations must telescope exactly
//! to the end-to-end latency — the stages share boundary timestamps, so
//! there is no slack for unattributed time.

use netsim::{
    assemble_spans, breakdown, FaultPlan, PortId, Records, SimDuration, SimTime, TraceEvent,
    TraceHandle, STAGE_NAMES,
};
use p4ce_harness::runner::{PointConfig, System};
use p4ce_harness::{run_failover, run_point_traced, stage_table, ChaosSpec, FailoverConfig};
use replication::{ClusterBuilder, Deployment, Fabric, MemberEvent, WorkloadSpec};

/// Drives a 3-member cluster directly (no harness window logic) and
/// checks every accelerated-path decision has a fully attributed span.
#[test]
fn p4ce_spans_are_complete_and_telescope() {
    let handle = TraceHandle::new();
    let mut d = p4ce::ClusterBuilder::new(3)
        .workload(WorkloadSpec::closed(4, 64, 300))
        .tracer(handle.tracer("run"))
        .build();
    d.sim.run_until(SimTime::from_millis(50));

    assert!(d.leader().is_accelerated(), "leader should be accelerated");
    assert_eq!(d.leader().stats.decided, 300, "workload should complete");

    let records = handle.records();
    assert!(!records.is_empty(), "tracing was enabled; records expected");

    // Instances proposed before the switch group is established travel
    // the direct fallback path and legitimately lack switch-side span
    // stages; attribution is only claimed for the accelerated path.
    let t_accel = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::GroupEstablished))
        .map(|r| r.t)
        .expect("cluster accelerated, so a group_established record exists");

    let spans = assemble_spans(&records);
    let accelerated: Vec<_> = spans
        .iter()
        .filter(|s| s.decide.is_some() && s.propose >= t_accel)
        .collect();
    assert!(
        accelerated.len() >= 250,
        "most of the 300 decisions should ride the accelerated path, got {}",
        accelerated.len()
    );

    for span in &accelerated {
        assert!(
            span.is_complete(),
            "accelerated span v{}/{} missing a stage: {span:?}",
            span.view,
            span.seq
        );
        assert!(
            span.gather_acks >= 1,
            "switch gather saw no replica ACKs for v{}/{}",
            span.view,
            span.seq
        );
        let stages = span.stage_durations().expect("complete span has stages");
        let sum: u64 = stages.iter().map(|s| s.as_nanos()).sum();
        let e2e = span.end_to_end().expect("complete span has e2e");
        assert_eq!(
            sum,
            e2e.as_nanos(),
            "stages must telescope exactly for v{}/{}",
            span.view,
            span.seq
        );
    }

    let b = breakdown(&spans);
    assert!(b.reconciles(), "stage means must sum to the e2e mean");
}

/// The harness-level wrapper: one traced point yields a reconciling
/// breakdown, a renderable stage table, and layer-consistent metrics.
#[test]
fn traced_point_breakdown_and_metrics_are_consistent() {
    let mut cfg = PointConfig::new(System::P4ce, 2, WorkloadSpec::closed(4, 64, 0));
    cfg.window = netsim::SimDuration::from_millis(4);
    let traced = run_point_traced(&cfg);

    assert!(traced.outcome.accelerated, "P4CE point should accelerate");
    assert!(traced.outcome.decided > 0);
    assert!(traced.breakdown.complete > 0, "no complete spans assembled");
    assert!(traced.breakdown.reconciles());

    let table = stage_table("fig6-style breakdown", &traced.breakdown);
    for name in STAGE_NAMES {
        assert!(table.contains(name), "stage table missing {name}");
    }
    assert!(table.contains("end-to-end"));

    // Every layer's counters came back and agree with the outcome.
    let layers = traced
        .layers
        .as_ref()
        .expect("a traced point hands back its layers");
    assert!(layers.hosts[0][0].packets_sent > 0);
    assert!(layers.program.expect("P4CE runs the program").scattered > 0);
    assert!(
        layers.members[0][0].decided >= traced.outcome.decided,
        "member counter covers setup+warmup+window, so >= windowed decided"
    );
}

/// `Decide` records per member label.
fn decides_of(records: &Records, label: &str) -> u64 {
    (records.iter())
        .filter(|r| &*r.node == label && matches!(r.event, TraceEvent::Decide { .. }))
        .count() as u64
}

/// The counter pipe and the trace pipe tell one story, member by member:
/// `stats.decided` is the member's count of `Decide` records, and its
/// `MemberEvent::ViewChange` entries are its `ViewChange` records, instant
/// and view. The failover timeline (`m{i}.decided`, `view.max`) is read
/// off the trace on the strength of this.
fn assert_pipes_agree<F: Fabric>(d: &Deployment<F>, records: &Records) {
    for i in 0..d.members.len() {
        let label = format!("m{i}");
        let stats = &d.member(i).stats;
        assert_eq!(stats.events_dropped, 0, "{label}: the event list is whole");
        assert_eq!(
            stats.decided,
            decides_of(records, &label),
            "{label}: decided"
        );
        let counted: Vec<(SimTime, u64)> = (stats.events.iter())
            .filter_map(|(t, e)| match e {
                MemberEvent::ViewChange { view, .. } => Some((*t, *view)),
                _ => None,
            })
            .collect();
        let traced: Vec<(SimTime, u64)> = (records.iter())
            .filter(|r| *r.node == *label)
            .filter_map(|r| match r.event {
                TraceEvent::ViewChange { view, .. } => Some((r.t, view)),
                _ => None,
            })
            .collect();
        assert!(!traced.is_empty(), "{label}: every member enters view 1");
        assert_eq!(counted, traced, "{label}: view changes");
    }
}

fn traced_point<F: Fabric>(builder: ClusterBuilder<F>) {
    let handle = TraceHandle::new();
    let mut d = builder
        .workload(WorkloadSpec::closed(16, 64, 0))
        .tracer(handle.tracer("run"))
        .build();
    d.sim.run_until(SimTime::from_millis(60));
    assert!(d.leader().stats.decided > 1_000, "the point made progress");
    assert_pipes_agree(&d, &handle.records());
}

#[test]
fn counters_and_trace_agree_on_a_p4ce_point() {
    traced_point(p4ce::ClusterBuilder::new(3));
}

#[test]
fn counters_and_trace_agree_on_a_mu_point() {
    traced_point(mu::ClusterBuilder::new(3));
}

/// The same agreement across a leader kill under loss and jitter, where
/// the survivors change view and retransmit. The kill is driven here
/// because a failover outcome keeps no per-member stats; the pipes of the
/// stormy `run_failover` the timeline digests pin agree on its group total.
#[test]
fn counters_and_trace_agree_across_a_stormy_leader_kill() {
    let handle = TraceHandle::new();
    let mut d = p4ce::ClusterBuilder::new(3)
        .workload(WorkloadSpec::open_loop(50_000.0, 64, 0))
        .seed(7)
        .tracer(handle.tracer("run"))
        .build();
    d.sim.run_until(SimTime::from_millis(60));
    assert!(d.leader().is_accelerated());
    d.kill_member(0);
    // Loss and jitter on the survivors' uplinks for the first 8 ms.
    let storm = FaultPlan::new()
        .loss(0.02)
        .jitter(SimDuration::from_nanos(300));
    let uplink = PortId::from_index(0);
    for &m in &d.members[1..] {
        d.sim.set_fault_plan(m, uplink, storm.clone());
    }
    d.sim.run_until(SimTime::from_millis(68));
    for &m in &d.members[1..] {
        d.sim.clear_fault_plan(m, uplink);
    }
    d.sim.run_until(SimTime::from_millis(160));
    assert!(d.member(1).is_operational_leader(), "m1 took over");
    assert_pipes_agree(&d, &handle.records());

    let out = run_failover(&FailoverConfig {
        observe_for: SimDuration::from_millis(100),
        chaos: Some(ChaosSpec::seeded(7, 3)),
        ..FailoverConfig::default()
    });
    let traced = (0..3).map(|i| decides_of(&out.records, &format!("m{i}")));
    assert_eq!(out.group_decided, vec![traced.max().unwrap_or(0)]);
}

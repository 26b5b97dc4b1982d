//! The one shape the drivers work in: a deployment is a [`Simulation`]
//! plus groups of member nodes (`groups[group][member]`, member 0 the
//! steady-state leader). `replication::Deployment` (one group) and
//! `p4ce::ShardedDeployment` (several behind one switch) are
//! destructured into that shape where they are built; everything here
//! reaches a member through its node id and its comm type `C`, the way
//! [`crate::explore::oracle::probe_members`] does.

use bytes::Bytes;
use netsim::{MetricsRegistry, NodeId, SimDuration, SimTime, Simulation};
use rdma::Host;
use replication::{Comm, Member, MemberStats, StateMachine};

/// The member application running at `node`.
pub(crate) fn member<C: Comm>(sim: &Simulation, node: NodeId) -> &Member<C> {
    sim.node_ref::<Host<Member<C>>>(node).app()
}

/// Gives every member of every group its own state machine.
pub(crate) fn install<C: Comm, S: StateMachine + 'static>(
    sim: &mut Simulation,
    groups: &[Vec<NodeId>],
    make: impl Fn(usize) -> S,
) {
    for (g, group) in groups.iter().enumerate() {
        for &node in group {
            let host = sim.node_mut::<Host<Member<C>>>(node);
            host.app_mut().set_state_machine(Box::new(make(g)));
        }
    }
}

/// `true` when `group`'s steady-state leader is operational — and, if
/// `accelerated` is asked for, replicating through the switch.
pub(crate) fn leader_steady<C: Comm>(
    sim: &Simulation,
    group: &[NodeId],
    accelerated: bool,
) -> bool {
    let leader = member::<C>(sim, group[0]);
    leader.is_operational_leader() && (!accelerated || leader.is_accelerated())
}

/// Steps `sim` by `step` until `ready` holds. The instant it returns at
/// is part of every run's recorded bits, so each caller keeps its own
/// `within` and `step`.
///
/// # Panics
///
/// Panics, at the caller's location, if `ready` still does not hold
/// after `within` — a deployment bug, not a measurable outcome.
#[track_caller]
pub(crate) fn await_steady(
    sim: &mut Simulation,
    ready: impl Fn(&Simulation) -> bool,
    within: SimDuration,
    step: SimDuration,
) {
    let deadline = sim.now() + within;
    while !ready(sim) {
        assert!(sim.now() < deadline, "no steady state within {within}");
        sim.run_for(step);
    }
}

/// Proposes `payload` to whichever member of `group` claims operational
/// leadership: `None` without one, else whether the leader accepted.
pub(crate) fn propose_to_leader<C: Comm>(
    sim: &mut Simulation,
    group: &[NodeId],
    payload: Bytes,
) -> Option<bool> {
    let &leader = (group.iter()).find(|&&n| member::<C>(sim, n).is_operational_leader())?;
    Some(sim.with_node::<Host<Member<C>>, _>(leader, |host, ctx| {
        host.with_ops(ctx, |m, ops| m.propose_value(payload, ops))
    }))
}

/// Highest decided count across `group`'s members.
pub(crate) fn decided<C: Comm>(sim: &Simulation, group: &[NodeId]) -> u64 {
    (group.iter())
        .map(|&n| member::<C>(sim, n).stats.decided)
        .max()
        .unwrap_or(0)
}

/// What a leader's measurement window reads at `now`: the one projection
/// under every point outcome, single group or sharded.
pub(crate) struct Window {
    pub decided: u64,
    pub ops_per_sec: f64,
    pub goodput_bytes_per_sec: f64,
    pub mean_latency_us: f64,
    pub p50_latency_us: f64,
    pub p99_latency_us: f64,
}

pub(crate) fn window_of(stats: &mut MemberStats, now: SimTime) -> Window {
    Window {
        decided: stats.throughput.ops(),
        ops_per_sec: stats.throughput.ops_per_sec(now),
        goodput_bytes_per_sec: stats.throughput.goodput_bytes_per_sec(now),
        mean_latency_us: stats.latency.mean().as_micros_f64(),
        p50_latency_us: stats.latency.percentile(50.0).as_micros_f64(),
        p99_latency_us: stats.latency.percentile(99.0).as_micros_f64(),
    }
}

/// Snapshots every member's consensus layer and RDMA host into `reg` as
/// `member.{i}.*` / `host.{i}.*`, each name passed through `scope` with
/// its group's index.
pub(crate) fn register_layers<C: Comm>(
    sim: &Simulation,
    groups: &[Vec<NodeId>],
    scope: impl Fn(usize, String) -> String,
    reg: &mut MetricsRegistry,
) {
    for (g, group) in groups.iter().enumerate() {
        for (i, &node) in group.iter().enumerate() {
            let host = sim.node_ref::<Host<Member<C>>>(node);
            (host.app().stats).register_into(reg, &scope(g, format!("member.{i}")));
            (host.stats()).register_into(reg, &scope(g, format!("host.{i}")));
        }
    }
}

//! The one shape the drivers work in: a deployment is a [`Simulation`]
//! plus groups of member nodes (`groups[group][member]`, member 0 the
//! steady-state leader). `replication::Deployment` (one group) and
//! `p4ce::ShardedDeployment` (several behind one switch) are
//! destructured into that shape where they are built; everything here
//! reaches a member through its node id and its comm type `C`, the way
//! [`crate::explore::oracle::probe_members`] does.

use std::any::Any;

use bytes::Bytes;
use netsim::{NodeId, SimDuration, SimTime, Simulation};
use p4ce_switch::{GroupStats, P4ceProgram, P4ceSwitchStats};
use rdma::{Host, HostStats};
use replication::{Comm, Member, MemberStats, StateMachine};
use tofino::{Switch, SwitchProgram, SwitchStats};

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

/// What every layer counted over a run, in the structs the layers keep
/// it in, indexed `[group][member]` like the deployment's nodes.
#[derive(Debug)]
pub struct Layers {
    /// Each member's consensus-layer counters, decide latencies and events.
    pub members: Vec<Vec<MemberStats>>,
    /// Each member's RDMA host: packets, retransmissions, drops, deliveries.
    pub hosts: Vec<Vec<HostStats>>,
    /// The switch pipeline: forwarded, copied, dropped, emitted.
    pub pipeline: SwitchStats,
    /// The in-network program's counters; `None` behind Mu's forwarder.
    pub program: Option<P4ceSwitchStats>,
    /// Per group, the switch group its steady-state leader drives and that
    /// group's slice of the program's counters; `None` when the leader
    /// drives none (Mu, or a P4CE leader on the direct path).
    pub groups: Vec<Option<(u16, GroupStats)>>,
}

/// Moves every layer's counters out of a finished run: the members'
/// stats are taken, not copied, so read what a run still needs from them
/// first.
pub(crate) fn take_layers<C: Comm, P: SwitchProgram>(
    sim: &mut Simulation,
    groups: &[Vec<NodeId>],
    switch: NodeId,
) -> Layers {
    let fabric = sim.node_ref::<Switch<P>>(switch);
    let p4ce = (fabric.program() as &dyn Any).downcast_ref::<P4ceProgram>();
    let slices = (groups.iter())
        .map(|group| {
            let leader = sim.node_ref::<Host<Member<C>>>(group[0]).ip();
            let gid = p4ce?.gid_of_leader(leader)?;
            Some((gid, p4ce?.group_stats(gid)?))
        })
        .collect();
    let (pipeline, program) = (fabric.stats(), p4ce.map(|p| p.stats));
    let (hosts, members) = (groups.iter())
        .map(|group| {
            (group.iter())
                .map(|&n| {
                    let host = sim.node_mut::<Host<Member<C>>>(n);
                    (host.stats(), std::mem::take(&mut host.app_mut().stats))
                })
                .unzip()
        })
        .unzip();
    Layers {
        members,
        hosts,
        pipeline,
        program,
        groups: slices,
    }
}

//! Multi-group (sharded) deployments: several independent consensus
//! groups multiplexed through **one** P4CE-programmed switch pipeline.
//!
//! Each group is a full P4CE cluster — its own [`ClusterConfig`], its
//! own leader, its own replicated log — but every member hangs off the
//! same switch, so the switch's per-group tables (scatter templates,
//! NumRecv/credit registers, leader port) are what keep the shards
//! apart. Group `g`'s members live in their own subnet,
//! `10.0.(1+g).(1+i)`, and trace as `g{g}m{i}`.

use netsim::{LinkSpec, NodeId, SimDuration, Simulation, Tracer};
use p4ce_switch::{P4ceProgram, P4ceSwitchConfig};
use rdma::Host;
use replication::deploy::Assembly;
use replication::{ClusterConfig, WorkloadSpec};
use std::net::Ipv4Addr;
use tofino::Switch;

use crate::builder::{ClusterBuilder, SwitchSetters};
use crate::member::P4ceMember;

/// Builds `groups` independent consensus groups behind one switch.
///
/// ```
/// use p4ce::ShardedClusterBuilder;
/// use netsim::SimTime;
///
/// let mut d = ShardedClusterBuilder::new(2, 3).build();
/// d.sim.run_until(SimTime::from_millis(100));
/// assert!(d.leader(0).is_accelerated());
/// assert!(d.leader(1).is_accelerated());
/// ```
#[derive(Debug, Clone)]
pub struct ShardedClusterBuilder {
    groups: usize,
    members_per_group: usize,
    /// Everything but the group count is the single-group builder's.
    each: ClusterBuilder,
}

impl ShardedClusterBuilder {
    /// `groups` clusters of `members_per_group` members each.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0`, `members_per_group < 2`, or the subnet
    /// scheme overflows (more than 253 groups or members per group).
    pub fn new(groups: usize, members_per_group: usize) -> Self {
        assert!(groups >= 1, "need at least one group");
        assert!(members_per_group >= 2, "a group needs at least two members");
        assert!(groups <= 253 && members_per_group <= 253, "subnet overflow");
        ShardedClusterBuilder {
            groups,
            members_per_group,
            each: ClusterBuilder::new(members_per_group),
        }
    }

    /// Sets a leader-driven workload on every group's leader. Leave
    /// unset for client-driven runs (the sharded KV service proposes
    /// from outside).
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.each = self.each.workload(spec);
        self
    }

    /// Overrides the switch program configuration (shared by all
    /// groups — that is the point).
    pub fn switch_config(mut self, cfg: P4ceSwitchConfig) -> Self {
        self.each = self.each.switch_config(cfg);
        self
    }

    /// Overrides the link characteristics.
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.each = self.each.link(link);
        self
    }

    /// Sets the deterministic simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.each = self.each.seed(seed);
        self
    }

    /// Overrides every member's replicated-log size.
    pub fn log_size(mut self, bytes: usize) -> Self {
        self.each = self.each.log_size(bytes);
        self
    }

    /// Overrides the switch-probe / re-acceleration period.
    pub fn reaccel_period(mut self, period: SimDuration) -> Self {
        self.each = self.each.reaccel_period(period);
        self
    }

    /// Attaches a trace sink; members emit as `g{g}m{i}`, the switch as
    /// `switch`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.each = self.each.tracer(tracer);
        self
    }

    /// Overrides the switch's per-parser packet cost.
    pub fn parser_cost(mut self, cost: SimDuration) -> Self {
        self.each = self.each.parser_cost(cost);
        self
    }

    /// Pools the switch's ports onto `k` shared parser slices per
    /// direction (see [`SwitchConfig::parser_slices`]) — the contention
    /// model the groups-sweep experiment drives into its knee.
    pub fn parser_slices(mut self, k: usize) -> Self {
        self.each.fabric.parser_slices = Some(k);
        self
    }

    /// The IP of member `i` of group `g` under the sharded subnet
    /// scheme.
    pub fn member_ip(g: usize, i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 1 + g as u8, 1 + i as u8)
    }

    /// Assembles the simulation.
    pub fn build(self) -> ShardedDeployment {
        let groups: Vec<Vec<Ipv4Addr>> = (0..self.groups)
            .map(|g| {
                (0..self.members_per_group)
                    .map(|i| Self::member_ip(g, i))
                    .collect()
            })
            .collect();
        let Assembly {
            sim,
            clusters,
            members,
            switch,
            ..
        } = self.each.assemble(&groups, |g, i| format!("g{g}m{i}"));
        ShardedDeployment {
            sim,
            clusters,
            members,
            switch,
        }
    }
}

/// A built multi-group deployment: `members[g][i]` is member `i` of
/// group `g`; all groups share `switch`.
pub struct ShardedDeployment {
    /// The simulation to drive.
    pub sim: Simulation,
    /// Per-group cluster descriptions.
    pub clusters: Vec<ClusterConfig>,
    /// Member node ids, `members[group][member]`.
    pub members: Vec<Vec<NodeId>>,
    /// The shared P4CE switch node id.
    pub switch: NodeId,
}

impl ShardedDeployment {
    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.members.len()
    }

    /// The member application of member `i` of group `g`.
    pub fn member(&self, g: usize, i: usize) -> &P4ceMember {
        self.sim
            .node_ref::<Host<P4ceMember>>(self.members[g][i])
            .app()
    }

    /// Mutable access to member `i` of group `g`.
    pub fn member_mut(&mut self, g: usize, i: usize) -> &mut P4ceMember {
        self.sim
            .node_mut::<Host<P4ceMember>>(self.members[g][i])
            .app_mut()
    }

    /// Runs a closure against member `i` of group `g` with live host
    /// operations (client proposals, group rebuilds, …).
    pub fn with_member<R>(
        &mut self,
        g: usize,
        i: usize,
        f: impl FnOnce(&mut P4ceMember, &mut rdma::HostOps<'_, '_>) -> R,
    ) -> R {
        let node = self.members[g][i];
        self.sim
            .with_node::<Host<P4ceMember>, _>(node, |host, ctx| host.with_ops(ctx, f))
    }

    /// Group `g`'s steady-state leader (its member 0).
    pub fn leader(&self, g: usize) -> &P4ceMember {
        self.member(g, 0)
    }

    /// The shared P4CE switch program, for per-group stats.
    pub fn switch_program(&self) -> &P4ceProgram {
        self.sim
            .node_ref::<Switch<P4ceProgram>>(self.switch)
            .program()
    }

    /// Crashes member `i` of group `g` (process + NIC power-off).
    pub fn kill_member(&mut self, g: usize, i: usize) {
        let node = self.members[g][i];
        self.sim.set_node_down(node, true);
    }
}

impl std::fmt::Debug for ShardedDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDeployment")
            .field("groups", &self.members.len())
            .field(
                "members_per_group",
                &self.members.first().map_or(0, Vec::len),
            )
            .finish()
    }
}

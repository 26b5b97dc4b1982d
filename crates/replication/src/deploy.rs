//! One-call construction of a deployment: members behind a switch
//! fabric, with an optional backup fabric — defined once for every
//! communication module. A [`Fabric`] says which comm the members run
//! and what the switch is programmed with; `mu` and `p4ce` each supply
//! one and name the resulting [`ClusterBuilder`] / [`Deployment`].

use netsim::{LinkSpec, NodeId, SimDuration, Simulation, Tracer};
use rdma::{Host, HostConfig, HostOps};
use std::fmt;
use std::marker::PhantomData;
use std::net::Ipv4Addr;
use tofino::{L3Forwarder, Switch, SwitchConfig, SwitchProgram};

use crate::{ClusterConfig, Comm, Member, MemberConfig, WorkloadSpec};

/// What the members of a deployment hang off, and the comm that goes
/// with it.
pub trait Fabric: Clone + fmt::Debug + Default + 'static {
    /// The communication module every member runs.
    type Comm: Comm;
    /// The program the switch runs.
    type Program: SwitchProgram;

    /// The comm of one member behind the switch at `switch_ip`.
    fn comm(&self, switch_ip: Ipv4Addr) -> Self::Comm;

    /// The switch's program; may also adjust its hardware model and
    /// attach the deployment's trace sink to it.
    fn program(&self, hw: &mut SwitchConfig, tracer: &Tracer) -> Self::Program;
}

/// Per-host settings of a deployment, shared by every builder shape.
#[derive(Debug, Clone, Default)]
pub struct HostPlan {
    /// The leader-driven workload.
    pub workload: Option<WorkloadSpec>,
    /// Whether hosts get a second port towards a backup fabric.
    pub backup_fabric: bool,
    /// CPU cost per verb interaction (post/reap).
    pub verb_cost: Option<SimDuration>,
    /// `(member, NIC per-packet receive cost)` overrides.
    pub rx_cost: Vec<(usize, SimDuration)>,
    /// See [`MemberConfig::skip_epoch_revoke`].
    pub skip_epoch_revoke: bool,
    /// Trace sink; each host labels its records.
    pub tracer: Tracer,
}

/// Adds one host per member of `cluster` to `sim`, in member-id order.
/// Host `i` traces as `label(i)` and runs a [`Member`] over `comm()`.
pub fn add_members<C: Comm>(
    sim: &mut Simulation,
    plan: &HostPlan,
    cluster: &ClusterConfig,
    label: impl Fn(usize) -> String,
    comm: impl Fn() -> C,
) -> Vec<NodeId> {
    let mut members = Vec::with_capacity(cluster.n());
    for (i, &(id, ip)) in cluster.members.iter().enumerate() {
        let mut mcfg = MemberConfig::new(cluster.clone(), id);
        mcfg.workload = plan.workload;
        mcfg.skip_epoch_revoke = plan.skip_epoch_revoke;
        if plan.backup_fabric {
            // Ports follow connection order: the primary fabric is
            // connected first (port 0), the backup second (port 1).
            mcfg.backup_port = Some(netsim::PortId::from_index(1));
        }
        let mut hcfg = HostConfig::new(ip);
        hcfg.tracer = plan.tracer.labeled(&label(i));
        if let Some(cost) = plan.verb_cost {
            hcfg.post_cost = cost;
            hcfg.reap_cost = cost;
        }
        if let Some(&(_, cost)) = plan.rx_cost.iter().find(|&&(m, _)| m == i) {
            hcfg.nic_rx_cost = cost;
        }
        members.push(sim.add_node(Box::new(Host::new(hcfg, Member::new(mcfg, comm())))));
    }
    members
}

/// Links every member of `cluster` to `switch` and routes its address
/// there.
pub fn connect_members<P: SwitchProgram>(
    sim: &mut Simulation,
    cluster: &ClusterConfig,
    members: &[NodeId],
    switch: NodeId,
    link: LinkSpec,
) {
    for (&(_, ip), &m) in cluster.members.iter().zip(members) {
        let (_, swp) = sim.connect(m, switch, link);
        sim.node_mut::<Switch<P>>(switch).add_route(ip, swp);
    }
}

/// Builds a ready-to-run cluster inside a [`Simulation`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder<F> {
    n_members: usize,
    link: LinkSpec,
    seed: u64,
    log_size: Option<usize>,
    hosts: HostPlan,
    /// Fabric-specific settings; the fabric's crate offers named setters.
    pub fabric: F,
}

impl<F: Fabric> ClusterBuilder<F> {
    /// A cluster of `n_members` (1 leader + n-1 replicas at steady state).
    ///
    /// # Panics
    ///
    /// Panics if `n_members < 2`.
    pub fn new(n_members: usize) -> Self {
        assert!(n_members >= 2, "a cluster needs at least two members");
        ClusterBuilder {
            n_members,
            link: LinkSpec::default(),
            seed: 42,
            log_size: None,
            hosts: HostPlan::default(),
            fabric: F::default(),
        }
    }

    /// Sets the leader-driven workload.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.hosts.workload = Some(spec);
        self
    }

    /// Overrides the link characteristics.
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Adds a second, plain-L3 fabric every host is also connected to
    /// (needed for the switch-crash fail-over experiment).
    pub fn backup_fabric(mut self, enable: bool) -> Self {
        self.hosts.backup_fabric = enable;
        self
    }

    /// Sets the deterministic simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides each member's replicated-log size (default 16 MiB).
    /// Model-checking runs shrink it so thousands of re-executions stay
    /// cheap.
    pub fn log_size(mut self, bytes: usize) -> Self {
        self.log_size = Some(bytes);
        self
    }

    /// **Test-only mutation**: disable old-epoch grant revocation (see
    /// [`MemberConfig::skip_epoch_revoke`]). Used by the explorer to
    /// prove its single-writer oracle catches the bug.
    pub fn skip_epoch_revoke(mut self, enable: bool) -> Self {
        self.hosts.skip_epoch_revoke = enable;
        self
    }

    /// Attaches a trace sink. Each member's host (and application) emits
    /// records labelled `m0`, `m1`, … Disabled by default — the hot paths
    /// then pay a single branch per potential event.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.hosts.tracer = tracer;
        self
    }

    /// Overrides every host's CPU cost per verb interaction (post/reap) —
    /// the calibration knob behind the paper's CPU-bound rates.
    pub fn verb_cost(mut self, cost: SimDuration) -> Self {
        self.hosts.verb_cost = Some(cost);
        self
    }

    /// Slows member `i`'s NIC receive engine (per-packet processing
    /// cost) — a straggling replica.
    pub fn member_rx_cost(mut self, member: usize, cost: SimDuration) -> Self {
        self.hosts.rx_cost.push((member, cost));
        self
    }

    /// Assembles the simulation.
    pub fn build(self) -> Deployment<F> {
        let switch_ip = Ipv4Addr::new(10, 0, 0, 100);
        let ips: Vec<Ipv4Addr> = (0..self.n_members)
            .map(|i| Ipv4Addr::new(10, 0, 0, 1 + i as u8))
            .collect();
        let mut cluster = ClusterConfig::new(&ips);
        if let Some(bytes) = self.log_size {
            cluster.log_size = bytes;
        }
        let mut sim = Simulation::new(self.seed);

        let members = add_members(
            &mut sim,
            &self.hosts,
            &cluster,
            |i| format!("m{i}"),
            || self.fabric.comm(switch_ip),
        );

        let mut hw = SwitchConfig::tofino1(switch_ip);
        let program = self.fabric.program(&mut hw, &self.hosts.tracer);
        let switch = sim.add_node(Box::new(Switch::new(hw, self.n_members, program)));
        connect_members::<F::Program>(&mut sim, &cluster, &members, switch, self.link);

        let backup = self.hosts.backup_fabric.then(|| {
            let hw = SwitchConfig::tofino1(Ipv4Addr::new(10, 0, 0, 101));
            let b = sim.add_node(Box::new(Switch::new(hw, self.n_members, L3Forwarder)));
            connect_members::<L3Forwarder>(&mut sim, &cluster, &members, b, self.link);
            b
        });

        Deployment {
            sim,
            cluster,
            members,
            switch,
            backup,
            fabric: PhantomData,
        }
    }
}

/// A built deployment.
pub struct Deployment<F> {
    /// The simulation to drive.
    pub sim: Simulation,
    /// The cluster description.
    pub cluster: ClusterConfig,
    /// Member node ids, in member-id order.
    pub members: Vec<NodeId>,
    /// The fabric switch node id.
    pub switch: NodeId,
    /// The backup fabric node id, if built.
    pub backup: Option<NodeId>,
    fabric: PhantomData<fn() -> F>,
}

impl<F: Fabric> Deployment<F> {
    /// The member application of member `i`.
    pub fn member(&self, i: usize) -> &Member<F::Comm> {
        self.sim
            .node_ref::<Host<Member<F::Comm>>>(self.members[i])
            .app()
    }

    /// Mutable access to member `i` (e.g. to reset measurement windows).
    pub fn member_mut(&mut self, i: usize) -> &mut Member<F::Comm> {
        self.sim
            .node_mut::<Host<Member<F::Comm>>>(self.members[i])
            .app_mut()
    }

    /// Runs a closure against member `i` with live host operations — the
    /// way external code injects actions (e.g. proposing client values)
    /// into a running member.
    pub fn with_member<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut Member<F::Comm>, &mut HostOps<'_, '_>) -> R,
    ) -> R {
        let node = self.members[i];
        self.sim
            .with_node::<Host<Member<F::Comm>>, _>(node, |host, ctx| host.with_ops(ctx, f))
    }

    /// The steady-state leader (member 0).
    pub fn leader(&self) -> &Member<F::Comm> {
        self.member(0)
    }

    /// The fabric switch's program, for stats.
    pub fn switch_program(&self) -> &F::Program {
        self.sim
            .node_ref::<Switch<F::Program>>(self.switch)
            .program()
    }

    /// Crashes member `i` (process + NIC power-off).
    pub fn kill_member(&mut self, i: usize) {
        let node = self.members[i];
        self.sim.set_node_down(node, true);
    }

    /// Powers the fabric switch off.
    pub fn kill_switch(&mut self) {
        let node = self.switch;
        self.sim.set_node_down(node, true);
    }
}

impl<F> fmt::Debug for Deployment<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("members", &self.members.len())
            .field("backup", &self.backup.is_some())
            .finish()
    }
}

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

/// Adds a switch running `program` with one port per member, links every
/// member of every group to it and routes the member's address there.
fn add_switch<P: SwitchProgram>(
    sim: &mut Simulation,
    clusters: &[ClusterConfig],
    members: &[Vec<NodeId>],
    hw: SwitchConfig,
    program: P,
    link: LinkSpec,
) -> NodeId {
    let ports = members.iter().map(Vec::len).sum();
    let switch = sim.add_node(Box::new(Switch::new(hw, ports, program)));
    for (cluster, nodes) in clusters.iter().zip(members) {
        for (&(_, ip), &m) in cluster.members.iter().zip(nodes) {
            let (_, swp) = sim.connect(m, switch, link);
            sim.node_mut::<Switch<P>>(switch).add_route(ip, swp);
        }
    }
    switch
}

/// What [`ClusterBuilder::assemble`] builds — the one shape under every
/// deployment type: a simulation, groups of member nodes and the switch
/// they all hang off.
pub struct Assembly {
    /// The simulation to drive.
    pub sim: Simulation,
    /// Per-group cluster descriptions.
    pub clusters: Vec<ClusterConfig>,
    /// Member node ids, `members[group][member]`.
    pub members: Vec<Vec<NodeId>>,
    /// The fabric switch node id.
    pub switch: NodeId,
    /// The backup fabric node id, if built.
    pub backup: Option<NodeId>,
}

/// Builds a ready-to-run cluster inside a [`Simulation`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder<F> {
    n_members: usize,
    link: LinkSpec,
    seed: u64,
    log_size: Option<usize>,
    workload: Option<WorkloadSpec>,
    backup_fabric: bool,
    verb_cost: Option<SimDuration>,
    /// `(member, NIC per-packet receive cost)` overrides.
    rx_cost: Vec<(usize, SimDuration)>,
    tracer: Tracer,
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
            workload: None,
            backup_fabric: false,
            verb_cost: None,
            rx_cost: Vec::new(),
            tracer: Tracer::disabled(),
            fabric: F::default(),
        }
    }

    /// Sets the leader-driven workload.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
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
        self.backup_fabric = enable;
        self
    }

    /// Sets the deterministic simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides each member's replicated-log size (default
    /// [`DEFAULT_LOG_SIZE`](crate::config::DEFAULT_LOG_SIZE)).
    /// Model-checking runs shrink it so thousands of re-executions stay
    /// cheap.
    pub fn log_size(mut self, bytes: usize) -> Self {
        self.log_size = Some(bytes);
        self
    }

    /// Attaches a trace sink. Each member's host (and application) emits
    /// records labelled `m0`, `m1`, … Disabled by default — the hot paths
    /// then pay a single branch per potential event.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Overrides every host's CPU cost per verb interaction (post/reap) —
    /// the calibration knob behind the paper's CPU-bound rates.
    pub fn verb_cost(mut self, cost: SimDuration) -> Self {
        self.verb_cost = Some(cost);
        self
    }

    /// Slows member `i`'s NIC receive engine (per-packet processing
    /// cost) — a straggling replica.
    pub fn member_rx_cost(mut self, member: usize, cost: SimDuration) -> Self {
        self.rx_cost.push((member, cost));
        self
    }

    /// The one assembly: a consensus group per entry of `groups` (its
    /// members' addresses, in member-id order), every member behind one
    /// switch programmed by the fabric — and behind a second, plain-L3
    /// one if a backup fabric was asked for. Member `i` of group `g`
    /// traces as `label(g, i)`. Nodes are added group by group in
    /// member-id order, then the switch, then the backup.
    pub fn assemble(
        &self,
        groups: &[Vec<Ipv4Addr>],
        label: impl Fn(usize, usize) -> String,
    ) -> Assembly {
        let switch_ip = Ipv4Addr::new(10, 0, 0, 100);
        let mut sim = Simulation::new(self.seed);
        let mut clusters = Vec::with_capacity(groups.len());
        let mut members = Vec::with_capacity(groups.len());
        for (g, ips) in groups.iter().enumerate() {
            let mut cluster = ClusterConfig::new(ips);
            if let Some(bytes) = self.log_size {
                cluster.log_size = bytes;
            }
            let mut nodes = Vec::with_capacity(cluster.n());
            for (i, &(id, ip)) in cluster.members.iter().enumerate() {
                let mut mcfg = MemberConfig::new(cluster.clone(), id);
                mcfg.workload = self.workload;
                if self.backup_fabric {
                    // Ports follow connection order: the primary fabric is
                    // connected first (port 0), the backup second (port 1).
                    mcfg.backup_port = Some(netsim::PortId::from_index(1));
                }
                let mut hcfg = HostConfig::new(ip);
                hcfg.tracer = self.tracer.labeled(&label(g, i));
                if let Some(cost) = self.verb_cost {
                    hcfg.post_cost = cost;
                    hcfg.reap_cost = cost;
                }
                if let Some(&(_, cost)) = self.rx_cost.iter().find(|&&(m, _)| m == i) {
                    hcfg.nic_rx_cost = cost;
                }
                let member = Member::new(mcfg, self.fabric.comm(switch_ip));
                nodes.push(sim.add_node(Box::new(Host::new(hcfg, member))));
            }
            members.push(nodes);
            clusters.push(cluster);
        }
        let mut hw = SwitchConfig::tofino1(switch_ip);
        let program = self.fabric.program(&mut hw, &self.tracer);
        let switch = add_switch(&mut sim, &clusters, &members, hw, program, self.link);
        let backup = self.backup_fabric.then(|| {
            let hw = SwitchConfig::tofino1(Ipv4Addr::new(10, 0, 0, 101));
            add_switch(&mut sim, &clusters, &members, hw, L3Forwarder, self.link)
        });
        Assembly {
            sim,
            clusters,
            members,
            switch,
            backup,
        }
    }

    /// Assembles the simulation.
    pub fn build(self) -> Deployment<F> {
        let ips = (0..self.n_members)
            .map(|i| Ipv4Addr::new(10, 0, 0, 1 + i as u8))
            .collect();
        let Assembly {
            sim,
            mut clusters,
            mut members,
            switch,
            backup,
        } = self.assemble(&[ips], |_, i| format!("m{i}"));
        Deployment {
            sim,
            cluster: clusters.pop().expect("one group"),
            members: members.pop().expect("one group"),
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

//! The benchmark's whole coupling to the system under test.
//!
//! Every library symbol the benchmark calls is imported here and
//! nowhere else; the other modules only say `use crate::sut::…`. A
//! refactor of the library (ROADMAP items 2 and 3) therefore knows
//! exactly which entry points must survive — or be re-pointed here by a
//! follow-up benchmark change. `benchmark/README.md` lists them.
//!
//! Besides the re-exports, this file holds the one adapter the
//! benchmark needs: [`Cluster`], which gives the Mu and the P4CE
//! deployment (two types without a common trait in the library) one
//! read-only surface for the point driver.

pub use bytes::Bytes;

pub use netsim::trace::json;
pub use netsim::{
    Bandwidth, Context, EventClass, FaultPlan, Frame, LatencyRecorder, LinkSpec, LinkStats, Node,
    NodeId, PortId, SimDuration, SimTime, Simulation, TimingWheel, TraceEvent, TraceHandle,
};

pub use rdma::wire::{crc32, Bth, PacketTemplate, Reth, RewriteSet, RocePacket};
pub use rdma::{
    Host, HostMemory, HostStats, MacAddr, Opcode, PeerInfo, Permissions, Psn, Qpn, QueuePair, RKey,
    WorkRequest, WrId,
};

pub use tofino::{L3Forwarder, MatchTable, RegisterArray, Switch, SwitchConfig, SwitchStats};

pub use p4ce_switch::{P4ceProgram, P4ceSwitchStats};

pub use replication::log::ENTRY_OVERHEAD as LOG_ENTRY_OVERHEAD;
pub use replication::{FailureDetector, LogReader, LogWriter, MemberId, ViewTracker, WorkloadSpec};

pub use mu::{MemberEvent, MemberStats, MuMember};
pub use p4ce::{P4ceMember, ShardedClusterBuilder, ShardedDeployment};

pub use p4ce_harness::shard::store_of;
pub use p4ce_harness::{
    run_failover, run_point, run_point_traced, run_sharded_point, ChaosSpec, FailoverBudget,
    FailoverConfig, HashRing, PointConfig, PointOutcome, ShardGroupOutcome, ShardKvCommand,
    ShardKvStore, ShardedOutcome, ShardedPointConfig, System, ZipfSampler,
};

/// One read-only surface over `mu::Deployment` and `p4ce::Deployment`.
///
/// Node ids follow both builders' layout: `members()[0]` is the
/// steady-state leader, the rest are replicas, `switch()` is the fabric.
pub trait Cluster {
    fn sim(&mut self) -> &mut Simulation;
    fn sim_ref(&self) -> &Simulation;
    fn members(&self) -> &[NodeId];
    fn switch(&self) -> NodeId;
    /// Leader elected and able to decide (the library runners' own
    /// readiness test).
    fn leader_operational(&self) -> bool;
    /// `true` if the leader replicates through the switch program.
    fn accelerated(&self) -> bool;
    fn stats(&self, member: usize) -> &MemberStats;
    fn stats_mut(&mut self, member: usize) -> &mut MemberStats;
    fn reset_measurements(&mut self, member: usize, now: SimTime);
    fn host_stats(&self, member: usize) -> HostStats;
    /// The member's replicated-log region, byte for byte.
    fn log_bytes(&self, member: usize) -> &[u8];
    fn switch_stats(&self) -> SwitchStats;
    /// The in-network program's counters; `None` behind a plain fabric.
    fn program_stats(&self) -> Option<P4ceSwitchStats>;
}

macro_rules! impl_cluster {
    ($deployment:ty, $member:ty, $program:ty, $accelerated:expr, $program_stats:expr) => {
        impl Cluster for $deployment {
            fn sim(&mut self) -> &mut Simulation {
                &mut self.sim
            }
            fn sim_ref(&self) -> &Simulation {
                &self.sim
            }
            fn members(&self) -> &[NodeId] {
                &self.members
            }
            fn switch(&self) -> NodeId {
                self.switch
            }
            fn leader_operational(&self) -> bool {
                self.leader().is_operational_leader()
            }
            fn accelerated(&self) -> bool {
                $accelerated(self)
            }
            fn stats(&self, member: usize) -> &MemberStats {
                &self.member(member).stats
            }
            fn stats_mut(&mut self, member: usize) -> &mut MemberStats {
                &mut self.member_mut(member).stats
            }
            fn reset_measurements(&mut self, member: usize, now: SimTime) {
                self.member_mut(member).reset_measurements(now);
            }
            fn host_stats(&self, member: usize) -> HostStats {
                self.sim
                    .node_ref::<Host<$member>>(self.members[member])
                    .stats()
            }
            fn log_bytes(&self, member: usize) -> &[u8] {
                let host = self.sim.node_ref::<Host<$member>>(self.members[member]);
                let region = host.app().log_region().expect("log region registered");
                let mem = host.memory();
                mem.read_local(region, 0, mem.info(region).len as usize)
            }
            fn switch_stats(&self) -> SwitchStats {
                self.sim.node_ref::<Switch<$program>>(self.switch).stats()
            }
            fn program_stats(&self) -> Option<P4ceSwitchStats> {
                $program_stats(self)
            }
        }
    };
}

impl_cluster!(
    mu::Deployment,
    MuMember,
    L3Forwarder,
    |_: &mu::Deployment| false,
    |_: &mu::Deployment| None
);
impl_cluster!(
    p4ce::Deployment,
    P4ceMember,
    P4ceProgram,
    |d: &p4ce::Deployment| d.leader().is_accelerated(),
    |d: &p4ce::Deployment| Some(d.switch_program().stats)
);

/// Builds the cluster a point runs on, exactly as the library runners
/// do, plus the per-seed link the benchmark's inputs carry.
pub fn build_point_cluster(
    system: System,
    members: usize,
    workload: WorkloadSpec,
    seed: u64,
    link: LinkSpec,
) -> Box<dyn Cluster> {
    match system {
        System::Mu => Box::new(
            mu::ClusterBuilder::new(members)
                .workload(workload)
                .seed(seed)
                .link(link)
                .build(),
        ),
        System::P4ce => Box::new(
            p4ce::ClusterBuilder::new(members)
                .workload(workload)
                .seed(seed)
                .link(link)
                .build(),
        ),
    }
}

/// Builds the single P4CE cluster a leader kill runs on, as
/// `run_failover` does: trace sink attached (the failover budget reads
/// the last decide before the kill out of it), plus the per-seed link.
pub fn build_traced_p4ce(
    members: usize,
    workload: WorkloadSpec,
    seed: u64,
    link: LinkSpec,
    trace: &TraceHandle,
) -> p4ce::Deployment {
    p4ce::ClusterBuilder::new(members)
        .workload(workload)
        .seed(seed)
        .link(link)
        .tracer(trace.tracer("harness"))
        .build()
}

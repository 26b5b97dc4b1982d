//! # p4ce — consensus over RDMA at line speed
//!
//! A reproduction of **"P4CE: Consensus over RDMA at Line Speed"**
//! (Dulong et al., ICDCS 2024). P4CE decouples the *decision* part of
//! consensus (Mu's leader election, view change and single-writer logs —
//! `replication::Member`, shared verbatim with the `mu` crate) from the
//! *communication* part ([`SwitchComm`]), which it runs inside a
//! programmable switch (the `p4ce-switch` program on the `tofino`
//! pipeline model):
//!
//! * the leader opens **one** RDMA connection *to the switch*;
//! * each consensus is **one** write request and **one** acknowledgement
//!   on every link — the switch scatters the write to all replicas and
//!   gathers their ACKs, forwarding only the `f`-th;
//! * consensus therefore completes in a single round trip (minimal
//!   latency) at full link utilization (maximal throughput), regardless
//!   of the replica count.
//!
//! On a NAK or a transport timeout the leader transparently falls back to
//! direct Mu-style replication and periodically re-probes for an
//! accelerated path (§III-A of the paper).
//!
//! ## Quick start
//!
//! ```
//! use p4ce::ClusterBuilder;
//! use replication::WorkloadSpec;
//! use netsim::SimTime;
//!
//! // 1 leader + 2 replicas behind a P4CE-programmed switch, running a
//! // closed-loop workload of 64-byte values.
//! let mut deployment = p4ce::ClusterBuilder::new(3)
//!     .workload(WorkloadSpec::closed(8, 64, 500))
//!     .build();
//! deployment.sim.run_until(SimTime::from_millis(100));
//!
//! let leader = deployment.leader();
//! assert!(leader.is_accelerated(), "replication runs in-network");
//! assert_eq!(leader.stats.decided, 500);
//! # let _ = ClusterBuilder::new(2);
//! ```
//!
//! This simulation-backed build substitutes deterministic models for the
//! paper's ConnectX-5 NICs, 100 GbE links and Tofino ASIC; see DESIGN.md
//! at the workspace root for the substitution table and calibration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod member;
mod shard;

pub use builder::{ClusterBuilder, Deployment, P4ceFabric, SwitchSetters};
pub use member::{P4ceMember, SwitchComm, SwitchCommConfig};
pub use replication::{MemberEvent, MemberStats};
pub use shard::{ShardedClusterBuilder, ShardedDeployment};

// Re-export the pieces users need to drive a deployment.
pub use netsim;
pub use p4ce_switch::{AckDropStage, CreditMode, P4ceProgram, P4ceSwitchConfig};
pub use replication::{
    ClusterConfig, LogEntry, MemberId, StateMachine, WorkloadMode, WorkloadSpec,
};

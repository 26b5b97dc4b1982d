//! # mu — the Mu baseline: microsecond consensus over RDMA
//!
//! A faithful model of Mu (Aguilera et al., OSDI '20), the protocol P4CE
//! adopts its decision layer from and evaluates against (§III, §V). The
//! leader replicates values by writing each replica's log directly with
//! one-sided RDMA writes — one write *per replica* per consensus — and
//! aggregates the acknowledgements on its own CPU. Liveness is
//! heartbeat-based; a single writer is enforced with RDMA permissions.
//!
//! The interesting property for the paper's evaluation: Mu's leader
//! divides its network link and its CPU across `n` replicas, which is
//! exactly the bottleneck P4CE removes.
//!
//! The decision half — heartbeats, election, log fencing, the apply
//! gate, the workload clock — is `replication::Member`; this crate is
//! the communication half ([`MuComm`]) and the deployment that goes with
//! it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod member;

pub use builder::{ClusterBuilder, Deployment, PlainFabric};
pub use member::{FanOut, MuComm, MuMember};
pub use replication::{MemberEvent, MemberStats};

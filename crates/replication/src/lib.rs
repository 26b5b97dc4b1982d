//! # replication — the Mu decision protocol, defined once
//!
//! P4CE adopts Mu's decision protocol unchanged (§III): the same leader
//! election, view change and value-decision machinery. This crate holds
//! it, and the `mu` baseline and the `p4ce` replication engine plug
//! their communication modules into it:
//!
//! * [`member`] — the member state machine, [`Member<C>`](Member), and
//!   the [`Comm`] trait a communication module implements,
//! * [`deploy`] — one generic [`ClusterBuilder`] / [`Deployment`] over a
//!   [`Fabric`] (which comm, which switch program),
//! * [`stats`] — per-member measurements and the event timeline,
//! * [`ClusterConfig`] / [`MemberId`] — membership and quorum arithmetic
//!   (`f` acknowledgements + the leader = a strict majority),
//! * [`log`] — the byte-exact replicated log ring with torn-entry
//!   detection (leaders append with one-sided writes; consumers poll and
//!   follow the writer around the ring),
//! * [`heartbeat`] — heartbeat counters and the failure detector (100 µs
//!   period; never switch-accelerated),
//! * [`election`] — lowest-live-id leadership and view tracking,
//! * [`workload`] — the arrival processes used across the evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod deploy;
pub mod election;
pub mod heartbeat;
pub mod log;
pub mod member;
pub mod stats;
pub mod workload;

pub use config::{ClusterConfig, MemberId};
pub use deploy::{ClusterBuilder, Deployment, Fabric};
pub use election::{leader_of, ViewChange, ViewTracker};
pub use heartbeat::{FailureDetector, HeartbeatCounter};
pub use log::{decode_at, LogEntry, LogError, LogReader, LogWriter, StateMachine};
pub use member::{Comm, Core, LinkState, Member, MemberConfig};
pub use stats::{MemberEvent, MemberStats};
pub use workload::{ArrivalClock, WorkloadMode, WorkloadSpec};

//! # rdma — a RoCE v2 protocol model for simulation
//!
//! The paper's substrate: ConnectX-5 NICs speaking RoCE v2 over 100 GbE.
//! That hardware is not available here, so this crate implements the
//! protocol surface P4CE manipulates, faithfully enough that the switch
//! program has to do the same work as the real one:
//!
//! * byte-exact packet formats ([`wire`]): Ethernet/IPv4/UDP/BTH/RETH/AETH
//!   with an integrity checksum that covers every field the switch
//!   rewrites,
//! * reliable-connection queue pairs ([`qp`]): segmentation,
//!   PSN sequencing, credit-based flow control, retransmission,
//! * registered memory with `R_key`s and per-peer permissions ([`memory`]),
//! * the connection-manager handshake with piggybacked private data
//!   ([`cm`]),
//! * a host node ([`host`]) whose NIC executes one-sided operations and
//!   generates ACKs without involving the host CPU — the property Mu and
//!   P4CE build their latency on.
//!
//! See the crate-level documentation of `netsim` for the resource model
//! and DESIGN.md at the workspace root for the substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cm;
pub mod host;
pub mod memory;
pub mod opcode;
pub mod qp;
pub mod types;
pub mod verbs;
pub mod wire;

pub use cm::{CmMessage, RegionAdvert, RejectReason};
pub use host::{
    CmEvent, Host, HostConfig, HostOps, HostStats, RdmaApp, CM_COST, MAX_INFLIGHT,
    RETRANSMIT_TIMEOUT, RETRY_LIMIT,
};
pub use memory::{AccessError, HostMemory, RegionHandle, RegionInfo};
pub use opcode::Opcode;
pub use qp::{PacketPlan, PeerInfo, QpState, QueuePair};
pub use types::{MacAddr, Permissions, Psn, Qpn, RKey, CM_QPN, DEFAULT_RDMA_MTU, ROCE_UDP_PORT};
pub use verbs::{Completion, CompletionStatus, WorkRequest, WrId};
pub use wire::{
    Aeth, AethKind, Bth, NakCode, PacketTemplate, ParseError, PatchError, Reth, RewriteSet,
    RocePacket, RoceView,
};

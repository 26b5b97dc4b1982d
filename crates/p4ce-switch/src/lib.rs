//! # p4ce-switch — the P4CE in-network scatter/gather program
//!
//! The paper's data plane is 949 lines of P4₁₆ for the Tofino Native
//! Architecture plus a 1237-line Python control plane (§IV-D). This crate
//! is the equivalent program written against the `tofino` pipeline model:
//!
//! * [`P4ceProgram`] — the loaded program: scatter (packet duplication and
//!   per-replica header rewriting), gather (NumRecv aggregation, min-credit
//!   tracking, NAK passthrough) and the control plane (CM interception,
//!   fan-out handshakes, table and multicast-group programming with the
//!   40 ms reconfiguration delay),
//! * [`GroupSpec`] / [`GroupJoin`] — the private-data encodings
//!   piggybacked on CM messages,
//! * [`AckDropStage`] — the §IV-D ablation switch (drop aggregated ACKs in
//!   the replica's ingress vs. the leader's egress).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod program;
mod spec;

pub use program::{
    AckDropStage, CreditMode, GroupStats, P4ceProgram, P4ceSwitchConfig, P4ceSwitchStats,
    CREDIT_STALE_SCATTERS, NUMRECV_WINDOW,
};
pub use spec::{GroupJoin, GroupSpec, SpecError, MAX_REPLICAS};

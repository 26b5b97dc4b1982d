//! # tofino — a programmable-switch pipeline model
//!
//! The paper deploys P4CE on an Edgecore Wedge 100BF-32X with an Intel
//! Tofino ASIC. No such device exists in this environment, so this crate
//! models the *architecture* the P4CE data plane is written against
//! (§II-B):
//!
//! * per-port programmable **parsers** with a hard per-parser packet rate
//!   (121 Mpps — the constraint behind the paper's §IV-D ACK-drop
//!   placement fix),
//! * **match-action** processing expressed as a Rust [`SwitchProgram`]
//!   with two data-plane hooks, ingress and egress, that see parsed
//!   headers only ([`Headers`]) and record header rewrites; a single
//!   deparser stamps those rewrites onto the arrived bytes,
//! * a **replication engine** between the gresses
//!   ([`MulticastGroups`]) that clones packets and stamps each copy with a
//!   replication id,
//! * **stateful registers** ([`RegisterArray`]) whose ALU can only compare
//!   via subtraction underflow — including the identity-hash workaround
//!   the paper details,
//! * a **control plane** CPU reachable by punting packets, which programs
//!   tables and multicast groups.
//!
//! The [`Switch`] node plugs into `netsim` topologies; the actual P4CE
//! program lives in the `p4ce-switch` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mcast;
mod program;
mod registers;
mod switch;
mod table;

pub use mcast::{McastMember, MulticastGroupId, MulticastGroups};
pub use program::{
    ControlOps, EgressMeta, Headers, IngressMeta, IngressVerdict, L3Forwarder, PipelineOps,
    SwitchProgram,
};
pub use registers::{alu_min, RegisterArray};
pub use switch::{Switch, SwitchConfig, SwitchStats};
pub use table::{MatchTable, TableFull, TableStats};

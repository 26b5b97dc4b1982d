//! The switch-program interface: what a P4 program looks like to this
//! pipeline model. The data plane is two hooks — [`SwitchProgram::ingress`]
//! once per arrived packet, [`SwitchProgram::egress`] once per copy —
//! that read headers and record header rewrites through [`Headers`]; the
//! deparser in [`crate::Switch`] is the one place a frame is built.

use netsim::{Planted, PortId, SimTime, Tracer};
use rdma::{Aeth, Opcode, Psn, Qpn, Reth, RewriteSet, RocePacket, RoceView};
use std::net::Ipv4Addr;

use crate::mcast::MulticastGroupId;

/// Metadata available to the ingress stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressMeta {
    /// The port the packet arrived on.
    pub ingress_port: PortId,
    /// When this packet entered the match-action stages (intrinsic
    /// metadata on the ASIC; programs only read it for tracing).
    pub now: SimTime,
    /// The bug the run carries, if any ([`netsim::Simulation::plant`]).
    pub planted: Option<Planted>,
}

/// Metadata available to the egress stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressMeta {
    /// The port this copy will leave through.
    pub egress_port: PortId,
    /// The replication id stamped by the multicast engine (0 for unicast).
    pub rid: u16,
    /// When this copy entered the egress stage.
    pub now: SimTime,
    /// The bug the run carries, if any ([`netsim::Simulation::plant`]).
    pub planted: Option<Planted>,
}

/// The ingress stage's routing decision. Replication decisions can only be
/// taken here — operating on the copies happens in the egress (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressVerdict {
    /// Forward to a single port.
    Unicast(PortId),
    /// Hand to the replication engine with this group.
    Multicast(MulticastGroupId),
    /// Punt to the control plane (slow path).
    ToCpu,
    /// Drop. On Tofino this consumes only the *ingress* parser of the
    /// arriving port — the optimization §IV-D describes for ACKs.
    Drop,
}

/// A data-plane stage's handle on one packet — the parsed header vector.
///
/// Reads (of the fields the shipped programs match on) go to the
/// validated headers of the frame as it *arrived*, overlaid with every
/// rewrite recorded so far, so `egress` sees what `ingress` wrote (PHV
/// semantics). Writes are [`RewriteSet`] deltas and nothing else: a stage
/// cannot name the payload bytes, the opcode, the flags, the extension
/// set or a length — match-action stages on the ASIC only ever see
/// headers — which is what lets the deparser emit every copy by stamping
/// the delta onto the arrived bytes ([`rdma::PacketTemplate::stamp`])
/// without re-serializing.
#[derive(Debug)]
pub struct Headers<'a> {
    arrived: RoceView<'a>,
    rw: &'a mut RewriteSet,
}

impl<'a> Headers<'a> {
    /// A handle over `arrived` that reads through, and records into, `rw`.
    pub fn new(arrived: RoceView<'a>, rw: &'a mut RewriteSet) -> Self {
        Headers { arrived, rw }
    }

    /// BTH opcode (not rewritable).
    pub fn opcode(&self) -> Opcode {
        self.arrived.opcode()
    }

    /// Destination IPv4 address.
    pub fn dst_ip(&self) -> Ipv4Addr {
        self.rw.dst_ip.unwrap_or_else(|| self.arrived.dst_ip())
    }

    /// BTH destination queue pair.
    pub fn dest_qp(&self) -> Qpn {
        self.rw.dest_qp.unwrap_or_else(|| self.arrived.dest_qp())
    }

    /// BTH packet sequence number.
    pub fn psn(&self) -> Psn {
        self.rw.psn.unwrap_or_else(|| self.arrived.psn())
    }

    /// The RETH, if the opcode carries one (its DMA length is not
    /// rewritable).
    pub fn reth(&self) -> Option<Reth> {
        self.arrived.reth().map(|r| Reth {
            va: self.rw.va.unwrap_or(r.va),
            rkey: self.rw.rkey.unwrap_or(r.rkey),
            dma_len: r.dma_len,
        })
    }

    /// The AETH, if the opcode carries one.
    pub fn aeth(&self) -> Option<Aeth> {
        self.rw.aeth.or(self.arrived.aeth())
    }

    /// Records `rw` on top of what earlier stages recorded (a field set
    /// twice keeps the later value). As on the ASIC, writing a header the
    /// packet does not carry has no effect: RETH/AETH fields are dropped
    /// unless the opcode carries that extension.
    pub fn rewrite(&mut self, rw: RewriteSet) {
        let opcode = self.arrived.opcode();
        let cur = &mut *self.rw;
        cur.src_mac = rw.src_mac.or(cur.src_mac);
        cur.dst_mac = rw.dst_mac.or(cur.dst_mac);
        cur.src_ip = rw.src_ip.or(cur.src_ip);
        cur.dst_ip = rw.dst_ip.or(cur.dst_ip);
        cur.udp_src_port = rw.udp_src_port.or(cur.udp_src_port);
        cur.dest_qp = rw.dest_qp.or(cur.dest_qp);
        cur.psn = rw.psn.or(cur.psn);
        if opcode.carries_reth() {
            cur.va = rw.va.or(cur.va);
            cur.rkey = rw.rkey.or(cur.rkey);
        }
        if opcode.carries_aeth() {
            cur.aeth = rw.aeth.or(cur.aeth);
        }
    }
}

/// Read-only facilities available to the data-plane stages.
pub trait PipelineOps {
    /// L3 lookup: the output port for `ip`, if programmed.
    fn route(&self, ip: Ipv4Addr) -> Option<PortId>;
    /// This switch's own address.
    fn switch_ip(&self) -> Ipv4Addr;
    /// The switch's trace sink (disabled by default; see
    /// [`crate::SwitchConfig`]). Programs emit scatter/gather events
    /// through this.
    fn tracer(&self) -> &Tracer;
}

/// Facilities available to the control plane (a conventional CPU running
/// arbitrary code — Python in the paper, Rust here).
pub trait ControlOps {
    /// Current simulated time.
    fn now(&self) -> netsim::SimTime;
    /// This switch's own address.
    fn switch_ip(&self) -> Ipv4Addr;
    /// L3 lookup.
    fn route(&self, ip: Ipv4Addr) -> Option<PortId>;
    /// Sends a packet crafted by the control plane out of the port routing
    /// says (drops silently if unroutable).
    fn send_packet(&mut self, pkt: RocePacket);
    /// Arms a control-plane timer (token must fit in 56 bits).
    fn set_timer(&mut self, after: netsim::SimDuration, token: u64);
    /// Installs or replaces a multicast group in the replication engine.
    fn set_mcast_group(&mut self, gid: MulticastGroupId, members: Vec<crate::mcast::McastMember>);
    /// Removes a multicast group.
    fn remove_mcast_group(&mut self, gid: MulticastGroupId);
}

/// A program loaded on the switch: data plane (ingress/egress, line rate)
/// plus control plane (CPU packets, timers).
///
/// **Data-plane contract:** `ingress` and `egress` rewrite *header*
/// fields and never the payload bytes. [`Headers`] enforces it by type:
/// the only write it offers is a [`RewriteSet`].
pub trait SwitchProgram: 'static {
    /// Called once at simulation start (control plane context).
    fn on_start(&mut self, ops: &mut dyn ControlOps) {
        let _ = ops;
    }

    /// The ingress pipeline: may rewrite headers and must return a
    /// verdict.
    fn ingress(
        &mut self,
        hdr: &mut Headers<'_>,
        meta: IngressMeta,
        ops: &dyn PipelineOps,
    ) -> IngressVerdict;

    /// The egress pipeline, run per copy: sees the ingress rewrites, may
    /// add its own; return `false` to drop this copy (consuming the
    /// egress parser — the expensive place to drop, per §IV-D).
    fn egress(&mut self, hdr: &mut Headers<'_>, meta: EgressMeta, ops: &dyn PipelineOps) -> bool {
        let _ = (hdr, meta, ops);
        true
    }

    /// A packet punted by the ingress arrived at the control plane.
    fn on_cpu_packet(&mut self, pkt: RocePacket, ops: &mut dyn ControlOps) {
        let _ = (pkt, ops);
    }

    /// A control-plane timer fired.
    fn on_timer(&mut self, token: u64, ops: &mut dyn ControlOps) {
        let _ = (token, ops);
    }
}

/// The trivial baseline program: pure L3 forwarding, no interception.
/// This is the switch Mu runs through.
#[derive(Debug, Default, Clone, Copy)]
pub struct L3Forwarder;

impl SwitchProgram for L3Forwarder {
    fn ingress(
        &mut self,
        hdr: &mut Headers<'_>,
        _meta: IngressMeta,
        ops: &dyn PipelineOps,
    ) -> IngressVerdict {
        // Pure forwarding rewrites nothing: the deparser shares the
        // arrived bytes.
        match ops.route(hdr.dst_ip()) {
            Some(port) => IngressVerdict::Unicast(port),
            None => IngressVerdict::Drop,
        }
    }
}

//! An RDMA-capable server: CPU + RNIC + registered memory, as one
//! [`netsim::Node`].
//!
//! The split of work mirrors real hardware, because that split *is* the
//! paper's result:
//!
//! * the **CPU** (one [`netsim::Cpu`]) runs the application ([`RdmaApp`])
//!   and is charged for every verb interaction — posting a work request,
//!   reaping a completion, handling a CM datagram;
//! * the **NIC** executes autonomously: it segments messages, clocks
//!   packets onto the link, and — crucially — executes *incoming* one-sided
//!   operations and generates ACKs without touching the CPU (§II-A). This
//!   is why Mu's replicas are idle on the data path and why the leader's
//!   CPU is the small-value bottleneck the paper measures.

use bytes::Bytes;
use netsim::rng::lcg_step;
use netsim::{
    Context, Cpu, Frame, FxHashMap, Node, Planted, PortId, RetransmitKind, SimDuration, SimTime,
    TimerToken, TraceEvent, Tracer,
};
use std::collections::{BTreeSet, VecDeque};
use std::net::Ipv4Addr;
use std::ops::Range;

use crate::cm::{CmMessage, RejectReason};
use crate::memory::{HostMemory, RegionHandle, RegionInfo};
use crate::opcode::Opcode;
use crate::qp::{
    PacketPlan, PeerInfo, QpState, QueuePair, RecoveryAction, RecvVerdict, WriteCursor,
};
use crate::types::{MacAddr, Permissions, Psn, Qpn, CM_QPN, DEFAULT_RDMA_MTU};
use crate::verbs::{Completion, CompletionStatus, WorkRequest, WrId};
use crate::wire::{peek_opcode, Aeth, AethKind, Bth, NakCode, Reth, RocePacket, RoceView};

/// Local cap on unacknowledged messages per queue pair (16 in the
/// paper's testbed, §IV-C).
pub const MAX_INFLIGHT: usize = 16;
/// CPU cost of handling one connection-management datagram (slow path).
pub const CM_COST: SimDuration = SimDuration::from_micros(25);
/// Transport retransmission timeout (131 µs in the paper's setup:
/// `4.096 × 2⁵ µs`, §V-E).
pub const RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_micros(131);
/// Retransmissions before a queue pair gives up and flushes.
pub const RETRY_LIMIT: u32 = 7;

/// Tunable parameters of a host. Defaults are the calibration constants
/// derived from the paper (DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// This host's IPv4 address (MAC and key/PSN seed are derived from
    /// it).
    pub ip: Ipv4Addr,
    /// RDMA path MTU: payload bytes per packet of a multi-packet message.
    pub mtu: usize,
    /// CPU cost of posting one work request (≈210 ns reproduces the
    /// paper's §V-C rates).
    pub post_cost: SimDuration,
    /// CPU cost of reaping one completion.
    pub reap_cost: SimDuration,
    /// NIC transmit engine occupancy per packet.
    pub nic_tx_cost: SimDuration,
    /// NIC receive engine occupancy per packet. Raise it to model a slow
    /// replica whose credit count should drag the group minimum down.
    pub nic_rx_cost: SimDuration,
    /// Receive buffer capacity in requests; the advertised credit count is
    /// `rx_capacity - occupancy` (§II-A, "Congestion").
    pub rx_capacity: usize,
    /// Trace sink for NIC-level events (WQE posts, wire transmissions,
    /// ACK/NAK traffic, retransmissions). Disabled by default; the only
    /// cost then is one `Option` branch per would-be event.
    pub tracer: Tracer,
}

impl HostConfig {
    /// A host with the calibration defaults at address `ip`.
    pub fn new(ip: Ipv4Addr) -> Self {
        HostConfig {
            ip,
            mtu: DEFAULT_RDMA_MTU,
            post_cost: SimDuration::from_nanos(210),
            reap_cost: SimDuration::from_nanos(210),
            nic_tx_cost: SimDuration::from_nanos(5),
            nic_rx_cost: SimDuration::from_nanos(8),
            rx_capacity: 16,
            tracer: Tracer::disabled(),
        }
    }
}

/// Connection-management events delivered to the application.
#[derive(Debug, Clone)]
pub enum CmEvent {
    /// A peer asked to connect; answer with [`HostOps::accept`] or
    /// [`HostOps::reject`].
    ConnectRequestReceived {
        /// Handshake correlation id (pass to accept/reject).
        handshake_id: u64,
        /// The requesting peer.
        from_ip: Ipv4Addr,
        /// The requester's queue pair.
        from_qpn: Qpn,
        /// The requester's initial PSN.
        start_psn: Psn,
        /// Piggybacked application data.
        private_data: Bytes,
    },
    /// (Initiator) the connection is established and ready to send on.
    Connected {
        /// Handshake correlation id.
        handshake_id: u64,
        /// The local queue pair now in RTS.
        qpn: Qpn,
        /// The peer's address.
        peer_ip: Ipv4Addr,
        /// Private data from the ConnectReply (e.g. a region advert).
        private_data: Bytes,
    },
    /// (Responder) the initiator sent ReadyToUse; the connection is live.
    Established {
        /// Handshake correlation id.
        handshake_id: u64,
        /// The local queue pair now in RTS.
        qpn: Qpn,
        /// The peer's address.
        peer_ip: Ipv4Addr,
    },
    /// (Initiator) the responder refused.
    Rejected {
        /// Handshake correlation id.
        handshake_id: u64,
        /// Why.
        reason: RejectReason,
    },
}

/// The application half of a host: protocol logic driven by completions,
/// CM events and timers. Mu's and P4CE's replicas and leaders implement
/// this.
pub trait RdmaApp: 'static {
    /// Called once at simulation start.
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        let _ = ops;
    }

    /// A work request finished (successfully or not).
    fn on_completion(&mut self, completion: Completion, ops: &mut HostOps<'_, '_>);

    /// A connection-management event arrived.
    fn on_cm_event(&mut self, event: CmEvent, ops: &mut HostOps<'_, '_>) {
        let _ = (event, ops);
    }

    /// Remote peers wrote into a watched region (see
    /// [`HostOps::watch_region`]) since the last call for it. This is a
    /// poll, once per write message at most: `dirty` is the
    /// region-relative hull of every write message that ended meanwhile,
    /// and the bytes are read in place with [`HostOps::read_local`].
    fn on_remote_write(
        &mut self,
        region: RegionHandle,
        dirty: Range<u64>,
        ops: &mut HostOps<'_, '_>,
    ) {
        let _ = (region, dirty, ops);
    }

    /// An application timer armed with [`HostOps::set_app_timer`] fired.
    fn on_timer(&mut self, token: u64, ops: &mut HostOps<'_, '_>) {
        let _ = (token, ops);
    }

    /// A negative acknowledgement arrived on `qpn` (delivered *before*
    /// the transport's own recovery runs). P4CE's leader uses this to
    /// revert to un-accelerated communication (§III-A).
    fn on_nak(&mut self, qpn: Qpn, code: NakCode, ops: &mut HostOps<'_, '_>) {
        let _ = (qpn, code, ops);
    }
}

// Timer token classes (top byte of the token).
const TK_NIC_TX: u64 = 1 << 56;
const TK_DELIVER: u64 = 2 << 56;
const TK_RETRANSMIT: u64 = 3 << 56;
const TK_APP: u64 = 4 << 56;
const TK_POST: u64 = 5 << 56;
const TK_RX: u64 = 6 << 56;
const TK_CLASS_MASK: u64 = 0xff << 56;
const TK_DATA_MASK: u64 = !TK_CLASS_MASK;

#[derive(Debug)]
enum Delivery {
    Completion(Completion),
    Cm(CmEvent),
    /// At most one is queued per watched region ([`HostCore::watches`]).
    RemoteWrite {
        region: RegionHandle,
        dirty: Range<u64>,
    },
    Nak {
        qpn: Qpn,
        code: NakCode,
    },
}

/// Executed write packets not in host memory yet: adjacent slices of one
/// sender buffer joined into `data`, arrived on queue pair `at.0`, landing
/// at offset `at.2` of region `at.1`.
#[derive(Debug)]
struct Parked {
    at: (u32, RegionHandle, u64),
    data: Bytes,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
/// Counters exposed for tests and experiment reporting.
pub struct HostStats {
    /// Request packets transmitted (writes, reads, CM).
    pub packets_sent: u64,
    /// Packets received and parsed.
    pub packets_received: u64,
    /// Frames that failed to parse and were dropped.
    pub parse_drops: u64,
    /// ACKs generated by the NIC.
    pub acks_sent: u64,
    /// NAKs generated by the NIC.
    pub naks_sent: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Retransmitted packets triggered by the retransmission timer
    /// ([`QueuePair::check_timeout`]) — the lost-ACK / lost-tail path.
    pub timeout_retransmits: u64,
    /// Retransmitted packets triggered by a peer NAK
    /// ([`QueuePair::handle_nak`]) — the mid-stream-gap path.
    pub nak_retransmits: u64,
    /// Request packets dropped because the receive buffer was full (the
    /// damage ignoring credit counts causes).
    pub rx_overflow_drops: u64,
    /// ACK/NAK frames stamped from a per-QP template. There is no such
    /// template — [`RocePacket::to_frame`] builds every frame — so this
    /// reads 0; the field stays because the benchmark reads it.
    pub acks_templated: u64,
    /// ACK/NAK frames serialized in full, the other half of that split.
    /// Reads 0 and stays for the same reason (`acks_sent + naks_sent` is
    /// the count).
    pub acks_serialized: u64,
    /// Write packets that landed in a watched region: the NIC placed them
    /// and the app reads them in place, so no copy is made for delivery.
    pub rx_zero_copy_deliveries: u64,
    /// Payload deliveries that required copying into host memory (read
    /// responses landing in a local region).
    pub rx_copied_deliveries: u64,
    /// Write messages that ended in a watched region: the host CPU reaps
    /// each once, whatever its packet count.
    pub rx_write_messages: u64,
    /// Watched write messages whose last packet found a notification
    /// already queued for their region and only widened its dirty range.
    pub rx_notifications_merged: u64,
    /// Most entries the app delivery queue ever held. Bounded by posted
    /// work + CM events + one notification per watched region.
    pub delivery_queue_high_water: u64,
}

/// The non-application state of a host (NIC, CPU, memory, queue pairs).
pub struct HostCore {
    cfg: HostConfig,
    mac: MacAddr,
    cpu: Cpu,
    mem: HostMemory,
    qps: FxHashMap<u32, QueuePair>,
    /// QPNs in ascending order — the deterministic iteration order for
    /// whole-table sweeps (retransmit scan); point lookups go through the
    /// hash map.
    qp_order: Vec<u32>,
    next_qpn: u32,
    psn_state: u64,
    // --- transmit path ---
    tx_fifo: VecDeque<(PortId, Frame)>,
    /// The TX engine is clocking out the frame at the front of the FIFO.
    tx_busy: bool,
    tx_last_served: u32,
    /// QPNs that may have untransmitted posted work: every successful
    /// [`QueuePair::post`] inserts, [`HostCore::refill_tx`] removes
    /// entries it observes drained. A superset of the truly-ready set
    /// (window-closed QPs stay in it), so the round-robin scan touches
    /// only senders instead of every connection on the host.
    tx_ready: BTreeSet<u32>,
    /// Scratch for stale `tx_ready` entries found mid-scan.
    tx_stale: Vec<u32>,
    /// Scratch for completed work requests drained from an ACK.
    ack_done: Vec<(WrId, bool)>,
    /// The port new connections ride on (multi-homed hosts flip this to a
    /// backup path when the primary fabric dies, §V-E "Crashed switch").
    active_port: PortId,
    // --- receive path ---
    rx_queue: VecDeque<(PortId, Frame, bool)>,
    rx_busy: bool,
    /// What [`HostCore::land`] has not placed yet.
    parked: Option<Parked>,
    /// Request packets (writes/reads/sends) currently buffered: the
    /// resource the credit count advertises. ACKs and read responses do
    /// not consume it.
    rx_request_backlog: usize,
    // --- handshakes (value includes the port the exchange rides on) ---
    next_handshake: u64,
    initiated: FxHashMap<u64, Qpn>,
    responding: FxHashMap<u64, Qpn>,
    /// Arrival port of pending incoming ConnectRequests.
    request_ports: FxHashMap<u64, PortId>,
    // --- deliveries to the app ---
    /// FIFO: ids are consecutive and every `ready_at` comes from the
    /// serializing CPU, so `TK_DELIVER` timers fire in enqueue order and
    /// the token always names the front entry.
    deliveries: VecDeque<Delivery>,
    next_delivery: u64,
    // --- read landing zones ---
    read_landing: FxHashMap<(u32, u64), (RegionHandle, usize)>,
    /// Watched regions (remote-write notification), each with the
    /// delivery id of its queued [`Delivery::RemoteWrite`], if any.
    watches: FxHashMap<RegionHandle, Option<u64>>,
    // --- retransmission ---
    rt_tick_armed: bool,
    /// Queue pairs with at least one unacknowledged message: the
    /// retransmit tick is armed iff this is non-zero. Kept in step by
    /// [`HostCore::with_qp`] around every call that moves a message in or
    /// out of a QP's inflight queue.
    qps_inflight: usize,
    /// Counters.
    pub stats: HostStats,
}

impl HostCore {
    fn new(cfg: HostConfig) -> Self {
        let mac = MacAddr::for_ip(cfg.ip);
        // Key and PSN draws are seeded by the address: distinct per host.
        let seed = u64::from(u32::from_be_bytes(cfg.ip.octets()));
        let mem = HostMemory::new(seed);
        HostCore {
            mac,
            cpu: Cpu::new(),
            mem,
            qps: FxHashMap::default(),
            qp_order: Vec::new(),
            next_qpn: 0x10,
            psn_state: seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1,
            tx_fifo: VecDeque::new(),
            tx_busy: false,
            tx_last_served: 0,
            tx_ready: BTreeSet::new(),
            tx_stale: Vec::new(),
            ack_done: Vec::new(),
            active_port: PortId::FIRST,
            rx_queue: VecDeque::new(),
            rx_busy: false,
            parked: None,
            rx_request_backlog: 0,
            next_handshake: 1,
            initiated: FxHashMap::default(),
            responding: FxHashMap::default(),
            request_ports: FxHashMap::default(),
            deliveries: VecDeque::new(),
            next_delivery: 0,
            read_landing: FxHashMap::default(),
            watches: FxHashMap::default(),
            rt_tick_armed: false,
            qps_inflight: 0,
            stats: HostStats::default(),
            cfg,
        }
    }

    fn next_start_psn(&mut self) -> Psn {
        Psn::new((lcg_step(&mut self.psn_state) >> 40) as u32)
    }

    fn alloc_qpn(&mut self) -> Qpn {
        let q = Qpn(self.next_qpn);
        self.next_qpn += 1;
        q
    }

    fn insert_qp(&mut self, qpn: u32, qp: QueuePair) {
        if self.qps.insert(qpn, qp).is_none() {
            let at = self.qp_order.partition_point(|&q| q < qpn);
            self.qp_order.insert(at, qpn);
        }
    }

    /// Runs `f` on queue pair `qpn`, keeping [`HostCore::qps_inflight`]
    /// in step with whatever `f` does to its inflight queue.
    fn with_qp<R>(&mut self, qpn: u32, f: impl FnOnce(&mut QueuePair) -> R) -> R {
        let qp = self.qps.get_mut(&qpn).expect("checked");
        let before = qp.inflight_len() > 0;
        let r = f(qp);
        let after = qp.inflight_len() > 0;
        self.qps_inflight = self.qps_inflight + usize::from(after) - usize::from(before);
        r
    }

    fn remove_qp(&mut self, qpn: u32) -> Option<QueuePair> {
        let removed = self.qps.remove(&qpn);
        if let Some(qp) = &removed {
            self.qps_inflight -= usize::from(qp.inflight_len() > 0);
            if let Ok(at) = self.qp_order.binary_search(&qpn) {
                self.qp_order.remove(at);
            }
            self.tx_ready.remove(&qpn);
        }
        removed
    }

    /// The advertised credit count: free request-buffer slots, clamped to
    /// the 5-bit AETH field.
    fn credits(&self) -> u8 {
        self.cfg
            .rx_capacity
            .saturating_sub(self.rx_request_backlog)
            .min(31) as u8
    }

    /// The one encoder: every frame this NIC emits is built here. Fills in
    /// what the NIC knows by itself — source MAC/IP, the destination MAC
    /// and the UDP source port of `local_qpn` — around the transport
    /// headers and payload the caller chose.
    fn frame(
        &self,
        dst_ip: Ipv4Addr,
        local_qpn: Qpn,
        bth: Bth,
        reth: Option<Reth>,
        aeth: Option<Aeth>,
        payload: Bytes,
    ) -> Frame {
        RocePacket {
            src_mac: self.mac,
            dst_mac: MacAddr::for_ip(dst_ip),
            src_ip: self.cfg.ip,
            dst_ip,
            udp_src_port: 0xC000 | (local_qpn.masked() as u16 & 0x0fff),
            bth,
            reth,
            aeth,
            payload,
        }
        .to_frame()
    }

    /// The one queue site: `frame` leaves through `port` after everything
    /// queued before it.
    fn enqueue(&mut self, port: PortId, frame: Frame) {
        self.tx_fifo.push_back((port, frame));
    }

    /// Queues `frame` and makes sure the TX engine is running.
    fn send(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>) {
        self.enqueue(port, frame);
        self.kick_tx(ctx);
    }

    /// Frames the request packets `packets` of `qpn` towards its peer and
    /// queues them in order (first transmission and retransmission alike).
    fn enqueue_request(&mut self, qpn: Qpn, packets: Vec<PacketPlan>) {
        let qp = &self.qps[&qpn.masked()];
        let peer = qp.peer().expect("transmitting on unconnected QP");
        let port = qp.port;
        for p in packets {
            let bth = Bth {
                opcode: p.opcode,
                dest_qp: peer.qpn,
                psn: p.psn,
                ack_req: p.ack_req,
            };
            let frame = self.frame(peer.ip, qpn, bth, p.reth, None, p.payload);
            self.enqueue(port, frame);
        }
    }

    /// Sends a CM datagram to `to_ip` through `port`. CM traffic belongs
    /// to no connection, so its source port carries no queue-pair bits.
    fn send_cm(&mut self, to_ip: Ipv4Addr, msg: &CmMessage, port: PortId, ctx: &mut Context<'_>) {
        let bth = Bth {
            opcode: Opcode::SendOnly,
            dest_qp: CM_QPN,
            psn: Psn::new(0),
            ack_req: false,
        };
        let frame = self.frame(to_ip, Qpn(0), bth, None, None, msg.encode());
        self.send(port, frame, ctx);
    }

    /// Answers the request `(local qpn, psn, sender)`: an ACK, a duplicate
    /// re-ACK, a NAK (`opcode` [`Opcode::Acknowledge`], empty payload) or a
    /// read response. The frame goes back to where the request came from
    /// (behind a P4CE switch that is the switch itself — the Aggr queue
    /// pair of §IV-A) and is counted and traced here, once.
    fn respond(
        &mut self,
        (qpn, psn, src_ip): (Qpn, Psn, Ipv4Addr),
        opcode: Opcode,
        kind: AethKind,
        payload: Bytes,
        ctx: &mut Context<'_>,
    ) {
        let qp = &self.qps[&qpn.masked()];
        let peer = qp.peer().expect("responding on unconnected QP");
        let port = qp.port;
        let bth = Bth {
            opcode,
            dest_qp: peer.qpn,
            psn,
            ack_req: false,
        };
        let aeth = Aeth {
            kind,
            msn: qp.msn(),
        };
        let frame = self.frame(src_ip, qpn, bth, None, Some(aeth), payload);
        let (qpn64, psn64) = (u64::from(qpn.masked()), u64::from(psn.value()));
        match kind {
            AethKind::Ack { .. } => {
                self.stats.acks_sent += 1;
                self.cfg.tracer.emit(ctx.now, || TraceEvent::AckTx {
                    qpn: qpn64,
                    psn: psn64,
                });
            }
            AethKind::Nak(_) => {
                self.stats.naks_sent += 1;
                self.cfg.tracer.emit(ctx.now, || TraceEvent::NakTx {
                    qpn: qpn64,
                    psn: psn64,
                });
            }
        }
        self.send(port, frame, ctx);
    }

    /// [`HostCore::respond`] with a positive acknowledgement advertising
    /// the current credit count.
    fn send_ack(&mut self, to: (Qpn, Psn, Ipv4Addr), ctx: &mut Context<'_>) {
        let kind = AethKind::Ack {
            credits: self.credits(),
        };
        self.respond(to, Opcode::Acknowledge, kind, Bytes::new(), ctx);
    }

    fn send_nak(&mut self, to: (Qpn, Psn, Ipv4Addr), code: NakCode, ctx: &mut Context<'_>) {
        let kind = AethKind::Nak(code);
        self.respond(to, Opcode::Acknowledge, kind, Bytes::new(), ctx);
    }

    fn kick_tx(&mut self, ctx: &mut Context<'_>) {
        if self.tx_busy {
            return;
        }
        if self.tx_fifo.is_empty() {
            self.refill_tx(ctx.now);
        }
        if !self.tx_fifo.is_empty() {
            self.tx_busy = true;
            ctx.schedule(self.cfg.nic_tx_cost, TimerToken(TK_NIC_TX));
        }
    }

    /// Pulls the next ready message from the queue pairs, round-robin over
    /// QPNs for fairness, and stages its packets for transmission.
    ///
    /// Only QPNs in [`HostCore::tx_ready`] are visited — a QP absent from
    /// the set has nothing posted, so `next_message` would decline it
    /// anyway; skipping it changes nothing but the scan cost. Entries
    /// observed drained (pending queue empty) are dropped from the set.
    fn refill_tx(&mut self, now: SimTime) {
        // Round-robin from the QPN after the last served one, wrapping —
        // two ordered range walks over the candidate set.
        let last = self.tx_last_served;
        let scan = |tx_ready: &BTreeSet<u32>,
                    qps: &mut FxHashMap<u32, QueuePair>,
                    tx_stale: &mut Vec<u32>|
         -> Option<(u32, Vec<PacketPlan>)> {
            for &qpn in tx_ready.range(last + 1..).chain(tx_ready.range(..=last)) {
                let qp = qps.get_mut(&qpn).expect("tx_ready tracks live QPs");
                if qp.pending_len() == 0 {
                    tx_stale.push(qpn);
                    continue;
                }
                if let Some(packets) = qp.next_message(now) {
                    return Some((qpn, packets));
                }
            }
            None
        };
        let ready = scan(&self.tx_ready, &mut self.qps, &mut self.tx_stale);
        for qpn in self.tx_stale.drain(..) {
            self.tx_ready.remove(&qpn);
        }
        let Some((qpn, packets)) = ready else { return };
        // `next_message` pushed exactly one message onto `qpn`'s inflight.
        self.qps_inflight += usize::from(self.qps[&qpn].inflight_len() == 1);
        if self.qps[&qpn].pending_len() == 0 {
            self.tx_ready.remove(&qpn);
        }
        if let Some((wr_id, first_psn, _)) = self.qps[&qpn].newest_inflight() {
            self.cfg.tracer.emit(now, || TraceEvent::WireTx {
                qpn: u64::from(qpn),
                wr_id: wr_id.0,
                psn: u64::from(first_psn.value()),
                npkts: packets.len() as u64,
            });
        }
        self.tx_last_served = qpn;
        self.enqueue_request(Qpn(qpn), packets);
    }

    fn enqueue_delivery(&mut self, delivery: Delivery, cost: SimDuration, ctx: &mut Context<'_>) {
        let id = self.next_delivery;
        self.next_delivery = (self.next_delivery + 1) & TK_DATA_MASK;
        self.deliveries.push_back(delivery);
        let queued = self.deliveries.len() as u64;
        self.stats.delivery_queue_high_water = self.stats.delivery_queue_high_water.max(queued);
        let ready_at = self.cpu.run(ctx.now, cost);
        ctx.schedule_at(ready_at, TimerToken(TK_DELIVER | id));
    }

    /// A write packet landed in `region`, the message so far at `dirty`;
    /// `last` if it ended the message. If the region is watched the app
    /// hears of the message once, at its last packet: the host CPU pays
    /// `reap_cost` for a message, not a packet. The app is polled, not
    /// interrupted: while a notification for the region is still queued
    /// the message only widens its dirty hull — nothing is enqueued, no
    /// timer is scheduled and nothing refers to the frame once RX
    /// processing returns.
    fn notify_remote_write(
        &mut self,
        region: RegionHandle,
        dirty: Range<u64>,
        last: bool,
        ctx: &mut Context<'_>,
    ) {
        let Some(queued) = self.watches.get_mut(&region) else {
            return;
        };
        self.stats.rx_zero_copy_deliveries += 1;
        if !last {
            return;
        }
        self.stats.rx_write_messages += 1;
        let cost = self.cfg.reap_cost;
        if let Some(id) = *queued {
            // Ids are consecutive, so the id names a queue position.
            let behind_back = self.next_delivery.wrapping_sub(id) & TK_DATA_MASK;
            let at = self.deliveries.len() - behind_back as usize;
            let Delivery::RemoteWrite { dirty: hull, .. } = &mut self.deliveries[at] else {
                unreachable!("a watch's queued id names a RemoteWrite delivery");
            };
            *hull = hull.start.min(dirty.start)..hull.end.max(dirty.end);
            self.stats.rx_notifications_merged += 1;
            self.cpu.run(ctx.now, cost);
        } else {
            *queued = Some(self.next_delivery);
            self.enqueue_delivery(Delivery::RemoteWrite { region, dirty }, cost, ctx);
        }
    }

    fn complete(&mut self, c: Completion, ctx: &mut Context<'_>) {
        let cost = self.cfg.reap_cost;
        self.enqueue_delivery(Delivery::Completion(c), cost, ctx);
    }

    fn deliver_cm(&mut self, ev: CmEvent, ctx: &mut Context<'_>) {
        self.enqueue_delivery(Delivery::Cm(ev), CM_COST, ctx);
    }

    /// Carries out a queue pair's recovery verdict, whatever triggered
    /// it (`kind`): send the named packets again, or fail the QP's
    /// requests — the oldest with `failed`, the rest flushed.
    fn recover(
        &mut self,
        qpn: Qpn,
        action: RecoveryAction,
        kind: RetransmitKind,
        failed: CompletionStatus,
        ctx: &mut Context<'_>,
    ) {
        match action {
            RecoveryAction::None => {}
            RecoveryAction::Retransmit(packets) => {
                let n = packets.len() as u64;
                match kind {
                    RetransmitKind::Timeout => self.stats.timeout_retransmits += n,
                    RetransmitKind::Nak => self.stats.nak_retransmits += n,
                }
                self.cfg.tracer.emit(ctx.now, || TraceEvent::Retransmit {
                    qpn: u64::from(qpn.masked()),
                    kind,
                    packets: n,
                });
                self.stats.retransmits += n;
                self.enqueue_request(qpn, packets);
                self.kick_tx(ctx);
            }
            RecoveryAction::Fatal(ids) => {
                for (i, wr_id) in ids.into_iter().enumerate() {
                    let status = if i == 0 {
                        failed
                    } else {
                        CompletionStatus::Flushed
                    };
                    self.complete(
                        Completion {
                            qpn,
                            wr_id,
                            status,
                            credits: 0,
                        },
                        ctx,
                    );
                }
            }
        }
    }

    // --------------------------------------------------------------
    // Receive-side packet processing (runs in the NIC, no CPU charge)
    // --------------------------------------------------------------

    fn process_packet(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>) {
        // Borrowed header-view parse: the acceptance checks run in full.
        let view = match RocePacket::parse_view(&frame) {
            Ok(v) => v,
            Err(_) => {
                self.stats.parse_drops += 1;
                return;
            }
        };
        self.stats.packets_received += 1;
        let opcode = view.opcode();
        // A write packet decides in `land` whether it continues the parked
        // run; anything else may read or write where the run lands.
        if !opcode.is_write() {
            self.place_parked();
        }
        let dest_qp = view.dest_qp();
        if dest_qp == CM_QPN {
            self.process_cm(view.src_ip(), view.payload_slice(), port, ctx);
            return;
        }
        let Some(qp) = self.qps.get_mut(&dest_qp.masked()) else {
            return; // no such QP: drop silently (as NICs do for unknown QPNs)
        };
        // Path affinity: a connection follows the path its traffic
        // arrives on.
        qp.port = port;
        if opcode.is_write() || opcode == Opcode::ReadRequest {
            self.process_request(&view, ctx);
        } else if opcode == Opcode::Acknowledge {
            let psn = view.psn();
            let aeth = view.aeth().expect("ACK carries AETH");
            self.process_ack(dest_qp, psn, aeth, ctx);
        } else if opcode == Opcode::ReadResponseOnly {
            let psn = view.psn();
            let aeth = view.aeth().expect("read response carries AETH");
            self.process_read_response(dest_qp, psn, aeth, view.payload_slice(), ctx);
        }
    }

    fn process_request(&mut self, view: &RoceView<'_>, ctx: &mut Context<'_>) {
        let to @ (qpn, psn, _) = (view.dest_qp(), view.psn(), view.src_ip());
        let qp = self.qps.get_mut(&qpn.masked()).expect("checked");
        if !matches!(qp.state(), QpState::ReadyToReceive | QpState::ReadyToSend) {
            return;
        }
        match qp.receive_sequence(psn, view.opcode(), view.ack_req()) {
            RecvVerdict::Duplicate => self.send_ack(to, ctx),
            RecvVerdict::OutOfOrder => self.send_nak(to, NakCode::PsnSequenceError, ctx),
            RecvVerdict::Execute { .. } if view.opcode() == Opcode::ReadRequest => {
                self.execute_read(view, ctx)
            }
            RecvVerdict::Execute { ack_due } => self.execute_write(view, ack_due, ctx),
        }
    }

    fn execute_write(&mut self, view: &RoceView<'_>, ack_due: bool, ctx: &mut Context<'_>) {
        let to @ (qpn, _, src_ip) = (view.dest_qp(), view.psn(), view.src_ip());
        let qp = self.qps.get_mut(&qpn.masked()).expect("checked");
        let len = view.payload_len() as u64;
        // Resolve the landing address and what the message still owes:
        // from the RETH on first/only packets, from the cursor on
        // middle/last.
        let (va, rkey, owed, first) = match (view.reth(), qp.write_cursor()) {
            (Some(reth), _) => (reth.va, reth.rkey, u64::from(reth.dma_len), reth.va),
            (None, Some(cursor)) => (cursor.va, cursor.rkey, cursor.remaining, cursor.first),
            (None, None) => {
                self.send_nak(to, NakCode::InvalidRequest, ctx);
                return;
            }
        };
        // Maintain the cursor for subsequent packets of this message. The
        // addresses and lengths are the requester's: a packet that runs
        // past the address space or past the length its message declared,
        // or a last packet that leaves part of it owed, ends the message
        // with a NAK, like any out-of-bounds write.
        let last = view.opcode().ends_message();
        let next = match (va.checked_add(len), owed.checked_sub(len)) {
            (None, _) => Err(NakCode::RemoteAccessError),
            (_, None) => Err(NakCode::InvalidRequest),
            (Some(_), Some(0)) if last => Ok(None),
            (Some(_), Some(_)) if last => Err(NakCode::InvalidRequest),
            (Some(va), Some(remaining)) => Ok(Some(WriteCursor {
                va,
                rkey,
                remaining,
                first,
            })),
        };
        qp.set_write_cursor(next.unwrap_or(None));
        let landing = next.and_then(|_| {
            let checked = self.mem.check_write(src_ip, qpn, rkey, va, len);
            checked.map_err(|_| NakCode::RemoteAccessError)
        });
        match landing {
            Ok((region, offset)) => {
                self.land(qpn.masked(), region, offset, view);
                let message = offset.saturating_sub(va - first)..offset + len;
                self.notify_remote_write(region, message, last, ctx);
                if ack_due {
                    self.send_ack(to, ctx);
                }
            }
            Err(code) => {
                // The message ends here; what of it executed lands now.
                self.place_parked();
                self.send_nak(to, code, ctx);
            }
        }
    }

    /// Lands an executed write packet at `offset` in `region`: it joins
    /// the parked run if it continues it (same queue pair, next address,
    /// next slice of the same sender buffer); else the run is placed and
    /// it starts a new one. A message's last packet places the run, so a
    /// message lands with one copy, straight from the frames' payload.
    fn land(&mut self, qpn: u32, region: RegionHandle, offset: u64, view: &RoceView<'_>) {
        let at = (qpn, region, offset);
        let payload = match &mut self.parked {
            Some(p) if (p.at.0, p.at.1, p.at.2 + p.data.len() as u64) == at => {
                p.data.try_unsplit(view.payload()).err()
            }
            _ => Some(view.payload()),
        };
        if let Some(data) = payload {
            self.place_parked();
            self.parked = Some(Parked { at, data });
        }
        if view.opcode().ends_message() {
            self.place_parked();
        }
    }

    /// Copies the parked run into host memory — before anything that could
    /// read or write it: an app callback ([`Host::ops`]), a non-write packet.
    fn place_parked(&mut self) {
        if let Some(Parked { at, data }) = self.parked.take() {
            self.mem.write_local(at.1, at.2 as usize, &data);
        }
    }

    fn execute_read(&mut self, view: &RoceView<'_>, ctx: &mut Context<'_>) {
        let to @ (_, _, src_ip) = (view.dest_qp(), view.psn(), view.src_ip());
        let reth = view.reth().expect("read request carries RETH");
        match self
            .mem
            .remote_read(src_ip, reth.rkey, reth.va, u64::from(reth.dma_len))
        {
            Ok(data) => {
                let kind = AethKind::Ack {
                    credits: self.credits(),
                };
                self.respond(to, Opcode::ReadResponseOnly, kind, data, ctx);
            }
            Err(_) => self.send_nak(to, NakCode::RemoteAccessError, ctx),
        }
    }

    fn process_ack(&mut self, qpn: Qpn, psn: Psn, aeth: Aeth, ctx: &mut Context<'_>) {
        match aeth.kind {
            AethKind::Ack { credits } => {
                self.cfg.tracer.emit(ctx.now, || TraceEvent::AckRx {
                    qpn: u64::from(qpn.masked()),
                    psn: u64::from(psn.value()),
                    credits: u64::from(credits),
                });
                let mut done = std::mem::take(&mut self.ack_done);
                self.with_qp(qpn.masked(), |qp| {
                    qp.handle_ack_into(psn, credits, &mut done);
                    if done.is_empty() {
                        qp.note_progress(psn, ctx.now);
                    }
                });
                for &(wr_id, _is_read) in &done {
                    self.complete(
                        Completion {
                            qpn,
                            wr_id,
                            status: CompletionStatus::Success,
                            credits,
                        },
                        ctx,
                    );
                }
                self.ack_done = done;
                self.kick_tx(ctx); // the window may have reopened
            }
            AethKind::Nak(code) => {
                self.cfg.tracer.emit(ctx.now, || TraceEvent::NakRx {
                    qpn: u64::from(qpn.masked()),
                    psn: u64::from(psn.value()),
                });
                // Surface the NAK to the application (P4CE's fallback
                // trigger) in parallel with transport-level recovery.
                let cost = self.cfg.reap_cost;
                self.enqueue_delivery(Delivery::Nak { qpn, code }, cost, ctx);
                let action = self.with_qp(qpn.masked(), |qp| qp.handle_nak(code));
                let failed = CompletionStatus::RemoteError(code);
                self.recover(qpn, action, RetransmitKind::Nak, failed, ctx);
            }
        }
    }

    fn process_read_response(
        &mut self,
        qpn: Qpn,
        psn: Psn,
        aeth: Aeth,
        payload: &[u8],
        ctx: &mut Context<'_>,
    ) {
        let AethKind::Ack { credits } = aeth.kind else {
            return;
        };
        let done = self.with_qp(qpn.masked(), |qp| qp.handle_ack(psn, credits));
        for (wr_id, is_read) in done {
            if is_read {
                if let Some((region, offset)) = self.read_landing.remove(&(qpn.masked(), wr_id.0)) {
                    // Read data must land in the caller's region buffer —
                    // the one delivery that is inherently a copy.
                    self.mem.write_local(region, offset, payload);
                    self.stats.rx_copied_deliveries += 1;
                }
            }
            self.complete(
                Completion {
                    qpn,
                    wr_id,
                    status: CompletionStatus::Success,
                    credits,
                },
                ctx,
            );
        }
        self.kick_tx(ctx);
    }

    fn process_cm(
        &mut self,
        src_ip: Ipv4Addr,
        payload: &[u8],
        port: PortId,
        ctx: &mut Context<'_>,
    ) {
        let Ok(msg) = CmMessage::decode(payload) else {
            self.stats.parse_drops += 1;
            return;
        };
        match msg {
            CmMessage::ConnectRequest {
                handshake_id,
                qpn,
                start_psn,
                private_data,
            } => {
                self.request_ports.insert(handshake_id, port);
                self.deliver_cm(
                    CmEvent::ConnectRequestReceived {
                        handshake_id,
                        from_ip: src_ip,
                        from_qpn: qpn,
                        start_psn,
                        private_data,
                    },
                    ctx,
                );
            }
            CmMessage::ConnectReply {
                handshake_id,
                qpn: remote_qpn,
                start_psn,
                private_data,
            } => {
                let Some(local_qpn) = self.initiated.remove(&handshake_id) else {
                    return; // unknown or duplicate reply
                };
                let peer = PeerInfo {
                    ip: src_ip,
                    qpn: remote_qpn,
                    start_psn,
                };
                if let Some(qp) = self.qps.get_mut(&local_qpn.masked()) {
                    qp.establish_requester(peer);
                    qp.port = port;
                }
                let rtu = CmMessage::ReadyToUse { handshake_id };
                self.send_cm(src_ip, &rtu, port, ctx);
                self.deliver_cm(
                    CmEvent::Connected {
                        handshake_id,
                        qpn: local_qpn,
                        peer_ip: src_ip,
                        private_data,
                    },
                    ctx,
                );
            }
            CmMessage::ReadyToUse { handshake_id } => {
                if let Some(local_qpn) = self.responding.remove(&handshake_id) {
                    if let Some(qp) = self.qps.get_mut(&local_qpn.masked()) {
                        qp.promote_to_rts();
                    }
                    self.deliver_cm(
                        CmEvent::Established {
                            handshake_id,
                            qpn: local_qpn,
                            peer_ip: src_ip,
                        },
                        ctx,
                    );
                }
            }
            CmMessage::ConnectReject {
                handshake_id,
                reason,
            } => {
                if let Some(local_qpn) = self.initiated.remove(&handshake_id) {
                    self.remove_qp(local_qpn.masked());
                    self.deliver_cm(
                        CmEvent::Rejected {
                            handshake_id,
                            reason,
                        },
                        ctx,
                    );
                }
            }
        }
    }
}

/// The operations an [`RdmaApp`] may perform from its callbacks.
pub struct HostOps<'a, 'c> {
    core: &'a mut HostCore,
    ctx: &'a mut Context<'c>,
}

impl HostOps<'_, '_> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// The bug the run carries, if any ([`netsim::Simulation::plant`]).
    pub fn planted(&self) -> Option<Planted> {
        self.ctx.planted()
    }

    /// The host's trace sink. Applications emit their protocol-level
    /// events (propose, decide, view change) through this so they share
    /// the NIC's node label — span assembly correlates the two by
    /// `(node, qpn, wr_id)`.
    pub fn tracer(&self) -> &Tracer {
        &self.core.cfg.tracer
    }

    /// Registers a memory region (see [`HostMemory::register`]).
    pub fn register_region(&mut self, len: usize, perms: Permissions) -> RegionHandle {
        self.core.mem.register(len, perms)
    }

    /// Public identity of a region.
    pub fn region_info(&self, region: RegionHandle) -> RegionInfo {
        self.core.mem.info(region)
    }

    /// Grants `peer` permissions on a region.
    pub fn grant(&mut self, region: RegionHandle, peer: Ipv4Addr, perms: Permissions) {
        self.core.mem.grant(region, peer, perms);
    }

    /// Revokes `peer`'s explicit grant on a region.
    pub fn revoke(&mut self, region: RegionHandle, peer: Ipv4Addr) {
        self.core.mem.revoke(region, peer);
    }

    /// Restricts which local queue pairs may write into `region`.
    pub fn set_allowed_writer_qpns(
        &mut self,
        region: RegionHandle,
        qpns: Option<std::collections::BTreeSet<u32>>,
    ) {
        self.core.mem.set_allowed_writer_qpns(region, qpns);
    }

    /// Requests [`RdmaApp::on_remote_write`] notifications for writes
    /// landing in `region`.
    pub fn watch_region(&mut self, region: RegionHandle) {
        self.core.watches.entry(region).or_insert(None);
    }

    /// Local read from a region.
    pub fn read_local(&self, region: RegionHandle, offset: usize, len: usize) -> &[u8] {
        self.core.mem.read_local(region, offset, len)
    }

    /// Local write into a region.
    pub fn write_local(&mut self, region: RegionHandle, offset: usize, data: &[u8]) {
        self.core.mem.write_local(region, offset, data);
    }

    /// Initiates a CM handshake towards `remote_ip`, returning the
    /// handshake id. A [`CmEvent::Connected`] or [`CmEvent::Rejected`]
    /// follows.
    pub fn connect(&mut self, remote_ip: Ipv4Addr, private_data: Bytes) -> u64 {
        let qpn = self.core.alloc_qpn();
        let start_psn = self.core.next_start_psn();
        let mut qp = QueuePair::new(qpn, start_psn, self.core.cfg.mtu, MAX_INFLIGHT);
        qp.begin_connect();
        let port = self.core.active_port;
        qp.port = port;
        self.core.insert_qp(qpn.masked(), qp);
        let handshake_id = (u64::from(u32::from_be_bytes(self.core.cfg.ip.octets())) << 24)
            | self.core.next_handshake;
        self.core.next_handshake += 1;
        self.core.initiated.insert(handshake_id, qpn);
        let msg = CmMessage::ConnectRequest {
            handshake_id,
            qpn,
            start_psn,
            private_data,
        };
        self.core.cpu.run(self.ctx.now, CM_COST);
        self.core.send_cm(remote_ip, &msg, port, self.ctx);
        handshake_id
    }

    /// Accepts an incoming connect request, creating the responder queue
    /// pair and sending the ConnectReply with `private_data` piggybacked.
    pub fn accept(
        &mut self,
        handshake_id: u64,
        from_ip: Ipv4Addr,
        from_qpn: Qpn,
        start_psn: Psn,
        private_data: Bytes,
    ) -> Qpn {
        let qpn = self.core.alloc_qpn();
        let local_psn = self.core.next_start_psn();
        let mut qp = QueuePair::new(qpn, local_psn, self.core.cfg.mtu, MAX_INFLIGHT);
        qp.establish_responder(PeerInfo {
            ip: from_ip,
            qpn: from_qpn,
            start_psn,
        });
        let port = self
            .core
            .request_ports
            .remove(&handshake_id)
            .unwrap_or(self.core.active_port);
        qp.port = port;
        self.core.insert_qp(qpn.masked(), qp);
        self.core.responding.insert(handshake_id, qpn);
        let msg = CmMessage::ConnectReply {
            handshake_id,
            qpn,
            start_psn: local_psn,
            private_data,
        };
        self.core.cpu.run(self.ctx.now, CM_COST);
        self.core.send_cm(from_ip, &msg, port, self.ctx);
        qpn
    }

    /// Rejects an incoming connect request.
    pub fn reject(&mut self, handshake_id: u64, from_ip: Ipv4Addr, reason: RejectReason) {
        let msg = CmMessage::ConnectReject {
            handshake_id,
            reason,
        };
        let port = self
            .core
            .request_ports
            .remove(&handshake_id)
            .unwrap_or(self.core.active_port);
        self.core.send_cm(from_ip, &msg, port, self.ctx);
    }

    /// Tears down a queue pair (e.g. when abandoning a connection after a
    /// fatal error). Outstanding requests flush.
    pub fn destroy_qp(&mut self, qpn: Qpn) {
        self.core.remove_qp(qpn.masked());
    }

    /// Switches the path used by *new* connections (multi-homed hosts:
    /// fail over to a backup fabric when the primary dies).
    pub fn set_active_port(&mut self, port: PortId) {
        self.core.active_port = port;
    }

    /// Posts a one-sided RDMA write. Charges the CPU for the post; the NIC
    /// picks the request up when the doorbell lands.
    pub fn post_write(
        &mut self,
        qpn: Qpn,
        wr_id: WrId,
        remote_va: u64,
        rkey: crate::types::RKey,
        data: Bytes,
    ) {
        self.post(
            qpn,
            WorkRequest::Write {
                wr_id,
                remote_va,
                rkey,
                data,
            },
        );
    }

    /// Posts a one-sided RDMA read landing in `local_region` at
    /// `local_offset`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the MTU (single-packet reads only in this
    /// model; the protocols only read small heartbeat words).
    #[allow(clippy::too_many_arguments)] // mirrors the verbs API shape
    pub fn post_read(
        &mut self,
        qpn: Qpn,
        wr_id: WrId,
        remote_va: u64,
        rkey: crate::types::RKey,
        len: u32,
        local_region: RegionHandle,
        local_offset: usize,
    ) {
        assert!(
            len as usize <= self.core.cfg.mtu,
            "reads larger than one MTU are not modelled"
        );
        self.core
            .read_landing
            .insert((qpn.masked(), wr_id.0), (local_region, local_offset));
        self.post(
            qpn,
            WorkRequest::Read {
                wr_id,
                remote_va,
                rkey,
                len,
                local_region,
                local_offset,
            },
        );
    }

    fn post(&mut self, qpn: Qpn, wr: WorkRequest) {
        let done = self.core.cpu.run(self.ctx.now, self.core.cfg.post_cost);
        let wr_id = wr.wr_id();
        self.core
            .cfg
            .tracer
            .emit(self.ctx.now, || TraceEvent::WqePost {
                qpn: u64::from(qpn.masked()),
                wr_id: wr_id.0,
            });
        match self.core.qps.get_mut(&qpn.masked()) {
            Some(qp) => {
                if qp.post(wr).is_err() {
                    self.core.complete(
                        Completion {
                            qpn,
                            wr_id,
                            status: CompletionStatus::Flushed,
                            credits: 0,
                        },
                        self.ctx,
                    );
                    return;
                }
                self.core.tx_ready.insert(qpn.masked());
            }
            None => {
                self.core.complete(
                    Completion {
                        qpn,
                        wr_id,
                        status: CompletionStatus::Flushed,
                        credits: 0,
                    },
                    self.ctx,
                );
                return;
            }
        }
        // The doorbell rings when the CPU finishes the post.
        self.ctx.schedule_at(done, TimerToken(TK_POST));
    }

    /// Arms an application timer; [`RdmaApp::on_timer`] fires with `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` uses the top eight bits (reserved for the host's
    /// internal multiplexing).
    pub fn set_app_timer(&mut self, after: SimDuration, token: u64) {
        assert_eq!(token & TK_CLASS_MASK, 0, "app timer token too large");
        self.ctx.schedule(after, TimerToken(TK_APP | token));
    }
}

/// A complete RDMA host node: application + CPU + NIC + memory.
pub struct Host<A: RdmaApp> {
    core: HostCore,
    app: A,
}

impl<A: RdmaApp> Host<A> {
    /// Builds a host with configuration `cfg` running `app`.
    pub fn new(cfg: HostConfig, app: A) -> Self {
        Host {
            core: HostCore::new(cfg),
            app,
        }
    }

    /// The application, for post-run inspection.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the application (e.g. to inject workload
    /// parameters between runs).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Host-level counters.
    pub fn stats(&self) -> HostStats {
        self.core.stats
    }

    /// Read-only view of the host's registered memory — invariant
    /// checkers audit region permissions through this without involving
    /// the (simulated) host CPU.
    ///
    /// The NIC places a write message once, when its last packet executes
    /// or before anything in the simulation could read it (DESIGN §5). Read
    /// from here while a message is open, its executed packets may not be
    /// in yet: the host's next app callback or non-write packet places them.
    pub fn memory(&self) -> &HostMemory {
        &self.core.mem
    }

    /// This host's IP.
    pub fn ip(&self) -> Ipv4Addr {
        self.core.cfg.ip
    }

    /// Handshakes the connection manager still tracks: requests waiting
    /// for the app's accept or reject, connects waiting for a reply,
    /// accepts waiting for ReadyToUse. Refused and unknown-handshake
    /// datagrams must never grow it.
    pub fn open_handshakes(&self) -> usize {
        self.core.request_ports.len() + self.core.initiated.len() + self.core.responding.len()
    }

    /// Total CPU busy time.
    pub fn cpu_busy(&self) -> SimDuration {
        self.core.cpu.busy_time()
    }

    /// Runs a closure over the application with live [`HostOps`] — the
    /// hook experiment harnesses use (via
    /// `netsim::Simulation::with_node`) to inject actions mid-run, e.g.
    /// forcing a communication rebuild.
    pub fn with_ops<R>(
        &mut self,
        ctx: &mut Context<'_>,
        f: impl FnOnce(&mut A, &mut HostOps<'_, '_>) -> R,
    ) -> R {
        let mut ops = Self::ops(&mut self.core, ctx);
        f(&mut self.app, &mut ops)
    }

    /// The one [`HostOps`] constructor: every app callback goes through
    /// it, so what is parked is placed before the app can look.
    fn ops<'a, 'c>(core: &'a mut HostCore, ctx: &'a mut Context<'c>) -> HostOps<'a, 'c> {
        core.place_parked();
        HostOps { core, ctx }
    }

    fn maybe_arm_retransmit(&mut self, ctx: &mut Context<'_>) {
        debug_assert_eq!(
            self.core.qps_inflight,
            (self.core.qps.values())
                .filter(|qp| qp.inflight_len() > 0)
                .count(),
            "qps_inflight out of step with the queue pairs"
        );
        if !self.core.rt_tick_armed && self.core.qps_inflight > 0 {
            self.core.rt_tick_armed = true;
            ctx.schedule(RETRANSMIT_TIMEOUT, TimerToken(TK_RETRANSMIT));
        }
    }
}

impl<A: RdmaApp> Node for Host<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut ops = Self::ops(&mut self.core, ctx);
        self.app.on_start(&mut ops);
        self.maybe_arm_retransmit(ctx);
    }

    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>) {
        // Classify by the BTH opcode byte alone: *request-starting*
        // packets (write-first/only, read request, send) consume a
        // receive-buffer slot — the unit the credit count advertises.
        // Middle/last packets belong to an already-admitted request, and
        // responses consume nothing. A full buffer tail-drops new
        // requests — what happens on real NICs when a sender ignores the
        // advertised credits.
        let is_request = matches!(
            peek_opcode(&frame),
            Some(Opcode::WriteFirst | Opcode::WriteOnly | Opcode::ReadRequest | Opcode::SendOnly)
        );
        if is_request && self.core.rx_request_backlog >= self.core.cfg.rx_capacity {
            self.core.stats.rx_overflow_drops += 1;
            return;
        }
        self.core.rx_request_backlog += usize::from(is_request);
        self.core.rx_queue.push_back((port, frame, is_request));
        if !self.core.rx_busy {
            self.core.rx_busy = true;
            ctx.schedule(self.core.cfg.nic_rx_cost, TimerToken(TK_RX));
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        let class = token.0 & TK_CLASS_MASK;
        let data = token.0 & TK_DATA_MASK;
        match class {
            TK_NIC_TX => {
                self.core.tx_busy = false;
                if let Some((port, frame)) = self.core.tx_fifo.pop_front() {
                    self.core.stats.packets_sent += 1;
                    ctx.send(port, frame);
                }
                self.core.kick_tx(ctx);
                self.maybe_arm_retransmit(ctx);
            }
            TK_RX => {
                if let Some((port, frame, is_request)) = self.core.rx_queue.pop_front() {
                    self.core.rx_request_backlog -= usize::from(is_request);
                    self.core.process_packet(port, frame, ctx);
                }
                if self.core.rx_queue.is_empty() {
                    self.core.rx_busy = false;
                } else {
                    ctx.schedule(self.core.cfg.nic_rx_cost, TimerToken(TK_RX));
                }
                self.maybe_arm_retransmit(ctx);
            }
            TK_POST => {
                self.core.kick_tx(ctx);
                self.maybe_arm_retransmit(ctx);
            }
            TK_DELIVER => {
                let queued = self.core.deliveries.len() as u64;
                debug_assert_eq!(
                    data,
                    self.core.next_delivery.wrapping_sub(queued) & TK_DATA_MASK,
                    "TK_DELIVER fired out of enqueue order"
                );
                let Some(delivery) = self.core.deliveries.pop_front() else {
                    return;
                };
                let mut ops = Self::ops(&mut self.core, ctx);
                match delivery {
                    Delivery::Completion(c) => self.app.on_completion(c, &mut ops),
                    Delivery::Cm(ev) => self.app.on_cm_event(ev, &mut ops),
                    Delivery::RemoteWrite { region, dirty } => {
                        // Cleared first: a packet landing from here on
                        // (even one the callback provokes) queues afresh.
                        *ops.core.watches.get_mut(&region).expect("watched") = None;
                        self.app.on_remote_write(region, dirty, &mut ops)
                    }
                    Delivery::Nak { qpn, code } => self.app.on_nak(qpn, code, &mut ops),
                }
                self.maybe_arm_retransmit(ctx);
            }
            TK_APP => {
                let mut ops = Self::ops(&mut self.core, ctx);
                self.app.on_timer(data, &mut ops);
                self.maybe_arm_retransmit(ctx);
            }
            TK_RETRANSMIT => {
                self.core.rt_tick_armed = false;
                // Ascending-QPN order (from the maintained index): the
                // retransmit sweep emits frames, so its order is part of
                // the deterministic event sequence.
                for i in 0..self.core.qp_order.len() {
                    let qpn = self.core.qp_order[i];
                    let action = self.core.with_qp(qpn, |qp| {
                        qp.check_timeout(ctx.now, RETRANSMIT_TIMEOUT, RETRY_LIMIT)
                    });
                    let failed = CompletionStatus::TimedOut;
                    self.core
                        .recover(Qpn(qpn), action, RetransmitKind::Timeout, failed, ctx);
                }
                self.maybe_arm_retransmit(ctx);
            }
            _ => {}
        }
    }

    fn label(&self) -> String {
        format!("host {}", self.core.cfg.ip)
    }
}

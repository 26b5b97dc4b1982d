//! The reliable-connection queue pair state machine.
//!
//! This module is pure protocol logic: segmentation of work requests into
//! MTU-sized packets, PSN assignment, the flow-control window (bounded both
//! by the local limit and by the credits the responder advertises),
//! retransmission, and receive-side PSN sequencing. The NIC
//! ([`crate::host`]) drives it and performs the actual memory operations
//! and packet addressing.

use bytes::Bytes;
use netsim::{PortId, SimTime};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use crate::opcode::Opcode;
use crate::types::{Psn, Qpn, RKey};
use crate::verbs::{WorkRequest, WrId};
use crate::wire::{NakCode, Reth};

/// Lifecycle of a queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Created; not yet part of a handshake.
    Init,
    /// Initiator: ConnectRequest sent, awaiting ConnectReply.
    Connecting,
    /// Responder: ready to receive, awaiting ReadyToUse.
    ReadyToReceive,
    /// Fully established; may send and receive.
    ReadyToSend,
    /// A fatal error occurred; all requests flush.
    Error,
}

/// The remote end of a connection, learned during the CM handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    /// Remote IP address.
    pub ip: Ipv4Addr,
    /// Remote queue pair number (goes in the BTH of every packet we send).
    pub qpn: Qpn,
    /// The first PSN the remote will use towards us (initializes our
    /// expected PSN).
    pub start_psn: Psn,
}

/// One packet the QP wants transmitted, before addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketPlan {
    /// Transport opcode.
    pub opcode: Opcode,
    /// Assigned sequence number.
    pub psn: Psn,
    /// Whether the packet requests an acknowledgement.
    pub ack_req: bool,
    /// RDMA extended header, for message-starting packets.
    pub reth: Option<Reth>,
    /// Payload bytes.
    pub payload: Bytes,
}

#[derive(Debug)]
struct InflightMessage {
    wr_id: WrId,
    /// PSN of the first packet of the message.
    first_psn: Psn,
    /// PSN of the packet whose ACK completes the message.
    last_psn: Psn,
    /// Every packet, retained for retransmission.
    packets: Vec<PacketPlan>,
    /// When the message was last (re)transmitted in full.
    sent_at: SimTime,
    retries: u32,
    is_read: bool,
}

/// What the requester should do after a NAK or timeout.
#[derive(Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Nothing to do (e.g. stale NAK).
    None,
    /// Retransmit these packets.
    Retransmit(Vec<PacketPlan>),
    /// Give up: fail these work requests and move the QP to error state.
    Fatal(Vec<WrId>),
}

/// Receive-side verdict for an incoming request packet.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvVerdict {
    /// Packet is in order: execute it. `ack_due` tells the NIC to emit an
    /// acknowledgement after executing.
    Execute {
        /// Emit an ACK (with current credits) once the operation succeeds.
        ack_due: bool,
    },
    /// Already-seen packet (retransmission overlap): do not re-execute,
    /// but re-acknowledge so the requester can make progress.
    Duplicate,
    /// A gap in the PSN sequence: NAK with [`NakCode::PsnSequenceError`].
    OutOfOrder,
}

/// Progress of a multi-packet RDMA write on the responder side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteCursor {
    /// Where the next payload chunk lands.
    pub va: u64,
    /// The key presented by the first packet.
    pub rkey: RKey,
    /// Bytes still expected after this packet.
    pub remaining: u64,
    /// Where the message's first packet landed.
    pub first: u64,
}

/// A reliable-connection queue pair.
#[derive(Debug)]
pub struct QueuePair {
    qpn: Qpn,
    state: QpState,
    peer: Option<PeerInfo>,
    /// Where the connection's traffic leaves: the path it was established
    /// over, or the one its traffic last arrived on (path affinity).
    pub(crate) port: PortId,
    mtu: usize,
    // --- requester (send) side ---
    next_psn: Psn,
    start_psn: Psn,
    pending: VecDeque<WorkRequest>,
    inflight: VecDeque<InflightMessage>,
    remote_credits: u8,
    max_inflight: usize,
    // --- responder (receive) side ---
    epsn: Psn,
    msn: u32,
    write_cursor: Option<WriteCursor>,
}

impl QueuePair {
    /// Creates a queue pair in [`QpState::Init`].
    ///
    /// # Panics
    ///
    /// Panics if `mtu` is zero or `max_inflight` is zero.
    pub fn new(qpn: Qpn, start_psn: Psn, mtu: usize, max_inflight: usize) -> Self {
        assert!(mtu > 0, "mtu must be positive");
        assert!(max_inflight > 0, "window must allow at least one message");
        QueuePair {
            qpn,
            state: QpState::Init,
            peer: None,
            port: PortId::FIRST,
            mtu,
            next_psn: start_psn,
            start_psn,
            pending: VecDeque::new(),
            inflight: VecDeque::new(),
            remote_credits: max_inflight.min(31) as u8,
            max_inflight,
            epsn: Psn::new(0),
            msn: 0,
            write_cursor: None,
        }
    }

    /// This queue pair's number.
    pub fn qpn(&self) -> Qpn {
        self.qpn
    }

    /// Current lifecycle state.
    pub fn state(&self) -> QpState {
        self.state
    }

    /// The connected peer, if the handshake completed.
    pub fn peer(&self) -> Option<PeerInfo> {
        self.peer
    }

    /// The first PSN this side sends with (communicated in the handshake).
    pub fn start_psn(&self) -> Psn {
        self.start_psn
    }

    /// The most recent credit count advertised by the responder.
    pub fn remote_credits(&self) -> u8 {
        self.remote_credits
    }

    /// Number of messages posted but not yet transmitted.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of messages transmitted and awaiting acknowledgement.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// The most recently transmitted in-flight message as
    /// `(wr_id, first_psn, last_psn)` — what [`Self::next_message`] just
    /// pushed. Tracing uses this to correlate a work request with the PSN
    /// range it occupies on the wire.
    pub fn newest_inflight(&self) -> Option<(WrId, Psn, Psn)> {
        self.inflight
            .back()
            .map(|m| (m.wr_id, m.first_psn, m.last_psn))
    }

    /// Moves the QP into the connecting state (initiator half).
    pub fn begin_connect(&mut self) {
        debug_assert_eq!(self.state, QpState::Init);
        self.state = QpState::Connecting;
    }

    /// Installs the peer and opens the QP for receiving (responder half).
    pub fn establish_responder(&mut self, peer: PeerInfo) {
        self.peer = Some(peer);
        self.epsn = peer.start_psn;
        self.state = QpState::ReadyToReceive;
    }

    /// Installs the peer and opens the QP fully (initiator half, after the
    /// ConnectReply).
    pub fn establish_requester(&mut self, peer: PeerInfo) {
        self.peer = Some(peer);
        self.epsn = peer.start_psn;
        self.state = QpState::ReadyToSend;
    }

    /// Promotes a responder-side QP to fully established (on ReadyToUse).
    pub fn promote_to_rts(&mut self) {
        if self.state == QpState::ReadyToReceive {
            self.state = QpState::ReadyToSend;
        }
    }

    /// Moves the QP to the error state, flushing every queued and inflight
    /// request. Returns the flushed work request ids.
    pub fn fail(&mut self) -> Vec<WrId> {
        self.state = QpState::Error;
        let mut flushed: Vec<WrId> = self.inflight.drain(..).map(|m| m.wr_id).collect();
        flushed.extend(self.pending.drain(..).map(|w| w.wr_id()));
        flushed
    }

    /// Queues a work request for transmission.
    ///
    /// # Errors
    ///
    /// Returns the request back if the QP is not in
    /// [`QpState::ReadyToSend`].
    pub fn post(&mut self, wr: WorkRequest) -> Result<(), WorkRequest> {
        if self.state != QpState::ReadyToSend {
            return Err(wr);
        }
        self.pending.push_back(wr);
        Ok(())
    }

    /// The effective send window: bounded by the local cap and by the
    /// responder's advertised credits (never below one so the window can
    /// reopen — a zero-credit responder still refreshes credits on the ACK
    /// of the single allowed probe).
    fn window(&self) -> usize {
        self.max_inflight.min((self.remote_credits as usize).max(1))
    }

    /// `true` if [`QueuePair::next_message`] would yield packets.
    pub fn has_ready_message(&self) -> bool {
        self.state == QpState::ReadyToSend
            && !self.pending.is_empty()
            && self.inflight.len() < self.window()
    }

    /// Segments the next pending work request into packets, registers it as
    /// inflight, and returns the packets for transmission.
    ///
    /// Returns `None` when there is nothing to send or the window is full.
    pub fn next_message(&mut self, now: SimTime) -> Option<Vec<PacketPlan>> {
        if !self.has_ready_message() {
            return None;
        }
        let wr = self.pending.pop_front().expect("checked non-empty");
        let wr_id = wr.wr_id();
        let (packets, is_read) = match wr {
            WorkRequest::Write {
                remote_va,
                rkey,
                data,
                ..
            } => (self.segment_write(remote_va, rkey, data), false),
            WorkRequest::Read {
                remote_va,
                rkey,
                len,
                ..
            } => {
                let psn = self.take_psn();
                (
                    vec![PacketPlan {
                        opcode: Opcode::ReadRequest,
                        psn,
                        ack_req: true,
                        reth: Some(Reth {
                            va: remote_va,
                            rkey,
                            dma_len: len,
                        }),
                        payload: Bytes::new(),
                    }],
                    true,
                )
            }
        };
        let first_psn = packets.first().expect("at least one packet").psn;
        let last_psn = packets.last().expect("at least one packet").psn;
        self.inflight.push_back(InflightMessage {
            wr_id,
            first_psn,
            last_psn,
            packets: packets.clone(),
            sent_at: now,
            retries: 0,
            is_read,
        });
        Some(packets)
    }

    fn take_psn(&mut self) -> Psn {
        let p = self.next_psn;
        self.next_psn = self.next_psn.next();
        p
    }

    fn segment_write(&mut self, remote_va: u64, rkey: RKey, data: Bytes) -> Vec<PacketPlan> {
        let total = data.len();
        let dma_len = total as u32;
        if total <= self.mtu {
            let psn = self.take_psn();
            return vec![PacketPlan {
                opcode: Opcode::WriteOnly,
                psn,
                ack_req: true,
                reth: Some(Reth {
                    va: remote_va,
                    rkey,
                    dma_len,
                }),
                payload: data,
            }];
        }
        let mut packets = Vec::with_capacity(total.div_ceil(self.mtu));
        let mut off = 0;
        while off < total {
            let end = (off + self.mtu).min(total);
            let chunk = data.slice(off..end);
            let first = off == 0;
            let last = end == total;
            let opcode = if first {
                Opcode::WriteFirst
            } else if last {
                Opcode::WriteLast
            } else {
                Opcode::WriteMiddle
            };
            let psn = self.take_psn();
            // Long messages request intermediate acknowledgements so the
            // requester's retransmission timer observes progress (real RC
            // requesters do the same for multi-MTU transfers).
            let ack_req = last || (packets.len() % 16 == 15);
            packets.push(PacketPlan {
                opcode,
                psn,
                ack_req,
                reth: first.then_some(Reth {
                    va: remote_va,
                    rkey,
                    dma_len,
                }),
                payload: chunk,
            });
            off = end;
        }
        packets
    }

    /// Processes a positive acknowledgement for `psn` carrying `credits`.
    /// RDMA ACKs are cumulative: every inflight message whose last PSN is
    /// at or before `psn` completes. Returns `(wr_id, was_read)` per
    /// completed message, in order.
    pub fn handle_ack(&mut self, psn: Psn, credits: u8) -> Vec<(WrId, bool)> {
        let mut done = Vec::new();
        self.handle_ack_into(psn, credits, &mut done);
        done
    }

    /// [`QueuePair::handle_ack`] draining into a caller-owned buffer, so
    /// the per-ACK hot path reuses one allocation. `done` is cleared
    /// first.
    pub fn handle_ack_into(&mut self, psn: Psn, credits: u8, done: &mut Vec<(WrId, bool)>) {
        done.clear();
        self.remote_credits = credits;
        while let Some(front) = self.inflight.front() {
            let completes = front.last_psn == psn || front.last_psn.is_before(psn);
            if !completes {
                break;
            }
            let msg = self.inflight.pop_front().expect("front exists");
            done.push((msg.wr_id, msg.is_read));
        }
    }

    /// Notes transport progress: an intermediate acknowledgement within
    /// the oldest inflight message restarts its retransmission timer.
    pub fn note_progress(&mut self, psn: Psn, now: SimTime) {
        if let Some(front) = self.inflight.front_mut() {
            let within = (front.first_psn == psn || front.first_psn.is_before(psn))
                && psn.is_before(front.last_psn);
            if within {
                front.sent_at = now;
                front.retries = 0;
            }
        }
    }

    /// Processes a negative acknowledgement.
    pub fn handle_nak(&mut self, code: NakCode) -> RecoveryAction {
        match code {
            NakCode::PsnSequenceError => {
                // Go-back-N: retransmit everything inflight, oldest first.
                if self.inflight.is_empty() {
                    return RecoveryAction::None;
                }
                let mut pkts = Vec::new();
                for m in &self.inflight {
                    pkts.extend(m.packets.iter().cloned());
                }
                RecoveryAction::Retransmit(pkts)
            }
            NakCode::InvalidRequest
            | NakCode::RemoteAccessError
            | NakCode::RemoteOperationalError => {
                // Fatal for the connection: flush.
                RecoveryAction::Fatal(self.fail())
            }
        }
    }

    /// Checks the retransmission timer: if the oldest inflight message has
    /// been waiting longer than `timeout`, either retransmits it (bumping
    /// its retry count) or, past `retry_limit`, declares the connection
    /// dead.
    pub fn check_timeout(
        &mut self,
        now: SimTime,
        timeout: netsim::SimDuration,
        retry_limit: u32,
    ) -> RecoveryAction {
        let Some(oldest) = self.inflight.front_mut() else {
            return RecoveryAction::None;
        };
        if now.saturating_duration_since(oldest.sent_at) < timeout {
            return RecoveryAction::None;
        }
        if oldest.retries >= retry_limit {
            return RecoveryAction::Fatal(self.fail());
        }
        oldest.retries += 1;
        oldest.sent_at = now;
        RecoveryAction::Retransmit(oldest.packets.clone())
    }

    // ------------------------------------------------------------------
    // Responder side
    // ------------------------------------------------------------------

    /// Sequences an incoming request packet against the expected PSN.
    pub fn receive_sequence(&mut self, psn: Psn, opcode: Opcode, ack_req: bool) -> RecvVerdict {
        if psn == self.epsn {
            self.epsn = self.epsn.next();
            if opcode.ends_message() {
                self.msn = (self.msn + 1) & 0x00ff_ffff;
            }
            RecvVerdict::Execute {
                ack_due: ack_req || opcode.ends_message(),
            }
        } else if psn.is_before(self.epsn) {
            RecvVerdict::Duplicate
        } else {
            RecvVerdict::OutOfOrder
        }
    }

    /// Responder-side message sequence number (echoed in AETHs).
    pub fn msn(&self) -> u32 {
        self.msn
    }

    /// The write cursor for an in-progress multi-packet write.
    pub fn write_cursor(&self) -> Option<WriteCursor> {
        self.write_cursor
    }

    /// Updates the write cursor after executing a write packet.
    pub fn set_write_cursor(&mut self, cursor: Option<WriteCursor>) {
        self.write_cursor = cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rts_qp(mtu: usize, window: usize) -> QueuePair {
        let mut qp = QueuePair::new(Qpn(5), Psn::new(100), mtu, window);
        qp.begin_connect();
        qp.establish_requester(PeerInfo {
            ip: Ipv4Addr::new(10, 0, 0, 2),
            qpn: Qpn(9),
            start_psn: Psn::new(0),
        });
        qp
    }

    fn write_wr(id: u64, len: usize) -> WorkRequest {
        WorkRequest::Write {
            wr_id: WrId(id),
            remote_va: 0x1000,
            rkey: RKey(42),
            data: Bytes::from(vec![0xab; len]),
        }
    }

    #[test]
    fn small_write_is_a_single_only_packet() {
        let mut qp = rts_qp(1024, 16);
        qp.post(write_wr(1, 64)).expect("rts");
        let pkts = qp.next_message(SimTime::ZERO).expect("ready");
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].opcode, Opcode::WriteOnly);
        assert_eq!(pkts[0].psn, Psn::new(100));
        assert!(pkts[0].ack_req);
        assert_eq!(pkts[0].reth.expect("reth").dma_len, 64);
        assert_eq!(qp.inflight_len(), 1);
    }

    #[test]
    fn large_write_segments_first_middle_last() {
        let mut qp = rts_qp(1024, 16);
        qp.post(write_wr(1, 2500)).expect("rts");
        let pkts = qp.next_message(SimTime::ZERO).expect("ready");
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].opcode, Opcode::WriteFirst);
        assert_eq!(pkts[1].opcode, Opcode::WriteMiddle);
        assert_eq!(pkts[2].opcode, Opcode::WriteLast);
        assert_eq!(pkts[0].payload.len(), 1024);
        assert_eq!(pkts[2].payload.len(), 452);
        assert!(pkts[0].reth.is_some());
        assert!(pkts[1].reth.is_none());
        assert!(pkts[2].reth.is_none());
        // Only the last packet demands an ACK.
        assert!(!pkts[0].ack_req && !pkts[1].ack_req && pkts[2].ack_req);
        // Consecutive PSNs.
        assert_eq!(pkts[1].psn, pkts[0].psn.next());
        assert_eq!(pkts[2].psn, pkts[1].psn.next());
    }

    #[test]
    fn ack_completes_cumulatively() {
        let mut qp = rts_qp(1024, 16);
        for i in 0..3 {
            qp.post(write_wr(i, 64)).expect("rts");
        }
        let p0 = qp.next_message(SimTime::ZERO).expect("m0");
        let _p1 = qp.next_message(SimTime::ZERO).expect("m1");
        let p2 = qp.next_message(SimTime::ZERO).expect("m2");
        // Ack of the first message completes only it.
        let done = qp.handle_ack(p0[0].psn, 10);
        assert_eq!(done, vec![(WrId(0), false)]);
        // Cumulative ack of the last completes the remaining two.
        let done = qp.handle_ack(p2[0].psn, 10);
        assert_eq!(done, vec![(WrId(1), false), (WrId(2), false)]);
        assert_eq!(qp.inflight_len(), 0);
        assert_eq!(qp.remote_credits(), 10);
    }

    #[test]
    fn window_blocks_at_max_inflight() {
        let mut qp = rts_qp(1024, 2);
        for i in 0..3 {
            qp.post(write_wr(i, 8)).expect("rts");
        }
        assert!(qp.next_message(SimTime::ZERO).is_some());
        assert!(qp.next_message(SimTime::ZERO).is_some());
        assert!(qp.next_message(SimTime::ZERO).is_none(), "window full");
        assert_eq!(qp.pending_len(), 1);
    }

    #[test]
    fn advertised_credits_shrink_window() {
        let mut qp = rts_qp(1024, 16);
        for i in 0..5 {
            qp.post(write_wr(i, 8)).expect("rts");
        }
        let p0 = qp.next_message(SimTime::ZERO).expect("m0");
        // The responder advertises just 1 credit.
        qp.handle_ack(p0[0].psn, 1);
        assert!(qp.next_message(SimTime::ZERO).is_some());
        assert!(
            qp.next_message(SimTime::ZERO).is_none(),
            "credit window of 1 blocks a second inflight message"
        );
    }

    #[test]
    fn zero_credits_still_allow_one_probe() {
        let mut qp = rts_qp(1024, 16);
        qp.post(write_wr(0, 8)).expect("rts");
        qp.post(write_wr(1, 8)).expect("rts");
        let p0 = qp.next_message(SimTime::ZERO).expect("m0");
        qp.handle_ack(p0[0].psn, 0);
        assert!(
            qp.next_message(SimTime::ZERO).is_some(),
            "window never closes completely"
        );
    }

    #[test]
    fn fatal_nak_flushes_everything() {
        let mut qp = rts_qp(1024, 16);
        for i in 0..3 {
            qp.post(write_wr(i, 8)).expect("rts");
        }
        let _ = qp.next_message(SimTime::ZERO);
        let action = qp.handle_nak(NakCode::RemoteAccessError);
        match action {
            RecoveryAction::Fatal(ids) => {
                assert_eq!(ids, vec![WrId(0), WrId(1), WrId(2)]);
            }
            other => panic!("expected fatal, got {other:?}"),
        }
        assert_eq!(qp.state(), QpState::Error);
        assert!(qp.post(write_wr(9, 8)).is_err());
    }

    #[test]
    fn sequence_nak_retransmits_all_inflight() {
        let mut qp = rts_qp(1024, 16);
        qp.post(write_wr(0, 8)).expect("rts");
        qp.post(write_wr(1, 8)).expect("rts");
        let p0 = qp.next_message(SimTime::ZERO).expect("m0");
        let p1 = qp.next_message(SimTime::ZERO).expect("m1");
        match qp.handle_nak(NakCode::PsnSequenceError) {
            RecoveryAction::Retransmit(pkts) => {
                assert_eq!(pkts.len(), 2);
                assert_eq!(pkts[0].psn, p0[0].psn);
                assert_eq!(pkts[1].psn, p1[0].psn);
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn timeout_retransmits_then_gives_up() {
        let mut qp = rts_qp(1024, 16);
        qp.post(write_wr(0, 8)).expect("rts");
        let _ = qp.next_message(SimTime::ZERO);
        let timeout = netsim::SimDuration::from_micros(131);
        // Before the deadline: nothing.
        assert_eq!(
            qp.check_timeout(SimTime::from_micros(100), timeout, 2),
            RecoveryAction::None
        );
        // After: retransmit (twice), then fatal.
        let t1 = SimTime::from_micros(200);
        assert!(matches!(
            qp.check_timeout(t1, timeout, 2),
            RecoveryAction::Retransmit(_)
        ));
        let t2 = SimTime::from_micros(400);
        assert!(matches!(
            qp.check_timeout(t2, timeout, 2),
            RecoveryAction::Retransmit(_)
        ));
        let t3 = SimTime::from_micros(600);
        assert_eq!(
            qp.check_timeout(t3, timeout, 2),
            RecoveryAction::Fatal(vec![WrId(0)])
        );
        assert_eq!(qp.state(), QpState::Error);
    }

    #[test]
    fn responder_sequencing() {
        let mut qp = QueuePair::new(Qpn(7), Psn::new(500), 1024, 16);
        qp.establish_responder(PeerInfo {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            qpn: Qpn(3),
            start_psn: Psn::new(40),
        });
        assert_eq!(qp.state(), QpState::ReadyToReceive);
        assert_eq!(
            qp.receive_sequence(Psn::new(40), Opcode::WriteOnly, true),
            RecvVerdict::Execute { ack_due: true }
        );
        assert_eq!(qp.msn(), 1);
        // A gap.
        assert_eq!(
            qp.receive_sequence(Psn::new(42), Opcode::WriteOnly, true),
            RecvVerdict::OutOfOrder
        );
        // The expected one.
        assert_eq!(
            qp.receive_sequence(Psn::new(41), Opcode::WriteFirst, false),
            RecvVerdict::Execute { ack_due: false }
        );
        // A stale duplicate.
        assert_eq!(
            qp.receive_sequence(Psn::new(40), Opcode::WriteOnly, true),
            RecvVerdict::Duplicate
        );
        qp.promote_to_rts();
        assert_eq!(qp.state(), QpState::ReadyToSend);
    }

    #[test]
    fn read_request_is_single_packet_and_completes_as_read() {
        let mut qp = rts_qp(1024, 16);
        let mut mem = crate::memory::HostMemory::new(0);
        let region = mem.register(64, crate::types::Permissions::NONE);
        qp.post(WorkRequest::Read {
            wr_id: WrId(3),
            remote_va: 0x2000,
            rkey: RKey(7),
            len: 8,
            local_region: region,
            local_offset: 0,
        })
        .expect("rts");
        let pkts = qp.next_message(SimTime::ZERO).expect("ready");
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].opcode, Opcode::ReadRequest);
        let done = qp.handle_ack(pkts[0].psn, 16);
        assert_eq!(done, vec![(WrId(3), true)]);
    }
}

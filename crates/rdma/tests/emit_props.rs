//! The one encoder, judged from the wire: every class of frame a host
//! emits — CM request/reply/RTU/reject, write first/middle/last/only,
//! read request, read response, ACK, duplicate re-ACK, NAK, and a
//! retransmission — tapped as it leaves the NIC, equals a hand-built
//! `RocePacket { .. }.to_frame()` byte for byte and carries the
//! `verified` mark.

use bytes::Bytes;
use netsim::{FaultPlan, Frame, LinkSpec, NodeId, PortId, SimDuration, Simulation};
use proptest::prelude::*;
use rdma::{
    Aeth, AethKind, Bth, CmEvent, CmMessage, Completion, CompletionStatus, Host, HostConfig,
    HostOps, MacAddr, NakCode, Opcode, Permissions, Psn, Qpn, RdmaApp, RegionAdvert, RegionHandle,
    RejectReason, Reth, RocePacket, WrId, CM_QPN,
};
use std::net::Ipv4Addr;

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 4, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 4, 0, 2);
const REGION_LEN: usize = 1 << 16;

/// Connects twice at start — the second attempt is refused — and records
/// what comes back; the test body posts mid-run via `with_ops`.
#[derive(Default)]
struct Requester {
    handshakes: Vec<u64>,
    landing: Option<RegionHandle>,
    qpn: Option<Qpn>,
    advert: Option<RegionAdvert>,
    rejected: bool,
    completions: Vec<CompletionStatus>,
}

impl RdmaApp for Requester {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        self.landing = Some(ops.register_region(REGION_LEN, Permissions::NONE));
        for hello in [&b"ok"[..], b"no"] {
            let id = ops.connect(B_IP, Bytes::copy_from_slice(hello));
            self.handshakes.push(id);
        }
    }
    fn on_cm_event(&mut self, ev: CmEvent, _ops: &mut HostOps<'_, '_>) {
        match ev {
            CmEvent::Connected {
                qpn, private_data, ..
            } => {
                self.qpn = Some(qpn);
                self.advert = Some(RegionAdvert::decode(&private_data).expect("advert"));
            }
            CmEvent::Rejected { .. } => self.rejected = true,
            _ => {}
        }
    }
    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        self.completions.push(c.status);
    }
}

/// Accepts a request that says "ok", rejects any other, and records each
/// request's `(from_qpn, start_psn)` and the accepted one's local QPN.
#[derive(Default)]
struct Responder {
    region: Option<RegionHandle>,
    requests: Vec<(Qpn, Psn)>,
    accepted: Option<Qpn>,
}

impl RdmaApp for Responder {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        self.region = Some(ops.register_region(REGION_LEN, Permissions::READ_WRITE));
    }
    fn on_completion(&mut self, _c: Completion, _ops: &mut HostOps<'_, '_>) {}
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        let CmEvent::ConnectRequestReceived {
            handshake_id,
            from_ip,
            from_qpn,
            start_psn,
            private_data,
        } = ev
        else {
            return;
        };
        self.requests.push((from_qpn, start_psn));
        if &private_data[..] != b"ok" {
            ops.reject(handshake_id, from_ip, RejectReason::NotAuthorized);
            return;
        }
        let info = ops.region_info(self.region.expect("registered"));
        let advert = RegionAdvert {
            va: info.va,
            rkey: info.rkey,
            len: info.len,
        };
        let qpn = ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
        self.accepted = Some(qpn);
    }
}

/// What `src` puts around transport headers and a payload when it sends
/// from its queue pair `local_qpn` to `dst` (`None`: a CM datagram).
fn packet(
    (src, dst): (Ipv4Addr, Ipv4Addr),
    local_qpn: Option<Qpn>,
    bth: Bth,
    reth: Option<Reth>,
    aeth: Option<Aeth>,
    payload: Bytes,
) -> RocePacket {
    RocePacket {
        src_mac: MacAddr::for_ip(src),
        dst_mac: MacAddr::for_ip(dst),
        src_ip: src,
        dst_ip: dst,
        udp_src_port: 0xC000 | local_qpn.map_or(0, |q| q.masked() as u16 & 0x0fff),
        bth,
        reth,
        aeth,
        payload,
    }
}

fn cm(dir: (Ipv4Addr, Ipv4Addr), msg: CmMessage) -> RocePacket {
    let bth = Bth {
        opcode: Opcode::SendOnly,
        dest_qp: CM_QPN,
        psn: Psn::new(0),
        ack_req: false,
    };
    packet(dir, None, bth, None, None, msg.encode())
}

fn run(sim: &mut Simulation, micros: u64) {
    let until = sim.now() + SimDuration::from_micros(micros);
    sim.run_until(until);
}

/// Lets `f` post on the requester's connection: its queue pair, the
/// responder's advert and the local landing region for reads.
fn post(
    sim: &mut Simulation,
    a: NodeId,
    f: impl FnOnce(Qpn, RegionAdvert, RegionHandle, &mut HostOps<'_, '_>),
) {
    sim.with_node::<Host<Requester>, _>(a, |host, ctx| {
        host.with_ops(ctx, |app, ops| {
            let (qpn, adv) = (app.qpn.expect("connected"), app.advert.expect("connected"));
            f(qpn, adv, app.landing.expect("registered"), ops)
        })
    });
}

fn assert_wire(what: &str, tapped: &[(netsim::SimTime, Frame)], expected: &[RocePacket]) {
    let classes = |frames: &[(netsim::SimTime, Frame)]| -> Vec<String> {
        frames
            .iter()
            .map(|(_, f)| match RocePacket::parse(f) {
                Ok(p) => p.bth.opcode.to_string(),
                Err(e) => e.to_string(),
            })
            .collect()
    };
    assert_eq!(
        tapped.len(),
        expected.len(),
        "{what}: tapped {:?}",
        classes(tapped)
    );
    for (i, ((_, frame), pkt)) in tapped.iter().zip(expected).enumerate() {
        assert_eq!(
            frame.to_vec(),
            pkt.to_frame().to_vec(),
            "{what}: frame {i} ({}) is not the hand-built packet's serialization",
            pkt.bth.opcode
        );
        assert!(frame.is_verified(), "{what}: frame {i} lost its mark");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_emitted_frame_is_the_hand_built_packets_serialization(
        seed in any::<u64>(),
        mtu in prop_oneof![Just(256usize), Just(1024usize)],
        only_len in 0usize..=256,
        tail_len in 1usize..=256,
        read_len in 1u32..=256,
        fill in any::<u8>(),
    ) {
        let host = |ip: Ipv4Addr| HostConfig { mtu, ..HostConfig::new(ip) };
        let mut sim = Simulation::new(seed);
        let a = sim.add_node(Box::new(Host::new(host(A_IP), Requester::default())));
        let b = sim.add_node(Box::new(Host::new(host(B_IP), Responder::default())));
        sim.connect(a, b, LinkSpec::default());
        let a_tap = sim.tap(a, PortId::FIRST);
        let b_tap = sim.tap(b, PortId::FIRST);

        // Both handshakes: one accepted, one refused.
        run(&mut sim, 300);
        let only = Bytes::from(vec![fill; only_len]);
        let long = Bytes::from((0..2 * mtu + tail_len).map(|i| fill ^ i as u8).collect::<Vec<_>>());
        // One verb at a time, each run to completion, so every ACK
        // advertises an idle receive buffer.
        post(&mut sim, a, |qpn, adv, _, ops| {
            ops.post_write(qpn, WrId(1), adv.va, adv.rkey, only.clone());
        });
        run(&mut sim, 100);
        post(&mut sim, a, |qpn, adv, _, ops| {
            ops.post_write(qpn, WrId(2), adv.va + 512, adv.rkey, long.clone());
        });
        run(&mut sim, 100);
        post(&mut sim, a, |qpn, adv, landing, ops| {
            ops.post_read(qpn, WrId(3), adv.va + 512, adv.rkey, read_len, landing, 0);
        });
        run(&mut sim, 100);
        // The ACK of this write is lost: the requester times out and
        // retransmits, the responder sees a duplicate and re-ACKs.
        sim.set_fault_plan(b, PortId::FIRST, FaultPlan::new().loss(1.0));
        post(&mut sim, a, |qpn, adv, _, ops| {
            ops.post_write(qpn, WrId(4), adv.va, adv.rkey, only.clone());
        });
        run(&mut sim, 100);
        sim.clear_fault_plan(b, PortId::FIRST);
        run(&mut sim, 400);
        // Past the end of the region: NAK, and the queue pair is done.
        post(&mut sim, a, |qpn, adv, _, ops| {
            ops.post_write(qpn, WrId(5), adv.va + adv.len + 1, adv.rkey, only.clone());
        });
        run(&mut sim, 100);

        let req = sim.node_ref::<Host<Requester>>(a).app();
        let resp = sim.node_ref::<Host<Responder>>(b).app();
        prop_assert!(req.rejected);
        let ok = CompletionStatus::Success;
        let nak = CompletionStatus::RemoteError(NakCode::RemoteAccessError);
        prop_assert_eq!(&req.completions, &vec![ok, ok, ok, ok, nak]);
        let adv = req.advert.expect("connected");
        let (a_qpn, a_psn) = resp.requests[0];
        let (refused_qpn, refused_psn) = resp.requests[1];
        let b_qpn = resp.accepted.expect("accepted");
        // The responder's first PSN rides in the ConnectReply; the tap saw it.
        let reply = RocePacket::parse(&sim.tap_frames(b_tap)[0].1).expect("reply");
        let CmMessage::ConnectReply { start_psn: b_psn, .. } =
            CmMessage::decode(&reply.payload).expect("cm")
        else {
            panic!("the responder's first frame is its ConnectReply");
        };

        let (ab, ba) = ((A_IP, B_IP), (B_IP, A_IP));
        let request = |opcode, nth: u32, ack_req, reth, payload: Bytes| {
            let bth = Bth { opcode, dest_qp: b_qpn, psn: a_psn.advance(nth), ack_req };
            packet(ab, Some(a_qpn), bth, reth, None, payload)
        };
        let reth = |va, dma_len: usize| {
            Some(Reth { va, rkey: adv.rkey, dma_len: dma_len as u32 })
        };
        let lost_ack_write = request(Opcode::WriteOnly, 5, true, reth(adv.va, only_len), only.clone());
        let sent = [
            cm(ab, CmMessage::ConnectRequest {
                handshake_id: req.handshakes[0],
                qpn: a_qpn,
                start_psn: a_psn,
                private_data: Bytes::from_static(b"ok"),
            }),
            cm(ab, CmMessage::ConnectRequest {
                handshake_id: req.handshakes[1],
                qpn: refused_qpn,
                start_psn: refused_psn,
                private_data: Bytes::from_static(b"no"),
            }),
            cm(ab, CmMessage::ReadyToUse { handshake_id: req.handshakes[0] }),
            request(Opcode::WriteOnly, 0, true, reth(adv.va, only_len), only.clone()),
            request(Opcode::WriteFirst, 1, false, reth(adv.va + 512, long.len()), long.slice(..mtu)),
            request(Opcode::WriteMiddle, 2, false, None, long.slice(mtu..2 * mtu)),
            request(Opcode::WriteLast, 3, true, None, long.slice(2 * mtu..)),
            request(Opcode::ReadRequest, 4, true, reth(adv.va + 512, read_len as usize), Bytes::new()),
            lost_ack_write.clone(),
            lost_ack_write, // the retransmission: the same bytes again
            request(Opcode::WriteOnly, 6, true, reth(adv.va + adv.len + 1, only_len), only.clone()),
        ];
        assert_wire("requester", sim.tap_frames(a_tap), &sent);

        // Each response answers the request with PSN `nth`, after `msn`
        // completed messages, from an idle receive buffer.
        let response = |opcode, nth: u32, msn, kind, payload: Bytes| {
            let bth = Bth { opcode, dest_qp: a_qpn, psn: a_psn.advance(nth), ack_req: false };
            packet(ba, Some(b_qpn), bth, None, Some(Aeth { kind, msn }), payload)
        };
        let ack = AethKind::Ack { credits: host(B_IP).rx_capacity as u8 };
        let answered = [
            cm(ba, CmMessage::ConnectReply {
                handshake_id: req.handshakes[0],
                qpn: b_qpn,
                start_psn: b_psn,
                private_data: adv.encode(),
            }),
            cm(ba, CmMessage::ConnectReject {
                handshake_id: req.handshakes[1],
                reason: RejectReason::NotAuthorized,
            }),
            response(Opcode::Acknowledge, 0, 1, ack, Bytes::new()),
            response(Opcode::Acknowledge, 3, 2, ack, Bytes::new()),
            response(Opcode::ReadResponseOnly, 4, 3, ack, long.slice(..read_len as usize)),
            response(Opcode::Acknowledge, 5, 4, ack, Bytes::new()),
            response(Opcode::Acknowledge, 5, 4, ack, Bytes::new()), // the duplicate's re-ACK
            response(Opcode::Acknowledge, 6, 5, AethKind::Nak(NakCode::RemoteAccessError), Bytes::new()),
        ];
        assert_wire("responder", sim.tap_frames(b_tap), &answered);
    }
}

//! Properties of the one pipeline — ingress parser → ingress stage →
//! replication → egress stage → deparser — that hold for any program:
//! a later stage reads what an earlier stage wrote, the deparser emits
//! exactly the recorded rewrites, and every arriving frame is accounted
//! for exactly once.

use bytes::Bytes;
use netsim::{Context, Frame, LinkSpec, Node, PortId, SimTime, Simulation};
use proptest::prelude::*;
use rdma::{Aeth, AethKind, Bth, MacAddr, Opcode, Psn, Qpn, RKey, Reth, RewriteSet, RocePacket};
use std::net::Ipv4Addr;
use tofino::{
    EgressMeta, Headers, IngressMeta, IngressVerdict, L3Forwarder, PipelineOps, Switch,
    SwitchConfig, SwitchProgram,
};

const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const NEW_DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 77);
const NEW_QP: Qpn = Qpn(0x4242);

/// Sends its frames into port 0 at start; counts what comes back.
struct Feeder {
    frames: Vec<Frame>,
    received: usize,
}

impl Node for Feeder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for f in self.frames.drain(..) {
            ctx.send(PortId::FIRST, f);
        }
    }
    fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut Context<'_>) {
        self.received += 1;
    }
}

fn feeder(frames: Vec<Frame>) -> Box<Feeder> {
    Box::new(Feeder {
        frames,
        received: 0,
    })
}

fn packet(opcode: Opcode, payload: usize) -> RocePacket {
    let src_ip = Ipv4Addr::new(10, 0, 0, 1);
    RocePacket {
        src_mac: MacAddr::for_ip(src_ip),
        dst_mac: MacAddr::for_ip(SW_IP),
        src_ip,
        dst_ip: SW_IP,
        udp_src_port: 0xC123,
        bth: Bth {
            opcode,
            dest_qp: Qpn(0x11),
            psn: Psn::new(0x00ff_fffe),
            ack_req: opcode.is_write(),
        },
        reth: opcode.carries_reth().then_some(Reth {
            va: 0x1000,
            rkey: RKey(5),
            dma_len: payload as u32,
        }),
        aeth: opcode.carries_aeth().then_some(Aeth {
            kind: AethKind::Ack { credits: 9 },
            msn: 3,
        }),
        payload: Bytes::from((0..payload).map(|i| i as u8).collect::<Vec<u8>>()),
    }
}

/// Ingress re-addresses the packet; egress must *see* that (it asserts on
/// what it reads) and then rewrites the PSN relative to what it read.
#[derive(Default)]
struct TwoStage {
    egress_runs: u32,
}

impl SwitchProgram for TwoStage {
    fn ingress(
        &mut self,
        hdr: &mut Headers<'_>,
        _meta: IngressMeta,
        _ops: &dyn PipelineOps,
    ) -> IngressVerdict {
        assert_eq!(hdr.dst_ip(), SW_IP, "ingress reads the arrived header");
        hdr.rewrite(RewriteSet {
            dst_ip: Some(NEW_DST),
            dest_qp: Some(NEW_QP),
            ..RewriteSet::default()
        });
        IngressVerdict::Unicast(PortId::from_index(1))
    }

    fn egress(&mut self, hdr: &mut Headers<'_>, _meta: EgressMeta, _ops: &dyn PipelineOps) -> bool {
        assert_eq!(hdr.dst_ip(), NEW_DST, "egress reads the ingress rewrite");
        assert_eq!(hdr.dest_qp(), NEW_QP, "egress reads the ingress rewrite");
        hdr.rewrite(RewriteSet {
            psn: Some(hdr.psn().advance(5)),
            // An extension the packet lacks cannot be written.
            va: Some(0xdead),
            aeth: Some(Aeth {
                kind: AethKind::Ack { credits: 1 },
                msn: 8,
            }),
            ..RewriteSet::default()
        });
        self.egress_runs += 1;
        true
    }
}

#[test]
fn egress_reads_ingress_rewrites_and_the_deparser_emits_their_union() {
    let inputs = [
        packet(Opcode::WriteOnly, 300),
        packet(Opcode::WriteMiddle, 64),
        packet(Opcode::Acknowledge, 0),
        packet(Opcode::SendOnly, 17),
    ];
    let mut sim = Simulation::new(1);
    let src = sim.add_node(feeder(inputs.iter().map(RocePacket::to_frame).collect()));
    let dst = sim.add_node(feeder(Vec::new()));
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        2,
        TwoStage::default(),
    )));
    sim.connect(src, sw, LinkSpec::default());
    let (_, out_port) = sim.connect(dst, sw, LinkSpec::default());
    let tap = sim.tap(sw, out_port);
    sim.run_until(SimTime::from_millis(1));

    let emitted = sim.tap_frames(tap);
    assert_eq!(emitted.len(), inputs.len());
    for (pkt, (_, frame)) in inputs.iter().zip(emitted) {
        // The scalar reference: apply the union of both stages' rewrites
        // to the parsed packet and serialize from scratch.
        let rw = RewriteSet {
            dst_ip: Some(NEW_DST),
            dest_qp: Some(NEW_QP),
            psn: Some(pkt.bth.psn.advance(5)),
            va: Some(0xdead),
            aeth: Some(Aeth {
                kind: AethKind::Ack { credits: 1 },
                msn: 8,
            }),
            ..RewriteSet::default()
        };
        let mut expect = pkt.clone();
        rw.apply(&mut expect);
        assert_eq!(
            frame.to_vec(),
            expect.to_frame().to_vec(),
            "{}",
            pkt.bth.opcode
        );
        assert!(frame.is_verified(), "a verified input stays verified");
    }
    let switch = sim.node_ref::<Switch<TwoStage>>(sw);
    assert_eq!(switch.program().egress_runs, 4, "egress ran once per copy");
    let st = switch.stats();
    assert_eq!((st.forwarded, st.emitted_patched), (4, 4));
    assert_eq!(st.emitted_reserialized, 0);
    assert_eq!(sim.node_ref::<Feeder>(dst).received, 4);
}

#[test]
fn an_empty_delta_forwards_the_very_same_bytes() {
    let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
    let to_dst = |opcode, payload| RocePacket {
        dst_ip,
        ..packet(opcode, payload)
    };
    let verified = to_dst(Opcode::WriteOnly, 256).to_frame();
    // The same kind of bytes, but nobody vouches for their checksums.
    let raw = Frame::from(to_dst(Opcode::WriteLast, 64).to_frame().to_vec());

    let mut sim = Simulation::new(2);
    let src = sim.add_node(feeder(vec![verified.clone(), raw.clone()]));
    let dst = sim.add_node(feeder(Vec::new()));
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        2,
        L3Forwarder,
    )));
    sim.connect(src, sw, LinkSpec::default());
    let (_, out_port) = sim.connect(dst, sw, LinkSpec::default());
    sim.node_mut::<Switch<L3Forwarder>>(sw)
        .add_route(dst_ip, out_port);
    let tap = sim.tap(sw, out_port);
    sim.run_until(SimTime::from_millis(1));

    let emitted = sim.tap_frames(tap);
    assert_eq!(emitted.len(), 2);
    // Not equal payloads: the same allocation, so no copy and no CRC
    // work — the raw frame's payload is a slice of the bytes it came in.
    let raw_payload = &raw.payload()[raw.len() - 4 - 64..raw.len() - 4];
    for (out, sent) in [
        (&emitted[0].1, &verified.payload()[..]),
        (&emitted[1].1, raw_payload),
    ] {
        assert_eq!(out.payload().as_ptr_range(), sent.as_ptr_range());
    }
    assert_eq!(emitted[0].1, verified);
    assert_eq!(emitted[1].1, raw);
    assert!(emitted[0].1.is_verified(), "verified mark intact");
    assert!(!emitted[1].1.is_verified(), "unverified stays unverified");
}

fn arb_opcode_with_payload() -> impl Strategy<Value = (Opcode, usize)> {
    prop_oneof![
        (Just(Opcode::WriteOnly), 0..256usize),
        (Just(Opcode::WriteFirst), 1..256usize),
        (Just(Opcode::WriteMiddle), 1..256usize),
        (Just(Opcode::WriteLast), 1..256usize),
        (Just(Opcode::ReadRequest), Just(0usize)),
        (Just(Opcode::Acknowledge), Just(0usize)),
        (Just(Opcode::SendOnly), 0..256usize),
        (Just(Opcode::ReadResponseOnly), 0..256usize),
    ]
}

/// A valid packet with arbitrary header values, addressed to one of four
/// destinations of which the switch routes two.
fn arb_packet() -> impl Strategy<Value = RocePacket> {
    (
        (any::<u32>(), 0u8..4, any::<u16>()),
        arb_opcode_with_payload(),
        (any::<u32>(), any::<u32>(), any::<bool>()),
        (any::<u64>(), any::<u32>(), any::<u32>()),
        (0u8..32, any::<u32>(), any::<u8>()),
    )
        .prop_map(
            |(
                (src, dst, sport),
                (opcode, payload_len),
                (qpn, psn, ack_req),
                (va, rkey, dma_len),
                (credits, msn, fill),
            )| {
                let src_ip = Ipv4Addr::from(src);
                let dst_ip = Ipv4Addr::new(10, 0, 0, 1 + dst);
                RocePacket {
                    src_mac: MacAddr::for_ip(src_ip),
                    dst_mac: MacAddr::for_ip(dst_ip),
                    src_ip,
                    dst_ip,
                    udp_src_port: sport,
                    bth: Bth {
                        opcode,
                        dest_qp: Qpn(qpn & 0x00ff_ffff),
                        psn: Psn::new(psn),
                        ack_req,
                    },
                    reth: opcode.carries_reth().then_some(Reth {
                        va,
                        rkey: RKey(rkey),
                        dma_len,
                    }),
                    aeth: opcode.carries_aeth().then_some(Aeth {
                        kind: AethKind::Ack { credits },
                        msn: msn & 0x00ff_ffff,
                    }),
                    payload: Bytes::from(vec![fill; payload_len]),
                }
            },
        )
}

/// How one valid frame is damaged before it reaches the switch.
#[derive(Debug, Clone)]
enum Damage {
    None,
    FlipBit(prop::sample::Index),
    Truncate(prop::sample::Index),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        any::<prop::sample::Index>().prop_map(Damage::FlipBit),
        any::<prop::sample::Index>().prop_map(Damage::Truncate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Switch ingress, fed valid frames, single-bit-flipped copies and
    /// truncations: never panics, and every frame lands in exactly one
    /// counter — rejected by the parser, dropped by a verdict, tail-dropped
    /// by a parser queue, punted, or through the egress stage.
    #[test]
    fn every_arriving_frame_is_counted_exactly_once(
        traffic in prop::collection::vec((arb_packet(), arb_damage()), 1..120),
    ) {
        let frames: Vec<Frame> = traffic
            .iter()
            .map(|(pkt, damage)| {
                let frame = pkt.to_frame();
                match damage {
                    Damage::None => frame,
                    Damage::FlipBit(at) => {
                        let mut raw = frame.to_vec();
                        let bit = at.index(raw.len() * 8);
                        raw[bit / 8] ^= 1 << (bit % 8);
                        Frame::from(raw)
                    }
                    Damage::Truncate(at) => {
                        Frame::from(frame.to_vec()[..at.index(frame.len())].to_vec())
                    }
                }
            })
            .collect();
        let fed = frames.len() as u64;

        let mut sim = Simulation::new(3);
        let src = sim.add_node(feeder(frames));
        let dst = sim.add_node(feeder(Vec::new()));
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig::tofino1(SW_IP),
            2,
            L3Forwarder,
        )));
        let (_, back_port) = sim.connect(src, sw, LinkSpec::default());
        let (_, out_port) = sim.connect(dst, sw, LinkSpec::default());
        let switch = sim.node_mut::<Switch<L3Forwarder>>(sw);
        switch.add_route(Ipv4Addr::new(10, 0, 0, 1), back_port);
        switch.add_route(Ipv4Addr::new(10, 0, 0, 2), out_port);
        sim.run_until(SimTime::from_millis(5));

        let st = sim.node_ref::<Switch<L3Forwarder>>(sw).stats();
        let accounted = st.parse_errors
            + st.dropped_ingress
            + st.parser_overflow_drops
            + st.punted
            + st.forwarded
            + st.dropped_egress;
        prop_assert_eq!(accounted, fed, "{:?}", st);
        let delivered =
            sim.node_ref::<Feeder>(src).received + sim.node_ref::<Feeder>(dst).received;
        prop_assert_eq!(delivered as u64, st.forwarded);
        prop_assert_eq!(st.emitted_patched, st.forwarded);
        prop_assert_eq!(st.emitted_reserialized, 0);
    }
}

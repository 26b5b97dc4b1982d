//! Differential properties of the zero-copy fast path: for every packet
//! the stack can construct and every header rewrite the switch can apply,
//! stamping the serialized bytes must produce *exactly* the frame a full
//! re-serialization would — same IPv4 checksum, same ICRC, byte for
//! byte. This is the guard that lets the switch emit template-patched
//! copies without ever re-reading the payload — and, since a frame no
//! longer stores its ICRC but derives it when read, that whoever does
//! read one reads what an eager serializer ([`eager_wire`], which lives
//! only here) would have written.

use bytes::{BufMut, Bytes};
use netsim::rng::Rng;
use netsim::{FaultPlan, FaultStats, Frame, SimTime};
use proptest::prelude::*;
use rdma::wire::{crc32, ipv4_checksum, ParseError};
use rdma::{
    Aeth, AethKind, Bth, MacAddr, Opcode, PacketTemplate, Psn, Qpn, RKey, Reth, RewriteSet,
    RocePacket,
};
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

/// Each field independently present or absent (the vendored proptest has
/// no `option::of`, so build it from a coin flip).
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(present, v)| present.then_some(v))
}

fn arb_opcode_with_payload() -> impl Strategy<Value = (Opcode, usize)> {
    prop_oneof![
        (Just(Opcode::WriteOnly), 0..1024usize),
        (Just(Opcode::WriteFirst), 1..1024usize),
        (Just(Opcode::WriteMiddle), 1..1024usize),
        (Just(Opcode::WriteLast), 1..1024usize),
        (Just(Opcode::ReadRequest), Just(0usize)),
        (Just(Opcode::Acknowledge), Just(0usize)),
        (Just(Opcode::ReadResponseOnly), 0..1024usize),
    ]
}

fn arb_packet() -> impl Strategy<Value = RocePacket> {
    (
        (arb_ip(), arb_ip(), any::<u16>()),
        arb_opcode_with_payload(),
        (any::<u32>(), any::<u32>(), any::<bool>()),
        (any::<u64>(), any::<u32>(), any::<u32>()),
        (0u8..32, any::<u32>(), any::<u8>()),
    )
        .prop_map(
            |(
                (src_ip, dst_ip, sport),
                (opcode, payload_len),
                (qpn, psn, ack_req),
                (va, rkey, dma_len),
                (credits, msn, fill),
            )| {
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

/// An arbitrary rewrite set over every patchable field.
fn arb_rewrite() -> impl Strategy<Value = RewriteSet> {
    (
        (opt(arb_ip()), opt(arb_ip()), opt(arb_ip()), opt(arb_ip())),
        (opt(any::<u16>()), opt(any::<u32>()), opt(any::<u32>())),
        (opt(any::<u64>()), opt(any::<u32>())),
        opt((0u8..32, any::<u32>())),
    )
        .prop_map(
            |((src_mac_ip, dst_mac_ip, src_ip, dst_ip), (sport, qpn, psn), (va, rkey), aeth)| {
                RewriteSet {
                    src_mac: src_mac_ip.map(MacAddr::for_ip),
                    dst_mac: dst_mac_ip.map(MacAddr::for_ip),
                    src_ip,
                    dst_ip,
                    udp_src_port: sport,
                    dest_qp: qpn.map(|q| Qpn(q & 0x00ff_ffff)),
                    psn: psn.map(Psn::new),
                    va,
                    rkey: rkey.map(RKey),
                    aeth: aeth.map(|(credits, msn)| Aeth {
                        kind: AethKind::Ack { credits },
                        msn: msn & 0x00ff_ffff,
                    }),
                }
            },
        )
}

/// Drop RETH/AETH rewrites when the packet's opcode carries no such
/// extension, mirroring what a real switch program can do.
fn constrain(rw: RewriteSet, pkt: &RocePacket) -> RewriteSet {
    RewriteSet {
        va: rw.va.filter(|_| pkt.reth.is_some()),
        rkey: rw.rkey.filter(|_| pkt.reth.is_some()),
        aeth: rw.aeth.filter(|_| pkt.aeth.is_some()),
        ..rw
    }
}

/// The serializer as it was before frames shared their payload: every
/// byte of the wire image written front to back into one buffer, the
/// ICRC computed on the spot over pseudo-header, transport headers and
/// payload and stored behind them.
fn eager_wire(pkt: &RocePacket) -> Vec<u8> {
    let ext = if pkt.reth.is_some() { 16 } else { 0 } + if pkt.aeth.is_some() { 4 } else { 0 };
    let total = 14 + 20 + 8 + 12 + ext + pkt.payload.len() + 4;
    let mut buf = Vec::with_capacity(total);
    buf.put_slice(&pkt.dst_mac.0);
    buf.put_slice(&pkt.src_mac.0);
    buf.put_u16(0x0800);
    buf.put_slice(&[0x45, 0]);
    buf.put_u16((total - 14) as u16);
    buf.put_slice(&[0, 0, 0x40, 0, 64, 17, 0, 0]);
    buf.put_slice(&pkt.src_ip.octets());
    buf.put_slice(&pkt.dst_ip.octets());
    let cksum = ipv4_checksum(&buf[14..34]);
    buf[24..26].copy_from_slice(&cksum.to_be_bytes());
    buf.put_u16(pkt.udp_src_port);
    buf.put_u16(4791);
    buf.put_u16((total - 34) as u16);
    buf.put_u16(0);
    buf.put_u8(pkt.bth.opcode.to_wire());
    buf.put_u8(if pkt.bth.ack_req { 0x80 } else { 0 });
    buf.put_u16(0xffff);
    buf.put_u32(pkt.bth.dest_qp.masked());
    buf.put_u32(pkt.bth.psn.value());
    if let Some(reth) = &pkt.reth {
        buf.put_u64(reth.va);
        buf.put_u32(reth.rkey.0);
        buf.put_u32(reth.dma_len);
    }
    if let Some(aeth) = &pkt.aeth {
        let AethKind::Ack { credits } = aeth.kind else {
            unreachable!("the generator builds ACKs");
        };
        buf.put_u8(credits);
        buf.put_slice(&aeth.msn.to_be_bytes()[1..]);
    }
    buf.put_slice(&pkt.payload);
    let mut covered = Vec::with_capacity(total);
    covered.put_slice(&pkt.src_ip.octets());
    covered.put_slice(&pkt.dst_ip.octets());
    covered.put_u16(pkt.udp_src_port);
    covered.put_slice(&buf[42..]);
    buf.put_u32(crc32(&covered));
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Frames read the same: whatever a frame went through on its way —
    /// serialized, cloned, stamped by one switch, parsed and stamped by
    /// the next — the bytes an observer reads off it, ICRC included, are
    /// what serializing the rewritten packet eagerly gives, and they pass
    /// a parser that re-derives both checksums.
    #[test]
    fn a_lazily_trailed_frame_reads_as_the_eager_serialization(
        pkt in arb_packet(),
        rw in arb_rewrite(),
        rw2 in arb_rewrite(),
    ) {
        let (rw, rw2) = (constrain(rw, &pkt), constrain(rw2, &pkt));
        let frame = pkt.to_frame();
        prop_assert_eq!(frame.to_vec(), eager_wire(&pkt));
        prop_assert_eq!(frame.len(), eager_wire(&pkt).len());

        let template = PacketTemplate::from_packet(&pkt);
        let stamped = template.stamp(&rw).expect("stamp");
        let mut once = pkt.clone();
        rw.apply(&mut once);
        prop_assert_eq!(stamped.to_vec(), eager_wire(&once));
        prop_assert_eq!(stamped.clone().to_vec(), eager_wire(&once));
        // The copy took nothing from its source: same payload allocation,
        // and the template still reads as the packet it was built from.
        prop_assert_eq!(stamped.payload().as_ptr_range(), frame.payload().as_ptr_range());
        prop_assert_eq!(template.frame().to_vec(), eager_wire(&pkt));

        let view = RocePacket::parse_view(&stamped).expect("a stamped frame parses");
        let twice_stamped = view.to_template().stamp(&rw2).expect("stamp");
        let mut twice = once.clone();
        rw2.apply(&mut twice);
        prop_assert_eq!(twice_stamped.to_vec(), eager_wire(&twice));
        let reread = RocePacket::parse(&Frame::from(twice_stamped.to_vec()));
        prop_assert_eq!(reread, Ok(twice));
    }

    /// A frame through the fault injector's bit flip is never `verified`,
    /// so the flip meets the checks it can fail: a flipped ICRC-covered
    /// byte — the trailer itself included, which the injector had to
    /// derive to have something to flip — is refused, and only a flip in
    /// what no check covers (the MAC addresses, the UDP length and unused
    /// UDP checksum) still parses.
    #[test]
    fn a_corrupted_frame_is_never_verified(pkt in arb_packet(), seed in any::<u64>()) {
        let frame = pkt.to_frame();
        let plan = FaultPlan::new().corrupt(1.0);
        let (now, mut stats) = (SimTime::ZERO, FaultStats::default());
        let mut rng = Rng::new(seed);
        let delivered = plan.apply(now, now, frame.clone(), &mut rng, &mut stats);
        let (_, corrupt) = &delivered[0];
        prop_assert!(!corrupt.is_verified());
        prop_assert_eq!(corrupt.len(), frame.len());
        let (sent, got) = (frame.to_vec(), corrupt.to_vec());
        let flipped: Vec<usize> = (0..sent.len()).filter(|&i| sent[i] != got[i]).collect();
        prop_assert_eq!(flipped.len(), 1);
        let parsed = RocePacket::parse(corrupt);
        let unchecked = flipped[0] < 12 || (38..42).contains(&flipped[0]);
        prop_assert_eq!(parsed.is_ok(), unchecked, "byte {} flipped: {:?}", flipped[0], parsed);
        if flipped[0] >= sent.len() - 4 {
            prop_assert_eq!(parsed, Err(ParseError::BadIcrc));
        }
        // The original, still shared by everyone else, is untouched.
        prop_assert_eq!(frame.to_vec(), sent);
        prop_assert!(frame.is_verified());
    }

    /// The tentpole property: stamping serialized bytes is byte-identical
    /// to mutating the parsed packet and re-serializing from scratch —
    /// through the template the switch builds (from a validated view) and
    /// the one hosts build (from a packet).
    #[test]
    fn patch_equals_full_reserialization(pkt in arb_packet(), rw in arb_rewrite()) {
        let rw = constrain(rw, &pkt);
        let frame = pkt.to_frame();
        let view = RocePacket::parse_view(&frame).expect("parse");
        let patched = view.to_template().stamp(&rw).expect("stamp");

        let mut expect = pkt.clone();
        rw.apply(&mut expect);
        let full = expect.to_frame();

        prop_assert_eq!(patched.to_vec(), full.to_vec());
        prop_assert!(patched.is_verified(), "a verified input stays verified");
        let from_packet = PacketTemplate::from_packet(&pkt).stamp(&rw).expect("stamp");
        prop_assert_eq!(from_packet.to_vec(), full.to_vec());
        // An input whose checksums nobody vouched for stamps to the same
        // bytes and stays unvouched.
        let raw = Frame::from(frame.to_vec());
        let unverified = RocePacket::parse_view(&raw).expect("parse").to_template().stamp(&rw);
        let unverified = unverified.expect("stamp");
        prop_assert_eq!(unverified.to_vec(), full.to_vec());
        prop_assert!(!unverified.is_verified());
        // The patched frame must also parse (valid IPv4 checksum + ICRC)
        // back to exactly the rewritten packet — checksums re-derived, not
        // trusted from the serializer's mark.
        let back = RocePacket::parse(&Frame::from(patched.to_vec())).expect("parse patched");
        prop_assert_eq!(back, expect);
    }

    /// An empty rewrite is free: the output is the input — the same
    /// head, the same payload allocation, not a copy — with its
    /// verification mark.
    #[test]
    fn empty_rewrite_is_zero_copy(pkt in arb_packet()) {
        let frame = pkt.to_frame();
        let view = RocePacket::parse_view(&frame).expect("parse");
        let out = view.to_template().stamp(&RewriteSet::default()).expect("stamp");
        prop_assert_eq!(out.payload().as_ptr_range(), frame.payload().as_ptr_range());
        prop_assert_eq!(out.head(), frame.head());
        prop_assert!(out.is_verified());
        let template = PacketTemplate::from_packet(&pkt);
        let out = template.stamp(&RewriteSet::default()).expect("stamp");
        let shared = template.frame().payload();
        prop_assert_eq!(out.payload().as_ptr_range(), shared.as_ptr_range());
    }

    /// Garbage has one door, `parse_view` — a template, and so a patch,
    /// can only be built over a frame that passed it — and truncated
    /// frames never panic there; any frame cut into the headers is
    /// refused, and whatever is accepted stamps without panicking.
    #[test]
    fn patch_never_panics_on_garbage(
        pkt in arb_packet(),
        rw in arb_rewrite(),
        cut in any::<prop::sample::Index>(),
    ) {
        let frame = pkt.to_frame();
        let n = cut.index(frame.len());
        let cut_frame = Frame::from(frame.to_vec()[..n].to_vec());
        let parsed = RocePacket::parse_view(&cut_frame);
        if let Ok(view) = &parsed {
            let _ = view.to_template().stamp(&rw);
        }
        if n < rdma::wire::BASE_OVERHEAD {
            prop_assert!(parsed.is_err());
        }
    }
}

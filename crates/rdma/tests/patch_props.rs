//! Differential properties of the zero-copy fast path: for every packet
//! the stack can construct and every header rewrite the switch can apply,
//! stamping the serialized bytes must produce *exactly* the frame a full
//! re-serialization would — same IPv4 checksum, same ICRC, byte for
//! byte. This is the guard that lets the switch emit template-patched
//! copies without ever re-reading the payload.

use bytes::Bytes;
use netsim::Frame;
use proptest::prelude::*;
use rdma::wire::{crc32, crc32_combine};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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

        prop_assert_eq!(&*patched.data, &*full.data);
        prop_assert!(patched.is_verified(), "a verified input stays verified");
        let from_packet = PacketTemplate::from_packet(&pkt).stamp(&rw).expect("stamp");
        prop_assert_eq!(&*from_packet.data, &*full.data);
        // An input whose checksums nobody vouched for stamps to the same
        // bytes and stays unvouched.
        let raw = Frame::from(frame.data.to_vec());
        let unverified = RocePacket::parse_view(&raw).expect("parse").to_template().stamp(&rw);
        let unverified = unverified.expect("stamp");
        prop_assert_eq!(&*unverified.data, &*full.data);
        prop_assert!(!unverified.is_verified());
        // The patched frame must also parse (valid IPv4 checksum + ICRC)
        // back to exactly the rewritten packet — checksums re-derived, not
        // trusted from the serializer's mark.
        let back = RocePacket::parse(&Frame::from(patched.data.to_vec())).expect("parse patched");
        prop_assert_eq!(back, expect);
    }

    /// An empty rewrite is free: the output is the input — the same
    /// allocation, not a copy — with its verification mark.
    #[test]
    fn empty_rewrite_is_zero_copy(pkt in arb_packet()) {
        let frame = pkt.to_frame();
        let view = RocePacket::parse_view(&frame).expect("parse");
        let out = view.to_template().stamp(&RewriteSet::default()).expect("stamp");
        prop_assert_eq!((out.data.as_ptr(), out.data.len()), (frame.data.as_ptr(), frame.data.len()));
        prop_assert!(out.is_verified());
        let template = PacketTemplate::from_packet(&pkt);
        let out = template.stamp(&RewriteSet::default()).expect("stamp");
        let shared = &template.frame().data;
        prop_assert_eq!((out.data.as_ptr(), out.data.len()), (shared.as_ptr(), shared.len()));
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
        let cut_frame = Frame::from(frame.data[..n].to_vec());
        let parsed = RocePacket::parse_view(&cut_frame);
        if let Ok(view) = &parsed {
            let _ = view.to_template().stamp(&rw);
        }
        if n < rdma::wire::BASE_OVERHEAD {
            prop_assert!(parsed.is_err());
        }
    }

    /// CRC32 linearity — the identity the whole fast path rests on:
    /// crc(A ‖ B) == combine(crc(A), crc(B), |B|).
    #[test]
    fn crc32_combine_is_concatenation(
        a in prop::collection::vec(any::<u8>(), 0..512),
        b in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let whole = crc32(&[&a[..], &b[..]].concat());
        prop_assert_eq!(crc32_combine(crc32(&a), crc32(&b), b.len()), whole);
    }
}

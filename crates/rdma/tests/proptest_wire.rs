//! Property-based tests of the wire formats: every packet the stack can
//! construct must survive a serialize/parse round trip, and any
//! single-byte tamper of a covered field must be detected.

use bytes::Bytes;
use netsim::Frame;
use proptest::prelude::*;
use rdma::cm::{CmMessage, RejectReason, MAX_REQ_PRIVATE_DATA};
use rdma::{
    Aeth, AethKind, Bth, MacAddr, NakCode, Opcode, ParseError, Psn, Qpn, RKey, Reth, RocePacket,
};
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packet_roundtrip(pkt in arb_packet()) {
        let frame = pkt.to_frame();
        let back = RocePacket::parse(&frame).expect("round trip");
        prop_assert_eq!(back, pkt);
    }

    #[test]
    fn wire_len_is_exact(pkt in arb_packet()) {
        prop_assert_eq!(pkt.to_frame().len(), pkt.wire_len());
    }

    #[test]
    fn tampering_transport_bytes_is_detected(
        pkt in arb_packet(),
        tamper_at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = pkt.to_frame();
        let mut raw = frame.to_vec();
        // Tamper strictly inside the ICRC-covered region: BTH onward
        // (excluding the trailing ICRC itself).
        let start = 14 + 20 + 8;
        let end = raw.len() - 4;
        let idx = start + tamper_at.index(end - start);
        raw[idx] ^= 1 << bit;
        let result = RocePacket::parse(&Frame::from(raw));
        // Either the parse fails (ICRC/opcode/syndrome) or — never — it
        // silently yields different content.
        match result {
            Err(_) => {}
            Ok(parsed) => prop_assert_eq!(parsed, pkt, "tamper must not go unnoticed"),
        }
    }

    #[test]
    fn truncation_never_panics(pkt in arb_packet(), cut in any::<prop::sample::Index>()) {
        let frame = pkt.to_frame();
        let n = cut.index(frame.len());
        let result = RocePacket::parse(&Frame::from(frame.to_vec()[..n].to_vec()));
        prop_assert!(result.is_err());
    }

    #[test]
    fn cm_message_roundtrip(
        handshake_id in any::<u64>(),
        qpn in any::<u32>(),
        psn in any::<u32>(),
        pd in prop::collection::vec(any::<u8>(), 0..MAX_REQ_PRIVATE_DATA),
        variant in 0u8..4,
    ) {
        let msg = match variant {
            0 => CmMessage::ConnectRequest {
                handshake_id,
                qpn: Qpn(qpn & 0x00ff_ffff),
                start_psn: Psn::new(psn),
                private_data: Bytes::from(pd),
            },
            1 => CmMessage::ConnectReply {
                handshake_id,
                qpn: Qpn(qpn & 0x00ff_ffff),
                start_psn: Psn::new(psn),
                private_data: Bytes::from(pd),
            },
            2 => CmMessage::ReadyToUse { handshake_id },
            _ => CmMessage::ConnectReject {
                handshake_id,
                reason: RejectReason::NotAuthorized,
            },
        };
        prop_assert_eq!(CmMessage::decode(&msg.encode()).expect("round trip"), msg);
    }

    #[test]
    fn psn_advance_distance_inverse(start in any::<u32>(), n in 0u32..(1 << 23)) {
        let a = Psn::new(start);
        let b = a.advance(n);
        prop_assert_eq!(a.distance_to(b), n);
        if n > 0 {
            prop_assert!(a.is_before(b));
            prop_assert!(!b.is_before(a));
        }
    }

    #[test]
    fn psn_ordering_is_antisymmetric(x in any::<u32>(), y in any::<u32>()) {
        let a = Psn::new(x);
        let b = Psn::new(y);
        if a != b {
            // Exactly one direction holds unless they are diametrically
            // opposed in the 24-bit circle.
            let ab = a.is_before(b);
            let ba = b.is_before(a);
            if a.distance_to(b) != (1 << 23) {
                prop_assert_ne!(ab, ba);
            }
        } else {
            prop_assert!(!a.is_before(b));
        }
    }

    #[test]
    fn nak_codes_roundtrip_through_aeth(code_idx in 0usize..4) {
        let codes = [
            NakCode::PsnSequenceError,
            NakCode::InvalidRequest,
            NakCode::RemoteAccessError,
            NakCode::RemoteOperationalError,
        ];
        let code = codes[code_idx];
        let src_ip = Ipv4Addr::new(10, 0, 0, 1);
        let pkt = RocePacket {
            src_mac: MacAddr::for_ip(src_ip),
            dst_mac: MacAddr::for_ip(src_ip),
            src_ip,
            dst_ip: src_ip,
            udp_src_port: 1,
            bth: Bth {
                opcode: Opcode::Acknowledge,
                dest_qp: Qpn(2),
                psn: Psn::new(3),
                ack_req: false,
            },
            reth: None,
            aeth: Some(Aeth {
                kind: AethKind::Nak(code),
                msn: 0,
            }),
            payload: Bytes::new(),
        };
        let back = RocePacket::parse(&pkt.to_frame()).expect("parse");
        prop_assert_eq!(back.aeth.expect("aeth").kind, AethKind::Nak(code));
    }
}

#[test]
fn non_roce_port_is_classified_not_roce() {
    let src_ip = Ipv4Addr::new(10, 0, 0, 1);
    let pkt = RocePacket {
        src_mac: MacAddr::for_ip(src_ip),
        dst_mac: MacAddr::for_ip(src_ip),
        src_ip,
        dst_ip: src_ip,
        udp_src_port: 9,
        bth: Bth {
            opcode: Opcode::WriteOnly,
            dest_qp: Qpn(1),
            psn: Psn::new(0),
            ack_req: true,
        },
        reth: Some(Reth {
            va: 0,
            rkey: RKey(1),
            dma_len: 4,
        }),
        aeth: None,
        payload: Bytes::from_static(b"abcd"),
    };
    let mut raw = pkt.to_frame().to_vec();
    raw[14 + 20 + 2] = 0;
    raw[14 + 20 + 3] = 53; // dst port 53: DNS, not RoCE
    assert_eq!(
        RocePacket::parse(&Frame::from(raw)),
        Err(ParseError::NotRoce)
    );
}

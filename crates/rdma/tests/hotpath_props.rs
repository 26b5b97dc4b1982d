//! Differential properties of the per-packet hot-path kernels: every
//! fast kernel must agree *exactly* with the slow, obviously-correct
//! implementation it replaced.
//!
//! * the slice-by-8 CRC kernel against a bit-at-a-time
//!   reference,
//! * the borrowed-view parse against the owned-packet parse, including
//!   accept/reject parity on corrupted frames.

use bytes::Bytes;
use netsim::Frame;
use proptest::prelude::*;
use rdma::wire::{crc32, crc32_slice8_raw};
use rdma::{Aeth, AethKind, Bth, MacAddr, NakCode, Opcode, Psn, Qpn, RKey, Reth, RocePacket};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------
// CRC kernels vs the bit-at-a-time reference
// ---------------------------------------------------------------------

/// The textbook reflected CRC-32 (IEEE), one bit per step, operating on
/// the raw (pre-inversion) register like the table kernels do. Slow and
/// unarguable — the oracle for both fast kernels.
fn crc32_bitwise_raw(init: u32, data: &[u8]) -> u32 {
    let mut c = init;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xedb8_8320
            } else {
                c >> 1
            };
        }
    }
    c
}

/// Deterministic pseudo-random fill so the exhaustive length sweep does
/// not depend on proptest's generator.
fn lcg_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// Every length 0..=1024 (covering the empty input, the sub-8-byte tail
/// loop and the slice-by-8 main loop) agrees with the reference.
#[test]
fn crc_kernels_match_reference_for_all_lengths_0_to_1024() {
    for len in 0..=1024usize {
        let data = lcg_bytes(len, 0x9e37_79b9_7f4a_7c15 ^ len as u64);
        let oracle = crc32_bitwise_raw(0xffff_ffff, &data);
        assert_eq!(
            crc32_slice8_raw(0xffff_ffff, &data),
            oracle,
            "slice-by-8 diverges at len {len}"
        );
        // The public finalized form wraps the same kernel.
        assert_eq!(
            crc32(&data),
            !oracle,
            "finalized crc32 diverges at len {len}"
        );
    }
}

proptest! {
    /// Random contents and random (non-canonical) initial registers: the
    /// kernel is an exact drop-in for the reference at any register
    /// state, which is what lets the ICRC chain it over a frame's parts.
    #[test]
    fn crc_kernels_match_reference_on_random_input(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        init in any::<u32>(),
    ) {
        let oracle = crc32_bitwise_raw(init, &data);
        prop_assert_eq!(crc32_slice8_raw(init, &data), oracle);
    }
}

// ---------------------------------------------------------------------
// View parse vs owned parse
// ---------------------------------------------------------------------

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_aeth() -> impl Strategy<Value = Aeth> {
    let kind = prop_oneof![
        (0u8..32).prop_map(|credits| AethKind::Ack { credits }),
        Just(AethKind::Nak(NakCode::PsnSequenceError)),
        Just(AethKind::Nak(NakCode::RemoteAccessError)),
        Just(AethKind::Nak(NakCode::RemoteOperationalError)),
    ];
    // MSN is a 24-bit wire field: keep generated values representable so
    // round-trip equality is exact.
    (kind, 0u32..1 << 24).prop_map(|(kind, msn)| Aeth { kind, msn })
}

fn arb_opcode_with_payload() -> impl Strategy<Value = (Opcode, usize)> {
    prop_oneof![
        (Just(Opcode::WriteOnly), 0..512usize),
        (Just(Opcode::WriteFirst), 1..512usize),
        (Just(Opcode::WriteMiddle), 1..512usize),
        (Just(Opcode::WriteLast), 1..512usize),
        (Just(Opcode::ReadRequest), Just(0usize)),
        (Just(Opcode::Acknowledge), Just(0usize)),
        (Just(Opcode::SendOnly), 0..512usize),
        (Just(Opcode::ReadResponseOnly), 0..512usize),
    ]
}

fn arb_packet() -> impl Strategy<Value = RocePacket> {
    (
        (arb_ip(), arb_ip(), any::<u16>()),
        arb_opcode_with_payload(),
        (any::<u32>(), any::<u32>(), any::<bool>()),
        (any::<u64>(), any::<u32>(), any::<u32>()),
        (arb_aeth(), any::<u8>()),
    )
        .prop_map(
            |(
                (src_ip, dst_ip, sport),
                (opcode, payload_len),
                (qpn, psn, ack_req),
                (va, rkey, dma_len),
                (aeth, fill),
            )| {
                RocePacket {
                    src_mac: MacAddr::for_ip(src_ip),
                    dst_mac: MacAddr::for_ip(dst_ip),
                    src_ip,
                    dst_ip,
                    udp_src_port: sport,
                    bth: Bth {
                        opcode,
                        dest_qp: Qpn(qpn),
                        psn: Psn::new(psn),
                        ack_req,
                    },
                    reth: opcode.carries_reth().then_some(Reth {
                        va,
                        rkey: RKey(rkey),
                        dma_len,
                    }),
                    aeth: opcode.carries_aeth().then_some(aeth),
                    payload: Bytes::from(
                        (0..payload_len)
                            .map(|i| fill.wrapping_add(i as u8))
                            .collect::<Vec<u8>>(),
                    ),
                }
            },
        )
}

proptest! {
    /// On every frame the serializer can produce, the borrowed-header
    /// view reports exactly what the owned parse decodes — field by
    /// field, including payload bytes.
    #[test]
    fn parse_view_agrees_with_parse_on_valid_frames(pkt in arb_packet()) {
        let frame = pkt.to_frame();
        let owned = RocePacket::parse(&frame).expect("serializer output parses");
        let view = RocePacket::parse_view(&frame).expect("serializer output views");
        prop_assert_eq!(view.src_mac(), owned.src_mac);
        prop_assert_eq!(view.dst_mac(), owned.dst_mac);
        prop_assert_eq!(view.src_ip(), owned.src_ip);
        prop_assert_eq!(view.dst_ip(), owned.dst_ip);
        prop_assert_eq!(view.udp_src_port(), owned.udp_src_port);
        prop_assert_eq!(view.opcode(), owned.bth.opcode);
        prop_assert_eq!(view.dest_qp(), owned.bth.dest_qp);
        prop_assert_eq!(view.psn(), owned.bth.psn);
        prop_assert_eq!(view.ack_req(), owned.bth.ack_req);
        prop_assert_eq!(view.reth(), owned.reth);
        prop_assert_eq!(view.aeth(), owned.aeth);
        prop_assert_eq!(view.payload_len(), owned.payload.len());
        prop_assert_eq!(&view.payload()[..], &owned.payload[..]);
        // And the materialized forms round-trip identically.
        prop_assert_eq!(view.to_packet(), owned);
    }

    /// Accept/reject parity: a corrupted frame is rejected by the view
    /// parse iff the owned parse rejects it — the view path must never
    /// admit a packet the full parser would have dropped (or vice versa).
    #[test]
    fn parse_view_agrees_with_parse_on_corrupted_frames(
        pkt in arb_packet(),
        corrupt_at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
        truncate_to in any::<prop::sample::Index>(),
        mode in 0u8..2,
    ) {
        let good = pkt.to_frame();
        let mut bytes = good.to_vec();
        match mode {
            0 => {
                let i = corrupt_at.index(bytes.len());
                bytes[i] ^= flip;
            }
            _ => {
                let keep = truncate_to.index(bytes.len());
                bytes.truncate(keep);
            }
        }
        // An unverified frame: both parsers re-check everything.
        let frame = Frame::from(bytes);
        let owned = RocePacket::parse(&frame);
        let viewed = RocePacket::parse_view(&frame);
        match (owned, viewed) {
            (Ok(o), Ok(v)) => prop_assert_eq!(v.to_packet(), o),
            (Err(eo), Err(ev)) => prop_assert_eq!(ev, eo, "different rejection reasons"),
            (o, v) => prop_assert!(false, "parse {o:?} vs parse_view accept mismatch: {v:?}"),
        }
    }
}

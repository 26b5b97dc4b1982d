//! RoCE v2 wire format: Ethernet / IPv4 / UDP / BTH / RETH / AETH / ICRC.
//!
//! Every packet in the simulation is a real byte string in this format.
//! This matters for the reproduction: the P4CE switch program must parse
//! these bytes, rewrite addressing and RDMA fields, and *recompute the
//! integrity checksum* — the same work the paper's P4 deparser does.
//!
//! Layout (fields the paper's Table I manipulates are marked ★):
//!
//! ```text
//! Ethernet  dst(6) src(6) ethertype(2)=0x0800
//! IPv4      ver/ihl(1) dscp(1) totlen(2) id(2) frag(2) ttl(1) proto(1)=17
//!           checksum(2) src(4)★ dst(4)★
//! UDP       sport(2) dport(2)=4791 len(2) cksum(2)
//! BTH       opcode(1)★ flags(1,bit7=ack_req) pkey(2) resv(1) destqp(3)★
//!           resv(1) psn(3)★
//! [RETH]    va(8)★ rkey(4)★ dmalen(4)        (write-first/only, read-req)
//! [AETH]    syndrome(1)★ msn(3)              (ack, read-response)
//! payload   …
//! ICRC      crc32(4) over the pseudo-header + transport headers + payload
//! ```
//!
//! # A copy costs a header
//!
//! [`RocePacket::to_frame`] writes the headers into the frame's inline
//! head and shares the payload [`Bytes`]; the ICRC — a real CRC-32 (IEEE,
//! reflected) over pseudo-header, transport headers and payload — is the
//! frame's trailer, derived by [`icrc_trailer`] from the final bytes when
//! somebody reads it: a tap, the fault injector, a parser handed a frame
//! its builder does not vouch for. [`PacketTemplate::stamp`] applies a
//! [`RewriteSet`] — exactly the fields the paper's deparser rewrites
//! (addresses, UDP source port, QPN, PSN, VA, `R_key`, AETH) — by
//! mutating the affected bytes of a copy of the head and updating the
//! IPv4 checksum incrementally (RFC 1624). A [`PacketTemplate`] is a
//! validated frame plus what its parse extracted, so a multicast scatter
//! costs O(header) per copy: the payload is never copied, read or hashed.
//!
//! The AETH syndrome uses a simplified-but-faithful encoding: bits 7–5
//! select ACK (`000`), RNR NAK (`001`) or NAK (`011`); for ACKs the low five
//! bits carry the *credit count* (how many further requests the responder
//! can buffer — the field P4CE's gather logic must aggregate with a
//! minimum), for NAKs they carry the error code.

use bytes::{BufMut, Bytes};
use netsim::{Frame, FRAME_HEAD_MAX};
use std::error::Error;
use std::fmt;
use std::net::Ipv4Addr;

use crate::opcode::Opcode;
use crate::types::{MacAddr, Psn, Qpn, RKey, ROCE_UDP_PORT};

/// Ethernet header length.
pub const ETH_LEN: usize = 14;
/// IPv4 header length (no options).
pub const IPV4_LEN: usize = 20;
/// UDP header length.
pub const UDP_LEN: usize = 8;
/// Base transport header length.
pub const BTH_LEN: usize = 12;
/// RDMA extended transport header length.
pub const RETH_LEN: usize = 16;
/// ACK extended transport header length.
pub const AETH_LEN: usize = 4;
/// Invariant CRC length.
pub const ICRC_LEN: usize = 4;

/// Header bytes of a packet with neither RETH nor AETH, including ICRC.
pub const BASE_OVERHEAD: usize = ETH_LEN + IPV4_LEN + UDP_LEN + BTH_LEN + ICRC_LEN;

/// The maximum credit count representable in the 5-bit AETH field.
pub const MAX_CREDITS: u8 = 31;

/// Negative-acknowledge codes (AETH syndrome low bits when NAK).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NakCode {
    /// PSN sequence error: the responder saw a gap.
    PsnSequenceError,
    /// The request was malformed for this queue pair.
    InvalidRequest,
    /// R_key / bounds / permission violation.
    RemoteAccessError,
    /// The responder failed internally.
    RemoteOperationalError,
}

impl NakCode {
    fn to_bits(self) -> u8 {
        match self {
            NakCode::PsnSequenceError => 0,
            NakCode::InvalidRequest => 1,
            NakCode::RemoteAccessError => 2,
            NakCode::RemoteOperationalError => 3,
        }
    }

    fn from_bits(v: u8) -> Option<NakCode> {
        Some(match v {
            0 => NakCode::PsnSequenceError,
            1 => NakCode::InvalidRequest,
            2 => NakCode::RemoteAccessError,
            3 => NakCode::RemoteOperationalError,
            _ => return None,
        })
    }
}

impl fmt::Display for NakCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NakCode::PsnSequenceError => "psn sequence error",
            NakCode::InvalidRequest => "invalid request",
            NakCode::RemoteAccessError => "remote access error",
            NakCode::RemoteOperationalError => "remote operational error",
        };
        f.write_str(s)
    }
}

/// The decoded AETH: a positive ACK carrying flow-control credits, or a NAK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AethKind {
    /// Positive acknowledgement; `credits` is the responder's current
    /// credit count (§II-A, "Congestion").
    Ack {
        /// How many further requests the responder can accept right now.
        credits: u8,
    },
    /// Negative acknowledgement with an error code.
    Nak(NakCode),
}

/// The ACK extended transport header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Aeth {
    /// ACK-or-NAK plus its argument.
    pub kind: AethKind,
    /// Message sequence number (24-bit, informational in this model).
    pub msn: u32,
}

impl Aeth {
    fn syndrome(&self) -> u8 {
        match self.kind {
            AethKind::Ack { credits } => credits.min(MAX_CREDITS),
            AethKind::Nak(code) => (0b011 << 5) | code.to_bits(),
        }
    }

    fn from_syndrome(syndrome: u8, msn: u32) -> Result<Aeth, ParseError> {
        let kind = match syndrome >> 5 {
            0b000 => AethKind::Ack {
                credits: syndrome & 0x1f,
            },
            0b011 => AethKind::Nak(
                NakCode::from_bits(syndrome & 0x1f).ok_or(ParseError::BadAethSyndrome(syndrome))?,
            ),
            _ => return Err(ParseError::BadAethSyndrome(syndrome)),
        };
        Ok(Aeth {
            kind,
            msn: msn & 0x00ff_ffff,
        })
    }
}

/// The RDMA extended transport header carried by write-first/write-only and
/// read-request packets: where the one-sided operation lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reth {
    /// Target virtual address in the remote region.
    pub va: u64,
    /// Authorization key for the remote region.
    pub rkey: RKey,
    /// Total message length in bytes (across all packets of the message).
    pub dma_len: u32,
}

/// The base transport header present in every RoCE packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bth {
    /// What this packet is (Table I, "Operation code").
    pub opcode: Opcode,
    /// Destination queue pair.
    pub dest_qp: Qpn,
    /// Packet sequence number.
    pub psn: Psn,
    /// Request an acknowledgement for this packet.
    pub ack_req: bool,
}

/// A fully-decoded RoCE v2 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RocePacket {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// UDP source port (RoCE uses it for ECMP entropy; we keep it stable
    /// per queue pair).
    pub udp_src_port: u16,
    /// Base transport header.
    pub bth: Bth,
    /// Present on write-first/write-only/read-request packets.
    pub reth: Option<Reth>,
    /// Present on ACK and read-response packets.
    pub aeth: Option<Aeth>,
    /// Message payload bytes carried by this packet.
    pub payload: Bytes,
}

impl RocePacket {
    /// Serialized length on the wire (Ethernet frame, before layer-1
    /// overhead).
    pub fn wire_len(&self) -> usize {
        BASE_OVERHEAD
            + if self.reth.is_some() { RETH_LEN } else { 0 }
            + if self.aeth.is_some() { AETH_LEN } else { 0 }
            + self.payload.len()
    }

    /// Serializes the packet to an Ethernet frame: headers (with the IPv4
    /// checksum) inline, the payload shared, the ICRC left to
    /// [`icrc_trailer`].
    ///
    /// # Panics
    ///
    /// Panics if the RETH/AETH presence contradicts the opcode (a
    /// construction bug, not a runtime condition).
    pub fn to_frame(&self) -> Frame {
        assert_eq!(
            self.reth.is_some(),
            self.bth.opcode.carries_reth(),
            "RETH presence must match opcode {}",
            self.bth.opcode
        );
        assert_eq!(
            self.aeth.is_some(),
            self.bth.opcode.carries_aeth(),
            "AETH presence must match opcode {}",
            self.bth.opcode
        );
        let total = self.wire_len();
        let mut head = [0u8; FRAME_HEAD_MAX];
        let mut buf = &mut head[..];

        // Ethernet
        buf.put_slice(&self.dst_mac.0);
        buf.put_slice(&self.src_mac.0);
        buf.put_u16(0x0800);

        // IPv4
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(0); // DSCP/ECN
        buf.put_u16((total - ETH_LEN) as u16);
        buf.put_u16(0); // identification
        buf.put_u16(0x4000); // don't fragment
        buf.put_u8(64); // TTL
        buf.put_u8(17); // UDP
        buf.put_u16(0); // checksum, filled in below
        buf.put_slice(&self.src_ip.octets());
        buf.put_slice(&self.dst_ip.octets());

        // UDP
        buf.put_u16(self.udp_src_port);
        buf.put_u16(ROCE_UDP_PORT);
        buf.put_u16((total - ETH_LEN - IPV4_LEN) as u16);
        buf.put_u16(0); // UDP checksum unused with RoCE

        // BTH
        buf.put_u8(self.bth.opcode.to_wire());
        buf.put_u8(if self.bth.ack_req { 0x80 } else { 0 });
        buf.put_u16(0xffff); // pkey: default partition
        buf.put_u32(self.bth.dest_qp.masked()); // 8 reserved bits + 24-bit QPN
        buf.put_u32(self.bth.psn.value()); // 8 reserved bits + 24-bit PSN

        // RETH / AETH
        if let Some(reth) = &self.reth {
            buf.put_u64(reth.va);
            buf.put_u32(reth.rkey.0);
            buf.put_u32(reth.dma_len);
        }
        if let Some(aeth) = &self.aeth {
            buf.put_u8(aeth.syndrome());
            buf.put_slice(&aeth.msn.to_be_bytes()[1..4]);
        }

        let head_len = FRAME_HEAD_MAX - buf.len();
        let cksum = ipv4_checksum(&head[IP_OFF..IP_OFF + IPV4_LEN]);
        head[IP_CKSUM_OFF..IP_CKSUM_OFF + 2].copy_from_slice(&cksum.to_be_bytes());
        // The IPv4 checksum was computed over these exact bytes just above
        // and the ICRC is derived from whatever they finally are: mark the
        // frame so receivers can skip re-deriving either.
        Frame::framed(&head[..head_len], self.payload.clone(), icrc_trailer, true)
    }

    /// Parses an Ethernet frame as a RoCE v2 packet, verifying the IPv4
    /// checksum and the ICRC.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformed layer. A
    /// frame that is well-formed IPv4/UDP but not addressed to the RoCE
    /// port yields [`ParseError::NotRoce`].
    pub fn parse(frame: &Frame) -> Result<RocePacket, ParseError> {
        // Validation lives in parse_view; materialization in to_packet.
        // Building parse on the view keeps the two in agreement by
        // construction: they accept exactly the same frames.
        Ok(RocePacket::parse_view(frame)?.to_packet())
    }

    /// Validates a frame as RoCE v2 and returns a borrowed header view —
    /// the same acceptance set as [`RocePacket::parse`] (structure,
    /// opcode, AETH syndrome, and, on unverified frames, IPv4 checksum
    /// and ICRC), but no owned struct is materialized: fields are read
    /// on demand at fixed offsets, and the payload only becomes a
    /// (zero-copy) [`Bytes`] slice if asked for. This is the RX dispatch
    /// fast path: most packets need two or three header fields, not a
    /// twelve-field decode.
    ///
    /// # Errors
    ///
    /// Same as [`RocePacket::parse`], in the same order.
    pub fn parse_view(frame: &Frame) -> Result<RoceView<'_>, ParseError> {
        // A frame this module built keeps its headers in the inline head;
        // anything else is raw bytes, headers first.
        let raw = frame.head().is_empty();
        let b = wire_head(frame);
        let total = frame.len();
        if total < BASE_OVERHEAD || b.len() < EXT_OFF {
            return Err(ParseError::TooShort);
        }
        let ethertype = u16::from_be_bytes([b[12], b[13]]);
        if ethertype != 0x0800 {
            return Err(ParseError::NotIpv4);
        }
        let ip = &b[ETH_LEN..];
        if ip[0] != 0x45 {
            return Err(ParseError::NotIpv4);
        }
        if ip[9] != 17 {
            return Err(ParseError::NotUdp);
        }
        if !frame.is_verified() && ipv4_checksum(&ip[..IPV4_LEN]) != 0 {
            return Err(ParseError::BadIpChecksum);
        }
        let udp = &b[ETH_LEN + IPV4_LEN..];
        let udp_dst_port = u16::from_be_bytes([udp[2], udp[3]]);
        if udp_dst_port != ROCE_UDP_PORT {
            return Err(ParseError::NotRoce);
        }

        let opcode_raw = b[TRANSPORT_OFF];
        let opcode = Opcode::from_wire(opcode_raw).ok_or(ParseError::BadOpcode(opcode_raw))?;

        // RETH and AETH never come together: the payload starts after
        // whichever one the opcode carries.
        let ext = match (opcode.carries_reth(), opcode.carries_aeth()) {
            (true, _) => RETH_LEN,
            (_, true) => AETH_LEN,
            _ => 0,
        };
        let off = EXT_OFF + ext;
        if total < off + ICRC_LEN || (if raw { b.len() < off } else { b.len() != off }) {
            return Err(ParseError::TooShort);
        }
        // The AETH is decoded eagerly: its syndrome encoding is part of
        // the acceptance set (`BadAethSyndrome`), so the view must check
        // it up front to reject exactly what `parse` rejects.
        let aeth = if opcode.carries_aeth() {
            let msn = u32::from_be_bytes([0, b[EXT_OFF + 1], b[EXT_OFF + 2], b[EXT_OFF + 3]]);
            Some(Aeth::from_syndrome(b[EXT_OFF], msn)?)
        } else {
            None
        };

        // A frame whose builder vouches for it carries a verification
        // hint; re-deriving the ICRC over unmodified bytes would reproduce
        // the trailer by definition, so only unverified frames (raw test
        // vectors, fault-corrupted copies) pay for the computation.
        if !frame.is_verified() {
            let (payload, got) = if raw {
                let icrc_off = total - ICRC_LEN;
                (&b[off..icrc_off], b[icrc_off..].try_into().ok())
            } else {
                (&frame.payload()[..], frame.trailer())
            };
            if got != Some(icrc_trailer(&b[..off], payload)) {
                return Err(ParseError::BadIcrc);
            }
        }
        Ok(RoceView {
            frame,
            hdr: &b[..off],
            opcode,
            aeth,
        })
    }
}

/// A validated, borrowed view of a serialized RoCE v2 frame: every field
/// [`RocePacket`] carries, readable at its fixed wire offset without
/// materializing the owned struct. Produced by
/// [`RocePacket::parse_view`]; a view existing means the frame passed the
/// full acceptance checks (including checksums where required), so field
/// reads cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct RoceView<'a> {
    frame: &'a Frame,
    /// The header bytes, dst MAC to RETH/AETH: the frame's inline head, or
    /// the front of a raw frame.
    hdr: &'a [u8],
    opcode: Opcode,
    aeth: Option<Aeth>,
}

impl<'a> RoceView<'a> {
    /// Source MAC.
    pub fn src_mac(&self) -> MacAddr {
        MacAddr(self.hdr[6..12].try_into().expect("slice len"))
    }

    /// Destination MAC.
    pub fn dst_mac(&self) -> MacAddr {
        MacAddr(self.hdr[0..6].try_into().expect("slice len"))
    }

    /// Source IPv4 address.
    pub fn src_ip(&self) -> Ipv4Addr {
        let b = self.hdr;
        Ipv4Addr::new(
            b[IP_SRC_OFF],
            b[IP_SRC_OFF + 1],
            b[IP_SRC_OFF + 2],
            b[IP_SRC_OFF + 3],
        )
    }

    /// Destination IPv4 address.
    pub fn dst_ip(&self) -> Ipv4Addr {
        let b = self.hdr;
        Ipv4Addr::new(
            b[IP_DST_OFF],
            b[IP_DST_OFF + 1],
            b[IP_DST_OFF + 2],
            b[IP_DST_OFF + 3],
        )
    }

    /// UDP source port.
    pub fn udp_src_port(&self) -> u16 {
        let b = self.hdr;
        u16::from_be_bytes([b[UDP_SPORT_OFF], b[UDP_SPORT_OFF + 1]])
    }

    /// BTH opcode.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// BTH acknowledgement-request flag.
    pub fn ack_req(&self) -> bool {
        self.hdr[TRANSPORT_OFF + 1] & 0x80 != 0
    }

    /// BTH destination queue pair.
    pub fn dest_qp(&self) -> Qpn {
        let b = self.hdr;
        Qpn(u32::from_be_bytes([
            0,
            b[BTH_QPN_OFF + 1],
            b[BTH_QPN_OFF + 2],
            b[BTH_QPN_OFF + 3],
        ]))
    }

    /// BTH packet sequence number.
    pub fn psn(&self) -> Psn {
        let b = self.hdr;
        Psn::new(u32::from_be_bytes([
            0,
            b[BTH_PSN_OFF + 1],
            b[BTH_PSN_OFF + 2],
            b[BTH_PSN_OFF + 3],
        ]))
    }

    /// The RETH, decoded on demand (present iff the opcode carries one).
    pub fn reth(&self) -> Option<Reth> {
        if !self.opcode.carries_reth() {
            return None;
        }
        let b = self.hdr;
        let va = u64::from_be_bytes(b[EXT_OFF..EXT_OFF + 8].try_into().expect("slice len"));
        let rkey = RKey(u32::from_be_bytes(
            b[EXT_OFF + 8..EXT_OFF + 12].try_into().expect("slice len"),
        ));
        let dma_len =
            u32::from_be_bytes(b[EXT_OFF + 12..EXT_OFF + 16].try_into().expect("slice len"));
        Some(Reth { va, rkey, dma_len })
    }

    /// The AETH (present iff the opcode carries one; validated at parse).
    pub fn aeth(&self) -> Option<Aeth> {
        self.aeth
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.frame.len() - self.hdr.len() - ICRC_LEN
    }

    /// The payload, sharing the frame's bytes.
    pub fn payload(&self) -> Bytes {
        let body = self.frame.payload();
        if self.frame.head().is_empty() {
            body.slice(self.hdr.len()..body.len() - ICRC_LEN)
        } else {
            body.clone()
        }
    }

    /// The payload, borrowed from the frame.
    pub fn payload_slice(&self) -> &'a [u8] {
        let body: &'a [u8] = self.frame.payload();
        if self.frame.head().is_empty() {
            &body[self.hdr.len()..body.len() - ICRC_LEN]
        } else {
            body
        }
    }

    /// Materializes the owned packet — identical to what
    /// [`RocePacket::parse`] would have returned for this frame.
    pub fn to_packet(&self) -> RocePacket {
        RocePacket {
            src_mac: self.src_mac(),
            dst_mac: self.dst_mac(),
            src_ip: self.src_ip(),
            dst_ip: self.dst_ip(),
            udp_src_port: self.udp_src_port(),
            bth: Bth {
                opcode: self.opcode,
                dest_qp: self.dest_qp(),
                psn: self.psn(),
                ack_req: self.ack_req(),
            },
            reth: self.reth(),
            aeth: self.aeth,
            payload: self.payload(),
        }
    }

    /// The owned form of the view: the frame's head and a shared
    /// reference to its payload plus what this parse extracted, ready to
    /// be stamped with header rewrites. No payload byte is copied or
    /// hashed. Raw bytes that passed the parser are split the way the
    /// serializer would have built them, and stay unverified.
    pub fn to_template(&self) -> PacketTemplate {
        let frame = if self.frame.head().is_empty() {
            Frame::framed(self.hdr, self.payload(), icrc_trailer, false)
        } else {
            self.frame.clone()
        };
        PacketTemplate {
            frame,
            opcode: self.opcode,
            aeth: self.aeth,
        }
    }
}

// Fixed byte offsets inside a serialized RoCE v2 frame (no IP options,
// RETH and AETH are mutually exclusive so both start right after BTH).
const IP_OFF: usize = ETH_LEN;
const IP_CKSUM_OFF: usize = IP_OFF + 10;
const IP_SRC_OFF: usize = IP_OFF + 12;
const IP_DST_OFF: usize = IP_OFF + 16;
const UDP_SPORT_OFF: usize = ETH_LEN + IPV4_LEN;
const TRANSPORT_OFF: usize = ETH_LEN + IPV4_LEN + UDP_LEN;
const BTH_QPN_OFF: usize = TRANSPORT_OFF + 4;
const BTH_PSN_OFF: usize = TRANSPORT_OFF + 8;
const EXT_OFF: usize = TRANSPORT_OFF + BTH_LEN;

/// The BTH opcode byte of a serialized frame, read at its fixed offset
/// and nothing else checked: a classification peek for code that must
/// decide before [`RocePacket::parse_view`] runs. `None` when the frame
/// is too short to carry a BTH or the byte is not a known opcode.
#[inline]
pub fn peek_opcode(frame: &Frame) -> Option<Opcode> {
    wire_head(frame)
        .get(TRANSPORT_OFF)
        .and_then(|&b| Opcode::from_wire(b))
}

/// The bytes a frame's headers sit in, at their wire offsets: the inline
/// head of a frame this module built, or all of a raw frame.
fn wire_head(frame: &Frame) -> &[u8] {
    if frame.head().is_empty() {
        frame.payload()
    } else {
        frame.head()
    }
}

// The inline head holds the longest header set: Eth + IPv4 + UDP + BTH + RETH.
const _: () = assert!(EXT_OFF + RETH_LEN <= FRAME_HEAD_MAX);

/// The header fields an in-flight rewrite may change without
/// re-serializing the packet — exactly the set the paper's deparser
/// rewrites per replica (§IV-A, Table I): addressing, UDP entropy,
/// destination QP, PSN, the RETH virtual address and `R_key`, and the
/// AETH of a gathered ACK.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteSet {
    /// New source MAC.
    pub src_mac: Option<MacAddr>,
    /// New destination MAC.
    pub dst_mac: Option<MacAddr>,
    /// New source IPv4 address.
    pub src_ip: Option<Ipv4Addr>,
    /// New destination IPv4 address.
    pub dst_ip: Option<Ipv4Addr>,
    /// New UDP source port.
    pub udp_src_port: Option<u16>,
    /// New destination queue pair.
    pub dest_qp: Option<Qpn>,
    /// New packet sequence number.
    pub psn: Option<Psn>,
    /// New RETH virtual address (requires a RETH-carrying opcode).
    pub va: Option<u64>,
    /// New RETH `R_key` (requires a RETH-carrying opcode).
    pub rkey: Option<RKey>,
    /// New AETH contents (requires an AETH-carrying opcode).
    pub aeth: Option<Aeth>,
}

impl RewriteSet {
    /// Applies the rewrites to a parsed packet — the logical counterpart
    /// of patching the serialized bytes, so
    /// `PacketTemplate::from_packet(&pkt).stamp(&rw)` and
    /// `{ rw.apply(&mut pkt); pkt.to_frame() }` yield identical frames.
    /// RETH/AETH rewrites are ignored when the packet carries none (the
    /// byte-level patch reports [`PatchError`] instead).
    pub fn apply(&self, pkt: &mut RocePacket) {
        if let Some(v) = self.src_mac {
            pkt.src_mac = v;
        }
        if let Some(v) = self.dst_mac {
            pkt.dst_mac = v;
        }
        if let Some(v) = self.src_ip {
            pkt.src_ip = v;
        }
        if let Some(v) = self.dst_ip {
            pkt.dst_ip = v;
        }
        if let Some(v) = self.udp_src_port {
            pkt.udp_src_port = v;
        }
        if let Some(v) = self.dest_qp {
            pkt.bth.dest_qp = v;
        }
        if let Some(v) = self.psn {
            pkt.bth.psn = v;
        }
        if let Some(reth) = &mut pkt.reth {
            if let Some(va) = self.va {
                reth.va = va;
            }
            if let Some(rkey) = self.rkey {
                reth.rkey = rkey;
            }
        }
        if let (Some(slot), Some(aeth)) = (&mut pkt.aeth, self.aeth) {
            *slot = aeth;
        }
    }
}

/// Why a rewrite could not be stamped onto a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// The rewrite targets a RETH field but the opcode carries none.
    NoReth,
    /// The rewrite targets the AETH but the opcode carries none.
    NoAeth,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NoReth => write!(f, "rewrite targets a RETH the opcode does not carry"),
            PatchError::NoAeth => write!(f, "rewrite targets an AETH the opcode does not carry"),
        }
    }
}

impl Error for PatchError {}

/// RFC 1624 incremental one's-complement checksum update: the checksum
/// after one 16-bit word changes from `old` to `new`.
fn cksum_update(hc: u16, old: u16, new: u16) -> u16 {
    let mut sum = u32::from(!hc) + u32::from(!old) + u32::from(new);
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A validated serialized frame plus what its parse extracted, ready to
/// be stamped out with per-copy header rewrites — the model of the
/// replication engine handing identical copies to per-port deparsers that
/// each rewrite a handful of fields (§IV-B).
///
/// There are two ways to get one, and both start from bytes that are
/// known to be a RoCE v2 frame: [`RoceView::to_template`] (the frame
/// passed [`RocePacket::parse_view`]) and [`PacketTemplate::from_packet`]
/// (the serializer just produced it). Cloning shares the payload.
#[derive(Debug, Clone)]
pub struct PacketTemplate {
    frame: Frame,
    opcode: Opcode,
    aeth: Option<Aeth>,
}

impl PacketTemplate {
    /// The serialized frame the template stamps copies from.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// The header view the template was built from — no re-validation,
    /// the frame already passed it.
    pub fn view(&self) -> RoceView<'_> {
        RoceView {
            frame: &self.frame,
            hdr: self.frame.head(),
            opcode: self.opcode,
            aeth: self.aeth,
        }
    }

    /// Emits the frame with `rw` applied, byte-identical to
    /// `{ rw.apply(&mut pkt); pkt.to_frame() }` on the parsed packet: a
    /// copy of the head with the rewritten fields patched in, the payload
    /// shared, the ICRC left to [`icrc_trailer`] — the same cost whatever
    /// the payload length. The output is marked verified iff the input
    /// was.
    ///
    /// # Errors
    ///
    /// [`PatchError::NoReth`]/[`PatchError::NoAeth`] when `rw` targets an
    /// extension header the template's opcode does not carry.
    pub fn stamp(&self, rw: &RewriteSet) -> Result<Frame, PatchError> {
        if (rw.va.is_some() || rw.rkey.is_some()) && !self.opcode.carries_reth() {
            return Err(PatchError::NoReth);
        }
        if rw.aeth.is_some() && !self.opcode.carries_aeth() {
            return Err(PatchError::NoAeth);
        }
        let mut frame = self.frame.clone();
        let buf = frame.head_mut();
        let mut put = |off: usize, new: &[u8]| buf[off..off + new.len()].copy_from_slice(new);

        if let Some(mac) = rw.dst_mac {
            put(0, &mac.0);
        }
        if let Some(mac) = rw.src_mac {
            put(6, &mac.0);
        }
        if let Some(sport) = rw.udp_src_port {
            put(UDP_SPORT_OFF, &sport.to_be_bytes());
        }
        if let Some(qpn) = rw.dest_qp {
            put(BTH_QPN_OFF, &qpn.masked().to_be_bytes());
        }
        if let Some(psn) = rw.psn {
            put(BTH_PSN_OFF, &psn.value().to_be_bytes());
        }
        if let Some(va) = rw.va {
            put(EXT_OFF, &va.to_be_bytes());
        }
        if let Some(rkey) = rw.rkey {
            put(EXT_OFF + 8, &rkey.0.to_be_bytes());
        }
        if let Some(aeth) = rw.aeth {
            let msn = aeth.msn.to_be_bytes();
            put(EXT_OFF, &[aeth.syndrome(), msn[1], msn[2], msn[3]]);
        }
        // IP address rewrites keep the IPv4 header checksum valid via the
        // RFC 1624 incremental update — no full-header recomputation.
        for (off, new_octets) in [
            (IP_SRC_OFF, rw.src_ip.map(|ip| ip.octets())),
            (IP_DST_OFF, rw.dst_ip.map(|ip| ip.octets())),
        ] {
            let Some(octets) = new_octets else { continue };
            let mut hc = u16::from_be_bytes([buf[IP_CKSUM_OFF], buf[IP_CKSUM_OFF + 1]]);
            for w in 0..2 {
                let old = u16::from_be_bytes([buf[off + 2 * w], buf[off + 2 * w + 1]]);
                let new = u16::from_be_bytes([octets[2 * w], octets[2 * w + 1]]);
                hc = cksum_update(hc, old, new);
            }
            buf[IP_CKSUM_OFF..IP_CKSUM_OFF + 2].copy_from_slice(&hc.to_be_bytes());
            buf[off..off + 4].copy_from_slice(&octets);
        }
        Ok(frame)
    }

    /// Builds a template by serializing `pkt` once. The resulting frame is
    /// checksum-correct by construction, so it is marked verified and every
    /// [`PacketTemplate::stamp`] from it inherits that mark.
    pub fn from_packet(pkt: &RocePacket) -> PacketTemplate {
        PacketTemplate {
            frame: pkt.to_frame(),
            opcode: pkt.bth.opcode,
            aeth: pkt.aeth,
        }
    }
}

/// Computes the RFC-791 one's-complement checksum of an IPv4 header.
/// Returns 0 when validating a header whose checksum field is correct.
pub fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = header.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) with GF(2) combine support
// ---------------------------------------------------------------------

const CRC32_POLY: u32 = 0xedb8_8320;
const CRC32_INIT: u32 = 0xffff_ffff;

/// Slice-by-8 lookup tables: `CRC32_TABLES[k][b]` advances the register
/// past byte `b` followed by `k` zero bytes. Table 0 is the classic
/// byte-at-a-time table; each further table composes one more zero-byte
/// step. Identical output to the byte loop; 8 KiB total, half the cache
/// footprint of the slice-by-16 variant this replaced.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// One 8-byte table step: folds `chunk` (exactly 8 bytes) into register
/// `c` via eight table lookups with no serial dependency between them —
/// the latency chain is one XOR into `q0` plus the final XOR tree.
#[inline(always)]
fn crc32_step8(c: u32, chunk: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let q0 = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
    let q1 = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    t[7][(q0 & 0xff) as usize]
        ^ t[6][((q0 >> 8) & 0xff) as usize]
        ^ t[5][((q0 >> 16) & 0xff) as usize]
        ^ t[4][(q0 >> 24) as usize]
        ^ t[3][(q1 & 0xff) as usize]
        ^ t[2][((q1 >> 8) & 0xff) as usize]
        ^ t[1][((q1 >> 16) & 0xff) as usize]
        ^ t[0][(q1 >> 24) as usize]
}

/// Slice-by-8 kernel: advances the raw register 8 bytes per step, byte
/// tail for the remainder. Exposed (with raw-register semantics: no init
/// or final conditioning) for the differential test against the scalar
/// loop.
pub fn crc32_slice8_raw(init: u32, data: &[u8]) -> u32 {
    let mut c = init;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c = crc32_step8(c, chunk);
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// The CRC-32 of `data` (init and final XOR `0xffff_ffff`, as in zlib).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_slice8_raw(CRC32_INIT, data)
}

/// The integrity checksum covering the fields RDMA endpoints verify, and
/// the one place it is computed: a frame built here carries this function
/// as its trailer and whoever reads the wire bytes calls it then.
///
/// CRC-32 over a pseudo-header — the IP addresses and the UDP source port,
/// which sit back to back in the frame and which the IP/UDP layers may
/// legitimately rewrite checksums around — followed by the transport
/// headers from the BTH on and the payload. An in-flight rewrite of a
/// covered field changes the head it is derived from, so nobody has to
/// remember to recompute it.
fn icrc_trailer(head: &[u8], payload: &[u8]) -> [u8; ICRC_LEN] {
    let c = crc32_slice8_raw(CRC32_INIT, &head[IP_SRC_OFF..UDP_SPORT_OFF + 2]);
    let c = crc32_slice8_raw(c, &head[TRANSPORT_OFF..]);
    (!crc32_slice8_raw(c, payload)).to_be_bytes()
}

/// Why a frame failed to parse as RoCE v2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Frame shorter than the mandatory headers.
    TooShort,
    /// Not an IPv4 packet (or has IPv4 options, which we never emit).
    NotIpv4,
    /// IPv4 payload is not UDP.
    NotUdp,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// UDP destination port is not the RoCE port.
    NotRoce,
    /// Unknown BTH opcode.
    BadOpcode(u8),
    /// Unknown AETH syndrome encoding.
    BadAethSyndrome(u8),
    /// Integrity checksum mismatch (corrupt or incompletely-rewritten
    /// packet).
    BadIcrc,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::TooShort => write!(f, "frame too short for RoCE headers"),
            ParseError::NotIpv4 => write!(f, "not an IPv4 packet"),
            ParseError::NotUdp => write!(f, "not a UDP datagram"),
            ParseError::BadIpChecksum => write!(f, "invalid IPv4 header checksum"),
            ParseError::NotRoce => write!(f, "UDP destination is not the RoCE port"),
            ParseError::BadOpcode(op) => write!(f, "unknown BTH opcode {op:#04x}"),
            ParseError::BadAethSyndrome(s) => write!(f, "unknown AETH syndrome {s:#04x}"),
            ParseError::BadIcrc => write!(f, "integrity checksum mismatch"),
        }
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_write() -> RocePacket {
        let src_ip = Ipv4Addr::new(10, 0, 0, 1);
        let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
        RocePacket {
            src_mac: MacAddr::for_ip(src_ip),
            dst_mac: MacAddr::for_ip(dst_ip),
            src_ip,
            dst_ip,
            udp_src_port: 0xC000,
            bth: Bth {
                opcode: Opcode::WriteOnly,
                dest_qp: Qpn(0x12345),
                psn: Psn::new(77),
                ack_req: true,
            },
            reth: Some(Reth {
                va: 0xdead_beef_0000,
                rkey: RKey(0xabcd_ef01),
                dma_len: 64,
            }),
            aeth: None,
            payload: Bytes::from(vec![0x5a; 64]),
        }
    }

    #[test]
    fn write_roundtrip() {
        let pkt = sample_write();
        let frame = pkt.to_frame();
        assert_eq!(frame.len(), pkt.wire_len());
        let back = RocePacket::parse(&frame).expect("parse");
        assert_eq!(back, pkt);
        assert_eq!(peek_opcode(&frame), Some(Opcode::WriteOnly));
        let no_bth = Frame::from(frame.to_vec()[..TRANSPORT_OFF].to_vec());
        assert_eq!(peek_opcode(&no_bth), None, "too short to carry a BTH");
    }

    #[test]
    fn ack_roundtrip_with_credits() {
        let src_ip = Ipv4Addr::new(10, 0, 0, 2);
        let dst_ip = Ipv4Addr::new(10, 0, 0, 1);
        let pkt = RocePacket {
            src_mac: MacAddr::for_ip(src_ip),
            dst_mac: MacAddr::for_ip(dst_ip),
            src_ip,
            dst_ip,
            udp_src_port: 0xC001,
            bth: Bth {
                opcode: Opcode::Acknowledge,
                dest_qp: Qpn(9),
                psn: Psn::new(77),
                ack_req: false,
            },
            reth: None,
            aeth: Some(Aeth {
                kind: AethKind::Ack { credits: 13 },
                msn: 42,
            }),
            payload: Bytes::new(),
        };
        let back = RocePacket::parse(&pkt.to_frame()).expect("parse");
        assert_eq!(back.aeth, pkt.aeth);
        assert_eq!(back.bth.psn, pkt.bth.psn);
    }

    #[test]
    fn nak_roundtrip() {
        let mut pkt = sample_write();
        pkt.bth.opcode = Opcode::Acknowledge;
        pkt.bth.ack_req = false;
        pkt.reth = None;
        pkt.payload = Bytes::new();
        for code in [
            NakCode::PsnSequenceError,
            NakCode::InvalidRequest,
            NakCode::RemoteAccessError,
            NakCode::RemoteOperationalError,
        ] {
            pkt.aeth = Some(Aeth {
                kind: AethKind::Nak(code),
                msn: 1,
            });
            let back = RocePacket::parse(&pkt.to_frame()).expect("parse");
            assert_eq!(back.aeth.expect("aeth").kind, AethKind::Nak(code));
        }
    }

    #[test]
    fn tampering_breaks_icrc() {
        let frame = sample_write().to_frame();
        let mut raw = frame.to_vec();
        // Flip a bit in the PSN without fixing the ICRC.
        let psn_off = ETH_LEN + IPV4_LEN + UDP_LEN + 11;
        raw[psn_off] ^= 1;
        let err = RocePacket::parse(&Frame::from(raw)).expect_err("must fail");
        assert_eq!(err, ParseError::BadIcrc);
    }

    #[test]
    fn rewriting_and_recomputing_icrc_parses() {
        let frame = sample_write().to_frame();
        let mut pkt = RocePacket::parse(&frame).expect("parse");
        pkt.bth.psn = Psn::new(1234);
        pkt.dst_ip = Ipv4Addr::new(10, 0, 0, 9);
        pkt.dst_mac = MacAddr::for_ip(pkt.dst_ip);
        let reparsed = RocePacket::parse(&pkt.to_frame()).expect("reparse");
        assert_eq!(reparsed.bth.psn, Psn::new(1234));
    }

    #[test]
    fn short_frames_rejected() {
        assert_eq!(
            RocePacket::parse(&Frame::from(vec![0u8; 10])),
            Err(ParseError::TooShort)
        );
    }

    #[test]
    fn non_roce_traffic_rejected_cleanly() {
        let frame = sample_write().to_frame();
        let mut raw = frame.to_vec();
        // Break the UDP destination port.
        let dport_off = ETH_LEN + IPV4_LEN + 2;
        raw[dport_off] = 0;
        raw[dport_off + 1] = 80;
        assert_eq!(
            RocePacket::parse(&Frame::from(raw)),
            Err(ParseError::NotRoce)
        );
    }

    #[test]
    fn ip_checksum_validates() {
        let frame = sample_write().to_frame();
        let mut raw = frame.to_vec();
        raw[ETH_LEN + 8] = 1; // corrupt the TTL
        assert_eq!(
            RocePacket::parse(&Frame::from(raw)),
            Err(ParseError::BadIpChecksum)
        );
    }

    #[test]
    fn wire_len_accounts_for_extensions() {
        let w = sample_write();
        assert_eq!(w.wire_len(), BASE_OVERHEAD + RETH_LEN + 64);
    }

    #[test]
    fn credits_clamp_at_field_width() {
        let a = Aeth {
            kind: AethKind::Ack { credits: 200 },
            msn: 0,
        };
        assert_eq!(a.syndrome(), MAX_CREDITS);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn stamp_rejects_extension_rewrites_the_opcode_lacks() {
        let mut ack = sample_write();
        ack.bth.opcode = Opcode::Acknowledge;
        ack.reth = None;
        ack.payload = Bytes::new();
        ack.aeth = Some(Aeth {
            kind: AethKind::Ack { credits: 1 },
            msn: 0,
        });
        let rw = RewriteSet {
            va: Some(42),
            ..RewriteSet::default()
        };
        assert_eq!(
            PacketTemplate::from_packet(&ack).stamp(&rw),
            Err(PatchError::NoReth)
        );

        let rw = RewriteSet {
            aeth: Some(Aeth {
                kind: AethKind::Ack { credits: 1 },
                msn: 0,
            }),
            ..RewriteSet::default()
        };
        assert_eq!(
            PacketTemplate::from_packet(&sample_write()).stamp(&rw),
            Err(PatchError::NoAeth)
        );
    }

    #[test]
    fn incremental_ip_checksum_stays_valid() {
        // Adversarial addresses for the one's-complement arithmetic.
        for dst in [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(0xff, 0xff, 0, 0),
            Ipv4Addr::new(1, 2, 3, 4),
        ] {
            let rw = RewriteSet {
                dst_ip: Some(dst),
                ..RewriteSet::default()
            };
            let patched = PacketTemplate::from_packet(&sample_write())
                .stamp(&rw)
                .expect("stamp");
            assert_eq!(
                ipv4_checksum(&patched.head()[ETH_LEN..ETH_LEN + IPV4_LEN]),
                0
            );
        }
    }
}

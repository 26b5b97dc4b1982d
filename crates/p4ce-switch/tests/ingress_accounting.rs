//! The accounting property of `tofino/tests/pipeline.rs` with the P4CE
//! program loaded, so the control plane is in the line of fire: whatever
//! arrives — forged group requests, damaged handshake frames, writes and
//! ACKs no table knows — the switch never panics, counts every arrival
//! once, builds a group only for a request it can count, and answers
//! every other request exactly once.

use bytes::{BufMut, Bytes, BytesMut};
use netsim::{Context, Frame, LinkSpec, Node, PortId, SimTime, Simulation};
use p4ce_switch::{GroupSpec, P4ceProgram, P4ceSwitchConfig};
use proptest::prelude::*;
use rdma::{
    Aeth, AethKind, Bth, CmMessage, MacAddr, Opcode, Psn, Qpn, RKey, RegionAdvert, Reth,
    RocePacket, CM_QPN,
};
use std::net::Ipv4Addr;
use tofino::{Switch, SwitchConfig};

const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const REQUESTER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const UNROUTED_IP: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
const REPLICAS: u8 = 3;

fn replica_ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 2 + i % REPLICAS)
}

/// Sends its frames into port 0 at start; keeps what comes back.
struct Feeder {
    frames: Vec<Frame>,
    received: Vec<Frame>,
}

impl Node for Feeder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for f in self.frames.drain(..) {
            ctx.send(PortId::FIRST, f);
        }
    }
    fn on_frame(&mut self, _port: PortId, frame: Frame, _ctx: &mut Context<'_>) {
        self.received.push(frame);
    }
}

fn feeder(frames: Vec<Frame>) -> Box<Feeder> {
    Box::new(Feeder {
        frames,
        received: Vec::new(),
    })
}

fn packet(src_ip: Ipv4Addr, dst_ip: Ipv4Addr, opcode: Opcode, dest_qp: Qpn) -> RocePacket {
    RocePacket {
        src_mac: MacAddr::for_ip(src_ip),
        dst_mac: MacAddr::for_ip(dst_ip),
        src_ip,
        dst_ip,
        udp_src_port: 0xC000,
        bth: Bth {
            opcode,
            dest_qp,
            psn: Psn::new(7),
            ack_req: opcode.is_write(),
        },
        reth: opcode.carries_reth().then_some(Reth {
            va: 0,
            rkey: RKey(5),
            dma_len: 0,
        }),
        aeth: opcode.carries_aeth().then_some(Aeth {
            kind: AethKind::Ack { credits: 9 },
            msn: 3,
        }),
        payload: Bytes::new(),
    }
}

/// A CM datagram from `src_ip` to the switch's control plane.
fn cm_packet(src_ip: Ipv4Addr, datagram: Bytes) -> RocePacket {
    RocePacket {
        payload: datagram,
        ..packet(src_ip, SW_IP, Opcode::SendOnly, CM_QPN)
    }
}

/// A ConnectRequest datagram laid out as `CmMessage::encode` does, minus
/// its private-data limit: that is asserted where an honest sender
/// builds the message, and a forged one is not bound by it.
fn connect_request(handshake_id: u64, private: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(19 + private.len());
    buf.put_u8(1);
    buf.put_u64(handshake_id);
    buf.put_u32(0x77);
    buf.put_u32(1000);
    buf.put_u16(private.len() as u16);
    buf.put_slice(private);
    buf.freeze()
}

/// The groups an in-switch acceptor may take on, stated independently of
/// `GroupSpec::decode`: every replica spelled out, a quorum that can be
/// reached (1 ≤ f ≤ n), and a `NumRecv` bit for each replica (n ≤ 32).
fn countable(private: &[u8]) -> bool {
    let [f, n, ips @ ..] = private else {
        return false;
    };
    let (f, n) = (usize::from(*f), usize::from(*n));
    ips.len() >= 4 * n && 1 <= f && f <= n && n <= 32
}

/// One frame's worth of traffic, before damage.
#[derive(Debug, Clone)]
enum Item {
    /// A ConnectRequest carrying these bytes as private data.
    Request(Vec<u8>),
    /// A replica's reply to the join the switch sent for `(gid, idx)`.
    JoinReply { gid: u16, idx: u8 },
    /// Data-plane traffic no table knows, or transit.
    Data(Opcode, Ipv4Addr, u32),
}

/// Group requests, well-formed and not: f and n around both of their
/// bounds (n in 0..4 or 30..36), the replica list complete or a byte
/// short.
fn spec_shaped() -> impl Strategy<Value = Item> {
    (0u8..4, 0u8..14, 0u8..4).prop_map(|(f, n, cut)| {
        let n = if n < 8 { n % 4 } else { 22 + n };
        let mut private = vec![f, n];
        for i in 0..n {
            private.extend_from_slice(&replica_ip(i).octets());
        }
        if cut == 0 {
            private.pop();
        }
        Item::Request(private)
    })
}

fn join_reply() -> impl Strategy<Value = Item> {
    (1u16..4, 0u8..REPLICAS).prop_map(|(gid, idx)| Item::JoinReply { gid, idx })
}

fn arb_item() -> impl Strategy<Value = Item> {
    // A 4 and a 16-bit group id: no group request, refused like any other.
    let tag4 = (0u16..4).prop_map(|gid| Item::Request(vec![4, (gid >> 8) as u8, gid as u8]));
    let arbitrary = prop::collection::vec(any::<u8>(), 0..140).prop_map(Item::Request);
    let data = (
        prop_oneof![
            Just(Opcode::WriteOnly),
            Just(Opcode::Acknowledge),
            Just(Opcode::SendOnly)
        ],
        prop_oneof![Just(SW_IP), Just(replica_ip(0)), Just(UNROUTED_IP)],
        2u32..0x00ff_ffff,
    )
        .prop_map(|(opcode, dst, qpn)| Item::Data(opcode, dst, qpn));
    prop_oneof![
        spec_shaped(),
        spec_shaped(),
        join_reply(),
        join_reply(),
        tag4,
        arbitrary,
        data
    ]
}

/// How a frame is damaged on its way to the switch.
#[derive(Debug, Clone)]
enum Damage {
    None,
    FlipBit(prop::sample::Index),
    Truncate(prop::sample::Index),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        any::<prop::sample::Index>().prop_map(Damage::FlipBit),
        any::<prop::sample::Index>().prop_map(Damage::Truncate),
    ]
}

fn frame_of(at: usize, item: &Item, damage: &Damage) -> Frame {
    let pkt = match item {
        // The handshake id is the frame's position: unique, and far from
        // the ids the switch makes up for its own joins (bit 56 set).
        Item::Request(private) => cm_packet(REQUESTER_IP, connect_request(at as u64, private)),
        Item::JoinReply { gid, idx } => {
            let advert = RegionAdvert {
                va: 0x1000,
                rkey: RKey(9),
                len: 1 << 20,
            };
            let reply = CmMessage::ConnectReply {
                handshake_id: (u64::from(*gid) << 16) | u64::from(*idx) | (1 << 56),
                qpn: Qpn(0x300 + u32::from(*idx)),
                start_psn: Psn::new(0),
                private_data: advert.encode(),
            };
            cm_packet(replica_ip(*idx), reply.encode())
        }
        Item::Data(opcode, dst, qpn) => packet(REQUESTER_IP, *dst, *opcode, Qpn(*qpn)),
    };
    let frame = pkt.to_frame();
    match damage {
        Damage::None => frame,
        Damage::FlipBit(bit) => {
            let mut raw = frame.to_vec();
            let bit = bit.index(raw.len() * 8);
            raw[bit / 8] ^= 1 << (bit % 8);
            Frame::from(raw)
        }
        Damage::Truncate(len) => Frame::from(frame.to_vec()[..len.index(frame.len())].to_vec()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_arrival_is_counted_once_and_only_countable_groups_are_built(
        traffic in prop::collection::vec((arb_item(), arb_damage()), 1..100),
        p4ce_enabled in any::<bool>(),
    ) {
        let frames: Vec<Frame> = traffic
            .iter()
            .enumerate()
            .map(|(at, (item, damage))| frame_of(at, item, damage))
            .collect();
        let fed = frames.len() as u64;

        // What the control plane must make of them: the frames its
        // parser accepts that are addressed to the CM queue pair, read
        // as the requester meant them.
        let (mut punted, mut groups, mut refused) = (0u64, 0u64, Vec::new());
        for pkt in frames.iter().filter_map(|f| RocePacket::parse(f).ok()) {
            if pkt.dst_ip != SW_IP || pkt.bth.dest_qp != CM_QPN {
                continue;
            }
            punted += 1;
            if let Ok(CmMessage::ConnectRequest { handshake_id, private_data, .. }) =
                CmMessage::decode(&pkt.payload)
            {
                let countable = countable(&private_data);
                prop_assert_eq!(
                    GroupSpec::decode(&private_data).is_ok(),
                    countable,
                    "{:?}", &private_data[..]
                );
                if countable {
                    groups += 1;
                } else {
                    refused.push(handshake_id);
                }
            }
        }

        let mut sim = Simulation::new(5);
        let requester = sim.add_node(feeder(frames));
        let replicas = sim.add_node(feeder(Vec::new()));
        let program = P4ceProgram::new(P4ceSwitchConfig {
            p4ce_enabled,
            ..P4ceSwitchConfig::default()
        });
        let sw = sim.add_node(Box::new(Switch::new(SwitchConfig::tofino1(SW_IP), 2, program)));
        let (_, requester_port) = sim.connect(requester, sw, LinkSpec::default());
        let (_, replica_port) = sim.connect(replicas, sw, LinkSpec::default());
        let switch = sim.node_mut::<Switch<P4ceProgram>>(sw);
        switch.add_route(REQUESTER_IP, requester_port);
        for i in 0..REPLICAS {
            switch.add_route(replica_ip(i), replica_port);
        }
        // Past the 40 ms reconfiguration of any group whose joins all
        // came back, so its ConnectReply goes out too.
        sim.run_until(SimTime::from_millis(60));

        let switch = sim.node_ref::<Switch<P4ceProgram>>(sw);
        let st = switch.stats();
        let accounted = st.parse_errors
            + st.dropped_ingress
            + st.parser_overflow_drops
            + st.punted
            + st.forwarded
            + st.dropped_egress;
        prop_assert_eq!(accounted, fed, "{:?}", st);
        prop_assert_eq!(st.punted, punted);

        // ConnectRejects the requester got back, by the handshake they
        // answer.
        let mut rejects: Vec<u64> = sim
            .node_ref::<Feeder>(requester)
            .received
            .iter()
            .filter_map(|f| RocePacket::parse(f).ok())
            .filter_map(|pkt| match CmMessage::decode(&pkt.payload) {
                Ok(CmMessage::ConnectReject { handshake_id, .. }) => Some(handshake_id),
                _ => None,
            })
            .collect();
        rejects.sort_unstable();
        if p4ce_enabled {
            prop_assert_eq!(switch.program().stats.groups_created, groups);
            prop_assert_eq!(rejects, refused, "one reject per refused request, none else");
        } else {
            // A plain fabric is not listening: no group, no answer.
            prop_assert_eq!(switch.program().stats.groups_created, 0);
            prop_assert!(sim.node_ref::<Feeder>(requester).received.is_empty());
        }
    }
}

//! Accounting properties of a host's receive side and its connection
//! manager under hostile input: arbitrary bytes, and bit flips and
//! truncations of a valid frame of every [`CmMessage`] kind — of the
//! frame, of the datagram inside a well-formed frame, and of the
//! private data inside a well-formed datagram (a [`RegionAdvert`] on
//! replies, a one-byte connection kind on requests).
//!
//! Whatever arrives, the host never panics and
//!
//! * every frame lands in exactly one of `rx_overflow_drops`, a
//!   frame-level `parse_drops`, or `packets_received`;
//! * a CM datagram [`CmMessage::decode`] refuses adds exactly one
//!   `parse_drops` and delivers no [`CmEvent`];
//! * the CM's handshake tables ([`Host::open_handshakes`]) do not grow
//!   on refused or unknown-handshake messages.
//!
//! The first property spaces arrivals so the receive buffer never fills
//! and checks all of it against a sequential model; the second bursts
//! the same input into a tiny buffer and checks the sum.

use bytes::Bytes;
use netsim::{
    Context, Frame, LinkSpec, Node, PortId, SimDuration, SimTime, Simulation, TimerToken,
};
use proptest::prelude::*;
use rdma::{
    Bth, CmEvent, CmMessage, Completion, Host, HostConfig, HostOps, HostStats, MacAddr, Opcode,
    Permissions, Psn, Qpn, RKey, RdmaApp, RegionAdvert, RegionHandle, RejectReason, RocePacket,
    CM_QPN,
};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 1);
const HOST_IP: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);

/// The connection kinds the listener accepts (the members' heartbeat
/// and replication kinds); any other first byte — or none — is refused.
const KINDS: [u8; 2] = [1, 2];

/// The handshake id of the listener's own connect: the host's address
/// above its first handshake counter value.
const OWN_HANDSHAKE: u64 = ((u32::from_be_bytes([10, 9, 0, 2]) as u64) << 24) | 1;

/// What the listener saw, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Request { handshake_id: u64, accepted: bool },
    Connected { advert: Option<RegionAdvert> },
    Established { handshake_id: u64 },
    Rejected { reason: RejectReason },
}

/// The one listening app: opens a connection of its own at start (so a
/// reply or reject can match a live handshake), accepts requests of a
/// known kind with a region advert, rejects the rest.
#[derive(Default)]
struct Listener {
    region: Option<RegionHandle>,
    seen: Vec<Seen>,
}

impl RdmaApp for Listener {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        self.region = Some(ops.register_region(4096, Permissions::WRITE));
        let id = ops.connect(PEER_IP, Bytes::from_static(&[KINDS[0]]));
        assert_eq!(id, OWN_HANDSHAKE);
    }
    fn on_completion(&mut self, _c: Completion, _ops: &mut HostOps<'_, '_>) {}
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        self.seen.push(match ev {
            CmEvent::ConnectRequestReceived {
                handshake_id,
                from_ip,
                from_qpn,
                start_psn,
                private_data,
            } => {
                let accepted = private_data.first().is_some_and(|k| KINDS.contains(k));
                if accepted {
                    let info = ops.region_info(self.region.expect("registered"));
                    let advert = RegionAdvert {
                        va: info.va,
                        rkey: info.rkey,
                        len: info.len,
                    };
                    ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
                } else {
                    ops.reject(handshake_id, from_ip, RejectReason::NotAuthorized);
                }
                Seen::Request {
                    handshake_id,
                    accepted,
                }
            }
            CmEvent::Connected { private_data, .. } => Seen::Connected {
                advert: RegionAdvert::decode(&private_data).ok(),
            },
            CmEvent::Established { handshake_id, .. } => Seen::Established { handshake_id },
            CmEvent::Rejected { reason, .. } => Seen::Rejected { reason },
        });
    }
}

/// Sends its frames one per `gap` (all at once when `gap` is zero) and
/// counts what comes back.
struct Injector {
    frames: Vec<Frame>,
    gap: SimDuration,
    next: usize,
    answers: usize,
}

impl Node for Injector {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule(SimDuration::from_micros(100), TimerToken(0));
    }
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_>) {
        while let Some(frame) = self.frames.get(self.next) {
            ctx.send(PortId::FIRST, frame.clone());
            self.next += 1;
            if !self.gap.is_zero() {
                ctx.schedule(self.gap, TimerToken(0));
                break;
            }
        }
    }
    fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut Context<'_>) {
        self.answers += 1;
    }
}

/// A well-formed CM frame around `datagram`, whatever it holds.
fn cm_frame(datagram: Bytes) -> Frame {
    RocePacket {
        src_mac: MacAddr::for_ip(PEER_IP),
        dst_mac: MacAddr::for_ip(HOST_IP),
        src_ip: PEER_IP,
        dst_ip: HOST_IP,
        udp_src_port: 0xC000,
        bth: Bth {
            opcode: Opcode::SendOnly,
            dest_qp: CM_QPN,
            psn: Psn::new(0),
            ack_req: false,
        },
        reth: None,
        aeth: None,
        payload: datagram,
    }
    .to_frame()
}

/// How one valid message is damaged before it is sent.
#[derive(Debug, Clone)]
enum Damage {
    None,
    /// Flip one bit of the frame / cut the frame short.
    FrameFlip(prop::sample::Index, u8),
    FrameCut(prop::sample::Index),
    /// The same, of the datagram inside a well-formed frame.
    DatagramFlip(prop::sample::Index, u8),
    DatagramCut(prop::sample::Index),
    /// The same, of the private data inside a well-formed datagram.
    PrivateFlip(prop::sample::Index, u8),
    PrivateCut(prop::sample::Index),
}

fn flip(bytes: &[u8], at: &prop::sample::Index, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        out[at.index(bytes.len())] ^= 1 << bit;
    }
    out
}

fn cut(bytes: &[u8], at: &prop::sample::Index) -> Vec<u8> {
    bytes[..at.index(bytes.len() + 1)].to_vec()
}

/// One input frame: raw garbage, or a (possibly damaged) message.
#[derive(Debug, Clone)]
enum Input {
    Garbage(Vec<u8>),
    Message(CmMessage, Damage),
}

impl Input {
    fn frame(&self) -> Frame {
        let (msg, damage) = match self {
            Input::Garbage(bytes) => return Frame::new(Bytes::from(bytes.clone())),
            Input::Message(msg, damage) => (msg, damage),
        };
        let with_private = |edit: &dyn Fn(&[u8]) -> Vec<u8>| match msg.clone() {
            CmMessage::ConnectRequest {
                handshake_id,
                qpn,
                start_psn,
                private_data,
            } => CmMessage::ConnectRequest {
                handshake_id,
                qpn,
                start_psn,
                private_data: Bytes::from(edit(&private_data)),
            },
            CmMessage::ConnectReply {
                handshake_id,
                qpn,
                start_psn,
                private_data,
            } => CmMessage::ConnectReply {
                handshake_id,
                qpn,
                start_psn,
                private_data: Bytes::from(edit(&private_data)),
            },
            other => other,
        };
        match damage {
            Damage::None => cm_frame(msg.encode()),
            Damage::FrameFlip(at, bit) => Frame::new(Bytes::from(flip(
                &cm_frame(msg.encode()).to_vec(),
                at,
                *bit,
            ))),
            Damage::FrameCut(at) => {
                Frame::new(Bytes::from(cut(&cm_frame(msg.encode()).to_vec(), at)))
            }
            Damage::DatagramFlip(at, bit) => cm_frame(Bytes::from(flip(&msg.encode(), at, *bit))),
            Damage::DatagramCut(at) => cm_frame(Bytes::from(cut(&msg.encode(), at))),
            Damage::PrivateFlip(at, bit) => {
                cm_frame(with_private(&|pd| flip(pd, at, *bit)).encode())
            }
            Damage::PrivateCut(at) => cm_frame(with_private(&|pd| cut(pd, at)).encode()),
        }
    }
}

/// Handshake ids cluster on a few values — the listener's own among
/// them — so replies, rejects and ready-to-use messages meet live
/// handshakes as well as unknown ones.
fn arb_handshake() -> impl Strategy<Value = u64> {
    prop_oneof![Just(OWN_HANDSHAKE), 1u64..4, any::<u64>()]
}

fn arb_message() -> impl Strategy<Value = CmMessage> {
    let advert = (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(va, rkey, len)| {
        RegionAdvert {
            va,
            rkey: RKey(rkey),
            len,
        }
        .encode()
    });
    let kind =
        prop_oneof![Just(KINDS[0]), Just(KINDS[1]), any::<u8>()].prop_map(|k| Bytes::from(vec![k]));
    let endpoint = || (any::<u32>(), any::<u32>());
    prop_oneof![
        (arb_handshake(), endpoint(), kind).prop_map(|(handshake_id, (qpn, psn), private_data)| {
            CmMessage::ConnectRequest {
                handshake_id,
                qpn: Qpn(qpn & 0xff_ffff),
                start_psn: Psn::new(psn),
                private_data,
            }
        }),
        (arb_handshake(), endpoint(), advert).prop_map(
            |(handshake_id, (qpn, psn), private_data)| {
                CmMessage::ConnectReply {
                    handshake_id,
                    qpn: Qpn(qpn & 0xff_ffff),
                    start_psn: Psn::new(psn),
                    private_data,
                }
            }
        ),
        arb_handshake().prop_map(|handshake_id| CmMessage::ReadyToUse { handshake_id }),
        (arb_handshake(), 0u8..3).prop_map(|(handshake_id, r)| CmMessage::ConnectReject {
            handshake_id,
            reason: [
                RejectReason::NotListening,
                RejectReason::NotAuthorized,
                RejectReason::NoResources
            ][usize::from(r)],
        }),
    ]
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    let at = || any::<prop::sample::Index>();
    prop_oneof![
        Just(Damage::None),
        (at(), 0u8..8).prop_map(|(i, b)| Damage::FrameFlip(i, b)),
        at().prop_map(Damage::FrameCut),
        (at(), 0u8..8).prop_map(|(i, b)| Damage::DatagramFlip(i, b)),
        at().prop_map(Damage::DatagramCut),
        (at(), 0u8..8).prop_map(|(i, b)| Damage::PrivateFlip(i, b)),
        at().prop_map(Damage::PrivateCut),
    ]
}

fn arb_inputs() -> impl Strategy<Value = Vec<Input>> {
    let input = prop_oneof![
        prop::collection::vec(any::<u8>(), 0..160).prop_map(Input::Garbage),
        (arb_message(), arb_damage()).prop_map(|(m, d)| Input::Message(m, d)),
        (arb_message(), arb_damage()).prop_map(|(m, d)| Input::Message(m, d)),
        (arb_message(), arb_damage()).prop_map(|(m, d)| Input::Message(m, d)),
    ];
    prop::collection::vec(input, 1..24)
}

/// What a host that handles `frames` strictly one after the other must
/// end up with.
#[derive(Debug, Default)]
struct Expected {
    received: u64,
    frame_drops: u64,
    cm_refused: u64,
    seen: Vec<Seen>,
    /// Frames the host sends back: one per accept, reject and connected.
    answers: usize,
    open_handshakes: usize,
    /// Datagrams `CmMessage::decode` accepts, and the requests among them.
    decodable: usize,
    requests: usize,
}

fn model(frames: &[Frame]) -> Expected {
    let mut e = Expected::default();
    let mut initiated = BTreeSet::from([OWN_HANDSHAKE]);
    let mut responding = BTreeSet::new();
    for frame in frames {
        let Ok(pkt) = RocePacket::parse(frame) else {
            e.frame_drops += 1;
            continue;
        };
        e.received += 1;
        if pkt.bth.dest_qp != CM_QPN {
            continue; // no such queue pair: dropped silently
        }
        let decoded = CmMessage::decode(&pkt.payload);
        e.decodable += usize::from(decoded.is_ok());
        match decoded {
            Err(_) => e.cm_refused += 1,
            Ok(CmMessage::ConnectRequest {
                handshake_id,
                private_data,
                ..
            }) => {
                let accepted = private_data.first().is_some_and(|k| KINDS.contains(k));
                if accepted {
                    responding.insert(handshake_id);
                }
                e.requests += 1;
                e.answers += 1;
                e.seen.push(Seen::Request {
                    handshake_id,
                    accepted,
                });
            }
            Ok(CmMessage::ConnectReply {
                handshake_id,
                private_data,
                ..
            }) => {
                if initiated.remove(&handshake_id) {
                    e.answers += 1;
                    e.seen.push(Seen::Connected {
                        advert: RegionAdvert::decode(&private_data).ok(),
                    });
                }
            }
            Ok(CmMessage::ReadyToUse { handshake_id }) => {
                if responding.remove(&handshake_id) {
                    e.seen.push(Seen::Established { handshake_id });
                }
            }
            Ok(CmMessage::ConnectReject {
                handshake_id,
                reason,
            }) => {
                if initiated.remove(&handshake_id) {
                    e.seen.push(Seen::Rejected { reason });
                }
            }
        }
    }
    e.open_handshakes = initiated.len() + responding.len();
    e
}

/// Runs `frames` into a listening host `gap` apart; returns what the
/// host counted, what its app saw, its open handshakes and how many
/// frames it sent back.
fn deliver(
    frames: &[Frame],
    gap: SimDuration,
    rx_capacity: usize,
) -> (HostStats, Vec<Seen>, usize, usize) {
    let mut sim = Simulation::new(7);
    let peer = sim.add_node(Box::new(Injector {
        frames: frames.to_vec(),
        gap,
        next: 0,
        answers: 0,
    }));
    let mut cfg = HostConfig::new(HOST_IP);
    cfg.rx_capacity = rx_capacity;
    let host = sim.add_node(Box::new(Host::new(cfg, Listener::default())));
    sim.connect(peer, host, LinkSpec::default());
    sim.run_until(SimTime::from_millis(1) + gap * frames.len() as u64);
    let answers = sim.node_ref::<Injector>(peer).answers;
    let host = sim.node_ref::<Host<Listener>>(host);
    (
        host.stats(),
        host.app().seen.clone(),
        host.open_handshakes(),
        answers,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arrivals 200 µs apart: each frame is handled, callbacks and all,
    /// before the next one lands, so the sequential model is exact.
    #[test]
    fn spaced_arrivals_match_the_sequential_model(inputs in arb_inputs()) {
        let frames: Vec<Frame> = inputs.iter().map(Input::frame).collect();
        let want = model(&frames);
        let (stats, seen, open, answers) =
            deliver(&frames, SimDuration::from_micros(200), 16);
        prop_assert_eq!(stats.rx_overflow_drops, 0);
        prop_assert_eq!(stats.packets_received, want.received);
        prop_assert_eq!(stats.parse_drops, want.frame_drops + want.cm_refused);
        prop_assert_eq!(seen, want.seen);
        prop_assert_eq!(open, want.open_handshakes);
        // The listener's own ConnectRequest, then one frame per answer.
        prop_assert_eq!(answers, 1 + want.answers);
    }

    /// The same input in one burst into a one-to-three-slot buffer:
    /// which frames overflow is the NIC's business, but each is counted
    /// once, and nothing the CM refuses reaches the app.
    #[test]
    fn a_burst_into_a_tiny_buffer_still_adds_up(inputs in arb_inputs(), rx_capacity in 1usize..4) {
        let frames: Vec<Frame> = inputs.iter().map(Input::frame).collect();
        let want = model(&frames);
        let (stats, seen, open, _) = deliver(&frames, SimDuration::ZERO, rx_capacity);
        let counted = stats.rx_overflow_drops + stats.packets_received + stats.parse_drops;
        let arrived = frames.len() as u64;
        // `parse_drops` counts frame-level and CM-level refusals; only
        // the latter are also `packets_received`.
        prop_assert!(counted >= arrived && counted <= arrived + want.cm_refused);
        prop_assert!(stats.packets_received <= want.received);
        prop_assert!(seen.len() <= want.decodable);
        prop_assert!(open <= 1 + want.requests);
    }
}

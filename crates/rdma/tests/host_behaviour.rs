//! Host/NIC behaviours beyond the happy path: multi-QP fairness, path
//! migration across ports, receive-side overload and credit collapse,
//! and write requests whose addresses or lengths do not add up.

use bytes::Bytes;
use netsim::{Context, Frame, LinkSpec, Node, PortId, SimDuration, SimTime, Simulation};
use rdma::{
    AethKind, Bth, CmEvent, CmMessage, Completion, CompletionStatus, Host, HostConfig, HostOps,
    MacAddr, NakCode, Opcode, Permissions, Psn, Qpn, RdmaApp, RegionAdvert, RegionHandle, Reth,
    RocePacket, WrId, CM_QPN,
};
use std::net::Ipv4Addr;
use std::ops::Range;
use tofino::{L3Forwarder, Switch, SwitchConfig};

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 3, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 3, 0, 2);

#[derive(Default)]
struct Acceptor {
    region: Option<RegionHandle>,
    /// The dirty range of every remote-write poll, in order.
    polls: Vec<Range<u64>>,
}

impl RdmaApp for Acceptor {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        let r = ops.register_region(1 << 20, Permissions::WRITE);
        ops.watch_region(r);
        self.region = Some(r);
    }
    fn on_completion(&mut self, _c: Completion, _ops: &mut HostOps<'_, '_>) {}
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::ConnectRequestReceived {
            handshake_id,
            from_ip,
            from_qpn,
            start_psn,
            ..
        } = ev
        {
            let info = ops.region_info(self.region.expect("registered"));
            ops.accept(
                handshake_id,
                from_ip,
                from_qpn,
                start_psn,
                RegionAdvert {
                    va: info.va,
                    rkey: info.rkey,
                    len: info.len,
                }
                .encode(),
            );
        }
    }
    fn on_remote_write(&mut self, _r: RegionHandle, dirty: Range<u64>, _ops: &mut HostOps<'_, '_>) {
        self.polls.push(dirty);
    }
}

/// Opens `conns` connections to the same server and pumps writes on all
/// of them.
struct MultiConn {
    conns: usize,
    per_conn: u64,
    qpns: Vec<Qpn>,
    completions_per_qp: std::collections::BTreeMap<u32, u64>,
    completion_order: Vec<u32>,
}

impl MultiConn {
    fn new(conns: usize, per_conn: u64) -> Self {
        MultiConn {
            conns,
            per_conn,
            qpns: Vec::new(),
            completions_per_qp: Default::default(),
            completion_order: Vec::new(),
        }
    }
}

impl RdmaApp for MultiConn {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        for _ in 0..self.conns {
            ops.connect(B_IP, Bytes::new());
        }
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            self.qpns.push(qpn);
            let advert = RegionAdvert::decode(&private_data).expect("advert");
            for i in 0..self.per_conn {
                ops.post_write(
                    qpn,
                    WrId((u64::from(qpn.masked()) << 32) | i),
                    advert.va + i * 64,
                    advert.rkey,
                    Bytes::from(vec![1u8; 64]),
                );
            }
        }
    }
    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        if c.status.is_success() {
            *self.completions_per_qp.entry(c.qpn.masked()).or_default() += 1;
            self.completion_order.push(c.qpn.masked());
        }
    }
}

#[test]
fn nic_serves_queue_pairs_fairly() {
    let mut sim = Simulation::new(12);
    let a = sim.add_node(Box::new(Host::new(
        HostConfig::new(A_IP),
        MultiConn::new(4, 200),
    )));
    let b = sim.add_node(Box::new(Host::new(
        HostConfig::new(B_IP),
        Acceptor::default(),
    )));
    sim.connect(a, b, LinkSpec::default());
    sim.run_until(SimTime::from_millis(10));

    let app = sim.node_ref::<Host<MultiConn>>(a).app();
    assert_eq!(app.completions_per_qp.len(), 4);
    for (&qpn, &n) in &app.completions_per_qp {
        assert_eq!(n, 200, "qp {qpn} completed everything");
    }
    // Round-robin service: within any window of the completion stream,
    // no queue pair should dominate. Check the first half versus the
    // second half: every QP must appear in both.
    let half = app.completion_order.len() / 2;
    for &qpn in app.completions_per_qp.keys() {
        assert!(
            app.completion_order[..half].contains(&qpn),
            "qp {qpn} starved in the first half"
        );
        assert!(
            app.completion_order[half..].contains(&qpn),
            "qp {qpn} starved in the second half"
        );
    }
}

#[test]
fn connections_migrate_to_the_arrival_path() {
    // A is dual-homed via two switches; B likewise. A connects over
    // fabric 1; when A switches its active port and reconnects, the new
    // connection rides fabric 2 end to end (responses follow the arrival
    // port).
    struct LateConn {
        started: bool,
        acked: u64,
    }
    impl RdmaApp for LateConn {
        fn on_start(&mut self, _ops: &mut HostOps<'_, '_>) {}
        fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
            if let CmEvent::Connected {
                qpn, private_data, ..
            } = ev
            {
                let advert = RegionAdvert::decode(&private_data).expect("advert");
                ops.post_write(
                    qpn,
                    WrId(1),
                    advert.va,
                    advert.rkey,
                    Bytes::from(vec![9u8; 64]),
                );
            }
        }
        fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
            if c.status.is_success() {
                self.acked += 1;
            }
        }
        fn on_timer(&mut self, _t: u64, ops: &mut HostOps<'_, '_>) {
            self.started = true;
            ops.connect(B_IP, Bytes::new());
        }
    }

    let mut sim = Simulation::new(13);
    let a = sim.add_node(Box::new(Host::new(
        HostConfig::new(A_IP),
        LateConn {
            started: false,
            acked: 0,
        },
    )));
    let b = sim.add_node(Box::new(Host::new(
        HostConfig::new(B_IP),
        Acceptor::default(),
    )));
    let sw1 = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(Ipv4Addr::new(10, 3, 0, 101)),
        2,
        L3Forwarder,
    )));
    let sw2 = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(Ipv4Addr::new(10, 3, 0, 102)),
        2,
        L3Forwarder,
    )));
    // Port 0 of each host → sw1, port 1 → sw2.
    let (_, s1a) = sim.connect(a, sw1, LinkSpec::default());
    let (_, s1b) = sim.connect(b, sw1, LinkSpec::default());
    let (_, s2a) = sim.connect(a, sw2, LinkSpec::default());
    let (_, s2b) = sim.connect(b, sw2, LinkSpec::default());
    sim.node_mut::<Switch<L3Forwarder>>(sw1)
        .add_route(A_IP, s1a);
    sim.node_mut::<Switch<L3Forwarder>>(sw1)
        .add_route(B_IP, s1b);
    sim.node_mut::<Switch<L3Forwarder>>(sw2)
        .add_route(A_IP, s2a);
    sim.node_mut::<Switch<L3Forwarder>>(sw2)
        .add_route(B_IP, s2b);

    // Kill fabric 1 outright: if the connection tried to ride it, it
    // could never complete.
    sim.set_node_down(sw1, true);
    // Flip A to the backup port, then connect via an app action.
    sim.with_node::<Host<LateConn>, _>(a, |host, ctx| {
        host.with_ops(ctx, |_app, ops| {
            ops.set_active_port(netsim::PortId::from_index(1));
            ops.set_app_timer(SimDuration::from_micros(10), 1);
        });
    });
    sim.run_until(SimTime::from_millis(10));

    let app = sim.node_ref::<Host<LateConn>>(a).app();
    assert!(app.started);
    assert_eq!(app.acked, 1, "write completed entirely over fabric 2");
    let polls = &sim.node_ref::<Host<Acceptor>>(b).app().polls;
    assert_eq!(polls, &[Range { start: 0, end: 64 }]);
}

#[test]
fn receiver_overload_collapses_credits_and_throttles() {
    // A receiver with a deliberately slow RX engine and small buffer:
    // the advertised credits drop under load, and the sender's window
    // tightens (no livelock, everything still completes).
    struct Pump {
        total: u64,
        acked: u64,
        min_credits: u8,
    }
    impl RdmaApp for Pump {
        fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
            ops.connect(B_IP, Bytes::new());
        }
        fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
            if let CmEvent::Connected {
                qpn, private_data, ..
            } = ev
            {
                let advert = RegionAdvert::decode(&private_data).expect("advert");
                for i in 0..self.total {
                    ops.post_write(
                        qpn,
                        WrId(i),
                        advert.va,
                        advert.rkey,
                        Bytes::from(vec![1u8; 64]),
                    );
                }
            }
        }
        fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
            if c.status.is_success() {
                self.acked += 1;
                self.min_credits = self.min_credits.min(c.credits);
            }
        }
    }

    let mut sim = Simulation::new(14);
    let a = sim.add_node(Box::new(Host::new(
        HostConfig::new(A_IP),
        Pump {
            total: 500,
            acked: 0,
            min_credits: 31,
        },
    )));
    let mut slow = HostConfig::new(B_IP);
    slow.rx_capacity = 4;
    slow.nic_rx_cost = netsim::SimDuration::from_micros(2); // ~0.5 Mpps NIC
    let b = sim.add_node(Box::new(Host::new(slow, Acceptor::default())));
    sim.connect(a, b, LinkSpec::default());
    sim.run_until(SimTime::from_millis(50));

    let app = sim.node_ref::<Host<Pump>>(a).app();
    assert_eq!(app.acked, 500, "flow control must not deadlock");
    assert!(
        app.min_credits <= 1,
        "overloaded receiver must advertise scarcity, saw {}",
        app.min_credits
    );
    // Every one of the 500 packets landed (all at offset 0) and the app
    // was told about that range — however few polls it took.
    let server = sim.node_ref::<Host<Acceptor>>(b);
    assert_eq!(server.stats().rx_zero_copy_deliveries, 500);
    let polls = &server.app().polls;
    assert!(!polls.is_empty() && polls.iter().all(|d| *d == (0..64)));
    assert_eq!(
        polls.len() as u64 + server.stats().rx_notifications_merged,
        500,
        "each packet either queued a poll or merged into one"
    );
    let region = server.app().region.expect("registered");
    assert_eq!(server.memory().read_local(region, 0, 64), &[1u8; 64]);
}

#[test]
fn writes_landing_behind_a_busy_cpu_coalesce_into_one_poll() {
    // Three single-packet writes arrive ~100 ns apart; the server's CPU
    // needs 5 µs to reap anything. The first packet queues the region's
    // notification, the other two only widen its dirty range: one
    // callback, whose range is the hull and whose bytes are all there.
    struct Burst;
    impl RdmaApp for Burst {
        fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
            ops.connect(B_IP, Bytes::new());
        }
        fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
            if let CmEvent::Connected {
                qpn, private_data, ..
            } = ev
            {
                let advert = RegionAdvert::decode(&private_data).expect("advert");
                // Not in address order: the hull is not the last write.
                for (i, offset) in [64u64, 192, 0].into_iter().enumerate() {
                    ops.post_write(
                        qpn,
                        WrId(i as u64),
                        advert.va + offset,
                        advert.rkey,
                        Bytes::from(vec![i as u8 + 1; 64]),
                    );
                }
            }
        }
        fn on_completion(&mut self, _c: Completion, _ops: &mut HostOps<'_, '_>) {}
    }

    let mut sim = Simulation::new(15);
    let a = sim.add_node(Box::new(Host::new(HostConfig::new(A_IP), Burst)));
    let mut busy = HostConfig::new(B_IP);
    busy.reap_cost = SimDuration::from_micros(5);
    let b = sim.add_node(Box::new(Host::new(busy, Acceptor::default())));
    sim.connect(a, b, LinkSpec::default());
    sim.run_until(SimTime::from_millis(1));

    let server = sim.node_ref::<Host<Acceptor>>(b);
    assert_eq!(server.app().polls, [Range { start: 0, end: 256 }]);
    let stats = server.stats();
    assert_eq!(stats.rx_zero_copy_deliveries, 3);
    assert_eq!(stats.rx_notifications_merged, 2);
    // Each merged packet still cost the CPU a reap: 3 × 5 µs on top of the
    // three 25 µs CM steps (request, accept, established).
    assert_eq!(server.cpu_busy(), SimDuration::from_micros(3 * 25 + 3 * 5));
    let region = server.app().region.expect("registered");
    let landed = server.memory().read_local(region, 0, 256);
    assert_eq!(&landed[..64], &[3u8; 64]);
    assert_eq!(&landed[64..128], &[1u8; 64]);
    assert_eq!(&landed[128..192], &[0u8; 64], "the gap inside the hull");
    assert_eq!(&landed[192..], &[2u8; 64]);
}

/// Opens two connections: the first posts a two-packet write whose
/// landing address runs off the end of the address space, the second a
/// well-formed one.
#[derive(Default)]
struct WildThenSane {
    connected: usize,
    completions: Vec<(WrId, CompletionStatus)>,
}

impl RdmaApp for WildThenSane {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        ops.connect(B_IP, Bytes::new());
        ops.connect(B_IP, Bytes::new());
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            let advert = RegionAdvert::decode(&private_data).expect("advert");
            let (wr_id, va, len) = match self.connected {
                0 => (WrId(0), u64::MAX - 100, 2048),
                _ => (WrId(1), advert.va, 64),
            };
            self.connected += 1;
            ops.post_write(qpn, wr_id, va, advert.rkey, Bytes::from(vec![7u8; len]));
        }
    }
    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        self.completions.push((c.wr_id, c.status));
    }
}

#[test]
fn a_write_running_off_the_address_space_is_nakd_not_fatal_to_the_responder() {
    let mut sim = Simulation::new(16);
    let a = sim.add_node(Box::new(Host::new(
        HostConfig::new(A_IP),
        WildThenSane::default(),
    )));
    let b = sim.add_node(Box::new(Host::new(
        HostConfig::new(B_IP),
        Acceptor::default(),
    )));
    sim.connect(a, b, LinkSpec::default());
    sim.run_until(SimTime::from_millis(1));

    let mut completions = sim
        .node_ref::<Host<WildThenSane>>(a)
        .app()
        .completions
        .clone();
    completions.sort_by_key(|(wr_id, _)| wr_id.0);
    assert_eq!(
        completions,
        [
            (
                WrId(0),
                CompletionStatus::RemoteError(NakCode::RemoteAccessError)
            ),
            (WrId(1), CompletionStatus::Success),
        ]
    );
    let server = sim.node_ref::<Host<Acceptor>>(b);
    // One NAK per packet of the dead message: the first for where it
    // would land, the second because no message is open any more.
    assert_eq!(server.stats().naks_sent, 2);
    assert_eq!(server.app().polls, [Range { start: 0, end: 64 }]);
}

/// Not a host: handshakes by hand, then sends `script` — write packets
/// whose lengths do not add up, frames no [`Host`] would build. Each entry
/// is an opcode, the DMA length its RETH declares (for opcodes that carry
/// one) and the payload.
struct Forger {
    script: Vec<(Opcode, Option<u32>, Bytes)>,
    answers: Vec<RocePacket>,
}

impl Forger {
    const QPN: Qpn = Qpn(7);

    fn new(script: Vec<(Opcode, Option<u32>, Bytes)>) -> Self {
        Forger {
            script,
            answers: Vec::new(),
        }
    }

    fn frame(bth: Bth, reth: Option<Reth>, payload: Bytes) -> Frame {
        RocePacket {
            src_mac: MacAddr::for_ip(A_IP),
            dst_mac: MacAddr::for_ip(B_IP),
            src_ip: A_IP,
            dst_ip: B_IP,
            udp_src_port: 0xC007,
            bth,
            reth,
            aeth: None,
            payload,
        }
        .to_frame()
    }
}

impl Node for Forger {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let hello = CmMessage::ConnectRequest {
            handshake_id: 1,
            qpn: Forger::QPN,
            start_psn: Psn::new(0),
            private_data: Bytes::new(),
        };
        let bth = Bth {
            opcode: Opcode::SendOnly,
            dest_qp: CM_QPN,
            psn: Psn::new(0),
            ack_req: false,
        };
        ctx.send(PortId::FIRST, Forger::frame(bth, None, hello.encode()));
    }
    fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut Context<'_>) {
        let pkt = RocePacket::parse(&frame).expect("the host emits valid frames");
        if pkt.bth.dest_qp != CM_QPN {
            self.answers.push(pkt);
            return;
        }
        let Ok(CmMessage::ConnectReply {
            qpn, private_data, ..
        }) = CmMessage::decode(&pkt.payload)
        else {
            panic!("expected the ConnectReply");
        };
        let advert = RegionAdvert::decode(&private_data).expect("advert");
        for (psn, (opcode, dma_len, payload)) in self.script.iter().enumerate() {
            let bth = Bth {
                opcode: *opcode,
                dest_qp: qpn,
                psn: Psn::new(psn as u32),
                ack_req: false,
            };
            let reth = dma_len.map(|dma_len| Reth {
                va: advert.va,
                rkey: advert.rkey,
                dma_len,
            });
            ctx.send(PortId::FIRST, Forger::frame(bth, reth, payload.clone()));
        }
    }
}

/// Runs `script` against a host, checks that the forger got exactly one
/// answer — an `InvalidRequest` NAK — and returns the first `len` bytes of
/// the host's region with the dirty ranges its app was told about.
fn forge(
    seed: u64,
    script: Vec<(Opcode, Option<u32>, Bytes)>,
    len: usize,
) -> (Vec<u8>, Vec<Range<u64>>) {
    let mut sim = Simulation::new(seed);
    let a = sim.add_node(Box::new(Forger::new(script)));
    let b = sim.add_node(Box::new(Host::new(
        HostConfig::new(B_IP),
        Acceptor::default(),
    )));
    sim.connect(a, b, LinkSpec::default());
    sim.run_until(SimTime::from_millis(1));

    let answers = &sim.node_ref::<Forger>(a).answers;
    assert_eq!(answers.len(), 1);
    assert_eq!(
        answers[0].aeth.expect("a response").kind,
        AethKind::Nak(NakCode::InvalidRequest)
    );
    let server = sim.node_ref::<Host<Acceptor>>(b);
    assert_eq!(server.stats().naks_sent, 1);
    let region = server.app().region.expect("registered");
    let bytes = server.memory().read_local(region, 0, len).to_vec();
    (bytes, server.app().polls.clone())
}

#[test]
fn a_write_first_longer_than_its_declared_length_is_nakd() {
    let oversized = Bytes::from(vec![9u8; 64]);
    let (bytes, polls) = forge(17, vec![(Opcode::WriteFirst, Some(10), oversized)], 64);
    assert!(polls.is_empty(), "no byte may land");
    assert_eq!(bytes, [0u8; 64]);
}

#[test]
fn a_write_only_longer_than_its_declared_length_is_nakd() {
    let oversized = Bytes::from(vec![9u8; 64]);
    let (bytes, polls) = forge(18, vec![(Opcode::WriteOnly, Some(10), oversized)], 64);
    assert!(polls.is_empty(), "no byte may land");
    assert_eq!(bytes, [0u8; 64], "not even the declared ten");
}

#[test]
fn a_write_last_that_does_not_carry_what_the_message_owes_is_nakd() {
    // The first packet declares `declared` bytes and carries 1 KiB; the
    // last carries 1 KiB, which is too much for 1,500 and too little for
    // 3,000. Either way the last packet is refused whole and the first
    // packet's bytes — executed before it — are all that lands. The app
    // hears of a write message at its last packet, and this one never
    // had one: no poll.
    for (seed, declared) in [(19, 1500u32), (20, 3000)] {
        let (bytes, polls) = forge(
            seed,
            vec![
                (
                    Opcode::WriteFirst,
                    Some(declared),
                    Bytes::from(vec![1u8; 1024]),
                ),
                (Opcode::WriteLast, None, Bytes::from(vec![2u8; 1024])),
            ],
            4096,
        );
        assert!(polls.is_empty(), "declared {declared}: {polls:?}");
        assert_eq!(&bytes[..1024], &[1u8; 1024][..], "declared {declared}");
        assert!(
            bytes[1024..].iter().all(|&b| b == 0),
            "declared {declared}: a byte of the refused last packet landed"
        );
    }
}

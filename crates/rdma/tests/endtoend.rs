//! End-to-end tests of the RDMA stack: two hosts on a direct link.

use bytes::Bytes;
use netsim::{LinkSpec, SimDuration, SimTime, Simulation};
use rdma::{
    CmEvent, Completion, CompletionStatus, Host, HostConfig, HostOps, NakCode, Permissions, Qpn,
    RKey, RdmaApp, RegionAdvert, RegionHandle, RejectReason, WrId,
};
use std::net::Ipv4Addr;
use std::ops::Range;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A server that exposes one region and accepts every connection,
/// advertising the region in the reply's private data.
#[derive(Default)]
struct Server {
    region: Option<RegionHandle>,
    region_len: usize,
    perms: Permissions,
    /// The dirty range of every remote-write poll, in order.
    writes_seen: Vec<Range<u64>>,
    established: u32,
    reject_all: bool,
}

impl Server {
    fn new(region_len: usize, perms: Permissions) -> Self {
        Server {
            region_len,
            perms,
            ..Server::default()
        }
    }
}

impl RdmaApp for Server {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        let region = ops.register_region(self.region_len, self.perms);
        ops.watch_region(region);
        // A recognizable pattern for read tests.
        let pattern: Vec<u8> = (0..16u8).collect();
        ops.write_local(region, 0, &pattern);
        self.region = Some(region);
    }

    fn on_completion(&mut self, _c: Completion, _ops: &mut HostOps<'_, '_>) {}

    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        match ev {
            CmEvent::ConnectRequestReceived {
                handshake_id,
                from_ip,
                from_qpn,
                start_psn,
                ..
            } => {
                if self.reject_all {
                    ops.reject(handshake_id, from_ip, RejectReason::NotAuthorized);
                    return;
                }
                let region = self.region.expect("registered at start");
                let info = ops.region_info(region);
                let advert = RegionAdvert {
                    va: info.va,
                    rkey: info.rkey,
                    len: info.len,
                };
                ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
            }
            CmEvent::Established { .. } => self.established += 1,
            _ => {}
        }
    }

    fn on_remote_write(
        &mut self,
        _region: RegionHandle,
        dirty: Range<u64>,
        _ops: &mut HostOps<'_, '_>,
    ) {
        self.writes_seen.push(dirty);
    }
}

/// A client that connects, then runs a list of writes/reads.
struct Client {
    server_ip: Ipv4Addr,
    payloads: Vec<Bytes>,
    read_len: Option<u32>,
    qpn: Option<Qpn>,
    advert: Option<RegionAdvert>,
    scratch: Option<RegionHandle>,
    completions: Vec<Completion>,
    connected_at: Option<SimTime>,
    rejected: bool,
    bogus_rkey: bool,
}

impl Client {
    fn writes(server_ip: Ipv4Addr, payloads: Vec<Bytes>) -> Self {
        Client {
            server_ip,
            payloads,
            read_len: None,
            qpn: None,
            advert: None,
            scratch: None,
            completions: Vec::new(),
            connected_at: None,
            rejected: false,
            bogus_rkey: false,
        }
    }
}

impl RdmaApp for Client {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        self.scratch = Some(ops.register_region(4096, Permissions::NONE));
        ops.connect(self.server_ip, Bytes::new());
    }

    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        match ev {
            CmEvent::Connected {
                qpn, private_data, ..
            } => {
                self.qpn = Some(qpn);
                self.connected_at = Some(ops.now());
                let advert = RegionAdvert::decode(&private_data).expect("server advert");
                self.advert = Some(advert);
                let rkey = if self.bogus_rkey {
                    RKey(advert.rkey.0 ^ 0xdead)
                } else {
                    advert.rkey
                };
                for (i, p) in self.payloads.iter().enumerate() {
                    ops.post_write(qpn, WrId(i as u64), advert.va, rkey, p.clone());
                }
                if let Some(len) = self.read_len {
                    ops.post_read(
                        qpn,
                        WrId(900),
                        advert.va,
                        advert.rkey,
                        len,
                        self.scratch.expect("registered"),
                        0,
                    );
                }
            }
            CmEvent::Rejected { .. } => self.rejected = true,
            _ => {}
        }
    }

    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        self.completions.push(c);
    }
}

fn two_host_sim(server: Server, client: Client) -> (Simulation, netsim::NodeId, netsim::NodeId) {
    let mut sim = Simulation::new(17);
    let c = sim.add_node(Box::new(Host::new(HostConfig::new(CLIENT_IP), client)));
    let s = sim.add_node(Box::new(Host::new(HostConfig::new(SERVER_IP), server)));
    sim.connect(c, s, LinkSpec::default());
    (sim, c, s)
}

#[test]
fn connect_write_ack_completes() {
    let server = Server::new(4096, Permissions::NONE);
    let mut server_grant = server;
    // Grant by default perms instead: write-enabled region.
    server_grant.perms = Permissions::WRITE;
    let client = Client::writes(SERVER_IP, vec![Bytes::from(vec![7u8; 64])]);
    let (mut sim, c, s) = two_host_sim(server_grant, client);
    sim.run_until(SimTime::from_millis(1));

    let client = sim.node_ref::<Host<Client>>(c).app();
    assert!(client.connected_at.is_some(), "handshake completed");
    assert_eq!(client.completions.len(), 1);
    assert_eq!(client.completions[0].status, CompletionStatus::Success);

    let server = sim.node_ref::<Host<Server>>(s).app();
    assert_eq!(server.established, 1);
    assert_eq!(server.writes_seen, [Range { start: 0, end: 64 }]);
}

#[test]
fn multi_packet_write_lands_contiguously() {
    // 3000 B > 2 MTUs: first/middle/last segmentation, one ACK.
    let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    let server = Server::new(8192, Permissions::WRITE);
    let client = Client::writes(SERVER_IP, vec![Bytes::from(payload.clone())]);
    let (mut sim, c, s) = two_host_sim(server, client);
    sim.run_until(SimTime::from_millis(1));

    let client_app = sim.node_ref::<Host<Client>>(c).app();
    assert_eq!(
        client_app.completions.len(),
        1,
        "one completion per message"
    );
    assert!(client_app.completions[0].status.is_success());
    // The server's NIC placed three packets; its polls tile the payload
    // (no gap, no overlap) and the region holds it byte for byte.
    let server = sim.node_ref::<Host<Server>>(s);
    assert_eq!(server.stats().rx_zero_copy_deliveries, 3);
    let server_app = server.app();
    let mut end = 0;
    for d in &server_app.writes_seen {
        assert_eq!(d.start, end, "{:?}", server_app.writes_seen);
        end = d.end;
    }
    assert_eq!(end, 3000);
    let region = server_app.region.expect("registered");
    assert_eq!(server.memory().read_local(region, 0, 3000), &payload[..]);
}

#[test]
fn read_returns_remote_bytes() {
    struct ReadClient {
        inner: Client,
        read_back: Option<Vec<u8>>,
    }
    impl RdmaApp for ReadClient {
        fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
            self.inner.on_start(ops);
        }
        fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
            self.inner.on_cm_event(ev, ops);
        }
        fn on_completion(&mut self, c: Completion, ops: &mut HostOps<'_, '_>) {
            if c.wr_id == WrId(900) && c.status.is_success() {
                self.read_back = Some(
                    ops.read_local(self.inner.scratch.expect("scratch"), 0, 16)
                        .to_vec(),
                );
            }
            self.inner.on_completion(c, ops);
        }
    }
    let mut inner = Client::writes(SERVER_IP, vec![]);
    inner.read_len = Some(16);
    let server = Server::new(64, Permissions::READ);
    let mut sim = Simulation::new(17);
    let c = sim.add_node(Box::new(Host::new(
        HostConfig::new(CLIENT_IP),
        ReadClient {
            inner,
            read_back: None,
        },
    )));
    let s = sim.add_node(Box::new(Host::new(HostConfig::new(SERVER_IP), server)));
    sim.connect(c, s, LinkSpec::default());
    sim.run_until(SimTime::from_millis(1));
    let client_app = sim.node_ref::<Host<ReadClient>>(c).app();
    assert_eq!(client_app.inner.completions.len(), 1);
    assert!(client_app.inner.completions[0].status.is_success());
    let expected: Vec<u8> = (0..16u8).collect();
    assert_eq!(client_app.read_back.as_deref(), Some(&expected[..]));
}

#[test]
fn write_without_permission_naks_remote_access_error() {
    let server = Server::new(4096, Permissions::NONE); // no write permission
    let client = Client::writes(SERVER_IP, vec![Bytes::from(vec![1u8; 32])]);
    let (mut sim, c, s) = two_host_sim(server, client);
    sim.run_until(SimTime::from_millis(1));

    let client_app = sim.node_ref::<Host<Client>>(c).app();
    assert_eq!(client_app.completions.len(), 1);
    assert_eq!(
        client_app.completions[0].status,
        CompletionStatus::RemoteError(NakCode::RemoteAccessError)
    );
    let server_app = sim.node_ref::<Host<Server>>(s).app();
    assert!(server_app.writes_seen.is_empty(), "write must not land");
}

#[test]
fn wrong_rkey_naks() {
    let server = Server::new(4096, Permissions::WRITE);
    let mut client = Client::writes(SERVER_IP, vec![Bytes::from(vec![1u8; 32])]);
    client.bogus_rkey = true;
    let (mut sim, c, _s) = two_host_sim(server, client);
    sim.run_until(SimTime::from_millis(1));
    let client_app = sim.node_ref::<Host<Client>>(c).app();
    assert_eq!(
        client_app.completions[0].status,
        CompletionStatus::RemoteError(NakCode::RemoteAccessError)
    );
}

#[test]
fn rejection_reaches_the_initiator() {
    let mut server = Server::new(64, Permissions::NONE);
    server.reject_all = true;
    let client = Client::writes(SERVER_IP, vec![]);
    let (mut sim, c, _s) = two_host_sim(server, client);
    sim.run_until(SimTime::from_millis(1));
    let client_app = sim.node_ref::<Host<Client>>(c).app();
    assert!(client_app.rejected);
    assert!(client_app.connected_at.is_none());
}

/// Timeout test: the server dies mid-run *before* acknowledging.
#[test]
fn unacked_write_flushes_with_timeout_error() {
    struct SlowStart {
        inner: Client,
        armed: bool,
    }
    impl RdmaApp for SlowStart {
        fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
            self.inner.on_start(ops);
        }
        fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
            if let CmEvent::Connected {
                qpn, private_data, ..
            } = &ev
            {
                // Record but delay the write by 2 ms via an app timer.
                self.inner.qpn = Some(*qpn);
                self.inner.advert = Some(RegionAdvert::decode(private_data).expect("advert"));
                ops.set_app_timer(SimDuration::from_millis(2), 1);
                self.armed = true;
                return;
            }
            self.inner.on_cm_event(ev, ops);
        }
        fn on_timer(&mut self, _token: u64, ops: &mut HostOps<'_, '_>) {
            let adv = self.inner.advert.expect("connected");
            ops.post_write(
                self.inner.qpn.expect("connected"),
                WrId(0),
                adv.va,
                adv.rkey,
                Bytes::from(vec![3u8; 32]),
            );
        }
        fn on_completion(&mut self, c: Completion, ops: &mut HostOps<'_, '_>) {
            self.inner.on_completion(c, ops);
        }
    }

    let mut sim = Simulation::new(5);
    let client = SlowStart {
        inner: Client::writes(SERVER_IP, vec![]),
        armed: false,
    };
    let c = sim.add_node(Box::new(Host::new(HostConfig::new(CLIENT_IP), client)));
    let s = sim.add_node(Box::new(Host::new(
        HostConfig::new(SERVER_IP),
        Server::new(4096, Permissions::WRITE),
    )));
    sim.connect(c, s, LinkSpec::default());

    // Handshake completes quickly; kill the server at 1 ms, before the
    // delayed write at 2 ms.
    sim.run_until(SimTime::from_millis(1));
    sim.set_node_down(s, true);
    // Timeout 131 µs × (7 retries + 1) ≈ 1.05 ms after the write at 2 ms;
    // run long enough to hit the retry limit.
    sim.run_until(SimTime::from_millis(20));

    let app = sim.node_ref::<Host<SlowStart>>(c).app();
    assert!(app.armed);
    assert_eq!(app.inner.completions.len(), 1);
    assert_eq!(app.inner.completions[0].status, CompletionStatus::TimedOut);
}

/// The fence a replica applies to a deposed leader: the write is posted
/// under a valid grant, but the grant is revoked while the packet is on
/// the wire. The revoke must win — NAK, no bytes landed.
#[test]
fn revoke_during_in_flight_write_naks_and_leaves_memory_clean() {
    let server = Server::new(4096, Permissions::NONE);
    let client = Client::writes(SERVER_IP, vec![Bytes::from(vec![0xAB; 64])]);
    let (mut sim, c, s) = two_host_sim(server, client);

    // Let the server register its region, then grant the client an
    // explicit write permission (the leader-adoption grant).
    while sim.node_ref::<Host<Server>>(s).app().region.is_none() {
        assert!(sim.step(), "server never registered its region");
    }
    sim.with_node::<Host<Server>, _>(s, |host, ctx| {
        host.with_ops(ctx, |app, ops| {
            ops.grant(
                app.region.expect("registered"),
                CLIENT_IP,
                Permissions::WRITE,
            );
        })
    });

    // Step until the client has connected and posted its write — the
    // packet is now in flight towards the server...
    while sim.node_ref::<Host<Client>>(c).app().connected_at.is_none() {
        assert!(sim.step(), "handshake never completed");
    }
    // ...and revoke the grant before it can land.
    sim.with_node::<Host<Server>, _>(s, |host, ctx| {
        host.with_ops(ctx, |app, ops| {
            ops.revoke(app.region.expect("registered"), CLIENT_IP);
        })
    });
    sim.run_until(SimTime::from_millis(1));

    let client_app = sim.node_ref::<Host<Client>>(c).app();
    assert_eq!(client_app.completions.len(), 1);
    assert_eq!(
        client_app.completions[0].status,
        CompletionStatus::RemoteError(NakCode::RemoteAccessError)
    );
    let server_app = sim.node_ref::<Host<Server>>(s).app();
    assert!(server_app.writes_seen.is_empty(), "no bytes may land");
}

#[test]
fn pipelined_writes_complete_in_order() {
    let payloads: Vec<Bytes> = (0..32).map(|i| Bytes::from(vec![i as u8; 64])).collect();
    let server = Server::new(4096, Permissions::WRITE);
    let client = Client::writes(SERVER_IP, payloads);
    let (mut sim, c, _s) = two_host_sim(server, client);
    sim.run_until(SimTime::from_millis(2));
    let app = sim.node_ref::<Host<Client>>(c).app();
    assert_eq!(app.completions.len(), 32);
    for (i, comp) in app.completions.iter().enumerate() {
        assert_eq!(comp.wr_id, WrId(i as u64), "in-order completion");
        assert!(comp.status.is_success());
    }
}

#[test]
fn credits_are_advertised_on_acks() {
    let server = Server::new(4096, Permissions::WRITE);
    let client = Client::writes(SERVER_IP, vec![Bytes::from(vec![0u8; 8])]);
    let (mut sim, c, _s) = two_host_sim(server, client);
    sim.run_until(SimTime::from_millis(1));
    let app = sim.node_ref::<Host<Client>>(c).app();
    // An idle responder advertises (nearly) full capacity.
    assert!(
        app.completions[0].credits >= 14,
        "got {}",
        app.completions[0].credits
    );
}

//! Full-path tests of the P4CE switch program: a leader connected to the
//! switch, replicas behind it, transparent scatter/gather.

use bytes::Bytes;
use netsim::{LinkSpec, SimDuration, SimTime, Simulation};
use p4ce_switch::{AckDropStage, GroupJoin, GroupSpec, P4ceProgram, P4ceSwitchConfig};
use rdma::{
    CmEvent, Completion, CompletionStatus, Host, HostConfig, HostOps, Permissions, Psn, Qpn,
    RdmaApp, RegionAdvert, RegionHandle, WrId,
};
use std::net::Ipv4Addr;
use std::ops::Range;
use tofino::{Switch, SwitchConfig};

const LEADER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

fn replica_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 2 + i as u8)
}

/// A replica: exposes a log region, accepts group joins from the switch,
/// grants the *switch* write access (it is the apparent peer).
#[derive(Default)]
struct Replica {
    region: Option<RegionHandle>,
    deny_writes: bool,
    /// The dirty range of every poll, in order.
    dirty: Vec<Range<u64>>,
    leader_seen: Option<Ipv4Addr>,
}

impl RdmaApp for Replica {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        let r = ops.register_region(1 << 20, Permissions::NONE);
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
            private_data,
        } = ev
        {
            self.leader_seen = GroupJoin::decode(&private_data).ok().map(|j| j.leader);
            let region = self.region.expect("registered");
            let info = ops.region_info(region);
            if !self.deny_writes {
                ops.grant(region, from_ip, Permissions::WRITE);
            }
            let advert = RegionAdvert {
                va: info.va,
                rkey: info.rkey,
                len: info.len,
            };
            ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
        }
    }
    fn on_remote_write(&mut self, _r: RegionHandle, dirty: Range<u64>, _ops: &mut HostOps<'_, '_>) {
        self.dirty.push(dirty);
    }
}

/// A leader: opens a group through the switch, then issues writes.
struct Leader {
    spec: GroupSpec,
    payloads: Vec<Bytes>,
    /// Where in the switch's virtual region the first write lands.
    base_va: u64,
    qpn: Option<Qpn>,
    advert: Option<RegionAdvert>,
    connected_at: Option<SimTime>,
    completions: Vec<Completion>,
    rejected: bool,
}

impl Leader {
    fn new(f: u8, replicas: Vec<Ipv4Addr>, payloads: Vec<Bytes>) -> Self {
        Leader {
            spec: GroupSpec { f, replicas },
            payloads,
            base_va: 0,
            qpn: None,
            advert: None,
            connected_at: None,
            completions: Vec::new(),
            rejected: false,
        }
    }
}

impl RdmaApp for Leader {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        ops.connect(SW_IP, self.spec.encode());
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        match ev {
            CmEvent::Connected {
                qpn, private_data, ..
            } => {
                self.qpn = Some(qpn);
                self.connected_at = Some(ops.now());
                let advert = RegionAdvert::decode(&private_data).expect("virtual advert");
                assert_eq!(advert.va, 0, "switch advertises a zero-based virtual VA");
                self.advert = Some(advert);
                let mut offset = self.base_va;
                for (i, p) in self.payloads.iter().enumerate() {
                    ops.post_write(qpn, WrId(i as u64), offset, advert.rkey, p.clone());
                    offset += p.len() as u64;
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

struct Cluster {
    sim: Simulation,
    leader: netsim::NodeId,
    replicas: Vec<netsim::NodeId>,
    switch: netsim::NodeId,
}

fn build_cluster(
    n_replicas: usize,
    leader: Leader,
    switch_cfg: P4ceSwitchConfig,
    tweak_replica: impl Fn(usize, &mut HostConfig, &mut Replica),
) -> Cluster {
    let mut sim = Simulation::new(11);
    let leader_id = sim.add_node(Box::new(Host::new(HostConfig::new(LEADER_IP), leader)));
    let mut replica_ids = Vec::new();
    for i in 0..n_replicas {
        let mut cfg = HostConfig::new(replica_ip(i));
        let mut app = Replica::default();
        tweak_replica(i, &mut cfg, &mut app);
        replica_ids.push(sim.add_node(Box::new(Host::new(cfg, app))));
    }
    let program = P4ceProgram::new(switch_cfg);
    let switch_id = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        1 + n_replicas,
        program,
    )));
    let (_, swp) = sim.connect(leader_id, switch_id, LinkSpec::default());
    sim.node_mut::<Switch<P4ceProgram>>(switch_id)
        .add_route(LEADER_IP, swp);
    for (i, &r) in replica_ids.iter().enumerate() {
        let (_, swp) = sim.connect(r, switch_id, LinkSpec::default());
        sim.node_mut::<Switch<P4ceProgram>>(switch_id)
            .add_route(replica_ip(i), swp);
    }
    Cluster {
        sim,
        leader: leader_id,
        replicas: replica_ids,
        switch: switch_id,
    }
}

/// What landed on replica `rid`: the write packets its NIC placed in the
/// log, and the first `len` bytes of the log. Asserts on the way that the
/// polls' dirty ranges tile `0..len` — the leader writes back to back, so
/// a gap or an overlap means a packet landed in the wrong place.
fn landed(c: &Cluster, rid: netsim::NodeId, len: usize) -> (u64, &[u8]) {
    let host = c.sim.node_ref::<Host<Replica>>(rid);
    let rep = host.app();
    let mut end = 0;
    for d in &rep.dirty {
        assert_eq!(d.start, end, "polls tile the log: {:?}", rep.dirty);
        end = d.end;
    }
    assert_eq!(end, len as u64, "polls cover every write: {:?}", rep.dirty);
    let region = rep.region.expect("registered");
    (
        host.stats().rx_zero_copy_deliveries,
        host.memory().read_local(region, 0, len),
    )
}

#[test]
fn single_write_scatters_to_all_and_gathers_one_ack() {
    let payload = Bytes::from(vec![0x5a; 64]);
    let leader = Leader::new(1, vec![replica_ip(0), replica_ip(1)], vec![payload]);
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));

    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert!(leader_app.connected_at.is_some(), "group established");
    assert_eq!(leader_app.completions.len(), 1);
    assert!(leader_app.completions[0].status.is_success());

    for (&rid, i) in c.replicas.iter().zip(0..) {
        let rep = c.sim.node_ref::<Host<Replica>>(rid).app();
        assert_eq!(
            rep.dirty,
            [Range { start: 0, end: 64 }],
            "replica {i} got the write"
        );
        assert_eq!(rep.leader_seen, Some(LEADER_IP), "join names the leader");
    }

    let prog = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch).program();
    assert_eq!(prog.stats.scattered, 1);
    assert_eq!(
        prog.stats.acks_forwarded, 1,
        "only the f-th ACK reaches the leader"
    );
    assert_eq!(
        prog.stats.acks_absorbed, 1,
        "the other ACK dies in the switch"
    );
    assert_eq!(prog.active_groups(), 1);

    // The leader received exactly one ACK packet for its write (plus CM).
    let leader_stats = c.sim.node_ref::<Host<Leader>>(c.leader).stats();
    assert_eq!(leader_stats.naks_sent, 0);
}

#[test]
fn four_replicas_quorum_two() {
    let payloads: Vec<Bytes> = (0..10).map(|i| Bytes::from(vec![i as u8; 64])).collect();
    let replicas: Vec<Ipv4Addr> = (0..4).map(replica_ip).collect();
    let leader = Leader::new(2, replicas, payloads);
    let mut c = build_cluster(4, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));

    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert_eq!(leader_app.completions.len(), 10);
    assert!(leader_app.completions.iter().all(|c| c.status.is_success()));

    let prog = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch).program();
    assert_eq!(prog.stats.scattered, 10);
    assert_eq!(prog.stats.acks_forwarded, 10);
    // 4 ACKs per write; 1 forwarded as the f-th (f=2 → 1 absorbed before,
    // 2 after) = 3 absorbed per write.
    assert_eq!(prog.stats.acks_absorbed, 30);

    // Every replica saw every write at the right offset.
    for &rid in &c.replicas {
        let (packets, log) = landed(&c, rid, 640);
        assert_eq!(packets, 10);
        for (i, block) in log.chunks(64).enumerate() {
            assert!(block.iter().all(|&b| b == i as u8), "write {i}");
        }
    }
}

#[test]
fn multi_packet_write_is_scattered_packet_by_packet() {
    // 2500 B = 3 packets with MTU 1024 (§IV-B: each packet of a long
    // message is multicast individually).
    let payload = Bytes::from((0..2500u32).map(|i| (i % 256) as u8).collect::<Vec<u8>>());
    let leader = Leader::new(1, vec![replica_ip(0), replica_ip(1)], vec![payload.clone()]);
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));

    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert_eq!(leader_app.completions.len(), 1);
    assert!(leader_app.completions[0].status.is_success());

    let prog = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch).program();
    assert_eq!(prog.stats.scattered, 3, "three packets multicast");

    for &rid in &c.replicas {
        let (packets, log) = landed(&c, rid, 2500);
        assert_eq!(packets, 3, "every packet of the copy landed");
        assert_eq!(log, &payload[..], "contiguously, byte for byte");
    }
}

#[test]
fn denied_replica_naks_through_the_switch() {
    // f=2 with one replica refusing: the quorum can never form and the
    // NAK must surface at the leader immediately.
    let leader = Leader::new(
        2,
        vec![replica_ip(0), replica_ip(1)],
        vec![Bytes::from(vec![1u8; 64])],
    );
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |i, _, app| {
        if i == 1 {
            app.deny_writes = true;
        }
    });
    c.sim.run_until(SimTime::from_millis(100));

    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert_eq!(leader_app.completions.len(), 1);
    assert!(
        matches!(
            leader_app.completions[0].status,
            CompletionStatus::RemoteError(_)
        ),
        "leader must learn about the misbehaving replica: {:?}",
        leader_app.completions[0].status
    );
    let prog = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch).program();
    assert_eq!(prog.stats.naks_forwarded, 1);
}

#[test]
fn group_setup_takes_the_reconfiguration_delay() {
    let leader = Leader::new(1, vec![replica_ip(0), replica_ip(1)], vec![]);
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));
    let t = c
        .sim
        .node_ref::<Host<Leader>>(c.leader)
        .app()
        .connected_at
        .expect("connected");
    let setup = t.duration_since(SimTime::ZERO);
    assert!(
        setup >= SimDuration::from_millis(40),
        "setup {setup} must include the 40 ms reconfiguration"
    );
    assert!(
        setup <= SimDuration::from_millis(42),
        "setup {setup} should be dominated by reconfiguration (paper: ~40 ms)"
    );
}

#[test]
fn egress_drop_mode_still_aggregates_correctly() {
    let cfg = P4ceSwitchConfig {
        ack_drop: AckDropStage::Egress,
        ..P4ceSwitchConfig::default()
    };
    let payloads: Vec<Bytes> = (0..5).map(|i| Bytes::from(vec![i as u8; 64])).collect();
    let leader = Leader::new(2, (0..3).map(replica_ip).collect(), payloads);
    let mut c = build_cluster(3, leader, cfg, |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));

    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert_eq!(leader_app.completions.len(), 5);
    assert!(leader_app.completions.iter().all(|c| c.status.is_success()));
    let prog = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch).program();
    assert_eq!(prog.stats.acks_forwarded, 5);
    assert_eq!(prog.stats.acks_absorbed, 10);
    // In egress mode the absorbed ACKs consumed leader-egress capacity.
    let st = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch).stats();
    assert_eq!(st.dropped_egress, 10);
}

#[test]
fn slow_replica_drags_the_credit_minimum_down() {
    // Replica 1 has a tiny receive buffer: its advertised credits are
    // low, and the switch must hand the *minimum* to the leader even when
    // the f-th ACK came from the fast replica.
    let payloads: Vec<Bytes> = (0..8).map(|_| Bytes::from(vec![9u8; 64])).collect();
    let leader = Leader::new(1, vec![replica_ip(0), replica_ip(1)], payloads);
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |i, cfg, _| {
        if i == 1 {
            cfg.rx_capacity = 3;
        }
    });
    c.sim.run_until(SimTime::from_millis(100));
    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert_eq!(leader_app.completions.len(), 8);
    // Once the slow replica has ACKed at least once, every subsequent
    // forwarded credit count is bounded by its capacity.
    let later = &leader_app.completions[2..];
    assert!(
        later.iter().all(|c| c.credits <= 3),
        "credits must reflect the slowest replica: {:?}",
        later.iter().map(|c| c.credits).collect::<Vec<_>>()
    );
}

#[test]
fn leader_start_psn_translation_survives_nonzero_bases() {
    // Hosts pick random start PSNs; this test simply runs enough writes
    // that a mismatch in PSN translation would desynchronize expected
    // PSNs and stall the pipeline.
    let payloads: Vec<Bytes> = (0..64).map(|i| Bytes::from(vec![i as u8; 32])).collect();
    let leader = Leader::new(1, vec![replica_ip(0), replica_ip(1)], payloads);
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(200));
    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert_eq!(leader_app.completions.len(), 64);
    assert!(leader_app.completions.iter().all(|c| c.status.is_success()));
    for (i, comp) in leader_app.completions.iter().enumerate() {
        assert_eq!(comp.wr_id, WrId(i as u64), "ordered completion");
    }
}

#[test]
fn replica_sees_switch_as_peer_not_leader() {
    // Transparency check (Fig. 4): the replica's QP peer must be the
    // switch — the leader's identity only appears in the join notice.
    let leader = Leader::new(1, vec![replica_ip(0)], vec![Bytes::from(vec![1u8; 16])]);
    let mut c = build_cluster(1, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));
    let rep = c.sim.node_ref::<Host<Replica>>(c.replicas[0]).app();
    assert_eq!(rep.leader_seen, Some(LEADER_IP));
    assert_eq!(rep.dirty, [Range { start: 0, end: 16 }]);
    // The write was accepted — which is only possible because the grant
    // targeted the switch's IP, i.e. the packets really did appear to
    // come from the switch.
}

#[test]
fn start_psn_zero_regression() {
    // A leader whose start PSN is exactly 0 must still aggregate (index
    // arithmetic around the base).
    let mut leader = Leader::new(1, vec![replica_ip(0), replica_ip(1)], vec![]);
    leader.payloads = vec![Bytes::from(vec![7u8; 64])];
    let _ = Psn::new(0);
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));
    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert_eq!(leader_app.completions.len(), 1);
}

#[test]
fn write_at_the_top_of_the_address_space_is_refused_not_fatal() {
    // The scatter stage rebases the leader's VA by each replica's region
    // base. A VA near u64::MAX makes that sum overflow: the ASIC's add is
    // modular, so the copy goes out with a wrapped address and the
    // replica's NIC refuses it — the switch must not abort on it.
    let mut leader = Leader::new(
        1,
        vec![replica_ip(0), replica_ip(1)],
        vec![Bytes::from(vec![3u8; 4])],
    );
    leader.base_va = u64::MAX - 8;
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));

    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert_eq!(leader_app.completions.len(), 1);
    assert!(
        matches!(
            leader_app.completions[0].status,
            CompletionStatus::RemoteError(_)
        ),
        "the replicas' refusal reaches the leader: {:?}",
        leader_app.completions[0].status
    );
    let sw = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch);
    assert_eq!(sw.program().stats.scattered, 1, "the write was scattered");
    assert!(sw.program().stats.naks_forwarded >= 1, "NAK passed through");
    assert_eq!(sw.stats().multicast_copies, 2);
    for &rid in &c.replicas {
        let rep = c.sim.node_ref::<Host<Replica>>(rid).app();
        assert!(rep.dirty.is_empty(), "nothing landed in the log");
    }
}

#[test]
fn a_group_that_cannot_be_counted_is_refused_and_the_switch_keeps_serving() {
    // f = 0 is a quorum the gather can never report (`count == f` is
    // false from the first ACK on): the switch must refuse the group, not
    // build it and absorb every ACK while the leader retransmits.
    let replicas = vec![replica_ip(0), replica_ip(1)];
    let leader = Leader::new(0, replicas.clone(), vec![Bytes::from(vec![0x5a; 64])]);
    let mut c = build_cluster(2, leader, P4ceSwitchConfig::default(), |_, _, _| {});
    c.sim.run_until(SimTime::from_millis(100));

    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert!(
        leader_app.rejected,
        "the requester is answered, by a reject"
    );
    assert!(leader_app.connected_at.is_none());
    let prog = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch).program();
    assert_eq!(prog.stats.groups_created, 0);

    // A well-formed request on the same switch is then served.
    let good = GroupSpec { f: 1, replicas };
    c.sim.with_node::<Host<Leader>, _>(c.leader, |host, ctx| {
        host.with_ops(ctx, |_, ops| ops.connect(SW_IP, good.encode()))
    });
    c.sim.run_until(SimTime::from_millis(200));
    let leader_app = c.sim.node_ref::<Host<Leader>>(c.leader).app();
    assert!(leader_app.connected_at.is_some(), "second request connects");
    assert_eq!(leader_app.completions.len(), 1);
    assert!(leader_app.completions[0].status.is_success());
    let prog = c.sim.node_ref::<Switch<P4ceProgram>>(c.switch).program();
    assert_eq!(prog.stats.groups_created, 1);
    assert_eq!((prog.stats.scattered, prog.stats.acks_forwarded), (1, 1));
}

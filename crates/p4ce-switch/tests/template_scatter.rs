//! Template-patching differential test: every frame the switch emits on
//! the data path must be byte-identical to what a full re-serialization
//! of its parsed form would produce, and the scattered copies must carry
//! byte-identical payloads across replicas. This pins the zero-copy emit
//! path (`rdma::PacketTemplate` patching) to the semantics of the old
//! clone-and-reserialize path it replaced.

use bytes::Bytes;
use netsim::{LinkSpec, SimTime, Simulation, TapId};
use p4ce_switch::{GroupJoin, GroupSpec, P4ceProgram, P4ceSwitchConfig};
use rdma::{
    CmEvent, Completion, Host, HostConfig, HostOps, Permissions, RdmaApp, RegionAdvert,
    RegionHandle, RocePacket, WrId,
};
use std::net::Ipv4Addr;
use tofino::{Switch, SwitchConfig};

const LEADER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

fn replica_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 2 + i as u8)
}

#[derive(Default)]
struct Replica {
    region: Option<RegionHandle>,
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
            GroupJoin::decode(&private_data).expect("join notice");
            let region = self.region.expect("registered");
            let info = ops.region_info(region);
            ops.grant(region, from_ip, Permissions::WRITE);
            let advert = RegionAdvert {
                va: info.va,
                rkey: info.rkey,
                len: info.len,
            };
            ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
        }
    }
}

struct Leader {
    spec: GroupSpec,
    payloads: Vec<Bytes>,
    completions: Vec<Completion>,
}

impl RdmaApp for Leader {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        ops.connect(SW_IP, self.spec.encode());
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            let advert = RegionAdvert::decode(&private_data).expect("virtual advert");
            let mut offset = 0u64;
            for (i, p) in self.payloads.iter().enumerate() {
                ops.post_write(qpn, WrId(i as u64), offset, advert.rkey, p.clone());
                offset += p.len() as u64;
            }
        }
    }
    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        self.completions.push(c);
    }
}

/// Builds a 1-leader / n-replica cluster with a tap on every switch
/// output port, so every emitted frame is captured.
fn build_tapped_cluster(
    n_replicas: usize,
    payloads: Vec<Bytes>,
) -> (
    Simulation,
    netsim::NodeId,
    netsim::NodeId,
    Vec<TapId>,
    Vec<netsim::NodeId>,
) {
    let leader = Leader {
        spec: GroupSpec {
            f: 1,
            replicas: (0..n_replicas).map(replica_ip).collect(),
        },
        payloads,
        completions: Vec::new(),
    };
    let mut sim = Simulation::new(23);
    let leader_id = sim.add_node(Box::new(Host::new(HostConfig::new(LEADER_IP), leader)));
    let mut replica_ids = Vec::new();
    for i in 0..n_replicas {
        let cfg = HostConfig::new(replica_ip(i));
        replica_ids.push(sim.add_node(Box::new(Host::new(cfg, Replica::default()))));
    }
    let program = P4ceProgram::new(P4ceSwitchConfig::default());
    let switch_id = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        1 + n_replicas,
        program,
    )));
    let mut taps = Vec::new();
    let (_, swp) = sim.connect(leader_id, switch_id, LinkSpec::default());
    sim.node_mut::<Switch<P4ceProgram>>(switch_id)
        .add_route(LEADER_IP, swp);
    taps.push(sim.tap(switch_id, swp));
    for (i, &r) in replica_ids.iter().enumerate() {
        let (_, swp) = sim.connect(r, switch_id, LinkSpec::default());
        sim.node_mut::<Switch<P4ceProgram>>(switch_id)
            .add_route(replica_ip(i), swp);
        taps.push(sim.tap(switch_id, swp));
    }
    (sim, leader_id, switch_id, taps, replica_ids)
}

#[test]
fn every_emitted_frame_matches_full_reserialization() {
    let payloads: Vec<Bytes> = (0..6)
        .map(|i| {
            Bytes::from(
                (0..256u32)
                    .map(|b| (b as u8).wrapping_mul(i + 1))
                    .collect::<Vec<u8>>(),
            )
        })
        .collect();
    let (mut sim, leader_id, switch_id, taps, _) = build_tapped_cluster(2, payloads);
    sim.run_until(SimTime::from_millis(100));

    let leader_app = sim.node_ref::<Host<Leader>>(leader_id).app();
    assert_eq!(leader_app.completions.len(), 6, "all writes decided");

    // The differential: parse each emitted frame and re-serialize it from
    // scratch. The bytes on the wire must match exactly — same IPv4
    // checksum, same ICRC, same everything.
    let mut checked = 0usize;
    for &tap in &taps {
        for (_, frame) in sim.tap_frames(tap) {
            let pkt = RocePacket::parse(frame).expect("emitted frame parses");
            assert_eq!(
                pkt.to_frame().to_vec(),
                frame.to_vec(),
                "patched frame must equal full re-serialization"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 12,
        "taps saw the scatter + ACK traffic: {checked}"
    );

    // Data-plane traffic in this run is header-rewrite only, so nothing
    // may fall back to the slow path.
    let st = sim.node_ref::<Switch<P4ceProgram>>(switch_id).stats();
    assert!(st.emitted_patched > 0, "fast path exercised");
    assert_eq!(st.emitted_reserialized, 0, "no structural fallback");
}

#[test]
fn scattered_replica_copies_share_payload_bytes() {
    let payloads: Vec<Bytes> = (0..4)
        .map(|i| Bytes::from(vec![0xA0 | i as u8; 512]))
        .collect();
    let (mut sim, leader_id, _switch_id, taps, replica_ids) =
        build_tapped_cluster(2, payloads.clone());
    sim.run_until(SimTime::from_millis(100));
    assert_eq!(
        sim.node_ref::<Host<Leader>>(leader_id)
            .app()
            .completions
            .len(),
        4
    );

    // taps[0] is the leader port; taps[1..] face the replicas. Collect
    // the write payloads each replica received, in PSN order.
    let mut per_replica: Vec<Vec<(u32, Bytes)>> = Vec::new();
    for &tap in &taps[1..] {
        let mut writes: Vec<(u32, Bytes)> = sim
            .tap_frames(tap)
            .iter()
            .filter_map(|(_, frame)| {
                let pkt = RocePacket::parse(frame).ok()?;
                pkt.bth
                    .opcode
                    .is_write()
                    .then(|| (pkt.bth.psn.value(), pkt.payload.clone()))
            })
            .collect();
        writes.sort_by_key(|&(psn, _)| psn);
        per_replica.push(writes);
    }
    assert_eq!(per_replica.len(), 2);
    assert_eq!(per_replica[0].len(), 4, "each replica saw every write");

    // The per-replica copies differ in headers (QPN, PSN, addresses) but
    // the payload bytes must be identical — the template never lets a
    // rewrite touch them.
    let a: Vec<&Bytes> = per_replica[0].iter().map(|(_, p)| p).collect();
    let b: Vec<&Bytes> = per_replica[1].iter().map(|(_, p)| p).collect();
    assert_eq!(a, b, "replica copies carry byte-identical payloads");
    for (sent, got) in payloads.iter().zip(a) {
        assert_eq!(sent, got, "payload survives the scatter unmodified");
    }

    // What the wire carried is what landed: each replica's NIC placed all
    // four packets, and its region holds the payloads back to back.
    let sent: Vec<u8> = payloads.iter().flat_map(|p| p.iter().copied()).collect();
    for &rid in &replica_ids {
        let host = sim.node_ref::<Host<Replica>>(rid);
        assert_eq!(host.stats().rx_zero_copy_deliveries, 4);
        let region = host.app().region.expect("registered");
        assert_eq!(host.memory().read_local(region, 0, sent.len()), &sent[..]);
    }

    // And the copies really did get distinct headers: each addressed to
    // its own replica, each stamped with its own replication id in the
    // UDP source port (0xD000 | rid).
    let stamps: Vec<(Ipv4Addr, u16)> = taps[1..]
        .iter()
        .filter_map(|&tap| {
            sim.tap_frames(tap).iter().find_map(|(_, frame)| {
                let pkt = RocePacket::parse(frame).ok()?;
                pkt.bth
                    .opcode
                    .is_write()
                    .then_some((pkt.dst_ip, pkt.udp_src_port))
            })
        })
        .collect();
    assert_eq!(stamps.len(), 2);
    assert_ne!(stamps[0], stamps[1], "per-replica headers are rewritten");
    for (i, &(ip, sport)) in stamps.iter().enumerate() {
        assert_eq!(ip, replica_ip(i));
        assert_eq!(sport & 0xF000, 0xD000, "rid stamp present");
    }
}

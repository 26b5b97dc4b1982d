//! The baseline data path: RDMA hosts talking *through* the switch with
//! the plain L3 forwarding program (this is the fabric Mu runs on).

use bytes::Bytes;
use netsim::{LinkSpec, SimTime, Simulation};
use rdma::{
    CmEvent, Completion, CompletionStatus, Host, HostConfig, HostOps, Permissions, Qpn, RdmaApp,
    RegionAdvert, RegionHandle, WrId,
};
use std::net::Ipv4Addr;
use tofino::{L3Forwarder, Switch, SwitchConfig};

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

struct Writer {
    target: Ipv4Addr,
    qpn: Option<Qpn>,
    done: Vec<Completion>,
}

impl RdmaApp for Writer {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        ops.connect(self.target, Bytes::new());
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            self.qpn = Some(qpn);
            let advert = RegionAdvert::decode(&private_data).expect("advert");
            ops.post_write(
                qpn,
                WrId(1),
                advert.va,
                advert.rkey,
                Bytes::from(vec![0x42; 256]),
            );
        }
    }
    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        self.done.push(c);
    }
}

#[derive(Default)]
struct Target {
    region: Option<RegionHandle>,
    bytes_written: usize,
}

impl RdmaApp for Target {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        let r = ops.register_region(4096, Permissions::WRITE);
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
            let advert = RegionAdvert {
                va: info.va,
                rkey: info.rkey,
                len: info.len,
            };
            ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
        }
    }
    fn on_remote_write(
        &mut self,
        r: RegionHandle,
        dirty: std::ops::Range<u64>,
        ops: &mut HostOps<'_, '_>,
    ) {
        let written = ops.read_local(r, dirty.start as usize, (dirty.end - dirty.start) as usize);
        self.bytes_written += written.iter().filter(|&&b| b == 0x42).count();
    }
}

#[test]
fn rdma_write_traverses_the_switch() {
    let mut sim = Simulation::new(3);
    let a = sim.add_node(Box::new(Host::new(
        HostConfig::new(A_IP),
        Writer {
            target: B_IP,
            qpn: None,
            done: vec![],
        },
    )));
    let b = sim.add_node(Box::new(Host::new(
        HostConfig::new(B_IP),
        Target::default(),
    )));
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        2,
        L3Forwarder,
    )));
    let (_, swp_a) = sim.connect(a, sw, LinkSpec::default());
    let (_, swp_b) = sim.connect(b, sw, LinkSpec::default());
    sim.node_mut::<Switch<L3Forwarder>>(sw)
        .add_route(A_IP, swp_a);
    sim.node_mut::<Switch<L3Forwarder>>(sw)
        .add_route(B_IP, swp_b);

    sim.run_until(SimTime::from_millis(2));

    let writer = sim.node_ref::<Host<Writer>>(a).app();
    assert_eq!(writer.done.len(), 1);
    assert_eq!(writer.done[0].status, CompletionStatus::Success);
    let target = sim.node_ref::<Host<Target>>(b).app();
    assert_eq!(target.bytes_written, 256);

    let stats = sim.node_ref::<Switch<L3Forwarder>>(sw).stats();
    // CM handshake (3 messages) + write + ACK all traversed.
    assert!(stats.forwarded >= 5, "forwarded {}", stats.forwarded);
    assert_eq!(stats.parse_errors, 0);
    assert_eq!(stats.parser_overflow_drops, 0);
}

#[test]
fn unroutable_destination_is_dropped() {
    let mut sim = Simulation::new(4);
    let a = sim.add_node(Box::new(Host::new(
        HostConfig::new(A_IP),
        Writer {
            target: Ipv4Addr::new(10, 9, 9, 9), // no route programmed
            qpn: None,
            done: vec![],
        },
    )));
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        1,
        L3Forwarder,
    )));
    sim.connect(a, sw, LinkSpec::default());
    sim.run_until(SimTime::from_millis(1));
    let stats = sim.node_ref::<Switch<L3Forwarder>>(sw).stats();
    assert!(stats.dropped_ingress >= 1);
    let writer = sim.node_ref::<Host<Writer>>(a).app();
    assert!(writer.done.is_empty(), "connect can never complete");
}

#[test]
fn switch_adds_bounded_latency() {
    // One write through the switch: the completion time should reflect
    // parser + pipeline latency twice (request and ACK), but stay in the
    // microsecond range — the fabric must not dominate RDMA latency.
    let mut sim = Simulation::new(5);
    let a = sim.add_node(Box::new(Host::new(
        HostConfig::new(A_IP),
        Writer {
            target: B_IP,
            qpn: None,
            done: vec![],
        },
    )));
    let b = sim.add_node(Box::new(Host::new(
        HostConfig::new(B_IP),
        Target::default(),
    )));
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        2,
        L3Forwarder,
    )));
    let (_, swp_a) = sim.connect(a, sw, LinkSpec::default());
    let (_, swp_b) = sim.connect(b, sw, LinkSpec::default());
    sim.node_mut::<Switch<L3Forwarder>>(sw)
        .add_route(A_IP, swp_a);
    sim.node_mut::<Switch<L3Forwarder>>(sw)
        .add_route(B_IP, swp_b);
    sim.run_until(SimTime::from_millis(5));
    let writer = sim.node_ref::<Host<Writer>>(a).app();
    assert_eq!(writer.done.len(), 1, "write completed through the fabric");
}

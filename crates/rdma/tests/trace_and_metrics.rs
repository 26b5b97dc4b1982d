//! NIC-level tracing and the host's counters.
//!
//! Covers the observability contract of the transport layer:
//!
//! * a traced run records the WQE-post → wire → ACK chain with the
//!   configured node labels,
//! * tracing is behaviourally invisible — the same run with the tracer
//!   disabled produces identical counters and event counts,
//! * the two go-back-N recovery paths (peer NAK vs. retransmission
//!   timer) increment *distinct* `HostStats` counters, so reports can
//!   tell a mid-stream gap from a lost tail.

use bytes::Bytes;
use netsim::{
    FaultPlan, LinkSpec, RetransmitKind, SimTime, Simulation, TraceEvent, TraceHandle, Tracer,
};
use rdma::{
    CmEvent, Completion, Host, HostConfig, HostOps, Permissions, Qpn, RdmaApp, RegionAdvert,
    RegionHandle, WrId,
};
use std::net::Ipv4Addr;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Accepts every connection and advertises one writable region.
#[derive(Default)]
struct Server {
    region: Option<RegionHandle>,
}

impl RdmaApp for Server {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        self.region = Some(ops.register_region(4096, Permissions::WRITE));
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
}

/// Connects at start; the test body posts writes mid-run via `with_ops`.
#[derive(Default)]
struct Client {
    qpn: Option<Qpn>,
    advert: Option<RegionAdvert>,
    completions: Vec<Completion>,
}

impl RdmaApp for Client {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        ops.connect(SERVER_IP, Bytes::new());
    }

    fn on_cm_event(&mut self, ev: CmEvent, _ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            self.qpn = Some(qpn);
            self.advert = Some(RegionAdvert::decode(&private_data).expect("advert"));
        }
    }

    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        self.completions.push(c);
    }
}

fn build(tracer: &Tracer) -> (Simulation, netsim::NodeId, netsim::NodeId) {
    let mut sim = Simulation::new(17);
    let mut ccfg = HostConfig::new(CLIENT_IP);
    ccfg.tracer = tracer.labeled("client");
    let mut scfg = HostConfig::new(SERVER_IP);
    scfg.tracer = tracer.labeled("server");
    let c = sim.add_node(Box::new(Host::new(ccfg, Client::default())));
    let s = sim.add_node(Box::new(Host::new(scfg, Server::default())));
    sim.connect(c, s, LinkSpec::default());
    (sim, c, s)
}

fn post_write(sim: &mut Simulation, c: netsim::NodeId, wr: u64, len: usize) {
    sim.with_node(c, |host: &mut Host<Client>, ctx| {
        host.with_ops(ctx, |app, ops| {
            let qpn = app.qpn.expect("connected");
            let advert = app.advert.expect("advert received");
            ops.post_write(
                qpn,
                WrId(wr),
                advert.va,
                advert.rkey,
                Bytes::from(vec![7u8; len]),
            );
        });
    });
}

#[test]
fn traced_write_records_the_post_wire_ack_chain() {
    let handle = TraceHandle::new();
    let (mut sim, c, _s) = build(&handle.tracer(""));
    sim.run_until(SimTime::from_millis(1));
    post_write(&mut sim, c, 5, 64);
    sim.run_until(SimTime::from_millis(2));

    let app = sim.node_ref::<Host<Client>>(c).app();
    assert_eq!(app.completions.len(), 1);
    assert!(app.completions[0].status.is_success());

    let records = handle.records();
    let find = |node: &str, pred: &dyn Fn(&TraceEvent) -> bool| {
        records
            .iter()
            .find(|r| &*r.node == node && pred(&r.event))
            .unwrap_or_else(|| panic!("no matching record for node {node}"))
            .t
    };
    let posted = find("client", &|e| {
        matches!(e, TraceEvent::WqePost { wr_id: 5, .. })
    });
    let tx = find("client", &|e| {
        matches!(
            e,
            TraceEvent::WireTx {
                wr_id: 5,
                npkts: 1,
                ..
            }
        )
    });
    let acked_out = find("server", &|e| matches!(e, TraceEvent::AckTx { .. }));
    let acked_in = find("client", &|e| matches!(e, TraceEvent::AckRx { .. }));
    assert!(posted <= tx, "post precedes wire transmission");
    assert!(tx <= acked_out, "transmission precedes the server ACK");
    assert!(acked_out <= acked_in, "ACK leaves before it arrives");
}

#[test]
fn disabled_tracing_is_behaviourally_invisible() {
    let handle = TraceHandle::new();
    let mut outcomes = Vec::new();
    for tracer in [Tracer::disabled(), handle.tracer("")] {
        let (mut sim, c, s) = build(&tracer);
        sim.run_until(SimTime::from_millis(1));
        post_write(&mut sim, c, 1, 3000);
        sim.run_until(SimTime::from_millis(2));
        outcomes.push((
            sim.events_processed(),
            sim.node_ref::<Host<Client>>(c).stats(),
            sim.node_ref::<Host<Server>>(s).stats(),
        ));
    }
    assert_eq!(outcomes[0], outcomes[1], "tracing must not perturb the run");
    assert!(!handle.is_empty(), "the traced run did record events");
}

/// Drives the NAK recovery path: a partition swallows one write entirely,
/// then a second write arrives with a PSN gap, so the server NAKs and the
/// client go-back-N retransmits — without waiting for its timer.
#[test]
fn nak_recovery_increments_the_nak_metric_only() {
    let handle = TraceHandle::new();
    let (mut sim, c, s) = build(&handle.tracer(""));
    sim.run_until(SimTime::from_millis(1));

    sim.set_fault_plan(
        c,
        netsim::PortId::FIRST,
        FaultPlan::new().partition(SimTime::from_millis(1), SimTime::from_micros(1050)),
    );
    post_write(&mut sim, c, 1, 64); // transmitted into the partition: lost
    sim.run_until(SimTime::from_micros(1060));
    post_write(&mut sim, c, 2, 64); // arrives with a PSN gap: NAKed
    sim.run_until(SimTime::from_millis(3));

    let app = sim.node_ref::<Host<Client>>(c).app();
    assert_eq!(app.completions.len(), 2);
    assert!(app.completions.iter().all(|c| c.status.is_success()));

    let cstats = sim.node_ref::<Host<Client>>(c).stats();
    let sstats = sim.node_ref::<Host<Server>>(s).stats();
    assert!(cstats.nak_retransmits >= 2, "both inflight writes resent");
    assert_eq!(cstats.timeout_retransmits, 0, "the timer never fired");
    assert!(sstats.naks_sent >= 1);
    assert!(handle.records().iter().any(|r| matches!(
        r.event,
        TraceEvent::Retransmit {
            kind: RetransmitKind::Nak,
            ..
        }
    )));
}

/// Drives the timeout recovery path: the only write is lost and nothing
/// follows it, so only the retransmission timer can recover.
#[test]
fn timeout_recovery_increments_the_timeout_metric_only() {
    let handle = TraceHandle::new();
    let (mut sim, c, s) = build(&handle.tracer(""));
    sim.run_until(SimTime::from_millis(1));

    sim.set_fault_plan(
        c,
        netsim::PortId::FIRST,
        FaultPlan::new().partition(SimTime::from_millis(1), SimTime::from_micros(1080)),
    );
    post_write(&mut sim, c, 1, 64); // lost; recovered by the 131 µs timer
    sim.run_until(SimTime::from_millis(3));

    let app = sim.node_ref::<Host<Client>>(c).app();
    assert_eq!(app.completions.len(), 1);
    assert!(app.completions[0].status.is_success());

    let cstats = sim.node_ref::<Host<Client>>(c).stats();
    let sstats = sim.node_ref::<Host<Server>>(s).stats();
    assert!(cstats.timeout_retransmits >= 1);
    assert_eq!(
        cstats.nak_retransmits, 0,
        "no PSN gap ever reached the server"
    );
    assert_eq!(sstats.naks_sent, 0);
    assert!(sstats.packets_received > 0);
    assert!(handle.records().iter().any(|r| matches!(
        r.event,
        TraceEvent::Retransmit {
            kind: RetransmitKind::Timeout,
            ..
        }
    )));
}

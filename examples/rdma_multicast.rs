//! Using the switch as a *transparent RDMA multicast* service, without
//! any consensus on top — the paper's first contribution in isolation
//! (§IV: "an RDMA-compliant multicast interface on a Tofino switch").
//!
//! A sensor node opens ONE connection to the switch and writes telemetry
//! frames; the switch fans each write out to three collector servers and
//! aggregates their NIC acknowledgements back into one.
//!
//! ```sh
//! cargo run --release --example rdma_multicast
//! ```

use bytes::Bytes;
use netsim::{LinkSpec, SimTime, Simulation};
use p4ce_repro::p4ce_switch::{GroupSpec, P4ceProgram, P4ceSwitchConfig};
use p4ce_repro::rdma::{
    CmEvent, Completion, Host, HostConfig, HostOps, Permissions, Qpn, RdmaApp, RegionAdvert,
    RegionHandle, WrId,
};
use p4ce_repro::tofino::{Switch, SwitchConfig};
use std::net::Ipv4Addr;
use std::ops::Range;

const SENSOR_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 100);

fn collector_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, 0, 10 + i as u8)
}

/// A collector: exposes a buffer, grants the switch write access.
#[derive(Default)]
struct Collector {
    region: Option<RegionHandle>,
    bytes: usize,
}

impl RdmaApp for Collector {
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
            ..
        } = ev
        {
            let region = self.region.expect("registered");
            ops.grant(region, from_ip, Permissions::WRITE);
            let info = ops.region_info(region);
            let advert = RegionAdvert {
                va: info.va,
                rkey: info.rkey,
                len: info.len,
            };
            ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
        }
    }
    // A poll, not a per-packet interrupt: `dirty` covers every frame that
    // landed since the last call (they arrive back to back, so the ranges
    // of successive calls tile the buffer).
    fn on_remote_write(&mut self, _r: RegionHandle, dirty: Range<u64>, _ops: &mut HostOps<'_, '_>) {
        self.bytes += (dirty.end - dirty.start) as usize;
    }
}

/// The sensor: one connection to the switch, a stream of writes.
struct Sensor {
    qpn: Option<Qpn>,
    acked: usize,
}

impl RdmaApp for Sensor {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        // Ask the switch for a group over the three collectors; wait for
        // ALL of them (f = number of members) before acknowledging.
        let spec = GroupSpec {
            f: 3,
            replicas: (0..3).map(collector_ip).collect(),
        };
        ops.connect(SW_IP, spec.encode());
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            self.qpn = Some(qpn);
            let advert = RegionAdvert::decode(&private_data).expect("virtual advert");
            // Stream 50 telemetry frames of 256 B each.
            for i in 0..50u64 {
                ops.post_write(
                    qpn,
                    WrId(i),
                    i * 256,
                    advert.rkey,
                    Bytes::from(vec![i as u8; 256]),
                );
            }
        }
    }
    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        if c.status.is_success() {
            self.acked += 1;
        }
    }
}

fn main() {
    let mut sim = Simulation::new(2024);
    let sensor = sim.add_node(Box::new(Host::new(
        HostConfig::new(SENSOR_IP),
        Sensor {
            qpn: None,
            acked: 0,
        },
    )));
    let mut collectors = Vec::new();
    for i in 0..3 {
        collectors.push(sim.add_node(Box::new(Host::new(
            HostConfig::new(collector_ip(i)),
            Collector::default(),
        ))));
    }
    let program = P4ceProgram::new(P4ceSwitchConfig::default());
    let switch = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        4,
        program,
    )));
    let (_, p) = sim.connect(sensor, switch, LinkSpec::default());
    sim.node_mut::<Switch<P4ceProgram>>(switch)
        .add_route(SENSOR_IP, p);
    for (i, &c) in collectors.iter().enumerate() {
        let (_, p) = sim.connect(c, switch, LinkSpec::default());
        sim.node_mut::<Switch<P4ceProgram>>(switch)
            .add_route(collector_ip(i), p);
    }

    sim.run_until(SimTime::from_millis(100));

    let sensor_app = sim.node_ref::<Host<Sensor>>(sensor).app();
    println!("transparent RDMA multicast through the switch");
    println!("  sensor writes acknowledged: {}/50", sensor_app.acked);
    for (i, &c) in collectors.iter().enumerate() {
        let host = sim.node_ref::<Host<Collector>>(c);
        let app = host.app();
        let frames = host.stats().rx_zero_copy_deliveries;
        println!(
            "  collector {i}: {frames} frames, {} bytes received",
            app.bytes
        );
        // Every frame of every copy landed, in place and intact.
        let buf = host
            .memory()
            .read_local(app.region.expect("registered"), 0, 50 * 256);
        for (k, frame) in buf.chunks(256).enumerate() {
            assert!(frame.iter().all(|&b| b == k as u8), "frame {k}");
        }
    }
    let prog = sim.node_ref::<Switch<P4ceProgram>>(switch).program();
    println!(
        "  switch: scattered={} acks absorbed={} forwarded={}",
        prog.stats.scattered, prog.stats.acks_absorbed, prog.stats.acks_forwarded
    );
    assert_eq!(sensor_app.acked, 50);
}

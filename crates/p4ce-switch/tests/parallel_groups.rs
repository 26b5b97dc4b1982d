//! §IV-A: "P4CE supports multiple consensus groups in parallel" — two
//! independent leaders, two disjoint replica sets, one switch. Plus the
//! NumRecv window and credit-mode behaviours.

use bytes::Bytes;
use netsim::{LinkSpec, SimTime, Simulation};
use p4ce_switch::{CreditMode, GroupSpec, P4ceProgram, P4ceSwitchConfig};
use rdma::{
    CmEvent, Completion, Host, HostConfig, HostOps, Permissions, RdmaApp, RegionAdvert,
    RegionHandle, WrId,
};
use std::net::Ipv4Addr;
use std::ops::Range;
use tofino::{Switch, SwitchConfig};

const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 100);

#[derive(Default)]
struct Sink {
    region: Option<RegionHandle>,
    /// Hull of every dirty range the host reported.
    dirty: Option<Range<u64>>,
}

impl RdmaApp for Sink {
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
        self.dirty = Some(match self.dirty.take() {
            Some(d) => d.start.min(dirty.start)..d.end.max(dirty.end),
            None => dirty,
        });
    }
}

struct Streamer {
    group: GroupSpec,
    count: u64,
    fill: u8,
    acked: u64,
}

impl RdmaApp for Streamer {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        ops.connect(SW_IP, self.group.encode());
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            let advert = RegionAdvert::decode(&private_data).expect("advert");
            for i in 0..self.count {
                ops.post_write(
                    qpn,
                    WrId(i),
                    i * 64,
                    advert.rkey,
                    Bytes::from(vec![self.fill; 64]),
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

struct Net {
    sim: Simulation,
    switch: netsim::NodeId,
}

fn build(
    hosts: Vec<(Ipv4Addr, Box<dyn netsim::Node>)>,
    cfg: P4ceSwitchConfig,
) -> (Net, Vec<netsim::NodeId>) {
    let mut sim = Simulation::new(5);
    let n = hosts.len();
    let mut ids = Vec::new();
    let mut ips = Vec::new();
    for (ip, node) in hosts {
        ips.push(ip);
        ids.push(sim.add_node(node));
    }
    let switch = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(SW_IP),
        n,
        P4ceProgram::new(cfg),
    )));
    for (i, &h) in ids.iter().enumerate() {
        let (_, p) = sim.connect(h, switch, LinkSpec::default());
        sim.node_mut::<Switch<P4ceProgram>>(switch)
            .add_route(ips[i], p);
    }
    (Net { sim, switch }, ids)
}

fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 2, 0, n)
}

#[test]
fn two_groups_share_one_switch() {
    // Leader A scatters to sinks 1,2; leader B to sinks 3,4.
    let hosts: Vec<(Ipv4Addr, Box<dyn netsim::Node>)> = vec![
        (
            ip(1),
            Box::new(Host::new(
                HostConfig::new(ip(1)),
                Streamer {
                    group: GroupSpec {
                        f: 2,
                        replicas: vec![ip(11), ip(12)],
                    },
                    count: 100,
                    fill: 0xAA,
                    acked: 0,
                },
            )),
        ),
        (
            ip(2),
            Box::new(Host::new(
                HostConfig::new(ip(2)),
                Streamer {
                    group: GroupSpec {
                        f: 1,
                        replicas: vec![ip(13), ip(14)],
                    },
                    count: 150,
                    fill: 0xBB,
                    acked: 0,
                },
            )),
        ),
        (
            ip(11),
            Box::new(Host::new(HostConfig::new(ip(11)), Sink::default())),
        ),
        (
            ip(12),
            Box::new(Host::new(HostConfig::new(ip(12)), Sink::default())),
        ),
        (
            ip(13),
            Box::new(Host::new(HostConfig::new(ip(13)), Sink::default())),
        ),
        (
            ip(14),
            Box::new(Host::new(HostConfig::new(ip(14)), Sink::default())),
        ),
    ];
    let (mut net, ids) = build(hosts, P4ceSwitchConfig::default());
    net.sim.run_until(SimTime::from_millis(100));

    let a = net.sim.node_ref::<Host<Streamer>>(ids[0]).app();
    let b = net.sim.node_ref::<Host<Streamer>>(ids[1]).app();
    assert_eq!(a.acked, 100, "group A completes");
    assert_eq!(b.acked, 150, "group B completes");
    // Each sink saw only its group's traffic: every packet of its own
    // group landed, back to back from offset zero, and nothing else.
    for (idx, expected, fill) in [
        (2usize, 100u64, 0xAA),
        (3, 100, 0xAA),
        (4, 150, 0xBB),
        (5, 150, 0xBB),
    ] {
        let host = net.sim.node_ref::<Host<Sink>>(ids[idx]);
        assert_eq!(host.stats().rx_zero_copy_deliveries, expected, "sink {idx}");
        let sink = host.app();
        let end = expected * 64;
        assert_eq!(sink.dirty, Some(0..end), "sink {idx}");
        let region = sink.region.expect("registered");
        let landed = host.memory().read_local(region, 0, end as usize + 64);
        assert!(
            landed[..end as usize].iter().all(|&b| b == fill),
            "sink {idx}"
        );
        assert!(landed[end as usize..].iter().all(|&b| b == 0), "sink {idx}");
    }
    let prog = net
        .sim
        .node_ref::<Switch<P4ceProgram>>(net.switch)
        .program();
    assert_eq!(prog.active_groups(), 2);
    assert_eq!(prog.stats.scattered, 250);
    // Group A (f=2): absorbs 0... waits for 2, forwards 2nd, absorbs none
    // after? 2 replicas, f=2 → 1 absorbed before the 2nd; group B (f=1):
    // forwards 1st, absorbs the other → 100*1 + 150*1 = 250 total events
    // split as forwarded=250, absorbed=250.
    assert_eq!(prog.stats.acks_forwarded, 250);
    assert_eq!(prog.stats.acks_absorbed, 250);
}

#[test]
fn window_deeper_than_max_inflight_is_safe() {
    // Stream 1000 writes (window 16 in flight) through a 256-slot
    // NumRecv: PSN indices wrap the register array many times without
    // ever colliding with a live slot.
    let hosts: Vec<(Ipv4Addr, Box<dyn netsim::Node>)> = vec![
        (
            ip(1),
            Box::new(Host::new(
                HostConfig::new(ip(1)),
                Streamer {
                    group: GroupSpec {
                        f: 2,
                        replicas: vec![ip(11), ip(12)],
                    },
                    count: 1000,
                    fill: 1,
                    acked: 0,
                },
            )),
        ),
        (
            ip(11),
            Box::new(Host::new(HostConfig::new(ip(11)), Sink::default())),
        ),
        (
            ip(12),
            Box::new(Host::new(HostConfig::new(ip(12)), Sink::default())),
        ),
    ];
    let (mut net, ids) = build(hosts, P4ceSwitchConfig::default());
    net.sim.run_until(SimTime::from_millis(100));
    let a = net.sim.node_ref::<Host<Streamer>>(ids[0]).app();
    assert_eq!(a.acked, 1000, "all writes complete across window wraps");
}

#[test]
fn passthrough_credits_ignore_the_slow_replica() {
    // One slow replica (tiny receive buffer). With the paper's Minimum
    // mode the leader learns the low credit; with naive passthrough the
    // f-th (fast) replica's high credit masks it.
    let run = |mode: CreditMode| {
        let hosts: Vec<(Ipv4Addr, Box<dyn netsim::Node>)> = vec![
            (
                ip(1),
                Box::new(Host::new(
                    HostConfig::new(ip(1)),
                    CreditProbe {
                        inner: Streamer {
                            group: GroupSpec {
                                f: 1,
                                replicas: vec![ip(11), ip(12)],
                            },
                            count: 40,
                            fill: 1,
                            acked: 0,
                        },
                        min_credit_seen: 31,
                    },
                )),
            ),
            (
                ip(11),
                Box::new(Host::new(HostConfig::new(ip(11)), Sink::default())),
            ),
            (
                ip(12),
                Box::new(Host::new(
                    {
                        let mut c = HostConfig::new(ip(12));
                        c.rx_capacity = 2; // very slow replica
                        c
                    },
                    Sink::default(),
                )),
            ),
        ];
        let cfg = P4ceSwitchConfig {
            credit_mode: mode,
            ..P4ceSwitchConfig::default()
        };
        let (mut net, ids) = build(hosts, cfg);
        net.sim.run_until(SimTime::from_millis(100));
        net.sim
            .node_ref::<Host<CreditProbe>>(ids[0])
            .app()
            .min_credit_seen
    };
    let min_mode = run(CreditMode::Minimum);
    let passthrough = run(CreditMode::Passthrough);
    assert!(
        min_mode <= 2,
        "minimum mode must surface the slow replica: saw {min_mode}"
    );
    assert!(
        passthrough > min_mode,
        "passthrough ({passthrough}) must hide what minimum mode reveals ({min_mode})"
    );
}

/// Wraps a [`Streamer`] and records the lowest advertised credit count.
struct CreditProbe {
    inner: Streamer,
    min_credit_seen: u8,
}

impl RdmaApp for CreditProbe {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        self.inner.on_start(ops);
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        self.inner.on_cm_event(ev, ops);
    }
    fn on_completion(&mut self, c: Completion, ops: &mut HostOps<'_, '_>) {
        if c.status.is_success() {
            self.min_credit_seen = self.min_credit_seen.min(c.credits);
        }
        self.inner.on_completion(c, ops);
    }
}

//! The one-event pipeline pass is the three-timer walk it replaced.
//!
//! [`tofino::Switch`] charges a copy's egress parser from the ingress, for
//! the instant the copy will reach it, and wakes the deparser once per
//! release instant of a pass. [`ThreeTimer`] below is the walk that was
//! there before — `TK_INGRESS → TK_EGRESS → TK_EMIT`, one event per copy
//! and per step — kept as the reference: the same traffic through both
//! must put the same bytes on every port at the same instants and leave
//! the same counters.
//!
//! What the pass promises is the order *within* the data plane: ingress
//! runs in arrival order, egress runs and emits in the order the copies
//! were made. The program below stamps its ingress and its egress call
//! counts into the headers, so one swapped call shows in the bytes. What
//! it does not promise is the tie-break between a deparser wake-up and an
//! event of another class due in the very same nanosecond (the hardware
//! defines none either), so the control plane here runs on odd
//! nanoseconds and the data plane on even ones.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use bytes::Bytes;
use netsim::{
    Bandwidth, Context, Cpu, Frame, LinkSpec, Node, PortId, SimDuration, SimTime, Simulation,
    TimerToken, Tracer,
};
use proptest::prelude::*;
use rdma::wire::{Bth, PacketTemplate, Reth, RewriteSet, RocePacket};
use rdma::{Aeth, AethKind, MacAddr, Opcode, Psn, Qpn, RKey};
use tofino::{
    ControlOps, EgressMeta, Headers, IngressMeta, IngressVerdict, McastMember, MulticastGroupId,
    MulticastGroups, PipelineOps, Switch, SwitchConfig, SwitchProgram, SwitchStats,
};

const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const PORTS: usize = 4;

fn host_ip(port: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1 + port as u8)
}

// ---------------------------------------------------------------------
// The program both switches run
// ---------------------------------------------------------------------

/// Every verdict, chosen by the arriving QPN; every stage stamps how
/// many times it has run.
#[derive(Default)]
struct Stamper {
    ingress_runs: u32,
    egress_runs: u32,
    punts: u32,
}

impl SwitchProgram for Stamper {
    fn on_start(&mut self, ops: &mut dyn ControlOps) {
        let member = |port: usize, rid: u16| McastMember {
            port: PortId::from_index(port as u32),
            rid,
        };
        // One copy per port; and two copies to one port around a third,
        // so copies of one pass leave at different instants out of order.
        let all = (0..PORTS).map(|p| member(p, p as u16)).collect();
        ops.set_mcast_group(MulticastGroupId(1), all);
        let folded = vec![member(1, 10), member(2, 11), member(1, 12)];
        ops.set_mcast_group(MulticastGroupId(2), folded);
    }

    fn ingress(
        &mut self,
        hdr: &mut Headers<'_>,
        _meta: IngressMeta,
        ops: &dyn PipelineOps,
    ) -> IngressVerdict {
        self.ingress_runs += 1;
        hdr.rewrite(RewriteSet {
            psn: Some(Psn::new(self.ingress_runs)),
            ..RewriteSet::default()
        });
        match hdr.dest_qp().masked() % 8 {
            0..=2 => match ops.route(hdr.dst_ip()) {
                Some(port) => IngressVerdict::Unicast(port),
                None => IngressVerdict::Drop,
            },
            3 => IngressVerdict::Multicast(MulticastGroupId(1)),
            4 => IngressVerdict::Multicast(MulticastGroupId(2)),
            5 => IngressVerdict::Multicast(MulticastGroupId(9)), // no such group
            6 => IngressVerdict::Drop,
            _ => IngressVerdict::ToCpu,
        }
    }

    fn egress(&mut self, hdr: &mut Headers<'_>, meta: EgressMeta, _ops: &dyn PipelineOps) -> bool {
        self.egress_runs += 1;
        // Arriving QPNs are below 64: a copy that read the one before it
        // would see that copy's replication id here.
        assert!(
            hdr.dest_qp().masked() < 64,
            "every copy starts from the ingress delta"
        );
        hdr.rewrite(RewriteSet {
            udp_src_port: Some(self.egress_runs as u16),
            dest_qp: Some(Qpn(1_000 + u32::from(meta.rid))),
            ..RewriteSet::default()
        });
        !self.egress_runs.is_multiple_of(5)
    }

    fn on_cpu_packet(&mut self, mut pkt: RocePacket, ops: &mut dyn ControlOps) {
        self.punts += 1;
        std::mem::swap(&mut pkt.src_ip, &mut pkt.dst_ip);
        pkt.dst_ip = host_ip(self.punts as usize % PORTS);
        pkt.bth.dest_qp = Qpn(self.punts);
        ops.send_packet(pkt);
        ops.set_timer(SimDuration::from_nanos(30), u64::from(self.punts));
    }

    fn on_timer(&mut self, token: u64, ops: &mut dyn ControlOps) {
        ops.send_packet(packet(
            Opcode::Acknowledge,
            token as u32,
            SW_IP,
            host_ip(0),
            0,
        ));
    }
}

fn packet(opcode: Opcode, qpn: u32, src: Ipv4Addr, dst: Ipv4Addr, payload: usize) -> RocePacket {
    RocePacket {
        src_mac: MacAddr::for_ip(src),
        dst_mac: MacAddr::for_ip(dst),
        src_ip: src,
        dst_ip: dst,
        udp_src_port: 0xC000,
        bth: Bth {
            opcode,
            dest_qp: Qpn(qpn),
            psn: Psn::new(0),
            ack_req: opcode.is_write(),
        },
        reth: opcode.carries_reth().then_some(Reth {
            va: 0x1000,
            rkey: RKey(7),
            dma_len: payload as u32,
        }),
        aeth: opcode.carries_aeth().then_some(Aeth {
            kind: AethKind::Ack { credits: 3 },
            msn: 1,
        }),
        payload: Bytes::from(vec![0xA5; payload]),
    }
}

// ---------------------------------------------------------------------
// The reference: three timers per copy
// ---------------------------------------------------------------------

const TK_INGRESS: u64 = 1 << 56;
const TK_EGRESS: u64 = 2 << 56;
const TK_EMIT: u64 = 3 << 56;
const TK_CPU: u64 = 4 << 56;
const TK_CTRL: u64 = 5 << 56;
const TK_CLASS_MASK: u64 = 0xff << 56;

/// Where the reference charges a copy's egress parser.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Walk {
    /// From its own `TK_EGRESS` wake-up, one pipeline latency after the
    /// ingress: the walk as it was.
    ThreeTimer,
    /// The planted bug: at the ingress instant, for the ingress instant —
    /// what the fused pass would do had it passed `now` where it passes
    /// `now + pipeline_latency`.
    AdmitAtIngress,
}

struct InFlight {
    arrived: PacketTemplate,
    rw: RewriteSet,
    port: PortId,
    rid: u16,
}

struct Plane {
    cfg: SwitchConfig,
    routes: BTreeMap<u32, PortId>,
    mcast: MulticastGroups,
    stats: SwitchStats,
}

impl PipelineOps for Plane {
    fn route(&self, ip: Ipv4Addr) -> Option<PortId> {
        self.routes.get(&u32::from(ip)).copied()
    }
    fn switch_ip(&self) -> Ipv4Addr {
        self.cfg.ip
    }
    fn tracer(&self) -> &Tracer {
        &self.cfg.tracer
    }
}

struct Control<'a, 'c> {
    plane: &'a mut Plane,
    ctx: &'a mut Context<'c>,
}

impl ControlOps for Control<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now
    }
    fn switch_ip(&self) -> Ipv4Addr {
        self.plane.cfg.ip
    }
    fn route(&self, ip: Ipv4Addr) -> Option<PortId> {
        self.plane.route(ip)
    }
    fn send_packet(&mut self, pkt: RocePacket) {
        if let Some(port) = self.route(pkt.dst_ip) {
            self.ctx.send(port, pkt.to_frame());
        }
    }
    fn set_timer(&mut self, after: SimDuration, token: u64) {
        self.ctx.schedule(after, TimerToken(TK_CTRL | token));
    }
    fn set_mcast_group(&mut self, gid: MulticastGroupId, members: Vec<McastMember>) {
        self.plane.mcast.set_group(gid, members);
    }
    fn remove_mcast_group(&mut self, gid: MulticastGroupId) {
        self.plane.mcast.remove_group(gid);
    }
}

struct ThreeTimer<P> {
    walk: Walk,
    plane: Plane,
    program: P,
    ingress_parsers: Vec<Cpu>,
    egress_parsers: Vec<Cpu>,
    // Parked items, addressed by the timer that resumes them; never reused.
    arrived: Vec<Option<(Frame, PortId)>>,
    in_flight: Vec<Option<InFlight>>,
    punted: Vec<Option<RocePacket>>,
}

impl<P: SwitchProgram> ThreeTimer<P> {
    fn new(cfg: SwitchConfig, walk: Walk, program: P) -> Self {
        let lanes = cfg.parser_slices.unwrap_or(PORTS).max(1);
        ThreeTimer {
            walk,
            plane: Plane {
                cfg,
                routes: BTreeMap::new(),
                mcast: MulticastGroups::new(),
                stats: SwitchStats::default(),
            },
            program,
            ingress_parsers: vec![Cpu::new(); lanes],
            egress_parsers: vec![Cpu::new(); lanes],
            arrived: Vec::new(),
            in_flight: Vec::new(),
            punted: Vec::new(),
        }
    }

    fn parser_admit(parser: &mut Cpu, now: SimTime, cfg: &SwitchConfig) -> Option<SimTime> {
        let backlog_ns = parser
            .busy_until()
            .saturating_duration_since(now)
            .as_nanos();
        let backlog_pkts = backlog_ns / cfg.parser_cost.as_nanos().max(1);
        if backlog_pkts >= cfg.parser_queue_limit {
            return None;
        }
        Some(parser.run(now, cfg.parser_cost))
    }

    /// `TK_EGRESS`: charge the output port's egress parser for copy `id`.
    fn admit_to_egress(&mut self, id: usize, ctx: &mut Context<'_>) {
        let Some(copy) = &self.in_flight[id] else {
            return;
        };
        let lane = copy.port.index() % self.egress_parsers.len();
        let parser = &mut self.egress_parsers[lane];
        match Self::parser_admit(parser, ctx.now, &self.plane.cfg) {
            None => {
                self.in_flight[id] = None;
                self.plane.stats.parser_overflow_drops += 1;
            }
            Some(done) => ctx.schedule_at(done, TimerToken(TK_EMIT | id as u64)),
        }
    }

    fn run_ingress(&mut self, frame: Frame, port: PortId, ctx: &mut Context<'_>) {
        let meta = IngressMeta {
            ingress_port: port,
            now: ctx.now,
            planted: ctx.planted(),
        };
        let view = match RocePacket::parse_view(&frame) {
            Ok(v) => v,
            Err(_) => {
                self.plane.stats.parse_errors += 1;
                return;
            }
        };
        let mut rw = RewriteSet::default();
        let verdict = self
            .program
            .ingress(&mut Headers::new(view, &mut rw), meta, &self.plane);
        let mut to_egress = |sw: &mut Self, port: PortId, rid: u16| {
            sw.in_flight.push(Some(InFlight {
                arrived: view.to_template(),
                rw,
                port,
                rid,
            }));
            let id = sw.in_flight.len() - 1;
            match sw.walk {
                Walk::ThreeTimer => ctx.schedule(
                    sw.plane.cfg.pipeline_latency,
                    TimerToken(TK_EGRESS | id as u64),
                ),
                Walk::AdmitAtIngress => sw.admit_to_egress(id, ctx),
            }
        };
        match verdict {
            IngressVerdict::Drop => self.plane.stats.dropped_ingress += 1,
            IngressVerdict::Unicast(out) => to_egress(self, out, 0),
            IngressVerdict::Multicast(gid) => {
                let members = self.plane.mcast.members(gid).unwrap_or_default().to_vec();
                if members.is_empty() {
                    self.plane.stats.dropped_ingress += 1;
                }
                for m in members {
                    self.plane.stats.multicast_copies += 1;
                    to_egress(self, m.port, m.rid);
                }
            }
            IngressVerdict::ToCpu => {
                self.plane.stats.punted += 1;
                let mut pkt = view.to_packet();
                rw.apply(&mut pkt);
                self.punted.push(Some(pkt));
                let id = self.punted.len() as u64 - 1;
                ctx.schedule(self.plane.cfg.cpu_punt_latency, TimerToken(TK_CPU | id));
            }
        }
    }
}

impl<P: SwitchProgram> Node for ThreeTimer<P> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let plane = &mut self.plane;
        self.program.on_start(&mut Control { plane, ctx });
    }

    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>) {
        let lane = port.index() % self.ingress_parsers.len();
        let parser = &mut self.ingress_parsers[lane];
        match Self::parser_admit(parser, ctx.now, &self.plane.cfg) {
            None => self.plane.stats.parser_overflow_drops += 1,
            Some(parsed_at) => {
                self.arrived.push(Some((frame, port)));
                let id = self.arrived.len() as u64 - 1;
                ctx.schedule_at(parsed_at, TimerToken(TK_INGRESS | id));
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        let id = (token.0 & !TK_CLASS_MASK) as usize;
        match token.0 & TK_CLASS_MASK {
            TK_INGRESS => {
                let (frame, port) = self.arrived[id].take().expect("parked");
                self.run_ingress(frame, port, ctx);
            }
            TK_EGRESS => self.admit_to_egress(id, ctx),
            TK_EMIT => {
                let mut copy = self.in_flight[id].take().expect("parked");
                self.plane.stats.emit_events += 1;
                let meta = EgressMeta {
                    egress_port: copy.port,
                    rid: copy.rid,
                    now: ctx.now,
                    planted: ctx.planted(),
                };
                let mut hdr = Headers::new(copy.arrived.view(), &mut copy.rw);
                if self.program.egress(&mut hdr, meta, &self.plane) {
                    let frame = copy.arrived.stamp(&copy.rw).expect("header rewrites only");
                    self.plane.stats.forwarded += 1;
                    self.plane.stats.emitted_patched += 1;
                    ctx.send(copy.port, frame);
                } else {
                    self.plane.stats.dropped_egress += 1;
                }
            }
            TK_CPU => {
                let pkt = self.punted[id].take().expect("parked");
                let plane = &mut self.plane;
                self.program.on_cpu_packet(pkt, &mut Control { plane, ctx });
            }
            TK_CTRL => {
                let plane = &mut self.plane;
                self.program
                    .on_timer(id as u64, &mut Control { plane, ctx });
            }
            _ => unreachable!("unknown timer class"),
        }
    }
}

// ---------------------------------------------------------------------
// One scenario through either switch
// ---------------------------------------------------------------------

/// Sends each frame of its schedule at its instant.
struct Feeder {
    schedule: Vec<(SimTime, Frame)>,
}

impl Node for Feeder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, (at, _)) in self.schedule.iter().enumerate() {
            ctx.schedule_at(*at, TimerToken(i as u64));
        }
    }
    fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut Context<'_>) {}
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        ctx.send(PortId::FIRST, self.schedule[token.0 as usize].1.clone());
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    parser_cost: u64,
    parser_queue_limit: u64,
    pipeline_latency: u64,
    parser_slices: Option<usize>,
    /// `(port, send instant / 2, QPN, destination port, payload / 2)`.
    arrivals: Vec<(usize, u64, u32, usize, usize)>,
    /// Power the switch off at this instant (and back on once every
    /// parser of either walk has drained), if at all.
    kill_at: Option<u64>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let arrival = (0..PORTS, 0..1_500u64, 0..64u32, 0..PORTS + 1, 0..3usize);
    (
        prop_oneof![Just(8u64), Just(50), Just(200)],
        prop_oneof![Just(1u64), Just(2), Just(4), Just(512)],
        prop_oneof![Just(0u64), Just(40), Just(400)],
        prop_oneof![Just(None), Just(Some(1usize)), Just(Some(2))],
        prop::collection::vec(arrival, 1..60),
        prop_oneof![Just(None), (100..1_400u64).prop_map(Some)],
    )
        .prop_map(|(cost, limit, latency, slices, arrivals, kill)| Scenario {
            parser_cost: cost,
            parser_queue_limit: limit,
            pipeline_latency: latency,
            parser_slices: slices,
            arrivals,
            kill_at: kill.map(|k| 2 * k),
        })
}

/// What a run leaves behind: per switch port, every frame put on the wire
/// with its instant; and the counters.
type Emitted = Vec<Vec<(SimTime, Vec<u8>)>>;

fn run(scenario: &Scenario, walk: Option<Walk>) -> (Emitted, SwitchStats) {
    let cfg = SwitchConfig {
        parser_cost: SimDuration::from_nanos(scenario.parser_cost),
        parser_queue_limit: scenario.parser_queue_limit,
        pipeline_latency: SimDuration::from_nanos(scenario.pipeline_latency),
        // Odd: the control plane never shares a nanosecond with the data
        // plane, whose every delay below is even.
        cpu_punt_latency: SimDuration::from_nanos(2_001),
        parser_slices: scenario.parser_slices,
        ..SwitchConfig::tofino1(SW_IP)
    };
    // One byte per nanosecond: an even frame takes an even time.
    let link = LinkSpec {
        bandwidth: Bandwidth::from_gbps(8.0),
        propagation: SimDuration::from_nanos(20),
    };

    let mut sim = Simulation::new(1);
    let feeders: Vec<_> = (0..PORTS)
        .map(|port| {
            let mut schedule: Vec<(SimTime, Frame)> = (scenario.arrivals.iter())
                .filter(|a| a.0 == port)
                .map(|&(_, at, qpn, dst, payload)| {
                    // Destination `PORTS` is an address nothing routes to.
                    let pkt = packet(
                        Opcode::WriteOnly,
                        qpn,
                        host_ip(port),
                        host_ip(dst),
                        2 * payload,
                    );
                    (SimTime::from_nanos(2 * at), pkt.to_frame())
                })
                .collect();
            schedule.sort_by_key(|(at, _)| *at);
            sim.add_node(Box::new(Feeder { schedule }))
        })
        .collect();
    let routes = (0..PORTS).map(|p| (host_ip(p), PortId::from_index(p as u32)));
    let sw = match walk {
        None => {
            let mut fused = Switch::new(cfg, PORTS, Stamper::default());
            routes.for_each(|(ip, port)| fused.add_route(ip, port));
            sim.add_node(Box::new(fused))
        }
        Some(walk) => {
            let mut reference = ThreeTimer::new(cfg, walk, Stamper::default());
            reference.plane.routes = routes.map(|(ip, port)| (u32::from(ip), port)).collect();
            sim.add_node(Box::new(reference))
        }
    };
    let taps: Vec<_> = feeders
        .iter()
        .map(|&feeder| {
            let (_, port) = sim.connect(feeder, sw, link);
            sim.tap(sw, port)
        })
        .collect();

    if let Some(kill_at) = scenario.kill_at {
        // Back on once nothing that entered the pipeline before the cut
        // can still be in it, whichever walk charged its parsers when.
        let drained =
            scenario.pipeline_latency + (scenario.parser_queue_limit + 2) * scenario.parser_cost;
        sim.run_until(SimTime::from_nanos(kill_at));
        sim.set_node_down(sw, true);
        sim.run_until(SimTime::from_nanos(kill_at + drained + 2));
        sim.set_node_down(sw, false);
    }
    sim.run_to_completion();

    let emitted = (taps.iter())
        .map(|&tap| {
            let frames = sim.tap_frames(tap).iter();
            frames.map(|(at, f)| (*at, f.to_vec())).collect()
        })
        .collect();
    let stats = match walk {
        None => sim.node_ref::<Switch<Stamper>>(sw).stats(),
        Some(_) => sim.node_ref::<ThreeTimer<Stamper>>(sw).plane.stats,
    };
    (emitted, stats)
}

/// The property: the fused pass and `reference` are indistinguishable
/// from outside the switch.
fn the_fused_pass_is(reference: Walk, scenario: &Scenario) {
    let (fused_frames, fused) = run(scenario, None);
    let (reference_frames, walked) = run(scenario, Some(reference));
    assert_eq!(
        fused_frames, reference_frames,
        "the walks differ on {scenario:?}"
    );

    // Every counter but the wake-ups, which are what the pass saves: the
    // reference fires one per copy it emits or drops in the egress.
    let counters = |s: &SwitchStats| {
        [
            s.forwarded,
            s.multicast_copies,
            s.dropped_ingress,
            s.dropped_egress,
            s.punted,
            s.parse_errors,
            s.emitted_patched,
            s.emitted_reserialized,
        ]
    };
    assert_eq!(counters(&fused), counters(&walked), "{scenario:?}");
    assert_eq!(walked.emit_events, walked.forwarded + walked.dropped_egress);
    assert!(fused.emit_events <= walked.emit_events);
    if scenario.kill_at.is_none() {
        assert_eq!(
            fused.parser_overflow_drops, walked.parser_overflow_drops,
            "{scenario:?}"
        );
    } else {
        // A copy between the ingress and its egress parser when the power
        // goes is lost in both walks. The reference never got to ask that
        // parser; the pass had asked on entry — so a dead switch's
        // tail-drop count may include copies nobody could ever have seen.
        assert!(
            fused.parser_overflow_drops >= walked.parser_overflow_drops,
            "{scenario:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn the_fused_pass_is_the_three_timer_walk(scenario in arb_scenario()) {
        the_fused_pass_is(Walk::ThreeTimer, &scenario);
    }

    /// The property can tell: a walk that charges the egress parser at
    /// the ingress instant — the fused pass with `now` for `now +
    /// pipeline_latency` — puts its frames on the wire a pipeline latency
    /// early (and tail-drops against the wrong backlog).
    #[test]
    #[should_panic(expected = "the walks differ")]
    fn admitting_at_the_ingress_instant_is_caught(scenario in arb_scenario()) {
        the_fused_pass_is(Walk::AdmitAtIngress, &scenario);
    }
}

/// The generator reaches what the property is about: tail drops, copies
/// of one pass that share a wake-up, multicast over pooled parsers (copies
/// that do not), punts to the control plane and power cuts.
#[test]
fn the_scenarios_cover_the_pass() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic("coverage");
    let strategy = arb_scenario();
    let (mut drops, mut shared, mut pooled, mut punted, mut cut) = (0, 0, 0, 0, 0);
    for _ in 0..192 {
        let scenario = strategy.sample(&mut rng);
        let (_, fused) = run(&scenario, None);
        let (_, walked) = run(&scenario, Some(Walk::ThreeTimer));
        drops += fused.parser_overflow_drops;
        shared += walked.emit_events - fused.emit_events;
        pooled += u64::from(scenario.parser_slices.is_some() && fused.multicast_copies > 0);
        punted += fused.punted;
        cut += u64::from(scenario.kill_at.is_some());
    }
    let seen = [drops, shared, pooled, punted, cut];
    assert!(
        drops > 100 && shared > 100 && pooled > 20 && punted > 50 && cut > 40,
        "{seen:?}"
    );
}

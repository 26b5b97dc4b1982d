//! The switch node: per-port parsers, match-action pipeline, replication
//! engine, egress, and a control-plane CPU — with the performance limits
//! of the real ASIC.
//!
//! The quantitative constraints modelled here are the ones the paper
//! measures against (§II-B, §IV-D):
//!
//! * each port has its *own* ingress parser and egress parser, each capped
//!   at ~121 M packets/s;
//! * the match-action stages and the replication engine run at line rate
//!   (no extra limit beyond a fixed pipeline latency);
//! * dropping a packet in the *ingress* consumes only the arriving port's
//!   ingress parser; letting it reach the *egress* consumes the output
//!   port's egress parser — the difference behind the paper's 121 → 726
//!   Mpps ACK-aggregation fix.

use netsim::{Context, Cpu, Frame, Node, PortId, SimDuration, SimTime, Slab, TimerToken};
use rdma::{PacketTemplate, RewriteSet, RocePacket};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use crate::mcast::{McastMember, MulticastGroupId, MulticastGroups};
use crate::program::{
    ControlOps, EgressMeta, Headers, IngressMeta, IngressVerdict, PipelineOps, SwitchProgram,
};

/// Static parameters of the switch.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// The switch's own IP address (P4CE connections target it).
    pub ip: Ipv4Addr,
    /// Per-packet occupancy of each parser: 1/121 Mpps ≈ 8 ns (§IV-D).
    pub parser_cost: SimDuration,
    /// Tail-drop threshold, in packets of backlog, per parser.
    pub parser_queue_limit: u64,
    /// Fixed traversal latency of the match-action stages + traffic
    /// manager.
    pub pipeline_latency: SimDuration,
    /// Latency of punting a packet to the control-plane CPU and running
    /// the handler (slow path; §IV-A notes this is fine because
    /// connections are rare).
    pub cpu_punt_latency: SimDuration,
    /// Number of parser slices shared across all ports, per direction.
    /// `None` (the default) gives every port its own ingress and egress
    /// parser — the Tofino front-panel layout this model has always
    /// used. `Some(k)` pools the ports onto `k` slices (port → slice by
    /// `port mod k`), modelling a pipe whose parser slices are shared
    /// among more ports than slices; that contention is what the
    /// groups-sweep experiment drives into its Mpps knee.
    pub parser_slices: Option<usize>,
    /// Trace sink the loaded program emits data-plane events through
    /// (via [`PipelineOps::tracer`]). Disabled by default.
    pub tracer: netsim::Tracer,
}

impl SwitchConfig {
    /// A first-generation Tofino with the paper's constants.
    pub fn tofino1(ip: Ipv4Addr) -> Self {
        SwitchConfig {
            ip,
            // 121 M packets/s per parser → 8.26 ns; rounded to 8 ns.
            parser_cost: SimDuration::from_nanos(8),
            parser_queue_limit: 512,
            pipeline_latency: SimDuration::from_nanos(400),
            cpu_punt_latency: SimDuration::from_micros(20),
            parser_slices: None,
            tracer: netsim::Tracer::disabled(),
        }
    }
}

/// Counters for tests and reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Unicast packets forwarded.
    pub forwarded: u64,
    /// Copies produced by the replication engine.
    pub multicast_copies: u64,
    /// Packets dropped by an ingress verdict.
    pub dropped_ingress: u64,
    /// Copies dropped by the egress stage.
    pub dropped_egress: u64,
    /// Packets dropped because a parser queue overflowed.
    pub parser_overflow_drops: u64,
    /// Packets punted to the control plane.
    pub punted: u64,
    /// Frames that failed to parse.
    pub parse_errors: u64,
    /// Frames emitted by the deparser: the arrived bytes forwarded as-is
    /// or with header fields patched. Every emitted frame counts here.
    pub emitted_patched: u64,
    /// Frames emitted by a full re-serialization. No data-plane path can
    /// increment it — a stage cannot express a structural change — so it
    /// reads 0; the field stays because the benchmark reads it.
    pub emitted_reserialized: u64,
    /// Deparser wake-ups. One serves every copy of a pass that leaves its
    /// egress parser at that instant, so it reads at most `forwarded +
    /// dropped_egress` and the gap is the events the sharing saved.
    pub emit_events: u64,
}

const TK_INGRESS: u64 = 1 << 56;
const TK_EMIT: u64 = 3 << 56;
const TK_CPU: u64 = 4 << 56;
const TK_CTRL: u64 = 5 << 56;
const TK_CLASS_MASK: u64 = 0xff << 56;
const TK_DATA_MASK: u64 = !TK_CLASS_MASK;

/// One packet between the ingress stage and the deparser: the arrived
/// frame with what the parser extracted from it, the header rewrites the
/// ingress recorded, and the copies the replication engine made of it.
/// Every copy is a port, a replication id and a release instant — a
/// reference to this one packet, as on the ASIC; the payload is never
/// parsed out, copied or touched in here.
#[derive(Debug)]
struct Pass {
    arrived: PacketTemplate,
    rw: RewriteSet,
    /// The copies its egress parsers admitted and the deparser has not
    /// seen yet, in member order.
    copies: Vec<PassCopy>,
}

#[derive(Debug, Clone, Copy)]
struct PassCopy {
    port: PortId,
    rid: u16,
    /// When its egress parser lets go of it.
    emit_at: SimTime,
}

struct Shared {
    cfg: SwitchConfig,
    routes: BTreeMap<u32, PortId>,
    mcast: MulticastGroups,
    stats: SwitchStats,
}

impl PipelineOps for Shared {
    fn route(&self, ip: Ipv4Addr) -> Option<PortId> {
        self.routes.get(&u32::from(ip)).copied()
    }
    fn switch_ip(&self) -> Ipv4Addr {
        self.cfg.ip
    }
    fn tracer(&self) -> &netsim::Tracer {
        &self.cfg.tracer
    }
}

struct Control<'a, 'c> {
    shared: &'a mut Shared,
    ctx: &'a mut Context<'c>,
}

impl ControlOps for Control<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now
    }
    fn switch_ip(&self) -> Ipv4Addr {
        self.shared.cfg.ip
    }
    fn route(&self, ip: Ipv4Addr) -> Option<PortId> {
        self.shared.routes.get(&u32::from(ip)).copied()
    }
    fn send_packet(&mut self, pkt: RocePacket) {
        if let Some(port) = self.route(pkt.dst_ip) {
            self.ctx.send(port, pkt.to_frame());
        }
    }
    fn set_timer(&mut self, after: SimDuration, token: u64) {
        debug_assert_eq!(token & TK_CLASS_MASK, 0, "control timer token too large");
        self.ctx.schedule(after, TimerToken(TK_CTRL | token));
    }
    fn set_mcast_group(&mut self, gid: MulticastGroupId, members: Vec<McastMember>) {
        self.shared.mcast.set_group(gid, members);
    }
    fn remove_mcast_group(&mut self, gid: MulticastGroupId) {
        self.shared.mcast.remove_group(gid);
    }
}

/// A programmable switch running program `P`.
pub struct Switch<P: SwitchProgram> {
    shared: Shared,
    program: P,
    ingress_parsers: Vec<Cpu>,
    egress_parsers: Vec<Cpu>,
    /// Frames waiting out the ingress parser.
    arrived: Slab<(Frame, PortId)>,
    /// Packets between the ingress stage and the deparser.
    in_flight: Slab<Pass>,
    /// Copy lists of finished passes, kept for the next ones (no
    /// steady-state allocation on the replication path).
    spare_copies: Vec<Vec<PassCopy>>,
    /// Packets on their way to the control-plane CPU.
    punted: Slab<RocePacket>,
}

impl<P: SwitchProgram> Switch<P> {
    /// Builds a switch with `ports` ports running `program`.
    pub fn new(cfg: SwitchConfig, ports: usize, program: P) -> Self {
        let lanes = cfg.parser_slices.unwrap_or(ports).max(1);
        Switch {
            shared: Shared {
                cfg,
                routes: BTreeMap::new(),
                mcast: MulticastGroups::new(),
                stats: SwitchStats::default(),
            },
            program,
            ingress_parsers: vec![Cpu::new(); lanes],
            egress_parsers: vec![Cpu::new(); lanes],
            arrived: Slab::new(),
            in_flight: Slab::new(),
            spare_copies: Vec::new(),
            punted: Slab::new(),
        }
    }

    /// Programs the L3 table: packets for `ip` leave through `port`.
    pub fn add_route(&mut self, ip: Ipv4Addr, port: PortId) {
        self.shared.routes.insert(u32::from(ip), port);
    }

    /// The loaded program (for post-run inspection).
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.shared.stats
    }

    /// Charges a parser for one packet; `None` means tail drop.
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

    fn run_ingress(&mut self, frame: Frame, port: PortId, ctx: &mut Context<'_>) {
        let meta = IngressMeta {
            ingress_port: port,
            now: ctx.now,
            planted: ctx.planted(),
        };
        // The ingress parser: full acceptance checks, headers read in
        // place. An owned packet exists only if the verdict is a CPU punt.
        let view = match RocePacket::parse_view(&frame) {
            Ok(v) => v,
            Err(_) => {
                self.shared.stats.parse_errors += 1;
                return;
            }
        };
        let mut rw = RewriteSet::default();
        let verdict = self
            .program
            .ingress(&mut Headers::new(view, &mut rw), meta, &self.shared);
        // A copy reaches its egress parser one pipeline latency from now.
        // That parser is a FIFO fed in ingress order at a constant delay,
        // so charging it here, for that instant, queues the copy exactly
        // where a wake-up at that instant would have.
        let Shared {
            cfg, mcast, stats, ..
        } = &mut self.shared;
        let at_egress = ctx.now + cfg.pipeline_latency;
        let egress_parsers = &mut self.egress_parsers;
        let mut copies = self.spare_copies.pop().unwrap_or_default();
        let mut to_egress = |port: PortId, rid: u16| {
            let lane = port.index() % egress_parsers.len();
            match Self::parser_admit(&mut egress_parsers[lane], at_egress, cfg) {
                None => stats.parser_overflow_drops += 1,
                Some(emit_at) => copies.push(PassCopy { port, rid, emit_at }),
            }
        };
        match verdict {
            IngressVerdict::Drop => stats.dropped_ingress += 1,
            IngressVerdict::Unicast(out) => to_egress(out, 0),
            IngressVerdict::Multicast(gid) => {
                let members = mcast.members(gid).unwrap_or_default();
                if members.is_empty() {
                    stats.dropped_ingress += 1;
                }
                for m in members {
                    stats.multicast_copies += 1;
                    to_egress(m.port, m.rid);
                }
            }
            IngressVerdict::ToCpu => {
                stats.punted += 1;
                let mut pkt = view.to_packet();
                rw.apply(&mut pkt);
                let id = self.punted.put(pkt);
                ctx.schedule(cfg.cpu_punt_latency, TimerToken(TK_CPU | u64::from(id)));
            }
        }
        if copies.is_empty() {
            return self.spare_copies.push(copies);
        }
        let arrived = view.to_template();
        let id = self.in_flight.put(Pass {
            arrived,
            rw,
            copies,
        });
        // One deparser wake-up per release instant: the copies of a pass
        // that share one would have been queued back to back, so nothing
        // could have come between them.
        let copies = &self.in_flight.get(id).expect("parked").copies;
        for (i, copy) in copies.iter().enumerate() {
            if copies[..i].iter().all(|c| c.emit_at != copy.emit_at) {
                ctx.schedule_at(copy.emit_at, TimerToken(TK_EMIT | u64::from(id)));
            }
        }
    }
}

impl<P: SwitchProgram> Node for Switch<P> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut ops = Control {
            shared: &mut self.shared,
            ctx,
        };
        self.program.on_start(&mut ops);
    }

    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>) {
        let lane = port.index() % self.ingress_parsers.len();
        let parser = &mut self.ingress_parsers[lane];
        match Self::parser_admit(parser, ctx.now, &self.shared.cfg) {
            None => {
                self.shared.stats.parser_overflow_drops += 1;
            }
            Some(parsed_at) => {
                let id = self.arrived.put((frame, port));
                ctx.schedule_at(parsed_at, TimerToken(TK_INGRESS | u64::from(id)));
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        let class = token.0 & TK_CLASS_MASK;
        let data = token.0 & TK_DATA_MASK;
        // What a parking class carries is a slab id this switch wrote.
        let slot = data as u32;
        match class {
            TK_INGRESS => {
                let Some((frame, port)) = self.arrived.take(slot) else {
                    return;
                };
                self.run_ingress(frame, port, ctx);
            }
            TK_EMIT => {
                let Some(pass) = self.in_flight.get_mut(slot) else {
                    return;
                };
                self.shared.stats.emit_events += 1;
                let (now, planted) = (ctx.now, ctx.planted());
                for copy in pass.copies.iter().filter(|c| c.emit_at == now) {
                    let meta = EgressMeta {
                        egress_port: copy.port,
                        rid: copy.rid,
                        now,
                        planted,
                    };
                    // Every copy starts from the ingress delta.
                    let mut rw = pass.rw;
                    let mut hdr = Headers::new(pass.arrived.view(), &mut rw);
                    if self.program.egress(&mut hdr, meta, &self.shared) {
                        // The deparser, the one place a frame is built for a
                        // port: whatever the stages recorded is stamped onto
                        // a copy of the arrived head; the payload is shared.
                        let frame = pass
                            .arrived
                            .stamp(&rw)
                            .expect("Headers records only rewrites the opcode carries");
                        self.shared.stats.forwarded += 1;
                        self.shared.stats.emitted_patched += 1;
                        ctx.send(copy.port, frame);
                    } else {
                        self.shared.stats.dropped_egress += 1;
                    }
                }
                pass.copies.retain(|c| c.emit_at != now);
                if pass.copies.is_empty() {
                    let pass = self.in_flight.take(slot).expect("parked");
                    self.spare_copies.push(pass.copies);
                }
            }
            TK_CPU => {
                let Some(pkt) = self.punted.take(slot) else {
                    return;
                };
                let mut ops = Control {
                    shared: &mut self.shared,
                    ctx,
                };
                self.program.on_cpu_packet(pkt, &mut ops);
            }
            TK_CTRL => {
                let mut ops = Control {
                    shared: &mut self.shared,
                    ctx,
                };
                self.program.on_timer(data, &mut ops);
            }
            _ => {}
        }
    }

    fn label(&self) -> String {
        format!("switch {}", self.shared.cfg.ip)
    }
}

//! The benchmark's own drivers: one repeat of one workload, timed from
//! outside.
//!
//! The library's `run_point` / `run_sharded_point` return only virtual
//! results. To split wall time into set-up and window, to count what was
//! offered against what was decided after a drain, and to swap the
//! window's `run_until` for a classified, timed `step()` loop in the
//! traced run, the benchmark repeats their (short) driving sequence here
//! through the same public calls — and `verify` proves on every run that
//! the two agree bit for bit. `leader_kill` does the same with
//! `run_failover`, because the library's version cannot take the seed's
//! link and keeps its deployment to itself.

use std::time::{Duration, Instant};

use crate::spec::{Inputs, PointInputs, Work};
use crate::stat::{max_rate_in_slo, median, percentile_sorted, Rung, Slo};
use crate::sut::{
    build_point_cluster, build_traced_p4ce, run_failover, run_point, run_sharded_point, store_of,
    ChaosSpec, Cluster, FailoverBudget, FailoverConfig, FaultPlan, HashRing, Host, LinkSpec,
    LinkStats, MemberEvent, MemberStats, NodeId, P4ceMember, P4ceProgram, PointConfig,
    PointOutcome, PortId, ShardKvCommand, ShardKvStore, ShardedClusterBuilder, ShardedDeployment,
    ShardedOutcome, ShardedPointConfig, SimDuration, SimTime, Simulation, Switch, TraceEvent,
    TraceHandle, WorkloadSpec, LOG_ENTRY_OVERHEAD,
};

/// After the window every driver lets the system run this much longer
/// before asking whether everything offered was decided.
pub const DRAIN: SimDuration = SimDuration::from_millis(2);

/// How the simulation is advanced through a measured window. The
/// end-to-end runs use [`Plain`]; the traced run substitutes a stepper
/// that classifies and times every event. Both must leave the
/// simulation in the same state — that is what the identity check
/// between the traced and the untraced outcome verifies.
pub trait Advance {
    fn run_until(&mut self, sim: &mut Simulation, deadline: SimTime);
    /// Called where a cluster's set-up starts, before it is built.
    fn begin_setup(&mut self) {}
    /// Advances the simulation during set-up: while waiting for a leader
    /// and through the warm-up.
    fn setup_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        sim.run_until(deadline);
    }
    /// Called right before a measured window. Tells a stepper which
    /// nodes are leaders and which the fabric, so it can name the class
    /// of each event.
    fn begin_window(&mut self, _leaders: &[NodeId], _switch: NodeId) {}
    /// Called right after a measured window.
    fn end_window(&mut self) {}
    /// A finished phase of the repeat on the wall clock (`setup`,
    /// `warmup`, `window`, `drain`) — the traced run turns these into
    /// spans.
    fn phase(&mut self, _name: &'static str, _start: Instant, _end: Instant) {}
}

/// `Simulation::run_until`, as the library runners call it.
pub struct Plain;

impl Advance for Plain {
    fn run_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        sim.run_until(deadline);
    }
}

/// [`Plain`], with a lap of the wall clock taken at every `slice` of
/// virtual time, in set-up and in the measured windows. The simulation is
/// deterministic, so lap *k* covers the same work in every repeat of one
/// seed: the end-to-end run keeps the fastest sighting of each lap, and a
/// phase's cost no longer needs one whole quiet repeat — only, for each
/// slice, one repeat in which the host left that slice alone.
///
/// Laps are consecutive differences of one clock, so whatever a driver
/// does between two calls (building the cluster, the sharded client's
/// proposals, the kill itself) falls into the lap that follows it, and
/// the laps of a phase add up to the phase.
pub struct Sliced {
    slice: SimDuration,
    boundary: Option<SimTime>,
    last: Instant,
    /// Which of the two lap lists the clock is running for, if any.
    in_window: Option<bool>,
    pub setup_laps_ns: Vec<u64>,
    pub window_laps_ns: Vec<u64>,
}

impl Sliced {
    pub fn new(slice: SimDuration) -> Self {
        Sliced {
            slice,
            boundary: None,
            last: Instant::now(),
            in_window: None,
            setup_laps_ns: Vec::new(),
            window_laps_ns: Vec::new(),
        }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        let ns = (now - self.last).as_nanos() as u64;
        self.last = now;
        match self.in_window {
            Some(true) => self.window_laps_ns.push(ns),
            Some(false) => self.setup_laps_ns.push(ns),
            None => {}
        }
    }

    fn start(&mut self, in_window: bool) {
        self.in_window = Some(in_window);
        self.boundary = None;
        self.last = Instant::now();
    }

    fn advance(&mut self, sim: &mut Simulation, deadline: SimTime) {
        let mut boundary = self.boundary.unwrap_or_else(|| sim.now() + self.slice);
        while boundary <= deadline {
            sim.run_until(boundary);
            self.lap();
            boundary += self.slice;
        }
        self.boundary = Some(boundary);
        sim.run_until(deadline);
    }
}

impl Advance for Sliced {
    fn run_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        self.advance(sim, deadline);
    }

    fn begin_setup(&mut self) {
        self.start(false);
    }

    fn setup_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        self.advance(sim, deadline);
    }

    fn begin_window(&mut self, _leaders: &[NodeId], _switch: NodeId) {
        self.lap();
        self.start(true);
    }

    fn end_window(&mut self) {
        self.lap();
        self.in_window = None;
    }
}

/// Lends an [`Advance`] to a warm-up that is driven like a window: what
/// it advances counts as set-up.
struct Warmup<'a>(&'a mut dyn Advance);

impl Advance for Warmup<'_> {
    fn run_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        self.0.setup_until(sim, deadline);
    }
}

/// What a repeat yields on the virtual clock. A pure function of the
/// inputs: two repeats of one seed must compare equal, field for field,
/// or the run fails.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    pub decided: u64,
    pub attempted: u64,
    pub failed: u64,
    pub latency_samples: u64,
    pub events_processed: u64,
    pub decided_per_vsec: f64,
    pub goodput_gbytes_per_vsec: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_rate_in_slo: f64,
    pub time_to_service_p50_ms: f64,
    pub time_to_service_max_ms: f64,
    /// On the in-network path at the end of every window (always false
    /// for Mu).
    pub accelerated: bool,
}

/// Exact event and packet counts of a repeat, summed over its clusters.
/// Host, switch and program counters run from power-on to the end of
/// the window (so they divide by `decided_total`); the leader link is
/// the window's own delta (so it divides by the window).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub decided_total: u64,
    pub decided_window: u64,
    pub events: u64,
    pub leader_link: LinkStats,
    /// Bytes the leaders' uplinks could have carried in the windows.
    pub leader_link_capacity_bytes: f64,
    pub leader_tx_packets: u64,
    pub leader_rx_packets: u64,
    pub retransmits: u64,
    pub naks_sent: u64,
    pub rx_overflow_drops: u64,
    pub parse_drops: u64,
    pub rx_zero_copy: u64,
    pub rx_copied: u64,
    pub acks_templated: u64,
    pub acks_serialized: u64,
    pub sw_forwarded: u64,
    pub sw_multicast_copies: u64,
    pub sw_patched: u64,
    pub sw_reserialized: u64,
    pub sw_parser_overflow_drops: u64,
    pub p_scattered: u64,
    pub p_acks_absorbed: u64,
    pub p_acks_forwarded: u64,
    pub p_naks_forwarded: u64,
    pub p_stale_credit_skips: u64,
    pub p_reconfigs: u64,
    /// Largest `leader decided − replica applied` seen after a drain.
    pub apply_lag: u64,
    pub min_credit: Option<u8>,
    pub view_changes: u64,
}

impl Counts {
    fn host(&mut self, h: crate::sut::HostStats, leader: bool) {
        if leader {
            self.leader_tx_packets += h.packets_sent;
            self.leader_rx_packets += h.packets_received;
        }
        self.retransmits += h.retransmits;
        self.naks_sent += h.naks_sent;
        self.rx_overflow_drops += h.rx_overflow_drops;
        self.parse_drops += h.parse_drops;
        self.rx_zero_copy += h.rx_zero_copy_deliveries;
        self.rx_copied += h.rx_copied_deliveries;
        self.acks_templated += h.acks_templated;
        self.acks_serialized += h.acks_serialized;
    }

    fn fabric(&mut self, s: crate::sut::SwitchStats, p: Option<crate::sut::P4ceSwitchStats>) {
        self.sw_forwarded += s.forwarded;
        self.sw_multicast_copies += s.multicast_copies;
        self.sw_patched += s.emitted_patched;
        self.sw_reserialized += s.emitted_reserialized;
        self.sw_parser_overflow_drops += s.parser_overflow_drops;
        if let Some(p) = p {
            self.p_scattered += p.scattered;
            self.p_acks_absorbed += p.acks_absorbed;
            self.p_acks_forwarded += p.acks_forwarded;
            self.p_naks_forwarded += p.naks_forwarded;
            self.p_stale_credit_skips += p.stale_credit_skips;
            self.p_reconfigs += p.reconfigs;
        }
    }

    fn leader(&mut self, stats: &MemberStats) {
        self.decided_total += stats.decided;
        self.min_credit = Some(
            self.min_credit
                .map_or(stats.min_credit_seen, |m| m.min(stats.min_credit_seen)),
        );
        self.view_changes += stats
            .events
            .iter()
            .filter(|(_, e)| matches!(e, MemberEvent::ViewChange { .. }))
            .count() as u64;
    }

    pub fn merge(&mut self, o: &Counts) {
        self.decided_total += o.decided_total;
        self.decided_window += o.decided_window;
        self.events += o.events;
        self.leader_link.wire_bytes += o.leader_link.wire_bytes;
        self.leader_link.frames += o.leader_link.frames;
        self.leader_link_capacity_bytes += o.leader_link_capacity_bytes;
        self.leader_tx_packets += o.leader_tx_packets;
        self.leader_rx_packets += o.leader_rx_packets;
        self.retransmits += o.retransmits;
        self.naks_sent += o.naks_sent;
        self.rx_overflow_drops += o.rx_overflow_drops;
        self.parse_drops += o.parse_drops;
        self.rx_zero_copy += o.rx_zero_copy;
        self.rx_copied += o.rx_copied;
        self.acks_templated += o.acks_templated;
        self.acks_serialized += o.acks_serialized;
        self.sw_forwarded += o.sw_forwarded;
        self.sw_multicast_copies += o.sw_multicast_copies;
        self.sw_patched += o.sw_patched;
        self.sw_reserialized += o.sw_reserialized;
        self.sw_parser_overflow_drops += o.sw_parser_overflow_drops;
        self.p_scattered += o.p_scattered;
        self.p_acks_absorbed += o.p_acks_absorbed;
        self.p_acks_forwarded += o.p_acks_forwarded;
        self.p_naks_forwarded += o.p_naks_forwarded;
        self.p_stale_credit_skips += o.p_stale_credit_skips;
        self.p_reconfigs += o.p_reconfigs;
        self.apply_lag = self.apply_lag.max(o.apply_lag);
        self.min_credit = match (self.min_credit, o.min_credit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.view_changes += o.view_changes;
    }
}

/// One repeat: the virtual results, the two wall clocks, the counts, and
/// whatever only one kind of workload has.
#[derive(Debug)]
pub struct Repeat {
    pub virt: Virtual,
    /// Wall time from cluster construction to the start of the window
    /// (build, election, connection set-up, switch programming, warm-up).
    pub setup_wall: Duration,
    /// Wall time of the measured windows.
    pub window_wall: Duration,
    pub counts: Counts,
    /// `leader_kill` only: one entry per kill.
    pub failovers: Vec<KillFacts>,
    /// `sharded_kv` only.
    pub shard: Option<ShardFacts>,
}

/// What one kill adds to the layer table: its five budget phases
/// (detection, election, log fence, re-acceleration, first decide) and
/// how long decided throughput took to come back.
#[derive(Debug, Clone, PartialEq)]
pub struct KillFacts {
    pub phases_ms: [f64; 5],
    pub recovery_ms: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ShardFacts {
    pub group_p99_us: Vec<f64>,
    pub group_decided: Vec<u64>,
    pub accelerated_groups: u64,
    pub foreign_entries: u64,
}

/// Runs one repeat of `inputs`, advancing every measured window with
/// `adv`.
pub fn run(inputs: &Inputs, adv: &mut dyn Advance) -> Result<Repeat, String> {
    let (link, slo) = (inputs.link, inputs.slo);
    match &inputs.work {
        Work::Points { rungs, headline } => run_points(rungs, *headline, link, slo, adv),
        Work::Kills(kills) => run_kills(kills, link, slo, adv),
        Work::Sharded(cfg) => drive_sharded(cfg, link, slo, adv).map(|(repeat, _)| repeat),
    }
}

// ---------------------------------------------------------------------
// Single-cluster points (closed loops and the open-loop ladder)
// ---------------------------------------------------------------------

/// One point's results before they are folded into a [`Repeat`].
struct PointRun {
    outcome: PointOutcome,
    attempted: u64,
    failed: u64,
    samples: u64,
    first_decide: SimTime,
    setup_wall: Duration,
    window_wall: Duration,
    counts: Counts,
}

fn sanitized(w: WorkloadSpec) -> WorkloadSpec {
    // As the library runners do: unbounded stream, the driver owns the
    // warm-up and the window.
    WorkloadSpec {
        total_requests: 0,
        warmup_requests: 0,
        ..w
    }
}

fn drive_point(p: &PointInputs, link: LinkSpec, adv: &mut dyn Advance) -> Result<PointRun, String> {
    adv.begin_setup();
    let wall0 = Instant::now();
    let mut d = build_point_cluster(
        p.system,
        p.replicas + 1,
        sanitized(p.workload),
        p.seed,
        link,
    );
    let deadline = SimTime::ZERO + SimDuration::from_millis(500);
    while !d.leader_operational() {
        if d.sim_ref().now() >= deadline {
            return Err(format!("{} leader never became operational", p.system));
        }
        let next = d.sim_ref().now() + SimDuration::from_millis(1);
        adv.setup_until(d.sim(), next);
    }
    let operational = Instant::now();
    let warm_end = d.sim_ref().now() + p.warmup;
    adv.setup_until(d.sim(), warm_end);
    let warm = Instant::now();
    let setup_wall = warm - wall0;
    adv.phase("setup", wall0, operational);
    adv.phase("warmup", operational, warm);

    let t0 = d.sim_ref().now();
    d.reset_measurements(0, t0);
    let leader_node = d.members()[0];
    let switch = d.switch();
    let issued0 = d.stats(0).issued;
    let link0 = d.sim_ref().link_stats(leader_node, PortId::FIRST);

    adv.begin_window(&[leader_node], switch);
    let wall1 = Instant::now();
    adv.run_until(d.sim(), t0 + p.window);
    let wall2 = Instant::now();
    adv.end_window();
    let window_wall = wall2 - wall1;
    adv.phase("window", wall1, wall2);

    let now = d.sim_ref().now();
    let accelerated = d.accelerated();
    let events_processed = d.sim_ref().events_processed();
    let link1 = d.sim_ref().link_stats(leader_node, PortId::FIRST);
    let mut counts = Counts {
        events: events_processed,
        leader_link: LinkStats {
            wire_bytes: link1.wire_bytes - link0.wire_bytes,
            frames: link1.frames - link0.frames,
        },
        leader_link_capacity_bytes: link.bandwidth.bytes_per_sec() * p.window.as_secs_f64(),
        ..Counts::default()
    };
    for i in 0..=p.replicas {
        counts.host(d.host_stats(i), i == 0);
    }
    counts.fabric(d.switch_stats(), d.program_stats());
    counts.leader(d.stats(0));

    let stats = d.stats_mut(0);
    let issued_end = stats.issued;
    let outcome = PointOutcome {
        decided: stats.throughput.ops(),
        ops_per_sec: stats.throughput.ops_per_sec(now),
        goodput_bytes_per_sec: stats.throughput.goodput_bytes_per_sec(now),
        mean_latency_us: stats.latency.mean().as_micros_f64(),
        p50_latency_us: stats.latency.percentile(50.0).as_micros_f64(),
        p99_latency_us: stats.latency.percentile(99.0).as_micros_f64(),
        accelerated,
        events_processed,
        threads_used: 1,
    };
    let samples = stats.latency.len() as u64;
    counts.decided_window = outcome.decided;
    let first_decide = stats
        .event_time(|e| matches!(e, MemberEvent::FirstDecision { .. }))
        .ok_or("leader recorded no first decision")?;

    // Everything issued by the end of the window must be decided once
    // the system has had DRAIN more time (the loop keeps issuing, so
    // compare against the count frozen at the window's end).
    let drain0 = Instant::now();
    d.sim().run_for(DRAIN);
    adv.phase("drain", drain0, Instant::now());
    let leader = d.stats(0);
    let failed = issued_end.saturating_sub(leader.decided);
    let in_flight = leader.issued.saturating_sub(leader.decided);
    // The library's log reader does not follow the writer around the
    // ring: once the log has wrapped, replicas stop applying. Until
    // then, applied must track decided to within what is in flight;
    // after, the lag is reported (`replication.apply_lag_entries`) and
    // not judged.
    let entry_bytes = (p.workload.value_size + LOG_ENTRY_OVERHEAD) as u64;
    let wrapped = leader.issued * entry_bytes > d.log_bytes(0).len() as u64;
    for i in 1..=p.replicas {
        let applied = d.stats(i).applied;
        let lag = leader.decided.saturating_sub(applied);
        let lead = applied.saturating_sub(leader.decided);
        if !wrapped && lag.max(lead) > in_flight + 32 {
            return Err(format!(
                "replica {i} applied {applied} but the leader decided {} with {in_flight} in flight",
                leader.decided
            ));
        }
        counts.apply_lag = counts.apply_lag.max(lag);
    }
    audit_logs(d.as_ref(), p, in_flight)?;

    Ok(PointRun {
        outcome,
        attempted: issued_end - issued0,
        failed,
        samples,
        first_decide,
        setup_wall,
        window_wall,
        counts,
    })
}

/// Replica logs must equal the leader's byte for byte, except where
/// writes still in flight have landed on some members and not others.
fn audit_logs(d: &dyn Cluster, p: &PointInputs, in_flight: u64) -> Result<(), String> {
    let slack = (in_flight + 32) * (p.workload.value_size + LOG_ENTRY_OVERHEAD) as u64;
    let leader = d.log_bytes(0);
    for i in 1..=p.replicas {
        let replica = d.log_bytes(i);
        if replica.len() != leader.len() {
            return Err(format!("replica {i} log size differs from the leader's"));
        }
        // Whole pages compare at memcmp speed; only pages that differ
        // are counted byte by byte.
        let differing: u64 = leader
            .chunks(4096)
            .zip(replica.chunks(4096))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x != y).count() as u64)
            .sum();
        if differing > slack {
            return Err(format!(
                "replica {i} log differs from the leader's in {differing} bytes (> {slack} in flight)"
            ));
        }
    }
    Ok(())
}

fn run_points(
    rungs: &[PointInputs],
    headline: usize,
    link: LinkSpec,
    slo: Slo,
    adv: &mut dyn Advance,
) -> Result<Repeat, String> {
    let mut runs = Vec::with_capacity(rungs.len());
    for p in rungs {
        runs.push(drive_point(p, link, adv)?);
    }
    let window_virtual = rungs
        .iter()
        .fold(SimDuration::ZERO, |acc, p| acc + p.window);
    let secs = window_virtual.as_secs_f64();
    let decided: u64 = runs.iter().map(|r| r.outcome.decided).sum();
    let bytes: f64 = rungs
        .iter()
        .zip(&runs)
        .map(|(p, r)| r.outcome.goodput_bytes_per_sec * p.window.as_secs_f64())
        .sum();
    let ladder: Vec<Rung> = rungs
        .iter()
        .zip(&runs)
        .map(|(p, r)| Rung {
            rate_per_sec: p.offered_per_sec.unwrap_or(r.outcome.ops_per_sec),
            p99_us: r.outcome.p99_latency_us,
            decided_share: if r.attempted == 0 {
                0.0
            } else {
                r.outcome.decided as f64 / r.attempted as f64
            },
        })
        .collect();
    let service_ms: Vec<f64> = runs
        .iter()
        .map(|r| r.first_decide.as_nanos() as f64 / 1e6)
        .collect();
    let mut counts = Counts::default();
    for r in &runs {
        counts.merge(&r.counts);
    }
    let head = &runs[headline];
    Ok(Repeat {
        virt: Virtual {
            decided,
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            latency_samples: head.samples,
            events_processed: runs.iter().map(|r| r.outcome.events_processed).sum(),
            decided_per_vsec: decided as f64 / secs,
            goodput_gbytes_per_vsec: bytes / secs / 1e9,
            p50_us: head.outcome.p50_latency_us,
            p99_us: head.outcome.p99_latency_us,
            max_rate_in_slo: max_rate_in_slo(&ladder, slo),
            time_to_service_p50_ms: median(&service_ms),
            time_to_service_max_ms: service_ms.iter().copied().fold(0.0, f64::max),
            accelerated: runs.iter().all(|r| r.outcome.accelerated),
        },
        setup_wall: runs.iter().map(|r| r.setup_wall).sum(),
        window_wall: runs.iter().map(|r| r.window_wall).sum(),
        counts,
        failovers: Vec::new(),
        shard: None,
    })
}

// ---------------------------------------------------------------------
// Leader kills (the library's `run_failover` sequence, on the seed's link)
// ---------------------------------------------------------------------

/// One kill's results before they are folded into a [`Repeat`].
struct KillRun {
    budget: FailoverBudget,
    /// Largest `decided` over the members at the end of the observation
    /// (what the library reports as `group_decided`).
    group_decided: u64,
    events_processed: u64,
    decided: u64,
    attempted: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    /// Kill → first millisecond in which ≥ 90 % of the offered rate is
    /// decided again.
    recovery: SimDuration,
    accelerated: bool,
    setup_wall: Duration,
    window_wall: Duration,
    counts: Counts,
}

/// The per-direction fault plan `run_failover` installs on one member's
/// switch link for a storm — rebuilt here field for field so that the
/// own driver and the library draw the same random numbers.
fn storm_plan(spec: &ChaosSpec, member: usize, storm_start: SimTime) -> FaultPlan {
    // The library scales duplication, reordering and corruption per
    // link; this benchmark's storms set all three to zero, which no
    // scale changes.
    debug_assert!(spec.duplicate == 0.0 && spec.reorder == 0.0 && spec.corrupt == 0.0);
    let mut plan = FaultPlan::new()
        .loss(spec.loss)
        .duplicate(0.0)
        .reorder(0.0, spec.reorder_window)
        .jitter(spec.jitter)
        .corrupt(0.0);
    if member == spec.partition_member {
        plan = plan.partition(
            storm_start + spec.partition_from,
            storm_start + spec.partition_until,
        );
    }
    plan
}

/// Every recorded sample of a latency recorder, ascending. Replaying
/// nearest-rank percentiles reads each sorted sample once: the
/// recorder's only way to hand its samples out.
fn samples_ns(latency: &mut crate::sut::LatencyRecorder) -> Vec<u64> {
    let n = latency.len();
    (0..n)
        .map(|i| {
            let p = ((i as f64 + 1.0) * 100.0 / n as f64).min(100.0);
            latency.percentile(p).as_nanos()
        })
        .collect()
}

fn drive_kill(
    k: &FailoverConfig,
    link: LinkSpec,
    adv: &mut dyn Advance,
) -> Result<KillRun, String> {
    adv.begin_setup();
    let wall0 = Instant::now();
    let handle = TraceHandle::new();
    let mut d = build_traced_p4ce(
        k.members,
        sanitized(WorkloadSpec::open_loop(k.rate_per_sec, 64, 0)),
        k.seed,
        link,
        &handle,
    );
    let deadline = d.sim.now() + SimDuration::from_millis(300);
    while d.sim.now() < deadline
        && !(d.leader().is_operational_leader() && d.leader().is_accelerated())
    {
        let next = d.sim.now() + SimDuration::from_millis(1);
        adv.setup_until(&mut d.sim, next);
    }
    if !d.leader().is_accelerated() {
        return Err("cluster never accelerated before the kill".into());
    }
    let wall1 = Instant::now();
    adv.phase("setup", wall0, wall1);

    let t0 = d.sim.now();
    let t_kill = t0 + k.kill_after;
    let t_end = t_kill + k.observe_for;
    for i in 0..k.members {
        d.member_mut(i).reset_measurements(t0);
    }
    let issued0 = d.member(0).stats.issued;
    let members = d.members.clone();
    // The old and the new leader are the "leader hosts" of this window.
    adv.begin_window(&members[..2], d.switch);

    adv.run_until(&mut d.sim, t_kill);
    let last_decide = handle
        .records()
        .iter()
        .filter(|r| r.t <= t_kill && matches!(r.event, TraceEvent::Decide { .. }))
        .map(|r| r.t)
        .max()
        .unwrap_or(t_kill);
    let old = &d.member(0).stats;
    // In flight at the kill: never acknowledged, a client would retry
    // them with the next leader — unanswered, not failed.
    let cut_off = old.issued - old.decided;
    let mut attempted = old.issued - issued0 - cut_off;
    d.kill_member(0);
    if let Some(spec) = &k.chaos {
        for (i, &m) in members.iter().enumerate() {
            let (sw, swp) = d.sim.peer_of(m, PortId::FIRST);
            d.sim
                .set_fault_plan(m, PortId::FIRST, storm_plan(spec, i, t_kill));
            d.sim.set_fault_plan(sw, swp, storm_plan(spec, i, t_kill));
        }
        adv.run_until(&mut d.sim, (t_kill + spec.storm).min(t_end));
        for &m in &members {
            let (sw, swp) = d.sim.peer_of(m, PortId::FIRST);
            d.sim.clear_fault_plan(m, PortId::FIRST);
            d.sim.clear_fault_plan(sw, swp);
        }
    }
    adv.run_until(&mut d.sim, t_end);
    let wall2 = Instant::now();
    adv.end_window();
    adv.phase("window", wall1, wall2);

    let events_processed = d.sim.events_processed();
    let accelerated = d.member(1).is_accelerated();
    let group_decided = (0..k.members)
        .map(|i| d.member(i).stats.decided)
        .max()
        .unwrap_or(0);
    let mut counts = Counts {
        events: events_processed,
        ..Counts::default()
    };
    for (i, &m) in members.iter().enumerate() {
        counts.host(d.sim.node_ref::<Host<P4ceMember>>(m).stats(), i < 2);
    }
    counts.fabric(
        d.sim.node_ref::<Switch<P4ceProgram>>(d.switch).stats(),
        Some(d.switch_program().stats),
    );
    counts.leader(&d.member(0).stats);
    counts.leader(&d.member(1).stats);

    let mut latencies_ns = samples_ns(&mut d.member_mut(0).stats.latency);
    latencies_ns.extend(samples_ns(&mut d.member_mut(1).stats.latency));
    let decided = d.member(0).stats.throughput.ops() + d.member(1).stats.throughput.ops();
    counts.decided_window = decided;
    let issued_end = d.member(1).stats.issued;
    attempted += issued_end;

    let drain0 = Instant::now();
    d.sim.run_for(DRAIN);
    adv.phase("drain", drain0, Instant::now());
    let successor = &d.member(1).stats;
    let failed = issued_end.saturating_sub(successor.decided);
    if successor
        .event_time_after(t_kill, |e| matches!(e, MemberEvent::FirstDecision { .. }))
        .is_none()
    {
        return Err("the successor decided nothing within the observation".into());
    }
    let budget = FailoverBudget::from_events(t_kill, last_decide, successor);
    if !budget.reconciles() {
        return Err(format!(
            "failover budget does not telescope (seed {})",
            k.seed
        ));
    }

    // Decided throughput is "back" in the first millisecond that holds
    // 90 % of what the schedule offers in one.
    let mut decides: Vec<SimTime> = handle
        .records()
        .iter()
        .filter(|r| r.t > t_kill && matches!(r.event, TraceEvent::Decide { .. }))
        .map(|r| r.t)
        .collect();
    decides.sort_unstable();
    let ms = SimDuration::from_millis(1);
    let needed = (0.9 * k.rate_per_sec * ms.as_secs_f64()).ceil() as usize;
    let recovery = decides
        .iter()
        .enumerate()
        .find(|&(i, &t)| decides.partition_point(|&u| u < t + ms) - i >= needed)
        .map(|(_, &t)| t.saturating_duration_since(t_kill))
        .ok_or("decided throughput never recovered to 90 % of the offered rate")?;

    Ok(KillRun {
        budget,
        group_decided,
        events_processed,
        decided,
        attempted,
        failed,
        latencies_ns,
        recovery,
        accelerated,
        setup_wall: wall1 - wall0,
        window_wall: wall2 - wall1,
        counts,
    })
}

fn run_kills(
    kills: &[FailoverConfig],
    link: LinkSpec,
    slo: Slo,
    adv: &mut dyn Advance,
) -> Result<Repeat, String> {
    let mut runs = Vec::with_capacity(kills.len());
    for k in kills {
        runs.push(drive_kill(k, link, adv)?);
    }
    let mut latencies: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    if latencies.is_empty() {
        return Err("no decision observed around any kill".into());
    }
    latencies.sort_unstable();
    let decided: u64 = runs.iter().map(|r| r.decided).sum();
    let outage_ms: Vec<f64> = runs
        .iter()
        .map(|r| r.budget.unavailability().as_nanos() as f64 / 1e6)
        .collect();
    let p99_us = percentile_sorted(&latencies, 99.0) as f64 / 1e3;
    // One stormy kill in twenty-odd loses a connection request and waits
    // out a 60 ms retry. The median kill keeps the end-to-end rate a
    // statement about fail-over as designed; the layer table's
    // `failover.unavailability_max_ms` shows the retries.
    let per_kill_rate: Vec<f64> = kills
        .iter()
        .zip(&runs)
        .map(|(k, r)| r.decided as f64 / (k.kill_after + k.observe_for).as_secs_f64())
        .collect();
    let rate = median(&per_kill_rate);
    let mut counts = Counts::default();
    for r in &runs {
        counts.merge(&r.counts);
    }
    Ok(Repeat {
        virt: Virtual {
            decided,
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            latency_samples: latencies.len() as u64,
            events_processed: runs.iter().map(|r| r.events_processed).sum(),
            decided_per_vsec: rate,
            goodput_gbytes_per_vsec: rate * 64.0 / 1e9,
            p50_us: percentile_sorted(&latencies, 50.0) as f64 / 1e3,
            p99_us,
            max_rate_in_slo: max_rate_in_slo(
                &[Rung {
                    rate_per_sec: rate,
                    p99_us,
                    decided_share: 1.0,
                }],
                slo,
            ),
            time_to_service_p50_ms: median(&outage_ms),
            time_to_service_max_ms: outage_ms.iter().copied().fold(0.0, f64::max),
            accelerated: runs.iter().all(|r| r.accelerated),
        },
        setup_wall: runs.iter().map(|r| r.setup_wall).sum(),
        window_wall: runs.iter().map(|r| r.window_wall).sum(),
        counts,
        failovers: runs
            .iter()
            .map(|r| KillFacts {
                phases_ms: std::array::from_fn(|i| {
                    r.budget.phases[i].duration().as_nanos() as f64 / 1e6
                }),
                recovery_ms: r.recovery.as_nanos() as f64 / 1e6,
            })
            .collect(),
        shard: None,
    })
}

// ---------------------------------------------------------------------
// Sharded KV (the library's driving sequence, with the benchmark's link)
// ---------------------------------------------------------------------

struct ShardClient {
    ring: HashRing,
    zipf: crate::sut::ZipfSampler,
    counter: u64,
}

impl ShardClient {
    /// The open-loop client population of `run_sharded_point`: every
    /// tick, `burst` Zipf-sampled keys go to their groups' leaders.
    fn drive(
        &mut self,
        d: &mut ShardedDeployment,
        cfg: &ShardedPointConfig,
        until: SimTime,
        adv: &mut dyn Advance,
    ) -> (u64, u64) {
        let (mut offered, mut accepted) = (0, 0);
        while d.sim.now() < until {
            for _ in 0..cfg.burst {
                let key = self.zipf.next_key();
                let g = usize::from(self.ring.group_of(key));
                self.counter += 1;
                let payload = ShardKvCommand {
                    key,
                    group: g as u16,
                    counter: self.counter,
                }
                .encode(cfg.value_size);
                offered += 1;
                if d.with_member(g, 0, |m, ops| {
                    m.is_operational_leader() && m.propose_value(payload, ops)
                }) {
                    accepted += 1;
                }
            }
            let next = d.sim.now() + cfg.propose_every;
            adv.run_until(&mut d.sim, next);
        }
        (offered, accepted)
    }
}

fn build_sharded_on(cfg: &ShardedPointConfig, link: LinkSpec) -> ShardedDeployment {
    let mut b = ShardedClusterBuilder::new(cfg.groups, cfg.members_per_group)
        .seed(cfg.seed)
        .link(link);
    if let Some(k) = cfg.parser_slices {
        b = b.parser_slices(k);
    }
    if let Some(c) = cfg.parser_cost {
        b = b.parser_cost(c);
    }
    let mut d = b.build();
    for g in 0..cfg.groups {
        for i in 0..cfg.members_per_group {
            d.member_mut(g, i)
                .set_state_machine(Box::new(ShardKvStore::new(g as u16)));
        }
    }
    d
}

/// One repeat of the sharded workload, and the library-shaped outcome
/// of the same run for the identity check.
fn drive_sharded(
    cfg: &ShardedPointConfig,
    link: LinkSpec,
    slo: Slo,
    adv: &mut dyn Advance,
) -> Result<(Repeat, ShardedOutcome), String> {
    adv.begin_setup();
    let wall0 = Instant::now();
    let mut client = ShardClient {
        ring: HashRing::new(cfg.groups as u16, 64),
        zipf: crate::sut::ZipfSampler::new(cfg.keys, cfg.zipf_theta, cfg.seed),
        counter: 0,
    };
    let mut d = build_sharded_on(cfg, link);
    // The library's `await_leaders`, advancing through `adv`.
    let deadline = SimTime::ZERO + SimDuration::from_millis(500);
    while !(0..cfg.groups).all(|g| d.leader(g).is_operational_leader()) {
        if d.sim.now() >= deadline {
            return Err("a shard leader never became operational".into());
        }
        let next = d.sim.now() + SimDuration::from_millis(1);
        adv.setup_until(&mut d.sim, next);
    }
    let warm_end = d.sim.now() + cfg.warmup;
    let operational = Instant::now();
    client.drive(&mut d, cfg, warm_end, &mut Warmup(adv));
    let warm = Instant::now();
    let setup_wall = warm - wall0;
    adv.phase("setup", wall0, operational);
    adv.phase("warmup", operational, warm);

    let t0 = d.sim.now();
    let leaders: Vec<NodeId> = (0..cfg.groups).map(|g| d.members[g][0]).collect();
    let mut link0 = LinkStats::default();
    for (g, &node) in leaders.iter().enumerate() {
        d.member_mut(g, 0).reset_measurements(t0);
        let l = d.sim.link_stats(node, PortId::FIRST);
        link0.wire_bytes += l.wire_bytes;
        link0.frames += l.frames;
    }

    adv.begin_window(&leaders, d.switch);
    let wall1 = Instant::now();
    let (offered, accepted) = client.drive(&mut d, cfg, t0 + cfg.window, adv);
    let wall2 = Instant::now();
    adv.end_window();
    let window_wall = wall2 - wall1;
    adv.phase("window", wall1, wall2);
    let now = d.sim.now();

    let mut counts = Counts {
        leader_link_capacity_bytes: link.bandwidth.bytes_per_sec()
            * cfg.window.as_secs_f64()
            * cfg.groups as f64,
        ..Counts::default()
    };
    for (g, &node) in leaders.iter().enumerate() {
        let l = d.sim.link_stats(node, PortId::FIRST);
        counts.leader_link.wire_bytes += l.wire_bytes;
        counts.leader_link.frames += l.frames;
        for i in 0..cfg.members_per_group {
            let host = d.sim.node_ref::<Host<P4ceMember>>(d.members[g][i]);
            counts.host(host.stats(), i == 0);
        }
        counts.leader(&d.member(g, 0).stats);
    }
    counts.leader_link.wire_bytes -= link0.wire_bytes;
    counts.leader_link.frames -= link0.frames;
    counts.fabric(
        d.sim.node_ref::<Switch<P4ceProgram>>(d.switch).stats(),
        Some(d.switch_program().stats),
    );

    // Drain so every replica's store settles, as the library does.
    let drain0 = Instant::now();
    d.sim.run_for(DRAIN);
    adv.phase("drain", drain0, Instant::now());
    let events_processed = d.sim.events_processed();
    counts.events = events_processed;

    let mut per_group = Vec::with_capacity(cfg.groups);
    let mut all_ns: Vec<u64> = Vec::new();
    let mut first_decides = Vec::with_capacity(cfg.groups);
    let mut failed = 0u64;
    for g in 0..cfg.groups {
        let hashes: Vec<u64> = (1..cfg.members_per_group)
            .map(|i| store_of(&d, g, i).log_hash)
            .collect();
        if hashes.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("group {g}: replica logs diverge after the drain"));
        }
        let foreign: u64 = (0..cfg.members_per_group)
            .map(|i| store_of(&d, g, i).foreign)
            .sum();
        let accelerated = d.leader(g).is_accelerated();
        let applied = store_of(&d, g, 1).applied;
        let stats = &mut d.member_mut(g, 0).stats;
        failed += stats.issued.saturating_sub(stats.decided);
        counts.apply_lag = counts.apply_lag.max(stats.decided.saturating_sub(applied));
        first_decides.push(
            stats
                .event_time(|e| matches!(e, MemberEvent::FirstDecision { .. }))
                .ok_or("a shard leader recorded no first decision")?
                .as_nanos() as f64
                / 1e6,
        );
        all_ns.extend(samples_ns(&mut stats.latency));
        per_group.push(crate::sut::ShardGroupOutcome {
            decided: stats.throughput.ops(),
            ops_per_sec: stats.throughput.ops_per_sec(now),
            goodput_bytes_per_sec: stats.throughput.goodput_bytes_per_sec(now),
            p99_latency_us: stats.latency.percentile(99.0).as_micros_f64(),
            accelerated,
            log_hash: hashes[0],
            foreign,
        });
    }
    all_ns.sort_unstable();
    let outcome = ShardedOutcome {
        aggregate_ops_per_sec: per_group.iter().map(|g| g.ops_per_sec).sum(),
        aggregate_goodput_bytes_per_sec: per_group.iter().map(|g| g.goodput_bytes_per_sec).sum(),
        p99_latency_us: per_group
            .iter()
            .map(|g| g.p99_latency_us)
            .fold(0.0, f64::max),
        proposed: accepted,
        events_processed,
        threads_used: 1,
        per_group,
    };
    let decided: u64 = outcome.per_group.iter().map(|g| g.decided).sum();
    counts.decided_window = decided;
    let p99_us = outcome.p99_latency_us;
    let shard = ShardFacts {
        group_p99_us: outcome.per_group.iter().map(|g| g.p99_latency_us).collect(),
        group_decided: outcome.per_group.iter().map(|g| g.decided).collect(),
        accelerated_groups: outcome.per_group.iter().filter(|g| g.accelerated).count() as u64,
        foreign_entries: outcome.per_group.iter().map(|g| g.foreign).sum(),
    };
    let offered_rate = offered as f64 / cfg.window.as_secs_f64();
    let repeat = Repeat {
        virt: Virtual {
            decided,
            attempted: offered,
            // Refused by a leader, or accepted and not decided by the
            // end of the drain.
            failed: (offered - accepted) + failed,
            latency_samples: all_ns.len() as u64,
            events_processed,
            decided_per_vsec: outcome.aggregate_ops_per_sec,
            goodput_gbytes_per_vsec: outcome.aggregate_goodput_bytes_per_sec / 1e9,
            p50_us: percentile_sorted(&all_ns, 50.0) as f64 / 1e3,
            p99_us,
            max_rate_in_slo: max_rate_in_slo(
                &[Rung {
                    rate_per_sec: offered_rate,
                    p99_us,
                    decided_share: decided as f64 / offered as f64,
                }],
                slo,
            ),
            time_to_service_p50_ms: median(&first_decides),
            time_to_service_max_ms: first_decides.iter().copied().fold(0.0, f64::max),
            accelerated: shard.accelerated_groups == cfg.groups as u64,
        },
        setup_wall,
        window_wall,
        counts,
        failovers: Vec::new(),
        shard: Some(shard),
    };
    Ok((repeat, outcome))
}

// ---------------------------------------------------------------------
// Own driver == library runner
// ---------------------------------------------------------------------

/// Proves the own drivers faithful, advanced the way `adv` advances
/// them: on the library's default link (the only one its runners can
/// build) they must reproduce `run_point` / `run_sharded_point` bit for
/// bit, `events_processed` included. The same goes for the kill driver
/// against `run_failover`: same budget, same decided total, same number
/// of simulator events.
pub fn verify_against_library(inputs: &Inputs, adv: &mut dyn Advance) -> Result<(), String> {
    match &inputs.work {
        Work::Points { rungs, .. } => {
            for p in rungs {
                let own = drive_point(p, LinkSpec::default(), adv)?.outcome;
                let mut cfg = PointConfig::new(p.system, p.replicas, p.workload);
                cfg.warmup = p.warmup;
                cfg.window = p.window;
                cfg.seed = p.seed;
                let lib = run_point(&cfg);
                if own != lib {
                    return Err(format!(
                        "own point driver diverged from run_point:\n own {own:?}\n lib {lib:?}"
                    ));
                }
            }
            Ok(())
        }
        Work::Kills(kills) => {
            for k in kills {
                let own = drive_kill(k, LinkSpec::default(), adv)?;
                let lib = run_failover(k);
                if own.budget != lib.budget
                    || vec![own.group_decided] != lib.group_decided
                    || own.events_processed != lib.events_processed
                {
                    return Err(format!(
                        "own kill driver diverged from run_failover (seed {}):\n own {:?} decided {} events {}\n lib {:?} decided {:?} events {}",
                        k.seed,
                        own.budget,
                        own.group_decided,
                        own.events_processed,
                        lib.budget,
                        lib.group_decided,
                        lib.events_processed
                    ));
                }
            }
            Ok(())
        }
        Work::Sharded(cfg) => {
            let (_, own) = drive_sharded(cfg, LinkSpec::default(), inputs.slo, adv)?;
            let lib = run_sharded_point(cfg);
            if own != lib {
                return Err(format!(
                    "own sharded driver diverged from run_sharded_point:\n own {own:?}\n lib {lib:?}"
                ));
            }
            Ok(())
        }
    }
}

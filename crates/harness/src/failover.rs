//! First-class leader-kill scenarios with per-phase failover
//! attribution.
//!
//! Table IV (see [`crate::experiments::table4_failover`]) reports two
//! coarse numbers per scenario; this module answers the production
//! question behind ROADMAP item 4 — *where does every millisecond of a
//! failover go?* A [`run_failover`] run kills the steady-state leader
//! mid-workload, samples a decided-throughput timeline on a fixed
//! cadence ([`netsim::timeseries::SampledRegistry`]), and telescopes
//! the unavailability window (last decide under the old leader → first
//! decide under the new one) into a [`FailoverBudget`] of five
//! contiguous phases:
//!
//! 1. **detection** — last decide → the successor's `ViewChange`
//!    (failure detector fires),
//! 2. **election** — → `BecameLeader` (the successor wins the view),
//! 3. **log fence** — → `LeaderOperational`. P4CE fences the log
//!    locally inside `become_leader` (permission revocation is a local
//!    register write, not a round trip), so this phase is zero-width
//!    for P4CE — the budget records that honestly rather than hiding
//!    the phase,
//! 4. **switch re-acceleration** — → `GroupEstablished` (the switch
//!    reconfigures for the new leader; P4CE's dominant cost),
//! 5. **first decide** — → the successor's `FirstDecision`.
//!
//! Every boundary is clamped monotone into the window, so **the phase
//! durations sum exactly to the unavailability window** — asserted by
//! [`FailoverBudget::reconciles`] and the harness tests. Missing events
//! collapse their phase to zero width instead of breaking the sum.
//!
//! Sampling is an observer: a run with `sample: false` executes the
//! bit-identical event sequence (same decided totals, same
//! `events_processed`) — the sampler only interleaves `run_until` calls
//! at tick instants, which cannot reorder the (time, seq) event order.

use netsim::timeseries::SampledRegistry;
use netsim::{NodeId, SimDuration, SimTime, Simulation, TraceEvent, TraceHandle, TraceRecord};
use p4ce::SwitchComm;
use replication::WorkloadSpec;

use crate::chaos::{clear_storm, install_storm, ChaosSpec};
use crate::groups::{await_steady, decided, leader_steady, member};

/// The five attribution phases, in order.
pub const FAILOVER_PHASES: [&str; 5] = [
    "detection",
    "election",
    "log fence",
    "switch re-acceleration",
    "first decide",
];

/// Configuration for a leader-kill run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverConfig {
    /// Members per consensus group.
    pub members: usize,
    /// Deterministic simulation seed.
    pub seed: u64,
    /// How long after steady state (leader operational + accelerated)
    /// to kill the leader.
    pub kill_after: SimDuration,
    /// How long to keep observing after the kill.
    pub observe_for: SimDuration,
    /// Sampling cadence for the timeline.
    pub cadence: SimDuration,
    /// When `false`, no timeline is sampled — the run is otherwise
    /// identical (used by the overhead measurement and the
    /// non-perturbation test).
    pub sample: bool,
    /// Open-loop proposal rate driven by each group's leader.
    pub rate_per_sec: f64,
    /// Optional fault storm installed on the victim group's links at
    /// kill time (cleared after the spec's `storm` duration).
    pub chaos: Option<ChaosSpec>,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            members: 3,
            seed: 42,
            kill_after: SimDuration::from_millis(20),
            observe_for: SimDuration::from_millis(120),
            cadence: SimDuration::from_micros(100),
            sample: true,
            rate_per_sec: 50_000.0,
            chaos: None,
        }
    }
}

impl FailoverConfig {
    fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            total_requests: 0,
            warmup_requests: 0,
            ..WorkloadSpec::open_loop(self.rate_per_sec, 64, 0)
        }
    }
}

/// One contiguous phase of the failover budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverPhase {
    /// Phase name (one of [`FAILOVER_PHASES`]).
    pub name: &'static str,
    /// Phase start instant.
    pub start: SimTime,
    /// Phase end instant (the next phase's start).
    pub end: SimTime,
}

impl FailoverPhase {
    /// The phase's width.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The telescoped per-phase budget of one leader kill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverBudget {
    /// When the old leader was killed.
    pub t_kill: SimTime,
    /// Last decide anywhere in the victim group at or before the kill.
    pub last_decide: SimTime,
    /// The successor's first decision.
    pub first_decide: SimTime,
    /// The five contiguous phases spanning exactly
    /// `last_decide..first_decide`.
    pub phases: Vec<FailoverPhase>,
}

impl FailoverBudget {
    /// The unavailability window: last decide under the old leader to
    /// first decide under the new one.
    pub fn unavailability(&self) -> SimDuration {
        self.first_decide
            .saturating_duration_since(self.last_decide)
    }

    /// Sum of the phase durations.
    pub fn phase_sum(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration())
    }

    /// `true` when the phases are contiguous and sum exactly to the
    /// unavailability window — the budget's defining invariant.
    pub fn reconciles(&self) -> bool {
        let contiguous = self.phases.windows(2).all(|w| w[0].end == w[1].start)
            && self
                .phases
                .first()
                .is_some_and(|p| p.start == self.last_decide)
            && self
                .phases
                .last()
                .is_some_and(|p| p.end == self.first_decide);
        contiguous && self.phase_sum() == self.unavailability()
    }

    /// Builds the budget from the successor's member-event stream.
    ///
    /// Each boundary event is looked up after `t_kill`; a missing event
    /// inherits the previous boundary (zero-width phase) and every
    /// boundary is clamped into `[prev, first_decide]`, which is what
    /// makes the telescoped sum exact by construction.
    ///
    /// `None` when the successor never reached `FirstDecision` after the
    /// kill: no service inside the observation window, so there is no
    /// window to attribute — an outcome a sweep reports, not an error.
    pub fn try_from_events(
        t_kill: SimTime,
        last_decide: SimTime,
        stats: &mu::MemberStats,
    ) -> Option<Self> {
        let first_decide = stats.event_time_after(t_kill, |e| {
            matches!(e, mu::MemberEvent::FirstDecision { .. })
        })?;
        let raw = [
            stats.event_time_after(t_kill, |e| matches!(e, mu::MemberEvent::ViewChange { .. })),
            stats.event_time_after(t_kill, |e| {
                matches!(e, mu::MemberEvent::BecameLeader { .. })
            }),
            stats.event_time_after(t_kill, |e| {
                matches!(e, mu::MemberEvent::LeaderOperational { .. })
            }),
            stats.event_time_after(t_kill, |e| matches!(e, mu::MemberEvent::GroupEstablished)),
            Some(first_decide),
        ];
        let mut phases = Vec::with_capacity(FAILOVER_PHASES.len());
        let mut prev = last_decide;
        for (name, b) in FAILOVER_PHASES.iter().zip(raw) {
            let end = b.unwrap_or(prev).clamp(prev, first_decide);
            phases.push(FailoverPhase {
                name,
                start: prev,
                end,
            });
            prev = end;
        }
        let budget = FailoverBudget {
            t_kill,
            last_decide,
            first_decide,
            phases,
        };
        debug_assert!(budget.reconciles());
        Some(budget)
    }

    /// [`FailoverBudget::try_from_events`] for a kill that must have been
    /// served: the panicking wrapper the frozen benchmark imports.
    ///
    /// # Panics
    ///
    /// Panics if the successor never reached `FirstDecision` after the
    /// kill.
    pub fn from_events(t_kill: SimTime, last_decide: SimTime, stats: &mu::MemberStats) -> Self {
        Self::try_from_events(t_kill, last_decide, stats).expect(UNSERVED)
    }
}

/// What the panicking wrappers expected of a kill that was not served.
const UNSERVED: &str = "successor decided within the observation window";

/// Decided-throughput dip derived from the sampled timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputDip {
    /// Mean decided rate before the kill, ops/s.
    pub steady_ops_per_sec: f64,
    /// Minimum decided rate after the kill, ops/s.
    pub min_ops_per_sec: f64,
    /// Dip depth, percent of steady rate.
    pub dip_depth_pct: f64,
    /// Time from the kill until the rate first recovers to ≥ 90% of
    /// steady; `None` if it never did within the observation window.
    pub recovery: Option<SimDuration>,
}

fn dip_from(timeline: &SampledRegistry, series: &str, t_kill: SimTime) -> Option<ThroughputDip> {
    let rates = timeline.series(series)?.rates();
    let steady: Vec<f64> = rates
        .iter()
        .filter(|(t, _)| *t <= t_kill)
        .map(|&(_, r)| r)
        .collect();
    if steady.is_empty() {
        return None;
    }
    let steady_rate = steady.iter().sum::<f64>() / steady.len() as f64;
    let after: Vec<(SimTime, f64)> = rates.iter().filter(|(t, _)| *t > t_kill).copied().collect();
    let min = after.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
    let min = if min.is_finite() { min } else { steady_rate };
    let recovery = after
        .iter()
        .find(|&&(_, r)| r >= 0.9 * steady_rate)
        .map(|&(t, _)| t.saturating_duration_since(t_kill));
    let depth = if steady_rate > 0.0 {
        100.0 * (steady_rate - min.min(steady_rate)) / steady_rate
    } else {
        0.0
    };
    Some(ThroughputDip {
        steady_ops_per_sec: steady_rate,
        min_ops_per_sec: min,
        dip_depth_pct: depth,
        recovery,
    })
}

/// Everything one leader-kill run produced.
#[derive(Debug)]
pub struct FailoverOutcome {
    /// The telescoped per-phase budget.
    pub budget: FailoverBudget,
    /// Throughput dip, when sampling was on.
    pub dip: Option<ThroughputDip>,
    /// The sampled timeline (empty when sampling was off) with the
    /// annotation stream (kill marker + trace-derived events).
    pub timeline: SampledRegistry,
    /// The full trace record stream, for Perfetto export.
    pub records: Vec<TraceRecord>,
    /// Final decided count per group (one entry for single-group runs).
    pub group_decided: Vec<u64>,
    /// Simulation events processed — part of the bit-identical
    /// contract between sampled and unsampled runs.
    pub events_processed: u64,
}

impl FailoverOutcome {
    /// A deterministic digest of the run: the timeline CSV, the budget
    /// and the outcome totals. Two runs with the same seed must produce
    /// byte-identical fingerprints.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}\nbudget={:?}\ndecided={:?} events={}\n",
            self.timeline.to_csv(),
            self.budget,
            self.group_decided,
            self.events_processed
        )
    }
}

fn last_decide_before(records: &[TraceRecord], prefix: &str, cutoff: SimTime) -> SimTime {
    records
        .iter()
        .filter(|r| {
            r.t <= cutoff
                && r.node.starts_with(prefix)
                && matches!(r.event, TraceEvent::Decide { .. })
        })
        .map(|r| r.t)
        .max()
        .unwrap_or(cutoff)
}

/// The leader-kill body, on P4CE groups behind one switch: wait for every
/// group to accelerate, run to `cfg.kill_after`, kill group 0's leader,
/// optionally storm that group's links for the spec's `storm` duration,
/// keep observing for `cfg.observe_for` with `sample` recording every
/// cadence tick, then attribute the outage — `None` if nobody served
/// before the observation ended. What the two deployments call things is
/// all that differs: the victim group's trace records carry node labels
/// starting with `prefix`, and the dip is read off `dip_series`.
fn kill_and_attribute(
    cfg: &FailoverConfig,
    handle: &TraceHandle,
    mut sim: Simulation,
    groups: &[Vec<NodeId>],
    prefix: &str,
    dip_series: &str,
    sample: impl Fn(&Simulation, &mut SampledRegistry, SimTime),
) -> Option<FailoverOutcome> {
    let accelerated =
        |sim: &Simulation| (groups.iter()).all(|g| leader_steady::<SwitchComm>(sim, g, true));
    await_steady(
        &mut sim,
        accelerated,
        SimDuration::from_millis(300),
        SimDuration::from_millis(1),
    );
    let victim = &groups[0];

    let t0 = sim.now();
    let t_kill = t0 + cfg.kill_after;
    let t_end = t_kill + cfg.observe_for;
    let mut ts = SampledRegistry::new(cfg.cadence);
    ts.align(t0);

    let mut killed = false;
    let mut records_at_kill = Vec::new();
    let storm_end = cfg.chaos.map(|spec| t_kill + spec.storm);
    let mut storm_live = false;
    loop {
        let mut t = t_end;
        if cfg.sample {
            t = t.min(ts.next_tick());
        }
        if !killed {
            t = t.min(t_kill);
        }
        if let Some(se) = storm_end {
            if storm_live {
                t = t.min(se);
            }
        }
        sim.run_until(t);
        if !killed && t >= t_kill {
            records_at_kill = handle.records();
            sim.set_node_down(victim[0], true);
            if let Some(spec) = &cfg.chaos {
                install_storm(&mut sim, victim, spec, t_kill);
                storm_live = true;
                ts.annotate(t_kill, "harness", "fault-storm start");
            }
            ts.annotate(t_kill, "harness", format!("leader-kill {prefix}m0"));
            killed = true;
        }
        if let Some(se) = storm_end {
            if storm_live && t >= se {
                clear_storm(&mut sim, victim);
                storm_live = false;
                ts.annotate(se, "harness", "fault-storm end");
            }
        }
        if cfg.sample && t == ts.next_tick() {
            sample(&sim, &mut ts, t);
            ts.advance_tick();
        }
        if t >= t_end {
            break;
        }
    }

    let last_decide = last_decide_before(&records_at_kill, prefix, t_kill);
    let successor = &member::<SwitchComm>(&sim, victim[1]).stats;
    let budget = FailoverBudget::try_from_events(t_kill, last_decide, successor)?;
    let dip = dip_from(&ts, dip_series, t_kill);
    let records = handle.records();
    ts.extend_annotations_from(&records);
    ts.sort_annotations();
    Some(FailoverOutcome {
        budget,
        dip,
        timeline: ts,
        records,
        group_decided: groups
            .iter()
            .map(|g| decided::<SwitchComm>(&sim, g))
            .collect(),
        events_processed: sim.events_processed(),
    })
}

/// Kills the steady-state leader of a 3-to-N-member P4CE group and
/// attributes the outage; `None` when no member decided again inside
/// `cfg.observe_for` (no service in window). `groups: None` is the single
/// group; `Some(g)` puts `g` consensus groups behind one switch, kills
/// group 0's leader and samples the co-resident groups on the same
/// timeline — the test bed for "does one group's failover perturb its
/// neighbors?".
///
/// # Panics
///
/// Panics if the cluster never accelerates — a deployment bug, not a
/// measurable outcome.
pub fn try_failover(cfg: &FailoverConfig, groups: Option<usize>) -> Option<FailoverOutcome> {
    let handle = TraceHandle::new();
    let workload = cfg.workload();
    let tracer = handle.tracer("harness");
    match groups {
        None => {
            let p4ce::Deployment { sim, members, .. } = p4ce::ClusterBuilder::new(cfg.members)
                .workload(workload)
                .seed(cfg.seed)
                .tracer(tracer)
                .build();
            let groups = [members];
            let total = "decided.total";
            kill_and_attribute(cfg, &handle, sim, &groups, "", total, |sim, ts, t| {
                let mut vmax = 0u64;
                for (i, &node) in groups[0].iter().enumerate() {
                    let m = member::<SwitchComm>(sim, node);
                    vmax = vmax.max(m.view());
                    ts.record_counter(&format!("m{i}.decided"), t, m.stats.decided);
                }
                ts.record_counter(total, t, decided::<SwitchComm>(sim, &groups[0]));
                ts.record_counter("view.max", t, vmax);
            })
        }
        Some(groups) => {
            let p4ce::ShardedDeployment { sim, members, .. } =
                p4ce::ShardedClusterBuilder::new(groups, cfg.members)
                    .workload(workload)
                    .seed(cfg.seed)
                    .tracer(tracer)
                    .build();
            let total = "g0.decided.total";
            kill_and_attribute(cfg, &handle, sim, &members, "g0", total, |sim, ts, t| {
                let mut grand = 0u64;
                for (g, group) in members.iter().enumerate() {
                    let dec = decided::<SwitchComm>(sim, group);
                    ts.record_counter(&format!("g{g}.decided.total"), t, dec);
                    grand += dec;
                }
                ts.record_counter("decided.total", t, grand);
            })
        }
    }
}

/// [`try_failover`] on a single group, for a kill that must be served:
/// the panicking wrapper the frozen benchmark imports.
///
/// # Panics
///
/// Panics if the cluster never accelerates, or the successor never
/// decides within the observation window — the panic is the test
/// failure, mirroring the chaos harness contract.
pub fn run_failover(cfg: &FailoverConfig) -> FailoverOutcome {
    try_failover(cfg, None).expect(UNSERVED)
}

/// [`try_failover`] against `groups` groups behind one switch, for a kill
/// that must be served.
///
/// # Panics
///
/// Same contract as [`run_failover`], for every group.
pub fn run_failover_sharded(cfg: &FailoverConfig, groups: usize) -> FailoverOutcome {
    try_failover(cfg, Some(groups)).expect(UNSERVED)
}

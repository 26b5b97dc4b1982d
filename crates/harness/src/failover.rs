//! First-class leader-kill scenarios with per-phase failover
//! attribution.
//!
//! Table IV (see [`crate::experiments::table4_failover`]) reports two
//! coarse numbers per scenario; this module answers the production
//! question behind ROADMAP item 4 — *where does every millisecond of a
//! failover go?* A [`run_failover`] run kills the steady-state leader
//! mid-workload, reads a decided-throughput timeline off its trace
//! ([`netsim::Timeline`]), and telescopes
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
//! The timeline is a view over the run's trace records, computed once the
//! run is over: every member's `Decide` records and the highest
//! `ViewChange`, counted on a 100 µs grid. Nothing samples the run while
//! it executes, so `sample: false` (no series, no dip) runs the very same
//! event sequence.

use std::collections::HashMap;

use netsim::{
    annotations_from_records, Annotation, NodeId, Records, SimDuration, SimTime, Simulation,
    Timeline, TraceEvent, TraceHandle,
};
use p4ce::{P4ceMember, SwitchComm};
use rdma::{Host, HostStats};
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
    /// When `false`, no timeline series are built from the trace (and no
    /// dip derived from them); the run itself is the same either way.
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

/// Decided-throughput dip derived from the timeline.
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

fn dip_from(timeline: &Timeline, series: &str, t_kill: SimTime) -> Option<ThroughputDip> {
    let rates = timeline.rates(series)?;
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
    /// Throughput dip, when the series were built.
    pub dip: Option<ThroughputDip>,
    /// The timeline read off the trace (no series when `sample` was off)
    /// with its markers (kill, storm, trace-derived events).
    pub timeline: Timeline,
    /// The whole trace, a [`Records`] snapshot walked for the Perfetto export.
    pub records: Records,
    /// Final decided count per group (one entry for single-group runs).
    pub group_decided: Vec<u64>,
    /// Simulation events processed — the same with and without the
    /// series.
    pub events_processed: u64,
    /// Each member's RDMA host counters at the end, `[group][member]`.
    pub hosts: Vec<Vec<HostStats>>,
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

/// The timeline grid: one point every 100 µs from steady state to the end
/// of the observation window.
const CADENCE: SimDuration = SimDuration::from_micros(100);

/// What the trace says about the members: the records the timeline and
/// the budget's last decide are read from.
struct MemberRecords {
    /// Member `i` of group `g`'s `Decide` instants, `[g][i]`, in clock
    /// order.
    decides: Vec<Vec<Vec<SimTime>>>,
    /// Every member's `ViewChange` instants and views, in clock order.
    views: Vec<(SimTime, u64)>,
}

impl MemberRecords {
    /// Files each member's `records` under it; member `i` of `groups[g]`
    /// traces as `label(g, i)`.
    fn read(
        records: &Records,
        groups: &[Vec<NodeId>],
        label: impl Fn(usize, usize) -> String,
    ) -> MemberRecords {
        let mut of_label = HashMap::new();
        for (g, group) in groups.iter().enumerate() {
            for i in 0..group.len() {
                of_label.insert(label(g, i), (g, i));
            }
        }
        let mut decides: Vec<Vec<Vec<SimTime>>> =
            (groups.iter()).map(|g| vec![Vec::new(); g.len()]).collect();
        let mut views = Vec::new();
        for rec in records {
            let Some(&(g, i)) = of_label.get(&*rec.node) else {
                continue;
            };
            match rec.event {
                TraceEvent::Decide { .. } => decides[g][i].push(rec.t),
                TraceEvent::ViewChange { view, .. } => views.push((rec.t, view)),
                _ => {}
            }
        }
        MemberRecords { decides, views }
    }

    /// Member `i` of group `g`'s decided count at `t`: its `Decide` records
    /// at or before `t`. That is its `stats.decided` then — the one
    /// increment emits the record at the same instant.
    fn decided(&self, g: usize, i: usize, t: SimTime) -> u64 {
        self.decides[g][i].partition_point(|&d| d <= t) as u64
    }

    /// Group `g`'s decided count at `t`: its furthest member's.
    fn group(&self, g: usize, t: SimTime) -> u64 {
        (0..self.decides[g].len())
            .map(|i| self.decided(g, i, t))
            .max()
            .unwrap_or(0)
    }

    /// The highest view any member had entered at `t` (0 before the first).
    fn view_max(&self, t: SimTime) -> u64 {
        (self.views.iter())
            .filter(|&&(at, _)| at <= t)
            .map(|&(_, view)| view)
            .max()
            .unwrap_or(0)
    }
}

/// The leader-kill body, on P4CE groups behind one switch: wait for every
/// group to accelerate, run to `cfg.kill_after`, kill group 0's leader,
/// optionally storm that group's links for the spec's `storm` duration,
/// run to the end of `cfg.observe_for`, then attribute the outage from the
/// trace — `None` if nobody served before the observation ended. What the
/// two deployments call things is all that differs: member `i` of group
/// `g` traces as `label(g, i)`, `series` names the values the timeline
/// shows at each grid point, and the dip is read off `dip_series`.
fn kill_and_attribute(
    cfg: &FailoverConfig,
    handle: &TraceHandle,
    mut sim: Simulation,
    groups: &[Vec<NodeId>],
    label: impl Fn(usize, usize) -> String,
    dip_series: &str,
    series: impl Fn(&MemberRecords, SimTime) -> Vec<(String, u64)>,
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
    let mut annotations = Vec::new();
    let mut mark = |t: SimTime, what: String| {
        annotations.push(Annotation {
            t,
            node: "harness".to_owned(),
            label: what,
        });
    };

    sim.run_until(t_kill);
    sim.set_node_down(victim[0], true);
    mark(t_kill, format!("leader-kill {}", label(0, 0)));
    if let Some(spec) = &cfg.chaos {
        install_storm(&mut sim, victim, spec, t_kill);
        mark(t_kill, "fault-storm start".to_owned());
        let storm_end = t_kill + spec.storm;
        if storm_end <= t_end {
            sim.run_until(storm_end);
            clear_storm(&mut sim, victim);
            mark(storm_end, "fault-storm end".to_owned());
        }
    }
    sim.run_until(t_end);

    let records = handle.records();
    // A view over a trace with holes would undercount without a word.
    assert_eq!(handle.dropped(), 0, "the timeline needs the whole trace");
    let seen = MemberRecords::read(&records, groups, &label);
    let last_decide = (seen.decides[0].iter().flatten())
        .copied()
        .filter(|&t| t <= t_kill)
        .max()
        .unwrap_or(t_kill);
    let successor = &member::<SwitchComm>(&sim, victim[1]).stats;
    let budget = FailoverBudget::try_from_events(t_kill, last_decide, successor)?;

    let mut timeline = Timeline::default();
    if cfg.sample {
        let mut t = t0;
        while t <= t_end {
            for (name, value) in series(&seen, t) {
                timeline.series.entry(name).or_default().push((t, value));
            }
            t += CADENCE;
        }
    }
    annotations.extend(annotations_from_records(&records));
    annotations.sort_by(|a, b| (a.t, &a.node, &a.label).cmp(&(b.t, &b.node, &b.label)));
    timeline.annotations = annotations;
    Some(FailoverOutcome {
        budget,
        dip: dip_from(&timeline, dip_series, t_kill),
        timeline,
        records,
        group_decided: groups
            .iter()
            .map(|g| decided::<SwitchComm>(&sim, g))
            .collect(),
        events_processed: sim.events_processed(),
        hosts: (groups.iter())
            .map(|g| {
                (g.iter()
                    .map(|&n| sim.node_ref::<Host<P4ceMember>>(n).stats()))
                .collect()
            })
            .collect(),
    })
}

/// Kills the steady-state leader of a 3-to-N-member P4CE group and
/// attributes the outage; `None` when no member decided again inside
/// `cfg.observe_for` (no service in window). `groups: None` is the single
/// group; `Some(g)` puts `g` consensus groups behind one switch, kills
/// group 0's leader and shows the co-resident groups on the same
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
            let label = |_: usize, i: usize| format!("m{i}");
            let total = "decided.total";
            kill_and_attribute(cfg, &handle, sim, &[members], label, total, |seen, t| {
                let mut out: Vec<_> = (0..cfg.members)
                    .map(|i| (format!("m{i}.decided"), seen.decided(0, i, t)))
                    .collect();
                out.push((total.to_owned(), seen.group(0, t)));
                out.push(("view.max".to_owned(), seen.view_max(t)));
                out
            })
        }
        Some(groups) => {
            let p4ce::ShardedDeployment { sim, members, .. } =
                p4ce::ShardedClusterBuilder::new(groups, cfg.members)
                    .workload(workload)
                    .seed(cfg.seed)
                    .tracer(tracer)
                    .build();
            let label = |g: usize, i: usize| format!("g{g}m{i}");
            let total = "g0.decided.total";
            kill_and_attribute(cfg, &handle, sim, &members, label, total, |seen, t| {
                let mut out: Vec<_> = (0..groups)
                    .map(|g| (format!("g{g}.decided.total"), seen.group(g, t)))
                    .collect();
                let grand = out.iter().map(|&(_, decided)| decided).sum();
                out.push(("decided.total".to_owned(), grand));
                out
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

//! Bounded model checking over the deterministic simulator.
//!
//! The netsim event queue is a total order except where several events
//! share a timestamp; there the real world gets to pick, and a consensus
//! bug hides in exactly those picks. This module turns each pick into an
//! explicit *decision*: a [`GuidedScheduler`] plugged into
//! [`netsim::Simulation::set_scheduler`] consumes a decision vector at
//! every branching point (≥ 2 co-enabled events), so a schedule is just
//! a `branch index → choice` map and any run can be replayed bit-for-bit
//! from one.
//!
//! On top of that sit three exploration strategies:
//!
//! - [`explore`] — exhaustive delay-bounded DFS (Emmi et al.): enumerate
//!   every decision vector whose total "delay" (sum of choices) stays
//!   within a bound. Small bounds cover the schedules real networks
//!   actually produce — a handful of reorderings around the FIFO run.
//! - [`random_walk`] — seeded random schedules, for depth the DFS bound
//!   cannot afford.
//! - [`replay`] — re-run one schedule from a [`Repro`] seed file.
//!
//! After *every* explored step the [`oracle`] suite audits a snapshot of
//! all members; the first violation aborts the schedule and (via
//! [`shrink`]) is reduced to a minimal reproducer. Exploration is
//! stateless in the CHESS tradition: each schedule re-executes the
//! deployment from scratch, so there is no snapshot/restore machinery to
//! trust — only the simulator's own determinism, which
//! `tests/determinism.rs` already pins down.
//!
//! A schedule runs on a simulation plus groups of member nodes:
//! [`run_schedule`] builds the deployment the spec names (one Mu or P4CE
//! cluster, or several P4CE groups behind one switch), takes it apart
//! and hands `(sim, groups)` to the one runner. What several groups add
//! — a 2-byte group tag on every explored proposal and the
//! group-isolation oracle over it — is keyed on `groups.len() > 1`.

pub mod oracle;
pub mod shrink;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use netsim::rng::splitmix64;
use netsim::{EventInfo, NodeId, Planted, Scheduler, SimDuration, Simulation, Tracer};
use p4ce::SwitchSetters;
use replication::{ClusterBuilder, Comm, Fabric};

use crate::chaos::ChaosRecorder;
use crate::faults::{Fault, FaultSchedule, Faults, MAX_WINDOW};
use crate::groups::{await_steady, install, member, propose_to_leader};
use crate::repro::{decode_decisions, encode_decisions, Header, Repro};
use crate::runner::System;

use oracle::{check_all, check_group, probe_members, OracleKind, Violation};

/// One model-checking scenario: which deployment to build, how to
/// perturb it, and how far to explore each schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// System under test.
    pub system: System,
    /// Cluster size (members *per group* when `groups > 1`).
    pub n_members: usize,
    /// Consensus groups sharing the switch. 1 = the classic single-group
    /// deployment; ≥ 2 builds a [`p4ce::ShardedDeployment`] and audits
    /// each group with the full oracle suite plus group isolation
    /// (explored proposals carry a 2-byte group tag).
    pub groups: u16,
    /// Deterministic simulation seed (setup phase and payload stream).
    pub seed: u64,
    /// P4CE only: whether the fabric runs the P4CE program. `false`
    /// forces leaders into direct-replication fallback, where write
    /// grants name member IPs and the single-writer oracle has teeth.
    pub p4ce_enabled: bool,
    /// The bug the run carries, planted on the simulation before its
    /// first event ([`MUTATIONS`] says where each one is caught).
    pub planted: Option<Planted>,
    /// Faults on group 0, `at` in explored steps: a partition or a storm
    /// starts at the step's instant.
    pub faults: FaultSchedule,
    /// Inject one client proposal every this many explored steps
    /// (0 = none) so the log-shape oracles have data to audit.
    pub propose_every: u32,
    /// Explored steps per schedule (the setup phase runs before this,
    /// un-explored, under plain FIFO).
    pub horizon: u32,
}

/// A planted bug, the scenario it is planted in, the deployments that
/// can host it and the oracle that must catch it.
#[derive(Debug, Clone, Copy)]
pub struct Mutation {
    /// The bug.
    pub bug: Planted,
    /// Its name in reproducers (`planted=NAME`).
    pub name: &'static str,
    /// The scenario it is planted in, for `n` members (per group).
    scenario: fn(usize) -> ExploreSpec,
    /// Whether a deployment has the code the bug lives in.
    pub hosts: fn(&ExploreSpec) -> bool,
    /// The oracle that must catch it.
    pub oracle: OracleKind,
}

/// Every planted bug. `p4ce-explore mutation-check` walks this table.
pub const MUTATIONS: [Mutation; 2] = [
    Mutation {
        bug: Planted::SkipEpochRevoke,
        name: "skip-epoch-revoke",
        // Plain fabric, the leader partitioned mid-exploration: the
        // election must trip the oracle on every schedule. Works with
        // `system: Mu` as well — the fence is the shared member's.
        scenario: |n| ExploreSpec {
            p4ce_enabled: false,
            faults: leader_cut_at(40),
            propose_every: 0,
            horizon: 20_000,
            ..ExploreSpec::p4ce(n)
        },
        hosts: |_| true,
        oracle: OracleKind::SingleWriter,
    },
    Mutation {
        bug: Planted::CrosswireGroups,
        name: "crosswire-groups",
        // Two accelerated groups: every group still agrees internally,
        // so only the group tag of the first misdirected entry a member
        // applies betrays the leak.
        scenario: |n| ExploreSpec {
            horizon: 2_000,
            ..ExploreSpec::sharded(2, n)
        },
        // The switch's per-group tables, running the P4CE program.
        hosts: |s| s.system == System::P4ce && s.p4ce_enabled && s.groups >= 2,
        oracle: OracleKind::GroupIsolation,
    },
];

impl Mutation {
    /// The table row of `bug`.
    fn of(bug: Planted) -> &'static Mutation {
        MUTATIONS
            .iter()
            .find(|m| m.bug == bug)
            .expect("every planted bug has a row in MUTATIONS")
    }
}

/// Group 0's leader cut off the fabric from explored step `step` for
/// [`MAX_WINDOW`], forcing an election under exploration
/// (`p4ce-explore --partition-at`). That is the rest of the schedule at
/// model-checking horizons: with the leader cut at step 40, 20,000 steps
/// take 56 ms of virtual time on P4CE's plain fabric (61 ms on Mu) and
/// CI's 80,000-step walk 63 ms, so the cut heals only past some 350,000
/// steps.
pub fn leader_cut_at(step: u32) -> FaultSchedule {
    let cut = Fault::Partition {
        member: 0,
        hold: MAX_WINDOW,
    };
    FaultSchedule::new(vec![(u64::from(step), cut)])
}

impl ExploreSpec {
    /// A healthy accelerated P4CE cluster under proposal load.
    pub fn p4ce(n_members: usize) -> ExploreSpec {
        ExploreSpec {
            system: System::P4ce,
            n_members,
            groups: 1,
            seed: 42,
            p4ce_enabled: true,
            planted: None,
            faults: FaultSchedule::default(),
            propose_every: 25,
            horizon: 400,
        }
    }

    /// A healthy sharded deployment: `groups` accelerated P4CE groups of
    /// `members_per_group` members behind one switch, tagged proposals
    /// flowing into every group.
    pub fn sharded(groups: u16, members_per_group: usize) -> ExploreSpec {
        ExploreSpec {
            groups,
            ..ExploreSpec::p4ce(members_per_group)
        }
    }

    /// `bug` planted in its scenario ([`MUTATIONS`]) on P4CE; set
    /// `system` to run it elsewhere.
    pub fn mutation(bug: Planted, n_members: usize) -> ExploreSpec {
        ExploreSpec {
            planted: Some(bug),
            ..(Mutation::of(bug).scenario)(n_members)
        }
    }

    /// Refuses a scenario that names an impossible deployment
    /// ([`System::check_shape`]), faults the run cannot take
    /// ([`FaultSchedule::check`]: a step at or past the horizon is past
    /// the run's end) or a bug the deployment cannot host.
    ///
    /// # Errors
    ///
    /// Says what cannot be built, faulted or planted.
    pub fn check(&self) -> Result<(), String> {
        self.system
            .check_shape(self.n_members, usize::from(self.groups))?;
        self.faults.check(self.n_members, u64::from(self.horizon))?;
        match self.planted.map(Mutation::of) {
            Some(m) if !(m.hosts)(self) => Err(format!("this deployment cannot host {}", m.name)),
            _ => Ok(()),
        }
    }

    /// Serializes the scenario plus a schedule into a reproducer: the
    /// shared [`Header`], then the explorer's keys.
    pub fn to_repro(&self, decisions: &BTreeMap<u32, u32>) -> Repro {
        let mut r = Header {
            system: self.system,
            members: self.n_members,
            groups: self.groups,
            seed: self.seed,
            p4ce_enabled: self.p4ce_enabled,
            faults: self.faults.clone(),
        }
        .to_repro("explore");
        r.set(
            "planted",
            self.planted.map_or("-", |bug| Mutation::of(bug).name),
        );
        r.set("propose_every", self.propose_every);
        r.set("horizon", self.horizon);
        r.set("decisions", encode_decisions(decisions));
        r
    }

    /// Parses a reproducer back into a scenario and schedule. It reads
    /// exactly the keys [`ExploreSpec::to_repro`] writes.
    ///
    /// # Errors
    ///
    /// Reports what [`Header::from_repro`] refuses, a malformed explorer
    /// key, an unknown planted bug, and a scenario
    /// [`ExploreSpec::check`] refuses.
    pub fn from_repro(r: &Repro) -> Result<(ExploreSpec, BTreeMap<u32, u32>), String> {
        let h = Header::from_repro(r, &ExploreSpec::p4ce(3).to_repro(&BTreeMap::new()))?;
        let planted = match r.parse::<String>("planted")?.as_str() {
            "-" => None,
            name => match MUTATIONS.iter().find(|m| m.name == name) {
                Some(m) => Some(m.bug),
                None => return Err(format!("unknown planted bug {name}")),
            },
        };
        let spec = ExploreSpec {
            system: h.system,
            n_members: h.members,
            groups: h.groups,
            seed: h.seed,
            p4ce_enabled: h.p4ce_enabled,
            planted,
            faults: h.faults,
            propose_every: r.parse("propose_every")?,
            horizon: r.parse("horizon")?,
        };
        spec.check()?;
        let decisions = decode_decisions(&r.parse::<String>("decisions")?)?;
        Ok((spec, decisions))
    }
}

/// The pluggable scheduler exploration runs under: at each branching
/// point (≥ 2 co-enabled events) it either looks up the decision vector
/// (missing entry = 0 = FIFO) or, in random mode, rolls the dice — and
/// records `(candidate count, choice)` either way so the DFS knows the
/// branching structure it just traversed and a random walk's schedule
/// can be replayed.
struct GuidedScheduler {
    decisions: BTreeMap<u32, u32>,
    rng: Option<u64>,
    trace: Arc<Mutex<Vec<(u32, u32)>>>,
    cursor: u32,
}

impl Scheduler for GuidedScheduler {
    fn choose(&mut self, candidates: &[EventInfo]) -> usize {
        if candidates.len() < 2 {
            return 0;
        }
        let n = candidates.len() as u32;
        let idx = self.cursor;
        self.cursor += 1;
        let choice = match self.rng.as_mut() {
            Some(state) => (splitmix64(state) % u64::from(n)) as u32,
            None => self.decisions.get(&idx).copied().unwrap_or(0).min(n - 1),
        };
        self.trace
            .lock()
            .expect("scheduler trace poisoned")
            .push((n, choice));
        choice as usize
    }
}

/// What one schedule produced.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The first oracle violation, if any.
    pub violation: Option<Violation>,
    /// Candidate count at each branching point encountered, in order —
    /// the DFS uses this to enumerate sibling schedules.
    pub branch_counts: Vec<u32>,
    /// The non-FIFO decisions actually taken (replay vector).
    pub decisions: BTreeMap<u32, u32>,
    /// Explored steps executed (may stop early on violation or drained
    /// queue).
    pub steps: u32,
}

// A small log keeps per-schedule allocation negligible; model checking
// re-builds the deployment thousands of times.
const LOG_SIZE: usize = 64 << 10;

/// The deployment of a P4CE `spec`, destructured: one classic cluster,
/// or `spec.groups` of them behind one switch.
fn build_p4ce(spec: &ExploreSpec, tracer: &Tracer) -> (Simulation, Vec<Vec<NodeId>>) {
    // Shrink control-plane latencies so the un-explored setup phase is
    // short: the switch reconfigures fast, and (behind a plain fabric)
    // the leader gives up on acceleration fast. Keep re-probe ≥ reconfig
    // so a healthy handshake still completes between probes.
    let switch_cfg = p4ce_switch::P4ceSwitchConfig {
        p4ce_enabled: spec.p4ce_enabled,
        reconfig_delay: SimDuration::from_micros(500),
        ..Default::default()
    };
    if spec.groups > 1 {
        let d = p4ce::ShardedClusterBuilder::new(usize::from(spec.groups), spec.n_members)
            .seed(spec.seed)
            .log_size(LOG_SIZE)
            .switch_config(switch_cfg)
            .reaccel_period(SimDuration::from_millis(5))
            .tracer(tracer.clone())
            .build();
        return (d.sim, d.members);
    }
    let reaccel = if spec.p4ce_enabled {
        SimDuration::from_millis(5)
    } else {
        SimDuration::from_micros(200)
    };
    let builder = p4ce::ClusterBuilder::new(spec.n_members)
        .switch_config(switch_cfg)
        .reaccel_period(reaccel);
    build_one(builder, spec, tracer)
}

fn build_one<F: Fabric>(
    builder: ClusterBuilder<F>,
    spec: &ExploreSpec,
    tracer: &Tracer,
) -> (Simulation, Vec<Vec<NodeId>>) {
    let d = builder
        .seed(spec.seed)
        .log_size(LOG_SIZE)
        .tracer(tracer.clone())
        .build();
    (d.sim, vec![d.members])
}

/// Executes one schedule of `spec` from scratch: FIFO setup, then
/// `spec.horizon` explored steps under the given decision vector (or a
/// random walk when `rng` is set), auditing the oracles after every
/// step.
///
/// `tracer` is attached to every layer of the deployment. The outcome
/// is identical under any sink — tracing observes, never perturbs —
/// and `Tracer::disabled()` is the unobserved run; an enabled sink
/// collects the cross-layer record stream of the schedule, which is how
/// a shrunk reproducer gets visualized (`p4ce-explore replay --trace`).
///
/// # Panics
///
/// Panics if [`ExploreSpec::check`] refuses `spec`.
pub fn run_schedule(
    spec: &ExploreSpec,
    decisions: &BTreeMap<u32, u32>,
    rng: Option<u64>,
    tracer: &Tracer,
) -> ScheduleOutcome {
    if let Err(e) = spec.check() {
        panic!("cannot explore {spec:?}: {e}");
    }
    let (mut sim, groups) = match spec.system {
        System::P4ce => build_p4ce(spec, tracer),
        System::Mu => build_one(mu::ClusterBuilder::new(spec.n_members), spec, tracer),
    };
    // Before the first event: the run is the one the bug would have
    // produced compiled in.
    if let Some(bug) = spec.planted {
        sim.plant(bug);
    }
    match spec.system {
        System::P4ce => run_on::<p4ce::SwitchComm>(sim, &groups, spec, decisions, rng),
        System::Mu => run_on::<mu::MuComm>(sim, &groups, spec, decisions, rng),
    }
}

/// One tagged-or-plain proposal of `counter` into every group that
/// currently has an operational leader. With several groups the payload
/// leads with the 2-byte group tag the group-isolation oracle audits.
fn propose<C: Comm>(sim: &mut Simulation, groups: &[Vec<NodeId>], counter: u64) -> bool {
    let mut any = false;
    for (g, group) in groups.iter().enumerate() {
        let mut payload = Vec::with_capacity(10);
        if groups.len() > 1 {
            payload.extend_from_slice(&(g as u16).to_be_bytes());
        }
        payload.extend_from_slice(&counter.to_be_bytes());
        any |= propose_to_leader::<C>(sim, group, Bytes::from(payload)) == Some(true);
    }
    any
}

/// Snapshots every member and runs the oracle suite — per group, with
/// group isolation on top, when there are several.
fn check<C: Comm>(sim: &Simulation, groups: &[Vec<NodeId>], step: u32) -> Option<Violation> {
    if groups.len() > 1 {
        return groups.iter().enumerate().find_map(|(g, group)| {
            let mut v = check_group(&probe_members::<C>(sim, group), step, g as u16)?;
            v.detail = format!("group {g}: {}", v.detail);
            Some(v)
        });
    }
    check_all(&probe_members::<C>(sim, &groups[0]), step)
}

fn run_on<C: Comm>(
    mut sim: Simulation,
    groups: &[Vec<NodeId>],
    spec: &ExploreSpec,
    decisions: &BTreeMap<u32, u32>,
    rng: Option<u64>,
) -> ScheduleOutcome {
    install::<C, _>(&mut sim, groups, |_| ChaosRecorder::default());
    // Drive the deployment to steady state under plain FIFO. The
    // explored window starts from an operational cluster so every
    // schedule perturbs the protocol, not the boot sequence.
    let must_accelerate = spec.system == System::P4ce && spec.p4ce_enabled;
    let ready = |sim: &Simulation| {
        groups.iter().all(|group| {
            (group.iter()).any(|&n| member::<C>(sim, n).is_operational_leader())
                && (!must_accelerate || member::<C>(sim, group[0]).is_accelerated())
        })
    };
    await_steady(
        &mut sim,
        ready,
        SimDuration::from_millis(200),
        SimDuration::from_micros(50),
    );

    let trace = Arc::new(Mutex::new(Vec::new()));
    sim.set_scheduler(Box::new(GuidedScheduler {
        decisions: decisions.clone(),
        rng,
        trace: Arc::clone(&trace),
        cursor: 0,
    }));

    // Faults stay confined to group 0; whom they kill is audited, as a
    // witness of what it applied, but never proposed to.
    let mut faults = Faults::new(&spec.faults, None, &groups[0]);
    let mut live = groups.to_vec();
    let mut violation = None;
    let mut steps = 0;
    let mut proposal = 0u64;
    for step in 0..spec.horizon {
        faults.apply(&mut sim, u64::from(step));
        live[0].retain(|n| faults.live().contains(n));
        if spec.propose_every > 0
            && step % spec.propose_every == 0
            && propose::<C>(&mut sim, &live, proposal)
        {
            proposal += 1;
        }
        if !sim.step() {
            break;
        }
        steps = step + 1;
        if let Some(v) = check::<C>(&sim, groups, step) {
            violation = Some(v);
            break;
        }
    }

    let trace = trace.lock().expect("scheduler trace poisoned");
    let branch_counts = trace.iter().map(|&(n, _)| n).collect();
    let decisions = trace
        .iter()
        .enumerate()
        .filter(|&(_, &(_, c))| c != 0)
        .map(|(i, &(_, c))| (i as u32, c))
        .collect();
    ScheduleOutcome {
        violation,
        branch_counts,
        decisions,
        steps,
    }
}

/// Exploration resource limits: schedule count and wall-clock budget.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop after this many schedules.
    pub max_schedules: u64,
    /// Stop once this much wall-clock time has elapsed.
    pub max_wall: Option<std::time::Duration>,
}

impl Budget {
    /// A schedule-count budget with no wall-clock limit.
    pub fn schedules(max_schedules: u64) -> Budget {
        Budget {
            max_schedules,
            max_wall: None,
        }
    }

    /// Adds a wall-clock deadline.
    pub fn with_deadline(mut self, wall: std::time::Duration) -> Budget {
        self.max_wall = Some(wall);
        self
    }
}

/// Why exploration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreStatus {
    /// Every schedule within the delay bound was checked; none violated.
    Exhausted,
    /// An oracle fired (see the counterexample).
    Violated,
    /// The schedule budget ran out first.
    BudgetExhausted,
    /// The wall-clock deadline ran out first.
    DeadlineExceeded,
}

/// A violating schedule, ready for shrinking or serialization.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What fired.
    pub violation: Violation,
    /// The decision vector that reproduces it.
    pub decisions: BTreeMap<u32, u32>,
}

/// Exploration result.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Largest number of branching points seen in one schedule — the
    /// width of the explored frontier.
    pub max_branch_points: usize,
    /// Why exploration stopped.
    pub status: ExploreStatus,
    /// The violating schedule, when `status == Violated`.
    pub counterexample: Option<Counterexample>,
}

/// Exhaustive delay-bounded DFS: checks every schedule whose decisions
/// sum to at most `delay_bound`, in lexicographic order starting from
/// plain FIFO. Stops at the first violation or when the budget runs
/// dry.
pub fn explore(spec: &ExploreSpec, delay_bound: u32, budget: Budget) -> ExploreReport {
    let started = Instant::now();
    let mut vector: Vec<u32> = Vec::new();
    let mut schedules = 0u64;
    let mut max_branch_points = 0usize;
    loop {
        let decisions: BTreeMap<u32, u32> = vector
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        let outcome = run_schedule(spec, &decisions, None, &Tracer::disabled());
        schedules += 1;
        max_branch_points = max_branch_points.max(outcome.branch_counts.len());
        if let Some(violation) = outcome.violation {
            return ExploreReport {
                schedules,
                max_branch_points,
                status: ExploreStatus::Violated,
                counterexample: Some(Counterexample {
                    violation,
                    decisions,
                }),
            };
        }
        // Backtrack: find the deepest branching point whose choice can
        // be incremented without blowing the delay bound, truncate
        // everything after it (those positions revert to FIFO).
        let counts = &outcome.branch_counts;
        let choice_at = |v: &[u32], i: usize| v.get(i).copied().unwrap_or(0);
        let mut next = None;
        for i in (0..counts.len()).rev() {
            let c = choice_at(&vector, i);
            let prefix_cost: u32 = (0..i).map(|j| choice_at(&vector, j)).sum();
            if c + 1 < counts[i] && prefix_cost + c < delay_bound {
                let mut nv: Vec<u32> = (0..i).map(|j| choice_at(&vector, j)).collect();
                nv.push(c + 1);
                next = Some(nv);
                break;
            }
        }
        let Some(nv) = next else {
            return done(schedules, max_branch_points, ExploreStatus::Exhausted);
        };
        // Only charge the budget when there is more frontier to visit:
        // a fully explored bound is Exhausted even on its last schedule.
        if schedules >= budget.max_schedules {
            return done(schedules, max_branch_points, ExploreStatus::BudgetExhausted);
        }
        if let Some(wall) = budget.max_wall {
            if started.elapsed() >= wall {
                return done(
                    schedules,
                    max_branch_points,
                    ExploreStatus::DeadlineExceeded,
                );
            }
        }
        vector = nv;
    }
}

fn done(schedules: u64, max_branch_points: usize, status: ExploreStatus) -> ExploreReport {
    ExploreReport {
        schedules,
        max_branch_points,
        status,
        counterexample: None,
    }
}

/// Random schedule exploration: `budget.max_schedules` independent
/// seeded walks. Violating walks are replayable — the recorded decision
/// vector lands in the counterexample, not the RNG seed.
pub fn random_walk(spec: &ExploreSpec, budget: Budget) -> ExploreReport {
    let started = Instant::now();
    let mut schedules = 0u64;
    let mut max_branch_points = 0usize;
    let mut state = spec.seed ^ 0x7061_6365; // "pace"
    while schedules < budget.max_schedules {
        if let Some(wall) = budget.max_wall {
            if started.elapsed() >= wall {
                return done(
                    schedules,
                    max_branch_points,
                    ExploreStatus::DeadlineExceeded,
                );
            }
        }
        let walk_seed = splitmix64(&mut state);
        let outcome = run_schedule(spec, &BTreeMap::new(), Some(walk_seed), &Tracer::disabled());
        schedules += 1;
        max_branch_points = max_branch_points.max(outcome.branch_counts.len());
        if let Some(violation) = outcome.violation {
            return ExploreReport {
                schedules,
                max_branch_points,
                status: ExploreStatus::Violated,
                counterexample: Some(Counterexample {
                    violation,
                    decisions: outcome.decisions,
                }),
            };
        }
    }
    done(schedules, max_branch_points, ExploreStatus::BudgetExhausted)
}

/// Replays a serialized reproducer, watched through `tracer` so the
/// failing schedule can be exported and visualized, and reports what
/// it does now.
///
/// # Errors
///
/// Reports a malformed reproducer.
pub fn replay(repro: &Repro, tracer: &Tracer) -> Result<ScheduleOutcome, String> {
    let (spec, decisions) = ExploreSpec::from_repro(repro)?;
    Ok(run_schedule(&spec, &decisions, None, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunk `skip-epoch-revoke` reproducer, as `to_repro` writes it.
    const PLANTED_REPRO: &str = "\
# p4ce reproducer v1
kind=explore
system=p4ce
members=3
groups=1
seed=42
p4ce_enabled=false
faults=40 partition member=0 hold_ns=1000000000
planted=skip-epoch-revoke
propose_every=0
horizon=896
decisions=-
";

    fn decode(text: &str) -> Result<(ExploreSpec, BTreeMap<u32, u32>), String> {
        ExploreSpec::from_repro(&Repro::decode(text).expect("well-formed lines"))
    }

    /// The leader killed rather than cut off, with the fence skipped: the
    /// survivors go on granting WRITE to the dead leader, which only an
    /// audit that keeps the killed member's address can see.
    #[test]
    fn a_dead_leaders_stale_grant_is_still_caught() {
        for system in [System::P4ce, System::Mu] {
            let spec = ExploreSpec {
                system,
                faults: FaultSchedule::new(vec![(40, Fault::Kill(0))]),
                ..ExploreSpec::mutation(Planted::SkipEpochRevoke, 3)
            };
            let outcome = run_schedule(&spec, &BTreeMap::new(), None, &Tracer::disabled());
            let v = outcome.violation.expect("the stale grant is caught");
            assert_eq!(v.oracle, OracleKind::SingleWriter, "{system}: {v}");
            assert!(v.detail.contains("10.0.0.1 holds WRITE"), "{system}: {v}");
        }
    }

    #[test]
    fn every_planted_bug_is_caught_by_its_oracle_and_shrinks_small() {
        for m in &MUTATIONS {
            for system in [System::P4ce, System::Mu] {
                let spec = ExploreSpec {
                    system,
                    ..ExploreSpec::mutation(m.bug, 3)
                };
                if spec.check().is_err() {
                    // Cross-wiring needs the switch's group tables.
                    assert_eq!((m.bug, system), (Planted::CrosswireGroups, System::Mu));
                    continue;
                }
                let at = format!("{} on {system}", m.name);
                let report = explore(&spec, 0, Budget::schedules(1));
                assert_eq!(report.status, ExploreStatus::Violated, "{at}: not caught");
                let cex = report.counterexample.expect("counterexample");
                assert_eq!(cex.violation.oracle, m.oracle, "{at}");
                if spec.groups > 1 {
                    assert!(
                        cex.violation.detail.starts_with("group "),
                        "{at}: names its group"
                    );
                }

                let shrunk = shrink::shrink(&spec, &cex.decisions).expect("still violates");
                assert_eq!(shrunk.violation.oracle, m.oracle, "{at}");
                assert!(
                    shrunk.decisions.len() <= 20,
                    "{at}: reproducer must be small, got {} decisions",
                    shrunk.decisions.len()
                );
                assert!(shrunk.spec.horizon <= spec.horizon);
                assert_eq!(
                    shrunk.spec.planted,
                    Some(m.bug),
                    "{at}: shrinking keeps the bug"
                );

                // The shrunk reproducer survives a serialize/parse/replay trip.
                let text = shrunk.spec.to_repro(&shrunk.decisions).encode();
                let back = Repro::decode(&text).expect("decode");
                let outcome = replay(&back, &Tracer::disabled()).expect("replay");
                let v = outcome.violation.expect("replayed violation");
                assert_eq!(v, shrunk.violation, "{at}");

                // The same scenario without the bug stays clean: the
                // oracle fires on the bug, not on the scenario.
                let healthy = ExploreSpec {
                    planted: None,
                    ..spec
                };
                let report = explore(&healthy, 0, Budget::schedules(1));
                assert_eq!(
                    report.status,
                    ExploreStatus::Exhausted,
                    "{at} without the bug"
                );
            }
        }
    }

    #[test]
    fn sharded_clean_walks_stay_clean() {
        // Two accelerated groups behind one switch, tagged proposals
        // into both, randomized event interleavings: no oracle — group
        // isolation included — may fire.
        let spec = ExploreSpec::sharded(2, 3);
        let report = random_walk(&spec, Budget::schedules(3));
        assert_eq!(report.status, ExploreStatus::BudgetExhausted);
        assert!(report.counterexample.is_none());
    }

    #[test]
    fn twelve_member_walks_stay_clean() {
        // A short walk on a large cluster, where every member's own view
        // counter differs from the others': nothing may fire on either
        // system.
        for system in [System::P4ce, System::Mu] {
            let spec = ExploreSpec {
                system,
                horizon: 10,
                ..ExploreSpec::p4ce(12)
            };
            let report = random_walk(&spec, Budget::schedules(1));
            assert_eq!(report.status, ExploreStatus::BudgetExhausted, "{system}");
            assert!(report.counterexample.is_none(), "{system}");
        }
    }

    #[test]
    fn spec_round_trips_through_repro() {
        let mut decisions = BTreeMap::new();
        decisions.insert(4u32, 2u32);
        for spec in [
            ExploreSpec::p4ce(3),
            ExploreSpec::mutation(Planted::SkipEpochRevoke, 3),
            ExploreSpec::mutation(Planted::CrosswireGroups, 3),
        ] {
            let r = spec.to_repro(&decisions);
            assert_eq!(ExploreSpec::from_repro(&r), Ok((spec, decisions.clone())));
        }
        assert_eq!(
            ExploreSpec::p4ce(3).to_repro(&decisions).get("planted"),
            Some("-")
        );
    }

    #[test]
    fn a_planted_reproducer_replays_its_violation() {
        let decoded = decode(PLANTED_REPRO).expect("decodes");
        let spec = ExploreSpec {
            horizon: 896,
            ..ExploreSpec::mutation(Planted::SkipEpochRevoke, 3)
        };
        assert_eq!(decoded, (spec, BTreeMap::new()));
        assert_eq!(decoded.0.to_repro(&decoded.1).encode(), PLANTED_REPRO);

        let repro = Repro::decode(PLANTED_REPRO).expect("decode");
        let outcome = replay(&repro, &Tracer::disabled()).expect("replay");
        let v = outcome.violation.expect("violation");
        assert_eq!((v.oracle, v.step), (OracleKind::SingleWriter, 895));
    }

    #[test]
    fn a_key_the_writer_does_not_write_is_refused_by_name() {
        let explore = |text: &str| decode(text).map(drop);
        let chaos = |text: &str| {
            crate::ChaosRun::from_repro(&Repro::decode(text).expect("lines")).map(drop)
        };
        let seeded = crate::ChaosSpec::seeded(7, 3)
            .on(System::P4ce, 3)
            .to_repro()
            .encode();
        let planted = "planted=skip-epoch-revoke";
        let faults = "faults=40 partition member=0 hold_ns=1000000000";
        for (key, decoded) in [
            // The boolean-per-bug format, alone or beside `planted`.
            (
                "skip_epoch_revoke",
                explore(&PLANTED_REPRO.replace(planted, "skip_epoch_revoke=true")),
            ),
            (
                "crosswire_groups",
                explore(&format!("{PLANTED_REPRO}crosswire_groups=false\n")),
            ),
            // What `to_repro` writes is what `from_repro` needs.
            ("groups", explore(&PLANTED_REPRO.replace("groups=1\n", ""))),
            ("planted", explore(&PLANTED_REPRO.replace(planted, ""))),
            ("faults", explore(&PLANTED_REPRO.replace(faults, ""))),
            ("system", chaos(&seeded.replace("system=p4ce\n", ""))),
            // A bug name `MUTATIONS` does not know.
            (
                "skip-epoch",
                explore(&PLANTED_REPRO.replace("skip-epoch-revoke", "skip-epoch")),
            ),
            // A per-driver fault key, in place of the faults line or
            // beside it.
            (
                "partition_leader",
                explore(&PLANTED_REPRO.replace(faults, "partition_leader=40")),
            ),
            (
                "partition_leader",
                explore(&format!("{PLANTED_REPRO}partition_leader=40\n")),
            ),
            ("loss", chaos(&format!("{seeded}loss=0.5\n"))),
            ("storm_ns", chaos(&format!("{seeded}storm_ns=8000000\n"))),
            // A mistyped key, in place of the real one or beside it.
            ("drain", chaos(&seeded.replace("\ndrain_ns=", "\ndrain="))),
            ("los", chaos(&format!("{seeded}los=0.5\n"))),
        ] {
            let e = decoded.expect_err(key);
            assert!(e.contains(key), "{key}: {e}");
        }
    }

    #[test]
    fn from_repro_refuses_impossible_deployments() {
        let healthy = ExploreSpec::p4ce(3).to_repro(&BTreeMap::new());
        let with = |edits: &[(&str, &str)]| {
            let mut r = healthy.clone();
            for (key, value) in edits {
                r.set(key, value);
            }
            ExploreSpec::from_repro(&r)
        };
        assert!(with(&[]).is_ok());
        let too_many = with(&[("members", "24")]).expect_err("24 members");
        assert!(too_many.contains("at most 22 replicas"), "{too_many}");
        // The leader is as faultable as any member; a member outside the
        // group is not.
        assert!(with(&[("faults", "3 kill member=0; 9 partition member=2 hold_ns=5")]).is_ok());
        assert!(with(&[("faults", "3 kill member=3")]).is_err());
        for edits in [
            &[("members", "1")][..],
            &[("members", "200")],
            &[("groups", "0")],
            &[("groups", "254")],
            &[("system", "mu"), ("groups", "2")],
            // Cross-wiring needs two groups behind a P4CE program.
            &[("planted", "crosswire-groups")],
            &[
                ("planted", "crosswire-groups"),
                ("groups", "2"),
                ("p4ce_enabled", "false"),
            ],
        ] {
            assert!(with(edits).is_err(), "{edits:?} must be refused");
        }
        assert!(with(&[("members", "23")]).is_ok());
        assert!(with(&[("system", "mu"), ("members", "127")]).is_ok());
        assert!(with(&[("planted", "crosswire-groups"), ("groups", "2")]).is_ok());
    }
}

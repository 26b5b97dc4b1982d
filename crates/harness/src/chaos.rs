//! Link-level chaos: seeded random fault schedules run against whole
//! clusters, with safety invariants checked after the storm and
//! liveness demanded after the heal.
//!
//! The runner builds a cluster, lets it reach steady state, installs a
//! [`FaultPlan`] on **both directions** of every member↔switch primary
//! link (loss, duplication, reordering, jitter, corruption — plus one
//! time-bounded partition isolating a single member), keeps proposing
//! values to whichever member claims operational leadership, heals the
//! links, and verifies:
//!
//! * **safety** — the model checker's whole single-group oracle suite
//!   ([`crate::explore::oracle::check_all`]: single writer, unique
//!   leader, agreement, prefix consistency, exactly-once apply) after
//!   every proposal tick, at the heal and at the end,
//! * **liveness** — callers assert `decided_final > decided_at_heal`,
//! * **determinism** — the run is a pure function of the [`ChaosSpec`]:
//!   rerunning the same spec reproduces the [`ChaosReport`] exactly.

use bytes::Bytes;
use netsim::rng::{splitmix64, unit_f64};
use netsim::{FaultPlan, FaultStats, NodeId, PortId, SimDuration, SimTime, Simulation, Tracer};
use rdma::Host;
use replication::{Comm, Member, StateMachine};

use crate::explore::oracle::{check_all, probe_members, MemberProbe};
use crate::groups::{await_steady, decided, install, leader_steady, propose_to_leader};
use crate::repro::Repro;
use crate::runner::System;
use crate::shard::fnv1a64;

/// The longest window a chaos reproducer may name: 1 s of virtual time,
/// a hundred times the seeded 8 ms storm.
const MAX_WINDOW: SimDuration = SimDuration::from_millis(1000);

/// The most client ticks a chaos reproducer may ask for,
/// `(storm + drain) / propose_every`: each is a proposal and an oracle
/// audit of every member. The seeded specs ask for 650.
const MAX_TICKS: u64 = 100_000;

/// Everything a chaos run perturbs, derived deterministically from one
/// seed by [`ChaosSpec::seeded`]. All instants are offsets from the
/// storm start (the moment fault plans are installed), so the same spec
/// can be replayed regardless of how long cluster setup took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Simulation seed; also seeds the per-link schedule derivation.
    pub seed: u64,
    /// Per-frame loss probability on every faulted link.
    pub loss: f64,
    /// Per-frame duplication probability (before per-link scaling).
    pub duplicate: f64,
    /// Per-frame reordering probability (before per-link scaling).
    pub reorder: f64,
    /// How far a reordered frame may be held back.
    pub reorder_window: SimDuration,
    /// Uniform extra delay bound added to every frame.
    pub jitter: SimDuration,
    /// Per-frame payload-corruption probability (before scaling).
    pub corrupt: f64,
    /// The member whose switch links suffer the transient partition
    /// (never member 0, so the steady-state leader stays reachable).
    pub partition_member: usize,
    /// Partition start, as an offset from storm start.
    pub partition_from: SimDuration,
    /// Partition end, as an offset from storm start.
    pub partition_until: SimDuration,
    /// How long the fault plans stay installed.
    pub storm: SimDuration,
    /// Post-heal window during which the cluster must decide again.
    pub drain: SimDuration,
    /// Gap between chaos-client proposal attempts.
    pub propose_every: SimDuration,
}

impl ChaosSpec {
    /// Draws a random-but-reproducible schedule for an `n_members`
    /// cluster: at least 1% loss, a mix of the other fault types, and
    /// one partition isolating a random non-leader member mid-storm.
    ///
    /// # Panics
    ///
    /// Panics if `n_members < 2`.
    pub fn seeded(seed: u64, n_members: usize) -> ChaosSpec {
        assert!(n_members >= 2, "a cluster needs at least two members");
        let mut s = seed;
        let loss = 0.01 + 0.03 * unit_f64(splitmix64(&mut s));
        let duplicate = 0.01 * unit_f64(splitmix64(&mut s));
        let reorder = 0.15 * unit_f64(splitmix64(&mut s));
        let reorder_window = SimDuration::from_nanos(500 + splitmix64(&mut s) % 2500);
        let jitter = SimDuration::from_nanos(splitmix64(&mut s) % 300);
        let corrupt = 0.002 * unit_f64(splitmix64(&mut s));
        let partition_member = 1 + (splitmix64(&mut s) as usize) % (n_members - 1);
        let from_us = 1_500 + splitmix64(&mut s) % 1_000;
        let len_us = 1_500 + splitmix64(&mut s) % 1_000;
        ChaosSpec {
            seed,
            loss,
            duplicate,
            reorder,
            reorder_window,
            jitter,
            corrupt,
            partition_member,
            partition_from: SimDuration::from_micros(from_us),
            partition_until: SimDuration::from_micros(from_us + len_us),
            storm: SimDuration::from_millis(8),
            drain: SimDuration::from_millis(5),
            propose_every: SimDuration::from_micros(20),
        }
    }

    /// Serializes the spec (plus the deployment shape) as a `kind=chaos`
    /// reproducer, the chaos counterpart of
    /// [`crate::explore::ExploreSpec::to_repro`].
    pub fn to_repro(&self, system: System, n_members: usize) -> Repro {
        let mut r = Repro::new("chaos");
        r.set("system", system.name());
        r.set("members", n_members);
        r.set("seed", self.seed);
        r.set("loss", self.loss);
        r.set("duplicate", self.duplicate);
        r.set("reorder", self.reorder);
        r.set("reorder_window_ns", self.reorder_window.as_nanos());
        r.set("jitter_ns", self.jitter.as_nanos());
        r.set("corrupt", self.corrupt);
        r.set("partition_member", self.partition_member);
        r.set("partition_from_ns", self.partition_from.as_nanos());
        r.set("partition_until_ns", self.partition_until.as_nanos());
        r.set("storm_ns", self.storm.as_nanos());
        r.set("drain_ns", self.drain.as_nanos());
        r.set("propose_every_ns", self.propose_every.as_nanos());
        r
    }

    /// Decodes a `kind=chaos` reproducer back into a runnable
    /// `(system, n_members, spec)` triple.
    ///
    /// # Errors
    ///
    /// Reports a wrong kind, a missing/unparseable field, a cluster
    /// [`System::check_shape`] refuses, a partitioned member that is the
    /// steady-state leader or not a member at all, and a spec that cannot
    /// run: a probability outside `[0, 1]`, a window beyond 1 s of
    /// virtual time, a zero `propose_every` or one so short that the
    /// client would tick more than 10⁵ times, or a partition that does
    /// not lie inside the storm. The error names the key.
    pub fn from_repro(r: &Repro) -> Result<(System, usize, ChaosSpec), String> {
        if r.kind != "chaos" {
            return Err(format!("not a chaos reproducer: kind={}", r.kind));
        }
        let system = r.get("system").map_or(Ok(System::P4ce), str::parse)?;
        let ns = |key: &str| -> Result<SimDuration, String> {
            let d = SimDuration::from_nanos(r.parse::<u64>(key)?);
            if d > MAX_WINDOW {
                let n = d.as_nanos();
                return Err(format!(
                    "{key}={n} is more than {MAX_WINDOW} of virtual time"
                ));
            }
            Ok(d)
        };
        let p = |key: &str| -> Result<f64, String> {
            let p = r.parse::<f64>(key)?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{key}={p} is not a probability in [0, 1]"));
            }
            Ok(p)
        };
        let spec = ChaosSpec {
            seed: r.parse("seed")?,
            loss: p("loss")?,
            duplicate: p("duplicate")?,
            reorder: p("reorder")?,
            reorder_window: ns("reorder_window_ns")?,
            jitter: ns("jitter_ns")?,
            corrupt: p("corrupt")?,
            partition_member: r.parse("partition_member")?,
            partition_from: ns("partition_from_ns")?,
            partition_until: ns("partition_until_ns")?,
            storm: ns("storm_ns")?,
            drain: ns("drain_ns")?,
            propose_every: ns("propose_every_ns")?,
        };
        if spec.propose_every == SimDuration::ZERO {
            return Err("propose_every_ns=0 never lets the clock advance".to_owned());
        }
        let every = spec.propose_every.as_nanos();
        let ticks = (spec.storm.as_nanos() + spec.drain.as_nanos()) / every;
        if ticks > MAX_TICKS {
            return Err(format!(
                "propose_every_ns={every} makes the client tick {ticks} times over \
                 storm_ns + drain_ns, more than {MAX_TICKS}"
            ));
        }
        if spec.partition_from > spec.partition_until {
            return Err("partition_from_ns is after partition_until_ns".to_owned());
        }
        if spec.partition_until > spec.storm {
            return Err("partition_until_ns is after the storm ends (storm_ns)".to_owned());
        }
        let n_members = r.parse("members")?;
        system.check_shape(n_members, 1)?;
        if !(1..n_members).contains(&spec.partition_member) {
            return Err(format!(
                "partition_member {} is not a replica of {n_members} members",
                spec.partition_member
            ));
        }
        Ok((system, n_members, spec))
    }
}

/// What a chaos run observed. Two runs of the same [`ChaosSpec`] must
/// produce equal reports — that equality *is* the determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Proposal attempts the chaos client made.
    pub proposals_attempted: u64,
    /// Attempts the contacted leader accepted.
    pub proposals_accepted: u64,
    /// Highest decided count across members at the heal instant.
    pub decided_at_heal: u64,
    /// Highest decided count across members at run end.
    pub decided_final: u64,
    /// Shortest applied-log length across the steady-state replicas
    /// (members `1..n`) at run end — the leader applies nothing through
    /// the remote-write path, so it is excluded.
    pub applied_min: usize,
    /// FNV-1a digest over every member's applied (seq, payload) log.
    pub log_hash: u64,
    /// Total simulator events processed (replay fingerprint).
    pub events_processed: u64,
    /// Frames the loss plans removed from the wire.
    pub frames_dropped: u64,
    /// Frames delivered twice.
    pub frames_duplicated: u64,
    /// Frames delivered with a flipped bit.
    pub frames_corrupted: u64,
    /// Frames dropped inside the partition window.
    pub partition_dropped: u64,
    /// Packets retransmitted by the hosts' retransmission timers
    /// (`QueuePair::check_timeout` firing).
    pub timeout_retransmits: u64,
    /// Packets retransmitted in response to peer NAKs
    /// (`QueuePair::handle_nak` firing).
    pub nak_retransmits: u64,
    /// Frames the hosts discarded as unparseable (corruption landing).
    pub parse_drops: u64,
}

/// Records every applied entry, for post-run agreement checks.
#[derive(Default)]
pub struct ChaosRecorder {
    /// Applied sequence numbers, in application order.
    pub seqs: Vec<u64>,
    /// Applied payloads, in application order.
    pub payloads: Vec<Vec<u8>>,
}

impl StateMachine for ChaosRecorder {
    fn apply(&mut self, seq: u64, payload: &[u8]) {
        self.seqs.push(seq);
        self.payloads.push(payload.to_vec());
    }
}

/// The per-direction plan for one member's switch link. Loss stays at
/// the spec's floor on every link; the other probabilities get a
/// per-direction scale so no two links misbehave identically.
fn link_plan(spec: &ChaosSpec, member: usize, reverse: bool, storm_start: SimTime) -> FaultPlan {
    let mut s = spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (((member as u64) << 1) | u64::from(reverse));
    let scale = 0.5 + unit_f64(splitmix64(&mut s));
    let mut plan = FaultPlan::new()
        .loss(spec.loss)
        .duplicate(spec.duplicate * scale)
        .reorder(spec.reorder * scale, spec.reorder_window)
        .jitter(spec.jitter)
        .corrupt(spec.corrupt * scale);
    if member == spec.partition_member {
        plan = plan.partition(
            storm_start + spec.partition_from,
            storm_start + spec.partition_until,
        );
    }
    plan
}

pub(crate) fn install_storm(
    sim: &mut Simulation,
    members: &[NodeId],
    spec: &ChaosSpec,
    storm_start: SimTime,
) {
    let primary = PortId::from_index(0);
    for (i, &m) in members.iter().enumerate() {
        sim.set_fault_plan(m, primary, link_plan(spec, i, false, storm_start));
        let (sw, swp) = sim.peer_of(m, primary);
        sim.set_fault_plan(sw, swp, link_plan(spec, i, true, storm_start));
    }
}

pub(crate) fn clear_storm(sim: &mut Simulation, members: &[NodeId]) {
    let primary = PortId::from_index(0);
    for &m in members {
        sim.clear_fault_plan(m, primary);
        let (sw, swp) = sim.peer_of(m, primary);
        sim.clear_fault_plan(sw, swp);
    }
}

/// Sums injected-fault counters over both directions of every member
/// link (counters survive `clear_fault_plan`).
fn fault_totals(sim: &Simulation, members: &[NodeId]) -> FaultStats {
    let primary = PortId::from_index(0);
    let mut total = FaultStats::default();
    for &m in members {
        let (sw, swp) = sim.peer_of(m, primary);
        for s in [sim.fault_stats(m, primary), sim.fault_stats(sw, swp)] {
            total.dropped += s.dropped;
            total.partition_dropped += s.partition_dropped;
            total.duplicated += s.duplicated;
            total.reordered += s.reordered;
            total.corrupted += s.corrupted;
        }
    }
    total
}

/// What the chaos client has done so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    accepted: u64,
    /// Snapshots audited: the step a violation is reported at.
    audits: u32,
}

/// Snapshots every member and runs the oracle suite over the snapshot.
///
/// # Panics
///
/// Panics with the [`crate::explore::oracle::Violation`] if an oracle
/// fires — the panic *is* the test failure.
fn audit<C: Comm>(sim: &Simulation, members: &[NodeId], tally: &mut Tally) -> Vec<MemberProbe> {
    let probes = probe_members::<C>(sim, members);
    if let Some(violation) = check_all(&probes, tally.audits) {
        panic!("{violation}");
    }
    tally.audits += 1;
    probes
}

/// The chaos client: until `until`, one proposal every
/// `spec.propose_every` (payload = attempt number) to whichever member
/// claims operational leadership, and an audit after each.
fn propose_until<C: Comm>(
    sim: &mut Simulation,
    members: &[NodeId],
    spec: &ChaosSpec,
    until: SimTime,
    tally: &mut Tally,
) {
    while sim.now() < until {
        sim.run_for(spec.propose_every);
        let payload = Bytes::from(tally.attempted.to_be_bytes().to_vec());
        if let Some(accepted) = propose_to_leader::<C>(sim, members, payload) {
            tally.attempted += 1;
            tally.accepted += u64::from(accepted);
        }
        audit::<C>(sim, members, tally);
    }
}

/// The run itself, on one group of whichever comm: reach steady state
/// (`accelerated`: on the in-network path), storm, heal, drain, audit.
fn storm<C: Comm>(
    mut sim: Simulation,
    members: Vec<NodeId>,
    accelerated: bool,
    spec: &ChaosSpec,
) -> ChaosReport {
    install::<C, _>(&mut sim, std::slice::from_ref(&members), |_| {
        ChaosRecorder::default()
    });
    await_steady(
        &mut sim,
        |sim| leader_steady::<C>(sim, &members, accelerated),
        SimDuration::from_millis(300),
        SimDuration::from_millis(1),
    );

    let storm_start = sim.now();
    install_storm(&mut sim, &members, spec, storm_start);

    let mut tally = Tally::default();
    let heal_at = storm_start + spec.storm;
    propose_until::<C>(&mut sim, &members, spec, heal_at, &mut tally);

    clear_storm(&mut sim, &members);
    audit::<C>(&sim, &members, &mut tally);
    let decided_at_heal = decided::<C>(&sim, &members);

    let drain_until = sim.now() + spec.drain;
    propose_until::<C>(&mut sim, &members, spec, drain_until, &mut tally);
    // Let replicas catch up on applying the tail.
    sim.run_for(SimDuration::from_millis(2));
    let probes = audit::<C>(&sim, &members, &mut tally);

    let injected = fault_totals(&sim, &members);
    let mut timeout_retransmits = 0;
    let mut nak_retransmits = 0;
    let mut parse_drops = 0;
    for &node in &members {
        let s = sim.node_ref::<Host<Member<C>>>(node).stats();
        timeout_retransmits += s.timeout_retransmits;
        nak_retransmits += s.nak_retransmits;
        parse_drops += s.parse_drops;
    }
    let applied_min = (probes.iter().skip(1))
        .map(|p| p.applied_seqs.len())
        .min()
        .unwrap_or(0);
    let mut log = Vec::new();
    for p in &probes {
        for (seq, payload) in p.applied_seqs.iter().zip(&p.applied_payloads) {
            log.extend_from_slice(&seq.to_be_bytes());
            log.extend_from_slice(payload);
        }
    }

    ChaosReport {
        proposals_attempted: tally.attempted,
        proposals_accepted: tally.accepted,
        decided_at_heal,
        decided_final: decided::<C>(&sim, &members),
        applied_min,
        log_hash: fnv1a64(&log),
        events_processed: sim.events_processed(),
        frames_dropped: injected.dropped,
        frames_duplicated: injected.duplicated,
        frames_corrupted: injected.corrupted,
        partition_dropped: injected.partition_dropped,
        timeout_retransmits,
        nak_retransmits,
        parse_drops,
    }
}

/// Runs a seeded chaos schedule against an `n_members` cluster of
/// `system`. `tracer` is what the run is watched through: with a
/// [`netsim::TraceHandle`]'s tracer the sink collects the full
/// cross-layer record stream of the storm, so a failing schedule can be
/// exported and visualized; `Tracer::disabled()` is the unobserved run.
/// The report is identical either way — tracing observes, never
/// perturbs.
///
/// # Panics
///
/// Panics if the cluster never reaches steady state (P4CE:
/// accelerated), or with the oracle's `Violation` if a safety invariant
/// breaks — the panic *is* the test failure.
pub fn run(system: System, spec: &ChaosSpec, n_members: usize, tracer: &Tracer) -> ChaosReport {
    match system {
        System::P4ce => {
            let p4ce::Deployment { sim, members, .. } = p4ce::ClusterBuilder::new(n_members)
                .seed(spec.seed)
                .tracer(tracer.clone())
                .build();
            storm::<p4ce::SwitchComm>(sim, members, true, spec)
        }
        System::Mu => {
            let mu::Deployment { sim, members, .. } = mu::ClusterBuilder::new(n_members)
                .seed(spec.seed)
                .tracer(tracer.clone())
                .build();
            storm::<mu::MuComm>(sim, members, false, spec)
        }
    }
}

/// Runs a decoded `kind=chaos` reproducer, watched through `tracer`
/// (`p4ce-explore replay --trace` visualizes the failing schedule).
///
/// # Errors
///
/// Reports a malformed reproducer.
///
/// # Panics
///
/// Panics exactly where the original failing run did — replaying a
/// reproducer *is* re-triggering its failure.
pub fn replay(repro: &Repro, tracer: &Tracer) -> Result<ChaosReport, String> {
    let (system, n, spec) = ChaosSpec::from_repro(repro)?;
    Ok(run(system, &spec, n, tracer))
}

/// What [`shrink_spec`] converged on: the reduced spec and how many
/// candidate runs it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkChaos {
    /// The smallest spec that still fails.
    pub spec: ChaosSpec,
    /// Candidate runs spent shrinking.
    pub runs: u32,
}

/// Greedily minimizes a failing [`ChaosSpec`] against an arbitrary
/// failure predicate: each pass tries to zero one fault dimension, drop
/// the partition, or halve the storm/drain windows, keeping a change
/// only if the failure persists, until a fixpoint. The predicate
/// abstraction exists so tests can shrink against a synthetic failure
/// without paying for real cluster runs.
pub fn shrink_spec(spec: &ChaosSpec, fails: &mut dyn FnMut(&ChaosSpec) -> bool) -> ShrunkChaos {
    fn candidates(s: &ChaosSpec) -> Vec<ChaosSpec> {
        let mut out = Vec::new();
        let mut push = |edit: &dyn Fn(&mut ChaosSpec)| {
            let mut c = *s;
            edit(&mut c);
            if c != *s {
                out.push(c);
            }
        };
        push(&|c| c.duplicate = 0.0);
        push(&|c| {
            c.reorder = 0.0;
            c.reorder_window = SimDuration::ZERO;
        });
        push(&|c| c.corrupt = 0.0);
        push(&|c| c.jitter = SimDuration::ZERO);
        push(&|c| c.loss = 0.0);
        push(&|c| c.partition_from = c.partition_until); // empty window
        push(&|c| {
            c.storm = SimDuration::from_nanos(c.storm.as_nanos() / 2);
            c.partition_until = c.partition_until.min(c.storm);
            c.partition_from = c.partition_from.min(c.partition_until);
        });
        push(&|c| c.drain = SimDuration::from_nanos(c.drain.as_nanos() / 2));
        out
    }

    let mut best = *spec;
    let mut runs = 0u32;
    loop {
        let mut improved = false;
        for c in candidates(&best) {
            runs += 1;
            if fails(&c) {
                best = c;
                improved = true;
                break; // restart candidate generation from the new best
            }
        }
        if !improved {
            return ShrunkChaos { spec: best, runs };
        }
    }
}

/// Runs `spec` on `system`; if the run's internal safety assertions
/// fail, shrinks the spec to a minimal still-failing schedule, prints
/// the `kind=chaos` reproducer, and re-raises the original panic so the
/// test still fails. The integration tests in `tests/chaos.rs` route
/// through this, so every red chaos run comes with a replayable seed
/// file in its output.
pub fn run_checked(spec: &ChaosSpec, n_members: usize, system: System) -> ChaosReport {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let run = |s: &ChaosSpec| run(system, s, n_members, &Tracer::disabled());
    match catch_unwind(AssertUnwindSafe(|| run(spec))) {
        Ok(report) => report,
        Err(payload) => {
            // Candidate runs re-panic by design; silence the hook so
            // the output shows one failure and one reproducer, not
            // dozens of backtraces.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let shrunk = shrink_spec(spec, &mut |s| {
                catch_unwind(AssertUnwindSafe(|| run(s))).is_err()
            });
            std::panic::set_hook(hook);
            eprintln!(
                "chaos run failed; minimal reproducer (after {} shrink runs):",
                shrunk.runs
            );
            eprint!("{}", shrunk.spec.to_repro(system, n_members).encode());
            resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_specs_are_reproducible_and_bounded() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = ChaosSpec::seeded(seed, 3);
            let b = ChaosSpec::seeded(seed, 3);
            assert_eq!(a, b, "same seed, same spec");
            assert!(a.loss >= 0.01, "loss floor is 1%");
            assert!(a.loss <= 0.04);
            assert!(a.partition_member >= 1 && a.partition_member < 3);
            assert!(a.partition_from < a.partition_until);
            assert!(
                a.partition_until <= a.storm,
                "partition must heal before (or with) the storm"
            );
        }
    }

    #[test]
    fn different_seeds_draw_different_schedules() {
        let a = ChaosSpec::seeded(1, 5);
        let b = ChaosSpec::seeded(2, 5);
        assert_ne!(a, b);
    }

    #[test]
    fn chaos_spec_round_trips_through_repro() {
        let spec = ChaosSpec::seeded(0xC4A0_5001, 3);
        let text = spec.to_repro(System::P4ce, 3).encode();
        let (system, n, back) =
            ChaosSpec::from_repro(&Repro::decode(&text).expect("decode")).expect("from_repro");
        assert_eq!(system, System::P4ce);
        assert_eq!(n, 3);
        assert_eq!(back, spec);
        // Every seeded spec is one `from_repro` accepts as it was written.
        for seed in 0..256 {
            for n in [2, 3, 5] {
                let spec = ChaosSpec::seeded(seed, n);
                let text = spec.to_repro(System::Mu, n).encode();
                let back = Repro::decode(&text).and_then(|r| ChaosSpec::from_repro(&r));
                assert_eq!(back, Ok((System::Mu, n, spec)), "seed {seed}, {n} members");
            }
        }
        assert!(
            ChaosSpec::from_repro(&Repro::new("explore")).is_err(),
            "wrong kind must be rejected"
        );
    }

    #[test]
    fn chaos_from_repro_refuses_impossible_deployments() {
        let good = ChaosSpec::seeded(0xC4A0_5001, 3).to_repro(System::P4ce, 3);
        let with = |key: &str, value: &str| {
            let mut r = good.clone();
            r.set(key, value);
            ChaosSpec::from_repro(&r)
        };
        assert!(ChaosSpec::from_repro(&good).is_ok());
        for (key, value) in [
            ("members", "1"),
            ("members", "200"),
            ("members", "24"),
            ("partition_member", "0"),
            ("partition_member", "3"),
        ] {
            assert!(with(key, value).is_err(), "{key}={value} must be refused");
        }
        assert!(with("partition_member", "2").is_ok());
    }

    #[test]
    fn chaos_from_repro_refuses_a_spec_that_cannot_run() {
        let good = ChaosSpec::seeded(0xC4A0_5001, 3).to_repro(System::P4ce, 3);
        let with = |edits: &[(&str, &str)]| {
            let mut r = good.clone();
            for &(key, value) in edits {
                r.set(key, value);
            }
            ChaosSpec::from_repro(&r)
        };
        let max = u64::MAX.to_string();
        let past = "1000000001";
        for (key, edits) in [
            ("loss", vec![("loss", "NaN")]),
            ("loss", vec![("loss", "inf")]),
            ("loss", vec![("loss", "-0.01")]),
            ("duplicate", vec![("duplicate", "1.5")]),
            ("reorder", vec![("reorder", "-inf")]),
            ("corrupt", vec![("corrupt", "2")]),
            ("propose_every_ns", vec![("propose_every_ns", "0")]),
            ("propose_every_ns", vec![("propose_every_ns", past)]),
            ("jitter_ns", vec![("jitter_ns", max.as_str())]),
            ("reorder_window_ns", vec![("reorder_window_ns", past)]),
            ("drain_ns", vec![("drain_ns", past)]),
            ("storm_ns", vec![("storm_ns", max.as_str())]),
            (
                "partition_from_ns",
                vec![("partition_from_ns", past), ("storm_ns", "1")],
            ),
            (
                "partition_until_ns",
                vec![("partition_until_ns", past), ("storm_ns", "1")],
            ),
            (
                "partition_from_ns",
                vec![("partition_from_ns", "3"), ("partition_until_ns", "2")],
            ),
            ("partition_until_ns", vec![("storm_ns", "1")]),
        ] {
            let e = with(&edits).expect_err(&format!("{edits:?} must be refused"));
            assert!(e.contains(key), "{edits:?}: {e}");
        }
        // The edges are runnable.
        let second = "1000000000";
        for edits in [
            vec![("loss", "0"), ("duplicate", "1"), ("reorder", "0.5")],
            vec![("jitter_ns", second), ("drain_ns", second)],
            vec![("propose_every_ns", "130")],
            vec![("partition_from_ns", "0"), ("partition_until_ns", "0")],
            vec![
                ("storm_ns", second),
                ("partition_from_ns", second),
                ("partition_until_ns", second),
            ],
        ] {
            assert!(with(&edits).is_ok(), "{edits:?} must be accepted");
        }
    }

    #[test]
    fn chaos_from_repro_refuses_a_client_that_would_tick_without_end() {
        let seeded = ChaosSpec::seeded(0xC4A0_5001, 3);
        assert_eq!(
            (seeded.storm + seeded.drain).as_nanos() / seeded.propose_every.as_nanos(),
            650
        );
        let with = |edits: &[(&str, u64)]| {
            let mut r = seeded.to_repro(System::P4ce, 3);
            for &(key, value) in edits {
                r.set(key, value);
            }
            ChaosSpec::from_repro(&r)
        };
        // A proposal every nanosecond through a one-second storm: 10⁹
        // proposals, each audited, before the drain even starts.
        let e = with(&[("propose_every_ns", 1), ("storm_ns", 1_000_000_000)])
            .expect_err("10⁹ ticks must be refused");
        assert!(e.contains("propose_every_ns"), "{e}");
        // Two seconds of storm and drain: one tick every 20 µs is the
        // bound, one a nanosecond sooner is past it.
        let long = [("storm_ns", 1_000_000_000), ("drain_ns", 1_000_000_000)];
        assert!(with(&[long[0], long[1], ("propose_every_ns", 20_000)]).is_ok());
        let e = with(&[long[0], long[1], ("propose_every_ns", 19_999)])
            .expect_err("100,005 ticks must be refused");
        assert!(e.contains("propose_every_ns"), "{e}");
    }

    #[test]
    fn shrinking_keeps_only_the_dimension_that_matters() {
        // Synthetic failure: the bug needs ≥1% loss, nothing else.
        let spec = ChaosSpec::seeded(0xBAD_CA5E, 3);
        let shrunk = shrink_spec(&spec, &mut |s| s.loss >= 0.01);
        assert!(shrunk.spec.loss >= 0.01, "the culprit survives");
        assert_eq!(shrunk.spec.duplicate, 0.0);
        assert_eq!(shrunk.spec.reorder, 0.0);
        assert_eq!(shrunk.spec.corrupt, 0.0);
        assert_eq!(shrunk.spec.jitter, SimDuration::ZERO);
        assert_eq!(
            shrunk.spec.partition_from, shrunk.spec.partition_until,
            "the partition window collapses"
        );
        assert!(shrunk.spec.storm < spec.storm, "the storm shortens");
        assert!(shrunk.runs > 0);
    }

    #[test]
    fn shrinking_a_passing_predicate_changes_nothing() {
        let spec = ChaosSpec::seeded(1, 3);
        let shrunk = shrink_spec(&spec, &mut |_| false);
        assert_eq!(shrunk.spec, spec);
    }

    #[test]
    fn partition_lands_only_on_the_chosen_member() {
        let spec = ChaosSpec::seeded(7, 5);
        let start = SimTime::from_micros(100);
        for member in 0..5 {
            for reverse in [false, true] {
                let plan = link_plan(&spec, member, reverse, start);
                assert_eq!(
                    !plan.partitions.is_empty(),
                    member == spec.partition_member,
                    "member {member} reverse {reverse}"
                );
            }
        }
    }
}

//! Link-level chaos: fault schedules run against whole clusters, with
//! safety invariants checked after every proposal tick and liveness
//! demanded after the heal.
//!
//! The runner builds a cluster, lets it reach steady state, and applies a
//! [`FaultSchedule`] on a clock that starts there — [`ChaosSpec::seeded`]
//! draws one: a storm on **both directions** of every member↔switch
//! primary link (loss, duplication, reordering, jitter, corruption) and
//! one time-bounded partition isolating a single member. It keeps
//! proposing values to whichever live member claims operational
//! leadership until the last fault is over (the heal), drains, and
//! verifies:
//!
//! * **safety** — the model checker's whole single-group oracle suite
//!   ([`crate::explore::oracle::check_all`]: single writer, agreement,
//!   exactly-once apply) over every member, a killed one included, after
//!   every proposal tick, at the heal and at the end,
//! * **liveness** — callers assert `decided_final > decided_at_heal`,
//! * **determinism** — the run is a pure function of the [`ChaosRun`]:
//!   rerunning it reproduces the [`ChaosReport`] exactly.

use bytes::Bytes;
use netsim::rng::{splitmix64, unit_f64};
use netsim::{FaultStats, NodeId, PortId, SimDuration, SimTime, Simulation, Tracer};
use rdma::Host;
use replication::{Comm, Member, StateMachine};

use crate::explore::oracle::{check_all, probe_members, MemberProbe};
use crate::faults::{within_window, Fault, FaultSchedule, Faults, Storm, MAX_WINDOW};
use crate::groups::{await_steady, decided, install, leader_steady, propose_to_leader};
use crate::repro::{Header, Repro};
use crate::runner::System;
use crate::shard::fnv1a64;

/// The most client ticks a chaos reproducer may ask for, `(faults' end +
/// drain) / propose_every`: each is a proposal and an oracle audit of
/// every member. The seeded specs ask for 650.
const MAX_TICKS: u64 = 100_000;

/// A seeded storm with one partition inside it, drawn deterministically
/// from one seed by [`ChaosSpec::seeded`] and run as the schedule
/// [`ChaosSpec::faults`] maps it to. All instants are offsets from the
/// storm start (steady state), so the same spec can be replayed
/// regardless of how long cluster setup took.
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
    /// ([`ChaosSpec::seeded`] never draws member 0, so the steady-state
    /// leader stays reachable).
    pub partition_member: usize,
    /// Partition start, as an offset from storm start.
    pub partition_from: SimDuration,
    /// Partition end, as an offset from storm start.
    pub partition_until: SimDuration,
    /// How long the storm blows.
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

    /// The spec as a schedule in nanoseconds from storm start: the storm
    /// at 0 for `storm`, and the partition at `partition_from` until
    /// `partition_until`.
    pub fn faults(&self) -> FaultSchedule {
        let storm = Storm {
            seed: self.seed,
            loss: self.loss,
            duplicate: self.duplicate,
            reorder: self.reorder,
            reorder_window: self.reorder_window,
            jitter: self.jitter,
            corrupt: self.corrupt,
            hold: self.storm,
        };
        let (from, until) = (
            self.partition_from.as_nanos(),
            self.partition_until.as_nanos(),
        );
        let partition = Fault::Partition {
            member: self.partition_member,
            hold: SimDuration::from_nanos(until.saturating_sub(from)),
        };
        FaultSchedule::new(vec![(0, Fault::Storm(storm)), (from, partition)])
    }

    /// The run the spec generates on an `n_members` cluster of `system`.
    pub fn on(&self, system: System, n_members: usize) -> ChaosRun {
        let header = Header {
            system,
            members: n_members,
            groups: 1,
            seed: self.seed,
            p4ce_enabled: true,
            faults: self.faults(),
        };
        ChaosRun {
            header,
            drain: self.drain,
            propose_every: self.propose_every,
        }
    }
}

/// One chaos run, as its `kind=chaos` reproducer states it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// The deployment, one group on the P4CE program, and its faults, `at`
    /// in nanoseconds after steady state.
    pub header: Header,
    /// Post-heal window during which the cluster must decide again.
    pub drain: SimDuration,
    /// Gap between chaos-client proposal attempts.
    pub propose_every: SimDuration,
}

impl ChaosRun {
    /// Serializes the run as a `kind=chaos` reproducer: the shared
    /// [`Header`], then the client's two keys.
    pub fn to_repro(&self) -> Repro {
        let mut r = self.header.to_repro("chaos");
        r.set("drain_ns", self.drain.as_nanos());
        r.set("propose_every_ns", self.propose_every.as_nanos());
        r
    }

    /// Decodes a `kind=chaos` reproducer. It reads exactly the keys
    /// [`ChaosRun::to_repro`] writes.
    ///
    /// # Errors
    ///
    /// Reports what [`Header::from_repro`] refuses, a deployment other
    /// than one group on the P4CE program, a schedule
    /// [`FaultSchedule::check`] refuses (a fault starts within 1 s of
    /// steady state), a window over 1 s of virtual time, and a client
    /// that cannot run: `propose_every_ns=0`, or one so short that it
    /// would tick more than 10⁵ times. The error names the key.
    pub fn from_repro(r: &Repro) -> Result<ChaosRun, String> {
        let written = ChaosSpec::seeded(0, 3).on(System::P4ce, 3).to_repro();
        let header = Header::from_repro(r, &written)?;
        if header.groups != 1 || !header.p4ce_enabled {
            let shape = format!(
                "groups={} p4ce_enabled={}",
                header.groups, header.p4ce_enabled
            );
            return Err(format!(
                "{shape}: a chaos run is one group on the P4CE program"
            ));
        }
        header.faults.check(header.members, MAX_WINDOW.as_nanos())?;
        let ns = |key: &str| -> Result<SimDuration, String> {
            let d = SimDuration::from_nanos(r.parse::<u64>(key)?);
            within_window(key, d)?;
            Ok(d)
        };
        let (drain, propose_every) = (ns("drain_ns")?, ns("propose_every_ns")?);
        let every = propose_every.as_nanos();
        if every == 0 {
            return Err("propose_every_ns=0 never lets the clock advance".to_owned());
        }
        let ticks = (header.faults.end() + drain.as_nanos()) / every;
        if ticks > MAX_TICKS {
            return Err(format!(
                "propose_every_ns={every} makes the client tick {ticks} times over \
                 the faults and drain_ns, more than {MAX_TICKS}"
            ));
        }
        Ok(ChaosRun {
            header,
            drain,
            propose_every,
        })
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

/// Sums injected-fault counters over both directions of every member
/// link (counters survive a plan's removal).
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

/// The chaos client: until `until`, one proposal every `every` (payload =
/// attempt number) to whichever live member claims operational
/// leadership, and an audit of every member after each: what a killed
/// member applied before it crashed is still a witness.
fn propose_until<C: Comm>(
    sim: &mut Simulation,
    faults: &mut Faults,
    (members, every): (&[NodeId], SimDuration),
    until: SimTime,
    tally: &mut Tally,
) {
    while sim.now() < until {
        let tick = sim.now() + every;
        faults.run_until(sim, tick);
        let payload = Bytes::from(tally.attempted.to_be_bytes().to_vec());
        if let Some(accepted) = propose_to_leader::<C>(sim, faults.live(), payload) {
            tally.attempted += 1;
            tally.accepted += u64::from(accepted);
        }
        audit::<C>(sim, members, tally);
    }
}

/// The run itself, on one group of whichever comm: reach steady state
/// (`accelerated`: on the in-network path), fault until the last fault
/// is over (the heal), drain, audit.
fn storm<C: Comm>(
    mut sim: Simulation,
    members: Vec<NodeId>,
    accelerated: bool,
    run: &ChaosRun,
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

    let (t0, end) = (sim.now(), run.header.faults.end());
    let mut faults = Faults::new(&run.header.faults, Some(t0), &members);
    let (mut tally, client) = (Tally::default(), (&members[..], run.propose_every));
    let heal_at = t0 + SimDuration::from_nanos(end);
    propose_until::<C>(&mut sim, &mut faults, client, heal_at, &mut tally);
    let now = sim.now();
    faults.run_until(&mut sim, now);
    audit::<C>(&sim, &members, &mut tally);
    let decided_at_heal = decided::<C>(&sim, faults.live());

    let drain_until = sim.now() + run.drain;
    propose_until::<C>(&mut sim, &mut faults, client, drain_until, &mut tally);
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
    let applied_min = (probes[1..].iter())
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
        decided_final: decided::<C>(&sim, faults.live()),
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

/// Runs `chaos`. `tracer` is what the run is watched through: with a
/// [`netsim::TraceHandle`]'s tracer the sink collects the full
/// cross-layer record stream of the run, so a failing schedule can be
/// exported and visualized; `Tracer::disabled()` is the unobserved run.
/// The report is identical either way — tracing observes, never
/// perturbs.
///
/// # Panics
///
/// Panics if the cluster never reaches steady state (P4CE:
/// accelerated), or with the oracle's `Violation` if a safety invariant
/// breaks — the panic *is* the test failure.
pub fn run(chaos: &ChaosRun, tracer: &Tracer) -> ChaosReport {
    let h = &chaos.header;
    match h.system {
        System::P4ce => {
            let p4ce::Deployment { sim, members, .. } = p4ce::ClusterBuilder::new(h.members)
                .seed(h.seed)
                .tracer(tracer.clone())
                .build();
            storm::<p4ce::SwitchComm>(sim, members, true, chaos)
        }
        System::Mu => {
            let mu::Deployment { sim, members, .. } = mu::ClusterBuilder::new(h.members)
                .seed(h.seed)
                .tracer(tracer.clone())
                .build();
            storm::<mu::MuComm>(sim, members, false, chaos)
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
    Ok(run(&ChaosRun::from_repro(repro)?, tracer))
}

/// What [`shrink_run`] converged on: the reduced run and how many
/// candidate runs it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkChaos {
    /// The smallest run that still fails.
    pub run: ChaosRun,
    /// Candidate runs spent shrinking.
    pub runs: u32,
}

/// Greedily minimizes a failing [`ChaosRun`] against an arbitrary
/// failure predicate: each pass tries each of
/// [`FaultSchedule::smaller`] (the explorer's pass too) and a halved
/// drain, keeping the first change the failure survives, until a
/// fixpoint. The predicate abstraction exists so tests can shrink
/// against a synthetic failure without paying for real cluster runs.
pub fn shrink_run(run: &ChaosRun, fails: &mut dyn FnMut(&ChaosRun) -> bool) -> ShrunkChaos {
    let (mut best, mut runs) = (run.clone(), 0u32);
    loop {
        let drain = (!best.drain.is_zero()).then(|| ChaosRun {
            drain: best.drain / 2,
            ..best.clone()
        });
        let smaller = (best.header.faults.smaller().into_iter()).map(|faults| {
            let mut c = best.clone();
            c.header.faults = faults;
            c
        });
        match smaller.chain(drain).find(|c| {
            runs += 1;
            fails(c)
        }) {
            Some(c) => best = c,
            None => return ShrunkChaos { run: best, runs },
        }
    }
}

/// Runs `chaos`; if the run's internal safety assertions fail, shrinks
/// it to a minimal still-failing run, prints the `kind=chaos`
/// reproducer, and re-raises the original panic so the test still
/// fails. The integration tests in `tests/chaos.rs` route through this,
/// so every red chaos run comes with a replayable seed file in its
/// output.
pub fn run_checked(chaos: &ChaosRun) -> ChaosReport {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let run = |c: &ChaosRun| run(c, &Tracer::disabled());
    match catch_unwind(AssertUnwindSafe(|| run(chaos))) {
        Ok(report) => report,
        Err(payload) => {
            // Candidate runs re-panic by design; silence the hook so
            // the output shows one failure and one reproducer, not
            // dozens of backtraces.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let shrunk = shrink_run(chaos, &mut |c| {
                catch_unwind(AssertUnwindSafe(|| run(c))).is_err()
            });
            std::panic::set_hook(hook);
            eprintln!(
                "chaos run failed; minimal reproducer (after {} shrink runs):",
                shrunk.runs
            );
            eprint!("{}", shrunk.run.to_repro().encode());
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
    fn chaos_run_round_trips_through_repro() {
        let run = ChaosSpec::seeded(0xC4A0_5001, 3).on(System::P4ce, 3);
        let text = run.to_repro().encode();
        let back = ChaosRun::from_repro(&Repro::decode(&text).expect("decode"));
        assert_eq!(back, Ok(run));
        // Every seeded spec is one `from_repro` accepts as it was written.
        for seed in 0..256 {
            for n in [2, 3, 5] {
                let run = ChaosSpec::seeded(seed, n).on(System::Mu, n);
                let text = run.to_repro().encode();
                let back = Repro::decode(&text).and_then(|r| ChaosRun::from_repro(&r));
                assert_eq!(back, Ok(run), "seed {seed}, {n} members");
            }
        }
        assert!(
            ChaosRun::from_repro(&Repro::new("explore")).is_err(),
            "wrong kind must be rejected"
        );
    }

    #[test]
    fn chaos_from_repro_refuses_impossible_deployments() {
        let good = ChaosSpec::seeded(0xC4A0_5001, 3)
            .on(System::P4ce, 3)
            .to_repro();
        let with = |key: &str, value: &str| {
            let mut r = good.clone();
            r.set(key, value);
            ChaosRun::from_repro(&r)
        };
        assert!(ChaosRun::from_repro(&good).is_ok());
        for (key, value) in [
            ("members", "1"),
            ("members", "200"),
            ("members", "24"),
            ("groups", "2"),
            ("p4ce_enabled", "false"),
            ("faults", "0 partition member=3 hold_ns=1"),
            ("faults", "0 kill member=3"),
        ] {
            assert!(with(key, value).is_err(), "{key}={value} must be refused");
        }
        // Any member may be faulted, the steady-state leader included.
        for faults in [
            "0 partition member=2 hold_ns=1",
            "0 partition member=0 hold_ns=1",
        ] {
            assert!(with("faults", faults).is_ok(), "{faults}");
        }
    }

    #[test]
    fn chaos_from_repro_refuses_a_client_that_would_tick_without_end() {
        let seeded = ChaosSpec::seeded(0xC4A0_5001, 3).on(System::P4ce, 3);
        assert_eq!(
            (seeded.header.faults.end() + seeded.drain.as_nanos())
                / seeded.propose_every.as_nanos(),
            650
        );
        let with = |faults: &str, edits: &[(&str, u64)]| {
            let mut r = seeded.to_repro();
            r.set("faults", faults);
            for &(key, value) in edits {
                r.set(key, value);
            }
            ChaosRun::from_repro(&r)
        };
        // A proposal every nanosecond through a one-second partition: 10⁹
        // proposals, each audited, before the drain even starts.
        let second = "0 partition member=1 hold_ns=1000000000";
        let e = with(second, &[("propose_every_ns", 1)]).expect_err("10⁹ ticks must be refused");
        assert!(e.contains("propose_every_ns"), "{e}");
        assert!(with(second, &[("propose_every_ns", 0)]).is_err());
        // Two seconds of faults and drain: one tick every 20 µs is the
        // bound, one a nanosecond sooner is past it.
        let drain = ("drain_ns", 1_000_000_000);
        assert!(with(second, &[drain, ("propose_every_ns", 20_000)]).is_ok());
        let e = with(second, &[drain, ("propose_every_ns", 19_999)])
            .expect_err("100,005 ticks must be refused");
        assert!(e.contains("propose_every_ns"), "{e}");
    }

    #[test]
    fn shrinking_keeps_only_the_dimension_that_matters() {
        // Synthetic failure: the bug needs ≥1% loss, nothing else.
        let run = ChaosSpec::seeded(0xBAD_CA5E, 3).on(System::P4ce, 3);
        let storm = |r: &ChaosRun| match r.header.faults.entries() {
            [(0, Fault::Storm(s))] => Some(*s),
            _ => None,
        };
        let shrunk = shrink_run(&run, &mut |r| storm(r).is_some_and(|s| s.loss >= 0.01));
        let s = storm(&shrunk.run).expect("the storm survives, and only the storm");
        assert!(s.loss >= 0.01, "the culprit survives");
        assert_eq!((s.duplicate, s.reorder, s.corrupt), (0.0, 0.0, 0.0));
        assert_eq!(s.jitter, SimDuration::ZERO);
        assert!(s.hold < SimDuration::from_millis(8), "the storm shortens");
        assert!(shrunk.run.drain < run.drain, "the drain shortens");
        assert!(shrunk.runs > 0);
    }

    #[test]
    fn shrinking_a_passing_predicate_changes_nothing() {
        let run = ChaosSpec::seeded(1, 3).on(System::P4ce, 3);
        assert_eq!(shrink_run(&run, &mut |_| false).run, run);
    }

    /// A replica cut off for 2 ms and healed, then the leader killed
    /// 100 ms later, and the successor left to serve: the shape of the
    /// successor-recovery defect (ROADMAP item 1), which no driver could
    /// say before. CI replays it with `p4ce-explore replay`.
    const PARTITION_THEN_LEADER_KILL: &str =
        include_str!("../repros/partition-then-leader-kill.repro");

    #[test]
    fn a_partition_then_a_leader_kill_is_one_reproducer() {
        for system in [System::P4ce, System::Mu] {
            let text = PARTITION_THEN_LEADER_KILL
                .replace("system=p4ce", &format!("system={}", system.name()));
            let run = ChaosRun::from_repro(&Repro::decode(&text).expect("lines"));
            let cut = Fault::Partition {
                member: 1,
                hold: SimDuration::from_millis(2),
            };
            let header = Header {
                system,
                members: 3,
                groups: 1,
                seed: 42,
                p4ce_enabled: true,
                faults: FaultSchedule::new(vec![(0, cut), (102_000_000, Fault::Kill(0))]),
            };
            let expected = ChaosRun {
                header,
                drain: SimDuration::from_millis(100),
                propose_every: SimDuration::from_micros(100),
            };
            assert_eq!(run.as_ref(), Ok(&expected), "{system}");
            assert_eq!(expected.to_repro().encode(), text, "{system}");
        }
    }
}

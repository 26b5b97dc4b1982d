//! Chaos tests: seeded random link-fault schedules against live
//! clusters. The chaos runner asserts agreement and unique leadership
//! internally; these tests additionally pin liveness after the heal,
//! that the storm really happened, that both QP recovery paths
//! (retransmission timeout and NAK) were exercised, and that a rerun of
//! the same schedule replays bit-for-bit.

use netsim::SimDuration;
use p4ce_harness::chaos::run_checked;
use p4ce_harness::{ChaosSpec, System};

/// All chaos runs route through [`run_checked`]: a failing run shrinks
/// its schedule and prints a replayable `kind=chaos` reproducer before
/// re-raising the panic.
fn run_p4ce(spec: &ChaosSpec, n: usize) -> p4ce_harness::ChaosReport {
    run_checked(&spec.on(System::P4ce, n))
}

fn run_mu(spec: &ChaosSpec, n: usize) -> p4ce_harness::ChaosReport {
    run_checked(&spec.on(System::Mu, n))
}

#[test]
fn p4ce_cluster_survives_seeded_chaos() {
    let spec = ChaosSpec::seeded(0xC4A0_5001, 3);
    assert!(
        spec.loss >= 0.01,
        "the schedule must carry at least 1% loss"
    );
    let r = run_p4ce(&spec, 3);
    // The storm actually happened...
    assert!(r.frames_dropped > 0, "loss plans must fire: {r:?}");
    assert!(
        r.partition_dropped > 0,
        "the partition must swallow frames: {r:?}"
    );
    // ...consensus survived it (agreement and the single writer that
    // makes leadership unique are asserted inside the runner)...
    assert!(r.proposals_accepted > 0, "some proposals must land: {r:?}");
    assert!(r.applied_min > 0, "every member applied something: {r:?}");
    assert!(
        r.decided_at_heal > 0,
        "a leader decided through the storm: {r:?}"
    );
    // ...and the cluster decided new values after the heal.
    assert!(
        r.decided_final > r.decided_at_heal,
        "liveness after heal: {r:?}"
    );
}

#[test]
fn chaos_reaches_both_qp_recovery_paths() {
    let spec = ChaosSpec::seeded(0xC4A0_5002, 3);
    let r = run_p4ce(&spec, 3);
    assert!(
        r.timeout_retransmits > 0,
        "injected faults must drive QueuePair::check_timeout: {r:?}"
    );
    assert!(
        r.nak_retransmits > 0,
        "injected faults must drive QueuePair::handle_nak: {r:?}"
    );
}

#[test]
fn same_seed_and_schedule_replays_identically() {
    let spec = ChaosSpec::seeded(0xDE7E_0001, 3);
    let first = run_p4ce(&spec, 3);
    let second = run_p4ce(&spec, 3);
    assert_eq!(
        first, second,
        "a chaos run must be a pure function of its spec"
    );
}

#[test]
fn chaos_reproducer_replays_the_same_run() {
    let spec = ChaosSpec::seeded(0xDE7E_0001, 3);
    let direct = run_p4ce(&spec, 3);
    let text = spec.on(System::P4ce, 3).to_repro().encode();
    let repro = p4ce_harness::Repro::decode(&text).expect("well-formed reproducer");
    let replayed =
        p4ce_harness::chaos::replay(&repro, &netsim::Tracer::disabled()).expect("replayable");
    assert_eq!(direct, replayed, "a reproducer must replay bit-for-bit");
}

#[test]
fn mu_cluster_survives_seeded_chaos() {
    let spec = ChaosSpec::seeded(0x4D55_0001, 3);
    let r = run_mu(&spec, 3);
    assert!(r.frames_dropped > 0, "{r:?}");
    assert!(r.partition_dropped > 0, "{r:?}");
    assert!(r.decided_final > r.decided_at_heal, "{r:?}");
    assert!(r.applied_min > 0, "{r:?}");
}

#[test]
fn five_member_p4ce_cluster_survives_chaos() {
    let mut spec = ChaosSpec::seeded(0x5EED_0005, 5);
    // Five members generate proportionally more traffic; a shorter
    // storm keeps the test affordable without weakening the faults.
    spec.storm = SimDuration::from_millis(6);
    spec.drain = SimDuration::from_millis(4);
    let r = run_p4ce(&spec, 5);
    assert!(r.partition_dropped > 0, "{r:?}");
    assert!(r.decided_final > r.decided_at_heal, "{r:?}");
    assert!(r.applied_min > 0, "{r:?}");
}

/// A frame's ICRC is no longer stored in it: it is derived when somebody
/// reads the wire bytes, and the fault injector is the one reader a
/// storm has. With one frame in fifty corrupted, every total the storm
/// leaves behind — how many flips landed, how many the hosts' parsers
/// refused, what the NAKs and the timers had to resend, what was decided
/// and applied — is the literal recorded on the commit before
/// (EXPERIMENTS E19): a flipped bit meets exactly the checks it met when
/// the checksum was computed eagerly.
#[test]
fn corruption_lands_exactly_where_it_did_when_frames_stored_their_icrc() {
    let totals = |r: p4ce_harness::ChaosReport| {
        [
            r.frames_corrupted,
            r.parse_drops,
            r.nak_retransmits,
            r.timeout_retransmits,
            r.decided_final,
            r.log_hash,
        ]
    };
    let spec = ChaosSpec {
        corrupt: 0.02,
        ..ChaosSpec::seeded(42, 3)
    };
    assert_eq!(
        totals(run_p4ce(&spec, 3)),
        [75, 28, 333, 39, 603, 0xaac1_ed47_60d1_c01d]
    );
    assert_eq!(
        totals(run_mu(&spec, 3)),
        [86, 26, 279, 44, 650, 0x0c4d_291f_27cd_9f9d]
    );
}

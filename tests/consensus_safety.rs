//! Cross-crate safety properties: every replica applies the same command
//! sequence, byte for byte, through the in-network replication path — and
//! across a leader change after the log ring has wrapped.

#![allow(clippy::needless_range_loop)]

use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use p4ce::ClusterBuilder;
use p4ce_harness::explore::oracle::{check_all, probe_members};
use p4ce_harness::{ChaosRecorder, Fault, FaultSchedule, Faults};
use proptest::prelude::*;
use rdma::Host;
use replication::{Deployment, Fabric, Member, MemberEvent, WorkloadSpec};

fn run_cluster_with_commands(
    n_members: usize,
    commands: &[Vec<u8>],
) -> Vec<(Vec<u64>, Vec<Vec<u8>>)> {
    let mut d = ClusterBuilder::new(n_members).build();
    for i in 0..n_members {
        d.member_mut(i)
            .set_state_machine(Box::new(ChaosRecorder::default()));
    }
    d.sim.run_until(SimTime::from_millis(60));
    assert!(d.leader().is_accelerated(), "setup must accelerate");
    for cmd in commands {
        let payload = Bytes::from(cmd.clone());
        d.with_member(0, move |leader, ops| {
            assert!(leader.propose_value(payload, ops));
        });
        d.sim.run_for(SimDuration::from_micros(5));
    }
    d.sim.run_for(SimDuration::from_millis(2));
    (0..n_members)
        .map(|i| {
            let rec = d
                .member(i)
                .state_machine()
                .and_then(|sm| (sm as &dyn std::any::Any).downcast_ref::<ChaosRecorder>())
                .expect("recorder installed");
            (rec.seqs.clone(), rec.payloads.clone())
        })
        .collect()
}

#[test]
fn replicas_apply_identical_sequences() {
    let commands: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 16 + usize::from(i)]).collect();
    let states = run_cluster_with_commands(3, &commands);
    // Replicas 1 and 2 saw exactly the proposed commands, in order.
    for i in 1..3 {
        let (seqs, payloads) = &states[i];
        assert_eq!(payloads.len(), commands.len(), "replica {i}");
        assert_eq!(payloads, &commands, "replica {i} content");
        let expected_seqs: Vec<u64> = (0..commands.len() as u64).collect();
        assert_eq!(seqs, &expected_seqs, "replica {i} ordering");
    }
}

#[test]
fn five_member_cluster_agrees() {
    let commands: Vec<Vec<u8>> = (0..10u8).map(|i| vec![0xA0 | i; 32]).collect();
    let states = run_cluster_with_commands(5, &commands);
    let reference = &states[1];
    for i in 2..5 {
        assert_eq!(&states[i], reference, "replica {i} diverged");
    }
    assert_eq!(reference.1, commands);
}

proptest! {
    // Cluster runs are comparatively expensive; a modest case count
    // still explores a wide space of payload shapes.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Agreement holds for arbitrary payload sizes and counts, including
    /// payloads spanning multiple MTUs.
    #[test]
    fn agreement_for_arbitrary_commands(
        commands in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..3000), 1..12),
    ) {
        let states = run_cluster_with_commands(3, &commands);
        for i in 1..3 {
            prop_assert_eq!(&states[i].1, &commands, "replica {} diverged", i);
        }
    }
}

/// A ring of 851 entries of 64 B: the leader laps it every few hundred
/// microseconds.
const RING: usize = 64 << 10;
const VALUE: usize = 64;

/// The seq of the entry at offset 0 of `member`'s log: the first of the
/// lap its writer is on.
fn lap_start<F: Fabric>(d: &Deployment<F>, member: usize) -> u64 {
    let region = d.member(member).log_region().expect("registered");
    let host = d.sim.node_ref::<Host<Member<F::Comm>>>(d.members[member]);
    let head = host.memory().read_local(region, 2, 8);
    u64::from_be_bytes(head.try_into().expect("8 bytes"))
}

/// Kills the leader of a closed loop over the small ring once it has
/// wrapped twice and the last replica has not applied the previous lap's
/// tail, lets the successor serve for `serve`, and audits the survivors.
fn kill_after_wraps<F: Fabric>(builder: replication::ClusterBuilder<F>, serve: SimDuration) {
    let mut d = builder
        .log_size(RING)
        .workload(WorkloadSpec::closed(16, VALUE, 0))
        .build();
    for i in 0..3 {
        d.member_mut(i)
            .set_state_machine(Box::new(ChaosRecorder::default()));
    }
    d.sim.run_until(SimTime::from_millis(60));
    let per_lap = (RING / (VALUE + replication::log::ENTRY_OVERHEAD)) as u64;
    let deadline = d.sim.now() + SimDuration::from_millis(20);
    while lap_start(&d, 0) < 2 * per_lap || d.member(2).next_apply_seq() >= lap_start(&d, 0) {
        assert!(d.sim.now() < deadline, "no kill point in 20 ms");
        d.sim.run_for(SimDuration::from_nanos(100));
    }
    let (decided, issued) = (d.member(0).stats.decided, d.member(0).stats.issued);
    d.kill_member(0);
    let lagging = d.member(2).stats.applied;
    d.sim.run_for(serve);

    let survivors = &d.members[1..];
    let violation = check_all(&probe_members::<F::Comm>(&d.sim, survivors), 0);
    assert!(violation.is_none(), "{violation:?}");
    // The successor went on after the last entry it walked: past every
    // decided one, and no further than what the old leader issued.
    let successor = &d.member(1).stats;
    let first = (successor.events.iter())
        .find_map(|(_, e)| match e {
            MemberEvent::FirstDecision { seq, .. } => Some(*seq),
            _ => None,
        })
        .expect("the successor decided");
    assert!((decided..=issued).contains(&first), "first seq {first}");
    assert!(
        successor.decided > 2 * per_lap,
        "the successor laps the ring"
    );
    // The replica that lagged across the wrap followed the successor
    // around the ring: every entry, exactly once, up to what was decided
    // before the last few in flight.
    let applied = d.member(2).stats.applied;
    assert_eq!(applied, d.member(2).next_apply_seq());
    assert!(
        applied + 32 > lagging + successor.decided,
        "replica 2 applied {applied}"
    );
}

#[test]
fn p4ce_survivors_agree_after_a_kill_past_two_wraps() {
    kill_after_wraps(ClusterBuilder::new(3), SimDuration::from_millis(60));
}

#[test]
fn mu_survivors_agree_after_a_kill_past_two_wraps() {
    kill_after_wraps(mu::ClusterBuilder::new(3), SimDuration::from_millis(10));
}

/// Cuts replica 2 off the fabric for `hold` in a line-rate closed loop
/// over the small ring, heals it, and checks the leader goes on deciding
/// without waiting for room again: a replica the ring can no longer
/// serve — lapped while it was declared dead, or stuck short of an entry
/// no one sends again — must not hold the writer back.
fn heal_after_partition<F: Fabric>(builder: replication::ClusterBuilder<F>, hold: SimDuration) {
    let mut d = builder
        .log_size(RING)
        .workload(WorkloadSpec::closed(16, VALUE, 0))
        .build();
    d.sim.run_until(SimTime::from_millis(60));
    let until = d.sim.now() + hold;
    let cut = Fault::Partition { member: 2, hold };
    let schedule = FaultSchedule::new(vec![(0, cut)]);
    Faults::new(&schedule, Some(d.sim.now()), &d.members).run_until(&mut d.sim, until);
    // The leader waited on replica 2 until the detector declared it dead:
    // one closed-loop window of proposals, at most.
    let stalls = d.member(0).stats.writer_stalls;
    assert!(
        stalls <= 16,
        "hold {hold:?}: {stalls} stalls before the heal"
    );
    // Room for P4CE's two 40 ms group rebuilds: without replica 2, then
    // with it again.
    d.sim.run_until(until + SimDuration::from_millis(100));
    let decided = d.member(0).stats.decided;
    d.sim.run_for(SimDuration::from_millis(5));
    let leader = &d.member(0).stats;
    let per_lap = (RING / (VALUE + replication::log::ENTRY_OVERHEAD)) as u64;
    assert!(
        leader.decided - decided > 4 * per_lap,
        "hold {hold:?}: the leader decided {} in 5 ms",
        leader.decided - decided
    );
    assert_eq!(
        leader.writer_stalls, stalls,
        "hold {hold:?}: the leader waited for room after the heal"
    );
}

#[test]
fn p4ce_leader_keeps_deciding_past_a_healed_replica() {
    for hold in [300, 700, 2_000, 20_000] {
        heal_after_partition(ClusterBuilder::new(3), SimDuration::from_micros(hold));
    }
}

#[test]
fn mu_leader_keeps_deciding_past_a_healed_replica() {
    for hold in [300, 700, 2_000, 20_000] {
        heal_after_partition(mu::ClusterBuilder::new(3), SimDuration::from_micros(hold));
    }
}

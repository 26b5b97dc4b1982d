//! Cross-crate safety properties: every replica applies the same command
//! sequence, byte for byte, through the in-network replication path.

#![allow(clippy::needless_range_loop)]

use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use p4ce::{ClusterBuilder, StateMachine};
use proptest::prelude::*;

/// Records everything it applies.
#[derive(Default)]
struct Recorder {
    seqs: Vec<u64>,
    payloads: Vec<Vec<u8>>,
}

impl StateMachine for Recorder {
    fn apply(&mut self, seq: u64, payload: &[u8]) {
        self.seqs.push(seq);
        self.payloads.push(payload.to_vec());
    }
}

fn run_cluster_with_commands(
    n_members: usize,
    commands: &[Vec<u8>],
) -> Vec<(Vec<u64>, Vec<Vec<u8>>)> {
    let mut d = ClusterBuilder::new(n_members).build();
    for i in 0..n_members {
        d.member_mut(i)
            .set_state_machine(Box::new(Recorder::default()));
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
                .and_then(|sm| (sm as &dyn std::any::Any).downcast_ref::<Recorder>())
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

//! Cross-system integration tests: Mu and P4CE side by side, the paper's
//! headline claims as assertions — plus a differential test pinning both
//! systems to the *same* decided value sequence under the same seeded
//! workload and fault plan.

use bytes::Bytes;
use netsim::{FaultPlan, PortId, SimDuration};
use p4ce_harness::{run_point, ChaosRecorder, PointConfig, System};
use replication::{ClusterBuilder, Fabric, WorkloadSpec};

fn rate_of(system: System, replicas: usize) -> f64 {
    let mut cfg = PointConfig::new(system, replicas, WorkloadSpec::closed(16, 64, 0));
    cfg.window = SimDuration::from_millis(10);
    run_point(&cfg).ops_per_sec
}

#[test]
fn p4ce_doubles_mu_with_two_replicas() {
    let mu = rate_of(System::Mu, 2);
    let p4ce = rate_of(System::P4ce, 2);
    let speedup = p4ce / mu;
    // Paper §V-C: ≈ 1.9×.
    assert!(
        (1.7..=2.3).contains(&speedup),
        "speedup {speedup:.2} out of the paper's band"
    );
}

#[test]
fn p4ce_quadruples_mu_with_four_replicas() {
    let mu = rate_of(System::Mu, 4);
    let p4ce = rate_of(System::P4ce, 4);
    let speedup = p4ce / mu;
    // Paper §V-C: ≈ 3.8×.
    assert!(
        (3.4..=4.4).contains(&speedup),
        "speedup {speedup:.2} out of the paper's band"
    );
}

#[test]
fn p4ce_rate_is_independent_of_replica_count() {
    let two = rate_of(System::P4ce, 2);
    let four = rate_of(System::P4ce, 4);
    let ratio = two / four;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "P4CE must not slow down with replicas: {two:.0} vs {four:.0}"
    );
    // And it is in the paper's 2.3 M/s ballpark.
    assert!(
        (2.0e6..=2.6e6).contains(&two),
        "P4CE max rate {two:.0} outside the paper's ballpark"
    );
}

#[test]
fn mu_latency_explodes_past_saturation_p4ce_does_not() {
    let measure = |system, rate| {
        let mut cfg = PointConfig::new(system, 2, WorkloadSpec::open_loop(rate, 64, 0));
        cfg.window = SimDuration::from_millis(8);
        cfg.warmup = SimDuration::from_millis(3);
        run_point(&cfg)
    };
    // 1.4 M/s offered: beyond Mu's ≈1.2 M/s capacity, well inside
    // P4CE's.
    let mu = measure(System::Mu, 1.4e6);
    let p4ce = measure(System::P4ce, 1.4e6);
    assert!(
        mu.mean_latency_us > 20.0 * p4ce.mean_latency_us,
        "Mu {mu:.1?} vs P4CE {p4ce:.1?}: the saturation gap must be dramatic"
    );
    assert!(p4ce.mean_latency_us < 5.0, "P4CE stays flat");
}

#[test]
fn goodput_ratio_matches_replica_count_at_large_values() {
    let goodput = |system, replicas| {
        let mut cfg = PointConfig::new(system, replicas, WorkloadSpec::closed(16, 8192, 0));
        cfg.window = SimDuration::from_millis(10);
        run_point(&cfg).goodput_bytes_per_sec
    };
    let mu2 = goodput(System::Mu, 2);
    let p4ce2 = goodput(System::P4ce, 2);
    let mu4 = goodput(System::Mu, 4);
    let p4ce4 = goodput(System::P4ce, 4);
    let r2 = p4ce2 / mu2;
    let r4 = p4ce4 / mu4;
    assert!((1.8..=2.2).contains(&r2), "2-replica goodput ratio {r2:.2}");
    assert!((3.6..=4.4).contains(&r4), "4-replica goodput ratio {r4:.2}");
    // P4CE saturates the 100 Gbit/s link (≈11 GB/s goodput).
    assert!(p4ce2 > 10.5e9, "P4CE goodput {p4ce2:.2e} below line rate");
}

/// Drives one deployment with an externally injected, fully
/// deterministic proposal stream (payload = proposal counter), under an
/// optional seeded fault storm, and returns each member's applied
/// `(seq, payload)` log. One body for both systems, so the workloads
/// really are identical.
fn decided_log<F: Fabric>(seed: u64, faults: bool) -> Vec<(Vec<u64>, Vec<Vec<u8>>)> {
    const N: usize = 3;
    let mut d = ClusterBuilder::<F>::new(N).seed(seed).build();
    for i in 0..N {
        d.member_mut(i)
            .set_state_machine(Box::new(ChaosRecorder::default()));
    }
    let setup_deadline = d.sim.now() + SimDuration::from_millis(300);
    while d.sim.now() < setup_deadline && !d.member(0).is_operational_leader() {
        d.sim.run_for(SimDuration::from_millis(1));
    }
    assert!(d.member(0).is_operational_leader(), "no steady state");

    if faults {
        // A mild, seeded storm on replica links: loss and jitter on
        // member 1, a partition window for member 2. The leader
        // stays up, so both systems must still decide the same
        // sequence — faults may only slow them down.
        let now = d.sim.now();
        let port = PortId::from_index(0);
        let lossy = || {
            FaultPlan::new()
                .loss(0.02)
                .jitter(SimDuration::from_nanos(200))
        };
        d.sim.set_fault_plan(d.members[1], port, lossy());
        let (sw, swp) = d.sim.peer_of(d.members[1], port);
        d.sim.set_fault_plan(sw, swp, lossy());
        let window = |p: FaultPlan| {
            p.partition(
                now + SimDuration::from_micros(500),
                now + SimDuration::from_micros(900),
            )
        };
        d.sim
            .set_fault_plan(d.members[2], port, window(FaultPlan::new()));
        let (sw2, swp2) = d.sim.peer_of(d.members[2], port);
        d.sim.set_fault_plan(sw2, swp2, window(FaultPlan::new()));
    }

    let mut next_value = 0u64;
    let run_until = d.sim.now() + SimDuration::from_millis(2);
    while d.sim.now() < run_until {
        d.sim.run_for(SimDuration::from_micros(20));
        if let Some(l) = (0..N).find(|&i| d.member(i).is_operational_leader()) {
            let payload = Bytes::from(next_value.to_be_bytes().to_vec());
            if d.with_member(l, move |m, ops| m.propose_value(payload, ops)) {
                next_value += 1;
            }
        }
    }
    // Drain: let retransmissions finish and replicas apply the tail.
    d.sim.run_for(SimDuration::from_millis(3));

    (0..N)
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

/// The differential assertion: every member of both systems applied the
/// same `(seq, payload)` sequence, up to run-end truncation, and the
/// runs were non-trivial.
fn assert_identical_decisions(
    mu_logs: &[(Vec<u64>, Vec<Vec<u8>>)],
    p4ce_logs: &[(Vec<u64>, Vec<Vec<u8>>)],
    min_decided: usize,
) {
    let longest = |logs: &[(Vec<u64>, Vec<Vec<u8>>)]| {
        logs.iter()
            .max_by_key(|(s, _)| s.len())
            .expect("members")
            .clone()
    };
    let (mu_seqs, mu_payloads) = longest(mu_logs);
    let (p4_seqs, p4_payloads) = longest(p4ce_logs);
    assert!(
        mu_seqs.len() >= min_decided && p4_seqs.len() >= min_decided,
        "runs too short to be meaningful: Mu {} / P4CE {}",
        mu_seqs.len(),
        p4_seqs.len()
    );
    let n = mu_seqs.len().min(p4_seqs.len());
    assert_eq!(
        &mu_seqs[..n],
        &p4_seqs[..n],
        "Mu and P4CE diverge on decided sequence numbers"
    );
    assert_eq!(
        &mu_payloads[..n],
        &p4_payloads[..n],
        "Mu and P4CE diverge on decided values"
    );
    // And within each system, every member saw the same sequence.
    for logs in [mu_logs, p4ce_logs] {
        for (seqs, payloads) in logs {
            let k = seqs.len();
            assert_eq!(&seqs[..], &longest(logs).0[..k], "member prefix mismatch");
            assert_eq!(
                &payloads[..],
                &longest(logs).1[..k],
                "member payload prefix mismatch"
            );
        }
    }
}

#[test]
fn identical_workload_decides_identically_across_systems() {
    let mu_logs = decided_log::<mu::PlainFabric>(7, false);
    let p4ce_logs = decided_log::<p4ce::P4ceFabric>(7, false);
    assert_identical_decisions(&mu_logs, &p4ce_logs, 50);
}

#[test]
fn identical_workload_decides_identically_under_faults() {
    let mu_logs = decided_log::<mu::PlainFabric>(7, true);
    let p4ce_logs = decided_log::<p4ce::P4ceFabric>(7, true);
    assert_identical_decisions(&mu_logs, &p4ce_logs, 50);
}

#[test]
fn burst_latency_halves_under_p4ce() {
    let latency = |system| {
        let mut cfg = PointConfig::new(system, 2, WorkloadSpec::closed(100, 64, 0));
        cfg.window = SimDuration::from_millis(10);
        run_point(&cfg).mean_latency_us
    };
    let mu = latency(System::Mu);
    let p4ce = latency(System::P4ce);
    let ratio = mu / p4ce;
    // Paper §V-D: "P4CE's latency is half that of Mu when handling
    // bursts of 100 requests."
    assert!(
        (1.8..=2.2).contains(&ratio),
        "burst-100 latency ratio {ratio:.2} (Mu {mu:.1} µs, P4CE {p4ce:.1} µs)"
    );
}

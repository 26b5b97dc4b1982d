//! The sweep runner's determinism contract: running the same point list
//! across worker threads must produce *identical* outcomes to running it
//! on one — every field, including the total count of simulator events,
//! because each point is a self-contained virtual-time simulation with
//! no global state. Both point kinds go through the one generic pool.

use netsim::SimDuration;
use p4ce_harness::experiments::{fig5_goodput, fig6_latency};
use p4ce_harness::{run_point, run_sharded_point, sweep, PointConfig, ShardedPointConfig, System};
use replication::WorkloadSpec;

fn mixed_points() -> Vec<PointConfig> {
    let mut cfgs = Vec::new();
    for &system in &[System::Mu, System::P4ce] {
        for &replicas in &[2usize, 4] {
            for &size in &[64usize, 1024] {
                let mut cfg = PointConfig::new(system, replicas, WorkloadSpec::closed(8, size, 0));
                cfg.window = SimDuration::from_millis(1);
                cfg.warmup = SimDuration::from_micros(500);
                cfgs.push(cfg);
            }
        }
    }
    cfgs
}

#[test]
fn parallel_outcomes_equal_sequential() {
    let cfgs = mixed_points();
    let sequential = sweep(&cfgs, 1, run_point);
    for threads in [2, 7] {
        let parallel = sweep(&cfgs, threads, run_point);
        assert_eq!(
            parallel, sequential,
            "outcome divergence with {threads} threads"
        );
    }
    // And the outcomes are non-trivial — the points actually decided work
    // and processed events, so the equality above is meaningful.
    assert!(sequential.iter().all(|o| o.decided > 0));
    assert!(sequential.iter().all(|o| o.events_processed > 0));
}

#[test]
fn thread_count_is_recorded_but_not_compared() {
    let cfgs = mixed_points()[..2].to_vec();
    let seq = sweep(&cfgs, 1, run_point);
    assert!(seq.iter().all(|o| o.threads_used == 1));
    let par = sweep(&cfgs, 2, run_point);
    // On a single-core box the sweep must not spawn at all and reports
    // 1 worker; with real parallelism it reports the
    // effective worker count.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let expected = if hw == 1 { 1 } else { 2 };
    assert!(par.iter().all(|o| o.threads_used == expected));
    // threads_used is provenance, not an outcome: equality still holds.
    assert_eq!(par, seq);
    // The exclusion is part of PointOutcome's documented equality
    // contract. Assert it directly, independent of how many cores this
    // box has: two outcomes differing *only* in threads_used are equal.
    let mut relabeled = seq[0];
    relabeled.threads_used = seq[0].threads_used + 63;
    assert_eq!(relabeled, seq[0], "threads_used must not affect equality");
}

#[test]
fn parallel_runs_are_repeatable() {
    let cfgs = mixed_points();
    let a = sweep(&cfgs, 3, run_point);
    let b = sweep(&cfgs, 3, run_point);
    assert_eq!(a, b, "same inputs, same threads, same outcomes");
}

fn sharded_points() -> Vec<ShardedPointConfig> {
    [1usize, 2, 3]
        .into_iter()
        .map(|groups| {
            let mut cfg = ShardedPointConfig::new(groups);
            cfg.warmup = SimDuration::from_millis(1);
            cfg.window = SimDuration::from_millis(2);
            cfg
        })
        .collect()
}

#[test]
fn sharded_parallel_outcomes_equal_sequential() {
    // The multi-group extension of the contract: a sharded point — many
    // consensus groups in one simulation — is still a pure function of
    // its config, per-group rows, log fingerprints and event totals
    // included.
    let cfgs = sharded_points();
    let sequential = sweep(&cfgs, 1, run_sharded_point);
    for threads in [2, 5] {
        let parallel = sweep(&cfgs, threads, run_sharded_point);
        assert_eq!(
            parallel, sequential,
            "sharded outcome divergence with {threads} threads"
        );
    }
    for (cfg, o) in cfgs.iter().zip(&sequential) {
        assert_eq!(o.per_group.len(), cfg.groups);
        assert!(o.per_group.iter().all(|g| g.decided > 0));
        assert!(o.events_processed > 0);
    }
}

#[test]
fn sharded_threads_used_is_provenance_only() {
    let cfgs = sharded_points()[..2].to_vec();
    let seq = sweep(&cfgs, 1, run_sharded_point);
    assert!(seq.iter().all(|o| o.threads_used == 1));
    let par = sweep(&cfgs, 2, run_sharded_point);
    assert_eq!(par, seq, "threads_used must not affect equality");
    let mut relabeled = seq[0].clone();
    relabeled.threads_used += 63;
    assert_eq!(relabeled, seq[0]);
}

#[test]
fn fig5_parallel_rows_match_sequential() {
    let sizes = [64usize, 512];
    let window = SimDuration::from_millis(1);
    let seq = fig5_goodput::run(&sizes, &[2], window, 1);
    let par = fig5_goodput::run(&sizes, &[2], window, 4);
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.system, p.system);
        assert_eq!(s.replicas, p.replicas);
        assert_eq!(s.value_size, p.value_size);
        assert_eq!(s.goodput_gbps.to_bits(), p.goodput_gbps.to_bits());
        assert_eq!(s.ops_per_sec.to_bits(), p.ops_per_sec.to_bits());
    }
}

#[test]
fn fig6_parallel_rows_match_sequential() {
    let rates = [200e3, 800e3];
    let window = SimDuration::from_millis(1);
    let seq = fig6_latency::run(&rates, &[2], window, 1);
    let par = fig6_latency::run(&rates, &[2], window, 4);
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.system, p.system);
        assert_eq!(s.offered_per_sec.to_bits(), p.offered_per_sec.to_bits());
        assert_eq!(s.achieved_per_sec.to_bits(), p.achieved_per_sec.to_bits());
        assert_eq!(s.mean_latency_us.to_bits(), p.mean_latency_us.to_bits());
        assert_eq!(s.p99_latency_us.to_bits(), p.p99_latency_us.to_bits());
    }
}

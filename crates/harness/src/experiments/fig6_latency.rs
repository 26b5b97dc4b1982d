//! E3 — Figure 6: latency vs. throughput under open-loop load (64 B).
//!
//! Expected shape: below saturation P4CE's latency is ≈ 10% lower than
//! Mu's; Mu's latency blows up past ≈ 1.2 M/s (2 replicas) or ≈ 0.6 M/s
//! (4 replicas) where its leader CPU saturates, while P4CE stays flat to
//! ≈ 2.3 M/s regardless of the replica count.

use netsim::SimDuration;
use replication::{WorkloadMode, WorkloadSpec};

use crate::report::{fmt_f64, TableRow};
use crate::runner::{run_point, sweep, PointConfig, PointOutcome, System};

/// One point of the latency/throughput curve.
#[derive(Debug, Clone, Copy)]
pub struct LatencyRow {
    /// System under test.
    pub system: System,
    /// Replica count.
    pub replicas: usize,
    /// Offered load, consensus/s.
    pub offered_per_sec: f64,
    /// Achieved decided rate inside the window, consensus/s.
    pub achieved_per_sec: f64,
    /// Mean latency, µs.
    pub mean_latency_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_latency_us: f64,
}

impl TableRow for LatencyRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "system",
            "replicas",
            "offered_per_s",
            "achieved_per_s",
            "mean_latency_us",
            "p99_latency_us",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.system.to_string(),
            self.replicas.to_string(),
            fmt_f64(self.offered_per_sec),
            fmt_f64(self.achieved_per_sec),
            fmt_f64(self.mean_latency_us),
            fmt_f64(self.p99_latency_us),
        ]
    }
}

/// The default offered-load sweep (consensus/s).
pub fn default_rates() -> Vec<f64> {
    vec![
        100e3, 200e3, 400e3, 600e3, 800e3, 1.0e6, 1.2e6, 1.4e6, 1.8e6, 2.2e6, 2.4e6,
    ]
}

/// The full list of point configurations for the sweep, in row order.
pub fn configs(rates: &[f64], replica_counts: &[usize], window: SimDuration) -> Vec<PointConfig> {
    let mut cfgs = Vec::new();
    for &replicas in replica_counts {
        for &system in &[System::Mu, System::P4ce] {
            for &rate in rates {
                let mut cfg =
                    PointConfig::new(system, replicas, WorkloadSpec::open_loop(rate, 64, 0));
                cfg.window = window;
                cfg.warmup = SimDuration::from_millis(3);
                cfgs.push(cfg);
            }
        }
    }
    cfgs
}

fn to_row(cfg: &PointConfig, out: &PointOutcome) -> LatencyRow {
    let WorkloadMode::OpenLoop { rate_per_sec } = cfg.workload.mode else {
        unreachable!("fig6 points are open-loop by construction")
    };
    LatencyRow {
        system: cfg.system,
        replicas: cfg.replicas,
        offered_per_sec: rate_per_sec,
        achieved_per_sec: out.ops_per_sec,
        mean_latency_us: out.mean_latency_us,
        p99_latency_us: out.p99_latency_us,
    }
}

/// Runs the latency-vs-throughput sweep across `threads` worker
/// threads. Every point is an isolated virtual-time simulation, so the
/// rows are identical on any thread count.
pub fn run(
    rates: &[f64],
    replica_counts: &[usize],
    window: SimDuration,
    threads: usize,
) -> Vec<LatencyRow> {
    let cfgs = configs(rates, replica_counts, window);
    let outs = sweep(&cfgs, threads, run_point);
    cfgs.iter().zip(&outs).map(|(c, o)| to_row(c, o)).collect()
}

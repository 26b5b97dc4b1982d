//! E1 — Figure 5: write goodput vs. item size, Mu vs. P4CE, 2 and 4
//! replicas.
//!
//! Expected shape (paper §V-C): P4CE ≈ 2× Mu with 2 replicas, ≈ 4× with
//! 4; P4CE saturates the link (≈ 11 GB/s goodput of 12.5 GB/s raw) from
//! ≈ 500 B values, while Mu divides the leader's link by the replica
//! count.

use netsim::SimDuration;
use replication::WorkloadSpec;

use crate::report::{fmt_f64, TableRow};
use crate::runner::{run_point, sweep, PointConfig, PointOutcome, System};

/// One measured point of Figure 5.
#[derive(Debug, Clone, Copy)]
pub struct GoodputRow {
    /// System under test.
    pub system: System,
    /// Replica count.
    pub replicas: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Measured goodput in GB/s (useful payload bytes).
    pub goodput_gbps: f64,
    /// Decided operations per second.
    pub ops_per_sec: f64,
}

impl TableRow for GoodputRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "system",
            "replicas",
            "value_size_B",
            "goodput_GBps",
            "consensus_per_s",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.system.to_string(),
            self.replicas.to_string(),
            self.value_size.to_string(),
            fmt_f64(self.goodput_gbps),
            fmt_f64(self.ops_per_sec),
        ]
    }
}

/// The value sizes swept (bytes).
pub fn default_sizes() -> Vec<usize> {
    vec![64, 128, 256, 512, 1024, 2048, 4096, 8192]
}

/// The full list of point configurations for the sweep, in row order.
pub fn configs(sizes: &[usize], replica_counts: &[usize], window: SimDuration) -> Vec<PointConfig> {
    let mut cfgs = Vec::new();
    for &replicas in replica_counts {
        for &system in &[System::Mu, System::P4ce] {
            for &size in sizes {
                let mut cfg = PointConfig::new(system, replicas, WorkloadSpec::closed(16, size, 0));
                cfg.window = window;
                cfgs.push(cfg);
            }
        }
    }
    cfgs
}

fn to_row(cfg: &PointConfig, out: &PointOutcome) -> GoodputRow {
    GoodputRow {
        system: cfg.system,
        replicas: cfg.replicas,
        value_size: cfg.workload.value_size,
        goodput_gbps: out.goodput_bytes_per_sec / 1e9,
        ops_per_sec: out.ops_per_sec,
    }
}

/// Runs the full Figure 5 sweep across `threads` worker threads. Every
/// point is an isolated virtual-time simulation, so the rows are
/// identical on any thread count.
pub fn run(
    sizes: &[usize],
    replica_counts: &[usize],
    window: SimDuration,
    threads: usize,
) -> Vec<GoodputRow> {
    let cfgs = configs(sizes, replica_counts, window);
    let outs = sweep(&cfgs, threads, run_point);
    cfgs.iter().zip(&outs).map(|(c, o)| to_row(c, o)).collect()
}

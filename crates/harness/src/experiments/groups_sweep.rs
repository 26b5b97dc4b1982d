//! E9 — groups sweep: aggregate goodput and tail latency of the sharded
//! KV service as consensus groups are added behind one switch pipeline.
//!
//! Expected shape: aggregate goodput scales near-linearly with the group
//! count while each group's packets have a parser slice to themselves,
//! then hits a knee once the offered packet rate saturates the pooled
//! parser slices (the sweep pins `parser_slices` low so the knee appears
//! at CI-affordable group counts); past the knee p99 latency climbs as
//! ingress queues at the shared slices grow.

use netsim::SimDuration;

use crate::report::{fmt_f64, TableRow};
use crate::runner::sweep;
use crate::shard::{run_sharded_point, ShardedOutcome, ShardedPointConfig};

/// One group-count point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct GroupsRow {
    /// Consensus groups sharing the switch.
    pub groups: usize,
    /// Aggregate decided rate across all groups, consensus/s.
    pub aggregate_ops_per_sec: f64,
    /// Aggregate goodput across all groups, bytes/s.
    pub aggregate_goodput_bytes_per_sec: f64,
    /// Worst per-group p99 decision latency, µs.
    pub p99_latency_us: f64,
    /// Slowest single group's decided rate, consensus/s — collapses
    /// first at the knee.
    pub min_group_ops_per_sec: f64,
    /// Groups still on the in-network path at window end.
    pub accelerated_groups: usize,
    /// Simulator events processed (virtual-time cost of the point).
    pub events: u64,
}

impl TableRow for GroupsRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "groups",
            "aggregate_ops_per_s",
            "aggregate_goodput_Bps",
            "p99_latency_us",
            "min_group_ops_per_s",
            "accelerated",
            "events",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.groups.to_string(),
            fmt_f64(self.aggregate_ops_per_sec),
            fmt_f64(self.aggregate_goodput_bytes_per_sec),
            fmt_f64(self.p99_latency_us),
            fmt_f64(self.min_group_ops_per_sec),
            self.accelerated_groups.to_string(),
            self.events.to_string(),
        ]
    }
}

/// The default group-count scan.
pub fn default_group_counts() -> Vec<usize> {
    vec![1, 2, 3, 4, 6, 8]
}

/// The point configurations for the sweep, in row order. Parser slices
/// are pooled (2 per direction) and slowed (×8) so per-parser contention
/// knees within the default scan instead of at hundreds of groups;
/// offered load scales with the group count (open-loop, `groups` writes
/// per 2 µs tick).
pub fn configs(group_counts: &[usize], window: SimDuration) -> Vec<ShardedPointConfig> {
    group_counts
        .iter()
        .map(|&groups| {
            let mut cfg = ShardedPointConfig::new(groups);
            cfg.window = window;
            cfg.parser_slices = Some(2);
            cfg.parser_cost = Some(SimDuration::from_nanos(300));
            cfg
        })
        .collect()
}

fn to_row(cfg: &ShardedPointConfig, out: &ShardedOutcome) -> GroupsRow {
    GroupsRow {
        groups: cfg.groups,
        aggregate_ops_per_sec: out.aggregate_ops_per_sec,
        aggregate_goodput_bytes_per_sec: out.aggregate_goodput_bytes_per_sec,
        p99_latency_us: out.p99_latency_us,
        min_group_ops_per_sec: out
            .per_group
            .iter()
            .map(|g| g.ops_per_sec)
            .fold(f64::INFINITY, f64::min),
        accelerated_groups: out.per_group.iter().filter(|g| g.accelerated).count(),
        events: out.events_processed,
    }
}

/// Runs the groups sweep across `threads` worker threads; the rows are
/// identical on any thread count because every point is an isolated
/// virtual-time simulation.
pub fn run(group_counts: &[usize], window: SimDuration, threads: usize) -> Vec<GroupsRow> {
    let cfgs = configs(group_counts, window);
    let outs = sweep(&cfgs, threads, run_sharded_point);
    cfgs.iter().zip(&outs).map(|(c, o)| to_row(c, o)).collect()
}

/// The group count after which adding a group stopped paying: the first
/// row where each added group contributed less than half of one group's
/// baseline throughput. `None` while still scaling.
pub fn knee(rows: &[GroupsRow]) -> Option<usize> {
    let base = rows.first()?.aggregate_ops_per_sec;
    rows.windows(2)
        .find(|w| {
            let added_groups = (w[1].groups - w[0].groups) as f64;
            let gain = w[1].aggregate_ops_per_sec - w[0].aggregate_ops_per_sec;
            gain < 0.5 * base * added_groups
        })
        .map(|w| w[1].groups)
}

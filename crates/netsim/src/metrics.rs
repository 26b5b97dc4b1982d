//! A unified registry of named counters, gauges and latency summaries.
//!
//! The per-component stat structs (`HostStats`, `MemberStats`, the
//! switch stats) stay the cheap, field-access hot path; a
//! [`MetricsRegistry`] is the *reporting* path: after (or during) a run,
//! each component snapshots its struct into the registry under a dotted
//! metric name (`rdma.retransmit.timeout`, `p4ce.switch.scattered`, …),
//! and reports render one sorted, uniform listing instead of N ad-hoc
//! printouts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::LatencyStats;
use crate::time::SimDuration;

/// The five numbers a report prints of a latency distribution, each
/// exactly what [`LatencyStats`] answers for the same samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// [`LatencyStats::mean`].
    pub mean: SimDuration,
    /// [`LatencyStats::percentile`]`(50.0)`.
    pub p50: SimDuration,
    /// [`LatencyStats::percentile`]`(99.0)`.
    pub p99: SimDuration,
    /// [`LatencyStats::max`].
    pub max: SimDuration,
}

/// Named counters (monotonic totals), gauges (point-in-time values) and
/// latency summaries. There is one latency distribution, the exact
/// [`LatencyStats`] a member records into; the registry keeps the five
/// numbers [`MetricsRegistry::render`] prints of it.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    latencies: BTreeMap<String, LatencySummary>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets counter `name` to `value` (snapshot semantics).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Reads counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Reads gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Sets latency summary `name` to what `stats` answers now.
    pub fn set_latency(&mut self, name: &str, stats: &LatencyStats) {
        // A percentile query sorts in place; the member's recorder is
        // shared, so the copy is what gets sorted.
        let mut sorted = stats.clone();
        let summary = LatencySummary {
            count: stats.len() as u64,
            mean: stats.mean(),
            p50: sorted.percentile(50.0),
            p99: sorted.percentile(99.0),
            max: stats.max(),
        };
        self.latencies.insert(name.to_owned(), summary);
    }

    /// Reads latency summary `name`.
    pub fn latency(&self, name: &str) -> Option<LatencySummary> {
        self.latencies.get(name).copied()
    }

    /// Every registered metric name — counters, gauges and latencies —
    /// sorted and deduplicated. Collision checks (two components mapping
    /// to the same name) diff this against the expected set.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.latencies.keys())
            .cloned()
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Renders everything as `name value` lines in globally sorted name
    /// order — counters, gauges and latencies interleaved by name, not
    /// blocked by type, so a diff of two renders lines up entry for
    /// entry. Latencies show `count/mean/p50/p99/max` in nanoseconds.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for name in self.names() {
            if let Some(v) = self.counters.get(&name) {
                let _ = writeln!(out, "{name} {v}");
            }
            if let Some(v) = self.gauges.get(&name) {
                let _ = writeln!(out, "{name} {v}");
            }
            if let Some(l) = self.latencies.get(&name) {
                let _ = writeln!(
                    out,
                    "{name} count={} mean_ns={} p50_ns={} p99_ns={} max_ns={}",
                    l.count,
                    l.mean.as_nanos(),
                    l.p50.as_nanos(),
                    l.p99.as_nanos(),
                    l.max.as_nanos(),
                );
            }
        }
        out
    }

    /// Renders the counter deltas between two snapshots as sorted
    /// `name +delta` / `name -delta` lines, skipping unchanged counters.
    /// A counter present in only one snapshot is treated as zero in the
    /// other, so appearing and disappearing metrics still show up.
    pub fn render_diff(before: &MetricsRegistry, after: &MetricsRegistry) -> String {
        let mut names: Vec<&str> = before
            .counters
            .keys()
            .chain(after.counters.keys())
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut out = String::new();
        for name in names {
            let b = before.counter(name).unwrap_or(0);
            let a = after.counter(name).unwrap_or(0);
            if a >= b {
                if a > b {
                    let _ = writeln!(out, "{name} +{}", a - b);
                }
            } else {
                let _ = writeln!(out, "{name} -{}", b - a);
            }
        }
        out
    }
}

/// The group dimension of a metric name: `base` scoped to consensus
/// group `group` as `"g{group}.{base}"`. Every component of a sharded
/// deployment routes its snapshot through this so two groups' members
/// with the same node index (`member.0` in group 0 and in group 1) can
/// never collide in one registry.
pub fn group_scoped(group: usize, base: &str) -> String {
    format!("g{group}.{base}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_scoping_separates_same_index_components() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter(&group_scoped(0, "member.0.decided"), 3);
        reg.set_counter(&group_scoped(1, "member.0.decided"), 5);
        assert_eq!(reg.counter("g0.member.0.decided"), Some(3));
        assert_eq!(reg.counter("g1.member.0.decided"), Some(5));
        assert_eq!(reg.names().len(), 2, "no collision");
    }

    #[test]
    fn counters_gauges_latencies_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("rdma.tx.packets", 15);
        reg.set_counter("rdma.rx.packets", 2);
        reg.set_gauge("p4ce.min_credit", 17.0);
        let mut lat = LatencyStats::new();
        lat.record(SimDuration::from_micros(3));
        reg.set_latency("consensus.latency", &lat);
        assert_eq!(reg.counter("rdma.tx.packets"), Some(15));
        assert_eq!(reg.counter("missing"), None);
        assert_eq!(reg.gauge("p4ce.min_credit"), Some(17.0));
        assert_eq!(reg.latency("consensus.latency").map(|l| l.count), Some(1));
        let rendered = reg.render();
        assert!(rendered.contains("rdma.tx.packets 15"));
        assert!(rendered.contains("consensus.latency count=1"));
    }

    #[test]
    fn render_interleaves_types_in_global_name_order() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("b.counter", 1);
        reg.set_gauge("a.gauge", 2.0);
        let mut lat = LatencyStats::new();
        lat.record(SimDuration::from_nanos(5));
        reg.set_latency("c.hist", &lat);
        let rendered = reg.render();
        let lines: Vec<&str> = rendered.lines().collect();
        let names: Vec<&str> = lines
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(
            names,
            ["a.gauge", "b.counter", "c.hist"],
            "sorted across types, not per-type blocks"
        );
    }

    #[test]
    fn render_diff_reports_signed_counter_deltas_only() {
        let mut before = MetricsRegistry::new();
        before.set_counter("decided", 10);
        before.set_counter("unchanged", 4);
        before.set_counter("vanished", 2);
        before.set_gauge("ignored.gauge", 1.0);
        let mut after = MetricsRegistry::new();
        after.set_counter("decided", 25);
        after.set_counter("unchanged", 4);
        after.set_counter("appeared", 7);
        let diff = MetricsRegistry::render_diff(&before, &after);
        assert_eq!(diff, "appeared +7\ndecided +15\nvanished -2\n");
    }
}

//! Measurement helpers: latency distributions and throughput accounting.

use crate::time::{SimDuration, SimTime};

/// A latency sample collection with percentile queries.
///
/// Samples are stored exactly (the experiments collect at most a few million
/// points) and sorted lazily on query.
///
/// ```
/// use netsim::{LatencyStats, SimDuration};
/// let mut s = LatencyStats::new();
/// for us in [1u64, 2, 3, 4, 100] {
///     s.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.percentile(50.0).as_micros_f64(), 3.0);
/// assert_eq!(s.max().as_micros_f64(), 100.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl LatencyStats {
    /// An empty collection.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples_ns.push(latency.as_nanos());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Mean latency. Zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples_ns.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples_ns.iter().map(|&v| v as u128).sum();
        SimDuration::from_nanos((sum / self.samples_ns.len() as u128) as u64)
    }

    /// The `p`-th percentile (nearest-rank). Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples_ns.is_empty() {
            return SimDuration::ZERO;
        }
        self.sort();
        let rank = ((p / 100.0) * self.samples_ns.len() as f64).ceil() as usize;
        let idx = rank.max(1).min(self.samples_ns.len()) - 1;
        SimDuration::from_nanos(self.samples_ns[idx])
    }

    /// Maximum latency. Zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples_ns.iter().copied().max().unwrap_or(0))
    }

    /// Minimum latency. Zero when empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples_ns.iter().copied().min().unwrap_or(0))
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.samples_ns.clear();
        self.sorted = false;
    }
}

/// What a member records decide latencies into: every sample, exactly.
/// (The name the benchmark imports; [`LatencyStats`] is the type.)
pub type LatencyRecorder = LatencyStats;

/// Throughput accounting over a measurement window.
///
/// ```
/// use netsim::{Throughput, SimTime};
/// let mut t = Throughput::starting_at(SimTime::ZERO);
/// t.record(64);
/// t.record(64);
/// assert_eq!(t.ops(), 2);
/// assert_eq!(t.ops_per_sec(SimTime::from_secs(1)), 2.0);
/// assert_eq!(t.goodput_bytes_per_sec(SimTime::from_secs(1)), 128.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Throughput {
    started_at: SimTime,
    ops: u64,
    payload_bytes: u64,
}

impl Throughput {
    /// Starts a measurement window at `start`.
    pub fn starting_at(start: SimTime) -> Self {
        Throughput {
            started_at: start,
            ops: 0,
            payload_bytes: 0,
        }
    }

    /// Records one completed operation carrying `payload_bytes` of useful data.
    pub fn record(&mut self, payload_bytes: u64) {
        self.ops += 1;
        self.payload_bytes += payload_bytes;
    }

    /// Operations completed in the window.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations per second, over `[start, now]`.
    pub fn ops_per_sec(&self, now: SimTime) -> f64 {
        let span = now.saturating_duration_since(self.started_at).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.ops as f64 / span
        }
    }

    /// Goodput (useful bytes per second) over `[start, now]`.
    pub fn goodput_bytes_per_sec(&self, now: SimTime) -> f64 {
        let span = now.saturating_duration_since(self.started_at).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.payload_bytes as f64 / span
        }
    }

    /// Resets the window to start at `now`.
    pub fn reset(&mut self, now: SimTime) {
        *self = Throughput::starting_at(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let mut s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.percentile(99.0), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
        assert_eq!(s.min(), SimDuration::ZERO);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = LatencyStats::new();
        for ns in 1..=100u64 {
            s.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(s.percentile(50.0).as_nanos(), 50);
        assert_eq!(s.percentile(99.0).as_nanos(), 99);
        assert_eq!(s.percentile(100.0).as_nanos(), 100);
        assert_eq!(s.percentile(0.0).as_nanos(), 1);
    }

    #[test]
    fn mean_and_clear() {
        let mut s = LatencyStats::new();
        s.record(SimDuration::from_nanos(10));
        s.record(SimDuration::from_nanos(30));
        assert_eq!(s.mean().as_nanos(), 20);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        let mut s = LatencyStats::new();
        s.record(SimDuration::from_nanos(1));
        let _ = s.percentile(101.0);
    }

    #[test]
    fn throughput_rates() {
        let mut t = Throughput::starting_at(SimTime::from_secs(1));
        for _ in 0..1000 {
            t.record(512);
        }
        let now = SimTime::from_secs(2);
        assert_eq!(t.ops_per_sec(now), 1000.0);
        assert_eq!(t.goodput_bytes_per_sec(now), 512_000.0);
        t.reset(now);
        assert_eq!(t.ops(), 0);
        assert_eq!(t.ops_per_sec(SimTime::from_secs(3)), 0.0);
    }

    #[test]
    fn throughput_zero_window_is_zero() {
        let mut t = Throughput::starting_at(SimTime::from_secs(1));
        t.record(1);
        assert_eq!(t.ops_per_sec(SimTime::from_secs(1)), 0.0);
        assert_eq!(t.goodput_bytes_per_sec(SimTime::ZERO), 0.0);
    }
}

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

    /// Every sample in nanoseconds, in no particular order (recording
    /// order until a percentile query sorts them).
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
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

// Log-linear bucket layout: values 0..16 ns get exact buckets; every
// octave above is split into 16 linear sub-buckets, so the relative
// quantization error is bounded by 1/16 (±3.2% using midpoints).
const HIST_SUB_BITS: u32 = 4;
const HIST_SUB: usize = 1 << HIST_SUB_BITS; // 16
const HIST_BUCKETS: usize = HIST_SUB + (64 - HIST_SUB_BITS as usize) * HIST_SUB;

fn hist_index(v: u64) -> usize {
    if v < HIST_SUB as u64 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros(); // >= HIST_SUB_BITS
        let sub = ((v >> (octave - HIST_SUB_BITS)) as usize) & (HIST_SUB - 1);
        HIST_SUB + (octave - HIST_SUB_BITS) as usize * HIST_SUB + sub
    }
}

/// Midpoint of bucket `idx` (exact for the linear buckets).
fn hist_value(idx: usize) -> u64 {
    if idx < HIST_SUB {
        idx as u64
    } else {
        let octave = HIST_SUB_BITS + ((idx - HIST_SUB) / HIST_SUB) as u32;
        let sub = ((idx - HIST_SUB) % HIST_SUB) as u64;
        let width = 1u64 << (octave - HIST_SUB_BITS);
        (1u64 << octave) + sub * width + width / 2
    }
}

/// A bounded-memory latency distribution: a fixed array of log-linear
/// buckets (16 linear sub-buckets per power of two) instead of every
/// sample. Quantiles carry a ≤ ±3.2% relative quantization error;
/// `mean`, `min`, `max` and `len` are exact. Memory is a fixed ~8 KiB
/// regardless of sample count — use this instead of [`LatencyStats`] in
/// long-running sweeps.
///
/// ```
/// use netsim::{HistogramStats, SimDuration};
/// let mut h = HistogramStats::new();
/// for us in 1..=1000u64 {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.len(), 1000);
/// let p50 = h.percentile(50.0).as_micros_f64();
/// assert!((p50 - 500.0).abs() / 500.0 < 0.04, "p50 ~ 500us, got {p50}");
/// ```
#[derive(Clone)]
pub struct HistogramStats {
    counts: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for HistogramStats {
    fn default() -> Self {
        HistogramStats {
            counts: Box::new([0; HIST_BUCKETS]),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl std::fmt::Debug for HistogramStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramStats")
            .field("count", &self.count)
            .field("min_ns", &self.min_ns)
            .field("max_ns", &self.max_ns)
            .finish_non_exhaustive()
    }
}

impl HistogramStats {
    /// An empty histogram.
    pub fn new() -> Self {
        HistogramStats::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        self.counts[hist_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded (exact).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency (exact). Zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// The `p`-th percentile (nearest-rank over buckets, midpoint
    /// representative, clamped to the exact min/max). Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_nanos(hist_value(idx).clamp(self.min_ns, self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Maximum latency (exact). Zero when empty.
    pub fn max(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Minimum latency (exact). Zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.min_ns)
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
    fn histogram_tracks_exact_within_quantization_error() {
        let mut exact = LatencyStats::new();
        let mut hist = HistogramStats::new();
        // A skewed distribution spanning five decades.
        let mut x = 7u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = 50 + (x >> 40) % 1_000_000;
            exact.record(SimDuration::from_nanos(ns));
            hist.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(hist.len(), exact.len());
        assert_eq!(hist.min(), exact.min(), "min is exact");
        assert_eq!(hist.max(), exact.max(), "max is exact");
        assert_eq!(hist.mean(), exact.mean(), "mean is exact");
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9] {
            let e = exact.percentile(p).as_nanos() as f64;
            let h = hist.percentile(p).as_nanos() as f64;
            assert!(
                (h - e).abs() / e <= 1.0 / 16.0,
                "p{p}: histogram {h} vs exact {e}"
            );
        }
    }

    #[test]
    fn histogram_starts_empty() {
        let mut h = HistogramStats::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        h.record(SimDuration::from_nanos(5));
        assert_eq!(h.percentile(50.0).as_nanos(), 5, "linear buckets are exact");
        h.record(SimDuration::from_micros(1));
        assert_eq!(h.len(), 2);
        assert_eq!(h.min().as_nanos(), 5);
        assert_eq!(h.max().as_nanos(), 1000);
        assert!(!h.is_empty());
    }

    #[test]
    fn hist_buckets_cover_the_full_range() {
        // Index/value are mutually consistent and monotone.
        let mut prev = 0usize;
        for v in [0u64, 1, 15, 16, 17, 255, 256, 1 << 20, u64::MAX] {
            let idx = hist_index(v);
            assert!(idx < HIST_BUCKETS, "index {idx} in range for {v}");
            assert!(idx >= prev, "monotone at {v}");
            prev = idx;
            if v >= 16 {
                let rep = hist_value(idx);
                assert!(
                    (rep as f64 - v as f64).abs() / v as f64 <= 1.0 / 16.0,
                    "representative {rep} close to {v}"
                );
            } else {
                assert_eq!(hist_value(idx), v, "linear bucket exact for {v}");
            }
        }
    }

    #[test]
    fn histogram_overflow_bucket_accounting_is_exact() {
        // The largest representable sample lands in the topmost bucket;
        // count/sum/max stay exact even though the bucket is enormous.
        let mut h = HistogramStats::new();
        h.record(SimDuration::from_nanos(u64::MAX));
        h.record(SimDuration::from_nanos(1));
        assert_eq!(hist_index(u64::MAX), HIST_BUCKETS - 1, "top bucket");
        assert_eq!(h.len(), 2);
        assert_eq!(h.sum_ns, u64::MAX as u128 + 1);
        assert_eq!(h.max().as_nanos(), u64::MAX, "max is exact, not midpoint");
        let p100 = h.percentile(100.0).as_nanos();
        assert!(
            p100 >= u64::MAX - (u64::MAX >> 4),
            "top quantile stays within one sub-bucket of the exact max (got {p100})"
        );
        assert_eq!(h.min().as_nanos(), 1);
    }

    #[test]
    fn histogram_quantiles_at_bucket_boundaries() {
        // Two populated buckets, ten samples each: ranks 1..=10 must
        // resolve to the low bucket, 11..=20 to the high one, with the
        // rank exactly on the boundary (p50 -> rank 10) staying low.
        let mut h = HistogramStats::new();
        for _ in 0..10 {
            h.record(SimDuration::from_nanos(100));
        }
        for _ in 0..10 {
            h.record(SimDuration::from_nanos(200));
        }
        let low = hist_value(hist_index(100)).clamp(100, 200);
        let high = hist_value(hist_index(200)).clamp(100, 200);
        assert!(low < high, "distinct buckets");
        assert_eq!(
            h.percentile(50.0).as_nanos(),
            low,
            "boundary rank stays low"
        );
        assert_eq!(h.percentile(55.0).as_nanos(), high, "next rank crosses");
        assert_eq!(h.percentile(0.0).as_nanos(), low, "rank clamps to 1");
        // Representatives never escape the observed range.
        assert!(h.percentile(50.0).as_nanos() >= h.min().as_nanos());
        assert!(h.percentile(99.0).as_nanos() <= h.max().as_nanos());
    }

    #[test]
    fn throughput_zero_window_is_zero() {
        let mut t = Throughput::starting_at(SimTime::from_secs(1));
        t.record(1);
        assert_eq!(t.ops_per_sec(SimTime::from_secs(1)), 0.0);
        assert_eq!(t.goodput_bytes_per_sec(SimTime::ZERO), 0.0);
    }
}

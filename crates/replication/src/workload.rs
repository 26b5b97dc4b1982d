//! Workload shapes for the evaluation: open-loop rate sweeps (Fig. 6),
//! closed-loop bursts (Fig. 7) and saturating streams (Fig. 5).

use netsim::{SimDuration, SimTime};

/// How client requests arrive at the leader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadMode {
    /// Requests arrive at a fixed rate regardless of completions
    /// (latency-vs-throughput sweeps). Arrivals are evenly spaced — the
    /// paper reports sub-1% variance, so a deterministic spacing matches
    /// its methodology.
    OpenLoop {
        /// Offered load in requests per second.
        rate_per_sec: f64,
    },
    /// A fixed number of requests is kept in flight; a completion
    /// immediately triggers the next request (goodput and burst-latency
    /// experiments).
    Closed {
        /// Outstanding requests to maintain.
        inflight: usize,
    },
}

/// A complete workload description for one experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Arrival process.
    pub mode: WorkloadMode,
    /// Bytes per replicated value.
    pub value_size: usize,
    /// Requests to issue before stopping (0 = unbounded).
    pub total_requests: u64,
    /// Warm-up requests excluded from statistics.
    pub warmup_requests: u64,
}

impl WorkloadSpec {
    /// An open-loop workload at `rate_per_sec` with `value_size`-byte
    /// values.
    pub fn open_loop(rate_per_sec: f64, value_size: usize, total: u64) -> Self {
        WorkloadSpec {
            mode: WorkloadMode::OpenLoop { rate_per_sec },
            value_size,
            total_requests: total,
            warmup_requests: total / 10,
        }
    }

    /// A closed-loop workload maintaining `inflight` outstanding requests.
    pub fn closed(inflight: usize, value_size: usize, total: u64) -> Self {
        WorkloadSpec {
            mode: WorkloadMode::Closed { inflight },
            value_size,
            total_requests: total,
            warmup_requests: total / 10,
        }
    }
}

/// Generates open-loop arrival instants.
#[derive(Debug, Clone)]
pub struct ArrivalClock {
    period_ns: f64,
    issued: u64,
    origin: SimTime,
}

impl ArrivalClock {
    /// Arrivals at `rate_per_sec` starting at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn new(origin: SimTime, rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "invalid arrival rate {rate_per_sec}"
        );
        ArrivalClock {
            period_ns: 1e9 / rate_per_sec,
            issued: 0,
            origin,
        }
    }

    /// The instant of the next arrival.
    pub fn next_arrival(&self) -> SimTime {
        self.origin + SimDuration::from_nanos((self.issued as f64 * self.period_ns) as u64)
    }

    /// Marks one arrival issued and returns the instant of the one after.
    pub fn advance(&mut self) -> SimTime {
        self.issued += 1;
        self.next_arrival()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_spacing_matches_rate() {
        let mut c = ArrivalClock::new(SimTime::ZERO, 1_000_000.0); // 1 M/s
        assert_eq!(c.next_arrival(), SimTime::ZERO);
        let t1 = c.advance();
        assert_eq!(t1.as_nanos(), 1_000);
        let t2 = c.advance();
        assert_eq!(t2.as_nanos(), 2_000);
    }

    #[test]
    fn no_cumulative_drift() {
        // 3 requests per microsecond: per-arrival rounding must not
        // accumulate (computed from the origin, not the previous tick).
        let mut c = ArrivalClock::new(SimTime::ZERO, 3.0e6);
        for _ in 0..3_000 {
            c.advance();
        }
        let t = c.next_arrival().as_nanos();
        assert_eq!(t, 1_000_000, "3000 arrivals at 3/µs take exactly 1 ms");
    }

    #[test]
    fn spec_constructors() {
        let o = WorkloadSpec::open_loop(5e5, 64, 1000);
        assert_eq!(o.warmup_requests, 100);
        assert!(matches!(o.mode, WorkloadMode::OpenLoop { .. }));
        let c = WorkloadSpec::closed(16, 1024, 500);
        assert!(matches!(c.mode, WorkloadMode::Closed { inflight: 16 }));
    }

    #[test]
    #[should_panic(expected = "invalid arrival rate")]
    fn zero_rate_rejected() {
        let _ = ArrivalClock::new(SimTime::ZERO, 0.0);
    }
}

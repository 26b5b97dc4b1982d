//! The noise guard: a fixed pure-integer loop timed before and after
//! every repeat. The loop touches no memory and makes no call, so its
//! time moves only when the host does (another tenant, a frequency
//! step). A repeat bracketed by a calibration more than 15 % off the
//! session's fastest is discarded — an earlier probe of this box saw
//! one point take 3.8–13 s during a noisy spell and 2.1 s ± 3 % otherwise.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stat::median;

/// A repeat is discarded when a bracketing calibration is this far
/// above the session minimum.
pub const TOLERANCE: f64 = 0.15;
/// At most this many repeats are discarded per run; after that the host
/// is taken as it is and `host.noise_pct` tells the reader.
pub const MAX_DISCARDS: u32 = 3;

const ITERATIONS: u64 = 1_000_000;
const PASSES: usize = 3;

/// The fastest of three timed passes over the fixed xorshift loop
/// (about 1 ms each here). One interrupt landing in a pass must not
/// condemn the repeat next to it; a host that has slowed down slows all
/// three.
pub fn calibrate() -> Duration {
    (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..ITERATIONS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed()
        })
        .min()
        .expect("at least one pass")
}

#[derive(Debug)]
pub struct NoiseGuard {
    min_ns: f64,
    samples_ns: Vec<f64>,
    pub discarded: u32,
}

impl NoiseGuard {
    /// Opens a session with a few calibrations so the minimum is not a
    /// single cold sample.
    pub fn new() -> Self {
        let samples_ns: Vec<f64> = (0..5).map(|_| calibrate().as_nanos() as f64).collect();
        NoiseGuard {
            min_ns: samples_ns.iter().copied().fold(f64::INFINITY, f64::min),
            samples_ns,
            discarded: 0,
        }
    }

    fn sample(&mut self) -> f64 {
        let ns = calibrate().as_nanos() as f64;
        self.samples_ns.push(ns);
        self.min_ns = self.min_ns.min(ns);
        ns
    }

    /// Runs `work` between two calibrations. The flag says whether the
    /// host was quiet around it (or the discard allowance is spent).
    pub fn bracket<T>(&mut self, work: impl FnOnce() -> T) -> (T, bool) {
        let before = self.sample();
        let out = work();
        let after = self.sample();
        let quiet = is_quiet(before.max(after), self.min_ns);
        if !quiet && self.discarded < MAX_DISCARDS {
            self.discarded += 1;
            return (out, false);
        }
        (out, true)
    }

    /// Median calibration over the session minimum, as a percentage
    /// above it: 0 on a silent host.
    pub fn noise_pct(&self) -> f64 {
        100.0 * (median(&self.samples_ns) / self.min_ns - 1.0)
    }
}

fn is_quiet(calibration_ns: f64, session_min_ns: f64) -> bool {
    calibration_ns <= session_min_ns * (1.0 + TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_fifteen_percent_of_the_minimum() {
        assert!(is_quiet(1_000.0, 1_000.0));
        assert!(is_quiet(1_150.0, 1_000.0));
        assert!(!is_quiet(1_151.0, 1_000.0));
    }

    #[test]
    fn discards_are_capped() {
        let mut g = NoiseGuard::new();
        // Pretend the session once saw an impossibly fast calibration:
        // every repeat now looks noisy.
        g.min_ns = 1.0;
        let verdicts: Vec<bool> = (0..5).map(|_| g.bracket(|| ()).1).collect();
        assert_eq!(verdicts, vec![false, false, false, true, true]);
        assert_eq!(g.discarded, MAX_DISCARDS);
        assert!(g.noise_pct() > 0.0);
    }
}

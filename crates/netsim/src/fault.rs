//! Link-level fault injection.
//!
//! A [`FaultPlan`] attached to one *directed* link perturbs every frame
//! that direction carries: probabilistic loss, duplication, reordering
//! within a bounded window, uniform extra delay jitter, single-bit
//! payload corruption, and time-bounded partitions. Plans are driven by
//! the simulation's own seeded RNG, so a run with faults is exactly as
//! deterministic as a run without: same seed, same topology, same plans
//! ⇒ same event sequence.
//!
//! Faults act at the wire, after serialization: a lost frame still
//! occupied the link (its serialization time is charged as usual), it
//! just never arrives — matching how a real cable or overwhelmed
//! receiver behaves, and keeping link FIFO timing identical whether or
//! not a plan is installed.
//!
//! One-way failures are modelled by installing a plan on a single
//! direction; for a symmetric failure install the same plan on both
//! directions (see [`crate::Simulation::set_fault_plan`]).

use crate::node::Frame;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// A closed-open time window during which a directed link delivers
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First instant of the outage.
    pub from: SimTime,
    /// First instant after the outage; frames transmitted at or after
    /// this heal point flow again.
    pub until: SimTime,
}

impl Partition {
    /// True while `now` falls inside the outage window.
    pub fn is_active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// Per-directed-link fault schedule.
///
/// The default plan injects nothing; build one up fluently:
///
/// ```
/// use netsim::{FaultPlan, SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .loss(0.02)
///     .duplicate(0.01)
///     .reorder(0.05, SimDuration::from_micros(5))
///     .jitter(SimDuration::from_nanos(300))
///     .partition(SimTime::from_millis(10), SimTime::from_millis(25));
/// assert!(plan.is_partitioned(SimTime::from_millis(12)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability each frame is silently dropped.
    pub loss: f64,
    /// Probability each delivered frame arrives twice.
    pub duplicate: f64,
    /// Probability a delivered frame is held back behind later traffic.
    pub reorder: f64,
    /// Maximum extra hold applied to a reordered frame (drawn uniformly).
    pub reorder_window: SimDuration,
    /// Maximum extra delay applied to every delivered frame (drawn
    /// uniformly in `[0, jitter]`).
    pub jitter: SimDuration,
    /// Probability one random bit of the frame is flipped in transit.
    pub corrupt: f64,
    /// Scheduled outages of this direction.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the per-frame loss probability.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Sets the per-frame duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// With probability `p`, holds a frame back up to `window` beyond its
    /// natural arrival, letting frames sent later overtake it.
    pub fn reorder(mut self, p: f64, window: SimDuration) -> Self {
        self.reorder = p;
        self.reorder_window = window;
        self
    }

    /// Adds a uniform extra delay in `[0, jitter]` to every frame.
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the per-frame single-bit corruption probability.
    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Adds an outage window `[from, until)`.
    pub fn partition(mut self, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(Partition { from, until });
        self
    }

    /// True while some partition window covers `now`.
    pub fn is_partitioned(&self, now: SimTime) -> bool {
        self.partitions.iter().any(|p| p.is_active(now))
    }

    /// Applies the plan to one frame transmitted at `now` that would
    /// naturally arrive at `arrival`, returning the (possibly empty)
    /// deliveries to schedule. Draws from `rng` in a fixed order so the
    /// outcome is a pure function of the RNG stream.
    pub fn apply(
        &self,
        now: SimTime,
        arrival: SimTime,
        frame: Frame,
        rng: &mut Rng,
        stats: &mut FaultStats,
    ) -> Vec<(SimTime, Frame)> {
        if self.is_partitioned(now) {
            stats.partition_dropped += 1;
            return Vec::new();
        }
        if self.loss > 0.0 && rng.gen_bool(self.loss) {
            stats.dropped += 1;
            return Vec::new();
        }
        let mut frame = frame;
        if self.corrupt > 0.0 && rng.gen_bool(self.corrupt) && !frame.is_empty() {
            let mut raw = frame.to_vec();
            let bit = rng.gen_index(raw.len() * 8);
            raw[bit / 8] ^= 1 << (bit % 8);
            frame = Frame::from(raw);
            stats.corrupted += 1;
        }
        let mut at = arrival;
        if self.jitter > SimDuration::ZERO {
            at += SimDuration::from_nanos(rng.gen_range(0..self.jitter.as_nanos() + 1));
        }
        if self.reorder > 0.0 && rng.gen_bool(self.reorder) {
            let window = self.reorder_window.as_nanos();
            if window > 0 {
                at += SimDuration::from_nanos(rng.gen_range(0..window + 1));
                stats.reordered += 1;
            }
        }
        let mut out = Vec::with_capacity(2);
        if self.duplicate > 0.0 && rng.gen_bool(self.duplicate) {
            // The copy trails the original by a fresh jitter-scale draw,
            // as a retransmitting middlebox would produce.
            let lag = self.jitter.max(SimDuration::from_nanos(100));
            let copy_at = at + SimDuration::from_nanos(rng.gen_range(1..lag.as_nanos() + 1));
            out.push((copy_at, frame.clone()));
            stats.duplicated += 1;
        }
        out.push((at, frame));
        out
    }
}

/// Counters of injected faults on one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped by the loss probability.
    pub dropped: u64,
    /// Frames dropped inside a partition window.
    pub partition_dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back past their natural arrival.
    pub reordered: u64,
    /// Frames with a flipped bit.
    pub corrupted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(len: usize) -> Frame {
        Frame::from(vec![0xA5u8; len])
    }

    #[test]
    fn empty_plan_is_transparent() {
        let plan = FaultPlan::new();
        let mut rng = Rng::new(1);
        let mut stats = FaultStats::default();
        let arrival = SimTime::from_nanos(500);
        let out = plan.apply(SimTime::ZERO, arrival, frame(64), &mut rng, &mut stats);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, arrival);
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn certain_loss_drops_everything() {
        let plan = FaultPlan::new().loss(1.0);
        let mut rng = Rng::new(1);
        let mut stats = FaultStats::default();
        for _ in 0..10 {
            let out = plan.apply(
                SimTime::ZERO,
                SimTime::from_nanos(10),
                frame(64),
                &mut rng,
                &mut stats,
            );
            assert!(out.is_empty());
        }
        assert_eq!(stats.dropped, 10);
    }

    #[test]
    fn partition_windows_bound_the_outage() {
        let plan = FaultPlan::new().partition(SimTime::from_nanos(100), SimTime::from_nanos(200));
        let mut rng = Rng::new(1);
        let mut stats = FaultStats::default();
        let deliver = |now: u64, rng: &mut Rng, stats: &mut FaultStats| -> usize {
            let t = SimTime::from_nanos(now);
            plan.apply(t, t + SimDuration::from_nanos(5), frame(8), rng, stats)
                .len()
        };
        assert_eq!(deliver(99, &mut rng, &mut stats), 1);
        assert_eq!(deliver(100, &mut rng, &mut stats), 0);
        assert_eq!(deliver(199, &mut rng, &mut stats), 0);
        assert_eq!(deliver(200, &mut rng, &mut stats), 1);
        assert_eq!(stats.partition_dropped, 2);
    }

    #[test]
    fn duplication_yields_two_ordered_copies() {
        let plan = FaultPlan::new().duplicate(1.0);
        let mut rng = Rng::new(3);
        let mut stats = FaultStats::default();
        let arrival = SimTime::from_nanos(50);
        let out = plan.apply(SimTime::ZERO, arrival, frame(16), &mut rng, &mut stats);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|(t, _)| *t == arrival));
        assert!(out.iter().any(|(t, _)| *t > arrival));
        assert_eq!(stats.duplicated, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let plan = FaultPlan::new().corrupt(1.0);
        let mut rng = Rng::new(4);
        let mut stats = FaultStats::default();
        let original = frame(32);
        let out = plan.apply(
            SimTime::ZERO,
            SimTime::from_nanos(5),
            original.clone(),
            &mut rng,
            &mut stats,
        );
        assert_eq!(out.len(), 1);
        let delivered = &out[0].1;
        let differing_bits: u32 = original
            .to_vec()
            .iter()
            .zip(delivered.to_vec().iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing_bits, 1);
        assert_eq!(stats.corrupted, 1);
    }

    #[test]
    fn jitter_and_reorder_only_delay() {
        let plan = FaultPlan::new()
            .jitter(SimDuration::from_nanos(100))
            .reorder(1.0, SimDuration::from_nanos(1000));
        let mut rng = Rng::new(5);
        let mut stats = FaultStats::default();
        let arrival = SimTime::from_nanos(40);
        for _ in 0..50 {
            let out = plan.apply(SimTime::ZERO, arrival, frame(8), &mut rng, &mut stats);
            assert_eq!(out.len(), 1);
            assert!(out[0].0 >= arrival);
            assert!(out[0].0 <= arrival + SimDuration::from_nanos(1100));
        }
        assert_eq!(stats.reordered, 50);
    }

    #[test]
    fn identical_rng_streams_replay_identically() {
        let plan = FaultPlan::new()
            .loss(0.3)
            .duplicate(0.2)
            .reorder(0.4, SimDuration::from_nanos(700))
            .jitter(SimDuration::from_nanos(90))
            .corrupt(0.1);
        let run = || {
            let mut rng = Rng::new(99);
            let mut stats = FaultStats::default();
            let mut trace = Vec::new();
            for i in 0..200u64 {
                let now = SimTime::from_nanos(i * 10);
                let out = plan.apply(
                    now,
                    now + SimDuration::from_nanos(7),
                    frame(24),
                    &mut rng,
                    &mut stats,
                );
                trace.push(
                    out.iter()
                        .map(|(t, f)| (t.as_nanos(), f.len()))
                        .collect::<Vec<_>>(),
                );
            }
            (trace, stats)
        };
        assert_eq!(run(), run());
    }
}

//! Link and bandwidth modelling.
//!
//! Every link direction is modelled as a serializing FIFO: a frame occupies
//! the transmitter for `wire_size / bandwidth` and then propagates for a
//! fixed delay. Contention therefore emerges naturally — a leader that must
//! send `n` copies of a value serializes them back-to-back on its single
//! uplink, which is exactly the bottleneck P4CE removes.

use crate::time::{SimDuration, SimTime};

/// Layer-1 overhead added to every Ethernet frame on the wire:
/// preamble + SFD (8 B), frame check sequence (4 B), inter-frame gap (12 B).
pub const WIRE_OVERHEAD_BYTES: usize = 24;

/// Link bandwidth, stored as bits per nanosecond to keep the serialization
/// delay computation exact-ish and fast.
///
/// ```
/// use netsim::Bandwidth;
/// let bw = Bandwidth::from_gbps(100.0);
/// // 1250 bytes = 10_000 bits -> 100 ns at 100 Gbit/s.
/// assert_eq!(bw.serialization_delay(1250).as_nanos(), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    bits_per_ns: f64,
}

impl Bandwidth {
    /// Builds a bandwidth from gigabits per second.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not finite and positive.
    pub fn from_gbps(gbps: f64) -> Self {
        assert!(gbps.is_finite() && gbps > 0.0, "invalid bandwidth: {gbps}");
        Bandwidth {
            bits_per_ns: gbps, // 1 Gbit/s == 1 bit/ns
        }
    }

    /// Bytes per second carried at this rate.
    pub fn bytes_per_sec(self) -> f64 {
        self.bits_per_ns * 1e9 / 8.0
    }

    /// Time to clock `bytes` onto the wire at this rate (rounded up to a
    /// whole nanosecond, minimum 1 ns for non-empty frames).
    pub fn serialization_delay(self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let ns = (bytes as f64 * 8.0 / self.bits_per_ns).ceil() as u64;
        SimDuration::from_nanos(ns.max(1))
    }
}

/// Static parameters of a (full-duplex, symmetric) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in each direction.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub propagation: SimDuration,
}

impl LinkSpec {
    /// A 100 Gbit/s datacenter cable with the given propagation delay —
    /// the links used in the paper's testbed (§V-A).
    pub fn hundred_gbe(propagation: SimDuration) -> Self {
        LinkSpec {
            bandwidth: Bandwidth::from_gbps(100.0),
            propagation,
        }
    }
}

impl Default for LinkSpec {
    /// 100 GbE with 200 ns propagation (≈ 40 m of fiber), a typical
    /// top-of-rack distance.
    fn default() -> Self {
        LinkSpec::hundred_gbe(SimDuration::from_nanos(200))
    }
}

/// Mutable state of one direction of a link.
#[derive(Debug, Clone)]
pub(crate) struct DirLink {
    pub spec: LinkSpec,
    /// The instant the transmitter finishes clocking out its current queue.
    pub busy_until: SimTime,
    /// Cumulative wire bytes transmitted (including [`WIRE_OVERHEAD_BYTES`]).
    pub wire_bytes: u64,
    /// Cumulative frames transmitted.
    pub frames: u64,
}

impl DirLink {
    pub fn new(spec: LinkSpec) -> Self {
        DirLink {
            spec,
            busy_until: SimTime::ZERO,
            wire_bytes: 0,
            frames: 0,
        }
    }

    /// Enqueues a frame of `payload_bytes` for transmission at `now`;
    /// returns the arrival instant at the far end.
    pub fn transmit(&mut self, now: SimTime, payload_bytes: usize) -> SimTime {
        let wire = payload_bytes + WIRE_OVERHEAD_BYTES;
        let start = now.max(self.busy_until);
        let done = start + self.spec.bandwidth.serialization_delay(wire);
        self.busy_until = done;
        self.wire_bytes += wire as u64;
        self.frames += 1;
        done + self.spec.propagation
    }
}

/// Read-only transmission statistics for one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Total bytes clocked onto the wire, including layer-1 overhead.
    pub wire_bytes: u64,
    /// Total frames transmitted.
    pub frames: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_matches_line_rate() {
        let bw = Bandwidth::from_gbps(100.0);
        // A full 1500 B MTU frame + 24 B overhead = 1524 B = 12192 bits.
        assert_eq!(bw.serialization_delay(1524).as_nanos(), 122);
        assert_eq!(bw.serialization_delay(0), SimDuration::ZERO);
        // Tiny frames still take at least a nanosecond.
        assert_eq!(
            Bandwidth::from_gbps(400.0)
                .serialization_delay(1)
                .as_nanos(),
            1
        );
    }

    #[test]
    fn fifo_backpressure_accumulates() {
        let mut dl = DirLink::new(LinkSpec {
            bandwidth: Bandwidth::from_gbps(8.0), // 1 byte/ns
            propagation: SimDuration::from_nanos(100),
        });
        let t0 = SimTime::ZERO;
        // 76 byte payload + 24 overhead = 100 ns serialization.
        let a1 = dl.transmit(t0, 76);
        let a2 = dl.transmit(t0, 76);
        assert_eq!(a1.as_nanos(), 200); // 100 ser + 100 prop
        assert_eq!(a2.as_nanos(), 300); // queued behind the first
        assert_eq!(dl.frames, 2);
        assert_eq!(dl.wire_bytes, 200);
    }

    #[test]
    fn idle_link_transmits_immediately() {
        let mut dl = DirLink::new(LinkSpec::default());
        let late = SimTime::from_micros(50);
        let arr = dl.transmit(late, 1000);
        // 1024 B wire at 100 Gbit/s = 82 ns (ceil), + 200 ns propagation.
        assert_eq!(arr, late + SimDuration::from_nanos(82 + 200));
    }

    #[test]
    fn hundred_gbe_helper() {
        let spec = LinkSpec::hundred_gbe(SimDuration::from_nanos(5));
        assert_eq!(spec.propagation.as_nanos(), 5);
        assert!((spec.bandwidth.bytes_per_sec() - 12.5e9).abs() < 1.0);
    }
}

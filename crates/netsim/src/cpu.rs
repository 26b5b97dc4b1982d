//! A single-core CPU resource model.
//!
//! The paper's §V-C/§V-D results hinge on the leader's CPU being the
//! bottleneck for small values: Mu's leader posts one RDMA write and reaps
//! one completion *per replica*, while P4CE's leader does one of each *per
//! consensus*. We model the CPU as a serializing resource: each operation
//! occupies it for a fixed cost, and work queues behind the busy period.

use crate::time::{SimDuration, SimTime};

/// A serializing CPU: operations execute one at a time, each occupying the
/// core for its cost.
///
/// ```
/// use netsim::{Cpu, SimTime, SimDuration};
/// let mut cpu = Cpu::new();
/// let t0 = SimTime::ZERO;
/// let a = cpu.run(t0, SimDuration::from_nanos(210));
/// let b = cpu.run(t0, SimDuration::from_nanos(210));
/// assert_eq!(a.as_nanos(), 210);
/// assert_eq!(b.as_nanos(), 420); // queued behind the first op
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    busy_until: SimTime,
    busy_time: SimDuration,
    ops: u64,
}

impl Cpu {
    /// A fresh, idle CPU.
    pub fn new() -> Self {
        Cpu::default()
    }

    /// Schedules an operation of duration `cost` issued at `now`; returns
    /// the instant the operation completes. Operations serialize.
    pub fn run(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.busy_until);
        let done = start + cost;
        self.busy_until = done;
        self.busy_time += cost;
        self.ops += 1;
        done
    }

    /// The instant the CPU becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated (for utilization reporting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of operations executed.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_starts_immediately() {
        let mut cpu = Cpu::new();
        let done = cpu.run(SimTime::from_nanos(100), SimDuration::from_nanos(50));
        assert_eq!(done.as_nanos(), 150);
    }

    #[test]
    fn ops_serialize() {
        let mut cpu = Cpu::new();
        let t = SimTime::ZERO;
        let c = SimDuration::from_nanos(210);
        let mut last = SimTime::ZERO;
        for i in 1..=10 {
            last = cpu.run(t, c);
            assert_eq!(last.as_nanos(), 210 * i);
        }
        assert_eq!(cpu.ops(), 10);
        assert_eq!(cpu.busy_time(), SimDuration::from_nanos(2100));
        assert_eq!(cpu.busy_until(), last);
    }
}

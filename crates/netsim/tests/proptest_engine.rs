//! Property-based tests of the discrete-event engine's invariants.

use netsim::{
    Bandwidth, Context, Frame, LatencyStats, LinkSpec, Node, PortId, SimDuration, SimTime,
    Simulation, Slab, Throughput, TimerToken,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Sends frames of the given sizes back-to-back at start.
struct Burst {
    sizes: Vec<usize>,
}
impl Node for Burst {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for &s in &self.sizes {
            ctx.send(PortId::FIRST, vec![0u8; s].into());
        }
    }
    fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {}
}

/// Records (arrival time, length) of everything it receives.
struct Sink {
    got: Vec<(SimTime, usize)>,
}
impl Node for Sink {
    fn on_frame(&mut self, _p: PortId, f: Frame, ctx: &mut Context<'_>) {
        self.got.push((ctx.now, f.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Links are FIFOs: frames arrive in send order, never overlapping
    /// faster than the line rate allows.
    #[test]
    fn links_are_fifo_and_respect_line_rate(
        sizes in prop::collection::vec(1usize..3000, 1..40),
        gbps in 1.0f64..400.0,
        prop_ns in 0u64..10_000,
    ) {
        let mut sim = Simulation::new(7);
        let tx = sim.add_node(Box::new(Burst { sizes: sizes.clone() }));
        let rx = sim.add_node(Box::new(Sink { got: vec![] }));
        sim.connect(
            tx,
            rx,
            LinkSpec {
                bandwidth: Bandwidth::from_gbps(gbps),
                propagation: SimDuration::from_nanos(prop_ns),
            },
        );
        sim.run_to_completion();
        let got = &sim.node_ref::<Sink>(rx).got;
        prop_assert_eq!(got.len(), sizes.len());
        // Order preserved.
        for (i, &(_, len)) in got.iter().enumerate() {
            prop_assert_eq!(len, sizes[i]);
        }
        // Inter-arrival gaps at least the serialization time of each
        // frame (incl. 24 B layer-1 overhead).
        let bw = Bandwidth::from_gbps(gbps);
        for w in got.windows(2) {
            let gap = w[1].0.duration_since(w[0].0);
            let min_gap = bw.serialization_delay(w[1].1 + 24);
            prop_assert!(gap >= min_gap, "gap {gap} < serialization {min_gap}");
        }
        // Total wall time at least total serialization.
        let total_bytes: usize = sizes.iter().map(|s| s + 24).sum();
        let last = got.last().expect("non-empty").0;
        prop_assert!(
            last >= SimTime::ZERO + bw.serialization_delay(total_bytes),
            "finished before the line could have carried the bytes"
        );
    }

    /// LatencyStats percentiles agree with a naive sorted-vector model.
    #[test]
    fn percentiles_match_naive_model(
        mut samples in prop::collection::vec(1u64..1_000_000, 1..500),
        p in 0.0f64..100.0,
    ) {
        let mut stats = LatencyStats::new();
        for &s in &samples {
            stats.record(SimDuration::from_nanos(s));
        }
        samples.sort_unstable();
        let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
        let idx = rank.max(1).min(samples.len()) - 1;
        prop_assert_eq!(stats.percentile(p).as_nanos(), samples[idx]);
        // Mean is between min and max.
        let mean = stats.mean().as_nanos();
        prop_assert!(mean >= samples[0] && mean <= *samples.last().expect("non-empty"));
    }

    /// A slab is a map from the ids it hands out to what was parked:
    /// ids are unique among live entries, a taken entry is gone, and the
    /// newest vacated slot is the next one reused.
    #[test]
    fn slab_matches_a_map_model(
        ops in prop::collection::vec(
            (0u8..3, any::<prop::sample::Index>(), any::<u64>()),
            1..300,
        ),
    ) {
        let mut slab = Slab::new();
        let mut model: HashMap<u32, u64> = HashMap::new();
        // Ids in the order they were handed out fresh, and vacated.
        let mut fresh: Vec<u32> = Vec::new();
        let mut vacated: Vec<u32> = Vec::new();
        for (kind, pick, value) in ops {
            match kind {
                0 => {
                    let id = slab.put(value);
                    prop_assert!(!model.contains_key(&id), "id {id} is live");
                    match vacated.pop() {
                        Some(newest) => prop_assert_eq!(id, newest),
                        None => {
                            prop_assert_eq!(id as usize, fresh.len());
                            fresh.push(id);
                        }
                    }
                    model.insert(id, value);
                }
                1 if !fresh.is_empty() => {
                    let id = fresh[pick.index(fresh.len())];
                    let taken = slab.take(id);
                    prop_assert_eq!(taken, model.remove(&id));
                    if taken.is_some() {
                        vacated.push(id);
                    }
                    prop_assert_eq!(slab.take(id), None, "a second take");
                }
                2 if !fresh.is_empty() => {
                    let id = fresh[pick.index(fresh.len())];
                    if let Some(parked) = slab.get_mut(id) {
                        *parked ^= value;
                    }
                    if let Some(parked) = model.get_mut(&id) {
                        *parked ^= value;
                    }
                    prop_assert_eq!(slab.get(id), model.get(&id));
                }
                _ => {}
            }
        }
        prop_assert_eq!(slab.take(fresh.len() as u32), None, "never handed out");
        for (id, value) in model {
            prop_assert_eq!(slab.take(id), Some(value));
        }
    }

    /// Throughput accounting is exact.
    #[test]
    fn throughput_accounting_is_exact(
        ops in prop::collection::vec(1u64..10_000, 1..200),
        window_us in 1u64..1_000_000,
    ) {
        let start = SimTime::from_micros(5);
        let mut t = Throughput::starting_at(start);
        let mut bytes = 0u64;
        for &b in &ops {
            t.record(b);
            bytes += b;
        }
        let now = start + SimDuration::from_micros(window_us);
        let secs = window_us as f64 / 1e6;
        prop_assert!((t.ops_per_sec(now) - ops.len() as f64 / secs).abs() < 1e-6 * ops.len() as f64 / secs + 1e-9);
        prop_assert!((t.goodput_bytes_per_sec(now) - bytes as f64 / secs).abs() < 1e-6 * bytes as f64 / secs + 1e-9);
    }

    /// Timers fire exactly when scheduled, in order, with FIFO
    /// tie-breaking.
    #[test]
    fn timers_fire_in_schedule_order(delays in prop::collection::vec(0u64..100_000, 1..100)) {
        struct Timers {
            delays: Vec<u64>,
            fired: Vec<(SimTime, u64)>,
        }
        impl Node for Timers {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for (i, &d) in self.delays.iter().enumerate() {
                    ctx.schedule(SimDuration::from_nanos(d), TimerToken(i as u64));
                }
            }
            fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {}
            fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
                self.fired.push((ctx.now, token.0));
            }
        }
        let mut sim = Simulation::new(1);
        let n = sim.add_node(Box::new(Timers {
            delays: delays.clone(),
            fired: vec![],
        }));
        sim.run_to_completion();
        let fired = &sim.node_ref::<Timers>(n).fired;
        prop_assert_eq!(fired.len(), delays.len());
        // Every timer fired at its exact instant.
        for &(at, token) in fired {
            prop_assert_eq!(at.as_nanos(), delays[token as usize]);
        }
        // Global order is by time, ties by insertion index.
        for w in fired.windows(2) {
            let (t0, i0) = w[0];
            let (t1, i1) = w[1];
            prop_assert!(t0 < t1 || (t0 == t1 && i0 < i1));
        }
    }
}

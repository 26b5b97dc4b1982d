//! What the benchmark runs and what it reports: the six workloads, the
//! inputs each one generates from `--seed`, and the metric tables that
//! `BENCHMARK.json` mirrors (a unit test in `manifest.rs` holds the two
//! together).
//!
//! The library never sees the seed as such: it receives the generated
//! configs — a simulation seed, a cable length, kill instants, a Zipf
//! stream — and nothing that names a workload.

use crate::stat::Slo;
use crate::sut::{
    ChaosSpec, FailoverConfig, LinkSpec, ShardedPointConfig, SimDuration, System, WorkloadSpec,
};

/// The six workloads. Names are final: later PRs are compared row by
/// row against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallClosed,
    LargeClosed,
    MuFanout,
    OpenRateLadder,
    LeaderKill,
    ShardedKv,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SmallClosed,
        Workload::LargeClosed,
        Workload::MuFanout,
        Workload::OpenRateLadder,
        Workload::LeaderKill,
        Workload::ShardedKv,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallClosed => "small_closed",
            Workload::LargeClosed => "large_closed",
            Workload::MuFanout => "mu_fanout",
            Workload::OpenRateLadder => "open_rate_ladder",
            Workload::LeaderKill => "leader_kill",
            Workload::ShardedKv => "sharded_kv",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (copied into
    /// `BENCHMARK.json`; at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SmallClosed => {
                "P4CE, 64 B values, closed loop: per-packet cost dominates and every layer of the \
                 accelerated path is touched once per decide (the paper's 2.3 M/s point)"
            }
            Workload::LargeClosed => {
                "P4CE, 8 KiB values, closed loop: byte-bound (segmentation, ICRC, copies, log \
                 writes); a header-path win must not move it, a copy or alloc win shows here first"
            }
            Workload::MuFanout => {
                "Mu baseline, 64 B: bypasses p4ce-switch and core, the switch only forwards and \
                 the leader fans out over n QPs; a P4CE-path gain that costs the direct path shows"
            }
            Workload::OpenRateLadder => {
                "P4CE open loop at 7 fixed rates up to past capacity: latency at fixed offered \
                 rates and the highest rate inside the SLO; timer-bound low rungs, queue-bound top"
            }
            Workload::LeaderKill => {
                "12 leader kills on a schedule, every second one under a loss+jitter storm: \
                 heartbeat, election, CM and switch reconfiguration, the control path under faults"
            }
            Workload::ShardedKv => {
                "4 groups behind one switch with 2 pooled parser slices, Zipf keys: per-group state \
                 and a shared parser queue at ~85 % load, so queueing shows in the tail"
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEndMetric {
    EndToEndMetric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// The end-to-end metrics, every one defined on every workload (the
/// README says how each workload fills each of them). The first six
/// read the virtual clock — their units say so: `vus`, `vms` and `vs` are
/// microseconds, milliseconds and seconds of simulated time, never to
/// be compared with a host's — and are exact functions of the seed; the
/// last three read the host: the resident set once, the two times slice
/// by slice, keeping each slice's fastest sighting over the repeats.
pub const END_TO_END: [EndToEndMetric; 9] = [
    e2e("decided_per_vsec", "1/vs", true, 0.02),
    e2e("goodput_gbytes_per_vsec", "GB/vs", true, 0.02),
    e2e("decide_latency_p50_us", "vus", false, 0.03),
    e2e("decide_latency_p99_us", "vus", false, 0.15),
    e2e("max_rate_in_slo_per_vsec", "1/vs", true, 0.02),
    e2e("time_to_service_p50_ms", "vms", false, 0.02),
    e2e("wall_ns_per_decided", "ns", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn lower(name: &str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name: name.to_owned(),
        unit,
        higher_is_better: false,
    }
}

fn higher(name: &str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name: name.to_owned(),
        unit,
        higher_is_better: true,
    }
}

/// The six classes a simulator event is attributed to, outside in:
/// which node it is addressed to, and whether a frame or a timer woke it.
pub const STEP_CLASSES: [&str; 6] = [
    "leader_host.frame",
    "leader_host.timer",
    "replica_host.frame",
    "replica_host.timer",
    "switch.frame",
    "switch.timer",
];

/// The layer kernels, in the order they run and are reported.
pub const KERNELS: [&str; 17] = [
    "netsim.wheel.push_pop_ns",
    "netsim.link.serialization_ns",
    "netsim.sim.echo_event_ns",
    "rdma.wire.to_frame_ns",
    "rdma.wire.parse_view_ns",
    "rdma.wire.crc32_ns",
    "rdma.wire.stamp_ns",
    "rdma.qp.post_segment_ack_ns",
    "rdma.qp.receive_sequence_ns",
    "rdma.memory.remote_write_ns",
    "tofino.register.rmw_ns",
    "tofino.table.lookup_ns",
    "tofino.switch.forward_event_ns",
    "replication.log.append_ns",
    "replication.log.drain_ns_per_entry",
    "replication.heartbeat.observe_ns",
    "replication.election.update_ns",
];

/// Every per-layer metric, in report order. A metric that does not
/// apply to a workload (the README has the matrix) reads 0 there.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    // Step attribution (wall): three numbers per event class + residual.
    for class in STEP_CLASSES {
        for (suffix, unit) in [
            ("count_per_decided", "count"),
            ("ns_per_event", "ns"),
            ("share_pct", "%"),
        ] {
            out.push(lower(&format!("step.{class}.{suffix}"), unit));
        }
    }
    out.push(lower("step.residual_share_pct", "%"));
    // Layer kernels (wall ns per call).
    for k in KERNELS {
        out.push(lower(k, "ns"));
    }
    out.extend([
        // Counts per decided value (exact per seed).
        lower("netsim.events_per_decided", "count"),
        lower("netsim.timer_event_share_pct", "%"),
        higher("netsim.events_per_wsec", "1/s"),
        lower("netsim.link.leader_tx_bytes_per_decided", "B"),
        higher("netsim.link.leader_util_pct", "%"),
        lower("rdma.leader.tx_packets_per_decided", "count"),
        lower("rdma.leader.rx_packets_per_decided", "count"),
        lower("rdma.retransmits", "count"),
        lower("rdma.naks_sent", "count"),
        lower("rdma.rx_overflow_drops", "count"),
        lower("rdma.parse_drops", "count"),
        higher("rdma.rx_zero_copy_share_pct", "%"),
        higher("rdma.ack_templated_share_pct", "%"),
        lower("tofino.forwarded_per_decided", "count"),
        lower("tofino.multicast_copies_per_decided", "count"),
        higher("tofino.emitted_patched_share_pct", "%"),
        lower("tofino.parser_overflow_drops", "count"),
        lower("p4ce-switch.scattered_per_decided", "count"),
        lower("p4ce-switch.acks_absorbed_per_decided", "count"),
        lower("p4ce-switch.acks_forwarded_per_decided", "count"),
        lower("p4ce-switch.naks_forwarded", "count"),
        lower("p4ce-switch.stale_credit_skips", "count"),
        lower("p4ce-switch.reconfigs", "count"),
        lower("replication.apply_lag_entries", "count"),
        higher("core.min_credit", "count"),
        lower("core.view_changes", "count"),
        // Virtual stage table (accelerated path).
        lower("stage.post_us", "us"),
        lower("stage.scatter_us", "us"),
        lower("stage.replicate_us", "us"),
        lower("stage.gather_us", "us"),
        lower("stage.decide_us", "us"),
        // Failover phases (virtual, median over the kills).
        lower("failover.detection_ms", "ms"),
        lower("failover.election_ms", "ms"),
        lower("failover.fence_ms", "ms"),
        lower("failover.reaccel_ms", "ms"),
        lower("failover.first_decide_ms", "ms"),
        lower("failover.dip_recovery_ms", "ms"),
        lower("failover.unavailability_max_ms", "ms"),
        // Sharding.
        lower("shard.group_p99_spread_us", "us"),
        lower("shard.hottest_group_share_pct", "%"),
        higher("shard.accelerated_groups", "count"),
        lower("shard.foreign_entries", "count"),
        // Process.
        lower("alloc.count_per_decided", "count"),
        lower("alloc.bytes_per_decided", "B"),
        lower("alloc.live_bytes_at_end", "B"),
        lower("trace.overhead_pct", "%"),
        higher("trace.spans_written", "count"),
        lower("host.noise_pct", "%"),
        lower("host.repeats_discarded", "count"),
    ]);
    out
}

/// How long warm-ups and windows are: the full benchmark, or
/// `--quick`'s ten-times-shorter smoke whose numbers are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    fn scaled(self, full: SimDuration) -> SimDuration {
        match self {
            Scale::Full => full,
            Scale::Quick => SimDuration::from_nanos(full.as_nanos() / 10),
        }
    }
}

/// One measured point on one cluster.
#[derive(Debug, Clone)]
pub struct PointInputs {
    pub system: System,
    /// Replicas besides the leader (the paper's count).
    pub replicas: usize,
    pub workload: WorkloadSpec,
    pub warmup: SimDuration,
    pub window: SimDuration,
    pub seed: u64,
    /// Offered rate for open-loop points; `None` for closed loops.
    pub offered_per_sec: Option<f64>,
}

/// The generated inputs of one workload: what runs, on which cable, and
/// the objective its rates are judged against.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub work: Work,
    /// Every link of every cluster the workload builds.
    pub link: LinkSpec,
    pub slo: Slo,
}

impl Inputs {
    /// Virtual length of the measured windows of one repeat.
    pub fn window_virtual(&self) -> SimDuration {
        let ns: u64 = match &self.work {
            Work::Points { rungs, .. } => rungs.iter().map(|p| p.window.as_nanos()).sum(),
            Work::Kills(kills) => kills
                .iter()
                .map(|k| (k.kill_after + k.observe_for).as_nanos())
                .sum(),
            Work::Sharded(cfg) => cfg.window.as_nanos(),
        };
        SimDuration::from_nanos(ns)
    }
}

#[derive(Debug, Clone)]
pub enum Work {
    /// One or more independent points (a ladder has seven), with the
    /// index of the rung whose latency the workload reports.
    Points {
        rungs: Vec<PointInputs>,
        headline: usize,
    },
    Kills(Vec<FailoverConfig>),
    Sharded(ShardedPointConfig),
}

/// splitmix64: the benchmark's only source of randomness, so a seed
/// always expands to the same inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The default link (100 GbE, 200 ns) with a per-seed cable length:
/// 200–203 ns of propagation. Real racks differ by this much, every
/// virtual latency inherits a few ns of it, and it keeps a virtual time
/// from reading the same to the last digit on every seed.
fn seeded_link(seed: u64) -> LinkSpec {
    let mut s = seed ^ 0x6c69_6e6b; // "link"
    LinkSpec::hundred_gbe(SimDuration::from_nanos(200 + splitmix(&mut s) % 4))
}

/// The open-loop rungs, ops per virtual second. The top one is past the
/// 2.34 M/s capacity so that the SLO pick has a rung to refuse.
pub const LADDER_RATES: [f64; 7] = [0.5e6, 1.0e6, 1.5e6, 2.0e6, 2.2e6, 2.3e6, 2.4e6];
/// The ladder reports its latency at this rung (2.0 M/s).
pub const LADDER_HEADLINE: usize = 3;

/// Kill instants after steady state, ms; each is used with 4 seeds.
const KILL_AFTER_MS: [u64; 3] = [10, 20, 35];

const OPEN: f64 = 0.995;
/// Closed loops offer exactly what they decide: only the latency half
/// of the objective can fail.
const CLOSED: f64 = 0.0;

/// Expands `(workload, seed)` into the inputs handed to the library.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let link = seeded_link(seed);
    let ms = SimDuration::from_millis;
    let point = |system, value_size, spec: WorkloadSpec, window, offered_per_sec| PointInputs {
        system,
        replicas: 4,
        workload: WorkloadSpec { value_size, ..spec },
        warmup: scale.scaled(ms(5)),
        window: scale.scaled(window),
        seed,
        offered_per_sec,
    };
    let closed = WorkloadSpec::closed(16, 64, 0);
    let single = |p: PointInputs| Work::Points {
        rungs: vec![p],
        headline: 0,
    };
    // (what runs, p99 limit in µs, least share decided inside the window)
    let (work, p99_limit_us, min_decided_share) = match workload {
        Workload::SmallClosed => (
            single(point(System::P4ce, 64, closed, ms(40), None)),
            10.0,
            CLOSED,
        ),
        Workload::LargeClosed => (
            single(PointInputs {
                // A value is 130 packets' worth of work: 2 ms of warm-up
                // already fills every queue, and a shorter repeat buys
                // more repeats per run for the noisiest workload.
                warmup: scale.scaled(ms(2)),
                ..point(System::P4ce, 8192, closed, ms(6), None)
            }),
            15.0,
            CLOSED,
        ),
        Workload::MuFanout => (
            single(point(System::Mu, 64, closed, ms(100), None)),
            35.0,
            CLOSED,
        ),
        Workload::OpenRateLadder => (
            Work::Points {
                rungs: LADDER_RATES
                    .iter()
                    .map(|&rate| {
                        let open = WorkloadSpec::open_loop(rate, 64, 0);
                        point(System::P4ce, 64, open, ms(10), Some(rate))
                    })
                    .collect(),
                headline: LADDER_HEADLINE,
            },
            10.0,
            OPEN,
        ),
        Workload::LeaderKill => {
            let mut s = seed ^ 0x6b69_6c6c; // "kill"
            let mut kills = Vec::new();
            for k in 0..4u64 {
                for (j, &after_ms) in KILL_AFTER_MS.iter().enumerate() {
                    // The kill lands anywhere inside a heartbeat period,
                    // so detection time is sampled, not pinned.
                    let after = ms(after_ms) + SimDuration::from_micros(splitmix(&mut s) % 1000);
                    let chaos = (kills.len() % 2 == 1).then(|| storm(seed + k, j as u64));
                    kills.push(FailoverConfig {
                        members: 3,
                        seed: seed + k,
                        kill_after: after,
                        observe_for: scale.scaled(ms(120)).max(ms(60)),
                        sample: false,
                        rate_per_sec: 50_000.0,
                        chaos,
                        ..FailoverConfig::default()
                    });
                }
            }
            if scale == Scale::Quick {
                kills.truncate(2);
            }
            (Work::Kills(kills), 10.0, CLOSED)
        }
        Workload::ShardedKv => (
            Work::Sharded(ShardedPointConfig {
                parser_slices: Some(2),
                // At 300 ns the two slices are saturated and p99 swings
                // between 43 and 90 µs with the key stream; at 250 ns they
                // run at ~85 %: the tail still shows the queue (11.5 µs
                // against 8.8 at 200 ns) and holds to 0.5 % across seeds.
                parser_cost: Some(SimDuration::from_nanos(250)),
                warmup: scale.scaled(ms(2)),
                window: scale.scaled(ms(50)),
                seed,
                ..ShardedPointConfig::new(4)
            }),
            15.0,
            OPEN,
        ),
    };
    Inputs {
        work,
        link,
        slo: Slo {
            p99_limit_us,
            min_decided_share,
        },
    }
}

/// A loss + jitter storm on the victim group's links, installed at the
/// kill: the seeded spec with duplication, reordering, corruption and
/// the partition switched off.
fn storm(seed: u64, salt: u64) -> ChaosSpec {
    ChaosSpec {
        duplicate: 0.0,
        reorder: 0.0,
        corrupt: 0.0,
        partition_from: SimDuration::ZERO,
        partition_until: SimDuration::ZERO,
        ..ChaosSpec::seeded(seed.wrapping_mul(31).wrapping_add(salt), 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stat::valid_metric_name;

    #[test]
    fn every_name_obeys_the_naming_rule_and_is_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let layers = per_layer();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(valid_metric_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn whys_fit_on_one_line() {
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = format!("{:?}", generate(w, 42, Scale::Full));
            let b = format!("{:?}", generate(w, 42, Scale::Full));
            let c = format!("{:?}", generate(w, 7, Scale::Full));
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn leader_kill_is_twelve_kills_half_of_them_stormy() {
        let Work::Kills(kills) = generate(Workload::LeaderKill, 42, Scale::Full).work else {
            panic!("leader_kill generates kills");
        };
        assert_eq!(kills.len(), 12);
        assert_eq!(kills.iter().filter(|k| k.chaos.is_some()).count(), 6);
        for k in &kills {
            if let Some(c) = k.chaos {
                assert!(c.loss > 0.0 && c.duplicate == 0.0 && c.reorder == 0.0);
            }
        }
    }
}

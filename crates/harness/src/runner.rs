//! Generic experiment-point runner: build a cluster (Mu or P4CE), warm it
//! up, measure over a window, collect one outcome.

use netsim::{MetricsRegistry, SimDuration, SimTime, Tracer};
use p4ce::SwitchSetters;
use rdma::Host;
use replication::{ClusterBuilder, Fabric, Member, WorkloadSpec};
use std::fmt;

/// Which replication system a point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The Mu baseline: leader writes each replica's log directly.
    Mu,
    /// P4CE: in-network scatter/gather through the programmable switch.
    P4ce,
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            System::Mu => f.write_str("Mu"),
            System::P4ce => f.write_str("P4CE"),
        }
    }
}

/// Configuration of one measured point.
#[derive(Debug, Clone)]
pub struct PointConfig {
    /// System under test.
    pub system: System,
    /// Number of *replicas* (the paper's terminology; the leader is
    /// extra, so the cluster has `replicas + 1` members).
    pub replicas: usize,
    /// The workload the leader drives. `total_requests` is overridden to
    /// unbounded; measurement is window-based.
    pub workload: WorkloadSpec,
    /// Warm-up time after the leader becomes operational.
    pub warmup: SimDuration,
    /// Measurement window.
    pub window: SimDuration,
    /// Simulation seed.
    pub seed: u64,
    /// Optional override of the switch parser cost (ablation E6).
    pub parser_cost: Option<SimDuration>,
    /// ACK-drop placement for P4CE (ablation E6).
    pub ack_drop: p4ce::AckDropStage,
    /// Record leader latency in bounded log-linear histogram mode
    /// instead of exact per-sample storage. Long sweeps turn this on to
    /// keep memory flat; percentiles then carry ≲ 2% bucket error.
    pub histogram_latency: bool,
    /// Trace sink for the run. Disabled by default, which costs one
    /// branch per instrumentation point; [`crate::tracing`] swaps in an
    /// enabled handle to collect per-instance span records.
    pub tracer: Tracer,
}

impl PointConfig {
    /// A point with default instrumentation settings.
    pub fn new(system: System, replicas: usize, workload: WorkloadSpec) -> Self {
        PointConfig {
            system,
            replicas,
            workload,
            warmup: SimDuration::from_millis(5),
            window: SimDuration::from_millis(20),
            seed: 42,
            parser_cost: None,
            ack_drop: p4ce::AckDropStage::Ingress,
            histogram_latency: false,
            tracer: Tracer::disabled(),
        }
    }
}

/// What one point produced.
///
/// `PartialEq` is implemented manually so sequential and parallel
/// sweeps can be checked for *identical* results: every measured field,
/// including `events_processed`, is a pure function of the
/// [`PointConfig`] in this discrete-event model. Only `threads_used` —
/// provenance about how the sweep ran, not an outcome of the model — is
/// excluded from the comparison.
#[derive(Debug, Clone, Copy)]
pub struct PointOutcome {
    /// Consensus operations decided inside the window.
    pub decided: u64,
    /// Decided operations per second.
    pub ops_per_sec: f64,
    /// Useful (payload) bytes decided per second.
    pub goodput_bytes_per_sec: f64,
    /// Mean decision latency, µs.
    pub mean_latency_us: f64,
    /// Median decision latency, µs.
    pub p50_latency_us: f64,
    /// 99th-percentile decision latency, µs.
    pub p99_latency_us: f64,
    /// `true` if the leader ended the window on the in-network path
    /// (always `false` for Mu).
    pub accelerated: bool,
    /// Total simulator events processed over the whole run (setup +
    /// warm-up + window) — a fingerprint of the virtual-time trajectory.
    pub events_processed: u64,
    /// OS threads the sweep that produced this outcome ran on (1 for
    /// [`run_point`] / [`run_points`], the effective worker count for
    /// [`run_points_parallel`]). Excluded from `PartialEq`.
    pub threads_used: usize,
}

impl PartialEq for PointOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.decided == other.decided
            && self.ops_per_sec == other.ops_per_sec
            && self.goodput_bytes_per_sec == other.goodput_bytes_per_sec
            && self.mean_latency_us == other.mean_latency_us
            && self.p50_latency_us == other.p50_latency_us
            && self.p99_latency_us == other.p99_latency_us
            && self.accelerated == other.accelerated
            && self.events_processed == other.events_processed
    }
}

fn sanitize(workload: WorkloadSpec) -> WorkloadSpec {
    // Window-based measurement: unbounded stream, no internal warm-up
    // (the harness controls the window explicitly).
    WorkloadSpec {
        total_requests: 0,
        warmup_requests: 0,
        ..workload
    }
}

/// Runs one measured point.
///
/// # Panics
///
/// Panics if the leader fails to become operational within 500 ms of
/// simulated time (a deployment bug, not a measurable outcome).
pub fn run_point(cfg: &PointConfig) -> PointOutcome {
    run_system(cfg, None)
}

/// Runs one point and additionally snapshots every layer's counters
/// into a [`MetricsRegistry`]: `member.N.*` (consensus layer),
/// `host.N.*` (RDMA hosts), and — for P4CE — `switch.*` (the in-network
/// program). Same outcome as [`run_point`] on the same config.
pub fn run_point_metered(cfg: &PointConfig) -> (PointOutcome, MetricsRegistry) {
    let mut reg = MetricsRegistry::new();
    let outcome = run_system(cfg, Some(&mut reg));
    (outcome, reg)
}

fn run_system(cfg: &PointConfig, metrics: Option<&mut MetricsRegistry>) -> PointOutcome {
    let n = cfg.replicas + 1;
    match cfg.system {
        System::Mu => run_on(mu::ClusterBuilder::new(n), cfg, metrics, |_, _| {}),
        System::P4ce => {
            let mut builder = p4ce::ClusterBuilder::new(n).ack_drop(cfg.ack_drop);
            if let Some(parser_cost) = cfg.parser_cost {
                builder = builder.parser_cost(parser_cost);
            }
            run_on(builder, cfg, metrics, |program, reg| {
                program.stats.register_into(reg, "switch");
            })
        }
    }
}

fn run_on<F: Fabric>(
    builder: ClusterBuilder<F>,
    cfg: &PointConfig,
    metrics: Option<&mut MetricsRegistry>,
    switch_metrics: impl FnOnce(&F::Program, &mut MetricsRegistry),
) -> PointOutcome {
    let mut d = builder
        .workload(sanitize(cfg.workload))
        .seed(cfg.seed)
        .tracer(cfg.tracer.clone())
        .build();
    let deadline = SimTime::ZERO + SimDuration::from_millis(500);
    while !d.leader().is_operational_leader() {
        assert!(
            d.sim.now() < deadline,
            "{} leader never became operational",
            cfg.system
        );
        d.sim.run_for(SimDuration::from_millis(1));
    }
    d.sim.run_for(cfg.warmup);
    let t0 = d.sim.now();
    d.member_mut(0).reset_measurements(t0);
    if cfg.histogram_latency {
        d.member_mut(0).stats.latency.use_histogram();
    }
    d.sim.run_for(cfg.window);
    let now = d.sim.now();
    let accelerated = d.leader().is_accelerated();
    let events_processed = d.sim.events_processed();
    if let Some(reg) = metrics {
        for i in 0..=cfg.replicas {
            d.member(i).stats.register_into(reg, &format!("member.{i}"));
            d.sim
                .node_ref::<Host<Member<F::Comm>>>(d.members[i])
                .stats()
                .register_into(reg, &format!("host.{i}"));
        }
        switch_metrics(d.switch_program(), reg);
    }
    let stats = &mut d.member_mut(0).stats;
    PointOutcome {
        decided: stats.throughput.ops(),
        ops_per_sec: stats.throughput.ops_per_sec(now),
        goodput_bytes_per_sec: stats.throughput.goodput_bytes_per_sec(now),
        mean_latency_us: stats.latency.mean().as_micros_f64(),
        p50_latency_us: stats.latency.percentile(50.0).as_micros_f64(),
        p99_latency_us: stats.latency.percentile(99.0).as_micros_f64(),
        accelerated,
        events_processed,
        threads_used: 1,
    }
}

/// Runs every point in order on the calling thread.
pub fn run_points(cfgs: &[PointConfig]) -> Vec<PointOutcome> {
    cfgs.iter().map(run_point).collect()
}

/// Runs the points across `threads` OS threads and returns outcomes in
/// input order.
///
/// Every point is an independent, self-contained discrete-event
/// simulation seeded from its own [`PointConfig`] — no global state, no
/// wall-clock dependence — so the outcome vector is *identical* (every
/// field, including `events_processed`) to [`run_points`] regardless of
/// thread count or scheduling. Threads pull the next unclaimed index
/// from a shared counter, which keeps long and short points balanced
/// without any work-size guessing.
///
/// # Panics
///
/// Panics if any worker panics (the underlying point panicked), or if
/// `threads` is zero.
pub fn run_points_parallel(cfgs: &[PointConfig], threads: usize) -> Vec<PointOutcome> {
    assert!(threads > 0, "need at least one worker thread");
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    // On a single-core box the spawn/synchronization cost is a pure
    // loss (the workers just serialize on the one core), so fall back
    // to the sequential runner on the calling thread. Same for a
    // sweep that fits one worker anyway.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = threads.min(cfgs.len().max(1));
    if hw == 1 || workers == 1 {
        return run_points(cfgs);
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, PointOutcome)>> = Mutex::new(Vec::with_capacity(cfgs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cfg) = cfgs.get(i) else { break };
                    local.push((i, run_point(cfg)));
                }
                results.lock().expect("no poisoned workers").extend(local);
            });
        }
    });
    let mut indexed = results.into_inner().expect("no poisoned workers");
    indexed.sort_by_key(|&(i, _)| i);
    assert_eq!(indexed.len(), cfgs.len(), "every point ran exactly once");
    indexed
        .into_iter()
        .map(|(_, o)| PointOutcome {
            threads_used: workers,
            ..o
        })
        .collect()
}

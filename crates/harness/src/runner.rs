//! Generic experiment-point runner: build a cluster (Mu or P4CE), warm it
//! up, measure over a window, collect one outcome — and, when asked,
//! what the run looked like from the inside ([`Observe`]).
//!
//! [`observe_point`] is the one body. [`run_point`] and
//! [`run_point_traced`] are one-line projections of it whose signatures
//! are pinned by the frozen `benchmark/src/sut.rs`; the benchmark-thaw
//! PR (ROADMAP item 6) re-points the benchmark at `observe_point` and
//! drops them.

use netsim::{
    assemble_spans, breakdown, InstanceSpan, Records, SimDuration, Simulation, StageBreakdown,
    TraceHandle, Tracer,
};
use p4ce::SwitchSetters;
use replication::{ClusterBuilder, Fabric, WorkloadSpec};
use std::fmt;

use crate::groups::{await_steady, leader_steady, take_layers, window_of, Layers};
use crate::report::truncation_warning;
use crate::tracing::stage_table;

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

impl std::str::FromStr for System {
    type Err = String;

    /// Reads a machine name ([`System::name`]).
    fn from_str(name: &str) -> Result<Self, String> {
        [System::P4ce, System::Mu]
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown system {name}"))
    }
}

impl System {
    /// The machine name flags and reproducers spell the system with.
    pub fn name(self) -> &'static str {
        match self {
            System::Mu => "mu",
            System::P4ce => "p4ce",
        }
    }

    /// Refuses a deployment of `groups` groups of `members` members that
    /// the builders cannot build. Reproducers and the explorer's flags
    /// name deployments; an impossible one is an error for the caller to
    /// report, not a panic inside the build.
    ///
    /// # Errors
    ///
    /// Names the bound the shape breaks.
    pub fn check_shape(self, members: usize, groups: usize) -> Result<(), String> {
        // A P4CE leader's group request carries `f`, a count and one
        // address per replica in CM request private data. The leader of a
        // larger group replicates directly, so it can never accelerate.
        const P4CE_MAX: usize = 1 + (rdma::cm::MAX_REQ_PRIVATE_DATA - 2) / 4;
        let p4ce = self == System::P4ce;
        let p4ce_max = format!("a P4CE group holds at most {} replicas", P4CE_MAX - 1);
        let refused = [
            (groups == 0, "a deployment needs at least one group"),
            (!p4ce && groups != 1, "Mu runs one group"),
            (groups > 253, "at most 253 groups share one switch"),
            (members < 2, "a group needs at least two members"),
            (members > 127, "member ids are 7-bit: at most 127 members"),
            (p4ce && members > P4CE_MAX, p4ce_max.as_str()),
        ];
        match refused.iter().find(|&&(broken, _)| broken) {
            Some((_, why)) => Err(format!("{why} ({self}, {groups} group(s) of {members})")),
            None => Ok(()),
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
    /// OS threads the [`sweep`] that produced this outcome ran on (1
    /// outside a sweep). Excluded from `PartialEq`.
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

/// What a run is asked to watch besides its outcome. Observation never
/// perturbs: the same config yields the same outcome, bit for bit,
/// under any `Observe` (asserted by the `trace_smoke` integration
/// test).
#[derive(Debug, Clone, Default)]
pub enum Observe {
    /// The unobserved run: one disabled-sink branch per
    /// instrumentation point, nothing snapshotted.
    #[default]
    Nothing,
    /// Hand back every layer's own counters once the window closes
    /// ([`Layers`]).
    Metrics,
    /// The counters, plus the cross-layer trace collected through this
    /// handle — unbounded, or a [`TraceHandle::bounded`] ring for long
    /// runs where only the tail of the record stream matters.
    Traced(TraceHandle),
}

impl Observe {
    /// The sink a deployment is built with.
    pub(crate) fn tracer(&self) -> Tracer {
        match self {
            Observe::Traced(handle) => handle.tracer("harness"),
            _ => Tracer::disabled(),
        }
    }

    pub(crate) fn wants_metrics(&self) -> bool {
        !matches!(self, Observe::Nothing)
    }
}

/// Everything one point produced: the outcome plus whatever
/// [`Observe`] asked for (empty otherwise).
#[derive(Debug)]
pub struct TracedPoint {
    /// The measured outcome — the same under any [`Observe`].
    pub outcome: PointOutcome,
    /// The trace as a [`Records`] snapshot, in emission order (empty untraced).
    pub records: Records,
    /// Per-instance spans assembled from the records.
    pub spans: Vec<InstanceSpan>,
    /// Per-stage latency distributions over the complete spans.
    pub breakdown: StageBreakdown,
    /// Every layer's own counters once the window closed; `None` under
    /// [`Observe::Nothing`].
    pub layers: Option<Layers>,
    /// Records lost to a bounded trace ring's oldest-drop wraparound
    /// (zero for unbounded sinks and untraced runs).
    pub dropped_records: u64,
}

impl TracedPoint {
    /// The markdown stage-breakdown table for this point. When the
    /// bounded trace ring dropped records, the table closes with an
    /// explicit truncation warning — a clipped record stream silently
    /// biases the breakdown toward the end of the run otherwise.
    pub fn stage_table(&self, title: &str) -> String {
        let mut out = stage_table(title, &self.breakdown);
        if let Some(warning) = truncation_warning(self.dropped_records) {
            out.push_str(&warning);
            out.push('\n');
        }
        out
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

/// Runs one measured point. Pinned by the frozen benchmark; a
/// projection of [`observe_point`].
///
/// # Panics
///
/// Panics if the leader fails to become operational within 500 ms of
/// simulated time (a deployment bug, not a measurable outcome).
pub fn run_point(cfg: &PointConfig) -> PointOutcome {
    observe_point(cfg, &Observe::Nothing).outcome
}

/// Runs one point with an unbounded trace sink and the layer counters.
/// Pinned by the frozen benchmark; a projection of [`observe_point`].
pub fn run_point_traced(cfg: &PointConfig) -> TracedPoint {
    observe_point(cfg, &Observe::Traced(TraceHandle::new()))
}

/// Runs one measured point and reports what `observe` asked for: every
/// layer's counters ([`Layers`], one group); the trace as raw records,
/// assembled spans and the stage breakdown, and how many records a
/// bounded ring dropped.
///
/// # Panics
///
/// Same contract as [`run_point`].
pub fn observe_point(cfg: &PointConfig, observe: &Observe) -> TracedPoint {
    let n = cfg.replicas + 1;
    let (outcome, layers) = match cfg.system {
        System::Mu => run_on(mu::ClusterBuilder::new(n), cfg, observe),
        System::P4ce => {
            let mut builder = p4ce::ClusterBuilder::new(n).ack_drop(cfg.ack_drop);
            if let Some(parser_cost) = cfg.parser_cost {
                builder = builder.parser_cost(parser_cost);
            }
            run_on(builder, cfg, observe)
        }
    };
    let (records, dropped_records) = match observe {
        Observe::Traced(handle) => (handle.records(), handle.dropped()),
        _ => (Records::default(), 0),
    };
    let spans = assemble_spans(&records);
    TracedPoint {
        outcome,
        breakdown: breakdown(&spans),
        records,
        spans,
        layers,
        dropped_records,
    }
}

fn run_on<F: Fabric>(
    builder: ClusterBuilder<F>,
    cfg: &PointConfig,
    observe: &Observe,
) -> (PointOutcome, Option<Layers>) {
    let mut d = builder
        .workload(sanitize(cfg.workload))
        .seed(cfg.seed)
        .tracer(observe.tracer())
        .build();
    let operational = |sim: &Simulation| leader_steady::<F::Comm>(sim, &d.members, false);
    await_steady(
        &mut d.sim,
        operational,
        SimDuration::from_millis(500),
        SimDuration::from_millis(1),
    );
    d.sim.run_for(cfg.warmup);
    let t0 = d.sim.now();
    d.member_mut(0).reset_measurements(t0);
    d.sim.run_for(cfg.window);
    let now = d.sim.now();
    let accelerated = d.leader().is_accelerated();
    let events_processed = d.sim.events_processed();
    let w = window_of(&mut d.member_mut(0).stats, now);
    let layers = observe.wants_metrics().then(|| {
        let groups = std::slice::from_ref(&d.members);
        take_layers::<F::Comm, F::Program>(&mut d.sim, groups, d.switch)
    });
    let outcome = PointOutcome {
        decided: w.decided,
        ops_per_sec: w.ops_per_sec,
        goodput_bytes_per_sec: w.goodput_bytes_per_sec,
        mean_latency_us: w.mean_latency_us,
        p50_latency_us: w.p50_latency_us,
        p99_latency_us: w.p99_latency_us,
        accelerated,
        events_processed,
        threads_used: 1,
    };
    (outcome, layers)
}

/// An outcome that records how many OS threads its [`sweep`] ran on.
pub trait Swept {
    /// Stamps the effective worker count.
    fn set_threads_used(&mut self, threads: usize);
}

impl Swept for PointOutcome {
    fn set_threads_used(&mut self, threads: usize) {
        self.threads_used = threads;
    }
}

/// Runs `run_one` over every config across up to `threads` OS threads
/// and returns the outcomes in input order, stamped with the effective
/// worker count.
///
/// Every point is an independent, self-contained discrete-event
/// simulation seeded from its own config — no global state, no
/// wall-clock dependence — so the outcome vector is *identical* (every
/// field, including `events_processed`) regardless of thread count or
/// scheduling. Threads pull the next unclaimed index from a shared
/// counter, which keeps long and short points balanced without any
/// work-size guessing.
///
/// # Panics
///
/// Panics if any worker panics (the underlying point panicked), or if
/// `threads` is zero.
pub fn sweep<C: Sync, O: Swept + Send>(
    cfgs: &[C],
    threads: usize,
    run_one: impl Fn(&C) -> O + Sync,
) -> Vec<O> {
    assert!(threads > 0, "need at least one worker thread");
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    // On a single-core box the spawn/synchronization cost is a pure
    // loss (the workers just serialize on the one core), so run on the
    // calling thread. Same for a sweep that fits one worker anyway.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = threads.min(cfgs.len().max(1));
    if hw == 1 || workers == 1 {
        return cfgs.iter().map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(cfgs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cfg) = cfgs.get(i) else { break };
                    local.push((i, run_one(cfg)));
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
        .map(|(_, mut o)| {
            o.set_threads_used(workers);
            o
        })
        .collect()
}

//! The traced run (`--trace 1`): the per-layer numbers, all taken from
//! outside through public functions. Span storage and allocation
//! counting live only in this run, a process of its own, so they never
//! touch the end-to-end run's clocks or its resident set.
//!
//! Passes, in order:
//!
//! 1. **reference** — one plain repeat: the untraced window time and
//!    the exact counts.
//! 2. **stepped** — the same repeat with every window advanced by a
//!    `co_enabled()` (untimed) + `step()` (timed) loop; its outcome must
//!    equal the reference's bit for bit.
//! 3. **allocations** — a plain repeat with the counting allocator on.
//! 4. **stages** — the library's `run_point_traced` on the headline
//!    point (accelerated point workloads).
//! 5. **kernels** — whatever is left of `--seconds`, split evenly.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::drive::{self, Advance, Plain, Repeat};
use crate::e2e::check_repeat;
use crate::kernels::{self, Shape};
use crate::noise::NoiseGuard;
use crate::report::{Metric, Report};
use crate::spans::{SpanLog, HIST_BUCKETS};
use crate::spec::{self, Inputs, Scale, Work, Workload, KERNELS, STEP_CLASSES};
use crate::stat::{median, shares_of_total};
use crate::sut::{
    run_point_traced, EventClass, NodeId, PointConfig, SimDuration, SimTime, Simulation, System,
};

/// Advances a window one event at a time: names the head event's class
/// through `co_enabled()` (untimed), then times `step()`.
///
/// `run_until` pops with `pop_if`, this loop with `pop`; both fire
/// equal-time events in insertion order, so the trajectories are the
/// same — and the identity check proves it on every traced run.
struct Stepper<'a> {
    log: &'a mut SpanLog,
    leaders: Vec<NodeId>,
    switch: Option<NodeId>,
    window: Option<usize>,
}

impl Stepper<'_> {
    fn class_of(&self, class: &EventClass) -> usize {
        let node = class.node();
        let host = if Some(node) == self.switch {
            2
        } else if self.leaders.contains(&node) {
            0
        } else {
            1
        };
        2 * host + usize::from(matches!(class, EventClass::Timer { .. }))
    }
}

impl Advance for Stepper<'_> {
    fn begin_window(&mut self, leaders: &[NodeId], switch: NodeId) {
        self.leaders = leaders.to_vec();
        self.switch = Some(switch);
        self.window = Some(self.log.open("window"));
    }

    fn end_window(&mut self) {
        if let Some(id) = self.window.take() {
            self.log.close(id);
        }
    }

    fn phase(&mut self, name: &'static str, start: Instant, end: Instant) {
        // The stepped window is an open span of its own (its steps hang
        // under it); the other phases arrive finished.
        if name != "window" {
            self.log.closed(name, start, end);
        }
    }

    fn run_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        loop {
            let class = match sim.co_enabled().first() {
                Some(head) if head.at <= deadline => self.class_of(&head.class),
                _ => break,
            };
            let t = Instant::now();
            sim.step();
            let dur = t.elapsed();
            self.log.step(class, t, dur.as_nanos() as u64);
        }
        // No event is left at or before the deadline: this only moves
        // the clock there, as `run_until` would have.
        sim.run_until(deadline);
    }
}

/// Records the phases as spans and otherwise advances like [`Plain`].
struct Phases<'a> {
    log: &'a mut SpanLog,
}

impl Advance for Phases<'_> {
    fn run_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        sim.run_until(deadline);
    }
    fn phase(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.log.closed(name, start, end);
    }
}

/// [`Plain`] with allocation counts taken at the window's two ends.
#[derive(Default)]
struct CountAllocs {
    at_begin: alloc::Snapshot,
    in_windows: alloc::Snapshot,
    at_last_end: alloc::Snapshot,
}

impl Advance for CountAllocs {
    fn run_until(&mut self, sim: &mut Simulation, deadline: SimTime) {
        sim.run_until(deadline);
    }
    fn begin_window(&mut self, _leaders: &[NodeId], _switch: NodeId) {
        self.at_begin = alloc::snapshot();
    }
    fn end_window(&mut self) {
        let now = alloc::snapshot();
        self.in_windows.calls += now.calls - self.at_begin.calls;
        self.in_windows.allocated_bytes += now.allocated_bytes - self.at_begin.allocated_bytes;
        self.at_last_end = now;
    }
}

fn pass<T>(log: &mut SpanLog, name: &str, work: impl FnOnce(&mut SpanLog) -> T) -> T {
    let id = log.open(name);
    let out = work(log);
    log.close(id);
    out
}

fn identical(what: &str, a: &Repeat, b: &Repeat) -> Result<(), String> {
    if a.virt != b.virt {
        return Err(format!(
            "{what} changed the outcome:\n reference {:?}\n {what} {:?}",
            a.virt, b.virt
        ));
    }
    Ok(())
}

/// The five virtual stage means of the accelerated path, µs, asserted to
/// telescope to the end-to-end mean.
fn stage_table(inputs: &Inputs) -> Result<Option<[f64; 5]>, String> {
    let Work::Points { rungs, headline } = &inputs.work else {
        return Ok(None);
    };
    let p = &rungs[*headline];
    if p.system != System::P4ce {
        return Ok(None);
    }
    let mut cfg = PointConfig::new(p.system, p.replicas, p.workload);
    // A quarter of the window bounds the record stream; the stage means
    // of a steady state do not depend on how long it is watched.
    cfg.window = SimDuration::from_nanos((p.window.as_nanos() / 4).max(1_000_000));
    cfg.warmup = p.warmup;
    cfg.seed = p.seed;
    let traced = run_point_traced(&cfg);
    let b = &traced.breakdown;
    if b.complete == 0 {
        return Err("the traced point assembled no complete span".into());
    }
    if !b.reconciles() {
        return Err("stage means do not telescope to the end-to-end mean".into());
    }
    let mut means = [0.0; 5];
    for (slot, stage) in means.iter_mut().zip(&b.stages) {
        *slot = stage.lat.mean().as_micros_f64();
    }
    Ok(Some(means))
}

fn kernel_shape(inputs: &Inputs) -> Shape {
    match &inputs.work {
        Work::Points { rungs, headline } => Shape {
            value_size: rungs[*headline].workload.value_size,
            replicas: rungs[*headline].replicas,
        },
        Work::Kills(kills) => Shape {
            value_size: 64,
            replicas: kills[0].members - 1,
        },
        Work::Sharded(cfg) => Shape {
            value_size: cfg.value_size,
            replicas: cfg.members_per_group - 1,
        },
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    100.0 * ratio(part as f64, whole as f64)
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    out_dir: &Path,
) -> Result<Report, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let inputs = spec::generate(workload, seed, scale);
    let mut guard = NoiseGuard::new();
    let mut log = SpanLog::new(workload.name());

    // Cold code runs twice as slow; the reference must not pay for it.
    if scale == Scale::Full {
        drive::run(&inputs, &mut Plain)?;
    }

    let (reference, _) = guard.bracket(|| {
        pass(&mut log, "pass.reference", |log| {
            drive::run(&inputs, &mut Phases { log })
        })
    });
    let reference = reference?;
    check_repeat(workload, &inputs, &reference)?;

    let (stepped, _) = guard.bracket(|| {
        pass(&mut log, "pass.stepped", |log| {
            drive::run(
                &inputs,
                &mut Stepper {
                    log,
                    leaders: Vec::new(),
                    switch: None,
                    window: None,
                },
            )
        })
    });
    let stepped = stepped?;
    identical("the traced pass", &reference, &stepped)?;

    let mut counter = CountAllocs::default();
    alloc::enable();
    let counted = pass(&mut log, "pass.allocations", |_| {
        drive::run(&inputs, &mut counter)
    });
    alloc::disable();
    identical("allocation counting", &reference, &counted?)?;

    let stages = pass(&mut log, "pass.stages", |_| stage_table(&inputs))?;

    let left = budget.saturating_sub(started.elapsed());
    let slice = left / KERNELS.len() as u32;
    let kernel_ns = pass(&mut log, "pass.kernels", |log| {
        kernels::run_all(kernel_shape(&inputs), slice, log)
    });

    // ---- assemble ----------------------------------------------------
    let c = &reference.counts;
    let decided = reference.virt.decided as f64;
    let window_ns = stepped.window_wall.as_nanos() as u64;
    let class_ns: Vec<u64> = log.classes.iter().map(|f| f.sum_ns).collect();
    let (shares, residual) = shares_of_total(&class_ns, window_ns)
        .ok_or("step time exceeds the window it was measured in")?;
    if (shares.iter().sum::<f64>() + residual - 100.0).abs() > 1e-6 {
        return Err("step shares and residual do not sum to 100 %".into());
    }
    let stepped_events: u64 = log.classes.iter().map(|f| f.count).sum();
    let timer_events: u64 = log
        .classes
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, f)| f.count)
        .sum();

    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_owned(), v));
    for (i, class) in STEP_CLASSES.iter().enumerate() {
        let f = &log.classes[i];
        put(
            &format!("step.{class}.count_per_decided"),
            ratio(f.count as f64, decided),
        );
        put(
            &format!("step.{class}.ns_per_event"),
            ratio(f.sum_ns as f64, f.count as f64),
        );
        put(&format!("step.{class}.share_pct"), shares[i]);
    }
    put("step.residual_share_pct", residual);
    for (name, ns) in &kernel_ns {
        put(name, *ns);
    }

    let total = c.decided_total as f64;
    put("netsim.events_per_decided", ratio(c.events as f64, total));
    put(
        "netsim.timer_event_share_pct",
        pct(timer_events, stepped_events),
    );
    put(
        "netsim.events_per_wsec",
        ratio(stepped_events as f64, reference.window_wall.as_secs_f64()),
    );
    put(
        "netsim.link.leader_tx_bytes_per_decided",
        ratio(c.leader_link.wire_bytes as f64, c.decided_window as f64),
    );
    put(
        "netsim.link.leader_util_pct",
        100.0
            * ratio(
                c.leader_link.wire_bytes as f64,
                c.leader_link_capacity_bytes,
            ),
    );
    put(
        "rdma.leader.tx_packets_per_decided",
        ratio(c.leader_tx_packets as f64, total),
    );
    put(
        "rdma.leader.rx_packets_per_decided",
        ratio(c.leader_rx_packets as f64, total),
    );
    put("rdma.retransmits", c.retransmits as f64);
    put("rdma.naks_sent", c.naks_sent as f64);
    put("rdma.rx_overflow_drops", c.rx_overflow_drops as f64);
    put("rdma.parse_drops", c.parse_drops as f64);
    put(
        "rdma.rx_zero_copy_share_pct",
        pct(c.rx_zero_copy, c.rx_zero_copy + c.rx_copied),
    );
    put(
        "rdma.ack_templated_share_pct",
        pct(c.acks_templated, c.acks_templated + c.acks_serialized),
    );
    put(
        "tofino.forwarded_per_decided",
        ratio(c.sw_forwarded as f64, total),
    );
    put(
        "tofino.multicast_copies_per_decided",
        ratio(c.sw_multicast_copies as f64, total),
    );
    put(
        "tofino.emitted_patched_share_pct",
        pct(c.sw_patched, c.sw_patched + c.sw_reserialized),
    );
    put(
        "tofino.parser_overflow_drops",
        c.sw_parser_overflow_drops as f64,
    );
    put(
        "p4ce-switch.scattered_per_decided",
        ratio(c.p_scattered as f64, total),
    );
    put(
        "p4ce-switch.acks_absorbed_per_decided",
        ratio(c.p_acks_absorbed as f64, total),
    );
    put(
        "p4ce-switch.acks_forwarded_per_decided",
        ratio(c.p_acks_forwarded as f64, total),
    );
    put("p4ce-switch.naks_forwarded", c.p_naks_forwarded as f64);
    put(
        "p4ce-switch.stale_credit_skips",
        c.p_stale_credit_skips as f64,
    );
    put("p4ce-switch.reconfigs", c.p_reconfigs as f64);
    put("replication.apply_lag_entries", c.apply_lag as f64);
    put("core.min_credit", c.min_credit.map_or(0.0, f64::from));
    put("core.view_changes", c.view_changes as f64);

    let stage_us = stages.unwrap_or([0.0; 5]);
    for (name, v) in ["post", "scatter", "replicate", "gather", "decide"]
        .iter()
        .zip(stage_us)
    {
        put(&format!("stage.{name}_us"), v);
    }

    let mut phase_ms = [0.0; 5];
    let mut dip_ms = 0.0;
    let kills = &reference.failovers;
    if !kills.is_empty() {
        for (i, slot) in phase_ms.iter_mut().enumerate() {
            *slot = median(&kills.iter().map(|k| k.phases_ms[i]).collect::<Vec<_>>());
        }
        dip_ms = median(&kills.iter().map(|k| k.recovery_ms).collect::<Vec<_>>());
    }
    for (name, v) in ["detection", "election", "fence", "reaccel", "first_decide"]
        .iter()
        .zip(phase_ms)
    {
        put(&format!("failover.{name}_ms"), v);
    }
    put("failover.dip_recovery_ms", dip_ms);
    put(
        "failover.unavailability_max_ms",
        if kills.is_empty() {
            0.0
        } else {
            reference.virt.time_to_service_max_ms
        },
    );

    let shard = reference.shard.as_ref();
    put(
        "shard.group_p99_spread_us",
        shard.map_or(0.0, |s| {
            let hi = s.group_p99_us.iter().copied().fold(0.0, f64::max);
            let lo = s.group_p99_us.iter().copied().fold(f64::INFINITY, f64::min);
            hi - lo
        }),
    );
    put(
        "shard.hottest_group_share_pct",
        shard.map_or(0.0, |s| {
            pct(
                s.group_decided.iter().copied().max().unwrap_or(0),
                s.group_decided.iter().sum(),
            )
        }),
    );
    put(
        "shard.accelerated_groups",
        shard.map_or(0.0, |s| s.accelerated_groups as f64),
    );
    put(
        "shard.foreign_entries",
        shard.map_or(0.0, |s| s.foreign_entries as f64),
    );

    put(
        "alloc.count_per_decided",
        ratio(counter.in_windows.calls as f64, decided),
    );
    put(
        "alloc.bytes_per_decided",
        ratio(counter.in_windows.allocated_bytes as f64, decided),
    );
    put(
        "alloc.live_bytes_at_end",
        counter.at_last_end.live_bytes() as f64,
    );
    put(
        "trace.overhead_pct",
        100.0
            * (ratio(
                stepped.window_wall.as_secs_f64(),
                reference.window_wall.as_secs_f64(),
            ) - 1.0),
    );

    if workload == Workload::MuFanout {
        // The bypass workload must really bypass: nothing for the
        // in-network program, no multicast, plain forwarding only.
        let program = c.p_scattered
            + c.p_acks_absorbed
            + c.p_acks_forwarded
            + c.p_naks_forwarded
            + c.p_stale_credit_skips
            + c.p_reconfigs;
        if program != 0 || c.sw_multicast_copies != 0 || c.sw_forwarded == 0 {
            return Err("mu_fanout touched the in-network path".into());
        }
    }

    // ---- write out, then report --------------------------------------
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    let trace_path = out_dir.join(format!("{}.trace.json", workload.name()));
    let spans_written = log.spans_written();
    log.write_chrome_trace(&trace_path)
        .map_err(|e| format!("cannot write {trace_path:?}: {e}"))?;
    put("trace.spans_written", spans_written as f64);
    put("host.noise_pct", guard.noise_pct());
    put("host.repeats_discarded", f64::from(guard.discarded));

    let table = spec::per_layer();
    let mut metrics = Vec::with_capacity(table.len());
    for m in &table {
        let (_, v) = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .ok_or(format!("per-layer metric {} was not measured", m.name))?;
        metrics.push(Metric::exact(&m.name, m.unit, *v));
    }
    if values.len() != table.len() {
        return Err("a measured per-layer value is missing from the metric table".into());
    }

    let report = Report {
        workload: workload.name().to_owned(),
        seed,
        traced: true,
        quick: scale == Scale::Quick,
        attempted: reference.virt.attempted,
        failed: reference.virt.failed,
        metrics,
        notes: vec![
            format!(
                "window wall: {:.1} ms untraced, {:.1} ms stepped; {} events stepped",
                reference.window_wall.as_secs_f64() * 1e3,
                stepped.window_wall.as_secs_f64() * 1e3,
                stepped_events
            ),
            "traced, sampled and allocation-counted passes all reproduced the reference outcome \
             bit for bit"
                .to_owned(),
            format!("spans: {}", trace_path.display()),
        ],
    };
    let layers_path = out_dir.join(format!("{}.layers.json", workload.name()));
    std::fs::write(&layers_path, layers_json(&report, &log))
        .map_err(|e| format!("cannot write {layers_path:?}: {e}"))?;
    Ok(report)
}

/// The layer table plus what the step spans were folded into: per class
/// count, total ns and the log₂ duration histogram.
fn layers_json(report: &Report, log: &SpanLog) -> String {
    let mut out = String::from("{\"report\": ");
    out.push_str(&report.detail_json());
    out.push_str(", \"step_classes\": {");
    for (i, class) in STEP_CLASSES.iter().enumerate() {
        let f = &log.classes[i];
        if i > 0 {
            out.push_str(", ");
        }
        let hist: Vec<String> = f.hist[..HIST_BUCKETS]
            .iter()
            .map(|n| n.to_string())
            .collect();
        out.push_str(&format!(
            "\"{class}\": {{\"count\": {}, \"sum_ns\": {}, \"log2_ns_histogram\": [{}]}}",
            f.count,
            f.sum_ns,
            hist.join(", ")
        ));
    }
    out.push_str("}}\n");
    out
}

//! Emits BENCH_3.json: the zero-copy fast-path microbenchmarks
//! (`PacketTemplate::stamp` vs. full re-serialization; the JSON key keeps
//! its historical name `patch_frame_ns`), wall-clock for the Figure 5
//! and Figure 6 sweeps from both the sequential and the parallel runner
//! (asserting their outputs are identical), and whole-simulation rates
//! (events/sec, ns per decided consensus operation).
//!
//! Also emits BENCH_5.json: the tracing-overhead comparison — the same
//! saturated point run with the trace sink disabled and enabled, with
//! the two outcomes asserted bit-identical (tracing observes virtual
//! time, so only the host wall clock may differ).
//!
//! And BENCH_6.json: the event-engine scorecard after the timing-wheel
//! and binary-trace-ring overhaul — the simulation rates and the trace
//! overhead side by side with the pre-overhaul BENCH_3/BENCH_5
//! baselines, so a regression against the seed numbers is one JSON field
//! away (the CI bench-smoke job asserts on it).
//!
//! And BENCH_8.json: the per-packet hot-path scorecard after the kernel
//! overhaul (slice-by-8/two-lane CRC, zero-copy RX delivery, template
//! ACKs, borrowed-view parse) — per-stage ns for each kernel next to the
//! slow path it replaced, plus the saturated-point event rate, run twice
//! and asserted bit-identical.
//!
//! And BENCH_9.json: the multi-group sharding scorecard — a quick
//! groups sweep through one switch (sequential vs parallel runner,
//! asserted identical) with per-row aggregate rates and the parser-knee
//! location from the full-sweep thresholds.
//!
//! And BENCH_10.json: the failover-attribution scorecard — the E10
//! quick sweep's per-phase budgets (phases asserted to sum exactly to
//! each unavailability window), the unavailability p50/p99, the
//! throughput-dip shape, and the timeline-sampler overhead at a 100 µs
//! cadence (interleaved sampled/unsampled pairs, best-of-N, outcomes
//! asserted bit-identical — sampling observes, never perturbs).
//!
//! Run with `cargo run --release -p p4ce-bench --bin bench_trajectory`
//! (scripts/bench.sh does, and moves the output to the repo root).
//! `--seed N` overrides the simulation seed of the timed points;
//! `--iters N` overrides the microbench iteration count.

use bytes::Bytes;
use netsim::SimDuration;
use p4ce_harness::experiments::{e10_failover, fig5_goodput, fig6_latency, groups_sweep};
use p4ce_harness::{
    run_failover, run_points, run_points_parallel, FailoverConfig, PointConfig, System,
};
use rdma::wire::{crc32_slice8_raw, crc32_two_lane_raw};
use rdma::{
    Aeth, AethKind, Bth, MacAddr, Opcode, PacketTemplate, Psn, Qpn, RKey, Reth, RewriteSet,
    RocePacket,
};
use replication::WorkloadSpec;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::Instant;

fn sample(payload: usize) -> RocePacket {
    let src_ip = Ipv4Addr::new(10, 0, 0, 1);
    let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
    RocePacket {
        src_mac: MacAddr::for_ip(src_ip),
        dst_mac: MacAddr::for_ip(dst_ip),
        src_ip,
        dst_ip,
        udp_src_port: 0xC001,
        bth: Bth {
            opcode: Opcode::WriteOnly,
            dest_qp: Qpn(77),
            psn: Psn::new(1234),
            ack_req: true,
        },
        reth: Some(Reth {
            va: 0xdead_0000,
            rkey: RKey(0x1234_5678),
            dma_len: payload as u32,
        }),
        aeth: None,
        payload: Bytes::from(vec![0x5a; payload]),
    }
}

fn scatter_rewrite() -> RewriteSet {
    RewriteSet {
        dst_mac: Some(MacAddr::for_ip(Ipv4Addr::new(10, 0, 0, 9))),
        dst_ip: Some(Ipv4Addr::new(10, 0, 0, 9)),
        udp_src_port: Some(0xD003),
        dest_qp: Some(Qpn(0x99)),
        psn: Some(Psn::new(4321)),
        va: Some(0xbeef_0000),
        rkey: Some(RKey(0x0bad_cafe)),
        ..RewriteSet::default()
    }
}

/// Median-of-5 timing of `iters` runs of `f`, in ns per call.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[2]
}

struct WireRow {
    payload: usize,
    full_ns: f64,
    patch_ns: f64,
}

fn wire_micro(iters: u32) -> Vec<WireRow> {
    let mut rows = Vec::new();
    for payload in [64usize, 512, 8192] {
        let pkt = sample(payload);
        let template = PacketTemplate::from_packet(&pkt);
        let rw = scatter_rewrite();
        let mut rewritten = pkt.clone();
        rw.apply(&mut rewritten);
        assert_eq!(
            &*template.stamp(&rw).expect("patchable").data,
            &*rewritten.to_frame().data,
            "patch must equal re-serialization before it is timed"
        );
        let full_ns = time_ns(iters, || {
            std::hint::black_box(rewritten.to_frame());
        });
        let patch_ns = time_ns(iters, || {
            std::hint::black_box(template.stamp(&rw).expect("patchable"));
        });
        rows.push(WireRow {
            payload,
            full_ns,
            patch_ns,
        });
    }
    rows
}

struct SweepTiming {
    name: &'static str,
    points: usize,
    sequential_ms: f64,
    parallel_ms: f64,
    threads: usize,
    total_events: u64,
    total_decided: u64,
}

fn time_sweep(name: &'static str, cfgs: Vec<PointConfig>, threads: usize) -> SweepTiming {
    let t = Instant::now();
    let seq = run_points(&cfgs);
    let sequential_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let par = run_points_parallel(&cfgs, threads);
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        seq, par,
        "{name}: parallel sweep must reproduce the sequential outcomes exactly"
    );
    SweepTiming {
        name,
        points: cfgs.len(),
        sequential_ms,
        parallel_ms,
        threads,
        total_events: seq.iter().map(|o| o.events_processed).sum(),
        total_decided: seq.iter().map(|o| o.decided).sum(),
    }
}

struct ConsensusRates {
    events_per_sec: f64,
    ns_per_consensus: f64,
    decided: u64,
    events: u64,
    identical_outcomes: bool,
}

/// One saturated P4CE point, timed: how fast the simulator chews events
/// and what one decided consensus operation costs in host time. Run
/// twice, back to back: the faster wall clock is reported and the two
/// outcomes are asserted bit-identical — every hot-path shortcut (view
/// parse, template ACKs, CRC caches) must be invisible in virtual time.
fn consensus_rates(seed: Option<u64>) -> ConsensusRates {
    let mut cfg = PointConfig::new(System::P4ce, 4, WorkloadSpec::closed(16, 512, 0));
    cfg.window = SimDuration::from_millis(20);
    if let Some(s) = seed {
        cfg.seed = s;
    }
    // Best-of-5: single-core boxes take a run or two to reach a steady
    // clock, and the min is the standard wall-clock estimator. Every
    // repeat must stay bit-identical.
    let t = Instant::now();
    let first = p4ce_harness::run_point(&cfg);
    let mut wall = t.elapsed();
    for _ in 0..4 {
        let t = Instant::now();
        let repeat = p4ce_harness::run_point(&cfg);
        wall = wall.min(t.elapsed());
        assert_eq!(first, repeat, "repeated runs must be bit-identical");
    }
    ConsensusRates {
        events_per_sec: first.events_processed as f64 / wall.as_secs_f64(),
        ns_per_consensus: wall.as_nanos() as f64 / first.decided.max(1) as f64,
        decided: first.decided,
        events: first.events_processed,
        identical_outcomes: true,
    }
}

struct KernelStage {
    stage: &'static str,
    slow: &'static str,
    slow_ns: f64,
    fast: &'static str,
    fast_ns: f64,
}

/// The four profiled per-packet costs, each timed as the slow path it
/// replaced next to the shipped fast kernel, at a representative 512 B
/// payload.
fn kernel_costs(iters: u32) -> Vec<KernelStage> {
    let payload: Vec<u8> = (0..512usize).map(|i| (i as u8).wrapping_mul(31)).collect();
    let payload_bytes = Bytes::from(payload.clone());

    // CRC: single-lane slice-by-8 vs the two-lane stitched variant. The
    // result must be black-boxed directly — accumulating into a local the
    // loop never reads lets the optimizer delete the whole computation.
    let crc_slice8 = time_ns(iters, || {
        std::hint::black_box(crc32_slice8_raw(
            0xffff_ffff,
            std::hint::black_box(&payload[..]),
        ));
    });
    let crc_two_lane = time_ns(iters, || {
        std::hint::black_box(crc32_two_lane_raw(
            0xffff_ffff,
            std::hint::black_box(&payload[..]),
        ));
    });

    // RX delivery: memcpy into a fresh allocation vs a refcounted slice.
    let rx_copy = time_ns(iters, || {
        std::hint::black_box(Bytes::copy_from_slice(std::hint::black_box(
            &payload_bytes[..],
        )));
    });
    let rx_zero = time_ns(iters, || {
        std::hint::black_box(std::hint::black_box(&payload_bytes).slice(0..payload_bytes.len()));
    });

    // ACK emission: build + serialize vs patching the per-QP template.
    let src_ip = Ipv4Addr::new(10, 0, 0, 1);
    let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
    let ack = |psn: u32| RocePacket {
        src_mac: MacAddr::for_ip(src_ip),
        dst_mac: MacAddr::for_ip(dst_ip),
        src_ip,
        dst_ip,
        udp_src_port: 0xC007,
        bth: Bth {
            opcode: Opcode::Acknowledge,
            dest_qp: Qpn(0x42),
            psn: Psn::new(psn),
            ack_req: false,
        },
        reth: None,
        aeth: Some(Aeth {
            kind: AethKind::Ack { credits: 17 },
            msn: psn & 0x00ff_ffff,
        }),
        payload: Bytes::new(),
    };
    let mut psn = 0u32;
    let ack_build = time_ns(iters, || {
        psn = psn.wrapping_add(1);
        std::hint::black_box(ack(psn).to_frame());
    });
    let template = PacketTemplate::from_packet(&ack(0));
    let mut psn = 0u32;
    let ack_patch = time_ns(iters, || {
        psn = psn.wrapping_add(1);
        let rw = RewriteSet {
            psn: Some(Psn::new(psn)),
            aeth: Some(Aeth {
                kind: AethKind::Ack { credits: 17 },
                msn: psn & 0x00ff_ffff,
            }),
            ..RewriteSet::default()
        };
        std::hint::black_box(template.stamp(&rw).expect("patchable"));
    });

    // Parse: owned packet (header decode + payload copy) vs borrowed view.
    let frame = sample(512).to_frame();
    let parse_full = time_ns(iters, || {
        std::hint::black_box(RocePacket::parse(std::hint::black_box(&frame)).expect("valid"));
    });
    let parse_view = time_ns(iters, || {
        let v = RocePacket::parse_view(std::hint::black_box(&frame)).expect("valid");
        std::hint::black_box((v.dest_qp(), v.psn(), v.payload_len()));
    });

    vec![
        KernelStage {
            stage: "crc",
            slow: "slice8_512B",
            slow_ns: crc_slice8,
            fast: "two_lane_512B",
            fast_ns: crc_two_lane,
        },
        KernelStage {
            stage: "rx-copy",
            slow: "memcpy_512B",
            slow_ns: rx_copy,
            fast: "refcount_slice",
            fast_ns: rx_zero,
        },
        KernelStage {
            stage: "ack",
            slow: "build_serialize",
            slow_ns: ack_build,
            fast: "template_patch",
            fast_ns: ack_patch,
        },
        KernelStage {
            stage: "parse",
            slow: "parse_owned_512B",
            slow_ns: parse_full,
            fast: "parse_view_512B",
            fast_ns: parse_view,
        },
    ]
}

struct TraceOverhead {
    disabled_ms: f64,
    enabled_ms: f64,
    export_ms: f64,
    decided: u64,
    events: u64,
    records: u64,
    complete_spans: u64,
}

/// The same saturated P4CE point, traced off vs. on. Virtual-time
/// outcomes must be identical; the wall-clock delta is the price of the
/// enabled sink (the disabled sink costs one branch per site and is
/// covered by the criterion benches instead).
///
/// `enabled_ms` times the *run itself* — each emit appends one
/// fixed-width binary record to the shared ring, which is all the work
/// tracing adds while the simulation executes. Decoding the ring and
/// assembling spans happens once after the run and is reported
/// separately as `export_ms`; it is deliberately deferred, pay-on-read
/// work, not steady-state overhead. Interleaved min-of-9 pairs keep
/// one-sided scheduler noise out of both numbers.
fn trace_overhead() -> TraceOverhead {
    let mut cfg = PointConfig::new(System::P4ce, 2, WorkloadSpec::closed(16, 64, 0));
    cfg.window = SimDuration::from_millis(10);
    let handle = netsim::TraceHandle::new();
    let mut traced_cfg = cfg.clone();
    traced_cfg.tracer = handle.tracer("harness");

    // Warm up both paths (and the ring's chunk pages) once.
    let _ = p4ce_harness::run_point(&cfg);
    let _ = p4ce_harness::run_point(&traced_cfg);

    let mut disabled = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    let mut plain = None;
    let mut traced = None;
    for _ in 0..9 {
        let t = Instant::now();
        plain = Some(p4ce_harness::run_point(&cfg));
        disabled = disabled.min(t.elapsed().as_secs_f64() * 1e3);
        handle.clear();
        let t = Instant::now();
        traced = Some(p4ce_harness::run_point(&traced_cfg));
        enabled = enabled.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let plain = plain.expect("ran");
    let traced = traced.expect("ran");
    assert_eq!(
        plain, traced,
        "tracing must not perturb the measured outcome"
    );

    let t = Instant::now();
    let records = handle.records();
    let spans = netsim::assemble_spans(&records);
    let b = netsim::breakdown(&spans);
    let export_ms = t.elapsed().as_secs_f64() * 1e3;
    TraceOverhead {
        disabled_ms: disabled,
        enabled_ms: enabled,
        export_ms,
        decided: plain.decided,
        events: plain.events_processed,
        records: records.len() as u64,
        complete_spans: b.complete as u64,
    }
}

fn main() {
    let mut seed: Option<u64> = None;
    let mut iters: u32 = 200_000;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--seed" => {
                seed = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed takes a u64"),
                )
            }
            "--iters" => {
                iters = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters takes a u32")
            }
            other => {
                eprintln!("unknown argument: {other} (supported: --seed N, --iters N)");
                std::process::exit(2);
            }
        }
    }
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));

    // The headline events/sec number runs first, on a fresh heap: running
    // it after the fig5/fig6 sweeps leaves the allocator fragmented and
    // depresses the measurement by ~15%.
    eprintln!("consensus rates...");
    let rates = consensus_rates(seed);
    eprintln!(
        "  {:.0} events/s, {:.0} ns/consensus ({} decided, {} events)",
        rates.events_per_sec, rates.ns_per_consensus, rates.decided, rates.events
    );

    eprintln!("wire microbenchmarks...");
    let wire = wire_micro(iters);
    for r in &wire {
        eprintln!(
            "  payload {:>5} B: to_frame {:>8.1} ns, patch_frame {:>7.1} ns ({:.1}x)",
            r.payload,
            r.full_ns,
            r.patch_ns,
            r.full_ns / r.patch_ns
        );
    }

    eprintln!("fig5 sweep (sequential vs {threads}-thread parallel)...");
    let fig5 = time_sweep(
        "fig5_goodput",
        fig5_goodput::configs(
            &fig5_goodput::default_sizes(),
            &[2, 4],
            SimDuration::from_millis(5),
        ),
        threads,
    );
    eprintln!(
        "  {} points: sequential {:.0} ms, parallel {:.0} ms",
        fig5.points, fig5.sequential_ms, fig5.parallel_ms
    );

    eprintln!("fig6 sweep (sequential vs {threads}-thread parallel)...");
    let fig6 = time_sweep(
        "fig6_latency",
        fig6_latency::configs(
            &fig6_latency::default_rates(),
            &[2, 4],
            SimDuration::from_millis(3),
        ),
        threads,
    );
    eprintln!(
        "  {} points: sequential {:.0} ms, parallel {:.0} ms",
        fig6.points, fig6.sequential_ms, fig6.parallel_ms
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"zero_copy_fast_path\",\n");
    json.push_str("  \"wire_patch\": [\n");
    for (i, r) in wire.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"payload_bytes\": {}, \"to_frame_ns\": {:.1}, \"patch_frame_ns\": {:.1}, \"speedup\": {:.2}}}{}",
            r.payload,
            r.full_ns,
            r.patch_ns,
            r.full_ns / r.patch_ns,
            if i + 1 < wire.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"sweeps\": [\n");
    for (i, s) in [&fig5, &fig6].into_iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"experiment\": \"{}\", \"points\": {}, \"sequential_wall_ms\": {:.1}, \"parallel_wall_ms\": {:.1}, \"threads\": {}, \"identical_outputs\": true, \"total_events\": {}, \"total_decided\": {}}}{}",
            s.name,
            s.points,
            s.sequential_ms,
            s.parallel_ms,
            s.threads,
            s.total_events,
            s.total_decided,
            if i == 0 { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"simulation\": {{\"events_per_sec\": {:.0}, \"ns_per_consensus\": {:.0}, \"decided\": {}, \"events_processed\": {}}}\n}}\n",
        rates.events_per_sec, rates.ns_per_consensus, rates.decided, rates.events
    );

    std::fs::write("BENCH_3.json", &json).expect("write BENCH_3.json");
    println!("{json}");

    eprintln!("trace overhead (sink disabled vs enabled)...");
    let tr = trace_overhead();
    let overhead_pct = 100.0 * (tr.enabled_ms - tr.disabled_ms) / tr.disabled_ms;
    eprintln!(
        "  disabled {:.1} ms, enabled {:.1} ms ({overhead_pct:+.1}%), export {:.1} ms, {} records, {} complete spans",
        tr.disabled_ms, tr.enabled_ms, tr.export_ms, tr.records, tr.complete_spans
    );
    let mut json5 = String::new();
    json5.push_str("{\n  \"bench\": \"trace_overhead\",\n");
    let _ = writeln!(
        json5,
        "  \"disabled\": {{\"wall_ms\": {:.1}, \"decided\": {}, \"events_processed\": {}}},",
        tr.disabled_ms, tr.decided, tr.events
    );
    let _ = writeln!(
        json5,
        "  \"enabled\": {{\"wall_ms\": {:.1}, \"export_ms\": {:.1}, \"records\": {}, \"complete_spans\": {}}},",
        tr.enabled_ms, tr.export_ms, tr.records, tr.complete_spans
    );
    let _ = writeln!(json5, "  \"overhead_pct\": {overhead_pct:.1},");
    json5.push_str("  \"identical_outcomes\": true\n}\n");
    std::fs::write("BENCH_5.json", &json5).expect("write BENCH_5.json");
    println!("{json5}");

    // BENCH_6: the event-engine scorecard. Baselines are the committed
    // pre-overhaul numbers: BENCH_3's simulation rates (binary-heap
    // queue, SipHash maps, allocation-heavy hot path) and BENCH_5's
    // traced-on overhead (per-record Arc + Vec<TraceRecord> sink).
    const BASELINE_EVENTS_PER_SEC: f64 = 1_862_210.0;
    const BASELINE_OVERHEAD_PCT: f64 = 56.1;
    let mut json6 = String::new();
    json6.push_str("{\n  \"bench\": \"event_engine\",\n");
    let _ = writeln!(
        json6,
        "  \"simulation\": {{\"events_per_sec\": {:.0}, \"ns_per_consensus\": {:.0}, \"decided\": {}, \"events_processed\": {}}},",
        rates.events_per_sec, rates.ns_per_consensus, rates.decided, rates.events
    );
    let _ = writeln!(
        json6,
        "  \"trace_overhead\": {{\"disabled_ms\": {:.1}, \"enabled_ms\": {:.1}, \"overhead_pct\": {:.1}, \"export_ms\": {:.1}, \"records\": {}}},",
        tr.disabled_ms, tr.enabled_ms, overhead_pct, tr.export_ms, tr.records
    );
    let _ = writeln!(
        json6,
        "  \"baseline\": {{\"events_per_sec\": {BASELINE_EVENTS_PER_SEC:.0}, \"overhead_pct\": {BASELINE_OVERHEAD_PCT:.1}}},",
    );
    let _ = writeln!(
        json6,
        "  \"speedup_vs_baseline\": {:.2},",
        rates.events_per_sec / BASELINE_EVENTS_PER_SEC
    );
    json6.push_str("  \"identical_outcomes\": true\n}\n");
    std::fs::write("BENCH_6.json", &json6).expect("write BENCH_6.json");
    println!("{json6}");

    // BENCH_8: the per-packet hot-path scorecard. The baseline is the
    // committed BENCH_6 event rate (before the CRC/RX/ACK/parse kernel
    // overhaul); the stage table is measured fresh on this machine.
    eprintln!("hot-path kernel costs...");
    let stages = kernel_costs(iters);
    for s in &stages {
        eprintln!(
            "  {:>8}: {} {:>7.1} ns -> {} {:>7.1} ns ({:.1}x)",
            s.stage,
            s.slow,
            s.slow_ns,
            s.fast,
            s.fast_ns,
            s.slow_ns / s.fast_ns
        );
    }
    const BASELINE8_EVENTS_PER_SEC: f64 = 3_961_721.0;
    let mut json8 = String::new();
    json8.push_str("{\n  \"bench\": \"hot_path_kernels\",\n");
    json8.push_str("  \"stages\": [\n");
    for (i, s) in stages.iter().enumerate() {
        let _ = writeln!(
            json8,
            "    {{\"stage\": \"{}\", \"slow\": \"{}\", \"slow_ns\": {:.1}, \"fast\": \"{}\", \"fast_ns\": {:.1}, \"speedup\": {:.2}}}{}",
            s.stage,
            s.slow,
            s.slow_ns,
            s.fast,
            s.fast_ns,
            s.slow_ns / s.fast_ns,
            if i + 1 < stages.len() { "," } else { "" }
        );
    }
    json8.push_str("  ],\n");
    let _ = writeln!(
        json8,
        "  \"simulation\": {{\"events_per_sec\": {:.0}, \"ns_per_consensus\": {:.0}, \"decided\": {}, \"events_processed\": {}}},",
        rates.events_per_sec, rates.ns_per_consensus, rates.decided, rates.events
    );
    let _ = writeln!(
        json8,
        "  \"baseline\": {{\"events_per_sec\": {BASELINE8_EVENTS_PER_SEC:.0}}},"
    );
    let _ = writeln!(
        json8,
        "  \"speedup_vs_baseline\": {:.2},",
        rates.events_per_sec / BASELINE8_EVENTS_PER_SEC
    );
    let _ = writeln!(
        json8,
        "  \"identical_outcomes\": {}\n}}",
        rates.identical_outcomes
    );
    std::fs::write("BENCH_8.json", &json8).expect("write BENCH_8.json");
    println!("{json8}");

    // BENCH_9: the multi-group sharding scorecard. A quick sweep (the
    // same configs as `groups_sweep --quick`: shared parser slices, so
    // contention is visible even at this scale), timed sequential and
    // parallel with identical rows asserted — the cross-group
    // determinism contract measured, not just unit-tested.
    eprintln!("groups sweep (quick, sequential vs {threads}-thread parallel)...");
    let window = SimDuration::from_millis(5);
    let gcfgs = groups_sweep::configs(&[1, 2, 4], window);
    let t = Instant::now();
    let gseq = groups_sweep::run(&[1, 2, 4], window);
    let gseq_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let gpar = groups_sweep::run_parallel(&[1, 2, 4], window, threads);
    let gpar_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(gseq.len(), gpar.len());
    for (s, p) in gseq.iter().zip(&gpar) {
        assert_eq!(s.groups, p.groups);
        assert_eq!(
            s.aggregate_ops_per_sec.to_bits(),
            p.aggregate_ops_per_sec.to_bits(),
            "parallel sharded sweep must reproduce the sequential rows exactly"
        );
        assert_eq!(s.events, p.events);
    }
    for r in &gseq {
        eprintln!(
            "  {} groups: {:>9.0} ops/s aggregate, p99 {:>7.1} us, {} accelerated",
            r.groups, r.aggregate_ops_per_sec, r.p99_latency_us, r.accelerated_groups
        );
    }
    let knee = groups_sweep::knee(&gseq);
    let mut json9 = String::new();
    json9.push_str("{\n  \"bench\": \"sharded_groups\",\n");
    json9.push_str("  \"rows\": [\n");
    for (i, r) in gseq.iter().enumerate() {
        let _ = writeln!(
            json9,
            "    {{\"groups\": {}, \"aggregate_ops_per_sec\": {:.0}, \"aggregate_goodput_bytes_per_sec\": {:.0}, \"p99_latency_us\": {:.1}, \"accelerated_groups\": {}, \"events\": {}}}{}",
            r.groups,
            r.aggregate_ops_per_sec,
            r.aggregate_goodput_bytes_per_sec,
            r.p99_latency_us,
            r.accelerated_groups,
            r.events,
            if i + 1 < gseq.len() { "," } else { "" }
        );
    }
    json9.push_str("  ],\n");
    let _ = writeln!(
        json9,
        "  \"sweep\": {{\"points\": {}, \"sequential_wall_ms\": {:.1}, \"parallel_wall_ms\": {:.1}, \"threads\": {}, \"identical_outputs\": true}},",
        gcfgs.len(),
        gseq_ms,
        gpar_ms,
        threads
    );
    let _ = writeln!(
        json9,
        "  \"knee_groups\": {}",
        knee.map_or("null".to_owned(), |k| k.to_string())
    );
    json9.push_str("}\n");
    std::fs::write("BENCH_9.json", &json9).expect("write BENCH_9.json");
    println!("{json9}");

    // BENCH_10: failover attribution + sampler overhead. The quick E10
    // sweep yields the per-phase budgets (each asserted to telescope
    // exactly inside e10_failover::row); the overhead pairs run the
    // canonical clean kill with and without the 100 µs timeline sampler,
    // interleaved best-of-5, with decided totals, event counts and the
    // sampled fingerprint asserted identical across repeats.
    eprintln!("failover attribution (E10 quick) + sampler overhead...");
    let fo_cfg = FailoverConfig {
        observe_for: SimDuration::from_millis(80),
        seed: seed.unwrap_or(FailoverConfig::default().seed),
        ..FailoverConfig::default()
    };
    let mut sampled_ms = f64::INFINITY;
    let mut unsampled_ms = f64::INFINITY;
    let mut fingerprint: Option<String> = None;
    let mut fo_identical = true;
    let mut fo_samples = 0usize;
    for _ in 0..5 {
        let t = Instant::now();
        let a = run_failover(&fo_cfg);
        sampled_ms = sampled_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let b = run_failover(&FailoverConfig {
            sample: false,
            ..fo_cfg
        });
        unsampled_ms = unsampled_ms.min(t.elapsed().as_secs_f64() * 1e3);
        fo_identical &= a.group_decided == b.group_decided
            && a.events_processed == b.events_processed
            && a.budget == b.budget;
        match &fingerprint {
            None => fingerprint = Some(a.fingerprint()),
            Some(f) => fo_identical &= *f == a.fingerprint(),
        }
        fo_samples = a.timeline.total_samples();
    }
    let sampler_overhead_pct = 100.0 * (sampled_ms - unsampled_ms) / unsampled_ms;
    eprintln!(
        "  sampler: unsampled {unsampled_ms:.1} ms, sampled {sampled_ms:.1} ms \
         ({sampler_overhead_pct:+.1}%, {fo_samples} samples)"
    );
    let e10 = e10_failover::run(true);
    for r in &e10 {
        eprintln!(
            "  {:<24} unavail {:>6.2} ms = detect {:.2} + elect {:.2} + fence {:.2} + reaccel {:.2} + decide {:.2}",
            r.scenario, r.unavailability_ms, r.detection_ms, r.election_ms, r.fence_ms,
            r.reaccel_ms, r.first_decide_ms
        );
    }
    let clean = e10
        .iter()
        .find(|r| r.scenario == "clean kill")
        .expect("quick sweep has a clean scenario");
    let mut json10 = String::new();
    json10.push_str("{\n  \"bench\": \"failover_attribution\",\n");
    json10.push_str("  \"rows\": [\n");
    for (i, r) in e10.iter().enumerate() {
        let _ = writeln!(
            json10,
            "    {{\"scenario\": \"{}\", \"seed\": {}, \"unavailability_ms\": {:.4}, \"detection_ms\": {:.4}, \"election_ms\": {:.4}, \"fence_ms\": {:.4}, \"reaccel_ms\": {:.4}, \"first_decide_ms\": {:.4}, \"dip_depth_pct\": {:.1}, \"recovery_ms\": {}}}{}",
            r.scenario,
            r.seed,
            r.unavailability_ms,
            r.detection_ms,
            r.election_ms,
            r.fence_ms,
            r.reaccel_ms,
            r.first_decide_ms,
            r.dip_depth_pct,
            r.recovery_ms
                .map_or("null".to_owned(), |v| format!("{v:.2}")),
            if i + 1 < e10.len() { "," } else { "" }
        );
    }
    json10.push_str("  ],\n");
    let _ = writeln!(
        json10,
        "  \"unavailability_ms\": {{\"p50\": {:.4}, \"p99\": {:.4}}},",
        e10_failover::unavailability_percentile(&e10, 50.0),
        e10_failover::unavailability_percentile(&e10, 99.0)
    );
    let _ = writeln!(
        json10,
        "  \"dip\": {{\"depth_pct\": {:.1}, \"recovery_ms\": {}}},",
        clean.dip_depth_pct,
        clean
            .recovery_ms
            .map_or("null".to_owned(), |v| format!("{v:.2}"))
    );
    let _ = writeln!(
        json10,
        "  \"sampler\": {{\"cadence_us\": 100, \"sampled_wall_ms\": {sampled_ms:.1}, \"unsampled_wall_ms\": {unsampled_ms:.1}, \"overhead_pct\": {sampler_overhead_pct:.1}, \"samples\": {fo_samples}}},"
    );
    json10.push_str("  \"budget_reconciles\": true,\n");
    let _ = writeln!(json10, "  \"identical_outcomes\": {fo_identical}\n}}");
    std::fs::write("BENCH_10.json", &json10).expect("write BENCH_10.json");
    println!("{json10}");
}

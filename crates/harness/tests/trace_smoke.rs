//! Satellite: tracing must be an *observer* — the CI trace-smoke job
//! runs these to guarantee (a) the Perfetto export round-trips through
//! a JSON parser with real slice events inside, and (b) enabling the
//! sink changes no measured outcome, bit for bit, in either the
//! experiment runner or the chaos harness. Determinism of the
//! discrete-event model makes the second check exact rather than
//! statistical: identical `events_processed` means identical
//! virtual-time trajectories.

use netsim::{trace::json, SimDuration, TraceHandle, Tracer};
use p4ce_harness::runner::{PointConfig, System};
use p4ce_harness::shard::fnv1a64;
use p4ce_harness::{
    chaos, observe_point, run_failover, run_point, run_point_traced, write_chrome_trace, ChaosSpec,
    FailoverConfig, Observe,
};
use replication::WorkloadSpec;

fn smoke_cfg() -> PointConfig {
    let mut cfg = PointConfig::new(System::P4ce, 2, WorkloadSpec::closed(4, 64, 0));
    // Short warm-up and window: tracing covers the whole run, so these
    // bound the record volume (and with it the debug-mode test cost).
    cfg.warmup = SimDuration::from_millis(1);
    cfg.window = SimDuration::from_millis(2);
    cfg
}

#[test]
fn chrome_trace_round_trips_through_parser() {
    let traced = run_point_traced(&smoke_cfg());
    let text = netsim::chrome_trace_json(&traced.records);
    let value = json::parse(&text).expect("exported trace must be valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace export produced no events");
    let slices = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .count();
    assert!(slices > 0, "no complete ('X') stage slices in export");
    // Every event carries the mandatory trace_events fields (metadata
    // events, ph "M", name threads/processes and carry no timestamp).
    for e in events {
        assert!(e.get("name").is_some(), "event missing name: {e:?}");
        assert!(e.get("pid").is_some(), "event missing pid: {e:?}");
        if e.get("ph").and_then(json::Value::as_str) != Some("M") {
            assert!(e.get("ts").is_some(), "event missing ts: {e:?}");
        }
    }
}

#[test]
fn tracing_does_not_perturb_experiment_points() {
    let cfg = smoke_cfg();
    let plain = run_point(&cfg);
    let traced = run_point_traced(&cfg);
    assert!(!traced.records.is_empty(), "sink was enabled");
    assert_eq!(
        plain, traced.outcome,
        "traced run must be bit-identical to the untraced run"
    );
}

#[test]
fn bounded_ring_reports_drops_and_still_exports() {
    let cfg = smoke_cfg();
    let full = run_point_traced(&cfg);
    let total = full.records.len();
    assert!(total > 64, "smoke config must emit enough records to wrap");

    let cap = 64;
    let bounded = observe_point(&cfg, &Observe::Traced(TraceHandle::bounded(cap)));
    assert_eq!(
        bounded.outcome, full.outcome,
        "ring bound must not perturb the run"
    );
    assert_eq!(bounded.records.len(), cap);
    assert_eq!(bounded.dropped_records, (total - cap) as u64);
    // The surviving tail equals the tail of the full stream, in order.
    for (kept, orig) in bounded
        .records
        .iter()
        .zip(full.records.iter().skip(total - cap))
    {
        assert_eq!(kept.t, orig.t);
        assert_eq!(kept.event, orig.event);
    }
    // Truncated chains must still export and assemble gracefully.
    let text = netsim::chrome_trace_json(&bounded.records);
    json::parse(&text).expect("bounded trace must export as valid JSON");
    assert_eq!(full.dropped_records, 0);
    // Truncation must be flagged in the human-facing table, and only
    // there — the clean run's table stays warning-free.
    assert!(
        bounded.stage_table("bounded").contains("WARNING:"),
        "stage table must surface ring truncation"
    );
    assert!(!full.stage_table("full").contains("WARNING:"));
}

#[test]
fn tracing_does_not_perturb_chaos_runs() {
    let mut spec = ChaosSpec::seeded(11, 3);
    // Half the stock storm/drain: this test compares two runs of the
    // same schedule, so it pays the chaos cost twice, and equality is
    // just as binding on a short storm as on a long one.
    spec.storm = SimDuration::from_millis(4);
    spec.drain = SimDuration::from_millis(2);
    spec.partition_from = SimDuration::from_micros(1000);
    spec.partition_until = SimDuration::from_micros(2500);
    let plain = chaos::run(&spec.on(System::P4ce, 3), &Tracer::disabled());
    let handle = TraceHandle::new();
    let traced = chaos::run(&spec.on(System::P4ce, 3), &handle.tracer("chaos"));
    assert_eq!(plain, traced, "traced chaos run must match untraced");
    let records = handle.records();
    assert!(!records.is_empty(), "chaos run emitted no trace records");
    let text = netsim::chrome_trace_json(&records);
    json::parse(&text).expect("chaos trace must export as valid JSON");
}

/// FNV-1a digests and lengths of two Chrome exports, recorded before the
/// ring shared its sealed chunks with snapshots and stored work-request
/// ids in two varints: how records are held is invisible to every
/// reader, so a storage change leaves both exports byte for byte.
#[test]
fn exports_match_the_recorded_bytes() {
    let kill = run_failover(&FailoverConfig {
        seed: 43,
        observe_for: SimDuration::from_millis(80),
        ..FailoverConfig::default()
    });
    let point = run_point_traced(&smoke_cfg());
    for (name, records, digest, len) in [
        ("failover", &kill.records, 0xc14d_0d94_66fe_d685, 8_057_897),
        ("point", &point.records, 0xeef6_cff6_2093_5df9, 15_961_334),
    ] {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("trace_smoke_{name}.json"));
        write_chrome_trace(&path, records).expect("the export is written");
        let bytes = std::fs::read(&path).expect("the export reads back");
        assert_eq!((fnv1a64(&bytes), bytes.len()), (digest, len), "{name}");
    }
}

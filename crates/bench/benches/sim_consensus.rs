//! Criterion benchmark of the simulator itself: wall-clock cost per
//! simulated consensus, end to end (hosts, switch program, full packet
//! codecs). This bounds how long the figure-regeneration sweeps take.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::{SimDuration, SimTime, TraceHandle};
use p4ce::{ClusterBuilder, WorkloadSpec};
use p4ce_harness::{observe_point, run_point, Observe, PointConfig, System};
use replication::WorkloadSpec as Spec;

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_consensus");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(8));

    // 10k decided operations per iteration, P4CE path.
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("p4ce_10k_consensus", |b| {
        b.iter(|| {
            let mut d = ClusterBuilder::new(3)
                .workload(WorkloadSpec::closed(16, 64, 10_000))
                .build();
            d.sim.run_until(SimTime::from_millis(100));
            assert_eq!(d.leader().stats.decided, 10_000);
            d.sim.events_processed()
        });
    });

    // One full measured experiment point, both systems.
    for system in [System::Mu, System::P4ce] {
        group.bench_with_input(
            BenchmarkId::new("experiment_point_5ms", format!("{system}")),
            &system,
            |b, &system| {
                b.iter(|| {
                    let mut cfg = PointConfig::new(system, 2, Spec::closed(16, 64, 0));
                    cfg.window = SimDuration::from_millis(5);
                    cfg.warmup = SimDuration::from_millis(1);
                    run_point(&cfg).decided
                });
            },
        );
    }

    // The same P4CE point with the trace sink enabled. Comparing this
    // against `experiment_point_5ms/P4CE` above gives the wall-clock
    // price of a traced point (record collection plus span assembly);
    // the disabled-sink configuration is the default in every other
    // entry, so "tracing off" needs no dedicated benchmark.
    group.bench_function("experiment_point_5ms/p4ce_traced", |b| {
        b.iter(|| {
            let mut cfg = PointConfig::new(System::P4ce, 2, Spec::closed(16, 64, 0));
            cfg.window = SimDuration::from_millis(5);
            cfg.warmup = SimDuration::from_millis(1);
            let traced = observe_point(&cfg, &Observe::Traced(TraceHandle::new()));
            (traced.outcome.decided, traced.records.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);

//! `p4ce-bench` — the one front door to the paper's evaluation: every
//! figure, table and ablation is a subcommand printing the markdown
//! table committed under `results/`, and `reproduce --check` pins those
//! files to the code that generates them. Numbers about the simulator
//! itself (wall time, events/s, allocations, per-layer kernels) are
//! `benchmark/run.sh`'s job.
//!
//! The shape claims (who wins, by what factor, where the knee is) are
//! asserted once, in `tests/systems_compare.rs`; see EXPERIMENTS.md for
//! the paper-vs-measured analysis of each table.

mod ablations;
mod cli;

use std::path::Path;
use std::process::ExitCode;

use cli::{Args, Command, Table, TABLES};
use netsim::chrome_trace_json_with;
use netsim::SimDuration;
use p4ce_harness::experiments::{
    ablation_ackdrop, e10_failover, fig5_goodput, fig6_latency, fig7_burst, groups_sweep, maxrate,
    related_p4xos, table4_failover,
};
use p4ce_harness::{
    run_point_traced, to_markdown, write_chrome_trace, PointConfig, System, TableRow,
};
use replication::WorkloadSpec;

/// A table exactly as it goes to stdout and to `results/`.
fn markdown<R: TableRow>(title: &str, rows: &[R]) -> String {
    let mut out = to_markdown(title, rows);
    out.push('\n');
    out
}

fn table(table: Table) -> String {
    let ms = SimDuration::from_millis;
    match table {
        Table::Fig5 => markdown(
            "Figure 5 — write goodput vs. item size (closed loop, 16 in flight)",
            &fig5_goodput::run(&fig5_goodput::default_sizes(), &[2, 4], ms(20), 1),
        ),
        Table::Maxrate => markdown(
            "§V-C — maximum consensus rate, 64 B values (closed loop, 16 in flight)",
            &maxrate::run(&[2, 4], ms(20)),
        ),
        Table::Fig6 => markdown(
            "Figure 6 — latency vs. throughput (64 B, open loop)",
            &fig6_latency::run(&fig6_latency::default_rates(), &[2, 4], ms(10), 1),
        ),
        Table::Fig7 => markdown(
            "Figure 7 — burst latency (64 B, closed loop)",
            &fig7_burst::run(&fig7_burst::default_bursts(), &[2, 4], ms(20)),
        ),
        Table::Table4 => markdown("Table IV — fail-over times", &table4_failover::run()),
        // Parser budgets are scaled down (2 µs/packet ≈ 0.5 Mpps) so
        // saturation is reachable in simulation; the paper's shape —
        // egress-drop capacity is flat while ingress-drop scales with
        // replicas — is preserved.
        Table::AckDrop => markdown(
            "§IV-D ablation — ACK-drop placement (scaled parser: 0.5 Mpps)",
            &ablation_ackdrop::run(&[2, 3, 4, 6], SimDuration::from_micros(2), ms(20)),
        ),
        Table::CreditMode => markdown(
            "§IV-C ablation — credit aggregation with one slow replica",
            &ablations::credit_mode(),
        ),
        Table::VerbCost => markdown(
            "Supplementary — per-verb CPU cost vs. Fig. 5's saturation knee (P4CE, 2 replicas)",
            &ablations::verb_cost(),
        ),
        Table::P4xos => markdown(
            "§VI — P4xos (modeled) vs. P4CE (measured) latency",
            &related_p4xos::run(&[50e3, 100e3, 150e3, 200e3, 500e3, 1.0e6, 2.0e6], ms(10)),
        ),
    }
}

/// Figure 6's companion: one traced low-load P4CE point, its per-stage
/// latency breakdown (where the end-to-end microseconds of the figure
/// actually go — EXPERIMENTS.md §E3) and the Chrome/Perfetto
/// `trace_events` JSON.
fn fig6_companion(path: &str) -> Result<(), String> {
    let mut cfg = PointConfig::new(System::P4ce, 2, WorkloadSpec::closed(4, 64, 0));
    cfg.window = SimDuration::from_millis(10);
    let traced = run_point_traced(&cfg);
    assert!(
        traced.breakdown.reconciles(),
        "stage means must sum to the end-to-end mean"
    );
    println!(
        "{}",
        traced.stage_table("Figure 6 companion — P4CE stage breakdown (closed loop, 2 replicas)")
    );
    write_chrome_trace(path, &traced.records).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "trace: {} records written to {path} (load in chrome://tracing or ui.perfetto.dev)",
        traced.records.len()
    );
    Ok(())
}

/// E9: `--quick` scans {1, 2, 4} with a 5 ms window (the CI smoke);
/// `--threads N` runs the sweep across N workers.
fn groups(args: &Args) {
    let (counts, window) = if args.quick {
        (vec![1, 2, 4], SimDuration::from_millis(5))
    } else {
        (
            groups_sweep::default_group_counts(),
            SimDuration::from_millis(10),
        )
    };
    let rows = groups_sweep::run(&counts, window, args.threads.unwrap_or(1));
    print!(
        "{}",
        markdown(
            "E9 — groups sweep (sharded KV, one switch, 2 parser slices)",
            &rows
        )
    );
    match groups_sweep::knee(&rows) {
        Some(g) => println!("knee: aggregate throughput stops scaling at {g} groups"),
        None => println!("knee: not reached within this scan"),
    }

    // Below the knee nothing should fall off the in-network path; past
    // it, parser saturation legitimately can push groups to fallback, so
    // only the smoke scan (which stays pre-knee) asserts.
    if args.quick {
        for row in &rows {
            assert!(
                row.accelerated_groups == row.groups,
                "{} of {} groups fell off the in-network path",
                row.groups - row.accelerated_groups,
                row.groups
            );
        }
    }
}

/// E10: the sweep table (per-phase budget + throughput dip per
/// scenario), the unavailability p50/p99 summary, and optionally the
/// canonical clean run's timeline CSV and annotated Perfetto trace.
/// `--quick` runs the three-scenario CI smoke; `--seed N` overrides
/// every scenario's seed.
fn failover(args: &Args) -> Result<(), String> {
    let mut scenarios = e10_failover::configs(args.quick);
    if let Some(seed) = args.seed {
        for s in &mut scenarios {
            s.cfg.seed = seed;
        }
    }

    let mut rows = Vec::with_capacity(scenarios.len());
    let mut canonical = None;
    for s in &scenarios {
        let out = s.run();
        rows.push(e10_failover::row(s, out.as_ref()));
        if canonical.is_none() && s.groups.is_none() && s.cfg.chaos.is_none() {
            canonical = out;
        }
    }
    print!(
        "{}",
        markdown("E10 — failover attribution (leader kill)", &rows)
    );
    println!(
        "unavailability_ms p50={} p99={}",
        e10_failover::unavailability_percentile(&rows, 50.0),
        e10_failover::unavailability_percentile(&rows, 99.0),
    );
    let unserved = rows.iter().filter(|r| r.budget_ms.is_none()).count();
    if unserved > 0 {
        println!(
            "{unserved} of {} kills saw no service in their window; the percentiles are over the rest",
            rows.len()
        );
    }

    let canonical = canonical.ok_or("no clean kill of the sweep was served in its window")?;
    println!("canonical budget ({}):", canonical.budget.unavailability());
    for p in &canonical.budget.phases {
        println!("  {:<24} {}", p.name, p.duration());
    }
    let write = |path: &str, contents: String| {
        std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if let Some(path) = &args.csv {
        write(path, canonical.timeline.to_csv())?;
        println!("timeline csv: {path}");
    }
    if let Some(path) = &args.trace {
        write(
            path,
            chrome_trace_json_with(&canonical.records, &canonical.timeline),
        )?;
        println!("perfetto trace: {path}");
    }
    Ok(())
}

/// Regenerates `results/<stem>.md` through [`table`] — or, with
/// `--check`, compares each against the committed file so the tables
/// and the code that prints them cannot drift apart.
fn reproduce(args: &Args) -> Result<(), String> {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut stale = Vec::new();
    for (t, stem) in TABLES {
        if !(args.tables.is_empty() || args.tables.contains(&t)) {
            continue;
        }
        let path = results.join(format!("{stem}.md"));
        let fresh = table(t);
        if !args.check {
            std::fs::write(&path, fresh)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("{stem}: written");
            continue;
        }
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if committed == fresh {
            println!("{stem}: identical");
            continue;
        }
        let mut lines = committed.lines().zip(fresh.lines()).enumerate();
        match lines.find(|(_, (c, f))| c != f) {
            Some((i, (c, f))) => println!(
                "{stem}: DIFFERS at line {}\n  committed: {c}\n  generated: {f}",
                i + 1
            ),
            None => println!("{stem}: DIFFERS in length"),
        }
        stale.push(stem);
    }
    if stale.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "results/ is stale: {} (regenerate with `p4ce-bench reproduce`)",
            stale.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let done = match args.command {
        Command::Table(t) => {
            print!("{}", table(t));
            // Only fig6 takes --trace.
            args.trace.as_deref().map_or(Ok(()), fig6_companion)
        }
        Command::Groups => {
            groups(&args);
            Ok(())
        }
        Command::Failover => failover(&args),
        Command::Reproduce => reproduce(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

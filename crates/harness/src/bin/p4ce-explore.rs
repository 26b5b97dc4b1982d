//! `p4ce-explore` — bounded model checking of the replication protocols
//! from the command line (and from CI).
//!
//! ```text
//! p4ce-explore exhaustive [spec flags] [--delay-bound D] [--seeds a,b,c]
//! p4ce-explore random     [spec flags] [--schedules N]
//! p4ce-explore mutation-check [--system p4ce|mu]
//! p4ce-explore sharded-mutation-check
//! p4ce-explore replay <reproducer-file> [--trace TRACE.json]
//! ```
//!
//! Spec flags: `--system p4ce|mu`, `--members N`, `--groups G`
//! (G ≥ 2 explores a sharded deployment behind one switch, with the
//! per-group oracle suite), `--seed S`, `--horizon H`,
//! `--propose-every K`, `--plain-fabric`, `--partition-at STEP`,
//! `--max-schedules M`, `--deadline-secs T`, `--out FILE` (write the
//! shrunk reproducer there on violation).
//!
//! Exit codes: 0 = clean (or, for the mutation checks, the injected bug
//! was caught); 1 = an oracle violation survived (or a mutation check
//! failed to catch its bug); 2 = usage error.

use std::process::ExitCode;
use std::time::Duration;

use netsim::TraceHandle;
use p4ce_harness::explore::{self, shrink, Budget, ExploreSpec};
use p4ce_harness::repro::Repro;
use p4ce_harness::runner::System;

struct Options {
    spec: ExploreSpec,
    delay_bound: u32,
    seeds: Vec<u64>,
    schedules: u64,
    max_schedules: u64,
    deadline: Option<Duration>,
    out: Option<String>,
}

impl Options {
    fn defaults() -> Options {
        Options {
            spec: ExploreSpec::p4ce(3),
            delay_bound: 2,
            seeds: Vec::new(),
            schedules: 64,
            max_schedules: 20_000,
            deadline: None,
            out: None,
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: p4ce-explore <exhaustive|random|mutation-check|sharded-mutation-check\
         |replay FILE [--trace TRACE.json]> \
         [--system p4ce|mu] [--members N] [--groups G] [--seed S] [--seeds a,b,c] \
         [--delay-bound D] [--horizon H] [--propose-every K] \
         [--plain-fabric] [--partition-at STEP] [--schedules N] \
         [--max-schedules M] [--deadline-secs T] [--out FILE]"
    );
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::defaults();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--system" => {
                o.spec.system = match value()? {
                    "p4ce" => System::P4ce,
                    "mu" => System::Mu,
                    other => return Err(format!("unknown system {other}")),
                }
            }
            "--members" => o.spec.n_members = value()?.parse().map_err(|e| format!("{e}"))?,
            "--groups" => o.spec.groups = value()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => o.spec.seed = value()?.parse().map_err(|e| format!("{e}"))?,
            "--seeds" => {
                o.seeds = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad seed {s}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--delay-bound" => o.delay_bound = value()?.parse().map_err(|e| format!("{e}"))?,
            "--horizon" => o.spec.horizon = value()?.parse().map_err(|e| format!("{e}"))?,
            "--propose-every" => {
                o.spec.propose_every = value()?.parse().map_err(|e| format!("{e}"))?
            }
            "--plain-fabric" => o.spec.p4ce_enabled = false,
            "--partition-at" => {
                o.spec.partition_leader_at = Some(value()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--schedules" => o.schedules = value()?.parse().map_err(|e| format!("{e}"))?,
            "--max-schedules" => o.max_schedules = value()?.parse().map_err(|e| format!("{e}"))?,
            "--deadline-secs" => {
                o.deadline = Some(Duration::from_secs(
                    value()?.parse().map_err(|e| format!("{e}"))?,
                ))
            }
            "--out" => o.out = Some(value()?.to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.seeds.is_empty() {
        o.seeds = vec![o.spec.seed];
    }
    Ok(o)
}

fn budget(o: &Options) -> Budget {
    let mut b = Budget::schedules(o.max_schedules);
    if let Some(d) = o.deadline {
        b = b.with_deadline(d);
    }
    b
}

/// Shrinks a violating schedule, prints the reproducer, optionally
/// writes it to `--out`.
fn report_violation(spec: &ExploreSpec, cex: &explore::Counterexample, out: Option<&str>) {
    println!("violation: {}", cex.violation);
    match shrink::shrink(spec, &cex.decisions) {
        Some(small) => {
            println!(
                "shrunk to {} decisions / horizon {} in {} schedules; reproducer:",
                small.decisions.len(),
                small.spec.horizon,
                small.schedules
            );
            let text = small.spec.to_repro(&small.decisions).encode();
            print!("{text}");
            if let Some(path) = out {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("warning: could not write {path}: {e}");
                } else {
                    println!("(written to {path})");
                }
            }
        }
        None => println!("warning: violation did not reproduce under shrinking"),
    }
}

fn run_exhaustive(o: &Options) -> ExitCode {
    let mut clean = true;
    for &seed in &o.seeds {
        let spec = ExploreSpec {
            seed,
            ..o.spec.clone()
        };
        let report = explore::explore(&spec, o.delay_bound, budget(o));
        println!(
            "seed {seed}: {:?} after {} schedules ({} branch points max)",
            report.status, report.schedules, report.max_branch_points
        );
        if let Some(cex) = &report.counterexample {
            report_violation(&spec, cex, o.out.as_deref());
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_random(o: &Options) -> ExitCode {
    let mut clean = true;
    for &seed in &o.seeds {
        let spec = ExploreSpec {
            seed,
            ..o.spec.clone()
        };
        let mut b = Budget::schedules(o.schedules);
        if let Some(d) = o.deadline {
            b = b.with_deadline(d);
        }
        let report = explore::random_walk(&spec, b);
        println!(
            "seed {seed}: {:?} after {} random walks ({} branch points max)",
            report.status, report.schedules, report.max_branch_points
        );
        if let Some(cex) = &report.counterexample {
            report_violation(&spec, cex, o.out.as_deref());
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Self-test: arm the `skip_epoch_revoke` mutation and demand that the
/// single-writer oracle catches it and that shrinking produces a small
/// reproducer. CI runs this so the checker itself cannot silently rot.
fn run_mutation_check(o: &Options) -> ExitCode {
    let spec = ExploreSpec {
        system: o.spec.system,
        ..ExploreSpec::single_writer_mutation(o.spec.n_members)
    };
    let report = explore::explore(&spec, 0, Budget::schedules(4));
    let Some(cex) = &report.counterexample else {
        eprintln!("mutation check FAILED: injected single-writer bug was not caught");
        return ExitCode::FAILURE;
    };
    println!("mutation caught: {}", cex.violation);
    let Some(small) = shrink::shrink(&spec, &cex.decisions) else {
        eprintln!("mutation check FAILED: violation did not survive shrinking");
        return ExitCode::FAILURE;
    };
    if small.decisions.len() > 20 {
        eprintln!(
            "mutation check FAILED: reproducer has {} decisions (> 20)",
            small.decisions.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "shrunk to {} decisions / horizon {}; reproducer:",
        small.decisions.len(),
        small.spec.horizon
    );
    print!("{}", small.spec.to_repro(&small.decisions).encode());
    ExitCode::SUCCESS
}

/// Self-test for the multi-group oracles: arm the switch's group
/// cross-wiring mutation (two shards' scatter tables swapped — every
/// group still agrees internally, so only the group-tag audit can see
/// it) and demand the group-isolation oracle catches it on the very
/// first schedule.
fn run_sharded_mutation_check(o: &Options) -> ExitCode {
    let spec = ExploreSpec::crosswire_mutation(o.spec.n_members);
    let report = explore::explore(&spec, 0, Budget::schedules(1));
    let Some(cex) = &report.counterexample else {
        eprintln!("sharded mutation check FAILED: cross-wired groups were not caught");
        return ExitCode::FAILURE;
    };
    println!("mutation caught: {}", cex.violation);
    if cex.violation.oracle != p4ce_harness::explore::oracle::OracleKind::GroupIsolation {
        eprintln!(
            "sharded mutation check FAILED: wrong oracle fired ({})",
            cex.violation.oracle
        );
        return ExitCode::FAILURE;
    }
    print!("{}", spec.to_repro(&cex.decisions).encode());
    ExitCode::SUCCESS
}

/// Writes the collected records to `trace_out` as Perfetto JSON and
/// prints the assembled stage-breakdown table. Runs after the replay
/// whether it was clean or failing — visualizing the failing schedule
/// is the point of `--trace`.
fn export_trace(handle: &TraceHandle, trace_out: &str) {
    let records = handle.records();
    if let Err(e) = p4ce_harness::write_chrome_trace(trace_out, &records) {
        eprintln!("warning: could not write {trace_out}: {e}");
    } else {
        println!(
            "trace: {} records written to {trace_out} (Perfetto/chrome://tracing)",
            records.len()
        );
    }
    let spans = netsim::assemble_spans(&records);
    print!(
        "{}",
        p4ce_harness::stage_table("replay stage breakdown", &netsim::breakdown(&spans))
    );
}

fn run_replay(path: &str, trace_out: Option<&str>) -> ExitCode {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return usage(&format!("cannot read {path}: {e}")),
    };
    let repro = match Repro::decode(&text) {
        Ok(r) => r,
        Err(e) => return usage(&format!("bad reproducer {path}: {e}")),
    };
    let handle = TraceHandle::new();
    let tracer = match trace_out {
        Some(_) => handle.tracer("replay"),
        None => netsim::Tracer::disabled(),
    };
    if repro.kind == "chaos" {
        let run = catch_unwind(AssertUnwindSafe(|| {
            p4ce_harness::chaos::replay(&repro, &tracer)
        }));
        let code = match run {
            Ok(Ok(report)) => {
                println!(
                    "chaos replay clean: {} decided, {} frames dropped",
                    report.decided_final, report.frames_dropped
                );
                ExitCode::SUCCESS
            }
            Ok(Err(e)) => return usage(&format!("cannot replay {path}: {e}")),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                println!("chaos replay reproduced the failure: {msg}");
                ExitCode::FAILURE
            }
        };
        if let Some(out) = trace_out {
            export_trace(&handle, out);
        }
        return code;
    }
    match explore::replay(&repro, &tracer) {
        Ok(outcome) => {
            let code = match outcome.violation {
                Some(v) => {
                    println!("replayed {} steps: {v}", outcome.steps);
                    ExitCode::FAILURE
                }
                None => {
                    println!("replayed {} steps: no violation", outcome.steps);
                    ExitCode::SUCCESS
                }
            };
            if let Some(out) = trace_out {
                export_trace(&handle, out);
            }
            code
        }
        Err(e) => usage(&format!("cannot replay {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage("missing mode");
    };
    match mode.as_str() {
        "replay" => {
            let Some(path) = args.get(1) else {
                return usage("replay needs a reproducer file");
            };
            let trace_out = match args.get(2).map(String::as_str) {
                Some("--trace") => match args.get(3) {
                    Some(p) => Some(p.as_str()),
                    None => return usage("--trace needs an output file"),
                },
                Some(other) => return usage(&format!("unknown replay flag {other}")),
                None => None,
            };
            run_replay(path, trace_out)
        }
        "exhaustive" | "random" | "mutation-check" | "sharded-mutation-check" => {
            match parse_options(&args[1..]) {
                Ok(o) => match mode.as_str() {
                    "exhaustive" => run_exhaustive(&o),
                    "random" => run_random(&o),
                    "sharded-mutation-check" => run_sharded_mutation_check(&o),
                    _ => run_mutation_check(&o),
                },
                Err(e) => usage(&e),
            }
        }
        other => usage(&format!("unknown mode {other}")),
    }
}

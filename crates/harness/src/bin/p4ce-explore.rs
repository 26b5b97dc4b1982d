//! `p4ce-explore` — bounded model checking of the replication protocols
//! from the command line (and from CI).
//!
//! ```text
//! p4ce-explore exhaustive [spec flags] [--seeds a,b,c] [--delay-bound D] [--schedules N]
//! p4ce-explore random     [spec flags] [--seeds a,b,c] [--schedules N]
//! p4ce-explore mutation-check [--system p4ce|mu] [--members N]
//! p4ce-explore replay <reproducer-file> [--trace TRACE.json]
//! ```
//!
//! Spec flags: `--system p4ce|mu`, `--members N`, `--groups G`
//! (G ≥ 2 explores a sharded deployment behind one switch, with the
//! per-group oracle suite), `--horizon H`, `--propose-every K`,
//! `--plain-fabric`, `--partition-at STEP`. Both exploring modes also
//! take `--seeds` (default 42), `--schedules N` (the schedule budget:
//! 20,000 exhaustive, 64 random walks by default), `--deadline-secs T`
//! and `--out FILE` (write the shrunk reproducer there on violation). A
//! mode reads only its own flags ([`MODES`]); any other word, and a
//! deployment the builders cannot build, is a usage error.
//!
//! `mutation-check` plants every bug of [`explore::MUTATIONS`] that the
//! system can host, each in its own scenario, and demands that the bug's
//! oracle catches it.
//!
//! Exit codes: 0 = clean (or, for `mutation-check`, every planted bug
//! was caught); 1 = an oracle violation survived (or a planted bug
//! escaped its oracle, or a bug the system hosts could not be planted);
//! 2 = usage error.

use std::process::ExitCode;
use std::time::Duration;

use netsim::TraceHandle;
use p4ce_harness::explore::{self, shrink, Budget, ExploreSpec, Mutation, MUTATIONS};
use p4ce_harness::repro::Repro;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Exhaustive,
    Random,
    MutationCheck,
    Replay,
}

/// Every mode with the flags it reads; anything else is a usage error,
/// so a typo can never silently change what runs.
const MODES: [(&str, Mode, &[&str]); 4] = [
    (
        "exhaustive",
        Mode::Exhaustive,
        &[
            "--system",
            "--members",
            "--groups",
            "--horizon",
            "--propose-every",
            "--plain-fabric",
            "--partition-at",
            "--seeds",
            "--delay-bound",
            "--schedules",
            "--deadline-secs",
            "--out",
        ],
    ),
    (
        "random",
        Mode::Random,
        &[
            "--system",
            "--members",
            "--groups",
            "--horizon",
            "--propose-every",
            "--plain-fabric",
            "--partition-at",
            "--seeds",
            "--schedules",
            "--deadline-secs",
            "--out",
        ],
    ),
    (
        "mutation-check",
        Mode::MutationCheck,
        &["--system", "--members"],
    ),
    ("replay", Mode::Replay, &["--trace"]),
];

const USAGE: &str = "\
usage: p4ce-explore <mode> [flags]
  exhaustive  [spec flags] [--seeds a,b,c] [--delay-bound D] [--schedules N] [--deadline-secs T] [--out FILE]
  random      [spec flags] [--seeds a,b,c] [--schedules N] [--deadline-secs T] [--out FILE]
  mutation-check [--system p4ce|mu] [--members N]
  replay FILE [--trace TRACE.json]
spec flags: [--system p4ce|mu] [--members N] [--groups G] [--horizon H]
            [--propose-every K] [--plain-fabric] [--partition-at STEP]
--schedules defaults to 20000 (exhaustive) or 64 (random)";

struct Options {
    mode: Mode,
    spec: ExploreSpec,
    delay_bound: u32,
    seeds: Vec<u64>,
    /// The mode's schedule budget: explored schedules or random walks.
    schedules: u64,
    deadline: Option<Duration>,
    out: Option<String>,
    /// `replay`'s reproducer file and `--trace` output.
    file: Option<String>,
    trace: Option<String>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn value<'a>(flag: &str, word: Option<&'a str>) -> Result<&'a str, String> {
    word.filter(|w| !w.starts_with("--"))
        .ok_or_else(|| format!("{flag} takes a value"))
}

fn number<T: std::str::FromStr>(flag: &str, word: Option<&str>) -> Result<T, String> {
    let text = value(flag, word)?;
    text.parse()
        .map_err(|_| format!("{flag} takes a number, got '{text}'"))
}

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut words = argv.iter().map(String::as_str);
    let name = words.next().ok_or("missing mode")?;
    let &(_, mode, flags) = MODES
        .iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| format!("unknown mode '{name}'"))?;
    let mut o = Options {
        mode,
        spec: ExploreSpec::p4ce(3),
        delay_bound: 2,
        seeds: Vec::new(),
        schedules: if mode == Mode::Exhaustive { 20_000 } else { 64 },
        deadline: None,
        out: None,
        file: None,
        trace: None,
    };
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            if mode != Mode::Replay || o.file.is_some() {
                return Err(format!("unexpected argument '{word}'"));
            }
            o.file = Some(word.to_owned());
            continue;
        }
        if !flags.contains(&word) {
            return Err(format!("{name} does not take {word}"));
        }
        match word {
            "--system" => o.spec.system = value(word, words.next())?.parse()?,
            "--members" => o.spec.n_members = number(word, words.next())?,
            "--groups" => o.spec.groups = number(word, words.next())?,
            "--seeds" => {
                o.seeds = value(word, words.next())?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad seed {s}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--delay-bound" => o.delay_bound = number(word, words.next())?,
            "--horizon" => o.spec.horizon = number(word, words.next())?,
            "--propose-every" => o.spec.propose_every = number(word, words.next())?,
            "--plain-fabric" => o.spec.p4ce_enabled = false,
            "--partition-at" => o.spec.faults = explore::leader_cut_at(number(word, words.next())?),
            "--schedules" => o.schedules = number(word, words.next())?,
            "--deadline-secs" => {
                o.deadline = Some(Duration::from_secs(number(word, words.next())?))
            }
            "--out" => o.out = Some(value(word, words.next())?.to_owned()),
            "--trace" => o.trace = Some(value(word, words.next())?.to_owned()),
            _ => unreachable!("every flag in MODES is parsed above"),
        }
    }
    if mode == Mode::Replay && o.file.is_none() {
        return Err("replay needs a reproducer file".to_owned());
    }
    o.spec.check()?;
    if o.seeds.is_empty() {
        o.seeds = vec![o.spec.seed];
    }
    Ok(o)
}

/// Prints a violating schedule as `{label}: {violation}`, shrinks it,
/// prints the reproducer and optionally writes it to `--out`; `None` if
/// the violation did not survive shrinking.
fn report_violation(
    label: &str,
    spec: &ExploreSpec,
    cex: &explore::Counterexample,
    out: Option<&str>,
) -> Option<shrink::Shrunk> {
    println!("{label}: {}", cex.violation);
    let Some(small) = shrink::shrink(spec, &cex.decisions) else {
        println!("warning: violation did not reproduce under shrinking");
        return None;
    };
    println!(
        "shrunk to {} decisions / horizon {} in {} schedules; reproducer:",
        small.decisions.len(),
        small.spec.horizon,
        small.schedules
    );
    let text = small.spec.to_repro(&small.decisions).encode();
    print!("{text}");
    if let Some(path) = out {
        match std::fs::write(path, &text) {
            Ok(()) => println!("(written to {path})"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    Some(small)
}

/// `exhaustive` and `random`: one exploration per seed, bounded by the
/// schedule budget and the deadline.
fn run_seeds(o: &Options) -> ExitCode {
    let budget = Budget::schedules(o.schedules);
    let budget = o.deadline.map_or(budget, |d| budget.with_deadline(d));
    let mut clean = true;
    for &seed in &o.seeds {
        let spec = ExploreSpec {
            seed,
            ..o.spec.clone()
        };
        let (report, unit) = match o.mode {
            Mode::Exhaustive => (explore::explore(&spec, o.delay_bound, budget), "schedules"),
            _ => (explore::random_walk(&spec, budget), "random walks"),
        };
        println!(
            "seed {seed}: {:?} after {} {unit} ({} branch points max)",
            report.status, report.schedules, report.max_branch_points
        );
        if let Some(cex) = &report.counterexample {
            report_violation("violation", &spec, cex, o.out.as_deref());
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Self-test: plant every bug `--system` can host in its scenario and
/// demand that its oracle catches it and that shrinking produces a small
/// reproducer. CI runs this so the checker itself cannot silently rot.
fn run_mutation_check(o: &Options) -> ExitCode {
    let planted = match hosted_mutations(o) {
        Ok(planted) => planted,
        Err(e) => {
            eprintln!("mutation check FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut caught = true;
    for (m, spec) in &planted {
        println!(
            "== planted {}: the {} oracle must catch it",
            m.name, m.oracle
        );
        caught &= check_mutation(m, spec);
    }
    if caught {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every row of [`MUTATIONS`] whose bug `--system` hosts, in the row's
/// scenario. A hosted bug whose scenario cannot be built is an error, and
/// so is a run that would plant nothing: the self-test never loses a bug
/// without saying so.
fn hosted_mutations(o: &Options) -> Result<Vec<(&'static Mutation, ExploreSpec)>, String> {
    let mut planted = Vec::new();
    for m in &MUTATIONS {
        let spec = ExploreSpec {
            system: o.spec.system,
            ..ExploreSpec::mutation(m.bug, o.spec.n_members)
        };
        if (m.hosts)(&spec) {
            spec.check()
                .map_err(|e| format!("planted {} cannot run: {e}", m.name))?;
            planted.push((m, spec));
        }
    }
    if planted.is_empty() {
        return Err(format!("no planted bug runs on {}", o.spec.system));
    }
    Ok(planted)
}

fn check_mutation(m: &Mutation, spec: &ExploreSpec) -> bool {
    let report = explore::explore(spec, 0, Budget::schedules(1));
    let Some(cex) = &report.counterexample else {
        eprintln!("mutation check FAILED: planted {} was not caught", m.name);
        return false;
    };
    let Some(small) = report_violation("mutation caught", spec, cex, None) else {
        eprintln!(
            "mutation check FAILED: planted {} did not survive shrinking",
            m.name
        );
        return false;
    };
    let caught = cex.violation.oracle == m.oracle
        && small.violation.oracle == m.oracle
        && small.decisions.len() <= 20;
    if !caught {
        eprintln!(
            "mutation check FAILED: planted {} tripped {} ({} once shrunk to {} decisions); \
             wanted {} in at most 20",
            m.name,
            cex.violation.oracle,
            small.violation.oracle,
            small.decisions.len(),
            m.oracle
        );
    }
    caught
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
    let code = if repro.kind == "chaos" {
        let run = catch_unwind(AssertUnwindSafe(|| {
            p4ce_harness::chaos::replay(&repro, &tracer)
        }));
        match run {
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
        }
    } else {
        match explore::replay(&repro, &tracer) {
            Ok(outcome) => match outcome.violation {
                Some(v) => {
                    println!("replayed {} steps: {v}", outcome.steps);
                    ExitCode::FAILURE
                }
                None => {
                    println!("replayed {} steps: no violation", outcome.steps);
                    ExitCode::SUCCESS
                }
            },
            Err(e) => return usage(&format!("cannot replay {path}: {e}")),
        }
    };
    if let Some(out) = trace_out {
        export_trace(&handle, out);
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    match o.mode {
        Mode::Exhaustive | Mode::Random => run_seeds(&o),
        Mode::MutationCheck => run_mutation_check(&o),
        Mode::Replay => run_replay(
            o.file.as_deref().expect("parse demands it"),
            o.trace.as_deref(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4ce_harness::runner::System;

    fn parse_words(line: &str) -> Result<Options, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&argv)
    }

    #[test]
    fn flags_land_in_their_fields() {
        let o = parse_words("exhaustive --system mu --delay-bound 3 --horizon 100 --seeds 41,42")
            .expect("valid");
        assert_eq!((o.mode, o.spec.system), (Mode::Exhaustive, System::Mu));
        assert_eq!((o.delay_bound, o.spec.horizon), (3, 100));
        assert_eq!(o.seeds, [41, 42]);

        let o = parse_words("random --groups 2 --schedules 8").expect("valid");
        assert_eq!((o.spec.groups, o.schedules), (2, 8));

        // Each exploring mode has its own schedule budget by default.
        let budget = |line| parse_words(line).expect("valid").schedules;
        assert_eq!((budget("exhaustive"), budget("random")), (20_000, 64));
        assert_eq!(budget("exhaustive --schedules 9"), 9);

        let o = parse_words("replay bug.repro --trace out.json").expect("valid");
        assert_eq!(o.file.as_deref(), Some("bug.repro"));
        assert_eq!(o.trace.as_deref(), Some("out.json"));
    }

    #[test]
    fn what_would_silently_run_something_else_is_rejected() {
        for line in [
            "",
            "exhaustively",
            "--seed 3",
            // a flag the mode ignores
            "mutation-check --horizon 5 --groups 2",
            "random --delay-bound 3",
            "random --max-schedules 9",
            "random --seed 9",
            "exhaustive --trace out.json",
            // stray words
            "replay",
            "replay bug.repro --trace out.json extra",
            "random extra",
            // missing or malformed value
            "random --schedules",
            "random --schedules many",
            "random --schedules --seeds 3",
            "exhaustive --system raft",
            "exhaustive --seeds 1,x",
            "replay bug.repro --trace",
        ] {
            assert!(parse_words(line).is_err(), "'{line}' must not parse");
        }
    }

    #[test]
    fn a_deployment_the_builders_cannot_build_is_a_usage_error() {
        for line in [
            "exhaustive --members 1",
            "exhaustive --members 200",
            "random --members 24",
            "random --system mu --groups 2",
            "random --groups 0",
            "random --groups 254",
            "mutation-check --members 1",
            "mutation-check --system mu --members 128",
        ] {
            assert!(parse_words(line).is_err(), "'{line}' must not parse");
        }
        for line in [
            "random --members 23",
            "random --groups 2 --members 23",
            "random --system mu --members 127",
        ] {
            assert!(parse_words(line).is_ok(), "'{line}' must parse");
        }
    }

    #[test]
    fn mutation_check_plants_every_hosted_bug_or_fails() {
        let names = |line: &str| -> Result<Vec<&str>, String> {
            let o = parse_words(line).expect("valid");
            Ok(hosted_mutations(&o)?.iter().map(|(m, _)| m.name).collect())
        };
        assert_eq!(
            names("mutation-check"),
            Ok(vec!["skip-epoch-revoke", "crosswire-groups"])
        );
        assert_eq!(
            names("mutation-check --system mu"),
            Ok(vec!["skip-epoch-revoke"])
        );
        // A bug the deployment hosts but whose scenario cannot be built
        // fails the check instead of dropping out of it.
        let mut o = parse_words("mutation-check").expect("valid");
        o.spec.n_members = 24;
        let e = hosted_mutations(&o).expect_err("24 P4CE members cannot be built");
        assert!(e.starts_with("planted skip-epoch-revoke cannot run"), "{e}");
    }

    #[test]
    fn a_chaos_reproducer_that_cannot_run_is_a_usage_error() {
        use netsim::SimDuration;
        use p4ce_harness::ChaosSpec;
        let seeded = ChaosSpec::seeded(7, 3);
        let forever = SimDuration::from_nanos(u64::MAX);
        for (what, spec) in [
            (
                "jitter",
                ChaosSpec {
                    jitter: forever,
                    ..seeded
                },
            ),
            (
                "storm",
                ChaosSpec {
                    storm: forever,
                    ..seeded
                },
            ),
            (
                "propose_every",
                ChaosSpec {
                    propose_every: SimDuration::ZERO,
                    ..seeded
                },
            ),
        ] {
            let repro = spec.on(System::P4ce, 3).to_repro();
            let path = std::env::temp_dir().join(format!(
                "p4ce-explore-refused-{what}-{}.repro",
                std::process::id()
            ));
            std::fs::write(&path, repro.encode()).expect("write the reproducer");
            let code = run_replay(path.to_str().expect("utf-8 path"), None);
            std::fs::remove_file(&path).expect("remove the reproducer");
            assert_eq!(code, ExitCode::from(2), "{what}");
        }
    }

    #[test]
    fn every_mode_accepts_only_the_flags_it_reads() {
        let spelled = [
            ("--system", "--system mu"),
            ("--members", "--members 5"),
            ("--groups", "--groups 2"),
            ("--horizon", "--horizon 100"),
            ("--propose-every", "--propose-every 4"),
            ("--plain-fabric", "--plain-fabric"),
            ("--partition-at", "--partition-at 10"),
            ("--seeds", "--seeds 1,2"),
            ("--delay-bound", "--delay-bound 1"),
            ("--schedules", "--schedules 8"),
            ("--deadline-secs", "--deadline-secs 5"),
            ("--out", "--out bug.repro"),
            ("--trace", "--trace out.json"),
        ];
        for (name, mode, flags) in MODES {
            let file = if mode == Mode::Replay {
                " bug.repro"
            } else {
                ""
            };
            let bare =
                parse_words(&format!("{name}{file}")).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(bare.mode, mode, "{name}");
            for (flag, words) in spelled {
                let parsed = parse_words(&format!("{name}{file} {words}"));
                assert_eq!(
                    parsed.is_ok(),
                    flags.contains(&flag),
                    "{name} {words}: {:?}",
                    parsed.err()
                );
            }
        }
    }
}

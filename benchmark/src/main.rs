//! The repo's benchmark: six named workloads on two clocks.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]   one run
//! benchmark [--seed N] [--seconds S] [--quick] [--out FILE]           the whole suite
//! benchmark --compare A.json B.json                                   two suites, row by row
//! benchmark --manifest                                                BENCHMARK.json
//! ```
//!
//! One run measures one workload in one process on one thread: with
//! `--trace 0` the end-to-end metrics (tracing off), with `--trace 1`
//! the per-layer metrics. Its last line of standard output is the JSON
//! object `BENCHMARK.json`'s contract describes; any failed correctness
//! check exits non-zero before a single number is printed. The suite
//! re-executes this binary once per workload and mode, so every run gets
//! a fresh heap and its own resident-set high-water mark.
//!
//! `benchmark/README.md` has the metric glossary, the reason for each
//! workload and the layer → end-to-end map.

mod alloc;
mod compare;
mod drive;
mod e2e;
mod kernels;
mod layers;
mod manifest;
mod noise;
mod report;
mod spans;
mod spec;
mod stat;
mod sut;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Report;
use spec::{Scale, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the traced run and the suite leave their files, relative to the
/// directory the command is run from (the repository root).
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().ok_or(format!("{flag} takes a value"))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut argv, &flag)?),
            "--seed" => {
                args.seed = Some(
                    value(&mut argv, &flag)?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value(&mut argv, &flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value(&mut argv, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value(&mut argv, &flag)?),
            "--compare" => {
                let a = value(&mut argv, &flag)?;
                let b = value(&mut argv, &flag)?;
                args.compare = Some((a, b));
            }
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run: prints the table, the detail line and, last, the contract's
/// JSON object.
fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let seed = args.seed.unwrap_or(42);
    let seconds = args.seconds.unwrap_or(f64::from(manifest::RUN_SECONDS));
    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    let report = if args.trace.unwrap_or(false) {
        layers::run(workload, seed, seconds, scale, Path::new(OUT_DIR))?
    } else {
        e2e::run(workload, seed, seconds, scale)?
    };
    print!("{}", report.table());
    println!("detail: {}", report.detail_json());
    println!("{}", report.contract_line());
    Ok(())
}

/// The whole suite: every workload, tracing off and then on, each in a
/// child process of its own.
fn run_suite(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seed = args.seed.unwrap_or(42);
    // A quick run does one repeat whatever the budget; the budget then
    // only feeds the kernels, which need none to show they run.
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.1
    } else {
        f64::from(manifest::RUN_SECONDS)
    });
    let mut reports: Vec<Report> = Vec::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child to end and collects its pipes.
            let out = cmd
                .output()
                .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "{} --trace {trace} failed:\n{}{}",
                    w.name(),
                    stdout,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let detail = stdout
                .lines()
                .find_map(|l| l.strip_prefix("detail: "))
                .ok_or(format!("{} printed no detail line", w.name()))?;
            let parsed = sut::json::parse(detail).map_err(|e| format!("bad detail line: {e}"))?;
            reports.push(Report::from_detail(&parsed)?);
            for line in stdout
                .lines()
                .filter(|l| !l.starts_with('{') && !l.starts_with("detail: "))
            {
                println!("{line}");
            }
            println!();
        }
    }
    // The paper's thesis as one number: behind P4CE the leader sends each
    // value once, behind Mu once per replica (4 here).
    let leader_bytes = |workload: &str| {
        reports
            .iter()
            .find(|r| r.traced && r.workload == workload)
            .and_then(|r| {
                r.metrics
                    .iter()
                    .find(|m| m.name == "netsim.link.leader_tx_bytes_per_decided")
            })
            .map(|m| m.value)
            .ok_or(format!("no traced run of {workload}"))
    };
    let fan_out = leader_bytes("mu_fanout")? / leader_bytes("small_closed")?;
    if !(3.5..=4.5).contains(&fan_out) {
        return Err(format!(
            "mu_fanout's leader sends {fan_out:.2}x the bytes per decided value of small_closed's, \
             not the 4x of four replicas"
        ));
    }
    println!("leader uplink bytes per decided value, mu_fanout / small_closed: {fan_out:.3}x");

    let path = args.out.clone().map_or_else(
        || Path::new(OUT_DIR).join(format!("suite-seed{seed}.json")),
        PathBuf::from,
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    let body: Vec<String> = reports.iter().map(Report::detail_json).collect();
    let text = format!(
        "{{\"seed\": {seed}, \"quick\": {}, \"reports\": [\n{}\n]}}\n",
        args.quick,
        body.join(",\n")
    );
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    if args.quick {
        println!("QUICK run: short windows, one repeat — these numbers are not comparable");
    }
    println!("suite written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    alloc::pin_mmap_threshold();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.manifest {
        print!("{}", manifest::benchmark_json());
        Ok(())
    } else if let Some((a, b)) = &args.compare {
        compare::load_suite(a)
            .and_then(|ra| Ok((ra, compare::load_suite(b)?)))
            .and_then(|(ra, rb)| compare::compare(&ra, &rb))
            .and_then(|(table, acceptable)| {
                print!("{table}");
                if acceptable {
                    Ok(())
                } else {
                    Err("B regressed against A".to_owned())
                }
            })
    } else if let Some(name) = &args.workload {
        match Workload::from_name(name) {
            Some(w) => run_one(w, &args),
            None => Err(format!("unknown workload {name}")),
        }
    } else if args.trace.is_some() {
        Err("--trace needs --workload".to_owned())
    } else {
        run_suite(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = parse("--workload mu_fanout --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("mu_fanout"));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.seconds, Some(12.0));
        assert_eq!(a.trace, Some(true));
        assert!(!a.quick);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--compare only-one",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}

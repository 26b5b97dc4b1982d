//! `BENCHMARK.json`, generated from the tables in `spec.rs` so the two
//! cannot drift: `benchmark --manifest` prints it, and a unit test fails
//! when the file at the repository root says anything else.

use std::fmt::Write as _;

use crate::spec::{per_layer, Workload, END_TO_END};

/// How long one run measures, seconds: `--seconds` as the driver passes
/// it. 22 runs per workload plus two builds have to fit the driver's
/// hour, and a run spends 2–6 s outside its measured time (the library
/// cross-check, the reference repeat, calibration, the last repeat's
/// overshoot). Longer is steadier: every slice of a repeat is only as
/// good as the quietest of its sightings, and a run of 18 s sees each
/// slice 9 (the ladder) to 30 times.
pub const RUN_SECONDS: u32 = 18;

const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "benchmark",
    "--",
];

pub fn benchmark_json() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let mut out = String::from("{\n  \"command\": [");
    out.push_str(
        &COMMAND
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push_str("],\n  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name(),
            w.why(),
            if i + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            if i + 1 < layers.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::json::{self, Value};

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_manifest_keeps_to_the_contract() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let v = json::parse(&text).expect("valid JSON");
        let Value::Obj(entries) = &v else {
            panic!("an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let len = |k: &str| v.get(k).and_then(Value::as_arr).expect("array").len();
        assert!((2..=8).contains(&len("workloads")));
        assert!((1..=16).contains(&len("end_to_end")));
        assert!((1..=128).contains(&len("per_layer")));
        assert!(len("command") <= 32);
        assert!((1..=60).contains(&RUN_SECONDS));
        let e2e = v.get("end_to_end").and_then(Value::as_arr).expect("array");
        assert!(e2e.iter().any(|m| {
            m.get("name").and_then(Value::as_str) == Some("setup_s")
                && m.get("unit").and_then(Value::as_str) == Some("s")
                && m.get("better").and_then(Value::as_str) == Some("lower")
        }));
        for m in e2e {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        // 4 + 22 runs per workload, their set-up and two builds inside 3420 s.
        let runs = 4 + 22 * len("workloads") as u32;
        assert!(
            runs * (RUN_SECONDS + 6) + 2 * 60 <= 3420,
            "{}",
            runs * (RUN_SECONDS + 6)
        );
    }
}

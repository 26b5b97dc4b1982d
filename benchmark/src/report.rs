//! What a run reports and how it is printed: a table for people, a
//! detail line for `--compare`, and — last — the one-line JSON object
//! the benchmark contract asks for.

use std::fmt::Write as _;

use crate::stat::{quartiles, valid_metric_name};
use crate::sut::json::Value;

/// One metric of one run: its value and, for a wall metric, the spread
/// of the whole repeats behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Virtual: the exact value. Wall: the slice-wise fastest repeat.
    pub value: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Repeats behind a wall metric; 1 for an exact one.
    pub n: usize,
}

impl Metric {
    /// A value that is exact for the seed (or measured once).
    pub fn exact(name: &str, unit: &str, value: f64) -> Metric {
        assert!(
            valid_metric_name(name),
            "metric name {name:?} breaks the naming rule"
        );
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            q1: value,
            median: value,
            q3: value,
            n: 1,
        }
    }

    /// A host time with the quartiles of the whole repeats beside it.
    ///
    /// Interference on a shared host only ever slows work down, so the
    /// fastest sighting is the best estimate of what the program costs.
    /// The end-to-end run applies that slice by slice: `value` is the sum
    /// over the slices of a repeat of each slice's fastest sighting, which
    /// lies a few percent below the fastest whole repeat on a quiet host
    /// and stays there when the host is not (two busy loops beside
    /// `sharded_kv`: the fastest whole repeat +30 %, this +3 %).
    pub fn beside(name: &str, unit: &str, value: f64, repeats: &[f64]) -> Metric {
        let (q1, median, q3) = quartiles(repeats);
        Metric {
            q1,
            median,
            q3,
            n: repeats.len(),
            ..Metric::exact(name, unit, value)
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// `--quick`: short windows, one repeat — not comparable.
    pub quick: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form facts for the reader (repeat count, noise, files written).
    pub notes: Vec<String>,
}

/// A finite JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

impl Report {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`. A report only exists when every correctness
    /// check passed, so `correct` is always true here.
    pub fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Everything in the report as one JSON object, for the suite file
    /// `--compare` reads.
    pub fn detail_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"quick\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.workload, self.seed, self.traced, self.quick, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"median\": {}, \
                 \"q3\": {}, \"n\": {}}}",
                m.name,
                num(m.value),
                m.unit,
                num(m.q1),
                num(m.median),
                num(m.q3),
                m.n
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads a report back from [`Report::detail_json`]'s output.
    pub fn from_detail(v: &Value) -> Result<Report, String> {
        let text = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or(format!("report lacks \"{k}\""))
        };
        let number = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("report lacks number \"{k}\""))
        };
        let flag = |k: &str| match v.get(k) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("report lacks flag \"{k}\"")),
        };
        let Some(Value::Obj(entries)) = v.get("metrics") else {
            return Err("report lacks \"metrics\"".into());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, m) in entries {
            metrics.push(Metric {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Value::as_str)
                    .ok_or(format!("metric {name} lacks a unit"))?
                    .to_owned(),
                value: number(m, "value")?,
                q1: number(m, "q1")?,
                median: number(m, "median")?,
                q3: number(m, "q3")?,
                n: number(m, "n")? as usize,
            });
        }
        Ok(Report {
            workload: text("workload")?,
            seed: number(v, "seed")? as u64,
            traced: flag("traced")?,
            quick: flag("quick")?,
            attempted: number(v, "attempted")? as u64,
            failed: number(v, "failed")? as u64,
            metrics,
            notes: Vec::new(),
        })
    }

    /// The table for people: every metric by name, with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let kind = if self.traced {
            "per-layer (traced run)"
        } else {
            "end-to-end (tracing off)"
        };
        let _ = writeln!(
            out,
            "## {} · seed {} · {kind}{}",
            self.workload,
            self.seed,
            if self.quick {
                " · QUICK: not comparable"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:<6} {:>14} {:>14} {:>14} {:>3}",
            "metric", "value", "unit", "q1", "median", "q3", "n"
        );
        for m in &self.metrics {
            if m.n > 1 {
                let _ = writeln!(
                    out,
                    "{:<44} {:>16.4} {:<6} {:>14.4} {:>14.4} {:>14.4} {:>3}",
                    m.name, m.value, m.unit, m.q1, m.median, m.q3, m.n
                );
            } else {
                let _ = writeln!(out, "{:<44} {:>16.4} {:<6}", m.name, m.value, m.unit);
            }
        }
        let _ = writeln!(
            out,
            "attempted {} · failed {} · every correctness check passed",
            self.attempted, self.failed
        );
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::json;

    fn sample() -> Report {
        Report {
            workload: "small_closed".into(),
            seed: 42,
            traced: false,
            quick: false,
            attempted: 93_652,
            failed: 0,
            metrics: vec![
                Metric::exact("decided_per_vsec", "1/s", 2_340_900.0),
                Metric::beside("wall_ns_per_decided", "ns", 8.75, &[9.5, 8.75, 9.0, 10.25]),
            ],
            notes: vec!["4 repeats".into()],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let v = json::parse(&sample().contract_line()).expect("valid JSON");
        let Value::Obj(entries) = &v else {
            panic!("an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("wall_ns_per_decided"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(8.75));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ns"));
        let Value::Obj(fields) = m else {
            panic!("an object");
        };
        assert_eq!(fields.len(), 2, "value and unit only");
    }

    #[test]
    fn detail_round_trips() {
        let r = sample();
        let v = json::parse(&r.detail_json()).expect("valid JSON");
        let back = Report::from_detail(&v).expect("readable");
        assert_eq!(
            back,
            Report {
                notes: Vec::new(),
                ..r
            }
        );
    }

    #[test]
    fn table_names_every_metric_with_its_unit() {
        let t = sample().table();
        assert!(t.contains("decided_per_vsec") && t.contains("1/s"));
        assert!(t.contains("wall_ns_per_decided") && t.contains("ns"));
        assert!(!t.contains("QUICK"));
    }
}

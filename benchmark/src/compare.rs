//! `--compare A.json B.json`: two suite files, one row per (workload,
//! end-to-end metric), each with a verdict against the metric's bound.

use std::fmt::Write as _;

use crate::report::{Metric, Report};
use crate::spec::{EndToEndMetric, END_TO_END};
use crate::sut::json::{self, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Improved,
    Regressed,
    /// On one side the reported value stands further from the first
    /// quartile than the bound: that run never settled, and cannot tell
    /// a change of that size from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far the first quartile of the repeats lies above the reported
/// value, as a share of it. The reported value of a host time is the
/// slice-wise fastest repeat; it can be trusted when a quarter of the
/// repeats came close to it, however slow the noisy rest were. 0 for
/// exact metrics.
fn spread(m: &Metric) -> f64 {
    if m.value == 0.0 {
        0.0
    } else {
        (m.q1 - m.value).abs() / m.value.abs()
    }
}

/// How `b` stands against `a` (the base) for metric `def`.
pub fn verdict(def: &EndToEndMetric, a: &Metric, b: &Metric) -> Verdict {
    if a.value == b.value {
        return Verdict::Same;
    }
    if spread(a).max(spread(b)) > def.bound {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value) / a.value.abs();
    let worse = if def.higher_is_better {
        -change
    } else {
        change
    };
    if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// Reads a suite file: `{"reports": [<detail>, …]}`.
pub fn load_suite(path: &str) -> Result<Vec<Report>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let reports = v
        .get("reports")
        .and_then(Value::as_arr)
        .ok_or(format!("{path} has no \"reports\" array"))?;
    reports.iter().map(Report::from_detail).collect()
}

/// The comparison table and whether `b` is acceptable: no `regressed`
/// row and no workload with more failed operations than in `a`.
pub fn compare(a: &[Report], b: &[Report]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut acceptable = true;
    let _ = writeln!(
        out,
        "{:<17} {:<26} {:>15} {:>8} {:>15} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A value", "A q1+%", "B value", "B q1+%", "change%", "bound%"
    );
    for ra in a.iter().filter(|r| !r.traced) {
        let rb = b
            .iter()
            .find(|r| !r.traced && r.workload == ra.workload)
            .ok_or(format!("B has no end-to-end run of {}", ra.workload))?;
        if ra.seed != rb.seed || ra.quick != rb.quick {
            return Err(format!(
                "{}: A and B were not run on the same seed and scale",
                ra.workload
            ));
        }
        for def in &END_TO_END {
            let find = |r: &Report| {
                r.metrics
                    .iter()
                    .find(|m| m.name == def.name)
                    .cloned()
                    .ok_or(format!("{} lacks {}", r.workload, def.name))
            };
            let (ma, mb) = (find(ra)?, find(rb)?);
            let v = verdict(def, &ma, &mb);
            acceptable &= v != Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<17} {:<26} {:>15.4} {:>8.2} {:>15.4} {:>8.2} {:>+7.2} {:>6.1}  {}",
                ra.workload,
                def.name,
                ma.value,
                100.0 * spread(&ma),
                mb.value,
                100.0 * spread(&mb),
                100.0 * (mb.value - ma.value) / ma.value.abs(),
                100.0 * def.bound,
                v.label()
            );
        }
        let failed_rose = rb.failed * ra.attempted > ra.failed * rb.attempted;
        acceptable &= !failed_rose;
        let _ = writeln!(
            out,
            "{:<17} {:<26} {:>15} {:>8} {:>15} {:>8} {:>7} {:>6}  {}",
            ra.workload,
            "failed / attempted",
            format!("{}/{}", ra.failed, ra.attempted),
            "",
            format!("{}/{}", rb.failed, rb.attempted),
            "",
            "",
            "",
            if failed_rose { "regressed" } else { "same" }
        );
    }
    Ok((out, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEndMetric = EndToEndMetric {
        name: "wall_ns_per_decided",
        unit: "ns",
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: EndToEndMetric = EndToEndMetric {
        name: "decided_per_vsec",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.01,
    };

    /// A host time whose first quartile lies `gap` above the fastest
    /// repeat.
    fn wall(fastest: f64, gap: f64) -> Metric {
        Metric {
            name: "wall_ns_per_decided".into(),
            unit: "ns".into(),
            value: fastest,
            q1: fastest + gap,
            median: fastest + 2.0 * gap,
            q3: fastest + 4.0 * gap,
            n: 7,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(
            verdict(&LOWER, &wall(100.0, 2.0), &wall(100.0, 2.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&LOWER, &wall(100.0, 2.0), &wall(105.0, 2.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&LOWER, &wall(100.0, 2.0), &wall(111.0, 2.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&LOWER, &wall(100.0, 2.0), &wall(85.0, 2.0)),
            Verdict::Improved
        );
        // Either side never settled near its fastest: no verdict.
        assert_eq!(
            verdict(&LOWER, &wall(100.0, 12.0), &wall(130.0, 2.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LOWER, &wall(100.0, 2.0), &wall(130.0, 20.0)),
            Verdict::Unresolved
        );

        let exact = |v| Metric::exact("decided_per_vsec", "1/s", v);
        assert_eq!(
            verdict(&HIGHER, &exact(2.0e6), &exact(2.0e6)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&HIGHER, &exact(2.0e6), &exact(1.9e6)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&HIGHER, &exact(2.0e6), &exact(2.1e6)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&HIGHER, &exact(2.0e6), &exact(1.99e6)),
            Verdict::Same
        );
    }

    fn report(failed: u64, wall_ns: f64) -> Report {
        let mut metrics: Vec<Metric> = END_TO_END
            .iter()
            .map(|m| Metric::exact(m.name, m.unit, 10.0))
            .collect();
        metrics[6] = wall(wall_ns, 1.0);
        Report {
            workload: "small_closed".into(),
            seed: 42,
            traced: false,
            quick: false,
            attempted: 1000,
            failed,
            metrics,
            notes: Vec::new(),
        }
    }

    #[test]
    fn a_regression_or_a_rise_in_failures_is_not_acceptable() {
        assert_eq!(END_TO_END[6].name, "wall_ns_per_decided");
        let base = [report(0, 100.0)];
        let (table, ok) = compare(&base, &[report(0, 101.0)]).expect("comparable");
        assert!(ok, "{table}");
        assert!(table.contains("same") && !table.contains("regressed"));
        let (table, ok) = compare(&base, &[report(0, 140.0)]).expect("comparable");
        assert!(!ok && table.contains("regressed"));
        let (_, ok) = compare(&base, &[report(3, 100.0)]).expect("comparable");
        assert!(!ok, "more failed operations than the base");
        assert!(compare(&base, &[]).is_err());
    }
}

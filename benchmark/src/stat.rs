//! Order statistics, the SLO-rung pick and the naming rule. Everything
//! here is pure and unit-tested; the rest of the benchmark reports
//! nothing that has not gone through these functions.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric without a sample is a bug in the
/// benchmark, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads printed here are the spreads the acceptance procedure
/// computes. A single sample is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile of an ascending-sorted sample (the rule the
/// library's `LatencyStats` uses, so merged samples agree with it).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One measured rate of a workload, judged against its service-level
/// objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered (open loop) or achieved (closed loop) rate, ops per
    /// virtual second.
    pub rate_per_sec: f64,
    /// 99th-percentile decide latency, µs.
    pub p99_us: f64,
    /// Decided inside the window / offered inside the window.
    pub decided_share: f64,
}

/// The objective a rung is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// p99 decide latency must not exceed this, µs.
    pub p99_limit_us: f64,
    /// At least this share of the offered load must be decided inside
    /// the window (a lower share is a growing backlog).
    pub min_decided_share: f64,
}

/// The highest rate that meets the objective with every lower rate
/// meeting it too; 0 when the lowest rung already misses it. `rungs`
/// must be in ascending rate order.
pub fn max_rate_in_slo(rungs: &[Rung], slo: Slo) -> f64 {
    debug_assert!(rungs
        .windows(2)
        .all(|w| w[0].rate_per_sec <= w[1].rate_per_sec));
    rungs
        .iter()
        .take_while(|r| r.p99_us <= slo.p99_limit_us && r.decided_share >= slo.min_decided_share)
        .last()
        .map_or(0.0, |r| r.rate_per_sec)
}

/// The contract's naming rule: starts with a letter or digit, at most 64
/// characters out of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Splits `total` into the share each part takes and the share nothing
/// accounts for. The returned shares plus the residual are 100 by
/// construction; `None` when the parts exceed the total (the clock went
/// backwards or a span was counted twice).
pub fn shares_of_total(parts_ns: &[u64], total_ns: u64) -> Option<(Vec<f64>, f64)> {
    let sum: u64 = parts_ns.iter().sum();
    if total_ns == 0 || sum > total_ns {
        return None;
    }
    let pct = |ns: u64| 100.0 * ns as f64 / total_ns as f64;
    Some((
        parts_ns.iter().map(|&p| pct(p)).collect(),
        pct(total_ns - sum),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(
            quartiles(&[11.0, 2.0, 4.0, 9.0, 4.0, 5.0, 7.0]),
            (4.0, 5.0, 9.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[7, 9], 50.0), 7);
    }

    fn rung(rate: f64, p99: f64, share: f64) -> Rung {
        Rung {
            rate_per_sec: rate,
            p99_us: p99,
            decided_share: share,
        }
    }

    #[test]
    fn slo_pick_is_the_highest_contiguous_rung() {
        let slo = Slo {
            p99_limit_us: 10.0,
            min_decided_share: 0.995,
        };
        let ladder = [
            rung(0.5e6, 2.9, 1.0),
            rung(2.0e6, 3.5, 1.0),
            rung(2.3e6, 9.9, 0.999),
            rung(2.4e6, 1339.0, 0.975),
        ];
        assert_eq!(max_rate_in_slo(&ladder, slo), 2.3e6);
        // A hole below a passing rung stops the climb.
        let holed = [
            rung(1.0e6, 3.0, 1.0),
            rung(2.0e6, 50.0, 1.0),
            rung(2.2e6, 4.0, 1.0),
        ];
        assert_eq!(max_rate_in_slo(&holed, slo), 1.0e6);
        // Latency fine but the backlog grows: not in the objective.
        assert_eq!(max_rate_in_slo(&[rung(1.0e6, 3.0, 0.9)], slo), 0.0);
        assert_eq!(max_rate_in_slo(&[], slo), 0.0);
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "setup_s",
            "p4ce-switch.acks_absorbed_per_decided",
            "9lives",
            "a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "-dash",
            "has space",
            "slash/y",
            "µs",
            too_long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn shares_and_residual_sum_to_one_hundred() {
        let (shares, residual) = shares_of_total(&[250, 500, 125], 1000).expect("parts fit");
        assert_eq!(shares, vec![25.0, 50.0, 12.5]);
        assert_eq!(residual, 12.5);
        assert!((shares.iter().sum::<f64>() + residual - 100.0).abs() < 1e-9);
        assert!(shares_of_total(&[600, 600], 1000).is_none());
        assert!(shares_of_total(&[], 0).is_none());
    }
}

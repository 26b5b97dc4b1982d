//! Rendering of what a traced run collected: the per-stage latency
//! breakdown the paper's evaluation reasons about (where does a
//! consensus instance spend its time: leader post, switch scatter,
//! replica fan-out, gather, decision?) as a markdown table, and the raw
//! records as Chrome/Perfetto `trace_events` JSON
//! ([`write_chrome_trace`]); `chrome://tracing` and
//! <https://ui.perfetto.dev> both load the file directly. The run
//! itself is [`crate::runner::observe_point`].

use netsim::{chrome_trace_json, Records, StageBreakdown};
use std::io;
use std::path::Path;

use crate::report::{fmt_f64, to_markdown, TableRow};

/// One row of the stage-breakdown table: a pipeline stage's latency
/// distribution plus its share of the mean end-to-end latency.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name ([`netsim::STAGE_NAMES`], or `end-to-end` for the
    /// closing row).
    pub stage: String,
    /// Number of complete spans sampled.
    pub samples: usize,
    /// Mean stage latency, µs.
    pub mean_us: f64,
    /// Median stage latency, µs.
    pub p50_us: f64,
    /// 99th-percentile stage latency, µs.
    pub p99_us: f64,
    /// This stage's mean as a percentage of the mean end-to-end latency.
    pub share_pct: f64,
}

impl TableRow for StageRow {
    fn headers() -> Vec<&'static str> {
        vec!["stage", "samples", "mean_us", "p50_us", "p99_us", "share"]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.stage.clone(),
            self.samples.to_string(),
            fmt_f64(self.mean_us),
            fmt_f64(self.p50_us),
            fmt_f64(self.p99_us),
            format!("{:.1}%", self.share_pct),
        ]
    }
}

/// Flattens a [`StageBreakdown`] into table rows: one per stage in
/// chain order, plus a closing `end-to-end` row. Because adjacent
/// stages share boundary timestamps, the stage `mean_us` column sums to
/// the end-to-end mean (±1 ns rounding per stage) — the reconciliation
/// [`StageBreakdown::reconciles`] asserts.
pub fn stage_rows(b: &StageBreakdown) -> Vec<StageRow> {
    let mut e2e = b.end_to_end.clone();
    let e2e_mean = e2e.mean().as_micros_f64();
    let mut rows: Vec<StageRow> = b
        .stages
        .iter()
        .map(|s| {
            let mut lat = s.lat.clone();
            let mean_us = lat.mean().as_micros_f64();
            StageRow {
                stage: s.name.to_owned(),
                samples: lat.len(),
                mean_us,
                p50_us: lat.percentile(50.0).as_micros_f64(),
                p99_us: lat.percentile(99.0).as_micros_f64(),
                share_pct: if e2e_mean > 0.0 {
                    100.0 * mean_us / e2e_mean
                } else {
                    0.0
                },
            }
        })
        .collect();
    rows.push(StageRow {
        stage: "end-to-end".to_owned(),
        samples: e2e.len(),
        mean_us: e2e_mean,
        p50_us: e2e.percentile(50.0).as_micros_f64(),
        p99_us: e2e.percentile(99.0).as_micros_f64(),
        share_pct: 100.0,
    });
    rows
}

/// Renders the stage breakdown as a markdown table.
pub fn stage_table(title: &str, b: &StageBreakdown) -> String {
    to_markdown(
        &format!("{title} ({} complete / {} spans)", b.complete, b.total),
        &stage_rows(b),
    )
}

/// Writes `records` to `path` as Chrome/Perfetto `trace_events` JSON.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: impl AsRef<Path>, records: &Records) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LatencyStats, SimDuration, StageLatency, STAGE_NAMES};

    #[test]
    fn stage_rows_close_with_end_to_end_and_render() {
        let mut stages = Vec::new();
        for (i, &name) in STAGE_NAMES.iter().enumerate() {
            let mut lat = LatencyStats::new();
            lat.record(SimDuration::from_micros(i as u64 + 1));
            stages.push(StageLatency { name, lat });
        }
        let mut end_to_end = LatencyStats::new();
        end_to_end.record(SimDuration::from_micros(15)); // 1+2+3+4+5
        let b = StageBreakdown {
            stages,
            end_to_end,
            complete: 1,
            total: 1,
        };
        assert!(b.reconciles());
        let rows = stage_rows(&b);
        assert_eq!(rows.len(), STAGE_NAMES.len() + 1);
        assert_eq!(rows.last().expect("e2e row").stage, "end-to-end");
        let mean_sum: f64 = rows[..STAGE_NAMES.len()].iter().map(|r| r.mean_us).sum();
        assert!((mean_sum - 15.0).abs() < 1e-9);
        let table = stage_table("demo", &b);
        for name in STAGE_NAMES {
            assert!(table.contains(name), "missing stage {name}");
        }
        assert!(table.contains("1 complete / 1 spans"));
    }
}

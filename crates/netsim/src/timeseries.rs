//! Deterministic sampled time-series telemetry.
//!
//! End-of-run snapshots (a [`MetricsRegistry`](crate::MetricsRegistry)
//! dump) answer *how much*; they cannot answer *when*. This module adds
//! the time dimension: a [`SampledRegistry`] collects named series of
//! `(sim-time, value)` samples on a fixed cadence, ring-buffered with deterministic
//! oldest-drop, plus an [`Annotation`] stream (view changes, leader
//! kills, QP recoveries, group fallback/re-acceleration) aligned to the
//! same clock — so a chaos storm and a clean run differ as *timelines*,
//! not just as final totals.
//!
//! Sampling is driven off the simulation clock: the driver loop runs the
//! timing wheel to each tick deadline (`sim.run_until(next_tick)`),
//! samples, and advances. Tick instants are exact multiples of the
//! cadence on the nanosecond clock, so for a given seed the sampled
//! timeline is bit-identical across reruns — asserted by the harness
//! failover tests.
//!
//! ```
//! use netsim::timeseries::SampledRegistry;
//! use netsim::{SimDuration, SimTime};
//!
//! let mut ts = SampledRegistry::new(SimDuration::from_micros(100));
//! ts.record_counter("decided", SimTime::from_micros(100), 10);
//! ts.record_counter("decided", SimTime::from_micros(200), 30);
//! let series = ts.series("decided").expect("recorded");
//! // Delta-rate derivation: 20 decides in 100 us = 200k/s.
//! assert_eq!(series.rates()[0].1, 200_000.0);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};
use crate::trace::{self, TraceEvent, TraceRecord};

/// Default per-series ring capacity (samples kept before oldest-drop).
pub const DEFAULT_SERIES_CAPACITY: usize = 65_536;

/// One named time series: a bounded ring of `(t, value)` samples.
///
/// When the ring is full the oldest sample is dropped deterministically
/// and counted in [`SampleSeries::dropped`], mirroring the bounded trace
/// ring's contract — truncation is always visible, never silent.
#[derive(Debug, Clone)]
pub struct SampleSeries {
    name: String,
    cap: usize,
    points: VecDeque<(u64, f64)>,
    dropped: u64,
}

impl SampleSeries {
    fn new(name: &str, cap: usize) -> Self {
        SampleSeries {
            name: name.to_owned(),
            cap,
            points: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Samples dropped to the ring bound (oldest-first).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, t: SimTime, value: f64) {
        if self.points.len() == self.cap {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back((t.as_nanos(), value));
    }

    /// The retained samples, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points
            .iter()
            .map(|&(t, v)| (SimTime::from_nanos(t), v))
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points
            .back()
            .map(|&(t, v)| (SimTime::from_nanos(t), v))
    }

    /// Delta-rate derivation: for each adjacent sample pair, the value
    /// delta divided by the time delta, in units per second, stamped at
    /// the later sample's instant. One element shorter than
    /// [`SampleSeries::points`]; zero-width intervals are skipped.
    pub fn rates(&self) -> Vec<(SimTime, f64)> {
        let mut out = Vec::with_capacity(self.points.len().saturating_sub(1));
        let mut it = self.points.iter();
        let Some(&(mut pt, mut pv)) = it.next() else {
            return out;
        };
        for &(t, v) in it {
            if t > pt {
                let dt_s = (t - pt) as f64 / 1e9;
                out.push((SimTime::from_nanos(t), (v - pv) / dt_s));
            }
            pt = t;
            pv = v;
        }
        out
    }
}

/// A timeline marker: something notable that happened at one instant,
/// aligned to the same clock as the sampled series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// When it happened.
    pub t: SimTime,
    /// The node it happened on (trace label, e.g. `m1`, `switch`).
    pub node: String,
    /// What happened (e.g. `view-change v2`, `leader-kill`).
    pub label: String,
}

/// Derives the annotation stream from an existing trace record stream:
/// view changes, P4CE fallback / group (re-)establishment, and QP
/// recovery firings become timeline markers. Records that are not
/// timeline-worthy (the per-packet hot-path kinds) are skipped.
pub fn annotations_from_records(records: &[TraceRecord]) -> Vec<Annotation> {
    let mut out = Vec::new();
    for rec in records {
        let label = match rec.event {
            TraceEvent::ViewChange { view, leader } => {
                if leader == u64::MAX {
                    format!("view-change v{view} (no leader)")
                } else {
                    format!("view-change v{view} -> m{leader}")
                }
            }
            TraceEvent::FellBack => "fell-back".to_owned(),
            TraceEvent::GroupEstablished => "group-established".to_owned(),
            TraceEvent::Retransmit { kind, packets, .. } => {
                format!("qp-recovery {} ({packets} pkts)", kind.label())
            }
            _ => continue,
        };
        out.push(Annotation {
            t: rec.t,
            node: rec.node.to_string(),
            label,
        });
    }
    out
}

/// A registry of sampled time series plus an annotation stream, all on
/// one simulated clock.
///
/// The tick cursor ([`SampledRegistry::next_tick`] /
/// [`SampledRegistry::advance_tick`]) lets a driver loop interleave
/// `sim.run_until(tick)` with sampling so every sample lands on an exact
/// cadence multiple — see the module docs.
#[derive(Debug, Clone)]
pub struct SampledRegistry {
    cadence: SimDuration,
    cap: usize,
    next_tick: SimTime,
    ticks: u64,
    series: BTreeMap<String, SampleSeries>,
    annotations: Vec<Annotation>,
}

impl SampledRegistry {
    /// A registry sampling on `cadence` with the default per-series ring
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn new(cadence: SimDuration) -> Self {
        Self::with_capacity(cadence, DEFAULT_SERIES_CAPACITY)
    }

    /// A registry sampling on `cadence` keeping at most `cap` samples
    /// per series (oldest dropped deterministically).
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero or `cap` is zero.
    pub fn with_capacity(cadence: SimDuration, cap: usize) -> Self {
        assert!(!cadence.is_zero(), "sampling cadence must be non-zero");
        assert!(cap > 0, "series capacity must be non-zero");
        SampledRegistry {
            cadence,
            cap,
            next_tick: SimTime::ZERO,
            ticks: 0,
            series: BTreeMap::new(),
            annotations: Vec::new(),
        }
    }

    /// The next tick deadline the driver should run the simulation to.
    pub fn next_tick(&self) -> SimTime {
        self.next_tick
    }

    /// Re-anchors the tick cursor at `start` (e.g. the end of warm-up).
    pub fn align(&mut self, start: SimTime) {
        self.next_tick = start;
    }

    /// Marks the current tick consumed and moves the cursor one cadence
    /// forward. Call once per driver-loop iteration, after sampling.
    pub fn advance_tick(&mut self) {
        self.next_tick += self.cadence;
        self.ticks += 1;
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Records one sample on series `name` at instant `t`, creating the
    /// series on first use.
    pub fn record(&mut self, name: &str, t: SimTime, value: f64) {
        let cap = self.cap;
        self.series
            .entry(name.to_owned())
            .or_insert_with(|| SampleSeries::new(name, cap))
            .push(t, value);
    }

    /// [`SampledRegistry::record`] for integer counters.
    pub fn record_counter(&mut self, name: &str, t: SimTime, value: u64) {
        self.record(name, t, value as f64);
    }

    /// Adds a manual timeline marker (e.g. the harness noting the
    /// instant it killed the leader).
    pub fn annotate(&mut self, t: SimTime, node: &str, label: impl Into<String>) {
        self.annotations.push(Annotation {
            t,
            node: node.to_owned(),
            label: label.into(),
        });
    }

    /// Derives annotations from `records` (see
    /// [`annotations_from_records`]) and appends them.
    pub fn extend_annotations_from(&mut self, records: &[TraceRecord]) {
        self.annotations.extend(annotations_from_records(records));
    }

    /// Sorts the annotation stream by `(t, node, label)` — call after
    /// mixing manual markers with derived ones so exports are in clock
    /// order regardless of insertion order.
    pub fn sort_annotations(&mut self) {
        self.annotations
            .sort_by(|a, b| (a.t, &a.node, &a.label).cmp(&(b.t, &b.node, &b.label)));
    }

    /// The annotation stream, in insertion (or, after
    /// [`SampledRegistry::sort_annotations`], clock) order.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// The series registered under `name`.
    pub fn series(&self, name: &str) -> Option<&SampleSeries> {
        self.series.get(name)
    }

    /// All series, sorted by name.
    pub fn all_series(&self) -> impl Iterator<Item = &SampleSeries> {
        self.series.values()
    }

    /// Total samples held across all series.
    pub fn total_samples(&self) -> usize {
        self.series.values().map(SampleSeries::len).sum()
    }

    /// Renders the whole timeline as CSV: `t_ns,kind,name,value` rows,
    /// samples first (series in name order, each oldest-first), then the
    /// annotation stream (`kind=annotation`, `name` = `node:label`,
    /// empty value).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("t_ns,kind,name,value\n");
        for s in self.series.values() {
            for (t, v) in s.points() {
                let _ = writeln!(out, "{},sample,{},{}", t.as_nanos(), s.name, fmt_value(v));
            }
        }
        for a in &self.annotations {
            let _ = writeln!(
                out,
                "{},annotation,{}:{},",
                a.t.as_nanos(),
                a.node,
                csv_escape(&a.label)
            );
        }
        out
    }
}

/// Formats a sample value as a JSON/CSV-safe number (non-finite values
/// are clamped to 0 — JSON has no NaN/Infinity literals).
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn csv_escape(s: &str) -> String {
    // Commas and newlines would break the row structure; the labels this
    // module generates contain neither, but manual annotations might.
    s.replace([',', '\n', '\r'], ";")
}

/// [`trace::chrome_trace_json`] plus the sampled timeline: every series
/// becomes a Perfetto **counter track** (`ph:"C"`, process 3) and every
/// annotation a global instant marker, so throughput/latency timelines
/// render in the same UI, on the same clock, as the per-instance spans.
pub fn chrome_trace_json_with(records: &[TraceRecord], timeline: &SampledRegistry) -> String {
    let mut out = String::with_capacity(
        records.len() * 96 + timeline.total_samples() * 64 + timeline.annotations().len() * 96,
    );
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    trace::chrome_trace_body(records, &mut out, &mut first);

    let sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };

    sep(&mut out, &mut first);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"timelines\"}}",
    );

    for s in timeline.all_series() {
        let mut name = String::new();
        trace::escape_json(s.name(), &mut name);
        for (t, v) in s.points() {
            sep(&mut out, &mut first);
            let _ = write!(out, "{{\"ph\":\"C\",\"pid\":3,\"name\":\"{name}\",\"ts\":");
            trace::push_ts(&mut out, t);
            let _ = write!(out, ",\"args\":{{\"value\":{}}}}}", fmt_value(v));
        }
    }

    for a in timeline.annotations() {
        sep(&mut out, &mut first);
        let mut label = String::new();
        trace::escape_json(&a.label, &mut label);
        let mut node = String::new();
        trace::escape_json(&a.node, &mut node);
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":3,\"tid\":0,\"s\":\"g\",\"name\":\"{label}\",\"ts\":"
        );
        trace::push_ts(&mut out, a.t);
        let _ = write!(out, ",\"args\":{{\"node\":\"{node}\"}}}}");
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::json;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ts = SampledRegistry::with_capacity(SimDuration::from_micros(100), 3);
        for i in 0..5u64 {
            ts.record_counter("x", t(100 * (i + 1)), i);
        }
        let s = ts.series("x").expect("exists");
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let pts: Vec<(u64, f64)> = s.points().map(|(t, v)| (t.as_nanos(), v)).collect();
        assert_eq!(
            pts,
            vec![(300_000, 2.0), (400_000, 3.0), (500_000, 4.0)],
            "oldest dropped first"
        );
        assert_eq!(ts.total_samples(), 3);
    }

    #[test]
    fn rates_derive_deltas_per_second() {
        let mut ts = SampledRegistry::new(SimDuration::from_micros(100));
        ts.record_counter("decided", t(100), 0);
        ts.record_counter("decided", t(200), 10);
        ts.record_counter("decided", t(400), 10);
        // A duplicate instant must not divide by zero.
        ts.record_counter("decided", t(400), 12);
        let rates = ts.series("decided").expect("exists").rates();
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0], (t(200), 100_000.0), "10 per 100us = 100k/s");
        assert_eq!(rates[1], (t(400), 0.0), "flat interval");
    }

    #[test]
    fn tick_cursor_lands_on_exact_cadence_multiples() {
        let mut ts = SampledRegistry::new(SimDuration::from_micros(100));
        ts.align(SimTime::from_millis(5));
        let mut ticks = Vec::new();
        for _ in 0..3 {
            ticks.push(ts.next_tick().as_nanos());
            ts.advance_tick();
        }
        assert_eq!(ticks, vec![5_000_000, 5_100_000, 5_200_000]);
        assert_eq!(ts.ticks(), 3);
    }

    #[test]
    fn annotations_derive_from_trace_kinds_and_sort() {
        use crate::trace::{RetransmitKind, TraceHandle};
        let handle = TraceHandle::new();
        let tracer = handle.tracer("m1");
        tracer.emit(t(30), || TraceEvent::ViewChange { view: 2, leader: 1 });
        tracer.emit(t(10), || TraceEvent::FellBack);
        tracer.emit(t(20), || TraceEvent::Retransmit {
            qpn: 3,
            kind: RetransmitKind::Timeout,
            packets: 4,
        });
        tracer.emit(t(40), || TraceEvent::GroupEstablished);
        tracer.emit(t(50), || TraceEvent::Decide { view: 2, seq: 9 });
        let records = handle.records();
        let mut ts = SampledRegistry::new(SimDuration::from_micros(100));
        ts.annotate(t(25), "harness", "leader-kill m0");
        ts.extend_annotations_from(&records);
        ts.sort_annotations();
        let labels: Vec<&str> = ts.annotations().iter().map(|a| a.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "fell-back",
                "qp-recovery timeout (4 pkts)",
                "leader-kill m0",
                "view-change v2 -> m1",
                "group-established",
            ],
            "clock order; per-packet Decide kinds are skipped"
        );
        assert_eq!(ts.annotations()[2].node, "harness");
    }

    #[test]
    fn csv_export_is_stable() {
        let mut ts = SampledRegistry::new(SimDuration::from_micros(100));
        ts.record_counter("a.decided", t(100), 1);
        ts.record_counter("a.decided", t(200), 3);
        ts.annotate(t(150), "m0", "leader-kill");
        let csv = ts.to_csv();
        assert!(csv.starts_with("t_ns,kind,name,value\n"));
        assert!(csv.contains("100000,sample,a.decided,1"));
        assert!(csv.contains("150000,annotation,m0:leader-kill,"));
        assert_eq!(ts.to_csv(), csv, "render is pure");
    }

    #[test]
    fn chrome_export_carries_counter_tracks_and_markers() {
        let handle = crate::trace::TraceHandle::new();
        handle
            .tracer("m0")
            .emit(t(10), || TraceEvent::Propose { view: 1, seq: 0 });
        let records = handle.records();
        let mut ts = SampledRegistry::new(SimDuration::from_micros(100));
        ts.record_counter("decided.total", t(100), 5);
        ts.annotate(t(150), "harness", "leader-kill");
        let out = chrome_trace_json_with(&records, &ts);
        let parsed = json::parse(&out).expect("valid json");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("array");
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(json::Value::as_str) == Some("C")
                && e.get("name").and_then(json::Value::as_str) == Some("decided.total")
        }));
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(json::Value::as_str) == Some("i")
                && e.get("name").and_then(json::Value::as_str) == Some("leader-kill")
        }));
        // The plain export is a strict prefix shape: same records, no tracks.
        assert!(trace::chrome_trace_json(&records).contains("propose"));
    }
}

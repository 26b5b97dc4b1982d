//! The traced run's span store. Everything is kept in memory — the
//! per-event step spans in a buffer allocated before the first window —
//! and written out once, when the run has ended.
//!
//! Structure: `workload` ▸ `pass.*` ▸ `setup` | `warmup` | `window` |
//! `drain`, one `step` span per simulator event under `window`, and one
//! `kernel.<name>` span per kernel batch under `pass.kernels`. The first
//! [`STEP_KEEP`] step spans are kept whole; every step, kept or not, is
//! folded into its class's count, sum and log₂ histogram, so the layer
//! table never depends on how many were kept.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::spec::STEP_CLASSES;

/// Step spans kept whole per traced run.
pub const STEP_KEEP: usize = 200_000;
/// log₂(ns) buckets: bucket `b` holds durations in `[2^b, 2^(b+1))` ns.
pub const HIST_BUCKETS: usize = 32;

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct StepSpan {
    class: u8,
    start_ns: u64,
    dur_ns: u32,
    parent: u32,
}

/// Count, total time and duration histogram of one event class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassFold {
    pub count: u64,
    pub sum_ns: u64,
    pub hist: [u64; HIST_BUCKETS],
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
    steps: Vec<StepSpan>,
    pub classes: [ClassFold; STEP_CLASSES.len()],
}

impl SpanLog {
    /// Opens the log with its root `workload` span.
    pub fn new(workload: &'static str) -> Self {
        let mut log = SpanLog {
            origin: Instant::now(),
            workload,
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
            steps: Vec::with_capacity(STEP_KEEP),
            classes: [ClassFold::default(); STEP_CLASSES.len()],
        };
        log.open("workload");
        log
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Ends the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records an already finished span under the innermost open one.
    pub fn closed(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        });
        id
    }

    /// Records one simulator event of `class` that took `dur_ns`. Its
    /// parent is the innermost open span (the window being stepped).
    #[inline]
    pub fn step(&mut self, class: usize, start: Instant, dur_ns: u64) {
        let fold = &mut self.classes[class];
        fold.count += 1;
        fold.sum_ns += dur_ns;
        fold.hist[bucket_of(dur_ns)] += 1;
        if self.steps.len() < STEP_KEEP {
            let parent = self.open.last().map_or(0, |&p| p as u32);
            let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
            self.steps.push(StepSpan {
                class: class as u8,
                start_ns,
                dur_ns: dur_ns.min(u64::from(u32::MAX)) as u32,
                parent,
            });
        }
    }

    /// Spans held: structural ones plus the step spans kept whole.
    pub fn spans_written(&self) -> u64 {
        (self.spans.len() + self.steps.len()) as u64
    }

    /// Closes whatever is still open (the root at least) and writes the
    /// Chrome `trace_events` file: load it in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn write_chrome_trace(&mut self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// The `trace_events` document. Every event carries its span id,
    /// its parent's id and the workload.
    pub fn chrome_trace_json(&mut self) -> String {
        while let Some(&id) = self.open.last() {
            self.close(id);
        }
        let mut out = String::with_capacity(128 * (self.spans.len() + self.steps.len()) + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut event = |out: &mut String,
                         name: &str,
                         tid: u32,
                         start_ns: u64,
                         dur_ns: u64,
                         id: usize,
                         parent: Option<usize>| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\"}}}}",
                start_ns / 1000,
                start_ns % 1000,
                dur_ns / 1000,
                dur_ns % 1000,
                self.workload,
            );
        };
        for (id, s) in self.spans.iter().enumerate() {
            // One track per nesting depth keeps parents above children.
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(i) = p {
                depth += 1;
                p = self.spans[i].parent;
            }
            event(
                &mut out,
                &s.name,
                depth,
                s.start_ns,
                s.end_ns - s.start_ns,
                id,
                s.parent,
            );
        }
        let base = self.spans.len();
        for (i, s) in self.steps.iter().enumerate() {
            let name = format!("step.{}", STEP_CLASSES[usize::from(s.class)]);
            event(
                &mut out,
                &name,
                16,
                s.start_ns,
                u64::from(s.dur_ns),
                base + i,
                Some(s.parent as usize),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn bucket_of(dur_ns: u64) -> usize {
    (dur_ns.max(1).ilog2() as usize).min(HIST_BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::json;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(255), 7);
        assert_eq!(bucket_of(256), 8);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn steps_fold_into_their_class_and_the_trace_parses() {
        let mut log = SpanLog::new("unit");
        let pass = log.open("pass.stepped");
        let t = Instant::now();
        log.step(4, t, 300);
        log.step(4, t, 500);
        log.step(1, t, 40);
        log.closed("setup", t, t);
        log.close(pass);
        assert_eq!(log.classes[4].count, 2);
        assert_eq!(log.classes[4].sum_ns, 800);
        assert_eq!(log.classes[4].hist[8], 2);
        assert_eq!(log.classes[1].count, 1);
        assert_eq!(log.spans_written(), 3 + 3);

        let v = json::parse(&log.chrome_trace_json()).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents");
        assert_eq!(events.len(), 6);
        let root = &events[0];
        assert_eq!(root.get("name").and_then(|n| n.as_str()), Some("workload"));
        let step = &events[3];
        assert_eq!(
            step.get("name").and_then(|n| n.as_str()),
            Some("step.switch.frame")
        );
        let args = step.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(1.0));
        assert_eq!(args.get("workload").and_then(|w| w.as_str()), Some("unit"));
    }
}

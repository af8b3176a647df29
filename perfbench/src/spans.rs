//! The benchmark's own wall-clock spans, recorded around each call it
//! makes into a layer of the program.
//!
//! Spans live in memory until the run ends. A span's self time is its
//! duration minus the durations of its children. The benchmark drives one
//! sweep thread, so real children never overlap one another. Work the
//! program does inside a private call (the runtime behind an engine) is
//! represented by a *stand-in* child: a span timed around a replay of that
//! call outside the parent's interval, attached to the parent so its time
//! is taken out of the parent's self time. A replay can run slower than
//! the call it stands for, so one span's self time can be negative; it is
//! not floored, which would bias sums over many spans upward.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or call name, e.g. `datagen` or `runtime`.
    pub name: &'static str,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the grid point this span belongs to (`None` for work
    /// outside any point, such as a per-job fit).
    pub point: Option<usize>,
}

impl Span {
    /// Duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Call count and time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans.
    pub calls: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span under the innermost open one. A span without its own
    /// point inherits its parent's.
    pub fn enter(&mut self, name: &'static str, point: Option<usize>) -> usize {
        let parent = self.open.last().copied();
        let point = point.or_else(|| parent.and_then(|p| self.spans[p].point));
        let start = self.secs(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            point,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.secs(Instant::now());
    }

    /// Closes every open span, innermost first, after a call unwound out
    /// of them.
    pub fn close_all(&mut self) {
        let now = self.secs(Instant::now());
        while let Some(id) = self.open.pop() {
            self.spans[id].end = now;
        }
    }

    /// Records a stand-in child of `parent` timed from `start` to `end`.
    pub fn record(&mut self, name: &'static str, parent: usize, start: Instant, end: Instant) {
        let span = Span {
            name,
            start: self.secs(start),
            end: self.secs(end),
            parent: Some(parent),
            point: self.spans[parent].point,
        };
        self.spans.push(span);
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's
    /// durations.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration();
            }
        }
        own
    }

    /// Per-name call counts, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_s += span.duration();
            t.self_s += own;
        }
        out
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_s":{},"end_s":{},"parent":{},"point":{}}}"#,
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.point)
            )?;
        }
        out.flush()
    }
}

/// The traced run's recorder: spans plus the exact simulated counts of
/// the current pass. Shared behind mutexes because the sweep runner needs
/// `Sync` closures, though it drives one thread.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Mutex<Spans>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Trace {
    /// The span recorder.
    pub fn spans(&self) -> MutexGuard<'_, Spans> {
        self.spans.lock().expect("span recorder poisoned")
    }

    /// Adds `value` to the count `name` of the current pass.
    pub fn add(&self, name: &'static str, value: f64) {
        *self
            .counts
            .lock()
            .expect("count recorder poisoned")
            .entry(name)
            .or_default() += value;
    }

    /// The counts of the pass that just ended; starts the next pass.
    pub fn take_counts(&self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut *self.counts.lock().expect("count recorder poisoned"))
    }

    /// The first span named `name` of the point being recorded last.
    pub fn find(&self, point: usize, name: &str) -> Option<usize> {
        let spans = self.spans();
        let all = spans.spans();
        (0..all.len())
            .rev()
            .take_while(|&i| all[i].point == Some(point))
            .filter(|&i| all[i].name == name)
            .last()
    }
}

/// Runs `f` inside a span named `name` when tracing, and plainly
/// otherwise.
pub fn timed<R>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        None => f(),
        Some(t) => {
            let id = t.spans().enter(name, None);
            let out = f();
            t.spans().exit(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            point: Some(0),
        }
    }

    fn recorder(spans: Vec<Span>) -> Spans {
        Spans {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let r = recorder(vec![
            span("point", 0.0, 10.0, None),
            span("mapreduce", 1.0, 9.0, Some(0)),
            span("datagen", 1.0, 3.0, Some(1)),
            span("datagen", 4.0, 5.0, Some(1)),
            // A stand-in replayed after the point still counts as a child.
            span("runtime", 11.0, 12.5, Some(1)),
        ]);
        assert_eq!(r.self_times(), vec![2.0, 3.5, 2.0, 1.0, 1.5]);
        let totals = r.totals();
        assert_eq!(totals["datagen"].calls, 2);
        assert_eq!(totals["datagen"].self_s, 3.0);
        assert_eq!(totals["mapreduce"].total_s, 8.0);
        assert_eq!(totals["mapreduce"].self_s, 3.5);
    }

    #[test]
    fn a_slow_stand_in_leaves_negative_self_time_so_sums_stay_unbiased() {
        let r = recorder(vec![
            span("spark", 0.0, 1.0, None),
            span("runtime", 5.0, 7.0, Some(0)),
            span("spark", 10.0, 13.0, None),
            span("runtime", 20.0, 21.0, Some(2)),
        ]);
        assert_eq!(r.self_times(), vec![-1.0, 2.0, 2.0, 1.0]);
        assert_eq!(r.totals()["spark"].self_s, 1.0);
    }

    #[test]
    fn nesting_inherits_the_point_and_parent() {
        let mut r = Spans::new();
        let p = r.enter("point", Some(7));
        let m = r.enter("mapreduce", None);
        let d = r.enter("datagen", None);
        r.exit(d);
        r.exit(m);
        r.exit(p);
        let now = Instant::now();
        r.record("runtime", m, now, now);
        let s = r.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(1));
        assert!(s.iter().all(|s| s.point == Some(7)));
        assert!(s.iter().all(|s| s.end >= s.start));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_exit_is_a_bug() {
        let mut r = Spans::new();
        let a = r.enter("a", None);
        let _b = r.enter("b", None);
        r.exit(a);
    }

    #[test]
    fn timed_records_only_when_tracing() {
        assert_eq!(timed(None, "x", || 3), 3);
        let trace = Trace::default();
        let p = trace.spans().enter("point", Some(4));
        assert_eq!(timed(Some(&trace), "mapreduce", || 4), 4);
        assert_eq!(timed(Some(&trace), "mapreduce", || 5), 5);
        trace.spans().exit(p);
        assert_eq!(trace.spans().spans().len(), 3);
        assert_eq!(trace.find(4, "mapreduce"), Some(1));
        assert_eq!(trace.find(3, "mapreduce"), None);
    }

    #[test]
    fn counts_reset_each_pass() {
        let trace = Trace::default();
        trace.add("runtime.tasks", 3.0);
        trace.add("runtime.tasks", 4.0);
        assert_eq!(trace.take_counts()["runtime.tasks"], 7.0);
        assert!(trace.take_counts().is_empty());
    }
}

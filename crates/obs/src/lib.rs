//! Unified observability for the IPSO engines.
//!
//! Three pieces, shared by every engine crate:
//!
//! * [`span`] — a low-overhead span tracer. Engines record *virtual-time*
//!   spans (the simulated clock the engines compute analytically) via
//!   [`record_span`] / [`VirtualSpan`], and *wall-clock* spans via the
//!   RAII [`WallSpan`] guard.
//! * [`metrics`] — counters, gauges and log₂-bucketed histograms,
//!   recorded as ordered updates and summed into a [`MetricsSnapshot`].
//! * [`perfetto`] — a Chrome trace-event (Perfetto-loadable) JSON
//!   exporter over the recorded spans: one track per executor, `ph:"X"`
//!   duration events and `ph:"i"` instants.
//!
//! There is one recorder: [`capture`]. Recording is on exactly while the
//! current thread runs inside a capture, and what the capture collected
//! is its result. Outside a capture every instrumentation call reduces
//! to one thread-local check, so the engines pay essentially nothing;
//! see the `obs_overhead` bench in `crates/bench`. Because the recorder
//! is per thread, concurrent runs never see each other's records.
//!
//! The catch: a thread outside a capture records nothing, and that
//! includes worker threads spawned from inside one. Any code that fans
//! work out must read [`enabled`] on the calling thread and, when it is
//! on, run each worker's share under its own [`capture`] and [`merge`]
//! the results back in a deterministic order.
//!
//! # Example
//!
//! ```
//! let ((), records) = ipso_obs::capture(|| {
//!     ipso_obs::record_span("executor-0", "map", "mapreduce", 0.0, 1.5);
//!     ipso_obs::counter_add("tasks_launched", 1);
//! });
//! assert_eq!(records.metrics().counter("tasks_launched"), 1);
//! let json = ipso_obs::perfetto::export_chrome_trace(records.events());
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

use std::cell::{Cell, RefCell};

pub mod metrics;
pub mod perfetto;
pub mod span;

pub use metrics::{counter_add, gauge_add, gauge_set, histogram_record, MetricsSnapshot};
pub use perfetto::{export_chrome_trace, write_chrome_trace};
pub use span::{record_instant, record_span, SpanKind, TraceEvent, VirtualSpan, WallSpan};

thread_local! {
    /// The innermost active capture's buffer on this thread; `None`
    /// outside any capture, which is what switches recording off.
    static RECORDER: RefCell<Option<Records>> = const { RefCell::new(None) };
    /// Whether `RECORDER` holds a buffer, kept by [`capture`] alone. A
    /// plain flag reads as one thread-local load, where the buffer's
    /// `RefCell` would add a destructor-state and a borrow check.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is recording, i.e. runs inside a
/// [`capture`].
///
/// This is the only cost instrumented code pays when nothing records:
/// a single thread-local load.
#[inline]
pub fn enabled() -> bool {
    RECORDING.with(Cell::get)
}

/// Applies `f` to the active capture buffer; a no-op outside a capture.
pub(crate) fn record(f: impl FnOnce(&mut Records)) {
    RECORDER.with(|r| {
        if let Some(records) = r.borrow_mut().as_mut() {
            f(records);
        }
    });
}

/// The spans and metric updates recorded inside one [`capture`] scope,
/// in recording order.
///
/// Keeping the order is what makes parallel sections deterministic:
/// [`merge`]-ing a set of captures in a fixed order (e.g. sweep-point
/// index order) reproduces exactly the records a sequential run would
/// have produced.
#[derive(Debug, Default)]
#[must_use = "captured records are lost unless read or merged"]
pub struct Records {
    events: Vec<span::TraceEvent>,
    ops: Vec<metrics::MetricOp>,
}

impl Records {
    /// The captured trace events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the records, returning the trace events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// The captured metric updates, replayed in recording order.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::replay(&self.ops)
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.ops.is_empty()
    }
}

/// Runs `f` with recording switched on for the current thread and
/// returns `f`'s result together with everything it recorded.
///
/// Captures nest: an inner capture takes over recording and the outer
/// buffer resumes when it finishes (also when `f` unwinds). Spans must
/// complete inside the scope that opened them; a guard dropped after
/// the scope records into whatever capture is active at drop time.
///
/// # Example
///
/// ```
/// let (value, records) = ipso_obs::capture(|| {
///     ipso_obs::record_span("executor-0", "map", "mr", 0.0, 1.0);
///     42
/// });
/// assert_eq!(value, 42);
/// assert_eq!(records.events().len(), 1);
/// assert!(!ipso_obs::enabled()); // recording ends with the scope
/// ```
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Records) {
    /// Reinstates the enclosing capture's buffer when dropped.
    struct Restore(Option<Records>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            RECORDING.with(|on| on.set(outer.is_some()));
            RECORDER.with(|r| *r.borrow_mut() = outer);
        }
    }
    let restore = Restore(RECORDER.with(|r| r.borrow_mut().replace(Records::default())));
    RECORDING.with(|on| on.set(true));
    let result = f();
    let records = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("capture buffer installed");
    drop(restore);
    (result, records)
}

/// Appends records captured elsewhere (typically on a worker thread) to
/// the current thread's capture: events in order, metric updates in
/// order. Outside a capture the records are dropped, like any other
/// recording.
pub fn merge(records: Records) {
    record(|active| {
        active.events.extend(records.events);
        active.ops.extend(records.ops);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_a_capture_nothing_records() {
        assert!(!enabled());
        record_span("t", "a", "c", 0.0, 1.0);
        counter_add("tasks", 1);
        let ((), records) = capture(|| assert!(enabled()));
        assert!(records.is_empty(), "records from outside leaked in");
        assert!(!enabled());
    }

    #[test]
    fn capture_records_and_merge_replays_in_order() {
        let ((), records) = capture(|| {
            record_span("t", "outer-before", "c", 0.0, 1.0);
            let ((), inner) = capture(|| {
                record_span("t", "inside", "c", 1.0, 2.0);
                counter_add("tasks", 2);
                gauge_set("depth", 3.0);
                gauge_set("depth", 7.0); // order-sensitive: last write wins
            });
            // Nothing reaches the outer capture until merged.
            assert_eq!(inner.events().len(), 1);
            merge(inner);
        });
        let events = records.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].name, "inside");
        let metrics = records.metrics();
        assert_eq!(metrics.counter("tasks"), 2);
        assert_eq!(metrics.gauge("depth"), 7.0);
    }

    #[test]
    fn nested_captures_compose() {
        let ((), outer) = capture(|| {
            record_span("t", "outer", "c", 0.0, 1.0);
            let ((), inner) = capture(|| {
                record_span("t", "inner", "c", 1.0, 2.0);
            });
            // Merging inside an active capture lands in that capture.
            merge(inner);
        });
        assert_eq!(outer.events()[0].name, "outer");
        assert_eq!(outer.events()[1].name, "inner");
    }

    #[test]
    fn a_panicking_capture_restores_the_outer_one() {
        let ((), outer) = capture(|| {
            let caught = std::panic::catch_unwind(|| {
                capture(|| {
                    record_span("t", "lost", "c", 0.0, 1.0);
                    panic!("boom");
                })
            });
            assert!(caught.is_err());
            record_span("t", "kept", "c", 0.0, 1.0);
        });
        let names: Vec<&str> = outer.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["kept"]);
        assert!(!enabled());
    }

    #[test]
    fn cross_thread_captures_merge_deterministically() {
        let ((), records) = capture(|| {
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    std::thread::spawn(move || {
                        capture(|| {
                            record_span(
                                "t",
                                &format!("point-{i}"),
                                "c",
                                f64::from(i),
                                f64::from(i) + 1.0,
                            );
                            counter_add("points", 1);
                        })
                        .1
                    })
                })
                .collect();
            // Merge in point order regardless of completion order.
            for h in handles {
                merge(h.join().expect("worker"));
            }
        });
        let names: Vec<&str> = records.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["point-0", "point-1", "point-2", "point-3"]);
        assert_eq!(records.metrics().counter("points"), 4);
    }
}

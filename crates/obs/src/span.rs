//! Span recording.
//!
//! A span is a named interval on a *track* (one track per executor, plus
//! a `driver` track for phase-level spans). The engines operate on a
//! simulated clock, so most spans carry virtual times supplied by the
//! caller; wall-clock spans are available through the RAII [`WallSpan`]
//! guard for timing real host work (fitting, report generation).
//!
//! Spans record into the current thread's [`crate::capture`]; outside
//! one a call is a single thread-local check and an immediate return.

use std::sync::OnceLock;
use std::time::Instant;

/// The temporal shape of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// A duration event: `[start, end]` in seconds.
    Complete {
        /// Span start, seconds on the track's clock.
        start: f64,
        /// Span end, seconds on the track's clock.
        end: f64,
    },
    /// A zero-duration marker (straggler kill, retry, speculative copy).
    Instant {
        /// Event time, seconds on the track's clock.
        at: f64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Track (timeline row) the event belongs to, e.g. `"executor-3"`.
    pub track: String,
    /// Event name, e.g. `"map"` or `"straggler"`.
    pub name: String,
    /// Category tag, e.g. `"mapreduce"` — filterable in the trace viewer.
    pub cat: String,
    /// Duration or instant.
    pub kind: SpanKind,
}

impl TraceEvent {
    /// The span duration (zero for instants).
    pub fn duration(&self) -> f64 {
        match self.kind {
            SpanKind::Complete { start, end } => end - start,
            SpanKind::Instant { .. } => 0.0,
        }
    }

    /// The event's start (or instant) time.
    pub fn start(&self) -> f64 {
        match self.kind {
            SpanKind::Complete { start, .. } => start,
            SpanKind::Instant { at } => at,
        }
    }

    /// The event's end (or instant) time.
    pub fn end(&self) -> f64 {
        match self.kind {
            SpanKind::Complete { end, .. } => end,
            SpanKind::Instant { at } => at,
        }
    }
}

fn push(event: TraceEvent) {
    crate::record(|records| records.events.push(event));
}

/// Records a completed span with caller-supplied (virtual) times.
///
/// No-op outside a [`crate::capture`]. `end` is clamped to `start` so a
/// degenerate interval never yields a negative duration.
pub fn record_span(track: &str, name: &str, cat: &str, start: f64, end: f64) {
    if !crate::enabled() {
        return;
    }
    push(TraceEvent {
        track: track.to_string(),
        name: name.to_string(),
        cat: cat.to_string(),
        kind: SpanKind::Complete {
            start,
            end: end.max(start),
        },
    });
}

/// Records an instant marker at a caller-supplied (virtual) time.
///
/// No-op outside a [`crate::capture`].
pub fn record_instant(track: &str, name: &str, cat: &str, at: f64) {
    if !crate::enabled() {
        return;
    }
    push(TraceEvent {
        track: track.to_string(),
        name: name.to_string(),
        cat: cat.to_string(),
        kind: SpanKind::Instant { at },
    });
}

/// Process-wide wall-clock epoch: all [`WallSpan`] times are seconds
/// since the first wall-clock observation.
fn wall_now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// RAII wall-clock span: records a `Complete` span from construction to
/// drop. Inert (no allocation, no clock read) outside a capture.
///
/// # Example
///
/// ```
/// let ((), records) = ipso_obs::capture(|| {
///     let _span = ipso_obs::WallSpan::new("host", "fit", "analysis");
///     // ... timed work ...
/// }); // span recorded when the guard drops
/// assert_eq!(records.events().len(), 1);
/// ```
#[must_use = "a span guard records its span when dropped"]
pub struct WallSpan {
    inner: Option<(String, String, String, f64)>,
}

impl WallSpan {
    /// Opens a wall-clock span on `track`.
    pub fn new(track: &str, name: &str, cat: &str) -> WallSpan {
        if !crate::enabled() {
            return WallSpan { inner: None };
        }
        WallSpan {
            inner: Some((
                track.to_string(),
                name.to_string(),
                cat.to_string(),
                wall_now_s(),
            )),
        }
    }
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        if let Some((track, name, cat, start)) = self.inner.take() {
            let end = wall_now_s();
            push(TraceEvent {
                track,
                name,
                cat,
                kind: SpanKind::Complete {
                    start,
                    end: end.max(start),
                },
            });
        }
    }
}

/// RAII virtual-time span: opened at a simulated start time, completed
/// with an explicit simulated end time. Dropping the guard without
/// calling [`VirtualSpan::complete`] records a zero-length span at the
/// start time so the opened span is never silently lost.
///
/// # Example
///
/// ```
/// let ((), records) = ipso_obs::capture(|| {
///     let span = ipso_obs::VirtualSpan::new("executor-1", "shuffle", "spark", 4.0);
///     span.complete(7.5); // records [4.0, 7.5]
/// });
/// assert_eq!(records.events()[0].duration(), 3.5);
/// ```
#[must_use = "a span guard records its span when dropped"]
pub struct VirtualSpan {
    inner: Option<(String, String, String, f64)>,
}

impl VirtualSpan {
    /// Opens a virtual-time span starting at `start` seconds.
    pub fn new(track: &str, name: &str, cat: &str, start: f64) -> VirtualSpan {
        if !crate::enabled() {
            return VirtualSpan { inner: None };
        }
        VirtualSpan {
            inner: Some((track.to_string(), name.to_string(), cat.to_string(), start)),
        }
    }

    /// Completes the span at `end` seconds on the virtual clock.
    pub fn complete(mut self, end: f64) {
        if let Some((track, name, cat, start)) = self.inner.take() {
            push(TraceEvent {
                track,
                name,
                cat,
                kind: SpanKind::Complete {
                    start,
                    end: end.max(start),
                },
            });
        }
    }
}

impl Drop for VirtualSpan {
    fn drop(&mut self) {
        if let Some((track, name, cat, start)) = self.inner.take() {
            push(TraceEvent {
                track,
                name,
                cat,
                kind: SpanKind::Complete { start, end: start },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture;

    #[test]
    fn outside_a_capture_nothing_records() {
        record_span("t", "a", "c", 0.0, 1.0);
        record_instant("t", "b", "c", 0.5);
        let w = WallSpan::new("t", "w", "c");
        VirtualSpan::new("t", "v", "c", 0.0).complete(1.0);
        // Guards opened outside stay inert even when dropped inside.
        let ((), records) = capture(|| drop(w));
        assert!(records.events().is_empty());
    }

    #[test]
    fn virtual_and_instant_events_record_in_order() {
        let ((), records) = capture(|| {
            record_span("driver", "init", "mr", 0.0, 1.0);
            record_instant("executor-0", "straggler", "mr", 3.5);
            VirtualSpan::new("executor-0", "map", "mr", 1.0).complete(4.0);
        });
        let events = records.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "init");
        assert_eq!(events[0].duration(), 1.0);
        assert_eq!(events[1].kind, SpanKind::Instant { at: 3.5 });
        assert_eq!(
            events[2].kind,
            SpanKind::Complete {
                start: 1.0,
                end: 4.0
            }
        );
    }

    #[test]
    fn degenerate_spans_are_clamped_non_negative() {
        let ((), records) = capture(|| {
            record_span("t", "backwards", "c", 5.0, 2.0);
            VirtualSpan::new("t", "dangling", "c", 7.0).complete(1.0);
            let dropped = VirtualSpan::new("t", "dropped", "c", 9.0);
            drop(dropped);
        });
        let events = records.events();
        assert_eq!(events.len(), 3);
        for e in events {
            assert!(e.duration() >= 0.0, "negative duration in {e:?}");
        }
        assert_eq!(
            events[2].kind,
            SpanKind::Complete {
                start: 9.0,
                end: 9.0
            }
        );
    }

    #[test]
    fn wall_span_measures_real_time() {
        let ((), records) = capture(|| {
            let _span = WallSpan::new("host", "sleep", "test");
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let events = records.events();
        assert_eq!(events.len(), 1);
        assert!(
            events[0].duration() >= 0.004,
            "d = {}",
            events[0].duration()
        );
    }
}

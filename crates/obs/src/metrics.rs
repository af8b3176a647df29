//! Metrics: counters, gauges and histograms.
//!
//! Three instrument kinds, all identified by name:
//!
//! * **counters** — monotonically increasing `u64` ([`counter_add`]);
//! * **gauges** — last-written / accumulated `f64` ([`gauge_set`],
//!   [`gauge_add`]);
//! * **histograms** — log₂-bucketed `u64` distributions
//!   ([`histogram_record`]), e.g. queueing delays in microseconds.
//!
//! An update is recorded as an op in the current thread's
//! [`crate::capture`] and summed only when the capture's
//! [`crate::Records::metrics`] replays them, in recording order; that
//! order is what keeps order-sensitive updates ([`gauge_set`], float
//! accumulation in [`gauge_add`]) deterministic across parallel runs.
//! Outside a capture every entry point is a single thread-local check.

use std::collections::BTreeMap;
use std::fmt;

/// Number of log₂ buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// One recorded metric update.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetricOp {
    CounterAdd(String, u64),
    GaugeSet(String, f64),
    GaugeAdd(String, f64),
    HistogramRecord(String, u64),
}

fn push(op: MetricOp) {
    crate::record(|records| records.ops.push(op));
}

/// Adds `delta` to the named counter. No-op outside a capture.
pub fn counter_add(name: &str, delta: u64) {
    if crate::enabled() {
        push(MetricOp::CounterAdd(name.to_string(), delta));
    }
}

/// Sets the named gauge. No-op outside a capture.
pub fn gauge_set(name: &str, value: f64) {
    if crate::enabled() {
        push(MetricOp::GaugeSet(name.to_string(), value));
    }
}

/// Adds `delta` to the named gauge (an accumulating gauge, used for the
/// overhead-component breakdown). No-op outside a capture.
pub fn gauge_add(name: &str, delta: f64) {
    if crate::enabled() {
        push(MetricOp::GaugeAdd(name.to_string(), delta));
    }
}

/// Records `value` into the named log₂ histogram. No-op outside a
/// capture.
pub fn histogram_record(name: &str, value: u64) {
    if crate::enabled() {
        push(MetricOp::HistogramRecord(name.to_string(), value));
    }
}

/// One histogram summed over a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Non-empty buckets as `(lower, upper_exclusive, count)`; the zero
    /// bucket is `(0, 1, count)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The summed state of every instrument a capture touched.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// All gauges, by name.
    pub gauges: BTreeMap<String, f64>,
    /// All histograms, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Sums `ops` in order into per-name instruments.
    pub(crate) fn replay(ops: &[MetricOp]) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let mut histograms: BTreeMap<&str, (u64, u64, [u64; BUCKETS])> = BTreeMap::new();
        for op in ops {
            match op {
                MetricOp::CounterAdd(name, delta) => {
                    *snap.counters.entry(name.clone()).or_insert(0) += delta;
                }
                MetricOp::GaugeSet(name, value) => {
                    snap.gauges.insert(name.clone(), *value);
                }
                MetricOp::GaugeAdd(name, delta) => {
                    *snap.gauges.entry(name.clone()).or_insert(0.0) += delta;
                }
                MetricOp::HistogramRecord(name, value) => {
                    let (count, sum, buckets) =
                        histograms.entry(name).or_insert((0, 0, [0; BUCKETS]));
                    *count += 1;
                    *sum = sum.wrapping_add(*value);
                    buckets[(64 - value.leading_zeros()) as usize] += 1;
                }
            }
        }
        for (name, (count, sum, buckets)) in histograms {
            let buckets = buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| {
                    let (lo, hi) = if i == 0 {
                        (0, 1)
                    } else {
                        (1u64 << (i - 1), if i == 64 { u64::MAX } else { 1u64 << i })
                    };
                    (lo, hi, c)
                })
                .collect();
            snap.histograms.insert(
                name.to_string(),
                HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            );
        }
        snap
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value (0.0 if never touched).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter   {name:<40} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "gauge     {name:<40} {v:.6}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "histogram {name:<40} count={} mean={:.1}",
                h.count,
                h.mean()
            )?;
            for &(lo, hi, c) in &h.buckets {
                writeln!(f, "            [{lo}, {hi})  {c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture;

    #[test]
    fn outside_a_capture_nothing_is_counted() {
        counter_add("c", 1);
        gauge_set("g", 1.0);
        histogram_record("h", 1);
        let ((), records) = capture(|| ());
        let snap = records.metrics();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let ((), records) = capture(|| {
            counter_add("tasks", 3);
            counter_add("tasks", 2);
            gauge_set("depth", 4.0);
            gauge_add("overhead", 0.25);
            gauge_add("overhead", 0.5);
            histogram_record("delay", 0);
            histogram_record("delay", 1);
            histogram_record("delay", 900);
        });
        let snap = records.metrics();

        assert_eq!(snap.counter("tasks"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("depth"), 4.0);
        assert!((snap.gauge("overhead") - 0.75).abs() < 1e-12);

        let h = &snap.histograms["delay"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 901);
        // 0 → zero bucket; 1 → [1, 2); 900 → [512, 1024).
        assert_eq!(h.buckets[0], (0, 1, 1));
        assert_eq!(h.buckets[1], (1, 2, 1));
        assert_eq!(h.buckets[2], (512, 1024, 1));
        assert!(format!("{snap}").contains("histogram delay"));
    }

    #[test]
    fn each_capture_starts_from_zero() {
        let ((), first) = capture(|| counter_add("x", 1));
        assert_eq!(first.metrics().counter("x"), 1);
        let ((), second) = capture(|| ());
        assert_eq!(second.metrics().counter("x"), 0);
        assert!(second.metrics().counters.is_empty());
    }

    #[test]
    fn extreme_histogram_values_land_in_the_edge_buckets() {
        let ((), records) = capture(|| histogram_record("h", u64::MAX));
        let h = &records.metrics().histograms["h"];
        assert_eq!(h.buckets, vec![(1u64 << 63, u64::MAX, 1)]);
    }
}

//! Order statistics over per-point latency samples.

/// The `q`-quantile (`0 < q <= 1`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q · len` samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// The 1-based nearest rank of the `q`-quantile among `len` samples. The
/// tolerance keeps products such as `0.9 · 100` from rounding up a rank.
fn rank(q: f64, len: usize) -> usize {
    ((q * len as f64 - 1e-9).ceil() as usize).clamp(1, len)
}

/// The Harrell–Davis estimate of the `q`-quantile (`0 < q < 1`) of
/// `sorted`: a weighted mean of all samples, the `i`-th weighted by the
/// mass of a Beta((len+1)·q, (len+1)·(1−q)) density on `[(i−1)/len,
/// i/len]`. Where the samples have a gap at the quantile, a single order
/// statistic jumps across it whenever two samples swap ranks; this
/// estimate moves by a fraction of the gap. With too few samples for a
/// bounded density it falls back to the nearest rank. Returns `None` for
/// an empty slice.
pub fn harrell_davis(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let len = sorted.len();
    let (a, b) = ((len + 1) as f64 * q, (len + 1) as f64 * (1.0 - q));
    if a <= 1.0 || b <= 1.0 {
        return percentile(sorted, q);
    }
    // The density relative to its mode, so no term overflows; the
    // midpoint rule never evaluates it at 0 or 1.
    let mode = (a - 1.0) / (a + b - 2.0);
    let density =
        |t: f64| ((a - 1.0) * (t / mode).ln() + (b - 1.0) * ((1.0 - t) / (1.0 - mode)).ln()).exp();
    const STEPS: usize = 64;
    let h = 1.0 / (len * STEPS) as f64;
    let (mut mass, mut weighted) = (0.0, 0.0);
    for (i, &x) in sorted.iter().enumerate() {
        let w: f64 = (0..STEPS)
            .map(|k| density(((i * STEPS + k) as f64 + 0.5) * h))
            .sum();
        mass += w;
        weighted += w * x;
    }
    Some(weighted / mass)
}

/// How many samples lie strictly above `value`.
pub fn count_above(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&s| s <= value)
}

/// The median of an unsorted sample (mean of the middle pair for an
/// even count). Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        len if len % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

/// The smallest sample count at which the `q`-quantile leaves at least
/// `tail` samples strictly above it (for distinct samples).
pub fn samples_needed(q: f64, tail: usize) -> usize {
    (1..)
        .find(|&len| len - rank(q, len) >= tail)
        .expect("q < 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 0.91), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&s, 0.01), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0], 0.9), Some(3.0));
    }

    #[test]
    fn harrell_davis_matches_exact_beta_weights() {
        // Five samples at q = 0.5 weight by Beta(3, 3), whose CDF is
        // 10x³ − 15x⁴ + 6x⁵.
        let cdf = |x: f64| 10.0 * x.powi(3) - 15.0 * x.powi(4) + 6.0 * x.powi(5);
        let s = [1.0, 2.0, 4.0, 8.0, 16.0];
        let exact: f64 = s
            .iter()
            .enumerate()
            .map(|(i, x)| x * (cdf((i + 1) as f64 / 5.0) - cdf(i as f64 / 5.0)))
            .sum();
        // The midpoint rule's error is far below any timer's resolution.
        let hd = harrell_davis(&s, 0.5).unwrap();
        assert!((hd - exact).abs() < 1e-5 * exact, "{hd} vs {exact}");
    }

    #[test]
    fn harrell_davis_is_symmetric_and_smooth_across_a_gap() {
        assert!((harrell_davis(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap() - 2.5).abs() < 1e-9);
        assert_eq!(
            harrell_davis(&[7.0; 6], 0.5).map(|v| (v - 7.0).abs() < 1e-12),
            Some(true)
        );
        assert_eq!(harrell_davis(&[3.0], 0.5), Some(3.0));
        assert_eq!(harrell_davis(&[], 0.5), None);
        // One sample crossing the gap moves the nearest-rank median by
        // the whole gap, and this estimate by well under half of it.
        let before = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0];
        let after = [1.0, 2.0, 10.0, 10.0, 11.0, 12.0];
        assert_eq!(
            percentile(&after, 0.5).unwrap() - percentile(&before, 0.5).unwrap(),
            7.0
        );
        let moved = harrell_davis(&after, 0.5).unwrap() - harrell_davis(&before, 0.5).unwrap();
        assert!(moved > 0.0 && moved < 3.5, "{moved}");
    }

    #[test]
    fn tail_counts_exclude_ties_with_the_percentile() {
        let s = [1.0, 2.0, 2.0, 3.0, 4.0];
        assert_eq!(count_above(&s, 2.0), 2);
        assert_eq!(count_above(&s, 4.0), 0);
        assert_eq!(count_above(&s, 0.0), 5);
    }

    #[test]
    fn p90_of_the_needed_count_leaves_the_tail() {
        let n = samples_needed(0.9, 10);
        assert_eq!(n, 100);
        let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let p90 = percentile(&s, 0.9).unwrap();
        assert_eq!(count_above(&s, p90), 10);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

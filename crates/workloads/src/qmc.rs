//! Quasi-Monte-Carlo π estimation (Hadoop examples; paper Fig. 4a).
//!
//! Each map task evaluates a slice of a low-discrepancy Halton sequence
//! and counts points inside the unit quarter-circle; the reducer sums the
//! counts and produces the π estimate. There is essentially no serial
//! workload (`η → 1`) and no intermediate data, so the measured speedup
//! matches Gustafson's law — the paper's only purely benign MapReduce
//! case.

use ipso_mapreduce::{
    InputSplit, JobCostModel, JobSpec, Mapper, OutputScaling, Reducer, ScalingSweep,
};

/// Nominal samples per map task (drives the charged map time).
pub const SAMPLES_PER_TASK: u64 = 2_500_000_000;
/// Halton points actually evaluated per task.
const SAMPLE_POINTS: u64 = 20_000;
/// Nominal "bytes" per sample for cost accounting (the QMC kernel is
/// CPU-bound; one sample costs as much as streaming ~1.6 bytes).
const BYTES_PER_SAMPLE: u64 = 2;

/// The `index`-th element of the van der Corput sequence in `base`.
pub fn van_der_corput(mut index: u64, base: u64) -> f64 {
    let mut result = 0.0;
    let mut f = 1.0 / base as f64;
    while index > 0 {
        result += f * (index % base) as f64;
        index /= base;
        f /= base as f64;
    }
    result
}

/// `van_der_corput(index, 2)`, bit for bit, for `index < 2^53`.
///
/// The base-2 radical inverse mirrors the index's bits about the binary
/// point. Below 2^53 the mirrored value has at most 53 significant bits,
/// so both the reference's digit sum and this conversion are exact.
fn radical_inverse_2(index: u64) -> f64 {
    /// 2^-64, exact.
    const ULP: f64 = 1.0 / 18_446_744_073_709_551_616.0;
    debug_assert!(index < 1 << 53);
    index.reverse_bits() as f64 * ULP
}

/// `van_der_corput(index, 3)`, bit for bit: the same digit loop and
/// float operations, with the base a constant so the divisions compile
/// to multiplications.
fn radical_inverse_3(mut index: u64) -> f64 {
    const BASE: u64 = 3;
    let mut result = 0.0;
    let mut f = 1.0 / BASE as f64;
    while index > 0 {
        result += f * (index % BASE) as f64;
        index /= BASE;
        f /= BASE as f64;
    }
    result
}

/// One task's slice of the Halton sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QmcSlice {
    /// First sequence index of the slice.
    pub offset: u64,
    /// Points to evaluate.
    pub count: u64,
}

/// Counts Halton points falling inside the unit quarter circle.
#[derive(Debug, Clone, Copy, Default)]
pub struct QmcMapper;

impl Mapper for QmcMapper {
    type Input = QmcSlice;
    type Key = u32;
    type Value = (u64, u64);

    fn map(&self, slice: &QmcSlice, emit: &mut dyn FnMut(u32, (u64, u64))) {
        let mut inside = 0u64;
        for i in slice.offset..slice.offset + slice.count {
            // 2D Halton: bases 2 and 3.
            let x = radical_inverse_2(i + 1);
            let y = radical_inverse_3(i + 1);
            if x * x + y * y <= 1.0 {
                inside += 1;
            }
        }
        emit(0, (inside, slice.count));
    }

    fn output_scaling(&self) -> OutputScaling {
        OutputScaling::Saturating
    }
}

/// Sums partial counts into the π estimate.
#[derive(Debug, Clone, Copy, Default)]
pub struct QmcReducer;

impl Reducer for QmcReducer {
    type Key = u32;
    type Value = (u64, u64);
    type Output = f64;

    fn reduce(&self, _key: &u32, values: &[(u64, u64)], emit: &mut dyn FnMut(f64)) {
        let inside: u64 = values.iter().map(|v| v.0).sum();
        let total: u64 = values.iter().map(|v| v.1).sum();
        emit(4.0 * inside as f64 / total as f64);
    }
}

/// Cost calibration: pure compute, ~50 s per map task, negligible serial
/// work (a fraction of a second of reducer setup).
pub fn cost_model() -> JobCostModel {
    JobCostModel {
        map_rate: 100.0e6,
        shuffle_rate: 500.0e6,
        merge_rate: 500.0e6,
        reduce_rate: 500.0e6,
        seq_init: 2.0,
        serial_setup: 0.3,
    }
}

/// The job spec at scale-out degree `n`.
pub fn job_spec(n: u32) -> JobSpec {
    let mut spec = JobSpec::emr("qmc-pi", n);
    spec.cost = cost_model();
    spec
}

/// The `n` fixed-time slices. Each task nominally evaluates
/// [`SAMPLES_PER_TASK`] samples but executes a deterministic
/// 20 000-point slice.
pub fn make_splits(n: u32) -> Vec<InputSplit<QmcSlice>> {
    (0..n)
        .map(|task| {
            let slice = QmcSlice {
                offset: u64::from(task) * SAMPLE_POINTS,
                count: SAMPLE_POINTS,
            };
            InputSplit::new(
                vec![slice],
                SAMPLE_POINTS * BYTES_PER_SAMPLE,
                SAMPLES_PER_TASK * BYTES_PER_SAMPLE,
            )
        })
        .collect()
}

/// Runs the full paper sweep for QMC-Pi.
pub fn sweep(ns: &[u32]) -> ScalingSweep {
    ScalingSweep::run(
        ns,
        &QmcMapper,
        &QmcReducer,
        job_spec,
        make_splits,
        make_splits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn van_der_corput_known_values() {
        // Base 2: 1 → 0.5, 2 → 0.25, 3 → 0.75.
        assert!((van_der_corput(1, 2) - 0.5).abs() < 1e-12);
        assert!((van_der_corput(2, 2) - 0.25).abs() < 1e-12);
        assert!((van_der_corput(3, 2) - 0.75).abs() < 1e-12);
        // Base 3: 1 → 1/3, 2 → 2/3.
        assert!((van_der_corput(1, 3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((van_der_corput(2, 3) - 2.0 / 3.0).abs() < 1e-12);
    }

    /// The fast kernels against the reference, over every index the
    /// paper sweep evaluates and around 2^40 and 2^52.
    #[test]
    fn fast_radical_inverses_match_the_reference_bit_for_bit() {
        let near = |p: u32| (1u64 << p) - 1000..(1u64 << p) + 1000;
        let indices = (1..5_000_000).chain(near(40)).chain(near(52));
        for i in indices {
            assert_eq!(
                radical_inverse_2(i).to_bits(),
                van_der_corput(i, 2).to_bits(),
                "base 2 at {i}"
            );
            assert_eq!(
                radical_inverse_3(i).to_bits(),
                van_der_corput(i, 3).to_bits(),
                "base 3 at {i}"
            );
        }
    }

    #[test]
    fn pi_estimate_is_accurate() {
        use ipso_mapreduce::run_scale_out;
        let run = run_scale_out(&job_spec(4), &QmcMapper, &QmcReducer, &make_splits(4));
        assert_eq!(run.output.len(), 1);
        let pi = run.output[0];
        assert!(
            (pi - std::f64::consts::PI).abs() < 0.01,
            "pi estimate = {pi}"
        );
    }

    #[test]
    fn eta_is_near_one() {
        let sweep = sweep(&[1, 2, 4]);
        let m = &sweep.measurements()[0];
        let eta = m.seq_parallel_work / (m.seq_parallel_work + m.seq_serial_work);
        assert!(eta > 0.97, "eta = {eta}");
    }

    #[test]
    fn speedup_matches_gustafson() {
        let sweep = sweep(&[1, 2, 4, 8, 16, 32, 64]);
        let curve = sweep.speedup_curve().unwrap();
        let s64 = curve.points().last().unwrap().speedup;
        // Near-linear: within 15% of perfect scaling.
        assert!(s64 > 0.85 * 64.0, "S(64) = {s64}");
    }
}

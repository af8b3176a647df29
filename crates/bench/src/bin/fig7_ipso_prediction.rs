//! Fig. 7 — IPSO-predicted speedups versus measured and Gustafson's law
//! for the four MapReduce cases.
//!
//! The pipeline fits the scaling factors on small runs only (n ≤ 16 for
//! QMC/WordCount/Sort; 16 ≤ n ≤ 64 for TeraSort, skipping the pre-spill
//! regime as the paper does) and extrapolates to n = 200. The headline
//! claim: IPSO tracks the measured curves everywhere while Gustafson's
//! law overshoots by an order of magnitude on Sort/TeraSort.

use ipso::classic::gustafson;
use ipso::predict::ScalingPredictor;
use ipso_bench::{SweepRunner, Table, MAPREDUCE_CASES};
use ipso_workloads::{FIT_WINDOW, PAPER_SWEEP};

fn main() {
    // TeraSort: fit past the spill boundary, as the paper does; the
    // n = 1 run still provides the workload reference.
    let late_window = |name: &str| name == "terasort";
    let terasort_ns: &[u32] = &[
        1, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128, 160, 200,
    ];
    let ns = |name: &str| {
        if late_window(name) {
            terasort_ns
        } else {
            PAPER_SWEEP
        }
    };
    let sweeps = SweepRunner::from_env().sweeps(&MAPREDUCE_CASES.map(|(name, s)| (s, ns(name))));

    for ((name, _), sweep) in MAPREDUCE_CASES.iter().zip(&sweeps) {
        let measurements = sweep.measurements();
        let predictor = if late_window(name) {
            ScalingPredictor::fit_range(&measurements, 16, 64).expect("fit")
        } else {
            ScalingPredictor::fit(&measurements, FIT_WINDOW).expect("fit")
        };
        let base = &measurements[0];
        let eta = base.seq_parallel_work / (base.seq_parallel_work + base.seq_serial_work);

        let mut table = Table::new(
            &format!("fig7_{name}"),
            &["n", "measured", "ipso", "gustafson"],
        );
        let mut max_rel_err = 0.0f64;
        for m in &measurements {
            let ipso_s = predictor.predict(f64::from(m.n)).expect("predictable");
            let g = gustafson(eta, f64::from(m.n)).expect("valid");
            table.push(vec![f64::from(m.n), m.speedup(), ipso_s, g]);
            if m.n > predictor.window() {
                max_rel_err = max_rel_err.max((ipso_s - m.speedup()).abs() / m.speedup());
            }
        }
        table.emit();
        println!(
            "  {name}: max IPSO extrapolation error beyond the fit window = {:.1}%\n",
            100.0 * max_rel_err
        );
    }
}

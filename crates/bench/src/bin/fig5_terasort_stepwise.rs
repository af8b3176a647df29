//! Fig. 5 — TeraSort's step-wise internal scaling factor.
//!
//! The reducer's input (128 MB × n) overflows its ~2 GB memory near
//! n ≈ 15; the internal scaling factor bursts and its slope increases.
//! The binary measures `IN(n)`, fits the two regimes with the segmented
//! regression, and reports the slopes the paper quotes (≈ 0.15 → ≈ 0.25,
//! relative to the same normalization).

use ipso_bench::{SweepRunner, Table};
use ipso_fit::fit_two_segment;
use ipso_mapreduce::ScalingSweep;
use ipso_workloads::terasort;

fn main() {
    ipso_bench::trace_out_from_env().run(run);
}

fn run() {
    let runner = SweepRunner::from_env();
    let ns: Vec<u32> = (1..=40).collect();
    let points = runner
        .map(ns, |_ctx, n| terasort::sweep(&[n]).points)
        .into_iter()
        .flatten()
        .collect();
    let sweep = ScalingSweep { points };
    let measurements = sweep.measurements();
    let ws1 = measurements[0].seq_serial_work;

    let mut table = Table::new("fig5_terasort_stepwise", &["n", "in_factor"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for m in &measurements {
        let in_factor = m.seq_serial_work / ws1;
        table.push(vec![f64::from(m.n), in_factor]);
        xs.push(f64::from(m.n));
        ys.push(in_factor);
    }
    table.emit();

    let fit = fit_two_segment(&xs, &ys, 4).expect("segmented fit");
    println!(
        "two-regime fit: breakpoint n = {:.0} (paper: ~15, reducer memory 2 GB / 128 MB shards)",
        fit.breakpoint
    );
    println!(
        "  IN'(n) slope = {:.3} (pre-spill)   IN(n) slope = {:.3} (post-spill)",
        fit.left.slope, fit.right.slope
    );
    println!(
        "  slope ratio = {:.2} (paper: 0.25/0.15 = 1.67), burst at switch = {:.1}%",
        fit.right.slope / fit.left.slope,
        100.0 * (fit.predict(fit.breakpoint + 1.0) - fit.left.predict(fit.breakpoint + 1.0))
            / fit.left.predict(fit.breakpoint + 1.0)
    );
    assert!(
        fit.slope_increases(),
        "expected the post-spill regime to grow faster"
    );
}

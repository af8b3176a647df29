//! Fig. 4 — measured speedups for QMC, WordCount, Sort and TeraSort on
//! the simulated EMR cluster, against Gustafson's prediction.
//!
//! The paper's observations to reproduce: QMC matches Gustafson (type
//! It); WordCount is close to linear (It/IIt); Sort and TeraSort deviate
//! dramatically and saturate (IIIt,1), with Sort capped near 5 and
//! TeraSort near 3 including a dip near the memory-overflow point.

use ipso::classic::gustafson;
use ipso_bench::{SweepRunner, Table};
use ipso_mapreduce::ScalingSweep;
use ipso_workloads::{qmc, sort, terasort, wordcount, PAPER_SWEEP};

/// A named MapReduce sweep constructor.
type Case = (&'static str, fn(&[u32]) -> ScalingSweep);

fn main() {
    ipso_bench::trace_out_from_env().run(run);
}

fn run() {
    let runner = SweepRunner::from_env();
    let case_fns: Vec<Case> = vec![
        ("qmc", qmc::sweep),
        ("wordcount", wordcount::sweep),
        ("sort", sort::sweep),
        ("terasort", terasort::sweep),
    ];

    // One grid point per (case, n): each runs its own sequential
    // reference plus scale-out simulation, independently of the rest.
    let grid: Vec<(usize, u32)> = (0..case_fns.len())
        .flat_map(|c| PAPER_SWEEP.iter().map(move |&n| (c, n)))
        .collect();
    let mut points = runner
        .map(grid, |_ctx, (c, n)| case_fns[c].1(&[n]).points)
        .into_iter();
    let cases: Vec<(&str, ScalingSweep)> = case_fns
        .iter()
        .map(|(name, _)| {
            let points = points.by_ref().take(PAPER_SWEEP.len()).flatten().collect();
            (*name, ScalingSweep { points })
        })
        .collect();

    for (name, sweep) in &cases {
        let measurements = sweep.measurements();
        let base = &measurements[0];
        let eta = base.seq_parallel_work / (base.seq_parallel_work + base.seq_serial_work);

        let mut table = Table::new(&format!("fig4_{name}"), &["n", "measured", "gustafson"]);
        for m in &measurements {
            let g = gustafson(eta, f64::from(m.n)).expect("valid eta and n");
            table.push(vec![f64::from(m.n), m.speedup(), g]);
        }
        table.emit();

        let last = measurements.last().expect("non-empty sweep");
        println!(
            "  {name}: eta = {eta:.3}, S({}) = {:.2} vs Gustafson {:.2}\n",
            last.n,
            last.speedup(),
            gustafson(eta, f64::from(last.n)).expect("valid"),
        );
    }
}

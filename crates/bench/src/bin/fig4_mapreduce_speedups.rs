//! Fig. 4 — measured speedups for QMC, WordCount, Sort and TeraSort on
//! the simulated EMR cluster, against Gustafson's prediction.
//!
//! The paper's observations to reproduce: QMC matches Gustafson (type
//! It); WordCount is close to linear (It/IIt); Sort and TeraSort deviate
//! dramatically and saturate (IIIt,1), with Sort capped near 5 and
//! TeraSort near 3 including a dip near the memory-overflow point.

use ipso::classic::gustafson;
use ipso_bench::{SweepRunner, Table, MAPREDUCE_CASES};
use ipso_workloads::PAPER_SWEEP;

fn main() {
    ipso_bench::trace_out_from_env().run(run);
}

fn run() {
    let sweeps = SweepRunner::from_env().sweeps(&MAPREDUCE_CASES.map(|(_, s)| (s, PAPER_SWEEP)));
    for ((name, _), sweep) in MAPREDUCE_CASES.iter().zip(&sweeps) {
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

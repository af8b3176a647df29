//! Fig. 9 — the Spark benchmarks along the fixed-time dimension
//! (`N/m` constant while scaling `m`).
//!
//! Paper findings to reproduce, for all four applications:
//! the speedup curve at `N/m = 4` lies above `N/m = 2`, which lies above
//! `N/m = 1` (first-wave scheduling/deserialization amortizes over more
//! tasks per executor) — but `N/m = 8` drops below `N/m = 4` because the
//! cached partitions overflow executor memory and spill.

use ipso_bench::{SweepRunner, Table};
use ipso_spark::sweep_fixed_time;
use ipso_workloads::{bayes, nweight, random_forest, svm};

/// A named Spark application constructor `(name, job(load, m))`.
type App = (&'static str, fn(u32, u32) -> ipso_spark::SparkJobSpec);

fn main() {
    ipso_bench::trace_out_from_env().run(run);
}

fn run() {
    let runner = SweepRunner::from_env();
    let ms: Vec<u32> = vec![1, 2, 4, 8, 16, 24, 32, 48, 64];
    let loads: Vec<u32> = vec![1, 2, 4, 8];
    let apps: Vec<App> = vec![
        ("bayes", bayes::job),
        ("random_forest", random_forest::job),
        ("svm", svm::job),
        ("nweight", nweight::job),
    ];

    // One grid point per (app, load, m), app-major then load-major so
    // each app's per-load series reassembles contiguously.
    let mut grid: Vec<(usize, u32, u32)> = Vec::new();
    for a in 0..apps.len() {
        for &l in &loads {
            for &m in &ms {
                grid.push((a, l, m));
            }
        }
    }
    let mut points = runner
        .map(grid, |_ctx, (a, load, m)| {
            sweep_fixed_time(apps[a].1, load, &[m])
                .into_iter()
                .next()
                .expect("one point per grid cell")
        })
        .into_iter();

    for (name, _) in &apps {
        let sweeps: Vec<Vec<ipso_spark::SparkSweepPoint>> = loads
            .iter()
            .map(|_| points.by_ref().take(ms.len()).collect())
            .collect();
        let mut table = Table::new(
            &format!("fig9_{name}"),
            &["m", "load1", "load2", "load4", "load8"],
        );
        for (i, &m) in ms.iter().enumerate() {
            table.push(vec![
                f64::from(m),
                sweeps[0][i].speedup,
                sweeps[1][i].speedup,
                sweeps[2][i].speedup,
                sweeps[3][i].speedup,
            ]);
        }
        table.emit();

        // The paper's ordering at the largest m.
        let last = ms.len() - 1;
        println!(
            "  {name}: at m = {}: S[N/m=1] = {:.1}, S[N/m=2] = {:.1}, S[N/m=4] = {:.1}, S[N/m=8] = {:.1}",
            ms[last],
            sweeps[0][last].speedup,
            sweeps[1][last].speedup,
            sweeps[2][last].speedup,
            sweeps[3][last].speedup,
        );
        println!(
            "  expected ordering 4 > 2 > 1 and 8 < 4 (memory spill): {}\n",
            if sweeps[2][last].speedup > sweeps[1][last].speedup
                && sweeps[1][last].speedup > sweeps[0][last].speedup
                && sweeps[3][last].speedup < sweeps[2][last].speedup
            {
                "reproduced"
            } else {
                "NOT reproduced"
            }
        );
    }
}

//! Fig. 10 — the Spark benchmarks along the fixed-size dimension
//! (`N` constant while scaling `m`).
//!
//! Paper finding to reproduce: for large fixed `N`, every application's
//! speedup peaks and then falls as `m` grows — the pathological IVs
//! behaviour caused by scale-out-induced overhead — in stark contrast to
//! the monotone IIIs curve Amdahl's law predicts.

use ipso_bench::{SweepRunner, Table};
use ipso_spark::sweep_fixed_size;
use ipso_workloads::{bayes, nweight, random_forest, svm};

/// A named Spark application constructor `(name, job(load, m))`.
type App = (&'static str, fn(u32, u32) -> ipso_spark::SparkJobSpec);

fn main() {
    ipso_bench::trace_out_from_env().run(run);
}

fn run() {
    let runner = SweepRunner::from_env();
    let ms: Vec<u32> = vec![1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256];
    let sizes: Vec<u32> = vec![32, 64, 128];
    let apps: Vec<App> = vec![
        ("bayes", bayes::job),
        ("random_forest", random_forest::job),
        ("svm", svm::job),
        ("nweight", nweight::job),
    ];

    // One grid point per (app, size, m), app-major then size-major so
    // each app's per-size series reassembles contiguously.
    let mut grid: Vec<(usize, u32, u32)> = Vec::new();
    for a in 0..apps.len() {
        for &s in &sizes {
            for &m in &ms {
                grid.push((a, s, m));
            }
        }
    }
    let mut points = runner
        .map(grid, |_ctx, (a, size, m)| {
            sweep_fixed_size(apps[a].1, size, &[m])
                .into_iter()
                .next()
                .expect("one point per grid cell")
        })
        .into_iter();

    for (name, _) in &apps {
        let sweeps: Vec<Vec<ipso_spark::SparkSweepPoint>> = sizes
            .iter()
            .map(|_| points.by_ref().take(ms.len()).collect())
            .collect();
        let mut table = Table::new(&format!("fig10_{name}"), &["m", "n32", "n64", "n128"]);
        for (i, &m) in ms.iter().enumerate() {
            table.push(vec![
                f64::from(m),
                sweeps[0][i].speedup,
                sweeps[1][i].speedup,
                sweeps[2][i].speedup,
            ]);
        }
        table.emit();

        for (s_idx, &n) in sizes.iter().enumerate() {
            let peak = sweeps[s_idx]
                .iter()
                .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
                .expect("non-empty");
            let last = sweeps[s_idx].last().expect("non-empty");
            println!(
                "  {name} N = {n}: peak S({}) = {:.1}, S({}) = {:.1} — {}",
                peak.m,
                peak.speedup,
                last.m,
                last.speedup,
                if last.speedup < peak.speedup && peak.m < last.m {
                    "peaks and falls (IVs)"
                } else {
                    "monotone in the measured range"
                }
            );
        }
        println!();
    }
}

//! The three benchmark workloads, built from the library's public entry
//! points the way the experiment binaries call them.
//!
//! * `mr_paper` — fig4's grid through `ScalingSweep::run`, then fig7's
//!   per-job fit, one engine thread, no faults;
//! * `mr_faults` — `ablation_faults`' grid on Sort and QMC with the engine
//!   at `nproc` threads;
//! * `spark_faults` — fig9 + fig10 grids and the join DAG, each job once
//!   fault-free and once at a 5% task failure rate, `nproc` threads.
//!
//! Each point is timed around its public call only. Checks and, in the
//! traced run, replays of the calls the engines make privately happen
//! after the timed part.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use ipso::measurement::RunMeasurement;
use ipso::predict::ScalingPredictor;
use ipso_cluster::runtime::RuntimeConfig;
use ipso_cluster::{
    execute, FaultModel, FaultSummary, JobTrace, RecoveryPolicy, RunOutcome, SchedulerPolicy,
    TaskGraph,
};
use ipso_mapreduce::{
    measurement_from_runs, plan_scale_out, run_sequential, try_run_scale_out, InputSplit, JobRun,
    JobSpec, Mapper, Reducer, ScalingSweep,
};
use ipso_sim::SimRng;
use ipso_spark::{
    lower_chain, lower_levels, run_dag, run_sequential_reference, sweep_fixed_size,
    sweep_fixed_time, try_run_job, SparkJobSpec, SparkRun,
};
use ipso_workloads::{
    bayes, join, nweight, qmc, random_forest, sort, svm, terasort, wordcount, FIT_WINDOW,
    PAPER_SWEEP,
};

use crate::spans::{timed, Trace};

/// The workload seed whose generated inputs are the committed artifacts'.
pub const DEFAULT_SEED: u64 = 0;

/// The seeds one workload seed expands to. [`DEFAULT_SEED`] gives the
/// experiment binaries' own: spec seed 42, wordcount 1, sort 2,
/// terasort 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Engine RNG seed of every job spec.
    pub spec: u64,
    /// Wordcount text generator seed.
    pub wordcount: u64,
    /// Sort text generator seed.
    pub sort: u64,
    /// TeraSort record generator seed.
    pub terasort: u64,
}

impl Seeds {
    /// The seeds of workload seed `seed`.
    pub fn derive(seed: u64) -> Seeds {
        let mix = |base: u64| base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Seeds {
            spec: mix(42),
            wordcount: mix(1),
            sort: mix(2),
            terasort: mix(3),
        }
    }
}

/// A labelled operation's checked result: the values fingerprinted bit
/// for bit, or why it failed.
pub type Checked = Result<Vec<f64>, String>;

/// One benchmark workload.
pub trait Workload: Sync {
    /// Engine threads the workload's specs ask for.
    fn engine_threads(&self) -> usize;
    /// One label per grid point, unique.
    fn labels(&self) -> Vec<String>;
    /// Points run once before timing starts.
    fn warmup(&self) -> Vec<usize>;
    /// Runs point `i`, returning the seconds its public call took and
    /// its checked values.
    fn run_point(&self, i: usize, trace: Option<&Trace>) -> (f64, Checked);
    /// Work done once per pass after the points (fig7's fits), as
    /// labelled operations over the pass's point values.
    fn after_pass(
        &self,
        _values: &[Option<Vec<f64>>],
        _trace: Option<&Trace>,
    ) -> Vec<(String, Checked)> {
        Vec::new()
    }
}

/// Times `f` as point `point`, catching a panic as the point's failure.
pub fn time_point<T>(
    trace: Option<&Trace>,
    point: usize,
    f: impl FnOnce() -> T,
) -> (f64, Result<T, String>) {
    let span = trace.map(|t| t.spans().enter("point", Some(point)));
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    let secs = start.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (trace, span) {
        let mut spans = t.spans();
        match out {
            Ok(_) => spans.exit(id),
            Err(_) => spans.close_all(),
        }
    }
    let out = out.map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        format!("panic: {msg}")
    });
    (secs, out)
}

/// The other engine thread count of the cross-check: `1` ↔ `nproc`.
fn flipped(threads: usize, nproc: usize) -> usize {
    if threads == 1 {
        nproc.max(2)
    } else {
        1
    }
}

fn check_speedup(speedup: f64) -> Result<(), String> {
    if speedup.is_finite() && speedup > 0.0 {
        Ok(())
    } else {
        Err(format!("speedup {speedup} is not finite and positive"))
    }
}

fn check_mr_traces(seq: &JobTrace, par: &JobTrace, m: &RunMeasurement) -> Result<(), String> {
    seq.check_invariants()
        .map_err(|e| format!("sequential trace: {e}"))?;
    par.check_invariants()
        .map_err(|e| format!("scale-out trace: {e}"))?;
    if let Some(f) = &par.faults {
        f.check_invariants()
            .map_err(|e| format!("fault summary: {e}"))?;
    }
    check_speedup(m.speedup())
}

fn measurement_values(m: &RunMeasurement) -> Vec<f64> {
    vec![
        f64::from(m.n),
        m.seq_parallel_work,
        m.seq_serial_work,
        m.par_map_time,
        m.par_serial_time,
        m.par_overhead,
    ]
}

fn values_measurement(v: &[f64]) -> RunMeasurement {
    RunMeasurement {
        n: v[0] as u32,
        seq_parallel_work: v[1],
        seq_serial_work: v[2],
        par_map_time: v[3],
        par_serial_time: v[4],
        par_overhead: v[5],
    }
}

/// Generates splits as a `datagen` span, counting their records.
fn datagen<I>(trace: Option<&Trace>, f: impl FnOnce() -> Vec<InputSplit<I>>) -> Vec<InputSplit<I>> {
    let splits = timed(trace, "datagen", f);
    if let Some(t) = trace {
        t.add("datagen.records", records(&splits));
    }
    splits
}

fn records<I>(splits: &[InputSplit<I>]) -> f64 {
    splits.iter().map(|s| s.records.len() as f64).sum()
}

/// Adds the runtime's simulated counts of one execution.
fn count_runtime(t: &Trace, graph: &TaskGraph, outcome: &RunOutcome) {
    t.add("runtime.tasks", graph.total_tasks() as f64);
    for (node, stage) in graph.stages.iter().zip(&outcome.stages) {
        let (attempts, retries) = stage
            .fault
            .as_ref()
            .map_or((node.tasks() as f64, 0.0), |f| {
                (f64::from(f.summary.attempts), f64::from(f.summary.retries))
            });
        t.add("runtime.attempts", attempts);
        t.add("runtime.retries", retries);
        t.add("runtime.wasted_s", stage.wasted());
    }
}

fn summaries_attempts(summaries: &[FaultSummary]) -> u64 {
    summaries.iter().map(|s| u64::from(s.attempts)).sum()
}

fn outcome_attempts(outcome: &RunOutcome) -> u64 {
    outcome
        .stages
        .iter()
        .filter_map(|s| s.fault.as_ref())
        .map(|f| u64::from(f.summary.attempts))
        .sum()
}

/// Replays a MapReduce scale-out run outside the timed point: plan +
/// execute at the engine's thread count as stand-ins under `parent`, then
/// the whole run at the other thread count, which must reproduce `par`.
/// Returns that run.
#[allow(clippy::too_many_arguments)]
fn replay_scale_out<M, R>(
    t: &Trace,
    parent: usize,
    spec: &JobSpec,
    mapper: &M,
    reducer: &R,
    splits: &[InputSplit<M::Input>],
    par: &JobTrace,
    nproc: usize,
) -> Result<JobRun<R::Output>, String>
where
    M: Mapper + Sync,
    M::Input: Sync,
    M::Key: Send,
    M::Value: Send,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    let t0 = Instant::now();
    let graph = plan_scale_out(spec, splits);
    let t1 = Instant::now();
    let config = RuntimeConfig {
        executors: (spec.cluster.total_slots() as usize).min(splits.len()),
        scheduler: spec.scheduler,
        policy: spec.policy,
        straggler: spec.straggler,
        faults: spec.faults,
        recovery: spec.recovery,
        threads: spec.engine.threads,
    };
    let mut rng = SimRng::seed_from(spec.seed ^ splits.len() as u64);
    let outcome = execute(&graph, &config, &mut rng).map_err(|e| format!("replay: {e}"))?;
    let t2 = Instant::now();
    {
        let mut spans = t.spans();
        spans.record("mapreduce.plan", parent, t0, t1);
        spans.record("runtime", parent, t1, t2);
    }
    let stage = outcome.stages.first().ok_or("replay: no stage")?;
    let overhead = outcome.setup_overhead + stage.schedule_overhead() + stage.wasted();
    if stage.schedule.max_task_duration().to_bits() != par.phases.map.to_bits()
        || overhead.to_bits() != par.scale_out_overhead.to_bits()
    {
        return Err("replayed runtime does not reproduce the engine's schedule".into());
    }
    count_runtime(t, &graph, &outcome);

    let mut other = spec.clone();
    other.engine.threads = flipped(spec.engine.threads, nproc);
    let run = try_run_scale_out(&other, mapper, reducer, splits)
        .map_err(|e| format!("replay at {} threads: {e}", other.engine.threads))?;
    if run.trace != *par {
        return Err(format!(
            "trace differs at {} engine threads",
            other.engine.threads
        ));
    }
    t.add(
        "mapreduce.reduce_input_bytes",
        run.reduce_input_bytes as f64,
    );
    Ok(run)
}

// ---------------------------------------------------------------- mr_paper

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MrJob {
    Qmc,
    WordCount,
    Sort,
    TeraSort,
}

const MR_JOBS: [(MrJob, &str); 4] = [
    (MrJob::Qmc, "qmc"),
    (MrJob::WordCount, "wordcount"),
    (MrJob::Sort, "sort"),
    (MrJob::TeraSort, "terasort"),
];

/// fig4's grid, then fig7's per-job fit.
pub struct MrPaper {
    seeds: Seeds,
    nproc: usize,
    points: Vec<(usize, u32)>,
    /// At the default seed: each point's speedup cell in the committed
    /// `results/fig4_<job>.csv`.
    reference: Option<Vec<String>>,
}

impl MrPaper {
    /// The workload at `seeds`. With `reference_root` (the default
    /// seed), each point's speedup is checked against the committed
    /// `results/fig4_<job>.csv` under it.
    ///
    /// # Errors
    ///
    /// Returns an error when a reference CSV is unreadable or lacks a
    /// grid point.
    pub fn new(
        seeds: Seeds,
        nproc: usize,
        reference_root: Option<&Path>,
    ) -> Result<MrPaper, String> {
        let points: Vec<(usize, u32)> = (0..MR_JOBS.len())
            .flat_map(|j| PAPER_SWEEP.iter().map(move |&n| (j, n)))
            .collect();
        let reference = match reference_root {
            None => None,
            Some(root) => {
                let mut columns = BTreeMap::new();
                for (_, name) in MR_JOBS {
                    let path = root.join(format!("results/fig4_{name}.csv"));
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    columns.insert(name, crate::golden::csv_column(&text, "n", "measured")?);
                }
                let cells = points
                    .iter()
                    .map(|&(j, n)| {
                        let name = MR_JOBS[j].1;
                        columns[name]
                            .get(&n.to_string())
                            .cloned()
                            .ok_or_else(|| format!("fig4_{name}.csv has no n = {n}"))
                    })
                    .collect::<Result<Vec<String>, String>>()?;
                Some(cells)
            }
        };
        Ok(MrPaper {
            seeds,
            nproc,
            points,
            reference,
        })
    }

    fn spec(&self, mut spec: JobSpec) -> JobSpec {
        spec.seed = self.seeds.spec;
        spec.engine.threads = 1;
        spec
    }

    /// One point through `ScalingSweep::run`, with timing wrappers as its
    /// spec and split closures.
    #[allow(clippy::too_many_arguments)]
    fn point<M, R>(
        &self,
        i: usize,
        n: u32,
        mapper: impl Fn() -> M,
        reducer: &R,
        job_spec: fn(u32) -> JobSpec,
        gen: impl Fn(u32) -> Vec<InputSplit<M::Input>>,
        trace: Option<&Trace>,
    ) -> (f64, Checked)
    where
        M: Mapper + Sync,
        M::Input: Sync,
        M::Key: Send,
        M::Value: Send,
        R: Reducer<Key = M::Key, Value = M::Value>,
    {
        let splits = |n: u32| {
            let s = datagen(trace, || gen(n));
            if let Some(t) = trace {
                t.add("mapreduce.records_in", records(&s));
            }
            s
        };
        let (secs, out) = time_point(trace, i, || {
            let mapper = mapper();
            let sweep = timed(trace, "mapreduce", || {
                ScalingSweep::run(
                    &[n],
                    &mapper,
                    reducer,
                    |n| timed(trace, "spec", || self.spec(job_spec(n))),
                    &splits,
                    &splits,
                )
            });
            (mapper, sweep)
        });
        let checked = out.and_then(|(mapper, sweep)| {
            let p = sweep.points.first().ok_or("empty sweep")?;
            check_mr_traces(&p.seq, &p.par, &p.measurement)?;
            if let Some(cells) = &self.reference {
                let got = crate::golden::csv_cell(p.measurement.speedup());
                if got != cells[i] {
                    return Err(format!(
                        "speedup {got} differs from the committed {}",
                        cells[i]
                    ));
                }
            }
            if let Some(t) = trace {
                let parent = t.find(i, "mapreduce").ok_or("no engine span")?;
                let spec = self.spec(job_spec(n));
                replay_scale_out(
                    t,
                    parent,
                    &spec,
                    &mapper,
                    reducer,
                    &gen(n),
                    &p.par,
                    self.nproc,
                )?;
            }
            Ok(measurement_values(&p.measurement))
        });
        (secs, checked)
    }
}

impl Workload for MrPaper {
    fn engine_threads(&self) -> usize {
        1
    }

    fn labels(&self) -> Vec<String> {
        self.points
            .iter()
            .map(|&(j, n)| format!("{}/n={n}", MR_JOBS[j].1))
            .collect()
    }

    fn warmup(&self) -> Vec<usize> {
        (0..MR_JOBS.len()).map(|j| j * PAPER_SWEEP.len()).collect()
    }

    fn run_point(&self, i: usize, trace: Option<&Trace>) -> (f64, Checked) {
        let (j, n) = self.points[i];
        let s = self.seeds;
        match MR_JOBS[j].0 {
            MrJob::Qmc => self.point(
                i,
                n,
                || qmc::QmcMapper,
                &qmc::QmcReducer,
                qmc::job_spec,
                qmc::make_splits,
                trace,
            ),
            MrJob::WordCount => self.point(
                i,
                n,
                wordcount::WordCountMapper::new,
                &wordcount::WordCountReducer,
                wordcount::job_spec,
                |n| wordcount::make_splits(n, s.wordcount),
                trace,
            ),
            MrJob::Sort => self.point(
                i,
                n,
                || sort::SortMapper,
                &sort::SortReducer,
                sort::job_spec,
                |n| sort::make_splits(n, s.sort),
                trace,
            ),
            MrJob::TeraSort => self.point(
                i,
                n,
                || terasort::TeraSortMapper,
                &terasort::TeraSortReducer,
                terasort::job_spec,
                |n| terasort::make_splits(n, s.terasort),
                trace,
            ),
        }
    }

    /// fig7's fit per job: TeraSort past its spill boundary (16..=64),
    /// the others on the first [`FIT_WINDOW`] degrees. The values are
    /// the fitted model's predictions over the grid.
    fn after_pass(
        &self,
        values: &[Option<Vec<f64>>],
        trace: Option<&Trace>,
    ) -> Vec<(String, Checked)> {
        MR_JOBS
            .iter()
            .enumerate()
            .map(|(j, &(job, name))| {
                let rows = &values[j * PAPER_SWEEP.len()..(j + 1) * PAPER_SWEEP.len()];
                let checked = rows
                    .iter()
                    .map(|v| v.as_deref().map(values_measurement))
                    .collect::<Option<Vec<RunMeasurement>>>()
                    .ok_or_else(|| "a grid point failed".to_string())
                    .and_then(|ms| {
                        let fit = timed(trace, "fit", || {
                            if job == MrJob::TeraSort {
                                ScalingPredictor::fit_range(&ms, 16, 64)
                            } else {
                                ScalingPredictor::fit(&ms, FIT_WINDOW)
                            }
                        })
                        .map_err(|e| format!("fit: {e}"))?;
                        PAPER_SWEEP
                            .iter()
                            .map(|&n| {
                                let s = fit
                                    .predict(f64::from(n))
                                    .map_err(|e| format!("predict: {e}"))?;
                                check_speedup(s).map(|()| s)
                            })
                            .collect()
                    });
                (format!("fit/{name}"), checked)
            })
            .collect()
    }
}

// --------------------------------------------------------------- mr_faults

/// `ablation_faults`' per-attempt failure probabilities; node crashes run
/// at a tenth of each.
const FAIL_PROBS: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];
/// `ablation_faults`' scale-out degrees.
const FAULT_NS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// `ablation_faults`' fault model and recovery policy at failure rate `p`.
fn fault_setting(p: f64) -> (FaultModel, RecoveryPolicy) {
    let mut faults = FaultModel::flaky(p);
    faults.node_crash_prob = p / 10.0;
    let mut recovery = RecoveryPolicy::hadoop_like().with_speculation();
    recovery.max_attempts = 8;
    (faults, recovery)
}

/// Checks a scale-out run's output against its input splits.
type OutputCheck<I, O> = fn(&[InputSplit<I>], &[O]) -> Result<(), String>;

/// `ablation_faults`' grid on Sort (light tasks) and QMC (heavy tasks).
pub struct MrFaults {
    seeds: Seeds,
    nproc: usize,
    /// `(is_qmc, fail_prob index, n)`.
    points: Vec<(bool, usize, u32)>,
}

impl MrFaults {
    /// The workload at `seeds`, engine at `nproc` threads.
    pub fn new(seeds: Seeds, nproc: usize) -> MrFaults {
        let points = [false, true]
            .into_iter()
            .flat_map(|q| {
                (0..FAIL_PROBS.len()).flat_map(move |p| FAULT_NS.iter().map(move |&n| (q, p, n)))
            })
            .collect();
        MrFaults {
            seeds,
            nproc,
            points,
        }
    }

    fn spec(&self, mut spec: JobSpec, p: f64) -> JobSpec {
        spec.seed = self.seeds.spec;
        spec.engine.threads = self.nproc;
        // p = 0 keeps the stock spec: no fault RNG draws at all.
        if p > 0.0 {
            (spec.faults, spec.recovery) = fault_setting(p);
        }
        spec
    }

    /// One paired scale-out + sequential run, as `ablation_faults` makes it.
    #[allow(clippy::too_many_arguments)]
    fn point<M, R>(
        &self,
        i: usize,
        n: u32,
        p: f64,
        mapper: &M,
        reducer: &R,
        job_spec: fn(u32) -> JobSpec,
        gen: impl Fn(u32) -> Vec<InputSplit<M::Input>>,
        check_output: OutputCheck<M::Input, R::Output>,
        trace: Option<&Trace>,
    ) -> (f64, Checked)
    where
        M: Mapper + Sync,
        M::Input: Sync,
        M::Key: Send,
        M::Value: Send,
        R: Reducer<Key = M::Key, Value = M::Value>,
        R::Output: PartialEq,
    {
        let (secs, out) = time_point(trace, i, || {
            let splits = datagen(trace, || gen(n));
            let spec = timed(trace, "spec", || self.spec(job_spec(n), p));
            let par = timed(trace, "mapreduce", || {
                try_run_scale_out(&spec, mapper, reducer, &splits)
            });
            let seq = timed(trace, "mapreduce", || {
                run_sequential(&spec, mapper, reducer, &splits)
            });
            (spec, splits, par, seq)
        });
        let checked = out.and_then(|(spec, splits, par, seq)| {
            let par = par.map_err(|e| format!("scale-out run: {e}"))?;
            let m = measurement_from_runs(&seq.trace, &par.trace);
            check_mr_traces(&seq.trace, &par.trace, &m)?;
            check_output(&splits, &par.output)?;
            if par.output != seq.output {
                return Err("scale-out and sequential outputs differ".into());
            }
            if let Some(t) = trace {
                t.add("mapreduce.records_in", 2.0 * records(&splits));
                let parent = t.find(i, "mapreduce").ok_or("no engine span")?;
                let other = replay_scale_out(
                    t, parent, &spec, mapper, reducer, &splits, &par.trace, self.nproc,
                )?;
                if other.output != par.output || other.reduce_input_bytes != par.reduce_input_bytes
                {
                    return Err("output differs across engine thread counts".into());
                }
            }
            Ok(measurement_values(&m))
        });
        (secs, checked)
    }
}

fn check_sorted(splits: &[InputSplit<String>], output: &[String]) -> Result<(), String> {
    let expected: usize = splits.iter().map(|s| s.records.len()).sum();
    if output.len() != expected || output.windows(2).any(|w| w[0] > w[1]) {
        return Err("sort output is unsorted or not as long as its input".into());
    }
    Ok(())
}

fn check_pi(_splits: &[InputSplit<qmc::QmcSlice>], output: &[f64]) -> Result<(), String> {
    match output {
        [pi] if (pi - std::f64::consts::PI).abs() < 1e-2 => Ok(()),
        _ => Err(format!("QMC output {output:?} is not an estimate of pi")),
    }
}

impl Workload for MrFaults {
    fn engine_threads(&self) -> usize {
        self.nproc
    }

    fn labels(&self) -> Vec<String> {
        self.points
            .iter()
            .map(|&(q, p, n)| {
                format!(
                    "{}/p={}/n={n}",
                    if q { "qmc" } else { "sort" },
                    FAIL_PROBS[p]
                )
            })
            .collect()
    }

    fn warmup(&self) -> Vec<usize> {
        vec![0, self.points.len() / 2]
    }

    fn run_point(&self, i: usize, trace: Option<&Trace>) -> (f64, Checked) {
        let (q, p, n) = self.points[i];
        let p = FAIL_PROBS[p];
        if q {
            self.point(
                i,
                n,
                p,
                &qmc::QmcMapper,
                &qmc::QmcReducer,
                qmc::job_spec,
                qmc::make_splits,
                check_pi,
                trace,
            )
        } else {
            let seed = self.seeds.sort;
            self.point(
                i,
                n,
                p,
                &sort::SortMapper,
                &sort::SortReducer,
                sort::job_spec,
                |n| sort::make_splits(n, seed),
                check_sorted,
                trace,
            )
        }
    }
}

// ------------------------------------------------------------ spark_faults

/// A Spark application constructor `job(problem_size, m)`.
type App = fn(u32, u32) -> SparkJobSpec;

const APPS: [(&str, App); 4] = [
    ("bayes", bayes::job),
    ("random_forest", random_forest::job),
    ("svm", svm::job),
    ("nweight", nweight::job),
];
/// fig9's executor counts and per-executor loads `N/m`.
const FIG9_MS: [u32; 9] = [1, 2, 4, 8, 16, 24, 32, 48, 64];
const FIG9_LOADS: [u32; 4] = [1, 2, 4, 8];
/// fig10's executor counts and problem sizes `N`.
const FIG10_MS: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256];
const FIG10_SIZES: [u32; 3] = [32, 64, 128];
/// Task failure rate of the faulted copy of every job.
const SPARK_FAIL_PROB: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
enum SparkKind {
    /// fig9: `sweep_fixed_time(app, load, [m])`.
    FixedTime { app: usize, load: u32 },
    /// fig10: `sweep_fixed_size(app, size, [m])`.
    FixedSize { app: usize, size: u32 },
    /// The join DAG through `run_dag`.
    Join { size: u32 },
}

#[derive(Debug, Clone, Copy)]
struct SparkPoint {
    kind: SparkKind,
    m: u32,
    faulted: bool,
}

/// fig9 + fig10 + the join DAG, each job fault-free and faulted.
pub struct SparkFaults {
    seeds: Seeds,
    nproc: usize,
    points: Vec<SparkPoint>,
    edges: Vec<(usize, usize)>,
}

impl SparkFaults {
    /// The workload at `seeds`, engine at `nproc` threads.
    pub fn new(seeds: Seeds, nproc: usize) -> SparkFaults {
        let mut points = Vec::new();
        for faulted in [false, true] {
            let mut push = |kind, m| points.push(SparkPoint { kind, m, faulted });
            for app in 0..APPS.len() {
                for load in FIG9_LOADS {
                    for m in FIG9_MS {
                        push(SparkKind::FixedTime { app, load }, m);
                    }
                }
            }
            for app in 0..APPS.len() {
                for size in FIG10_SIZES {
                    for m in FIG10_MS {
                        push(SparkKind::FixedSize { app, size }, m);
                    }
                }
            }
            for size in FIG10_SIZES {
                for m in FIG10_MS {
                    push(SparkKind::Join { size }, m);
                }
            }
        }
        SparkFaults {
            seeds,
            nproc,
            points,
            edges: join::job_edges(),
        }
    }

    fn spec(&self, mut spec: SparkJobSpec, faulted: bool) -> SparkJobSpec {
        spec.seed = self.seeds.spec;
        spec.engine.threads = self.nproc;
        if faulted {
            (spec.faults, spec.recovery) = fault_setting(SPARK_FAIL_PROB);
        }
        spec
    }

    /// The job a point runs, as its sweep's `make_job` builds it.
    fn job(&self, p: &SparkPoint) -> SparkJobSpec {
        let spec = match p.kind {
            SparkKind::FixedTime { app, load } => APPS[app].1(load * p.m, p.m),
            SparkKind::FixedSize { app, size } => APPS[app].1(size, p.m),
            SparkKind::Join { size } => join::job(size, p.m),
        };
        self.spec(spec, p.faulted)
    }

    /// Replays a Spark job outside the timed point: lowering + execute at
    /// the engine's thread count as stand-ins under `parent`, then the
    /// whole job at the other thread count, which must reproduce
    /// `total_time`.
    fn replay(
        &self,
        t: &Trace,
        parent: usize,
        spec: &SparkJobSpec,
        dag: bool,
        total_time: f64,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let graph = if dag {
            lower_levels(spec, &self.edges)?.0
        } else {
            lower_chain(spec)
        };
        let t1 = Instant::now();
        let config = RuntimeConfig {
            executors: spec.parallelism as usize,
            scheduler: spec.scheduler,
            policy: SchedulerPolicy::Fifo,
            straggler: spec.straggler,
            faults: spec.faults,
            recovery: spec.recovery,
            threads: spec.engine.threads,
        };
        let mut rng = SimRng::seed_from(
            spec.seed ^ (u64::from(spec.parallelism) << 32) ^ u64::from(spec.problem_size),
        );
        let outcome = execute(&graph, &config, &mut rng).map_err(|e| format!("replay: {e}"))?;
        let t2 = Instant::now();
        {
            let mut spans = t.spans();
            spans.record("spark.lower", parent, t0, t1);
            spans.record("runtime", parent, t1, t2);
        }
        count_runtime(t, &graph, &outcome);

        let mut other = spec.clone();
        other.engine.threads = flipped(spec.engine.threads, self.nproc);
        let run: SparkRun = if dag {
            run_dag(&other, &self.edges)?
        } else {
            try_run_job(&other).map_err(|e| e.to_string())?
        };
        if run.total_time.to_bits() != total_time.to_bits() {
            return Err(format!(
                "job time differs at {} engine threads",
                other.engine.threads
            ));
        }
        for s in &run.fault_summaries {
            s.check_invariants()
                .map_err(|e| format!("fault summary: {e}"))?;
        }
        if summaries_attempts(&run.fault_summaries) != outcome_attempts(&outcome) {
            return Err("replayed runtime does not reproduce the engine's attempts".into());
        }
        t.add("spark.eventlog_bytes", run.log.len() as f64);
        Ok(())
    }
}

impl Workload for SparkFaults {
    fn engine_threads(&self) -> usize {
        self.nproc
    }

    fn labels(&self) -> Vec<String> {
        self.points
            .iter()
            .map(|p| {
                let kind = match p.kind {
                    SparkKind::FixedTime { app, load } => {
                        format!("fig9/{}/load={load}", APPS[app].0)
                    }
                    SparkKind::FixedSize { app, size } => format!("fig10/{}/N={size}", APPS[app].0),
                    SparkKind::Join { size } => format!("join/N={size}"),
                };
                let faults = if p.faulted { "faulted" } else { "clean" };
                format!("{faults}/{kind}/m={}", p.m)
            })
            .collect()
    }

    fn warmup(&self) -> Vec<usize> {
        let half = self.points.len() / 2;
        vec![0, half - 1, half, self.points.len() - 1]
    }

    fn run_point(&self, i: usize, trace: Option<&Trace>) -> (f64, Checked) {
        let p = self.points[i];
        let make_job = |size: u32, m: u32| {
            let app = match p.kind {
                SparkKind::FixedTime { app, .. } | SparkKind::FixedSize { app, .. } => APPS[app].1,
                SparkKind::Join { .. } => join::job,
            };
            timed(trace, "spec", || self.spec(app(size, m), p.faulted))
        };
        let (secs, out) = time_point(trace, i, || {
            timed(trace, "spark", || match p.kind {
                SparkKind::FixedTime { load, .. } => sweep_fixed_time(make_job, load, &[p.m])
                    .first()
                    .map(|s| (s.speedup, s.total_time, s.overhead_time))
                    .ok_or_else(|| "empty sweep".to_string()),
                SparkKind::FixedSize { size, .. } => sweep_fixed_size(make_job, size, &[p.m])
                    .first()
                    .map(|s| (s.speedup, s.total_time, s.overhead_time))
                    .ok_or_else(|| "empty sweep".to_string()),
                SparkKind::Join { size } => {
                    let spec = make_job(size, p.m);
                    let run = run_dag(&spec, &self.edges)?;
                    for s in &run.fault_summaries {
                        s.check_invariants()
                            .map_err(|e| format!("fault summary: {e}"))?;
                    }
                    let seq = run_sequential_reference(&spec);
                    Ok((seq / run.total_time, run.total_time, run.overhead_time))
                }
            })
        });
        let checked = out.and_then(|r| r).and_then(|(speedup, total, overhead)| {
            check_speedup(speedup)?;
            if let Some(t) = trace {
                let parent = t.find(i, "spark").ok_or("no engine span")?;
                let dag = matches!(p.kind, SparkKind::Join { .. });
                self.replay(t, parent, &self.job(&p), dag, total)?;
            }
            Ok(vec![speedup, total, overhead])
        });
        (secs, checked)
    }
}

//! A sweep point whose sequential and scale-out runs share their splits
//! maps and reduces the records once and feeds both timing models. Its
//! traces, measurement and recorded timeline must equal those of
//! separate `run_scale_out` + `run_sequential` runs, bit for bit. A
//! fixed-size point, whose sequential run has its own splits, runs each
//! mode on its own and must match the separate runs too.

use ipso::measurement::RunMeasurement;
use ipso_cluster::JobTrace;
use ipso_mapreduce::measure::SweepPoint;
use ipso_mapreduce::{
    measurement_from_runs, run_scale_out, run_sequential, InputSplit, JobSpec, Mapper, Reducer,
    ScalingSweep,
};
use ipso_workloads::{qmc, sort, terasort, wordcount};

const NS: [u32; 3] = [1, 8, 64];

/// Every number of a trace, floats as their bit patterns.
fn trace_bits(t: &JobTrace) -> Vec<u64> {
    let p = &t.phases;
    let mut bits: Vec<u64> = [p.init, p.map, p.shuffle, p.merge, p.reduce]
        .iter()
        .chain([&t.scale_out_overhead])
        .map(|v| v.to_bits())
        .collect();
    bits.push(u64::from(t.n));
    for r in &t.tasks {
        bits.extend([
            u64::from(r.task_id),
            u64::from(r.executor),
            r.start.to_bits(),
            r.end.to_bits(),
        ]);
    }
    bits
}

fn measurement_bits(m: &RunMeasurement) -> Vec<u64> {
    let mut bits: Vec<u64> = [
        m.seq_parallel_work,
        m.seq_serial_work,
        m.par_map_time,
        m.par_serial_time,
        m.par_overhead,
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect();
    bits.push(u64::from(m.n));
    bits
}

fn assert_point_matches(point: &SweepPoint, par: &JobTrace, seq: &JobTrace, label: &str) {
    assert_eq!(&point.par, par, "{label}: scale-out trace");
    assert_eq!(&point.seq, seq, "{label}: sequential trace");
    assert_eq!(trace_bits(&point.par), trace_bits(par), "{label}: par bits");
    assert_eq!(trace_bits(&point.seq), trace_bits(seq), "{label}: seq bits");
    assert_eq!(
        measurement_bits(&point.measurement),
        measurement_bits(&measurement_from_runs(seq, par)),
        "{label}: measurement bits"
    );
}

/// Runs one point both ways inside a capture and checks traces,
/// measurement, timeline events and metrics all agree.
fn check_shared_path<M, R>(
    name: &str,
    mapper: &M,
    reducer: &R,
    spec: fn(u32) -> JobSpec,
    splits: impl Fn(u32) -> Vec<InputSplit<M::Input>>,
) where
    M: Mapper + Sync,
    M::Input: Sync,
    M::Key: Send,
    M::Value: Send,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    for n in NS {
        let label = format!("{name} n = {n}");
        let (sweep, shared) =
            ipso_obs::capture(|| ScalingSweep::run(&[n], mapper, reducer, spec, &splits, &splits));
        let ((par, seq), separate) = ipso_obs::capture(|| {
            let s = splits(n);
            let par = run_scale_out(&spec(n), mapper, reducer, &s).trace;
            let seq = run_sequential(&spec(n), mapper, reducer, &s).trace;
            (par, seq)
        });
        assert_eq!(sweep.points.len(), 1, "{label}");
        assert_point_matches(&sweep.points[0], &par, &seq, &label);
        assert_eq!(shared.events(), separate.events(), "{label}: events");
        assert_eq!(shared.metrics(), separate.metrics(), "{label}: metrics");
    }
}

#[test]
fn qmc_shared_path_matches_separate_runs() {
    check_shared_path(
        "qmc",
        &qmc::QmcMapper,
        &qmc::QmcReducer,
        qmc::job_spec,
        qmc::make_splits,
    );
}

#[test]
fn wordcount_shared_path_matches_separate_runs() {
    check_shared_path(
        "wordcount",
        &wordcount::WordCountMapper::new(),
        &wordcount::WordCountReducer,
        wordcount::job_spec,
        |n| wordcount::make_splits(n, 1),
    );
}

#[test]
fn sort_shared_path_matches_separate_runs() {
    check_shared_path(
        "sort",
        &sort::SortMapper,
        &sort::SortReducer,
        sort::job_spec,
        |n| sort::make_splits(n, 2),
    );
}

#[test]
fn terasort_shared_path_matches_separate_runs() {
    check_shared_path(
        "terasort",
        &terasort::TeraSortMapper,
        &terasort::TeraSortReducer,
        terasort::job_spec,
        |n| terasort::make_splits(n, 3),
    );
}

/// The fixed-size model: the sequential run is one task over the whole
/// working set, so the splits differ and each run keeps its own data path.
#[test]
fn fixed_size_point_runs_each_mode_on_its_own_splits() {
    let merged = |n: u32| {
        let parts = sort::make_splits(n, 2);
        let sample = parts.iter().map(|s| s.sample_bytes).sum();
        let nominal = parts.iter().map(|s| s.nominal_bytes).sum();
        let records = parts.into_iter().flat_map(|s| s.records).collect();
        vec![InputSplit::new(records, sample, nominal)]
    };
    for n in NS {
        let label = format!("fixed-size sort n = {n}");
        let sweep = ScalingSweep::run(
            &[n],
            &sort::SortMapper,
            &sort::SortReducer,
            sort::job_spec,
            |n| sort::make_splits(n, 2),
            merged,
        );
        let spec = sort::job_spec(n);
        let par = run_scale_out(
            &spec,
            &sort::SortMapper,
            &sort::SortReducer,
            &sort::make_splits(n, 2),
        )
        .trace;
        let mut seq =
            run_sequential(&spec, &sort::SortMapper, &sort::SortReducer, &merged(n)).trace;
        seq.n = n;
        assert_point_matches(&sweep.points[0], &par, &seq, &label);
    }
}

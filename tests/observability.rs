//! End-to-end tests of the observability layer across the engines:
//! event logs from instrumented runs still round-trip, the exported
//! timeline is structurally sound, and the overhead breakdown assembled
//! from the engines' gauges accounts for the measured `Wo(n)`.

use ipso::overhead_breakdown;
use ipso_obs::{MetricsSnapshot, SpanKind};
use ipso_spark::{parse_event_log, run_job};
use ipso_workloads::{bayes, terasort};

fn breakdown_from_gauges(metrics: &MetricsSnapshot, total: f64) -> ipso::OverheadBreakdown {
    overhead_breakdown(
        total,
        metrics.gauge("overhead.scheduling_s"),
        metrics.gauge("overhead.broadcast_s"),
        metrics.gauge("overhead.shuffle_wait_s"),
        metrics.gauge("overhead.straggler_tail_s"),
    )
}

#[test]
fn instrumented_spark_event_log_still_roundtrips() {
    let job = bayes::job(64, 16);
    let (run, records) = ipso_obs::capture(|| run_job(&job));
    let events = records.events();

    // The log written by the instrumented run parses exactly as before.
    let (stages, duration) = parse_event_log(&run.log).expect("instrumented log must parse");
    assert_eq!(stages.len(), run.stage_times.len());
    for (stage, time) in stages.iter().zip(&run.stage_times) {
        assert!(
            (stage.latency - time).abs() < 1e-9,
            "log latency {} != engine latency {time}",
            stage.latency
        );
    }
    assert!((duration.expect("app start/end present") - run.total_time).abs() < 1e-9);

    // And the instrumentation itself recorded driver spans per stage.
    let driver_spans = events
        .iter()
        .filter(|e| e.track == "driver" && matches!(e.kind, SpanKind::Complete { .. }))
        .count();
    assert!(
        driver_spans > run.stage_times.len(),
        "expected per-stage driver spans plus launch, got {driver_spans}"
    );
}

#[test]
fn uninstrumented_run_matches_instrumented_run() {
    let job = bayes::job(64, 16);
    let plain = run_job(&job);
    let (traced, _) = ipso_obs::capture(|| run_job(&job));
    assert_eq!(plain, traced, "tracing must not perturb the simulation");
}

#[test]
fn spark_overhead_gauges_sum_to_measured_overhead() {
    let (run, records) = ipso_obs::capture(|| run_job(&bayes::job(128, 32)));
    let b = breakdown_from_gauges(&records.metrics(), run.overhead_time);
    assert!(b.total > 0.0, "bayes at m = 32 must pay scale-out overhead");
    assert!(b.scheduling > 0.0);
    assert!(b.broadcast > 0.0, "bayes broadcasts its model every stage");
    assert!(
        (b.components_sum() - b.total).abs() < 1e-6,
        "components {} != total {}",
        b.components_sum(),
        b.total
    );
    // The named gauges alone explain the whole Wo: the residual is noise.
    assert!(
        b.other.abs() < 1e-6,
        "spark gauges left {} s unattributed",
        b.other
    );
}

#[test]
fn mapreduce_overhead_gauges_sum_to_trace_overhead() {
    let n = 8;
    let (run, records) = ipso_obs::capture(|| {
        ipso_mapreduce::run_scale_out(
            &terasort::job_spec(n),
            &terasort::TeraSortMapper,
            &terasort::TeraSortReducer,
            &terasort::make_splits(n, 3),
        )
    });
    let trace = run.trace;
    let b = breakdown_from_gauges(&records.metrics(), trace.scale_out_overhead);
    let events = records.events();

    assert!(b.total > 0.0);
    assert!(
        (b.components_sum() - b.total).abs() < 1e-6,
        "components {} != total {}",
        b.components_sum(),
        b.total
    );
    assert!(b.other.abs() < 1e-6);

    // The timeline covers the driver phases and every task.
    let task_spans = events
        .iter()
        .filter(|e| e.track.starts_with("executor-") && matches!(e.kind, SpanKind::Complete { .. }))
        .count();
    assert_eq!(task_spans as u32, n);
    let driver = ["init", "map", "shuffle", "merge", "reduce"];
    for name in driver {
        assert!(
            events.iter().any(|e| e.track == "driver" && e.name == name),
            "missing driver span {name:?}"
        );
    }
    // The run's config rode along on the trace.
    let config = trace.config.expect("scale-out runs record their config");
    assert_eq!(config.seed, terasort::job_spec(n).seed);
    assert_eq!(config.scheduler, terasort::job_spec(n).scheduler);
}

/// The idealized and no-straggler reference schedules are hypothetical
/// runs: only the real schedule's pool submits, dispatches and
/// `cluster.*` counters may land in the metrics. `bayes::job(64, 16)`
/// has 2 stages and 80 tasks.
#[test]
fn reference_schedules_are_not_counted_as_real_ones() {
    let job = bayes::job(64, 16);
    let tasks: u64 = job.stages.iter().map(|s| u64::from(s.tasks)).sum();
    assert_eq!((job.stages.len(), tasks), (2, 80));
    let chain: Vec<(usize, usize)> = (1..job.stages.len()).map(|k| (k - 1, k)).collect();
    let runs = [
        ("run_job", ipso_obs::capture(|| run_job(&job)).1),
        (
            "run_dag",
            ipso_obs::capture(|| ipso_spark::run_dag(&job, &chain).expect("chain dag")).1,
        ),
    ];
    for (entry, records) in runs {
        let m = records.metrics();
        let counts = [
            m.counter("cluster.wave_schedules"),
            m.counter("cluster.tasks_scheduled"),
            m.counter("sim.pool_submits"),
            m.counter("scheduler.dispatches"),
        ];
        assert_eq!(counts, [2, 80, 80, 80], "{entry}");
    }
}

/// A capture on one thread never sees an engine run on another thread
/// that is not recording, and that run records nothing: running both at
/// once leaves the capture with exactly what a solo run records.
#[test]
fn a_capture_is_isolated_from_runs_on_other_threads() {
    let job = bayes::job(64, 16);
    let (plain, solo) = ipso_obs::capture(|| run_job(&job));
    let start = std::sync::Barrier::new(2);
    let (run, records) = ipso_obs::capture(|| {
        std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                start.wait();
                let run = run_job(&job);
                (ipso_obs::enabled(), run)
            });
            start.wait();
            let run = run_job(&job);
            let (other_recording, other_run) = other.join().expect("other thread");
            assert!(!other_recording, "the other thread must not record");
            assert_eq!(other_run, plain);
            run
        })
    });
    assert_eq!(run, plain);
    assert_eq!(records.events(), solo.events());
    assert_eq!(records.metrics(), solo.metrics());
}

/// Inside a capture, an engine run fanned out over two host threads
/// yields exactly the records of the sequential run. The job is wide
/// enough (8 stages of 2048 tasks) that the runtime's grain rule fans
/// the stage schedules out.
#[test]
fn a_two_thread_run_records_what_a_sequential_run_records() {
    let collect = |threads: usize| {
        let mut job = ipso_spark::SparkJobSpec::emr("wide", 64, 16);
        for k in 0..8 {
            job = job.stage(
                ipso_spark::StageSpec::new(&format!("s{k}"), 2048)
                    .with_task_compute(0.1)
                    .with_shuffle_output(1024),
            );
        }
        job.engine.threads = threads;
        job.faults = ipso_cluster::FaultModel::flaky(0.05);
        job.recovery = job.recovery.with_speculation();
        let (run, records) = ipso_obs::capture(|| run_job(&job));
        (run, records.metrics(), records.into_events())
    };
    let sequential = collect(1);
    assert!(!sequential.2.is_empty());
    assert_eq!(collect(2), sequential);
}

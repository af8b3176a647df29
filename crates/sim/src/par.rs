//! Deterministic scoped-thread fan-out for the execution engines.
//!
//! The MapReduce engine executes its map tasks — and the cluster
//! runtime its per-stage wave schedules — on host threads, the way the
//! paper's clusters execute the split phase in parallel waves, but only
//! when the wave is heavy enough to pay for the fork-join. The first
//! item always runs on the calling thread and is timed; the rest fan out
//! only if that measurement says the remaining work beats the grain
//! (`fan_out_pays`), and otherwise finish in a plain sequential loop.
//!
//! Determinism is preserved by construction: work items are pure
//! functions of their index, workers claim indices off a shared atomic
//! counter (work stealing, so one slow task cannot serialize the wave
//! behind it), and each worker's `(index, result)` pairs are scattered
//! back into index order after the join. The output is therefore
//! byte-identical for every thread count and either side of the grain,
//! including `threads = 1`, which never times or spawns anything.
//!
//! This is the same pattern as the sweep runner in `ipso-bench`, pushed
//! down to the engine layer where individual jobs (not whole sweeps)
//! need it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sequential work that must remain, per worker, before a fan-out pays.
///
/// Measured on an otherwise idle 2-vCPU Linux container with a standalone
/// loop of `std::thread::scope` calls whose threads do nothing: the
/// fork-join costs 39–42 µs (p50) with one spawned thread and 61–78 µs
/// with two. With `w` workers a fan-out spawns `w − 1` threads and saves
/// at most `r · (w − 1) / w` of the remaining work `r`, so it breaks even
/// near `r = w × 40 µs`; the grain asks for about six times that.
const GRAIN_PER_WORKER: Duration = Duration::from_micros(250);

/// Resolves an engine thread-count knob: `0` means one worker per
/// available hardware thread, anything else is taken as-is.
///
/// The hardware count is read once per process: on Linux
/// `available_parallelism` reads the cgroup CPU quota from the file
/// system (26 µs a call on a 2-vCPU Linux container), more than a light
/// wave's whole work.
pub fn resolve_threads(threads: usize) -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    if threads == 0 {
        *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
    } else {
        threads
    }
}

/// The grain rule: whether a wave of `len` items, whose first item took
/// `first` on the calling thread, should fan its remaining `len − 1`
/// items out over up to `workers` threads.
///
/// It pays when the estimated remaining work `first × (len − 1)` reaches
/// `GRAIN_PER_WORKER` for each worker that would take part. Workers
/// beyond the remaining item count cannot help, and a single worker is
/// the sequential loop.
fn fan_out_pays(first: Duration, len: usize, workers: usize) -> bool {
    let remaining = len.saturating_sub(1);
    let workers = workers.min(remaining);
    workers > 1
        && first.as_nanos() * remaining as u128 >= GRAIN_PER_WORKER.as_nanos() * workers as u128
}

/// Runs `f(0), f(1), …, f(len - 1)` across up to `threads` workers and
/// returns the results in index order.
///
/// The determinism contract: as long as `f(i)` depends only on `i` (and
/// state it does not share mutably with other indices), the returned
/// vector is identical for every `threads` value. `threads = 0` uses one
/// worker per hardware thread; `threads = 1` (or `len <= 2`) runs the
/// plain sequential loop with no timing or synchronization at all.
/// Otherwise `f(0)` runs on the calling thread, and the rest fan out
/// over scoped threads (the calling thread among them) only when the
/// remaining work, estimated from that first item's wall time, reaches
/// 250 µs per worker.
///
/// # Panics
///
/// A panic inside `f` aborts the whole wave and propagates.
pub fn ordered_map_indexed<R, F>(threads: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // The first item runs alone, so at most `len - 1` workers share the
    // rest.
    let workers = resolve_threads(threads).min(len.saturating_sub(1)).max(1);
    if workers == 1 {
        return (0..len).map(f).collect();
    }

    let started = Instant::now();
    let first = f(0);
    if !fan_out_pays(started.elapsed(), len, workers) {
        return std::iter::once(first).chain((1..len).map(f)).collect();
    }

    let next = AtomicUsize::new(1);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= len {
                return done;
            }
            done.push((index, f(index)));
        }
    };
    let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut buffers = vec![claim()];
        // Join explicitly so a worker's panic payload survives instead
        // of the scope's generic "a scoped thread panicked".
        for handle in handles {
            match handle.join() {
                Ok(done) => buffers.push(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        buffers
    });

    let mut slots: Vec<Option<R>> = std::iter::once(Some(first))
        .chain((1..len).map(|_| None))
        .collect();
    for (index, result) in buffers.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("index not executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        // Heavier work at the front so completion order differs from
        // index order under a real scheduler.
        let expected: Vec<u64> = (0..64).map(|i| i * 3).collect();
        for threads in [1usize, 2, 3, 8] {
            let out = ordered_map_indexed(threads, 64, |i| {
                std::hint::black_box((0..(64 - i as u64) * 1000).sum::<u64>());
                i as u64 * 3
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn zero_resolves_to_hardware_threads() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn empty_and_singleton_inputs_are_fine() {
        let empty: Vec<u32> = ordered_map_indexed(4, 0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(ordered_map_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn single_thread_never_spawns() {
        // A non-Send-unfriendly sanity: with threads = 1 the closure runs
        // on the calling thread, so thread-id observations are uniform.
        let main_id = std::thread::current().id();
        let ids = ordered_map_indexed(1, 8, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == main_id));
    }

    #[test]
    fn light_waves_stay_on_the_calling_thread() {
        // Index 0 takes nanoseconds, so seven more like it are far below
        // the grain at any worker count: no thread is spawned.
        let main_id = std::thread::current().id();
        for threads in [2usize, 8] {
            let ids = ordered_map_indexed(threads, 8, |_| std::thread::current().id());
            assert!(ids.iter().all(|id| *id == main_id), "threads = {threads}");
        }
    }

    #[test]
    fn grain_rule_weighs_remaining_work_against_workers() {
        let grain = GRAIN_PER_WORKER;
        // Exactly the grain per worker fans out; a nanosecond less does not.
        assert!(fan_out_pays(grain, 3, 2));
        assert!(!fan_out_pays(grain - Duration::from_nanos(1), 3, 2));
        // More workers need proportionally more remaining work.
        assert!(fan_out_pays(grain / 2, 5, 2));
        assert!(!fan_out_pays(grain / 2, 5, 4));
        assert!(fan_out_pays(grain, 5, 4));
        // Workers are capped at the remaining item count: two items
        // leave one to run, which one worker does without a fork-join.
        assert!(!fan_out_pays(Duration::from_secs(1), 2, 8));
        assert!(fan_out_pays(grain, 3, 8));
        // One worker, or nothing left, never fans out.
        assert!(!fan_out_pays(Duration::from_secs(1), 100, 1));
        assert!(!fan_out_pays(Duration::from_secs(1), 1, 4));
        assert!(!fan_out_pays(Duration::from_secs(1), 0, 4));
        assert!(!fan_out_pays(Duration::ZERO, 1_000_000, 2));
    }

    /// Spins for one grain, so any wave of two or more such items at
    /// two or more workers fans out.
    fn past_the_grain() {
        let started = Instant::now();
        while started.elapsed() < GRAIN_PER_WORKER {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn heavy_waves_fan_out_and_keep_index_order() {
        let out = ordered_map_indexed(2, 6, |i| {
            past_the_grain();
            (i, std::thread::current().id())
        });
        assert_eq!(
            out.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(
            out[0].1,
            std::thread::current().id(),
            "index 0 runs on the caller"
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn heavy_wave_panics_propagate() {
        let _ = ordered_map_indexed(2, 6, |i| {
            past_the_grain();
            if i == 4 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = ordered_map_indexed(4, 8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}

//! A minimal work-stealing worker pool for embarrassingly parallel jobs.
//!
//! Experiment campaigns expand into many independent simulation jobs; this
//! module runs `f(0..n)` across a fixed set of `std::thread` workers that
//! *steal* job indices from a shared atomic counter. Results land in their
//! job's slot, so the returned vector is always in job order regardless of
//! which worker ran which job or in what order they finished — the foundation
//! of the runner's "parallel results are byte-identical to serial" guarantee.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers to use by default: the available hardware parallelism,
/// or 1 if it cannot be determined.
#[must_use]
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(i)` for every `i in 0..n` on `workers` threads and returns the
/// results in index order, invoking `progress(job, done, total)` after each
/// job completes (from the worker that ran it), where `done` is the number of
/// jobs finished so far including this one.
///
/// With `workers <= 1` the jobs run serially on the calling thread; the
/// results are identical either way because each job depends only on its
/// index. Panics in `f` propagate to the caller.
pub fn parallel_map_with_progress<T, F, P>(n: usize, workers: usize, f: F, progress: P) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize, usize, usize) + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n)
            .map(|i| {
                let v = f(i);
                progress(i, i + 1, n);
                v
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(v);
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress(i, finished, n);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index below n is executed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_progress(_: usize, _: usize, _: usize) {}

    #[test]
    fn results_are_in_job_order() {
        let out = parallel_map_with_progress(100, 8, |i| i * i, no_progress);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let job = |i: usize| i as u64 * 0x9e37_79b9;
        let serial = parallel_map_with_progress(37, 1, job, no_progress);
        let parallel = parallel_map_with_progress(37, 6, job, no_progress);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<u8> = parallel_map_with_progress(0, 4, |_| unreachable!(), no_progress);
        assert!(out.is_empty());
    }

    #[test]
    fn progress_reports_every_job() {
        let seen = AtomicUsize::new(0);
        let _ = parallel_map_with_progress(
            25,
            4,
            |i| i,
            |_, _, total| {
                assert_eq!(total, 25);
                seen.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }
}

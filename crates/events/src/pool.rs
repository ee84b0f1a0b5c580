//! A dependency-free worker pool for deterministic Monte-Carlo fan-out.
//!
//! The Monte-Carlo experiments of `rif-bench` run thousands of independent
//! encode → corrupt → decode trials (`rif_ldpc::analysis::page_trials`).
//! [`parallel_trials`] spreads them over
//! `std::thread::scope` workers while keeping the output *bit-identical*
//! for every thread count:
//!
//! * each trial is addressed by its index and must derive all randomness
//!   from that index (see [`crate::SimRng::stream`]), never from which
//!   worker runs it;
//! * results are collected by trial index, so the returned `Vec` is in
//!   trial order no matter how the scheduler interleaved the workers.
//!
//! Work is handed out through an atomic cursor (work stealing by index),
//! so a straggler trial — e.g. a decode hitting the iteration cap — does
//! not idle the other workers.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `trials` independent tasks on up to `threads` workers and returns
/// their results in trial order.
///
/// `task(i)` must be a pure function of the trial index `i` (plus shared
/// read-only captures); under that contract the output is identical for
/// every `threads` value, including 1 (which runs inline with no thread
/// spawn at all).
///
/// `threads == 0` is treated as 1. The pool never spawns more workers than
/// trials.
pub fn parallel_trials<T, F>(threads: usize, trials: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(trials);
    if workers <= 1 {
        return (0..trials).map(task).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= trials {
                        break;
                    }
                    local.push((i, task(i)));
                }
                local
            }));
        }
        for h in handles {
            for (i, v) in h.join().expect("worker thread panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every trial index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_trial_order() {
        let out = parallel_trials(4, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let run = |threads| {
            parallel_trials(threads, 64, |i| {
                let mut rng = SimRng::stream(7, i as u64);
                (0..100)
                    .map(|_| rng.next_u64())
                    .fold(0u64, u64::wrapping_add)
            })
        };
        let single = run(1);
        for threads in [2, 3, 8, 16] {
            assert_eq!(run(threads), single, "threads = {threads}");
        }
    }

    #[test]
    fn zero_threads_behaves_like_one() {
        assert_eq!(parallel_trials(0, 5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u32> = parallel_trials(8, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = parallel_trials(8, 1000, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn panics_in_workers_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_trials(4, 16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}

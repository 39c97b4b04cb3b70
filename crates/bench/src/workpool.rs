//! A bounded worker pool for trial and sweep execution.
//!
//! * **Bounded**: at most `threads` worker OS threads exist at any
//!   instant (callers size this against the host core count — see
//!   [`host_cores`]).
//! * **Greedy list scheduling**: workers claim jobs from one shared
//!   cursor, in job order; an idle worker takes the next unclaimed
//!   job, so a handful of slow cells cannot strand the rest of the
//!   pool.
//! * **Panic-isolated**: each job runs under `catch_unwind`; a
//!   panicking job yields `Err(panic message)` in its result slot and
//!   every other job still runs to completion.
//!
//! Results are returned **in job order** regardless of completion
//! order, so pooled execution aggregates exactly like a sequential
//! loop (proven by the runner's equality tests).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented))]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

/// Number of cores the host exposes (≥ 1).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One job's outcome: the value it produced, or the panic message that
/// killed it.
pub type JobResult<T> = Result<T, String>;

/// What one `run_jobs` call did, beyond the per-job results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker OS threads the call spawned in total.
    pub workers_spawned: usize,
    /// Peak number of worker threads alive at once — the
    /// oversubscription regression tests assert on this.
    pub peak_live_workers: usize,
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        // A worker panicking inside a job never holds these locks
        // (jobs run outside every critical section), but recover from
        // poisoning anyway rather than cascading the abort.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `jobs` across at most `threads` worker OS threads and returns
/// their results in job order. See the module docs for the scheduling
/// and panic contract. `on_done` fires on the calling thread as each
/// job finishes (completion order), with the job's index and result —
/// the sweep engine journals cells from this hook so an interrupted
/// run can resume.
pub fn run_jobs_with<T, F>(
    threads: usize,
    jobs: Vec<F>,
    mut on_done: impl FnMut(usize, &JobResult<T>),
) -> (Vec<JobResult<T>>, PoolStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n_jobs = jobs.len();
    if n_jobs == 0 {
        return (Vec::new(), PoolStats::default());
    }
    let n_workers = threads.max(1).min(n_jobs);
    // Each FnOnce is taken exactly once, by the worker whose cursor
    // claim returned its index.
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobResult<T>)>();

    let mut results: Vec<Option<JobResult<T>>> = (0..n_jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            let tx = tx.clone();
            let (slots, next, live, peak) = (&slots, &next, &live, &peak);
            scope.spawn(move || {
                let now_live = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now_live, Ordering::SeqCst);
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(idx) else { break };
                    let Some(job) = lock_or_recover(slot).take() else { continue };
                    let result = catch_unwind(AssertUnwindSafe(job)).map_err(panic_text);
                    if tx.send((idx, result)).is_err() {
                        break; // receiver gone: the caller bailed out
                    }
                }
                live.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(tx);
        // Coordinator: collect completions as they arrive (the
        // journaling hook), stash them for in-order return.
        for (idx, result) in rx {
            on_done(idx, &result);
            results[idx] = Some(result);
        }
    });
    let stats =
        PoolStats { workers_spawned: n_workers, peak_live_workers: peak.load(Ordering::SeqCst) };
    let out = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err("job was never executed (pool bug)".to_string())))
        .collect();
    (out, stats)
}

/// [`run_jobs_with`] without the completion hook.
pub fn run_jobs<T, F>(threads: usize, jobs: Vec<F>) -> (Vec<JobResult<T>>, PoolStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_jobs_with(threads, jobs, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..64).map(|i| move || i * 10).collect();
        let (results, stats) = run_jobs(4, jobs);
        let values: Vec<i32> = results.into_iter().map(|r| r.expect("no panics")).collect();
        assert_eq!(values, (0..64).map(|i| i * 10).collect::<Vec<_>>());
        assert!(stats.workers_spawned <= 4);
        assert!(stats.peak_live_workers <= 4);
    }

    #[test]
    fn pool_never_exceeds_the_thread_cap() {
        // 100 jobs, cap 3: the peak live-worker count (the
        // oversubscription regression measure) must respect the cap.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let live = &live;
                let peak = &peak;
                move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        let (results, stats) = run_jobs(3, jobs);
        assert_eq!(results.len(), 100);
        assert!(results.iter().all(Result::is_ok));
        assert!(stats.peak_live_workers <= 3, "{stats:?}");
        assert!(peak.load(Ordering::SeqCst) <= 3, "jobs saw >3 concurrent executions");
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..10)
            .map(|i| {
                let f: Box<dyn FnOnce() -> u32 + Send> = if i == 4 {
                    Box::new(|| panic!("boom in cell 4"))
                } else {
                    Box::new(move || i)
                };
                f
            })
            .collect();
        let (results, _) = run_jobs(2, jobs);
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                let msg = r.as_ref().expect_err("cell 4 must fail");
                assert!(msg.contains("boom in cell 4"), "{msg}");
            } else {
                assert_eq!(*r.as_ref().expect("other cells survive"), i as u32);
            }
        }
    }

    #[test]
    fn completion_hook_sees_every_job_exactly_once() {
        let mut seen = vec![0u32; 16];
        let jobs: Vec<_> = (0..16).map(|i| move || i).collect();
        let (results, _) = run_jobs_with(4, jobs, |idx, r| {
            assert!(r.is_ok());
            seen[idx] += 1;
        });
        assert_eq!(results.len(), 16);
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn zero_and_one_job_edges() {
        let (empty, stats) = run_jobs(8, Vec::<fn() -> u8>::new());
        assert!(empty.is_empty());
        assert_eq!(stats, PoolStats::default());
        let (one, stats) = run_jobs(8, vec![|| 7u8]);
        assert_eq!(one.len(), 1);
        assert_eq!(stats.workers_spawned, 1, "never more workers than jobs");
    }
}

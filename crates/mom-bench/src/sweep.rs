//! A small shared-queue thread pool for running experiment points
//! concurrently.
//!
//! The sweeps are embarrassingly parallel — every (kernel, ISA) pair owns
//! its own functional machine and timing consumers — so a mutex-guarded
//! iterator over the work list and one OS thread per core is all the
//! scheduling needed.  A panic in one item stops the queue: workers check
//! an abort flag before taking the next item, and the panic is re-raised
//! once every worker has stopped.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of worker threads to use: the available parallelism, capped by the
/// amount of work.
pub fn worker_count(work_items: usize) -> usize {
    let cores = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    cores.clamp(1, work_items.max(1))
}

/// Applies `f` to every item on a pool of `threads` workers, preserving
/// input order in the output.
///
/// Panics in `f` are propagated: if any worker panics, `parallel_map_with`
/// panics after all workers have stopped.
pub fn parallel_map_with<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let abort = AtomicBool::new(false);
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..threads {
            workers.push(scope.spawn(|| {
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    // Take one item at a time so long and short points
                    // balance.
                    let next = queue.lock().expect("work queue poisoned").next();
                    let Some((index, item)) = next else { break };
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))) {
                        Ok(value) => results
                            .lock()
                            .expect("result list poisoned")
                            .push((index, value)),
                        Err(payload) => {
                            // Stop the queue and re-raise from this worker so
                            // the panic reaches the caller via join().
                            abort.store(true, Ordering::Relaxed);
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
            }));
        }
        let mut panicked = None;
        for w in workers {
            if let Err(e) = w.join() {
                panicked = Some(e);
            }
        }
        if let Some(e) = panicked {
            std::panic::resume_unwind(e);
        }
    });
    if abort.load(Ordering::Relaxed) {
        unreachable!("an aborted run must re-raise the panic before this point");
    }
    let mut out = results.into_inner().expect("result list poisoned");
    out.sort_by_key(|(index, _)| *index);
    out.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map_with((0..100).collect(), 8, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map_with((0..257).collect::<Vec<_>>(), worker_count(257), |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map_with(vec![1, 2, 3], 1, |i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_count_is_bounded_by_work() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
    }

    #[test]
    fn propagates_panics_and_stops_the_queue() {
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            parallel_map_with((0..500).collect::<Vec<i32>>(), 2, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                // Items take long enough that the abort flag is visible well
                // before the surviving worker could drain the queue.
                std::thread::sleep(std::time::Duration::from_micros(200));
                if i <= 1 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
        // The abort flag keeps the surviving worker from draining the whole
        // queue after the panic (exact count depends on scheduling).
        assert!(
            ran.load(Ordering::Relaxed) < 500,
            "queue was fully drained despite a panic"
        );
    }
}

//! Pluggable parallel execution: the seam between algorithms that
//! *can* fan work out (view refresh, connector frontiers) and the
//! runtime that decides *how* (the serving layer's persistent worker
//! pool, or [`SerialExec`] when no pool is at hand).
//!
//! The contract is deliberately tiny — [`ParallelExec::run`] executes
//! `task(0)..task(n-1)`, in any order, on any threads, returning only
//! when every index has completed — so the trait stays object-safe and
//! implementations stay auditable. Panics in a task must propagate to
//! the caller of `run` (`SerialExec` does trivially, and the serving
//! runtime's `WorkerPool` does too).

/// Executes `n` independent tasks, possibly in parallel.
///
/// `run` must invoke `task(i)` exactly once for every `i in 0..n` and
/// return only after all invocations have completed. A panic in any
/// task must propagate to the caller.
pub trait ParallelExec: Sync {
    /// Runs `task(0)..task(n-1)` to completion.
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync));
}

/// Runs every task inline on the calling thread, in index order.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialExec;

impl ParallelExec for SerialExec {
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            task(i);
        }
    }
}

/// Spawns one scoped thread per task: the parallel executor for this
/// crate's tests, which have no persistent pool to hand.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ScopedThreads;

#[cfg(test)]
impl ParallelExec for ScopedThreads {
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || task(i))).collect();
            // surface the original payload, not scope()'s generic "a
            // scoped thread panicked"
            let mut payload = None;
            for handle in handles {
                if let Err(p) = handle.join() {
                    payload.get_or_insert(p);
                }
            }
            if let Some(p) = payload {
                std::panic::resume_unwind(p);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn serial_and_scoped_cover_every_index() {
        for exec in [&SerialExec as &dyn ParallelExec, &ScopedThreads] {
            for n in [0usize, 1, 2, 7] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                exec.run(n, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn scoped_exec_propagates_panics() {
        ScopedThreads.run(3, &|i| {
            if i == 2 {
                panic!("task boom");
            }
        });
    }
}

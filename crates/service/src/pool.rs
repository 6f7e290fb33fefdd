//! The persistent worker pool behind steady-state serving parallelism.
//!
//! Before this pool, every parallel moment in the serving runtime paid
//! a thread spawn: `execute_anchored` scattered per-partition queries
//! on a `thread::scope`, each publish's view refresh spawned per DAG
//! level, and partitioned connector maintenance spawned per bucket.
//! Spawns cost tens of microseconds plus a page-faulting stack —
//! visible at read p99 and paid once per query per partition.
//!
//! [`WorkerPool`] replaces all of it: a fixed set of threads created
//! once per engine, parked on a condvar when idle, fed jobs through an
//! injector queue. It implements [`ParallelExec`], so the refresh DAG,
//! connector frontier work and the query scatter all share one pool — zero thread spawns in steady-state serving (asserted through
//! [`WorkerPool::dispatches`] in tests).
//!
//! The caller of [`WorkerPool::run`] *helps*: it claims task indices
//! alongside the workers rather than blocking, which both uses the
//! caller's core and makes nested `run` calls (a refresh task that
//! itself scatters) deadlock-free — a nested call's tasks can always
//! be claimed by its own caller even if every pool thread is busy.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use kaskade_graph::ParallelExec;

/// One batch of `n` index-addressed tasks pushed to the pool.
///
/// `task` is a lifetime-erased pointer to the caller's closure. This is
/// sound because [`WorkerPool::run`] does not return until all `n`
/// completions are counted, and a claim is only acted on when
/// `fetch_add` returned an index `< n` — a stale `Arc<Job>` held by a
/// late worker can only observe exhausted claims and never
/// dereferences `task` again.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    done: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// Safety: `task` points at a `Sync` closure; all other fields are
// atomics/locks. The raw pointer's validity window is enforced by
// `run` as described on the struct.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs tasks until the claim space is exhausted;
    /// returns how many tasks this call executed.
    fn work(&self) -> u64 {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return ran;
            }
            ran += 1;
            // Safety: i < n, so `run` is still blocked in its
            // completion wait and the closure is alive.
            let task = unsafe { &*self.task };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            *done += 1;
            if *done == self.n {
                self.all_done.notify_all();
            }
        }
    }

    /// Blocks until every task has completed.
    fn wait_done(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while *done < self.n {
            done = self.all_done.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
}

struct PoolQueue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

/// A fixed-size persistent thread pool implementing [`ParallelExec`].
/// See the module docs for the design; see [`WorkerPool::dispatches`]
/// and [`WorkerPool::tasks_run`] for the observability counters.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    dispatches: AtomicU64,
    tasks_run: Arc<AtomicU64>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads.len())
            .field("dispatches", &self.dispatches())
            .field("tasks_run", &self.tasks_run())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` worker threads (clamped to at least
    /// one). These are the only threads the pool will ever create; all
    /// later parallelism is park/unpark.
    pub fn new(threads: usize) -> Arc<WorkerPool> {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let tasks_run = Arc::new(AtomicU64::new(0));
        let threads = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let tasks_run = Arc::clone(&tasks_run);
                std::thread::Builder::new()
                    .name(format!("kaskade-pool-{i}"))
                    .spawn(move || worker_loop(&shared, &tasks_run))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            threads,
            dispatches: AtomicU64::new(0),
            tasks_run,
        })
    }

    /// A pool sized for the machine: available parallelism minus one
    /// (the submitting thread helps), at least one.
    pub fn with_default_threads() -> Arc<WorkerPool> {
        let cores = std::thread::available_parallelism().map_or(2, |p| p.get());
        WorkerPool::new(cores.saturating_sub(1).max(1))
    }

    /// Number of worker threads (excluding helping callers).
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Batches dispatched through [`ParallelExec::run`] since creation
    /// (single-task batches run inline and are not counted).
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Tasks executed *by pool worker threads* (claims made by helping
    /// callers are not counted) since creation.
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run.load(Ordering::Relaxed)
    }

    /// Runs `f(0)..f(n-1)` on the pool and returns the results in index
    /// order.
    pub fn map<T: Send>(&self, n: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run(n, &|i| {
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(f(i));
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every pool task completed")
            })
            .collect()
    }
}

fn worker_loop(shared: &PoolShared, tasks_run: &AtomicU64) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.jobs.front() {
                    if job.next.load(Ordering::Relaxed) >= job.n {
                        // exhausted claim space: retire it
                        queue.jobs.pop_front();
                        continue;
                    }
                    break Some(Arc::clone(job));
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let ran = job.work();
        tasks_run.fetch_add(ran, Ordering::Relaxed);
    }
}

impl ParallelExec for WorkerPool {
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        match n {
            0 => return,
            1 => {
                task(0);
                return;
            }
            _ => {}
        }
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        // Erase the closure's lifetime so the job can sit in the
        // injector queue. Safety: `run` blocks in `wait_done` until
        // every task completed, outliving every dereference (see Job).
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(task as *const _) };
        let job = Arc::new(Job {
            task: erased,
            n,
            next: AtomicUsize::new(0),
            done: Mutex::new(0),
            all_done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.jobs.push_back(Arc::clone(&job));
        }
        self.shared.work_ready.notify_all();
        // the caller helps: it claims indices alongside the workers, so
        // a nested run() from inside a pool task cannot deadlock
        job.work();
        job.wait_done();
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn covers_every_index_across_park_unpark_cycles() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let n = 1 + (round % 7) as usize;
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            pool.run(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            // let workers park between rounds so the wakeup path is
            // exercised, not just the hot queue
            if round % 10 == 9 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        assert!(pool.dispatches() > 0);
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = WorkerPool::new(1); // one worker: nesting must self-help
        let total = AtomicU32::new(0);
        let pool_ref = &*pool;
        pool.run(3, &|_| {
            pool_ref.run(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 12);
    }

    #[test]
    #[should_panic(expected = "pool task boom")]
    fn panics_propagate_to_the_dispatcher() {
        let pool = WorkerPool::new(2);
        pool.run(8, &|i| {
            if i == 5 {
                panic!("pool task boom");
            }
        });
    }

    #[test]
    fn drop_joins_all_threads() {
        let before = count_process_threads();
        {
            let pool = WorkerPool::new(4);
            pool.run(16, &|_| {});
            assert_eq!(pool.threads(), 4);
        }
        // after drop the worker threads must be gone
        let after = count_process_threads();
        assert!(
            after <= before,
            "pool drop leaked threads: {before} -> {after}"
        );
    }

    /// Thread count of the current process via /proc (Linux CI); falls
    /// back to 0 == 0 elsewhere.
    fn count_process_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
    }

    #[test]
    fn single_task_runs_inline_without_dispatch() {
        let pool = WorkerPool::new(2);
        let before = pool.dispatches();
        let hit = AtomicU32::new(0);
        pool.run(1, &|i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        assert_eq!(pool.dispatches(), before);
    }
}

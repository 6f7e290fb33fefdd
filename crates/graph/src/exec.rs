//! Pluggable parallel execution: the seam between graph-level
//! algorithms that *can* fan work out (CSR assembly, column clones)
//! and the runtime that decides *how* (the serving layer's persistent
//! worker pool, or [`SerialExec`] when no pool is at hand).
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

    /// How many tasks can make progress at once — the chunk-count hint
    /// for range-parallel algorithms. Defaults to the machine's
    /// available parallelism.
    fn parallelism(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }
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

    fn parallelism(&self) -> usize {
        1
    }
}

/// Splits `len` items into at most `parts` contiguous ranges of
/// near-equal size (never empty unless `len == 0`). The unit of work
/// distribution for range-parallel graph algorithms: each range maps
/// to one [`ParallelExec::run`] index.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        out.push(start..start + size);
        start += size;
    }
    out
}

/// A `*mut T` window over a slice that lets multiple workers write
/// **disjoint** regions concurrently (CSR fill, column scatter).
///
/// # Safety contract
/// Callers must guarantee that no two concurrent `write`/`slice_mut`
/// calls touch overlapping indices and that the underlying slice
/// outlives every use. Both fill loops in this crate derive their
/// regions from exclusive prefix sums, which partition the index space
/// by construction.
pub(crate) struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

// Safety: see the struct docs — disjointness is the caller's contract.
unsafe impl<T: Send> Sync for SharedSlice<T> {}
unsafe impl<T: Send> Send for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    pub(crate) fn new(slice: &mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and not concurrently accessed.
    #[inline]
    pub(crate) unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).write(value) };
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

    #[test]
    fn chunk_ranges_partition_exactly() {
        for (len, parts) in [(0usize, 3usize), (1, 4), (10, 3), (10, 1), (7, 7), (3, 8)] {
            let ranges = chunk_ranges(len, parts);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous");
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, len);
            assert!(ranges.len() <= parts.max(1));
        }
    }

    #[test]
    fn shared_slice_disjoint_writes_land() {
        let mut data = vec![0u32; 64];
        let shared = SharedSlice::new(&mut data);
        ScopedThreads.run(4, &|w| {
            for i in (w * 16)..(w * 16 + 16) {
                // Safety: each worker owns a disjoint 16-element range.
                unsafe { shared.write(i, i as u32) };
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }
}

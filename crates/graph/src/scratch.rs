//! Take-and-return recycling of the transient buffers behind CSR
//! rebuilds and compaction.
//!
//! Every [`GraphEditor::finish`](crate::GraphEditor::finish) and every
//! [`Graph::compact`](crate::Graph::compact) needs a handful of
//! throwaway `Vec<u32>` cursors sized O(V). On a serving write path
//! that publishes thousands of epochs, reallocating (and faulting in)
//! those buffers per publish is measurable churn; recycling them keeps
//! the allocator out of the hot loop entirely.
//!
//! The pool is a small process-wide stack of buffers behind a `Mutex`
//! — taken at the start of a rebuild, cleared and returned at the end.
//! Contention is no concern: the lock is held for a push/pop, and each
//! engine has exactly one writer thread doing rebuilds. The pool is
//! bounded (both in buffer count and per-buffer capacity) so a one-off
//! giant rebuild cannot pin its peak allocation forever.

use std::sync::Mutex;

/// Buffers kept per pool slot; more rebuilds in flight than this just
/// allocate fresh.
const POOL_DEPTH: usize = 8;

/// Buffers with more capacity than this many elements are dropped on
/// return instead of pooled (≈ 64 MiB of `u32` — a one-off spike
/// should not be pinned forever).
const MAX_POOLED_CAPACITY: usize = 16 << 20;

/// A bounded stack of recyclable `Vec<u32>` buffers.
struct U32Pool(Mutex<Vec<Vec<u32>>>);

impl U32Pool {
    const fn new() -> Self {
        U32Pool(Mutex::new(Vec::new()))
    }

    fn take(&self, capacity: usize) -> Vec<u32> {
        let mut pool = self.0.lock().unwrap_or_else(|e| e.into_inner());
        match pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => Vec::with_capacity(capacity),
        }
    }

    fn give(&self, buf: Vec<u32>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let mut pool = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_DEPTH {
            pool.push(buf);
        }
    }

    #[cfg(test)]
    fn depth(&self) -> usize {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// The process-wide pool behind [`take_u32`] / [`give_u32`].
static U32_POOL: U32Pool = U32Pool::new();

/// Takes a cleared `Vec<u32>` with at least `capacity` spare capacity,
/// reusing a pooled buffer when one is available.
pub(crate) fn take_u32(capacity: usize) -> Vec<u32> {
    U32_POOL.take(capacity)
}

/// Returns a buffer to the pool for the next rebuild.
pub(crate) fn give_u32(buf: Vec<u32>) {
    U32_POOL.give(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    // each test drives a pool of its own: the process-wide pool is
    // shared with every other test that rebuilds a graph concurrently

    #[test]
    fn buffers_recycle_through_the_pool() {
        let pool = U32Pool::new();
        let mut buf = pool.take(100);
        buf.extend(0..100);
        let ptr = buf.as_ptr();
        pool.give(buf);
        // the very next take of a fitting size reuses the allocation
        let again = pool.take(50);
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.is_empty());
        pool.give(again);
    }

    #[test]
    fn oversized_and_empty_buffers_are_not_pooled() {
        let pool = U32Pool::new();
        pool.give(Vec::new()); // no capacity: dropped silently
        let depth_before = pool.depth();
        let huge = Vec::with_capacity(MAX_POOLED_CAPACITY + 1);
        pool.give(huge);
        assert_eq!(pool.depth(), depth_before);
    }
}

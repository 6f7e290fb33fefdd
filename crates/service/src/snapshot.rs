//! Epoch-published snapshots and the cell readers load them from.
//!
//! The writer publishes a fresh [`EpochSnapshot`] after each applied
//! write batch; readers observe state only through `Arc<EpochSnapshot>`
//! handles, so a reader's entire query — planning, view lookup,
//! execution — runs against one internally consistent state no matter
//! how many batches land meanwhile (snapshot isolation).
//!
//! The hot read path is lock-free in the steady state: a [`Reader`]
//! caches the `Arc` it last loaded and revalidates it with a single
//! atomic epoch load per query; it touches the [`SnapshotCell`]'s lock
//! only on the query *after* a publish, to swap in the new `Arc`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use kaskade_core::Snapshot;
use kaskade_graph::ExternalIdTable;

/// An immutable published state: the core read state (base graph, view
/// catalog, statistics) tagged with the epoch that produced it. Epoch 0
/// is the initial state; each applied write batch increments it.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Monotonic publish counter.
    pub epoch: u64,
    /// The read state of this epoch.
    pub state: Snapshot,
    /// The external-id bindings as of this epoch — the table `id(v) =
    /// <ext>` anchors resolve through. Shared, not copied: the writer
    /// clones the table only on epochs that changed it.
    pub extids: Arc<ExternalIdTable>,
}

/// The single-writer, many-reader publication point.
///
/// Readers call [`SnapshotCell::load`] (or go through a cached
/// [`Reader`]); the engine's writer worker is the only publisher
/// (`publish` is crate-private). The epoch counter is stored separately
/// from the slot so readers can detect staleness with one atomic load.
#[derive(Debug)]
pub struct SnapshotCell {
    epoch: AtomicU64,
    slot: RwLock<Arc<EpochSnapshot>>,
}

impl SnapshotCell {
    /// Publishes `state` as epoch 0 with no external-id bindings.
    pub fn new(state: Snapshot) -> Self {
        Self::with_snapshot(EpochSnapshot {
            epoch: 0,
            state,
            extids: Arc::new(ExternalIdTable::new()),
        })
    }

    /// Publishes `first` as the initial snapshot — how recovery resumes
    /// the epoch counter (and external-id table) from where the durable
    /// log left off.
    pub fn with_snapshot(first: EpochSnapshot) -> Self {
        SnapshotCell {
            epoch: AtomicU64::new(first.epoch),
            slot: RwLock::new(Arc::new(first)),
        }
    }

    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot. Takes the slot lock briefly to clone the
    /// `Arc`; query execution then proceeds without any locking.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        self.slot.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Atomically publishes `state` as the next epoch and returns it. The slot is
    /// swapped before the epoch counter is bumped, so a reader that
    /// observes the new epoch always loads the new slot.
    pub(crate) fn publish(&self, state: Snapshot, extids: Arc<ExternalIdTable>) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        let epoch = slot.epoch + 1;
        *slot = Arc::new(EpochSnapshot {
            epoch,
            state,
            extids,
        });
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }
}

/// A per-thread read handle with a cached snapshot.
///
/// [`Reader::snapshot`] costs one atomic load while the cached epoch is
/// current — no lock, no `Arc` refcount traffic — and refreshes from
/// the cell only after a publish. Create one per reader thread with
/// `Engine::reader`.
#[derive(Debug, Clone)]
pub struct Reader {
    cell: Arc<SnapshotCell>,
    cached: Arc<EpochSnapshot>,
}

impl Reader {
    pub(crate) fn new(cell: Arc<SnapshotCell>) -> Self {
        let cached = cell.load();
        Reader { cell, cached }
    }

    /// The current snapshot (revalidated against the publish epoch).
    pub fn snapshot(&mut self) -> &Arc<EpochSnapshot> {
        if self.cell.epoch() != self.cached.epoch {
            self.cached = self.cell.load();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_graph::{GraphBuilder, Schema};

    fn empty_state() -> Snapshot {
        Snapshot::new(GraphBuilder::new().finish(), Schema::provenance())
    }

    #[test]
    fn publish_bumps_epoch_and_swaps_slot() {
        let cell = SnapshotCell::new(empty_state());
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.load().epoch, 0);
        let e = cell.publish(empty_state(), Arc::new(ExternalIdTable::new()));
        assert_eq!(e, 1);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.load().epoch, 1);
    }

    #[test]
    fn poisoned_slot_lock_recovers() {
        // the slot holds a plain `Arc` swap — always valid — so a
        // panicked reader must not take the publication point down
        let cell = SnapshotCell::new(empty_state());
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cell.slot.write().unwrap();
                panic!("poison the snapshot slot");
            })
            .join()
        });
        assert!(poisoner.is_err(), "the poisoning thread panicked");
        assert_eq!(cell.load().epoch, 0);
        assert_eq!(
            cell.publish(empty_state(), Arc::new(ExternalIdTable::new())),
            1
        );
        assert_eq!(cell.load().epoch, 1);
    }

    #[test]
    fn reader_revalidates_on_publish_only() {
        let cell = Arc::new(SnapshotCell::new(empty_state()));
        let mut r = Reader::new(cell.clone());
        let first = Arc::clone(r.snapshot());
        // unchanged epoch: the very same Arc is reused
        assert!(Arc::ptr_eq(&first, r.snapshot()));
        cell.publish(empty_state(), Arc::new(ExternalIdTable::new()));
        let second = Arc::clone(r.snapshot());
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.epoch, 1);
    }
}

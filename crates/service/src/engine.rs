//! The serving engine: concurrent readers over epoch-published
//! snapshots, a single background writer applying delta batches.
//!
//! ```text
//!            submit(delta)                 publish(epoch+1)
//!  clients ───────────────► queue ─► writer worker ─► SnapshotCell
//!                                   (merge batch,         │ load
//!                                    apply, refresh   ▼
//!                                    views on the     Arc<EpochSnapshot>
//!                                    pool)                │
//!  readers ◄──────────────────────────────────────────────┘
//!           execute(): plan-cache lookup → (miss: memoized enumerate
//!                      → rewrite/cost) → plan_target → pattern match
//!                      (scattered over partitions) → relational stage
//! ```
//!
//! Readers never block writers and writers never block readers: queries
//! run against an immutable `Arc<EpochSnapshot>`, and the writer builds
//! the successor state off to the side before atomically publishing it.
//!
//! There is one graph, one write path and one read path for every
//! partition count: the writer applies each batch with
//! [`Snapshot::with_delta_report`] and compacts with
//! [`Snapshot::compact`]. With [`EngineConfig::partitioner`] over N > 1
//! partitions, connector refresh splits its frontier work by partition
//! and reads scatter pattern matching across the partitions on the
//! worker pool (see [`crate::shard`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kaskade_core::{
    DdlOp, DeltaError, GraphDelta, Kaskade, KaskadeError, Partition, RefreshOptions, Snapshot,
};
use kaskade_graph::{ExternalIdTable, Graph, IdRemap, VertexId};
use kaskade_query::{execute_with_pattern, PatternPlan, Query, Table};

use crate::metrics::{Metrics, MetricsReport};
use crate::plan_cache::{plan_key, PlanCache};
use crate::pool::WorkerPool;
use crate::shard::{scatter_gather, HashPartitioner, Partitioner};
use crate::snapshot::{EpochSnapshot, Reader, SnapshotCell};
use crate::trace::{Stage, Tracer};
use crate::wal::{Wal, WalConfig};

/// Tuning knobs of the [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum number of queued deltas merged into one apply+publish
    /// cycle. Larger batches amortize view refresh and stats
    /// recomputation; smaller batches reduce refresh lag.
    pub max_batch: usize,
    /// Capacity of the delta queue. When the writer worker falls this
    /// far behind, [`Engine::submit`] fails fast with
    /// [`SubmitError::Backpressure`] instead of buffering without
    /// bound; rejected submissions are counted in
    /// [`MetricsReport::deltas_backpressured`].
    pub queue_capacity: usize,
    /// Dead-slot fraction of total id-slot capacity (vertex + edge
    /// slots) above which the writer runs **slot compaction** after a
    /// publish: dead slots are dropped, live ids renumber densely, and
    /// the compacted state publishes as a fresh epoch — the fence
    /// behind which queued deltas built against older epochs are
    /// rebased through the recorded [`IdRemap`]s. Default `0.5`, which
    /// bounds total slot capacity at ~2× the live element count under
    /// any churn; `f64::INFINITY` disables compaction.
    pub compact_dead_ratio: f64,
    /// The tracing subsystem (spans + flight recorder + slow-query
    /// log) this engine reports into. `None` creates a private disabled
    /// tracer — instrumented sites then cost one relaxed atomic load.
    pub tracer: Option<Arc<Tracer>>,
    /// Worker threads of the engine's persistent [`WorkerPool`] (view
    /// refresh, connector frontier work and query scatter all run on
    /// it — steady-state serving never spawns a thread). `0` sizes
    /// the pool to the machine: available parallelism minus the
    /// helping caller.
    pub pool_threads: usize,
    /// Durability: when set, the writer appends one epoch-tagged WAL
    /// record per merged batch **before** publishing it and
    /// checkpoints the full state every
    /// [`WalConfig::checkpoint_every`] batches. [`Engine::recover`]
    /// restores the latest checkpoint + log on restart. `None` (the
    /// default) serves purely in memory.
    pub wal: Option<WalConfig>,
    /// The vertex partitioner, and with it the partition count. One
    /// partition (the default) runs every read and refresh inline or
    /// level-parallel; N > 1 splits connector frontier work and
    /// pattern-match anchor scans into one pool task per partition.
    /// The graph, the write path and every result are the same for any
    /// partition count.
    pub partitioner: Arc<dyn Partitioner>,
    /// Minimum vertex count of a query's target graph before pattern
    /// matching scatters across the partitions. Below it the pattern
    /// executes inline on the calling thread (identical result — an
    /// unrestricted anchor scan over the same global graph), because
    /// the pool dispatch would otherwise dominate trivial matches. Set
    /// 0 to always scatter. Ignored with one partition.
    pub scatter_min_vertices: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 64,
            queue_capacity: 1024,
            compact_dead_ratio: 0.5,
            tracer: None,
            pool_threads: 0,
            wal: None,
            partitioner: Arc::new(HashPartitioner::new(1)),
            scatter_min_vertices: 512,
        }
    }
}

impl EngineConfig {
    /// Default tuning with hash partitioning over `shards` partitions.
    pub fn hash(shards: usize) -> Self {
        EngineConfig {
            partitioner: Arc::new(HashPartitioner::new(shards)),
            ..EngineConfig::default()
        }
    }
}

/// Per-submit options of [`Engine::submit`].
///
/// The default (`SubmitOpts::default()`) means "my delta's ids are in
/// the id space of the currently published snapshot" — the common case
/// for clients that just loaded a snapshot, resolved ids, and submit
/// immediately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOpts {
    /// Epoch of the snapshot the delta's existing-vertex ids were
    /// resolved against. If slot compactions have renumbered ids since
    /// that epoch, the writer rebases the delta through the recorded
    /// remaps before applying it — in-flight writes survive compaction
    /// without the client ever seeing the renumbering. `None` means
    /// the currently published epoch.
    pub based_on: Option<u64>,
}

impl SubmitOpts {
    /// Options for a delta whose ids were resolved against the snapshot
    /// published at `epoch`.
    pub fn based_on(epoch: u64) -> Self {
        SubmitOpts {
            based_on: Some(epoch),
        }
    }
}

/// Compaction never fires below this many dead slots, whatever the
/// ratio: renumbering a toy graph to reclaim a handful of slots would
/// churn client-visible ids for no measurable memory win.
const COMPACT_MIN_DEAD_SLOTS: usize = 8;

/// The compaction policy: total dead slots (vertex + edge) at or above
/// `dead_ratio` of total slot capacity, with the absolute
/// [`COMPACT_MIN_DEAD_SLOTS`] floor.
fn should_compact(g: &kaskade_graph::Graph, dead_ratio: f64) -> bool {
    let dead = (g.vertex_slots() - g.vertex_count()) + (g.edge_slots() - g.edge_count());
    let total = g.vertex_slots() + g.edge_slots();
    dead >= COMPACT_MIN_DEAD_SLOTS && dead as f64 >= dead_ratio * total as f64
}

/// Total id-slot capacity of a graph (live + dead, vertices + edges) —
/// what compaction shrinks and the `slots_reclaimed` metric measures.
fn slot_capacity(g: &kaskade_graph::Graph) -> usize {
    g.vertex_slots() + g.edge_slots()
}

/// The remaps of recent compactions, kept by the writer loop so deltas
/// that were queued (or built) against pre-compaction epochs can be
/// rebased into the current id space at apply time. Bounded: after
/// [`MAX_REMAP_HISTORY`] further compactions a stale delta can no
/// longer be rebased and is rejected instead of silently aliasing
/// reused ids — in practice a delta would have to sit in the bounded
/// queue across eight compaction cycles to hit this.
struct RemapHistory {
    /// `(publish epoch of the compacted snapshot, remap)`, oldest first.
    entries: Vec<(u64, Arc<IdRemap>)>,
    /// Epoch of the newest discarded entry; deltas based on anything
    /// older can no longer be rebased. Seeded with the engine's start
    /// epoch: after recovery, compactions that published before the
    /// restart are folded into the checkpoint (or replayed) with their
    /// remaps gone, so a slot-addressed delta based on any pre-restart
    /// epoch must be rejected, never rebased through zero remaps.
    dropped: u64,
}

const MAX_REMAP_HISTORY: usize = 8;

impl RemapHistory {
    /// An empty history for an engine whose first published epoch is
    /// `start_epoch`; slot-addressed deltas based on anything older
    /// are unrebasable and rejected.
    fn starting_at(start_epoch: u64) -> Self {
        RemapHistory {
            entries: Vec::new(),
            dropped: start_epoch,
        }
    }

    /// Records the remap of a compaction published at `epoch`.
    fn record(&mut self, epoch: u64, remap: Arc<IdRemap>) {
        self.entries.push((epoch, remap));
        if self.entries.len() > MAX_REMAP_HISTORY {
            let (e, _) = self.entries.remove(0);
            self.dropped = e;
        }
    }

    /// Rebases `delta` from the id space of the snapshot published at
    /// `based_on` into the current id space, applying every recorded
    /// compaction that happened after it, in order. `Err(())` means
    /// the delta predates the retained history and must be rejected —
    /// but only deltas that actually address vertices by **slot id**
    /// can go stale: a delta whose references are all external ids or
    /// batch-local indices has nothing a renumbering could alias, so
    /// it is accepted untouched whatever its `based_on`.
    fn rebase(&self, delta: &mut GraphDelta, based_on: u64) -> Result<(), ()> {
        if based_on < self.dropped {
            return if delta.has_slot_refs() {
                Err(())
            } else {
                Ok(())
            };
        }
        for (epoch, remap) in &self.entries {
            if *epoch > based_on {
                delta.remap(remap);
            }
        }
        Ok(())
    }

    /// The oldest `based_on` epoch slot-addressed deltas can still be
    /// rebased from (the submit-side staleness watermark).
    fn oldest_supported(&self) -> u64 {
        self.dropped
    }
}

/// A write-path message: a queued delta (with its enqueue time, for
/// refresh-lag accounting, and the epoch its ids were resolved
/// against), a catalog mutation, or a flush acknowledgement request.
enum Msg {
    Delta(Box<GraphDelta>, Instant, u64),
    /// Apply a catalog mutation (create/drop a materialized view) and
    /// publish it as its own epoch. A batch boundary: deltas queued
    /// before it refresh against the old catalog first, so "submit
    /// delta, then DDL" observes sequential semantics. The optional
    /// sender learns, once the DDL is published, whether it changed the
    /// catalog's membership (see [`Engine::submit_ddl_acked`]).
    Ddl(DdlOp, Option<mpsc::Sender<bool>>),
    Flush(mpsc::Sender<u64>),
}

/// One assembled write batch (see [`collect_batch`]).
struct Batch {
    /// The merged batch delta (empty when `batched == 0`).
    delta: GraphDelta,
    /// Deltas merged into `delta`.
    batched: usize,
    /// Deltas dropped as invalid at apply time.
    rejected: usize,
    /// Of the rejected, how many were dropped as **stale** — slot
    /// references based on an epoch older than the retained remap
    /// history (counted separately in `deltas_stale_rejected`).
    stale: usize,
    /// Enqueue time of the oldest delta in the batch.
    oldest: Option<Instant>,
    /// Flush acknowledgements collected while assembling.
    acks: Vec<mpsc::Sender<u64>>,
    /// A catalog mutation encountered while draining. A batch
    /// boundary: deltas queued before it (this batch) refresh against
    /// the pre-DDL catalog, then the caller applies the DDL and
    /// publishes it as its own epoch (acknowledging its effect to the
    /// optional sender).
    ddl: Option<(DdlOp, Option<mpsc::Sender<bool>>)>,
    /// Whether the queue is still open (false = shutdown signalled).
    open: bool,
}

/// Blocks for the next message, then drains the queue into one merged
/// batch of up to `max_batch` deltas, validating each against `graph`
/// (the worker's current state) plus the batch's own pending effects.
/// This is THE accept/reject decision point of the write path.
fn collect_batch(
    rx: &mpsc::Receiver<Msg>,
    graph: &kaskade_graph::Graph,
    max_batch: usize,
    remaps: &RemapHistory,
    extids: &ExternalIdTable,
) -> Batch {
    let mut batch = Batch {
        delta: GraphDelta::new(),
        batched: 0,
        rejected: 0,
        stale: 0,
        oldest: None,
        acks: Vec::new(),
        ddl: None,
        open: true,
    };
    let mut pending = match rx.recv() {
        Ok(msg) => Some(msg),
        Err(_) => {
            batch.open = false;
            None
        }
    };
    loop {
        match pending.take() {
            Some(Msg::Delta(mut delta, enqueued, based_on)) => {
                // four gates, in order, any failure dropping (and
                // counting) the delta — never killing the worker and
                // with it the engine:
                // 1. rebase through any compactions published since
                //    the delta's ids were resolved; too-stale
                //    slot-addressed deltas (older than the retained
                //    remap history) are rejected rather than risking
                //    silent id aliasing — external-id-addressed
                //    deltas are exempt;
                // 2. resolve external-id references against the
                //    writer's table plus the batch's own pending
                //    insertions (after this the delta is purely
                //    slot-addressed);
                // 3. exact validity at the only point where the
                //    apply-time graph state is known: base graph
                //    (slots and liveness) plus the vertices earlier
                //    deltas of this batch add (sequential-apply
                //    equivalence of merge);
                // 4. merge itself refuses an insert onto a vertex an
                //    earlier delta of this batch retracts (applied one
                //    at a time, that insert would see it already dead).
                let accepted = match remaps.rebase(&mut delta, based_on) {
                    Err(()) => {
                        batch.stale += 1;
                        false
                    }
                    Ok(()) => {
                        delta.resolve_external(extids, graph, &batch.delta).is_ok()
                            && delta
                                .validate_against(graph, batch.delta.vertices.len())
                                .is_ok()
                            && batch.delta.merge(&delta).is_ok()
                    }
                };
                if accepted {
                    batch.batched += 1;
                    batch.oldest.get_or_insert(enqueued);
                    if batch.batched >= max_batch {
                        break;
                    }
                } else {
                    batch.rejected += 1;
                }
            }
            Some(Msg::Ddl(op, ack)) => {
                // batch boundary: deltas drained so far refresh
                // against the pre-DDL catalog first
                batch.ddl = Some((op, ack));
                break;
            }
            Some(Msg::Flush(ack)) => batch.acks.push(ack),
            None => {}
        }
        match rx.try_recv() {
            Ok(msg) => pending = Some(msg),
            Err(mpsc::TryRecvError::Empty) => break,
            Err(mpsc::TryRecvError::Disconnected) => {
                batch.open = false;
                break;
            }
        }
    }
    batch
}

/// Why [`Engine::submit`] refused a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The delta is structurally broken (a [`kaskade_core::VRef::New`]
    /// index past its own vertex list, or a retraction referencing an
    /// uninserted new vertex); it could never apply.
    Invalid(DeltaError),
    /// The delta queue is full (the writer worker is behind). The
    /// client should retry later or shed load; nothing was enqueued.
    Backpressure,
    /// The delta addresses vertices by **slot id** resolved against an
    /// epoch older than the retained compaction-remap history — its
    /// ids can no longer be rebased safely. Re-resolve against a
    /// current snapshot and resubmit, or address vertices by stable
    /// external id ([`GraphDelta::add_vertex_ext`] /
    /// [`kaskade_core::VRef::External`]), which never goes stale.
    /// Counted in [`MetricsReport::deltas_stale_rejected`].
    StaleEpoch {
        /// The oldest `based_on` epoch the engine can still rebase
        /// slot-addressed deltas from.
        oldest_supported: u64,
    },
    /// The writer worker is gone (the engine is shutting down).
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(e) => write!(f, "invalid delta: {e}"),
            SubmitError::Backpressure => write!(f, "delta queue is full (backpressure)"),
            SubmitError::StaleEpoch { oldest_supported } => write!(
                f,
                "delta's slot ids are stale (based on an epoch older than {oldest_supported}); \
                 re-resolve against a current snapshot or use external ids"
            ),
            SubmitError::Closed => write!(f, "engine is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// State shared between the engine handle, its readers, and the writer
/// worker.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) cell: Arc<SnapshotCell>,
    cache: PlanCache,
    metrics: Metrics,
    queued: AtomicU64,
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) partitioner: Arc<dyn Partitioner>,
    scatter_min_vertices: usize,
    /// The writer's staleness watermark (mirror of
    /// [`RemapHistory::oldest_supported`]): slot-addressed submissions
    /// based on anything older fail fast with
    /// [`SubmitError::StaleEpoch`] instead of dying silently in the
    /// queue.
    oldest_supported: AtomicU64,
}

/// The concurrent serving runtime.
///
/// Cheap to share (`Engine` is `Sync`; wrap it in an `Arc` or use
/// scoped threads). Reads go through [`Engine::execute`] or a
/// per-thread [`Engine::reader`]; writes through [`Engine::submit`].
/// Dropping the engine shuts the writer worker down after it drains
/// the queue.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    tx: mpsc::SyncSender<Msg>,
    worker: Option<JoinHandle<()>>,
}

impl Engine {
    /// Serves the given state (epoch 0) with default tuning.
    pub fn new(state: Snapshot) -> Self {
        Self::with_config(state, EngineConfig::default())
    }

    /// Serves the current state of a [`Kaskade`] instance (the instance
    /// itself is left untouched; the engine evolves its own copy).
    pub fn from_kaskade(kaskade: &Kaskade) -> Self {
        Self::new(kaskade.snapshot())
    }

    /// Serves the given state (epoch 0) with explicit tuning. Panics
    /// if [`EngineConfig::wal`] is set and the log cannot be opened —
    /// use [`Engine::try_with_config`] to handle that.
    pub fn with_config(state: Snapshot, config: EngineConfig) -> Self {
        Self::try_with_config(state, config).expect("open write-ahead log")
    }

    /// Serves the given state (epoch 0) with explicit tuning,
    /// surfacing WAL-open failures instead of panicking. With
    /// [`EngineConfig::wal`] set, fails (`AlreadyExists`) if the WAL
    /// directory already holds durable state and
    /// [`WalConfig::overwrite`] is off — a fresh start must not
    /// silently wipe a previous run's log; recover it or point at an
    /// empty directory.
    pub fn try_with_config(state: Snapshot, config: EngineConfig) -> std::io::Result<Self> {
        Self::start(state, 0, ExternalIdTable::new(), config, false)
    }

    /// Recovers the engine from the WAL directory in
    /// [`EngineConfig::wal`] (required): loads the latest valid
    /// checkpoint, replays every intact log record after it, and
    /// resumes serving — and logging — at the recovered epoch. The
    /// recovered state is partition-independent (the differential
    /// proptests hold partitioned and unpartitioned engines
    /// byte-identical), so any partitioner may serve it. `Ok(None)`
    /// means the directory holds nothing recoverable; the caller starts
    /// fresh with [`Engine::try_with_config`].
    ///
    /// Pre-restart compactions are folded into the recovered state and
    /// their remaps are gone, so after recovery a **slot-addressed**
    /// delta based on any epoch before the recovered one fails with
    /// [`SubmitError::StaleEpoch`]; external-id-addressed deltas are
    /// epoch-free and survive restarts unconditionally.
    pub fn recover(config: EngineConfig) -> std::io::Result<Option<Self>> {
        let wal = config.wal.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "Engine::recover requires EngineConfig.wal",
            )
        })?;
        match crate::wal::recover(&wal.dir)? {
            None => Ok(None),
            Some(r) => Self::start(r.state, r.epoch, r.extids, config, true).map(Some),
        }
    }

    /// The one constructor behind fresh starts and recovery: publishes
    /// `state` at `epoch`, seats the external-id table in the writer,
    /// and (when configured) opens the WAL with a fresh checkpoint of
    /// exactly this state — so the on-disk frontier always equals the
    /// first published snapshot.
    /// `recovered` marks the post-recovery reopen, which may
    /// legitimately collapse the WAL directory's existing state into
    /// the new checkpoint; a fresh start refuses that (see
    /// [`Engine::try_with_config`]).
    fn start(
        state: Snapshot,
        epoch: u64,
        extids: ExternalIdTable,
        config: EngineConfig,
        recovered: bool,
    ) -> std::io::Result<Self> {
        let wal = match &config.wal {
            Some(cfg) if recovered => Some(Wal::open_after_recovery(
                cfg.clone(),
                &state,
                epoch,
                &extids,
            )?),
            Some(cfg) => Some(Wal::open(cfg.clone(), &state, epoch, &extids)?),
            None => None,
        };
        let pool = match config.pool_threads {
            0 => WorkerPool::with_default_threads(),
            t => WorkerPool::new(t),
        };
        let extids = Arc::new(extids);
        let shared = Arc::new(Shared {
            cell: Arc::new(SnapshotCell::with_snapshot(EpochSnapshot {
                epoch,
                state,
                extids: Arc::clone(&extids),
            })),
            cache: PlanCache::new(),
            metrics: Metrics::new(),
            queued: AtomicU64::new(0),
            tracer: config.tracer.unwrap_or_default(),
            pool,
            partitioner: config.partitioner,
            scatter_min_vertices: config.scatter_min_vertices,
            // the watermark starts at the first published epoch: after
            // recovery, pre-restart compactions are already folded in
            // and their remaps are gone, so slot-addressed submissions
            // based on pre-restart epochs must fail fast as stale
            oldest_supported: AtomicU64::new(epoch),
        });
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let worker_shared = Arc::clone(&shared);
        let max_batch = config.max_batch.max(1);
        let compact_dead_ratio = config.compact_dead_ratio;
        let worker = std::thread::Builder::new()
            .name("kaskade-writer".into())
            .spawn(move || {
                writer_loop(
                    worker_shared,
                    rx,
                    max_batch,
                    compact_dead_ratio,
                    wal,
                    extids,
                )
            })
            .expect("spawn writer worker");
        Ok(Engine {
            shared,
            tx,
            worker: Some(worker),
        })
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.shared.cell.load()
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Number of partitions the base graph is split across (1 =
    /// unpartitioned).
    pub fn shard_count(&self) -> usize {
        self.shared.partitioner.shard_count()
    }

    /// A per-thread read handle with an epoch-validated snapshot cache
    /// (the lock-free hot path; see [`Reader`]).
    pub fn reader(&self) -> Reader {
        Reader::new(Arc::clone(&self.shared.cell))
    }

    /// Queues a delta (insertions and/or retractions) for the writer
    /// worker. Returns immediately; the delta becomes visible to
    /// readers when its batch is published (see [`Engine::flush`] to
    /// wait for that).
    ///
    /// Self-referential validity ([`kaskade_core::VRef::New`] indices)
    /// is checked here; references to base-graph vertices — including
    /// liveness under concurrent retraction — are checked by the worker
    /// at apply time, where the graph state is known exactly. A delta
    /// rejected there is dropped and counted in
    /// [`MetricsReport::deltas_rejected`] rather than crashing the
    /// engine. When the bounded queue (see
    /// [`EngineConfig::queue_capacity`]) is full, nothing is enqueued
    /// and [`SubmitError::Backpressure`] is returned.
    ///
    /// By default the delta's existing-vertex ids are taken to be in
    /// the id space of the **currently published** snapshot. A caller
    /// that resolved ids from a snapshot it loaded earlier should pass
    /// [`SubmitOpts::based_on`] with that snapshot's epoch, so a slot
    /// compaction publishing in between cannot misdirect the ids.
    pub fn submit(&self, delta: GraphDelta, opts: SubmitOpts) -> Result<(), SubmitError> {
        let shared = &self.shared;
        let based_on = opts.based_on.unwrap_or_else(|| shared.cell.epoch());
        let oldest = shared.oldest_supported.load(Ordering::Relaxed);
        if based_on < oldest && delta.has_slot_refs() {
            shared.metrics.record_stale(1);
            return Err(SubmitError::StaleEpoch {
                oldest_supported: oldest,
            });
        }
        // usize::MAX vertex bound: only the New-index checks can fail
        delta.validate(usize::MAX).map_err(SubmitError::Invalid)?;
        // increment BEFORE sending so the counter stays conservative:
        // the worker may consume and decrement the instant send lands
        shared.queued.fetch_add(1, Ordering::Relaxed);
        let sent = self
            .tx
            .try_send(Msg::Delta(Box::new(delta), Instant::now(), based_on));
        match sent {
            Ok(()) => Ok(()),
            Err(e) => {
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                match e {
                    mpsc::TrySendError::Full(_) => {
                        shared.metrics.record_backpressure();
                        Err(SubmitError::Backpressure)
                    }
                    mpsc::TrySendError::Disconnected(_) => Err(SubmitError::Closed),
                }
            }
        }
    }

    /// Queues a live catalog mutation — create or drop a materialized
    /// view — on the write path. The DDL is ordered with respect to
    /// deltas (everything submitted before it applies first), publishes
    /// as its own epoch with the refresh DAG rebuilt, logs a `KIND_DDL`
    /// WAL record when durability is on, and invalidates the plan
    /// cache: no plan carries forward across a catalog change. Views
    /// are materialized over the one base graph whatever the partition
    /// count. Returns `false` when the engine is shutting down. Blocks
    /// while the queue is full rather than failing — DDL is rare and
    /// must not be shed under write load.
    pub fn submit_ddl(&self, op: DdlOp) -> bool {
        self.tx.send(Msg::Ddl(op, None)).is_ok()
    }

    /// [`Engine::submit_ddl`] for callers that must count only DDL that
    /// took effect: the receiver yields, once the DDL is published,
    /// whether it changed the catalog's membership — `false` for a
    /// create of a definition that was already live (a rebuild in
    /// place) or a drop of a slot that was already dead. `None` when
    /// the engine is shutting down.
    pub(crate) fn submit_ddl_acked(&self, op: DdlOp) -> Option<mpsc::Receiver<bool>> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx.send(Msg::Ddl(op, Some(ack_tx))).ok()?;
        Some(ack_rx)
    }

    /// Waits until every previously submitted delta is applied and
    /// published; returns the epoch that made them visible. Unlike
    /// [`Engine::submit`], a full queue makes `flush` *wait* for room
    /// rather than fail. If the engine is already shut down, returns
    /// the last published epoch.
    pub fn flush(&self) -> u64 {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(Msg::Flush(ack_tx)).is_err() {
            return self.shared.cell.epoch();
        }
        ack_rx.recv().unwrap_or_else(|_| self.shared.cell.epoch())
    }

    /// Deltas submitted but not yet published.
    pub fn queue_depth(&self) -> u64 {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Plans (through the per-epoch plan cache) and executes `query`
    /// against the current snapshot.
    pub fn execute(&self, query: &Query) -> Result<Table, KaskadeError> {
        let snap = self.shared.cell.load();
        execute_at(&self.shared, &snap, query)
    }

    /// Like [`Engine::execute`], but against the reader's cached
    /// snapshot — the zero-lock steady-state read path.
    pub fn execute_with(&self, reader: &mut Reader, query: &Query) -> Result<Table, KaskadeError> {
        let snap = Arc::clone(reader.snapshot());
        execute_at(&self.shared, &snap, query)
    }

    /// A point-in-time metrics report (counters, latency quantiles,
    /// refresh lag, plan-cache hit rate, current epoch) — built by the
    /// one stitching constructor, [`Metrics::report_with`]. Its
    /// `apply_*` fields are the end-to-end batch apply+publish on every
    /// topology, one sample per published batch.
    pub fn metrics(&self) -> MetricsReport {
        let snap = self.shared.cell.load();
        self.shared.metrics.report_with(
            snap.epoch,
            &self.shared.cache,
            snap.state.enumeration_memo(),
            self.queue_depth() as usize,
        )
    }

    /// The engine's tracing subsystem (flight recorder + slow-query
    /// log). Always present; disabled unless a tracer was passed via
    /// [`EngineConfig::tracer`] or enabled at runtime.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.shared.tracer
    }

    /// The persistent worker pool the view refresh and the query
    /// scatter run on. Its [`WorkerPool::dispatches`] counter is the
    /// "steady-state serving runs on the pool" observability hook.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.shared.pool
    }

    /// The live metrics block (for exposition endpoints that need raw
    /// histograms, and for the advisor's workload sensors).
    pub fn metrics_handle(&self) -> &Metrics {
        &self.shared.metrics
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // closing the channel is the shutdown signal; the worker drains
        // whatever is still queued, publishes, and exits
        let (tx, _) = mpsc::sync_channel(1);
        drop(std::mem::replace(&mut self.tx, tx));
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Plans `query` via the shared per-epoch cache and executes it against
/// `snap`. The whole call touches no lock except the cache probe. With
/// more than one partition, pattern matching on a target graph of at
/// least `scatter_min_vertices` vertices scatters across the partitions
/// on the worker pool ([`scatter_gather`]).
///
/// Read-path instrumentation: a `query` root span with
/// `plan_cache_lookup` / `plan` / `relational` children (`plan` with
/// `enumerate` and `rewrite` children, `relational` with a
/// `pattern_match` child, which parents the scatter legs), and a
/// slow-query log entry (normalized AST with enumerate, rewrite,
/// pattern and relational timings) when the total crosses the
/// tracer's threshold.
/// With tracing off and no threshold set, the added cost is two relaxed
/// atomic loads.
fn execute_at(shared: &Shared, snap: &EpochSnapshot, query: &Query) -> Result<Table, KaskadeError> {
    let tracer = &shared.tracer;
    // `id(v) = <ext>` point lookups: resolve through the snapshot's
    // external-id table into a pinned single-slot anchor scan, inline on
    // the global state. The pin is already the cheapest plan, so this
    // path skips the view rewriter, the plan cache and the scatter —
    // and it never feeds the advisor's miss log, which would otherwise
    // chase shapes no view can improve.
    if let Some((stripped, anchors)) = query.split_extid_anchors() {
        let start = Instant::now();
        let mut root = tracer.span(Stage::Query);
        root.set_epoch(snap.epoch);
        root.set_detail("anchored");
        return match crate::anchor::execute_anchored(
            snap.state.graph(),
            &snap.extids,
            &stripped,
            &anchors,
        ) {
            Ok(table) => {
                shared.metrics.record_query(start.elapsed());
                Ok(table)
            }
            Err(e) => {
                shared.metrics.record_query_error();
                Err(e)
            }
        };
    }
    // stage timings are needed by spans AND by the slow-query log, which
    // works with span tracing off
    let timing = tracer.is_enabled() || tracer.slow_query_threshold().is_some();
    let start = Instant::now();
    let mut root = tracer.span(Stage::Query);
    root.set_epoch(snap.epoch);
    let key = plan_key(query);
    let (mut enumerate_time, mut rewrite_time) = (Duration::ZERO, Duration::ZERO);
    let planned = {
        let mut lookup = root.child(Stage::PlanCacheLookup);
        match shared.cache.get(snap.epoch, &key) {
            Some(plan) => {
                lookup.set_detail("hit");
                plan
            }
            None => {
                lookup.set_detail("miss");
                drop(lookup);
                // a miss enumerates through the lineage's per-pattern
                // memo, then filters, rewrites and costs against this
                // epoch's catalog
                let plan_span = root.child(Stage::Plan);
                let mut enumerate_span = plan_span.child(Stage::Enumerate);
                let t0 = timing.then(Instant::now);
                let (enumeration, memo_hit) = snap
                    .state
                    .enumerate_memoized(query)
                    .map_err(KaskadeError::Inference)?;
                enumerate_span.set_detail(if memo_hit { "memo-hit" } else { "memo-miss" });
                drop(enumerate_span);
                let t1 = timing.then(Instant::now);
                let rewrite_span = plan_span.child(Stage::Rewrite);
                let plan = Arc::new(snap.state.plan_with(query, &enumeration));
                drop(rewrite_span);
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    enumerate_time = t1 - t0;
                    rewrite_time = t1.elapsed();
                }
                drop(plan_span);
                shared
                    .cache
                    .insert(snap.epoch, key.clone(), Arc::clone(&plan));
                plan
            }
        }
    };
    let target = match snap.state.plan_target(&planned) {
        Ok(target) => target,
        Err(e) => {
            shared.metrics.record_query_error();
            return Err(e);
        }
    };
    let scatter = shared.partitioner.shard_count() > 1
        && target.vertex_count() >= shared.scatter_min_vertices;
    let rel = root.child(Stage::Relational);
    let exec_start = timing.then(Instant::now);
    let pattern_time = Cell::new(Duration::ZERO);
    let result = execute_with_pattern(target, &planned.query, &|pattern| {
        let span = rel.child(Stage::PatternMatch);
        let t0 = timing.then(Instant::now);
        let plan = PatternPlan::new(target, pattern)?;
        let rows = if scatter {
            scatter_gather(shared, snap.epoch, target, &plan, span.id())
        } else {
            plan.execute(target)
        };
        if let Some(t0) = t0 {
            pattern_time.set(pattern_time.get() + t0.elapsed());
        }
        Ok(rows)
    });
    let exec_time = exec_start.map(|t| t.elapsed()).unwrap_or_default();
    drop(rel);
    match result {
        Ok(table) => {
            let total = start.elapsed();
            shared.metrics.record_query(total);
            // workload sensing for the advisor: attribute the query's
            // latency to the view that answered it, or log the
            // normalized shape of a query the planner could only send
            // to the base graph (a candidate view may be missing)
            match planned.view_id {
                Some(vid) => {
                    let name = snap
                        .state
                        .catalog()
                        .get_by_id(vid)
                        .map(|v| v.def.id())
                        .unwrap_or_else(|| vid.to_string());
                    shared.metrics.record_view_benefit(vid, &name, total);
                }
                None => shared.metrics.record_miss_shape(&key, query, total),
            }
            drop(root);
            if timing {
                let pattern = pattern_time.get();
                let relational = exec_time.saturating_sub(pattern);
                tracer.observe_query(
                    total,
                    snap.epoch,
                    &key,
                    &format!(
                        "enumerate={enumerate_time:?} rewrite={rewrite_time:?} \
                         pattern={pattern:?} relational={relational:?}"
                    ),
                );
            }
            Ok(table)
        }
        Err(e) => {
            shared.metrics.record_query_error();
            Err(KaskadeError::Execution(e))
        }
    }
}

/// The single-writer worker: blocks on the queue, merges up to
/// `max_batch` queued deltas into one [`GraphDelta`], applies it with
/// incremental view maintenance on the worker pool — connector
/// frontier work split by partition when there is more than one — and
/// publishes the successor snapshot. After each publish it checks the
/// slot-compaction policy ([`EngineConfig::compact_dead_ratio`]): when
/// the dead-slot share crosses the threshold, the state compacts and
/// publishes as its own epoch — the fence — and the remap is recorded
/// so queued deltas built against older epochs rebase on arrival.
fn writer_loop(
    shared: Arc<Shared>,
    rx: mpsc::Receiver<Msg>,
    max_batch: usize,
    compact_dead_ratio: f64,
    mut wal: Option<Wal>,
    mut extids: Arc<ExternalIdTable>,
) {
    // the worker's working state always equals the published snapshot
    let mut state = shared.cell.load().state.clone();
    // nothing has published yet, so the cell still holds the start
    // epoch — the same staleness floor `Shared::oldest_supported` was
    // seeded with
    let mut remaps = RemapHistory::starting_at(shared.cell.epoch());
    // the partition reads vertex types off the graph it is handed (the
    // applied graph), so a by-type partitioner sees the batch's new
    // vertices too
    let partitioner = &*shared.partitioner;
    let part_of = |g: &Graph, v: VertexId| partitioner.shard_of(v, g.vertex_type(v));
    let refresh = RefreshOptions {
        exec: Some(&*shared.pool),
        partition: (partitioner.shard_count() > 1).then_some(Partition {
            part_of: &part_of,
            parts: partitioner.shard_count(),
        }),
    };
    let mut open = true;
    while open {
        let batch = collect_batch(&rx, state.graph(), max_batch, &remaps, &extids);
        open = batch.open;
        if batch.rejected > 0 {
            shared.metrics.record_rejected(batch.rejected);
        }
        if batch.stale > 0 {
            shared.metrics.record_stale(batch.stale);
        }
        if batch.batched > 0 {
            let tracer = &shared.tracer;
            let retractions = batch.delta.del_edges.len() + batch.delta.del_vertices.len();
            let mut batch_span = tracer.span(Stage::WriteBatch);
            // the single writer knows the epoch this batch publishes as,
            // so its apply and publish children carry it from the start
            batch_span.set_epoch(shared.cell.epoch() + 1);
            if tracer.is_enabled() {
                batch_span.set_detail(format!("batched={}", batch.batched));
                // how long the oldest delta sat queued before this
                // batch started — recorded retroactively, since the
                // enqueue side must stay span-free
                if let Some(oldest) = batch.oldest {
                    tracer.record(
                        Stage::QueueWait,
                        batch_span.id(),
                        oldest,
                        oldest.elapsed(),
                        shared.cell.epoch(),
                        String::new(),
                    );
                }
            }
            let apply_start = Instant::now();
            let apply_span = batch_span.child(Stage::Apply);
            let apply_id = apply_span.id();
            let base_slots = state.graph().vertex_slots();
            let (next, report) = state.with_delta_report(&batch.delta, &refresh);
            drop(apply_span);
            state = next;
            // group commit: ONE durable record for the whole merged
            // batch, written (and fsynced) strictly before the epoch it
            // predicts becomes visible. An I/O failure here is fail-stop — the writer
            // dies rather than acknowledging a batch that is not on
            // disk, and submissions then return `Closed`.
            if let Some(w) = wal.as_mut() {
                w.append_batch(shared.cell.epoch() + 1, &batch.delta)
                    .expect("WAL append failed; refusing to publish an unlogged batch");
            }
            // bind the batch's external ids to the slots the apply
            // appended (resolution already rejected rebindings), and
            // release the bindings of retracted slots — mirrored
            // exactly by WAL replay
            for (i, nv) in batch.delta.vertices.iter().enumerate() {
                if let Some(ext) = nv.ext {
                    Arc::make_mut(&mut extids)
                        .insert(ext, VertexId((base_slots + i) as u32))
                        .expect("resolution admitted a duplicate external id");
                }
            }
            for &v in &batch.delta.del_vertices {
                if extids.ext_of(v).is_some() {
                    Arc::make_mut(&mut extids).remove_slot(v);
                }
            }
            let mut publish_span = batch_span.child(Stage::Publish);
            let epoch = shared.cell.publish(state.clone(), Arc::clone(&extids));
            publish_span.set_epoch(epoch);
            drop(publish_span);
            batch_span.set_epoch(epoch);
            shared.cache.promote(epoch);
            let lag = batch.oldest.map(|t| t.elapsed()).unwrap_or_default();
            shared
                .metrics
                .record_refresh(batch.batched, apply_start.elapsed(), lag);
            shared
                .metrics
                .record_view_refresh(report.refreshed as u64, report.rematerialized as u64);
            // dimensional breakdown: one metrics row — and, when
            // tracing, one refresh_view child span — per catalog view
            let catalog = state.catalog();
            for stat in &report.per_view {
                let name = catalog
                    .get_by_id(stat.view)
                    .map(|v| v.def.id())
                    .unwrap_or_else(|| format!("view{}", stat.view.index()));
                shared.metrics.record_per_view(&name, stat);
                if tracer.is_enabled() {
                    tracer.record(
                        Stage::RefreshView,
                        apply_id,
                        apply_start,
                        stat.duration,
                        epoch,
                        format!("{name} level={}", stat.level),
                    );
                }
            }
            if retractions > 0 {
                shared.metrics.record_retractions(retractions);
            }
        }
        // a catalog mutation publishes as its own epoch, after the
        // deltas batched ahead of it and before anything queued behind
        if let Some((op, ack)) = &batch.ddl {
            let mut ddl_span = shared.tracer.span(Stage::Ddl);
            let changes_membership = match op {
                DdlOp::CreateView(def) => state.catalog().get(&def.id()).is_none(),
                DdlOp::DropView(id) => state.catalog().get_by_id(*id).is_some(),
            };
            // durable strictly before visible, like batches: replay
            // re-runs apply_ddl at the same epoch position
            if let Some(w) = wal.as_mut() {
                w.append_ddl(shared.cell.epoch() + 1, op)
                    .expect("WAL append failed; refusing to publish an unlogged DDL");
            }
            state = state.apply_ddl(op);
            let epoch = shared.cell.publish(state.clone(), Arc::clone(&extids));
            // catalog changed: NO plan carry-forward across this epoch
            // (prune instead of promote). The new epoch starts empty so
            // every query replans against the new catalog; the previous
            // epoch's entries stay one epoch as grace for readers still
            // draining on the pre-DDL snapshot.
            shared.cache.prune_below(epoch);
            let detail = match op {
                DdlOp::CreateView(def) => {
                    shared.metrics.record_view_created();
                    format!("create {}", def.id())
                }
                DdlOp::DropView(id) => {
                    // a drop of an already-dead slot is a no-op publish
                    if changes_membership {
                        shared.metrics.record_view_dropped();
                    }
                    format!("drop {id}")
                }
            };
            ddl_span.set_epoch(epoch);
            ddl_span.set_detail(detail);
            if let Some(ack) = ack {
                let _ = ack.send(changes_membership);
            }
        }
        if should_compact(state.graph(), compact_dead_ratio) {
            let mut compact_span = shared.tracer.span(Stage::Compact);
            let before = slot_capacity(state.graph());
            let epoch = shared.cell.epoch() + 1;
            // a bare epoch-tagged marker: replay re-runs the
            // deterministic compaction instead of logging the remap
            if let Some(w) = wal.as_mut() {
                w.append_compact(epoch)
                    .expect("WAL append failed; refusing to publish an unlogged compaction");
            }
            let (next, remap) = state.compact();
            state = next;
            // external ids follow the same remap the delta rebase path
            // uses, inside the same epoch publish
            Arc::make_mut(&mut extids).remap(&remap);
            shared.cell.publish(state.clone(), Arc::clone(&extids));
            shared.cache.promote(epoch);
            let reclaimed = before - slot_capacity(state.graph());
            shared.metrics.record_compaction(reclaimed);
            compact_span.set_epoch(epoch);
            compact_span.set_detail(format!("reclaimed={reclaimed}"));
            remaps.record(epoch, Arc::new(remap));
            shared
                .oldest_supported
                .store(remaps.oldest_supported(), Ordering::Relaxed);
        }
        if let Some(w) = wal.as_mut() {
            if w.should_checkpoint() {
                w.checkpoint(&state, shared.cell.epoch(), &extids)
                    .expect("WAL checkpoint failed");
            }
        }
        if batch.batched + batch.rejected > 0 {
            shared
                .queued
                .fetch_sub((batch.batched + batch.rejected) as u64, Ordering::Relaxed);
        }
        for ack in batch.acks {
            let _ = ack.send(shared.cell.epoch());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_core::{ConnectorDef, VRef, ViewDef};
    use kaskade_graph::{Graph, GraphBuilder, Schema, Value, VertexId};
    use kaskade_query::parse;

    fn lineage() -> Graph {
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        b.add_edge(j0, f0, "WRITES_TO");
        b.add_edge(f0, j1, "IS_READ_BY");
        b.finish()
    }

    fn count_query() -> Query {
        parse(
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             (f:File)-[:IS_READ_BY]->(b:Job) RETURN a AS A, b AS B)",
        )
        .unwrap()
    }

    #[test]
    fn submit_flush_advances_epoch_and_result() {
        let mut k = Kaskade::new(lineage(), Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let engine = Engine::from_kaskade(&k);
        let q = count_query();
        let before = engine.execute(&q).unwrap();
        assert_eq!(before.scalar().unwrap().as_int(), Some(1));
        assert_eq!(engine.epoch(), 0);

        let mut d = GraphDelta::new();
        let f = d.add_vertex("File", vec![]);
        let j = d.add_vertex("Job", vec![]);
        d.add_edge(
            VRef::Existing(VertexId(2)),
            f,
            "WRITES_TO",
            vec![("ts".into(), Value::Int(7))],
        );
        d.add_edge(f, j, "IS_READ_BY", vec![("ts".into(), Value::Int(8))]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        let epoch = engine.flush();
        assert!(epoch >= 1);
        assert_eq!(engine.queue_depth(), 0);
        let after = engine.execute(&q).unwrap();
        assert_eq!(after.scalar().unwrap().as_int(), Some(2));
        // the refreshed connector view also reflects the new pair
        let snap = engine.snapshot();
        let view = snap.state.catalog().get("connector:JOB_TO_JOB_2_HOP");
        assert_eq!(view.unwrap().graph.edge_count(), 2);
    }

    #[test]
    fn repeated_queries_hit_the_plan_cache() {
        let engine = Engine::new(Snapshot::new(lineage(), Schema::provenance()));
        let q = count_query();
        for _ in 0..5 {
            engine.execute(&q).unwrap();
        }
        let report = engine.metrics();
        assert_eq!(report.queries, 5);
        assert_eq!(report.plan_cache_misses, 1);
        assert_eq!(report.plan_cache_hits, 4);
        assert!(report.plan_cache_hit_rate() > 0.7);
    }

    #[test]
    fn read_spans_split_pattern_match_from_relational() {
        let tracer = Arc::new(Tracer::new(true));
        tracer.set_slow_query_threshold(Some(Duration::from_nanos(1)));
        let engine = Engine::with_config(
            Snapshot::new(lineage(), Schema::provenance()),
            EngineConfig {
                tracer: Some(Arc::clone(&tracer)),
                ..EngineConfig::default()
            },
        );
        engine.execute(&count_query()).unwrap();
        let events = tracer.dump();
        let find = |stage| {
            events
                .iter()
                .find(|e| e.stage == stage)
                .unwrap_or_else(|| panic!("no {stage} span in:\n{}", tracer.render_dump()))
        };
        let rel = find(Stage::Relational);
        assert_eq!(rel.parent, find(Stage::Query).id);
        assert_eq!(find(Stage::PatternMatch).parent, rel.id);
        // a plan miss splits into memoized enumeration and rewrite
        let plan = find(Stage::Plan);
        let enumerate = find(Stage::Enumerate);
        assert_eq!(enumerate.parent, plan.id);
        assert_eq!(enumerate.detail, "memo-miss");
        assert_eq!(find(Stage::Rewrite).parent, plan.id);
        let slow = &find(Stage::SlowQuery).detail;
        for part in ["enumerate=", " rewrite=", " pattern=", " relational="] {
            assert!(slow.contains(part), "no `{part}` in {slow}");
        }
        assert!(!slow.contains("plan="), "{slow}");
    }

    #[test]
    fn a_ddl_epoch_replans_from_the_enumeration_memo() {
        let tracer = Arc::new(Tracer::new(true));
        let engine = Engine::with_config(
            Snapshot::new(lineage(), Schema::provenance()),
            EngineConfig {
                tracer: Some(Arc::clone(&tracer)),
                ..EngineConfig::default()
            },
        );
        let q = kaskade_query::parse(kaskade_query::listings::LISTING_1).unwrap();
        let raw = engine.execute(&q).unwrap();
        let m = engine.metrics();
        assert_eq!((m.enumeration_memo_hits, m.enumeration_memo_misses), (0, 1));
        let def =
            kaskade_core::ViewDef::Connector(kaskade_core::ConnectorDef::k_hop("Job", "Job", 2));
        assert!(engine.submit_ddl(DdlOp::CreateView(def)));
        engine.flush();
        // the DDL epoch starts with an empty plan cache: the shape
        // re-plans onto the new view without running the enumerator
        let viewed = engine.execute(&q).unwrap();
        let m = engine.metrics();
        assert_eq!((m.enumeration_memo_hits, m.enumeration_memo_misses), (1, 1));
        assert_eq!(m.plan_cache_misses, 2);
        assert_eq!(format!("{:?}", raw.rows), format!("{:?}", viewed.rows));
        let snap = engine.snapshot();
        assert!(snap.state.plan(&q).unwrap().view_id.is_some());
        let details: Vec<_> = tracer
            .dump()
            .into_iter()
            .filter(|e| e.stage == Stage::Enumerate)
            .map(|e| e.detail)
            .collect();
        assert_eq!(details, ["memo-miss", "memo-hit"]);
    }

    #[test]
    fn child_spans_carry_their_epoch() {
        let tracer = Arc::new(Tracer::new(true));
        let engine = Engine::with_config(
            Snapshot::new(lineage(), Schema::provenance()),
            EngineConfig {
                tracer: Some(Arc::clone(&tracer)),
                ..EngineConfig::default()
            },
        );
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        let epoch = engine.flush();
        assert_eq!(epoch, 1);
        engine.execute(&count_query()).unwrap();
        let events = tracer.dump();
        let root = events
            .iter()
            .find(|e| e.stage == Stage::Query)
            .expect("query root span");
        // every span below the root, at any depth
        let mut under = vec![root.id];
        let mut i = 0;
        while i < under.len() {
            let parent = under[i];
            under.extend(events.iter().filter(|e| e.parent == parent).map(|e| e.id));
            i += 1;
        }
        let spans: Vec<_> = events.iter().filter(|e| under.contains(&e.id)).collect();
        for stage in [
            Stage::Query,
            Stage::PlanCacheLookup,
            Stage::Plan,
            Stage::Enumerate,
            Stage::Rewrite,
            Stage::Relational,
            Stage::PatternMatch,
        ] {
            assert!(
                spans.iter().any(|e| e.stage == stage),
                "no {stage} span under the query root:\n{}",
                tracer.render_dump()
            );
        }
        for e in spans {
            assert_eq!(
                e.epoch,
                epoch,
                "{} span:\n{}",
                e.stage,
                tracer.render_dump()
            );
        }
        // the batch's apply span carries the epoch it published as
        let apply = events.iter().find(|e| e.stage == Stage::Apply).unwrap();
        assert_eq!(apply.epoch, epoch, "{}", tracer.render_dump());
    }

    #[test]
    fn reader_handle_serves_without_flush() {
        let engine = Engine::new(Snapshot::new(lineage(), Schema::provenance()));
        let mut reader = engine.reader();
        let q = count_query();
        let t = engine.execute_with(&mut reader, &q).unwrap();
        assert_eq!(t.scalar().unwrap().as_int(), Some(1));
        // submit + flush, then the same reader observes the new epoch
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        assert_eq!(reader.snapshot().epoch, engine.epoch());
    }

    #[test]
    fn malformed_deltas_are_rejected_not_fatal() {
        let engine = Engine::new(Snapshot::new(lineage(), Schema::provenance()));
        // self-referentially broken: refused synchronously
        let mut dangling_new = GraphDelta::new();
        dangling_new.add_edge(VRef::New(0), VRef::New(1), "WRITES_TO", vec![]);
        assert!(matches!(
            engine.submit(dangling_new, SubmitOpts::default()),
            Err(SubmitError::Invalid(_))
        ));
        // dangling base reference: only detectable at apply time, so it
        // is dropped by the worker and counted — never a panic
        let mut dangling_existing = GraphDelta::new();
        let v = dangling_existing.add_vertex("File", vec![]);
        dangling_existing.add_edge(VRef::Existing(VertexId(999)), v, "WRITES_TO", vec![]);
        engine
            .submit(dangling_existing, SubmitOpts::default())
            .unwrap();
        engine.flush();
        assert_eq!(engine.metrics().deltas_rejected, 1);
        assert_eq!(engine.queue_depth(), 0);
        // the engine still serves reads and accepts valid writes
        let mut ok = GraphDelta::new();
        ok.add_vertex("Job", vec![]);
        engine.submit(ok, SubmitOpts::default()).unwrap();
        engine.flush();
        assert_eq!(engine.snapshot().state.graph().vertex_count(), 4);
        assert!(engine.execute(&count_query()).is_ok());
    }

    #[test]
    fn retractions_flow_through_the_engine() {
        let mut k = Kaskade::new(lineage(), Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let engine = Engine::from_kaskade(&k);
        let q = count_query();
        assert_eq!(
            engine.execute(&q).unwrap().scalar().unwrap().as_int(),
            Some(1)
        );

        // retract the read edge: the blast-radius pair disappears and
        // the connector view is maintained to match
        let mut d = GraphDelta::new();
        d.del_edge(
            VRef::Existing(VertexId(1)),
            VRef::Existing(VertexId(2)),
            "IS_READ_BY",
        );
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        assert_eq!(
            engine.execute(&q).unwrap().scalar().unwrap().as_int(),
            Some(0)
        );
        let snap = engine.snapshot();
        let view = snap.state.catalog().get("connector:JOB_TO_JOB_2_HOP");
        assert_eq!(view.unwrap().graph.edge_count(), 0);
        assert_eq!(snap.state.graph().edge_count(), 1);
        assert_eq!(engine.metrics().retractions_applied, 1);
        assert!(crate::drive::snapshot_is_consistent(&snap.state));
    }

    #[test]
    fn insert_onto_vertex_retracted_earlier_in_batch_is_rejected() {
        // sequential semantics: after delta 1 retracts f0, delta 2's
        // insert onto f0 could never apply — the batched path must
        // reject it the same way instead of cascading it away
        let engine = Engine::with_config(
            Snapshot::new(lineage(), Schema::provenance()),
            EngineConfig {
                max_batch: 16,
                ..EngineConfig::default()
            },
        );
        let mut d1 = GraphDelta::new();
        d1.del_vertex(VertexId(1)); // f0
        let mut d2 = GraphDelta::new();
        let j = d2.add_vertex("Job", vec![]);
        d2.add_edge(VRef::Existing(VertexId(1)), j, "IS_READ_BY", vec![]);
        engine.submit(d1, SubmitOpts::default()).unwrap();
        engine.submit(d2, SubmitOpts::default()).unwrap();
        engine.flush();
        let report = engine.metrics();
        assert_eq!(report.deltas_rejected, 1, "{report:?}");
        // only d1 landed: f0 and its two edges are gone, no new job
        let snap = engine.snapshot();
        assert_eq!(snap.state.graph().vertex_count(), 2);
        assert_eq!(snap.state.graph().edge_count(), 0);
    }

    #[test]
    fn full_queue_reports_backpressure() {
        let g = {
            // a graph big enough that each publish takes measurable work
            use kaskade_datasets::{generate_provenance, ProvenanceConfig};
            generate_provenance(&ProvenanceConfig::tiny(41).core_only())
        };
        let engine = Engine::with_config(
            Snapshot::new(g, Schema::provenance()),
            EngineConfig {
                max_batch: 1,
                queue_capacity: 2,
                ..EngineConfig::default()
            },
        );
        // submit far faster than single-delta batches can drain: the
        // bounded queue must refuse at least one submission
        let mut saw_backpressure = false;
        for _ in 0..50_000 {
            let mut d = GraphDelta::new();
            d.add_vertex("File", vec![]);
            match engine.submit(d, SubmitOpts::default()) {
                Ok(()) => {}
                Err(SubmitError::Backpressure) => {
                    saw_backpressure = true;
                    break;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(saw_backpressure, "bounded queue never pushed back");
        assert!(engine.metrics().deltas_backpressured >= 1);
        // the engine keeps serving: flush drains and accepts new work
        engine.flush();
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn churn_turnover_triggers_compaction_and_bounds_slots() {
        // a chain graph churned with delete-then-reinsert turnover at
        // constant live size: without compaction slot capacity grows
        // one dead slot per round, forever
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> = (0..30).map(|_| b.add_vertex("Job")).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], "SPAWNS");
        }
        let g = b.finish();
        let live = g.vertex_count() + g.edge_count();
        let engine = Engine::new(Snapshot::new(g, Schema::provenance()));
        for round in 0..200u64 {
            let snap = engine.snapshot();
            let g = snap.state.graph();
            let e = g.edges().next().unwrap();
            let (s, d) = (g.edge_src(e), g.edge_dst(e));
            let mut delta = GraphDelta::new();
            delta.del_edge(VRef::Existing(s), VRef::Existing(d), "SPAWNS");
            delta.add_edge(
                VRef::Existing(s),
                VRef::Existing(d),
                "SPAWNS",
                vec![("ts".into(), Value::Int(round as i64))],
            );
            engine
                .submit(delta, SubmitOpts::based_on(snap.epoch))
                .unwrap();
            engine.flush();
        }
        let report = engine.metrics();
        assert!(report.compactions_run >= 1, "{report:?}");
        assert!(report.slots_reclaimed > 0, "{report:?}");
        assert_eq!(report.deltas_rejected, 0, "{report:?}");
        let snap = engine.snapshot();
        let g = snap.state.graph();
        // live size never changed; capacity is bounded by the policy
        assert_eq!(g.vertex_count() + g.edge_count(), live);
        let capacity = g.vertex_slots() + g.edge_slots();
        assert!(
            capacity <= 2 * live,
            "capacity {capacity} exceeds 2x live {live}"
        );
        assert!(crate::drive::snapshot_is_consistent(&snap.state));
    }

    #[test]
    fn stale_deltas_rebase_across_the_compaction_fence() {
        // 10 dead File slots around two live Jobs: the first publish
        // triggers compaction (dead ratio 10/12), renumbering the
        // second job from id 11 to id 1
        let mut b = GraphBuilder::new();
        b.add_vertex("Job");
        let files: Vec<VertexId> = (0..10).map(|_| b.add_vertex("File")).collect();
        let j1 = b.add_vertex("Job");
        b.set_vertex_prop(j1, "name", Value::Str("sink".into()));
        let g = b.finish().remove_vertices(files);
        let engine = Engine::new(Snapshot::new(g, Schema::provenance()));
        let snap0 = engine.snapshot();
        assert_eq!(snap0.epoch, 0);

        // force the fence: an empty-ish write publishes, then compacts
        let mut warm = GraphDelta::new();
        warm.add_vertex("Job", vec![]);
        engine
            .submit(warm, SubmitOpts::based_on(snap0.epoch))
            .unwrap();
        engine.flush();
        let report = engine.metrics();
        assert_eq!(report.compactions_run, 1, "{report:?}");
        assert_eq!(report.slots_reclaimed, 10);
        let compacted = engine.snapshot();
        assert_eq!(compacted.state.graph().vertex_slots(), 3);

        // a delta built against the EPOCH-0 snapshot, naming j1 by its
        // old id 11: the writer must rebase it through the remap, not
        // reject it or alias it onto a reused slot
        let mut stale = GraphDelta::new();
        let f = stale.add_vertex("File", vec![]);
        stale.add_edge(VRef::Existing(j1), f, "WRITES_TO", vec![]);
        engine
            .submit(stale, SubmitOpts::based_on(snap0.epoch))
            .unwrap();
        engine.flush();
        let snap = engine.snapshot();
        let g = snap.state.graph();
        assert_eq!(engine.metrics().deltas_rejected, 0);
        assert_eq!(g.edge_count(), 1);
        let e = g.edges().next().unwrap();
        assert_eq!(
            g.vertex_prop(g.edge_src(e), "name"),
            Some(&Value::Str("sink".into())),
            "the rebased edge hangs off the vertex the client meant"
        );
    }

    #[test]
    fn remap_history_rejects_deltas_older_than_retained_remaps() {
        use kaskade_graph::Graph;
        fn remap_of(g: &Graph) -> Arc<kaskade_graph::IdRemap> {
            Arc::new(g.compact().1)
        }
        let mut b = kaskade_graph::GraphBuilder::new();
        let v = b.add_vertex("Job");
        b.add_vertex("Job");
        let g = b.finish().remove_vertices([v]);
        let mut history = RemapHistory::starting_at(0);
        for epoch in 1..=(MAX_REMAP_HISTORY as u64) {
            history.record(epoch, remap_of(&g));
        }
        // everything still retained: a delta based on epoch 0 rebases
        let mut d = GraphDelta::new();
        d.del_vertex(kaskade_graph::VertexId(1));
        assert!(history.rebase(&mut d.clone(), 0).is_ok());
        // one more compaction evicts the oldest remap; epoch-0 deltas
        // can no longer be rebased and must be rejected, never aliased
        history.record(MAX_REMAP_HISTORY as u64 + 1, remap_of(&g));
        assert!(history.rebase(&mut d.clone(), 0).is_err());
        assert!(history.rebase(&mut d, 1).is_ok());
    }

    #[test]
    fn remap_history_seeded_with_start_epoch_rejects_prior_slots() {
        // the post-recovery shape: no retained remaps, but everything
        // before the start epoch is unrebasable for slot-addressed
        // deltas — external-id deltas stay epoch-free
        let history = RemapHistory::starting_at(5);
        let mut slot = GraphDelta::new();
        slot.del_vertex(kaskade_graph::VertexId(0));
        assert!(history.rebase(&mut slot.clone(), 4).is_err());
        assert!(history.rebase(&mut slot, 5).is_ok());
        let mut ext = GraphDelta::new();
        ext.del_vertex_ext(9);
        assert!(history.rebase(&mut ext, 0).is_ok());
        assert_eq!(history.oldest_supported(), 5);
    }

    #[test]
    fn drop_drains_pending_writes() {
        let state = Snapshot::new(lineage(), Schema::provenance());
        let engine = Engine::new(state);
        for _ in 0..10 {
            let mut d = GraphDelta::new();
            d.add_vertex("File", vec![]);
            engine.submit(d, SubmitOpts::default()).unwrap();
        }
        let cell = Arc::clone(&engine.shared.cell);
        drop(engine);
        // all 10 vertices landed (possibly across several batches)
        let snap = cell.load();
        assert_eq!(snap.state.graph().vertex_count(), 13);
    }
}

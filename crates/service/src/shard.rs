//! Sharded serving: the base graph partitioned across per-shard
//! engines, with scatter/gather query execution.
//!
//! ```text
//!                        ┌─ sub-delta ─► shard Engine 0 ─┐ flush
//!  submit(delta) ─► router (split, ├─ sub-delta ─► shard Engine 1 ─┤
//!                   validate,      └─ sub-delta ─► shard Engine N ─┘
//!                   apply global)            │
//!                        ▼                   ▼ merge stats, refresh
//!                  global graph          per-shard stats   views (∥)
//!                        └───────► publish ShardedSnapshot (epoch+1)
//! ```
//!
//! ## Ownership and ghosts
//!
//! A [`Partitioner`] assigns every vertex to exactly one shard; each
//! shard's local graph retains **every vertex slot** (ids stay equal to
//! global ids, so deltas and result rows never need translation) but
//! marks non-owned slots as **ghosts**, and stores exactly the edges
//! whose *source* vertex it owns — a cross-shard edge lives on its
//! source's shard and points at a ghost of the remote endpoint. Ghosts
//! are excluded from statistics, so merging per-shard [`GraphStats`]
//! with [`GraphStats::merge`] reproduces the global statistics
//! exactly.
//!
//! ## Write path
//!
//! The router mirrors the single engine's writer loop — same bounded
//! queue, same backpressure, same batch validation — then
//! [`GraphDelta::split`]s each batch: vertex insertions broadcast
//! (ghost except on the owner), edge operations route to the source's
//! owner, vertex retractions broadcast so each shard cascades its local
//! incident edges. Shard engines apply their sub-deltas **in
//! parallel** (with the coordinator's own global apply overlapping),
//! views refresh delta-incrementally through the
//! [`RefreshDag`] (connector frontiers recompute on one worker thread
//! per shard, level-parallel across views), and the **global epoch
//! publishes only after every shard applied the batch** — a
//! [`ShardedReader`] can never observe shard states from two different
//! publishes.
//!
//! ## Read path
//!
//! Queries plan once against the global snapshot (merged statistics,
//! global view catalog, shared plan cache), then **scatter**: the same
//! pattern plan runs once per shard with the anchor scan restricted to
//! that shard's owned vertices
//! ([`PatternPlan::execute_anchored`](kaskade_query::PatternPlan::execute_anchored)),
//! and **gather** merges the sorted, deduplicated row sets before the
//! relational stage runs once. Every match is anchored at exactly one
//! owner, so cross-shard walks are counted exactly once, and because
//! pattern rows are DISTINCT the merged row set — and therefore the
//! final table, ordering included — is byte-identical to the unsharded
//! engine's (enforced by the differential proptests in
//! `tests/properties.rs`).

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kaskade_core::{
    stage_delta, DdlOp, GraphDelta, Kaskade, KaskadeError, Partition, RefreshDag, RefreshOptions,
    RefreshReport, Snapshot, VRef,
};
use kaskade_graph::{EdgeId, ExternalIdTable, Graph, GraphStats, ParallelExec, VertexId};
use kaskade_query::{PatternPlan, PatternRows, Query, Table};

use crate::engine::{
    collect_batch, enqueue_delta, should_compact, slot_capacity, Engine, EngineConfig, Msg,
    RemapHistory, SubmitError, SubmitOpts,
};
use crate::metrics::{LatencyHistogram, Metrics, MetricsReport};
use crate::plan_cache::{plan_key, PlanCache};
use crate::pool::WorkerPool;
use crate::snapshot::EpochSnapshot;
use crate::trace::{Stage, Tracer};
use crate::wal::{Wal, WalConfig};

/// Assigns every vertex to exactly one shard. Ownership must be a pure
/// function of the vertex's id and type (both immutable for the life of
/// a slot), so a vertex's owner never changes.
pub trait Partitioner: Send + Sync + fmt::Debug {
    /// Number of shards this partitioner distributes over.
    fn shard_count(&self) -> usize;
    /// The shard owning vertex `v` of type `vtype`; must be
    /// `< shard_count()`.
    fn shard_of(&self, v: VertexId, vtype: &str) -> usize;
}

/// SplitMix64 — the same mixer the workload scripts use.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash partitioning of vertex identity (the default): spreads vertices
/// of every type uniformly, so write batches and scatter work balance
/// even under skewed type distributions.
#[derive(Debug, Clone, Copy)]
pub struct HashPartitioner {
    shards: usize,
}

impl HashPartitioner {
    /// A hash partitioner over `shards` shards (min 1).
    pub fn new(shards: usize) -> Self {
        HashPartitioner {
            shards: shards.max(1),
        }
    }
}

impl Partitioner for HashPartitioner {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, v: VertexId, _vtype: &str) -> usize {
        (mix(v.0 as u64) % self.shards as u64) as usize
    }
}

/// By-vertex-type partitioning: every vertex of one type lands on one
/// shard (hash of the type name). Colocates homogeneous scans — e.g.
/// all `Job` vertices on one shard — at the cost of balance on graphs
/// with few types.
#[derive(Debug, Clone, Copy)]
pub struct TypePartitioner {
    shards: usize,
}

impl TypePartitioner {
    /// A by-type partitioner over `shards` shards (min 1).
    pub fn new(shards: usize) -> Self {
        TypePartitioner {
            shards: shards.max(1),
        }
    }
}

impl Partitioner for TypePartitioner {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, _v: VertexId, vtype: &str) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in vtype.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        (mix(h) % self.shards as u64) as usize
    }
}

/// Tuning knobs of the [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The vertex-ownership function (and implicitly the shard count).
    pub partitioner: Arc<dyn Partitioner>,
    /// Maximum queued deltas merged into one apply+publish cycle (same
    /// semantics as [`EngineConfig::max_batch`]).
    pub max_batch: usize,
    /// Capacity of the router's delta queue; a full queue makes
    /// [`ShardedEngine::submit`] fail fast with
    /// [`SubmitError::Backpressure`], exactly like the single engine.
    pub queue_capacity: usize,
    /// Minimum vertex count of a query's target graph before pattern
    /// matching scatters across shard worker threads. Below it the
    /// pattern executes inline on the calling thread (identical
    /// result — an unrestricted anchor scan over the same global
    /// graph), because per-query thread spawn/join would otherwise
    /// dominate trivial matches. Set 0 to always scatter.
    pub scatter_min_vertices: usize,
    /// Dead-slot fraction triggering **coordinated slot compaction**
    /// (same policy as [`EngineConfig::compact_dead_ratio`], default
    /// 0.5; `f64::INFINITY` disables). The router evaluates it on the
    /// global graph, computes one vertex remap, and orders every shard
    /// to apply that same remap before publishing the compacted global
    /// epoch — shard-local ids stay equal to global ids throughout,
    /// and each shard also drops its ghost copies of the dead slots.
    pub compact_dead_ratio: f64,
    /// The tracing subsystem shared by the router and every shard
    /// engine (each shard labels its spans `shardN`), so one flight
    /// recorder sees the whole scatter/fan-out pipeline. `None` creates
    /// a private disabled tracer.
    pub tracer: Option<Arc<Tracer>>,
    /// Worker threads of the engine-wide persistent [`WorkerPool`]
    /// (query scatter, merged publish, parallel view refresh all run on
    /// it — steady-state serving never spawns a thread). `0` sizes the
    /// pool to the machine: available parallelism minus the helping
    /// caller.
    pub pool_threads: usize,
    /// Durability: when set, the **router** appends one epoch-tagged
    /// WAL record per merged batch before the global publish (shard
    /// engines never log — the merged pre-split delta is the durable
    /// unit) and checkpoints the global state every
    /// [`WalConfig::checkpoint_every`] batches.
    /// [`ShardedEngine::recover`] restores and re-partitions on
    /// restart. `None` (the default) serves purely in memory.
    pub wal: Option<WalConfig>,
}

impl ShardedConfig {
    /// Default tuning with hash partitioning over `shards` shards.
    pub fn hash(shards: usize) -> Self {
        ShardedConfig {
            partitioner: Arc::new(HashPartitioner::new(shards)),
            max_batch: 64,
            queue_capacity: 1024,
            scatter_min_vertices: 512,
            compact_dead_ratio: 0.5,
            tracer: None,
            pool_threads: 0,
            wal: None,
        }
    }
}

/// One globally published epoch of the sharded engine: the merged
/// global read state plus the per-shard snapshots it was assembled
/// from, captured atomically at publish time.
#[derive(Debug)]
pub struct ShardedSnapshot {
    /// Monotonic global publish counter (0 = initial state).
    pub epoch: u64,
    /// The global read state: merged base graph, merged statistics,
    /// and the global view catalog. Byte-for-byte what an unsharded
    /// engine would serve.
    pub state: Snapshot,
    /// Each shard's snapshot as of this global publish. The set is
    /// captured once per publish and swapped in atomically with the
    /// global state, so a reader can never mix shard states from two
    /// different global publishes.
    pub shard_states: Vec<Arc<EpochSnapshot>>,
    /// The external-id bindings as of this global publish, in the
    /// **global** id space — `id(v) = <ext>` anchors resolve through
    /// this table and run inline on the global state (a single-slot
    /// probe has nothing to gain from a scatter). Shared, not copied:
    /// the router clones the table only on epochs that changed it.
    pub extids: Arc<ExternalIdTable>,
}

impl ShardedSnapshot {
    /// Whether this snapshot is internally coherent — the *structural*
    /// torn-publish detector: the shard edge partitions sum to the
    /// global edge count, shard-owned vertices sum to the global
    /// vertex count, and the merged per-shard statistics equal the
    /// global statistics. A shard state from a different global
    /// publish (ahead of or behind the global graph) breaks these sums
    /// for any batch that changed that shard.
    pub fn is_coherent(&self) -> bool {
        let edge_sum: usize = self
            .shard_states
            .iter()
            .map(|s| s.state.graph().edge_count())
            .sum();
        let owned_sum: usize = self
            .shard_states
            .iter()
            .map(|s| s.state.graph().owned_vertex_count())
            .sum();
        if edge_sum != self.state.graph().edge_count()
            || owned_sum != self.state.graph().vertex_count()
        {
            return false;
        }
        match GraphStats::merge(self.shard_states.iter().map(|s| s.state.stats())) {
            Some(merged) => merged == *self.state.stats(),
            None => false,
        }
    }
}

/// The single-publisher cell for [`ShardedSnapshot`]s (the sharded
/// analogue of [`crate::SnapshotCell`]).
#[derive(Debug)]
struct ShardedCell {
    epoch: AtomicU64,
    slot: RwLock<Arc<ShardedSnapshot>>,
}

impl ShardedCell {
    fn new(snapshot: ShardedSnapshot) -> Self {
        ShardedCell {
            epoch: AtomicU64::new(snapshot.epoch),
            slot: RwLock::new(Arc::new(snapshot)),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn load(&self) -> Arc<ShardedSnapshot> {
        self.slot.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn publish(&self, snapshot: ShardedSnapshot) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        let epoch = snapshot.epoch;
        *slot = Arc::new(snapshot);
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }
}

/// A per-thread read handle over the sharded engine with a cached
/// snapshot, revalidated with one atomic epoch load per query — the
/// same lock-free hot path as [`crate::Reader`], with snapshot
/// isolation **across all shards**: the cached [`ShardedSnapshot`] is
/// one atomic publish, so a reader can never mix shard states from
/// different global epochs.
#[derive(Debug, Clone)]
pub struct ShardedReader {
    cell: Arc<ShardedCell>,
    cached: Arc<ShardedSnapshot>,
}

impl ShardedReader {
    fn new(cell: Arc<ShardedCell>) -> Self {
        let cached = cell.load();
        ShardedReader { cell, cached }
    }

    /// The current global snapshot (revalidated against the publish
    /// epoch).
    pub fn snapshot(&mut self) -> &Arc<ShardedSnapshot> {
        if self.cell.epoch() != self.cached.epoch {
            self.cached = self.cell.load();
        }
        &self.cached
    }
}

/// State shared between the sharded engine handle, its readers, and
/// the router thread.
#[derive(Debug)]
struct ShardedShared {
    cell: Arc<ShardedCell>,
    cache: PlanCache,
    metrics: Metrics,
    queued: AtomicU64,
    partitioner: Arc<dyn Partitioner>,
    scatter_min_vertices: usize,
    shards: Vec<Engine>,
    tracer: Arc<Tracer>,
    pool: Arc<WorkerPool>,
    /// The router's staleness watermark (see the single engine's
    /// `Shared::oldest_supported`): slot-addressed submissions based
    /// on anything older fail fast with [`SubmitError::StaleEpoch`].
    oldest_supported: AtomicU64,
}

/// A point-in-time metrics report of the sharded engine: the router's
/// aggregate counters plus each shard engine's own report.
#[derive(Debug, Clone)]
pub struct ShardedMetricsReport {
    /// Aggregate counters: queries and latency across all readers,
    /// deltas/batches/backpressure as seen by the router, and the
    /// router's apply+publish timings (global apply, parallel view
    /// refresh, and stats merge).
    pub global: MetricsReport,
    /// Per-shard engine reports; `apply_total` here is the per-shard
    /// ingest time the `serve_sharded` experiment compares against the
    /// single-engine write path.
    pub per_shard: Vec<MetricsReport>,
}

impl ShardedMetricsReport {
    /// One formatted line per shard (ingest counters and apply total)
    /// — the per-shard half of [`Display`](fmt::Display), exposed so
    /// the CLI can append it after its own aggregate rendering without
    /// duplicating the format.
    pub fn per_shard_lines(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (i, shard) in self.per_shard.iter().enumerate() {
            let _ = writeln!(
                out,
                "shard {i:<2}           {} deltas in {} batches (epoch {}, apply total {:?})",
                shard.deltas_applied, shard.batches_published, shard.epoch, shard.apply_total
            );
        }
        out
    }
}

impl fmt::Display for ShardedMetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.global)?;
        f.write_str(&self.per_shard_lines())
    }
}

/// The sharded serving runtime: one [`Engine`] per shard, a router
/// that splits and fans out write batches, and scatter/gather query
/// execution over atomically published global epochs. See the [module
/// docs](self) for the architecture.
#[derive(Debug)]
pub struct ShardedEngine {
    shared: Arc<ShardedShared>,
    tx: mpsc::SyncSender<Msg>,
    router: Option<JoinHandle<()>>,
}

impl ShardedEngine {
    /// Serves `state` partitioned by hash over `shards` shards.
    pub fn new(state: Snapshot, shards: usize) -> Self {
        Self::with_config(state, ShardedConfig::hash(shards))
    }

    /// Serves the current state of a [`Kaskade`] instance over
    /// `shards` hash-partitioned shards.
    pub fn from_kaskade(kaskade: &Kaskade, shards: usize) -> Self {
        Self::new(kaskade.snapshot(), shards)
    }

    /// Serves `state` with explicit partitioning and tuning: partitions
    /// the base graph into per-shard engines (epoch 0 everywhere) and
    /// spawns the router worker. Panics if [`ShardedConfig::wal`] is
    /// set and the log cannot be opened — use
    /// [`ShardedEngine::try_with_config`] to handle that.
    pub fn with_config(state: Snapshot, config: ShardedConfig) -> Self {
        Self::try_with_config(state, config).expect("open write-ahead log")
    }

    /// Serves `state` with explicit partitioning and tuning, surfacing
    /// WAL-open failures instead of panicking. With
    /// [`ShardedConfig::wal`] set, fails (`AlreadyExists`) if the WAL
    /// directory already holds durable state and
    /// [`crate::WalConfig::overwrite`] is off — a fresh start must not
    /// silently wipe a previous run's log.
    pub fn try_with_config(state: Snapshot, config: ShardedConfig) -> std::io::Result<Self> {
        Self::start(state, 0, ExternalIdTable::new(), config, false)
    }

    /// Recovers from the WAL directory in [`ShardedConfig::wal`]
    /// (required): loads the latest valid checkpoint, replays the log,
    /// **re-partitions the recovered global state fresh** across the
    /// configured shards, and resumes serving — and logging — at the
    /// recovered epoch. The recovered global state is
    /// partition-independent (the differential proptests hold sharded
    /// and unsharded engines byte-identical), so a fresh ownership
    /// assignment is always internally consistent. `Ok(None)` means
    /// nothing recoverable; start fresh with
    /// [`ShardedEngine::try_with_config`].
    ///
    /// As with [`Engine::recover`]: pre-restart compaction remaps are
    /// gone, so slot-addressed deltas based on pre-restart epochs fail
    /// with [`SubmitError::StaleEpoch`] after recovery;
    /// external-id-addressed deltas are epoch-free.
    pub fn recover(config: ShardedConfig) -> std::io::Result<Option<Self>> {
        let wal = config.wal.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "ShardedEngine::recover requires ShardedConfig.wal",
            )
        })?;
        match crate::wal::recover(&wal.dir)? {
            None => Ok(None),
            Some(r) => Self::start(r.state, r.epoch, r.extids, config, true).map(Some),
        }
    }

    /// The one constructor behind fresh starts and recovery: partitions
    /// `state` into per-shard engines, publishes it globally at
    /// `epoch`, seats the external-id table in the router, and (when
    /// configured) opens the WAL with a fresh checkpoint. `recovered`
    /// marks the post-recovery reopen, which may collapse the WAL
    /// directory's existing state into the new checkpoint; a fresh
    /// start refuses that (see [`Engine::try_with_config`]).
    fn start(
        state: Snapshot,
        epoch: u64,
        extids: ExternalIdTable,
        config: ShardedConfig,
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
        let partitioner = Arc::clone(&config.partitioner);
        let n = partitioner.shard_count().max(1);
        let schema = state.schema().clone();
        let tracer = config.tracer.unwrap_or_default();
        // one persistent pool for the whole sharded runtime: the
        // router's merged publish, every shard's view refresh, and the
        // read path's query scatter all park the same fixed thread set
        let pool = match config.pool_threads {
            0 => WorkerPool::with_default_threads(),
            t => WorkerPool::new(t),
        };
        let shards: Vec<Engine> = (0..n)
            .map(|s| {
                let p = &*partitioner;
                let g = state.graph();
                let shard_graph = g.shard(&|v| p.shard_of(v, g.vertex_type(v)) == s);
                Engine::with_config(
                    Snapshot::new(shard_graph, schema.clone()),
                    EngineConfig {
                        max_batch: config.max_batch.max(1),
                        // fed only by the router, which flushes every
                        // batch — a handful of slots is plenty
                        queue_capacity: 16,
                        // shards never compact on their own: the
                        // router coordinates one global remap so
                        // shard-local ids stay equal to global ids
                        compact_dead_ratio: f64::INFINITY,
                        // one shared flight recorder across the router
                        // and every shard; the label attributes each
                        // shard engine's spans
                        tracer: Some(Arc::clone(&tracer)),
                        trace_label: format!("shard{s}"),
                        pool: Some(Arc::clone(&pool)),
                        pool_threads: 0,
                        // shards never log: the router's merged
                        // pre-split delta is the durable unit
                        wal: None,
                    },
                )
            })
            .collect();
        let shard_states: Vec<Arc<EpochSnapshot>> = shards.iter().map(|e| e.snapshot()).collect();
        // the router's authoritative ownership table, one entry per
        // vertex slot. Ownership is assigned by the partitioner when a
        // slot is created and NEVER recomputed afterwards: slot
        // compaction renumbers ids, and re-hashing a renumbered id
        // would silently disagree with where the vertex's edges
        // physically live (its ghost marks on the shards). The table
        // is compacted through the very same remaps instead, so it
        // always matches the shard ghost flags slot for slot.
        let owners: Vec<u32> = {
            let g = state.graph();
            (0..g.vertex_slots())
                .map(|i| {
                    let v = VertexId(i as u32);
                    partitioner.shard_of(v, g.vertex_type(v)) as u32
                })
                .collect()
        };
        // per-shard edge translation tables: `edge_global[s][j]` is the
        // global edge id of shard `s`'s (dense) local edge slot `j`.
        // `Graph::shard` keeps a shard's edges in preserved global
        // order, so walking the global live edges in slot order and
        // routing each to its source's owner reproduces every shard's
        // local numbering exactly. The router appends per batch and
        // rebuilds on compaction; the merged publish translates shard
        // CSR rows through these tables.
        let edge_global: Vec<Vec<EdgeId>> = {
            let g = state.graph();
            let mut tables = vec![Vec::new(); n];
            for e in g.edges() {
                tables[owners[g.edge_src(e).index()] as usize].push(e);
            }
            tables
        };
        let extids = Arc::new(extids);
        let shared = Arc::new(ShardedShared {
            cell: Arc::new(ShardedCell::new(ShardedSnapshot {
                epoch,
                state,
                shard_states,
                extids: Arc::clone(&extids),
            })),
            cache: PlanCache::new(),
            metrics: Metrics::new(),
            queued: AtomicU64::new(0),
            partitioner,
            scatter_min_vertices: config.scatter_min_vertices,
            shards,
            tracer,
            pool,
            // seeded with the start epoch: after recovery, pre-restart
            // compaction remaps are gone, so slot-addressed
            // submissions based on pre-restart epochs must fail fast
            oldest_supported: AtomicU64::new(epoch),
        });
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let router_shared = Arc::clone(&shared);
        let max_batch = config.max_batch.max(1);
        let compact_dead_ratio = config.compact_dead_ratio;
        let router = std::thread::Builder::new()
            .name("kaskade-router".into())
            .spawn(move || {
                router_loop(
                    router_shared,
                    rx,
                    max_batch,
                    compact_dead_ratio,
                    owners,
                    edge_global,
                    wal,
                    extids,
                )
            })
            .expect("spawn router worker");
        Ok(ShardedEngine {
            shared,
            tx,
            router: Some(router),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The currently published global snapshot.
    pub fn snapshot(&self) -> Arc<ShardedSnapshot> {
        self.shared.cell.load()
    }

    /// The epoch of the currently published global snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// A per-thread read handle (the lock-free hot path).
    pub fn reader(&self) -> ShardedReader {
        ShardedReader::new(Arc::clone(&self.shared.cell))
    }

    /// Queues a delta for the router. Semantics match
    /// [`Engine::submit`]: self-referential validity is checked here,
    /// references to the base graph at apply time by the router, a
    /// full queue returns [`SubmitError::Backpressure`] with nothing
    /// enqueued, and existing-vertex ids are taken to be in the
    /// currently published epoch's id space unless
    /// [`SubmitOpts::based_on`] says otherwise — then the router
    /// rebases the delta through any coordinated slot compactions
    /// published since.
    pub fn submit(&self, delta: GraphDelta, opts: SubmitOpts) -> Result<(), SubmitError> {
        let based_on = opts.based_on.unwrap_or_else(|| self.shared.cell.epoch());
        let oldest = self.shared.oldest_supported.load(Ordering::Relaxed);
        if based_on < oldest && delta.has_slot_refs() {
            self.shared.metrics.record_stale(1);
            return Err(SubmitError::StaleEpoch {
                oldest_supported: oldest,
            });
        }
        enqueue_delta(
            &self.tx,
            &self.shared.queued,
            &self.shared.metrics,
            delta,
            based_on,
        )
    }

    /// Queues a catalog [`DdlOp`] for the router. Same semantics as
    /// [`Engine::submit_ddl`]: the op is a batch boundary — deltas
    /// queued before it publish first, then the DDL publishes as its
    /// own epoch (WAL-logged before publish, plan cache invalidated
    /// with no carry-forward). Views are materialized over the
    /// **global** graph at the coordinator — shard engines never hold
    /// catalog state — so a DDL epoch republishes the current shard
    /// states unchanged and stays coherent. Returns `false` if the
    /// engine is shutting down.
    pub fn submit_ddl(&self, op: DdlOp) -> bool {
        self.tx.send(Msg::Ddl(op)).is_ok()
    }

    /// Waits until every previously submitted delta is applied on
    /// every shard and globally published; returns the publishing
    /// epoch.
    pub fn flush(&self) -> u64 {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(Msg::Flush(ack_tx)).is_err() {
            return self.shared.cell.epoch();
        }
        ack_rx.recv().unwrap_or_else(|_| self.shared.cell.epoch())
    }

    /// Deltas submitted but not yet globally published.
    pub fn queue_depth(&self) -> u64 {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Plans (through the shared per-epoch plan cache) and executes
    /// `query` scatter/gather against the current global snapshot.
    pub fn execute(&self, query: &Query) -> Result<Table, KaskadeError> {
        let snap = self.shared.cell.load();
        execute_at(&self.shared, &snap, query)
    }

    /// Like [`ShardedEngine::execute`], but against the reader's
    /// cached snapshot — the zero-lock steady-state read path.
    pub fn execute_with(
        &self,
        reader: &mut ShardedReader,
        query: &Query,
    ) -> Result<Table, KaskadeError> {
        let snap = Arc::clone(reader.snapshot());
        execute_at(&self.shared, &snap, query)
    }

    /// Aggregate plus per-shard metrics. The global report's apply
    /// quantiles come from a true cross-shard histogram merge
    /// ([`LatencyHistogram::merge`]) of the router's and every shard's
    /// apply latencies — not from averaging per-shard quantiles.
    pub fn metrics(&self) -> ShardedMetricsReport {
        let mut global = self.shared.metrics.report_with(
            self.shared.cell.epoch(),
            &self.shared.cache,
            self.queue_depth() as usize,
        );
        let merged = LatencyHistogram::default();
        merged.merge(self.shared.metrics.apply_latency());
        for shard in &self.shared.shards {
            merged.merge(shard.metrics_handle().apply_latency());
        }
        global.apply_p50 = merged.quantile(0.50);
        global.apply_p99 = merged.quantile(0.99);
        ShardedMetricsReport {
            global,
            per_shard: self.shared.shards.iter().map(Engine::metrics).collect(),
        }
    }

    /// The tracing subsystem shared by the router and every shard.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.shared.tracer
    }

    /// The persistent worker pool shared by the router, every shard
    /// engine, and the query scatter path. Its
    /// [`WorkerPool::dispatches`] counter (together with
    /// [`kaskade_graph::thread_spawns`]) is the "zero spawns in steady
    /// state" observability hook.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.shared.pool
    }

    /// The per-shard engines (for metrics exposition).
    pub(crate) fn shard_engines(&self) -> &[Engine] {
        &self.shared.shards
    }

    /// The router's live metrics block (for exposition endpoints that
    /// need raw histograms rather than a report).
    pub(crate) fn metrics_handle(&self) -> &Metrics {
        &self.shared.metrics
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // closing the channel signals shutdown; the router drains,
        // publishes, and exits before the shard engines shut down
        let (tx, _) = mpsc::sync_channel(1);
        drop(std::mem::replace(&mut self.tx, tx));
        if let Some(router) = self.router.take() {
            let _ = router.join();
        }
    }
}

/// Plans `query` via the shared cache and executes it scatter/gather
/// against `snap`: the pattern fans out with per-shard anchor ranges,
/// the merged DISTINCT rows feed one relational stage.
fn execute_at(
    shared: &ShardedShared,
    snap: &ShardedSnapshot,
    query: &Query,
) -> Result<Table, KaskadeError> {
    // `id(v) = <ext>` point lookups: resolve through the snapshot's
    // external-id table into a pinned single-slot anchor scan and run
    // inline on the global state — a one-slot probe gains nothing from
    // scatter. Skips the view rewriter and the plan cache, and never
    // feeds the advisor's miss log.
    if let Some((stripped, anchors)) = query.split_extid_anchors() {
        let start = Instant::now();
        let mut root = shared.tracer.span(Stage::Query);
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
    let tracer = &shared.tracer;
    let timing = tracer.is_enabled() || tracer.slow_query_threshold().is_some();
    let start = Instant::now();
    let mut root = tracer.span(Stage::Query);
    root.set_epoch(snap.epoch);
    let key = plan_key(query);
    let mut plan_time = std::time::Duration::ZERO;
    let planned = {
        let mut lookup = root.child(Stage::PlanCacheLookup);
        match shared.cache.get(snap.epoch, &key) {
            Some(plan) => {
                lookup.set_detail("hit".to_string());
                plan
            }
            None => {
                lookup.set_detail("miss".to_string());
                drop(lookup);
                let plan_span = root.child(Stage::Plan);
                let plan_start = timing.then(Instant::now);
                let plan = Arc::new(snap.state.plan(query).map_err(KaskadeError::Inference)?);
                if let Some(t) = plan_start {
                    plan_time = t.elapsed();
                }
                drop(plan_span);
                shared
                    .cache
                    .insert(snap.epoch, key.clone(), Arc::clone(&plan));
                plan
            }
        }
    };
    let target = snap.state.plan_target(&planned)?;
    let rel = root.child(Stage::Relational);
    let exec_start = timing.then(Instant::now);
    let pattern_time = Cell::new(Duration::ZERO);
    let result = kaskade_query::execute_with_pattern(target, &planned.query, &|pattern| {
        let span = rel.child(Stage::PatternMatch);
        let t0 = timing.then(Instant::now);
        let plan = PatternPlan::new(target, pattern)?;
        // below the scatter threshold, per-query thread spawn/join
        // would cost more than the matching itself: run the identical
        // unrestricted plan inline instead
        let rows =
            if shared.shards.len() <= 1 || target.vertex_count() < shared.scatter_min_vertices {
                plan.execute(target)
            } else {
                scatter_gather(shared, snap.epoch, target, &plan, span.id())
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
            // workload sensing for the advisor: credit the serving
            // view, or log the normalized shape of a base-graph miss
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
                    &format!("plan={plan_time:?} pattern={pattern:?} relational={relational:?}"),
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

/// Runs `plan` once per shard on the worker pool, each leg anchored on
/// the shard's owned vertices, and merges the legs' sorted row sets.
/// The scatter, dispatch and gather spans are children of `parent`.
fn scatter_gather(
    shared: &ShardedShared,
    epoch: u64,
    target: &Graph,
    plan: &PatternPlan<'_>,
    parent: u64,
) -> PatternRows {
    let tracer = &shared.tracer;
    let n = shared.shards.len();
    let partitioner = &*shared.partitioner;
    // scatter: one pool task per shard, anchors restricted to the
    // shard's owned vertices (on a view graph the partitioner is
    // still a valid disjoint+exhaustive split of the anchor domain,
    // which is all correctness requires). The persistent pool
    // replaces a per-query thread::scope: steady-state serving
    // spawns no threads.
    let traced = tracer.is_enabled();
    let dispatch_start = Instant::now();
    let slots: Vec<std::sync::Mutex<Option<PatternRows>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    {
        let slots = &slots;
        shared.pool.run(n, &move |s| {
            let scatter_start = Instant::now();
            let anchor = |v: VertexId| partitioner.shard_of(v, target.vertex_type(v)) == s;
            let rows = plan.execute_anchored(target, &anchor);
            if traced {
                tracer.record(
                    Stage::Scatter,
                    parent,
                    scatter_start,
                    scatter_start.elapsed(),
                    epoch,
                    format!("shard{s} rows={}", rows.1.len()),
                );
            }
            *slots[s].lock().expect("scatter slot poisoned") = Some(rows);
        });
    }
    if traced {
        tracer.record(
            Stage::PoolDispatch,
            parent,
            dispatch_start,
            dispatch_start.elapsed(),
            epoch,
            format!("tasks={n}"),
        );
    }
    let per_shard: Vec<PatternRows> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("scatter slot poisoned")
                .expect("scatter task completed")
        })
        .collect();
    let gather_start = Instant::now();
    // gather: per-shard row sets are sorted and disjointly
    // anchored; a streaming k-way merge with on-the-fly dedup
    // reproduces the unsharded DISTINCT row set without
    // re-sorting the concatenation
    let mut columns = Vec::new();
    let mut iters: Vec<std::vec::IntoIter<Vec<VertexId>>> = Vec::with_capacity(n);
    let mut total = 0usize;
    for (cols, rows) in per_shard {
        columns = cols;
        total += rows.len();
        iters.push(rows.into_iter());
    }
    let mut heads: Vec<Option<Vec<VertexId>>> = iters.iter_mut().map(Iterator::next).collect();
    let mut merged: Vec<Vec<VertexId>> = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(row) = head {
                if best.is_none_or(|b| row < heads[b].as_ref().expect("best head present")) {
                    best = Some(i);
                }
            }
        }
        let Some(i) = best else { break };
        let row =
            std::mem::replace(&mut heads[i], iters[i].next()).expect("best head was non-empty");
        if merged.last() != Some(&row) {
            merged.push(row);
        }
    }
    if traced {
        tracer.record(
            Stage::Gather,
            parent,
            gather_start,
            gather_start.elapsed(),
            epoch,
            format!("rows={}", merged.len()),
        );
    }
    (columns, merged)
}

/// The router worker: assembles write batches with the *same*
/// [`collect_batch`] the single engine's writer loop uses (so a delta
/// is accepted or rejected here iff the unsharded engine would make
/// the same call), then fans each batch out to the shard engines and
/// publishes the next global epoch once every shard has applied it.
/// After each publish the router evaluates the slot-compaction policy
/// on the global graph; when it fires, one remap fans out to every
/// shard (keeping shard-local ids equal to global ids) before the
/// compacted global epoch publishes — the same epoch fence as the
/// single engine, coordinated.
#[allow(clippy::too_many_arguments)]
fn router_loop(
    shared: Arc<ShardedShared>,
    rx: mpsc::Receiver<Msg>,
    max_batch: usize,
    mut compact_dead_ratio: f64,
    mut owners: Vec<u32>,
    mut edge_global: Vec<Vec<EdgeId>>,
    mut wal: Option<Wal>,
    mut extids: Arc<ExternalIdTable>,
) {
    let mut state = shared.cell.load().state.clone();
    // nothing has published yet, so the cell still holds the start
    // epoch — the same staleness floor `oldest_supported` was seeded
    // with
    let mut remaps = RemapHistory::starting_at(shared.cell.epoch());
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
            let mut batch_span = tracer.span(Stage::WriteBatch);
            if tracer.is_enabled() {
                batch_span.set_detail(format!("router batched={}", batch.batched));
                if let Some(oldest) = batch.oldest {
                    // the queue wait is over by the time the router
                    // sees the batch; record it retroactively
                    tracer.record(
                        Stage::QueueWait,
                        batch_span.id(),
                        oldest,
                        oldest.elapsed(),
                        shared.cell.epoch(),
                        "router".to_string(),
                    );
                }
            }
            let retractions = batch.delta.del_edges.len() + batch.delta.del_vertices.len();
            let apply_start = Instant::now();
            // owners of the vertices this batch inserts, assigned by
            // the partitioner at their predicted global ids — pushed
            // onto the table only if the batch lands
            let slots = state.graph().vertex_slots();
            let new_owners: Vec<u32> = batch
                .delta
                .vertices
                .iter()
                .enumerate()
                .map(|(i, nv)| {
                    shared
                        .partitioner
                        .shard_of(VertexId((slots + i) as u32), &nv.vtype)
                        as u32
                })
                .collect();
            // a failed fan-out (only possible mid-shutdown) must NOT
            // publish: a global epoch promises every shard applied it
            let apply_span = batch_span.child(Stage::Apply);
            let apply_id = apply_span.id();
            let advanced = advance(
                &shared,
                &state,
                &batch.delta,
                &owners,
                &new_owners,
                &mut edge_global,
                apply_id,
            );
            drop(apply_span);
            if let Some((next, shard_states, report)) = advanced {
                // group commit: one durable record for the merged
                // pre-split batch (shards never log), written strictly
                // before the global publish — same fail-stop contract
                // as the single engine's writer
                if let Some(w) = wal.as_mut() {
                    w.append_batch(shared.cell.epoch() + 1, &batch.delta)
                        .expect("WAL append failed; refusing to publish an unlogged batch");
                }
                for (i, nv) in batch.delta.vertices.iter().enumerate() {
                    if let Some(ext) = nv.ext {
                        Arc::make_mut(&mut extids)
                            .insert(ext, VertexId((slots + i) as u32))
                            .expect("resolution admitted a duplicate external id");
                    }
                }
                for &v in &batch.delta.del_vertices {
                    if extids.ext_of(v).is_some() {
                        Arc::make_mut(&mut extids).remove_slot(v);
                    }
                }
                state = next;
                owners.extend(new_owners);
                let epoch = shared.cell.epoch() + 1;
                {
                    let mut publish_span = batch_span.child(Stage::Publish);
                    publish_span.set_epoch(epoch);
                    shared.cell.publish(ShardedSnapshot {
                        epoch,
                        state: state.clone(),
                        shard_states,
                        extids: Arc::clone(&extids),
                    });
                }
                shared.cache.promote(epoch);
                for stat in &report.per_view {
                    let name = state
                        .catalog()
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
                let lag = batch.oldest.map(|t| t.elapsed()).unwrap_or_default();
                shared
                    .metrics
                    .record_refresh(batch.batched, apply_start.elapsed(), lag);
                if retractions > 0 {
                    shared.metrics.record_retractions(retractions);
                }
            }
        }
        if let Some(op) = &batch.ddl {
            let mut ddl_span = shared.tracer.span(Stage::Ddl);
            if let Some(w) = wal.as_mut() {
                w.append_ddl(shared.cell.epoch() + 1, op)
                    .expect("WAL append failed; refusing to publish an unlogged DDL");
            }
            // views are materialized over the GLOBAL graph at the
            // coordinator; shard engines hold empty catalogs, so there
            // is nothing to fan out — the DDL epoch republishes the
            // current shard states unchanged, and the coherence sums
            // (edges, owned vertices, statistics) are untouched
            state = state.apply_ddl(op);
            let epoch = shared.cell.epoch() + 1;
            let shard_states = shared.cell.load().shard_states.clone();
            shared.cell.publish(ShardedSnapshot {
                epoch,
                state: state.clone(),
                shard_states,
                extids: Arc::clone(&extids),
            });
            // the catalog changed: no cached plan may survive into the
            // new epoch (a plan naming a dropped ViewId, or planned
            // blind to a just-created view, would be wrong) — prune
            // without promoting, so the DDL epoch replans from scratch
            shared.cache.prune_below(epoch);
            let detail = match op {
                DdlOp::CreateView(def) => {
                    shared.metrics.record_view_created();
                    format!("create {}", def.id())
                }
                DdlOp::DropView(id) => {
                    shared.metrics.record_view_dropped();
                    format!("drop {id}")
                }
            };
            ddl_span.set_epoch(epoch);
            ddl_span.set_detail(detail);
        }
        if should_compact(state.graph(), compact_dead_ratio) {
            let mut compact_span = shared.tracer.span(Stage::Compact);
            let before = slot_capacity(state.graph());
            let (next, remap) = state.compact();
            let remap = Arc::new(remap);
            // every shard applies the identical vertex remap, so
            // shard-local ids stay equal to global ids and each shard
            // drops its ghost copies of the dead slots; the global
            // epoch publishes only after all shards confirmed
            let fanned_out = shared
                .shards
                .iter()
                .all(|shard| shard.submit_compact(Arc::clone(&remap)));
            if fanned_out {
                let shard_states: Vec<Arc<EpochSnapshot>> = shared
                    .shards
                    .iter()
                    .map(|shard| {
                        shard.flush();
                        shard.snapshot()
                    })
                    .collect();
                state = next;
                // the ownership table compacts through the same remap
                owners = owners
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| remap.vertex(VertexId(i as u32)).is_some())
                    .map(|(_, &o)| o)
                    .collect();
                // edge ids renumbered too: rebuild the shard-local →
                // global edge translation tables from the compacted
                // graph (every surviving edge is live, and each shard
                // compacted through the identical remap, so slot order
                // is preserved on both sides)
                for table in edge_global.iter_mut() {
                    table.clear();
                }
                let g = state.graph();
                for e in g.edges() {
                    edge_global[owners[g.edge_src(e).index()] as usize].push(e);
                }
                let epoch = shared.cell.epoch() + 1;
                // compaction is deterministic, so the log records only
                // a marker; replay re-runs `compact()` on the recovered
                // state and lands on the identical renumbering
                if let Some(w) = wal.as_mut() {
                    w.append_compact(epoch)
                        .expect("WAL append failed; refusing to publish an unlogged compaction");
                }
                Arc::make_mut(&mut extids).remap(&remap);
                shared.cell.publish(ShardedSnapshot {
                    epoch,
                    state: state.clone(),
                    shard_states,
                    extids: Arc::clone(&extids),
                });
                shared.cache.promote(epoch);
                let reclaimed = before - slot_capacity(state.graph());
                shared.metrics.record_compaction(reclaimed);
                compact_span.set_epoch(epoch);
                compact_span.set_detail(format!("reclaimed={reclaimed}"));
                remaps.record(epoch, remap);
                shared
                    .oldest_supported
                    .store(remaps.oldest_supported(), Ordering::Relaxed);
            } else {
                // a shard refused the remap (its writer is gone —
                // shutdown or a dead worker). Some shards may already
                // have compacted, so retrying with a remap computed
                // from the still-uncompacted router state would panic
                // their writers on a slot-count mismatch: stop
                // compacting for the rest of this engine's life. Batch
                // publishes already stop on their own (`advance`
                // returns `None` once any shard is unreachable).
                compact_dead_ratio = f64::INFINITY;
            }
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

/// Applies one validated batch across the shards and derives the next
/// global state plus the per-shard snapshots it was built from:
/// sub-deltas fan out first, the coordinator stages the batch's
/// mutations (deaths, ghosts, new columns) into an editor while the
/// shard applies run, and the merged global CSR is then assembled
/// **from the shard CSRs** by parallel copy on the worker pool — the
/// coordinator never re-runs the full `apply_delta` adjacency build.
/// Views refresh with pool workers, statistics come from the per-shard
/// merge. Returns `None` — and the caller must not publish — if a
/// shard refused or missed its sub-delta (only possible mid-shutdown);
/// `edge_global` is only extended once every shard has confirmed, so a
/// bailed batch never pollutes the translation tables. The returned
/// [`RefreshReport`] carries the per-view timings the router feeds
/// into metrics and the flight recorder.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn advance(
    shared: &ShardedShared,
    state: &Snapshot,
    batch: &GraphDelta,
    owners: &[u32],
    new_owners: &[u32],
    edge_global: &mut [Vec<EdgeId>],
    apply_id: u64,
) -> Option<(Snapshot, Vec<Arc<EpochSnapshot>>, RefreshReport)> {
    let partitioner = &*shared.partitioner;
    let n = shared.shards.len();
    let g = state.graph();
    let slots = g.vertex_slots();
    debug_assert_eq!(owners.len(), slots, "ownership table tracks every slot");
    debug_assert_eq!(new_owners.len(), batch.vertices.len());
    // ownership comes from the router's tables, never from re-hashing
    // the id: compaction renumbers ids, and an edge must keep routing
    // to the shard that actually stores its source (the slot's owner
    // of record, assigned once at insert time). `new_owners` — the
    // entries the caller will append to the table when this batch
    // lands — is the single source of truth for the batch's own
    // inserts, so routing and the table cannot drift apart.
    let owner_existing = |v: VertexId| {
        if v.index() < slots {
            owners[v.index()] as usize
        } else {
            // a reference to a vertex this very batch inserts, by its
            // predicted global id
            new_owners[v.index() - slots] as usize
        }
    };
    let owner_new = |i: usize| new_owners[i] as usize;

    // 1. fan the batch out; shard workers start applying immediately
    for (s, sub) in batch
        .split(n, &owner_existing, &owner_new)
        .into_iter()
        .enumerate()
    {
        if sub.is_empty() {
            continue;
        }
        loop {
            match shared.shards[s].submit(sub.clone(), SubmitOpts::default()) {
                Ok(()) => break,
                // cannot happen in steady state (the router flushes
                // every batch, so a shard queue holds at most one
                // delta), but drain defensively rather than drop
                Err(SubmitError::Backpressure) => {
                    shared.shards[s].flush();
                }
                Err(_) => return None, // shutting down mid-flight
            }
        }
    }

    // 2. stage the batch's mutations while the shard applies run: the
    //    editor clones the global columns (property columns chunked
    //    across the pool) and `stage_delta` computes the exact deaths,
    //    ghosts, and appended columns `apply_delta` would — everything
    //    EXCEPT the adjacency build, which step 5 copies from the
    //    shard CSRs instead of recomputing
    let mut ed = g.edit_parallel(&*shared.pool);
    let staged = stage_delta(g, batch, &mut ed);

    // 3. barrier: the global epoch must not publish before every shard
    //    has applied the batch; capture each shard's snapshot once —
    //    the router is the sole submitter, so these are exactly the
    //    states the published epoch pairs with
    let shard_states: Vec<Arc<EpochSnapshot>> = shared
        .shards
        .iter()
        .map(|shard| {
            shard.flush();
            shard.snapshot()
        })
        .collect();
    let shard_graphs: Vec<Graph> = shard_states
        .iter()
        .map(|s| s.state.graph().clone())
        .collect();

    // 4. coherence guard: a shard that shut down mid-flight may have
    //    missed the batch, leaving its CSR one epoch behind. Merging
    //    from a stale CSR would corrupt the global graph, so verify
    //    every shard's slot counts line up with what this batch
    //    implies BEFORE the translation tables are extended — a bailed
    //    batch leaves `edge_global` untouched.
    let mut routed_new = vec![0usize; n];
    for e in &batch.edges {
        let owner = match e.src {
            VRef::Existing(v) => owner_existing(v),
            VRef::New(i) => owner_new(i),
            VRef::External(_) => unreachable!("external refs are resolved before split"),
        };
        routed_new[owner] += 1;
    }
    for (s, sg) in shard_graphs.iter().enumerate() {
        if sg.vertex_slots() != slots + batch.vertices.len()
            || sg.edge_slots() != edge_global[s].len() + routed_new[s]
        {
            return None;
        }
    }
    let edge_slots = g.edge_slots();
    for (k, e) in batch.edges.iter().enumerate() {
        let owner = match e.src {
            VRef::Existing(v) => owner_existing(v),
            VRef::New(i) => owner_new(i),
            VRef::External(_) => unreachable!("external refs are resolved before split"),
        };
        edge_global[owner].push(EdgeId((edge_slots + k) as u32));
    }

    // 5. merged publish: workers copy disjoint regions of the global
    //    CSR straight out of the shard CSRs (out-rows translated
    //    through `edge_global`, in-rows k-way merged back into global
    //    edge order) — byte-identical to the serial `apply_delta`
    //    result, at memcpy speed
    let mut all_owners = Vec::with_capacity(owners.len() + new_owners.len());
    all_owners.extend_from_slice(owners);
    all_owners.extend_from_slice(new_owners);
    let merge_start = Instant::now();
    let graph = ed.finish_merged(&shard_graphs, &all_owners, edge_global, &*shared.pool);
    if shared.tracer.is_enabled() {
        shared.tracer.record(
            Stage::MergePublish,
            apply_id,
            merge_start,
            merge_start.elapsed(),
            shared.cell.epoch(),
            format!(
                "shards={n} vertices={} edges={}",
                graph.vertex_count(),
                graph.edge_count()
            ),
        );
    }
    let applied = staged.into_applied(graph, g.clone());

    // 6. refresh views over the new global base through the refresh
    //    DAG: delta-driven per view, level-parallel across views on
    //    the persistent pool, connector frontiers recomputed one pool
    //    task per shard
    let part = |v: VertexId| partitioner.shard_of(v, applied.graph.vertex_type(v));
    let dag = RefreshDag::build(state.catalog());
    let (catalog, report) = dag.refresh(
        state.catalog(),
        &applied,
        &RefreshOptions {
            parallel: true,
            partition: Some(Partition {
                part_of: &part,
                parts: n,
            }),
            exec: Some(&*shared.pool),
        },
    );
    shared
        .metrics
        .record_view_refresh(report.refreshed as u64, report.rematerialized as u64);

    // 7. global statistics are the merge of the per-shard statistics
    let stats = GraphStats::merge(shard_states.iter().map(|s| s.state.stats()))
        .unwrap_or_else(|| GraphStats::compute(&applied.graph));

    let next = Snapshot::assemble(applied.graph, state.schema().clone(), stats, catalog);
    Some((next, shard_states, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_core::{ConnectorDef, Kaskade, VRef, ViewDef};
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_graph::{Graph, GraphBuilder, Schema, Value};
    use kaskade_query::{listings::LISTING_1, parse};

    fn instance(seed: u64) -> Kaskade {
        let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        k
    }

    /// A sharded engine that always scatters, so these tests exercise
    /// the fan-out read path even on tiny graphs.
    fn scatter_engine(k: &Kaskade, shards: usize) -> ShardedEngine {
        ShardedEngine::with_config(
            k.snapshot(),
            ShardedConfig {
                scatter_min_vertices: 0,
                ..ShardedConfig::hash(shards)
            },
        )
    }

    fn sorted_rows(t: &Table) -> Vec<String> {
        let mut rows: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    }

    #[test]
    fn partitioners_cover_all_shards_disjointly() {
        for p in [
            &HashPartitioner::new(4) as &dyn Partitioner,
            &TypePartitioner::new(4),
        ] {
            assert_eq!(p.shard_count(), 4);
            for i in 0..100u32 {
                let s = p.shard_of(VertexId(i), if i % 2 == 0 { "Job" } else { "File" });
                assert!(s < 4);
                // deterministic
                assert_eq!(
                    s,
                    p.shard_of(VertexId(i), if i % 2 == 0 { "Job" } else { "File" })
                );
            }
        }
        // by-type puts every vertex of one type on one shard
        let tp = TypePartitioner::new(3);
        let jobs: Vec<usize> = (0..10).map(|i| tp.shard_of(VertexId(i), "Job")).collect();
        assert!(jobs.iter().all(|&s| s == jobs[0]));
    }

    #[test]
    fn sharded_results_match_unsharded_under_writes() {
        let k = instance(91);
        let query = parse(LISTING_1).unwrap();
        for shards in [1usize, 3] {
            let single = Engine::from_kaskade(&k);
            let sharded = scatter_engine(&k, shards);
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(
                sorted_rows(&sharded.execute(&query).unwrap()),
                sorted_rows(&single.execute(&query).unwrap()),
                "epoch 0, {shards} shards"
            );

            // stream identical deltas into both, compare after flush
            for step in 0..12u64 {
                let state = single.snapshot();
                let delta = crate::stream::churn_delta(&state.state, step).unwrap();
                single.submit(delta.clone(), SubmitOpts::default()).unwrap();
                sharded.submit(delta, SubmitOpts::default()).unwrap();
                single.flush();
                sharded.flush();
            }
            // scatter/gather reproduces the unsharded table exactly,
            // ordering included
            assert_eq!(
                single.execute(&query).unwrap(),
                sharded.execute(&query).unwrap(),
                "{shards} shards"
            );
            let snap = sharded.snapshot();
            assert!(snap.is_coherent());
            assert!(crate::drive::snapshot_is_consistent(&snap.state));
        }
    }

    #[test]
    fn global_epoch_publishes_only_complete_batches() {
        let engine = ShardedEngine::from_kaskade(&instance(92), 4);
        let mut reader = engine.reader();
        assert_eq!(reader.snapshot().epoch, 0);
        let mut d = GraphDelta::new();
        let j = d.add_vertex("Job", vec![("CPU".into(), Value::Int(1))]);
        let f = d.add_vertex("File", vec![]);
        d.add_edge(j, f, "WRITES_TO", vec![("ts".into(), Value::Int(1))]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        let epoch = engine.flush();
        assert!(epoch >= 1);
        let snap = reader.snapshot();
        assert_eq!(snap.epoch, epoch);
        assert!(snap.is_coherent(), "all shard states from one publish");
        // the broadcast vertices exist on every shard, ghost except on
        // their owner
        let new_job = VertexId((snap.state.graph().vertex_slots() - 2) as u32);
        let owners: Vec<bool> = snap
            .shard_states
            .iter()
            .map(|s| !s.state.graph().is_vertex_ghost(new_job))
            .collect();
        assert_eq!(owners.iter().filter(|&&o| o).count(), 1);
    }

    #[test]
    fn retractions_flow_through_the_sharded_engine() {
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        b.add_edge(j0, f0, "WRITES_TO");
        b.add_edge(f0, j1, "IS_READ_BY");
        let g = b.finish();
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let engine = scatter_engine(&k, 2);
        let q = parse(
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             (f:File)-[:IS_READ_BY]->(b:Job) RETURN a AS A, b AS B)",
        )
        .unwrap();
        assert_eq!(
            engine.execute(&q).unwrap().scalar().unwrap().as_int(),
            Some(1)
        );
        let mut d = GraphDelta::new();
        d.del_vertex(f0);
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        assert_eq!(
            engine.execute(&q).unwrap().scalar().unwrap().as_int(),
            Some(0)
        );
        let snap = engine.snapshot();
        assert_eq!(snap.state.graph().edge_count(), 0);
        assert!(snap.is_coherent());
        // every shard cascaded its local incident edges
        let shard_edges: usize = snap
            .shard_states
            .iter()
            .map(|s| s.state.graph().edge_count())
            .sum();
        assert_eq!(shard_edges, 0);
        assert_eq!(engine.metrics().global.retractions_applied, 1);
    }

    #[test]
    fn invalid_deltas_rejected_by_router_not_shards() {
        let engine = ShardedEngine::from_kaskade(&instance(93), 3);
        // dangling base reference: dropped by the router at apply time
        let mut dangling = GraphDelta::new();
        let v = dangling.add_vertex("File", vec![]);
        dangling.add_edge(VRef::Existing(VertexId(99_999)), v, "WRITES_TO", vec![]);
        engine.submit(dangling, SubmitOpts::default()).unwrap();
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.global.deltas_rejected, 1);
        // no shard ever saw the bad delta
        assert!(m.per_shard.iter().all(|s| s.deltas_rejected == 0));
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn plan_cache_serves_repeated_sharded_queries() {
        let engine = scatter_engine(&instance(94), 2);
        let q = parse(LISTING_1).unwrap();
        for _ in 0..4 {
            engine.execute(&q).unwrap();
        }
        let m = engine.metrics().global;
        assert_eq!(m.queries, 4);
        assert_eq!(m.plan_cache_misses, 1);
        assert_eq!(m.plan_cache_hits, 3);
    }

    #[test]
    fn sharded_metrics_display_lists_shards() {
        let engine = ShardedEngine::from_kaskade(&instance(95), 2);
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        let text = engine.metrics().to_string();
        assert!(text.contains("shard 0"), "{text}");
        assert!(text.contains("shard 1"), "{text}");
    }

    #[test]
    fn type_partitioned_engine_stays_equivalent() {
        let k = instance(96);
        let single = Engine::from_kaskade(&k);
        let sharded = ShardedEngine::with_config(
            k.snapshot(),
            ShardedConfig {
                partitioner: Arc::new(TypePartitioner::new(3)),
                max_batch: 8,
                queue_capacity: 64,
                scatter_min_vertices: 0,
                ..ShardedConfig::hash(3)
            },
        );
        let query = parse(LISTING_1).unwrap();
        for step in 0..8u64 {
            let state = single.snapshot();
            let delta = crate::stream::scripted_delta(&state.state, step).unwrap();
            single.submit(delta.clone(), SubmitOpts::default()).unwrap();
            sharded.submit(delta, SubmitOpts::default()).unwrap();
            single.flush();
            sharded.flush();
        }
        assert_eq!(
            single.execute(&query).unwrap(),
            sharded.execute(&query).unwrap()
        );
        assert!(sharded.snapshot().is_coherent());
    }

    #[test]
    fn coordinated_compaction_keeps_shards_aligned_and_coherent() {
        // a chain graph churned with delete-then-reinsert turnover:
        // the router must compact the global graph AND every shard
        // with one shared remap, keeping shard slots equal to global
        // slots and scatter/gather reads correct throughout
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> = (0..24).map(|_| b.add_vertex("Job")).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], "SPAWNS");
        }
        let g = b.finish();
        let live = g.vertex_count() + g.edge_count();
        let engine = ShardedEngine::with_config(
            Snapshot::new(g, Schema::provenance()),
            ShardedConfig {
                scatter_min_vertices: 0,
                ..ShardedConfig::hash(3)
            },
        );
        let q =
            parse("SELECT COUNT(*) FROM (MATCH (a:Job)-[:SPAWNS]->(b:Job) RETURN a AS A, b AS B)")
                .unwrap();
        let expected = engine.execute(&q).unwrap();
        for round in 0..160u64 {
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
        assert!(report.global.compactions_run >= 1, "{report:?}");
        assert!(report.global.slots_reclaimed > 0);
        assert_eq!(report.global.deltas_rejected, 0, "{report:?}");
        // every shard compacted with the router (one compaction each)
        for (i, shard) in report.per_shard.iter().enumerate() {
            assert_eq!(
                shard.compactions_run, report.global.compactions_run,
                "shard {i} out of step: {report:?}"
            );
        }
        let snap = engine.snapshot();
        assert!(snap.is_coherent());
        let g = snap.state.graph();
        assert_eq!(g.vertex_count() + g.edge_count(), live);
        let capacity = g.vertex_slots() + g.edge_slots();
        assert!(capacity <= 2 * live, "capacity {capacity} vs live {live}");
        // shard slots stayed aligned with the global graph's
        for state in &snap.shard_states {
            assert_eq!(state.state.graph().vertex_slots(), g.vertex_slots());
        }
        // scatter/gather answers are unchanged by the renumbering
        assert_eq!(engine.execute(&q).unwrap(), expected);
        assert!(crate::drive::snapshot_is_consistent(&snap.state));
    }

    #[test]
    fn ddl_publishes_coherent_epochs_through_the_router() {
        use kaskade_core::ViewId;
        let k = instance(98); // one 2-hop Job→Job view at slot 0
        let engine = scatter_engine(&k, 3);
        let epoch0 = engine.epoch();
        let def = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 4));
        assert!(engine.submit_ddl(DdlOp::CreateView(def.clone())));
        engine.flush();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch, epoch0 + 1, "a DDL publishes its own epoch");
        assert!(snap.is_coherent(), "DDL reuses the current shard states");
        let created = snap.state.catalog().get(&def.id()).expect("view created");
        // materialized over the GLOBAL graph, not a shard fragment
        let mut scratch = Kaskade::new(snap.state.graph().clone(), Schema::provenance());
        scratch.materialize_view(def.clone());
        let scratch_view = scratch.snapshot().catalog().get(&def.id()).unwrap().clone();
        assert_eq!(created.graph.edge_count(), scratch_view.graph.edge_count());

        assert!(engine.submit_ddl(DdlOp::DropView(ViewId(0))));
        engine.flush();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch, epoch0 + 2);
        assert!(snap.is_coherent());
        assert_eq!(
            snap.state.catalog().slot_count(),
            2,
            "slot stays tombstoned"
        );
        assert!(snap.state.catalog().get_by_id(ViewId(0)).is_none());
        let m = engine.metrics();
        assert_eq!(m.global.views_created, 1);
        assert_eq!(m.global.views_dropped, 1);

        // writes keep flowing and refresh the post-DDL catalog
        let mut d = GraphDelta::new();
        let j = d.add_vertex("Job", vec![]);
        let f = d.add_vertex("File", vec![]);
        d.add_edge(j, f, "WRITES_TO", vec![]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        let snap = engine.snapshot();
        assert!(snap.is_coherent());
        assert!(crate::drive::snapshot_is_consistent(&snap.state));
    }

    #[test]
    fn shard_bootstrap_partitions_the_initial_graph() {
        let k = instance(97);
        let engine = ShardedEngine::from_kaskade(&k, 4);
        let snap = engine.snapshot();
        assert_eq!(snap.epoch, 0);
        assert!(snap.is_coherent());
        let global: &Graph = snap.state.graph();
        let shard_edges: usize = snap
            .shard_states
            .iter()
            .map(|s| s.state.graph().edge_count())
            .sum();
        assert_eq!(shard_edges, global.edge_count());
    }
}

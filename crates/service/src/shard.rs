//! Partitioned serving: the base graph split into shard partitions of
//! the one [`Engine`], with scatter/gather query execution.
//!
//! ```text
//!                          ┌─ sub-delta ─► shard 0 apply ─┐
//!  writer loop: batch ─► split ─ sub-delta ─► shard 1 apply ─┤ one pool.run
//!                          ├─ sub-delta ─► shard N apply ─┤
//!                          └─ stage_delta on the global ──┘
//!                                      │
//!                    merged publish from the shard CSRs, refresh views (∥),
//!                    merge shard stats ─► publish epoch+1 with shard states
//! ```
//!
//! A shard is not an engine: it is a catalog-free [`Snapshot`] (shard
//! CSR + owned-vertex statistics) plus its rows of the ownership table,
//! applied by the engine's single writer on the [`WorkerPool`]. No shard
//! has a thread, queue, plan cache or metrics block of its own.
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
//! The writer validates each batch exactly as for one partition, then
//! [`GraphDelta::split`]s it: vertex insertions broadcast (ghost except
//! on the owner), edge operations route to the source's owner, vertex
//! retractions broadcast so each shard cascades its local incident
//! edges. One pool dispatch applies every sub-delta to its shard while
//! one more task stages the batch's mutations on the global graph; the
//! global CSR is then assembled from the shard CSRs
//! ([`GraphEditor::finish_merged`](kaskade_graph::GraphEditor::finish_merged)),
//! views refresh through the [`RefreshDag`] (connector frontiers
//! recomputed one pool task per shard), and the global epoch publishes
//! together with the shard states it was built from — a reader can
//! never observe shard states from two different publishes
//! ([`EpochSnapshot::is_coherent`]).
//!
//! ## Read path
//!
//! Queries plan once against the global snapshot (merged statistics,
//! global view catalog, one plan cache), then **scatter**: the same
//! pattern plan runs once per shard with the anchor scan restricted to
//! that shard's owned vertices
//! ([`PatternPlan::execute_anchored`](kaskade_query::PatternPlan::execute_anchored)),
//! and **gather** merges the sorted, deduplicated row sets before the
//! relational stage runs once. Every match is anchored at exactly one
//! owner, so cross-shard walks are counted exactly once, and because
//! pattern rows are DISTINCT the merged row set — and therefore the
//! final table, ordering included — is byte-identical to the
//! unpartitioned engine's (enforced by the differential proptests in
//! `tests/properties.rs`).

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kaskade_core::{
    stage_delta, GraphDelta, Kaskade, KaskadeError, Partition, RefreshDag, RefreshOptions,
    RefreshReport, Snapshot, VRef,
};
use kaskade_graph::{EdgeId, ExternalIdTable, Graph, GraphStats, IdRemap, VertexId};
use kaskade_query::{PatternPlan, PatternRows, Query, Table};

use crate::engine::{Engine, EngineConfig, Shared, SubmitError, SubmitOpts};
use crate::metrics::MetricsReport;
use crate::pool::WorkerPool;
use crate::snapshot::{EpochSnapshot, Reader};
use crate::trace::{Stage, Tracer};

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

/// Tuning of a partitioned engine: the one [`EngineConfig`], built with
/// [`EngineConfig::hash`].
pub type ShardedConfig = EngineConfig;

/// A published epoch of a partitioned engine: an [`EpochSnapshot`]
/// whose `shard_states` hold the partitions it was assembled from.
pub type ShardedSnapshot = EpochSnapshot;

/// A per-thread read handle over a partitioned engine: the one
/// [`Reader`].
pub type ShardedReader = Reader;

/// A point-in-time metrics report of a partitioned engine: the
/// engine-wide report plus one report per partition.
#[derive(Debug, Clone)]
pub struct ShardedMetricsReport {
    /// Engine-wide counters: queries and latency across all readers,
    /// deltas/batches/backpressure, and the end-to-end batch
    /// apply+publish distribution.
    pub global: MetricsReport,
    /// Per-partition reports ([`Engine::shard_reports`]): the
    /// shard-local apply distribution of each partition.
    pub per_shard: Vec<MetricsReport>,
}

/// One formatted line per partition (sub-deltas applied and apply
/// total) — what the CLI appends after the engine-wide report.
pub fn per_shard_lines(per_shard: &[MetricsReport]) -> String {
    use fmt::Write;
    let mut out = String::new();
    for (i, shard) in per_shard.iter().enumerate() {
        let _ = writeln!(
            out,
            "shard {i:<2}           {} sub-deltas (epoch {}, apply total {:?})",
            shard.deltas_applied, shard.epoch, shard.apply_total
        );
    }
    out
}

impl fmt::Display for ShardedMetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.global)?;
        f.write_str(&per_shard_lines(&self.per_shard))
    }
}

/// An [`Engine`] built with hash partitioning — a thin handle over the
/// one engine (it derefs to it) that keeps the partitioned constructor
/// and report shapes.
#[derive(Debug)]
pub struct ShardedEngine(Engine);

impl ShardedEngine {
    /// Serves `state` partitioned by hash over `shards` partitions.
    pub fn new(state: Snapshot, shards: usize) -> Self {
        Self::with_config(state, ShardedConfig::hash(shards))
    }

    /// Serves the current state of a [`Kaskade`] instance over
    /// `shards` hash partitions.
    pub fn from_kaskade(kaskade: &Kaskade, shards: usize) -> Self {
        Self::new(kaskade.snapshot(), shards)
    }

    /// See [`Engine::with_config`].
    pub fn with_config(state: Snapshot, config: ShardedConfig) -> Self {
        ShardedEngine(Engine::with_config(state, config))
    }

    /// See [`Engine::try_with_config`].
    pub fn try_with_config(state: Snapshot, config: ShardedConfig) -> std::io::Result<Self> {
        Engine::try_with_config(state, config).map(ShardedEngine)
    }

    /// See [`Engine::recover`]: the recovered state is partitioned
    /// afresh over the configured shards.
    pub fn recover(config: ShardedConfig) -> std::io::Result<Option<Self>> {
        Ok(Engine::recover(config)?.map(ShardedEngine))
    }

    /// See [`Engine::execute`].
    pub fn execute(&self, query: &Query) -> Result<Table, KaskadeError> {
        self.0.execute(query)
    }

    /// See [`Engine::submit`].
    pub fn submit(&self, delta: GraphDelta, opts: SubmitOpts) -> Result<(), SubmitError> {
        self.0.submit(delta, opts)
    }

    /// See [`Engine::flush`].
    pub fn flush(&self) -> u64 {
        self.0.flush()
    }

    /// See [`Engine::epoch`].
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    /// See [`Engine::tracer`].
    pub fn tracer(&self) -> &Arc<Tracer> {
        self.0.tracer()
    }

    /// See [`Engine::snapshot`].
    pub fn snapshot(&self) -> Arc<ShardedSnapshot> {
        self.0.snapshot()
    }

    /// The engine-wide report plus one report per partition.
    pub fn metrics(&self) -> ShardedMetricsReport {
        ShardedMetricsReport {
            global: self.0.metrics(),
            per_shard: self.0.shard_reports(),
        }
    }
}

impl Deref for ShardedEngine {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.0
    }
}

/// The writer's partition state: the ownership table, the shard-local →
/// global edge translation, and each shard's current state. Owned by
/// the writer loop; readers see the shard states only through the
/// published [`EpochSnapshot::shard_states`].
pub(crate) struct Partitions {
    partitioner: Arc<dyn Partitioner>,
    /// The authoritative ownership table, one entry per vertex slot.
    /// Ownership is assigned by the partitioner when a slot is created
    /// and NEVER recomputed afterwards: slot compaction renumbers ids,
    /// and re-hashing a renumbered id would silently disagree with
    /// where the vertex's edges physically live (its ghost marks on the
    /// shards). The table is compacted through the very same remaps
    /// instead, so it always matches the shard ghost flags slot for
    /// slot.
    owners: Vec<u32>,
    /// `edge_global[s][j]` is the global edge id of shard `s`'s local
    /// edge slot `j`. `Graph::shard` keeps a shard's edges in preserved
    /// global order, so routing the global edges to their source's
    /// owner in slot order reproduces every shard's local numbering.
    /// Appended per batch, rebuilt on compaction; the merged publish
    /// translates shard CSR rows through these tables.
    edge_global: Vec<Vec<EdgeId>>,
    /// Each shard's state as of the last publish.
    shards: Vec<Arc<EpochSnapshot>>,
    /// The (empty) external-id table every shard state carries: ids
    /// bind on the global state only.
    no_extids: Arc<ExternalIdTable>,
}

impl Partitions {
    /// Partitions `state` (published at `epoch`) over the
    /// partitioner's shards; `None` for a single partition, which
    /// serves the global state directly.
    pub(crate) fn new(
        partitioner: &Arc<dyn Partitioner>,
        state: &Snapshot,
        epoch: u64,
    ) -> Option<Partitions> {
        let n = partitioner.shard_count();
        if n <= 1 {
            return None;
        }
        let g = state.graph();
        let owners: Vec<u32> = (0..g.vertex_slots())
            .map(|i| {
                let v = VertexId(i as u32);
                partitioner.shard_of(v, g.vertex_type(v)) as u32
            })
            .collect();
        let no_extids = Arc::new(ExternalIdTable::new());
        let shards = (0..n)
            .map(|s| {
                let shard = g.shard(&|v| owners[v.index()] as usize == s);
                Arc::new(EpochSnapshot {
                    epoch,
                    state: Snapshot::new(shard, state.schema().clone()),
                    extids: Arc::clone(&no_extids),
                    shard_states: Vec::new(),
                })
            })
            .collect();
        let mut parts = Partitions {
            partitioner: Arc::clone(partitioner),
            owners,
            edge_global: Vec::new(),
            shards,
            no_extids,
        };
        parts.rebuild_edge_global(g);
        Some(parts)
    }

    /// The shard states to publish with the next epoch (empty for a
    /// single partition).
    pub(crate) fn states(parts: &Option<Partitions>) -> Vec<Arc<EpochSnapshot>> {
        parts.as_ref().map_or_else(Vec::new, |p| p.shards.clone())
    }

    /// Routes every live global edge to its source's owner, in slot
    /// order — each shard's local edge numbering.
    fn rebuild_edge_global(&mut self, g: &Graph) {
        let mut tables = vec![Vec::new(); self.shards.len()];
        for e in g.edges() {
            tables[self.owners[g.edge_src(e).index()] as usize].push(e);
        }
        self.edge_global = tables;
    }

    /// Applies one validated batch across the partitions and derives
    /// the next global state. One pool dispatch runs every shard's
    /// sub-delta apply alongside the global staging of the batch's
    /// mutations (deaths, ghosts, new columns — everything `apply_delta`
    /// does except the adjacency build); the global CSR is then copied
    /// out of the shard CSRs on the pool, views refresh through the
    /// refresh DAG with connector frontiers partitioned by shard, and
    /// statistics are the merge of the per-shard statistics.
    pub(crate) fn apply(
        &mut self,
        shared: &Shared,
        state: &Snapshot,
        batch: &GraphDelta,
        apply_id: u64,
    ) -> (Snapshot, RefreshReport) {
        let pool = &*shared.pool;
        let n = self.shards.len();
        let epoch = shared.cell.epoch() + 1;
        let g = state.graph();
        let slots = g.vertex_slots();
        debug_assert_eq!(
            self.owners.len(),
            slots,
            "ownership table tracks every slot"
        );
        // the batch's inserts get their owners at their predicted
        // global ids; routing below reads them from the same table
        for (i, nv) in batch.vertices.iter().enumerate() {
            let v = VertexId((slots + i) as u32);
            self.owners
                .push(self.partitioner.shard_of(v, &nv.vtype) as u32);
        }
        let owners = &self.owners;
        let owner_of = |v: VertexId| owners[v.index()] as usize;
        let subs = batch.split(n, &owner_of, &|i| owners[slots + i] as usize);
        let edge_slots = g.edge_slots();
        for (k, e) in batch.edges.iter().enumerate() {
            let owner = match e.src {
                VRef::Existing(v) => owner_of(v),
                VRef::New(i) => owners[slots + i] as usize,
                VRef::External(_) => unreachable!("external refs are resolved before split"),
            };
            self.edge_global[owner].push(EdgeId((edge_slots + k) as u32));
        }

        // task 0 stages the batch on the global graph (the longest
        // task, so it is claimed first); tasks 1..=n apply the shard
        // sub-deltas
        let staged = Mutex::new(None);
        let (shards, no_extids) = (&self.shards, &self.no_extids);
        let applied_shards = pool.map(n + 1, &|t| {
            if t == 0 {
                let mut ed = g.edit_parallel(pool);
                let delta = stage_delta(g, batch, &mut ed);
                *staged.lock().unwrap_or_else(|e| e.into_inner()) = Some((ed, delta));
                return None;
            }
            let s = t - 1;
            if subs[s].is_empty() {
                return None;
            }
            let start = Instant::now();
            let next = shards[s].state.with_delta(&subs[s]);
            shared.shard_apply[s].record(start.elapsed());
            Some(Arc::new(EpochSnapshot {
                epoch,
                state: next,
                extids: Arc::clone(no_extids),
                shard_states: Vec::new(),
            }))
        });
        for (s, next) in applied_shards.into_iter().skip(1).enumerate() {
            if let Some(next) = next {
                self.shards[s] = next;
            }
        }
        let (ed, staged) = staged
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("staging task completed");

        // merged publish: workers copy disjoint regions of the global
        // CSR straight out of the shard CSRs (out-rows translated
        // through `edge_global`, in-rows k-way merged back into global
        // edge order) — byte-identical to the serial `apply_delta`
        // result, at memcpy speed
        let shard_graphs: Vec<Graph> = self
            .shards
            .iter()
            .map(|s| s.state.graph().clone())
            .collect();
        let merge_start = Instant::now();
        let graph = ed.finish_merged(&shard_graphs, &self.owners, &self.edge_global, pool);
        if shared.tracer.is_enabled() {
            shared.tracer.record(
                Stage::MergePublish,
                apply_id,
                merge_start,
                merge_start.elapsed(),
                epoch,
                format!(
                    "shards={n} vertices={} edges={}",
                    graph.vertex_count(),
                    graph.edge_count()
                ),
            );
        }
        let applied = staged.into_applied(graph, g.clone());

        // views refresh over the new global base through the refresh
        // DAG: delta-driven per view, level-parallel across views on
        // the pool, connector frontiers recomputed one task per shard
        let partitioner = &*self.partitioner;
        let part = |v: VertexId| partitioner.shard_of(v, applied.graph.vertex_type(v));
        let (catalog, report) = RefreshDag::build(state.catalog()).refresh(
            state.catalog(),
            &applied,
            &RefreshOptions {
                partition: Some(Partition {
                    part_of: &part,
                    parts: n,
                }),
                exec: Some(pool),
            },
        );
        let stats = GraphStats::merge(self.shards.iter().map(|s| s.state.stats()))
            .unwrap_or_else(|| GraphStats::compute(&applied.graph));
        let next = Snapshot::assemble(applied.graph, state.schema().clone(), stats, catalog);
        (next, report)
    }

    /// Applies the global compaction `remap` (which produced
    /// `compacted`, publishing at `epoch`) to every shard on the pool,
    /// then compacts the ownership table through the same remap and
    /// rebuilds the edge translation tables.
    pub(crate) fn compact(
        &mut self,
        remap: &IdRemap,
        compacted: &Graph,
        epoch: u64,
        pool: &WorkerPool,
    ) {
        let (shards, no_extids) = (&self.shards, &self.no_extids);
        self.shards = pool.map(shards.len(), &|s| {
            Arc::new(EpochSnapshot {
                epoch,
                state: shards[s].state.compact_with(remap),
                extids: Arc::clone(no_extids),
                shard_states: Vec::new(),
            })
        });
        self.owners = self
            .owners
            .iter()
            .enumerate()
            .filter(|&(i, _)| remap.vertex(VertexId(i as u32)).is_some())
            .map(|(_, &o)| o)
            .collect();
        self.rebuild_edge_global(compacted);
    }
}

/// Runs `plan` once per partition on the worker pool, each leg anchored
/// on the partition's owned vertices, and merges the legs' sorted row
/// sets. The scatter, dispatch and gather spans are children of
/// `parent`.
pub(crate) fn scatter_gather(
    shared: &Shared,
    epoch: u64,
    target: &Graph,
    plan: &PatternPlan<'_>,
    parent: u64,
) -> PatternRows {
    let tracer = &shared.tracer;
    let partitioner = &*shared.partitioner;
    let n = partitioner.shard_count();
    // scatter: one pool task per partition, anchors restricted to the
    // partition's owned vertices (on a view graph the partitioner is
    // still a valid disjoint+exhaustive split of the anchor domain,
    // which is all correctness requires)
    let traced = tracer.is_enabled();
    let dispatch_start = Instant::now();
    let per_shard = shared.pool.map(n, &|s| {
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
        rows
    });
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

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_core::{ConnectorDef, DdlOp, Kaskade, VRef, ViewDef};
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
    fn invalid_deltas_rejected_before_the_split() {
        let engine = ShardedEngine::from_kaskade(&instance(93), 3);
        // dangling base reference: dropped by the writer at apply time
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
        // the writer must compact the global graph AND every shard
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
    fn ddl_publishes_coherent_epochs_across_partitions() {
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

    #[test]
    fn sharded_commit_is_queued_and_published_once() {
        let tracer = Arc::new(Tracer::new(true));
        let engine = ShardedEngine::with_config(
            instance(99).snapshot(),
            ShardedConfig {
                tracer: Some(Arc::clone(&tracer)),
                compact_dead_ratio: f64::INFINITY,
                ..ShardedConfig::hash(2)
            },
        );
        let n = 6u64;
        for step in 0..n {
            let snap = engine.snapshot();
            let delta = crate::stream::churn_delta(&snap.state, step).unwrap();
            engine.submit(delta, SubmitOpts::default()).unwrap();
            engine.flush();
        }
        let events = tracer.dump();
        for stage in [Stage::WriteBatch, Stage::QueueWait, Stage::Publish] {
            let count = events.iter().filter(|e| e.stage == stage).count() as u64;
            assert_eq!(count, n, "{stage} events:\n{}", tracer.render_dump());
        }
        // one end-to-end apply sample per published batch
        let m = engine.metrics().global;
        assert_eq!(m.batches_published, n);
        assert_eq!(engine.metrics_handle().apply_latency().count(), n);
    }

    #[test]
    fn one_partition_publishes_no_shard_states_and_reads_inline() {
        let engine = ShardedEngine::new(instance(100).snapshot(), 1);
        assert_eq!(engine.shard_count(), 1);
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        let snap = engine.snapshot();
        assert!(snap.shard_states.is_empty());
        assert!(snap.is_coherent(), "vacuously coherent");
        let dispatches = engine.pool().dispatches();
        let query = parse(LISTING_1).unwrap();
        for _ in 0..3 {
            engine.execute(&query).unwrap();
        }
        assert_eq!(engine.pool().dispatches(), dispatches, "reads hit the pool");
    }
}

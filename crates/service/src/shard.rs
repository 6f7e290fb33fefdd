//! Partitioned serving: a [`Partitioner`] splits the vertices of the
//! one graph the [`Engine`] serves into disjoint partitions, and the
//! engine fans work out over them on its [`WorkerPool`](crate::WorkerPool).
//!
//! A partition is not a copy of anything: there is one graph, one
//! catalog and one write path for every partition count. A partition
//! only says which pool task does a share of the work:
//!
//! - **Reads scatter**: the same pattern plan runs once per partition
//!   with the anchor scan restricted to that partition's vertices
//!   ([`PatternPlan::execute_anchored`](kaskade_query::PatternPlan::execute_anchored)),
//!   and **gather** merges the sorted, deduplicated row sets before the
//!   relational stage runs once. Every match is anchored at exactly one
//!   partition, and pattern rows are DISTINCT, so the merged row set —
//!   and therefore the final table, ordering included — is
//!   byte-identical to the unpartitioned engine's (enforced by the
//!   differential proptests in `tests/properties.rs`).
//! - **Connector refresh splits its frontier work**: the writer passes
//!   the partitioner to the refresh DAG, which recomputes the affected
//!   sources of each partition as one pool task. Any split yields the
//!   same refreshed view.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use kaskade_core::{GraphDelta, Kaskade, KaskadeError, Snapshot};
use kaskade_graph::{Graph, VertexId};
use kaskade_query::{PatternPlan, PatternRows, Query, Table};

use crate::engine::{Engine, EngineConfig, Shared, SubmitError, SubmitOpts};
use crate::metrics::MetricsReport;
use crate::snapshot::EpochSnapshot;
use crate::trace::{Stage, Tracer};

/// Assigns every vertex to exactly one partition. It must be a pure
/// function of the vertex's id and type, so one scatter or refresh
/// splits its vertices disjointly; which function it is changes how the
/// work divides, never the result.
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
/// of every type uniformly, so refresh and scatter work balance
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
/// [`EngineConfig::hash`]. Kept as a name for existing callers.
pub type ShardedConfig = EngineConfig;

/// A metrics report of a partitioned engine, in the shape existing
/// callers read: the engine-wide report, which is the whole report on
/// every partition count.
#[derive(Debug, Clone)]
pub struct ShardedMetricsReport {
    /// Engine-wide counters and latency distributions.
    pub global: MetricsReport,
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

    /// See [`Engine::recover`].
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
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.0.snapshot()
    }

    /// The engine-wide report ([`Engine::metrics`]).
    pub fn metrics(&self) -> ShardedMetricsReport {
        ShardedMetricsReport {
            global: self.0.metrics(),
        }
    }
}

impl Deref for ShardedEngine {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.0
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
    use kaskade_graph::{GraphBuilder, Schema, Value};
    use kaskade_query::{listings::LISTING_1, parse};

    fn instance(seed: u64) -> Kaskade {
        let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        k
    }

    /// A partitioned engine that always scatters, so these tests
    /// exercise the fan-out read path even on tiny graphs.
    fn scatter_engine(k: &Kaskade, shards: usize) -> Engine {
        Engine::with_config(
            k.snapshot(),
            EngineConfig {
                scatter_min_vertices: 0,
                ..EngineConfig::hash(shards)
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
            assert!(crate::drive::snapshot_is_consistent(&snap.state));
        }
    }

    #[test]
    fn global_epoch_publishes_only_complete_batches() {
        let engine = Engine::with_config(instance(92).snapshot(), EngineConfig::hash(4));
        let mut reader = engine.reader();
        assert_eq!(reader.snapshot().epoch, 0);
        let before = reader.snapshot().state.graph().vertex_count();
        let mut d = GraphDelta::new();
        let j = d.add_vertex("Job", vec![("CPU".into(), Value::Int(1))]);
        let f = d.add_vertex("File", vec![]);
        d.add_edge(j, f, "WRITES_TO", vec![("ts".into(), Value::Int(1))]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        let epoch = engine.flush();
        assert!(epoch >= 1);
        let snap = reader.snapshot();
        assert_eq!(snap.epoch, epoch);
        // both vertices and their edge land in the same publish
        let g = snap.state.graph();
        assert_eq!(g.vertex_count(), before + 2);
        let new_job = VertexId((g.vertex_slots() - 2) as u32);
        assert_eq!(g.out_degree(new_job), 1);
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
        let view = snap.state.catalog().get("connector:JOB_TO_JOB_2_HOP");
        assert_eq!(view.unwrap().graph.edge_count(), 0);
        assert_eq!(engine.metrics().retractions_applied, 1);
    }

    #[test]
    fn invalid_deltas_are_rejected_with_partitions() {
        let engine = Engine::with_config(instance(93).snapshot(), EngineConfig::hash(3));
        let epoch = engine.epoch();
        // dangling base reference: dropped by the writer at apply time
        let mut dangling = GraphDelta::new();
        let v = dangling.add_vertex("File", vec![]);
        dangling.add_edge(VRef::Existing(VertexId(99_999)), v, "WRITES_TO", vec![]);
        engine.submit(dangling, SubmitOpts::default()).unwrap();
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.deltas_rejected, 1);
        assert_eq!(m.batches_published, 0);
        assert_eq!(engine.epoch(), epoch, "nothing published");
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn plan_cache_serves_repeated_sharded_queries() {
        let engine = scatter_engine(&instance(94), 2);
        let q = parse(LISTING_1).unwrap();
        for _ in 0..4 {
            engine.execute(&q).unwrap();
        }
        let m = engine.metrics();
        assert_eq!(m.queries, 4);
        assert_eq!(m.plan_cache_misses, 1);
        assert_eq!(m.plan_cache_hits, 3);
    }

    #[test]
    fn type_partitioned_engine_stays_equivalent() {
        let k = instance(96);
        let single = Engine::from_kaskade(&k);
        let sharded = Engine::with_config(
            k.snapshot(),
            EngineConfig {
                partitioner: Arc::new(TypePartitioner::new(3)),
                max_batch: 8,
                queue_capacity: 64,
                scatter_min_vertices: 0,
                ..EngineConfig::default()
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
        assert!(crate::drive::snapshot_is_consistent(
            &sharded.snapshot().state
        ));
    }

    #[test]
    fn compaction_keeps_partitioned_reads_correct() {
        // a chain graph churned with delete-then-reinsert turnover: the
        // writer compacts the one graph, and scatter/gather reads stay
        // correct across the renumbering
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> = (0..24).map(|_| b.add_vertex("Job")).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], "SPAWNS");
        }
        let g = b.finish();
        let live = g.vertex_count() + g.edge_count();
        let engine = Engine::with_config(
            Snapshot::new(g, Schema::provenance()),
            EngineConfig {
                scatter_min_vertices: 0,
                ..EngineConfig::hash(3)
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
        assert!(report.compactions_run >= 1, "{report:?}");
        assert!(report.slots_reclaimed > 0);
        assert_eq!(report.deltas_rejected, 0, "{report:?}");
        let snap = engine.snapshot();
        let g = snap.state.graph();
        assert_eq!(g.vertex_count() + g.edge_count(), live);
        let capacity = g.vertex_slots() + g.edge_slots();
        assert!(capacity <= 2 * live, "capacity {capacity} vs live {live}");
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
        let created = snap.state.catalog().get(&def.id()).expect("view created");
        let mut scratch = Kaskade::new(snap.state.graph().clone(), Schema::provenance());
        scratch.materialize_view(def.clone());
        let scratch_view = scratch.snapshot().catalog().get(&def.id()).unwrap().clone();
        assert_eq!(created.graph.edge_count(), scratch_view.graph.edge_count());

        assert!(engine.submit_ddl(DdlOp::DropView(ViewId(0))));
        engine.flush();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch, epoch0 + 2);
        assert_eq!(
            snap.state.catalog().slot_count(),
            2,
            "slot stays tombstoned"
        );
        assert!(snap.state.catalog().get_by_id(ViewId(0)).is_none());
        let m = engine.metrics();
        assert_eq!(m.views_created, 1);
        assert_eq!(m.views_dropped, 1);

        // writes keep flowing and refresh the post-DDL catalog
        let mut d = GraphDelta::new();
        let j = d.add_vertex("Job", vec![]);
        let f = d.add_vertex("File", vec![]);
        d.add_edge(j, f, "WRITES_TO", vec![]);
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        let snap = engine.snapshot();
        assert!(crate::drive::snapshot_is_consistent(&snap.state));
    }

    #[test]
    fn sharded_commit_is_queued_and_published_once() {
        let tracer = Arc::new(Tracer::new(true));
        let engine = Engine::with_config(
            instance(99).snapshot(),
            EngineConfig {
                tracer: Some(Arc::clone(&tracer)),
                compact_dead_ratio: f64::INFINITY,
                ..EngineConfig::hash(2)
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
        for stage in [
            Stage::WriteBatch,
            Stage::QueueWait,
            Stage::Apply,
            Stage::Publish,
        ] {
            let count = events.iter().filter(|e| e.stage == stage).count() as u64;
            assert_eq!(count, n, "{stage} events:\n{}", tracer.render_dump());
        }
        // one end-to-end apply sample per published batch
        assert_eq!(engine.metrics().batches_published, n);
        assert_eq!(engine.metrics_handle().apply_latency().count(), n);
    }

    #[test]
    fn one_partition_reads_inline() {
        // even with no scatter threshold, one partition never fans out
        let engine = Engine::with_config(
            instance(100).snapshot(),
            EngineConfig {
                scatter_min_vertices: 0,
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.shard_count(), 1);
        let dispatches = engine.pool().dispatches();
        let query = parse(LISTING_1).unwrap();
        for _ in 0..3 {
            engine.execute(&query).unwrap();
        }
        assert_eq!(engine.pool().dispatches(), dispatches, "reads hit the pool");
    }
}

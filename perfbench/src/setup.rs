//! Set-up: dataset, view catalog and engine start, plus the small
//! serving interface the workloads drive both engine shapes through.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use kaskade_core::{
    select_views, AggOp, ComposedDef, ConnectorDef, GraphDelta, Kaskade, KaskadeError,
    PropPredicate, SelectionConfig, Snapshot, SourceSinkDef, SummarizerDef, ViewDef,
};
use kaskade_datasets::{generate_provenance, Dataset, ProvenanceConfig};
use kaskade_graph::ExternalIdTable;
use kaskade_query::{Query, Table};
use kaskade_service::{
    Engine, EngineConfig, MetricsReport, ShardedConfig, ShardedEngine, SubmitError, SubmitOpts,
    Tracer, WalConfig,
};

use crate::inputs::blast_queries;
use crate::spans::Spans;

/// Which catalog a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogKind {
    /// `select_views` over the blast-radius templates, materialized.
    Selected,
    /// The 4-view composed refresh DAG.
    Composed,
    /// No views: the advisor builds the catalog online.
    Empty,
}

/// The composed catalog: a 2-hop job connector, a summarizer composed
/// over it, source-to-sink, and the job CPU aggregator per pipeline.
pub fn composed_defs() -> Vec<ViewDef> {
    let connector = ConnectorDef::k_hop("Job", "Job", 2);
    vec![
        ViewDef::Connector(connector.clone()),
        ViewDef::Composed(ComposedDef {
            connector,
            summarizer: SummarizerDef::EdgePredicate {
                keep: PropPredicate::IntAtLeast("support".into(), 2),
            },
        }),
        ViewDef::SourceSink(SourceSinkDef::default()),
        ViewDef::Summarizer(SummarizerDef::VertexAggregator {
            vtype: "Job".into(),
            group_prop: "pipelineName".into(),
            agg_prop: "CPU".into(),
            agg: AggOp::Sum,
        }),
    ]
}

/// Generates the `prov` dataset and builds the catalog, each layer as
/// a span of request `request`.
pub fn build_state(
    jobs: usize,
    seed: u64,
    kind: CatalogKind,
    spans: &Spans,
    request: u64,
) -> Snapshot {
    let graph = spans.time("datasets.generate_s", None, request, || {
        generate_provenance(&ProvenanceConfig {
            jobs,
            seed,
            ..ProvenanceConfig::default()
        })
    });
    let mut k = Kaskade::new(graph, Dataset::Prov.schema());
    let defs: Vec<ViewDef> = match kind {
        CatalogKind::Selected => {
            let templates = blast_queries();
            let result = spans.time("core.selection.ms", None, request, || {
                select_views(
                    k.graph(),
                    k.stats(),
                    k.schema(),
                    &templates,
                    &SelectionConfig::default(),
                )
            });
            result.chosen().into_iter().cloned().collect()
        }
        CatalogKind::Composed => composed_defs(),
        CatalogKind::Empty => Vec::new(),
    };
    for def in defs {
        spans.time("core.materialize.ms", None, request, || {
            k.materialize_view(def)
        });
    }
    k.snapshot()
}

/// The serving calls the workloads make, implemented by both engine
/// shapes through their public methods.
pub trait Served: Sync {
    fn execute(&self, q: &Query) -> Result<Table, KaskadeError>;
    fn submit(&self, d: GraphDelta, based_on: u64) -> Result<(), SubmitError>;
    fn flush(&self) -> u64;
    fn epoch(&self) -> u64;
    /// The published epoch, read state and external-id table.
    fn current(&self) -> (u64, Snapshot, Arc<ExternalIdTable>);
    fn report(&self) -> MetricsReport;
    fn tracer(&self) -> &Arc<Tracer>;
}

impl Served for Engine {
    fn execute(&self, q: &Query) -> Result<Table, KaskadeError> {
        Engine::execute(self, q)
    }
    fn submit(&self, d: GraphDelta, based_on: u64) -> Result<(), SubmitError> {
        Engine::submit(self, d, SubmitOpts::based_on(based_on))
    }
    fn flush(&self) -> u64 {
        Engine::flush(self)
    }
    fn epoch(&self) -> u64 {
        Engine::epoch(self)
    }
    fn current(&self) -> (u64, Snapshot, Arc<ExternalIdTable>) {
        let s = self.snapshot();
        (s.epoch, s.state.clone(), Arc::clone(&s.extids))
    }
    fn report(&self) -> MetricsReport {
        self.metrics()
    }
    fn tracer(&self) -> &Arc<Tracer> {
        Engine::tracer(self)
    }
}

impl Served for ShardedEngine {
    fn execute(&self, q: &Query) -> Result<Table, KaskadeError> {
        ShardedEngine::execute(self, q)
    }
    fn submit(&self, d: GraphDelta, based_on: u64) -> Result<(), SubmitError> {
        ShardedEngine::submit(self, d, SubmitOpts::based_on(based_on))
    }
    fn flush(&self) -> u64 {
        ShardedEngine::flush(self)
    }
    fn epoch(&self) -> u64 {
        ShardedEngine::epoch(self)
    }
    fn current(&self) -> (u64, Snapshot, Arc<ExternalIdTable>) {
        let s = self.snapshot();
        (s.epoch, s.state.clone(), Arc::clone(&s.extids))
    }
    fn report(&self) -> MetricsReport {
        self.metrics().global
    }
    fn tracer(&self) -> &Arc<Tracer> {
        ShardedEngine::tracer(self)
    }
}

/// Flight-recorder capacity: enough for every span of a traced phase.
const RECORDER_CAPACITY: usize = 1 << 17;

/// A disabled tracer the traced run switches on for its traced phase.
pub fn recorder() -> Arc<Tracer> {
    Arc::new(Tracer::with_capacity(false, RECORDER_CAPACITY))
}

/// A single engine with a 1-worker pool.
pub fn single_engine(state: Snapshot, compact_dead_ratio: f64, tracer: Arc<Tracer>) -> Engine {
    Engine::with_config(
        state,
        EngineConfig {
            pool_threads: 1,
            compact_dead_ratio,
            tracer: Some(tracer),
            ..EngineConfig::default()
        },
    )
}

/// Shards of the durable workload.
pub const SHARDS: usize = 2;
/// Logged batches between checkpoints of the durable workload.
pub const CHECKPOINT_EVERY: u64 = 64;

/// The durable sharded engine's configuration over WAL directory `dir`.
pub fn sharded_config(dir: &Path, compact_dead_ratio: f64, tracer: Arc<Tracer>) -> ShardedConfig {
    ShardedConfig {
        pool_threads: 1,
        compact_dead_ratio,
        tracer: Some(tracer),
        wal: Some(WalConfig {
            fsync: true,
            checkpoint_every: CHECKPOINT_EVERY,
            ..WalConfig::new(dir)
        }),
        ..ShardedConfig::hash(SHARDS)
    }
}

/// A 2-shard hash-partitioned engine logging to a fresh `dir`.
pub fn sharded_engine(
    state: Snapshot,
    dir: &Path,
    compact_dead_ratio: f64,
    tracer: Arc<Tracer>,
) -> std::io::Result<ShardedEngine> {
    ShardedEngine::try_with_config(state, sharded_config(dir, compact_dead_ratio, tracer))
}

/// A fresh, empty directory `name` under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Copies every file of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The epoch of the newest `checkpoint-<epoch>.ckpt` in `dir`.
pub fn latest_checkpoint(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name.strip_prefix("checkpoint-")?
                        .strip_suffix(".ckpt")?
                        .parse::<u64>()
                        .ok()
                })
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (§VII). Each returns plain data rows; the `report` binary
//! formats them, and the Criterion benches time the hot paths.

use std::time::{Duration, Instant};

use kaskade_core::{
    cost::{erdos_renyi_estimate, path_count_estimate},
    enumerate_views, procedural, ConnectorDef, GraphDelta, Kaskade, SelectionConfig, Snapshot,
    ViewDef,
};
use kaskade_datasets::Dataset;
use kaskade_graph::{degree_ccdf, power_law_exponent, GraphStats};
use kaskade_query::parse;
use kaskade_service::{drive, DriveConfig, Engine, EngineConfig, SubmitOpts, Tracer, Workload};

use crate::setup::{k_hop_pair_count, Env};
use crate::workload::{run, QueryId};

/// One point of the Fig. 5 size-estimation experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// Number of edges in the graph prefix.
    pub graph_edges: usize,
    /// Eq. (2)/(3) estimate with α = 50.
    pub est_alpha50: f64,
    /// Eq. (2)/(3) estimate with α = 95.
    pub est_alpha95: f64,
    /// Eq. (1) Erdős–Rényi baseline.
    pub est_erdos_renyi: f64,
    /// Actual 2-hop connector edges (distinct vertex pairs).
    pub actual: usize,
}

/// Fig. 5: estimated vs. actual 2-hop connector sizes over edge
/// prefixes of `dataset`.
pub fn fig5(dataset: Dataset, scale: usize, seed: u64, prefixes: &[usize]) -> Vec<Fig5Row> {
    let full = dataset.generate(scale, seed);
    let schema = dataset.schema();
    let mut rows = Vec::new();
    for &m in prefixes {
        if m > full.edge_count() {
            continue;
        }
        let g = full.edge_prefix(m);
        let stats = GraphStats::compute(&g);
        rows.push(Fig5Row {
            graph_edges: g.edge_count(),
            est_alpha50: path_count_estimate(&stats, &schema, 2, 50),
            est_alpha95: path_count_estimate(&stats, &schema, 2, 95),
            est_erdos_renyi: erdos_renyi_estimate(g.vertex_count(), g.edge_count(), 2),
            actual: k_hop_pair_count(&g, 2),
        });
    }
    rows
}

/// One bar group of Fig. 6: graph sizes at each view stage.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Stage name: "raw", "filter", or "connector".
    pub stage: &'static str,
    /// Vertices at this stage.
    pub vertices: usize,
    /// Edges at this stage.
    pub edges: usize,
}

/// Fig. 6: effective size reduction raw → summarizer → connector.
pub fn fig6(env: &Env) -> Vec<Fig6Row> {
    vec![
        Fig6Row {
            stage: "raw",
            vertices: env.raw.vertex_count(),
            edges: env.raw.edge_count(),
        },
        Fig6Row {
            stage: "filter",
            vertices: env.filtered.vertex_count(),
            edges: env.filtered.edge_count(),
        },
        Fig6Row {
            stage: "connector",
            vertices: env.connector.vertex_count(),
            edges: env.connector.edge_count(),
        },
    ]
}

/// One bar pair of Fig. 7: per-query runtimes on both graph variants.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Query name ("q1".."q8").
    pub query: &'static str,
    /// Runtime over the filter graph (raw graph for homogeneous
    /// datasets), in seconds.
    pub filter_secs: f64,
    /// Runtime of the rewritten query over the connector view, in
    /// seconds.
    pub connector_secs: f64,
    /// filter/connector speedup (>1 means the view wins).
    pub speedup: f64,
}

/// Fig. 7: total query runtimes, filter vs connector, averaged over
/// `reps` runs.
pub fn fig7(env: &Env, reps: usize) -> Vec<Fig7Row> {
    let reps = reps.max(1);
    let mut rows = Vec::new();
    for q in QueryId::ALL {
        if !q.applies_to(env.dataset) {
            continue;
        }
        let time = |on_connector: bool| -> f64 {
            let start = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(run(env, q, on_connector));
            }
            start.elapsed().as_secs_f64() / reps as f64
        };
        let filter_secs = time(false);
        let connector_secs = time(true);
        rows.push(Fig7Row {
            query: q.name(),
            filter_secs,
            connector_secs,
            speedup: filter_secs / connector_secs.max(1e-12),
        });
    }
    rows
}

/// Fig. 8 data: CCDF points and the fitted power-law exponent.
#[derive(Debug, Clone)]
pub struct Fig8Data {
    /// `(degree, count of vertices with degree > x)` points.
    pub ccdf: Vec<(usize, usize)>,
    /// Best-fit power-law exponent (log-log linear fit), if defined.
    pub exponent: Option<f64>,
}

/// Fig. 8: out-degree CCDF and power-law fit of a dataset's raw graph.
pub fn fig8(dataset: Dataset, scale: usize, seed: u64) -> Fig8Data {
    let g = dataset.generate(scale, seed);
    let ccdf = degree_ccdf(&g);
    let exponent = power_law_exponent(&ccdf);
    Fig8Data {
        ccdf: ccdf.iter().map(|p| (p.degree, p.count)).collect(),
        exponent,
    }
}

/// Result of the §IV enumeration ablation: constraint-based
/// (declarative, query-constraint-injected) vs procedural Alg. 1
/// (schema-only).
#[derive(Debug, Clone)]
pub struct EnumerationAblation {
    /// Candidates the constraint-based enumeration produced.
    pub constrained_candidates: usize,
    /// Inference steps it took.
    pub constrained_steps: u64,
    /// Wall time of constraint-based enumeration (seconds) — the
    /// "few milliseconds" overhead of §VII-A.
    pub constrained_secs: f64,
    /// Schema k-hop paths the unconstrained Alg. 1 enumerates up to
    /// `k_max` (the baseline search-space size).
    pub procedural_paths: usize,
    /// Wall time of the procedural enumeration (seconds).
    pub procedural_secs: f64,
    /// Upper hop bound used.
    pub k_max: usize,
}

/// Runs the enumeration ablation for the blast-radius query on a
/// dataset's schema.
pub fn enumeration_ablation(dataset: Dataset, k_max: usize) -> EnumerationAblation {
    let schema = dataset.schema();
    let query = parse(kaskade_query::listings::LISTING_1).expect("listing parses");

    let start = Instant::now();
    let e = enumerate_views(&query, &schema).expect("enumeration succeeds");
    let constrained_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let procedural_paths = procedural::search_space_size(&schema, k_max);
    let procedural_secs = start.elapsed().as_secs_f64();

    EnumerationAblation {
        constrained_candidates: e.candidates.len(),
        constrained_steps: e.inference_steps,
        constrained_secs,
        procedural_paths,
        procedural_secs,
        k_max,
    }
}

/// One row of the concurrent-serving throughput experiment: N reader
/// threads against an active delta writer on the `kaskade-service`
/// engine.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Concurrent reader threads.
    pub readers: usize,
    /// Successful reads over the run.
    pub reads: u64,
    /// Successful reads per second of wall-clock time.
    pub reads_per_sec: f64,
    /// Median query latency.
    pub p50: Duration,
    /// 99th-percentile query latency.
    pub p99: Duration,
    /// Deltas the writer submitted (and the engine applied).
    pub writes: u64,
    /// Snapshot epochs published (write batches).
    pub epochs: u64,
    /// Plan-cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Worst enqueue→visibility refresh lag observed.
    pub max_refresh_lag: Duration,
}

/// Concurrent-serving throughput: for each reader count, drive the
/// serving engine for `duration` with a closed-loop reader pool and a
/// writer submitting one scripted delta every `write_pause`
/// (`read_pause` > 0 paces each reader to a fixed request rate
/// instead). Views are selected for the workload first, so reads
/// exercise the view-routing plan path. Every run starts from the same
/// pre-materialized state.
pub fn serve_throughput(
    dataset: Dataset,
    scale: usize,
    seed: u64,
    reader_counts: &[usize],
    duration: Duration,
    read_pause: Duration,
    write_pause: Duration,
) -> Vec<ServeRow> {
    let graph = dataset.generate(scale, seed);
    let mut kaskade = Kaskade::new(graph, dataset.schema());
    let workload =
        vec![parse(kaskade_query::listings::LISTING_1).expect("serving workload parses")];
    kaskade.select_and_materialize(&workload, &SelectionConfig::default());
    let base = kaskade.snapshot();

    reader_counts
        .iter()
        .map(|&readers| {
            let engine = Engine::new(base.clone());
            let outcome = drive(
                &engine,
                &workload,
                &DriveConfig {
                    readers,
                    duration,
                    read_pause,
                    write_pause,
                    max_writes: 0,
                    verify_consistency: false,
                    workload: Workload::Append,
                },
            );
            ServeRow {
                readers,
                reads: outcome.reads,
                reads_per_sec: outcome.reads_per_sec(),
                p50: outcome.report.p50,
                p99: outcome.report.p99,
                writes: outcome.writes,
                epochs: outcome.report.epoch,
                cache_hit_rate: outcome.report.plan_cache_hit_rate(),
                max_refresh_lag: outcome.report.max_refresh_lag,
            }
        })
        .collect()
}

/// One row of the tracing-overhead experiment: the same serving run
/// with the span subsystem off, on, or on with a slow-query threshold.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Tracer variant driven ("off", "on", "on+slowlog").
    pub variant: &'static str,
    /// Successful reads over the run.
    pub reads: u64,
    /// Successful reads per second of wall-clock time.
    pub reads_per_sec: f64,
    /// Median query latency.
    pub p50: Duration,
    /// Trace events captured in the flight recorder.
    pub events: usize,
    /// Events dropped on flight-recorder slot contention.
    pub dropped: u64,
    /// Queries that crossed the slow-query threshold.
    pub slow_queries: u64,
}

/// Tracing overhead: the identical serving run (same state, same
/// workload, same writer cadence) under three tracer variants. The CI
/// overhead gate asserts `--trace off` and `--trace on` throughput stay
/// within noise of each other — a disabled span site must cost one
/// relaxed atomic load, and an enabled one two timestamps plus a ring
/// push.
pub fn serve_trace(
    dataset: Dataset,
    scale: usize,
    seed: u64,
    readers: usize,
    duration: Duration,
    write_pause: Duration,
) -> Vec<TraceRow> {
    let graph = dataset.generate(scale, seed);
    let mut kaskade = Kaskade::new(graph, dataset.schema());
    let workload =
        vec![parse(kaskade_query::listings::LISTING_1).expect("serving workload parses")];
    kaskade.select_and_materialize(&workload, &SelectionConfig::default());
    let base = kaskade.snapshot();

    [
        ("off", false, None),
        ("on", true, None),
        ("on+slowlog", true, Some(Duration::from_micros(1))),
    ]
    .into_iter()
    .map(|(variant, enabled, slow)| {
        let tracer = std::sync::Arc::new(Tracer::new(enabled));
        tracer.set_slow_query_threshold(slow);
        let engine = Engine::with_config(
            base.clone(),
            EngineConfig {
                tracer: Some(std::sync::Arc::clone(&tracer)),
                ..EngineConfig::default()
            },
        );
        let outcome = drive(
            &engine,
            &workload,
            &DriveConfig {
                readers,
                duration,
                read_pause: Duration::ZERO,
                write_pause,
                max_writes: 0,
                verify_consistency: false,
                workload: Workload::Append,
            },
        );
        TraceRow {
            variant,
            reads: outcome.reads,
            reads_per_sec: outcome.reads_per_sec(),
            p50: outcome.report.p50,
            events: tracer.dump().len(),
            dropped: tracer.dropped_events(),
            slow_queries: tracer.slow_queries(),
        }
    })
    .collect()
}

/// One row of the churn-serving experiment: a workload shape driven
/// against the engine, with the refresh-lag and stats-maintenance
/// numbers that make the incremental-statistics win visible.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Workload shape driven ("append", "churn", "hotkey", "burst").
    pub workload: &'static str,
    /// Successful reads over the run.
    pub reads: u64,
    /// Deltas the writer submitted.
    pub writes: u64,
    /// Retraction operations in applied batches.
    pub retractions: u64,
    /// Snapshot epochs published.
    pub epochs: u64,
    /// Apply+publish duration of the last batch.
    pub last_refresh: Duration,
    /// Worst enqueue→visibility refresh lag observed.
    pub max_refresh_lag: Duration,
    /// Whether the final snapshot passed the full consistency oracle
    /// (views and stats vs from-scratch rebuild).
    pub final_consistent: bool,
    /// Wall time of one full `GraphStats::compute` over the final base
    /// graph — the per-publish cost the old write path paid.
    pub stats_full_recompute: Duration,
    /// Wall time of one incremental `GraphStats::with_changes` update —
    /// the per-publish cost the write path pays now.
    pub stats_incremental_update: Duration,
}

/// Churn serving: drives the engine with each [`Workload`] shape
/// (inserts, deletes, skew, bursts) for `duration`, verifying at the
/// end that every materialized view and the incrementally maintained
/// statistics match a from-scratch rebuild. Also times one full
/// statistics recompute against one incremental update on the final
/// graph, quantifying the refresh-lag win of incremental stats.
pub fn serve_churn(
    dataset: Dataset,
    scale: usize,
    seed: u64,
    readers: usize,
    duration: Duration,
    write_pause: Duration,
) -> Vec<ChurnRow> {
    use kaskade_graph::{DegreeChange, GraphStats};
    let graph = dataset.generate(scale, seed);
    let mut kaskade = Kaskade::new(graph, dataset.schema());
    let workload =
        vec![parse(kaskade_query::listings::LISTING_1).expect("serving workload parses")];
    kaskade.select_and_materialize(&workload, &SelectionConfig::default());
    let base = kaskade.snapshot();

    Workload::ALL
        .iter()
        .map(|&shape| {
            let engine = Engine::new(base.clone());
            let outcome = drive(
                &engine,
                &workload,
                &DriveConfig {
                    readers,
                    duration,
                    read_pause: Duration::ZERO,
                    write_pause,
                    max_writes: 0,
                    verify_consistency: false,
                    workload: shape,
                },
            );
            let snap = engine.snapshot();
            let g = snap.state.graph();
            let start = Instant::now();
            let full = GraphStats::compute(g);
            let stats_full_recompute = start.elapsed();
            // one representative incremental update: the first live
            // vertex gaining an out-edge (derived from its real degree
            // so the histogram update is always valid)
            let v0 = g.vertices().next().expect("non-empty");
            let change = [DegreeChange {
                vtype: g.vertex_type(v0).to_string(),
                before: Some(g.out_degree(v0)),
                after: Some(g.out_degree(v0) + 1),
            }];
            let start = Instant::now();
            std::hint::black_box(full.with_changes(&change, g.vertex_count(), g.edge_count() + 1));
            let stats_incremental_update = start.elapsed();
            ChurnRow {
                workload: shape.name(),
                reads: outcome.reads,
                writes: outcome.writes,
                retractions: outcome.report.retractions_applied,
                epochs: outcome.report.epoch,
                last_refresh: outcome.report.last_refresh,
                max_refresh_lag: outcome.report.max_refresh_lag,
                final_consistent: outcome.final_consistent,
                stats_full_recompute,
                stats_incremental_update,
            }
        })
        .collect()
}

/// One row of the sharded-ingest experiment: the same churn delta
/// sequence driven through a one-partition engine and a partitioned
/// engine, comparing where the write path spends its time.
#[derive(Debug, Clone)]
pub struct ShardedServeRow {
    /// Shard count of the sharded engine for this row.
    pub shards: usize,
    /// Deltas ingested by each engine.
    pub writes: u64,
    /// Total apply+publish time of the single engine (graph apply,
    /// incremental stats, and view maintenance — the whole serial
    /// write path).
    pub single_apply: Duration,
    /// Total apply+publish time of the partitioned engine (the same
    /// write path, with connector frontier work split by partition).
    pub partitioned_apply: Duration,
    /// Whether the blast-radius query returned byte-identical tables
    /// from both engines after the final flush.
    pub results_equal: bool,
    /// Whether the final partitioned snapshot passed the
    /// scratch-rebuild oracle ([`kaskade_service::snapshot_is_consistent`]).
    pub consistent: bool,
}

/// Sharded ingest: pre-scripts `steps` churn deltas (derived
/// sequentially, so they stay schema- and liveness-valid under any
/// batching), feeds the identical sequence to a one-partition
/// [`Engine`] and to an engine partitioned per shard count, and reports
/// both ingest totals plus the differential checks (byte-identical
/// query results, consistent final snapshot).
pub fn serve_sharded(
    dataset: Dataset,
    scale: usize,
    seed: u64,
    shard_counts: &[usize],
    steps: u64,
) -> Vec<ShardedServeRow> {
    let graph = dataset.generate(scale, seed);
    let mut kaskade = Kaskade::new(graph, dataset.schema());
    // the connector is the view whose maintenance dominates the write
    // path — the work partitions split across the pool
    if dataset.is_heterogeneous() {
        kaskade.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
    }
    let base = kaskade.snapshot();
    let query = parse(kaskade_query::listings::LISTING_1).expect("serving workload parses");

    // script the delta sequence once, against a view-free scratch state
    // (cheap), so every engine ingests the very same writes
    let mut deltas: Vec<GraphDelta> = Vec::with_capacity(steps as usize);
    let mut scratch = Snapshot::new(base.graph().clone(), base.schema().clone());
    for step in 0..steps {
        let Some(delta) = kaskade_service::churn_delta(&scratch, step) else {
            break;
        };
        scratch = scratch.with_delta(&delta);
        deltas.push(delta);
    }

    shard_counts
        .iter()
        .map(|&shards| {
            // compaction off for this experiment: the delta sequence
            // is pre-scripted in one fixed id space, and the point
            // here is comparing ingest time, not memory (the
            // `serve_compaction` experiment covers that)
            let engines = [1, shards].map(|partitions| {
                Engine::with_config(
                    base.clone(),
                    EngineConfig {
                        compact_dead_ratio: f64::INFINITY,
                        ..EngineConfig::hash(partitions)
                    },
                )
            });
            for engine in &engines {
                for d in &deltas {
                    // a full queue only means the worker is behind:
                    // drain and resubmit so every engine ingests every
                    // delta
                    while let Err(kaskade_service::SubmitError::Backpressure) =
                        engine.submit(d.clone(), SubmitOpts::default())
                    {
                        engine.flush();
                    }
                }
                engine.flush();
            }
            let [single, sharded] = &engines;
            let results_equal = match (single.execute(&query), sharded.execute(&query)) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            };
            ShardedServeRow {
                shards,
                writes: deltas.len() as u64,
                single_apply: single.metrics().apply_total,
                partitioned_apply: sharded.metrics().apply_total,
                results_equal,
                consistent: kaskade_service::snapshot_is_consistent(&sharded.snapshot().state),
            }
        })
        .collect()
}

/// One row of the serve-scale experiment: the hotkey workload served
/// live (concurrent readers + writer) at one shard count, on the
/// persistent worker pool.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Partition count (1 = unpartitioned).
    pub shards: usize,
    /// Successful reads over the run.
    pub reads: u64,
    /// Successful reads per second of wall-clock time.
    pub reads_per_sec: f64,
    /// Median query latency.
    pub read_p50: Duration,
    /// 99th-percentile query latency.
    pub read_p99: Duration,
    /// Median apply+publish latency (the publish path this experiment
    /// scales).
    pub apply_p50: Duration,
    /// 99th-percentile apply+publish latency.
    pub apply_p99: Duration,
    /// Deltas the writer submitted.
    pub writes: u64,
    /// Multi-task dispatches the persistent worker pool served
    /// (scatter, pool-backed refresh).
    pub pool_dispatches: u64,
    /// Whether the final snapshot passed the full consistency oracle.
    pub final_consistent: bool,
}

/// Publish-path scaling: the identical hotkey serving run (concurrent
/// readers, writer on a fixed cadence) swept over shard counts. Every
/// partition count applies batches through the same write path, so the
/// apply quantiles should stay within a small constant of the 1-shard
/// run — the property CI's `serve_scale` gate pins down.
pub fn serve_scale(
    dataset: Dataset,
    scale: usize,
    seed: u64,
    shard_counts: &[usize],
    readers: usize,
    duration: Duration,
    write_pause: Duration,
) -> Vec<ScaleRow> {
    let graph = dataset.generate(scale, seed);
    let mut kaskade = Kaskade::new(graph, dataset.schema());
    // same view load as `serve_sharded`: the connector dominates the
    // refresh half of the publish path
    if dataset.is_heterogeneous() {
        kaskade.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
    }
    let base = kaskade.snapshot();
    let workload =
        vec![parse(kaskade_query::listings::LISTING_1).expect("serving workload parses")];
    let cfg = DriveConfig {
        readers,
        duration,
        read_pause: Duration::ZERO,
        write_pause,
        max_writes: 0,
        verify_consistency: false,
        workload: Workload::HotKey,
    };

    shard_counts
        .iter()
        .map(|&shards| {
            let engine = Engine::with_config(base.clone(), EngineConfig::hash(shards));
            let outcome = drive(&engine, &workload, &cfg);
            ScaleRow {
                shards,
                reads: outcome.reads,
                reads_per_sec: outcome.reads_per_sec(),
                read_p50: outcome.report.p50,
                read_p99: outcome.report.p99,
                apply_p50: outcome.report.apply_p50,
                apply_p99: outcome.report.apply_p99,
                writes: outcome.writes,
                pool_dispatches: engine.pool().dispatches(),
                final_consistent: outcome.final_consistent,
            }
        })
        .collect()
}

/// One row of the slot-compaction experiment: the same constant-live
/// churn sequence served with compaction disabled vs enabled.
#[derive(Debug, Clone)]
pub struct CompactionRow {
    /// Policy label ("disabled" or the dead ratio).
    pub policy: &'static str,
    /// Churn deltas ingested.
    pub writes: u64,
    /// Live elements (vertices + edges) in the final snapshot.
    pub live: usize,
    /// Total id-slot capacity (vertex + edge slots, live + dead) of
    /// the final snapshot — what an engine actually holds in memory.
    pub slot_capacity: usize,
    /// Compactions the writer ran.
    pub compactions_run: u64,
    /// Id slots reclaimed across those compactions.
    pub slots_reclaimed: u64,
    /// Total apply+publish time of the write path (compactions
    /// included).
    pub apply_total: Duration,
    /// Whether the final snapshot passed the full views+stats oracle.
    pub final_consistent: bool,
}

impl CompactionRow {
    /// `slot_capacity / live` — 1.0 is perfectly compact; unbounded
    /// growth under churn shows up as this ratio climbing forever.
    pub fn capacity_ratio(&self) -> f64 {
        self.slot_capacity as f64 / self.live.max(1) as f64
    }
}

/// Slot compaction under churn: drives `steps` constant-live churn
/// deltas (insert/delete turnover, [`kaskade_service::churn_delta`])
/// through two engines — compaction disabled vs the default 0.5
/// dead-ratio policy — and reports the final live size against the
/// id-slot capacity each engine actually holds. Runs on a small
/// provenance base (with the connector view materialized) so hundreds
/// of steps of turnover cross the compaction threshold several times;
/// on the disabled engine the same turnover just accumulates
/// tombstones. Each engine scripts every delta from its **own**
/// current snapshot and submits it with that snapshot's epoch — after
/// the first compaction the two id spaces diverge, and that is the
/// point: clients keep working purely in published-snapshot terms.
pub fn serve_compaction(seed: u64, steps: u64) -> Vec<CompactionRow> {
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_service::SubmitError;
    let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
    let mut kaskade = Kaskade::new(g, kaskade_graph::Schema::provenance());
    kaskade.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
    let base = kaskade.snapshot();

    [("disabled", f64::INFINITY), ("ratio 0.5", 0.5)]
        .into_iter()
        .map(|(policy, ratio)| {
            let engine = Engine::with_config(
                base.clone(),
                EngineConfig {
                    compact_dead_ratio: ratio,
                    ..EngineConfig::default()
                },
            );
            let mut writes = 0u64;
            for step in 0..steps {
                let snap = engine.snapshot();
                let Some(delta) = kaskade_service::churn_delta(&snap.state, step) else {
                    break;
                };
                loop {
                    match engine.submit(delta.clone(), SubmitOpts::based_on(snap.epoch)) {
                        Ok(()) => {
                            writes += 1;
                            break;
                        }
                        Err(SubmitError::Backpressure) => {
                            engine.flush();
                        }
                        Err(_) => break, // engine gone: delta not counted
                    }
                }
                // small batches keep the turnover visible to the policy
                if step % 8 == 7 {
                    engine.flush();
                }
            }
            engine.flush();
            let snap = engine.snapshot();
            let graph = snap.state.graph();
            let report = engine.metrics();
            CompactionRow {
                policy,
                writes,
                live: graph.vertex_count() + graph.edge_count(),
                slot_capacity: graph.vertex_slots() + graph.edge_slots(),
                compactions_run: report.compactions_run,
                slots_reclaimed: report.slots_reclaimed,
                apply_total: report.apply_total,
                final_consistent: kaskade_service::snapshot_is_consistent(&snap.state),
            }
        })
        .collect()
}

/// One row of the recovery experiment: one churn run logged to a WAL
/// at a given checkpoint cadence, then recovered from disk.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Checkpoint cadence (batches between checkpoints).
    pub checkpoint_every: u64,
    /// Churn deltas ingested before the engine was torn down.
    pub writes: u64,
    /// Log records replayed on top of the latest checkpoint.
    pub records_replayed: usize,
    /// Size of the latest checkpoint file on disk.
    pub checkpoint_bytes: u64,
    /// Size of the delta log on disk at teardown.
    pub log_bytes: u64,
    /// Wall time of the raw checkpoint-load + log-replay pass — the
    /// irreducible budget any recovery pays.
    pub replay_time: Duration,
    /// Wall time of the full [`Engine::recover`] restart (includes a
    /// second replay pass, the fresh safety checkpoint, and spinning
    /// the writer up).
    pub restart_time: Duration,
    /// Whether the recovered state is byte-identical to the state the
    /// live engine last published.
    pub state_matches: bool,
}

impl RecoveryRow {
    /// The CI gate: the full restart must cost at most 2× the raw
    /// checkpoint+replay budget (engine spin-up must not dominate).
    pub fn within_budget(&self) -> bool {
        self.restart_time <= self.replay_time * 2 + Duration::from_millis(50)
    }
}

/// Recovery cost vs checkpoint cadence: drives `steps` churn deltas
/// through a WAL-backed engine per cadence in `cadences`, tears the
/// engine down, and measures (a) the raw checkpoint-load + replay pass
/// and (b) the full `Engine::recover` restart, verifying the recovered
/// state byte-matches the last published snapshot. Frequent
/// checkpoints shrink the replay tail at the price of more checkpoint
/// writes during serving; the row pair quantifies that trade.
pub fn serve_recovery(seed: u64, steps: u64, cadences: &[u64]) -> Vec<RecoveryRow> {
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_service::{SubmitError, WalConfig};
    let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
    let mut kaskade = Kaskade::new(g, kaskade_graph::Schema::provenance());
    kaskade.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
    let base = kaskade.snapshot();

    let encoded = |s: &Snapshot| {
        let mut enc = kaskade_graph::Enc::new();
        s.encode(&mut enc);
        enc.into_bytes()
    };

    cadences
        .iter()
        .map(|&cadence| {
            let dir = std::env::temp_dir().join(format!(
                "kaskade-bench-rec-{cadence}-{seed:x}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let wal = || WalConfig {
                fsync: false,
                checkpoint_every: cadence,
                ..WalConfig::new(&dir)
            };
            let engine = Engine::with_config(
                base.clone(),
                EngineConfig {
                    wal: Some(wal()),
                    ..EngineConfig::default()
                },
            );
            let mut writes = 0u64;
            for step in 0..steps {
                let snap = engine.snapshot();
                let Some(delta) = kaskade_service::churn_delta(&snap.state, step) else {
                    break;
                };
                loop {
                    match engine.submit(delta.clone(), SubmitOpts::based_on(snap.epoch)) {
                        Ok(()) => {
                            writes += 1;
                            break;
                        }
                        Err(SubmitError::Backpressure) => {
                            engine.flush();
                        }
                        Err(_) => break,
                    }
                }
                if step % 8 == 7 {
                    engine.flush();
                }
            }
            engine.flush();
            let live = engine.snapshot().state.clone();
            drop(engine); // tear down; only the WAL directory survives

            let log_bytes = std::fs::metadata(dir.join("wal.log"))
                .map(|m| m.len())
                .unwrap_or(0);
            let checkpoint_bytes = std::fs::read_dir(&dir)
                .map(|rd| {
                    rd.filter_map(|e| e.ok())
                        .filter(|e| e.file_name().to_string_lossy().starts_with("checkpoint-"))
                        .filter_map(|e| e.metadata().ok())
                        .map(|m| m.len())
                        .max()
                        .unwrap_or(0)
                })
                .unwrap_or(0);

            let start = Instant::now();
            let raw = kaskade_service::recover(&dir)
                .expect("recovery io")
                .expect("the run published batches");
            let replay_time = start.elapsed();

            let start = Instant::now();
            let restarted = Engine::recover(EngineConfig {
                wal: Some(wal()),
                ..EngineConfig::default()
            })
            .expect("recovery io")
            .expect("the run published batches");
            let restart_time = start.elapsed();

            let state_matches = encoded(&raw.state) == encoded(&live)
                && encoded(&restarted.snapshot().state) == encoded(&live);
            drop(restarted);
            let _ = std::fs::remove_dir_all(&dir);
            RecoveryRow {
                checkpoint_every: cadence,
                writes,
                records_replayed: raw.records_replayed,
                checkpoint_bytes,
                log_bytes,
                replay_time,
                restart_time,
                state_matches,
            }
        })
        .collect()
}

/// One row of the adaptive-serving experiment: the same hotkey serving
/// run, starting from an **empty** catalog, with the background view
/// advisor off ("static") vs on ("adaptive").
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Admission policy driven ("static" or "adaptive").
    pub policy: &'static str,
    /// Partition count (1 = unpartitioned).
    pub shards: usize,
    /// Successful reads over the run.
    pub reads: u64,
    /// Successful reads per second of wall-clock time.
    pub reads_per_sec: f64,
    /// Median query latency.
    pub p50: Duration,
    /// Advisor ticks that ran during the serve window.
    pub ticks: u64,
    /// Live DDL migrations (creates + drops) the advisor issued.
    pub migrations: u64,
    /// Views created through live DDL over the run.
    pub views_created: u64,
    /// Views dropped through live DDL over the run.
    pub views_dropped: u64,
    /// Plan-cache hit rate over the run (DDL prunes the cache, so the
    /// adaptive run pays a re-plan per migration).
    pub cache_hit_rate: f64,
    /// Full re-materialization fallbacks of surviving views (must be
    /// 0: DDL never forces unrelated views to rebuild).
    pub rematerialized: u64,
    /// Per-read snapshot-consistency violations (must be 0: DDL epochs
    /// publish as atomically as batch epochs).
    pub consistency_violations: u64,
    /// Whether the final snapshot passed the full consistency oracle.
    pub final_consistent: bool,
}

/// Adaptive serving: the hotkey workload served from an **empty**
/// catalog, once statically (the catalog never changes, every query
/// pays the base-graph path forever) and once with the background
/// advisor re-running enumerate+select over live workload stats and
/// migrating the catalog through live DDL mid-serve. The adaptive run
/// must migrate online — create at least one view the workload earns —
/// with zero consistency violations and zero re-materializations of
/// surviving views; the static run must not migrate at all. Those are
/// the properties CI's `report adaptive` gate and the checked-in
/// `BENCH_adaptive.json` pin down. Each run serves at least `duration`;
/// the adaptive run then continues until the advisor has committed a
/// migration or ticked `MAX_ADVISOR_TICKS` times.
pub fn serve_adaptive(
    dataset: Dataset,
    scale: usize,
    seed: u64,
    shard_counts: &[usize],
    readers: usize,
    duration: Duration,
    advise_every: Duration,
) -> Vec<AdaptiveRow> {
    use kaskade_service::{drive_until, Advisor, AdvisorConfig};
    use std::sync::Arc;
    /// Advisor ticks after which an adaptive run stops waiting for a
    /// committed migration.
    const MAX_ADVISOR_TICKS: u64 = 200;
    let graph = dataset.generate(scale, seed);
    // EMPTY catalog: every view in the adaptive run's final catalog got
    // there through advisor-issued live DDL
    let kaskade = Kaskade::new(graph, dataset.schema());
    let base = kaskade.snapshot();
    let workload =
        vec![parse(kaskade_query::listings::LISTING_1).expect("serving workload parses")];
    let cfg = DriveConfig {
        readers,
        duration,
        read_pause: Duration::ZERO,
        write_pause: Duration::from_millis(2),
        max_writes: 0,
        verify_consistency: true,
        workload: Workload::HotKey,
    };
    let advisor_cfg = AdvisorConfig {
        every: advise_every,
        ..AdvisorConfig::default()
    };

    let mut rows = Vec::new();
    for &shards in shard_counts {
        for (policy, adaptive) in [("static", false), ("adaptive", true)] {
            let engine = Arc::new(Engine::with_config(
                base.clone(),
                EngineConfig::hash(shards),
            ));
            let mut advisor = adaptive.then(|| {
                Advisor::start(
                    Arc::clone(&engine),
                    Arc::new(Tracer::new(false)),
                    advisor_cfg.clone(),
                )
            });
            // the adaptive run serves at least `duration`, then until
            // the advisor has committed a migration (or given up after
            // MAX_ADVISOR_TICKS ticks) — it ends on advisor progress,
            // not on a wall clock a loaded machine could outrun
            let progressed = || {
                advisor.as_ref().is_none_or(|a| {
                    let m = engine.metrics();
                    m.views_created + m.views_dropped > 0 || a.ticks() >= MAX_ADVISOR_TICKS
                })
            };
            let outcome = drive_until(&engine, &workload, &cfg, &progressed);
            let (ticks, migrations) = advisor.as_mut().map_or((0, 0), |a| {
                a.stop();
                (a.ticks(), a.migrations())
            });
            // read the committed DDL counters only now: a tick that
            // landed after drive() took its report has been flushed by
            // its own advise_once, and the advisor has stopped
            let report = engine.metrics();
            rows.push(AdaptiveRow {
                policy,
                shards,
                reads: outcome.reads,
                reads_per_sec: outcome.reads_per_sec(),
                p50: outcome.report.p50,
                ticks,
                migrations,
                views_created: report.views_created,
                views_dropped: report.views_dropped,
                cache_hit_rate: outcome.report.plan_cache_hit_rate(),
                rematerialized: report.views_rematerialized,
                consistency_violations: outcome.consistency_violations,
                final_consistent: outcome.final_consistent,
            });
        }
    }
    rows
}

/// One row of the refresh-DAG experiment: the same scripted churn
/// sequence applied to a multi-view composed catalog with the DAG's
/// level-parallel fan-out disabled vs enabled.
#[derive(Debug, Clone)]
pub struct DagRow {
    /// Refresh mode ("serial" or "dag-parallel").
    pub mode: &'static str,
    /// Views in the catalog.
    pub views: usize,
    /// Dependency levels the DAG scheduled them into.
    pub levels: usize,
    /// Churn deltas applied.
    pub writes: u64,
    /// Total apply+refresh time across all deltas.
    pub refresh_total: Duration,
    /// Incremental view refreshes performed.
    pub refreshed: u64,
    /// Full re-materialization fallbacks (must be 0: the composed
    /// view's upstream connector is in the catalog).
    pub rematerialized: u64,
}

/// Refresh DAG: drives `steps` churn deltas through the same 4-view
/// composed catalog (connector, summarizer *over* that connector,
/// pipeline aggregator, source-sink) twice — once with the DAG forced
/// serial, once with its level-parallel fan-out — and reports the
/// total write-path time of each. The two runs publish identical
/// snapshots; only the scheduling differs, so the delta is the pure
/// win from refreshing independent views concurrently.
pub fn serve_dag(seed: u64, steps: u64) -> Vec<DagRow> {
    use kaskade_core::{
        AggOp, ComposedDef, PropPredicate, RefreshOptions, SourceSinkDef, SummarizerDef,
    };
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    let g = generate_provenance(&ProvenanceConfig {
        seed,
        ..ProvenanceConfig::default()
    });
    let mut kaskade = Kaskade::new(g, kaskade_graph::Schema::provenance());
    let connector = ConnectorDef::k_hop("Job", "Job", 2);
    kaskade.materialize_view(ViewDef::Connector(connector.clone()));
    kaskade.materialize_view(ViewDef::Composed(ComposedDef {
        connector,
        summarizer: SummarizerDef::EdgePredicate {
            keep: PropPredicate::IntAtLeast("support".into(), 2),
        },
    }));
    kaskade.materialize_view(ViewDef::Summarizer(SummarizerDef::VertexAggregator {
        vtype: "Job".into(),
        group_prop: "pipelineName".into(),
        agg_prop: "CPU".into(),
        agg: AggOp::Sum,
    }));
    kaskade.materialize_view(ViewDef::SourceSink(SourceSinkDef::default()));
    let base = kaskade.snapshot();

    let pool = kaskade_service::WorkerPool::with_default_threads();
    [("serial", None), ("dag-parallel", Some(&*pool))]
        .into_iter()
        .map(|(mode, exec)| {
            let opts = RefreshOptions {
                exec: exec.map(|p| p as &dyn kaskade_graph::ParallelExec),
                ..RefreshOptions::default()
            };
            let mut snap = base.clone();
            let mut total = Duration::ZERO;
            let (mut writes, mut refreshed, mut remat, mut levels) = (0u64, 0u64, 0u64, 0usize);
            for step in 0..steps {
                let Some(delta) = kaskade_service::churn_delta(&snap, step) else {
                    break;
                };
                let start = Instant::now();
                let (next, report) = snap.with_delta_report(&delta, &opts);
                total += start.elapsed();
                snap = next;
                writes += 1;
                refreshed += report.refreshed as u64;
                remat += report.rematerialized as u64;
                levels = report.levels;
            }
            DagRow {
                mode,
                views: base.catalog().len(),
                levels,
                writes,
                refresh_total: total,
                refreshed,
                rematerialized: remat,
            }
        })
        .collect()
}

/// One Table III row: dataset inventory.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset short name.
    pub name: &'static str,
    /// "heterogeneous" / "homogeneous".
    pub kind: &'static str,
    /// Raw vertex count.
    pub vertices: usize,
    /// Raw edge count.
    pub edges: usize,
    /// Distinct vertex types.
    pub vertex_types: usize,
    /// Distinct edge types.
    pub edge_types: usize,
}

/// Table III: generated dataset inventory at the given scale.
pub fn table3(scale: usize, seed: u64) -> Vec<Table3Row> {
    Dataset::ALL
        .iter()
        .map(|&d| {
            let g = d.generate(scale, seed);
            Table3Row {
                name: d.short_name(),
                kind: if d.is_heterogeneous() {
                    "heterogeneous"
                } else {
                    "homogeneous"
                },
                vertices: g.vertex_count(),
                edges: g.edge_count(),
                vertex_types: g.vertex_type_counts().len(),
                edge_types: g.edge_type_counts().len(),
            }
        })
        .collect()
}

/// Fig. 5 estimator accuracy summary used by EXPERIMENTS.md: how many
/// prefixes have `actual <= est_alpha95` (the paper's claim that α=95
/// upper-bounds most real graphs).
pub fn fig5_upper_bound_hit_rate(rows: &[Fig5Row]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let hits = rows
        .iter()
        .filter(|r| (r.actual as f64) <= r.est_alpha95)
        .count();
    hits as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_rows_monotone_prefixes() {
        let rows = fig5(Dataset::Prov, 1, 31, &[500, 2_000, 8_000]);
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(w[0].graph_edges <= w[1].graph_edges);
        }
        for r in &rows {
            assert!(r.est_alpha50 <= r.est_alpha95);
            assert!(r.est_alpha95 >= 0.0);
        }
    }

    #[test]
    fn fig5_er_underestimates_on_powerlaw() {
        let rows = fig5(Dataset::SocLivejournal, 1, 32, &[5_000]);
        let r = rows[0];
        assert!(
            r.est_erdos_renyi < r.actual as f64,
            "er={} actual={}",
            r.est_erdos_renyi,
            r.actual
        );
    }

    #[test]
    fn fig6_stages_shrink_on_prov() {
        let env = Env::prepare(Dataset::Prov, 1, 33);
        let rows = fig6(&env);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].vertices > rows[1].vertices, "summarizer shrinks");
        assert!(rows[1].vertices > rows[2].vertices, "connector shrinks");
    }

    #[test]
    fn fig7_produces_rows_for_applicable_queries() {
        let env = Env::prepare(Dataset::Dblp, 1, 34);
        let rows = fig7(&env, 1);
        // q1 excluded for dblp → 7 rows
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.filter_secs >= 0.0 && r.connector_secs >= 0.0);
        }
    }

    #[test]
    fn fig8_powerlaw_fit_negative_for_social() {
        let d = fig8(Dataset::SocLivejournal, 1, 35);
        assert!(d.exponent.unwrap() < 0.0);
        assert!(!d.ccdf.is_empty());
    }

    #[test]
    fn ablation_shows_search_space_reduction() {
        let a = enumeration_ablation(Dataset::Prov, 10);
        // constraint-based enumeration yields a handful of candidates;
        // the procedural schema-path space is much larger
        assert!(a.constrained_candidates > 0);
        assert!(a.procedural_paths > a.constrained_candidates);
        assert!(a.constrained_steps > 0);
    }

    #[test]
    fn serve_throughput_reads_under_active_writer() {
        // unoptimized builds take ~0.5s per blast-radius query; the run
        // must span several rounds per reader for cache hits to show
        let rows = serve_throughput(
            Dataset::Prov,
            1,
            37,
            &[4],
            Duration::from_millis(1_500),
            Duration::ZERO,
            Duration::from_millis(2),
        );
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.readers, 4);
        assert!(r.reads > 0, "readers progressed: {r:?}");
        assert!(r.writes > 0, "writer progressed: {r:?}");
        assert!(r.epochs > 0, "snapshots published: {r:?}");
        assert!(r.cache_hit_rate > 0.0, "plan cache warmed: {r:?}");
        assert!(r.reads_per_sec > 0.0);
        assert!(r.p99 >= r.p50);
    }

    #[test]
    fn serve_trace_captures_spans_only_when_enabled() {
        let rows = serve_trace(
            Dataset::Prov,
            1,
            41,
            2,
            Duration::from_millis(300),
            Duration::from_millis(2),
        );
        assert_eq!(rows.len(), 3);
        let (off, on, slowlog) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!(off.variant, "off");
        assert_eq!(off.events, 0, "disabled tracer recorded spans: {off:?}");
        assert_eq!(on.variant, "on");
        assert!(on.events > 0, "enabled tracer captured nothing: {on:?}");
        assert!(on.reads > 0 && off.reads > 0);
        // a 1µs threshold makes every served query a slow query
        assert_eq!(slowlog.slow_queries, slowlog.reads, "{slowlog:?}");
    }

    #[test]
    fn serve_churn_verifies_all_workload_shapes() {
        let rows = serve_churn(
            Dataset::Prov,
            1,
            38,
            2,
            Duration::from_millis(300),
            Duration::from_millis(1),
        );
        assert_eq!(rows.len(), Workload::ALL.len());
        for r in &rows {
            assert!(
                r.final_consistent,
                "{}: final snapshot inconsistent",
                r.workload
            );
            assert!(r.writes > 0, "{}: writer progressed", r.workload);
            assert!(r.epochs > 0, "{}: snapshots published", r.workload);
        }
        let churn = rows.iter().find(|r| r.workload == "churn").unwrap();
        assert!(churn.retractions > 0, "churn actually retracted: {churn:?}");
    }

    #[test]
    fn serve_sharded_is_equivalent_and_coherent() {
        let rows = serve_sharded(Dataset::Prov, 1, 39, &[1, 4], 40);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.writes > 0, "{r:?}");
            assert!(
                r.results_equal,
                "{}-shard results diverged from the single engine",
                r.shards
            );
            assert!(
                r.consistent,
                "{}-shard final snapshot inconsistent",
                r.shards
            );
            assert!(r.single_apply > Duration::ZERO);
            assert!(r.partitioned_apply > Duration::ZERO);
        }
    }

    #[test]
    fn serve_scale_exercises_pool_without_spawns() {
        let rows = serve_scale(
            Dataset::Prov,
            1,
            43,
            &[1, 2],
            2,
            Duration::from_millis(300),
            Duration::from_millis(2),
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.final_consistent, "{}-shard: {r:?}", r.shards);
            assert!(r.writes > 0 && r.reads > 0, "{r:?}");
        }
        // the sharded run scatters, merges, and refreshes on the pool
        assert!(
            rows[1].pool_dispatches > 0,
            "sharded serving never dispatched to the pool: {:?}",
            rows[1]
        );
    }

    #[test]
    fn serve_compaction_bounds_slot_capacity() {
        let rows = serve_compaction(40, 900);
        assert_eq!(rows.len(), 2);
        let disabled = &rows[0];
        let enabled = &rows[1];
        assert_eq!(disabled.policy, "disabled");
        assert_eq!(disabled.compactions_run, 0);
        assert!(disabled.final_consistent, "{disabled:?}");
        assert!(enabled.final_consistent, "{enabled:?}");
        assert!(
            enabled.compactions_run >= 1,
            "churn past the threshold must compact: {enabled:?}"
        );
        assert!(enabled.slots_reclaimed > 0, "{enabled:?}");
        // the acceptance bound: capacity stays within 2x live under
        // the 0.5 policy, while the disabled engine's keeps growing
        assert!(
            enabled.capacity_ratio() <= 2.0,
            "capacity ratio {:.2} exceeds the 2x bound: {enabled:?}",
            enabled.capacity_ratio()
        );
        assert!(
            disabled.slot_capacity > enabled.slot_capacity,
            "without compaction the same churn must hold more slots: {rows:?}"
        );
    }

    #[test]
    fn serve_adaptive_migrates_online() {
        // a short minimum window: the adaptive run then serves on
        // until the advisor commits a migration (or hits its tick cap)
        let rows = serve_adaptive(
            Dataset::Prov,
            1,
            42,
            &[1],
            2,
            Duration::from_millis(200),
            Duration::from_millis(40),
        );
        assert_eq!(rows.len(), 2);
        let (fixed, adaptive) = (&rows[0], &rows[1]);
        assert_eq!(fixed.policy, "static");
        assert_eq!(fixed.migrations, 0, "no advisor, no DDL: {fixed:?}");
        assert_eq!(fixed.views_created, 0, "{fixed:?}");
        assert_eq!(adaptive.policy, "adaptive");
        assert!(adaptive.ticks >= 1, "advisor never ticked: {adaptive:?}");
        assert!(
            adaptive.migrations >= 1 && adaptive.views_created >= 1,
            "advisor never migrated the catalog online: {adaptive:?}"
        );
        for r in &rows {
            assert_eq!(r.consistency_violations, 0, "torn read under DDL: {r:?}");
            assert_eq!(r.rematerialized, 0, "DDL forced a rebuild: {r:?}");
            assert!(r.final_consistent, "{r:?}");
            assert!(r.reads > 0 && r.reads_per_sec > 0.0, "{r:?}");
        }
    }

    #[test]
    fn table3_covers_all_datasets() {
        let rows = table3(1, 36);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|r| r.name == "prov" && r.vertex_types == 5));
        assert!(rows
            .iter()
            .any(|r| r.name == "roadnet-usa" && r.kind == "homogeneous"));
    }

    #[test]
    fn upper_bound_hit_rate() {
        let rows = vec![
            Fig5Row {
                graph_edges: 10,
                est_alpha50: 1.0,
                est_alpha95: 100.0,
                est_erdos_renyi: 0.1,
                actual: 50,
            },
            Fig5Row {
                graph_edges: 10,
                est_alpha50: 1.0,
                est_alpha95: 10.0,
                est_erdos_renyi: 0.1,
                actual: 50,
            },
        ];
        assert_eq!(fig5_upper_bound_hit_rate(&rows), 0.5);
        assert_eq!(fig5_upper_bound_hit_rate(&[]), 0.0);
    }
}

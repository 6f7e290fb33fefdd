//! Integration suite for the `kaskade-service` serving runtime:
//! snapshot isolation under concurrent readers and an active delta
//! writer (zero torn reads), plan-cache behavior on repeated
//! workloads, and property tests for plan-key alpha-normalization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use kaskade::core::{ConnectorDef, GraphDelta, Kaskade, ViewDef};
use kaskade::datasets::{generate_provenance, ProvenanceConfig};
use kaskade::graph::Schema;
use kaskade::query::{execute as execute_raw, listings::LISTING_1, parse, Table};
use kaskade::service::{
    churn_delta, drive, plan_key, snapshot_is_consistent, DriveConfig, Engine, EngineConfig,
    HashPartitioner, ShardedConfig, ShardedEngine, SubmitError, SubmitOpts, Workload,
};

fn tiny_instance(seed: u64) -> Kaskade {
    let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
    let mut k = Kaskade::new(g, Schema::provenance());
    k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
    k
}

fn norm(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// THE acceptance property: ≥4 reader threads execute queries through
/// the engine while a writer applies deltas, and every snapshot a
/// reader observes is internally consistent — the plan-routed result
/// over the view equals raw execution over the same snapshot's base
/// graph (a torn read, e.g. a refreshed view paired with a stale base
/// graph, would break the equality), and every catalog entry matches a
/// fresh materialization of its definition.
#[test]
fn concurrent_readers_never_observe_torn_snapshots() {
    let engine = Engine::from_kaskade(&tiny_instance(51));
    let query = parse(LISTING_1).unwrap();
    let iterations_per_reader = 12;
    let readers = 4;
    let checks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..readers {
            let (engine, query, checks) = (&engine, &query, &checks);
            scope.spawn(move || {
                let mut reader = engine.reader();
                let mut last_epoch = 0u64;
                for _ in 0..iterations_per_reader {
                    let snap = reader.snapshot().clone();
                    assert!(snap.epoch >= last_epoch, "epochs regress");
                    last_epoch = snap.epoch;

                    // the whole query runs against one immutable state:
                    // view-routed and raw answers must coincide
                    let planned = snap.state.plan(query).unwrap();
                    assert!(planned.view_id.is_some(), "rewrites route to the view");
                    let via_view = snap.state.execute_planned(&planned).unwrap();
                    let raw = execute_raw(snap.state.graph(), query).unwrap();
                    assert_eq!(norm(&via_view), norm(&raw), "torn read at {}", snap.epoch);

                    // catalog entries match their materialized views
                    assert!(snapshot_is_consistent(&snap.state), "at {}", snap.epoch);
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // the writer streams deltas the whole time: a new job reading
        // an existing file (extends blast radii, so results change
        // across epochs — consistency within one snapshot still holds)
        let engine = &engine;
        scope.spawn(move || {
            for step in 0..60u64 {
                let snap = engine.snapshot();
                let file = snap.state.graph().vertices_of_type("File").next().unwrap();
                let mut d = GraphDelta::new();
                let j = d.add_vertex("Job", vec![]);
                d.add_edge(
                    kaskade::core::VRef::Existing(file),
                    j,
                    "IS_READ_BY",
                    vec![("ts".into(), kaskade::graph::Value::Int(step as i64))],
                );
                engine.submit(d, SubmitOpts::default()).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });

    assert_eq!(
        checks.load(Ordering::Relaxed),
        readers * iterations_per_reader
    );
    let epoch = engine.flush();
    assert!(epoch > 0, "the writer actually published");
}

/// The acceptance criterion's cache half: a repeated workload reports a
/// plan-cache hit rate > 0 while ≥4 readers run against an active
/// writer; and reads that hit the cache return the same answer as
/// reads that planned from scratch.
#[test]
fn repeated_workload_reports_cache_hits_under_writes() {
    let engine = Engine::from_kaskade(&tiny_instance(52));
    let queries = vec![parse(LISTING_1).unwrap()];
    let outcome = drive(
        &engine,
        &queries,
        &DriveConfig {
            readers: 4,
            duration: Duration::from_millis(400),
            read_pause: Duration::ZERO,
            write_pause: Duration::from_millis(2),
            max_writes: 0,
            verify_consistency: true,
            workload: Workload::Append,
        },
    );
    assert!(outcome.reads >= 8, "enough reads to repeat: {outcome:?}");
    assert_eq!(outcome.read_errors, 0);
    assert_eq!(outcome.consistency_violations, 0, "zero torn reads");
    assert!(outcome.writes > 0, "the writer was active");
    assert!(
        outcome.report.plan_cache_hit_rate() > 0.0,
        "repeated workload must hit the cache: {:?}",
        outcome.report
    );
    assert!(outcome.report.epoch > 0);
    assert_eq!(outcome.report.queries, outcome.reads);
}

/// THE retraction acceptance property: ≥4 readers run against a churn
/// writer (interleaved inserts, edge retractions, and vertex
/// retractions), and every snapshot a reader observes is internally
/// consistent — each materialized view equals a from-scratch
/// re-materialization over that snapshot's base graph (stale connector
/// edges from a retracted base edge would fail this), and the
/// incrementally maintained statistics equal an exact
/// `GraphStats::compute` over the same graph.
#[test]
fn churn_writer_keeps_views_and_stats_consistent() {
    let engine = Engine::from_kaskade(&tiny_instance(54));
    let readers = 4;
    let iterations_per_reader = 10;
    let checks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..readers {
            let (engine, checks) = (&engine, &checks);
            scope.spawn(move || {
                let mut reader = engine.reader();
                for _ in 0..iterations_per_reader {
                    let snap = reader.snapshot().clone();
                    // views vs scratch rebuild AND stats vs full compute
                    assert!(
                        snapshot_is_consistent(&snap.state),
                        "inconsistent snapshot at epoch {}",
                        snap.epoch
                    );
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // churn writer: scripted interleave of appends, edge
        // retractions, and cascading vertex retractions
        let engine = &engine;
        scope.spawn(move || {
            for step in 0..80u64 {
                let snap = engine.snapshot();
                if let Some(delta) = churn_delta(&snap.state, step) {
                    if engine.submit(delta, SubmitOpts::default()).is_err() {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });

    assert_eq!(
        checks.load(Ordering::Relaxed),
        readers * iterations_per_reader
    );
    let epoch = engine.flush();
    assert!(epoch > 0, "the churn writer actually published");
    let report = engine.metrics();
    assert!(
        report.retractions_applied > 0,
        "churn retracted: {report:?}"
    );
    // and the final state passes the oracle one more time
    assert!(snapshot_is_consistent(&engine.snapshot().state));
}

/// The same churn acceptance, driven through the shared `drive` harness
/// with per-read verification on — zero violations end to end.
#[test]
fn drive_churn_smoke_has_zero_violations() {
    let engine = Engine::from_kaskade(&tiny_instance(55));
    let queries = vec![parse(LISTING_1).unwrap()];
    let outcome = drive(
        &engine,
        &queries,
        &DriveConfig {
            readers: 4,
            duration: Duration::from_millis(400),
            read_pause: Duration::ZERO,
            write_pause: Duration::from_millis(1),
            max_writes: 0,
            verify_consistency: true,
            workload: Workload::Churn,
        },
    );
    assert!(outcome.reads > 0);
    assert_eq!(outcome.read_errors, 0);
    assert_eq!(outcome.consistency_violations, 0, "zero torn reads");
    assert!(outcome.final_consistent, "final snapshot passes the oracle");
    assert!(outcome.writes > 0, "the churn writer was active");
}

/// THE sharding acceptance property: ≥4 reader threads against a churn
/// writer on a 4-shard engine observe **zero torn reads** — every
/// snapshot a reader holds carries shard states captured at one global
/// publish (never shard epochs from two different publishes), the
/// shard partitions sum to the global graph, and the merged per-shard
/// statistics equal the global statistics.
#[test]
fn sharded_readers_never_observe_torn_shard_epochs() {
    let engine = ShardedEngine::from_kaskade(&tiny_instance(56), 4);
    let readers = 4;
    let iterations_per_reader = 12;
    let checks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..readers {
            let (engine, checks) = (&engine, &checks);
            scope.spawn(move || {
                let mut reader = engine.reader();
                let mut last_epoch = 0u64;
                let mut last_shard_epochs = [0u64; 4];
                for _ in 0..iterations_per_reader {
                    let snap = std::sync::Arc::clone(reader.snapshot());
                    assert!(snap.epoch >= last_epoch, "global epochs regress");
                    last_epoch = snap.epoch;
                    // shard epochs never regress across the snapshots a
                    // reader observes: a shard state left over from an
                    // older global publish would violate this
                    for (i, state) in snap.shard_states.iter().enumerate() {
                        assert!(
                            state.epoch >= last_shard_epochs[i],
                            "shard {i} regressed at global epoch {}",
                            snap.epoch
                        );
                        last_shard_epochs[i] = state.epoch;
                    }
                    // the structural torn-publish detector: shard
                    // edge/vertex partitions sum to the global graph and
                    // merged per-shard stats equal the global stats — a
                    // shard state from a different publish breaks these
                    assert!(snap.is_coherent(), "torn snapshot at {}", snap.epoch);
                    // the global read state itself passes the full
                    // view/stats oracle
                    assert!(snapshot_is_consistent(&snap.state), "at {}", snap.epoch);
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let engine = &engine;
        scope.spawn(move || {
            for step in 0..80u64 {
                let snap = engine.snapshot();
                if let Some(delta) = churn_delta(&snap.state, step) {
                    if engine.submit(delta, SubmitOpts::default()).is_err() {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });

    assert_eq!(
        checks.load(Ordering::Relaxed),
        readers * iterations_per_reader
    );
    let epoch = engine.flush();
    assert!(epoch > 0, "the churn writer actually published");
    assert!(engine.snapshot().is_coherent());
}

/// Backpressure coverage: a 1-capacity queue actually fills, the typed
/// `Backpressure` error surfaces through both `Engine::submit` and a
/// sharded engine, nothing is enqueued for a refused submission, and
/// the `deltas_backpressured` counter matches the refusals observed.
#[test]
fn backpressure_surfaces_and_counter_matches() {
    let g = generate_provenance(&ProvenanceConfig::tiny(57).core_only());

    // single engine: queue capacity 1, single-delta batches
    let engine = Engine::with_config(
        kaskade::core::Snapshot::new(g.clone(), Schema::provenance()),
        EngineConfig {
            max_batch: 1,
            queue_capacity: 1,
            ..EngineConfig::default()
        },
    );
    let mut refused = 0u64;
    let mut accepted = 0u64;
    for _ in 0..200_000 {
        let mut d = GraphDelta::new();
        d.add_vertex("File", vec![]);
        match engine.submit(d, SubmitOpts::default()) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Backpressure) => {
                refused += 1;
                if refused >= 3 {
                    break;
                }
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(refused >= 1, "1-capacity queue never pushed back");
    assert_eq!(
        engine.metrics().deltas_backpressured,
        refused,
        "counter must match observed refusals"
    );
    // refused submissions were not enqueued: everything accepted (and
    // nothing else) eventually lands
    engine.flush();
    assert_eq!(engine.queue_depth(), 0);
    assert_eq!(engine.metrics().deltas_applied, accepted);

    // sharded engine: same bounded-queue contract
    let sharded = ShardedEngine::with_config(
        kaskade::core::Snapshot::new(g, Schema::provenance()),
        ShardedConfig {
            partitioner: std::sync::Arc::new(HashPartitioner::new(2)),
            max_batch: 1,
            queue_capacity: 1,
            scatter_min_vertices: 0,
            ..ShardedConfig::hash(2)
        },
    );
    let mut refused = 0u64;
    let mut accepted = 0u64;
    for _ in 0..200_000 {
        let mut d = GraphDelta::new();
        d.add_vertex("File", vec![]);
        match sharded.submit(d, SubmitOpts::default()) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Backpressure) => {
                refused += 1;
                if refused >= 3 {
                    break;
                }
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(refused >= 1, "sharded router never pushed back");
    let report = sharded.metrics();
    assert_eq!(report.global.deltas_backpressured, refused);
    sharded.flush();
    assert_eq!(sharded.queue_depth(), 0);
    assert_eq!(sharded.metrics().global.deltas_applied, accepted);
    // the engine keeps serving after shedding load
    let mut d = GraphDelta::new();
    d.add_vertex("Job", vec![]);
    sharded.submit(d, SubmitOpts::default()).unwrap();
    sharded.flush();
    assert!(sharded.snapshot().is_coherent());
}

/// The sharded engine driven through the same `drive` harness the CLI
/// and benches use: zero violations with per-read verification on.
#[test]
fn drive_sharded_churn_has_zero_violations() {
    let engine = ShardedEngine::from_kaskade(&tiny_instance(58), 3);
    let queries = vec![parse(LISTING_1).unwrap()];
    let outcome = drive(
        &engine,
        &queries,
        &DriveConfig {
            readers: 4,
            duration: Duration::from_millis(300),
            read_pause: Duration::ZERO,
            write_pause: Duration::from_millis(1),
            max_writes: 0,
            verify_consistency: true,
            workload: Workload::Churn,
        },
    );
    assert!(outcome.reads > 0);
    assert_eq!(outcome.read_errors, 0);
    assert_eq!(outcome.consistency_violations, 0, "zero torn reads");
    assert!(outcome.final_consistent, "final snapshot passes the oracle");
    assert!(outcome.writes > 0, "the churn writer was active");
}

/// CLI argument validation: `--shards 0` and `--threads 0` must exit
/// cleanly with code 2 and a pointed message — not panic and not
/// silently clamp to a degenerate single-shard/single-thread run.
#[test]
fn cli_rejects_zero_shards_and_zero_threads() {
    let bin = env!("CARGO_BIN_EXE_kaskade");
    for (args, needle) in [
        (vec!["serve", "prov", "--shards", "0"], "--shards"),
        (vec!["serve", "prov", "--threads", "0"], "--threads"),
        (
            vec!["query", "prov", "--threads", "0", "@listing1"],
            "--threads",
        ),
    ] {
        let out = std::process::Command::new(bin)
            .args(&args)
            .output()
            .expect("spawn kaskade CLI");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle) && stderr.contains("at least 1"),
            "{args:?} stderr lacks a pointed message:\n{stderr}"
        );
    }
}

/// Churn through the shared `drive` harness with an aggressive
/// compaction policy: slot capacity stays bounded relative to live
/// size, the final snapshot passes the full oracle, and per-read
/// verification sees zero violations across the compaction fences.
#[test]
fn drive_churn_compacts_without_violations() {
    let engine = Engine::with_config(
        tiny_instance(59).snapshot(),
        EngineConfig {
            max_batch: 4,
            compact_dead_ratio: 0.05,
            ..EngineConfig::default()
        },
    );
    let queries = vec![parse(LISTING_1).unwrap()];
    let outcome = drive(
        &engine,
        &queries,
        &DriveConfig {
            readers: 4,
            duration: Duration::from_millis(600),
            read_pause: Duration::ZERO,
            write_pause: Duration::from_millis(1),
            max_writes: 0,
            verify_consistency: true,
            workload: Workload::Churn,
        },
    );
    assert_eq!(outcome.read_errors, 0);
    assert_eq!(outcome.consistency_violations, 0, "zero torn reads");
    assert!(outcome.final_consistent, "final snapshot passes the oracle");
    let report = &outcome.report;
    assert!(
        report.compactions_run >= 1,
        "aggressive policy must compact under churn: {report:?}"
    );
    assert!(report.slots_reclaimed > 0);
    let snap = engine.snapshot();
    let g = snap.state.graph();
    let live = g.vertex_count() + g.edge_count();
    let capacity = g.vertex_slots() + g.edge_slots();
    assert!(
        capacity <= 2 * live + 256,
        "capacity {capacity} not bounded vs live {live}: {report:?}"
    );
}

/// Batching applies many queued deltas in one publish; the final state
/// must equal sequential application.
#[test]
fn batched_ingestion_converges_to_sequential_state() {
    let k = tiny_instance(53);
    let query = parse(LISTING_1).unwrap();

    // sequential oracle
    let mut sequential = k.clone();
    let deltas: Vec<GraphDelta> = (0..10)
        .map(|i| {
            let file = sequential
                .graph()
                .vertices_of_type("File")
                .nth(i % 3)
                .unwrap();
            let mut d = GraphDelta::new();
            let j = d.add_vertex("Job", vec![]);
            d.add_edge(kaskade::core::VRef::Existing(file), j, "IS_READ_BY", vec![]);
            d
        })
        .collect();
    for d in &deltas {
        sequential.apply_delta(d);
    }

    // engine path: all ten queued before the worker can drain
    let engine = Engine::with_config(
        k.snapshot(),
        EngineConfig {
            max_batch: 16,
            ..EngineConfig::default()
        },
    );
    for d in &deltas {
        engine.submit(d.clone(), SubmitOpts::default()).unwrap();
    }
    engine.flush();
    let snap = engine.snapshot();
    assert_eq!(
        snap.state.graph().vertex_count(),
        sequential.graph().vertex_count()
    );
    assert_eq!(
        snap.state.graph().edge_count(),
        sequential.graph().edge_count()
    );
    let via_engine = snap.state.execute(&query).unwrap();
    let via_sequential = sequential.execute(&query).unwrap();
    assert_eq!(norm(&via_engine), norm(&via_sequential));
    // fewer publishes than deltas proves batching actually batched
    assert!(
        engine.metrics().batches_published <= 10,
        "{:?}",
        engine.metrics()
    );
}

/// The tracing acceptance property at the library level: a sharded
/// engine with one shared tracer records the whole pipeline — write
/// batches with retroactive queue waits, the merged publish, per-view
/// refresh spans annotated with DAG level, shard-labeled spans, and
/// the scatter/gather read path under the query root.
#[test]
fn sharded_tracer_records_the_whole_pipeline() {
    use kaskade::service::{Stage, Tracer};
    use std::sync::Arc;

    let k = tiny_instance(61);
    let tracer = Arc::new(Tracer::new(true));
    let engine = ShardedEngine::with_config(
        k.snapshot(),
        ShardedConfig {
            scatter_min_vertices: 0, // always exercise scatter/gather
            tracer: Some(Arc::clone(&tracer)),
            ..ShardedConfig::hash(2)
        },
    );
    for i in 0..4u64 {
        let snap = engine.snapshot();
        let d = churn_delta(&snap.state, i).expect("churn delta");
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
    }
    let query = parse(LISTING_1).unwrap();
    engine.execute(&query).unwrap();

    let events = tracer.dump();
    let has = |stage: Stage| events.iter().any(|e| e.stage == stage);
    for stage in [
        Stage::WriteBatch,
        Stage::QueueWait,
        Stage::Apply,
        Stage::MergePublish,
        Stage::RefreshView,
        Stage::Publish,
        Stage::Query,
        Stage::PlanCacheLookup,
        Stage::Plan,
        Stage::PoolDispatch,
        Stage::Scatter,
        Stage::Gather,
        Stage::Relational,
        Stage::PatternMatch,
    ] {
        assert!(has(stage), "no {stage} event in:\n{}", tracer.render_dump());
    }
    // the pattern match runs inside the relational stage, and the
    // scatter legs inside the pattern match
    let parent_of = |stage: Stage| {
        let child = events.iter().find(|e| e.stage == stage).unwrap();
        events
            .iter()
            .find(|e| e.id == child.parent)
            .map(|e| e.stage)
    };
    assert_eq!(parent_of(Stage::PatternMatch), Some(Stage::Relational));
    assert_eq!(parent_of(Stage::Scatter), Some(Stage::PatternMatch));
    assert_eq!(parent_of(Stage::Gather), Some(Stage::PatternMatch));
    // the merged publish is part of the apply, not a separate epoch
    let merge = events
        .iter()
        .find(|e| e.stage == Stage::MergePublish)
        .unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.id == merge.parent && e.stage == Stage::Apply),
        "merge_publish not parented to an apply span"
    );
    // per-view spans carry the view name and DAG level, parented under
    // an apply span of the same batch
    let refresh = events
        .iter()
        .find(|e| e.stage == Stage::RefreshView)
        .unwrap();
    assert!(refresh.detail.contains("level="), "{refresh:?}");
    assert!(
        events
            .iter()
            .any(|e| e.id == refresh.parent && e.stage == Stage::Apply),
        "refresh_view not parented to an apply span"
    );
    // scatter legs and the merged publish label their shards
    assert!(
        events.iter().any(|e| e.detail.starts_with("shard")),
        "no shard-labeled event in:\n{}",
        tracer.render_dump()
    );
    // the end-to-end apply histogram records every published batch
    let report = engine.metrics();
    assert!(report.global.apply_p99 > Duration::ZERO);
    assert!(!report.global.per_view.is_empty(), "per-view metrics empty");
}

/// Steady-state serving runs on the persistent worker pool: after the
/// first publish and the first query warmed every path, further writes
/// and scatter/gather queries dispatch to the pool. No code path spawns
/// ad-hoc threads, so the pool's dispatch counter is the whole check.
#[test]
fn steady_state_serving_spawns_no_threads() {
    let k = tiny_instance(73);
    let engine = ShardedEngine::with_config(
        k.snapshot(),
        ShardedConfig {
            scatter_min_vertices: 0, // always exercise scatter/gather
            ..ShardedConfig::hash(3)
        },
    );
    let query = parse(LISTING_1).unwrap();
    // warmup: first publish + first query
    let snap = engine.snapshot();
    let d = churn_delta(&snap.state, 0).expect("churn delta");
    engine.submit(d, SubmitOpts::default()).unwrap();
    engine.flush();
    engine.execute(&query).unwrap();

    let dispatches_before = engine.pool().dispatches();
    for i in 1..6u64 {
        let snap = engine.snapshot();
        let d = churn_delta(&snap.state, i).expect("churn delta");
        engine.submit(d, SubmitOpts::default()).unwrap();
        engine.flush();
        engine.execute(&query).unwrap();
    }
    assert!(
        engine.pool().dispatches() > dispatches_before,
        "serving never dispatched to the persistent pool"
    );
}

/// The `scatter_min_vertices` threshold: below it the pattern stage
/// runs inline on the caller thread (no pool dispatch, no scatter
/// spans — per-query fan-out would cost more than the matching on a
/// small graph), and the inline result is identical to the scattered
/// one.
#[test]
fn scatter_threshold_inlines_small_graphs() {
    use kaskade::service::{Stage, Tracer};
    use std::sync::Arc;

    let k = tiny_instance(77);
    let query = parse(LISTING_1).unwrap();
    let inline_tracer = Arc::new(Tracer::new(true));
    let inline_engine = ShardedEngine::with_config(
        k.snapshot(),
        ShardedConfig {
            scatter_min_vertices: usize::MAX,
            tracer: Some(Arc::clone(&inline_tracer)),
            ..ShardedConfig::hash(2)
        },
    );
    let scatter_engine = ShardedEngine::with_config(
        k.snapshot(),
        ShardedConfig {
            scatter_min_vertices: 0,
            ..ShardedConfig::hash(2)
        },
    );
    let a = inline_engine.execute(&query).unwrap();
    let b = scatter_engine.execute(&query).unwrap();
    assert_eq!(a, b, "inline and scattered execution diverged");
    // no reads were scattered: the query never touched the pool and
    // recorded no scatter or dispatch spans
    assert_eq!(inline_engine.pool().dispatches(), 0);
    let events = inline_tracer.dump();
    assert!(events.iter().any(|e| e.stage == Stage::Query));
    assert!(
        !events
            .iter()
            .any(|e| e.stage == Stage::Scatter || e.stage == Stage::PoolDispatch),
        "inline path recorded scatter spans:\n{}",
        inline_tracer.render_dump()
    );
    assert!(scatter_engine.pool().dispatches() > 0);
}

/// `kaskade serve --metrics-addr 127.0.0.1:0` end to end: the CLI
/// prints the resolved endpoint on stderr; scraping it mid-run yields
/// Prometheus text with the key series and a live `/healthz`.
#[test]
fn cli_serves_scrapeable_metrics_endpoint() {
    use std::io::{BufRead, BufReader, Read as _, Write as _};

    let bin = env!("CARGO_BIN_EXE_kaskade");
    let mut child = std::process::Command::new(bin)
        .args([
            "serve",
            "prov",
            "--duration-ms",
            "4000",
            "--shards",
            "2",
            "--trace",
            "on",
            "--metrics-addr",
            "127.0.0.1:0",
            "--write-every-ms",
            "5",
        ])
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn kaskade serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing the endpoint")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("metrics endpoint on http://") {
            break rest.trim_end_matches("/metrics").to_string();
        }
    };
    // drain stderr in the background so the child never blocks on a
    // full pipe
    let drain = std::thread::spawn(move || for _ in lines.by_ref() {});

    let get = |path: &str| {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect to endpoint");
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    assert!(get("/healthz").contains("ok"));
    let metrics = get("/metrics");
    for needle in [
        "HTTP/1.0 200 OK",
        "# TYPE kaskade_queries_total counter",
        "kaskade_shard_owned_slots{shard=\"0\"}",
        "kaskade_shard_owned_slots{shard=\"1\"}",
        "# TYPE kaskade_apply_latency_seconds histogram",
        "kaskade_trace_enabled 1",
    ] {
        assert!(
            metrics.contains(needle),
            "missing `{needle}` in:\n{metrics}"
        );
    }
    assert!(get("/trace").contains("flight recorder"));

    let status = child.wait().expect("wait for serve");
    drain.join().unwrap();
    assert!(status.success(), "serve run failed: {status:?}");
}

/// `--stats-json` emits one machine-readable line on stdout — the
/// contract the CI overhead gate consumes.
#[test]
fn cli_stats_json_reports_the_final_outcome() {
    let bin = env!("CARGO_BIN_EXE_kaskade");
    let out = std::process::Command::new(bin)
        .args([
            "serve",
            "prov",
            "--duration-ms",
            "400",
            "--write-every-ms",
            "5",
            "--stats-json",
        ])
        .output()
        .expect("spawn kaskade serve");
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout
        .lines()
        .find(|l| l.starts_with("{\"vertices\":"))
        .unwrap_or_else(|| panic!("no JSON line in:\n{stdout}"));
    for key in [
        "\"edges\":",
        "\"reads\":",
        "\"reads_per_sec\":",
        "\"epoch\":",
        "\"deltas_applied\":",
        "\"p99_ns\":",
        "\"apply_p99_ns\":",
        "\"slow_queries\":",
        "\"per_view\":[",
    ] {
        assert!(json.contains(key), "missing `{key}` in:\n{json}");
    }
    assert!(json.ends_with("]}"), "not a closed JSON object:\n{json}");
}

/// A DDL publish invalidates the plan cache with **no carry-forward**:
/// a cached plan that names a dropped [`ViewId`] can never be served
/// after the drop (the epoch-keyed cache starts empty, the replan
/// routes to the base graph), and once an identical view is recreated
/// the very same query plans against the **new** view under a fresh
/// id — tombstoned slots are never reused.
///
/// [`ViewId`]: kaskade::core::ViewId
#[test]
fn plan_cache_never_serves_plans_across_ddl() {
    use kaskade::core::DdlOp;

    let engine = Engine::from_kaskade(&tiny_instance(62));
    let q = parse(LISTING_1).unwrap();
    let before = engine.execute(&q).unwrap();
    let snap = engine.snapshot();
    let planned = snap.state.plan(&q).unwrap();
    let dropped = planned.view_id.expect("LISTING_1 routes through the view");

    assert!(engine.submit_ddl(DdlOp::DropView(dropped)));
    engine.flush();
    // identical query: the pre-DDL cache entry names a tombstoned
    // slot; serving it would be an UnknownView error. The post-DDL
    // epoch must miss, replan, and answer from the base graph.
    let misses_before = engine.metrics().plan_cache_misses;
    let after = engine.execute(&q).unwrap();
    assert_eq!(
        norm(&before),
        norm(&after),
        "drop changes routing, not results"
    );
    assert_eq!(
        engine.metrics().plan_cache_misses,
        misses_before + 1,
        "no plan carry-forward across a DDL epoch"
    );
    let snap = engine.snapshot();
    assert!(snap.state.plan(&q).unwrap().view_id.is_none());

    // recreate an identical view: same query now routes through it,
    // under a fresh id (the dropped slot stays tombstoned forever)
    let def = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2));
    assert!(engine.submit_ddl(DdlOp::CreateView(def)));
    engine.flush();
    let recreated = engine.execute(&q).unwrap();
    assert_eq!(norm(&before), norm(&recreated));
    let snap = engine.snapshot();
    let replanned = snap.state.plan(&q).unwrap();
    assert!(
        replanned.view_id.is_some(),
        "routes through the recreated view"
    );
    assert_ne!(replanned.view_id, Some(dropped), "ViewIds are never reused");
}

/// `id(v) = <ext>` point queries resolve through the epoch-published
/// external-id table into a pinned single-slot scan: they answer
/// correctly right after ingestion, keep answering after slot
/// compaction renumbers the underlying vertices, degrade to an empty
/// table (never an error) for unmapped ids, and the sharded
/// coordinator answers byte-identically to the single engine.
#[test]
fn anchored_point_queries_survive_compaction_and_match_sharded() {
    use kaskade::graph::Value;

    let point = |ext: u64| {
        parse(&format!(
            "SELECT B.CPU FROM (
                MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job)
                RETURN a AS A, b AS B) WHERE id(A) = {ext}"
        ))
        .unwrap()
    };
    // one delta wires ext-addressed jobs around a fresh file:
    // j(7001) -> f -> j(7002)
    let mut seed = GraphDelta::new();
    let a = seed.add_vertex_ext("Job", 7001, vec![("CPU".into(), Value::Int(77))]);
    let f = seed.add_vertex("File", vec![]);
    let b = seed.add_vertex_ext("Job", 7002, vec![("CPU".into(), Value::Int(88))]);
    seed.add_edge(a, f, "WRITES_TO", vec![]);
    seed.add_edge(f, b, "IS_READ_BY", vec![]);
    // churn fodder: short-lived ext vertices whose retraction leaves
    // enough dead slots to cross the aggressive compaction threshold
    let mut fodder = GraphDelta::new();
    for ext in 8000..8080u64 {
        fodder.add_vertex_ext("Job", ext, vec![]);
    }
    let mut retract = GraphDelta::new();
    for ext in 8000..8080u64 {
        retract.del_vertex_ext(ext);
    }

    let engine = Engine::with_config(
        tiny_instance(61).snapshot(),
        EngineConfig {
            compact_dead_ratio: 0.05,
            ..EngineConfig::default()
        },
    );
    engine.submit(seed.clone(), SubmitOpts::default()).unwrap();
    engine.flush();
    let hit = engine.execute(&point(7001)).unwrap();
    assert_eq!(norm(&hit), vec!["[Val(Int(88))]".to_string()]);
    // unmapped id: empty with the query's columns, not an error
    let miss = engine.execute(&point(9999)).unwrap();
    assert_eq!(miss.columns, vec!["B.CPU".to_string()]);
    assert!(miss.rows.is_empty());

    engine
        .submit(fodder.clone(), SubmitOpts::default())
        .unwrap();
    engine.flush();
    engine
        .submit(retract.clone(), SubmitOpts::default())
        .unwrap();
    engine.flush();
    assert!(
        engine.metrics().compactions_run >= 1,
        "churn must compact: {:?}",
        engine.metrics()
    );
    // the table followed the remap: same external id, same answer
    let after = engine.execute(&point(7001)).unwrap();
    assert_eq!(norm(&after), vec!["[Val(Int(88))]".to_string()]);
    let retired = engine.execute(&point(8003)).unwrap();
    assert!(retired.rows.is_empty(), "retired ids resolve to nothing");

    // sharded parity: the same ingest through a 4-shard coordinator
    // answers every anchored query identically
    let sharded = ShardedEngine::from_kaskade(&tiny_instance(61), 4);
    for d in [seed, fodder, retract] {
        sharded.submit(d, SubmitOpts::default()).unwrap();
        sharded.flush();
    }
    for ext in [7001, 7002, 8003, 9999] {
        let s = sharded.execute(&point(ext)).unwrap();
        let e = engine.execute(&point(ext)).unwrap();
        assert_eq!(s.columns, e.columns, "ext {ext}");
        assert_eq!(norm(&s), norm(&e), "ext {ext}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Alpha-equivalent queries — identical structure and output
    /// aliases, arbitrarily renamed pattern variables — get identical
    /// plan-cache keys, for any suffixes and any hop window.
    #[test]
    fn plan_key_is_alpha_invariant(
        s1 in "[a-z]{0,6}",
        s2 in "[a-z]{0,6}",
        lo in 0usize..3,
        span in 0usize..4,
    ) {
        let hi = lo + span + 1;
        let build = |a: &str, b: &str, c: &str| {
            parse(&format!(
                "SELECT COUNT(*) FROM (MATCH ({a}:Job)-[:WRITES_TO]->({b}:File) \
                 ({b}:File)-[r*{lo}..{hi}]->({c}:File) RETURN {a} AS A, {c} AS C)"
            ))
            .expect("template parses")
        };
        // distinct leading letters keep the three variables distinct
        // regardless of the generated suffixes
        let q1 = build(&format!("a{s1}"), &format!("b{s1}"), &format!("c{s1}"));
        let q2 = build(&format!("x{s2}"), &format!("y{s2}"), &format!("z{s2}"));
        prop_assert_eq!(plan_key(&q1), plan_key(&q2));
    }

    /// Structural changes (hop window) and alias changes do key
    /// separately even under renaming.
    #[test]
    fn plan_key_separates_structure(
        s in "[a-z]{0,6}",
        lo in 0usize..3,
        span in 0usize..4,
    ) {
        let hi = lo + span + 1;
        let build = |alias: &str, lo: usize, hi: usize| {
            parse(&format!(
                "SELECT COUNT(*) FROM (MATCH (a{s}:Job)-[r*{lo}..{hi}]->(b{s}:Job) \
                 RETURN a{s} AS {alias})"
            ))
            .expect("template parses")
        };
        let base = build("A", lo, hi);
        prop_assert_ne!(plan_key(&base), plan_key(&build("A", lo, hi + 1)));
        prop_assert_ne!(plan_key(&base), plan_key(&build("B", lo, hi)));
    }
}

//! The traced run's per-layer numbers.
//!
//! The benchmark replays the workload's seeded reads and deltas on its
//! own thread, against the state the engine served, wrapping each
//! public call into a layer in one of its own spans. Stages that run
//! only on the engine's writer or router threads come from the
//! engine's existing flight recorder instead.

use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kaskade_core::{
    apply_delta, select_views, stat_changes, DdlOp, GraphDelta, RefreshDag, RefreshOptions,
    SelectionConfig, Snapshot, SummarizerDef, ViewDef,
};
use kaskade_graph::{ExternalIdTable, GraphStats, VertexId};
use kaskade_query::{execute_with_pattern, PatternPlan, Query, Table};
use kaskade_service::{
    execute_anchored, plan_key, PlanCache, Stage, Tracer, Wal, WalConfig, WorkerPool,
};

use crate::inputs::{lookup_query, DeltaStream, ReadMix, ReadOp, Rng, EXT_BASE};
use crate::oracle::same_rows;
use crate::setup::{fresh_dir, Served, CHECKPOINT_EVERY};
use crate::workloads::{Phase, BLAST_PAUSE, COMPACT_RATIO, RETENTION};
use crate::Cx;

/// Every per-layer metric: name, unit, and the factor from seconds
/// (or from the raw value, for counts and ratios) to that unit. Span
/// names equal metric names, so span self times land here directly.
pub const PER_LAYER: &[(&str, &str, f64)] = &[
    ("service.plan_cache.probe_us", "us", 1e6),
    ("service.plan_cache.hit_ratio", "ratio", 1.0),
    ("core.enumerate.ms", "ms", 1e3),
    ("core.rewrite.ms", "ms", 1e3),
    ("query.pattern.ms", "ms", 1e3),
    ("query.pattern.rows_per_result", "rows", 1.0),
    ("query.relational.ms", "ms", 1e3),
    ("service.anchor.us", "us", 1e6),
    ("core.maintain.validate_us", "us", 1e6),
    ("core.maintain.apply_ms", "ms", 1e3),
    ("core.refresh.connector_ms", "ms", 1e3),
    ("core.refresh.composed_ms", "ms", 1e3),
    ("core.refresh.source_sink_ms", "ms", 1e3),
    ("core.refresh.aggregator_ms", "ms", 1e3),
    ("core.refresh.summarizer_ms", "ms", 1e3),
    ("core.refresh.recomputed", "count", 1.0),
    ("core.refresh.remat", "count", 1.0),
    ("graph.stats.ms", "ms", 1e3),
    ("core.compact.ms", "ms", 1e3),
    ("core.compact.runs", "count", 1.0),
    ("core.compact.slots_per_run", "count", 1.0),
    ("service.engine.queue_wait_ms", "ms", 1e3),
    ("service.engine.publish_ms", "ms", 1e3),
    ("service.engine.batch_size", "count", 1.0),
    ("service.wal.append_us", "us", 1e6),
    ("service.wal.checkpoint_ms", "ms", 1e3),
    ("service.wal.bytes_per_delta", "bytes", 1.0),
    ("service.wal.replay_ms", "ms", 1e3),
    ("service.shard.scatter_ms", "ms", 1e3),
    ("service.shard.gather_ms", "ms", 1e3),
    ("service.shard.merge_publish_ms", "ms", 1e3),
    ("service.advisor.tick_ms", "ms", 1e3),
    ("service.advisor.migrations", "count", 1.0),
    ("core.selection.ms", "ms", 1e3),
    ("core.materialize.ms", "ms", 1e3),
    ("core.catalog.view_edge_ratio", "ratio", 1.0),
    ("datasets.generate_s", "s", 1.0),
    ("bench.remainder.read_ms", "ms", 1e3),
    ("bench.remainder.other_ms", "ms", 1e3),
    ("bench.overhead.read_ms", "ms", 1e3),
    ("bench.overhead.other_ms", "ms", 1e3),
];

/// Layers whose self times add up to one read (enumeration is not
/// among them: `core.plan` repeats it).
pub const READ_LAYERS: &[&str] = &[
    "service.plan_cache.probe_us",
    "core.plan",
    "query.pattern.ms",
    "query.relational.ms",
];
/// Layers whose self times add up to one commit.
pub const COMMIT_LAYERS: &[&str] = &[
    "core.maintain.validate_us",
    "core.maintain.apply_ms",
    "core.refresh",
    "graph.stats.ms",
    "service.wal.append_us",
    "core.compact.ms",
    "service.wal.checkpoint_ms",
];
/// The anchored lookup is one public call.
pub const LOOKUP_LAYERS: &[&str] = &["service.anchor.us"];

/// Replays the workload's read sequence against `state` with the
/// benchmark's own plan cache: probe → (miss: enumerate, plan) →
/// pattern match inside the relational stage, with the clients' think
/// time between reads. `refs` (one table per blast window, when given)
/// checks the replayed answers.
pub fn replay_reads(cx: &mut Cx, state: &Snapshot, blast: &[Query], refs: &[Table], adhoc: bool) {
    let cache = PlanCache::new();
    let mut mix = ReadMix::new(cx.cfg.seed, adhoc);
    let deadline = Instant::now() + replay_budget(cx);
    let mut n = 0;
    while n < 16 || (Instant::now() < deadline && n < 400) {
        n += 1;
        let op = mix.next().expect("endless mix");
        let q = op.query(blast);
        let req = cx.next_request();
        let class = match op {
            ReadOp::Blast(_) => &mut cx.read_requests,
            ReadOp::Adhoc(..) => &mut cx.other_requests,
        };
        class.push(req);
        let spans = &cx.spans;
        let root = spans.open("read", None, req);
        let parent = Some(root.id());
        let (key, hit) = spans.time("service.plan_cache.probe_us", parent, req, || {
            let key = plan_key(&q);
            let hit = cache.get(0, &key);
            (key, hit)
        });
        let planned = match hit {
            Some(p) => p,
            None => {
                let t = Instant::now();
                let _ = spans.time("core.enumerate.ms", parent, req, || state.enumerate(&q));
                let enumerate = t.elapsed();
                let t = Instant::now();
                let plan = spans
                    .time("core.plan", parent, req, || state.plan(&q))
                    .expect("replayed text plans");
                cx.layers
                    .entry("core.rewrite.ms")
                    .or_default()
                    .push(t.elapsed().as_secs_f64() - enumerate.as_secs_f64());
                let plan = Arc::new(plan);
                cache.insert(0, key, Arc::clone(&plan));
                plan
            }
        };
        let target = match planned.view_id {
            Some(id) => {
                &state
                    .catalog()
                    .get_by_id(id)
                    .expect("planned view exists")
                    .graph
            }
            None => state.graph(),
        };
        let rows = Cell::new(0usize);
        let rel = spans.open("query.relational.ms", parent, req);
        let rel_id = Some(rel.id());
        let table = execute_with_pattern(target, &planned.query, &|p| {
            let _span = spans.open("query.pattern.ms", rel_id, req);
            let plan = PatternPlan::new(target, p)?;
            let out = plan.execute(target);
            rows.set(rows.get() + out.1.len());
            Ok(out)
        })
        .expect("replayed read executes");
        drop(rel);
        drop(root);
        cx.layers
            .entry("query.pattern.rows_per_result")
            .or_default()
            .push(rows.get() as f64 / table.rows.len().max(1) as f64);
        if let Some(want) = refs.get(op.window()) {
            let ok = same_rows(&table, want);
            cx.oracle
                .check(ok, || "replayed read differs from the reference".into());
        }
        std::thread::sleep(BLAST_PAUSE);
    }
}

/// The traced replay's time budget per replay step.
fn replay_budget(cx: &Cx) -> Duration {
    Duration::from_secs_f64(cx.cfg.seconds / 2.0)
}

fn refresh_kind(def: &ViewDef) -> &'static str {
    match def {
        ViewDef::Connector(_) => "core.refresh.connector_ms",
        ViewDef::Composed(_) => "core.refresh.composed_ms",
        ViewDef::SourceSink(_) => "core.refresh.source_sink_ms",
        ViewDef::Summarizer(SummarizerDef::VertexAggregator { .. }) => "core.refresh.aggregator_ms",
        ViewDef::Summarizer(_) => "core.refresh.summarizer_ms",
    }
}

/// Replays up to `n` deltas of the retention stream from `base`, batch
/// of one, through the public write-path calls: resolve + validate,
/// apply, refresh DAG, statistics, compaction at the workloads' ratio,
/// and (with `wal_root`) WAL append with fsync and checkpoints.
pub fn replay_writes(cx: &mut Cx, base: &Snapshot, n: usize, wal_root: Option<&Path>) {
    let pool = WorkerPool::new(1);
    let opts = RefreshOptions {
        exec: Some(&*pool),
        ..RefreshOptions::default()
    };
    let mut state = base.clone();
    let mut extids = ExternalIdTable::new();
    let mut stream = DeltaStream::new(cx.cfg.seed, RETENTION, base);
    let mut epoch = 0u64;
    let wal_dir = wal_root.map(|r| fresh_dir(r, "replay").expect("create replay WAL directory"));
    let mut wal = wal_dir.as_ref().map(|dir| {
        let cfg = WalConfig {
            fsync: true,
            checkpoint_every: CHECKPOINT_EVERY,
            ..WalConfig::new(dir)
        };
        Wal::open(cfg, &state, epoch, &extids).expect("open replay WAL")
    });
    let log_len = |dir: &Path| std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len());
    let deadline = Instant::now() + replay_budget(cx);
    let mut done = 0;
    let mut remat = 0;
    while done < n.max(1) && (done < 16 || Instant::now() < deadline) {
        done += 1;
        let (delta, _) = stream.next_delta(&state);
        let req = cx.next_request();
        cx.other_requests.push(req);
        let spans = &cx.spans;
        let root = spans.open("commit", None, req);
        let parent = Some(root.id());
        let resolved = spans.time("core.maintain.validate_us", parent, req, || {
            let mut d = delta.clone();
            d.resolve_external(&extids, state.graph(), &GraphDelta::new())
                .and_then(|_| d.validate_against(state.graph(), 0))
                .map(|_| d)
        });
        let resolved = match resolved {
            Ok(d) => d,
            Err(e) => {
                drop(root);
                cx.oracle
                    .check(false, || format!("replayed delta rejected: {e}"));
                continue;
            }
        };
        let applied = spans.time("core.maintain.apply_ms", parent, req, || {
            apply_delta(state.graph(), &resolved)
        });
        let (catalog, report) = spans.time("core.refresh", parent, req, || {
            RefreshDag::build(state.catalog()).refresh(state.catalog(), &applied, &opts)
        });
        let stats = spans.time("graph.stats.ms", parent, req, || {
            state
                .stats()
                .with_changes(
                    &stat_changes(&applied),
                    applied.graph.owned_vertex_count(),
                    applied.graph.edge_count(),
                )
                .unwrap_or_else(|| GraphStats::compute(&applied.graph))
        });
        let mut recomputed = 0;
        for v in &report.per_view {
            let def = &state
                .catalog()
                .get_by_id(v.view)
                .expect("refreshed view")
                .def;
            cx.layers
                .entry(refresh_kind(def))
                .or_default()
                .push(v.duration.as_secs_f64());
            recomputed += v.recomputed;
        }
        cx.layers
            .entry("core.refresh.recomputed")
            .or_default()
            .push(recomputed as f64);
        remat += report.rematerialized;
        let base_slots = state.graph().vertex_slots();
        let next = Snapshot::assemble(applied.graph, state.schema().clone(), stats, catalog);
        epoch += 1;
        if let (Some(w), Some(dir)) = (wal.as_mut(), wal_dir.as_ref()) {
            let before = log_len(dir);
            spans
                .time("service.wal.append_us", parent, req, || {
                    w.append_batch(epoch, &resolved)
                })
                .expect("replay WAL append");
            let grown = log_len(dir).saturating_sub(before);
            cx.layers
                .entry("service.wal.bytes_per_delta")
                .or_default()
                .push(grown as f64);
        }
        for (i, nv) in resolved.vertices.iter().enumerate() {
            if let Some(ext) = nv.ext {
                extids
                    .insert(ext, VertexId((base_slots + i) as u32))
                    .expect("fresh external id");
            }
        }
        for &v in &resolved.del_vertices {
            if extids.ext_of(v).is_some() {
                extids.remove_slot(v);
            }
        }
        state = next;
        if dead_share(&state) >= COMPACT_RATIO {
            let (compacted, remap) = spans.time("core.compact.ms", parent, req, || state.compact());
            state = compacted;
            extids.remap(&remap);
            epoch += 1;
            if let Some(w) = wal.as_mut() {
                w.append_compact(epoch).expect("replay WAL append");
            }
        }
        if let Some(w) = wal.as_mut() {
            if w.should_checkpoint() {
                spans
                    .time("service.wal.checkpoint_ms", parent, req, || {
                        w.checkpoint(&state, epoch, &extids)
                    })
                    .expect("replay WAL checkpoint");
            }
        }
        drop(root);
    }
    cx.layers
        .entry("core.refresh.remat")
        .or_default()
        .push(remat as f64);
    drop(wal);
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Dead share of a graph's id slots, as the engines' compaction policy
/// computes it.
fn dead_share(state: &Snapshot) -> f64 {
    let g = state.graph();
    let dead = (g.vertex_slots() - g.vertex_count()) + (g.edge_slots() - g.edge_count());
    dead as f64 / (g.vertex_slots() + g.edge_slots()).max(1) as f64
}

/// Replays anchored lookups over the last `2 × RETENTION` ext ids of
/// the final state: the public `execute_anchored` call as one span,
/// and the same lookup split into its pattern and relational stages.
pub fn replay_lookups(cx: &mut Cx, state: &Snapshot, extids: &ExternalIdTable, committed: u64) {
    let mut rng = Rng::new(cx.cfg.seed, 6);
    let lo = committed.saturating_sub(2 * RETENTION);
    let deadline = Instant::now() + replay_budget(cx);
    let mut n = 0;
    while n < 64 || (Instant::now() < deadline && n < 4000) {
        n += 1;
        let ext = EXT_BASE + lo + rng.below(committed - lo);
        let q = lookup_query(ext);
        let (stripped, anchors) = q.split_extid_anchors().expect("lookup is anchored");
        let req = cx.next_request();
        let split_req = cx.next_request();
        cx.read_requests.push(req);
        let spans = &cx.spans;
        let graph = state.graph();
        let whole = spans.time("service.anchor.us", None, req, || {
            execute_anchored(graph, extids, &stripped, &anchors)
        });
        // the same call split into its stages, as its own request
        let pins: Vec<(String, VertexId)> = anchors
            .iter()
            .filter_map(|(var, ext)| extids.get(*ext).map(|v| (var.clone(), v)))
            .filter(|(_, v)| graph.is_vertex_live(*v))
            .collect();
        let rel = spans.open("query.relational.ms", None, split_req);
        let rel_id = Some(rel.id());
        let split = execute_with_pattern(graph, &stripped, &|p| {
            let _span = spans.open("query.pattern.ms", rel_id, split_req);
            if pins.len() < anchors.len() {
                let aliases = p.returns.iter().map(|(_, a)| a.clone()).collect();
                return Ok((aliases, Vec::new()));
            }
            let plan = PatternPlan::new_pinned(graph, p, &pins)?;
            Ok(plan.execute(graph))
        });
        drop(rel);
        let same = matches!((&whole, &split), (Ok(a), Ok(b)) if a.rows == b.rows);
        cx.oracle
            .check(same, || format!("replayed lookup of ext {ext} disagrees"));
    }
}

/// Times `select_views` over the blast templates on `state` and the
/// live-DDL materialization of each chosen view.
pub fn replay_selection(cx: &mut Cx, state: &Snapshot, blast: &[Query]) {
    let req = cx.next_request();
    let chosen = cx.spans.time("core.selection.ms", None, req, || {
        select_views(
            state.graph(),
            state.stats(),
            state.schema(),
            blast,
            &SelectionConfig::default(),
        )
    });
    for def in chosen.chosen() {
        let op = DdlOp::CreateView(def.clone());
        let _ = cx
            .spans
            .time("core.materialize.ms", None, req, || state.apply_ddl(&op));
    }
}

/// Advisor ticks as the client timed them.
pub fn advisor_layers(cx: &mut Cx, phases: &[Phase]) {
    let ticks = cx.layers.entry("service.advisor.tick_ms").or_default();
    for p in phases {
        ticks.extend(p.ticks.values());
    }
}

/// Recovery of a WAL directory (checkpoint load + log replay) without
/// the engine start.
pub fn time_replay(cx: &mut Cx, dir: &Path) {
    let t = Instant::now();
    let recovered = kaskade_service::recover(dir);
    let d = t.elapsed();
    cx.oracle.check(matches!(recovered, Ok(Some(_))), || {
        format!("recover({}) found nothing", dir.display())
    });
    cx.layers
        .entry("service.wal.replay_ms")
        .or_default()
        .push(d.as_secs_f64());
}

/// The engine's own counters, and the writer/router stages only its
/// flight recorder sees.
pub fn engine_layers<E: Served>(cx: &mut Cx, engine: &E, tracer: &Arc<Tracer>) {
    let r = engine.report();
    let mut put = |name: &'static str, v: f64| cx.layers.entry(name).or_default().push(v);
    if r.plan_cache_hits + r.plan_cache_misses > 0 {
        put(
            "service.plan_cache.hit_ratio",
            r.plan_cache_hits as f64 / (r.plan_cache_hits + r.plan_cache_misses) as f64,
        );
    }
    if r.batches_published > 0 {
        put(
            "service.engine.batch_size",
            r.deltas_applied as f64 / r.batches_published as f64,
        );
    }
    if r.compactions_run > 0 {
        put("core.compact.runs", r.compactions_run as f64);
        put(
            "core.compact.slots_per_run",
            r.slots_reclaimed as f64 / r.compactions_run as f64,
        );
    }
    if r.advisor_migrations > 0 {
        put("service.advisor.migrations", r.advisor_migrations as f64);
    }
    let (_, state, _) = engine.current();
    if !state.catalog().is_empty() {
        put(
            "core.catalog.view_edge_ratio",
            state.catalog().total_edges() as f64 / state.graph().edge_count().max(1) as f64,
        );
    }
    for ev in tracer.dump() {
        let name = match ev.stage {
            Stage::QueueWait => "service.engine.queue_wait_ms",
            Stage::Publish => "service.engine.publish_ms",
            Stage::Scatter => "service.shard.scatter_ms",
            Stage::Gather => "service.shard.gather_ms",
            Stage::MergePublish => "service.shard.merge_publish_ms",
            _ => continue,
        };
        put(name, ev.duration.as_secs_f64());
    }
}

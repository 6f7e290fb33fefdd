//! The self-driving view-admission loop: a background control task
//! that closes the loop between the paper's offline advisor (§V
//! enumeration + knapsack selection) and the live serving runtime.
//!
//! ```text
//!   readers ──► benefit counters ┐                  ┌─► CreateView ─┐
//!              (per served view) ├─► Advisor tick ──┤               ├─► submit_ddl
//!   readers ──► miss log         ┘   (enumerate +   └─► DropView  ──┘   (own epoch,
//!              (normalized ASTs)      select_views                       WAL-logged)
//!                                     + hysteresis)
//! ```
//!
//! Each tick drains one window of workload evidence from the engine's
//! [`Metrics`] sensors — the normalized shapes of queries no view
//! could answer, and the benefit counters of queries a view did
//! answer — re-runs §V-B [`select_views`] against the **live** graph
//! statistics (enumerating through the snapshot lineage's memo, so a
//! shape is solved once however often it recurs), diffs the chosen set
//! against the live catalog, and issues [`DdlOp`]s through the
//! engine's own DDL write path (so every migration is WAL-durable,
//! epoch-published, and invalidates the plan cache exactly like a
//! hand-issued DDL). Only DDL that changed the catalog counts as an
//! advisor migration.
//!
//! [`select_views`]: kaskade_core::select_views
//!
//! Three hysteresis guards keep the loop from thrashing under noisy or
//! oscillating workloads:
//!
//! - **dwell** ([`AdvisorConfig::min_dwell_epochs`]): a view must
//!   survive this many published epochs before the advisor may drop
//!   it, so one quiet window cannot evict a view the workload still
//!   wants;
//! - **migration cap** ([`AdvisorConfig::max_migrations_per_tick`]):
//!   at most this many DDLs per tick, so a workload cliff migrates the
//!   catalog over several epochs instead of one publish storm;
//! - **evidence floor** ([`AdvisorConfig::min_misses`]): creations
//!   need at least this many misses in the window, so a single stray
//!   query cannot trigger a materialization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use kaskade_core::{DdlOp, SelectionConfig, ViewDef, ViewId};
use kaskade_query::Query;

use crate::engine::Engine;
use crate::metrics::Metrics;
use crate::trace::{Stage, Tracer};

/// Tuning knobs of the [`Advisor`] control loop.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Pause between ticks of the background loop (ignored by
    /// [`advise_once`], which callers pace themselves).
    pub every: Duration,
    /// Space budget in edges handed to
    /// [`select_views`](kaskade_core::select_views) — the same knapsack
    /// capacity as [`SelectionConfig::budget_edges`], now enforced
    /// continuously instead of once at startup.
    pub budget_edges: u64,
    /// Degree percentile for view-size estimation (paper default 95).
    pub alpha: u8,
    /// Epochs a view must survive before the advisor may drop it.
    pub min_dwell_epochs: u64,
    /// Cap on DDLs (creates plus drops) issued per tick.
    pub max_migrations_per_tick: usize,
    /// Minimum misses in a window before any view is created.
    pub min_misses: u64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        let sel = SelectionConfig::default();
        AdvisorConfig {
            every: Duration::from_millis(250),
            budget_edges: sel.budget_edges,
            alpha: sel.alpha,
            min_dwell_epochs: 2,
            max_migrations_per_tick: 2,
            min_misses: 2,
        }
    }
}

/// Cross-tick memory of the control loop: when each live view was
/// first seen (for dwell) and its benefit counter at the last tick
/// (so a window's benefit is a delta, not a lifetime total).
#[derive(Debug, Default)]
pub struct AdvisorState {
    /// `(view, epoch first seen)` — creation epoch for views the
    /// advisor created, observation epoch for pre-existing ones.
    seen_at: Vec<(ViewId, u64)>,
    /// `(view, answered)` benefit counters as of the previous tick.
    last_answered: Vec<(ViewId, u64)>,
}

/// What one advisor tick decided (for logs, tests, and the CLI's
/// `--expect-adaptation` gate).
#[derive(Debug, Clone, Default)]
pub struct AdvisorTick {
    /// View definition ids the tick created (creates that took effect).
    pub created: Vec<String>,
    /// View slots the tick dropped (drops that took effect).
    pub dropped: Vec<ViewId>,
    /// Total misses drained from the window.
    pub misses_seen: u64,
    /// Distinct missed shapes that fed selection.
    pub shapes_seen: usize,
}

impl AdvisorTick {
    /// Total migrations (creates plus drops) this tick issued.
    pub fn migrations(&self) -> usize {
        self.created.len() + self.dropped.len()
    }
}

/// Runs one tick of the control loop inline: drain the sensors, re-run
/// selection against the live statistics, diff, and issue DDL under
/// the hysteresis guards. The background [`Advisor`] calls this on its
/// cadence; tests and the CLI gate call it directly for determinism.
pub fn advise_once(
    engine: &Engine,
    cfg: &AdvisorConfig,
    state: &mut AdvisorState,
    tracer: &Tracer,
) -> AdvisorTick {
    let mut span = tracer.span(Stage::Advise);
    let metrics: &Metrics = engine.metrics_handle();
    let misses = metrics.drain_misses();
    let benefits = metrics.view_benefits();
    let mut tick = AdvisorTick {
        misses_seen: misses.iter().map(|m| m.count).sum(),
        shapes_seen: misses.len(),
        ..AdvisorTick::default()
    };

    // weight each missed shape by its hit count (capped so one hot
    // shape cannot starve the rest of the workload out of the
    // knapsack's improvement sums)
    let workload: Vec<Query> = misses
        .iter()
        .flat_map(|m| std::iter::repeat_n(m.query.clone(), m.count.min(8) as usize))
        .collect();

    // diff the chosen set against the live catalog under one snapshot
    let (epoch, live, creations) = {
        let current = engine.snapshot();
        let snap = &current.state;
        let live: Vec<(ViewId, String)> = snap
            .catalog()
            .iter_with_ids()
            .map(|(id, v)| (id, v.def.id()))
            .collect();
        let creations: Vec<ViewDef> = if workload.is_empty() {
            Vec::new()
        } else {
            let sel = SelectionConfig {
                budget_edges: cfg.budget_edges,
                alpha: cfg.alpha,
            };
            // through the lineage's enumeration memo: each missed shape
            // is enumerated once, however many copies weight it, and
            // shapes the readers already planned are not re-solved
            snap.select_views(&workload, &sel)
                .chosen()
                .into_iter()
                .filter(|def| !live.iter().any(|(_, id)| *id == def.id()))
                .cloned()
                .collect()
        };
        (current.epoch, live, creations)
    };

    // dwell bookkeeping: stamp newly observed views, forget dead slots
    state
        .seen_at
        .retain(|(id, _)| live.iter().any(|(l, _)| l == id));
    for &(id, _) in &live {
        if !state.seen_at.iter().any(|&(s, _)| s == id) {
            state.seen_at.push((id, epoch));
        }
    }

    // benefit over THIS window: lifetime counter minus last tick's
    let answered_in_window = |id: ViewId| {
        let now = benefits
            .iter()
            .find(|b| b.id == id)
            .map_or(0, |b| b.answered);
        let before = state
            .last_answered
            .iter()
            .find(|(l, _)| *l == id)
            .map_or(0, |&(_, n)| n);
        now.saturating_sub(before)
    };

    // drop candidates: live views that earned nothing this window and
    // have dwelled long enough. Only considered once there is fresh
    // workload evidence — an idle engine (no queries at all) is not
    // evidence that its views are useless.
    let saw_queries = tick.misses_seen > 0 || benefits.iter().any(|b| answered_in_window(b.id) > 0);
    let mut drops: Vec<ViewId> = if saw_queries {
        live.iter()
            .filter(|(id, _)| answered_in_window(*id) == 0)
            .filter(|(id, _)| {
                state
                    .seen_at
                    .iter()
                    .find(|(s, _)| s == id)
                    .is_some_and(|&(_, at)| epoch.saturating_sub(at) >= cfg.min_dwell_epochs)
            })
            .map(|&(id, _)| id)
            .collect()
    } else {
        Vec::new()
    };
    // drop the longest-idle (oldest) first, deterministically
    drops.sort_by_key(|id| id.index());

    let creates = if tick.misses_seen >= cfg.min_misses {
        &creations[..creations.len().min(cfg.max_migrations_per_tick)]
    } else {
        &[]
    };
    drops.truncate(cfg.max_migrations_per_tick - creates.len());
    (tick.created, tick.dropped) = commit_migrations(engine, creates, &drops);

    // remember this tick's lifetime counters for the next window
    state.last_answered = benefits.iter().map(|b| (b.id, b.answered)).collect();
    // newly created views start their dwell clock at the epoch their
    // DDL published (acknowledged above, so the cell has advanced past
    // it)
    let current = engine.snapshot();
    let epoch_now = current.epoch;
    for created in &tick.created {
        if let Some((id, _)) = current
            .state
            .catalog()
            .iter_with_ids()
            .map(|(id, v)| (id, v.def.id()))
            .find(|(_, did)| did == created)
        {
            state.seen_at.push((id, epoch_now));
        }
    }

    span.set_epoch(epoch_now);
    span.set_detail(format!(
        "misses={} shapes={} create={} drop={}",
        tick.misses_seen,
        tick.shapes_seen,
        tick.created.len(),
        tick.dropped.len()
    ));
    tick
}

/// Submits one tick's DDL — creates first, then drops — waits for each
/// to publish, and returns (and records as advisor migrations) only
/// those that changed the catalog's membership. A drop of a slot
/// another caller dropped first (a no-op publish) or a create another
/// caller beat the advisor to (a rebuild in place) is not counted.
fn commit_migrations(
    engine: &Engine,
    creates: &[ViewDef],
    drops: &[ViewId],
) -> (Vec<String>, Vec<ViewId>) {
    let ops = creates
        .iter()
        .map(|def| DdlOp::CreateView(def.clone()))
        .chain(drops.iter().map(|&id| DdlOp::DropView(id)));
    // submit everything before waiting, so the writer can publish the
    // whole tick back to back
    let acks: Vec<_> = ops.map(|op| engine.submit_ddl_acked(op)).collect();
    let committed: Vec<bool> = acks
        .into_iter()
        .map(|ack| ack.is_some_and(|rx| rx.recv().unwrap_or(false)))
        .collect();
    let (create_acks, drop_acks) = committed.split_at(creates.len());
    let created: Vec<String> = creates
        .iter()
        .zip(create_acks)
        .filter(|&(_, &ok)| ok)
        .map(|(def, _)| def.id())
        .collect();
    let dropped: Vec<ViewId> = drops
        .iter()
        .zip(drop_acks)
        .filter(|&(_, &ok)| ok)
        .map(|(&id, _)| id)
        .collect();
    let migrations = created.len() + dropped.len();
    if migrations > 0 {
        engine
            .metrics_handle()
            .record_advisor_migrations(migrations);
    }
    (created, dropped)
}

/// The background control task: [`advise_once`] on a fixed cadence
/// against a shared engine, stoppable and joinable. Dropping the
/// handle stops the loop.
#[derive(Debug)]
pub struct Advisor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
    ticks: Arc<AtomicU64>,
    migrations: Arc<AtomicU64>,
}

impl Advisor {
    /// Spawns the control loop against `engine`, ticking every
    /// [`AdvisorConfig::every`]. Spans land in `tracer` under the
    /// `advise` stage.
    pub fn start(engine: Arc<Engine>, tracer: Arc<Tracer>, cfg: AdvisorConfig) -> Advisor {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let ticks = Arc::new(AtomicU64::new(0));
        let migrations = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let ticks = Arc::clone(&ticks);
            let migrations = Arc::clone(&migrations);
            std::thread::Builder::new()
                .name("kaskade-advisor".into())
                .spawn(move || {
                    let mut state = AdvisorState::default();
                    loop {
                        {
                            let (lock, cvar) = &*stop;
                            let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                            while !*stopped {
                                let (guard, timeout) = cvar
                                    .wait_timeout(stopped, cfg.every)
                                    .unwrap_or_else(|e| e.into_inner());
                                stopped = guard;
                                if timeout.timed_out() {
                                    break;
                                }
                            }
                            if *stopped {
                                return;
                            }
                        }
                        let tick = advise_once(&engine, &cfg, &mut state, &tracer);
                        ticks.fetch_add(1, Ordering::Relaxed);
                        migrations.fetch_add(tick.migrations() as u64, Ordering::Relaxed);
                    }
                })
                .expect("spawn advisor worker")
        };
        Advisor {
            stop,
            handle: Some(handle),
            ticks,
            migrations,
        }
    }

    /// Ticks completed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Total migrations (creates plus drops) issued so far.
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Stops the loop and joins the thread. Idempotent; also runs on
    /// drop.
    pub fn stop(&mut self) {
        {
            let (lock, cvar) = &*self.stop;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Advisor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use kaskade_core::{ConnectorDef, Kaskade, ViewDef};
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_graph::Schema;
    use kaskade_query::{listings::LISTING_1, parse};

    fn serving_engine(seed: u64, with_view: bool) -> Engine {
        let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
        let mut k = Kaskade::new(g, Schema::provenance());
        if with_view {
            k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        }
        Engine::from_kaskade(&k)
    }

    fn greedy() -> AdvisorConfig {
        AdvisorConfig {
            min_dwell_epochs: 0,
            min_misses: 1,
            ..AdvisorConfig::default()
        }
    }

    #[test]
    fn advisor_creates_a_view_for_a_missed_workload() {
        let engine = serving_engine(41, false);
        let q = parse(LISTING_1).unwrap();
        // the 2-hop workload runs against the bare base graph: misses
        for _ in 0..8 {
            engine.execute(&q).unwrap();
        }
        let mut state = AdvisorState::default();
        let tracer = Tracer::new(false);
        let tick = advise_once(&engine, &greedy(), &mut state, &tracer);
        assert!(tick.misses_seen >= 8, "{tick:?}");
        assert_eq!(
            tick.created,
            vec!["connector:JOB_TO_JOB_2_HOP".to_string()],
            "{tick:?}"
        );
        assert!(tick.dropped.is_empty());
        // the created view now answers the workload: a later tick sees
        // benefit, not misses
        for _ in 0..4 {
            engine.execute(&q).unwrap();
        }
        let tick = advise_once(&engine, &greedy(), &mut state, &tracer);
        assert_eq!(tick.misses_seen, 0, "{tick:?}");
        assert!(tick.created.is_empty());
        assert!(tick.dropped.is_empty(), "beneficial view survives");
        assert_eq!(engine.metrics().advisor_migrations, 1);
    }

    #[test]
    fn advisor_drops_an_idle_view_only_after_dwell() {
        let engine = serving_engine(42, true);
        // publish a few epochs so the pre-existing view's dwell clock
        // (stamped at first observation) can expire
        let mut state = AdvisorState::default();
        let tracer = Tracer::new(false);
        let cfg = AdvisorConfig {
            min_dwell_epochs: 3,
            // high evidence floor: this test exercises the DROP path
            // only — the missed shape must not trigger creations
            min_misses: 1000,
            ..AdvisorConfig::default()
        };
        // a workload the view can't answer: misses, but no drop yet —
        // the view hasn't dwelled
        let q = parse("SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS A)")
            .unwrap();
        engine.execute(&q).unwrap();
        let tick = advise_once(&engine, &cfg, &mut state, &tracer);
        assert!(tick.dropped.is_empty(), "dwell guard holds: {tick:?}");
        for _ in 0..4 {
            let mut d = kaskade_core::GraphDelta::new();
            d.add_vertex("Job", vec![]);
            engine
                .submit(d, crate::engine::SubmitOpts::default())
                .unwrap();
            engine.flush();
        }
        engine.execute(&q).unwrap();
        let tick = advise_once(&engine, &cfg, &mut state, &tracer);
        assert_eq!(tick.dropped, vec![ViewId(0)], "{tick:?}");
        assert!(engine
            .snapshot()
            .state
            .catalog()
            .get_by_id(ViewId(0))
            .is_none());
    }

    #[test]
    fn idle_engine_is_not_evidence_to_drop() {
        let engine = serving_engine(43, true);
        let mut state = AdvisorState::default();
        let tracer = Tracer::new(false);
        let cfg = greedy();
        // no queries at all: repeated ticks must not touch the catalog
        for _ in 0..3 {
            let tick = advise_once(&engine, &cfg, &mut state, &tracer);
            assert_eq!(tick.migrations(), 0, "{tick:?}");
        }
        assert_eq!(engine.snapshot().state.catalog().len(), 1);
    }

    #[test]
    fn migration_cap_bounds_each_tick() {
        let engine = serving_engine(44, false);
        let q = parse(LISTING_1).unwrap();
        for _ in 0..8 {
            engine.execute(&q).unwrap();
        }
        let cfg = AdvisorConfig {
            max_migrations_per_tick: 0,
            min_misses: 1,
            min_dwell_epochs: 0,
            ..AdvisorConfig::default()
        };
        let mut state = AdvisorState::default();
        let tracer = Tracer::new(false);
        let tick = advise_once(&engine, &cfg, &mut state, &tracer);
        assert!(tick.misses_seen > 0);
        assert_eq!(tick.migrations(), 0, "cap of zero migrates nothing");
    }

    #[test]
    fn a_repeated_shape_is_enumerated_once_per_tick() {
        let engine = serving_engine(46, false);
        let q = parse(LISTING_1).unwrap();
        // eight logged misses of one shape the readers never planned:
        // the tick weights it with eight workload copies
        for _ in 0..8 {
            engine.metrics_handle().record_miss_shape(
                &crate::plan_cache::plan_key(&q),
                &q,
                Duration::from_millis(1),
            );
        }
        let before = engine.metrics();
        let tick = advise_once(
            &engine,
            &greedy(),
            &mut AdvisorState::default(),
            &Tracer::new(false),
        );
        assert_eq!(tick.misses_seen, 8);
        assert_eq!(tick.created, vec!["connector:JOB_TO_JOB_2_HOP".to_string()]);
        let after = engine.metrics();
        assert_eq!(
            after.enumeration_memo_misses - before.enumeration_memo_misses,
            1,
            "{after:?}"
        );
        assert_eq!(
            after.enumeration_memo_hits - before.enumeration_memo_hits,
            7
        );
    }

    #[test]
    fn only_ddl_that_took_effect_counts_as_a_migration() {
        let engine = serving_engine(47, true);
        // another caller drops the slot first: the advisor's drop of
        // it is a no-op publish
        assert!(engine.submit_ddl(DdlOp::DropView(ViewId(0))));
        engine.flush();
        let (created, dropped) = commit_migrations(&engine, &[], &[ViewId(0)]);
        assert!(created.is_empty() && dropped.is_empty());
        assert_eq!(engine.metrics().advisor_migrations, 0);
        assert_eq!(engine.metrics().views_dropped, 1, "the no-op is no drop");
        // a create that lands and a drop of a live slot both count
        let def = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 4));
        let (created, _) = commit_migrations(&engine, std::slice::from_ref(&def), &[]);
        assert_eq!(created, vec![def.id()]);
        let slot = engine
            .snapshot()
            .state
            .catalog()
            .lookup(&def.id())
            .unwrap()
            .0;
        let (_, dropped) = commit_migrations(&engine, &[], &[slot]);
        assert_eq!(dropped, vec![slot]);
        assert_eq!(engine.metrics().advisor_migrations, 2);
        // re-creating a definition that is already live rebuilds it in
        // place: no migration
        let two_hop = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2));
        commit_migrations(&engine, std::slice::from_ref(&two_hop), &[]);
        let (created, _) = commit_migrations(&engine, &[two_hop], &[]);
        assert!(created.is_empty());
        assert_eq!(engine.metrics().advisor_migrations, 3);
    }

    #[test]
    fn background_advisor_adapts_and_stops_cleanly() {
        let engine = Arc::new(serving_engine(45, false));
        let q = parse(LISTING_1).unwrap();
        let mut advisor = Advisor::start(
            Arc::clone(&engine),
            Arc::new(Tracer::new(false)),
            AdvisorConfig {
                every: Duration::from_millis(5),
                min_misses: 1,
                // this test races queries against ticks; an infinite
                // dwell keeps the freshly created view from being
                // dropped in a benefit-free window before we observe it
                min_dwell_epochs: u64::MAX,
                ..AdvisorConfig::default()
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            engine.execute(&q).unwrap();
            if engine.metrics().advisor_migrations >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "advisor never migrated"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        advisor.stop();
        let ticks = advisor.ticks();
        assert!(ticks >= 1);
        assert!(advisor.migrations() >= 1);
        // stopped: no further ticks
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(advisor.ticks(), ticks);
        assert!(engine
            .snapshot()
            .state
            .catalog()
            .get("connector:JOB_TO_JOB_2_HOP")
            .is_some());
    }
}

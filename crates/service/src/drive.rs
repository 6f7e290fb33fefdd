//! A reusable load harness: N reader threads at a fixed pace against a
//! scripted delta writer.
//!
//! Both the `kaskade serve` CLI mode and the `kaskade-bench`
//! concurrent-throughput experiment drive the [`Engine`] the same way;
//! this module is that shared way. Reader threads round-robin a query
//! list through per-thread [`crate::Reader`] handles (the lock-free
//! path); one writer thread submits scripted deltas of a configurable
//! [`Workload`] shape (append / churn / hotkey / burst) on its own
//! cadence. Readers optionally self-check snapshot consistency on
//! every query, turning any torn read into a counted failure; every
//! run additionally verifies the final snapshot — views against
//! from-scratch re-materialization and incremental statistics against
//! a full recompute — so stale-view regressions fail `--smoke`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kaskade_core::materialize;
use kaskade_query::Query;

use crate::engine::{Engine, SubmitError, SubmitOpts};
use crate::metrics::MetricsReport;
use crate::stream::{delta_for, Workload};

/// Workload shape for [`drive`].
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Wall-clock duration to run.
    pub duration: Duration,
    /// Pause between queries on each reader thread (`ZERO` = closed
    /// loop, i.e. as fast as the engine allows).
    pub read_pause: Duration,
    /// Pause between submitted deltas (`ZERO` disables the writer).
    pub write_pause: Duration,
    /// Cap on submitted deltas (0 = unlimited within `duration`).
    pub max_writes: u64,
    /// Re-verify on every read that each catalog entry matches a fresh
    /// materialization of its definition against the snapshot's base
    /// graph (expensive; for tests/smoke runs, not throughput numbers).
    pub verify_consistency: bool,
    /// Shape of the scripted delta stream the writer submits.
    pub workload: Workload,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            readers: 4,
            duration: Duration::from_millis(500),
            read_pause: Duration::ZERO,
            write_pause: Duration::from_millis(2),
            max_writes: 0,
            verify_consistency: false,
            workload: Workload::Append,
        }
    }
}

/// What a [`drive`] run observed.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// Successful reads across all reader threads.
    pub reads: u64,
    /// Failed reads (query errors) across all reader threads.
    pub read_errors: u64,
    /// Snapshot-consistency violations observed (always 0 unless the
    /// engine is broken; only counted with `verify_consistency`).
    pub consistency_violations: u64,
    /// Deltas submitted by the writer thread.
    pub writes: u64,
    /// Submissions the bounded queue refused (backpressure); the writer
    /// retries them after a pause.
    pub writes_backpressured: u64,
    /// Whether the final (post-flush) snapshot passed the full
    /// consistency oracle: every materialized view equals a fresh
    /// re-materialization over the final base graph, and the
    /// incrementally maintained statistics equal a from-scratch
    /// `GraphStats::compute`. Checked on every run — a stale-view or
    /// stale-stats regression fails `--smoke` even without
    /// `verify_consistency`.
    pub final_consistent: bool,
    /// Wall-clock time actually spent.
    pub elapsed: Duration,
    /// The engine's metrics at the end of the run (after a flush).
    pub report: MetricsReport,
}

impl DriveOutcome {
    /// Successful reads per second of wall-clock time.
    pub fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Checks that a snapshot is internally consistent: every catalog entry
/// equals a fresh materialization of its definition over the snapshot's
/// base graph — same vertices (type and properties, in id order) and
/// the same edge multiset (endpoints, type, and properties including
/// `ts` and the provenance `support` count; edge *order* may differ
/// between incremental and full builds) — and the incrementally
/// maintained statistics equal a from-scratch `GraphStats::compute`
/// over the base graph. Including properties matters: incremental
/// maintenance copies them separately from structure, so a
/// property-dropping bug must fail this oracle too. O(views ×
/// materialization) — a correctness oracle, not a fast path.
pub fn snapshot_is_consistent(state: &kaskade_core::Snapshot) -> bool {
    if *state.stats() != kaskade_graph::GraphStats::compute(state.graph()) {
        return false;
    }
    let props = |g: &kaskade_graph::Graph, m: &kaskade_graph::PropMap| {
        let mut kv: Vec<(String, String)> = m
            .iter()
            .map(|(k, v)| (g.resolve(k).to_string(), format!("{v:?}")))
            .collect();
        kv.sort();
        kv
    };
    let fingerprint = |g: &kaskade_graph::Graph| {
        let vertices: Vec<_> = g
            .vertices()
            .map(|v| (g.vertex_type(v).to_string(), props(g, g.vertex_props(v))))
            .collect();
        let mut edges: Vec<_> = g
            .edges()
            .map(|e| {
                (
                    g.edge_src(e).0,
                    g.edge_dst(e).0,
                    g.edge_type(e).to_string(),
                    props(g, g.edge_props(e)),
                )
            })
            .collect();
        edges.sort();
        (vertices, edges)
    };
    state.catalog().iter().all(|view| {
        let fresh = materialize(state.graph(), &view.def);
        fingerprint(&fresh) == fingerprint(&view.graph)
    })
}

/// Runs the workload against `engine` and gathers the outcome. Reader
/// threads cycle through `queries` (offset by thread index so threads
/// diverge); the writer derives deltas of the configured [`Workload`]
/// shape from the latest snapshot via [`delta_for`]. Returns after
/// `cfg.duration` plus a final flush and a full consistency check of
/// the final snapshot.
pub fn drive(engine: &Engine, queries: &[Query], cfg: &DriveConfig) -> DriveOutcome {
    drive_until(engine, queries, cfg, &|| true)
}

/// [`drive`], but the run ends only once `cfg.duration` has elapsed
/// **and** `done()` holds (polled every few milliseconds) — so a run
/// can end on progress it is waiting for (e.g. an advisor migration)
/// instead of on a fixed wall clock.
pub fn drive_until(
    engine: &Engine,
    queries: &[Query],
    cfg: &DriveConfig,
    done: &dyn Fn() -> bool,
) -> DriveOutcome {
    assert!(!queries.is_empty(), "drive needs at least one query");
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let read_errors = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let backpressured = AtomicU64::new(0);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for reader_idx in 0..cfg.readers.max(1) {
            let (stop, reads, read_errors, violations) = (&stop, &reads, &read_errors, &violations);
            let mut reader = engine.reader();
            scope.spawn(move || {
                let mut i = reader_idx;
                while !stop.load(Ordering::Relaxed) {
                    let query = &queries[i % queries.len()];
                    i += 1;
                    match engine.execute_with(&mut reader, query) {
                        Ok(_) => {
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            read_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if cfg.verify_consistency && !snapshot_is_consistent(&reader.snapshot().state) {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    if !cfg.read_pause.is_zero() {
                        std::thread::sleep(cfg.read_pause);
                    }
                }
            });
        }
        if !cfg.write_pause.is_zero() {
            let (stop, writes, backpressured) = (&stop, &writes, &backpressured);
            scope.spawn(move || {
                let mut step = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if cfg.max_writes > 0 && step >= cfg.max_writes {
                        break;
                    }
                    // capture the snapshot's epoch with the delta: the
                    // delta's ids are in THAT epoch's id space, and a
                    // slot compaction may publish before the submit
                    // lands
                    let snap = engine.snapshot();
                    match delta_for(cfg.workload, &snap.state, step) {
                        Some(delta) => match engine.submit(delta, SubmitOpts::based_on(snap.epoch))
                        {
                            Ok(()) => {
                                writes.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(SubmitError::Backpressure) => {
                                // the queue is full: shed this step and
                                // let the worker drain before retrying
                                backpressured.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(cfg.write_pause);
                                continue;
                            }
                            Err(_) => break, // engine shutting down
                        },
                        None => break,
                    }
                    step += 1;
                    std::thread::sleep(cfg.write_pause);
                }
            });
        }
        std::thread::sleep(cfg.duration);
        while !done() {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // the measured window ends when the reader threads stop: the final
    // flush and the O(views × materialization) consistency oracle below
    // must not deflate reads_per_sec
    let elapsed = start.elapsed();
    engine.flush();
    let final_consistent = snapshot_is_consistent(&engine.snapshot().state);
    DriveOutcome {
        reads: reads.load(Ordering::Relaxed),
        read_errors: read_errors.load(Ordering::Relaxed),
        consistency_violations: violations.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
        writes_backpressured: backpressured.load(Ordering::Relaxed),
        final_consistent,
        elapsed,
        report: engine.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_core::{ConnectorDef, Kaskade, ViewDef};
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_graph::Schema;
    use kaskade_query::{listings::LISTING_1, parse};

    #[test]
    fn drive_reads_and_writes_concurrently() {
        let g = generate_provenance(&ProvenanceConfig::tiny(31).core_only());
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let engine = Engine::from_kaskade(&k);
        let queries = vec![parse(LISTING_1).unwrap()];
        let outcome = drive(
            &engine,
            &queries,
            &DriveConfig {
                readers: 4,
                duration: Duration::from_millis(200),
                write_pause: Duration::from_millis(1),
                ..DriveConfig::default()
            },
        );
        assert!(outcome.reads > 0, "readers made progress");
        assert_eq!(outcome.read_errors, 0);
        assert!(outcome.writes > 0, "writer made progress");
        assert!(outcome.report.epoch > 0, "snapshots were published");
        assert!(outcome.report.plan_cache_hit_rate() > 0.0);
        assert!(outcome.reads_per_sec() > 0.0);
        assert!(outcome.final_consistent, "final snapshot passes the oracle");
    }

    #[test]
    fn drive_churn_workload_stays_consistent() {
        let g = generate_provenance(&ProvenanceConfig::tiny(32).core_only());
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let engine = Engine::from_kaskade(&k);
        let queries = vec![parse(LISTING_1).unwrap()];
        let outcome = drive(
            &engine,
            &queries,
            &DriveConfig {
                readers: 2,
                duration: Duration::from_millis(250),
                write_pause: Duration::from_millis(1),
                workload: Workload::Churn,
                verify_consistency: true,
                ..DriveConfig::default()
            },
        );
        assert_eq!(outcome.consistency_violations, 0, "no torn reads");
        assert!(outcome.final_consistent, "churn left a consistent state");
        assert!(outcome.writes > 0);
    }
}

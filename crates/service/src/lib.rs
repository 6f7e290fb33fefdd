//! # kaskade-service
//!
//! The concurrent serving runtime of the Kaskade reproduction: the
//! layer that lets many reader threads execute queries over
//! materialized graph views *while* deltas — insertions **and
//! retractions** — stream in; the "heavy traffic" counterpart to
//! `kaskade-core`'s batch pipeline.
//!
//! Three ideas, three modules:
//!
//! - **Snapshot isolation** ([`snapshot`]): the engine publishes
//!   immutable `Arc<EpochSnapshot>` states (base graph + view catalog +
//!   statistics, all structurally shared). A query runs entirely
//!   against one snapshot; per-thread [`Reader`] handles revalidate
//!   their cached snapshot with a single atomic epoch load, so
//!   steady-state snapshot access takes no lock — the plan-cache probe
//!   is the one short critical section left on the read path.
//! - **Delta ingestion** ([`engine`]): writes are queued
//!   [`GraphDelta`]s carrying both inserts and identity-targeted
//!   retractions. A single background worker merges them into batches
//!   ([`GraphDelta::merge`], which cancels insert-then-delete pairs),
//!   applies them through `kaskade-core`'s refresh DAG — every
//!   catalog view maintained incrementally by its `ViewMaintainer`,
//!   level-parallel where views are independent — plus incremental
//!   statistics updates, and atomically publishes the successor
//!   snapshot. Readers
//!   never block writers and vice versa. The queue is bounded: when the
//!   worker falls behind, [`Engine::submit`] fails fast with a typed
//!   `Backpressure` error instead of buffering without bound. The
//!   writer also keeps memory bounded under churn: once dead id slots
//!   exceed [`EngineConfig::compact_dead_ratio`] of capacity it runs
//!   **epoch-fenced slot compaction** — dead slots drop, live ids
//!   renumber, the compacted state publishes as its own epoch, and
//!   deltas queued against older epochs are rebased through the
//!   recorded id remaps so in-flight writes never observe the
//!   renumbering.
//! - **Plan caching** ([`plan_cache`]): `plan()` results are memoized
//!   per `(epoch, alpha-normalized query)`, with hit/miss counters
//!   surfaced through [`metrics`].
//!
//! A fourth module scales the first three out: **partitioning**
//! ([`shard`]). With [`EngineConfig::partitioner`] over N > 1 shards the
//! same engine — same writer loop, same read path — splits every batch
//! across N catalog-free shard partitions applied in parallel on its
//! worker pool, assembles the global state from them, and scatters
//! pattern matching across them on the read path. It is
//! observationally identical to one partition (differential proptests
//! enforce byte-identical query results, views, and statistics).
//! [`ShardedEngine`] is a thin handle over such an engine.
//!
//! ```
//! use kaskade_core::{GraphDelta, Kaskade};
//! use kaskade_datasets::{generate_provenance, ProvenanceConfig};
//! use kaskade_graph::Schema;
//! use kaskade_query::{listings::LISTING_1, parse};
//! use kaskade_service::{Engine, SubmitOpts};
//!
//! let g = generate_provenance(&ProvenanceConfig::tiny(7).core_only());
//! let engine = Engine::from_kaskade(&Kaskade::new(g, Schema::provenance()));
//!
//! // any number of readers, zero read-path locking
//! let query = parse(LISTING_1).unwrap();
//! let before = engine.execute(&query).unwrap();
//!
//! // writes land asynchronously; flush() waits for visibility
//! let mut delta = GraphDelta::new();
//! delta.add_vertex("Job", vec![]);
//! engine.submit(delta, SubmitOpts::default()).unwrap();
//! engine.flush();
//! assert_eq!(engine.epoch(), 1);
//! assert_eq!(engine.metrics().deltas_applied, 1);
//! # drop(before);
//! ```
//!
//! The `kaskade serve` CLI mode and the `kaskade-bench` concurrent
//! throughput experiment both drive this engine through
//! [`drive()`](drive::drive).
//!
//! [`GraphDelta`]: kaskade_core::GraphDelta
//! [`GraphDelta::merge`]: kaskade_core::GraphDelta::merge

#![warn(missing_docs)]

pub mod advisor;
pub mod anchor;
pub mod drive;
pub mod engine;
pub mod expose;
pub mod metrics;
pub mod plan_cache;
pub mod pool;
pub mod shard;
pub mod snapshot;
pub mod stream;
pub mod trace;
pub mod wal;

pub use advisor::{advise_once, Advisor, AdvisorConfig, AdvisorState, AdvisorTick};
pub use anchor::execute_anchored;
pub use drive::{drive, drive_until, snapshot_is_consistent, DriveConfig, DriveOutcome};
pub use engine::{Engine, EngineConfig, SubmitError, SubmitOpts};
pub use expose::{render_prometheus, MetricsServer};
pub use metrics::{LatencyHistogram, Metrics, MetricsReport, ViewMetrics};
pub use plan_cache::{plan_key, PlanCache};
pub use pool::WorkerPool;
pub use shard::{
    per_shard_lines, HashPartitioner, Partitioner, ShardedConfig, ShardedEngine,
    ShardedMetricsReport, ShardedReader, ShardedSnapshot, TypePartitioner,
};
pub use snapshot::{EpochSnapshot, Reader, SnapshotCell};
pub use stream::{burst_delta, churn_delta, delta_for, hot_key_delta, scripted_delta, Workload};
pub use trace::{Span, Stage, TraceEvent, Tracer};
pub use wal::{recover, Recovered, Wal, WalConfig};

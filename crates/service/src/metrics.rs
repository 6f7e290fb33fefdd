//! Serving metrics: query throughput, latency quantiles, write-path
//! refresh lag, and plan-cache effectiveness.
//!
//! All counters are lock-free atomics updated on the hot paths; the
//! latency distribution is a fixed array of power-of-two nanosecond
//! buckets (a log-scale histogram), so recording a sample is one atomic
//! increment and quantiles are a 64-entry scan at report time. Reports
//! are point-in-time copies ([`MetricsReport`]) — grab one whenever, the
//! serving threads never block on it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use kaskade_core::{EnumerationMemo, ViewId, ViewRefreshStat};
use kaskade_query::Query;

/// Number of power-of-two latency buckets (bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds; 64 buckets cover any `u64` duration).
pub const BUCKETS: usize = 64;

/// A log-scale latency histogram with atomic buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&self, d: Duration) {
        let nanos = (d.as_nanos() as u64).max(1);
        let idx = (63 - nanos.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (saturating at `u64::MAX` ns).
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// Adds every sample of `other` into `self`, so quantiles of
    /// several distributions (e.g. per-partition histograms) come from
    /// their true combination — never from averaging per-histogram
    /// quantiles, which is meaningless.
    pub fn merge(&self, other: &LatencyHistogram) {
        let mut merged = 0u64;
        for (b, o) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = o.load(Ordering::Relaxed);
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
                merged += n;
            }
        }
        self.sum_nanos
            .fetch_add(other.sum_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        // count what we actually copied, so a concurrently-recording
        // `other` cannot leave `self.count` ahead of its buckets
        self.count.fetch_add(merged, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts; bucket `i` holds
    /// samples in `[2^i, 2^(i+1))` nanoseconds. The exposition endpoint
    /// turns these into cumulative Prometheus `le` buckets.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the q-th sample (within 2x of the true value).
    /// Returns `Duration::ZERO` with no samples — an idle engine
    /// reports a p99 of zero, never a sentinel garbage value.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let upper = 1u128 << (i + 1);
                return Duration::from_nanos(upper.min(u64::MAX as u128) as u64);
            }
        }
        // reachable only when a racing `record` has bumped `count`
        // before its bucket store is visible; report zero rather than
        // a nonsense `u64::MAX` duration
        Duration::ZERO
    }
}

/// Per-view counters accumulated across publishes (one slot per
/// catalog view, keyed by display name).
#[derive(Debug, Default)]
struct PerViewSlot {
    name: String,
    level: usize,
    refreshes: u64,
    rematerialized: u64,
    recomputed: u64,
    last_nanos: u64,
    hist: LatencyHistogram,
}

/// Per-view **benefit** attribution: queries this view answered and
/// the latency they cost, keyed by the view's stable [`ViewId`]. These
/// are the positive sensor inputs of the adaptive advisor (the miss
/// log is the negative side).
#[derive(Debug)]
struct BenefitSlot {
    id: ViewId,
    name: String,
    answered: u64,
    total_nanos: u64,
}

/// One normalized query shape the planner could only answer from the
/// base graph — a view that *would have* matched it may be missing.
#[derive(Debug)]
struct MissSlot {
    key: String,
    query: Query,
    count: u64,
    total_nanos: u64,
}

/// Distinct normalized shapes the miss log retains; further new shapes
/// are dropped (the hot shapes an advisor cares about recur and are
/// captured long before the cap).
const MISS_LOG_CAP: usize = 128;

/// Live serving counters shared by all engine threads.
#[derive(Debug, Default)]
pub struct Metrics {
    queries: AtomicU64,
    query_errors: AtomicU64,
    latency: LatencyHistogram,
    apply_latency: LatencyHistogram,
    deltas_applied: AtomicU64,
    deltas_rejected: AtomicU64,
    deltas_backpressured: AtomicU64,
    deltas_stale_rejected: AtomicU64,
    retractions_applied: AtomicU64,
    views_refreshed: AtomicU64,
    views_rematerialized: AtomicU64,
    views_created: AtomicU64,
    views_dropped: AtomicU64,
    advisor_migrations: AtomicU64,
    compactions_run: AtomicU64,
    slots_reclaimed: AtomicU64,
    batches_published: AtomicU64,
    apply_total_nanos: AtomicU64,
    last_refresh_nanos: AtomicU64,
    max_lag_nanos: AtomicU64,
    last_lag_nanos: AtomicU64,
    per_view: Mutex<Vec<PerViewSlot>>,
    benefits: Mutex<Vec<BenefitSlot>>,
    misses: Mutex<Vec<MissSlot>>,
}

impl Metrics {
    /// An all-zero metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served query and its latency.
    pub fn record_query(&self, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Records a failed query.
    pub fn record_query_error(&self) {
        self.query_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records deltas the writer dropped as invalid (dangling or
    /// tombstoned vertex references that could never apply).
    pub fn record_rejected(&self, deltas: usize) {
        self.deltas_rejected
            .fetch_add(deltas as u64, Ordering::Relaxed);
    }

    /// Records one submission refused because the bounded delta queue
    /// was full (the `Backpressure` error path).
    pub fn record_backpressure(&self) {
        self.deltas_backpressured.fetch_add(1, Ordering::Relaxed);
    }

    /// Records slot-addressed deltas refused as **stale**: their
    /// `based_on` epoch predates the retained compaction-remap
    /// history, so their ids can no longer be rebased safely (the
    /// typed `StaleEpoch` error path; external-id-addressed deltas
    /// never hit this).
    pub fn record_stale(&self, deltas: usize) {
        self.deltas_stale_rejected
            .fetch_add(deltas as u64, Ordering::Relaxed);
    }

    /// Records retraction operations (edge or vertex) that reached an
    /// applied batch.
    pub fn record_retractions(&self, retractions: usize) {
        self.retractions_applied
            .fetch_add(retractions as u64, Ordering::Relaxed);
    }

    /// Records one publish's view maintenance: how many views the
    /// refresh DAG refreshed and how many of those fell back to a full
    /// scratch re-materialization. On incremental-safe workloads (every
    /// composed view's upstream cataloged) the second counter stays 0 —
    /// the CI smoke gates on it.
    pub fn record_view_refresh(&self, refreshed: u64, rematerialized: u64) {
        self.views_refreshed.fetch_add(refreshed, Ordering::Relaxed);
        self.views_rematerialized
            .fetch_add(rematerialized, Ordering::Relaxed);
    }

    /// Accumulates one view's per-publish refresh stat under its
    /// display name: refresh-time histogram, delta size (recomputed
    /// units), and rematerialization fallbacks — the dimensional
    /// breakdown behind the global [`Metrics::record_view_refresh`]
    /// counters. Called by the (single) writer worker per publish, so
    /// the mutex is uncontended in steady state.
    pub fn record_per_view(&self, name: &str, stat: &ViewRefreshStat) {
        let mut views = self.per_view.lock().expect("per-view metrics poisoned");
        let slot = match views.iter_mut().find(|s| s.name == name) {
            Some(slot) => slot,
            None => {
                views.push(PerViewSlot {
                    name: name.to_string(),
                    ..PerViewSlot::default()
                });
                views.last_mut().expect("just pushed")
            }
        };
        slot.level = stat.level;
        slot.refreshes += 1;
        slot.rematerialized += stat.rematerialized as u64;
        slot.recomputed += stat.recomputed as u64;
        slot.last_nanos = stat.duration.as_nanos().min(u64::MAX as u128) as u64;
        slot.hist.record(stat.duration);
    }

    /// Records one live `CreateView` DDL publish.
    pub fn record_view_created(&self) {
        self.views_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one live `DropView` DDL publish.
    pub fn record_view_dropped(&self) {
        self.views_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records catalog migrations (creates + drops) initiated by the
    /// background advisor, as opposed to client-issued DDL — the
    /// `--expect-adaptation` CI gate asserts this is non-zero.
    pub fn record_advisor_migrations(&self, migrations: usize) {
        self.advisor_migrations
            .fetch_add(migrations as u64, Ordering::Relaxed);
    }

    /// Attributes one served query to the materialized view that
    /// answered it: the per-[`ViewId`] benefit counter the advisor
    /// weighs against refresh cost when deciding which views earn
    /// their keep.
    pub fn record_view_benefit(&self, id: ViewId, name: &str, latency: Duration) {
        let mut benefits = self.benefits.lock().expect("benefit metrics poisoned");
        let slot = match benefits.iter_mut().find(|s| s.id == id) {
            Some(slot) => slot,
            None => {
                benefits.push(BenefitSlot {
                    id,
                    name: name.to_string(),
                    answered: 0,
                    total_nanos: 0,
                });
                benefits.last_mut().expect("just pushed")
            }
        };
        slot.answered += 1;
        slot.total_nanos += latency.as_nanos().min(u64::MAX as u128) as u64;
    }

    /// Logs the normalized shape of a query the planner sent to the
    /// base graph — no materialized view could answer it. Shapes
    /// accumulate hit counts under their normalized plan key (capped
    /// at 128 distinct shapes); the advisor drains them as
    /// the workload evidence for *creating* views.
    pub fn record_miss_shape(&self, key: &str, query: &Query, latency: Duration) {
        let mut misses = self.misses.lock().expect("miss log poisoned");
        if let Some(slot) = misses.iter_mut().find(|s| s.key == key) {
            slot.count += 1;
            slot.total_nanos += latency.as_nanos().min(u64::MAX as u128) as u64;
        } else if misses.len() < MISS_LOG_CAP {
            misses.push(MissSlot {
                key: key.to_string(),
                query: query.clone(),
                count: 1,
                total_nanos: latency.as_nanos().min(u64::MAX as u128) as u64,
            });
        }
    }

    /// Takes the accumulated miss log, leaving it empty — each advisor
    /// tick consumes one window of misses, so stale shapes from a
    /// drifted-away workload phase do not haunt later decisions.
    pub fn drain_misses(&self) -> Vec<MissedQuery> {
        let mut misses = self.misses.lock().expect("miss log poisoned");
        misses
            .drain(..)
            .map(|s| MissedQuery {
                query: s.query,
                count: s.count,
                total: Duration::from_nanos(s.total_nanos),
            })
            .collect()
    }

    /// A point-in-time copy of the per-view benefit counters, in
    /// first-answer order.
    pub fn view_benefits(&self) -> Vec<ViewBenefit> {
        let benefits = self.benefits.lock().expect("benefit metrics poisoned");
        benefits
            .iter()
            .map(|s| ViewBenefit {
                id: s.id,
                name: s.name.clone(),
                answered: s.answered,
                serve_total: Duration::from_nanos(s.total_nanos),
            })
            .collect()
    }

    /// Records one slot compaction and the id slots (vertex + edge,
    /// live + dead capacity before minus after) it reclaimed.
    pub fn record_compaction(&self, reclaimed: usize) {
        self.compactions_run.fetch_add(1, Ordering::Relaxed);
        self.slots_reclaimed
            .fetch_add(reclaimed as u64, Ordering::Relaxed);
    }

    /// Records one applied write batch: how many deltas it merged, how
    /// long apply+publish took, and the refresh lag (enqueue of the
    /// oldest delta in the batch → visibility to readers).
    pub fn record_refresh(&self, deltas: usize, apply: Duration, lag: Duration) {
        self.deltas_applied
            .fetch_add(deltas as u64, Ordering::Relaxed);
        self.batches_published.fetch_add(1, Ordering::Relaxed);
        self.apply_latency.record(apply);
        self.apply_total_nanos
            .fetch_add(apply.as_nanos() as u64, Ordering::Relaxed);
        self.last_refresh_nanos
            .store(apply.as_nanos() as u64, Ordering::Relaxed);
        let lag = lag.as_nanos() as u64;
        self.last_lag_nanos.store(lag, Ordering::Relaxed);
        self.max_lag_nanos.fetch_max(lag, Ordering::Relaxed);
    }

    /// The query-latency histogram (for exposition and merging).
    pub fn query_latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// The per-batch apply+publish latency histogram: one sample per
    /// published batch.
    pub fn apply_latency(&self) -> &LatencyHistogram {
        &self.apply_latency
    }

    /// A point-in-time per-view breakdown, in first-refresh order.
    pub fn view_metrics(&self) -> Vec<ViewMetrics> {
        let views = self.per_view.lock().expect("per-view metrics poisoned");
        views
            .iter()
            .map(|s| ViewMetrics {
                name: s.name.clone(),
                level: s.level,
                refreshes: s.refreshes,
                rematerialized: s.rematerialized,
                recomputed: s.recomputed,
                refresh_p50: s.hist.quantile(0.50),
                refresh_p99: s.hist.quantile(0.99),
                refresh_total: s.hist.sum(),
                last_refresh: Duration::from_nanos(s.last_nanos),
            })
            .collect()
    }

    /// **The** report constructor: a point-in-time copy of every
    /// counter, with derived quantiles, plus the context only the
    /// owning engine has — the published epoch, the plan cache, the
    /// published snapshot's enumeration memo, and the current queue
    /// depth.
    pub fn report_with(
        &self,
        epoch: u64,
        cache: &crate::plan_cache::PlanCache,
        memo: &EnumerationMemo,
        queue_depth: usize,
    ) -> MetricsReport {
        let mut r = self.base_report();
        r.epoch = epoch;
        r.plan_cache_hits = cache.hits();
        r.plan_cache_misses = cache.misses();
        r.enumeration_memo_hits = memo.hits();
        r.enumeration_memo_misses = memo.misses();
        r.queue_depth = queue_depth as u64;
        r
    }

    /// The unstitched counter copy behind [`Metrics::report_with`];
    /// `epoch`, `plan_cache_*`, `enumeration_memo_*`, and `queue_depth`
    /// are zero here.
    fn base_report(&self) -> MetricsReport {
        MetricsReport {
            queries: self.queries.load(Ordering::Relaxed),
            query_errors: self.query_errors.load(Ordering::Relaxed),
            p50: self.latency.quantile(0.50),
            p99: self.latency.quantile(0.99),
            apply_p50: self.apply_latency.quantile(0.50),
            apply_p99: self.apply_latency.quantile(0.99),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            deltas_rejected: self.deltas_rejected.load(Ordering::Relaxed),
            deltas_backpressured: self.deltas_backpressured.load(Ordering::Relaxed),
            deltas_stale_rejected: self.deltas_stale_rejected.load(Ordering::Relaxed),
            retractions_applied: self.retractions_applied.load(Ordering::Relaxed),
            views_refreshed: self.views_refreshed.load(Ordering::Relaxed),
            views_rematerialized: self.views_rematerialized.load(Ordering::Relaxed),
            views_created: self.views_created.load(Ordering::Relaxed),
            views_dropped: self.views_dropped.load(Ordering::Relaxed),
            advisor_migrations: self.advisor_migrations.load(Ordering::Relaxed),
            compactions_run: self.compactions_run.load(Ordering::Relaxed),
            slots_reclaimed: self.slots_reclaimed.load(Ordering::Relaxed),
            batches_published: self.batches_published.load(Ordering::Relaxed),
            apply_total: Duration::from_nanos(self.apply_total_nanos.load(Ordering::Relaxed)),
            last_refresh: Duration::from_nanos(self.last_refresh_nanos.load(Ordering::Relaxed)),
            last_refresh_lag: Duration::from_nanos(self.last_lag_nanos.load(Ordering::Relaxed)),
            max_refresh_lag: Duration::from_nanos(self.max_lag_nanos.load(Ordering::Relaxed)),
            epoch: 0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            enumeration_memo_hits: 0,
            enumeration_memo_misses: 0,
            queue_depth: 0,
            per_view: self.view_metrics(),
            view_benefits: self.view_benefits(),
        }
    }
}

/// Per-view query-side benefit: how many queries a materialized view
/// answered and the latency they cost — the advisor's evidence that a
/// view earns its refresh bill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewBenefit {
    /// The view's stable catalog handle.
    pub id: ViewId,
    /// The view's display name at the time it first answered.
    pub name: String,
    /// Queries this view's rewritten plan answered.
    pub answered: u64,
    /// Total latency of those queries.
    pub serve_total: Duration,
}

/// One drained miss-log entry: a normalized query shape the planner
/// could only answer from the base graph, with how often (and how
/// expensively) it recurred in the window.
#[derive(Debug, Clone)]
pub struct MissedQuery {
    /// The (normalized-equivalent) query, replayable through
    /// enumeration and selection.
    pub query: Query,
    /// Times this shape was served from the base graph in the window.
    pub count: u64,
    /// Total base-graph latency those servings cost.
    pub total: Duration,
}

/// Per-view dimensional metrics: one row per catalog view, accumulated
/// across publishes — the input signal for workload-adaptive view
/// selection (which views earn their keep) and refresh-cost analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewMetrics {
    /// The view's display name (e.g. `connector:JOB_TO_JOB_2_HOP`).
    pub name: String,
    /// The refresh-DAG level the view last ran in.
    pub level: usize,
    /// Publishes that refreshed this view.
    pub refreshes: u64,
    /// Of those, full scratch re-materializations.
    pub rematerialized: u64,
    /// Total delta size: units of incremental work (sources / vertices
    /// recomputed) across all refreshes.
    pub recomputed: u64,
    /// Median per-publish refresh time (log-bucket upper bound).
    pub refresh_p50: Duration,
    /// 99th-percentile per-publish refresh time.
    pub refresh_p99: Duration,
    /// Total wall-clock spent refreshing this view.
    pub refresh_total: Duration,
    /// Duration of the most recent refresh.
    pub last_refresh: Duration,
}

/// A point-in-time snapshot of the engine's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Queries served successfully.
    pub queries: u64,
    /// Queries that returned an error.
    pub query_errors: u64,
    /// Median query latency (log-bucket upper bound).
    pub p50: Duration,
    /// 99th-percentile query latency (log-bucket upper bound).
    pub p99: Duration,
    /// Median per-batch apply+publish latency: the end-to-end batch
    /// apply on every partition count.
    pub apply_p50: Duration,
    /// 99th-percentile per-batch apply+publish latency.
    pub apply_p99: Duration,
    /// Individual deltas applied by the write path.
    pub deltas_applied: u64,
    /// Deltas dropped as invalid (dangling or tombstoned references).
    pub deltas_rejected: u64,
    /// Submissions refused because the bounded delta queue was full.
    pub deltas_backpressured: u64,
    /// Slot-addressed deltas refused as stale — `based_on` older than
    /// the retained compaction-remap history (`StaleEpoch`).
    pub deltas_stale_rejected: u64,
    /// Retraction operations (edge or vertex) in applied batches.
    pub retractions_applied: u64,
    /// Views refreshed by the per-publish refresh DAG (delta-driven).
    pub views_refreshed: u64,
    /// Of the refreshed views, how many fell back to a full scratch
    /// re-materialization (a composed view refreshed without its
    /// upstream connector in the catalog). Stays 0 on incremental-safe
    /// workloads — the `--expect-incremental` CI smoke gates on it.
    pub views_rematerialized: u64,
    /// Views created by live DDL (`CreateView` publishes).
    pub views_created: u64,
    /// Views dropped by live DDL (`DropView` publishes).
    pub views_dropped: u64,
    /// Catalog migrations (creates + drops) issued by the background
    /// advisor, as opposed to client DDL.
    pub advisor_migrations: u64,
    /// Slot compactions run (each publishes its own epoch).
    pub compactions_run: u64,
    /// Total id slots (vertex + edge capacity) reclaimed by
    /// compactions.
    pub slots_reclaimed: u64,
    /// Write batches published (snapshot epochs minted).
    pub batches_published: u64,
    /// Cumulative apply+publish time across all batches — the total
    /// wall-clock the write path spent ingesting. The `serve_sharded`
    /// experiment compares it across partition counts.
    pub apply_total: Duration,
    /// Apply+publish duration of the most recent batch.
    pub last_refresh: Duration,
    /// Enqueue→visibility lag of the most recent batch.
    pub last_refresh_lag: Duration,
    /// Worst enqueue→visibility lag observed.
    pub max_refresh_lag: Duration,
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// View enumerations answered from the snapshot lineage's
    /// per-pattern memo (plan misses and advisor selection).
    pub enumeration_memo_hits: u64,
    /// View enumerations that ran the Prolog solver.
    pub enumeration_memo_misses: u64,
    /// Deltas waiting in the bounded queue at report time.
    pub queue_depth: u64,
    /// Per-view dimensional breakdown (empty until the first publish
    /// refreshes a catalog view).
    pub per_view: Vec<ViewMetrics>,
    /// Per-view query-side benefit counters (empty until a view
    /// answers its first query).
    pub view_benefits: Vec<ViewBenefit>,
}

impl MetricsReport {
    /// `hits / (hits + misses)`, or 0.0 before any lookup.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries served     {} ({} errors)",
            self.queries, self.query_errors
        )?;
        writeln!(
            f,
            "query latency      p50 {:?}  p99 {:?}",
            self.p50, self.p99
        )?;
        writeln!(
            f,
            "plan cache         {} hits / {} misses ({:.0}% hit rate)",
            self.plan_cache_hits,
            self.plan_cache_misses,
            100.0 * self.plan_cache_hit_rate()
        )?;
        writeln!(
            f,
            "enumeration memo   {} hits / {} misses",
            self.enumeration_memo_hits, self.enumeration_memo_misses
        )?;
        writeln!(
            f,
            "write path         {} deltas in {} batches (epoch {}, {} rejected, {} backpressured, {} stale)",
            self.deltas_applied,
            self.batches_published,
            self.epoch,
            self.deltas_rejected,
            self.deltas_backpressured,
            self.deltas_stale_rejected
        )?;
        writeln!(f, "retractions        {} applied", self.retractions_applied)?;
        writeln!(
            f,
            "view refresh       {} refreshed, {} rematerialized",
            self.views_refreshed, self.views_rematerialized
        )?;
        writeln!(
            f,
            "catalog ddl        {} created, {} dropped ({} advisor migrations)",
            self.views_created, self.views_dropped, self.advisor_migrations
        )?;
        writeln!(
            f,
            "compaction         {} runs, {} slots reclaimed",
            self.compactions_run, self.slots_reclaimed
        )?;
        writeln!(
            f,
            "apply latency      p50 {:?}  p99 {:?} (queue depth {})",
            self.apply_p50, self.apply_p99, self.queue_depth
        )?;
        write!(
            f,
            "refresh            last {:?} (total {:?}, lag {:?}, max lag {:?})",
            self.last_refresh, self.apply_total, self.last_refresh_lag, self.max_refresh_lag
        )?;
        for v in &self.per_view {
            write!(
                f,
                "\n  view {:<40} level {} refreshes {:<6} p50 {:?} p99 {:?} recomputed {} remat {}",
                v.name,
                v.level,
                v.refreshes,
                v.refresh_p50,
                v.refresh_p99,
                v.recomputed,
                v.rematerialized
            )?;
        }
        for b in &self.view_benefits {
            write!(
                f,
                "\n  benefit {:<37} {} answered {} (total {:?})",
                b.name, b.id, b.answered, b.serve_total
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for micros in [1u64, 10, 100, 100, 100, 1000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 6);
        let p50 = h.quantile(0.5);
        // the median sample is 100µs; the log-bucket upper bound is
        // within 2x above it
        assert!(p50 >= Duration::from_micros(100) && p50 <= Duration::from_micros(200));
        assert!(h.quantile(1.0) >= Duration::from_micros(1000));
        assert_eq!(LatencyHistogram::default().quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn empty_histogram_reports_zero_quantiles() {
        // regression: an idle run must print a p99 of zero, not the
        // `u64::MAX`-nanoseconds sentinel (~584 years)
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Duration::ZERO, "q={q}");
        }
        let idle = Metrics::new().base_report();
        assert_eq!(idle.p50, Duration::ZERO);
        assert_eq!(idle.p99, Duration::ZERO);
    }

    #[test]
    fn merge_combines_distributions_exactly() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        for micros in [1u64, 10, 100] {
            a.record(Duration::from_micros(micros));
        }
        for micros in [1000u64, 1000, 10_000] {
            b.record(Duration::from_micros(micros));
        }
        let merged = LatencyHistogram::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.sum(), a.sum() + b.sum());
        // bucket-for-bucket the merge is the sum of the inputs
        let (ca, cb, cm) = (a.bucket_counts(), b.bucket_counts(), merged.bucket_counts());
        for i in 0..BUCKETS {
            assert_eq!(cm[i], ca[i] + cb[i], "bucket {i}");
        }
        // quantiles come from the combined distribution: the median of
        // {1µs,10µs,100µs,1ms,1ms,10ms} sits in the 100µs bucket, above
        // a's own median bucket
        assert!(merged.quantile(0.5) >= Duration::from_micros(100));
        assert!(merged.quantile(0.5) < Duration::from_millis(1));
        assert!(merged.quantile(1.0) >= Duration::from_millis(10));
        // merging an empty histogram is a no-op
        merged.merge(&LatencyHistogram::default());
        assert_eq!(merged.count(), 6);
    }

    #[test]
    fn quantile_survives_count_ahead_of_buckets() {
        // `record` bumps the bucket before the count, but a reader can
        // still observe `count` ahead of the bucket stores (Relaxed
        // atomics, no ordering between threads). Simulate the torn read
        // directly: count says two samples, buckets hold one.
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(10));
        h.count.fetch_add(1, Ordering::Relaxed);
        assert_eq!(h.count(), 2);
        // q low enough to land on the real sample still reports it...
        assert!(h.quantile(0.25) >= Duration::from_micros(10));
        // ...while the fallthrough (target beyond every stored bucket)
        // reports zero instead of a u64::MAX-nanoseconds sentinel
        assert_eq!(h.quantile(1.0), Duration::ZERO);
    }

    #[test]
    fn per_view_metrics_accumulate_by_name() {
        use kaskade_core::ViewId;
        let m = Metrics::new();
        let stat = |view: u32, level, nanos: u64, recomputed, remat| ViewRefreshStat {
            view: ViewId(view),
            level,
            duration: Duration::from_nanos(nanos),
            recomputed,
            rematerialized: remat,
        };
        m.record_per_view("connector:A", &stat(0, 0, 1_000, 7, false));
        m.record_per_view("connector:A", &stat(0, 0, 3_000, 5, true));
        m.record_per_view("compose:B", &stat(1, 1, 500, 2, false));
        let views = m.view_metrics();
        assert_eq!(views.len(), 2);
        let a = &views[0];
        assert_eq!(a.name, "connector:A");
        assert_eq!((a.refreshes, a.rematerialized, a.recomputed), (2, 1, 12));
        assert_eq!(a.last_refresh, Duration::from_nanos(3_000));
        assert_eq!(a.refresh_total, Duration::from_nanos(4_000));
        assert!(a.refresh_p99 >= Duration::from_nanos(3_000));
        let b = &views[1];
        assert_eq!((b.name.as_str(), b.level, b.refreshes), ("compose:B", 1, 1));
        // the per-view rows ride along in the full report and Display
        let r = m.base_report();
        assert_eq!(r.per_view, views);
        assert!(r.to_string().contains("view connector:A"), "{r}");
    }

    #[test]
    fn benefit_counters_and_miss_log_feed_the_advisor() {
        use kaskade_core::ViewId;
        let m = Metrics::new();
        m.record_view_benefit(ViewId(0), "connector:A", Duration::from_micros(10));
        m.record_view_benefit(ViewId(0), "connector:A", Duration::from_micros(30));
        m.record_view_benefit(ViewId(2), "connector:B", Duration::from_micros(5));
        let benefits = m.view_benefits();
        assert_eq!(benefits.len(), 2);
        assert_eq!(benefits[0].id, ViewId(0));
        assert_eq!(benefits[0].answered, 2);
        assert_eq!(benefits[0].serve_total, Duration::from_micros(40));

        let q = kaskade_query::parse(
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS A)",
        )
        .unwrap();
        m.record_miss_shape("k1", &q, Duration::from_micros(100));
        m.record_miss_shape("k1", &q, Duration::from_micros(100));
        m.record_miss_shape("k2", &q, Duration::from_micros(7));
        let drained = m.drain_misses();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].count, 2);
        assert_eq!(drained[0].total, Duration::from_micros(200));
        // draining empties the window
        assert!(m.drain_misses().is_empty());

        m.record_view_created();
        m.record_view_created();
        m.record_view_dropped();
        m.record_advisor_migrations(3);
        let r = m.base_report();
        assert_eq!(r.views_created, 2);
        assert_eq!(r.views_dropped, 1);
        assert_eq!(r.advisor_migrations, 3);
        assert_eq!(r.view_benefits, benefits);
        let s = r.to_string();
        assert!(s.contains("catalog ddl"), "{s}");
        assert!(s.contains("benefit connector:A"), "{s}");
    }

    #[test]
    fn miss_log_caps_distinct_shapes() {
        let m = Metrics::new();
        let q = kaskade_query::parse(
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS A)",
        )
        .unwrap();
        for i in 0..(MISS_LOG_CAP + 10) {
            m.record_miss_shape(&format!("k{i}"), &q, Duration::from_micros(1));
        }
        // known shapes still count past the cap
        m.record_miss_shape("k0", &q, Duration::from_micros(1));
        let drained = m.drain_misses();
        assert_eq!(drained.len(), MISS_LOG_CAP);
        assert_eq!(drained[0].count, 2);
    }

    #[test]
    fn compaction_counters_accumulate() {
        let m = Metrics::new();
        m.record_compaction(120);
        m.record_compaction(40);
        let r = m.base_report();
        assert_eq!(r.compactions_run, 2);
        assert_eq!(r.slots_reclaimed, 160);
        assert!(r.to_string().contains("compaction"));
    }

    #[test]
    fn refresh_metrics_track_max_lag() {
        let m = Metrics::new();
        m.record_refresh(3, Duration::from_millis(2), Duration::from_millis(5));
        m.record_refresh(1, Duration::from_millis(1), Duration::from_millis(3));
        let r = m.base_report();
        assert_eq!(r.deltas_applied, 4);
        assert_eq!(r.batches_published, 2);
        assert_eq!(r.apply_total, Duration::from_millis(3));
        assert_eq!(r.max_refresh_lag, Duration::from_millis(5));
        assert_eq!(r.last_refresh_lag, Duration::from_millis(3));
    }

    #[test]
    fn report_displays_every_section() {
        let m = Metrics::new();
        m.record_query(Duration::from_micros(50));
        m.record_view_refresh(5, 1);
        let s = m.base_report().to_string();
        assert!(s.contains("5 refreshed, 1 rematerialized"), "{s}");
        for needle in [
            "queries served",
            "plan cache",
            "write path",
            "view refresh",
            "refresh",
        ] {
            assert!(s.contains(needle), "missing `{needle}` in:\n{s}");
        }
    }
}

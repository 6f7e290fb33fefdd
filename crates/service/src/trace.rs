//! Structured tracing: spans, a flight recorder, and a slow-query log.
//!
//! Hand-rolled (the build is offline — no `tracing` crate): a
//! [`Tracer`] hands out RAII [`Span`] guards that time a named
//! [`Stage`] of the write or read path and, on drop, push a
//! [`TraceEvent`] into a fixed-size lock-free ring buffer — the
//! **flight recorder** — that `kaskade serve` dumps on demand or when
//! an anomaly (e.g. a slow query) is detected.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** Every hot-path call sites one relaxed
//!    atomic load when tracing is off; a disabled [`Span`] carries
//!    `None` and its drop is a no-op. The CI overhead gate holds
//!    `--trace off` to within noise of the pre-tracing numbers.
//! 2. **Recording never blocks the writer.** Ring slots are claimed
//!    with a `fetch_add` cursor and written under a per-slot `try_lock`;
//!    a contended slot (a reader dumping mid-flight, or a wrapped
//!    writer) drops the event and bumps [`Tracer::dropped_events`]
//!    instead of waiting.
//! 3. **Explicit parenting.** Span ids come from a process-wide
//!    counter; children are created with [`Span::child`] rather than
//!    thread-local ambient context, so spans can hop threads (the
//!    engine's writer worker, scatter workers) without any TLS.
//!
//! The slow-query log rides on the same ring: when a query's total
//! latency crosses [`Tracer::slow_query_threshold`], the read path
//! records a [`Stage::SlowQuery`] event carrying the normalized query
//! AST, the epoch it ran against, and its stage timings — even when
//! span tracing is off (the threshold is its own opt-in).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default flight-recorder capacity (events). Power of two so the ring
/// cursor wraps with a mask.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// The instrumented stages of the serving pipeline, in rough pipeline
/// order. `as_str` names are the span taxonomy used in dumps and docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Write path: time a delta spent queued before its batch started.
    QueueWait,
    /// Write path: one writer batch end to end (apply → publish).
    WriteBatch,
    /// Write path: applying the batched delta to the base graph.
    Apply,
    /// Retired: the merged publish from per-shard graph copies. Nothing
    /// emits it; the name stays because existing span consumers match
    /// on it.
    MergePublish,
    /// A batch of tasks dispatched to the persistent worker pool
    /// (detail = task count).
    PoolDispatch,
    /// Write path: one view's maintainer call (child of `WriteBatch`,
    /// one per catalog view, detail = view name, annotated with the
    /// DAG level).
    RefreshView,
    /// Write path: epoch-fenced slot compaction.
    Compact,
    /// Write path: one catalog mutation — create or drop of a
    /// materialized view — applied and published as its own epoch
    /// (detail = `create <view>` / `drop view#N`).
    Ddl,
    /// Control loop: one advisor tick — enumerate + select over live
    /// sensor data, diff against the catalog, issue DDL (detail =
    /// migrations issued).
    Advise,
    /// Write path: snapshot publish (the epoch bump).
    Publish,
    /// Read path: plan-cache probe (detail = hit/miss).
    PlanCacheLookup,
    /// Read path: planning a plan-cache miss — the parent of one
    /// `Enumerate` and one `Rewrite` span.
    Plan,
    /// Read path: view enumeration for a plan miss, through the
    /// snapshot lineage's per-pattern memo (child of `Plan`, detail =
    /// `memo-hit`/`memo-miss`; only a miss runs the Prolog solver).
    Enumerate,
    /// Read path: filtering the enumerated candidates against the live
    /// catalog, rewriting over each materialized view, and costing
    /// (child of `Plan`).
    Rewrite,
    /// Read path: one partition's scatter leg (detail = partition index).
    Scatter,
    /// Read path: gathering and deduplicating scatter results.
    Gather,
    /// Read path: one query end to end (the read-path root span).
    Query,
    /// Read path: executing the chosen plan — pattern match plus the
    /// relational stage over its rows (child of `Query`).
    Relational,
    /// Read path: the pattern match that feeds the relational stage
    /// (child of `Relational`; on a partitioned engine, the parent of the
    /// scatter legs, pool dispatch and gather).
    PatternMatch,
    /// A query that crossed the slow-query threshold (detail =
    /// normalized AST and stage timings).
    SlowQuery,
}

impl Stage {
    /// The stable dump/exposition name of the stage.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::WriteBatch => "write_batch",
            Stage::Apply => "apply",
            Stage::MergePublish => "merge_publish",
            Stage::PoolDispatch => "pool_dispatch",
            Stage::RefreshView => "refresh_view",
            Stage::Compact => "compact",
            Stage::Ddl => "ddl",
            Stage::Advise => "advise",
            Stage::Publish => "publish",
            Stage::PlanCacheLookup => "plan_cache_lookup",
            Stage::Plan => "plan",
            Stage::Enumerate => "enumerate",
            Stage::Rewrite => "rewrite",
            Stage::Scatter => "scatter",
            Stage::Gather => "gather",
            Stage::Query => "query",
            Stage::Relational => "relational",
            Stage::PatternMatch => "pattern_match",
            Stage::SlowQuery => "slow_query",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed span, as stored in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Unique span id (process-wide, monotonically increasing).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Which pipeline stage this span timed.
    pub stage: Stage,
    /// Start offset since the tracer was created.
    pub start: Duration,
    /// Wall-clock duration of the span.
    pub duration: Duration,
    /// Epoch the work ran against (0 when not applicable).
    pub epoch: u64,
    /// Free-form detail: view name, shard index, normalized AST, …
    pub detail: String,
}

impl TraceEvent {
    /// One dump line: `[+offset_us] stage #id (parent #p) epoch=e dur=… detail`.
    pub fn render(&self) -> String {
        let mut line = format!(
            "[+{:>10.3}ms] {:<17} #{:<5}",
            self.start.as_secs_f64() * 1e3,
            self.stage.as_str(),
            self.id,
        );
        if self.parent != 0 {
            line.push_str(&format!(" parent=#{:<5}", self.parent));
        } else {
            line.push_str("              ");
        }
        line.push_str(&format!(
            " epoch={:<4} dur={:>9.3}ms",
            self.epoch,
            self.duration.as_secs_f64() * 1e3
        ));
        if !self.detail.is_empty() {
            line.push(' ');
            line.push_str(&self.detail);
        }
        line
    }
}

/// Fixed-size ring of recent [`TraceEvent`]s. Writers claim a slot with
/// a `fetch_add` on the cursor (lock-free, multi-producer) and store
/// the event under that slot's `try_lock`; dump takes each lock in turn
/// and snapshots whatever is present.
struct Ring {
    slots: Box<[Mutex<Option<TraceEvent>>]>,
    cursor: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(2);
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Lock-free slot claim; returns false when the slot was contended
    /// (event dropped).
    fn push(&self, ev: TraceEvent) -> bool {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
        let slot = &self.slots[at & (self.slots.len() - 1)];
        match slot.try_lock() {
            Ok(mut s) => {
                *s = Some(ev);
                true
            }
            Err(_) => false,
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            if let Ok(s) = slot.lock() {
                if let Some(ev) = s.as_ref() {
                    out.push(ev.clone());
                }
            }
        }
        // ring order is not chronological once wrapped; sort by start
        // offset (ties: span id, which is allocation-ordered)
        out.sort_by_key(|e| (e.start, e.id));
        out
    }
}

/// The tracing subsystem: span factory, flight recorder, slow-query
/// threshold. One per serving engine.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    ring: Ring,
    slow_query_nanos: AtomicU64,
    dropped: AtomicU64,
    slow_queries: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.ring.slots.len())
            .field("dropped", &self.dropped_events())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    /// A tracer with the default ring capacity.
    pub fn new(enabled: bool) -> Self {
        Tracer::with_capacity(enabled, DEFAULT_RING_CAPACITY)
    }

    /// A tracer with an explicit flight-recorder capacity (rounded up
    /// to a power of two).
    pub fn with_capacity(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            ring: Ring::new(capacity),
            slow_query_nanos: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slow_queries: AtomicU64::new(0),
        }
    }

    /// Whether span tracing is on. One relaxed load — this is the whole
    /// cost of an instrumented site in a `--trace off` run.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips span tracing at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Sets the slow-query threshold; `None` disables the log. Operates
    /// independently of [`Tracer::is_enabled`].
    pub fn set_slow_query_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        self.slow_query_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The active slow-query threshold, if any.
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        match self.slow_query_nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(Duration::from_nanos(n)),
        }
    }

    /// Events dropped on ring contention since creation.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Queries that crossed the slow-query threshold since creation.
    pub fn slow_queries(&self) -> u64 {
        self.slow_queries.load(Ordering::Relaxed)
    }

    /// Starts a root span. Returns a disabled (no-op) guard when
    /// tracing is off.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        if !self.is_enabled() {
            return Span::disabled();
        }
        self.span_always(stage, 0, String::new())
    }

    /// Starts an enabled span unconditionally (internal; callers have
    /// already checked `is_enabled` or want the span regardless).
    fn span_always(&self, stage: Stage, parent: u64, detail: String) -> Span<'_> {
        Span {
            tracer: Some(self),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            stage,
            started: Instant::now(),
            epoch: 0,
            detail,
        }
    }

    /// Records an already-measured interval as a completed span and
    /// returns its id (0 when tracing is off). Used where the timing
    /// already exists — e.g. per-view durations coming back in a
    /// `RefreshReport` — so the instrumented code does not need a live
    /// guard per view.
    pub fn record(
        &self,
        stage: Stage,
        parent: u64,
        start: Instant,
        duration: Duration,
        epoch: u64,
        detail: String,
    ) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            id,
            parent,
            stage,
            start: start.saturating_duration_since(self.origin),
            duration,
            epoch,
            detail,
        });
        id
    }

    /// Feeds the slow-query log: when `total` crosses the threshold,
    /// records a [`Stage::SlowQuery`] event (normalized AST + stage
    /// timings in `detail`) regardless of [`Tracer::is_enabled`].
    /// Returns true when the query was logged.
    pub fn observe_query(
        &self,
        total: Duration,
        epoch: u64,
        normalized_ast: &str,
        stage_timings: &str,
    ) -> bool {
        let threshold = self.slow_query_nanos.load(Ordering::Relaxed);
        if threshold == 0 || (total.as_nanos() as u64) < threshold {
            return false;
        }
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            id,
            parent: 0,
            stage: Stage::SlowQuery,
            start: self.origin.elapsed().saturating_sub(total),
            duration: total,
            epoch,
            detail: format!("{stage_timings} ast={normalized_ast}"),
        });
        true
    }

    /// Snapshots the flight recorder, oldest first.
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.ring.snapshot()
    }

    /// Renders the flight recorder as dump lines, oldest first.
    pub fn render_dump(&self) -> String {
        let events = self.dump();
        let mut out = String::with_capacity(events.len() * 96);
        out.push_str(&format!(
            "# flight recorder: {} events (capacity {}, {} dropped, {} slow queries)\n",
            events.len(),
            self.ring.slots.len(),
            self.dropped_events(),
            self.slow_queries(),
        ));
        for ev in &events {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }

    fn push(&self, ev: TraceEvent) {
        if !self.ring.push(ev) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// RAII span guard: times a [`Stage`] from creation to drop, then
/// pushes a [`TraceEvent`] into the tracer's flight recorder. A
/// disabled span (tracing off) is a couple of plain stores and a no-op
/// drop.
#[must_use = "a span measures until dropped; binding to _ drops it immediately"]
pub struct Span<'a> {
    tracer: Option<&'a Tracer>,
    id: u64,
    parent: u64,
    stage: Stage,
    started: Instant,
    epoch: u64,
    detail: String,
}

impl<'a> Span<'a> {
    /// The no-op span used when tracing is off.
    fn disabled() -> Span<'a> {
        Span {
            tracer: None,
            id: 0,
            parent: 0,
            stage: Stage::WriteBatch,
            // never read: drop is a no-op without a tracer
            started: Instant::now(),
            epoch: 0,
            detail: String::new(),
        }
    }

    /// This span's id (0 when disabled) — the `parent` for events
    /// recorded out-of-band via [`Tracer::record`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Starts a child span of the same tracer (explicit parenting — no
    /// thread-local context, so children can be created on any thread).
    /// The child starts with the parent's epoch.
    #[inline]
    pub fn child(&self, stage: Stage) -> Span<'a> {
        match self.tracer {
            Some(t) => {
                let mut child = t.span_always(stage, self.id, String::new());
                child.epoch = self.epoch;
                child
            }
            None => Span::disabled(),
        }
    }

    /// Tags the span with the epoch its work ran against.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Attaches free-form detail (view name, shard index, …). No-op
    /// when disabled, so callers may format lazily behind
    /// [`Tracer::is_enabled`].
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if self.tracer.is_some() {
            self.detail = detail.into();
        }
    }

    /// Elapsed time since the span started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        tracer.push(TraceEvent {
            id: self.id,
            parent: self.parent,
            stage: self.stage,
            start: self.started.saturating_duration_since(tracer.origin),
            duration: self.started.elapsed(),
            epoch: self.epoch,
            detail: std::mem::take(&mut self.detail),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let s = t.span(Stage::WriteBatch);
            let _c = s.child(Stage::Apply);
        }
        t.record(
            Stage::RefreshView,
            0,
            Instant::now(),
            Duration::from_millis(1),
            3,
            "v".into(),
        );
        assert!(t.dump().is_empty());
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn span_nesting_links_parent_ids() {
        let t = Tracer::new(true);
        let root_id;
        {
            let mut root = t.span(Stage::WriteBatch);
            root.set_epoch(7);
            root_id = root.id();
            let mut child = root.child(Stage::Apply);
            child.set_detail("batch of 3");
            drop(child);
            let vid = t.record(
                Stage::RefreshView,
                root_id,
                Instant::now(),
                Duration::from_micros(250),
                7,
                "connector:X".into(),
            );
            assert!(vid > root_id);
        }
        let events = t.dump();
        assert_eq!(events.len(), 3);
        let root = events.iter().find(|e| e.id == root_id).unwrap();
        assert_eq!(root.stage, Stage::WriteBatch);
        assert_eq!(root.epoch, 7);
        assert_eq!(root.parent, 0);
        for e in events.iter().filter(|e| e.id != root_id) {
            assert_eq!(e.parent, root_id, "{e:?}");
        }
        let apply = events.iter().find(|e| e.stage == Stage::Apply).unwrap();
        assert_eq!(apply.detail, "batch of 3");
        // children start no earlier than the root
        assert!(events.iter().all(|e| e.start >= root.start));
    }

    #[test]
    fn ring_wraps_and_keeps_most_recent() {
        let t = Tracer::with_capacity(true, 8);
        for i in 0..50u64 {
            let mut s = t.span(Stage::Query);
            s.set_epoch(i);
        }
        let events = t.dump();
        assert_eq!(events.len(), 8);
        // the survivors are the most recent 8, in order
        let epochs: Vec<u64> = events.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, (42..50).collect::<Vec<_>>());
        // dump output is renderable
        let dump = t.render_dump();
        assert!(dump.contains("flight recorder: 8 events"));
        assert!(dump.contains("query"));
    }

    #[test]
    fn concurrent_writers_preserve_ordering_and_nesting() {
        // many threads emit root+children concurrently; every surviving
        // child's parent must be a root from the same thread, and the
        // dump must come back sorted by start offset.
        let t = Arc::new(Tracer::with_capacity(true, 1024));
        let threads = 8;
        let spans_per_thread = 20;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for _ in 0..spans_per_thread {
                        let mut root = t.span(Stage::WriteBatch);
                        root.set_epoch(1);
                        let _child = root.child(Stage::Apply);
                    }
                });
            }
        });
        let events = t.dump();
        assert_eq!(
            events.len() as u64 + t.dropped_events(),
            (threads * spans_per_thread * 2) as u64
        );
        // sorted by start offset
        assert!(events.windows(2).all(|w| w[0].start <= w[1].start));
        // nesting: every child links a WriteBatch root with a smaller id
        let mut roots = std::collections::HashMap::new();
        for e in &events {
            if e.stage == Stage::WriteBatch {
                roots.insert(e.id, e);
            }
        }
        for e in events.iter().filter(|e| e.stage == Stage::Apply) {
            assert!(e.parent != 0 && e.parent < e.id);
            if let Some(root) = roots.get(&e.parent) {
                assert_eq!(root.stage, Stage::WriteBatch);
            }
        }
    }

    #[test]
    fn slow_query_log_is_independent_of_enabled() {
        let t = Tracer::new(false);
        t.set_slow_query_threshold(Some(Duration::from_millis(5)));
        assert!(!t.observe_query(Duration::from_millis(1), 2, "q", "plan=1ms"));
        assert!(t.observe_query(Duration::from_millis(9), 2, "match (a:Job)", "plan=8ms"));
        assert_eq!(t.slow_queries(), 1);
        let events = t.dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, Stage::SlowQuery);
        assert_eq!(events[0].epoch, 2);
        assert!(events[0].detail.contains("match (a:Job)"));
        assert!(events[0].detail.contains("plan=8ms"));
    }

    #[test]
    fn threshold_none_disables_slow_query_log() {
        let t = Tracer::new(true);
        assert_eq!(t.slow_query_threshold(), None);
        assert!(!t.observe_query(Duration::from_secs(10), 1, "q", ""));
        t.set_slow_query_threshold(Some(Duration::from_nanos(1)));
        assert_eq!(t.slow_query_threshold(), Some(Duration::from_nanos(1)));
        t.set_slow_query_threshold(None);
        assert!(!t.observe_query(Duration::from_secs(10), 1, "q", ""));
        assert!(t.dump().is_empty());
    }
}

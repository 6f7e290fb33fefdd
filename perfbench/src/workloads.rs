//! The four workloads: closed-loop clients driving the engines from
//! outside, with raw per-operation samples and the oracle checks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kaskade_core::{DdlOp, KaskadeError, Snapshot};
use kaskade_graph::Value;
use kaskade_query::{execute, Datum, Query, Table};
use kaskade_service::{
    advise_once, snapshot_is_consistent, AdvisorConfig, AdvisorState, ShardedEngine,
};

use crate::inputs::{blast_queries, lookup_query, DeltaStream, ReadMix, Rng, EXT_BASE};
use crate::layers;
use crate::oracle::{canonical_rows, corrupt, same_rows, Oracle};
use crate::report::Samples;
use crate::setup::{
    build_state, copy_dir, fresh_dir, latest_checkpoint, recorder, sharded_config, sharded_engine,
    single_engine, CatalogKind, Served, CHECKPOINT_EVERY,
};
use crate::{Config, Cx};

/// Samples of each operation type a phase takes at least, so that
/// every p90 has at least ten samples above it.
pub const MIN_SAMPLES: usize = 100;
/// Reads per second of run length of `lineage-read` ...
const LINEAGE_READS_PER_S: f64 = 33.0;
/// ... commits of `churn-ingest` ...
const CHURN_COMMITS_PER_S: f64 = 42.0;
/// ... commits of `sharded-durable` ...
const SHARDED_COMMITS_PER_S: f64 = 54.0;
/// ... and reads of `adaptive-read` (see `phase_ops`).
const ADAPTIVE_READS_PER_S: f64 = 27.0;
/// Deltas a job inserted by the retention stream stays live.
pub const RETENTION: u64 = 64;
/// Dead-slot share that triggers compaction on the write workloads. The
/// engine default of 0.5 is never reached in one run at this dataset
/// size (one delta retires about five of ~35k id slots), so the write
/// workloads lower it until compaction runs several times per run.
pub const COMPACT_RATIO: f64 = 0.01;
/// The engine default, for the read-only workload.
const DEFAULT_COMPACT_RATIO: f64 = 0.5;
/// Think time of the churn workload's lookup client between reads.
const LOOKUP_PAUSE: Duration = Duration::from_millis(1);
/// Think time of every blast-read client between reads. A client that
/// never pauses keeps a core busy without a break; on a shared 2-core
/// host its latencies then swing with the scheduler and the
/// neighbours from run to run (blast p50 spread across runs fell from
/// about 16% to about 5% with this pause).
pub const BLAST_PAUSE: Duration = Duration::from_millis(10);
/// `adaptive-read`: one delta every this many reads ...
const DELTA_EVERY: u64 = 2;
/// ... and one advisor tick every this many reads.
const TICK_EVERY: u64 = 16;
/// Restarts timed by `sharded-durable`.
const RESTARTS: usize = 5;
/// Log records left after the last checkpoint before the restarts, so
/// that every run replays the same amount of log.
const REPLAY_TAIL: u64 = CHECKPOINT_EVERY / 2;

/// What one measured phase of a workload saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// The workload's primary read.
    pub read: Samples,
    /// The workload's second operation type.
    pub other: Samples,
    /// Advisor ticks (`adaptive-read`).
    pub ticks: Samples,
    /// Reads of every kind completed.
    pub reads: u64,
    /// Wall time of the phase.
    pub wall: f64,
}

impl Phase {
    pub fn reads_per_s(&self) -> f64 {
        self.reads as f64 / self.wall.max(1e-9)
    }
}

/// Everything a workload run hands back for reporting.
#[derive(Debug, Default)]
pub struct Measured {
    /// `[untraced]`, or `[untraced, traced]` on a traced run.
    pub phases: Vec<Phase>,
    /// Named per-operation metrics beyond the phases (name, value, unit).
    pub extra: Vec<(String, f64, &'static str)>,
    /// Peak resident set right after the measured phases.
    pub peak_rss_mb: f64,
}

/// Operation counts of a run's phases: the whole run untraced, or an
/// untraced half followed by a traced half. Each run does a fixed
/// amount of work, `seconds × per_second` operations of the workload's
/// driving client, at least `floor` per phase. The rates are those
/// measured on a shared 2-core host, so a run lasts about `seconds`
/// there, and a faster or slower machine replays the same state
/// trajectory instead of a longer or shorter one.
fn phase_ops(cfg: &Config, per_second: f64, floor: u64) -> Vec<u64> {
    let phases = if cfg.trace { 2 } else { 1 };
    let each = ((cfg.seconds * per_second / phases as f64).round() as u64).max(floor);
    vec![each; phases]
}

/// Sets the workload up `cfg.setups` times (dataset, catalog, engine
/// start) and keeps the last set-up; the times land in `cx.setup_s`.
fn set_up<E>(
    cx: &mut Cx,
    kind: CatalogKind,
    mut start: impl FnMut(Snapshot, usize) -> E,
) -> (Snapshot, E) {
    let mut last: Option<(Snapshot, E)> = None;
    for i in 0..cx.cfg.setups.max(1) {
        drop(last.take());
        let t = Instant::now();
        let state = build_state(cx.cfg.jobs, crate::DATASET_SEED, kind, &cx.spans, i as u64);
        let engine = start(state.clone(), i);
        cx.setup_s.push(t.elapsed().as_secs_f64());
        cx.fingerprints
            .push((state.graph().vertex_count(), state.graph().edge_count()));
        last = Some((state, engine));
    }
    let first = cx.fingerprints[0];
    cx.oracle
        .check(cx.fingerprints.iter().all(|f| *f == first), || {
            format!(
                "dataset fingerprint differs between set-ups: {:?}",
                cx.fingerprints
            )
        });
    let (jobs, vertices, edges) = crate::DATASET_FINGERPRINT;
    if cx.cfg.jobs == jobs {
        cx.oracle.check(first == (vertices, edges), || {
            format!("dataset fingerprint {first:?} is not ({vertices}, {edges})")
        });
    }
    last.expect("at least one set-up")
}

/// Checks a read against its reference and counts it.
fn check_read(cx: &mut Cx, what: &str, got: Result<Table, KaskadeError>, want: &Table) {
    match got {
        Ok(mut t) => {
            if std::mem::take(&mut cx.corrupt_next) {
                corrupt(&mut t);
            }
            cx.oracle.check(same_rows(&t, want), || {
                let (got, want) = (canonical_rows(&t), canonical_rows(want));
                let extra: Vec<&String> = got.iter().filter(|r| !want.contains(r)).take(2).collect();
                let missing: Vec<&String> = want.iter().filter(|r| !got.contains(r)).take(2).collect();
                format!("{what}: rows differ from the raw-graph reference: unexpected {extra:?}, missing {missing:?}")
            });
        }
        Err(e) => cx.oracle.check(false, || format!("{what}: {e}")),
    }
}

/// The engine-level final checks every workload makes.
fn final_checks<E: Served>(cx: &mut Cx, engine: &E) {
    engine.flush();
    let (epoch, state, _) = engine.current();
    cx.oracle.check(snapshot_is_consistent(&state), || {
        format!("final state at epoch {epoch} is inconsistent with a scratch rebuild")
    });
    let report = engine.report();
    cx.oracle.check(report.views_rematerialized == 0, || {
        format!("{} views were rematerialized", report.views_rematerialized)
    });
    cx.oracle.check(report.query_errors == 0, || {
        format!("{} query errors", report.query_errors)
    });
}

/// `lineage-read`: one read-only client on a single engine whose
/// catalog came from view selection over the blast-radius templates.
pub fn lineage_read(cx: &mut Cx) -> Measured {
    let tracer = recorder();
    let (base, engine) = set_up(cx, CatalogKind::Selected, |s, _| {
        single_engine(s, DEFAULT_COMPACT_RATIO, tracer.clone())
    });
    let blast = blast_queries();
    // references on the raw graph, outside the timed region
    let refs: Vec<Table> = blast
        .iter()
        .map(|q| execute(base.graph(), q).expect("raw reference executes"))
        .collect();
    for (w, q) in blast.iter().enumerate() {
        let served = base.plan(q).map(|p| p.view_id.is_some()).unwrap_or(false);
        cx.oracle.check(served, || {
            format!("blast window {w} is not answered by a view")
        });
    }
    let mut mix = ReadMix::new(cx.cfg.seed, true);
    let mut m = Measured::default();
    // blocks of 16 reads hold 4 first-seen texts
    let floor = 4 * MIN_SAMPLES as u64;
    for (i, n) in phase_ops(cx.cfg, LINEAGE_READS_PER_S, floor)
        .into_iter()
        .enumerate()
    {
        tracer.set_enabled(i == 1);
        let mut ph = Phase::default();
        let mut results = Vec::new();
        let start = Instant::now();
        for _ in 0..n {
            let op = mix.next().expect("endless mix");
            let q = op.query(&blast);
            let t = Instant::now();
            let r = engine.execute(&q);
            let dt = t.elapsed();
            match op {
                crate::inputs::ReadOp::Blast(_) => ph.read.push(dt),
                crate::inputs::ReadOp::Adhoc(..) => ph.other.push(dt),
            }
            ph.reads += 1;
            results.push((op, r));
            std::thread::sleep(BLAST_PAUSE);
        }
        ph.wall = start.elapsed().as_secs_f64();
        for (op, r) in results {
            check_read(cx, "blast read", r, &refs[op.window()]);
        }
        m.phases.push(ph);
    }
    tracer.set_enabled(false);
    m.peak_rss_mb = crate::setup::peak_rss_mb();
    if cx.cfg.trace {
        let (_, state, _) = engine.current();
        layers::replay_reads(cx, &state, &blast, &refs, true);
        layers::engine_layers(cx, &engine, &tracer);
    }
    final_checks(cx, &engine);
    m
}

/// The writer side of a write workload: one retention-stream delta per
/// commit, submit → flush, with the epochs bracketing its visibility.
struct Writer {
    stream: DeltaStream,
    /// Per delta: (epoch before submit, epoch flush returned, CPU).
    log: Vec<(u64, u64, i64)>,
}

impl Writer {
    fn new(seed: u64, base: &Snapshot) -> Self {
        Writer {
            stream: DeltaStream::new(seed, RETENTION, base),
            log: Vec::new(),
        }
    }

    /// Sends one delta and waits until it is visible; `None` if the
    /// engine refused it.
    fn commit<E: Served>(&mut self, oracle: &mut Oracle, engine: &E) -> Option<Duration> {
        let (epoch, state, _) = engine.current();
        let (delta, ins) = self.stream.next_delta(&state);
        let t = Instant::now();
        let sent = engine.submit(delta, epoch);
        let visible = engine.flush();
        let dt = t.elapsed();
        self.log.push((epoch, visible, ins.cpu));
        oracle.check(sent.is_ok(), || {
            format!("delta {} refused: {sent:?}", ins.ext)
        });
        sent.ok().map(|_| dt)
    }

    fn committed(&self) -> u64 {
        self.log.len() as u64
    }

    /// Whether ext `ext` is certainly live / certainly dead at every
    /// epoch in `[r0, r1]`; `None` when a commit of it raced the read.
    fn liveness(&self, ext: u64, r0: u64, r1: u64) -> Option<bool> {
        let i = (ext - EXT_BASE) as usize;
        let (ins_lo, ins_hi, _) = self.log[i];
        let ret = self.log.get(i + RETENTION as usize);
        let live = r0 >= ins_hi && ret.is_none_or(|&(lo, _, _)| r1 <= lo);
        let dead = r1 <= ins_lo || ret.is_some_and(|&(_, hi, _)| r0 >= hi);
        match (live, dead) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        }
    }
}

/// One anchored lookup as the churn reader saw it.
struct Lookup {
    ext: u64,
    r0: u64,
    r1: u64,
    result: Result<Table, KaskadeError>,
}

fn check_lookup(cx: &mut Cx, w: &Writer, l: Lookup) {
    let cpu = w.log[(l.ext - EXT_BASE) as usize].2;
    let live_row = vec![vec![Datum::Val(Value::Int(cpu))]];
    match l.result {
        Ok(mut t) => {
            if std::mem::take(&mut cx.corrupt_next) {
                corrupt(&mut t);
            }
            let ok = match w.liveness(l.ext, l.r0, l.r1) {
                Some(true) => t.rows == live_row,
                Some(false) => t.rows.is_empty(),
                None => t.rows.is_empty() || t.rows == live_row,
            };
            cx.oracle.check(ok, || {
                format!(
                    "lookup of ext {} at epochs {}..={} returned {:?}",
                    l.ext, l.r0, l.r1, t.rows
                )
            });
        }
        Err(e) => cx
            .oracle
            .check(false, || format!("lookup of ext {}: {e}", l.ext)),
    }
}

/// Checks the external-id table of the final state against the
/// writer's log: exactly the last `RETENTION` inserted jobs are live.
fn check_final_extids<E: Served>(cx: &mut Cx, engine: &E, w: &Writer) {
    let (_, state, extids) = engine.current();
    let n = w.committed();
    let from = n.saturating_sub(2 * RETENTION);
    let mut bad = Vec::new();
    for i in from..n {
        let ext = EXT_BASE + i;
        let live = i + RETENTION >= n;
        let slot = extids.get(ext).filter(|&v| state.graph().is_vertex_live(v));
        if slot.is_some() != live {
            bad.push(ext);
        }
    }
    cx.oracle.check(bad.is_empty(), || {
        format!("external ids with the wrong liveness at the end: {bad:?}")
    });
}

/// `churn-ingest`: a retention-stream writer and an anchored-lookup
/// reader on a single in-memory engine serving the composed catalog.
pub fn churn_ingest(cx: &mut Cx) -> Measured {
    let tracer = recorder();
    let (base, engine) = set_up(cx, CatalogKind::Composed, |s, _| {
        single_engine(s, COMPACT_RATIO, tracer.clone())
    });
    let seed = cx.cfg.seed;
    let mut writer = Writer::new(seed, &base);
    let mut reader_rng = Rng::new(seed, 3);
    let mut m = Measured::default();
    let ops = phase_ops(cx.cfg, CHURN_COMMITS_PER_S, MIN_SAMPLES as u64);
    for (i, n) in ops.into_iter().enumerate() {
        tracer.set_enabled(i == 1);
        let progress = AtomicU64::new(writer.committed());
        let done = AtomicBool::new(false);
        let mut ph = Phase::default();
        let start = Instant::now();
        let lookups = {
            let oracle = &mut cx.oracle;
            std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let mut samples = Samples::default();
                    let mut seen = Vec::new();
                    while !done.load(Ordering::Acquire) || samples.len() < MIN_SAMPLES {
                        let p = progress.load(Ordering::Acquire);
                        if p == 0 {
                            std::thread::sleep(LOOKUP_PAUSE);
                            continue;
                        }
                        // three in four lookups hit a live job, one a
                        // retired one: an even split would put the p50
                        // between the two latency modes
                        let lo = p.saturating_sub(RETENTION + RETENTION / 3);
                        let ext = EXT_BASE + lo + reader_rng.below(p - lo);
                        let q = lookup_query(ext);
                        let r0 = engine.epoch();
                        let t = Instant::now();
                        let result = engine.execute(&q);
                        samples.push(t.elapsed());
                        let r1 = engine.epoch();
                        seen.push(Lookup {
                            ext,
                            r0,
                            r1,
                            result,
                        });
                        std::thread::sleep(LOOKUP_PAUSE);
                    }
                    (samples, seen)
                });
                for _ in 0..n {
                    if let Some(dt) = writer.commit(oracle, &engine) {
                        ph.other.push(dt);
                    }
                    progress.store(writer.committed(), Ordering::Release);
                }
                done.store(true, Ordering::Release);
                let (samples, seen) = reader.join().expect("lookup client panicked");
                ph.read = samples;
                seen
            })
        };
        ph.wall = start.elapsed().as_secs_f64();
        ph.reads = lookups.len() as u64;
        for l in lookups {
            check_lookup(cx, &writer, l);
        }
        m.phases.push(ph);
    }
    tracer.set_enabled(false);
    m.peak_rss_mb = crate::setup::peak_rss_mb();
    let phase_commits: usize = m.phases.iter().map(|p| p.other.len()).sum();
    m.extra.push((
        "ingest_dps".into(),
        m.phases[0].other.len() as f64 / m.phases[0].wall,
        "deltas/s",
    ));
    if cx.cfg.trace {
        layers::replay_writes(cx, &base, phase_commits, None);
        let (_, state, extids) = engine.current();
        layers::replay_lookups(cx, &state, &extids, writer.committed());
        layers::engine_layers(cx, &engine, &tracer);
    }
    check_final_extids(cx, &engine, &writer);
    final_checks(cx, &engine);
    m
}

/// A blast-read client's tally. Every `BLAST_CHECK_STRIDE`-th read
/// whose epoch did not move while it ran is checked against the raw
/// graph of that epoch, inline (the engine keeps no old epochs), up to
/// `cap` per phase; the read rate excludes the checking time.
#[derive(Default)]
struct BlastTally {
    samples: Samples,
    reads: u64,
    cap: usize,
    next_check: u64,
    checking: Duration,
    checked: Vec<(Result<Table, KaskadeError>, Table)>,
    /// Reads not checked against a reference: `None` when the read
    /// succeeded with the reference's shape.
    unchecked: Vec<Option<String>>,
}

/// Raw-graph checks per run of the write-beside-read workloads (one
/// check costs about one plan-miss read).
const BLAST_CHECKS: usize = 24;
/// Reads between two raw-graph checks.
const BLAST_CHECK_STRIDE: u64 = 16;

impl BlastTally {
    fn new(cap: usize, offset: u64) -> Self {
        BlastTally {
            cap,
            next_check: offset,
            ..BlastTally::default()
        }
    }

    fn read<E: Served>(&mut self, engine: &E, q: &Query) {
        let (e0, state, _) = engine.current();
        let t = Instant::now();
        let result = engine.execute(q);
        self.samples.push(t.elapsed());
        self.reads += 1;
        if self.checked.len() < self.cap && self.reads > self.next_check && engine.epoch() == e0 {
            let t = Instant::now();
            let want = execute(state.graph(), q).expect("raw reference executes");
            self.checking += t.elapsed();
            self.checked.push((result, want));
            self.next_check = self.reads + BLAST_CHECK_STRIDE;
        } else {
            self.unchecked.push(match &result {
                Ok(t) if t.columns.len() == 2 && !t.rows.is_empty() => None,
                Ok(t) => Some(format!("blast read returned {} rows", t.rows.len())),
                Err(e) => Some(format!("blast read failed: {e}")),
            });
        }
    }

    /// Hands the tally's samples to `ph` and its answers to the oracle.
    fn finish(self, cx: &mut Cx, ph: &mut Phase) {
        ph.read = self.samples;
        ph.reads = self.reads;
        ph.wall -= self.checking.as_secs_f64();
        for (result, want) in self.checked {
            check_read(cx, "blast read", result, &want);
        }
        for failure in self.unchecked {
            cx.oracle
                .check(failure.is_none(), || failure.unwrap_or_default());
        }
    }
}

/// `sharded-durable`: the retention writer on a 2-shard engine with the
/// WAL on, one blast-read client, then timed restarts from the log.
pub fn sharded_durable(cx: &mut Cx) -> Measured {
    let tracer = recorder();
    let root = cx.cfg.out_dir.join(format!("wal-{}", cx.cfg.seed));
    let mut dirs = Vec::new();
    let (base, engine) = set_up(cx, CatalogKind::Selected, |s, i| {
        let dir = fresh_dir(&root, &format!("setup{i}")).expect("create WAL directory");
        let e = sharded_engine(s, &dir, COMPACT_RATIO, tracer.clone()).expect("open WAL");
        dirs.push(dir);
        e
    });
    let wal_dir = dirs.last().expect("a set-up ran").clone();
    let blast = blast_queries();
    let seed = cx.cfg.seed;
    let mut writer = Writer::new(seed, &base);
    let mut mix = ReadMix::new(seed, false);
    let mut check_rng = Rng::new(seed, 4);
    let phases = phase_ops(cx.cfg, SHARDED_COMMITS_PER_S, MIN_SAMPLES as u64);
    let cap = BLAST_CHECKS / phases.len();
    let mut m = Measured::default();
    for (i, n) in phases.into_iter().enumerate() {
        tracer.set_enabled(i == 1);
        let mut ph = Phase::default();
        let mut tally = BlastTally::new(cap, check_rng.below(BLAST_CHECK_STRIDE));
        let start = Instant::now();
        let oracle = &mut cx.oracle;
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                while !done.load(Ordering::Acquire) || tally.samples.len() < MIN_SAMPLES {
                    let op = mix.next().expect("endless mix");
                    tally.read(&engine, &blast[op.window()]);
                    std::thread::sleep(BLAST_PAUSE);
                }
            });
            for _ in 0..n {
                if let Some(dt) = writer.commit(oracle, &engine) {
                    ph.other.push(dt);
                }
            }
            done.store(true, Ordering::Release);
            reader.join().expect("blast client panicked");
        });
        ph.wall = start.elapsed().as_secs_f64();
        tally.finish(cx, &mut ph);
        m.phases.push(ph);
    }
    tracer.set_enabled(false);
    m.peak_rss_mb = crate::setup::peak_rss_mb();
    let phase_commits: usize = m.phases.iter().map(|p| p.other.len()).sum();
    m.extra.push((
        "ingest_dps".into(),
        m.phases[0].other.len() as f64 / m.phases[0].wall,
        "deltas/s",
    ));

    // leave the same log tail on every run, so every restart replays
    // the same number of records after the last checkpoint
    while engine.epoch() - latest_checkpoint(&wal_dir) < REPLAY_TAIL {
        writer.commit(&mut cx.oracle, &engine);
    }
    if cx.cfg.trace {
        let (_, state, _) = engine.current();
        layers::replay_reads(cx, &state, &blast, &[], false);
        layers::replay_writes(cx, &base, phase_commits, Some(&root));
        layers::engine_layers(cx, &engine, &tracer);
    }
    check_final_extids(cx, &engine, &writer);
    final_checks(cx, &engine);

    // restarts: drop the engine, then recover a pristine copy of its
    // log directory several times
    let (epoch, state, extids) = engine.current();
    let before = encode_state(&state, &extids);
    drop(engine);
    let mut recover_s = Vec::new();
    for r in 0..RESTARTS {
        let dir = root.join(format!("restart{r}"));
        copy_dir(&wal_dir, &dir).expect("copy WAL directory");
        if cx.cfg.trace && r == 0 {
            layers::time_replay(cx, &dir);
        }
        let t = Instant::now();
        let recovered = ShardedEngine::recover(sharded_config(&dir, COMPACT_RATIO, recorder()));
        recover_s.push(t.elapsed().as_secs_f64());
        match recovered {
            Ok(Some(e)) => {
                let (e_epoch, e_state, e_extids) = e.current();
                cx.oracle.check(
                    e_epoch == epoch && encode_state(&e_state, &e_extids) == before,
                    || format!("restart {r}: recovered epoch {e_epoch} differs from the state before the drop (epoch {epoch})"),
                );
            }
            other => cx
                .oracle
                .check(false, || format!("restart {r}: recovery failed: {other:?}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&root);
    m.extra
        .push(("recover_s".into(), crate::report::median(&recover_s), "s"));
    m
}

/// The byte encoding of a state and its external-id table.
fn encode_state(state: &Snapshot, extids: &kaskade_graph::ExternalIdTable) -> Vec<u8> {
    let mut enc = kaskade_graph::Enc::new();
    state.encode(&mut enc);
    extids.encode(&mut enc);
    enc.into_bytes()
}

/// `adaptive-read`: one client on a single engine that starts with no
/// views, interleaving blast reads, a delta every `DELTA_EVERY` reads
/// and an advisor tick every `TICK_EVERY` reads.
pub fn adaptive_read(cx: &mut Cx) -> Measured {
    let tracer = recorder();
    let (base, engine) = set_up(cx, CatalogKind::Empty, |s, _| {
        single_engine(s, COMPACT_RATIO, tracer.clone())
    });
    let blast = blast_queries();
    let seed = cx.cfg.seed;
    let mut writer = Writer::new(seed, &base);
    let mut mix = ReadMix::new(seed, false);
    let mut check_rng = Rng::new(seed, 5);
    let advisor = AdvisorConfig::default();
    let mut advisor_state = AdvisorState::default();
    let floor = DELTA_EVERY * MIN_SAMPLES as u64;
    let phases = phase_ops(cx.cfg, ADAPTIVE_READS_PER_S, floor);
    let cap = BLAST_CHECKS / phases.len();
    let mut m = Measured::default();
    for (i, n) in phases.into_iter().enumerate() {
        tracer.set_enabled(i == 1);
        let mut ph = Phase::default();
        let mut tally = BlastTally::new(cap, check_rng.below(BLAST_CHECK_STRIDE));
        let start = Instant::now();
        for _ in 0..n {
            let op = mix.next().expect("endless mix");
            tally.read(&engine, &blast[op.window()]);
            std::thread::sleep(BLAST_PAUSE);
            if tally.reads.is_multiple_of(DELTA_EVERY) {
                if let Some(dt) = writer.commit(&mut cx.oracle, &engine) {
                    ph.other.push(dt);
                }
            }
            if tally.reads.is_multiple_of(TICK_EVERY) {
                let t = Instant::now();
                advise_once(&engine, &advisor, &mut advisor_state, engine.tracer());
                ph.ticks.push(t.elapsed());
            }
        }
        ph.wall = start.elapsed().as_secs_f64();
        tally.finish(cx, &mut ph);
        m.phases.push(ph);
    }
    tracer.set_enabled(false);
    m.peak_rss_mb = crate::setup::peak_rss_mb();
    let report = engine.report();
    m.extra
        .push(("views_created".into(), report.views_created as f64, "count"));
    m.extra.push((
        "advisor_tick_p50_ms".into(),
        m.phases[0].ticks.quantile(0.5) * 1e3,
        "ms",
    ));
    if cx.cfg.trace {
        let phase_commits: usize = m.phases.iter().map(|p| p.other.len()).sum();
        let (_, state, _) = engine.current();
        layers::replay_reads(cx, &state, &blast, &[], false);
        // the deltas replay against the catalog the advisor built
        let mut with_views = base.clone();
        for view in state.catalog().iter() {
            with_views = with_views.apply_ddl(&DdlOp::CreateView(view.def.clone()));
        }
        layers::replay_writes(cx, &with_views, phase_commits, None);
        layers::replay_selection(cx, &state, &blast);
        layers::advisor_layers(cx, &m.phases);
        layers::engine_layers(cx, &engine, &tracer);
    }
    check_final_extids(cx, &engine, &writer);
    final_checks(cx, &engine);
    m
}

//! The Kaskade serving benchmark.
//!
//! One command runs one named workload from a seed, prints its metrics
//! and checks every answer. Workloads drive the engines only from
//! outside, through the public API of each crate, with closed-loop
//! clients (at most two threads) and an engine pool of one worker, so
//! results do not depend on the core count. The dataset is `prov` at
//! scale 1.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! (`trace`) measures an untraced and a traced half, replays the same
//! seeded operations through the benchmark's own spans, and reports
//! the per-layer metrics with the remainder no layer accounts for and
//! the tracing overhead.

pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod setup;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use oracle::Oracle;
use report::{median, metrics_object, num, string, Metric, Samples};
use spans::Spans;
use workloads::Measured;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only blast-radius reads, repeated and first-seen texts.
    LineageRead,
    /// Retention-stream commits beside anchored lookups.
    ChurnIngest,
    /// The churn writer on 2 shards with the WAL, blast reads, restarts.
    ShardedDurable,
    /// Blast reads from an empty catalog the advisor fills online.
    AdaptiveRead,
}

/// How a workload names its two operation types: (name, unit, factor
/// from seconds).
type Role = (&'static str, &'static str, f64);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LineageRead,
        Workload::ChurnIngest,
        Workload::ShardedDurable,
        Workload::AdaptiveRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LineageRead => "lineage-read",
            Workload::ChurnIngest => "churn-ingest",
            Workload::ShardedDurable => "sharded-durable",
            Workload::AdaptiveRead => "adaptive-read",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The primary read (`read_*` metrics) and the second operation
    /// type (`other_*` metrics) of the workload.
    pub fn roles(self) -> (Role, Role) {
        const BLAST: Role = ("blast", "ms", 1e3);
        const COMMIT: Role = ("commit", "ms", 1e3);
        match self {
            Workload::LineageRead => (BLAST, ("adhoc", "ms", 1e3)),
            Workload::ChurnIngest => (("lookup", "us", 1e6), COMMIT),
            Workload::ShardedDurable | Workload::AdaptiveRead => (BLAST, COMMIT),
        }
    }

    /// Layers whose self times add up to one read / one other operation.
    fn layer_sums(self) -> (&'static [&'static str], &'static [&'static str]) {
        match self {
            Workload::LineageRead => (layers::READ_LAYERS, layers::READ_LAYERS),
            Workload::ChurnIngest => (layers::LOOKUP_LAYERS, layers::COMMIT_LAYERS),
            _ => (layers::READ_LAYERS, layers::COMMIT_LAYERS),
        }
    }
}

/// The `prov` seed of the command-line tool's default dataset. The
/// dataset is fixed, as in the paper's evaluation; the run's seed
/// drives the operations.
pub const DATASET_SEED: u64 = 0x5EED;
/// (jobs, vertices, edges) of that dataset at scale 1: the fingerprint
/// every set-up must reproduce.
pub const DATASET_FINGERPRINT: (usize, usize, usize) = (2_000, 10_961, 23_564);

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase(s).
    pub seconds: f64,
    /// A traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Jobs in the generated `prov` graph (2,000 is scale 1).
    pub jobs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Where the run keeps its WAL directories and trace files.
    pub out_dir: PathBuf,
    /// Corrupt the first checked answer (the self-test of the oracle).
    pub corrupt: bool,
}

impl Config {
    /// The benchmark's settings for `workload`: `prov` at scale 1.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            jobs: 2_000,
            setups: 9,
            out_dir: PathBuf::from(".bench_out"),
            corrupt: false,
        }
    }
}

/// State shared by a run's workload, oracle and tracing.
pub struct Cx<'a> {
    pub cfg: &'a Config,
    pub oracle: Oracle,
    pub spans: Spans,
    pub setup_s: Vec<f64>,
    pub fingerprints: Vec<(usize, usize)>,
    /// Per-layer samples not taken from spans (seconds for times).
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Replayed request ids of the primary read ...
    pub read_requests: Vec<u64>,
    /// ... and of the second operation type.
    pub other_requests: Vec<u64>,
    /// Set until the first checked answer has been corrupted.
    pub corrupt_next: bool,
    next_request: u64,
}

impl Cx<'_> {
    pub fn next_request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics on a traced run.
    pub metrics: Vec<Metric>,
    /// The machine-readable detail record (one JSON object).
    pub detail: String,
    /// The traced run's spans, one JSON object per line.
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    pub fn result_line(&self) -> String {
        report::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut cx = Cx {
        cfg,
        oracle: Oracle::default(),
        spans: Spans::default(),
        setup_s: Vec::new(),
        fingerprints: Vec::new(),
        layers: BTreeMap::new(),
        read_requests: Vec::new(),
        other_requests: Vec::new(),
        corrupt_next: cfg.corrupt,
        next_request: 1 << 32,
    };
    let m = match cfg.workload {
        Workload::LineageRead => workloads::lineage_read(&mut cx),
        Workload::ChurnIngest => workloads::churn_ingest(&mut cx),
        Workload::ShardedDurable => workloads::sharded_durable(&mut cx),
        Workload::AdaptiveRead => workloads::adaptive_read(&mut cx),
    };
    let named = named_metrics(&cx, &m);
    let metrics = if cfg.trace {
        layer_metrics(&mut cx, &m)
    } else {
        end_to_end(&cx, &m)
    };
    let detail = detail_record(&cx, &m, &named, cfg.trace);
    Outcome {
        correct: cx.oracle.correct(),
        attempted: cx.oracle.attempted,
        failed: cx.oracle.failed,
        metrics,
        detail,
        spans_jsonl: cfg.trace.then(|| cx.spans.to_jsonl()),
    }
}

/// The gated end-to-end metrics, the same on every workload. Tail
/// latencies (p90) are reported in the detail record only: on a shared
/// 2-core host their run-to-run spread reaches the largest bound a
/// metric may have.
fn end_to_end(cx: &Cx, m: &Measured) -> Vec<Metric> {
    let ph = &m.phases[0];
    vec![
        Metric::new("setup_s", median(&cx.setup_s), "s"),
        Metric::new("read_p50_ms", ph.read.quantile(0.5) * 1e3, "ms"),
        Metric::new("other_p50_ms", ph.other.quantile(0.5) * 1e3, "ms"),
        Metric::new("reads_per_s", ph.reads_per_s(), "1/s"),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MB"),
    ]
}

/// The workload's metrics under their operation names, each latency
/// with its sample count.
fn named_metrics(cx: &Cx, m: &Measured) -> Vec<(Metric, Option<usize>)> {
    let ph = &m.phases[0];
    let ((rn, ru, rf), (on, ou, of)) = cx.cfg.workload.roles();
    let q = |s: &Samples, name: &str, unit: &'static str, f: f64, p: f64| {
        (
            Metric::new(
                format!("{name}_p{}_{unit}", (p * 100.0) as u32),
                s.quantile(p) * f,
                unit,
            ),
            Some(s.len()),
        )
    };
    let mut out = vec![
        (
            Metric::new("setup_s", median(&cx.setup_s), "s"),
            Some(cx.setup_s.len()),
        ),
        q(&ph.read, rn, ru, rf, 0.5),
        q(&ph.read, rn, ru, rf, 0.9),
        q(&ph.other, on, ou, of, 0.5),
        q(&ph.other, on, ou, of, 0.9),
        (
            Metric::new("reads_per_s", ph.reads_per_s(), "1/s"),
            Some(ph.reads as usize),
        ),
        (Metric::new("peak_rss_mb", m.peak_rss_mb, "MB"), None),
        (
            Metric::new("failed_ratio", cx.oracle.failed_ratio(), "ratio"),
            Some(cx.oracle.attempted as usize),
        ),
    ];
    for (name, value, unit) in &m.extra {
        out.push((Metric::new(name.clone(), *value, unit), None));
    }
    out
}

/// Per-layer metrics of a traced run, with the remainder and the
/// tracing overhead of both operation types.
fn layer_metrics(cx: &mut Cx, m: &Measured) -> Vec<Metric> {
    let (read_layers, other_layers) = cx.cfg.workload.layer_sums();
    let untraced = &m.phases[0];
    let traced = &m.phases[1];
    let remainder = |requests: &[u64], layers: &[&str], e2e: &Samples| -> Option<f64> {
        let sums = cx.spans.per_request(layers);
        let per: Vec<f64> = requests
            .iter()
            .filter_map(|r| sums.get(r).copied())
            .collect();
        (!per.is_empty() && !e2e.is_empty()).then(|| e2e.quantile(0.5) - median(&per))
    };
    let rem_read = remainder(&cx.read_requests, read_layers, &untraced.read);
    let rem_other = remainder(&cx.other_requests, other_layers, &untraced.other);
    for (name, v) in [
        ("bench.remainder.read_ms", rem_read),
        ("bench.remainder.other_ms", rem_other),
        (
            "bench.overhead.read_ms",
            Some(traced.read.quantile(0.5) - untraced.read.quantile(0.5)),
        ),
        (
            "bench.overhead.other_ms",
            Some(traced.other.quantile(0.5) - untraced.other.quantile(0.5)),
        ),
    ] {
        if let Some(v) = v {
            cx.layers.entry(name).or_default().push(v);
        }
    }
    layer_samples(cx)
        .into_iter()
        .map(|(name, unit, factor, v, _)| Metric::new(name, median(&v) * factor, unit))
        .collect()
}

/// Each per-layer metric's samples (seconds for times), with its name,
/// unit, factor and where its numbers come from.
fn layer_samples(cx: &Cx) -> Vec<(&'static str, &'static str, f64, Vec<f64>, &'static str)> {
    let from_spans = cx.spans.self_times();
    layers::PER_LAYER
        .iter()
        .map(|&(name, unit, factor)| {
            let mut v: Vec<f64> = cx.layers.get(name).cloned().unwrap_or_default();
            let mut source = match name {
                "service.engine.queue_wait_ms"
                | "service.engine.publish_ms"
                | "service.shard.scatter_ms"
                | "service.shard.gather_ms"
                | "service.shard.merge_publish_ms" => "flight recorder",
                "service.plan_cache.hit_ratio"
                | "service.engine.batch_size"
                | "core.compact.runs"
                | "core.compact.slots_per_run"
                | "service.advisor.migrations" => "engine counters",
                _ => "benchmark timing",
            };
            if let Some(s) = from_spans.get(name) {
                v.extend_from_slice(s);
                source = "benchmark spans";
            }
            (name, unit, factor, v, source)
        })
        .collect()
}

/// The detail record: fingerprint, every metric under its operation
/// name with sample counts, oracle notes, and on a traced run the
/// count, self-time p50 and self-time total of every layer.
fn detail_record(cx: &Cx, m: &Measured, named: &[(Metric, Option<usize>)], traced: bool) -> String {
    let (vertices, edges) = cx.fingerprints.first().copied().unwrap_or_default();
    let mut s = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"dataset\": {{\"name\": \"prov\", \"seed\": {}, \"jobs\": {}, \"vertices\": {vertices}, \"edges\": {edges}}}, ",
        string(cx.cfg.workload.name()),
        cx.cfg.seed,
        cx.cfg.trace,
        DATASET_SEED,
        cx.cfg.jobs,
    );
    let metrics: Vec<Metric> = named.iter().map(|(m, _)| m.clone()).collect();
    let counts: BTreeMap<String, usize> = named
        .iter()
        .filter_map(|(m, n)| n.map(|n| (m.name.clone(), n)))
        .collect();
    let _ = write!(
        s,
        "\"metrics\": {}, ",
        metrics_object(&metrics, |m| counts
            .get(&m.name)
            .map_or(String::new(), |n| format!("\"samples\": {n}")))
    );
    let _ = write!(
        s,
        "\"phases\": [{}], ",
        m.phases
            .iter()
            .map(|p| format!(
                "{{\"wall_s\": {}, \"reads\": {}, \"read_samples\": {}, \"other_samples\": {}}}",
                num(p.wall),
                p.reads,
                p.read.len(),
                p.other.len()
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if traced {
        let mut not_exercised = Vec::new();
        let mut layers_json = Vec::new();
        for (name, unit, factor, v, source) in layer_samples(cx) {
            if v.is_empty() {
                not_exercised.push(string(name));
            }
            layers_json.push(format!(
                "{}: {{\"self_p50\": {}, \"unit\": {}, \"count\": {}, \"self_total\": {}, \"source\": {}}}",
                string(name),
                num(median(&v) * factor),
                string(unit),
                v.len(),
                num(v.iter().sum::<f64>() * factor),
                string(source)
            ));
        }
        let _ = write!(
            s,
            "\"layers\": {{{}}}, \"not_exercised\": [{}], \"unreachable\": [], ",
            layers_json.join(", "),
            not_exercised.join(", ")
        );
    }
    let _ = write!(
        s,
        "\"oracle\": {{\"attempted\": {}, \"failed\": {}, \"notes\": [{}]}}}}",
        cx.oracle.attempted,
        cx.oracle.failed,
        cx.oracle
            .notes
            .iter()
            .map(|n| string(n))
            .collect::<Vec<_>>()
            .join(", ")
    );
    s
}

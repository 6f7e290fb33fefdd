//! `kaskade` — the CLI over the framework and its serving runtime.
//!
//! ```text
//! kaskade query <dataset> [options] <query | @listing1 | @listing4>
//! kaskade serve <dataset> [options] [query ...]
//!
//!   dataset:        prov | dblp | roadnet-usa | soc-livejournal
//!
//! shared options:
//!   --views [composed]  run view selection for the workload before
//!                   starting; `--views composed` skips selection and
//!                   materializes the fixed composed-DAG catalog
//!                   (connector + aggregator + source-sink + a
//!                   summarizer OVER the connector) instead
//!   --scale N       dataset scale factor            (default 1)
//!   --seed N        dataset generator seed          (default 0x5EED)
//!   --threads N     reader threads                  (default 1 / 4)
//!
//! serve options:
//!   --duration-ms N run the serving loop this long  (default 2000)
//!   --write-every-ms N  delta cadence; 0 = no writer (default 2)
//!   --workload W    append | churn | hotkey | burst (default append)
//!   --shards N      partition the graph over N shards (default 1)
//!   --pool-threads N    worker threads in the persistent scatter /
//!                       merge / refresh pool (default 0 = cores - 1)
//!   --compact-ratio F   dead-slot fraction triggering slot compaction
//!                       (default 0.5)
//!   --expect-compaction fail unless the run compacted and ended with
//!                       slot capacity bounded (the long-churn CI gate)
//!   --expect-incremental fail unless every view refresh after startup
//!                       was incremental: `views_rematerialized` must
//!                       stay 0 while `views_refreshed` grows (the
//!                       refresh-DAG CI gate)
//!   --smoke         short self-checking run for CI (implies --views)
//!
//! serve adaptive options:
//!   --adaptive      run the background view-admission advisor: drain
//!                   the workload sensors (miss log + per-view benefit
//!                   counters) on a cadence, re-run §V selection
//!                   against the live statistics, and migrate the
//!                   catalog through live DDL under hysteresis
//!   --advise-every N    advisor tick cadence in ms   (default 250)
//!   --view-budget N     knapsack space budget in edges handed to the
//!                       advisor's selection (default: selection's)
//!   --expect-adaptation fail unless the advisor migrated the catalog
//!                   at least once with zero consistency violations
//!                   and zero view re-materializations (the
//!                   self-driving CI gate; implies --adaptive and the
//!                   per-read consistency verification)
//!
//! serve observability options:
//!   --trace on|off  structured span tracing into the in-process
//!                   flight recorder (default off; off costs one
//!                   relaxed atomic load per span site)
//!   --trace-dump    print the flight-recorder contents on exit
//!   --slow-query-ms F   log queries slower than F ms (fractional ok)
//!                   into the flight recorder, tracing on or off
//!   --metrics-addr A    serve Prometheus text at http://A/metrics
//!                   (plus /healthz and /trace); port 0 picks a free
//!                   port, printed on stderr
//!   --stats-interval N  print the metrics report every N ms while
//!                   serving (0 = off)
//!   --stats-json    print the final outcome as one JSON line on
//!                   stdout (machine-readable; CI's overhead gate
//!                   consumes it)
//!
//! serve durability options:
//!   --wal-dir PATH  append every published batch to an epoch-tagged
//!                   write-ahead log in PATH and checkpoint the dense
//!                   state there (created if missing)
//!   --checkpoint-every N  checkpoint after N logged batches
//!                   (default 64; bounds log growth and replay time)
//!   --no-fsync      skip the per-record fsync (group commit still
//!                   batches; a power loss may drop the last records)
//!   --recover       resume from --wal-dir: latest checkpoint + replay
//!                   of the log tail, instead of the generated dataset
//!                   (warns and starts fresh if the directory is empty;
//!                   implies the end-of-run consistency verification)
//!   --wal-overwrite discard durable state already in --wal-dir and
//!                   start fresh; without it (or --recover) a fresh
//!                   start refuses a non-empty WAL directory rather
//!                   than silently wiping a previous run's data
//! ```
//!
//! `query` plans and executes one query — with `--threads N > 1` it
//! executes through the serving engine on N concurrent readers and
//! reports per-thread agreement. `serve` stands up the full runtime:
//! N reader threads loop the workload while a writer streams scripted
//! schema-valid deltas; on exit it prints the engine metrics (reads/s,
//! latency quantiles, plan-cache hit rate, refresh lag). With
//! `--shards N > 1` the engine partitions the base graph across N
//! shards applied in parallel on its worker pool, with scatter/gather
//! reads — same results, parallel write path — and per-shard apply
//! metrics are printed too.
//!
//! Examples:
//!
//! ```sh
//! cargo run --release --bin kaskade -- query prov --views @listing1
//! cargo run --release --bin kaskade -- serve prov --threads 8 --duration-ms 3000
//! cargo run --release --bin kaskade -- serve prov --smoke
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kaskade::core::{Kaskade, SelectionConfig};
use kaskade::datasets::Dataset;
use kaskade::query::{listings, parse, Query, Table};
use kaskade::service::{
    drive, per_shard_lines, Advisor, AdvisorConfig, DriveConfig, DriveOutcome, Engine,
    EngineConfig, MetricsServer, Tracer, WalConfig, Workload,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: kaskade query <prov|dblp|roadnet-usa|soc-livejournal> [--views] [--scale N] \
         [--seed N] [--threads N] <query|@listing1|@listing4>\n       \
         kaskade serve <prov|dblp|roadnet-usa|soc-livejournal> [--views [composed]] [--scale N] \
         [--seed N] [--threads N] [--duration-ms N] [--write-every-ms N] [--workload W] \
         [--shards N] [--pool-threads N] [--compact-ratio F] [--expect-compaction] \
         [--expect-incremental] [--smoke] \
         [--adaptive] [--advise-every N] [--view-budget N] [--expect-adaptation] \
         [--trace on|off] [--trace-dump] [--slow-query-ms F] [--metrics-addr ADDR] \
         [--stats-interval N] [--stats-json] \
         [--wal-dir PATH] [--checkpoint-every N] [--no-fsync] [--recover] [--wal-overwrite] \
         [query ...]"
    );
    ExitCode::from(2)
}

/// Options shared by both subcommands, parsed from the tail of argv.
struct CommonArgs {
    with_views: bool,
    composed_views: bool,
    scale: usize,
    seed: u64,
    threads: Option<usize>,
    duration_ms: u64,
    write_every_ms: u64,
    workload: Workload,
    shards: usize,
    pool_threads: usize,
    compact_ratio: f64,
    expect_compaction: bool,
    expect_incremental: bool,
    adaptive: bool,
    advise_every_ms: u64,
    view_budget: u64,
    expect_adaptation: bool,
    smoke: bool,
    trace: bool,
    trace_dump: bool,
    slow_query_ms: f64,
    metrics_addr: Option<String>,
    stats_interval_ms: u64,
    stats_json: bool,
    wal_dir: Option<String>,
    checkpoint_every: u64,
    no_fsync: bool,
    recover: bool,
    wal_overwrite: bool,
    queries: Vec<String>,
}

fn parse_common(args: impl Iterator<Item = String>) -> Option<CommonArgs> {
    let mut c = CommonArgs {
        with_views: false,
        composed_views: false,
        scale: 1,
        seed: 0x5EED,
        threads: None,
        duration_ms: 2_000,
        write_every_ms: 2,
        workload: Workload::Append,
        shards: 1,
        pool_threads: 0,
        compact_ratio: EngineConfig::default().compact_dead_ratio,
        expect_compaction: false,
        expect_incremental: false,
        adaptive: false,
        advise_every_ms: AdvisorConfig::default().every.as_millis() as u64,
        view_budget: AdvisorConfig::default().budget_edges,
        expect_adaptation: false,
        smoke: false,
        trace: false,
        trace_dump: false,
        slow_query_ms: 0.0,
        metrics_addr: None,
        stats_interval_ms: 0,
        stats_json: false,
        wal_dir: None,
        checkpoint_every: WalConfig::new(".").checkpoint_every,
        no_fsync: false,
        recover: false,
        wal_overwrite: false,
        queries: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--views" => {
                c.with_views = true;
                if args.peek().map(String::as_str) == Some("composed") {
                    args.next();
                    c.composed_views = true;
                }
            }
            "--smoke" => c.smoke = true,
            "--scale" => c.scale = args.next()?.parse().ok()?,
            "--seed" => c.seed = args.next()?.parse().ok()?,
            "--threads" => c.threads = Some(args.next()?.parse().ok()?),
            "--duration-ms" => c.duration_ms = args.next()?.parse().ok()?,
            "--write-every-ms" => c.write_every_ms = args.next()?.parse().ok()?,
            "--workload" => c.workload = Workload::parse(&args.next()?)?,
            "--shards" => c.shards = args.next()?.parse().ok()?,
            "--pool-threads" => c.pool_threads = args.next()?.parse().ok()?,
            "--compact-ratio" => {
                c.compact_ratio = args.next()?.parse().ok().filter(|&r: &f64| r > 0.0)?
            }
            "--expect-compaction" => c.expect_compaction = true,
            "--expect-incremental" => c.expect_incremental = true,
            "--adaptive" => c.adaptive = true,
            "--advise-every" => {
                c.advise_every_ms = args.next()?.parse().ok().filter(|&n: &u64| n > 0)?
            }
            "--view-budget" => c.view_budget = args.next()?.parse().ok()?,
            "--expect-adaptation" => c.expect_adaptation = true,
            "--trace" => match args.next()?.as_str() {
                "on" => c.trace = true,
                "off" => c.trace = false,
                _ => return None,
            },
            "--trace-dump" => c.trace_dump = true,
            "--slow-query-ms" => {
                c.slow_query_ms = args.next()?.parse().ok().filter(|v: &f64| *v >= 0.0)?
            }
            "--metrics-addr" => c.metrics_addr = Some(args.next()?),
            "--stats-interval" => c.stats_interval_ms = args.next()?.parse().ok()?,
            "--stats-json" => c.stats_json = true,
            "--wal-dir" => c.wal_dir = Some(args.next()?),
            "--checkpoint-every" => {
                c.checkpoint_every = args.next()?.parse().ok().filter(|&n: &u64| n > 0)?
            }
            "--no-fsync" => c.no_fsync = true,
            "--recover" => c.recover = true,
            "--wal-overwrite" => c.wal_overwrite = true,
            "@listing1" => c.queries.push(listings::LISTING_1.to_string()),
            "@listing4" => c.queries.push(listings::LISTING_4.to_string()),
            other if other.starts_with("--") => return None,
            other => c.queries.push(other.to_string()),
        }
    }
    Some(c)
}

fn load(dataset: Dataset, c: &CommonArgs) -> Kaskade {
    let start = Instant::now();
    let graph = dataset.generate(c.scale, c.seed);
    eprintln!(
        "loaded {} (scale {}, seed {:#x}): {} vertices, {} edges in {:.2?}",
        dataset.short_name(),
        c.scale,
        c.seed,
        graph.vertex_count(),
        graph.edge_count(),
        start.elapsed()
    );
    Kaskade::new(graph, dataset.schema())
}

fn parse_workload(sources: &[String]) -> Result<Vec<Query>, ExitCode> {
    let mut queries = Vec::new();
    for src in sources {
        match parse(src) {
            Ok(q) => queries.push(q),
            Err(e) => {
                eprintln!("query error: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(queries)
}

/// The `--views composed` catalog: a fixed 4-view refresh DAG over the
/// dataset's anchor type — a 2-hop connector, a summarizer composed
/// *over* that connector (so the DAG has a second level), a
/// source-to-sink contraction, and (on prov, whose jobs carry the
/// props) a pipeline CPU aggregator.
fn materialize_composed_preset(kaskade: &mut Kaskade, dataset: Dataset) {
    use kaskade::core::{
        ComposedDef, ConnectorDef, PropPredicate, SourceSinkDef, SummarizerDef, ViewDef,
    };
    let anchor = dataset.anchor_type();
    let connector = ConnectorDef::k_hop(anchor, anchor, 2);
    let mut defs = vec![
        ViewDef::Connector(connector.clone()),
        ViewDef::Composed(ComposedDef {
            connector,
            summarizer: SummarizerDef::EdgePredicate {
                keep: PropPredicate::IntAtLeast("support".into(), 2),
            },
        }),
        ViewDef::SourceSink(SourceSinkDef::default()),
    ];
    if dataset == Dataset::Prov {
        defs.push(ViewDef::Summarizer(SummarizerDef::VertexAggregator {
            vtype: "Job".into(),
            group_prop: "pipelineName".into(),
            agg_prop: "CPU".into(),
            agg: kaskade::core::AggOp::Sum,
        }));
    }
    let start = Instant::now();
    let names: Vec<String> = defs
        .into_iter()
        .map(|d| kaskade.materialize_view(d))
        .collect();
    eprintln!(
        "composed preset: materialized {} view(s) in {:.2?}: {}",
        names.len(),
        start.elapsed(),
        names.join(", ")
    );
}

fn select_views(kaskade: &mut Kaskade, workload: &[Query]) {
    let start = Instant::now();
    let report = kaskade.select_and_materialize(workload, &SelectionConfig::default());
    eprintln!(
        "view selection: {} candidate(s) scored, materialized {:?} in {:.2?}",
        report.scored.len(),
        report.materialized,
        start.elapsed()
    );
}

fn print_table(table: &Table) {
    println!("{}", table.columns.join("\t"));
    for row in table.rows.iter().take(25) {
        let cells: Vec<String> = row.iter().map(|d| d.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
    if table.len() > 25 {
        println!("... ({} rows total)", table.len());
    }
}

fn cmd_query(dataset: Dataset, c: CommonArgs) -> ExitCode {
    if c.queries.len() != 1 {
        eprintln!("`kaskade query` takes exactly one query");
        return usage();
    }
    let workload = match parse_workload(&c.queries) {
        Ok(w) => w,
        Err(code) => return code,
    };
    let query = &workload[0];
    let mut kaskade = load(dataset, &c);
    if c.composed_views {
        materialize_composed_preset(&mut kaskade, dataset);
    } else if c.with_views {
        select_views(&mut kaskade, &workload);
    }

    let plan = match kaskade.plan(query) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("planning error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let routed = plan
        .view_id
        .and_then(|id| kaskade.catalog().get_by_id(id))
        .map(|v| v.def.id());
    eprintln!(
        "plan: {} (estimated cost {:.0})",
        routed.as_deref().unwrap_or("raw graph"),
        plan.estimated_cost
    );

    let threads = c.threads.unwrap_or(1).max(1);
    if threads == 1 {
        let start = Instant::now();
        let table = match kaskade.execute(query) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("execution error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let elapsed = start.elapsed();
        print_table(&table);
        eprintln!("{} row(s) in {:.2?}", table.len(), elapsed);
        return ExitCode::SUCCESS;
    }

    // concurrent execution through the serving engine: every thread
    // must see the same snapshot and produce the same table
    let engine = Engine::from_kaskade(&kaskade);
    let start = Instant::now();
    let results: Vec<Result<Table, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut reader = engine.reader();
                    engine
                        .execute_with(&mut reader, query)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut tables = Vec::new();
    for r in results {
        match r {
            Ok(t) => tables.push(t),
            Err(e) => {
                eprintln!("execution error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let first = format!("{:?}", tables[0].rows);
    let agree = tables.iter().all(|t| format!("{:?}", t.rows) == first);
    print_table(&tables[0]);
    eprintln!(
        "{} row(s) on each of {threads} concurrent readers ({}) in {:.2?}",
        tables[0].len(),
        if agree { "all agree" } else { "DISAGREE" },
        elapsed
    );
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Background observability attached to one serve run: the optional
/// scrape endpoint thread and the optional periodic stats printer.
struct ObservabilityRig {
    server: Option<MetricsServer>,
    stop: Arc<AtomicBool>,
    printer: Option<std::thread::JoinHandle<()>>,
}

fn start_observability(c: &CommonArgs, engine: Arc<Engine>) -> Result<ObservabilityRig, ExitCode> {
    let server = match &c.metrics_addr {
        Some(addr) => match MetricsServer::bind(addr, Arc::clone(&engine)) {
            Ok(server) => {
                // tests bind port 0 and read the resolved port here
                eprintln!("metrics endpoint on http://{}/metrics", server.addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("--metrics-addr {addr}: {e}");
                return Err(ExitCode::FAILURE);
            }
        },
        None => None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let printer = (c.stats_interval_ms > 0).then(|| {
        let stop = Arc::clone(&stop);
        let every = Duration::from_millis(c.stats_interval_ms);
        std::thread::spawn(move || {
            let mut next = Instant::now() + every;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10).min(every));
                if Instant::now() >= next {
                    eprintln!("--- stats ---\n{}", engine.metrics());
                    next += every;
                }
            }
        })
    });
    Ok(ObservabilityRig {
        server,
        stop,
        printer,
    })
}

impl ObservabilityRig {
    /// Stops the printer and the endpoint (joining both threads).
    fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(printer) = self.printer {
            let _ = printer.join();
        }
        drop(self.server);
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The `--stats-json` line: the final outcome and report as one JSON
/// object (hand-rolled — the whole repo builds offline, so no serde).
fn outcome_json(outcome: &DriveOutcome, tracer: &Tracer, counts: (usize, usize)) -> String {
    use std::fmt::Write as _;
    let r = &outcome.report;
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "{{\"vertices\":{},\"edges\":{},\
         \"reads\":{},\"read_errors\":{},\"reads_per_sec\":{:.1},\"writes\":{},\
         \"writes_backpressured\":{},\"consistency_violations\":{},\"final_consistent\":{},\
         \"epoch\":{},\"deltas_applied\":{},\"batches_published\":{},\"views_refreshed\":{},\
         \"views_rematerialized\":{},\"views_created\":{},\"views_dropped\":{},\
         \"advisor_migrations\":{},\"compactions_run\":{},\"slots_reclaimed\":{},\
         \"plan_cache_hit_rate\":{:.4},\"p50_ns\":{},\"p99_ns\":{},\"apply_p50_ns\":{},\
         \"apply_p99_ns\":{},\"apply_total_ns\":{},\"queue_depth\":{},\"slow_queries\":{},\
         \"trace_dropped_events\":{},\"per_view\":[",
        counts.0,
        counts.1,
        outcome.reads,
        outcome.read_errors,
        outcome.reads_per_sec(),
        outcome.writes,
        outcome.writes_backpressured,
        outcome.consistency_violations,
        outcome.final_consistent,
        r.epoch,
        r.deltas_applied,
        r.batches_published,
        r.views_refreshed,
        r.views_rematerialized,
        r.views_created,
        r.views_dropped,
        r.advisor_migrations,
        r.compactions_run,
        r.slots_reclaimed,
        r.plan_cache_hit_rate(),
        r.p50.as_nanos(),
        r.p99.as_nanos(),
        r.apply_p50.as_nanos(),
        r.apply_p99.as_nanos(),
        r.apply_total.as_nanos(),
        r.queue_depth,
        tracer.slow_queries(),
        tracer.dropped_events(),
    );
    for (i, v) in r.per_view.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\":\"{}\",\"level\":{},\"refreshes\":{},\"rematerialized\":{},\
             \"recomputed\":{},\"p50_ns\":{},\"p99_ns\":{},\"total_ns\":{},\"last_ns\":{}}}",
            if i > 0 { "," } else { "" },
            json_escape(&v.name),
            v.level,
            v.refreshes,
            v.rematerialized,
            v.recomputed,
            v.refresh_p50.as_nanos(),
            v.refresh_p99.as_nanos(),
            v.refresh_total.as_nanos(),
            v.last_refresh.as_nanos(),
        );
    }
    s.push_str("]}");
    s
}

fn cmd_serve(dataset: Dataset, mut c: CommonArgs) -> ExitCode {
    if c.smoke {
        // a short, self-checking preset for CI
        c.with_views = true;
        c.duration_ms = c.duration_ms.min(500);
        c.write_every_ms = c.write_every_ms.max(1);
    }
    if c.expect_adaptation {
        // the gate is meaningless without the advisor actually running
        c.adaptive = true;
    }
    if c.queries.is_empty() {
        c.queries.push(listings::LISTING_1.to_string());
    }
    let workload = match parse_workload(&c.queries) {
        Ok(w) => w,
        Err(code) => return code,
    };
    let mut kaskade = load(dataset, &c);
    if c.composed_views {
        materialize_composed_preset(&mut kaskade, dataset);
    } else if c.with_views {
        select_views(&mut kaskade, &workload);
    }

    let threads = c.threads.unwrap_or(4);
    let shards = c.shards;
    let cfg = DriveConfig {
        readers: threads,
        duration: Duration::from_millis(c.duration_ms),
        read_pause: Duration::ZERO,
        write_pause: Duration::from_millis(c.write_every_ms),
        max_writes: 0,
        // a recovered state must also survive the scratch-rebuild
        // comparison — recovery correctness is exactly what is at
        // stake; --expect-adaptation gates on zero violations, so it
        // must count them
        verify_consistency: c.smoke || c.recover || c.expect_adaptation,
        workload: c.workload,
    };
    eprintln!(
        "serving {} with {threads} reader thread(s), {} quer{}, `{}` writer every {}ms, \
         {shards} shard(s), for {}ms",
        dataset.short_name(),
        workload.len(),
        if workload.len() == 1 { "y" } else { "ies" },
        c.workload,
        c.write_every_ms,
        c.duration_ms
    );
    // the span/flight-recorder subsystem: shared by the engine, the
    // scrape endpoint, and the dumps
    let tracer = Arc::new(Tracer::new(c.trace));
    if c.slow_query_ms > 0.0 {
        tracer.set_slow_query_threshold(Some(Duration::from_secs_f64(c.slow_query_ms / 1000.0)));
    }
    let config = EngineConfig {
        compact_dead_ratio: c.compact_ratio,
        pool_threads: c.pool_threads,
        tracer: Some(Arc::clone(&tracer)),
        // durability: every published batch appends to the WAL before
        // it becomes visible, and the dense state checkpoints
        // periodically
        wal: c.wal_dir.as_ref().map(|dir| WalConfig {
            fsync: !c.no_fsync,
            checkpoint_every: c.checkpoint_every,
            // --recover counts as overwrite consent for the fresh-start
            // fallback: recovery was attempted, so whatever is left in
            // the directory is unrecoverable anyway
            overwrite: c.wal_overwrite || c.recover,
            ..WalConfig::new(dir)
        }),
        ..EngineConfig::hash(shards)
    };
    let engine = if c.recover {
        match Engine::recover(config.clone()) {
            Ok(Some(e)) => {
                eprintln!("recovered epoch {} from the write-ahead log", e.epoch());
                Ok(e)
            }
            Ok(None) => {
                eprintln!(
                    "warning: nothing to recover in {}; starting fresh",
                    c.wal_dir.as_deref().unwrap_or("?")
                );
                Engine::try_with_config(kaskade.snapshot(), config)
            }
            Err(e) => {
                eprintln!("recovery failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Engine::try_with_config(kaskade.snapshot(), config)
    };
    let engine = match engine {
        Ok(e) => Arc::new(e),
        Err(e) => {
            let hint = if c.recover {
                ""
            } else {
                " (pass --recover to resume it, or --wal-overwrite to discard it)"
            };
            eprintln!("failed to open the write-ahead log: {e}{hint}");
            return ExitCode::FAILURE;
        }
    };
    let rig = match start_observability(&c, Arc::clone(&engine)) {
        Ok(rig) => rig,
        Err(code) => return code,
    };
    // the self-driving admission loop: started right before drive(),
    // stopped (and reported) right after
    let advisor = c.adaptive.then(|| {
        Advisor::start(
            Arc::clone(&engine),
            Arc::clone(&tracer),
            AdvisorConfig {
                every: Duration::from_millis(c.advise_every_ms),
                budget_edges: c.view_budget,
                ..AdvisorConfig::default()
            },
        )
    });
    let outcome = drive(&engine, &workload, &cfg);
    if let Some(mut advisor) = advisor {
        advisor.stop();
        eprintln!(
            "advisor: {} tick(s), {} migration(s)",
            advisor.ticks(),
            advisor.migrations()
        );
    }
    rig.finish();
    let snap = engine.snapshot();
    let g = snap.state.graph();
    // (capacity, live): final id-slot capacity vs live element count —
    // the numbers the compaction policy bounds
    let slots = (
        g.vertex_slots() + g.edge_slots(),
        g.vertex_count() + g.edge_count(),
    );
    let counts = (g.vertex_count(), g.edge_count());
    println!(
        "reads              {} ok / {} errors ({:.0} reads/s)",
        outcome.reads,
        outcome.read_errors,
        outcome.reads_per_sec()
    );
    println!(
        "writes submitted   {} ({} backpressured)",
        outcome.writes, outcome.writes_backpressured
    );
    println!("{}", outcome.report);
    let (capacity, live) = slots;
    println!("id slots           {capacity} capacity / {live} live");
    if shards > 1 {
        print!("{}", per_shard_lines(&engine.shard_reports()));
    }
    if c.stats_json {
        println!("{}", outcome_json(&outcome, &tracer, counts));
    }
    if c.trace_dump {
        eprint!("{}", tracer.render_dump());
    }

    if !outcome.final_consistent {
        eprintln!("CONSISTENCY FAILED: final snapshot diverges from a from-scratch rebuild");
        if !c.trace_dump && !tracer.dump().is_empty() {
            // dump on anomaly: whatever the flight recorder holds is
            // the best post-mortem available
            eprint!("{}", tracer.render_dump());
        }
        return ExitCode::FAILURE;
    }
    if c.expect_compaction {
        // the long-churn CI gate: the run must have crossed the
        // compaction threshold, reclaimed slots, and ended with slot
        // capacity bounded relative to the live size (small slack for
        // the batches published since the last compaction check)
        let bounded = capacity <= 2 * live + 256;
        if outcome.report.compactions_run == 0 || outcome.report.slots_reclaimed == 0 || !bounded {
            eprintln!(
                "compaction check FAILED: compactions={} reclaimed={} capacity={} live={}",
                outcome.report.compactions_run, outcome.report.slots_reclaimed, capacity, live
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "compaction check passed ({} runs reclaimed {} slots; capacity {capacity} <= 2x live {live} + slack)",
            outcome.report.compactions_run, outcome.report.slots_reclaimed
        );
    }
    if c.expect_incremental {
        // the refresh-DAG CI gate: the writer must have refreshed views
        // (so the DAG actually ran) and never once fallen back to a
        // full re-materialization of a composed view
        let refreshed = outcome.report.views_refreshed;
        let remat = outcome.report.views_rematerialized;
        if refreshed == 0 || remat != 0 {
            eprintln!("incremental check FAILED: refreshed={refreshed} rematerialized={remat}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "incremental check passed ({refreshed} view refreshes, zero re-materializations)"
        );
    }
    if c.expect_adaptation {
        // the self-driving CI gate: the advisor must have migrated the
        // catalog at least once (created or dropped a view online), no
        // reader may have observed an inconsistent snapshot across
        // those migrations, and surviving views must have been
        // maintained incrementally — never recovered by a full
        // re-materialization
        let migrations = outcome.report.advisor_migrations;
        let remat = outcome.report.views_rematerialized;
        if migrations == 0 || outcome.consistency_violations != 0 || remat != 0 {
            eprintln!(
                "adaptation check FAILED: migrations={migrations} violations={} rematerialized={remat}",
                outcome.consistency_violations
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "adaptation check passed ({migrations} advisor migration(s) [{} created / {} dropped], \
             zero violations, zero re-materializations)",
            outcome.report.views_created, outcome.report.views_dropped
        );
    }
    if c.smoke {
        let healthy = outcome.reads > 0
            && outcome.read_errors == 0
            && outcome.consistency_violations == 0
            && outcome.report.epoch > 0
            && outcome.report.plan_cache_hit_rate() > 0.0;
        if !healthy {
            eprintln!(
                "smoke check FAILED: reads={} errors={} violations={} epoch={} hit_rate={:.2}",
                outcome.reads,
                outcome.read_errors,
                outcome.consistency_violations,
                outcome.report.epoch,
                outcome.report.plan_cache_hit_rate()
            );
            return ExitCode::FAILURE;
        }
        eprintln!("smoke check passed (final views and stats verified against scratch rebuild)");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return usage();
    };
    let Some(ds_name) = args.next() else {
        return usage();
    };
    let Some(dataset) = Dataset::ALL.into_iter().find(|d| d.short_name() == ds_name) else {
        eprintln!("unknown dataset `{ds_name}`");
        return usage();
    };
    let Some(common) = parse_common(args) else {
        return usage();
    };
    // zero readers or zero shards is neither an error the engine can
    // recover from nor a sensible degenerate mode: refuse cleanly
    // instead of panicking or silently clamping
    if common.threads == Some(0) {
        eprintln!("--threads must be at least 1");
        return ExitCode::from(2);
    }
    if common.shards == 0 {
        eprintln!("--shards must be at least 1");
        return ExitCode::from(2);
    }
    if common.recover && common.wal_dir.is_none() {
        eprintln!("--recover requires --wal-dir (there is no log to recover from)");
        return ExitCode::from(2);
    }
    match command.as_str() {
        "query" => cmd_query(dataset, common),
        "serve" => cmd_serve(dataset, common),
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}

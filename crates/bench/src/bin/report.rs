//! The experiment report generator: prints every table and figure of
//! the paper's evaluation from the reproduced system.
//!
//! ```text
//! report [experiment] [dataset]
//!
//! experiments: table1 table2 table3 table4 fig3 fig5 fig6 fig7 fig8 enum
//!              serve scale recovery adaptive all
//! datasets:    prov dblp roadnet-usa soc-livejournal (default: all applicable)
//! ```
//!
//! `scale`, `recovery`, and `adaptive` additionally accept `--json` to
//! emit one JSON line per row (the formats checked in as
//! `BENCH_scale.json`, `BENCH_recovery.json`, and `BENCH_adaptive.json`
//! and consumed by CI's gates). `recovery` and `adaptive` exit nonzero
//! when their acceptance gate fails.

use std::env;
use std::time::Duration;

use kaskade_bench::experiments::{
    enumeration_ablation, fig5, fig5_upper_bound_hit_rate, fig6, fig7, fig8, serve_adaptive,
    serve_churn, serve_compaction, serve_dag, serve_recovery, serve_scale, serve_sharded,
    serve_throughput, serve_trace, table3,
};
use kaskade_bench::setup::Env;
use kaskade_bench::workload::QueryId;
use kaskade_core::{materialize, ConnectorDef, ViewDef};
use kaskade_datasets::Dataset;
use kaskade_graph::{GraphBuilder, Value};

const SEED: u64 = 0x5EED;
const SCALE: usize = 1;

fn parse_dataset(s: &str) -> Option<Dataset> {
    Dataset::ALL.into_iter().find(|d| d.short_name() == s)
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let dataset = args.get(1).and_then(|s| parse_dataset(s));

    match what {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => print_table3(),
        "table4" => table4(),
        "fig3" => fig3(),
        "fig5" => print_fig5(dataset),
        "fig6" => print_fig6(dataset),
        "fig7" => print_fig7(dataset),
        "fig8" => print_fig8(dataset),
        "enum" => print_enum(),
        "serve" => print_serve(dataset),
        "scale" => print_scale(dataset, args.iter().any(|a| a == "--json")),
        "recovery" => print_recovery(args.iter().any(|a| a == "--json")),
        "adaptive" => print_adaptive(args.iter().any(|a| a == "--json")),
        "all" => {
            table1();
            table2();
            print_table3();
            table4();
            fig3();
            print_fig5(None);
            print_fig6(None);
            print_fig7(None);
            print_fig8(None);
            print_enum();
            print_serve(None);
            print_scale(None, false);
            print_recovery(false);
            print_adaptive(false);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("usage: report [table1|table2|table3|table4|fig3|fig5|fig6|fig7|fig8|enum|serve|scale|recovery|adaptive|all] [dataset] [--json]");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    header("TABLE I: Connectors in Kaskade");
    for (name, desc) in [
        (
            "Same-vertex-type connector",
            "Target vertices are all pairs of vertices with a specific vertex type.",
        ),
        (
            "k-hop connector",
            "Target vertices are all vertex pairs that are connected through k-length paths.",
        ),
        (
            "Same-edge-type connector",
            "Target vertices are all pairs of vertices connected with a path of edges of a specific edge type.",
        ),
        (
            "Source-to-sink connector",
            "Target vertices are (source, sink) pairs: no incoming resp. no outgoing edges.",
        ),
    ] {
        println!("  {name:<28} {desc}");
    }
    // demonstrate a materialized instance of the workhorse connector
    let env = Env::prepare(Dataset::Prov, SCALE, SEED);
    println!(
        "\n  materialized example: {} over prov — {} vertices, {} edges",
        env.connector_label,
        env.connector.vertex_count(),
        env.connector.edge_count()
    );
}

fn table2() {
    header("TABLE II: Summarizers in Kaskade");
    for (name, desc) in [
        (
            "Vertex-removal summarizer",
            "Removes vertices (and incident edges) matching a predicate.",
        ),
        (
            "Edge-removal summarizer",
            "Removes edges matching a predicate.",
        ),
        (
            "Vertex-inclusion summarizer",
            "Keeps vertices matching the predicate and edges between them.",
        ),
        (
            "Edge-inclusion summarizer",
            "Keeps only edges matching a predicate.",
        ),
        (
            "Vertex-aggregator summarizer",
            "Groups matching vertices into a supervertex with an aggregate.",
        ),
        (
            "Edge-aggregator summarizer",
            "Groups matching edges into a superedge with an aggregate.",
        ),
        (
            "Subgraph-aggregator summarizer",
            "Groups a matching subgraph into a supervertex.",
        ),
    ] {
        println!("  {name:<32} {desc}");
    }
}

fn print_table3() {
    header("TABLE III: Networks used for evaluation (generated, seeded)");
    println!(
        "  {:<18} {:>14} {:>10} {:>10} {:>7} {:>6}",
        "short name", "type", "|V|", "|E|", "vtypes", "etypes"
    );
    for r in table3(SCALE, SEED) {
        println!(
            "  {:<18} {:>14} {:>10} {:>10} {:>7} {:>6}",
            r.name, r.kind, r.vertices, r.edges, r.vertex_types, r.edge_types
        );
    }
}

fn table4() {
    header("TABLE IV: Query workload");
    for q in QueryId::ALL {
        println!("  {:<4} {}", q.name(), q.description());
    }
}

fn fig3() {
    header("FIG 3: 2-hop connector construction over the toy lineage graph");
    // the exact graph of Fig. 3(a)
    let mut b = GraphBuilder::new();
    let names = ["j1", "f1", "j2", "f2", "j3", "f3", "f4"];
    let types = ["Job", "File", "Job", "File", "Job", "File", "File"];
    let vs: Vec<_> = names
        .iter()
        .zip(types)
        .map(|(n, t)| {
            let v = b.add_vertex(t);
            b.set_vertex_prop(v, "name", Value::Str(n.to_string()));
            v
        })
        .collect();
    for (s, d, t) in [
        (0, 1, "WRITES_TO"),
        (1, 2, "IS_READ_BY"),
        (0, 3, "WRITES_TO"),
        (3, 4, "IS_READ_BY"),
        (2, 5, "WRITES_TO"),
        (4, 6, "WRITES_TO"),
    ] {
        b.add_edge(vs[s], vs[d], t);
    }
    let g = b.finish();
    println!(
        "  input graph (a): {} vertices, {} edges",
        g.vertex_count(),
        g.edge_count()
    );
    for (src, dst, panel) in [
        ("Job", "Job", "(c) job-to-job"),
        ("File", "File", "(d) file-to-file"),
    ] {
        let view = materialize(&g, &ViewDef::Connector(ConnectorDef::k_hop(src, dst, 2)));
        print!("  2-hop connector {panel}: ");
        let mut edges: Vec<String> = view
            .edges()
            .map(|e| {
                let n = |v| {
                    view.vertex_prop(v, "name")
                        .map(|p| p.to_string())
                        .unwrap_or_default()
                };
                format!("{}->{}", n(view.edge_src(e)), n(view.edge_dst(e)))
            })
            .collect();
        edges.sort();
        println!("{}", edges.join(", "));
    }
}

fn datasets_or(dataset: Option<Dataset>) -> Vec<Dataset> {
    dataset
        .map(|d| vec![d])
        .unwrap_or_else(|| Dataset::ALL.to_vec())
}

fn print_fig5(dataset: Option<Dataset>) {
    header("FIG 5: estimated vs actual 2-hop connector sizes (edge prefixes)");
    let prefixes = [1_000, 3_000, 10_000, 30_000, 100_000];
    for d in datasets_or(dataset) {
        println!("\n  {}", d.short_name());
        println!(
            "    {:>12} {:>14} {:>14} {:>14} {:>12}",
            "graph edges", "est(a=50)", "est(a=95)", "Erdos-Renyi", "actual"
        );
        let rows = fig5(d, SCALE, SEED, &prefixes);
        for r in &rows {
            println!(
                "    {:>12} {:>14.0} {:>14.0} {:>14.2} {:>12}",
                r.graph_edges, r.est_alpha50, r.est_alpha95, r.est_erdos_renyi, r.actual
            );
        }
        println!(
            "    alpha=95 upper-bound hit rate: {:.0}%",
            100.0 * fig5_upper_bound_hit_rate(&rows)
        );
    }
}

fn print_fig6(dataset: Option<Dataset>) {
    header("FIG 6: effective size reduction (raw -> filter -> connector)");
    let targets = dataset
        .map(|d| vec![d])
        .unwrap_or_else(|| vec![Dataset::Prov, Dataset::Dblp]);
    for d in targets {
        if !d.is_heterogeneous() {
            continue; // Fig. 6 covers the heterogeneous networks
        }
        let env = Env::prepare(d, SCALE, SEED);
        println!("\n  {}", d.short_name());
        println!("    {:<11} {:>10} {:>10}", "stage", "vertices", "edges");
        for r in fig6(&env) {
            println!("    {:<11} {:>10} {:>10}", r.stage, r.vertices, r.edges);
        }
    }
}

fn print_fig7(dataset: Option<Dataset>) {
    header("FIG 7: query runtimes, filter graph vs 2-hop connector view");
    for d in datasets_or(dataset) {
        let env = Env::prepare(d, SCALE, SEED);
        let base_label = if d.is_heterogeneous() {
            "filter"
        } else {
            "raw"
        };
        println!(
            "\n  {} (connector: {} edges vs {} {} edges)",
            d.short_name(),
            env.connector.edge_count(),
            base_label,
            env.filtered.edge_count()
        );
        println!(
            "    {:<4} {:>14} {:>14} {:>9}",
            "query",
            format!("{base_label} (s)"),
            "connector (s)",
            "speedup"
        );
        for r in fig7(&env, 3) {
            println!(
                "    {:<4} {:>14.4} {:>14.4} {:>8.1}x",
                r.query, r.filter_secs, r.connector_secs, r.speedup
            );
        }
    }
}

fn print_fig8(dataset: Option<Dataset>) {
    header("FIG 8: out-degree CCDF (log-log) and power-law fit");
    for d in datasets_or(dataset) {
        let data = fig8(d, SCALE, SEED);
        println!("\n  {}", d.short_name());
        match data.exponent {
            Some(e) => println!("    best-fit power-law exponent: {e:.2}"),
            None => println!("    (degenerate distribution, no fit)"),
        }
        println!("    {:>8} {:>10}", "degree", "freq>x");
        // sample up to 12 points evenly for readability
        let n = data.ccdf.len();
        let step = n.div_ceil(12).max(1);
        for (deg, count) in data.ccdf.iter().step_by(step) {
            println!("    {deg:>8} {count:>10}");
        }
    }
}

fn print_serve(dataset: Option<Dataset>) {
    header("SERVING: concurrent readers vs an active delta writer (kaskade-service)");
    let d = dataset.unwrap_or(Dataset::Prov);
    println!(
        "  {} — blast-radius workload, closed-loop readers, one scripted delta every 2ms",
        d.short_name()
    );
    println!(
        "    {:>7} {:>9} {:>10} {:>11} {:>11} {:>7} {:>7} {:>9} {:>12}",
        "readers", "reads", "reads/s", "p50", "p99", "writes", "epochs", "hit rate", "max lag"
    );
    for r in serve_throughput(
        d,
        SCALE,
        SEED,
        &[1, 2, 4, 8],
        Duration::from_millis(400),
        Duration::ZERO,
        Duration::from_millis(2),
    ) {
        println!(
            "    {:>7} {:>9} {:>10.0} {:>11} {:>11} {:>7} {:>7} {:>8.0}% {:>12}",
            r.readers,
            r.reads,
            r.reads_per_sec,
            format!("{:.1?}", r.p50),
            format!("{:.1?}", r.p99),
            r.writes,
            r.epochs,
            100.0 * r.cache_hit_rate,
            format!("{:.1?}", r.max_refresh_lag),
        );
    }

    println!(
        "\n  churn serving: retractable deltas per workload shape (4 readers, writer every 2ms)"
    );
    println!(
        "    {:>8} {:>9} {:>7} {:>12} {:>7} {:>12} {:>12} {:>11} {:>11} {:>6}",
        "workload",
        "reads",
        "writes",
        "retractions",
        "epochs",
        "refresh",
        "max lag",
        "stats full",
        "stats incr",
        "ok"
    );
    for r in serve_churn(
        d,
        SCALE,
        SEED,
        4,
        Duration::from_millis(400),
        Duration::from_millis(2),
    ) {
        println!(
            "    {:>8} {:>9} {:>7} {:>12} {:>7} {:>12} {:>12} {:>11} {:>11} {:>6}",
            r.workload,
            r.reads,
            r.writes,
            r.retractions,
            r.epochs,
            format!("{:.1?}", r.last_refresh),
            format!("{:.1?}", r.max_refresh_lag),
            format!("{:.1?}", r.stats_full_recompute),
            format!("{:.1?}", r.stats_incremental_update),
            if r.final_consistent { "yes" } else { "NO" },
        );
    }
    println!("\n  (`stats full` is the per-publish statistics rescan the write path used to");
    println!("   pay; `stats incr` is the incremental histogram update it pays now)");

    println!("\n  sharded ingest: identical churn sequence through single vs sharded engines");
    println!(
        "    {:>7} {:>7} {:>13} {:>13} {:>13} {:>13} {:>6} {:>9}",
        "shards", "writes", "single", "coordinator", "shard max", "shard sum", "equal", "coherent"
    );
    for r in serve_sharded(d, SCALE, SEED, &[2, 4], 120) {
        println!(
            "    {:>7} {:>7} {:>13} {:>13} {:>13} {:>13} {:>6} {:>9}",
            r.shards,
            r.writes,
            format!("{:.1?}", r.single_apply),
            format!("{:.1?}", r.coordinator_apply),
            format!("{:.1?}", r.max_shard_apply()),
            format!("{:.1?}", r.sum_shard_apply()),
            if r.results_equal { "yes" } else { "NO" },
            if r.coherent { "yes" } else { "NO" },
        );
    }
    println!("\n  (`single` is the whole unsharded write path per the same delta sequence;");
    println!("   `shard max` is the parallel ingest critical path — per-shard delta apply");
    println!("   runs concurrently, and connector view refresh inside `coordinator` fans");
    println!("   out one worker per shard)");

    println!("\n  slot compaction: constant-live churn, compaction disabled vs dead-ratio 0.5");
    println!(
        "    {:>10} {:>7} {:>7} {:>9} {:>7} {:>12} {:>12} {:>11} {:>6}",
        "policy", "writes", "live", "capacity", "ratio", "compactions", "reclaimed", "apply", "ok"
    );
    for r in serve_compaction(SEED, 1_200) {
        println!(
            "    {:>10} {:>7} {:>7} {:>9} {:>6.2}x {:>12} {:>12} {:>11} {:>6}",
            r.policy,
            r.writes,
            r.live,
            r.slot_capacity,
            r.capacity_ratio(),
            r.compactions_run,
            r.slots_reclaimed,
            format!("{:.1?}", r.apply_total),
            if r.final_consistent { "yes" } else { "NO" },
        );
    }
    println!("\n  (`capacity` is vertex+edge id slots held, live or dead: the engine's");
    println!("   working-set floor. Under churn at constant live size the disabled");
    println!("   engine grows without bound; the 0.5 policy keeps capacity <= 2x live)");

    println!("\n  refresh DAG: 4-view composed catalog, level-serial vs level-parallel");
    println!(
        "    {:>12} {:>6} {:>7} {:>7} {:>11} {:>10} {:>15}",
        "mode", "views", "levels", "writes", "refresh", "refreshed", "rematerialized"
    );
    for r in serve_dag(SEED, 300) {
        println!(
            "    {:>12} {:>6} {:>7} {:>7} {:>11} {:>10} {:>15}",
            r.mode,
            r.views,
            r.levels,
            r.writes,
            format!("{:.1?}", r.refresh_total),
            r.refreshed,
            r.rematerialized,
        );
    }
    println!("\n  (the same churn sequence against the same composed catalog — the");
    println!("   connector and the summarizer maintained OVER it sit on two DAG levels;");
    println!("   `dag-parallel` fans level-0 views out across workers, `rematerialized`");
    println!("   stays 0 because the composed view always refreshes from its upstream)");

    println!("\n  tracing overhead: identical run with the span subsystem off / on / on+slowlog");
    println!(
        "    {:>10} {:>9} {:>10} {:>11} {:>7} {:>8} {:>6}",
        "tracer", "reads", "reads/s", "p50", "events", "dropped", "slow"
    );
    for r in serve_trace(
        d,
        SCALE,
        SEED,
        4,
        Duration::from_millis(400),
        Duration::from_millis(2),
    ) {
        println!(
            "    {:>10} {:>9} {:>10.0} {:>11} {:>7} {:>8} {:>6}",
            r.variant,
            r.reads,
            r.reads_per_sec,
            format!("{:.1?}", r.p50),
            r.events,
            r.dropped,
            r.slow_queries,
        );
    }
    println!("\n  (a disabled span site costs one relaxed atomic load; the CI overhead");
    println!("   gate fails the build if `--trace on` throughput regresses >10%)");
}

fn print_scale(dataset: Option<Dataset>, json: bool) {
    let d = dataset.unwrap_or(Dataset::Prov);
    let rows = serve_scale(
        d,
        SCALE,
        SEED,
        &[1, 2, 4, 8],
        4,
        Duration::from_millis(400),
        Duration::from_millis(2),
    );
    if json {
        for r in &rows {
            println!(
                "{{\"shards\":{},\"reads\":{},\"reads_per_sec\":{:.0},\"read_p50_ns\":{},\
                 \"read_p99_ns\":{},\"apply_p50_ns\":{},\"apply_p99_ns\":{},\"writes\":{},\
                 \"pool_dispatches\":{},\"final_consistent\":{}}}",
                r.shards,
                r.reads,
                r.reads_per_sec,
                r.read_p50.as_nanos(),
                r.read_p99.as_nanos(),
                r.apply_p50.as_nanos(),
                r.apply_p99.as_nanos(),
                r.writes,
                r.pool_dispatches,
                r.final_consistent,
            );
        }
        return;
    }
    header("SCALE: publish latency vs shard count (merged publish, persistent pool)");
    println!(
        "  {} — hotkey workload, 4 readers, writer every 2ms, per shard count",
        d.short_name()
    );
    println!(
        "    {:>7} {:>9} {:>10} {:>11} {:>11} {:>11} {:>11} {:>7} {:>10} {:>6}",
        "shards",
        "reads",
        "reads/s",
        "read p50",
        "read p99",
        "apply p50",
        "apply p99",
        "writes",
        "dispatches",
        "ok"
    );
    for r in &rows {
        println!(
            "    {:>7} {:>9} {:>10.0} {:>11} {:>11} {:>11} {:>11} {:>7} {:>10} {:>6}",
            r.shards,
            r.reads,
            r.reads_per_sec,
            format!("{:.1?}", r.read_p50),
            format!("{:.1?}", r.read_p99),
            format!("{:.1?}", r.apply_p50),
            format!("{:.1?}", r.apply_p99),
            r.writes,
            r.pool_dispatches,
            if r.final_consistent { "yes" } else { "NO" },
        );
    }
    println!("\n  (the publish path assembles the global CSR from the shard CSRs on the");
    println!("   persistent pool instead of re-running the whole apply serially. CI's");
    println!("   publish-scaling gate bounds the 8-shard mean publish latency at 1.3x");
    println!("   the 1-shard run on >=8-core runners)");
}

fn print_recovery(json: bool) {
    let rows = serve_recovery(SEED, 600, &[16, 64, 256]);
    let mut ok = true;
    if json {
        for r in &rows {
            println!(
                "{{\"checkpoint_every\":{},\"writes\":{},\"records_replayed\":{},\
                 \"checkpoint_bytes\":{},\"log_bytes\":{},\"replay_ns\":{},\"restart_ns\":{},\
                 \"state_matches\":{},\"within_budget\":{}}}",
                r.checkpoint_every,
                r.writes,
                r.records_replayed,
                r.checkpoint_bytes,
                r.log_bytes,
                r.replay_time.as_nanos(),
                r.restart_time.as_nanos(),
                r.state_matches,
                r.within_budget(),
            );
            ok &= r.state_matches && r.within_budget();
        }
    } else {
        header("RECOVERY: checkpoint + WAL-replay restart vs checkpoint cadence");
        println!("  tiny prov churn, 600 steps, WAL-backed engine per cadence");
        println!(
            "    {:>10} {:>7} {:>9} {:>10} {:>9} {:>11} {:>11} {:>8} {:>7}",
            "ckpt every",
            "writes",
            "replayed",
            "ckpt KiB",
            "log KiB",
            "replay",
            "restart",
            "matches",
            "budget"
        );
        for r in &rows {
            println!(
                "    {:>10} {:>7} {:>9} {:>10.1} {:>9.1} {:>11} {:>11} {:>8} {:>7}",
                r.checkpoint_every,
                r.writes,
                r.records_replayed,
                r.checkpoint_bytes as f64 / 1024.0,
                r.log_bytes as f64 / 1024.0,
                format!("{:.1?}", r.replay_time),
                format!("{:.1?}", r.restart_time),
                if r.state_matches { "yes" } else { "NO" },
                if r.within_budget() { "ok" } else { "OVER" },
            );
            ok &= r.state_matches && r.within_budget();
        }
        println!("\n  (recovery = newest checkpoint + log tail; the restart column adds the");
        println!("   engine spin-up and the fresh safety checkpoint, and CI's recovery gate");
        println!("   bounds it at 2x the raw checkpoint+replay budget)");
    }
    if !ok {
        eprintln!("recovery gate FAILED: a row diverged or blew the 2x restart budget");
        std::process::exit(1);
    }
}

fn print_adaptive(json: bool) {
    let rows = serve_adaptive(
        Dataset::Prov,
        SCALE,
        SEED,
        &[1, 4],
        4,
        Duration::from_millis(1_500),
        Duration::from_millis(40),
    );
    let mut ok = true;
    let gate = |r: &kaskade_bench::experiments::AdaptiveRow| {
        let base = r.consistency_violations == 0 && r.rematerialized == 0 && r.final_consistent;
        if r.policy == "adaptive" {
            base && r.migrations >= 1 && r.views_created >= 1
        } else {
            base && r.migrations == 0
        }
    };
    if json {
        for r in &rows {
            println!(
                "{{\"policy\":\"{}\",\"shards\":{},\"reads\":{},\"reads_per_sec\":{:.0},\
                 \"read_p50_ns\":{},\"ticks\":{},\"migrations\":{},\"views_created\":{},\
                 \"views_dropped\":{},\"cache_hit_rate\":{:.3},\"rematerialized\":{},\
                 \"consistency_violations\":{},\"final_consistent\":{}}}",
                r.policy,
                r.shards,
                r.reads,
                r.reads_per_sec,
                r.p50.as_nanos(),
                r.ticks,
                r.migrations,
                r.views_created,
                r.views_dropped,
                r.cache_hit_rate,
                r.rematerialized,
                r.consistency_violations,
                r.final_consistent,
            );
            ok &= gate(r);
        }
    } else {
        header("ADAPTIVE: self-driving view admission from an empty catalog (advisor off/on)");
        println!("  prov — hotkey workload, 4 readers, writer every 2ms, advisor every 40ms");
        println!(
            "    {:>9} {:>7} {:>9} {:>10} {:>11} {:>6} {:>11} {:>8} {:>8} {:>9} {:>6} {:>6}",
            "policy",
            "shards",
            "reads",
            "reads/s",
            "p50",
            "ticks",
            "migrations",
            "created",
            "dropped",
            "hit rate",
            "remat",
            "ok"
        );
        for r in &rows {
            println!(
                "    {:>9} {:>7} {:>9} {:>10.0} {:>11} {:>6} {:>11} {:>8} {:>8} {:>8.0}% {:>6} {:>6}",
                r.policy,
                r.shards,
                r.reads,
                r.reads_per_sec,
                format!("{:.1?}", r.p50),
                r.ticks,
                r.migrations,
                r.views_created,
                r.views_dropped,
                100.0 * r.cache_hit_rate,
                r.rematerialized,
                if r.consistency_violations == 0 && r.final_consistent {
                    "yes"
                } else {
                    "NO"
                },
            );
            ok &= gate(r);
        }
        println!("\n  (both runs start with an EMPTY catalog; every view the adaptive rows");
        println!("   end with arrived through advisor-issued live DDL mid-serve. The gate:");
        println!("   adaptive rows must migrate online with zero consistency violations");
        println!("   and zero re-materializations; static rows must never migrate)");
    }
    if !ok {
        eprintln!("adaptive gate FAILED: a run missed a migration, tore a read, or rebuilt");
        std::process::exit(1);
    }
}

fn print_enum() {
    header("SECTION IV: constraint-based vs procedural view enumeration");
    for k_max in [4, 6, 8, 10] {
        let a = enumeration_ablation(Dataset::Prov, k_max);
        println!(
            "  k_max={:<3} constrained: {:>3} candidates, {:>8} steps, {:>8.3} ms | procedural Alg.1: {:>8} schema paths, {:>8.3} ms",
            a.k_max,
            a.constrained_candidates,
            a.constrained_steps,
            a.constrained_secs * 1e3,
            a.procedural_paths,
            a.procedural_secs * 1e3,
        );
    }
    println!("\n  (the constrained candidate count stays flat while the procedural");
    println!("   schema-path space grows with k_max — the §IV pruning argument)");
}

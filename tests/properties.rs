//! Property-based tests on the system's core invariants, spanning
//! crates: rewrite equivalence on random lineage DAGs, knapsack
//! optimality against brute force, estimator upper bounds, CSR
//! structural invariants, and Prolog round-trips.

use proptest::prelude::*;

use kaskade::core::{
    cost::connector_size_estimate, knapsack, materialize, rewrite_over_connector, ConnectorDef,
    DdlOp, GraphDelta, Kaskade, KnapsackItem, Snapshot, VRef, ViewDef,
};
use kaskade::graph::{same_dense_graph, Graph, GraphBuilder, GraphStats, IdRemap, Schema, Value};
use kaskade::prolog::{parse_program, Term};
use kaskade::query::{execute, parse, Datum, Table};
use kaskade::service::{Engine, EngineConfig, ShardedConfig, ShardedEngine, SubmitOpts};

/// Strategy: a random layered job/file lineage DAG described as
/// (writes per job, reads wiring), with CPU properties.
fn lineage_graph(max_jobs: usize) -> impl Strategy<Value = Graph> {
    let jobs = 2..max_jobs;
    (jobs, any::<u64>()).prop_map(|(n_jobs, seed)| {
        // deterministic pseudo-random wiring from the seed, no rand dep
        let mut state = seed | 1;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        let mut b = GraphBuilder::new();
        let mut jobs = Vec::new();
        let mut files: Vec<kaskade::graph::VertexId> = Vec::new();
        for i in 0..n_jobs {
            let j = b.add_vertex("Job");
            b.set_vertex_prop(j, "CPU", Value::Int((i as i64 % 7) + 1));
            // unique stable identity: vertex ids are graph-local, so
            // cross-graph (raw vs view) comparisons go through props
            b.set_vertex_prop(j, "name", Value::Str(format!("job{i}")));
            b.set_vertex_prop(j, "pipelineName", Value::Str(format!("p{}", i % 3)));
            // read up to 2 files produced earlier
            for _ in 0..next(3) {
                if !files.is_empty() {
                    let f = files[next(files.len())];
                    b.add_edge(f, j, "IS_READ_BY");
                }
            }
            // write up to 2 fresh files
            for _ in 0..(1 + next(2)) {
                let f = b.add_vertex("File");
                b.add_edge(j, f, "WRITES_TO");
                files.push(f);
            }
            jobs.push(j);
        }
        b.finish()
    })
}

fn normalized(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// One random churn operation in the id space of `graph`: append (0),
/// edge retraction (1), cascading vertex retraction (2), or
/// delete-then-reinsert of one edge identity (3). The shared generator
/// of the compaction differential harnesses.
fn churn_op(graph: &Graph, op: u8, seed: u64) -> GraphDelta {
    let pick = |n: usize| (seed as usize) % n.max(1);
    let mut d = GraphDelta::new();
    match op {
        0 => {
            let files: Vec<_> = graph.vertices_of_type("File").collect();
            let j = d.add_vertex("Job", vec![("CPU".into(), Value::Int(3))]);
            if let Some(&f) = files.get(pick(files.len())) {
                d.add_edge(
                    VRef::Existing(f),
                    j,
                    "IS_READ_BY",
                    vec![("ts".into(), Value::Int(seed as i64 & 0xFF))],
                );
            }
        }
        1 => {
            let edges: Vec<_> = graph.edges().collect();
            if let Some(&e) = edges.get(pick(edges.len())) {
                d.del_edge(
                    VRef::Existing(graph.edge_src(e)),
                    VRef::Existing(graph.edge_dst(e)),
                    graph.edge_type(e),
                );
            }
        }
        2 => {
            let vertices: Vec<_> = graph.vertices().collect();
            if let Some(&v) = vertices.get(pick(vertices.len())) {
                d.del_vertex(v);
            }
        }
        _ => {
            let edges: Vec<_> = graph.edges().collect();
            if let Some(&e) = edges.get(pick(edges.len())) {
                let (s, t) = (graph.edge_src(e), graph.edge_dst(e));
                let ty = graph.edge_type(e).to_string();
                d.del_edge(VRef::Existing(s), VRef::Existing(t), &ty);
                d.add_edge(
                    VRef::Existing(s),
                    VRef::Existing(t),
                    &ty,
                    vec![("ts".into(), Value::Int(seed as i64 & 0xFF))],
                );
            }
        }
    }
    d
}

/// Canonical `(vertex count, sorted edges-with-provenance)` picture of
/// a view graph. View-local ids are positional over the live base
/// vertices, so compaction must leave them byte-identical.
type ViewPrint = (usize, Vec<(u32, u32, Option<i64>, Option<i64>)>);
fn view_fp(g: &Graph) -> ViewPrint {
    let mut v: Vec<_> = g
        .edges()
        .map(|e| {
            (
                g.edge_src(e).0,
                g.edge_dst(e).0,
                g.edge_prop(e, "ts").and_then(|p| p.as_int()),
                g.edge_prop(e, "support").and_then(|p| p.as_int()),
            )
        })
        .collect();
    v.sort();
    (g.vertex_count(), v)
}

/// Sorted rows with every `Datum::Vertex` translated through `remap` —
/// how the uncompacted oracle's answers are compared against the
/// compacted engine's.
fn rows_remapped(t: &Table, remap: &IdRemap) -> Vec<String> {
    let mut rows: Vec<String> = t
        .rows
        .iter()
        .map(|r| {
            let mapped: Vec<Datum> = r
                .iter()
                .map(|d| match d {
                    Datum::Vertex(v) => {
                        Datum::Vertex(remap.vertex(*v).expect("live result vertex survives"))
                    }
                    other => other.clone(),
                })
                .collect();
            format!("{mapped:?}")
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE paper-critical invariant: for any lineage DAG and any valid
    /// even-hop window, the blast-radius-style query over the raw graph
    /// equals its rewriting over the materialized 2-hop connector.
    #[test]
    fn rewrite_equivalence_on_random_lineage(g in lineage_graph(40), upper in 0usize..8) {
        let query_src = format!(
            "SELECT A.name, COUNT(*), SUM(B.CPU) FROM (
               MATCH (j1:Job)-[:WRITES_TO]->(f1:File)
                     (f1:File)-[r*0..{upper}]->(f2:File)
                     (f2:File)-[:IS_READ_BY]->(j2:Job)
               RETURN j1 AS A, j2 AS B
             ) GROUP BY A.name"
        );
        let query = parse(&query_src).unwrap();
        let raw = execute(&g, &query).unwrap();

        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let rewritten = rewrite_over_connector(
            &query, "j1", "j2", &def, &Schema::provenance(),
        ).expect("window [2, upper+2] is always coverable by k=2");
        let view = materialize(&g, &ViewDef::Connector(def.clone()));
        let viewed = execute(&view, &rewritten).unwrap();
        prop_assert_eq!(normalized(&raw), normalized(&viewed));
    }

    /// Branch-and-bound knapsack matches exhaustive search on small
    /// instances.
    #[test]
    fn knapsack_is_optimal(
        weights in proptest::collection::vec(0u64..30, 1..10),
        values in proptest::collection::vec(0u32..100, 1..10),
        capacity in 0u64..60,
    ) {
        let n = weights.len().min(values.len());
        let items: Vec<KnapsackItem> = (0..n)
            .map(|i| KnapsackItem { weight: weights[i], value: values[i] as f64 })
            .collect();
        let chosen = knapsack(&items, capacity);
        // feasibility
        let w: u64 = chosen.iter().map(|&i| items[i].weight).sum();
        prop_assert!(w <= capacity);
        let got: f64 = chosen.iter().map(|&i| items[i].value).sum();
        // brute force
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let (mut bw, mut bv) = (0u64, 0.0f64);
            for (i, item) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    bw += item.weight;
                    bv += item.value;
                }
            }
            if bw <= capacity && bv > best {
                best = bv;
            }
        }
        prop_assert!((got - best).abs() < 1e-9, "got {} expected {}", got, best);
    }

    /// Eq. (2)/(3) with α=100 upper-bounds the deduplicated connector
    /// size on arbitrary lineage graphs (§V-A's upper-bound claim).
    #[test]
    fn alpha_100_estimate_upper_bounds_actual(g in lineage_graph(30)) {
        let stats = GraphStats::compute(&g);
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let est = connector_size_estimate(&stats, &def, 100);
        let actual = materialize(&g, &ViewDef::Connector(def.clone())).edge_count() as f64;
        prop_assert!(est >= actual, "est={} actual={}", est, actual);
    }

    /// CSR invariants hold for any insertion order: every edge appears
    /// exactly once in out-adjacency and once in in-adjacency.
    #[test]
    fn csr_adjacency_is_a_bijection(
        n in 1usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30), 0..80),
    ) {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex("V");
        }
        let mut expected = 0;
        for (s, d) in &edges {
            if *s < n && *d < n {
                b.add_edge(
                    kaskade::graph::VertexId(*s as u32),
                    kaskade::graph::VertexId(*d as u32),
                    "E",
                );
                expected += 1;
            }
        }
        let g = b.finish();
        prop_assert_eq!(g.edge_count(), expected);
        let out_total: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_total: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_total, expected);
        prop_assert_eq!(in_total, expected);
        // adjacency agrees with edge endpoints
        for v in g.vertices() {
            for (e, w) in g.out_edges(v) {
                prop_assert_eq!(g.edge_src(e), v);
                prop_assert_eq!(g.edge_dst(e), w);
            }
        }
    }

    /// Prolog terms survive a display → parse round-trip (ground terms).
    #[test]
    fn prolog_ground_term_roundtrip(
        atoms in proptest::collection::vec("[a-z][a-z0-9_]{0,6}", 1..5),
        ints in proptest::collection::vec(-1000i64..1000, 1..5),
    ) {
        let args: Vec<Term> = atoms.iter().map(|a| Term::atom(a))
            .chain(ints.iter().map(|&i| Term::int(i)))
            .collect();
        let t = Term::compound("f", vec![Term::list(args.clone()), Term::compound("g", args)]);
        let src = format!("fact({t}).");
        let clauses = parse_program(&src).unwrap();
        prop_assert_eq!(clauses.len(), 1);
        let parsed = match &clauses[0].head {
            Term::Compound(_, a) => a[0].clone(),
            _ => unreachable!(),
        };
        prop_assert_eq!(parsed, t);
    }

    /// `edge_prefix(m)` always yields exactly `min(m, |E|)` edges and
    /// only vertices incident to them.
    #[test]
    fn edge_prefix_invariants(g in lineage_graph(30), m in 0usize..100) {
        let p = g.edge_prefix(m);
        prop_assert_eq!(p.edge_count(), m.min(g.edge_count()));
        // every vertex in the prefix is incident to some edge, unless
        // the prefix is the whole graph (then isolated vertices may
        // appear only if the original had none incident anyway)
        if p.edge_count() < g.edge_count() {
            for v in p.vertices() {
                prop_assert!(
                    p.out_degree(v) + p.in_degree(v) > 0,
                    "non-incident vertex in strict prefix"
                );
            }
        }
    }

    /// Schema::has_k_hop_walk agrees with explicit walk enumeration on
    /// small random schemas.
    #[test]
    fn schema_walk_dp_matches_enumeration(
        rules in proptest::collection::vec((0usize..4, 0usize..4), 1..8),
        k in 1usize..5,
    ) {
        let mut schema = Schema::new();
        let names = ["A", "B", "C", "D"];
        for t in names {
            schema.add_vertex_type(t);
        }
        for (s, d) in &rules {
            schema.add_edge_rule(names[*s], "E", names[*d]);
        }
        // explicit k-walk enumeration via adjacency powers (bool matrix)
        let mut reach = vec![[false; 4]; 4]; // walks of length exactly 1
        for (s, d) in &rules {
            reach[*s][*d] = true;
        }
        let step = reach.clone();
        for _ in 1..k {
            let mut next = vec![[false; 4]; 4];
            for a in 0..4 {
                for b in 0..4 {
                    if reach[a][b] {
                        for c in 0..4 {
                            if step[b][c] {
                                next[a][c] = true;
                            }
                        }
                    }
                }
            }
            reach = next;
        }
        for a in 0..4 {
            for b in 0..4 {
                prop_assert_eq!(
                    schema.has_k_hop_walk(names[a], names[b], k),
                    reach[a][b],
                    "{}->{} k={}", names[a], names[b], k
                );
            }
        }
    }

    /// Incremental statistics equal a from-scratch
    /// `GraphStats::compute` after ANY sequence of inserts, edge
    /// retractions, and vertex retractions — and the incrementally
    /// maintained connector view equals a from-scratch
    /// re-materialization at every step along the way.
    #[test]
    fn incremental_stats_and_views_survive_any_churn_sequence(
        g in lineage_graph(14),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..10),
    ) {
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        for (op, seed) in ops {
            let snap = k.snapshot();
            let graph = snap.graph();
            let pick = |n: usize| (seed as usize) % n.max(1);
            let mut d = GraphDelta::new();
            match op {
                // append: a new job reading an existing file
                0 => {
                    let files: Vec<_> = graph.vertices_of_type("File").collect();
                    let j = d.add_vertex("Job", vec![("CPU".into(), Value::Int(3))]);
                    if let Some(&f) = files.get(pick(files.len())) {
                        d.add_edge(VRef::Existing(f), j, "IS_READ_BY",
                                   vec![("ts".into(), Value::Int(seed as i64 & 0xFF))]);
                    }
                }
                // retract an arbitrary live edge by identity
                1 => {
                    let edges: Vec<_> = graph.edges().collect();
                    if let Some(&e) = edges.get(pick(edges.len())) {
                        d.del_edge(
                            VRef::Existing(graph.edge_src(e)),
                            VRef::Existing(graph.edge_dst(e)),
                            graph.edge_type(e),
                        );
                    }
                }
                // retract an arbitrary live vertex (cascades)
                2 => {
                    let vertices: Vec<_> = graph.vertices().collect();
                    if let Some(&v) = vertices.get(pick(vertices.len())) {
                        d.del_vertex(v);
                    }
                }
                // delete-then-reinsert the same edge identity
                _ => {
                    let edges: Vec<_> = graph.edges().collect();
                    if let Some(&e) = edges.get(pick(edges.len())) {
                        let (s, t) = (graph.edge_src(e), graph.edge_dst(e));
                        let ty = graph.edge_type(e).to_string();
                        d.del_edge(VRef::Existing(s), VRef::Existing(t), &ty);
                        d.add_edge(VRef::Existing(s), VRef::Existing(t), &ty,
                                   vec![("ts".into(), Value::Int(seed as i64 & 0xFF))]);
                    }
                }
            }
            if d.is_empty() {
                continue;
            }
            k.apply_delta(&d);
            // incremental stats are EXACTLY the full recompute
            prop_assert_eq!(k.stats(), &GraphStats::compute(k.graph()));
            // the maintained connector view equals a scratch rebuild
            let maintained = &k.catalog().get(&ViewDef::Connector(def.clone()).id()).unwrap().graph;
            let fresh = materialize(k.graph(), &ViewDef::Connector(def.clone()));
            let fp = |g: &Graph| {
                let mut v: Vec<_> = g.edges().map(|e| (
                    g.edge_src(e).0, g.edge_dst(e).0,
                    g.edge_prop(e, "ts").and_then(|p| p.as_int()),
                    g.edge_prop(e, "support").and_then(|p| p.as_int()),
                )).collect();
                v.sort();
                v
            };
            prop_assert_eq!(fp(maintained), fp(&fresh));
            prop_assert_eq!(maintained.vertex_count(), fresh.vertex_count());
        }
    }

    /// THE sharding acceptance property: for any schema-valid sequence
    /// of inserts, edge retractions, and vertex retractions, and any
    /// shard count in {1, 2, 3, 8}, the [`ShardedEngine`] is
    /// observationally identical to the unsharded [`Engine`] — every
    /// query result is byte-identical (vertex ids, aggregates, and row
    /// order included), every maintained view materializes to the same
    /// graph, and the merged per-shard statistics equal both the
    /// single engine's incremental statistics and an exact
    /// `GraphStats::compute`.
    #[test]
    fn sharded_engine_is_observationally_identical(
        g in lineage_graph(12),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..8),
        shard_sel in 0usize..4,
    ) {
        let shards = [1usize, 2, 3, 8][shard_sel];
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let single = Engine::from_kaskade(&k);
        let sharded = ShardedEngine::with_config(
            k.snapshot(),
            kaskade::service::ShardedConfig {
                scatter_min_vertices: 0, // always exercise scatter/gather
                ..kaskade::service::ShardedConfig::hash(shards)
            },
        );

        for (op, seed) in ops {
            let snap = single.snapshot();
            let graph = snap.state.graph();
            let pick = |n: usize| (seed as usize) % n.max(1);
            let mut d = GraphDelta::new();
            match op {
                // append: a new job reading an existing file, writing a
                // new file (a cross-shard chain under any partitioner)
                0 => {
                    let files: Vec<_> = graph.vertices_of_type("File").collect();
                    let j = d.add_vertex("Job", vec![("CPU".into(), Value::Int(3))]);
                    if let Some(&f) = files.get(pick(files.len())) {
                        d.add_edge(VRef::Existing(f), j, "IS_READ_BY",
                                   vec![("ts".into(), Value::Int(seed as i64 & 0xFF))]);
                    }
                    let nf = d.add_vertex("File", vec![]);
                    d.add_edge(j, nf, "WRITES_TO", vec![("ts".into(), Value::Int(7))]);
                }
                // retract an arbitrary live edge by identity
                1 => {
                    let edges: Vec<_> = graph.edges().collect();
                    if let Some(&e) = edges.get(pick(edges.len())) {
                        d.del_edge(
                            VRef::Existing(graph.edge_src(e)),
                            VRef::Existing(graph.edge_dst(e)),
                            graph.edge_type(e),
                        );
                    }
                }
                // retract an arbitrary live vertex (cascades on every
                // shard holding incident edges)
                2 => {
                    let vertices: Vec<_> = graph.vertices().collect();
                    if let Some(&v) = vertices.get(pick(vertices.len())) {
                        d.del_vertex(v);
                    }
                }
                // delete-then-reinsert the same edge identity
                _ => {
                    let edges: Vec<_> = graph.edges().collect();
                    if let Some(&e) = edges.get(pick(edges.len())) {
                        let (s, t) = (graph.edge_src(e), graph.edge_dst(e));
                        let ty = graph.edge_type(e).to_string();
                        d.del_edge(VRef::Existing(s), VRef::Existing(t), &ty);
                        d.add_edge(VRef::Existing(s), VRef::Existing(t), &ty,
                                   vec![("ts".into(), Value::Int(seed as i64 & 0xFF))]);
                    }
                }
            }
            if d.is_empty() {
                continue;
            }
            single.submit(d.clone(), SubmitOpts::default()).unwrap();
            sharded.submit(d, SubmitOpts::default()).unwrap();
            single.flush();
            sharded.flush();
        }

        let single_snap = single.snapshot();
        let sharded_snap = sharded.snapshot();
        prop_assert!(sharded_snap.is_coherent(), "torn sharded snapshot");

        // every query result is byte-identical (scatter/gather included)
        for q in [
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             (f:File)-[:IS_READ_BY]->(b:Job) RETURN a AS A, b AS B)",
            "MATCH (x:File)-[r*0..4]->(y:File) RETURN x, y",
            "SELECT A.name, COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             RETURN a AS A, f AS F) GROUP BY A.name",
            "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) \
             (b:Job)-[:WRITES_TO]->(g:File) RETURN a, g",
        ] {
            let query = parse(q).unwrap();
            let a = single.execute(&query).unwrap();
            let b = sharded.execute(&query).unwrap();
            prop_assert_eq!(a, b, "query diverged over {} shards: {}", shards, q);
        }

        // every maintained view materializes identically
        let fp = |g: &Graph| {
            let mut v: Vec<_> = g.edges().map(|e| (
                g.edge_src(e).0, g.edge_dst(e).0,
                g.edge_prop(e, "ts").and_then(|p| p.as_int()),
                g.edge_prop(e, "support").and_then(|p| p.as_int()),
            )).collect();
            v.sort();
            (g.vertex_count(), v)
        };
        prop_assert_eq!(
            single_snap.state.catalog().len(),
            sharded_snap.state.catalog().len()
        );
        for view in single_snap.state.catalog().iter() {
            let other = sharded_snap.state.catalog().get(&view.def.id())
                .expect("view present on the sharded engine");
            prop_assert_eq!(fp(&view.graph), fp(&other.graph), "view {} diverged", view.def.id());
        }

        // merged per-shard statistics equal the single engine's
        // incremental statistics, and both equal an exact recompute
        prop_assert_eq!(single_snap.state.stats(), sharded_snap.state.stats());
        prop_assert_eq!(
            sharded_snap.state.stats(),
            &GraphStats::compute(sharded_snap.state.graph())
        );
    }

    /// THE merged-publish acceptance property: a partitioned engine
    /// does not re-run `apply_delta` over the global graph — it stages
    /// the batch's mutations and assembles the published CSR from the
    /// shard CSRs in parallel. For any schema-valid churn sequence and
    /// any shard count in {1, 2, 3, 8}, the graph published after
    /// **every** batch must be structurally identical to the serial
    /// `apply_delta` result the unsharded engine publishes: same id
    /// slots, same liveness/ghost/type per slot, same properties, same
    /// adjacency arrays in the same order (`same_dense_graph` is the
    /// field-by-field oracle).
    #[test]
    fn merged_publish_is_identical_to_serial_apply(
        g in lineage_graph(12),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..10),
        shard_sel in 0usize..4,
    ) {
        let shards = [1usize, 2, 3, 8][shard_sel];
        let mut k = Kaskade::new(g, Schema::provenance());
        // a maintained view keeps the pool-backed refresh path in the
        // loop while the merge runs
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let single = Engine::from_kaskade(&k);
        let sharded = ShardedEngine::with_config(
            k.snapshot(),
            kaskade::service::ShardedConfig {
                scatter_min_vertices: 0,
                ..kaskade::service::ShardedConfig::hash(shards)
            },
        );

        for (op, seed) in ops {
            let snap = single.snapshot();
            let d = churn_op(snap.state.graph(), op, seed);
            if d.is_empty() {
                continue;
            }
            single.submit(d.clone(), SubmitOpts::default()).unwrap();
            sharded.submit(d, SubmitOpts::default()).unwrap();
            single.flush();
            sharded.flush();
            // compare after every single publish, not just the last:
            // a merge bug that a later batch happens to paper over
            // (e.g. via tombstones) must still be caught
            let a = single.snapshot();
            let b = sharded.snapshot();
            if let Err(why) = same_dense_graph(a.state.graph(), b.state.graph()) {
                prop_assert!(
                    false,
                    "merged publish diverged from serial apply over {} shards: {}",
                    shards,
                    why
                );
            }
        }
    }

    /// THE refresh-DAG acceptance property: for any schema-valid
    /// insert/delete sequence and any shard count in {1, 4}, a catalog
    /// forming a DAG of composed views — a connector, a summarizer
    /// maintained *over* that connector, a vertex aggregator, and a
    /// source-sink contraction — stays purely incremental: every view
    /// in the final snapshot equals a from-scratch materialization
    /// over the same base graph, statistics equal an exact recompute
    /// (both via the `snapshot_is_consistent` oracle), engines agree
    /// byte-identically on queries, and neither write path ever fell
    /// back to a full re-materialization of the composed view.
    #[test]
    fn composed_view_dag_refresh_matches_scratch(
        g in lineage_graph(12),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..10),
        shard_sel in 0usize..2,
    ) {
        use kaskade::core::{AggOp, ComposedDef, PropPredicate, SourceSinkDef, SummarizerDef};
        let shards = [1usize, 4][shard_sel];
        let mut k = Kaskade::new(g, Schema::provenance());
        let connector = ConnectorDef::k_hop("Job", "Job", 2);
        k.materialize_view(ViewDef::Connector(connector.clone()));
        k.materialize_view(ViewDef::Composed(ComposedDef {
            connector,
            summarizer: SummarizerDef::EdgePredicate {
                keep: PropPredicate::IntAtLeast("support".into(), 2),
            },
        }));
        k.materialize_view(ViewDef::Summarizer(SummarizerDef::VertexAggregator {
            vtype: "Job".into(),
            group_prop: "pipelineName".into(),
            agg_prop: "CPU".into(),
            agg: AggOp::Sum,
        }));
        k.materialize_view(ViewDef::SourceSink(SourceSinkDef::default()));

        let single = Engine::from_kaskade(&k);
        let sharded = ShardedEngine::with_config(
            k.snapshot(),
            ShardedConfig {
                scatter_min_vertices: 0,
                ..ShardedConfig::hash(shards)
            },
        );
        for (op, seed) in ops {
            let snap = single.snapshot();
            let d = churn_op(snap.state.graph(), op, seed);
            if d.is_empty() {
                continue;
            }
            single.submit(d.clone(), SubmitOpts::based_on(snap.epoch)).unwrap();
            sharded.submit(d, SubmitOpts::default()).unwrap();
            single.flush();
            sharded.flush();
        }

        let single_snap = single.snapshot();
        let sharded_snap = sharded.snapshot();
        prop_assert!(sharded_snap.is_coherent(), "torn sharded snapshot");
        // every view of every variant equals scratch, stats exact
        prop_assert!(kaskade::service::snapshot_is_consistent(&single_snap.state));
        prop_assert!(kaskade::service::snapshot_is_consistent(&sharded_snap.state));
        // the refresh DAG never lost the upstream context: zero full
        // re-materializations of the composed view on either path
        let m1 = single.metrics();
        let mn = sharded.metrics().global;
        prop_assert_eq!(m1.views_rematerialized, 0);
        prop_assert_eq!(mn.views_rematerialized, 0);
        if m1.deltas_applied > 0 {
            prop_assert!(m1.views_refreshed > 0, "DAG refresh never ran: {:?}", m1);
        }
        // and the engines agree on query results
        for q in [
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             (f:File)-[:IS_READ_BY]->(b:Job) RETURN a AS A, b AS B)",
            "SELECT A.name, COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             RETURN a AS A, f AS F) GROUP BY A.name",
        ] {
            let query = parse(q).unwrap();
            let a = single.execute(&query).unwrap();
            let b = sharded.execute(&query).unwrap();
            prop_assert_eq!(a, b, "query diverged over {} shards: {}", shards, q);
        }
    }

    /// THE compaction acceptance property (unsharded half): for any
    /// insert/delete sequence, compacting and then replaying deltas
    /// that were built in the *pre-compaction* id space (rebased with
    /// `GraphDelta::remap`, exactly like the engine rebases queued
    /// deltas behind its epoch fence) yields query results, maintained
    /// views, and statistics identical to never compacting at all —
    /// aggregates byte-for-byte, vertex bindings modulo the remap.
    #[test]
    fn compact_then_replay_matches_uncompacted(
        g in lineage_graph(14),
        pre in proptest::collection::vec((0u8..4, any::<u64>()), 1..8),
        post in proptest::collection::vec((0u8..4, any::<u64>()), 1..8),
    ) {
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let mut uncompacted: Snapshot = k.snapshot();
        // phase 1: random churn accumulates tombstones
        for (op, seed) in pre {
            let d = churn_op(uncompacted.graph(), op, seed);
            if !d.is_empty() {
                uncompacted = uncompacted.with_delta(&d);
            }
        }

        let (mut compacted, remap) = uncompacted.compact();
        prop_assert_eq!(remap.reclaimed(),
                        uncompacted.graph().vertex_slots() - compacted.graph().vertex_slots());
        // GraphStats stay exactly equal under compaction
        prop_assert_eq!(compacted.stats(), uncompacted.stats());
        prop_assert_eq!(compacted.stats(), &GraphStats::compute(compacted.graph()));
        // carried-over views are byte-identical (positional ids)
        for view in uncompacted.catalog().iter() {
            let other = compacted.catalog().get(&view.def.id()).unwrap();
            prop_assert_eq!(view_fp(&view.graph), view_fp(&other.graph));
        }

        // phase 2: replay deltas built against the UNCOMPACTED state —
        // the "queued before the fence" scenario — rebased via remap
        let count_q = parse(
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             (f:File)-[:IS_READ_BY]->(b:Job) RETURN a AS A, b AS B)").unwrap();
        let group_q = parse(
            "SELECT A.name, COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             RETURN a AS A, f AS F) GROUP BY A.name").unwrap();
        let vertex_q = parse("MATCH (x:File)-[r*0..4]->(y:File) RETURN x, y").unwrap();
        for (op, seed) in post {
            let d = churn_op(uncompacted.graph(), op, seed);
            if d.is_empty() {
                continue;
            }
            let mut rebased = d.clone();
            rebased.remap(&remap);
            uncompacted = uncompacted.with_delta(&d);
            compacted = compacted.with_delta(&rebased);

            prop_assert_eq!(compacted.stats(), uncompacted.stats());
            prop_assert_eq!(compacted.stats(), &GraphStats::compute(compacted.graph()));
            for view in uncompacted.catalog().iter() {
                let other = compacted.catalog().get(&view.def.id()).unwrap();
                prop_assert_eq!(view_fp(&view.graph), view_fp(&other.graph));
            }
            // aggregate and projection answers are byte-identical
            prop_assert_eq!(
                normalized(&uncompacted.execute(&count_q).unwrap()),
                normalized(&compacted.execute(&count_q).unwrap())
            );
            prop_assert_eq!(
                normalized(&uncompacted.execute(&group_q).unwrap()),
                normalized(&compacted.execute(&group_q).unwrap())
            );
            // vertex bindings agree modulo the id renumbering
            prop_assert_eq!(
                rows_remapped(&execute(uncompacted.graph(), &vertex_q).unwrap(), &remap),
                normalized(&execute(compacted.graph(), &vertex_q).unwrap())
            );
        }
    }

    /// THE compaction acceptance property (sharded half): under
    /// delete/reinsert turnover aggressive enough to force several
    /// compactions, a compacting `ShardedEngine` (shard counts {1, 4},
    /// coordinated per-shard ghost compaction) stays byte-identical to
    /// the compacting single `Engine` — query results including vertex
    /// ids and row order, maintained views, merged statistics — and
    /// both pass the absolute from-scratch oracle after every flush
    /// window.
    #[test]
    fn compacting_engines_stay_observationally_identical(
        g in lineage_graph(12),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..8),
        shard_sel in 0usize..2,
    ) {
        let shards = [1usize, 4][shard_sel];
        let mut k = Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let single = Engine::with_config(
            k.snapshot(),
            EngineConfig { compact_dead_ratio: 0.05, ..EngineConfig::default() },
        );
        let sharded = ShardedEngine::with_config(
            k.snapshot(),
            ShardedConfig {
                scatter_min_vertices: 0, // always exercise scatter/gather
                compact_dead_ratio: 0.05,
                ..ShardedConfig::hash(shards)
            },
        );

        // scripted turnover: delete-then-reinsert one edge identity per
        // round at constant live size — the dead-slot accumulation that
        // guarantees both engines cross the compaction threshold
        for round in 0..30u64 {
            let snap = single.snapshot();
            let graph = snap.state.graph();
            let Some(e) = graph.edges().next() else { break };
            let (s, t) = (graph.edge_src(e), graph.edge_dst(e));
            let ty = graph.edge_type(e).to_string();
            let mut d = GraphDelta::new();
            d.del_edge(VRef::Existing(s), VRef::Existing(t), &ty);
            d.add_edge(VRef::Existing(s), VRef::Existing(t), &ty,
                       vec![("ts".into(), Value::Int(round as i64))]);
            single.submit(d.clone(), SubmitOpts::based_on(snap.epoch)).unwrap();
            sharded.submit(d, SubmitOpts::default()).unwrap();
            single.flush();
            sharded.flush();
        }
        // plus random churn on top, derived from the live id space
        for (op, seed) in ops {
            let snap = single.snapshot();
            let d = churn_op(snap.state.graph(), op, seed);
            if d.is_empty() {
                continue;
            }
            single.submit(d.clone(), SubmitOpts::based_on(snap.epoch)).unwrap();
            sharded.submit(d, SubmitOpts::default()).unwrap();
            single.flush();
            sharded.flush();
        }

        // the turnover actually forced the fence, identically
        let single_report = single.metrics();
        let sharded_report = sharded.metrics();
        prop_assert!(single_report.compactions_run >= 1, "{:?}", single_report);
        prop_assert_eq!(
            single_report.compactions_run,
            sharded_report.global.compactions_run,
            "engines compacted at different points"
        );
        prop_assert!(single_report.slots_reclaimed > 0);

        let single_snap = single.snapshot();
        let sharded_snap = sharded.snapshot();
        prop_assert!(sharded_snap.is_coherent(), "torn sharded snapshot");
        prop_assert!(kaskade::service::snapshot_is_consistent(&single_snap.state));
        prop_assert!(kaskade::service::snapshot_is_consistent(&sharded_snap.state));

        // byte-identical queries (vertex ids and row order included)
        for q in [
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             (f:File)-[:IS_READ_BY]->(b:Job) RETURN a AS A, b AS B)",
            "MATCH (x:File)-[r*0..4]->(y:File) RETURN x, y",
            "SELECT A.name, COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             RETURN a AS A, f AS F) GROUP BY A.name",
        ] {
            let query = parse(q).unwrap();
            prop_assert_eq!(
                single.execute(&query).unwrap(),
                sharded.execute(&query).unwrap(),
                "query diverged over {} shards after compaction: {}", shards, q
            );
        }
        // views and stats
        for view in single_snap.state.catalog().iter() {
            let other = sharded_snap.state.catalog().get(&view.def.id())
                .expect("view present on the sharded engine");
            prop_assert_eq!(view_fp(&view.graph), view_fp(&other.graph));
        }
        prop_assert_eq!(single_snap.state.stats(), sharded_snap.state.stats());
        // the leak is actually fixed: capacity bounded relative to live
        let g = single_snap.state.graph();
        let live = g.vertex_count() + g.edge_count();
        let capacity = g.vertex_slots() + g.edge_slots();
        prop_assert!(capacity <= 2 * live + 64,
                     "capacity {} not bounded vs live {}", capacity, live);
    }

    /// THE live-DDL acceptance property: for any interleaving of churn
    /// deltas with mid-stream `CreateView`/`DropView` DDL, a live
    /// engine converges to exactly the state of an engine constructed
    /// with the **final** catalog from the start and fed only the
    /// deltas — the base graph is structurally identical slot for slot
    /// (`same_dense_graph`), every surviving view's content is
    /// byte-identical per definition id (slot numbering aside: the
    /// live engine's tombstones shift its `ViewId`s), and query
    /// answers agree byte for byte. Holds on the single engine and on
    /// a 4-shard coordinator driven by the identical op stream.
    #[test]
    fn ddl_interleave_matches_static_final_catalog(
        g in lineage_graph(12),
        ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..10),
    ) {
        let mut k = Kaskade::new(g.clone(), Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let single = Engine::from_kaskade(&k);
        let sharded = ShardedEngine::with_config(
            k.snapshot(),
            ShardedConfig {
                scatter_min_vertices: 0, // always exercise scatter/gather
                ..ShardedConfig::hash(4)
            },
        );
        let candidates = [
            ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)),
            ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 4)),
        ];

        // identical op stream to both live engines; deltas alone are
        // recorded for the static oracle's replay
        let mut deltas: Vec<GraphDelta> = Vec::new();
        for (op, seed) in ops {
            let snap = single.snapshot();
            match op {
                4 => {
                    let def = candidates[(seed as usize) % candidates.len()].clone();
                    prop_assert!(single.submit_ddl(DdlOp::CreateView(def.clone())));
                    prop_assert!(sharded.submit_ddl(DdlOp::CreateView(def)));
                }
                5 => {
                    // drop a live slot if any (ViewIds agree: both
                    // engines processed the same catalog history)
                    let live: Vec<_> = snap.state.catalog()
                        .iter_with_ids().map(|(id, _)| id).collect();
                    let Some(&target) = live.get((seed as usize) % live.len().max(1))
                        else { continue };
                    prop_assert!(single.submit_ddl(DdlOp::DropView(target)));
                    prop_assert!(sharded.submit_ddl(DdlOp::DropView(target)));
                }
                _ => {
                    let d = churn_op(snap.state.graph(), op, seed);
                    if d.is_empty() {
                        continue;
                    }
                    deltas.push(d.clone());
                    single.submit(d.clone(), SubmitOpts::default()).unwrap();
                    sharded.submit(d, SubmitOpts::default()).unwrap();
                }
            }
            single.flush();
            sharded.flush();
        }

        // static oracle: the final catalog from construction time, fed
        // only the deltas
        let final_snap = single.snapshot();
        let mut oracle = Kaskade::new(g, Schema::provenance());
        for view in final_snap.state.catalog().iter() {
            oracle.materialize_view(view.def.clone());
        }
        let oracle = Engine::from_kaskade(&oracle);
        for d in deltas {
            oracle.submit(d, SubmitOpts::default()).unwrap();
            // same batch boundaries as the live run: batch merging
            // cancels insert-then-delete pairs, which changes slot
            // allocation — a real divergence, not the one under test
            oracle.flush();
        }
        let oracle_snap = oracle.snapshot();

        let sharded_snap = sharded.snapshot();
        prop_assert!(sharded_snap.is_coherent(), "torn sharded snapshot");
        for snap in [&final_snap.state, &sharded_snap.state] {
            // base graphs identical slot for slot
            if let Err(why) = same_dense_graph(oracle_snap.state.graph(), snap.graph()) {
                prop_assert!(false, "DDL interleave diverged from static catalog: {}", why);
            }
            // per-definition view contents byte-identical
            prop_assert_eq!(snap.catalog().len(), oracle_snap.state.catalog().len());
            for view in oracle_snap.state.catalog().iter() {
                let live = snap.catalog().get(&view.def.id())
                    .expect("surviving view present on the live engine");
                prop_assert_eq!(view_fp(&view.graph), view_fp(&live.graph));
            }
            prop_assert!(kaskade::service::snapshot_is_consistent(snap));
        }
        // query answers byte-identical across all three
        for q in [
            "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             (f:File)-[:IS_READ_BY]->(b:Job) RETURN a AS A, b AS B)",
            "SELECT A.name, COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) \
             RETURN a AS A, f AS F) GROUP BY A.name",
        ] {
            let query = parse(q).unwrap();
            let expected = oracle.execute(&query).unwrap();
            prop_assert_eq!(&single.execute(&query).unwrap(), &expected, "single: {}", q);
            prop_assert_eq!(&sharded.execute(&query).unwrap(), &expected, "4-shard: {}", q);
        }
    }

    /// Variable-length reachability is monotone in the hop bound.
    #[test]
    fn var_length_monotone_in_upper_bound(g in lineage_graph(30), hi in 1usize..6) {
        let q_small = parse(&format!(
            "MATCH (a:Job)-[e*1..{hi}]->(b) RETURN a, b"
        )).unwrap();
        let q_big = parse(&format!(
            "MATCH (a:Job)-[e*1..{}]->(b) RETURN a, b", hi + 1
        )).unwrap();
        let small = execute(&g, &q_small).unwrap().len();
        let big = execute(&g, &q_big).unwrap().len();
        prop_assert!(big >= small);
    }
}

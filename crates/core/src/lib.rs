//! # kaskade-core
//!
//! The Kaskade graph query optimization framework (ICDE 2020): graph
//! views, constraint-based view enumeration, a view cost model,
//! knapsack view selection, and view-based query rewriting.
//!
//! The [`Kaskade`] struct wires the components of the paper's Fig. 2
//! together: it owns the raw graph, its schema and statistics, and a
//! catalog of materialized views. The two headline operations are
//! [`Kaskade::select_and_materialize`] (workload analyzer + view
//! enumerator + knapsack selector + materializer, §V-B) and
//! [`Kaskade::execute`] (query rewriter + execution engine, §V-C):
//!
//! ```
//! use kaskade_core::{Kaskade, SelectionConfig};
//! use kaskade_datasets::{generate_provenance, ProvenanceConfig};
//! use kaskade_graph::Schema;
//! use kaskade_query::{listings::LISTING_1, parse};
//!
//! let g = generate_provenance(&ProvenanceConfig::tiny(7).core_only());
//! let mut kaskade = Kaskade::new(g, Schema::provenance());
//!
//! let workload = vec![parse(LISTING_1).unwrap()];
//! let report = kaskade.select_and_materialize(&workload, &SelectionConfig::default());
//! assert!(!report.materialized.is_empty());
//!
//! // the same query now automatically runs over the connector view
//! let planned = kaskade.plan(&workload[0]).unwrap();
//! assert!(planned.view_id.is_some());
//! let table = kaskade.execute(&workload[0]).unwrap();
//! assert!(!table.is_empty());
//! ```

#![warn(missing_docs)]

mod catalog;
pub mod cost;
mod enumerate;
mod facts;
pub mod maintain;
mod materialize;
mod memo;
pub mod persist;
mod refresh;
mod rewrite;
mod rules;
mod selection;
mod snapshot;
mod views;

pub use catalog::{Catalog, DdlOp, MaterializedView, ViewId};
pub use enumerate::{enumerate_views, procedural, Candidate, Enumeration};
pub use facts::{
    assert_pattern_facts, assert_query_facts, assert_schema_facts, base_database, database_for,
};
pub use maintain::{
    apply_delta, stat_changes, AppliedDelta, DelEdge, DeltaError, GraphDelta, NewEdge, NewVertex,
    VRef,
};
pub use materialize::materialize;
pub use memo::EnumerationMemo;
pub use refresh::{
    ComposedMaintainer, ConnectorMaintainer, Partition, RefreshCtx, RefreshDag, RefreshOptions,
    RefreshReport, Refreshed, SourceSinkMaintainer, SummarizerMaintainer, Upstream, ViewDelta,
    ViewMaintainer, ViewRefreshStat,
};
pub use rewrite::{connector_hop_window, find_chain, rewrite_over_connector, Chain};
pub use rules::{
    CONNECTOR_TEMPLATES, FACT_PREDICATES, QUERY_MINING_RULES, SCHEMA_MINING_RULES,
    SUMMARIZER_TEMPLATES,
};
pub use selection::{
    knapsack, select_views, KnapsackItem, ScoredView, SelectionConfig, SelectionResult,
};
pub use snapshot::Snapshot;
pub use views::{
    AggOp, ComposedDef, ConnectorDef, PropPredicate, SourceSinkDef, SummarizerDef, ViewDef,
};

use std::sync::Arc;

use kaskade_graph::{Graph, GraphStats, Schema};
use kaskade_query::{ExecError, Query, Table};

/// A planned query: where it will run and at what estimated cost.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The (possibly rewritten) query.
    pub query: Query,
    /// The typed handle of the catalog view it runs on (`None` = raw
    /// graph). Resolve to the view (or its display name) with
    /// [`Catalog::get_by_id`].
    pub view_id: Option<ViewId>,
    /// Estimated evaluation cost under the cost model.
    pub estimated_cost: f64,
}

/// Report of a [`Kaskade::select_and_materialize`] run.
#[derive(Debug, Clone)]
pub struct SelectionReport {
    /// Scores of every candidate (selected ones flagged).
    pub scored: Vec<ScoredView>,
    /// Ids of the views actually materialized.
    pub materialized: Vec<String>,
}

/// The Kaskade framework instance (Fig. 2).
///
/// `Kaskade` owns a read-only [`Snapshot`] (graph, schema, statistics,
/// and view catalog, with all the read ops) and layers the `&mut`
/// operations on top: [`Kaskade::materialize_view`],
/// [`Kaskade::select_and_materialize`], and [`Kaskade::apply_delta`].
/// Callers that only read can take a cheap [`Kaskade::snapshot`] and
/// drop the borrow — the basis of the `kaskade-service` serving runtime.
#[derive(Debug, Clone)]
pub struct Kaskade {
    snap: Snapshot,
}

impl Kaskade {
    /// Wraps a graph and its schema; computes the degree statistics the
    /// cost model maintains (§V-A "graph data properties").
    pub fn new(graph: Graph, schema: Schema) -> Self {
        Kaskade {
            snap: Snapshot::new(graph, schema),
        }
    }

    /// Wraps an existing snapshot (e.g. one produced by
    /// [`Snapshot::with_delta`]) back into a mutable instance.
    pub fn from_snapshot(snap: Snapshot) -> Self {
        Kaskade { snap }
    }

    /// A cheap, immutable copy of the current state. O(#views): the
    /// underlying graphs are shared, not duplicated.
    pub fn snapshot(&self) -> Snapshot {
        self.snap.clone()
    }

    /// The raw graph.
    pub fn graph(&self) -> &Graph {
        self.snap.graph()
    }

    /// The graph schema.
    pub fn schema(&self) -> &Schema {
        self.snap.schema()
    }

    /// Raw-graph statistics.
    pub fn stats(&self) -> &GraphStats {
        self.snap.stats()
    }

    /// The materialized-view catalog.
    pub fn catalog(&self) -> &Catalog {
        self.snap.catalog()
    }

    /// Enumerates view candidates for one query (§IV), memoized per
    /// pattern; see [`Snapshot::enumerate`].
    pub fn enumerate(
        &self,
        query: &Query,
    ) -> Result<Arc<Enumeration>, kaskade_prolog::PrologError> {
        self.snap.enumerate(query)
    }

    /// Materializes a view directly (bypassing selection) and registers
    /// it in the catalog. Returns its catalog id.
    pub fn materialize_view(&mut self, def: ViewDef) -> String {
        let graph = materialize(&self.snap.graph, &def);
        let id = def.id();
        self.snap.catalog.add(MaterializedView::new(def, graph));
        id
    }

    /// §V-B: enumerate candidates for the workload, score them, solve
    /// the knapsack under the budget, and materialize the winners.
    pub fn select_and_materialize(
        &mut self,
        workload: &[Query],
        cfg: &SelectionConfig,
    ) -> SelectionReport {
        let result = self.snap.select_views(workload, cfg);
        let mut materialized = Vec::new();
        for def in result.chosen() {
            materialized.push(self.materialize_view(def.clone()));
        }
        SelectionReport {
            scored: result.scored,
            materialized,
        }
    }

    /// §V-C view-based query rewriting; see [`Snapshot::plan`].
    pub fn plan(&self, query: &Query) -> Result<PlannedQuery, kaskade_prolog::PrologError> {
        self.snap.plan(query)
    }

    /// Applies a [`GraphDelta`] — insertions and retractions — to the
    /// base graph and refreshes every materialized view delta-
    /// incrementally through the [`RefreshDag`] (each view's
    /// [`ViewMaintainer`] touches only what the delta affects; see
    /// [`refresh`](crate::ViewMaintainer)). Statistics update
    /// incrementally.
    pub fn apply_delta(&mut self, delta: &GraphDelta) {
        self.snap = self.snap.with_delta(delta);
    }

    /// Plans and executes a query, automatically routing it to the best
    /// materialized view (or the raw graph); see [`Snapshot::execute`].
    pub fn execute(&self, query: &Query) -> Result<Table, KaskadeError> {
        self.snap.execute(query)
    }
}

/// Errors surfaced by the framework facade.
#[derive(Debug)]
pub enum KaskadeError {
    /// View enumeration failed in the inference engine.
    Inference(kaskade_prolog::PrologError),
    /// Query execution failed.
    Execution(ExecError),
    /// A plan referenced a view id that is not in the catalog (e.g. a
    /// cached plan executed against a snapshot that dropped the view).
    UnknownView(ViewId),
}

impl std::fmt::Display for KaskadeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KaskadeError::Inference(e) => write!(f, "inference error: {e}"),
            KaskadeError::Execution(e) => write!(f, "execution error: {e}"),
            KaskadeError::UnknownView(id) => write!(f, "unknown view in plan: {id}"),
        }
    }
}

impl std::error::Error for KaskadeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_query::{listings::LISTING_1, parse};

    fn instance(seed: u64) -> Kaskade {
        let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
        Kaskade::new(g, Schema::provenance())
    }

    #[test]
    fn plan_falls_back_to_raw_graph_without_views() {
        let k = instance(1);
        let q = parse(LISTING_1).unwrap();
        let p = k.plan(&q).unwrap();
        assert!(p.view_id.is_none());
        assert_eq!(p.query, q);
    }

    #[test]
    fn plan_uses_materialized_connector() {
        let mut k = instance(2);
        let q = parse(LISTING_1).unwrap();
        let id = k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let p = k.plan(&q).unwrap();
        let (vid, view) = k.catalog().lookup(&id).unwrap();
        assert_eq!(p.view_id, Some(vid));
        assert_eq!(view.def.id(), id);
        assert_eq!(p.query.pattern().unwrap().edges.len(), 1);
    }

    #[test]
    fn execute_equivalence_raw_vs_view() {
        // THE core correctness property: the rewritten query over the
        // materialized connector returns the same table as the raw query.
        let mut k = instance(3);
        let q = parse(LISTING_1).unwrap();
        let raw = k.execute(&q).unwrap();
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let viewed = k.execute(&q).unwrap();
        // same groups, same aggregates (order may differ)
        let norm = |t: &Table| {
            let mut rows: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(norm(&raw), norm(&viewed));
        assert!(!raw.is_empty());
    }

    #[test]
    fn select_and_materialize_end_to_end() {
        let mut k = instance(4);
        let workload = vec![parse(LISTING_1).unwrap()];
        let report = k.select_and_materialize(
            &workload,
            &SelectionConfig {
                budget_edges: 1_000_000,
                alpha: 95,
            },
        );
        assert!(report
            .materialized
            .contains(&"connector:JOB_TO_JOB_2_HOP".to_string()));
        assert_eq!(k.catalog().len(), report.materialized.len());
        // execution now routes through a view
        let p = k.plan(&workload[0]).unwrap();
        assert!(p.view_id.is_some());
    }

    #[test]
    fn catalog_view_smaller_than_raw_graph() {
        let mut k = instance(5);
        k.materialize_view(ViewDef::Summarizer(SummarizerDef::VertexInclusion {
            keep: vec!["Job".into(), "File".into()],
        }));
        // core-only graph: summarizer equals raw here, so use connector
        let id = k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let v = k.catalog().get(&id).unwrap();
        assert!(v.graph.vertex_count() <= k.graph().vertex_count());
    }

    #[test]
    fn homogeneous_connector_rewrites_are_refused_for_soundness() {
        // on a one-type schema every distance is feasible, so shortest-
        // distance windows with lo > 1 cannot be expressed over a k>=2
        // connector (triangle pairs at distance 1 also have 2-walks);
        // plan() must fall back to the raw graph even with the view
        // materialized
        use kaskade_datasets::{generate_social, SocialConfig};
        let g = generate_social(&SocialConfig::tiny(9));
        let mut k = Kaskade::new(g, Schema::homogeneous("User", "FOLLOWS"));
        let q =
            parse("SELECT COUNT(*) FROM (MATCH (a:User)-[:FOLLOWS*2..2]->(b:User) RETURN a, b)")
                .unwrap();
        let raw = k.execute(&q).unwrap();
        k.materialize_view(ViewDef::Connector(ConnectorDef::same_edge_type(
            "User", "User", 2, "FOLLOWS",
        )));
        let p = k.plan(&q).unwrap();
        assert!(p.view_id.is_none());
        let after = k.execute(&q).unwrap();
        assert_eq!(
            raw.scalar().unwrap().as_int(),
            after.scalar().unwrap().as_int()
        );
    }

    #[test]
    fn apply_delta_keeps_views_fresh() {
        let mut k = instance(6);
        let q = parse(LISTING_1).unwrap();
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let before = k.execute(&q).unwrap();

        // append a fresh pipeline: new job reads an existing file
        let mut d = GraphDelta::new();
        let j = d.add_vertex(
            "Job",
            vec![
                ("CPU".into(), kaskade_graph::Value::Int(500)),
                (
                    "pipelineName".into(),
                    kaskade_graph::Value::Str("pipelineX".into()),
                ),
            ],
        );
        let f = k.graph().vertices_of_type("File").next().unwrap();
        d.add_edge(VRef::Existing(f), j, "IS_READ_BY", vec![]);
        k.apply_delta(&d);

        // the view stays consistent with a from-scratch Kaskade
        let after_view = k.execute(&q).unwrap();
        let fresh = Kaskade::new(k.graph().clone(), Schema::provenance());
        let after_raw = fresh.execute(&q).unwrap();
        let norm = |t: &Table| {
            let mut rows: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(norm(&after_view), norm(&after_raw));
        // and the result actually changed (the new job is downstream)
        assert_ne!(norm(&before), norm(&after_view));
    }

    #[test]
    fn error_display() {
        let e = KaskadeError::Execution(ExecError::UnknownColumn("x".into()));
        assert!(e.to_string().contains("execution error"));
    }
}

//! The immutable read state of a Kaskade instance.
//!
//! [`Snapshot`] bundles everything query answering needs — the base
//! [`Graph`], its [`Schema`] and [`GraphStats`], and the materialized
//! view [`Catalog`] — behind a read-only API: [`Snapshot::plan`],
//! [`Snapshot::execute`], and [`Snapshot::execute_planned`]. Because
//! `Graph` shares its frozen payload on clone, `Snapshot::clone` is
//! O(#views): cheap enough that a serving runtime can publish a fresh
//! snapshot per write batch and hand `Arc<Snapshot>` clones to any
//! number of concurrent readers (see the `kaskade-service` crate).
//!
//! Mutation lives on [`crate::Kaskade`] (`&mut` ops) and on the
//! *functional* [`Snapshot::with_delta`], which returns the successor
//! state without touching the original — the primitive behind snapshot
//! isolation.
//!
//! Every snapshot derived from one root — by `clone`, `with_delta`,
//! `apply_ddl` or `compact`, none of which touch the schema — shares
//! that root's [`EnumerationMemo`], so view enumeration (§IV) runs once
//! per query pattern for the whole lineage and a plan miss only
//! re-filters and re-costs. [`Snapshot::new`] and
//! [`Snapshot::assemble`] start a fresh memo.

use std::sync::Arc;

use kaskade_graph::{Graph, GraphStats, IdRemap, Schema};
use kaskade_query::{execute as execute_query, Query, Table};

use crate::catalog::{Catalog, DdlOp, MaterializedView};
use crate::maintain::{self, GraphDelta};
use crate::memo::EnumerationMemo;
use crate::refresh::{RefreshDag, RefreshOptions, RefreshReport};
use crate::rewrite::rewrite_over_connector;
use crate::selection::{select_views_with, SelectionConfig, SelectionResult};
use crate::views::ViewDef;
use crate::{cost, Candidate, Enumeration, KaskadeError, PlannedQuery};

/// An immutable, cheaply cloneable view of a Kaskade instance: base
/// graph, schema, statistics, and the materialized-view catalog, plus
/// every read-only operation of the framework (§V-C planning and
/// execution). Cloning is O(#views) — the underlying graph storage is
/// shared — and [`Snapshot::with_delta`] derives the successor state
/// without touching the original, which is what makes snapshot
/// isolation in `kaskade-service` cheap.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) graph: Graph,
    pub(crate) schema: Schema,
    pub(crate) stats: GraphStats,
    pub(crate) catalog: Catalog,
    /// The lineage's enumeration memo (see the [module docs](self)).
    memo: Arc<EnumerationMemo>,
}

impl Snapshot {
    /// Wraps a graph and its schema with an empty catalog; computes the
    /// degree statistics the cost model maintains (§V-A).
    pub fn new(graph: Graph, schema: Schema) -> Self {
        let stats = GraphStats::compute(&graph);
        Snapshot::assemble(graph, schema, stats, Catalog::new())
    }

    /// Assembles a snapshot from pre-built parts, trusting the caller
    /// that `stats` describe `graph` and every catalog entry is a
    /// faithful materialization over it (checkpoint decoding, and
    /// callers that run the apply, refresh and statistics steps
    /// themselves) — `snapshot_is_consistent` in `kaskade-service`
    /// verifies the trust at the oracle level. The snapshot starts a
    /// fresh enumeration memo.
    pub fn assemble(graph: Graph, schema: Schema, stats: GraphStats, catalog: Catalog) -> Self {
        Snapshot {
            graph,
            schema,
            stats,
            catalog,
            memo: Arc::default(),
        }
    }

    /// The successor state sharing this snapshot's schema and memo.
    fn successor(&self, graph: Graph, stats: GraphStats, catalog: Catalog) -> Snapshot {
        Snapshot {
            graph,
            schema: self.schema.clone(),
            stats,
            catalog,
            memo: Arc::clone(&self.memo),
        }
    }

    /// The raw graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The graph schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Raw-graph statistics.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// The materialized-view catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The enumeration memo this snapshot's lineage shares.
    pub fn enumeration_memo(&self) -> &Arc<EnumerationMemo> {
        &self.memo
    }

    /// Enumerates view candidates for one query (§IV), through the
    /// lineage's memo.
    pub fn enumerate(
        &self,
        query: &Query,
    ) -> Result<Arc<Enumeration>, kaskade_prolog::PrologError> {
        self.enumerate_memoized(query).map(|(e, _)| e)
    }

    /// [`Snapshot::enumerate`], also saying whether the memo already
    /// held the query's pattern (`true`) or the enumerator ran.
    pub fn enumerate_memoized(
        &self,
        query: &Query,
    ) -> Result<(Arc<Enumeration>, bool), kaskade_prolog::PrologError> {
        self.memo.get_or_enumerate(query, &self.schema)
    }

    /// §V-C: view-based query rewriting. Enumerates candidates for the
    /// query (memoized per pattern), keeps those whose views are
    /// materialized, and returns the plan (original or rewritten) with
    /// the lowest estimated cost.
    pub fn plan(&self, query: &Query) -> Result<PlannedQuery, kaskade_prolog::PrologError> {
        let enumeration = self.enumerate(query)?;
        Ok(self.plan_with(query, &enumeration))
    }

    /// The post-enumeration half of [`Snapshot::plan`]: filters
    /// `enumeration`'s candidates against this snapshot's catalog,
    /// rewrites the query over each materialized connector, and keeps
    /// the cheapest plan. `enumeration` must be the query's own.
    pub fn plan_with(&self, query: &Query, enumeration: &Enumeration) -> PlannedQuery {
        let base_cost = cost::traversal_cost(self.graph.edge_count() as f64, query);
        let mut best = PlannedQuery {
            query: query.clone(),
            view_id: None,
            estimated_cost: base_cost,
        };
        for cand in &enumeration.candidates {
            let (x, y) = match cand {
                Candidate::KHopConnector { x, y, .. }
                | Candidate::SameEdgeTypeConnector { x, y, .. } => (x, y),
                _ => continue,
            };
            let Some(def) = cand.to_view_def() else {
                continue;
            };
            let Some((vid, view)) = self.catalog.lookup(&def.id()) else {
                continue; // prune candidates that are not materialized
            };
            let ViewDef::Connector(cdef) = &view.def else {
                continue;
            };
            let Some(rewritten) = rewrite_over_connector(query, x, y, cdef, &self.schema) else {
                continue;
            };
            let cost = cost::traversal_cost(view.graph.edge_count() as f64, &rewritten);
            if cost < best.estimated_cost {
                best = PlannedQuery {
                    query: rewritten,
                    view_id: Some(vid),
                    estimated_cost: cost,
                };
            }
        }
        best
    }

    /// §V-B view selection ([`crate::select_views`]) over this
    /// snapshot's graph, statistics and schema, enumerating each
    /// workload pattern through the lineage's memo.
    pub fn select_views(&self, workload: &[Query], cfg: &SelectionConfig) -> SelectionResult {
        select_views_with(
            &self.graph,
            &self.stats,
            &self.schema,
            workload,
            cfg,
            &self.memo,
        )
    }

    /// Executes an already-planned query against this snapshot's graph
    /// or view. Lets callers that cache [`PlannedQuery`]s (the
    /// `kaskade-service` plan cache) skip re-planning; the plan must
    /// have been produced against a snapshot with the same catalog.
    pub fn execute_planned(&self, planned: &PlannedQuery) -> Result<Table, KaskadeError> {
        execute_query(self.plan_target(planned)?, &planned.query).map_err(KaskadeError::Execution)
    }

    /// The graph a planned query runs on: the materialized view it was
    /// rewritten over, or the base graph. Fails with
    /// [`KaskadeError::UnknownView`] when the plan names a view this
    /// snapshot's catalog does not hold.
    pub fn plan_target(&self, planned: &PlannedQuery) -> Result<&Graph, KaskadeError> {
        match planned.view_id {
            Some(id) => self
                .catalog
                .get_by_id(id)
                .map(|view| &view.graph)
                .ok_or(KaskadeError::UnknownView(id)),
            None => Ok(&self.graph),
        }
    }

    /// Plans and executes a query, automatically routing it to the best
    /// materialized view (or the raw graph).
    ///
    /// Note on result identity: `Datum::Vertex` values are ids in the
    /// graph the plan executed on (raw graph or view). Views preserve
    /// all vertex *properties*, so portable results should project
    /// properties (e.g. `A.name`) rather than raw vertices.
    pub fn execute(&self, query: &Query) -> Result<Table, KaskadeError> {
        let planned = self.plan(query).map_err(KaskadeError::Inference)?;
        self.execute_planned(&planned)
    }

    /// Applies a [`GraphDelta`] — insertions *and* retractions — and
    /// returns the successor snapshot, leaving `self` untouched: the
    /// base graph evolves (retracted elements tombstone in place, ids
    /// never shift), every materialized view is refreshed **delta-
    /// incrementally** through the [`RefreshDag`] — each view's
    /// [`crate::ViewMaintainer`] touches only what the delta affects,
    /// and composed views consume their upstream's refreshed graph
    /// instead of the base — and statistics are updated incrementally
    /// from the delta's degree changes instead of a full
    /// [`GraphStats::compute`] rescan per publish. Readers holding the
    /// old snapshot keep a fully consistent state.
    pub fn with_delta(&self, delta: &GraphDelta) -> Snapshot {
        self.with_delta_report(delta, &RefreshOptions::default()).0
    }

    /// [`Snapshot::with_delta`] with explicit [`RefreshOptions`]
    /// (worker-pool parallelism, connector partitioning), also
    /// returning the [`RefreshReport`] the serving metrics record.
    pub fn with_delta_report(
        &self,
        delta: &GraphDelta,
        opts: &RefreshOptions<'_>,
    ) -> (Snapshot, RefreshReport) {
        let applied = maintain::apply_delta(&self.graph, delta);
        let dag = RefreshDag::build(&self.catalog);
        let (catalog, report) = dag.refresh(&self.catalog, &applied, opts);
        let changes = maintain::stat_changes(&applied);
        let stats = self
            .stats
            .with_changes(
                &changes,
                applied.graph.vertex_count(),
                applied.graph.edge_count(),
            )
            .unwrap_or_else(|| GraphStats::compute(&applied.graph));
        (self.successor(applied.graph, stats, catalog), report)
    }

    /// Applies a catalog-mutation operation (live DDL) and returns the
    /// successor snapshot, leaving `self` untouched. `CreateView`
    /// materializes the definition over this snapshot's base graph and
    /// registers it (replacing in place if the same definition id is
    /// already live); `DropView` tombstones the named slot — a no-op
    /// when the slot is already dead, so replaying DDL is idempotent.
    /// Base graph, schema, and statistics carry over verbatim.
    pub fn apply_ddl(&self, op: &DdlOp) -> Snapshot {
        let mut catalog = self.catalog.clone();
        match op {
            DdlOp::CreateView(def) => {
                let graph = crate::materialize::materialize(&self.graph, def);
                catalog.add(MaterializedView::new(def.clone(), graph));
            }
            DdlOp::DropView(id) => {
                catalog.drop_view(*id);
            }
        }
        self.successor(self.graph.clone(), self.stats.clone(), catalog)
    }

    /// Compacts the base graph — dead vertex/edge slots dropped, live
    /// ids renumbered densely — returning the successor snapshot and
    /// the old→new [`IdRemap`]; `self` is untouched.
    ///
    /// Everything else carries over verbatim, and soundly so:
    ///
    /// - **Statistics** count live elements only, so they are exactly
    ///   equal before and after (enforced by the compaction proptests).
    /// - **Materialized views** are their own graphs whose vertices
    ///   correspond to the base graph *positionally* — the i-th live
    ///   base vertex of the view's types — never by stored base id.
    ///   Compaction preserves the live vertices, their order, and
    ///   their properties, so every catalog entry is still byte-for-
    ///   byte what materializing it over the compacted base yields,
    ///   provenance `support` counts included, and subsequent
    ///   incremental maintenance lines up without translation.
    ///
    /// Deltas queued against the pre-compaction snapshot must be
    /// rebased with [`GraphDelta::remap`] before applying; the serving
    /// runtime (`kaskade-service`) does this behind its epoch fence.
    pub fn compact(&self) -> (Snapshot, IdRemap) {
        let (graph, remap) = self.graph.compact();
        (
            self.successor(graph, self.stats.clone(), self.catalog.clone()),
            remap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnectorDef, Kaskade};
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_query::{listings::LISTING_1, parse};

    fn snapshot(seed: u64) -> Snapshot {
        let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
        Snapshot::new(g, Schema::provenance())
    }

    #[test]
    fn clone_is_shallow_and_consistent() {
        let mut k = Kaskade::new(snapshot(11).graph.clone(), Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        let s = k.snapshot();
        let t = s.clone();
        // clones answer identically
        let q = parse(LISTING_1).unwrap();
        let a = s.execute(&q).unwrap();
        let b = t.execute(&q).unwrap();
        assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
    }

    #[test]
    fn with_delta_leaves_original_untouched() {
        let s = snapshot(12);
        let (v0, e0) = (s.graph.vertex_count(), s.graph.edge_count());
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        let next = s.with_delta(&d);
        assert_eq!(s.graph.vertex_count(), v0);
        assert_eq!(s.graph.edge_count(), e0);
        assert_eq!(next.graph.vertex_count(), v0 + 1);
        assert_eq!(next.stats.vertex_count, v0 + 1);
    }

    #[test]
    fn with_delta_stats_match_full_compute_under_churn() {
        let mut s = snapshot(14);
        for round in 0..4u32 {
            let mut d = GraphDelta::new();
            let j = d.add_vertex("Job", vec![]);
            let f = s.graph.vertices_of_type("File").next().unwrap();
            d.add_edge(crate::VRef::Existing(f), j, "IS_READ_BY", vec![]);
            if round % 2 == 1 {
                // retract an existing write edge and a whole file
                if let Some(e) = s
                    .graph
                    .edges()
                    .find(|&e| s.graph.edge_type(e) == "WRITES_TO")
                {
                    d.del_edge(
                        crate::VRef::Existing(s.graph.edge_src(e)),
                        crate::VRef::Existing(s.graph.edge_dst(e)),
                        "WRITES_TO",
                    );
                }
                let victim = s.graph.vertices_of_type("File").nth(1).unwrap();
                d.del_vertex(victim);
            }
            s = s.with_delta(&d);
            assert!(s.stats.supports_incremental());
            assert_eq!(
                s.stats,
                GraphStats::compute(&s.graph),
                "round {round}: incremental stats diverged"
            );
        }
    }

    #[test]
    fn compact_preserves_stats_views_and_answers() {
        let mut k = Kaskade::new(snapshot(15).graph.clone(), Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        // churn a few tombstones into the state
        let mut s = k.snapshot();
        for round in 0..6u64 {
            let mut d = GraphDelta::new();
            if let Some(e) = s.graph.edges().nth(round as usize) {
                d.del_edge(
                    crate::VRef::Existing(s.graph.edge_src(e)),
                    crate::VRef::Existing(s.graph.edge_dst(e)),
                    s.graph.edge_type(e),
                );
            }
            if round == 3 {
                let victim = s.graph.vertices_of_type("File").nth(2).unwrap();
                d.del_vertex(victim);
            }
            s = s.with_delta(&d);
        }
        assert!(s.graph.vertex_slots() > s.graph.vertex_count());
        let (c, remap) = s.compact();
        assert_eq!(
            remap.reclaimed(),
            s.graph.vertex_slots() - c.graph.vertex_slots()
        );
        assert_eq!(c.graph.vertex_slots(), c.graph.vertex_count());
        assert_eq!(c.graph.edge_slots(), c.graph.edge_count());
        // stats exactly preserved and exactly right for the new graph
        assert_eq!(c.stats, s.stats);
        assert_eq!(c.stats, GraphStats::compute(&c.graph));
        // the carried-over view is byte-for-byte a fresh
        // materialization over the compacted base
        for view in c.catalog.iter() {
            let fresh = crate::materialize(&c.graph, &view.def);
            let fp = |g: &Graph| {
                let mut v: Vec<_> = g
                    .edges()
                    .map(|e| (g.edge_src(e).0, g.edge_dst(e).0, g.edge_type(e).to_string()))
                    .collect();
                v.sort();
                (g.vertex_count(), v)
            };
            assert_eq!(fp(&view.graph), fp(&fresh), "view {}", view.def.id());
        }
        // aggregate answers are identical before and after
        let q = parse(LISTING_1).unwrap();
        let rows = |t: &kaskade_query::Table| {
            let mut r: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
            r.sort();
            r
        };
        assert_eq!(rows(&s.execute(&q).unwrap()), rows(&c.execute(&q).unwrap()));
    }

    #[test]
    fn apply_ddl_creates_drops_and_keeps_slots() {
        let s = snapshot(16);
        let def2 = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2));
        let def4 = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 4));
        let s = s
            .apply_ddl(&crate::DdlOp::CreateView(def2.clone()))
            .apply_ddl(&crate::DdlOp::CreateView(def4.clone()));
        assert_eq!(s.catalog.len(), 2);
        // the created view equals an offline materialization
        let fresh = crate::materialize(&s.graph, &def2);
        assert_eq!(
            s.catalog.get(&def2.id()).unwrap().graph.edge_count(),
            fresh.edge_count()
        );
        // drop is functional (original untouched) and tombstones the slot
        let dropped = s.apply_ddl(&crate::DdlOp::DropView(crate::ViewId(0)));
        assert_eq!(s.catalog.len(), 2);
        assert_eq!(dropped.catalog.len(), 1);
        assert!(dropped.catalog.get_by_id(crate::ViewId(0)).is_none());
        assert_eq!(
            dropped.catalog.lookup(&def4.id()).unwrap().0,
            crate::ViewId(1)
        );
        // dropping a dead slot is an idempotent no-op (WAL replay safety)
        let again = dropped.apply_ddl(&crate::DdlOp::DropView(crate::ViewId(0)));
        assert_eq!(again.catalog.len(), 1);
    }

    #[test]
    fn with_delta_refreshes_over_tombstoned_catalog() {
        let s = snapshot(17)
            .apply_ddl(&crate::DdlOp::CreateView(ViewDef::Connector(
                ConnectorDef::k_hop("Job", "Job", 2),
            )))
            .apply_ddl(&crate::DdlOp::CreateView(ViewDef::Connector(
                ConnectorDef::k_hop("Job", "Job", 4),
            )))
            .apply_ddl(&crate::DdlOp::DropView(crate::ViewId(0)));
        let mut d = GraphDelta::new();
        let j = d.add_vertex("Job", vec![]);
        let f = s.graph.vertices_of_type("File").next().unwrap();
        d.add_edge(crate::VRef::Existing(f), j, "IS_READ_BY", vec![]);
        let next = s.with_delta(&d);
        // the tombstone survives refresh and the survivor keeps its slot
        assert_eq!(next.catalog.slot_count(), 2);
        assert!(next.catalog.get_by_id(crate::ViewId(0)).is_none());
        let view = next.catalog.get_by_id(crate::ViewId(1)).unwrap();
        // refreshed view equals a scratch materialization
        let fresh = crate::materialize(&next.graph, &view.def);
        assert_eq!(view.graph.edge_count(), fresh.edge_count());
    }

    #[test]
    fn successors_share_the_memo_and_decoding_starts_fresh() {
        let s = snapshot(18);
        let same = |t: &Snapshot| Arc::ptr_eq(s.enumeration_memo(), t.enumeration_memo());
        assert!(same(&s.clone()));
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        assert!(same(&s.with_delta(&d)));
        let def = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2));
        let ddl = s.apply_ddl(&crate::DdlOp::CreateView(def));
        assert!(same(&ddl));
        assert!(same(&ddl.compact().0));
        let mut enc = kaskade_graph::Enc::new();
        ddl.encode(&mut enc);
        let bytes = enc.into_bytes();
        let decoded = Snapshot::decode(&mut kaskade_graph::Dec::new(&bytes)).unwrap();
        assert!(!same(&decoded));
        assert!(!same(&snapshot(18)), "Snapshot::new starts a fresh memo");
    }

    #[test]
    fn execute_planned_rejects_foreign_view() {
        let s = snapshot(13);
        let planned = PlannedQuery {
            query: parse(LISTING_1).unwrap(),
            view_id: Some(crate::ViewId(7)), // catalog is empty
            estimated_cost: 1.0,
        };
        let err = s.execute_planned(&planned).unwrap_err();
        assert!(matches!(err, KaskadeError::UnknownView(_)));
        assert!(err.to_string().contains("view#7"));
    }
}

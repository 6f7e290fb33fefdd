//! The refresh DAG: universal incremental view maintenance behind the
//! [`ViewMaintainer`] trait.
//!
//! Every [`ViewDef`] variant knows how to build itself from scratch
//! (`materialize`) *and* how to refresh itself from a [`AppliedDelta`]
//! (`refresh`), so per-publish work never falls back to blanket
//! re-materialization:
//!
//! - **Connectors** recompute only the affected sources' exact-`k`
//!   frontiers, with per-edge provenance counts deciding which view
//!   edges die (see [`crate::maintain`]).
//! - **Source-sink connectors** re-run reachability only for sources
//!   upstream of a changed edge or vertex; every other (source, sink)
//!   pair is copied from the old view.
//! - **Aggregator summarizers** carry per-group aggregate state:
//!   COUNT/SUM are exact under insert *and* retract (the same
//!   provenance-count discipline connectors use); MIN/MAX fall back to
//!   a member re-scan of the one affected group when the retracted
//!   value was the group's current extremum (witness death).
//! - **Filter summarizers** are stateless projections: their refresh is
//!   the single linear pass any rebuild of an immutable view graph must
//!   pay, so it is delta-driven by construction.
//! - **Composed views** (a summarizer *of* a connector) consume the
//!   upstream view's refreshed graph and [`ViewDelta`] instead of
//!   re-contracting paths from the base graph.
//!
//! [`RefreshDag`] topo-sorts the catalog by input dependencies (base
//! graph or another view) into an [`RefreshDag::execution_order`] of
//! parallelizable levels; [`RefreshDag::refresh`] runs each level on
//! the caller's [`ParallelExec`] (the serving engine's worker pool).
//! The serving writer publishes every batch through this path, with
//! connector frontier work split by its vertex partitioner when it has
//! more than one partition.
//!
//! Every refresh is validated against a scratch-rebuild oracle: the
//! refreshed graph must match `materialize(new_base, def)` — vertices
//! byte-identical in id order, edges as a multiset (asserted by the
//! consistency oracle in `kaskade-service` and the property tests).

use std::collections::{HashMap, HashSet, VecDeque};

use kaskade_graph::{Graph, GraphBuilder, ParallelExec, Value, VertexId};

use crate::catalog::{Catalog, MaterializedView, ViewId};
use crate::maintain::{connector_refresh, AppliedDelta};
use crate::materialize::{composed_view, connector_view, source_sink_view, summarizer_view};
use crate::views::{AggOp, ComposedDef, ConnectorDef, SourceSinkDef, SummarizerDef, ViewDef};

/// What an upstream view's refresh tells its downstream consumers.
///
/// View graphs are rebuilt per publish (immutable storage), so the
/// delta is deliberately structural rather than id-based: it says
/// whether anything changed at all and how much derived work was
/// redone, which is what downstream nodes need to decide between
/// reusing their old graph outright and re-deriving from the refreshed
/// upstream graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewDelta {
    /// The refresh provably produced a graph identical to the old view
    /// (e.g. the delta touched nothing the view depends on). Downstream
    /// consumers may reuse their own old graph unchanged.
    pub unchanged: bool,
    /// How many derived units were recomputed: connector sources whose
    /// frontier was re-derived, sources re-BFS'd, aggregate groups
    /// re-scanned. Zero for stateless projections.
    pub recomputed: usize,
}

/// The result of a delta-driven view refresh.
#[derive(Debug, Clone)]
pub struct Refreshed {
    /// The refreshed view graph — identical to re-materializing over
    /// the new base (vertices in id order; edges as a multiset).
    pub graph: Graph,
    /// Change summary for downstream composed views.
    pub delta: ViewDelta,
    /// Whether the maintainer had to fall back to a full scratch
    /// re-materialization (e.g. a composed view refreshed without its
    /// upstream connector in the catalog). The serving runtime counts
    /// these in its `views_rematerialized` metric, which stays 0 on
    /// incremental-safe workloads.
    pub rematerialized: bool,
}

/// Partitioned execution context for connector refresh: a partitioned
/// serving engine passes its vertex partitioner so connector frontier
/// work splits into one pool task per partition. Any split gives the
/// same refreshed view.
#[derive(Clone, Copy)]
pub struct Partition<'a> {
    /// Maps a vertex of the new base graph (passed first) to its
    /// partition.
    pub part_of: &'a (dyn Fn(&Graph, VertexId) -> usize + Sync),
    /// Number of partitions (worker threads).
    pub parts: usize,
}

impl std::fmt::Debug for Partition<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("parts", &self.parts)
            .finish()
    }
}

/// Upstream context for a composed view's refresh: the consumed view's
/// graph before and after this publish, plus its change summary.
#[derive(Debug, Clone, Copy)]
pub struct Upstream<'a> {
    /// The upstream view graph before the delta.
    pub old: &'a Graph,
    /// The upstream view graph after its own refresh.
    pub new: &'a Graph,
    /// The upstream refresh's change summary.
    pub delta: &'a ViewDelta,
}

/// Execution context handed to [`ViewDef::maintainer_in`] by the
/// [`RefreshDag`] executor.
#[derive(Clone, Copy, Default)]
pub struct RefreshCtx<'a> {
    /// Worker partitioning for connector frontier recomputation.
    pub partition: Option<Partition<'a>>,
    /// The refreshed upstream view, for composed views.
    pub upstream: Option<Upstream<'a>>,
    /// Where partitioned frontier recomputation runs. `None` runs it
    /// serially; the serving runtime passes its persistent worker pool.
    pub exec: Option<&'a dyn ParallelExec>,
}

impl std::fmt::Debug for RefreshCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefreshCtx")
            .field("partition", &self.partition)
            .field("upstream", &self.upstream)
            .field("exec", &self.exec.map(|_| "dyn ParallelExec"))
            .finish()
    }
}

/// Uniform maintenance interface over every view variant: a full build
/// from the base graph, and a delta-driven refresh of an existing view.
///
/// This replaces the old grab-bag of free functions
/// (`materialize_connector`, `maintain_connector`,
/// `maintain_connector_partitioned`, the per-type materializers), whose
/// deprecated shims have since been removed. Obtain an implementation
/// with [`ViewDef::maintainer`] (no context) or
/// [`ViewDef::maintainer_in`] (partitioned / composed execution).
pub trait ViewMaintainer {
    /// Builds the view from scratch over `base`.
    fn materialize(&self, base: &Graph) -> Graph;

    /// Refreshes `old_view` after `applied`, touching only what the
    /// delta affects. The result is identical to
    /// [`ViewMaintainer::materialize`] over the new base graph.
    fn refresh(&self, old_view: &Graph, applied: &AppliedDelta) -> Refreshed;
}

/// Whether the delta changed the base graph structurally at all.
fn structurally_empty(applied: &AppliedDelta) -> bool {
    applied.new_vertices.is_empty()
        && applied.new_edges.is_empty()
        && applied.deleted_edges.is_empty()
        && applied.deleted_vertices.is_empty()
}

/// [`ViewMaintainer`] for k-hop connectors (wraps the provenance-count
/// refresh engine of [`crate::maintain`]).
pub struct ConnectorMaintainer<'a> {
    def: &'a ConnectorDef,
    partition: Option<Partition<'a>>,
    exec: Option<&'a dyn ParallelExec>,
}

impl ViewMaintainer for ConnectorMaintainer<'_> {
    fn materialize(&self, base: &Graph) -> Graph {
        connector_view(base, self.def)
    }

    fn refresh(&self, old_view: &Graph, applied: &AppliedDelta) -> Refreshed {
        let (graph, recomputed) = match self.partition {
            Some(p) => {
                connector_refresh(old_view, applied, self.def, p.part_of, p.parts, self.exec)
            }
            None => connector_refresh(old_view, applied, self.def, &|_, _| 0, 1, self.exec),
        };
        // the vertex set changes whenever a target-type vertex is born
        // or dies, even with no affected source
        let touches_types = applied.new_vertices.iter().any(|&v| {
            let t = applied.graph.vertex_type(v);
            t == self.def.src_type || t == self.def.dst_type
        }) || applied.deleted_vertices.iter().any(|&v| {
            let t = applied.base_old.vertex_type(v);
            t == self.def.src_type || t == self.def.dst_type
        });
        Refreshed {
            graph,
            delta: ViewDelta {
                unchanged: recomputed == 0 && !touches_types,
                recomputed,
            },
            rematerialized: false,
        }
    }
}

/// [`ViewMaintainer`] for source-to-sink connectors.
pub struct SourceSinkMaintainer<'a> {
    def: &'a SourceSinkDef,
}

impl ViewMaintainer for SourceSinkMaintainer<'_> {
    fn materialize(&self, base: &Graph) -> Graph {
        source_sink_view(base, self.def)
    }

    fn refresh(&self, old_view: &Graph, applied: &AppliedDelta) -> Refreshed {
        let (graph, recomputed) = source_sink_refresh(old_view, applied, self.def);
        Refreshed {
            graph,
            delta: ViewDelta {
                unchanged: structurally_empty(applied),
                recomputed,
            },
            rematerialized: false,
        }
    }
}

/// [`ViewMaintainer`] for summarizers.
pub struct SummarizerMaintainer<'a> {
    def: &'a SummarizerDef,
}

impl ViewMaintainer for SummarizerMaintainer<'_> {
    fn materialize(&self, base: &Graph) -> Graph {
        summarizer_view(base, self.def)
    }

    fn refresh(&self, old_view: &Graph, applied: &AppliedDelta) -> Refreshed {
        if structurally_empty(applied) {
            return Refreshed {
                graph: old_view.clone(),
                delta: ViewDelta {
                    unchanged: true,
                    recomputed: 0,
                },
                rematerialized: false,
            };
        }
        let (graph, recomputed) = match self.def {
            SummarizerDef::VertexAggregator {
                vtype,
                group_prop,
                agg_prop,
                agg,
            } => vertex_aggregator_refresh(old_view, applied, vtype, group_prop, agg_prop, *agg),
            // Filter summarizers and the edge aggregator are stateless
            // projections: properties are immutable and every per-
            // element decision is local, so the delta-driven refresh
            // *is* the single linear pass any rebuild of an immutable
            // view graph must pay. No derived state is recomputed.
            other => (summarizer_view(&applied.graph, other), 0),
        };
        Refreshed {
            graph,
            delta: ViewDelta {
                unchanged: false,
                recomputed,
            },
            rematerialized: false,
        }
    }
}

/// [`ViewMaintainer`] for composed views (a summarizer of a connector).
///
/// With an [`Upstream`] context — the normal case, supplied by the
/// [`RefreshDag`] when the upstream connector is also in the catalog —
/// the refresh never touches the base graph: it reuses the upstream's
/// refreshed graph, or even the composed view's own old graph when the
/// upstream reports [`ViewDelta::unchanged`]. Without the context it
/// must re-contract paths from scratch, which is counted as a full
/// re-materialization.
pub struct ComposedMaintainer<'a> {
    def: &'a ComposedDef,
    upstream: Option<Upstream<'a>>,
}

impl ViewMaintainer for ComposedMaintainer<'_> {
    fn materialize(&self, base: &Graph) -> Graph {
        composed_view(base, self.def)
    }

    fn refresh(&self, old_view: &Graph, applied: &AppliedDelta) -> Refreshed {
        match self.upstream {
            Some(up) if up.delta.unchanged => Refreshed {
                graph: old_view.clone(),
                delta: ViewDelta {
                    unchanged: true,
                    recomputed: 0,
                },
                rematerialized: false,
            },
            Some(up) => Refreshed {
                graph: summarizer_view(up.new, &self.def.summarizer),
                delta: ViewDelta {
                    unchanged: false,
                    recomputed: up.delta.recomputed,
                },
                rematerialized: false,
            },
            None => Refreshed {
                graph: composed_view(&applied.graph, self.def),
                delta: ViewDelta {
                    unchanged: false,
                    recomputed: 0,
                },
                rematerialized: true,
            },
        }
    }
}

impl ViewDef {
    /// The maintainer for this view, with no execution context (serial
    /// connector refresh; composed views fall back to scratch).
    pub fn maintainer(&self) -> Box<dyn ViewMaintainer + '_> {
        self.maintainer_in(RefreshCtx::default())
    }

    /// The maintainer for this view under an execution context — worker
    /// partitioning for connectors, the refreshed upstream view for
    /// composed views. Context irrelevant to the variant is ignored.
    pub fn maintainer_in<'a>(&'a self, ctx: RefreshCtx<'a>) -> Box<dyn ViewMaintainer + 'a> {
        match self {
            ViewDef::Connector(def) => Box::new(ConnectorMaintainer {
                def,
                partition: ctx.partition,
                exec: ctx.exec,
            }),
            ViewDef::SourceSink(def) => Box::new(SourceSinkMaintainer { def }),
            ViewDef::Summarizer(def) => Box::new(SummarizerMaintainer { def }),
            ViewDef::Composed(def) => Box::new(ComposedMaintainer {
                def,
                upstream: ctx.upstream,
            }),
        }
    }
}

/// Incremental source-sink refresh: re-runs forward reachability only
/// for sources inside the changed region — sources that can reach (over
/// the old or new base) a vertex whose edges or existence changed —
/// and copies every other source's (source, sink) pairs from the old
/// view. Returns the refreshed graph and the number of re-BFS'd
/// sources.
fn source_sink_refresh(
    old_view: &Graph,
    applied: &AppliedDelta,
    def: &SourceSinkDef,
) -> (Graph, usize) {
    let base_new = &applied.graph;
    let base_old = &applied.base_old;
    let is_source = |g: &Graph, v: VertexId| {
        g.in_degree(v) == 0
            && def
                .src_type
                .as_deref()
                .is_none_or(|t| g.vertex_type(v) == t)
    };
    let is_sink = |g: &Graph, v: VertexId| {
        g.out_degree(v) == 0
            && def
                .dst_type
                .as_deref()
                .is_none_or(|t| g.vertex_type(v) == t)
    };

    // seeds: every vertex whose incident edges, existence, or
    // source/sink status can have changed
    let mut seeds: HashSet<VertexId> = HashSet::new();
    for &(s, d) in applied.new_edges.iter().chain(applied.deleted_edges.iter()) {
        seeds.insert(s);
        seeds.insert(d);
    }
    seeds.extend(applied.new_vertices.iter().copied());
    seeds.extend(applied.deleted_vertices.iter().copied());

    // the changed region: everything that can reach a seed, over the
    // old base (paths that died) and the new base (paths that appeared)
    let mut affected: HashSet<VertexId> = HashSet::new();
    for g in [base_old, base_new] {
        let mut visited: HashSet<VertexId> = HashSet::new();
        let mut queue: VecDeque<VertexId> = seeds
            .iter()
            .copied()
            .filter(|&v| v.index() < g.vertex_slots() && g.is_vertex_live(v))
            .collect();
        visited.extend(queue.iter().copied());
        while let Some(v) = queue.pop_front() {
            for w in g.in_neighbors(v) {
                if visited.insert(w) {
                    queue.push_back(w);
                }
            }
        }
        affected.extend(visited);
    }

    // view vertices: (source | sink) vertices of the new base, id order
    let mut b = GraphBuilder::new();
    let mut new_id: HashMap<VertexId, VertexId> = HashMap::new();
    for v in base_new.vertices() {
        if is_source(base_new, v) || is_sink(base_new, v) {
            let nv = b.add_vertex(base_new.vertex_type(v));
            for (key, val) in base_new.vertex_props(v).iter() {
                b.set_vertex_prop(nv, base_new.resolve(key), val.clone());
            }
            new_id.insert(v, nv);
        }
    }

    // the old view's positional mapping back to base ids
    let base_of_old_view: Vec<VertexId> = base_old
        .vertices()
        .filter(|&v| is_source(base_old, v) || is_sink(base_old, v))
        .collect();
    debug_assert_eq!(base_of_old_view.len(), old_view.vertex_count());
    let old_id: HashMap<VertexId, VertexId> = base_of_old_view
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, VertexId(i as u32)))
        .collect();

    let label = def.edge_label();
    let mut recomputed = 0usize;
    for u in base_new.vertices() {
        if !is_source(base_new, u) {
            continue;
        }
        let nu = new_id[&u];
        let was_source = u.index() < base_old.vertex_slots()
            && base_old.is_vertex_live(u)
            && is_source(base_old, u);
        if was_source && !affected.contains(&u) {
            // outside the changed region: reachable sinks are exactly
            // the old view's (and still sinks — a sink whose status
            // changed is a seed, putting every source reaching it
            // inside the region)
            let ou = old_id[&u];
            for (_, od) in old_view.out_edges(ou) {
                let dst_base = base_of_old_view[od.index()];
                if let Some(&nd) = new_id.get(&dst_base) {
                    b.add_edge(nu, nd, &label);
                }
            }
        } else {
            recomputed += 1;
            let mut visited = vec![false; base_new.vertex_slots()];
            visited[u.index()] = true;
            let mut queue = VecDeque::from([u]);
            let mut reached_sinks = Vec::new();
            while let Some(v) = queue.pop_front() {
                if v != u && is_sink(base_new, v) {
                    reached_sinks.push(v);
                }
                for w in base_new.out_neighbors(v) {
                    if !visited[w.index()] {
                        visited[w.index()] = true;
                        queue.push_back(w);
                    }
                }
            }
            reached_sinks.sort();
            for v in reached_sinks {
                b.add_edge(nu, new_id[&v], &label);
            }
        }
    }
    (b.finish(), recomputed)
}

/// Incremental vertex-aggregator refresh: per-group aggregate state —
/// (accumulator, member count) per group key — is recovered from the
/// old view's supervertices and updated from the delta alone.
///
/// COUNT/SUM are exact under insert and retract (add/subtract the
/// member's contribution). MIN/MAX retract exactly like provenance
/// counts retire connector edges: while a *witness* (a member holding
/// the extremum) survives, the aggregate stands; when the retracted
/// value equals the current extremum the witness may have died, and
/// only that one group's members are re-scanned. Returns the refreshed
/// graph and the number of groups re-scanned.
fn vertex_aggregator_refresh(
    old_view: &Graph,
    applied: &AppliedDelta,
    vtype: &str,
    group_prop: &str,
    agg_prop: &str,
    agg: AggOp,
) -> (Graph, usize) {
    let base_new = &applied.graph;
    let base_old = &applied.base_old;
    let key_of = |g: &Graph, v: VertexId| {
        g.vertex_prop(v, group_prop)
            .map(|p| p.to_string())
            .unwrap_or_default()
    };
    let val_of = |g: &Graph, v: VertexId| {
        g.vertex_prop(v, agg_prop)
            .and_then(|p| p.as_int())
            .unwrap_or(0)
    };

    // recover per-group state from the old view: every old-view vertex
    // of the grouped type is a supervertex (the originals collapsed)
    let mut keys_in_order: Vec<String> = Vec::new();
    let mut state: HashMap<String, (i64, i64)> = HashMap::new(); // key -> (acc, members)
    for sv in old_view.vertices() {
        if old_view.vertex_type(sv) != vtype {
            continue;
        }
        let key = old_view
            .vertex_prop(sv, group_prop)
            .and_then(|p| p.as_str().map(str::to_string))
            .unwrap_or_default();
        let acc = old_view
            .vertex_prop(sv, agg_prop)
            .and_then(|p| p.as_int())
            .unwrap_or(0);
        let members = old_view
            .vertex_prop(sv, "members")
            .and_then(|p| p.as_int())
            .unwrap_or(0);
        keys_in_order.push(key.clone());
        state.insert(key, (acc, members));
    }

    // retractions: subtract the member's contribution; a MIN/MAX
    // retraction of the current extremum kills a witness — flag the
    // group for a member re-scan
    let mut rescan: HashSet<String> = HashSet::new();
    let deleted: Vec<(String, i64)> = applied
        .deleted_vertices
        .iter()
        .filter(|&&v| base_old.vertex_type(v) == vtype)
        .map(|&v| (key_of(base_old, v), val_of(base_old, v)))
        .collect();
    for (key, val) in &deleted {
        if let Some(e) = state.get_mut(key) {
            e.1 -= 1;
            match agg {
                AggOp::Sum => e.0 -= val,
                AggOp::Count => e.0 -= 1,
                AggOp::Min | AggOp::Max => {
                    if *val == e.0 {
                        rescan.insert(key.clone());
                    }
                }
            }
        }
    }

    // insertions: fold the new member in; a first member creates its
    // group (appended — new vertices carry the highest base ids, so
    // first-member order puts new groups last)
    for &v in &applied.new_vertices {
        if !base_new.is_vertex_live(v) || base_new.vertex_type(v) != vtype {
            continue;
        }
        let key = key_of(base_new, v);
        let val = val_of(base_new, v);
        match state.get_mut(&key) {
            Some(e) => {
                e.1 += 1;
                e.0 = match agg {
                    AggOp::Sum => e.0 + val,
                    AggOp::Count => e.0 + 1,
                    AggOp::Min => e.0.min(val),
                    AggOp::Max => e.0.max(val),
                };
            }
            None => {
                let acc = match agg {
                    AggOp::Sum => val,
                    AggOp::Count => 1,
                    AggOp::Min | AggOp::Max => val,
                };
                state.insert(key.clone(), (acc, 1));
                keys_in_order.push(key);
            }
        }
    }

    // a retraction can evict a group's *first* member, reordering the
    // supervertices (first-member order over the new base) or killing
    // the group outright — re-derive order and membership by scanning
    // the grouped type's keys; aggregate values stay incremental
    let mut members_of: HashMap<String, Vec<VertexId>> = HashMap::new();
    if !deleted.is_empty() {
        keys_in_order.clear();
        let mut counts: HashMap<String, i64> = HashMap::new();
        for v in base_new.vertices() {
            if base_new.vertex_type(v) != vtype {
                continue;
            }
            let key = key_of(base_new, v);
            let c = counts.entry(key.clone()).or_insert(0);
            if *c == 0 {
                keys_in_order.push(key.clone());
            }
            *c += 1;
            members_of.entry(key).or_default().push(v);
        }
        for (key, count) in counts {
            if let Some(e) = state.get_mut(&key) {
                e.1 = count;
            }
        }
        for key in &rescan {
            let Some(members) = members_of.get(key) else {
                continue; // group died with its last witness
            };
            let acc = members.iter().map(|&v| val_of(base_new, v)).fold(
                match agg {
                    AggOp::Sum | AggOp::Count => 0,
                    AggOp::Min => i64::MAX,
                    AggOp::Max => i64::MIN,
                },
                |acc, v| match agg {
                    AggOp::Sum => acc + v,
                    AggOp::Count => acc + 1,
                    AggOp::Min => acc.min(v),
                    AggOp::Max => acc.max(v),
                },
            );
            if let Some(e) = state.get_mut(key) {
                e.0 = acc;
            }
        }
    }

    // rebuild: non-grouped vertices in base order, then supervertices
    // in first-member order — exactly the scratch layout
    let mut b = GraphBuilder::new();
    let mut copy_id: HashMap<VertexId, VertexId> = HashMap::new();
    for v in base_new.vertices() {
        if base_new.vertex_type(v) == vtype {
            continue;
        }
        let nv = b.add_vertex(base_new.vertex_type(v));
        for (key, val) in base_new.vertex_props(v).iter() {
            b.set_vertex_prop(nv, base_new.resolve(key), val.clone());
        }
        copy_id.insert(v, nv);
    }
    let mut super_of: HashMap<String, VertexId> = HashMap::new();
    for key in &keys_in_order {
        let (acc, members) = state[key];
        let sv = b.add_vertex(vtype);
        b.set_vertex_prop(sv, group_prop, Value::Str(key.clone()));
        b.set_vertex_prop(sv, agg_prop, Value::Int(acc));
        b.set_vertex_prop(sv, "members", Value::Int(members));
        super_of.insert(key.clone(), sv);
    }

    // edges in base order, endpoints re-targeted to supervertices
    // (group keys memoized per grouped endpoint), intra-group edges
    // collapsed away
    let mut grouped_target: HashMap<VertexId, VertexId> = HashMap::new();
    let mut view_id = |v: VertexId, b: &GraphBuilder| -> VertexId {
        let _ = b;
        match copy_id.get(&v) {
            Some(&nv) => nv,
            None => *grouped_target
                .entry(v)
                .or_insert_with(|| super_of[&key_of(base_new, v)]),
        }
    };
    for e in base_new.edges() {
        let (s0, d0) = (base_new.edge_src(e), base_new.edge_dst(e));
        let s = view_id(s0, &b);
        let d = view_id(d0, &b);
        if s == d && base_new.vertex_type(s0) == vtype && base_new.vertex_type(d0) == vtype {
            continue;
        }
        let ne = b.add_edge(s, d, base_new.edge_type(e));
        for (key, val) in base_new.edge_props(e).iter() {
            b.set_edge_prop(ne, base_new.resolve(key), val.clone());
        }
    }
    (b.finish(), rescan.len())
}

/// How a [`RefreshDag`] executes: worker-pool parallelism and connector
/// partitioning. The default refreshes serially and unpartitioned.
#[derive(Clone, Copy, Default)]
pub struct RefreshOptions<'a> {
    /// Partitioned connector refresh (a partitioned serving engine
    /// passes its vertex partitioner).
    pub partition: Option<Partition<'a>>,
    /// Where level-parallel refresh and partitioned frontier work run
    /// (levels with a single view always run inline). `None` refreshes
    /// serially; serving runtimes pass their persistent worker pool so
    /// steady-state publishes never spawn a thread.
    pub exec: Option<&'a dyn ParallelExec>,
}

impl std::fmt::Debug for RefreshOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefreshOptions")
            .field("partition", &self.partition)
            .field("exec", &self.exec.map(|_| "dyn ParallelExec"))
            .finish()
    }
}

/// What one publish did to a single view, for the serving metrics and
/// the flight recorder: which view, at which DAG level, how long its
/// maintainer ran, and how much work it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewRefreshStat {
    /// The refreshed view.
    pub view: ViewId,
    /// The execution-order level the view ran in.
    pub level: usize,
    /// Wall-clock time of this view's maintainer call.
    pub duration: std::time::Duration,
    /// Units of incremental work (delta size): sources / vertices the
    /// maintainer recomputed.
    pub recomputed: usize,
    /// Whether the maintainer fell back to full re-materialization.
    pub rematerialized: bool,
}

/// What one publish's view refresh did, for the serving metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefreshReport {
    /// Views refreshed this publish (the whole catalog).
    pub refreshed: usize,
    /// Of those, how many fell back to full re-materialization.
    pub rematerialized: usize,
    /// Depth of the execution order (1 without composed views).
    pub levels: usize,
    /// Per-view breakdown (one entry per catalog view, in [`ViewId`]
    /// order), the input signal for per-view telemetry.
    pub per_view: Vec<ViewRefreshStat>,
}

/// The per-publish materialization DAG: catalog views topo-sorted by
/// their input dependency (base graph, or another view for composed
/// views), grouped into levels of mutually independent views.
///
/// ```text
///            base graph ──┬────────────┬──────────────┐
///                         ▼            ▼              ▼
/// level 0:         [connector]   [summarizer]   [source-sink]
///                         │
///                         ▼ ViewDelta
/// level 1:      [composed: summarizer over connector]
/// ```
///
/// [`RefreshDag::refresh`] runs every view of a level concurrently on
/// the caller's [`ParallelExec`], then feeds refreshed graphs (and their
/// [`ViewDelta`]s) to the next level.
#[derive(Debug, Clone)]
pub struct RefreshDag {
    /// True catalog slot ids, grouped into run-order levels. With
    /// tombstoned slots present these are not contiguous.
    levels: Vec<Vec<ViewId>>,
    /// Live slot ids in catalog order: the dense-index → slot-id map
    /// the refresh loop works through.
    ids: Vec<ViewId>,
    /// Upstream edge per live view, as a dense index into `ids`.
    deps: Vec<Option<usize>>,
}

impl RefreshDag {
    /// Topo-sorts `catalog` into parallelizable execution levels. A
    /// composed view depends on the catalog entry materializing its
    /// upstream connector, when present; every other view (and a
    /// composed view whose upstream is not cataloged) reads the base
    /// graph and lands in level 0. Levels carry true catalog slot ids,
    /// so the DAG stays correct over a catalog with tombstoned slots.
    pub fn build(catalog: &Catalog) -> Self {
        let entries: Vec<(ViewId, &ViewDef)> = catalog
            .iter_with_ids()
            .map(|(id, v)| (id, &v.def))
            .collect();
        let n = entries.len();
        let mut deps: Vec<Option<usize>> = vec![None; n];
        for (i, (_, def)) in entries.iter().enumerate() {
            if let Some(up) = def.upstream_id() {
                deps[i] = entries.iter().position(|(_, d)| d.id() == up);
            }
        }
        // dependency chains are acyclic (a composed view's upstream is
        // always a plain connector), so level = chain depth
        let mut level_of = vec![0usize; n];
        for i in 0..n {
            let mut depth = 0;
            let mut cur = deps[i];
            while let Some(j) = cur {
                depth += 1;
                cur = deps[j];
            }
            level_of[i] = depth;
        }
        let max_level = level_of.iter().copied().max().unwrap_or(0);
        let mut levels: Vec<Vec<ViewId>> = vec![Vec::new(); if n == 0 { 0 } else { max_level + 1 }];
        for (i, &l) in level_of.iter().enumerate() {
            levels[l].push(entries[i].0);
        }
        let ids = entries.iter().map(|&(id, _)| id).collect();
        RefreshDag { levels, ids, deps }
    }

    /// The parallelizable execution levels, in run order. Views within
    /// a level are mutually independent.
    pub fn execution_order(&self) -> &[Vec<ViewId>] {
        &self.levels
    }

    /// Refreshes every catalog view after `applied`, level by level —
    /// views within a level run concurrently on `opts.exec` —
    /// and returns the refreshed catalog (each view replaced in its
    /// own slot, so [`ViewId`]s and tombstones stay stable) plus a
    /// [`RefreshReport`].
    ///
    /// Must be called with the same catalog (same live slots) the DAG
    /// was built from.
    pub fn refresh(
        &self,
        catalog: &Catalog,
        applied: &AppliedDelta,
        opts: &RefreshOptions<'_>,
    ) -> (Catalog, RefreshReport) {
        let views: Vec<&MaterializedView> = self
            .ids
            .iter()
            .map(|&vid| {
                catalog
                    .get_by_id(vid)
                    .expect("refresh over the catalog this DAG was built from")
            })
            .collect();
        // dense position of each slot id, for level → results indexing
        let dense_of = |vid: ViewId| -> usize {
            self.ids
                .iter()
                .position(|&x| x == vid)
                .expect("level ids come from this DAG")
        };
        let mut results: Vec<Option<Refreshed>> = (0..views.len()).map(|_| None).collect();
        let mut timings: Vec<std::time::Duration> = vec![std::time::Duration::ZERO; views.len()];
        let mut level_of: Vec<usize> = vec![0; views.len()];
        for (l, level) in self.levels.iter().enumerate() {
            for &vid in level {
                level_of[dense_of(vid)] = l;
            }
        }
        for level in &self.levels {
            let run = |i: usize, done: &[Option<Refreshed>]| -> (Refreshed, std::time::Duration) {
                let view = views[i];
                let upstream = self.deps[i].map(|j| {
                    let up = done[j]
                        .as_ref()
                        .expect("upstream level scheduled before dependents");
                    Upstream {
                        old: &views[j].graph,
                        new: &up.graph,
                        delta: &up.delta,
                    }
                });
                let ctx = RefreshCtx {
                    partition: opts.partition,
                    upstream,
                    exec: opts.exec,
                };
                let t0 = std::time::Instant::now();
                let refreshed = view.def.maintainer_in(ctx).refresh(&view.graph, applied);
                (refreshed, t0.elapsed())
            };
            let outs: Vec<(usize, Refreshed, std::time::Duration)> = if let Some(exec) =
                opts.exec.filter(|_| level.len() > 1)
            {
                let run = &run;
                let done: &[Option<Refreshed>] = &results;
                let slots: Vec<std::sync::Mutex<Option<(usize, Refreshed, std::time::Duration)>>> =
                    level.iter().map(|_| std::sync::Mutex::new(None)).collect();
                let dense: Vec<usize> = level.iter().map(|&vid| dense_of(vid)).collect();
                exec.run(level.len(), &|k| {
                    let i = dense[k];
                    let (r, dt) = run(i, done);
                    *slots[k].lock().unwrap_or_else(|e| e.into_inner()) = Some((i, r, dt));
                });
                slots
                    .into_iter()
                    .map(|s| {
                        s.into_inner()
                            .unwrap_or_else(|e| e.into_inner())
                            .expect("every refresh task completed")
                    })
                    .collect()
            } else {
                level
                    .iter()
                    .map(|&vid| {
                        let i = dense_of(vid);
                        let (r, dt) = run(i, &results);
                        (i, r, dt)
                    })
                    .collect()
            };
            for (i, r, dt) in outs {
                results[i] = Some(r);
                timings[i] = dt;
            }
        }
        let mut rematerialized = 0;
        let mut per_view = Vec::with_capacity(views.len());
        // replace each view in its own slot so the refreshed catalog
        // keeps the exact slot layout (ids and tombstones) of the input
        let mut catalog_new = catalog.clone();
        for (i, (view, r)) in views.iter().zip(results).enumerate() {
            let r = r.expect("every view is in exactly one level");
            if r.rematerialized {
                rematerialized += 1;
            }
            per_view.push(ViewRefreshStat {
                view: self.ids[i],
                level: level_of[i],
                duration: timings[i],
                recomputed: r.delta.recomputed,
                rematerialized: r.rematerialized,
            });
            catalog_new.replace(
                self.ids[i],
                MaterializedView::new(view.def.clone(), r.graph),
            );
        }
        (
            catalog_new,
            RefreshReport {
                refreshed: views.len(),
                rematerialized,
                levels: self.levels.len(),
                per_view,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::{GraphDelta, VRef};
    use crate::materialize::materialize;
    use crate::views::PropPredicate;
    use kaskade_graph::Value;

    /// Canonical fingerprint: vertices in id order (type + sorted
    /// props), edges as a sorted multiset — the same identity the
    /// serving consistency oracle checks.
    type Fingerprint = (Vec<(String, Vec<(String, String)>)>, Vec<String>);
    fn fingerprint(g: &Graph) -> Fingerprint {
        let verts = g
            .vertices()
            .map(|v| {
                let mut props: Vec<(String, String)> = g
                    .vertex_props(v)
                    .iter()
                    .map(|(k, val)| (g.resolve(k).to_string(), format!("{val:?}")))
                    .collect();
                props.sort();
                (g.vertex_type(v).to_string(), props)
            })
            .collect();
        let mut edges: Vec<String> = g
            .edges()
            .map(|e| {
                let mut props: Vec<(String, String)> = g
                    .edge_props(e)
                    .iter()
                    .map(|(k, val)| (g.resolve(k).to_string(), format!("{val:?}")))
                    .collect();
                props.sort();
                format!(
                    "{}->{} {} {props:?}",
                    g.edge_src(e).0,
                    g.edge_dst(e).0,
                    g.edge_type(e)
                )
            })
            .collect();
        edges.sort();
        (verts, edges)
    }

    fn lineage() -> Graph {
        let mut b = GraphBuilder::new();
        let j1 = b.add_vertex("Job");
        b.set_vertex_prop(j1, "CPU", Value::Int(4));
        b.set_vertex_prop(j1, "pipelineName", Value::Str("p0".into()));
        let f1 = b.add_vertex("File");
        let j2 = b.add_vertex("Job");
        b.set_vertex_prop(j2, "CPU", Value::Int(9));
        b.set_vertex_prop(j2, "pipelineName", Value::Str("p0".into()));
        let f2 = b.add_vertex("File");
        let j3 = b.add_vertex("Job");
        b.set_vertex_prop(j3, "CPU", Value::Int(2));
        b.set_vertex_prop(j3, "pipelineName", Value::Str("p1".into()));
        for (i, (s, d, t)) in [
            (j1, f1, "WRITES_TO"),
            (f1, j2, "IS_READ_BY"),
            (j2, f2, "WRITES_TO"),
            (f2, j3, "IS_READ_BY"),
        ]
        .iter()
        .enumerate()
        {
            let e = b.add_edge(*s, *d, t);
            b.set_edge_prop(e, "ts", Value::Int(i as i64));
        }
        b.finish()
    }

    fn all_defs() -> Vec<ViewDef> {
        let conn = ConnectorDef::k_hop("Job", "Job", 2);
        vec![
            ViewDef::Connector(conn.clone()),
            ViewDef::SourceSink(SourceSinkDef::default()),
            ViewDef::Summarizer(SummarizerDef::VertexAggregator {
                vtype: "Job".into(),
                group_prop: "pipelineName".into(),
                agg_prop: "CPU".into(),
                agg: AggOp::Sum,
            }),
            ViewDef::Summarizer(SummarizerDef::VertexInclusion {
                keep: vec!["Job".into()],
            }),
            ViewDef::Composed(ComposedDef {
                connector: conn,
                summarizer: SummarizerDef::EdgePredicate {
                    keep: PropPredicate::IntAtLeast("support".into(), 1),
                },
            }),
        ]
    }

    fn catalog_over(g: &Graph) -> Catalog {
        let mut c = Catalog::new();
        for def in all_defs() {
            let graph = materialize(g, &def);
            c.add(MaterializedView::new(def, graph));
        }
        c
    }

    #[test]
    fn execution_order_puts_composed_after_upstream() {
        let g = lineage();
        let catalog = catalog_over(&g);
        let dag = RefreshDag::build(&catalog);
        let order = dag.execution_order();
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].len(), 4);
        assert_eq!(order[1], vec![ViewId(4)]);
    }

    #[test]
    fn dag_refresh_matches_scratch_for_every_variant() {
        let g = lineage();
        let catalog = catalog_over(&g);
        let dag = RefreshDag::build(&catalog);

        // grow: new job joins p1, reads f2; also a brand-new pipeline
        let mut d = GraphDelta::new();
        let j = d.add_vertex(
            "Job",
            vec![
                ("CPU".into(), Value::Int(7)),
                ("pipelineName".into(), Value::Str("p1".into())),
            ],
        );
        d.add_edge(
            VRef::Existing(VertexId(3)),
            j,
            "IS_READ_BY",
            vec![("ts".into(), Value::Int(10))],
        );
        let j4 = d.add_vertex(
            "Job",
            vec![
                ("CPU".into(), Value::Int(1)),
                ("pipelineName".into(), Value::Str("p2".into())),
            ],
        );
        let f = d.add_vertex("File", vec![]);
        d.add_edge(j4, f, "WRITES_TO", vec![("ts".into(), Value::Int(11))]);
        let applied = crate::maintain::apply_delta(&g, &d);
        let (refreshed, report) = dag.refresh(&catalog, &applied, &RefreshOptions::default());
        assert_eq!(report.refreshed, 5);
        assert_eq!(report.rematerialized, 0);
        assert_eq!(report.levels, 2);
        for view in refreshed.iter() {
            let scratch = materialize(&applied.graph, &view.def);
            assert_eq!(
                fingerprint(&view.graph),
                fingerprint(&scratch),
                "view {} diverged from scratch",
                view.def.id()
            );
        }

        // shrink: retract a job (kills a group member and a source path)
        let mut d2 = GraphDelta::new();
        d2.del_vertex(VertexId(2));
        let applied2 = crate::maintain::apply_delta(&applied.graph, &d2);
        let (refreshed2, report2) = dag.refresh(&refreshed, &applied2, &RefreshOptions::default());
        assert_eq!(report2.rematerialized, 0);
        for view in refreshed2.iter() {
            let scratch = materialize(&applied2.graph, &view.def);
            assert_eq!(
                fingerprint(&view.graph),
                fingerprint(&scratch),
                "view {} diverged from scratch after retraction",
                view.def.id()
            );
        }
    }

    #[test]
    fn min_max_witness_death_rescans_one_group() {
        let mut b = GraphBuilder::new();
        for (cpu, p) in [(3, "p0"), (8, "p0"), (5, "p1")] {
            let j = b.add_vertex("Job");
            b.set_vertex_prop(j, "CPU", Value::Int(cpu));
            b.set_vertex_prop(j, "pipelineName", Value::Str(p.into()));
        }
        let g = b.finish();
        let def = ViewDef::Summarizer(SummarizerDef::VertexAggregator {
            vtype: "Job".into(),
            group_prop: "pipelineName".into(),
            agg_prop: "CPU".into(),
            agg: AggOp::Max,
        });
        let view = materialize(&g, &def);
        // retract the p0 witness (CPU=8): MAX must fall back to 3
        let mut d = GraphDelta::new();
        d.del_vertex(VertexId(1));
        let applied = crate::maintain::apply_delta(&g, &d);
        let refreshed = def.maintainer().refresh(&view, &applied);
        assert!(!refreshed.rematerialized);
        assert_eq!(
            refreshed.delta.recomputed, 1,
            "exactly one group re-scanned"
        );
        assert_eq!(
            fingerprint(&refreshed.graph),
            fingerprint(&materialize(&applied.graph, &def))
        );
        // retract a non-witness (p1 untouched, p0's max stands): no re-scan
        let mut d2 = GraphDelta::new();
        d2.del_vertex(VertexId(0));
        let applied2 = crate::maintain::apply_delta(&applied.graph, &d2);
        let view2 = refreshed.graph;
        let refreshed2 = def.maintainer().refresh(&view2, &applied2);
        assert_eq!(
            fingerprint(&refreshed2.graph),
            fingerprint(&materialize(&applied2.graph, &def))
        );
    }

    #[test]
    fn composed_without_upstream_counts_as_rematerialization() {
        let g = lineage();
        let def = ViewDef::Composed(ComposedDef {
            connector: ConnectorDef::k_hop("Job", "Job", 2),
            summarizer: SummarizerDef::EdgePredicate {
                keep: PropPredicate::IntAtLeast("support".into(), 1),
            },
        });
        let mut catalog = Catalog::new();
        catalog.add(MaterializedView::new(def.clone(), materialize(&g, &def)));
        let dag = RefreshDag::build(&catalog);
        assert_eq!(dag.execution_order().len(), 1);
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        let applied = crate::maintain::apply_delta(&g, &d);
        let (_, report) = dag.refresh(&catalog, &applied, &RefreshOptions::default());
        assert_eq!(report.rematerialized, 1);
    }

    #[test]
    fn empty_delta_reuses_summarizer_and_composed_graphs() {
        let g = lineage();
        let catalog = catalog_over(&g);
        let dag = RefreshDag::build(&catalog);
        let applied = crate::maintain::apply_delta(&g, &GraphDelta::new());
        let (refreshed, report) = dag.refresh(&catalog, &applied, &RefreshOptions::default());
        assert_eq!(report.rematerialized, 0);
        for (old, new) in catalog.iter().zip(refreshed.iter()) {
            assert_eq!(fingerprint(&old.graph), fingerprint(&new.graph));
        }
    }
}

//! The in-memory property graph: mutable builder + immutable CSR form.
//!
//! Graphs are constructed through [`GraphBuilder`] (arbitrary insertion
//! order) and then frozen into a [`Graph`], which stores adjacency in
//! compressed sparse row (CSR) form — one offsets array plus one packed
//! neighbor array for each direction. All query-time structures in the
//! workspace (pattern matching, traversals, view materialization) operate
//! on the frozen form; views are separate `Graph`s, never in-place edits.

use std::fmt;

use crate::interner::{Interner, Symbol};
use crate::schema::Schema;
use crate::value::{PropMap, Value};

/// Dense vertex identifier (index into the vertex arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Dense edge identifier (index into the edge arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A mutable graph under construction.
///
/// ```
/// use kaskade_graph::{GraphBuilder, Value};
/// let mut b = GraphBuilder::new();
/// let j = b.add_vertex("Job");
/// let f = b.add_vertex("File");
/// b.set_vertex_prop(j, "cpu", Value::Int(12));
/// b.add_edge(j, f, "WRITES_TO");
/// let g = b.finish();
/// assert_eq!(g.vertex_count(), 2);
/// assert_eq!(g.out_degree(j), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    interner: Interner,
    vtypes: Vec<Symbol>,
    vprops: Vec<PropMap>,
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
    etypes: Vec<Symbol>,
    eprops: Vec<PropMap>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates for roughly `v` vertices and `e` edges.
    pub fn with_capacity(v: usize, e: usize) -> Self {
        let mut b = Self::new();
        b.vtypes.reserve(v);
        b.vprops.reserve(v);
        b.srcs.reserve(e);
        b.dsts.reserve(e);
        b.etypes.reserve(e);
        b.eprops.reserve(e);
        b
    }

    /// Adds a vertex of type `vtype` and returns its id.
    pub fn add_vertex(&mut self, vtype: &str) -> VertexId {
        let t = self.interner.intern(vtype);
        let id = VertexId(self.vtypes.len() as u32);
        self.vtypes.push(t);
        self.vprops.push(PropMap::new());
        id
    }

    /// Sets a property on an existing vertex.
    pub fn set_vertex_prop(&mut self, v: VertexId, key: &str, value: Value) {
        let k = self.interner.intern(key);
        self.vprops[v.index()].insert(k, value);
    }

    /// Adds a directed edge `src -[:etype]-> dst` and returns its id.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, etype: &str) -> EdgeId {
        debug_assert!(src.index() < self.vtypes.len(), "src out of range");
        debug_assert!(dst.index() < self.vtypes.len(), "dst out of range");
        let t = self.interner.intern(etype);
        let id = EdgeId(self.srcs.len() as u32);
        self.srcs.push(src);
        self.dsts.push(dst);
        self.etypes.push(t);
        self.eprops.push(PropMap::new());
        id
    }

    /// Sets a property on an existing edge.
    pub fn set_edge_prop(&mut self, e: EdgeId, key: &str, value: Value) {
        let k = self.interner.intern(key);
        self.eprops[e.index()].insert(k, value);
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vtypes.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.srcs.len()
    }

    /// Validates every edge against `schema`, returning the first violation.
    pub fn validate(&self, schema: &Schema) -> Result<(), crate::schema::SchemaError> {
        for i in 0..self.srcs.len() {
            let s = self.interner.resolve(self.vtypes[self.srcs[i].index()]);
            let d = self.interner.resolve(self.vtypes[self.dsts[i].index()]);
            let e = self.interner.resolve(self.etypes[i]);
            schema.check_edge(s, e, d)?;
        }
        Ok(())
    }

    /// Freezes the builder into an immutable CSR [`Graph`].
    pub fn finish(self) -> Graph {
        let n = self.vtypes.len();
        let m = self.srcs.len();

        // Counting sort of edges by source (out-CSR) and by dest (in-CSR).
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for i in 0..m {
            out_offsets[self.srcs[i].index() + 1] += 1;
            in_offsets[self.dsts[i].index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_edges = vec![EdgeId(0); m];
        let mut in_edges = vec![EdgeId(0); m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for i in 0..m {
            let s = self.srcs[i].index();
            let d = self.dsts[i].index();
            out_edges[out_cursor[s] as usize] = EdgeId(i as u32);
            out_cursor[s] += 1;
            in_edges[in_cursor[d] as usize] = EdgeId(i as u32);
            in_cursor[d] += 1;
        }

        Graph {
            inner: std::sync::Arc::new(GraphInner {
                interner: self.interner,
                vtypes: self.vtypes,
                vprops: self.vprops,
                srcs: self.srcs,
                dsts: self.dsts,
                etypes: self.etypes,
                eprops: self.eprops,
                vertex_dead: Vec::new(),
                edge_dead: Vec::new(),
                live_vertices: n,
                live_edges: m,
                out_offsets,
                out_edges,
                in_offsets,
                in_edges,
            }),
        }
    }
}

/// An immutable property graph in CSR form.
///
/// All adjacency queries are O(degree); type and property lookups are O(1)
/// array reads (plus a binary search within the small per-object property
/// list).
///
/// The frozen payload lives behind an [`std::sync::Arc`], so `Graph::clone` is O(1)
/// and clones share storage: snapshots, materialized views, and serving
/// runtimes can hand out copies freely without duplicating the CSR
/// arrays. A `Graph` is never mutated after [`GraphBuilder::finish`];
/// "updates" build a new graph (see `kaskade-core`'s delta maintenance).
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) inner: std::sync::Arc<GraphInner>,
}

/// The frozen CSR payload shared by all clones of a [`Graph`].
///
/// Deletion support works by **tombstoning**: removed vertices and
/// edges keep their id slot (so `VertexId`/`EdgeId` handed out earlier
/// stay valid forever — snapshots, queued deltas, and incremental view
/// maintenance all rely on id stability) but are flagged dead, skipped
/// by every iterator, and excluded from the adjacency arrays. An empty
/// `vertex_dead`/`edge_dead` vector means "nothing dead" (the common,
/// freshly built case).
#[derive(Debug, Clone)]
pub(crate) struct GraphInner {
    pub(crate) interner: Interner,
    pub(crate) vtypes: Vec<Symbol>,
    pub(crate) vprops: Vec<PropMap>,
    pub(crate) srcs: Vec<VertexId>,
    pub(crate) dsts: Vec<VertexId>,
    pub(crate) etypes: Vec<Symbol>,
    pub(crate) eprops: Vec<PropMap>,
    pub(crate) vertex_dead: Vec<bool>,
    pub(crate) edge_dead: Vec<bool>,
    pub(crate) live_vertices: usize,
    pub(crate) live_edges: usize,
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_edges: Vec<EdgeId>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_edges: Vec<EdgeId>,
}

impl GraphInner {
    #[inline]
    pub(crate) fn vertex_is_live(&self, i: usize) -> bool {
        self.vertex_dead.is_empty() || !self.vertex_dead[i]
    }

    #[inline]
    pub(crate) fn edge_is_live(&self, i: usize) -> bool {
        self.edge_dead.is_empty() || !self.edge_dead[i]
    }
}

impl Graph {
    /// Number of **live** vertices (tombstoned vertices excluded).
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.inner.live_vertices
    }

    /// Number of **live** edges (tombstoned edges excluded).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.inner.live_edges
    }

    /// Number of vertex id slots, live or dead. Every `VertexId` ever
    /// issued for this graph is `< vertex_slots()`; use this (not
    /// [`Graph::vertex_count`]) to size id-indexed arrays.
    #[inline]
    pub fn vertex_slots(&self) -> usize {
        self.inner.vtypes.len()
    }

    /// Number of edge id slots, live or dead (the edge analogue of
    /// [`Graph::vertex_slots`]).
    #[inline]
    pub fn edge_slots(&self) -> usize {
        self.inner.srcs.len()
    }

    /// Whether `v` is live (not tombstoned). Ids at or past
    /// [`Graph::vertex_slots`] are reported dead.
    #[inline]
    pub fn is_vertex_live(&self, v: VertexId) -> bool {
        v.index() < self.inner.vtypes.len() && self.inner.vertex_is_live(v.index())
    }

    /// Whether `e` is live (not tombstoned).
    #[inline]
    pub fn is_edge_live(&self, e: EdgeId) -> bool {
        e.index() < self.inner.srcs.len() && self.inner.edge_is_live(e.index())
    }

    /// Kept for callers written against partitioned graphs: every
    /// vertex is owned, so this equals [`Graph::vertex_count`].
    #[inline]
    pub fn owned_vertex_count(&self) -> usize {
        self.inner.live_vertices
    }

    /// Iterator over all live vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.inner.vtypes.len() as u32)
            .map(VertexId)
            .filter(|v| self.inner.vertex_is_live(v.index()))
    }

    /// Iterator over all live edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.inner.srcs.len() as u32)
            .map(EdgeId)
            .filter(|e| self.inner.edge_is_live(e.index()))
    }

    /// The interned type symbol of `v`.
    #[inline]
    pub fn vertex_type_sym(&self, v: VertexId) -> Symbol {
        self.inner.vtypes[v.index()]
    }

    /// The type name of `v`.
    #[inline]
    pub fn vertex_type(&self, v: VertexId) -> &str {
        self.inner.interner.resolve(self.inner.vtypes[v.index()])
    }

    /// The interned type symbol of `e`.
    #[inline]
    pub fn edge_type_sym(&self, e: EdgeId) -> Symbol {
        self.inner.etypes[e.index()]
    }

    /// The type name of `e`.
    #[inline]
    pub fn edge_type(&self, e: EdgeId) -> &str {
        self.inner.interner.resolve(self.inner.etypes[e.index()])
    }

    /// Source vertex of `e`.
    #[inline]
    pub fn edge_src(&self, e: EdgeId) -> VertexId {
        self.inner.srcs[e.index()]
    }

    /// Destination vertex of `e`.
    #[inline]
    pub fn edge_dst(&self, e: EdgeId) -> VertexId {
        self.inner.dsts[e.index()]
    }

    /// Looks up the symbol for a type/property name if it occurs anywhere
    /// in this graph.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.inner.interner.get(name)
    }

    /// Resolves an interned symbol to its string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.inner.interner.resolve(sym)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.inner.out_offsets[v.index() + 1] - self.inner.out_offsets[v.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.inner.in_offsets[v.index() + 1] - self.inner.in_offsets[v.index()]) as usize
    }

    /// Outgoing edges of `v` as `(edge, dst)` pairs.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, VertexId)> + '_ {
        let lo = self.inner.out_offsets[v.index()] as usize;
        let hi = self.inner.out_offsets[v.index() + 1] as usize;
        self.inner.out_edges[lo..hi]
            .iter()
            .map(|&e| (e, self.inner.dsts[e.index()]))
    }

    /// Incoming edges of `v` as `(edge, src)` pairs.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, VertexId)> + '_ {
        let lo = self.inner.in_offsets[v.index()] as usize;
        let hi = self.inner.in_offsets[v.index() + 1] as usize;
        self.inner.in_edges[lo..hi]
            .iter()
            .map(|&e| (e, self.inner.srcs[e.index()]))
    }

    /// Out-neighbors of `v` (may repeat under parallel edges).
    pub fn out_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_edges(v).map(|(_, d)| d)
    }

    /// In-neighbors of `v` (may repeat under parallel edges).
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.in_edges(v).map(|(_, s)| s)
    }

    /// A vertex property, by key name.
    pub fn vertex_prop(&self, v: VertexId, key: &str) -> Option<&Value> {
        let k = self.inner.interner.get(key)?;
        self.inner.vprops[v.index()].get(k)
    }

    /// A vertex property, by interned key.
    #[inline]
    pub fn vertex_prop_sym(&self, v: VertexId, key: Symbol) -> Option<&Value> {
        self.inner.vprops[v.index()].get(key)
    }

    /// An edge property, by key name.
    pub fn edge_prop(&self, e: EdgeId, key: &str) -> Option<&Value> {
        let k = self.inner.interner.get(key)?;
        self.inner.eprops[e.index()].get(k)
    }

    /// An edge property, by interned key.
    #[inline]
    pub fn edge_prop_sym(&self, e: EdgeId, key: Symbol) -> Option<&Value> {
        self.inner.eprops[e.index()].get(key)
    }

    /// All properties of a vertex.
    pub fn vertex_props(&self, v: VertexId) -> &PropMap {
        &self.inner.vprops[v.index()]
    }

    /// All properties of an edge.
    pub fn edge_props(&self, e: EdgeId) -> &PropMap {
        &self.inner.eprops[e.index()]
    }

    /// Iterator over vertices of the given type name. Empty if the type
    /// does not occur.
    pub fn vertices_of_type<'a>(&'a self, vtype: &str) -> Box<dyn Iterator<Item = VertexId> + 'a> {
        match self.inner.interner.get(vtype) {
            Some(sym) => Box::new(
                self.vertices()
                    .filter(move |v| self.inner.vtypes[v.index()] == sym),
            ),
            None => Box::new(std::iter::empty()),
        }
    }

    /// Count of vertices per type name, sorted by name.
    pub fn vertex_type_counts(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for v in self.vertices() {
            *counts.entry(self.vertex_type(v)).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(k, c)| (k.to_string(), c))
            .collect()
    }

    /// Count of edges per type name, sorted by name.
    pub fn edge_type_counts(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for e in self.edges() {
            *counts.entry(self.edge_type(e)).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(k, c)| (k.to_string(), c))
            .collect()
    }

    /// Derives the schema implied by this graph's edges (one rule per
    /// distinct (src type, edge type, dst type) triple).
    pub fn infer_schema(&self) -> Schema {
        let mut s = Schema::new();
        for v in self.vertices() {
            s.add_vertex_type(self.vertex_type(v));
        }
        for e in self.edges() {
            let src = self.vertex_type(self.edge_src(e));
            let dst = self.vertex_type(self.edge_dst(e));
            s.add_edge_rule(src, self.edge_type(e), dst);
        }
        s
    }

    /// Builds a new graph containing only the first `m` edges (insertion
    /// order) and the vertices incident to them. Used by the Fig. 5
    /// "first n edges" prefix experiments.
    pub fn edge_prefix(&self, m: usize) -> Graph {
        let m = m.min(self.edge_count());
        let prefix: Vec<EdgeId> = self.edges().take(m).collect();
        let mut keep = vec![false; self.vertex_slots()];
        for &e in &prefix {
            keep[self.inner.srcs[e.index()].index()] = true;
            keep[self.inner.dsts[e.index()].index()] = true;
        }
        let mut b = GraphBuilder::new();
        let mut remap = vec![VertexId(u32::MAX); self.vertex_slots()];
        for v in self.vertices() {
            if keep[v.index()] {
                let nv = b.add_vertex(self.vertex_type(v));
                for (k, val) in self.inner.vprops[v.index()].iter() {
                    b.set_vertex_prop(nv, self.inner.interner.resolve(k), val.clone());
                }
                remap[v.index()] = nv;
            }
        }
        for &e in &prefix {
            let ne = b.add_edge(
                remap[self.inner.srcs[e.index()].index()],
                remap[self.inner.dsts[e.index()].index()],
                self.edge_type(e),
            );
            for (k, val) in self.inner.eprops[e.index()].iter() {
                b.set_edge_prop(ne, self.inner.interner.resolve(k), val.clone());
            }
        }
        b.finish()
    }
}

/// Structural-identity oracle for differential tests: `Ok(())` iff the
/// two graphs are the same dense representation — equal slot layouts,
/// liveness, types and properties (interned symbols
/// resolved through each graph's own interner), endpoints, and CSR
/// adjacency arrays. On mismatch returns a description of the first
/// divergence.
pub fn same_dense_graph(a: &Graph, b: &Graph) -> Result<(), String> {
    fn fail(what: &str, detail: impl std::fmt::Display) -> Result<(), String> {
        Err(format!("{what}: {detail}"))
    }
    let (ia, ib) = (&*a.inner, &*b.inner);
    if ia.vtypes.len() != ib.vtypes.len() {
        return fail(
            "vertex slots",
            format_args!("{} vs {}", ia.vtypes.len(), ib.vtypes.len()),
        );
    }
    if ia.srcs.len() != ib.srcs.len() {
        return fail(
            "edge slots",
            format_args!("{} vs {}", ia.srcs.len(), ib.srcs.len()),
        );
    }
    if (ia.live_vertices, ia.live_edges) != (ib.live_vertices, ib.live_edges) {
        return fail(
            "live counts",
            format_args!(
                "({}, {}) vs ({}, {})",
                ia.live_vertices, ia.live_edges, ib.live_vertices, ib.live_edges
            ),
        );
    }
    let resolved = |g: &Graph, props: &PropMap| -> Vec<(String, Value)> {
        props
            .iter()
            .map(|(k, v)| (g.resolve(k).to_string(), v.clone()))
            .collect()
    };
    for i in 0..ia.vtypes.len() {
        let v = VertexId(i as u32);
        if a.is_vertex_live(v) != b.is_vertex_live(v) {
            return fail("vertex liveness", v);
        }
        if a.vertex_type(v) != b.vertex_type(v) {
            return fail(
                "vertex type",
                format_args!("{v}: {} vs {}", a.vertex_type(v), b.vertex_type(v)),
            );
        }
        if resolved(a, &ia.vprops[i]) != resolved(b, &ib.vprops[i]) {
            return fail("vertex props", v);
        }
    }
    for i in 0..ia.srcs.len() {
        let e = EdgeId(i as u32);
        if a.is_edge_live(e) != b.is_edge_live(e) {
            return fail("edge liveness", e.0);
        }
        if (ia.srcs[i], ia.dsts[i]) != (ib.srcs[i], ib.dsts[i]) {
            return fail(
                "edge endpoints",
                format_args!(
                    "e{}: {}->{} vs {}->{}",
                    i, ia.srcs[i], ia.dsts[i], ib.srcs[i], ib.dsts[i]
                ),
            );
        }
        if a.edge_type(e) != b.edge_type(e) {
            return fail("edge type", i);
        }
        if resolved(a, &ia.eprops[i]) != resolved(b, &ib.eprops[i]) {
            return fail("edge props", i);
        }
    }
    if ia.out_offsets != ib.out_offsets || ia.in_offsets != ib.in_offsets {
        return fail("CSR offsets", "out/in offset arrays differ");
    }
    if ia.out_edges != ib.out_edges || ia.in_edges != ib.in_edges {
        return fail("CSR adjacency", "out/in edge arrays differ");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineage_toy() -> Graph {
        // j1 -w-> f1 -r-> j2 ; j1 -w-> f2 -r-> j3 (Fig. 3(a) shape)
        let mut b = GraphBuilder::new();
        let j1 = b.add_vertex("Job");
        let f1 = b.add_vertex("File");
        let j2 = b.add_vertex("Job");
        let f2 = b.add_vertex("File");
        let j3 = b.add_vertex("Job");
        b.add_edge(j1, f1, "WRITES_TO");
        b.add_edge(f1, j2, "IS_READ_BY");
        b.add_edge(j1, f2, "WRITES_TO");
        b.add_edge(f2, j3, "IS_READ_BY");
        b.finish()
    }

    #[test]
    fn counts_and_types() {
        let g = lineage_toy();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.vertex_type(VertexId(0)), "Job");
        assert_eq!(g.vertex_type(VertexId(1)), "File");
        assert_eq!(g.edge_type(EdgeId(0)), "WRITES_TO");
    }

    #[test]
    fn adjacency_out_and_in() {
        let g = lineage_toy();
        let j1 = VertexId(0);
        assert_eq!(g.out_degree(j1), 2);
        assert_eq!(g.in_degree(j1), 0);
        let outs: Vec<u32> = g.out_neighbors(j1).map(|v| v.0).collect();
        assert_eq!(outs, vec![1, 3]);
        let f1 = VertexId(1);
        let ins: Vec<u32> = g.in_neighbors(f1).map(|v| v.0).collect();
        assert_eq!(ins, vec![0]);
    }

    #[test]
    fn properties_roundtrip() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex("Job");
        b.set_vertex_prop(v, "cpu", Value::Int(42));
        b.set_vertex_prop(v, "name", Value::Str("etl".into()));
        let w = b.add_vertex("File");
        let e = b.add_edge(v, w, "WRITES_TO");
        b.set_edge_prop(e, "ts", Value::Int(99));
        let g = b.finish();
        assert_eq!(g.vertex_prop(v, "cpu"), Some(&Value::Int(42)));
        assert_eq!(g.vertex_prop(v, "name"), Some(&Value::Str("etl".into())));
        assert_eq!(g.vertex_prop(v, "missing"), None);
        assert_eq!(g.edge_prop(e, "ts"), Some(&Value::Int(99)));
        assert_eq!(g.vertex_prop(w, "cpu"), None);
    }

    #[test]
    fn vertices_of_type_filters() {
        let g = lineage_toy();
        assert_eq!(g.vertices_of_type("Job").count(), 3);
        assert_eq!(g.vertices_of_type("File").count(), 2);
        assert_eq!(g.vertices_of_type("Task").count(), 0);
    }

    #[test]
    fn type_counts() {
        let g = lineage_toy();
        assert_eq!(
            g.vertex_type_counts(),
            vec![("File".to_string(), 2), ("Job".to_string(), 3)]
        );
        assert_eq!(
            g.edge_type_counts(),
            vec![("IS_READ_BY".to_string(), 2), ("WRITES_TO".to_string(), 2)]
        );
    }

    #[test]
    fn infer_schema_matches_provenance() {
        let g = lineage_toy();
        let s = g.infer_schema();
        assert!(s.allows_edge("Job", "WRITES_TO", "File"));
        assert!(s.allows_edge("File", "IS_READ_BY", "Job"));
        assert!(!s.allows_edge("Job", "IS_READ_BY", "File"));
    }

    #[test]
    fn builder_validate_against_schema() {
        let mut b = GraphBuilder::new();
        let j = b.add_vertex("Job");
        let f = b.add_vertex("File");
        b.add_edge(f, j, "WRITES_TO"); // wrong direction
        assert!(b.validate(&Schema::provenance()).is_err());
    }

    #[test]
    fn edge_prefix_keeps_incident_vertices() {
        let g = lineage_toy();
        let p = g.edge_prefix(2);
        assert_eq!(p.edge_count(), 2);
        // first two edges touch j1, f1, j2
        assert_eq!(p.vertex_count(), 3);
        // prefix larger than graph is the whole graph
        let q = g.edge_prefix(100);
        assert_eq!(q.edge_count(), 4);
        assert_eq!(q.vertex_count(), 5);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().finish();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn clone_shares_storage() {
        // O(1) clone: both handles point at the same frozen payload.
        let g = lineage_toy();
        let h = g.clone();
        assert!(std::sync::Arc::ptr_eq(&g.inner, &h.inner));
        assert_eq!(h.vertex_count(), g.vertex_count());
    }

    #[test]
    fn same_dense_graph_detects_divergence() {
        let g = lineage_toy();
        assert!(same_dense_graph(&g, &g).is_ok());
        let other = g.remove_edges([EdgeId(0)]);
        assert!(same_dense_graph(&g, &other).is_err());
    }

    #[test]
    fn parallel_edges_supported() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("V");
        let c = b.add_vertex("V");
        b.add_edge(a, c, "E");
        b.add_edge(a, c, "E");
        let g = b.finish();
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(c), 2);
    }

    #[test]
    fn self_loops_supported() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("V");
        b.add_edge(a, a, "E");
        let g = b.finish();
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.out_neighbors(a).next(), Some(a));
    }
}

//! Copy-on-write graph editing: append *and* retract without touching
//! the original.
//!
//! A [`GraphEditor`] starts from a frozen [`Graph`], stages any mix of
//! vertex/edge insertions and removals, and [`GraphEditor::finish`]es
//! into a new frozen graph with one CSR rebuild. The source graph —
//! and every snapshot sharing its `Arc`-backed payload — is never
//! mutated.
//!
//! Removal is **tombstoning**, not compaction: a removed vertex or
//! edge keeps its id slot (flagged dead, excluded from iteration and
//! adjacency) so ids stay stable across any sequence of edits. That
//! stability is what lets queued deltas, published snapshots, and
//! incremental view maintenance keep referring to `VertexId`s across
//! concurrent batches. Dead slots drop their property maps to reclaim
//! memory but keep their type symbol (diagnostics and view maintenance
//! still need to know what a dead vertex *was*).

use crate::graph::{EdgeId, Graph, GraphInner, VertexId};
use crate::value::{PropMap, Value};

/// A staged copy-on-write edit of a [`Graph`]; see the module docs.
///
/// ```
/// use kaskade_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let a = b.add_vertex("Job");
/// let f = b.add_vertex("File");
/// let e = b.add_edge(a, f, "WRITES_TO");
/// let g = b.finish();
///
/// let mut ed = g.edit();
/// ed.remove_edge(e);
/// let j2 = ed.add_vertex("Job");
/// ed.add_edge(f, j2, "IS_READ_BY");
/// let g2 = ed.finish();
/// assert_eq!(g.edge_count(), 1); // original untouched
/// assert_eq!(g2.edge_count(), 1); // one removed, one added
/// assert_eq!(g2.vertex_slots(), 3); // ids are stable, slots only grow
/// ```
#[derive(Debug)]
pub struct GraphEditor {
    base: Graph,
    vtypes: Vec<crate::interner::Symbol>,
    vprops: Vec<PropMap>,
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
    etypes: Vec<crate::interner::Symbol>,
    eprops: Vec<PropMap>,
    vertex_dead: Vec<bool>,
    edge_dead: Vec<bool>,
    interner: crate::interner::Interner,
}

impl Graph {
    /// Starts a copy-on-write edit session over this graph.
    pub fn edit(&self) -> GraphEditor {
        let inner = &*self.inner;
        let n = inner.vtypes.len();
        let m = inner.srcs.len();
        let mut vertex_dead = inner.vertex_dead.clone();
        vertex_dead.resize(n, false);
        let mut edge_dead = inner.edge_dead.clone();
        edge_dead.resize(m, false);
        GraphEditor {
            base: self.clone(),
            vtypes: inner.vtypes.clone(),
            vprops: inner.vprops.clone(),
            srcs: inner.srcs.clone(),
            dsts: inner.dsts.clone(),
            etypes: inner.etypes.clone(),
            eprops: inner.eprops.clone(),
            vertex_dead,
            edge_dead,
            interner: inner.interner.clone(),
        }
    }

    /// Returns a new graph with the given edges tombstoned. `self` and
    /// every clone sharing its payload are untouched; ids of surviving
    /// elements are unchanged. Each call clones the column data and
    /// rebuilds the CSR once (O(V+E)) — batch removals through a single
    /// [`Graph::edit`] session rather than looping over this.
    pub fn remove_edges(&self, edges: impl IntoIterator<Item = EdgeId>) -> Graph {
        let mut ed = self.edit();
        for e in edges {
            ed.remove_edge(e);
        }
        ed.finish()
    }

    /// Returns a new graph with the given vertices — and every edge
    /// incident to them — tombstoned. `self` is untouched; surviving
    /// ids are unchanged. Like [`Graph::remove_edges`], each call costs
    /// a full O(V+E) rebuild — batch through [`Graph::edit`].
    pub fn remove_vertices(&self, vertices: impl IntoIterator<Item = VertexId>) -> Graph {
        let mut ed = self.edit();
        for v in vertices {
            ed.remove_vertex(v);
        }
        ed.finish()
    }
}

impl GraphEditor {
    /// Appends a vertex of type `vtype`, returning its (stable) id.
    pub fn add_vertex(&mut self, vtype: &str) -> VertexId {
        let t = self.interner.intern(vtype);
        let id = VertexId(self.vtypes.len() as u32);
        self.vtypes.push(t);
        self.vprops.push(PropMap::new());
        self.vertex_dead.push(false);
        id
    }

    /// Sets a property on a vertex (existing or just added).
    pub fn set_vertex_prop(&mut self, v: VertexId, key: &str, value: Value) {
        let k = self.interner.intern(key);
        self.vprops[v.index()].insert(k, value);
    }

    /// Appends a directed edge, returning its (stable) id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or dead.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, etype: &str) -> EdgeId {
        assert!(
            self.is_vertex_live(src),
            "edge source {src} is dead or out of range"
        );
        assert!(
            self.is_vertex_live(dst),
            "edge destination {dst} is dead or out of range"
        );
        let t = self.interner.intern(etype);
        let id = EdgeId(self.srcs.len() as u32);
        self.srcs.push(src);
        self.dsts.push(dst);
        self.etypes.push(t);
        self.eprops.push(PropMap::new());
        self.edge_dead.push(false);
        id
    }

    /// Sets a property on an edge (existing or just added).
    pub fn set_edge_prop(&mut self, e: EdgeId, key: &str, value: Value) {
        let k = self.interner.intern(key);
        self.eprops[e.index()].insert(k, value);
    }

    /// Whether `v` is currently live in this edit session.
    pub fn is_vertex_live(&self, v: VertexId) -> bool {
        v.index() < self.vtypes.len() && !self.vertex_dead[v.index()]
    }

    /// Whether `e` is currently live in this edit session.
    pub fn is_edge_live(&self, e: EdgeId) -> bool {
        e.index() < self.srcs.len() && !self.edge_dead[e.index()]
    }

    /// Number of vertex id slots (live or dead, staged adds included).
    pub fn vertex_slots(&self) -> usize {
        self.vtypes.len()
    }

    /// Number of edge id slots (live or dead, staged adds included).
    pub fn edge_slots(&self) -> usize {
        self.srcs.len()
    }

    /// Tombstones an edge. Returns `false` (and does nothing) if it was
    /// already dead or out of range.
    pub fn remove_edge(&mut self, e: EdgeId) -> bool {
        if !self.is_edge_live(e) {
            return false;
        }
        self.edge_dead[e.index()] = true;
        self.eprops[e.index()] = PropMap::new();
        true
    }

    /// Tombstones a vertex and every live edge incident to it — both
    /// edges of the base graph and edges staged in this session.
    /// Returns the removed incident edges as `(id, src, dst)` triples
    /// (empty if `v` was already dead or out of range).
    pub fn remove_vertex(&mut self, v: VertexId) -> Vec<(EdgeId, VertexId, VertexId)> {
        if !self.is_vertex_live(v) {
            return Vec::new();
        }
        let mut removed = Vec::new();
        // base-graph incidence comes from the old CSR; staged edges are
        // scanned directly (there are only as many as this edit added)
        let base_edges = self.base.edge_slots();
        if v.index() < self.base.vertex_slots() {
            let incident: Vec<EdgeId> = self
                .base
                .out_edges(v)
                .map(|(e, _)| e)
                .chain(self.base.in_edges(v).map(|(e, _)| e))
                .collect();
            for e in incident {
                if self.remove_edge(e) {
                    removed.push((e, self.srcs[e.index()], self.dsts[e.index()]));
                }
            }
        }
        for i in base_edges..self.srcs.len() {
            if !self.edge_dead[i] && (self.srcs[i] == v || self.dsts[i] == v) {
                let e = EdgeId(i as u32);
                self.remove_edge(e);
                removed.push((e, self.srcs[i], self.dsts[i]));
            }
        }
        self.vertex_dead[v.index()] = true;
        self.vprops[v.index()] = PropMap::new();
        removed
    }

    /// Freezes the edit into a new [`Graph`]: one CSR rebuild over the
    /// live edges. Dead slots are retained (ids stay stable) but carry
    /// no adjacency.
    pub fn finish(self) -> Graph {
        let n = self.vtypes.len();
        let m = self.srcs.len();
        let any_vertex_dead = self.vertex_dead.iter().any(|&d| d);
        let any_edge_dead = self.edge_dead.iter().any(|&d| d);

        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for i in 0..m {
            if self.edge_dead[i] {
                continue;
            }
            out_offsets[self.srcs[i].index() + 1] += 1;
            in_offsets[self.dsts[i].index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let live_edges = out_offsets[n] as usize;
        let mut out_edges = vec![EdgeId(0); live_edges];
        let mut in_edges = vec![EdgeId(0); live_edges];
        // fill cursors are pure scratch: recycle them across rebuilds
        // instead of reallocating two O(V) buffers per publish
        let mut out_cursor = crate::scratch::take_u32(n + 1);
        out_cursor.extend_from_slice(&out_offsets);
        let mut in_cursor = crate::scratch::take_u32(n + 1);
        in_cursor.extend_from_slice(&in_offsets);
        for i in 0..m {
            if self.edge_dead[i] {
                continue;
            }
            let s = self.srcs[i].index();
            let d = self.dsts[i].index();
            out_edges[out_cursor[s] as usize] = EdgeId(i as u32);
            out_cursor[s] += 1;
            in_edges[in_cursor[d] as usize] = EdgeId(i as u32);
            in_cursor[d] += 1;
        }
        crate::scratch::give_u32(out_cursor);
        crate::scratch::give_u32(in_cursor);
        let live_vertices = n - self.vertex_dead.iter().filter(|&&d| d).count();

        Graph {
            inner: std::sync::Arc::new(GraphInner {
                interner: self.interner,
                vtypes: self.vtypes,
                vprops: self.vprops,
                srcs: self.srcs,
                dsts: self.dsts,
                etypes: self.etypes,
                eprops: self.eprops,
                vertex_dead: if any_vertex_dead {
                    self.vertex_dead
                } else {
                    Vec::new()
                },
                edge_dead: if any_edge_dead {
                    self.edge_dead
                } else {
                    Vec::new()
                },
                live_vertices,
                live_edges,
                out_offsets,
                out_edges,
                in_offsets,
                in_edges,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// j0 -w-> f0 -r-> j1, plus a parallel j0 -w-> f0.
    fn toy() -> Graph {
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        b.add_edge(j0, f0, "WRITES_TO");
        b.add_edge(f0, j1, "IS_READ_BY");
        b.add_edge(j0, f0, "WRITES_TO");
        b.finish()
    }

    #[test]
    fn remove_edge_is_cow_and_id_stable() {
        let g = toy();
        let g2 = g.remove_edges([EdgeId(0)]);
        // original untouched
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_edge_live(EdgeId(0)));
        // new graph: slot retained, edge dead, adjacency excludes it
        assert_eq!(g2.edge_count(), 2);
        assert_eq!(g2.edge_slots(), 3);
        assert!(!g2.is_edge_live(EdgeId(0)));
        assert!(g2.is_edge_live(EdgeId(1)));
        assert_eq!(g2.out_degree(VertexId(0)), 1);
        assert_eq!(g2.in_degree(VertexId(1)), 1);
        // surviving ids resolve to the same endpoints
        assert_eq!(g2.edge_src(EdgeId(1)), g.edge_src(EdgeId(1)));
    }

    #[test]
    fn remove_vertex_cascades_to_incident_edges() {
        let g = toy();
        let g2 = g.remove_vertices([VertexId(1)]); // f0: all 3 edges touch it
        assert_eq!(g2.vertex_count(), 2);
        assert_eq!(g2.vertex_slots(), 3);
        assert_eq!(g2.edge_count(), 0);
        assert!(!g2.is_vertex_live(VertexId(1)));
        assert_eq!(g2.out_degree(VertexId(0)), 0);
        assert_eq!(g2.in_degree(VertexId(2)), 0);
        // type symbol of the dead slot is still resolvable
        assert_eq!(g2.vertex_type(VertexId(1)), "File");
        // iteration skips the dead slot
        let live: Vec<u32> = g2.vertices().map(|v| v.0).collect();
        assert_eq!(live, vec![0, 2]);
    }

    #[test]
    fn add_after_remove_reuses_no_slots() {
        let g = toy();
        let mut ed = g.edit();
        ed.remove_vertex(VertexId(2));
        let nv = ed.add_vertex("Job");
        assert_eq!(nv, VertexId(3)); // slots only grow
        let ne = ed.add_edge(VertexId(1), nv, "IS_READ_BY");
        ed.set_edge_prop(ne, "ts", Value::Int(9));
        let g2 = ed.finish();
        assert_eq!(g2.vertex_count(), 3);
        assert_eq!(g2.edge_count(), 3);
        assert_eq!(g2.edge_prop(ne, "ts"), Some(&Value::Int(9)));
        assert_eq!(g2.in_degree(nv), 1);
    }

    #[test]
    fn remove_vertex_kills_staged_edges_too() {
        let g = toy();
        let mut ed = g.edit();
        let nv = ed.add_vertex("File");
        ed.add_edge(VertexId(2), nv, "WRITES_TO");
        let removed = ed.remove_vertex(nv);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].1, VertexId(2));
        let g2 = ed.finish();
        assert_eq!(g2.edge_count(), 3); // staged edge died with its vertex
        assert_eq!(g2.out_degree(VertexId(2)), 0);
    }

    #[test]
    fn remove_is_idempotent() {
        let g = toy();
        let mut ed = g.edit();
        assert!(ed.remove_edge(EdgeId(1)));
        assert!(!ed.remove_edge(EdgeId(1)));
        assert!(!ed.remove_edge(EdgeId(99)));
        assert!(ed.remove_vertex(VertexId(2)).is_empty()); // its edge is gone
        assert!(ed.remove_vertex(VertexId(2)).is_empty());
        let g2 = ed.finish();
        assert_eq!(g2.edge_count(), 2);
        assert_eq!(g2.vertex_count(), 2);
    }

    #[test]
    fn double_edit_round_trip() {
        // edit an already-tombstoned graph: flags carry forward
        let g = toy().remove_edges([EdgeId(2)]);
        let mut ed = g.edit();
        assert!(!ed.is_edge_live(EdgeId(2)));
        ed.remove_edge(EdgeId(0));
        let g2 = ed.finish();
        assert_eq!(g2.edge_count(), 1);
        assert!(g2.is_edge_live(EdgeId(1)));
    }

    #[test]
    #[should_panic(expected = "dead")]
    fn add_edge_to_dead_vertex_panics() {
        let g = toy();
        let mut ed = g.edit();
        ed.remove_vertex(VertexId(2));
        ed.add_edge(VertexId(0), VertexId(2), "WRITES_TO");
    }

    #[test]
    fn props_of_dead_elements_are_cleared() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex("Job");
        let w = b.add_vertex("File");
        b.set_vertex_prop(v, "cpu", Value::Int(5));
        let e = b.add_edge(v, w, "WRITES_TO");
        b.set_edge_prop(e, "ts", Value::Int(3));
        let g = b.finish();
        let g2 = g.remove_vertices([v]);
        assert_eq!(g2.vertex_props(v).len(), 0);
        assert_eq!(g2.edge_props(e).len(), 0);
        // original keeps its props
        assert_eq!(g.vertex_prop(v, "cpu"), Some(&Value::Int(5)));
    }
}

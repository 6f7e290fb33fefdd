//! Slot compaction: drop tombstoned id slots and renumber the
//! survivors densely.
//!
//! Tombstoning (see [`crate::GraphEditor`]) keeps ids stable across any
//! edit sequence, but a long-lived churn workload pays for that
//! stability with unbounded growth: every retired vertex or edge keeps
//! its slot — type symbol, empty property cell, dead flags, CSR offset
//! entries — forever, even at constant live size. [`Graph::compact`]
//! is the other half of the bargain: it rebuilds the graph with **only
//! the live slots**, preserving the relative order of survivors, and
//! returns an [`IdRemap`] describing where every old id went so the
//! few places that hold pre-compaction ids (queued deltas, client
//! handles) can be rebased.
//!
//! Compaction is **observationally invisible** apart from the ids
//! themselves: live vertices and edges keep their types, properties,
//! adjacency, and relative order (so identity-targeted LIFO retraction
//! picks the same edge before and after), and [`crate::GraphStats`] of
//! the compacted graph are exactly equal to the original's
//! (proptest-enforced in `tests/properties.rs`).

use crate::graph::{EdgeId, Graph, GraphInner, VertexId};

/// A dense old→new vertex-id mapping produced by [`Graph::compact`].
///
/// The mapping is **order-preserving**: if two live slots `a < b` both
/// survive, then `remap(a) < remap(b)`. Ids at or past
/// [`IdRemap::old_slots`] — slots that did not exist when the remap was
/// taken — map by append order: the i-th slot created *after* the
/// compaction point corresponds to new id `new_slots + i`, so a
/// mapping stays usable while both id spaces keep growing in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdRemap {
    /// `forward[old] = new`, with `u32::MAX` marking a dropped slot.
    forward: Vec<u32>,
    new_slots: usize,
}

impl IdRemap {
    /// Number of vertex slots of the graph the remap was taken from.
    pub fn old_slots(&self) -> usize {
        self.forward.len()
    }

    /// Number of vertex slots after compaction (= live vertices).
    pub fn new_slots(&self) -> usize {
        self.new_slots
    }

    /// Vertex slots the compaction reclaimed.
    pub fn reclaimed(&self) -> usize {
        self.forward.len() - self.new_slots
    }

    /// Whether the remap maps every slot to itself (nothing dropped).
    pub fn is_identity(&self) -> bool {
        self.forward.len() == self.new_slots
    }

    /// The post-compaction id of `v`, or `None` if `v`'s slot was
    /// dropped (it was dead when the remap was taken — any reference
    /// to it was already a guaranteed no-op or a guaranteed
    /// rejection). Ids past [`IdRemap::old_slots`] map by append
    /// order; see the type docs. `VertexId(u32::MAX)` is reserved as
    /// the dropped-slot sentinel and always maps to `None`, so a
    /// reference poisoned by one remap stays dropped through any
    /// chain of later remaps instead of decaying back into range.
    pub fn vertex(&self, v: VertexId) -> Option<VertexId> {
        let i = v.index();
        if i < self.forward.len() {
            let m = self.forward[i];
            (m != u32::MAX).then_some(VertexId(m))
        } else if v.0 == u32::MAX {
            None
        } else {
            Some(VertexId((self.new_slots + (i - self.forward.len())) as u32))
        }
    }
}

impl Graph {
    /// Drops every dead vertex and edge slot, renumbering the live
    /// survivors densely (relative order preserved), and returns the
    /// compacted graph plus the old→new [`IdRemap`]. Live elements
    /// keep their types, properties, and adjacency;
    /// statistics are exactly preserved. With nothing dead this is a
    /// plain copy and the remap [`is an identity`](IdRemap::is_identity)
    /// — callers gate on a dead-slot policy rather than calling this
    /// unconditionally.
    pub fn compact(&self) -> (Graph, IdRemap) {
        let inner = &*self.inner;
        let n = inner.vtypes.len();
        let mut forward = vec![u32::MAX; n];
        let mut next = 0u32;
        for (i, slot) in forward.iter_mut().enumerate() {
            if inner.vertex_is_live(i) {
                *slot = next;
                next += 1;
            }
        }
        let remap = IdRemap {
            forward,
            new_slots: next as usize,
        };
        let g = self.compact_with(&remap);
        (g, remap)
    }

    /// Rebuilds this graph through the vertex `remap` (dead edge slots
    /// are always dropped).
    ///
    /// # Panics
    /// Panics if the remap does not cover this graph: a live vertex
    /// maps to `None`, or the slot counts disagree.
    fn compact_with(&self, remap: &IdRemap) -> Graph {
        let inner = &*self.inner;
        let old_n = inner.vtypes.len();
        assert_eq!(
            remap.old_slots(),
            old_n,
            "remap was taken from a graph with a different slot count"
        );
        let n = remap.new_slots();

        let mut vtypes = Vec::with_capacity(n);
        let mut vprops = Vec::with_capacity(n);
        for i in 0..old_n {
            match remap.vertex(VertexId(i as u32)) {
                Some(nv) => {
                    assert!(
                        inner.vertex_is_live(i),
                        "remap keeps vertex {i}, which is dead here"
                    );
                    // order preservation makes the new columns append-only
                    assert_eq!(nv.index(), vtypes.len(), "remap is not order-preserving");
                    vtypes.push(inner.vtypes[i]);
                    vprops.push(inner.vprops[i].clone());
                }
                None => assert!(
                    !inner.vertex_is_live(i),
                    "remap drops vertex {i}, which is still live here"
                ),
            }
        }

        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        let mut etypes = Vec::new();
        let mut eprops = Vec::new();
        for e in 0..inner.srcs.len() {
            if !inner.edge_is_live(e) {
                continue;
            }
            let s = remap
                .vertex(inner.srcs[e])
                .expect("live edge endpoint survives compaction");
            let d = remap
                .vertex(inner.dsts[e])
                .expect("live edge endpoint survives compaction");
            srcs.push(s);
            dsts.push(d);
            etypes.push(inner.etypes[e]);
            eprops.push(inner.eprops[e].clone());
        }

        let m = srcs.len();
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for i in 0..m {
            out_offsets[srcs[i].index() + 1] += 1;
            in_offsets[dsts[i].index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_edges = vec![EdgeId(0); m];
        let mut in_edges = vec![EdgeId(0); m];
        // recycled fill cursors (see `crate::scratch`): compaction runs
        // repeatedly on churn workloads and these are pure scratch
        let mut out_cursor = crate::scratch::take_u32(n + 1);
        out_cursor.extend_from_slice(&out_offsets);
        let mut in_cursor = crate::scratch::take_u32(n + 1);
        in_cursor.extend_from_slice(&in_offsets);
        for i in 0..m {
            let s = srcs[i].index();
            let d = dsts[i].index();
            out_edges[out_cursor[s] as usize] = EdgeId(i as u32);
            out_cursor[s] += 1;
            in_edges[in_cursor[d] as usize] = EdgeId(i as u32);
            in_cursor[d] += 1;
        }
        crate::scratch::give_u32(out_cursor);
        crate::scratch::give_u32(in_cursor);

        Graph {
            inner: std::sync::Arc::new(GraphInner {
                interner: inner.interner.clone(),
                vtypes,
                vprops,
                srcs,
                dsts,
                etypes,
                eprops,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::stats::GraphStats;
    use crate::value::Value;

    /// j0 -w-> f0 -r-> j1 -w-> f1, with props on each element.
    fn toy() -> Graph {
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        let f1 = b.add_vertex("File");
        b.set_vertex_prop(j0, "cpu", Value::Int(4));
        b.set_vertex_prop(j1, "cpu", Value::Int(9));
        let e = b.add_edge(j0, f0, "WRITES_TO");
        b.set_edge_prop(e, "ts", Value::Int(1));
        b.add_edge(f0, j1, "IS_READ_BY");
        let e = b.add_edge(j1, f1, "WRITES_TO");
        b.set_edge_prop(e, "ts", Value::Int(3));
        b.finish()
    }

    #[test]
    fn compact_without_tombstones_is_identity() {
        let g = toy();
        let (c, remap) = g.compact();
        assert!(remap.is_identity());
        assert_eq!(remap.reclaimed(), 0);
        assert_eq!(c.vertex_slots(), g.vertex_slots());
        assert_eq!(c.edge_slots(), g.edge_slots());
        assert_eq!(GraphStats::compute(&c), GraphStats::compute(&g));
        for v in g.vertices() {
            assert_eq!(remap.vertex(v), Some(v));
        }
    }

    #[test]
    fn compact_drops_dead_slots_and_remaps() {
        let g = toy().remove_vertices([VertexId(1)]); // f0 + 2 edges die
        assert_eq!(g.vertex_slots(), 4);
        assert_eq!(g.vertex_count(), 3);
        let (c, remap) = g.compact();
        assert_eq!(c.vertex_slots(), 3);
        assert_eq!(c.vertex_count(), 3);
        assert_eq!(c.edge_slots(), 1);
        assert_eq!(c.edge_count(), 1);
        assert_eq!(remap.reclaimed(), 1);
        // order-preserving dense renumbering around the hole
        assert_eq!(remap.vertex(VertexId(0)), Some(VertexId(0)));
        assert_eq!(remap.vertex(VertexId(1)), None);
        assert_eq!(remap.vertex(VertexId(2)), Some(VertexId(1)));
        assert_eq!(remap.vertex(VertexId(3)), Some(VertexId(2)));
        // the surviving edge j1 -w-> f1 carries its props and endpoints
        let e = c.edges().next().unwrap();
        assert_eq!(c.edge_src(e), VertexId(1));
        assert_eq!(c.edge_dst(e), VertexId(2));
        assert_eq!(c.edge_prop(e, "ts"), Some(&Value::Int(3)));
        // vertex types and props moved with their slots
        assert_eq!(c.vertex_type(VertexId(1)), "Job");
        assert_eq!(c.vertex_prop(VertexId(1), "cpu"), Some(&Value::Int(9)));
        // statistics are exactly preserved
        assert_eq!(GraphStats::compute(&c), GraphStats::compute(&g));
    }

    #[test]
    fn compact_preserves_adjacency_and_edge_order() {
        // parallel edges: LIFO retraction order must survive compaction
        let mut b = GraphBuilder::new();
        let dead = b.add_vertex("Job");
        let j = b.add_vertex("Job");
        let f = b.add_vertex("File");
        let e0 = b.add_edge(j, f, "WRITES_TO");
        b.set_edge_prop(e0, "ts", Value::Int(10));
        let e1 = b.add_edge(j, f, "WRITES_TO");
        b.set_edge_prop(e1, "ts", Value::Int(20));
        let g = b.finish().remove_vertices([dead]);
        let (c, remap) = g.compact();
        let nj = remap.vertex(j).unwrap();
        let nf = remap.vertex(f).unwrap();
        assert_eq!(c.out_degree(nj), 2);
        assert_eq!(c.in_degree(nf), 2);
        // relative order preserved: the newest (LIFO) match is still ts=20
        let newest = c
            .out_edges(nj)
            .filter(|&(_, w)| w == nf)
            .map(|(e, _)| e)
            .max()
            .unwrap();
        assert_eq!(c.edge_prop(newest, "ts"), Some(&Value::Int(20)));
    }

    #[test]
    fn remap_maps_future_slots_by_append_order() {
        let g = toy().remove_vertices([VertexId(1)]);
        let (c, remap) = g.compact();
        // the next slot appended on the uncompacted side (id 4) pairs
        // with the next slot on the compacted side (id 3)
        assert_eq!(remap.old_slots(), 4);
        assert_eq!(remap.new_slots(), 3);
        assert_eq!(remap.vertex(VertexId(4)), Some(VertexId(3)));
        assert_eq!(remap.vertex(VertexId(6)), Some(VertexId(5)));
        // the dropped-slot sentinel never maps back into range, no
        // matter how many remaps a reference is chained through
        assert_eq!(remap.vertex(VertexId(u32::MAX)), None);
        drop(c);
    }

    #[test]
    #[should_panic(expected = "different slot count")]
    fn compact_with_foreign_remap_panics() {
        let g = toy();
        let (_, remap) = toy().remove_vertices([VertexId(0)]).compact();
        // same slot count here, so force the mismatch via an edit
        let mut ed = g.edit();
        ed.add_vertex("Job");
        ed.finish().compact_with(&remap);
    }
}

//! The parallel publish path: freeze a staged edit into a global
//! [`Graph`] by **assembling the CSR from shard CSRs** instead of
//! re-sorting every edge serially.
//!
//! The sharded serving runtime keeps one shard graph per partition:
//! every shard holds *all* vertex slots (ids aligned with the global
//! graph) and exactly the edges whose source vertex it owns, in
//! preserved global relative order. After the shards apply a delta in
//! parallel, the coordinator used to apply the very same delta
//! serially to the global graph — paying the full O(V+E) editor clone
//! and counting sort a second time, alone, after the parallel work had
//! finished. This module replaces that:
//!
//! - [`Graph::edit_parallel`] starts an edit session whose property
//!   columns (the allocation-heavy part of the clone) are deep-cloned
//!   in parallel chunks on a [`ParallelExec`].
//! - [`GraphEditor::finish_merged`] freezes the staged edit with the
//!   adjacency **read off the shard CSRs**: the out-row of vertex `v`
//!   is its owner shard's out-row translated to global edge ids; the
//!   in-row of `v` is a k-way merge (by global edge id) of every
//!   shard's in-row. Workers each own a contiguous vertex range whose
//!   prefix-summed offsets give them a disjoint region of the global
//!   arrays, so the fill is embarrassingly parallel and — because the
//!   per-shard edge order is the global order restricted to the shard
//!   — the result is **identical** to the serial counting sort.
//!
//! [`same_dense_graph`] is the structural-identity oracle the
//! differential proptests use to prove that claim: it compares two
//! graphs slot by slot, column by column, with interned symbols
//! resolved to strings.

use crate::exec::{chunk_ranges, ParallelExec, SharedSlice};
use crate::graph::{EdgeId, Graph, GraphInner, VertexId};
use crate::value::PropMap;
use crate::GraphEditor;

/// Below this many elements a column is cloned inline — chunk dispatch
/// overhead beats the memcpy win on tiny graphs.
const MIN_PARALLEL_CLONE: usize = 4096;

fn clone_chunked<T: Clone + Send + Sync>(src: &[T], exec: &dyn ParallelExec) -> Vec<T> {
    let parts = exec.parallelism();
    if src.len() < MIN_PARALLEL_CLONE || parts <= 1 {
        return src.to_vec();
    }
    let ranges = chunk_ranges(src.len(), parts);
    let slots: Vec<std::sync::Mutex<Vec<T>>> = ranges
        .iter()
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    exec.run(ranges.len(), &|i| {
        let chunk = src[ranges[i].clone()].to_vec();
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = chunk;
    });
    let mut out = Vec::with_capacity(src.len());
    for slot in slots {
        out.append(&mut slot.into_inner().unwrap_or_else(|e| e.into_inner()));
    }
    out
}

impl Graph {
    /// Starts a copy-on-write edit session like [`Graph::edit`], but
    /// deep-clones the property columns — the allocation-heavy part of
    /// the clone — in parallel chunks on `exec`. The resulting editor
    /// is indistinguishable from one made by `edit()`.
    pub fn edit_parallel(&self, exec: &dyn ParallelExec) -> GraphEditor {
        let inner = &*self.inner;
        let n = inner.vtypes.len();
        let m = inner.srcs.len();
        let mut vertex_dead = inner.vertex_dead.clone();
        vertex_dead.resize(n, false);
        let any_ghost = !inner.vertex_ghost.is_empty();
        let mut vertex_ghost = inner.vertex_ghost.clone();
        vertex_ghost.resize(n, false);
        let mut edge_dead = inner.edge_dead.clone();
        edge_dead.resize(m, false);
        // the two PropMap columns are the only deep clones; everything
        // else is a flat memcpy the allocator handles in one shot
        let (vprops, eprops) = (
            clone_chunked(&inner.vprops, exec),
            clone_chunked(&inner.eprops, exec),
        );
        GraphEditor {
            base: self.clone(),
            vtypes: inner.vtypes.clone(),
            vprops,
            srcs: inner.srcs.clone(),
            dsts: inner.dsts.clone(),
            etypes: inner.etypes.clone(),
            eprops,
            vertex_dead,
            vertex_ghost,
            any_ghost,
            edge_dead,
            interner: inner.interner.clone(),
        }
    }
}

impl GraphEditor {
    /// Freezes this edit into a [`Graph`] whose CSR is assembled from
    /// the shard CSRs in parallel — see the module docs. Produces a
    /// graph identical to [`GraphEditor::finish`] whenever the shard
    /// graphs' edge liveness agrees with this editor's (which holds by
    /// construction on a partitioned engine: the same retractions were
    /// routed to the shards).
    ///
    /// - `shards[k]` must hold every vertex slot of this editor and
    ///   exactly the live edges whose source `owners` assigns to `k`,
    ///   in global relative order.
    /// - `owners[v]` is the owning shard of vertex slot `v`.
    /// - `edge_global[k][j]` is the global edge id of shard `k`'s edge
    ///   slot `j` (strictly increasing in `j`).
    ///
    /// # Panics
    /// Panics if the shard slot counts or total degrees disagree with
    /// the staged columns — a corrupted ownership table or a stale
    /// `edge_global` mapping can never silently publish.
    pub fn finish_merged(
        self,
        shards: &[Graph],
        owners: &[u32],
        edge_global: &[Vec<EdgeId>],
        exec: &dyn ParallelExec,
    ) -> Graph {
        let n = self.vtypes.len();
        assert_eq!(owners.len(), n, "ownership table must cover every slot");
        assert_eq!(edge_global.len(), shards.len());
        for (k, shard) in shards.iter().enumerate() {
            assert_eq!(
                shard.vertex_slots(),
                n,
                "shard {k} is missing vertex slots (publish barrier violated)"
            );
        }
        let any_vertex_dead = self.vertex_dead.iter().any(|&d| d);
        let any_edge_dead = self.edge_dead.iter().any(|&d| d);

        // pass 1 — per-vertex degrees from the shard CSRs, one disjoint
        // slot per vertex, then a serial prefix sum (O(V), cheap)
        let ranges = chunk_ranges(n, exec.parallelism());
        let mut out_offsets = crate::scratch::take_u32_zeroed(n + 1);
        let mut in_offsets = crate::scratch::take_u32_zeroed(n + 1);
        {
            let out_deg = SharedSlice::new(&mut out_offsets[..]);
            let in_deg = SharedSlice::new(&mut in_offsets[..]);
            exec.run(ranges.len(), &|w| {
                for v in ranges[w].clone() {
                    let vid = VertexId(v as u32);
                    let out = shards[owners[v] as usize].out_degree(vid) as u32;
                    let inn: u32 = shards.iter().map(|s| s.in_degree(vid) as u32).sum();
                    // Safety: v+1 is unique per vertex and in bounds.
                    unsafe {
                        out_deg.write(v + 1, out);
                        in_deg.write(v + 1, inn);
                    }
                }
            });
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let live_edges = out_offsets[n] as usize;
        assert_eq!(
            live_edges, in_offsets[n] as usize,
            "shard out- and in-degrees disagree"
        );
        debug_assert_eq!(
            live_edges,
            self.edge_dead.iter().filter(|&&d| !d).count(),
            "shard edge liveness diverged from the staged edit"
        );

        // pass 2 — fill: each worker's vertex range maps to a disjoint,
        // contiguous region of out_edges/in_edges via the prefix sums
        let mut out_edges = vec![EdgeId(0); live_edges];
        let mut in_edges = vec![EdgeId(0); live_edges];
        {
            let out_fill = SharedSlice::new(&mut out_edges[..]);
            let in_fill = SharedSlice::new(&mut in_edges[..]);
            let k = shards.len();
            exec.run(ranges.len(), &|w| {
                // per-shard [pos, end) window into its in-CSR row of v,
                // reused across the worker's whole range
                let mut windows = vec![(0u32, 0u32); k];
                for v in ranges[w].clone() {
                    let owner = owners[v] as usize;
                    let sh = &*shards[owner].inner;
                    let (lo, hi) = (sh.out_offsets[v] as usize, sh.out_offsets[v + 1] as usize);
                    for (cursor, &e) in (out_offsets[v] as usize..).zip(sh.out_edges[lo..hi].iter())
                    {
                        // Safety: this row is [out_offsets[v], out_offsets[v+1]),
                        // disjoint from every other vertex's row.
                        unsafe { out_fill.write(cursor, edge_global[owner][e.index()]) };
                    }
                    // in-row: k-way merge of the shards' in-rows by
                    // global edge id (each is already ascending)
                    for (s, win) in windows.iter_mut().enumerate() {
                        let sh = &*shards[s].inner;
                        *win = (sh.in_offsets[v], sh.in_offsets[v + 1]);
                    }
                    let mut cursor = in_offsets[v] as usize;
                    loop {
                        let mut best: Option<(usize, EdgeId)> = None;
                        for (s, win) in windows.iter().enumerate() {
                            if win.0 < win.1 {
                                let local = shards[s].inner.in_edges[win.0 as usize];
                                let gid = edge_global[s][local.index()];
                                if best.is_none_or(|(_, b)| gid < b) {
                                    best = Some((s, gid));
                                }
                            }
                        }
                        let Some((s, gid)) = best else { break };
                        // Safety: same disjoint-row argument as above.
                        unsafe { in_fill.write(cursor, gid) };
                        cursor += 1;
                        windows[s].0 += 1;
                    }
                }
            });
        }

        let live_vertices = n - self.vertex_dead.iter().filter(|&&d| d).count();
        let live_owned = (0..n)
            .filter(|&i| !self.vertex_dead[i] && !self.vertex_ghost[i])
            .count();
        let (out_offsets, in_offsets) = (promote(out_offsets), promote(in_offsets));
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
                vertex_ghost: if self.any_ghost {
                    self.vertex_ghost
                } else {
                    Vec::new()
                },
                edge_dead: if any_edge_dead {
                    self.edge_dead
                } else {
                    Vec::new()
                },
                live_vertices,
                live_owned,
                live_edges,
                out_offsets,
                out_edges,
                in_offsets,
                in_edges,
            }),
        }
    }
}

/// The offset vectors came from the scratch pool and become part of a
/// long-lived graph: shrink them so pooled over-capacity is not pinned
/// by the published snapshot.
fn promote(mut v: Vec<u32>) -> Vec<u32> {
    v.shrink_to_fit();
    v
}

/// Structural-identity oracle for differential tests: `Ok(())` iff the
/// two graphs are the same dense representation — equal slot layouts,
/// liveness and ghost flags, types and properties (interned symbols
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
    if (ia.live_vertices, ia.live_owned, ia.live_edges)
        != (ib.live_vertices, ib.live_owned, ib.live_edges)
    {
        return fail(
            "live counts",
            format_args!(
                "({}, {}, {}) vs ({}, {}, {})",
                ia.live_vertices,
                ia.live_owned,
                ia.live_edges,
                ib.live_vertices,
                ib.live_owned,
                ib.live_edges
            ),
        );
    }
    let resolved = |g: &Graph, props: &PropMap| -> Vec<(String, crate::Value)> {
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
        if a.is_vertex_ghost(v) != b.is_vertex_ghost(v) {
            return fail("vertex ghost flag", v);
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
    use crate::exec::{ScopedThreads, SerialExec};
    use crate::graph::GraphBuilder;
    use crate::Value;

    /// A toy lineage graph with props, a tombstoned edge, and a ghost.
    fn toy() -> Graph {
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        let g0 = b.add_ghost_vertex("File");
        b.set_vertex_prop(j0, "cpu", Value::Int(4));
        let e0 = b.add_edge(j0, f0, "WRITES_TO");
        b.add_edge(f0, j1, "IS_READ_BY");
        b.add_edge(j1, g0, "WRITES_TO");
        b.set_edge_prop(e0, "ts", Value::Int(7));
        b.finish().remove_edges([EdgeId(1)])
    }

    /// Splits `g` into `k` shards by `owner`, plus the edge_global map.
    fn shard_out(g: &Graph, k: usize, owner: &dyn Fn(VertexId) -> usize) -> ShardSet {
        let shards: Vec<Graph> = (0..k).map(|s| g.shard(&|v| owner(v) == s)).collect();
        let mut edge_global = vec![Vec::new(); k];
        for e in g.edges() {
            edge_global[owner(g.edge_src(e))].push(e);
        }
        let owners = (0..g.vertex_slots() as u32)
            .map(|v| owner(VertexId(v)) as u32)
            .collect();
        ShardSet {
            shards,
            owners,
            edge_global,
        }
    }

    struct ShardSet {
        shards: Vec<Graph>,
        owners: Vec<u32>,
        edge_global: Vec<Vec<EdgeId>>,
    }

    #[test]
    fn edit_parallel_matches_edit() {
        let g = toy();
        let a = g.edit().finish();
        let b = g.edit_parallel(&ScopedThreads).finish();
        same_dense_graph(&a, &b).expect("parallel clone must be identical");
    }

    #[test]
    fn finish_merged_matches_finish_without_edits() {
        let g = toy();
        for k in [1usize, 2, 3] {
            let owner = move |v: VertexId| v.index() % k;
            let set = shard_out(&g, k, &owner);
            let serial = g.edit().finish();
            let merged =
                g.edit()
                    .finish_merged(&set.shards, &set.owners, &set.edge_global, &SerialExec);
            same_dense_graph(&serial, &merged).unwrap_or_else(|e| panic!("k={k}: {e}"));
        }
    }

    #[test]
    fn finish_merged_matches_finish_with_staged_edits() {
        let g = toy();
        let k = 2usize;
        let owner = move |v: VertexId| v.index() % k;
        // stage the same edits on the global editor and on each shard
        let stage = |mut ed: GraphEditor, ghost_split: bool| -> GraphEditor {
            let nv = if ghost_split {
                ed.add_ghost_vertex("Job")
            } else {
                ed.add_vertex("Job")
            };
            ed.set_vertex_prop(nv, "cpu", Value::Int(9));
            ed
        };
        // global: the new vertex (slot 4) is owned by shard 0 and gets
        // a new edge from j1 (slot 2, owned by shard 0 under v%2)
        let mut ged = stage(g.edit(), false);
        let nv = VertexId(4);
        let ne = ged.add_edge(VertexId(2), nv, "WRITES_TO");
        assert_eq!(ne, EdgeId(3));
        ged.remove_edge(EdgeId(0));
        // shards: broadcast vertex (ghost off-owner), route the edge to
        // the source's owner (shard 0), route the retraction likewise
        let mut shards = Vec::new();
        let mut edge_global = vec![Vec::new(); k];
        for e in g.edges() {
            edge_global[owner(g.edge_src(e))].push(e);
        }
        for s in 0..k {
            let mut ed = g.shard(&|v| owner(v) == s).edit();
            let ed2 = stage(std::mem::replace(&mut ed, g.edit()), s != 0);
            let mut ed = ed2;
            if s == 0 {
                // shard-local edge ids are dense; the new edge lands at
                // this shard's next slot, mapping to global slot 3
                let local = ed.add_edge(VertexId(2), nv, "WRITES_TO");
                edge_global[0].push(EdgeId(3));
                // the retraction targets global edge 0 = shard 0 slot 0
                assert_eq!(edge_global[0][0], EdgeId(0));
                ed.remove_edge(EdgeId(0));
                let _ = local;
            }
            shards.push(ed.finish());
        }
        let owners: Vec<u32> = (0..5).map(|v| owner(VertexId(v)) as u32).collect();
        let serial = {
            let mut ed = stage(g.edit(), false);
            ed.add_edge(VertexId(2), nv, "WRITES_TO");
            ed.remove_edge(EdgeId(0));
            ed.finish()
        };
        let merged = ged.finish_merged(&shards, &owners, &edge_global, &ScopedThreads);
        same_dense_graph(&serial, &merged).expect("merged publish must be identical");
    }

    #[test]
    fn same_dense_graph_detects_divergence() {
        let g = toy();
        assert!(same_dense_graph(&g, &g).is_ok());
        let other = g.remove_edges([EdgeId(0)]);
        assert!(same_dense_graph(&g, &other).is_err());
    }
}

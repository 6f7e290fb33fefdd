//! Incremental view maintenance for insert **and delete** workloads.
//!
//! The paper traces graph views back to Zhuge & Garcia-Molina's work on
//! graph-structured views *and their incremental maintenance* (§VIII).
//! A [`GraphDelta`] batches vertex/edge insertions *and retractions*;
//! applying it to the base graph preserves every existing id
//! (retraction tombstones a slot, it never renumbers — see
//! `kaskade-graph`'s editor), and materialized connector views are
//! refreshed by recomputing **only the affected sources**: vertices
//! within `k-1` hops upstream of any inserted edge (over the new base)
//! or of any retracted edge (over the old base), instead of
//! re-materializing from scratch.
//!
//! Deletion correctness rests on per-edge **provenance counts**: every
//! connector edge carries a `support` property counting the exact-`k`
//! walks that witness it. A base-edge retraction re-derives the support
//! of the affected sources' edges, so a view edge survives as long as
//! at least one witness walk remains and disappears exactly when the
//! last witness dies — `ts` aggregates simultaneously fall back to the
//! best surviving walk (a plain decrement could not do that).
//!
//! Retractions are **identity-targeted**: a [`DelEdge`] names
//! `(src, dst, etype)` and removes the newest live matching edge
//! (LIFO). Naming edges by identity rather than by edge id is what
//! makes retraction well-defined for clients that only ever see
//! published snapshots — and it gives [`GraphDelta::merge`] a sound
//! cancellation rule: a retraction that matches an insert still pending
//! in the merged batch cancels the pair outright.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use kaskade_graph::{
    DegreeChange, ExternalIdTable, Graph, GraphBuilder, IdRemap, ParallelExec, SerialExec, Value,
    VertexId,
};

use crate::views::ConnectorDef;

/// A reference to a vertex in a delta: either an existing base-graph
/// vertex or the i-th new vertex of the same delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VRef {
    /// An existing base-graph vertex (ids are stable under
    /// [`apply_delta`] — even across retractions, which tombstone slots
    /// instead of renumbering).
    Existing(VertexId),
    /// The i-th vertex of [`GraphDelta::vertices`].
    New(usize),
    /// A vertex named by its permanent **external id** (see
    /// [`kaskade_graph::ExternalIdTable`]). External references are
    /// epoch-free: they survive any number of compactions, so a client
    /// addressing vertices this way can never be staleness-rejected.
    /// The serving writer resolves them to [`VRef::Existing`] /
    /// [`VRef::New`] with [`GraphDelta::resolve_external`] before
    /// validation and apply; [`apply_delta`] panics on an unresolved
    /// external reference.
    External(u64),
}

/// A vertex to insert.
#[derive(Debug, Clone, PartialEq)]
pub struct NewVertex {
    /// Vertex type name.
    pub vtype: String,
    /// Initial properties.
    pub props: Vec<(String, Value)>,
    /// Permanent external id to bind to the vertex at apply time, if
    /// the client wants a compaction-stable name for it (see
    /// [`GraphDelta::add_vertex_ext`]). Binding a key that is already
    /// live rejects the delta with [`DeltaError::DuplicateExternal`].
    pub ext: Option<u64>,
}

/// An edge to insert.
#[derive(Debug, Clone, PartialEq)]
pub struct NewEdge {
    /// Source vertex.
    pub src: VRef,
    /// Destination vertex.
    pub dst: VRef,
    /// Edge type name.
    pub etype: String,
    /// Initial properties.
    pub props: Vec<(String, Value)>,
}

/// An edge retraction, targeted by identity: removes the **newest**
/// live edge `src -[:etype]-> dst` of the base graph (a no-op if no
/// such edge remains, e.g. because a concurrent earlier batch already
/// retracted it).
#[derive(Debug, Clone, PartialEq)]
pub struct DelEdge {
    /// Source vertex of the edge to retract.
    pub src: VRef,
    /// Destination vertex of the edge to retract.
    pub dst: VRef,
    /// Edge type name of the edge to retract.
    pub etype: String,
    /// How many pending inserts of this delta preceded the retraction —
    /// the cancellation window [`GraphDelta::merge`] uses to replay
    /// operations in their original order.
    pub(crate) pending_seen: usize,
}

/// A batch of insertions and retractions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// Vertices to add.
    pub vertices: Vec<NewVertex>,
    /// Edges to add (may reference both existing and new vertices).
    pub edges: Vec<NewEdge>,
    /// Edge retractions (identity-targeted; see [`DelEdge`]).
    pub del_edges: Vec<DelEdge>,
    /// Vertices to retract, with every incident edge (a no-op for
    /// vertices already dead).
    pub del_vertices: Vec<VertexId>,
    /// Vertices to retract by **external id** (see
    /// [`GraphDelta::del_vertex_ext`]). Resolution drains these into
    /// [`GraphDelta::del_vertices`]; an id bound to nothing is a no-op,
    /// matching how slot-addressed retractions tolerate concurrent
    /// death.
    pub del_vertices_ext: Vec<u64>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a vertex insertion, returning its [`VRef`].
    pub fn add_vertex(&mut self, vtype: &str, props: Vec<(String, Value)>) -> VRef {
        self.vertices.push(NewVertex {
            vtype: vtype.to_string(),
            props,
            ext: None,
        });
        VRef::New(self.vertices.len() - 1)
    }

    /// Queues a vertex insertion bound to the permanent external id
    /// `ext`, returning its [`VRef`]. Later deltas — arbitrarily far in
    /// the future, across any number of compactions and restarts — can
    /// address the vertex as [`VRef::External`]`(ext)`.
    pub fn add_vertex_ext(&mut self, vtype: &str, ext: u64, props: Vec<(String, Value)>) -> VRef {
        self.vertices.push(NewVertex {
            vtype: vtype.to_string(),
            props,
            ext: Some(ext),
        });
        VRef::New(self.vertices.len() - 1)
    }

    /// Queues a vertex retraction by external id (cascades like
    /// [`GraphDelta::del_vertex`]; a no-op if the id is bound to
    /// nothing by apply time).
    pub fn del_vertex_ext(&mut self, ext: u64) {
        self.del_vertices_ext.push(ext);
    }

    /// Queues an edge insertion.
    pub fn add_edge(&mut self, src: VRef, dst: VRef, etype: &str, props: Vec<(String, Value)>) {
        self.edges.push(NewEdge {
            src,
            dst,
            etype: etype.to_string(),
            props,
        });
    }

    /// Queues an edge retraction. If an insert of the very same
    /// `(src, dst, etype)` is still pending in this delta, the newest
    /// such insert is cancelled instead (insert-then-delete pairs net
    /// to nothing); otherwise the retraction targets the newest live
    /// matching edge of the base graph at apply time.
    pub fn del_edge(&mut self, src: VRef, dst: VRef, etype: &str) {
        if let Some(i) = self
            .edges
            .iter()
            .rposition(|e| e.src == src && e.dst == dst && e.etype == etype)
        {
            self.edges.remove(i);
            // recorded retractions count pending inserts before them;
            // removing insert i shifts the later ones down
            for d in &mut self.del_edges {
                if d.pending_seen > i {
                    d.pending_seen -= 1;
                }
            }
            return;
        }
        self.del_edges.push(DelEdge {
            src,
            dst,
            etype: etype.to_string(),
            pending_seen: self.edges.len(),
        });
    }

    /// Queues a vertex retraction (cascades to every incident edge at
    /// apply time, including edges this same batch inserts).
    pub fn del_vertex(&mut self, v: VertexId) {
        self.del_vertices.push(v);
    }

    /// Whether the delta contains nothing.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
            && self.edges.is_empty()
            && self.del_edges.is_empty()
            && self.del_vertices.is_empty()
            && self.del_vertices_ext.is_empty()
    }

    /// Whether any reference in this delta names a base-graph **slot**
    /// ([`VRef::Existing`] endpoints or [`GraphDelta::del_vertices`]
    /// entries). Slot references are epoch-bound — they need rebasing
    /// through compaction remaps — while [`VRef::New`] and
    /// [`VRef::External`] references are not, so a delta without slot
    /// references can never be staleness-rejected.
    pub fn has_slot_refs(&self) -> bool {
        let slot = |r: &VRef| matches!(r, VRef::Existing(_));
        !self.del_vertices.is_empty()
            || self.edges.iter().any(|e| slot(&e.src) || slot(&e.dst))
            || self.del_edges.iter().any(|d| slot(&d.src) || slot(&d.dst))
    }

    /// Resolves every [`VRef::External`] reference (and drains
    /// [`GraphDelta::del_vertices_ext`]) against the writer's
    /// external-id `table`, the current base `graph`, and the
    /// already-merged `batch` delta this delta is about to join:
    ///
    /// - An external id declared by **this delta's own**
    ///   [`NewVertex::ext`] resolves to the matching [`VRef::New`].
    /// - An id declared by a vertex **pending in `batch`** resolves to
    ///   that vertex's predicted slot (`graph.vertex_slots()` + its
    ///   batch index — exactly where apply will put it).
    /// - An id **live in `table`** resolves to its current slot.
    /// - Anything else: edge-insert endpoints reject the delta with
    ///   [`DeltaError::UnknownExternal`]; retractions become no-ops
    ///   (dropped), matching slot-addressed retraction semantics under
    ///   concurrent death.
    ///
    /// Declaring an external id that is already live or already pending
    /// rejects the delta with [`DeltaError::DuplicateExternal`] —
    /// external ids are permanent names, not aliases. After a
    /// successful resolution the delta contains no external references
    /// and validates/applies exactly like a slot-addressed delta.
    pub fn resolve_external(
        &mut self,
        table: &ExternalIdTable,
        graph: &Graph,
        batch: &GraphDelta,
    ) -> Result<(), DeltaError> {
        let slots = graph.vertex_slots();
        let mut batch_pending: HashMap<u64, VertexId> = HashMap::new();
        for (j, nv) in batch.vertices.iter().enumerate() {
            if let Some(x) = nv.ext {
                batch_pending.insert(x, VertexId((slots + j) as u32));
            }
        }
        let mut local: HashMap<u64, usize> = HashMap::new();
        for (i, nv) in self.vertices.iter().enumerate() {
            if let Some(x) = nv.ext {
                if table.get(x).is_some()
                    || batch_pending.contains_key(&x)
                    || local.insert(x, i).is_some()
                {
                    return Err(DeltaError::DuplicateExternal { ext: x });
                }
            }
        }
        let lookup = |x: u64| -> Option<VRef> {
            if let Some(&i) = local.get(&x) {
                Some(VRef::New(i))
            } else if let Some(&v) = batch_pending.get(&x) {
                Some(VRef::Existing(v))
            } else {
                table.get(x).map(VRef::Existing)
            }
        };
        for (i, e) in self.edges.iter_mut().enumerate() {
            for r in [&mut e.src, &mut e.dst] {
                if let VRef::External(x) = *r {
                    *r = lookup(x).ok_or(DeltaError::UnknownExternal { edge: i, ext: x })?;
                }
            }
        }
        self.del_edges.retain_mut(|d| {
            for r in [&mut d.src, &mut d.dst] {
                if let VRef::External(x) = *r {
                    match lookup(x) {
                        Some(resolved) => *r = resolved,
                        None => return false, // nothing to retract: no-op
                    }
                }
            }
            true
        });
        for x in std::mem::take(&mut self.del_vertices_ext) {
            // own-delta declarations are not consulted: creating and
            // deleting the same external id within one delta is not
            // supported (the retraction is a no-op, like retracting an
            // id that never existed)
            if let Some(&v) = batch_pending.get(&x) {
                self.del_vertices.push(v);
            } else if let Some(v) = table.get(x) {
                self.del_vertices.push(v);
            }
        }
        Ok(())
    }

    /// Checks that every reference resolves: [`VRef::New`] indices must
    /// point into this delta's vertex list, and [`VRef::Existing`] ids
    /// (and retracted vertex ids) must be below `vertex_slots` — the
    /// base graph's **slot** count at apply time. [`apply_delta`]
    /// panics on dangling references; callers that accept deltas from
    /// untrusted sources (the serving runtime) validate first and
    /// reject instead. See [`GraphDelta::validate_against`] for the
    /// variant that also rejects references to tombstoned vertices.
    pub fn validate(&self, vertex_slots: usize) -> Result<(), DeltaError> {
        for (i, e) in self.edges.iter().enumerate() {
            for r in [e.src, e.dst] {
                match r {
                    VRef::Existing(v) if v.index() >= vertex_slots => {
                        return Err(DeltaError::DanglingExisting {
                            edge: i,
                            vertex: v,
                            vertex_count: vertex_slots,
                        });
                    }
                    VRef::New(n) if n >= self.vertices.len() => {
                        return Err(DeltaError::DanglingNew {
                            edge: i,
                            index: n,
                            new_vertices: self.vertices.len(),
                        });
                    }
                    _ => {}
                }
            }
        }
        for (i, d) in self.del_edges.iter().enumerate() {
            for r in [d.src, d.dst] {
                match r {
                    VRef::Existing(v) if v.index() >= vertex_slots => {
                        return Err(DeltaError::DanglingRetraction {
                            index: i,
                            vertex: v,
                            vertex_count: vertex_slots,
                        });
                    }
                    // a New reference in a surviving retraction matched
                    // no pending insert: it can never resolve (the base
                    // graph cannot contain a vertex this delta adds)
                    VRef::New(_) => {
                        return Err(DeltaError::UnmatchedNewRetraction { index: i });
                    }
                    _ => {}
                }
            }
        }
        for (i, &v) in self.del_vertices.iter().enumerate() {
            if v.index() >= vertex_slots {
                return Err(DeltaError::DanglingRetraction {
                    index: i,
                    vertex: v,
                    vertex_count: vertex_slots,
                });
            }
        }
        Ok(())
    }

    /// Like [`GraphDelta::validate`], but checked against an actual
    /// graph: edge-insert endpoints must additionally be **live**
    /// (tombstoned targets are rejected — inserting onto a deleted
    /// vertex can never apply). `pending_extra` extends the valid id
    /// range past the graph's slots, for deltas that will apply after
    /// earlier deltas of the same batch appended vertices. Retraction
    /// targets are only bounds-checked: retracting something already
    /// dead is a legitimate no-op under concurrent churn.
    pub fn validate_against(&self, g: &Graph, pending_extra: usize) -> Result<(), DeltaError> {
        let slots = g.vertex_slots();
        self.validate(slots + pending_extra)?;
        for (i, e) in self.edges.iter().enumerate() {
            for r in [e.src, e.dst] {
                if let VRef::Existing(v) = r {
                    if v.index() < slots && !g.is_vertex_live(v) {
                        return Err(DeltaError::DeadExisting { edge: i, vertex: v });
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends `other` onto this delta, re-indexing `other`'s
    /// [`VRef::New`] references past this delta's vertices. Applying
    /// the merged delta once is equivalent to applying the two deltas
    /// in sequence — the primitive behind write batching in the serving
    /// runtime (one view refresh per batch instead of per delta).
    ///
    /// `other`'s edge operations are replayed in their original
    /// interleaved order, so a retraction can cancel pending inserts
    /// that preceded it (anywhere in `self`, or earlier in `other`) but
    /// never an insert recorded after it — that is what keeps
    /// delete-then-reinsert sequences intact while insert-then-delete
    /// pairs cancel.
    ///
    /// # Errors
    /// Sequential equivalence requires that every merged delta could
    /// apply in sequence. If `self` retracts a vertex that an edge of
    /// `other` references, sequential application would *reject*
    /// `other` (edge onto a dead vertex), while the merged delta would
    /// insert the edge and then cascade it away. `merge` therefore
    /// refuses such a pair with [`DeltaError::RetractedInBatch`],
    /// leaving `self` unchanged — the caller drops `other` exactly as
    /// the sequential path would have.
    pub fn merge(&mut self, other: &GraphDelta) -> Result<(), DeltaError> {
        // reject-before-mutate: an edge of `other` onto a vertex this
        // delta retracts can never apply sequentially
        for (i, e) in other.edges.iter().enumerate() {
            for r in [e.src, e.dst] {
                if let VRef::Existing(v) = r {
                    if self.del_vertices.contains(&v) {
                        return Err(DeltaError::RetractedInBatch { edge: i, vertex: v });
                    }
                }
            }
        }
        let base = self.vertices.len();
        let shift = |r: VRef| match r {
            VRef::New(i) => VRef::New(i + base),
            existing => existing,
        };
        self.vertices.extend(other.vertices.iter().cloned());
        let mut dels = other.del_edges.iter().peekable();
        for j in 0..=other.edges.len() {
            while dels.peek().is_some_and(|d| d.pending_seen <= j) {
                let d = dels.next().unwrap();
                self.del_edge(shift(d.src), shift(d.dst), &d.etype);
            }
            if let Some(e) = other.edges.get(j) {
                self.edges.push(NewEdge {
                    src: shift(e.src),
                    dst: shift(e.dst),
                    etype: e.etype.clone(),
                    props: e.props.clone(),
                });
            }
        }
        self.del_vertices.extend(other.del_vertices.iter().copied());
        self.del_vertices_ext
            .extend(other.del_vertices_ext.iter().copied());
        Ok(())
    }

    /// Rebases this delta from the id space an [`IdRemap`] was taken
    /// in to the post-compaction id space, so a delta queued against a
    /// pre-compaction snapshot still applies correctly afterwards:
    ///
    /// - **Edge-insert endpoints** translate through the remap. An
    ///   endpoint whose slot was dropped referenced a vertex that was
    ///   already dead — sequentially the delta would be rejected
    ///   (`DeadExisting`), so the reference is poisoned to an
    ///   out-of-range id and apply-time validation rejects the whole
    ///   delta the same way.
    /// - **Retractions** (edge and vertex) whose target slot was
    ///   dropped are removed outright: retracting something already
    ///   dead is a legitimate no-op under concurrent churn, and it
    ///   must stay a no-op rather than turn into a bounds error.
    /// - [`VRef::New`] references are untouched (they index this
    ///   delta's own vertex list).
    ///
    /// Ids past the remap's [`old_slots`](IdRemap::old_slots) map by
    /// append order, so a remap also rebases deltas built against
    /// states that grew past the compaction point.
    pub fn remap(&mut self, remap: &IdRemap) {
        let map_ref = |r: VRef| -> Option<VRef> {
            match r {
                VRef::Existing(v) => remap.vertex(v).map(VRef::Existing),
                new => Some(new),
            }
        };
        for e in &mut self.edges {
            for r in [&mut e.src, &mut e.dst] {
                *r = map_ref(*r).unwrap_or(VRef::Existing(VertexId(u32::MAX)));
            }
        }
        self.del_edges.retain_mut(|d| {
            let (Some(s), Some(t)) = (map_ref(d.src), map_ref(d.dst)) else {
                return false;
            };
            d.src = s;
            d.dst = t;
            true
        });
        self.del_vertices = self
            .del_vertices
            .iter()
            .filter_map(|&v| remap.vertex(v))
            .collect();
    }
}

/// A structurally invalid [`GraphDelta`], reported by
/// [`GraphDelta::validate`] / [`GraphDelta::validate_against`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge referenced a base-graph vertex id past the graph's end.
    DanglingExisting {
        /// Index of the offending edge in [`GraphDelta::edges`].
        edge: usize,
        /// The out-of-range vertex reference.
        vertex: VertexId,
        /// The base graph's vertex slot count the delta was checked
        /// against.
        vertex_count: usize,
    },
    /// An edge referenced a new-vertex index past the delta's own list.
    DanglingNew {
        /// Index of the offending edge in [`GraphDelta::edges`].
        edge: usize,
        /// The out-of-range [`VRef::New`] index.
        index: usize,
        /// Number of vertices the delta actually declares.
        new_vertices: usize,
    },
    /// An edge referenced a base-graph vertex that has been retracted.
    DeadExisting {
        /// Index of the offending edge in [`GraphDelta::edges`].
        edge: usize,
        /// The tombstoned vertex reference.
        vertex: VertexId,
    },
    /// A retraction referenced a vertex id past the graph's end.
    DanglingRetraction {
        /// Index in [`GraphDelta::del_edges`] or
        /// [`GraphDelta::del_vertices`].
        index: usize,
        /// The out-of-range vertex reference.
        vertex: VertexId,
        /// The base graph's vertex slot count the delta was checked
        /// against.
        vertex_count: usize,
    },
    /// An edge retraction referenced one of the delta's own new
    /// vertices but matched no pending insert — it can never resolve.
    UnmatchedNewRetraction {
        /// Index of the offending entry in [`GraphDelta::del_edges`].
        index: usize,
    },
    /// [`GraphDelta::merge`] refused the delta: one of its edges
    /// references a vertex an earlier delta of the same batch
    /// retracts, so sequential application could never accept it.
    RetractedInBatch {
        /// Index of the offending edge in the refused delta's
        /// [`GraphDelta::edges`].
        edge: usize,
        /// The vertex retracted earlier in the batch.
        vertex: VertexId,
    },
    /// An edge referenced an external id that is bound to nothing —
    /// neither a live vertex nor a vertex pending in the same batch.
    UnknownExternal {
        /// Index of the offending edge in [`GraphDelta::edges`].
        edge: usize,
        /// The unbound external id.
        ext: u64,
    },
    /// The delta declares an external id that is already bound (to a
    /// live vertex, a batch-pending vertex, or another vertex of the
    /// same delta). External ids are permanent names — rebinding one is
    /// always a client error.
    DuplicateExternal {
        /// The already-bound external id.
        ext: u64,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::DanglingExisting {
                edge,
                vertex,
                vertex_count,
            } => write!(
                f,
                "delta edge {edge} references base vertex {vertex} but the graph has only {vertex_count} vertices"
            ),
            DeltaError::DanglingNew {
                edge,
                index,
                new_vertices,
            } => write!(
                f,
                "delta edge {edge} references new vertex {index} but the delta declares only {new_vertices}"
            ),
            DeltaError::DeadExisting { edge, vertex } => write!(
                f,
                "delta edge {edge} references base vertex {vertex}, which has been retracted"
            ),
            DeltaError::DanglingRetraction {
                index,
                vertex,
                vertex_count,
            } => write!(
                f,
                "delta retraction {index} references base vertex {vertex} but the graph has only {vertex_count} vertex slots"
            ),
            DeltaError::UnmatchedNewRetraction { index } => write!(
                f,
                "delta retraction {index} references a new vertex of the same delta but matches no pending insert"
            ),
            DeltaError::RetractedInBatch { edge, vertex } => write!(
                f,
                "delta edge {edge} references vertex {vertex}, retracted earlier in the same batch"
            ),
            DeltaError::UnknownExternal { edge, ext } => write!(
                f,
                "delta edge {edge} references external id {ext}, which is bound to nothing"
            ),
            DeltaError::DuplicateExternal { ext } => write!(
                f,
                "delta declares external id {ext}, which is already bound"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The result of applying a delta: the new base graph plus the resolved
/// ids of everything the delta touched — what incremental view and
/// statistics maintenance consume.
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// The new base graph. Existing vertex and edge ids are unchanged
    /// (retraction tombstones, it never renumbers); new vertices/edges
    /// are appended.
    pub graph: Graph,
    /// The base graph the delta was applied to (an O(1) handle — the
    /// payload is shared). Deletion-side maintenance walks *this* graph
    /// to find sources whose walks died.
    pub base_old: Graph,
    /// Ids of the newly inserted vertices, in delta order.
    pub new_vertices: Vec<VertexId>,
    /// Resolved `(src, dst)` endpoints of the newly inserted edges.
    pub new_edges: Vec<(VertexId, VertexId)>,
    /// Resolved `(src, dst)` endpoints of every retracted edge,
    /// including edges cascaded from vertex retractions.
    pub deleted_edges: Vec<(VertexId, VertexId)>,
    /// Ids of the retracted vertices (those that were actually live).
    pub deleted_vertices: Vec<VertexId>,
}

/// Applies a delta to a graph. Existing ids are preserved — new
/// elements are appended, retracted elements are tombstoned in place —
/// so [`VRef::Existing`] references remain valid across repeated
/// applications.
///
/// Edge retractions remove the newest live matching base edge (LIFO; a
/// retraction with no live match is a no-op). Vertex retractions
/// cascade to every incident edge, including edges inserted by the same
/// delta.
///
/// # Panics
/// Panics if a [`VRef::New`] index is out of range of the delta, or if
/// an inserted edge references an out-of-range or tombstoned vertex.
/// Untrusted deltas should be checked with
/// [`GraphDelta::validate_against`] first.
pub fn apply_delta(g: &Graph, delta: &GraphDelta) -> AppliedDelta {
    let mut ed = g.edit();
    let mut new_vertices = Vec::with_capacity(delta.vertices.len());
    for nv in &delta.vertices {
        let id = ed.add_vertex(&nv.vtype);
        for (k, val) in &nv.props {
            ed.set_vertex_prop(id, k, val.clone());
        }
        new_vertices.push(id);
    }
    let resolve = |r: VRef| -> VertexId {
        match r {
            VRef::Existing(v) => v,
            VRef::New(i) => new_vertices[i],
            VRef::External(x) => panic!(
                "apply requires a resolved delta, found external reference {x} \
                 (call GraphDelta::resolve_external first)"
            ),
        }
    };
    let mut new_edges = Vec::with_capacity(delta.edges.len());
    for ne in &delta.edges {
        let (s, d) = (resolve(ne.src), resolve(ne.dst));
        let id = ed.add_edge(s, d, &ne.etype);
        for (k, val) in &ne.props {
            ed.set_edge_prop(id, k, val.clone());
        }
        new_edges.push((s, d));
    }
    // Retractions resolve against the *base* graph only: any retraction
    // that should have hit an in-batch insert was already cancelled by
    // del_edge/merge, so remaining ones never target edges added above.
    let mut deleted_edges = Vec::new();
    for de in &delta.del_edges {
        let (s, d) = (resolve(de.src), resolve(de.dst));
        if s.index() >= g.vertex_slots() {
            continue; // staged source: nothing in the base to retract
        }
        let newest = g
            .out_edges(s)
            .filter(|&(e, w)| w == d && g.edge_type(e) == de.etype && ed.is_edge_live(e))
            .map(|(e, _)| e)
            .max();
        if let Some(e) = newest {
            ed.remove_edge(e);
            deleted_edges.push((s, d));
        }
    }
    let mut deleted_vertices = Vec::new();
    for &v in &delta.del_vertices {
        if !ed.is_vertex_live(v) {
            continue; // already dead (possibly retracted twice in-batch)
        }
        let removed = ed.remove_vertex(v);
        deleted_edges.extend(removed.iter().map(|&(_, s, d)| (s, d)));
        deleted_vertices.push(v);
    }
    AppliedDelta {
        graph: ed.finish(),
        base_old: g.clone(),
        new_vertices,
        new_edges,
        deleted_edges,
        deleted_vertices,
    }
}

/// Per-vertex out-degree changes implied by an applied delta — the
/// input `GraphStats::with_changes` needs to update statistics without
/// rescanning the graph. Only vertices whose out-degree, existence, or
/// liveness changed are listed (sources of inserted/retracted edges,
/// inserted vertices, retracted vertices).
pub fn stat_changes(applied: &AppliedDelta) -> Vec<DegreeChange> {
    let old = &applied.base_old;
    let new = &applied.graph;
    let mut touched: BTreeSet<VertexId> = BTreeSet::new();
    touched.extend(applied.new_edges.iter().map(|&(s, _)| s));
    touched.extend(applied.deleted_edges.iter().map(|&(s, _)| s));
    touched.extend(applied.new_vertices.iter().copied());
    touched.extend(applied.deleted_vertices.iter().copied());
    touched
        .into_iter()
        .map(|v| {
            let before = (v.index() < old.vertex_slots() && old.is_vertex_live(v))
                .then(|| old.out_degree(v));
            let after = new.is_vertex_live(v).then(|| new.out_degree(v));
            DegreeChange {
                vtype: new.vertex_type(v).to_string(),
                before,
                after,
            }
        })
        .collect()
}

/// Sources whose exact-`k` frontier can change after the delta: any
/// vertex of the connector's source type within `k-1` **backward** hops
/// of an inserted edge's source endpoint (over the new base graph) or
/// of a retracted edge's source endpoint (over the *old* base graph —
/// the walks that died only exist there), plus any newly inserted
/// source-type vertex. Vertices retracted by the delta are excluded:
/// they no longer appear in the view at all.
fn affected_sources(def: &ConnectorDef, applied: &AppliedDelta) -> HashSet<VertexId> {
    let base_new = &applied.graph;
    let base_old = &applied.base_old;
    let mut affected = HashSet::new();
    let mut backward = |g: &Graph, s: VertexId| {
        // backward BFS up to k-1 hops, including s itself
        let mut visited = HashSet::new();
        visited.insert(s);
        let mut queue = VecDeque::from([(s, 0usize)]);
        while let Some((v, d)) = queue.pop_front() {
            if g.vertex_type(v) == def.src_type {
                affected.insert(v);
            }
            if d + 1 > def.k.saturating_sub(1) {
                continue;
            }
            for w in g.in_neighbors(v) {
                if visited.insert(w) {
                    queue.push_back((w, d + 1));
                }
            }
        }
    };
    for &(s, _) in &applied.new_edges {
        backward(base_new, s);
    }
    for &(s, _) in &applied.deleted_edges {
        if s.index() < base_old.vertex_slots() {
            backward(base_old, s);
        }
    }
    for &v in &applied.new_vertices {
        if base_new.is_vertex_live(v) && base_new.vertex_type(v) == def.src_type {
            affected.insert(v);
        }
    }
    affected.retain(|&v| base_new.is_vertex_live(v));
    affected
}

/// The connector refresh engine behind the connector
/// [`crate::refresh::ViewMaintainer`] impl. `old_view` must be the
/// connector materialized over `base_old` and `applied` the result of
/// applying the delta to `base_old`. Unaffected sources' connector
/// edges — including their `ts` and provenance `support` properties —
/// are copied from the old view; affected sources are recomputed
/// against the new base, which re-derives each surviving edge's support
/// and drops edges whose last witnessing walk died. The result is
/// identical to re-materializing from scratch (asserted by tests), but
/// touches only the neighborhood of the change. The expensive half —
/// re-deriving the exact-`k` frontier of every affected source — fans
/// out over `parts` pool tasks, one per partition of `part_of` (which
/// is handed the new base graph; a partitioned serving engine passes
/// its vertex partitioner); assembly stays serial and emits sources in sorted
/// order, so the result is **identical** for any partitioning (asserted
/// by tests). Returns the refreshed view graph plus the number of
/// sources whose frontier was recomputed.
pub(crate) fn connector_refresh(
    old_view: &Graph,
    applied: &AppliedDelta,
    def: &ConnectorDef,
    part_of: &(dyn Fn(&Graph, VertexId) -> usize + Sync),
    parts: usize,
    exec: Option<&dyn ParallelExec>,
) -> (Graph, usize) {
    let base_new = &applied.graph;
    let base_old = &applied.base_old;
    let affected = affected_sources(def, applied);

    // frontier recomputation, partitioned: bucket the affected sources
    // by owner and derive each bucket's connector targets on its own
    // thread (reads of the shared frozen graphs only). The serial path
    // (parts <= 1) streams targets straight into the builder below
    // instead, with no intermediate map.
    let mut affected_sorted: Vec<VertexId> = affected.iter().copied().collect();
    affected_sorted.sort();
    type TargetMap = HashMap<VertexId, Vec<crate::materialize::ConnectorTarget>>;
    let targets_of: Option<TargetMap> = if parts <= 1 {
        None
    } else {
        let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); parts];
        for &u in &affected_sorted {
            buckets[part_of(base_new, u).min(parts - 1)].push(u);
        }
        buckets.retain(|bucket| !bucket.is_empty());
        let exec = exec.unwrap_or(&SerialExec);
        type Derived = Vec<(VertexId, Vec<crate::materialize::ConnectorTarget>)>;
        let slots: Vec<std::sync::Mutex<Derived>> = buckets
            .iter()
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        exec.run(buckets.len(), &|b| {
            let derived: Derived = buckets[b]
                .iter()
                .map(|&u| (u, crate::materialize::connector_targets(base_new, def, u)))
                .collect();
            *slots[b].lock().unwrap_or_else(|e| e.into_inner()) = derived;
        });
        Some(
            slots
                .into_iter()
                .flat_map(|s| s.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect(),
        )
    };

    // Connector views list base vertices of the target types in base-id
    // order; ids are stable under apply_delta, so the mapping between
    // old-view ids and base ids is the old base's type-filtered live
    // vertex sequence.
    let mut b = GraphBuilder::new();
    let mut view_id_of: HashMap<VertexId, VertexId> = HashMap::new();
    for v in base_new.vertices() {
        let t = base_new.vertex_type(v);
        if t == def.src_type || t == def.dst_type {
            let nv = b.add_vertex(t);
            for (k, val) in base_new.vertex_props(v).iter() {
                b.set_vertex_prop(nv, base_new.resolve(k), val.clone());
            }
            view_id_of.insert(v, nv);
        }
    }

    let label = def.edge_label();
    let base_of_old_view: Vec<VertexId> = base_old
        .vertices()
        .filter(|&v| {
            let t = base_old.vertex_type(v);
            t == def.src_type || t == def.dst_type
        })
        .collect();
    debug_assert_eq!(base_of_old_view.len(), old_view.vertex_count());

    // Copy edges of unaffected sources from the old view. A source or
    // destination retracted by this delta always leaves its sources
    // affected (its incident edges were retracted too), so the map
    // lookups only filter dead endpoints defensively.
    for e in old_view.edges() {
        let src_base = base_of_old_view[old_view.edge_src(e).index()];
        if affected.contains(&src_base) {
            continue; // recomputed below
        }
        let dst_base = base_of_old_view[old_view.edge_dst(e).index()];
        let (Some(&ns), Some(&nd)) = (view_id_of.get(&src_base), view_id_of.get(&dst_base)) else {
            continue;
        };
        let ne = b.add_edge(ns, nd, &label);
        for (k, val) in old_view.edge_props(e).iter() {
            b.set_edge_prop(ne, old_view.resolve(k), val.clone());
        }
    }

    // Splice in the recomputed frontiers, in sorted source order —
    // pre-computed on worker threads when partitioned, derived inline
    // on the serial path.
    let recomputed = affected_sorted.len();
    for u in affected_sorted {
        let Some(&nu) = view_id_of.get(&u) else {
            continue;
        };
        match &targets_of {
            Some(map) => {
                crate::materialize::emit_targets(&mut b, &map[&u], &label, nu, &view_id_of)
            }
            None => crate::materialize::emit_connector_edges(
                &mut b,
                base_new,
                def,
                &label,
                u,
                nu,
                &view_id_of,
            ),
        }
    }
    (b.finish(), recomputed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::connector_view as materialize_connector;
    use kaskade_graph::EdgeId;

    // The tests exercise the refresh engine through thin local wrappers
    // (the deprecated public shims would trip `-D warnings`).
    fn maintain_connector(old_view: &Graph, applied: &AppliedDelta, def: &ConnectorDef) -> Graph {
        connector_refresh(old_view, applied, def, &|_, _| 0, 1, None).0
    }

    fn maintain_connector_partitioned(
        old_view: &Graph,
        applied: &AppliedDelta,
        def: &ConnectorDef,
        part_of: &(dyn Fn(&Graph, VertexId) -> usize + Sync),
        parts: usize,
    ) -> Graph {
        connector_refresh(old_view, applied, def, part_of, parts, None).0
    }

    /// One canonical edge: endpoints, type, `ts`, provenance `support`.
    type EdgePrint = (u32, u32, String, Option<i64>, Option<i64>);

    /// Canonical edge multiset for graph comparison (view graphs may
    /// order edges differently between incremental and full builds).
    /// Includes `ts` and the provenance `support` count.
    fn edge_fingerprint(g: &Graph) -> Vec<EdgePrint> {
        let mut v: Vec<_> = g
            .edges()
            .map(|e| {
                (
                    g.edge_src(e).0,
                    g.edge_dst(e).0,
                    g.edge_type(e).to_string(),
                    g.edge_prop(e, "ts").and_then(|p| p.as_int()),
                    g.edge_prop(e, "support").and_then(|p| p.as_int()),
                )
            })
            .collect();
        v.sort();
        v
    }

    fn lineage_base() -> Graph {
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        let e = b.add_edge(j0, f0, "WRITES_TO");
        b.set_edge_prop(e, "ts", Value::Int(1));
        let e = b.add_edge(f0, j1, "IS_READ_BY");
        b.set_edge_prop(e, "ts", Value::Int(2));
        b.finish()
    }

    #[test]
    fn apply_delta_preserves_existing_ids() {
        let g = lineage_base();
        let mut d = GraphDelta::new();
        let f = d.add_vertex("File", vec![("bytes".into(), Value::Int(7))]);
        d.add_edge(VRef::Existing(VertexId(2)), f, "WRITES_TO", vec![]);
        let applied = apply_delta(&g, &d);
        assert_eq!(applied.graph.vertex_count(), 4);
        assert_eq!(applied.graph.edge_count(), 3);
        assert_eq!(applied.graph.vertex_type(VertexId(0)), "Job");
        assert_eq!(applied.new_vertices, vec![VertexId(3)]);
        assert_eq!(applied.new_edges, vec![(VertexId(2), VertexId(3))]);
        assert_eq!(
            applied.graph.vertex_prop(VertexId(3), "bytes"),
            Some(&Value::Int(7))
        );
    }

    #[test]
    fn merge_equals_sequential_application() {
        let g = lineage_base();
        // delta 1: new file written by the existing downstream job
        let mut d1 = GraphDelta::new();
        let f1 = d1.add_vertex("File", vec![]);
        d1.add_edge(
            VRef::Existing(VertexId(2)),
            f1,
            "WRITES_TO",
            vec![("ts".into(), Value::Int(3))],
        );
        // delta 2: references both an existing vertex and its *own* new
        // vertices, exercising the VRef::New re-indexing
        let mut d2 = GraphDelta::new();
        let j2 = d2.add_vertex("Job", vec![("CPU".into(), Value::Int(9))]);
        d2.add_edge(VRef::Existing(VertexId(1)), j2, "IS_READ_BY", vec![]);
        let f2 = d2.add_vertex("File", vec![]);
        d2.add_edge(j2, f2, "WRITES_TO", vec![("ts".into(), Value::Int(4))]);

        let sequential = apply_delta(&apply_delta(&g, &d1).graph, &d2).graph;
        let mut merged = d1.clone();
        merged.merge(&d2).unwrap();
        let batched = apply_delta(&g, &merged).graph;
        assert_eq!(edge_fingerprint(&sequential), edge_fingerprint(&batched));
        assert_eq!(sequential.vertex_count(), batched.vertex_count());
        assert_eq!(
            batched.vertex_prop(VertexId(4), "CPU"),
            Some(&Value::Int(9))
        );
    }

    #[test]
    fn retraction_removes_newest_matching_edge() {
        // two parallel j0 -w-> f0 edges; one retraction kills the newer
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        b.add_edge(j0, f0, "WRITES_TO");
        b.add_edge(j0, f0, "WRITES_TO");
        let g = b.finish();

        let mut d = GraphDelta::new();
        d.del_edge(VRef::Existing(j0), VRef::Existing(f0), "WRITES_TO");
        let applied = apply_delta(&g, &d);
        assert_eq!(applied.graph.edge_count(), 1);
        assert!(applied.graph.is_edge_live(EdgeId(0)));
        assert!(!applied.graph.is_edge_live(EdgeId(1)));
        assert_eq!(applied.deleted_edges, vec![(j0, f0)]);

        // retracting again kills the older one; a third is a no-op
        let mut d2 = GraphDelta::new();
        d2.del_edge(VRef::Existing(j0), VRef::Existing(f0), "WRITES_TO");
        d2.del_edge(VRef::Existing(j0), VRef::Existing(f0), "WRITES_TO");
        let applied2 = apply_delta(&applied.graph, &d2);
        assert_eq!(applied2.graph.edge_count(), 0);
        assert_eq!(applied2.deleted_edges.len(), 1);
    }

    #[test]
    fn insert_then_delete_cancels_within_a_delta() {
        let g = lineage_base();
        let mut d = GraphDelta::new();
        let f = d.add_vertex("File", vec![]);
        d.add_edge(VRef::Existing(VertexId(2)), f, "WRITES_TO", vec![]);
        d.del_edge(VRef::Existing(VertexId(2)), f, "WRITES_TO");
        assert!(d.edges.is_empty(), "pending insert cancelled");
        assert!(d.del_edges.is_empty(), "retraction consumed");
        let applied = apply_delta(&g, &d);
        assert_eq!(applied.graph.edge_count(), g.edge_count());
        assert!(applied.deleted_edges.is_empty());
    }

    #[test]
    fn insert_then_delete_cancels_across_merge() {
        let g = lineage_base();
        // delta A inserts a fresh edge; delta B retracts the same
        // identity. Sequential application nets to the base graph, and
        // so must the merged batch (via cancellation, since B's target
        // has no id yet at merge time).
        let mut a = GraphDelta::new();
        a.add_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
            vec![("ts".into(), Value::Int(9))],
        );
        let mut b = GraphDelta::new();
        b.del_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
        );

        let sequential = apply_delta(&apply_delta(&g, &a).graph, &b).graph;
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        let batched = apply_delta(&g, &merged).graph;
        assert_eq!(edge_fingerprint(&sequential), edge_fingerprint(&batched));
        // the ORIGINAL base edge survives in both (LIFO removed A's)
        assert!(batched.is_edge_live(EdgeId(0)));
        assert_eq!(batched.edge_count(), 2);
    }

    #[test]
    fn delete_then_reinsert_round_trips() {
        let g = lineage_base();
        // one delta retracts the base edge and re-inserts the same
        // identity with a new ts: the retraction must hit the OLD edge,
        // not the re-insert
        let mut d = GraphDelta::new();
        d.del_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
        );
        d.add_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
            vec![("ts".into(), Value::Int(77))],
        );
        let applied = apply_delta(&g, &d);
        assert_eq!(applied.graph.edge_count(), 2);
        assert!(!applied.graph.is_edge_live(EdgeId(0)), "old edge retracted");
        let reinserted = EdgeId(applied.graph.edge_slots() as u32 - 1);
        assert_eq!(
            applied.graph.edge_prop(reinserted, "ts"),
            Some(&Value::Int(77))
        );

        // split across two merged deltas the result is the same
        let mut a = GraphDelta::new();
        a.del_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
        );
        let mut b2 = GraphDelta::new();
        b2.add_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
            vec![("ts".into(), Value::Int(77))],
        );
        let sequential = apply_delta(&apply_delta(&g, &a).graph, &b2).graph;
        let mut merged = a.clone();
        merged.merge(&b2).unwrap();
        let batched = apply_delta(&g, &merged).graph;
        assert_eq!(edge_fingerprint(&sequential), edge_fingerprint(&batched));
        assert_eq!(edge_fingerprint(&batched), edge_fingerprint(&applied.graph));
    }

    #[test]
    fn merge_rejects_insert_onto_batch_retracted_vertex() {
        // the doc-comment scenario: delta A retracts a vertex, delta B
        // inserts an edge onto it. Sequential application rejects B
        // (edge onto a dead vertex), so merge must refuse B too — and
        // leave A untouched.
        let mut a = GraphDelta::new();
        a.del_vertex(VertexId(1));
        let before = a.clone();
        let mut b = GraphDelta::new();
        let j = b.add_vertex("Job", vec![]);
        b.add_edge(VRef::Existing(VertexId(1)), j, "IS_READ_BY", vec![]);
        let err = a.merge(&b).unwrap_err();
        assert!(matches!(
            err,
            DeltaError::RetractedInBatch {
                edge: 0,
                vertex: VertexId(1)
            }
        ));
        assert!(err.to_string().contains("retracted earlier"));
        assert_eq!(a, before, "failed merge must not mutate the batch");
        // the equivalent sequential outcome: only A applies
        let g = lineage_base();
        let applied = apply_delta(&g, &a);
        assert_eq!(applied.graph.vertex_count(), 2);
        assert_eq!(applied.graph.edge_count(), 0);
        // a retraction (not an insert) onto the same vertex is fine
        let mut c = GraphDelta::new();
        c.del_vertex(VertexId(1));
        a.merge(&c).unwrap();
    }

    #[test]
    fn remap_rebases_deltas_through_compaction() {
        let g = lineage_base(); // j0, f0, j1
        let mut tomb = GraphDelta::new();
        tomb.del_vertex(VertexId(1)); // kill f0 (and both edges)
        let survivor = apply_delta(&g, &tomb).graph;
        let (compacted, remap) = survivor.compact();
        // old ids: j0 = 0, j1 = 2 → new ids: 0, 1

        // a queued delta in the OLD id space: an edge between the two
        // surviving jobs, a no-op retraction on the dead vertex, and a
        // retraction of a dead-endpoint edge
        let mut d = GraphDelta::new();
        d.add_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(2)),
            "WRITES_TO",
            vec![("ts".into(), Value::Int(9))],
        );
        d.del_vertex(VertexId(1));
        d.del_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
        );
        d.remap(&remap);
        // endpoints translated, no-op retractions dropped
        assert_eq!(d.edges[0].src, VRef::Existing(VertexId(0)));
        assert_eq!(d.edges[0].dst, VRef::Existing(VertexId(1)));
        assert!(d.del_vertices.is_empty());
        assert!(d.del_edges.is_empty());
        let applied = apply_delta(&compacted, &d);
        assert_eq!(applied.graph.edge_count(), 1);
        assert_eq!(applied.new_edges, vec![(VertexId(0), VertexId(1))]);

        // an insert onto the dropped slot is poisoned, not silently
        // rewired: validation rejects it like the uncompacted path
        // rejects the DeadExisting original
        let mut bad = GraphDelta::new();
        let f = bad.add_vertex("File", vec![]);
        bad.add_edge(VRef::Existing(VertexId(1)), f, "WRITES_TO", vec![]);
        assert!(bad.validate_against(&survivor, 0).is_err());
        bad.remap(&remap);
        assert!(bad.validate_against(&compacted, 0).is_err());
    }

    #[test]
    fn vertex_retraction_cascades() {
        let g = lineage_base();
        let mut d = GraphDelta::new();
        d.del_vertex(VertexId(1)); // f0: both base edges touch it
        let applied = apply_delta(&g, &d);
        assert_eq!(applied.graph.vertex_count(), 2);
        assert_eq!(applied.graph.edge_count(), 0);
        assert_eq!(applied.deleted_vertices, vec![VertexId(1)]);
        assert_eq!(applied.deleted_edges.len(), 2);
        // retracting the same vertex again is a no-op
        let applied2 = apply_delta(&applied.graph, &d);
        assert!(applied2.deleted_vertices.is_empty());
    }

    #[test]
    fn validate_catches_dangling_references() {
        let g = lineage_base(); // 3 vertices
        let mut ok = GraphDelta::new();
        let v = ok.add_vertex("File", vec![]);
        ok.add_edge(VRef::Existing(VertexId(2)), v, "WRITES_TO", vec![]);
        assert_eq!(ok.validate(g.vertex_count()), Ok(()));

        let mut dangling_existing = GraphDelta::new();
        let v = dangling_existing.add_vertex("File", vec![]);
        dangling_existing.add_edge(VRef::Existing(VertexId(99)), v, "WRITES_TO", vec![]);
        let err = dangling_existing.validate(g.vertex_count()).unwrap_err();
        assert!(matches!(err, DeltaError::DanglingExisting { .. }));
        assert!(err.to_string().contains("only 3 vertices"));

        let mut dangling_new = GraphDelta::new();
        dangling_new.add_edge(VRef::New(0), VRef::New(1), "WRITES_TO", vec![]);
        let err = dangling_new.validate(g.vertex_count()).unwrap_err();
        assert!(matches!(err, DeltaError::DanglingNew { .. }));

        let mut dangling_del = GraphDelta::new();
        dangling_del.del_vertex(VertexId(99));
        let err = dangling_del.validate(g.vertex_count()).unwrap_err();
        assert!(matches!(err, DeltaError::DanglingRetraction { .. }));

        // a New-ref retraction that matched no pending insert
        let mut unmatched = GraphDelta::new();
        let v = unmatched.add_vertex("File", vec![]);
        unmatched.del_edge(VRef::Existing(VertexId(0)), v, "WRITES_TO");
        let err = unmatched.validate(g.vertex_count()).unwrap_err();
        assert!(matches!(err, DeltaError::UnmatchedNewRetraction { .. }));
    }

    #[test]
    fn validate_against_rejects_dead_targets() {
        let g = lineage_base().remove_vertices([VertexId(1)]);
        let mut onto_dead = GraphDelta::new();
        let v = onto_dead.add_vertex("Job", vec![]);
        onto_dead.add_edge(VRef::Existing(VertexId(1)), v, "IS_READ_BY", vec![]);
        let err = onto_dead.validate_against(&g, 0).unwrap_err();
        assert!(matches!(err, DeltaError::DeadExisting { .. }));
        assert!(err.to_string().contains("retracted"));
        // retracting around a dead vertex is tolerated (no-op at apply)
        let mut del_dead = GraphDelta::new();
        del_dead.del_vertex(VertexId(1));
        assert_eq!(del_dead.validate_against(&g, 0), Ok(()));
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = lineage_base();
        let applied = apply_delta(&g, &GraphDelta::new());
        assert_eq!(applied.graph.vertex_count(), g.vertex_count());
        assert_eq!(applied.graph.edge_count(), g.edge_count());
    }

    #[test]
    fn incremental_equals_full_rematerialization_simple() {
        let g = lineage_base();
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let old_view = materialize_connector(&g, &def);
        assert_eq!(old_view.edge_count(), 1); // j0 -> j1

        // extend the pipeline: j1 writes f1, read by a new job j2
        let mut d = GraphDelta::new();
        let f1 = d.add_vertex("File", vec![]);
        let j2 = d.add_vertex("Job", vec![]);
        d.add_edge(
            VRef::Existing(VertexId(2)),
            f1,
            "WRITES_TO",
            vec![("ts".into(), Value::Int(3))],
        );
        d.add_edge(f1, j2, "IS_READ_BY", vec![("ts".into(), Value::Int(4))]);
        let applied = apply_delta(&g, &d);

        let incremental = maintain_connector(&old_view, &applied, &def);
        let full = materialize_connector(&applied.graph, &def);
        assert_eq!(edge_fingerprint(&incremental), edge_fingerprint(&full));
        assert_eq!(incremental.vertex_count(), full.vertex_count());
        assert_eq!(incremental.edge_count(), 2);
    }

    #[test]
    fn incremental_handles_edge_into_existing_structure() {
        // new read edge from an existing file to an existing job changes
        // the 2-hop frontier of the file's producer
        let g = lineage_base();
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let old_view = materialize_connector(&g, &def);

        let mut d = GraphDelta::new();
        let j2 = d.add_vertex("Job", vec![]);
        d.add_edge(
            VRef::Existing(VertexId(1)), // f0
            j2,
            "IS_READ_BY",
            vec![("ts".into(), Value::Int(9))],
        );
        let applied = apply_delta(&g, &d);
        let incremental = maintain_connector(&old_view, &applied, &def);
        let full = materialize_connector(&applied.graph, &def);
        assert_eq!(edge_fingerprint(&incremental), edge_fingerprint(&full));
        assert_eq!(incremental.edge_count(), 2); // j0->j1 and j0->j2
    }

    #[test]
    fn multi_witness_edge_survives_single_retraction() {
        // two disjoint 2-walks j0 -> f -> j1: the connector edge has
        // support 2 and must survive losing one witness
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let f1 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        b.add_edge(j0, f0, "WRITES_TO");
        b.add_edge(j0, f1, "WRITES_TO");
        b.add_edge(f0, j1, "IS_READ_BY");
        b.add_edge(f1, j1, "IS_READ_BY");
        let g = b.finish();
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let view = materialize_connector(&g, &def);
        assert_eq!(view.edge_count(), 1);
        let e = view.edges().next().unwrap();
        assert_eq!(view.edge_prop(e, "support"), Some(&Value::Int(2)));

        // retract one witness: the edge survives with support 1
        let mut d = GraphDelta::new();
        d.del_edge(VRef::Existing(f0), VRef::Existing(j1), "IS_READ_BY");
        let applied = apply_delta(&g, &d);
        let view1 = maintain_connector(&view, &applied, &def);
        assert_eq!(
            edge_fingerprint(&view1),
            edge_fingerprint(&materialize_connector(&applied.graph, &def))
        );
        assert_eq!(view1.edge_count(), 1);
        let e = view1.edges().next().unwrap();
        assert_eq!(view1.edge_prop(e, "support"), Some(&Value::Int(1)));

        // retract the last witness: the edge dies
        let mut d2 = GraphDelta::new();
        d2.del_edge(VRef::Existing(f1), VRef::Existing(j1), "IS_READ_BY");
        let applied2 = apply_delta(&applied.graph, &d2);
        let view2 = maintain_connector(&view1, &applied2, &def);
        assert_eq!(
            edge_fingerprint(&view2),
            edge_fingerprint(&materialize_connector(&applied2.graph, &def))
        );
        assert_eq!(view2.edge_count(), 0);
    }

    #[test]
    fn retraction_recomputes_ts_from_surviving_walks() {
        // two walks with different max ts; retracting the younger one
        // must fall the connector ts back to the older walk's
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let f1 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        let e = b.add_edge(j0, f0, "WRITES_TO");
        b.set_edge_prop(e, "ts", Value::Int(1));
        let e = b.add_edge(f0, j1, "IS_READ_BY");
        b.set_edge_prop(e, "ts", Value::Int(2));
        let e = b.add_edge(j0, f1, "WRITES_TO");
        b.set_edge_prop(e, "ts", Value::Int(3));
        let e = b.add_edge(f1, j1, "IS_READ_BY");
        b.set_edge_prop(e, "ts", Value::Int(9));
        let g = b.finish();
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let view = materialize_connector(&g, &def);
        let e = view.edges().next().unwrap();
        assert_eq!(view.edge_prop(e, "ts"), Some(&Value::Int(9)));

        let mut d = GraphDelta::new();
        d.del_edge(VRef::Existing(f1), VRef::Existing(j1), "IS_READ_BY");
        let applied = apply_delta(&g, &d);
        let view1 = maintain_connector(&view, &applied, &def);
        let e = view1.edges().next().unwrap();
        assert_eq!(view1.edge_prop(e, "ts"), Some(&Value::Int(2)));
        assert_eq!(
            edge_fingerprint(&view1),
            edge_fingerprint(&materialize_connector(&applied.graph, &def))
        );
    }

    #[test]
    fn incremental_handles_vertex_retraction() {
        let g = lineage_base();
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let view = materialize_connector(&g, &def);
        assert_eq!(view.edge_count(), 1);

        let mut d = GraphDelta::new();
        d.del_vertex(VertexId(1)); // f0: severs the only walk
        let applied = apply_delta(&g, &d);
        let incremental = maintain_connector(&view, &applied, &def);
        let full = materialize_connector(&applied.graph, &def);
        assert_eq!(edge_fingerprint(&incremental), edge_fingerprint(&full));
        assert_eq!(incremental.edge_count(), 0);
        assert_eq!(incremental.vertex_count(), 2); // both jobs remain

        // retracting a view-typed vertex drops it from the view too
        let mut d2 = GraphDelta::new();
        d2.del_vertex(VertexId(2)); // j1
        let applied2 = apply_delta(&applied.graph, &d2);
        let incremental2 = maintain_connector(&incremental, &applied2, &def);
        let full2 = materialize_connector(&applied2.graph, &def);
        assert_eq!(edge_fingerprint(&incremental2), edge_fingerprint(&full2));
        assert_eq!(incremental2.vertex_count(), 1);
    }

    #[test]
    fn incremental_on_randomized_churn() {
        use kaskade_datasets::{generate_provenance, ProvenanceConfig};
        let g = generate_provenance(&ProvenanceConfig::tiny(71).core_only());
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let mut view = materialize_connector(&g, &def);
        let mut base = g;

        // grow AND shrink the graph in waves, maintaining incrementally
        for wave in 0..6u64 {
            let mut d = GraphDelta::new();
            let files: Vec<VertexId> = base.vertices_of_type("File").collect();
            let j = d.add_vertex("Job", vec![("CPU".into(), Value::Int(5))]);
            // new job reads two existing files and writes one new file
            for (i, f) in files.iter().rev().take(2).enumerate() {
                d.add_edge(
                    VRef::Existing(*f),
                    j,
                    "IS_READ_BY",
                    vec![("ts".into(), Value::Int(1000 + wave as i64 * 10 + i as i64))],
                );
            }
            let nf = d.add_vertex("File", vec![]);
            d.add_edge(
                j,
                nf,
                "WRITES_TO",
                vec![("ts".into(), Value::Int(1005 + wave as i64 * 10))],
            );
            // every other wave also retracts an old read edge and, on
            // wave 4, a whole file vertex
            if wave % 2 == 1 {
                if let Some(e) = base.edges().find(|&e| base.edge_type(e) == "IS_READ_BY") {
                    d.del_edge(
                        VRef::Existing(base.edge_src(e)),
                        VRef::Existing(base.edge_dst(e)),
                        "IS_READ_BY",
                    );
                }
            }
            if wave == 4 {
                if let Some(f) = files.first() {
                    d.del_vertex(*f);
                }
            }
            let applied = apply_delta(&base, &d);
            view = maintain_connector(&view, &applied, &def);
            let full = materialize_connector(&applied.graph, &def);
            assert_eq!(
                edge_fingerprint(&view),
                edge_fingerprint(&full),
                "wave {wave}"
            );
            base = applied.graph;
        }
    }

    #[test]
    fn incremental_respects_same_edge_type_restriction() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("V");
        let c = b.add_vertex("V");
        b.add_edge(a, c, "F");
        let g = b.finish();
        let def = ConnectorDef::same_edge_type("V", "V", 2, "F");
        let old_view = materialize_connector(&g, &def);
        assert_eq!(old_view.edge_count(), 0);

        // add c -G-> d (wrong type) and c -F-> e (right type)
        let mut d = GraphDelta::new();
        let vd = d.add_vertex("V", vec![]);
        let ve = d.add_vertex("V", vec![]);
        d.add_edge(VRef::Existing(c), vd, "G", vec![]);
        d.add_edge(VRef::Existing(c), ve, "F", vec![]);
        let applied = apply_delta(&g, &d);
        let incremental = maintain_connector(&old_view, &applied, &def);
        let full = materialize_connector(&applied.graph, &def);
        assert_eq!(edge_fingerprint(&incremental), edge_fingerprint(&full));
        assert_eq!(incremental.edge_count(), 1); // a -F-> c -F-> e only
    }

    #[test]
    fn partitioned_connector_maintenance_matches_serial() {
        use kaskade_datasets::{generate_provenance, ProvenanceConfig};
        let g = generate_provenance(&ProvenanceConfig::tiny(78).core_only());
        let def = ConnectorDef::k_hop("Job", "Job", 2);
        let view = materialize_connector(&g, &def);

        let mut d = GraphDelta::new();
        let j = d.add_vertex("Job", vec![]);
        let f0 = g.vertices_of_type("File").next().unwrap();
        d.add_edge(VRef::Existing(f0), j, "IS_READ_BY", vec![]);
        let e = g.edges().find(|&e| g.edge_type(e) == "IS_READ_BY").unwrap();
        d.del_edge(
            VRef::Existing(g.edge_src(e)),
            VRef::Existing(g.edge_dst(e)),
            "IS_READ_BY",
        );
        let applied = apply_delta(&g, &d);

        let serial = maintain_connector(&view, &applied, &def);
        for parts in [2usize, 3, 8] {
            let parallel = maintain_connector_partitioned(
                &view,
                &applied,
                &def,
                &|_, v| (v.0 as usize) % parts,
                parts,
            );
            assert_eq!(
                edge_fingerprint(&parallel),
                edge_fingerprint(&serial),
                "{parts} parts"
            );
            assert_eq!(parallel.vertex_count(), serial.vertex_count());
        }
    }

    #[test]
    fn stat_changes_track_inserts_and_retractions() {
        let g = lineage_base();
        let stats = kaskade_graph::GraphStats::compute(&g);
        let mut d = GraphDelta::new();
        let f = d.add_vertex("File", vec![]);
        d.add_edge(VRef::Existing(VertexId(2)), f, "WRITES_TO", vec![]);
        d.del_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
        );
        let applied = apply_delta(&g, &d);
        let changes = stat_changes(&applied);
        let incremental = stats
            .with_changes(
                &changes,
                applied.graph.vertex_count(),
                applied.graph.edge_count(),
            )
            .unwrap();
        assert_eq!(
            incremental,
            kaskade_graph::GraphStats::compute(&applied.graph)
        );
    }
}

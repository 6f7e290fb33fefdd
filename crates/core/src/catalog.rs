//! The catalog of materialized views.

use std::fmt;

use kaskade_graph::{Graph, GraphStats};

use crate::views::ViewDef;

/// A typed handle to a materialized view: the view's stable slot in
/// the [`Catalog`]. Plans and the refresh DAG reference
/// views through `ViewId` instead of display strings — slots are
/// stable because the serving write path refreshes entries in place
/// ([`crate::Snapshot::with_delta`]), compaction carries the catalog
/// over verbatim, and dropping a view **tombstones** its slot instead
/// of shifting its successors: a `ViewId` is never reused for a
/// different view, so a stale handle resolves to `None` rather than to
/// an unrelated view. The human-readable name is still [`ViewDef::id`];
/// resolve one to the other with [`Catalog::lookup`] /
/// [`Catalog::get_by_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(pub u32);

impl ViewId {
    /// The catalog slot index this id denotes.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view#{}", self.0)
    }
}

/// A live catalog-mutation operation (DDL): create a view from its
/// definition, or drop one by its typed handle. The serving runtime
/// queues these through the same write path as deltas, publishes each
/// as its own epoch, and logs them to the WAL (`KIND_DDL`) so recovery
/// replays catalog changes in epoch order.
#[derive(Debug, Clone, PartialEq)]
pub enum DdlOp {
    /// Materialize `ViewDef` over the base graph and register it.
    CreateView(ViewDef),
    /// Tombstone the slot of an existing view (stale handles miss; the
    /// slot is never reused).
    DropView(ViewId),
}

/// A materialized view: its definition, the physical graph, and the
/// statistics the cost model needs when costing rewritten queries.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// The view definition.
    pub def: ViewDef,
    /// The physical view graph.
    pub graph: Graph,
    /// Statistics of the view graph.
    pub stats: GraphStats,
}

impl MaterializedView {
    /// Wraps a freshly materialized graph.
    pub fn new(def: ViewDef, graph: Graph) -> Self {
        let stats = GraphStats::compute(&graph);
        MaterializedView { def, graph, stats }
    }

    /// Size in edges (the budget unit of §V-B).
    pub fn size_edges(&self) -> usize {
        self.graph.edge_count()
    }
}

/// All currently materialized views, in tombstoned slots: dropping a
/// view leaves a `None` hole so every surviving [`ViewId`] keeps
/// meaning the same view forever.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    views: Vec<Option<MaterializedView>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a view. A live view with the same definition id is replaced
    /// **in place**, keeping its [`ViewId`] (catalog slot) stable for
    /// cached plans and DAG edges; otherwise a fresh slot is appended —
    /// tombstoned slots are never reused, so re-creating a dropped view
    /// mints a new `ViewId`.
    pub fn add(&mut self, view: MaterializedView) {
        let id = view.def.id();
        match self
            .views
            .iter()
            .position(|v| v.as_ref().is_some_and(|v| v.def.id() == id))
        {
            Some(i) => self.views[i] = Some(view),
            None => self.views.push(Some(view)),
        }
    }

    /// Looks up a view by its definition id.
    pub fn get(&self, id: &str) -> Option<&MaterializedView> {
        self.iter().find(|v| v.def.id() == id)
    }

    /// Looks up a view by its typed handle. A dropped (tombstoned) or
    /// out-of-range slot resolves to `None`.
    pub fn get_by_id(&self, id: ViewId) -> Option<&MaterializedView> {
        self.views.get(id.index()).and_then(Option::as_ref)
    }

    /// Resolves a definition id to its typed handle and view.
    pub fn lookup(&self, id: &str) -> Option<(ViewId, &MaterializedView)> {
        self.iter_with_ids().find(|(_, v)| v.def.id() == id)
    }

    /// Iterates over all live views with their typed handles (true slot
    /// indices — with tombstones present these are not contiguous).
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (ViewId, &MaterializedView)> {
        self.views
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (ViewId(i as u32), v)))
    }

    /// Iterates over all live materialized views.
    pub fn iter(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.iter().filter_map(Option::as_ref)
    }

    /// Number of live materialized views.
    pub fn len(&self) -> usize {
        self.views.iter().filter(|v| v.is_some()).count()
    }

    /// Whether the catalog holds no live views.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size of all live materialized views, in edges.
    pub fn total_edges(&self) -> usize {
        self.iter().map(MaterializedView::size_edges).sum()
    }

    /// Tombstones the slot of view `id`, returning whether a live view
    /// was there. The slot stays allocated forever: later
    /// [`Catalog::get_by_id`] calls miss instead of resolving the id to
    /// a different view.
    pub fn drop_view(&mut self, id: ViewId) -> bool {
        match self.views.get_mut(id.index()) {
            Some(slot) => slot.take().is_some(),
            None => false,
        }
    }

    /// Replaces the live view in slot `id` (used by the refresh DAG to
    /// swap in a refreshed graph without disturbing slot layout).
    ///
    /// # Panics
    /// Panics if the slot is tombstoned or out of range — callers
    /// replace only ids they just iterated from this catalog.
    pub fn replace(&mut self, id: ViewId, view: MaterializedView) {
        let slot = self
            .views
            .get_mut(id.index())
            .expect("replace of an out-of-range catalog slot");
        assert!(slot.is_some(), "replace of a tombstoned catalog slot");
        *slot = Some(view);
    }

    /// Number of slots ever allocated, tombstones included (the
    /// exclusive upper bound of live `ViewId`s).
    pub fn slot_count(&self) -> usize {
        self.views.len()
    }

    /// Iterates every slot in order, tombstones as `None` — the
    /// checkpoint codec serializes this layout so `ViewId`s survive
    /// restarts.
    pub fn slots(&self) -> impl Iterator<Item = Option<&MaterializedView>> {
        self.views.iter().map(Option::as_ref)
    }

    /// Appends a slot verbatim (live or tombstoned) — the checkpoint
    /// codec's decode primitive.
    pub(crate) fn push_slot(&mut self, slot: Option<MaterializedView>) {
        self.views.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::materialize;
    use crate::views::{ConnectorDef, ViewDef};
    use kaskade_graph::GraphBuilder;

    fn toy_view() -> MaterializedView {
        let mut b = GraphBuilder::new();
        let j1 = b.add_vertex("Job");
        let f = b.add_vertex("File");
        let j2 = b.add_vertex("Job");
        b.add_edge(j1, f, "WRITES_TO");
        b.add_edge(f, j2, "IS_READ_BY");
        let g = b.finish();
        let def = ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2));
        let graph = materialize(&g, &def);
        MaterializedView::new(def, graph)
    }

    #[test]
    fn add_get_drop() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        let v = toy_view();
        let id = v.def.id();
        c.add(v);
        assert_eq!(c.len(), 1);
        assert!(c.get(&id).is_some());
        assert!(c.get("nope").is_none());
        let (vid, _) = c.lookup(&id).unwrap();
        assert!(c.drop_view(vid));
        assert!(!c.drop_view(vid), "second drop of the same slot misses");
        assert!(c.is_empty());
        assert!(c.get(&id).is_none());
    }

    #[test]
    fn add_replaces_same_id() {
        let mut c = Catalog::new();
        c.add(toy_view());
        c.add(toy_view());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn view_ids_are_stable_positions() {
        let mut c = Catalog::new();
        let v = toy_view();
        let name = v.def.id();
        c.add(v);
        let other = MaterializedView::new(
            ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 4)),
            GraphBuilder::new().finish(),
        );
        c.add(other);
        let (id, _) = c.lookup(&name).unwrap();
        assert_eq!(id, ViewId(0));
        assert_eq!(id.to_string(), "view#0");
        // replacing in place keeps the position
        c.add(toy_view());
        assert_eq!(c.lookup(&name).unwrap().0, ViewId(0));
        assert!(c.get_by_id(ViewId(1)).unwrap().def.id().contains("4_HOP"));
        assert!(c.get_by_id(ViewId(9)).is_none());
        assert_eq!(c.iter_with_ids().count(), 2);
    }

    #[test]
    fn dropped_slots_are_never_reused() {
        let mut c = Catalog::new();
        let v = toy_view();
        let name = v.def.id();
        c.add(v);
        let other = MaterializedView::new(
            ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 4)),
            GraphBuilder::new().finish(),
        );
        c.add(other);
        assert!(c.drop_view(ViewId(0)));
        // the survivor keeps its original slot
        assert_eq!(c.len(), 1);
        assert!(c.get_by_id(ViewId(0)).is_none());
        assert!(c.get_by_id(ViewId(1)).is_some());
        // re-creating the dropped view mints a NEW id past the tombstone
        c.add(toy_view());
        let (vid, _) = c.lookup(&name).unwrap();
        assert_eq!(vid, ViewId(2));
        assert_eq!(c.slot_count(), 3);
        assert_eq!(c.len(), 2);
        // slots() exposes the tombstone for the checkpoint codec
        let live: Vec<bool> = c.slots().map(|s| s.is_some()).collect();
        assert_eq!(live, vec![false, true, true]);
        // iter_with_ids yields true slot indices, skipping the hole
        let ids: Vec<ViewId> = c.iter_with_ids().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![ViewId(1), ViewId(2)]);
    }

    #[test]
    fn replace_keeps_slot_and_panics_on_tombstone() {
        let mut c = Catalog::new();
        c.add(toy_view());
        c.replace(ViewId(0), toy_view());
        assert_eq!(c.len(), 1);
        c.drop_view(ViewId(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.replace(ViewId(0), toy_view())
        }));
        assert!(r.is_err(), "replacing a tombstone must panic");
    }

    #[test]
    fn total_edges_sums_views() {
        let mut c = Catalog::new();
        let v = toy_view();
        let e = v.size_edges();
        assert_eq!(e, 1); // one job-to-job connector edge
        c.add(v);
        assert_eq!(c.total_edges(), 1);
    }

    #[test]
    fn stats_computed_on_materialization() {
        let v = toy_view();
        assert_eq!(v.stats.edge_count, 1);
        assert_eq!(v.stats.for_type("Job").unwrap().cardinality, 2);
    }
}

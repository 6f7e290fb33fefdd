//! Wire codecs for the durability layer.
//!
//! The WAL logs [`GraphDelta`]s (one per published batch) and
//! checkpoints serialize whole [`Snapshot`]s — graph, schema,
//! statistics, and the materialized-view catalog. Everything rides the
//! byte-level [`Enc`]/[`Dec`] codec from `kaskade-graph`; this module
//! adds the structure: tagged enums for [`VRef`] and [`ViewDef`],
//! length-prefixed sequences for delta operations, and a snapshot
//! layout of `graph · schema · stats · catalog`.
//!
//! Decoding is defensive throughout — every tag is range-checked and
//! every count bounded — because checkpoints and WAL tails can be torn
//! by crashes; a corrupt record must surface as [`CodecError`], never
//! as a panic or a bogus graph.

use kaskade_graph::{
    decode_value, encode_value, CodecError, Dec, Enc, Graph, GraphStats, Schema, Value, VertexId,
};

use crate::catalog::{Catalog, MaterializedView};
use crate::maintain::{DelEdge, GraphDelta, NewEdge, NewVertex, VRef};
use crate::snapshot::Snapshot;
use crate::views::{
    AggOp, ComposedDef, ConnectorDef, PropPredicate, SourceSinkDef, SummarizerDef, ViewDef,
};

fn encode_props(props: &[(String, Value)], out: &mut Enc) {
    out.usize(props.len());
    for (k, v) in props {
        out.str(k);
        encode_value(v, out);
    }
}

fn decode_props(d: &mut Dec<'_>) -> Result<Vec<(String, Value)>, CodecError> {
    let n = d.count()?;
    let mut props = Vec::with_capacity(n);
    for _ in 0..n {
        let k = d.str()?;
        let v = decode_value(d)?;
        props.push((k, v));
    }
    Ok(props)
}

fn encode_strs(items: &[String], out: &mut Enc) {
    out.usize(items.len());
    for s in items {
        out.str(s);
    }
}

fn decode_strs(d: &mut Dec<'_>) -> Result<Vec<String>, CodecError> {
    let n = d.count()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(d.str()?);
    }
    Ok(items)
}

fn encode_opt_str(s: &Option<String>, out: &mut Enc) {
    match s {
        Some(s) => {
            out.bool(true);
            out.str(s);
        }
        None => out.bool(false),
    }
}

fn decode_opt_str(d: &mut Dec<'_>) -> Result<Option<String>, CodecError> {
    Ok(if d.bool()? { Some(d.str()?) } else { None })
}

fn encode_vref(r: &VRef, out: &mut Enc) {
    match r {
        VRef::Existing(v) => {
            out.u8(0);
            out.u32(v.0);
        }
        VRef::New(i) => {
            out.u8(1);
            out.usize(*i);
        }
        VRef::External(e) => {
            out.u8(2);
            out.u64(*e);
        }
    }
}

fn decode_vref(d: &mut Dec<'_>) -> Result<VRef, CodecError> {
    match d.u8()? {
        0 => Ok(VRef::Existing(VertexId(d.u32()?))),
        1 => Ok(VRef::New(d.usize()?)),
        2 => Ok(VRef::External(d.u64()?)),
        _ => Err(CodecError::Corrupt("vref tag out of range")),
    }
}

impl GraphDelta {
    /// Appends the delta to `out` — the payload of a WAL `Batch`
    /// record. Everything round-trips, including external ids and the
    /// retraction ordering windows (`pending_seen`), so a
    /// replayed delta publishes the exact snapshot the original did.
    pub fn encode(&self, out: &mut Enc) {
        out.usize(self.vertices.len());
        for nv in &self.vertices {
            out.str(&nv.vtype);
            encode_props(&nv.props, out);
            // the retired per-vertex ghost byte, always false: the
            // record layout keeps its slot so logs stay byte-identical
            out.bool(false);
            match nv.ext {
                Some(e) => {
                    out.bool(true);
                    out.u64(e);
                }
                None => out.bool(false),
            }
        }
        out.usize(self.edges.len());
        for ne in &self.edges {
            encode_vref(&ne.src, out);
            encode_vref(&ne.dst, out);
            out.str(&ne.etype);
            encode_props(&ne.props, out);
        }
        out.usize(self.del_edges.len());
        for de in &self.del_edges {
            encode_vref(&de.src, out);
            encode_vref(&de.dst, out);
            out.str(&de.etype);
            out.usize(de.pending_seen);
        }
        out.usize(self.del_vertices.len());
        for v in &self.del_vertices {
            out.u32(v.0);
        }
        out.usize(self.del_vertices_ext.len());
        for e in &self.del_vertices_ext {
            out.u64(*e);
        }
    }

    /// Decodes a delta previously written by [`GraphDelta::encode`].
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut delta = GraphDelta::new();
        let nv = d.count()?;
        for _ in 0..nv {
            let vtype = d.str()?;
            let props = decode_props(d)?;
            if d.bool()? {
                return Err(CodecError::Corrupt("ghost vertex flag set"));
            }
            let ext = if d.bool()? { Some(d.u64()?) } else { None };
            delta.vertices.push(NewVertex { vtype, props, ext });
        }
        let ne = d.count()?;
        for _ in 0..ne {
            let src = decode_vref(d)?;
            let dst = decode_vref(d)?;
            let etype = d.str()?;
            let props = decode_props(d)?;
            delta.edges.push(NewEdge {
                src,
                dst,
                etype,
                props,
            });
        }
        let nde = d.count()?;
        for _ in 0..nde {
            let src = decode_vref(d)?;
            let dst = decode_vref(d)?;
            let etype = d.str()?;
            let pending_seen = d.usize()?;
            if pending_seen > delta.edges.len() {
                return Err(CodecError::Corrupt("pending_seen exceeds edge count"));
            }
            delta.del_edges.push(DelEdge {
                src,
                dst,
                etype,
                pending_seen,
            });
        }
        let ndv = d.count()?;
        for _ in 0..ndv {
            delta.del_vertices.push(VertexId(d.u32()?));
        }
        let nde2 = d.count()?;
        for _ in 0..nde2 {
            delta.del_vertices_ext.push(d.u64()?);
        }
        Ok(delta)
    }
}

/// Appends a schema to `out` (vertex types sorted, rules in
/// declaration order — both already deterministic in [`Schema`]).
pub fn encode_schema(s: &Schema, out: &mut Enc) {
    let vtypes: Vec<&str> = s.vertex_types().collect();
    out.usize(vtypes.len());
    for t in vtypes {
        out.str(t);
    }
    out.usize(s.edge_rules().len());
    for r in s.edge_rules() {
        out.str(&r.src);
        out.str(&r.name);
        out.str(&r.dst);
    }
}

/// Decodes a schema previously written by [`encode_schema`].
pub fn decode_schema(d: &mut Dec<'_>) -> Result<Schema, CodecError> {
    let mut s = Schema::new();
    let nv = d.count()?;
    for _ in 0..nv {
        let t = d.str()?;
        s.add_vertex_type(&t);
    }
    let nr = d.count()?;
    for _ in 0..nr {
        let src = d.str()?;
        let name = d.str()?;
        let dst = d.str()?;
        s.add_edge_rule(&src, &name, &dst);
    }
    Ok(s)
}

fn encode_predicate(p: &PropPredicate, out: &mut Enc) {
    match p {
        PropPredicate::IntAtLeast(k, b) => {
            out.u8(0);
            out.str(k);
            out.i64(*b);
        }
        PropPredicate::IntBelow(k, b) => {
            out.u8(1);
            out.str(k);
            out.i64(*b);
        }
        PropPredicate::StrEquals(k, s) => {
            out.u8(2);
            out.str(k);
            out.str(s);
        }
        PropPredicate::Exists(k) => {
            out.u8(3);
            out.str(k);
        }
    }
}

fn decode_predicate(d: &mut Dec<'_>) -> Result<PropPredicate, CodecError> {
    match d.u8()? {
        0 => Ok(PropPredicate::IntAtLeast(d.str()?, d.i64()?)),
        1 => Ok(PropPredicate::IntBelow(d.str()?, d.i64()?)),
        2 => Ok(PropPredicate::StrEquals(d.str()?, d.str()?)),
        3 => Ok(PropPredicate::Exists(d.str()?)),
        _ => Err(CodecError::Corrupt("predicate tag out of range")),
    }
}

fn encode_connector(c: &ConnectorDef, out: &mut Enc) {
    out.str(&c.src_type);
    out.str(&c.dst_type);
    out.usize(c.k);
    encode_opt_str(&c.etype, out);
}

fn decode_connector(d: &mut Dec<'_>) -> Result<ConnectorDef, CodecError> {
    Ok(ConnectorDef {
        src_type: d.str()?,
        dst_type: d.str()?,
        k: d.usize()?,
        etype: decode_opt_str(d)?,
    })
}

fn encode_summarizer(s: &SummarizerDef, out: &mut Enc) {
    match s {
        SummarizerDef::VertexRemoval { remove } => {
            out.u8(0);
            encode_strs(remove, out);
        }
        SummarizerDef::EdgeRemoval { remove } => {
            out.u8(1);
            encode_strs(remove, out);
        }
        SummarizerDef::VertexInclusion { keep } => {
            out.u8(2);
            encode_strs(keep, out);
        }
        SummarizerDef::EdgeInclusion { keep } => {
            out.u8(3);
            encode_strs(keep, out);
        }
        SummarizerDef::VertexAggregator {
            vtype,
            group_prop,
            agg_prop,
            agg,
        } => {
            out.u8(4);
            out.str(vtype);
            out.str(group_prop);
            out.str(agg_prop);
            out.u8(match agg {
                AggOp::Sum => 0,
                AggOp::Count => 1,
                AggOp::Min => 2,
                AggOp::Max => 3,
            });
        }
        SummarizerDef::EdgeAggregator => out.u8(5),
        SummarizerDef::VertexPredicate { keep } => {
            out.u8(6);
            encode_predicate(keep, out);
        }
        SummarizerDef::EdgePredicate { keep } => {
            out.u8(7);
            encode_predicate(keep, out);
        }
    }
}

fn decode_summarizer(d: &mut Dec<'_>) -> Result<SummarizerDef, CodecError> {
    Ok(match d.u8()? {
        0 => SummarizerDef::VertexRemoval {
            remove: decode_strs(d)?,
        },
        1 => SummarizerDef::EdgeRemoval {
            remove: decode_strs(d)?,
        },
        2 => SummarizerDef::VertexInclusion {
            keep: decode_strs(d)?,
        },
        3 => SummarizerDef::EdgeInclusion {
            keep: decode_strs(d)?,
        },
        4 => SummarizerDef::VertexAggregator {
            vtype: d.str()?,
            group_prop: d.str()?,
            agg_prop: d.str()?,
            agg: match d.u8()? {
                0 => AggOp::Sum,
                1 => AggOp::Count,
                2 => AggOp::Min,
                3 => AggOp::Max,
                _ => return Err(CodecError::Corrupt("agg tag out of range")),
            },
        },
        5 => SummarizerDef::EdgeAggregator,
        6 => SummarizerDef::VertexPredicate {
            keep: decode_predicate(d)?,
        },
        7 => SummarizerDef::EdgePredicate {
            keep: decode_predicate(d)?,
        },
        _ => return Err(CodecError::Corrupt("summarizer tag out of range")),
    })
}

/// Appends a view definition to `out` as a tagged enum.
pub fn encode_view_def(v: &ViewDef, out: &mut Enc) {
    match v {
        ViewDef::Connector(c) => {
            out.u8(0);
            encode_connector(c, out);
        }
        ViewDef::SourceSink(s) => {
            out.u8(1);
            encode_opt_str(&s.src_type, out);
            encode_opt_str(&s.dst_type, out);
        }
        ViewDef::Summarizer(s) => {
            out.u8(2);
            encode_summarizer(s, out);
        }
        ViewDef::Composed(c) => {
            out.u8(3);
            encode_connector(&c.connector, out);
            encode_summarizer(&c.summarizer, out);
        }
    }
}

/// Decodes a view definition previously written by [`encode_view_def`].
pub fn decode_view_def(d: &mut Dec<'_>) -> Result<ViewDef, CodecError> {
    Ok(match d.u8()? {
        0 => ViewDef::Connector(decode_connector(d)?),
        1 => ViewDef::SourceSink(SourceSinkDef {
            src_type: decode_opt_str(d)?,
            dst_type: decode_opt_str(d)?,
        }),
        2 => ViewDef::Summarizer(decode_summarizer(d)?),
        3 => ViewDef::Composed(ComposedDef {
            connector: decode_connector(d)?,
            summarizer: decode_summarizer(d)?,
        }),
        _ => return Err(CodecError::Corrupt("view-def tag out of range")),
    })
}

/// Slot-aware: every catalog slot is written in order with a presence
/// flag, tombstones included, so [`crate::ViewId`]s survive a
/// checkpoint/restore round trip and a recovered WAL `DropView` replay
/// still hits the slot it named.
fn encode_catalog(c: &Catalog, out: &mut Enc) {
    out.usize(c.slot_count());
    for slot in c.slots() {
        match slot {
            Some(view) => {
                out.u8(1);
                encode_view_def(&view.def, out);
                view.graph.encode(out);
                view.stats.encode(out);
            }
            None => out.u8(0),
        }
    }
}

fn decode_catalog(d: &mut Dec<'_>) -> Result<Catalog, CodecError> {
    let n = d.count()?;
    let mut c = Catalog::new();
    for _ in 0..n {
        match d.u8()? {
            0 => c.push_slot(None),
            1 => {
                let def = decode_view_def(d)?;
                let graph = Graph::decode(d)?;
                let stats = GraphStats::decode(d)?;
                c.push_slot(Some(MaterializedView { def, graph, stats }));
            }
            _ => return Err(CodecError::Corrupt("catalog slot flag out of range")),
        }
    }
    Ok(c)
}

impl Snapshot {
    /// Appends the full snapshot — graph, schema, statistics, and
    /// every materialized view (definition, graph, and stats) — to
    /// `out`. This is the body of a checkpoint: decoding it restores
    /// serving state without recomputing a single view.
    pub fn encode(&self, out: &mut Enc) {
        self.graph.encode(out);
        encode_schema(&self.schema, out);
        self.stats.encode(out);
        encode_catalog(&self.catalog, out);
    }

    /// Decodes a snapshot previously written by [`Snapshot::encode`].
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let graph = Graph::decode(d)?;
        let schema = decode_schema(d)?;
        let stats = GraphStats::decode(d)?;
        let catalog = decode_catalog(d)?;
        Ok(Snapshot::assemble(graph, schema, stats, catalog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_graph::same_dense_graph;

    fn sample_delta() -> GraphDelta {
        let mut d = GraphDelta::new();
        let j = d.add_vertex(
            "Job",
            vec![
                ("cpu".into(), Value::Int(10)),
                ("name".into(), Value::Str("pipelineX".into())),
            ],
        );
        let f = d.add_vertex_ext("File", 77, vec![("size".into(), Value::Float(1.5))]);
        d.add_edge(j, f, "WRITES_TO", vec![("latency".into(), Value::Int(3))]);
        d.add_edge(VRef::Existing(VertexId(2)), j, "IS_READ_BY", vec![]);
        d.del_edge(
            VRef::Existing(VertexId(0)),
            VRef::Existing(VertexId(1)),
            "WRITES_TO",
        );
        d.add_edge(VRef::External(42), f, "IS_READ_BY", vec![]);
        d.del_vertex(VertexId(5));
        d.del_vertex_ext(99);
        d
    }

    #[test]
    fn delta_round_trips_exactly() {
        let delta = sample_delta();
        let mut e = Enc::new();
        delta.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = GraphDelta::decode(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back, delta);
        // pending_seen (private ordering window) survives the trip
        assert_eq!(
            back.del_edges[0].pending_seen,
            delta.del_edges[0].pending_seen
        );
    }

    /// A one-vertex delta record built by hand, with `ghost` as the
    /// vertex's ghost byte.
    fn one_vertex_record(ghost: bool) -> Vec<u8> {
        let mut e = Enc::new();
        e.usize(1); // vertices
        e.str("Job");
        e.usize(0); // props
        e.bool(ghost);
        e.bool(false); // no external id
        for _ in 0..4 {
            e.usize(0); // edges, edge retractions, vertex retractions (slot, external)
        }
        e.into_bytes()
    }

    #[test]
    fn delta_ghost_byte_is_written_false_and_rejected_when_set() {
        let mut d = GraphDelta::new();
        d.add_vertex("Job", vec![]);
        let mut e = Enc::new();
        d.encode(&mut e);
        assert_eq!(e.into_bytes(), one_vertex_record(false));
        let back = GraphDelta::decode(&mut Dec::new(&one_vertex_record(false))).unwrap();
        assert_eq!(back, d);
        assert_eq!(
            GraphDelta::decode(&mut Dec::new(&one_vertex_record(true))).unwrap_err(),
            CodecError::Corrupt("ghost vertex flag set")
        );
    }

    #[test]
    fn delta_decode_rejects_bad_tags() {
        let mut e = Enc::new();
        e.usize(0); // vertices
        e.usize(1); // one edge
        e.u8(9); // bogus vref tag
        let bytes = e.into_bytes();
        assert!(GraphDelta::decode(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn schema_round_trips() {
        let s = Schema::provenance();
        let mut e = Enc::new();
        encode_schema(&s, &mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_schema(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back, s);
    }

    #[test]
    fn view_defs_round_trip() {
        let defs = vec![
            ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)),
            ViewDef::Connector(ConnectorDef::same_edge_type("User", "User", 3, "FOLLOWS")),
            ViewDef::SourceSink(SourceSinkDef {
                src_type: Some("Job".into()),
                dst_type: None,
            }),
            ViewDef::Summarizer(SummarizerDef::VertexRemoval {
                remove: vec!["Task".into(), "Machine".into()],
            }),
            ViewDef::Summarizer(SummarizerDef::VertexAggregator {
                vtype: "Job".into(),
                group_prop: "pipelineName".into(),
                agg_prop: "CPU".into(),
                agg: AggOp::Sum,
            }),
            ViewDef::Summarizer(SummarizerDef::EdgeAggregator),
            ViewDef::Summarizer(SummarizerDef::VertexPredicate {
                keep: PropPredicate::IntAtLeast("CPU".into(), 100),
            }),
            ViewDef::Summarizer(SummarizerDef::EdgePredicate {
                keep: PropPredicate::StrEquals("kind".into(), "hot".into()),
            }),
            ViewDef::Composed(ComposedDef {
                connector: ConnectorDef::k_hop("Job", "Job", 2),
                summarizer: SummarizerDef::EdgePredicate {
                    keep: PropPredicate::Exists("support".into()),
                },
            }),
        ];
        for def in defs {
            let mut e = Enc::new();
            encode_view_def(&def, &mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(decode_view_def(&mut d).unwrap(), def);
            assert!(d.is_done());
        }
    }

    #[test]
    fn snapshot_round_trips_with_views() {
        let g = generate_provenance(&ProvenanceConfig::tiny(11).core_only());
        let mut k = crate::Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        k.materialize_view(ViewDef::Summarizer(SummarizerDef::VertexInclusion {
            keep: vec!["Job".into(), "File".into()],
        }));
        let snap = k.snapshot();

        let mut e = Enc::new();
        snap.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = Snapshot::decode(&mut d).unwrap();
        assert!(d.is_done());

        same_dense_graph(snap.graph(), back.graph()).unwrap();
        assert_eq!(back.schema(), snap.schema());
        assert_eq!(back.stats(), snap.stats());
        assert_eq!(back.catalog().len(), snap.catalog().len());
        for (orig, rest) in snap.catalog().iter().zip(back.catalog().iter()) {
            assert_eq!(orig.def, rest.def);
            same_dense_graph(&orig.graph, &rest.graph).unwrap();
            assert_eq!(orig.stats, rest.stats);
        }
    }

    #[test]
    fn catalog_tombstones_round_trip() {
        let g = generate_provenance(&ProvenanceConfig::tiny(11).core_only());
        let mut k = crate::Kaskade::new(g, Schema::provenance());
        k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
        k.materialize_view(ViewDef::Summarizer(SummarizerDef::VertexInclusion {
            keep: vec!["Job".into(), "File".into()],
        }));
        let snap = k
            .snapshot()
            .apply_ddl(&crate::DdlOp::DropView(crate::ViewId(0)));
        assert_eq!(snap.catalog().slot_count(), 2);

        let mut e = Enc::new();
        snap.encode(&mut e);
        let bytes = e.into_bytes();
        let back = Snapshot::decode(&mut Dec::new(&bytes)).unwrap();
        // the tombstoned slot survives, so ViewIds keep their meaning
        assert_eq!(back.catalog().slot_count(), 2);
        assert_eq!(back.catalog().len(), 1);
        assert!(back.catalog().get_by_id(crate::ViewId(0)).is_none());
        assert!(back.catalog().get_by_id(crate::ViewId(1)).is_some());
    }

    #[test]
    fn snapshot_decode_rejects_truncation() {
        let g = generate_provenance(&ProvenanceConfig::tiny(3).core_only());
        let snap = Snapshot::new(g, Schema::provenance());
        let mut e = Enc::new();
        snap.encode(&mut e);
        let bytes = e.into_bytes();
        assert!(Snapshot::decode(&mut Dec::new(&bytes[..bytes.len() / 2])).is_err());
    }
}

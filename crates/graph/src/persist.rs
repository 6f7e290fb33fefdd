//! Checkpoint serialization for [`Graph`].
//!
//! A graph encodes as its logical columns — interner strings, vertex
//! types/properties/flags, edge endpoints/types/properties/flags — and
//! decodes by re-running the **same deterministic CSR build** every
//! in-memory producer uses ([`crate::GraphBuilder::finish`],
//! `GraphEditor::finish`, `Graph::compact`): a stable counting sort of
//! the live edges per direction. The decoded graph is therefore
//! behaviorally identical to the encoded one — same ids, same
//! adjacency order (so identity-targeted LIFO retraction picks the
//! same edge), same statistics — which is what lets crash recovery
//! replay a WAL on top of a checkpoint and land byte-identical to a
//! never-restarted engine.

use crate::codec::{CodecError, Dec, Enc};
use crate::graph::{EdgeId, Graph, GraphInner, VertexId};
use crate::interner::{Interner, Symbol};
use crate::value::{PropMap, Value};

/// Appends `v` to `out` (tag byte + payload).
pub fn encode_value(v: &Value, out: &mut Enc) {
    match v {
        Value::Int(i) => {
            out.u8(0);
            out.i64(*i);
        }
        Value::Float(f) => {
            out.u8(1);
            out.f64(*f);
        }
        Value::Str(s) => {
            out.u8(2);
            out.str(s);
        }
        Value::Bool(b) => {
            out.u8(3);
            out.bool(*b);
        }
    }
}

/// Decodes a [`Value`] written by [`encode_value`].
pub fn decode_value(d: &mut Dec<'_>) -> Result<Value, CodecError> {
    Ok(match d.u8()? {
        0 => Value::Int(d.i64()?),
        1 => Value::Float(d.f64()?),
        2 => Value::Str(d.str()?),
        3 => Value::Bool(d.bool()?),
        _ => return Err(CodecError::Corrupt("unknown value tag")),
    })
}

fn encode_props(p: &PropMap, out: &mut Enc) {
    out.usize(p.len());
    for (k, v) in p.iter() {
        out.u32(k.0);
        encode_value(v, out);
    }
}

fn decode_props(d: &mut Dec<'_>, symbols: usize) -> Result<PropMap, CodecError> {
    let n = d.count()?;
    let mut p = PropMap::new();
    for _ in 0..n {
        let k = d.u32()?;
        if k as usize >= symbols {
            return Err(CodecError::Corrupt("property key symbol out of range"));
        }
        let v = decode_value(d)?;
        p.insert(Symbol(k), v);
    }
    Ok(p)
}

fn encode_flags(flags: &[bool], out: &mut Enc) {
    out.usize(flags.len());
    for &f in flags {
        out.bool(f);
    }
}

fn decode_flags(d: &mut Dec<'_>, expect: usize) -> Result<Vec<bool>, CodecError> {
    let n = d.count()?;
    if n != 0 && n != expect {
        return Err(CodecError::Corrupt("flag vector length mismatch"));
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.bool()?);
    }
    Ok(v)
}

impl Graph {
    /// Appends this graph's logical columns to `out`. Deterministic:
    /// the same graph always encodes to the same bytes.
    pub fn encode(&self, out: &mut Enc) {
        let inner = &*self.inner;
        out.usize(inner.interner.len());
        for (_, s) in inner.interner.iter() {
            out.str(s);
        }
        let n = inner.vtypes.len();
        out.usize(n);
        for t in &inner.vtypes {
            out.u32(t.0);
        }
        for p in &inner.vprops {
            encode_props(p, out);
        }
        encode_flags(&inner.vertex_dead, out);
        // the retired per-vertex ghost column, always empty: the format
        // keeps its slot so checkpoints stay byte-identical
        encode_flags(&[], out);
        let m = inner.srcs.len();
        out.usize(m);
        for i in 0..m {
            out.u32(inner.srcs[i].0);
            out.u32(inner.dsts[i].0);
            out.u32(inner.etypes[i].0);
        }
        for p in &inner.eprops {
            encode_props(p, out);
        }
        encode_flags(&inner.edge_dead, out);
    }

    /// Decodes a graph written by [`Graph::encode`], rebuilding the CSR
    /// adjacency with the same stable counting sort every in-memory
    /// producer uses, so the result is behaviorally identical to the
    /// graph that was encoded.
    pub fn decode(d: &mut Dec<'_>) -> Result<Graph, CodecError> {
        let nsyms = d.count()?;
        let mut interner = Interner::new();
        for _ in 0..nsyms {
            let s = d.str()?;
            let sym = interner.intern(&s);
            if sym.index() + 1 != interner.len() {
                return Err(CodecError::Corrupt("duplicate interner string"));
            }
        }
        let n = d.count()?;
        let mut vtypes = Vec::with_capacity(n);
        for _ in 0..n {
            let t = d.u32()?;
            if t as usize >= nsyms {
                return Err(CodecError::Corrupt("vertex type symbol out of range"));
            }
            vtypes.push(Symbol(t));
        }
        let mut vprops = Vec::with_capacity(n);
        for _ in 0..n {
            vprops.push(decode_props(d, nsyms)?);
        }
        let vertex_dead = decode_flags(d, n)?;
        if decode_flags(d, n)?.contains(&true) {
            return Err(CodecError::Corrupt("ghost vertex flag set"));
        }

        let m = d.count()?;
        let mut srcs = Vec::with_capacity(m);
        let mut dsts = Vec::with_capacity(m);
        let mut etypes = Vec::with_capacity(m);
        for _ in 0..m {
            let s = d.u32()?;
            let t = d.u32()?;
            if s as usize >= n || t as usize >= n {
                return Err(CodecError::Corrupt("edge endpoint out of range"));
            }
            let e = d.u32()?;
            if e as usize >= nsyms {
                return Err(CodecError::Corrupt("edge type symbol out of range"));
            }
            srcs.push(VertexId(s));
            dsts.push(VertexId(t));
            etypes.push(Symbol(e));
        }
        let mut eprops = Vec::with_capacity(m);
        for _ in 0..m {
            eprops.push(decode_props(d, nsyms)?);
        }
        let edge_dead = decode_flags(d, m)?;

        let edge_is_live = |i: usize| edge_dead.is_empty() || !edge_dead[i];
        let vertex_is_live = |i: usize| vertex_dead.is_empty() || !vertex_dead[i];

        // The exact CSR build of `GraphEditor::finish`: stable counting
        // sort of live edges by source (out) and by destination (in).
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for i in 0..m {
            if !edge_is_live(i) {
                continue;
            }
            out_offsets[srcs[i].index() + 1] += 1;
            in_offsets[dsts[i].index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let live_edges = out_offsets[n] as usize;
        let mut out_edges = vec![EdgeId(0); live_edges];
        let mut in_edges = vec![EdgeId(0); live_edges];
        let mut out_cursor = crate::scratch::take_u32(n + 1);
        out_cursor.extend_from_slice(&out_offsets);
        let mut in_cursor = crate::scratch::take_u32(n + 1);
        in_cursor.extend_from_slice(&in_offsets);
        for i in 0..m {
            if !edge_is_live(i) {
                continue;
            }
            let s = srcs[i].index();
            let t = dsts[i].index();
            out_edges[out_cursor[s] as usize] = EdgeId(i as u32);
            out_cursor[s] += 1;
            in_edges[in_cursor[t] as usize] = EdgeId(i as u32);
            in_cursor[t] += 1;
        }
        crate::scratch::give_u32(out_cursor);
        crate::scratch::give_u32(in_cursor);

        let live_vertices = (0..n).filter(|&i| vertex_is_live(i)).count();
        let any_vertex_dead = vertex_dead.iter().any(|&x| x);
        let any_edge_dead = edge_dead.iter().any(|&x| x);

        Ok(Graph {
            inner: std::sync::Arc::new(GraphInner {
                interner,
                vtypes,
                vprops,
                srcs,
                dsts,
                etypes,
                eprops,
                vertex_dead: if any_vertex_dead {
                    vertex_dead
                } else {
                    Vec::new()
                },
                edge_dead: if any_edge_dead { edge_dead } else { Vec::new() },
                live_vertices,
                live_edges,
                out_offsets,
                out_edges,
                in_offsets,
                in_edges,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::same_dense_graph;
    use crate::graph::GraphBuilder;
    use crate::stats::GraphStats;

    fn toy() -> Graph {
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        let f1 = b.add_vertex("File");
        b.set_vertex_prop(j0, "cpu", Value::Int(4));
        b.set_vertex_prop(j1, "name", Value::Str("etl".into()));
        b.set_vertex_prop(f1, "hot", Value::Bool(true));
        let e = b.add_edge(j0, f0, "WRITES_TO");
        b.set_edge_prop(e, "ts", Value::Int(1));
        b.add_edge(f0, j1, "IS_READ_BY");
        let e = b.add_edge(j1, f1, "WRITES_TO");
        b.set_edge_prop(e, "score", Value::Float(0.5));
        b.finish()
    }

    fn round_trip(g: &Graph) -> Graph {
        let mut e = Enc::new();
        g.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = Graph::decode(&mut d).unwrap();
        assert!(d.is_done());
        back
    }

    #[test]
    fn dense_graph_round_trips_exactly() {
        let g = toy();
        let back = round_trip(&g);
        same_dense_graph(&g, &back).unwrap();
        assert_eq!(GraphStats::compute(&g), GraphStats::compute(&back));
        // adjacency order survives (LIFO retraction determinism)
        for v in g.vertices() {
            let a: Vec<_> = g.out_edges(v).collect();
            let b: Vec<_> = back.out_edges(v).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tombstoned_graph_round_trips_with_dead_slots() {
        let g = toy().remove_vertices([VertexId(1)]);
        assert!(g.vertex_slots() > g.vertex_count());
        let back = round_trip(&g);
        assert_eq!(back.vertex_slots(), g.vertex_slots());
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_slots(), g.edge_slots());
        assert_eq!(back.edge_count(), g.edge_count());
        for i in 0..g.vertex_slots() as u32 {
            assert_eq!(
                back.is_vertex_live(VertexId(i)),
                g.is_vertex_live(VertexId(i))
            );
        }
        assert_eq!(GraphStats::compute(&g), GraphStats::compute(&back));
    }

    /// A one-vertex record built by hand, with `ghost` as its
    /// per-vertex ghost column.
    fn one_job_record(ghost: &[bool]) -> Vec<u8> {
        let mut e = Enc::new();
        e.usize(1);
        e.str("Job");
        e.usize(1);
        e.u32(0);
        encode_props(&PropMap::new(), &mut e);
        encode_flags(&[], &mut e);
        encode_flags(ghost, &mut e);
        e.usize(0);
        encode_flags(&[], &mut e);
        e.into_bytes()
    }

    #[test]
    fn ghost_column_is_written_empty_and_a_set_flag_is_rejected() {
        let mut b = GraphBuilder::new();
        b.add_vertex("Job");
        let mut e = Enc::new();
        b.finish().encode(&mut e);
        assert_eq!(e.into_bytes(), one_job_record(&[]));
        let back = Graph::decode(&mut Dec::new(&one_job_record(&[false]))).unwrap();
        assert_eq!(back.vertex_count(), 1);
        assert_eq!(
            Graph::decode(&mut Dec::new(&one_job_record(&[true]))).unwrap_err(),
            CodecError::Corrupt("ghost vertex flag set")
        );
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().finish();
        let back = round_trip(&g);
        assert_eq!(back.vertex_slots(), 0);
        assert_eq!(back.edge_slots(), 0);
    }

    #[test]
    fn corrupt_symbol_reference_is_rejected() {
        let g = toy();
        let mut e = Enc::new();
        g.encode(&mut e);
        let mut bytes = e.into_bytes();
        // The first vertex-type symbol sits right after the interner
        // block and the vertex count; stomp it with an out-of-range id.
        let mut probe = Dec::new(&bytes);
        let nsyms = probe.count().unwrap();
        for _ in 0..nsyms {
            probe.str().unwrap();
        }
        probe.usize().unwrap();
        let at = bytes.len() - probe.remaining();
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Graph::decode(&mut Dec::new(&bytes)).is_err());
    }
}

//! # kaskade-graph
//!
//! In-memory property-graph substrate for the Kaskade reproduction
//! (replaces Neo4j storage in the paper's architecture).
//!
//! The data model is the property graph of §III.A: vertices and edges are
//! typed and carry key–value properties; a [`Schema`] records which edge
//! types may connect which vertex types (domain/range constraints), which
//! is the raw material for Kaskade's constraint mining.
//!
//! Build a graph with [`GraphBuilder`], freeze it with
//! [`GraphBuilder::finish`] into an immutable CSR [`Graph`], and compute
//! the degree summary statistics the cost model needs with
//! [`GraphStats::compute`].
//!
//! ```
//! use kaskade_graph::{GraphBuilder, GraphStats, Schema, Value};
//!
//! let mut b = GraphBuilder::new();
//! let j1 = b.add_vertex("Job");
//! let f1 = b.add_vertex("File");
//! let j2 = b.add_vertex("Job");
//! b.set_vertex_prop(j1, "cpu", Value::Int(10));
//! b.add_edge(j1, f1, "WRITES_TO");
//! b.add_edge(f1, j2, "IS_READ_BY");
//! b.validate(&Schema::provenance()).unwrap();
//! let g = b.finish();
//!
//! assert_eq!(g.vertex_count(), 3);
//! let stats = GraphStats::compute(&g);
//! assert_eq!(stats.for_type("Job").unwrap().cardinality, 2);
//! ```

#![warn(missing_docs)]

mod codec;
mod compact;
mod edit;
mod exec;
mod extid;
mod graph;
mod interner;
mod merge;
mod persist;
mod schema;
mod scratch;
mod stats;
mod value;

pub use codec::{crc32, CodecError, Dec, Enc};
pub use compact::IdRemap;
pub use edit::GraphEditor;
pub use exec::{chunk_ranges, ParallelExec, SerialExec};
pub use extid::{ExternalIdError, ExternalIdTable};
pub use graph::{EdgeId, Graph, GraphBuilder, VertexId};
pub use interner::{Interner, Symbol};
pub use merge::same_dense_graph;
pub use persist::{decode_value, encode_value};
pub use schema::{EdgeRule, Schema, SchemaError};
pub use stats::{
    degree_ccdf, power_law_exponent, CcdfPoint, DegreeChange, DegreeSummary, GraphStats,
};
pub use value::{PropMap, Value};

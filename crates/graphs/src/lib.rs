//! # gdm-graphs
//!
//! The graph data structures of the paper's Table III, plus the one
//! structure its engines additionally need:
//!
//! * [`simple::SimpleGraph`] — flat graphs: nodes and binary edges,
//!   directed or undirected, optionally labeled (Filament, G-Store,
//!   VertexDB model their data this way),
//! * [`property::PropertyGraph`] — attributed directed multigraphs
//!   (DEX, InfiniteGraph, Neo4j, Sones),
//! * [`hyper::HyperGraph`] — HyperGraphDB-style atom spaces where a
//!   link may target any atoms, *including other links* (the paper's
//!   "edges between edges are possible"),
//! * [`nested::NestedGraph`] — graphs whose nodes may contain whole
//!   subgraphs (hypernodes). No surveyed engine supports these; the
//!   paper's modeling claim — hypergraphs and attributed graphs *can*
//!   be modeled by nested graphs, but not vice versa — is implemented
//!   as executable translations in [`nested::translate`],
//! * [`rdf::RdfGraph`] — triple storage with SPO/POS/OSP indexes
//!   (AllegroGraph).
//!
//! All structures expose [`gdm_core::GraphView`], so every essential
//! query in `gdm-algo` runs against every model. [`graphml`] adds the
//! exchange format the paper notes the 2012 systems lacked.

pub mod graphml;
pub mod hyper;
pub mod nested;
pub mod property;
pub mod rdf;
pub mod simple;
pub mod views;

pub use hyper::{AtomId, HyperGraph};
pub use nested::NestedGraph;
pub use property::PropertyGraph;
pub use rdf::{RdfGraph, Term};
pub use simple::SimpleGraph;

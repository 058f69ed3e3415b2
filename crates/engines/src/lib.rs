//! # gdm-engines
//!
//! Working emulations of the nine graph databases the paper surveys,
//! all behind one [`GraphEngine`] facade.
//!
//! The paper restricts itself to the **logical level** ("we restrict
//! our study to the logical level and avoid physical and
//! implementation considerations"): each surveyed system is a row of
//! capabilities (Tables I–VII) over a data model. The crate is built
//! the same way. An engine is a [`Profile`] — the row, as data — plus a
//! [`Model`] — the substrate, on top of `gdm-storage`, `gdm-graphs`
//! and `gdm-query` — and [`Engine`] implements [`GraphEngine`] for any
//! such pair, once (see [`engine`]). Each system's module holds its
//! `PROFILE`, its model and an `open` function:
//!
//! | Module | Model | Storage | Languages |
//! |---|---|---|---|
//! | [`allegro`] | [`allegro::Allegro`]: RDF triples | memory + triples file, permanent triple indexes | SPARQL-like, Datalog reasoning |
//! | [`dex`] | [`dex::Dex`]: attributed multigraph | type bitmaps + snapshot file, bitmap indexes | API only |
//! | [`filament`] | [`kvgraph::KvGraph`]: simple directed | KV backend (memory) | API only |
//! | [`gstore`] | [`gstore::GStore`]: node-labeled simple | paged heap file (external only) | GSQL path dialect |
//! | [`hypergraphdb`] | [`hypergraphdb::HyperGraphDb`]: hypergraph (atoms) | memory + snapshot file, hash indexes | API only |
//! | [`infinitegraph`] | [`infinitegraph::InfiniteGraph`]: attributed, partitioned | snapshot file, B-tree indexes | API only |
//! | [`neo4j`] | [`neo4j::Neo4j`]: attributed multigraph | record store + token file, B-tree indexes | Cypher-like (partial) |
//! | [`sones`] | [`sones::Sones`]: hypergraph + attributed | memory, hash indexes | GQL SQL dialect |
//! | [`vertexdb`] | [`kvgraph::KvGraph`]: simple directed | KV backend (disk B-tree) | API only |
//!
//! An engine answers [`GdmError::Unsupported`] for every capability its
//! profile refuses — what the 2012-era product lacked; the comparison
//! harness in `gdm-compare` turns those refusals into the blank cells
//! of Tables I–VII and checks them against its own record of the paper.

pub mod allegro;
pub mod dex;
pub mod durable;
pub mod engine;
pub mod facade;
pub mod filament;
pub mod gstore;
pub mod hypergraphdb;
pub mod infinitegraph;
pub mod kvgraph;
pub mod neo4j;
pub mod sones;
pub mod vertexdb;

pub use durable::{make_engine_durable, DurableEngine, LogicalOp};
pub use engine::{Capability, Engine, Model, Profile};
pub use facade::{
    all_engines, make_engine, AnalysisFunc, EngineDescriptor, EngineKind, GraphEngine,
    ServingSnapshot, SummaryFunc,
};

// Re-exported so downstream code can name the error type without a
// gdm-core dependency.
pub use gdm_core::GdmError;

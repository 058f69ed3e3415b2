//! # graph-db-models
//!
//! An executable reproduction of **"A Comparison of Current Graph
//! Database Models"** (Angles, ICDE Workshops / GDM 2012).
//!
//! The paper surveys nine 2012-era graph databases — AllegroGraph,
//! DEX, Filament, G-Store, HyperGraphDB, InfiniteGraph, Neo4j, Sones,
//! VertexDB — and compares their *data models*: structures, query
//! facilities, integrity constraints, and support for a set of
//! essential graph queries. This workspace rebuilds everything the
//! comparison touches, from storage substrates to query languages,
//! and regenerates the paper's eight tables by probing the running
//! emulations.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] (`gdm-core`) | ids, values, property maps, the [`core::GraphView`] abstraction |
//! | [`storage`] (`gdm-storage`) | pager + buffer pool, disk B-tree, heap file, record store, bitmaps, indexes |
//! | [`graphs`] (`gdm-graphs`) | simple / property / hyper / nested / RDF / partitioned graphs |
//! | [`algo`] (`gdm-algo`) | the essential queries: adjacency, reachability, regular paths, VF2 pattern matching, summarization |
//! | [`govern`] (`gdm-govern`) | the query governor: deadlines, budgets, cooperative cancellation ([`govern::ExecutionGuard`]) |
//! | [`schema`] (`gdm-schema`) | schemas and the six Table VI integrity constraints |
//! | [`query`] (`gdm-query`) | Cypher-like, SPARQL-like, GQL and GSQL dialects, Datalog reasoning |
//! | [`engines`] (`gdm-engines`) | the nine engine emulations behind one [`engines::GraphEngine`] facade |
//! | [`compare`] (`gdm-compare`) | recorded cells + execution probes + Table I–VIII renderers |
//! | [`wal`] (`gdm-wal`) | segmented write-ahead log, group commit, crash recovery, fault injection |
//!
//! ## Quickstart
//!
//! ```
//! use graph_db_models::engines::{make_engine, EngineKind, GraphEngine};
//! use graph_db_models::core::props;
//! # let dir = std::env::temp_dir().join(format!("gdm-doc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir).unwrap();
//!
//! let mut db = make_engine(EngineKind::Neo4j, &dir).unwrap();
//! let ada = db.create_node(Some("Person"), props! { "name" => "ada" }).unwrap();
//! let bob = db.create_node(Some("Person"), props! { "name" => "bob" }).unwrap();
//! db.create_edge(ada, bob, Some("KNOWS"), props! {}).unwrap();
//!
//! let rs = db.execute_query("MATCH (a:Person)-[:KNOWS]->(b) RETURN b.name").unwrap();
//! assert_eq!(rs.rows[0][0].as_str(), Some("bob"));
//! ```

pub use gdm_algo as algo;
pub use gdm_bench as bench;
pub use gdm_compare as compare;
pub use gdm_core as core;
pub use gdm_engines as engines;
pub use gdm_govern as govern;
pub use gdm_graphs as graphs;
pub use gdm_query as query;
pub use gdm_schema as schema;
pub use gdm_server as server;
pub use gdm_storage as storage;
pub use gdm_wal as wal;

/// Paper metadata, for reports.
pub const PAPER_TITLE: &str = "A Comparison of Current Graph Database Models";
/// The venue the reproduction targets.
pub const PAPER_VENUE: &str = "ICDE Workshops (GDM), 2012";

//! # gdm-bench
//!
//! Workload generation and the benchmark/regeneration harness.
//!
//! The paper's own evaluation is the eight feature tables — regenerate
//! them with the `tables` binary (`cargo run -p gdm-bench --bin
//! tables`). The Criterion benches go beyond the paper in the spirit
//! of its related work (Dominguez-Sal et al. \[11\], who benchmarked
//! DEX/Neo4j/HypergraphDB/Jena on typical graph operations):
//!
//! | bench | measures |
//! |---|---|
//! | `essential_queries` | load and the Section IV queries across all nine engine emulations; live vs CSR snapshot; incremental vs full re-freeze |
//! | `storage` | DiskBTree vs MemKv, buffer-pool sizing |
//! | `pattern` | VF2 vs brute-force subgraph matching |
//! | `regular_paths` | product-automaton reachability scaling |
//! | `placement` | G-Store BFS-clustered vs insertion-order page placement |
//! | `indexes` | hash vs B-tree vs bitmap secondary indexes |
//! | `recovery` | `DurableEngine::open` replaying a journal of `n` operations |
//! | `wire` | framing + JSON in memory, and a loopback client → server round trip |

pub mod workload;

pub use workload::{
    ba_graph, er_graph, load_into_engine, rdf_family_tree, social_graph, SocialParams,
};

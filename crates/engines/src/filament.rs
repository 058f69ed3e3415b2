//! Filament emulation.
//!
//! The paper: "Filament is a project for a graph storage library with
//! default support for SQL through JDB", classed as a *graph store*.
//! Table I credits it with main-memory and backend storage (no
//! external-memory persistence surface of its own); Tables II and V
//! record an API and retrieval only. The emulation is a [`KvGraph`]
//! over the in-memory KV backend, with essential-query support
//! reconstructed as adjacency, k-neighborhood, and summarization.

use crate::engine::{Capability as C, Engine, Profile};
use crate::facade::EngineDescriptor;
use crate::kvgraph::KvGraph;
use gdm_core::{Result, Support};
use gdm_govern::Limits;
use gdm_storage::MemKv;
use std::path::Path;
use std::time::Duration;

/// Filament's row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "Filament",
        gui: Support::None,
        graphical_ql: Support::None,
        backend_storage: Support::Full,
        blurb: "a graph storage library with default support for SQL through JDB",
    },
    // An embedded library running inside the caller's process: tight
    // defaults, since a runaway traversal stalls the host application
    // directly.
    Limits {
        deadline: Some(Duration::from_secs(5)),
        max_node_visits: Some(1_000_000),
        max_edge_visits: None,
        max_rows: None,
    },
    &[
        (&[C::NodeLabels], "node labels (simple graph model)"),
        (&[C::NodeProperties], "node attributes (simple graph model)"),
        (&[C::EdgeProperties], "edge attributes (simple graph model)"),
        (&[C::Hyperedges], "hyperedges"),
        (&[C::EdgesOnEdges], "edges between edges"),
        (&[C::NestedGraphs], "nested graphs"),
        (
            &[C::SetNodeAttribute, C::ReadNodeAttribute],
            "node attributes",
        ),
        (&[C::SetEdgeAttribute], "edge attributes"),
        (&[C::NodeTypes, C::EdgeTypes], "schema definitions"),
        (&C::CONSTRAINTS, "integrity constraints"),
        (&[C::Ddl], "a data definition language"),
        (&[C::Dml], "a data manipulation language"),
        (&[C::QueryLanguage], "a query language"),
        (&[C::Explain], "explain"),
        (&[C::Reasoning], "reasoning"),
        (&[C::Analysis], "analysis functions"),
        (&[C::FixedLengthPaths], "fixed-length path queries"),
        (&[C::ShortestPath], "shortest path queries"),
        (&[C::PatternMatching], "pattern matching queries"),
        (
            &[C::PropertyAggregation],
            "property aggregation (no attributes)",
        ),
        (
            &[C::Transactions],
            "transactions (graph store, not a graph database)",
        ),
        (&[C::Persistence], "external-memory persistence"),
        (&[C::Indexes], "secondary indexes"),
        (&[C::PropertyLookup], "property lookups (no attributes)"),
    ],
);

/// Creates the store. `dir` is accepted for interface uniformity;
/// Filament's profile has no external-memory persistence, so nothing
/// is written there.
pub fn open(_dir: &Path) -> Result<Engine<KvGraph>> {
    Ok(Engine::new(&PROFILE, KvGraph::new(Box::new(MemKv::new()))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{GraphEngine, SummaryFunc};
    use gdm_core::{PropertyMap, Value};

    #[test]
    fn supports_the_filament_profile() {
        let dir = std::env::temp_dir();
        let mut e = open(&dir).unwrap();
        let a = e.create_node(None, PropertyMap::new()).unwrap();
        let b = e.create_node(None, PropertyMap::new()).unwrap();
        let c = e.create_node(None, PropertyMap::new()).unwrap();
        e.create_edge(a, b, Some("r"), PropertyMap::new()).unwrap();
        e.create_edge(b, c, Some("r"), PropertyMap::new()).unwrap();
        assert!(e.adjacent(a, b).unwrap());
        assert_eq!(e.k_neighborhood(a, 2).unwrap().len(), 2);
        assert_eq!(e.summarize(SummaryFunc::Order).unwrap(), Value::Int(3));
        // Profile refusals.
        assert!(e.persist().unwrap_err().is_unsupported());
        assert!(e.shortest_path(a, c).unwrap_err().is_unsupported());
        assert!(e.fixed_length_paths(a, c, 2).unwrap_err().is_unsupported());
        assert!(e.execute_ddl("CREATE").unwrap_err().is_unsupported());
    }

    #[test]
    fn deletion() {
        let mut e = open(&std::env::temp_dir()).unwrap();
        let a = e.create_node(None, PropertyMap::new()).unwrap();
        let b = e.create_node(None, PropertyMap::new()).unwrap();
        let edge = e.create_edge(a, b, None, PropertyMap::new()).unwrap();
        e.delete_edge(edge).unwrap();
        assert_eq!(e.edge_count(), 0);
        e.delete_node(a).unwrap();
        assert_eq!(e.node_count(), 1);
    }
}

//! VertexDB emulation.
//!
//! The paper: "VertexDB implements a graph store on top of
//! TokyoCabinet (a B-tree key/value disk store)." The emulation is a
//! [`KvGraph`] over `gdm-storage`'s [`DiskBTree`] — the TokyoCabinet
//! stand-in — giving exactly the profile the paper records: a simple
//! directed edge-labeled graph store (Table III), external + backend
//! storage without secondary indexes (Table I), an API and nothing
//! else (Tables II and V), and essential-query support limited to
//! adjacency, k-neighborhood, fixed-length paths, and summarization
//! (Table VII).

use crate::engine::{Capability as C, Engine, Profile};
use crate::facade::EngineDescriptor;
use crate::kvgraph::KvGraph;
use gdm_core::{Result, Support};
use gdm_govern::Limits;
use gdm_storage::DiskBTree;
use std::path::Path;
use std::time::Duration;

/// VertexDB's row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "VertexDB",
        gui: Support::None,
        graphical_ql: Support::None,
        backend_storage: Support::Full,
        blurb: "graph store on top of TokyoCabinet (a B-tree key/value disk store)",
    },
    // An HTTP-fronted store: request-scale limits — short deadline and
    // a response-size row cap, as a web endpoint would impose.
    Limits {
        deadline: Some(Duration::from_secs(5)),
        max_node_visits: Some(1_000_000),
        max_edge_visits: None,
        max_rows: Some(100_000),
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
        (&[C::Indexes], "secondary indexes"),
        (&[C::PropertyLookup], "property lookups (no attributes)"),
    ],
);

/// Opens (or creates) the store under `dir`.
pub fn open(dir: &Path) -> Result<Engine<KvGraph>> {
    let tree = DiskBTree::file(&dir.join("vertexdb.tc"), 256)?;
    Ok(Engine::new(&PROFILE, KvGraph::new(Box::new(tree))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{GraphEngine, SummaryFunc};
    use gdm_core::{PropertyMap, Value};

    fn temp_engine(tag: &str) -> Engine<KvGraph> {
        let dir = std::env::temp_dir().join(format!("gdm-vdb-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        open(&dir).unwrap()
    }

    #[test]
    fn basic_graph_operations() {
        let mut e = temp_engine("basic");
        let a = e.create_node(None, PropertyMap::new()).unwrap();
        let b = e.create_node(None, PropertyMap::new()).unwrap();
        let c = e.create_node(None, PropertyMap::new()).unwrap();
        e.create_edge(a, b, Some("links"), PropertyMap::new())
            .unwrap();
        e.create_edge(b, c, Some("links"), PropertyMap::new())
            .unwrap();
        assert_eq!(e.node_count(), 3);
        assert!(e.adjacent(a, b).unwrap());
        assert!(!e.adjacent(a, c).unwrap());
        assert_eq!(e.k_neighborhood(a, 2).unwrap(), vec![b, c]);
        assert_eq!(e.fixed_length_paths(a, c, 2).unwrap(), 1);
        assert!(e.regular_path(a, c, "links links").unwrap());
    }

    #[test]
    fn summarization_works() {
        let mut e = temp_engine("summ");
        let a = e.create_node(None, PropertyMap::new()).unwrap();
        let b = e.create_node(None, PropertyMap::new()).unwrap();
        e.create_edge(a, b, None, PropertyMap::new()).unwrap();
        assert_eq!(e.summarize(SummaryFunc::Order).unwrap(), Value::Int(2));
        assert_eq!(e.summarize(SummaryFunc::Size).unwrap(), Value::Int(1));
        assert_eq!(
            e.summarize(SummaryFunc::Distance(a, b)).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = std::env::temp_dir().join(format!("gdm-vdb-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b);
        {
            let mut e = open(&dir).unwrap();
            a = e.create_node(None, PropertyMap::new()).unwrap();
            b = e.create_node(None, PropertyMap::new()).unwrap();
            e.create_edge(a, b, Some("x"), PropertyMap::new()).unwrap();
            e.persist().unwrap();
        }
        {
            let e = open(&dir).unwrap();
            assert_eq!(e.node_count(), 2);
            assert!(e.adjacent(a, b).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! InfiniteGraph emulation.
//!
//! The paper: "InfiniteGraph is a database oriented to support
//! large-scale graphs in a distributed environment. It aims the
//! efficient traversal of relations across massive and distributed
//! data stores." Profile: attributed directed multigraph (Table III),
//! external memory with indexes (Table I), API only (Table II), type
//! checking + identity constraints (Table VI).
//!
//! The distribution substitution (DESIGN.md §2): every node lives on a
//! partition, a hash of its id, and [`InfiniteGraph::edge_cut`] counts
//! the edges that cross partitions.

use crate::engine::{Capability as C, Engine, Model, Profile};
use crate::facade::EngineDescriptor;
use gdm_core::{EdgeId, GdmError, GraphView, NodeId, PropertyMap, Result, Support, Value};
use gdm_govern::Limits;
use gdm_graphs::PropertyGraph;
use gdm_schema::{Constraint, EdgeTypeDef, NodeTypeDef};
use gdm_storage::BTreeIndex;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// InfiniteGraph's row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "InfiniteGraph",
        gui: Support::None,
        graphical_ql: Support::None,
        backend_storage: Support::None,
        blurb: "large-scale graphs in a distributed environment; traversal across stores",
    },
    // A distributed-deployment database: generous wall-clock but a
    // bounded visit budget, on the model of its traversal policies.
    Limits {
        deadline: Some(Duration::from_secs(30)),
        max_node_visits: Some(10_000_000),
        max_edge_visits: None,
        max_rows: None,
    },
    &[
        (&[C::Hyperedges], "hyperedges"),
        (&[C::EdgesOnEdges], "edges between edges"),
        (&[C::NestedGraphs], "nested graphs"),
        (
            &[
                C::ReferentialIntegrity,
                C::Cardinality,
                C::FunctionalDependency,
                C::PatternConstraints,
            ],
            "this constraint kind (types and identity only)",
        ),
        (&[C::Ddl], "a data definition language"),
        (&[C::Dml], "a data manipulation language"),
        (&[C::QueryLanguage], "a query language"),
        (&[C::Explain], "explain"),
        (&[C::Reasoning], "reasoning"),
        (&[C::Analysis], "analysis functions"),
        (&[C::PatternMatching], "pattern matching queries"),
    ],
);

/// The InfiniteGraph emulation.
pub type InfiniteGraphEngine = Engine<InfiniteGraph>;

/// Opens (or creates) the store under `dir` with 4 simulated
/// partitions.
pub fn open(dir: &Path) -> Result<InfiniteGraphEngine> {
    open_with_partitions(dir, 4)
}

/// Opens with an explicit partition count.
pub fn open_with_partitions(dir: &Path, partitions: u32) -> Result<InfiniteGraphEngine> {
    let snapshot_path = dir.join("infinitegraph.snapshot");
    let graph = if snapshot_path.exists() {
        PropertyGraph::from_snapshot(&std::fs::read(&snapshot_path)?)?
    } else {
        PropertyGraph::new()
    };
    let model = InfiniteGraph {
        graph,
        partitions: partitions.max(1),
        constraints: Vec::new(),
        snapshot_path,
    };
    Ok(Engine::new(&PROFILE, model))
}

/// InfiniteGraph's substrate: a property graph spread over
/// `partitions` simulated partitions by a hash of the node id.
pub struct InfiniteGraph {
    graph: PropertyGraph,
    partitions: u32,
    constraints: Vec<Constraint>,
    snapshot_path: PathBuf,
}

impl InfiniteGraph {
    fn partition(&self, n: NodeId) -> u32 {
        let h = n.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h % u64::from(self.partitions)) as u32
    }

    /// The partition a node of the graph lives on.
    pub fn partition_of(&self, n: NodeId) -> Option<u32> {
        self.graph.contains_node(n).then(|| self.partition(n))
    }

    /// Edges whose endpoints live on different partitions.
    pub fn edge_cut(&self) -> usize {
        let crosses = |e| {
            let (from, to) = self.graph.edge_endpoints(e).expect("live");
            self.partition(from) != self.partition(to)
        };
        self.graph
            .edge_ids()
            .into_iter()
            .filter(|&e| crosses(e))
            .count()
    }
}

impl Model for InfiniteGraph {
    type Graph = PropertyGraph;
    type Index = BTreeIndex;
    type Saved = PropertyGraph;

    fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId> {
        let label = label.ok_or_else(|| {
            GdmError::InvalidArgument("InfiniteGraph vertices require a type".into())
        })?;
        Ok(self.graph.add_node(label, props))
    }

    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        let label = label.ok_or_else(|| {
            GdmError::InvalidArgument("InfiniteGraph edges require a type".into())
        })?;
        self.graph.add_edge(from, to, label, props)
    }

    fn set_node_property(&mut self, n: NodeId, key: &str, value: Value) -> Result<Option<Value>> {
        self.graph.set_node_property(n, key, value)
    }

    fn set_edge_property(&mut self, e: EdgeId, key: &str, value: Value) -> Result<()> {
        self.graph.set_edge_property(e, key, value).map(drop)
    }

    fn delete_node(&mut self, n: NodeId) -> Result<()> {
        self.graph.remove_node(n)
    }

    fn delete_edge(&mut self, e: EdgeId) -> Result<()> {
        self.graph.remove_edge(e)
    }

    fn define_node_type(&mut self, _def: NodeTypeDef) -> Result<()> {
        // Types exist implicitly; schema lives in the type-checking
        // constraint when installed.
        Ok(())
    }

    fn define_edge_type(&mut self, _def: EdgeTypeDef) -> Result<()> {
        Ok(())
    }

    fn install_constraint(&mut self, constraint: Constraint) -> Result<()> {
        self.constraints.push(constraint);
        Ok(())
    }

    fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    fn save(&self) -> Self::Saved {
        self.graph.clone()
    }

    fn restore(&mut self, graph: Self::Saved) {
        self.graph = graph;
    }

    fn persist(&mut self) -> Result<()> {
        std::fs::write(&self.snapshot_path, self.graph.to_snapshot())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::GraphEngine;
    use gdm_core::props;

    fn temp_engine(tag: &str) -> InfiniteGraphEngine {
        let dir = std::env::temp_dir().join(format!("gdm-ig-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        open(&dir).unwrap()
    }

    #[test]
    fn partitions_assigned() {
        let mut e = temp_engine("parts");
        let nodes: Vec<NodeId> = (0..32)
            .map(|i| e.create_node(Some("v"), props! { "i" => i }).unwrap())
            .collect();
        for n in &nodes {
            assert!(e.model().partition_of(*n).is_some());
        }
        for w in nodes.windows(2) {
            e.create_edge(w[0], w[1], Some("r"), props! {}).unwrap();
        }
        assert!(e.model().edge_cut() > 0, "hash placement cuts a ring");
    }

    #[test]
    fn essential_queries() {
        let mut e = temp_engine("essential");
        let a = e.create_node(Some("v"), props! {}).unwrap();
        let b = e.create_node(Some("v"), props! {}).unwrap();
        let c = e.create_node(Some("v"), props! {}).unwrap();
        e.create_edge(a, b, Some("r"), props! {}).unwrap();
        e.create_edge(b, c, Some("r"), props! {}).unwrap();
        assert!(e.adjacent(a, b).unwrap());
        assert_eq!(e.k_neighborhood(a, 2).unwrap(), vec![b, c]);
        assert_eq!(e.shortest_path(a, c).unwrap().unwrap().len(), 3);
        assert_eq!(e.fixed_length_paths(a, c, 2).unwrap(), 1);
        assert!(e
            .pattern_match(&gdm_algo::pattern::Pattern::new())
            .unwrap_err()
            .is_unsupported());
        assert!(e.execute_query("x").unwrap_err().is_unsupported());
    }

    #[test]
    fn btree_index_range_capable() {
        let mut e = temp_engine("index");
        for age in [25, 30, 35] {
            e.create_node(Some("p"), props! { "age" => age }).unwrap();
        }
        e.create_index("age").unwrap();
        assert_eq!(
            e.lookup_by_property("age", &Value::from(30)).unwrap().len(),
            1
        );
    }

    #[test]
    fn constraints() {
        let mut e = temp_engine("constraints");
        e.install_constraint(Constraint::Identity {
            type_name: "v".into(),
            property: "key".into(),
        })
        .unwrap();
        e.create_node(Some("v"), props! { "key" => 1 }).unwrap();
        assert!(e.create_node(Some("v"), props! { "key" => 1 }).is_err());
        assert_eq!(GraphEngine::node_count(&e), 1);
    }

    #[test]
    fn persistence() {
        let dir = std::env::temp_dir().join(format!("gdm-ig-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a;
        {
            let mut e = open(&dir).unwrap();
            a = e.create_node(Some("v"), props! { "x" => 9 }).unwrap();
            e.persist().unwrap();
        }
        {
            let e = open(&dir).unwrap();
            assert_eq!(e.node_attribute(a, "x").unwrap(), Some(Value::from(9)));
            assert!(e.model().partition_of(a).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! DEX emulation.
//!
//! The paper: "DEX provides a Java library for management of
//! persistent and temporary graphs. Its implementation, based on
//! bitmaps and other secondary structures, is oriented to ensure a
//! good performance in the management of very large graphs." Profile:
//! attributed directed multigraph with labeled/attributed nodes and
//! edges (Table III), main + external memory with (bitmap) indexes
//! (Table I), API only (Table II), types / identity / referential
//! constraints (Table VI), strong essential-query support minus
//! pattern matching (Table VII).

use crate::engine::{Capability as C, Engine, Model, Profile};
use crate::facade::EngineDescriptor;
use gdm_core::{
    EdgeId, FxHashMap, GdmError, GraphView, NodeId, PropertyMap, Result, Support, Value,
};
use gdm_govern::Limits;
use gdm_graphs::PropertyGraph;
use gdm_schema::{Constraint, EdgeTypeDef, NodeTypeDef};
use gdm_storage::{Bitmap, BitmapIndex};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// DEX's row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "DEX",
        gui: Support::None,
        graphical_ql: Support::None,
        backend_storage: Support::None,
        blurb: "bitmap-based library for persistent and temporary very large graphs",
    },
    // The paper's high-performance engine: a wide visit budget (its
    // bitmap structures chew through nodes cheaply) under the same
    // wall-clock ceiling as the other databases.
    Limits {
        deadline: Some(Duration::from_secs(30)),
        max_node_visits: Some(50_000_000),
        max_edge_visits: None,
        max_rows: None,
    },
    &[
        (&[C::Hyperedges], "hyperedges"),
        (&[C::EdgesOnEdges], "edges between edges"),
        (&[C::NestedGraphs], "nested graphs"),
        (
            &[
                C::Cardinality,
                C::FunctionalDependency,
                C::PatternConstraints,
            ],
            "this constraint kind (types, identity, referential only)",
        ),
        (&[C::Ddl], "a data definition language"),
        (&[C::Dml], "a data manipulation language"),
        (&[C::QueryLanguage], "a query language"),
        (&[C::Explain], "explain"),
        (&[C::Reasoning], "reasoning"),
        (&[C::PatternMatching], "pattern matching queries"),
    ],
);

/// The DEX emulation.
pub type DexEngine = Engine<Dex>;

/// Opens (or creates) the store under `dir`.
pub fn open(dir: &Path) -> Result<DexEngine> {
    let snapshot_path = dir.join("dex.snapshot");
    let graph = if snapshot_path.exists() {
        PropertyGraph::from_snapshot(&std::fs::read(&snapshot_path)?)?
    } else {
        PropertyGraph::new()
    };
    let mut dex = Dex {
        graph,
        node_type_bitmaps: FxHashMap::default(),
        constraints: Vec::new(),
        snapshot_path,
    };
    dex.rebuild_bitmaps();
    Ok(Engine::new(&PROFILE, dex))
}

/// DEX's substrate: a property graph under DEX-style type bitmaps.
/// Its attribute indexes are [`BitmapIndex`]es.
pub struct Dex {
    graph: PropertyGraph,
    /// Node label → object bitmap.
    node_type_bitmaps: FxHashMap<String, Bitmap>,
    constraints: Vec<Constraint>,
    snapshot_path: PathBuf,
}

impl Dex {
    /// Nodes of a type via the type bitmap (the DEX lookup path).
    pub fn nodes_of_type(&self, label: &str) -> Vec<NodeId> {
        self.node_type_bitmaps
            .get(label)
            .map(|bm| bm.iter().map(NodeId).collect())
            .unwrap_or_default()
    }

    fn rebuild_bitmaps(&mut self) {
        self.node_type_bitmaps.clear();
        let mut nodes = Vec::new();
        self.graph.visit_nodes(&mut |n| nodes.push(n));
        for n in nodes {
            let label = self.graph.node_label_text(n).expect("live").to_owned();
            self.node_type_bitmaps
                .entry(label)
                .or_default()
                .insert(n.raw());
        }
    }
}

impl Model for Dex {
    type Graph = PropertyGraph;
    type Index = BitmapIndex;
    type Saved = PropertyGraph;

    fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId> {
        let label = label
            .ok_or_else(|| GdmError::InvalidArgument("DEX nodes require a type label".into()))?;
        let n = self.graph.add_node(label, props);
        self.node_type_bitmaps
            .entry(label.to_owned())
            .or_default()
            .insert(n.raw());
        Ok(n)
    }

    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        let label = label
            .ok_or_else(|| GdmError::InvalidArgument("DEX edges require a type label".into()))?;
        self.graph.add_edge(from, to, label, props)
    }

    fn set_node_property(&mut self, n: NodeId, key: &str, value: Value) -> Result<Option<Value>> {
        self.graph.set_node_property(n, key, value)
    }

    fn set_edge_property(&mut self, e: EdgeId, key: &str, value: Value) -> Result<()> {
        self.graph.set_edge_property(e, key, value).map(drop)
    }

    fn delete_node(&mut self, n: NodeId) -> Result<()> {
        let label = self.graph.node_label_text(n)?.to_owned();
        self.graph.remove_node(n)?;
        if let Some(bm) = self.node_type_bitmaps.get_mut(&label) {
            bm.remove(n.raw());
        }
        Ok(())
    }

    fn delete_edge(&mut self, e: EdgeId) -> Result<()> {
        self.graph.remove_edge(e)
    }

    fn define_node_type(&mut self, def: NodeTypeDef) -> Result<()> {
        // DEX types are created implicitly; an explicit definition
        // pre-creates the bitmap.
        self.node_type_bitmaps.entry(def.name).or_default();
        Ok(())
    }

    fn define_edge_type(&mut self, _def: EdgeTypeDef) -> Result<()> {
        // DEX edge types are created implicitly and have no bitmap.
        Ok(())
    }

    fn install_constraint(&mut self, constraint: Constraint) -> Result<()> {
        self.constraints.push(constraint);
        Ok(())
    }

    fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    fn save(&self) -> PropertyGraph {
        self.graph.clone()
    }

    fn restore(&mut self, saved: PropertyGraph) {
        self.graph = saved;
        self.rebuild_bitmaps();
    }

    fn persist(&mut self) -> Result<()> {
        std::fs::write(&self.snapshot_path, self.graph.to_snapshot())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{AnalysisFunc, GraphEngine, SummaryFunc};
    use gdm_core::props;
    use gdm_schema::{NodeTypeDef, PropertyType, Schema, ValueType};

    fn temp_engine(tag: &str) -> DexEngine {
        let dir = std::env::temp_dir().join(format!("gdm-dex-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        open(&dir).unwrap()
    }

    #[test]
    fn attributed_multigraph() {
        let mut e = temp_engine("attrs");
        let a = e
            .create_node(Some("person"), props! { "name" => "ana" })
            .unwrap();
        let b = e
            .create_node(Some("person"), props! { "name" => "bob" })
            .unwrap();
        let edge = e
            .create_edge(a, b, Some("knows"), props! { "since" => 2001 })
            .unwrap();
        e.set_edge_attribute(edge, "weight", Value::from(0.5))
            .unwrap();
        assert_eq!(
            e.node_attribute(a, "name").unwrap(),
            Some(Value::from("ana"))
        );
        assert_eq!(e.model().nodes_of_type("person"), vec![a, b]);
        // Unlabeled nodes are out of model.
        assert!(e.create_node(None, props! {}).is_err());
    }

    /// The type bitmaps as sorted `label → ids` lists, empty ones left
    /// out.
    fn filed(bitmaps: &FxHashMap<String, Bitmap>) -> Vec<(String, Vec<u64>)> {
        let mut out: Vec<(String, Vec<u64>)> = bitmaps
            .iter()
            .map(|(label, bm)| (label.clone(), bm.iter().collect()))
            .filter(|(_, ids): &(String, Vec<u64>)| !ids.is_empty())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn deleting_a_node_unfiles_it() {
        let mut e = temp_engine("unfile");
        let a = e.create_node(Some("person"), props! {}).unwrap();
        let b = e.create_node(Some("person"), props! {}).unwrap();
        let c = e.create_node(Some("city"), props! {}).unwrap();
        e.create_edge(a, b, Some("knows"), props! {}).unwrap();
        e.create_edge(b, a, Some("likes"), props! {}).unwrap();
        e.create_edge(a, a, Some("likes"), props! {}).unwrap();
        e.create_edge(b, c, Some("lives_in"), props! {}).unwrap();
        e.delete_node(a).unwrap();
        let dex = e.model_mut();
        let kept = filed(&dex.node_type_bitmaps);
        dex.rebuild_bitmaps();
        assert_eq!(kept, filed(&dex.node_type_bitmaps));
        assert_eq!(dex.nodes_of_type("person"), vec![b]);
    }

    #[test]
    fn bitmap_indexes() {
        let mut e = temp_engine("bitmaps");
        let a = e
            .create_node(Some("n"), props! { "city" => "scl" })
            .unwrap();
        let _b = e
            .create_node(Some("n"), props! { "city" => "muc" })
            .unwrap();
        let c = e
            .create_node(Some("n"), props! { "city" => "scl" })
            .unwrap();
        e.create_index("city").unwrap();
        assert_eq!(
            e.lookup_by_property("city", &Value::from("scl")).unwrap(),
            vec![a, c]
        );
        // Index stays current through set_node_attribute.
        e.set_node_attribute(a, "city", Value::from("muc")).unwrap();
        assert_eq!(
            e.lookup_by_property("city", &Value::from("scl")).unwrap(),
            vec![c]
        );
    }

    #[test]
    fn essential_queries() {
        let mut e = temp_engine("essential");
        let n: Vec<NodeId> = (0..4)
            .map(|i| e.create_node(Some("v"), props! { "i" => i }).unwrap())
            .collect();
        e.create_edge(n[0], n[1], Some("r"), props! {}).unwrap();
        e.create_edge(n[1], n[2], Some("r"), props! {}).unwrap();
        e.create_edge(n[0], n[2], Some("s"), props! {}).unwrap();
        e.create_edge(n[2], n[3], Some("r"), props! {}).unwrap();
        assert!(e.adjacent(n[0], n[1]).unwrap());
        assert_eq!(e.k_neighborhood(n[0], 1).unwrap().len(), 2);
        assert_eq!(e.fixed_length_paths(n[0], n[2], 2).unwrap(), 1);
        assert!(e.regular_path(n[0], n[3], "r r r | s r").unwrap());
        assert_eq!(e.shortest_path(n[0], n[3]).unwrap().unwrap().len(), 3);
        assert_eq!(e.summarize(SummaryFunc::Order).unwrap(), Value::Int(4));
        assert!(e
            .pattern_match(&gdm_algo::pattern::Pattern::new())
            .unwrap_err()
            .is_unsupported());
    }

    #[test]
    fn constraints_enforced_with_rollback() {
        let mut e = temp_engine("constraints");
        let mut schema = Schema::new();
        schema
            .add_node_type(
                NodeTypeDef::new("person").with(PropertyType::required("name", ValueType::Str)),
            )
            .unwrap();
        e.install_constraint(Constraint::TypeChecking(schema))
            .unwrap();
        e.install_constraint(Constraint::Identity {
            type_name: "person".into(),
            property: "name".into(),
        })
        .unwrap();
        e.create_node(Some("person"), props! { "name" => "ana" })
            .unwrap();
        // Bad type: rejected and rolled back.
        assert!(e.create_node(Some("alien"), props! {}).is_err());
        assert_eq!(GraphEngine::node_count(&e), 1);
        // Duplicate identity: rejected.
        assert!(e
            .create_node(Some("person"), props! { "name" => "ana" })
            .is_err());
        assert_eq!(GraphEngine::node_count(&e), 1);
        // Unsupported constraint kinds refuse.
        assert!(e
            .install_constraint(Constraint::FunctionalDependency {
                type_name: "x".into(),
                determinant: "a".into(),
                dependent: "b".into(),
            })
            .unwrap_err()
            .is_unsupported());
    }

    #[test]
    fn persistence_rebuilds_bitmaps() {
        let dir = std::env::temp_dir().join(format!("gdm-dex-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a;
        {
            let mut e = open(&dir).unwrap();
            a = e
                .create_node(Some("person"), props! { "name" => "ana" })
                .unwrap();
            let b = e.create_node(Some("city"), props! {}).unwrap();
            e.create_edge(a, b, Some("lives_in"), props! {}).unwrap();
            e.persist().unwrap();
        }
        {
            let e = open(&dir).unwrap();
            assert_eq!(GraphEngine::node_count(&e), 2);
            assert_eq!(e.model().nodes_of_type("person"), vec![a]);
            assert_eq!(
                e.node_attribute(a, "name").unwrap(),
                Some(Value::from("ana"))
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analysis_functions() {
        let mut e = temp_engine("analysis");
        let a = e.create_node(Some("v"), props! {}).unwrap();
        let b = e.create_node(Some("v"), props! {}).unwrap();
        let c = e.create_node(Some("v"), props! {}).unwrap();
        e.create_edge(a, b, Some("r"), props! {}).unwrap();
        e.create_edge(b, c, Some("r"), props! {}).unwrap();
        e.create_edge(c, a, Some("r"), props! {}).unwrap();
        assert_eq!(e.analyze(AnalysisFunc::Triangles).unwrap(), Value::Int(1));
        assert_eq!(
            e.analyze(AnalysisFunc::ConnectedComponents).unwrap(),
            Value::Int(1)
        );
    }
}

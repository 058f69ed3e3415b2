//! HyperGraphDB emulation.
//!
//! The paper: "HyperGraphDB is a database that implements the
//! hypergraph data model where the notion of edge is extended to
//! connect more than two nodes ... particularly useful for modeling
//! data of areas like knowledge representation, artificial
//! intelligence and bio-informatics." Profile: hypergraph structure
//! with links-on-links (Table III), main + external + backend storage
//! with indexes (Table I), API only (Tables II and V), and type
//! checking + node/edge identity constraints (Table VI).

use crate::engine::{Capability as C, Engine, Model, Profile};
use crate::facade::EngineDescriptor;
use gdm_core::{EdgeId, NodeId, PropertyMap, Result, Support, Value};
use gdm_govern::Limits;
use gdm_graphs::hyper::{AtomId, HyperGraph};
use gdm_schema::{Constraint, EdgeTypeDef, NodeTypeDef, Schema};
use gdm_storage::HashIndex;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// HyperGraphDB's row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "HyperGraphDB",
        gui: Support::None,
        graphical_ql: Support::None,
        backend_storage: Support::Full,
        blurb: "implements the hypergraph data model; links may connect any atoms",
    },
    // A graph database over a generic backend; the two-section
    // expansion of hyperedges inflates visit counts, so the edge
    // budget is the binding one.
    Limits {
        deadline: Some(Duration::from_secs(30)),
        max_node_visits: Some(10_000_000),
        max_edge_visits: Some(50_000_000),
        max_rows: None,
    },
    &[
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
        (&[C::KNeighborhood], "k-neighborhood queries"),
        (&[C::FixedLengthPaths], "fixed-length path queries"),
        (&[C::RegularPaths], "regular path queries"),
        (&[C::ShortestPath], "shortest path queries"),
        (&[C::PatternMatching], "pattern matching queries"),
    ],
);

/// The HyperGraphDB emulation. [`Engine::view`] is the underlying
/// atom space.
pub type HyperGraphDbEngine = Engine<HyperGraphDb>;

/// Opens (or creates) the store under `dir`.
pub fn open(dir: &Path) -> Result<HyperGraphDbEngine> {
    let snapshot_path = dir.join("hypergraphdb.atoms");
    let atoms = if snapshot_path.exists() {
        HyperGraph::from_snapshot(&std::fs::read(&snapshot_path)?)?
    } else {
        HyperGraph::new()
    };
    Ok(Engine::new(
        &PROFILE,
        HyperGraphDb {
            atoms,
            schema: Schema::new(),
            constraints: Vec::new(),
            snapshot_path,
        },
    ))
}

/// HyperGraphDB's substrate: an atom space, read through its
/// two-section, with the type and identity constraints installed on it.
pub struct HyperGraphDb {
    atoms: HyperGraph,
    /// Declared types, kept to refuse a name twice or an edge type between
    /// undeclared node types; atoms are checked by `TypeChecking`'s schema.
    schema: Schema,
    constraints: Vec<Constraint>,
    snapshot_path: PathBuf,
}

/// The [`Model`] items an atom space's engine shares: HyperGraphDB and
/// Sones keep an attributed `HyperGraph` in `atoms` and their installed
/// constraints in `constraints`, and differ in the default node and edge
/// labels given here, their type declarations, dialects and storage.
macro_rules! atom_space_model {
    ($node_label:literal, $edge_label:literal) => {
        type Graph = HyperGraph;
        type Index = HashIndex;
        type Saved = HyperGraph;

        fn graph(&self) -> &HyperGraph {
            &self.atoms
        }

        fn count_edges(&self) -> usize {
            self.atoms.link_count()
        }

        fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId> {
            let label = label.unwrap_or($node_label);
            Ok(NodeId(self.atoms.add_node(label, props).raw()))
        }

        fn create_edge(
            &mut self,
            from: NodeId,
            to: NodeId,
            label: Option<&str>,
            props: PropertyMap,
        ) -> Result<EdgeId> {
            self.create_hyperedge(label.unwrap_or($edge_label), &[from, to], props)
        }

        fn create_hyperedge(
            &mut self,
            label: &str,
            targets: &[NodeId],
            props: PropertyMap,
        ) -> Result<EdgeId> {
            let atoms: Vec<AtomId> = targets.iter().map(|n| AtomId(n.raw())).collect();
            Ok(EdgeId(self.atoms.add_link(label, &atoms, props)?.raw()))
        }

        fn create_edge_on_edge(&mut self, from: EdgeId, to: NodeId, label: &str) -> Result<EdgeId> {
            let targets = [AtomId(from.raw()), AtomId(to.raw())];
            let id = self.atoms.add_link(label, &targets, PropertyMap::new())?;
            Ok(EdgeId(id.raw()))
        }

        fn set_node_property(
            &mut self,
            n: NodeId,
            key: &str,
            value: Value,
        ) -> Result<Option<Value>> {
            self.atoms.set_property(AtomId(n.raw()), key, value)
        }

        fn set_edge_property(&mut self, e: EdgeId, key: &str, value: Value) -> Result<()> {
            self.atoms
                .set_property(AtomId(e.raw()), key, value)
                .map(drop)
        }

        fn delete_node(&mut self, n: NodeId) -> Result<()> {
            self.atoms.remove_atom(AtomId(n.raw()), true)
        }

        fn delete_edge(&mut self, e: EdgeId) -> Result<()> {
            self.atoms.remove_atom(AtomId(e.raw()), true)
        }

        fn undo_create_node(&mut self, n: NodeId) -> Result<()> {
            self.atoms.undo_add(AtomId(n.raw()))
        }

        fn undo_create_edge(&mut self, e: EdgeId) -> Result<()> {
            self.atoms.undo_add(AtomId(e.raw()))
        }

        fn install_constraint(&mut self, constraint: Constraint) -> Result<()> {
            self.constraints.push(constraint);
            Ok(())
        }

        fn constraints(&self) -> &[Constraint] {
            &self.constraints
        }

        fn save(&self) -> HyperGraph {
            self.atoms.clone()
        }

        fn restore(&mut self, saved: HyperGraph) {
            self.atoms = saved;
        }
    };
}
pub(crate) use atom_space_model;

impl Model for HyperGraphDb {
    atom_space_model!("atom", "link");

    fn define_node_type(&mut self, def: NodeTypeDef) -> Result<()> {
        self.schema.add_node_type(def)
    }

    fn define_edge_type(&mut self, def: EdgeTypeDef) -> Result<()> {
        self.schema.add_edge_type(def)
    }

    fn persist(&mut self) -> Result<()> {
        std::fs::write(&self.snapshot_path, self.atoms.to_snapshot())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{GraphEngine, SummaryFunc};
    use gdm_core::props;
    use gdm_schema::{PropertyType, ValueType};

    fn temp_engine(tag: &str) -> HyperGraphDbEngine {
        let dir = std::env::temp_dir().join(format!("gdm-hgdb-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        open(&dir).unwrap()
    }

    #[test]
    fn hyperedges_and_links_on_links() {
        let mut e = temp_engine("hyper");
        let a = e.create_node(Some("gene"), props! {}).unwrap();
        let b = e.create_node(Some("gene"), props! {}).unwrap();
        let c = e.create_node(Some("protein"), props! {}).unwrap();
        let h = e
            .create_hyperedge("regulates", &[a, b, c], props! {})
            .unwrap();
        assert_eq!(GraphEngine::edge_count(&e), 1);
        let annotation = e.create_edge_on_edge(h, a, "source").unwrap();
        assert_ne!(annotation, h);
        assert!(e.adjacent(a, b).unwrap());
    }

    #[test]
    fn type_checking_constraint() {
        let mut e = temp_engine("types");
        let mut schema = Schema::new();
        schema
            .add_node_type(
                NodeTypeDef::new("protein").with(PropertyType::required("name", ValueType::Str)),
            )
            .unwrap();
        e.install_constraint(Constraint::TypeChecking(schema))
            .unwrap();
        assert!(e
            .create_node(Some("alien"), props! {})
            .unwrap_err()
            .to_string()
            .contains("not declared"));
        assert!(e.create_node(Some("protein"), props! {}).is_err());
        assert!(e
            .create_node(Some("protein"), props! { "name" => "p53" })
            .is_ok());
    }

    #[test]
    fn identity_constraint() {
        let mut e = temp_engine("identity");
        e.install_constraint(Constraint::Identity {
            type_name: "protein".into(),
            property: "name".into(),
        })
        .unwrap();
        e.create_node(Some("protein"), props! { "name" => "p53" })
            .unwrap();
        let err = e
            .create_node(Some("protein"), props! { "name" => "p53" })
            .unwrap_err();
        assert!(err.to_string().contains("already taken"));
        assert!(e
            .create_node(Some("protein"), props! {})
            .unwrap_err()
            .to_string()
            .contains("lacks identity"));
    }

    #[test]
    fn indexes_and_lookup() {
        let mut e = temp_engine("index");
        let a = e.create_node(Some("n"), props! { "name" => "x" }).unwrap();
        e.create_index("name").unwrap();
        let b = e.create_node(Some("n"), props! { "name" => "y" }).unwrap();
        assert_eq!(
            e.lookup_by_property("name", &Value::from("x")).unwrap(),
            vec![a]
        );
        assert_eq!(
            e.lookup_by_property("name", &Value::from("y")).unwrap(),
            vec![b]
        );
    }

    #[test]
    fn persistence() {
        let dir = std::env::temp_dir().join(format!("gdm-hgdb-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b);
        {
            let mut e = open(&dir).unwrap();
            a = e.create_node(Some("x"), props! { "v" => 1 }).unwrap();
            b = e.create_node(Some("x"), props! {}).unwrap();
            let c = e.create_node(Some("x"), props! {}).unwrap();
            e.create_hyperedge("rel", &[a, b, c], props! {}).unwrap();
            e.persist().unwrap();
        }
        {
            let e = open(&dir).unwrap();
            assert_eq!(GraphEngine::node_count(&e), 3);
            assert_eq!(GraphEngine::edge_count(&e), 1);
            assert!(e.adjacent(a, b).unwrap());
            assert_eq!(e.node_attribute(a, "v").unwrap(), Some(Value::from(1)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summarization() {
        let mut e = temp_engine("summ");
        let a = e.create_node(None, props! { "w" => 2 }).unwrap();
        let b = e.create_node(None, props! { "w" => 4 }).unwrap();
        e.create_edge(a, b, None, props! {}).unwrap();
        assert_eq!(e.summarize(SummaryFunc::Order).unwrap(), Value::Int(2));
        assert_eq!(
            e.summarize(SummaryFunc::PropertyAggregate(
                gdm_algo::summary::Aggregate::Sum,
                "w"
            ))
            .unwrap(),
            Value::Int(6)
        );
    }
}

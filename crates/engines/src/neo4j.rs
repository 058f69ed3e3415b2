//! Neo4j emulation.
//!
//! The paper: "Neo4j is based on a network oriented model where
//! relations are first class objects. It implements an object-oriented
//! API, a native disk-based storage manager for graphs, and a
//! framework for graph traversals ... Neo4j is developing Cypher, a
//! query language for property graphs" (marked `◦` in Table V).
//!
//! The emulation sits on `gdm_storage::RecordStore` — the fixed-size
//! node/relationship records with per-node relationship chains that
//! are Neo4j's storage signature — plus a token table, property-key
//! B-tree indexes, the traversal framework from `gdm-algo`, and the
//! partial Cypher front-end from `gdm-query`.

use crate::engine::{Capability as C, Engine, Model, Profile};
use crate::facade::{EngineDescriptor, GraphEngine};
use gdm_core::{
    AttributedView, EdgeId, EdgeRef, GdmError, GraphView, Interner, NodeId, PropertyMap, Result,
    Support, Symbol, Value,
};
use gdm_govern::Limits;
use gdm_query::cypher::{self, CypherStatement};
use gdm_query::eval::{evaluate_select, ResultSet};
use gdm_storage::{BTreeIndex, RecordStore};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Neo4j's row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "Neo4j",
        gui: Support::None,
        graphical_ql: Support::None,
        backend_storage: Support::None,
        blurb: "network-oriented model; native disk storage; traversal framework; Cypher in development",
    },
    // A server-class graph database: generous operator defaults —
    // queries may be long, but never unbounded.
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
        (&[C::NodeTypes, C::EdgeTypes], "schema definitions (schema-free model)"),
        (&C::CONSTRAINTS, "integrity constraints"),
        (&[C::Ddl], "a data definition language"),
        (&[C::Dml], "a separate data manipulation language (use Cypher CREATE)"),
        (&[C::Reasoning], "reasoning"),
        (&[C::Analysis], "built-in analysis functions"),
        // Table VII (reconstructed) does not credit 2012 Neo4j with
        // pattern matching through its API; the in-development Cypher
        // covers single patterns via execute_query instead.
        (&[C::PatternMatching], "pattern matching through the API"),
    ],
);

/// The Neo4j emulation. [`Engine::view`] is the read view used with
/// `gdm_algo::Traversal` — the paper's "framework for graph
/// traversals".
pub type Neo4jEngine = Engine<Neo4j>;

/// Opens (or creates) the store under `dir`.
pub fn open(dir: &Path) -> Result<Neo4jEngine> {
    let store_path = dir.join("neo4j.store");
    let tokens_path = dir.join("neo4j.tokens");
    let store = if store_path.exists() {
        RecordStore::load(&store_path)?
    } else {
        RecordStore::new()
    };
    let mut tokens = Interner::new();
    if tokens_path.exists() {
        for line in std::fs::read_to_string(&tokens_path)?.lines() {
            tokens.intern(line);
        }
    }
    Ok(Engine::new(
        &PROFILE,
        Neo4j {
            store,
            tokens,
            store_path,
            tokens_path,
        },
    ))
}

/// Neo4j's substrate: the record store plus the token table naming its
/// labels, relationship types and property keys.
pub struct Neo4j {
    store: RecordStore,
    tokens: Interner,
    store_path: PathBuf,
    tokens_path: PathBuf,
}

/// Record ids are 32-bit; a wider facade id names no record.
fn record_id(raw: u64) -> Option<u32> {
    u32::try_from(raw).ok()
}

impl Neo4j {
    fn node_id(&self, n: NodeId) -> Result<u32> {
        record_id(n.raw())
            .filter(|&id| self.store.node_in_use(id))
            .ok_or_else(|| GdmError::NotFound(format!("node {n}")))
    }

    fn rel_id(e: EdgeId) -> Result<u32> {
        record_id(e.raw()).ok_or_else(|| GdmError::NotFound(format!("relationship {e}")))
    }

    fn visit_rels(&self, n: NodeId, outgoing: bool, f: &mut dyn FnMut(EdgeRef)) {
        let Some(id) = record_id(n.raw()) else {
            return;
        };
        // Self-loops are both an out- and an in-edge of their node (the
        // chain holds them once, so they are visited exactly once per
        // direction); excluding them from one direction would make
        // `degree` undercount and backward traversals disagree with
        // every other view.
        self.store.visit_rels(id, &mut |rel| {
            let (near, far) = if outgoing {
                (rel.from, rel.to)
            } else {
                (rel.to, rel.from)
            };
            if near == id {
                f(EdgeRef {
                    id: EdgeId(u64::from(rel.id)),
                    from: n,
                    to: NodeId(u64::from(far)),
                    label: Some(Symbol(rel.rel_type)),
                });
            }
        });
    }
}

impl GraphView for Neo4j {
    fn is_directed(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.store.node_count()
    }

    fn edge_count(&self) -> usize {
        self.store.rel_count()
    }

    fn contains_node(&self, n: NodeId) -> bool {
        self.node_id(n).is_ok()
    }

    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
        for id in 0..self.store.node_high_id() {
            if self.store.node_in_use(id) {
                f(NodeId(u64::from(id)));
            }
        }
    }

    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        self.visit_rels(n, true, f);
    }

    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        self.visit_rels(n, false, f);
    }

    fn label_text(&self, sym: Symbol) -> Option<&str> {
        self.tokens.resolve(sym)
    }
}

impl AttributedView for Neo4j {
    fn node_label(&self, n: NodeId) -> Option<Symbol> {
        self.store.node_label(record_id(n.raw())?).ok().map(Symbol)
    }

    fn node_property(&self, n: NodeId, key: &str) -> Option<Value> {
        let token = self.tokens.get(key)?;
        self.store
            .node_prop(record_id(n.raw())?, token.raw())
            .cloned()
    }

    fn edge_property(&self, e: EdgeId, key: &str) -> Option<Value> {
        let token = self.tokens.get(key)?;
        self.store
            .rel_prop(record_id(e.raw())?, token.raw())
            .cloned()
    }

    // Enumeration hooks: without these, `FrozenGraph::freeze`
    // captures labels but no property values, and a snapshot served to
    // the query layer silently answers property predicates with nothing.
    fn visit_node_properties(&self, n: NodeId, f: &mut dyn FnMut(&str, &Value)) {
        let Some(id) = record_id(n.raw()) else {
            return;
        };
        self.store.visit_node_props(id, &mut |token, v| {
            if let Some(key) = self.tokens.resolve(Symbol(token)) {
                f(key, v);
            }
        });
    }

    fn visit_edge_properties(&self, e: EdgeId, f: &mut dyn FnMut(&str, &Value)) {
        let Some(id) = record_id(e.raw()) else {
            return;
        };
        self.store.visit_rel_props(id, &mut |token, v| {
            if let Some(key) = self.tokens.resolve(Symbol(token)) {
                f(key, v);
            }
        });
    }
}

impl Model for Neo4j {
    type Graph = Neo4j;
    type Index = BTreeIndex;
    type Saved = RecordStore;

    fn graph(&self) -> &Neo4j {
        self
    }

    fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId> {
        let token = self.tokens.intern(label.unwrap_or("Node")).raw();
        let id = self.store.create_node(token);
        for (k, v) in &props {
            let key = self.tokens.intern(k).raw();
            self.store.set_node_prop(id, key, v.clone())?;
        }
        Ok(NodeId(u64::from(id)))
    }

    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        let label = label.ok_or_else(|| {
            GdmError::InvalidArgument("Neo4j relationships require a type".into())
        })?;
        let f = self.node_id(from)?;
        let t = self.node_id(to)?;
        let token = self.tokens.intern(label).raw();
        let rel = self.store.create_rel(f, t, token)?;
        for (k, v) in &props {
            let key = self.tokens.intern(k).raw();
            self.store.set_rel_prop(rel, key, v.clone())?;
        }
        Ok(EdgeId(u64::from(rel)))
    }

    fn set_node_property(&mut self, n: NodeId, key: &str, value: Value) -> Result<Option<Value>> {
        let id = self.node_id(n)?;
        let token = self.tokens.intern(key).raw();
        let old = self.store.node_prop(id, token).cloned();
        self.store.set_node_prop(id, token, value)?;
        Ok(old)
    }

    fn set_edge_property(&mut self, e: EdgeId, key: &str, value: Value) -> Result<()> {
        let id = Self::rel_id(e)?;
        let token = self.tokens.intern(key).raw();
        self.store.set_rel_prop(id, token, value)
    }

    fn delete_node(&mut self, n: NodeId) -> Result<()> {
        let id = self.node_id(n)?;
        self.store.delete_node(id)
    }

    fn delete_edge(&mut self, e: EdgeId) -> Result<()> {
        self.store.delete_rel(Self::rel_id(e)?)
    }

    fn execute_query(engine: &mut Neo4jEngine, query: &str) -> Result<ResultSet> {
        match cypher::parse(query)? {
            CypherStatement::Select(q) => evaluate_select(engine.view(), &q),
            CypherStatement::Create(items) => {
                let mut created_nodes = 0i64;
                let mut created_rels = 0i64;
                for item in items {
                    let mut ids = Vec::new();
                    for (_, label, props) in &item.nodes {
                        ids.push(engine.create_node(Some(label), props.clone())?);
                        created_nodes += 1;
                    }
                    for (i, (rel, props)) in item.edges.iter().enumerate() {
                        engine.create_edge(ids[i], ids[i + 1], Some(rel), props.clone())?;
                        created_rels += 1;
                    }
                }
                Ok(ResultSet {
                    columns: vec!["nodes_created".into(), "relationships_created".into()],
                    rows: vec![vec![Value::Int(created_nodes), Value::Int(created_rels)]],
                })
            }
        }
    }

    fn explain(&self, query: &str) -> Result<String> {
        match cypher::parse(query)? {
            CypherStatement::Select(q) => Ok(gdm_query::plan_select(self, &q)?.explain.render()),
            CypherStatement::Create(_) => Err(GdmError::InvalidArgument(
                "EXPLAIN applies to MATCH queries, not CREATE".into(),
            )),
        }
    }

    fn save(&self) -> RecordStore {
        self.store.clone()
    }

    fn restore(&mut self, saved: RecordStore) {
        // Token additions are harmless to keep.
        self.store = saved;
    }

    fn persist(&mut self) -> Result<()> {
        self.store.save(&self.store_path)?;
        let lines: Vec<&str> = self.tokens.iter().map(|(_, s)| s).collect();
        std::fs::write(&self.tokens_path, lines.join("\n"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::SummaryFunc;
    use gdm_algo::traverse::Traversal;
    use gdm_core::props;

    fn temp_engine(tag: &str) -> Neo4jEngine {
        let dir = std::env::temp_dir().join(format!("gdm-neo-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        open(&dir).unwrap()
    }

    fn seed(e: &mut Neo4jEngine) -> Vec<NodeId> {
        let ada = e
            .create_node(Some("Person"), props! { "name" => "ada", "age" => 36 })
            .unwrap();
        let bob = e
            .create_node(Some("Person"), props! { "name" => "bob", "age" => 25 })
            .unwrap();
        let acme = e
            .create_node(Some("Company"), props! { "name" => "acme" })
            .unwrap();
        e.create_edge(ada, bob, Some("KNOWS"), props! { "since" => 2001 })
            .unwrap();
        e.create_edge(ada, acme, Some("WORKS_AT"), props! {})
            .unwrap();
        vec![ada, bob, acme]
    }

    #[test]
    fn cypher_queries_run() {
        let mut e = temp_engine("cypher");
        seed(&mut e);
        let rs = e
            .execute_query("MATCH (p:Person) WHERE p.age > 30 RETURN p.name")
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("ada"));
        let rs = e
            .execute_query("MATCH (a:Person {name: 'ada'})-[:KNOWS]->(b) RETURN b.name")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::from("bob"));
        // Partial language: advanced clauses refuse.
        assert!(e.execute_query("MATCH (a) WITH a RETURN a").is_err());
    }

    #[test]
    fn cypher_create() {
        let mut e = temp_engine("create");
        let rs = e
            .execute_query("CREATE (a:Person {name: 'eve'})-[:KNOWS]->(b:Person {name: 'dan'})")
            .unwrap();
        assert_eq!(rs.get(0, "nodes_created"), Some(&Value::Int(2)));
        assert_eq!(GraphEngine::node_count(&e), 2);
        assert_eq!(GraphEngine::edge_count(&e), 1);
    }

    #[test]
    fn traversal_framework() {
        let mut e = temp_engine("traverse");
        let n = seed(&mut e);
        let order = Traversal::new(n[0]).relationships(&["KNOWS"]).run(e.view());
        assert_eq!(order, vec![n[0], n[1]]);
    }

    #[test]
    fn essential_queries() {
        let mut e = temp_engine("essential");
        let n = seed(&mut e);
        assert!(e.adjacent(n[0], n[1]).unwrap());
        assert_eq!(e.k_neighborhood(n[0], 1).unwrap().len(), 2);
        assert_eq!(e.shortest_path(n[0], n[2]).unwrap().unwrap().len(), 2);
        assert_eq!(e.fixed_length_paths(n[0], n[2], 1).unwrap(), 1);
        assert_eq!(
            e.summarize(SummaryFunc::PropertyAggregate(
                gdm_algo::summary::Aggregate::Max,
                "age"
            ))
            .unwrap(),
            Value::Int(36)
        );
    }

    #[test]
    fn indexes() {
        let mut e = temp_engine("index");
        let n = seed(&mut e);
        e.create_index("name").unwrap();
        assert_eq!(
            e.lookup_by_property("name", &Value::from("bob")).unwrap(),
            vec![n[1]]
        );
    }

    #[test]
    fn persistence() {
        let dir = std::env::temp_dir().join(format!("gdm-neo-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut e = open(&dir).unwrap();
            seed(&mut e);
            e.persist().unwrap();
        }
        {
            let mut e = open(&dir).unwrap();
            assert_eq!(GraphEngine::node_count(&e), 3);
            let rs = e
                .execute_query("MATCH (p:Person) RETURN count(*) AS n")
                .unwrap();
            assert_eq!(rs.get(0, "n"), Some(&Value::Int(2)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

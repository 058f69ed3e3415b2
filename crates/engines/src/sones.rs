//! Sones emulation.
//!
//! The paper: "Sones is a graph database which provides an inherent
//! support for high-level data abstraction concepts for graphs (e.g.,
//! walks). It defines its own graph query language." Profile: the
//! richest structural row of Table III (hypergraphs *and* attributed
//! graphs), all three database languages plus API and GUI (Table II),
//! a graphical query language (Table V), identity and cardinality
//! constraints (Table VI), main-memory storage with indexes and no
//! external persistence (Table I).
//!
//! The model is an attributed atom space (`gdm_graphs::HyperGraph`):
//! binary links are ordinary edges, n-ary links are Sones' hyperedges,
//! and the GQL front-end (`gdm_query::gql`) runs over the binary
//! projection (the two-section, which is how a `HyperGraph` reads as a
//! graph).

use crate::engine::{Capability as C, Engine, Model, Profile};
use crate::facade::{EngineDescriptor, GraphEngine};
use crate::hypergraphdb::atom_space_model;
use gdm_core::{EdgeId, GdmError, GraphView, NodeId, PropertyMap, Result, Support, Value};
use gdm_govern::Limits;
use gdm_graphs::hyper::{AtomId, HyperGraph};
use gdm_query::eval::{evaluate_select, ResultSet};
use gdm_query::gql::{self, GqlStatement};
use gdm_schema::{
    Cardinality, Constraint, EdgeTypeDef, NodeTypeDef, PropertyType, Schema, ValueType,
};
use gdm_storage::HashIndex;
use std::time::Duration;

/// Sones' row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "Sones",
        gui: Support::Full,
        graphical_ql: Support::Full,
        backend_storage: Support::None,
        blurb: "inherent support for high-level graph abstractions; defines its own query language",
    },
    // A server-class database with a declarative query language:
    // generous defaults plus a result-row cap, the shape a GQL
    // endpoint would enforce per statement.
    Limits {
        deadline: Some(Duration::from_secs(30)),
        max_node_visits: Some(10_000_000),
        max_edge_visits: None,
        max_rows: Some(1_000_000),
    },
    &[
        (&[C::NestedGraphs], "nested graphs"),
        (
            &[
                C::TypeChecking,
                C::ReferentialIntegrity,
                C::FunctionalDependency,
                C::PatternConstraints,
            ],
            "this constraint kind (identity and cardinality only)",
        ),
        (&[C::Reasoning], "reasoning"),
        (&[C::KNeighborhood], "k-neighborhood queries"),
        (&[C::FixedLengthPaths], "fixed-length path queries"),
        (&[C::RegularPaths], "regular path queries"),
        (&[C::ShortestPath], "shortest path queries"),
        (&[C::PatternMatching], "pattern matching queries"),
        (
            &[C::Persistence],
            "external-memory persistence (main-memory system)",
        ),
    ],
);

/// The Sones emulation.
pub type SonesEngine = Engine<Sones>;

/// Creates an empty (main-memory) database.
pub fn open() -> SonesEngine {
    Engine::new(
        &PROFILE,
        Sones {
            atoms: HyperGraph::new(),
            schema: Schema::new(),
            constraints: Vec::new(),
        },
    )
}

/// Sones' substrate: an attributed atom space, read through its
/// two-section, with the constraints its schema and callers install.
pub struct Sones {
    atoms: HyperGraph,
    schema: Schema,
    constraints: Vec<Constraint>,
}

impl Sones {
    fn find_by(&self, type_name: &str, key: &str, value: &Value) -> Result<AtomId> {
        for id in self.atoms.node_ids() {
            if self.atoms.label(id).ok() == Some(type_name)
                && self.atoms.property(id, key) == Some(value)
            {
                return Ok(id);
            }
        }
        Err(GdmError::NotFound(format!(
            "{type_name} with {key} = {value}"
        )))
    }

    /// Sones' signature "walk" abstraction (the paper: "inherent
    /// support for high-level data abstraction concepts for graphs
    /// (e.g., walks)"): follow a fixed sequence of edge types from
    /// `start`, returning every vertex sequence that spells it.
    pub fn walks(&self, start: NodeId, edge_types: &[&str]) -> Result<Vec<Vec<NodeId>>> {
        let view = &self.atoms;
        let mut complete = Vec::new();
        let mut partial: Vec<Vec<NodeId>> = vec![vec![start]];
        for want in edge_types {
            let mut next = Vec::new();
            for walk in &partial {
                let last = *walk.last().expect("walks are non-empty");
                GraphView::visit_out_edges(view, last, &mut |e| {
                    let matches = e
                        .label
                        .and_then(|s| GraphView::label_text(view, s))
                        .is_some_and(|t| t == *want);
                    if matches {
                        let mut w = walk.clone();
                        w.push(e.to);
                        next.push(w);
                    }
                });
            }
            partial = next;
            if partial.is_empty() {
                break;
            }
        }
        complete.extend(partial);
        Ok(complete)
    }
}

impl Model for Sones {
    atom_space_model!("Vertex", "Edge");

    fn define_node_type(&mut self, def: NodeTypeDef) -> Result<()> {
        // Unique attributes install identity constraints, only over data that meets them.
        let unique: Vec<Constraint> = def
            .properties
            .iter()
            .filter(|pt| pt.unique)
            .map(|pt| Constraint::Identity {
                type_name: def.name.clone(),
                property: pt.name.clone(),
            })
            .collect();
        gdm_schema::check(&self.atoms, &unique)?;
        self.schema.add_node_type(def)?;
        self.constraints.extend(unique);
        Ok(())
    }

    fn define_edge_type(&mut self, def: EdgeTypeDef) -> Result<()> {
        let mut limits = Vec::new();
        if def.cardinality != Cardinality::ManyToMany {
            let mut limited = Schema::new();
            limited.add_edge_type(EdgeTypeDef::new(&def.name).cardinality(def.cardinality))?;
            limits.push(Constraint::Cardinality(limited));
        }
        gdm_schema::check(&self.atoms, &limits)?;
        self.schema.add_edge_type(def)?;
        self.constraints.extend(limits);
        Ok(())
    }

    fn execute_ddl(engine: &mut SonesEngine, statement: &str) -> Result<()> {
        match gql::parse(statement)? {
            GqlStatement::CreateVertexType { name, attributes } => {
                let mut def = NodeTypeDef::new(name);
                for a in attributes {
                    let vt = ValueType::parse(&a.type_name).ok_or_else(|| {
                        GdmError::Schema(format!("unknown attribute type {:?}", a.type_name))
                    })?;
                    let mut pt = if a.mandatory {
                        PropertyType::required(&a.name, vt)
                    } else {
                        PropertyType::optional(&a.name, vt)
                    };
                    if a.unique {
                        pt = pt.unique();
                    }
                    def = def.with(pt);
                }
                engine.define_node_type(def)
            }
            GqlStatement::CreateEdgeType { name, from, to } => {
                engine.define_edge_type(EdgeTypeDef::new(name).between(from, to))
            }
            _ => Err(GdmError::InvalidArgument(
                "not a DDL statement (use CREATE VERTEX TYPE / CREATE EDGE TYPE)".into(),
            )),
        }
    }

    fn execute_dml(engine: &mut SonesEngine, statement: &str) -> Result<()> {
        match gql::parse(statement)? {
            GqlStatement::InsertVertex { type_name, props } => {
                engine.create_node(Some(&type_name), props).map(drop)
            }
            GqlStatement::InsertEdge {
                type_name,
                from,
                to,
                props,
            } => {
                let f = engine.model().find_by(&from.0, &from.1, &from.2)?;
                let t = engine.model().find_by(&to.0, &to.1, &to.2)?;
                engine
                    .create_edge(NodeId(f.raw()), NodeId(t.raw()), Some(&type_name), props)
                    .map(drop)
            }
            _ => Err(GdmError::InvalidArgument(
                "not a DML statement (use INSERT INTO / INSERT EDGE)".into(),
            )),
        }
    }

    fn execute_query(engine: &mut SonesEngine, query: &str) -> Result<ResultSet> {
        match gql::parse(query)? {
            GqlStatement::Select(q) => evaluate_select(engine.view(), &q),
            _ => Err(GdmError::InvalidArgument(
                "not a query (use FROM … SELECT …)".into(),
            )),
        }
    }

    fn explain(&self, query: &str) -> Result<String> {
        match gql::parse(query)? {
            GqlStatement::Select(q) => {
                Ok(gdm_query::plan_select(&self.atoms, &q)?.explain.render())
            }
            _ => Err(GdmError::InvalidArgument(
                "EXPLAIN applies to FROM … SELECT … queries".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{AnalysisFunc, SummaryFunc};
    use gdm_core::props;

    #[test]
    fn gql_end_to_end() {
        let mut e = open();
        e.execute_ddl("CREATE VERTEX TYPE Person ATTRIBUTES (String name UNIQUE, Int age)")
            .unwrap();
        e.execute_ddl("CREATE EDGE TYPE knows FROM Person TO Person")
            .unwrap();
        e.execute_dml("INSERT INTO Person VALUES (name = 'ana', age = 30)")
            .unwrap();
        e.execute_dml("INSERT INTO Person VALUES (name = 'bob', age = 45)")
            .unwrap();
        e.execute_dml("INSERT EDGE knows FROM Person (name = 'ana') TO Person (name = 'bob')")
            .unwrap();
        let rs = e
            .execute_query("FROM Person p SELECT p.name WHERE p.age > 40")
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("bob"));
        // UNIQUE attribute acts as identity constraint.
        assert!(e
            .execute_dml("INSERT INTO Person VALUES (name = 'ana', age = 99)")
            .is_err());
    }

    #[test]
    fn hyperedges_supported() {
        let mut e = open();
        let a = e.create_node(Some("T"), props! {}).unwrap();
        let b = e.create_node(Some("T"), props! {}).unwrap();
        let c = e.create_node(Some("T"), props! {}).unwrap();
        e.create_hyperedge("walk", &[a, b, c], props! {}).unwrap();
        assert!(e.adjacent(a, c).unwrap());
    }

    #[test]
    fn cardinality_constraint() {
        let mut e = open();
        e.define_node_type(NodeTypeDef::new("Person")).unwrap();
        e.define_node_type(NodeTypeDef::new("Company")).unwrap();
        e.define_edge_type(
            EdgeTypeDef::new("works_at")
                .between("Person", "Company")
                .cardinality(Cardinality::OneFromSource),
        )
        .unwrap();
        let p = e.create_node(Some("Person"), props! {}).unwrap();
        let c1 = e.create_node(Some("Company"), props! {}).unwrap();
        let c2 = e.create_node(Some("Company"), props! {}).unwrap();
        e.create_edge(p, c1, Some("works_at"), props! {}).unwrap();
        let err = e
            .create_edge(p, c2, Some("works_at"), props! {})
            .unwrap_err();
        assert!(err.to_string().contains("cardinality"));
    }

    #[test]
    fn analysis_functions() {
        let mut e = open();
        let a = e.create_node(Some("T"), props! {}).unwrap();
        let b = e.create_node(Some("T"), props! {}).unwrap();
        let c = e.create_node(Some("T"), props! {}).unwrap();
        e.create_edge(a, b, Some("r"), props! {}).unwrap();
        e.create_edge(b, c, Some("r"), props! {}).unwrap();
        e.create_edge(c, a, Some("r"), props! {}).unwrap();
        assert_eq!(e.analyze(AnalysisFunc::Triangles).unwrap(), Value::Int(1));
        assert_eq!(
            e.analyze(AnalysisFunc::ConnectedComponents).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn main_memory_profile() {
        let mut e = open();
        assert!(e.persist().unwrap_err().is_unsupported());
        let a = e.create_node(Some("T"), props! {}).unwrap();
        let b = e.create_node(Some("T"), props! {}).unwrap();
        assert!(e.shortest_path(a, b).unwrap_err().is_unsupported());
        assert!(e.k_neighborhood(a, 2).unwrap_err().is_unsupported());
    }

    #[test]
    fn walks_follow_edge_type_sequences() {
        let mut e = open();
        let a = e
            .create_node(Some("City"), props! { "name" => "a" })
            .unwrap();
        let b = e
            .create_node(Some("City"), props! { "name" => "b" })
            .unwrap();
        let c = e
            .create_node(Some("City"), props! { "name" => "c" })
            .unwrap();
        let d = e
            .create_node(Some("City"), props! { "name" => "d" })
            .unwrap();
        e.create_edge(a, b, Some("road"), props! {}).unwrap();
        e.create_edge(b, c, Some("rail"), props! {}).unwrap();
        e.create_edge(a, d, Some("road"), props! {}).unwrap();
        e.create_edge(d, c, Some("rail"), props! {}).unwrap();
        let walks = e.model().walks(a, &["road", "rail"]).unwrap();
        assert_eq!(walks.len(), 2, "two road-then-rail walks from a");
        assert!(walks.iter().all(|w| w[0] == a && w[2] == c));
        // A type sequence nothing spells.
        assert!(e.model().walks(a, &["rail", "road"]).unwrap().is_empty());
        // The empty sequence is the trivial walk.
        assert_eq!(e.model().walks(a, &[]).unwrap(), vec![vec![a]]);
    }

    #[test]
    fn summarize_with_aggregates() {
        let mut e = open();
        e.create_node(Some("T"), props! { "x" => 1 }).unwrap();
        e.create_node(Some("T"), props! { "x" => 3 }).unwrap();
        assert_eq!(
            e.summarize(SummaryFunc::PropertyAggregate(
                gdm_algo::summary::Aggregate::Avg,
                "x"
            ))
            .unwrap(),
            Value::Float(2.0)
        );
    }
}

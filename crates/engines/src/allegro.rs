//! AllegroGraph emulation.
//!
//! The paper: "AllegroGraph is one of the precursors in the current
//! generation of graph databases. Although it was born as a graph
//! database, its current development is oriented to meet the Semantic
//! Web standards (i.e., RDF/S, SPARQL and OWL). Additionally,
//! AllegroGraph provides special features for GeoTemporal Reasoning
//! and Social Network Analysis." Profile: RDF triples (a simple
//! directed edge-labeled graph, Table III), SPARQL (`◦` in Table V),
//! Prolog-style reasoning (here: Datalog), analysis functions, all
//! three database languages plus API and GUI (Table II), main +
//! external memory with (triple) indexes (Table I).

use crate::engine::{Capability as C, Engine, Model, Profile};
use crate::facade::EngineDescriptor;
use gdm_core::{EdgeId, GdmError, GraphView, NodeId, PropertyMap, Result, Support, Value};
use gdm_govern::{ExecutionGuard, Limits};
use gdm_graphs::rdf::{RdfGraph, Term};
use gdm_query::datalog::Program;
use gdm_query::eval::ResultSet;
use gdm_query::lex::{Cursor, TokenKind};
use gdm_query::sparql;
use gdm_storage::HashIndex;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// AllegroGraph's row of the paper's tables.
pub static PROFILE: Profile = Profile::new(
    EngineDescriptor {
        name: "AllegroGraph",
        gui: Support::Full,
        graphical_ql: Support::Full,
        backend_storage: Support::None,
        blurb: "RDF store meeting Semantic Web standards; SPARQL, reasoning, SNA features",
    },
    // A server-class triple store: generous operator defaults, on the
    // SPARQL-endpoint-timeout model.
    Limits {
        deadline: Some(Duration::from_secs(30)),
        max_node_visits: Some(10_000_000),
        max_edge_visits: None,
        max_rows: None,
    },
    &[
        (
            &[C::NodeLabels],
            "node type labels (RDF resources are untyped identities)",
        ),
        (
            &[C::NodeProperties],
            "node attributes (RDF expresses values as triples)",
        ),
        (
            &[C::EdgeProperties],
            "edge attributes (no triple reification)",
        ),
        (&[C::Hyperedges], "hyperedges"),
        (&[C::EdgesOnEdges], "edges between edges"),
        (&[C::NestedGraphs], "nested graphs"),
        (
            &[C::SetNodeAttribute],
            "node attributes (use triples with literal objects)",
        ),
        (&[C::SetEdgeAttribute], "edge attributes"),
        (&[C::ReadNodeAttribute], "node attributes"),
        (
            &[C::NodeTypes],
            "node type schemas (RDF Schema is out of scope)",
        ),
        (&[C::EdgeTypes], "edge type schemas"),
        (&C::CONSTRAINTS, "integrity constraints"),
        (&[C::Explain], "explain"),
        (
            &[C::KNeighborhood],
            "k-neighborhood through the API (SPARQL has no transitive paths)",
        ),
        (&[C::FixedLengthPaths], "fixed-length path queries"),
        (
            &[C::RegularPaths],
            "regular path queries (SPARQL 1.0 lacks property paths)",
        ),
        (
            &[C::ShortestPath],
            "shortest path as an essential query (exposed via SNA analysis)",
        ),
    ],
);

/// The AllegroGraph emulation. [`Engine::view`] is the triple store,
/// for SPARQL-level access.
pub type AllegroEngine = Engine<Allegro>;

/// Opens (or creates) the store under `dir`.
pub fn open(dir: &Path) -> Result<AllegroEngine> {
    let triples_path = dir.join("allegro.nt");
    let mut rdf = RdfGraph::new();
    let mut next_node = 0;
    if triples_path.exists() {
        for line in std::fs::read_to_string(&triples_path)?.lines() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let (Some(s), Some(p), Some(o)) = (parts.next(), parts.next(), parts.next()) else {
                return Err(GdmError::Storage("bad triple line".into()));
            };
            rdf.add(&decode_term(s)?, &decode_term(p)?, &decode_term(o)?)?;
        }
        // Recover the node counter from minted node IRIs.
        for (s, _, o) in rdf.match_terms(None, None, None) {
            for t in [s, o] {
                if let Term::Iri(iri) = &t {
                    if let Some(n) = iri.strip_prefix("node:") {
                        if let Ok(v) = n.parse::<u64>() {
                            next_node = next_node.max(v + 1);
                        }
                    }
                }
            }
        }
    }
    Ok(Engine::new(
        &PROFILE,
        Allegro {
            rdf,
            next_node,
            triples_path,
        },
    ))
}

/// AllegroGraph's substrate: an RDF triple store. Pattern matching —
/// which SPARQL *is* — runs the planned matcher over the triple view,
/// seeding constrained variables from whatever indexes it exposes.
pub struct Allegro {
    rdf: RdfGraph,
    next_node: u64,
    triples_path: PathBuf,
}

impl Allegro {
    fn term_of(&self, n: NodeId) -> Result<Term> {
        u32::try_from(n.raw())
            .ok()
            .and_then(|id| self.rdf.term(id))
            .cloned()
            .ok_or_else(|| GdmError::NotFound(format!("term {n}")))
    }
}

fn encode_term(t: &Term) -> String {
    match t {
        Term::Iri(s) => format!("I{s}"),
        Term::Literal(s) => format!("L{s}"),
        Term::Blank(n) => format!("B{n}"),
    }
}

fn decode_term(s: &str) -> Result<Term> {
    let (tag, rest) = s.split_at(1);
    Ok(match tag {
        "I" => Term::Iri(rest.to_owned()),
        "L" => Term::Literal(rest.to_owned()),
        "B" => Term::Blank(
            rest.parse()
                .map_err(|_| GdmError::Storage("bad blank node id".into()))?,
        ),
        _ => return Err(GdmError::Storage(format!("bad term tag {tag:?}"))),
    })
}

impl Model for Allegro {
    type Graph = RdfGraph;
    type Index = HashIndex; // never built: see `build_index`
    type Saved = RdfGraph;

    fn graph(&self) -> &RdfGraph {
        &self.rdf
    }

    /// RDF nodes exist by incidence: an interned term that no triple
    /// mentions is not part of the graph view, so a freshly minted
    /// node stays out of the snapshot delta until an edge uses it, and
    /// a neighbour left without statements vanishes with the node
    /// whose deletion took them.
    fn is_visible(&self, n: NodeId) -> bool {
        let mut seen = false;
        self.rdf.visit_out_edges(n, &mut |_| seen = true);
        if !seen {
            self.rdf.visit_in_edges(n, &mut |_| seen = true);
        }
        seen
    }

    fn create_node(&mut self, _label: Option<&str>, _props: PropertyMap) -> Result<NodeId> {
        let iri = Term::iri(format!("node:{}", self.next_node));
        self.next_node += 1;
        Ok(NodeId(u64::from(self.rdf.intern(&iri))))
    }

    fn create_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: Option<&str>,
        _props: PropertyMap,
    ) -> Result<EdgeId> {
        let label = label.ok_or_else(|| {
            GdmError::InvalidArgument("RDF statements require a predicate".into())
        })?;
        let s = self.term_of(from)?;
        let o = self.term_of(to)?;
        self.rdf.add(&s, &Term::iri(label), &o)
    }

    fn delete_node(&mut self, n: NodeId) -> Result<()> {
        // Remove every statement mentioning the resource.
        let term = self.term_of(n)?;
        for (s, p, o) in self.rdf.match_terms(Some(&term), None, None) {
            self.rdf.remove(&s, &p, &o);
        }
        for (s, p, o) in self.rdf.match_terms(None, None, Some(&term)) {
            self.rdf.remove(&s, &p, &o);
        }
        Ok(())
    }

    fn delete_edge(&mut self, _e: EdgeId) -> Result<()> {
        Err(GdmError::InvalidArgument(
            "AllegroGraph deletes statements by (s, p, o); use the DML interface".into(),
        ))
    }

    fn execute_ddl(engine: &mut AllegroEngine, statement: &str) -> Result<()> {
        // DDL: `DEFINE PREDICATE <iri>` — registers a predicate by
        // asserting its self-description, the RDF idiom for schema.
        let mut c = Cursor::lex("allegro-ddl", statement, true)?;
        c.expect_keyword("define")?;
        c.expect_keyword("predicate")?;
        let pred = match c.bump() {
            TokenKind::AngleQuoted(iri) => iri,
            TokenKind::Ident(name) => name,
            other => {
                return Err(GdmError::InvalidArgument(format!(
                    "expected predicate IRI, found {other:?}"
                )))
            }
        };
        // Statements name terms, not node ids, so they write the
        // triple store untracked.
        engine.model_mut().rdf.add(
            &Term::iri(pred),
            &Term::iri("rdf:type"),
            &Term::iri("rdf:Property"),
        )?;
        Ok(())
    }

    fn execute_dml(engine: &mut AllegroEngine, statement: &str) -> Result<()> {
        // DML: `ADD s p o` / `DELETE s p o` with IRIs or literals.
        let mut c = Cursor::lex("allegro-dml", statement, true)?;
        let add = if c.eat_keyword("add") {
            true
        } else if c.eat_keyword("delete") {
            false
        } else {
            return Err(GdmError::InvalidArgument("expected ADD or DELETE".into()));
        };
        let term = |c: &mut Cursor| -> Result<Term> {
            Ok(match c.bump() {
                TokenKind::AngleQuoted(iri) => Term::Iri(iri),
                TokenKind::Ident(name) => Term::Iri(name),
                TokenKind::Str(s) => Term::Literal(s),
                TokenKind::Int(i) => Term::Literal(i.to_string()),
                other => {
                    return Err(GdmError::InvalidArgument(format!(
                        "expected term, found {other:?}"
                    )))
                }
            })
        };
        let s = term(&mut c)?;
        let p = term(&mut c)?;
        let o = term(&mut c)?;
        let rdf = &mut engine.model_mut().rdf;
        if add {
            rdf.add(&s, &p, &o)?;
        } else {
            rdf.remove(&s, &p, &o);
        }
        Ok(())
    }

    /// SPARQL, matched by the planned matcher under the profile's
    /// limits.
    fn execute_query(engine: &mut AllegroEngine, query: &str) -> Result<ResultSet> {
        let guard = ExecutionGuard::new(PROFILE.limits);
        sparql::evaluate(engine.view(), &sparql::parse(query)?, &guard)
    }

    fn reason(&self, rules: &str, goal: &str) -> Result<Vec<Vec<String>>> {
        let mut program = Program::new();
        program.load_rdf(&self.rdf);
        program.add_rules(rules)?;
        program.evaluate();
        program.query_str(goal)
    }

    /// A property is a predicate with literal objects.
    fn property_values(&self, key: &str) -> Vec<Value> {
        self.rdf
            .match_terms(None, Some(&Term::iri(key)), None)
            .into_iter()
            .filter_map(|(_, _, o)| matches!(o, Term::Literal(_)).then(|| o.value()))
            .collect()
    }

    fn scan_property(&self, key: &str, value: &Value) -> Vec<NodeId> {
        let literal = Term::Literal(value.to_string());
        let mut ids: Vec<NodeId> = self
            .rdf
            .match_terms(None, Some(&Term::iri(key)), Some(&literal))
            .into_iter()
            .filter_map(|(s, _, _)| self.rdf.term_id(&s).map(|id| NodeId(u64::from(id))))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The triple store maintains SPO/POS/OSP indexes permanently;
    /// predicate "indexes" are implicit and `scan_property` uses them.
    fn build_index(&self, _key: &str) -> Option<HashIndex> {
        None
    }

    fn save(&self) -> RdfGraph {
        self.rdf.clone()
    }

    fn restore(&mut self, saved: RdfGraph) {
        self.rdf = saved;
    }

    fn persist(&mut self) -> Result<()> {
        let mut out = String::new();
        for (s, p, o) in self.rdf.match_terms(None, None, None) {
            out.push_str(&encode_term(&s));
            out.push('\t');
            out.push_str(&encode_term(&p));
            out.push('\t');
            out.push_str(&encode_term(&o));
            out.push('\n');
        }
        std::fs::write(&self.triples_path, out)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{AnalysisFunc, GraphEngine};

    fn temp_engine(tag: &str) -> AllegroEngine {
        let dir = std::env::temp_dir().join(format!("gdm-ag-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        open(&dir).unwrap()
    }

    #[test]
    fn facade_nodes_are_minted_iris() {
        let mut e = temp_engine("mint");
        let a = e.create_node(None, PropertyMap::new()).unwrap();
        let b = e.create_node(None, PropertyMap::new()).unwrap();
        e.create_edge(a, b, Some("knows"), PropertyMap::new())
            .unwrap();
        assert!(e.adjacent(a, b).unwrap());
        assert_eq!(GraphEngine::edge_count(&e), 1);
        // RDF model refusals.
        assert!(e
            .create_node(Some("Person"), PropertyMap::new())
            .unwrap_err()
            .is_unsupported());
        assert!(e.create_edge(a, b, None, PropertyMap::new()).is_err());
    }

    #[test]
    fn sparql_and_dml() {
        let mut e = temp_engine("sparql");
        e.execute_dml("ADD <ana> <parent> <ben>").unwrap();
        e.execute_dml("ADD <ben> <parent> <cleo>").unwrap();
        e.execute_dml("ADD <ana> <age> '62'").unwrap();
        let rs = e
            .execute_query("SELECT ?gc WHERE { <ana> <parent> ?c . ?c <parent> ?gc }")
            .unwrap();
        assert_eq!(rs.rows[0][0].as_str(), Some("cleo"));
        e.execute_dml("DELETE <ana> <parent> <ben>").unwrap();
        let rs = e
            .execute_query("SELECT (COUNT(*) AS ?n) WHERE { ?x <parent> ?y }")
            .unwrap();
        assert_eq!(rs.get(0, "n"), Some(&Value::Int(1)));
    }

    #[test]
    fn reasoning() {
        let mut e = temp_engine("reason");
        e.execute_dml("ADD <ana> <parent> <ben>").unwrap();
        e.execute_dml("ADD <ben> <parent> <cleo>").unwrap();
        let rows = e
            .reason(
                "ancestor(X, Y) :- parent(X, Y).\n\
                 ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
                "ancestor(ana, X)",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn analysis_functions() {
        let mut e = temp_engine("sna");
        for (s, o) in [("a", "b"), ("b", "c"), ("c", "a")] {
            e.execute_dml(&format!("ADD <{s}> <knows> <{o}>")).unwrap();
        }
        assert_eq!(e.analyze(AnalysisFunc::Triangles).unwrap(), Value::Int(1));
        assert_eq!(
            e.analyze(AnalysisFunc::ConnectedComponents).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn pattern_matching_over_triples() {
        let mut e = temp_engine("pattern");
        e.execute_dml("ADD <a> <r> <b>").unwrap();
        e.execute_dml("ADD <b> <r> <c>").unwrap();
        let mut p = gdm_algo::pattern::Pattern::new();
        let x = p.node(gdm_algo::pattern::PatternNode::var("x"));
        let y = p.node(gdm_algo::pattern::PatternNode::var("y"));
        p.edge(x, y, Some("r")).unwrap();
        assert_eq!(e.pattern_match(&p).unwrap(), 2);
    }

    #[test]
    fn ddl_and_lookup() {
        let mut e = temp_engine("ddl");
        e.execute_ddl("DEFINE PREDICATE <age>").unwrap();
        e.execute_dml("ADD <ana> <age> '62'").unwrap();
        e.execute_dml("ADD <ben> <age> '35'").unwrap();
        e.create_index("age").unwrap();
        let hits = e.lookup_by_property("age", &Value::from("62")).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn persistence() {
        let dir = std::env::temp_dir().join(format!("gdm-ag-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut e = open(&dir).unwrap();
            e.execute_dml("ADD <ana> <parent> <ben>").unwrap();
            e.execute_dml("ADD <ana> <name> 'Ana'").unwrap();
            e.persist().unwrap();
        }
        {
            let mut e = open(&dir).unwrap();
            assert_eq!(GraphEngine::edge_count(&e), 2);
            let rs = e
                .execute_query("SELECT ?x WHERE { ?x <parent> <ben> }")
                .unwrap();
            assert_eq!(rs.rows[0][0].as_str(), Some("ana"));
            // New facade nodes continue after reload without clashing.
            let n = e.create_node(None, PropertyMap::new()).unwrap();
            assert!(e.view().term(n.raw() as u32).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

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

use crate::facade::{AnalysisFunc, EngineDescriptor, GraphEngine, SummaryFunc};
use gdm_algo::adjacency::nodes_adjacent;
use gdm_algo::analysis;
use gdm_algo::planned::{auto_domains, match_pattern_seeded};
use gdm_algo::summary;
use gdm_core::{
    DeltaTracker, EdgeId, GdmError, GraphView, NodeId, PropertyMap, Result, Support, Value,
};
use gdm_graphs::rdf::{RdfGraph, Term};
use gdm_query::datalog::Program;
use gdm_query::eval::ResultSet;
use gdm_query::lex::{Cursor, TokenKind};
use gdm_query::sparql;
use std::cell::RefCell;
use std::path::{Path, PathBuf};

const NAME: &str = "AllegroGraph";

/// The AllegroGraph emulation.
pub struct AllegroEngine {
    rdf: RdfGraph,
    next_node: u64,
    triples_path: PathBuf,
    tx_snapshot: Option<RdfGraph>,
    /// Mutations since the last snapshot, for the O(changes)
    /// incremental re-freeze. `RefCell` because snapshots are taken
    /// through `&self` yet must reset the tracker (engines are not
    /// `Send`, so this is uncontended).
    delta: RefCell<DeltaTracker>,
}

impl AllegroEngine {
    /// Opens (or creates) the store under `dir`.
    pub fn open(dir: &Path) -> Result<Self> {
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
        Ok(Self {
            rdf,
            next_node,
            triples_path,
            tx_snapshot: None,
            delta: RefCell::new(DeltaTracker::new()),
        })
    }

    /// Direct triple interface (the RDF-native API). Bypasses the
    /// facade's per-node tracking, so it degrades the next re-freeze
    /// to a full one.
    pub fn add_triple(&mut self, s: &Term, p: &Term, o: &Term) -> Result<EdgeId> {
        self.delta.get_mut().mark_all();
        self.rdf.add(s, p, o)
    }

    /// The triple store, for SPARQL-level access in examples.
    pub fn rdf(&self) -> &RdfGraph {
        &self.rdf
    }

    /// Mutable triple store access. Untracked, so it degrades the
    /// next re-freeze to a full one.
    pub fn rdf_mut(&mut self) -> &mut RdfGraph {
        self.delta.get_mut().mark_all();
        &mut self.rdf
    }

    fn term_of(&self, n: NodeId) -> Result<Term> {
        self.rdf
            .term(n.raw() as u32)
            .cloned()
            .ok_or_else(|| GdmError::NotFound(format!("term {n}")))
    }

    fn unsupported<T>(&self, feature: &str) -> Result<T> {
        Err(GdmError::unsupported(NAME, feature.to_owned()))
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

impl GraphEngine for AllegroEngine {
    fn name(&self) -> &'static str {
        NAME
    }

    fn descriptor(&self) -> EngineDescriptor {
        EngineDescriptor {
            name: NAME,
            gui: Support::Full,
            graphical_ql: Support::Full,
            query_language_grade: Support::Partial,
            backend_storage: Support::None,
            blurb: "RDF store meeting Semantic Web standards; SPARQL, reasoning, SNA features",
        }
    }

    fn create_node(&mut self, label: Option<&str>, props: PropertyMap) -> Result<NodeId> {
        if label.is_some() {
            return self.unsupported("node type labels (RDF resources are untyped identities)");
        }
        if !props.is_empty() {
            return self.unsupported("node attributes (RDF expresses values as triples)");
        }
        let iri = Term::iri(format!("node:{}", self.next_node));
        self.next_node += 1;
        let id = self.rdf.intern(&iri);
        // Not tracked: an interned term with no triples is invisible
        // to the graph view (RDF nodes exist by incidence), so the
        // snapshot delta must not mention it until an edge does.
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
            GdmError::InvalidArgument("RDF statements require a predicate".into())
        })?;
        if !props.is_empty() {
            return self.unsupported("edge attributes (no triple reification)");
        }
        let s = self.term_of(from)?;
        let o = self.term_of(to)?;
        let e = self.rdf.add(&s, &Term::iri(label), &o)?;
        self.delta.get_mut().touch_node(from.raw());
        self.delta.get_mut().touch_node(to.raw());
        Ok(e)
    }

    fn create_hyperedge(
        &mut self,
        _label: &str,
        _targets: &[NodeId],
        _props: PropertyMap,
    ) -> Result<EdgeId> {
        self.unsupported("hyperedges")
    }

    fn create_edge_on_edge(&mut self, _from: EdgeId, _to: NodeId, _label: &str) -> Result<EdgeId> {
        self.unsupported("edges between edges")
    }

    fn nest_subgraph(&mut self, _node: NodeId) -> Result<()> {
        self.unsupported("nested graphs")
    }

    fn set_node_attribute(&mut self, _n: NodeId, _key: &str, _value: Value) -> Result<()> {
        self.unsupported("node attributes (use triples with literal objects)")
    }

    fn set_edge_attribute(&mut self, _e: EdgeId, _key: &str, _value: Value) -> Result<()> {
        self.unsupported("edge attributes")
    }

    fn node_attribute(&self, _n: NodeId, _key: &str) -> Result<Option<Value>> {
        self.unsupported("node attributes")
    }

    fn delete_node(&mut self, n: NodeId) -> Result<()> {
        // Remove every statement mentioning the resource.
        let term = self.term_of(n)?;
        let mut neighbors: Vec<NodeId> = Vec::new();
        self.rdf.visit_out_edges(n, &mut |e| neighbors.push(e.to));
        self.rdf.visit_in_edges(n, &mut |e| neighbors.push(e.from));
        for (s, p, o) in self.rdf.match_terms(Some(&term), None, None) {
            self.rdf.remove(&s, &p, &o);
        }
        for (s, p, o) in self.rdf.match_terms(None, None, Some(&term)) {
            self.rdf.remove(&s, &p, &o);
        }
        // RDF nodes exist by triple incidence, so a neighbour left
        // with no statements vanished from the view along with `n` —
        // the delta must record it as removed, not merely dirty.
        let survived: Vec<(NodeId, bool)> = neighbors
            .iter()
            .filter(|&&b| b != n)
            .map(|&b| {
                let mut still = false;
                self.rdf.visit_out_edges(b, &mut |_| still = true);
                if !still {
                    self.rdf.visit_in_edges(b, &mut |_| still = true);
                }
                (b, still)
            })
            .collect();
        let tracker = self.delta.get_mut();
        tracker.remove_node(n.raw());
        for (b, still) in survived {
            if still {
                tracker.touch_node(b.raw());
            } else {
                tracker.remove_node(b.raw());
            }
        }
        Ok(())
    }

    fn delete_edge(&mut self, _e: EdgeId) -> Result<()> {
        Err(GdmError::InvalidArgument(
            "AllegroGraph deletes statements by (s, p, o); use the DML interface".into(),
        ))
    }

    fn node_count(&self) -> usize {
        GraphView::node_count(&self.rdf)
    }

    fn edge_count(&self) -> usize {
        self.rdf.len()
    }

    fn define_node_type(&mut self, _def: gdm_schema::NodeTypeDef) -> Result<()> {
        self.unsupported("node type schemas (RDF Schema is out of scope)")
    }

    fn define_edge_type(&mut self, _def: gdm_schema::EdgeTypeDef) -> Result<()> {
        self.unsupported("edge type schemas")
    }

    fn install_constraint(&mut self, _c: gdm_schema::Constraint) -> Result<()> {
        self.unsupported("integrity constraints")
    }

    fn execute_ddl(&mut self, statement: &str) -> Result<()> {
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
        self.rdf.add(
            &Term::iri(pred),
            &Term::iri("rdf:type"),
            &Term::iri("rdf:Property"),
        )?;
        // The self-description triple makes the predicate term a
        // subject — node ids the tracker never saw.
        self.delta.get_mut().mark_all();
        Ok(())
    }

    fn execute_dml(&mut self, statement: &str) -> Result<()> {
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
        if add {
            self.rdf.add(&s, &p, &o)?;
        } else {
            self.rdf.remove(&s, &p, &o);
        }
        // Statement-level DML names terms, not node ids; the tracker
        // cannot attribute the change, so the next re-freeze is full.
        self.delta.get_mut().mark_all();
        Ok(())
    }

    fn execute_query(&mut self, query: &str) -> Result<ResultSet> {
        sparql::query(&self.rdf, query)
    }

    fn reason(&mut self, rules: &str, goal: &str) -> Result<Vec<Vec<String>>> {
        let mut program = Program::new();
        program.load_rdf(&self.rdf);
        program.add_rules(rules)?;
        program.evaluate();
        program.query_str(goal)
    }

    fn analyze(&self, func: AnalysisFunc) -> Result<Value> {
        Ok(match func {
            AnalysisFunc::ConnectedComponents => {
                Value::Int(analysis::connected_components(&self.rdf).len() as i64)
            }
            AnalysisFunc::Triangles => Value::Int(analysis::triangle_count(&self.rdf) as i64),
            AnalysisFunc::AverageClustering => analysis::average_clustering(&self.rdf)
                .map(Value::Float)
                .unwrap_or(Value::Null),
            AnalysisFunc::TopDegreeNode => analysis::degree_centrality(&self.rdf, 1)
                .first()
                .map(|(n, _)| Value::Int(n.raw() as i64))
                .unwrap_or(Value::Null),
        })
    }

    fn adjacent(&self, a: NodeId, b: NodeId) -> Result<bool> {
        Ok(nodes_adjacent(&self.rdf, a, b))
    }

    fn k_neighborhood(&self, _n: NodeId, _k: usize) -> Result<Vec<NodeId>> {
        self.unsupported("k-neighborhood through the API (SPARQL has no transitive paths)")
    }

    fn fixed_length_paths(&self, _a: NodeId, _b: NodeId, _len: usize) -> Result<usize> {
        self.unsupported("fixed-length path queries")
    }

    fn regular_path(&self, _a: NodeId, _b: NodeId, _expr: &str) -> Result<bool> {
        self.unsupported("regular path queries (SPARQL 1.0 lacks property paths)")
    }

    fn shortest_path(&self, _a: NodeId, _b: NodeId) -> Result<Option<Vec<NodeId>>> {
        self.unsupported("shortest path as an essential query (exposed via SNA analysis)")
    }

    fn pattern_match(&self, pattern: &gdm_algo::pattern::Pattern) -> Result<usize> {
        // SPARQL *is* graph pattern matching; the structural probe
        // runs the planned matcher over the triple view, seeding
        // constrained variables from whatever indexes it exposes.
        let domains = auto_domains(&self.rdf, pattern);
        let guard = gdm_govern::ExecutionGuard::unlimited();
        Ok(match_pattern_seeded(&self.rdf, pattern, &domains, &guard)?.len())
    }

    fn snapshot(&self) -> Result<gdm_algo::FrozenGraph> {
        let fz = gdm_algo::FrozenGraph::freeze_attributed(&self.rdf);
        self.delta.borrow_mut().reset(fz.epoch());
        Ok(fz)
    }

    fn pending_changes(&self) -> u64 {
        self.delta.borrow().peek().pending_hint()
    }

    fn refreeze(&self, prev: &gdm_algo::FrozenGraph) -> Result<gdm_algo::FrozenGraph> {
        let delta = self.delta.borrow().peek().clone();
        let next = gdm_algo::incremental_refreeze(&self.rdf, prev, &delta);
        self.delta.borrow_mut().reset(next.epoch());
        Ok(next)
    }

    fn default_limits(&self) -> gdm_govern::Limits {
        // A server-class triple store: generous operator defaults, on
        // the SPARQL-endpoint-timeout model.
        gdm_govern::Limits::none()
            .with_deadline(std::time::Duration::from_secs(30))
            .with_node_visits(10_000_000)
    }

    fn summarize(&self, func: SummaryFunc) -> Result<Value> {
        Ok(match func {
            SummaryFunc::PropertyAggregate(agg, key) => {
                // Aggregate over literal objects of the given predicate.
                let pred = Term::iri(key);
                let values: Vec<Value> = self
                    .rdf
                    .match_terms(None, Some(&pred), None)
                    .into_iter()
                    .filter_map(|(_, _, o)| match o {
                        Term::Literal(s) => Some(
                            s.parse::<i64>()
                                .map(Value::Int)
                                .or_else(|_| s.parse::<f64>().map(Value::Float))
                                .unwrap_or(Value::Str(s)),
                        ),
                        _ => None,
                    })
                    .collect();
                summary::aggregate(agg, &values)?
            }
            other => crate::vertexdb::summarize_simple(&self.rdf, other, NAME)?,
        })
    }

    fn begin_transaction(&mut self) -> Result<()> {
        if self.tx_snapshot.is_some() {
            return Err(GdmError::InvalidArgument("transaction already open".into()));
        }
        self.tx_snapshot = Some(self.rdf.clone());
        Ok(())
    }

    fn commit_transaction(&mut self) -> Result<()> {
        self.tx_snapshot
            .take()
            .map(|_| ())
            .ok_or_else(|| GdmError::InvalidArgument("no open transaction".into()))
    }

    fn rollback_transaction(&mut self) -> Result<()> {
        let snapshot = self
            .tx_snapshot
            .take()
            .ok_or_else(|| GdmError::InvalidArgument("no open transaction".into()))?;
        self.rdf = snapshot;
        // The rollback rewinds past everything tracked in the open
        // transaction; the tracker cannot un-record, so degrade.
        self.delta.get_mut().mark_all();
        Ok(())
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

    fn create_index(&mut self, _property: &str) -> Result<()> {
        // The triple store maintains SPO/POS/OSP indexes permanently;
        // predicate "indexes" are implicit.
        Ok(())
    }

    fn lookup_by_property(&self, key: &str, value: &Value) -> Result<Vec<NodeId>> {
        let literal = Term::Literal(value.to_string());
        let pred = Term::iri(key);
        let mut ids: Vec<NodeId> = self
            .rdf
            .match_terms(None, Some(&pred), Some(&literal))
            .into_iter()
            .filter_map(|(s, _, _)| self.rdf.term_id(&s).map(|id| NodeId(u64::from(id))))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_engine(tag: &str) -> AllegroEngine {
        let dir = std::env::temp_dir().join(format!("gdm-ag-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        AllegroEngine::open(&dir).unwrap()
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
            let mut e = AllegroEngine::open(&dir).unwrap();
            e.execute_dml("ADD <ana> <parent> <ben>").unwrap();
            e.execute_dml("ADD <ana> <name> 'Ana'").unwrap();
            e.persist().unwrap();
        }
        {
            let mut e = AllegroEngine::open(&dir).unwrap();
            assert_eq!(GraphEngine::edge_count(&e), 2);
            let rs = e
                .execute_query("SELECT ?x WHERE { ?x <parent> <ben> }")
                .unwrap();
            assert_eq!(rs.rows[0][0].as_str(), Some("ana"));
            // New facade nodes continue after reload without clashing.
            let n = e.create_node(None, PropertyMap::new()).unwrap();
            assert!(e.rdf().term(n.raw() as u32).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_refusals() {
        let mut e = temp_engine("refuse");
        let a = e.create_node(None, PropertyMap::new()).unwrap();
        let b = e.create_node(None, PropertyMap::new()).unwrap();
        assert!(e.k_neighborhood(a, 2).unwrap_err().is_unsupported());
        assert!(e.shortest_path(a, b).unwrap_err().is_unsupported());
        assert!(e
            .set_node_attribute(a, "k", Value::from(1))
            .unwrap_err()
            .is_unsupported());
        assert!(e
            .install_constraint(gdm_schema::Constraint::ReferentialIntegrity)
            .unwrap_err()
            .is_unsupported());
    }
}

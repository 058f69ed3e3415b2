//! RDF triple graphs.
//!
//! AllegroGraph's model: "statements of the form
//! subject-predicate-object". Terms are IRIs, literals, or blank
//! nodes; triples are indexed three ways (SPO, POS, OSP) so any
//! pattern with bound positions resolves through an index scan — the
//! classic triple-store layout.
//!
//! As a [`GraphView`], every term is a node (literals are the paper's
//! *value nodes*), every triple is a directed labeled edge, and the
//! predicate term doubles as the edge label symbol.

use gdm_core::{EdgeId, EdgeRef, FxHashMap, GdmError, GraphView, NodeId, Result, Symbol, Value};
use std::collections::BTreeSet;

/// An RDF term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A resource identifier.
    Iri(String),
    /// A literal value (plain, no datatype machinery).
    Literal(String),
    /// An anonymous node.
    Blank(u64),
}

impl Term {
    /// Convenience IRI constructor.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Convenience literal constructor.
    pub fn lit(s: impl Into<String>) -> Self {
        Term::Literal(s.into())
    }

    /// Text form used for display and edge labels.
    pub fn text(&self) -> String {
        match self {
            Term::Iri(s) => s.clone(),
            Term::Literal(s) => format!("\"{s}\""),
            Term::Blank(n) => format!("_:b{n}"),
        }
    }

    /// The term as a comparable [`Value`]: a numeric literal is a
    /// number, any other term its text (a literal's unquoted).
    pub fn value(&self) -> Value {
        match self {
            Term::Literal(s) => s
                .parse::<i64>()
                .map(Value::Int)
                .or_else(|_| s.parse::<f64>().map(Value::Float))
                .unwrap_or_else(|_| Value::Str(s.clone())),
            other => Value::Str(other.text()),
        }
    }

    /// True for terms allowed in subject position (no literals).
    pub fn is_resource(&self) -> bool {
        !matches!(self, Term::Literal(_))
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text())
    }
}

/// A triple pattern position: bound to a term or a wildcard.
pub type TermPattern<'a> = Option<&'a Term>;

/// A stored triple identifier.
pub type TripleId = EdgeId;

/// An indexed set of RDF triples.
#[derive(Debug, Clone, Default)]
pub struct RdfGraph {
    terms: Vec<Term>,
    term_ids: FxHashMap<Term, u32>,
    /// Per term, how many subject and object positions of stored
    /// triples it fills: the view's nodes are the terms with a nonzero
    /// count.
    incidence: Vec<u32>,
    /// How many terms have a nonzero `incidence`.
    nodes: usize,
    /// Triple storage; `None` marks removed triples.
    triples: Vec<Option<(u32, u32, u32)>>,
    count: usize,
    /// Indexes carry the triple id as the last tuple element.
    spo: BTreeSet<(u32, u32, u32, u32)>,
    pos: BTreeSet<(u32, u32, u32, u32)>,
    osp: BTreeSet<(u32, u32, u32, u32)>,
    next_blank: u64,
}

impl RdfGraph {
    /// Creates an empty triple store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning its id.
    pub fn intern(&mut self, term: &Term) -> u32 {
        if let Some(&id) = self.term_ids.get(term) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.clone());
        self.term_ids.insert(term.clone(), id);
        self.incidence.push(0);
        id
    }

    /// Counts the subject and the object of a triple just added (or
    /// no longer counts them, for one just removed), keeping the node
    /// count in step.
    fn count_incidence(&mut self, s: u32, o: u32, added: bool) {
        for t in [s, o] {
            let count = &mut self.incidence[t as usize];
            if added {
                *count += 1;
                if *count == 1 {
                    self.nodes += 1;
                }
            } else {
                *count -= 1;
                if *count == 0 {
                    self.nodes -= 1;
                }
            }
        }
    }

    /// Returns the term stored under `id`.
    pub fn term(&self, id: u32) -> Option<&Term> {
        self.terms.get(id as usize)
    }

    /// Looks up a term's id without interning.
    pub fn term_id(&self, term: &Term) -> Option<u32> {
        self.term_ids.get(term).copied()
    }

    /// Mints a fresh blank node.
    pub fn fresh_blank(&mut self) -> Term {
        let t = Term::Blank(self.next_blank);
        self.next_blank += 1;
        t
    }

    /// Adds the triple `(s, p, o)`. Subjects and predicates must be
    /// resources. Duplicate triples are ignored (returns the existing
    /// id).
    pub fn add(&mut self, s: &Term, p: &Term, o: &Term) -> Result<TripleId> {
        if !s.is_resource() {
            return Err(GdmError::InvalidArgument(
                "literal in subject position".into(),
            ));
        }
        if !matches!(p, Term::Iri(_)) {
            return Err(GdmError::InvalidArgument("predicate must be an IRI".into()));
        }
        let si = self.intern(s);
        let pi = self.intern(p);
        let oi = self.intern(o);
        // Duplicate check through SPO.
        let existing = self
            .spo
            .range((si, pi, oi, 0)..=(si, pi, oi, u32::MAX))
            .next();
        if let Some(&(_, _, _, tid)) = existing {
            return Ok(EdgeId(u64::from(tid)));
        }
        let tid = self.triples.len() as u32;
        self.triples.push(Some((si, pi, oi)));
        self.spo.insert((si, pi, oi, tid));
        self.pos.insert((pi, oi, si, tid));
        self.osp.insert((oi, si, pi, tid));
        self.count += 1;
        self.count_incidence(si, oi, true);
        Ok(EdgeId(u64::from(tid)))
    }

    /// Removes the triple `(s, p, o)` if present.
    pub fn remove(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let (Some(si), Some(pi), Some(oi)) = (self.term_id(s), self.term_id(p), self.term_id(o))
        else {
            return false;
        };
        let found = self
            .spo
            .range((si, pi, oi, 0)..=(si, pi, oi, u32::MAX))
            .next()
            .copied();
        let Some((_, _, _, tid)) = found else {
            return false;
        };
        self.spo.remove(&(si, pi, oi, tid));
        self.pos.remove(&(pi, oi, si, tid));
        self.osp.remove(&(oi, si, pi, tid));
        self.triples[tid as usize] = None;
        self.count -= 1;
        self.count_incidence(si, oi, false);
        true
    }

    /// True when the exact triple is stored.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.term_id(s), self.term_id(p), self.term_id(o)) {
            (Some(si), Some(pi), Some(oi)) => self
                .spo
                .range((si, pi, oi, 0)..=(si, pi, oi, u32::MAX))
                .next()
                .is_some(),
            _ => false,
        }
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Matches a triple pattern, choosing the best index for the bound
    /// positions, and returns matching triples as term-id tuples.
    pub fn match_pattern(
        &self,
        s: TermPattern<'_>,
        p: TermPattern<'_>,
        o: TermPattern<'_>,
    ) -> Vec<(u32, u32, u32)> {
        // Resolve bound terms; an unknown bound term matches nothing.
        let resolve = |t: TermPattern<'_>| -> std::result::Result<Option<u32>, ()> {
            match t {
                None => Ok(None),
                Some(term) => match self.term_id(term) {
                    Some(id) => Ok(Some(id)),
                    None => Err(()),
                },
            }
        };
        let (Ok(s), Ok(p), Ok(o)) = (resolve(s), resolve(p), resolve(o)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        match (s, p, o) {
            (Some(si), Some(pi), Some(oi)) => {
                if self
                    .spo
                    .range((si, pi, oi, 0)..=(si, pi, oi, u32::MAX))
                    .next()
                    .is_some()
                {
                    out.push((si, pi, oi));
                }
            }
            (Some(si), Some(pi), None) => {
                for &(a, b, c, _) in self
                    .spo
                    .range((si, pi, 0, 0)..=(si, pi, u32::MAX, u32::MAX))
                {
                    out.push((a, b, c));
                }
            }
            (Some(si), None, Some(oi)) => {
                for &(a, b, c, _) in self
                    .osp
                    .range((oi, si, 0, 0)..=(oi, si, u32::MAX, u32::MAX))
                {
                    out.push((b, c, a));
                }
            }
            (Some(si), None, None) => {
                for &(a, b, c, _) in self
                    .spo
                    .range((si, 0, 0, 0)..=(si, u32::MAX, u32::MAX, u32::MAX))
                {
                    out.push((a, b, c));
                }
            }
            (None, Some(pi), Some(oi)) => {
                for &(a, b, c, _) in self
                    .pos
                    .range((pi, oi, 0, 0)..=(pi, oi, u32::MAX, u32::MAX))
                {
                    out.push((c, a, b));
                }
            }
            (None, Some(pi), None) => {
                for &(a, b, c, _) in self
                    .pos
                    .range((pi, 0, 0, 0)..=(pi, u32::MAX, u32::MAX, u32::MAX))
                {
                    out.push((c, a, b));
                }
            }
            (None, None, Some(oi)) => {
                for &(a, b, c, _) in self
                    .osp
                    .range((oi, 0, 0, 0)..=(oi, u32::MAX, u32::MAX, u32::MAX))
                {
                    out.push((b, c, a));
                }
            }
            (None, None, None) => {
                for &(a, b, c, _) in &self.spo {
                    out.push((a, b, c));
                }
            }
        }
        out
    }

    /// The predicates of the triples from term `s` to term `o`, by term
    /// id, ascending.
    pub fn predicates_between(&self, s: u32, o: u32) -> impl Iterator<Item = u32> + '_ {
        self.osp
            .range((o, s, 0, 0)..=(o, s, u32::MAX, u32::MAX))
            .map(|&(.., p, _)| p)
    }

    /// Matches a pattern and returns term triples (convenience).
    pub fn match_terms(
        &self,
        s: TermPattern<'_>,
        p: TermPattern<'_>,
        o: TermPattern<'_>,
    ) -> Vec<(Term, Term, Term)> {
        self.match_pattern(s, p, o)
            .into_iter()
            .map(|(a, b, c)| {
                (
                    self.terms[a as usize].clone(),
                    self.terms[b as usize].clone(),
                    self.terms[c as usize].clone(),
                )
            })
            .collect()
    }

    /// Distinct predicates in use.
    pub fn predicates(&self) -> Vec<&Term> {
        let mut last = None;
        let mut out = Vec::new();
        for &(p, ..) in &self.pos {
            if last != Some(p) {
                out.push(&self.terms[p as usize]);
                last = Some(p);
            }
        }
        out
    }
}

impl GraphView for RdfGraph {
    fn is_directed(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn edge_count(&self) -> usize {
        self.count
    }

    fn contains_node(&self, n: NodeId) -> bool {
        (n.raw() as usize) < self.terms.len()
    }

    /// The terms that are the subject or the object of a stored triple,
    /// ascending by id.
    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
        for (i, &count) in self.incidence.iter().enumerate() {
            if count > 0 {
                f(NodeId(i as u64));
            }
        }
    }

    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        let si = n.raw() as u32;
        for &(s, p, o, tid) in self
            .spo
            .range((si, 0, 0, 0)..=(si, u32::MAX, u32::MAX, u32::MAX))
        {
            debug_assert_eq!(s, si);
            f(EdgeRef {
                id: EdgeId(u64::from(tid)),
                from: n,
                to: NodeId(u64::from(o)),
                label: Some(Symbol(p)),
            });
        }
    }

    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        let oi = n.raw() as u32;
        for &(o, s, p, tid) in self
            .osp
            .range((oi, 0, 0, 0)..=(oi, u32::MAX, u32::MAX, u32::MAX))
        {
            debug_assert_eq!(o, oi);
            f(EdgeRef {
                id: EdgeId(u64::from(tid)),
                from: n,
                to: NodeId(u64::from(s)),
                label: Some(Symbol(p)),
            });
        }
    }

    fn label_text(&self, sym: Symbol) -> Option<&str> {
        match self.terms.get(sym.raw() as usize) {
            Some(Term::Iri(s)) => Some(s.as_str()),
            Some(Term::Literal(s)) => Some(s.as_str()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family() -> RdfGraph {
        let mut g = RdfGraph::new();
        let parent = Term::iri("parent");
        g.add(&Term::iri("ana"), &parent, &Term::iri("ben"))
            .unwrap();
        g.add(&Term::iri("ben"), &parent, &Term::iri("cleo"))
            .unwrap();
        g.add(&Term::iri("ana"), &Term::iri("name"), &Term::lit("Ana"))
            .unwrap();
        g
    }

    #[test]
    fn add_contains_remove() {
        let mut g = family();
        assert_eq!(g.len(), 3);
        let parent = Term::iri("parent");
        assert!(g.contains(&Term::iri("ana"), &parent, &Term::iri("ben")));
        assert!(g.remove(&Term::iri("ana"), &parent, &Term::iri("ben")));
        assert!(!g.contains(&Term::iri("ana"), &parent, &Term::iri("ben")));
        assert!(!g.remove(&Term::iri("ana"), &parent, &Term::iri("ben")));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn node_ids_are_the_visit_order() {
        let mut g = family();
        // `ben` stays a node through `cleo`; the predicates never are.
        g.remove(&Term::iri("ana"), &Term::iri("parent"), &Term::iri("ben"));
        let mut visited = Vec::new();
        g.visit_nodes(&mut |n| visited.push(n));
        let ids = g.node_ids();
        assert_eq!(ids, visited);
        assert_eq!(ids.len(), g.node_count());
        assert_eq!(ids.len(), 4); // ana, "Ana", ben, cleo
        assert!(ids.len() < g.terms.len());
        // A self-loop makes one node of its one term, and removing the
        // last triple on a term drops it.
        let eve = Term::iri("eve");
        g.add(&eve, &Term::iri("likes"), &eve).unwrap();
        assert_eq!(g.node_count(), 5);
        g.remove(&eve, &Term::iri("likes"), &eve);
        g.remove(&Term::iri("ben"), &Term::iri("parent"), &Term::iri("cleo"));
        assert_eq!(g.node_ids().len(), g.node_count());
        assert_eq!(g.node_count(), 2); // ana, "Ana"
    }

    #[test]
    fn duplicates_are_idempotent() {
        let mut g = RdfGraph::new();
        let t1 = g
            .add(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"))
            .unwrap();
        let t2 = g
            .add(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"))
            .unwrap();
        assert_eq!(t1, t2);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn pattern_matching_uses_all_shapes() {
        let g = family();
        let parent = Term::iri("parent");
        // (?, p, ?)
        assert_eq!(g.match_terms(None, Some(&parent), None).len(), 2);
        // (s, ?, ?)
        assert_eq!(g.match_terms(Some(&Term::iri("ana")), None, None).len(), 2);
        // (?, ?, o)
        assert_eq!(g.match_terms(None, None, Some(&Term::iri("cleo"))).len(), 1);
        // (s, p, ?)
        assert_eq!(
            g.match_terms(Some(&Term::iri("ben")), Some(&parent), None)
                .len(),
            1
        );
        // (s, ?, o)
        assert_eq!(
            g.match_terms(Some(&Term::iri("ana")), None, Some(&Term::iri("ben")))
                .len(),
            1
        );
        // (?, p, o)
        assert_eq!(
            g.match_terms(None, Some(&parent), Some(&Term::iri("ben")))
                .len(),
            1
        );
        // full scan
        assert_eq!(g.match_terms(None, None, None).len(), 3);
        // unknown bound term
        assert_eq!(g.match_terms(Some(&Term::iri("zoe")), None, None).len(), 0);
    }

    #[test]
    fn literals_cannot_be_subjects_or_predicates() {
        let mut g = RdfGraph::new();
        assert!(g
            .add(&Term::lit("x"), &Term::iri("p"), &Term::iri("y"))
            .is_err());
        assert!(g
            .add(&Term::iri("x"), &Term::lit("p"), &Term::iri("y"))
            .is_err());
        assert!(g
            .add(&Term::iri("x"), &Term::Blank(0), &Term::iri("y"))
            .is_err());
    }

    #[test]
    fn graph_view_over_triples() {
        let g = family();
        let ana = NodeId(u64::from(g.term_id(&Term::iri("ana")).unwrap()));
        let ben = NodeId(u64::from(g.term_id(&Term::iri("ben")).unwrap()));
        let out = g.out_edges(ana);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|e| e.to == ben));
        // Predicate doubles as label.
        let parent_edge = out
            .iter()
            .find(|e| g.label_text(e.label.unwrap()) == Some("parent"))
            .unwrap();
        assert_eq!(parent_edge.to, ben);
        assert_eq!(g.in_degree(ben), 1);
        // Literals are value nodes.
        assert_eq!(g.node_count(), 4); // ana, ben, cleo, "Ana"
    }

    #[test]
    fn predicates_listing() {
        let g = family();
        let names: Vec<String> = g.predicates().iter().map(|t| t.text()).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"parent".to_string()));
    }

    #[test]
    fn blank_nodes_are_fresh() {
        let mut g = RdfGraph::new();
        let b1 = g.fresh_blank();
        let b2 = g.fresh_blank();
        assert_ne!(b1, b2);
        g.add(&b1, &Term::iri("p"), &b2).unwrap();
        assert_eq!(g.len(), 1);
    }
}

//! The six integrity-constraint checkers of Table VI, over any
//! [`AttributedView`], each rule written once per entity: a node
//! conforms to its type, an edge conforms to its type and references
//! live nodes, an identity value is free, a node is within its labelled
//! degree. [`validate`] applies the rules to every entity; [`check_node`],
//! [`check_edge`] and [`check_deletion`] to what one write touches, so
//! a checked write costs what it touches, not the graph. Functional
//! dependencies and graph patterns, which no engine accepts, are checked
//! over the whole graph only.

use crate::schema::{Cardinality, PropertyType, Schema};
use gdm_algo::pattern::{match_pattern, Pattern};
use gdm_algo::ExecutionGuard;
use gdm_core::{
    AttributedView, EdgeId, EdgeRef, FxHashMap, GdmError, GraphView, NodeId, Result, Value,
};
use std::fmt;

/// Whether a graph-pattern constraint forbids or requires its pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// The pattern must not match anywhere.
    Forbidden,
    /// The pattern must match at least once.
    Required,
}

/// One integrity constraint (one Table VI column).
#[derive(Clone)]
pub enum Constraint {
    /// Instances must conform to the schema: known labels, declared
    /// properties present with the declared types, endpoint types and
    /// mandatory relations respected.
    TypeChecking(Schema),
    /// `property` uniquely identifies the nodes, and the edges, labelled
    /// `type_name`.
    Identity {
        /// Node or edge type the identity applies to.
        type_name: String,
        /// Identifying property.
        property: String,
    },
    /// Edges must reference live endpoints (always true for in-memory
    /// structures; meaningful for engines layering ids over storage,
    /// which validate against their id sets).
    ReferentialIntegrity,
    /// Edge-type cardinalities from the schema are respected.
    Cardinality(Schema),
    /// Within `type_name`, equal `determinant` values imply equal
    /// `dependent` values.
    FunctionalDependency {
        /// Node type the dependency ranges over.
        type_name: String,
        /// Determining property.
        determinant: String,
        /// Determined property.
        dependent: String,
    },
    /// A structural restriction expressed as a pattern.
    GraphPattern {
        /// Human-readable constraint name for reports.
        name: String,
        /// The pattern.
        pattern: Pattern,
        /// Forbidden or required.
        kind: PatternKind,
    },
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::TypeChecking(_) => write!(f, "TypeChecking"),
            Constraint::Identity {
                type_name,
                property,
            } => write!(f, "Identity({type_name}.{property})"),
            Constraint::ReferentialIntegrity => write!(f, "ReferentialIntegrity"),
            Constraint::Cardinality(_) => write!(f, "Cardinality"),
            Constraint::FunctionalDependency {
                type_name,
                determinant,
                dependent,
            } => write!(f, "FD({type_name}: {determinant} -> {dependent})"),
            Constraint::GraphPattern { name, kind, .. } => {
                write!(f, "GraphPattern({name}, {kind:?})")
            }
        }
    }
}

/// A reported constraint violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which constraint (Debug form).
    pub constraint: String,
    /// What went wrong.
    pub message: String,
    /// Offending nodes, when identifiable.
    pub nodes: Vec<NodeId>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.constraint, self.message)
    }
}

/// [`validate`] as a `Result`: the first violation, if any, as a
/// [`GdmError::Constraint`] — the form engines reject an update with.
pub fn check<G: AttributedView + ?Sized>(g: &G, constraints: &[Constraint]) -> Result<()> {
    Rules {
        g,
        out: validate(g, constraints),
    }
    .first()
}

/// Validates `g` against `constraints`, returning every violation.
pub fn validate<G: AttributedView + ?Sized>(g: &G, constraints: &[Constraint]) -> Vec<Violation> {
    let mut rules = Rules { g, out: Vec::new() };
    for c in constraints {
        match c {
            Constraint::TypeChecking(schema) => {
                g.visit_nodes(&mut |n| rules.node_conforms(schema, c, n, None));
                visit_all_edges(g, &mut |r| rules.edge_conforms(schema, c, r, None));
            }
            Constraint::Identity { .. } => {
                let mut holders = FxHashMap::default();
                g.visit_nodes(&mut |n| rules.identity_free(c, n, None, Some(&mut holders)));
                rules.edge_identities(c, None);
            }
            Constraint::ReferentialIntegrity => {
                visit_all_edges(g, &mut |r| rules.references_live(c, r))
            }
            Constraint::Cardinality(schema) => {
                g.visit_nodes(&mut |n| rules.degree_within(schema, c, n))
            }
            Constraint::FunctionalDependency {
                type_name,
                determinant,
                dependent,
            } => rules.fd(c, type_name, determinant, dependent),
            Constraint::GraphPattern {
                name,
                pattern,
                kind,
            } => rules.pattern(c, name, pattern, *kind),
        }
    }
    rules.out
}

/// Checks node `n` as it stands, or as `set`, a `(key, value)` write
/// about to land, will leave it: it conforms to its type and its
/// identity is free.
pub fn check_node<G: AttributedView + ?Sized>(
    g: &G,
    constraints: &[Constraint],
    n: NodeId,
    set: Option<(&str, &Value)>,
) -> Result<()> {
    each(g, constraints, |rules, c| match c {
        Constraint::TypeChecking(schema) => rules.node_conforms(schema, c, n, set),
        Constraint::Identity { property, .. } if set.is_none_or(|(key, _)| key == property) => {
            rules.identity_free(c, n, set, None)
        }
        _ => {}
    })
}

/// Checks edge `e` as it stands, or as `set`, a `(key, value)` write
/// about to land, will leave it: it conforms to its type, references
/// live nodes, leaves both endpoints within their labelled degrees, and
/// holds an identity no other edge of its type holds.
pub fn check_edge<G: AttributedView + ?Sized>(
    g: &G,
    constraints: &[Constraint],
    e: EdgeId,
    set: Option<(&str, &Value)>,
) -> Result<()> {
    each(g, constraints, |rules, c| {
        g.visit_edge(e, &mut |r| match c {
            Constraint::TypeChecking(schema) => rules.edge_conforms(schema, c, r, set),
            Constraint::ReferentialIntegrity => rules.references_live(c, r),
            Constraint::Cardinality(schema) => {
                rules.degree_within(schema, c, r.from);
                rules.degree_within(schema, c, r.to);
            }
            Constraint::Identity { .. } => rules.edge_identities(c, Some((r, set))),
            _ => {}
        });
    })
}

/// Checks deleting `edge`, or node `gone` with the edges at it, before
/// the delete: every other source of a removed edge keeps each relation
/// its type makes mandatory.
pub fn check_deletion<G: AttributedView + ?Sized>(
    g: &G,
    constraints: &[Constraint],
    edge: Option<EdgeId>,
    gone: Option<NodeId>,
) -> Result<()> {
    let mut removed: Vec<EdgeId> = edge.into_iter().collect();
    if let Some(n) = gone {
        g.visit_out_edges(n, &mut |r| removed.push(r.id));
        g.visit_in_edges(n, &mut |r| removed.push(r.id));
    }
    each(g, constraints, |rules, c| {
        if let Constraint::TypeChecking(schema) = c {
            for &e in &removed {
                g.visit_edge(e, &mut |r| {
                    if Some(r.from) != gone {
                        rules.relations_present(schema, c, r.from, &removed);
                    }
                });
            }
        }
    })
}

/// Runs `rule` for every constraint; the first violation is the error.
fn each<'g, G: AttributedView + ?Sized>(
    g: &'g G,
    constraints: &[Constraint],
    mut rule: impl FnMut(&mut Rules<'g, G>, &Constraint),
) -> Result<()> {
    let mut rules = Rules { g, out: Vec::new() };
    constraints.iter().for_each(|c| rule(&mut rules, c));
    rules.first()
}

/// Every edge of `g` once, from its source.
fn visit_all_edges<G: GraphView + ?Sized>(g: &G, f: &mut dyn FnMut(EdgeRef)) {
    g.visit_nodes(&mut |n| g.visit_out_edges(n, f));
}

/// A `(key, value)` write the rules look through.
type PendingSet<'a> = Option<(&'a str, &'a Value)>;

/// The first node seen with each identity value, in a pass over every node.
type Holders<'a> = Option<&'a mut FxHashMap<String, NodeId>>;

/// The value of `key`: `set`'s if it writes `key`, else `stored`'s.
fn pending(set: PendingSet, key: &str, stored: impl FnOnce() -> Option<Value>) -> Option<Value> {
    set.filter(|&(k, _)| k == key)
        .map_or_else(stored, |(_, v)| Some(v.clone()))
}

/// The rules over one view, and the violations they have found.
struct Rules<'g, G: ?Sized> {
    g: &'g G,
    out: Vec<Violation>,
}

impl<'g, G: AttributedView + ?Sized> Rules<'g, G> {
    fn push(&mut self, c: &Constraint, message: String, nodes: Vec<NodeId>) {
        let constraint = format!("{c:?}");
        self.out.push(Violation {
            constraint,
            message,
            nodes,
        });
    }

    fn first(self) -> Result<()> {
        let first = self.out.into_iter().next();
        first.map_or(Ok(()), |v| Err(GdmError::Constraint(v.to_string())))
    }

    fn node_label(&self, n: NodeId) -> &'g str {
        let g = self.g;
        g.node_label(n).and_then(|s| g.label_text(s)).unwrap_or("")
    }

    fn edge_label(&self, r: EdgeRef) -> &'g str {
        r.label.and_then(|s| self.g.label_text(s)).unwrap_or("")
    }

    /// Types: each of `owner`'s declared `properties` is present if
    /// required and of its declared type; `value` looks one up.
    fn properties_conform(
        &mut self,
        c: &Constraint,
        owner: String,
        properties: &[PropertyType],
        value: impl Fn(&str) -> Option<Value>,
        nodes: &[NodeId],
    ) {
        for pt in properties {
            let fault = match value(&pt.name) {
                None if pt.required => format!(" missing required property {:?}", pt.name),
                Some(v) if !pt.value_type.admits(&v) => {
                    let (name, got, want) = (&pt.name, v.type_name(), pt.value_type);
                    format!(".{name} has type {got}, expected {want:?}")
                }
                _ => continue,
            };
            self.push(c, format!("{owner}{fault}"), nodes.to_vec());
        }
    }

    /// Types: `n`'s label is declared, its declared properties are
    /// present and typed, and it has every relation its type makes
    /// mandatory.
    fn node_conforms(&mut self, schema: &Schema, c: &Constraint, n: NodeId, set: PendingSet) {
        let (g, label) = (self.g, self.node_label(n));
        let Some(def) = schema.node_type(label) else {
            let message =
                format!("node {n} has undeclared type {label:?}: the schema has not declared it");
            return self.push(c, message, vec![n]);
        };
        let value = |key: &str| pending(set, key, || g.node_property(n, key));
        let owner = format!("node {n} ({label})");
        self.properties_conform(c, owner, &def.properties, value, &[n]);
        self.relations_present(schema, c, n, &[]);
    }

    /// Types: every relation the schema makes mandatory for `n`'s type
    /// has an edge out of `n`, not counting the edges in `removed`.
    fn relations_present(
        &mut self,
        schema: &Schema,
        c: &Constraint,
        n: NodeId,
        removed: &[EdgeId],
    ) {
        let label = self.node_label(n);
        for def in schema.edge_types() {
            if def.optional || def.from.as_deref() != Some(label) {
                continue;
            }
            let mut has = false;
            self.g.visit_out_edges(n, &mut |r| {
                has |= !removed.contains(&r.id) && self.edge_label(r) == def.name;
            });
            if !has {
                let message = format!("node {n} ({label}) lacks mandatory relation {:?}", def.name);
                self.push(c, message, vec![n]);
            }
        }
    }

    /// Types: the edge's label is declared, its endpoints have the
    /// declared types, and its declared properties are present and
    /// typed.
    fn edge_conforms(&mut self, schema: &Schema, c: &Constraint, r: EdgeRef, set: PendingSet) {
        let (g, e, label) = (self.g, r.id, self.edge_label(r));
        let Some(def) = schema.edge_type(label) else {
            let message = format!("edge {e} has undeclared type {label:?}");
            return self.push(c, message, vec![r.from, r.to]);
        };
        for (end, want, node) in [("starts at", &def.from, r.from), ("ends at", &def.to, r.to)] {
            let got = self.node_label(node);
            if let Some(want) = want.as_deref().filter(|&want| want != got) {
                let message = format!("edge {e} ({label}) {end} {got:?}, schema requires {want:?}");
                self.push(c, message, vec![node]);
            }
        }
        let value = |key: &str| pending(set, key, || g.edge_property(e, key));
        let owner = format!("edge {e} ({label})");
        self.properties_conform(c, owner, &def.properties, value, &[r.from, r.to]);
    }

    /// Identity: a node of the type carries the property, and no other
    /// node of the type holds an equal value (equal as `Debug` text),
    /// with `set` applied. A pass over every node finds the other holder
    /// in `holders`, the first node seen with each value; a single check
    /// makes one equality probe of `candidates`, so it costs what the
    /// view's value index costs.
    fn identity_free(&mut self, c: &Constraint, n: NodeId, set: PendingSet, holders: Holders) {
        let g = self.g;
        let Constraint::Identity {
            type_name,
            property,
        } = c
        else {
            return;
        };
        if self.node_label(n) != type_name {
            return;
        }
        let Some(value) = pending(set, property, || g.node_property(n, property)) else {
            let message = format!("node {n} ({type_name}) lacks identity property {property:?}");
            return self.push(c, message, vec![n]);
        };
        let shown = format!("{value:?}");
        let holder = match holders {
            Some(holders) => Some(*holders.entry(shown.clone()).or_insert(n)).filter(|&m| m != n),
            None => g
                .candidates(None, &[(property.clone(), value)])
                .into_iter()
                .filter(|&m| m != n && self.node_label(m) == type_name)
                .find(|&m| {
                    g.node_property(m, property)
                        .is_some_and(|v| format!("{v:?}") == shown)
                }),
        };
        if let Some(m) = holder {
            let message = format!(
                "nodes {m} and {n} ({type_name}) share identity {property} = {shown}: \
                 already taken by {m}"
            );
            self.push(c, message, vec![m, n]);
        }
    }

    /// Identity over the edges of the type, with `set` applied to edge
    /// `at`'s: each carries the property, and no two hold equal values.
    /// No view indexes edge values, so this is one pass over the edges,
    /// made for `at` only when it is of the type and `set` writes the
    /// property.
    fn edge_identities(&mut self, c: &Constraint, at: Option<(EdgeRef, PendingSet)>) {
        let (g, mut holders) = (self.g, FxHashMap::default());
        let Constraint::Identity {
            type_name,
            property,
        } = c
        else {
            return;
        };
        if let Some((r, set)) = at {
            if self.edge_label(r) != type_name || set.is_some_and(|(key, _)| key != property) {
                return;
            }
        }
        visit_all_edges(g, &mut |r| {
            let e = r.id;
            if self.edge_label(r) != type_name {
                return;
            }
            let set = at.and_then(|(at, set)| set.filter(|_| at.id == e));
            let Some(value) = pending(set, property, || g.edge_property(e, property)) else {
                let message =
                    format!("edge {e} ({type_name}) lacks identity property {property:?}");
                return self.push(c, message, vec![r.from, r.to]);
            };
            let shown = format!("{value:?}");
            let m = *holders.entry(shown.clone()).or_insert(e);
            if m != e {
                let message = format!(
                    "edges {m} and {e} ({type_name}) share identity {property} = {shown}: \
                     already taken by {m}"
                );
                self.push(c, message, vec![r.from, r.to]);
            }
        });
    }

    /// Cardinality: `n` has at most one outgoing edge of each type
    /// limited at its source, and at most one incoming edge of each type
    /// limited at its target.
    fn degree_within(&mut self, schema: &Schema, c: &Constraint, n: NodeId) {
        for def in schema.edge_types() {
            let (limit_out, limit_in) = match def.cardinality {
                Cardinality::ManyToMany => continue,
                Cardinality::OneFromSource => (true, false),
                Cardinality::OneToTarget => (false, true),
                Cardinality::OneToOne => (true, true),
            };
            let of_type = |r: EdgeRef| usize::from(self.edge_label(r) == def.name);
            let mut counts = [0usize; 2];
            if limit_out {
                self.g.visit_out_edges(n, &mut |r| counts[0] += of_type(r));
            }
            if limit_in {
                self.g.visit_in_edges(n, &mut |r| counts[1] += of_type(r));
            }
            for (count, direction) in counts.into_iter().zip(["outgoing", "incoming"]) {
                if count > 1 {
                    let (name, cardinality) = (&def.name, def.cardinality);
                    let message = format!(
                        "node {n} has {count} {direction} {name:?} edges (cardinality {cardinality:?})"
                    );
                    self.push(c, message, vec![n]);
                }
            }
        }
    }

    /// Referential integrity: both endpoints of the edge are live nodes.
    fn references_live(&mut self, c: &Constraint, r: EdgeRef) {
        for endpoint in [r.from, r.to] {
            if !self.g.contains_node(endpoint) {
                let message = format!("edge {} references missing node {endpoint}", r.id);
                self.push(c, message, vec![endpoint]);
            }
        }
    }

    fn fd(&mut self, c: &Constraint, type_name: &str, determinant: &str, dependent: &str) {
        let g = self.g;
        let mut map: FxHashMap<String, (NodeId, Option<Value>)> = FxHashMap::default();
        for n in g.candidates(Some(type_name), &[]) {
            let Some(det) = g.node_property(n, determinant) else {
                continue;
            };
            let dep = g.node_property(n, dependent);
            let key = format!("{det:?}");
            match map.get(&key) {
                Some((prev, prev_dep)) => {
                    let equal = match (prev_dep, &dep) {
                        (Some(a), Some(b)) => a.loose_eq(b),
                        (None, None) => true,
                        _ => false,
                    };
                    if !equal {
                        let message = format!(
                            "FD {determinant} -> {dependent} violated on {type_name}: \
                             nodes {prev} and {n} agree on {determinant} but differ on {dependent}"
                        );
                        self.push(c, message, vec![*prev, n]);
                    }
                }
                None => {
                    map.insert(key, (n, dep));
                }
            }
        }
    }

    fn pattern(&mut self, c: &Constraint, name: &str, pattern: &Pattern, kind: PatternKind) {
        let matches = match_pattern(self.g, pattern, &ExecutionGuard::unlimited())
            .expect("an unlimited guard never interrupts");
        match kind {
            PatternKind::Forbidden if !matches.is_empty() => {
                let nodes: Vec<NodeId> = matches[0].values().copied().collect();
                let message = format!(
                    "forbidden pattern {name:?} matched {} time(s)",
                    matches.len()
                );
                self.push(c, message, nodes);
            }
            PatternKind::Required if matches.is_empty() => {
                let message = format!("required pattern {name:?} has no match");
                self.push(c, message, Vec::new());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{EdgeTypeDef, NodeTypeDef, ValueType};
    use gdm_algo::pattern::PatternNode;
    use gdm_core::props;
    use gdm_graphs::PropertyGraph;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_node_type(
            NodeTypeDef::new("person")
                .with(PropertyType::required("name", ValueType::Str))
                .with(PropertyType::optional("age", ValueType::Int)),
        )
        .unwrap();
        s.add_node_type(NodeTypeDef::new("company")).unwrap();
        s.add_edge_type(
            EdgeTypeDef::new("works_at")
                .between("person", "company")
                .cardinality(Cardinality::OneFromSource),
        )
        .unwrap();
        s.add_edge_type(EdgeTypeDef::new("knows").between("person", "person"))
            .unwrap();
        s
    }

    fn ok_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node("person", props! { "name" => "ada", "age" => 36 });
        let b = g.add_node("person", props! { "name" => "bob" });
        let c = g.add_node("company", props! {});
        g.add_edge(a, b, "knows", props! {}).unwrap();
        g.add_edge(a, c, "works_at", props! {}).unwrap();
        g
    }

    #[test]
    fn conforming_graph_has_no_violations() {
        let g = ok_graph();
        let violations = validate(
            &g,
            &[
                Constraint::TypeChecking(schema()),
                Constraint::ReferentialIntegrity,
                Constraint::Cardinality(schema()),
                Constraint::Identity {
                    type_name: "person".into(),
                    property: "name".into(),
                },
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn undeclared_label_is_a_type_violation() {
        let mut g = ok_graph();
        g.add_node("alien", props! {});
        let v = validate(&g, &[Constraint::TypeChecking(schema())]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("alien"));
    }

    #[test]
    fn missing_required_property() {
        let mut g = ok_graph();
        g.add_node("person", props! { "age" => 5 });
        let v = validate(&g, &[Constraint::TypeChecking(schema())]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("name"));
    }

    #[test]
    fn wrong_property_type() {
        let mut g = ok_graph();
        g.add_node("person", props! { "name" => "eve", "age" => "old" });
        let v = validate(&g, &[Constraint::TypeChecking(schema())]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("age"));
    }

    #[test]
    fn wrong_endpoint_type() {
        let mut g = ok_graph();
        let c1 = g.nodes_with_label("company")[0];
        let p = g.nodes_with_label("person")[0];
        g.add_edge(c1, p, "works_at", props! {}).unwrap(); // reversed
        let v = validate(&g, &[Constraint::TypeChecking(schema())]);
        assert_eq!(v.len(), 2, "both endpoints wrong: {v:?}");
    }

    #[test]
    fn mandatory_relation() {
        let mut s = Schema::new();
        s.add_node_type(NodeTypeDef::new("person")).unwrap();
        s.add_node_type(NodeTypeDef::new("company")).unwrap();
        s.add_edge_type(
            EdgeTypeDef::new("works_at")
                .between("person", "company")
                .mandatory(),
        )
        .unwrap();
        let mut g = PropertyGraph::new();
        let a = g.add_node("person", props! {});
        let c = g.add_node("company", props! {});
        let v = validate(&g, &[Constraint::TypeChecking(s.clone())]);
        assert_eq!(v.len(), 1, "person without works_at");
        g.add_edge(a, c, "works_at", props! {}).unwrap();
        assert!(validate(&g, &[Constraint::TypeChecking(s)]).is_empty());
    }

    #[test]
    fn identity_duplicates_detected() {
        let mut g = ok_graph();
        g.add_node("person", props! { "name" => "ada" });
        let v = validate(
            &g,
            &[Constraint::Identity {
                type_name: "person".into(),
                property: "name".into(),
            }],
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].nodes.len(), 2);
    }

    #[test]
    fn cardinality_violation() {
        let mut g = ok_graph();
        let a = g.nodes_with_label("person")[0];
        let c2 = g.add_node("company", props! {});
        g.add_edge(a, c2, "works_at", props! {}).unwrap(); // second job
        let v = validate(&g, &[Constraint::Cardinality(schema())]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("outgoing"));
    }

    #[test]
    fn functional_dependency() {
        let mut g = PropertyGraph::new();
        g.add_node("city", props! { "zip" => 8000, "region" => "north" });
        g.add_node("city", props! { "zip" => 8000, "region" => "south" });
        g.add_node("city", props! { "zip" => 9000, "region" => "south" });
        let fd = Constraint::FunctionalDependency {
            type_name: "city".into(),
            determinant: "zip".into(),
            dependent: "region".into(),
        };
        let v = validate(&g, &[fd]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("zip"));
    }

    #[test]
    fn forbidden_pattern() {
        let mut g = ok_graph();
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        p.edge(x, x, Some("knows")).unwrap(); // self-knowledge forbidden
        let c = Constraint::GraphPattern {
            name: "no-self-knows".into(),
            pattern: p.clone(),
            kind: PatternKind::Forbidden,
        };
        assert!(validate(&g, std::slice::from_ref(&c)).is_empty());
        let a = g.nodes_with_label("person")[0];
        g.add_edge(a, a, "knows", props! {}).unwrap();
        assert_eq!(validate(&g, &[c]).len(), 1);
    }

    #[test]
    fn required_pattern() {
        let g = ok_graph();
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_label("admin"));
        let c = Constraint::GraphPattern {
            name: "must-have-admin".into(),
            pattern: p,
            kind: PatternKind::Required,
        };
        let v = validate(&g, &[c]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("no match"));
    }
}

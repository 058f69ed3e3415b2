//! The six integrity-constraint checkers of Table VI.
//!
//! [`validate`] runs a set of [`Constraint`]s over a whole
//! [`PropertyGraph`] and reports every [`Violation`]. Engines that the
//! paper credits with a constraint install the corresponding checker
//! and reject mutations that introduce violations.

use crate::schema::{Cardinality, Schema};
use gdm_algo::pattern::{match_pattern, Pattern};
use gdm_algo::ExecutionGuard;
use gdm_core::{FxHashMap, GraphView, NodeId, Value};
use gdm_graphs::PropertyGraph;
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
    /// `property` uniquely identifies nodes labeled `type_name`.
    Identity {
        /// Node type the identity applies to.
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
/// [`gdm_core::GdmError::Constraint`] — the form engines reject an update with.
pub fn check(g: &PropertyGraph, constraints: &[Constraint]) -> gdm_core::Result<()> {
    match validate(g, constraints).into_iter().next() {
        Some(v) => Err(gdm_core::GdmError::Constraint(v.to_string())),
        None => Ok(()),
    }
}

/// Validates `g` against `constraints`, returning every violation.
pub fn validate(g: &PropertyGraph, constraints: &[Constraint]) -> Vec<Violation> {
    let mut out = Vec::new();
    for c in constraints {
        match c {
            Constraint::TypeChecking(schema) => check_types(g, schema, c, &mut out),
            Constraint::Identity {
                type_name,
                property,
            } => check_identity(g, type_name, property, c, &mut out),
            Constraint::ReferentialIntegrity => check_referential(g, c, &mut out),
            Constraint::Cardinality(schema) => check_cardinality(g, schema, c, &mut out),
            Constraint::FunctionalDependency {
                type_name,
                determinant,
                dependent,
            } => check_fd(g, type_name, determinant, dependent, c, &mut out),
            Constraint::GraphPattern {
                name,
                pattern,
                kind,
            } => check_pattern(g, name, pattern, *kind, c, &mut out),
        }
    }
    out
}

fn violation(c: &Constraint, message: String, nodes: Vec<NodeId>) -> Violation {
    Violation {
        constraint: format!("{c:?}"),
        message,
        nodes,
    }
}

fn check_types(g: &PropertyGraph, schema: &Schema, c: &Constraint, out: &mut Vec<Violation>) {
    let mut nodes = Vec::new();
    g.visit_nodes(&mut |n| nodes.push(n));
    for n in &nodes {
        let label = g.node_label_text(*n).expect("live node").to_owned();
        let Some(def) = schema.node_type(&label) else {
            out.push(violation(
                c,
                format!("node {n} has undeclared type {label:?}"),
                vec![*n],
            ));
            continue;
        };
        let props = g.node_properties(*n).expect("live node");
        for pt in &def.properties {
            match props.get(&pt.name) {
                None if pt.required => out.push(violation(
                    c,
                    format!("node {n} ({label}) missing required property {:?}", pt.name),
                    vec![*n],
                )),
                Some(v) if !pt.value_type.admits(v) => out.push(violation(
                    c,
                    format!(
                        "node {n} ({label}).{} has type {}, expected {:?}",
                        pt.name,
                        v.type_name(),
                        pt.value_type
                    ),
                    vec![*n],
                )),
                _ => {}
            }
        }
    }
    // Edge typing: label declared, endpoint types respected, edge
    // property types respected, mandatory relations present.
    for e in g.edge_ids() {
        let label = g.edge_label_text(e).expect("live edge").to_owned();
        let (from, to) = g.edge_endpoints(e).expect("live edge");
        let Some(def) = schema.edge_type(&label) else {
            out.push(violation(
                c,
                format!("edge {e} has undeclared type {label:?}"),
                vec![from, to],
            ));
            continue;
        };
        let from_label = g.node_label_text(from).expect("live");
        let to_label = g.node_label_text(to).expect("live");
        if def.from.as_deref().is_some_and(|want| want != from_label) {
            out.push(violation(
                c,
                format!(
                    "edge {e} ({label}) starts at {from_label:?}, schema requires {:?}",
                    def.from.as_deref().expect("checked")
                ),
                vec![from],
            ));
        }
        if def.to.as_deref().is_some_and(|want| want != to_label) {
            out.push(violation(
                c,
                format!(
                    "edge {e} ({label}) ends at {to_label:?}, schema requires {:?}",
                    def.to.as_deref().expect("checked")
                ),
                vec![to],
            ));
        }
        let props = g.edge_properties(e).expect("live edge");
        for pt in &def.properties {
            match props.get(&pt.name) {
                None if pt.required => out.push(violation(
                    c,
                    format!("edge {e} ({label}) missing required property {:?}", pt.name),
                    vec![from, to],
                )),
                Some(v) if !pt.value_type.admits(v) => out.push(violation(
                    c,
                    format!(
                        "edge {e} ({label}).{} has type {}, expected {:?}",
                        pt.name,
                        v.type_name(),
                        pt.value_type
                    ),
                    vec![from, to],
                )),
                _ => {}
            }
        }
    }
    // Mandatory relations.
    for def in schema.edge_types() {
        if def.optional {
            continue;
        }
        let Some(from_type) = &def.from else { continue };
        for n in g.nodes_with_label(from_type) {
            let mut has = false;
            g.visit_out_edges(n, &mut |er| {
                if er
                    .label
                    .and_then(|s| g.label_text(s))
                    .is_some_and(|t| t == def.name)
                {
                    has = true;
                }
            });
            if !has {
                out.push(violation(
                    c,
                    format!(
                        "node {n} ({from_type}) lacks mandatory relation {:?}",
                        def.name
                    ),
                    vec![n],
                ));
            }
        }
    }
}

fn check_identity(
    g: &PropertyGraph,
    type_name: &str,
    property: &str,
    c: &Constraint,
    out: &mut Vec<Violation>,
) {
    let mut seen: FxHashMap<String, NodeId> = FxHashMap::default();
    for n in g.nodes_with_label(type_name) {
        let key = match g.node_properties(n).expect("live").get(property) {
            Some(v) => format!("{v:?}"),
            None => {
                out.push(violation(
                    c,
                    format!("node {n} ({type_name}) lacks identity property {property:?}"),
                    vec![n],
                ));
                continue;
            }
        };
        if let Some(&prev) = seen.get(&key) {
            out.push(violation(
                c,
                format!("nodes {prev} and {n} ({type_name}) share identity {property} = {key}"),
                vec![prev, n],
            ));
        } else {
            seen.insert(key, n);
        }
    }
}

fn check_referential(g: &PropertyGraph, c: &Constraint, out: &mut Vec<Violation>) {
    for e in g.edge_ids() {
        let (from, to) = g.edge_endpoints(e).expect("live edge");
        for endpoint in [from, to] {
            if !g.contains_node(endpoint) {
                out.push(violation(
                    c,
                    format!("edge {e} references missing node {endpoint}"),
                    vec![endpoint],
                ));
            }
        }
    }
}

fn check_cardinality(g: &PropertyGraph, schema: &Schema, c: &Constraint, out: &mut Vec<Violation>) {
    for def in schema.edge_types() {
        let limit_out = matches!(
            def.cardinality,
            Cardinality::OneFromSource | Cardinality::OneToOne
        );
        let limit_in = matches!(
            def.cardinality,
            Cardinality::OneToTarget | Cardinality::OneToOne
        );
        if !limit_out && !limit_in {
            continue;
        }
        let mut out_counts: FxHashMap<u64, usize> = FxHashMap::default();
        let mut in_counts: FxHashMap<u64, usize> = FxHashMap::default();
        for e in g.edge_ids() {
            if g.edge_label_text(e).expect("live") != def.name {
                continue;
            }
            let (from, to) = g.edge_endpoints(e).expect("live");
            *out_counts.entry(from.raw()).or_default() += 1;
            *in_counts.entry(to.raw()).or_default() += 1;
        }
        if limit_out {
            for (&n, &count) in &out_counts {
                if count > 1 {
                    out.push(violation(
                        c,
                        format!(
                            "node n{n} has {count} outgoing {:?} edges (cardinality {:?})",
                            def.name, def.cardinality
                        ),
                        vec![NodeId(n)],
                    ));
                }
            }
        }
        if limit_in {
            for (&n, &count) in &in_counts {
                if count > 1 {
                    out.push(violation(
                        c,
                        format!(
                            "node n{n} has {count} incoming {:?} edges (cardinality {:?})",
                            def.name, def.cardinality
                        ),
                        vec![NodeId(n)],
                    ));
                }
            }
        }
    }
}

fn check_fd(
    g: &PropertyGraph,
    type_name: &str,
    determinant: &str,
    dependent: &str,
    c: &Constraint,
    out: &mut Vec<Violation>,
) {
    let mut map: FxHashMap<String, (NodeId, Option<Value>)> = FxHashMap::default();
    for n in g.nodes_with_label(type_name) {
        let props = g.node_properties(n).expect("live");
        let Some(det) = props.get(determinant) else {
            continue;
        };
        let dep = props.get(dependent).cloned();
        let key = format!("{det:?}");
        match map.get(&key) {
            Some((prev, prev_dep)) => {
                let equal = match (prev_dep, &dep) {
                    (Some(a), Some(b)) => a.loose_eq(b),
                    (None, None) => true,
                    _ => false,
                };
                if !equal {
                    out.push(violation(
                        c,
                        format!(
                            "FD {determinant} -> {dependent} violated on {type_name}: \
                             nodes {prev} and {n} agree on {determinant} but differ on {dependent}"
                        ),
                        vec![*prev, n],
                    ));
                }
            }
            None => {
                map.insert(key, (n, dep));
            }
        }
    }
}

fn check_pattern(
    g: &PropertyGraph,
    name: &str,
    pattern: &Pattern,
    kind: PatternKind,
    c: &Constraint,
    out: &mut Vec<Violation>,
) {
    let matches = match_pattern(g, pattern, &ExecutionGuard::unlimited())
        .expect("an unlimited guard never interrupts");
    match kind {
        PatternKind::Forbidden if !matches.is_empty() => {
            let nodes: Vec<NodeId> = matches[0].values().copied().collect();
            out.push(violation(
                c,
                format!(
                    "forbidden pattern {name:?} matched {} time(s)",
                    matches.len()
                ),
                nodes,
            ));
        }
        PatternKind::Required if matches.is_empty() => {
            out.push(violation(
                c,
                format!("required pattern {name:?} has no match"),
                Vec::new(),
            ));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{EdgeTypeDef, NodeTypeDef, PropertyType, ValueType};
    use gdm_algo::pattern::PatternNode;
    use gdm_core::props;

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

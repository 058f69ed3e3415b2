//! Nested graphs (hypernodes).
//!
//! "A nested graph is a graph whose nodes can be themselves graphs
//! (called hypernodes)." The paper observes that **no surveyed engine
//! supports them**, yet they are the most expressive structure of
//! Table III: "hypergraphs and attributed graphs can be modeled by
//! nested graphs. In contrast, the multilevel nesting provided by
//! nested graphs cannot be modeled by any of the other structures."
//!
//! [`translate`] makes that claim executable: structure-preserving
//! embeddings of hypergraphs and attributed graphs into nested graphs,
//! with exact inverses (property-tested round-trips live in the
//! integration suite).

use crate::hyper::{AtomId, HyperGraph};
use crate::property::PropertyGraph;
use gdm_core::{
    EdgeId, EdgeRef, GdmError, GraphView, Interner, NodeId, PropertyMap, Result, Symbol, Value,
};

#[derive(Debug, Clone)]
struct NNode {
    label: Symbol,
    props: PropertyMap,
    subgraph: Option<Box<NestedGraph>>,
}

#[derive(Debug, Clone, Copy)]
struct NEdge {
    from: NodeId,
    to: NodeId,
    label: Symbol,
}

/// A directed labeled graph whose nodes may contain subgraphs.
#[derive(Debug, Clone, Default)]
pub struct NestedGraph {
    nodes: Vec<Option<NNode>>,
    edges: Vec<Option<NEdge>>,
    node_count: usize,
    edge_count: usize,
    interner: Interner,
}

impl NestedGraph {
    /// Creates an empty nested graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a (flat) node.
    pub fn add_node(&mut self, label: &str, props: PropertyMap) -> NodeId {
        let sym = self.interner.intern(label);
        let id = NodeId(self.nodes.len() as u64);
        self.nodes.push(Some(NNode {
            label: sym,
            props,
            subgraph: None,
        }));
        self.node_count += 1;
        id
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: &str) -> Result<EdgeId> {
        self.node(from)?;
        self.node(to)?;
        let sym = self.interner.intern(label);
        let id = EdgeId(self.edges.len() as u64);
        self.edges.push(Some(NEdge {
            from,
            to,
            label: sym,
        }));
        self.edge_count += 1;
        Ok(id)
    }

    /// Turns `n` into a hypernode by nesting `subgraph` inside it.
    /// Fails if `n` already contains a subgraph.
    pub fn nest(&mut self, n: NodeId, subgraph: NestedGraph) -> Result<()> {
        let node = self.node_mut(n)?;
        if node.subgraph.is_some() {
            return Err(GdmError::InvalidArgument(format!(
                "node {n} is already a hypernode"
            )));
        }
        node.subgraph = Some(Box::new(subgraph));
        Ok(())
    }

    /// Removes and returns the subgraph nested inside `n`.
    pub fn unnest(&mut self, n: NodeId) -> Result<NestedGraph> {
        let node = self.node_mut(n)?;
        node.subgraph
            .take()
            .map(|b| *b)
            .ok_or_else(|| GdmError::InvalidArgument(format!("node {n} is not a hypernode")))
    }

    /// The subgraph inside hypernode `n`, if any.
    pub fn subgraph(&self, n: NodeId) -> Option<&NestedGraph> {
        self.nodes.get(n.index())?.as_ref()?.subgraph.as_deref()
    }

    /// True when node `n` contains a subgraph.
    pub fn is_hypernode(&self, n: NodeId) -> bool {
        self.subgraph(n).is_some()
    }

    /// Node label text.
    pub fn node_label_text(&self, n: NodeId) -> Result<&str> {
        let sym = self.node(n)?.label;
        Ok(self.interner.resolve(sym).expect("interned"))
    }

    /// Node properties.
    pub fn node_properties(&self, n: NodeId) -> Result<&PropertyMap> {
        Ok(&self.node(n)?.props)
    }

    /// Edge descriptor `(from, to, label)`.
    pub fn edge(&self, e: EdgeId) -> Result<(NodeId, NodeId, &str)> {
        let edge = self
            .edges
            .get(e.index())
            .and_then(|x| x.as_ref())
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))?;
        Ok((
            edge.from,
            edge.to,
            self.interner.resolve(edge.label).expect("interned"),
        ))
    }

    /// Maximum nesting depth: 1 for a flat graph, 1 + max over
    /// hypernode subgraphs otherwise. An empty graph has depth 0.
    pub fn depth(&self) -> usize {
        let mut max_sub = 0;
        let mut any = false;
        for node in self.nodes.iter().flatten() {
            any = true;
            if let Some(sub) = &node.subgraph {
                max_sub = max_sub.max(sub.depth());
            }
        }
        if any {
            1 + max_sub
        } else {
            0
        }
    }

    /// Total nodes including all nesting levels.
    pub fn total_node_count(&self) -> usize {
        self.node_count
            + self
                .nodes
                .iter()
                .flatten()
                .filter_map(|n| n.subgraph.as_ref())
                .map(|s| s.total_node_count())
                .sum::<usize>()
    }

    /// Finds nodes (at this level) by label.
    pub fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        let Some(sym) = self.interner.get(label) else {
            return Vec::new();
        };
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                n.as_ref()
                    .filter(|d| d.label == sym)
                    .map(|_| NodeId(i as u64))
            })
            .collect()
    }

    /// Looks up an existing label's symbol.
    pub fn label_symbol(&self, label: &str) -> Option<Symbol> {
        self.interner.get(label)
    }

    fn node(&self, n: NodeId) -> Result<&NNode> {
        self.nodes
            .get(n.index())
            .and_then(Option::as_ref)
            .ok_or_else(|| GdmError::NotFound(format!("node {n}")))
    }

    fn node_mut(&mut self, n: NodeId) -> Result<&mut NNode> {
        self.nodes
            .get_mut(n.index())
            .and_then(Option::as_mut)
            .ok_or_else(|| GdmError::NotFound(format!("node {n}")))
    }
}

impl GraphView for NestedGraph {
    fn is_directed(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(Option::is_some)
    }

    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
        for (i, slot) in self.nodes.iter().enumerate() {
            if slot.is_some() {
                f(NodeId(i as u64));
            }
        }
    }

    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        for (i, edge) in self.edges.iter().enumerate() {
            if let Some(e) = edge {
                if e.from == n {
                    f(EdgeRef {
                        id: EdgeId(i as u64),
                        from: n,
                        to: e.to,
                        label: Some(e.label),
                    });
                }
            }
        }
    }

    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        for (i, edge) in self.edges.iter().enumerate() {
            if let Some(e) = edge {
                if e.to == n {
                    f(EdgeRef {
                        id: EdgeId(i as u64),
                        from: n,
                        to: e.from,
                        label: Some(e.label),
                    });
                }
            }
        }
    }

    fn label_text(&self, sym: Symbol) -> Option<&str> {
        self.interner.resolve(sym)
    }
}

/// Executable versions of the paper's modeling claims.
pub mod translate {
    use super::*;

    const MEMBER_LABEL: &str = "member";
    const ATTR_LABEL: &str = "attr";
    const EDGE_PREFIX: &str = "edge:";
    const NODE_PREFIX: &str = "node:";
    const LINK_PREFIX: &str = "link:";

    /// Embeds a hypergraph into a nested graph: every atom becomes a
    /// top-level node; every link becomes a *hypernode* whose subgraph
    /// holds one `member` node per target position, recording the
    /// target's atom id and tuple position.
    pub fn hyper_to_nested(h: &HyperGraph) -> NestedGraph {
        let mut g = NestedGraph::new();
        let mut map: Vec<(AtomId, NodeId)> = Vec::new();
        for atom in h.node_ids() {
            let label = format!("{NODE_PREFIX}{}", h.label(atom_ok(h, atom)).unwrap_or(""));
            let mut props = PropertyMap::new();
            props.set("atom", atom.raw() as i64);
            let n = g.add_node(&label, props);
            map.push((atom, n));
        }
        for link in h.link_ids() {
            let label = format!("{LINK_PREFIX}{}", h.label(atom_ok(h, link)).unwrap_or(""));
            let mut props = PropertyMap::new();
            props.set("atom", link.raw() as i64);
            let n = g.add_node(&label, props);
            map.push((link, n));
        }
        // Fill each link hypernode's subgraph with its member tuple.
        for link in h.link_ids() {
            let targets = h.targets(link).expect("live link");
            let mut sub = NestedGraph::new();
            for (pos, t) in targets.iter().enumerate() {
                let mut props = PropertyMap::new();
                props.set("target", t.raw() as i64);
                props.set("pos", pos as i64);
                sub.add_node(MEMBER_LABEL, props);
            }
            let n = lookup(&map, link);
            g.nest(n, sub).expect("fresh hypernode");
        }
        g
    }

    /// Inverse of [`hyper_to_nested`]; fails when the nested graph does
    /// not follow the embedding shape.
    pub fn nested_to_hyper(g: &NestedGraph) -> Result<HyperGraph> {
        let mut h = HyperGraph::new();
        let mut map: Vec<(i64, AtomId)> = Vec::new();
        let mut links: Vec<(NodeId, i64, String)> = Vec::new();
        for n in g.node_ids() {
            let label = g.node_label_text(n)?.to_owned();
            let orig = g
                .node_properties(n)?
                .get("atom")
                .and_then(Value::as_int)
                .ok_or_else(|| GdmError::InvalidArgument("missing atom id".into()))?;
            if let Some(node_label) = label.strip_prefix(NODE_PREFIX) {
                let atom = h.add_node(node_label, PropertyMap::new());
                map.push((orig, atom));
            } else if let Some(link_label) = label.strip_prefix(LINK_PREFIX) {
                links.push((n, orig, link_label.to_owned()));
            } else {
                return Err(GdmError::InvalidArgument(format!(
                    "node {n} does not follow the embedding shape"
                )));
            }
        }
        // Links may target other links; resolve in passes.
        let mut pending = links;
        while !pending.is_empty() {
            let before = pending.len();
            let mut still = Vec::new();
            for (n, orig, label) in pending {
                let sub = g
                    .subgraph(n)
                    .ok_or_else(|| GdmError::InvalidArgument("link without subgraph".into()))?;
                let mut members: Vec<(i64, i64)> = Vec::new();
                let mut ok = true;
                for m in sub.node_ids() {
                    let props = sub.node_properties(m)?;
                    let target = props.get("target").and_then(Value::as_int);
                    let pos = props.get("pos").and_then(Value::as_int);
                    match (target, pos) {
                        (Some(t), Some(p)) => members.push((p, t)),
                        _ => {
                            return Err(GdmError::InvalidArgument(
                                "member without target/pos".into(),
                            ))
                        }
                    }
                }
                members.sort_unstable();
                let targets: Option<Vec<AtomId>> = members
                    .iter()
                    .map(|(_, t)| map.iter().find(|(o, _)| o == t).map(|(_, a)| *a))
                    .collect();
                match targets {
                    Some(ts) => {
                        let atom = h.add_link(&label, &ts, PropertyMap::new())?;
                        map.push((orig, atom));
                    }
                    None => {
                        ok = false;
                    }
                }
                if !ok {
                    still.push((n, orig, label));
                }
            }
            if still.len() == before {
                return Err(GdmError::InvalidArgument(
                    "unresolvable link targets (cycle or dangling reference)".into(),
                ));
            }
            pending = still;
        }
        Ok(h)
    }

    /// Embeds an attributed graph into a nested graph: nodes become
    /// hypernodes whose subgraphs hold one `attr` node per attribute;
    /// attributed edges are reified as hypernodes wired with `from` /
    /// `to` edges.
    pub fn property_to_nested(p: &PropertyGraph) -> NestedGraph {
        let mut g = NestedGraph::new();
        let mut map: Vec<(NodeId, NodeId)> = Vec::new();
        let mut ids: Vec<NodeId> = Vec::new();
        p.visit_nodes(&mut |n| ids.push(n));
        for n in ids {
            let label = format!("{NODE_PREFIX}{}", p.node_label_text(n).expect("live"));
            let node = g.add_node(&label, PropertyMap::new());
            let sub = attrs_subgraph(p.node_properties(n).expect("live"));
            g.nest(node, sub).expect("fresh");
            map.push((n, node));
        }
        for e in p.edge_ids() {
            let (from, to) = p.edge_endpoints(e).expect("live");
            let label = format!("{EDGE_PREFIX}{}", p.edge_label_text(e).expect("live"));
            let enode = g.add_node(&label, PropertyMap::new());
            let sub = attrs_subgraph(p.edge_properties(e).expect("live"));
            g.nest(enode, sub).expect("fresh");
            g.add_edge(lookup_node(&map, from), enode, "from")
                .expect("live");
            g.add_edge(enode, lookup_node(&map, to), "to")
                .expect("live");
        }
        g
    }

    /// Inverse of [`property_to_nested`].
    pub fn nested_to_property(g: &NestedGraph) -> Result<PropertyGraph> {
        let mut p = PropertyGraph::new();
        let mut map: Vec<(NodeId, NodeId)> = Vec::new();
        let mut edge_nodes: Vec<(NodeId, String)> = Vec::new();
        for n in g.node_ids() {
            let label = g.node_label_text(n)?.to_owned();
            if let Some(node_label) = label.strip_prefix(NODE_PREFIX) {
                let sub = g
                    .subgraph(n)
                    .ok_or_else(|| GdmError::InvalidArgument("node without attrs".into()))?;
                let node = p.add_node(node_label, subgraph_attrs(sub)?);
                map.push((n, node));
            } else if let Some(edge_label) = label.strip_prefix(EDGE_PREFIX) {
                edge_nodes.push((n, edge_label.to_owned()));
            } else {
                return Err(GdmError::InvalidArgument(format!(
                    "node {n} does not follow the embedding shape"
                )));
            }
        }
        for (enode, label) in edge_nodes {
            let mut from = None;
            let mut to = None;
            g.visit_in_edges(enode, &mut |e| {
                // in_edges orient from == enode; e.to is the neighbor.
                if g.label_text(e.label.expect("labeled")) == Some("from") {
                    from = Some(e.to);
                }
            });
            g.visit_out_edges(enode, &mut |e| {
                if g.label_text(e.label.expect("labeled")) == Some("to") {
                    to = Some(e.to);
                }
            });
            let (from, to) = match (from, to) {
                (Some(f), Some(t)) => (f, t),
                _ => {
                    return Err(GdmError::InvalidArgument(
                        "reified edge missing endpoints".into(),
                    ))
                }
            };
            let sub = g
                .subgraph(enode)
                .ok_or_else(|| GdmError::InvalidArgument("edge without attrs".into()))?;
            let props = subgraph_attrs(sub)?;
            p.add_edge(
                lookup_node(&map, from),
                lookup_node(&map, to),
                &label,
                props,
            )?;
        }
        Ok(p)
    }

    fn attrs_subgraph(props: &PropertyMap) -> NestedGraph {
        let mut sub = NestedGraph::new();
        for (k, v) in props {
            let mut ap = PropertyMap::new();
            ap.set("key", k.as_str());
            ap.set("value", v.clone());
            sub.add_node(ATTR_LABEL, ap);
        }
        sub
    }

    fn subgraph_attrs(sub: &NestedGraph) -> Result<PropertyMap> {
        let mut props = PropertyMap::new();
        for a in sub.node_ids() {
            let ap = sub.node_properties(a)?;
            let key = ap
                .get("key")
                .and_then(|v| v.as_str().map(str::to_owned))
                .ok_or_else(|| GdmError::InvalidArgument("attr without key".into()))?;
            let value = ap
                .get("value")
                .cloned()
                .ok_or_else(|| GdmError::InvalidArgument("attr without value".into()))?;
            props.set(key, value);
        }
        Ok(props)
    }

    fn lookup(map: &[(AtomId, NodeId)], atom: AtomId) -> NodeId {
        map.iter().find(|(a, _)| *a == atom).expect("mapped").1
    }

    fn lookup_node(map: &[(NodeId, NodeId)], n: NodeId) -> NodeId {
        map.iter().find(|(a, _)| *a == n).expect("mapped").1
    }

    fn atom_ok(_h: &HyperGraph, a: AtomId) -> AtomId {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::props;

    #[test]
    fn flat_graph_depth_one() {
        let mut g = NestedGraph::new();
        let a = g.add_node("a", props! {});
        let b = g.add_node("b", props! {});
        g.add_edge(a, b, "rel").unwrap();
        assert_eq!(g.depth(), 1);
        assert_eq!(g.total_node_count(), 2);
        assert!(!g.is_hypernode(a));
    }

    #[test]
    fn nesting_and_unnesting() {
        let mut inner = NestedGraph::new();
        inner.add_node("x", props! {});
        let mut g = NestedGraph::new();
        let h = g.add_node("container", props! {});
        g.nest(h, inner).unwrap();
        assert!(g.is_hypernode(h));
        assert_eq!(g.depth(), 2);
        assert_eq!(g.total_node_count(), 2);
        // Double nesting on the same node is rejected.
        assert!(g.nest(h, NestedGraph::new()).is_err());
        let back = g.unnest(h).unwrap();
        assert_eq!(back.node_count(), 1);
        assert!(!g.is_hypernode(h));
        assert!(g.unnest(h).is_err());
    }

    #[test]
    fn multilevel_nesting() {
        // The structure no other model of Table III can express.
        let mut level3 = NestedGraph::new();
        level3.add_node("leaf", props! {});
        let mut level2 = NestedGraph::new();
        let h2 = level2.add_node("mid", props! {});
        level2.nest(h2, level3).unwrap();
        let mut level1 = NestedGraph::new();
        let h1 = level1.add_node("top", props! {});
        level1.nest(h1, level2).unwrap();
        assert_eq!(level1.depth(), 3);
        assert_eq!(level1.total_node_count(), 3);
    }

    #[test]
    fn hyper_round_trip() {
        let mut h = HyperGraph::new();
        let a = h.add_node("gene", props! {});
        let b = h.add_node("gene", props! {});
        let c = h.add_node("protein", props! {});
        let l = h.add_link("regulates", &[a, b, c], props! {}).unwrap();
        h.add_link("annotated", &[l, a], props! {}).unwrap(); // link on link
        let nested = translate::hyper_to_nested(&h);
        assert_eq!(nested.depth(), 2);
        let back = translate::nested_to_hyper(&nested).unwrap();
        assert_eq!(back.node_count(), h.node_count());
        assert_eq!(back.link_count(), h.link_count());
        // The ternary link structure survives.
        let links = back.link_ids();
        let arities: Vec<usize> = links.iter().map(|&l| back.arity(l).unwrap()).collect();
        assert!(arities.contains(&3) && arities.contains(&2));
    }

    #[test]
    fn property_round_trip() {
        let mut p = PropertyGraph::new();
        let a = p.add_node("person", props! { "name" => "ada", "age" => 36 });
        let b = p.add_node("person", props! { "name" => "bob" });
        p.add_edge(a, b, "knows", props! { "since" => 1840 })
            .unwrap();
        let nested = translate::property_to_nested(&p);
        assert_eq!(nested.depth(), 2);
        let back = translate::nested_to_property(&nested).unwrap();
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.edge_count(), 1);
        let people = back.nodes_with_label("person");
        assert_eq!(people.len(), 2);
        let names: Vec<Option<Value>> = people
            .iter()
            .map(|&n| gdm_core::AttributedView::node_property(&back, n, "name"))
            .collect();
        assert!(names.contains(&Some(Value::from("ada"))));
        let e = back.edge_ids()[0];
        assert_eq!(
            back.edge_properties(e).unwrap().get("since"),
            Some(&Value::from(1840))
        );
    }

    #[test]
    fn malformed_embeddings_are_rejected() {
        let mut g = NestedGraph::new();
        g.add_node("unprefixed", props! {});
        assert!(translate::nested_to_hyper(&g).is_err());
        assert!(translate::nested_to_property(&g).is_err());
    }

    #[test]
    fn graph_view_on_top_level() {
        let mut g = NestedGraph::new();
        let a = g.add_node("a", props! {});
        let b = g.add_node("b", props! {});
        g.add_edge(a, b, "r").unwrap();
        assert_eq!(g.out_neighbors(a), vec![b]);
        assert_eq!(g.in_degree(b), 1);
    }
}

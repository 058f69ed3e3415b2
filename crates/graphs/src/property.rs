//! Attributed (property) graphs.
//!
//! Table III's most featureful row family: directed multigraphs whose
//! nodes and edges carry a type label *and* a set of attributes. The
//! paper singles this out as the distinguishing trait of the current
//! (2012) generation: "the inclusion of attributes for nodes and edges
//! is a particular feature in current proposals ... oriented to improve
//! the speed of retrieval for the data directly related to a given
//! node". DEX, InfiniteGraph, Neo4j, and Sones model data this way.

use gdm_core::{
    AttributedView, EdgeId, EdgeRef, FxHashMap, FxHashSet, GdmError, GraphView, Interner, NodeId,
    PropertyMap, Result, Symbol, Value,
};
use gdm_storage::index::{BTreeIndex, ValueIndex};

#[derive(serde::Serialize, serde::Deserialize)]
struct SnapshotDto {
    nodes: Vec<Option<(String, PropertyMap)>>,
    edges: Vec<Option<(u64, u64, String, PropertyMap)>>,
}

#[derive(Debug, Clone)]
struct NodeData {
    label: Symbol,
    props: PropertyMap,
    out: Vec<(EdgeId, NodeId)>,
    inc: Vec<(EdgeId, NodeId)>,
}

#[derive(Debug, Clone)]
struct EdgeData {
    from: NodeId,
    to: NodeId,
    label: Symbol,
    props: PropertyMap,
}

/// A directed, labeled, attributed multigraph.
#[derive(Debug, Clone)]
pub struct PropertyGraph {
    nodes: Vec<Option<NodeData>>,
    edges: Vec<Option<EdgeData>>,
    node_count: usize,
    edge_count: usize,
    interner: Interner,
    /// label → node ids, the built-in type index every attributed
    /// engine maintains.
    label_index: FxHashMap<Symbol, FxHashSet<u64>>,
    /// key → ordered secondary index over node attribute values,
    /// auto-maintained on every insert/remove/update. Ordered (rather
    /// than hash) so a point probe finds every number-family value
    /// loosely equal to it: `2` also finds `2.0`.
    prop_indexes: FxHashMap<String, BTreeIndex>,
}

impl Default for PropertyGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl PropertyGraph {
    /// Creates an empty property graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
            node_count: 0,
            edge_count: 0,
            interner: Interner::new(),
            label_index: FxHashMap::default(),
            prop_indexes: FxHashMap::default(),
        }
    }

    /// Adds a node with label `label` and attributes `props`.
    pub fn add_node(&mut self, label: &str, props: PropertyMap) -> NodeId {
        let sym = self.interner.intern(label);
        let id = NodeId(self.nodes.len() as u64);
        for (key, value) in &props {
            self.prop_indexes
                .entry(key.to_owned())
                .or_default()
                .insert(value, id.raw());
        }
        self.nodes.push(Some(NodeData {
            label: sym,
            props,
            out: Vec::new(),
            inc: Vec::new(),
        }));
        self.label_index.entry(sym).or_default().insert(id.raw());
        self.node_count += 1;
        id
    }

    /// Adds an edge `from -[label]-> to` with attributes `props`.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: &str,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        self.node_data(from)?;
        self.node_data(to)?;
        let sym = self.interner.intern(label);
        let id = EdgeId(self.edges.len() as u64);
        self.edges.push(Some(EdgeData {
            from,
            to,
            label: sym,
            props,
        }));
        self.node_mut(from).out.push((id, to));
        self.node_mut(to).inc.push((id, from));
        self.edge_count += 1;
        Ok(id)
    }

    /// Removes edge `e`.
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<()> {
        let data = self
            .edges
            .get_mut(e.index())
            .and_then(Option::take)
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))?;
        self.node_mut(data.from).out.retain(|(id, _)| *id != e);
        self.node_mut(data.to).inc.retain(|(id, _)| *id != e);
        self.edge_count -= 1;
        Ok(())
    }

    /// Removes node `n` and all incident edges.
    pub fn remove_node(&mut self, n: NodeId) -> Result<()> {
        let label = self.node_data(n)?.label;
        let incident: Vec<EdgeId> = {
            let d = self.nodes[n.index()].as_ref().expect("checked");
            d.out.iter().chain(d.inc.iter()).map(|(e, _)| *e).collect()
        };
        for e in incident {
            if self.edges.get(e.index()).is_some_and(Option::is_some) {
                self.remove_edge(e)?;
            }
        }
        let data = self.nodes[n.index()].take().expect("checked");
        for (key, value) in &data.props {
            if let Some(idx) = self.prop_indexes.get_mut(key) {
                idx.remove(value, n.raw());
            }
        }
        if let Some(set) = self.label_index.get_mut(&label) {
            set.remove(&n.raw());
        }
        self.node_count -= 1;
        Ok(())
    }

    /// All nodes labeled `label`, ascending by id.
    pub fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        let Some(sym) = self.interner.get(label) else {
            return Vec::new();
        };
        let mut ids: Vec<u64> = self
            .label_index
            .get(&sym)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        ids.sort_unstable();
        ids.into_iter().map(NodeId).collect()
    }

    /// Sets a node attribute; returns the previous value.
    pub fn set_node_property(
        &mut self,
        n: NodeId,
        key: &str,
        value: impl Into<Value>,
    ) -> Result<Option<Value>> {
        self.node_data(n)?;
        let value = value.into();
        let idx = self.prop_indexes.entry(key.to_owned()).or_default();
        idx.insert(&value, n.raw());
        let previous = self.node_mut(n).props.set(key, value);
        if let Some(old) = &previous {
            // `insert` before `remove`: if old == new the pair simply
            // stays put instead of bouncing out and back in.
            let node = self.nodes[n.index()].as_ref().expect("validated node id");
            let current = node.props.get(key).expect("just set");
            if old != current {
                self.prop_indexes
                    .get_mut(key)
                    .expect("just created")
                    .remove(old, n.raw());
            }
        }
        Ok(previous)
    }

    /// All nodes whose attribute `key` is loosely equal to `value`,
    /// ascending by id — answered from the auto-maintained secondary
    /// index, never by scanning.
    pub fn nodes_with_property(&self, key: &str, value: &Value) -> Vec<NodeId> {
        self.prop_indexes
            .get(key)
            .map(|idx| idx.lookup_loose(value))
            .unwrap_or_default()
            .into_iter()
            .map(NodeId)
            .collect()
    }

    /// Distinct attribute keys with at least one indexed pair, sorted —
    /// the keys a planner may probe without scanning.
    pub fn indexed_property_keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self
            .prop_indexes
            .iter()
            .filter(|(_, idx)| !idx.is_empty())
            .map(|(k, _)| k.as_str())
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Sets an edge attribute; returns the previous value.
    pub fn set_edge_property(
        &mut self,
        e: EdgeId,
        key: &str,
        value: impl Into<Value>,
    ) -> Result<Option<Value>> {
        let data = self
            .edges
            .get_mut(e.index())
            .and_then(Option::as_mut)
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))?;
        Ok(data.props.set(key, value.into()))
    }

    /// All attributes of node `n`.
    pub fn node_properties(&self, n: NodeId) -> Result<&PropertyMap> {
        Ok(&self.node_data(n)?.props)
    }

    /// All attributes of edge `e`.
    pub fn edge_properties(&self, e: EdgeId) -> Result<&PropertyMap> {
        self.edges
            .get(e.index())
            .and_then(Option::as_ref)
            .map(|d| &d.props)
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))
    }

    /// Node label text.
    pub fn node_label_text(&self, n: NodeId) -> Result<&str> {
        let sym = self.node_data(n)?.label;
        Ok(self.interner.resolve(sym).expect("interned"))
    }

    /// Edge label text.
    pub fn edge_label_text(&self, e: EdgeId) -> Result<&str> {
        let sym = self
            .edges
            .get(e.index())
            .and_then(Option::as_ref)
            .map(|d| d.label)
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))?;
        Ok(self.interner.resolve(sym).expect("interned"))
    }

    /// Edge endpoints `(from, to)`.
    pub fn edge_endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId)> {
        self.edges
            .get(e.index())
            .and_then(Option::as_ref)
            .map(|d| (d.from, d.to))
            .ok_or_else(|| GdmError::NotFound(format!("edge {e}")))
    }

    /// Interns a label for query construction.
    pub fn intern(&mut self, label: &str) -> Symbol {
        self.interner.intern(label)
    }

    /// Looks up an existing label's symbol.
    pub fn label_symbol(&self, label: &str) -> Option<Symbol> {
        self.interner.get(label)
    }

    /// Every edge id currently live, ascending.
    pub fn edge_ids(&self) -> Vec<EdgeId> {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|_| EdgeId(i as u64)))
            .collect()
    }

    /// Distinct node labels in use.
    pub fn labels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .label_index
            .iter()
            .filter(|(_, set)| !set.is_empty())
            .filter_map(|(sym, _)| self.interner.resolve(*sym))
            .collect();
        out.sort_unstable();
        out
    }

    /// Serializes the graph — including tombstoned slots, so node and
    /// edge ids survive a save/load cycle — to a JSON snapshot. The
    /// attributed engines (DEX, InfiniteGraph) persist through this.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let dto = SnapshotDto {
            nodes: self
                .nodes
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|d| {
                        (
                            self.interner.resolve(d.label).expect("interned").to_owned(),
                            d.props.clone(),
                        )
                    })
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|d| {
                        (
                            d.from.raw(),
                            d.to.raw(),
                            self.interner.resolve(d.label).expect("interned").to_owned(),
                            d.props.clone(),
                        )
                    })
                })
                .collect(),
        };
        serde_json::to_vec(&dto).expect("snapshot serialization cannot fail")
    }

    /// Restores a graph from [`PropertyGraph::to_snapshot`] bytes.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self> {
        let dto: SnapshotDto = serde_json::from_slice(bytes)
            .map_err(|e| GdmError::Storage(format!("bad property-graph snapshot: {e}")))?;
        let mut g = PropertyGraph::new();
        for slot in dto.nodes {
            match slot {
                Some((label, props)) => {
                    g.add_node(&label, props);
                }
                None => {
                    let n = g.add_node("__tombstone__", PropertyMap::new());
                    g.remove_node(n)?;
                }
            }
        }
        for slot in dto.edges {
            match slot {
                Some((from, to, label, props)) => {
                    g.add_edge(NodeId(from), NodeId(to), &label, props)?;
                }
                None => {
                    // Consume an edge slot: attach a throwaway self-loop
                    // to any live node, then remove it.
                    let anchor = g
                        .nodes
                        .iter()
                        .position(Option::is_some)
                        .map(|i| NodeId(i as u64))
                        .ok_or_else(|| {
                            GdmError::Storage(
                                "snapshot has edge tombstones but no live nodes".into(),
                            )
                        })?;
                    let e = g.add_edge(anchor, anchor, "__tombstone__", PropertyMap::new())?;
                    g.remove_edge(e)?;
                }
            }
        }
        Ok(g)
    }

    fn node_data(&self, n: NodeId) -> Result<&NodeData> {
        self.nodes
            .get(n.index())
            .and_then(Option::as_ref)
            .ok_or_else(|| GdmError::NotFound(format!("node {n}")))
    }

    fn node_mut(&mut self, n: NodeId) -> &mut NodeData {
        self.nodes[n.index()].as_mut().expect("validated node id")
    }
}

impl GraphView for PropertyGraph {
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
        let Some(Some(data)) = self.nodes.get(n.index()) else {
            return;
        };
        for &(e, other) in &data.out {
            let label = self.edges[e.index()].as_ref().map(|d| d.label);
            f(EdgeRef {
                id: e,
                from: n,
                to: other,
                label,
            });
        }
    }

    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        let Some(Some(data)) = self.nodes.get(n.index()) else {
            return;
        };
        for &(e, other) in &data.inc {
            let label = self.edges[e.index()].as_ref().map(|d| d.label);
            f(EdgeRef {
                id: e,
                from: n,
                to: other,
                label,
            });
        }
    }

    fn label_text(&self, sym: Symbol) -> Option<&str> {
        self.interner.resolve(sym)
    }

    fn visit_edge(&self, e: EdgeId, f: &mut dyn FnMut(EdgeRef)) {
        if let Some(Some(d)) = self.edges.get(e.index()) {
            f(EdgeRef::labeled(e, d.from, d.to, d.label));
        }
    }
}

impl AttributedView for PropertyGraph {
    fn node_label(&self, n: NodeId) -> Option<Symbol> {
        self.nodes.get(n.index())?.as_ref().map(|d| d.label)
    }

    fn node_property(&self, n: NodeId, key: &str) -> Option<Value> {
        self.nodes.get(n.index())?.as_ref()?.props.get(key).cloned()
    }

    fn edge_property(&self, e: EdgeId, key: &str) -> Option<Value> {
        self.edges.get(e.index())?.as_ref()?.props.get(key).cloned()
    }

    fn visit_node_properties(&self, n: NodeId, f: &mut dyn FnMut(&str, &Value)) {
        if let Some(Some(data)) = self.nodes.get(n.index()) {
            for (k, v) in &data.props {
                f(k, v);
            }
        }
    }

    fn visit_edge_properties(&self, e: EdgeId, f: &mut dyn FnMut(&str, &Value)) {
        if let Some(Some(data)) = self.edges.get(e.index()) {
            for (k, v) in &data.props {
                f(k, v);
            }
        }
    }

    /// Index-backed candidate enumeration: seed from the smallest of
    /// the label set and the per-key value-index probes, then verify
    /// the remaining constraints per member. Never scans.
    fn candidates(&self, label: Option<&str>, props: &[(String, Value)]) -> Vec<NodeId> {
        if label.is_none() && props.is_empty() {
            return self.node_ids();
        }
        // An unknown label or a never-seen key means no node matches.
        let label_sym = match label {
            Some(text) => match self.interner.get(text) {
                Some(sym) => Some(sym),
                None => return Vec::new(),
            },
            None => None,
        };
        let mut seed: Option<Vec<u64>> = label_sym.map(|sym| {
            let mut ids: Vec<u64> = self
                .label_index
                .get(&sym)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            ids.sort_unstable();
            ids
        });
        for (key, value) in props {
            let ids = self
                .prop_indexes
                .get(key)
                .map(|idx| idx.lookup_loose(value))
                .unwrap_or_default();
            if seed.as_ref().is_none_or(|s| ids.len() < s.len()) {
                seed = Some(ids);
            }
        }
        let seed = seed.expect("at least one constraint");
        seed.into_iter()
            .map(NodeId)
            .filter(|&n| {
                let Some(Some(data)) = self.nodes.get(n.index()) else {
                    return false;
                };
                if label_sym.is_some_and(|sym| data.label != sym) {
                    return false;
                }
                props
                    .iter()
                    .all(|(key, want)| data.props.get(key).is_some_and(|got| got.loose_eq(want)))
            })
            .collect()
    }

    fn candidate_estimate(&self, label: Option<&str>, props: &[(String, Value)]) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut shrink = |n: usize| best = Some(best.map_or(n, |b| b.min(n)));
        if let Some(text) = label {
            shrink(
                self.interner
                    .get(text)
                    .and_then(|sym| self.label_index.get(&sym))
                    .map_or(0, FxHashSet::len),
            );
        }
        for (key, value) in props {
            shrink(
                self.prop_indexes
                    .get(key)
                    .map_or(0, |idx| idx.lookup_loose(value).len()),
            );
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::props;

    fn social() -> (PropertyGraph, NodeId, NodeId, NodeId) {
        let mut g = PropertyGraph::new();
        let alice = g.add_node("person", props! { "name" => "alice", "age" => 30 });
        let bob = g.add_node("person", props! { "name" => "bob", "age" => 25 });
        let acme = g.add_node("company", props! { "name" => "acme" });
        g.add_edge(alice, bob, "knows", props! { "since" => 2001 })
            .unwrap();
        g.add_edge(alice, acme, "works_at", props! {}).unwrap();
        (g, alice, bob, acme)
    }

    /// `social()` plus a tombstoned node and edge, and one property of
    /// every value type.
    fn snapshot_graph() -> PropertyGraph {
        let (mut g, alice, bob, acme) = social();
        let gone = g.add_node("temp", props! {});
        g.add_edge(gone, bob, "knows", props! {}).unwrap();
        g.remove_node(gone).unwrap();
        let e = g
            .add_edge(bob, acme, "works_at", props! { "weight" => 0.5 })
            .unwrap();
        g.remove_edge(e).unwrap();
        g.set_node_property(
            alice,
            "misc",
            Value::List(vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(-0.0),
                Value::from("a\"b\\c\u{1}é"),
                Value::List(vec![]),
            ]),
        )
        .unwrap();
        g.add_edge(
            bob,
            alice,
            "knows",
            props! { "since" => i64::MIN, "w" => 1e300 },
        )
        .unwrap();
        g
    }

    /// `snapshot_graph()`'s snapshot bytes. Snapshots on disk are in this
    /// format, so the encoder must reproduce it byte for byte.
    const GOLDEN_SNAPSHOT: &str = r#"{"nodes":[["person",{"entries":{"age":{"Int":30},"misc":{"List":["Null",{"Bool":true},{"Float":-0.0},{"Str":"a\"b\\c\u0001é"},{"List":[]}]},"name":{"Str":"alice"}}}],["person",{"entries":{"age":{"Int":25},"name":{"Str":"bob"}}}],["company",{"entries":{"name":{"Str":"acme"}}}],null],"edges":[[0,1,"knows",{"entries":{"since":{"Int":2001}}}],[0,2,"works_at",{"entries":{}}],null,null,[1,0,"knows",{"entries":{"since":{"Int":-9223372036854775808},"w":{"Float":1e300}}}]]}"#;

    #[test]
    fn snapshot_round_trips() {
        let g = snapshot_graph();
        let bytes = g.to_snapshot();
        assert_eq!(std::str::from_utf8(&bytes).unwrap(), GOLDEN_SNAPSHOT);
        let back = PropertyGraph::from_snapshot(GOLDEN_SNAPSHOT.as_bytes()).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.to_snapshot(), bytes);

        // Non-finite floats read back too. `Value`'s `PartialEq` says
        // `NaN != NaN`: compare the bits.
        let floats = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut g = PropertyGraph::new();
        let nodes: Vec<NodeId> = floats
            .iter()
            .map(|&f| g.add_node("n", props! { "x" => f }))
            .collect();
        let back = PropertyGraph::from_snapshot(&g.to_snapshot()).expect("snapshot decodes");
        for (n, f) in nodes.into_iter().zip(floats) {
            match back.node_property(n, "x") {
                Some(Value::Float(x)) => assert_eq!(x.to_bits(), f.to_bits(), "{f}"),
                other => panic!("{f}: read back {other:?}"),
            }
        }
    }

    #[test]
    fn labels_and_properties() {
        let (g, alice, _, acme) = social();
        assert_eq!(g.node_label_text(alice).unwrap(), "person");
        assert_eq!(g.node_label_text(acme).unwrap(), "company");
        assert_eq!(g.node_property(alice, "name"), Some(Value::from("alice")));
        assert_eq!(g.node_property(alice, "nope"), None);
    }

    #[test]
    fn label_index_tracks_membership() {
        let (mut g, alice, bob, _) = social();
        assert_eq!(g.nodes_with_label("person"), vec![alice, bob]);
        g.remove_node(bob).unwrap();
        assert_eq!(g.nodes_with_label("person"), vec![alice]);
        assert_eq!(g.nodes_with_label("unknown"), vec![]);
    }

    #[test]
    fn edge_attributes() {
        let (g, alice, bob, _) = social();
        let e = g.out_edges(alice)[0];
        assert_eq!(e.to, bob);
        assert_eq!(g.edge_property(e.id, "since"), Some(Value::from(2001)));
        assert_eq!(g.edge_label_text(e.id).unwrap(), "knows");
    }

    #[test]
    fn set_properties_after_creation() {
        let (mut g, alice, _, _) = social();
        let old = g.set_node_property(alice, "age", 31).unwrap();
        assert_eq!(old, Some(Value::from(30)));
        assert_eq!(g.node_property(alice, "age"), Some(Value::from(31)));
        let e = g.out_edges(alice)[0].id;
        g.set_edge_property(e, "weight", 0.5).unwrap();
        assert_eq!(g.edge_property(e, "weight"), Some(Value::from(0.5)));
    }

    #[test]
    fn remove_node_cleans_edges_and_index() {
        let (mut g, alice, bob, acme) = social();
        g.remove_node(alice).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.in_degree(bob), 0);
        assert_eq!(g.in_degree(acme), 0);
        assert!(g.node_properties(alice).is_err());
    }

    #[test]
    fn labels_listing() {
        let (g, ..) = social();
        assert_eq!(g.labels(), vec!["company", "person"]);
    }

    #[test]
    fn property_index_tracks_insert_update_remove() {
        let (mut g, alice, bob, acme) = social();
        assert_eq!(
            g.nodes_with_property("name", &Value::from("alice")),
            vec![alice]
        );
        assert_eq!(g.nodes_with_property("age", &Value::from(25)), vec![bob]);
        // Loose number probe: int-valued property found by float probe.
        assert_eq!(g.nodes_with_property("age", &Value::from(25.0)), vec![bob]);
        // Update moves the entry.
        g.set_node_property(bob, "age", 26).unwrap();
        assert!(g.nodes_with_property("age", &Value::from(25)).is_empty());
        assert_eq!(g.nodes_with_property("age", &Value::from(26)), vec![bob]);
        // Removal drops all of the node's entries.
        g.remove_node(bob).unwrap();
        assert!(g.nodes_with_property("age", &Value::from(26)).is_empty());
        assert_eq!(
            g.nodes_with_property("name", &Value::from("acme")),
            vec![acme]
        );
        assert_eq!(g.indexed_property_keys(), vec!["age", "name"]);
    }

    #[test]
    fn candidates_route_through_indexes() {
        let (g, alice, bob, _) = social();
        assert_eq!(
            g.candidates(Some("person"), &[]),
            vec![alice, bob],
            "label only"
        );
        assert_eq!(
            g.candidates(Some("person"), &[("age".into(), Value::from(30))]),
            vec![alice]
        );
        assert_eq!(
            g.candidates(None, &[("name".into(), Value::from("bob"))]),
            vec![bob]
        );
        assert!(g.candidates(Some("alien"), &[]).is_empty());
        assert!(g
            .candidates(None, &[("no_such_key".into(), Value::from(1))])
            .is_empty());
        // Estimates are upper bounds from the indexes.
        assert_eq!(g.candidate_estimate(Some("person"), &[]), Some(2));
        assert_eq!(
            g.candidate_estimate(Some("person"), &[("name".into(), Value::from("bob"))]),
            Some(1)
        );
        assert_eq!(g.candidate_estimate(None, &[]), None, "no constraint");
    }

    #[test]
    fn attributed_view_through_trait_object() {
        let (g, alice, ..) = social();
        let view: &dyn AttributedView = &g;
        let sym = view.node_label(alice).unwrap();
        assert_eq!(view.label_text(sym), Some("person"));
    }
}

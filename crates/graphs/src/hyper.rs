//! Hypergraphs, HyperGraphDB-style.
//!
//! The paper: "HyperGraphDB implements the hypergraph data model where
//! the notion of edge is extended to connect more than two nodes",
//! useful for "knowledge representation, artificial intelligence and
//! bio-informatics". HyperGraphDB's actual model is an *atom space*:
//! every entity is an atom, and a **link** is an atom whose target set
//! may contain any atoms — including other links. That last property is
//! exactly Table III's "edges between edges" column, so we reproduce
//! the atom-space formulation rather than plain set-hyperedges.
//!
//! Read as a [`GraphView`], a [`HyperGraph`] is its *two-section*, the
//! standard binary projection (each k-ary link induces edges between
//! its targets in tuple order), which is how the essential queries run
//! over the hypergraph model.

use gdm_core::{
    EdgeId, EdgeRef, GdmError, GraphView, Interner, NodeId, PropertyMap, Result, Symbol, Value,
};

/// Identifier of an atom (node or link) in one hypergraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(pub u64);

impl AtomId {
    /// Raw numeric form.
    pub fn raw(self) -> u64 {
        self.0
    }
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AtomId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

#[derive(Debug, Clone)]
enum AtomKind {
    Node,
    Link { targets: Vec<AtomId> },
}

#[derive(Debug, Clone)]
struct Atom {
    label: Symbol,
    props: PropertyMap,
    kind: AtomKind,
    /// Links whose target tuple contains this atom.
    incidence: Vec<AtomId>,
}

/// Snapshot row: `(label, props, link targets)` — `None` targets mean
/// a node atom; a `None` row is a tombstoned slot.
type SnapshotDto = Vec<Option<(String, PropertyMap, Option<Vec<u64>>)>>;

/// An atom-space hypergraph.
#[derive(Debug, Clone, Default)]
pub struct HyperGraph {
    atoms: Vec<Option<Atom>>,
    node_count: usize,
    link_count: usize,
    interner: Interner,
}

impl HyperGraph {
    /// Creates an empty hypergraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node atom.
    pub fn add_node(&mut self, label: &str, props: PropertyMap) -> AtomId {
        let sym = self.interner.intern(label);
        let id = AtomId(self.atoms.len() as u64);
        self.atoms.push(Some(Atom {
            label: sym,
            props,
            kind: AtomKind::Node,
            incidence: Vec::new(),
        }));
        self.node_count += 1;
        id
    }

    /// Adds a link atom targeting `targets` (nodes or links; at least
    /// one target).
    pub fn add_link(
        &mut self,
        label: &str,
        targets: &[AtomId],
        props: PropertyMap,
    ) -> Result<AtomId> {
        if targets.is_empty() {
            return Err(GdmError::InvalidArgument("link with no targets".into()));
        }
        for &t in targets {
            self.atom(t)?;
        }
        let sym = self.interner.intern(label);
        let id = AtomId(self.atoms.len() as u64);
        self.atoms.push(Some(Atom {
            label: sym,
            props,
            kind: AtomKind::Link {
                targets: targets.to_vec(),
            },
            incidence: Vec::new(),
        }));
        self.link_count += 1;
        self.record_incidence(id, targets)?;
        Ok(id)
    }

    /// Records link `id` in the incidence of each of its distinct targets.
    fn record_incidence(&mut self, id: AtomId, targets: &[AtomId]) -> Result<()> {
        for (i, &t) in targets.iter().enumerate() {
            if !targets[..i].contains(&t) {
                let target = self.atoms.get_mut(t.index()).and_then(Option::as_mut);
                let target = target.ok_or_else(|| GdmError::NotFound(format!("atom {t}")))?;
                target.incidence.push(id);
            }
        }
        Ok(())
    }

    /// Removes atom `id`. Refuses while links still reference it unless
    /// `cascade` is set, in which case every referencing link is
    /// removed recursively. The slot stays free: no later add reuses `id`.
    pub fn remove_atom(&mut self, id: AtomId, cascade: bool) -> Result<()> {
        let incident = self.atom(id)?.incidence.clone();
        if !incident.is_empty() {
            if !cascade {
                return Err(GdmError::Constraint(format!(
                    "atom {id} is referenced by {} link(s)",
                    incident.len()
                )));
            }
            for link in incident {
                if self.atoms.get(link.index()).is_some_and(Option::is_some) {
                    self.remove_atom(link, true)?;
                }
            }
        }
        let atom = self.atoms[id.index()].take().expect("validated");
        match atom.kind {
            AtomKind::Node => self.node_count -= 1,
            AtomKind::Link { targets } => {
                self.link_count -= 1;
                for t in targets {
                    if let Some(Some(ta)) = self.atoms.get_mut(t.index()) {
                        ta.incidence.retain(|&l| l != id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Takes back the add that made `id`, which no link references. The
    /// newest atom's slot is freed too, so the next add is given `id`
    /// again, as it is by a replay that never saw the add.
    pub fn undo_add(&mut self, id: AtomId) -> Result<()> {
        self.remove_atom(id, false)?;
        if id.index() + 1 == self.atoms.len() {
            self.atoms.pop();
        }
        Ok(())
    }

    /// True when `id` exists and is a link.
    pub fn is_link(&self, id: AtomId) -> bool {
        matches!(
            self.atoms.get(id.index()).and_then(Option::as_ref),
            Some(Atom {
                kind: AtomKind::Link { .. },
                ..
            })
        )
    }

    /// True when `id` exists.
    pub fn contains(&self, id: AtomId) -> bool {
        self.atoms.get(id.index()).is_some_and(Option::is_some)
    }

    /// The target tuple of link `id`.
    pub fn targets(&self, id: AtomId) -> Result<&[AtomId]> {
        match &self.atom(id)?.kind {
            AtomKind::Link { targets } => Ok(targets),
            AtomKind::Node => Err(GdmError::InvalidArgument(format!("{id} is a node"))),
        }
    }

    /// Arity (number of targets) of link `id`.
    pub fn arity(&self, id: AtomId) -> Result<usize> {
        Ok(self.targets(id)?.len())
    }

    /// Links whose target tuple contains `id`.
    pub fn incidence(&self, id: AtomId) -> Result<&[AtomId]> {
        Ok(&self.atom(id)?.incidence)
    }

    /// Label text of atom `id`.
    pub fn label(&self, id: AtomId) -> Result<&str> {
        let sym = self.atom(id)?.label;
        Ok(self.interner.resolve(sym).expect("interned"))
    }

    /// Looks up an existing label's symbol.
    pub fn label_symbol(&self, label: &str) -> Option<Symbol> {
        self.interner.get(label)
    }

    /// A property of atom `id`.
    pub fn property(&self, id: AtomId, key: &str) -> Option<&Value> {
        self.atoms.get(id.index())?.as_ref()?.props.get(key)
    }

    /// All properties of atom `id` (None for a dead or unknown atom).
    pub fn properties(&self, id: AtomId) -> Option<&PropertyMap> {
        self.atoms.get(id.index())?.as_ref().map(|a| &a.props)
    }

    /// Sets a property on atom `id`; returns the previous value.
    pub fn set_property(
        &mut self,
        id: AtomId,
        key: &str,
        value: impl Into<Value>,
    ) -> Result<Option<Value>> {
        self.atom(id)?;
        Ok(self.atoms[id.index()]
            .as_mut()
            .expect("validated")
            .props
            .set(key, value))
    }

    /// Number of node atoms.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of link atoms.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// All node atoms, ascending.
    pub fn node_ids(&self) -> Vec<AtomId> {
        self.atom_ids(false)
    }

    /// All link atoms, ascending.
    pub fn link_ids(&self) -> Vec<AtomId> {
        self.atom_ids(true)
    }

    fn atom_ids(&self, links: bool) -> Vec<AtomId> {
        self.atoms
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                a.as_ref().and_then(|atom| {
                    (matches!(atom.kind, AtomKind::Link { .. }) == links)
                        .then_some(AtomId(i as u64))
                })
            })
            .collect()
    }

    /// Atoms co-occurring with `id` in at least one link.
    pub fn neighbors(&self, id: AtomId) -> Result<Vec<AtomId>> {
        let mut out = Vec::new();
        for &link in &self.atom(id)?.incidence {
            for &t in self.targets(link)? {
                if t != id && !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        Ok(out)
    }

    /// Serializes the atom space (tombstones included, so atom ids
    /// survive) to a JSON snapshot.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let dto: SnapshotDto = self
            .atoms
            .iter()
            .map(|slot| {
                slot.as_ref().map(|a| {
                    let label = self.interner.resolve(a.label).expect("interned").to_owned();
                    let targets = match &a.kind {
                        AtomKind::Node => None,
                        AtomKind::Link { targets } => {
                            Some(targets.iter().map(|t| t.raw()).collect())
                        }
                    };
                    (label, a.props.clone(), targets)
                })
            })
            .collect();
        serde_json::to_vec(&dto).expect("snapshot serialization cannot fail")
    }

    /// Restores an atom space from [`HyperGraph::to_snapshot`] bytes.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self> {
        let dto: SnapshotDto = serde_json::from_slice(bytes)
            .map_err(|e| GdmError::Storage(format!("bad hypergraph snapshot: {e}")))?;
        let mut g = HyperGraph::new();
        for slot in dto {
            let atom = slot.map(|(label, props, targets)| Atom {
                label: g.interner.intern(&label),
                props,
                kind: match targets {
                    None => AtomKind::Node,
                    Some(targets) => AtomKind::Link {
                        targets: targets.into_iter().map(AtomId).collect(),
                    },
                },
                incidence: Vec::new(),
            });
            g.atoms.push(atom);
        }
        // A link may target an atom with a higher id, so incidence is
        // recorded once every slot is filled.
        for i in 0..g.atoms.len() {
            match g.atoms[i].as_ref().map(|a| &a.kind) {
                Some(AtomKind::Link { targets }) => {
                    let targets = targets.clone();
                    g.link_count += 1;
                    g.record_incidence(AtomId(i as u64), &targets)?;
                }
                Some(AtomKind::Node) => g.node_count += 1,
                None => {}
            }
        }
        Ok(g)
    }

    fn atom(&self, id: AtomId) -> Result<&Atom> {
        self.atoms
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or_else(|| GdmError::NotFound(format!("atom {id}")))
    }
}

/// The two-section of the hypergraph: every *node atom* is a view
/// node and each k-ary link contributes directed edges between its
/// targets in tuple order (`t_i → t_j` for `i < j`, a self-loop where
/// a target repeats), all sharing the link's id and label. Link atoms
/// are not listed as view nodes (the classical 2-section has only
/// vertices), but links that appear as targets of other links still
/// traverse correctly — `contains_node` accepts any live atom.
impl GraphView for HyperGraph {
    fn is_directed(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn edge_count(&self) -> usize {
        self.link_ids()
            .into_iter()
            .map(|l| {
                let targets = self.targets(l).expect("live link");
                let k = targets.iter().filter(|&&t| self.is_node(t)).count();
                k * (k.saturating_sub(1)) / 2
            })
            .sum()
    }

    fn contains_node(&self, n: NodeId) -> bool {
        self.contains(AtomId(n.raw()))
    }

    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
        for (i, slot) in self.atoms.iter().enumerate() {
            if matches!(slot, Some(atom) if matches!(atom.kind, AtomKind::Node)) {
                f(NodeId(i as u64));
            }
        }
    }

    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        self.visit_pairs(n, true, f);
    }

    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        self.visit_pairs(n, false, f);
    }

    fn label_text(&self, sym: Symbol) -> Option<&str> {
        self.interner.resolve(sym)
    }

    fn visit_edge(&self, e: EdgeId, f: &mut dyn FnMut(EdgeRef)) {
        let targets = self.targets(AtomId(e.raw())).unwrap_or_default();
        let first = |&(i, t): &(usize, &AtomId)| !targets[..i].contains(t);
        for (_, t) in targets.iter().enumerate().filter(first) {
            self.visit_pairs(NodeId(t.raw()), true, &mut |r| {
                if r.id == e {
                    f(r);
                }
            });
        }
    }
}

impl HyperGraph {
    fn is_node(&self, id: AtomId) -> bool {
        self.contains(id) && !self.is_link(id)
    }

    /// The two-section's edges at node `n`. It is a graph over node
    /// atoms: a link targeting a link (an edge between edges) projects
    /// onto pairs among its node targets only.
    fn visit_pairs(&self, n: NodeId, forward: bool, f: &mut dyn FnMut(EdgeRef)) {
        let atom_id = AtomId(n.raw());
        let Ok(atom) = self.atom(atom_id) else {
            return;
        };
        if !matches!(atom.kind, AtomKind::Node) {
            return;
        }
        for &link in &atom.incidence {
            let Ok(targets) = self.targets(link) else {
                continue;
            };
            let label = self.atom(link).map(|a| a.label).ok();
            for (i, &a) in targets.iter().enumerate() {
                if a != atom_id {
                    continue;
                }
                let range = if forward {
                    &targets[i + 1..]
                } else {
                    &targets[..i]
                };
                // A target repeated in the range is a self-loop.
                for &other in range {
                    if !self.is_node(other) {
                        continue;
                    }
                    f(EdgeRef {
                        id: EdgeId(link.raw()),
                        from: n,
                        to: NodeId(other.raw()),
                        label,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::props;

    #[test]
    fn nodes_and_binary_links() {
        let mut h = HyperGraph::new();
        let a = h.add_node("person", props! { "name" => "ana" });
        let b = h.add_node("person", props! { "name" => "ben" });
        let l = h.add_link("knows", &[a, b], props! {}).unwrap();
        assert_eq!(h.node_count(), 2);
        assert_eq!(h.link_count(), 1);
        assert!(h.is_link(l));
        assert_eq!(h.targets(l).unwrap(), &[a, b]);
        assert_eq!(h.neighbors(a).unwrap(), vec![b]);
    }

    #[test]
    fn higher_order_relation() {
        // The paper motivates hypergraphs with higher-order relations:
        // a ternary "reaction" relating enzyme, substrate, product.
        let mut h = HyperGraph::new();
        let enzyme = h.add_node("protein", props! { "name" => "kinase" });
        let substrate = h.add_node("molecule", props! { "name" => "atp" });
        let product = h.add_node("molecule", props! { "name" => "adp" });
        let r = h
            .add_link("reaction", &[enzyme, substrate, product], props! {})
            .unwrap();
        assert_eq!(h.arity(r).unwrap(), 3);
        let n = h.neighbors(substrate).unwrap();
        assert!(n.contains(&enzyme) && n.contains(&product));
    }

    #[test]
    fn links_on_links() {
        // Table III's "edges between edges": annotate a relation.
        let mut h = HyperGraph::new();
        let a = h.add_node("n", props! {});
        let b = h.add_node("n", props! {});
        let knows = h.add_link("knows", &[a, b], props! {}).unwrap();
        let src = h.add_node("source", props! { "name" => "survey" });
        let provenance = h
            .add_link("derived_from", &[knows, src], props! {})
            .unwrap();
        assert!(h.is_link(provenance));
        assert_eq!(h.incidence(knows).unwrap(), &[provenance]);
        // The two-section is a graph over node atoms: `provenance`
        // targets a link, so it projects onto no pair.
        let view: &dyn GraphView = &h;
        assert_eq!(view.edge_count(), 1);
        assert!(view.out_edges(NodeId(src.raw())).is_empty());
        assert!(view.in_edges(NodeId(src.raw())).is_empty());
        assert!(view.out_edges(NodeId(knows.raw())).is_empty());
    }

    #[test]
    fn remove_refuses_then_cascades() {
        let mut h = HyperGraph::new();
        let a = h.add_node("n", props! {});
        let b = h.add_node("n", props! {});
        let l = h.add_link("rel", &[a, b], props! {}).unwrap();
        let meta = h.add_link("meta", &[l], props! {}).unwrap();
        assert!(h.remove_atom(a, false).is_err());
        h.remove_atom(a, true).unwrap();
        assert!(!h.contains(a));
        assert!(!h.contains(l), "referencing link removed");
        assert!(!h.contains(meta), "cascade is transitive");
        assert!(h.contains(b));
        assert_eq!(h.incidence(b).unwrap().len(), 0);
    }

    #[test]
    fn two_section_projects_links_to_edges() {
        let mut h = HyperGraph::new();
        let a = h.add_node("n", props! {});
        let b = h.add_node("n", props! {});
        let c = h.add_node("n", props! {});
        h.add_link("team", &[a, b, c], props! {}).unwrap();
        let view: &dyn GraphView = &h;
        assert_eq!(view.edge_count(), 3); // 3 choose 2
        let out_a: Vec<_> = view.out_edges(NodeId(a.raw()));
        assert_eq!(out_a.len(), 2); // a→b, a→c
        assert_eq!(view.in_degree(NodeId(c.raw())), 2);
    }

    #[test]
    fn two_section_resolves_labels() {
        let mut h = HyperGraph::new();
        let a = h.add_node("n", props! {});
        let b = h.add_node("n", props! {});
        h.add_link("collab", &[a, b], props! {}).unwrap();
        let view: &dyn GraphView = &h;
        let e = view.out_edges(NodeId(a.raw()));
        assert_eq!(view.label_text(e[0].label.unwrap()), Some("collab"));
    }

    #[test]
    fn properties_on_atoms() {
        let mut h = HyperGraph::new();
        let a = h.add_node("n", props! { "x" => 1 });
        h.set_property(a, "x", 2).unwrap();
        assert_eq!(h.property(a, "x"), Some(&Value::from(2)));
        assert_eq!(h.label(a).unwrap(), "n");
    }

    #[test]
    fn empty_links_are_rejected() {
        let mut h = HyperGraph::new();
        assert!(h.add_link("empty", &[], props! {}).is_err());
        let missing = AtomId(99);
        let a = h.add_node("n", props! {});
        assert!(h.add_link("dangling", &[a, missing], props! {}).is_err());
    }
}

//! The read abstraction the essential-query algorithms are generic over.
//!
//! Section IV of the paper evaluates every database against the same
//! essential queries; to mirror that, `gdm-algo` implements each query
//! once, generically over [`GraphView`], and every structure — simple,
//! attributed, RDF, hypergraph (via its 2-section), nested (via its
//! flattening) — exposes this view.
//!
//! The primitive operations are callback visitors rather than returned
//! iterators so implementations need neither boxed iterators (an
//! allocation per node visited) nor generic associated types; traversal
//! inner loops stay allocation-free.

use crate::id::{EdgeId, NodeId};
use crate::intern::Symbol;
use crate::value::Value;

/// Direction of traversal relative to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow edges from source to target.
    Outgoing,
    /// Follow edges from target to source.
    Incoming,
    /// Follow edges both ways.
    Both,
}

/// A lightweight edge descriptor flowing through traversals.
///
/// `from` is always the endpoint the traversal came from, and `to` the
/// endpoint it leads to — for undirected graphs and incoming-direction
/// visits, implementations orient the pair accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// The edge's identity.
    pub id: EdgeId,
    /// Endpoint the visit started from.
    pub from: NodeId,
    /// Endpoint the edge leads to.
    pub to: NodeId,
    /// Interned edge label, if the structure labels edges.
    pub label: Option<Symbol>,
}

impl EdgeRef {
    /// Constructs an unlabeled edge reference.
    pub fn new(id: EdgeId, from: NodeId, to: NodeId) -> Self {
        Self {
            id,
            from,
            to,
            label: None,
        }
    }

    /// Constructs a labeled edge reference.
    pub fn labeled(id: EdgeId, from: NodeId, to: NodeId, label: Symbol) -> Self {
        Self {
            id,
            from,
            to,
            label: Some(label),
        }
    }
}

/// Minimal read view of a graph: enough for adjacency, reachability,
/// pattern matching, and summarization queries.
pub trait GraphView {
    /// True when edges are directed.
    fn is_directed(&self) -> bool;

    /// Number of nodes — the paper's *order* of the graph.
    fn node_count(&self) -> usize;

    /// Number of edges — the paper's *size* of the graph.
    fn edge_count(&self) -> usize;

    /// True when `n` exists.
    fn contains_node(&self, n: NodeId) -> bool;

    /// Visits every node id.
    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId));

    /// Visits the edges leaving `n` (for undirected graphs: all
    /// incident edges, oriented with `from == n`).
    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef));

    /// Visits the edges arriving at `n` (for undirected graphs: all
    /// incident edges, oriented with `from == n`), oriented with
    /// `from == n` so traversal code can always step to `to`.
    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef));

    /// Resolves an interned label to text.
    fn label_text(&self, sym: Symbol) -> Option<&str>;

    // ---- provided conveniences ------------------------------------

    /// Visits the edges with id `e` from their sources (a hyperedge's
    /// projected pairs). The default scans every node's out-edges.
    fn visit_edge(&self, e: EdgeId, f: &mut dyn FnMut(EdgeRef)) {
        self.visit_nodes(&mut |n| {
            self.visit_out_edges(n, &mut |r| {
                if r.id == e {
                    f(r);
                }
            });
        });
    }

    /// Visits edges in the given `direction`. For undirected graphs all
    /// directions visit the same incident set.
    fn visit_edges_dir(&self, n: NodeId, direction: Direction, f: &mut dyn FnMut(EdgeRef)) {
        match direction {
            Direction::Outgoing => self.visit_out_edges(n, f),
            Direction::Incoming => self.visit_in_edges(n, f),
            Direction::Both => {
                if self.is_directed() {
                    self.visit_out_edges(n, f);
                    self.visit_in_edges(n, f);
                } else {
                    // Undirected: out already covers every incident edge.
                    self.visit_out_edges(n, f);
                }
            }
        }
    }

    /// Collects all node ids (allocates; convenience for non-hot paths).
    fn node_ids(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.node_count());
        self.visit_nodes(&mut |n| v.push(n));
        v
    }

    /// Collects the outgoing edges of `n`.
    fn out_edges(&self, n: NodeId) -> Vec<EdgeRef> {
        let mut v = Vec::new();
        self.visit_out_edges(n, &mut |e| v.push(e));
        v
    }

    /// Collects the incoming edges of `n`.
    fn in_edges(&self, n: NodeId) -> Vec<EdgeRef> {
        let mut v = Vec::new();
        self.visit_in_edges(n, &mut |e| v.push(e));
        v
    }

    /// Collects the distinct forward neighbors of `n` (duplicates from
    /// parallel edges removed, order preserved).
    fn out_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.visit_out_edges(n, &mut |e| {
            if !v.contains(&e.to) {
                v.push(e.to);
            }
        });
        v
    }

    /// Out-degree of `n` counting parallel edges.
    fn out_degree(&self, n: NodeId) -> usize {
        let mut d = 0;
        self.visit_out_edges(n, &mut |_| d += 1);
        d
    }

    /// In-degree of `n` counting parallel edges.
    fn in_degree(&self, n: NodeId) -> usize {
        let mut d = 0;
        self.visit_in_edges(n, &mut |_| d += 1);
        d
    }

    /// Total degree: in + out for directed graphs, incident count for
    /// undirected ones.
    fn degree(&self, n: NodeId) -> usize {
        if self.is_directed() {
            self.out_degree(n) + self.in_degree(n)
        } else {
            self.out_degree(n)
        }
    }
}

/// Structures whose nodes/edges carry labels and attribute values —
/// what pattern matching needs beyond raw adjacency.
pub trait AttributedView: GraphView {
    /// Primary label of a node, if the structure labels nodes.
    fn node_label(&self, n: NodeId) -> Option<Symbol>;

    /// Value of a node property.
    fn node_property(&self, n: NodeId, key: &str) -> Option<Value>;

    /// Value of an edge property.
    fn edge_property(&self, e: EdgeId, key: &str) -> Option<Value>;

    // ---- optional enumeration -------------------------------------

    /// Visits every property of node `n`. Structures that can enumerate
    /// their property maps override this so snapshot builders can copy
    /// attributes without knowing key names; the default visits nothing
    /// (point lookups via [`AttributedView::node_property`] still work).
    fn visit_node_properties(&self, n: NodeId, f: &mut dyn FnMut(&str, &Value)) {
        let _ = (n, f);
    }

    /// Visits every property of edge `e` (see
    /// [`AttributedView::visit_node_properties`]).
    fn visit_edge_properties(&self, e: EdgeId, f: &mut dyn FnMut(&str, &Value)) {
        let _ = (e, f);
    }

    // ---- candidate enumeration (query planning) -------------------

    /// All nodes satisfying a label constraint and a conjunction of
    /// property equality constraints (loose equality, missing
    /// properties never match), ascending by id — the candidate set a
    /// pattern variable with these constraints may bind.
    ///
    /// The default implementation is a full scan; structures with
    /// label or property value indexes override it (and
    /// [`AttributedView::candidate_estimate`]) so the query planner
    /// can seed pattern matching from index lookups instead.
    fn candidates(&self, label: Option<&str>, props: &[(String, Value)]) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.visit_nodes(&mut |n| {
            if let Some(want) = label {
                let ok = self
                    .node_label(n)
                    .and_then(|sym| self.label_text(sym))
                    .is_some_and(|t| t == want);
                if !ok {
                    return;
                }
            }
            let props_ok = props.iter().all(|(key, want)| {
                self.node_property(n, key)
                    .is_some_and(|got| got.loose_eq(want))
            });
            if props_ok {
                out.push(n);
            }
        });
        out
    }

    /// Upper bound on `candidates(label, props).len()` obtainable from
    /// an index, without scanning. `None` means no index covers any of
    /// the constraints and only a full scan can answer — the planner
    /// uses this to choose index seeding vs scanning per variable.
    /// The default (no indexes) is `None`.
    fn candidate_estimate(&self, label: Option<&str>, props: &[(String, Value)]) -> Option<usize> {
        let _ = (label, props);
        None
    }

    // ---- batch execution (vectorized backend) ---------------------

    /// Downcast hook for batch-at-a-time execution. A view backed by a
    /// dense columnar snapshot returns `Some(self)` here so the planned
    /// pattern matcher can recover the concrete type (via
    /// `Any::downcast_ref`) and run its vectorized operator pipeline
    /// directly against the snapshot's arrays, bypassing per-node
    /// dynamic dispatch. Views without a columnar backing return `None`
    /// (the default) and execute through the generic row-at-a-time
    /// search.
    fn batch_backend(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    /// A tiny hand-rolled view used to exercise the provided methods.
    struct Diamond {
        interner: Interner,
    }
    // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, plus a parallel 0 -> 1.
    const EDGES: &[(u64, u64)] = &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 1)];

    impl GraphView for Diamond {
        fn is_directed(&self) -> bool {
            true
        }
        fn node_count(&self) -> usize {
            4
        }
        fn edge_count(&self) -> usize {
            EDGES.len()
        }
        fn contains_node(&self, n: NodeId) -> bool {
            n.raw() < 4
        }
        fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
            (0..4).for_each(|i| f(NodeId(i)));
        }
        fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
            for (i, &(a, b)) in EDGES.iter().enumerate() {
                if a == n.raw() {
                    f(EdgeRef::new(EdgeId(i as u64), NodeId(a), NodeId(b)));
                }
            }
        }
        fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
            for (i, &(a, b)) in EDGES.iter().enumerate() {
                if b == n.raw() {
                    f(EdgeRef::new(EdgeId(i as u64), NodeId(b), NodeId(a)));
                }
            }
        }
        fn label_text(&self, sym: Symbol) -> Option<&str> {
            self.interner.resolve(sym)
        }
    }

    fn diamond() -> Diamond {
        Diamond {
            interner: Interner::new(),
        }
    }

    #[test]
    fn provided_out_neighbors_dedupes_parallel_edges() {
        let g = diamond();
        assert_eq!(g.out_neighbors(NodeId(0)), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn degrees_count_parallel_edges() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId(0)), 3); // two to n1, one to n2
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.degree(NodeId(1)), 3); // in: 2 parallel, out: 1
    }

    #[test]
    fn node_ids_collects_everything() {
        let g = diamond();
        assert_eq!(g.node_ids().len(), 4);
    }

    #[test]
    fn both_direction_unions_in_and_out() {
        let g = diamond();
        let mut seen = Vec::new();
        g.visit_edges_dir(NodeId(1), Direction::Both, &mut |e| seen.push(e.to));
        // Out: n3. In (oriented from n1): n0 twice (parallel edge).
        assert_eq!(seen.len(), 3);
        assert!(seen.contains(&NodeId(3)));
        assert!(seen.contains(&NodeId(0)));
    }

    #[test]
    fn in_edges_are_oriented_from_the_queried_node() {
        let g = diamond();
        for e in g.in_edges(NodeId(3)) {
            assert_eq!(e.from, NodeId(3));
        }
    }
}

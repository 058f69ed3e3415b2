//! Reachability queries (Section IV.2): fixed-length paths, shortest
//! paths and reachable sets.
//!
//! The paper distinguishes *fixed-length paths* ("contain a fixed
//! number of nodes and edges") from *regular simple paths* (module
//! [`crate::regular`]) and calls shortest path "a related but more
//! complicated problem". A fixed-length path is the special case of a
//! regular simple path whose expression is `len` wildcard hops, so
//! [`fixed_length_paths`] runs the one simple-path search,
//! [`regular_simple_paths`]. Simple-path enumeration is exponential in
//! general, so it runs under an [`ExecutionGuard`] and fails loudly
//! with [`GdmError::Interrupted`](gdm_core::GdmError::Interrupted)
//! instead of silently truncating.

use crate::regular::{regular_simple_paths, LabelRegex};
use crate::traverse::bfs;
use gdm_core::{Direction, EdgeId, FxHashMap, FxHashSet, GraphView, NodeId, Result};
use gdm_govern::ExecutionGuard;
use std::ops::ControlFlow;

/// A path: `nodes.len() == edges.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed edges, in order.
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// Path length = number of edges (the paper's "length of a path").
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for the trivial single-node path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Target node.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }
}

/// Enumerates all **simple** paths (no repeated node) of exactly `len`
/// edges from `a` to `b`: [`regular_simple_paths`] over `len` wildcard
/// hops, so it runs under `guard` the same way — one node visit per
/// search step, one row per path, and a tripped budget is
/// [`GdmError::Interrupted`](gdm_core::GdmError::Interrupted), the
/// honest outcome for a problem whose output can be exponential.
pub fn fixed_length_paths(
    g: &dyn GraphView,
    a: NodeId,
    b: NodeId,
    len: usize,
    guard: &ExecutionGuard,
) -> Result<Vec<Path>> {
    if !g.contains_node(a) || !g.contains_node(b) {
        return Ok(Vec::new());
    }
    // A simple path has fewer edges than the graph has nodes, so hops
    // past `node_count` are never reached: capping `len` there keeps
    // rows and charges and sizes the automaton to the graph.
    let hops = LabelRegex::hops(len.min(g.node_count()));
    regular_simple_paths(g, a, b, &hops, guard)
}

/// Unweighted shortest path from `a` to `b`, if any, under `guard`:
/// a breadth-first walk of the out-edges, charging one node visit per
/// expanded node, stopped at the first arrival at `b`; a trip returns
/// [`GdmError::Interrupted`](gdm_core::GdmError::Interrupted). Each
/// step of the path is the first edge, in view order, from the node
/// whose expansion first reached the next one.
pub fn shortest_path(
    g: &dyn GraphView,
    a: NodeId,
    b: NodeId,
    guard: &ExecutionGuard,
) -> Result<Option<Path>> {
    if !g.contains_node(b) {
        return Ok(None);
    }
    // A reached node maps to the node whose expansion reached it.
    let mut parent = FxHashMap::default();
    let at_b = |u, t: NodeId, _| {
        parent.insert(t.raw(), u);
        if t == b {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    if !bfs(g, Direction::Outgoing, None, [a], u32::MAX, guard, at_b)?.contains(&b.raw()) {
        return Ok(None);
    }
    let (mut nodes, mut at) = (vec![b], b);
    while at != a {
        at = parent[&at.raw()];
        nodes.push(at);
    }
    nodes.reverse();
    let step = |w: &[NodeId]| {
        let mut first = None;
        g.visit_out_edges(w[0], &mut |e| {
            first = first.or((e.to == w[1]).then_some(e.id))
        });
        first.expect("a parent has an edge to its child")
    };
    let edges = nodes.windows(2).map(step).collect();
    Ok(Some(Path { nodes, edges }))
}

/// Distance between nodes: length of the shortest path, if connected.
pub fn distance(g: &dyn GraphView, a: NodeId, b: NodeId) -> Option<usize> {
    shortest_path(g, a, b, &ExecutionGuard::unlimited())
        .expect("an unlimited guard never interrupts")
        .map(|p| p.len())
}

/// All nodes reachable from `a` within the given direction, including
/// `a` itself, under `guard` (one node visit per expanded node).
pub fn reachable_set(
    g: &dyn GraphView,
    a: NodeId,
    direction: Direction,
    guard: &ExecutionGuard,
) -> Result<FxHashSet<u64>> {
    let walk = |_, _, _| ControlFlow::Continue(());
    bfs(g, direction, None, [a], u32::MAX, guard, walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular::regular_path_exists;
    use gdm_core::InterruptReason;
    use gdm_govern::Limits;
    use gdm_graphs::SimpleGraph;

    fn diamond() -> (SimpleGraph, Vec<NodeId>) {
        let mut g = SimpleGraph::directed();
        let n: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        g.add_edge(n[0], n[1]).unwrap();
        g.add_edge(n[0], n[2]).unwrap();
        g.add_edge(n[1], n[3]).unwrap();
        g.add_edge(n[2], n[3]).unwrap();
        g.add_edge(n[3], n[4]).unwrap();
        (g, n)
    }

    #[test]
    fn walks_may_repeat_nodes() {
        let mut g = SimpleGraph::directed();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        let unlimited = ExecutionGuard::unlimited();
        // a→b→a→b is a length-3 walk.
        let three = LabelRegex::compile(". . .").unwrap();
        assert!(regular_path_exists(&g, a, b, &three, &unlimited).unwrap());
        // But not a simple path.
        assert!(fixed_length_paths(&g, a, b, 3, &unlimited)
            .unwrap()
            .is_empty());
    }

    /// The paths, node visits and rows of the fixed-length search on a
    /// 12-node complete digraph, from node 0 to node 11, pinned.
    #[test]
    fn fixed_length_paths_on_a_complete_digraph_charge_pinned_totals() {
        let mut g = SimpleGraph::directed();
        let n: Vec<NodeId> = (0..12).map(|_| g.add_node()).collect();
        for &a in &n {
            for &b in n.iter().filter(|&&b| b != a) {
                g.add_edge(a, b).unwrap();
            }
        }
        for (len, paths, visits) in [(3, 90, 1_112), (5, 5_040, 64_472)] {
            let guard = ExecutionGuard::unlimited();
            let found = fixed_length_paths(&g, n[0], n[11], len, &guard).unwrap();
            assert_eq!(found.len(), paths, "len {len}");
            assert!(found.iter().all(|p| p.len() == len && p.target() == n[11]));
            let spent = guard.budget();
            assert_eq!(spent.node_visits(), visits, "len {len}");
            assert_eq!(spent.rows_emitted(), paths as u64, "len {len}");
        }
    }

    #[test]
    fn fixed_length_simple_path_enumeration() {
        let (g, n) = diamond();
        let paths = fixed_length_paths(&g, n[0], n[3], 2, &ExecutionGuard::unlimited()).unwrap();
        assert_eq!(paths.len(), 2, "both diamond arms");
        for p in &paths {
            assert_eq!(p.len(), 2);
            assert_eq!(p.source(), n[0]);
            assert_eq!(p.target(), n[3]);
        }
    }

    /// A length past the graph's order searches as the graph allows, with
    /// an automaton no larger than the graph: the same node visits as
    /// an uncapped automaton, and no path.
    #[test]
    fn lengths_past_the_node_count_charge_the_uncapped_search() {
        let mut g = SimpleGraph::directed();
        let n: Vec<NodeId> = (0..6).map(|_| g.add_node()).collect();
        for &a in &n {
            for &b in n.iter().filter(|&&b| b != a) {
                g.add_edge(a, b).unwrap();
            }
        }
        let uncapped = ExecutionGuard::unlimited();
        let hops = LabelRegex::hops(10);
        assert!(regular_simple_paths(&g, n[0], n[5], &hops, &uncapped)
            .unwrap()
            .is_empty());
        for len in [6, 10, usize::MAX] {
            let guard = ExecutionGuard::unlimited();
            assert!(fixed_length_paths(&g, n[0], n[5], len, &guard)
                .unwrap()
                .is_empty());
            let (spent, want) = (guard.budget(), uncapped.budget());
            assert_eq!(spent.node_visits(), want.node_visits(), "len {len}");
        }
    }

    #[test]
    fn budget_exhaustion_is_loud() {
        let (g, n) = diamond();
        let guard = ExecutionGuard::new(Limits::none().with_node_visits(2));
        let err = fixed_length_paths(&g, n[0], n[4], 3, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Budget));
    }

    #[test]
    fn bfs_shortest_path() {
        let (g, n) = diamond();
        let p = shortest_path(&g, n[0], n[4], &ExecutionGuard::unlimited())
            .unwrap()
            .unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.nodes.first(), Some(&n[0]));
        assert_eq!(p.nodes.last(), Some(&n[4]));
        assert_eq!(distance(&g, n[0], n[4]), Some(3));
        assert_eq!(distance(&g, n[4], n[0]), None);
        assert_eq!(distance(&g, n[1], n[1]), Some(0));
    }

    #[test]
    fn reachable_set_directions() {
        let (g, n) = diamond();
        let reach = |from: NodeId, dir| {
            reachable_set(&g, from, dir, &ExecutionGuard::unlimited())
                .unwrap()
                .len()
        };
        assert_eq!(reach(n[0], Direction::Outgoing), 5);
        assert_eq!(reach(n[4], Direction::Outgoing), 1);
        assert_eq!(reach(n[4], Direction::Incoming), 5);
    }
}

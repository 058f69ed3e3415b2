//! Adjacency queries (Section IV.1).
//!
//! "Two nodes are adjacent (or neighbors) when there is an edge
//! between them. Similarly, two edges are adjacent when they share a
//! common node." The queries here are the paper's two exemplars:
//! basic node/edge adjacency tests and the k-neighborhood of a node.

use crate::traverse::bfs;
use gdm_core::{Direction, EdgeId, GraphView, NodeId, Result};
use gdm_govern::ExecutionGuard;
use std::ops::ControlFlow;

/// True when `a` and `b` are connected by an edge in either direction.
pub fn nodes_adjacent(g: &dyn GraphView, a: NodeId, b: NodeId) -> bool {
    let mut found = false;
    g.visit_edges_dir(a, Direction::Both, &mut |e| {
        if e.to == b {
            found = true;
        }
    });
    // Self-adjacency requires an explicit self-loop, covered above.
    found
}

/// True when edges `e1` and `e2` share an endpoint.
///
/// Runs over endpoint lookups supplied by the caller because
/// [`GraphView`] does not expose edge-id → endpoints directly; each
/// structure provides its own lookup (see the engine facades).
pub fn edges_adjacent(
    endpoints: impl Fn(EdgeId) -> Option<(NodeId, NodeId)>,
    e1: EdgeId,
    e2: EdgeId,
) -> Option<bool> {
    let (a1, b1) = endpoints(e1)?;
    let (a2, b2) = endpoints(e2)?;
    Some(a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2)
}

/// The k-neighborhood of `n`: every node reachable within `k` hops
/// (excluding `n` itself), in BFS order, under `guard` (one node visit
/// per expanded node). `direction` selects which edges count as
/// neighborhood edges.
pub fn k_neighborhood(
    g: &dyn GraphView,
    n: NodeId,
    k: usize,
    direction: Direction,
    guard: &ExecutionGuard,
) -> Result<Vec<NodeId>> {
    let mut hood = Vec::new();
    let max = u32::try_from(k).unwrap_or(u32::MAX);
    bfs(g, direction, None, [n], max, guard, |_, t, depth| {
        if depth > 0 {
            hood.push(t);
        }
        ControlFlow::Continue(())
    })?;
    Ok(hood)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_graphs::SimpleGraph;

    fn k_neighborhood(g: &SimpleGraph, n: NodeId, k: usize, dir: Direction) -> Vec<NodeId> {
        super::k_neighborhood(g, n, k, dir, &ExecutionGuard::unlimited()).unwrap()
    }

    fn path_graph(n: usize) -> (SimpleGraph, Vec<NodeId>) {
        let mut g = SimpleGraph::directed();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        (g, nodes)
    }

    #[test]
    fn direct_neighbors_are_adjacent() {
        let (g, n) = path_graph(3);
        assert!(nodes_adjacent(&g, n[0], n[1]));
        assert!(nodes_adjacent(&g, n[1], n[0]), "either direction counts");
        assert!(!nodes_adjacent(&g, n[0], n[2]));
    }

    #[test]
    fn self_adjacency_requires_a_loop() {
        let mut g = SimpleGraph::directed();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        assert!(!nodes_adjacent(&g, a, a));
        g.add_edge(a, a).unwrap();
        assert!(nodes_adjacent(&g, a, a));
    }

    #[test]
    fn edge_adjacency_by_shared_endpoint() {
        let mut g = SimpleGraph::directed();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        let e1 = g.add_edge(a, b).unwrap();
        let e2 = g.add_edge(b, c).unwrap();
        let e3 = g.add_edge(c, d).unwrap();
        let lookup = |e| g.edge_endpoints(e).ok();
        assert_eq!(edges_adjacent(lookup, e1, e2), Some(true));
        assert_eq!(edges_adjacent(lookup, e1, e3), Some(false));
        assert_eq!(edges_adjacent(lookup, e1, EdgeId(99)), None);
    }

    #[test]
    fn k_neighborhood_grows_with_k() {
        let (g, n) = path_graph(5);
        assert_eq!(k_neighborhood(&g, n[0], 1, Direction::Outgoing), vec![n[1]]);
        assert_eq!(
            k_neighborhood(&g, n[0], 3, Direction::Outgoing),
            vec![n[1], n[2], n[3]]
        );
        assert!(k_neighborhood(&g, n[0], 0, Direction::Outgoing).is_empty());
    }

    #[test]
    fn k_neighborhood_excludes_center_even_with_cycles() {
        let mut g = SimpleGraph::directed();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        let hood = k_neighborhood(&g, a, 5, Direction::Outgoing);
        assert_eq!(hood, vec![b]);
    }

    #[test]
    fn k_neighborhood_direction_matters() {
        let (g, n) = path_graph(3);
        assert!(k_neighborhood(&g, n[2], 2, Direction::Outgoing).is_empty());
        assert_eq!(
            k_neighborhood(&g, n[2], 2, Direction::Incoming),
            vec![n[1], n[0]]
        );
        assert_eq!(k_neighborhood(&g, n[1], 1, Direction::Both).len(), 2);
    }
}

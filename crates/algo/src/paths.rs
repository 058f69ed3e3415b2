//! Reachability queries (Section IV.2): fixed-length paths, shortest
//! paths and reachable sets.
//!
//! The paper distinguishes *fixed-length paths* ("contain a fixed
//! number of nodes and edges") from *regular simple paths* (module
//! [`crate::regular`]) and calls shortest path "a related but more
//! complicated problem". Fixed-length **simple-path enumeration** is
//! exponential in general, so the enumerator runs under an
//! [`ExecutionGuard`] and fails loudly with
//! [`GdmError::Interrupted`](gdm_core::GdmError::Interrupted) instead
//! of silently truncating.

use crate::traverse::bfs;
use gdm_core::{Direction, EdgeId, FxHashMap, FxHashSet, GraphView, NodeId, Result};
use gdm_govern::{ExecutionGuard, Meter};
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
/// edges from `a` to `b`, by backtracking under `guard`: the search
/// charges one node visit per search step and one row per path, and
/// settles before returning, so a tripped budget is
/// [`GdmError::Interrupted`](gdm_core::GdmError::Interrupted) — the
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
    let meter = guard.meter();
    let mut out = Vec::new();
    search_fixed(g, b, len, &meter, &mut vec![a], &mut Vec::new(), &mut out)?;
    meter.settle()?;
    Ok(out)
}

fn search_fixed(
    g: &dyn GraphView,
    target: NodeId,
    len: usize,
    meter: &Meter<'_>,
    nodes: &mut Vec<NodeId>,
    edges: &mut Vec<EdgeId>,
    out: &mut Vec<Path>,
) -> Result<()> {
    meter.nodes(1)?;
    let current = *nodes.last().expect("non-empty stack");
    if edges.len() == len {
        if current == target {
            meter.rows(1)?;
            out.push(Path {
                nodes: nodes.clone(),
                edges: edges.clone(),
            });
        }
        return Ok(());
    }
    // Collect successors first: visit_out_edges borrows g immutably and
    // recursion re-borrows, which is fine, but we must not hold the
    // closure across the recursive call.
    let mut next = Vec::new();
    g.visit_out_edges(current, &mut |e| next.push(e));
    for e in next {
        if nodes.contains(&e.to) {
            continue; // simple paths only
        }
        nodes.push(e.to);
        edges.push(e.id);
        search_fixed(g, target, len, meter, nodes, edges, out)?;
        nodes.pop();
        edges.pop();
    }
    Ok(())
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
    use crate::regular::{regular_path_exists, LabelRegex};
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

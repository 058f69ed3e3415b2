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

use gdm_core::{Direction, EdgeId, EdgeRef, FxHashMap, FxHashSet, GraphView, NodeId, Result};
use gdm_govern::{ExecutionGuard, Meter};
use std::collections::VecDeque;

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

/// Unweighted shortest path from `a` to `b` (BFS), if any, under
/// `guard`: the BFS charges one node visit per dequeued node and one
/// edge visit per traversed edge, and a trip returns
/// [`GdmError::Interrupted`](gdm_core::GdmError::Interrupted).
pub fn shortest_path(
    g: &dyn GraphView,
    a: NodeId,
    b: NodeId,
    guard: &ExecutionGuard,
) -> Result<Option<Path>> {
    if !g.contains_node(a) || !g.contains_node(b) {
        return Ok(None);
    }
    if a == b {
        return Ok(Some(Path {
            nodes: vec![a],
            edges: vec![],
        }));
    }
    let mut parent: FxHashMap<u64, EdgeRef> = FxHashMap::default();
    let mut queue = VecDeque::from([a]);
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    seen.insert(a.raw());
    let meter = guard.meter();
    while let Some(n) = queue.pop_front() {
        meter.nodes(1)?;
        let mut hit = false;
        let mut tripped = Ok(());
        g.visit_out_edges(n, &mut |e| {
            if tripped.is_err() {
                return;
            }
            tripped = meter.edges(1);
            if tripped.is_err() {
                return;
            }
            if seen.insert(e.to.raw()) {
                parent.insert(e.to.raw(), e);
                queue.push_back(e.to);
            }
            if e.to == b {
                hit = true;
            }
        });
        tripped?;
        if hit {
            // First discovery of b is at minimal depth (BFS order).
            break;
        }
    }
    meter.settle()?;
    Ok(reconstruct(&parent, a, b))
}

/// Distance between nodes: length of the shortest path, if connected.
pub fn distance(g: &dyn GraphView, a: NodeId, b: NodeId) -> Option<usize> {
    shortest_path(g, a, b, &ExecutionGuard::unlimited())
        .expect("an unlimited guard never interrupts")
        .map(|p| p.len())
}

/// All nodes reachable from `a` within the given direction, including
/// `a` itself (used by components and eccentricity computations).
pub fn reachable_set(g: &dyn GraphView, a: NodeId, direction: Direction) -> FxHashSet<u64> {
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    if !g.contains_node(a) {
        return seen;
    }
    seen.insert(a.raw());
    let mut queue = VecDeque::from([a]);
    while let Some(n) = queue.pop_front() {
        g.visit_edges_dir(n, direction, &mut |e| {
            if seen.insert(e.to.raw()) {
                queue.push_back(e.to);
            }
        });
    }
    seen
}

fn reconstruct(parent: &FxHashMap<u64, EdgeRef>, a: NodeId, b: NodeId) -> Option<Path> {
    let mut nodes = vec![b];
    let mut edges = Vec::new();
    let mut cur = b;
    while cur != a {
        let e = parent.get(&cur.raw())?;
        edges.push(e.id);
        cur = e.from;
        nodes.push(cur);
    }
    nodes.reverse();
    edges.reverse();
    Some(Path { nodes, edges })
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
        assert_eq!(reachable_set(&g, n[0], Direction::Outgoing).len(), 5);
        assert_eq!(reachable_set(&g, n[4], Direction::Outgoing).len(), 1);
        assert_eq!(reachable_set(&g, n[4], Direction::Incoming).len(), 5);
    }
}

//! Reachability queries (Section IV.2): reachability tests,
//! fixed-length paths, and shortest paths.
//!
//! The paper distinguishes *fixed-length paths* ("contain a fixed
//! number of nodes and edges") from *regular simple paths* (module
//! [`crate::regular`]) and calls shortest path "a related but more
//! complicated problem". Fixed-length **simple-path enumeration** is
//! exponential in general, so the enumerator takes an explicit budget
//! and fails loudly instead of silently truncating.

use gdm_core::{
    Direction, EdgeId, EdgeRef, FxHashMap, FxHashSet, GdmError, GraphView, NodeId, Result,
    WeightedView,
};
use gdm_govern::ExecutionGuard;
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

/// Reachability test: is there a directed path from `a` to `b`?
pub fn is_reachable(g: &dyn GraphView, a: NodeId, b: NodeId) -> bool {
    if !g.contains_node(a) || !g.contains_node(b) {
        return false;
    }
    if a == b {
        return true;
    }
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut queue = VecDeque::from([a]);
    seen.insert(a.raw());
    while let Some(n) = queue.pop_front() {
        let mut found = false;
        g.visit_out_edges(n, &mut |e| {
            if e.to == b {
                found = true;
            }
            if seen.insert(e.to.raw()) {
                queue.push_back(e.to);
            }
        });
        if found {
            return true;
        }
    }
    false
}

/// True when a *walk* (nodes may repeat) of exactly `len` edges leads
/// from `a` to `b`. Computed by level-set dynamic programming, so it
/// is polynomial even when path enumeration would explode.
pub fn fixed_length_path_exists(g: &dyn GraphView, a: NodeId, b: NodeId, len: usize) -> bool {
    if !g.contains_node(a) || !g.contains_node(b) {
        return false;
    }
    let mut frontier: FxHashSet<u64> = FxHashSet::default();
    frontier.insert(a.raw());
    for _ in 0..len {
        let mut next: FxHashSet<u64> = FxHashSet::default();
        for &n in &frontier {
            g.visit_out_edges(NodeId(n), &mut |e| {
                next.insert(e.to.raw());
            });
        }
        if next.is_empty() {
            return false;
        }
        frontier = next;
    }
    frontier.contains(&b.raw())
}

/// Enumerates all **simple** paths (no repeated node) of exactly `len`
/// edges from `a` to `b`, by backtracking. `budget` bounds the number
/// of search steps; exceeding it returns
/// [`GdmError::BudgetExhausted`] — the honest outcome for a problem
/// whose output can be exponential.
pub fn fixed_length_paths(
    g: &dyn GraphView,
    a: NodeId,
    b: NodeId,
    len: usize,
    budget: usize,
) -> Result<Vec<Path>> {
    if !g.contains_node(a) || !g.contains_node(b) {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut steps = 0usize;
    let mut node_stack = vec![a];
    let mut edge_stack: Vec<EdgeId> = Vec::new();
    search_fixed(
        g,
        b,
        len,
        budget,
        &mut steps,
        &mut node_stack,
        &mut edge_stack,
        &mut out,
    )?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn search_fixed(
    g: &dyn GraphView,
    target: NodeId,
    len: usize,
    budget: usize,
    steps: &mut usize,
    nodes: &mut Vec<NodeId>,
    edges: &mut Vec<EdgeId>,
    out: &mut Vec<Path>,
) -> Result<()> {
    *steps += 1;
    if *steps > budget {
        return Err(GdmError::BudgetExhausted(format!(
            "fixed-length path search exceeded {budget} steps"
        )));
    }
    let current = *nodes.last().expect("non-empty stack");
    if edges.len() == len {
        if current == target {
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
        search_fixed(g, target, len, budget, steps, nodes, edges, out)?;
        nodes.pop();
        edges.pop();
    }
    Ok(())
}

/// Unweighted shortest path from `a` to `b` (BFS), if any, under
/// `guard`: the BFS charges one node visit per dequeued node and one
/// edge visit per traversed edge, and a trip returns
/// [`GdmError::Interrupted`].
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

/// Bidirectional BFS: expands frontiers from both endpoints (forward
/// from `a`, backward from `b`) and meets in the middle — the search
/// visits O(b^(d/2)) nodes instead of O(b^d). Returns a shortest
/// path, the same length as [`shortest_path`]'s answer.
///
/// Correctness note: a level is always expanded *completely* and the
/// meeting node with the smallest opposite-side depth is chosen —
/// stopping at the first meet can overshoot by the depth spread within
/// one level.
pub fn bidirectional_shortest_path(g: &dyn GraphView, a: NodeId, b: NodeId) -> Option<Path> {
    if !g.contains_node(a) || !g.contains_node(b) {
        return None;
    }
    if a == b {
        return Some(Path {
            nodes: vec![a],
            edges: vec![],
        });
    }
    let mut fwd_parent: FxHashMap<u64, EdgeRef> = FxHashMap::default();
    let mut bwd_parent: FxHashMap<u64, EdgeRef> = FxHashMap::default();
    let mut fwd_depth: FxHashMap<u64, usize> = FxHashMap::default();
    let mut bwd_depth: FxHashMap<u64, usize> = FxHashMap::default();
    fwd_depth.insert(a.raw(), 0);
    bwd_depth.insert(b.raw(), 0);
    let mut fwd_frontier = vec![a];
    let mut bwd_frontier = vec![b];
    let mut fwd_level = 0usize;
    let mut bwd_level = 0usize;

    let meet: NodeId = loop {
        if fwd_frontier.is_empty() || bwd_frontier.is_empty() {
            return None;
        }
        let forward = fwd_frontier.len() <= bwd_frontier.len();
        let mut next = Vec::new();
        // The best meet of this level: smallest opposite-side depth.
        let mut best: Option<(usize, NodeId)> = None;
        if forward {
            fwd_level += 1;
            for &n in &fwd_frontier {
                g.visit_out_edges(n, &mut |e| {
                    if let std::collections::hash_map::Entry::Vacant(slot) =
                        fwd_depth.entry(e.to.raw())
                    {
                        slot.insert(fwd_level);
                        fwd_parent.insert(e.to.raw(), e);
                        next.push(e.to);
                        if let Some(&db) = bwd_depth.get(&e.to.raw()) {
                            if best.is_none_or(|(d, _)| db < d) {
                                best = Some((db, e.to));
                            }
                        }
                    }
                });
            }
            fwd_frontier = next;
        } else {
            bwd_level += 1;
            for &n in &bwd_frontier {
                g.visit_in_edges(n, &mut |e| {
                    // e.from == n (nearer b), e.to == predecessor.
                    if let std::collections::hash_map::Entry::Vacant(slot) =
                        bwd_depth.entry(e.to.raw())
                    {
                        slot.insert(bwd_level);
                        bwd_parent.insert(e.to.raw(), e);
                        next.push(e.to);
                        if let Some(&df) = fwd_depth.get(&e.to.raw()) {
                            if best.is_none_or(|(d, _)| df < d) {
                                best = Some((df, e.to));
                            }
                        }
                    }
                });
            }
            bwd_frontier = next;
        }
        if let Some((_, m)) = best {
            break m;
        }
    };

    // Stitch: a … meet via forward parents, meet … b via backward
    // parents (each backward entry at node x is the edge oriented with
    // `from` = x's successor toward b).
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    let mut cur = meet;
    while cur != a {
        let e = fwd_parent.get(&cur.raw())?;
        edges.push(e.id);
        nodes.push(cur);
        cur = e.from;
    }
    nodes.push(a);
    nodes.reverse();
    edges.reverse();
    cur = meet;
    while cur != b {
        let e = bwd_parent.get(&cur.raw())?;
        edges.push(e.id);
        cur = e.from;
        nodes.push(cur);
    }
    Some(Path { nodes, edges })
}

/// Weighted shortest path (Dijkstra) using [`WeightedView`] weights.
/// Negative weights are rejected.
pub fn dijkstra<G: WeightedView + ?Sized>(
    g: &G,
    a: NodeId,
    b: NodeId,
) -> Result<Option<(Path, f64)>> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    if !g.contains_node(a) || !g.contains_node(b) {
        return Ok(None);
    }

    struct Entry {
        cost: f64,
        node: NodeId,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.cost == other.cost
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse for a min-heap.
            other.cost.total_cmp(&self.cost)
        }
    }

    let mut dist: FxHashMap<u64, f64> = FxHashMap::default();
    let mut parent: FxHashMap<u64, EdgeRef> = FxHashMap::default();
    let mut heap = BinaryHeap::new();
    dist.insert(a.raw(), 0.0);
    heap.push(Entry { cost: 0.0, node: a });
    while let Some(Entry { cost, node }) = heap.pop() {
        if node == b {
            let path = reconstruct(&parent, a, b).expect("parent chain complete");
            return Ok(Some((path, cost)));
        }
        if dist.get(&node.raw()).is_some_and(|&d| cost > d) {
            continue; // stale entry
        }
        let mut edges = Vec::new();
        g.visit_out_edges(node, &mut |e| edges.push(e));
        for e in edges {
            let w = g.edge_weight(&e);
            if w < 0.0 {
                return Err(GdmError::InvalidArgument(format!(
                    "negative edge weight {w} on {}",
                    e.id
                )));
            }
            let next_cost = cost + w;
            if dist.get(&e.to.raw()).is_none_or(|&d| next_cost < d) {
                dist.insert(e.to.raw(), next_cost);
                parent.insert(e.to.raw(), e);
                heap.push(Entry {
                    cost: next_cost,
                    node: e.to,
                });
            }
        }
    }
    Ok(None)
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
    use gdm_core::props;
    use gdm_graphs::{PropertyGraph, SimpleGraph};

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
    fn reachability() {
        let (g, n) = diamond();
        assert!(is_reachable(&g, n[0], n[4]));
        assert!(!is_reachable(&g, n[4], n[0]));
        assert!(is_reachable(&g, n[2], n[2]), "trivially reachable");
        assert!(!is_reachable(&g, n[0], NodeId(99)));
    }

    #[test]
    fn fixed_length_walk_existence() {
        let (g, n) = diamond();
        assert!(fixed_length_path_exists(&g, n[0], n[3], 2));
        assert!(!fixed_length_path_exists(&g, n[0], n[3], 1));
        assert!(fixed_length_path_exists(&g, n[0], n[4], 3));
        assert!(!fixed_length_path_exists(&g, n[0], n[4], 2));
    }

    #[test]
    fn walks_may_repeat_nodes() {
        let mut g = SimpleGraph::directed();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        // a→b→a→b is a length-3 walk.
        assert!(fixed_length_path_exists(&g, a, b, 3));
        // But not a simple path.
        assert!(fixed_length_paths(&g, a, b, 3, 1000).unwrap().is_empty());
    }

    #[test]
    fn fixed_length_simple_path_enumeration() {
        let (g, n) = diamond();
        let paths = fixed_length_paths(&g, n[0], n[3], 2, 1000).unwrap();
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
        let err = fixed_length_paths(&g, n[0], n[4], 3, 2).unwrap_err();
        assert!(matches!(err, GdmError::BudgetExhausted(_)));
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
    fn dijkstra_prefers_cheap_detour() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("v", props! {});
        let b = g.add_node("v", props! {});
        let c = g.add_node("v", props! {});
        g.add_edge(a, b, "e", props! { "weight" => 10.0 }).unwrap();
        g.add_edge(a, c, "e", props! { "weight" => 1.0 }).unwrap();
        g.add_edge(c, b, "e", props! { "weight" => 2.0 }).unwrap();
        let (path, cost) = dijkstra(&g, a, b).unwrap().unwrap();
        assert_eq!(cost, 3.0);
        assert_eq!(path.nodes, vec![a, c, b]);
        // BFS ignores weights and goes direct.
        assert_eq!(distance(&g, a, b), Some(1));
    }

    #[test]
    fn dijkstra_rejects_negative_weights() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("v", props! {});
        let b = g.add_node("v", props! {});
        g.add_edge(a, b, "e", props! { "weight" => -1.0 }).unwrap();
        assert!(dijkstra(&g, a, b).is_err());
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("v", props! {});
        let b = g.add_node("v", props! {});
        assert!(dijkstra(&g, a, b).unwrap().is_none());
    }

    #[test]
    fn bidirectional_agrees_with_bfs_on_the_diamond() {
        let (g, n) = diamond();
        for (s, t) in [(0usize, 4usize), (0, 3), (1, 4), (4, 0), (2, 2)] {
            let uni = distance(&g, n[s], n[t]);
            let bi = bidirectional_shortest_path(&g, n[s], n[t]).map(|p| p.len());
            assert_eq!(uni, bi, "({s}, {t})");
        }
        // The stitched path is a real walk.
        let p = bidirectional_shortest_path(&g, n[0], n[4]).unwrap();
        assert_eq!(p.source(), n[0]);
        assert_eq!(p.target(), n[4]);
        assert_eq!(p.nodes.len(), p.edges.len() + 1);
        for w in p.nodes.windows(2) {
            let mut ok = false;
            g.visit_out_edges(w[0], &mut |e| ok |= e.to == w[1]);
            assert!(ok, "gap between {} and {}", w[0], w[1]);
        }
    }

    #[test]
    fn bidirectional_on_long_chain() {
        let mut g = SimpleGraph::directed();
        let n: Vec<NodeId> = (0..200).map(|_| g.add_node()).collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let p = bidirectional_shortest_path(&g, n[0], n[199]).unwrap();
        assert_eq!(p.len(), 199);
        assert!(bidirectional_shortest_path(&g, n[199], n[0]).is_none());
    }

    #[test]
    fn reachable_set_directions() {
        let (g, n) = diamond();
        assert_eq!(reachable_set(&g, n[0], Direction::Outgoing).len(), 5);
        assert_eq!(reachable_set(&g, n[4], Direction::Outgoing).len(), 1);
        assert_eq!(reachable_set(&g, n[4], Direction::Incoming).len(), 5);
    }
}

//! Analysis functions (the paper's Table V "Analysis" column).
//!
//! "Data analysis is supported in terms of special functions (e.g.,
//! shortest path) for querying graph properties." Shortest paths live
//! in [`crate::paths`]; this module adds the social-network-analysis
//! staples the surveyed systems advertised (AllegroGraph's "Social
//! Network Analysis" feature set, DEX's "information retrieval"
//! exploration): connected components, triangle counting, clustering
//! coefficients, and degree centrality.

use crate::traverse::bfs;
use gdm_core::{Direction, FxHashMap, FxHashSet, GraphView, NodeId, Result};
use gdm_govern::ExecutionGuard;
use std::ops::ControlFlow;

/// Weakly connected components (direction ignored), under `guard`
/// (one node visit per node). Returns one sorted node list per
/// component, largest first.
pub fn connected_components(g: &dyn GraphView, guard: &ExecutionGuard) -> Result<Vec<Vec<NodeId>>> {
    let mut roots = Vec::new();
    g.visit_nodes(&mut |n| roots.push(n));
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    let collect = |_, n, depth| {
        if depth == 0 {
            components.push(Vec::new());
        }
        components.last_mut().expect("a root opens it").push(n);
        ControlFlow::Continue(())
    };
    bfs(g, Direction::Both, None, roots, u32::MAX, guard, collect)?;
    for comp in &mut components {
        comp.sort_unstable();
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    Ok(components)
}

/// Undirected neighbor sets (self-loops dropped), the building block
/// for triangles and clustering.
fn neighbor_sets(g: &dyn GraphView) -> FxHashMap<u64, FxHashSet<u64>> {
    let mut sets: FxHashMap<u64, FxHashSet<u64>> = FxHashMap::default();
    let mut nodes = Vec::new();
    g.visit_nodes(&mut |n| nodes.push(n));
    for n in nodes {
        let entry = sets.entry(n.raw()).or_default();
        let mut local = std::mem::take(entry);
        g.visit_edges_dir(n, Direction::Both, &mut |e| {
            if e.to != n {
                local.insert(e.to.raw());
            }
        });
        sets.insert(n.raw(), local);
    }
    sets
}

/// Number of triangles (3-cycles in the underlying undirected graph).
pub fn triangle_count(g: &dyn GraphView) -> usize {
    let sets = neighbor_sets(g);
    let mut count = 0usize;
    for (&n, neigh) in &sets {
        for &m in neigh {
            if m <= n {
                continue;
            }
            let Some(mset) = sets.get(&m) else { continue };
            for &k in neigh {
                if k > m && mset.contains(&k) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Local clustering coefficient of `n`: fraction of neighbor pairs
/// that are themselves connected. `None` for degree < 2.
pub fn clustering_coefficient(g: &dyn GraphView, n: NodeId) -> Option<f64> {
    coefficient(&neighbor_sets(g), n)
}

/// [`clustering_coefficient`] over prebuilt [`neighbor_sets`].
fn coefficient(sets: &FxHashMap<u64, FxHashSet<u64>>, n: NodeId) -> Option<f64> {
    let neigh = sets.get(&n.raw())?;
    let k = neigh.len();
    if k < 2 {
        return None;
    }
    let mut closed = 0usize;
    let neigh_vec: Vec<u64> = neigh.iter().copied().collect();
    for (i, &a) in neigh_vec.iter().enumerate() {
        for &b in &neigh_vec[i + 1..] {
            if sets.get(&a).is_some_and(|s| s.contains(&b)) {
                closed += 1;
            }
        }
    }
    Some(closed as f64 / (k * (k - 1) / 2) as f64)
}

/// Average clustering coefficient over nodes with degree ≥ 2, summed
/// in view order.
pub fn average_clustering(g: &dyn GraphView) -> Option<f64> {
    let sets = neighbor_sets(g);
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut nodes = Vec::new();
    g.visit_nodes(&mut |n| nodes.push(n));
    for n in nodes {
        if let Some(c) = coefficient(&sets, n) {
            sum += c;
            count += 1;
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Degree centrality ranking: `(node, degree)` sorted descending, ties
/// by node id.
pub fn degree_centrality(g: &dyn GraphView, top: usize) -> Vec<(NodeId, usize)> {
    let mut scored = Vec::new();
    g.visit_nodes(&mut |n| scored.push((n, g.degree(n))));
    scored.sort_by_key(|&(n, d)| (std::cmp::Reverse(d), n));
    scored.truncate(top);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_graphs::SimpleGraph;

    fn two_triangles_and_isolate() -> (SimpleGraph, Vec<NodeId>) {
        let mut g = SimpleGraph::directed();
        let n: Vec<NodeId> = (0..7).map(|_| g.add_node()).collect();
        // Triangle 0-1-2, triangle 3-4-5 connected by 2→3; node 6 isolated.
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            g.add_edge(n[a], n[b]).unwrap();
        }
        (g, n)
    }

    #[test]
    fn components() {
        let (g, n) = two_triangles_and_isolate();
        let comps = connected_components(&g, &ExecutionGuard::unlimited()).unwrap();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 6);
        assert_eq!(comps[1], vec![n[6]]);
    }

    #[test]
    fn triangles() {
        let (g, _) = two_triangles_and_isolate();
        assert_eq!(triangle_count(&g), 2);
    }

    #[test]
    fn triangles_ignore_direction_and_loops() {
        let mut g = SimpleGraph::directed();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(c, b).unwrap(); // mixed directions
        g.add_edge(a, c).unwrap();
        g.add_edge(a, a).unwrap(); // self-loop must not crash or count
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn clustering() {
        let (g, n) = two_triangles_and_isolate();
        // Node 0's neighbors {1, 2} are connected: coefficient 1.
        assert_eq!(clustering_coefficient(&g, n[0]), Some(1.0));
        // Node 2's neighbors {0, 1, 3}: only (0,1) connected → 1/3.
        let c2 = clustering_coefficient(&g, n[2]).unwrap();
        assert!((c2 - 1.0 / 3.0).abs() < 1e-9);
        // Isolated node has no coefficient.
        assert_eq!(clustering_coefficient(&g, n[6]), None);
        let avg = average_clustering(&g).unwrap();
        assert!(avg > 0.5 && avg <= 1.0);
    }

    #[test]
    fn centrality_ranking() {
        let (g, n) = two_triangles_and_isolate();
        let top = degree_centrality(&g, 2);
        assert_eq!(top.len(), 2);
        // Nodes 2 and 3 have degree 3 (triangle + bridge).
        assert_eq!(top[0].0, n[2]);
        assert_eq!(top[1].0, n[3]);
        assert_eq!(top[0].1, 3);
    }

    #[test]
    fn empty_graph() {
        let g = SimpleGraph::directed();
        assert!(connected_components(&g, &ExecutionGuard::unlimited())
            .unwrap()
            .is_empty());
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(average_clustering(&g), None);
        assert!(degree_centrality(&g, 5).is_empty());
    }
}

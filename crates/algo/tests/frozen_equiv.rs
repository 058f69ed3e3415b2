//! Property-based equivalence: a [`FrozenGraph`] must answer every
//! essential query exactly as the live view it was frozen from, and
//! the parallel executors must agree with their sequential
//! counterparts — on arbitrary graphs, including self-loops, parallel
//! edges, disconnected pieces, and both orientations.
//!
//! The CSR snapshot is built by *recording* what the live view's
//! visitors yield, so these tests pin the whole contract: adjacency,
//! reachability, shortest paths (unidirectional and bidirectional),
//! regular paths (visitor path and the label-run fast path), pattern
//! matching, summarization, and the analysis functions.

use gdm_algo::analysis::{average_clustering, connected_components, triangle_count};
use gdm_algo::pattern::{canonical, match_pattern, Pattern, PatternNode};
use gdm_algo::summary::eccentricity;
use gdm_algo::vectorized::match_pattern_forced_morsels;
use gdm_algo::{
    bfs_order, bidirectional_shortest_path, degree_stats, diameter, distance,
    fixed_length_path_exists, frozen_regular_path_exists, graph_order, graph_size, is_reachable,
    k_neighborhood, nodes_adjacent, par_connected_components, par_diameter, par_eccentricities,
    par_triangle_count, regular_path_exists, shortest_path, FrozenGraph, LabelRegex,
};
use gdm_core::{Direction, GraphView, NodeId, PropertyMap, Value};
use gdm_graphs::{PropertyGraph, SimpleGraph};
use proptest::prelude::*;

const EDGE_LABELS: [&str; 3] = ["a", "b", "c"];
const NODE_LABELS: [&str; 3] = ["person", "place", "thing"];

/// Builds a `SimpleGraph` from drawn data: endpoints are reduced
/// modulo `n`, so self-loops and parallel edges occur naturally.
fn build_simple(directed: bool, n: usize, raw_edges: &[(u64, u64, usize)]) -> SimpleGraph {
    let mut g = if directed {
        SimpleGraph::directed()
    } else {
        SimpleGraph::undirected()
    };
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
    for &(a, b, lab) in raw_edges {
        let (from, to) = (nodes[a as usize % n], nodes[b as usize % n]);
        if lab < EDGE_LABELS.len() {
            g.add_labeled_edge(from, to, EDGE_LABELS[lab]).unwrap();
        } else {
            g.add_edge(from, to).unwrap();
        }
    }
    g
}

/// Builds an attributed graph with labeled nodes for the pattern
/// matching and attribute-preservation properties.
fn build_property(n: usize, raw_edges: &[(u64, u64, usize)]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| {
            g.add_node(
                NODE_LABELS[i % NODE_LABELS.len()],
                PropertyMap::new().with("idx", Value::Int(i as i64)),
            )
        })
        .collect();
    for &(a, b, lab) in raw_edges {
        let (from, to) = (nodes[a as usize % n], nodes[b as usize % n]);
        g.add_edge(
            from,
            to,
            EDGE_LABELS[lab % EDGE_LABELS.len()],
            PropertyMap::new(),
        )
        .unwrap();
    }
    g
}

fn all_directions() -> [Direction; 3] {
    [Direction::Outgoing, Direction::Incoming, Direction::Both]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every structural query agrees between a live `SimpleGraph` and
    /// its frozen snapshot — including exact visit/BFS orders, not
    /// just set equality.
    #[test]
    fn frozen_matches_live_on_random_graphs(
        directed in prop::bool::ANY,
        n in 1usize..12,
        raw_edges in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0usize..4), 0..40),
    ) {
        let g = build_simple(directed, n, &raw_edges);
        let fz = FrozenGraph::freeze(&g);

        prop_assert_eq!(graph_order(&g), graph_order(&fz));
        prop_assert_eq!(graph_size(&g), graph_size(&fz));
        prop_assert_eq!(degree_stats(&g), degree_stats(&fz));
        prop_assert_eq!(connected_components(&g), connected_components(&fz));
        prop_assert_eq!(triangle_count(&g), triangle_count(&fz));
        prop_assert_eq!(average_clustering(&g), average_clustering(&fz));

        let nodes: Vec<NodeId> = g.node_ids();
        for &a in &nodes {
            for dir in all_directions() {
                prop_assert_eq!(eccentricity(&g, a, dir), eccentricity(&fz, a, dir));
                prop_assert_eq!(
                    k_neighborhood(&g, a, 2, dir),
                    k_neighborhood(&fz, a, 2, dir)
                );
            }
            prop_assert_eq!(g.out_degree(a), fz.out_degree(a));
            prop_assert_eq!(g.in_degree(a), fz.in_degree(a));
            prop_assert_eq!(g.degree(a), fz.degree(a));
            for dir in all_directions() {
                prop_assert_eq!(bfs_order(&g, a, dir), bfs_order(&fz, a, dir));
            }
            for &b in &nodes {
                prop_assert_eq!(nodes_adjacent(&g, a, b), nodes_adjacent(&fz, a, b));
                prop_assert_eq!(is_reachable(&g, a, b), is_reachable(&fz, a, b));
                prop_assert_eq!(distance(&g, a, b), distance(&fz, a, b));
                prop_assert_eq!(fz.frozen_distance(a, b), distance(&g, a, b));
                prop_assert_eq!(
                    shortest_path(&g, a, b).map(|p| p.len()),
                    shortest_path(&fz, a, b).map(|p| p.len())
                );
                // The bidirectional variant must agree with plain BFS
                // on both representations (the undirected self-loop
                // regression lives here).
                prop_assert_eq!(
                    bidirectional_shortest_path(&g, a, b).map(|p| p.len()),
                    distance(&g, a, b)
                );
                prop_assert_eq!(
                    bidirectional_shortest_path(&fz, a, b).map(|p| p.len()),
                    distance(&fz, a, b)
                );
                prop_assert_eq!(
                    fixed_length_path_exists(&g, a, b, 3),
                    fixed_length_path_exists(&fz, a, b, 3)
                );
            }
        }
        for dir in all_directions() {
            prop_assert_eq!(diameter(&g, dir), diameter(&fz, dir));
        }
    }

    /// Regular path queries agree three ways: live visitor, frozen
    /// visitor, and the frozen label-run fast path.
    #[test]
    fn frozen_regular_paths_match_live(
        directed in prop::bool::ANY,
        n in 1usize..10,
        raw_edges in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0usize..4), 0..30),
    ) {
        let g = build_simple(directed, n, &raw_edges);
        let fz = FrozenGraph::freeze(&g);
        let exprs = ["a", "a*", "a b", "(a|b)*", "a (a|b)* c", "b+"];
        for expr in exprs {
            let re = LabelRegex::compile(expr).unwrap();
            for &a in &g.node_ids() {
                for &b in &g.node_ids() {
                    let live = regular_path_exists(&g, a, b, &re);
                    prop_assert_eq!(live, regular_path_exists(&fz, a, b, &re));
                    prop_assert_eq!(live, frozen_regular_path_exists(&fz, a, b, &re));
                }
            }
        }
    }

    /// The parallel executors return exactly what the sequential
    /// algorithms return on the same snapshot, at 1 and 4 threads.
    #[test]
    fn parallel_agrees_with_sequential(
        directed in prop::bool::ANY,
        n in 1usize..14,
        raw_edges in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0usize..4), 0..50),
    ) {
        let g = build_simple(directed, n, &raw_edges);
        let fz = FrozenGraph::freeze(&g);
        for threads in [1usize, 4] {
            for dir in all_directions() {
                prop_assert_eq!(par_diameter(&fz, dir, threads), diameter(&fz, dir));
                let ecc = par_eccentricities(&fz, dir, threads);
                for (dense, &e) in ecc.iter().enumerate() {
                    prop_assert_eq!(
                        Some(e),
                        eccentricity(&fz, fz.node_at(dense as u32), dir)
                    );
                }
            }
            prop_assert_eq!(
                par_connected_components(&fz, threads),
                connected_components(&fz)
            );
            prop_assert_eq!(par_triangle_count(&fz, threads), triangle_count(&fz));
        }
    }

    /// Pattern matching agrees between live attributed graphs, frozen
    /// snapshots, and the prefiltered parallel matcher — with binding
    /// lists compared verbatim (same order), not just canonically.
    #[test]
    fn pattern_matching_agrees_on_property_graphs(
        n in 1usize..9,
        raw_edges in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0usize..3), 0..25),
        shape in 0usize..4,
    ) {
        let g = build_property(n, &raw_edges);
        let fz = FrozenGraph::freeze_attributed(&g);

        let mut pat = Pattern::new();
        match shape {
            0 => {
                // x:person -a-> y (any label)
                let x = pat.node(PatternNode::var("x").with_label("person"));
                let y = pat.node(PatternNode::var("y"));
                pat.edge(x, y, Some("a")).unwrap();
            }
            1 => {
                // unlabeled two-hop chain
                let x = pat.node(PatternNode::var("x"));
                let y = pat.node(PatternNode::var("y"));
                let z = pat.node(PatternNode::var("z"));
                pat.edge(x, y, None).unwrap();
                pat.edge(y, z, Some("b")).unwrap();
            }
            2 => {
                // undirected pair with node labels on both ends
                let x = pat.node(PatternNode::var("x").with_label("place"));
                let y = pat.node(PatternNode::var("y").with_label("thing"));
                pat.edge_undirected(x, y, None).unwrap();
            }
            _ => {
                // triangle
                let x = pat.node(PatternNode::var("x"));
                let y = pat.node(PatternNode::var("y"));
                let z = pat.node(PatternNode::var("z"));
                pat.edge(x, y, None).unwrap();
                pat.edge(y, z, None).unwrap();
                pat.edge(z, x, None).unwrap();
            }
        }

        let live = match_pattern(&g, &pat);
        let frozen_seq = match_pattern(&fz, &pat);
        prop_assert_eq!(canonical(&live), canonical(&frozen_seq));
        // Forced morsels at every worker count, with the helpers the
        // count asks for and with none to be had (the caller claims
        // every morsel itself): the one-worker table byte for byte, and
        // the same charges settled into the guard.
        let domains = gdm_algo::auto_domains(&fz, &pat);
        let forced = |workers: usize| {
            let guard = gdm_govern::ExecutionGuard::unlimited();
            let table = match_pattern_forced_morsels(&fz, &pat, &domains, workers, &guard)
                .expect("an unlimited guard never interrupts");
            let budget = guard.budget();
            (table, budget.node_visits(), budget.rows_emitted())
        };
        let inline = forced(1);
        // Set equality with the reference matcher: the planned order
        // differs from its scan order.
        prop_assert_eq!(canonical(&inline.0.to_bindings()), canonical(&frozen_seq));
        for workers in 1usize..=4 {
            prop_assert_eq!(&forced(workers), &inline, "workers={}", workers);
            let none_free = gdm_algo::parallel::hold_helper_permits();
            prop_assert_eq!(&forced(workers), &inline, "workers={}, no helper", workers);
            drop(none_free);
        }
    }
}

/// Deterministic regression: undirected self-loops must count once per
/// incidence-convention everywhere, and bidirectional search must
/// agree with plain BFS in their presence.
#[test]
fn undirected_self_loop_agreement() {
    let mut g = SimpleGraph::undirected();
    let a = g.add_node();
    let b = g.add_node();
    let c = g.add_node();
    g.add_labeled_edge(a, a, "a").unwrap();
    g.add_labeled_edge(a, b, "b").unwrap();
    g.add_labeled_edge(c, c, "a").unwrap();
    let fz = FrozenGraph::freeze(&g);

    for &n in &[a, b, c] {
        assert_eq!(g.degree(n), fz.degree(n));
        assert_eq!(g.out_degree(n), fz.out_degree(n));
        assert_eq!(g.in_degree(n), fz.in_degree(n));
    }
    for &x in &[a, b, c] {
        for &y in &[a, b, c] {
            let d = distance(&g, x, y);
            assert_eq!(d, distance(&fz, x, y));
            assert_eq!(bidirectional_shortest_path(&g, x, y).map(|p| p.len()), d);
            assert_eq!(bidirectional_shortest_path(&fz, x, y).map(|p| p.len()), d);
        }
    }
    // The self-loop keeps `c` at eccentricity 0, not 1.
    assert_eq!(eccentricity(&fz, c, Direction::Both), Some(0));
    assert_eq!(distance(&fz, c, c), Some(0));
}

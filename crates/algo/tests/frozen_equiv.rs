//! Property-based equivalence: a [`FrozenGraph`] must answer every
//! essential query exactly as the live view it was frozen from, and
//! the morsel-parallel pattern pipeline must agree with its one-worker
//! run — on arbitrary graphs, including self-loops, parallel edges,
//! disconnected pieces, and both orientations.
//!
//! The CSR snapshot is built by *recording* what the live view's
//! visitors yield, so these tests pin the whole contract: adjacency,
//! reachability, shortest paths, regular paths, pattern matching,
//! summarization, and the analysis functions.

use gdm_algo::analysis::{average_clustering, connected_components, triangle_count};
use gdm_algo::pattern::{canonical, match_pattern, Pattern, PatternNode};
use gdm_algo::summary::eccentricity;
use gdm_algo::vectorized::match_pattern_forced_morsels;
use gdm_algo::{
    degree_stats, diameter, distance, graph_order, graph_size, incremental_refreeze,
    k_neighborhood, nodes_adjacent, regular_path_exists, shortest_path, FrozenGraph, LabelRegex,
    Traversal,
};
use gdm_core::{
    AttributedView, DeltaTracker, Direction, EdgeId, EdgeRef, GraphView, NodeId, PropertyMap,
    Symbol, Value,
};
use gdm_govern::ExecutionGuard;
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

/// Property values whose loose equalities are easy to get wrong:
/// `Int` / `Float` pairs, signed zeros, integers past 2⁵³ that share an
/// `f64` image, `NaN`, strings that look like numbers, nested lists.
fn edge_case_values() -> Vec<Value> {
    let two53 = 1i64 << 53;
    vec![
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(3),
        Value::Float(3.0),
        Value::Int(two53),
        Value::Int(two53 + 1),
        Value::Float(two53 as f64),
        Value::Float(f64::NAN),
        Value::from("3"),
        Value::from("a"),
        Value::Bool(true),
        Value::Bool(false),
        Value::Null,
        Value::List(vec![Value::Int(1), Value::List(vec![Value::Float(-0.0)])]),
        Value::List(vec![Value::Int(1), Value::List(vec![Value::Float(0.0)])]),
    ]
}

/// A live graph seen through the `AttributedView` default candidate
/// scan: everything forwards except `candidates`, which stays the
/// trait's scan.
struct Scanned<'a>(&'a PropertyGraph);

impl GraphView for Scanned<'_> {
    fn is_directed(&self) -> bool {
        self.0.is_directed()
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn edge_count(&self) -> usize {
        self.0.edge_count()
    }
    fn contains_node(&self, n: NodeId) -> bool {
        self.0.contains_node(n)
    }
    fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
        self.0.visit_nodes(f)
    }
    fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        self.0.visit_out_edges(n, f)
    }
    fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        self.0.visit_in_edges(n, f)
    }
    fn label_text(&self, sym: Symbol) -> Option<&str> {
        self.0.label_text(sym)
    }
}

impl AttributedView for Scanned<'_> {
    fn node_label(&self, n: NodeId) -> Option<Symbol> {
        self.0.node_label(n)
    }
    fn node_property(&self, n: NodeId, key: &str) -> Option<Value> {
        self.0.node_property(n, key)
    }
    fn edge_property(&self, e: EdgeId, key: &str) -> Option<Value> {
        self.0.edge_property(e, key)
    }
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
        let unlimited = ExecutionGuard::unlimited();
        // Walks of exactly three edges.
        let three_hops = LabelRegex::compile(". . .").unwrap();

        prop_assert_eq!(graph_order(&g), graph_order(&fz));
        prop_assert_eq!(graph_size(&g), graph_size(&fz));
        prop_assert_eq!(degree_stats(&g), degree_stats(&fz));
        prop_assert_eq!(
            connected_components(&g, &unlimited).unwrap(),
            connected_components(&fz, &unlimited).unwrap()
        );
        prop_assert_eq!(triangle_count(&g), triangle_count(&fz));
        prop_assert_eq!(average_clustering(&g), average_clustering(&fz));

        let nodes: Vec<NodeId> = g.node_ids();
        for &a in &nodes {
            for dir in all_directions() {
                prop_assert_eq!(
                    eccentricity(&g, a, dir, &unlimited).unwrap(),
                    eccentricity(&fz, a, dir, &unlimited).unwrap()
                );
                prop_assert_eq!(
                    k_neighborhood(&g, a, 2, dir, &unlimited).unwrap(),
                    k_neighborhood(&fz, a, 2, dir, &unlimited).unwrap()
                );
            }
            prop_assert_eq!(g.out_degree(a), fz.out_degree(a));
            prop_assert_eq!(g.in_degree(a), fz.in_degree(a));
            prop_assert_eq!(g.degree(a), fz.degree(a));
            for dir in all_directions() {
                let bfs = Traversal::new(a).direction(dir);
                prop_assert_eq!(bfs.run(&g), bfs.run(&fz));
                let only_a = bfs.relationships(&["a"]);
                prop_assert_eq!(only_a.run(&g), only_a.run(&fz));
            }
            for &b in &nodes {
                prop_assert_eq!(nodes_adjacent(&g, a, b), nodes_adjacent(&fz, a, b));
                prop_assert_eq!(distance(&g, a, b), distance(&fz, a, b));
                prop_assert_eq!(
                    shortest_path(&g, a, b, &unlimited).unwrap(),
                    shortest_path(&fz, a, b, &unlimited).unwrap()
                );
                prop_assert_eq!(
                    regular_path_exists(&g, a, b, &three_hops, &unlimited).unwrap(),
                    regular_path_exists(&fz, a, b, &three_hops, &unlimited).unwrap()
                );
            }
        }
        for dir in all_directions() {
            prop_assert_eq!(
                diameter(&g, dir, &unlimited).unwrap(),
                diameter(&fz, dir, &unlimited).unwrap()
            );
        }
    }

    /// Regular path queries agree between the live view and its
    /// snapshot.
    #[test]
    fn frozen_regular_paths_match_live(
        directed in prop::bool::ANY,
        n in 1usize..10,
        raw_edges in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0usize..4), 0..30),
    ) {
        let g = build_simple(directed, n, &raw_edges);
        let fz = FrozenGraph::freeze(&g);
        let exprs = ["a", "a*", "a b", "(a|b)*", "a (a|b)* c", "b+"];
        let unlimited = ExecutionGuard::unlimited();
        for expr in exprs {
            let re = LabelRegex::compile(expr).unwrap();
            for &a in &g.node_ids() {
                for &b in &g.node_ids() {
                    prop_assert_eq!(
                        regular_path_exists(&g, a, b, &re, &unlimited).unwrap(),
                        regular_path_exists(&fz, a, b, &re, &unlimited).unwrap()
                    );
                }
            }
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
        let fz = FrozenGraph::freeze(&g);

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

        let live = match_pattern(&g, &pat, &ExecutionGuard::unlimited()).unwrap();
        let frozen_seq = match_pattern(&fz, &pat, &ExecutionGuard::unlimited()).unwrap();
        prop_assert_eq!(canonical(&live), canonical(&frozen_seq));
        // Forced morsels at every worker count, with the helpers the
        // count asks for and with none to be had (the caller claims
        // every morsel itself): the one-worker table byte for byte, and
        // the same charges settled into the guard.
        let domains = gdm_algo::auto_domains(&fz, &pat);
        let forced = |workers: usize| {
            let guard = ExecutionGuard::unlimited();
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
        }
    }
    // The self-loop keeps `c` at eccentricity 0, not 1.
    assert_eq!(
        eccentricity(&fz, c, Direction::Both, &ExecutionGuard::unlimited()).unwrap(),
        Some(0)
    );
    assert_eq!(distance(&fz, c, c), Some(0));
}

/// One candidate request: the label (`None`, the three node labels, or
/// one no node carries) and `(key, value)` constraints drawn from
/// `k0`, `k1` and a key no node carries.
type Request = (usize, Vec<(usize, usize)>);

fn request(
    values: &[Value],
    (label, constraints): &Request,
) -> (Option<&'static str>, Vec<(String, Value)>) {
    let label = match label {
        0 => None,
        4 => Some("alien"),
        l => Some(NODE_LABELS[l - 1]),
    };
    let keys = ["k0", "k1", "absent"];
    let props = constraints
        .iter()
        .map(|&(k, v)| (keys[k].to_owned(), values[v].clone()))
        .collect();
    (label, props)
}

/// The snapshot's equality index answers `{key: value}` candidates
/// exactly as the trait's default scan over the live graph — same ids,
/// ascending — and its estimate bounds the answer; also after an
/// incremental re-freeze that rewrites one value and swap-removes a
/// node.
fn check_candidates(
    g: &PropertyGraph,
    fz: &FrozenGraph,
    values: &[Value],
    requests: &[Request],
) -> Result<(), TestCaseError> {
    for req in requests {
        let (label, props) = request(values, req);
        let got = fz.candidates(label, &props);
        prop_assert_eq!(
            &got,
            &Scanned(g).candidates(label, &props),
            "{:?} {:?}",
            label,
            props
        );
        prop_assert!(got.windows(2).all(|w| w[0].raw() < w[1].raw()));
        let estimate = fz.candidate_estimate(label, &props);
        if label.is_some() || !props.is_empty() {
            prop_assert!(
                estimate.is_some_and(|e| e >= got.len()),
                "{:?} < {}",
                estimate,
                got.len()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn equality_index_matches_the_default_scan(
        nodes in prop::collection::vec(
            (0usize..3, prop::option::of(0usize..16), prop::option::of(0usize..16)),
            1..16,
        ),
        raw_edges in prop::collection::vec((0u64..1_000, 0u64..1_000), 0..24),
        requests in prop::collection::vec(
            (0usize..5, prop::collection::vec((0usize..3, 0usize..16), 0..3)),
            1..12,
        ),
        rewrite in (0usize..16, 0usize..16),
        delete in 0usize..16,
    ) {
        let values = edge_case_values();
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = nodes
            .iter()
            .map(|&(label, k0, k1)| {
                let mut props = PropertyMap::new();
                if let Some(v) = k0 {
                    props = props.with("k0", values[v].clone());
                }
                if let Some(v) = k1 {
                    props = props.with("k1", values[v].clone());
                }
                g.add_node(NODE_LABELS[label], props)
            })
            .collect();
        for &(a, b) in &raw_edges {
            let (from, to) = (ids[a as usize % ids.len()], ids[b as usize % ids.len()]);
            g.add_edge(from, to, "a", PropertyMap::new()).unwrap();
        }
        let fz = FrozenGraph::freeze(&g);
        check_candidates(&g, &fz, &values, &requests)?;

        let mut tracker = DeltaTracker::new();
        tracker.reset(fz.epoch());
        let touched = ids[rewrite.0 % ids.len()];
        g.set_node_property(touched, "k0", values[rewrite.1].clone()).unwrap();
        tracker.touch_node(touched.raw());
        let gone = ids[delete % ids.len()];
        g.remove_node(gone).unwrap();
        tracker.remove_node(gone.raw());
        let refrozen = incremental_refreeze(&g, &fz, tracker.peek());
        check_candidates(&g, &refrozen, &values, &requests)?;
    }
}

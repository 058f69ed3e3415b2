#![allow(clippy::needless_range_loop)] // (i, j) index pairs against the oracle matrix

//! Property tests for the essential-query algorithms: the fast
//! implementations are checked against brute-force oracles on random
//! graphs, and the codec's order preservation is checked against the
//! value ordering.

use graph_db_models::algo::paths::{distance, shortest_path};
use graph_db_models::algo::pattern::{
    canonical, match_pattern, match_pattern_brute, Pattern, PatternNode,
};
use graph_db_models::algo::regular::{regular_path_exists, LabelRegex};
use graph_db_models::core::{GraphView, NodeId, Value};
use graph_db_models::govern::ExecutionGuard;
use graph_db_models::graphs::SimpleGraph;
use graph_db_models::storage::codec;
use proptest::prelude::*;

/// A random small directed graph with labels from a 3-letter alphabet.
fn graph_strategy() -> impl Strategy<Value = (SimpleGraph, usize)> {
    (
        2usize..10,
        prop::collection::vec((0usize..10, 0usize..10, 0u8..3), 0..25),
    )
        .prop_map(|(n, edges)| {
            let mut g = SimpleGraph::directed();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
            for (a, b, l) in edges {
                let label = ["a", "b", "c"][l as usize];
                g.add_labeled_edge(nodes[a % n], nodes[b % n], label)
                    .expect("nodes exist");
            }
            (g, n)
        })
}

/// Floyd–Warshall oracle for reachability and distance.
#[allow(clippy::needless_range_loop)] // index pairs are the point here
fn oracle_distances(g: &SimpleGraph, n: usize) -> Vec<Vec<Option<usize>>> {
    let mut dist = vec![vec![None; n]; n];
    for (i, row) in dist.iter_mut().enumerate().take(n) {
        row[i] = Some(0);
    }
    for i in 0..n {
        g.visit_out_edges(NodeId(i as u64), &mut |e| {
            let j = e.to.raw() as usize;
            if i != j {
                dist[i][j] = Some(1);
            }
        });
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if let (Some(a), Some(b)) = (dist[i][k], dist[k][j]) {
                    if dist[i][j].is_none_or(|d| d > a + b) {
                        dist[i][j] = Some(a + b);
                    }
                }
            }
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bfs_matches_floyd_warshall((g, n) in graph_strategy()) {
        let oracle = oracle_distances(&g, n);
        for i in 0..n {
            for j in 0..n {
                let a = NodeId(i as u64);
                let b = NodeId(j as u64);
                prop_assert_eq!(distance(&g, a, b), oracle[i][j], "{} -> {}", i, j);
                let path = shortest_path(&g, a, b, &ExecutionGuard::unlimited()).unwrap();
                if let Some(p) = path {
                    prop_assert_eq!(Some(p.len()), oracle[i][j]);
                    // The path must be a real walk.
                    for w in p.nodes.windows(2) {
                        let mut connected = false;
                        g.visit_out_edges(w[0], &mut |e| connected |= e.to == w[1]);
                        prop_assert!(connected);
                    }
                }
            }
        }
    }

    #[test]
    fn vf2_matches_brute_force((g, _n) in graph_strategy()) {
        // Patterns: single edge, wedge, triangle — with label filters.
        let patterns: Vec<Pattern> = {
            let mut out = Vec::new();
            for labels in [[None, None], [Some("a"), None], [Some("a"), Some("b")]] {
                let mut p = Pattern::new();
                let x = p.node(PatternNode::var("x"));
                let y = p.node(PatternNode::var("y"));
                let z = p.node(PatternNode::var("z"));
                p.edge(x, y, labels[0]).expect("valid");
                p.edge(y, z, labels[1]).expect("valid");
                out.push(p);
            }
            let mut tri = Pattern::new();
            let x = tri.node(PatternNode::var("x"));
            let y = tri.node(PatternNode::var("y"));
            let z = tri.node(PatternNode::var("z"));
            tri.edge(x, y, None).expect("valid");
            tri.edge(y, z, None).expect("valid");
            tri.edge(z, x, None).expect("valid");
            out.push(tri);
            out
        };
        for p in &patterns {
            let fast = canonical(&match_pattern(&g, p, &ExecutionGuard::unlimited()).unwrap());
            let slow = canonical(&match_pattern_brute(&g, p));
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn regular_walks_match_bounded_enumeration((g, n) in graph_strategy()) {
        // Oracle: enumerate all walks up to length 6 and test words.
        let regexes = ["a b", "a+", "(a | b) c?", ". . ."];
        for src in 0..n.min(3) {
            for dst in 0..n.min(3) {
                let a = NodeId(src as u64);
                let b = NodeId(dst as u64);
                for rtext in regexes {
                    let regex = LabelRegex::compile(rtext).expect("valid");
                    let fast =
                        regular_path_exists(&g, a, b, &regex, &ExecutionGuard::unlimited()).unwrap();
                    let slow = oracle_walk_exists(&g, a, b, &regex, 6);
                    // The product automaton has no length bound, so it
                    // may accept where the bounded oracle cannot — but
                    // the regexes above cap at length 6 via their own
                    // structure except `a+`; check implication instead
                    // of equality for unbounded expressions.
                    if rtext == "a+" {
                        prop_assert!(!slow || fast, "oracle found, algo missed");
                    } else {
                        prop_assert_eq!(fast, slow, "{} {} -> {}", rtext, src, dst);
                    }
                }
            }
        }
    }

    #[test]
    fn codec_preserves_value_order(values in prop::collection::vec(value_strategy(), 2..12)) {
        for a in &values {
            for b in &values {
                let ea = codec::encoded_value(a);
                let eb = codec::encoded_value(b);
                let vo = a.total_cmp(b);
                if vo != std::cmp::Ordering::Equal {
                    prop_assert_eq!(ea.cmp(&eb), vo, "{:?} vs {:?}", a, b);
                }
            }
        }
        // Round trips.
        for v in &values {
            let enc = codec::encoded_value(v);
            let mut pos = 0;
            let back = codec::decode_value(&enc, &mut pos).expect("decode");
            prop_assert_eq!(pos, enc.len());
            prop_assert_eq!(&back, v);
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        prop::bool::ANY.prop_map(Value::Bool),
        prop::num::i64::ANY.prop_map(Value::Int),
        // Finite floats: NaN has a stable order but equality testing
        // with round-trip assertions would need special casing.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

/// Brute-force: does any walk of length ≤ `max_len` spell a word in
/// the language?
fn oracle_walk_exists(
    g: &SimpleGraph,
    a: NodeId,
    b: NodeId,
    regex: &LabelRegex,
    max_len: usize,
) -> bool {
    let mut stack: Vec<(NodeId, Vec<String>)> = vec![(a, Vec::new())];
    while let Some((node, word)) = stack.pop() {
        if node == b {
            let refs: Vec<&str> = word.iter().map(String::as_str).collect();
            if regex.accepts(refs) {
                return true;
            }
        }
        if word.len() >= max_len {
            continue;
        }
        g.visit_out_edges(node, &mut |e| {
            let label = e
                .label
                .and_then(|s| g.label_text(s))
                .unwrap_or("")
                .to_owned();
            let mut next = word.clone();
            next.push(label);
            stack.push((e.to, next));
        });
    }
    false
}

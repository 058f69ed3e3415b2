//! Integration tests for the reasoning stack and the reachability
//! family: Datalog fixpoints checked against graph algorithms, regular
//! path queries across engine facades, and the NP-hard budget
//! behaviour the paper's complexity notes call for.

use gdm_bench::rdf_family_tree;
use graph_db_models::algo::paths::{distance, reachable_set};
use graph_db_models::algo::regular::{regular_simple_paths, LabelRegex};
use graph_db_models::core::{Direction, InterruptReason, NodeId};
use graph_db_models::govern::{ExecutionGuard, Limits};
use graph_db_models::graphs::rdf::Term;
use graph_db_models::graphs::SimpleGraph;
use graph_db_models::query::datalog::Program;

#[test]
fn datalog_ancestor_matches_bfs_reachability_on_generated_trees() {
    let g = rdf_family_tree(4, 8, 13);
    // Datalog transitive closure over `parent`.
    let mut prog = Program::new();
    prog.load_rdf(&g);
    prog.add_rules(
        "ancestor(X, Y) :- parent(X, Y).\n\
         ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
    )
    .unwrap();
    prog.evaluate();

    // Graph-side oracle: BFS over the parent-edge subgraph. The RDF
    // view's edges include `age` literals, so restrict by predicate.
    let parent_pred = g.term_id(&Term::iri("parent")).unwrap();
    let mut parent_only = SimpleGraph::directed();
    let mut ids: std::collections::HashMap<u32, NodeId> = std::collections::HashMap::new();
    for (s, p, o) in g.match_pattern(None, None, None) {
        if p != parent_pred {
            continue;
        }
        let sid = *ids.entry(s).or_insert_with(|| parent_only.add_node());
        let oid = *ids.entry(o).or_insert_with(|| parent_only.add_node());
        parent_only.add_edge(sid, oid).unwrap();
    }

    let unlimited = ExecutionGuard::unlimited();
    for (&term, &node) in &ids {
        let name = g.term(term).unwrap().text();
        let descendants = prog
            .query_str(&format!("ancestor({name}, X)"))
            .unwrap()
            .len();
        // BFS count excluding the start node itself.
        let bfs = reachable_set(&parent_only, node, Direction::Outgoing, &unlimited)
            .unwrap()
            .len()
            - 1;
        assert_eq!(descendants, bfs, "mismatch at {name}");
    }
}

#[test]
fn stratified_joins_derive_siblinghood() {
    let mut prog = Program::new();
    prog.add_rules(
        "parent(ana, ben). parent(ana, bea). parent(carl, dan).\n\
         sibling(X, Y) :- parent(P, X), parent(P, Y).",
    )
    .unwrap();
    prog.evaluate();
    // sibling includes the reflexive pairs — filter with a goal using
    // distinct variables and check the full relation size: for ana's 2
    // children, 2x2 = 4 pairs; for carl's single child, 1.
    assert_eq!(prog.query_str("sibling(X, Y)").unwrap().len(), 5);
    assert_eq!(prog.query_str("sibling(ben, bea)").unwrap().len(), 1);
    assert_eq!(prog.query_str("sibling(ben, dan)").unwrap().len(), 0);
}

#[test]
fn regular_simple_paths_budget_scales_with_search_space() {
    // A ladder with parallel rails creates exponentially many simple
    // paths; tiny budgets must fail loudly, generous ones succeed.
    let mut g = SimpleGraph::directed();
    let rungs = 12;
    let top: Vec<NodeId> = (0..rungs).map(|_| g.add_node()).collect();
    let bottom: Vec<NodeId> = (0..rungs).map(|_| g.add_node()).collect();
    for i in 0..rungs - 1 {
        g.add_labeled_edge(top[i], top[i + 1], "r").unwrap();
        g.add_labeled_edge(bottom[i], bottom[i + 1], "r").unwrap();
        g.add_labeled_edge(top[i], bottom[i + 1], "r").unwrap();
        g.add_labeled_edge(bottom[i], top[i + 1], "r").unwrap();
    }
    let regex = LabelRegex::compile("r+").unwrap();
    let budget = |visits| ExecutionGuard::new(Limits::none().with_node_visits(visits));
    let tiny = regular_simple_paths(&g, top[0], top[rungs - 1], &regex, &budget(50));
    assert_eq!(
        tiny.unwrap_err().interrupt_reason(),
        Some(InterruptReason::Budget)
    );
    let generous =
        regular_simple_paths(&g, top[0], top[rungs - 1], &regex, &budget(2_000_000)).unwrap();
    // 2^(rungs-2) paths end at the top-right corner (each step picks a
    // rail, last step must land on top).
    assert_eq!(generous.len(), 1 << (rungs - 2));
    // All returned paths are simple and correctly labeled.
    for p in &generous {
        let mut seen = std::collections::HashSet::new();
        assert!(p.nodes.iter().all(|n| seen.insert(*n)), "path not simple");
        assert_eq!(p.nodes.len(), p.edges.len() + 1);
    }
}

#[test]
fn reachability_is_monotone_under_edge_insertion() {
    let mut g = SimpleGraph::directed();
    let nodes: Vec<NodeId> = (0..30).map(|_| g.add_node()).collect();
    // Before: two disconnected chains.
    for i in 0..14 {
        g.add_edge(nodes[i], nodes[i + 1]).unwrap();
    }
    for i in 15..29 {
        g.add_edge(nodes[i], nodes[i + 1]).unwrap();
    }
    assert!(distance(&g, nodes[0], nodes[29]).is_none());
    let unlimited = ExecutionGuard::unlimited();
    let before = reachable_set(&g, nodes[0], Direction::Outgoing, &unlimited)
        .unwrap()
        .len();
    // Bridge the chains.
    g.add_edge(nodes[14], nodes[15]).unwrap();
    assert!(distance(&g, nodes[0], nodes[29]).is_some());
    let after = reachable_set(&g, nodes[0], Direction::Outgoing, &unlimited)
        .unwrap()
        .len();
    assert_eq!(before, 15);
    assert_eq!(after, 30);
}

//! Cross-engine integration: the same workload loaded into all nine
//! emulations must agree on every answer each model can express —
//! the executable core of the paper's comparison.

use gdm_bench::{load_into_engine, social_graph, SocialParams};
use graph_db_models::core::{NodeId, Value};
use graph_db_models::engines::{make_engine, EngineKind, GraphEngine, SummaryFunc};

struct Loaded {
    kind: EngineKind,
    engine: Box<dyn GraphEngine>,
    nodes: Vec<NodeId>,
}

fn load_all(tag: &str, people: usize) -> Vec<Loaded> {
    let graph = social_graph(SocialParams {
        people,
        communities: 4,
        intra_edges: 4,
        inter_edges: 1,
        seed: 99,
    });
    let base = std::env::temp_dir().join(format!("gdm-cross-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    EngineKind::all()
        .into_iter()
        .map(|kind| {
            let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
            std::fs::create_dir_all(&dir).unwrap();
            let mut engine = make_engine(kind, &dir).unwrap();
            let nodes = load_into_engine(engine.as_mut(), &graph).unwrap();
            Loaded {
                kind,
                engine,
                nodes,
            }
        })
        .collect()
}

#[test]
fn all_engines_agree_on_counts_and_adjacency() {
    let engines = load_all("counts", 80);
    // Reference: DEX, a multigraph. AllegroGraph stores a *set* of
    // statements, so parallel `knows` edges collapse — a genuine model
    // difference the paper's Table III encodes (simple vs attributed
    // multigraphs); its count may only be lower, never higher.
    let reference = engines
        .iter()
        .find(|l| l.kind == EngineKind::Dex)
        .expect("DEX present");
    let ref_edges = reference.engine.edge_count();
    for l in &engines {
        assert_eq!(l.engine.node_count(), 80, "{}", l.kind.label());
        if l.kind == EngineKind::Allegro {
            assert!(
                l.engine.edge_count() <= ref_edges,
                "{}: RDF statement sets cannot exceed the multigraph count",
                l.kind.label()
            );
        } else {
            assert_eq!(l.engine.edge_count(), ref_edges, "{}", l.kind.label());
        }
    }
    // Adjacency answers agree across every engine for 200 random pairs.
    for i in 0..200usize {
        let a = i * 13 % 80;
        let b = (i * 7 + 3) % 80;
        let expected = reference
            .engine
            .adjacent(reference.nodes[a], reference.nodes[b])
            .unwrap();
        for l in &engines[1..] {
            let got = l.engine.adjacent(l.nodes[a], l.nodes[b]).unwrap();
            assert_eq!(got, expected, "{}: pair ({a}, {b})", l.kind.label());
        }
    }
}

#[test]
fn supported_engines_agree_on_shortest_paths() {
    let engines = load_all("paths", 60);
    // Collect shortest-path lengths from every engine that supports
    // the query (Table VII) and require unanimity.
    for (s, t) in [(0usize, 59usize), (5, 40), (10, 11), (3, 3)] {
        let mut answers: Vec<(EngineKind, Option<usize>)> = Vec::new();
        for l in &engines {
            match l.engine.shortest_path(l.nodes[s], l.nodes[t]) {
                Ok(path) => answers.push((l.kind, path.map(|p| p.len() - 1))),
                Err(e) if e.is_unsupported() => {}
                Err(e) => panic!("{}: {e}", l.kind.label()),
            }
        }
        assert!(answers.len() >= 4, "most engines support shortest path");
        let expected = answers[0].1;
        for (kind, got) in &answers {
            assert_eq!(*got, expected, "{}: ({s}, {t})", kind.label());
        }
    }
}

#[test]
fn supported_engines_agree_on_k_neighborhood_sizes() {
    let engines = load_all("kneigh", 60);
    for start in [0usize, 17, 42] {
        let mut sizes: Vec<(EngineKind, usize)> = Vec::new();
        for l in &engines {
            match l.engine.k_neighborhood(l.nodes[start], 2) {
                Ok(hood) => sizes.push((l.kind, hood.len())),
                Err(e) if e.is_unsupported() => {}
                Err(e) => panic!("{}: {e}", l.kind.label()),
            }
        }
        assert!(sizes.len() >= 5);
        let expected = sizes[0].1;
        for (kind, got) in &sizes {
            assert_eq!(*got, expected, "{}: start {start}", kind.label());
        }
    }
}

#[test]
fn summarization_is_universal_and_consistent() {
    let engines = load_all("summ", 50);
    let mut orders = Vec::new();
    for l in &engines {
        let order = l.engine.summarize(SummaryFunc::Order).unwrap();
        assert_eq!(order, Value::Int(50), "{}", l.kind.label());
        orders.push(order);
        // Degree of a shared node agrees where both models count the
        // same incident edges (hypergraph 2-sections project binary
        // links to single edges, so they agree too).
        let d = l.engine.summarize(SummaryFunc::Degree(l.nodes[7])).unwrap();
        assert!(matches!(d, Value::Int(x) if x >= 0), "{}", l.kind.label());
    }
}

#[test]
fn deletion_is_consistent_across_models() {
    let mut engines = load_all("delete", 40);
    for l in &mut engines {
        let before = l.engine.node_count();
        l.engine.delete_node(l.nodes[5]).unwrap();
        assert_eq!(l.engine.node_count(), before - 1, "{}", l.kind.label());
        // The node is gone from adjacency answers.
        let adj = l.engine.adjacent(l.nodes[5], l.nodes[6]);
        match adj {
            Ok(false) => {}
            Ok(true) => panic!("{}: deleted node still adjacent", l.kind.label()),
            Err(_) => {} // engines may report NotFound — also acceptable
        }
    }
}

#[test]
fn durable_engines_survive_reopen_with_data() {
    let graph = social_graph(SocialParams {
        people: 25,
        communities: 2,
        intra_edges: 3,
        inter_edges: 1,
        seed: 7,
    });
    let base = std::env::temp_dir().join(format!("gdm-cross-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for kind in EngineKind::all() {
        let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        let expected_edges;
        {
            let mut engine = make_engine(kind, &dir).unwrap();
            load_into_engine(engine.as_mut(), &graph).unwrap();
            expected_edges = engine.edge_count();
            match engine.persist() {
                Ok(()) => {}
                Err(e) if e.is_unsupported() => continue, // main-memory engines
                Err(e) => panic!("{}: {e}", kind.label()),
            }
        }
        let engine = make_engine(kind, &dir).unwrap();
        assert_eq!(engine.node_count(), 25, "{} after reopen", kind.label());
        assert_eq!(
            engine.edge_count(),
            expected_edges,
            "{} after reopen",
            kind.label()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Satellite audit regression: a property predicate served through
/// each engine's `ServingSnapshot` must see exactly what the engine's
/// live model stored. Attributed profiles (DEX, InfiniteGraph, Neo4j,
/// HyperGraphDB, Sones) keep node attributes through freeze — a
/// snapshot view that silently drops them (labels-but-no-properties)
/// is the bug this guards against. Propertyless profiles (AllegroGraph
/// stores values as triples; the KV engines strip attributes on load)
/// legitimately serve zero rows for the same predicate.
#[test]
fn property_predicate_served_through_every_snapshot() {
    use graph_db_models::algo::pattern::{Pattern, PatternNode};

    let engines = load_all("servprops", 60);
    let graph = social_graph(SocialParams {
        people: 60,
        communities: 4,
        intra_edges: 4,
        inter_edges: 1,
        seed: 99,
    });
    // Ground truth straight from the source workload.
    let mut expected = 0usize;
    graph_db_models::core::GraphView::visit_nodes(&graph, &mut |n| {
        let v = graph.node_properties(n).unwrap().get("community").cloned();
        if v == Some(Value::from(0i64)) {
            expected += 1;
        }
    });
    assert!(expected > 0, "workload must produce community-0 people");

    for l in &engines {
        let attributed = matches!(
            l.kind,
            EngineKind::Dex
                | EngineKind::InfiniteGraph
                | EngineKind::Neo4j
                | EngineKind::HyperGraphDb
                | EngineKind::Sones
        );
        let snap = l.engine.serving_snapshot().unwrap();
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_prop("community", 0i64));
        let served = graph_db_models::algo::match_pattern_seeded(
            &snap.frozen,
            &p,
            &graph_db_models::algo::auto_domains(&snap.frozen, &p),
            &graph_db_models::govern::ExecutionGuard::unlimited(),
        )
        .expect("an unlimited guard never interrupts");
        let want = if attributed { expected } else { 0 };
        assert_eq!(
            served.len(),
            want,
            "{}: snapshot served {} rows for community=0, live model holds {}",
            l.kind.label(),
            served.len(),
            want
        );
        // And the snapshot agrees with the reference matcher on the
        // same predicate — the serving path adds speed, not answers.
        let reference = graph_db_models::algo::match_pattern(&snap.frozen, &p);
        assert_eq!(served.len(), reference.len(), "{}", l.kind.label());
    }
}

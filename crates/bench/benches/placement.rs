//! The G-Store placement ablation: BFS over insertion-order placement
//! vs BFS-clustered placement. Wall time is reported by Criterion;
//! page-fault counts (the honest external-memory metric) print once to
//! stderr — clustering should cut both.

use criterion::{criterion_group, criterion_main, Criterion};
use gdm_bench::{ba_graph, load_into_engine};
use gdm_core::{GraphView, NodeId, PropertyMap};
use gdm_engines::gstore::{self, GStoreEngine};
use gdm_engines::GraphEngine;
use gdm_graphs::PropertyGraph;
use std::hint::black_box;

fn build(tag: &str, recluster: bool) -> (GStoreEngine, Vec<NodeId>) {
    let dir = std::env::temp_dir().join(format!("gdm-bench-place-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let mut engine = gstore::open(&dir).expect("engine");
    // Community-free BA graph in *shuffled* insertion order, so
    // insertion-order placement scatters neighborhoods across pages.
    let ba = ba_graph(3000, 3, 77);
    let mut pg = PropertyGraph::new();
    let ids: Vec<NodeId> = (0..ba.node_count())
        .map(|_| pg.add_node("v", PropertyMap::new()))
        .collect();
    let mut edges = Vec::new();
    pg_collect_edges(&ba, &mut edges);
    // Deterministic shuffle.
    let mut shuffled = edges.clone();
    let mut state = 0x12345678u64;
    for i in (1..shuffled.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        shuffled.swap(i, j);
    }
    for (a, b) in shuffled {
        pg.add_edge(ids[a], ids[b], "e", PropertyMap::new())
            .expect("edge");
    }
    let nodes = load_into_engine(&mut engine, &pg).expect("load");
    if recluster {
        engine.recluster().expect("recluster");
    }
    engine.persist().expect("persist");
    (engine, nodes)
}

fn pg_collect_edges(g: &gdm_graphs::SimpleGraph, out: &mut Vec<(usize, usize)>) {
    g.visit_nodes(&mut |n| {
        g.visit_out_edges(n, &mut |e| {
            out.push((e.from.raw() as usize, e.to.raw() as usize));
        });
    });
}

fn full_bfs(engine: &GStoreEngine, start: NodeId) -> usize {
    gdm_algo::Traversal::new(start)
        .direction(gdm_core::Direction::Both)
        .run(engine.view())
        .len()
}

fn bench_placement(c: &mut Criterion) {
    let (scattered, nodes_s) = build("scattered", false);
    let (clustered, nodes_c) = build("clustered", true);

    // One-shot page-fault report.
    scattered.view().reset_pool_stats();
    let visited = full_bfs(&scattered, nodes_s[0]);
    let faults_scattered = scattered.view().pool_stats().misses;
    clustered.view().reset_pool_stats();
    let visited_c = full_bfs(&clustered, nodes_c[0]);
    let faults_clustered = clustered.view().pool_stats().misses;
    eprintln!(
        "placement: BFS visited {visited}/{visited_c} nodes; page faults \
         scattered={faults_scattered} clustered={faults_clustered}"
    );

    let mut group = c.benchmark_group("gstore_bfs");
    group.bench_function("insertion_order", |b| {
        b.iter(|| black_box(full_bfs(&scattered, nodes_s[0])))
    });
    group.bench_function("bfs_clustered", |b| {
        b.iter(|| black_box(full_bfs(&clustered, nodes_c[0])))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_placement
}
criterion_main!(benches);

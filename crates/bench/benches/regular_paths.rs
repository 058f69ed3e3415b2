//! Regular path queries: product-automaton reachability (polynomial,
//! walk semantics) vs simple-path enumeration under a node-visit budget
//! (NP-complete in general — the paper's Section IV.2 complexity note,
//! measurable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdm_algo::fixed_length_paths;
use gdm_algo::regular::{regular_path_exists, regular_simple_paths, LabelRegex};
use gdm_bench::er_graph;
use gdm_core::NodeId;
use gdm_govern::{ExecutionGuard, Limits};
use gdm_graphs::SimpleGraph;
use std::hint::black_box;

fn bench_regular(c: &mut Criterion) {
    let guard = ExecutionGuard::unlimited();
    let mut group = c.benchmark_group("walk_reachability");
    for n in [100usize, 400, 1600] {
        let g = er_graph(n, n * 4, 21);
        let regex = LabelRegex::compile("e e e+").expect("valid");
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                black_box(regular_path_exists(
                    &g,
                    NodeId(0),
                    NodeId((n - 1) as u64),
                    &regex,
                    &guard,
                ))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("simple_path_enumeration");
    let g = er_graph(60, 150, 21);
    for budget in [1_000u64, 10_000, 100_000] {
        let regex = LabelRegex::compile("e e e e?").expect("valid");
        group.bench_function(BenchmarkId::from_parameter(budget), |b| {
            b.iter(|| {
                // Budget exhaustion is an expected outcome at small
                // budgets; both outcomes are the measured work.
                let guard = ExecutionGuard::new(Limits::none().with_node_visits(budget));
                black_box(regular_simple_paths(&g, NodeId(0), NodeId(59), &regex, &guard).ok())
            })
        });
    }
    group.finish();

    // Every simple path of five hops between two nodes of a 12-node
    // complete digraph: 5 040 paths, 64 472 node visits.
    let mut group = c.benchmark_group("fixed_length_paths");
    let mut g = SimpleGraph::directed();
    let nodes: Vec<NodeId> = (0..12).map(|_| g.add_node()).collect();
    for &a in &nodes {
        for &b in nodes.iter().filter(|&&b| b != a) {
            g.add_edge(a, b).expect("nodes exist");
        }
    }
    group.bench_function("complete12_len5", |b| {
        b.iter(|| black_box(fixed_length_paths(&g, nodes[0], nodes[11], 5, &guard).ok()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_regular
}
criterion_main!(benches);

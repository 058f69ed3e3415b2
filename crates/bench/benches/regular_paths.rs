//! Regular path queries: product-automaton reachability (polynomial,
//! walk semantics) vs simple-path enumeration under a node-visit budget
//! (NP-complete in general — the paper's Section IV.2 complexity note,
//! measurable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdm_algo::fixed_length_paths;
use gdm_algo::regular::{regular_path_exists, regular_simple_paths, LabelRegex};
use gdm_bench::er_graph;
use gdm_core::{InterruptReason, NodeId};
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

    // The 12-node complete digraph: node 0 starts about e·11! ≈ 1.1·10⁸
    // simple paths, so no budget below stops the search on its own.
    let mut g = SimpleGraph::directed();
    let nodes: Vec<NodeId> = (0..12).map(|_| g.add_node()).collect();
    for &a in &nodes {
        for &b in nodes.iter().filter(|&&b| b != a) {
            g.add_edge(a, b).expect("nodes exist");
        }
    }

    // Simple paths `.+` from node 0 to node 11 until the visit budget
    // trips: each row times the search up to its budget.
    let mut group = c.benchmark_group("simple_path_enumeration");
    let regex = LabelRegex::compile(".+").expect("valid");
    for budget in [1_000u64, 10_000, 100_000] {
        let run = || {
            let guard = ExecutionGuard::new(Limits::none().with_node_visits(budget));
            regular_simple_paths(&g, nodes[0], nodes[11], &regex, &guard)
        };
        let err = run().expect_err("the budget binds");
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Budget));
        group.bench_function(BenchmarkId::from_parameter(budget), |b| {
            b.iter(|| black_box(run().is_err()))
        });
    }
    group.finish();

    // Every simple path of five hops between two nodes of the same
    // digraph: 5 040 paths, 64 472 node visits.
    let mut group = c.benchmark_group("fixed_length_paths");
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

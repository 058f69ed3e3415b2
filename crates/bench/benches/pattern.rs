//! Pattern matching: VF2-style search vs the brute-force oracle, and
//! scaling with graph size — the paper notes subgraph isomorphism is
//! NP-complete; candidate-driven search is what makes it usable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdm_algo::pattern::{match_pattern, match_pattern_brute, Pattern, PatternNode};
use gdm_bench::{social_graph, SocialParams};
use gdm_govern::ExecutionGuard;
use gdm_graphs::PropertyGraph;
use std::hint::black_box;

fn triangle_pattern() -> Pattern {
    let mut p = Pattern::new();
    let a = p.node(PatternNode::var("a"));
    let b = p.node(PatternNode::var("b"));
    let c = p.node(PatternNode::var("c"));
    p.edge(a, b, Some("knows")).expect("valid");
    p.edge(b, c, Some("knows")).expect("valid");
    p.edge(c, a, Some("knows")).expect("valid");
    p
}

fn bench_pattern(c: &mut Criterion) {
    let small = social_graph(SocialParams {
        people: 40,
        communities: 4,
        intra_edges: 3,
        inter_edges: 1,
        seed: 5,
    });
    let guard = ExecutionGuard::unlimited();
    let vf2 = |g: &PropertyGraph| {
        match_pattern(g, &triangle_pattern(), &guard)
            .expect("an unlimited guard never interrupts")
            .len()
    };
    let mut group = c.benchmark_group("triangle_40_nodes");
    group.bench_function("vf2", |b| b.iter(|| black_box(vf2(&small))));
    group.bench_function("brute_force", |b| {
        b.iter(|| black_box(match_pattern_brute(&small, &triangle_pattern()).len()))
    });
    group.finish();

    let mut group = c.benchmark_group("vf2_scaling");
    for people in [100usize, 400, 1600] {
        let g = social_graph(SocialParams {
            people,
            communities: people / 25,
            intra_edges: 4,
            inter_edges: 1,
            seed: 5,
        });
        group.bench_function(BenchmarkId::from_parameter(people), |b| {
            b.iter(|| black_box(vf2(&g)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_pattern
}
criterion_main!(benches);

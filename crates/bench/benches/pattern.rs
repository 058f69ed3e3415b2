//! Pattern matching: VF2-style search vs the brute-force oracle, and
//! scaling with graph size — the paper notes subgraph isomorphism is
//! NP-complete; candidate-driven search is what makes it usable. Then
//! a two-hop SPARQL query written in both orders of its patterns, which
//! the planned matcher should answer at the same cost, and a SPARQL
//! constant with many subjects, whose cost should follow them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdm_algo::pattern::{match_pattern, match_pattern_brute, Pattern, PatternNode};
use gdm_bench::{social_graph, SocialParams};
use gdm_govern::ExecutionGuard;
use gdm_graphs::rdf::{RdfGraph, Term};
use gdm_graphs::PropertyGraph;
use gdm_query::sparql;
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

/// An RDF graph of `people` people, each knowing the four people 1, 7,
/// 31 and 101 places on: constant out-degree at every size.
fn rdf_knows_graph(people: usize) -> RdfGraph {
    let mut g = RdfGraph::new();
    let knows = Term::iri("knows");
    for i in 0..people {
        for step in [1, 7, 31, 101] {
            let to = Term::iri(format!("p{}", (i + step) % people));
            g.add(&Term::iri(format!("p{i}")), &knows, &to)
                .expect("IRIs in every position");
        }
    }
    g
}

fn bench_sparql_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparql_two_hop");
    for people in [1_000usize, 10_000] {
        let g = rdf_knows_graph(people);
        for (order, text) in [
            (
                "as_written",
                "SELECT ?b WHERE { <p0> <knows> ?a . ?a <knows> ?b }",
            ),
            (
                "swapped",
                "SELECT ?b WHERE { ?a <knows> ?b . <p0> <knows> ?a }",
            ),
        ] {
            group.bench_function(BenchmarkId::new(order, people), |b| {
                b.iter(|| black_box(sparql::query(&g, text).expect("query runs").len()))
            });
        }
    }
    group.finish();
}

/// One SPARQL constant with many subjects: `<human>` is the object of
/// one `is_a` triple per member.
fn bench_sparql_class(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparql_class_members");
    for members in [10_000usize, 100_000] {
        let mut g = RdfGraph::new();
        for i in 0..members {
            g.add(
                &Term::iri(format!("m{i}")),
                &Term::iri("is_a"),
                &Term::iri("human"),
            )
            .expect("IRIs in every position");
        }
        let text = "SELECT ?x WHERE { ?x <is_a> <human> }";
        group.bench_function(BenchmarkId::from_parameter(members), |b| {
            b.iter(|| black_box(sparql::query(&g, text).expect("query runs").len()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_pattern, bench_sparql_orders, bench_sparql_class
}
criterion_main!(benches);

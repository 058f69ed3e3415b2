//! Essential graph queries across the nine engine emulations — the
//! performance companion the paper's related work (Dominguez-Sal et
//! al. [11]) ran against real 2012 systems. Engines that do not
//! support a query are skipped, mirroring Table VII. Then the CSR
//! snapshot against the live engines, and the cost of keeping a
//! snapshot fresh.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdm_algo::pattern::{Pattern, PatternNode};
use gdm_algo::{ExecutionGuard, FrozenGraph};
use gdm_bench::{load_into_engine, social_graph, SocialParams};
use gdm_core::{DeltaTracker, Direction, GraphView, NodeId, PropertyMap, Value};
use gdm_engines::{make_engine, AnalysisFunc, EngineKind, GraphEngine, SummaryFunc};
use gdm_graphs::PropertyGraph;
use std::hint::black_box;
use std::path::PathBuf;

struct Fixture {
    kind: EngineKind,
    engine: Box<dyn GraphEngine>,
    nodes: Vec<NodeId>,
}

fn graph() -> PropertyGraph {
    social_graph(SocialParams {
        people: 600,
        communities: 8,
        intra_edges: 6,
        inter_edges: 2,
        seed: 42,
    })
}

/// A fresh, empty directory for `kind`'s files.
fn engine_dir(kind: EngineKind) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("gdm-bench-eq-{}", std::process::id()))
        .join(kind.label().to_lowercase().replace('-', "_"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fixtures(graph: &PropertyGraph) -> Vec<Fixture> {
    EngineKind::all()
        .into_iter()
        .map(|kind| {
            let mut engine = make_engine(kind, &engine_dir(kind)).expect("engine");
            let nodes = load_into_engine(engine.as_mut(), graph).expect("load");
            Fixture {
                kind,
                engine,
                nodes,
            }
        })
        .collect()
}

fn bench_essential(c: &mut Criterion) {
    // Opening an engine in a fresh directory and loading the workload
    // through the facade.
    let graph = graph();
    let mut group = c.benchmark_group("load");
    group.sample_size(10);
    for kind in EngineKind::all() {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter(|| {
                let mut engine = make_engine(kind, &engine_dir(kind)).expect("engine");
                load_into_engine(engine.as_mut(), &graph).expect("load")
            })
        });
    }
    group.finish();

    let fixtures = fixtures(&graph);

    let mut group = c.benchmark_group("adjacency");
    for f in &fixtures {
        group.bench_function(BenchmarkId::from_parameter(f.kind.label()), |b| {
            b.iter(|| {
                for i in 0..32 {
                    let a = f.nodes[i * 7 % f.nodes.len()];
                    let bn = f.nodes[(i * 13 + 5) % f.nodes.len()];
                    black_box(f.engine.adjacent(a, bn).expect("supported everywhere"));
                }
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("k_neighborhood_k2");
    for f in &fixtures {
        if f.engine.k_neighborhood(f.nodes[0], 2).is_err() {
            continue; // Table VII blank
        }
        group.bench_function(BenchmarkId::from_parameter(f.kind.label()), |b| {
            b.iter(|| {
                let n = f.nodes[17];
                black_box(f.engine.k_neighborhood(n, 2).expect("supported"));
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("shortest_path");
    for f in &fixtures {
        if f.engine.shortest_path(f.nodes[0], f.nodes[1]).is_err() {
            continue;
        }
        group.bench_function(BenchmarkId::from_parameter(f.kind.label()), |b| {
            b.iter(|| {
                black_box(
                    f.engine
                        .shortest_path(f.nodes[3], f.nodes[f.nodes.len() - 4])
                        .expect("supported"),
                );
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("summarization_order");
    for f in &fixtures {
        group.bench_function(BenchmarkId::from_parameter(f.kind.label()), |b| {
            b.iter(|| black_box(f.engine.summarize(SummaryFunc::Order).expect("supported")))
        });
    }
    group.finish();
}

/// Live vs frozen on one representative engine — the CSR snapshot
/// fast path — and the snapshot's pattern pipeline at one worker vs
/// `threads`.
fn bench_frozen(c: &mut Criterion) {
    let fixtures = fixtures(&graph());
    let f = fixtures
        .iter()
        .find(|f| f.kind == EngineKind::Neo4j)
        .expect("neo4j fixture");
    let fz = f.engine.snapshot().expect("snapshot");
    let threads = gdm_algo::default_threads().clamp(2, 8);

    let mut group = c.benchmark_group("snapshot_build");
    group.bench_function("freeze", |b| {
        b.iter(|| black_box(f.engine.snapshot().expect("snapshot")))
    });
    group.finish();

    let (a, z) = (f.nodes[3], f.nodes[f.nodes.len() - 4]);
    let mut group = c.benchmark_group("bfs_shortest_path");
    group.bench_function("live", |b| {
        b.iter(|| black_box(f.engine.shortest_path(a, z).expect("supported")))
    });
    group.bench_function("frozen", |b| {
        b.iter(|| {
            black_box(gdm_algo::shortest_path(
                &fz,
                a,
                z,
                &ExecutionGuard::unlimited(),
            ))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("diameter");
    group.sample_size(10);
    group.bench_function("live", |b| {
        b.iter(|| {
            black_box(
                f.engine
                    .summarize(SummaryFunc::Diameter)
                    .expect("supported"),
            )
        })
    });
    group.bench_function("frozen", |b| {
        b.iter(|| {
            black_box(gdm_algo::summary::diameter(
                &fz,
                Direction::Both,
                &ExecutionGuard::unlimited(),
            ))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("connected_components");
    if let Some(live) = fixtures
        .iter()
        .find(|f| f.engine.analyze(AnalysisFunc::ConnectedComponents).is_ok())
    {
        group.bench_function(BenchmarkId::new("live", live.kind.label()), |b| {
            b.iter(|| {
                black_box(
                    live.engine
                        .analyze(AnalysisFunc::ConnectedComponents)
                        .expect("supported"),
                )
            })
        });
    }
    group.bench_function("frozen", |b| {
        b.iter(|| {
            black_box(
                gdm_algo::analysis::connected_components(&fz, &ExecutionGuard::unlimited())
                    .map(|c| c.len()),
            )
        })
    });
    group.finish();

    // No label constraints: some engine models drop labels on load.
    let mut pattern = Pattern::new();
    let x = pattern.node(PatternNode::var("x"));
    let y = pattern.node(PatternNode::var("y"));
    let z = pattern.node(PatternNode::var("z"));
    pattern.edge(x, y, Some("knows")).expect("vars exist");
    pattern.edge(y, z, Some("knows")).expect("vars exist");
    // Pattern matching is compared on the one engine that executes it
    // live, against that engine's own snapshot through the planned
    // entry point (the batch pipeline) at one worker and at `threads`,
    // so all three rows answer the same question on the same data.
    let mut group = c.benchmark_group("pattern_two_hop");
    group.sample_size(10);
    if let Some(live) = fixtures
        .iter()
        .find(|f| f.engine.pattern_match(&pattern).is_ok())
    {
        let pfz = live.engine.snapshot().expect("snapshot");
        let domains = gdm_algo::auto_domains(&pfz, &pattern);
        let planned = || {
            gdm_algo::match_pattern_seeded(&pfz, &pattern, &domains, &ExecutionGuard::unlimited())
                .expect("an unlimited guard never interrupts")
                .len()
        };
        group.bench_function(BenchmarkId::new("live", live.kind.label()), |b| {
            b.iter(|| black_box(live.engine.pattern_match(&pattern).expect("supported")))
        });
        gdm_algo::set_executor_workers(1);
        group.bench_function("frozen_seq", |b| b.iter(|| black_box(planned())));
        gdm_algo::set_executor_workers(threads);
        group.bench_function("frozen_par", |b| b.iter(|| black_box(planned())));
        gdm_algo::set_executor_workers(0);
    }
    group.finish();

    // One hop more: about 600 + 600·8 + 600·8² + 600·8³ ≈ 3.5·10⁵
    // estimated visits, past the 2¹⁷ admission bar, so `frozen_par` is
    // the one row here that takes helper threads.
    let w = pattern.node(PatternNode::var("w"));
    pattern.edge(z, w, Some("knows")).expect("vars exist");
    let domains = gdm_algo::auto_domains(&fz, &pattern);
    let planned = || {
        gdm_algo::match_pattern_seeded(&fz, &pattern, &domains, &ExecutionGuard::unlimited())
            .expect("an unlimited guard never interrupts")
            .len()
    };
    let mut group = c.benchmark_group("pattern_three_hop");
    group.sample_size(10);
    gdm_algo::set_executor_workers(1);
    group.bench_function("frozen_seq", |b| b.iter(|| black_box(planned())));
    gdm_algo::set_executor_workers(threads);
    let before = gdm_algo::parallel::fanned_out();
    planned();
    assert!(
        gdm_algo::parallel::fanned_out() > before,
        "the three-hop match must be admitted to the fan-out driver"
    );
    group.bench_function("frozen_par", |b| b.iter(|| black_box(planned())));
    gdm_algo::set_executor_workers(0);
    group.finish();
}

/// Re-freezing after a mutation batch of under 1 % of the graph — six
/// `age` writes and two new `knows` edges, ten touched rows — patched
/// into the previous snapshot, against a full freeze of the same graph.
fn bench_refreeze(c: &mut Criterion) {
    let mut live = graph();
    let prev = FrozenGraph::freeze(&live);
    let mut ids = Vec::new();
    live.visit_nodes(&mut |n| ids.push(n));
    let mut tracker = DeltaTracker::new();
    tracker.reset(prev.epoch());
    for i in 0..6 {
        let n = ids[(i * 37 + 11) % ids.len()];
        live.set_node_property(n, "age", Value::from(200 + i as i64))
            .expect("node exists");
        tracker.touch_node(n.raw());
    }
    for i in 0..2 {
        let (a, b) = (
            ids[(i * 53 + 7) % ids.len()],
            ids[(i * 71 + 29) % ids.len()],
        );
        live.add_edge(a, b, "knows", PropertyMap::new())
            .expect("endpoints exist");
        tracker.touch_node(a.raw());
        tracker.touch_node(b.raw());
    }
    let delta = tracker.peek();

    let mut group = c.benchmark_group("refreeze");
    group.bench_function("incremental", |b| {
        b.iter(|| black_box(gdm_algo::incremental_refreeze(&live, &prev, delta).len()))
    });
    group.bench_function("full", |b| {
        b.iter(|| black_box(FrozenGraph::freeze(&live).len()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_essential, bench_frozen, bench_refreeze
}
criterion_main!(benches);

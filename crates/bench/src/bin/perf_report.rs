//! A compact cross-engine performance report in the style of the
//! paper's related work (Dominguez-Sal et al. \[11\], who benchmarked
//! DEX, Neo4j, HypergraphDB, and Jena on typical graph operations and
//! found "DEX and Neo4j were the most efficient implementations").
//!
//! Loads one social-network workload into all nine emulations and
//! reports microseconds per operation for each essential query the
//! engine supports (`-` = unsupported, mirroring Table VII).
//!
//! ```sh
//! cargo run --release -p gdm-bench --bin perf_report [-- --people 2000]
//! ```
//!
//! After the per-engine table it measures the CSR snapshot fast path
//! (live vs frozen vs frozen+parallel) and writes the numbers to a
//! machine-readable `BENCH_essential.json` (path configurable with
//! `--json PATH`). `--smoke` shrinks the workload and iteration
//! counts for a quick CI sanity run. `--workers N` pins the executor's
//! worker count (default: the machine's available parallelism) so
//! parallel rows are reproducible across machines.
//!
//! `--deadline-ms N` switches to the **governor gauntlet** instead of
//! benchmarking: an expensive governed pattern match runs on every
//! engine under an `N`-millisecond deadline and the report shows, per
//! engine, whether the query completed or was interrupted (with the
//! governor's structured reason). The process exits 0 only if every
//! engine either finishes or is cleanly interrupted — any hang, panic,
//! or non-governor error is a failure. CI uses this as the
//! responsiveness smoke test.

use gdm_algo::pattern::{Pattern, PatternNode};
use gdm_bench::{load_into_engine, social_graph, SocialParams};
use gdm_core::{Direction, NodeId, Value};
use gdm_engines::{make_engine, AnalysisFunc, EngineKind, GovernedOp, SummaryFunc};
use gdm_govern::{ExecutionGuard, Limits};
use gdm_query::{BinOp, Expr, Projection, SelectQuery};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn time_us(mut op: impl FnMut(), iters: u32) -> f64 {
    // Warm up once, then measure.
    op();
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// One live/frozen/parallel comparison row, in ops/s (`None` = the
/// live engine does not execute this query).
struct Row {
    name: &'static str,
    live_ops_s: Option<f64>,
    frozen_ops_s: f64,
    parallel_ops_s: Option<f64>,
}

impl Row {
    /// Worker threads the row's widest measurement used: the machine's
    /// available parallelism when the query has a parallel path, 1 for
    /// serial-only rows — so a stored report says whether a number was
    /// taken single-threaded without consulting the machine it ran on.
    fn parallelism(&self, threads: usize) -> usize {
        if self.parallel_ops_s.is_some() {
            threads
        } else {
            1
        }
    }
}

/// The planned entry point the way an ungoverned, planner-less caller
/// reaches it: auto-seeded domains, unlimited guard.
fn planned_match<G: gdm_core::AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
) -> gdm_algo::MatchTable {
    let domains = gdm_algo::auto_domains(g, pattern);
    gdm_algo::match_pattern_seeded(g, pattern, &domains, &ExecutionGuard::unlimited())
        .expect("an unlimited guard never interrupts")
}

fn ops_s(us: f64) -> f64 {
    1e6 / us
}

fn json_num(v: Option<f64>) -> String {
    v.map_or("null".to_owned(), |x| format!("{x:.1}"))
}

/// Run the governor gauntlet: load the workload into every engine and
/// fire an expensive governed pattern match under `deadline`. Returns
/// the number of engines that neither completed nor were cleanly
/// interrupted (the process exit code).
fn governor_gauntlet(
    graph: &gdm_graphs::PropertyGraph,
    base: &std::path::Path,
    deadline: Duration,
) -> i32 {
    // A 3-hop unconstrained chain: no label constraints, because some
    // engine models drop labels on load — so the match stays expensive
    // on every engine regardless of its data model.
    let mut pattern = Pattern::new();
    let a = pattern.node(PatternNode::var("a"));
    let b = pattern.node(PatternNode::var("b"));
    let c = pattern.node(PatternNode::var("c"));
    let d = pattern.node(PatternNode::var("d"));
    pattern.edge(a, b, None).expect("vars exist");
    pattern.edge(b, c, None).expect("vars exist");
    pattern.edge(c, d, None).expect("vars exist");

    println!(
        "governor gauntlet: 3-hop pattern match, {} ms deadline\n",
        deadline.as_millis()
    );
    println!("{:<14} {:>10} outcome", "engine", "wall ms");
    let mut failures = 0;
    for kind in EngineKind::all() {
        let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
        std::fs::create_dir_all(&dir).expect("dir");
        let mut engine = make_engine(kind, &dir).expect("engine");
        load_into_engine(engine.as_mut(), graph).expect("load");

        let guard = ExecutionGuard::new(Limits::none().with_deadline(deadline));
        let start = Instant::now();
        let outcome = engine.run_governed(GovernedOp::PatternMatch(&pattern), &guard);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let desc = match outcome {
            Ok(answer) => format!("completed: {answer:?}"),
            Err(e) if e.is_interrupted() => format!("interrupted: {e}"),
            Err(e) => {
                failures += 1;
                format!("FAILED (non-governor error): {e}")
            }
        };
        println!("{:<14} {:>10.1} {desc}", kind.label(), wall_ms);
    }
    if failures == 0 {
        println!("\nall engines completed or were cleanly interrupted");
    } else {
        println!("\n{failures} engine(s) failed with non-governor errors");
    }
    failures
}

fn main() {
    let mut people = 1000usize;
    let mut smoke = false;
    let mut json_path = "BENCH_essential.json".to_owned();
    let mut deadline_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--people" => {
                people = args.next().and_then(|v| v.parse().ok()).unwrap_or(people);
            }
            "--smoke" => {
                smoke = true;
                people = 200;
            }
            "--json" => {
                if let Some(p) = args.next() {
                    json_path = p;
                }
            }
            "--deadline-ms" => {
                deadline_ms = args.next().and_then(|v| v.parse().ok());
            }
            "--workers" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    gdm_algo::set_executor_workers(n);
                }
            }
            _ => {}
        }
    }

    let graph = social_graph(SocialParams {
        people,
        communities: 10,
        intra_edges: 6,
        inter_edges: 2,
        seed: 2012,
    });
    println!(
        "workload: {people} people, {} knows-edges (community-structured)\n",
        gdm_core::GraphView::edge_count(&graph)
    );

    let base = std::env::temp_dir().join(format!("gdm-perf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Governor mode: no benchmarking, just the responsiveness check.
    if let Some(ms) = deadline_ms {
        let failures = governor_gauntlet(&graph, &base, Duration::from_millis(ms));
        let _ = std::fs::remove_dir_all(&base);
        std::process::exit(failures);
    }

    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>14} {:>14}",
        "engine", "load ms", "adjacency us", "k-neigh(2) us", "shortest us", "order us"
    );
    for kind in EngineKind::all() {
        let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
        std::fs::create_dir_all(&dir).expect("dir");
        let mut engine = make_engine(kind, &dir).expect("engine");
        let start = Instant::now();
        let nodes = load_into_engine(engine.as_mut(), &graph).expect("load");
        let load_ms = start.elapsed().as_secs_f64() * 1e3;

        let pair = |i: usize| -> (NodeId, NodeId) {
            (
                nodes[i * 7 % nodes.len()],
                nodes[(i * 13 + 5) % nodes.len()],
            )
        };
        let adjacency = {
            let e = engine.as_ref();
            let mut i = 0usize;
            time_us(
                move || {
                    let (a, b) = pair(i);
                    i = i.wrapping_add(1);
                    black_box(e.adjacent(a, b).expect("universal"));
                },
                2000,
            )
        };
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) if x >= 1000.0 => format!("{:.0}", x),
            Some(x) => format!("{x:.1}"),
            None => "-".to_owned(),
        };
        let k_neigh = engine.k_neighborhood(nodes[17], 2).ok().map(|_| {
            let e = engine.as_ref();
            time_us(
                || {
                    black_box(e.k_neighborhood(nodes[17], 2).expect("supported"));
                },
                200,
            )
        });
        let shortest = engine
            .shortest_path(nodes[0], nodes[nodes.len() - 1])
            .ok()
            .map(|_| {
                let e = engine.as_ref();
                time_us(
                    || {
                        black_box(
                            e.shortest_path(nodes[3], nodes[nodes.len() - 4])
                                .expect("supported"),
                        );
                    },
                    50,
                )
            });
        let order = {
            let e = engine.as_ref();
            time_us(
                || {
                    black_box(e.summarize(SummaryFunc::Order).expect("universal"));
                },
                500,
            )
        };
        println!(
            "{:<14} {:>10.1} {:>12.2} {:>14} {:>14} {:>14.1}",
            kind.label(),
            load_ms,
            adjacency,
            fmt_opt(k_neigh),
            fmt_opt(shortest),
            order
        );
    }
    println!(
        "\n'-' = the 2012 system did not answer this essential query (Table VII);\n\
         compare with [11]'s finding that DEX and Neo4j were the most efficient."
    );

    // ---- CSR snapshot fast path: live vs frozen vs frozen+parallel ----
    let threads = gdm_algo::executor_workers();
    let (diam_iters, comp_iters) = if smoke { (2u32, 5u32) } else { (3, 20) };

    // Neo4j is the representative live engine for the structural
    // queries; AllegroGraph is the one engine that executes pattern
    // matching live. Each is compared against its own snapshot.
    let dir = base.join("fastpath_neo4j");
    std::fs::create_dir_all(&dir).expect("dir");
    let mut engine = make_engine(EngineKind::Neo4j, &dir).expect("engine");
    let nodes = load_into_engine(engine.as_mut(), &graph).expect("load");
    let fz = engine.snapshot().expect("snapshot");
    let e = engine.as_ref();

    let mut rows: Vec<Row> = Vec::new();

    let pair = |i: usize| -> (NodeId, NodeId) {
        (
            nodes[i * 7 % nodes.len()],
            nodes[(i * 13 + 5) % nodes.len()],
        )
    };
    let mut i = 0usize;
    let live_adj = time_us(
        || {
            let (a, b) = pair(i);
            i = i.wrapping_add(1);
            black_box(e.adjacent(a, b).expect("universal"));
        },
        2000,
    );
    let mut i = 0usize;
    let frozen_adj = time_us(
        || {
            let (a, b) = pair(i);
            i = i.wrapping_add(1);
            black_box(gdm_algo::nodes_adjacent(&fz, a, b));
        },
        2000,
    );
    rows.push(Row {
        name: "adjacency",
        live_ops_s: Some(ops_s(live_adj)),
        frozen_ops_s: ops_s(frozen_adj),
        parallel_ops_s: None,
    });

    let (sa, sb) = (nodes[3], nodes[nodes.len() - 4]);
    let live_bfs = time_us(
        || {
            black_box(e.shortest_path(sa, sb).expect("supported"));
        },
        200,
    );
    let frozen_bfs = time_us(
        || {
            black_box(fz.frozen_distance(sa, sb));
        },
        200,
    );
    rows.push(Row {
        name: "bfs_distance",
        live_ops_s: Some(ops_s(live_bfs)),
        frozen_ops_s: ops_s(frozen_bfs),
        parallel_ops_s: None,
    });

    let live_diam = time_us(
        || {
            black_box(e.summarize(SummaryFunc::Diameter).expect("supported"));
        },
        diam_iters,
    );
    let frozen_diam = time_us(
        || {
            black_box(gdm_algo::par_diameter(&fz, Direction::Both, 1));
        },
        diam_iters,
    );
    let par_diam = time_us(
        || {
            black_box(gdm_algo::par_diameter(&fz, Direction::Both, threads));
        },
        diam_iters,
    );
    rows.push(Row {
        name: "diameter",
        live_ops_s: Some(ops_s(live_diam)),
        frozen_ops_s: ops_s(frozen_diam),
        parallel_ops_s: Some(ops_s(par_diam)),
    });

    let mut pattern = Pattern::new();
    let x = pattern.node(PatternNode::var("x"));
    let y = pattern.node(PatternNode::var("y"));
    let z = pattern.node(PatternNode::var("z"));
    pattern.edge(x, y, Some("knows")).expect("vars exist");
    pattern.edge(y, z, Some("knows")).expect("vars exist");
    {
        let dir = base.join("fastpath_allegro");
        std::fs::create_dir_all(&dir).expect("dir");
        let mut pe = make_engine(EngineKind::Allegro, &dir).expect("engine");
        load_into_engine(pe.as_mut(), &graph).expect("load");
        let pfz = pe.snapshot().expect("snapshot");
        let pe = pe.as_ref();
        let live_comp = time_us(
            || {
                black_box(
                    pe.analyze(AnalysisFunc::ConnectedComponents)
                        .expect("supported"),
                );
            },
            comp_iters,
        );
        let frozen_comp = time_us(
            || {
                black_box(gdm_algo::par_connected_components(&pfz, 1).len());
            },
            comp_iters,
        );
        let par_comp = time_us(
            || {
                black_box(gdm_algo::par_connected_components(&pfz, threads).len());
            },
            comp_iters,
        );
        rows.push(Row {
            name: "components",
            live_ops_s: Some(ops_s(live_comp)),
            frozen_ops_s: ops_s(frozen_comp),
            parallel_ops_s: Some(ops_s(par_comp)),
        });
        let live_pat = time_us(
            || {
                black_box(pe.pattern_match(&pattern).expect("supported"));
            },
            comp_iters,
        );
        // The frozen and parallel cells measure the execution path a
        // snapshot query actually takes — the one planned entry point,
        // which routes frozen inputs to the batch executor — with the
        // executor held to one worker and at the configured worker
        // count, where the plan's estimated work decides whether the
        // calling thread takes helpers (DESIGN.md §13). (The unplanned
        // reference matcher stays the correctness oracle in tests; its
        // per-row HashMap bindings are not the serving path.)
        gdm_algo::set_executor_workers(1);
        let one_worker_table = planned_match(&pfz, &pattern);
        let vectorized_pat = time_us(
            || {
                black_box(planned_match(&pfz, &pattern).len());
            },
            comp_iters,
        );
        // The workload property graph's own snapshot, also at one
        // worker, for the `pattern_planned` row below.
        let workload_fz = gdm_algo::FrozenGraph::freeze_attributed(&graph);
        let planned_frozen = time_us(
            || {
                black_box(planned_match(&workload_fz, &pattern).len());
            },
            comp_iters,
        );
        gdm_algo::set_executor_workers(threads);
        let par_vec_pat = time_us(
            || {
                black_box(planned_match(&pfz, &pattern).len());
            },
            comp_iters,
        );
        rows.push(Row {
            name: "pattern",
            live_ops_s: Some(ops_s(live_pat)),
            frozen_ops_s: ops_s(vectorized_pat),
            parallel_ops_s: Some(ops_s(par_vec_pat)),
        });
        // The CSR snapshot exists to be the *fast* layout. A frozen
        // pattern match slower than the live engine means the matcher
        // fell back to per-node generic dispatch (the PR-6 regression:
        // 40 ops/s frozen vs 342 live) — fail loudly rather than
        // letting the report normalize it.
        assert!(
            vectorized_pat <= live_pat,
            "frozen pattern match ({:.1} ops/s) regressed below live ({:.1} ops/s)",
            ops_s(vectorized_pat),
            ops_s(live_pat),
        );

        // The same entry point over a *live* view — the row-at-a-time
        // search every non-snapshot caller gets (selectivity ordering,
        // flat MatchTable) — on the workload property graph, beside
        // that graph's own snapshot at one worker.
        let planned_live = time_us(
            || {
                black_box(planned_match(&graph, &pattern).len());
            },
            comp_iters,
        );
        rows.push(Row {
            name: "pattern_planned",
            live_ops_s: Some(ops_s(planned_live)),
            frozen_ops_s: ops_s(planned_frozen),
            parallel_ops_s: None,
        });

        // Byte-identical results are the morsel driver's contract on
        // every machine. Admission is the executor's own decision, so
        // the check forces real morsels: the calling thread plus
        // `threads − 1` helpers (at least one), whatever this workload
        // estimates.
        let domains = gdm_algo::auto_domains(&pfz, &pattern);
        let forced = gdm_algo::vectorized::match_pattern_forced_morsels(
            &pfz,
            &pattern,
            &domains,
            threads.max(2),
            &ExecutionGuard::unlimited(),
        )
        .expect("an unlimited guard never interrupts");
        assert!(
            forced == one_worker_table,
            "morsel-driven match must be byte-identical to the one-worker run",
        );

        // Planning + EXPLAIN rendering throughput for the equivalent
        // algebra query (pushdown of `x.community = 3`).
        let mut q = SelectQuery {
            pattern: pattern.clone(),
            ..SelectQuery::default()
        };
        q.filter = Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("x".to_owned(), "community".to_owned()),
            Expr::Lit(Value::from(3)),
        ));
        q.projections = vec![Projection::Expr {
            name: "x.name".to_owned(),
            expr: Expr::Prop("x".to_owned(), "name".to_owned()),
        }];
        let explain_us = time_us(
            || {
                let planned = gdm_query::plan_select(&pfz, &q).expect("plans");
                black_box(planned.explain.render());
            },
            if smoke { 200 } else { 2000 },
        );
        rows.push(Row {
            name: "pattern_explain",
            live_ops_s: None,
            frozen_ops_s: ops_s(explain_us),
            parallel_ops_s: None,
        });
    }
    // ---- snapshot refresh: O(changes) re-freeze vs full rebuild -------
    //
    // The serving story (DESIGN.md §14): a mutation batch of ≤1% of the
    // graph should re-freeze in time proportional to the batch, not the
    // graph. Measured on the workload graph directly — a PropertyGraph
    // plus DeltaTracker is exactly what every engine's refreeze() path
    // reduces to.
    let refresh_iters = if smoke { 20u32 } else { 50 };
    let (refresh_full_us, refresh_inc_us, refresh_changes) = {
        let mut live = graph.clone();
        let mut ids: Vec<NodeId> = Vec::new();
        gdm_core::GraphView::visit_nodes(&live, &mut |n| ids.push(n));
        let prev = gdm_algo::FrozenGraph::freeze_attributed(&live);
        let mut tracker = gdm_core::DeltaTracker::new();
        tracker.reset(prev.epoch());
        // ≤1% mutation batch on the 1k workload: 6 property updates
        // plus 2 new edges touch at most 10 distinct rows.
        for i in 0..6 {
            let n = ids[(i * 37 + 11) % ids.len()];
            live.set_node_property(n, "age", Value::from(200 + i as i64))
                .expect("node exists");
            tracker.touch_node(n.raw());
        }
        for i in 0..2usize {
            let a = ids[(i * 53 + 7) % ids.len()];
            let b = ids[(i * 71 + 29) % ids.len()];
            live.add_edge(a, b, "knows", gdm_core::PropertyMap::new())
                .expect("endpoints exist");
            tracker.touch_node(a.raw());
            tracker.touch_node(b.raw());
        }
        let delta = tracker.peek();
        let changes = delta.change_count();
        let full_us = time_us(
            || {
                black_box(gdm_algo::FrozenGraph::freeze_attributed(&live).len());
            },
            refresh_iters,
        );
        let inc_us = time_us(
            || {
                black_box(gdm_algo::incremental_refreeze(&live, &prev, delta).len());
            },
            refresh_iters,
        );
        (full_us, inc_us, changes)
    };
    rows.push(Row {
        name: "refresh_full_rebuild",
        live_ops_s: None,
        frozen_ops_s: ops_s(refresh_full_us),
        parallel_ops_s: None,
    });
    rows.push(Row {
        name: "refresh_incremental",
        live_ops_s: None,
        frozen_ops_s: ops_s(refresh_inc_us),
        parallel_ops_s: None,
    });
    let refresh_speedup = refresh_full_us / refresh_inc_us;
    // The acceptance bar: on the full (non-smoke) workload a ≤1%
    // mutation batch must re-freeze at least 10× faster than a full
    // rebuild, or the incremental path has silently degraded to
    // O(graph). The smoke workload is too small for a stable ratio.
    if !smoke {
        assert!(
            refresh_speedup >= 10.0,
            "incremental re-freeze ({:.1} ops/s) is only {refresh_speedup:.1}x the full \
             rebuild ({:.1} ops/s); the O(changes) bar is 10x",
            ops_s(refresh_inc_us),
            ops_s(refresh_full_us),
        );
    }
    println!(
        "\nsnapshot refresh after a {refresh_changes}-change batch (≤1% of {people} nodes): \
         incremental {:.0} ops/s vs full {:.0} ops/s ({refresh_speedup:.1}x)",
        ops_s(refresh_inc_us),
        ops_s(refresh_full_us),
    );

    println!("\nCSR snapshot fast path ({} threads available):", threads);
    println!(
        "{:<14} {:>14} {:>14} {:>14}",
        "query", "live ops/s", "frozen ops/s", "parallel ops/s"
    );
    for r in &rows {
        println!(
            "{:<14} {:>14} {:>14} {:>14}",
            r.name,
            json_num(r.live_ops_s),
            json_num(Some(r.frozen_ops_s)),
            json_num(r.parallel_ops_s),
        );
    }

    // ---- machine-readable report --------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"workload\": {{ \"people\": {people}, \"edges\": {}, \"seed\": 2012 }},\n",
        gdm_core::GraphView::edge_count(&graph)
    ));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        gdm_algo::default_threads()
    ));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"snapshot_refresh\": {{ \"changes\": {refresh_changes}, \
         \"incremental_ops_s\": {:.1}, \"full_rebuild_ops_s\": {:.1}, \
         \"speedup\": {refresh_speedup:.1} }},\n",
        ops_s(refresh_inc_us),
        ops_s(refresh_full_us),
    ));
    let single_core_warning = if threads == 1 {
        "WARNING: available_parallelism is 1 on this machine, so parallel rows measure \
         thread-pool overhead with no speedup — compare frozen columns only. "
    } else {
        ""
    };
    json.push_str(&format!(
        "  \"note\": \"{single_core_warning}ops/s, higher is better; parallel rows use all \
         available threads, so speedup over frozen is bounded by the machine's core count\",\n",
    ));
    json.push_str("  \"queries\": {\n");
    for (idx, r) in rows.iter().enumerate() {
        let comma = if idx + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{}\": {{ \"live_ops_s\": {}, \"frozen_ops_s\": {}, \"parallel_ops_s\": {}, \"parallelism\": {} }}{comma}\n",
            r.name,
            json_num(r.live_ops_s),
            json_num(Some(r.frozen_ops_s)),
            json_num(r.parallel_ops_s),
            r.parallelism(threads),
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&json_path, json).expect("write json report");
    println!("\nwrote {json_path}");

    let _ = std::fs::remove_dir_all(&base);
}

//! Property suite for the cost-based pattern planner.
//!
//! Three invariants hold the planner together:
//!
//! 1. **Planned ≡ unplanned.** On any graph and any pattern/query, the
//!    planned matcher (index-seeded domains, selectivity ordering) and
//!    the shared-algebra planner (predicate pushdown) must produce the
//!    same bindings/rows as the unplanned reference path — same sets,
//!    any order (result rows are compared after the deterministic
//!    sort both paths share).
//! 2. **Maintained ≡ rebuilt.** `PropertyGraph`'s auto-maintained
//!    per-key value indexes, after an arbitrary insert/remove/update
//!    sequence, must answer exactly like an index rebuilt from scratch
//!    over the surviving nodes — and both must agree with a raw scan.
//! 3. **Expanded ≡ checked.** A variable-length edge, which the planned
//!    executors expand from a bound endpoint, must select exactly the
//!    pairs the reference predicate `within_hops` accepts — on the live
//!    view, on the snapshot, across morsel workers, and through the
//!    corrupt-domain fallback.

use graph_db_models::algo::pattern::{canonical, match_pattern, Pattern, PatternNode};
use graph_db_models::algo::planned::{auto_domains, match_pattern_seeded};
use graph_db_models::algo::vectorized::{match_pattern_forced_morsels, BATCH};
use graph_db_models::algo::FrozenGraph;
use graph_db_models::core::{props, AttributedView, Direction, GraphView, NodeId, Value};
use graph_db_models::govern::ExecutionGuard;
use graph_db_models::graphs::PropertyGraph;
use graph_db_models::query::eval::{evaluate_select, evaluate_select_unplanned};
use graph_db_models::query::plan::{
    evaluate_select_planned, execute_planned_governed, plan_select, ExplainPlan,
};
use graph_db_models::query::{BinOp, Expr, Projection, SelectQuery, VarLengthEdge};
use graph_db_models::storage::{BTreeIndex, ValueIndex};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["person", "place", "thing"];
const COLORS: [&str; 2] = ["red", "blue"];
const EDGE_LABELS: [&str; 3] = ["a", "b", "c"];

type NodeSpec = (u8, i64, bool, u8);
type EdgeSpec = (usize, usize, u8, i64, bool);

/// A random attributed graph: every node gets a label, an Int-or-Float
/// `k` (both families, so loose equality matters), and a `c` color;
/// every edge gets an Int-or-Float `w`, so range predicates over edge
/// properties have something to bite on.
fn graph_strategy() -> impl Strategy<Value = (PropertyGraph, Vec<NodeId>)> {
    (
        prop::collection::vec((0u8..3, 0i64..4, prop::bool::ANY, 0u8..2), 2..12),
        prop::collection::vec(
            (0usize..12, 0usize..12, 0u8..3, 0i64..5, prop::bool::ANY),
            0..24,
        ),
    )
        .prop_map(|(specs, edges): (Vec<NodeSpec>, Vec<EdgeSpec>)| {
            let mut g = PropertyGraph::new();
            let nodes: Vec<NodeId> = specs
                .iter()
                .map(|&(l, k, float, c)| {
                    let k = if float {
                        Value::Float(k as f64)
                    } else {
                        Value::Int(k)
                    };
                    g.add_node(
                        LABELS[l as usize],
                        props! { "k" => k, "c" => COLORS[c as usize] },
                    )
                })
                .collect();
            for (a, b, l, w, float) in edges {
                let n = nodes.len();
                let w = if float {
                    Value::Float(w as f64)
                } else {
                    Value::Int(w)
                };
                g.add_edge(
                    nodes[a % n],
                    nodes[b % n],
                    EDGE_LABELS[l as usize],
                    props! { "w" => w },
                )
                .expect("endpoints exist");
            }
            (g, nodes)
        })
}

type VarSpec = (u8, u8);
type PatternEdgeSpec = ((usize, usize, u8, bool), (u8, i64, i64));

/// Builds a pattern from raw spec data: per-variable optional label
/// (including one no node carries) and optional property constraint
/// (Int, loose-equal Float, or string), plus arbitrary edges —
/// self-loops and parallel constraints included. Edges optionally
/// carry a range predicate over `w` (half-open, closed, empty, and
/// cross-family Int/Float bounds all reachable).
fn build_pattern(vars: &[VarSpec], edges: &[PatternEdgeSpec]) -> Pattern {
    let mut p = Pattern::new();
    for (i, &(l, c)) in vars.iter().enumerate() {
        let mut pn = PatternNode::var(format!("v{i}"));
        pn = match l {
            0 | 1 => pn,
            2 => pn.with_label("person"),
            3 => pn.with_label("place"),
            _ => pn.with_label("zzz"),
        };
        pn = match c {
            0..=2 => pn,
            3 => pn.with_prop("k", 2),
            4 => pn.with_prop("k", 2.0),
            _ => pn.with_prop("c", "red"),
        };
        p.node(pn);
    }
    for &((f, t, l, undirected), (range, lo, hi)) in edges {
        let (f, t) = (f % vars.len(), t % vars.len());
        let label = match l {
            0 => None,
            1 => Some("a"),
            2 => Some("b"),
            _ => Some("zz"),
        };
        if undirected {
            p.edge_undirected(f, t, label).expect("vars exist");
        } else {
            p.edge(f, t, label).expect("vars exist");
        }
        match range {
            0..=2 => {} // no range predicate
            3 => p
                .edge_range("w", Some(Value::Int(lo)), None)
                .expect("edge exists"),
            4 => p
                .edge_range("w", None, Some(Value::Float(hi as f64)))
                .expect("edge exists"),
            _ => p
                .edge_range("w", Some(Value::Int(lo)), Some(Value::Int(hi)))
                .expect("edge exists"),
        }
    }
    p
}

fn pattern_strategy() -> impl Strategy<Value = (Vec<VarSpec>, Vec<PatternEdgeSpec>)> {
    (
        prop::collection::vec((0u8..6, 0u8..6), 1..4),
        prop::collection::vec(
            (
                (0usize..4, 0usize..4, 0u8..4, prop::bool::ANY),
                (0u8..6, 0i64..5, 0i64..5),
            ),
            0..4,
        ),
    )
}

proptest! {
    /// Invariant 1 at the matcher level: the planned entry point on
    /// the live graph (row-at-a-time search) and on its CSR snapshot
    /// (batch pipeline), with domains seeded on either, reproduces the
    /// unplanned binding set — and on the snapshot, forced morsel
    /// execution is byte-identical to the one-worker run.
    #[test]
    fn planned_matcher_equals_unplanned(
        (g, _) in graph_strategy(),
        (vars, edges) in pattern_strategy(),
    ) {
        let p = build_pattern(&vars, &edges);
        let reference = canonical(&match_pattern(&g, &p, &ExecutionGuard::unlimited()).unwrap());
        let guard = ExecutionGuard::unlimited();

        let domains = auto_domains(&g, &p);
        let live = match_pattern_seeded(&g, &p, &domains, &guard)
            .expect("unlimited guard never interrupts");
        prop_assert_eq!(canonical(&live.to_bindings()), reference.clone());

        // Snapshot ≡ live ≡ unplanned: the batch executor with
        // domains seeded on the *snapshot* (so dense translation is
        // covered) and with the live graph's domains (same node ids).
        // Per-batch governor ticks must not change the result.
        let fz = FrozenGraph::freeze(&g);
        let fz_domains = auto_domains(&fz, &p);
        let frozen = match_pattern_seeded(&fz, &p, &fz_domains, &guard)
            .expect("unlimited guard never interrupts");
        prop_assert_eq!(canonical(&frozen.to_bindings()), reference.clone());
        let frozen_live_domains = match_pattern_seeded(&fz, &p, &domains, &guard)
            .expect("unlimited guard never interrupts");
        prop_assert_eq!(canonical(&frozen_live_domains.to_bindings()), reference);

        // Morsel execution ≡ one worker, and not just set-equal: the
        // tables must be *byte-identical* (same rows in the same
        // order). The forced entry point skips the minimum-root-count
        // threshold so these tiny graphs really do split into
        // per-worker morsels, even on a single-core machine.
        let one_worker = match_pattern_forced_morsels(&fz, &p, &fz_domains, 1, &guard)
            .expect("unlimited guard never interrupts");
        let par_forced = match_pattern_forced_morsels(&fz, &p, &fz_domains, 3, &guard)
            .expect("unlimited guard never interrupts");
        prop_assert_eq!(&par_forced, &one_worker);
        // The entry point at the process's worker setting agrees too.
        prop_assert_eq!(&frozen, &one_worker);
    }
}

type ConjunctSpec = (usize, u8, u8, i64);

/// Builds a WHERE conjunction over the pattern variables: a mix of
/// pushable equalities (stored props, the label pseudo-property) and
/// residual predicates (comparisons, NULL equality).
fn build_filter(vars: usize, conjuncts: &[ConjunctSpec]) -> Option<Expr> {
    conjuncts
        .iter()
        .map(|&(v, key, op, lit)| {
            let var = format!("v{}", v % vars);
            let (key, lit) = match key {
                0 => ("k", Value::Int(lit)),
                1 => ("k", Value::Float(lit as f64)),
                2 => (
                    "c",
                    Value::Str(COLORS[lit.unsigned_abs() as usize % 2].to_owned()),
                ),
                3 => (
                    "label",
                    Value::Str(LABELS[lit.unsigned_abs() as usize % 3].to_owned()),
                ),
                _ => ("k", Value::Null),
            };
            let prop = Expr::Prop(var, key.to_owned());
            match op {
                0 | 1 => Expr::bin(BinOp::Eq, prop, Expr::Lit(lit)),
                2 => Expr::bin(BinOp::Eq, Expr::Lit(lit), prop),
                // The full range-pushdown surface: every comparison
                // operator, both operand orders (a reversed literal
                // flips the effective bound direction).
                3 => Expr::bin(BinOp::Gt, prop, Expr::Lit(lit)),
                4 => Expr::bin(BinOp::Lt, prop, Expr::Lit(lit)),
                5 => Expr::bin(BinOp::Ge, prop, Expr::Lit(lit)),
                6 => Expr::bin(BinOp::Le, Expr::Lit(lit), prop),
                _ => Expr::bin(BinOp::Ne, prop, Expr::Lit(lit)),
            }
        })
        .reduce(|a, b| Expr::bin(BinOp::And, a, b))
}

proptest! {
    /// Invariant 1 at the query level: pushdown + planned matching
    /// returns byte-identical rows to the unplanned pipeline, and the
    /// recorded plan round-trips through its text form.
    #[test]
    fn planned_query_equals_unplanned(
        (g, _) in graph_strategy(),
        (vars, edges) in pattern_strategy(),
        conjuncts in prop::collection::vec((0usize..4, 0u8..5, 0u8..8, 0i64..4), 0..4),
    ) {
        let mut q = SelectQuery {
            pattern: build_pattern(&vars, &edges),
            ..SelectQuery::default()
        };
        for i in 0..vars.len() {
            q.projections.push(Projection::Expr {
                name: format!("v{i}"),
                expr: Expr::Var(format!("v{i}")),
            });
        }
        q.filter = build_filter(vars.len(), &conjuncts);

        let reference = evaluate_select_unplanned(&g, &q).expect("reference path evaluates");
        let (rows, explain) = evaluate_select_planned(&g, &q).expect("planned path evaluates");
        prop_assert_eq!(&rows, &reference);
        // The facade entry point is the planned path.
        prop_assert_eq!(&evaluate_select(&g, &q).expect("facade evaluates"), &reference);
        let parsed = ExplainPlan::parse(&explain.render()).expect("explain round-trips");
        prop_assert_eq!(parsed, explain);

        // On the CSR snapshot the batch executor runs (and the
        // snapshot's own indexes seed the domains) — the rows must not
        // change.
        let fz = FrozenGraph::freeze(&g);
        let (fz_rows, _) =
            evaluate_select_planned(&fz, &q).expect("frozen planned path evaluates");
        prop_assert_eq!(&fz_rows, &reference);
    }
}

const WALK_EDGE_LABELS: [Option<&str>; 3] = [None, Some("a"), Some("b")];
const DIRECTIONS: [Direction; 3] = [Direction::Outgoing, Direction::Incoming, Direction::Both];

/// `(label, k)` per core node, `(from, to, label)` per core edge, and
/// for a hub graph how many leaves beyond [`BATCH`] it fans out to.
type WalkGraphSpec = (Vec<(u8, i64)>, Vec<(usize, usize, u8)>, Option<usize>);

/// A directed graph for the variable-length property: three to eight
/// labelled core nodes (unique `id`, shared `k`) under random edges
/// over two labels — cycles, self loops and parallel edges included —
/// and, in one case out of four, the first core node a hub fanning
/// out to more than [`BATCH`] leaves (PR 12's bug class: one source row
/// overflowing a batch), some of which lead back into the core.
fn walk_graph_strategy() -> impl Strategy<Value = WalkGraphSpec> {
    (
        prop::collection::vec((0u8..2, 0i64..3), 3..9),
        prop::collection::vec((0usize..8, 0usize..8, 0u8..2), 0..20),
        (0u8..4, 1usize..64),
    )
        .prop_map(|(core, edges, (hub, extra))| (core, edges, (hub == 0).then_some(extra)))
}

fn build_walk_graph((core, edges, hub): &WalkGraphSpec) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let nodes: Vec<NodeId> = core
        .iter()
        .enumerate()
        .map(|(i, &(label, k))| {
            let label = ["person", "place"][label as usize];
            g.add_node(label, props! { "id" => i as i64, "k" => k })
        })
        .collect();
    let edge_label = |l: usize| ["a", "b"][l % 2];
    let n = nodes.len();
    for &(from, to, label) in edges {
        g.add_edge(
            nodes[from % n],
            nodes[to % n],
            edge_label(label as usize),
            props! {},
        )
        .expect("endpoints exist");
    }
    if let Some(extra) = *hub {
        let hub = nodes[0];
        for i in 0..BATCH + extra {
            let leaf = g.add_node("leaf", props! {});
            g.add_edge(hub, leaf, "a", props! {})
                .expect("endpoints exist");
            if i % 3 == 0 {
                g.add_edge(hub, leaf, "b", props! {})
                    .expect("endpoints exist");
            }
            if i < 16 {
                g.add_edge(leaf, nodes[i % n], edge_label(i / 2), props! {})
                    .expect("endpoints exist");
            }
        }
    }
    g
}

/// `(label, direction, min, extra)`: hop range `min..=min(min + extra, 4)`.
type HopsSpec = (u8, u8, usize, usize);

/// Per-variable constraint kinds and values, the pattern's shape, and
/// its two variable-length edges.
type WalkQuerySpec = (Vec<(u8, i64)>, u8, Vec<HopsSpec>);

fn walk_query_strategy() -> impl Strategy<Value = WalkQuerySpec> {
    (
        prop::collection::vec((0u8..7, 0i64..8), 3..4),
        0u8..5,
        prop::collection::vec((0u8..3, 0u8..3, 1usize..4, 0usize..4), 2..3),
    )
}

/// Builds one of five shapes over variables `a`, `b`, `c`:
/// `(a)-[*]-(b)`, `(a)-[fixed]->(b)-[*]-(c)`, `(a)-[*]-(b)-[*]-(c)`,
/// `(a)-[*]-(a)`, and two variable-length edges between `a` and `b`.
/// Each variable is unconstrained, labelled (so not index-bound: no
/// domain), or index-bound by its unique `id` or shared `k`.
fn build_walk_query((vars, shape, hops): &WalkQuerySpec, graph: &WalkGraphSpec) -> SelectQuery {
    let used = match shape {
        0 | 4 => 2,
        3 => 1,
        _ => 3,
    };
    let (core, leaves) = (graph.0.len(), graph.2.map_or(0, |extra| BATCH + extra));
    let mut kinds: Vec<u8> = vars.iter().take(used).map(|&(kind, _)| kind).collect();
    // The reference pipeline checks every binding of the fixed pattern
    // with a search of its own: on a hub graph, pin the narrower
    // variables until only one may still range over the leaves.
    let size = |kind: u8| match kind {
        0 | 1 => core + leaves,
        4 => leaves.max(1),
        5 => 1,
        _ => core,
    };
    while kinds.iter().map(|&k| size(k)).product::<usize>() > 1_200 {
        let unpinned = (0..used).filter(|&i| kinds[i] != 5);
        let narrowest = unpinned
            .min_by_key(|&i| size(kinds[i]))
            .expect("a variable");
        kinds[narrowest] = 5;
    }

    let mut q = SelectQuery::default();
    for (i, name) in ["a", "b", "c"].into_iter().take(used).enumerate() {
        let node = PatternNode::var(name);
        q.pattern.node(match kinds[i] {
            0 | 1 => node,
            2 => node.with_label("person"),
            3 => node.with_label("place"),
            4 => node.with_label("leaf"),
            5 => node.with_prop("id", vars[i].1 % core as i64),
            _ => node.with_prop("k", vars[i].1 % 3),
        });
        q.projections.push(Projection::Expr {
            name: name.into(),
            expr: Expr::Var(name.into()),
        });
    }
    let mut path = |from: &str, to: &str, &(label, direction, min, extra): &HopsSpec| {
        q.var_paths.push(VarLengthEdge {
            from: from.into(),
            to: to.into(),
            label: WALK_EDGE_LABELS[label as usize].map(str::to_owned),
            direction: DIRECTIONS[direction as usize],
            min,
            max: (min + extra).min(4),
        });
    };
    match shape {
        0 => path("a", "b", &hops[0]),
        1 => path("b", "c", &hops[0]),
        2 => {
            path("a", "b", &hops[0]);
            path("b", "c", &hops[1]);
        }
        3 => path("a", "a", &hops[0]),
        _ => {
            path("a", "b", &hops[0]);
            path("b", "a", &hops[1]);
        }
    }
    if *shape == 1 {
        let label = WALK_EDGE_LABELS[hops[1].0 as usize];
        q.pattern.edge(0, 1, label).expect("vars exist");
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 3: one or two variable-length edges — any label, any
    /// direction, `min` up to 3, `max` up to 4, either, both or neither
    /// endpoint index-bound, alone, chained after a fixed edge, chained
    /// after each other, or closing on their own start — answer alike
    /// through the reference predicate, the live search, the batch
    /// pipeline, its morsel driver, and the corrupt-domain fallback.
    #[test]
    fn variable_length_edges_expand_to_what_the_reference_checks(
        graph in walk_graph_strategy(),
        query in walk_query_strategy(),
    ) {
        let g = build_walk_graph(&graph);
        let q = build_walk_query(&query, &graph);
        let guard = ExecutionGuard::unlimited();
        let reference = evaluate_select_unplanned(&g, &q).expect("reference path evaluates");

        let (live_rows, explain) = evaluate_select_planned(&g, &q).expect("live plan evaluates");
        prop_assert_eq!(&live_rows, &reference);
        let parsed = ExplainPlan::parse(&explain.render()).expect("explain round-trips");
        prop_assert_eq!(parsed, explain);

        let fz = FrozenGraph::freeze(&g);
        let planned = plan_select(&fz, &q).expect("snapshot plan");
        prop_assert!(planned.query.var_paths.is_empty());
        let (pattern, domains) = (&planned.query.pattern, &planned.domains);
        let one_worker = match_pattern_forced_morsels(&fz, pattern, domains, 1, &guard)
            .expect("unlimited guard never interrupts");
        let three_workers = match_pattern_forced_morsels(&fz, pattern, domains, 3, &guard)
            .expect("unlimited guard never interrupts");
        prop_assert_eq!(&three_workers, &one_worker);
        let seeded = match_pattern_seeded(&fz, pattern, domains, &guard)
            .expect("unlimited guard never interrupts");
        prop_assert_eq!(&seeded, &one_worker);
        let frozen_rows = execute_planned_governed(&fz, &planned, &guard).expect("snapshot rows");
        prop_assert_eq!(&frozen_rows, &reference);

        // A dangling id in a domain sends either view to the reference
        // matcher, whose edge check is the reference predicate (so on a
        // hub graph this would only repeat the reference's work).
        if graph.2.is_some() {
            return Ok(());
        }
        let mut corrupt = planned;
        corrupt.domains[0] = Some(vec![NodeId(u64::MAX)]);
        let fallback = execute_planned_governed(&fz, &corrupt, &guard).expect("fallback rows");
        prop_assert_eq!(&fallback, &reference);
        let fallback = execute_planned_governed(&g, &corrupt, &guard).expect("fallback rows");
        prop_assert_eq!(&fallback, &reference);
    }
}

/// Range predicates only filter, on every view: `plan_select` gives
/// the live graph and its snapshot one plan, and both answer with the
/// reference rows. Strict bounds stay exact, a between-shaped conjunct
/// pair keeps both bounds, and a key no node carries matches nothing.
#[test]
fn range_predicates_filter_alike_on_live_and_frozen_views() {
    use graph_db_models::query::plan::Access;
    use graph_db_models::query::ResultSet;

    /// Plans `q` on `g` and on its snapshot, checks the two plans are
    /// equal and both views return the unplanned rows, and returns
    /// those rows with the plan.
    fn one_policy(g: &PropertyGraph, q: &SelectQuery) -> (ResultSet, ExplainPlan) {
        let fz = FrozenGraph::freeze(g);
        let live = plan_select(g, q).expect("plans on the live graph");
        let frozen = plan_select(&fz, q).expect("plans on the snapshot");
        assert_eq!(live.explain, frozen.explain, "one plan on both views");
        let reference = evaluate_select_unplanned(g, q).unwrap();
        let guard = ExecutionGuard::unlimited();
        let rows = execute_planned_governed(g, &live, &guard).expect("live rows");
        assert_eq!(rows, reference);
        let rows = execute_planned_governed(&fz, &frozen, &guard).expect("snapshot rows");
        assert_eq!(rows, reference);
        let parsed = ExplainPlan::parse(&live.explain.render()).expect("plan text round-trips");
        assert_eq!(parsed, live.explain);
        (reference, live.explain)
    }

    let mut g = PropertyGraph::new();
    for (name, age) in [("ada", 36), ("bob", 25), ("cleo", 41), ("dan", 36)] {
        g.add_node("person", props! { "name" => name, "age" => age });
    }
    let range_query = |filter: Expr| {
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("p"));
        q.projections.push(Projection::Expr {
            name: "name".into(),
            expr: Expr::Prop("p".into(), "name".into()),
        });
        q.filter = Some(filter);
        q
    };
    let age = || Expr::Prop("p".into(), "age".into());

    // Strict bound: age > 36 excludes the boundary value.
    let q = range_query(Expr::bin(BinOp::Gt, age(), Expr::Lit(Value::from(36))));
    let (rows, explain) = one_policy(&g, &q);
    assert_eq!(rows.len(), 1, "only cleo is over 36");
    assert_eq!(rows.rows[0][0], Value::from("cleo"));
    assert_eq!(
        explain.steps[0].access,
        Access::Scan,
        "a range seeds nothing"
    );
    assert_eq!(explain.residual, 1, "the predicate stays in the filter");

    // Between-shaped pair: 30 <= age AND age < 40.
    let q = range_query(Expr::bin(
        BinOp::And,
        Expr::bin(BinOp::Le, Expr::Lit(Value::from(30)), age()),
        Expr::bin(BinOp::Lt, age(), Expr::Lit(Value::from(40))),
    ));
    let (rows, explain) = one_policy(&g, &q);
    assert_eq!(rows.len(), 2, "ada and dan are in [30, 40)");
    assert_eq!(explain.residual, 2, "both bounds stay in the filter");

    // A never-indexed key: the query still answers by scan.
    let q = range_query(Expr::bin(
        BinOp::Lt,
        Expr::Prop("p".into(), "salary".into()),
        Expr::Lit(Value::from(10)),
    ));
    let (rows, explain) = one_policy(&g, &q);
    assert!(rows.is_empty(), "nobody has a salary property");
    assert_eq!(explain.steps[0].access, Access::Scan);

    // An edge range stays on its pattern edge: a ring of ten `knows`
    // edges, `since` 2000..=2009, three of them in [2003, 2005].
    let mut g = PropertyGraph::new();
    let people: Vec<NodeId> = (0..10i64)
        .map(|i| g.add_node("person", props! { "i" => i }))
        .collect();
    for i in 0..10usize {
        let since = props! { "since" => 2000 + i as i64 };
        g.add_edge(people[i], people[(i + 1) % 10], "knows", since)
            .unwrap();
    }
    let mut q = SelectQuery::default();
    let a = q.pattern.node(PatternNode::var("a"));
    let b = q.pattern.node(PatternNode::var("b"));
    q.pattern.edge(a, b, Some("knows")).unwrap();
    q.pattern
        .edge_range("since", Some(Value::from(2003)), Some(Value::from(2005)))
        .unwrap();
    q.projections.push(Projection::Expr {
        name: "i".into(),
        expr: Expr::Prop("a".into(), "i".into()),
    });
    let (rows, explain) = one_policy(&g, &q);
    assert_eq!(rows.len(), 3);
    assert!(explain.steps.iter().all(|s| s.access == Access::Scan));
}

fn probe_values() -> Vec<Value> {
    let mut probes: Vec<Value> = (0..5)
        .flat_map(|i| [Value::Int(i), Value::Float(i as f64)])
        .collect();
    probes.push(Value::Str("red".to_owned()));
    probes.push(Value::Str("blue".to_owned()));
    probes
}

proptest! {
    /// Invariant 2: after a random insert/remove/update sequence, the
    /// auto-maintained indexes answer exactly like indexes rebuilt
    /// from scratch over the surviving nodes, and like a raw scan.
    #[test]
    fn maintained_indexes_equal_rebuilt(
        ops in prop::collection::vec((0u8..4, 0usize..16, 0u8..2, 0i64..5, prop::bool::ANY), 1..48),
    ) {
        let mut g = PropertyGraph::new();
        let mut alive: Vec<NodeId> = Vec::new();
        for (op, sel, key, val, float) in ops {
            let value = if float {
                Value::Float(val as f64)
            } else {
                Value::Int(val)
            };
            match op {
                // Insert (seeded with an indexed property).
                0 | 1 => {
                    let label = LABELS[sel % LABELS.len()];
                    alive.push(g.add_node(label, props! { "k" => value }));
                }
                // Remove.
                2 => {
                    if !alive.is_empty() {
                        let n = alive.remove(sel % alive.len());
                        g.remove_node(n).expect("node is alive");
                    }
                }
                // Update (sometimes a fresh key, sometimes overwriting).
                _ => {
                    if !alive.is_empty() {
                        let n = alive[sel % alive.len()];
                        let key = ["k", "c"][key as usize];
                        g.set_node_property(n, key, value).expect("node is alive");
                    }
                }
            }
        }

        let keys: Vec<String> = g
            .indexed_property_keys()
            .iter()
            .map(|k| (*k).to_owned())
            .collect();
        for key in &keys {
            // Rebuild the index from scratch over the surviving nodes.
            let mut rebuilt = BTreeIndex::new();
            for &n in &alive {
                if let Some(v) = g.node_property(n, key) {
                    rebuilt.insert(&v, n.raw());
                }
            }
            for probe in probe_values() {
                let mut maintained: Vec<u64> =
                    g.nodes_with_property(key, &probe).iter().map(|n| n.raw()).collect();
                maintained.sort_unstable();
                let mut fresh = rebuilt.lookup_loose(&probe);
                fresh.sort_unstable();
                let mut scan: Vec<u64> = alive
                    .iter()
                    .filter(|&&n| {
                        g.node_property(n, key).is_some_and(|got| got.loose_eq(&probe))
                    })
                    .map(|n| n.raw())
                    .collect();
                scan.sort_unstable();
                prop_assert_eq!(&maintained, &fresh, "key {} probe {:?}", key, probe);
                prop_assert_eq!(&fresh, &scan, "key {} probe {:?}", key, probe);
            }
        }
        // A key never written is never indexed — and never matches.
        prop_assert!(g.nodes_with_property("never", &Value::Int(1)).is_empty());

        // The index-backed candidate sets agree with the trait's
        // full-scan contract after all that churn, too.
        for label in LABELS.iter().map(Some).chain([None]) {
            for probe in [Value::Int(3), Value::Float(3.0)] {
                let constraint = [("k".to_owned(), probe)];
                let mut fast: Vec<u64> = g
                    .candidates(label.copied(), &constraint)
                    .iter()
                    .map(|n| n.raw())
                    .collect();
                fast.sort_unstable();
                let mut slow: Vec<u64> = alive
                    .iter()
                    .filter(|&&n| {
                        let label_ok = match label {
                            None => true,
                            Some(want) => g
                                .node_label(n)
                                .and_then(|s| g.label_text(s))
                                .is_some_and(|t| t == *want),
                        };
                        label_ok
                            && constraint.iter().all(|(k, v)| {
                                g.node_property(n, k).is_some_and(|got| got.loose_eq(v))
                            })
                    })
                    .map(|n| n.raw())
                    .collect();
                slow.sort_unstable();
                prop_assert_eq!(fast, slow);
            }
        }
    }
}

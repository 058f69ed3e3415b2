//! Governor accounting and interruption guarantees.
//!
//! Two properties, both load-bearing for trusting governed execution:
//!
//! 1. **Exact accounting.** Every governed search charges its guard
//!    through a meter that settles every unit it counts: limited to
//!    exactly the totals an unlimited run charged, a search returns
//!    the same answer, and one node unit fewer interrupts it. The
//!    answers are checked against independent code on random graphs.
//! 2. **Interruption.** Under a hopeless limit (an already-expired
//!    deadline, a one-node budget) an expensive query on a committed
//!    1k-node workload returns a structured `Interrupted` error — it
//!    neither hangs nor panics nor corrupts the engine — on every one
//!    of the nine emulated engines.

use graph_db_models::algo::analysis::connected_components;
use graph_db_models::algo::paths::reachable_set;
use graph_db_models::algo::pattern::{canonical, match_pattern, PatternNode};
use graph_db_models::algo::planned::{auto_domains, match_pattern_seeded};
use graph_db_models::algo::regular::{regular_path_exists, regular_simple_paths, LabelRegex};
use graph_db_models::algo::summary::{diameter, eccentricity};
use graph_db_models::algo::{k_neighborhood, shortest_path, FrozenGraph, Pattern, Traversal};
use graph_db_models::bench::workload::{load_into_engine, social_graph, SocialParams};
use graph_db_models::core::{Direction, InterruptReason, NodeId, Result, Value};
use graph_db_models::engines::{make_engine, EngineKind, SummaryFunc};
use graph_db_models::govern::{ExecutionGuard, Limits};
use graph_db_models::graphs::rdf::{RdfGraph, Term};
use graph_db_models::graphs::SimpleGraph;
use graph_db_models::query::sparql;
use proptest::prelude::*;
use std::fmt::Debug;
use std::time::Duration;

/// A random small directed graph with labels from a 3-letter alphabet.
fn graph_strategy() -> impl Strategy<Value = (SimpleGraph, usize)> {
    (
        2usize..10,
        prop::collection::vec((0usize..10, 0usize..10, 0u8..3), 0..25),
    )
        .prop_map(|(n, edges)| {
            let mut g = SimpleGraph::directed();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
            for (a, b, l) in edges {
                let label = ["a", "b", "c"][l as usize];
                g.add_labeled_edge(nodes[a % n], nodes[b % n], label)
                    .expect("nodes exist");
            }
            (g, n)
        })
}

/// A 2-variable connected pattern: x -> y over any labels.
fn wedge_pattern() -> Pattern {
    let mut p = Pattern::new();
    let x = p.node(PatternNode::var("x"));
    let y = p.node(PatternNode::var("y"));
    p.edge(x, y, None).expect("valid indices");
    p
}

/// Runs `search` under an unlimited guard, then under a guard limited
/// to exactly the node, edge and row totals that run charged — which
/// must return the same answer — and, when it charged any node or
/// edge, under one unit fewer of it — which must trip the budget.
/// Returns the answer.
fn holds_at_charged_total<T: PartialEq + Debug>(
    search: impl Fn(&ExecutionGuard) -> Result<T>,
) -> T {
    let unlimited = ExecutionGuard::unlimited();
    let answer = search(&unlimited).expect("an unlimited guard never interrupts");
    let spent = unlimited.budget();
    let exact = Limits::none()
        .with_node_visits(spent.node_visits())
        .with_edge_visits(spent.edge_visits())
        .with_rows(spent.rows_emitted());
    let at_total = search(&ExecutionGuard::new(exact)).expect("the charged total fits");
    assert_eq!(at_total, answer);
    if let Some(fewer) = spent.node_visits().checked_sub(1) {
        let err = search(&ExecutionGuard::new(exact.with_node_visits(fewer))).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Budget));
    }
    if let Some(fewer) = spent.edge_visits().checked_sub(1) {
        let err = search(&ExecutionGuard::new(exact.with_edge_visits(fewer))).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Budget));
    }
    answer
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The governed searches hold at exactly their charged totals (so
    /// their meters neither drop nor invent a unit) — the breadth-first
    /// searches on a live view and on its snapshot alike — and answer
    /// what independent code answers: the planned matcher, the BFS depths of a `Traversal`,
    /// simple-path enumeration (a simple path is a walk) and the
    /// regular-path product search (reachable means some walk of any
    /// labels gets there).
    #[test]
    fn budgets_hold_at_the_charged_total((g, n) in graph_strategy()) {
        let fz = FrozenGraph::freeze(&g);
        let pattern = wedge_pattern();
        let matches = holds_at_charged_total(|guard| match_pattern(&g, &pattern, guard));
        let seeded = match_pattern_seeded(
            &g,
            &pattern,
            &auto_domains(&g, &pattern),
            &ExecutionGuard::unlimited(),
        )
        .unwrap();
        prop_assert_eq!(canonical(&matches), canonical(&seeded.to_bindings()));

        let components = holds_at_charged_total(|guard| connected_components(&g, guard));
        prop_assert_eq!(
            components,
            holds_at_charged_total(|guard| connected_components(&fz, guard))
        );

        let regex = LabelRegex::compile("(a|b)*c?").unwrap();
        let any_walk = LabelRegex::compile("(a|b|c)*").unwrap();
        for i in 0..n {
            let a = NodeId(i as u64);
            for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
                let ecc = holds_at_charged_total(|guard| eccentricity(&g, a, dir, guard));
                prop_assert_eq!(
                    ecc,
                    holds_at_charged_total(|guard| eccentricity(&fz, a, dir, guard))
                );
                let depths = Traversal::new(a).direction(dir).visits(&g);
                prop_assert_eq!(ecc, depths.iter().map(|v| v.depth).max());
                let reach = holds_at_charged_total(|guard| reachable_set(&g, a, dir, guard));
                prop_assert_eq!(
                    &reach,
                    &holds_at_charged_total(|guard| reachable_set(&fz, a, dir, guard))
                );
                if dir == Direction::Outgoing {
                    for j in 0..n {
                        let b = NodeId(j as u64);
                        let unlimited = ExecutionGuard::unlimited();
                        let walk = regular_path_exists(&g, a, b, &any_walk, &unlimited).unwrap();
                        prop_assert_eq!(reach.contains(&b.raw()), walk);
                    }
                }
                let hood = holds_at_charged_total(|guard| k_neighborhood(&g, a, 2, dir, guard));
                prop_assert_eq!(
                    hood,
                    holds_at_charged_total(|guard| k_neighborhood(&fz, a, 2, dir, guard))
                );
            }
            for j in 0..n {
                let b = NodeId(j as u64);
                let path = holds_at_charged_total(|guard| shortest_path(&g, a, b, guard));
                prop_assert_eq!(
                    &path,
                    &holds_at_charged_total(|guard| shortest_path(&fz, a, b, guard))
                );
                let bfs_depth = Traversal::new(a).visits(&g).into_iter().find(|v| v.node == b);
                prop_assert_eq!(path.map(|p| p.len()), bfs_depth.map(|v| v.depth));
                let walk =
                    holds_at_charged_total(|guard| regular_path_exists(&g, a, b, &regex, guard));
                let simple =
                    holds_at_charged_total(|guard| regular_simple_paths(&g, a, b, &regex, guard));
                prop_assert!(walk || simple.is_empty());
            }
        }

        let d = holds_at_charged_total(|guard| diameter(&g, Direction::Outgoing, guard));
        prop_assert_eq!(
            d,
            holds_at_charged_total(|guard| diameter(&fz, Direction::Outgoing, guard))
        );
    }
}

/// The acceptance gauntlet: a committed 1k-person social workload on
/// every engine; an expensive governed pattern match under an
/// already-expired deadline must return `Interrupted` — promptly,
/// structurally, and leaving the engine usable.
#[test]
fn expired_deadline_interrupts_pattern_match_on_every_engine() {
    let people = social_graph(SocialParams::default()); // 1000 people
    let mut pattern = Pattern::new();
    // A 3-hop unconstrained chain: no label constraints, because some
    // engine models drop labels on load — this stays expensive (≫10⁶
    // candidate extensions over 1k nodes / ~10k edges) on all nine.
    let a = pattern.node(PatternNode::var("a"));
    let b = pattern.node(PatternNode::var("b"));
    let c = pattern.node(PatternNode::var("c"));
    let d = pattern.node(PatternNode::var("d"));
    pattern.edge(a, b, None).unwrap();
    pattern.edge(b, c, None).unwrap();
    pattern.edge(c, d, None).unwrap();

    let base = std::env::temp_dir().join(format!("gdm-governor-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for kind in EngineKind::all() {
        let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut engine = make_engine(kind, &dir).unwrap();
        load_into_engine(engine.as_mut(), &people).unwrap();

        // Zero-duration deadline: expired before the first check.
        let guard = ExecutionGuard::new(Limits::none().with_deadline(Duration::from_millis(0)));
        let fz = engine.snapshot().unwrap();
        let err =
            match_pattern_seeded(&fz, &pattern, &auto_domains(&fz, &pattern), &guard).unwrap_err();
        assert!(
            err.is_interrupted(),
            "{}: expected Interrupted, got {err}",
            kind.label()
        );

        // The same engine still answers a cheap governed query under
        // its own default limits — interruption wounds nothing.
        let defaults = ExecutionGuard::new(engine.default_limits());
        let sp = shortest_path(&fz, NodeId(0), NodeId(0), &defaults).unwrap();
        assert_eq!(
            sp.map(|p| p.nodes),
            Some(vec![NodeId(0)]),
            "{}",
            kind.label()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A one-node-visit budget interrupts the diameter sweep on every
/// engine, and the error carries the partial-progress row count.
#[test]
fn tiny_budget_interrupts_diameter_on_every_engine() {
    let people = social_graph(SocialParams {
        people: 120,
        communities: 4,
        intra_edges: 4,
        inter_edges: 1,
        seed: 17,
    });
    let base = std::env::temp_dir().join(format!("gdm-governor-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for kind in EngineKind::all() {
        let dir = base.join(kind.label().to_lowercase().replace('-', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut engine = make_engine(kind, &dir).unwrap();
        load_into_engine(engine.as_mut(), &people).unwrap();

        let guard = ExecutionGuard::new(Limits::none().with_node_visits(1));
        let fz = engine.snapshot().unwrap();
        let err = diameter(&fz, Direction::Outgoing, &guard).unwrap_err();
        assert!(
            err.is_interrupted(),
            "{}: expected Interrupted, got {err}",
            kind.label()
        );

        // Unlimited governed diameter on the snapshot equals the
        // facade's ungoverned summary.
        let got = diameter(&fz, Direction::Outgoing, &ExecutionGuard::unlimited()).unwrap();
        assert_eq!(
            got.map_or(Value::Null, |d| Value::Int(d as i64)),
            engine.summarize(SummaryFunc::Diameter).unwrap(),
            "{}",
            kind.label()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Governed-vectorized gauntlet: the batch executor charges the guard
/// once per candidate batch, so it must (a) equal the reference
/// matcher under an unlimited guard, (b) return the structured
/// `Interrupted` (with the partial row count) under deadline, budget,
/// and row limits, and (c) leave partial progress observable, exactly
/// like the row-at-a-time matchers it replaces.
#[test]
fn governed_vectorized_budget_and_deadline_gauntlet() {
    use graph_db_models::algo::vectorized::match_pattern_forced_morsels;
    use graph_db_models::core::GdmError;

    let people = social_graph(SocialParams {
        people: 300,
        communities: 4,
        intra_edges: 4,
        inter_edges: 1,
        seed: 7,
    });
    let fz = FrozenGraph::freeze(&people);
    let mut pattern = Pattern::new();
    let a = pattern.node(PatternNode::var("a").with_label("person"));
    let b = pattern.node(PatternNode::var("b"));
    let c = pattern.node(PatternNode::var("c"));
    pattern.edge(a, b, Some("knows")).unwrap();
    pattern.edge(b, c, Some("knows")).unwrap();

    let domains = auto_domains(&fz, &pattern);
    // One worker: the batch pipeline inline on the calling thread.
    let run =
        |guard: &ExecutionGuard| match_pattern_forced_morsels(&fz, &pattern, &domains, 1, guard);

    // (a) Unlimited guard: same binding set as the reference matcher.
    let plain = run(&ExecutionGuard::unlimited()).unwrap();
    assert_eq!(
        canonical(&plain.to_bindings()),
        canonical(&match_pattern(&fz, &pattern, &ExecutionGuard::unlimited()).unwrap())
    );
    assert!(!plain.is_empty(), "workload has 2-hop chains");

    // (b) Each limit family interrupts with its own structured reason.
    let cases: [(Limits, InterruptReason); 3] = [
        (
            Limits::none().with_deadline(Duration::from_millis(0)),
            InterruptReason::Deadline,
        ),
        (Limits::none().with_node_visits(5), InterruptReason::Budget),
        (Limits::none().with_rows(1), InterruptReason::Budget),
    ];
    for (limits, want) in cases {
        let guard = ExecutionGuard::new(limits);
        let err = run(&guard).unwrap_err();
        match err {
            GdmError::Interrupted { reason, partial } => {
                assert_eq!(reason, want);
                assert!(
                    (partial as usize) <= plain.len(),
                    "partial rows cannot exceed the full result"
                );
            }
            other => panic!("expected structured Interrupted, got {other}"),
        }
    }

    // (c) A row limit trips *after* emitting rows up to the cap: the
    // partial count in the error equals the limit.
    let guard = ExecutionGuard::new(Limits::none().with_rows(3));
    match run(&guard).unwrap_err() {
        GdmError::Interrupted { partial, .. } => {
            assert!(
                partial >= 3,
                "rows up to the cap were produced, got {partial}"
            )
        }
        other => panic!("expected Interrupted, got {other}"),
    }
}

/// The same gauntlet for the morsel-driven parallel executor, forced
/// onto multiple workers so the guard really is shared across threads
/// (a single-core CI machine must not silently skip the interesting
/// path): (a) byte-identical to the sequential vectorized run under an
/// unlimited guard, (b) structured `Interrupted` with the right reason
/// under each limit family, with the partial count reflecting rows
/// settled across *all* workers, and (c) a panic-injected morsel
/// degrades to the sequential rerun without changing the answer.
#[test]
fn governed_par_vectorized_gauntlet_under_forced_workers() {
    use graph_db_models::algo::parallel::inject_worker_panic_once;
    use graph_db_models::algo::vectorized::match_pattern_forced_morsels;
    use graph_db_models::core::GdmError;

    let people = social_graph(SocialParams {
        people: 300,
        communities: 4,
        intra_edges: 4,
        inter_edges: 1,
        seed: 7,
    });
    let fz = FrozenGraph::freeze(&people);
    let mut pattern = Pattern::new();
    let a = pattern.node(PatternNode::var("a").with_label("person"));
    let b = pattern.node(PatternNode::var("b"));
    let c = pattern.node(PatternNode::var("c"));
    pattern.edge(a, b, Some("knows")).unwrap();
    pattern.edge(b, c, Some("knows")).unwrap();
    let domains = auto_domains(&fz, &pattern);

    let run =
        |guard: &ExecutionGuard| match_pattern_forced_morsels(&fz, &pattern, &domains, 4, guard);

    // (a) Unlimited guard, 4 forced workers: byte-identical to the
    // one-worker table.
    let plain =
        match_pattern_forced_morsels(&fz, &pattern, &domains, 1, &ExecutionGuard::unlimited())
            .unwrap();
    assert!(!plain.is_empty(), "workload has 2-hop chains");
    let par = run(&ExecutionGuard::unlimited()).unwrap();
    assert_eq!(par, plain, "parallel result must match byte-for-byte");

    // (b) Each limit family interrupts with its structured reason even
    // when the trip happens on a worker thread; the merged partial
    // count never exceeds the full result.
    let cases: [(Limits, InterruptReason); 3] = [
        (
            Limits::none().with_deadline(Duration::from_millis(0)),
            InterruptReason::Deadline,
        ),
        (Limits::none().with_node_visits(5), InterruptReason::Budget),
        (Limits::none().with_rows(1), InterruptReason::Budget),
    ];
    for (limits, want) in cases {
        let guard = ExecutionGuard::new(limits);
        let err = run(&guard).unwrap_err();
        match err {
            GdmError::Interrupted { reason, partial } => {
                assert_eq!(reason, want);
                assert!(
                    (partial as usize) <= plain.len(),
                    "partial rows cannot exceed the full result"
                );
            }
            other => panic!("expected structured Interrupted, got {other}"),
        }
    }

    // Cancellation from outside the call is an interrupt too — the
    // workers see the flag at their next guard check.
    let guard = ExecutionGuard::unlimited();
    guard.cancel_token().cancel();
    let err = run(&guard).unwrap_err();
    assert!(err.is_interrupted(), "cancel must interrupt, got {err}");

    // (c) A panic injected into one worker poisons its morsel; the
    // executor discards the parallel attempt and reruns sequentially,
    // so the caller still gets the full, correct table.
    inject_worker_panic_once();
    let recovered = run(&ExecutionGuard::unlimited()).unwrap();
    assert_eq!(
        recovered, plain,
        "a poisoned morsel must degrade to the sequential answer, not change it"
    );
}

/// A variable-length edge is expanded under the guard by both
/// executors. On a dense graph (every person knows every other),
/// `*1..8` from one bound person under a 1-unit node budget trips on
/// the walk's first charge — the seed alone fits the budget — and the
/// same walk from every person under a 1 ms deadline runs out of time
/// part-way: tens of millions of edge scans, the meter settling every
/// `CHECK_INTERVAL` frontier nodes.
#[test]
fn variable_length_expand_is_interruptible_on_both_executors() {
    use graph_db_models::core::{props, AttributedView};
    use graph_db_models::graphs::PropertyGraph;
    use graph_db_models::query::cypher::{parse, CypherStatement};
    use graph_db_models::query::plan::{execute_planned_governed, plan_select};

    const PEOPLE: usize = 300;
    let mut g = PropertyGraph::new();
    let people: Vec<NodeId> = (0..PEOPLE)
        .map(|i| g.add_node("person", props! { "name" => format!("person{i}") }))
        .collect();
    for &from in &people {
        for &to in &people {
            if from != to {
                g.add_edge(from, to, "knows", props! {}).unwrap();
            }
        }
    }
    let fz = FrozenGraph::freeze(&g);
    let select = |text: &str| match parse(text).unwrap() {
        CypherStatement::Select(q) => *q,
        CypherStatement::Create(_) => panic!("expected a MATCH query"),
    };
    let from_one =
        select("MATCH (p:person {name:'person7'})-[:knows*1..8]->(g:person) RETURN count(*)");
    let from_all = select("MATCH (p:person)-[:knows*1..8]->(g:person) RETURN count(*)");

    fn check<G: AttributedView>(
        view: &G,
        from_one: &graph_db_models::query::SelectQuery,
        from_all: &graph_db_models::query::SelectQuery,
    ) {
        let planned = plan_select(view, from_one).unwrap();
        let unlimited = ExecutionGuard::unlimited();
        let rows = execute_planned_governed(view, &planned, &unlimited).unwrap();
        assert_eq!(rows.rows[0][0], ((PEOPLE - 1) as i64).into());

        let guard = ExecutionGuard::new(Limits::none().with_node_visits(1));
        let err = execute_planned_governed(view, &planned, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Budget));
        assert!(
            guard.budget().node_visits() > 1,
            "the trip came from a charge after the seed's"
        );

        let planned = plan_select(view, from_all).unwrap();
        let guard = ExecutionGuard::new(Limits::none().with_deadline(Duration::from_millis(1)));
        let err = execute_planned_governed(view, &planned, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Deadline));
    }
    check(&g, &from_one, &from_all);
    check(&fz, &from_one, &from_all);
}

/// A SPARQL cross product is matched under the caller's guard: two
/// unrelated `knows` patterns over 400 triples make 160 000 solutions,
/// and a 10 000-node-visit budget stops the match long before it has
/// built them.
#[test]
fn sparql_cross_product_is_interruptible() {
    let mut g = RdfGraph::new();
    let knows = Term::iri("knows");
    for i in 0..200 {
        for step in [1, 2] {
            let to = Term::iri(format!("p{}", (i + step) % 200));
            g.add(&Term::iri(format!("p{i}")), &knows, &to).unwrap();
        }
    }
    assert_eq!(g.len(), 400);
    let query =
        sparql::parse("SELECT (COUNT(*) AS ?n) WHERE { ?a <knows> ?b . ?c <knows> ?d }").unwrap();
    let rs = sparql::evaluate(&g, &query, &ExecutionGuard::unlimited()).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(160_000));
    let guard = ExecutionGuard::new(Limits::none().with_node_visits(10_000));
    let err = sparql::evaluate(&g, &query, &guard).unwrap_err();
    assert_eq!(
        err.interrupt_reason(),
        Some(InterruptReason::Budget),
        "{err}"
    );
}

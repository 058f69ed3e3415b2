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

use graph_db_models::algo::pattern::{canonical, match_pattern, PatternNode};
use graph_db_models::algo::planned::{auto_domains, match_pattern_seeded};
use graph_db_models::algo::regular::{regular_path_exists, regular_simple_paths, LabelRegex};
use graph_db_models::algo::summary::diameter;
use graph_db_models::algo::{
    bidirectional_shortest_path, par_diameter, shortest_path, FrozenGraph, Pattern,
};
use graph_db_models::bench::workload::{load_into_engine, social_graph, SocialParams};
use graph_db_models::core::{Direction, InterruptReason, NodeId, Result};
use graph_db_models::engines::{make_engine, EngineKind, GovernedAnswer, GovernedOp};
use graph_db_models::govern::{ExecutionGuard, Limits};
use graph_db_models::graphs::SimpleGraph;
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
/// must return the same answer — and, when it charged any node, under
/// one node unit fewer — which must trip the budget. Returns the
/// answer.
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
    answer
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The four governed searches hold at exactly their charged totals
    /// (so their meters neither drop nor invent a unit), and answer
    /// what independent code answers: the planned matcher, the
    /// bidirectional BFS, simple-path enumeration (a simple path is a
    /// walk) and the parallel diameter over a snapshot.
    #[test]
    fn budgets_hold_at_the_charged_total((g, n) in graph_strategy()) {
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

        let regex = LabelRegex::compile("(a|b)*c?").unwrap();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (NodeId(i as u64), NodeId(j as u64));
                let path = holds_at_charged_total(|guard| shortest_path(&g, a, b, guard));
                prop_assert_eq!(
                    path.map(|p| p.len()),
                    bidirectional_shortest_path(&g, a, b).map(|p| p.len())
                );
                let walk =
                    holds_at_charged_total(|guard| regular_path_exists(&g, a, b, &regex, guard));
                let simple = regular_simple_paths(&g, a, b, &regex, 10_000);
                prop_assert!(walk || simple.is_ok_and(|paths| paths.is_empty()));
            }
        }

        let d = holds_at_charged_total(|guard| diameter(&g, Direction::Outgoing, guard));
        prop_assert_eq!(d, par_diameter(&FrozenGraph::freeze(&g), Direction::Outgoing, 2));
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
        let err = engine
            .run_governed(GovernedOp::PatternMatch(&pattern), &guard)
            .unwrap_err();
        assert!(
            err.is_interrupted(),
            "{}: expected Interrupted, got {err}",
            kind.label()
        );

        // The same engine still answers a cheap governed query under
        // its own default limits — interruption wounds nothing.
        let defaults = ExecutionGuard::new(engine.default_limits());
        let sp = engine
            .run_governed(GovernedOp::ShortestPath(NodeId(0), NodeId(0)), &defaults)
            .unwrap();
        assert_eq!(
            sp,
            GovernedAnswer::Path(Some(vec![NodeId(0)])),
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
        let err = engine
            .run_governed(GovernedOp::Diameter, &guard)
            .unwrap_err();
        assert!(
            err.is_interrupted(),
            "{}: expected Interrupted, got {err}",
            kind.label()
        );

        // Unlimited governed diameter equals the ungoverned summary
        // on the frozen snapshot.
        let got = engine
            .run_governed(GovernedOp::Diameter, &ExecutionGuard::unlimited())
            .unwrap();
        let fz = engine.snapshot().unwrap();
        assert_eq!(
            got,
            GovernedAnswer::Diameter(
                diameter(&fz, Direction::Outgoing, &ExecutionGuard::unlimited()).unwrap()
            ),
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
    let fz = FrozenGraph::freeze_attributed(&people);
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
    let fz = FrozenGraph::freeze_attributed(&people);
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
    let fz = FrozenGraph::freeze_attributed(&g);
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

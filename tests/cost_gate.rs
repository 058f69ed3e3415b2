//! Cost gates that do not depend on the machine, because the counts
//! they hold repeat exactly: the guard's node visits (a query whose cost
//! must follow its result rather than the graph is held to a fixed count
//! at two graph sizes), this thread's heap allocations (finishing the
//! rows of a match must not allocate per match; a point query must not
//! allocate by graph size, to plan or to run; a frozen match must run
//! the batch pipeline), a snapshot's candidate estimates,
//! the executor's count of executions that took a helper thread (no
//! template of the benchmark may), a re-freeze's work units (a small
//! batch must not cost a full freeze), a full freeze's allocations (they
//! must not follow the edge count), a reply's codec allocations
//! (a many-row reply must not allocate per value on the wire) and an
//! identity-constrained create's allocations (a checked write must not
//! revisit the graph, nor its refusal re-file it) and a SPARQL query's
//! allocations and node visits (its cost must not follow the order its
//! patterns are written in, nor the graph's size where its seed is a
//! constant with many subjects or a predicate on few triples).

use graph_db_models::algo::parallel::{fanned_out, hold_helper_permits};
use graph_db_models::algo::pattern::{Pattern, PatternNode};
use graph_db_models::algo::{
    auto_domains, incremental_refreeze, match_pattern_seeded, set_executor_workers, FrozenGraph,
};
use graph_db_models::bench::workload::{social_graph, SocialParams};
use graph_db_models::core::{
    props, AttributedView, DeltaTracker, FreezeDelta, GraphView, PropertyMap, Value,
};
use graph_db_models::engines::{make_engine, EngineKind};
use graph_db_models::govern::ExecutionGuard;
use graph_db_models::graphs::rdf::{RdfGraph, Term};
use graph_db_models::graphs::PropertyGraph;
use graph_db_models::query::cypher::{parse, CypherStatement};
use graph_db_models::query::plan::{execute_planned_governed, plan_select, PlannedSelect};
use graph_db_models::query::sparql;
use graph_db_models::query::ResultSet;
use graph_db_models::schema::Constraint;
use graph_db_models::server::protocol::{read_frame, write_frame, Response, Rows};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's allocations
/// (growing a block counts) and the bytes they asked for, so tests
/// running beside this one on other threads do not show up in its
/// count.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-local `Cell`s that neither allocate nor
// have a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The benchmark-shaped graph: communities of 100, out-degree about 10.
fn benchmark_shaped_graph(people: usize) -> PropertyGraph {
    social_graph(SocialParams {
        people,
        communities: people / 100,
        ..SocialParams::default()
    })
}

fn plan(fz: &FrozenGraph, text: &str) -> PlannedSelect {
    let CypherStatement::Select(query) = parse(text).unwrap() else {
        panic!("expected a MATCH query");
    };
    plan_select(fz, &query).unwrap()
}

/// Plans `text`, executes it once to warm this thread's executor
/// scratch, and returns the rows of a second execution with the number
/// of allocations that execution made and the bytes they asked for.
/// None of these queries is admitted to fan out, so the pipeline runs
/// inline on this thread.
fn rows_and_allocations(fz: &FrozenGraph, text: &str) -> (ResultSet, u64, u64) {
    let planned = plan(fz, text);
    let guard = ExecutionGuard::unlimited();
    execute_planned_governed(fz, &planned, &guard).unwrap();
    let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    let rows = execute_planned_governed(fz, &planned, &guard).unwrap();
    (
        rows,
        ALLOCATIONS.with(Cell::get) - before.0,
        ALLOCATED_BYTES.with(Cell::get) - before.1,
    )
}

/// Counting ten times the matches costs no more allocations than the
/// buffers doubling a few more times: nothing is allocated per match.
#[test]
fn counting_matches_allocates_nothing_per_match() {
    let fz = FrozenGraph::freeze(&benchmark_shaped_graph(20_000));
    let count = |hops: &str| {
        let (rows, allocations, _) = rows_and_allocations(
            &fz,
            &format!(
                "MATCH (p:person {{name:'person7'}})-[:knows*{hops}]->(g:person) RETURN count(*)"
            ),
        );
        (rows.rows[0][0].as_int().unwrap(), allocations)
    };
    let (near, near_allocations) = count("1..2");
    let (far, far_allocations) = count("1..3");
    assert!(near >= 50 && far >= 5 * near, "{near} and {far} matches");
    assert!(
        far_allocations <= near_allocations + 16,
        "{near} matches: {near_allocations} allocations, {far} matches: {far_allocations}"
    );
}

/// Grouping allocates per group it returns, not per match it reads.
#[test]
fn grouping_allocates_per_group_not_per_match() {
    // Communities of 1 000, so three hops reach many people in few groups.
    let fz = FrozenGraph::freeze(&social_graph(SocialParams {
        people: 20_000,
        communities: 20,
        ..SocialParams::default()
    }));
    let matches = "MATCH (a:person {name:'person7'})-[:knows*1..3]->(b:person) RETURN count(*)";
    let grouped =
        "MATCH (a:person {name:'person7'})-[:knows*1..3]->(b:person) RETURN b.community, count(*)";
    let (total, ..) = rows_and_allocations(&fz, matches);
    let (groups, allocations, _) = rows_and_allocations(&fz, grouped);
    let total = total.rows[0][0].as_int().unwrap() as usize;
    assert!(
        total >= 10 * groups.len(),
        "{total} matches, {} groups",
        groups.len()
    );
    assert!(
        allocations as usize <= 4 * groups.len() + 64,
        "{total} matches in {} groups: {allocations} allocations",
        groups.len()
    );
}

/// Two-hop reachability from one person on the benchmark-shaped graph
/// (communities of 100, out-degree about 10) visits the seed, the
/// frontier it expands (1 + ~10 nodes) and the endpoints it tries
/// (~100) — under 200 nodes whether the graph holds 2 000 people or
/// 20 000 — and its plan holds nothing sized by the label population.
#[test]
fn two_hop_reachability_cost_does_not_follow_graph_size() {
    let text = "MATCH (p:person {name:'person7'})-[:knows*1..2]->(g:person) RETURN count(*)";
    for people in [2_000, 20_000] {
        let live = benchmark_shaped_graph(people);
        let fz = FrozenGraph::freeze(&live);
        let planned = plan(&fz, text);
        let nodes = &planned.query.pattern.nodes;
        let g = nodes.iter().position(|n| n.var == "g").unwrap();
        assert!(planned.domains[g].is_none(), "no domain for g:person");

        let guard = ExecutionGuard::unlimited();
        let rows = execute_planned_governed(&fz, &planned, &guard).unwrap();
        let visits = guard.budget().node_visits();
        assert!(visits < 200, "{people} people: {visits} node visits");

        let CypherStatement::Select(query) = parse(text).unwrap() else {
            panic!("expected a MATCH query");
        };
        let on_live = plan_select(&live, &query).unwrap();
        let unlimited = ExecutionGuard::unlimited();
        assert_eq!(
            rows,
            execute_planned_governed(&live, &on_live, &unlimited).unwrap()
        );
    }
}

/// The outgoing-adjacency point query — 30 of every 100 benchmark
/// requests — allocates for its ten-odd rows, not for the graph: the
/// seeded root never probes a domain bitset, so none (|V| / 8 bytes) is
/// built for it.
#[test]
fn point_query_allocation_does_not_follow_graph_size() {
    let run = |people: usize| {
        let fz = FrozenGraph::freeze(&benchmark_shaped_graph(people));
        let text = "MATCH (p:person {name:'person1'})-[:knows]->(f) RETURN f.name";
        let (rows, _, bytes) = rows_and_allocations(&fz, text);
        (rows.rows.len(), bytes)
    };
    let (small_rows, small_bytes) = run(2_000);
    let (large_rows, large_bytes) = run(20_000);
    assert_eq!(small_rows, large_rows, "same out-degree on both fixtures");
    assert!(
        small_bytes.abs_diff(large_bytes) <= 64,
        "{small_bytes} bytes at 2 000 people, {large_bytes} at 20 000"
    );
}

/// Plan-time seeding reads the snapshot's equality index, not the label
/// population: the estimate of a `{key: value}` constraint is the
/// answer's size at 2 000 and at 20 000 people, and planning the point
/// template allocates the same bytes at both sizes.
#[test]
fn point_seeding_does_not_follow_graph_size() {
    let text = "MATCH (p:person {name:'person7'})-[:knows]->(f) RETURN f.name";
    let CypherStatement::Select(query) = parse(text).unwrap() else {
        panic!("expected a MATCH query");
    };
    let mut plan_bytes = Vec::new();
    for people in [2_000, 20_000] {
        let fz = FrozenGraph::freeze(&benchmark_shaped_graph(people));
        let name = [("name".to_owned(), Value::from("person7"))];
        let community = [("community".to_owned(), Value::from(3))];
        assert_eq!(fz.candidate_estimate(Some("person"), &name), Some(1));
        assert_eq!(fz.candidate_estimate(Some("person"), &community), Some(100));
        let before = ALLOCATED_BYTES.with(Cell::get);
        let planned = plan_select(&fz, &query).unwrap();
        plan_bytes.push(ALLOCATED_BYTES.with(Cell::get) - before);
        assert_eq!(planned.domains[0].as_ref().map(Vec::len), Some(1));
    }
    assert!(
        plan_bytes[0].abs_diff(plan_bytes[1]) <= 64,
        "planning allocated {} bytes at 2 000 people, {} at 20 000",
        plan_bytes[0],
        plan_bytes[1]
    );
}

/// The ten templates of `benchmark/src/gen.rs::render`, on the
/// 20 000-person fixture.
const BENCHMARK_TEMPLATES: [&str; 10] = [
    "MATCH (p:person {name:'person7'})-[:knows]->(f) RETURN f.name",
    "MATCH (p:person {name:'person7'})<-[:knows]-(f:person) RETURN f.name, f.age",
    "MATCH (p:person {name:'person7'})-[:knows*1..2]->(g:person) RETURN count(*)",
    "MATCH (p:person {name:'person7'})-[:knows*1..4]->(g:person {name:'person1234'}) \
     RETURN count(*)",
    "MATCH (a:person {name:'person7'})-[:knows]->(b)-[:knows]->(c)-[:knows]->(a) \
     RETURN b.name, c.name",
    "MATCH (a:person {name:'person7'})-[:knows]->(b:person)-[:knows]->(c:person) \
     WHERE c.age > 60 RETURN b.name, c.name",
    "MATCH (a:person {community:3})-[:knows]->(b:person) WHERE b.age < 30 RETURN a.name, b.name",
    "MATCH (q:person {community:3}) RETURN count(*), avg(q.age), max(q.age)",
    "MATCH (a:person {community:3})-[:knows]->(b:person) RETURN b.community, count(*)",
    "MATCH (q:person) WHERE q.age = 30 RETURN q.community, count(*)",
];

/// Fan-out is admitted by estimated work: with four executor workers
/// allowed, no benchmark template takes a helper thread (a 100-root or
/// 300-root match is microseconds; a spawn is not), a whole-label
/// two-edge pattern does, and the same pattern takes none while the
/// process's permits are all out — and answers the same.
#[test]
fn fan_out_is_admitted_by_estimated_work_and_free_permits() {
    set_executor_workers(4);
    let fz = FrozenGraph::freeze(&benchmark_shaped_graph(20_000));
    let guard = ExecutionGuard::unlimited();

    let before = fanned_out();
    for text in BENCHMARK_TEMPLATES {
        let rows = execute_planned_governed(&fz, &plan(&fz, text), &guard).unwrap();
        assert!(!rows.rows.is_empty(), "{text}");
    }
    assert_eq!(fanned_out(), before, "a benchmark template fanned out");

    let big = plan(
        &fz,
        "MATCH (a:person)-[:knows]->(b)-[:knows]->(c) RETURN count(*)",
    );
    let matched = || match_pattern_seeded(&fz, &big.query.pattern, &big.domains, &guard).unwrap();
    let with_helpers = matched();
    assert_eq!(fanned_out(), before + 1, "2 × 10⁶ estimated visits fan out");
    assert!(with_helpers.len() > 1_000_000);

    // Another thread — another session — holds every helper permit.
    let (held, wait_held) = std::sync::mpsc::channel();
    let (release, wait_release) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let _permits = hold_helper_permits();
            held.send(()).unwrap();
            let _ = wait_release.recv();
        });
        wait_held.recv().unwrap();
        let alone = matched();
        drop(release);
        assert_eq!(fanned_out(), before + 1, "no permit free, no helper");
        assert!(
            alone == with_helpers,
            "the caller alone returns the same table"
        );
    });
}

/// A mutation batch of under 1 % of the graph — six `age` writes and two
/// new `knows` edges, touching at most ten rows — on `live`, returned as
/// the delta since `prev` was frozen.
fn one_percent_batch(live: &mut PropertyGraph, prev: &FrozenGraph) -> FreezeDelta {
    let mut ids = Vec::new();
    live.visit_nodes(&mut |n| ids.push(n));
    let mut tracker = DeltaTracker::new();
    tracker.reset(prev.epoch());
    for i in 0..6 {
        let n = ids[(i * 37 + 11) % ids.len()];
        live.set_node_property(n, "age", Value::from(200 + i as i64))
            .unwrap();
        tracker.touch_node(n.raw());
    }
    for i in 0..2 {
        let (a, b) = (
            ids[(i * 53 + 7) % ids.len()],
            ids[(i * 71 + 29) % ids.len()],
        );
        live.add_edge(a, b, "knows", PropertyMap::new()).unwrap();
        tracker.touch_node(a.raw());
        tracker.touch_node(b.raw());
    }
    tracker.peek().clone()
}

/// Re-freezing after that batch does work in proportion to the ten rows
/// it touched, not to the graph: the incremental `freeze_work` is a
/// few hundred units at both 2 000 and 20 000 people, and under a tenth
/// of a full freeze's even at the small size.
#[test]
fn refreeze_after_a_one_percent_batch_does_not_follow_graph_size() {
    for (people, work) in [(2_000, 279), (20_000, 295)] {
        let mut live = benchmark_shaped_graph(people);
        let prev = FrozenGraph::freeze(&live);
        let delta = one_percent_batch(&mut live, &prev);
        assert_eq!(delta.change_count(), 10);
        let incremental = incremental_refreeze(&live, &prev, &delta);
        let full = FrozenGraph::freeze(&live);
        assert_eq!(incremental.freeze_work(), work, "{people} people");
        assert!(
            incremental.freeze_work() * 10 <= full.freeze_work(),
            "{people} people: incremental {work}, full {}",
            full.freeze_work()
        );
    }
}

/// The benchmark's people — `name`, `age` and `community`, communities
/// of 100 — each knowing the next `degree` people by property-less
/// `knows` edges.
fn people_knowing(people: usize, degree: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let ids: Vec<_> = (0..people)
        .map(|i| {
            let mut props = PropertyMap::new();
            props.set("name", format!("person{i}"));
            props.set("age", 18 + (i * 7 % 62) as i64);
            props.set("community", (i / 100) as i64);
            g.add_node("person", props)
        })
        .collect();
    for (i, &a) in ids.iter().enumerate() {
        for k in 1..=degree {
            g.add_edge(a, ids[(i + k) % people], "knows", PropertyMap::new())
                .unwrap();
        }
    }
    g
}

/// A full freeze allocates for what the graph holds, not for its edge
/// slots: frozen at out-degree 10 and at 20 over the same 2 000 people,
/// it makes the same number of allocations give or take the slab
/// buffers growing once or twice more (measured: 4 459 and 4 464; bound:
/// 16 more at degree 20), and under 3 per person (measured: 2.23). A
/// freeze that allocates per edge slot fails both: one property `Arc`
/// per property-less edge made 32 489 and 52 495 (16.2 and 26.2 per
/// person).
#[test]
fn full_freeze_allocations_do_not_follow_the_edge_count() {
    let people = 2_000;
    let allocations: Vec<u64> = [10, 20]
        .into_iter()
        .map(|degree| {
            let g = people_knowing(people, degree);
            let before = ALLOCATIONS.with(Cell::get);
            let fz = FrozenGraph::freeze(&g);
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(fz.edge_count(), people * degree);
            allocations
        })
        .collect();
    assert!(
        allocations[1] <= allocations[0] + 16,
        "degree 10: {} allocations, degree 20: {}",
        allocations[0],
        allocations[1]
    );
    assert!(
        allocations[1] < 3 * people as u64,
        "{} allocations for {people} people",
        allocations[1]
    );
}

/// A frozen two-hop `knows` match runs the batch pipeline, not the
/// row-at-a-time search a live view gets. Both charge the guard the
/// same node visits and rows (pinned), so the path shows in what each
/// allocates: the pipeline a fixed handful of buffers at either graph
/// size, the row search one or more per node it expands. The pattern is
/// rooted in one community so the match is never admitted to fan out
/// and every allocation happens on this thread.
#[test]
fn frozen_two_hop_match_takes_the_batch_pipeline() {
    let mut pattern = Pattern::new();
    let x = pattern.node(
        PatternNode::var("x")
            .with_label("person")
            .with_prop("community", 3),
    );
    let y = pattern.node(PatternNode::var("y"));
    let z = pattern.node(PatternNode::var("z"));
    pattern.edge(x, y, Some("knows")).unwrap();
    pattern.edge(y, z, Some("knows")).unwrap();
    // Node visits, rows and this thread's allocations of a second run.
    let charges = |g: &dyn AttributedView| {
        let domains = auto_domains(g, &pattern);
        let run = |guard: &ExecutionGuard| match_pattern_seeded(g, &pattern, &domains, guard);
        run(&ExecutionGuard::unlimited()).unwrap();
        let guard = ExecutionGuard::unlimited();
        let before = ALLOCATIONS.with(Cell::get);
        let table = run(&guard).unwrap();
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        let budget = guard.budget();
        assert_eq!(budget.rows_emitted(), table.len() as u64);
        (budget.node_visits(), budget.rows_emitted(), allocations)
    };
    let mut pipeline_allocations = Vec::new();
    for (people, visits, rows) in [(2_000, 10_130, 9_012), (20_000, 10_285, 9_160)] {
        let live = benchmark_shaped_graph(people);
        let fz = FrozenGraph::freeze(&live);
        let (frozen_visits, frozen_rows, frozen_allocations) = charges(&fz);
        let (live_visits, live_rows, live_allocations) = charges(&live);
        assert_eq!(
            (frozen_visits, frozen_rows),
            (visits, rows),
            "{people} people"
        );
        assert_eq!((live_visits, live_rows), (visits, rows), "{people} people");
        assert!(
            frozen_allocations * 10 < live_allocations,
            "{people} people: frozen {frozen_allocations} allocations, live {live_allocations}"
        );
        pipeline_allocations.push(frozen_allocations);
    }
    assert_eq!(pipeline_allocations[0], pipeline_allocations[1]);
}

/// A reply is encoded and decoded straight between its rows and the
/// frame's bytes, with no value tree between them. The frame is a
/// 100-row `[Int, Int]` `Rows` reply, the shape of the grouped
/// summarization replies.
///
/// Encoding allocates only buffers: the encoder's output growing from
/// 128 bytes to 4 KiB (6), the frame that prefixes its length, and the
/// test's `Vec` writer. Decoding allocates the frame body, the column
/// list and its two names, the row list as it grows (6), and each
/// row's `Vec<Value>`: one allocation per row. Measured: 8 to encode,
/// 110 to decode. A codec that builds a value tree on each side makes
/// several per value: 722 and 625.
#[test]
fn a_rows_frame_streams_between_rows_and_bytes() {
    let reply = Response::Rows(Rows {
        columns: vec!["q.community".into(), "count(*)".into()],
        rows: (0..100)
            .map(|i| vec![Value::Int(100 + i), Value::Int(1 + i % 3)])
            .collect(),
        cached_plan: true,
    });
    let before = ALLOCATIONS.with(Cell::get);
    let mut frame = Vec::new();
    write_frame(&mut frame, &reply).unwrap();
    let encode = ALLOCATIONS.with(Cell::get) - before;

    let before = ALLOCATIONS.with(Cell::get);
    let back: Response = read_frame(&mut frame.as_slice()).unwrap().unwrap();
    let decode = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(back, reply);
    assert!(encode <= 12, "encoding made {encode} allocations");
    assert!(decode <= 100 + 16, "decoding made {decode} allocations");
}

/// This thread's allocations for one create of a node with identity
/// `id` on `kind` under an identity constraint, once `people` nodes
/// hold the identities `0..people`, and whether the create was
/// accepted. The constraint is installed after the load, so the load
/// itself is unchecked.
fn constrained_create_allocations(kind: EngineKind, people: i64, id: i64) -> (u64, bool) {
    let dir = std::env::temp_dir().join(format!(
        "gdm-cost-identity-{}-{}-{people}-{id}",
        std::process::id(),
        kind.label()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut e = make_engine(kind, &dir).unwrap();
    for id in 0..people {
        e.create_node(Some("person"), props! { "id" => id })
            .unwrap();
    }
    e.install_constraint(Constraint::Identity {
        type_name: "person".into(),
        property: "id".into(),
    })
    .unwrap();
    let next = props! { "id" => id };
    let before = ALLOCATIONS.with(Cell::get);
    let accepted = e.create_node(Some("person"), next).is_ok();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
    (allocations, accepted)
}

/// A create on DEX or InfiniteGraph under an identity constraint checks
/// the new node alone: the identity lookup is one probe of the
/// property graph's value index, so the create allocates the same at
/// 2 000 and 20 000 nodes, give or take an index or bitmap block
/// growing (bound: 8). A whole-graph check after each create allocates
/// per node it revisits.
#[test]
fn an_identity_constrained_create_does_not_allocate_by_node_count() {
    for kind in [EngineKind::Dex, EngineKind::InfiniteGraph] {
        let (small, _) = constrained_create_allocations(kind, 2_000, 2_000);
        let (large, _) = constrained_create_allocations(kind, 20_000, 20_000);
        assert!(
            small.abs_diff(large) <= 8,
            "{kind:?}: {small} allocations at 2 000 nodes, {large} at 20 000"
        );
    }
}

/// A create refused for a duplicate identity is undone by deleting the
/// node it made. On DEX that delete takes the node and its edges out
/// of their type bitmaps alone, so the refusal allocates the same at
/// 2 000 and 20 000 nodes (bound: 8). Rebuilding every bitmap allocates
/// once per node it re-files.
#[test]
fn a_refused_duplicate_create_does_not_allocate_by_node_count() {
    let (small, small_accepted) = constrained_create_allocations(EngineKind::Dex, 2_000, 7);
    let (large, large_accepted) = constrained_create_allocations(EngineKind::Dex, 20_000, 7);
    assert!(
        !small_accepted && !large_accepted,
        "a duplicate identity is refused"
    );
    assert!(
        small.abs_diff(large) <= 8,
        "{small} allocations at 2 000 nodes, {large} at 20 000"
    );
}

/// An RDF graph of `people` people, each knowing the four people 1, 7,
/// 31 and 101 places on: constant out-degree at every size.
fn rdf_knows_graph(people: usize) -> RdfGraph {
    let mut g = RdfGraph::new();
    let knows = Term::iri("knows");
    for i in 0..people {
        for step in [1, 7, 31, 101] {
            let to = Term::iri(format!("p{}", (i + step) % people));
            g.add(&Term::iri(format!("p{i}")), &knows, &to).unwrap();
        }
    }
    g
}

/// A two-hop SPARQL query costs what its constant seeds, whichever of
/// its two triple patterns is written first: both orders allocate the
/// same at 1 000 and 10 000 people, give or take a buffer doubling
/// (bound: 8). Joining the patterns in the written order makes the
/// swapped one list every `knows` triple and clone a binding per
/// triple, so its allocations follow the graph.
#[test]
fn sparql_cost_does_not_follow_the_written_order() {
    let as_written = "SELECT ?b WHERE { <p0> <knows> ?a . ?a <knows> ?b }";
    let swapped = "SELECT ?b WHERE { ?a <knows> ?b . <p0> <knows> ?a }";
    let mut allocations = Vec::new();
    for people in [1_000, 10_000] {
        let g = rdf_knows_graph(people);
        for text in [as_written, swapped] {
            let want = sparql::query(&g, text).unwrap();
            let before = ALLOCATIONS.with(Cell::get);
            let rows = sparql::query(&g, text).unwrap();
            allocations.push(ALLOCATIONS.with(Cell::get) - before);
            assert_eq!(rows.rows, want.rows);
            assert_eq!(rows.len(), 16, "{people} people: {text}");
        }
    }
    let (low, high) = (
        allocations.iter().min().unwrap(),
        allocations.iter().max().unwrap(),
    );
    assert!(
        high - low <= 8,
        "as written, swapped at 1 000 people, then at 10 000: {allocations:?} allocations"
    );
}

/// A SPARQL pattern costs what it returns when its seed is a constant
/// with many subjects, or a predicate on few triples. `?x <is_a>
/// <human>` visits `<human>` and each of its members once, at 1 000 and
/// 10 000 members. `?p <rare> ?r`, with no constant subject or object,
/// visits the three objects of `<rare>`'s ten triples and their ten
/// subjects (13) at both sizes, not every node of the graph.
#[test]
fn sparql_visits_follow_the_rows_not_the_graph() {
    for people in [1_000, 10_000] {
        let mut g = rdf_knows_graph(people);
        for i in 0..people {
            let member = Term::iri(format!("p{i}"));
            g.add(&member, &Term::iri("is_a"), &Term::iri("human"))
                .unwrap();
            if i < 10 {
                g.add(
                    &member,
                    &Term::iri("rare"),
                    &Term::lit(format!("r{}", i % 3)),
                )
                .unwrap();
            }
        }
        for (text, rows, visits) in [
            (
                "SELECT ?x WHERE { ?x <is_a> <human> }",
                people,
                people as u64 + 1,
            ),
            ("SELECT ?p ?r WHERE { ?p <rare> ?r }", 10, 13),
        ] {
            let guard = ExecutionGuard::unlimited();
            let got = sparql::evaluate(&g, &sparql::parse(text).unwrap(), &guard).unwrap();
            assert_eq!(got.len(), rows, "{people} people: {text}");
            assert_eq!(
                guard.budget().node_visits(),
                visits,
                "{people} people: {text}"
            );
        }
    }
}

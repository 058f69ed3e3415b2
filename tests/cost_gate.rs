//! Cost gates that do not depend on the machine, because the counts
//! they hold repeat exactly: the guard's node visits (a query whose cost
//! must follow its result rather than the graph is held to a fixed count
//! at two graph sizes) and this thread's heap allocations (finishing the
//! rows of a match must not allocate per match).

use graph_db_models::algo::FrozenGraph;
use graph_db_models::bench::workload::{social_graph, SocialParams};
use graph_db_models::govern::ExecutionGuard;
use graph_db_models::graphs::PropertyGraph;
use graph_db_models::query::cypher::{parse, CypherStatement};
use graph_db_models::query::plan::{execute_planned_governed, plan_select};
use graph_db_models::query::ResultSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's allocations
/// (growing a block counts) so tests running beside this one on other
/// threads do not show up in its count.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` that neither allocates nor has
// a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
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

/// Plans `text`, executes it once to warm this thread's executor
/// scratch, and returns the rows of a second execution with the number
/// of allocations that execution made. One root, so the pipeline runs
/// inline on this thread.
fn rows_and_allocations(fz: &FrozenGraph, text: &str) -> (ResultSet, u64) {
    let CypherStatement::Select(query) = parse(text).unwrap() else {
        panic!("expected a MATCH query");
    };
    let planned = plan_select(fz, &query).unwrap();
    let guard = ExecutionGuard::unlimited();
    execute_planned_governed(fz, &planned, &guard).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let rows = execute_planned_governed(fz, &planned, &guard).unwrap();
    (rows, ALLOCATIONS.with(Cell::get) - before)
}

/// Counting ten times the matches costs no more allocations than the
/// buffers doubling a few more times: nothing is allocated per match.
#[test]
fn counting_matches_allocates_nothing_per_match() {
    let fz = FrozenGraph::freeze_attributed(&benchmark_shaped_graph(20_000));
    let count = |hops: &str| {
        let (rows, allocations) = rows_and_allocations(
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
    let fz = FrozenGraph::freeze_attributed(&social_graph(SocialParams {
        people: 20_000,
        communities: 20,
        ..SocialParams::default()
    }));
    let matches = "MATCH (a:person {name:'person7'})-[:knows*1..3]->(b:person) RETURN count(*)";
    let grouped =
        "MATCH (a:person {name:'person7'})-[:knows*1..3]->(b:person) RETURN b.community, count(*)";
    let (total, _) = rows_and_allocations(&fz, matches);
    let (groups, allocations) = rows_and_allocations(&fz, grouped);
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
    let CypherStatement::Select(query) = parse(text).unwrap() else {
        panic!("expected a MATCH query");
    };
    for people in [2_000, 20_000] {
        let live = benchmark_shaped_graph(people);
        let fz = FrozenGraph::freeze_attributed(&live);
        let planned = plan_select(&fz, &query).unwrap();
        let nodes = &planned.query.pattern.nodes;
        let g = nodes.iter().position(|n| n.var == "g").unwrap();
        assert!(planned.domains[g].is_none(), "no domain for g:person");

        let guard = ExecutionGuard::unlimited();
        let rows = execute_planned_governed(&fz, &planned, &guard).unwrap();
        let visits = guard.budget().node_visits();
        assert!(visits < 200, "{people} people: {visits} node visits");

        let on_live = plan_select(&live, &query).unwrap();
        let unlimited = ExecutionGuard::unlimited();
        assert_eq!(
            rows,
            execute_planned_governed(&live, &on_live, &unlimited).unwrap()
        );
    }
}

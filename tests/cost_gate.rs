//! A cost gate that does not depend on the machine: the guard's visit
//! counts repeat exactly, so a query whose cost must follow its result
//! rather than the graph is held to a fixed count at two graph sizes.

use graph_db_models::algo::FrozenGraph;
use graph_db_models::bench::workload::{social_graph, SocialParams};
use graph_db_models::govern::ExecutionGuard;
use graph_db_models::query::cypher::{parse, CypherStatement};
use graph_db_models::query::plan::{execute_planned_governed, plan_select};

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
        let live = social_graph(SocialParams {
            people,
            communities: people / 100,
            ..SocialParams::default()
        });
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

//! Summarization queries (Section IV.4).
//!
//! "This type of queries are not related to consult the graph
//! structure. Instead they are based on special functions that allow
//! to summarize or operate on the query results, normally returning a
//! single value." Two families:
//!
//! * **Aggregation functions** over value sequences: count, sum,
//!   average, minimum, maximum ([`aggregate`]).
//! * **Structural functions** over the graph: order, size, node
//!   degree, min/max/average degree, path length, distance between
//!   nodes, eccentricity, diameter ([`graph_order`] and friends).

use crate::paths::{distance, reachable_set};
use gdm_core::{Direction, GdmError, GraphView, NodeId, Result, Value};
use gdm_govern::ExecutionGuard;

/// The aggregate functions of the paper's summarization group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of values (nulls excluded, as in SQL).
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric average.
    Avg,
    /// Minimum under [`Value::total_cmp`].
    Min,
    /// Maximum under [`Value::total_cmp`].
    Max,
}

/// Applies `agg` to `values`. Non-numeric inputs to `Sum`/`Avg` are a
/// type error; empty input yields `Null` (except `Count`, which is 0).
pub fn aggregate(agg: Aggregate, values: &[Value]) -> Result<Value> {
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    match agg {
        Aggregate::Count => Ok(Value::Int(non_null.len() as i64)),
        Aggregate::Sum | Aggregate::Avg => {
            if non_null.is_empty() {
                return Ok(Value::Null);
            }
            let mut sum = 0.0;
            let mut all_int = true;
            for v in &non_null {
                match v {
                    Value::Int(i) => sum += *i as f64,
                    Value::Float(f) => {
                        all_int = false;
                        sum += f;
                    }
                    other => {
                        return Err(GdmError::Type {
                            expected: "number",
                            got: other.type_name().to_owned(),
                        })
                    }
                }
            }
            if agg == Aggregate::Avg {
                Ok(Value::Float(sum / non_null.len() as f64))
            } else if all_int {
                Ok(Value::Int(sum as i64))
            } else {
                Ok(Value::Float(sum))
            }
        }
        Aggregate::Min => Ok(non_null
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null)),
        Aggregate::Max => Ok(non_null
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null)),
    }
}

/// Parses an aggregate function name (case-insensitive).
pub fn parse_aggregate(name: &str) -> Option<Aggregate> {
    match name.to_ascii_lowercase().as_str() {
        "count" => Some(Aggregate::Count),
        "sum" => Some(Aggregate::Sum),
        "avg" | "average" => Some(Aggregate::Avg),
        "min" | "minimum" => Some(Aggregate::Min),
        "max" | "maximum" => Some(Aggregate::Max),
        _ => None,
    }
}

/// The order of the graph: its number of vertices.
pub fn graph_order(g: &dyn GraphView) -> usize {
    g.node_count()
}

/// The size of the graph: its number of edges.
pub fn graph_size(g: &dyn GraphView) -> usize {
    g.edge_count()
}

/// Degree statistics `(min, max, average)` over all nodes; `None` for
/// an empty graph.
pub fn degree_stats(g: &dyn GraphView) -> Option<(usize, usize, f64)> {
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    let mut count = 0usize;
    g.visit_nodes(&mut |n| {
        let d = g.degree(n);
        min = min.min(d);
        max = max.max(d);
        sum += d;
        count += 1;
    });
    (count > 0).then(|| (min, max, sum as f64 / count as f64))
}

/// Eccentricity of `n`: greatest distance from `n` to any node
/// reachable from it (BFS, following `direction`).
pub fn eccentricity(g: &dyn GraphView, n: NodeId, direction: Direction) -> Option<usize> {
    if !g.contains_node(n) {
        return None;
    }
    let visits = crate::traverse::Traversal::new(n)
        .direction(direction)
        .visits(g);
    visits.iter().map(|v| v.depth).max()
}

/// Diameter: the greatest distance between any two connected nodes
/// ("the greatest distance between any two nodes"). Exact all-pairs
/// BFS — O(V·E); fine at the scales the benches use. Returns `None`
/// for an empty graph. Nodes that cannot reach each other do not
/// contribute (the usual finite-diameter convention).
///
/// The guard is charged per source: one node visit, settled with a
/// deadline/cancellation check before the source's eccentricity BFS,
/// and one row once the source has contributed, so the `partial` field
/// of an interrupt reports how many sources the (partial) maximum
/// covers.
pub fn diameter(
    g: &dyn GraphView,
    direction: Direction,
    guard: &ExecutionGuard,
) -> Result<Option<usize>> {
    let meter = guard.meter();
    let mut best: Option<usize> = None;
    for n in g.node_ids() {
        meter.nodes(1)?;
        meter.settle()?;
        if let Some(e) = eccentricity(g, n, direction) {
            best = Some(best.map_or(e, |b| b.max(e)));
        }
        meter.rows(1)?;
    }
    meter.settle()?;
    Ok(best)
}

/// Distance between two nodes, re-exported beside the other
/// summarization functions for discoverability (the paper lists it in
/// this group).
pub fn distance_between(g: &dyn GraphView, a: NodeId, b: NodeId) -> Option<usize> {
    distance(g, a, b)
}

/// Number of nodes reachable from `n` (including itself) — a common
/// summarization building block.
pub fn reachable_count(g: &dyn GraphView, n: NodeId, direction: Direction) -> usize {
    reachable_set(g, n, direction).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_graphs::SimpleGraph;

    #[test]
    fn aggregates_over_ints() {
        let vals: Vec<Value> = [3i64, 1, 4, 1, 5].into_iter().map(Value::from).collect();
        assert_eq!(aggregate(Aggregate::Count, &vals).unwrap(), Value::from(5));
        assert_eq!(aggregate(Aggregate::Sum, &vals).unwrap(), Value::from(14));
        assert_eq!(aggregate(Aggregate::Avg, &vals).unwrap(), Value::from(2.8));
        assert_eq!(aggregate(Aggregate::Min, &vals).unwrap(), Value::from(1));
        assert_eq!(aggregate(Aggregate::Max, &vals).unwrap(), Value::from(5));
    }

    #[test]
    fn aggregates_skip_nulls() {
        let vals = vec![Value::from(2), Value::Null, Value::from(4)];
        assert_eq!(aggregate(Aggregate::Count, &vals).unwrap(), Value::from(2));
        assert_eq!(aggregate(Aggregate::Avg, &vals).unwrap(), Value::from(3.0));
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(aggregate(Aggregate::Count, &[]).unwrap(), Value::from(0));
        assert_eq!(aggregate(Aggregate::Sum, &[]).unwrap(), Value::Null);
        assert_eq!(aggregate(Aggregate::Min, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn sum_of_strings_is_a_type_error() {
        let vals = vec![Value::from("a")];
        assert!(aggregate(Aggregate::Sum, &vals).is_err());
        // But min/max over strings is fine.
        assert_eq!(aggregate(Aggregate::Max, &vals).unwrap(), Value::from("a"));
    }

    #[test]
    fn mixed_numeric_sum_is_float() {
        let vals = vec![Value::from(1), Value::from(0.5)];
        assert_eq!(aggregate(Aggregate::Sum, &vals).unwrap(), Value::from(1.5));
    }

    #[test]
    fn aggregate_names() {
        assert_eq!(parse_aggregate("COUNT"), Some(Aggregate::Count));
        assert_eq!(parse_aggregate("avg"), Some(Aggregate::Avg));
        assert_eq!(parse_aggregate("median"), None);
    }

    fn diameter_of(g: &SimpleGraph, direction: Direction) -> Option<usize> {
        diameter(g, direction, &ExecutionGuard::unlimited())
            .expect("an unlimited guard never interrupts")
    }

    fn path_graph(n: usize) -> (SimpleGraph, Vec<NodeId>) {
        let mut g = SimpleGraph::directed();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        (g, nodes)
    }

    #[test]
    fn order_size_degree() {
        let (g, _) = path_graph(5);
        assert_eq!(graph_order(&g), 5);
        assert_eq!(graph_size(&g), 4);
        let (min, max, avg) = degree_stats(&g).unwrap();
        assert_eq!(min, 1); // endpoints
        assert_eq!(max, 2); // middle nodes
        assert!((avg - 1.6).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_stats() {
        let g = SimpleGraph::directed();
        assert_eq!(degree_stats(&g), None);
        assert_eq!(diameter_of(&g, Direction::Both), None);
    }

    #[test]
    fn eccentricity_and_diameter() {
        let (g, n) = path_graph(5);
        assert_eq!(eccentricity(&g, n[0], Direction::Outgoing), Some(4));
        assert_eq!(eccentricity(&g, n[4], Direction::Outgoing), Some(0));
        assert_eq!(diameter_of(&g, Direction::Outgoing), Some(4));
        // Treating edges as bidirectional the diameter is the same
        // here but eccentricity of the middle node drops.
        assert_eq!(eccentricity(&g, n[2], Direction::Both), Some(2));
        assert_eq!(diameter_of(&g, Direction::Both), Some(4));
    }

    #[test]
    fn distance_between_nodes() {
        let (g, n) = path_graph(4);
        assert_eq!(distance_between(&g, n[0], n[3]), Some(3));
        assert_eq!(distance_between(&g, n[3], n[0]), None);
    }

    #[test]
    fn reachability_counts() {
        let (g, n) = path_graph(4);
        assert_eq!(reachable_count(&g, n[0], Direction::Outgoing), 4);
        assert_eq!(reachable_count(&g, n[2], Direction::Outgoing), 2);
    }
}

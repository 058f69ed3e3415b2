//! Traversal machinery: a Neo4j-style fluent traversal description,
//! breadth- or depth-first.
//!
//! The paper describes Neo4j as providing "a framework for graph
//! traversals" instead of a query language; [`Traversal`] reproduces
//! that API shape — choose order, direction, relationship types, depth
//! bounds, and a node filter, then iterate.

use gdm_core::{Direction, EdgeRef, FxHashSet, GraphView, NodeId};
use std::collections::VecDeque;

/// Visit order of a [`Traversal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Breadth-first (level by level).
    BreadthFirst,
    /// Depth-first (stack discipline).
    DepthFirst,
}

/// A visited node together with its depth and the edge that reached it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visit {
    /// The node reached.
    pub node: NodeId,
    /// Hops from the start node (0 for the start itself).
    pub depth: usize,
    /// The edge traversed to reach it (`None` for the start).
    pub via: Option<EdgeRef>,
}

/// A fluent traversal description (Neo4j `TraversalDescription` shape).
///
/// ```
/// # use gdm_graphs::SimpleGraph;
/// # use gdm_algo::traverse::{Traversal, Order};
/// # use gdm_core::{Direction, GraphView};
/// let mut g = SimpleGraph::directed();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_labeled_edge(a, b, "knows").unwrap();
/// let nodes = Traversal::new(a)
///     .order(Order::BreadthFirst)
///     .direction(Direction::Outgoing)
///     .relationships(&["knows"])
///     .max_depth(3)
///     .run(&g);
/// assert_eq!(nodes, vec![a, b]);
/// ```
#[derive(Debug, Clone)]
pub struct Traversal {
    start: NodeId,
    order: Order,
    direction: Direction,
    rel_types: Option<Vec<String>>,
    min_depth: usize,
    max_depth: Option<usize>,
}

impl Traversal {
    /// Starts describing a traversal from `start`.
    pub fn new(start: NodeId) -> Self {
        Self {
            start,
            order: Order::BreadthFirst,
            direction: Direction::Outgoing,
            rel_types: None,
            min_depth: 0,
            max_depth: None,
        }
    }

    /// Sets the visit order.
    #[must_use]
    pub fn order(mut self, order: Order) -> Self {
        self.order = order;
        self
    }

    /// Sets the traversal direction.
    #[must_use]
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Restricts traversed edges to the given relationship types.
    #[must_use]
    pub fn relationships(mut self, types: &[&str]) -> Self {
        self.rel_types = Some(types.iter().map(|s| (*s).to_owned()).collect());
        self
    }

    /// Only report nodes at depth ≥ `d` (they are still traversed).
    #[must_use]
    pub fn min_depth(mut self, d: usize) -> Self {
        self.min_depth = d;
        self
    }

    /// Do not traverse beyond depth `d`.
    #[must_use]
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = Some(d);
        self
    }

    /// Runs the traversal, returning reported nodes in visit order.
    pub fn run(&self, g: &dyn GraphView) -> Vec<NodeId> {
        self.visits(g).into_iter().map(|v| v.node).collect()
    }

    /// Runs the traversal, returning full visit records.
    pub fn visits(&self, g: &dyn GraphView) -> Vec<Visit> {
        if !g.contains_node(self.start) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        seen.insert(self.start.raw());
        match self.order {
            Order::BreadthFirst => {
                let mut queue = VecDeque::new();
                queue.push_back(Visit {
                    node: self.start,
                    depth: 0,
                    via: None,
                });
                while let Some(visit) = queue.pop_front() {
                    if visit.depth >= self.min_depth {
                        out.push(visit);
                    }
                    if self.max_depth.is_some_and(|m| visit.depth >= m) {
                        continue;
                    }
                    self.expand(g, visit.node, &mut |e| {
                        if seen.insert(e.to.raw()) {
                            queue.push_back(Visit {
                                node: e.to,
                                depth: visit.depth + 1,
                                via: Some(e),
                            });
                        }
                    });
                }
            }
            Order::DepthFirst => {
                let mut stack = vec![Visit {
                    node: self.start,
                    depth: 0,
                    via: None,
                }];
                while let Some(visit) = stack.pop() {
                    if visit.depth >= self.min_depth {
                        out.push(visit);
                    }
                    if self.max_depth.is_some_and(|m| visit.depth >= m) {
                        continue;
                    }
                    // Collect then reverse so children visit in edge order.
                    let mut children = Vec::new();
                    self.expand(g, visit.node, &mut |e| {
                        if seen.insert(e.to.raw()) {
                            children.push(Visit {
                                node: e.to,
                                depth: visit.depth + 1,
                                via: Some(e),
                            });
                        }
                    });
                    children.reverse();
                    stack.extend(children);
                }
            }
        }
        out
    }

    fn expand(&self, g: &dyn GraphView, n: NodeId, f: &mut dyn FnMut(EdgeRef)) {
        g.visit_edges_dir(n, self.direction, &mut |e| {
            if let Some(types) = &self.rel_types {
                let matches = e
                    .label
                    .and_then(|sym| g.label_text(sym))
                    .is_some_and(|t| types.iter().any(|want| want == t));
                if !matches {
                    return;
                }
            }
            f(e);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_graphs::SimpleGraph;

    /// 0→1, 0→2, 1→3, 2→3, 3→4 with labels.
    fn diamond() -> (SimpleGraph, Vec<NodeId>) {
        let mut g = SimpleGraph::directed();
        let n: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        g.add_labeled_edge(n[0], n[1], "a").unwrap();
        g.add_labeled_edge(n[0], n[2], "b").unwrap();
        g.add_labeled_edge(n[1], n[3], "a").unwrap();
        g.add_labeled_edge(n[2], n[3], "b").unwrap();
        g.add_labeled_edge(n[3], n[4], "a").unwrap();
        (g, n)
    }

    #[test]
    fn bfs_visits_level_by_level() {
        let (g, n) = diamond();
        let order = Traversal::new(n[0]).direction(Direction::Outgoing).run(&g);
        assert_eq!(order, vec![n[0], n[1], n[2], n[3], n[4]]);
    }

    #[test]
    fn dfs_goes_deep_first() {
        let (g, n) = diamond();
        let order = Traversal::new(n[0]).order(Order::DepthFirst).run(&g);
        assert_eq!(order[0], n[0]);
        assert_eq!(order[1], n[1]);
        assert_eq!(order[2], n[3]); // deep before n2
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn max_depth_bounds_traversal() {
        let (g, n) = diamond();
        let order = Traversal::new(n[0]).max_depth(1).run(&g);
        assert_eq!(order, vec![n[0], n[1], n[2]]);
    }

    #[test]
    fn min_depth_skips_early_levels() {
        let (g, n) = diamond();
        let order = Traversal::new(n[0]).min_depth(2).run(&g);
        assert_eq!(order, vec![n[3], n[4]]);
    }

    #[test]
    fn relationship_filter() {
        let (g, n) = diamond();
        let order = Traversal::new(n[0]).relationships(&["a"]).run(&g);
        // Only a-labeled edges: 0→1→3→4.
        assert_eq!(order, vec![n[0], n[1], n[3], n[4]]);
    }

    #[test]
    fn incoming_direction() {
        let (g, n) = diamond();
        let order = Traversal::new(n[4]).direction(Direction::Incoming).run(&g);
        assert_eq!(order[0], n[4]);
        assert!(order.contains(&n[0]));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn both_directions_reach_everything() {
        let (g, n) = diamond();
        let order = Traversal::new(n[2]).direction(Direction::Both).run(&g);
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn missing_start_yields_nothing() {
        let (g, _) = diamond();
        assert!(Traversal::new(NodeId(99))
            .direction(Direction::Outgoing)
            .run(&g)
            .is_empty());
    }

    #[test]
    fn visits_record_depth_and_edge() {
        let (g, n) = diamond();
        let visits = Traversal::new(n[0]).visits(&g);
        assert_eq!(visits[0].depth, 0);
        assert!(visits[0].via.is_none());
        let v3 = visits.iter().find(|v| v.node == n[3]).unwrap();
        assert_eq!(v3.depth, 2);
        assert!(v3.via.is_some());
    }
}

//! Traversal machinery: the crate's one level-walk kernel,
//! `walk_levels`, which every breadth-first search here runs through
//! (the pattern pipeline's variable-length edge directly, every other
//! search by way of `bfs`), and a Neo4j-style fluent traversal
//! description, breadth- or depth-first.
//!
//! The paper describes Neo4j as providing "a framework for graph
//! traversals" instead of a query language; [`Traversal`] reproduces
//! that API shape — choose order, direction, relationship types and
//! depth bounds, then iterate.

use gdm_core::{Direction, EdgeRef, FxHashSet, GraphView, NodeId, Result, Symbol};
use gdm_govern::{ExecutionGuard, Meter};
use std::ops::ControlFlow;

/// Reusable buffers of [`walk_levels`]: the frontier, the next one and
/// one node's targets.
pub(crate) type WalkBufs<K> = [Vec<K>; 3];

/// The level-walk kernel: a depth-bounded, level-synchronous frontier
/// expansion from `start` that calls `emit(u, t, depth)` once for every
/// node `t` some walk of `min..=max` hops ends at, `u` being the node
/// whose expansion reached it, and stops when `emit` breaks (returning
/// whether it did). `neighbours(u, out)` appends `u`'s qualifying
/// targets; `mark(t, level)` stamps `t` with the walk's `level`-th
/// generation and says whether it was not stamped so already. Each
/// frontier node is charged to `meter` as one node visit before it is
/// expanded.
///
/// Below `min` every level has its own generation (`level = depth -
/// 1`), since a walk may revisit a node deeper; from `min` on all share
/// generation `min - 1`, a visit-once search from the depth-`min`
/// frontier (DESIGN.md §13). With `min == 1` and `start` marked, that
/// is a breadth-first search.
pub(crate) fn walk_levels<K: Copy>(
    start: K,
    (min, max): (u32, u32),
    bufs: &mut WalkBufs<K>,
    mut neighbours: impl FnMut(K, &mut Vec<K>),
    mut mark: impl FnMut(K, u32) -> bool,
    meter: &Meter,
    mut emit: impl FnMut(K, K, u32) -> ControlFlow<()>,
) -> Result<bool> {
    let [frontier, next, found] = bufs;
    frontier.clear();
    frontier.push(start);
    for depth in 1..=max {
        if frontier.is_empty() {
            break;
        }
        let level = depth.min(min) - 1;
        next.clear();
        for &u in frontier.iter() {
            meter.nodes(1)?;
            found.clear();
            neighbours(u, found);
            for &t in found.iter() {
                if !mark(t, level) {
                    continue;
                }
                next.push(t);
                if depth >= min && emit(u, t, depth).is_break() {
                    return Ok(true);
                }
            }
        }
        std::mem::swap(frontier, next);
    }
    Ok(false)
}

/// Breadth-first searches of `g` under `guard`, following `direction`
/// (and, when given, only edges labelled one of `rel_types`) up to
/// `max` hops, from each of `starts` the view holds and no earlier
/// search reached. `emit(u, t, depth)` sees each start as `(start,
/// start, 0)`, then every node `t` first reached, by expanding `u`, in
/// first-in first-out order, each node's edges in view order (so a
/// snapshot answers exactly as its live view); a break stops every
/// search. Charges one node visit per expanded node, as every level
/// walk does. Returns the nodes reached (after a break, also those
/// read but not yet emitted).
pub(crate) fn bfs(
    g: &dyn GraphView,
    direction: Direction,
    rel_types: Option<&[String]>,
    starts: impl IntoIterator<Item = NodeId>,
    max: u32,
    guard: &ExecutionGuard,
    mut emit: impl FnMut(NodeId, NodeId, u32) -> ControlFlow<()>,
) -> Result<FxHashSet<u64>> {
    let (meter, bufs) = (guard.meter(), &mut WalkBufs::default());
    let mut seen = FxHashSet::default();
    for start in starts {
        if seen.contains(&start.raw()) || !g.contains_node(start) {
            continue;
        }
        seen.insert(start.raw());
        // Marking as it reads leaves the kernel's mark nothing to reject.
        let step = |u, out: &mut Vec<NodeId>| {
            let mut keep = |e: EdgeRef| {
                if seen.insert(e.to.raw()) {
                    out.push(e.to);
                }
            };
            match rel_types {
                None => g.visit_edges_dir(u, direction, &mut keep),
                Some(_) => g.visit_edges_dir(u, direction, &mut |e| {
                    if wanted(g, rel_types, e.label) {
                        keep(e);
                    }
                }),
            }
        };
        if emit(start, start, 0).is_break()
            || walk_levels(start, (1, max), bufs, step, |_, _| true, &meter, &mut emit)?
        {
            break;
        }
    }
    meter.settle()?;
    Ok(seen)
}

/// True when `rel_types` is `None` or names `label`'s text.
fn wanted(g: &dyn GraphView, rel_types: Option<&[String]>, label: Option<Symbol>) -> bool {
    rel_types.is_none_or(|types| {
        let text = label.and_then(|sym| g.label_text(sym));
        text.is_some_and(|t| types.iter().any(|want| want == t))
    })
}

/// Visit order of a [`Traversal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Breadth-first (level by level).
    BreadthFirst,
    /// Depth-first (stack discipline).
    DepthFirst,
}

/// A visited node together with its depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visit {
    /// The node reached.
    pub node: NodeId,
    /// Hops from the start node (0 for the start itself).
    pub depth: usize,
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
        let mut out = Vec::new();
        if self.order == Order::DepthFirst {
            self.depth_first(g, &mut out);
            return out;
        }
        let max = u32::try_from(self.max_depth.unwrap_or(usize::MAX)).unwrap_or(u32::MAX);
        let report = |_, node, depth| {
            let depth = depth as usize;
            if depth >= self.min_depth {
                out.push(Visit { node, depth });
            }
            ControlFlow::Continue(())
        };
        let (dir, rels) = (self.direction, self.rel_types.as_deref());
        let unlimited = ExecutionGuard::unlimited();
        bfs(g, dir, rels, [self.start], max, &unlimited, report)
            .expect("an unlimited guard never interrupts");
        out
    }

    /// The depth-first order: a stack, children pushed so they pop in
    /// edge order.
    fn depth_first(&self, g: &dyn GraphView, out: &mut Vec<Visit>) {
        let (mut seen, mut stack) = (FxHashSet::default(), Vec::new());
        if g.contains_node(self.start) && seen.insert(self.start.raw()) {
            stack.push(Visit {
                node: self.start,
                depth: 0,
            });
        }
        while let Some(visit) = stack.pop() {
            if visit.depth >= self.min_depth {
                out.push(visit);
            }
            if self.max_depth.is_some_and(|m| visit.depth >= m) {
                continue;
            }
            let children = stack.len();
            g.visit_edges_dir(visit.node, self.direction, &mut |e| {
                if wanted(g, self.rel_types.as_deref(), e.label) && seen.insert(e.to.raw()) {
                    stack.push(Visit {
                        node: e.to,
                        depth: visit.depth + 1,
                    });
                }
            });
            stack[children..].reverse();
        }
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
        let v3 = visits.iter().find(|v| v.node == n[3]).unwrap();
        assert_eq!(v3.depth, 2);
    }
}

//! Graph pattern matching queries (Section IV.3).
//!
//! "Graph pattern matching consists in to find all sub-graphs of a
//! data graph that are isomorphic to a pattern graph." The matcher is
//! a VF2-style backtracking search for subgraph *monomorphisms*
//! (injective on nodes, non-induced on edges) with optional label and
//! property constraints; [`match_pattern_brute`] is the brute-force
//! oracle the property tests compare against.
//!
//! A pattern edge may be *variable-length* ([`Pattern::edge_hops`]): it
//! then stands for a walk of `min..=max` label-matching hops instead of
//! one edge. [`within_hops`] is the reference predicate for such an
//! edge; the matchers in this module check it per candidate pair, the
//! planned executors ([`crate::planned`], [`crate::vectorized`]) expand
//! it from the bound endpoint instead.

use gdm_core::{
    AttributedView, Direction, FxHashMap, FxHashSet, GdmError, NodeId, Result, Symbol, Value,
};
use gdm_govern::{ExecutionGuard, Meter};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// A pattern node: a variable plus optional constraints.
#[derive(Debug, Clone, Default)]
pub struct PatternNode {
    /// Variable name reported in matches.
    pub var: String,
    /// Required node label, if constrained.
    pub label: Option<String>,
    /// Required property values (loose equality).
    pub props: Vec<(String, Value)>,
}

impl PatternNode {
    /// An unconstrained variable.
    pub fn var(name: impl Into<String>) -> Self {
        Self {
            var: name.into(),
            ..Self::default()
        }
    }

    /// Adds a label constraint.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Adds a property constraint.
    #[must_use]
    pub fn with_prop(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.props.push((key.into(), value.into()));
        self
    }
}

/// A pattern edge between pattern-node indices.
#[derive(Debug, Clone)]
pub struct PatternEdge {
    /// Index of the source pattern node.
    pub from: usize,
    /// Index of the target pattern node.
    pub to: usize,
    /// Required edge label, if constrained.
    pub label: Option<String>,
    /// Direction semantics: `Outgoing` means `from → to` in the data
    /// graph, `Both` accepts either orientation. Never `Incoming`: the
    /// constructors store such an edge reversed.
    pub direction: Direction,
    /// Inclusive range constraints on edge properties: `(key, low,
    /// high)` with either bound optional. Comparison is loose the way
    /// [`Value::compare`] is (number-family unified); an edge missing
    /// the property never matches.
    pub ranges: Vec<(String, Option<Value>, Option<Value>)>,
    /// `Some((min, max))` makes the edge variable-length: it matches
    /// when a walk of `min..=max` hops, each over an edge carrying
    /// `label` and oriented by `direction`, leads from `from` to `to`
    /// (`1 <= min <= max`). Nodes and edges may repeat along the walk.
    pub hops: Option<(u32, u32)>,
}

/// True when `got` lies in the inclusive, number-family-loose range
/// `[low, high]`: the check every matcher applies to an edge's
/// [`PatternEdge::ranges`]. A value that does not compare with a bound
/// (another type family) is out of range.
pub(crate) fn value_in_range(got: &Value, low: Option<&Value>, high: Option<&Value>) -> bool {
    let lo_ok =
        low.is_none_or(|l| matches!(got.compare(l), Some(Ordering::Greater | Ordering::Equal)));
    lo_ok && high.is_none_or(|h| matches!(got.compare(h), Some(Ordering::Less | Ordering::Equal)))
}

/// A pattern graph.
#[derive(Debug, Clone, Default)]
pub struct Pattern {
    /// Pattern nodes (variables).
    pub nodes: Vec<PatternNode>,
    /// Pattern edges.
    pub edges: Vec<PatternEdge>,
}

impl Pattern {
    /// Starts an empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its index.
    pub fn node(&mut self, node: PatternNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Adds a directed edge constraint.
    pub fn edge(&mut self, from: usize, to: usize, label: Option<&str>) -> Result<()> {
        self.add_edge(from, to, label, Direction::Outgoing)
    }

    /// Adds an undirected (either-orientation) edge constraint.
    pub fn edge_undirected(&mut self, from: usize, to: usize, label: Option<&str>) -> Result<()> {
        self.add_edge(from, to, label, Direction::Both)
    }

    fn add_edge(
        &mut self,
        from: usize,
        to: usize,
        label: Option<&str>,
        direction: Direction,
    ) -> Result<()> {
        if from >= self.nodes.len() || to >= self.nodes.len() {
            return Err(GdmError::InvalidArgument(
                "pattern edge references missing node".into(),
            ));
        }
        self.edges.push(PatternEdge {
            from,
            to,
            label: label.map(str::to_owned),
            direction,
            ranges: Vec::new(),
            hops: None,
        });
        Ok(())
    }

    /// Adds a variable-length edge constraint: a walk of `min..=max`
    /// hops from `from` to `to`, every hop over an edge labelled
    /// `label` (any when `None`) and oriented by `direction` relative
    /// to the walk. `Incoming` is stored as the reversed `Outgoing`
    /// edge.
    pub fn edge_hops(
        &mut self,
        from: usize,
        to: usize,
        label: Option<&str>,
        direction: Direction,
        min: usize,
        max: usize,
    ) -> Result<()> {
        let bound = |hops: usize| {
            u32::try_from(hops)
                .map_err(|_| GdmError::InvalidArgument(format!("hop bound {hops} is too large")))
        };
        let (min, max) = (bound(min)?, bound(max)?);
        if min == 0 || min > max {
            return Err(GdmError::InvalidArgument(format!(
                "variable-length edge needs 1 <= min <= max, got {min}..{max}"
            )));
        }
        let (from, to, direction) = match direction {
            Direction::Incoming => (to, from, Direction::Outgoing),
            other => (from, to, other),
        };
        self.add_edge(from, to, label, direction)?;
        self.edges.last_mut().expect("just added").hops = Some((min, max));
        Ok(())
    }

    /// Adds an inclusive range constraint on property `key` of the
    /// most recently added edge (either bound optional, loose
    /// number-family comparison; an edge without the property never
    /// matches). Errors when no edge has been added yet, or when that
    /// edge is variable-length.
    pub fn edge_range(
        &mut self,
        key: impl Into<String>,
        low: Option<Value>,
        high: Option<Value>,
    ) -> Result<()> {
        let Some(e) = self.edges.last_mut() else {
            return Err(GdmError::InvalidArgument(
                "edge_range requires a preceding edge".into(),
            ));
        };
        if e.hops.is_some() {
            return Err(GdmError::InvalidArgument(
                "variable-length edges take no range constraints".into(),
            ));
        }
        e.ranges.push((key.into(), low, high));
        Ok(())
    }
}

/// One match: pattern variable → data node.
pub type Binding = FxHashMap<String, NodeId>;

/// Finds all subgraph matches of `pattern` in `g` (VF2-style search)
/// under `guard`: one node visit is charged per candidate considered
/// and one row per binding emitted, and a trip returns
/// [`GdmError::Interrupted`]. Matches are injective on nodes. Returns
/// bindings in a stable order.
pub fn match_pattern<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    guard: &ExecutionGuard,
) -> Result<Vec<Binding>> {
    if pattern.nodes.is_empty() {
        return Ok(Vec::new());
    }
    // Order pattern nodes: most-constrained first, then by
    // connectivity to already-placed nodes (classic VF2 ordering).
    let order = matching_order(pattern);
    let mut assignment: Vec<Option<NodeId>> = vec![None; pattern.nodes.len()];
    let mut caches = MatchCaches::for_pattern(pattern);
    let mut out = Vec::new();
    let meter = guard.meter();
    extend(
        g,
        pattern,
        &order,
        0,
        &mut assignment,
        &mut caches,
        &mut out,
        &meter,
    )?;
    meter.settle()?;
    Ok(out)
}

/// Per-search memo of label-symbol checks: one `symbol → matches?` map
/// per pattern node and per pattern edge, so each distinct symbol's
/// text is resolved (and compared) once per search instead of once per
/// candidate — the same trick `planned.rs` uses, which is what keeps
/// the frozen snapshot's interned-symbol lookups off the hot path.
#[derive(Debug, Default)]
pub(crate) struct MatchCaches {
    node_labels: Vec<FxHashMap<u32, bool>>,
    edge_labels: Vec<FxHashMap<u32, bool>>,
}

impl MatchCaches {
    pub(crate) fn for_pattern(pattern: &Pattern) -> Self {
        Self {
            node_labels: vec![FxHashMap::default(); pattern.nodes.len()],
            edge_labels: vec![FxHashMap::default(); pattern.edges.len()],
        }
    }
}

/// Memoized check of an optional label constraint against an optional
/// interned symbol.
#[inline]
pub(crate) fn label_ok<G: AttributedView + ?Sized>(
    g: &G,
    cache: &mut FxHashMap<u32, bool>,
    want: Option<&str>,
    sym: Option<Symbol>,
) -> bool {
    let Some(want) = want else {
        return true;
    };
    let Some(sym) = sym else {
        return false;
    };
    *cache
        .entry(sym.raw())
        .or_insert_with(|| g.label_text(sym).is_some_and(|t| t == want))
}

pub(crate) fn matching_order(pattern: &Pattern) -> Vec<usize> {
    let n = pattern.nodes.len();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let constraint_score = |i: usize| {
        let pn = &pattern.nodes[i];
        pn.props.len() * 2 + usize::from(pn.label.is_some())
    };
    for _ in 0..n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .max_by_key(|&i| {
                let connected = pattern
                    .edges
                    .iter()
                    .filter(|e| (placed[e.from] && e.to == i) || (placed[e.to] && e.from == i))
                    .count();
                (connected, constraint_score(i))
            })
            .expect("unplaced node exists");
        placed[next] = true;
        order.push(next);
    }
    order
}

#[allow(clippy::too_many_arguments)]
fn extend<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<Option<NodeId>>,
    caches: &mut MatchCaches,
    out: &mut Vec<Binding>,
    meter: &Meter,
) -> Result<()> {
    if depth == order.len() {
        meter.rows(1)?;
        let binding = pattern
            .nodes
            .iter()
            .enumerate()
            .map(|(i, pn)| (pn.var.clone(), assignment[i].expect("complete")))
            .collect();
        out.push(binding);
        return Ok(());
    }
    let pv = order[depth];
    for candidate in candidates(g, pattern, pv, assignment) {
        meter.nodes(1)?;
        if assignment.iter().flatten().any(|&n| n == candidate) {
            continue; // injectivity
        }
        if !node_compatible(
            g,
            &pattern.nodes[pv],
            candidate,
            &mut caches.node_labels[pv],
        ) {
            continue;
        }
        assignment[pv] = Some(candidate);
        if edges_consistent(g, pattern, pv, assignment, &mut caches.edge_labels) {
            extend(g, pattern, order, depth + 1, assignment, caches, out, meter)?;
        }
        assignment[pv] = None;
    }
    Ok(())
}

/// Candidate data nodes for pattern node `pv`: neighbors of an
/// already-bound pattern neighbor over a single-hop edge when
/// possible, otherwise all nodes.
fn candidates<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    pv: usize,
    assignment: &[Option<NodeId>],
) -> Vec<NodeId> {
    for e in pattern.edges.iter().filter(|e| e.hops.is_none()) {
        if e.to == pv {
            if let Some(bound) = assignment[e.from] {
                let mut c = Vec::new();
                g.visit_edges_dir(bound, e.direction, &mut |er| {
                    if !c.contains(&er.to) {
                        c.push(er.to);
                    }
                });
                return c;
            }
        }
        if e.from == pv {
            if let Some(bound) = assignment[e.to] {
                let dir = match e.direction {
                    Direction::Outgoing => Direction::Incoming,
                    other => other,
                };
                let mut c = Vec::new();
                g.visit_edges_dir(bound, dir, &mut |er| {
                    if !c.contains(&er.to) {
                        c.push(er.to);
                    }
                });
                return c;
            }
        }
    }
    g.node_ids()
}

fn node_compatible<G: AttributedView + ?Sized>(
    g: &G,
    pn: &PatternNode,
    n: NodeId,
    cache: &mut FxHashMap<u32, bool>,
) -> bool {
    if !g.contains_node(n) {
        return false;
    }
    if !label_ok(g, cache, pn.label.as_deref(), g.node_label(n)) {
        return false;
    }
    pn.props.iter().all(|(key, want)| {
        g.node_property(n, key)
            .is_some_and(|got| got.loose_eq(want))
    })
}

/// Checks every pattern edge whose endpoints are both bound.
fn edges_consistent<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    just_placed: usize,
    assignment: &[Option<NodeId>],
    edge_caches: &mut [FxHashMap<u32, bool>],
) -> bool {
    for (i, e) in pattern.edges.iter().enumerate() {
        if e.from != just_placed && e.to != just_placed {
            continue;
        }
        let (Some(from), Some(to)) = (assignment[e.from], assignment[e.to]) else {
            continue;
        };
        if !has_edge(g, from, to, e, &mut edge_caches[i]) {
            return false;
        }
    }
    true
}

fn has_edge<G: AttributedView + ?Sized>(
    g: &G,
    from: NodeId,
    to: NodeId,
    e: &PatternEdge,
    cache: &mut FxHashMap<u32, bool>,
) -> bool {
    if let Some((min, max)) = e.hops {
        let label = e.label.as_deref();
        return within_hops(g, from, to, label, e.direction, min as usize, max as usize);
    }
    let check = |a: NodeId, b: NodeId, cache: &mut FxHashMap<u32, bool>| {
        let mut found = false;
        g.visit_out_edges(a, &mut |er| {
            if er.to == b
                && label_ok(g, cache, e.label.as_deref(), er.label)
                && edge_ranges_ok(g, er.id, &e.ranges)
            {
                found = true;
            }
        });
        found
    };
    match e.direction {
        Direction::Outgoing => check(from, to, cache),
        Direction::Incoming => check(to, from, cache),
        Direction::Both => check(from, to, cache) || check(to, from, cache),
    }
}

/// The reference predicate for variable-length edges: does a walk of
/// `min..=max` hops lead from `from` to `to`, every hop over an edge
/// whose label matches `label` (any label when `None`) followed in
/// `direction`? Nodes and edges may repeat along the walk.
///
/// It is the one breadth-first search here that does not run through
/// `walk_levels`, on purpose: it is the
/// oracle the variable-length edge, which that kernel evaluates, is
/// tested against, and an oracle sharing the kernel's code would share
/// its faults.
pub fn within_hops<G: AttributedView + ?Sized>(
    g: &G,
    from: NodeId,
    to: NodeId,
    label: Option<&str>,
    direction: Direction,
    min: usize,
    max: usize,
) -> bool {
    // States are (node, depth): a walk may need to revisit a node at a
    // greater depth to satisfy `min`, so nodes are not globally marked.
    let mut seen: FxHashSet<(u64, usize)> = FxHashSet::default();
    seen.insert((from.raw(), 0));
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::from([(from, 0)]);
    while let Some((n, d)) = queue.pop_front() {
        if d >= max {
            continue;
        }
        let mut hit = false;
        g.visit_edges_dir(n, direction, &mut |e| {
            let label_ok = match label {
                None => true,
                Some(want) => e
                    .label
                    .and_then(|s| g.label_text(s))
                    .is_some_and(|t| t == want),
            };
            if !label_ok {
                return;
            }
            if e.to == to && d + 1 >= min {
                hit = true;
            }
            if seen.insert((e.to.raw(), d + 1)) {
                queue.push_back((e.to, d + 1));
            }
        });
        if hit {
            return true;
        }
    }
    false
}

/// Exact edge-property range check: every constrained key must be
/// present and inside its inclusive bounds.
pub(crate) fn edge_ranges_ok<G: AttributedView + ?Sized>(
    g: &G,
    id: gdm_core::EdgeId,
    ranges: &[(String, Option<Value>, Option<Value>)],
) -> bool {
    ranges.iter().all(|(key, low, high)| {
        g.edge_property(id, key)
            .is_some_and(|got| value_in_range(&got, low.as_ref(), high.as_ref()))
    })
}

/// Brute-force oracle: tries every injective assignment. Exponential —
/// for tests only.
pub fn match_pattern_brute<G: AttributedView + ?Sized>(g: &G, pattern: &Pattern) -> Vec<Binding> {
    if pattern.nodes.is_empty() {
        return Vec::new();
    }
    let nodes = g.node_ids();
    let mut assignment: Vec<Option<NodeId>> = vec![None; pattern.nodes.len()];
    let mut caches = MatchCaches::for_pattern(pattern);
    let mut out = Vec::new();
    brute(
        g,
        pattern,
        &nodes,
        0,
        &mut assignment,
        &mut caches,
        &mut out,
    );
    out
}

fn brute<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    nodes: &[NodeId],
    depth: usize,
    assignment: &mut Vec<Option<NodeId>>,
    caches: &mut MatchCaches,
    out: &mut Vec<Binding>,
) {
    if depth == pattern.nodes.len() {
        let ok = pattern.edges.iter().enumerate().all(|(i, e)| {
            has_edge(
                g,
                assignment[e.from].expect("complete"),
                assignment[e.to].expect("complete"),
                e,
                &mut caches.edge_labels[i],
            )
        });
        if ok {
            out.push(
                pattern
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(i, pn)| (pn.var.clone(), assignment[i].expect("complete")))
                    .collect(),
            );
        }
        return;
    }
    for &n in nodes {
        if assignment.iter().flatten().any(|&m| m == n) {
            continue;
        }
        if !node_compatible(g, &pattern.nodes[depth], n, &mut caches.node_labels[depth]) {
            continue;
        }
        assignment[depth] = Some(n);
        brute(g, pattern, nodes, depth + 1, assignment, caches, out);
        assignment[depth] = None;
    }
}

/// Canonical form of a result set for comparing matcher outputs.
pub fn canonical(bindings: &[Binding]) -> Vec<Vec<(String, u64)>> {
    let mut rows: Vec<Vec<(String, u64)>> = bindings
        .iter()
        .map(|b| {
            let mut row: Vec<(String, u64)> = b.iter().map(|(k, v)| (k.clone(), v.raw())).collect();
            row.sort();
            row
        })
        .collect();
    rows.sort();
    rows
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gdm_core::props;
    use gdm_graphs::PropertyGraph;

    /// [`match_pattern`] under an unlimited guard: the reference answer
    /// the crate's tests compare the other executors against.
    pub(crate) fn reference<G: AttributedView + ?Sized>(g: &G, p: &Pattern) -> Vec<Binding> {
        match_pattern(g, p, &ExecutionGuard::unlimited())
            .expect("an unlimited guard never interrupts")
    }

    fn triangle_with_tail() -> (PropertyGraph, Vec<NodeId>) {
        let mut g = PropertyGraph::new();
        let n: Vec<NodeId> = (0..4)
            .map(|i| {
                g.add_node(
                    if i < 3 { "person" } else { "company" },
                    props! { "i" => i },
                )
            })
            .collect();
        g.add_edge(n[0], n[1], "knows", props! {}).unwrap();
        g.add_edge(n[1], n[2], "knows", props! {}).unwrap();
        g.add_edge(n[2], n[0], "knows", props! {}).unwrap();
        g.add_edge(n[0], n[3], "works_at", props! {}).unwrap();
        (g, n)
    }

    #[test]
    fn single_node_label_match() {
        let (g, _) = triangle_with_tail();
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_label("person"));
        assert_eq!(reference(&g, &p).len(), 3);
        let mut q = Pattern::new();
        q.node(PatternNode::var("x").with_label("company"));
        assert_eq!(reference(&g, &q).len(), 1);
    }

    #[test]
    fn property_constraints() {
        let (g, n) = triangle_with_tail();
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_prop("i", 2));
        let m = reference(&g, &p);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0]["x"], n[2]);
    }

    #[test]
    fn directed_edge_pattern() {
        let (g, _) = triangle_with_tail();
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a").with_label("person"));
        let b = p.node(PatternNode::var("b").with_label("company"));
        p.edge(a, b, Some("works_at")).unwrap();
        let m = reference(&g, &p);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn triangle_pattern_finds_rotations() {
        let (g, _) = triangle_with_tail();
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a"));
        let b = p.node(PatternNode::var("b"));
        let c = p.node(PatternNode::var("c"));
        p.edge(a, b, Some("knows")).unwrap();
        p.edge(b, c, Some("knows")).unwrap();
        p.edge(c, a, Some("knows")).unwrap();
        let m = reference(&g, &p);
        assert_eq!(m.len(), 3, "three rotations of the triangle");
    }

    #[test]
    fn injectivity_prevents_node_reuse() {
        let (g, _) = triangle_with_tail();
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a"));
        let b = p.node(PatternNode::var("b"));
        // a knows b and b knows a simultaneously — triangle has no
        // 2-cycles, so no match.
        p.edge(a, b, Some("knows")).unwrap();
        p.edge(b, a, Some("knows")).unwrap();
        assert!(reference(&g, &p).is_empty());
    }

    #[test]
    fn undirected_pattern_edges() {
        let (g, _) = triangle_with_tail();
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a").with_label("company"));
        let b = p.node(PatternNode::var("b").with_label("person"));
        p.edge_undirected(a, b, Some("works_at")).unwrap();
        assert_eq!(reference(&g, &p).len(), 1);
    }

    #[test]
    fn vf2_agrees_with_brute_force() {
        let (g, _) = triangle_with_tail();
        for edges in [
            vec![(0usize, 1usize, Some("knows"))],
            vec![(0, 1, Some("knows")), (1, 2, Some("knows"))],
            vec![(0, 1, None), (1, 2, None), (2, 0, None)],
        ] {
            let mut p = Pattern::new();
            let vars: Vec<usize> = (0..3)
                .map(|i| p.node(PatternNode::var(format!("v{i}"))))
                .collect();
            for (f, t, l) in &edges {
                p.edge(vars[*f], vars[*t], *l).unwrap();
            }
            let fast = canonical(&reference(&g, &p));
            let slow = canonical(&match_pattern_brute(&g, &p));
            assert_eq!(fast, slow, "edges {edges:?}");
        }
    }

    #[test]
    fn empty_pattern_matches_nothing() {
        let (g, _) = triangle_with_tail();
        assert!(reference(&g, &Pattern::new()).is_empty());
    }

    #[test]
    fn pattern_edge_validation() {
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a"));
        assert!(p.edge(a, 7, None).is_err());
    }

    #[test]
    fn disconnected_pattern_components() {
        let (g, _) = triangle_with_tail();
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_label("company"));
        p.node(PatternNode::var("y").with_label("person"));
        // No edges: all injective (company, person) pairs.
        assert_eq!(reference(&g, &p).len(), 3);
    }
}

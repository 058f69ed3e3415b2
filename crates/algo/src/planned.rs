//! Selectivity-planned pattern matching.
//!
//! [`crate::match_pattern`] seeds its search from *all* nodes and
//! re-resolves label text per edge visited; on index-bearing graphs
//! both costs are avoidable. This module is the planned counterpart:
//! [`match_pattern_seeded`] accepts a per-variable candidate
//! **domain** (typically an index lookup produced by
//! [`gdm_core::AttributedView::candidates`]), orders variables by
//! estimated selectivity — smallest domain first, connectivity to
//! already-placed variables as the tiebreak — and picks the executor
//! from the input view: the batch pipeline of [`crate::vectorized`]
//! for CSR snapshots, the row-at-a-time search below (per-pattern
//! symbol caches, so a label comparison is one `u32` hash instead of a
//! text resolution per edge) for everything else.
//!
//! A variable-length pattern edge ([`Pattern::edge_hops`]) is an
//! operator of both executors, not a filter over finished bindings:
//! chosen as a variable's generating edge it is expanded from the bound
//! endpoint by `walk_levels`, and with both endpoints bound it is the
//! same walk stopped at the first arrival.
//!
//! Results land in a flat [`MatchTable`] (one row per match, one
//! column per pattern variable) rather than one hash map per match,
//! and the query layer finishes rows straight from it. The planned and
//! unplanned matchers always produce the same binding *set* (verified
//! by the `planned_equiv` property suite); the row order may differ
//! because the variable order does.
//!
//! Both executors charge the caller's guard the same units — one node
//! visit per candidate, one per walk frontier node, one row per match —
//! through a [`Meter`] each search (or morsel worker) owns, settled
//! before the search returns.

use crate::frozen::FrozenGraph;
use crate::pattern::{label_ok, Binding, Pattern, PatternEdge};
use crate::traverse::{walk_levels, WalkBufs};
use gdm_core::{AttributedView, Direction, FxHashMap, FxHashSet, GraphView, NodeId, Result};
use gdm_govern::{ExecutionGuard, Meter};
use std::ops::ControlFlow;

/// Per-variable candidate domains, indexed like `Pattern::nodes`.
/// `None` leaves the variable unrestricted (full scan or neighbor
/// expansion); `Some(ids)` restricts it to the listed nodes.
pub type Domains = Vec<Option<Vec<NodeId>>>;

/// A flat match result: one row per match, one column per pattern
/// node, in `Pattern::nodes` order. Equality is exact — same columns,
/// same rows, same row *order* — which is what the parallel executor's
/// byte-identity tests assert against the sequential pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchTable {
    vars: Vec<String>,
    data: Vec<NodeId>,
}

impl MatchTable {
    /// Column names, in `Pattern::nodes` order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        if self.vars.is_empty() {
            0
        } else {
            self.data.len() / self.vars.len()
        }
    }

    /// True when no match was found.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterates matches as node-id rows aligned with [`Self::vars`].
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> {
        self.data.chunks_exact(self.vars.len().max(1))
    }

    /// Match `i` as a node-id row aligned with [`Self::vars`].
    pub fn row(&self, i: usize) -> &[NodeId] {
        let width = self.vars.len();
        &self.data[i * width..(i + 1) * width]
    }

    /// Converts to the unplanned API's binding maps (tests compare
    /// match sets through it; the query layer reads the rows in place).
    pub fn to_bindings(&self) -> Vec<Binding> {
        self.rows()
            .map(|row| {
                self.vars
                    .iter()
                    .zip(row)
                    .map(|(v, &n)| (v.clone(), n))
                    .collect()
            })
            .collect()
    }

    /// Builds a table from the unplanned API's binding maps, with
    /// columns in `pattern`'s variable order — the conversion used
    /// when the planned matcher degrades to the reference path.
    pub fn from_bindings(pattern: &Pattern, bindings: &[Binding]) -> Self {
        let vars = var_names(pattern);
        let mut data = Vec::with_capacity(vars.len() * bindings.len());
        for b in bindings {
            for v in &vars {
                data.push(b[v]);
            }
        }
        MatchTable { vars, data }
    }

    /// Assembles a table directly from a flat row buffer — the
    /// vectorized executor's exit point into the planned API.
    pub(crate) fn from_parts(vars: Vec<String>, data: Vec<NodeId>) -> Self {
        debug_assert!(vars.is_empty() || data.len().is_multiple_of(vars.len()));
        MatchTable { vars, data }
    }
}

/// Column names of a result table: the pattern's variables, in order.
pub(crate) fn var_names(pattern: &Pattern) -> Vec<String> {
    pattern.nodes.iter().map(|pn| pn.var.clone()).collect()
}

/// Variable elimination order by estimated selectivity: the first
/// variable is the one with the smallest estimate; each subsequent
/// pick prefers variables connected to an already-placed one (classic
/// VF2 connectivity), breaking ties by smaller estimate, then index.
pub fn planned_order(pattern: &Pattern, estimates: &[usize]) -> Vec<usize> {
    let n = pattern.nodes.len();
    debug_assert_eq!(estimates.len(), n);
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    for step in 0..n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .min_by_key(|&i| {
                let connected = step > 0
                    && pattern
                        .edges
                        .iter()
                        .any(|e| (placed[e.from] && e.to == i) || (placed[e.to] && e.from == i));
                (!connected, estimates[i], i)
            })
            .expect("unplaced node exists");
        placed[next] = true;
        order.push(next);
    }
    order
}

/// Candidate-count estimates for ordering. A variable with a domain is
/// estimated at the domain's size; one without at its label's index
/// count ([`AttributedView::candidate_estimate`]) when it is labelled
/// and the view indexes labels, else at the graph's node count. A
/// variable-length edge then caps each endpoint at what walks from the
/// other can reach: the other's estimate × Σ (average degree)^d over
/// the hop range.
pub fn domain_estimates<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
) -> Vec<usize> {
    let own: Vec<usize> = pattern
        .nodes
        .iter()
        .enumerate()
        .map(|(i, pn)| match domains.get(i).and_then(Option::as_ref) {
            Some(domain) => domain.len(),
            None => pn
                .label
                .as_deref()
                .and_then(|label| g.candidate_estimate(Some(label), &[]))
                .unwrap_or_else(|| g.node_count()),
        })
        .collect();
    let mut estimates = own.clone();
    for e in &pattern.edges {
        let Some((min, max)) = e.hops else {
            continue;
        };
        let reach = walk_reach(average_degree(g, e.direction), min, max);
        for (near, far) in [(e.from, e.to), (e.to, e.from)] {
            estimates[far] = estimates[far].min(own[near].saturating_mul(reach));
        }
    }
    estimates
}

/// How many nodes one hop in `direction` leads to on average, at
/// least 1.
pub(crate) fn average_degree<G: GraphView + ?Sized>(g: &G, direction: Direction) -> usize {
    let degree = g.edge_count().div_ceil(g.node_count().max(1)).max(1);
    match direction {
        Direction::Both => degree * 2,
        _ => degree,
    }
}

/// Σ `degree`^d for d in `min..=max`, saturating: how many nodes the
/// walks of that hop range from one node can end at.
pub(crate) fn walk_reach(degree: usize, min: u32, max: u32) -> usize {
    if degree == 1 {
        return (max - min) as usize + 1;
    }
    let mut level = degree.saturating_pow(min);
    let mut reach = 0usize;
    for _ in min..=max {
        reach = reach.saturating_add(level);
        if reach == usize::MAX {
            break;
        }
        level = level.saturating_mul(degree);
    }
    reach
}

/// For each position of `order`, the pattern edge its variable is
/// generated along — expanded from an endpoint bound earlier in the
/// order, so only the nodes satisfying that edge are tried: a
/// single-hop edge when one joins the variable to an earlier one, else
/// a variable-length edge, else `None` (the variable is seeded from its
/// domain or a scan). Every other edge between bound variables is
/// checked per candidate.
///
/// A variable-length edge does not generate a variable whose domain
/// pins it to a single node: one walk would find every endpoint only to
/// keep that one, whereas seeding the node and checking the edge is the
/// same walk stopped at its first arrival there.
pub fn generating_edges(
    pattern: &Pattern,
    order: &[usize],
    domains: &[Option<Vec<NodeId>>],
) -> Vec<Option<usize>> {
    let mut bound = vec![false; pattern.nodes.len()];
    order
        .iter()
        .map(|&pv| {
            let joins = |e: &PatternEdge| {
                (e.to == pv && e.from != pv && bound[e.from])
                    || (e.from == pv && e.to != pv && bound[e.to])
            };
            let first = |variable_length: bool| {
                pattern
                    .edges
                    .iter()
                    .position(|e| e.hops.is_some() == variable_length && joins(e))
            };
            let pinned = matches!(domains.get(pv), Some(Some(domain)) if domain.len() <= 1);
            let generator = first(false).or_else(|| if pinned { None } else { first(true) });
            bound[pv] = true;
            generator
        })
        .collect()
}

/// The bound endpoint of generating edge `e` when it generates `pv`,
/// and the direction to follow from there.
pub(crate) fn expand_from(e: &PatternEdge, pv: usize) -> (usize, Direction) {
    if e.to == pv {
        (e.from, e.direction)
    } else {
        let dir = match e.direction {
            Direction::Outgoing => Direction::Incoming,
            other => other,
        };
        (e.to, dir)
    }
}

/// Builds domains for `pattern` from the view's own indexes: each
/// variable with property constraints an index can bound (per
/// [`AttributedView::candidate_estimate`]) gets its candidate list.
/// Everything else stays unrestricted — including a variable
/// constrained by label alone: both executors scan the view's label
/// index directly when such a variable is a root, and check the label
/// per candidate when it is expanded into, so a materialised copy of
/// the label population would only add cost that follows |V|.
pub fn auto_domains<G: AttributedView + ?Sized>(g: &G, pattern: &Pattern) -> Domains {
    pattern
        .nodes
        .iter()
        .map(|pn| {
            if pn.props.is_empty() {
                return None;
            }
            g.candidate_estimate(pn.label.as_deref(), &pn.props)
                .map(|_| g.candidates(pn.label.as_deref(), &pn.props))
        })
        .collect()
}

/// Probes index-supplied domains for consistency with the graph: a
/// secondary index that hands back a node the graph does not contain
/// is corrupt (stale entry, torn rebuild), and — since the matcher
/// only *filters* candidates — may equally be **missing** entries, so
/// its domains cannot be trusted as complete either. Returns `false`
/// on the first dangling id.
pub fn domains_consistent<G: AttributedView + ?Sized>(
    g: &G,
    domains: &[Option<Vec<NodeId>>],
) -> bool {
    domains
        .iter()
        .flatten()
        .flatten()
        .all(|&n| g.contains_node(n))
}

/// The planned pattern-matching entry point: finds all subgraph
/// matches of `pattern` in `g`, seeding each variable from its domain
/// (where given) and binding variables in [`planned_order`]. Matches
/// are injective on nodes and equal to [`crate::match_pattern`]'s as a
/// set; row order is deterministic but follows the planned order.
///
/// The executor is chosen from the input, never by the caller:
///
/// 1. Domains that fail the [`domains_consistent`] probe are discarded
///    and the reference matcher ([`crate::match_pattern`])
///    answers — it scans rather than trusts indexes: slower, never
///    wrong. So is a live view's label index when the search would
///    seed a variable from it and it fails the same probe.
/// 2. A view backed by a CSR snapshot ([`FrozenGraph`]) runs the batch
///    pipeline of [`crate::vectorized`] — on the calling thread,
///    unless the compiled plan estimates enough work to pay for
///    helper threads (at most [`crate::executor_workers`] run it then,
///    the caller included).
/// 3. Any other view is searched row-at-a-time through the
///    [`AttributedView`] trait.
///
/// Every path charges `guard` through a [`Meter`] — one node visit per
/// candidate binding attempt, one row per match — and returns the
/// structured `Interrupted` error on a trip. Ungoverned callers pass
/// [`ExecutionGuard::unlimited`]; callers without planner-supplied
/// domains pass [`auto_domains`].
pub fn match_pattern_seeded<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    guard: &ExecutionGuard,
) -> Result<MatchTable> {
    if domains_consistent(g, domains) {
        let snapshot = g
            .batch_backend()
            .and_then(|backend| backend.downcast_ref::<FrozenGraph>());
        match snapshot {
            Some(fz) => {
                return crate::vectorized::run_morsels(
                    fz,
                    pattern,
                    domains,
                    crate::parallel::executor_workers(),
                    false,
                    guard,
                )
            }
            None => {
                if let Some(table) = search_rows(g, pattern, domains, guard)? {
                    return Ok(table);
                }
            }
        }
    }
    let bindings = crate::pattern::match_pattern(g, pattern, guard)?;
    Ok(MatchTable::from_bindings(pattern, &bindings))
}

/// The row-at-a-time search for live views. `None` when the view's
/// label index, which seeds labelled variables that have no domain,
/// fails the [`domains_consistent`] probe.
fn search_rows<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    guard: &ExecutionGuard,
) -> Result<Option<MatchTable>> {
    let vars = var_names(pattern);
    if pattern.nodes.is_empty() {
        return Ok(Some(MatchTable {
            vars,
            data: Vec::new(),
        }));
    }
    let estimates = domain_estimates(g, pattern, domains);
    let order = planned_order(pattern, &estimates);
    let generators = generating_edges(pattern, &order, domains);
    // What a variable that is neither generated nor restricted is
    // seeded from: the nodes carrying its label, all nodes when it has
    // none.
    let mut scans: Domains = vec![None; pattern.nodes.len()];
    for (&pv, generator) in order.iter().zip(&generators) {
        if generator.is_none() && domains.get(pv).is_none_or(Option::is_none) {
            let label = pattern.nodes[pv].label.as_deref();
            let scan = g.candidates(label, &[]);
            if label.is_some() && !scan.iter().all(|&n| g.contains_node(n)) {
                return Ok(None);
            }
            scans[pv] = Some(scan);
        }
    }
    let domain_sets: Vec<Option<FxHashSet<u64>>> = (0..pattern.nodes.len())
        .map(|i| {
            domains
                .get(i)
                .and_then(Option::as_ref)
                .map(|d| d.iter().map(|n| n.raw()).collect())
        })
        .collect();
    let mut search = Search {
        g,
        pattern,
        order: &order,
        generators: &generators,
        domains,
        scans: &scans,
        domain_sets: &domain_sets,
        edge_label_cache: vec![FxHashMap::default(); pattern.edges.len()],
        node_label_cache: vec![FxHashMap::default(); pattern.nodes.len()],
        assignment: vec![None; pattern.nodes.len()],
        walk_marks: FxHashMap::default(),
        walk_generation: 0,
        walk_bufs: WalkBufs::default(),
        data: Vec::new(),
        meter: guard.meter(),
    };
    search.extend(0)?;
    search.meter.settle()?;
    Ok(Some(MatchTable {
        vars,
        data: search.data,
    }))
}

struct Search<'a, G: ?Sized> {
    g: &'a G,
    pattern: &'a Pattern,
    order: &'a [usize],
    /// Per position of `order`: see [`generating_edges`].
    generators: &'a [Option<usize>],
    domains: &'a [Option<Vec<NodeId>>],
    /// Seed lists of the variables `domains` leaves unrestricted and no
    /// edge generates.
    scans: &'a [Option<Vec<NodeId>>],
    domain_sets: &'a [Option<FxHashSet<u64>>],
    /// Per pattern edge: label symbol → "matches the edge's label
    /// constraint", so text is resolved once per distinct symbol.
    edge_label_cache: Vec<FxHashMap<u32, bool>>,
    /// Per pattern node: ditto for the node label constraint.
    node_label_cache: Vec<FxHashMap<u32, bool>>,
    assignment: Vec<Option<NodeId>>,
    /// Dedup store of [`walk_levels`]: node → generation it was last
    /// marked with. Generations only grow, so marks of earlier walks
    /// never collide with a later one's.
    walk_marks: FxHashMap<u64, u32>,
    walk_generation: u32,
    walk_bufs: WalkBufs<NodeId>,
    data: Vec<NodeId>,
    meter: Meter<'a>,
}

impl<G: AttributedView + ?Sized> Search<'_, G> {
    fn extend(&mut self, depth: usize) -> Result<()> {
        if depth == self.order.len() {
            self.meter.rows(1)?;
            for slot in &self.assignment {
                self.data.push(slot.expect("complete assignment"));
            }
            return Ok(());
        }
        let pv = self.order[depth];
        // Expanding along the generating edge yields exactly the nodes
        // satisfying that edge constraint, so it is skipped during the
        // consistency re-check.
        match self.generators[depth] {
            Some(ei) => {
                let candidates = self.expand(ei, pv)?;
                for n in candidates {
                    if let Some(set) = &self.domain_sets[pv] {
                        if !set.contains(&n.raw()) {
                            continue;
                        }
                    }
                    self.try_bind(depth, pv, n, Some(ei))?;
                }
            }
            None => {
                let (domains, scans) = (self.domains, self.scans);
                let seeds = domains.get(pv).and_then(|d| d.as_deref());
                let seeds = seeds.or(scans[pv].as_deref()).expect("seeded variable");
                for &n in seeds {
                    self.try_bind(depth, pv, n, None)?;
                }
            }
        }
        Ok(())
    }

    /// Distinct nodes reachable from the bound endpoint of generating
    /// edge `ei` along it — its neighbors, or for a variable-length
    /// edge the endpoints of its walks — with the edge-label
    /// constraint applied during the visit.
    fn expand(&mut self, ei: usize, pv: usize) -> Result<Vec<NodeId>> {
        let (g, pattern) = (self.g, self.pattern);
        let e = &pattern.edges[ei];
        let (bound_var, dir) = expand_from(e, pv);
        let bound = self.assignment[bound_var].expect("generator");
        let mut out = Vec::new();
        if e.hops.is_some() {
            self.walk(ei, bound, dir, |n| {
                out.push(n);
                ControlFlow::Continue(())
            })?;
            return Ok(out);
        }
        let want = e.label.as_deref();
        let ranges = &e.ranges;
        let cache = &mut self.edge_label_cache[ei];
        g.visit_edges_dir(bound, dir, &mut |er| {
            if label_ok(g, cache, want, er.label)
                && crate::pattern::edge_ranges_ok(g, er.id, ranges)
                && !out.contains(&er.to)
            {
                out.push(er.to);
            }
        });
        Ok(out)
    }

    /// Runs [`walk_levels`] for variable-length edge `ei` from `start`
    /// through the view's visitor API.
    fn walk(
        &mut self,
        ei: usize,
        start: NodeId,
        dir: Direction,
        mut emit: impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> Result<bool> {
        let (g, pattern) = (self.g, self.pattern);
        let e = &pattern.edges[ei];
        let hops = e.hops.expect("variable-length edge");
        let want = e.label.as_deref();
        if self.walk_generation > u32::MAX - hops.0 {
            self.walk_marks.clear();
            self.walk_generation = 0;
        }
        let base = self.walk_generation + 1;
        self.walk_generation += hops.0;
        let cache = &mut self.edge_label_cache[ei];
        let marks = &mut self.walk_marks;
        walk_levels(
            start,
            hops,
            &mut self.walk_bufs,
            |u, out| {
                g.visit_edges_dir(u, dir, &mut |er| {
                    if label_ok(g, cache, want, er.label) {
                        out.push(er.to);
                    }
                });
            },
            |t, level| marks.insert(t.raw(), base + level) != Some(base + level),
            &self.meter,
            |_, t, _| emit(t),
        )
    }

    fn try_bind(
        &mut self,
        depth: usize,
        pv: usize,
        n: NodeId,
        generator: Option<usize>,
    ) -> Result<()> {
        self.meter.nodes(1)?;
        if self.assignment.iter().flatten().any(|&m| m == n) {
            return Ok(()); // injectivity
        }
        if !self.node_ok(pv, n) {
            return Ok(());
        }
        self.assignment[pv] = Some(n);
        let recurse = match self.edges_consistent(pv, generator) {
            Ok(true) => self.extend(depth + 1),
            other => other.map(|_| ()),
        };
        self.assignment[pv] = None;
        recurse
    }

    fn node_ok(&mut self, pv: usize, n: NodeId) -> bool {
        let g = self.g;
        if !g.contains_node(n) {
            return false;
        }
        let pn = &self.pattern.nodes[pv];
        if pn.label.is_some() {
            let cache = &mut self.node_label_cache[pv];
            if !label_ok(g, cache, pn.label.as_deref(), g.node_label(n)) {
                return false;
            }
        }
        pn.props.iter().all(|(key, want)| {
            g.node_property(n, key)
                .is_some_and(|got| got.loose_eq(want))
        })
    }

    /// Checks every pattern edge incident to `just_placed` whose
    /// endpoints are both bound, except the generating edge (already
    /// satisfied by construction).
    fn edges_consistent(&mut self, just_placed: usize, skip: Option<usize>) -> Result<bool> {
        for ei in 0..self.pattern.edges.len() {
            if Some(ei) == skip {
                continue;
            }
            let e = &self.pattern.edges[ei];
            if e.from != just_placed && e.to != just_placed {
                continue;
            }
            let (Some(from), Some(to)) = (self.assignment[e.from], self.assignment[e.to]) else {
                continue;
            };
            if !self.has_edge(ei, from, to)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn has_edge(&mut self, ei: usize, from: NodeId, to: NodeId) -> Result<bool> {
        let (g, pattern) = (self.g, self.pattern);
        let e = &pattern.edges[ei];
        if e.hops.is_some() {
            // Both endpoints bound: the same walk, stopped at the
            // first arrival.
            let arrived = self.walk(ei, from, e.direction, |n| {
                if n == to {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })?;
            return Ok(arrived);
        }
        let want = e.label.as_deref();
        let ranges = &e.ranges;
        let cache = &mut self.edge_label_cache[ei];
        let check = |a: NodeId, b: NodeId, cache: &mut FxHashMap<u32, bool>| {
            let mut found = false;
            g.visit_out_edges(a, &mut |er| {
                if er.to == b
                    && label_ok(g, cache, want, er.label)
                    && crate::pattern::edge_ranges_ok(g, er.id, ranges)
                {
                    found = true;
                }
            });
            found
        };
        Ok(match e.direction {
            Direction::Outgoing => check(from, to, cache),
            Direction::Incoming => check(to, from, cache),
            Direction::Both => check(from, to, cache) || check(to, from, cache),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::tests::reference;
    use crate::pattern::{canonical, PatternNode};
    use gdm_core::{props, Symbol};
    use gdm_graphs::PropertyGraph;

    fn seeded<G: AttributedView + ?Sized>(g: &G, p: &Pattern, domains: &Domains) -> MatchTable {
        match_pattern_seeded(g, p, domains, &ExecutionGuard::unlimited())
            .expect("an unlimited guard never interrupts")
    }

    fn auto<G: AttributedView + ?Sized>(g: &G, p: &Pattern) -> MatchTable {
        seeded(g, p, &auto_domains(g, p))
    }

    fn community() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut nodes = Vec::new();
        for i in 0..20u64 {
            let label = if i % 4 == 0 { "company" } else { "person" };
            nodes.push(g.add_node(label, props! { "i" => i as i64, "band" => i as i64 % 3 }));
        }
        for i in 0..20usize {
            let a = nodes[i];
            let b = nodes[(i * 7 + 3) % 20];
            let c = nodes[(i * 11 + 5) % 20];
            let _ = g.add_edge(a, b, "knows", props! {});
            let _ = g.add_edge(a, c, if i % 2 == 0 { "knows" } else { "likes" }, props! {});
        }
        g
    }

    fn chain_pattern() -> Pattern {
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        let y = p.node(PatternNode::var("y").with_label("person"));
        let z = p.node(PatternNode::var("z"));
        p.edge(x, y, Some("knows")).unwrap();
        p.edge(y, z, Some("knows")).unwrap();
        p
    }

    #[test]
    fn planned_equals_unplanned_on_chain() {
        let g = community();
        let p = chain_pattern();
        let planned = auto(&g, &p);
        let unplanned = reference(&g, &p);
        assert_eq!(canonical(&planned.to_bindings()), canonical(&unplanned));
        assert_eq!(planned.len(), unplanned.len());
    }

    #[test]
    fn explicit_domains_restrict_results() {
        let g = community();
        let mut p = Pattern::new();
        p.node(PatternNode::var("x"));
        let all = seeded(&g, &p, &vec![None]);
        assert_eq!(all.len(), 20);
        let dom: Domains = vec![Some(vec![NodeId(1), NodeId(2)])];
        let some = seeded(&g, &p, &dom);
        assert_eq!(some.len(), 2);
        let rows: Vec<&[NodeId]> = some.rows().collect();
        assert_eq!(rows[0], &[NodeId(1)]);
        assert_eq!(rows[1], &[NodeId(2)]);
    }

    #[test]
    fn domains_apply_to_expanded_variables_too() {
        let g = community();
        let p = chain_pattern();
        // Restrict z to a single node; every surviving row must bind
        // z there, and the rows must be a subset of the unrestricted
        // result.
        let z_only = NodeId(3);
        let dom: Domains = vec![None, None, Some(vec![z_only])];
        let restricted = seeded(&g, &p, &dom);
        let full = canonical(&reference(&g, &p));
        for row in restricted.rows() {
            assert_eq!(row[2], z_only);
        }
        let restricted_canon = canonical(&restricted.to_bindings());
        for r in &restricted_canon {
            assert!(full.contains(r));
        }
    }

    #[test]
    fn selectivity_order_puts_smallest_domain_first() {
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a"));
        let b = p.node(PatternNode::var("b"));
        let c = p.node(PatternNode::var("c"));
        p.edge(a, b, None).unwrap();
        p.edge(b, c, None).unwrap();
        let order = planned_order(&p, &[100, 50, 3]);
        assert_eq!(order[0], 2, "smallest estimate first");
        assert_eq!(order[1], 1, "then its pattern neighbor");
        assert_eq!(order[2], 0);
    }

    #[test]
    fn connectivity_beats_selectivity_after_the_root() {
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a"));
        let b = p.node(PatternNode::var("b"));
        let c = p.node(PatternNode::var("c"));
        p.edge(a, b, None).unwrap();
        // c is disconnected and tiny; it still goes last because b is
        // connected to the placed a.
        let order = planned_order(&p, &[1, 100, 2]);
        assert_eq!(order, vec![0, 1, 2]);
        let _ = c;
    }

    #[test]
    fn empty_pattern_and_empty_table() {
        let g = community();
        let table = seeded(&g, &Pattern::new(), &Vec::new());
        assert_eq!(table.len(), 0);
        assert!(table.is_empty());
        assert!(table.to_bindings().is_empty());
    }

    #[test]
    fn table_round_trips_to_bindings() {
        let g = community();
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("company"));
        let y = p.node(PatternNode::var("y"));
        p.edge(x, y, Some("knows")).unwrap();
        let table = auto(&g, &p);
        assert_eq!(table.vars(), &["x".to_owned(), "y".to_owned()]);
        let bindings = table.to_bindings();
        assert_eq!(bindings.len(), table.len());
        for (row, b) in table.rows().zip(&bindings) {
            assert_eq!(b["x"], row[0]);
            assert_eq!(b["y"], row[1]);
        }
    }

    /// A view whose index lies: `candidate_estimate` claims coverage
    /// and `candidates` hands back a dangling node id — the corrupt
    /// secondary index the degradation ladder must survive.
    struct LyingIndex(PropertyGraph);

    impl gdm_core::GraphView for LyingIndex {
        fn is_directed(&self) -> bool {
            self.0.is_directed()
        }
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn edge_count(&self) -> usize {
            self.0.edge_count()
        }
        fn contains_node(&self, n: NodeId) -> bool {
            self.0.contains_node(n)
        }
        fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
            self.0.visit_nodes(f)
        }
        fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(gdm_core::EdgeRef)) {
            self.0.visit_out_edges(n, f)
        }
        fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(gdm_core::EdgeRef)) {
            self.0.visit_in_edges(n, f)
        }
        fn label_text(&self, sym: Symbol) -> Option<&str> {
            self.0.label_text(sym)
        }
    }

    impl AttributedView for LyingIndex {
        fn node_label(&self, n: NodeId) -> Option<Symbol> {
            self.0.node_label(n)
        }
        fn node_property(&self, n: NodeId, key: &str) -> Option<gdm_core::Value> {
            self.0.node_property(n, key)
        }
        fn edge_property(&self, e: gdm_core::EdgeId, key: &str) -> Option<gdm_core::Value> {
            self.0.edge_property(e, key)
        }
        fn candidates(
            &self,
            _label: Option<&str>,
            _props: &[(String, gdm_core::Value)],
        ) -> Vec<NodeId> {
            vec![NodeId(u64::MAX)] // stale entry for a node that never existed
        }
        fn candidate_estimate(
            &self,
            _label: Option<&str>,
            _props: &[(String, gdm_core::Value)],
        ) -> Option<usize> {
            Some(1)
        }
    }

    #[test]
    fn inconsistent_index_falls_back_to_reference_matcher() {
        let g = LyingIndex(community());
        // With `y` constrained by label alone no domain is materialised,
        // but the live search would seed `y` from the lying label index:
        // the same probe catches that.
        let label_only = chain_pattern();
        assert!(domains_consistent(&g, &auto_domains(&g, &label_only)));
        assert_eq!(
            canonical(&auto(&g, &label_only).to_bindings()),
            canonical(&reference(&g.0, &label_only))
        );
        let mut p = label_only;
        p.nodes[0].props.push(("band".into(), 1.into()));
        let domains = auto_domains(&g, &p);
        assert!(!domains_consistent(&g, &domains));
        // Trusting the lying index would return zero matches; the
        // fallback answers from the reference scan instead.
        let via_auto = auto(&g, &p);
        let reference = reference(&g.0, &p);
        assert!(!reference.is_empty());
        assert_eq!(canonical(&via_auto.to_bindings()), canonical(&reference));
        // The probe comes before executor selection: a snapshot handed
        // the same dangling domain degrades the same way.
        let fz = FrozenGraph::freeze(&g.0);
        let via_snapshot = seeded(&fz, &p, &domains);
        assert_eq!(
            canonical(&via_snapshot.to_bindings()),
            canonical(&reference)
        );
    }

    #[test]
    fn governed_planned_interrupts_on_tiny_budget() {
        let g = community();
        let p = chain_pattern();
        let guard = ExecutionGuard::new(gdm_govern::Limits::none().with_node_visits(1));
        let err = match_pattern_seeded(&g, &p, &auto_domains(&g, &p), &guard).unwrap_err();
        assert!(err.is_interrupted());
    }

    #[test]
    fn loose_numeric_property_constraints_match() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("n", props! { "v" => 3 });
        let b = g.add_node("n", props! { "v" => 3.0 });
        g.add_node("n", props! { "v" => 4 });
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_prop("v", 3.0));
        let planned = auto(&g, &p);
        let unplanned = reference(&g, &p);
        assert_eq!(canonical(&planned.to_bindings()), canonical(&unplanned));
        assert_eq!(planned.len(), 2);
        let bound: Vec<NodeId> = planned.rows().map(|r| r[0]).collect();
        assert!(bound.contains(&a) && bound.contains(&b));
    }
}

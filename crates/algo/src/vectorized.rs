//! Vectorized batch-at-a-time pattern matching over the CSR snapshot.
//!
//! The row-at-a-time search in [`crate::planned`] reaches a graph
//! through the generic [`gdm_core::AttributedView`] trait: every
//! candidate costs a virtual call and a `NodeId`-keyed hash-set probe.
//! This module is the columnar counterpart in the MonetDB/GraphBLAS
//! style, and what [`crate::match_pattern_seeded`] runs whenever its
//! input is a [`FrozenGraph`]: operators consume and produce **batches
//! of dense `u32` ids** ([`BATCH`] rows at a time) directly against
//! the snapshot's CSR arrays, so the inner loops are array indexing
//! over integer columns with no dynamic dispatch at all (DESIGN.md
//! §13).
//!
//! The operator set mirrors a classic batch pipeline:
//!
//! * **label scan** — a variable constrained only by label seeds
//!   straight from the `nodes_with_label` slice (the planner
//!   materialises no domain for it);
//! * **index seed** — planner-supplied domains (equality lookups)
//!   arrive as dense selection vectors;
//! * **batched expand** — the generating pattern edge is expanded by
//!   walking `out_targets`/`in_targets` runs, deduplicating per source
//!   row with a reusable stamp array (no per-row allocation);
//! * **walk expand** — a variable-length generating edge is expanded by
//!   `walk_levels`: a depth-bounded, level-synchronous frontier
//!   expansion over the forward runs from a bound `from` (the reverse
//!   runs from a bound `to`), deduplicated with the same stamp array,
//!   emitting each distinct endpoint once per source row. The
//!   variable's domain filters what is emitted, never what is walked
//!   through. With both endpoints bound the same walk is a residual
//!   check that stops at the first arrival;
//! * **residual filter** — label symbols (pre-resolved once per query
//!   against the snapshot's interner, so the batch loop compares
//!   `u32`s), property equality, injectivity, and non-generator edge
//!   checks run over the batch columns in place;
//! * **materialize** — surviving rows append to a flat buffer that
//!   exits as a [`MatchTable`], the planned API's result type.
//!
//! Search order is depth-first at *batch* granularity: a child batch
//! is flushed into the next operator once it holds [`BATCH`] rows (at
//! the next source-row boundary, so it can overshoot by one row's
//! fan-out), which keeps memory bounded by `depth × (BATCH + max
//! degree)` regardless of result size.
//!
//! **Morsels.** `run_morsels` is the pipeline's only entry. It
//! compiles one `BatchPlan`, and the plan decides — before paying for
//! anything — where it runs. Its estimate of the candidates it will
//! visit (exact root seed count × per-depth fan-out, from the order,
//! generators and domains it already holds) is put to
//! `crate::parallel::admitted_workers`; every point query and every
//! community-sized scan stays under that bar and runs once over the
//! whole root domain on the calling thread. An admitted plan hands its
//! root seeds — index ranges over the borrowed domain list, label slice
//! or dense range, never a copy — to `crate::parallel::fan_out` as
//! fixed-size **morsels** (in the morsel-driven style of HyPer): the
//! calling thread claims morsels from the shared cursor at once, and
//! whatever helper threads the process-wide cap has free join it. Each
//! worker runs the *full* operator chain morsel by morsel into its own
//! buffers. Sequential execution is the one-worker case, not a separate
//! path.
//!
//! **Determinism.** Every worker executes the *same* compiled plan, so
//! the elimination order, domain bitsets, and resolved label symbols
//! cannot diverge, and the pipeline's emission order is a function of
//! root seed order alone — batch boundaries split but never reorder
//! the candidate stream, and the depth-first recursion drains a prefix
//! of seeds completely before touching its suffix. Workers tag each
//! result buffer with its morsel index and the reducer concatenates in
//! morsel order: the output is **byte identical** for every worker
//! count, not merely set-equal (the `planned_equiv` suite asserts
//! exactly this).
//!
//! **Equivalence.** The pipeline binds variables in exactly
//! [`planned_order`] and applies exactly the row-at-a-time search's
//! constraint checks, so its result equals the oracle
//! [`crate::match_pattern`]'s as a set (the `planned_equiv` property
//! suite proves snapshot ≡ live ≡ oracle). Row order may differ from
//! the live search: batching reorders siblings, never membership.
//!
//! **Governance.** Every worker — the calling thread of an inline run
//! included — charges its own [`Meter`]: a candidate batch is one
//! charge of its size at the residual filter, an emitted batch one
//! charge of its rows, and a walk one node visit per frontier node it
//! expands, so a budget or deadline stops it mid-level (the endpoints
//! it emits are then charged with their batch like any other
//! candidates). The meter reaches the shared guard once per
//! [`gdm_govern::CHECK_INTERVAL`] units and at every morsel boundary,
//! so N workers do not serialize on the guard's atomics, and limits
//! are observed at those settles. A trip aborts the morsel queue,
//! every worker settles its counts, and the caller receives the same
//! structured [`GdmError::Interrupted`] the row-at-a-time search
//! returns, with `partial` covering rows from *all* workers.
//!
//! **Panic isolation.** The driver runs each worker body — the calling
//! thread's share too — inside `catch_unwind`; a poisoned morsel
//! discards the attempt and the query is recomputed inline on the
//! calling thread — the first rung of the governor's degradation ladder
//! (DESIGN.md §11).

use crate::frozen::{prop, FrozenGraph};
use crate::parallel::{admitted_workers, fan_out, in_morsel_order};
use crate::pattern::{value_in_range, Pattern};
use crate::planned::{
    average_degree, domain_estimates, expand_from, generating_edges, planned_order, var_names,
    walk_reach, MatchTable,
};
use crate::traverse::{walk_levels, WalkBufs};
use gdm_core::{Direction, GdmError, GraphView, NodeId, Result, Symbol, Value};
use gdm_govern::{ExecutionGuard, Meter};
use std::cell::RefCell;
use std::ops::{ControlFlow, Range};

/// Rows per batch. Large enough to amortize per-batch costs (meter
/// charge, recursion) to noise; small enough that a working set of
/// `pattern depth × BATCH × 4` bytes stays cache-resident.
pub const BATCH: usize = 1024;

/// A label constraint pre-resolved against the snapshot's interner.
#[derive(Clone, Copy, PartialEq)]
enum Want {
    /// No constraint.
    Any,
    /// Constraint names a label the snapshot never interned: nothing
    /// can match.
    Impossible,
    /// Must carry exactly this symbol (compare `u32`s, never text).
    Sym(Symbol),
}

impl Want {
    fn resolve(fz: &FrozenGraph, want: Option<&str>) -> Want {
        match want {
            None => Want::Any,
            Some(text) => fz.label_symbol(text).map_or(Want::Impossible, Want::Sym),
        }
    }

    #[inline]
    fn accepts(self, sym: Option<Symbol>) -> bool {
        match self {
            Want::Any => true,
            Want::Impossible => false,
            Want::Sym(want) => sym == Some(want),
        }
    }
}

/// A batch of partial matches: one `u32` dense-id column per *bound*
/// pattern variable (unbound columns stay empty), `len` rows.
struct Frame {
    cols: Vec<Vec<u32>>,
    len: usize,
}

impl Frame {
    fn root(vars: usize) -> Frame {
        // One virtual row binding nothing: the depth-0 seed operator
        // crosses it with the first variable's candidate list.
        Frame {
            cols: vec![Vec::new(); vars],
            len: 1,
        }
    }
}

/// Test hook: [`run_morsels`] with an explicit worker count, admission
/// skipped and the process-wide helper cap lifted, so tiny
/// property-test graphs on any machine still exercise the real morsel
/// machinery (cursor, helper threads, worker meters, merge) — and
/// `workers = 1` pins the inline run the morsel output must equal. Not
/// part of the public API surface; everything else calls
/// [`crate::match_pattern_seeded`].
#[doc(hidden)]
pub fn match_pattern_forced_morsels(
    fz: &FrozenGraph,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    workers: usize,
    guard: &ExecutionGuard,
) -> Result<MatchTable> {
    run_morsels(fz, pattern, domains, workers, true, guard)
}

/// Compiles and executes one match (module docs). `force` bypasses
/// admission and the helper cap (tests).
pub(crate) fn run_morsels(
    fz: &FrozenGraph,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    workers: usize,
    force: bool,
    guard: &ExecutionGuard,
) -> Result<MatchTable> {
    let vars = var_names(pattern);
    if pattern.nodes.is_empty() {
        return Ok(MatchTable::from_parts(vars, Vec::new()));
    }
    // Compiled once, shared read-only by every worker: all morsels see
    // the same elimination order, domain bitsets, and label symbols.
    let plan = BatchPlan::compile(fz, pattern, domains);
    let data = plan.run_morsels(workers, force, guard)?;
    Ok(MatchTable::from_parts(vars, data))
}

/// Everything about a vectorized match that depends only on the
/// (snapshot, pattern, domains) triple: the elimination order, the
/// per-depth generator/residual schedule, pre-resolved label symbols,
/// and the domain selection vectors/bitsets. Compiled once and then
/// shared read-only — by one inline [`BatchPlan::run`] over the whole
/// root domain, or by every morsel worker over root sub-ranges, which
/// is what guarantees all morsels see the *same* plan.
struct BatchPlan<'a> {
    fz: &'a FrozenGraph,
    pattern: &'a Pattern,
    order: Vec<usize>,
    generators: Vec<Option<usize>>,
    residual_edges: Vec<Vec<usize>>,
    node_want: Vec<Want>,
    edge_want: Vec<Want>,
    /// Each pattern node's property-equality constraints, keys resolved
    /// against the snapshot's key interner (`None`: a key no frozen node
    /// carries, which nothing satisfies).
    node_props: Vec<Vec<(Option<Symbol>, &'a Value)>>,
    /// Each pattern edge's range constraints, keys resolved the same
    /// way.
    edge_ranges: Vec<Vec<EdgeRange<'a>>>,
    dom_list: Vec<Option<Vec<u32>>>,
    /// Domain membership bitsets — of the variables an edge generates
    /// only: a seeded variable scans its `dom_list` and never probes.
    dom_bits: Vec<Option<Vec<u64>>>,
}

/// One resolved edge-property range constraint: `(key, low, high)`.
type EdgeRange<'a> = (Option<Symbol>, Option<&'a Value>, Option<&'a Value>);

/// The candidates of a seeded variable, borrowed from wherever they
/// already live — a domain list, the snapshot's label index, or just
/// the dense range — so deciding how to run a query copies nothing
/// that follows |V|. Morsels are index sub-ranges of one of these.
#[derive(Clone)]
enum Seeds<'a> {
    List(&'a [u32]),
    Dense(Range<u32>),
}

impl<'a> Seeds<'a> {
    fn len(&self) -> usize {
        match self {
            Seeds::List(list) => list.len(),
            Seeds::Dense(range) => range.len(),
        }
    }

    /// The seeds at positions `at` of this list, in the same order.
    fn slice(&self, at: Range<usize>) -> Seeds<'a> {
        match self {
            Seeds::List(list) => Seeds::List(&list[at]),
            Seeds::Dense(range) => {
                Seeds::Dense(range.start + at.start as u32..range.start + at.end as u32)
            }
        }
    }

    fn append_to(&self, vals: &mut Vec<u32>) {
        match self {
            Seeds::List(list) => vals.extend_from_slice(list),
            Seeds::Dense(range) => vals.extend(range.clone()),
        }
    }
}

/// Per-thread search scratch: the dense-indexed dedup stamp array and
/// the walk buffers. It lives in a thread-local and is reused by every
/// execution on the thread — a node is marked iff its stamp equals a
/// generation handed out by [`Self::generations`], and generations only
/// grow, so stamps left behind by earlier executions (on this or any
/// other snapshot) never read as marks and nothing is zeroed per query.
#[derive(Default)]
struct BatchScratch {
    stamp: Vec<u32>,
    stamp_gen: u32,
    walk: WalkBufs<u32>,
}

thread_local! {
    static SCRATCH: RefCell<BatchScratch> = RefCell::default();
}

impl BatchScratch {
    /// Runs `f` with this thread's scratch, grown to cover `fz`.
    fn with<R>(fz: &FrozenGraph, f: impl FnOnce(&mut BatchScratch) -> R) -> R {
        SCRATCH.with_borrow_mut(|scratch| {
            if scratch.stamp.is_empty() {
                // A thread's first array comes from `alloc_zeroed`, so
                // pages no search stamps are never faulted in — a
                // scoped helper is always a new thread, and `resize`
                // would write all |V| words for it.
                scratch.stamp = vec![0; fz.len()];
            } else if scratch.stamp.len() < fz.len() {
                scratch.stamp.resize(fz.len(), 0);
            }
            f(scratch)
        })
    }

    /// Reserves `k` fresh consecutive generations and returns the
    /// first. Stamps are zeroed only when the counter would wrap.
    fn generations(&mut self, k: u32) -> u32 {
        if self.stamp_gen > u32::MAX - k {
            self.stamp.fill(0);
            self.stamp_gen = 0;
        }
        let first = self.stamp_gen + 1;
        self.stamp_gen += k;
        first
    }
}

impl<'a> BatchPlan<'a> {
    /// Compiles the static plan. Callers must have rejected empty
    /// patterns already ([`planned_order`] needs at least one node).
    fn compile(
        fz: &'a FrozenGraph,
        pattern: &'a Pattern,
        domains: &[Option<Vec<NodeId>>],
    ) -> BatchPlan<'a> {
        let estimates = domain_estimates(fz, pattern, domains);
        let order = planned_order(pattern, &estimates);
        let n_vars = pattern.nodes.len();

        // Selection vectors: planner domains mapped to dense positions
        // (ids the snapshot never held simply drop out — the planned
        // matcher rejects them via `contains_node` the same way).
        let dom_list: Vec<Option<Vec<u32>>> = (0..n_vars)
            .map(|i| {
                domains.get(i).and_then(Option::as_ref).map(|d| {
                    d.iter()
                        .filter_map(|n| fz.dense_of(*n))
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        // Labels resolved once per query; the batch loops compare
        // symbols.
        let node_want: Vec<Want> = pattern
            .nodes
            .iter()
            .map(|pn| Want::resolve(fz, pn.label.as_deref()))
            .collect();
        let edge_want: Vec<Want> = pattern
            .edges
            .iter()
            .map(|pe| Want::resolve(fz, pe.label.as_deref()))
            .collect();
        // Property keys resolved once per query too; the batch loops
        // compare key symbols.
        let node_props = pattern
            .nodes
            .iter()
            .map(|pn| {
                pn.props
                    .iter()
                    .map(|(key, value)| (fz.key_symbol(key), value))
                    .collect()
            })
            .collect();
        let edge_ranges = pattern
            .edges
            .iter()
            .map(|pe| {
                pe.ranges
                    .iter()
                    .map(|(key, low, high)| (fz.key_symbol(key), low.as_ref(), high.as_ref()))
                    .collect()
            })
            .collect();

        // Static per-depth plan: with a fixed elimination order, the
        // bound set at each depth is `order[..depth]`, so the
        // generating edge and the residual edge checks are knowable up
        // front instead of per candidate.
        let generators = generating_edges(pattern, &order, domains);
        // A bitset per restricted *generated* variable, for O(1)
        // membership during expansion. A seeded one — the root of every
        // point query — scans its list instead, and |V| / 8 zeroed bytes
        // per request would be the only part of its cost following |V|.
        let words = fz.len().div_ceil(64);
        let mut dom_bits: Vec<Option<Vec<u64>>> = vec![None; n_vars];
        for (&pv, generator) in order.iter().zip(&generators) {
            if let (Some(_), Some(list)) = (generator, &dom_list[pv]) {
                let mut bits = vec![0u64; words];
                for &dense in list {
                    bits[dense as usize / 64] |= 1 << (dense % 64);
                }
                dom_bits[pv] = Some(bits);
            }
        }
        let mut bound = vec![false; n_vars];
        let mut residual_edges: Vec<Vec<usize>> = Vec::with_capacity(order.len());
        for (&pv, &generator) in order.iter().zip(&generators) {
            bound[pv] = true;
            let checks = pattern
                .edges
                .iter()
                .enumerate()
                .filter(|&(ei, e)| {
                    Some(ei) != generator
                        && (e.from == pv || e.to == pv)
                        && bound[e.from]
                        && bound[e.to]
                })
                .map(|(ei, _)| ei)
                .collect();
            residual_edges.push(checks);
        }

        BatchPlan {
            fz,
            pattern,
            order,
            generators,
            residual_edges,
            node_want,
            edge_want,
            node_props,
            edge_ranges,
            dom_list,
            dom_bits,
        }
    }

    /// The candidates of seeded variable `pv`, in the exact order the
    /// seed operator scans them: the domain selection vector when the
    /// planner supplied one, else the label index slice when the
    /// variable is labelled, else every dense position.
    fn seeds(&self, pv: usize) -> Seeds<'_> {
        match (&self.dom_list[pv], self.node_want[pv]) {
            (_, Want::Impossible) => Seeds::List(&[]),
            (Some(list), _) => Seeds::List(list),
            (None, Want::Sym(sym)) => Seeds::List(self.fz.nodes_with_label(sym)),
            (None, Want::Any) => Seeds::Dense(0..self.fz.len() as u32),
        }
    }

    /// How many candidates the search is expected to visit, from what
    /// the plan already holds: the root's exact seed count, then per
    /// depth the rows so far × that depth's fan-out — the average
    /// degree along a single-hop generator, [`walk_reach`] along a
    /// variable-length one, the seed count of a seeded variable.
    /// Label, property and domain filters are ignored, so it errs high.
    fn estimated_visits(&self) -> usize {
        let mut rows = 1usize;
        let mut visits = 0usize;
        for (&pv, &generator) in self.order.iter().zip(&self.generators) {
            let fan_out = match generator.map(|ei| &self.pattern.edges[ei]) {
                None => self.seeds(pv).len(),
                Some(e) => {
                    let degree = average_degree(self.fz, e.direction);
                    e.hops
                        .map_or(degree, |(min, max)| walk_reach(degree, min, max))
                }
            };
            rows = rows.saturating_mul(fan_out);
            visits = visits.saturating_add(rows);
        }
        visits
    }

    /// Runs the full operator chain — seed, batched expand, residual
    /// filter, materialize — and returns the flat result data
    /// (`n_vars` node ids per row). `root_seeds` restricts the root
    /// seed operator to a sub-range (one morsel); `None` scans the
    /// whole root domain. Everything is charged to `meter` and settled
    /// before the data is returned.
    fn run(
        &self,
        root_seeds: Option<Seeds<'_>>,
        scratch: &mut BatchScratch,
        meter: &Meter,
    ) -> Result<Vec<NodeId>> {
        let mut search = VecSearch {
            plan: self,
            root_seeds,
            scratch,
            data: Vec::new(),
            meter,
        };
        search.step(0, &Frame::root(self.pattern.nodes.len()))?;
        meter.settle()?;
        Ok(search.data)
    }

    /// Runs the plan over its whole root domain on the calling thread.
    fn run_inline(&self, guard: &ExecutionGuard) -> Result<Vec<NodeId>> {
        BatchScratch::with(self.fz, |scratch| self.run(None, scratch, &guard.meter()))
    }

    /// Executes the plan on up to `workers` threads — if it is worth
    /// any — and returns the flat result data, byte-identical to
    /// [`Self::run_inline`]. Deciding costs nothing that follows the
    /// graph: a query stays on the calling thread unless
    /// [`Self::estimated_visits`] admits it ([`admitted_workers`]) or
    /// `force` is set; an admitted one cuts its root seeds into
    /// morsels for [`fan_out`], where the calling thread claims morsels
    /// alongside whatever helpers the process has free.
    fn run_morsels(
        &self,
        workers: usize,
        force: bool,
        guard: &ExecutionGuard,
    ) -> Result<Vec<NodeId>> {
        let seeds = self.seeds(self.order[0]);
        let workers = if force {
            workers
        } else {
            admitted_workers(workers, self.estimated_visits())
        };
        if workers.min(seeds.len()) <= 1 {
            return self.run_inline(guard);
        }

        // Per worker: (morsel index, flat rows) pairs, and the trip
        // that stopped it, if one did.
        let harvests = fan_out(seeds.len(), workers, force, |morsels| {
            BatchScratch::with(self.fz, |scratch| {
                // Each worker charges its own meter; a run settles it at
                // every morsel boundary.
                let meter = guard.meter();
                let mut out: Vec<(usize, Vec<NodeId>)> = Vec::new();
                while let Some((m, at)) = morsels.claim() {
                    match self.run(Some(seeds.slice(at)), scratch, &meter) {
                        Ok(data) => out.push((m, data)),
                        Err(e) => {
                            morsels.abort();
                            return (out, Some(e));
                        }
                    }
                }
                (out, None)
            })
        });
        let Some(harvests) = harvests else {
            // A lost worker means lost morsels; discard the attempt and
            // recompute inline on the calling thread. The rerun
            // re-charges work the lost attempt already drew —
            // degradation trades budget precision for a correct answer,
            // never the reverse.
            return self.run_inline(guard);
        };

        let (parts, trips): (Vec<_>, Vec<_>) = harvests.into_iter().unzip();
        if let Some(e) = trips.into_iter().flatten().next() {
            // Re-wrap after every worker settled: the partial row count
            // then covers rows emitted by all workers, not just the one
            // that tripped first.
            return Err(match e.interrupt_reason() {
                Some(reason) => GdmError::interrupted(reason, guard.budget().rows_emitted()),
                None => e,
            });
        }
        // Morsel order is seed order, and per-morsel output equals the
        // inline run's output for that seed range, so this concatenation
        // is byte-identical to an inline run over the full seed list.
        let mut data = Vec::with_capacity(parts.iter().flatten().map(|(_, d)| d.len()).sum());
        in_morsel_order(parts).for_each(|part| data.extend(part));
        Ok(data)
    }
}

/// Which CSR sides a traversal in direction `dir` reads: (forward,
/// reverse). An undirected snapshot's forward runs already hold every
/// incident edge.
fn csr_sides(dir: Direction, directed: bool) -> (bool, bool) {
    match dir {
        Direction::Outgoing => (true, false),
        Direction::Incoming => (false, true),
        Direction::Both => (true, directed),
    }
}

struct VecSearch<'a> {
    plan: &'a BatchPlan<'a>,
    /// Root seed sub-range override (morsel execution); `None` scans
    /// the plan's whole root domain.
    root_seeds: Option<Seeds<'a>>,
    /// The thread's dedup marks and walk buffers: a node is a
    /// duplicate within one source row's expansion (or one level of a
    /// walk) iff its stamp equals that expansion's generation.
    scratch: &'a mut BatchScratch,
    /// Flat result buffer, `n_vars` node ids per row in pattern
    /// variable order.
    data: Vec<NodeId>,
    meter: &'a Meter<'a>,
}

impl VecSearch<'_> {
    /// Runs the operator for depth `depth` over one input batch.
    fn step(&mut self, depth: usize, frame: &Frame) -> Result<()> {
        if depth == self.plan.order.len() {
            return self.emit(frame);
        }
        let pv = self.plan.order[depth];
        if self.plan.node_want[pv] == Want::Impossible {
            return Ok(());
        }

        // The child batch being filled: parent row index + candidate value.
        let mut sel: Vec<u32> = Vec::with_capacity(BATCH);
        let mut vals: Vec<u32> = Vec::with_capacity(BATCH);

        match self.plan.generators[depth] {
            Some(ei) => {
                if self.plan.edge_want[ei] == Want::Impossible {
                    return Ok(());
                }
                for row in 0..frame.len {
                    self.expand_row(pv, ei, frame, row, &mut sel, &mut vals)?;
                    // Flush between source rows only: the child batch's
                    // own expansions and walks reuse the dedup stamps,
                    // so running them mid-row would corrupt this row's
                    // marks. A batch may therefore overshoot BATCH by
                    // one row's fan-out.
                    if vals.len() >= BATCH {
                        self.flush(depth, pv, frame, &mut sel, &mut vals)?;
                    }
                }
            }
            None => {
                // Seed operator: the morsel's root sub-range at depth
                // 0 when one was supplied, else the variable's seeds.
                let plan = self.plan;
                let seeds = match (depth, &self.root_seeds) {
                    (0, Some(morsel)) => morsel.clone(),
                    _ => plan.seeds(pv),
                };
                for row in 0..frame.len {
                    for at in (0..seeds.len()).step_by(BATCH) {
                        // The seed list is independent of the row, so
                        // whole chunks flush without the fill loop.
                        sel.clear();
                        vals.clear();
                        seeds
                            .slice(at..(at + BATCH).min(seeds.len()))
                            .append_to(&mut vals);
                        sel.resize(vals.len(), row as u32);
                        self.flush(depth, pv, frame, &mut sel, &mut vals)?;
                    }
                }
                return Ok(());
            }
        }
        if !vals.is_empty() {
            self.flush(depth, pv, frame, &mut sel, &mut vals)?;
        }
        Ok(())
    }

    /// Batched expand: pushes the label/range-qualified, deduplicated,
    /// in-domain nodes generating edge `ei` leads to from `row`'s bound
    /// endpoint into the pending batch — the targets of its CSR runs,
    /// or for a variable-length edge the endpoints of its walks.
    fn expand_row(
        &mut self,
        pv: usize,
        ei: usize,
        frame: &Frame,
        row: usize,
        sel: &mut Vec<u32>,
        vals: &mut Vec<u32>,
    ) -> Result<()> {
        let plan = self.plan;
        let e = &plan.pattern.edges[ei];
        let (bound_var, dir) = expand_from(e, pv);
        let bound = frame.cols[bound_var][row];

        if e.hops.is_some() {
            let bits = plan.dom_bits[pv].as_deref();
            self.walk(ei, bound, dir, |target| {
                // The domain restricts where a walk may end, not where
                // it may pass.
                if bits.is_none_or(|bits| bits[target as usize / 64] & (1 << (target % 64)) != 0) {
                    sel.push(row as u32);
                    vals.push(target);
                }
                ControlFlow::Continue(())
            })?;
            return Ok(());
        }

        // New dedup generation for this source row.
        let gen = self.scratch.generations(1);
        let (fwd, rev) = csr_sides(dir, plan.fz.is_directed());
        if fwd {
            self.expand_run(pv, ei, row, bound, false, gen, sel, vals);
        }
        if rev {
            self.expand_run(pv, ei, row, bound, true, gen, sel, vals);
        }
        Ok(())
    }

    /// Runs [`walk_levels`] for variable-length edge `ei` from dense
    /// position `start` over the CSR runs: forward runs for an outgoing
    /// walk, reverse runs for an incoming one, both for `Both`.
    fn walk(
        &mut self,
        ei: usize,
        start: u32,
        dir: Direction,
        mut emit: impl FnMut(u32) -> ControlFlow<()>,
    ) -> Result<bool> {
        let fz = self.plan.fz;
        let hops = self.plan.pattern.edges[ei]
            .hops
            .expect("variable-length edge");
        let want = self.plan.edge_want[ei];
        let (fwd, rev) = csr_sides(dir, fz.is_directed());
        let first = self.scratch.generations(hops.0);
        let BatchScratch { stamp, walk, .. } = &mut *self.scratch;
        walk_levels(
            start,
            hops,
            walk,
            |u, out| {
                for (follow, csr) in [(fwd, &fz.fwd), (rev, &fz.rev)] {
                    if follow {
                        let run = csr.run(u);
                        for (&target, &label) in run.targets.iter().zip(run.labels) {
                            if want.accepts(label) {
                                out.push(target);
                            }
                        }
                    }
                }
            },
            |target, level| {
                let stamp = &mut stamp[target as usize];
                let fresh = *stamp != first + level;
                *stamp = first + level;
                fresh
            },
            self.meter,
            |_, target, _| emit(target),
        )
    }

    /// One CSR run (forward or reverse) of the batched expand.
    #[allow(clippy::too_many_arguments)]
    fn expand_run(
        &mut self,
        pv: usize,
        ei: usize,
        row: usize,
        bound: u32,
        reverse: bool,
        gen: u32,
        sel: &mut Vec<u32>,
        vals: &mut Vec<u32>,
    ) {
        let want = self.plan.edge_want[ei];
        let ranged = !self.plan.edge_ranges[ei].is_empty();
        let csr = if reverse {
            &self.plan.fz.rev
        } else {
            &self.plan.fz.fwd
        };
        let bits = self.plan.dom_bits[pv].as_deref();
        let run = csr.run(bound);
        for pos in 0..run.targets.len() {
            if !want.accepts(run.labels[pos]) {
                continue;
            }
            if ranged && !self.edge_props_in_ranges(run.edge_ids[pos].raw(), ei) {
                continue;
            }
            let target = run.targets[pos];
            if self.scratch.stamp[target as usize] == gen {
                continue; // parallel-edge duplicate within this row
            }
            self.scratch.stamp[target as usize] = gen;
            if let Some(bits) = bits {
                if bits[target as usize / 64] & (1 << (target % 64)) == 0 {
                    continue; // outside the variable's domain
                }
            }
            sel.push(row as u32);
            vals.push(target);
        }
    }

    /// Residual filter + recurse: charges the meter for the candidate
    /// batch, filters it in place against the node constraints,
    /// injectivity, and the depth's residual edge checks, gathers the
    /// survivors into a child frame, and runs the next operator on it.
    /// Clears `sel`/`vals` for the caller to refill.
    fn flush(
        &mut self,
        depth: usize,
        pv: usize,
        frame: &Frame,
        sel: &mut Vec<u32>,
        vals: &mut Vec<u32>,
    ) -> Result<()> {
        self.meter.nodes(vals.len() as u64)?;

        let plan = self.plan;
        let want = plan.node_want[pv];
        let want_props = &plan.node_props[pv];
        let bound_vars = &plan.order[..depth];
        let mut keep = 0usize;
        'cand: for i in 0..vals.len() {
            let cand = vals[i];
            let row = sel[i] as usize;
            // Label: one symbol compare against the label column.
            if !want.accepts(plan.fz.node_label_dense(cand)) {
                continue;
            }
            // Property equality over the snapshot's property columns.
            if !want_props.is_empty() {
                let props = plan.fz.node_props_dense(cand);
                for &(key, want_v) in want_props {
                    let ok = key
                        .and_then(|key| prop(props, key))
                        .is_some_and(|got| got.loose_eq(want_v));
                    if !ok {
                        continue 'cand;
                    }
                }
            }
            // Injectivity against the row's other columns.
            for &v in bound_vars {
                if frame.cols[v][row] == cand {
                    continue 'cand;
                }
            }
            // Residual (non-generator) edge checks.
            for &rei in &plan.residual_edges[depth] {
                let e = &plan.pattern.edges[rei];
                let from = if e.from == pv {
                    cand
                } else {
                    frame.cols[e.from][row]
                };
                let to = if e.to == pv {
                    cand
                } else {
                    frame.cols[e.to][row]
                };
                if !self.has_edge_dense(rei, from, to)? {
                    continue 'cand;
                }
            }
            sel[keep] = sel[i];
            vals[keep] = cand;
            keep += 1;
        }
        sel.truncate(keep);
        vals.truncate(keep);

        if keep > 0 {
            // Gather the child batch: parent columns through the
            // selection vector, plus the new column.
            let mut child = Frame {
                cols: vec![Vec::new(); frame.cols.len()],
                len: keep,
            };
            for &v in bound_vars {
                let src = &frame.cols[v];
                child.cols[v] = sel.iter().map(|&r| src[r as usize]).collect();
            }
            child.cols[pv] = std::mem::take(vals);
            self.step(depth + 1, &child)?;
            *vals = std::mem::take(&mut child.cols[pv]);
        }
        sel.clear();
        vals.clear();
        Ok(())
    }

    /// Does the snapshot hold an edge satisfying pattern edge `rei`
    /// between the dense endpoints? Pure CSR scan, symbol-compare
    /// labels, exact range re-check. For a variable-length edge, the
    /// walk from `from`, stopped at its first arrival at `to`.
    fn has_edge_dense(&mut self, rei: usize, from: u32, to: u32) -> Result<bool> {
        let e = &self.plan.pattern.edges[rei];
        if e.hops.is_some() {
            let arrived = self.walk(rei, from, e.direction, |target| {
                if target == to {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })?;
            return Ok(arrived);
        }
        Ok(match e.direction {
            Direction::Outgoing => self.scan_edge(rei, from, to),
            Direction::Incoming => self.scan_edge(rei, to, from),
            Direction::Both => self.scan_edge(rei, from, to) || self.scan_edge(rei, to, from),
        })
    }

    fn scan_edge(&self, rei: usize, a: u32, b: u32) -> bool {
        let want = self.plan.edge_want[rei];
        let ranges = &self.plan.edge_ranges[rei];
        let run = self.plan.fz.fwd.run(a);
        for pos in 0..run.targets.len() {
            if run.targets[pos] == b
                && want.accepts(run.labels[pos])
                && (ranges.is_empty() || self.edge_props_in_ranges(run.edge_ids[pos].raw(), rei))
            {
                return true;
            }
        }
        false
    }

    /// Exact edge-property range filter for pattern edge `rei`.
    fn edge_props_in_ranges(&self, edge_raw: u64, rei: usize) -> bool {
        let props = self.plan.fz.edge_props_raw(edge_raw);
        self.plan.edge_ranges[rei].iter().all(|&(key, low, high)| {
            key.and_then(|key| prop(props, key))
                .is_some_and(|got| value_in_range(got, low, high))
        })
    }

    /// Materialize operator: charges the emitted batch and appends the
    /// rows (dense ids translated back to node ids) to the flat
    /// result buffer.
    fn emit(&mut self, frame: &Frame) -> Result<()> {
        self.meter.rows(frame.len as u64)?;
        self.data.reserve(frame.len * self.plan.pattern.nodes.len());
        for row in 0..frame.len {
            for col in &frame.cols {
                self.data.push(self.plan.fz.node_at(col[row]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::lock_hooks;
    use crate::parallel::{fanned_out, hold_helper_permits, inject_worker_panic_once};
    use crate::pattern::tests::reference;
    use crate::pattern::{canonical, PatternNode};
    use crate::planned::{auto_domains, match_pattern_seeded};
    use gdm_core::{props, InterruptReason};
    use gdm_govern::{CancelToken, Limits};
    use gdm_graphs::PropertyGraph;
    use std::time::Duration;

    /// Forced morsels with auto domains at an explicit worker count:
    /// these graphs are far too small to be admitted.
    fn governed(
        fz: &FrozenGraph,
        p: &Pattern,
        workers: usize,
        guard: &ExecutionGuard,
    ) -> Result<MatchTable> {
        run_morsels(fz, p, &auto_domains(fz, p), workers, true, guard)
    }

    fn with_workers(fz: &FrozenGraph, p: &Pattern, workers: usize) -> MatchTable {
        governed(fz, p, workers, &ExecutionGuard::unlimited())
            .expect("an unlimited guard never interrupts")
    }

    /// The live row-at-a-time search over the graph `fz` was frozen
    /// from.
    fn live(g: &PropertyGraph, p: &Pattern) -> MatchTable {
        match_pattern_seeded(g, p, &auto_domains(g, p), &ExecutionGuard::unlimited())
            .expect("an unlimited guard never interrupts")
    }

    fn community() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut nodes = Vec::new();
        for i in 0..24u64 {
            let label = if i % 4 == 0 { "company" } else { "person" };
            nodes.push(g.add_node(label, props! { "i" => i as i64, "band" => i as i64 % 3 }));
        }
        for i in 0..24usize {
            let a = nodes[i];
            let b = nodes[(i * 7 + 3) % 24];
            let c = nodes[(i * 11 + 5) % 24];
            let _ = g.add_edge(a, b, "knows", props! { "w" => i as i64 });
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

    fn social(n: u64) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| {
                g.add_node(
                    if i % 5 == 0 { "company" } else { "person" },
                    props! { "i" => i as i64 },
                )
            })
            .collect();
        for i in 0..n as usize {
            let a = nodes[i];
            g.add_edge(a, nodes[(i * 7 + 1) % n as usize], "knows", props! {})
                .unwrap();
            g.add_edge(a, nodes[(i * 13 + 3) % n as usize], "knows", props! {})
                .unwrap();
        }
        g
    }

    fn two_hop() -> Pattern {
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("person"));
        let y = p.node(PatternNode::var("y").with_label("person"));
        let z = p.node(PatternNode::var("z"));
        p.edge(x, y, Some("knows")).unwrap();
        p.edge(y, z, Some("knows")).unwrap();
        p
    }

    #[test]
    fn vectorized_equals_planned_and_unplanned() {
        let g = community();
        let fz = FrozenGraph::freeze(&g);
        let p = chain_pattern();
        let vec = with_workers(&fz, &p, 1);
        let unplanned = reference(&fz, &p);
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&live(&g, &p).to_bindings())
        );
        assert_eq!(canonical(&vec.to_bindings()), canonical(&unplanned));
        assert!(!vec.is_empty());
        // The one entry point routes a snapshot to this pipeline.
        let seeded = match_pattern_seeded(
            &fz,
            &p,
            &auto_domains(&fz, &p),
            &ExecutionGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(seeded, vec);
    }

    #[test]
    fn vectorized_respects_explicit_domains() {
        let g = community();
        let fz = FrozenGraph::freeze(&g);
        let p = chain_pattern();
        let dom = auto_domains(&fz, &p);
        let unlimited = ExecutionGuard::unlimited();
        let via_domains = run_morsels(&fz, &p, &dom, 1, false, &unlimited).unwrap();
        let planned = match_pattern_seeded(&g, &p, &dom, &unlimited).unwrap();
        assert_eq!(
            canonical(&via_domains.to_bindings()),
            canonical(&planned.to_bindings())
        );
    }

    #[test]
    fn vectorized_handles_self_loops_and_undirected_edges() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("n", props! {});
        let b = g.add_node("n", props! {});
        g.add_edge(a, a, "self", props! {}).unwrap();
        g.add_edge(a, b, "link", props! {}).unwrap();
        let fz = FrozenGraph::freeze(&g);
        // Self-loop pattern.
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        p.edge(x, x, Some("self")).unwrap();
        let vec = with_workers(&fz, &p, 1);
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&reference(&fz, &p))
        );
        // Undirected two-node pattern.
        let mut q = Pattern::new();
        let u = q.node(PatternNode::var("u"));
        let v = q.node(PatternNode::var("v"));
        q.edge_undirected(u, v, Some("link")).unwrap();
        let vec = with_workers(&fz, &q, 1);
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&reference(&fz, &q))
        );
        assert_eq!(vec.len(), 2);
    }

    #[test]
    fn vectorized_edge_ranges_filter_matches() {
        let g = community();
        let fz = FrozenGraph::freeze(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        let y = p.node(PatternNode::var("y"));
        p.edge(x, y, Some("knows")).unwrap();
        p.edge_range("w", Some(Value::from(5)), Some(Value::from(9)))
            .unwrap();
        let vec = with_workers(&fz, &p, 1);
        let unplanned = reference(&fz, &p);
        assert_eq!(canonical(&vec.to_bindings()), canonical(&unplanned));
        assert_eq!(vec.len(), 5, "w ∈ [5, 9] keeps five edges");
    }

    #[test]
    fn governed_vectorized_interrupts_with_partial_count() {
        let g = community();
        let fz = FrozenGraph::freeze(&g);
        let p = chain_pattern();
        let guard = ExecutionGuard::new(Limits::none().with_node_visits(4));
        let err = governed(&fz, &p, 1, &guard).unwrap_err();
        assert!(err.is_interrupted());
    }

    #[test]
    fn governed_vectorized_cancellation_trips_per_batch() {
        let g = community();
        let fz = FrozenGraph::freeze(&g);
        let p = chain_pattern();
        let cancel = CancelToken::new();
        cancel.cancel();
        let guard = ExecutionGuard::with_cancel(Limits::none(), cancel);
        let err = governed(&fz, &p, 1, &guard).unwrap_err();
        assert!(err.is_interrupted());
    }

    #[test]
    fn empty_and_impossible_patterns() {
        let _hooks = lock_hooks();
        let g = social(80);
        let fz = FrozenGraph::freeze(&g);
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_label("unicorn"));
        let mut q = Pattern::new();
        let a = q.node(PatternNode::var("a"));
        let b = q.node(PatternNode::var("b"));
        q.edge(a, b, Some("zzz")).unwrap();
        for workers in [1, 4] {
            assert!(with_workers(&fz, &Pattern::new(), workers).is_empty());
            assert!(with_workers(&fz, &p, workers).is_empty());
            assert!(with_workers(&fz, &q, workers).is_empty());
        }
    }

    #[test]
    fn batches_larger_than_one_flush_cycle() {
        // > BATCH seed candidates force at least two flushes.
        let mut g = PropertyGraph::new();
        let hub = g.add_node("hub", props! {});
        for _ in 0..(BATCH as u64 + 300) {
            let n = g.add_node("leaf", props! {});
            g.add_edge(n, hub, "to", props! {}).unwrap();
        }
        let fz = FrozenGraph::freeze(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("leaf"));
        let h = p.node(PatternNode::var("h").with_label("hub"));
        p.edge(x, h, Some("to")).unwrap();
        let vec = with_workers(&fz, &p, 1);
        assert_eq!(vec.len(), BATCH + 300);
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&live(&g, &p).to_bindings())
        );
    }

    #[test]
    fn expansions_larger_than_one_batch_keep_their_dedup_marks() {
        // One source row whose expansion overflows a batch: a hub with
        // BATCH + 300 out-neighbors, each chained to the next. The
        // child batch's own expansions (leaf i → leaf i+1) reuse the
        // dedup stamps, so they must not run while the hub's row is
        // still being expanded — or leaf 1024, stamped by leaf 1023's
        // expansion, is dropped from the hub's row as a "duplicate".
        let mut g = PropertyGraph::new();
        let hub = g.add_node("hub", props! {});
        let leaves: Vec<NodeId> = (0..BATCH + 300)
            .map(|_| g.add_node("leaf", props! {}))
            .collect();
        for (i, &leaf) in leaves.iter().enumerate() {
            g.add_edge(hub, leaf, "to", props! {}).unwrap();
            g.add_edge(leaf, leaves[(i + 1) % leaves.len()], "to", props! {})
                .unwrap();
        }
        let fz = FrozenGraph::freeze(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("hub"));
        let y = p.node(PatternNode::var("y"));
        let z = p.node(PatternNode::var("z"));
        p.edge(x, y, Some("to")).unwrap();
        p.edge(y, z, Some("to")).unwrap();
        let vec = with_workers(&fz, &p, 1);
        assert_eq!(vec.len(), BATCH + 300);
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&reference(&fz, &p))
        );
    }

    #[test]
    fn walks_larger_than_one_batch_emit_each_endpoint_once() {
        let _hooks = lock_hooks();
        // The same hub as above behind a variable-length edge: one
        // source row's walk emits BATCH + 300 endpoints at depth 1 and
        // meets them all again at depth 2 (leaf i → leaf i+1), and the
        // next operator's expansions reuse the stamps.
        let mut g = PropertyGraph::new();
        let hub = g.add_node("hub", props! {});
        let leaves: Vec<NodeId> = (0..BATCH + 300)
            .map(|_| g.add_node("leaf", props! {}))
            .collect();
        for (i, &leaf) in leaves.iter().enumerate() {
            g.add_edge(hub, leaf, "to", props! {}).unwrap();
            g.add_edge(leaf, leaves[(i + 1) % leaves.len()], "to", props! {})
                .unwrap();
        }
        let fz = FrozenGraph::freeze(&g);
        for (min, max) in [(1, 2), (2, 3)] {
            let mut p = Pattern::new();
            let x = p.node(PatternNode::var("x").with_label("hub"));
            let y = p.node(PatternNode::var("y"));
            let z = p.node(PatternNode::var("z"));
            p.edge_hops(x, y, Some("to"), Direction::Outgoing, min, max)
                .unwrap();
            p.edge(y, z, Some("to")).unwrap();
            let vec = with_workers(&fz, &p, 1);
            assert_eq!(vec.len(), BATCH + 300, "{min}..{max}");
            assert_eq!(vec, with_workers(&fz, &p, 3), "{min}..{max}");
            assert_eq!(
                canonical(&vec.to_bindings()),
                canonical(&live(&g, &p).to_bindings()),
                "{min}..{max}"
            );
        }
    }

    /// A table with the node visits and rows its guard was charged.
    fn table_and_charges(fz: &FrozenGraph, p: &Pattern, workers: usize) -> (MatchTable, u64, u64) {
        let guard = ExecutionGuard::unlimited();
        let table = governed(fz, p, workers, &guard).expect("an unlimited guard never interrupts");
        (
            table,
            guard.budget().node_visits(),
            guard.budget().rows_emitted(),
        )
    }

    #[test]
    fn morsel_output_and_charges_equal_one_worker_with_or_without_helpers() {
        let _hooks = lock_hooks();
        // Morsels of a label-index slice, and of the dense range an
        // unlabelled root scans.
        for (n, p) in [(20, two_hop()), (200, two_hop()), (200, chain_pattern())] {
            let fz = FrozenGraph::freeze(&social(n));
            let inline = table_and_charges(&fz, &p, 1);
            assert!(!inline.0.is_empty() && inline.1 > 0);
            for workers in [1, 2, 3, 4, 7] {
                let fanned = fanned_out();
                assert_eq!(table_and_charges(&fz, &p, workers), inline, "{workers}");
                assert_eq!(fanned_out() - fanned, u64::from(workers > 1));
                // No helper to be had: the caller claims every morsel.
                let none_free = hold_helper_permits();
                assert_eq!(table_and_charges(&fz, &p, workers), inline, "{workers}");
                assert_eq!(fanned_out() - fanned, u64::from(workers > 1));
                drop(none_free);
            }
        }
    }

    #[test]
    fn morsel_output_matches_reference_set() {
        let _hooks = lock_hooks();
        let g = social(150);
        let fz = FrozenGraph::freeze(&g);
        let p = two_hop();
        let par = with_workers(&fz, &p, 4);
        assert_eq!(
            canonical(&par.to_bindings()),
            canonical(&reference(&fz, &p))
        );
    }

    #[test]
    fn governed_budget_trips_with_merged_partial() {
        let _hooks = lock_hooks();
        let g = social(400);
        let fz = FrozenGraph::freeze(&g);
        let p = two_hop();
        // 320 roots in morsels of 20, ~140 visits each: the budget
        // trips a few morsels in, whichever worker draws last — the
        // caller itself when it is the only one.
        let trip = || {
            let guard = ExecutionGuard::new(Limits::none().with_node_visits(600));
            let err = governed(&fz, &p, 4, &guard).unwrap_err();
            let GdmError::Interrupted { reason, partial } = err else {
                panic!("expected Interrupted, got {err:?}");
            };
            assert_eq!(reason, InterruptReason::Budget);
            assert!(partial > 0, "whole morsels finished before the trip");
            assert_eq!(
                partial,
                guard.budget().rows_emitted(),
                "rows of all workers"
            );
        };
        trip();
        let _none_free = hold_helper_permits();
        trip();
    }

    #[test]
    fn governed_deadline_and_cancel_trip() {
        let _hooks = lock_hooks();
        let g = social(200);
        let fz = FrozenGraph::freeze(&g);
        let p = two_hop();
        let guard = ExecutionGuard::new(Limits::none().with_deadline(Duration::ZERO));
        let err = governed(&fz, &p, 4, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Deadline));
        let cancel = CancelToken::new();
        cancel.cancel();
        let guard = ExecutionGuard::with_cancel(Limits::none(), cancel);
        let err = governed(&fz, &p, 4, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn poisoned_morsel_falls_back_to_sequential() {
        let _hooks = lock_hooks();
        let g = social(200);
        let fz = FrozenGraph::freeze(&g);
        let p = two_hop();
        let seq = with_workers(&fz, &p, 1);
        inject_worker_panic_once();
        let par = with_workers(&fz, &p, 4);
        assert_eq!(par, seq, "panicking worker must not change the answer");
        // With no helper, the panic lands on the caller's own share.
        let _none_free = hold_helper_permits();
        inject_worker_panic_once();
        assert_eq!(with_workers(&fz, &p, 4), seq);
    }

    #[test]
    fn estimate_is_root_seeds_times_per_depth_fan_out() {
        // 200 nodes, 400 edges: average degree 2; 160 persons.
        let fz = FrozenGraph::freeze(&social(200));
        let estimate = |p: &Pattern, domains: &[Option<Vec<NodeId>>]| {
            BatchPlan::compile(&fz, p, domains).estimated_visits()
        };
        // Label-scan root, two single-hop generators.
        assert_eq!(estimate(&two_hop(), &[None, None, None]), 160 + 320 + 640);
        // A domain is counted exactly, whatever the label says.
        let three = Some(
            (0..3)
                .map(|dense| fz.node_at(dense))
                .collect::<Vec<NodeId>>(),
        );
        assert_eq!(
            estimate(&two_hop(), &[three.clone(), None, None]),
            3 + 6 + 12
        );
        // A variable-length generator fans out by its reach: 2 + 4 + 8.
        let mut walk = Pattern::new();
        let x = walk.node(PatternNode::var("x"));
        let y = walk.node(PatternNode::var("y"));
        walk.edge_hops(x, y, Some("knows"), Direction::Outgoing, 1, 3)
            .unwrap();
        assert_eq!(estimate(&walk, &[three.clone(), None]), 3 + 3 * 14);
        // A seeded non-root variable multiplies by its own seed count.
        let mut pair = Pattern::new();
        pair.node(PatternNode::var("x"));
        pair.node(PatternNode::var("c").with_label("company"));
        assert_eq!(estimate(&pair, &[three, None]), 3 + 3 * 40);
        // An unknown label seeds nothing.
        let mut none = Pattern::new();
        none.node(PatternNode::var("u").with_label("unicorn"));
        assert_eq!(estimate(&none, &[None]), 0);
    }

    #[test]
    fn small_queries_stay_on_the_calling_thread() {
        let _hooks = lock_hooks();
        let fz = FrozenGraph::freeze(&social(200));
        let p = two_hop();
        let fanned = fanned_out();
        let unforced = run_morsels(
            &fz,
            &p,
            &auto_domains(&fz, &p),
            4,
            false,
            &ExecutionGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(
            fanned_out(),
            fanned,
            "1 120 estimated visits are not admitted"
        );
        assert_eq!(unforced, with_workers(&fz, &p, 4));
        assert_eq!(fanned_out(), fanned + 1, "forcing skips admission");
    }

    #[test]
    fn a_fresh_threads_scratch_agrees_with_a_reused_one() {
        // This thread's stamp array is grown by `resize` from a small
        // snapshot's; a new thread's — every scoped helper's — is
        // allocated zeroed at full size. Same marks either way.
        let small = FrozenGraph::freeze(&social(20));
        let large = FrozenGraph::freeze(&social(30_000));
        let p = two_hop();
        with_workers(&small, &p, 1);
        let reused = with_workers(&large, &p, 1);
        let fresh = std::thread::scope(|s| {
            s.spawn(|| with_workers(&large, &p, 1))
                .join()
                .expect("the fresh thread does not panic")
        });
        assert!(reused.len() > 30_000, "{} matches", reused.len());
        assert_eq!(fresh, reused);
    }
}

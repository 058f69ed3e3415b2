//! The fan-out driver, and the analyses that run on it.
//!
//! [`fan_out`] is the crate's one `std::thread::scope` call site — the
//! pattern pipeline ([`crate::vectorized`]) and every `par_*` analysis
//! below split their input into **morsels** (contiguous index ranges)
//! and run them through it:
//!
//! * **Work is admitted, not assumed.** Callers estimate the visits a
//!   job will make and ask [`admitted_workers`]: under
//!   [`FAN_OUT_MIN_VISITS`] the job gets one worker — its caller — and
//!   no thread is spawned for it.
//! * **The caller runs.** The calling thread is worker 0 and starts
//!   claiming morsels from the shared cursor at once; helpers only ever
//!   *join* it. A call that is granted no helper runs every morsel
//!   itself, so the worst case of fanning out is the sequential run
//!   plus one `clone(2)`.
//! * **Helpers are capped process-wide.** A call asks for at most
//!   `workers − 1` scoped helper threads and is granted what one
//!   process-wide in-flight count, bounded by [`executor_workers`]` − 1`,
//!   has free — N concurrent sessions cannot put N × `workers` threads
//!   on the machine's cores. There is no parked pool: lending borrowed
//!   `&FrozenGraph` / `&Pattern` / `&ExecutionGuard` to long-lived
//!   threads needs `unsafe` (these crates have none), and admission
//!   confines the spawn to work it is a small fraction of (DESIGN.md
//!   §13).
//! * **Deterministic reduce.** Workers tag what they produce with its
//!   morsel index and the caller reassembles in morsel order, so every
//!   output equals the sequential algorithm's whatever the worker count.
//! * **Panic isolation.** Every worker body — the caller's share too —
//!   runs inside `catch_unwind`; a panicking worker never unwinds into
//!   [`std::thread::scope`] (which would re-panic on the caller).
//!   Instead the queue is aborted, [`fan_out`] returns `None`, and the
//!   caller recomputes sequentially: the same answer without the
//!   speedup — the first rung of the governor's degradation ladder
//!   (DESIGN.md §11).

use crate::frozen::FrozenGraph;
use crate::planned::average_degree;
use gdm_core::{Direction, FxHashMap, GraphView, NodeId};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 when that cannot be determined. Resolved once per
/// process — std re-reads the affinity mask and cgroup quota files on
/// every `available_parallelism` call, and this sits on the per-query
/// path via [`executor_workers`].
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Process-wide worker override: 0 means "auto" (use
/// [`default_threads`]). Set once at startup by `--workers N` flags
/// and the server config; read at every fan-out decision.
static EXECUTOR_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the executor worker count for this process. `0` restores
/// auto-detection. This is how single-core CI lets admitted queries
/// take a helper (`--workers 2`) and how benchmarks pin a reproducible
/// size.
pub fn set_executor_workers(n: usize) {
    EXECUTOR_WORKERS.store(n, Ordering::Relaxed);
}

/// The executor worker count in effect — the [`set_executor_workers`]
/// override when one is set, else the machine's available parallelism.
/// It bounds the threads one admitted query runs on (the caller
/// included) and, minus one, the helper threads in flight across the
/// whole process.
pub fn executor_workers() -> usize {
    match EXECUTOR_WORKERS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Fault-injection hook for the degradation tests: when armed, the
/// next worker that starts — the caller's own share included — panics
/// once. Not part of the public API surface.
#[doc(hidden)]
pub static INJECT_WORKER_PANIC: AtomicBool = AtomicBool::new(false);

/// Arms [`INJECT_WORKER_PANIC`] so exactly one subsequent worker
/// panics (test hook).
#[doc(hidden)]
pub fn inject_worker_panic_once() {
    INJECT_WORKER_PANIC.store(true, Ordering::SeqCst);
}

/// Estimated visits below which work stays on the calling thread. Two
/// measurements on the 2-vCPU reference box set it (DESIGN.md §13): the
/// pattern pipeline visits a candidate in ~20 ns inline (a BFS or
/// union-find step is of that order), and taking one helper costs
/// ~200 µs end to end when its core is not free — spawn, scratch
/// set-up, morsel bookkeeping, the merge copy, and the join waiting on
/// a descheduled helper. That is under 10 % of the inline time only
/// from 200 µs / 0.10 / 20 ns = 100 000 visits up; 2¹⁷ is the next
/// power of two.
const FAN_OUT_MIN_VISITS: usize = 1 << 17;

/// Admission by estimated work: the workers a job of about `visits`
/// visits may run on — `workers`, or just the caller when a helper's
/// spawn would not be a small part of it.
pub(crate) fn admitted_workers(workers: usize, visits: usize) -> usize {
    if visits >= FAN_OUT_MIN_VISITS {
        workers
    } else {
        1
    }
}

/// Upper bound on items per morsel: small enough that a skewed range
/// (one hub owning most of the work) cannot leave the other workers
/// idle, large enough that cursor traffic stays negligible.
const MAX_MORSEL: usize = 256;

/// Helper threads running right now, across every [`fan_out`] of the
/// process.
static HELPERS_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Lifetime count of [`fan_out`] calls that were granted a helper.
static FANNED_OUT: AtomicU64 = AtomicU64::new(0);

/// How many executions so far ran on more than their calling thread
/// (`STATS`' `fanned_out`; the admission gate in `tests/cost_gate.rs`
/// holds it still across the benchmark's templates).
#[doc(hidden)]
pub fn fanned_out() -> u64 {
    FANNED_OUT.load(Ordering::Relaxed)
}

/// Helper permits drawn from [`HELPERS_IN_FLIGHT`], returned on drop.
#[doc(hidden)]
pub struct HelperPermits(usize);

impl HelperPermits {
    /// Takes up to `want` permits, leaving at most `cap` in flight.
    fn acquire(want: usize, cap: usize) -> HelperPermits {
        let mut granted = 0;
        // The count only meters threads; it publishes no data.
        let _ = HELPERS_IN_FLIGHT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
            granted = want.min(cap.saturating_sub(busy));
            Some(busy + granted)
        });
        HelperPermits(granted)
    }
}

impl Drop for HelperPermits {
    fn drop(&mut self) {
        HELPERS_IN_FLIGHT.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Test hook: takes every helper permit there will ever be, so until
/// the result drops no [`fan_out`] — forced or not — is granted one.
#[doc(hidden)]
pub fn hold_helper_permits() -> HelperPermits {
    HelperPermits::acquire(usize::MAX, usize::MAX)
}

/// The morsels of one [`fan_out`]: `0..len` cut into equal ranges that
/// workers claim from a shared cursor (self-balancing — a worker stuck
/// on a dense morsel simply claims fewer).
pub(crate) struct Morsels {
    len: usize,
    size: usize,
    cursor: AtomicUsize,
    aborted: AtomicBool,
}

impl Morsels {
    /// The next unclaimed morsel — its index and its range — or `None`
    /// once all are claimed or the queue was aborted.
    pub(crate) fn claim(&self) -> Option<(usize, Range<usize>)> {
        if self.aborted.load(Ordering::Relaxed) {
            return None;
        }
        let m = self.cursor.fetch_add(1, Ordering::Relaxed);
        let start = m * self.size;
        (start < self.len).then(|| (m, start..(start + self.size).min(self.len)))
    }

    /// Stops handing out morsels (a worker tripped its guard or was lost).
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
    }
}

/// The driver (module docs). Cuts `0..len` into morsels and runs
/// `worker` on the calling thread and on up to `workers − 1` helpers;
/// each invocation claims morsels until none are left and returns what
/// it produced. Returns every worker's result, the caller's first, or
/// `None` when a worker panicked — its morsels are lost, so the caller
/// recomputes sequentially. `forced` lifts the process-wide helper cap
/// (tests on machines with fewer cores than workers).
pub(crate) fn fan_out<T: Send>(
    len: usize,
    workers: usize,
    forced: bool,
    worker: impl Fn(&Morsels) -> T + Sync,
) -> Option<Vec<T>> {
    let workers = workers.clamp(1, len.max(1));
    let morsels = Morsels {
        len,
        // ~4 morsels per worker smooths skew without flooding the cursor;
        // MAX_MORSEL caps the tail latency of an unlucky claim.
        size: len.div_ceil(workers * 4).clamp(1, MAX_MORSEL),
        cursor: AtomicUsize::new(0),
        aborted: AtomicBool::new(false),
    };
    let cap = if forced {
        usize::MAX
    } else {
        executor_workers() - 1
    };
    let permits = HelperPermits::acquire(workers - 1, cap);
    if permits.0 > 0 {
        FANNED_OUT.fetch_add(1, Ordering::Relaxed);
    }
    let run = || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if INJECT_WORKER_PANIC.swap(false, Ordering::SeqCst) {
                panic!("injected worker panic (test hook)");
            }
            worker(&morsels)
        }));
        // The payload is swallowed: the sequential rerun recomputes
        // everything the lost worker owned, so nobody need go on.
        if result.is_err() {
            morsels.abort();
        }
        result.ok()
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (0..permits.0).map(|_| s.spawn(run)).collect();
        let mine = run();
        // A panic cannot unwind out of `run`; a join error still just
        // marks the helper lost.
        std::iter::once(mine)
            .chain(helpers.into_iter().map(|h| h.join().ok().flatten()))
            .collect()
    })
}

/// Flattens per-worker `(morsel index, part)` lists into the parts in
/// morsel order — the order a sequential run produces them in.
pub(crate) fn in_morsel_order<P>(harvests: Vec<Vec<(usize, P)>>) -> impl Iterator<Item = P> {
    let mut parts: Vec<(usize, P)> = harvests.into_iter().flatten().collect();
    parts.sort_unstable_by_key(|&(m, _)| m);
    parts.into_iter().map(|(_, part)| part)
}

/// Single-source BFS over the dense arrays. `dist` must be `len()`
/// entries of `u32::MAX` on entry and is restored before returning
/// (only touched entries are reset). Returns the maximum depth
/// reached — the eccentricity of `src` under `direction`.
fn bfs_depth(
    fz: &FrozenGraph,
    src: u32,
    direction: Direction,
    dist: &mut [u32],
    queue: &mut VecDeque<u32>,
    touched: &mut Vec<u32>,
) -> usize {
    dist[src as usize] = 0;
    touched.push(src);
    queue.push_back(src);
    let mut max = 0u32;
    while let Some(u) = queue.pop_front() {
        let next = dist[u as usize] + 1;
        let mut relax = |v: u32| {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = next;
                max = max.max(next);
                touched.push(v);
                queue.push_back(v);
            }
        };
        match direction {
            Direction::Outgoing => fz.out_targets(u).iter().copied().for_each(&mut relax),
            Direction::Incoming => fz.in_targets(u).iter().copied().for_each(&mut relax),
            Direction::Both => {
                fz.out_targets(u).iter().copied().for_each(&mut relax);
                if fz.is_directed() {
                    fz.in_targets(u).iter().copied().for_each(&mut relax);
                }
            }
        }
    }
    for &t in touched.iter() {
        dist[t as usize] = u32::MAX;
    }
    touched.clear();
    max as usize
}

/// A reusable BFS sweep over `fz`: maps a range of source positions to
/// their eccentricities, keeping its buffers between calls.
fn bfs_sweep(
    fz: &FrozenGraph,
    direction: Direction,
) -> impl FnMut(Range<usize>) -> Vec<usize> + '_ {
    let mut dist = vec![u32::MAX; fz.len()];
    let mut queue = VecDeque::new();
    let mut touched = Vec::new();
    move |sources| {
        sources
            .map(|src| {
                bfs_depth(
                    fz,
                    src as u32,
                    direction,
                    &mut dist,
                    &mut queue,
                    &mut touched,
                )
            })
            .collect()
    }
}

/// Eccentricity of every node (indexed by dense position), computed
/// by multi-source BFS on up to `threads` workers. Agrees with
/// [`crate::summary::eccentricity`] per node.
pub fn par_eccentricities(fz: &FrozenGraph, direction: Direction, threads: usize) -> Vec<usize> {
    let n = fz.len();
    let workers = admitted_workers(threads, n.saturating_mul(n + fz.edge_count()));
    let harvests = fan_out(n, workers, false, |morsels| {
        let mut sweep = bfs_sweep(fz, direction);
        let mut out = Vec::new();
        while let Some((m, sources)) = morsels.claim() {
            out.push((m, sweep(sources)));
        }
        out
    });
    match harvests {
        Some(harvests) => in_morsel_order(harvests).flatten().collect(),
        None => bfs_sweep(fz, direction)(0..n),
    }
}

/// Diameter by all-pairs BFS on up to `threads` workers; agrees with
/// [`crate::summary::diameter`].
pub fn par_diameter(fz: &FrozenGraph, direction: Direction, threads: usize) -> Option<usize> {
    par_eccentricities(fz, direction, threads).into_iter().max()
}

/// Finds the root of `x` in the lock-free union-by-min forest, halving
/// the path with opportunistic CASes.
fn uf_find(parents: &[AtomicU32], mut x: u32) -> u32 {
    loop {
        let p = parents[x as usize].load(Ordering::Acquire);
        if p == x {
            return x;
        }
        let gp = parents[p as usize].load(Ordering::Acquire);
        if gp != p {
            // Path halving; losing the race just skips one shortcut.
            let _ = parents[x as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
        x = gp;
    }
}

/// Unions the sets of `a` and `b`. Roots only ever point at strictly
/// smaller indices, so the structure stays acyclic under concurrency
/// and the final root of each set is its minimum dense position.
fn uf_union(parents: &[AtomicU32], mut a: u32, mut b: u32) {
    loop {
        a = uf_find(parents, a);
        b = uf_find(parents, b);
        if a == b {
            return;
        }
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        if parents[hi as usize]
            .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return;
        }
        a = hi;
        b = lo;
    }
}

/// Weakly connected components on up to `threads` workers. Output is
/// exactly [`crate::analysis::connected_components`]'s: each component
/// sorted ascending, components ordered largest-first with ties in
/// discovery (minimum-dense-member) order.
pub fn par_connected_components(fz: &FrozenGraph, threads: usize) -> Vec<Vec<NodeId>> {
    let n = fz.len();
    let parents: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let workers = admitted_workers(threads, n + 2 * fz.edge_count());
    let united = fan_out(n, workers, false, |morsels| {
        while let Some((_, nodes)) = morsels.claim() {
            for u in nodes {
                let u = u as u32;
                // Reverse runs normally mirror the forward ones, but a
                // view is free to record asymmetrically; union over
                // both so the snapshot's full incidence counts.
                for &v in fz.out_targets(u).iter().chain(fz.in_targets(u)) {
                    uf_union(&parents, u, v);
                }
            }
        }
    });
    if united.is_none() {
        // A lost worker means some unions never happened; the partial
        // union-find cannot be trusted.
        return crate::analysis::connected_components(fz);
    }
    // Sequential gather: scanning dense positions ascending creates
    // each component at its minimum member, i.e. in the same order the
    // sequential algorithm discovers roots.
    let mut comp_of_root: FxHashMap<u32, usize> = FxHashMap::default();
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for u in 0..n as u32 {
        let root = uf_find(&parents, u);
        let idx = *comp_of_root.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[idx].push(fz.node_at(u));
    }
    for comp in &mut components {
        comp.sort_unstable();
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    components
}

/// Undirected dense neighbor list of `u` (self-loops dropped,
/// deduplicated, sorted) — the snapshot counterpart of
/// `analysis::neighbor_sets`.
fn dense_neighbors(fz: &FrozenGraph, u: u32) -> Vec<u32> {
    let mut list: Vec<u32> = fz.out_targets(u).to_vec();
    if fz.is_directed() {
        list.extend_from_slice(fz.in_targets(u));
    }
    list.retain(|&v| v != u);
    list.sort_unstable();
    list.dedup();
    list
}

/// Triangle count on up to `threads` workers; agrees with
/// [`crate::analysis::triangle_count`].
pub fn par_triangle_count(fz: &FrozenGraph, threads: usize) -> usize {
    let n = fz.len();
    // Per edge, one probe per neighbor of its lower endpoint.
    let probes = fz
        .edge_count()
        .saturating_mul(average_degree(fz, Direction::Both));
    let workers = admitted_workers(threads, probes);
    let counted = || {
        let lists: Vec<Vec<u32>> = in_morsel_order(fan_out(n, workers, false, |morsels| {
            let mut out = Vec::new();
            while let Some((m, nodes)) = morsels.claim() {
                let lists: Vec<Vec<u32>> = nodes.map(|u| dense_neighbors(fz, u as u32)).collect();
                out.push((m, lists));
            }
            out
        })?)
        .flatten()
        .collect();
        let partial = fan_out(n, workers, false, |morsels| {
            let mut count = 0usize;
            while let Some((_, nodes)) = morsels.claim() {
                for u in nodes {
                    let neigh = &lists[u];
                    for (i, &m) in neigh.iter().enumerate() {
                        if m as usize <= u {
                            continue;
                        }
                        let mset = &lists[m as usize];
                        for &k in &neigh[i + 1..] {
                            if k > m && mset.binary_search(&k).is_ok() {
                                count += 1;
                            }
                        }
                    }
                }
            }
            count
        })?;
        Some(partial.into_iter().sum())
    };
    counted().unwrap_or_else(|| crate::analysis::triangle_count(fz))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::analysis::{connected_components, triangle_count};
    use crate::summary::{diameter, eccentricity};
    use gdm_graphs::SimpleGraph;

    /// Deterministic scale-free-ish graph: node i links to i/2 and to
    /// a pseudo-random earlier node, plus a few self-loops.
    fn fixture(directed: bool, n: u64) -> SimpleGraph {
        let mut g = if directed {
            SimpleGraph::directed()
        } else {
            SimpleGraph::undirected()
        };
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        let mut state = 0x9e37u64;
        for i in 1..n as usize {
            g.add_labeled_edge(nodes[i], nodes[i / 2], if i % 3 == 0 { "a" } else { "b" })
                .unwrap();
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % i;
            g.add_edge(nodes[i], nodes[j]).unwrap();
            if i % 17 == 0 {
                g.add_edge(nodes[i], nodes[i]).unwrap();
            }
        }
        g
    }

    /// Runs `analysis` with four executor workers allowed and says how
    /// many of its fan-outs took a helper thread. The analyses admit
    /// themselves by estimated work like everything else, so the
    /// fixtures below are sized to clear the bar — or, where noted, not.
    fn helped<R>(analysis: impl FnOnce() -> R) -> (R, u64) {
        let _guard = lock_hooks();
        set_executor_workers(4);
        let before = fanned_out();
        let result = analysis();
        let helped = fanned_out() - before;
        set_executor_workers(0);
        (result, helped)
    }

    #[test]
    fn parallel_diameter_matches_sequential() {
        for directed in [true, false] {
            let g = fixture(directed, 220);
            let fz = FrozenGraph::freeze(&g);
            for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
                let (par, helped) = helped(|| par_diameter(&fz, dir, 4));
                assert_eq!(par, diameter(&fz, dir), "{dir:?}");
                assert_eq!(helped, 1, "220 searches of ~670 steps are admitted");
            }
        }
    }

    #[test]
    fn parallel_eccentricities_match_sequential() {
        let g = fixture(true, 220);
        let fz = FrozenGraph::freeze(&g);
        let (ecc, _) = helped(|| par_eccentricities(&fz, Direction::Both, 3));
        for (dense, &e) in ecc.iter().enumerate() {
            let n = fz.node_at(dense as u32);
            assert_eq!(Some(e), eccentricity(&fz, n, Direction::Both));
        }
    }

    #[test]
    fn parallel_components_match_sequential_exactly() {
        // 50 nodes stay on the calling thread; 27 000 take helpers.
        for (n, admitted) in [(50, 0), (27_000, 1)] {
            for directed in [true, false] {
                let mut g = fixture(directed, n);
                // A couple of extra isolated nodes and a detached pair.
                let a = g.add_node();
                let b = g.add_node();
                g.add_node();
                g.add_edge(a, b).unwrap();
                let fz = FrozenGraph::freeze(&g);
                let (par, helped) = helped(|| par_connected_components(&fz, 4));
                assert_eq!(par, connected_components(&fz));
                assert_eq!(helped, admitted, "{n} nodes");
            }
        }
    }

    #[test]
    fn parallel_triangles_match() {
        // Both of its fan-outs (neighbor lists, then the count) take
        // helpers at 12 000 nodes, neither at 70.
        for (n, admitted) in [(70, 0), (12_000, 2)] {
            let g = fixture(false, n);
            let fz = FrozenGraph::freeze(&g);
            let (par, helped) = helped(|| par_triangle_count(&fz, 4));
            assert_eq!(par, triangle_count(&fz));
            assert_eq!(helped, admitted, "{n} nodes");
        }
    }

    #[test]
    fn empty_graph_edge_cases() {
        let _guard = lock_hooks();
        let g = SimpleGraph::directed();
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(par_diameter(&fz, Direction::Both, 4), None);
        assert!(par_connected_components(&fz, 4).is_empty());
        assert_eq!(par_triangle_count(&fz, 4), 0);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// The panic hook, the worker override, the helper permits and the
    /// fan-out counter are process-global; tests that arm, set, hold or
    /// count them — and the ones that merely take permits, the
    /// unforced `par_*` calls — hold this lock so concurrent test
    /// threads do not steal each other's armed panic or permits. (A
    /// stolen panic is still *safe* — any fan-out degrades to the
    /// sequential answer — it just stops the assertion from being
    /// meaningful.)
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn lock_hooks() -> std::sync::MutexGuard<'static, ()> {
        HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `check` twice: with whatever helpers the machine grants,
    /// and with none to be had, so an armed panic is certain to land on
    /// the caller's own share.
    fn with_and_without_helpers(check: impl Fn()) {
        let _guard = lock_hooks();
        check();
        let _none_free = hold_helper_permits();
        check();
    }

    #[test]
    fn injected_worker_panic_degrades_diameter_to_sequential() {
        let g = fixture(true, 80);
        let fz = FrozenGraph::freeze(&g);
        let want = diameter(&fz, Direction::Both);
        with_and_without_helpers(|| {
            inject_worker_panic_once();
            let got = par_diameter(&fz, Direction::Both, 4);
            assert_eq!(got, want, "panicking worker must not change the answer");
            assert!(
                !INJECT_WORKER_PANIC.load(Ordering::SeqCst),
                "the injected panic fired"
            );
        });
    }

    #[test]
    fn injected_worker_panic_degrades_components_and_counts() {
        let g = fixture(false, 70);
        let fz = FrozenGraph::freeze(&g);
        with_and_without_helpers(|| {
            inject_worker_panic_once();
            assert_eq!(par_connected_components(&fz, 4), connected_components(&fz));
            inject_worker_panic_once();
            assert_eq!(par_triangle_count(&fz, 4), triangle_count(&fz));
        });
    }

    /// One worker's share of a [`fan_out`]: the ranges it claimed.
    fn drain(morsels: &Morsels) -> Vec<Range<usize>> {
        std::iter::from_fn(|| morsels.claim())
            .map(|(_, at)| at)
            .collect()
    }

    #[test]
    fn every_item_is_claimed_exactly_once() {
        let _guard = lock_hooks();
        for len in [0, 1, 5, 256, 1000, 5000] {
            for workers in [1, 2, 4, 9] {
                let shares = fan_out(len, workers, true, drain).expect("no worker panics");
                let mut seen = vec![0u8; len];
                for at in shares.into_iter().flatten() {
                    assert!(at.len() <= MAX_MORSEL);
                    seen[at].iter_mut().for_each(|n| *n += 1);
                }
                assert!(seen.iter().all(|&n| n == 1), "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn helpers_are_capped_across_the_process() {
        let _guard = lock_hooks();
        let workers_running = |workers, forced| {
            fan_out(1000, workers, forced, drain)
                .expect("no worker panics")
                .len()
        };
        set_executor_workers(3);
        let before = fanned_out();
        assert_eq!(workers_running(8, false), 3, "the setting bounds one call");
        assert_eq!(workers_running(2, false), 2, "and so does what it asks for");
        assert_eq!(workers_running(8, true), 8, "a forced call is not capped");
        assert_eq!(fanned_out(), before + 3);

        // A second call beside one whose two helpers are in flight — a
        // second session — finds no permit left and runs alone.
        let nested = fan_out(3, 3, false, |morsels| {
            drain(morsels);
            workers_running(8, false)
        });
        assert_eq!(nested, Some(vec![1, 1, 1]));
        assert_eq!(fanned_out(), before + 4);

        // With every permit held not even a forced call gets a helper,
        // and nothing is counted as fanned out.
        let none_free = hold_helper_permits();
        assert_eq!(workers_running(8, false), 1);
        assert_eq!(workers_running(8, true), 1);
        assert_eq!(fanned_out(), before + 4);
        drop(none_free);
        assert_eq!(workers_running(8, false), 3, "permits come back");
        set_executor_workers(0);
    }

    #[test]
    fn workers_override_round_trips() {
        let _guard = lock_hooks();
        set_executor_workers(3);
        assert_eq!(executor_workers(), 3);
        set_executor_workers(0);
        assert_eq!(executor_workers(), default_threads());
    }

    #[test]
    fn a_panicking_worker_loses_the_whole_fan_out() {
        let _guard = lock_hooks();
        // Whichever worker claims morsel 3 panics — with one worker,
        // the caller itself; nobody's partial result survives.
        for workers in [3, 1] {
            let lost = fan_out(5000, workers, true, |morsels| {
                while let Some((m, _)) = morsels.claim() {
                    assert_ne!(m, 3, "poisoned morsel");
                }
            });
            assert_eq!(lost, None, "workers={workers}");
        }
    }
}

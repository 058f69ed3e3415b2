//! A work-stealing-free parallel executor over [`FrozenGraph`].
//!
//! No thread pool, no channels, no new dependencies: every function
//! partitions its node range into contiguous chunks and runs one
//! [`std::thread::scope`] thread per chunk (the snapshot is immutable
//! and `Sync`, so threads share it by reference). Results are reduced
//! on the calling thread in chunk order, which keeps outputs
//! *deterministic* and equal to the sequential algorithms:
//!
//! * [`par_diameter`] / [`par_eccentricities`] — multi-source BFS,
//!   sources split across threads; a max is order-independent.
//! * [`par_connected_components`] — lock-free union-by-min over the
//!   edge array, then a sequential gather that reproduces
//!   [`crate::analysis::connected_components`]'s exact output order.
//! * [`par_triangle_count`] / [`par_average_clustering`] /
//!   [`par_degree_stats`] — per-node loops over cached adjacency;
//!   float sums are reduced in node order so even the average comes
//!   out identical to the sequential fold.
//!
//! Pattern matching fans out differently — morsel-driven, inside
//! [`crate::vectorized`] — but shares this module's panic shield.
//!
//! **Panic isolation.** Every worker body runs inside `catch_unwind`;
//! a panicking worker never unwinds into [`std::thread::scope`] (which
//! would re-panic on the caller and poison the whole call). Instead
//! the reducer notices the lost chunk and degrades: the query is
//! recomputed by the sequential algorithm on the calling thread, so
//! the caller still receives the correct answer — just without the
//! speedup. This is the first rung of the governor's degradation
//! ladder (see DESIGN.md §11).

use crate::frozen::FrozenGraph;
use gdm_core::{Direction, FxHashMap, GraphView, NodeId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 when that cannot be determined. Resolved once per
/// process — std re-reads the affinity mask and cgroup quota files on
/// every `available_parallelism` call, and this sits on the per-query
/// path via [`crate::executor_workers`].
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Fault-injection hook for the degradation tests: when armed, the
/// next worker thread that starts panics once. Not part of the public
/// API surface.
#[doc(hidden)]
pub static INJECT_WORKER_PANIC: AtomicBool = AtomicBool::new(false);

/// Arms [`INJECT_WORKER_PANIC`] so exactly one subsequent worker
/// panics (test hook).
#[doc(hidden)]
pub fn inject_worker_panic_once() {
    INJECT_WORKER_PANIC.store(true, Ordering::SeqCst);
}

#[inline]
pub(crate) fn maybe_inject_panic() {
    if INJECT_WORKER_PANIC.swap(false, Ordering::SeqCst) {
        panic!("injected worker panic (test hook)");
    }
}

/// Runs `body` inside `catch_unwind` on a worker thread, reporting
/// success. Workers never unwind into [`std::thread::scope`] (which
/// would re-panic on the caller); a `false` return tells the reducer
/// to discard the parallel attempt and degrade to the sequential
/// algorithm. The panic payload is intentionally swallowed — the
/// sequential rerun recomputes everything the lost worker owned.
#[inline]
pub(crate) fn isolate<F: FnOnce()>(body: F) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        maybe_inject_panic();
        body();
    }))
    .is_ok()
}

#[inline]
pub(crate) fn clamp_threads(threads: usize, work_items: usize) -> usize {
    threads.max(1).min(work_items.max(1))
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

/// Eccentricity of every node (indexed by dense position), computed
/// by parallel multi-source BFS. Agrees with
/// [`crate::summary::eccentricity`] per node.
///
/// Degradation: a panicking worker is contained by `catch_unwind` and
/// the whole result is recomputed sequentially on the calling thread —
/// slower, same answer.
pub fn par_eccentricities(fz: &FrozenGraph, direction: Direction, threads: usize) -> Vec<usize> {
    let n = fz.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = clamp_threads(threads, n);
    let chunk = n.div_ceil(threads);
    let mut ecc = vec![0usize; n];
    let ok = std::thread::scope(|s| {
        let handles: Vec<_> = ecc
            .chunks_mut(chunk)
            .enumerate()
            .map(|(t, slice)| {
                let start = t * chunk;
                s.spawn(move || {
                    isolate(|| {
                        let mut dist = vec![u32::MAX; n];
                        let mut queue = VecDeque::new();
                        let mut touched = Vec::new();
                        for (i, e) in slice.iter_mut().enumerate() {
                            *e = bfs_depth(
                                fz,
                                (start + i) as u32,
                                direction,
                                &mut dist,
                                &mut queue,
                                &mut touched,
                            );
                        }
                    })
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap_or(false))
    });
    if ok {
        return ecc;
    }
    seq_eccentricities(fz, direction)
}

/// Sequential fallback for [`par_eccentricities`]: the same BFS, one
/// source at a time on the calling thread.
fn seq_eccentricities(fz: &FrozenGraph, direction: Direction) -> Vec<usize> {
    let n = fz.len();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    let mut touched = Vec::new();
    (0..n as u32)
        .map(|src| bfs_depth(fz, src, direction, &mut dist, &mut queue, &mut touched))
        .collect()
}

/// Diameter by parallel all-pairs BFS; agrees with
/// [`crate::summary::diameter`].
pub fn par_diameter(fz: &FrozenGraph, direction: Direction, threads: usize) -> Option<usize> {
    let ecc = par_eccentricities(fz, direction, threads);
    ecc.into_iter().max()
}

// ---------------------------------------------------------------------
// Connected components: lock-free union-by-min
// ---------------------------------------------------------------------

/// Finds the root of `x`, halving the path with opportunistic CASes.
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

/// Weakly connected components. Output is exactly
/// [`crate::analysis::connected_components`]'s: each component sorted
/// ascending, components ordered largest-first with ties in discovery
/// (minimum-dense-member) order.
pub fn par_connected_components(fz: &FrozenGraph, threads: usize) -> Vec<Vec<NodeId>> {
    let n = fz.len();
    if n == 0 {
        return Vec::new();
    }
    let parents: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let threads = clamp_threads(threads, n);
    let chunk = n.div_ceil(threads);
    let ok = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let parents = &parents;
                s.spawn(move || {
                    isolate(|| {
                        let lo = t * chunk;
                        let hi = ((t + 1) * chunk).min(n);
                        for u in lo..hi {
                            let u = u as u32;
                            for &v in fz.out_targets(u) {
                                uf_union(parents, u, v);
                            }
                            // Reverse runs normally mirror the forward
                            // ones, but a view is free to record
                            // asymmetrically; union over both so the
                            // snapshot's full incidence counts.
                            for &v in fz.in_targets(u) {
                                uf_union(parents, u, v);
                            }
                        }
                    })
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap_or(false))
    });
    if !ok {
        // A lost worker means some unions never happened; the partial
        // union-find cannot be trusted. Degrade to the sequential
        // algorithm (same output contract).
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

// ---------------------------------------------------------------------
// Per-node analysis loops
// ---------------------------------------------------------------------

/// Undirected dense neighbor lists (self-loops dropped, deduplicated,
/// sorted) — the snapshot counterpart of `analysis::neighbor_sets`,
/// built in parallel.
fn dense_neighbor_lists(fz: &FrozenGraph, threads: usize) -> Vec<Vec<u32>> {
    let n = fz.len();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    if n == 0 {
        return lists;
    }
    let build = |u: u32, list: &mut Vec<u32>| {
        list.extend(fz.out_targets(u).iter().copied().filter(|&v| v != u));
        if fz.is_directed() {
            list.extend(fz.in_targets(u).iter().copied().filter(|&v| v != u));
        }
        list.sort_unstable();
        list.dedup();
    };
    let threads = clamp_threads(threads, n);
    let chunk = n.div_ceil(threads);
    let ok = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .chunks_mut(chunk)
            .enumerate()
            .map(|(t, slice)| {
                let start = t * chunk;
                s.spawn(move || {
                    isolate(|| {
                        for (i, list) in slice.iter_mut().enumerate() {
                            build((start + i) as u32, list);
                        }
                    })
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap_or(false))
    });
    if !ok {
        // Rebuild everything sequentially; a panicked worker may have
        // left its chunk half-filled.
        for list in &mut lists {
            list.clear();
        }
        for (u, list) in lists.iter_mut().enumerate() {
            build(u as u32, list);
        }
    }
    lists
}

/// Triangle count; agrees with [`crate::analysis::triangle_count`].
pub fn par_triangle_count(fz: &FrozenGraph, threads: usize) -> usize {
    let n = fz.len();
    if n == 0 {
        return 0;
    }
    let lists = dense_neighbor_lists(fz, threads);
    let lists = &lists;
    let threads = clamp_threads(threads, n);
    let chunk = n.div_ceil(threads);
    let mut partial = vec![0usize; threads];
    let ok = std::thread::scope(|s| {
        let handles: Vec<_> = partial
            .iter_mut()
            .enumerate()
            .map(|(t, out)| {
                s.spawn(move || {
                    isolate(|| {
                        let lo = t * chunk;
                        let hi = ((t + 1) * chunk).min(n);
                        let mut count = 0usize;
                        for u in lo..hi {
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
                        *out = count;
                    })
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap_or(false))
    });
    if !ok {
        return crate::analysis::triangle_count(fz);
    }
    partial.into_iter().sum()
}

/// Average clustering coefficient over nodes with degree ≥ 2; agrees
/// with [`crate::analysis::average_clustering`] (per-node coefficients
/// are computed in parallel, then folded in node order, so even the
/// floating-point sum matches the sequential one).
pub fn par_average_clustering(fz: &FrozenGraph, threads: usize) -> Option<f64> {
    let n = fz.len();
    if n == 0 {
        return None;
    }
    let lists = dense_neighbor_lists(fz, threads);
    let lists = &lists;
    let threads = clamp_threads(threads, n);
    let chunk = n.div_ceil(threads);
    let mut coeffs: Vec<Option<f64>> = vec![None; n];
    let ok = std::thread::scope(|s| {
        let handles: Vec<_> = coeffs
            .chunks_mut(chunk)
            .enumerate()
            .map(|(t, slice)| {
                let start = t * chunk;
                s.spawn(move || {
                    isolate(|| {
                        for (i, out) in slice.iter_mut().enumerate() {
                            let neigh = &lists[start + i];
                            let k = neigh.len();
                            if k < 2 {
                                continue;
                            }
                            let mut closed = 0usize;
                            for (j, &a) in neigh.iter().enumerate() {
                                let aset = &lists[a as usize];
                                for &b in &neigh[j + 1..] {
                                    if aset.binary_search(&b).is_ok() {
                                        closed += 1;
                                    }
                                }
                            }
                            *out = Some(closed as f64 / (k * (k - 1) / 2) as f64);
                        }
                    })
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap_or(false))
    });
    if !ok {
        return crate::analysis::average_clustering(fz);
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    for c in coeffs.into_iter().flatten() {
        sum += c;
        count += 1;
    }
    (count > 0).then(|| sum / count as f64)
}

/// Degree statistics `(min, max, average)`; agrees with
/// [`crate::summary::degree_stats`] (the sum is integral, so the
/// average is exact).
pub fn par_degree_stats(fz: &FrozenGraph, threads: usize) -> Option<(usize, usize, f64)> {
    let n = fz.len();
    if n == 0 {
        return None;
    }
    let threads = clamp_threads(threads, n);
    let chunk = n.div_ceil(threads);
    let mut partial = vec![(usize::MAX, 0usize, 0usize); threads];
    let ok = std::thread::scope(|s| {
        let handles: Vec<_> = partial
            .iter_mut()
            .enumerate()
            .map(|(t, out)| {
                s.spawn(move || {
                    isolate(|| {
                        let lo = t * chunk;
                        let hi = ((t + 1) * chunk).min(n);
                        let (mut min, mut max, mut sum) = (usize::MAX, 0usize, 0usize);
                        for u in lo..hi {
                            let d = fz.degree_dense(u as u32);
                            min = min.min(d);
                            max = max.max(d);
                            sum += d;
                        }
                        *out = (min, max, sum);
                    })
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap_or(false))
    });
    if !ok {
        return crate::summary::degree_stats(fz);
    }
    let (mut min, mut max, mut sum) = (usize::MAX, 0usize, 0usize);
    for (lo, hi, s) in partial {
        min = min.min(lo);
        max = max.max(hi);
        sum += s;
    }
    Some((min, max, sum as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{average_clustering, connected_components, triangle_count};
    use crate::pattern::{canonical, match_pattern, Pattern, PatternNode};
    use crate::planned::{auto_domains, MatchTable};
    use crate::summary::{degree_stats, diameter, eccentricity};
    use gdm_core::props;
    use gdm_graphs::{PropertyGraph, SimpleGraph};

    /// The morsel-driven pattern executor at an explicit worker count.
    fn morsel_match(fz: &FrozenGraph, pattern: &Pattern, threads: usize) -> MatchTable {
        let guard = gdm_govern::ExecutionGuard::unlimited();
        crate::vectorized::run_morsels(
            fz,
            pattern,
            &auto_domains(fz, pattern),
            threads,
            false,
            &guard,
        )
        .expect("an unlimited guard never interrupts")
    }

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

    #[test]
    fn parallel_diameter_matches_sequential() {
        for directed in [true, false] {
            let g = fixture(directed, 80);
            let fz = FrozenGraph::freeze(&g);
            for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
                assert_eq!(par_diameter(&fz, dir, 4), diameter(&fz, dir), "{dir:?}");
            }
        }
    }

    #[test]
    fn parallel_eccentricities_match_sequential() {
        let g = fixture(true, 60);
        let fz = FrozenGraph::freeze(&g);
        let ecc = par_eccentricities(&fz, Direction::Both, 3);
        for (dense, &e) in ecc.iter().enumerate() {
            let n = fz.node_at(dense as u32);
            assert_eq!(Some(e), eccentricity(&fz, n, Direction::Both));
        }
    }

    #[test]
    fn parallel_components_match_sequential_exactly() {
        for directed in [true, false] {
            let mut g = fixture(directed, 50);
            // A couple of extra isolated nodes and a detached pair.
            let a = g.add_node();
            let b = g.add_node();
            g.add_node();
            g.add_edge(a, b).unwrap();
            let fz = FrozenGraph::freeze(&g);
            assert_eq!(par_connected_components(&fz, 4), connected_components(&fz));
        }
    }

    #[test]
    fn parallel_triangles_and_clustering_match() {
        let g = fixture(false, 70);
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(par_triangle_count(&fz, 4), triangle_count(&fz));
        let par = par_average_clustering(&fz, 4);
        let seq = average_clustering(&fz);
        match (par, seq) {
            (Some(p), Some(s)) => assert!((p - s).abs() < 1e-12, "{p} vs {s}"),
            (p, s) => assert_eq!(p, s),
        }
    }

    #[test]
    fn parallel_degree_stats_match() {
        let g = fixture(true, 90);
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(par_degree_stats(&fz, 4), degree_stats(&fz));
    }

    #[test]
    fn parallel_pattern_reproduces_sequential_bindings() {
        let mut g = PropertyGraph::new();
        let people: Vec<NodeId> = (0..12)
            .map(|i| g.add_node("person", props! { "i" => i }))
            .collect();
        let hub = g.add_node("company", props! {});
        for w in people.windows(2) {
            g.add_edge(w[0], w[1], "knows", props! {}).unwrap();
        }
        for &p in people.iter().step_by(3) {
            g.add_edge(p, hub, "works_at", props! {}).unwrap();
        }
        let fz = FrozenGraph::freeze_attributed(&g);

        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("person"));
        let y = p.node(PatternNode::var("y").with_label("person"));
        let c = p.node(PatternNode::var("c").with_label("company"));
        p.edge(x, y, Some("knows")).unwrap();
        p.edge(x, c, Some("works_at")).unwrap();

        let seq = match_pattern(&fz, &p);
        for threads in [1, 2, 4, 7] {
            let par = morsel_match(&fz, &p, threads);
            assert_eq!(canonical(&par.to_bindings()), canonical(&seq));
            assert_eq!(par.len(), seq.len());
        }
    }

    #[test]
    fn parallel_pattern_spawn_path_matches_sequential() {
        // 80 unlabeled roots clears the inline threshold, so this
        // exercises the actual scoped-thread fan-out.
        let g = fixture(true, 80);
        let fz = FrozenGraph::freeze(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        let y = p.node(PatternNode::var("y"));
        p.edge(x, y, Some("a")).unwrap();
        let seq = match_pattern(&fz, &p);
        assert!(!seq.is_empty());
        for threads in [2, 4] {
            let par = morsel_match(&fz, &p, threads);
            assert_eq!(par.len(), seq.len());
            assert_eq!(canonical(&par.to_bindings()), canonical(&seq));
        }
    }

    #[test]
    fn pattern_with_unknown_label_matches_nothing() {
        let g = fixture(true, 10);
        let fz = FrozenGraph::freeze(&g);
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_label("nope"));
        assert!(morsel_match(&fz, &p, 4).is_empty());
        assert!(match_pattern(&fz, &p).is_empty());
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = SimpleGraph::directed();
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(par_diameter(&fz, Direction::Both, 4), None);
        assert!(par_connected_components(&fz, 4).is_empty());
        assert_eq!(par_triangle_count(&fz, 4), 0);
        assert_eq!(par_average_clustering(&fz, 4), None);
        assert_eq!(par_degree_stats(&fz, 4), None);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// The injection hook is process-global; these tests take this
    /// lock so concurrent test threads do not steal each other's
    /// armed panic. (A stolen panic is still *safe* — any `par_*`
    /// call degrades to the sequential answer — it just stops the
    /// assertion below from being meaningful.)
    static PANIC_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn injected_worker_panic_degrades_diameter_to_sequential() {
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let g = fixture(true, 80);
        let fz = FrozenGraph::freeze(&g);
        let want = diameter(&fz, Direction::Both);
        inject_worker_panic_once();
        let got = par_diameter(&fz, Direction::Both, 4);
        assert_eq!(got, want, "panicking worker must not change the answer");
        assert!(
            !INJECT_WORKER_PANIC.load(Ordering::SeqCst),
            "the injected panic fired"
        );
    }

    #[test]
    fn injected_worker_panic_degrades_pattern_match_to_sequential() {
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let g = fixture(true, 80);
        let fz = FrozenGraph::freeze(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        let y = p.node(PatternNode::var("y"));
        p.edge(x, y, Some("a")).unwrap();
        let seq = match_pattern(&fz, &p);
        assert!(!seq.is_empty());
        inject_worker_panic_once();
        let par = morsel_match(&fz, &p, 4);
        assert_eq!(canonical(&par.to_bindings()), canonical(&seq));
        assert_eq!(par.len(), seq.len());
    }

    #[test]
    fn injected_worker_panic_degrades_components_and_counts() {
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let g = fixture(false, 70);
        let fz = FrozenGraph::freeze(&g);
        inject_worker_panic_once();
        assert_eq!(par_connected_components(&fz, 4), connected_components(&fz));
        inject_worker_panic_once();
        assert_eq!(par_triangle_count(&fz, 4), triangle_count(&fz));
        inject_worker_panic_once();
        assert_eq!(par_degree_stats(&fz, 4), degree_stats(&fz));
        inject_worker_panic_once();
        let par = par_average_clustering(&fz, 4);
        let seq = average_clustering(&fz);
        match (par, seq) {
            (Some(p), Some(s)) => assert!((p - s).abs() < 1e-12),
            (p, s) => assert_eq!(p, s),
        }
    }
}

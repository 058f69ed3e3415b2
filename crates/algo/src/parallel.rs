//! The fan-out driver of the pattern pipeline.
//!
//! `fan_out` is the crate's one `std::thread::scope` call site. Its
//! one caller is the [`crate::vectorized`] batch pipeline, which splits
//! a pattern's root domain into **morsels** (contiguous index ranges)
//! and runs them through it:
//!
//! * **Work is admitted, not assumed.** The caller estimates the visits
//!   a match will make and asks `admitted_workers`: under
//!   `FAN_OUT_MIN_VISITS` the match gets one worker — its caller — and
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
//!   morsel index and `in_morsel_order` reassembles it, so every
//!   output equals the sequential run's whatever the worker count.
//! * **Panic isolation.** Every worker body — the caller's share too —
//!   runs inside `catch_unwind`; a panicking worker never unwinds into
//!   [`std::thread::scope`] (which would re-panic on the caller).
//!   Instead the queue is aborted, `fan_out` returns `None`, and the
//!   caller recomputes sequentially: the same answer without the
//!   speedup — the first rung of the governor's degradation ladder
//!   (DESIGN.md §11).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
/// [`default_threads`]). Set by [`set_executor_workers`]; read at
/// every fan-out decision.
static EXECUTOR_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the executor worker count for this process. `0` restores
/// auto-detection. Tests use it to let admitted queries take a helper
/// on a single-core machine, and benches to pin a reproducible size.
/// There is no per-server setting: every server in the process shares
/// this one.
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
/// pattern pipeline visits a candidate in ~20 ns inline, and taking
/// one helper costs ~200 µs end to end when its core is not free —
/// spawn, scratch set-up, morsel bookkeeping, the merge copy, and the
/// join waiting on a descheduled helper. That is under 10 % of the inline time only
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// The panic hook, the worker override, the helper permits and the
    /// fan-out counter are process-global; tests that arm, set, hold or
    /// count them — and the ones that merely take permits, unforced
    /// fan-outs — hold this lock so concurrent test threads do not
    /// steal each other's armed panic or permits. (A stolen panic is
    /// still *safe* — any fan-out degrades to the sequential answer —
    /// it just stops the assertion from being meaningful.)
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn lock_hooks() -> std::sync::MutexGuard<'static, ()> {
        HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
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

//! # gdm-govern
//!
//! The query governor: the machinery that keeps one adversarial query
//! from pinning a core forever. The paper's essential queries include
//! NP-complete (pattern matching, regular simple paths) and
//! super-linear (diameter) operations, so a production deployment must
//! be able to bound them. Three primitives compose into one guard:
//!
//! * [`Budget`] — node-visit, edge-visit, and row-emission counters
//!   checked against per-query limits,
//! * [`Deadline`] — a wall-clock cutoff,
//! * [`CancelToken`] — a shareable flag another thread (a client
//!   disconnect handler, an admin console) can trip at any time.
//!
//! [`ExecutionGuard`] bundles them. A search never touches the guard's
//! atomics or clock itself: it charges a [`Meter`]
//! ([`ExecutionGuard::meter`]), a per-thread counter that settles into
//! the guard every [`CHECK_INTERVAL`] units, at the search's explicit
//! [`Meter::settle`] points, and on drop. A settle checks every limit,
//! so a trip surfaces as [`GdmError::Interrupted`] carrying the reason
//! and the number of rows produced so far, and the search unwinds
//! cleanly. Ungoverned callers pass [`ExecutionGuard::unlimited`].
//!
//! All guard counters are atomics, so one guard can be shared by
//! reference across the scoped worker threads of `gdm_algo::parallel`,
//! each worker with its own meter.

use gdm_core::{GdmError, InterruptReason, Result};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod pool;
pub mod retry;

pub use pool::{BudgetPool, TenantAllowance};
pub use retry::RetryPolicy;

/// How many units a [`Meter`] counts before it settles into its guard:
/// the guard's atomics and clock are reached at most once per this
/// many visits. Small enough that a 1 ms deadline trips promptly in
/// any real search loop and a budget overruns by less than one
/// interval per thread; large enough that `Instant::now()` and shared
/// cache lines stay off the hot path.
pub const CHECK_INTERVAL: u64 = 256;

/// Per-query resource limits. `None` fields are unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits {
    /// Maximum node visits charged via [`Meter::nodes`].
    pub max_node_visits: Option<u64>,
    /// Maximum edge visits charged via [`Meter::edges`].
    pub max_edge_visits: Option<u64>,
    /// Maximum result rows emitted via [`Meter::rows`].
    pub max_rows: Option<u64>,
    /// Wall-clock allowance, measured from guard construction.
    pub deadline: Option<Duration>,
}

impl Limits {
    /// No limits at all — a guard built from this never interrupts
    /// unless its [`CancelToken`] is tripped.
    pub const fn none() -> Self {
        Limits {
            max_node_visits: None,
            max_edge_visits: None,
            max_rows: None,
            deadline: None,
        }
    }

    /// Sets the wall-clock allowance.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the node-visit ceiling.
    #[must_use]
    pub fn with_node_visits(mut self, max: u64) -> Self {
        self.max_node_visits = Some(max);
        self
    }

    /// Sets the edge-visit ceiling.
    #[must_use]
    pub fn with_edge_visits(mut self, max: u64) -> Self {
        self.max_edge_visits = Some(max);
        self
    }

    /// Sets the row-emission ceiling.
    #[must_use]
    pub fn with_rows(mut self, max: u64) -> Self {
        self.max_rows = Some(max);
        self
    }

    /// True when every field is unlimited.
    pub fn is_unlimited(&self) -> bool {
        *self == Limits::none()
    }
}

/// A shareable cancellation flag. Cloning yields a handle to the same
/// flag, so one side can hold the token while the guard (and the query
/// behind it) watches it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token; every guard sharing it interrupts at its next
    /// check point. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has the token been tripped?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Visit/row counters checked against [`Limits`]. Counters are atomics
/// (relaxed — they are statistics, not synchronization), so a budget
/// shared across worker threads stays a single global pool.
#[derive(Debug)]
pub struct Budget {
    nodes: AtomicU64,
    edges: AtomicU64,
    rows: AtomicU64,
    max_nodes: u64,
    max_edges: u64,
    max_rows: u64,
}

impl Budget {
    /// A budget enforcing `limits` (missing limits become `u64::MAX`).
    pub fn new(limits: &Limits) -> Self {
        Budget {
            nodes: AtomicU64::new(0),
            edges: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            max_nodes: limits.max_node_visits.unwrap_or(u64::MAX),
            max_edges: limits.max_edge_visits.unwrap_or(u64::MAX),
            max_rows: limits.max_rows.unwrap_or(u64::MAX),
        }
    }

    /// Node visits charged so far.
    pub fn node_visits(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Edge visits charged so far.
    pub fn edge_visits(&self) -> u64 {
        self.edges.load(Ordering::Relaxed)
    }

    /// Rows emitted so far.
    pub fn rows_emitted(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

/// A wall-clock cutoff measured from construction.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// Expires `allowance` from now.
    pub fn after(allowance: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(allowance),
        }
    }

    /// Never expires.
    pub const fn none() -> Self {
        Deadline { at: None }
    }

    /// Has the cutoff passed?
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

/// The combined governor of one query. Construction starts the
/// deadline clock; searches charge it through a [`Meter`] and
/// propagate the [`GdmError::Interrupted`] a settle returns on a trip.
#[derive(Debug)]
pub struct ExecutionGuard {
    budget: Budget,
    deadline: Deadline,
    cancel: CancelToken,
    /// Shared-pool allowance this guard draws visit credits from, when
    /// the query runs on behalf of a tenant (see [`pool`]).
    allowance: Option<Arc<TenantAllowance>>,
}

impl ExecutionGuard {
    /// A guard enforcing `limits` with a private cancel token.
    pub fn new(limits: Limits) -> Self {
        Self::with_cancel(limits, CancelToken::new())
    }

    /// A guard enforcing `limits`, interruptible through `cancel`.
    pub fn with_cancel(limits: Limits, cancel: CancelToken) -> Self {
        ExecutionGuard {
            budget: Budget::new(&limits),
            deadline: limits.deadline.map_or(Deadline::none(), Deadline::after),
            cancel,
            allowance: None,
        }
    }

    /// A guard that, in addition to `limits`, draws one shared-pool
    /// credit per node/edge visit from `allowance` — the multi-tenant
    /// serving configuration. When the tenant's allowance is exhausted
    /// the guard interrupts with [`InterruptReason::Throttled`]
    /// (re-exported reason of [`GdmError::Interrupted`]) at the next
    /// settle, leaving other tenants' credits untouched.
    pub fn with_allowance(
        limits: Limits,
        cancel: CancelToken,
        allowance: Arc<TenantAllowance>,
    ) -> Self {
        let mut g = Self::with_cancel(limits, cancel);
        g.allowance = Some(allowance);
        g
    }

    /// The tenant allowance this guard charges, if any.
    pub fn allowance(&self) -> Option<&Arc<TenantAllowance>> {
        self.allowance.as_ref()
    }

    /// A guard that never interrupts (its token is private and never
    /// tripped). Governed execution under this guard is equivalent to
    /// ungoverned execution.
    pub fn unlimited() -> Self {
        Self::new(Limits::none())
    }

    /// The cancel token this guard watches (clone it to keep a handle).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The budget counters (for telemetry and partial-result counts).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// A fresh meter charging this guard — one per search, and one per
    /// worker thread when a search fans out.
    pub fn meter(&self) -> Meter<'_> {
        Meter {
            guard: self,
            nodes: Cell::new(0),
            edges: Cell::new(0),
            rows: Cell::new(0),
        }
    }

    /// Unconditional cancellation + deadline check.
    pub fn check_now(&self) -> Result<()> {
        if self.cancel.is_cancelled() {
            return Err(self.interrupt(InterruptReason::Cancelled));
        }
        if self.deadline.expired() {
            return Err(self.interrupt(InterruptReason::Deadline));
        }
        Ok(())
    }

    /// Adds `k` units to `counter` in one atomic add, tripping once the
    /// total passes `max`; `credits` also draws `k` shared-pool credits
    /// when a tenant allowance is attached.
    fn draw(&self, counter: &AtomicU64, max: u64, k: u64, credits: bool) -> Result<()> {
        if k == 0 {
            return Ok(());
        }
        if counter.fetch_add(k, Ordering::Relaxed) + k > max {
            return Err(self.interrupt(InterruptReason::Budget));
        }
        match &self.allowance {
            Some(a) if credits => a.charge(k).map_or(Ok(()), |r| Err(self.interrupt(r))),
            _ => Ok(()),
        }
    }

    fn interrupt(&self, reason: InterruptReason) -> GdmError {
        GdmError::interrupted(reason, self.budget.rows_emitted())
    }
}

/// The one way a search charges its [`ExecutionGuard`].
///
/// A meter counts node visits, edge visits and emitted rows in plain
/// [`Cell`]s and settles them into the guard — rows, then nodes, then
/// edges, then the deadline/cancel check — in three cases: once
/// [`CHECK_INTERVAL`] units are pending, at an explicit
/// [`Meter::settle`] (the end of every search, every morsel boundary),
/// and on drop, so partial-result accounting survives an interrupted
/// or poisoned worker. A charge between settles is a cell add and a
/// compare: it reads no clock and touches no shared cache line, which
/// is what lets sequential searches and N parallel workers (one meter
/// each) charge per visit. Every limit — budget, allowance, deadline,
/// cancellation — is observed at settles only.
#[derive(Debug)]
pub struct Meter<'a> {
    guard: &'a ExecutionGuard,
    nodes: Cell<u64>,
    edges: Cell<u64>,
    rows: Cell<u64>,
}

impl Meter<'_> {
    /// Counts `k` node visits.
    #[inline]
    pub fn nodes(&self, k: u64) -> Result<()> {
        self.charge(&self.nodes, k)
    }

    /// Counts `k` edge visits.
    #[inline]
    pub fn edges(&self, k: u64) -> Result<()> {
        self.charge(&self.edges, k)
    }

    /// Counts `k` emitted rows.
    #[inline]
    pub fn rows(&self, k: u64) -> Result<()> {
        self.charge(&self.rows, k)
    }

    #[inline]
    fn charge(&self, cell: &Cell<u64>, k: u64) -> Result<()> {
        cell.set(cell.get() + k);
        if self.nodes.get() + self.edges.get() + self.rows.get() >= CHECK_INTERVAL {
            self.settle()
        } else {
            Ok(())
        }
    }

    /// Draws every pending count from the guard, then checks deadline
    /// and cancellation, returning the first trip observed. Rows go
    /// first so a trip's `partial` count covers every row this meter
    /// emitted.
    pub fn settle(&self) -> Result<()> {
        let (g, b) = (self.guard, &self.guard.budget);
        g.draw(&b.rows, b.max_rows, self.rows.take(), false)?;
        g.draw(&b.nodes, b.max_nodes, self.nodes.take(), true)?;
        g.draw(&b.edges, b.max_edges, self.edges.take(), true)?;
        g.check_now()
    }
}

impl Drop for Meter<'_> {
    /// Settles outstanding counts no matter how the search exits. A
    /// trip observed here is ignored: the search's fate is decided, and
    /// the atomic adds land regardless.
    fn drop(&mut self) {
        let _ = self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reason_of(e: GdmError) -> InterruptReason {
        e.interrupt_reason().expect("an interruption")
    }

    #[test]
    fn unlimited_guard_never_trips() {
        let g = ExecutionGuard::unlimited();
        let m = g.meter();
        for _ in 0..10_000 {
            m.nodes(1).unwrap();
            m.edges(1).unwrap();
            m.rows(1).unwrap();
        }
        m.settle().unwrap();
        g.check_now().unwrap();
        assert_eq!(g.budget().node_visits(), 10_000);
    }

    #[test]
    fn node_budget_trips_exactly_at_the_limit() {
        let g = ExecutionGuard::new(Limits::none().with_node_visits(3));
        let m = g.meter();
        m.nodes(3).unwrap();
        m.settle().unwrap();
        m.nodes(1).unwrap(); // below the interval: only counted
        assert_eq!(reason_of(m.settle().unwrap_err()), InterruptReason::Budget);
        assert_eq!(g.budget().node_visits(), 4);
    }

    #[test]
    fn edge_and_row_budgets_are_independent() {
        let g = ExecutionGuard::new(Limits::none().with_edge_visits(2).with_rows(1));
        let m = g.meter();
        m.nodes(1).unwrap();
        m.edges(2).unwrap();
        m.rows(1).unwrap();
        m.settle().unwrap();
        m.edges(1).unwrap();
        assert_eq!(reason_of(m.settle().unwrap_err()), InterruptReason::Budget);
        m.rows(1).unwrap();
        // Partial count travels in the error.
        match m.settle().unwrap_err() {
            GdmError::Interrupted { reason, partial } => {
                assert_eq!(reason, InterruptReason::Budget);
                assert_eq!(partial, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_deadline_trips_on_first_check() {
        let g = ExecutionGuard::new(Limits::none().with_deadline(Duration::ZERO));
        assert_eq!(
            reason_of(g.check_now().unwrap_err()),
            InterruptReason::Deadline
        );
        // A meter sees it within one interval of single charges…
        let m = g.meter();
        let tripped_at = (1..=CHECK_INTERVAL).find(|_| m.nodes(1).is_err());
        assert_eq!(tripped_at, Some(CHECK_INTERVAL));
        // …and at once on a charge of a whole interval.
        let m = g.meter();
        assert_eq!(
            reason_of(m.rows(CHECK_INTERVAL).unwrap_err()),
            InterruptReason::Deadline
        );
    }

    #[test]
    fn cancel_token_interrupts_from_another_thread() {
        let g = ExecutionGuard::unlimited();
        let token = g.cancel_token().clone();
        std::thread::spawn(move || token.cancel())
            .join()
            .expect("cancel thread");
        let err = g.check_now().unwrap_err();
        assert_eq!(reason_of(err), InterruptReason::Cancelled);
        let m = g.meter();
        m.nodes(1).unwrap();
        assert_eq!(
            reason_of(m.settle().unwrap_err()),
            InterruptReason::Cancelled
        );
    }

    #[test]
    fn allowance_throttles_across_guards_and_refill_revives() {
        let mut pool = BudgetPool::new();
        let tenant = pool.register("acme", 1, 100);
        // Two concurrent guards share the tenant's 100-credit allowance.
        let g1 = ExecutionGuard::with_allowance(Limits::none(), CancelToken::new(), tenant.clone());
        let g2 = ExecutionGuard::with_allowance(Limits::none(), CancelToken::new(), tenant.clone());
        let (m1, m2) = (g1.meter(), g2.meter());
        m1.nodes(50).unwrap();
        m2.edges(50).unwrap();
        m1.settle().unwrap();
        m2.settle().unwrap();
        m1.nodes(1).unwrap();
        assert_eq!(
            reason_of(m1.settle().unwrap_err()),
            InterruptReason::Throttled
        );
        m2.nodes(1).unwrap();
        assert_eq!(
            reason_of(m2.settle().unwrap_err()),
            InterruptReason::Throttled
        );
        // A refill lets a fresh guard for the same tenant run again.
        pool.refill(10);
        let g3 = ExecutionGuard::with_allowance(Limits::none(), CancelToken::new(), tenant);
        let m3 = g3.meter();
        m3.nodes(1).unwrap();
        m3.settle().unwrap();
        // Per-guard budgets still travel on the same guard.
        assert_eq!(g3.budget().node_visits(), 1);
    }

    #[test]
    fn batch_charges_match_per_visit_semantics() {
        let limits = Limits::none().with_node_visits(100).with_rows(10);
        let (per_visit, batched) = (ExecutionGuard::new(limits), ExecutionGuard::new(limits));
        let (one, bulk) = (per_visit.meter(), batched.meter());
        for _ in 0..100 {
            one.nodes(1).unwrap();
        }
        bulk.nodes(64).unwrap();
        bulk.nodes(36).unwrap();
        for m in [&one, &bulk] {
            m.rows(10).unwrap();
            m.settle().unwrap();
            m.rows(1).unwrap();
            assert_eq!(reason_of(m.settle().unwrap_err()), InterruptReason::Budget);
        }
        assert_eq!(per_visit.budget().node_visits(), 100);
        assert_eq!(batched.budget().node_visits(), 100);
    }

    #[test]
    fn batch_charges_draw_from_tenant_allowance() {
        let mut pool = BudgetPool::new();
        let tenant = pool.register("acme", 1, 100);
        let g = ExecutionGuard::with_allowance(Limits::none(), CancelToken::new(), tenant.clone());
        let m = g.meter();
        m.nodes(60).unwrap();
        m.edges(40).unwrap();
        m.rows(5).unwrap(); // rows draw no credits
        m.settle().unwrap();
        assert_eq!(tenant.charged(), 100);
        m.nodes(1).unwrap();
        assert_eq!(
            reason_of(m.settle().unwrap_err()),
            InterruptReason::Throttled
        );
    }

    #[test]
    fn worker_guard_batches_charges_and_settles_on_drop() {
        let g = ExecutionGuard::unlimited();
        {
            let m = g.meter();
            m.nodes(100).unwrap();
            m.edges(50).unwrap();
            m.rows(7).unwrap();
            // Below the interval nothing reaches the guard yet.
            assert_eq!(g.budget().node_visits(), 0);
            m.settle().unwrap();
            assert_eq!(g.budget().node_visits(), 100);
            assert_eq!(g.budget().edge_visits(), 50);
            assert_eq!(g.budget().rows_emitted(), 7);
            m.nodes(9).unwrap();
        } // drop settles the trailing 9
        assert_eq!(g.budget().node_visits(), 109);
    }

    #[test]
    fn worker_guard_flushes_automatically_past_the_threshold() {
        let g = ExecutionGuard::unlimited();
        let m = g.meter();
        m.nodes(50).unwrap();
        m.edges(CHECK_INTERVAL - 51).unwrap();
        assert_eq!(g.budget().node_visits(), 0);
        m.rows(1).unwrap(); // the interval counts every unit: settles
        assert_eq!(g.budget().node_visits(), 50);
        assert_eq!(g.budget().edge_visits(), CHECK_INTERVAL - 51);
        assert_eq!(g.budget().rows_emitted(), 1);
    }

    #[test]
    fn meter_budget_trip_counts_rows_settled_first() {
        let g = ExecutionGuard::new(Limits::none().with_node_visits(10));
        let m = g.meter();
        m.rows(3).unwrap();
        m.nodes(50).unwrap();
        // Rows settled before the tripping node draw, so the partial
        // count carries the meter's emitted rows.
        match m.settle().unwrap_err() {
            GdmError::Interrupted { reason, partial } => {
                assert_eq!(reason, InterruptReason::Budget);
                assert_eq!(partial, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn two_workers_merge_into_one_shared_budget() {
        let g = ExecutionGuard::new(Limits::none().with_node_visits(100));
        let (m1, m2) = (g.meter(), g.meter());
        m1.nodes(60).unwrap();
        m2.nodes(60).unwrap();
        m1.settle().unwrap();
        // The pool is shared: the second meter's settle trips it.
        assert_eq!(reason_of(m2.settle().unwrap_err()), InterruptReason::Budget);
        assert_eq!(g.budget().node_visits(), 120);
    }

    #[test]
    fn limits_builders_compose() {
        let l = Limits::none()
            .with_deadline(Duration::from_millis(5))
            .with_node_visits(10)
            .with_edge_visits(20)
            .with_rows(30);
        assert!(!l.is_unlimited());
        assert_eq!(l.max_node_visits, Some(10));
        assert_eq!(l.max_edge_visits, Some(20));
        assert_eq!(l.max_rows, Some(30));
        assert!(Limits::default().is_unlimited());
    }
}

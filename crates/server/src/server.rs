//! The server: listener, worker pool, refill pacer, shutdown drain.
//!
//! Threading model (all `std`, no async): one acceptor thread blocks
//! on [`TcpListener::accept`] and feeds connections through an mpsc
//! channel to a fixed pool of session workers — each connection is
//! owned by one worker for its whole life (sessions are stateful:
//! they authenticate once, then stream queries). One pacer thread
//! refills the fair budget pool on a fixed cadence.
//!
//! Engines are deliberately not `Send`, so the server never holds one:
//! it takes a [`ServingSnapshot`] (immutable CSR graph + engine
//! identity + default limits) at startup and shares it read-only
//! across workers.
//!
//! Shutdown: a stop flag plus a self-connection to unblock the
//! acceptor. Sessions poll the flag between requests (their sockets
//! carry a short read timeout), finish whatever query is in flight,
//! and close — a drain, not an abort.

use crate::admission::Admission;
use crate::protocol::{CacheStats, HealthReply, StatsReply, TenantStats};
use crate::refresh::RefreshPolicy;
use crate::session;
use gdm_engines::ServingSnapshot;
use gdm_govern::{BudgetPool, Limits};
use gdm_query::PlanCache;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reserved budget-pool principal the refresh path draws from. The
/// name cannot collide with a tenant: `TenantConfig` names come from
/// configuration and sessions authenticate by exact match, while this
/// principal is registered by [`serve`] itself.
pub const REFRESH_PRINCIPAL: &str = "::refresh";

/// One tenant's serving configuration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant name clients authenticate as.
    pub name: String,
    /// Fair-share weight in the budget pool (≥ 1).
    pub weight: u64,
    /// Maximum concurrently executing queries before admission sheds.
    pub max_in_flight: usize,
    /// Burst cap on banked pool credits.
    pub burst_cap: i64,
    /// Shared secret; `None` admits the tenant by name alone.
    pub secret: Option<String>,
}

impl TenantConfig {
    /// A tenant with the given fairness weight and serving defaults:
    /// 4 in-flight queries, a 100k-credit burst cap, no secret.
    pub fn new(name: impl Into<String>, weight: u64) -> Self {
        TenantConfig {
            name: name.into(),
            weight,
            max_in_flight: 4,
            burst_cap: 100_000,
            secret: None,
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Session worker threads (= maximum concurrent connections).
    pub workers: usize,
    /// Concurrently executing queries across all sessions.
    pub slots: usize,
    /// Admission wait-queue length; a request past it is shed.
    pub queue: usize,
    /// The tenants sessions may authenticate to.
    pub tenants: Vec<TenantConfig>,
    /// Budget-pool refill cadence.
    pub refill_interval: Duration,
    /// Credits distributed per refill (split by weighted max-min).
    pub refill_credits: u64,
    /// Per-query limits; `None` uses the snapshot engine's defaults.
    pub query_limits: Option<Limits>,
    /// Plans the shared cache holds before FIFO eviction.
    pub plan_cache_capacity: usize,
    /// Once the first byte of a frame has arrived, the whole frame
    /// must arrive within this deadline — the slowloris cutoff. A
    /// session holding a frame open past it is reaped (connection
    /// closed, `sessions_reaped` incremented) so it cannot pin a
    /// pooled worker with 4 bytes and silence.
    pub frame_deadline: Duration,
    /// Sessions idle (no frame started) longer than this are reaped.
    /// Generous by default: idle sessions are cheap, but unbounded
    /// lifetimes leak worker threads to clients that never hang up.
    pub idle_timeout: Duration,
    /// Socket write timeout: a client that stops reading while the
    /// server is mid-reply cannot wedge the worker in `write_frame`.
    pub write_timeout: Duration,
    /// Test/chaos hook: when true, the reserved query text
    /// `"::chaos-panic"` panics inside query execution, exercising the
    /// `catch_unwind` containment path (`queries_poisoned`). Never
    /// enable in production configurations.
    pub panic_injection: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            slots: 2,
            queue: 8,
            tenants: Vec::new(),
            refill_interval: Duration::from_millis(20),
            refill_credits: 50_000,
            query_limits: None,
            plan_cache_capacity: 64,
            frame_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(10),
            panic_injection: false,
        }
    }
}

/// Everything the worker threads share.
pub(crate) struct Shared {
    /// The serving snapshot, swappable by [`ServerHandle::refresh_with`].
    /// Sessions clone the `Arc` once per query, so a swap never moves
    /// the graph under an executing query — in-flight work finishes on
    /// the epoch it started with.
    pub(crate) snapshot: Mutex<Arc<ServingSnapshot>>,
    pub(crate) limits: Limits,
    pub(crate) tenants: Vec<TenantConfig>,
    pub(crate) pool: BudgetPool,
    pub(crate) admission: Arc<Admission>,
    pub(crate) cache: PlanCache,
    pub(crate) stop: AtomicBool,
    /// Slowloris cutoff: max wall-clock per mid-flight frame.
    pub(crate) frame_deadline: Duration,
    /// Idle-session max age before the reaper closes the connection.
    pub(crate) idle_timeout: Duration,
    /// Socket write timeout for session replies.
    pub(crate) write_timeout: Duration,
    /// Chaos hook: `"::chaos-panic"` queries panic (tests only).
    pub(crate) panic_injection: bool,
    /// Lifetime torn/oversized/undecodable frames.
    pub(crate) frame_errors: AtomicU64,
    /// Lifetime sessions closed by the frame deadline or idle max-age.
    pub(crate) sessions_reaped: AtomicU64,
    /// Lifetime queries contained by `catch_unwind`.
    pub(crate) queries_poisoned: AtomicU64,
    /// Lifetime snapshot refreshes.
    refreshes: AtomicU64,
    /// Microseconds the most recent refresh spent building + swapping.
    last_refresh_us: AtomicU64,
    /// Lifetime failed refresh attempts.
    refresh_failures: AtomicU64,
    /// Failed refresh attempts since the last success.
    consecutive_refresh_failures: AtomicU64,
    /// Drift behind the serving snapshot, as last reported to
    /// [`ServerHandle::refresh_if_due`] (0 before the first call).
    pending_changes: AtomicU64,
    /// When the serving snapshot was installed (serve() or last swap).
    last_refresh_at: Mutex<Instant>,
    /// The policy of the last [`ServerHandle::refresh_if_due`] call,
    /// which `HEALTH` classifies drift by; `None` before the first.
    refresh_policy: Mutex<Option<RefreshPolicy>>,
    /// When the backoff after a failed [`ServerHandle::refresh_if_due`]
    /// build ends; cleared by its next success.
    backoff_until: Mutex<Option<Instant>>,
    addr: SocketAddr,
}

impl Shared {
    /// The snapshot new queries should pin (one `Arc` clone).
    pub(crate) fn current(&self) -> Arc<ServingSnapshot> {
        self.snapshot.lock().expect("snapshot lock").clone()
    }

    /// Sets the stop flag and pokes the acceptor awake with a throwaway
    /// self-connection. Idempotent; connection failure just means the
    /// acceptor is already gone.
    pub(crate) fn trigger_stop(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }

    /// The counters behind the `STATS` command.
    pub(crate) fn stats(&self) -> StatsReply {
        StatsReply {
            tenants: self
                .pool
                .tenants()
                .iter()
                .map(|t| TenantStats {
                    name: t.name().to_owned(),
                    weight: t.weight(),
                    credits: t.credits(),
                    charged: t.charged(),
                    throttled: t.throttled(),
                    shed: self.admission.tenant_shed(t.name()),
                })
                .collect(),
            plan_cache: CacheStats {
                hits: self.cache.hits(),
                misses: self.cache.misses(),
                entries: self.cache.len() as u64,
                epoch_evictions: self.cache.epoch_evictions(),
            },
            queue_shed: self.admission.queue_shed(),
            executor_workers: gdm_algo::executor_workers() as u64,
            fanned_out: gdm_algo::parallel::fanned_out(),
            snapshot_epoch: self.current().frozen.epoch(),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            last_refresh_us: self.last_refresh_us.load(Ordering::Relaxed),
            refresh_failures: self.refresh_failures.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
            sessions_reaped: self.sessions_reaped.load(Ordering::Relaxed),
            queries_poisoned: self.queries_poisoned.load(Ordering::Relaxed),
        }
    }

    /// How long the serving snapshot has been installed.
    fn snapshot_age(&self) -> Duration {
        self.last_refresh_at
            .lock()
            .expect("refresh clock")
            .elapsed()
    }

    /// The serving health state behind the `HEALTH` command. Degraded
    /// beats stale beats ready: a failing refresh is actionable even
    /// when the snapshot also happens to be behind.
    pub(crate) fn health(&self) -> HealthReply {
        let pending = self.pending_changes.load(Ordering::Relaxed);
        let consecutive = self.consecutive_refresh_failures.load(Ordering::Relaxed);
        let age = self.snapshot_age();
        let policy = *self.refresh_policy.lock().expect("refresh policy");
        let state = if consecutive > 0 {
            "degraded"
        } else if policy.is_some_and(|p| p.is_due(pending, age)) {
            "stale"
        } else {
            "ready"
        };
        HealthReply {
            state: state.to_owned(),
            snapshot_epoch: self.current().frozen.epoch(),
            snapshot_age_ms: age.as_millis() as u64,
            pending_changes: pending,
            auto_refresh: policy.is_some(),
            refresh_failures: self.refresh_failures.load(Ordering::Relaxed),
            consecutive_refresh_failures: consecutive,
        }
    }

    /// The shared refresh path behind [`ServerHandle::refresh_with`]
    /// and [`ServerHandle::refresh_if_due`]: budget gate, build, atomic
    /// swap, counters. A failed build leaves the serving snapshot
    /// untouched and counts a refresh failure.
    pub(crate) fn do_refresh<F>(&self, build: F) -> io::Result<u64>
    where
        F: FnOnce(&gdm_algo::FrozenGraph) -> gdm_core::Result<gdm_algo::FrozenGraph>,
    {
        let fail = |e: io::Error| {
            self.refresh_failures.fetch_add(1, Ordering::Relaxed);
            self.consecutive_refresh_failures
                .fetch_add(1, Ordering::Relaxed);
            e
        };
        let allowance = self.pool.get(REFRESH_PRINCIPAL);
        if let Some(a) = &allowance {
            if !a.has_credit() {
                return Err(fail(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "refresh budget exhausted: retry after the pool refills",
                )));
            }
        }
        let started = Instant::now();
        let prev = self.current();
        let frozen = build(&prev.frozen)
            .map_err(|e| fail(io::Error::new(io::ErrorKind::InvalidData, e.to_string())))?;
        let epoch = frozen.epoch();
        let work = frozen.freeze_work();
        let next = Arc::new(ServingSnapshot {
            engine: prev.engine,
            frozen,
            limits: prev.limits,
        });
        *self.snapshot.lock().expect("snapshot lock") = next;
        *self.last_refresh_at.lock().expect("refresh clock") = Instant::now();
        self.last_refresh_us
            .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        self.consecutive_refresh_failures
            .store(0, Ordering::Relaxed);
        if let Some(a) = allowance {
            // Overdraft (not refusal) on purpose: the work is already
            // done, so record it and let the debt gate the next one.
            let _ = a.charge(work);
        }
        Ok(epoch)
    }
}

/// A running server. Keep it; dropping without [`ServerHandle::shutdown`]
/// leaks the worker threads until process exit.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (an ephemeral loopback port under test).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters, without a session.
    pub fn stats(&self) -> StatsReply {
        self.shared.stats()
    }

    /// Refreshes the serving snapshot without stopping the server.
    ///
    /// `build` receives the snapshot currently serving and returns its
    /// replacement — typically the owning thread's engine calling
    /// [`gdm_engines::GraphEngine::refreeze`], which patches only the
    /// rows its delta tracker recorded (O(changes), not O(graph)). The
    /// engine stays with its owner: only the immutable result crosses
    /// into the server, swapped in atomically behind an `Arc`.
    /// Sessions pin the snapshot per query, so in-flight queries
    /// finish on the epoch they started with and the *next* query
    /// observes the new one; stale plan-cache entries evict lazily by
    /// epoch tag.
    ///
    /// Refresh work is metered like tenant work: the build is charged
    /// to the reserved [`REFRESH_PRINCIPAL`] budget at one credit per
    /// unit of [`gdm_algo::FrozenGraph::freeze_work`], and a refresh is
    /// refused (`WouldBlock`) while that principal is overdrawn — a
    /// hot mutation loop cannot starve query traffic by re-freezing
    /// continuously. Returns the new serving epoch.
    pub fn refresh_with<F>(&self, build: F) -> io::Result<u64>
    where
        F: FnOnce(&gdm_algo::FrozenGraph) -> gdm_core::Result<gdm_algo::FrozenGraph>,
    {
        self.shared.do_refresh(build)
    }

    /// The serving health state (same payload as the `HEALTH`
    /// protocol command), without a session.
    pub fn health(&self) -> HealthReply {
        self.shared.health()
    }

    /// The engine owner's auto-refresh step: call it from the loop
    /// where the engine mutates, with the drift the engine reports
    /// ([`gdm_engines::GraphEngine::pending_changes`]) and the build
    /// [`ServerHandle::refresh_with`] takes (typically
    /// `|prev| db.refreeze(prev)`).
    ///
    /// It publishes `pending` for `HEALTH` (which from now on reports
    /// `auto_refresh` and classifies drift by `policy`), then refreshes
    /// through the same budget-metered path as `refresh_with` when
    /// [`RefreshPolicy::is_due`] says so and no failure backoff is
    /// running. Returns the new serving epoch, `Ok(None)` when nothing
    /// was due, or the failed refresh's error.
    ///
    /// Failure is survivable by construction: a failed build leaves
    /// the previous snapshot serving, marks health `degraded`, and
    /// makes the calls of the next [`RefreshPolicy::backoff`] return
    /// `Ok(None)` without building — a pause that doubles per
    /// consecutive failure. A success clears the backoff and the
    /// published drift.
    pub fn refresh_if_due<F>(
        &self,
        policy: &RefreshPolicy,
        pending: u64,
        build: F,
    ) -> io::Result<Option<u64>>
    where
        F: FnOnce(&gdm_algo::FrozenGraph) -> gdm_core::Result<gdm_algo::FrozenGraph>,
    {
        let shared = &self.shared;
        *shared.refresh_policy.lock().expect("refresh policy") = Some(*policy);
        shared.pending_changes.store(pending, Ordering::Relaxed);
        let mut backoff_until = shared.backoff_until.lock().expect("refresh backoff");
        if backoff_until.is_some_and(|t| Instant::now() < t)
            || !policy.is_due(pending, shared.snapshot_age())
        {
            return Ok(None);
        }
        match shared.do_refresh(build) {
            Ok(epoch) => {
                *backoff_until = None;
                shared.pending_changes.store(0, Ordering::Relaxed);
                Ok(Some(epoch))
            }
            Err(e) => {
                let failures = shared.consecutive_refresh_failures.load(Ordering::Relaxed);
                *backoff_until = Some(Instant::now() + policy.backoff(failures));
                Err(e)
            }
        }
    }

    /// Stops accepting, drains in-flight sessions, joins every thread.
    /// Also completes a shutdown a client already triggered remotely.
    pub fn shutdown(mut self) {
        self.shared.trigger_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Waits for the server to stop without triggering it — pair with
    /// a client-sent `Shutdown` request.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds a loopback listener and serves `snapshot` under `config`.
/// Returns once the listener is live; queries run on worker threads.
pub fn serve(snapshot: ServingSnapshot, config: ServerConfig) -> io::Result<ServerHandle> {
    if config.tenants.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a server needs at least one tenant",
        ));
    }
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;

    let mut pool = BudgetPool::new();
    for t in &config.tenants {
        pool.register(t.name.clone(), t.weight, t.burst_cap);
    }
    // The refresh path draws from the same fair pool as the tenants
    // (weight 1), so snapshot rebuild work is globally accounted and
    // cannot silently crowd out query budgets.
    pool.register(
        REFRESH_PRINCIPAL.to_owned(),
        1,
        config.refill_credits as i64,
    );
    let admission = Admission::new(
        config.slots,
        config.queue,
        &config
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.max_in_flight))
            .collect::<Vec<_>>(),
    );
    let limits = config.query_limits.unwrap_or(snapshot.limits);
    let shared = Arc::new(Shared {
        snapshot: Mutex::new(Arc::new(snapshot)),
        limits,
        tenants: config.tenants.clone(),
        pool,
        admission,
        cache: PlanCache::new(config.plan_cache_capacity),
        stop: AtomicBool::new(false),
        frame_deadline: config.frame_deadline,
        idle_timeout: config.idle_timeout,
        write_timeout: config.write_timeout,
        panic_injection: config.panic_injection,
        frame_errors: AtomicU64::new(0),
        sessions_reaped: AtomicU64::new(0),
        queries_poisoned: AtomicU64::new(0),
        refreshes: AtomicU64::new(0),
        last_refresh_us: AtomicU64::new(0),
        refresh_failures: AtomicU64::new(0),
        consecutive_refresh_failures: AtomicU64::new(0),
        pending_changes: AtomicU64::new(0),
        last_refresh_at: Mutex::new(Instant::now()),
        refresh_policy: Mutex::new(None),
        backoff_until: Mutex::new(None),
        addr,
    });

    let mut threads = Vec::new();

    // Refill pacer: the fair-share scheduler's clock.
    {
        let shared = shared.clone();
        let interval = config.refill_interval;
        let credits = config.refill_credits;
        threads.push(std::thread::spawn(move || {
            while !shared.stop.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                shared.pool.refill(credits);
            }
        }));
    }

    // Session workers, fed by the acceptor through a channel.
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    for _ in 0..config.workers.max(1) {
        let shared = shared.clone();
        let rx = rx.clone();
        threads.push(std::thread::spawn(move || loop {
            let conn = rx.lock().expect("worker queue lock").recv();
            match conn {
                Ok(stream) => session::serve_session(stream, &shared),
                Err(_) => break, // acceptor gone: no more connections
            }
        }));
    }

    // Acceptor.
    {
        let shared = shared.clone();
        threads.push(std::thread::spawn(move || {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if shared.stop.load(Ordering::Acquire) {
                            break; // the wake-up connection, or late arrivals
                        }
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(_) => {
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        // Transient accept failure: keep serving.
                    }
                }
            }
            // tx drops here; workers drain the queue and exit.
        }));
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

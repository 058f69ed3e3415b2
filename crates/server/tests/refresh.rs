//! Live snapshot refresh over the wire.
//!
//! Five integration proofs:
//!
//! 1. A scripted session shows the whole freshness protocol: a cached
//!    plan serves repeats, a mutation plus [`ServerHandle::refresh_with`]
//!    advances the serving epoch, the very next query of the same text
//!    sees the new data (its stale plan is epoch-evicted, not served),
//!    and `STATS` reports the refresh counters and echoes the process's
//!    executor worker count.
//! 2. Sessions hammering queries *while* the snapshot is swapped under
//!    them never observe an error: every response is a complete row
//!    set, and the row counts a session sees only grow — each query
//!    pins the snapshot it started on.
//! 3. The plan cache is consulted before the text is parsed: a repeated
//!    text is a hit with identical rows, and a text that does not parse
//!    as `MATCH` gets the same `Error` every time and is never cached.
//! 4. [`ServerHandle::refresh_if_due`] builds exactly when its policy
//!    says so: on enough changes, on any change past the staleness
//!    bound, on a degraded tracker's `u64::MAX` — and never inside the
//!    backoff a failed build starts.
//! 5. A running backoff does not hold up shutdown: no refresh thread
//!    exists to wait for.

use gdm_algo::FrozenGraph;
use gdm_core::props;
use gdm_engines::{make_engine, EngineKind, GraphEngine};
use gdm_server::protocol::Response;
use gdm_server::{serve, Client, RefreshPolicy, ServerConfig, ServerHandle, TenantConfig};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERY: &str = "MATCH (p:person) RETURN p.name";
const PEOPLE: usize = 50;
/// The process-wide executor worker count every server in this file
/// runs under.
const EXECUTOR_WORKERS: usize = 2;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gdm-refresh-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A Neo4j emulation with `PEOPLE` connected person nodes, served with
/// generous budgets so the test never trips fairness throttling.
fn start(tag: &str) -> (Box<dyn GraphEngine>, ServerHandle, std::path::PathBuf) {
    let dir = temp_dir(tag);
    let mut db = make_engine(EngineKind::Neo4j, &dir).unwrap();
    let mut prev = None;
    for i in 0..PEOPLE {
        let n = db
            .create_node(Some("person"), props! { "name" => format!("p{i}") })
            .unwrap();
        if let Some(p) = prev {
            db.create_edge(p, n, Some("knows"), props! {}).unwrap();
        }
        prev = Some(n);
    }
    gdm_algo::set_executor_workers(EXECUTOR_WORKERS);
    let mut config = ServerConfig {
        refill_credits: 500_000,
        ..ServerConfig::default()
    };
    let mut alpha = TenantConfig::new("alpha", 1);
    alpha.burst_cap = 1_000_000;
    config.tenants.push(alpha);
    let handle = serve(db.serving_snapshot().unwrap(), config).unwrap();
    (db, handle, dir)
}

fn rows(resp: Response) -> gdm_server::protocol::Rows {
    match resp {
        Response::Rows(r) => r,
        other => panic!("expected Rows, got {other:?}"),
    }
}

/// Adds one more connected person and refreshes the serving snapshot
/// incrementally; returns the new serving epoch.
fn grow_and_refresh(db: &mut Box<dyn GraphEngine>, handle: &ServerHandle, i: usize) -> u64 {
    let n = db
        .create_node(Some("person"), props! { "name" => format!("new{i}") })
        .unwrap();
    let anchor = gdm_core::NodeId(0);
    db.create_edge(anchor, n, Some("knows"), props! {}).unwrap();
    handle.refresh_with(|prev| db.refreeze(prev)).unwrap()
}

#[test]
fn cache_lookup_precedes_parsing_and_rejected_texts_never_enter_it() {
    let (_db, handle, dir) = start("hit-path");
    let mut c = Client::connect(handle.addr()).unwrap();
    c.hello("alpha", None).unwrap();
    let first = rows(c.query(QUERY).unwrap());
    let repeat = rows(c.query(QUERY).unwrap());
    assert!(!first.cached_plan && repeat.cached_plan);
    assert_eq!(
        (&first.columns, &first.rows),
        (&repeat.columns, &repeat.rows)
    );
    assert_eq!(c.stats().unwrap().plan_cache.entries, 1);

    let syntax_error = "MATCH (p:person RETURN p.name";
    let not_a_match = "CREATE (n:person {name:'x'})";
    for (text, want) in [
        (
            syntax_error,
            gdm_query::cypher::parse(syntax_error)
                .unwrap_err()
                .to_string(),
        ),
        (
            not_a_match,
            "the server serves an immutable snapshot: only MATCH queries are accepted".to_owned(),
        ),
    ] {
        for _ in 0..2 {
            match c.query(text).unwrap() {
                Response::Error(e) => assert_eq!(e.message, want),
                other => panic!("expected Error for {text:?}, got {other:?}"),
            }
        }
    }
    let stats = c.stats().unwrap();
    assert_eq!(stats.plan_cache.entries, 1, "rejected texts are not cached");
    assert_eq!(stats.plan_cache.hits, 1);
    c.goodbye().ok();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refresh_protocol_end_to_end() {
    let (mut db, handle, dir) = start("scripted");
    let epoch0 = handle.stats().snapshot_epoch;

    let mut c = Client::connect(handle.addr()).unwrap();
    c.hello("alpha", None).unwrap();
    let first = rows(c.query(QUERY).unwrap());
    assert_eq!(first.rows.len(), PEOPLE);
    assert!(!first.cached_plan, "first run must plan");
    let repeat = rows(c.query(QUERY).unwrap());
    assert!(repeat.cached_plan, "repeat must hit the plan cache");

    let epoch1 = grow_and_refresh(&mut db, &handle, 0);
    assert!(epoch1 > epoch0, "refresh must advance the serving epoch");

    // Same query text, next query: new data, freshly planned (the
    // epoch-tagged cache entry from epoch0 must not serve).
    let after = rows(c.query(QUERY).unwrap());
    assert_eq!(after.rows.len(), PEOPLE + 1, "refresh exposes new data");
    assert!(!after.cached_plan, "stale plan must be evicted, not served");
    let again = rows(c.query(QUERY).unwrap());
    assert!(again.cached_plan, "re-cached under the new epoch");

    let stats = c.stats().unwrap();
    assert_eq!(stats.snapshot_epoch, epoch1);
    assert_eq!(stats.refreshes, 1);
    assert!(stats.last_refresh_us > 0);
    assert!(stats.plan_cache.epoch_evictions >= 1);
    assert_eq!(stats.executor_workers, EXECUTOR_WORKERS as u64);
    c.goodbye().ok();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_flight_sessions_survive_refreshes() {
    let (mut db, handle, dir) = start("inflight");
    let addr = handle.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Two sessions hammer the same query for the whole run. Every
    // response must be a complete row set, and the counts each session
    // observes must never shrink: a query keeps the snapshot it
    // pinned, later queries see equal-or-newer epochs.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.hello("alpha", None).expect("hello");
                let mut seen = 0usize;
                let mut completed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let r = rows(c.query(QUERY).expect("query io"));
                    assert!(
                        r.rows.len() >= seen,
                        "row count shrank from {seen} to {} across queries",
                        r.rows.len()
                    );
                    seen = r.rows.len();
                    completed += 1;
                }
                c.goodbye().ok();
                (completed, seen)
            })
        })
        .collect();

    // Interleave growth and incremental refreshes with the traffic.
    const REFRESHES: usize = 8;
    for i in 0..REFRESHES {
        std::thread::sleep(Duration::from_millis(30));
        grow_and_refresh(&mut db, &handle, i);
    }
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);

    let mut total = 0;
    for w in workers {
        let (completed, seen) = w.join().expect("worker panicked (a query errored)");
        assert!(completed > 0, "worker never completed a query");
        total += completed;
        assert!(
            seen <= PEOPLE + REFRESHES,
            "worker saw more rows than exist"
        );
    }

    // A fresh session sees all the refreshed data.
    let mut c = Client::connect(addr).unwrap();
    c.hello("alpha", None).unwrap();
    let last = rows(c.query(QUERY).unwrap());
    assert_eq!(last.rows.len(), PEOPLE + REFRESHES);
    let stats = c.stats().unwrap();
    assert_eq!(stats.refreshes, REFRESHES as u64);
    assert!(stats.last_refresh_us > 0);
    assert!(total > 0);
    c.goodbye().ok();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn injected_failure(_prev: &FrozenGraph) -> gdm_core::Result<FrozenGraph> {
    Err(gdm_core::GdmError::Storage(
        "injected rebuild failure".into(),
    ))
}

#[test]
fn refresh_if_due_follows_its_policy() {
    let (db, handle, dir) = start("policy");
    let hour = Duration::from_secs(3600);
    let policy = RefreshPolicy {
        min_changes: 5,
        max_staleness: hour,
        failure_backoff: hour,
        max_backoff: hour,
    };
    let builds = Cell::new(0u32);
    let refreeze = |prev: &FrozenGraph| {
        builds.set(builds.get() + 1);
        db.refreeze(prev)
    };
    let failing = |prev: &FrozenGraph| {
        builds.set(builds.get() + 1);
        injected_failure(prev)
    };
    assert!(!handle.health().auto_refresh);

    // Below `min_changes` and younger than `max_staleness`: not due.
    assert_eq!(handle.refresh_if_due(&policy, 3, refreeze).unwrap(), None);
    assert_eq!(builds.get(), 0);
    assert_eq!(handle.stats().refreshes, 0);
    let h = handle.health();
    assert!(h.auto_refresh);
    assert_eq!((h.state.as_str(), h.pending_changes), ("ready", 3));

    // Enough changes: one build, and the published drift clears.
    assert!(handle
        .refresh_if_due(&policy, 5, refreeze)
        .unwrap()
        .is_some());
    assert_eq!(builds.get(), 1);
    assert_eq!(handle.stats().refreshes, 1);
    assert_eq!(handle.health().pending_changes, 0);

    // Any change past `max_staleness` (zero here, so always past it).
    let stale = RefreshPolicy {
        max_staleness: Duration::ZERO,
        ..policy
    };
    assert!(handle
        .refresh_if_due(&stale, 1, refreeze)
        .unwrap()
        .is_some());
    assert_eq!(builds.get(), 2);

    // A degraded tracker reports unbounded drift: due.
    assert!(handle
        .refresh_if_due(&policy, u64::MAX, refreeze)
        .unwrap()
        .is_some());
    assert_eq!(builds.get(), 3);

    // A failure degrades HEALTH and keeps the drift; with no backoff
    // the next call retries, and its success restores `ready`.
    let no_backoff = RefreshPolicy {
        failure_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        ..policy
    };
    assert!(handle.refresh_if_due(&no_backoff, 7, failing).is_err());
    let h = handle.health();
    assert_eq!((h.state.as_str(), h.pending_changes), ("degraded", 7));
    assert!(handle
        .refresh_if_due(&no_backoff, 7, refreeze)
        .unwrap()
        .is_some());
    let h = handle.health();
    assert_eq!((h.state.as_str(), h.pending_changes), ("ready", 0));
    assert_eq!((h.refresh_failures, h.consecutive_refresh_failures), (1, 0));
    assert_eq!(builds.get(), 5);

    // Inside the backoff window a failure starts, calls neither build
    // nor count a failure, but still publish the drift.
    assert!(handle.refresh_if_due(&policy, 8, failing).is_err());
    assert_eq!(builds.get(), 6);
    for pending in [9, u64::MAX] {
        assert_eq!(
            handle.refresh_if_due(&policy, pending, refreeze).unwrap(),
            None
        );
        let h = handle.health();
        assert_eq!((h.state.as_str(), h.pending_changes), ("degraded", pending));
        assert_eq!((h.refresh_failures, h.consecutive_refresh_failures), (2, 1));
    }
    assert_eq!(builds.get(), 6);
    assert_eq!(handle.stats().refreshes, 4);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_does_not_wait_out_a_refresh_backoff() {
    let (_db, handle, dir) = start("stall");
    let policy = RefreshPolicy {
        failure_backoff: Duration::from_secs(10),
        max_backoff: Duration::from_secs(10),
        ..RefreshPolicy::default()
    };
    assert!(handle
        .refresh_if_due(&policy, u64::MAX, injected_failure)
        .is_err());
    assert_eq!(handle.health().state, "degraded");

    let t0 = Instant::now();
    handle.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

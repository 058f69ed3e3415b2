//! Fault-tolerant serving under a hostile network.
//!
//! The tentpole proof (`tenants_survive_chaos_across_refreshes`) runs
//! four tenants through a seed-driven [`ChaosProxy`] that injects every
//! fault category — abrupt disconnects, partial writes, delayed bytes,
//! garbage frames, truncated frames, slowloris drip-feeds — while the
//! engine's owner re-freezes the serving snapshot under the traffic
//! through `ServerHandle::refresh_if_due`. Every tenant completes its
//! full query budget with exact results ([`RetryingClient`] reconnects
//! and retries transparently), nothing hangs (the whole test runs under a
//! watchdog), and the server's hardening counters show the faults were
//! absorbed as structured failures, not chaos.
//!
//! Satellite proofs pin each hardening mechanism in isolation:
//! slowloris reaped within the frame deadline while a neighbor keeps
//! answering, a length prefix split across poll timeouts still
//! answered, idle max-age reaping, `catch_unwind` containment of a
//! poisoned query, and the `HEALTH` state machine
//! (ready → degraded → ready) under injected refresh failures.

use graph_db_models::algo::FrozenGraph;
use graph_db_models::core::props;
use graph_db_models::engines::{make_engine, EngineKind, GraphEngine};
use graph_db_models::govern::RetryPolicy;
use graph_db_models::server::chaos::{ChaosConfig, ChaosProxy};
use graph_db_models::server::client::Deadlines;
use graph_db_models::server::protocol::{
    read_frame, write_frame, Hello, QueryReq, Request, Response,
};
use graph_db_models::server::refresh::RefreshPolicy;
use graph_db_models::server::{serve, Client, RetryingClient, ServerConfig, TenantConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PEOPLE: usize = 50;

/// The stable fixture: `PEOPLE` chained person nodes. Growth appends
/// nodes named `newN`, so these two queries have invariant answers:
/// the point query always returns exactly `p42`, and the scan only
/// ever grows.
const POINT_QUERY: &str = "MATCH (p:person) WHERE p.name = 'p42' RETURN p.name";
const SCAN_QUERY: &str = "MATCH (p:person) RETURN p.name";

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gdm-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine(tag: &str) -> (Box<dyn GraphEngine>, std::path::PathBuf) {
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
    (db, dir)
}

/// Generous budgets (chaos is about the transport, not fairness) and
/// a tight frame deadline so slowloris reaping is observable fast.
fn chaos_config(tenants: &[&str]) -> ServerConfig {
    let mut config = ServerConfig {
        workers: 8,
        slots: 4,
        queue: 16,
        refill_credits: 500_000,
        frame_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    for name in tenants {
        let mut t = TenantConfig::new(*name, 1);
        t.burst_cap = 1_000_000;
        t.max_in_flight = 4;
        config.tenants.push(t);
    }
    config
}

/// Runs `body` on its own thread and fails loudly if it outlives
/// `limit` — chaos tests must prove "no hangs", so a hang is a
/// failure, not a CI timeout.
fn watchdog<F: FnOnce() + Send + 'static>(limit: Duration, body: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        tx.send(()).ok();
    });
    rx.recv_timeout(limit).expect("watchdog: chaos test hung");
    worker.join().expect("chaos test body panicked");
}

#[test]
fn tenants_survive_chaos_across_refreshes() {
    watchdog(Duration::from_secs(120), || {
        let (mut db, dir) = engine("tentpole");
        let tenants = ["t0", "t1", "t2", "t3"];
        let handle = serve(db.serving_snapshot().unwrap(), chaos_config(&tenants)).unwrap();
        let epoch0 = handle.stats().snapshot_epoch;

        // Auto-refresh from the engine's owning thread: its mutation
        // loop below reports drift and refreshes when the policy says.
        let policy = RefreshPolicy {
            min_changes: 5,
            max_staleness: Duration::from_millis(150),
            failure_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(500),
        };

        let proxy = ChaosProxy::start(handle.addr(), ChaosConfig::full_menu(0xC4A05)).unwrap();
        let proxy_addr = proxy.addr();

        const QUERIES_PER_TENANT: u64 = 30;
        let clients_done = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let name = name.to_string();
                std::thread::spawn(move || {
                    let mut c = RetryingClient::new(proxy_addr, &name, None)
                        .unwrap()
                        .with_policy(RetryPolicy {
                            attempts: 30,
                            base_backoff_ms: 5,
                            max_backoff_ms: 200,
                            jitter: true,
                        })
                        .with_deadlines(Deadlines {
                            connect: Duration::from_secs(3),
                            read: Duration::from_secs(5),
                            write: Duration::from_secs(5),
                        })
                        .with_jitter_seed(i as u64);
                    let mut seen = 0usize;
                    for q in 0..QUERIES_PER_TENANT {
                        // Cycle the session every few queries so the
                        // proxy's fault schedule keeps advancing even
                        // for a lucky client on a clean connection.
                        if q > 0 && q % 6 == 0 {
                            c.goodbye();
                        }
                        if q % 2 == 0 {
                            match c.query(POINT_QUERY).expect("point query exhausted retries") {
                                Response::Rows(r) => {
                                    assert_eq!(
                                        r.rows.len(),
                                        1,
                                        "point query must return exactly p42"
                                    );
                                    assert_eq!(r.rows[0][0].as_str(), Some("p42"));
                                }
                                other => panic!("expected Rows, got {other:?}"),
                            }
                        } else {
                            match c.query(SCAN_QUERY).expect("scan query exhausted retries") {
                                Response::Rows(r) => {
                                    assert!(
                                        r.rows.len() >= seen && r.rows.len() >= PEOPLE,
                                        "scan shrank: {} then {}",
                                        seen,
                                        r.rows.len()
                                    );
                                    seen = r.rows.len();
                                }
                                other => panic!("expected Rows, got {other:?}"),
                            }
                        }
                    }
                    c.goodbye();
                    (c.connects(), c.retries())
                })
            })
            .collect();

        // Engine-owner loop: mutate, then refresh if due.
        {
            let done = clients_done.clone();
            let mut i = 0usize;
            while !done.load(Ordering::Relaxed) || handle.stats().refreshes < 4 {
                let n = db
                    .create_node(Some("person"), props! { "name" => format!("new{i}") })
                    .unwrap();
                db.create_edge(
                    graph_db_models::core::NodeId(0),
                    n,
                    Some("knows"),
                    props! {},
                )
                .unwrap();
                i += 1;
                // A refused or failed refresh backs off and retries.
                let _ =
                    handle.refresh_if_due(&policy, db.pending_changes(), |prev| db.refreeze(prev));
                std::thread::sleep(Duration::from_millis(10));
                if clients.iter().all(|c| c.is_finished()) {
                    done.store(true, Ordering::Relaxed);
                }
            }
        }

        let mut total_connects = 0u64;
        let mut total_retries = 0u64;
        for c in clients {
            let (connects, retries) = c.join().expect("tenant thread panicked");
            total_connects += connects;
            total_retries += retries;
        }

        // Every fault category was actually injected at least once...
        let faults = proxy.stats();
        assert!(faults.passthrough >= 1, "no clean connections: {faults:?}");
        assert!(
            faults.garbage_frames >= 1,
            "no garbage injected: {faults:?}"
        );
        assert!(
            faults.truncated_frames >= 1,
            "no truncated frames: {faults:?}"
        );
        assert!(faults.disconnects >= 1, "no disconnects: {faults:?}");
        assert!(faults.partial_writes >= 1, "no partial writes: {faults:?}");
        assert!(faults.slowloris >= 1, "no slowloris: {faults:?}");
        assert!(faults.delays >= 1, "no delay faults: {faults:?}");

        // ...the clients had to work for their completions...
        assert!(
            total_connects > tenants.len() as u64,
            "chaos must force reconnects (connects={total_connects})"
        );
        assert!(total_retries >= 1, "chaos must force retries");

        // ...and the server absorbed it all as structured, counted
        // failures while refreshing underneath.
        let stats = handle.stats();
        assert!(
            stats.frame_errors >= 1,
            "garbage/truncation must be counted: {stats:?}"
        );
        assert!(
            stats.sessions_reaped >= 1,
            "slowloris must be reaped: {stats:?}"
        );
        assert!(stats.refreshes >= 4, "need >=4 refreshes: {stats:?}");
        assert!(stats.snapshot_epoch > epoch0);
        assert_eq!(stats.queries_poisoned, 0);

        let health = handle.health();
        assert!(health.auto_refresh);
        assert!(health.snapshot_epoch > epoch0);

        proxy.stop();
        handle.shutdown(); // watchdog bounds the drain
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn slowloris_is_reaped_within_the_frame_deadline_while_neighbors_answer() {
    watchdog(Duration::from_secs(30), || {
        let (db, dir) = engine("slowloris");
        let mut config = chaos_config(&["alpha"]);
        config.frame_deadline = Duration::from_millis(300);
        let handle = serve(db.serving_snapshot().unwrap(), config).unwrap();

        // The attacker: 4 length bytes promising 1000, then a drip and
        // silence. The server must cut the connection, not wait.
        let mut attacker = TcpStream::connect(handle.addr()).unwrap();
        attacker
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        attacker.write_all(&1000u32.to_be_bytes()).unwrap();
        attacker.write_all(b"..").unwrap();
        let t0 = Instant::now();

        // A well-behaved neighbor keeps getting answers the whole time.
        let mut neighbor = Client::connect(handle.addr()).unwrap();
        neighbor.hello("alpha", None).unwrap();
        let mut answered = 0u64;
        let reaped_by = loop {
            match neighbor.query(POINT_QUERY).unwrap() {
                Response::Rows(r) => assert_eq!(r.rows[0][0].as_str(), Some("p42")),
                other => panic!("neighbor must keep answering, got {other:?}"),
            }
            answered += 1;
            // The attacker socket reads EOF once the server reaps it.
            let mut buf = [0u8; 16];
            attacker
                .set_read_timeout(Some(Duration::from_millis(10)))
                .unwrap();
            match std::io::Read::read(&mut attacker, &mut buf) {
                Ok(0) => break t0.elapsed(),
                Ok(_) => {}  // a best-effort error frame; keep draining
                Err(_) => {} // not reaped yet
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "slowloris never reaped"
            );
        };

        assert!(
            reaped_by >= Duration::from_millis(250),
            "reaped before the deadline could have elapsed: {reaped_by:?}"
        );
        assert!(
            reaped_by < Duration::from_secs(5),
            "reap took far longer than the 300ms deadline: {reaped_by:?}"
        );
        assert!(answered >= 1, "the neighbor was starved");
        assert!(handle.stats().sessions_reaped >= 1);

        neighbor.goodbye().ok();
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A length prefix split across two poll timeouts is one frame in
/// flight, not an idle gap and not a slowloris: the session waits for
/// the rest inside the frame deadline and answers it.
#[test]
fn split_length_prefix_is_answered_across_poll_timeouts() {
    watchdog(Duration::from_secs(30), || {
        let (db, dir) = engine("split-prefix");
        let handle = serve(db.serving_snapshot().unwrap(), chaos_config(&["alpha"])).unwrap();

        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.set_nodelay(true).unwrap();
        let hello = Request::Hello(Hello {
            tenant: "alpha".into(),
            secret: None,
        });
        write_frame(&mut raw, &hello).unwrap();
        let welcome: Option<Response> = read_frame(&mut raw).unwrap();
        assert!(matches!(welcome, Some(Response::Welcome(_))), "{welcome:?}");
        let before = handle.stats();

        let query = Request::Query(QueryReq {
            text: POINT_QUERY.into(),
        });
        let mut frame = Vec::new();
        write_frame(&mut frame, &query).unwrap();
        raw.write_all(&frame[..2]).unwrap();
        // Two 50 ms poll timeouts, well inside the 500 ms frame deadline.
        std::thread::sleep(Duration::from_millis(120));
        raw.write_all(&frame[2..]).unwrap();

        match read_frame::<_, Response>(&mut raw).unwrap() {
            Some(Response::Rows(r)) => assert_eq!(r.rows[0][0].as_str(), Some("p42")),
            other => panic!("a split prefix must still be answered, got {other:?}"),
        }
        let after = handle.stats();
        assert_eq!(after.sessions_reaped, before.sessions_reaped);
        assert_eq!(after.frame_errors, before.frame_errors);

        write_frame(&mut raw, &Request::Goodbye).unwrap();
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn idle_sessions_are_reaped_after_max_age() {
    watchdog(Duration::from_secs(30), || {
        let (db, dir) = engine("idle");
        let mut config = chaos_config(&["alpha"]);
        config.idle_timeout = Duration::from_millis(200);
        let handle = serve(db.serving_snapshot().unwrap(), config).unwrap();

        let mut c = Client::connect(handle.addr()).unwrap();
        c.hello("alpha", None).unwrap();
        assert!(matches!(c.query(POINT_QUERY).unwrap(), Response::Rows(_)));

        // Outlive the idle max-age; the next round trip finds the
        // session gone.
        std::thread::sleep(Duration::from_millis(700));
        assert!(
            c.query(POINT_QUERY).is_err(),
            "an idle-reaped session must not answer"
        );
        assert!(handle.stats().sessions_reaped >= 1);

        // A fresh session works fine — reaping is per-session hygiene,
        // not server degradation.
        let mut c2 = Client::connect(handle.addr()).unwrap();
        c2.hello("alpha", None).unwrap();
        assert!(matches!(c2.query(POINT_QUERY).unwrap(), Response::Rows(_)));
        c2.goodbye().ok();
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn poisoned_query_closes_its_session_but_not_the_worker() {
    watchdog(Duration::from_secs(30), || {
        let (db, dir) = engine("poison");
        let mut config = chaos_config(&["alpha"]);
        // One worker: if the panic killed it, the follow-up session
        // below could never be served.
        config.workers = 1;
        config.panic_injection = true;
        let handle = serve(db.serving_snapshot().unwrap(), config).unwrap();

        let mut victim = Client::connect(handle.addr()).unwrap();
        victim.hello("alpha", None).unwrap();
        match victim.query("::chaos-panic").unwrap() {
            Response::Error(e) => assert!(
                e.message.contains("panicked"),
                "expected a poisoned-query error, got {}",
                e.message
            ),
            other => panic!("expected Error, got {other:?}"),
        }
        // The poisoned session is closed...
        assert!(victim.query(POINT_QUERY).is_err());

        // ...but the lone worker survives to serve a new session.
        let mut next = Client::connect(handle.addr()).unwrap();
        next.hello("alpha", None).unwrap();
        assert!(matches!(
            next.query(POINT_QUERY).unwrap(),
            Response::Rows(_)
        ));
        let stats = next.stats().unwrap();
        assert_eq!(stats.queries_poisoned, 1);
        next.goodbye().ok();
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Fails `fails` rebuilds, then succeeds by re-serving the previous
/// snapshot (and clearing its drift) — a deterministic script for the
/// ready → degraded → ready health transition.
struct FlakySource {
    fails_left: u32,
    pending: u64,
}

impl FlakySource {
    fn rebuild(&mut self, prev: &FrozenGraph) -> graph_db_models::core::Result<FrozenGraph> {
        if self.fails_left > 0 {
            self.fails_left -= 1;
            Err(graph_db_models::core::GdmError::Storage(
                "chaos: injected refresh failure".into(),
            ))
        } else {
            self.pending = 0;
            Ok(prev.clone())
        }
    }
}

#[test]
fn health_degrades_under_refresh_failures_and_recovers() {
    watchdog(Duration::from_secs(30), || {
        let (db, dir) = engine("health");
        let handle = serve(db.serving_snapshot().unwrap(), chaos_config(&["alpha"])).unwrap();

        // Before auto-refresh: ready, and HEALTH answers pre-Hello so
        // a load balancer needs no tenant credentials.
        assert_eq!(handle.health().state, "ready");
        let mut probe = Client::connect(handle.addr()).unwrap();
        match probe.round_trip(&Request::Health).unwrap() {
            Response::Health(h) => {
                assert_eq!(h.state, "ready");
                assert!(!h.auto_refresh);
            }
            other => panic!("expected Health pre-Hello, got {other:?}"),
        }

        let policy = RefreshPolicy {
            min_changes: 1,
            max_staleness: Duration::from_millis(50),
            failure_backoff: Duration::from_millis(30),
            max_backoff: Duration::from_millis(100),
        };
        let mut source = FlakySource {
            fails_left: 5,
            pending: 10,
        };

        // Each poll is one turn of the engine owner's loop.
        let mut wait_for = |want: &str, handle: &graph_db_models::server::ServerHandle| {
            let t0 = Instant::now();
            loop {
                let _ = handle.refresh_if_due(&policy, source.pending, |prev| source.rebuild(prev));
                let h = handle.health();
                if h.state == want {
                    return h;
                }
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "health never reached {want}; last: {h:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        let degraded = wait_for("degraded", &handle);
        assert!(degraded.consecutive_refresh_failures >= 1);
        let ready = wait_for("ready", &handle);
        assert_eq!(ready.consecutive_refresh_failures, 0);
        assert_eq!(ready.refresh_failures, 5);
        assert_eq!(ready.pending_changes, 0);
        assert!(ready.auto_refresh);
        assert!(handle.stats().refreshes >= 1);

        // The same transitions are visible over the wire.
        match probe.round_trip(&Request::Health).unwrap() {
            Response::Health(h) => {
                assert_eq!(h.state, "ready");
                assert_eq!(h.refresh_failures, 5);
            }
            other => panic!("expected Health, got {other:?}"),
        }
        probe.goodbye().ok();
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

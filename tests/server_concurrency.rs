//! The multi-tenant server under concurrency: correctness, fairness,
//! overload shedding, shutdown drain.
//!
//! Four guarantees, each its own test:
//!
//! 1. **Identity.** Queries answered over the wire from the server's
//!    snapshot return exactly the rows the in-process facade returns.
//! 2. **Fairness.** With a greedy tenant saturating its allowance, the
//!    greedy tenant gets structured `Interrupted` throttles while a
//!    light tenant keeps completing queries — its throughput within 2×
//!    of a solo baseline run, its results still exact.
//! 3. **Shedding.** Past the per-tenant in-flight cap or the global
//!    wait queue, requests get a structured `Overloaded` reply rather
//!    than queueing without bound.
//! 4. **Drain.** Shutdown finishes in-flight work, answers `Bye`, and
//!    joins every server thread — no hang, no abort.
//!
//! Timing discipline: this machine may have a single core, so the
//! fairness assertion is count-based over a fixed window (completed
//! queries), with the greedy client backing off on throttle exactly as
//! the protocol's structured replies tell it to.

use graph_db_models::bench::workload::{load_into_engine, social_graph, SocialParams};
use graph_db_models::core::Value;
use graph_db_models::engines::{make_engine, EngineKind, GraphEngine};
use graph_db_models::govern::Limits;
use graph_db_models::server::protocol::Response;
use graph_db_models::server::{serve, Client, ServerConfig, TenantConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A loaded engine on a deterministic ~150-person social graph.
fn engine_with_graph(tag: &str) -> Box<dyn GraphEngine> {
    let dir = std::env::temp_dir().join(format!("gdm-server-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut db = make_engine(EngineKind::Neo4j, &dir).expect("engine");
    let graph = social_graph(SocialParams {
        people: 150,
        communities: 5,
        intra_edges: 6,
        inter_edges: 2,
        seed: 7,
    });
    load_into_engine(db.as_mut(), &graph).expect("load");
    db
}

fn two_tenant_config() -> ServerConfig {
    let mut config = ServerConfig::default();
    config.tenants.push(TenantConfig::new("light", 3));
    config.tenants.push(TenantConfig::new("greedy", 1));
    config
}

/// Sorts rows for order-insensitive comparison.
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

const QUERIES: &[&str] = &[
    "MATCH (p:person) WHERE p.community = 2 RETURN p.name",
    "MATCH (p:person) WHERE p.age >= 30 AND p.age < 40 RETURN p.name, p.age",
    "MATCH (a:person)-[:knows]->(b:person) WHERE a.community = 0 RETURN b.name",
    "MATCH (p:person) RETURN p.community",
];

#[test]
fn served_results_match_the_in_process_facade() {
    let mut db = engine_with_graph("identity");
    let handle = serve(
        db.serving_snapshot().expect("snapshot"),
        two_tenant_config(),
    )
    .expect("serve");

    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.hello("light", None).expect("hello") {
        Response::Welcome(w) => assert_eq!(w.tenant, "light"),
        other => panic!("expected Welcome, got {other:?}"),
    }

    for (i, q) in QUERIES.iter().enumerate() {
        let local = db.execute_query(q).expect("in-process query");
        let local_rows = sorted(local.rows);
        match client.query(q).expect("served query") {
            Response::Rows(r) => {
                assert_eq!(r.columns, local.columns, "columns for {q}");
                assert_eq!(sorted(r.rows), local_rows, "rows for {q}");
                assert!(!r.cached_plan, "first run of query {i} cannot be cached");
            }
            other => panic!("expected Rows for {q}, got {other:?}"),
        }
        // Same text again: the shared plan cache must hit, same rows.
        match client.query(q).expect("served query, cached") {
            Response::Rows(r) => {
                assert!(r.cached_plan, "second run of query {i} must hit the cache");
                assert_eq!(sorted(r.rows), local_rows, "cached rows for {q}");
            }
            other => panic!("expected Rows for {q}, got {other:?}"),
        }
    }

    // Writes are refused: the server fronts an immutable snapshot.
    match client
        .query("CREATE (n:person {name: 'mallory'})")
        .expect("dml")
    {
        Response::Error(e) => assert!(e.message.contains("immutable snapshot")),
        other => panic!("expected Error for DML, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert!(stats.plan_cache.hits >= QUERIES.len() as u64);
    assert_eq!(stats.plan_cache.entries, QUERIES.len() as u64);

    client.goodbye().expect("goodbye");
    handle.shutdown();
}

#[test]
fn greedy_tenant_is_throttled_while_light_tenant_keeps_its_throughput() {
    let db = engine_with_graph("fairness");
    let snapshot = db.serving_snapshot().expect("snapshot");

    let mut config = two_tenant_config();
    config.slots = 3;
    config.queue = 4;
    config.refill_interval = Duration::from_millis(10);
    // Scale supply well below the greedy join's demand (~8k credits
    // per run, measured) while leaving the light index probe (1 credit
    // per run) far under its weighted share — so the greedy tenant
    // must throttle and the light tenant never does. Small burst caps
    // keep the greedy tenant's opening free-ride short.
    config.refill_credits = 200;
    for t in &mut config.tenants {
        t.burst_cap = 2_000;
    }

    let light_query = "MATCH (p:person) WHERE p.name = 'person42' RETURN p.age";
    let greedy_query =
        "MATCH (a:person)-[:knows]->(b:person)-[:knows]->(c:person) RETURN c.community";
    const WINDOW: Duration = Duration::from_millis(500);

    // Expected light rows, computed once from the same snapshot.
    let expected = {
        let handle = serve(
            db.serving_snapshot().expect("snapshot"),
            two_tenant_config(),
        )
        .expect("serve");
        let mut c = Client::connect(handle.addr()).expect("connect");
        c.hello("light", None).expect("hello");
        let rows = match c.query(light_query).expect("query") {
            Response::Rows(r) => sorted(r.rows),
            other => panic!("expected Rows, got {other:?}"),
        };
        c.goodbye().ok();
        handle.shutdown();
        rows
    };
    assert!(
        !expected.is_empty(),
        "the light query must select something"
    );

    // Runs light queries back-to-back for the window; returns
    // (completed count, per-query latencies).
    let run_light = |addr: std::net::SocketAddr| -> (u64, Vec<Duration>) {
        let mut c = Client::connect(addr).expect("connect");
        c.hello("light", None).expect("hello");
        let mut done = 0u64;
        let mut latencies = Vec::new();
        let start = Instant::now();
        while start.elapsed() < WINDOW {
            let t0 = Instant::now();
            match c.query(light_query).expect("light query") {
                Response::Rows(r) => {
                    assert_eq!(sorted(r.rows), expected, "light rows stay exact under load");
                    done += 1;
                    latencies.push(t0.elapsed());
                    // Pace the light tenant like an interactive client;
                    // an unpaced spin loop would outrun any finite
                    // allowance on a fast enough machine, making the
                    // "never throttled" guarantee machine-dependent.
                    std::thread::sleep(Duration::from_millis(1));
                }
                Response::Overloaded(_) => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("light tenant must never be throttled, got {other:?}"),
            }
        }
        c.goodbye().ok();
        (done, latencies)
    };

    // Solo baseline.
    let handle = serve(snapshot.clone(), config.clone()).expect("serve");
    let (solo, _) = run_light(handle.addr());
    handle.shutdown();
    assert!(solo > 0, "baseline must complete at least one query");

    // Contended run: two greedy sessions saturate their allowance,
    // backing off per the structured throttle reply.
    let handle = serve(snapshot, config).expect("serve");
    let addr = handle.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let mut throttle_counts = Vec::new();
    let greedy_threads: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.hello("greedy", None).expect("hello");
                let mut throttled = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match c.query(greedy_query).expect("greedy query") {
                        Response::Interrupted(i) => {
                            assert_eq!(i.reason, "tenant allowance exhausted");
                            throttled += 1;
                            // A well-behaved client backs off until the
                            // next refill instead of spinning.
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Response::Rows(_) | Response::Overloaded(_) => {}
                        other => panic!("unexpected greedy reply {other:?}"),
                    }
                }
                c.goodbye().ok();
                throttled
            })
        })
        .collect();

    // Let the greedy tenant drain its banked burst before measuring.
    std::thread::sleep(Duration::from_millis(50));
    let (contended, latencies) = run_light(addr);
    stop.store(true, Ordering::Relaxed);
    for t in greedy_threads {
        throttle_counts.push(t.join().expect("greedy thread"));
    }

    let stats = {
        let mut c = Client::connect(addr).expect("connect");
        c.hello("light", None).expect("hello");
        let s = c.stats().expect("stats");
        c.goodbye().ok();
        s
    };
    handle.shutdown();

    // The greedy tenant hit the fair budget pool's ceiling...
    let total_throttles: u64 = throttle_counts.iter().sum();
    assert!(
        total_throttles > 0,
        "the greedy tenant must be throttled at least once"
    );
    let greedy_stats = stats
        .tenants
        .iter()
        .find(|t| t.name == "greedy")
        .expect("greedy stats");
    assert!(greedy_stats.throttled > 0, "throttles must show in STATS");

    // ...while the light tenant kept at least half its solo throughput.
    assert!(
        contended * 2 >= solo,
        "light tenant throughput collapsed under greedy load: solo={solo} contended={contended}"
    );

    // And its p95 latency stayed bounded (generous cap: this guards
    // against convoying, not scheduling jitter).
    let mut sorted_lat = latencies;
    sorted_lat.sort();
    let p95 = sorted_lat[(sorted_lat.len() * 95 / 100).min(sorted_lat.len() - 1)];
    assert!(
        p95 < Duration::from_millis(250),
        "light tenant p95 {p95:?} exceeds the convoy guard"
    );
}

/// Six people picked independently: about 10¹³ bindings over the
/// 150-person graph, so the query runs until its deadline on any
/// machine, holding its admission slot that long.
const UNTIL_DEADLINE: &str = "MATCH (a:person), (b:person), (c:person), (d:person), \
                              (e:person), (f:person) RETURN count(*)";

#[test]
fn overload_is_shed_with_structured_replies() {
    let db = engine_with_graph("shed");
    // One global slot, no queue, and "light" capped at one in-flight
    // query: while a "light" query runs, a second "light" request is
    // shed by the tenant cap and any other request by the full queue.
    // "light" starts with far more credits than one query can draw
    // before the deadline, so its queries stop at the deadline only.
    let deadline = Duration::from_secs(3);
    let mut config = ServerConfig {
        slots: 1,
        queue: 0,
        workers: 4,
        query_limits: Some(Limits::none().with_deadline(deadline)),
        ..ServerConfig::default()
    };
    let mut tenant = TenantConfig::new("light", 1);
    tenant.max_in_flight = 1;
    tenant.burst_cap = 1 << 40;
    config.tenants.push(tenant);
    let mut other = TenantConfig::new("greedy", 1);
    other.max_in_flight = 8;
    config.tenants.push(other);

    let handle = serve(db.serving_snapshot().expect("snapshot"), config).expect("serve");
    let addr = handle.addr();
    let queue_shed = || {
        let mut c = Client::connect(addr).expect("connect");
        c.hello("light", None).expect("hello");
        let s = c.stats().expect("stats");
        c.goodbye().ok();
        s.queue_shed
    };
    let shed_before = queue_shed();

    // Hold the single slot from "light" until the deadline. A probe
    // admitted before the holder sheds it; it retries.
    let started = Instant::now();
    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.hello("light", None).expect("hello");
        loop {
            match c.query(UNTIL_DEADLINE).expect("holder query") {
                Response::Overloaded(_) => {}
                Response::Interrupted(_) => break,
                other => panic!("expected the deadline to stop the holder, got {other:?}"),
            }
        }
        c.goodbye().ok();
    });

    // Same tenant: shed by the in-flight cap, which proves the holder
    // has been admitted. Until then the probe is admitted and answered.
    let mut c1 = Client::connect(addr).expect("connect");
    c1.hello("light", None).expect("hello");
    loop {
        match c1.query("MATCH (p:person) RETURN p.name").expect("probe") {
            Response::Overloaded(o) => {
                assert_eq!(o.scope, "tenant");
                assert!(o.retry_after_ms > 0);
                break;
            }
            Response::Rows(_) => {
                assert!(
                    started.elapsed() < deadline,
                    "the holder was never admitted"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            other => panic!("expected Overloaded or Rows, got {other:?}"),
        }
    }
    c1.goodbye().ok();

    // The holder owns the one slot until its deadline, so another
    // tenant's request finds the queue full.
    let mut c2 = Client::connect(addr).expect("connect");
    c2.hello("greedy", None).expect("hello");
    match c2.query("MATCH (p:person) RETURN p.name").expect("probe") {
        Response::Overloaded(o) => {
            assert_eq!(o.scope, "queue");
            assert!(o.retry_after_ms > 0);
        }
        other => panic!("a saturated single-slot server must shed to the queue, got {other:?}"),
    }
    assert!(
        started.elapsed() < deadline,
        "the probes outlasted the holder's deadline; the shed proves nothing"
    );
    c2.goodbye().ok();
    holder.join().expect("holder");
    assert!(
        queue_shed() > shed_before,
        "a saturated single-slot server must count its queue sheds"
    );
    handle.shutdown();
}

#[test]
fn client_shutdown_request_drains_and_joins() {
    let db = engine_with_graph("drain");
    let handle = serve(
        db.serving_snapshot().expect("snapshot"),
        two_tenant_config(),
    )
    .expect("serve");
    let addr = handle.addr();

    // A second session has a request in flight when shutdown arrives;
    // it still completes (drain, not abort). The query goes out on its
    // own thread *before* the shutdown request below, so the session
    // is never idle-at-stop (idle sessions close during drain).
    let busy = std::thread::spawn(move || {
        let mut busy = Client::connect(addr).expect("connect");
        busy.hello("light", None).expect("hello");
        let reply = busy
            .query(
                "MATCH (a:person)-[:knows]->(b:person)-[:knows]->(c:person) \
                 RETURN c.name",
            )
            .expect("drained query");
        match reply {
            Response::Rows(r) => assert!(!r.rows.is_empty()),
            Response::Interrupted(_) => {} // governed limits may trip; still a reply
            other => panic!("expected a reply during drain, got {other:?}"),
        }
    });
    std::thread::sleep(Duration::from_millis(20));

    let mut c = Client::connect(addr).expect("connect");
    c.hello("greedy", None).expect("hello");
    match c.shutdown().expect("shutdown") {
        Response::Bye => {}
        other => panic!("expected Bye, got {other:?}"),
    }
    busy.join().expect("busy session");

    // join() must return: every thread exits. Guard with a watchdog so
    // a regression fails the test instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        tx.send(()).ok();
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("server must drain and join within 10s");

    // And the port is actually closed.
    assert!(
        Client::connect(addr).is_err() || {
            // A TIME_WAIT race can let one last connect through; a
            // dead server then answers nothing.
            let mut c = Client::connect(addr).expect("connect");
            c.hello("light", None).is_err()
        },
        "the listener must be closed after shutdown"
    );
}

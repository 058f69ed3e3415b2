//! Multi-tenant server load generator.
//!
//! Stands up the `gdm-server` TCP front over a frozen social-graph
//! snapshot and drives it with two tenants of unequal weight — `alpha`
//! (weight 3, cheap interactive lookups) and `beta` (weight 1, a
//! greedy two-hop join it cannot afford) — then reports per-tenant
//! completed queries, throttles, and client-side p50/p95 latency,
//! plus the server's own `STATS` counters.
//!
//! ```text
//! cargo run --release --bin server_load              # ~2s load run
//! cargo run --release --bin server_load -- --smoke   # CI: one scripted
//!     session (query, query again, STATS, shutdown); exits non-zero
//!     unless the repeat hit the plan cache and the drain completed
//! cargo run --release --bin server_load -- --refresh-smoke   # CI: live
//!     refresh proof — query, mutate, incremental re-freeze via
//!     ServerHandle::refresh_with, and the very next query of the same
//!     text must see the new row on a freshly planned (epoch-evicted)
//!     plan, with STATS reporting the refresh
//! cargo run --release --bin server_load -- --chaos-smoke   # CI: route
//!     two retrying tenants through the seed-driven fault-injecting
//!     proxy (garbage, truncation, disconnects, partial writes,
//!     slowloris, delays); every tenant must finish its query budget
//!     with exact rows, every fault category must fire at least once,
//!     and the final STATS must show the faults absorbed as counters
//! cargo run --release --bin server_load -- --smoke --workers 2   # pin
//!     the executor's worker count (any mode); STATS must echo it, and
//!     prints `fanned_out`, the executions that took a helper thread
//! ```

use gdm_bench::workload::{load_into_engine, social_graph, SocialParams};
use gdm_engines::{make_engine, EngineKind};
use gdm_govern::RetryPolicy;
use gdm_server::chaos::{ChaosConfig, ChaosProxy};
use gdm_server::protocol::Response;
use gdm_server::{serve, Client, RetryingClient, ServerConfig, TenantConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LIGHT_QUERY: &str = "MATCH (p:person) WHERE p.name = 'person42' RETURN p.age";
const GREEDY_QUERY: &str =
    "MATCH (a:person)-[:knows]->(b:person)-[:knows]->(c:person) RETURN c.community";

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

fn fail(msg: &str) -> ! {
    eprintln!("server_load: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let refresh_smoke = args.iter().any(|a| a == "--refresh-smoke");
    let chaos_smoke = args.iter().any(|a| a == "--chaos-smoke");
    let quick = smoke || refresh_smoke || chaos_smoke;
    let workers: usize = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--workers wants a number"))
        })
        .unwrap_or(0);

    let dir = std::env::temp_dir().join(format!("gdm-server-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut db = make_engine(EngineKind::Neo4j, &dir).expect("engine");
    let graph = social_graph(SocialParams {
        people: if quick { 150 } else { 500 },
        communities: 5,
        intra_edges: 6,
        inter_edges: 2,
        seed: 2012,
    });
    load_into_engine(db.as_mut(), &graph).expect("load");

    // Supply sized just below the greedy join's natural demand (≈285k
    // credits/s at 500 people, measured in release), so beta finishes
    // some queries but visibly throttles, while alpha's 1-credit
    // lookups never come close to their weighted share.
    let mut config = ServerConfig {
        slots: 3,
        queue: 8,
        refill_interval: Duration::from_millis(10),
        refill_credits: if quick { 50_000 } else { 2_000 },
        executor_workers: workers,
        ..ServerConfig::default()
    };
    let mut alpha = TenantConfig::new("alpha", 3);
    alpha.burst_cap = 50_000;
    let mut beta = TenantConfig::new("beta", 1);
    beta.burst_cap = 100_000;
    config.tenants.push(alpha);
    config.tenants.push(beta);
    if chaos_smoke {
        // Chaos probes the transport, not fairness: generous budgets,
        // and a tight frame deadline so slowloris reaping is fast.
        config.frame_deadline = Duration::from_millis(500);
        config.refill_credits = 500_000;
        for t in &mut config.tenants {
            t.burst_cap = 1_000_000;
        }
    }

    let handle = serve(db.serving_snapshot().expect("snapshot"), config).expect("serve");
    let addr = handle.addr();

    if chaos_smoke {
        const CHAOS_SEED: u64 = 0x5EED_C4A0;
        const QUERIES_PER_TENANT: u64 = 30;
        let proxy =
            ChaosProxy::start(addr, ChaosConfig::full_menu(CHAOS_SEED)).expect("chaos proxy");
        let proxy_addr = proxy.addr();

        let tenants: Vec<_> = ["alpha", "beta"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let name = name.to_string();
                std::thread::spawn(move || {
                    let mut c = RetryingClient::new(proxy_addr, &name, None)
                        .expect("client")
                        .with_policy(RetryPolicy {
                            attempts: 30,
                            base_backoff_ms: 5,
                            max_backoff_ms: 200,
                            jitter: true,
                        })
                        .with_jitter_seed(i as u64);
                    for q in 0..QUERIES_PER_TENANT {
                        // Cycle sessions so the proxy's fault schedule
                        // keeps advancing even on a clean connection.
                        if q > 0 && q % 5 == 0 {
                            c.goodbye();
                        }
                        match c.query(LIGHT_QUERY).expect("query exhausted retries") {
                            Response::Rows(r) if r.rows.len() == 1 => {}
                            other => fail(&format!("expected 1 row, got {other:?}")),
                        }
                    }
                    c.goodbye();
                    (c.connects(), c.retries())
                })
            })
            .collect();

        let mut connects = 0u64;
        let mut retries = 0u64;
        for t in tenants {
            let (co, re) = t.join().expect("chaos tenant panicked");
            connects += co;
            retries += re;
        }

        let faults = proxy.stats();
        println!(
            "chaos proxy (seed {CHAOS_SEED:#x}): {} connections — \
             {} clean, {} garbage, {} truncated, {} disconnects, \
             {} partial writes, {} slowloris, {} delays",
            faults.connections,
            faults.passthrough,
            faults.garbage_frames,
            faults.truncated_frames,
            faults.disconnects,
            faults.partial_writes,
            faults.slowloris,
            faults.delays
        );
        for (n, what) in [
            (faults.passthrough, "clean connections"),
            (faults.garbage_frames, "garbage frames"),
            (faults.truncated_frames, "truncated frames"),
            (faults.disconnects, "disconnects"),
            (faults.partial_writes, "partial writes"),
            (faults.slowloris, "slowloris drips"),
            (faults.delays, "delay faults"),
        ] {
            if n == 0 {
                fail(&format!("chaos schedule never injected {what}"));
            }
        }

        let stats = handle.stats();
        println!(
            "server under chaos: {} frame errors, {} sessions reaped, \
             {} queries poisoned; clients: {connects} connects, {retries} retries",
            stats.frame_errors, stats.sessions_reaped, stats.queries_poisoned
        );
        if stats.frame_errors == 0 {
            fail("garbage/truncated frames must be counted in STATS");
        }
        if stats.sessions_reaped == 0 {
            fail("slowloris connections must be reaped");
        }
        if stats.queries_poisoned != 0 {
            fail("chaos must never poison a query");
        }
        if connects <= 2 {
            fail("chaos must force reconnects");
        }

        proxy.stop();
        handle.shutdown();
        println!("server_load: chaos smoke OK");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }

    if refresh_smoke {
        // Scripted live-refresh proof: the CI evidence that a mutation
        // plus an *incremental* re-freeze reaches the very next query
        // over the wire — fresh rows, a freshly planned (epoch-evicted)
        // plan, and refresh counters in STATS.
        const COUNT_QUERY: &str = "MATCH (p:person) RETURN p.name";
        let mut c = Client::connect(addr).expect("connect");
        c.hello("alpha", None).expect("hello");
        let before = match c.query(COUNT_QUERY).expect("query") {
            Response::Rows(r) => r.rows.len(),
            other => fail(&format!("expected Rows, got {other:?}")),
        };
        match c.query(COUNT_QUERY).expect("query again") {
            Response::Rows(r) if r.cached_plan => {}
            other => fail(&format!("expected a plan-cache hit, got {other:?}")),
        }

        let epoch0 = handle.stats().snapshot_epoch;
        db.create_node(Some("person"), gdm_core::props! { "name" => "newcomer" })
            .expect("create node");
        let t0 = Instant::now();
        let epoch1 = handle
            .refresh_with(|prev| db.refreeze(prev))
            .expect("refresh");
        println!(
            "refreshed serving snapshot: epoch {epoch0} -> {epoch1} in {:?}",
            t0.elapsed()
        );
        if epoch1 <= epoch0 {
            fail("refresh must advance the serving epoch");
        }

        match c.query(COUNT_QUERY).expect("query after refresh") {
            Response::Rows(r) => {
                if r.rows.len() != before + 1 {
                    fail(&format!(
                        "refresh must expose the new node: expected {} rows, got {}",
                        before + 1,
                        r.rows.len()
                    ));
                }
                if r.cached_plan {
                    fail("the epoch-stale plan must be evicted, not served");
                }
            }
            other => fail(&format!("expected Rows, got {other:?}")),
        }
        let stats = c.stats().expect("stats");
        if stats.snapshot_epoch != epoch1 {
            fail("STATS must report the refreshed epoch");
        }
        if stats.refreshes != 1 || stats.last_refresh_us == 0 {
            fail("STATS must count the refresh and its latency");
        }
        if stats.plan_cache.epoch_evictions == 0 {
            fail("STATS must show the stale plan's epoch eviction");
        }
        match c.shutdown().expect("shutdown") {
            Response::Bye => {}
            other => fail(&format!("expected Bye, got {other:?}")),
        }
        handle.join();
        println!("server_load: refresh smoke OK");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }

    if smoke {
        // One scripted session, asserting every step: this is the CI
        // proof that a fresh build serves queries over the wire, hits
        // the plan cache, reports stats, and drains cleanly.
        let mut c = Client::connect(addr).expect("connect");
        match c.hello("alpha", None).expect("hello") {
            Response::Welcome(w) => println!("connected to {} as {}", w.engine, w.tenant),
            other => fail(&format!("expected Welcome, got {other:?}")),
        }
        match c.query(LIGHT_QUERY).expect("query") {
            Response::Rows(r) => {
                if r.rows.len() != 1 {
                    fail(&format!("expected 1 row, got {}", r.rows.len()));
                }
                if r.cached_plan {
                    fail("first run cannot be a plan-cache hit");
                }
            }
            other => fail(&format!("expected Rows, got {other:?}")),
        }
        match c.query(LIGHT_QUERY).expect("query again") {
            Response::Rows(r) if r.cached_plan => {}
            other => fail(&format!("expected a plan-cache hit, got {other:?}")),
        }
        let stats = c.stats().expect("stats");
        println!(
            "plan cache: {} hits / {} misses / {} entries; executor workers: {}; fanned out: {}",
            stats.plan_cache.hits,
            stats.plan_cache.misses,
            stats.plan_cache.entries,
            stats.executor_workers,
            stats.fanned_out
        );
        if stats.plan_cache.hits == 0 {
            fail("STATS must show a plan-cache hit rate > 0");
        }
        if stats.executor_workers == 0 {
            fail("STATS must report the executor worker-pool size");
        }
        if workers > 0 && stats.executor_workers != workers as u64 {
            fail(&format!(
                "STATS must echo the --workers override: expected {workers}, got {}",
                stats.executor_workers
            ));
        }
        match c.shutdown().expect("shutdown") {
            Response::Bye => {}
            other => fail(&format!("expected Bye, got {other:?}")),
        }
        handle.join();
        println!("server_load: smoke OK");
        return;
    }

    // Load run: one paced alpha session, two saturating beta sessions.
    const WINDOW: Duration = Duration::from_secs(2);
    let stop = Arc::new(AtomicBool::new(false));
    let beta_threads: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.hello("beta", None).expect("hello");
                let (mut done, mut throttled) = (0u64, 0u64);
                let mut latencies = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    match c.query(GREEDY_QUERY).expect("beta query") {
                        Response::Rows(_) => {
                            done += 1;
                            latencies.push(t0.elapsed());
                        }
                        Response::Interrupted(_) => {
                            throttled += 1;
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Response::Overloaded(_) => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        other => fail(&format!("unexpected beta reply {other:?}")),
                    }
                }
                c.goodbye().ok();
                (done, throttled, latencies)
            })
        })
        .collect();

    let mut alpha_client = Client::connect(addr).expect("connect");
    alpha_client.hello("alpha", None).expect("hello");
    let (mut alpha_done, mut alpha_lat) = (0u64, Vec::new());
    let start = Instant::now();
    while start.elapsed() < WINDOW {
        let t0 = Instant::now();
        match alpha_client.query(LIGHT_QUERY).expect("alpha query") {
            Response::Rows(_) => {
                alpha_done += 1;
                alpha_lat.push(t0.elapsed());
            }
            other => fail(&format!("alpha must never be throttled, got {other:?}")),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);

    let (mut beta_done, mut beta_throttled, mut beta_lat) = (0u64, 0u64, Vec::new());
    for t in beta_threads {
        let (d, th, lat) = t.join().expect("beta thread");
        beta_done += d;
        beta_throttled += th;
        beta_lat.extend(lat);
    }
    let stats = alpha_client.stats().expect("stats");
    alpha_client.goodbye().ok();
    handle.shutdown();

    alpha_lat.sort();
    beta_lat.sort();
    let secs = WINDOW.as_secs_f64();
    println!("multi-tenant server load ({}s window):", secs);
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "tenant", "weight", "queries/s", "throttled", "p50", "p95"
    );
    println!(
        "{:<8} {:>8} {:>12.1} {:>12} {:>12?} {:>12?}",
        "alpha",
        3,
        alpha_done as f64 / secs,
        0,
        percentile(&alpha_lat, 50),
        percentile(&alpha_lat, 95),
    );
    println!(
        "{:<8} {:>8} {:>12.1} {:>12} {:>12?} {:>12?}",
        "beta",
        1,
        beta_done as f64 / secs,
        beta_throttled,
        percentile(&beta_lat, 50),
        percentile(&beta_lat, 95),
    );
    println!("\nserver STATS:");
    for t in &stats.tenants {
        println!(
            "  {:<8} credits={} charged={} throttled={} shed={}",
            t.name, t.credits, t.charged, t.throttled, t.shed
        );
    }
    println!(
        "  plan cache: {} hits / {} misses / {} entries; queue sheds: {}; \
         executor workers: {}; fanned out: {}",
        stats.plan_cache.hits,
        stats.plan_cache.misses,
        stats.plan_cache.entries,
        stats.queue_shed,
        stats.executor_workers,
        stats.fanned_out
    );

    let _ = std::fs::remove_dir_all(&dir);
}

//! The wire under a served query: what framing, JSON and a loopback
//! round trip cost before any query work.
//!
//! Two groups:
//!
//! - `frame` — [`write_frame`] and [`read_frame`] in memory (encode +
//!   frame on the server side, frame + decode on the client side) of
//!   three `Rows` replies: 1 and 10 rows of one name (the shapes a
//!   point adjacency query returns) and 800 rows of two integers (the
//!   shape of the grouped `q.age = n` summarization reply at 100 000
//!   people, where the codec once cost more than the execution).
//! - `round_trip` — [`Client`] → [`serve`] over loopback TCP for a
//!   `Health` probe (no query work at all: the loopback floor) and a
//!   point adjacency query on a 1 000-person social graph.
//!
//! `round_trip/health` minus the server's own spans is what the kernel
//! and the session loop cost; `frame/read` is the client-side decode
//! that a served benchmark's unattributed residual hides.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdm_bench::{load_into_engine, social_graph, SocialParams};
use gdm_core::Value;
use gdm_engines::{make_engine, EngineKind};
use gdm_server::protocol::{read_frame, write_frame, Request, Response, Rows};
use gdm_server::{serve, Client, ServerConfig, TenantConfig};
use std::io::Cursor;

/// A `Rows` reply shaped like a point adjacency query's: one name
/// column, `n` rows.
fn rows_reply(n: usize) -> Response {
    Response::Rows(Rows {
        columns: vec!["f.name".into()],
        rows: (0..n)
            .map(|i| vec![Value::from(format!("person{}", 100 + i))])
            .collect(),
        cached_plan: true,
    })
}

/// A `Rows` reply shaped like the grouped summarization template's:
/// `community, count(*)` over `n` groups.
fn int_pair_reply(n: usize) -> Response {
    Response::Rows(Rows {
        columns: vec!["q.community".into(), "count(*)".into()],
        rows: (0..n as i64)
            .map(|i| vec![Value::Int(100 + i), Value::Int(1 + i % 3)])
            .collect(),
        cached_plan: true,
    })
}

fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    let replies = [
        ("1_row", rows_reply(1)),
        ("10_row", rows_reply(10)),
        ("800_row_int_pair", int_pair_reply(800)),
    ];
    for (name, reply) in &replies {
        let mut buf = Vec::new();
        group.bench_function(BenchmarkId::new("write", name), |b| {
            b.iter(|| {
                buf.clear();
                write_frame(&mut buf, reply).expect("write");
                buf.len()
            })
        });
        let mut frame = Vec::new();
        write_frame(&mut frame, reply).expect("write");
        group.bench_function(BenchmarkId::new("read", name), |b| {
            b.iter(|| {
                read_frame::<_, Response>(&mut Cursor::new(&frame))
                    .expect("read")
                    .expect("a frame")
            })
        });
    }
    group.finish();
}

fn bench_round_trip(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("gdm-bench-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut db = make_engine(EngineKind::Neo4j, &dir).expect("engine");
    let graph = social_graph(SocialParams {
        people: 1000,
        ..SocialParams::default()
    });
    load_into_engine(db.as_mut(), &graph).expect("load");
    // One generously funded tenant, so a timed run never throttles.
    let mut tenant = TenantConfig::new("bench", 1);
    tenant.burst_cap = 1_000_000_000;
    let config = ServerConfig {
        tenants: vec![tenant],
        refill_credits: 100_000_000,
        ..ServerConfig::default()
    };
    let handle = serve(db.serving_snapshot().expect("snapshot"), config).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.hello("bench", None).expect("hello") {
        Response::Welcome(_) => {}
        other => panic!("expected Welcome, got {other:?}"),
    }

    let mut group = c.benchmark_group("round_trip");
    group.bench_function("health", |b| {
        b.iter(|| match client.round_trip(&Request::Health) {
            Ok(Response::Health(h)) => h.snapshot_epoch,
            other => panic!("expected Health, got {other:?}"),
        })
    });
    let text = "MATCH (p:person {name:'person17'})-[:knows]->(f) RETURN f.name";
    group.bench_function("point_query", |b| {
        b.iter(|| match client.query(text) {
            Ok(Response::Rows(rows)) => rows.rows.len(),
            other => panic!("expected Rows, got {other:?}"),
        })
    });
    group.finish();

    client.goodbye().expect("goodbye");
    handle.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_frame, bench_round_trip);
criterion_main!(benches);

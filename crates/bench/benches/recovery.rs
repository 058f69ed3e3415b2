//! Recovery-throughput bench for the durability subsystem.
//!
//! The question the numbers answer: how long does
//! [`DurableEngine::open`] take to rebuild an engine from a log of `n`
//! journaled operations — the log read, frame checks, op decoding and
//! re-applying every op to a fresh engine? It runs against the
//! in-memory fault-injection backend so the bench measures the
//! recovery code path, not disk latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdm_core::PropertyMap;
use gdm_engines::{DurableEngine, EngineKind, GraphEngine};
use gdm_wal::{FaultFs, SyncPolicy, WalFs, WalOptions};
use std::hint::black_box;
use std::path::Path;

fn opts() -> WalOptions {
    WalOptions {
        segment_bytes: 256 * 1024,
        sync: SyncPolicy::Always,
        ..WalOptions::default()
    }
}

/// Journals `n` operations — autocommitted node creations, plus a
/// committed node-and-edge transaction every 64 ops so replay exercises
/// the transaction-buffering path — and returns the resulting log
/// directory image as (name, bytes) pairs.
fn build_log_image(n: usize, scratch: &Path) -> Vec<(String, Vec<u8>)> {
    let fs = FaultFs::new();
    let (mut eng, _) = DurableEngine::open(EngineKind::Neo4j, scratch, fs.clone(), opts()).unwrap();
    let root = eng.create_node(Some("item"), PropertyMap::new()).unwrap();
    let mut ops = 1;
    while ops < n {
        if ops % 64 == 0 {
            eng.begin_transaction().unwrap();
            let node = eng.create_node(Some("item"), PropertyMap::new()).unwrap();
            eng.create_edge(root, node, Some("has"), PropertyMap::new())
                .unwrap();
            eng.commit_transaction().unwrap();
            ops += 2;
        } else {
            eng.create_node(Some("item"), PropertyMap::new()).unwrap();
            ops += 1;
        }
    }
    eng.close().unwrap();
    drop(eng);
    let mut files: Vec<(String, Vec<u8>)> = fs
        .list()
        .unwrap()
        .into_iter()
        .map(|name| {
            let bytes = fs.snapshot(&name).unwrap();
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

fn restore(files: &[(String, Vec<u8>)]) -> FaultFs {
    let fs = FaultFs::new();
    for (name, bytes) in files {
        fs.install(name, bytes);
    }
    fs
}

fn bench_recovery(c: &mut Criterion) {
    let scratch = std::env::temp_dir().join(format!("gdm-bench-recovery-{}", std::process::id()));
    let mut group = c.benchmark_group("wal_recovery_replay");
    for &n in &[1_000usize, 5_000] {
        let image = build_log_image(n, &scratch);
        group.bench_function(BenchmarkId::new("durable_open", n), |b| {
            b.iter(|| {
                let fs = restore(&image);
                let (eng, report) =
                    DurableEngine::open(EngineKind::Neo4j, &scratch, fs, opts()).unwrap();
                assert_eq!(report.records_applied, n);
                assert_eq!(report.discarded_txns, 0);
                black_box((eng.node_count(), eng.edge_count()))
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&scratch);
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);

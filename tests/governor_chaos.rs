//! Chaos tests for the query governor against the durability stack:
//! cancellation may stop work at any point, and transient I/O faults
//! may hit any write, but the durable state visible after recovery is
//! always a clean prefix of the committed history — never a torn,
//! reordered, or duplicated one.

use graph_db_models::algo::summary::diameter;
use graph_db_models::core::{Direction, PropertyMap};
use graph_db_models::engines::{DurableEngine, EngineKind, GraphEngine};
use graph_db_models::govern::{CancelToken, ExecutionGuard, Limits};
use graph_db_models::wal::{FaultFs, Record, Wal, WalOptions};
use proptest::prelude::*;
use std::path::PathBuf;

fn opts() -> WalOptions {
    WalOptions::default() // SyncPolicy::Always: every commit is durable
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A workload of autocommitted puts where a cancellation token
    /// fires at a random point (checked cooperatively between commits,
    /// like a governed session loop) and single transient append/sync
    /// faults strike at random points (absorbed by the log's default
    /// retry policy). After a crash, recovery yields exactly the puts
    /// that completed — a contiguous prefix, nothing lost, nothing
    /// duplicated, nothing torn.
    #[test]
    fn cancelled_durable_workload_recovers_to_the_committed_prefix(
        total in 4usize..40,
        cancel_at in 0usize..48,
        fail_append_at in prop::option::of(0usize..40),
        fail_sync_at in prop::option::of(0usize..40),
    ) {
        let fs = FaultFs::new();
        let mut wal = Wal::create(fs.clone(), opts()).unwrap();
        let cancel = CancelToken::new();
        let guard = ExecutionGuard::with_cancel(Limits::none(), cancel.clone());
        let mut done = 0u8;
        for i in 0..total {
            if i == cancel_at {
                cancel.cancel();
            }
            if fail_append_at == Some(i) {
                fs.fail_appends(1);
            }
            if fail_sync_at == Some(i) {
                fs.fail_syncs(1);
            }
            if guard.check_now().is_err() {
                break; // cooperative cancellation between commits
            }
            wal.append(&Record::Put { txn: 0, key: vec![i as u8], value: vec![i as u8] });
            wal.commit().unwrap();
            done += 1;
        }
        drop(wal); // kill without shutdown
        fs.crash();
        let mut keys = Vec::new();
        let (_, report) = Wal::open(fs, opts(), |k, _| {
            keys.push(k[0]);
            Ok(())
        })
        .unwrap();
        prop_assert!(!report.corruption_detected);
        prop_assert_eq!(keys, (0..done).collect::<Vec<u8>>());
    }

    /// Same property through the engine facade: cancellation mid-way
    /// through a transactional batch leaves, after crash recovery,
    /// either the whole batch (commit record made it) or none of it —
    /// plus every autocommitted node from before the batch.
    #[test]
    fn cancelled_transaction_is_all_or_nothing_after_recovery(
        before in 1usize..6,
        batch in 1usize..6,
        cancel_inside in 0usize..12,
    ) {
        let fs = FaultFs::new();
        let dir = chaos_scratch("txn-prop");
        let (mut eng, _) =
            DurableEngine::open(EngineKind::Neo4j, &dir, fs.clone(), opts()).unwrap();
        for _ in 0..before {
            eng.create_node(None, PropertyMap::new()).unwrap();
        }
        let cancel = CancelToken::new();
        let guard = ExecutionGuard::with_cancel(Limits::none(), cancel.clone());
        eng.begin_transaction().unwrap();
        let mut cancelled = false;
        for i in 0..batch {
            if i == cancel_inside {
                cancel.cancel();
            }
            if guard.check_now().is_err() {
                cancelled = true;
                break; // abandon the batch mid-transaction
            }
            eng.create_node(None, PropertyMap::new()).unwrap();
        }
        if !cancelled {
            eng.commit_transaction().unwrap();
        }
        drop(eng); // kill: an uncommitted batch must vanish
        fs.crash();
        let (eng2, _) = DurableEngine::open(EngineKind::Neo4j, &dir, fs, opts()).unwrap();
        let expect = if cancelled { before } else { before + batch };
        prop_assert_eq!(eng2.node_count(), expect);
        drop(eng2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn chaos_scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gdm-governor-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A governed query interrupted by cancellation is an error, not a
/// wound: the durable engine stays fully usable for further commits
/// and a clean close/reopen afterwards.
#[test]
fn cancelled_query_leaves_the_durable_engine_intact() {
    let fs = FaultFs::new();
    let dir = chaos_scratch("query");
    let (mut eng, _) = DurableEngine::open(EngineKind::Neo4j, &dir, fs.clone(), opts()).unwrap();
    let mut prev = None;
    for _ in 0..8 {
        let n = eng.create_node(Some("n"), PropertyMap::new()).unwrap();
        if let Some(p) = prev {
            eng.create_edge(p, n, Some("next"), PropertyMap::new())
                .unwrap();
        }
        prev = Some(n);
    }
    let cancel = CancelToken::new();
    cancel.cancel(); // already cancelled: the query must trip immediately
    let guard = ExecutionGuard::with_cancel(Limits::none(), cancel);
    let err = diameter(&eng.snapshot().unwrap(), Direction::Outgoing, &guard).unwrap_err();
    assert!(err.is_interrupted(), "unexpected error: {err}");
    // The engine shrugs it off: more durable work, then a clean cycle.
    eng.create_node(Some("n"), PropertyMap::new()).unwrap();
    eng.close().unwrap();
    drop(eng);
    let (eng2, _) = DurableEngine::open(EngineKind::Neo4j, &dir, fs, opts()).unwrap();
    assert_eq!(eng2.node_count(), 9);
    let got = diameter(
        &eng2.snapshot().unwrap(),
        Direction::Outgoing,
        &ExecutionGuard::unlimited(),
    )
    .unwrap();
    assert_eq!(got, Some(7));
    drop(eng2);
    let _ = std::fs::remove_dir_all(&dir);
}

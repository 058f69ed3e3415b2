//! Crash-safety tests for the durability subsystem.
//!
//! The central property: **recovered state is always a prefix of the
//! committed history.** The crash-point sweep below enforces it at
//! every single byte offset of the log — for each truncation point the
//! store rebuilt from [`Wal::open`]'s replay must equal exactly the
//! state after the last committed unit whose commit record fits inside
//! the prefix. A `BTreeMap` stands in for the store.

use gdm_core::PropertyMap;
use gdm_engines::{DurableEngine, EngineKind, GraphEngine};
use gdm_wal::record::{read_frame, Frame};
use gdm_wal::{FaultFs, Record, RecoveryReport, SyncPolicy, Wal, WalOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn opts() -> WalOptions {
    WalOptions {
        segment_bytes: 1 << 20, // one segment: the sweep cuts raw bytes
        sync: SyncPolicy::Always,
        ..WalOptions::default()
    }
}

const SEG0: &str = "wal-0000000000.seg";

// ---------------------------------------------------------------------
// Record codec: property-based round-trip
// ---------------------------------------------------------------------

fn record_strategy() -> BoxedStrategy<Record> {
    let bytes = || prop::collection::vec(prop::num::u8::ANY, 0..24);
    prop_oneof![
        (1u64..1000).prop_map(|txn| Record::Begin { txn }),
        (0u64..1000, bytes(), bytes()).prop_map(|(txn, key, value)| Record::Put {
            txn,
            key,
            value
        }),
        (1u64..1000).prop_map(|txn| Record::Commit { txn }),
        (1u64..1000).prop_map(|txn| Record::Rollback { txn }),
    ]
    .boxed()
}

proptest! {
    /// Any sequence of records framed back-to-back decodes to the same
    /// sequence, consuming every byte.
    #[test]
    fn frame_stream_roundtrips(records in prop::collection::vec(record_strategy(), 0..24)) {
        let mut buf = Vec::new();
        for r in &records {
            r.encode_frame(&mut buf);
        }
        let mut pos = 0usize;
        let mut decoded = Vec::new();
        loop {
            match read_frame(&buf, pos) {
                Frame::Ok { record, consumed } => {
                    decoded.push(record);
                    pos += consumed;
                }
                Frame::Torn => break,
                Frame::Corrupt => panic!("clean stream decoded as corrupt at {pos}"),
            }
        }
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(decoded, records);
    }

    /// Truncating a framed stream anywhere yields a valid prefix of the
    /// records — never garbage, never an error.
    #[test]
    fn truncated_stream_decodes_to_prefix(
        records in prop::collection::vec(record_strategy(), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for r in &records {
            r.encode_frame(&mut buf);
            ends.push(buf.len());
        }
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let full_frames = ends.iter().filter(|&&e| e <= cut).count();
        let mut pos = 0usize;
        let mut decoded = 0usize;
        loop {
            match read_frame(&buf[..cut], pos) {
                Frame::Ok { consumed, .. } => {
                    decoded += 1;
                    pos += consumed;
                }
                Frame::Torn => break,
                Frame::Corrupt => panic!("truncation must read as torn, not corrupt"),
            }
        }
        prop_assert_eq!(decoded, full_frames);
    }
}

// ---------------------------------------------------------------------
// Crash-point sweep: every byte offset of a real workload's log
// ---------------------------------------------------------------------

type Store = BTreeMap<Vec<u8>, Vec<u8>>;

/// (log length after a committed unit, expected store contents then).
type Marks = Vec<(u64, Store)>;

/// Journals writes through a [`Wal`] the way a durable store does: a
/// put outside a transaction is its own committed unit.
struct Journal {
    wal: Wal<FaultFs>,
    txn: Option<u64>,
}

impl Journal {
    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.wal.append(&Record::Put {
            txn: self.txn.unwrap_or(0),
            key: key.to_vec(),
            value: value.to_vec(),
        });
        if self.txn.is_none() {
            self.wal.commit().unwrap();
        }
    }

    fn begin(&mut self) {
        let txn = self.wal.allocate_txn();
        self.wal.append(&Record::Begin { txn });
        self.txn = Some(txn);
    }

    fn end(&mut self, record: fn(u64) -> Record) {
        let txn = self.txn.take().expect("open transaction");
        self.wal.append(&record(txn));
        self.wal.commit().unwrap();
    }
}

/// Replays the log in `fs` into a fresh store.
fn recover(fs: FaultFs, opts: WalOptions) -> (Store, RecoveryReport) {
    let mut store = Store::new();
    let (_, report) = Wal::open(fs, opts, |k, v| {
        store.insert(k.to_vec(), v.to_vec());
        Ok(())
    })
    .unwrap();
    (store, report)
}

/// Runs a mixed workload (autocommit writes, committed transactions, a
/// rolled-back transaction, overwrites) against a fault-injected
/// [`Wal`], recording after every *committed unit* the log length and
/// the expected store contents at that point.
fn build_workload() -> (FaultFs, Marks) {
    let fs = FaultFs::new();
    let mut log = Journal {
        wal: Wal::create(fs.clone(), opts()).unwrap(),
        txn: None,
    };
    let mut shadow = Store::new();
    // (log length so far, expected state) — index 0 is the empty log.
    let mut marks = vec![(0u64, shadow.clone())];
    let mark = |log: &Journal, shadow: &Store| (log.wal.end_lsn().offset, shadow.clone());

    for i in 0..6u8 {
        log.put(&[b'a', i], &[i]);
        shadow.insert(vec![b'a', i], vec![i]);
        marks.push(mark(&log, &shadow));
    }
    // A committed transaction: atomic unit of three mutations.
    log.begin();
    log.put(b"t1/x", b"1");
    log.put(b"t1/y", b"2");
    log.put(&[b'a', 0], b"overwritten");
    log.end(|txn| Record::Commit { txn });
    shadow.insert(b"t1/x".to_vec(), b"1".to_vec());
    shadow.insert(b"t1/y".to_vec(), b"2".to_vec());
    shadow.insert(vec![b'a', 0], b"overwritten".to_vec());
    marks.push(mark(&log, &shadow));
    // A rolled-back transaction: must never surface, at any cut.
    log.begin();
    log.put(b"rolled", b"back");
    log.put(b"t1/x", b"rolled back");
    log.end(|txn| Record::Rollback { txn });
    marks.push(mark(&log, &shadow));
    // More autocommit traffic after the rollback.
    for i in 0..4u8 {
        log.put(&[b'z', i], b"tail");
        shadow.insert(vec![b'z', i], b"tail".to_vec());
        marks.push(mark(&log, &shadow));
    }
    // A second committed transaction overwriting earlier keys.
    log.begin();
    log.put(&[b'a', 1], b"rewritten");
    log.put(b"t2", b"done");
    log.end(|txn| Record::Commit { txn });
    shadow.insert(vec![b'a', 1], b"rewritten".to_vec());
    shadow.insert(b"t2".to_vec(), b"done".to_vec());
    marks.push(mark(&log, &shadow));

    log.wal.flush().unwrap();
    drop(log);
    (fs, marks)
}

fn recovered_contents(image: &[u8]) -> Store {
    let fs = FaultFs::new();
    fs.install(SEG0, image);
    recover(fs, opts()).0
}

/// The acceptance property: for EVERY truncation offset, recovery
/// succeeds and yields exactly the state after the last committed unit
/// wholly contained in the surviving prefix.
#[test]
fn crash_point_sweep_every_byte_offset() {
    let (fs, marks) = build_workload();
    let image = fs.snapshot(SEG0).expect("workload stayed in segment 0");
    assert!(
        image.len() > 200,
        "workload too small to be a meaningful sweep"
    );
    for cut in 0..=image.len() {
        let expected = marks
            .iter()
            .rev()
            .find(|(end, _)| *end <= cut as u64)
            .map(|(_, state)| state)
            .expect("mark 0 is the empty log");
        let got = recovered_contents(&image[..cut]);
        assert_eq!(
            &got,
            expected,
            "cut at byte {cut}/{} recovered wrong state",
            image.len()
        );
    }
}

/// Bit flips anywhere in the log must never surface corrupt data:
/// recovery keeps exactly the records before the damaged frame.
#[test]
fn bit_flip_sweep_recovers_clean_prefix() {
    let (fs, marks) = build_workload();
    let image = fs.snapshot(SEG0).unwrap();
    // Frame start offsets, to map a flipped byte to its frame.
    let mut frame_starts = Vec::new();
    let mut pos = 0usize;
    while let Frame::Ok { consumed, .. } = read_frame(&image, pos) {
        frame_starts.push(pos);
        pos += consumed;
    }
    for flip_at in (0..image.len()).step_by(7) {
        let fs = FaultFs::new();
        fs.install(SEG0, &image);
        fs.flip_bit(SEG0, flip_at, (flip_at % 8) as u8);
        let (got, report) = recover(fs, opts());
        // Everything before the damaged frame must survive intact.
        let damaged_frame_start =
            *frame_starts.iter().rev().find(|&&s| s <= flip_at).unwrap() as u64;
        let expected = marks
            .iter()
            .rev()
            .find(|(end, _)| *end <= damaged_frame_start)
            .map(|(_, state)| state)
            .unwrap();
        assert_eq!(
            &got, expected,
            "flip at byte {flip_at} recovered wrong state"
        );
        assert!(report.corruption_detected || report.discarded_bytes > 0);
    }
}

// ---------------------------------------------------------------------
// Durable engine: kill after N committed mutations, reopen, all visible
// ---------------------------------------------------------------------

#[test]
fn durable_engine_reopens_with_all_committed_mutations() {
    let n = 40usize;
    let fs = FaultFs::new();
    let dir = std::env::temp_dir().join(format!("gdm-wal-recovery-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut eng, _) = DurableEngine::open(EngineKind::Neo4j, &dir, fs.clone(), opts()).unwrap();
    let mut nodes = Vec::new();
    for i in 0..n {
        let id = eng
            .create_node(
                Some("item"),
                PropertyMap::new().with("seq", gdm_core::Value::Int(i as i64)),
            )
            .unwrap();
        nodes.push(id);
        if i > 0 {
            eng.create_edge(nodes[i - 1], nodes[i], Some("next"), PropertyMap::new())
                .unwrap();
        }
    }
    drop(eng); // kill: no shutdown hook runs
    fs.crash();
    let (eng2, report) = DurableEngine::open(EngineKind::Neo4j, &dir, fs, opts()).unwrap();
    assert_eq!(eng2.node_count(), n);
    assert_eq!(eng2.edge_count(), n - 1);
    assert_eq!(report.records_applied, n + (n - 1));
    for (i, &id) in nodes.iter().enumerate() {
        assert_eq!(
            eng2.node_attribute(id, "seq").unwrap(),
            Some(gdm_core::Value::Int(i as i64)),
            "node {i} lost its property"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit honors its loss window: with `Batch(8)` and a lying
/// disk crash, recovery still yields a committed prefix (never a torn
/// interior), just possibly a shorter one.
#[test]
fn group_commit_crash_loses_only_a_suffix() {
    let fs = FaultFs::new();
    let batched = WalOptions {
        segment_bytes: 1 << 20,
        sync: SyncPolicy::batch(8),
        ..WalOptions::default()
    };
    let mut log = Journal {
        wal: Wal::create(fs.clone(), batched).unwrap(),
        txn: None,
    };
    for i in 0..20u8 {
        log.put(&[i], &[i]);
    }
    drop(log);
    fs.crash(); // unsynced tail of the batch window vanishes
    let got: Vec<u8> = recover(fs, batched).0.into_keys().map(|k| k[0]).collect();
    // Whatever survived is a contiguous prefix 0..len — no holes.
    assert_eq!(got, (0..got.len() as u8).collect::<Vec<_>>());
    // At least the fully synced batches are there.
    assert!(got.len() >= 16, "synced batches lost: {got:?}");
}

//! Reopening a log: [`Wal::open`] and crash recovery.
//!
//! The log is the only durable state. A committed unit is an
//! autocommitted `Put` (transaction id 0) or the `Put`s of a
//! transaction whose `Commit` record made it to disk; recovery streams
//! every committed `Put` to the caller, in log order, and nothing else.
//!
//! # Recovery
//!
//! Segments are replayed from the first one on, buffering each
//! transaction until its `Commit` (a `Rollback`, or a crash before the
//! commit record is durable, discards it). Replay stops at the first
//! torn or corrupt frame or at a gap in the segment chain: everything
//! after it is discarded, and the segment it stopped in is physically
//! truncated so the log is append-consistent again. The result is
//! always a *prefix* of the committed history: every transaction
//! acknowledged under [`crate::log::SyncPolicy::Always`] survives, and
//! under `Batch` at most the trailing unsynced window is lost, never an
//! interior transaction.

use crate::fs::WalFs;
use crate::log::{parse_checkpoint_name, parse_segment_name, segment_name, Wal, WalOptions};
use crate::record::{read_frame, Frame, Record};
use gdm_core::{GdmError, Result};
use std::collections::BTreeMap;

/// What recovery found and did. Returned alongside the reopened log so
/// tests (and operators) can assert on the exact outcome.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed `Put` records handed to the caller.
    pub records_applied: usize,
    /// Committed transactions replayed.
    pub committed_txns: usize,
    /// Transactions discarded for lack of a durable commit record.
    pub discarded_txns: usize,
    /// Log bytes discarded as torn or corrupt suffix.
    pub discarded_bytes: u64,
    /// True when a checksum failure, a segment gap, or a tear before
    /// the last segment (not a clean tear at the end) stopped replay.
    pub corruption_detected: bool,
}

impl<F: WalFs> Wal<F> {
    /// Opens the log in `fs`: a fresh log when the directory holds no
    /// segment, otherwise recovery. Every committed `Put` is passed to
    /// `apply` as `(key, value)` in log order; an error from `apply`
    /// aborts the open.
    ///
    /// Refuses a directory holding a `checkpoint-*.ckpt` file: builds
    /// that wrote those pruned the segments a checkpoint covered, so
    /// replaying the surviving segments alone would silently drop that
    /// history.
    pub fn open(
        fs: F,
        opts: WalOptions,
        mut apply: impl FnMut(&[u8], &[u8]) -> Result<()>,
    ) -> Result<(Self, RecoveryReport)> {
        let mut segs = Vec::new();
        for name in fs.list()? {
            if parse_checkpoint_name(&name).is_some() {
                return Err(GdmError::Storage(format!(
                    "log directory holds {name}, a snapshot checkpoint written by an older \
                     build that pruned the segments it covered; replaying what is left would \
                     lose that history, so the log is not opened"
                )));
            }
            if let Some(seg) = parse_segment_name(&name) {
                segs.push(seg);
            }
        }
        segs.sort_unstable();
        let Some(&first) = segs.first() else {
            return Ok((Wal::create(fs, opts)?, RecoveryReport::default()));
        };

        let mut report = RecoveryReport::default();
        let mut open = Pending::new();
        let mut max_txn = 0u64;
        // (segment, valid length) the writer resumes at: the last
        // segment replayed, cut after its last whole frame.
        let mut tail = (first, 0u64);
        let mut stopped = false;
        for (idx, &seg) in segs.iter().enumerate() {
            if stopped || seg != first + idx as u64 {
                // A bad frame or a gap in the chain invalidates
                // everything after it; later segments go wholesale. A
                // gap found before any bad frame is itself corruption.
                report.corruption_detected |= !stopped;
                stopped = true;
                report.discarded_bytes += fs.read(&segment_name(seg))?.len() as u64;
                fs.remove(&segment_name(seg))?;
                continue;
            }
            let bytes = fs.read(&segment_name(seg))?;
            let mut pos = 0usize;
            loop {
                match read_frame(&bytes, pos) {
                    Frame::Ok { record, consumed } => {
                        max_txn = max_txn.max(record.txn());
                        replay(record, &mut open, &mut report, &mut apply)?;
                        pos += consumed;
                    }
                    Frame::Torn => {
                        if pos < bytes.len() {
                            // Partial frame: only legitimate at the very
                            // end of the log; anywhere else the
                            // remainder is discarded too.
                            report.discarded_bytes += (bytes.len() - pos) as u64;
                            if idx + 1 < segs.len() {
                                report.corruption_detected = true;
                                stopped = true;
                            }
                        }
                        break;
                    }
                    Frame::Corrupt => {
                        report.corruption_detected = true;
                        report.discarded_bytes += (bytes.len() - pos) as u64;
                        stopped = true;
                        break;
                    }
                }
            }
            tail = (seg, pos as u64);
        }
        report.discarded_txns += open.len();

        // Reopen the tail segment truncated to its last valid frame so
        // future appends extend a consistent log.
        let (tail_seg, tail_len) = tail;
        let file = fs.open_truncated(&segment_name(tail_seg), tail_len)?;
        Ok((Wal::resume(fs, opts, tail_seg, file, max_txn + 1), report))
    }
}

/// The `(key, value)` puts of each open transaction, awaiting its
/// commit record.
type Pending = BTreeMap<u64, Vec<(Vec<u8>, Vec<u8>)>>;

/// Replays one record: autocommitted puts go straight to `apply`,
/// transactional ones wait for their commit record.
fn replay(
    record: Record,
    open: &mut Pending,
    report: &mut RecoveryReport,
    apply: &mut impl FnMut(&[u8], &[u8]) -> Result<()>,
) -> Result<()> {
    match record {
        Record::Begin { txn } => {
            open.insert(txn, Vec::new());
        }
        Record::Put { txn: 0, key, value } => {
            apply(&key, &value)?;
            report.records_applied += 1;
        }
        Record::Put { txn, key, value } => {
            // Records of a transaction whose Begin predates a corruption
            // stop (impossible in a well-formed log) are dropped.
            if let Some(buf) = open.get_mut(&txn) {
                buf.push((key, value));
            }
        }
        Record::Commit { txn } => {
            if let Some(buf) = open.remove(&txn) {
                for (key, value) in buf {
                    apply(&key, &value)?;
                    report.records_applied += 1;
                }
                report.committed_txns += 1;
            }
        }
        Record::Rollback { txn } => {
            open.remove(&txn);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultFs;
    use crate::log::SyncPolicy;

    type Store = BTreeMap<Vec<u8>, Vec<u8>>;

    fn opts() -> WalOptions {
        WalOptions {
            segment_bytes: 256,
            sync: SyncPolicy::Always,
            ..WalOptions::default()
        }
    }

    /// Writes through a [`Wal`] the way a journaling caller does: a put
    /// outside a transaction is its own committed unit.
    struct Writer {
        wal: Wal<FaultFs>,
        txn: Option<u64>,
    }

    impl Writer {
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

    fn open(fs: &FaultFs, opts: WalOptions) -> (Writer, Store, RecoveryReport) {
        let mut store = Store::new();
        let (wal, report) = Wal::open(fs.clone(), opts, |k, v| {
            store.insert(k.to_vec(), v.to_vec());
            Ok(())
        })
        .unwrap();
        (Writer { wal, txn: None }, store, report)
    }

    fn crash_and_reopen(w: Writer, fs: &FaultFs) -> (Writer, Store, RecoveryReport) {
        drop(w); // simulated kill: no clean shutdown path exists
        fs.crash();
        open(fs, opts())
    }

    #[test]
    fn autocommit_survives_crash() {
        let fs = FaultFs::new();
        let (mut w, _, _) = open(&fs, opts());
        w.put(b"a", b"1");
        w.put(b"b", b"2");
        w.put(b"a", b"3");
        let (_, store, report) = crash_and_reopen(w, &fs);
        assert_eq!(store.get(&b"a"[..]), Some(&b"3".to_vec()));
        assert_eq!(store.get(&b"b"[..]), Some(&b"2".to_vec()));
        assert_eq!(report.records_applied, 3);
        assert!(!report.corruption_detected);
    }

    #[test]
    fn two_transient_write_failures_still_commit_exactly_once() {
        let fs = FaultFs::new();
        let (mut w, _, _) = open(&fs, opts());
        fs.fail_appends(2); // default RetryPolicy absorbs both blips
        w.put(b"k", b"v");
        assert_eq!(fs.transient_failure_count(), 2);
        // Durable, and exactly one logical record — the retries did not
        // duplicate the put.
        let (_, store, report) = crash_and_reopen(w, &fs);
        assert_eq!(store.get(&b"k"[..]), Some(&b"v".to_vec()));
        assert_eq!(report.records_applied, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn committed_txns_survive_uncommitted_discarded() {
        let fs = FaultFs::new();
        let (mut w, _, _) = open(&fs, opts());
        w.begin();
        w.put(b"committed", b"yes");
        w.end(|txn| Record::Commit { txn });
        w.begin();
        w.put(b"uncommitted", b"no");
        // Crash with the second transaction open.
        let (_, store, report) = crash_and_reopen(w, &fs);
        assert_eq!(store.get(&b"committed"[..]), Some(&b"yes".to_vec()));
        assert_eq!(store.get(&b"uncommitted"[..]), None);
        assert_eq!(report.committed_txns, 1);
        assert!(report.discarded_txns <= 1); // Begin may not even be durable
    }

    #[test]
    fn rollback_is_clean_in_memory_and_on_replay() {
        let fs = FaultFs::new();
        let (mut w, _, _) = open(&fs, opts());
        w.put(b"base", b"0");
        w.begin();
        w.put(b"base", b"dirty");
        w.put(b"extra", b"x");
        w.end(|txn| Record::Rollback { txn });
        let (_, store, report) = crash_and_reopen(w, &fs);
        assert_eq!(store.get(&b"base"[..]), Some(&b"0".to_vec()));
        assert_eq!(store.get(&b"extra"[..]), None);
        assert_eq!(report.records_applied, 1);
        assert_eq!(report.discarded_txns, 0);
    }

    #[test]
    fn dropped_fsyncs_lose_only_the_tail() {
        let fs = FaultFs::new();
        let (mut w, _, _) = open(&fs, opts());
        w.put(b"durable", b"1");
        fs.set_drop_syncs(true);
        w.put(b"lost", b"2"); // acked, but the disk lied
        drop(w);
        fs.crash();
        fs.set_drop_syncs(false);
        let (_, store, _) = open(&fs, opts());
        assert_eq!(store.get(&b"durable"[..]), Some(&b"1".to_vec()));
        assert_eq!(store.get(&b"lost"[..]), None);
    }

    #[test]
    fn recovered_store_keeps_accepting_writes() {
        let fs = FaultFs::new();
        let (mut w, _, _) = open(&fs, opts());
        w.put(b"a", b"1");
        let (mut w, _, _) = crash_and_reopen(w, &fs);
        w.put(b"b", b"2");
        let (_, store, _) = crash_and_reopen(w, &fs);
        assert_eq!(store.get(&b"a"[..]), Some(&b"1".to_vec()));
        assert_eq!(store.get(&b"b"[..]), Some(&b"2".to_vec()));
    }

    #[test]
    fn open_is_create_then_recover() {
        let fs = FaultFs::new();
        let (mut w, store, report) = open(&fs, opts());
        assert_eq!(report, RecoveryReport::default());
        assert!(store.is_empty());
        assert_eq!(fs.list().unwrap(), vec![segment_name(0)]);
        w.put(b"x", b"y");
        drop(w);
        let (_, store, _) = open(&fs, opts());
        assert_eq!(store.get(&b"x"[..]), Some(&b"y".to_vec()));
    }

    /// Forty autocommitted puts (keys 0..40), spread over at least
    /// three 256-byte segments.
    fn three_segment_log() -> FaultFs {
        let fs = FaultFs::new();
        let (mut w, _, _) = open(&fs, opts());
        for i in 0..40u8 {
            w.put(&[i], &[i; 8]);
        }
        assert!(
            w.wal.current_segment() >= 2,
            "workload spans three segments"
        );
        fs
    }

    /// End offsets of the whole frames in segment `seg`.
    fn frame_ends(fs: &FaultFs, seg: u64) -> Vec<usize> {
        let bytes = fs.read(&segment_name(seg)).unwrap();
        let mut ends = Vec::new();
        let mut pos = 0;
        while let Frame::Ok { consumed, .. } = read_frame(&bytes, pos) {
            pos += consumed;
            ends.push(pos);
        }
        ends
    }

    #[test]
    fn corruption_in_an_earlier_segment_truncates_there() {
        let fs = three_segment_log();
        // Damage segment 1's second frame: segment 0 and the first
        // frame of segment 1 survive, every later segment goes.
        let kept = frame_ends(&fs, 0).len() + 1;
        fs.flip_bit(&segment_name(1), frame_ends(&fs, 1)[0] + 10, 0);
        let (mut w, store, report) = open(&fs, opts());
        assert!(report.corruption_detected);
        let survivors: Vec<Vec<u8>> = (0..kept as u8).map(|i| vec![i]).collect();
        assert_eq!(store.keys().cloned().collect::<Vec<_>>(), survivors);
        assert_eq!(w.wal.current_segment(), 1);
        assert_eq!(fs.list().unwrap(), vec![segment_name(0), segment_name(1)]);
        // New writes extend the cut, so a second reopen replays each
        // record exactly once and in order.
        w.put(b"after", b"cut");
        drop(w);
        let mut applied = Vec::new();
        Wal::open(fs.clone(), opts(), |k, _| {
            applied.push(k.to_vec());
            Ok(())
        })
        .unwrap();
        let mut expected = survivors;
        expected.push(b"after".to_vec());
        assert_eq!(applied, expected);
    }

    #[test]
    fn a_gap_in_the_segment_chain_stops_replay_there() {
        let fs = three_segment_log();
        // Segment 1 vanishes: segment 0 replays whole, the rest go.
        let kept = frame_ends(&fs, 0).len() as u8;
        fs.remove(&segment_name(1)).unwrap();
        let (_, store, report) = open(&fs, opts());
        assert!(report.corruption_detected);
        assert_eq!(
            store.into_keys().collect::<Vec<_>>(),
            (0..kept).map(|i| vec![i]).collect::<Vec<_>>()
        );
        assert_eq!(fs.list().unwrap(), vec![segment_name(0)]);
    }

    #[test]
    fn refuses_a_directory_with_a_checkpoint_file() {
        let fs = FaultFs::new();
        let (mut w, _, _) = open(&fs, opts());
        w.put(b"k", b"v");
        drop(w);
        fs.install("checkpoint-0000000003.ckpt", b"GDMCKPT1");
        let mut applied = 0;
        let err = Wal::open(fs.clone(), opts(), |_, _| {
            applied += 1;
            Ok(())
        })
        .err()
        .expect("an older build's checkpoint must be refused");
        assert!(matches!(&err, GdmError::Storage(m) if m.contains("checkpoint-0000000003.ckpt")));
        assert_eq!(applied, 0);
    }
}

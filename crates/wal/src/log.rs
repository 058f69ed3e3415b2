//! The segmented log writer: LSNs, rotation, and group commit.
//!
//! The log is a sequence of segment files `wal-<n>.seg` holding framed
//! records (see [`crate::record`]). Appends accumulate in a memory
//! buffer; [`Wal::commit`] writes the buffer through and fsyncs
//! according to the [`SyncPolicy`] — `Batch` is group commit,
//! amortizing one fsync over `commits` transaction commits at the cost
//! of losing at most the last `commits − 1` *acknowledged* commits on
//! power loss, with a `window_ms` deadline bounding how long a light
//! trickle of commits can sit unsynced.
//! Rotation happens at commit boundaries only, so a transaction's
//! records never straddle a segment edge.

use crate::fs::{WalFile, WalFs};
use crate::record::Record;
use gdm_core::{GdmError, Result};

/// Position of a record in the log: segment number plus byte offset of
/// its frame within the segment. Ordered lexicographically, so LSNs are
/// totally ordered across the whole log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Lsn {
    /// Segment number the record lives in.
    pub segment: u64,
    /// Byte offset of the frame within the segment.
    pub offset: u64,
}

/// When the log forces appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync on every commit — the strict durability contract.
    Always,
    /// Group commit: fsync once per `commits` commits **or** once the
    /// oldest unsynced commit is `window_ms` old, whichever comes
    /// first (plus on rotation and explicit flush). The count
    /// amortizes fsyncs under heavy load; the window bounds commit
    /// latency under light load, where a trickle of commits would
    /// otherwise sit unsynced until the batch fills. The deadline is
    /// checked at commit boundaries (there is no background timer), so
    /// the bound holds while commits keep arriving; a truly idle log
    /// syncs on the next commit or [`Wal::flush`].
    Batch {
        /// Fsync after this many unsynced commits.
        commits: u32,
        /// ... or once the first unsynced commit is this many
        /// milliseconds old. `0` degenerates to `Always`; `u64::MAX`
        /// is count-only group commit (see [`SyncPolicy::batch`]).
        window_ms: u64,
    },
    /// Never fsync automatically; only [`Wal::flush`] syncs. For
    /// benchmarks isolating fsync cost.
    Manual,
}

impl SyncPolicy {
    /// Count-only group commit: fsync every `n` commits, no time bound.
    pub fn batch(n: u32) -> Self {
        SyncPolicy::Batch {
            commits: n,
            window_ms: u64::MAX,
        }
    }
}

/// Bounded retry for the log's write/fsync calls. Real disks and
/// network filesystems fail *transiently* (signal interruption,
/// momentary congestion) far more often than they fail permanently;
/// retrying those inside the log keeps one blip from killing a
/// durable commit, while non-transient errors (corruption, missing
/// file) still surface immediately. The policy type itself lives in
/// `gdm-govern` so the WAL and the serving tier's retrying client
/// share one backoff vocabulary.
pub use gdm_govern::RetryPolicy;

/// Is `e` a *transient* I/O failure — one a bounded retry may cure?
/// Interrupted/would-block/timed-out syscalls qualify; everything
/// else (corruption, permission, missing file) is permanent and must
/// surface to the caller.
pub fn is_transient(e: &GdmError) -> bool {
    use std::io::ErrorKind;
    matches!(
        e,
        GdmError::Io(io) if matches!(
            io.kind(),
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
        )
    )
}

/// Runs `op`, retrying transient failures per `policy` with
/// exponential backoff. The first non-transient error — or the last
/// transient one once attempts are exhausted — is returned as-is.
fn with_retry<T>(policy: RetryPolicy, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let attempts = policy.attempts.max(1);
    for attempt in 1..=attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < attempts && is_transient(&e) => {
                let backoff = policy.backoff(attempt - 1, 0);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on the final attempt")
}

/// Tuning knobs for the log writer.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Fsync cadence.
    pub sync: SyncPolicy,
    /// Transient-fault retry for write/fsync calls.
    pub retry: RetryPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::Always,
            retry: RetryPolicy::default(),
        }
    }
}

/// File name of segment `n` (zero-padded so lexicographic order is
/// numeric order).
pub fn segment_name(n: u64) -> String {
    format!("wal-{n:010}.seg")
}

/// Parses a segment file name back to its number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Parses the name of a snapshot checkpoint file, which older builds
/// wrote beside the segments, back to its sequence number.
pub(crate) fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// The append side of the write-ahead log.
pub struct Wal<F: WalFs> {
    fs: F,
    opts: WalOptions,
    segment: u64,
    file: F::File,
    /// Frames encoded but not yet written to the file.
    buf: Vec<u8>,
    /// Commits since the last fsync (group-commit counter).
    unsynced_commits: u32,
    /// When the oldest unsynced commit happened — drives the
    /// time-window half of [`SyncPolicy::Batch`].
    first_unsynced: Option<std::time::Instant>,
    next_txn: u64,
}

impl<F: WalFs> Wal<F> {
    /// Starts a fresh log in `fs` with segment 0.
    pub fn create(fs: F, opts: WalOptions) -> Result<Self> {
        let file = fs.create(&segment_name(0))?;
        Ok(Wal {
            fs,
            opts,
            segment: 0,
            file,
            buf: Vec::new(),
            unsynced_commits: 0,
            first_unsynced: None,
            next_txn: 1,
        })
    }

    /// Reconstructs the writer at a known tail position — used by
    /// recovery after it has validated (and possibly truncated) the
    /// last segment.
    pub(crate) fn resume(
        fs: F,
        opts: WalOptions,
        segment: u64,
        file: F::File,
        next_txn: u64,
    ) -> Self {
        Wal {
            fs,
            opts,
            segment,
            file,
            buf: Vec::new(),
            unsynced_commits: 0,
            first_unsynced: None,
            next_txn,
        }
    }

    /// Allocates a fresh transaction id (> 0; 0 is the autocommit
    /// stream).
    pub fn allocate_txn(&mut self) -> u64 {
        let id = self.next_txn;
        self.next_txn += 1;
        id
    }

    /// Appends a record to the in-memory buffer and returns the LSN it
    /// will occupy. Nothing reaches the file until [`Wal::commit`] or
    /// [`Wal::flush`].
    pub fn append(&mut self, record: &Record) -> Lsn {
        let lsn = Lsn {
            segment: self.segment,
            offset: self.file.len() + self.buf.len() as u64,
        };
        record.encode_frame(&mut self.buf);
        lsn
    }

    /// Marks a commit boundary: writes buffered frames to the segment
    /// and fsyncs per the [`SyncPolicy`], then rotates if the segment
    /// is full.
    pub fn commit(&mut self) -> Result<()> {
        self.write_through()?;
        self.unsynced_commits += 1;
        let first = *self
            .first_unsynced
            .get_or_insert_with(std::time::Instant::now);
        let should_sync = match self.opts.sync {
            SyncPolicy::Always => true,
            SyncPolicy::Batch { commits, window_ms } => {
                self.unsynced_commits >= commits.max(1)
                    || first.elapsed().as_millis() >= u128::from(window_ms)
            }
            SyncPolicy::Manual => false,
        };
        if should_sync {
            let retry = self.opts.retry;
            let file = &mut self.file;
            with_retry(retry, || file.sync())?;
            self.unsynced_commits = 0;
            self.first_unsynced = None;
        }
        if self.file.len() >= self.opts.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Writes and fsyncs everything buffered, unconditionally.
    pub fn flush(&mut self) -> Result<()> {
        self.write_through()?;
        let retry = self.opts.retry;
        let file = &mut self.file;
        with_retry(retry, || file.sync())?;
        self.unsynced_commits = 0;
        self.first_unsynced = None;
        Ok(())
    }

    /// Seals the current segment (fsync) and starts the next one.
    fn rotate(&mut self) -> Result<()> {
        self.flush()?;
        self.segment += 1;
        self.file = self.fs.create(&segment_name(self.segment))?;
        Ok(())
    }

    /// The LSN one past the last appended record.
    pub fn end_lsn(&self) -> Lsn {
        Lsn {
            segment: self.segment,
            offset: self.file.len() + self.buf.len() as u64,
        }
    }

    /// Current segment number.
    pub fn current_segment(&self) -> u64 {
        self.segment
    }

    fn write_through(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            let retry = self.opts.retry;
            let file = &mut self.file;
            let buf = &self.buf;
            with_retry(retry, || file.append(buf))?;
            self.buf.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultFs;

    #[test]
    fn segment_names_roundtrip_and_sort() {
        assert_eq!(segment_name(7), "wal-0000000007.seg");
        assert_eq!(parse_segment_name("wal-0000000007.seg"), Some(7));
        assert_eq!(parse_segment_name("checkpoint-0000000001.ckpt"), None);
        assert_eq!(parse_checkpoint_name("checkpoint-0000000001.ckpt"), Some(1));
        assert!(segment_name(9) < segment_name(10));
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(
            fs.clone(),
            WalOptions {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::batch(4),
                ..WalOptions::default()
            },
        )
        .unwrap();
        for i in 0..8u64 {
            wal.append(&Record::Put {
                txn: 0,
                key: vec![i as u8],
                value: b"v".to_vec(),
            });
            wal.commit().unwrap();
        }
        // 8 commits, batch of 4 → exactly 2 fsyncs.
        assert_eq!(fs.sync_count(), 2);
    }

    #[test]
    fn zero_window_degenerates_to_always() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(
            fs.clone(),
            WalOptions {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::Batch {
                    commits: 1000,
                    window_ms: 0,
                },
                ..WalOptions::default()
            },
        )
        .unwrap();
        for i in 0..5u64 {
            wal.append(&Record::Put {
                txn: 0,
                key: vec![i as u8],
                value: b"v".to_vec(),
            });
            wal.commit().unwrap();
        }
        // The batch size never fills, but an expired (zero) window
        // forces a sync on every commit.
        assert_eq!(fs.sync_count(), 5);
    }

    #[test]
    fn batch_window_syncs_stale_group_under_light_load() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(
            fs.clone(),
            WalOptions {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::Batch {
                    commits: 1000,
                    window_ms: 5,
                },
                ..WalOptions::default()
            },
        )
        .unwrap();
        wal.append(&Record::Put {
            txn: 0,
            key: b"a".to_vec(),
            value: b"v".to_vec(),
        });
        wal.commit().unwrap();
        // One commit, batch far from full, window not yet expired.
        assert_eq!(fs.sync_count(), 0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        wal.append(&Record::Put {
            txn: 0,
            key: b"b".to_vec(),
            value: b"v".to_vec(),
        });
        wal.commit().unwrap();
        // The second commit finds the group older than the window and
        // syncs both.
        assert_eq!(fs.sync_count(), 1);
    }

    #[test]
    fn always_policy_syncs_every_commit() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(fs.clone(), WalOptions::default()).unwrap();
        for _ in 0..3 {
            wal.append(&Record::Commit { txn: 1 });
            wal.commit().unwrap();
        }
        assert_eq!(fs.sync_count(), 3);
    }

    #[test]
    fn rotation_starts_new_segment_at_commit_boundary() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(
            fs.clone(),
            WalOptions {
                segment_bytes: 32,
                sync: SyncPolicy::Always,
                ..WalOptions::default()
            },
        )
        .unwrap();
        for i in 0..4u64 {
            wal.append(&Record::Put {
                txn: 0,
                key: vec![i as u8; 8],
                value: vec![0; 8],
            });
            wal.commit().unwrap();
        }
        assert!(wal.current_segment() >= 1);
        let names = fs.list().unwrap();
        assert!(names.contains(&segment_name(0)));
        assert!(names.contains(&segment_name(1)));
    }

    #[test]
    fn transient_classifier_separates_retryable_from_permanent() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
        ] {
            assert!(is_transient(&GdmError::Io(Error::new(kind, "blip"))));
        }
        assert!(!is_transient(&GdmError::Io(Error::new(
            ErrorKind::PermissionDenied,
            "no"
        ))));
        assert!(!is_transient(&GdmError::Storage("corrupt".into())));
    }

    #[test]
    fn commit_retries_through_two_transient_append_failures() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(fs.clone(), WalOptions::default()).unwrap();
        wal.append(&Record::Put {
            txn: 0,
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        });
        wal.append(&Record::Commit { txn: 0 });
        fs.fail_appends(2); // default policy = 3 attempts: 2 blips are absorbed
        wal.commit().unwrap();
        assert_eq!(fs.transient_failure_count(), 2);
        // Exactly one copy of the frames landed — failed attempts had
        // no side effect, and the successful one wrote the whole buffer.
        let bytes = fs.read(&segment_name(0)).unwrap();
        let mut pos = 0usize;
        let mut records = Vec::new();
        while let crate::record::Frame::Ok { record, consumed } =
            crate::record::read_frame(&bytes, pos)
        {
            records.push(record);
            pos += consumed;
        }
        assert_eq!(records.len(), 2);
        assert!(matches!(records[1], Record::Commit { txn: 0 }));
    }

    #[test]
    fn sync_retries_transient_failures_without_double_counting() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(fs.clone(), WalOptions::default()).unwrap();
        wal.append(&Record::Commit { txn: 7 });
        fs.fail_syncs(2);
        wal.commit().unwrap();
        assert_eq!(fs.transient_failure_count(), 2);
        assert_eq!(fs.sync_count(), 1); // only the successful attempt counted
        fs.crash(); // durable: the retried sync advanced the watermark
        assert!(!fs.read(&segment_name(0)).unwrap().is_empty());
    }

    #[test]
    fn retries_exhaust_and_surface_the_transient_error() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(
            fs.clone(),
            WalOptions {
                retry: RetryPolicy::none(),
                ..WalOptions::default()
            },
        )
        .unwrap();
        wal.append(&Record::Commit { txn: 1 });
        fs.fail_appends(1);
        let err = wal.commit().unwrap_err();
        assert!(is_transient(&err), "unexpected error: {err}");
        // The buffer is retained, so a later commit still lands the record.
        wal.commit().unwrap();
        assert!(!fs.read(&segment_name(0)).unwrap().is_empty());
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(fs.clone(), WalOptions::default()).unwrap();
        wal.append(&Record::Commit { txn: 1 });
        fs.remove(&segment_name(0)).unwrap(); // file vanishes: permanent
        let err = wal.commit().unwrap_err();
        assert!(!is_transient(&err));
    }

    #[test]
    fn lsn_tracks_buffer_position() {
        let fs = FaultFs::new();
        let mut wal = Wal::create(fs, WalOptions::default()).unwrap();
        let a = wal.append(&Record::Begin { txn: 1 });
        let b = wal.append(&Record::Commit { txn: 1 });
        assert_eq!(
            a,
            Lsn {
                segment: 0,
                offset: 0
            }
        );
        assert!(b > a);
        assert_eq!(wal.end_lsn().offset, wal.file.len() + wal.buf.len() as u64);
    }
}

//! # gdm-wal
//!
//! The durability subsystem: a segmented write-ahead log with group
//! commit, crash recovery, and a deterministic fault-injection backend
//! for testing both.
//!
//! The paper's graph-database-vs-graph-store split (Section II) turns
//! on whether a system ships real database machinery — transactions
//! *and* the recovery that makes them mean something after a crash.
//! Transactions are the engines' snapshot `begin`/`commit`/`rollback`;
//! this crate adds the recovery:
//!
//! * [`record`] — length-prefixed, CRC-checksummed log records,
//! * [`log`] — segmented append-only log writer with LSNs, rotation,
//!   [`SyncPolicy`]-driven group commit, and [`RetryPolicy`]-bounded
//!   retry of transient write/fsync failures,
//! * [`durable`] — [`Wal::open`], which recovers a log by streaming
//!   every committed record to the caller, and its [`RecoveryReport`];
//!   the log is the only durable state, with no snapshot beside it,
//! * [`fs`] — the narrow filesystem seam ([`WalFs`]/[`WalFile`]) with
//!   the real-disk implementation [`DiskFs`],
//! * [`fault`] — [`FaultFs`], an in-memory backend that models power
//!   loss, lying fsyncs, torn writes, and bit rot, so crash safety is
//!   tested deterministically at every byte offset.
//!
//! The crash-safety contract: recovery hands the caller exactly a
//! *prefix* of the committed transaction history — never a partial
//! transaction, never a reordering, and under [`SyncPolicy::Always`]
//! the prefix includes every acknowledged commit. See `DESIGN.md`
//! ("Durability & recovery") for the format diagrams and invariants.

pub mod durable;
pub mod fault;
pub mod fs;
pub mod log;
pub mod record;

pub use durable::RecoveryReport;
pub use fault::{FaultFile, FaultFs};
pub use fs::{DiskFile, DiskFs, WalFile, WalFs};
pub use log::{is_transient, Lsn, RetryPolicy, SyncPolicy, Wal, WalOptions};
pub use record::{crc32, Record};

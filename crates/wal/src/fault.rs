//! Deterministic fault injection for crash-safety tests.
//!
//! [`FaultFs`] is an in-memory [`WalFs`] that models exactly what a
//! kernel page cache does to an unsynced file: every file carries a
//! *synced length* watermark, appends extend the in-memory contents
//! only, and [`FaultFs::crash`] discards everything past each
//! watermark — simulating power loss. On top of that it can:
//!
//! * drop `fsync` calls silently ([`FaultFs::set_drop_syncs`]), so a
//!   "crash" loses data an engine believed durable,
//! * truncate a file to an arbitrary byte length
//!   ([`FaultFs::truncate_to`]), simulating a torn write at any offset,
//! * flip a single bit ([`FaultFs::flip_bit`]), simulating media
//!   corruption that the record CRCs must catch,
//! * fail the next *N* appends or syncs with a *transient* I/O error
//!   ([`FaultFs::fail_appends`], [`FaultFs::fail_syncs`]) — an
//!   `Interrupted` that leaves no side effect, exercising the log's
//!   [`crate::RetryPolicy`].
//!
//! Handles share state through `Rc<RefCell<…>>`, so a test can hold the
//! `FaultFs`, hand a clone to a [`crate::Wal`], kill the writer,
//! mutilate the bytes, and reopen with [`crate::Wal::open`] — all
//! without touching the real disk.

use crate::fs::{WalFile, WalFs};
use gdm_core::{GdmError, Result};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

#[derive(Debug, Default, Clone)]
struct FileState {
    data: Vec<u8>,
    synced_len: usize,
}

#[derive(Debug, Default)]
struct FsState {
    files: BTreeMap<String, FileState>,
    drop_syncs: bool,
    syncs: u64,
    dropped_syncs: u64,
    fail_appends: u32,
    fail_syncs: u32,
    transient_failures: u64,
}

fn transient_error(what: &str) -> GdmError {
    GdmError::Io(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("injected transient {what} failure"),
    ))
}

/// In-memory filesystem with injectable faults. Cloning yields a handle
/// to the same shared state.
#[derive(Debug, Default, Clone)]
pub struct FaultFs {
    state: Rc<RefCell<FsState>>,
}

/// A handle to one file inside a [`FaultFs`].
pub struct FaultFile {
    fs: FaultFs,
    name: String,
}

impl FaultFs {
    /// An empty filesystem with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// When set, subsequent [`WalFile::sync`] calls succeed but do
    /// *not* advance the durable watermark — the classic lying-disk
    /// fault. A later [`FaultFs::crash`] then loses the "synced" data.
    pub fn set_drop_syncs(&self, drop: bool) {
        self.state.borrow_mut().drop_syncs = drop;
    }

    /// Simulates power loss: every file reverts to its last synced
    /// prefix. Open handles stay usable but see the rolled-back state.
    pub fn crash(&self) {
        let mut st = self.state.borrow_mut();
        for file in st.files.values_mut() {
            file.data.truncate(file.synced_len);
        }
    }

    /// Truncates `name` to `len` bytes (torn write at a chosen offset).
    /// The synced watermark moves down with it.
    pub fn truncate_to(&self, name: &str, len: usize) {
        let mut st = self.state.borrow_mut();
        if let Some(file) = st.files.get_mut(name) {
            file.data.truncate(len);
            file.synced_len = file.synced_len.min(len);
        }
    }

    /// Flips bit `bit` (0–7) of byte `offset` in `name` — media
    /// corruption the CRC layer must detect.
    pub fn flip_bit(&self, name: &str, offset: usize, bit: u8) {
        let mut st = self.state.borrow_mut();
        if let Some(file) = st.files.get_mut(name) {
            if let Some(byte) = file.data.get_mut(offset) {
                *byte ^= 1 << (bit & 7);
            }
        }
    }

    /// Current contents of `name` (for byte-level test assertions).
    pub fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        self.state.borrow().files.get(name).map(|f| f.data.clone())
    }

    /// Replaces the contents of `name` wholesale, marking them synced.
    /// Lets crash-sweep tests install a prepared byte image.
    pub fn install(&self, name: &str, bytes: &[u8]) {
        let mut st = self.state.borrow_mut();
        st.files.insert(
            name.to_owned(),
            FileState {
                data: bytes.to_vec(),
                synced_len: bytes.len(),
            },
        );
    }

    /// Number of honored sync calls so far (group-commit batching
    /// assertions).
    pub fn sync_count(&self) -> u64 {
        self.state.borrow().syncs
    }

    /// Number of sync calls swallowed while `drop_syncs` was set.
    pub fn dropped_sync_count(&self) -> u64 {
        self.state.borrow().dropped_syncs
    }

    /// Arms the next `n` [`WalFile::append`] calls (on any file) to
    /// fail with a transient `Interrupted` I/O error and **no side
    /// effect** — no bytes land. Models an interrupted write syscall
    /// that a bounded retry should cure.
    pub fn fail_appends(&self, n: u32) {
        self.state.borrow_mut().fail_appends = n;
    }

    /// Arms the next `n` [`WalFile::sync`] calls to fail transiently
    /// with no side effect (the durable watermark does not move).
    pub fn fail_syncs(&self, n: u32) {
        self.state.borrow_mut().fail_syncs = n;
    }

    /// Total transient failures served by [`FaultFs::fail_appends`] /
    /// [`FaultFs::fail_syncs`] — lets tests assert the retry layer
    /// actually absorbed the injected faults.
    pub fn transient_failure_count(&self) -> u64 {
        self.state.borrow().transient_failures
    }
}

impl WalFile for FaultFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let mut st = self.fs.state.borrow_mut();
        if st.fail_appends > 0 {
            st.fail_appends -= 1;
            st.transient_failures += 1;
            return Err(transient_error("append"));
        }
        let file = st.files.get_mut(&self.name).ok_or_else(|| {
            GdmError::Storage(format!("file removed under handle: {}", self.name))
        })?;
        file.data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut st = self.fs.state.borrow_mut();
        if st.fail_syncs > 0 {
            st.fail_syncs -= 1;
            st.transient_failures += 1;
            return Err(transient_error("sync"));
        }
        if st.drop_syncs {
            st.dropped_syncs += 1;
            return Ok(()); // the lie: success without durability
        }
        st.syncs += 1;
        let file = st.files.get_mut(&self.name).ok_or_else(|| {
            GdmError::Storage(format!("file removed under handle: {}", self.name))
        })?;
        file.synced_len = file.data.len();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.fs
            .state
            .borrow()
            .files
            .get(&self.name)
            .map_or(0, |f| f.data.len() as u64)
    }
}

impl WalFs for FaultFs {
    type File = FaultFile;

    fn create(&self, name: &str) -> Result<FaultFile> {
        self.state
            .borrow_mut()
            .files
            .insert(name.to_owned(), FileState::default());
        Ok(FaultFile {
            fs: self.clone(),
            name: name.to_owned(),
        })
    }

    fn open_truncated(&self, name: &str, len: u64) -> Result<FaultFile> {
        let mut st = self.state.borrow_mut();
        let file = st
            .files
            .get_mut(name)
            .ok_or_else(|| GdmError::Storage(format!("no such file: {name}")))?;
        file.data.truncate(len as usize);
        file.synced_len = file.synced_len.min(len as usize);
        drop(st);
        Ok(FaultFile {
            fs: self.clone(),
            name: name.to_owned(),
        })
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.state
            .borrow()
            .files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| GdmError::Storage(format!("no such file: {name}")))
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.state.borrow().files.keys().cloned().collect())
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.state.borrow_mut().files.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_discards_unsynced_tail() {
        let fs = FaultFs::new();
        let mut f = fs.create("seg").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" volatile").unwrap();
        fs.crash();
        assert_eq!(fs.read("seg").unwrap(), b"durable");
        // The handle keeps working after the crash.
        f.append(b"!").unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"durable!");
    }

    #[test]
    fn dropped_syncs_lose_data_on_crash() {
        let fs = FaultFs::new();
        let mut f = fs.create("seg").unwrap();
        fs.set_drop_syncs(true);
        f.append(b"believed durable").unwrap();
        f.sync().unwrap(); // reports success
        fs.crash();
        assert_eq!(fs.read("seg").unwrap(), b"");
        assert_eq!(fs.dropped_sync_count(), 1);
        assert_eq!(fs.sync_count(), 0);
    }

    #[test]
    fn bit_flip_and_truncate() {
        let fs = FaultFs::new();
        fs.install("seg", &[0b0000_0000, 0xff]);
        fs.flip_bit("seg", 0, 3);
        assert_eq!(fs.read("seg").unwrap(), vec![0b0000_1000, 0xff]);
        fs.truncate_to("seg", 1);
        assert_eq!(fs.read("seg").unwrap().len(), 1);
    }

    #[test]
    fn open_truncated_cuts_tail() {
        let fs = FaultFs::new();
        fs.install("seg", b"0123456789");
        let mut f = fs.open_truncated("seg", 4).unwrap();
        assert_eq!(f.len(), 4);
        f.append(b"X").unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"0123X");
    }
}

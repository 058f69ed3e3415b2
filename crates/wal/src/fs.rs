//! The filesystem seam the log writes through.
//!
//! Everything the WAL does to stable storage goes through [`WalFs`] and
//! [`WalFile`], so the same log and recovery code runs over the real
//! filesystem ([`DiskFs`]) and over the deterministic fault-injection
//! backend ([`crate::fault::FaultFs`]). The trait is deliberately
//! narrow: append, sync, whole-file read, list, remove, and
//! truncate-reopen — the only operations a write-ahead log needs, and
//! each one with crash semantics we can model exactly in the fault
//! backend.

use gdm_core::{GdmError, Result};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// An append-only file handle.
pub trait WalFile {
    /// Appends bytes at the end of the file. Appended data is *not*
    /// durable until [`WalFile::sync`] returns.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Forces all appended bytes to stable storage.
    fn sync(&mut self) -> Result<()>;

    /// Current file length in bytes (including unsynced appends).
    fn len(&self) -> u64;

    /// True when nothing has been appended yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A flat directory of named files.
pub trait WalFs {
    /// The file handle type this backend produces.
    type File: WalFile;

    /// Creates `name` empty, replacing any existing file.
    fn create(&self, name: &str) -> Result<Self::File>;

    /// Opens `name`, truncates it to `len` bytes, and positions the
    /// handle for appending. Used by recovery to cut a torn tail.
    fn open_truncated(&self, name: &str, len: u64) -> Result<Self::File>;

    /// Reads the entire contents of `name`.
    fn read(&self, name: &str) -> Result<Vec<u8>>;

    /// All file names in the directory, in unspecified order.
    fn list(&self) -> Result<Vec<String>>;

    /// Removes `name`. Missing files are not an error (recovery retries
    /// cleanup that may have half-happened before a crash).
    fn remove(&self, name: &str) -> Result<()>;
}

/// The real-filesystem backend: one directory, `fsync` on [`WalFile::sync`].
#[derive(Debug, Clone)]
pub struct DiskFs {
    dir: PathBuf,
}

impl DiskFs {
    /// Opens (creating if needed) `dir` as the log directory.
    pub fn open(dir: &Path) -> Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(DiskFs {
            dir: dir.to_path_buf(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// A real file opened for appending.
pub struct DiskFile {
    file: fs::File,
    len: u64,
}

impl WalFile for DiskFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl WalFs for DiskFs {
    type File = DiskFile;

    fn create(&self, name: &str) -> Result<DiskFile> {
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.path(name))?;
        Ok(DiskFile { file, len: 0 })
    }

    fn open_truncated(&self, name: &str, len: u64) -> Result<DiskFile> {
        let mut file = fs::OpenOptions::new().write(true).open(self.path(name))?;
        file.set_len(len)?;
        file.seek(SeekFrom::Start(len))?;
        file.sync_data()?;
        Ok(DiskFile { file, len })
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        Ok(fs::read(self.path(name))?)
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                match entry.file_name().into_string() {
                    Ok(name) => names.push(name),
                    Err(raw) => {
                        return Err(GdmError::Storage(format!(
                            "non-UTF-8 file name in log directory: {raw:?}"
                        )))
                    }
                }
            }
        }
        Ok(names)
    }

    fn remove(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gdm-wal-fs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_roundtrip_and_truncate() {
        let dir = tmp_dir("rt");
        let fs_ = DiskFs::open(&dir).unwrap();
        let mut f = fs_.create("a.seg").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.len(), 11);
        drop(f);
        assert_eq!(fs_.read("a.seg").unwrap(), b"hello world");

        let mut f = fs_.open_truncated("a.seg", 5).unwrap();
        f.append(b"!").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(fs_.read("a.seg").unwrap(), b"hello!");
        assert_eq!(fs_.list().unwrap(), vec!["a.seg".to_owned()]);
        fs_.remove("a.seg").unwrap();
        fs_.remove("a.seg").unwrap(); // idempotent
        assert!(fs_.list().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}

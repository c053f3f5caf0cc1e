//! The file under a [`LogKv`](crate::LogKv): the four calls the log makes
//! of it, the OS file a node runs on, and a file in memory. A log holds
//! one file for its whole life.

use parking_lot::RwLock;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use timecrypt_obs::counters;

/// What a [`LogKv`](crate::LogKv) asks of its file.
pub trait LogFile: Send + Sync {
    /// Fills `buf` from `offset`; an error if the file ends first.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Writes `bytes` at the end of the file.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Makes the appended bytes durable.
    fn sync(&self) -> io::Result<()>;
    /// Cuts the file to `len` bytes if it is longer; returns its length.
    fn truncate(&self, len: u64) -> io::Result<u64>;
}

/// The log on disk: opened for appends, read with `pread` (so the crate
/// builds on Unix only).
pub struct OsFile {
    file: File,
}

impl OsFile {
    /// Opens (or creates) the file at `path`.
    pub(crate) fn open(path: &Path) -> io::Result<Self> {
        let file = File::options()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        Ok(OsFile { file })
    }
}

/// Syncs the directory that names the file at `path` (`.` for a bare name).
pub(crate) fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    let synced = File::open(dir.unwrap_or(Path::new(".")))?.sync_all();
    synced.map(|()| counters::FSYNCS.inc())
}

impl LogFile for OsFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.file.read_exact_at(buf, offset)
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        (&self.file).write_all(bytes)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_data()?;
        counters::FSYNCS.inc();
        Ok(())
    }

    fn truncate(&self, len: u64) -> io::Result<u64> {
        let was = self.file.metadata()?.len();
        if was > len {
            self.file.set_len(len)?;
        }
        Ok(was.min(len))
    }
}

/// A log file in memory, empty by default. A clone is the same file opened
/// again, so a test can reopen a log, also after cutting or flipping bytes.
#[derive(Clone, Default)]
pub struct MemFile {
    pub(crate) bytes: Arc<RwLock<Vec<u8>>>,
}

impl MemFile {
    pub(crate) fn holding(bytes: Vec<u8>) -> Self {
        let bytes = Arc::new(RwLock::new(bytes));
        MemFile { bytes }
    }
}

impl LogFile for MemFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let bytes = self.bytes.read();
        let at = usize::try_from(offset).unwrap_or(usize::MAX);
        bytes.get(at..).unwrap_or_default().read_exact(buf)
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.write().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&self, len: u64) -> io::Result<u64> {
        let mut bytes = self.bytes.write();
        bytes.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(bytes.len() as u64)
    }
}

//! The file under a [`LogKv`](crate::LogKv): the five calls the log makes
//! of it, the OS file a node runs on, and a file in memory. A value is one
//! generation of the file, as an open descriptor is: a reader holding it
//! finishes on it after a compaction swapped the next one in.

use crate::StoreError;
use parking_lot::{Mutex, RwLock};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use timecrypt_obs::counters;

/// What a [`LogKv`](crate::LogKv) asks of its file.
pub trait LogFile: Send + Sync + Sized {
    /// Fills `buf` from `offset`; an error if the file ends first.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Writes `bytes` at the end of the file.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Makes the appended bytes durable.
    fn sync(&self) -> io::Result<()>;
    /// Cuts the file to `len` bytes if it is longer; returns its length.
    fn truncate(&self, len: u64) -> io::Result<u64>;
    /// The compaction swap: writes a new generation through `fill` and, if
    /// that succeeds, installs it under the file's name and returns it —
    /// with `durable`, after its bytes are synced, and durably.
    fn swap(
        &self,
        durable: bool,
        fill: impl FnOnce(&mut dyn Write) -> Result<(), StoreError>,
    ) -> Result<Self, StoreError>;
}

/// The log on disk: opened for appends, read with `pread` (so the crate
/// builds on Unix only), swapped by writing a temp file beside it and
/// renaming that over it.
pub struct OsFile {
    file: File,
    pub(crate) path: PathBuf,
}

impl OsFile {
    /// Opens (or creates) the file at `path`.
    pub(crate) fn open(path: PathBuf) -> io::Result<Self> {
        let file = File::options()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        Ok(OsFile { file, path })
    }
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

    fn swap(
        &self,
        durable: bool,
        fill: impl FnOnce(&mut dyn Write) -> Result<(), StoreError>,
    ) -> Result<Self, StoreError> {
        let next = OsFile::open(self.path.with_extension("compact"))?;
        next.file.set_len(0)?;
        let mut w = BufWriter::new(&next.file);
        fill(&mut w)?;
        w.into_inner().map_err(io::IntoInnerError::into_error)?;
        if durable {
            next.sync()?;
        }
        std::fs::rename(&next.path, &self.path)?;
        // Make the rename itself durable.
        if let (true, Some(Ok(dir))) = (durable, self.path.parent().map(File::open)) {
            let _ = dir.sync_all();
        }
        let path = self.path.clone();
        Ok(OsFile { path, ..next })
    }
}

/// One generation's bytes.
type Bytes = Arc<RwLock<Vec<u8>>>;

/// A log file in memory. A clone is the file opened again — the generation
/// under its name now — so a test can reopen a log, also after cutting or
/// flipping its bytes.
pub struct MemFile {
    pub(crate) bytes: Bytes,
    /// The generation under the file's name, shared by every clone.
    name: Arc<Mutex<Bytes>>,
}

impl MemFile {
    pub(crate) fn holding(bytes: Vec<u8>) -> Self {
        let bytes = Arc::new(RwLock::new(bytes));
        let name = Arc::new(Mutex::new(Arc::clone(&bytes)));
        MemFile { bytes, name }
    }
}

impl Clone for MemFile {
    fn clone(&self) -> Self {
        let (bytes, name) = (Arc::clone(&self.name.lock()), Arc::clone(&self.name));
        MemFile { bytes, name }
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

    fn swap(
        &self,
        _: bool,
        fill: impl FnOnce(&mut dyn Write) -> Result<(), StoreError>,
    ) -> Result<Self, StoreError> {
        let mut bytes = Vec::new();
        fill(&mut bytes)?;
        *self.name.lock() = Arc::new(RwLock::new(bytes));
        Ok(self.clone())
    }
}

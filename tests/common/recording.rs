//! A log file in memory that records what its logs ask of it: the bytes of
//! each append, and each sync. A crash sweep replays the record to build
//! every state a crash could leave the file in; a run without a crash cuts
//! nothing, so a truncation is not recorded.

use std::io::{self, Read};
use std::sync::{Arc, Mutex, MutexGuard};
use timecrypt::store::LogFile;

/// What a log asked of its file, in the order it asked.
#[derive(Clone, Debug)]
pub enum Call {
    Append(Vec<u8>),
    /// The appended bytes are durable.
    Sync,
}

#[derive(Debug, Default)]
struct Tape {
    bytes: Vec<u8>,
    calls: Vec<Call>,
}

/// A recorded file; a clone is the same file.
#[derive(Clone, Debug, Default)]
pub struct Recording(Arc<Mutex<Tape>>);

impl Recording {
    /// A file holding `bytes`, nothing recorded yet.
    pub fn holding(bytes: Vec<u8>) -> Recording {
        let calls = Vec::new();
        Recording(Arc::new(Mutex::new(Tape { bytes, calls })))
    }

    fn tape(&self) -> MutexGuard<'_, Tape> {
        self.0.lock().unwrap()
    }

    pub fn bytes(&self) -> Vec<u8> {
        self.tape().bytes.clone()
    }

    /// What the logs over the file asked of it so far.
    pub fn calls(&self) -> Vec<Call> {
        self.tape().calls.clone()
    }
}

impl LogFile for Recording {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let at = usize::try_from(offset).unwrap_or(usize::MAX);
        let tape = self.tape();
        tape.bytes.get(at..).unwrap_or_default().read_exact(buf)
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut tape = self.tape();
        tape.bytes.extend_from_slice(bytes);
        if !bytes.is_empty() {
            tape.calls.push(Call::Append(bytes.to_vec()));
        }
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        self.tape().calls.push(Call::Sync);
        Ok(())
    }

    fn truncate(&self, len: u64) -> io::Result<u64> {
        let mut tape = self.tape();
        tape.bytes
            .truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(tape.bytes.len() as u64)
    }
}

//! Persistent append-only log engine with checksummed crash recovery.
//!
//! File layout: an 8-byte magic header (`TCLOG2\r\n` — the `\r\n` catches
//! text-mode mangling, PNG-style) followed by records:
//!
//! ```text
//! op(1) | seq(1) | key_len(u32 le) | val_len(u32 le) | key | value | crc32(u32 le)
//! ```
//!
//! `op` is 0 = put, 1 = delete; `seq` is a wrapping per-record sequence
//! byte; the CRC32 (IEEE) footer covers everything before it. On open the
//! log is replayed to rebuild the in-memory index, and the footer + the
//! sequence byte let replay tell two very different failures apart:
//!
//! * **Torn tail** — the final record is incomplete or fails its CRC and
//!   nothing valid follows it: a crash mid-append. Recovery truncates the
//!   tail and warns with the byte offset (WAL semantics; the record was
//!   never acked, so nothing durable is lost).
//! * **Mid-file corruption** — an invalid record that is *followed* by a
//!   valid one, or a record whose CRC passes but whose sequence byte
//!   breaks the chain: bit rot or a spliced file. Recovery refuses with
//!   [`StoreError::CorruptAt`] carrying the offset, because silently
//!   resuming would drop every later record (the pre-CRC format treated
//!   this exactly like a torn tail and lost history silently).
//!
//! Durability is a three-position knob ([`Durability`]): `Buffered`
//! (bytes may sit in the `BufWriter`), `Flush` (write(2) per op — survives
//! process death, not power loss; the historical behaviour and still the
//! `open` default), and `Fsync` (group-commit `fdatasync` before ack —
//! survives kill-9 and power loss; the node binary's default). Under
//! `Fsync`, concurrent writers serialize appends on the inner lock but
//! share fsyncs: each waiter checks the synced watermark and only issues
//! the syscall if its record is not already covered.
//!
//! A non-empty file that does not begin with the magic (or, if shorter
//! than it, with a prefix of it — a crash during file creation, treated
//! as a torn tail at offset 0) is refused with [`StoreError::CorruptAt`]
//! and left untouched: one flipped header bit must never cost the store.

use crate::{KvStore, StoreError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use timecrypt_obs::tc_warn;

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;

/// File magic for the checksummed format ("version 2").
const MAGIC: &[u8; 8] = b"TCLOG2\r\n";
/// Fixed bytes before the key: op, seq, key_len, val_len.
const HDR: usize = 10;
/// CRC32 footer bytes.
const FOOTER: usize = 4;

/// How durable an acked `put`/`delete` is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// Record bytes may remain in the userspace write buffer. Fastest;
    /// an acked write can vanish if the *process* dies.
    Buffered,
    /// `write(2)` per op: bytes reach the OS page cache before ack.
    /// Survives process death (kill -9), not power loss. The historical
    /// behaviour and the [`LogKv::open`] default.
    #[default]
    Flush,
    /// Group-commit `fdatasync` before ack: survives power loss. The
    /// `timecrypt-node` default.
    Fsync,
}

// -------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — hand-rolled because the
// build is offline; tables are computed at compile time. Slicing-by-8:
// `CRC_TABLES[0]` is the classic byte-at-a-time table, and `CRC_TABLES[n][b]`
// is the CRC of byte `b` followed by `n` zero bytes, so eight input bytes
// fold into the state with eight independent lookups instead of a chain of
// eight dependent ones.

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Streaming CRC32 update; start from `0xFFFF_FFFF`, finish with `!crc`.
#[inline]
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][w[4] as usize]
            ^ CRC_TABLES[2][w[5] as usize]
            ^ CRC_TABLES[1][w[6] as usize]
            ^ CRC_TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// One-shot CRC32 of `data` (exposed for tests and tooling).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

// -------------------------------------------------------------------------

struct Inner {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    writer: BufWriter<File>,
    /// Sequence byte the next record will carry (wrapping).
    next_seq: u8,
    /// Records appended since open (monotonic; group-commit watermark).
    appended: u64,
}

/// The group-commit state: highest `appended` value known fsynced, plus a
/// second handle to the log fd so fsync never blocks appenders holding
/// the inner lock. Lock order where both are held: inner → sync (compact
/// swaps the handle); `commit` takes only this lock.
struct SyncState {
    synced: u64,
    file: File,
}

/// Append-only persistent store.
pub struct LogKv {
    path: PathBuf,
    durability: Durability,
    inner: Mutex<Inner>,
    /// Records whose bytes reached the fd (flushed) — published after the
    /// inner lock flushes, read by `commit` before fsync to learn what
    /// the syscall will cover.
    flushed: AtomicU64,
    sync_state: Mutex<SyncState>,
}

impl LogKv {
    /// Opens (or creates) a log file with the default [`Durability::Flush`],
    /// replaying its contents.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, Durability::default())
    }

    /// Opens (or creates) a log file with an explicit durability mode.
    ///
    /// Fails with [`StoreError::CorruptAt`] if the file lacks the magic or
    /// replay finds mid-file corruption (see the module docs for the
    /// torn-tail distinction); the file is not modified in either case.
    pub fn open_with(path: impl AsRef<Path>, durability: Durability) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut buf = Vec::new();
        if path.exists() {
            File::open(&path)?.read_to_end(&mut buf)?;
        }
        if !MAGIC.starts_with(&buf[..buf.len().min(MAGIC.len())]) {
            return Err(StoreError::CorruptAt {
                what: "missing log magic",
                offset: 0,
            });
        }

        let mut map = BTreeMap::new();
        let mut next_seq: u8 = 0;
        // A strict prefix of the magic is a crash during file creation:
        // a torn tail at offset 0, truncated like any other.
        let mut valid_len = if buf.len() < MAGIC.len() {
            0
        } else {
            MAGIC.len() as u64
        };
        if buf.len() > MAGIC.len() {
            let (_records, seq, tail) = replay(&path, &buf, &mut map)?;
            next_seq = seq;
            valid_len = tail;
        }

        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .read(true)
            .open(&path)?;
        // Truncate any torn tail, then position at the end.
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        let mut writer = BufWriter::new(file);
        if valid_len < MAGIC.len() as u64 {
            writer.write_all(MAGIC)?;
            writer.flush()?;
        }
        let sync_file = writer.get_ref().try_clone()?;
        if durability == Durability::Fsync {
            sync_file.sync_data()?;
            timecrypt_obs::counters::fsync_recorded();
        }
        Ok(LogKv {
            path,
            durability,
            inner: Mutex::new(Inner {
                map,
                writer,
                next_seq,
                appended: 0,
            }),
            flushed: AtomicU64::new(0),
            sync_state: Mutex::new(SyncState {
                synced: 0,
                file: sync_file,
            }),
        })
    }

    /// Appends one record under the inner lock. Returns the record's
    /// monotonic append number for group commit.
    fn append(
        inner: &mut Inner,
        durability: Durability,
        op: u8,
        key: &[u8],
        value: &[u8],
    ) -> Result<u64, StoreError> {
        let mut hdr = [0u8; HDR];
        hdr[0] = op;
        hdr[1] = inner.next_seq;
        hdr[2..6].copy_from_slice(&(key.len() as u32).to_le_bytes());
        hdr[6..10].copy_from_slice(&(value.len() as u32).to_le_bytes());
        let mut crc = 0xFFFF_FFFFu32;
        crc = crc32_update(crc, &hdr);
        crc = crc32_update(crc, key);
        crc = crc32_update(crc, value);
        let w = &mut inner.writer;
        w.write_all(&hdr)?;
        w.write_all(key)?;
        w.write_all(value)?;
        w.write_all(&(!crc).to_le_bytes())?;
        if durability != Durability::Buffered {
            w.flush()?;
        }
        inner.next_seq = inner.next_seq.wrapping_add(1);
        inner.appended += 1;
        Ok(inner.appended)
    }

    /// Group-commit fsync: make append number `my` durable, sharing the
    /// syscall with every other record flushed before it started.
    fn commit(&self, my: u64) -> Result<(), StoreError> {
        if self.durability != Durability::Fsync {
            return Ok(());
        }
        let mut sync = self.sync_state.lock();
        if sync.synced >= my {
            return Ok(()); // another waiter's fsync already covered us
        }
        // Everything flushed to the fd before the syscall starts is
        // durable when it returns; snapshot the watermark first.
        let covered = self.flushed.load(Ordering::Acquire);
        sync.file.sync_data()?;
        timecrypt_obs::counters::fsync_recorded();
        sync.synced = sync.synced.max(covered);
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured durability mode.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True if there are no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rewrites the log to contain only live records (space reclamation for
    /// data-decay workloads, §4.5 "data decay").
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let (writer, file, next_seq) = write_snapshot(&self.path, &inner.map, self.durability)?;
        inner.writer = writer;
        inner.next_seq = next_seq;
        // The rewritten file starts a fresh fd: swap the fsync handle and
        // mark everything appended so far as covered by the rewrite.
        let mut sync = self.sync_state.lock();
        sync.file = file;
        sync.synced = inner.appended;
        self.flushed.store(inner.appended, Ordering::Release);
        Ok(())
    }
}

impl KvStore for LogKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.inner.lock().map.get(key).cloned())
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let my = {
            let mut inner = self.inner.lock();
            let my = Self::append(&mut inner, self.durability, OP_PUT, key, value)?;
            inner.map.insert(key.to_vec(), value.to_vec());
            self.flushed.store(my, Ordering::Release);
            my
        };
        self.commit(my)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        let my = {
            let mut inner = self.inner.lock();
            let my = Self::append(&mut inner, self.durability, OP_DELETE, key, &[])?;
            inner.map.remove(key);
            self.flushed.store(my, Ordering::Release);
            my
        };
        self.commit(my)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, StoreError> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for (k, v) in inner.map.range(prefix.to_vec()..) {
            if !k.starts_with(prefix) {
                break;
            }
            out.push((k.clone(), v.clone()));
        }
        Ok(out)
    }
}

// -------------------------------------------------------------------------
// Replay.

/// A record parsed out of the buffer, or why parsing stopped.
enum Parsed<'a> {
    Record {
        op: u8,
        seq: u8,
        key: &'a [u8],
        value: &'a [u8],
        consumed: usize,
    },
    /// Too few bytes for a complete record (header truncated or claimed
    /// extent runs past the end of the buffer).
    Short,
    /// A complete extent whose CRC footer does not match, or an unknown
    /// op byte under a valid CRC.
    Bad,
}

fn parse_v2(buf: &[u8]) -> Parsed<'_> {
    if buf.len() < HDR + FOOTER {
        return Parsed::Short;
    }
    let op = buf[0];
    let seq = buf[1];
    let Some(klen) = buf
        .get(2..6)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
    else {
        return Parsed::Short;
    };
    let Some(vlen) = buf
        .get(6..10)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
    else {
        return Parsed::Short;
    };
    let (klen, vlen) = (klen as usize, vlen as usize);
    let Some(total) = HDR
        .checked_add(klen)
        .and_then(|t| t.checked_add(vlen))
        .and_then(|t| t.checked_add(FOOTER))
    else {
        return Parsed::Bad; // lengths overflow usize: impossible extent
    };
    if buf.len() < total {
        return Parsed::Short;
    }
    let body_end = total - FOOTER;
    let Some(footer) = buf.get(body_end..total).and_then(|b| b.try_into().ok()) else {
        return Parsed::Short;
    };
    if crc32(&buf[..body_end]) != u32::from_le_bytes(footer) {
        return Parsed::Bad;
    }
    if op != OP_PUT && op != OP_DELETE {
        return Parsed::Bad;
    }
    Parsed::Record {
        op,
        seq,
        key: &buf[HDR..HDR + klen],
        value: &buf[HDR + klen..body_end],
        consumed: total,
    }
}

/// Does any complete, CRC-valid record start anywhere in `buf`? Used to
/// tell a torn tail (no) from mid-file corruption (yes) after a parse
/// failure. A CRC collision on arbitrary garbage is a 2^-32 event per
/// offset; the sequence-byte chain check in `replay` backstops splices.
fn any_valid_record_after(buf: &[u8]) -> bool {
    (0..buf.len()).any(|q| matches!(parse_v2(&buf[q..]), Parsed::Record { .. }))
}

/// Replays a v2 buffer into `map`. Returns `(records, next_seq, tail)`
/// where `tail` is the byte length of the valid prefix (magic included).
fn replay(
    path: &Path,
    buf: &[u8],
    map: &mut BTreeMap<Vec<u8>, Vec<u8>>,
) -> Result<(u64, u8, u64), StoreError> {
    let mut pos = MAGIC.len();
    let mut records = 0u64;
    let mut next_seq: u8 = 0;
    while pos < buf.len() {
        match parse_v2(&buf[pos..]) {
            Parsed::Record {
                op,
                seq,
                key,
                value,
                consumed,
            } => {
                if seq != next_seq {
                    // Valid CRC but a broken sequence chain: records were
                    // lost or spliced *before* this point.
                    return Err(StoreError::CorruptAt {
                        what: "record sequence chain broken",
                        offset: pos as u64,
                    });
                }
                match op {
                    OP_PUT => {
                        map.insert(key.to_vec(), value.to_vec());
                    }
                    _ => {
                        map.remove(key);
                    }
                }
                next_seq = next_seq.wrapping_add(1);
                records += 1;
                pos += consumed;
            }
            Parsed::Short | Parsed::Bad => {
                if any_valid_record_after(&buf[pos + 1..]) {
                    return Err(StoreError::CorruptAt {
                        what: "invalid record followed by valid data",
                        offset: pos as u64,
                    });
                }
                tc_warn!(
                    "store.log",
                    "torn tail: truncating {} byte(s) at offset {} path={}",
                    buf.len() - pos,
                    pos,
                    path.display()
                );
                break;
            }
        }
    }
    Ok((records, next_seq, pos as u64))
}

/// Writes `map` as a fresh checksummed log (magic + one put per pair) to
/// a temp file, atomically renames it over `path`, and returns a writer
/// positioned at the end, a second handle for fsync, and the next
/// sequence byte. Under `Fsync` the snapshot and its directory entry are
/// both synced before the rename is trusted.
fn write_snapshot(
    path: &Path,
    map: &BTreeMap<Vec<u8>, Vec<u8>>,
    durability: Durability,
) -> Result<(BufWriter<File>, File, u8), StoreError> {
    let tmp_path = path.with_extension("compact");
    {
        let tmp = File::create(&tmp_path)?;
        let mut w = BufWriter::new(tmp);
        w.write_all(MAGIC)?;
        let mut seq: u8 = 0;
        for (k, v) in map {
            let mut hdr = [0u8; HDR];
            hdr[0] = OP_PUT;
            hdr[1] = seq;
            hdr[2..6].copy_from_slice(&(k.len() as u32).to_le_bytes());
            hdr[6..10].copy_from_slice(&(v.len() as u32).to_le_bytes());
            let mut crc = 0xFFFF_FFFFu32;
            crc = crc32_update(crc, &hdr);
            crc = crc32_update(crc, k);
            crc = crc32_update(crc, v);
            w.write_all(&hdr)?;
            w.write_all(k)?;
            w.write_all(v)?;
            w.write_all(&(!crc).to_le_bytes())?;
            seq = seq.wrapping_add(1);
        }
        w.flush()?;
        if durability == Durability::Fsync {
            w.get_ref().sync_data()?;
            timecrypt_obs::counters::fsync_recorded();
        }
    }
    std::fs::rename(&tmp_path, path)?;
    if durability == Durability::Fsync {
        // Make the rename itself durable.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    let mut file = OpenOptions::new().write(true).read(true).open(path)?;
    file.seek(SeekFrom::End(0))?;
    let sync_file = file.try_clone()?;
    Ok((BufWriter::new(file), sync_file, (map.len() % 256) as u8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("timecrypt-logkv-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_check_value() {
        // The CRC32 (IEEE) check value from the CRC catalogue.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_matches_bytewise_on_random_buffers() {
        // The byte-at-a-time loop the slicing-by-8 update replaced, kept
        // here as the reference: every length 0..=64 (all tail sizes and
        // word counts), split at every point (the log feeds header, key
        // and value as three streaming updates).
        fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
            for &b in data {
                crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
            }
            crc
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + 64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for len in 0..=64 {
            let data = &buf[len..2 * len];
            let want = bytewise(0xFFFF_FFFF, data);
            for cut in 0..=len {
                let got = crc32_update(crc32_update(0xFFFF_FFFF, &data[..cut]), &data[cut..]);
                assert_eq!(got, want, "len {len} cut {cut}");
            }
        }
        assert_eq!(crc32(&buf), !bytewise(0xFFFF_FFFF, &buf));
    }

    #[test]
    fn conformance_basic() {
        conformance::basic_ops(&LogKv::open(tmp("basic")).unwrap());
    }

    #[test]
    fn conformance_scan() {
        conformance::prefix_scan(&LogKv::open(tmp("scan")).unwrap());
    }

    #[test]
    fn conformance_binary() {
        conformance::binary_safety(&LogKv::open(tmp("bin")).unwrap());
    }

    #[test]
    fn conformance_empty_value() {
        conformance::empty_value(&LogKv::open(tmp("empty")).unwrap());
    }

    #[test]
    fn conformance_fsync_mode() {
        conformance::basic_ops(&LogKv::open_with(tmp("fsync"), Durability::Fsync).unwrap());
    }

    #[test]
    fn conformance_buffered_mode() {
        conformance::basic_ops(&LogKv::open_with(tmp("buffered"), Durability::Buffered).unwrap());
    }

    #[test]
    fn persistence_across_reopen() {
        let path = tmp("persist");
        {
            let kv = LogKv::open(&path).unwrap();
            kv.put(b"k1", b"v1").unwrap();
            kv.put(b"k2", b"v2").unwrap();
            kv.delete(b"k1").unwrap();
            kv.put(b"k3", b"v3-final").unwrap();
        }
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.get(b"k1").unwrap(), None);
        assert_eq!(kv.get(b"k2").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(kv.get(b"k3").unwrap(), Some(b"v3-final".to_vec()));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn torn_tail_record_truncated() {
        let path = tmp("torn");
        {
            let kv = LogKv::open(&path).unwrap();
            kv.put(b"good", b"value").unwrap();
        }
        // Simulate a crash mid-append: write a partial record header.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[OP_PUT, 1, 200, 0, 0]).unwrap();
        }
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.get(b"good").unwrap(), Some(b"value".to_vec()));
        // Store still writable after recovery.
        kv.put(b"after", b"crash").unwrap();
        drop(kv);
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.get(b"after").unwrap(), Some(b"crash".to_vec()));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_hard_error_with_offset() {
        let path = tmp("midcorrupt");
        {
            let kv = LogKv::open(&path).unwrap();
            kv.put(b"first", b"valuevaluevalue").unwrap();
            kv.put(b"second", b"other").unwrap();
        }
        // Flip one byte inside the first record's value region. The first
        // record starts right after the magic, at offset 8.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = MAGIC.len() + HDR + 5 + 3; // inside "valuevaluevalue"
        bytes[victim] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match LogKv::open(&path) {
            Err(StoreError::CorruptAt { offset, .. }) => {
                assert_eq!(offset, MAGIC.len() as u64, "offset should be record 0");
            }
            other => panic!("expected CorruptAt, got {:?}", other.map(|kv| kv.len())),
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn spliced_sequence_chain_is_hard_error() {
        let path_a = tmp("splice-a");
        let path_b = tmp("splice-b");
        {
            let a = LogKv::open(&path_a).unwrap();
            a.put(b"a", b"1").unwrap();
            let b = LogKv::open(&path_b).unwrap();
            b.put(b"b", b"2").unwrap();
        }
        // Both records carry seq 0; appending B's record to A breaks the
        // chain even though its CRC is valid.
        let a_bytes = std::fs::read(&path_a).unwrap();
        let b_bytes = std::fs::read(&path_b).unwrap();
        let mut spliced = a_bytes.clone();
        spliced.extend_from_slice(&b_bytes[MAGIC.len()..]);
        std::fs::write(&path_a, &spliced).unwrap();
        match LogKv::open(&path_a) {
            Err(StoreError::CorruptAt { offset, .. }) => {
                assert_eq!(offset, a_bytes.len() as u64);
            }
            other => panic!("expected CorruptAt, got {:?}", other.map(|kv| kv.len())),
        }
        std::fs::remove_file(path_a).unwrap();
        std::fs::remove_file(path_b).unwrap();
    }

    #[test]
    fn rotted_magic_is_hard_error_and_leaves_the_file_untouched() {
        // One flipped bit in the header must not send a healthy log down
        // a path that rewrites it: every magic byte in turn.
        let path = tmp("magicrot");
        {
            let kv = LogKv::open(&path).unwrap();
            kv.put(b"first", b"value").unwrap();
            kv.put(b"second", b"other").unwrap();
        }
        let healthy = std::fs::read(&path).unwrap();
        for victim in 0..MAGIC.len() {
            let mut rotted = healthy.clone();
            rotted[victim] ^= 0x01;
            std::fs::write(&path, &rotted).unwrap();
            match LogKv::open(&path) {
                Err(StoreError::CorruptAt { what, offset }) => {
                    assert_eq!((what, offset), ("missing log magic", 0), "byte {victim}");
                }
                other => panic!(
                    "byte {victim}: expected CorruptAt, got {:?}",
                    other.map(|kv| kv.len())
                ),
            }
            assert_eq!(std::fs::read(&path).unwrap(), rotted, "byte {victim}");
        }
        // A short file that is not a prefix of the magic is no torn header.
        std::fs::write(&path, b"TCX").unwrap();
        assert!(matches!(
            LogKv::open(&path),
            Err(StoreError::CorruptAt { offset: 0, .. })
        ));
        assert_eq!(std::fs::read(&path).unwrap(), b"TCX");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn fsync_mode_counts_fsyncs() {
        let path = tmp("fsynccount");
        let before = timecrypt_obs::counters::fsyncs_total();
        let kv = LogKv::open_with(&path, Durability::Fsync).unwrap();
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        assert!(
            timecrypt_obs::counters::fsyncs_total() >= before + 2,
            "each uncontended fsync-mode put must fsync"
        );
        drop(kv);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn compaction_preserves_live_data() {
        let path = tmp("compact");
        let kv = LogKv::open(&path).unwrap();
        for i in 0..100 {
            kv.put(format!("k{i}").as_bytes(), b"xxxxxxxxxxxxxxxx")
                .unwrap();
        }
        for i in 0..90 {
            kv.delete(format!("k{i}").as_bytes()).unwrap();
        }
        let size_before = std::fs::metadata(&path).unwrap().len();
        kv.compact().unwrap();
        let size_after = std::fs::metadata(&path).unwrap().len();
        assert!(
            size_after < size_before / 2,
            "{size_after} vs {size_before}"
        );
        assert_eq!(kv.len(), 10);
        kv.put(b"post-compact", b"1").unwrap();
        drop(kv);
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.len(), 11);
        assert_eq!(kv.get(b"k95").unwrap(), Some(b"xxxxxxxxxxxxxxxx".to_vec()));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn compaction_under_fsync_durability() {
        let path = tmp("compact-fsync");
        let kv = LogKv::open_with(&path, Durability::Fsync).unwrap();
        for i in 0..20 {
            kv.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        kv.compact().unwrap();
        kv.put(b"post", b"compact").unwrap();
        drop(kv);
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.len(), 21);
        std::fs::remove_file(path).unwrap();
    }

    // The satellite crash-recovery property: truncating a populated log
    // at EVERY byte offset and reopening must recover exactly the
    // records fully contained in the kept prefix, and the store must
    // accept appends afterwards. Record sets are proptest-generated; the
    // offset sweep inside each case is exhaustive.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]
        #[test]
        fn truncate_at_every_offset_recovers_longest_valid_prefix(
            recs in proptest::collection::vec(
                (proptest::collection::vec(proptest::any::<u8>(), 1..12),
                 proptest::collection::vec(proptest::any::<u8>(), 0..24)),
                1..5,
            )
        ) {
            truncation_sweep(&recs);
        }
    }

    fn truncation_sweep(recs: &[(Vec<u8>, Vec<u8>)]) {
        let path = tmp("sweep-src");
        {
            let kv = LogKv::open(&path).unwrap();
            for (k, v) in recs {
                kv.put(k, v).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Byte offset where each record ends, in append order.
        let mut ends = Vec::new();
        let mut pos = MAGIC.len();
        for (k, v) in recs {
            pos += HDR + k.len() + v.len() + FOOTER;
            ends.push(pos);
        }
        assert_eq!(pos, full.len());

        let cut_path = tmp("sweep-cut");
        for cut in 0..=full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let kv = match LogKv::open(&cut_path) {
                Ok(kv) => kv,
                Err(e) => panic!("offset {cut}: truncated log must open, got {e}"),
            };
            // Expected: exactly the records whose extent fits in `cut`.
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            let mut expect: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (k, v) in &recs[..complete] {
                expect.insert(k.clone(), v.clone());
            }
            assert_eq!(
                kv.len(),
                expect.len(),
                "offset {cut}: wrong number of recovered keys"
            );
            for (k, v) in &expect {
                assert_eq!(
                    kv.get(k).unwrap().as_deref(),
                    Some(v.as_slice()),
                    "offset {cut}: wrong value recovered"
                );
            }
            // Post-recovery appends must round-trip across reopen.
            kv.put(b"post-recovery", b"ok").unwrap();
            drop(kv);
            let kv = LogKv::open(&cut_path).unwrap();
            assert_eq!(
                kv.get(b"post-recovery").unwrap(),
                Some(b"ok".to_vec()),
                "offset {cut}: post-recovery append lost"
            );
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&cut_path);
    }
}

//! Persistent append-only log engine with checksummed crash recovery.
//!
//! File layout: an 8-byte magic header (`TCLOG3\r\n` — the `\r\n` catches
//! text-mode mangling, PNG-style) followed by records:
//!
//! ```text
//! flags(1) | seq(1) | value length | key | value | crc32(u32 le)
//!   key = key length | key bytes     (literal)
//!       | run number | tail          (run form)
//! ```
//!
//! Lengths, run numbers and tails are LEB128 varints, the value's length
//! first, so a record's head (every length it claims) is at most 32 bytes.
//! `flags` holds the op (0 = put, 1 = delete), the run-form bit (`0x40`)
//! and the continues bit (`0x80`); `seq` is a wrapping per-record sequence
//! byte; the CRC32 (IEEE) footer covers every byte before it.
//!
//! **Key forms.** A record names its key by its head's run (see **Index**)
//! when, *at the start of its batch*, the index holds a run under that head
//! — numbered in the order the index created its runs — and the record
//! cannot take the key out of it: a delete, or a put of a key the run spans
//! or of the one after its last, with no delete of that head earlier in the
//! batch. Every other key is spelled out. That saves ≈ 30 B a counting key.
//!
//! **Batches.** [`KvStore::write_batch`] appends its records back to back
//! as one run, under one lock acquisition, one `write(2)` and one
//! group-commit wait, and sets the continues bit in every record but the
//! last: "the batch I belong to is not over" (a batch of one sets none).
//! Replay holds a batch's index updates back until the record that closes
//! it validates, which makes the batch all or nothing across a crash and
//! resolves its run-form keys against the index as the writer found it; a
//! record naming a run that index does not hold is
//! [`StoreError::CorruptAt`]. Readers may ignore the bit: the index only
//! ever holds records of closed batches. `compact()` re-appends the live
//! records, one plain put per key, through the same encoder into a fresh
//! index.
//!
//! The file is the only copy of the values. The in-memory index maps each
//! live key to the location of its latest put record — offset and length,
//! nothing else — so resident memory grows with the number of keys, not
//! with the bytes stored; the OS page cache is the only cache.
//!
//! **Index.** Runs plus a side map (`Index`). A key whose last eight
//! bytes, read as a big-endian integer, are one more than those of a key
//! already held with the same bytes before them is not stored at all: its
//! location is appended to that head's run, an array indexed by the
//! integer, at 12 bytes and no allocation. The keys written in volume all
//! count up like that (≈ 14 B of RAM per key with the array's slack). Any
//! other key sits, with its bytes, in an ordered map beside the runs
//! (≈ 105–120 B per key). Which of the two holds a key is the index's own
//! business: no key format or [`KvStore`] signature knows.
//!
//! **Read path.** `get` / `scan_prefix` look locations up under the inner
//! lock, clone the handle of the current log generation — a [`LogFile`]:
//! the [`OsFile`] a node opens by path, or the [`MemFile`] of [`MemKv`] —
//! release the lock and read each whole record at its offset (one `pread`
//! on the `OsFile`). A reader therefore never waits behind a writer's
//! `write(2)` or an fsync. Every read re-checks the record's CRC and that
//! it names the requested key (its bytes, or its run and tail), so rot
//! after open is [`StoreError::CorruptAt`] with that record's offset, not
//! wrong bytes. `compact()` swaps a rewritten generation in under the
//! file's name ([`LogFile::swap`]) and the handle under the lock; a reader
//! already holding the old generation's handle and locations finishes
//! against the old (unlinked, still open) file and never sees a
//! half-swapped log. Under `Durability::Buffered` a read whose record lies
//! past the bytes known to have left the write buffer flushes it first,
//! so every durability level reads its own acked writes. `scan_keys`
//! answers from the index alone.
//!
//! On open the log is streamed through a bounded window (1 MiB, or one
//! record if larger) to rebuild the index, and the footer + the sequence
//! byte let replay tell two very different failures apart:
//!
//! * **Torn tail** — the final batch is incomplete: its last record is cut
//!   short or fails its CRC with nothing valid after it, or the file ends
//!   on a record whose continues bit promises more. A crash mid-append.
//!   Recovery truncates to the batch's first byte, rewinds the sequence
//!   byte to match and warns with the offset (WAL semantics; the batch was
//!   never acked, so nothing durable is lost, and none of it is applied).
//! * **Mid-file corruption** — an invalid record that is *followed* by a
//!   valid one (inside a batch or not), or a record whose CRC passes but
//!   whose sequence byte breaks the chain: bit rot or a spliced file.
//!   Recovery refuses with [`StoreError::CorruptAt`] carrying the damaged
//!   record's offset, because silently resuming would drop every later
//!   record (the pre-CRC format treated this exactly like a torn tail and
//!   lost history silently).
//!
//! Under [`Durability::Fsync`], concurrent writers serialize appends on
//! the inner lock but share fsyncs: each waiter checks the synced
//! watermark and only issues the syscall if its append is not already
//! covered. A batch is one append and waits once.
//!
//! A non-empty file that does not begin with the magic (or, if shorter
//! than it, with a prefix of it — a crash during file creation, treated
//! as a torn tail at offset 0) is refused with [`StoreError::CorruptAt`]
//! and left untouched: one flipped header bit must never cost the store.
//! So is a log of an earlier format: this build reads `TCLOG3` only.

use crate::file::{LogFile, MemFile, OsFile};
use crate::{KvStore, StoreError, WriteOp};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use timecrypt_obs::{counters, rank, tc_warn};

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;
/// Set in the flags of a record whose key is stored as `(run, tail)`.
const RUN_KEY: u8 = 0x40;
/// Set in the flags of every record of a batch but its last.
const OP_CONTINUES: u8 = 0x80;

/// File magic for the checksummed, run-naming format ("version 3").
const MAGIC: &[u8; 8] = b"TCLOG3\r\n";
/// The most bytes a record's head takes: flags, seq and three varints.
const MAX_HEAD: usize = 2 + 3 * 10;
/// CRC32 footer bytes.
const FOOTER: usize = 4;

/// How durable an acked `put`/`delete` is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// Record bytes may remain in the log's 8 KiB write buffer. Fastest;
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
/// Every put, every read and replay pass through here, so whole 16-byte
/// blocks of inputs of 64 bytes and more go through carry-less multiply
/// where the CPU has it (15× the tables' 1.4 GB/s on a 10 KiB record).
#[inline]
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: both target features `crc32_clmul` is compiled for were
        // detected on this CPU just above.
        let crc = unsafe { crc32_clmul(crc, data) };
        return crc32_tables(crc, &data[data.len() & !15..]);
    }
    crc32_tables(crc, data)
}

/// [`crc32_update`] over the whole 16-byte blocks of `data`, folding four
/// lanes with `pclmulqdq` (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel 2009; constants for the
/// reflected IEEE polynomial). The caller feeds the tail to the tables.
///
/// # Safety
/// The CPU must support `pclmulqdq` and `sse4.1`. (Fewer than four blocks
/// of `data` is a panic, not undefined behaviour.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn crc32_clmul(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    /// `x^n mod P`, bit-reflected, for n = 544, 480 (fold four lanes
    /// ahead), 160, 96 (fold one lane ahead) and 64; then `P` and
    /// `⌊x^64 / P⌋` for the Barrett reduction.
    const K: [i64; 7] = [
        0x1_5444_2bd4,
        0x1_c6e4_1596,
        0x1_7519_97d0,
        0x0_ccaa_009e,
        0x1_63cd_6124,
        0x1_db71_0641,
        0x1_f701_1641,
    ];
    // `a` moved ahead by the distance `keys` encodes, added to `b`.
    let fold = |a, b, keys| {
        let (lo, hi) = (
            _mm_clmulepi64_si128(a, keys, 0x00),
            _mm_clmulepi64_si128(a, keys, 0x11),
        );
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    };
    // SAFETY (of the load): a `[u8; 16]` is 16 readable bytes and `loadu`
    // takes any alignment.
    let load = |block: &[u8; 16]| _mm_loadu_si128(block.as_ptr().cast());
    let (blocks, _tail) = data.as_chunks::<16>();
    let mut lanes = [0, 1, 2, 3].map(|i| load(&blocks[i]));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
    let (quads, singles) = blocks[4..].as_chunks::<4>();
    let ahead4 = _mm_set_epi64x(K[1], K[0]);
    for quad in quads {
        for (lane, block) in lanes.iter_mut().zip(quad) {
            *lane = fold(*lane, load(block), ahead4);
        }
    }
    let ahead1 = _mm_set_epi64x(K[3], K[2]);
    let mut acc = lanes[0];
    for lane in &lanes[1..] {
        acc = fold(acc, *lane, ahead1);
    }
    for block in singles {
        acc = fold(acc, load(block), ahead1);
    }
    // 128 → 64 → 32 bits, then Barrett.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128(acc, ahead1, 0x10),
        _mm_srli_si128(acc, 8),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K[4]), 0x00),
        _mm_srli_si128(acc, 4),
    );
    let pu = _mm_set_epi64x(K[6], K[5]);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32
}

/// The portable [`crc32_update`]: slicing-by-8 over [`CRC_TABLES`].
fn crc32_tables(mut crc: u32, data: &[u8]) -> u32 {
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

/// Where a live key's put record sits in the log: its offset and its
/// whole length. Twelve bytes, not sixteen: a [`Run`] holds one per key
/// and nothing else.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Loc {
    offset: u64,
    len: u32,
}

impl Loc {
    /// The slot of a deleted key inside a [`Run`]. Offset 0 is the magic,
    /// never a record.
    const HOLE: Loc = Loc { offset: 0, len: 0 };

    fn live(self) -> Option<Loc> {
        (self.offset != 0).then_some(self)
    }

    fn end(self) -> u64 {
        self.offset + u64::from(self.len)
    }
}

/// A write as the record it becomes: op, key, value.
fn parts<'a>(op: &WriteOp<'a>) -> (u8, &'a [u8], &'a [u8]) {
    match *op {
        WriteOp::Put { key, value } => (OP_PUT, key, value),
        WriteOp::Delete { key } => (OP_DELETE, key, &[]),
    }
}

/// Bytes of a key that count: its big-endian `u64` tail.
const TAIL: usize = 8;

/// A key as `(head, tail)`: everything before its last eight bytes, and
/// those as a big-endian integer. `None` for a key too short to have both.
fn split(key: &[u8]) -> Option<(&[u8], u64)> {
    let (head, tail) = key.split_last_chunk::<TAIL>()?;
    Some((head, u64::from_be_bytes(*tail)))
}

fn join(head: &[u8], tail: u64) -> Vec<u8> {
    [head, &tail.to_be_bytes()].concat()
}

/// The least tail `t` for which `join(head, t)` sorts after `after`;
/// `None` when no tail does.
fn first_tail_after(head: &[u8], after: &[u8]) -> Option<u64> {
    let Some(rest) = after.strip_prefix(head) else {
        // The keys differ from `after` inside the head, or extend it.
        let n = head.len().min(after.len());
        return (head[..n] >= after[..n]).then_some(0);
    };
    let mut tail = [0; TAIL];
    let n = rest.len().min(TAIL);
    tail[..n].copy_from_slice(&rest[..n]);
    let tail = u64::from_be_bytes(tail);
    // A shorter rest, zero-padded, is a proper prefix of its key.
    match rest.len() < TAIL {
        true => Some(tail),
        false => tail.checked_add(1),
    }
}

/// A key as [`Index::range`] hands it out: its bytes, its record's
/// location and the number of the run that holds it, if one does.
type Hit = (Vec<u8>, Loc, Option<u64>);

/// The keys `head + base`, `head + (base + 1)`, … of one head, held as
/// their locations alone. Both ends are live; a key deleted in between
/// leaves a [`Loc::HOLE`].
struct Run {
    /// Given by the index when it creates the run, never reused: records
    /// name their key by it.
    number: u64,
    base: u64,
    locs: VecDeque<Loc>,
}

impl Run {
    /// The slot of `tail`, if the run spans it.
    fn slot(&self, tail: u64) -> Option<usize> {
        let i = usize::try_from(tail.checked_sub(self.base)?).ok()?;
        (i < self.locs.len()).then_some(i)
    }

    /// Appends the successor of the last key. Grows by a quarter, not by
    /// doubling: a run is O(history), and its slack is RAM per stored key.
    fn push(&mut self, loc: Loc) {
        if self.locs.len() == self.locs.capacity() {
            self.locs.reserve_exact((self.locs.len() / 4).max(4));
        }
        self.locs.push_back(loc);
    }

    /// Deletes the key in slot `i`: the ends close up over holes (decay
    /// trims the front, a rollback pops the back), the middle keeps one,
    /// and a run left half empty gives its memory back.
    fn remove(&mut self, i: usize) -> Option<Loc> {
        let old = std::mem::replace(&mut self.locs[i], Loc::HOLE).live();
        while self.locs.back().is_some_and(|l| l.live().is_none()) {
            self.locs.pop_back();
        }
        // What is left, if anything, now ends on a live key: this stops there.
        while self.locs.front().is_some_and(|l| l.live().is_none()) {
            self.locs.pop_front();
            self.base += 1;
        }
        if self.locs.len() < self.locs.capacity() / 2 {
            self.locs.shrink_to_fit();
        }
        old
    }

    /// The live keys with tails in `lo..=hi`, ascending, spelled out.
    fn between<'a>(&'a self, head: &'a [u8], lo: u64, hi: u64) -> impl Iterator<Item = Hit> + 'a {
        let last = self.base + (self.locs.len() as u64 - 1);
        let slots = match (self.slot(lo.max(self.base)), self.slot(hi.min(last))) {
            (Some(a), Some(b)) if a <= b => a..b + 1,
            _ => 0..0,
        };
        let base = self.base;
        slots
            .clone()
            .zip(self.locs.range(slots))
            .filter_map(move |(i, loc)| {
                Some((join(head, base + i as u64), loc.live()?, Some(self.number)))
            })
    }
}

/// What [`LogStats::index_bytes`] charges per key of the side map besides
/// the key's bytes: the key's `Vec` header and the `Loc` in a B-tree node
/// half to two thirds full, the node's header and its share of the levels
/// above, the allocator's header and rounding on the key. Calibrated in
/// `tests/index_ram.rs`, where the allocator counts 105 B per 28-byte key
/// inserted in random order and 120 B in ascending order.
const INDEX_ENTRY_BYTES: u64 = 84;
/// The same per head of a run, whose map slot holds a [`Run`], not a `Loc`.
const RUN_ENTRY_BYTES: u64 = 158;

/// The in-memory index — key → location of its latest put record, never
/// the value — with the byte accounting [`LogKv::stats`] reports.
///
/// Keys that count up cost a [`Loc`] each and no key bytes: a key that is
/// the successor of a key already held under the same head (see [`split`])
/// joins that head's [`Run`], which its predecessor starts when it has none
/// yet. `il/<stream>/` + chunk index, `i/<stream>/<level>` + node index,
/// envelope and grant sequences all do (`timecrypt_index::keys` declares
/// them). Every other key — too short, after
/// a gap, out of order, the only one of its head — sits in `side`, an
/// ordered map, exactly as every key once did. A key is in one of the two
/// and never both: `put` looks where the key belongs before it inserts.
#[derive(Default)]
struct Index {
    side: BTreeMap<Vec<u8>, Loc>,
    runs: BTreeMap<Vec<u8>, Run>,
    /// Live keys in `runs` (their slots less the holes).
    run_keys: usize,
    /// Slots allocated in `runs`, live or not.
    run_slots: usize,
    /// Bytes of the keys of `side` and of the heads of `runs`.
    key_bytes: u64,
    dead_bytes: u64,
    /// The number the next run created gets.
    next_run: u64,
    /// Each run's head by its number, while replay resolves run-form keys;
    /// `None` once the log is open.
    heads: Option<HashMap<u64, Vec<u8>>>,
}

impl Index {
    /// Applies one record at `loc`, as replay and the write path both do.
    /// A superseded or deleted put turns dead, and so does a delete record.
    fn apply(&mut self, op: u8, key: &[u8], loc: Loc) {
        let old = match op {
            OP_PUT => self.put(key, loc),
            _ => {
                self.dead_bytes += u64::from(loc.len);
                self.remove(key)
            }
        };
        if let Some(old) = old {
            self.dead_bytes += u64::from(old.len);
        }
    }

    /// Applies `ops`, encoded from `at` on as records of `lens` bytes
    /// ([`encode`]); returns where they end.
    fn apply_all(&mut self, ops: &[WriteOp<'_>], lens: &[u32], mut at: u64) -> u64 {
        for ((op, key, _), &len) in ops.iter().map(parts).zip(lens) {
            self.apply(op, key, Loc { offset: at, len });
            at += u64::from(len);
        }
        at
    }

    /// Points `key` at `loc`; returns the location it had.
    fn put(&mut self, key: &[u8], loc: Loc) -> Option<Loc> {
        let Some((head, tail)) = split(key) else {
            return self.put_aside(key, loc);
        };
        if let Some(run) = self.runs.get_mut(head) {
            if let Some(i) = run.slot(tail) {
                let old = std::mem::replace(&mut run.locs[i], loc).live();
                self.run_keys += usize::from(old.is_none());
                return old;
            }
            if tail.checked_sub(run.base) != Some(run.locs.len() as u64) {
                return self.put_aside(key, loc);
            }
            let before = run.locs.capacity();
            run.push(loc);
            self.run_slots += run.locs.capacity() - before;
        } else {
            // No run under this head yet: the predecessor, if it is here,
            // starts one with this key.
            let pred = tail.checked_sub(1);
            let Some(first) = pred.and_then(|t| self.take_aside(&join(head, t))) else {
                return self.put_aside(key, loc);
            };
            let run = Run {
                number: self.next_run,
                base: tail - 1,
                locs: VecDeque::from([first, loc]),
            };
            self.next_run += 1;
            if let Some(heads) = &mut self.heads {
                heads.insert(run.number, head.to_vec());
            }
            self.run_slots += run.locs.capacity();
            self.run_keys += 1; // `first`; `key` is counted below
            self.key_bytes += head.len() as u64;
            self.runs.insert(head.to_vec(), run);
        }
        // The run grew over `key`, which may have been waiting aside.
        self.run_keys += 1;
        self.take_aside(key)
    }

    fn put_aside(&mut self, key: &[u8], loc: Loc) -> Option<Loc> {
        let old = self.side.insert(key.to_vec(), loc);
        if old.is_none() {
            self.key_bytes += key.len() as u64;
        }
        old
    }

    fn take_aside(&mut self, key: &[u8]) -> Option<Loc> {
        let old = self.side.remove(key)?;
        self.key_bytes -= key.len() as u64;
        Some(old)
    }

    /// Forgets `key`; returns the location it had.
    fn remove(&mut self, key: &[u8]) -> Option<Loc> {
        if let Some((head, tail)) = split(key) {
            if let Some(run) = self.runs.get_mut(head) {
                if let Some(i) = run.slot(tail) {
                    let before = run.locs.capacity();
                    let old = run.remove(i);
                    self.run_slots = self.run_slots + run.locs.capacity() - before;
                    self.run_keys -= usize::from(old.is_some());
                    if run.locs.is_empty() {
                        self.run_slots -= run.locs.capacity();
                        self.key_bytes -= head.len() as u64;
                        if let Some(heads) = &mut self.heads {
                            heads.remove(&run.number);
                        }
                        self.runs.remove(head);
                    }
                    return old;
                }
            }
        }
        self.take_aside(key)
    }

    /// `key`'s location, and the number of the run that holds it, if one does.
    fn get(&self, key: &[u8]) -> Option<(Loc, Option<u64>)> {
        let in_run = || {
            let (head, tail) = split(key)?;
            let run = self.runs.get(head)?;
            let loc = run.locs[run.slot(tail)?].live();
            Some(loc.map(|loc| (loc, Some(run.number))))
        };
        in_run().unwrap_or_else(|| Some((*self.side.get(key)?, None)))
    }

    fn len(&self) -> usize {
        self.side.len() + self.run_keys
    }

    /// Resident bytes, as [`LogStats::index_bytes`] reports them.
    fn bytes(&self) -> u64 {
        self.key_bytes
            + INDEX_ENTRY_BYTES * self.side.len() as u64
            + RUN_ENTRY_BYTES * self.runs.len() as u64
            + (self.run_slots * size_of::<Loc>()) as u64
    }

    /// Keys starting with `prefix` and their locations. Of the runs: every
    /// key of a head that extends the prefix, heads and tails ascending,
    /// and — where the prefix ends inside a tail — of each of the at most
    /// eight heads it then spells out, the tails that start with the rest.
    /// Then the side map's, in key order. With an empty prefix this is the
    /// order `compact` rewrites the log in — runs first, so that the
    /// rewritten log forms every run again (up to its first hole) before a
    /// stray key of its head could start another.
    fn range<'a>(&'a self, prefix: &'a [u8]) -> impl Iterator<Item = Hit> + 'a {
        let in_runs =
            (self.runs_under(prefix)).flat_map(|(head, run, lo, hi)| run.between(head, lo, hi));
        in_runs.chain(self.aside(prefix, Bound::Included(prefix)))
    }

    /// The runs of [`range`](Self::range), each with the span of its tails
    /// that start with what `prefix` leaves of them.
    fn runs_under<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a Run, u64, u64)> + 'a {
        let whole = self
            .runs
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(head, _)| head.starts_with(prefix))
            .map(|(head, run)| (&head[..], run, 0, u64::MAX));
        let cut = (1..=prefix.len().min(TAIL)).filter_map(move |n| {
            let (head, part) = prefix.split_at(prefix.len() - n);
            let (head, run) = self.runs.get_key_value(head)?;
            let (mut lo, mut hi) = ([0; TAIL], [0xFF; TAIL]);
            lo[..n].copy_from_slice(part);
            hi[..n].copy_from_slice(part);
            Some((
                &head[..],
                run,
                u64::from_be_bytes(lo),
                u64::from_be_bytes(hi),
            ))
        });
        whole.chain(cut)
    }

    /// The side map's keys starting with `prefix`, from `from` on.
    fn aside<'a>(
        &'a self,
        prefix: &'a [u8],
        from: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = Hit> + 'a {
        self.side
            .range::<[u8], _>((from, Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, loc)| (k.clone(), *loc, None))
    }

    /// The first `limit` keys of [`range`](Self::range) after `after`, in
    /// key order: each run's and the side map's first `limit` past it,
    /// merged — a page costs the runs under the prefix times the page.
    fn keys_after(&self, prefix: &[u8], after: &[u8], limit: usize) -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        for (head, run, lo, hi) in self.runs_under(prefix) {
            if let Some(first) = first_tail_after(head, after) {
                let past = run.between(head, lo.max(first), hi).take(limit);
                keys.extend(past.map(|(key, ..)| key));
            }
        }
        let from = match after < prefix {
            true => Bound::Included(prefix),
            false => Bound::Excluded(after),
        };
        keys.extend(self.aside(prefix, from).take(limit).map(|(key, ..)| key));
        keys.sort_unstable();
        keys.truncate(limit);
        keys
    }
}

// -------------------------------------------------------------------------
// Records.

/// Appends `n` as an LEB128 varint: seven bits a byte, low bits first.
fn put_var(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Takes an LEB128 varint off the front of `buf`; `None` if it runs past
/// the end of `buf` or past 64 bits.
fn take_var(buf: &mut &[u8]) -> Option<u64> {
    let mut n = 0;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        let bits = u64::from(byte & 0x7F);
        if bits << shift >> shift != bits {
            return None;
        }
        n |= bits << shift;
        if byte & 0x80 == 0 {
            return Some(n);
        }
    }
    None
}

/// What a record's first bytes claim: everything before its key bytes.
struct Head {
    /// [`OP_PUT`] or [`OP_DELETE`].
    op: u8,
    /// The continues bit: the record's batch goes on after it.
    more: bool,
    seq: u8,
    vlen: u64,
    /// A run-form key's run number and tail.
    run: Option<(u64, u64)>,
    /// A literal key's length (0 in run form).
    klen: u64,
    /// Bytes of the head itself.
    len: usize,
}

impl Head {
    /// The head at the front of `buf`; `None` if it is cut short or is no
    /// head (an unknown flag, a varint past 64 bits).
    fn parse(buf: &[u8]) -> Option<Head> {
        let (&[flags, seq], mut rest) = buf.split_first_chunk::<2>()?;
        if flags & !(OP_DELETE | RUN_KEY | OP_CONTINUES) != 0 {
            return None;
        }
        let vlen = take_var(&mut rest)?;
        let (run, klen) = match flags & RUN_KEY {
            0 => (None, take_var(&mut rest)?),
            _ => (Some((take_var(&mut rest)?, take_var(&mut rest)?)), 0),
        };
        Some(Head {
            op: flags & OP_DELETE,
            more: flags & OP_CONTINUES != 0,
            seq,
            vlen,
            run,
            klen,
            len: buf.len() - rest.len(),
        })
    }

    /// The whole record's length: head, key bytes, value, footer.
    fn extent(&self) -> Option<u64> {
        let fixed = (self.len + FOOTER) as u64;
        fixed.checked_add(self.klen)?.checked_add(self.vlen)
    }

    /// Whether a record with this head and `literal` key bytes is one of
    /// `key`, which the index holds in the run numbered `run`, if in one.
    fn names(&self, literal: &[u8], key: &[u8], run: Option<u64>) -> bool {
        match self.run {
            None => literal == key,
            Some((number, tail)) => {
                run == Some(number) && split(key).is_some_and(|(_, t)| t == tail)
            }
        }
    }
}

/// A record parsed out of a buffer: its head, literal key bytes and length.
struct Record<'a> {
    head: Head,
    key: &'a [u8],
    len: usize,
}

/// The record at the front of `buf`, if all of it is there and its CRC
/// holds.
fn parse(buf: &[u8]) -> Option<Record<'_>> {
    let head = Head::parse(buf)?;
    let len = usize::try_from(head.extent()?).ok()?;
    let (body, footer) = buf.get(..len)?.split_at(len - FOOTER);
    if footer != crc32(body).to_le_bytes() {
        return None;
    }
    let key = &body[head.len..][..head.klen as usize];
    Some(Record { head, key, len })
}

/// Encodes `ops` onto `out` as one batch's records, the first with
/// sequence byte `seq`, and returns their lengths. Keys are named by the
/// runs of `index` as it stands before the batch (module docs, "Key
/// forms"); `named` is each such run as the batch sees it: number, base,
/// and length as its puts grow it — `None` once it deletes from the head.
fn encode<'a>(index: &Index, ops: &[WriteOp<'a>], seq: u8, out: &mut Vec<u8>) -> Vec<u32> {
    let mut named: Vec<(&'a [u8], u64, u64, Option<u64>)> = Vec::new();
    let mut name = |op, key: &'a [u8]| {
        let (head, tail) = split(key)?;
        let at = named.iter().position(|n| n.0 == head).or_else(|| {
            let run = index.runs.get(head)?;
            named.push((head, run.number, run.base, Some(run.locs.len() as u64)));
            Some(named.len() - 1)
        })?;
        let (_, number, base, len) = &mut named[at];
        if op == OP_PUT {
            let len = len.as_mut()?;
            let slot = tail.checked_sub(*base).filter(|slot| slot <= len)?;
            *len += u64::from(slot == *len);
        } else {
            *len = None;
        }
        Some((*number, tail))
    };
    let mut lens = Vec::with_capacity(ops.len());
    for (i, (op, key, value)) in ops.iter().map(parts).enumerate() {
        let start = out.len();
        let run = name(op, key);
        let more = if i + 1 < ops.len() { OP_CONTINUES } else { 0 };
        let form = if run.is_some() { RUN_KEY } else { 0 };
        out.extend_from_slice(&[op | more | form, seq.wrapping_add(i as u8)]);
        put_var(out, value.len() as u64);
        match run {
            Some((number, tail)) => [number, tail].into_iter().for_each(|n| put_var(out, n)),
            None => {
                put_var(out, key.len() as u64);
                out.extend_from_slice(key);
            }
        }
        out.extend_from_slice(value);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        lens.push((out.len() - start) as u32);
    }
    lens
}

/// Size accounting of a [`LogKv`]; `dead_bytes / log_bytes` is the share
/// of the file a compaction would reclaim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Length of the log, buffered bytes included.
    pub log_bytes: u64,
    /// Keys with a live value.
    pub live_keys: u64,
    /// Resident bytes of the index, from what it holds: 12 per slot
    /// allocated to a run of counting keys, plus per run and per other key
    /// its bytes and a constant calibrated against a counting allocator
    /// (`tests/index_ram.rs`) — independent of value sizes by construction.
    pub index_bytes: u64,
    /// Bytes of superseded puts, deleted puts and delete records.
    pub dead_bytes: u64,
}

struct Inner<F> {
    index: Index,
    /// The current log generation; readers clone its handle from here
    /// ([`Inner::reader`]).
    file: Arc<F>,
    /// Records encoded and not yet in the file: the batch being written,
    /// and under `Durability::Buffered` those before it, up to [`BUFFER`]
    /// bytes or until a read needs them.
    buffered: Vec<u8>,
    /// Sequence byte the next record will carry (wrapping).
    next_seq: u8,
    /// Appends since open, a batch counting once (monotonic; group-commit
    /// watermark).
    appended: u64,
    /// Offset the next record starts at (buffered bytes included).
    tail: u64,
    /// An append failed (a full disk, a file-size limit): read-only, what of
    /// it reached the file is a torn tail replay truncates when reopened.
    failed: bool,
    /// This log's share of the process's footprint gauges.
    published: LogStats,
}

/// What `Durability::Buffered` holds back before it writes.
const BUFFER: usize = 8 << 10;

impl<F: LogFile> Inner<F> {
    /// The handle to read records ending at or before `end` through,
    /// writing out the buffer first if it still holds some of them.
    fn reader(&mut self, end: u64) -> Result<Arc<F>, StoreError> {
        if end > self.tail - self.buffered.len() as u64 {
            self.flush()?;
        }
        Ok(Arc::clone(&self.file))
    }

    /// Appends the buffer to the file and empties it, keeping at most
    /// [`BUFFER`] of its capacity. On an error it is dropped, so none of it
    /// comes later, and the log turns read-only.
    fn flush(&mut self) -> Result<(), StoreError> {
        let written = self.file.append(&self.buffered);
        self.buffered.clear();
        self.buffered.shrink_to(BUFFER);
        self.failed |= written.is_err();
        Ok(written?)
    }

    fn footprint(&self) -> LogStats {
        LogStats {
            log_bytes: self.tail,
            live_keys: self.index.len() as u64,
            index_bytes: self.index.bytes(),
            dead_bytes: self.index.dead_bytes,
        }
    }

    /// Moves the `timecrypt_store_*` gauges, which sum over the process's
    /// open logs, by this log's change since it last published: to `now`.
    /// (A gauge wraps, so adding a difference that wrapped lowers it.)
    fn publish(&mut self, now: LogStats) {
        let was = std::mem::replace(&mut self.published, now);
        counters::STORE_LOG_BYTES.add(now.log_bytes.wrapping_sub(was.log_bytes));
        counters::STORE_LIVE_KEYS.add(now.live_keys.wrapping_sub(was.live_keys));
        counters::STORE_INDEX_BYTES.add(now.index_bytes.wrapping_sub(was.index_bytes));
        counters::STORE_DEAD_BYTES.add(now.dead_bytes.wrapping_sub(was.dead_bytes));
    }
}

/// Append-only persistent store over a [`LogFile`]: the [`OsFile`] at a
/// path ([`LogKv::open`]) unless named otherwise.
pub struct LogKv<F: LogFile = OsFile> {
    durability: Durability,
    inner: Mutex<Inner<F>>,
    /// Appends whose bytes reached the file (flushed) — published after the
    /// inner lock flushes, read by `commit` before fsync to learn what
    /// the syscall will cover.
    flushed: AtomicU64,
    /// The group-commit watermark: the highest `appended` value known
    /// fsynced. Lock order where both are held: inner → synced (`compact`
    /// raises it); `commit` takes only this lock.
    synced: Mutex<u64>,
}

/// The store of every test, example and figure: the log engine over a
/// file in memory.
pub type MemKv = LogKv<MemFile>;

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
        Self::over(OsFile::open(path.as_ref().to_path_buf())?, durability)
    }
}

impl MemKv {
    /// An empty log in memory, under [`Durability::Flush`].
    pub fn new() -> Self {
        let file = MemFile::holding(MAGIC.to_vec());
        Self::assemble(file, (Index::default(), 0, 0), Durability::Flush)
    }
}

impl Default for MemKv {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: LogFile> LogKv<F> {
    /// Opens the log `file` holds (an empty file becomes an empty log),
    /// replaying its contents; fails as [`LogKv::open_with`] does.
    pub(crate) fn over(file: F, durability: Durability) -> Result<Self, StoreError> {
        // Cutting nothing, to learn the length.
        let len = file.truncate(u64::MAX)?;
        let mut head = [0u8; MAGIC.len()];
        let head = &mut head[..len.min(MAGIC.len() as u64) as usize];
        file.read_at(head, 0)?;
        if !MAGIC.starts_with(head) {
            return Err(StoreError::CorruptAt {
                what: "missing log magic: not a TCLOG3 log",
                offset: 0,
            });
        }
        // A strict prefix of the magic is a crash during file creation:
        // a torn tail at offset 0, truncated like any other.
        let (index, seq, valid_len) = match head.len() < MAGIC.len() {
            true => (Index::default(), 0, 0),
            false => replay(&file, len)?,
        };
        file.truncate(valid_len)?;
        if valid_len == 0 {
            file.append(MAGIC)?;
        }
        if durability == Durability::Fsync {
            file.sync()?;
        }
        Ok(Self::assemble(file, (index, seq, valid_len), durability))
    }

    /// The store over `file` once replay returned what [`replay`] does of
    /// it (a tail of 0: the file holds the magic alone).
    fn assemble(file: F, (index, seq, tail): (Index, u8, u64), durability: Durability) -> Self {
        let mut inner = Inner {
            index,
            file: Arc::new(file),
            buffered: Vec::new(),
            next_seq: seq,
            appended: 0,
            tail: tail.max(MAGIC.len() as u64),
            failed: false,
            published: LogStats::default(),
        };
        inner.publish(inner.footprint());
        LogKv {
            durability,
            inner: Mutex::new(inner),
            flushed: AtomicU64::new(0),
            synced: Mutex::new(0),
        }
    }

    /// Group-commit fsync: make append number `my`, written to `file`,
    /// durable, sharing the syscall with every record flushed before it
    /// started. A compaction that replaced `file` since raised the
    /// watermark past `my`.
    fn commit(&self, my: u64, file: &F) -> Result<(), StoreError> {
        if self.durability != Durability::Fsync {
            return Ok(());
        }
        let mut synced = self.synced.lock();
        if *synced >= my {
            return Ok(()); // another waiter's fsync already covered us
        }
        // Everything flushed to the file before the syscall starts is
        // durable when it returns; snapshot the watermark first.
        let covered = self.flushed.load(Ordering::Acquire);
        file.sync()?;
        *synced = (*synced).max(covered);
        Ok(())
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// True if there are no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size accounting: log length, live keys, index footprint, dead bytes.
    pub fn stats(&self) -> LogStats {
        self.inner.lock().footprint()
    }

    /// Rewrites the log to contain only live records (space reclamation for
    /// data-decay workloads, §4.5 "data decay"): the file's next generation
    /// gets the magic, then one plain put per key in `Index::range`'s
    /// order, each a batch of its own on a new sequence chain, through the
    /// write path's encoder into a fresh index — the one replaying the
    /// rewritten log builds — and is swapped in ([`LogFile::swap`], durable
    /// under `Fsync`). Fails, leaving log and index as they were, if a live
    /// record no longer validates.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let old = inner.reader(inner.tail)?;
        let (mut index, mut tail, mut rec) = (Index::default(), MAGIC.len() as u64, Vec::new());
        let file = old.swap(self.durability == Durability::Fsync, |w| {
            w.write_all(MAGIC)?;
            for (seq, (key, loc, run)) in inner.index.range(b"").enumerate() {
                let value = read_value(&*old, &key, loc, run)?;
                let put = [WriteOp::Put {
                    key: &key,
                    value: &value,
                }];
                rec.clear();
                let lens = encode(&index, &put, seq as u8, &mut rec);
                w.write_all(&rec)?;
                tail = index.apply_all(&put, &lens, tail);
            }
            Ok(())
        })?;
        inner.next_seq = (index.len() % 256) as u8;
        (inner.index, inner.tail, inner.file) = (index, tail, Arc::new(file));
        inner.publish(inner.footprint());
        // The rewritten file is a fresh generation, and everything appended
        // so far is covered by the rewrite. Readers that cloned the old
        // handle finish on the old generation.
        *self.synced.lock() = inner.appended;
        self.flushed.store(inner.appended, Ordering::Release);
        Ok(())
    }
}

/// A closed log writes out its buffer (an error there is logged) and
/// withdraws its share of the footprint gauges.
impl<F: LogFile> Drop for LogKv<F> {
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        if let Err(e) = inner.flush() {
            tc_warn!("store.log", "closing: buffered records lost: {e}");
        }
        inner.publish(LogStats::default());
    }
}

/// Every call first checks that the thread holds no lock under which
/// nothing may block (`rank::assert_may_block`); `put` and `delete` are
/// `write_batch`.
impl<F: LogFile> KvStore for LogKv<F> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        rank::assert_may_block();
        let (file, loc, run) = {
            let mut inner = self.inner.lock();
            let Some((loc, run)) = inner.index.get(key) else {
                return Ok(None);
            };
            (inner.reader(loc.end())?, loc, run)
        };
        read_value(&*file, key, loc, run).map(Some)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.write_batch(&[WriteOp::Put { key, value }])
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.write_batch(&[WriteOp::Delete { key }])
    }

    /// Appends `ops` as one run of records — all but the last carrying the
    /// continues bit — and applies them to the index: one lock acquisition,
    /// one `write(2)`, one group-commit wait.
    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        rank::assert_may_block();
        if ops.is_empty() {
            return Ok(());
        }
        let (my, file) = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            if inner.failed {
                return Err(std::io::Error::other("read-only after a failed append").into());
            }
            let lens = encode(&inner.index, ops, inner.next_seq, &mut inner.buffered);
            if self.durability != Durability::Buffered || inner.buffered.len() >= BUFFER {
                inner.flush()?;
            }
            inner.tail = inner.index.apply_all(ops, &lens, inner.tail);
            inner.publish(inner.footprint());
            inner.next_seq = inner.next_seq.wrapping_add(ops.len() as u8);
            inner.appended += 1;
            self.flushed.store(inner.appended, Ordering::Release);
            (inner.appended, Arc::clone(&inner.file))
        };
        counters::STORE_BATCHES.inc();
        self.commit(my, &file)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, StoreError> {
        rank::assert_may_block();
        let (file, hits) = {
            let mut inner = self.inner.lock();
            let hits: Vec<Hit> = inner.index.range(prefix).collect();
            let end = hits.iter().map(|(_, loc, _)| loc.end()).max();
            (inner.reader(end.unwrap_or(0))?, hits)
        };
        hits.into_iter()
            .map(|(key, loc, run)| read_value(&*file, &key, loc, run).map(|value| (key, value)))
            .collect()
    }

    fn scan_keys(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        rank::assert_may_block();
        let inner = self.inner.lock();
        Ok(inner.index.range(prefix).map(|(k, ..)| k).collect())
    }

    fn scan_keys_after(
        &self,
        prefix: &[u8],
        after: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        rank::assert_may_block();
        Ok(self.inner.lock().index.keys_after(prefix, after, limit))
    }
}

/// Records up to this long are read onto the stack, so that reading one
/// allocates its value and nothing else.
const STACK_RECORD: usize = 4096;

/// Reads the put record of `key` at `loc` in one read, onto the stack if it
/// fits, and validates it again — CRC, op, and that it names `key`: its
/// bytes, or `run`, the number of the run the index holds it in, and its
/// tail — and returns its value. Anything else there — rot since open, a
/// file changed behind the store's back — is [`StoreError::CorruptAt`]
/// with the record's offset, never wrong bytes.
fn read_value(
    file: &impl LogFile,
    key: &[u8],
    loc: Loc,
    run: Option<u64>,
) -> Result<Vec<u8>, StoreError> {
    let len = loc.len as usize;
    let mut stack = [0u8; STACK_RECORD];
    let mut heap = vec![0u8; if len > STACK_RECORD { len } else { 0 }];
    let rec = match heap.is_empty() {
        true => &mut stack[..len],
        false => &mut heap[..],
    };
    file.read_at(rec, loc.offset)?;
    match parse(rec) {
        Some(r) if r.head.op == OP_PUT && r.len == len && r.head.names(r.key, key, run) => {
            Ok(rec[len - FOOTER - r.head.vlen as usize..len - FOOTER].to_vec())
        }
        _ => Err(StoreError::CorruptAt {
            what: "record failed validation on read",
            offset: loc.offset,
        }),
    }
}

// -------------------------------------------------------------------------
// Replay.

/// What replay holds of the file at a time, unless one record is larger.
const WINDOW: u64 = 1 << 20;

/// A window of the log's bytes that replay slides forward, so opening a
/// log costs the index plus this buffer, not the file's size.
struct Window<'f, F> {
    file: &'f F,
    /// The file's length when replay started.
    len: u64,
    /// File offset of `buf[0]`.
    base: u64,
    buf: Vec<u8>,
}

impl<F: LogFile> Window<'_, F> {
    /// Bytes `[off, off + n)` of the file (the caller keeps them inside
    /// `len`), read ahead from `off` when they are not all in the window.
    fn slice(&mut self, off: u64, n: u64) -> Result<&[u8], StoreError> {
        if off < self.base || off + n > self.base + self.buf.len() as u64 {
            let fill = usize::try_from(n.max(WINDOW).min(self.len - off))
                .map_err(|_| StoreError::Corrupt("record larger than the address space"))?;
            self.buf.resize(fill, 0);
            self.file.read_at(&mut self.buf, off)?;
            self.base = off;
        }
        let start = (off - self.base) as usize;
        Ok(&self.buf[start..start + n as usize])
    }

    /// Parses the record at `off`: hands [`parse`] the extent the head
    /// there claims, or what is left of the file if that is less.
    fn parse_at(&mut self, off: u64) -> Result<Option<Record<'_>>, StoreError> {
        let left = self.len - off;
        let mut want = left.min(MAX_HEAD as u64);
        if let Some(len) = Head::parse(self.slice(off, want)?).and_then(|h| h.extent()) {
            want = left.min(len);
        }
        Ok(parse(self.slice(off, want)?))
    }

    /// Does any complete, CRC-valid record start at or after `from`? Used
    /// to tell a torn tail (no) from mid-file corruption (yes) after a
    /// parse failure. A CRC collision on arbitrary garbage is a 2^-32
    /// event per offset; the sequence-byte chain check in `replay`
    /// backstops splices.
    fn any_valid_record_after(&mut self, from: u64) -> Result<bool, StoreError> {
        for q in from..self.len {
            if self.parse_at(q)?.is_some() {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Replays the `len`-byte log in `file` into a fresh index. Returns it with
/// `(next_seq, tail)`, where `tail` is the byte length of the valid prefix
/// (magic included): everything up to the end of the last closed batch.
fn replay(file: &impl LogFile, len: u64) -> Result<(Index, u8, u64), StoreError> {
    let mut index = Index {
        heads: Some(HashMap::new()),
        ..Index::default()
    };
    let mut win = Window {
        file,
        len,
        base: 0,
        buf: Vec::new(),
    };
    let mut pos = MAGIC.len() as u64;
    let mut next_seq: u8 = 0;
    // The open batch: where it starts, and its records so far — held back
    // from the index until the record that closes it validates.
    let mut batch_start = pos;
    let mut held: Vec<(u8, usize, u64, u32)> = Vec::new();
    // Their keys, end to end (the window may have moved on by then), a
    // run-form key resolved against the index as the batch found it.
    let mut held_keys: Vec<u8> = Vec::new();
    while pos < len {
        let Some(rec) = win.parse_at(pos)? else {
            if win.any_valid_record_after(pos + 1)? {
                return Err(StoreError::CorruptAt {
                    what: "invalid record followed by valid data",
                    offset: pos,
                });
            }
            break;
        };
        let corrupt = move |what| Err(StoreError::CorruptAt { what, offset: pos });
        if rec.head.seq != next_seq {
            // Valid CRC but a broken sequence chain: records were lost or
            // spliced *before* this point.
            return corrupt("record sequence chain broken");
        }
        let start = held_keys.len();
        match rec.head.run {
            None => held_keys.extend_from_slice(rec.key),
            Some((run, tail)) => {
                let heads = index.heads.as_ref();
                let Some(head) = heads.and_then(|heads| heads.get(&run)) else {
                    return corrupt("record names a run the index does not hold");
                };
                held_keys.extend_from_slice(head);
                held_keys.extend_from_slice(&tail.to_be_bytes());
            }
        }
        held.push((rec.head.op, held_keys.len() - start, pos, rec.len as u32));
        next_seq = next_seq.wrapping_add(1);
        pos += rec.len as u64;
        if !rec.head.more {
            let mut keys = &held_keys[..];
            for (op, klen, offset, len) in held.drain(..) {
                let (key, rest) = keys.split_at(klen);
                index.apply(op, key, Loc { offset, len });
                keys = rest;
            }
            held_keys.clear();
            batch_start = pos;
        }
    }
    if batch_start < len {
        tc_warn!(
            "store.log",
            "torn tail: truncating {} byte(s) at offset {}",
            len - batch_start,
            batch_start
        );
    }
    index.heads = None;
    // The held records go with the tail; the chain resumes where they began.
    Ok((index, next_seq.wrapping_sub(held.len() as u8), batch_start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use std::fs::OpenOptions;
    use std::os::unix::fs::FileExt;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("timecrypt-logkv-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A file a test makes, reads whole, overwrites and opens again. Each
    /// test generic over it runs on both: the OS file at a temp path and
    /// the file in memory.
    trait TestFile: LogFile {
        fn fresh(name: &str) -> Self;
        fn contents(&self) -> Vec<u8>;
        /// Replaces the bytes under the file's name, as another process
        /// writing the file would.
        fn set_contents(&self, bytes: &[u8]);
        fn reopen(&self) -> Self;
        fn remove(&self) {}
    }

    impl TestFile for OsFile {
        fn fresh(name: &str) -> Self {
            OsFile::open(tmp(name)).unwrap()
        }
        fn contents(&self) -> Vec<u8> {
            std::fs::read(&self.path).unwrap()
        }
        fn set_contents(&self, bytes: &[u8]) {
            std::fs::write(&self.path, bytes).unwrap();
        }
        fn reopen(&self) -> Self {
            OsFile::open(self.path.clone()).unwrap()
        }
        fn remove(&self) {
            let _ = std::fs::remove_file(self.path.with_extension("compact"));
            std::fs::remove_file(&self.path).unwrap();
        }
    }

    impl TestFile for MemFile {
        fn fresh(_: &str) -> Self {
            MemFile::holding(Vec::new())
        }
        fn contents(&self) -> Vec<u8> {
            self.reopen().bytes.read().clone()
        }
        fn set_contents(&self, bytes: &[u8]) {
            *self.reopen().bytes.write() = bytes.to_vec();
        }
        fn reopen(&self) -> Self {
            self.clone()
        }
    }

    /// The log in `file`, opened again under [`Durability::Flush`].
    fn reopen<F: TestFile>(file: &F) -> Result<LogKv<F>, StoreError> {
        LogKv::over(file.reopen(), Durability::Flush)
    }

    /// Runs `test` on a fresh log under `mode` in each file.
    fn on_each_file(name: &str, mode: Durability, test: impl Fn(&dyn KvStore)) {
        test(&LogKv::open_with(tmp(name), mode).unwrap());
        test(&LogKv::over(MemFile::holding(Vec::new()), mode).unwrap());
    }

    /// Head bytes of a literal record whose key and value are each under
    /// 128 bytes: flags, seq, and two one-byte lengths.
    const LITERAL_HEAD: usize = 4;

    /// Bytes of such a record of a `klen`-byte key and a `vlen`-byte value.
    fn literal(klen: usize, vlen: usize) -> u64 {
        (LITERAL_HEAD + klen + vlen + FOOTER) as u64
    }

    /// The records of the log at `path`, after its magic, as `(offset,
    /// run number)` — `None` for a literal key.
    fn forms(path: &Path) -> Vec<(u64, Option<u64>)> {
        let bytes = std::fs::read(path).unwrap();
        let mut at = MAGIC.len();
        let mut forms = Vec::new();
        while at < bytes.len() {
            let rec = parse(&bytes[at..]).expect("a valid record");
            forms.push((at as u64, rec.head.run.map(|(run, _)| run)));
            at += rec.len;
        }
        forms
    }

    /// Overwrites the record at `at` in `path` with `edit` applied to it
    /// and a CRC that matches again.
    fn restamp(path: &Path, at: u64, edit: impl FnOnce(&mut [u8])) {
        let mut bytes = std::fs::read(path).unwrap();
        let len = parse(&bytes[at as usize..]).unwrap().len;
        let rec = &mut bytes[at as usize..][..len];
        edit(rec);
        let crc = crc32(&rec[..len - FOOTER]);
        rec[len - FOOTER..].copy_from_slice(&crc.to_le_bytes());
        let f = OpenOptions::new().write(true).open(path).unwrap();
        f.write_all_at(rec, at).unwrap();
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
        // From 64 bytes on, whole blocks go through carry-less multiply
        // where the CPU has it: every count of quads, single blocks and
        // tail bytes, at three alignments, from three register states —
        // and the tables alone, which such a CPU otherwise never runs on
        // long inputs.
        for len in 64..=400 {
            for start in [0, 1, 7] {
                let data = &buf[start..start + len];
                for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
                    let want = bytewise(state, data);
                    assert_eq!(crc32_update(state, data), want, "len {len} at {start}");
                    assert_eq!(crc32_tables(state, data), want, "len {len} at {start}");
                }
            }
        }
    }

    #[test]
    fn conformance_basic() {
        on_each_file("basic", Durability::Flush, conformance::basic_ops);
    }

    #[test]
    fn conformance_scan() {
        on_each_file("scan", Durability::Flush, conformance::prefix_scan);
    }

    #[test]
    fn conformance_scan_keys_after() {
        scan_keys_after_in::<OsFile>();
        scan_keys_after_in::<MemFile>();
    }

    fn scan_keys_after_in<F: TestFile>() {
        let kv = reopen(&F::fresh("after")).unwrap();
        conformance::scan_keys_after(&kv);
        let runs = kv.inner.lock().index.runs.len();
        assert_eq!(runs, 1, "the counting keys are one run");
    }

    #[test]
    fn conformance_binary() {
        on_each_file("bin", Durability::Flush, conformance::binary_safety);
    }

    #[test]
    fn conformance_empty_value() {
        on_each_file("empty", Durability::Flush, conformance::empty_value);
    }

    #[test]
    fn conformance_write_batch() {
        for (i, mode) in [Durability::Flush, Durability::Buffered]
            .into_iter()
            .enumerate()
        {
            on_each_file(&format!("batch{i}"), mode, conformance::write_batch);
        }
    }

    /// Serialises the tests that fsync: the fsync counter is one per
    /// process, and two of them assert on how far it moved.
    static FSYNC_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fsync_tests() -> std::sync::MutexGuard<'static, ()> {
        FSYNC_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn conformance_fsync_mode() {
        let _serial = fsync_tests();
        on_each_file("fsync", Durability::Fsync, conformance::basic_ops);
        on_each_file("fsync-b", Durability::Fsync, conformance::write_batch);
    }

    #[test]
    fn conformance_buffered_mode() {
        on_each_file("buffered", Durability::Buffered, conformance::basic_ops);
    }

    /// Eight writers of 500 keys each, under their own prefixes: every key
    /// is there after, and `len` counts them.
    #[test]
    fn concurrent_writers() {
        concurrent_writers_in::<OsFile>();
        concurrent_writers_in::<MemFile>();
    }

    fn concurrent_writers_in<F: TestFile>() {
        let file = F::fresh("writers");
        let kv = reopen(&file).unwrap();
        assert!(kv.is_empty());
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..500 {
                        kv.put(format!("t{t}/k{i}").as_bytes(), &[t]).unwrap();
                    }
                });
            }
        });
        assert_eq!(kv.len(), 8 * 500);
        for t in 0..8 {
            let prefix = format!("t{t}/");
            assert_eq!(kv.scan_prefix(prefix.as_bytes()).unwrap().len(), 500);
        }
        kv.delete(b"t0/k0").unwrap();
        assert_eq!(kv.len(), 8 * 500 - 1);
        file.remove();
    }

    /// A store call under a lock no store call may run under panics in a
    /// debug build, naming the lock's rank — on a bare log, with no
    /// decorator in front to check it.
    #[cfg(debug_assertions)]
    #[test]
    fn a_store_call_under_a_no_block_rank_panics_naming_it() {
        fn get_under<const RANK: u8>(kv: &LogKv) -> String {
            let lock = rank::Ranked::<RANK, _>::new(std::sync::Mutex::new(()));
            let _held = lock.lock(|m| m.lock().unwrap());
            let get = std::panic::AssertUnwindSafe(|| kv.get(b"k"));
            *std::panic::catch_unwind(get)
                .unwrap_err()
                .downcast::<String>()
                .unwrap()
        }
        let path = tmp("rank");
        let kv = LogKv::open(&path).unwrap();
        let under = [
            get_under::<{ rank::REGISTRY }>(&kv),
            get_under::<{ rank::FRONTIER }>(&kv),
            get_under::<{ rank::CACHE }>(&kv),
        ];
        assert_eq!(
            under,
            ["registry", "frontier", "cache"].map(|r| format!("store call while `{r}` is held"))
        );
        assert_eq!(kv.get(b"k").unwrap(), None);
        std::fs::remove_file(path).unwrap();
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
        torn_tail_in::<OsFile>();
        torn_tail_in::<MemFile>();
    }

    fn torn_tail_in<F: TestFile>() {
        let file = F::fresh("torn");
        reopen(&file).unwrap().put(b"good", b"value").unwrap();
        // Simulate a crash mid-append: write a partial record header.
        file.append(&[OP_PUT, 1, 200, 0, 0]).unwrap();
        let kv = reopen(&file).unwrap();
        assert_eq!(kv.get(b"good").unwrap(), Some(b"value".to_vec()));
        // Store still writable after recovery.
        kv.put(b"after", b"crash").unwrap();
        drop(kv);
        let kv = reopen(&file).unwrap();
        assert_eq!(kv.get(b"after").unwrap(), Some(b"crash".to_vec()));
        file.remove();
    }

    #[test]
    fn mid_file_corruption_is_hard_error_with_offset() {
        mid_file_corruption_in::<OsFile>();
        mid_file_corruption_in::<MemFile>();
    }

    fn mid_file_corruption_in<F: TestFile>() {
        let file = F::fresh("midcorrupt");
        {
            let kv = reopen(&file).unwrap();
            kv.put(b"first", b"valuevaluevalue").unwrap();
            kv.put(b"second", b"other").unwrap();
        }
        // Flip one byte inside the first record's value region. The first
        // record starts right after the magic, at offset 8.
        let mut bytes = file.contents();
        let victim = MAGIC.len() + LITERAL_HEAD + 5 + 3; // inside "valuevaluevalue"
        bytes[victim] ^= 0xFF;
        file.set_contents(&bytes);
        match reopen(&file) {
            Err(StoreError::CorruptAt { offset, .. }) => {
                assert_eq!(offset, MAGIC.len() as u64, "offset should be record 0");
            }
            other => panic!("expected CorruptAt, got {:?}", other.map(|kv| kv.len())),
        }
        assert_eq!(file.contents(), bytes, "file left untouched");
        file.remove();
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
                    assert_eq!(
                        (what, offset),
                        ("missing log magic: not a TCLOG3 log", 0),
                        "byte {victim}"
                    );
                }
                other => panic!(
                    "byte {victim}: expected CorruptAt, got {:?}",
                    other.map(|kv| kv.len())
                ),
            }
            assert_eq!(std::fs::read(&path).unwrap(), rotted, "byte {victim}");
        }
        // A log of the previous format is a foreign file like any other:
        // refused, named, and left as it was.
        let mut v2 = b"TCLOG2\r\n".to_vec();
        v2.extend_from_slice(&[0, 0, 2, 0, 0, 0, 1, 0, 0, 0, b'k', b'1', b'v']);
        v2.extend_from_slice(&crc32(&v2[MAGIC.len()..]).to_le_bytes());
        std::fs::write(&path, &v2).unwrap();
        match LogKv::open(&path) {
            Err(e @ StoreError::CorruptAt { offset: 0, .. }) => {
                assert!(e.to_string().contains("TCLOG3"), "{e}");
            }
            other => panic!(
                "TCLOG2: expected CorruptAt, got {:?}",
                other.map(|kv| kv.len())
            ),
        }
        assert_eq!(std::fs::read(&path).unwrap(), v2);
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
        let _serial = fsync_tests();
        let path = tmp("fsynccount");
        let before = counters::FSYNCS.get();
        let kv = LogKv::open_with(&path, Durability::Fsync).unwrap();
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        assert!(
            counters::FSYNCS.get() >= before + 2,
            "each uncontended fsync-mode put must fsync"
        );
        drop(kv);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_batch_under_fsync_is_one_fsync() {
        let _serial = fsync_tests();
        let path = tmp("fsyncbatch");
        let kv = LogKv::open_with(&path, Durability::Fsync).unwrap();
        let keys: Vec<[u8; 1]> = (0..33).map(|i| [i]).collect();
        let ops: Vec<_> = keys
            .iter()
            .map(|key| WriteOp::Put { key, value: b"v" })
            .collect();
        let fsyncs = counters::FSYNCS.get();
        kv.write_batch(&ops).unwrap();
        assert_eq!(counters::FSYNCS.get() - fsyncs, 1);
        assert_eq!(kv.len(), 33);
        drop(kv);
        assert_eq!(LogKv::open(&path).unwrap().len(), 33);
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
        let _serial = fsync_tests();
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

    #[test]
    fn bit_rot_after_open_fails_that_read_with_the_record_offset() {
        let path = tmp("rot-on-read");
        let kv = LogKv::open(&path).unwrap();
        kv.put(b"first", b"valuevaluevalue").unwrap();
        kv.put(b"second", b"other").unwrap();
        kv.put(b"third", b"more").unwrap();
        // Flip one byte inside "second"'s value through another handle.
        let second_at = MAGIC.len() as u64 + literal(5, 15);
        let victim = second_at + (LITERAL_HEAD + 6 + 2) as u64;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(b"X", victim).unwrap();
        match kv.get(b"second") {
            Err(StoreError::CorruptAt { offset, .. }) => assert_eq!(offset, second_at),
            other => panic!("expected CorruptAt, got {other:?}"),
        }
        assert!(matches!(
            kv.scan_prefix(b""),
            Err(StoreError::CorruptAt { offset, .. }) if offset == second_at
        ));
        assert_eq!(kv.get(b"first").unwrap(), Some(b"valuevaluevalue".to_vec()));
        assert_eq!(kv.get(b"third").unwrap(), Some(b"more".to_vec()));
        assert_eq!(kv.scan_keys(b"").unwrap().len(), 3);
        // Compaction refuses to launder the rot and leaves the store as
        // it was; overwriting the key heals it.
        assert!(matches!(
            kv.compact(),
            Err(StoreError::CorruptAt { offset, .. }) if offset == second_at
        ));
        assert_eq!(kv.get(b"third").unwrap(), Some(b"more".to_vec()));
        kv.put(b"second", b"again").unwrap();
        assert_eq!(kv.get(b"second").unwrap(), Some(b"again".to_vec()));
        kv.compact().unwrap();
        assert_eq!(kv.scan_prefix(b"").unwrap().len(), 3);
        // Counting keys: the third of each head names its run. Its tail,
        // then its run number, rewritten under a CRC that matches again —
        // the read's key check, not the CRC, refuses both.
        for head in [&b"g/"[..], b"h/"] {
            for t in 0..3 {
                kv.put(&join(head, t), b"counted").unwrap();
            }
        }
        let victim = join(b"h/", 2);
        let (at, run) = kv
            .inner
            .lock()
            .index
            .get(&victim)
            .map(|(loc, run)| (loc.offset, run))
            .unwrap();
        let other_run = kv.inner.lock().index.runs[&b"g/"[..]].number;
        assert!(run.is_some() && run != Some(other_run));
        assert_eq!(forms(&path).last(), Some(&(at, run)));
        let healthy = std::fs::read(&path).unwrap();
        // A run-form head: flags, seq, value length, run number, tail.
        for (byte, to) in [(4, 3), (3, other_run as u8)] {
            let was = healthy[at as usize + byte];
            restamp(&path, at, |rec| rec[byte] = to);
            match kv.get(&victim) {
                Err(StoreError::CorruptAt { offset, .. }) => assert_eq!(offset, at),
                other => panic!("byte {byte}: expected CorruptAt, got {other:?}"),
            }
            restamp(&path, at, |rec| rec[byte] = was);
            assert_eq!(kv.get(&victim).unwrap(), Some(b"counted".to_vec()));
        }
        drop(kv);
        let _ = std::fs::remove_file(path.with_extension("compact"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_record_names_only_a_run_its_batch_found_and_that_keeps_its_key() {
        let path = tmp("forms");
        let kv = LogKv::open(&path).unwrap();
        let key = |t: u64| join(b"f/", t);
        let keys: Vec<_> = (0..10).map(key).collect();
        let put = |t: usize| WriteOp::Put {
            key: &keys[t],
            value: b"v",
        };
        let delete = |t: usize| WriteOp::Delete { key: &keys[t] };
        // The batch that starts run 0 spells every key out.
        kv.write_batch(&[put(0), put(1), put(2), put(3)]).unwrap();
        // The next extends it by name; a put past a gap goes aside, so it
        // is spelled out, and so is every put after a delete of the head.
        kv.write_batch(&[put(4), put(5), put(9), delete(2), put(6), put(2)])
            .unwrap();
        // A delete names the run whatever it empties; a run started again
        // after that is a new one, first named by the batch after it.
        let empty: Vec<_> = [0, 1, 2, 3, 4, 5, 6, 9].map(delete).to_vec();
        kv.write_batch(&empty).unwrap();
        kv.write_batch(&[put(0), put(1)]).unwrap();
        kv.write_batch(&[put(2)]).unwrap();
        let (n, r0, r1) = (None, Some(0), Some(1));
        let want = [
            [n, n, n, n].as_slice(),
            &[r0, r0, n, r0, n, n],
            &[r0; 8],
            &[n, n],
            &[r1],
        ]
        .concat();
        let runs: Vec<_> = forms(&path).into_iter().map(|(_, run)| run).collect();
        assert_eq!(runs, want);
        drop(kv);
        // Replay resolves every name the way the writer meant it.
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.scan_keys(b"").unwrap(), keys[..3]);
        // Compaction re-encodes into a fresh index: its run 0 forms at the
        // second put and names the third.
        kv.compact().unwrap();
        let runs: Vec<_> = forms(&path).into_iter().map(|(_, run)| run).collect();
        assert_eq!(runs, [n, n, r0]);
        assert_eq!(kv.get(&keys[2]).unwrap(), Some(b"v".to_vec()));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn stats_count_dead_bytes_on_overwrite_delete_replay_and_compaction() {
        let path = tmp("stats");
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.stats().log_bytes, MAGIC.len() as u64);
        kv.put(b"a", &[1; 100]).unwrap();
        kv.put(b"bb", &[2; 10]).unwrap();
        kv.put(b"a", &[3; 7]).unwrap(); // supersedes the 100-byte record
        kv.delete(b"bb").unwrap(); // kills bb's put, and is dead itself
        kv.delete(b"absent").unwrap(); // only the delete record is dead
        let live = literal(1, 7);
        let dead = literal(1, 100) + literal(2, 10) + literal(2, 0) + literal(6, 0);
        let want = LogStats {
            log_bytes: MAGIC.len() as u64 + live + dead,
            live_keys: 1,
            index_bytes: 1 + INDEX_ENTRY_BYTES,
            dead_bytes: dead,
        };
        assert_eq!(kv.stats(), want);
        assert_eq!(want.log_bytes, std::fs::metadata(&path).unwrap().len());
        drop(kv);
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.stats(), want, "replay rebuilds the same accounting");
        kv.compact().unwrap();
        let compacted = LogStats {
            log_bytes: MAGIC.len() as u64 + live,
            dead_bytes: 0,
            ..want
        };
        assert_eq!(kv.stats(), compacted);
        assert_eq!(compacted.log_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(path).unwrap();
    }

    /// `Buffered` loses acked writes when the process dies, not when the
    /// log is closed.
    #[test]
    fn a_closed_buffered_log_writes_out_its_buffer() {
        closed_buffered_in::<OsFile>();
        closed_buffered_in::<MemFile>();
    }

    fn closed_buffered_in<F: TestFile>() {
        let file = F::fresh("buffered-close");
        let kv = LogKv::over(file.reopen(), Durability::Buffered).unwrap();
        kv.put(b"k", b"acked").unwrap();
        assert_eq!(file.contents().len(), MAGIC.len());
        drop(kv);
        let kv = reopen(&file).unwrap();
        assert_eq!(kv.get(b"k").unwrap(), Some(b"acked".to_vec()));
        file.remove();
    }

    #[test]
    fn buffered_reads_see_acked_writes_still_in_the_write_buffer() {
        let path = tmp("buffered-read");
        let kv = Arc::new(LogKv::open_with(&path, Durability::Buffered).unwrap());
        let (acked, from_writer) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let writer = Arc::clone(&kv);
            s.spawn(move || {
                for i in 0..3u8 {
                    writer.put(&[b'k', i], &[i; 20]).unwrap();
                    acked.send(i).unwrap();
                }
            });
            s.spawn(|| {
                for i in from_writer {
                    assert_eq!(kv.get(&[b'k', i]).unwrap(), Some(vec![i; 20]));
                    let all = kv.scan_prefix(b"k").unwrap();
                    assert!(all.contains(&(vec![b'k', i], vec![i; 20])), "{all:?}");
                }
            });
        });
        // The point of the test: nothing but reads moved bytes to the file.
        kv.put(b"tail", b"still buffered").unwrap();
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(on_disk, kv.stats().log_bytes - literal(4, 14));
        assert_eq!(kv.get(b"tail").unwrap(), Some(b"still buffered".to_vec()));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            kv.stats().log_bytes
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn readers_race_a_writer_and_three_compactions() {
        readers_race_in::<OsFile>();
        readers_race_in::<MemFile>();
    }

    fn readers_race_in<F: TestFile>() {
        use std::sync::atomic::AtomicBool;
        const KEYS: usize = 64;
        const READERS: usize = 4;
        let file = F::fresh("race");
        let kv = reopen(&file).unwrap();
        // A value names its key and version, so a read of another key's
        // bytes or of a stale version shows.
        let value = |k: usize, version: u64| {
            let mut v = vec![k as u8; 40 + k];
            v[..8].copy_from_slice(&version.to_le_bytes());
            v
        };
        let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        for k in 0..KEYS {
            kv.put(&[b'r', k as u8], &value(k, 0)).unwrap();
        }
        let reads = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for r in 0..READERS {
                let (kv, acked, reads, done) = (&kv, &acked, &reads, &done);
                s.spawn(move || {
                    let mut x = 0x9E37_79B9u64 + r as u64;
                    while !done.load(Ordering::Acquire) {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = (x >> 33) as usize % KEYS;
                        let before = acked[k].load(Ordering::Acquire);
                        let got = kv.get(&[b'r', k as u8]).unwrap().expect("live key");
                        let version = u64::from_le_bytes(got[..8].try_into().unwrap());
                        // The writer acks after `put` returns, so a read
                        // may be one version ahead of the ack, never behind.
                        let after = acked[k].load(Ordering::Acquire);
                        assert!(before <= version && version <= after + 1, "key {k}");
                        assert_eq!(got, value(k, version), "key {k}: another record's bytes");
                        reads.fetch_add(1, Ordering::Release);
                    }
                });
            }
            // Each phase waits until the readers have made progress since
            // the last one, so reads bracket every overwrite round and
            // every compaction.
            let mut seen = 0;
            let mut readers_advance = || {
                while reads.load(Ordering::Acquire) < seen + 8 * READERS as u64 {
                    std::thread::yield_now();
                }
                seen = reads.load(Ordering::Acquire);
            };
            for round in 1..=3u64 {
                for (k, ack) in acked.iter().enumerate() {
                    kv.put(&[b'r', k as u8], &value(k, round)).unwrap();
                    ack.store(round, Ordering::Release);
                }
                readers_advance();
                kv.compact().unwrap();
                readers_advance();
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(kv.stats().dead_bytes, 0);
        assert_eq!(kv.len(), KEYS);
        file.remove();
    }

    /// A generated write: key, value, and whether it is a delete instead.
    type GenOp = (Vec<u8>, Vec<u8>, bool);

    fn as_ops(ops: &[GenOp]) -> Vec<WriteOp<'_>> {
        ops.iter()
            .map(|(key, value, delete)| match delete {
                true => WriteOp::Delete { key },
                false => WriteOp::Put { key, value },
            })
            .collect()
    }

    /// Writes step `i` of a generated log: a plain `put`/`delete` when its
    /// shape is 0, else one `write_batch` of 1, 2 or 33 ops.
    fn write_step(kv: &impl KvStore, shape: usize, ops: &[GenOp]) -> usize {
        let n = [1, 1, 2, 33][shape];
        match (shape, &ops[0]) {
            (0, (key, _, true)) => kv.delete(key).unwrap(),
            (0, (key, value, false)) => kv.put(key, value).unwrap(),
            _ => kv.write_batch(&as_ops(&ops[..n])).unwrap(),
        }
        n
    }

    // The satellite crash-recovery property: truncating a populated log
    // at EVERY byte offset and reopening must recover exactly the writes
    // whose batch is fully contained in the kept prefix — a cut anywhere
    // inside a batch loses the whole batch and nothing before it — and
    // the store must accept appends afterwards. Logs interleave single
    // records with batches of 1, 2 and 33 ops, puts and deletes over a
    // small key space; the offset sweep inside each case is exhaustive.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]
        #[test]
        fn truncate_at_every_offset_recovers_longest_valid_prefix(
            steps in proptest::collection::vec(
                (0usize..4,
                 proptest::collection::vec(
                    (proptest::collection::vec(0u8..6, 1..4),
                     proptest::collection::vec(proptest::any::<u8>(), 0..10),
                     proptest::any::<bool>()),
                    33,
                 )),
                1..5,
            )
        ) {
            truncation_sweep::<OsFile>("sweep", &steps);
            truncation_sweep::<MemFile>("sweep", &steps);
        }
    }

    /// The same sweep over records that name their run: a batch that starts
    /// a run (its records literal), one that extends it, deletes inside it
    /// and at both ends and puts after the deletes — one of them of the key
    /// the front trim left outside the run — and past a gap, then a put and
    /// a delete on their own.
    #[test]
    fn truncate_at_every_offset_over_run_form_records() {
        let put = |t: u64| (join(b"r/", t), vec![t as u8; 3], false);
        let delete = |t: u64| (join(b"r/", t), Vec::new(), true);
        let starts: Vec<GenOp> = (0..33).map(put).collect();
        let extends = (33..50).map(put);
        let deletes = [
            delete(5),
            put(50),
            delete(50),
            delete(49),
            put(5),
            delete(0),
            put(0),
        ];
        let mixed: Vec<GenOp> = extends.chain(deletes).chain((60..69).map(put)).collect();
        let steps = [
            (3, starts),
            (3, mixed),
            (0, vec![put(49)]),
            (0, vec![delete(7)]),
        ];
        truncation_sweep::<OsFile>("sweep-runs", &steps);
        truncation_sweep::<MemFile>("sweep-runs", &steps);
    }

    fn truncation_sweep<F: TestFile>(name: &str, steps: &[(usize, Vec<GenOp>)]) {
        let file = F::fresh(&format!("{name}-src"));
        let cut_file = F::fresh(&format!("{name}-cut"));
        // Per step: the byte offset it ends at and the state it leaves.
        let mut after = Vec::new();
        {
            let kv = reopen(&file).unwrap();
            let mut state = BTreeMap::new();
            for (shape, ops) in steps {
                let n = write_step(&kv, *shape, ops);
                for (key, value, delete) in &ops[..n] {
                    match delete {
                        true => state.remove(key),
                        false => state.insert(key.clone(), value.clone()),
                    };
                }
                after.push((kv.stats().log_bytes as usize, state.clone()));
            }
        }
        let full = file.contents();
        assert_eq!(after.last().unwrap().0, full.len());

        let empty = BTreeMap::new();
        for cut in 0..=full.len() {
            cut_file.set_contents(&full[..cut]);
            let kv = match reopen(&cut_file) {
                Ok(kv) => kv,
                Err(e) => panic!("offset {cut}: truncated log must open, got {e}"),
            };
            // Expected: exactly the steps whose whole extent fits in `cut`.
            let (end, expect) = after
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut)
                .map_or((MAGIC.len(), &empty), |(end, state)| (*end, state));
            let mut got = kv.scan_prefix(b"").unwrap();
            got.sort();
            let want: Vec<_> = expect.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(got, want, "offset {cut}: recovered state");
            assert_eq!(
                kv.stats().log_bytes as usize,
                end,
                "offset {cut}: kept prefix"
            );
            // Post-recovery appends must round-trip across reopen: the
            // sequence chain resumed where the kept prefix ends.
            kv.put(b"post-recovery", b"ok").unwrap();
            drop(kv);
            let kv = reopen(&cut_file).unwrap();
            assert_eq!(
                kv.get(b"post-recovery").unwrap(),
                Some(b"ok".to_vec()),
                "offset {cut}: post-recovery append lost"
            );
            assert_eq!(kv.len(), expect.len() + 1, "offset {cut}: second reopen");
            assert_eq!(
                kv.stats().log_bytes,
                cut_file.contents().len() as u64,
                "offset {cut}: the second reopen truncated nothing"
            );
        }
        file.remove();
        cut_file.remove();
    }

    /// Three batches of `n` puts; returns the path and each record's offset.
    fn three_batches(name: &str, n: usize) -> (PathBuf, Vec<u64>) {
        let path = tmp(name);
        let kv = LogKv::open(&path).unwrap();
        let mut offsets = Vec::new();
        for b in 0..3u8 {
            let keys: Vec<[u8; 2]> = (0..n as u8).map(|i| [b, i]).collect();
            let ops: Vec<_> = keys
                .iter()
                .map(|key| WriteOp::Put {
                    key,
                    value: b"0123456789",
                })
                .collect();
            let start = kv.stats().log_bytes;
            offsets.extend((0..n as u64).map(|i| start + i * literal(2, 10)));
            kv.write_batch(&ops).unwrap();
        }
        (path, offsets)
    }

    #[test]
    fn damage_inside_a_batch_before_a_valid_batch_is_corrupt_at_not_a_tail() {
        let (path, offsets) = three_batches("batch-rot", 4);
        let healthy = std::fs::read(&path).unwrap();
        // Every record of the first two batches in turn: valid data (the
        // rest of its batch, and a whole later batch) follows the damage.
        for &at in &offsets[..8] {
            let mut rotted = healthy.clone();
            rotted[at as usize + LITERAL_HEAD + 1] ^= 0x10;
            std::fs::write(&path, &rotted).unwrap();
            match LogKv::open(&path) {
                Err(StoreError::CorruptAt { offset, .. }) => assert_eq!(offset, at),
                other => panic!("record at {at}: got {:?}", other.map(|kv| kv.len())),
            }
            assert_eq!(std::fs::read(&path).unwrap(), rotted, "file left untouched");
        }
        // A cleared continues bit fails the CRC like any other flip.
        let mut rotted = healthy.clone();
        rotted[offsets[0] as usize] &= !OP_CONTINUES;
        std::fs::write(&path, &rotted).unwrap();
        assert!(matches!(
            LogKv::open(&path),
            Err(StoreError::CorruptAt { offset, .. }) if offset == offsets[0]
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn compaction_of_a_batched_log_equals_compaction_of_single_writes() {
        let ops: Vec<GenOp> = (0..40u8)
            .map(|i| (vec![b'k', i % 13], vec![i; 5 + i as usize % 7], i % 5 == 4))
            .collect();
        let (batched, single) = (tmp("compact-batched"), tmp("compact-single"));
        let kv = LogKv::open(&batched).unwrap();
        kv.write_batch(&as_ops(&ops[..33])).unwrap();
        kv.write_batch(&as_ops(&ops[33..])).unwrap();
        kv.compact().unwrap();
        let one_by_one = LogKv::open(&single).unwrap();
        for op in &ops {
            write_step(&one_by_one, 0, std::slice::from_ref(op));
        }
        assert_ne!(
            std::fs::read(&batched).unwrap().len(),
            std::fs::read(&single).unwrap().len(),
            "compaction dropped the dead records"
        );
        one_by_one.compact().unwrap();
        assert_eq!(
            std::fs::read(&batched).unwrap(),
            std::fs::read(&single).unwrap()
        );
        // Reads after the rewrite, and a reopen of it, see the same data.
        let mut live = kv.scan_prefix(b"").unwrap();
        drop(kv);
        let mut reopened = LogKv::open(&batched).unwrap().scan_prefix(b"").unwrap();
        live.sort();
        reopened.sort();
        assert_eq!(live, reopened);
        std::fs::remove_file(batched).unwrap();
        std::fs::remove_file(single).unwrap();
    }

    #[test]
    fn readers_never_see_half_a_batch() {
        use std::sync::atomic::AtomicBool;
        const KEYS: u8 = 33;
        const ROUNDS: u64 = 200;
        let path = tmp("batch-race");
        let kv = LogKv::open(&path).unwrap();
        let keys: Vec<[u8; 2]> = (0..KEYS).map(|k| [b'b', k]).collect();
        let write_round = |round: u64| {
            let value = round.to_le_bytes();
            let ops: Vec<_> = keys
                .iter()
                .map(|key| WriteOp::Put { key, value: &value })
                .collect();
            kv.write_batch(&ops).unwrap();
        };
        write_round(0);
        let scans = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        // Every batch rewrites all keys to one round: a scan
                        // that mixes two rounds caught a batch half applied.
                        let all = kv.scan_prefix(b"b").unwrap();
                        assert_eq!(all.len(), KEYS as usize);
                        assert!(all.iter().all(|(_, v)| v == &all[0].1), "{all:?}");
                        scans.fetch_add(1, Ordering::Release);
                    }
                });
            }
            // Each round waits for a scan since the last, so scans
            // bracket every batch.
            for round in 1..=ROUNDS {
                let seen = scans.load(Ordering::Acquire);
                write_round(round);
                while scans.load(Ordering::Acquire) == seen {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(
            kv.get(&keys[0]).unwrap(),
            Some(ROUNDS.to_le_bytes().to_vec())
        );
        std::fs::remove_file(path).unwrap();
    }
}

//! Persistent append-only log engine with checksummed crash recovery.
//!
//! File layout: an 8-byte magic header (`TCLOG4\r\n` — the `\r\n` catches
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
//! ever holds records of closed batches.
//!
//! The file is the only copy of the values. The in-memory index maps each
//! live key to the location of its latest put record — offset and length,
//! nothing else — so resident memory grows with the number of keys, not
//! with the bytes stored; the OS page cache is the only cache.
//!
//! **Index.** Runs plus a side map (`Index`). A key whose last eight
//! bytes, read as a big-endian integer, are one more than those of a key
//! already held with the same bytes before them is not stored at all: its
//! location is appended to that head's run, indexed by the integer. A run
//! codes its locations in blocks of 32, each location as a varint length
//! and the zigzag varint of its gap from the record before it in the block
//! — 0 for records written back to back — so a location takes two to four
//! bytes, a lookup decodes one block and a write re-codes one. The keys
//! written in volume all count up like that: ≈ 3 B of RAM per key when a
//! stream's chunks land 16 to a batch, ≈ 6.6 B when each batch holds one
//! chunk of 16 streams (`tests/index_ram.rs`). Any other key sits, with
//! its bytes and a 12-byte location, in an ordered map beside the runs
//! (≈ 105–120 B per key). Which of the two holds a key is the index's own
//! business: no key format or [`KvStore`] signature knows.
//!
//! **Read path.** `get` / `scan_prefix` look locations up under the inner
//! lock, release it and read each whole record at its offset in the log's
//! one file, a [`LogFile`] (one `pread` on the [`OsFile`]), so a reader
//! never waits behind a writer's `write(2)` or an fsync. Every read
//! re-checks the record's CRC and that it names the requested key (its
//! bytes, or its run and tail), so rot after open is
//! [`StoreError::CorruptAt`] with that record's offset, not wrong bytes.
//! Under `Durability::Buffered` a read whose record lies past the bytes
//! known to have left the write buffer flushes it first, so every
//! durability level reads its own acked writes. `scan_keys` answers from
//! the index alone.
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
//! covered. A batch is one append and waits once. A failed append or
//! sync turns the log read-only until it is reopened.
//!
//! A non-empty file that does not begin with the magic (or, if shorter
//! than it, with a prefix of it — a crash during file creation, treated
//! as a torn tail at offset 0) is refused with [`StoreError::CorruptAt`]
//! and left untouched: one flipped header bit must never cost the store.
//! So is a log of an earlier format: this build reads `TCLOG4` only.
//!
//! The magic's digit is the store's one on-disk format version. It covers
//! the record framing above *and* the forms of the values the engine keeps
//! in the log, so a change to either bumps it: version 3 framed records
//! as they are framed now, but held a chunk's level-0 record with two
//! length prefixes (`timecrypt_server`'s engine docs), and a build that
//! opened it would read each record in the wrong form.

use crate::file::{sync_parent, LogFile, MemFile, OsFile};
use crate::{KvPairs, KvStore, StoreCounters, StoreError, WriteOp};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use timecrypt_obs::counters::{self, Counter};
use timecrypt_obs::{rank, tc_warn, trace, Stage};

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;
/// Set in the flags of a record whose key is stored as `(run, tail)`.
const RUN_KEY: u8 = 0x40;
/// Set in the flags of every record of a batch but its last.
const OP_CONTINUES: u8 = 0x80;

/// File magic: the store's one on-disk format version ("version 4"; see
/// the module docs for what a version covers).
const MAGIC: &[u8; 8] = b"TCLOG4\r\n";
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

/// One-shot CRC32 of `data`.
fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

// -------------------------------------------------------------------------

/// Where a live key's put record sits in the log: its offset and its
/// whole length. Twelve bytes, not sixteen, in the side map; a [`Run`]
/// codes each of its keys' in two to four ([`put_slot`]).
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Loc {
    offset: u64,
    len: u32,
}

impl Loc {
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

/// Slots per block of a [`Run`]. A head's block `b` spans the tails
/// `32·b ..= 32·b + 31`, so a location is found by decoding one block.
const BLOCK: u64 = 32;

/// Appends a slot to a block whose last live record so far ends at `end`
/// (0 before its first): the varint of the record's length — 0 for a hole,
/// which is all a hole takes — then the zigzag varint of its offset less
/// `end`. Records written back to back are a gap of 0, so most slots are
/// two to four bytes.
fn put_slot(out: &mut Vec<u8>, end: &mut u64, slot: Option<Loc>) {
    let Some(loc) = slot else {
        return out.push(0);
    };
    put_var(out, u64::from(loc.len));
    let gap = loc.offset.wrapping_sub(*end) as i64;
    put_var(out, ((gap << 1) ^ (gap >> 63)) as u64);
    *end = loc.offset.wrapping_add(u64::from(loc.len));
}

/// A block of the one slot `loc`.
fn block_of(loc: Loc) -> Box<[u8]> {
    let mut block = Vec::new();
    put_slot(&mut block, &mut 0, Some(loc));
    seal(block)
}

/// `bytes` as a block, zero-padded to all that malloc sets aside for them
/// ([`chunk`]), so that a block grows in place until that is full.
fn seal(mut bytes: Vec<u8>) -> Box<[u8]> {
    let size = chunk(bytes.len()) as usize - 8;
    bytes.reserve_exact(size - bytes.len());
    bytes.resize(size, 0);
    bytes.into_boxed_slice()
}

/// What malloc sets aside for `n` bytes: an 8-byte header, 16-byte
/// granules, 32 at least (glibc's; `tests/index_ram.rs` counts the same).
fn chunk(n: usize) -> u64 {
    (n + 8).next_multiple_of(16).max(32) as u64
}

/// A block's slots in order, as [`put_slot`] wrote them; `None` is a hole.
/// Its padding reads as holes: callers take as many as it holds.
struct Slots<'a> {
    rest: &'a [u8],
    /// Where the last live record read ends.
    end: u64,
}

fn slots(block: &[u8]) -> Slots<'_> {
    Slots {
        rest: block,
        end: 0,
    }
}

impl Iterator for Slots<'_> {
    type Item = Option<Loc>;

    fn next(&mut self) -> Option<Option<Loc>> {
        let len = take_var(&mut self.rest)?;
        if len == 0 {
            return Some(None);
        }
        let gap = take_var(&mut self.rest)?;
        let offset = self.end.wrapping_add((gap >> 1) ^ (gap & 1).wrapping_neg());
        self.end = offset.wrapping_add(len);
        let len = len as u32;
        Some(Some(Loc { offset, len }))
    }
}

/// The keys `head + base`, …, `head + last` of one head, held as their
/// locations alone, [`BLOCK`] slots a block; the first block starts at
/// `base`. Both ends are live; a key deleted in between leaves a hole.
struct Run {
    /// Given by the index when it creates the run, never reused: records
    /// name their key by it.
    number: u64,
    base: u64,
    last: u64,
    blocks: Blocks,
}

enum Blocks {
    /// A run inside one block: that block, one allocation.
    One(Box<[u8]>),
    /// Boxed, so that a run of one block does not carry the deque.
    Many(Box<Many>),
}

struct Many {
    blocks: VecDeque<Box<[u8]>>,
    /// What the blocks charge ([`chunk`]).
    bytes: u64,
    /// The last block's used bytes and the end of its last record, as the
    /// push that wrote it last left them, so that the next push need not
    /// decode it. Every other write of a block clears it (popping the last
    /// block is always followed by a write of the one before).
    open: Option<(usize, u64)>,
}

impl Run {
    /// A run of the keys `tail` and `tail + 1`.
    fn pair(number: u64, tail: u64, first: Loc, second: Loc) -> Run {
        let mut run = Run {
            number,
            base: tail,
            last: tail,
            blocks: Blocks::One(block_of(first)),
        };
        run.push(second);
        run
    }

    /// Slots from the first key to the last, holes included.
    fn len(&self) -> u64 {
        self.last - self.base + 1
    }

    /// The tail of block `b`'s first slot.
    fn start(&self, b: usize) -> u64 {
        match b {
            0 => self.base,
            _ => (self.base / BLOCK + b as u64) * BLOCK,
        }
    }

    /// The block that holds `tail` and its slot there, if the run spans it.
    fn at(&self, tail: u64) -> Option<(usize, usize)> {
        if tail < self.base || tail > self.last {
            return None;
        }
        let b = (tail / BLOCK - self.base / BLOCK) as usize;
        Some((b, (tail - self.start(b)) as usize))
    }

    fn last_block(&self) -> usize {
        match &self.blocks {
            Blocks::One(_) => 0,
            Blocks::Many(many) => many.blocks.len() - 1,
        }
    }

    /// Block `b`'s bytes and the number of its slots.
    fn block(&self, b: usize) -> (&[u8], usize) {
        let block = match &self.blocks {
            Blocks::One(block) => block,
            Blocks::Many(many) => &many.blocks[b],
        };
        let start = self.start(b);
        let n = self.last.min(start | (BLOCK - 1)) - start + 1;
        (block, n as usize)
    }

    /// Block `b` as `edit` leaves its bytes.
    fn edit(&mut self, b: usize, edit: impl FnOnce(&mut Vec<u8>)) {
        let (block, charged) = match &mut self.blocks {
            Blocks::One(block) => (block, None),
            Blocks::Many(many) => {
                many.open = None;
                (&mut many.blocks[b], Some(&mut many.bytes))
            }
        };
        let was = chunk(block.len());
        let mut bytes = std::mem::take(block).into_vec();
        edit(&mut bytes);
        *block = seal(bytes);
        if let Some(charged) = charged {
            *charged = *charged + chunk(block.len()) - was;
        }
    }

    /// The location of `tail`, if the run holds it.
    fn get(&self, tail: u64) -> Option<Loc> {
        let (b, i) = self.at(tail)?;
        slots(self.block(b).0).nth(i)?
    }

    /// Puts `slot` in the place of `tail` and returns what was there;
    /// `None` if the run does not span `tail`. Re-codes one block.
    fn set(&mut self, tail: u64, slot: Option<Loc>) -> Option<Option<Loc>> {
        let (b, i) = self.at(tail)?;
        let (block, n) = self.block(b);
        let mut all = [None; BLOCK as usize];
        all.iter_mut()
            .zip(slots(block))
            .for_each(|(s, read)| *s = read);
        let old = std::mem::replace(&mut all[i], slot);
        self.edit(b, |bytes| {
            bytes.clear();
            let mut end = 0;
            all[..n].iter().for_each(|&s| put_slot(bytes, &mut end, s));
        });
        Some(old)
    }

    /// Appends the successor of the last key: to the last block, or as a
    /// new one if it starts a block. The deque grows by a quarter, not by
    /// doubling: a run is O(history), and its slack is RAM per stored key.
    fn push(&mut self, loc: Loc) {
        self.last += 1;
        let b = self.last_block();
        if !self.last.is_multiple_of(BLOCK) {
            let open = match &self.blocks {
                Blocks::One(_) => None,
                Blocks::Many(many) => many.open,
            };
            let (used, mut end) = open.unwrap_or_else(|| {
                let (block, n) = self.block(b);
                let mut read = slots(block);
                for _ in read.by_ref().take(n - 1) {}
                (block.len() - read.rest.len(), read.end)
            });
            let mut now = used;
            self.edit(b, |bytes| {
                bytes.truncate(used);
                put_slot(bytes, &mut end, Some(loc));
                now = bytes.len();
            });
            if let Blocks::Many(many) = &mut self.blocks {
                many.open = Some((now, end));
            }
            return;
        }
        let block = block_of(loc);
        let added = chunk(block.len());
        match &mut self.blocks {
            Blocks::One(first) => {
                let bytes = chunk(first.len()) + added;
                let blocks = VecDeque::from([std::mem::take(first), block]);
                self.blocks = Blocks::Many(Box::new(Many {
                    blocks,
                    bytes,
                    open: None,
                }));
            }
            Blocks::Many(many) => {
                if many.blocks.len() == many.blocks.capacity() {
                    many.blocks.reserve_exact((many.blocks.len() / 4).max(4));
                }
                many.blocks.push_back(block);
                many.bytes += added;
                many.open = None;
            }
        }
    }

    /// Drops the first or the last block, which holds no live key (so the
    /// run has another); a run left in one block gives the deque back, one
    /// left half empty its slack.
    fn pop(&mut self, front: bool) {
        let Blocks::Many(many) = &mut self.blocks else {
            return;
        };
        let gone = match front {
            true => many.blocks.pop_front(),
            false => many.blocks.pop_back(),
        };
        many.bytes -= gone.map_or(0, |block| chunk(block.len()));
        if many.blocks.len() == 1 {
            self.blocks = Blocks::One(many.blocks.pop_front().unwrap_or_default());
        } else if many.blocks.len() < many.blocks.capacity() / 2 {
            many.blocks.shrink_to_fit();
        }
    }

    /// Deletes `tail`, which is not the run's only key, and returns what
    /// its slot held; `None` if the run does not span it. The ends close up
    /// over holes — decay trims the front, a rollback pops the back — and
    /// drop the blocks left empty; the middle keeps a hole. A hole is one
    /// byte, so closing up cuts bytes off a block and re-codes nothing.
    fn remove(&mut self, tail: u64) -> Option<Option<Loc>> {
        let old = self.set(tail, None)?;
        if tail == self.last {
            loop {
                let b = self.last_block();
                let (block, n) = self.block(b);
                let mut read = slots(block);
                let live = read
                    .by_ref()
                    .take(n)
                    .enumerate()
                    .filter(|(_, s)| s.is_some());
                if let Some((j, _)) = live.last() {
                    let cut = block.len() - read.rest.len() - (n - 1 - j);
                    self.last = self.start(b) + j as u64;
                    break self.edit(b, |bytes| bytes.truncate(cut));
                }
                self.last = self.start(b) - 1;
                self.pop(false);
            }
        }
        if tail == self.base {
            loop {
                let (block, n) = self.block(0);
                if let Some(p) = slots(block).take(n).position(|s| s.is_some()) {
                    self.base += p as u64;
                    break self.edit(0, |bytes| drop(bytes.drain(..p)));
                }
                self.base = self.start(1);
                self.pop(true);
            }
        }
        Some(old)
    }

    /// What the run's blocks and deque charge, as malloc sets them aside.
    fn bytes(&self) -> u64 {
        match &self.blocks {
            Blocks::One(block) => chunk(block.len()),
            Blocks::Many(many) => {
                let deque = many.blocks.capacity() * size_of::<Box<[u8]>>();
                many.bytes + chunk(deque) + chunk(size_of::<Many>())
            }
        }
    }

    /// The live keys with tails in `lo..=hi`, ascending, spelled out: the
    /// blocks that span them, decoded in order.
    fn between<'a>(&'a self, head: &'a [u8], lo: u64, hi: u64) -> impl Iterator<Item = Hit> + 'a {
        let (lo, hi) = (lo.max(self.base), hi.min(self.last));
        let blocks = match (self.at(lo), self.at(hi)) {
            (Some((a, _)), Some((b, _))) if lo <= hi => a..b + 1,
            _ => 0..0,
        };
        let all = blocks.flat_map(move |b| {
            let ((block, n), start) = (self.block(b), self.start(b));
            (start..=start + (n as u64 - 1)).zip(slots(block))
        });
        all.skip_while(move |&(t, _)| t < lo)
            .take_while(move |&(t, _)| t <= hi)
            .filter_map(move |(t, slot)| Some((join(head, t), slot?, Some(self.number))))
    }
}

/// What [`LogStats::index_bytes`] charges per key of the side map besides
/// the key's bytes: the key's `Vec` header and the `Loc` in a B-tree node
/// half to two thirds full, the node's header and its share of the levels
/// above, the allocator's header and rounding on the key. Calibrated in
/// `tests/index_ram.rs`, where the allocator counts 105 B per 28-byte key
/// inserted in random order and 120 B in ascending order.
const INDEX_ENTRY_BYTES: u64 = 84;
/// The same per head of a run, whose map slot holds a [`Run`], not a `Loc`
/// (its blocks are charged as [`Run::bytes`]): 189 B per run of two keys
/// by the allocator's count, 20 of them the head's bytes and 32 its block.
const RUN_ENTRY_BYTES: u64 = 138;

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
    /// What the runs' blocks charge ([`Run::bytes`]).
    run_bytes: u64,
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

    /// Points `key` at `loc`; returns the location it had.
    fn put(&mut self, key: &[u8], loc: Loc) -> Option<Loc> {
        let Some((head, tail)) = split(key) else {
            return self.put_aside(key, loc);
        };
        if let Some(run) = self.runs.get_mut(head) {
            let before = run.bytes();
            if let Some(old) = run.set(tail, Some(loc)) {
                self.run_bytes = self.run_bytes + run.bytes() - before;
                self.run_keys += usize::from(old.is_none());
                return old;
            }
            if run.last.checked_add(1) != Some(tail) {
                return self.put_aside(key, loc);
            }
            run.push(loc);
            self.run_bytes = self.run_bytes + run.bytes() - before;
        } else {
            // No run under this head yet: the predecessor, if it is here,
            // starts one with this key.
            let pred = tail.checked_sub(1);
            let Some(first) = pred.and_then(|t| self.take_aside(&join(head, t))) else {
                return self.put_aside(key, loc);
            };
            let run = Run::pair(self.next_run, tail - 1, first, loc);
            self.next_run += 1;
            if let Some(heads) = &mut self.heads {
                heads.insert(run.number, head.to_vec());
            }
            self.run_bytes += run.bytes();
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
                if (run.base, run.last) == (tail, tail) {
                    // Its only key: the run goes, and its head with it.
                    self.run_bytes -= run.bytes();
                    self.run_keys -= 1;
                    self.key_bytes -= head.len() as u64;
                    if let Some(heads) = &mut self.heads {
                        heads.remove(&run.number);
                    }
                    return self.runs.remove(head).and_then(|run| run.get(tail));
                }
                let before = run.bytes();
                if let Some(old) = run.remove(tail) {
                    self.run_bytes = self.run_bytes + run.bytes() - before;
                    self.run_keys -= usize::from(old.is_some());
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
            Some((run.get(tail)?, Some(run.number)))
        };
        in_run().or_else(|| Some((*self.side.get(key)?, None)))
    }

    fn len(&self) -> usize {
        self.side.len() + self.run_keys
    }

    /// Resident bytes, as [`LogStats::index_bytes`] reports them.
    fn bytes(&self) -> u64 {
        self.key_bytes
            + INDEX_ENTRY_BYTES * self.side.len() as u64
            + RUN_ENTRY_BYTES * self.runs.len() as u64
            + self.run_bytes
    }

    /// Keys starting with `prefix` and their locations. Of the runs: every
    /// key of a head that extends the prefix, heads and tails ascending,
    /// and — where the prefix ends inside a tail — of each of the at most
    /// eight heads it then spells out, the tails that start with the rest.
    /// Then the side map's, in key order.
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

/// Size accounting of a [`LogKv`]; `dead_bytes / log_bytes` is the share
/// of the file a compaction would reclaim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Length of the log, buffered bytes included.
    pub log_bytes: u64,
    /// Keys with a live value.
    pub live_keys: u64,
    /// Resident bytes of the index, from what it holds: the blocks of the
    /// runs of counting keys as malloc sets them aside, plus per run and
    /// per other key its bytes and a constant calibrated against a counting
    /// allocator (`tests/index_ram.rs`) — independent of value sizes by
    /// construction.
    pub index_bytes: u64,
    /// Bytes of superseded puts, deleted puts and delete records.
    pub dead_bytes: u64,
    /// A failed append or sync turned the log read-only.
    pub read_only: bool,
}

#[derive(Default)]
struct Inner {
    index: Index,
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
    /// An append or a sync failed (a full disk, an I/O error): read-only,
    /// what reached the file is a torn tail replay truncates when reopened.
    failed: bool,
    /// This log's share of the process's footprint gauges.
    published: LogStats,
    /// [`encode`](Self::encode)'s scratch, kept for its capacity.
    lens: Vec<u32>,
    named: Vec<(usize, u64, u64, Option<u64>)>,
}

/// What `Durability::Buffered` holds back before it writes.
const BUFFER: usize = 8 << 10;

impl Inner {
    /// Writes the buffer out to `file` if it holds records ending by `end`.
    fn readable(&mut self, file: &impl LogFile, end: u64) -> Result<(), StoreError> {
        if end > self.tail - self.buffered.len() as u64 {
            self.flush(file)?;
        }
        Ok(())
    }

    /// Appends the buffer to `file` and empties it, keeping its capacity
    /// if that is at most [`BUFFER`] and giving a larger one back whole: a
    /// large batch's bytes do not stay resident. On an error it is dropped,
    /// so none of it comes later, and the log turns read-only.
    fn flush(&mut self, file: &impl LogFile) -> Result<(), StoreError> {
        let written = file.append(&self.buffered);
        self.buffered.clear();
        if self.buffered.capacity() > BUFFER {
            self.buffered = Vec::new();
        }
        if written.is_err() {
            self.fail();
        }
        Ok(written?)
    }

    fn footprint(&self) -> LogStats {
        LogStats {
            log_bytes: self.tail,
            live_keys: self.index.len() as u64,
            index_bytes: self.index.bytes(),
            dead_bytes: self.index.dead_bytes,
            read_only: self.failed,
        }
    }

    /// Turns the log read-only, and says so on the `/metrics` page.
    fn fail(&mut self) {
        self.failed = true;
        self.publish(self.footprint());
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
        counters::STORE_READ_ONLY.add(u64::from(now.read_only).wrapping_sub(was.read_only.into()));
    }

    /// Encodes `ops` onto the buffer as one batch's records, the first with
    /// the next sequence byte, and their lengths into `lens`. Keys are named
    /// by the runs of the index before the batch (module docs, "Key forms");
    /// `named` is each such run as the batch sees it: the op that named it,
    /// number, base, and length as puts grow it — `None` once it deletes.
    fn encode(&mut self, ops: &[WriteOp<'_>]) {
        let (out, named) = (&mut self.buffered, &mut self.named);
        named.clear();
        let names = |i: usize, head| split(parts(&ops[i]).1).is_some_and(|(h, _)| h == head);
        let mut name = |i, op, key| {
            let (head, tail) = split(key)?;
            let at = named.iter().position(|n| names(n.0, head)).or_else(|| {
                let run = self.index.runs.get(head)?;
                named.push((i, run.number, run.base, Some(run.len())));
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
        // The records' room in one step: a head and a footer at most each.
        let room = ops
            .iter()
            .map(parts)
            .map(|(_, k, v)| MAX_HEAD + k.len() + v.len() + FOOTER);
        out.reserve(room.sum());
        self.lens.clear();
        self.lens.reserve(ops.len());
        for (i, (op, key, value)) in ops.iter().map(parts).enumerate() {
            let start = out.len();
            let run = name(i, op, key);
            let more = if i + 1 < ops.len() { OP_CONTINUES } else { 0 };
            let form = if run.is_some() { RUN_KEY } else { 0 };
            out.extend_from_slice(&[op | more | form, self.next_seq.wrapping_add(i as u8)]);
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
            self.lens.push((out.len() - start) as u32);
        }
    }
}

/// Append-only persistent store over one [`LogFile`] for its whole life:
/// the [`OsFile`] at a path ([`LogKv::open`]) unless named otherwise.
pub struct LogKv<F: LogFile = OsFile> {
    durability: Durability,
    file: F,
    inner: Mutex<Inner>,
    /// Appends whose bytes reached the file, published under `inner`; read
    /// by `commit` before its fsync to learn what the syscall will cover.
    flushed: AtomicU64,
    /// The group-commit watermark: the highest `appended` value known
    /// fsynced. Only `commit` takes it, never under `inner` (`failed` under it).
    synced: Mutex<u64>,
    /// What [`KvStore::counters`] reads, counted at the call.
    meter: StoreCounters<Counter>,
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

    /// Opens (or creates) a log file with an explicit durability mode;
    /// under [`Durability::Fsync`], creating it syncs its directory too.
    ///
    /// Fails with [`StoreError::CorruptAt`] if the file lacks the magic or
    /// replay finds mid-file corruption (see the module docs for the
    /// torn-tail distinction); the file is not modified in either case.
    pub fn open_with(path: impl AsRef<Path>, durability: Durability) -> Result<Self, StoreError> {
        let file = OsFile::open(path.as_ref())?;
        let creates = file.truncate(u64::MAX)? < MAGIC.len() as u64;
        let kv = Self::over(file, durability)?;
        if creates && durability == Durability::Fsync {
            sync_parent(path.as_ref())?;
        }
        Ok(kv)
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
    /// replaying its contents; fails as [`LogKv::open_with`] does. Any
    /// [`LogFile`] will do: a test hands in one that records what the log
    /// asks of it, to replay every state a crash could leave.
    pub fn over(file: F, durability: Durability) -> Result<Self, StoreError> {
        // Cutting nothing, to learn the length.
        let len = file.truncate(u64::MAX)?;
        let mut head = [0u8; MAGIC.len()];
        let head = &mut head[..len.min(MAGIC.len() as u64) as usize];
        file.read_at(head, 0)?;
        if !MAGIC.starts_with(head) {
            return Err(StoreError::CorruptAt {
                what: "missing log magic: not a TCLOG4 log",
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
            next_seq: seq,
            tail: tail.max(MAGIC.len() as u64),
            ..Default::default()
        };
        inner.publish(inner.footprint());
        LogKv {
            durability,
            file,
            inner: Mutex::new(inner),
            flushed: AtomicU64::new(0),
            synced: Mutex::new(0),
            meter: StoreCounters::default(),
        }
    }

    /// Group-commit fsync: make append number `my` durable, sharing the
    /// syscall with every record flushed before it started. A failed sync
    /// turns the log read-only and fails the waiters it did not cover.
    fn commit(&self, my: u64) -> Result<(), StoreError> {
        if self.durability != Durability::Fsync {
            return Ok(());
        }
        let mut synced = self.synced.lock();
        if *synced >= my {
            return Ok(()); // another waiter's fsync already covered us
        }
        if self.inner.lock().failed {
            return Err(StoreError::ReadOnly);
        }
        // Everything flushed to the file before the syscall starts is
        // durable when it returns; snapshot the watermark first.
        let covered = self.flushed.load(Ordering::Acquire);
        (self.file.sync()).inspect_err(|_| self.inner.lock().fail())?;
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

    /// Counts `ops` as the puts and deletes they are under a `stage` span,
    /// then appends them as one run of records — all but the last carrying
    /// the continues bit — and applies them to the index: one lock
    /// acquisition, one `write(2)`, one group-commit wait.
    fn write(&self, stage: Stage, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        let _span = trace::stage(stage);
        rank::assert_may_block();
        let puts = ops.iter().filter(|op| parts(op).0 == OP_PUT).count();
        let bytes: usize = ops.iter().map(|op| parts(op).2.len()).sum();
        self.meter.puts.add(puts as u64);
        self.meter.deletes.add((ops.len() - puts) as u64);
        self.meter.bytes_written.add(bytes as u64);
        if ops.is_empty() {
            return Ok(());
        }
        let my = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            if inner.failed {
                return Err(StoreError::ReadOnly);
            }
            inner.encode(ops);
            if self.durability != Durability::Buffered || inner.buffered.len() >= BUFFER {
                inner.flush(&self.file)?;
            }
            for ((op, key, _), &len) in ops.iter().map(parts).zip(&inner.lens) {
                inner.index.apply(
                    op,
                    key,
                    Loc {
                        offset: inner.tail,
                        len,
                    },
                );
                inner.tail += u64::from(len);
            }
            if inner.lens.capacity() > 1 << 10 {
                (inner.lens, inner.named) = Default::default(); // a large batch's, not kept
            }
            inner.publish(inner.footprint());
            inner.next_seq = inner.next_seq.wrapping_add(ops.len() as u8);
            inner.appended += 1;
            self.flushed.store(inner.appended, Ordering::Release);
            inner.appended
        };
        counters::STORE_BATCHES.inc();
        self.commit(my)
    }
}

/// A closed log writes out its buffer, if it holds records (an error
/// there is logged), and withdraws its share of the footprint gauges.
impl<F: LogFile> Drop for LogKv<F> {
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        if !inner.buffered.is_empty() {
            if let Err(e) = inner.flush(&self.file) {
                tc_warn!("store.log", "closing: buffered records lost: {e}");
            }
        }
        inner.publish(LogStats::default());
    }
}

/// Opens a read's `stage` span, checks that the thread may block, and
/// counts the call on `calls`.
fn enter(stage: Stage, calls: &Counter) -> trace::Span {
    let span = trace::stage(stage);
    rank::assert_may_block();
    calls.inc();
    span
}

/// Every call opens its `store.*` stage span, checks that the thread holds
/// no lock under which nothing may block (`rank::assert_may_block`) and is
/// counted, a failed one too; `put` and `delete` are one-op batches.
impl<F: LogFile> KvStore for LogKv<F> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let _span = enter(Stage::StoreGet, &self.meter.gets);
        let (loc, run) = {
            let mut inner = self.inner.lock();
            let Some((loc, run)) = inner.index.get(key) else {
                return Ok(None);
            };
            inner.readable(&self.file, loc.end())?;
            (loc, run)
        };
        let value = read_value(&self.file, key, loc, run)?;
        self.meter.bytes_read.add(value.len() as u64);
        Ok(Some(value))
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.write(Stage::StorePut, &[WriteOp::Put { key, value }])
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.write(Stage::StoreDelete, &[WriteOp::Delete { key }])
    }

    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        self.write(Stage::StoreBatch, ops)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, StoreError> {
        let _span = enter(Stage::StoreScan, &self.meter.scans);
        let hits = {
            let mut inner = self.inner.lock();
            let hits: Vec<Hit> = inner.index.range(prefix).collect();
            let end = hits.iter().map(|(_, loc, _)| loc.end()).max();
            inner.readable(&self.file, end.unwrap_or(0))?;
            hits
        };
        let pairs: KvPairs = (hits.into_iter())
            .map(|(key, loc, run)| read_value(&self.file, &key, loc, run).map(|value| (key, value)))
            .collect::<Result<_, _>>()?;
        let bytes = pairs.iter().map(|(_, v)| v.len() as u64).sum();
        self.meter.bytes_read.add(bytes);
        Ok(pairs)
    }

    fn scan_keys(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        let _span = enter(Stage::StoreScan, &self.meter.scans);
        let inner = self.inner.lock();
        Ok(inner.index.range(prefix).map(|(k, ..)| k).collect())
    }

    fn scan_keys_after(
        &self,
        prefix: &[u8],
        after: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        let _span = enter(Stage::StoreScan, &self.meter.scans);
        Ok(self.inner.lock().index.keys_after(prefix, after, limit))
    }

    fn counters(&self) -> StoreCounters {
        let m = &self.meter;
        StoreCounters {
            gets: m.gets.get(),
            puts: m.puts.get(),
            deletes: m.deletes.get(),
            scans: m.scans.get(),
            bytes_read: m.bytes_read.get(),
            bytes_written: m.bytes_written.get(),
        }
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
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("timecrypt-logkv-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A file a test makes, reads whole and opens again. Each test generic
    /// over it runs on both: the OS file at a temp path and the file in
    /// memory.
    trait TestFile {
        type File: LogFile;
        fn fresh(name: &str) -> Self;
        fn contents(&self) -> Vec<u8>;
        fn open(&self) -> Self::File;
        fn remove(&self) {}
    }

    impl TestFile for PathBuf {
        type File = OsFile;
        fn fresh(name: &str) -> Self {
            tmp(name)
        }
        fn contents(&self) -> Vec<u8> {
            std::fs::read(self).unwrap()
        }
        fn open(&self) -> OsFile {
            OsFile::open(self).unwrap()
        }
        fn remove(&self) {
            std::fs::remove_file(self).unwrap();
        }
    }

    impl TestFile for MemFile {
        type File = MemFile;
        fn fresh(_: &str) -> Self {
            MemFile::holding(Vec::new())
        }
        fn contents(&self) -> Vec<u8> {
            self.bytes.read().clone()
        }
        fn open(&self) -> MemFile {
            self.clone()
        }
    }

    /// The log in `file`, opened again under [`Durability::Flush`].
    fn reopen<F: TestFile>(file: &F) -> Result<LogKv<F::File>, StoreError> {
        LogKv::over(file.open(), Durability::Flush)
    }

    /// Runs `test` on a fresh log under `mode` in each file, and removes
    /// the OS file.
    fn on_each_file(name: &str, mode: Durability, test: impl Fn(&dyn KvStore)) {
        let path = tmp(name);
        test(&LogKv::open_with(&path, mode).unwrap());
        std::fs::remove_file(path).unwrap();
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
        scan_keys_after_in::<PathBuf>();
        scan_keys_after_in::<MemFile>();
    }

    fn scan_keys_after_in<F: TestFile>() {
        let file = F::fresh("after");
        let kv = reopen(&file).unwrap();
        conformance::scan_keys_after(&kv);
        let runs = kv.inner.lock().index.runs.len();
        assert_eq!(runs, 1, "the counting keys are one run");
        file.remove();
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
        concurrent_writers_in::<PathBuf>();
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

    /// A file in memory whose appends fail once it is `full`, and whose
    /// syncs fail while it is `failing`; it counts the syncs it was asked
    /// for.
    struct Full {
        file: MemFile,
        full: std::sync::atomic::AtomicBool,
        failing: std::sync::atomic::AtomicBool,
        syncs: std::sync::atomic::AtomicU64,
    }

    impl Full {
        fn over(file: &MemFile) -> Self {
            Full {
                file: file.clone(),
                full: Default::default(),
                failing: Default::default(),
                syncs: Default::default(),
            }
        }
    }

    impl LogFile for Full {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
            self.file.read_at(buf, offset)
        }
        fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
            match self.full.load(Ordering::Relaxed) {
                true => Err(std::io::Error::other("disk full")),
                false => self.file.append(bytes),
            }
        }
        fn sync(&self) -> std::io::Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            match self.failing.load(Ordering::Relaxed) {
                true => Err(std::io::Error::other("EIO")),
                false => self.file.sync(),
            }
        }
        fn truncate(&self, len: u64) -> std::io::Result<u64> {
            self.file.truncate(len)
        }
    }

    /// Every call is counted at the call, a write the log refuses too, with
    /// the value bytes it moved, and opens its stage span.
    #[test]
    fn counts_each_call_and_its_value_bytes_under_its_span() {
        let file = Full::over(&MemFile::holding(Vec::new()));
        let kv = LogKv::over(file, Durability::Flush).unwrap();
        let scope = timecrypt_obs::trace::begin_request();
        kv.put(b"k", b"12345").unwrap();
        kv.get(b"k").unwrap();
        kv.get(b"missing").unwrap();
        kv.scan_prefix(b"").unwrap();
        kv.scan_keys(b"").unwrap();
        kv.scan_keys_after(b"", b"", 1).unwrap();
        kv.delete(b"k").unwrap();
        // A batch counts as the writes it carries.
        let put = |key, value| WriteOp::Put { key, value };
        let batch = [
            put(b"a", b"123"),
            WriteOp::Delete { key: b"k" },
            put(b"b", b"4"),
        ];
        kv.write_batch(&batch).unwrap();
        let c = kv.counters();
        assert_eq!((c.gets, c.puts, c.deletes, c.scans), (2, 3, 2, 3));
        // One get hit and one value scan return the 5 bytes; key scans none.
        assert_eq!((c.bytes_read, c.bytes_written), (10, 9));
        // The append that fails, then a write the read-only log refuses.
        kv.file.full.store(true, Ordering::Relaxed);
        kv.put(b"c", b"67").unwrap_err();
        kv.write_batch(&[put(b"d", b"8")]).unwrap_err();
        let c = kv.counters();
        assert_eq!((c.puts, c.bytes_written), (5, 12));
        let (_, stages) = scope.finish();
        let spans = [
            Stage::StoreGet,
            Stage::StorePut,
            Stage::StoreDelete,
            Stage::StoreScan,
            Stage::StoreBatch,
        ];
        assert_eq!(spans.map(|stage| stages.get(stage).count), [2, 2, 1, 3, 2]);
    }

    /// Under `Fsync` the batch whose sync fails is refused, and so is every
    /// later write, though the file would sync again: a sync after a failed
    /// one can succeed without the pages the kernel dropped. A group-commit
    /// waiter the failed sync did not cover fails without a sync of its
    /// own. Reads go on, and the log reopened over its file writes again.
    #[test]
    fn a_failed_sync_ends_the_logs_writes() {
        let mem = MemFile::holding(Vec::new());
        let kv = LogKv::over(Full::over(&mem), Durability::Fsync).unwrap();
        kv.put(b"a", b"1").unwrap();
        kv.file.failing.store(true, Ordering::Relaxed);
        kv.put(b"b", b"2").unwrap_err();
        kv.file.failing.store(false, Ordering::Relaxed);
        let syncs = kv.file.syncs.load(Ordering::Relaxed);
        kv.put(b"c", b"3").unwrap_err();
        let put = |key, value| WriteOp::Put { key, value };
        kv.write_batch(&[put(b"d", b"4")]).unwrap_err();
        // The batch the failed sync was for, waited on again.
        kv.commit(2).unwrap_err();
        assert_eq!(kv.file.syncs.load(Ordering::Relaxed), syncs, "no sync");
        assert_eq!(kv.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(kv.get(b"c").unwrap(), None);
        drop(kv);
        let kv = LogKv::over(Full::over(&mem), Durability::Fsync).unwrap();
        kv.put(b"c", b"3").unwrap();
        assert_eq!(kv.get(b"c").unwrap().as_deref(), Some(&b"3"[..]));
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
    fn a_version_3_log_is_refused_whole_and_left_as_it_was() {
        // Framed as this build frames records, but holding values in forms
        // it no longer reads: refused before any record is read.
        let path = tmp("version3");
        {
            let kv = LogKv::open(&path).unwrap();
            kv.put(b"il/chunk", b"a record in the old form").unwrap();
        }
        let mut v3 = std::fs::read(&path).unwrap();
        v3[..MAGIC.len()].copy_from_slice(b"TCLOG3\r\n");
        std::fs::write(&path, &v3).unwrap();
        match LogKv::open(&path) {
            Err(StoreError::CorruptAt { what, offset: 0 }) => {
                assert_eq!(what, "missing log magic: not a TCLOG4 log");
            }
            other => panic!(
                "TCLOG3: expected CorruptAt, got {:?}",
                other.map(|kv| kv.len())
            ),
        }
        assert_eq!(std::fs::read(&path).unwrap(), v3);
        std::fs::remove_file(path).unwrap();
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
                        ("missing log magic: not a TCLOG4 log", 0),
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
                assert!(e.to_string().contains("TCLOG4"), "{e}");
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

    /// A log created under `Fsync` syncs its file and the directory that
    /// names it; opened again, its file alone.
    #[test]
    fn a_log_created_under_fsync_syncs_its_directory() {
        let _serial = fsync_tests();
        let path = tmp("fsyncdir");
        let fsyncs = || counters::FSYNCS.get();
        let before = fsyncs();
        drop(LogKv::open_with(&path, Durability::Fsync).unwrap());
        assert_eq!(fsyncs() - before, 2, "the file and its directory");
        let before = fsyncs();
        drop(LogKv::open_with(&path, Durability::Fsync).unwrap());
        assert_eq!(fsyncs() - before, 1, "the file alone");
        // A bare file name's directory is `.`, not the empty path.
        let before = fsyncs();
        sync_parent(Path::new("node.log")).unwrap();
        assert_eq!(fsyncs() - before, 1);
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
        // Overwriting the key heals it.
        kv.put(b"second", b"again").unwrap();
        assert_eq!(kv.get(b"second").unwrap(), Some(b"again".to_vec()));
        assert_eq!(kv.scan_prefix(b"").unwrap().len(), 3);
        // The dead record's byte back (of "other"), so that every record
        // parses again for `forms`.
        f.write_all_at(b"h", victim).unwrap();
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
        std::fs::remove_file(path).unwrap();
    }

    /// One block at the extremes — gaps of ±2^63 and of none, lengths of
    /// `u32::MAX`, holes first, last and in every slot — reads back as
    /// written, its padding unread.
    #[test]
    fn a_block_reads_back_its_slots_at_the_extremes() {
        let (min, max) = (i64::MIN, i64::MAX);
        let live = [(min, u32::MAX), (max, 1), (0, u32::MAX), (-1, 7), (min, 1)];
        let mut end = 0u64;
        let mut extremes: Vec<_> = live
            .iter()
            .map(|&(gap, len)| {
                let offset = end.wrapping_add(gap as u64);
                end = offset.wrapping_add(u64::from(len));
                Some((offset, len))
            })
            .collect();
        extremes.insert(0, None);
        extremes.insert(3, None);
        extremes.push(None);
        let alternating = (0..BLOCK).map(|i| (i % 2 == 1).then_some((i << 60, 9)));
        let shapes = [extremes, vec![None; BLOCK as usize], alternating.collect()];
        for want in shapes {
            let (mut block, mut end) = (Vec::new(), 0);
            for slot in &want {
                let loc = slot.map(|(offset, len)| Loc { offset, len });
                put_slot(&mut block, &mut end, loc);
            }
            let block = seal(block);
            let read = slots(&block).take(want.len());
            let read: Vec<_> = read.map(|s| s.map(|l| (l.offset, l.len))).collect();
            assert_eq!(read, want);
        }
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
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn stats_count_dead_bytes_on_overwrite_delete_and_replay() {
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
            read_only: false,
        };
        assert_eq!(kv.stats(), want);
        assert_eq!(want.log_bytes, std::fs::metadata(&path).unwrap().len());
        drop(kv);
        let kv = LogKv::open(&path).unwrap();
        assert_eq!(kv.stats(), want, "replay rebuilds the same accounting");
        std::fs::remove_file(path).unwrap();
    }

    /// `Buffered` loses acked writes when the process dies, not when the
    /// log is closed.
    #[test]
    fn a_closed_buffered_log_writes_out_its_buffer() {
        closed_buffered_in::<PathBuf>();
        closed_buffered_in::<MemFile>();
    }

    fn closed_buffered_in<F: TestFile>() {
        let file = F::fresh("buffered-close");
        let kv = LogKv::over(file.open(), Durability::Buffered).unwrap();
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
    fn readers_race_a_writer() {
        readers_race_in::<PathBuf>();
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
            // Each round waits until the readers have made progress since
            // the last one, so reads bracket every overwrite round.
            let mut seen = 0;
            for round in 1..=3u64 {
                for (k, ack) in acked.iter().enumerate() {
                    kv.put(&[b'r', k as u8], &value(k, round)).unwrap();
                    ack.store(round, Ordering::Release);
                }
                while reads.load(Ordering::Acquire) < seen + 8 * READERS as u64 {
                    std::thread::yield_now();
                }
                seen = reads.load(Ordering::Acquire);
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(kv.len(), KEYS);
        file.remove();
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

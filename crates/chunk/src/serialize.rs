//! Chunk construction, encryption, and byte-level serialization (§4.1).
//!
//! The producer path is: accumulate points → cut at Δ boundaries
//! ([`ChunkBuilder`]) → compute the plaintext digest → HEAC-encrypt the
//! digest and AES-GCM-encrypt the compressed payload ([`ChunkSealer::seal`],
//! one sealer per stream; [`PlainChunk::seal`] is the stateless reference)
//! → ship the [`EncryptedChunk`] to the server. The server indexes the
//! digest ciphertext and stores the payload blob; it can read neither.

use crate::compress::{self, CodecError};
use crate::model::{ChunkId, DataPoint, StreamConfig, StreamId};
use std::sync::OnceLock;
use timecrypt_core::heac::{DigestCursor, KeySource};
use timecrypt_core::keys::{payload_key, payload_key_from_leaves};
use timecrypt_core::{CoreError, StreamKeyMaterial, TreeKd};
use timecrypt_crypto::gcm::NONCE_LEN;
use timecrypt_crypto::{AesGcm128, GcmKeyCache, SecureRandom};

/// Process-wide cache of payload-key GCM instances.
///
/// Payload keys are per-chunk, but one chunk's key is reused many times in
/// the hot paths: every real-time record targeting an open chunk is sealed
/// (and later opened) under the same key, and consumers walking a range
/// revisit each chunk's cipher for its live records. Caching the expanded
/// round keys + GHASH table makes those repeats a map lookup instead of a
/// key schedule. The cache holds cipher state only (never plaintext), and
/// an evicted key is simply re-derived — so the bound is a pure perf knob.
fn payload_ciphers() -> &'static GcmKeyCache {
    static CACHE: OnceLock<GcmKeyCache> = OnceLock::new();
    CACHE.get_or_init(|| GcmKeyCache::new(64))
}

/// Reads `N` bytes of `buf` starting at `at` into a fixed array without
/// panicking: short input zero-pads the tail. Every caller length-checks
/// `buf` first, so the pad never engages in practice — it just keeps the
/// parse paths free of unwraps.
fn take_arr<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    for (o, b) in out.iter_mut().zip(buf.iter().skip(at)) {
        *o = *b;
    }
    out
}

/// A chunk before encryption: the producer-side in-memory form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainChunk {
    /// Owning stream.
    pub stream: StreamId,
    /// Position in the stream = keystream index.
    pub index: ChunkId,
    /// The points, in timestamp order, all within the chunk's Δ window.
    pub points: Vec<DataPoint>,
}

/// Errors along the chunk seal/open path.
#[derive(Debug)]
pub enum ChunkError {
    /// Key derivation / scope failure.
    Core(CoreError),
    /// Payload failed authenticated decryption.
    PayloadAuth,
    /// Payload decompression failed after successful authentication
    /// (indicates a producer bug, not tampering).
    Codec(CodecError),
    /// Serialized chunk bytes malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::Core(e) => write!(f, "key error: {e}"),
            ChunkError::PayloadAuth => write!(f, "chunk payload failed authentication"),
            ChunkError::Codec(e) => write!(f, "payload decode error: {e}"),
            ChunkError::Malformed(m) => write!(f, "malformed chunk bytes: {m}"),
        }
    }
}

impl std::error::Error for ChunkError {}

impl From<CoreError> for ChunkError {
    fn from(e: CoreError) -> Self {
        ChunkError::Core(e)
    }
}

impl PlainChunk {
    /// Seals this chunk: computes and HEAC-encrypts the digest, compresses
    /// and AES-GCM-encrypts the points.
    ///
    /// The one-shot form: both boundary leaves are derived from the root
    /// (two walks of the key tree). Anything that seals a stream's chunks
    /// one after another keeps a [`ChunkSealer`] instead; this is the
    /// reference its output is pinned to.
    pub fn seal(
        &self,
        cfg: &StreamConfig,
        keys: &StreamKeyMaterial,
        rng: &mut SecureRandom,
    ) -> Result<EncryptedChunk, ChunkError> {
        self.seal_at(cfg, &keys.tree, &mut DigestCursor::default(), rng)
    }

    /// [`seal`](Self::seal) with the boundary leaves and their element
    /// keys taken through `cursor`, from wherever the previous chunk left
    /// it. The digest is encrypted where `schema.compute` left it and the
    /// points are compressed straight into the payload, behind the nonce.
    fn seal_at(
        &self,
        cfg: &StreamConfig,
        tree: &TreeKd,
        cursor: &mut DigestCursor,
        rng: &mut SecureRandom,
    ) -> Result<EncryptedChunk, ChunkError> {
        let mut digest_ct = cfg.schema.compute(&self.points);
        let (l0, l1) = cursor.encrypt_digest(tree, self.index, &mut digest_ct)?;
        let gcm = AesGcm128::new(&payload_key_from_leaves(&l0, &l1));
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce);
        // Sized as `compress` sizes its own buffer, plus nonce and tag.
        let mut payload = Vec::with_capacity(NONCE_LEN + self.points.len() * 4 + 8 + 16);
        payload.extend_from_slice(&nonce);
        compress::compress_into(cfg.codec, &self.points, &mut payload);
        let aad = Self::aad(self.stream, self.index);
        gcm.seal_tail(&nonce, &aad, &mut payload, NONCE_LEN);
        Ok(EncryptedChunk {
            stream: self.stream,
            index: self.index,
            digest_ct,
            payload,
        })
    }

    fn aad(stream: StreamId, index: ChunkId) -> [u8; 24] {
        let mut aad = [0u8; 24];
        aad[..16].copy_from_slice(&stream.to_be_bytes());
        aad[16..].copy_from_slice(&index.to_be_bytes());
        aad
    }
}

/// The sealing state of one stream: its configuration, its key tree and
/// the producer's place in that tree's keystream ([`DigestCursor`]).
///
/// Per sealed chunk it derives the two boundary leaves once — the digest
/// keys and the payload key ([`payload_key_from_leaves`]) are both made
/// from them — and assembles the `nonce || ct || tag` payload in place
/// ([`AesGcm128::seal_tail`]). Between chunks it carries the cursor:
/// sealing chunk `i + 1` after chunk `i` costs under two PRG calls instead
/// of two root-to-leaf walks and one element-key PRF expansion instead of
/// two, and any other order costs at most those two walks and two
/// expansions. The saving lasts as long as the sealer does, so whatever
/// seals a stream (a producer, a bulk loader) keeps one for the stream's
/// life.
///
/// Output is byte-identical to [`PlainChunk::seal`] driven by the same RNG
/// stream (pinned by `sealer_matches_plain_seal`).
pub struct ChunkSealer {
    cfg: StreamConfig,
    tree: TreeKd,
    cursor: DigestCursor,
}

impl ChunkSealer {
    /// A sealer for `cfg`'s stream over the owner key material.
    pub fn new(cfg: &StreamConfig, keys: &StreamKeyMaterial) -> Self {
        ChunkSealer {
            cfg: cfg.clone(),
            tree: keys.tree.clone(),
            cursor: DigestCursor::default(),
        }
    }

    /// PRG invocations spent on key derivation so far.
    pub fn prg_calls(&self) -> u64 {
        self.cursor.leaves.prg_calls()
    }

    /// AES blocks spent on element keys so far
    /// ([`DigestCursor::prf_blocks`]).
    pub fn prf_blocks(&self) -> u64 {
        self.cursor.prf_blocks()
    }

    /// Seals one chunk (any index; sequential indices are the fast path).
    pub fn seal(
        &mut self,
        chunk: &PlainChunk,
        rng: &mut SecureRandom,
    ) -> Result<EncryptedChunk, ChunkError> {
        chunk.seal_at(&self.cfg, &self.tree, &mut self.cursor, rng)
    }

    /// The payload key of `chunk`, for sealing its real-time records
    /// ([`SealedRecord::seal_with_key`]) before the chunk itself closes.
    pub fn payload_key(&mut self, chunk: ChunkId) -> Result<[u8; 16], ChunkError> {
        let (l0, l1) = self.cursor.leaves.boundary_leaves(&self.tree, chunk)?;
        Ok(payload_key_from_leaves(&l0, &l1))
    }
}

/// The server-visible form of a chunk: HEAC digest ciphertext + opaque
/// payload blob (`nonce || GCM(compressed points)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedChunk {
    /// Owning stream.
    pub stream: StreamId,
    /// Chunk index.
    pub index: ChunkId,
    /// Element-wise HEAC ciphertext of the digest vector.
    pub digest_ct: Vec<u64>,
    /// `nonce || AES-GCM(compressed payload)`.
    pub payload: Vec<u8>,
}

impl EncryptedChunk {
    /// Opens the payload with any key source covering leaves
    /// `index, index+1` and returns the decompressed points.
    pub fn open_payload<K: KeySource>(&self, keys: &K) -> Result<Vec<DataPoint>, ChunkError> {
        if self.payload.len() < NONCE_LEN {
            return Err(ChunkError::Malformed("payload shorter than nonce"));
        }
        let key = payload_key(keys, self.index)?;
        let gcm = payload_ciphers().get(&key);
        let nonce: [u8; NONCE_LEN] = take_arr(&self.payload, 0);
        let compressed = gcm
            .open(
                &nonce,
                &PlainChunk::aad(self.stream, self.index),
                &self.payload[NONCE_LEN..],
            )
            .map_err(|_| ChunkError::PayloadAuth)?;
        compress::decompress(&compressed).map_err(ChunkError::Codec)
    }

    /// Serialized chunk bytes lead with the chunk's position, `stream ‖
    /// index`, this many bytes; what follows — `digest ‖ payload`, each
    /// length-prefixed — does not name the chunk it belongs to.
    pub const POSITION_LEN: usize = 24;

    /// The [`POSITION_LEN`](Self::POSITION_LEN) bytes that lead the
    /// serialization of chunk `index` of `stream`.
    pub fn position(stream: StreamId, index: ChunkId) -> [u8; Self::POSITION_LEN] {
        let mut out = [0u8; Self::POSITION_LEN];
        out[..16].copy_from_slice(&stream.to_le_bytes());
        out[16..].copy_from_slice(&index.to_le_bytes());
        out
    }

    /// Exact length of [`to_bytes`](Self::to_bytes) without serializing:
    /// fixed header (stream 16 + index 8 + two `u32` length prefixes 8)
    /// plus the digest words and the payload. Frame-budget math (the
    /// service tier's greedy ingest drain, export paging) depends on this
    /// agreeing with the serializer — `encoded_len_matches_to_bytes`
    /// pins the two together.
    pub fn encoded_len(&self) -> usize {
        32 + self.digest_ct.len() * 8 + self.payload.len()
    }

    /// Serializes for storage: all fields length-prefixed, little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends [`to_bytes`](Self::to_bytes) into a caller-provided buffer —
    /// the allocation-free path for frame assembly, where a whole ingest
    /// drain is encoded into one reused per-connection buffer. Byte-
    /// identical to `to_bytes` (pinned by the chunk property tests).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.extend_from_slice(&Self::position(self.stream, self.index));
        out.extend_from_slice(&(self.digest_ct.len() as u32).to_le_bytes());
        for &d in &self.digest_ct {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Parses bytes produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ChunkError> {
        Ok(ChunkRef::parse(buf)?.to_owned())
    }
}

/// A digest ciphertext as it lies in serialized chunk bytes: 8 little-endian
/// bytes per word, borrowed — a validating parse allocates nothing for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestWords<'a>(&'a [u8]);

impl DigestWords<'_> {
    /// Number of words (the digest width).
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// True for a digest of width 0.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The words, in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(take_arr(w, 0)))
    }
}

impl PartialEq<Vec<u64>> for DigestWords<'_> {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

/// A zero-copy parse of serialized [`EncryptedChunk`] bytes: digest and
/// payload both stay borrows of the input buffer. The serialization is
/// canonical — exactly one byte string parses to a given chunk — so
/// storing the *input bytes* of a validated `ChunkRef` is byte-identical to
/// re-serializing the parsed chunk; the server's ingest path relies on
/// this to index and store a chunk without copying any of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRef<'a> {
    /// Owning stream.
    pub stream: StreamId,
    /// Chunk index.
    pub index: ChunkId,
    /// Element-wise HEAC ciphertext of the digest vector, borrowed.
    pub digest_ct: DigestWords<'a>,
    /// `nonce || AES-GCM(compressed payload)`, borrowed from the input.
    pub payload: &'a [u8],
}

impl<'a> ChunkRef<'a> {
    /// Parses bytes produced by [`EncryptedChunk::to_bytes`] without
    /// copying or allocating. Same strictness as
    /// [`EncryptedChunk::from_bytes`] (which delegates here): truncated or
    /// trailing bytes are rejected.
    pub fn parse(buf: &'a [u8]) -> Result<Self, ChunkError> {
        let need = |ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(ChunkError::Malformed("truncated"))
            }
        };
        need(buf.len() >= 28)?;
        let stream = u128::from_le_bytes(take_arr(buf, 0));
        let index = u64::from_le_bytes(take_arr(buf, 16));
        let dn = u32::from_le_bytes(take_arr(buf, 24)) as usize;
        // Where the payload's length prefix starts; `dn` is untrusted.
        let pos = dn.checked_mul(8).and_then(|words| words.checked_add(28));
        let pos = pos.filter(|&pos| pos <= buf.len() - 4);
        let pos = pos.ok_or(ChunkError::Malformed("truncated"))?;
        let pn = u32::from_le_bytes(take_arr(buf, pos)) as usize;
        need(buf.len() - pos - 4 == pn)?;
        Ok(ChunkRef {
            stream,
            index,
            digest_ct: DigestWords(&buf[28..pos]),
            payload: &buf[pos + 4..],
        })
    }

    /// Reads just the stream id from serialized chunk bytes, without
    /// parsing the digest or touching the payload: the grouping key for
    /// code that handles already-validated chunk bytes per stream. `None`
    /// when `buf` is too short to be a chunk.
    pub fn peek_stream(buf: &[u8]) -> Option<StreamId> {
        Some(u128::from_le_bytes(buf.get(0..16)?.try_into().ok()?))
    }

    /// Copies the borrow into an owned [`EncryptedChunk`].
    pub fn to_owned(self) -> EncryptedChunk {
        EncryptedChunk {
            stream: self.stream,
            index: self.index,
            digest_ct: self.digest_ct.iter().collect(),
            payload: self.payload.to_vec(),
        }
    }
}

/// A single real-time record (§4.6 "client-side batching"): one data point
/// sealed and uploaded *immediately*, before its chunk closes.
///
/// Chunking bounds ingest latency by Δ; the paper removes that latency
/// "without breaking the encryption, by instantly uploading encrypted data
/// records in real-time to the datastore and dropping the encrypted records
/// once the corresponding chunk is stored". A `SealedRecord` is that
/// real-time upload: the point AES-GCM-encrypted under the same per-chunk
/// payload key the finalized chunk will use, with an AAD that
/// domain-separates live records (tag, stream, chunk, sequence) from chunk
/// payloads. Any key source able to open the chunk can open its live
/// records — access control is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedRecord {
    /// Owning stream.
    pub stream: StreamId,
    /// Chunk this record will belong to once the chunk closes.
    pub chunk: ChunkId,
    /// Position within the chunk (upload order).
    pub seq: u32,
    /// `nonce || AES-GCM(ts_le || value_le)`.
    pub payload: Vec<u8>,
}

impl SealedRecord {
    fn live_aad(stream: StreamId, chunk: ChunkId, seq: u32) -> [u8; 29] {
        let mut aad = [0u8; 29];
        aad[0] = b'L';
        aad[1..17].copy_from_slice(&stream.to_be_bytes());
        aad[17..25].copy_from_slice(&chunk.to_be_bytes());
        aad[25..].copy_from_slice(&seq.to_be_bytes());
        aad
    }

    /// Seals one point for real-time upload, deriving the chunk's payload
    /// key from `keys` (two leaf derivations).
    pub fn seal<K: KeySource>(
        stream: StreamId,
        chunk: ChunkId,
        seq: u32,
        point: DataPoint,
        keys: &K,
        rng: &mut SecureRandom,
    ) -> Result<Self, ChunkError> {
        let key = payload_key(keys, chunk)?;
        Ok(Self::seal_with_key(stream, chunk, seq, point, &key, rng))
    }

    /// [`seal`](Self::seal) under a payload key the caller already holds:
    /// every record of one open chunk shares the chunk's key
    /// ([`ChunkSealer::payload_key`]), so a producer derives it once.
    pub fn seal_with_key(
        stream: StreamId,
        chunk: ChunkId,
        seq: u32,
        point: DataPoint,
        key: &[u8; 16],
        rng: &mut SecureRandom,
    ) -> Self {
        // The cache makes the per-record cost one AES-GCM pass, not a key
        // schedule + pass.
        let gcm = payload_ciphers().get(key);
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce);
        let mut plain = [0u8; 16];
        plain[..8].copy_from_slice(&point.ts.to_le_bytes());
        plain[8..].copy_from_slice(&point.value.to_le_bytes());
        let mut payload = Vec::with_capacity(NONCE_LEN + 32);
        payload.extend_from_slice(&nonce);
        gcm.seal_into(
            &nonce,
            &Self::live_aad(stream, chunk, seq),
            &plain,
            &mut payload,
        );
        SealedRecord {
            stream,
            chunk,
            seq,
            payload,
        }
    }

    /// Opens the record with any key source covering leaf `chunk`.
    pub fn open<K: KeySource>(&self, keys: &K) -> Result<DataPoint, ChunkError> {
        if self.payload.len() < NONCE_LEN {
            return Err(ChunkError::Malformed("record shorter than nonce"));
        }
        let key = payload_key(keys, self.chunk)?;
        let gcm = payload_ciphers().get(&key);
        let nonce: [u8; NONCE_LEN] = take_arr(&self.payload, 0);
        let plain = gcm
            .open(
                &nonce,
                &Self::live_aad(self.stream, self.chunk, self.seq),
                &self.payload[NONCE_LEN..],
            )
            .map_err(|_| ChunkError::PayloadAuth)?;
        if plain.len() != 16 {
            return Err(ChunkError::Malformed("record plaintext size"));
        }
        Ok(DataPoint {
            ts: i64::from_le_bytes(take_arr(&plain, 0)),
            value: i64::from_le_bytes(take_arr(&plain, 8)),
        })
    }

    /// Serializes for the wire/live-buffer: fixed header + payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.payload.len());
        out.extend_from_slice(&self.stream.to_le_bytes());
        out.extend_from_slice(&self.chunk.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Reads just the stream id from serialized record bytes, without
    /// parsing or copying the payload. This is the service tier's
    /// shard-routing peek: the coordinator needs only the owner shard,
    /// and the owning engine performs the one full parse + validation.
    pub fn peek_stream(buf: &[u8]) -> Option<StreamId> {
        Some(u128::from_le_bytes(buf.get(0..16)?.try_into().ok()?))
    }

    /// Parses bytes produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ChunkError> {
        if buf.len() < 32 {
            return Err(ChunkError::Malformed("truncated record"));
        }
        let stream = u128::from_le_bytes(take_arr(buf, 0));
        let chunk = u64::from_le_bytes(take_arr(buf, 16));
        let seq = u32::from_le_bytes(take_arr(buf, 24));
        let pn = u32::from_le_bytes(take_arr(buf, 28)) as usize;
        if buf.len() != 32 + pn {
            return Err(ChunkError::Malformed("truncated record payload"));
        }
        Ok(SealedRecord {
            stream,
            chunk,
            seq,
            payload: buf[32..].to_vec(),
        })
    }
}

/// Client-side batcher: accepts points in timestamp order and emits a
/// [`PlainChunk`] each time the Δ boundary is crossed (§4.6 "client-side
/// batching").
pub struct ChunkBuilder {
    cfg: StreamConfig,
    current: Option<(ChunkId, Vec<DataPoint>)>,
    next_expected: ChunkId,
    /// The open chunk's last point's timestamp and where its interval ends
    /// (`i64::MIN` while no chunk is open): a point in `[last, end)` joins
    /// it without a division.
    last: i64,
    end: i64,
}

impl ChunkBuilder {
    /// Creates a builder for a stream.
    pub fn new(cfg: StreamConfig) -> Self {
        ChunkBuilder {
            cfg,
            current: None,
            next_expected: 0,
            last: i64::MIN,
            end: i64::MIN,
        }
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Pushes a point. Returns the completed chunks this push sealed off
    /// (normally zero or one; multiple if the point skipped over empty Δ
    /// windows — empty chunks are emitted to keep the keystream contiguous).
    ///
    /// Points must arrive in non-decreasing timestamp order; out-of-order or
    /// pre-epoch points are rejected.
    pub fn push(&mut self, p: DataPoint) -> Result<Vec<PlainChunk>, ChunkError> {
        if let (true, Some((_, points))) =
            ((self.last..self.end).contains(&p.ts), &mut self.current)
        {
            points.push(p);
            self.last = p.ts;
            return Ok(Vec::new());
        }
        self.push_past_the_open_chunk(p)
    }

    /// [`push`](Self::push) of a point the open chunk does not take: one
    /// past its end, before its last point or with none open.
    #[cold]
    #[inline(never)]
    fn push_past_the_open_chunk(&mut self, p: DataPoint) -> Result<Vec<PlainChunk>, ChunkError> {
        let chunk = self
            .cfg
            .chunk_of(p.ts)
            .ok_or(ChunkError::Malformed("timestamp before stream epoch"))?;
        let mut emitted = Vec::new();
        match self.current.take() {
            Some((cur, mut points)) => {
                if chunk < cur {
                    self.current = Some((cur, points));
                    return Err(ChunkError::Malformed("out-of-order point"));
                }
                if chunk == cur {
                    if points.last().is_some_and(|last| p.ts < last.ts) {
                        self.current = Some((cur, points));
                        return Err(ChunkError::Malformed("out-of-order point"));
                    }
                    points.push(p);
                    self.current = Some((cur, points));
                    self.last = p.ts;
                    return Ok(emitted);
                }
                // Crossed a boundary: seal current, emit empties for gaps.
                emitted.push(PlainChunk {
                    stream: self.cfg.id,
                    index: cur,
                    points,
                });
                for empty in (cur + 1)..chunk {
                    emitted.push(PlainChunk {
                        stream: self.cfg.id,
                        index: empty,
                        points: Vec::new(),
                    });
                }
            }
            None => {
                // First point: emit empty chunks from next_expected (0 at
                // start) up to the point's chunk.
                for empty in self.next_expected..chunk {
                    emitted.push(PlainChunk {
                        stream: self.cfg.id,
                        index: empty,
                        points: Vec::new(),
                    });
                }
            }
        }
        self.current = Some((chunk, vec![p]));
        self.next_expected = chunk + 1;
        let end = self.cfg.t0 as i128 + (chunk as i128 + 1) * self.cfg.delta_ms as i128;
        (self.last, self.end) = (p.ts, end.min(i64::MAX as i128) as i64);
        Ok(emitted)
    }

    /// Flushes the in-progress chunk (e.g. at stream close).
    pub fn flush(&mut self) -> Option<PlainChunk> {
        self.end = i64::MIN;
        self.current.take().map(|(index, points)| PlainChunk {
            stream: self.cfg.id,
            index,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DigestSchema;
    use timecrypt_core::heac::decrypt_range_sum;
    use timecrypt_crypto::PrgKind;

    fn setup() -> (StreamConfig, StreamKeyMaterial, SecureRandom) {
        let cfg = StreamConfig::new(7, "hr", 0, 10_000);
        let keys = StreamKeyMaterial::with_params(7, [3u8; 16], 20, PrgKind::Aes).unwrap();
        let rng = SecureRandom::from_seed_insecure(1);
        (cfg, keys, rng)
    }

    fn points_for_chunk(chunk: u64, n: usize) -> Vec<DataPoint> {
        (0..n)
            .map(|i| DataPoint::new(chunk as i64 * 10_000 + i as i64 * 20, 70 + i as i64 % 5))
            .collect()
    }

    #[test]
    fn live_record_roundtrip() {
        let (_, keys, mut rng) = setup();
        let p = DataPoint::new(31_500, -42);
        let rec = SealedRecord::seal(7, 3, 2, p, &keys.tree, &mut rng).unwrap();
        assert_eq!(rec.open(&keys.tree).unwrap(), p);
        let parsed = SealedRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(parsed, rec);
        assert_eq!(parsed.open(&keys.tree).unwrap(), p);
    }

    #[test]
    fn live_record_requires_matching_chunk_key() {
        // A token set covering only chunk 5 cannot open a chunk-3 record.
        let (_, keys, mut rng) = setup();
        let rec =
            SealedRecord::seal(7, 3, 0, DataPoint::new(30_001, 9), &keys.tree, &mut rng).unwrap();
        let tokens = keys.tree.token_set(5, 7).unwrap();
        assert!(rec.open(&tokens).is_err());
        let tokens = keys.tree.token_set(3, 5).unwrap();
        assert_eq!(rec.open(&tokens).unwrap(), DataPoint::new(30_001, 9));
    }

    #[test]
    fn live_record_tamper_and_header_swap_detected() {
        let (_, keys, mut rng) = setup();
        let rec =
            SealedRecord::seal(7, 3, 1, DataPoint::new(30_500, 7), &keys.tree, &mut rng).unwrap();
        // Ciphertext bit-flip.
        let mut bad = rec.clone();
        *bad.payload.last_mut().unwrap() ^= 1;
        assert!(bad.open(&keys.tree).is_err());
        // Header (AAD) swap: replaying the record under another seq.
        let mut bad = rec.clone();
        bad.seq = 2;
        assert!(bad.open(&keys.tree).is_err());
        // Chunk swap fails even though the key for chunk 3 was used.
        let mut bad = rec;
        bad.chunk = 4;
        assert!(bad.open(&keys.tree).is_err());
    }

    #[test]
    fn live_record_distinct_from_chunk_payload_domain() {
        // A chunk payload blob reinterpreted as a live record must not
        // authenticate (domain separation via AAD tag byte).
        let (cfg, keys, mut rng) = setup();
        let sealed = PlainChunk {
            stream: 7,
            index: 3,
            points: points_for_chunk(3, 1),
        }
        .seal(&cfg, &keys, &mut rng)
        .unwrap();
        let forged = SealedRecord {
            stream: 7,
            chunk: 3,
            seq: 0,
            payload: sealed.payload,
        };
        assert!(forged.open(&keys.tree).is_err());
    }

    #[test]
    fn live_record_from_bytes_rejects_garbage() {
        assert!(SealedRecord::from_bytes(&[]).is_err());
        assert!(SealedRecord::from_bytes(&[0u8; 31]).is_err());
        let (_, keys, mut rng) = setup();
        let rec =
            SealedRecord::seal(7, 3, 0, DataPoint::new(30_000, 1), &keys.tree, &mut rng).unwrap();
        let mut bytes = rec.to_bytes();
        bytes.pop();
        assert!(SealedRecord::from_bytes(&bytes).is_err());
        bytes.push(0);
        bytes.push(0);
        assert!(SealedRecord::from_bytes(&bytes).is_err());
    }

    #[test]
    fn seal_open_roundtrip() {
        let (cfg, keys, mut rng) = setup();
        let chunk = PlainChunk {
            stream: 7,
            index: 3,
            points: points_for_chunk(3, 500),
        };
        let sealed = chunk.seal(&cfg, &keys, &mut rng).unwrap();
        assert_eq!(sealed.digest_ct.len(), cfg.schema.width());
        let opened = sealed.open_payload(&keys.tree).unwrap();
        assert_eq!(opened, chunk.points);
    }

    #[test]
    fn sealed_digest_decrypts_to_schema_digest() {
        let (cfg, keys, mut rng) = setup();
        let chunk = PlainChunk {
            stream: 7,
            index: 5,
            points: points_for_chunk(5, 100),
        };
        let sealed = chunk.seal(&cfg, &keys, &mut rng).unwrap();
        let dec = decrypt_range_sum(&keys.tree, 5, 6, &sealed.digest_ct).unwrap();
        assert_eq!(dec, cfg.schema.compute(&chunk.points));
    }

    #[test]
    fn payload_tamper_detected() {
        let (cfg, keys, mut rng) = setup();
        let chunk = PlainChunk {
            stream: 7,
            index: 0,
            points: points_for_chunk(0, 10),
        };
        let mut sealed = chunk.seal(&cfg, &keys, &mut rng).unwrap();
        let last = sealed.payload.len() - 1;
        sealed.payload[last] ^= 1;
        assert!(matches!(
            sealed.open_payload(&keys.tree),
            Err(ChunkError::PayloadAuth)
        ));
    }

    #[test]
    fn cross_chunk_payload_swap_detected() {
        // AAD binds (stream, index): replaying chunk 0's payload as chunk 1
        // must fail even under the right key-source.
        let (cfg, keys, mut rng) = setup();
        let c0 = PlainChunk {
            stream: 7,
            index: 0,
            points: points_for_chunk(0, 5),
        };
        let sealed0 = c0.seal(&cfg, &keys, &mut rng).unwrap();
        let forged = EncryptedChunk {
            index: 1,
            ..sealed0
        };
        assert!(forged.open_payload(&keys.tree).is_err());
    }

    #[test]
    fn consumer_without_keys_cannot_open() {
        let (cfg, keys, mut rng) = setup();
        let chunk = PlainChunk {
            stream: 7,
            index: 8,
            points: points_for_chunk(8, 5),
        };
        let sealed = chunk.seal(&cfg, &keys, &mut rng).unwrap();
        let ts = keys.tree.token_set(0, 5).unwrap();
        assert!(matches!(
            sealed.open_payload(&ts),
            Err(ChunkError::Core(CoreError::OutOfScope { .. }))
        ));
        // Granted range includes leaf 8 and 9 → works.
        let ts_ok = keys.tree.token_set(8, 9).unwrap();
        assert_eq!(sealed.open_payload(&ts_ok).unwrap(), chunk.points);
    }

    #[test]
    fn bytes_roundtrip() {
        let (cfg, keys, mut rng) = setup();
        let chunk = PlainChunk {
            stream: 7,
            index: 2,
            points: points_for_chunk(2, 50),
        };
        let sealed = chunk.seal(&cfg, &keys, &mut rng).unwrap();
        let bytes = sealed.to_bytes();
        assert_eq!(EncryptedChunk::from_bytes(&bytes).unwrap(), sealed);
        assert_eq!(ChunkRef::peek_stream(&bytes), Some(7));
        assert_eq!(ChunkRef::peek_stream(&bytes[..15]), None);
    }

    #[test]
    fn sealer_matches_plain_seal() {
        // One sealer kept across the whole run must be byte-identical to
        // the one-shot path driven by the same RNG stream — sequential,
        // gappy, repeated and backwards indices, with live-record key
        // lookups moving the cursor in between.
        let (cfg, keys, _) = setup();
        let chunks: Vec<PlainChunk> = [0u64, 1, 2, 5, 6, 40, 40, 7, 3, 4, (1 << 20) - 3]
            .iter()
            .map(|&i| PlainChunk {
                stream: 7,
                index: i,
                points: points_for_chunk(i, (i as usize % 7) * 30),
            })
            .collect();
        let mut rng_a = SecureRandom::from_seed_insecure(42);
        let mut rng_b = SecureRandom::from_seed_insecure(42);
        let mut sealer = ChunkSealer::new(&cfg, &keys);
        for c in &chunks {
            let one_shot = c.seal(&cfg, &keys, &mut rng_a).unwrap();
            let amortized = sealer.seal(c, &mut rng_b).unwrap();
            assert_eq!(one_shot, amortized, "chunk {}", c.index);
            assert_eq!(one_shot.to_bytes(), amortized.to_bytes());
            assert_eq!(amortized.open_payload(&keys.tree).unwrap(), c.points);
            // The open chunk ahead: its live records' key, and a record
            // sealed under it, are the from-root ones.
            let live = c.index + 1;
            let key = sealer.payload_key(live).unwrap();
            assert_eq!(key, keys.payload_key(live).unwrap());
            let p = DataPoint::new(live as i64 * 10_000, 5);
            let from_root = SealedRecord::seal(7, live, 3, p, &keys.tree, &mut rng_a).unwrap();
            assert_eq!(
                SealedRecord::seal_with_key(7, live, 3, p, &key, &mut rng_b),
                from_root
            );
            assert_eq!(from_root.open(&keys.tree).unwrap(), p);
        }
        // The last leaf of the height-20 tree has no right neighbour.
        let end = PlainChunk {
            stream: 7,
            index: (1 << 20) - 1,
            points: Vec::new(),
        };
        assert!(matches!(
            sealer.seal(&end, &mut rng_b),
            Err(ChunkError::Core(CoreError::OutOfScope { .. }))
        ));
        assert!(end.seal(&cfg, &keys, &mut rng_a).is_err());
    }

    #[test]
    fn encode_into_matches_to_bytes() {
        let (cfg, keys, mut rng) = setup();
        for n_points in [0usize, 1, 50, 500] {
            let sealed = PlainChunk {
                stream: 7,
                index: 0,
                points: points_for_chunk(0, n_points),
            }
            .seal(&cfg, &keys, &mut rng)
            .unwrap();
            // encode_into appends after existing content, byte-identically.
            let mut buf = vec![0xaa, 0xbb];
            sealed.encode_into(&mut buf);
            assert_eq!(&buf[..2], &[0xaa, 0xbb]);
            assert_eq!(&buf[2..], &sealed.to_bytes()[..], "{n_points} points");
        }
    }

    #[test]
    fn chunk_ref_parse_matches_from_bytes() {
        let (cfg, keys, mut rng) = setup();
        let sealed = PlainChunk {
            stream: 7,
            index: 3,
            points: points_for_chunk(3, 80),
        }
        .seal(&cfg, &keys, &mut rng)
        .unwrap();
        let bytes = sealed.to_bytes();
        let parsed = ChunkRef::parse(&bytes).unwrap();
        assert_eq!(parsed.stream, sealed.stream);
        assert_eq!(parsed.index, sealed.index);
        assert_eq!(parsed.digest_ct, sealed.digest_ct);
        assert_eq!(parsed.payload, &sealed.payload[..], "payload borrows");
        assert_eq!(parsed.to_owned(), sealed);
        // Same strictness as the owned parse.
        for cut in [0usize, 10, 27, bytes.len() - 1] {
            assert!(ChunkRef::parse(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ChunkRef::parse(&trailing).is_err());
    }

    #[test]
    fn encoded_len_matches_to_bytes() {
        let (cfg, keys, mut rng) = setup();
        for (index, n_points) in [(0u64, 1usize), (1, 50), (2, 500)] {
            let sealed = PlainChunk {
                stream: 7,
                index,
                points: points_for_chunk(index, n_points),
            }
            .seal(&cfg, &keys, &mut rng)
            .unwrap();
            assert_eq!(
                sealed.encoded_len(),
                sealed.to_bytes().len(),
                "index {index}, {n_points} points"
            );
        }
    }

    #[test]
    fn bytes_truncation_rejected() {
        let (cfg, keys, mut rng) = setup();
        let sealed = PlainChunk {
            stream: 7,
            index: 2,
            points: points_for_chunk(2, 50),
        }
        .seal(&cfg, &keys, &mut rng)
        .unwrap();
        let bytes = sealed.to_bytes();
        for cut in [0usize, 10, 27, bytes.len() - 1] {
            assert!(
                EncryptedChunk::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn builder_cuts_at_delta() {
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        let mut b = ChunkBuilder::new(cfg);
        assert!(b.push(DataPoint::new(0, 1)).unwrap().is_empty());
        assert!(b.push(DataPoint::new(9_999, 2)).unwrap().is_empty());
        let done = b.push(DataPoint::new(10_000, 3)).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].index, 0);
        assert_eq!(done[0].points.len(), 2);
        let tail = b.flush().unwrap();
        assert_eq!(tail.index, 1);
        assert_eq!(tail.points, vec![DataPoint::new(10_000, 3)]);
    }

    #[test]
    fn builder_fills_gaps_with_empty_chunks() {
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        let mut b = ChunkBuilder::new(cfg);
        b.push(DataPoint::new(500, 1)).unwrap();
        // Jump to chunk 4: chunks 0 (with data), 1-3 (empty) are emitted.
        let done = b.push(DataPoint::new(42_000, 2)).unwrap();
        assert_eq!(done.len(), 4);
        assert_eq!(done[0].points.len(), 1);
        assert!(done[1..].iter().all(|c| c.points.is_empty()));
        assert_eq!(done[3].index, 3);
    }

    #[test]
    fn builder_leading_gap() {
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        let mut b = ChunkBuilder::new(cfg);
        // First point lands in chunk 2: chunks 0 and 1 are emitted empty so
        // the keystream mapping stays aligned with wall-clock time.
        let done = b.push(DataPoint::new(25_000, 1)).unwrap();
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.points.is_empty()));
    }

    #[test]
    fn builder_rejects_within_chunk_regression() {
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        let mut b = ChunkBuilder::new(cfg);
        b.push(DataPoint::new(15_000, 1)).unwrap();
        assert!(b.push(DataPoint::new(14_999, 2)).is_err());
        assert!(b.push(DataPoint::new(5_000, 2)).is_err());
    }

    #[test]
    fn empty_chunk_seals_and_opens() {
        let (cfg, keys, mut rng) = setup();
        let chunk = PlainChunk {
            stream: 7,
            index: 0,
            points: Vec::new(),
        };
        let sealed = chunk.seal(&cfg, &keys, &mut rng).unwrap();
        assert_eq!(
            sealed.open_payload(&keys.tree).unwrap(),
            Vec::<DataPoint>::new()
        );
        let dec = decrypt_range_sum(&keys.tree, 0, 1, &sealed.digest_ct).unwrap();
        assert_eq!(dec, DigestSchema::standard().compute(&[]));
    }
}

//! The server engine: ingest path, query engine, and the stripes and
//! single-flight cold touch in front of the stream residency
//! ([`crate::residency`], which documents the stream lifecycle).

use crate::residency::{Residency, StreamMeta};
use crate::runs::{ingest_reply, Runs};
use crate::stat::{self, StatLeg, StreamStat};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroU64;
use std::sync::Arc;
use timecrypt_chunk::serialize::{ChunkRef, EncryptedChunk, SealedRecord};
use timecrypt_chunk::ChunkGrid;
use timecrypt_index::{
    decode_sum, fold_sum, keys, leaf_record, stored_chunk_count, AggTree, BoundaryCache,
    IndexError, DEFAULT_CACHE_BYTES,
};
use timecrypt_integrity::{chunk_commitment, RootAttestation, StreamLedger};
use timecrypt_obs::rank::{self, Stripes};
use timecrypt_obs::{counters, trace, Stage};
use timecrypt_store::{KvPairs, KvStore, StoreError, WriteOp};
use timecrypt_wire::messages::{Refusal, RefusalKind, StatReply, StreamInfoWire};
use timecrypt_wire::messages::{Request, RequestRef, Response};
use timecrypt_wire::transport::{dispatch_frame, Handler};

/// Server-side tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Heap budget in bytes, per node, of the boundary cache: the running
    /// sums queries read from the store, for every stream of every engine
    /// the node hosts ([`BoundaryCache`]; Fig. 7 "small cache" sets this to
    /// 1 MB). A hard cap, not a size: each stripe of the cache holds what
    /// queries read again, from a small floor up to its share of the
    /// budget. It grows when a query reads again a sum it evicted, and
    /// falls back when it evicts sums no query found. A sum's second read
    /// admits it; ingest caches nothing. An engine opened alone is its own
    /// node.
    pub cache_bytes: usize,
    /// Upper bound on hydrated stream states held resident at once
    /// (`None` = unbounded, the compatibility default). When the resident
    /// set exceeds the cap, the coldest streams with no in-flight
    /// references are evicted; their state rehydrates from the store on
    /// the next touch. The stream *directory* (ids + registration
    /// metadata) is never evicted.
    pub max_resident_streams: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_bytes: DEFAULT_CACHE_BYTES,
            max_resident_streams: None,
        }
    }
}

/// Byte budget, keys and values, of one [`TimeCryptServer::export_stream`]
/// page: a rebuild ships a page as one frame from the survivor and one to
/// the replica, 4× under the transport's 16 MiB frame cap.
pub const EXPORT_PAGE_BYTES: usize = 4 * 1024 * 1024;

/// Keys one store scan of an export or import page reads at a time.
const SCAN_KEYS: usize = 1024;

/// What one import page changes: the keys to delete, the records to put.
type PageWrites<'p> = (Vec<Vec<u8>>, Vec<&'p (Vec<u8>, Vec<u8>)>);

/// Engine errors; at the wire boundary each is answered as its [`Refusal`].
#[derive(Debug)]
pub enum ServerError {
    /// Unknown stream id.
    NoSuchStream(u128),
    /// Stream already exists.
    StreamExists(u128),
    /// A stream registered with a chunk interval of zero.
    ZeroInterval,
    /// Chunk arrived out of order (must be exactly the next index).
    OutOfOrderChunk {
        /// Expected next index.
        expected: u64,
        /// Received index.
        got: u64,
    },
    /// Digest width mismatch vs stream registration.
    WidthMismatch {
        /// Registered width.
        expected: u32,
        /// Received width.
        got: u32,
    },
    /// Query time range maps to no full chunk.
    EmptyRange,
    /// Inter-stream query over streams with unequal digest widths.
    IncompatibleStreams,
    /// Chunk bytes failed to parse.
    BadChunk,
    /// Live record bytes failed to parse.
    BadRecord,
    /// A replica-import page whose keys do not ascend after its cursor or
    /// are not all the stream's.
    BadImport,
    /// Live record targets a chunk that is already finalized.
    StaleLiveRecord {
        /// The chunk the record claimed.
        chunk: u64,
        /// First non-finalized chunk index.
        next: u64,
    },
    /// Storage failure.
    Store(StoreError),
    /// Index failure.
    Index(IndexError),
    /// The queried window needs a fine-grained index node a rollup/decay
    /// aged out: not corruption — the region is only answerable at a
    /// coarser resolution.
    RangeDecayed {
        /// Tree level of the aged-out node.
        level: u8,
        /// Node index within that level.
        index: u64,
    },
    /// Integrity failure of an attestation or proof request (a rejected
    /// attestation, an unprovable range). Ingest keeps no ledger and never
    /// returns it.
    Integrity(String),
    /// No attestation stored for the stream yet.
    NoAttestation(u128),
    /// A service-tier component (e.g. a shard's node) is not
    /// available to process the request.
    Unavailable(&'static str),
    /// A mutation whose exchange failed after it may have reached the
    /// primary: it may have been applied, so it is not blindly sent again.
    Ambiguous,
    /// Another process's refusal, whole: its `Display` is the reason, so
    /// replies are byte-identical however the shards are placed.
    Refused(Refusal),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::NoSuchStream(s) => write!(f, "no such stream {s:#x}"),
            ServerError::StreamExists(s) => write!(f, "stream {s:#x} already exists"),
            ServerError::ZeroInterval => write!(f, "chunk interval must be at least 1 ms"),
            ServerError::OutOfOrderChunk { expected, got } => {
                write!(f, "out-of-order chunk: expected {expected}, got {got}")
            }
            ServerError::WidthMismatch { expected, got } => {
                write!(f, "digest width {got} != registered {expected}")
            }
            ServerError::EmptyRange => write!(f, "time range covers no complete chunk"),
            ServerError::IncompatibleStreams => {
                write!(f, "inter-stream query requires equal digest widths")
            }
            ServerError::BadChunk => write!(f, "malformed chunk bytes"),
            ServerError::BadRecord => write!(f, "malformed live record bytes"),
            ServerError::BadImport => write!(f, "import page out of order or not the stream's"),
            ServerError::StaleLiveRecord { chunk, next } => {
                write!(
                    f,
                    "live record for finalized chunk {chunk} (next open chunk is {next})"
                )
            }
            ServerError::Store(e) => write!(f, "storage: {e}"),
            ServerError::Index(e) => write!(f, "index: {e}"),
            ServerError::RangeDecayed { level, index } => {
                write!(
                    f,
                    "range aged out by decay (index node at level {level} \
                     index {index} aged out): only coarser aggregates remain; widen the query \
                     window or align it to the retained resolution"
                )
            }
            ServerError::Integrity(e) => write!(f, "integrity: {e}"),
            ServerError::NoAttestation(s) => {
                write!(f, "no attestation stored for stream {s:#x}")
            }
            ServerError::Unavailable(what) => write!(f, "service unavailable: {what}"),
            ServerError::Ambiguous => write!(
                f,
                "service unavailable: mutation outcome unknown: shard unreachable mid-exchange"
            ),
            ServerError::Refused(refusal) => f.write_str(&refusal.reason),
        }
    }
}

impl std::error::Error for ServerError {}

/// The refusal an error is answered with: the one map from an engine
/// error to a [`RefusalKind`], and its rendering as the reason.
impl From<ServerError> for Refusal {
    fn from(e: ServerError) -> Self {
        use {RefusalKind as K, ServerError as E};
        let kind = match e {
            E::Refused(refusal) => return refusal,
            E::NoSuchStream(_) => K::NoSuchStream,
            E::StreamExists(_) | E::OutOfOrderChunk { .. } => K::Conflict,
            E::StaleLiveRecord { .. } => K::Conflict,
            E::ZeroInterval | E::WidthMismatch { .. } | E::EmptyRange => K::BadRequest,
            E::IncompatibleStreams | E::BadChunk | E::BadRecord | E::BadImport => K::BadRequest,
            E::RangeDecayed { .. } | E::Integrity(_) | E::NoAttestation(_) => K::BadRequest,
            E::Store(StoreError::ReadOnly) => K::ReadOnly,
            E::Index(IndexError::Store(StoreError::ReadOnly)) => K::ReadOnly,
            E::Store(_) | E::Index(_) | E::Unavailable(_) => K::Unavailable,
            E::Ambiguous => K::Ambiguous,
        };
        Refusal::new(kind, e.to_string())
    }
}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        ServerError::Store(e)
    }
}

impl From<IndexError> for ServerError {
    fn from(e: IndexError) -> Self {
        match e {
            // A decayed region is a usage condition, not an index fault:
            // surface it distinctly so clients don't read it as data
            // corruption.
            IndexError::Decayed { level, index } => ServerError::RangeDecayed { level, index },
            e => ServerError::Index(e),
        }
    }
}

/// Buffered real-time records of one stream: per open chunk, the `(seq,
/// sealed bytes)` records received so far.
type LiveBuffer = BTreeMap<u64, Vec<(u32, Vec<u8>)>>;

/// A verified raw read: `(attestation bytes, open range-proof bytes, chunk
/// payloads)` — the reply shape of
/// [`TimeCryptServer::get_verified_range`].
pub type VerifiedRange = (Vec<u8>, Vec<u8>, Vec<Vec<u8>>);

/// Per-stream server state (the hydrated, resident part).
///
/// Read/write split: the registration metadata is immutable; the
/// aggregation tree is a shared handle whose queries run lock-free
/// against a published `len` snapshot; the integrity ledger sits behind
/// an `RwLock` (proof builders share it; one that finds it short of the
/// attested size extends it exclusively); and the stream's stripe
/// serializes the write path only. Statistical and raw reads therefore
/// never wait on an in-flight insert, and ingest never takes the ledger.
pub(crate) struct StreamState {
    meta: StreamMeta,
    /// Shared-read index: queries take `&self` and snapshot a consistent
    /// length; appends are serialized by the stream's stripe (and the
    /// index's own writer mutex). Holds the length, the last running sum
    /// and its life in the node's boundary cache, not the history.
    tree: AggTree,
    /// Integrity extension: the authenticated aggregation ledger over a
    /// prefix of the stream — a cache of its level-0 records, empty after
    /// hydration, extended only by [`TimeCryptServer::prove`].
    ledger: RwLock<StreamLedger>,
}

/// The server engine. Thread-safe with a per-stream read/write split:
/// writes (`insert`, `rollup`, `delete_range`, …) are serialized by the
/// stream's stripe (the paper's index updates are likewise
/// serialized per stream by append order), while statistical queries, raw
/// reads, and proof builds take only shared state — so any number of
/// readers proceed concurrently with each other *and* with an in-flight
/// insert on the same stream. Stream state is demand-loaded into a
/// bounded resident set ([`crate::residency`]); the crate docs spell out
/// which operation takes which lock.
pub struct TimeCryptServer {
    pub(crate) kv: Arc<dyn KvStore>,
    /// The node's boundary cache, which every stream's index reads through.
    cache: Arc<BoundaryCache>,
    /// Stream directory + resident set.
    pub(crate) residency: Residency,
    /// Each stream's one lock, taken before `registry`: held throughout by
    /// every call that changes the stream's records (its directory entry
    /// included), and by a cold touch while it opens and publishes it.
    pub(crate) stripes: Stripes<{ rank::STREAM }, Mutex<()>>,
    /// Real-time upload buffer (§4.6): per stream, per not-yet-finalized
    /// chunk, the sealed records received so far. Volatile by design — the
    /// durable copy is the finalized chunk that supersedes these records.
    live: Mutex<HashMap<u128, LiveBuffer>>,
}

/// The kind byte of a record that holds its chunk's payload.
const CHUNK: u8 = 1;

/// The kind byte of a stub: a record whose payload `delete_range` replaced
/// by its commitment.
const STUB: u8 = 2;

/// One chunk's stored record, decoded. The record is the index's level-0
/// record of the chunk's position: the stream's running sum through it
/// (`timecrypt_index::tree`, `8·width` bytes), a kind byte, then what the
/// server cannot re-derive — `CHUNK ‖ payload`, the validated ingest bytes
/// less their position and both lengths, or, the payload deleted, the
/// *stub* `STUB ‖ commitment[32]`, the commitment being SHA-256 of the chunk
/// as ingested, hashed when a full record is read back, never at ingest.
/// The width is the stream's registration and the payload's length the
/// record's own; the kind byte tells a stub from a 32-byte payload.
struct Record {
    index: u64,
    stored: Vec<u8>,
    /// Where the running sum ends in `stored`.
    sum_len: usize,
    /// The chunk's own digest: its running sum minus the one before.
    own: Vec<u64>,
    /// A stub's commitment.
    stub: Option<[u8; 32]>,
}

impl Record {
    /// Chunk `index` of a stream of digest width `width` from its stored
    /// bytes and the encoded running sum of the chunk before (none for
    /// chunk 0). Neither form: `CorruptNode` at level 0.
    fn decode(
        index: u64,
        width: u32,
        stored: Vec<u8>,
        before: Option<&[u8]>,
    ) -> Result<Record, IndexError> {
        let decoded = || {
            let width = Some(width as usize);
            let mut own = decode_sum(width, &stored)?;
            let sum_len = 8 * own.len();
            let stub = match stored[sum_len..].split_first()? {
                (&CHUNK, _) => None,
                (&STUB, commitment) => Some(commitment.try_into().ok()?),
                _ => return None,
            };
            let sub = |before| fold_sum(&mut own, width, before, u64::wrapping_sub);
            before.map_or(Some(()), sub)?;
            Some((own, sum_len, stub))
        };
        let corrupt = IndexError::CorruptNode { level: 0, index };
        let (own, sum_len, stub) = decoded().ok_or(corrupt)?;
        Ok(Record {
            index,
            stored,
            sum_len,
            own,
            stub,
        })
    }

    /// The chunk as ingested, serialized again from its position, its own
    /// digest and the payload its record holds.
    fn chunk(&self, stream: u128) -> Vec<u8> {
        let payload = &self.stored[self.sum_len + 1..];
        let mut chunk = Vec::new();
        EncryptedChunk::encode_parts(stream, self.index, &self.own, payload, &mut chunk);
        chunk
    }

    /// The chunk's commitment: a stub's, or that of the chunk as ingested.
    fn commitment(&self, stream: u128) -> [u8; 32] {
        (self.stub).unwrap_or_else(|| chunk_commitment(&self.chunk(stream)))
    }
}

impl TimeCryptServer {
    /// Opens the engine over a KV store, recovering all registered streams.
    /// Its boundary cache is its own, of `cfg.cache_bytes`.
    pub fn open(kv: Arc<dyn KvStore>, cfg: ServerConfig) -> Result<Self, ServerError> {
        let cache = Arc::new(BoundaryCache::new(cfg.cache_bytes));
        Self::open_filtered(kv, cfg, cache, |_| true)
    }

    /// Opens the engine recovering only streams accepted by `owns`, its
    /// indexes reading through `cache` (whose budget, not
    /// `cfg.cache_bytes`, bounds it). This is the per-shard constructor
    /// used by `timecrypt-service`: N engines can share one KV store and
    /// one cache as long as their filters partition the stream-id space,
    /// so each stream's state (index tree, ledger, live buffer) lives in
    /// exactly one engine.
    ///
    /// Opening replays *nothing*: one scan of the stream-meta prefix
    /// builds the directory, and per-stream state (tree handle, ledger)
    /// hydrates lazily on first touch. Open cost is therefore
    /// O(registered streams' meta records), independent of history size —
    /// pinned by the `lazy_open` regression test.
    pub fn open_filtered(
        kv: Arc<dyn KvStore>,
        cfg: ServerConfig,
        cache: Arc<BoundaryCache>,
        owns: impl Fn(u128) -> bool,
    ) -> Result<Self, ServerError> {
        Ok(TimeCryptServer {
            residency: Residency::open(kv.as_ref(), cfg.max_resident_streams, owns)?,
            kv,
            cache,
            stripes: Stripes::default(),
            live: Mutex::new(HashMap::new()),
        })
    }

    /// Registers a stream. Registration writes the durable meta record and
    /// then the directory entry; the stream's state hydrates on first use.
    /// A chunk interval of zero is refused ([`ServerError::ZeroInterval`]):
    /// every windowed read divides by it. The stream's stripe orders it
    /// with a racing creation or deletion of the id; resident hits go on
    /// meanwhile. A refused creation of a registered stream leaves its
    /// state alone.
    pub fn create_stream(
        &self,
        stream: u128,
        t0: i64,
        delta_ms: u64,
        digest_width: u32,
    ) -> Result<(), ServerError> {
        let delta_ms = NonZeroU64::new(delta_ms).ok_or(ServerError::ZeroInterval)?;
        let meta = StreamMeta {
            grid: ChunkGrid { t0, delta_ms },
            digest_width,
        };
        let _stripe = self.stripes.lock(stream, Mutex::lock);
        if self.residency.meta(stream).is_ok() {
            return Err(ServerError::StreamExists(stream));
        }
        self.kv.put(&keys::meta(stream), &meta.encode())?;
        self.residency.register(stream, meta);
        Ok(())
    }

    /// Deletes a stream with every record it owns, in one store batch: a
    /// crash leaves the stream whole or gone. A deletion is the import of an
    /// empty last page ([`import_stream`](Self::import_stream)), so a writer
    /// of the stream committed before the batch's keys were read or finds
    /// the stream gone.
    pub fn delete_stream(&self, stream: u128) -> Result<(), ServerError> {
        let _stripe = self.stripes.lock(stream, Mutex::lock);
        self.residency.meta(stream)?;
        self.import_locked(stream, &[], &[], true).map(drop)
    }

    /// The keys `stream` owns after `after`, ascending: its heads in key
    /// order, each read from the store [`SCAN_KEYS`] at a time from the
    /// cursor on as the iterator is drawn.
    fn keys_from<'a>(
        &'a self,
        stream: u128,
        after: &[u8],
    ) -> impl Iterator<Item = Result<Vec<u8>, ServerError>> + 'a {
        let mut heads = keys::of_stream(stream).into_iter();
        let mut head = heads.next();
        let (mut cursor, mut scanned) = (after.to_vec(), Vec::new().into_iter());
        std::iter::from_fn(move || loop {
            if let Some(key) = scanned.next() {
                cursor.clone_from(&key);
                return Some(Ok(key));
            }
            match self.kv.scan_keys_after(head.as_ref()?, &cursor, SCAN_KEYS) {
                Ok(keys) => {
                    if keys.len() < SCAN_KEYS {
                        head = heads.next();
                    }
                    scanned = keys.into_iter();
                }
                Err(e) => {
                    head = None;
                    return Some(Err(e.into()));
                }
            }
        })
    }

    /// The stream's resident state, opened from the store on a cold touch.
    ///
    /// Single flight: a cold touch takes the stream's stripe and resolves
    /// the stream under it, so the touches queued behind it take the hit.
    /// Resident hits proceed meanwhile, and the stripe may block
    /// (`rank::ORDER` says why).
    pub(crate) fn stream(&self, stream: u128) -> Result<Arc<StreamState>, ServerError> {
        if let Some(st) = self.residency.touch(stream)? {
            return Ok(st);
        }
        let _stripe = self.stripes.lock(stream, Mutex::lock);
        self.resolve(stream)
    }

    /// Under `stream`'s stripe: its resident state, or else the stream
    /// opened with no registry lock held and published.
    fn resolve(&self, stream: u128) -> Result<Arc<StreamState>, ServerError> {
        if let Some(st) = self.residency.touch(stream)? {
            return Ok(st);
        }
        let st = Arc::new(self.hydrate(stream, self.residency.meta(stream)?)?);
        self.residency.publish(stream, st.clone());
        Ok(st)
    }

    /// Builds one stream's resident state: the tree handle (its bounded
    /// open) around an empty ledger. Runs outside the registry lock, under
    /// the stream's stripe.
    fn hydrate(&self, stream: u128, meta: StreamMeta) -> Result<StreamState, ServerError> {
        let _stage = trace::stage(Stage::EngineHydrate);
        let width = meta.digest_width as usize;
        Ok(StreamState {
            meta,
            tree: AggTree::open_with(self.kv.clone(), stream, &self.cache, width)?,
            ledger: RwLock::new(StreamLedger::new(stream)),
        })
    }

    /// The stream's published chunk count without forcing hydration: a
    /// resident stream answers from its tree handle (stamped as touched),
    /// a cold one from the index's level-0 keys — a few key probes.
    fn stream_len(&self, stream: u128) -> Result<u64, ServerError> {
        match self.residency.touch(stream)? {
            Some(st) => Ok(st.tree.len()),
            None => Ok(stored_chunk_count(self.kv.as_ref(), stream)?),
        }
    }

    /// Ingests one sealed chunk: one record that holds the payload blob and
    /// puts the digest ciphertext into the aggregation index. A convenience
    /// over the one ingest path: the chunk is serialized here, once, and enters
    /// [`insert_bytes_run`](Self::insert_bytes_run) like any wire chunk.
    pub fn insert(&self, chunk: &EncryptedChunk) -> Result<(), ServerError> {
        self.insert_bytes(&chunk.to_bytes())
    }

    /// Single-chunk ingest from serialized bytes: the length-1 call of
    /// [`insert_bytes_run`](Self::insert_bytes_run).
    pub fn insert_bytes(&self, bytes: &[u8]) -> Result<(), ServerError> {
        self.insert_bytes_run(&[bytes]).into_iter().collect()
    }

    /// The engine's one ingest implementation: a batch of serialized
    /// chunks, any stream mix (per-stream order is the caller's submission
    /// order), verdicts in input order. The batch is split by stream
    /// ([`Runs`]): unparseable entries report [`ServerError::BadChunk`] at
    /// their position, and each stream's chunks form one run — one hold of
    /// the stream's stripe and one store commit, whether the batch is a
    /// shard's whole share of a client upload or a single chunk. Each
    /// chunk's digest and payload are stored straight from the input bytes
    /// through a borrowed parse — the serialization is canonical (see
    /// [`timecrypt_chunk::ChunkRef`]), so the chunk as ingested is what a
    /// raw read serializes again, and nothing is copied through an
    /// intermediate `EncryptedChunk`. A run that panics fails its own
    /// chunks (`Unavailable`) and no other stream's.
    pub fn insert_bytes_run(&self, chunks: &[&[u8]]) -> Vec<Result<(), ServerError>> {
        let runs = Runs::split(chunks, |chunk| chunk.stream);
        runs.verdicts(runs.iter().map(|(stream, run)| {
            // Panic containment is per stream run: a poisoned stream must
            // not make chunks of *other* streams — possibly already
            // durably committed by their own runs — report failure, or a
            // replica mirror would skip writes the primary actually holds.
            let ingest = || self.insert_stream_run(stream, run);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(ingest)).unwrap_or_else(|_| {
                let panicked = |_| Err(ServerError::Unavailable("shard engine panicked"));
                run.iter().map(panicked).collect()
            })
        }))
    }

    /// One stream's ordered ingest run under one hold of its stripe.
    /// Per-chunk semantics are those of chunk-at-a-time
    /// ingest: width and next-index validation per chunk (a rejected
    /// chunk does not advance the expected index). The accepted chunks
    /// then commit as **one** store batch — one level-0 record each,
    /// through `AggTree::append_records` — followed by the live-buffer
    /// cleanup. If the commit fails — a store fault, not a
    /// validation outcome — nothing of the run was stored or published:
    /// the first accepted chunk reports the real error, the rest report
    /// `Unavailable`.
    fn insert_stream_run<'a>(
        &self,
        stream: u128,
        items: &[&'a [u8]],
    ) -> Vec<Result<(), ServerError>> {
        // The stream's stripe serializes writers only. Concurrent
        // statistical/raw reads proceed against the previous tree-length
        // snapshot.
        let _stripe = self.stripes.lock(stream, Mutex::lock);
        let unknown = |_| Err(ServerError::NoSuchStream(stream));
        let Ok(st) = self.resolve(stream) else {
            return items.iter().map(unknown).collect();
        };
        let base = st.tree.len();
        let mut expected = base;
        // The level-0 record of each accepted chunk, in run order, as the
        // pieces the index lays end to end: `digest ‖ CHUNK ‖ payload`.
        let mut records: Vec<[&[u8]; 3]> = Vec::with_capacity(items.len());
        let validate = |bytes: &&'a [u8]| {
            let chunk = ChunkRef::parse(bytes).map_err(|_| ServerError::BadChunk)?;
            let got = chunk.digest_ct.len() as u32;
            if got != st.meta.digest_width {
                let expected = st.meta.digest_width;
                return Err(ServerError::WidthMismatch { expected, got });
            }
            if chunk.index != expected {
                let got = chunk.index;
                return Err(ServerError::OutOfOrderChunk { expected, got });
            }
            records.push([chunk.digest_ct.as_bytes(), &[CHUNK], chunk.payload]);
            expected += 1;
            Ok(())
        };
        let mut verdicts: Vec<_> = items.iter().map(validate).collect();
        if let Err(e) = st.tree.append_records(&records) {
            let mut first = Some(ServerError::from(e));
            for verdict in verdicts.iter_mut().filter(|v| v.is_ok()) {
                *verdict = Err(first.take().unwrap_or(ServerError::Unavailable(
                    "the store commit failed for an earlier chunk of this run",
                )));
            }
        } else if let Some(buf) = self.live.lock().get_mut(&stream) {
            // The finalized chunks supersede their real-time records
            // (§4.6 "dropping the encrypted records once the
            // corresponding chunk is stored").
            for index in base..expected {
                buf.remove(&index);
            }
        }
        verdicts
    }

    /// Buffers one real-time record (§4.6). The record must target a chunk
    /// that has not been finalized yet; its ciphertext is opaque to the
    /// server.
    pub fn insert_live(&self, record: &SealedRecord) -> Result<(), ServerError> {
        // Staleness check against the published chunk count — answered
        // from the resident tree or the index's level-0 keys, never by
        // forcing a hydration (live records are the hot real-time path).
        let next = self.stream_len(record.stream)?;
        if record.chunk < next {
            return Err(ServerError::StaleLiveRecord {
                chunk: record.chunk,
                next,
            });
        }
        self.live
            .lock()
            .entry(record.stream)
            .or_default()
            .entry(record.chunk)
            .or_default()
            .push((record.seq, record.to_bytes()));
        Ok(())
    }

    /// Returns buffered live records whose chunk interval overlaps
    /// `[ts_s, ts_e)`, in (chunk, seq) order. Only records of chunks not
    /// yet finalized exist in the buffer, so the result never overlaps
    /// [`get_range`](Self::get_range).
    pub fn get_live(
        &self,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<Vec<u8>>, ServerError> {
        let meta = self.residency.meta(stream)?;
        if ts_e <= ts_s {
            return Err(ServerError::EmptyRange);
        }
        let Some((first, end)) = meta.grid.containing(ts_s, ts_e) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        if let Some(buf) = self.live.lock().get(&stream) {
            for (_, recs) in buf.range(first..end) {
                let mut recs = recs.clone();
                recs.sort_by_key(|(seq, _)| *seq);
                out.extend(recs.into_iter().map(|(_, bytes)| bytes));
            }
        }
        Ok(out)
    }

    /// Number of buffered live records for a stream (diagnostics/tests).
    pub fn live_len(&self, stream: u128) -> usize {
        self.live
            .lock()
            .get(&stream)
            .map(|buf| buf.values().map(Vec::len).sum())
            .unwrap_or(0)
    }

    /// Stores the owner's signed root attestation (integrity extension).
    /// Opaque except for a minimal sanity parse: the stream must match and
    /// the epoch must not regress relative to the stored attestation — a
    /// check and a put made under the stream's stripe, so of two racing
    /// attestations the later epoch is the one stored.
    pub fn put_attestation(&self, stream: u128, bytes: &[u8]) -> Result<(), ServerError> {
        let _ = self.residency.meta(stream)?;
        let att = RootAttestation::decode(bytes)
            .ok_or(ServerError::Integrity("malformed attestation".into()))?;
        if att.stream != stream {
            return Err(ServerError::Integrity("attestation stream mismatch".into()));
        }
        let _stripe = self.stripes.lock(stream, Mutex::lock);
        if let Some(prev) = self.kv.get(&keys::attestation(stream))? {
            if let Some(prev) = RootAttestation::decode(&prev) {
                if att.epoch < prev.epoch {
                    return Err(ServerError::Integrity(
                        "attestation epoch regression".into(),
                    ));
                }
            }
        }
        self.kv.put(&keys::attestation(stream), bytes)?;
        Ok(())
    }

    /// The latest stored attestation for a stream.
    pub fn get_attestation(&self, stream: u128) -> Result<Vec<u8>, ServerError> {
        let _ = self.residency.meta(stream)?;
        self.kv
            .get(&keys::attestation(stream))?
            .ok_or(ServerError::NoAttestation(stream))
    }

    /// The one decoder of `stream`'s stored records, its digests `width`
    /// words: chunks `lo..hi` in order, each with its own digest — its
    /// running sum minus the one before, for chunk `lo` that of record
    /// `lo − 1`, read first. Raw reads, the ledger's catch-up and
    /// `delete_range` all read through here; none hydrates the stream. The
    /// first error ends it.
    fn records(
        &self,
        stream: u128,
        width: u32,
        lo: u64,
        hi: u64,
    ) -> impl Iterator<Item = Result<Record, IndexError>> + '_ {
        let (mut next, mut before) = (lo.saturating_sub(1), None::<Vec<u8>>);
        std::iter::from_fn(move || {
            while next < hi {
                let index = next;
                next += 1;
                let stored = leaf_record(self.kv.as_ref(), stream, index);
                let before_sum = before.as_deref();
                match stored.and_then(|stored| Record::decode(index, width, stored, before_sum)) {
                    Ok(record) => {
                        let sum = &record.stored[..record.sum_len];
                        let before = before.get_or_insert_with(Vec::new);
                        before.clear();
                        before.extend_from_slice(sum);
                        if index >= lo {
                            return Some(Ok(record));
                        }
                    }
                    Err(e) => {
                        next = hi;
                        return Some(Err(e));
                    }
                }
            }
            None
        })
    }

    /// The one path of both proof builders: the latest attestation and the
    /// range proof against it (`open`ing every in-range leaf or not) for
    /// the chunks of `window` that are both stored and attested, as
    /// `(attestation bytes, proof bytes, lo, hi)`. What the ledger is short
    /// of the attested size — everything on first use, what ingest added
    /// since on later ones — is read back from the level-0 records here; an
    /// attestation ahead of the stored stream is refused before any read.
    fn prove(
        &self,
        stream: u128,
        open: bool,
        window: impl FnOnce(&StreamMeta) -> Option<(u64, u64)>,
    ) -> Result<(Vec<u8>, Vec<u8>, u64, u64), ServerError> {
        let att_bytes = self.get_attestation(stream)?;
        let att = RootAttestation::decode(&att_bytes)
            .ok_or(ServerError::Integrity("stored attestation corrupt".into()))?;
        let st = self.stream(stream)?;
        let (lo, hi) = window(&st.meta).ok_or(ServerError::EmptyRange)?;
        let hi = hi.min(st.tree.len()).min(att.size);
        if lo >= hi {
            return Err(ServerError::EmptyRange);
        }
        if att.size > st.tree.len() {
            return Err(ServerError::Integrity(
                "attestation covers chunks this server does not hold".into(),
            ));
        }
        if (st.ledger.read().len() as u64) < att.size {
            let mut ledger = st.ledger.write();
            let width = st.meta.digest_width;
            for record in self.records(stream, width, ledger.len() as u64, att.size) {
                let record = record?;
                let corrupt = IndexError::CorruptNode {
                    level: 0,
                    index: record.index,
                };
                let bytes = record.stored.len() as u64;
                // The ledger refuses a digest of another width than its first.
                let appended = ledger.append(record.commitment(stream), record.own);
                appended.map_err(|_| corrupt)?;
                counters::LEDGER_LEAVES.inc();
                counters::LEDGER_BYTES.add(bytes);
            }
        }
        // Proof builders share the ledger; only a catch-up excludes them.
        let ledger = st.ledger.read();
        let (from, to, size) = (lo as usize, hi as usize, att.size as usize);
        let proof = ledger.prove_range(from, to, size, open);
        let proof = proof.map_err(|e| ServerError::Integrity(e.to_string()))?;
        Ok((att_bytes, proof.encode(), lo, hi))
    }

    /// Builds an authenticated range proof for `[ts_s, ts_e)` against the
    /// latest attestation and returns `(attestation bytes, proof bytes)`.
    /// The proof's chunk window is clamped to the attested size: chunks
    /// uploaded after the last attestation are not yet provable.
    pub fn get_range_proof(
        &self,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<(Vec<u8>, Vec<u8>), ServerError> {
        let (attestation, proof, ..) =
            self.prove(stream, false, |meta| Some(meta.grid.within(ts_s, ts_e)))?;
        Ok((attestation, proof))
    }

    /// Chunks `lo..hi` of `stream` exactly as ingested, `None` where
    /// `delete_range` left a stub: every raw read.
    fn stored_chunks(
        &self,
        stream: u128,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<Option<Vec<u8>>>, ServerError> {
        let width = self.residency.meta(stream)?.digest_width;
        let chunk = |record: Record| record.stub.is_none().then(|| record.chunk(stream));
        let chunks = self
            .records(stream, width, lo, hi)
            .map(|record| record.map(chunk));
        Ok(chunks.collect::<Result<_, _>>()?)
    }

    /// Raw range retrieval: the chunks overlapping `[ts_s, ts_e)`, as ingested.
    pub fn get_range(
        &self,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<Vec<u8>>, ServerError> {
        // No hydrated state needed: chunk-window math comes from the
        // directory, the length from `stream_len`.
        let meta = self.residency.meta(stream)?;
        if ts_e <= ts_s {
            return Err(ServerError::EmptyRange);
        }
        let len = self.stream_len(stream)?;
        let (first, end) = meta
            .grid
            .containing(ts_s, ts_e)
            .ok_or(ServerError::EmptyRange)?;
        let end = end.min(len);
        if first >= end {
            return Ok(Vec::new());
        }
        let chunks = self.stored_chunks(stream, first, end)?;
        Ok(chunks.into_iter().flatten().collect())
    }

    /// One stream's contribution to a statistical range query: its digest
    /// width plus, if the range covers at least one full chunk, the chunk
    /// window and the homomorphic sum over it. `None` means the range is
    /// empty for this stream (the caller decides whether that is an error).
    ///
    /// [`stat::fold`] reads it, stream by stream, for
    /// [`stat_leg`](Self::stat_leg) and [`get_stat_range`](Self::get_stat_range).
    ///
    /// Takes no exclusive lock: any number of concurrent `stream_stat`
    /// calls proceed against each other and against an in-flight `insert`
    /// on the same stream, answering for the chunk prefix published when
    /// the call began.
    pub fn stream_stat(
        &self,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StreamStat, ServerError> {
        let st = self.stream(stream)?;
        let (lo, hi) = st.meta.grid.within(ts_s, ts_e);
        let hi = hi.min(st.tree.len());
        if lo >= hi {
            return Ok((st.meta.digest_width, None));
        }
        let part = st.tree.query(lo, hi)?;
        Ok((st.meta.digest_width, Some((lo, hi, part))))
    }

    /// `streams` folded in request order up to the first that stops the
    /// fold: a shard's leg of a scatter-gather query.
    pub fn stat_leg(&self, streams: &[u128], ts_s: i64, ts_e: i64) -> StatLeg {
        stat::fold(streams.iter().map(|&sid| self.stream_stat(sid, ts_s, ts_e)))
    }

    /// Statistical query over one or more streams: the homomorphic sum of
    /// all chunk digests fully inside `[ts_s, ts_e)`, per stream, combined.
    /// Returns the per-stream chunk boundaries (the client needs them to
    /// derive boundary keys) and the combined aggregate.
    pub fn get_stat_range(
        &self,
        streams: &[u128],
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StatReply, ServerError> {
        stat::reply(self.stat_leg(streams, ts_s, ts_e), streams)
    }

    /// Deletes raw chunk payloads in `[ts_s, ts_e)` while keeping digests
    /// in the index (Table 1 (7): "while maintaining per-chunk digest"):
    /// one store batch turns each full record of the range into its stub,
    /// its running sum kept. Returns how many; a range of stubs writes
    /// nothing.
    pub fn delete_range(&self, stream: u128, ts_s: i64, ts_e: i64) -> Result<usize, ServerError> {
        // Deletion is a writer: keep it serialized with inserts/rollups.
        let _stripe = self.stripes.lock(stream, Mutex::lock);
        let st = self.resolve(stream)?;
        let (lo, hi) = st.meta.grid.within(ts_s, ts_e);
        let hi = hi.min(st.tree.len());
        let mut stubs = Vec::new();
        for record in self.records(stream, st.meta.digest_width, lo, hi) {
            let record = record?;
            if record.stub.is_none() {
                let mut stub = record.stored[..record.sum_len].to_vec();
                stub.push(STUB);
                stub.extend_from_slice(&record.commitment(stream));
                stubs.push((record.index, stub));
            }
        }
        Ok(st.tree.retag(&stubs)?)
    }

    /// Data decay: ages out index levels below `keep_level` for chunks
    /// before `before_ts` (§4.5 data decay / Table 1 (3) rollup).
    pub fn rollup(
        &self,
        stream: u128,
        before_ts: i64,
        keep_level: u8,
    ) -> Result<usize, ServerError> {
        let _stripe = self.stripes.lock(stream, Mutex::lock);
        let st = self.resolve(stream)?;
        // The chunks wholly before `before_ts`.
        let (_, cutoff) = st.meta.grid.within(i64::MIN, before_ts);
        let cutoff = cutoff.min(st.tree.len());
        Ok(st.tree.decay(cutoff, keep_level)?)
    }

    /// Verified raw retrieval (integrity extension): the chunks overlapping
    /// `[ts_s, ts_e)` plus an *open* range proof binding each chunk's
    /// commitment to the latest attestation. The window is clamped to the
    /// attested size. Errors if any covered chunk payload was deleted —
    /// completeness of raw data cannot be proven once payloads decay.
    pub fn get_verified_range(
        &self,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<VerifiedRange, ServerError> {
        // Raw reads cover every chunk *overlapping* the interval, matching
        // get_range's semantics (not only fully-contained chunks).
        let (attestation, proof, lo, hi) =
            self.prove(stream, true, |meta| meta.grid.containing(ts_s, ts_e))?;
        let deleted =
            || ServerError::Integrity("chunk payload deleted; raw completeness unprovable".into());
        let chunks = self.stored_chunks(stream, lo, hi)?.into_iter();
        let chunks = chunks.map(|chunk| chunk.ok_or_else(deleted));
        Ok((attestation, proof, chunks.collect::<Result<_, _>>()?))
    }

    /// Stream metadata. Opens no state: directory entry plus the published
    /// chunk count (resident tree or the index's level-0 keys).
    pub fn stream_info(&self, stream: u128) -> Result<StreamInfoWire, ServerError> {
        let meta = self.residency.meta(stream)?;
        let len = self.stream_len(stream)?;
        Ok(StreamInfoWire {
            stream,
            t0: meta.grid.t0,
            delta_ms: meta.grid.delta_ms.get(),
            digest_width: meta.digest_width,
            len,
        })
    }

    /// One page of `stream`'s records after key `after`, in key order: at most
    /// `max_bytes` of them but at least one, `true` when it holds the last.
    /// Its keys are read from the cursor on, so a page costs what it holds,
    /// wherever it starts.
    pub fn export_stream(
        &self,
        stream: u128,
        after: &[u8],
        max_bytes: usize,
    ) -> Result<(KvPairs, bool), ServerError> {
        let (mut page, mut bytes) = (Vec::new(), 0);
        for key in self.keys_from(stream, after) {
            let key = key?;
            // A key deleted since the scan is not the stream's any more.
            let Some(value) = self.kv.get(&key)? else {
                continue;
            };
            bytes += key.len() + value.len();
            if bytes > max_bytes && !page.is_empty() {
                return Ok((page, false));
            }
            page.push((key, value));
        }
        Ok((page, true))
    }

    /// Makes `stream`'s records in the page's key interval — `(after, last
    /// key]`, everything after `after` when `done` — equal to `records`, in
    /// one store batch: the replica's side of an export page. A last page
    /// without the registration record (the largest key) is a gone stream:
    /// its interval is the whole stream. Refused unless the keys ascend
    /// after `after` and are the stream's. Returns the chunks it wrote; a
    /// page the store held already costs reads alone.
    pub fn import_stream(
        &self,
        stream: u128,
        after: &[u8],
        records: &[(Vec<u8>, Vec<u8>)],
        done: bool,
    ) -> Result<u64, ServerError> {
        let heads = keys::of_stream(stream);
        let mut last = after;
        for (key, _) in records {
            if key.as_slice() <= last || !heads.iter().any(|head| key.starts_with(head)) {
                return Err(ServerError::BadImport);
            }
            last = key;
        }
        let _stripe = self.stripes.lock(stream, Mutex::lock);
        self.import_locked(stream, after, records, done)
    }

    /// [`import_stream`](Self::import_stream) under the stream's stripe.
    /// What the page changes is read first; only if it changes anything is
    /// the resident state dropped and the changes written. The directory
    /// entry goes before the records (and comes back if their write
    /// fails), comes after them.
    fn import_locked(
        &self,
        stream: u128,
        after: &[u8],
        records: &[(Vec<u8>, Vec<u8>)],
        done: bool,
    ) -> Result<u64, ServerError> {
        let meta_key = keys::meta(stream);
        let meta = records.last().filter(|(key, _)| *key == meta_key);
        let from: &[u8] = if done && meta.is_none() { &[] } else { after };
        let last = records.last().map_or(after, |(key, _)| key);
        let end = (!done).then_some(last);
        let (stale, puts) = self.page_writes(stream, from, end, records)?;
        if stale.is_empty() && puts.is_empty() {
            return Ok(0);
        }
        let _dropped = self.residency.remove(stream);
        let mut ops: Vec<_> = stale.iter().map(|key| WriteOp::Delete { key }).collect();
        ops.extend(puts.iter().map(|(key, value)| WriteOp::Put { key, value }));
        let chunks = puts.iter().filter(|(key, _)| key.starts_with(keys::LEAF));
        let chunks = chunks.count() as u64;
        // `Some` when the page says whether the stream is registered.
        let covered =
            meta_key.as_slice() > from && end.is_none_or(|end| meta_key.as_slice() <= end);
        let registered = covered.then(|| meta.and_then(|(_, v)| StreamMeta::decode(v)));
        let unregistered = match registered {
            Some(None) => {
                let live = self.live.lock().remove(&stream);
                self.residency.unregister(stream).map(|meta| (meta, live))
            }
            _ => None,
        };
        if let Err(e) = self.kv.write_batch(&ops) {
            if let Some((meta, live)) = unregistered {
                self.residency.register(stream, meta);
                self.live.lock().extend(live.map(|live| (stream, live)));
            }
            return Err(e.into());
        }
        if let Some(Some(meta)) = registered {
            self.residency.register(stream, meta);
        }
        Ok(chunks)
    }

    /// What makes `stream`'s records after `from` — through `end`, when
    /// given — equal to `records`: the keys to delete, and the records the
    /// store does not hold as they are.
    fn page_writes<'p>(
        &self,
        stream: u128,
        from: &[u8],
        end: Option<&[u8]>,
        records: &'p [(Vec<u8>, Vec<u8>)],
    ) -> Result<PageWrites<'p>, ServerError> {
        let mut stale = Vec::new();
        for key in self.keys_from(stream, from) {
            let key = key?;
            if end.is_some_and(|end| key.as_slice() > end) {
                break;
            }
            if records.binary_search_by(|(k, _)| k.cmp(&key)).is_err() {
                stale.push(key);
            }
        }
        let mut puts = Vec::new();
        for record in records {
            if self.kv.get(&record.0)?.as_ref() != Some(&record.1) {
                puts.push(record);
            }
        }
        Ok((stale, puts))
    }

    /// Underlying store (diagnostics, size accounting in benches).
    pub fn kv(&self) -> &Arc<dyn KvStore> {
        &self.kv
    }
}

impl TimeCryptServer {
    /// The engine's single request dispatch, over the borrowed view both
    /// [`Handler`] entry points produce: chunk bytes go from the caller's
    /// buffer (the frame, on the wire path) straight to
    /// [`insert_bytes_run`](Self::insert_bytes_run), a live record to
    /// [`insert_live`](Self::insert_live) ([`ingest_reply`] renders the
    /// reply); every other variant continues in
    /// [`dispatch_unborrowed`](Self::dispatch_unborrowed).
    fn dispatch(&self, req: RequestRef<'_>) -> Response {
        let live = |record: &[u8]| {
            let record = SealedRecord::from_bytes(record).map_err(|_| ServerError::BadRecord)?;
            self.insert_live(&record)
        };
        ingest_reply(req, |chunks| self.insert_bytes_run(chunks), live)
            .unwrap_or_else(|req| self.dispatch_unborrowed(req))
    }

    /// The arms of [`dispatch`](Self::dispatch) for requests that carry
    /// no bulk payload.
    fn dispatch_unborrowed(&self, req: Request) -> Response {
        fn ok_or<T, E: Into<ServerError>>(
            r: Result<T, E>,
            f: impl FnOnce(T) -> Response,
        ) -> Response {
            r.map_or_else(|e| Response::Error(e.into().into()), f)
        }
        fn acked<T>(_: T) -> Response {
            Response::Ok
        }
        match req {
            // `RequestRef` carries ingest requests borrowed; one that was
            // wrapped owned re-enters through its view.
            Request::Insert { .. } | Request::InsertLive { .. } | Request::InsertBatch { .. } => {
                req.with_ref(|view| self.dispatch(view))
            }
            Request::CreateStream {
                stream,
                t0,
                delta_ms,
                digest_width,
            } => ok_or(
                self.create_stream(stream, t0, delta_ms, digest_width),
                acked,
            ),
            Request::DeleteStream { stream } => ok_or(self.delete_stream(stream), acked),
            Request::GetLive { stream, ts_s, ts_e } => {
                ok_or(self.get_live(stream, ts_s, ts_e), Response::Records)
            }
            Request::GetRange { stream, ts_s, ts_e } => {
                ok_or(self.get_range(stream, ts_s, ts_e), Response::Chunks)
            }
            Request::GetStatRange {
                streams,
                ts_s,
                ts_e,
            } => ok_or(self.get_stat_range(&streams, ts_s, ts_e), Response::Stat),
            Request::GetStatLeg {
                streams,
                ts_s,
                ts_e,
            } => Response::StatLeg(self.stat_leg(&streams, ts_s, ts_e)),
            Request::DeleteRange { stream, ts_s, ts_e } => {
                ok_or(self.delete_range(stream, ts_s, ts_e), acked)
            }
            Request::Rollup {
                stream,
                before_ts,
                keep_level,
            } => ok_or(self.rollup(stream, before_ts, keep_level), acked),
            Request::StreamInfo { stream } => ok_or(self.stream_info(stream), Response::Info),
            Request::PutGrant {
                stream,
                principal,
                blob,
            } => ok_or(self.put_grant(stream, &principal, &blob), acked),
            Request::GetGrants { stream, principal } => {
                ok_or(self.get_grants(stream, &principal), Response::Blobs)
            }
            Request::RevokeGrants { stream, principal } => {
                ok_or(self.revoke_grants(stream, &principal), acked)
            }
            Request::PutEnvelopes {
                stream,
                resolution,
                envelopes,
            } => ok_or(self.put_envelopes(stream, resolution, &envelopes), acked),
            Request::GetEnvelopes {
                stream,
                resolution,
                lo,
                hi,
            } => ok_or(
                self.get_envelopes(stream, resolution, lo, hi),
                Response::Envelopes,
            ),
            Request::PutAttestation {
                stream,
                attestation,
            } => ok_or(self.put_attestation(stream, &attestation), acked),
            Request::GetAttestation { stream } => {
                ok_or(self.get_attestation(stream), |a| Response::Blobs(vec![a]))
            }
            Request::GetRangeProof { stream, ts_s, ts_e } => ok_or(
                self.get_range_proof(stream, ts_s, ts_e),
                |(attestation, proof)| Response::Attested { attestation, proof },
            ),
            Request::GetVerifiedRange { stream, ts_s, ts_e } => ok_or(
                self.get_verified_range(stream, ts_s, ts_e),
                |(attestation, proof, chunks)| Response::VerifiedChunks {
                    attestation,
                    proof,
                    chunks,
                },
            ),
            Request::Stats => Response::Error(Refusal::new(
                RefusalKind::Unavailable,
                "service stats unavailable: single-engine deployment",
            )),
            // A single engine owns every stream: the shard id is a routing
            // concept of the service tier, so it is ignored here.
            Request::ListStreams { .. } => Response::StreamList(self.stream_ids()),
            Request::ExportStream { stream, after } => ok_or(
                self.export_stream(stream, &after, EXPORT_PAGE_BYTES),
                |(records, done)| Response::StreamChunks { records, done },
            ),
            Request::ImportStream {
                stream,
                after,
                records,
                done,
            } => ok_or(
                self.import_stream(stream, &after, &records, done),
                Response::Imported,
            ),
            Request::Ping => Response::Pong,
        }
    }
}

impl Handler for TimeCryptServer {
    fn handle(&self, req: Request) -> Response {
        req.with_ref(|view| self.dispatch(view))
    }

    fn handle_frame(&self, body: &[u8]) -> Response {
        dispatch_frame(body, |view| self.dispatch(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_chunk::{ChunkBuilder, DataPoint, StreamConfig};
    use timecrypt_core::heac::decrypt_range_sum;
    use timecrypt_core::StreamKeyMaterial;
    use timecrypt_crypto::{PrgKind, SecureRandom};
    use timecrypt_obs::rank::stripe;
    use timecrypt_store::MemKv;

    fn server() -> TimeCryptServer {
        TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap()
    }

    fn keys() -> StreamKeyMaterial {
        StreamKeyMaterial::with_params(1, [7u8; 16], 24, PrgKind::Aes).unwrap()
    }

    /// Ingests `n` chunks of 10 points each into stream 1 (Δ=10 s, t0=0),
    /// point value = chunk*10 + i.
    fn ingest(server: &TimeCryptServer, n: u64) -> StreamConfig {
        let cfg = StreamConfig::new(1, "hr", 0, 10_000);
        let km = keys();
        let mut rng = SecureRandom::from_seed_insecure(3);
        server
            .create_stream(1, 0, 10_000, cfg.schema.width() as u32)
            .unwrap();
        let (mut builder, mut done) = (ChunkBuilder::new(cfg.clone()), Vec::new());
        for c in 0..n {
            for i in 0..10 {
                let ts = c as i64 * 10_000 + i * 1000;
                let p = DataPoint::new(ts, (c * 10 + i as u64) as i64);
                builder.push(p, &mut done).unwrap();
                for done in done.drain(..) {
                    server
                        .insert(&done.seal(&cfg, &km, &mut rng).unwrap())
                        .unwrap();
                }
            }
        }
        if let Some(tail) = builder.flush() {
            server
                .insert(&tail.seal(&cfg, &km, &mut rng).unwrap())
                .unwrap();
        }
        cfg
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let s = server();
        let cfg = ingest(&s, 10);
        let reply = s.get_stat_range(&[1], 0, 100_000).unwrap();
        assert_eq!(reply.parts, vec![(1, 0, 10)]);
        let dec = decrypt_range_sum(&keys().tree, 0, 10, &reply.agg).unwrap();
        let summary = cfg.schema.interpret(&dec);
        // Values are 0..100.
        assert_eq!(summary.sum, Some((0..100i64).sum::<i64>()));
        assert_eq!(summary.count, Some(100));
    }

    #[test]
    fn partial_time_window_aligns_to_chunks() {
        let s = server();
        ingest(&s, 10);
        // [15s, 35s): only chunk 2 ([20s,30s)) is fully inside.
        let reply = s.get_stat_range(&[1], 15_000, 35_000).unwrap();
        assert_eq!(reply.parts, vec![(1, 2, 3)]);
    }

    #[test]
    fn duplicate_stream_rejected() {
        let s = server();
        s.create_stream(1, 0, 1000, 2).unwrap();
        assert!(matches!(
            s.create_stream(1, 0, 1000, 2),
            Err(ServerError::StreamExists(1))
        ));
    }

    #[test]
    fn out_of_order_and_wrong_width_rejected() {
        let s = server();
        s.create_stream(1, 0, 1000, 2).unwrap();
        let c = EncryptedChunk {
            stream: 1,
            index: 5,
            digest_ct: vec![0, 0],
            payload: vec![],
        };
        assert!(matches!(
            s.insert(&c),
            Err(ServerError::OutOfOrderChunk {
                expected: 0,
                got: 5
            })
        ));
        let c = EncryptedChunk {
            stream: 1,
            index: 0,
            digest_ct: vec![0],
            payload: vec![],
        };
        assert!(matches!(
            s.insert(&c),
            Err(ServerError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn unknown_stream_errors() {
        let s = server();
        assert!(matches!(
            s.stream_info(9),
            Err(ServerError::NoSuchStream(9))
        ));
        // A statistical query folds its streams' errors into its refusal.
        let refused = Refusal::from(s.get_stat_range(&[9], 0, 10).unwrap_err());
        assert_eq!(refused, ServerError::NoSuchStream(9).into());
    }

    #[test]
    fn get_range_returns_sealed_chunks() {
        let s = server();
        ingest(&s, 5);
        let chunks = s.get_range(1, 0, 50_000).unwrap();
        assert_eq!(chunks.len(), 5);
        let chunk = EncryptedChunk::from_bytes(&chunks[2]).unwrap();
        let points = chunk.open_payload(&keys().tree).unwrap();
        assert_eq!(points.len(), 10);
        assert_eq!(points[0].value, 20);
    }

    #[test]
    fn delete_range_keeps_digests() {
        let s = server();
        ingest(&s, 10);
        assert_eq!(s.delete_range(1, 0, 50_000).unwrap(), 5);
        // Raw chunks gone...
        assert_eq!(s.get_range(1, 0, 50_000).unwrap().len(), 0);
        // ...but statistics still served from the index.
        let reply = s.get_stat_range(&[1], 0, 100_000).unwrap();
        assert_eq!(reply.parts, vec![(1, 0, 10)]);
    }

    #[test]
    fn multi_stream_query_combines() {
        let s = server();
        let km1 = StreamKeyMaterial::with_params(1, [1u8; 16], 20, PrgKind::Aes).unwrap();
        let km2 = StreamKeyMaterial::with_params(2, [2u8; 16], 20, PrgKind::Aes).unwrap();
        let mut rng = SecureRandom::from_seed_insecure(5);
        for (id, km) in [(1u128, &km1), (2u128, &km2)] {
            let cfg = StreamConfig {
                schema: timecrypt_chunk::DigestSchema::sum_count(),
                ..StreamConfig::new(id, "m", 0, 10_000)
            };
            s.create_stream(id, 0, 10_000, 2).unwrap();
            for c in 0..4u64 {
                let chunk = timecrypt_chunk::PlainChunk {
                    stream: id,
                    index: c,
                    points: vec![DataPoint::new(
                        c as i64 * 10_000,
                        (id as i64) * 100 + c as i64,
                    )],
                };
                s.insert(&chunk.seal(&cfg, km, &mut rng).unwrap()).unwrap();
            }
        }
        let reply = s.get_stat_range(&[1, 2], 0, 40_000).unwrap();
        assert_eq!(reply.parts, vec![(1, 0, 4), (2, 0, 4)]);
        // Decrypt: subtract both streams' boundary keys.
        let d1 = decrypt_range_sum(&km1.tree, 0, 4, &reply.agg).unwrap();
        let both = decrypt_range_sum(&km2.tree, 0, 4, &d1).unwrap();
        let expect_sum: i64 =
            (0..4).map(|c| 100 + c).sum::<i64>() + (0..4).map(|c| 200 + c).sum::<i64>();
        assert_eq!(both[0] as i64, expect_sum);
        assert_eq!(both[1], 8, "total count across streams");
    }

    #[test]
    fn server_recovers_from_store() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        {
            let s = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
            ingest(&s, 8);
        }
        let s = TimeCryptServer::open(kv, ServerConfig::default()).unwrap();
        let info = s.stream_info(1).unwrap();
        assert_eq!(info.len, 8);
        let reply = s.get_stat_range(&[1], 0, 80_000).unwrap();
        assert_eq!(reply.parts, vec![(1, 0, 8)]);
    }

    #[test]
    fn delete_stream_purges_everything() {
        let s = server();
        ingest(&s, 4);
        s.put_grant(1, "alice", b"blob").unwrap();
        s.put_envelopes(1, 6, &[(0, vec![1])]).unwrap();
        s.put_grant(2, "alice", b"other").unwrap();
        s.delete_stream(1).unwrap();
        assert!(matches!(
            s.stream_info(1),
            Err(ServerError::NoSuchStream(1))
        ));
        for head in keys::of_stream(1) {
            assert!(s.kv().scan_keys(&head).unwrap().is_empty());
        }
        assert_eq!(s.get_grants(2, "alice").unwrap().len(), 1);
        // Stream can be recreated from scratch.
        s.create_stream(1, 0, 10_000, 3).unwrap();
        assert_eq!(s.stream_info(1).unwrap().len, 0);
    }

    /// A writer that holds the stream's state when the stream is deleted
    /// either commits before the deletion reads its keys or finds the
    /// stream gone: no chunk outlives the stream into the next one of its id.
    #[test]
    fn a_writer_racing_a_deletion_leaves_nothing_behind() {
        use std::sync::Barrier;
        use std::time::{Duration, Instant};
        let s = server();
        let cfg = StreamConfig {
            schema: timecrypt_chunk::DigestSchema::sum_count(),
            ..StreamConfig::new(1, "m", 0, 10_000)
        };
        let chunk = |index: u64| {
            let points = vec![DataPoint::new(index as i64 * 10_000, 1)];
            let plain = timecrypt_chunk::PlainChunk {
                stream: 1,
                index,
                points,
            };
            let mut rng = SecureRandom::from_seed_insecure(index);
            plain.seal(&cfg, &keys(), &mut rng).unwrap()
        };
        s.create_stream(1, 0, 10_000, 2).unwrap();
        (0..2).for_each(|i| s.insert(&chunk(i)).unwrap());
        let st = s.stream(1).unwrap();
        let (held, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _stripe = s.stripes.lock(1, Mutex::lock);
                held.wait();
                release.wait();
            });
            held.wait();
            let writer = scope.spawn(|| s.insert(&chunk(2)));
            let deleter = scope.spawn(|| s.delete_stream(1));
            // A deletion that ignores the stripe finishes now; one that waits
            // for it would wait forever, so the wait is bounded — either
            // order of writer and deletion is then correct.
            let begun = Instant::now();
            while !deleter.is_finished() && begun.elapsed() < Duration::from_millis(200) {
                std::thread::yield_now();
            }
            release.wait();
            // Acknowledged before the deletion, or refused after it.
            if let Err(e) = writer.join().unwrap() {
                assert!(matches!(e, ServerError::NoSuchStream(1)), "{e}");
            }
            deleter.join().unwrap().unwrap();
        });
        drop(st);
        for head in keys::of_stream(1) {
            assert!(s.kv().scan_keys(&head).unwrap().is_empty());
        }
        s.create_stream(1, 0, 10_000, 2).unwrap();
        assert_eq!(s.stream_info(1).unwrap().len, 0);
        (0..2).for_each(|i| s.insert(&chunk(i)).unwrap());
        s.evict_idle_streams();
        assert_eq!(s.stream_info(1).unwrap().len, 2);
    }

    /// A store whose first `get` of `key` — its first `put`, with `on_put`
    /// — once armed, parks until the test lets it go.
    struct ParkingKv {
        kv: MemKv,
        key: Vec<u8>,
        on_put: bool,
        armed: std::sync::atomic::AtomicBool,
        parked: std::sync::Barrier,
        released: std::sync::Barrier,
    }

    impl ParkingKv {
        fn new(key: &[u8], on_put: bool) -> Arc<Self> {
            Arc::new(ParkingKv {
                kv: MemKv::new(),
                key: key.to_vec(),
                on_put,
                armed: Default::default(),
                parked: std::sync::Barrier::new(2),
                released: std::sync::Barrier::new(2),
            })
        }

        fn arm(&self) {
            self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        }

        fn park(&self, key: &[u8]) {
            if key == self.key && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                self.parked.wait();
                self.released.wait();
            }
        }
    }

    impl KvStore for ParkingKv {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
            if !self.on_put {
                self.park(key);
            }
            self.kv.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
            if self.on_put {
                self.park(key);
            }
            self.kv.put(key, value)
        }
        fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
            self.kv.delete(key)
        }
        fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
            self.kv.scan_prefix(prefix)
        }
    }

    #[test]
    fn a_parked_hydration_stalls_no_other_stripe() {
        // Stream 1's hydration holds its gate, parked in the store: a cold
        // touch of stream 2 and the creation of stream 3, both in other
        // stripes, complete meanwhile.
        assert!(stripe(1) != stripe(2) && stripe(1) != stripe(3));
        let kv = ParkingKv::new(&keys::leaf(1, 0), false);
        let s = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
        for stream in [1, 2] {
            let cfg = StreamConfig {
                schema: timecrypt_chunk::DigestSchema::sum_count(),
                ..StreamConfig::new(stream, "m", 0, 10_000)
            };
            s.create_stream(stream, 0, 10_000, 2).unwrap();
            let points = vec![DataPoint::new(0, 1)];
            let plain = timecrypt_chunk::PlainChunk {
                stream,
                index: 0,
                points,
            };
            let mut rng = SecureRandom::from_seed_insecure(9);
            s.insert(&plain.seal(&cfg, &keys(), &mut rng).unwrap())
                .unwrap();
        }
        assert_eq!(s.evict_idle_streams(), 2);
        kv.arm();
        let s = &s;
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| s.stream_stat(1, 0, 10_000));
            kv.parked.wait();
            let (sent, others) = std::sync::mpsc::channel();
            scope.spawn(move || {
                let touched = s.stream_stat(2, 0, 10_000).is_ok();
                sent.send((touched, s.create_stream(3, 0, 10_000, 2).is_ok()))
            });
            let others = others.recv_timeout(std::time::Duration::from_secs(10));
            kv.released.wait();
            assert_eq!(others, Ok((true, true)), "stalled by stream 1's hydration");
            parked.join().unwrap().unwrap();
        });
    }

    /// Both tiers pick a stream's lock by [`stripe`]: the engine's, and the
    /// coordinator's admission, which sees every shard's streams.
    #[test]
    fn the_streams_of_one_shard_spread_over_every_stripe() {
        // The first id past 0 to wrap to stripe 0 is the stripe count.
        let stripes = (1..).find(|&id| stripe(id) == 0).unwrap() as usize;
        for shards in [2, 4, 8] {
            let router = timecrypt_service::ShardRouter::new(shards);
            let mut held = vec![0usize; stripes];
            let ids = (0u128..).filter(|&id| router.shard_of(id) == 0);
            ids.take(32 * stripes).for_each(|id| held[stripe(id)] += 1);
            let (least, most) = (*held.iter().min().unwrap(), *held.iter().max().unwrap());
            assert!(
                least > 0 && most <= 3 * 32,
                "{shards} shards: a stripe holds {least} to {most} of 32 × {stripes} ids"
            );
        }
    }

    /// Two grants for one principal, the first parked in its put:
    /// the second counts the grants only after the first is stored, so
    /// both are kept.
    #[test]
    fn racing_grants_of_one_principal_are_both_kept() {
        let kv = ParkingKv::new(&keys::grant(1, "alice", 0).unwrap(), true);
        let s = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
        let grant = |blob: &[u8]| s.put_grant(1, "alice", blob);
        kv.arm();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| grant(b"g0"));
            kv.parked.wait();
            let (sent, second) = std::sync::mpsc::channel();
            scope.spawn(move || sent.send(grant(b"g1")));
            let early = second.recv_timeout(std::time::Duration::from_millis(200));
            kv.released.wait();
            assert!(
                early.is_err(),
                "the second grant did not wait for the first"
            );
            first.join().unwrap().unwrap();
            second.recv().unwrap().unwrap();
        });
        let grants = s.get_grants(1, "alice").unwrap();
        assert_eq!(grants, [b"g0".to_vec(), b"g1".to_vec()]);
    }

    /// Epoch 6's attestation passed its check and is parked in its put when
    /// epoch 7's arrives: 7 is the epoch stored.
    #[test]
    fn racing_attestations_store_the_later_epoch() {
        let kv = ParkingKv::new(&keys::attestation(1), true);
        let s = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
        s.create_stream(1, 0, 10_000, 2).unwrap();
        // An attestation decodes with any signature in range: r = s = 1.
        let one = [&[0u8; 31][..], &[1]].concat();
        let attestation = |epoch: u64| {
            let head = [
                &1u128.to_le_bytes()[..],
                &0u64.to_le_bytes(),
                &epoch.to_le_bytes(),
            ];
            [&head.concat()[..], &[0; 32], &one[..], &one[..]].concat()
        };
        let put = |epoch| s.put_attestation(1, &attestation(epoch));
        kv.arm();
        std::thread::scope(|scope| {
            let sixth = scope.spawn(|| put(6));
            kv.parked.wait();
            let (sent, seventh) = std::sync::mpsc::channel();
            scope.spawn(move || sent.send(put(7).is_ok()));
            let early = seventh.recv_timeout(std::time::Duration::from_millis(200));
            kv.released.wait();
            sixth.join().unwrap().unwrap();
            assert_eq!(early.or_else(|_| seventh.recv()), Ok(true));
        });
        let stored = RootAttestation::decode(&s.get_attestation(1).unwrap()).unwrap();
        assert_eq!(stored.epoch, 7, "the stored epoch regressed");
    }

    #[test]
    fn a_refused_creation_keeps_the_resident_state() {
        let s = server();
        ingest(&s, 4);
        s.get_stat_range(&[1], 0, 40_000).unwrap();
        let before = s.residency();
        assert!(matches!(
            s.create_stream(1, 0, 10_000, 2),
            Err(ServerError::StreamExists(1))
        ));
        s.get_stat_range(&[1], 0, 40_000).unwrap();
        assert_eq!(s.residency(), before, "no eviction, no rehydration");
    }

    /// Every record of `stream` in `s`, in key order.
    fn keyspace(s: &TimeCryptServer, stream: u128) -> KvPairs {
        let heads = keys::of_stream(stream);
        let mut all: KvPairs = heads
            .iter()
            .flat_map(|h| s.kv().scan_prefix(h).unwrap())
            .collect();
        all.sort();
        all
    }

    /// `to`'s import of `from`'s export pages of stream 1: the pages, and
    /// the chunks they wrote.
    fn copy_pages(from: &TimeCryptServer, to: &TimeCryptServer, max: usize) -> (usize, u64) {
        let (mut after, mut pages, mut chunks) = (Vec::new(), 0, 0);
        loop {
            let (records, done) = from.export_stream(1, &after, max).unwrap();
            chunks += to.import_stream(1, &after, &records, done).unwrap();
            pages += 1;
            match records.last() {
                Some((key, _)) if !done => after.clone_from(key),
                _ => return (pages, chunks),
            }
        }
    }

    #[test]
    fn export_pages_import_only_what_differs() {
        let (survivor, replica) = (server(), server());
        ingest(&survivor, 40);
        // More keys than one store scan reads, so pages cross scans.
        let envelopes: Vec<(u64, Vec<u8>)> = (0..3000).map(|i| (i, vec![i as u8; 3])).collect();
        survivor.put_envelopes(1, 6, &envelopes).unwrap();
        let (pages, chunks) = copy_pages(&survivor, &replica, 4096);
        assert!(pages > 10, "{pages} pages");
        assert_eq!(chunks, 40);
        let held = keyspace(&survivor, 1);
        assert_eq!(keyspace(&replica, 1), held);
        assert_eq!(replica.stream_info(1).unwrap().len, 40);
        // Equal pages write nothing: the resident state stays.
        replica.get_stat_range(&[1], 0, 400_000).unwrap();
        let resident = replica.residency();
        assert_eq!(copy_pages(&survivor, &replica, 4096).1, 0);
        replica.get_stat_range(&[1], 0, 400_000).unwrap();
        assert_eq!(replica.residency(), resident);
        // A stray key, a missing one and a changed chunk: the pages that
        // hold them are written, and only the chunk is counted.
        let kv = replica.kv();
        kv.put(&keys::envelope(1, 6, 5000), b"stray").unwrap();
        kv.delete(&keys::envelope(1, 6, 17)).unwrap();
        kv.put(&keys::leaf(1, 3), b"changed").unwrap();
        assert_eq!(copy_pages(&survivor, &replica, 4096).1, 1);
        assert_eq!(keyspace(&replica, 1), held);
        // A page's keys must ascend after its cursor and be the stream's.
        let bad = [(keys::meta(2), vec![])];
        assert!(matches!(
            replica.import_stream(1, &[], &bad, true),
            Err(ServerError::BadImport)
        ));
    }

    #[test]
    fn handler_maps_requests() {
        let s = server();
        assert_eq!(s.handle(Request::Ping), Response::Pong);
        assert_eq!(
            s.handle(Request::CreateStream {
                stream: 3,
                t0: 0,
                delta_ms: 1000,
                digest_width: 1
            }),
            Response::Ok
        );
        match s.handle(Request::StreamInfo { stream: 3 }) {
            Response::Info(i) => assert_eq!(i.delta_ms, 1000),
            other => panic!("unexpected {other:?}"),
        }
        match s.handle(Request::StreamInfo { stream: 99 }) {
            Response::Error(e) => assert_eq!(e, ServerError::NoSuchStream(99).into()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rollup_ages_out_fine_levels() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let s = TimeCryptServer::open(kv, ServerConfig::default()).unwrap();
        let cfg = StreamConfig {
            schema: timecrypt_chunk::DigestSchema::sum_only(),
            ..StreamConfig::new(1, "m", 0, 10_000)
        };
        let km = keys();
        let mut rng = SecureRandom::from_seed_insecure(7);
        s.create_stream(1, 0, 10_000, 1).unwrap();
        for c in 0..130u64 {
            let chunk = timecrypt_chunk::PlainChunk {
                stream: 1,
                index: c,
                points: vec![DataPoint::new(c as i64 * 10_000, c as i64)],
            };
            s.insert(&chunk.seal(&cfg, &km, &mut rng).unwrap()).unwrap();
        }
        // Level 1 before chunk 128: two 64-chunk nodes.
        assert_eq!(s.rollup(1, 1_280_000, 2).unwrap(), 2);
        // Coarse query over the decayed region still works.
        let reply = s.get_stat_range(&[1], 0, 1_280_000).unwrap();
        let dec = decrypt_range_sum(&km.tree, 0, 128, &reply.agg).unwrap();
        assert_eq!(dec[0], (0..128).sum::<u64>());
        // A fine-grained query below the rolled-up level is a *decay*
        // error, not corruption: [0s, 10s) needs the level-1 node that
        // rollup aged out.
        // It is refused as a request the stored data cannot answer, not as
        // a storage fault.
        let refusal = Refusal::from(s.get_stat_range(&[1], 0, 10_000).unwrap_err());
        let decayed = ServerError::RangeDecayed { level: 1, index: 0 };
        assert_eq!(refusal, decayed.into());
        assert_eq!(refusal.kind, RefusalKind::BadRequest);
    }

    #[test]
    fn queries_stay_exact_while_ingest_holds_the_write_path() {
        // One ingest thread appends chunks; reader threads continuously run
        // statistical queries, raw reads, and metadata reads on the same
        // stream. Every statistical reply must be exact for the chunk
        // prefix it observed — a torn `len` or partially published index
        // node would break the decrypted closed-form check.
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = Arc::new(server());
        let cfg = StreamConfig {
            schema: timecrypt_chunk::DigestSchema::sum_count(),
            ..StreamConfig::new(1, "m", 0, 10_000)
        };
        let km = keys();
        s.create_stream(1, 0, 10_000, 2).unwrap();
        const N: u64 = 300;
        let mut rng = SecureRandom::from_seed_insecure(11);
        let chunks: Vec<EncryptedChunk> = (0..N)
            .map(|c| {
                timecrypt_chunk::PlainChunk {
                    stream: 1,
                    index: c,
                    points: vec![DataPoint::new(c as i64 * 10_000, c as i64)],
                }
                .seal(&cfg, &km, &mut rng)
                .unwrap()
            })
            .collect();
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            {
                let s = s.clone();
                let done = done.clone();
                scope.spawn(move || {
                    for c in &chunks {
                        s.insert(c).unwrap();
                    }
                    done.store(true, Ordering::Release);
                });
            }
            for _ in 0..3 {
                let s = s.clone();
                let done = done.clone();
                let km = keys();
                scope.spawn(move || {
                    let mut exact_replies = 0u64;
                    loop {
                        let stop = done.load(Ordering::Acquire);
                        match s.get_stat_range(&[1], 0, N as i64 * 10_000) {
                            Ok(reply) => {
                                // The reply covers some published prefix
                                // [0, hi); its sum/count must match the
                                // closed form for exactly that prefix.
                                assert_eq!(reply.parts.len(), 1);
                                let (sid, lo, hi) = reply.parts[0];
                                assert_eq!((sid, lo), (1, 0));
                                let dec = decrypt_range_sum(&km.tree, lo, hi, &reply.agg).unwrap();
                                assert_eq!(dec[0], (0..hi).sum::<u64>(), "sum for [0,{hi})");
                                assert_eq!(dec[1], hi, "count for [0,{hi})");
                                exact_replies += 1;
                            }
                            // Only acceptable before the first chunk lands.
                            Err(ServerError::EmptyRange) => {}
                            Err(e) => panic!("reader failed: {e}"),
                        }
                        let info = s.stream_info(1).unwrap();
                        assert!(info.len <= N);
                        if stop {
                            break;
                        }
                    }
                    assert!(exact_replies > 0, "reader never saw a full reply");
                });
            }
        });
        assert_eq!(s.stream_info(1).unwrap().len, N);
    }
}

//! Request/response message schema — the wire form of the Table 1 API.
//!
//! The server never sees plaintext: chunk payloads arrive pre-encrypted,
//! digests arrive as HEAC ciphertexts (plain `u64` words), and key-store
//! blobs (grants, envelopes) are opaque bytes sealed for the principal.
//!
//! A message is declared once, in the [`Request`] or [`Response`] table
//! below: its tag, its fields in wire order and — for a request — where it
//! is answered and whether it changes server state. The tables generate
//! the enums, the codec, [`Request::route`], [`Request::is_mutation`] and
//! the `TAGS` lists; every field is written and parsed by its type's
//! `Wire` form (`codec.rs`).

use crate::codec::{ByteReader, ByteWriter, Wire, WireError, MAX_REPEATED};
use timecrypt_obs::counters::{Counter, Gauge};
use timecrypt_obs::prom::{Family, Kind, LatencyHist};
use timecrypt_obs::TraceContext;

/// Declares a struct that travels inside a message: the type, and a
/// `Wire` form that is its fields in declaration order.
///
/// A stats struct says after each field what it is on the `/metrics` page:
/// `= [Kind "family" "help"]` opens a family (with `{label = "value"}` when
/// several fields are series of it), `= [{label = "value"}]` is a further
/// series of the family the field before it opened, `= -` is a field that
/// is no sample (a label, a nested list). Its `ROWS` are those
/// declarations in field order — what renders a snapshot and what adds two
/// up; a field that says nothing does not compile. Declared `pub struct
/// Name as Cells`, it also gets `Cells`: one live [`Stat::Cell`] per sample
/// field, under that field's name and doc, read back by `Cells::snapshot`.
macro_rules! wire_struct {
    (@cells $name:ident $cells:ident [ $( $(#[$m:meta])* $f:ident: $t:ty; )* ]) => {
        #[doc = concat!("The live cells of [`", stringify!($name), "`]'s samples: relaxed atomics,")]
        /// bumped where the events happen; a snapshot is not consistent across them.
        #[derive(Default)]
        pub struct $cells { $( $(#[$m])* pub $f: <$t as Stat>::Cell, )* }

        impl $cells {
            /// Every sample read from its cell; the other fields at their defaults.
            pub fn snapshot(&self) -> $name {
                $name { $( $f: Stat::read(&self.$f), )* ..Default::default() }
            }
        }
    };
    (@cells $name:ident [] $($rest:tt)*) => {};
    // One field at a time: a field's docs repeat apart from its row, so no
    // one repetition can keep the fields with a row and their docs both.
    (@cells $name:ident $cells:ident [ $($done:tt)* ]
        $(#[$m:meta])* $f:ident: $t:ty [ $($row:tt)* ], $($rest:tt)*) => {
        wire_struct!(@cells $name $cells [ $($done)* $(#[$m])* $f: $t; ] $($rest)*);
    };
    (@cells $name:ident $cells:ident [ $($done:tt)* ] $(#[$m:meta])* $f:ident: $t:ty, $($rest:tt)*) => {
        wire_struct!(@cells $name $cells [ $($done)* ] $($rest)*);
    };
    (@family) => { None };
    (@family $kind:ident $family:literal $help:literal) => {
        Some(Family { name: $family, help: $help, kind: Kind::$kind })
    };
    (
        @row $field:ident
        $( $kind:ident $family:literal $help:literal )? $( { $label:ident = $series:literal } )?
    ) => {
        StatRow {
            family: wire_struct!(@family $( $kind $family $help )?),
            label: &[ $( (stringify!($label), $series) )? ],
            get: |s| s.$field.value(),
            merge: |s, other| s.$field.merge(&other.$field),
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident $( as $cells:ident )? {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident : $fty:ty = $( - )? $( [ $( $row:tt )* ] )?
            ),* $(,)?
        }
    ) => {
        wire_struct!(@cells $name $($cells)? [] $( $(#[$fmeta])* $field: $fty $([$($row)*])?, )*);
        wire_struct! {
            $(#[$meta])*
            pub struct $name { $( $(#[$fmeta])* pub $field: $fty ),* }
        }

        impl $name {
            /// The fields that are samples on `/metrics`, in field order.
            pub const ROWS: &'static [StatRow<$name>] =
                &[ $( $( wire_struct!(@row $field $( $row )*), )? )* ];
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $fty ),*
        }

        impl Wire for $name {
            fn put(&self, w: &mut ByteWriter) {
                $( self.$field.put(w); )*
            }

            fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Ok($name { $( $field: Wire::take(r)? ),* })
            }
        }
    };
}

/// Declares a message enum — or a kind, whose entries are bare — from its
/// table. An entry reads `tag = Variant
/// { fields }` (or `Variant(name: Type)`, or a bare `Variant`), with `as
/// NAME` after the variant where hand-written code needs the tag as a
/// const; `reserved` lists tag values of the same space that are taken but
/// are no variant. The body of a message is its tag byte, then its fields
/// in declaration order. A request entry ends in `=> Class(key), mutates:
/// bool` — its [`Route`] and its [`Request::is_mutation`] answer.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal = $variant:ident $( as $tag_const:ident )?
                $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
                => $route:ident $( ( $key:ident ) )?, mutates: $mutates:literal;
            )*
        }
        reserved { $( $(#[$rmeta:meta])* $rtag:literal = $rname:ident ),* $(,)? }
    ) => {
        wire_enum! {
            $(#[$meta])*
            pub enum $name {
                $(
                    $(#[$vmeta])*
                    $tag = $variant $( as $tag_const )?
                    $( { $( $(#[$fmeta])* $field : $fty ),* } )?;
                )*
            }
            reserved { $( $(#[$rmeta])* $rtag = $rname ),* }
        }

        impl $name {
            /// The routing key of this request (see [`Route`]).
            pub fn route(&self) -> Route {
                match self {
                    $( Self::$variant { $( $key, )? .. } => Route::$route $( (*$key) )?, )*
                }
            }

            /// True for requests that change server state. The distinction
            /// drives the policies of multi-node deployments: replicated
            /// writes go primary-then-backup while reads may fail over; and
            /// a coordinator sends a mutation at most once — a lost
            /// mutating exchange may already have been applied — so it
            /// probes the pooled connection before writing one, while a
            /// read goes out unprobed and is sent once more, on a fresh
            /// connection, if its exchange fails on a stale one.
            pub fn is_mutation(&self) -> bool {
                match self {
                    $( Self::$variant { .. } => $mutates, )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal = $variant:ident $( as $tag_const:ident )?
                $( ( $tname:ident : $tty:ty ) )?
                $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?;
            )*
        }
        reserved { $( $(#[$rmeta:meta])* $rtag:literal = $rname:ident ),* $(,)? }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ( $tty ) )? $( { $( $(#[$fmeta])* $field: $fty ),* } )?
            ),*
        }

        $( $( const $tag_const: u8 = $tag; )? )*
        $( $(#[$rmeta])* const $rname: u8 = $rtag; )*

        impl $name {
            /// `(tag, variant name)` of every message, in table order.
            pub const TAGS: &'static [(u8, &'static str)] =
                &[ $( ($tag, stringify!($variant)) ),* ];

            /// Serializes the message body.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                self.encode_into(&mut out);
                out
            }

            /// Appends the serialized message to `out`, reusing its capacity
            /// — the per-connection scratch-buffer path (byte-identical to
            /// [`encode`](Self::encode)).
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                let mut w = ByteWriter::with_vec(std::mem::take(out));
                self.put(&mut w);
                *out = w.into_bytes();
            }

            /// Parses a message body, every field owned.
            pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
                let mut r = ByteReader::new(buf);
                let msg = Self::take(&mut r)?;
                r.finish()?;
                Ok(msg)
            }

            /// Parses the fields of the message tagged `tag`.
            #[deny(unreachable_patterns)] // a tag value declared twice does not compile
            #[allow(unused_variables)] // a kind's entries read nothing past the tag
            fn take_tagged(tag: u8, r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Ok(match tag {
                    $(
                        $tag => Self::$variant
                            $( ( <$tty as Wire>::take(r)? ) )?
                            $( { $( $field: Wire::take(r)? ),* } )?,
                    )*
                    $( $rtag => return Err(WireError::BadTag($rtag)), )*
                    unknown => return Err(WireError::BadTag(unknown)),
                })
            }
        }

        impl Wire for $name {
            fn put(&self, w: &mut ByteWriter) {
                match self {
                    $(
                        Self::$variant $( ( $tname ) )? $( { $( $field ),* } )? => {
                            w.u8($tag);
                            $( $tname.put(w); )?
                            $( $( $field.put(w); )* )?
                        }
                    )*
                }
            }

            fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Self::take_tagged(r.u8()?, r)
            }
        }
    };
}

/// What a stats field is on the `/metrics` page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatValue<'a> {
    /// One sample.
    Num(f64),
    /// A log₂ latency histogram (µs), rendered as its quantiles.
    Hist(&'a [u64]),
}

/// A field of a stats struct: its `/metrics` value, how another
/// snapshot's value adds to it, and the live cell a process counts it in.
pub trait Stat {
    /// What the field is counted in between snapshots.
    type Cell: Default;
    /// The field's current value.
    fn value(&self) -> StatValue<'_>;
    /// Adds `other` to this field.
    fn merge(&mut self, other: &Self);
    /// The field as its cell holds it now.
    fn read(cell: &Self::Cell) -> Self;
}

impl Stat for u64 {
    type Cell = Counter;
    fn value(&self) -> StatValue<'_> {
        StatValue::Num(*self as f64)
    }
    fn merge(&mut self, other: &u64) {
        *self += other;
    }
    fn read(cell: &Counter) -> u64 {
        cell.get()
    }
}

impl Stat for bool {
    type Cell = Gauge;
    fn value(&self) -> StatValue<'_> {
        StatValue::Num(u8::from(*self).into())
    }
    fn merge(&mut self, other: &bool) {
        *self |= other;
    }
    fn read(cell: &Gauge) -> bool {
        cell.get() != 0
    }
}

impl Stat for Vec<u64> {
    type Cell = LatencyHist;
    fn value(&self) -> StatValue<'_> {
        StatValue::Hist(self)
    }
    fn merge(&mut self, other: &Vec<u64>) {
        if other.len() > self.len() {
            self.resize(other.len(), 0);
        }
        for (sum, count) in self.iter_mut().zip(other) {
            *sum += count;
        }
    }
    fn read(cell: &LatencyHist) -> Vec<u64> {
        cell.snapshot()
    }
}

/// One field of the stats struct `S` that is a sample on `/metrics`, as
/// the struct's declaration says after the field; `S::ROWS` has them in
/// field order.
pub struct StatRow<S: 'static> {
    /// The family the field opens; `None` when it is a further series of
    /// the family the row before it opened.
    pub family: Option<Family>,
    /// The label that tells the field's series from its family's others.
    pub label: &'static [(&'static str, &'static str)],
    /// Reads the field.
    pub get: for<'a> fn(&'a S) -> StatValue<'a>,
    /// Adds another snapshot's field to this one's.
    pub merge: fn(&mut S, &S),
}

wire_struct! {
    /// Server-side per-stream metadata (non-secret: the paper's server knows
    /// chunk boundaries because index keys encode temporal ranges, §4.6).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StreamInfoWire {
        /// Stream id.
        pub stream: u128,
        /// Epoch (ms) of chunk 0.
        pub t0: i64,
        /// Chunk interval Δ in ms.
        pub delta_ms: u64,
        /// Digest vector width (element count).
        pub digest_width: u32,
        /// Chunks ingested so far.
        pub len: u64,
    }
}

wire_struct! {
    /// A statistical query reply: the combined aggregate plus, per stream, the
    /// chunk boundaries the client must derive keys for.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StatReply {
        /// `(stream, chunk_lo, chunk_hi)` per queried stream: the aggregate
        /// covers chunks `[chunk_lo, chunk_hi)` of each.
        pub parts: Vec<(u128, u64, u64)>,
        /// Element-wise homomorphic sum across all covered chunks of all
        /// streams.
        pub agg: Vec<u64>,
    }
}

wire_enum! {
    /// What a [`Refusal`] tells its caller to do next: one byte on the wire.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RefusalKind {
        /// The stream is not registered.
        0 = NoSuchStream;
        /// The request contradicts what is stored (exists, out of order).
        1 = Conflict;
        /// The request is malformed, or asks what the stored data cannot answer.
        2 = BadRequest;
        /// The node's log failed a write and takes none until it is reopened.
        3 = ReadOnly;
        /// Not served here: a node unreachable or not hosting it, a storage fault.
        4 = Unavailable;
        /// A write whose reply was lost after it may have reached the store.
        5 = Ambiguous;
    }
    reserved {}
}

wire_struct! {
    /// A server's refusal, as every tier and transport carries it: callers
    /// act on its kind and show its reason.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Refusal {
        /// What the caller may do next.
        pub kind: RefusalKind,
        /// The server's rendering of its error; no stack detail.
        pub reason: String,
    }
}

impl Refusal {
    /// A refusal of `kind` for `reason`.
    pub fn new(kind: RefusalKind, reason: impl Into<String>) -> Self {
        let reason = reason.into();
        Refusal { kind, reason }
    }
}

wire_struct! {
    /// One shard's leg of a statistical query, folded in request order up
    /// to the first stream that is unknown, empty, or of another width than
    /// the leg's first ([`Response::StatLeg`]); never larger than the
    /// [`StatReply`] of the same streams.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StatLeg {
        /// `(digest width, chunk_lo, chunk_hi)` per stream covered, in order.
        pub parts: Vec<(u32, u64, u64)>,
        /// The stream the fold stopped at: its refusal, or its digest width.
        pub stop: Option<Result<u32, Refusal>>,
        /// Homomorphic sum over the covered windows; empty when none was.
        pub agg: Vec<u64>,
    }
}

wire_struct! {
    /// One shard's counters in a [`Response::ServiceStats`] reply; a
    /// process counts them in a [`ShardMetrics`].
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ShardStatsWire as ShardMetrics {
        /// Shard index.
        pub shard: u32 = -,
        /// Streams owned by this shard.
        pub streams: u64 = [Gauge "timecrypt_shard_streams" "Streams owned by each shard."],
        /// Chunks ingested (batched + direct) since service start.
        pub ingested_chunks: u64 =
            [Counter "timecrypt_ingested_chunks_total" "Chunks ingested since service start."],
        /// Ingest attempts rejected by the engine (out-of-order, width, ...).
        pub ingest_errors: u64 =
            [Counter "timecrypt_ingest_errors_total" "Ingest attempts rejected by the engine."],
        /// Statistical sub-queries served.
        pub queries: u64 = [Counter "timecrypt_queries_total" "Statistical sub-queries served."],
        /// Sub-queries that returned an error.
        pub query_errors: u64 =
            [Counter "timecrypt_query_errors_total" "Sub-queries that returned an error."],
        /// Chunks submitted to the shard and not yet answered.
        pub queue_depth: u64 = [Gauge "timecrypt_ingest_queue_depth"
            "Chunks submitted to the shard and not yet answered."],
        /// Reads served by the backup replica after the primary was
        /// unreachable (always 0 without replication).
        pub failovers: u64 = [Counter "timecrypt_failovers_total"
            "Reads served by the backup after a primary failure."],
        /// Backup-replica operations that failed or diverged from the primary
        /// verdict (always 0 without replication). A growing value means the
        /// replicas are drifting apart and the backup needs rebuilding.
        pub replica_errors: u64 = [Counter "timecrypt_replica_errors_total"
            "Backup operations that failed or diverged from the primary."],
        /// Backups promoted to primary after the primary stayed unreachable
        /// (the shard then runs un-replicated until a replacement is
        /// attached and rebuilt).
        pub promotions: u64 = [Counter "timecrypt_promotions_total" "Backups promoted to primary."],
        /// Replica rebuilds completed: a freshly attached backup copied the
        /// survivor's differing streams until both listed the same
        /// digests, and re-armed write mirroring.
        pub rebuilds: u64 = [Counter "timecrypt_rebuilds_total" "Replica rebuilds completed."],
        /// Chunks copied survivor → replacement by rebuilds.
        pub rebuild_chunks_copied: u64 = [Counter "timecrypt_rebuild_chunks_copied_total"
            "Chunks copied from the survivor to the replacement by replica rebuilds."],
        /// True iff a backup replica is attached and in sync (write-mirrored,
        /// eligible for read failover and promotion). False while a
        /// replacement is still rebuilding — and always false without
        /// replication.
        pub in_sync: bool =
            [Gauge "timecrypt_replica_in_sync" "1 if an in-sync backup replica is attached."],
        /// Ingest latency histogram: bucket `i` counts operations that took
        /// `[2^(i-1), 2^i)` microseconds (bucket 0 is sub-microsecond).
        pub ingest_hist_us: Vec<u64> =
            [Summary "timecrypt_ingest_latency_seconds" "Per-chunk ingest latency quantiles."],
        /// Query latency histogram, same bucket layout.
        pub query_hist_us: Vec<u64> =
            [Summary "timecrypt_query_latency_seconds" "Per-sub-query latency quantiles."],
        /// Streams currently hydrated (resident state) on this shard's
        /// engine; bounded by the engine's `max_resident_streams` cap, and at
        /// most `streams`.
        pub resident_streams: u64 = [Gauge "timecrypt_resident_streams"
            "Streams currently hydrated into RAM on each shard."],
        /// Cold-touch hydrations (store replays of stream state) since open.
        pub hydrations: u64 = [Counter "timecrypt_hydrations_total"
            "Cold-touch stream hydrations since the engine opened."],
        /// Resident streams evicted since open.
        pub evictions: u64 = [Counter "timecrypt_evictions_total"
            "Resident streams evicted since the engine opened."],
    }
}

wire_struct! {
    /// Service-layer metrics snapshot: per-shard counters plus the calls
    /// made of the store the tier was opened over, as its log counts them.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ServiceStatsWire {
        /// Per-shard counters, in shard order.
        pub shards: Vec<ShardStatsWire> = -,
        /// KV `get` calls the store's log counted.
        pub store_gets: u64 = [Counter "timecrypt_store_ops_total"
            "KV operations the store's log counted." {op = "get"}],
        /// KV `put` operations.
        pub store_puts: u64 = [{op = "put"}],
        /// KV `delete` operations.
        pub store_deletes: u64 = [{op = "delete"}],
        /// KV `scan_prefix` operations.
        pub store_scans: u64 = [{op = "scan"}],
        /// Value bytes returned by `get`/`scan_prefix` (the paper's
        /// Cassandra-side read traffic, §4.6).
        pub store_bytes_read: u64 = [Counter "timecrypt_store_bytes_total"
            "Value bytes read and written, as the store's log counted them." {dir = "read"}],
        /// Value bytes written by `put`.
        pub store_bytes_written: u64 = [{dir = "written"}],
    }
}

impl ServiceStatsWire {
    /// Adds `other`'s store-traffic counters to this snapshot's (the
    /// shards are left alone): how a coordinator folds each node's storage
    /// traffic into cluster-wide totals.
    pub fn add_store(&mut self, other: &ServiceStatsWire) {
        for row in Self::ROWS {
            (row.merge)(self, other);
        }
    }
}

/// Where a request is answered in a sharded deployment: its routing key
/// ([`Request::route`]). The coordinator and the shard node both dispatch
/// on this, so "which shard does this request belong to" is decided here,
/// once, next to the variants themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A single-stream request: the shard owning this stream answers it.
    Stream(u128),
    /// Addresses one shard by its cluster-wide id.
    Shard(u32),
    /// An ingest request: the stream id sits inside the sealed payload,
    /// which this crate does not parse — handlers read it from the
    /// borrowed view ([`RequestRef`]).
    Payload,
    /// Answered by the serving tier itself rather than one of its shards:
    /// a multi-stream query it fans out, or a probe of the tier.
    Service,
}

wire_enum! {
    /// Client → server requests (Table 1).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request {
        /// (1) Create a stream with server-visible metadata.
        1 = CreateStream {
            /// Stream id.
            stream: u128,
            /// Epoch ms.
            t0: i64,
            /// Chunk interval ms.
            delta_ms: u64,
            /// Digest width.
            digest_width: u32,
        } => Stream(stream), mutates: true;
        /// (2) Delete a stream and all associated data.
        2 = DeleteStream {
            /// Stream id.
            stream: u128,
        } => Stream(stream), mutates: true;
        /// (4) Append one sealed chunk (serialized `EncryptedChunk`).
        3 = Insert as REQ_INSERT {
            /// `EncryptedChunk::to_bytes()` payload.
            chunk: Vec<u8>,
        } => Payload, mutates: true;
        /// (5) Retrieve raw (encrypted) chunks for a time interval.
        4 = GetRange {
            /// Stream id.
            stream: u128,
            /// Interval start (ms, inclusive).
            ts_s: i64,
            /// Interval end (ms, exclusive).
            ts_e: i64,
        } => Stream(stream), mutates: false;
        /// (6) Statistical query over one or more streams.
        5 = GetStatRange {
            /// Streams to aggregate over (inter-stream queries sum across all).
            streams: Vec<u128>,
            /// Interval start (ms).
            ts_s: i64,
            /// Interval end (ms).
            ts_e: i64,
        } => Service, mutates: false;
        /// (7) Delete raw chunk payloads in an interval, retaining digests.
        6 = DeleteRange {
            /// Stream id.
            stream: u128,
            /// Interval start (ms).
            ts_s: i64,
            /// Interval end (ms).
            ts_e: i64,
        } => Stream(stream), mutates: true;
        /// (3) Roll up: age out fine-grained index levels before a time.
        7 = Rollup {
            /// Stream id.
            stream: u128,
            /// Cutoff time (ms): chunks before it decay.
            before_ts: i64,
            /// Level of the 64-ary tree over the chunks to keep: windows
            /// before the cutoff stay answerable at a granularity of
            /// 64^(keep_level − 1) chunks.
            keep_level: u8,
        } => Stream(stream), mutates: true;
        /// Stream metadata probe.
        8 = StreamInfo {
            /// Stream id.
            stream: u128,
        } => Stream(stream), mutates: false;
        /// (8)(9) Store an opaque grant blob for a principal (hybrid-encrypted
        /// token set / KR token).
        9 = PutGrant {
            /// Stream id.
            stream: u128,
            /// Principal identity.
            principal: String,
            /// Sealed grant bytes.
            blob: Vec<u8>,
        } => Stream(stream), mutates: true;
        /// Fetch all grant blobs for a principal on a stream.
        10 = GetGrants {
            /// Stream id.
            stream: u128,
            /// Principal identity.
            principal: String,
        } => Stream(stream), mutates: false;
        /// (10) Remove a principal's grants (revocation bookkeeping; the
        /// cryptographic cut-off is the owner ceasing token extension).
        11 = RevokeGrants {
            /// Stream id.
            stream: u128,
            /// Principal identity.
            principal: String,
        } => Stream(stream), mutates: true;
        /// Store resolution envelopes (opaque) for a stream + resolution.
        12 = PutEnvelopes {
            /// Stream id.
            stream: u128,
            /// Resolution in chunks.
            resolution: u64,
            /// `(envelope index, sealed bytes)` pairs.
            envelopes: Vec<(u64, Vec<u8>)>,
        } => Stream(stream), mutates: true;
        /// Fetch resolution envelopes in an index window.
        13 = GetEnvelopes {
            /// Stream id.
            stream: u128,
            /// Resolution in chunks.
            resolution: u64,
            /// First envelope index (inclusive).
            lo: u64,
            /// Last envelope index (inclusive).
            hi: u64,
        } => Stream(stream), mutates: false;
        /// Liveness probe.
        14 = Ping => Service, mutates: false;
        /// (4b) Real-time upload of a single record (§4.6): the server buffers
        /// it until the covering chunk arrives via `Insert`, then drops it.
        15 = InsertLive as REQ_INSERT_LIVE {
            /// `SealedRecord::to_bytes()` payload.
            record: Vec<u8>,
        } => Payload, mutates: true;
        /// (5b) Fetch buffered live records overlapping a time interval
        /// (records of chunks not yet finalized).
        16 = GetLive {
            /// Stream id.
            stream: u128,
            /// Interval start (ms, inclusive).
            ts_s: i64,
            /// Interval end (ms, exclusive).
            ts_e: i64,
        } => Stream(stream), mutates: false;
        /// Store the data owner's signed root attestation for a stream
        /// (integrity extension, §3.3). Opaque to the server.
        17 = PutAttestation {
            /// Stream id.
            stream: u128,
            /// `RootAttestation::encode()` bytes.
            attestation: Vec<u8>,
        } => Stream(stream), mutates: true;
        /// Fetch the latest stored attestation for a stream.
        18 = GetAttestation {
            /// Stream id.
            stream: u128,
        } => Stream(stream), mutates: false;
        /// Statistical range query with an authenticated-aggregation proof
        /// against the latest attestation (integrity extension).
        19 = GetRangeProof {
            /// Stream id.
            stream: u128,
            /// Interval start (ms).
            ts_s: i64,
            /// Interval end (ms).
            ts_e: i64,
        } => Stream(stream), mutates: false;
        /// Raw chunk retrieval with per-chunk authenticated commitments
        /// against the latest attestation (integrity extension).
        20 = GetVerifiedRange {
            /// Stream id.
            stream: u128,
            /// Interval start (ms).
            ts_s: i64,
            /// Interval end (ms).
            ts_e: i64,
        } => Stream(stream), mutates: false;
        /// (4c) Append a batch of sealed chunks in one round trip. Chunks of
        /// the same stream must appear in index order; the server (or the
        /// sharded service layer) preserves the batch's per-stream order, so
        /// the out-of-order ingest check behaves exactly as for single inserts.
        21 = InsertBatch as REQ_INSERT_BATCH {
            /// `EncryptedChunk::to_bytes()` payloads.
            chunks: Vec<Vec<u8>>,
        } => Payload, mutates: true;
        /// Service-layer metrics probe (shard counters, queue depths, latency
        /// histograms). Single-engine deployments answer with an error.
        22 = Stats => Service, mutates: false;
        /// Every stream one shard owns (replica rebuild). A single engine
        /// answers with all of its streams regardless of `shard`.
        23 = ListStreams {
            /// Cluster-wide shard id whose streams to list.
            shard: u32,
        } => Shard(shard), mutates: false;
        /// Page of a stream's store records after a key, in key order
        /// (replica rebuild; paged far under the 16 MiB frame cap).
        /// Answered with [`Response::StreamChunks`].
        24 = ExportStream {
            /// Stream id.
            stream: u128,
            /// The page starts after this key (empty: at the first).
            after: Vec<u8>,
        } => Stream(stream), mutates: false;
        /// One shard's leg of a statistical query: the streams, all hosted
        /// by the answering node, folded in order. Answered with
        /// [`Response::StatLeg`].
        26 = GetStatLeg {
            /// The leg's streams, in request order.
            streams: Vec<u128>,
            /// Interval start (ms).
            ts_s: i64,
            /// Interval end (ms).
            ts_e: i64,
        } => Service, mutates: false;
        /// Replica rebuild: makes the replica's records of the stream in the
        /// page's key interval — `(after, last key]`, or all after `after`
        /// when `done` — equal to an exported page's, as one store batch,
        /// and says what it wrote ([`Response::Imported`]). Nodes answer
        /// it; a coordinator refuses it, so no client writes raw records.
        27 = ImportStream {
            /// Stream id.
            stream: u128,
            /// The page's cursor, as exported.
            after: Vec<u8>,
            /// The page's `(key, value)` records, ascending.
            records: Vec<(Vec<u8>, Vec<u8>)>,
            /// The page is the stream's last.
            done: bool,
        } => Stream(stream), mutates: true;
    }
    reserved {
        /// Trace-context envelope: `[tag][u128 trace id][u64 span id][inner
        /// request]`. Not a [`Request`] variant — the envelope is peeled off
        /// by [`split_trace`] at the transport boundary before request
        /// decoding, so handlers (and replies) are identical whether or not
        /// a request arrived traced.
        25 = REQ_TRACED,
    }
}

wire_enum! {
    /// Server → client responses.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        /// Success without payload.
        1 = Ok;
        /// The request was refused.
        2 = Error(refusal: Refusal);
        /// Raw encrypted chunks (each `EncryptedChunk::to_bytes()`).
        3 = Chunks(chunks: Vec<Vec<u8>>);
        /// Statistical aggregate.
        4 = Stat(reply: StatReply);
        /// Opaque blobs (grants).
        5 = Blobs(blobs: Vec<Vec<u8>>);
        /// Envelopes `(index, bytes)`.
        6 = Envelopes(envelopes: Vec<(u64, Vec<u8>)>);
        /// Stream metadata.
        7 = Info(info: StreamInfoWire);
        /// Ping reply.
        8 = Pong;
        /// Buffered live records (each `SealedRecord::to_bytes()`).
        9 = Records(records: Vec<Vec<u8>>);
        /// An attested aggregate: the owner-signed attestation plus the
        /// server's range proof against it (integrity extension).
        10 = Attested {
            /// `RootAttestation::encode()` bytes.
            attestation: Vec<u8>,
            /// `RangeProof::encode()` bytes.
            proof: Vec<u8>,
        };
        /// Raw chunks with an open range proof binding each chunk's commitment
        /// to the attested root (integrity extension).
        11 = VerifiedChunks {
            /// `RootAttestation::encode()` bytes.
            attestation: Vec<u8>,
            /// Open `RangeProof::encode()` bytes.
            proof: Vec<u8>,
            /// The chunk bytes, in chunk order, matching the proof's window.
            chunks: Vec<Vec<u8>>,
        };
        /// Per-chunk outcome of an [`Request::InsertBatch`]: `(batch index,
        /// refusal)` for each failed chunk, empty when everything landed.
        /// Successes are implicit — the producer only needs to know what to
        /// retry or surface.
        12 = Batch {
            /// `(index into the batch, refusal)` per failure.
            errors: Vec<(u32, Refusal)>,
        };
        /// Service metrics snapshot ([`Request::Stats`]).
        13 = ServiceStats(stats: ServiceStatsWire);
        /// The streams of one shard ([`Request::ListStreams`]), ascending.
        14 = StreamList(streams: Vec<u128>);
        /// One page of a stream's store records ([`Request::ExportStream`]):
        /// its chunks, decay stubs included, and every other record it owns.
        15 = StreamChunks {
            /// The page's `(key, value)` records, ascending.
            records: Vec<(Vec<u8>, Vec<u8>)>,
            /// The page holds the stream's last record.
            done: bool,
        };
        /// A leg's fold ([`Request::GetStatLeg`]).
        16 = StatLeg(leg: StatLeg);
        /// The chunks (`il/` records, decay stubs included) an
        /// [`Request::ImportStream`] page wrote on the replica.
        17 = Imported(chunks: u64);
    }
    reserved {}
}

/// Encoded size of the trace envelope prefix.
pub const TRACE_PREFIX_LEN: usize = 1 + 16 + 8;

/// Appends the trace-context envelope prefix to `out`; the encoded inner
/// request must follow. Requests sent *without* a context are encoded
/// exactly as before this envelope existed, so tracing-off costs nothing
/// on the wire.
pub fn encode_trace_prefix(ctx: TraceContext, out: &mut Vec<u8>) {
    let mut w = ByteWriter::with_vec(std::mem::take(out));
    w.u8(REQ_TRACED).u128(ctx.trace_id).u64(ctx.span_id);
    *out = w.into_bytes();
}

/// Peels an optional trace-context envelope off a request body: returns
/// the context (if the body is enveloped) and the inner request bytes.
/// Bodies that don't start with the envelope tag pass through untouched.
/// Nested envelopes are not a thing; the inner bytes must decode as a
/// plain request.
pub fn split_trace(body: &[u8]) -> Result<(Option<TraceContext>, &[u8]), WireError> {
    if body.first() != Some(&REQ_TRACED) {
        return Ok((None, body));
    }
    if body.len() < TRACE_PREFIX_LEN {
        return Err(WireError::Truncated);
    }
    let mut r = ByteReader::new(&body[1..TRACE_PREFIX_LEN]);
    let ctx = TraceContext {
        trace_id: r.u128()?,
        span_id: r.u64()?,
    };
    Ok((Some(ctx), &body[TRACE_PREFIX_LEN..]))
}

impl Request {
    /// Lends this request to `f` as its borrowed view: the ingest
    /// variants lend their payload bytes, everything else moves into
    /// [`RequestRef::Other`]. The inverse of [`RequestRef::to_owned`]; it
    /// is how an owned request enters a handler's single dispatch.
    pub fn with_ref<R>(self, f: impl FnOnce(RequestRef<'_>) -> R) -> R {
        match self {
            Request::Insert { chunk } => f(RequestRef::Insert { chunk: &chunk }),
            Request::InsertLive { record } => f(RequestRef::InsertLive { record: &record }),
            Request::InsertBatch { chunks } => f(RequestRef::InsertBatch {
                chunks: chunks.iter().map(Vec::as_slice).collect(),
            }),
            other => f(RequestRef::Other(other)),
        }
    }
}

/// The borrowed view of a [`Request`], and the form every frame decodes
/// to: the bulk-payload-carrying ingest variants borrow their byte fields
/// straight from the frame buffer; every other variant is carried owned
/// (their fields are a few dozen bytes — borrowing them buys nothing).
/// Handlers dispatch on this view, so accepted chunk bytes travel from the
/// socket buffer to the store (or the next hop's frame) without an
/// intermediate copy. [`to_owned`] and [`Request::with_ref`] convert
/// between the two forms.
///
/// [`to_owned`]: RequestRef::to_owned
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// [`Request::Insert`] with the chunk bytes borrowed from the frame.
    Insert {
        /// `EncryptedChunk::to_bytes()` payload.
        chunk: &'a [u8],
    },
    /// [`Request::InsertLive`] with the record bytes borrowed.
    InsertLive {
        /// `SealedRecord::to_bytes()` payload.
        record: &'a [u8],
    },
    /// [`Request::InsertBatch`] with every chunk borrowed.
    InsertBatch {
        /// `EncryptedChunk::to_bytes()` payloads.
        chunks: Vec<&'a [u8]>,
    },
    /// Any other request, decoded owned.
    Other(Request),
}

impl<'a> RequestRef<'a> {
    /// Parses a request body without copying ingest payloads.
    pub fn decode(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(buf);
        let req = match r.u8()? {
            REQ_INSERT => RequestRef::Insert {
                chunk: r.bytes_borrowed()?,
            },
            REQ_INSERT_LIVE => RequestRef::InsertLive {
                record: r.bytes_borrowed()?,
            },
            REQ_INSERT_BATCH => {
                let n = r.u32()? as usize;
                if n > MAX_REPEATED {
                    return Err(WireError::TooLarge(n));
                }
                let mut chunks = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    chunks.push(r.bytes_borrowed()?);
                }
                RequestRef::InsertBatch { chunks }
            }
            tag => RequestRef::Other(Request::take_tagged(tag, &mut r)?),
        };
        r.finish()?;
        Ok(req)
    }

    /// Copies the borrows into an owned [`Request`].
    pub fn to_owned(self) -> Request {
        match self {
            RequestRef::Insert { chunk } => Request::Insert {
                chunk: chunk.to_vec(),
            },
            RequestRef::InsertLive { record } => Request::InsertLive {
                record: record.to_vec(),
            },
            RequestRef::InsertBatch { chunks } => Request::InsertBatch {
                chunks: chunks.into_iter().map(<[u8]>::to_vec).collect(),
            },
            RequestRef::Other(req) => req,
        }
    }
}

/// Streaming encoder for an [`Request::InsertBatch`] body: callers append
/// each chunk's serialized form straight into the frame buffer instead of
/// first collecting a `Vec<Vec<u8>>` of copies. The produced bytes are
/// identical to encoding the equivalent owned request.
///
/// ```
/// use timecrypt_wire::messages::{BatchEncoder, Request};
///
/// let mut frame = Vec::new();
/// let mut enc = BatchEncoder::begin(&mut frame);
/// for part in [&b"abc"[..], &b""[..]] {
///     enc.append_with(part.len(), |buf| buf.extend_from_slice(part));
/// }
/// enc.finish();
/// assert_eq!(
///     frame,
///     Request::InsertBatch { chunks: vec![b"abc".to_vec(), vec![]] }.encode(),
/// );
/// ```
pub struct BatchEncoder<'a> {
    buf: &'a mut Vec<u8>,
    count_pos: usize,
    count: u32,
}

impl<'a> BatchEncoder<'a> {
    /// Starts an `InsertBatch` body in `buf` (appending; existing content
    /// is preserved).
    pub fn begin(buf: &'a mut Vec<u8>) -> Self {
        buf.push(REQ_INSERT_BATCH);
        let count_pos = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes());
        BatchEncoder {
            buf,
            count_pos,
            count: 0,
        }
    }

    /// Appends one length-prefixed chunk of exactly `len` bytes, produced
    /// by `write` appending into the buffer (e.g.
    /// `EncryptedChunk::encode_into`).
    ///
    /// # Panics
    /// When `write` appends a different number of bytes than `len` — the
    /// length prefix would lie and the frame would be unparseable.
    pub fn append_with(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        self.buf.extend_from_slice(&(len as u32).to_le_bytes());
        let start = self.buf.len();
        write(self.buf);
        assert_eq!(
            self.buf.len() - start,
            len,
            "batch entry length prefix must match the bytes written"
        );
        self.count += 1;
    }

    /// Patches the element count in. The body is complete afterwards.
    pub fn finish(self) {
        self.buf[self.count_pos..self.count_pos + 4].copy_from_slice(&self.count.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn stat_rows_read_and_add_the_fields_they_are_declared_on() {
        let mut a = ServiceStatsWire {
            shards: vec![ShardStatsWire::default()],
            store_puts: 2,
            store_bytes_written: 10,
            ..Default::default()
        };
        let b = ServiceStatsWire {
            shards: vec![ShardStatsWire::default(); 2],
            store_gets: 1,
            store_puts: 3,
            ..Default::default()
        };
        a.add_store(&b);
        assert_eq!(
            (a.store_gets, a.store_puts, a.store_bytes_written),
            (1, 5, 10)
        );
        assert_eq!(a.shards.len(), 1, "the shards are left alone");
        // One row per store field: the first of a family opens it, the
        // others are its further series.
        let rows = ServiceStatsWire::ROWS;
        assert_eq!(rows.len(), 6);
        assert_eq!(rows.iter().filter(|r| r.family.is_some()).count(), 2);
        assert_eq!(rows[1].label, [("op", "put")]);
        assert_eq!((rows[1].get)(&a), StatValue::Num(5.0));

        // Histograms add bucket by bucket, the shorter one padded.
        let mut x = ShardStatsWire {
            query_hist_us: vec![1, 2],
            ..Default::default()
        };
        let y = ShardStatsWire {
            query_hist_us: vec![0, 1, 4],
            in_sync: true,
            ..Default::default()
        };
        for row in ShardStatsWire::ROWS {
            (row.merge)(&mut x, &y);
        }
        assert_eq!(x.query_hist_us, [1, 3, 4]);
        assert!(x.in_sync);
        assert!(ShardStatsWire::ROWS
            .iter()
            .all(|r| r.family.is_some() && r.label.is_empty()));

        // Each sample has a cell of its name, and a snapshot reads it; the
        // label field stays at its default.
        let cells = ShardMetrics::default();
        cells.queries.add(3);
        cells.in_sync.set(true);
        cells
            .query_hist_us
            .record(std::time::Duration::from_micros(3));
        let snap = cells.snapshot();
        assert_eq!(
            (snap.shard, snap.queries, snap.in_sync, snap.query_hist_us),
            (0, 3, true, vec![0, 0, 1])
        );
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::CreateStream {
                stream: 1,
                t0: -5,
                delta_ms: 10_000,
                digest_width: 19,
            },
            Request::DeleteStream { stream: u128::MAX },
            Request::Insert {
                chunk: vec![1, 2, 3],
            },
            Request::InsertLive { record: vec![4, 5] },
            Request::GetLive {
                stream: 7,
                ts_s: -3,
                ts_e: 44,
            },
            Request::GetRange {
                stream: 7,
                ts_s: 0,
                ts_e: 1000,
            },
            Request::GetStatRange {
                streams: vec![1, 2, 3],
                ts_s: -10,
                ts_e: 10,
            },
            Request::DeleteRange {
                stream: 7,
                ts_s: 5,
                ts_e: 6,
            },
            Request::Rollup {
                stream: 7,
                before_ts: 99,
                keep_level: 2,
            },
            Request::StreamInfo { stream: 0 },
            Request::PutGrant {
                stream: 1,
                principal: "dr-alice".into(),
                blob: vec![9; 40],
            },
            Request::GetGrants {
                stream: 1,
                principal: "dr-alice".into(),
            },
            Request::RevokeGrants {
                stream: 1,
                principal: "dr-alice".into(),
            },
            Request::PutEnvelopes {
                stream: 2,
                resolution: 6,
                envelopes: vec![(0, vec![1]), (1, vec![2, 3])],
            },
            Request::GetEnvelopes {
                stream: 2,
                resolution: 6,
                lo: 3,
                hi: 9,
            },
            Request::PutAttestation {
                stream: 4,
                attestation: vec![8; 128],
            },
            Request::GetAttestation { stream: 4 },
            Request::GetRangeProof {
                stream: 4,
                ts_s: 0,
                ts_e: 500,
            },
            Request::GetVerifiedRange {
                stream: 4,
                ts_s: -1,
                ts_e: 500,
            },
            Request::InsertBatch {
                chunks: vec![vec![1, 2, 3], vec![], vec![9; 40]],
            },
            Request::Stats,
            Request::ListStreams { shard: 3 },
            Request::ExportStream {
                stream: 9,
                after: vec![b'i', b'/', 7],
            },
            Request::GetStatLeg {
                streams: vec![3, 1],
                ts_s: -10,
                ts_e: 10,
            },
            Request::ImportStream {
                stream: 10,
                after: vec![],
                records: vec![(vec![1], vec![2, 3]), (vec![4], vec![])],
                done: true,
            },
            Request::Ping,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Error(Refusal::new(RefusalKind::BadRequest, "boom")),
            Response::Chunks(vec![vec![], vec![1, 2]]),
            Response::Records(vec![vec![9], vec![]]),
            Response::Stat(StatReply {
                parts: vec![(1, 0, 10), (2, 5, 7)],
                agg: vec![1, u64::MAX],
            }),
            Response::Blobs(vec![vec![7; 3]]),
            Response::Envelopes(vec![(4, vec![1, 2, 3])]),
            Response::Info(StreamInfoWire {
                stream: 3,
                t0: 1,
                delta_ms: 2,
                digest_width: 4,
                len: 5,
            }),
            Response::Attested {
                attestation: vec![1; 128],
                proof: vec![2, 3],
            },
            Response::VerifiedChunks {
                attestation: vec![1; 128],
                proof: vec![2, 3],
                chunks: vec![vec![4], vec![]],
            },
            Response::Batch {
                errors: vec![
                    (3, Refusal::new(RefusalKind::Conflict, "out-of-order")),
                    (7, Refusal::new(RefusalKind::Ambiguous, "width")),
                ],
            },
            Response::Batch { errors: vec![] },
            Response::ServiceStats(ServiceStatsWire {
                shards: vec![
                    ShardStatsWire {
                        shard: 0,
                        streams: 2,
                        ingested_chunks: 100,
                        ingest_errors: 1,
                        queries: 7,
                        query_errors: 0,
                        queue_depth: 3,
                        failovers: 2,
                        replica_errors: 1,
                        promotions: 1,
                        rebuilds: 1,
                        rebuild_chunks_copied: 640,
                        in_sync: true,
                        ingest_hist_us: vec![0, 4, 90, 6],
                        query_hist_us: vec![1, 6],
                        resident_streams: 2,
                        hydrations: 9,
                        evictions: 7,
                    },
                    ShardStatsWire {
                        shard: 1,
                        ..Default::default()
                    },
                ],
                store_gets: 11,
                store_puts: 22,
                store_deletes: 0,
                store_scans: 5,
                store_bytes_read: 4096,
                store_bytes_written: 65_536,
            }),
            Response::StreamList(vec![1, 2]),
            Response::StreamList(vec![]),
            Response::Imported(2),
            Response::StreamChunks {
                records: vec![(vec![1, 2, 3], vec![]), (vec![9; 40], vec![5])],
                done: false,
            },
            Response::StreamChunks {
                records: vec![],
                done: true,
            },
            Response::StatLeg(StatLeg {
                parts: vec![(2, 0, 10), (2, 5, 7)],
                stop: None,
                agg: vec![1, u64::MAX],
            }),
            Response::StatLeg(StatLeg {
                parts: vec![(2, 0, 10)],
                stop: Some(Ok(3)),
                agg: vec![1, 2],
            }),
            Response::StatLeg(StatLeg {
                parts: vec![],
                stop: Some(Err(Refusal::new(
                    RefusalKind::NoSuchStream,
                    "no such stream 0x9",
                ))),
                agg: vec![],
            }),
            Response::Pong,
        ]
    }

    /// Every tag value ever shipped, under the name it shipped with: the
    /// one fact about the tag space the compiler cannot know. Append-only —
    /// a new message adds a line, and a retired message keeps its line, so
    /// its value is never handed to another message.
    const REQUEST_LEDGER: &[(u8, &str)] = &[
        (1, "CreateStream"),
        (2, "DeleteStream"),
        (3, "Insert"),
        (4, "GetRange"),
        (5, "GetStatRange"),
        (6, "DeleteRange"),
        (7, "Rollup"),
        (8, "StreamInfo"),
        (9, "PutGrant"),
        (10, "GetGrants"),
        (11, "RevokeGrants"),
        (12, "PutEnvelopes"),
        (13, "GetEnvelopes"),
        (14, "Ping"),
        (15, "InsertLive"),
        (16, "GetLive"),
        (17, "PutAttestation"),
        (18, "GetAttestation"),
        (19, "GetRangeProof"),
        (20, "GetVerifiedRange"),
        (21, "InsertBatch"),
        (22, "Stats"),
        (23, "ListStreams"),
        (24, "ExportStream"),
        (25, "REQ_TRACED"), // the PR 6 trace envelope: no variant
        (26, "GetStatLeg"),
        (27, "ImportStream"),
    ];

    /// As [`REQUEST_LEDGER`], for responses.
    const RESPONSE_LEDGER: &[(u8, &str)] = &[
        (1, "Ok"),
        (2, "Error"),
        (3, "Chunks"),
        (4, "Stat"),
        (5, "Blobs"),
        (6, "Envelopes"),
        (7, "Info"),
        (8, "Pong"),
        (9, "Records"),
        (10, "Attested"),
        (11, "VerifiedChunks"),
        (12, "Batch"),
        (13, "ServiceStats"),
        (14, "StreamList"),
        (15, "StreamChunks"),
        (16, "StatLeg"),
        (17, "Imported"),
    ];

    #[test]
    fn every_live_tag_is_in_the_ledger_under_its_own_name() {
        for (live, ledger) in [
            (Request::TAGS, REQUEST_LEDGER),
            (Response::TAGS, RESPONSE_LEDGER),
        ] {
            for (i, (tag, name)) in ledger.iter().enumerate() {
                assert!(
                    ledger[..i].iter().all(|(t, _)| t != tag),
                    "tag {tag} ({name}) has two ledger lines"
                );
            }
            for entry in live {
                assert!(
                    ledger.contains(entry),
                    "{entry:?} is not in the ledger: a new message adds a line, \
                     and a value that ever shipped is never given to another message"
                );
            }
        }
        assert!(REQUEST_LEDGER.contains(&(REQ_TRACED, "REQ_TRACED")));
    }

    #[test]
    fn sample_lists_cover_every_declared_tag() {
        // A message with no sample would silently escape every test below.
        let declared = |tags: &[(u8, &str)]| tags.iter().map(|t| t.0).collect::<BTreeSet<u8>>();
        let sampled: BTreeSet<u8> = all_requests().iter().map(|m| m.encode()[0]).collect();
        assert_eq!(sampled, declared(Request::TAGS));
        let sampled: BTreeSet<u8> = all_responses().iter().map(|m| m.encode()[0]).collect();
        assert_eq!(sampled, declared(Response::TAGS));
    }

    #[test]
    fn request_roundtrip() {
        for req in all_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn stream_routes_carry_the_requests_stream_field() {
        // `Route::Stream(s)` exactly for the variants with a `stream`
        // field, and `s` is that field (the list uses distinct ids).
        for req in all_requests() {
            let shown = format!("{req:?}");
            match req.route() {
                Route::Stream(s) => assert!(
                    [",", " }"]
                        .iter()
                        .any(|end| shown.contains(&format!("stream: {s}{end}"))),
                    "{shown}"
                ),
                _ => assert!(!shown.contains("stream:"), "{shown}"),
            }
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        for req in all_requests() {
            let mut buf = vec![0x77];
            req.encode_into(&mut buf);
            assert_eq!(buf[0], 0x77, "{req:?}: existing content preserved");
            assert_eq!(&buf[1..], &req.encode()[..], "{req:?}");
        }
        for resp in all_responses() {
            let mut buf = vec![0x77];
            resp.encode_into(&mut buf);
            assert_eq!(&buf[1..], &resp.encode()[..], "{resp:?}");
        }
    }

    #[test]
    fn borrowed_decode_matches_owned_decode() {
        // Every variant round-trips through the borrowed view, and the
        // bulk variants really borrow.
        for req in all_requests() {
            let bytes = req.encode();
            let borrowed = RequestRef::decode(&bytes).unwrap();
            if let RequestRef::Insert { chunk } = &borrowed {
                let range = bytes.as_ptr_range();
                assert!(range.contains(&chunk.as_ptr()), "chunk borrows the frame");
            }
            // An owned request lends the same view back.
            let lent = req.clone().with_ref(|view| view == borrowed);
            assert!(lent, "{req:?}");
            assert_eq!(borrowed.to_owned(), req, "{req:?}");
        }
    }

    #[test]
    fn borrowed_decode_rejects_what_owned_rejects() {
        for req in all_requests() {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                assert!(
                    RequestRef::decode(&bytes[..cut]).is_err(),
                    "{req:?} cut {cut}"
                );
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(RequestRef::decode(&trailing).is_err(), "{req:?} trailing");
        }
    }

    #[test]
    fn batch_encoder_matches_owned_request_encoding() {
        let chunks: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![9; 300]];
        let mut frame = vec![0xab]; // pre-existing content survives
        let mut enc = BatchEncoder::begin(&mut frame);
        for c in &chunks {
            enc.append_with(c.len(), |buf| buf.extend_from_slice(c));
        }
        enc.finish();
        assert_eq!(frame[0], 0xab);
        assert_eq!(&frame[1..], &Request::InsertBatch { chunks }.encode()[..]);
        // Empty batch.
        let mut frame = Vec::new();
        BatchEncoder::begin(&mut frame).finish();
        assert_eq!(frame, Request::InsertBatch { chunks: vec![] }.encode());
    }

    #[test]
    #[should_panic(expected = "length prefix")]
    fn batch_encoder_rejects_lying_length() {
        let mut frame = Vec::new();
        let mut enc = BatchEncoder::begin(&mut frame);
        enc.append_with(4, |buf| buf.push(0));
    }

    #[test]
    fn response_roundtrip() {
        for resp in all_responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn refusal_kinds_are_the_bytes_from_zero_and_no_other_byte_is_one() {
        for (byte, (tag, name)) in (0u8..).zip(RefusalKind::TAGS) {
            let kind = RefusalKind::decode(&[byte]).unwrap();
            assert_eq!(
                (*tag, format!("{kind:?}"), kind.encode()),
                (byte, name.to_string(), vec![byte])
            );
        }
        let past = RefusalKind::TAGS.len() as u8;
        assert_eq!(RefusalKind::decode(&[past]), Err(WireError::BadTag(past)));
    }

    #[test]
    fn truncated_messages_rejected() {
        for req in all_requests() {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                assert!(Request::decode(&bytes[..cut]).is_err(), "{req:?} cut {cut}");
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert_eq!(Request::decode(&[200]), Err(WireError::BadTag(200)));
        assert_eq!(Response::decode(&[200]), Err(WireError::BadTag(200)));
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn trace_envelope_roundtrips_every_request() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef_dead_beef_dead_beef_dead_beef,
            span_id: 0x1234_5678_9abc_def0,
        };
        for req in all_requests() {
            let mut body = Vec::new();
            encode_trace_prefix(ctx, &mut body);
            req.encode_into(&mut body);
            let (got_ctx, inner) = split_trace(&body).unwrap();
            assert_eq!(got_ctx, Some(ctx), "{req:?}");
            assert_eq!(Request::decode(inner).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn untraced_bodies_pass_through_split_unchanged() {
        // The compat direction: bytes from a pre-envelope encoder reach
        // the handler exactly as sent.
        for req in all_requests() {
            let bytes = req.encode();
            let (ctx, inner) = split_trace(&bytes).unwrap();
            assert_eq!(ctx, None, "{req:?}");
            assert_eq!(inner, &bytes[..], "{req:?}");
        }
    }

    #[test]
    fn untraced_encoding_is_byte_identical_to_pre_envelope_wire() {
        // With no context attached nothing about request encoding
        // changed: a legacy decoder accepts every new encoder's output.
        // (The legacy decoder is `Request::decode` itself — it still
        // rejects the envelope tag, which is what a legacy peer does.)
        for req in all_requests() {
            assert!(Request::decode(&req.encode()).is_ok(), "{req:?}");
        }
        let mut traced = Vec::new();
        encode_trace_prefix(
            TraceContext {
                trace_id: 1,
                span_id: 2,
            },
            &mut traced,
        );
        Request::Ping.encode_into(&mut traced);
        assert_eq!(Request::decode(&traced), Err(WireError::BadTag(REQ_TRACED)));
    }

    #[test]
    fn truncated_trace_envelope_rejected() {
        let ctx = TraceContext {
            trace_id: 9,
            span_id: 9,
        };
        let mut body = Vec::new();
        encode_trace_prefix(ctx, &mut body);
        Request::Ping.encode_into(&mut body);
        for cut in 1..TRACE_PREFIX_LEN {
            assert_eq!(split_trace(&body[..cut]), Err(WireError::Truncated));
        }
        // A bare envelope with no inner request splits fine but the inner
        // decode fails — no request materializes out of nothing.
        let (_, inner) = split_trace(&body[..TRACE_PREFIX_LEN]).unwrap();
        assert!(Request::decode(inner).is_err());
        // Nested envelopes don't decode: the inner bytes must be a plain
        // request.
        let mut nested = Vec::new();
        encode_trace_prefix(ctx, &mut nested);
        encode_trace_prefix(ctx, &mut nested);
        Request::Ping.encode_into(&mut nested);
        let (_, inner) = split_trace(&nested).unwrap();
        assert_eq!(Request::decode(inner), Err(WireError::BadTag(REQ_TRACED)));
    }
}

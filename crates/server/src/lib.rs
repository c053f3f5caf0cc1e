//! The TimeCrypt server engine (paper §3.2, §4.5, §4.6).
//!
//! The server is *untrusted*: it stores sealed chunks, maintains the
//! encrypted aggregation index over HEAC digest ciphertexts, serves
//! statistical and raw range queries, and hosts the key store of opaque
//! grant blobs and resolution envelopes. It never holds a key and never
//! sees a plaintext value — every operation below works on ciphertext.
//!
//! Instances are stateless apart from the KV store behind them ("TimeCrypt
//! instances are stateless and therefore horizontally scalable", §3.2):
//! [`TimeCryptServer::open`] builds a stream *directory* from the store
//! in one scan and hydrates each stream's state (the tree handle: its
//! length and open spine, O(k·log_k n) reads whatever the history) lazily
//! on first touch, behind a resident LRU bounded by
//! [`ServerConfig::max_resident_streams`] — so open time and resident RAM
//! scale with the streams actually used, not the streams stored nor their
//! length (see the `engine` module docs for the hydration state machine).
//! The integrity ledger is a per-stream cache only proof requests fill.
//!
//! # Locking model
//!
//! The engine splits each stream's state so the read path never waits on
//! the write path (§6 sells low-latency queries *concurrent with*
//! sustained ingest):
//!
//! * **The stream's stripe, whole call:** every call that changes a
//!   stream's records — `insert`, `rollup`, `delete_range`,
//!   `create_stream`, `delete_stream`, `import_stream`, and the key
//!   store's and attestation's writes — and a cold touch while it opens
//!   the stream. Writers serialize against each other only. A stream's
//!   stripe (lock class `stream`, ordered before `registry`) is one of a
//!   fixed table of 1 024 created at open, picked by the stream id, so
//!   the streams of one stripe share it.
//! * **Registry mutex (short critical sections):** every operation's
//!   stream lookup — a resident hit is a map probe plus a recency bump;
//!   cold-touch hydration reads the store *outside* this lock, under the
//!   stream's stripe alone.
//! * **Shared, lock-free:** `stream_stat` / `get_stat_range`, `get_range`,
//!   `stream_info`, and `insert_live`'s staleness check — these read the
//!   immutable stream metadata and query the aggregation tree against an
//!   atomically published chunk-count snapshot
//!   (see `timecrypt_index::tree` for the exactness argument).
//! * **Shared (ledger read lock):** `get_range_proof` and
//!   `get_verified_range`. Proof builders run concurrently; one that finds
//!   the ledger short of the attested size takes it exclusively while it
//!   reads the missing level-0 records back. Ingest never takes it.
//!
//! **Snapshot semantics:** a query observes the chunk prefix `[0, len)`
//! published when it began; a chunk whose insert races the query appears
//! in replies that start after the insert's length publication. Replies
//! are always exact for the prefix they report. Fine-grained queries into
//! a region aged out by `rollup` surface [`ServerError::RangeDecayed`]
//! (distinct from corruption).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod engine;
pub mod keystore;
pub mod stat;

pub use engine::{ResidencyStats, ServerConfig, ServerError, TimeCryptServer, EXPORT_PAGE_BYTES};
pub use stat::{StatLeg, StreamStat};
pub use timecrypt_index::keys;

//! # TimeCrypt
//!
//! A from-scratch Rust implementation of **TimeCrypt: Encrypted Data Stream
//! Processing at Scale with Cryptographic Access Control** (NSDI 2020).
//!
//! TimeCrypt is an encrypted time series data store: the server ingests and
//! indexes only ciphertext, serves statistical range queries (sum, count,
//! mean, variance, histogram, min/max) directly over encrypted digests via
//! an additively homomorphic scheme (HEAC), and the data owner controls —
//! cryptographically — which time ranges and which temporal *resolutions*
//! each principal can decrypt.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — HEAC: key-derivation tree, key canceling,
//!   dual key regression, resolution envelopes (the paper's contribution).
//! * [`crypto`] — SHA-256/HMAC, AES-128 (+AES-NI),
//!   AES-GCM, PRGs (all from scratch).
//! * [`chunk`] — data model, digests, compression,
//!   chunk sealing.
//! * [`index`] — the k-ary time-partitioned aggregation
//!   tree with LRU node cache.
//! * [`store`] — KV engines (memory / persistent log) and the
//!   op-metering decorator.
//! * [`server`] — the untrusted server engine.
//! * [`service`] — the sharded concurrent serving tier:
//!   shard-routed backends (in-process engines and/or remote
//!   `timecrypt-node` processes over TCP, with optional R=2
//!   replication), batched ingest and scatter-gather statistical
//!   queries on the caller's thread, per-shard metrics.
//! * [`client`] — producer, data owner, consumer.
//! * [`wire`] — framing + TCP transport.
//! * [`faults`] — deterministic fault injection: seeded
//!   `FaultPlan` schedules, a `FaultyKv` store decorator, a
//!   `FaultyTransport` frame-level proxy (chaos tests).
//! * [`pk`] — the public-key substrate: bignum/Montgomery arithmetic,
//!   P-256, ECDSA (attestations), ECIES (sealed grants).
//! * [`integrity`] — the Verena-style extension
//!   (§3.3): authenticated aggregation proofs and signed root attestations
//!   giving completeness/correctness on top of confidentiality.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end owner → producer →
//! consumer flow, `examples/multi_node_cluster.rs` for a replicated
//! two-node cluster with failover, and `crates/bench/README.md` for
//! reproducing the paper's tables and figures (the strawman baselines live
//! there, in `timecrypt-bench`, outside this facade).
//!
//! ## Architecture
//!
//! The full deployment architecture — layer diagram (client → coordinator
//! → node → engine → store), shard-routing and replication invariants,
//! and the locking model — is documented in
//! [ARCHITECTURE.md](https://github.com/timecrypt-rs/timecrypt/blob/main/ARCHITECTURE.md)
//! at the repository root.

pub use timecrypt_chunk as chunk;
pub use timecrypt_client as client;
pub use timecrypt_core as core;
pub use timecrypt_crypto as crypto;
pub use timecrypt_faults as faults;
pub use timecrypt_index as index;
pub use timecrypt_integrity as integrity;
pub use timecrypt_pk as pk;
pub use timecrypt_server as server;
pub use timecrypt_service as service;
pub use timecrypt_store as store;
pub use timecrypt_wire as wire;

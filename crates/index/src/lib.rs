//! Encrypted statistical index: a running sum per chunk (paper §4.5,
//! Fig. 4, as prefix sums).
//!
//! The server stores, with each chunk, the homomorphic sum of the stream's
//! HEAC-encrypted digests through it. A statistical range query is the
//! difference of two such sums — two record reads at most — instead of a
//! serial scan or a tree walk; an append rewrites nothing. Because HEAC
//! addition *is* u64 wrapping addition, the very same code serves the
//! plaintext baseline (`Vec<u64>`), and — via the [`HomDigest`]
//! abstraction, whose subtraction a prefix difference needs — the Paillier
//! and EC-ElGamal strawman ciphertexts in `timecrypt-bench`.
//!
//! Records go through any [`timecrypt_store::KvStore`], with an LRU cache
//! of the running sums queries read in front, sized in bytes (the Fig. 7
//! "tiny 1 MB cache" experiment shrinks it to force misses). Record keys
//! are computed from `(stream, chunk)` — no stored references (§4.6) — by
//! [`keys`], which declares the key of every record a stream owns.
//!
//! # Locking model
//!
//! [`AggTree`] is a *shared* handle: queries take `&self`, never block on
//! the write path, and run against a consistent snapshot of the published
//! length, last running sum and decay cutoffs. `append`, `retag` and
//! `decay` also take `&self` but are serialized by an internal writer
//! mutex; the published state sits behind a read-write lock the writer
//! takes only to publish, the cache behind its own mutexes, locked per
//! lookup. Any number of readers therefore proceed while an append is in
//! flight — see `tree` module docs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod cache;
pub mod digest;
pub mod keys;
pub mod tree;

pub use cache::LruCache;
pub use digest::HomDigest;
pub use tree::{leaf_record, stored_chunk_count, AggTree, IndexError, TreeConfig, TreeStats};

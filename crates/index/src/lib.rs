//! Encrypted statistical index: the k-ary time-partitioned aggregation tree
//! (paper §4.5, Fig. 4).
//!
//! The server builds this tree bottom-up over the HEAC-encrypted chunk
//! digests. Each node holds the digests of its k children; a parent entry is
//! the homomorphic sum of a whole child subtree. Statistical range queries
//! decompose into O(2(k−1)·log_k n) digest additions instead of a serial
//! scan; appends touch log_k n nodes. Because HEAC addition *is* u64
//! wrapping addition, the very same tree code serves the plaintext baseline
//! (`Vec<u64>`), and — via the [`HomDigest`] abstraction — the Paillier and
//! EC-ElGamal strawman ciphertexts in `timecrypt-bench`.
//!
//! Node storage goes through any [`timecrypt_store::KvStore`], with an LRU
//! cache in front sized in bytes (the Fig. 7 "tiny 1 MB cache" experiment
//! shrinks it to force misses). Node identifiers are computed from
//! `(stream, level, index)` — no stored references (§4.6) — by [`keys`],
//! which declares the key of every record a stream owns. A node is
//! stored once, when it is full; the partial node of each level lives in
//! memory and is rebuilt on open from the per-chunk level-0 records. In
//! memory a node is the bytes it is stored as, one buffer: the cache's
//! budget counts the bytes it actually holds, and a [`HomDigest`] is added
//! up from its encoding where it lies (Table 2's point — a HEAC index is
//! byte for byte the plaintext one — holds for RAM as for the store).
//!
//! # Locking model
//!
//! [`AggTree`] is a *shared* handle: queries take `&self`, never block on
//! the write path, and run against a consistent snapshot of the published
//! chunk count (an atomic `len` with `Release`-publish / `Acquire`-read
//! ordering). `append` and `decay` also take `&self` but are serialized by
//! an internal writer mutex; the open nodes sit behind a read-write lock
//! the writer takes only to swap them, the node cache behind its own
//! mutexes, locked per node access. Any number of readers therefore
//! proceed while an append is in flight — see `tree` module docs for the
//! exactness argument.

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

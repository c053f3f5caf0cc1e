//! Encrypted statistical index: a running sum per chunk (paper §4.5,
//! Fig. 4, as prefix sums).
//!
//! The server stores, with each chunk, the homomorphic sum of the stream's
//! HEAC-encrypted digests through it. A statistical range query is the
//! difference of two such sums — two record reads at most — instead of a
//! serial scan or a tree walk; an append rewrites nothing. HEAC addition
//! *is* wrapping `u64` addition (Table 2: zero expansion), so a sum is
//! words ([`decode_sum`], [`fold_sum`]) and plaintext digests sum the same
//! way; the strawman ciphertexts keep a column of their own in
//! `timecrypt-bench`.
//!
//! Records go through any [`timecrypt_store::KvStore`], with a cache of the
//! running sums queries re-read in front ([`cache`]), one per node and
//! capped in bytes (the Fig. 7 "tiny 1 MB cache" experiment shrinks it to
//! force misses). Record keys
//! are computed from `(stream, chunk)` — no stored references (§4.6) — by
//! [`keys`], which declares the key of every record a stream owns.
//! [`AggTree`] is a *shared* handle: queries never block on the write path
//! ([`tree`]'s module docs, "Concurrency").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod cache;
pub mod keys;
pub mod tree;

pub use cache::BoundaryCache;
pub use tree::{decode_sum, fold_sum, leaf_record, stored_chunk_count, DEFAULT_CACHE_BYTES};
pub use tree::{AggTree, IndexError, TreeConfig, TreeStats};

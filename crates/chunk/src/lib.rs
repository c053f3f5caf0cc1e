//! Time series data model, chunking, digests, and compression (paper §4.1).
//!
//! TimeCrypt serializes streams into fixed-Δ *chunks* of consecutive data
//! points. Each chunk carries:
//!
//! * a compressed, AES-GCM-encrypted **payload** (the raw points), and
//! * an HEAC-encrypted **digest** — the vector of aggregate statistics
//!   (sum, count, sum-of-squares, histogram bins) the server indexes for
//!   statistical queries (§4.5).
//!
//! | Module | Content |
//! |--------|---------|
//! | [`model`] | Data points, stream metadata, time↔chunk-index mapping |
//! | [`schema`] | Digest layout: which statistics a stream supports, digest computation, client-side interpretation (mean/var/min/max/histogram) |
//! | [`compress`] | Lossless codecs: varint + zigzag + delta (+ RLE), Gorilla bit packing, and best-of auto-selection — the TSDB-standard substitution for the paper's zlib default |
//! | [`bits`] | MSB-first bit reader/writer backing the Gorilla codec |
//! | [`serialize`] | Chunk wire layout, payload encryption, chunk builder |

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod bits;
pub mod compress;
pub mod model;
pub mod schema;
pub mod serialize;

pub use compress::Codec;
pub use model::{ChunkId, DataPoint, StreamConfig, StreamId};
pub use schema::{DigestOp, DigestSchema, StatSummary};
pub use serialize::{
    ChunkBuilder, ChunkRef, ChunkSealer, DigestWords, EncryptedChunk, PlainChunk, SealedRecord,
};

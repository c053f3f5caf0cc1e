//! The stream the multi-tier tests seal: a sum and a count per 10 s chunk,
//! one point a chunk, its chunk bytes a function of the stream, the index
//! and the value.

use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt::core::StreamKeyMaterial;
use timecrypt::crypto::{PrgKind, SecureRandom};

/// Stream `id`'s key material.
pub fn keys(id: u128) -> StreamKeyMaterial {
    StreamKeyMaterial::with_params(id, [(id as u8).wrapping_add(3); 16], 22, PrgKind::Aes).unwrap()
}

/// Stream `id`'s config.
pub fn stream_cfg(id: u128) -> StreamConfig {
    StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "m", 0, 10_000)
    }
}

/// Chunk `index` of stream `id`: one point of `value` at its start.
pub fn sealed(id: u128, index: u64, value: i64) -> EncryptedChunk {
    let mut rng = SecureRandom::from_seed_insecure(400 + index);
    PlainChunk {
        stream: id,
        index,
        points: vec![DataPoint::new(index as i64 * 10_000, value)],
    }
    .seal(&stream_cfg(id), &keys(id), &mut rng)
    .unwrap()
}

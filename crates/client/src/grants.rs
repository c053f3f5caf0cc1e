//! Grant blobs: the sealed key material a principal receives.
//!
//! A grant carries everything a consumer needs to use a stream within its
//! scope: the stream descriptor (epoch, Δ, digest schema, tree parameters)
//! plus either tree access tokens (full-resolution range access, §4.2.3) or
//! a dual-key-regression token (resolution-restricted access, §4.4). The
//! whole blob is ECIES-sealed to the principal's public key before it is
//! stored in the server's key store (§3.2).

use timecrypt_chunk::schema::{DigestOp, DigestSchema};
use timecrypt_core::dualkr::{KrState, KrToken};
use timecrypt_core::kdtree::{AccessToken, NodeLabel};
use timecrypt_crypto::PrgKind;
use timecrypt_wire::codec::{ByteReader, ByteWriter, WireError};

/// Non-secret stream parameters a consumer needs for interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDescriptor {
    /// Stream id.
    pub stream: u128,
    /// Epoch ms of chunk 0.
    pub t0: i64,
    /// Chunk interval Δ ms.
    pub delta_ms: u64,
    /// Key tree height.
    pub tree_height: u8,
    /// Key tree PRG.
    pub prg: PrgKind,
    /// Digest layout.
    pub schema: DigestSchema,
}

/// The scope-specific key material inside a grant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grant {
    /// Full-resolution access to chunk range `[chunk_lo, chunk_hi]`
    /// boundaries inclusive (leaves `chunk_lo..=chunk_hi + 1` are covered by
    /// the tokens so that every in-range aggregate decrypts).
    Full {
        /// Stream parameters.
        descriptor: StreamDescriptor,
        /// First decryptable chunk.
        chunk_lo: u64,
        /// One-past-last decryptable chunk.
        chunk_hi: u64,
        /// The tree access tokens.
        tokens: Vec<AccessToken>,
    },
    /// Resolution-restricted access: dual-KR token for the envelope window.
    Resolution {
        /// Stream parameters.
        descriptor: StreamDescriptor,
        /// Aggregation granularity in chunks.
        resolution: u64,
        /// Dual key regression token (envelope indices window).
        token: KrToken,
    },
}

/// A PRG's wire byte. Byte 1 named software AES, which is `Aes` on the
/// portable backend — the same keys — and is refused.
fn encode_prg(p: PrgKind) -> u8 {
    match p {
        PrgKind::Aes => 0,
        PrgKind::Sha256 => 2,
    }
}

fn decode_prg(b: u8) -> Result<PrgKind, WireError> {
    match b {
        0 => Ok(PrgKind::Aes),
        2 => Ok(PrgKind::Sha256),
        other => Err(WireError::BadTag(other)),
    }
}

fn encode_schema(w: &mut ByteWriter, s: &DigestSchema) {
    w.u32(s.ops().len() as u32);
    for op in s.ops() {
        match op {
            DigestOp::Sum => {
                w.u8(0);
            }
            DigestOp::Count => {
                w.u8(1);
            }
            DigestOp::SumSquares => {
                w.u8(2);
            }
            DigestOp::Histogram { bounds } => {
                w.u8(3).u32(bounds.len() as u32);
                for &b in bounds {
                    w.i64(b);
                }
            }
        }
    }
}

fn decode_schema(r: &mut ByteReader) -> Result<DigestSchema, WireError> {
    let n = r.u32()? as usize;
    if n > 4096 {
        return Err(WireError::TooLarge(n));
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(match r.u8()? {
            0 => DigestOp::Sum,
            1 => DigestOp::Count,
            2 => DigestOp::SumSquares,
            3 => {
                let b = r.u32()? as usize;
                if b > 65536 {
                    return Err(WireError::TooLarge(b));
                }
                let mut bounds = Vec::with_capacity(b);
                for _ in 0..b {
                    bounds.push(r.i64()?);
                }
                DigestOp::Histogram { bounds }
            }
            t => return Err(WireError::BadTag(t)),
        });
    }
    Ok(DigestSchema::new(ops))
}

fn encode_descriptor(w: &mut ByteWriter, d: &StreamDescriptor) {
    w.u128(d.stream)
        .i64(d.t0)
        .u64(d.delta_ms)
        .u8(d.tree_height)
        .u8(encode_prg(d.prg));
    encode_schema(w, &d.schema);
}

fn decode_descriptor(r: &mut ByteReader) -> Result<StreamDescriptor, WireError> {
    Ok(StreamDescriptor {
        stream: r.u128()?,
        t0: r.i64()?,
        delta_ms: r.u64()?,
        tree_height: r.u8()?,
        prg: decode_prg(r.u8()?)?,
        schema: decode_schema(r)?,
    })
}

fn encode_kr_state(w: &mut ByteWriter, s: &KrState) {
    w.u64(s.index);
    w.bytes(&s.state);
}

fn decode_kr_state(r: &mut ByteReader) -> Result<KrState, WireError> {
    let index = r.u64()?;
    let bytes = r.bytes()?;
    let state: [u8; 32] = bytes.try_into().map_err(|_| WireError::Truncated)?;
    Ok(KrState { index, state })
}

impl Grant {
    /// Serializes the grant (pre-ECIES plaintext).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Grant::Full {
                descriptor,
                chunk_lo,
                chunk_hi,
                tokens,
            } => {
                w.u8(1);
                encode_descriptor(&mut w, descriptor);
                w.u64(*chunk_lo).u64(*chunk_hi).u32(tokens.len() as u32);
                for t in tokens {
                    w.u8(t.label.depth).u64(t.label.index).bytes(&t.node);
                }
            }
            Grant::Resolution {
                descriptor,
                resolution,
                token,
            } => {
                w.u8(2);
                encode_descriptor(&mut w, descriptor);
                w.u64(*resolution);
                encode_kr_state(&mut w, &token.upper);
                encode_kr_state(&mut w, &token.lower);
            }
        }
        w.into_bytes()
    }

    /// Parses a grant.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(buf);
        let grant = match r.u8()? {
            1 => {
                let descriptor = decode_descriptor(&mut r)?;
                let chunk_lo = r.u64()?;
                let chunk_hi = r.u64()?;
                let n = r.u32()? as usize;
                if n > 4096 {
                    return Err(WireError::TooLarge(n));
                }
                let mut tokens = Vec::with_capacity(n);
                for _ in 0..n {
                    let depth = r.u8()?;
                    let index = r.u64()?;
                    let node: [u8; 16] = r.bytes()?.try_into().map_err(|_| WireError::Truncated)?;
                    tokens.push(AccessToken {
                        label: NodeLabel { depth, index },
                        node,
                    });
                }
                Grant::Full {
                    descriptor,
                    chunk_lo,
                    chunk_hi,
                    tokens,
                }
            }
            2 => Grant::Resolution {
                descriptor: decode_descriptor(&mut r)?,
                resolution: r.u64()?,
                token: KrToken {
                    upper: decode_kr_state(&mut r)?,
                    lower: decode_kr_state(&mut r)?,
                },
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(grant)
    }

    /// The stream descriptor.
    pub fn descriptor(&self) -> &StreamDescriptor {
        match self {
            Grant::Full { descriptor, .. } | Grant::Resolution { descriptor, .. } => descriptor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> StreamDescriptor {
        StreamDescriptor {
            stream: 77,
            t0: 1_000,
            delta_ms: 10_000,
            tree_height: 24,
            prg: PrgKind::Aes,
            schema: DigestSchema::standard(),
        }
    }

    #[test]
    fn full_grant_roundtrip() {
        let g = Grant::Full {
            descriptor: descriptor(),
            chunk_lo: 5,
            chunk_hi: 100,
            tokens: vec![
                AccessToken {
                    label: NodeLabel { depth: 3, index: 2 },
                    node: [9u8; 16],
                },
                AccessToken {
                    label: NodeLabel {
                        depth: 24,
                        index: 101,
                    },
                    node: [1u8; 16],
                },
            ],
        };
        assert_eq!(Grant::decode(&g.encode()).unwrap(), g);
    }

    #[test]
    fn every_prg_wire_byte_roundtrips() {
        for (byte, prg) in [(0, PrgKind::Aes), (2, PrgKind::Sha256)] {
            assert_eq!((encode_prg(prg), decode_prg(byte)), (byte, Ok(prg)));
            let g = Grant::Full {
                descriptor: StreamDescriptor {
                    prg,
                    ..descriptor()
                },
                chunk_lo: 0,
                chunk_hi: 1,
                tokens: Vec::new(),
            };
            assert_eq!(Grant::decode(&g.encode()).unwrap(), g);
        }
        for byte in [1, 3] {
            assert_eq!(decode_prg(byte), Err(WireError::BadTag(byte)));
        }
    }

    #[test]
    fn resolution_grant_roundtrip() {
        let g = Grant::Resolution {
            descriptor: descriptor(),
            resolution: 6,
            token: KrToken {
                upper: KrState {
                    index: 40,
                    state: [3u8; 32],
                },
                lower: KrState {
                    index: 7,
                    state: [4u8; 32],
                },
            },
        };
        assert_eq!(Grant::decode(&g.encode()).unwrap(), g);
    }

    #[test]
    fn schema_with_histogram_roundtrips() {
        let mut d = descriptor();
        d.schema = DigestSchema::new(vec![
            DigestOp::Histogram {
                bounds: vec![-5, 0, 5],
            },
            DigestOp::Sum,
        ]);
        let g = Grant::Full {
            descriptor: d,
            chunk_lo: 0,
            chunk_hi: 1,
            tokens: vec![],
        };
        assert_eq!(Grant::decode(&g.encode()).unwrap(), g);
    }

    #[test]
    fn corrupt_grants_rejected() {
        let g = Grant::Full {
            descriptor: descriptor(),
            chunk_lo: 0,
            chunk_hi: 1,
            tokens: vec![AccessToken {
                label: NodeLabel { depth: 1, index: 0 },
                node: [0u8; 16],
            }],
        };
        let bytes = g.encode();
        for cut in 0..bytes.len() {
            assert!(Grant::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        assert!(Grant::decode(&[99]).is_err());
    }
}

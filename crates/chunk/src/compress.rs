//! The chunk payload's encoding (paper §4.1, footnote 2).
//!
//! The paper: *"TimeCrypt supports various lossless compression
//! techniques, with zlib as default."* This reproduction has one, the
//! delta coding time-series stores use: timestamps and values are
//! delta-encoded, zigzag-mapped, and varint-packed. zlib would be an
//! external dependency the workspace does not take; delta coding keeps the
//! evaluated behaviour (chunks shrink before encryption, ≈ 2 bytes a point
//! on regular series; the cost is on the client's ingest path).
//!
//! Encoded layout: the codec byte `1`, the point count (varint), then per
//! point the zigzag varints of its timestamp's and its value's difference
//! from the previous point (from zero for the first). The leading byte
//! keeps every stored chunk's bytes as they are; a payload that leads with
//! any other byte is refused.

use crate::model::DataPoint;

/// The payload's leading byte.
const DELTA: u8 = 1;

/// Decode failures (corrupt or truncated payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Payload ended mid-value.
    Truncated,
    /// Unknown codec byte.
    UnknownCodec(u8),
    /// A varint exceeded 10 bytes (not canonical u64).
    Overlong,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::Overlong => write!(f, "overlong varint"),
        }
    }
}

impl std::error::Error for CodecError {}

/// LEB128 unsigned varint encode.
fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 unsigned varint decode; advances `pos`.
fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(CodecError::Overlong);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Overlong);
        }
    }
}

/// Zigzag map: small-magnitude signed values → small unsigned values.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse zigzag map.
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a chunk's points.
pub fn compress(points: &[DataPoint]) -> Vec<u8> {
    let mut out = Vec::with_capacity(points.len() * 4 + 8);
    compress_into(points, &mut out);
    out
}

/// [`compress`] appending to a caller-provided buffer (chunk sealing
/// compresses straight into the payload, behind the nonce).
pub fn compress_into(points: &[DataPoint], out: &mut Vec<u8>) {
    out.push(DELTA);
    put_uvarint(out, points.len() as u64);
    let mut prev = DataPoint::new(0, 0);
    for p in points {
        put_uvarint(out, zigzag(p.ts.wrapping_sub(prev.ts)));
        put_uvarint(out, zigzag(p.value.wrapping_sub(prev.value)));
        prev = *p;
    }
}

/// Decompresses a payload produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<DataPoint>, CodecError> {
    match data.first() {
        None => return Err(CodecError::Truncated),
        Some(&DELTA) => {}
        Some(&id) => return Err(CodecError::UnknownCodec(id)),
    }
    let mut pos = 1;
    let n = get_uvarint(data, &mut pos)? as usize;
    // A point takes at least two bytes: a cheap corruption check before
    // reserving memory.
    if (data.len() - pos) / 2 < n {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(n);
    let mut prev = DataPoint::new(0, 0);
    for _ in 0..n {
        prev.ts = prev.ts.wrapping_add(unzigzag(get_uvarint(data, &mut pos)?));
        prev.value = prev
            .value
            .wrapping_add(unzigzag(get_uvarint(data, &mut pos)?));
        out.push(prev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<DataPoint> {
        (0..500)
            .map(|i| DataPoint::new(1_000_000 + i * 20, 70 + (i % 7) - 3))
            .collect()
    }

    /// The delta payload's bytes, pinned: every sealed chunk, stored record
    /// and wire frame holds them. The 500 regular points are pinned by
    /// length and SHA-256.
    #[test]
    fn delta_payload_bytes_are_pinned() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let golden = |points: &[DataPoint]| hex(&compress(points));
        assert_eq!(golden(&[]), "0100");
        assert_eq!(golden(&[DataPoint::new(-42, 7)]), "0101530e");
        let extremes = [
            DataPoint::new(i64::MIN, i64::MAX),
            DataPoint::new(i64::MAX, i64::MIN),
        ];
        assert_eq!(
            golden(&extremes),
            "0102ffffffffffffffffff01feffffffffffffffff010102"
        );
        let regular = compress(&sample_points());
        let digest = hex(&timecrypt_crypto::sha256(&regular));
        let pinned = "9d90259e6a5c1857b743f1a9afd34af2bce3e1e22734406226a164ed94c91c29";
        assert_eq!((regular.len(), digest.as_str()), (1006, pinned));
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncated_detected() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_uvarint(&buf, &mut pos), Err(CodecError::Truncated));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn points_roundtrip() {
        let extremes = vec![
            DataPoint::new(i64::MIN, i64::MAX),
            DataPoint::new(i64::MAX, i64::MIN),
            DataPoint::new(0, 0),
            DataPoint::new(-1, 1),
        ];
        let one = vec![DataPoint::new(-42, i64::MIN)];
        for points in [sample_points(), vec![], one, extremes] {
            assert_eq!(decompress(&compress(&points)).unwrap(), points);
        }
    }

    #[test]
    fn delta_compresses_regular_data() {
        // 500 points at fixed rate with small value wobble: delta coding
        // must beat raw 16-bytes-per-point materially.
        let points = sample_points();
        let delta = compress(&points).len();
        assert!(delta < points.len() * 16 / 4, "delta {delta}");
    }

    #[test]
    fn any_other_codec_byte_is_refused() {
        let mut enc = compress(&sample_points());
        for id in [0, 2, 3, 255] {
            enc[0] = id;
            assert_eq!(decompress(&enc), Err(CodecError::UnknownCodec(id)));
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let enc = compress(&sample_points());
        for cut in [0, 1, 3, enc.len() / 2, enc.len() - 1] {
            assert!(decompress(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }
}

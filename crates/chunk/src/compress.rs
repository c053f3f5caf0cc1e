//! The chunk payload's encoding (paper §4.1, footnote 2).
//!
//! The paper compresses with zlib; this reproduction block-codes deltas
//! (frame of reference with bit packing; Lemire and Boytsov, SP&E 2015):
//! no external dependency, and a series' small deltas are stored at the
//! width they need. Layout: the codec byte `2`, the point count, and for a
//! chunk with points the first timestamp and value (zigzag varints); then
//! the `n − 1` timestamp steps, then the `n − 1` value deltas, each as
//! zigzag codes in blocks of [`BLOCK`]. A block is a header byte, then
//! - for a width `w` in `0..=64`, its smallest code (varint) and its `k`
//!   codes less that in `w` bits each, least significant first (`⌈k·w/8⌉`
//!   bytes; a regular series' timestamp block is a width-0 header and its
//!   step), or
//! - for `0xff`, its codes as plain varints, where they are shorter (an
//!   outlier widens every code of a packed block): no block is more than
//!   its header byte larger than its codes as varints.
//!
//! 64 codes amortise a header and a base (≈ 2 B) to a quarter of a bit a
//! code and keep an outlier's width to its own block. Mean coded points on
//! the benchmark's seeded chunks: ≈ 16 B for 6 DevOps points (a 10 s step),
//! ≈ 32 and 229 B for 50 and 500 mHealth points (a ±2 walk: 3 bits a
//! value), where a varint a delta took ≈ 27, 155 and 1 007 B. A payload
//! that leads with any other byte is refused.

use crate::model::DataPoint;

/// The payload's leading byte.
const CODEC: u8 = 2;
/// Codes per block.
pub const BLOCK: usize = 64;
/// The header of a block of plain varints.
const VARINTS: u8 = 0xff;

/// Decode failures (corrupt or truncated payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Payload ended mid-value.
    Truncated,
    /// Unknown codec byte.
    UnknownCodec(u8),
    /// A varint exceeded 10 bytes (not canonical u64).
    Overlong,
    /// A block header that is no width (0–64) and not `0xff`.
    BadBlock(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::Overlong => write!(f, "overlong varint"),
            CodecError::BadBlock(head) => write!(f, "bad block header {head}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// What reading a stream of codes ends in.
type Decoded = Result<(), CodecError>;

/// LEB128 unsigned varint encode.
fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
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
    let mut out = Vec::with_capacity(points.len() + 8);
    compress_into(points, &mut out);
    out
}

/// [`compress`] appending to a caller's buffer (chunk sealing compresses
/// straight into the sealer's scratch), a block at a time.
pub fn compress_into(points: &[DataPoint], out: &mut Vec<u8>) {
    out.push(CODEC);
    put_uvarint(out, points.len() as u64);
    // A short chunk's codes go through a buffer that costs nothing to zero
    // (a 64-code one is a 512-byte store on every call).
    match points.len() {
        0 => {}
        1..=8 => put_points::<8>(points, out),
        _ => put_points::<BLOCK>(points, out),
    }
}

/// Appends one or more points' heads and streams through an `N`-code buffer
/// (`N` is [`BLOCK`], or no less than the codes in a stream).
fn put_points<const N: usize>(points: &[DataPoint], out: &mut Vec<u8>) {
    put_uvarint(out, zigzag(points[0].ts));
    put_uvarint(out, zigzag(points[0].value));
    let mut codes = [0u64; N];
    let mut stream = |field: fn(&DataPoint) -> i64| {
        let mut prev = field(&points[0]);
        for block in points[1..].chunks(BLOCK) {
            let codes = &mut codes[..block.len()];
            let (mut min, mut max) = (u64::MAX, 0);
            for (code, p) in codes.iter_mut().zip(block) {
                *code = zigzag(field(p).wrapping_sub(prev));
                (min, max) = (min.min(*code), max.max(*code));
                prev = field(p);
            }
            put_block(out, codes, min, 64 - (max - min).leading_zeros());
        }
    };
    stream(|p| p.ts);
    stream(|p| p.value);
}

/// Appends a block of one or more codes, `width` bits past `min`: packed, or varints if shorter.
#[inline(always)]
fn put_block(out: &mut Vec<u8>, codes: &[u64], min: u64, width: u32) {
    let varint_len = |v: u64| (70 - (v | 1).leading_zeros() as usize) / 7;
    let packed = varint_len(min) + (codes.len() * width as usize).div_ceil(8);
    if packed > codes.len() && codes.iter().map(|&c| varint_len(c)).sum::<usize>() < packed {
        out.push(VARINTS);
        return codes.iter().for_each(|&c| put_uvarint(out, c));
    }
    out.push(width as u8);
    put_uvarint(out, min);
    if width == 0 {
        return;
    }
    let (mut acc, mut bits) = (0u64, 0u32);
    for &c in codes {
        acc |= (c - min) << bits;
        bits += width;
        if bits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            bits -= 64;
            // What did not fit; nothing when the word ended with this code.
            acc = (c - min).checked_shr(width - bits).unwrap_or(0);
        }
    }
    out.extend_from_slice(&acc.to_le_bytes());
    out.truncate(out.len() - 8 + bits.div_ceil(8) as usize);
}

/// Decodes a payload of [`compress`], allocating only the points returned.
pub fn decompress(data: &[u8]) -> Result<Vec<DataPoint>, CodecError> {
    match data.first() {
        None => return Err(CodecError::Truncated),
        Some(&CODEC) => {}
        Some(&id) => return Err(CodecError::UnknownCodec(id)),
    }
    let mut pos = 1;
    let n = get_uvarint(data, &mut pos)?;
    // Two heads and two streams of `n − 1` codes, a block two bytes at
    // least, take `2 + 4·⌈(n − 1)/64⌉` bytes: a count past 16 points a
    // remaining byte is refused before anything is reserved.
    if n > (data.len() - pos) as u64 * 16 {
        return Err(CodecError::Truncated);
    }
    let Some(steps) = n.checked_sub(1) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(n as usize);
    let mut ts = unzigzag(get_uvarint(data, &mut pos)?);
    let mut value = unzigzag(get_uvarint(data, &mut pos)?);
    out.push(DataPoint::new(ts, value));
    get_stream(data, &mut pos, steps, |code| {
        ts = ts.wrapping_add(unzigzag(code));
        out.push(DataPoint::new(ts, 0));
    })?;
    let mut rest = out[1..].iter_mut();
    get_stream(data, &mut pos, steps, |code| {
        value = value.wrapping_add(unzigzag(code));
        if let Some(p) = rest.next() {
            p.value = value;
        }
    })?;
    Ok(out)
}

/// Reads `n` codes, a block at a time, handing each to `put`.
#[inline(always)]
fn get_stream(data: &[u8], pos: &mut usize, n: u64, mut put: impl FnMut(u64)) -> Decoded {
    for at in (0..n).step_by(BLOCK) {
        let k = (n - at).min(BLOCK as u64) as u32;
        let head = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if head == VARINTS {
            for _ in 0..k {
                put(get_uvarint(data, pos)?);
            }
            continue;
        } else if head > 64 {
            return Err(CodecError::BadBlock(head));
        }
        let (min, width) = (get_uvarint(data, pos)?, u32::from(head));
        let end = *pos + (k * width).div_ceil(8) as usize;
        let packed = data.get(*pos..end).ok_or(CodecError::Truncated)?;
        *pos = end;
        let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let mut words = packed
            .chunks(8)
            .map(|word| match <[u8; 8]>::try_from(word) {
                Ok(word) => u64::from_le_bytes(word),
                Err(_) => word.iter().rev().fold(0, |acc, &b| acc << 8 | u64::from(b)),
            });
        // `acc` holds the `bits` not read yet of the last word taken.
        let (mut acc, mut bits) = (0u64, 0u32);
        for _ in 0..k {
            if bits < width {
                let word = words.next().unwrap_or(0);
                put(min.wrapping_add((acc | word << bits) & mask));
                acc = word.checked_shr(width - bits).unwrap_or(0);
                bits += 64 - width;
            } else {
                put(min.wrapping_add(acc & mask));
                (acc, bits) = (acc.checked_shr(width).unwrap_or(0), bits - width);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<DataPoint> {
        (0..500)
            .map(|i| DataPoint::new(1_000_000 + i * 20, 70 + (i % 7) - 3))
            .collect()
    }

    /// The payload's bytes, pinned: every sealed chunk, stored record and
    /// wire frame holds them. The 500 regular points are pinned by length
    /// and SHA-256.
    #[test]
    fn delta_payload_bytes_are_pinned() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let golden = |points: &[DataPoint]| hex(&compress(points));
        assert_eq!(golden(&[]), "0200");
        assert_eq!(golden(&[DataPoint::new(-42, 7)]), "0201530e");
        let extremes = [
            DataPoint::new(i64::MIN, i64::MAX),
            DataPoint::new(i64::MAX, i64::MIN),
        ];
        assert_eq!(
            golden(&extremes),
            "0202ffffffffffffffffff01feffffffffffffffff0100010002"
        );
        let regular = compress(&sample_points());
        let digest = hex(&timecrypt_crypto::sha256(&regular));
        let pinned = "9b716df03215fe47fc0957990098bbdc9967943c3b08263c05132d830ccdceb8";
        assert_eq!((regular.len(), digest.as_str()), (290, pinned));
    }

    /// A regular series' timestamp block is a width-0 header and its step;
    /// a block that one outlier would widen is plain varints.
    #[test]
    fn blocks_pick_the_smaller_form() {
        let steady: Vec<DataPoint> = (0..65).map(|i| DataPoint::new(i * 10_000, 0)).collect();
        // Heads, then per stream one block of 64 codes: [width 0, base].
        let mut want = vec![CODEC, 65, 0, 0];
        want.extend([0, 0xa0, 0x9c, 0x01, 0, 0]);
        assert_eq!(compress(&steady), want);
        let mut outlier = steady.clone();
        outlier[1].value = 1 << 40;
        let enc = compress(&outlier);
        let values = &enc[want.len() - 2..];
        assert_eq!(values[0], VARINTS);
        assert_eq!(values.len(), 1 + 6 + 6 + 62, "{values:02x?}");
        assert_eq!(decompress(&enc).unwrap(), outlier);
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
        for id in [0, 1, 3, 255] {
            enc[0] = id;
            assert_eq!(decompress(&enc), Err(CodecError::UnknownCodec(id)));
        }
    }

    /// A count of more than 16 points a byte after it is refused before
    /// anything is reserved: `1 << 60` points would abort the process.
    #[test]
    fn counts_past_the_bytes_left_are_refused() {
        let claim = |n: u64, rest: usize| {
            let mut enc = vec![CODEC];
            put_uvarint(&mut enc, n);
            enc.resize(enc.len() + rest, 0);
            decompress(&enc)
        };
        assert_eq!(claim(1 << 60, 8), Err(CodecError::Truncated));
        assert_eq!(claim(16 * 3 + 1, 3), Err(CodecError::Truncated));
        // At 16 a byte the count passes; these bytes are one point's heads
        // and a block header, then the base is cut short.
        assert_eq!(claim(16 * 3, 3), Err(CodecError::Truncated));
        // The densest payload, `16·(6 − 2) + 1` points in six bytes: the
        // heads and two width-0 blocks of 64 codes.
        assert_eq!(claim(65, 6).unwrap(), vec![DataPoint::new(0, 0); 65]);
    }

    #[test]
    fn a_block_header_past_64_is_refused() {
        for head in [65, 0x80, 0xfe] {
            let enc = [CODEC, 2, 0, 0, head, 0, 0, 0];
            assert_eq!(decompress(&enc), Err(CodecError::BadBlock(head)));
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

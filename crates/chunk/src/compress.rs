//! Lossless compression codecs for chunk payloads (paper §4.1, footnote 2).
//!
//! The paper: *"TimeCrypt runs the compression algorithm that yields the
//! best results for the underlying data … TimeCrypt supports various
//! lossless compression techniques, with zlib as default."* We substitute
//! the TSDB-standard delta family (as in Gorilla/BTrDB): timestamps and
//! values are delta-encoded, zigzag-mapped, and varint-packed, with an
//! optional run-length pass for constant-delta runs. This preserves the
//! evaluated behaviour (chunks shrink before encryption; compression cost is
//! on the client's ingest path) — see DESIGN.md §5.
//!
//! Encoded layout is self-describing: 1 codec byte, point count (varint),
//! then the codec-specific body.

/// Compression codec identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// No compression: raw little-endian (ts, value) pairs.
    None,
    /// Delta + zigzag + varint on both timestamps and values.
    #[default]
    Delta,
    /// Delta + zigzag + varint with run-length encoding of repeated deltas —
    /// best for constant-rate, slowly-changing data (the common IoT case).
    DeltaRle,
    /// Gorilla-style bit packing (Pelkonen et al., VLDB 2015): timestamps as
    /// delta-of-delta with variable-width classes, values as XOR with a
    /// leading/trailing-zero window. Best for smooth high-rate signals.
    Gorilla,
    /// Not a wire format: tries every concrete codec and keeps the smallest
    /// encoding — the paper's *"runs the compression algorithm that yields
    /// the best results for the underlying data"*. Decodes as whichever
    /// concrete codec won (the payload is self-describing).
    Auto,
}

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Delta => 1,
            Codec::DeltaRle => 2,
            Codec::Gorilla => 3,
            #[allow(
                clippy::unreachable,
                reason = "private helper; every caller resolves `Auto` (via `compress_best`) before asking for a wire id, and `from_id` never yields it"
            )]
            Codec::Auto => unreachable!("Auto is resolved before serialization"),
        }
    }

    fn from_id(id: u8) -> Result<Self, CodecError> {
        match id {
            0 => Ok(Codec::None),
            1 => Ok(Codec::Delta),
            2 => Ok(Codec::DeltaRle),
            3 => Ok(Codec::Gorilla),
            other => Err(CodecError::UnknownCodec(other)),
        }
    }

    /// The concrete codecs [`Codec::Auto`] chooses among.
    pub const CONCRETE: [Codec; 4] = [Codec::None, Codec::Delta, Codec::DeltaRle, Codec::Gorilla];
}

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
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
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
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
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
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse zigzag map.
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

use crate::model::DataPoint;

/// Compresses a chunk's points with `codec`.
pub fn compress(codec: Codec, points: &[DataPoint]) -> Vec<u8> {
    let mut out = Vec::with_capacity(points.len() * 4 + 8);
    compress_into(codec, points, &mut out);
    out
}

/// [`compress`] appending to a caller-provided buffer (chunk sealing
/// compresses straight into the payload, behind the nonce).
pub fn compress_into(codec: Codec, points: &[DataPoint], out: &mut Vec<u8>) {
    if codec == Codec::Auto {
        return out.extend_from_slice(&compress_best(points).1);
    }
    out.push(codec.id());
    put_uvarint(out, points.len() as u64);
    match codec {
        Codec::None => {
            for p in points {
                out.extend_from_slice(&p.ts.to_le_bytes());
                out.extend_from_slice(&p.value.to_le_bytes());
            }
        }
        Codec::Delta => {
            let mut prev_ts = 0i64;
            let mut prev_v = 0i64;
            for p in points {
                put_uvarint(out, zigzag(p.ts.wrapping_sub(prev_ts)));
                put_uvarint(out, zigzag(p.value.wrapping_sub(prev_v)));
                prev_ts = p.ts;
                prev_v = p.value;
            }
        }
        Codec::DeltaRle => {
            // Two streams of (delta, run-length) pairs: timestamps first,
            // then values.
            encode_rle(out, points.iter().map(|p| p.ts));
            encode_rle(out, points.iter().map(|p| p.value));
        }
        Codec::Gorilla => encode_gorilla(out, points),
        #[allow(
            clippy::unreachable,
            reason = "`Auto` returned early via `compress_best` at the top of this function"
        )]
        Codec::Auto => unreachable!("handled above"),
    }
}

/// Compresses with every concrete codec and returns the winner and its
/// (smallest) encoding. Ties go to the earlier codec in [`Codec::CONCRETE`].
pub fn compress_best(points: &[DataPoint]) -> (Codec, Vec<u8>) {
    let mut best = (Codec::CONCRETE[0], compress(Codec::CONCRETE[0], points));
    for &c in &Codec::CONCRETE[1..] {
        let enc = compress(c, points);
        if enc.len() < best.1.len() {
            best = (c, enc);
        }
    }
    best
}

// --- Gorilla (delta-of-delta timestamps + XOR values, bit-packed) ---------
//
// All arithmetic is wrapping: encoder and decoder apply the same wrapping
// delta chains, so round-trips are exact even at the i64 extremes.

use crate::bits::{BitReader, BitWriter};

/// Writes a delta-of-delta with the Gorilla class prefixes:
/// `0` | `10`+7b | `110`+9b | `1110`+12b | `1111`+64b(zigzag).
fn write_dod(w: &mut BitWriter, dod: i64) {
    if dod == 0 {
        w.write_bit(false);
    } else if (-63..=64).contains(&dod) {
        w.write_bits(0b10, 2);
        w.write_bits((dod + 63) as u64, 7);
    } else if (-255..=256).contains(&dod) {
        w.write_bits(0b110, 3);
        w.write_bits((dod + 255) as u64, 9);
    } else if (-2047..=2048).contains(&dod) {
        w.write_bits(0b1110, 4);
        w.write_bits((dod + 2047) as u64, 12);
    } else {
        w.write_bits(0b1111, 4);
        w.write_bits(zigzag(dod), 64);
    }
}

fn read_dod(r: &mut BitReader) -> Result<i64, CodecError> {
    if !r.read_bit()? {
        return Ok(0);
    }
    if !r.read_bit()? {
        return Ok(r.read_bits(7)? as i64 - 63);
    }
    if !r.read_bit()? {
        return Ok(r.read_bits(9)? as i64 - 255);
    }
    if !r.read_bit()? {
        return Ok(r.read_bits(12)? as i64 - 2047);
    }
    Ok(unzigzag(r.read_bits(64)?))
}

fn encode_gorilla(out: &mut Vec<u8>, points: &[DataPoint]) {
    let mut w = BitWriter::new();
    if let Some(first) = points.first() {
        w.write_bits(first.ts as u64, 64);
        w.write_bits(first.value as u64, 64);
        let mut prev_ts = first.ts;
        let mut prev_delta = 0i64;
        let mut prev_value = first.value as u64;
        // Window of the previous XOR encoding: (leading zeros, meaningful
        // bit count); invalid until the first non-zero XOR.
        let mut window: Option<(u8, u8)> = None;
        for p in &points[1..] {
            let delta = p.ts.wrapping_sub(prev_ts);
            write_dod(&mut w, delta.wrapping_sub(prev_delta));
            prev_delta = delta;
            prev_ts = p.ts;

            let xor = (p.value as u64) ^ prev_value;
            prev_value = p.value as u64;
            if xor == 0 {
                w.write_bit(false);
                continue;
            }
            w.write_bit(true);
            let lz = xor.leading_zeros() as u8;
            let tz = xor.trailing_zeros() as u8;
            let fits = window.filter(|&(wlz, wlen)| lz >= wlz && tz >= 64 - wlz - wlen);
            if let Some((wlz, wlen)) = fits {
                w.write_bit(false);
                w.write_bits(xor >> (64 - wlz - wlen), wlen);
            } else {
                let len = 64 - lz - tz; // 1..=64
                w.write_bit(true);
                w.write_bits(u64::from(lz), 6);
                w.write_bits(u64::from(len - 1), 6);
                w.write_bits(xor >> tz, len);
                window = Some((lz, len));
            }
        }
    }
    w.append_to(out);
}

fn decode_gorilla(buf: &[u8], pos: usize, n: usize) -> Result<Vec<DataPoint>, CodecError> {
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return Ok(out);
    }
    let mut r = BitReader::new(buf.get(pos..).ok_or(CodecError::Truncated)?);
    let mut ts = r.read_bits(64)? as i64;
    let mut value = r.read_bits(64)?;
    out.push(DataPoint {
        ts,
        value: value as i64,
    });
    let mut delta = 0i64;
    let mut window: Option<(u8, u8)> = None;
    for _ in 1..n {
        delta = delta.wrapping_add(read_dod(&mut r)?);
        ts = ts.wrapping_add(delta);

        if r.read_bit()? {
            let (lz, len) = if r.read_bit()? {
                let lz = r.read_bits(6)? as u8;
                let len = r.read_bits(6)? as u8 + 1;
                if u32::from(lz) + u32::from(len) > 64 {
                    return Err(CodecError::Truncated);
                }
                window = Some((lz, len));
                (lz, len)
            } else {
                window.ok_or(CodecError::Truncated)?
            };
            value ^= r.read_bits(len)? << (64 - lz - len);
        }
        out.push(DataPoint {
            ts,
            value: value as i64,
        });
    }
    Ok(out)
}

fn encode_rle(out: &mut Vec<u8>, values: impl Iterator<Item = i64>) {
    let mut prev = 0i64;
    let mut run_delta = 0i64;
    let mut run_len = 0u64;
    for v in values {
        let d = v.wrapping_sub(prev);
        prev = v;
        if run_len > 0 && d == run_delta {
            run_len += 1;
        } else {
            if run_len > 0 {
                put_uvarint(out, zigzag(run_delta));
                put_uvarint(out, run_len);
            }
            run_delta = d;
            run_len = 1;
        }
    }
    if run_len > 0 {
        put_uvarint(out, zigzag(run_delta));
        put_uvarint(out, run_len);
    }
}

fn decode_rle(buf: &[u8], pos: &mut usize, n: usize) -> Result<Vec<i64>, CodecError> {
    // RLE can legitimately claim huge n from a tiny payload, so cap the
    // speculative reservation; growth beyond this is amortized as usual.
    let mut out = Vec::with_capacity(n.min(1 << 16));
    let mut prev = 0i64;
    while out.len() < n {
        let delta = unzigzag(get_uvarint(buf, pos)?);
        let run = get_uvarint(buf, pos)?;
        if run == 0 || out.len() as u64 + run > n as u64 {
            return Err(CodecError::Truncated);
        }
        for _ in 0..run {
            prev = prev.wrapping_add(delta);
            out.push(prev);
        }
    }
    Ok(out)
}

/// Decompresses a payload produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<DataPoint>, CodecError> {
    let mut pos = 0usize;
    let id = *data.first().ok_or(CodecError::Truncated)?;
    let codec = Codec::from_id(id)?;
    pos += 1;
    let n = get_uvarint(data, &mut pos)? as usize;
    // Cheap corruption check before reserving memory: each codec has a hard
    // minimum encoded size per point (RLE has none — its decoder caps its own
    // allocation instead).
    let remaining = data.len() - pos;
    let plausible = match codec {
        Codec::None => remaining / 16 >= n,
        Codec::Delta => remaining / 2 >= n,
        // 16-byte first point, then ≥2 bits per point.
        Codec::Gorilla => n <= 1 || remaining.saturating_sub(16).saturating_mul(4) >= n - 1,
        Codec::DeltaRle => true,
        // `from_id` never yields `Auto`; a graceful error beats a panic on
        // the impossible path.
        Codec::Auto => return Err(CodecError::UnknownCodec(id)),
    };
    if !plausible {
        return Err(CodecError::Truncated);
    }
    match codec {
        Codec::None => {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                if pos + 16 > data.len() {
                    return Err(CodecError::Truncated);
                }
                let mut word = [0u8; 8];
                word.copy_from_slice(&data[pos..pos + 8]);
                let ts = i64::from_le_bytes(word);
                word.copy_from_slice(&data[pos + 8..pos + 16]);
                let value = i64::from_le_bytes(word);
                pos += 16;
                out.push(DataPoint { ts, value });
            }
            Ok(out)
        }
        Codec::Delta => {
            let mut out = Vec::with_capacity(n);
            let mut prev_ts = 0i64;
            let mut prev_v = 0i64;
            for _ in 0..n {
                prev_ts = prev_ts.wrapping_add(unzigzag(get_uvarint(data, &mut pos)?));
                prev_v = prev_v.wrapping_add(unzigzag(get_uvarint(data, &mut pos)?));
                out.push(DataPoint {
                    ts: prev_ts,
                    value: prev_v,
                });
            }
            Ok(out)
        }
        Codec::DeltaRle => {
            let ts = decode_rle(data, &mut pos, n)?;
            let vs = decode_rle(data, &mut pos, n)?;
            Ok(ts
                .into_iter()
                .zip(vs)
                .map(|(ts, value)| DataPoint { ts, value })
                .collect())
        }
        Codec::Gorilla => decode_gorilla(data, pos, n),
        // `from_id` never yields `Auto` (and the plausibility check above
        // already rejected it).
        Codec::Auto => Err(CodecError::UnknownCodec(id)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<DataPoint> {
        (0..500)
            .map(|i| DataPoint::new(1_000_000 + i * 20, 70 + (i % 7) - 3))
            .collect()
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
    fn all_codecs_roundtrip() {
        let points = sample_points();
        for codec in Codec::CONCRETE {
            let enc = compress(codec, &points);
            assert_eq!(decompress(&enc).unwrap(), points, "{codec:?}");
        }
    }

    #[test]
    fn empty_chunk_roundtrip() {
        for codec in Codec::CONCRETE {
            let enc = compress(codec, &[]);
            assert_eq!(decompress(&enc).unwrap(), vec![], "{codec:?}");
        }
    }

    #[test]
    fn single_point_roundtrip() {
        let points = vec![DataPoint::new(-42, i64::MIN)];
        for codec in Codec::CONCRETE {
            let enc = compress(codec, &points);
            assert_eq!(decompress(&enc).unwrap(), points, "{codec:?}");
        }
    }

    #[test]
    fn delta_compresses_regular_data() {
        // 500 points at fixed rate with small value wobble: delta coding
        // must beat raw 16-bytes-per-point materially.
        let points = sample_points();
        let raw = compress(Codec::None, &points).len();
        let delta = compress(Codec::Delta, &points).len();
        let rle = compress(Codec::DeltaRle, &points).len();
        assert!(delta < raw / 4, "delta {delta} vs raw {raw}");
        assert!(rle < raw / 4, "rle {rle} vs raw {raw}");
    }

    #[test]
    fn rle_wins_on_constant_data() {
        let points: Vec<DataPoint> = (0..1000).map(|i| DataPoint::new(i * 10, 42)).collect();
        let delta = compress(Codec::Delta, &points).len();
        let rle = compress(Codec::DeltaRle, &points).len();
        assert!(rle < delta / 10, "rle {rle} vs delta {delta}");
    }

    #[test]
    fn extreme_values_roundtrip() {
        let points = vec![
            DataPoint::new(i64::MIN, i64::MAX),
            DataPoint::new(i64::MAX, i64::MIN),
            DataPoint::new(0, 0),
            DataPoint::new(-1, 1),
        ];
        for codec in Codec::CONCRETE {
            let enc = compress(codec, &points);
            assert_eq!(decompress(&enc).unwrap(), points, "{codec:?}");
        }
    }

    #[test]
    fn gorilla_roundtrips_smooth_signal() {
        // Fixed-rate timestamps, slowly drifting values: the Gorilla sweet
        // spot. Round-trip must be exact and the encoding small.
        let points: Vec<DataPoint> = (0..2000)
            .map(|i| DataPoint::new(1_700_000_000_000 + i * 100, 7000 + (i % 19) - 9))
            .collect();
        let enc = compress(Codec::Gorilla, &points);
        assert_eq!(decompress(&enc).unwrap(), points);
        let raw = compress(Codec::None, &points).len();
        assert!(enc.len() < raw / 5, "gorilla {} vs raw {raw}", enc.len());
    }

    #[test]
    fn gorilla_constant_signal_near_two_bits_per_point() {
        // dod == 0 and xor == 0 are one bit each after the header.
        let points: Vec<DataPoint> = (0..4096).map(|i| DataPoint::new(i * 10, 55)).collect();
        let enc = compress(Codec::Gorilla, &points);
        // header ≈ 18 bytes; 2 bits/point ≈ 1 KiB for 4096 points.
        assert!(enc.len() < 1100, "constant signal took {} bytes", enc.len());
        assert_eq!(decompress(&enc).unwrap(), points);
    }

    #[test]
    fn gorilla_irregular_data_roundtrips() {
        // Jittered timestamps and jumpy values exercise every dod class and
        // both window paths.
        let mut rng_state = 0x12345u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        let mut ts = 0i64;
        let points: Vec<DataPoint> = (0..1500)
            .map(|_| {
                ts = ts.wrapping_add((next() % 5000) as i64 - 100);
                DataPoint::new(ts, next() as i64)
            })
            .collect();
        for codec in [Codec::Gorilla, Codec::Auto] {
            let enc = compress(codec, &points);
            assert_eq!(decompress(&enc).unwrap(), points, "{codec:?}");
        }
    }

    #[test]
    fn auto_picks_the_smallest_concrete_codec() {
        for points in [
            sample_points(),
            (0..1000)
                .map(|i| DataPoint::new(i * 10, 42))
                .collect::<Vec<_>>(),
            vec![
                DataPoint::new(i64::MIN, i64::MAX),
                DataPoint::new(i64::MAX, i64::MIN),
            ],
        ] {
            let (winner, enc) = compress_best(&points);
            for codec in Codec::CONCRETE {
                assert!(
                    enc.len() <= compress(codec, &points).len(),
                    "{winner:?} beaten by {codec:?}"
                );
            }
            assert_eq!(decompress(&enc).unwrap(), points);
        }
    }

    #[test]
    fn auto_via_compress_matches_compress_best() {
        let points = sample_points();
        assert_eq!(compress(Codec::Auto, &points), compress_best(&points).1);
    }

    #[test]
    fn gorilla_truncated_rejected() {
        let points = sample_points();
        let enc = compress(Codec::Gorilla, &points);
        for cut in [3, enc.len() / 2, enc.len() - 1] {
            assert!(decompress(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn gorilla_window_reference_before_definition_rejected() {
        // Hand-craft: 2 points, dod=0, then value bit '1' + window-reuse bit
        // '0' with no window ever defined — decoder must error, not panic.
        let mut w = crate::bits::BitWriter::new();
        w.write_bits(100, 64); // ts0
        w.write_bits(5, 64); // v0
        w.write_bit(false); // dod = 0
        w.write_bit(true); // xor != 0
        w.write_bit(false); // reuse window — but none exists
        let mut buf = vec![Codec::Gorilla.id()];
        put_uvarint(&mut buf, 2);
        w.append_to(&mut buf);
        assert!(decompress(&buf).is_err());
    }

    #[test]
    fn gorilla_overwide_window_rejected() {
        // lz + len > 64 must be rejected (would shift out of range).
        let mut w = crate::bits::BitWriter::new();
        w.write_bits(0, 64);
        w.write_bits(0, 64);
        w.write_bit(false); // dod = 0
        w.write_bit(true); // xor != 0
        w.write_bit(true); // new window
        w.write_bits(40, 6); // lz = 40
        w.write_bits(63, 6); // len = 64 → lz + len = 104 > 64
        w.write_bits(0, 64);
        let mut buf = vec![Codec::Gorilla.id()];
        put_uvarint(&mut buf, 2);
        w.append_to(&mut buf);
        assert!(decompress(&buf).is_err());
    }

    #[test]
    fn corrupt_codec_byte_rejected() {
        let points = sample_points();
        let mut enc = compress(Codec::Delta, &points);
        enc[0] = 99;
        assert_eq!(decompress(&enc), Err(CodecError::UnknownCodec(99)));
    }

    #[test]
    fn truncated_payload_rejected() {
        let points = sample_points();
        for codec in [Codec::None, Codec::Delta, Codec::DeltaRle] {
            let enc = compress(codec, &points);
            let cut = &enc[..enc.len() / 2];
            assert!(decompress(cut).is_err(), "{codec:?}");
        }
    }

    #[test]
    fn rle_zero_run_rejected() {
        // Hand-craft an RLE body with run length 0: must not loop forever.
        let mut buf = vec![Codec::DeltaRle.id()];
        put_uvarint(&mut buf, 5); // claim 5 points
        put_uvarint(&mut buf, zigzag(1)); // delta 1
        put_uvarint(&mut buf, 0); // run length 0 — invalid
        assert!(decompress(&buf).is_err());
    }
}

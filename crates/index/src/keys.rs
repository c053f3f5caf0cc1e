//! The key layout of a stream's store records, declared once.
//!
//! A stream's whole state is a keyspace: every record it owns lies under
//! one of six prefixes, each followed by the stream id as 16 big-endian
//! bytes, at a key computed from `(stream, range)`, never stored (§4.6).
//! A stream's deletion and a replica's listing and copy walk
//! [`of_stream`]. The bytes are a stored format.
//!
//! | prefix | record | after the stream id |
//! |---|---|---|
//! | `att/` | the owner's latest root attestation | — |
//! | `e/` | a resolution envelope | `/` resolution `/` envelope index |
//! | `g/` | a grant blob | `/` principal `/` sequence number |
//! | `i/` | the index's decay cutoffs | — |
//! | `il/` | a chunk: its level-0 index record | `/` chunk index |
//! | `s/` | registration metadata | — |
//!
//! Numbers are `u64` big-endian, so a prefix's keys sort by them.

// The six prefixes, by the records the table above names.
pub const META: &[u8] = b"s/";
pub const ATTESTATION: &[u8] = b"att/";
pub const LEAF: &[u8] = b"il/";
pub const DECAY: &[u8] = b"i/";
pub const GRANT: &[u8] = b"g/";
pub const ENVELOPE: &[u8] = b"e/";

/// `prefix ‖ stream`: where `stream`'s records of one kind start.
pub fn head(prefix: &[u8], stream: u128) -> Vec<u8> {
    [prefix, &stream.to_be_bytes()].concat()
}

/// The stream's six heads, in key order: the prefixes of its keys alone.
pub fn of_stream(stream: u128) -> [Vec<u8>; 6] {
    [ATTESTATION, ENVELOPE, GRANT, DECAY, LEAF, META].map(|prefix| head(prefix, stream))
}

/// The stream's registration record: its largest key.
pub fn meta(stream: u128) -> Vec<u8> {
    head(META, stream)
}

/// The stream a registration record's key names; `None` for any other key.
pub fn meta_stream(key: &[u8]) -> Option<u128> {
    Some(u128::from_be_bytes(
        key.strip_prefix(META)?.try_into().ok()?,
    ))
}

/// The stream's attestation record.
pub fn attestation(stream: u128) -> Vec<u8> {
    head(ATTESTATION, stream)
}

/// Chunk `index`'s level-0 record. Its first 20 bytes name the stream.
pub fn leaf(stream: u128, index: u64) -> [u8; 28] {
    let mut key = [0u8; 28];
    key[..3].copy_from_slice(LEAF);
    key[3..19].copy_from_slice(&stream.to_be_bytes());
    key[19] = b'/';
    key[20..].copy_from_slice(&index.to_be_bytes());
    key
}

/// The stream's decay cutoffs: the one record `AggTree::decay` rewrites.
pub fn decay(stream: u128) -> Vec<u8> {
    head(DECAY, stream)
}

/// Where the grants of `(stream, principal)` start.
pub fn grant_prefix(stream: u128, principal: &str) -> Vec<u8> {
    under(GRANT, stream, principal.as_bytes())
}

/// Grant number `seq` of `(stream, principal)`.
pub fn grant(stream: u128, principal: &str, seq: u64) -> Vec<u8> {
    numbered(grant_prefix(stream, principal), seq)
}

/// Where the envelopes of `(stream, resolution)` start.
pub fn envelope_prefix(stream: u128, resolution: u64) -> Vec<u8> {
    under(ENVELOPE, stream, &resolution.to_be_bytes())
}

/// Envelope `index` of `(stream, resolution)`.
pub fn envelope(stream: u128, resolution: u64, index: u64) -> Vec<u8> {
    numbered(envelope_prefix(stream, resolution), index)
}

/// `prefix ‖ stream ‖ / ‖ name ‖ /`: where the keys numbered under `name` start.
fn under(prefix: &[u8], stream: u128, name: &[u8]) -> Vec<u8> {
    [&head(prefix, stream)[..], b"/", name, b"/"].concat()
}

fn numbered(mut prefix: Vec<u8>, n: u64) -> Vec<u8> {
    prefix.extend_from_slice(&n.to_be_bytes());
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layout is a stored format: these bytes are what every store
    /// written so far holds.
    #[test]
    fn keys_are_the_stored_bytes() {
        let s = 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128;
        let id = s.to_be_bytes();
        let cat = |parts: &[&[u8]]| parts.concat();
        assert_eq!(meta(s), cat(&[b"s/", &id]));
        assert_eq!(attestation(s), cat(&[b"att/", &id]));
        assert_eq!(
            leaf(s, 9).to_vec(),
            cat(&[b"il/", &id, b"/", &9u64.to_be_bytes()])
        );
        assert_eq!(decay(s), cat(&[b"i/", &id]));
        let grant_key = cat(&[b"g/", &id, b"/bob/", &2u64.to_be_bytes()]);
        assert_eq!(grant(s, "bob", 2), grant_key);
        let env_key = cat(&[
            b"e/",
            &id,
            b"/",
            &6u64.to_be_bytes(),
            b"/",
            &1u64.to_be_bytes(),
        ]);
        assert_eq!(envelope(s, 6, 1), env_key);
        assert_eq!(meta_stream(&meta(s)), Some(s));
        assert_eq!(meta_stream(&attestation(s)), None);
        assert_eq!(meta_stream(&[&meta(s)[..], b"x"].concat()), None);
    }

    /// Every key a stream owns starts with exactly one of its heads, the
    /// heads are in key order, and the registration record sorts last.
    #[test]
    fn a_streams_heads_partition_its_keys_in_order() {
        let heads = of_stream(7);
        assert!(heads.windows(2).all(|w| w[0] < w[1]));
        let owned = [
            meta(7),
            attestation(7),
            leaf(7, u64::MAX).to_vec(),
            decay(7),
            grant(7, "", 0),
            envelope(7, 0, 0),
        ];
        for key in &owned {
            assert_eq!(heads.iter().filter(|h| key.starts_with(h)).count(), 1);
            assert!(*key <= meta(7));
            assert!(of_stream(8).iter().all(|h| !key.starts_with(h)));
        }
    }
}

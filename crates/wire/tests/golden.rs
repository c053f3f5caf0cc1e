//! Golden wire vectors: the exact bytes of one sample per request and
//! response variant (minimum, maximum and empty values included) and of a
//! trace-enveloped request, plus the exact [`WireError`] for every way a
//! frame can be malformed. The round-trip tests compare the codec with
//! itself; this file is what pins the wire format against anything that
//! rewrites the codec — it must pass unedited across such a change.

use timecrypt_wire::codec::{WireError, MAX_REPEATED};
use timecrypt_wire::messages::{
    encode_trace_prefix, split_trace, Refusal, RefusalKind, Request, RequestRef, Response,
    ServiceStatsWire, ShardStatsWire, StatLeg, StatReply, StreamInfoWire,
};
use timecrypt_wire::TraceContext;

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length: {s}");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// A stream id whose sixteen bytes all differ (pins the byte order).
const STREAM: u128 = 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10;

fn request_vectors() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::CreateStream {
                stream: STREAM,
                t0: i64::MIN,
                delta_ms: u64::MAX,
                digest_width: 19,
            },
            "01100f0e0d0c0b0a0908070605040302010000000000000080ffffffffffffffff13000000",
        ),
        (Request::DeleteStream { stream: u128::MAX }, "02ffffffffffffffffffffffffffffffff"),
        (
            Request::Insert {
                chunk: vec![1, 2, 3],
            },
            "0303000000010203",
        ),
        (Request::Insert { chunk: vec![] }, "0300000000"),
        (
            Request::InsertLive {
                record: vec![4, 5],
            },
            "0f020000000405",
        ),
        (
            Request::GetLive {
                stream: 7,
                ts_s: -3,
                ts_e: 44,
            },
            "1007000000000000000000000000000000fdffffffffffffff2c00000000000000",
        ),
        (
            Request::GetRange {
                stream: STREAM,
                ts_s: 0,
                ts_e: i64::MAX,
            },
            "04100f0e0d0c0b0a0908070605040302010000000000000000ffffffffffffff7f",
        ),
        (
            Request::GetStatRange {
                streams: vec![1, u128::MAX, 3],
                ts_s: -10,
                ts_e: 10,
            },
            "050300000001000000000000000000000000000000ffffffffffffffffffffffffffffffff03000000000000000000000000000000f6ffffffffffffff0a00000000000000",
        ),
        (
            Request::GetStatRange {
                streams: vec![],
                ts_s: 0,
                ts_e: 0,
            },
            "050000000000000000000000000000000000000000",
        ),
        (
            Request::DeleteRange {
                stream: 7,
                ts_s: 5,
                ts_e: 6,
            },
            "060700000000000000000000000000000005000000000000000600000000000000",
        ),
        (
            Request::Rollup {
                stream: 7,
                before_ts: 99,
                keep_level: u8::MAX,
            },
            "07070000000000000000000000000000006300000000000000ff",
        ),
        (Request::StreamInfo { stream: 0 }, "0800000000000000000000000000000000"),
        (
            Request::PutGrant {
                stream: 1,
                principal: "dr-alice".into(),
                blob: vec![9; 5],
            },
            "09010000000000000000000000000000000800000064722d616c696365050000000909090909",
        ),
        (
            Request::PutGrant {
                stream: 1,
                principal: String::new(),
                blob: vec![],
            },
            "09010000000000000000000000000000000000000000000000",
        ),
        (
            Request::GetGrants {
                stream: 1,
                principal: "héllo".into(),
            },
            "0a010000000000000000000000000000000600000068c3a96c6c6f",
        ),
        (
            Request::RevokeGrants {
                stream: 1,
                principal: "dr-alice".into(),
            },
            "0b010000000000000000000000000000000800000064722d616c696365",
        ),
        (
            Request::PutEnvelopes {
                stream: 2,
                resolution: 6,
                envelopes: vec![(0, vec![1]), (u64::MAX, vec![]), (2, vec![2, 3])],
            },
            "0c0200000000000000000000000000000006000000000000000300000000000000000000000100000001ffffffffffffffff000000000200000000000000020000000203",
        ),
        (
            Request::PutEnvelopes {
                stream: 2,
                resolution: 0,
                envelopes: vec![],
            },
            "0c02000000000000000000000000000000000000000000000000000000",
        ),
        (
            Request::GetEnvelopes {
                stream: 2,
                resolution: 6,
                lo: 0,
                hi: u64::MAX,
            },
            "0d0200000000000000000000000000000006000000000000000000000000000000ffffffffffffffff",
        ),
        (
            Request::PutAttestation {
                stream: 4,
                attestation: vec![8; 6],
            },
            "110400000000000000000000000000000006000000080808080808",
        ),
        (Request::GetAttestation { stream: 4 }, "1204000000000000000000000000000000"),
        (
            Request::GetVerifiedRange {
                stream: 4,
                ts_s: -1,
                ts_e: 500,
            },
            "1404000000000000000000000000000000fffffffffffffffff401000000000000",
        ),
        (
            Request::GetRangeProof {
                stream: 4,
                ts_s: 0,
                ts_e: 500,
            },
            "13040000000000000000000000000000000000000000000000f401000000000000",
        ),
        (
            Request::InsertBatch {
                chunks: vec![vec![1, 2, 3], vec![], vec![9; 5]],
            },
            "15030000000300000001020300000000050000000909090909",
        ),
        (Request::InsertBatch { chunks: vec![] }, "1500000000"),
        (Request::Stats, "16"),
        (Request::ListStreams { shard: u32::MAX }, "17ffffffff"),
        (
            Request::ExportStream {
                stream: 9,
                after: vec![b'i', b'/', 0xff],
            },
            "180900000000000000000000000000000003000000692fff",
        ),
        (
            Request::ExportStream {
                stream: 9,
                after: vec![],
            },
            "180900000000000000000000000000000000000000",
        ),
        (
            Request::GetStatLeg {
                streams: vec![1, u128::MAX],
                ts_s: -10,
                ts_e: 10,
            },
            "1a0200000001000000000000000000000000000000fffffffffffffffffffffffffffffffff6ffffffffffffff0a00000000000000",
        ),
        (
            Request::GetStatLeg {
                streams: vec![],
                ts_s: 0,
                ts_e: 0,
            },
            "1a0000000000000000000000000000000000000000",
        ),
        (
            Request::ImportStream {
                stream: STREAM,
                after: vec![1],
                records: vec![(vec![2, 3], vec![4]), (vec![], vec![])],
                done: true,
            },
            "1b100f0e0d0c0b0a0908070605040302010100000001020000000200000002030100000004000000000000000001",
        ),
        (
            Request::ImportStream {
                stream: 0,
                after: vec![],
                records: vec![],
                done: false,
            },
            "1b00000000000000000000000000000000000000000000000000",
        ),
        (Request::Ping, "0e"),
    ]
}

fn full_shard() -> ShardStatsWire {
    ShardStatsWire {
        shard: 1,
        streams: 2,
        ingested_chunks: 3,
        ingest_errors: 4,
        queries: 5,
        query_errors: 6,
        queue_depth: 7,
        failovers: 8,
        replica_errors: 9,
        promotions: 10,
        rebuilds: 11,
        rebuild_chunks_copied: 12,
        in_sync: true,
        ingest_hist_us: vec![0, 4, u64::MAX],
        query_hist_us: vec![1],
        resident_streams: 13,
        hydrations: 14,
        evictions: 15,
    }
}

fn response_vectors() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Ok, "01"),
        (
            Response::Error(Refusal::new(RefusalKind::Unavailable, "boom")),
            "020404000000626f6f6d",
        ),
        (
            Response::Error(Refusal::new(RefusalKind::NoSuchStream, "")),
            "020000000000",
        ),
        (
            Response::Error(Refusal::new(RefusalKind::Conflict, "")),
            "020100000000",
        ),
        (
            Response::Error(Refusal::new(RefusalKind::BadRequest, "")),
            "020200000000",
        ),
        (
            Response::Error(Refusal::new(RefusalKind::ReadOnly, "")),
            "020300000000",
        ),
        (
            Response::Error(Refusal::new(RefusalKind::Ambiguous, "")),
            "020500000000",
        ),
        (Response::Chunks(vec![vec![], vec![1, 2]]), "030200000000000000020000000102"),
        (Response::Chunks(vec![]), "0300000000"),
        (Response::Records(vec![vec![9], vec![]]), "0902000000010000000900000000"),
        (
            Response::Stat(StatReply {
                parts: vec![(1, 0, 10), (u128::MAX, 5, u64::MAX)],
                agg: vec![1, u64::MAX],
            }),
            "04020000000100000000000000000000000000000000000000000000000a00000000000000ffffffffffffffffffffffffffffffff0500000000000000ffffffffffffffff020000000100000000000000ffffffffffffffff",
        ),
        (
            Response::Stat(StatReply {
                parts: vec![],
                agg: vec![],
            }),
            "040000000000000000",
        ),
        (Response::Blobs(vec![vec![7; 3], vec![]]), "05020000000300000007070700000000"),
        (
            Response::Envelopes(vec![(4, vec![1, 2, 3]), (u64::MAX, vec![])]),
            "0602000000040000000000000003000000010203ffffffffffffffff00000000",
        ),
        (Response::Envelopes(vec![]), "0600000000"),
        (
            Response::Info(StreamInfoWire {
                stream: STREAM,
                t0: -1,
                delta_ms: 10_000,
                digest_width: u32::MAX,
                len: 5,
            }),
            "07100f0e0d0c0b0a090807060504030201ffffffffffffffff1027000000000000ffffffff0500000000000000",
        ),
        (
            Response::Attested {
                attestation: vec![1; 4],
                proof: vec![2, 3],
            },
            "0a0400000001010101020000000203",
        ),
        (
            Response::VerifiedChunks {
                attestation: vec![1; 4],
                proof: vec![],
                chunks: vec![vec![4], vec![]],
            },
            "0b04000000010101010000000002000000010000000400000000",
        ),
        (
            Response::Batch {
                errors: vec![
                    (3, Refusal::new(RefusalKind::Conflict, "out-of-order")),
                    (u32::MAX, Refusal::new(RefusalKind::Ambiguous, "")),
                ],
            },
            "0c0200000003000000010c0000006f75742d6f662d6f72646572ffffffff0500000000",
        ),
        (Response::Batch { errors: vec![] }, "0c00000000"),
        (
            Response::ServiceStats(ServiceStatsWire {
                shards: vec![full_shard(), ShardStatsWire::default()],
                store_gets: 11,
                store_puts: 22,
                store_deletes: 0,
                store_scans: 5,
                store_bytes_read: 4096,
                store_bytes_written: u64::MAX,
            }),
            "0d0200000001000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c00000000000000010300000000000000000000000400000000000000ffffffffffffffff0100000001000000000000000d000000000000000e000000000000000f0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000b000000000000001600000000000000000000000000000005000000000000000010000000000000ffffffffffffffff",
        ),
        (
            Response::ServiceStats(ServiceStatsWire::default()),
            "0d00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
        ),
        (
            Response::StreamList(vec![1, u128::MAX]),
            "0e0200000001000000000000000000000000000000ffffffffffffffffffffffffffffffff",
        ),
        (Response::StreamList(vec![]), "0e00000000"),
        (Response::Imported(u64::MAX), "11ffffffffffffffff"),
        (Response::Imported(0), "110000000000000000"),
        (
            Response::StreamChunks {
                records: vec![(vec![1, 2, 3], vec![]), (vec![], vec![9])],
                done: false,
            },
            "0f02000000030000000102030000000000000000010000000900",
        ),
        (
            Response::StreamChunks {
                records: vec![],
                done: true,
            },
            "0f0000000001",
        ),
        (
            Response::StatLeg(StatLeg {
                parts: vec![(2, 0, 10), (u32::MAX, 5, u64::MAX)],
                stop: None,
                agg: vec![1, u64::MAX],
            }),
            "10020000000200000000000000000000000a00000000000000ffffffff0500000000000000ffffffffffffffff00020000000100000000000000ffffffffffffffff",
        ),
        (
            Response::StatLeg(StatLeg {
                parts: vec![(2, 0, 10)],
                stop: Some(Ok(3)),
                agg: vec![1, 2],
            }),
            "10010000000200000000000000000000000a000000000000000100030000000200000001000000000000000200000000000000",
        ),
        (
            Response::StatLeg(StatLeg {
                parts: vec![],
                stop: Some(Err(Refusal::new(RefusalKind::ReadOnly, "boom"))),
                agg: vec![],
            }),
            "100000000001010304000000626f6f6d00000000",
        ),
        (Response::Pong, "08"),
    ]
}

#[test]
fn requests_encode_to_their_golden_bytes() {
    for (req, hex) in request_vectors() {
        let want = unhex(hex);
        assert_eq!(req.encode(), want, "{req:?}");
        let mut buf = vec![0x77];
        req.encode_into(&mut buf);
        assert_eq!(buf[0], 0x77, "{req:?}: existing content preserved");
        assert_eq!(&buf[1..], &want[..], "{req:?}");
        assert_eq!(Request::decode(&want), Ok(req.clone()), "{req:?}");
        assert_eq!(
            RequestRef::decode(&want).map(RequestRef::to_owned),
            Ok(req.clone()),
            "{req:?}"
        );
    }
}

#[test]
fn responses_encode_to_their_golden_bytes() {
    for (resp, hex) in response_vectors() {
        let want = unhex(hex);
        assert_eq!(resp.encode(), want, "{resp:?}");
        let mut buf = vec![0x77];
        resp.encode_into(&mut buf);
        assert_eq!(buf[0], 0x77, "{resp:?}: existing content preserved");
        assert_eq!(&buf[1..], &want[..], "{resp:?}");
        assert_eq!(Response::decode(&want), Ok(resp.clone()), "{resp:?}");
    }
}

/// Every variant has a vector: the sample lists above name each tag once
/// at least (the first body byte is the tag; requests 1..=24, 26 and 27 —
/// 25 is the trace envelope — responses 1..=17 as shipped).
#[test]
fn every_shipped_tag_has_a_vector() {
    let tags = |hexes: Vec<&str>| {
        let mut t: Vec<u8> = hexes.into_iter().map(|h| unhex(h)[0]).collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    let req = tags(request_vectors().into_iter().map(|(_, h)| h).collect());
    assert_eq!(req, (1..=27).filter(|&t| t != 25).collect::<Vec<u8>>());
    let resp = tags(response_vectors().into_iter().map(|(_, h)| h).collect());
    assert_eq!(resp, (1..=17).collect::<Vec<u8>>());
}

#[test]
fn trace_envelope_golden_bytes() {
    let ctx = TraceContext {
        trace_id: STREAM,
        span_id: 0x1112_1314_1516_1718,
    };
    let req = Request::GetRange {
        stream: 7,
        ts_s: -1,
        ts_e: 2,
    };
    let want = unhex("19100f0e0d0c0b0a09080706050403020118171615141312110407000000000000000000000000000000ffffffffffffffff0200000000000000");
    let mut body = Vec::new();
    encode_trace_prefix(ctx, &mut body);
    req.encode_into(&mut body);
    assert_eq!(body, want);
    let (got, inner) = split_trace(&want).unwrap();
    assert_eq!(got, Some(ctx));
    assert_eq!(inner, &req.encode()[..]);
    // The envelope tag is not a request: the decoders reject it by name.
    assert_eq!(Request::decode(&want), Err(WireError::BadTag(25)));
    assert_eq!(
        RequestRef::decode(&want).map(RequestRef::to_owned),
        Err(WireError::BadTag(25))
    );
    // Every cut inside the envelope prefix is `Truncated`; a cut inside the
    // inner request splits fine and the inner decode says `Truncated`.
    for cut in 1..want.len() {
        match split_trace(&want[..cut]) {
            Err(e) => {
                assert!(cut < 25, "cut {cut}");
                assert_eq!(e, WireError::Truncated, "cut {cut}");
            }
            Ok((got, inner)) => {
                assert!(cut >= 25, "cut {cut}");
                assert_eq!(got, Some(ctx));
                assert_eq!(Request::decode(inner), Err(WireError::Truncated));
            }
        }
    }
    assert_eq!(split_trace(&[]), Ok((None, &[][..])));
}

fn decode_request_both(buf: &[u8]) -> Result<Request, WireError> {
    let owned = Request::decode(buf);
    let borrowed = RequestRef::decode(buf).map(RequestRef::to_owned);
    assert_eq!(owned, borrowed, "owned and borrowed decoders disagree");
    owned
}

#[test]
fn every_truncation_prefix_is_truncated_and_a_trailing_byte_is_trailing() {
    for (req, hex) in request_vectors() {
        let bytes = unhex(hex);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_request_both(&bytes[..cut]),
                Err(WireError::Truncated),
                "{req:?} cut {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_request_both(&trailing),
            Err(WireError::TrailingBytes(1)),
            "{req:?}"
        );
        trailing.extend_from_slice(&[1, 2]);
        assert_eq!(
            decode_request_both(&trailing),
            Err(WireError::TrailingBytes(3)),
            "{req:?}"
        );
    }
    for (resp, hex) in response_vectors() {
        let bytes = unhex(hex);
        for cut in 0..bytes.len() {
            assert_eq!(
                Response::decode(&bytes[..cut]),
                Err(WireError::Truncated),
                "{resp:?} cut {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            Response::decode(&trailing),
            Err(WireError::TrailingBytes(1)),
            "{resp:?}"
        );
    }
}

#[test]
fn unknown_tags_are_bad_tags_whatever_follows() {
    for tag in [0u8, 25, 28, 200, 255] {
        assert_eq!(decode_request_both(&[tag]), Err(WireError::BadTag(tag)));
        assert_eq!(
            decode_request_both(&[tag, 1, 2, 3]),
            Err(WireError::BadTag(tag))
        );
    }
    for tag in [0u8, 18, 25, 200, 255] {
        assert_eq!(Response::decode(&[tag]), Err(WireError::BadTag(tag)));
        assert_eq!(
            Response::decode(&[tag, 1, 2, 3]),
            Err(WireError::BadTag(tag))
        );
    }
}

/// An option's or a result's tag byte is 0 or 1; any other value is the
/// value's `BadTag`, not a guess.
#[test]
fn option_and_result_tags_above_one_are_bad_tags() {
    // StatLeg: no parts, then the stop's option tag.
    assert_eq!(
        Response::decode(&unhex("100000000002")),
        Err(WireError::BadTag(2))
    );
    // ... and a present stop's result tag.
    assert_eq!(
        Response::decode(&unhex("10000000000107")),
        Err(WireError::BadTag(7))
    );
}

#[test]
fn a_refusal_kind_past_the_last_is_a_bad_tag() {
    // Response::Error, then the kind byte.
    assert_eq!(
        Response::decode(&unhex("020600000000")),
        Err(WireError::BadTag(6))
    );
}

#[test]
fn invalid_utf8_is_bad_string() {
    // Response::Error with a two-byte reason that is not UTF-8.
    assert_eq!(
        Response::decode(&unhex("020002000000fffe")),
        Err(WireError::BadString)
    );
    // Response::Batch: one entry, index 0, bad reason.
    assert_eq!(
        Response::decode(&unhex("0c01000000000000000002000000fffe")),
        Err(WireError::BadString)
    );
    // Request::GetGrants: stream 0, bad principal.
    let mut get_grants = vec![10u8];
    get_grants.extend_from_slice(&[0; 16]);
    get_grants.extend_from_slice(&unhex("02000000fffe"));
    assert_eq!(decode_request_both(&get_grants), Err(WireError::BadString));
}

/// `tag ‖ head ‖ count` — a frame that ends right after a repeated field's
/// element count.
fn counted(tag: u8, head: &[u8], count: u32) -> Vec<u8> {
    let mut f = vec![tag];
    f.extend_from_slice(head);
    f.extend_from_slice(&count.to_le_bytes());
    f
}

#[test]
fn repeated_counts_above_the_cap_are_too_large() {
    // (tag, bytes between the tag and the count) of every repeated field.
    let requests: [(u8, Vec<u8>); 5] = [
        (5, vec![]),       // GetStatRange.streams
        (12, vec![0; 24]), // PutEnvelopes.envelopes (after stream, resolution)
        (21, vec![]),      // InsertBatch.chunks
        (26, vec![]),      // GetStatLeg.streams
        (27, vec![0; 20]), // ImportStream.records (after stream, an empty cursor)
    ];
    let responses: [(u8, Vec<u8>); 11] = [
        (3, vec![]),      // Chunks
        (4, vec![]),      // Stat.parts
        (5, vec![]),      // Blobs
        (6, vec![]),      // Envelopes
        (9, vec![]),      // Records
        (11, vec![0; 8]), // VerifiedChunks.chunks (after two empty byte strings)
        (12, vec![]),     // Batch.errors
        (13, vec![]),     // ServiceStats.shards
        (14, vec![]),     // StreamList
        (15, vec![]),     // StreamChunks.records
        (16, vec![]),     // StatLeg.parts
    ];
    let cap = MAX_REPEATED as u32;
    for over in [cap + 1, u32::MAX] {
        for (tag, head) in &requests {
            assert_eq!(
                decode_request_both(&counted(*tag, head, over)),
                Err(WireError::TooLarge(over as usize)),
                "request tag {tag}"
            );
        }
        for (tag, head) in &responses {
            assert_eq!(
                Response::decode(&counted(*tag, head, over)),
                Err(WireError::TooLarge(over as usize)),
                "response tag {tag}"
            );
        }
    }
    // A count exactly at the cap passes the guard and then runs out of
    // bytes.
    for (tag, head) in &requests {
        assert_eq!(
            decode_request_both(&counted(*tag, head, cap)),
            Err(WireError::Truncated),
            "request tag {tag}"
        );
    }
    for (tag, head) in &responses {
        assert_eq!(
            Response::decode(&counted(*tag, head, cap)),
            Err(WireError::Truncated),
            "response tag {tag}"
        );
    }
}

/// The `u64` vectors (`Stat.agg`, the shard histograms) have their own
/// verdict: a count above the cap — or above what the remaining bytes can
/// hold — is `Truncated`, not `TooLarge`.
#[test]
fn u64_vector_over_cap_is_truncated() {
    let cap = MAX_REPEATED as u32;
    // Stat: zero parts, then the aggregate's count.
    let stat_head = 0u32.to_le_bytes();
    // ServiceStats: one shard, its thirteen fixed fields (u32, eleven u64,
    // one flag byte), then the first histogram's count.
    let mut shard_head = 1u32.to_le_bytes().to_vec();
    shard_head.extend_from_slice(&[0; 4 + 11 * 8 + 1]);
    for over in [cap + 1, u32::MAX] {
        assert_eq!(
            Response::decode(&counted(4, &stat_head, over)),
            Err(WireError::Truncated)
        );
        assert_eq!(
            Response::decode(&counted(13, &shard_head, over)),
            Err(WireError::Truncated)
        );
    }
    // Two elements announced, one present.
    let mut short = counted(4, &stat_head, 2);
    short.extend_from_slice(&[0; 8]);
    assert_eq!(Response::decode(&short), Err(WireError::Truncated));
}

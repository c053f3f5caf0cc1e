//! Property-based fuzzing of the wire codecs: round-trips for arbitrary
//! field values; no panics on arbitrary bytes.

use proptest::prelude::*;
use std::collections::BTreeSet;
use timecrypt_wire::messages::{
    encode_trace_prefix, split_trace, Request, RequestRef, Response, ServiceStatsWire,
    ShardStatsWire, StatLegWire, StatReply, StreamInfoWire, TRACE_PREFIX_LEN,
};
use timecrypt_wire::TraceContext;

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u128>(), any::<i64>(), any::<u64>(), any::<u32>()).prop_map(
            |(stream, t0, delta_ms, digest_width)| Request::CreateStream {
                stream,
                t0,
                delta_ms,
                digest_width
            }
        ),
        any::<u128>().prop_map(|stream| Request::DeleteStream { stream }),
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(|chunk| Request::Insert { chunk }),
        (any::<u128>(), any::<i64>(), any::<i64>())
            .prop_map(|(stream, ts_s, ts_e)| Request::GetRange { stream, ts_s, ts_e }),
        (
            proptest::collection::vec(any::<u128>(), 0..10),
            any::<i64>(),
            any::<i64>()
        )
            .prop_map(|(streams, ts_s, ts_e)| Request::GetStatRange {
                streams,
                ts_s,
                ts_e
            }),
        (
            any::<u128>(),
            "[a-z0-9-]{0,30}",
            proptest::collection::vec(any::<u8>(), 0..100)
        )
            .prop_map(|(stream, principal, blob)| Request::PutGrant {
                stream,
                principal,
                blob
            }),
        (
            any::<u128>(),
            any::<u64>(),
            proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40)),
                0..8
            )
        )
            .prop_map(|(stream, resolution, envelopes)| Request::PutEnvelopes {
                stream,
                resolution,
                envelopes
            }),
        proptest::collection::vec(any::<u8>(), 0..120)
            .prop_map(|record| Request::InsertLive { record }),
        (any::<u128>(), any::<i64>(), any::<i64>())
            .prop_map(|(stream, ts_s, ts_e)| Request::GetLive { stream, ts_s, ts_e }),
        (
            any::<u128>(),
            proptest::collection::vec(any::<u8>(), 0..160)
        )
            .prop_map(|(stream, attestation)| Request::PutAttestation {
                stream,
                attestation
            }),
        any::<u128>().prop_map(|stream| Request::GetAttestation { stream }),
        (any::<u128>(), any::<i64>(), any::<i64>())
            .prop_map(|(stream, ts_s, ts_e)| Request::GetRangeProof { stream, ts_s, ts_e }),
        (any::<u128>(), any::<i64>(), any::<i64>())
            .prop_map(|(stream, ts_s, ts_e)| Request::GetVerifiedRange { stream, ts_s, ts_e }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 0..10)
            .prop_map(|chunks| Request::InsertBatch { chunks }),
        Just(Request::Stats),
        Just(Request::Ping),
        (any::<u128>(), any::<i64>(), any::<i64>())
            .prop_map(|(stream, ts_s, ts_e)| Request::DeleteRange { stream, ts_s, ts_e }),
        (any::<u128>(), any::<i64>(), any::<u8>()).prop_map(|(stream, before_ts, keep_level)| {
            Request::Rollup {
                stream,
                before_ts,
                keep_level,
            }
        }),
        any::<u128>().prop_map(|stream| Request::StreamInfo { stream }),
        (any::<u128>(), "[a-z0-9-]{0,30}")
            .prop_map(|(stream, principal)| Request::GetGrants { stream, principal }),
        (any::<u128>(), "[a-z0-9-]{0,30}")
            .prop_map(|(stream, principal)| Request::RevokeGrants { stream, principal }),
        (any::<u128>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(stream, resolution, lo, hi)| Request::GetEnvelopes {
                stream,
                resolution,
                lo,
                hi
            }
        ),
        any::<u32>().prop_map(|shard| Request::ListStreams { shard }),
        (any::<u128>(), proptest::collection::vec(any::<u8>(), 0..30))
            .prop_map(|(stream, after)| Request::ExportStream { stream, after }),
        (
            any::<u128>(),
            proptest::collection::vec(any::<u8>(), 0..30),
            arb_records(),
            any::<bool>()
        )
            .prop_map(|(stream, after, records, done)| Request::ImportStream {
                stream,
                after,
                records,
                done
            }),
        (
            proptest::collection::vec(any::<u128>(), 0..10),
            any::<i64>(),
            any::<i64>()
        )
            .prop_map(|(streams, ts_s, ts_e)| Request::GetStatLeg {
                streams,
                ts_s,
                ts_e
            }),
    ]
}

fn arb_records() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<u8>(), 0..30),
            proptest::collection::vec(any::<u8>(), 0..60),
        ),
        0..6,
    )
}

fn arb_info() -> impl Strategy<Value = StreamInfoWire> {
    (
        any::<u128>(),
        any::<i64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(stream, t0, delta_ms, digest_width, len)| StreamInfoWire {
            stream,
            t0,
            delta_ms,
            digest_width,
            len,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        Just(Response::Pong),
        "[ -~]{0,60}".prop_map(Response::Error),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 0..8)
            .prop_map(Response::Chunks),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 0..8)
            .prop_map(Response::Records),
        (
            proptest::collection::vec(any::<u8>(), 0..160),
            proptest::collection::vec(any::<u8>(), 0..160)
        )
            .prop_map(|(attestation, proof)| Response::Attested { attestation, proof }),
        (
            proptest::collection::vec(any::<u8>(), 0..160),
            proptest::collection::vec(any::<u8>(), 0..160),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..6),
        )
            .prop_map(|(attestation, proof, chunks)| Response::VerifiedChunks {
                attestation,
                proof,
                chunks
            }),
        (
            proptest::collection::vec((any::<u128>(), any::<u64>(), any::<u64>()), 0..6),
            proptest::collection::vec(any::<u64>(), 0..20),
        )
            .prop_map(|(parts, agg)| Response::Stat(StatReply { parts, agg })),
        (
            proptest::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..6),
            (0u8..3, any::<u32>(), "[ -~]{0,40}"),
            proptest::collection::vec(any::<u64>(), 0..20),
        )
            .prop_map(|(parts, (pick, width, error), agg)| {
                let stops = [None, Some(Ok(width)), Some(Err(error))];
                Response::StatLeg(StatLegWire {
                    parts,
                    stop: stops.into_iter().nth(pick as usize).flatten(),
                    agg,
                })
            }),
        arb_info().prop_map(Response::Info),
        proptest::collection::vec(any::<u128>(), 0..5).prop_map(Response::StreamList),
        any::<u64>().prop_map(Response::Imported),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 0..4)
            .prop_map(Response::Blobs),
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40)),
            0..8
        )
        .prop_map(Response::Envelopes),
        (arb_records(), any::<bool>())
            .prop_map(|(records, done)| Response::StreamChunks { records, done }),
        proptest::collection::vec((any::<u32>(), "[ -~]{0,40}"), 0..8)
            .prop_map(|errors| Response::Batch { errors }),
        (
            proptest::collection::vec(
                (
                    (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
                    (any::<u64>(), any::<u64>(), any::<u64>()),
                    (any::<u64>(), any::<u64>()),
                    (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
                    (
                        proptest::collection::vec(any::<u64>(), 0..8),
                        proptest::collection::vec(any::<u64>(), 0..8),
                    ),
                    (any::<u64>(), any::<u64>(), any::<u64>()),
                ),
                0..4,
            ),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |(
                    shards,
                    (store_gets, store_puts, store_deletes, store_scans),
                    (store_bytes_read, store_bytes_written),
                )| {
                    Response::ServiceStats(ServiceStatsWire {
                        shards: shards
                            .into_iter()
                            .map(
                                |(
                                    (shard, streams, ingested_chunks, ingest_errors),
                                    (queries, query_errors, queue_depth),
                                    (failovers, replica_errors),
                                    (promotions, rebuilds, rebuild_chunks_copied, in_sync),
                                    (ingest_hist_us, query_hist_us),
                                    (resident_streams, hydrations, evictions),
                                )| {
                                    ShardStatsWire {
                                        shard,
                                        streams,
                                        ingested_chunks,
                                        ingest_errors,
                                        queries,
                                        query_errors,
                                        queue_depth,
                                        failovers,
                                        replica_errors,
                                        promotions,
                                        rebuilds,
                                        rebuild_chunks_copied,
                                        in_sync,
                                        ingest_hist_us,
                                        query_hist_us,
                                        resident_streams,
                                        hydrations,
                                        evictions,
                                    }
                                },
                            )
                            .collect(),
                        store_gets,
                        store_puts,
                        store_deletes,
                        store_scans,
                        store_bytes_read,
                        store_bytes_written,
                    })
                }
            ),
    ]
}

/// The generators cannot fall behind the message tables: over a fixed
/// sweep of cases they produce every declared tag and nothing else, so a
/// new message with no generator arm fails here and does not silently
/// escape the properties below.
#[test]
fn generators_cover_every_declared_tag() {
    let declared = |tags: &[(u8, &str)]| tags.iter().map(|t| t.0).collect::<BTreeSet<u8>>();
    let (requests, responses) = (arb_request(), arb_response());
    let (mut seen_req, mut seen_resp) = (BTreeSet::new(), BTreeSet::new());
    let sweep = ProptestConfig::with_cases(2048);
    proptest::run_property("generators_cover_every_declared_tag", &sweep, |rng| {
        seen_req.insert(requests.generate(rng).encode()[0]);
        seen_resp.insert(responses.generate(rng).encode()[0]);
        Ok(())
    });
    assert_eq!(seen_req, declared(Request::TAGS));
    assert_eq!(seen_resp, declared(Response::TAGS));
}

proptest! {
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let bytes = req.encode();
        prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let bytes = resp.encode();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    /// `encode_into` is byte-identical to `encode` and appends after any
    /// existing content (the scratch-buffer reuse contract) — including
    /// after a trace-context envelope prefix, the traced-send path.
    #[test]
    fn encode_into_matches_encode(req in arb_request(), resp in arb_response(), prefix in proptest::collection::vec(any::<u8>(), 0..8)) {
        let mut buf = prefix.clone();
        req.encode_into(&mut buf);
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &req.encode()[..]);
        let mut buf = prefix.clone();
        resp.encode_into(&mut buf);
        prop_assert_eq!(&buf[prefix.len()..], &resp.encode()[..]);
        let ctx = TraceContext { trace_id: 7, span_id: 9 };
        let mut buf = Vec::new();
        encode_trace_prefix(ctx, &mut buf);
        prop_assert_eq!(buf.len(), TRACE_PREFIX_LEN);
        req.encode_into(&mut buf);
        prop_assert_eq!(&buf[TRACE_PREFIX_LEN..], &req.encode()[..]);
    }

    /// The trace envelope round-trips over any request, and untraced
    /// bodies pass through `split_trace` unchanged (old-peer interop:
    /// a pre-envelope encoder's bytes reach the handler byte-identical).
    #[test]
    fn trace_envelope_roundtrip(req in arb_request(), trace_id in any::<u128>(), span_id in any::<u64>()) {
        let ctx = TraceContext { trace_id, span_id };
        let mut body = Vec::new();
        encode_trace_prefix(ctx, &mut body);
        req.encode_into(&mut body);
        let (got, inner) = split_trace(&body).unwrap();
        prop_assert_eq!(got, Some(ctx));
        prop_assert_eq!(Request::decode(inner).unwrap(), req.clone());
        let plain = req.encode();
        let (got, inner) = split_trace(&plain).unwrap();
        prop_assert_eq!(got, None);
        prop_assert_eq!(inner, &plain[..]);
    }

    /// `split_trace` never panics on arbitrary bytes.
    #[test]
    fn split_trace_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = split_trace(&bytes);
    }

    /// Borrowed decode == owned decode for every request variant, in both
    /// the success and the reject direction.
    #[test]
    fn borrowed_decode_matches_owned(req in arb_request(), cut_basis in 0usize..10_000) {
        let bytes = req.encode();
        prop_assert_eq!(RequestRef::decode(&bytes).unwrap().to_owned(), req);
        let cut = cut_basis % (bytes.len() + 1);
        prop_assert_eq!(
            RequestRef::decode(&bytes[..cut]).is_ok(),
            Request::decode(&bytes[..cut]).is_ok()
        );
    }

    /// Arbitrary bytes never panic the decoders (hostile peers).
    #[test]
    fn decoders_survive_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = RequestRef::decode(&bytes);
    }

    /// Mutating any single byte of a valid message never panics, and if it
    /// decodes, it decodes to *something* well-formed (re-encodable).
    #[test]
    fn single_byte_corruption_safe(req in arb_request(), pos in 0usize..64, flip in 1u8..=255) {
        let mut bytes = req.encode();
        if bytes.is_empty() {
            return Ok(());
        }
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        if let Ok(decoded) = Request::decode(&bytes) {
            let _ = decoded.encode();
        }
    }
}

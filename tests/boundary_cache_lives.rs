//! A cached running sum holds only within one life of its stream. Each
//! index open is a new life and keys its sums afresh in the node's boundary
//! cache, so none of these finds a sum of the stream's earlier life:
//!
//! - `DeleteStream`, then `CreateStream` of the same id with other data;
//! - an `ImportStream` of other records over a stream that is resident;
//! - eviction and rehydration under `max_resident_streams = Some(1)`.
//!
//! On an engine and on a two-shard `ShardNode`, each case follows windows
//! read three times, so that their boundaries are cached, and its stat
//! replies must equal those of a fresh engine holding the same records.

use common::{Deployment, Spec};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::ServerConfig;
use timecrypt::wire::messages::{Request, Response};

mod common;

/// Chunks per stream, a second apart.
const CHUNKS: u64 = 40;

/// The windows read, in seconds: each boundary is a stored running sum.
const WINDOWS: [(i64, i64); 3] = [(5, 30), (10, 39), (1, 20)];

fn call(tier: &Deployment, request: Request) -> Response {
    match tier.call(request) {
        Response::Error(e) => panic!("{e}"),
        reply => reply,
    }
}

/// Creates `stream` and ingests its chunks, chunk `c`'s digest four words
/// of `seed · c + 1`.
fn fill(tier: &Deployment, stream: u128, seed: u64) {
    call(
        tier,
        Request::CreateStream {
            stream,
            t0: 0,
            delta_ms: 1000,
            digest_width: 4,
        },
    );
    let chunk = |c: u64| {
        let mut bytes = Vec::new();
        EncryptedChunk::encode_parts(stream, c, &[seed * c + 1; 4], b"payload", &mut bytes);
        bytes
    };
    let chunks = (0..CHUNKS).map(chunk).collect();
    call(tier, Request::InsertBatch { chunks });
}

/// The stat replies of `stream`'s windows, each read three times.
fn read(tier: &Deployment, stream: u128) -> Vec<Response> {
    let window = |&(s, e): &(i64, i64)| {
        let request = || Request::GetStatRange {
            streams: vec![stream],
            ts_s: 1000 * s,
            ts_e: 1000 * e,
        };
        let replies: Vec<_> = (0..3).map(|_| call(tier, request())).collect();
        assert!(replies.iter().all(|r| *r == replies[0]));
        replies[0].clone()
    };
    WINDOWS.iter().map(window).collect()
}

/// What a fresh engine holding only `stream` of `seed` answers.
fn fresh(stream: u128, seed: u64) -> Vec<Response> {
    let engine = Deployment::build(&Spec::engine());
    fill(&engine, stream, seed);
    read(&engine, stream)
}

#[test]
fn a_stream_deleted_and_created_again_reads_its_new_data() {
    for spec in [Spec::engine(), Spec::node(2)] {
        let tier = &Deployment::build(&spec);
        fill(tier, 7, 3);
        assert_eq!(read(tier, 7), fresh(7, 3));
        call(tier, Request::DeleteStream { stream: 7 });
        fill(tier, 7, 5);
        assert_eq!(read(tier, 7), fresh(7, 5));
    }
}

#[test]
fn a_stream_imported_over_while_resident_reads_the_import() {
    let source = Deployment::build(&Spec::engine());
    fill(&source, 8, 11);
    for spec in [Spec::engine(), Spec::node(2)] {
        let tier = &Deployment::build(&spec);
        fill(tier, 8, 3);
        assert_eq!(read(tier, 8), fresh(8, 3));
        let mut after = Vec::new();
        loop {
            let (records, done) = source.engine().export_stream(8, &after, 1 << 10).unwrap();
            let last = records.last().map(|(key, _)| key.clone());
            let (stream, after_page) = (8, after.clone());
            call(
                tier,
                Request::ImportStream {
                    stream,
                    after: after_page,
                    records,
                    done,
                },
            );
            match (done, last) {
                (false, Some(key)) => after = key,
                _ => break,
            }
        }
        assert_eq!(read(tier, 8), fresh(8, 11));
    }
}

#[test]
fn a_stream_evicted_and_rehydrated_reads_the_same() {
    let cfg = ServerConfig {
        max_resident_streams: Some(1),
        ..ServerConfig::default()
    };
    for spec in [Spec::engine(), Spec::node(2)] {
        let tier = &Deployment::build(&spec.engine_cfg(cfg.clone()));
        fill(tier, 9, 3);
        fill(tier, 10, 5);
        for _ in 0..3 {
            // Each stream's reads evict the other, which rehydrates next.
            assert_eq!(read(tier, 9), fresh(9, 3));
            assert_eq!(read(tier, 10), fresh(10, 5));
        }
        call(tier, Request::DeleteStream { stream: 9 });
        fill(tier, 9, 7);
        assert_eq!(read(tier, 10), fresh(10, 5));
        assert_eq!(read(tier, 9), fresh(9, 7));
    }
}

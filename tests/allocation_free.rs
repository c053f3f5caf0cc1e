//! The hot paths' allocation-free steps allocate nothing once their buffers
//! are warm (ARCHITECTURE.md, "Checked invariants"). The others are counted
//! beside their callers: each handler's `dispatch` in `ingest_path.rs`, the
//! index walk and the spine's ripple in `index_node_shape.rs`, P-256's
//! arithmetic in `grant_cost.rs`.

use std::net::TcpListener;
use timecrypt::chunk::EncryptedChunk;
use timecrypt::core::ElementKeys;
use timecrypt::crypto::{sha256, AesGcm128, Sha256};
use timecrypt::wire::messages::{Request, Response, StatReply};
use timecrypt::wire::Client;

mod common;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

/// Runs `step` once to warm its buffers, then counts a second run.
fn calls_when_warm(mut step: impl FnMut()) -> u64 {
    step();
    common::calls_of(step).0
}

#[test]
fn encoding_into_a_warm_buffer_allocates_nothing() {
    let chunk = EncryptedChunk {
        stream: 7,
        index: 3,
        digest_ct: vec![1; 19],
        payload: vec![2; 500],
    };
    // Repeated fields of integers and of tuples, and a struct.
    let (streams, parts) = (vec![1, 2, 3], vec![(1, 0, 10), (2, 5, 7)]);
    let request = Request::GetStatRange {
        streams,
        ts_s: 0,
        ts_e: 10,
    };
    let reply = Response::Stat(StatReply {
        parts,
        agg: vec![1, u64::MAX],
    });
    let mut out = Vec::new();
    let calls = calls_when_warm(|| {
        out.clear();
        chunk.encode_into(&mut out);
        request.encode_into(&mut out);
        reply.encode_into(&mut out);
    });
    assert_eq!(calls, 0);
}

#[test]
fn a_warm_client_sends_without_allocating() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
    let mut peer = listener.accept().unwrap().0;
    let drain = std::thread::spawn(move || std::io::copy(&mut peer, &mut std::io::sink()));
    let req = Request::InsertBatch {
        chunks: vec![vec![9; 300]; 16],
    };
    assert_eq!(calls_when_warm(|| client.send(&req).unwrap()), 0);
    drop(client);
    assert!(drain.join().unwrap().unwrap() > 2 * 16 * 300);
}

#[test]
fn sealing_and_opening_into_warm_buffers_allocates_nothing() {
    let (gcm, nonce, plain) = (AesGcm128::new(&[7; 16]), [1; 12], [5u8; 1000]);
    let (mut sealed, mut opened) = (Vec::new(), Vec::new());
    let calls = calls_when_warm(|| {
        sealed.clear();
        gcm.seal_into(&nonce, b"aad", &plain, &mut sealed);
        let first = sealed.len();
        sealed.extend_from_slice(&plain);
        gcm.seal_tail(&nonce, b"aad", &mut sealed, first);
        opened.clear();
        let ct = &sealed[..first];
        gcm.open_into(&nonce, b"aad", ct, &mut opened).unwrap();
    });
    assert_eq!(calls, 0);
    assert_eq!(opened, plain);
    assert_eq!(sealed[..sealed.len() / 2], sealed[sealed.len() / 2..]);
}

#[test]
fn sha256_allocates_nothing() {
    let (data, mut digests) = ([3u8; 4113], [[0; 32]; 2]);
    let calls = calls_when_warm(|| {
        let mut h = Sha256::new();
        h.update(&data[..100]);
        h.update(&data[100..]);
        digests = [h.finalize(), sha256(&data)];
    });
    assert_eq!(calls, 0);
    assert_eq!(digests[0], digests[1]);
}

#[test]
fn element_keys_allocate_nothing() {
    let (keys, mut words) = (ElementKeys::new(&[4; 16]), [0u64; 19]);
    let calls = calls_when_warm(|| {
        keys.keys_into(&mut words);
        keys.apply(&mut words, u64::wrapping_sub);
    });
    assert_eq!((calls, words), (0, [0; 19]));
}

//! The hot paths' allocation-free steps allocate nothing once their buffers
//! are warm (ARCHITECTURE.md, "Checked invariants"), a store read
//! allocates its value alone, and a lone put's and a store batch's calls
//! are counted, as are a warm ping's at either end of a connection and a
//! traced one's at the serving end (six ledger rows). The others are
//! counted beside their callers: each handler's `dispatch` in
//! `ingest_path.rs`, the index's boundary reads and appends in
//! `index_node_shape.rs`, P-256's arithmetic in `grant_cost.rs`.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use timecrypt::chunk::EncryptedChunk;
use timecrypt::core::ElementKeys;
use timecrypt::crypto::{sha256, AesGcm128, Sha256};
use timecrypt::store::{KvStore, MemKv, WriteOp};
use timecrypt::wire::messages::{encode_trace_prefix, Request, Response, StatReply};
use timecrypt::wire::{read_frame, write_frame, Client, Server, TraceContext};

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

const PINGS: u64 = 100;

/// A hundred warm `Ping` calls on one connection. The row is the allocator
/// calls a call makes on the client's thread: its frame sent and its reply
/// read back (the server's are on threads of its own).
#[test]
fn a_warm_client_ping_counts_its_allocator_calls() {
    let server = Server::bind("127.0.0.1:0", Arc::new(|_: Request| Response::Pong)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let calls = calls_when_warm(|| {
        for _ in 0..PINGS {
            assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        }
    });
    assert_eq!(calls % PINGS, 0, "every ping allocates alike: {calls}");
    common::ledger(&[(
        "wire.client.allocations_per_ping".into(),
        (calls / PINGS).to_string(),
    )]);
}

/// A hundred warm `Ping` frames served on one connection. The handler runs
/// on the connection thread and records that thread's allocator calls at
/// each frame; the row is what the serve loop makes between two frames:
/// the request read, the reply written and the stage scope of the
/// slow-request log, a fixed table, allocate nothing once warm.
#[test]
fn a_warm_serve_loop_counts_its_allocator_calls_per_ping() {
    let seen = Arc::new(Mutex::new(Vec::with_capacity(PINGS as usize + 2)));
    let record = seen.clone();
    let handler = move |_: Request| {
        record.lock().unwrap().push(common::calls());
        Response::Pong
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(handler)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..PINGS + 2 {
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    }
    // From the second frame on, the loop's buffers are warm.
    let seen = seen.lock().unwrap();
    let calls = seen[PINGS as usize + 1] - seen[1];
    assert_eq!(calls % PINGS, 0, "every ping allocates alike: {calls}");
    common::ledger(&[(
        "wire.serve_loop.allocations_per_ping".into(),
        (calls / PINGS).to_string(),
    )]);
}

/// The same warm loop over frames that carry a trace envelope, written to
/// a raw socket (a `Client` writes none). The row is what the loop makes
/// between two traced frames: the untraced row's, and the message of the
/// `span serve` event each traced request leaves in the flight recorder.
#[test]
fn a_warm_serve_loop_counts_its_allocator_calls_per_traced_ping() {
    let seen = Arc::new(Mutex::new(Vec::with_capacity(PINGS as usize + 2)));
    let record = seen.clone();
    let handler = move |_: Request| {
        record.lock().unwrap().push(common::calls());
        Response::Pong
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(handler)).unwrap();
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut body = Vec::new();
    encode_trace_prefix(TraceContext::new_root(), &mut body);
    Request::Ping.encode_into(&mut body);
    for _ in 0..PINGS + 2 {
        write_frame(&mut conn, &body).unwrap();
        let reply = read_frame(&mut conn).unwrap();
        assert_eq!(Response::decode(&reply).unwrap(), Response::Pong);
    }
    let seen = seen.lock().unwrap();
    let calls = seen[PINGS as usize + 1] - seen[1];
    assert_eq!(calls % PINGS, 0, "every ping allocates alike: {calls}");
    common::ledger(&[(
        "wire.serve_loop.allocations_per_traced_ping".into(),
        (calls / PINGS).to_string(),
    )]);
}

#[test]
fn sealing_and_opening_into_warm_buffers_allocates_nothing() {
    let (gcm, nonce, plain) = (AesGcm128::new(&[7; 16]), [1; 12], [5u8; 1000]);
    let (mut sealed, mut opened) = (Vec::new(), Vec::new());
    let calls = calls_when_warm(|| {
        sealed.clear();
        gcm.seal_into(&nonce, b"aad", &plain, &mut sealed);
        opened.clear();
        gcm.open_into(&nonce, b"aad", &sealed, &mut opened).unwrap();
    });
    assert_eq!(calls, 0);
    assert_eq!(opened, plain);
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

/// 10 000 warm `get`s on a `MemKv`, round robin over counting keys (held
/// in runs) and other keys (held in the side map), every value under the
/// 4 KiB a read takes on the stack. The row is the allocator calls a `get`
/// makes: its value's.
#[test]
fn a_store_get_allocates_its_value_alone() {
    const GETS: usize = 10_000;
    let kv = MemKv::new();
    let counting = (0..64u64).map(|n| [&b"il/7/"[..], &n.to_be_bytes()].concat());
    let others = (0..64u64).map(|n| format!("meta/{n}").into_bytes());
    let keys: Vec<Vec<u8>> = counting.chain(others).collect();
    for (i, key) in keys.iter().enumerate() {
        kv.put(key, &vec![i as u8; 1 + 31 * i]).unwrap();
    }
    let get = |i: usize| assert!(kv.get(&keys[i % keys.len()]).unwrap().is_some());
    (0..keys.len()).for_each(get);
    let (calls, ()) = common::calls_of(|| (0..GETS).for_each(get));
    common::ledger(&[(
        "store_log.get.allocations_per_call".into(),
        format!("{:.4}", calls as f64 / GETS as f64),
    )]);
}

/// 1 000 warm `write_batch`es on a `MemKv`, each of 16 puts of 64-byte
/// values under the next counting keys of one stream, as an ingest run
/// commits them. The row is the allocator calls a batch makes, the growth
/// of the file and of the index amortised over the thousand.
#[test]
fn a_warm_store_batch_counts_its_allocator_calls() {
    const BATCHES: u64 = 1_000;
    let kv = MemKv::new();
    let keys: Vec<Vec<u8>> = (0..(BATCHES + 1) * 16)
        .map(|n| [&b"il/7/"[..], &n.to_be_bytes()].concat())
        .collect();
    let value = [5u8; 64];
    let mut ops = Vec::with_capacity(16);
    let mut batch = |b: u64| {
        ops.clear();
        let run = &keys[b as usize * 16..][..16];
        ops.extend(run.iter().map(|key| WriteOp::Put { key, value: &value }));
        kv.write_batch(&ops).unwrap();
    };
    batch(0);
    let (calls, ()) = common::calls_of(|| (1..=BATCHES).for_each(&mut batch));
    assert_eq!(kv.len() as u64, (BATCHES + 1) * 16);
    common::ledger(&[(
        "store_log.batch16.allocations_per_call".into(),
        format!("{:.4}", calls as f64 / BATCHES as f64),
    )]);
}

/// 1 000 warm lone `put`s on a `MemKv`, each of a 64-byte value under the
/// next counting key of one stream. The row is the allocator calls a put
/// makes, the growth of the file and of the index amortised as above.
#[test]
fn a_warm_lone_put_counts_its_allocator_calls() {
    const PUTS: u64 = 1_000;
    let kv = MemKv::new();
    let keys: Vec<Vec<u8>> = (0..=PUTS)
        .map(|n| [&b"il/7/"[..], &n.to_be_bytes()].concat())
        .collect();
    let put = |n: u64| kv.put(&keys[n as usize], &[5; 64]).unwrap();
    put(0);
    let (calls, ()) = common::calls_of(|| (1..=PUTS).for_each(put));
    assert_eq!(kv.len() as u64, PUTS + 1);
    common::ledger(&[(
        "store_log.put.allocations_per_call".into(),
        format!("{:.4}", calls as f64 / PUTS as f64),
    )]);
}

//! A panicking stream run fails that stream's chunks only — on a
//! coordinator's in-process shard and on a `ShardNode` behind the wire
//! alike. The containment lives in the engine's ingest run, the one place
//! that knows where one stream's run ends and the next begins.

use std::sync::Arc;
use timecrypt_chunk::serialize::EncryptedChunk;
use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_server::{ServerConfig, ServerError};
use timecrypt_service::{NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService};
use timecrypt_store::{KvPairs, KvStore, MemKv, StoreError, WriteOp};
use timecrypt_wire::messages::{Refusal, Request, Response};
use timecrypt_wire::transport::{Client, ClientError, Server};

const STREAMS: [u128; 3] = [11, 12, 13];
const POISONED: u128 = 12;

/// A store whose batch commit panics when any key names the poisoned
/// stream (index keys carry the stream id big-endian).
#[derive(Default)]
struct PoisonedKv(MemKv);

impl KvStore for PoisonedKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.0.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.0.put(key, value)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.0.delete(key)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
        self.0.scan_prefix(prefix)
    }
    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        let poisoned = |op: &WriteOp<'_>| match op {
            WriteOp::Put { key, .. } | WriteOp::Delete { key } => {
                key.windows(16).any(|w| w == POISONED.to_be_bytes())
            }
        };
        assert!(
            !ops.iter().any(poisoned),
            "poisoned stream reached the store"
        );
        self.0.write_batch(ops)
    }
}

/// What a chunk of the poisoned stream is refused with.
fn panicked() -> Refusal {
    ServerError::Unavailable("shard engine panicked").into()
}

fn sealed(id: u128, index: u64) -> EncryptedChunk {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "m", 0, 10_000)
    };
    let keys = StreamKeyMaterial::with_params(id, [id as u8; 16], 20, PrgKind::Aes).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(60 + index);
    PlainChunk {
        stream: id,
        index,
        points: vec![DataPoint::new(index as i64 * 10_000, 1)],
    }
    .seal(&cfg, &keys, &mut rng)
    .unwrap()
}

/// Two chunks of each of the three streams in one batch (the poisoned
/// stream in the middle), then: the poisoned stream's chunks alone report
/// the panic, the other streams' chunks are stored and readable, and the
/// path still serves the next request.
fn poisoned_run_fails_alone(svc: &ShardedService) {
    for id in STREAMS {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    let batch: Vec<EncryptedChunk> = (0..2)
        .flat_map(|index| STREAMS.map(|id| sealed(id, index)))
        .collect();
    let owners: Vec<u128> = batch.iter().map(|c| c.stream).collect();
    for (id, verdict) in owners.into_iter().zip(svc.submit_batch(batch)) {
        match verdict {
            Err(e) if id == POISONED => assert_eq!(Refusal::from(e), panicked()),
            other => assert!(other.is_ok() && id != POISONED, "stream {id}: {other:?}"),
        }
    }
    for id in [11, 13] {
        let reply = svc.get_stat_range(&[id], 0, 20_000).unwrap();
        assert_eq!(reply.parts, vec![(id, 0, 2)], "stream {id} committed");
    }
    let empty = svc.get_stat_range(&[POISONED], 0, 20_000).unwrap_err();
    assert_eq!(Refusal::from(empty), ServerError::EmptyRange.into());
    svc.insert(&sealed(11, 2)).unwrap();
}

#[test]
fn local_shard_contains_a_panicking_stream_run() {
    let svc = ShardedService::open(
        Arc::new(PoisonedKv::default()),
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    poisoned_run_fails_alone(&svc);
}

#[test]
fn shard_node_contains_a_panicking_stream_run() {
    let node = ShardNode::open(
        Arc::new(PoisonedKv::default()),
        NodeConfig {
            total_shards: 1,
            hosted: vec![0],
            engine: ServerConfig::default(),
        },
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(node)).unwrap();
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology: vec![ShardSpec::remote(server.addr().to_string())],
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    poisoned_run_fails_alone(&svc);
    // The connection that carried the panicking run takes the next request.
    let mut client = Client::connect(server.addr()).unwrap();
    let chunk = sealed(POISONED, 0).to_bytes();
    match client.call(&Request::Insert { chunk }) {
        Err(ClientError::Refused(refusal)) => assert_eq!(refusal, panicked()),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
}

//! A server's refusal reaches the client as one `ClientFault`, however the
//! server is deployed and whichever transport carries it: the refusal is
//! the same reply, so it reads the same. The `client.refusal_renderings` row
//! of the root `BENCH_ledger.json` counts the distinct renderings of one
//! refusal over `InProc` and `wire::Client`, to an engine and to a
//! coordinator.

use common::{Deployment, Spec};
use std::collections::BTreeSet;
use timecrypt::chunk::StreamConfig;
use timecrypt::client::{ClientFault, Consumer, DataOwner, InProc, Transport};
use timecrypt::crypto::SecureRandom;
use timecrypt::wire::messages::Request;
use timecrypt::wire::Client;

mod common;

/// The owner of stream 7.
fn owner() -> DataOwner {
    let cfg = StreamConfig::new(7, "m", 0, 10_000);
    DataOwner::new(cfg, SecureRandom::from_seed_insecure(1))
}

/// Two refusals: a `CreateStream` of the registered stream 7, and a
/// statistical query over the unknown stream 99.
fn refusals<T: Transport>(transport: &mut T) -> [ClientFault; 2] {
    let created = owner().create_stream(transport).unwrap_err();
    let mut consumer = Consumer::new("c", &mut SecureRandom::from_seed_insecure(2));
    let unknown = consumer.stat_query(transport, 99, 0, 60_000).unwrap_err();
    [created, unknown]
}

#[test]
fn a_refusal_reads_the_same_over_every_transport_and_tier() {
    let mut seen = [BTreeSet::new(), BTreeSet::new()];
    for spec in [Spec::engine(), Spec::coordinator(2)] {
        let deployment = Deployment::build(&spec);
        let mut inproc = InProc::new(deployment.handler());
        owner().create_stream(&mut inproc).unwrap();
        let mut tcp = Client::connect(deployment.serve()).unwrap();
        for faults in [refusals(&mut inproc), refusals(&mut tcp)] {
            for (seen, fault) in seen.iter_mut().zip(faults) {
                // A refusal is a `Refused` fault: the server's refusal, whole.
                assert!(matches!(fault, ClientFault::Refused(_)), "{fault:?}");
                seen.insert(fault.to_string());
            }
        }
    }
    let renderings = seen.iter().map(BTreeSet::len).max().unwrap_or(0);
    common::ledger(&[("client.refusal_renderings".into(), renderings.to_string())]);
}

/// A refusal on the wire: the `Response` a `GetRange` of the unknown
/// stream 99 is answered with, the same bytes on every tier (the
/// `wire.refusal_bytes.no_such_stream` row of the root `BENCH_ledger.json`).
#[test]
fn a_refusal_is_the_same_bytes_on_every_tier() {
    let unknown = Request::GetRange {
        stream: 99,
        ts_s: 0,
        ts_e: 60_000,
    };
    let tiers = [Spec::engine(), Spec::coordinator(2), Spec::remote(2, 2, 1)];
    let replies: BTreeSet<Vec<u8>> = (tiers.iter())
        .map(|spec| Deployment::build(spec).call(unknown.clone()).encode())
        .collect();
    assert_eq!(replies.len(), 1, "{replies:?}");
    let bytes = replies.first().map_or(0, Vec::len).to_string();
    common::ledger(&[("wire.refusal_bytes.no_such_stream".into(), bytes)]);
}

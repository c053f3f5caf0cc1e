//! Integration tests for the networked deployment and durable storage.

use common::{Deployment, Spec};
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, Producer, Transport};
use timecrypt::crypto::SecureRandom;
use timecrypt::wire::Client as TcpClient;

mod common;

/// Stream `id` created over `t` by its owner (key bytes `key`, seed
/// `seed`), then `secs` seconds of 1 Hz points of `value(s)` produced
/// (seed `seed + 1`).
fn produce(
    t: &mut impl Transport,
    id: u128,
    (key, seed): (u8, u64),
    secs: i64,
    value: impl Fn(i64) -> i64,
) -> (StreamConfig, DataOwner) {
    let cfg = StreamConfig::new(id, "m", 0, 10_000);
    let rng = SecureRandom::from_seed_insecure(seed);
    let mut owner = DataOwner::with_height(cfg.clone(), [key; 16], 20, rng);
    owner.create_stream(t).unwrap();
    let rng = SecureRandom::from_seed_insecure(seed + 1);
    let mut p = Producer::new(cfg.clone(), owner.provision_producer(), rng);
    for s in 0..secs {
        p.push(t, DataPoint::new(s * 1000, value(s))).unwrap();
    }
    p.flush(t).unwrap();
    (cfg, owner)
}

#[test]
fn full_flow_over_tcp() {
    let engine = Deployment::build(&Spec::engine());
    let addr = engine.serve();

    let mut conn = TcpClient::connect(addr).unwrap();
    let (cfg, mut owner) = produce(&mut conn, 5, (9, 1), 120, |s| s);

    let mut rng = SecureRandom::from_seed_insecure(3);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut conn, "c", c.public_key(), 0, 120_000)
        .unwrap();
    let mut conn2 = TcpClient::connect(addr).unwrap();
    c.sync_grants(&mut conn2, cfg.id).unwrap();
    let s = c.stat_query(&mut conn2, cfg.id, 0, 120_000).unwrap();
    assert_eq!(s.count, Some(120));
    assert_eq!(s.sum, Some((0..120).sum::<i64>()));
    let pts = c.get_range(&mut conn2, cfg.id, 0, 20_000).unwrap();
    assert_eq!(pts.len(), 20);
}

#[test]
fn concurrent_tcp_producers_distinct_streams() {
    let engine = Deployment::build(&Spec::engine());
    let addr = engine.serve();

    let handles: Vec<_> = (0..4u128)
        .map(|i| {
            std::thread::spawn(move || {
                let mut conn = TcpClient::connect(addr).unwrap();
                produce(&mut conn, 100 + i, (i as u8, 50 + 2 * i as u64), 60, |_| {
                    i as i64
                })
            })
        })
        .collect();

    let mut rng = SecureRandom::from_seed_insecure(99);
    for h in handles {
        let (cfg, mut owner) = h.join().unwrap();
        let mut conn = TcpClient::connect(addr).unwrap();
        let mut c = Consumer::new("checker", &mut rng);
        owner
            .grant_access(&mut conn, "checker", c.public_key(), 0, 60_000)
            .unwrap();
        c.sync_grants(&mut conn, cfg.id).unwrap();
        let s = c.stat_query(&mut conn, cfg.id, 0, 60_000).unwrap();
        assert_eq!(s.count, Some(60));
    }
}

#[test]
fn persistence_across_server_restart() {
    let d = Deployment::build(&Spec::engine().on_disk());

    let mut rng = SecureRandom::from_seed_insecure(2);
    let mut c = Consumer::new("c", &mut rng);

    // First server lifetime: ingest + grant.
    let mut t = timecrypt::client::InProcess::new(d.engine());
    let (cfg, mut owner) = produce(&mut t, 7, (5, 3), 200, |s| s);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 200_000)
        .unwrap();

    // Second lifetime: everything recovers from the log.
    drop(t);
    d.restart(0);
    {
        let mut t = timecrypt::client::InProcess::new(d.engine());
        c.sync_grants(&mut t, cfg.id).unwrap();
        let s = c.stat_query(&mut t, cfg.id, 0, 200_000).unwrap();
        assert_eq!(s.count, Some(200));
        assert_eq!(s.sum, Some((0..200).sum::<i64>()));
        let pts = c.get_range(&mut t, cfg.id, 0, 10_000).unwrap();
        assert_eq!(pts.len(), 10);
    }
}

#[test]
fn malformed_frames_do_not_kill_the_server() {
    use std::io::Write;
    let engine = Deployment::build(&Spec::engine());
    let addr = engine.serve();

    // A hostile client sends a garbage body; the server answers an error
    // (or drops the connection) and keeps serving others.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let body = [0xffu8; 32];
        raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&body).unwrap();
    }
    let mut good = TcpClient::connect(addr).unwrap();
    assert_eq!(
        good.call(&timecrypt::wire::Request::Ping).unwrap(),
        timecrypt::wire::Response::Pong
    );
}

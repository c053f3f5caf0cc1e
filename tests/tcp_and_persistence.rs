//! Integration tests for the networked deployment and durable storage.

use common::{Deployment, Spec};
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, Producer};
use timecrypt::crypto::SecureRandom;
use timecrypt::wire::Client as TcpClient;

mod common;

#[test]
fn full_flow_over_tcp() {
    let engine = Deployment::build(&Spec::engine());
    let addr = engine.serve();

    let cfg = StreamConfig::new(5, "m", 0, 10_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        [9u8; 16],
        20,
        SecureRandom::from_seed_insecure(1),
    );
    let mut conn = TcpClient::connect(addr).unwrap();
    owner.create_stream(&mut conn).unwrap();

    let mut producer = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    for s in 0..120 {
        producer
            .push(&mut conn, DataPoint::new(s * 1000, s))
            .unwrap();
    }
    producer.flush(&mut conn).unwrap();

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
                let cfg = StreamConfig::new(100 + i, "m", 0, 10_000);
                let mut owner = DataOwner::with_height(
                    cfg.clone(),
                    [i as u8; 16],
                    20,
                    SecureRandom::from_seed_insecure(i as u64),
                );
                let mut conn = TcpClient::connect(addr).unwrap();
                owner.create_stream(&mut conn).unwrap();
                let mut p = Producer::new(
                    cfg.clone(),
                    owner.provision_producer(),
                    SecureRandom::from_seed_insecure(50 + i as u64),
                );
                for s in 0..60 {
                    p.push(&mut conn, DataPoint::new(s * 1000, i as i64))
                        .unwrap();
                }
                p.flush(&mut conn).unwrap();
                (cfg, owner)
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

    let cfg = StreamConfig::new(7, "m", 0, 10_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        [5u8; 16],
        20,
        SecureRandom::from_seed_insecure(1),
    );
    let mut rng = SecureRandom::from_seed_insecure(2);
    let mut c = Consumer::new("c", &mut rng);

    // First server lifetime: ingest + grant.
    {
        let mut t = timecrypt::client::InProcess::new(d.engine());
        owner.create_stream(&mut t).unwrap();
        let mut p = Producer::new(
            cfg.clone(),
            owner.provision_producer(),
            SecureRandom::from_seed_insecure(3),
        );
        for s in 0..200 {
            p.push(&mut t, DataPoint::new(s * 1000, s)).unwrap();
        }
        p.flush(&mut t).unwrap();
        owner
            .grant_access(&mut t, "c", c.public_key(), 0, 200_000)
            .unwrap();
    }

    // Second lifetime: everything recovers from the log.
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

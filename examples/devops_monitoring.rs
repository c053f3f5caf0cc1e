//! DevOps monitoring: the paper's §6.3 datacenter scenario.
//!
//! A fleet of hosts reports CPU utilization every 10 s into per-host
//! encrypted streams (Δ = 60 s, 6 records per chunk). A tenant is granted
//! access to *her* hosts for the duration of her job and asks the two
//! queries the paper highlights: average CPU utilization and the
//! percentage of readings above 50% — the latter answered from the
//! encrypted histogram digest, with no order-revealing encryption.
//!
//! ```sh
//! cargo run --example devops_monitoring
//! ```

use std::sync::Arc;
use timecrypt::chunk::{DataPoint, DigestOp, DigestSchema, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProc, Producer};
use timecrypt::crypto::SecureRandom;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::MemKv;

const HOSTS: u32 = 8;
const MINUTES: i64 = 30;

fn stream_cfg(host: u32) -> StreamConfig {
    let schema = DigestSchema::new(vec![
        DigestOp::Sum,
        DigestOp::Count,
        DigestOp::Histogram { bounds: vec![50] },
    ]);
    StreamConfig {
        schema,
        ..StreamConfig::new(0xD0 + host as u128, "cpu", 0, 60_000)
    }
}

fn main() {
    let server =
        Arc::new(TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap());
    let mut t = InProc::new(server.clone());
    let mut rng = SecureRandom::from_entropy();

    // The datacenter operator owns all host streams.
    let mut owners: Vec<DataOwner> = (0..HOSTS)
        .map(|h| {
            let mut o = DataOwner::with_height(
                stream_cfg(h),
                SecureRandom::from_entropy().seed128(),
                24,
                SecureRandom::from_entropy(),
            );
            o.create_stream(&mut t).unwrap();
            o
        })
        .collect();

    // Each host reports utilization every 10 s for 30 minutes. Even hosts
    // run hot, odd hosts idle.
    for (h, owner) in owners.iter().enumerate() {
        let cfg = stream_cfg(h as u32);
        let mut p = Producer::new(
            cfg,
            owner.provision_producer(),
            SecureRandom::from_entropy(),
        );
        for tick in 0..(MINUTES * 6) {
            let ts = tick * 10_000;
            let base = if h % 2 == 0 { 75 } else { 20 };
            let util = base + (tick % 11) - 5;
            p.push(&mut t, DataPoint::new(ts, util)).unwrap();
        }
        p.flush(&mut t).unwrap();
    }

    // The tenant gets access to hosts 0..4 for the job duration.
    let mut tenant = Consumer::new("tenant-42", &mut rng);
    let job_end = MINUTES * 60_000;
    for (h, owner) in owners.iter_mut().enumerate().take(4) {
        owner
            .grant_access(&mut t, "tenant-42", tenant.public_key(), 0, job_end)
            .unwrap();
        tenant.sync_grants(&mut t, stream_cfg(h as u32).id).unwrap();
    }

    // Per-host: average utilization + fraction of readings ≥ 50%.
    println!("host  mean-util  ≥50%");
    for h in 0..4u32 {
        let s = tenant
            .stat_query(&mut t, stream_cfg(h).id, 0, job_end)
            .unwrap();
        let hist = s.histogram.clone().unwrap();
        println!(
            "{h:>4}  {:>8.1}%  {:>5.1}%",
            s.mean().unwrap(),
            100.0 * hist.fraction_at_or_above(50).unwrap(),
        );
    }

    // Fleet-wide (inter-stream, §4.3): one query over all four granted
    // hosts; the server combines them homomorphically.
    let ids: Vec<u128> = (0..4u32).map(|h| stream_cfg(h).id).collect();
    let s = tenant.stat_query_multi(&mut t, &ids, 0, job_end).unwrap();
    println!(
        "fleet mean over {} readings: {:.1}%",
        s.count.unwrap(),
        s.mean().unwrap()
    );

    // Host 5 was never granted: the key simply doesn't exist client-side.
    let denied = tenant.stat_query(&mut t, stream_cfg(5).id, 0, job_end);
    println!("ungranted host 5: {}", denied.unwrap_err());
}

//! Lazy-open regression: opening an engine over a store with 10k streams
//! must cost one directory scan — not one tree open per stream — and the
//! store reads after open must scale with the streams *touched*, not the
//! streams stored.

use std::sync::Arc;
use timecrypt_server::{ServerConfig, TimeCryptServer};
use timecrypt_store::{KvStore, MemKv};

const STORED: u128 = 10_000;

#[test]
fn open_cost_scales_with_touched_streams_not_stored() {
    let base: Arc<dyn KvStore> = Arc::new(MemKv::new());
    {
        let seeder = TimeCryptServer::open(base.clone(), ServerConfig::default()).unwrap();
        for s in 1..=STORED {
            seeder.create_stream(s, 0, 10_000, 2).unwrap();
        }
    }
    let before = base.counters();
    let engine = TimeCryptServer::open(
        base.clone(),
        ServerConfig {
            max_resident_streams: Some(64),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let opened = base.counters();
    assert_eq!(
        opened.scans - before.scans,
        1,
        "open is one directory scan, not per-stream recovery"
    );
    assert_eq!(opened.gets - before.gets, 0, "open performs no point reads");
    assert_eq!(engine.stream_count() as u128, STORED);
    assert_eq!(engine.residency().resident, 0, "nothing hydrated yet");

    // Touch 3 of the 10k streams; reads must stay a small constant per
    // touched stream (the length probes of an empty stream), nowhere near the
    // stored stream count.
    for s in [17u128, 4_242, 9_999] {
        engine.stream_stat(s, 0, 100_000).unwrap();
    }
    let touched = base.counters();
    let reads = (touched.gets - opened.gets) + (touched.scans - opened.scans);
    assert!(
        reads <= 12,
        "touching 3 of {STORED} streams cost {reads} store reads"
    );
    let residency = engine.residency();
    assert_eq!(residency.resident, 3);
    assert_eq!(residency.hydrations, 3);
}

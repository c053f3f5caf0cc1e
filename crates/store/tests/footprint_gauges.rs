//! The `timecrypt_store_*` footprint gauges sum over the process's open
//! logs, and a dropped log withdraws its share. A binary of its own: no
//! other test's logs move the gauges under it.

use timecrypt_obs::counters;
use timecrypt_store::{KvStore, LogKv, LogStats, MemKv};

fn gauges() -> [u64; 4] {
    [
        counters::STORE_LOG_BYTES.get(),
        counters::STORE_LIVE_KEYS.get(),
        counters::STORE_INDEX_BYTES.get(),
        counters::STORE_DEAD_BYTES.get(),
    ]
}

fn sum(logs: &[LogStats]) -> [u64; 4] {
    let sum = |f: fn(&LogStats) -> u64| logs.iter().map(f).sum();
    [
        sum(|s| s.log_bytes),
        sum(|s| s.live_keys),
        sum(|s| s.index_bytes),
        sum(|s| s.dead_bytes),
    ]
}

#[test]
fn each_gauge_sums_over_the_open_logs_and_a_dropped_log_withdraws_its_share() {
    assert_eq!(gauges(), [0; 4]);
    let path = std::env::temp_dir().join(format!("tc-gauges-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let on_disk = LogKv::open(&path).unwrap();
    let in_memory = MemKv::new();
    for n in 0..10u64 {
        on_disk
            .put(&[b"d/", &n.to_be_bytes()[..]].concat(), b"value")
            .unwrap();
    }
    on_disk.delete(b"d/\0\0\0\0\0\0\0\x03").unwrap();
    in_memory.put(b"key", b"value").unwrap();
    in_memory.put(b"key", b"overwritten").unwrap();
    assert_eq!(gauges(), sum(&[on_disk.stats(), in_memory.stats()]));

    // A third log opened empty adds its magic, not a reset to it.
    let empty = MemKv::new();
    assert_eq!(
        gauges(),
        sum(&[on_disk.stats(), in_memory.stats(), empty.stats()])
    );
    drop(empty);
    drop(in_memory);
    assert_eq!(gauges(), sum(&[on_disk.stats()]));
    drop(on_disk);
    assert_eq!(gauges(), [0; 4]);
    std::fs::remove_file(path).unwrap();
}

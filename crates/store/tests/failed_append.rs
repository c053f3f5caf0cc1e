//! A failed append leaves the log readable and its file recoverable. The
//! append fails for real: a child process writes under a file-size limit
//! (`ulimit -f`, with `SIGXFSZ` ignored so that `write(2)` answers `EFBIG`
//! instead of killing it) — the pattern of `tests/chaos.rs`' kill -9 child.
//!
//! Whatever a batch was answered, it must read back that way: an acked
//! batch as written, a refused one not at all — neither in the process
//! whose append failed nor after the file is opened again.

use std::process::Command;
use timecrypt_store::{KvStore, LogKv, WriteOp};

/// Three batches of `(key, value)`: before the limit, past it (five 4 KiB
/// records), after it.
fn batches() -> [Vec<([u8; 2], Vec<u8>)>; 3] {
    let batch = |tag: u8, n: u8, len| (0..n).map(|i| ([tag, i], vec![tag ^ i; len])).collect();
    [batch(0, 3, 40), batch(1, 5, 4096), batch(2, 2, 40)]
}

/// Each batch reads back as it was answered: acked, as written; refused,
/// absent or an error — never other bytes.
fn check(kv: &LogKv, acked: [bool; 3]) {
    for (records, acked) in batches().iter().zip(acked) {
        for (key, value) in records {
            match kv.get(key) {
                Ok(Some(got)) => assert!(acked && got == *value, "{key:?} misread"),
                Ok(None) | Err(_) => assert!(!acked, "acked {key:?} does not read back"),
            }
        }
    }
}

/// Child mode: writes the three batches under the limit, checks what it
/// can read and prints what was acked. No-ops when run as a normal test.
#[test]
fn failed_append_child() {
    let Ok(path) = std::env::var("TC_FAILED_APPEND_LOG") else {
        return;
    };
    let kv = LogKv::open(&path).unwrap();
    let acked = batches().map(|batch| {
        let ops: Vec<_> = batch
            .iter()
            .map(|(key, value)| WriteOp::Put { key, value })
            .collect();
        kv.write_batch(&ops).is_ok()
    });
    assert_eq!(acked[..2], [true, false], "the second batch crosses 4 KiB");
    check(&kv, acked);
    println!("acked: {acked:?}");
}

#[test]
fn a_failed_append_leaves_the_log_readable_and_recoverable() {
    let path = std::env::temp_dir().join(format!("tc-failed-append-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // `ulimit -f` counts the shell's 512-byte blocks: 4 KiB.
    let child = Command::new("sh")
        .args(["-c", "trap '' XFSZ; ulimit -f 8; exec \"$0\" \"$@\""])
        .arg(std::env::current_exe().unwrap())
        .args(["failed_append_child", "--exact", "--nocapture"])
        .env("TC_FAILED_APPEND_LOG", &path)
        .stderr(std::process::Stdio::inherit())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(child.status.success(), "child failed:\n{stdout}");
    // The torn bytes of the failed append are a tail replay truncates.
    let later = stdout.contains("acked: [true, false, true]");
    check(&LogKv::open(&path).unwrap(), [true, false, later]);
    std::fs::remove_file(&path).unwrap();
}

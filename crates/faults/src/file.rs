//! [`FaultyFile`]: the file under a log, failing or stalling the calls its
//! plan names.
//!
//! A `LogKv` over it meets these faults where it would meet a disk's: a
//! failed read is that read's error; a failed or short append, or a failed
//! sync, turns the log read-only until it is reopened over the file; and
//! what a short append left is a torn tail the reopened log cuts. Its
//! counters are per kind of call, so a plan's `Nth`/`EveryNth`/`PerMillion`
//! triggers replay exactly under single-threaded drivers. A plan whose only
//! rules always fire a [`FileFault::Delay`] makes it a slow disk (a remote
//! storage tier): one delay per call, a batch being one append.

use crate::plan::{FaultPlan, FileCall, FileFault, PlanSlot};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use timecrypt_obs::mix64;
use timecrypt_store::LogFile;

const EIO: i32 = 5;
const ENOSPC: i32 = 28;

/// A [`LogFile`] injecting its plan's faults in front of `F`. A clone is the
/// same file with the same plan and counters, as a `MemFile`'s clone is the
/// same file: a log reopened over it meets the same schedule.
#[derive(Clone)]
pub struct FaultyFile<F> {
    inner: F,
    state: Arc<State>,
}

struct State {
    plan: PlanSlot,
    /// Calls seen, by [`FileCall`] (the indexes triggers match).
    calls: [AtomicU64; 3],
    injected: AtomicU64,
}

impl<F> FaultyFile<F> {
    /// `inner` under `plan`.
    pub fn new(inner: F, plan: FaultPlan) -> Self {
        let state = State {
            plan: PlanSlot::new(plan),
            calls: Default::default(),
            injected: AtomicU64::new(0),
        };
        FaultyFile {
            inner,
            state: Arc::new(state),
        }
    }

    /// Replaces the schedule; a call in flight keeps the plan it read.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state.plan.set(plan);
    }

    /// The `call`s made so far: a rule `Nth(calls + k)` set now fires on
    /// the k-th one from here (0-based).
    pub fn calls(&self, call: FileCall) -> u64 {
        self.state.calls[call as usize].load(Ordering::Relaxed)
    }

    /// Faults injected so far (errors, short appends and delays).
    pub fn injected_total(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }

    /// Counts the call and resolves its fault; a delay is served here, so
    /// what comes back fails the call, with a seeded hash of the call for a
    /// short append's cut.
    fn decide(&self, call: FileCall) -> Option<(FileFault, u64)> {
        let index = self.state.calls[call as usize].fetch_add(1, Ordering::Relaxed);
        let plan = self.state.plan.get();
        let fault = *plan.file_fault(call, index)?;
        self.state.injected.fetch_add(1, Ordering::Relaxed);
        if let FileFault::Delay(d) = fault {
            std::thread::sleep(d);
            return None;
        }
        Some((fault, mix64(plan.seed ^ index)))
    }
}

impl<F: LogFile> LogFile for FaultyFile<F> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        match self.decide(FileCall::ReadAt) {
            None => self.inner.read_at(buf, offset),
            Some(_) => Err(io::Error::from_raw_os_error(EIO)),
        }
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        match self.decide(FileCall::Append) {
            None => self.inner.append(bytes),
            Some((FileFault::ShortAppend, hash)) => {
                let keep = hash % (bytes.len() as u64).max(1);
                self.inner.append(&bytes[..keep as usize])?;
                Err(io::Error::from_raw_os_error(ENOSPC))
            }
            Some(_) => Err(io::Error::from_raw_os_error(EIO)),
        }
    }

    fn sync(&self) -> io::Result<()> {
        match self.decide(FileCall::Sync) {
            None => self.inner.sync(),
            Some(_) => Err(io::Error::from_raw_os_error(EIO)),
        }
    }

    /// Never faulted: a log truncates only while it opens.
    fn truncate(&self, len: u64) -> io::Result<u64> {
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FileRule, Trigger};
    use std::time::{Duration, Instant};
    use timecrypt_store::{Durability, KvStore, LogKv, MemFile, MemKv, StoreError, WriteOp};

    fn plan(call: FileCall, when: Trigger, fault: FileFault) -> FaultPlan {
        FaultPlan::quiet().with_file_rule(FileRule { call, when, fault })
    }

    fn bytes(file: &MemFile) -> Vec<u8> {
        let mut all = vec![0; file.truncate(u64::MAX).unwrap() as usize];
        file.read_at(&mut all, 0).unwrap();
        all
    }

    #[test]
    fn an_error_fails_the_call_with_eio_and_leaves_the_file_untouched() {
        for call in [FileCall::ReadAt, FileCall::Append, FileCall::Sync] {
            let mem = MemFile::default();
            mem.append(b"abc").unwrap();
            let file = FaultyFile::new(
                mem.clone(),
                plan(call, Trigger::EveryNth(1), FileFault::Error),
            );
            let failed = match call {
                FileCall::ReadAt => file.read_at(&mut [0; 3], 0),
                FileCall::Append => file.append(b"def"),
                FileCall::Sync => file.sync(),
            };
            assert_eq!(failed.unwrap_err().raw_os_error(), Some(EIO), "{call:?}");
            assert_eq!(bytes(&mem), b"abc");
            assert_eq!((file.calls(call), file.injected_total()), (1, 1));
            // The plan swaps at runtime.
            file.set_plan(FaultPlan::quiet());
            file.append(b"d").unwrap();
            file.sync().unwrap();
            assert_eq!(bytes(&mem), b"abcd");
        }
    }

    /// Every `KvStore` method once (single ops, binary and empty values,
    /// idempotent delete, empty and mixed batches), then everything the
    /// store can be asked about the result (rendered, for comparison).
    fn drive(kv: &dyn KvStore) -> String {
        let put = |key, value| WriteOp::Put { key, value };
        kv.put(b"s/a", b"1").unwrap();
        kv.put(b"s/b", b"").unwrap();
        kv.put(b"t/c", &[0, 255, 10, 13, 0]).unwrap();
        kv.put(b"s/a", b"1b").unwrap();
        kv.delete(b"s/b").unwrap();
        kv.delete(b"s/b").unwrap();
        kv.write_batch(&[]).unwrap();
        let batch = [
            put(b"s/d", b"4"),
            WriteOp::Delete { key: b"s/a" },
            put(b"s/d", b"5"),
            put(b"s/e", b""),
        ];
        kv.write_batch(&batch).unwrap();
        let gets = [&b"s/a"[..], b"s/b", b"t/c", b"s/d", b"s/e", b"missing"];
        let mut pairs = kv.scan_prefix(b"s/").unwrap();
        let mut keys = kv.scan_keys(b"").unwrap();
        pairs.sort();
        keys.sort();
        format!("{:?}", (gets.map(|k| kv.get(k).unwrap()), pairs, keys))
    }

    const CALLS: [FileCall; 3] = [FileCall::ReadAt, FileCall::Append, FileCall::Sync];

    /// Under a plan that injects nothing, or only delays, a log over the
    /// file answers as a bare `MemKv` does, and every call is delayed once.
    #[test]
    fn quiet_and_delay_only_plans_pass_through() {
        let over = |plan| {
            let file = FaultyFile::new(MemFile::default(), plan);
            (LogKv::over(file.clone(), Durability::Fsync).unwrap(), file)
        };
        let (kv, quiet) = over(FaultPlan::quiet());
        assert_eq!(drive(&kv), drive(&MemKv::new()));
        assert_eq!(quiet.injected_total(), 0);
        let delay = |call| FileRule {
            call,
            when: Trigger::EveryNth(1),
            fault: FileFault::Delay(Duration::ZERO),
        };
        let (kv, delayed) = over(FaultPlan {
            file_rules: CALLS.map(delay).into(),
            ..FaultPlan::quiet()
        });
        assert_eq!(drive(&kv), drive(&MemKv::new()));
        let calls = CALLS.map(|call| delayed.calls(call));
        assert!(calls.iter().all(|&n| n > 0), "{calls:?}");
        assert_eq!(delayed.injected_total(), calls.iter().sum::<u64>());
    }

    #[test]
    fn a_delay_is_served_once_per_call_and_a_batch_is_one_append() {
        let d = Duration::from_millis(5);
        let file = FaultyFile::new(MemFile::default(), FaultPlan::quiet());
        let kv = LogKv::over(file.clone(), Durability::Flush).unwrap();
        file.set_plan(plan(
            FileCall::Append,
            Trigger::EveryNth(1),
            FileFault::Delay(d),
        ));
        let appends = file.calls(FileCall::Append);
        let put = |key, value| WriteOp::Put { key, value };
        let t = Instant::now();
        kv.write_batch(&[put(b"a", b"1"), put(b"b", b"2"), put(b"c", b"3")])
            .unwrap();
        assert!(t.elapsed() >= d, "the delay must be observable");
        assert_eq!(file.calls(FileCall::Append) - appends, 1, "one append");
        assert_eq!(file.injected_total(), 1, "one delay");
        assert_eq!(kv.scan_keys(b"").unwrap().len(), 3);
    }

    /// A closed log whose buffer is empty appends nothing, so a plan cannot
    /// fault a close that has no records to lose.
    #[test]
    fn a_closed_log_with_an_empty_buffer_appends_nothing() {
        let file = FaultyFile::new(MemFile::default(), FaultPlan::quiet());
        let kv = LogKv::over(file.clone(), Durability::Flush).unwrap();
        kv.put(b"a", b"1").unwrap();
        let appends = file.calls(FileCall::Append);
        drop(kv);
        assert_eq!(file.calls(FileCall::Append) - appends, 0);
    }

    /// `Nth` fires once; a clone counts and injects with its original.
    #[test]
    fn nth_fires_once_and_a_clone_is_the_same_file_under_the_same_plan() {
        let mem = MemFile::default();
        let file = FaultyFile::new(
            mem.clone(),
            plan(FileCall::Append, Trigger::Nth(1), FileFault::Error),
        );
        let twin = file.clone();
        file.append(b"a").unwrap();
        twin.append(b"b").unwrap_err();
        file.append(b"c").unwrap();
        assert_eq!(bytes(&mem), b"ac");
        assert_eq!(
            (twin.calls(FileCall::Append), twin.injected_total()),
            (3, 1)
        );
        twin.set_plan(plan(
            FileCall::Append,
            Trigger::EveryNth(1),
            FileFault::Error,
        ));
        file.append(b"d").unwrap_err();
    }

    /// A short append leaves a strict prefix in the file and fails with
    /// `ENOSPC`; the log turns read-only, and reopened over the file it
    /// cuts the torn tail and writes again.
    #[test]
    fn a_short_append_is_a_torn_tail_the_reopened_log_cuts() {
        let mem = MemFile::default();
        let file = FaultyFile::new(mem.clone(), FaultPlan::quiet());
        let short = plan(
            FileCall::Append,
            Trigger::EveryNth(1),
            FileFault::ShortAppend,
        );
        file.set_plan(short.clone());
        let value = [7u8; 64];
        let err = file.append(&value).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        let torn = bytes(&mem);
        assert!(torn.len() < value.len() && value.starts_with(&torn));
        mem.truncate(0).unwrap();

        file.set_plan(FaultPlan::quiet());
        let kv = LogKv::over(file.clone(), Durability::Flush).unwrap();
        kv.put(b"a", b"1").unwrap();
        let acked = bytes(&mem);
        file.set_plan(short);
        match kv.put(b"b", &value) {
            Err(StoreError::Io(e)) => assert_eq!(e.raw_os_error(), Some(ENOSPC)),
            other => panic!("{other:?}"),
        }
        assert!(
            bytes(&mem).len() > acked.len(),
            "some of the batch reached the file"
        );
        file.set_plan(FaultPlan::quiet());
        kv.put(b"c", b"3").unwrap_err();
        assert_eq!(kv.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        drop(kv);
        let kv = LogKv::over(file.clone(), Durability::Flush).unwrap();
        assert_eq!(bytes(&mem), acked, "the torn tail is cut");
        assert_eq!(kv.get(b"b").unwrap(), None);
        kv.put(b"b", &value).unwrap();
        assert_eq!(kv.get(b"b").unwrap().as_deref(), Some(&value[..]));
    }
}

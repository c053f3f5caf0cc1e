//! [`FaultyKv`]: a `KvStore` decorator that injects scheduled faults.
//!
//! Follows the decorator idiom of `MeteredKv`: wraps any inner store,
//! consults the shared [`FaultPlan`] on every op, and keeps a
//! per-decorator op counter so a plan's `Nth`/`EveryNth`/`PerMillion`
//! triggers replay exactly under single-threaded drivers. A plan whose
//! only rule always fires a [`StoreFault::Delay`] makes it a
//! latency-modelled store (a remote storage tier): one delay per op, one
//! per batch.

use crate::plan::{FaultPlan, OpKind, StoreFault};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use timecrypt_store::{KvPairs, KvStore, StoreError, WriteOp};

/// Fault-injecting store decorator. See the crate docs for the plan
/// model; `set_plan` swaps the schedule at runtime (e.g. to go quiet
/// before a verification phase).
pub struct FaultyKv<S> {
    inner: S,
    plan: Mutex<Arc<FaultPlan>>,
    ops: AtomicU64,
    injected: AtomicU64,
}

impl<S> FaultyKv<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyKv {
            inner,
            plan: Mutex::new(Arc::new(plan)),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Replaces the schedule; in-flight ops keep the plan they resolved.
    pub fn set_plan(&self, plan: FaultPlan) {
        let shared = Arc::new(plan);
        match self.plan.lock() {
            Ok(mut p) => *p = shared,
            Err(poisoned) => *poisoned.into_inner() = shared,
        }
    }

    /// Faults injected so far (errors + torn writes + delays).
    pub fn injected_total(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Ops observed so far (the counter triggers are matched against).
    pub fn ops_total(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Resolves the fault (if any) for the op about to run. Delays are
    /// served here so the caller's match only sees `Error`/`TornWrite`.
    fn decide(&self, op: OpKind, key: &[u8]) -> Option<StoreFault> {
        let index = self.ops.fetch_add(1, Ordering::Relaxed);
        let plan = match self.plan.lock() {
            Ok(p) => Arc::clone(&p),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        };
        let fault = plan.store_fault(op, key, index)?.clone();
        self.injected.fetch_add(1, Ordering::Relaxed);
        if let StoreFault::Delay(d) = fault {
            std::thread::sleep(d);
            return None; // delay already served; run the op normally
        }
        Some(fault)
    }
}

fn injected_err() -> StoreError {
    StoreError::Io(io::Error::other("injected store fault"))
}

impl<S: KvStore> KvStore for FaultyKv<S> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        match self.decide(OpKind::Get, key) {
            None => self.inner.get(key),
            Some(_) => Err(injected_err()),
        }
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        match self.decide(OpKind::Put, key) {
            None => self.inner.put(key, value),
            Some(StoreFault::TornWrite) => {
                // Persist a deterministic strict prefix of the value, then
                // fail: the caller never acks, the store holds torn bytes —
                // the state a mid-write crash leaves behind.
                if !value.is_empty() {
                    let keep =
                        (crate::plan::mix64(self.ops.load(Ordering::Relaxed) ^ key.len() as u64)
                            % value.len() as u64) as usize;
                    self.inner.put(key, &value[..keep])?;
                }
                Err(injected_err())
            }
            Some(_) => Err(injected_err()),
        }
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        match self.decide(OpKind::Delete, key) {
            None => self.inner.delete(key),
            Some(_) => Err(injected_err()),
        }
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
        match self.decide(OpKind::Scan, prefix) {
            None => self.inner.scan_prefix(prefix),
            Some(_) => Err(injected_err()),
        }
    }

    fn scan_keys(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        match self.decide(OpKind::Scan, prefix) {
            None => self.inner.scan_keys(prefix),
            Some(_) => Err(injected_err()),
        }
    }

    fn scan_keys_after(
        &self,
        prefix: &[u8],
        after: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        match self.decide(OpKind::Scan, prefix) {
            None => self.inner.scan_keys_after(prefix, after, limit),
            Some(_) => Err(injected_err()),
        }
    }

    /// One plan decision per batch, asked as the batch's first op (its kind
    /// and key) — a batch is one op to the counter triggers too. Any fault
    /// but a delay fails the batch with nothing applied, `TornWrite`
    /// included: all or nothing is what a real engine keeps, so a torn
    /// batch is an absent batch.
    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        let fault = match ops.first() {
            None => None,
            Some(WriteOp::Put { key, .. }) => self.decide(OpKind::Put, key),
            Some(WriteOp::Delete { key }) => self.decide(OpKind::Delete, key),
        };
        match fault {
            None => self.inner.write_batch(ops),
            Some(_) => Err(injected_err()),
        }
    }
}

/// Convenience constructor used by tests: a shared faulty wrapper over
/// an arbitrary shared store.
pub fn faulty(inner: Arc<dyn KvStore>, plan: FaultPlan) -> Arc<FaultyKv<Arc<dyn KvStore>>> {
    Arc::new(FaultyKv::new(inner, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{StoreRule, Trigger};
    use std::time::{Duration, Instant};
    use timecrypt_store::MemKv;

    fn plan_every_put_errors() -> FaultPlan {
        FaultPlan::quiet().with_store_rule(StoreRule {
            op: Some(OpKind::Put),
            key_prefix: Vec::new(),
            when: Trigger::EveryNth(1),
            fault: StoreFault::Error,
        })
    }

    /// The latency-modelled store: every op is delayed by `d`, none fails.
    fn plan_every_op_delayed(d: Duration) -> FaultPlan {
        FaultPlan::quiet().with_store_rule(StoreRule {
            op: None,
            key_prefix: Vec::new(),
            when: Trigger::EveryNth(1),
            fault: StoreFault::Delay(d),
        })
    }

    #[test]
    fn injected_error_leaves_inner_untouched() {
        let kv = FaultyKv::new(MemKv::new(), plan_every_put_errors());
        assert!(kv.put(b"k", b"v").is_err());
        assert_eq!(kv.inner().get(b"k").unwrap(), None);
        assert_eq!(kv.injected_total(), 1);
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

    /// The store crate's conformance suite is private to its own tests, so
    /// transparency is checked differentially: under a plan that injects
    /// nothing, or only delays, every answer equals a bare `MemKv`'s (which
    /// passes that suite).
    #[test]
    fn quiet_and_delay_only_plans_pass_through() {
        let quiet = FaultyKv::new(MemKv::new(), FaultPlan::quiet());
        assert_eq!(drive(&quiet), drive(&MemKv::new()));
        assert_eq!(quiet.injected_total(), 0);
        let delayed = FaultyKv::new(MemKv::new(), plan_every_op_delayed(Duration::ZERO));
        assert_eq!(drive(&delayed), drive(&MemKv::new()));
        assert_eq!(delayed.injected_total(), delayed.ops_total());
    }

    #[test]
    fn a_delay_is_served_once_per_op_and_once_per_batch() {
        let d = Duration::from_millis(5);
        let kv = FaultyKv::new(MemKv::new(), plan_every_op_delayed(d));
        let t = Instant::now();
        assert_eq!(kv.get(b"x").unwrap(), None);
        assert!(t.elapsed() >= d, "the delay must be observable");
        let put = |key, value| WriteOp::Put { key, value };
        kv.write_batch(&[put(b"a", b"1"), put(b"b", b"2"), put(b"c", b"3")])
            .unwrap();
        assert_eq!(
            (kv.ops_total(), kv.injected_total()),
            (2, 2),
            "a batch is one round trip: one op, one delay"
        );
        assert_eq!(kv.inner().scan_keys(b"").unwrap().len(), 3);
    }

    #[test]
    fn nth_trigger_fires_once_then_recovers() {
        let plan = FaultPlan::quiet().with_store_rule(StoreRule {
            op: None,
            key_prefix: Vec::new(),
            when: Trigger::Nth(1),
            fault: StoreFault::Error,
        });
        let kv = FaultyKv::new(MemKv::new(), plan);
        kv.put(b"a", b"1").unwrap(); // op 0
        assert!(kv.put(b"b", b"2").is_err()); // op 1: injected
        kv.put(b"b", b"2").unwrap(); // op 2: fine again
        assert_eq!(kv.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
    }

    #[test]
    fn torn_write_leaves_strict_prefix_and_no_ack() {
        let plan = FaultPlan::quiet().with_store_rule(StoreRule {
            op: Some(OpKind::Put),
            key_prefix: b"t/".to_vec(),
            when: Trigger::Nth(0),
            fault: StoreFault::TornWrite,
        });
        let kv = FaultyKv::new(MemKv::new(), plan);
        let value = vec![7u8; 64];
        assert!(kv.put(b"t/x", &value).is_err());
        let torn = kv.inner().get(b"t/x").unwrap().unwrap_or_default();
        assert!(torn.len() < value.len(), "torn write kept the full value");
        assert!(value.starts_with(&torn));
    }

    #[test]
    fn a_faulted_batch_applies_nothing_and_counts_as_one_op() {
        let put = |key, value| WriteOp::Put { key, value };
        let batch = [put(b"c/1", b"payload"), put(b"il/1", b"leaf")];
        for fault in [StoreFault::Error, StoreFault::TornWrite] {
            let plan = FaultPlan::quiet().with_store_rule(StoreRule {
                op: Some(OpKind::Put),
                key_prefix: b"c/".to_vec(),
                when: Trigger::Nth(1),
                fault,
            });
            let kv = FaultyKv::new(MemKv::new(), plan);
            // Op 0 is asked as a delete of `c/0`, op 1 as a put of `c/1`.
            kv.write_batch(&[WriteOp::Delete { key: b"c/0" }]).unwrap();
            assert!(kv.write_batch(&batch).is_err());
            assert!(kv.inner().scan_keys(b"").unwrap().is_empty());
            assert_eq!((kv.ops_total(), kv.injected_total()), (2, 1));
            kv.write_batch(&batch).unwrap();
            assert_eq!(kv.inner().scan_keys(b"").unwrap().len(), 2);
        }
    }

    #[test]
    fn set_plan_swaps_at_runtime() {
        let kv = FaultyKv::new(MemKv::new(), plan_every_put_errors());
        assert!(kv.put(b"k", b"v").is_err());
        kv.set_plan(FaultPlan::quiet());
        kv.put(b"k", b"v").unwrap();
    }
}

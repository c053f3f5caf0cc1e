//! Seeded fault schedules shared by the file injector, the transport
//! proxy and the tests that drive them.
//!
//! A [`FaultPlan`] is pure data: a seed plus a list of rules, file-side
//! ([`FileRule`], keyed by the call of a log's file) and transport-side
//! ([`NetRule`], keyed by frame direction). Every injection decision is a
//! deterministic function of `(seed, rule index, call or frame index)`,
//! so a chaos run is replayed by reusing its printed seed — no RNG state
//! is shared between injectors, and two built from the same plan make
//! independent but reproducible decisions.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use timecrypt_obs::mix64;

/// Which call of a log's file a [`FileRule`] applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileCall {
    /// `LogFile::read_at`: a record read, or replay at open.
    ReadAt,
    /// `LogFile::append`: one batch, or a buffer of them.
    Append,
    /// `LogFile::sync`: a group commit's fsync.
    Sync,
}

/// What a matching file rule injects.
#[derive(Clone, Copy, Debug)]
pub enum FileFault {
    /// Fail the call with `EIO`, the file untouched.
    Error,
    /// Sleep before the call (a slow disk, a remote storage tier).
    Delay(Duration),
    /// On an append: a seeded strict prefix of the bytes reaches the file,
    /// then the call fails with `ENOSPC` (a full disk). Any other call
    /// fails as [`FileFault::Error`] does.
    ShortAppend,
}

/// When a rule fires, in terms of the injector's call or frame counter.
#[derive(Clone, Copy, Debug)]
pub enum Trigger {
    /// Exactly the n-th matching op (0-based), once.
    Nth(u64),
    /// Every n-th op (`n >= 1`; `op_index % n == 0`).
    EveryNth(u64),
    /// Each op independently with probability `p` per million, decided by
    /// `mix64(seed, rule, op_index)` — deterministic, not sampled.
    PerMillion(u32),
}

impl Trigger {
    /// Whether this trigger fires for op `index` under `seed`/`rule_idx`.
    pub fn fires(&self, seed: u64, rule_idx: usize, index: u64) -> bool {
        match *self {
            Trigger::Nth(n) => index == n,
            Trigger::EveryNth(n) => n > 0 && index.is_multiple_of(n),
            Trigger::PerMillion(p) => {
                let h = mix64(seed ^ mix64(rule_idx as u64) ^ index);
                (h % 1_000_000) < u64::from(p)
            }
        }
    }
}

/// One file-side injection rule, matched against the count of its kind
/// of call.
#[derive(Clone, Debug)]
pub struct FileRule {
    /// The call it applies to.
    pub call: FileCall,
    /// When the rule fires.
    pub when: Trigger,
    /// What it injects.
    pub fault: FileFault,
}

/// Traffic direction through the [`FaultyTransport`](crate::FaultyTransport)
/// proxy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetDirection {
    /// Client → server frames (requests).
    ToServer,
    /// Server → client frames (responses).
    ToClient,
}

/// What a matching net rule injects, per frame.
#[derive(Clone, Debug)]
pub enum NetFault {
    /// Swallow this one frame (the peer waits for a reply that never
    /// comes — a lost packet past TCP, i.e. a proxy/middlebox drop).
    Drop,
    /// Hold the frame before forwarding (congestion, GC pause).
    Delay(Duration),
    /// From this frame on, swallow everything in this direction while
    /// keeping the connection open: the hung-but-alive peer. Only
    /// deadlines get a client out of this.
    BlackHole,
    /// Close both directions of the connection immediately (RST-style
    /// partition; the classic "dead peer" failure).
    Sever,
}

/// One transport-side injection rule, matched against per-connection,
/// per-direction frame counters.
#[derive(Clone, Debug)]
pub struct NetRule {
    /// Restrict to one direction; `None` matches both.
    pub direction: Option<NetDirection>,
    /// When the rule fires.
    pub when: Trigger,
    /// What it injects.
    pub fault: NetFault,
}

/// A complete, seeded fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed all probabilistic triggers derive from; printing it is enough
    /// to replay the run.
    pub seed: u64,
    /// File-side rules, evaluated in order; first match wins.
    pub file_rules: Vec<FileRule>,
    /// Transport-side rules, evaluated in order; first match wins.
    pub net_rules: Vec<NetRule>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful to disable faults at runtime).
    pub fn quiet() -> Self {
        FaultPlan::default()
    }

    /// Builder: appends a file rule.
    pub fn with_file_rule(mut self, rule: FileRule) -> Self {
        self.file_rules.push(rule);
        self
    }

    /// Builder: appends a net rule.
    pub fn with_net_rule(mut self, rule: NetRule) -> Self {
        self.net_rules.push(rule);
        self
    }

    /// The randomized chaos schedule: moderate rates of read errors and
    /// append and sync delays at the file, plus per-frame transport
    /// drops/delays, all derived from `seed`. Severity is tuned so a
    /// retrying client makes progress: no append or sync error (either
    /// turns a log read-only until its node restarts) and no unconditional
    /// black-hole/sever (the chaos test adds those explicitly when it
    /// wants them).
    pub fn randomized(seed: u64) -> Self {
        // Domain separation: plan construction must not reuse the raw seed
        // stream that per-op triggers draw from.
        let draw = |i, bound| mix64(mix64(seed ^ 0x5eed_91a7_0fa1_7c0d) ^ i) % bound;
        let read_err = 5_000 + draw(0, 20_000) as u32; // 0.5%–2.5%
        let file_delay = 50_000 + draw(1, 100_000) as u32; // 5%–15%
        let delay = Duration::from_millis(1 + draw(2, 10)); // 1–10 ms stalls
        let net_drop = 2_000 + draw(3, 8_000) as u32; // 0.2%–1%
        let net_delay = 5_000 + draw(4, 10_000) as u32;
        let file_rule = |call, p, fault| FileRule {
            call,
            when: Trigger::PerMillion(p),
            fault,
        };
        FaultPlan {
            seed,
            file_rules: vec![
                file_rule(FileCall::ReadAt, read_err, FileFault::Error),
                file_rule(FileCall::Append, file_delay, FileFault::Delay(delay)),
                file_rule(FileCall::Sync, file_delay, FileFault::Delay(delay)),
            ],
            net_rules: vec![
                NetRule {
                    direction: None,
                    when: Trigger::PerMillion(net_drop),
                    fault: NetFault::Drop,
                },
                NetRule {
                    direction: Some(NetDirection::ToClient),
                    when: Trigger::PerMillion(net_delay),
                    fault: NetFault::Delay(delay),
                },
            ],
        }
    }

    /// First file rule for `call` that fires at its `index`-th call.
    pub fn file_fault(&self, call: FileCall, index: u64) -> Option<&FileFault> {
        self.file_rules.iter().enumerate().find_map(|(i, r)| {
            (r.call == call && r.when.fires(self.seed, i, index)).then_some(&r.fault)
        })
    }

    /// First net rule matching `direction` that fires for frame `index`.
    pub fn net_fault(&self, direction: NetDirection, index: u64) -> Option<&NetFault> {
        self.net_rules.iter().enumerate().find_map(|(i, r)| {
            let dir_ok = r.direction.is_none() || r.direction == Some(direction);
            (dir_ok && r.when.fires(self.seed, i, index)).then_some(&r.fault)
        })
    }
}

/// The plan an injector holds, swapped while it runs: each decision reads
/// the plan in place at that moment, and one in flight keeps the plan it
/// read.
pub(crate) struct PlanSlot(Mutex<Arc<FaultPlan>>);

impl PlanSlot {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        PlanSlot(Mutex::new(Arc::new(plan)))
    }

    pub(crate) fn set(&self, plan: FaultPlan) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(plan);
    }

    pub(crate) fn get(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_deterministically() {
        let t = Trigger::PerMillion(500_000);
        let a: Vec<bool> = (0..64).map(|i| t.fires(7, 0, i)).collect();
        let b: Vec<bool> = (0..64).map(|i| t.fires(7, 0, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "50% trigger never fired in 64 ops");
        assert!(a.iter().any(|&x| !x), "50% trigger always fired");
        // Different seed => different schedule (overwhelmingly likely).
        let c: Vec<bool> = (0..64).map(|i| t.fires(8, 0, i)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn nth_and_every_nth() {
        assert!(Trigger::Nth(3).fires(0, 0, 3));
        assert!(!Trigger::Nth(3).fires(0, 0, 4));
        assert!(Trigger::EveryNth(4).fires(0, 0, 8));
        assert!(!Trigger::EveryNth(4).fires(0, 0, 9));
        assert!(!Trigger::EveryNth(0).fires(0, 0, 0), "n=0 must never fire");
    }

    #[test]
    fn file_rule_matching_respects_the_call() {
        let plan = FaultPlan::quiet().with_file_rule(FileRule {
            call: FileCall::Append,
            when: Trigger::EveryNth(1),
            fault: FileFault::Error,
        });
        assert!(plan.file_fault(FileCall::Append, 0).is_some());
        assert!(plan.file_fault(FileCall::ReadAt, 0).is_none());
        assert!(plan.file_fault(FileCall::Sync, 0).is_none());
    }

    #[test]
    fn randomized_plans_replay_from_seed() {
        let a = FaultPlan::randomized(42);
        let b = FaultPlan::randomized(42);
        let decisions = |p: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|i| p.file_fault(FileCall::ReadAt, i).is_some())
                .collect()
        };
        assert_eq!(decisions(&a), decisions(&b));
    }
}

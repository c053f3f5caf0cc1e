//! Seeded fault schedules shared by the store decorator, the transport
//! proxy, the chaos test, and the `faults` bench phase.
//!
//! A [`FaultPlan`] is pure data: a seed plus a list of rules. Every
//! injection decision is a deterministic function of `(seed, rule index,
//! op index)`, so a chaos run is replayed by reusing its printed seed —
//! no RNG state is shared between decorated components, and two
//! decorators built from the same plan make independent but reproducible
//! decisions.

use std::time::Duration;

/// SplitMix64 finalizer: a well-mixed 64-bit hash used for per-op fault
/// decisions. Pure function of its input, so decisions replay exactly.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tiny deterministic generator (SplitMix64 stream) for building
/// randomized plans and picking chaos workloads. Not cryptographic.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform value in `[0, bound)`; returns 0 for `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Which store operation a [`StoreRule`] applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `KvStore::get`.
    Get,
    /// `KvStore::put`, and a `KvStore::write_batch` whose first op is a put.
    Put,
    /// `KvStore::delete`, and a `write_batch` whose first op is a delete.
    Delete,
    /// `KvStore::scan_prefix`.
    Scan,
}

/// What a matching store rule injects.
#[derive(Clone, Debug)]
pub enum StoreFault {
    /// Fail the op with an injected `StoreError::Io` without touching the
    /// inner store (a transient backend error).
    Error,
    /// Sleep before performing the op (a slow disk / compaction stall).
    Delay(Duration),
    /// For `put`: persist only a deterministic prefix of the value, then
    /// report failure. The caller never sees an ack; the store is left
    /// holding a torn value — exactly the state a mid-write crash leaves
    /// behind a single-record writer. Every other op, `write_batch`
    /// included, treats this as [`StoreFault::Error`]: a batch torn by a
    /// crash is a batch recovery discards.
    TornWrite,
}

/// When a rule fires, in terms of the decorator's op counter.
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

/// One store-side injection rule.
#[derive(Clone, Debug)]
pub struct StoreRule {
    /// Restrict to one op type; `None` matches every op.
    pub op: Option<OpKind>,
    /// Restrict to keys with this prefix; empty matches every key.
    pub key_prefix: Vec<u8>,
    /// When the rule fires.
    pub when: Trigger,
    /// What it injects.
    pub fault: StoreFault,
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
    /// Store-side rules, evaluated in order; first match wins.
    pub store_rules: Vec<StoreRule>,
    /// Transport-side rules, evaluated in order; first match wins.
    pub net_rules: Vec<NetRule>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful to disable faults at runtime).
    pub fn quiet() -> Self {
        FaultPlan::default()
    }

    /// Builder: appends a store rule.
    pub fn with_store_rule(mut self, rule: StoreRule) -> Self {
        self.store_rules.push(rule);
        self
    }

    /// Builder: appends a net rule.
    pub fn with_net_rule(mut self, rule: NetRule) -> Self {
        self.net_rules.push(rule);
        self
    }

    /// The randomized chaos schedule: moderate rates of transient store
    /// errors and delays plus per-frame transport drops/delays, all
    /// derived from `seed`. Severity is tuned so a retrying client makes
    /// progress (no unconditional black-hole/sever — the chaos test adds
    /// those explicitly when it wants them).
    pub fn randomized(seed: u64) -> Self {
        // Domain separation: plan construction must not reuse the raw seed
        // stream that per-op triggers draw from.
        let mut rng = DetRng::new(seed ^ 0x5eed_91a7_0fa1_7c0d);
        let store_err = 5_000 + rng.below(20_000) as u32; // 0.5%–2.5%
        let store_delay = 5_000 + rng.below(10_000) as u32; // 0.5%–1.5%
        let delay_ms = 1 + rng.below(10); // 1–10 ms stalls
        let net_drop = 2_000 + rng.below(8_000) as u32; // 0.2%–1%
        let net_delay = 5_000 + rng.below(10_000) as u32;
        FaultPlan {
            seed,
            store_rules: vec![
                StoreRule {
                    op: None,
                    key_prefix: Vec::new(),
                    when: Trigger::PerMillion(store_err),
                    fault: StoreFault::Error,
                },
                StoreRule {
                    op: Some(OpKind::Put),
                    key_prefix: Vec::new(),
                    when: Trigger::PerMillion(store_delay),
                    fault: StoreFault::Delay(Duration::from_millis(delay_ms)),
                },
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
                    fault: NetFault::Delay(Duration::from_millis(delay_ms)),
                },
            ],
        }
    }

    /// First store rule matching `(op, key)` that fires at `index`.
    pub fn store_fault(&self, op: OpKind, key: &[u8], index: u64) -> Option<&StoreFault> {
        self.store_rules.iter().enumerate().find_map(|(i, r)| {
            let op_ok = r.op.is_none() || r.op == Some(op);
            let key_ok = key.starts_with(&r.key_prefix);
            (op_ok && key_ok && r.when.fires(self.seed, i, index)).then_some(&r.fault)
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
    fn store_rule_matching_respects_op_and_prefix() {
        let plan = FaultPlan {
            seed: 1,
            store_rules: vec![StoreRule {
                op: Some(OpKind::Put),
                key_prefix: b"chunk/".to_vec(),
                when: Trigger::EveryNth(1),
                fault: StoreFault::Error,
            }],
            net_rules: Vec::new(),
        };
        assert!(plan.store_fault(OpKind::Put, b"chunk/1", 0).is_some());
        assert!(plan.store_fault(OpKind::Get, b"chunk/1", 0).is_none());
        assert!(plan.store_fault(OpKind::Put, b"index/1", 0).is_none());
    }

    #[test]
    fn randomized_plans_replay_from_seed() {
        let a = FaultPlan::randomized(42);
        let b = FaultPlan::randomized(42);
        let decisions = |p: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|i| p.store_fault(OpKind::Put, b"k", i).is_some())
                .collect()
        };
        assert_eq!(decisions(&a), decisions(&b));
    }
}

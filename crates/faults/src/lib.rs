//! Deterministic fault injection for the TimeCrypt reproduction.
//!
//! The paper's deployment story is long-lived encrypted streams surviving
//! node crashes, slow disks, and flaky networks; this crate is the harness
//! that *manufactures* those conditions on demand, reproducibly:
//!
//! * [`FaultPlan`] — a seeded schedule of fault rules. Every injection
//!   decision is a pure function of `(seed, rule, op index)`, so printing
//!   the seed of a failing chaos run is enough to replay it.
//! * [`FaultyKv`] — a `KvStore` decorator injecting transient errors,
//!   delays, and torn writes by op type and key prefix.
//! * [`FaultyTransport`] — an in-process TCP proxy that drops, delays,
//!   black-holes, or severs individual length-prefixed frames, modelling
//!   lossy links, hung-but-alive peers, and hard partitions.
//!
//! Shared by `tests/chaos.rs` and the timeout-promotion integration test
//! — one schedule format for both.

pub mod net;
pub mod plan;
pub mod store;

pub use net::FaultyTransport;
pub use plan::{
    DetRng, FaultPlan, NetDirection, NetFault, NetRule, OpKind, StoreFault, StoreRule, Trigger,
};
pub use store::{faulty, FaultyKv};

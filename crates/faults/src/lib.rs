//! Deterministic fault injection for the TimeCrypt reproduction.
//!
//! The paper's deployment story is long-lived encrypted streams surviving
//! node crashes, slow or full disks, and flaky networks; this crate is the
//! harness that *manufactures* those conditions on demand, reproducibly:
//!
//! * [`FaultPlan`] — a seeded schedule of fault rules. Every injection
//!   decision is a pure function of `(seed, rule, call index)`, so printing
//!   the seed of a failing chaos run is enough to replay it.
//! * [`FaultyFile`] — the `LogFile` under a log, injecting `EIO`, delays
//!   and short appends (`ENOSPC`) by kind of call, where a disk would.
//! * [`FaultyTransport`] — an in-process TCP proxy that drops, delays,
//!   black-holes, or severs individual length-prefixed frames, modelling
//!   lossy links, hung-but-alive peers, and hard partitions. It accepts on
//!   a `timecrypt_obs::Listener`, whose stop severs its connections, and
//!   reads frames with `timecrypt_wire::read_frame`.
//!
//! Shared by the root tests' deployments (`tests/common/deploy.rs`), the
//! index and engine tests of a failed write, `tests/chaos.rs` and the
//! timeout-promotion test — one schedule format for all of them.

pub mod file;
pub mod net;
pub mod plan;

pub use file::FaultyFile;
pub use net::FaultyTransport;
pub use plan::{
    FaultPlan, FileCall, FileFault, FileRule, NetDirection, NetFault, NetRule, Trigger,
};

//! The repo benchmark: client-to-store workloads over the real deployment
//! (clients → TCP → coordinator → `ShardNode` → `LogKv`), end-to-end metrics
//! checked against a plaintext oracle, and a per-layer ledger recorded from
//! outside the program. See `README.md` beside this crate.

pub mod affinity;
pub mod cli;
pub mod cluster;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod rng;
pub mod runner;
pub mod spans;
pub mod workloads;

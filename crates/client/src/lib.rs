//! The TimeCrypt client engine (paper §3.2, §4.6).
//!
//! Three roles, all built on the same transport abstraction:
//!
//! * **Producer** ([`producer::Producer`]) — a device writing a stream:
//!   batches points into Δ-chunks, computes digests, encrypts everything,
//!   and ships sealed chunks to the server.
//! * **Data owner** ([`owner::DataOwner`]) — holds the stream's key
//!   material; creates streams, issues grants (full-resolution token sets or
//!   resolution-restricted dual-key-regression tokens), publishes
//!   resolution envelopes, extends open subscriptions, revokes.
//! * **Consumer** ([`consumer::Consumer`]) — a principal: downloads its
//!   sealed grants, reconstructs key material, issues statistical/raw
//!   queries, and decrypts exactly what its grants cover.
//!
//! The [`transport`] module lets all three run over a real TCP connection
//! ([`timecrypt_wire::Client`]) or an in-process server handle (used by the
//! benchmarks to separate engine cost from network cost).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod consumer;
pub mod grants;
pub mod owner;
pub mod producer;
pub mod transport;

pub use consumer::Consumer;
pub use grants::{Grant, StreamDescriptor};
pub use owner::DataOwner;
pub use producer::{BatchingProducer, Producer};
pub use transport::{ClientFault, InProc, Transport};

//! Wire protocol: framing, message schema, and TCP transport.
//!
//! The paper's prototype exposes the TimeCrypt API over Netty with protobuf
//! messages (§5). This crate is the from-scratch substitute: a length-
//! prefixed binary framing layer ([`frame`]), a hand-rolled codec
//! ([`codec`]) under one declarative table per message direction
//! ([`messages`]) mirroring the Table 1 API, a blocking
//! thread-per-connection TCP transport ([`transport`]) with request
//! pipelining, and a client-connection pool with reconnect-and-backoff
//! ([`pool`]) — enough for both the multi-client load generator and the
//! sharded service tier's coordinator → node links.
//!
//! Framing: every message is `u32 little-endian length || body`, with a hard
//! frame-size cap to bound allocation from untrusted peers.
//!
//! Tracing: a request may arrive wrapped in an optional trace-context
//! envelope ([`messages::split_trace`]); the server loop peels it off,
//! stamps the context into the thread-local used by `timecrypt-obs`
//! spans, and hands the handler exactly the pre-envelope bytes —
//! untraced traffic is byte-identical to a build without tracing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod codec;
pub mod frame;
pub mod messages;
pub mod pool;
pub mod transport;

pub use codec::{ByteReader, ByteWriter, WireError};
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use messages::{
    Refusal, RefusalKind, Request, Response, ServiceStatsWire, ShardStatsWire, StatLeg, StatReply,
    StreamInfoWire,
};
pub use pool::{ClientPool, PoolConfig};
pub use timecrypt_obs::TraceContext;
pub use transport::{Client, Server};

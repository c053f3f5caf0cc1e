//! Transport abstraction: TCP or in-process.

use std::sync::Arc;
use timecrypt_wire::messages::{Request, Response};
use timecrypt_wire::transport::{ClientError, Handler};

/// Client-side failure type shared by all roles.
#[derive(Debug)]
pub enum ClientFault {
    /// Transport / server error.
    Transport(String),
    /// The server replied with an unexpected variant.
    Protocol(&'static str),
    /// Local key material can't decrypt / derive (access control).
    Access(timecrypt_core::CoreError),
    /// Chunk handling error.
    Chunk(String),
}

impl std::fmt::Display for ClientFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientFault::Transport(e) => write!(f, "transport: {e}"),
            ClientFault::Protocol(w) => write!(f, "protocol: expected {w}"),
            ClientFault::Access(e) => write!(f, "access: {e}"),
            ClientFault::Chunk(e) => write!(f, "chunk: {e}"),
        }
    }
}

impl std::error::Error for ClientFault {}

impl From<ClientError> for ClientFault {
    fn from(e: ClientError) -> Self {
        ClientFault::Transport(e.to_string())
    }
}

impl From<timecrypt_core::CoreError> for ClientFault {
    fn from(e: timecrypt_core::CoreError) -> Self {
        ClientFault::Access(e)
    }
}

/// Anything that can carry a request to a TimeCrypt server.
pub trait Transport {
    /// Round-trips one request.
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault>;
}

impl Transport for timecrypt_wire::Client {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        Ok(timecrypt_wire::Client::call(self, req)?)
    }
}

/// In-process transport over *any* request handler — the single engine, the
/// sharded `timecrypt-service` tier, or a test double: no sockets and no
/// frame layer (message encode/decode still happens, mirroring the paper's
/// co-located microbenchmarks). This is how clients talk to a co-located
/// engine or service without a socket in between.
#[derive(Clone)]
pub struct InProc<H: ?Sized> {
    handler: Arc<H>,
}

impl<H: Handler + ?Sized> InProc<H> {
    /// Wraps a handler handle.
    pub fn new(handler: Arc<H>) -> Self {
        InProc { handler }
    }
}

impl<H: Handler + ?Sized> Transport for InProc<H> {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        match self.handler.handle(req.clone()) {
            Response::Error(e) => Err(ClientFault::Transport(e)),
            other => Ok(other),
        }
    }
}

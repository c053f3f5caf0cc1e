//! Transport abstraction: TCP or in-process, and the client's one reply
//! reader over both.

use std::sync::Arc;
use timecrypt_wire::messages::{Refusal, Request, Response, StatReply, StreamInfoWire};
use timecrypt_wire::transport::{ClientError, Handler};

/// Client-side failure type shared by all roles.
#[derive(Debug)]
pub enum ClientFault {
    /// No well-formed reply: the connection failed, or the reply did not
    /// decode.
    Transport(String),
    /// The server's refusal (`Response::Error`), whole, whichever transport
    /// carried it.
    Refused(Refusal),
    /// The server replied with an unexpected variant.
    Protocol(&'static str),
    /// Local key material can't decrypt / derive (access control).
    Access(timecrypt_core::CoreError),
    /// A chunk, record, proof or grant that cannot be sealed, parsed or
    /// opened.
    Chunk(String),
}

impl std::fmt::Display for ClientFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientFault::Transport(e) => write!(f, "transport: {e}"),
            ClientFault::Refused(refusal) => write!(f, "refused: {}", refusal.reason),
            ClientFault::Protocol(w) => write!(f, "protocol: expected {w}"),
            ClientFault::Access(e) => write!(f, "access: {e}"),
            ClientFault::Chunk(e) => write!(f, "chunk: {e}"),
        }
    }
}

impl std::error::Error for ClientFault {}

impl From<ClientError> for ClientFault {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Refused(refusal) => ClientFault::Refused(refusal),
            ClientError::Frame(_) => ClientFault::Transport(e.to_string()),
        }
    }
}

impl From<timecrypt_core::CoreError> for ClientFault {
    fn from(e: timecrypt_core::CoreError) -> Self {
        ClientFault::Access(e)
    }
}

/// A chunk, record, proof or grant that cannot be sealed, parsed or opened.
pub(crate) fn chunk_fault(e: impl std::fmt::Display) -> ClientFault {
    ClientFault::Chunk(e.to_string())
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
/// sharded `timecrypt-service` tier, or a test double: no sockets, no frame
/// layer and no message encoding (the handler is handed a clone of the
/// request, mirroring the paper's co-located microbenchmarks). This is how
/// clients talk to a co-located engine or service without a socket in
/// between.
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
            Response::Error(refusal) => Err(ClientFault::Refused(refusal)),
            other => Ok(other),
        }
    }
}

/// One reader per expected `Response` variant: it sends through
/// [`Transport::call`] and returns what the variant carries, or
/// `ClientFault::Protocol` naming the variant for any other reply.
macro_rules! readers {
    ($($name:ident: $variant:ident $fields:tt => $carried:expr, $ty:ty;)*) => {$(
        fn $name(&mut self, req: &Request) -> Result<$ty, ClientFault> {
            match self.call(req)? {
                Response::$variant $fields => Ok($carried),
                _ => Err(ClientFault::Protocol(stringify!($variant))),
            }
        }
    )*};
}

/// The client's one reply reader, over every [`Transport`]: each exchange
/// of the owner, the producers and the consumer is one call of it, with the
/// request as its only argument.
pub(crate) trait Exchange: Transport {
    readers! {
        ack: Ok {} => (), ();
        batch: Batch { errors } => errors, Vec<(u32, Refusal)>;
        blobs: Blobs(blobs) => blobs, Vec<Vec<u8>>;
        envelopes: Envelopes(envelopes) => envelopes, Vec<(u64, Vec<u8>)>;
        info: Info(info) => info, StreamInfoWire;
        stat: Stat(reply) => reply, StatReply;
        chunks: Chunks(chunks) => chunks, Vec<Vec<u8>>;
        records: Records(records) => records, Vec<Vec<u8>>;
        attested: Attested { attestation, proof } => (attestation, proof), (Vec<u8>, Vec<u8>);
        verified_chunks: VerifiedChunks { attestation, proof, chunks } =>
            (attestation, proof, chunks), (Vec<u8>, Vec<u8>, Vec<Vec<u8>>);
    }
}

impl<T: Transport + ?Sized> Exchange for T {}

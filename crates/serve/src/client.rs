//! A blocking wire-protocol client with request pipelining.
//!
//! [`Client::infer`] is the one-call convenience; [`Client::submit`] /
//! [`Client::recv_reply`] pipeline many requests over one connection
//! (replies arrive in completion order and correlate by id); and
//! [`Client::split`] separates the two halves onto different threads for
//! open-loop load generation.
//!
//! A broken connection surfaces as [`RuntimeError::Io`] and is not
//! retried: the caller reconnects and resubmits what went unanswered.
//! The fleet's outputs are deterministic, so a re-executed request
//! returns the same bits.

use crate::wire::{self, Message, WireError, WireHealth, WireRequest, WireResponse};
use epim_runtime::RuntimeError;
use epim_tensor::Tensor;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

fn eof() -> RuntimeError {
    RuntimeError::Io(std::sync::Arc::new(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "server closed the connection",
    )))
}

/// A reply to one request: the server's response frame or its typed
/// error frame. Transport and protocol failures surface separately as
/// [`RuntimeError`].
pub type Reply = Result<WireResponse, WireError>;

/// The sending half: encodes and writes request frames.
pub struct ClientSender {
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl ClientSender {
    /// Writes one request frame and returns its id (monotonic from 1).
    ///
    /// # Errors
    ///
    /// Transport failures as [`RuntimeError::Io`]; encoding range
    /// violations as [`RuntimeError::Protocol`].
    pub fn submit(&mut self, tenant: &str, input: Tensor) -> Result<u64, RuntimeError> {
        self.submit_with_deadline(tenant, input, 0)
    }

    /// [`ClientSender::submit`] with a relative completion deadline in
    /// milliseconds (`0` = none). The server sheds the request with a
    /// typed `deadline` error frame if it expires before execution
    /// starts.
    ///
    /// # Errors
    ///
    /// Same contract as [`ClientSender::submit`].
    pub fn submit_with_deadline(
        &mut self,
        tenant: &str,
        input: Tensor,
        deadline_ms: u32,
    ) -> Result<u64, RuntimeError> {
        let id = self.next_id;
        self.submit_with_id(id, tenant, input, deadline_ms)?;
        Ok(id)
    }

    /// Writes one request frame under a caller-chosen id, so a caller that
    /// tracks its own ids (an open-loop load generator, or one that
    /// resubmits after a reconnect) can correlate replies. Keeps
    /// `next_id` monotonic past `id`.
    ///
    /// # Errors
    ///
    /// Same contract as [`ClientSender::submit`].
    pub fn submit_with_id(
        &mut self,
        id: u64,
        tenant: &str,
        input: Tensor,
        deadline_ms: u32,
    ) -> Result<(), RuntimeError> {
        self.next_id = self.next_id.max(id.wrapping_add(1));
        Message::Request(WireRequest {
            id,
            tenant: tenant.to_string(),
            deadline_ms,
            input,
        })
        .write(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Writes one health probe frame; the server answers with a
    /// [`WireHealth`] frame on the reply stream.
    ///
    /// # Errors
    ///
    /// Transport failures as [`RuntimeError::Io`].
    pub fn probe_health(&mut self) -> Result<(), RuntimeError> {
        Message::HealthReq.write(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Sends the orderly goodbye frame (the server will answer
    /// everything in flight, reply `Goodbye` and close).
    ///
    /// # Errors
    ///
    /// Transport failures as [`RuntimeError::Io`].
    pub fn goodbye(mut self) -> Result<(), RuntimeError> {
        Message::Goodbye.write(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }
}

/// The receiving half: reads and decodes reply frames.
pub struct ClientReceiver {
    reader: BufReader<TcpStream>,
}

impl ClientReceiver {
    /// Reads the next reply frame (response or typed error).
    ///
    /// # Errors
    ///
    /// Transport failures (including an unexpected close) as
    /// [`RuntimeError::Io`]; a malformed or unexpected frame — anything
    /// but a response, error or goodbye — as [`RuntimeError::Protocol`].
    /// A `Goodbye` from the server also decodes to
    /// [`RuntimeError::Protocol`] here: it means the server closed while
    /// the caller still expected replies.
    pub fn recv_reply(&mut self) -> Result<Reply, RuntimeError> {
        match Message::read(&mut self.reader, wire::MAX_FRAME)? {
            None => Err(eof()),
            Some(Message::Response(resp)) => Ok(Ok(resp)),
            Some(Message::Error(err)) => Ok(Err(err)),
            Some(Message::Goodbye) => Err(RuntimeError::Protocol {
                reason: "server said goodbye while replies were still expected".to_string(),
            }),
            Some(other) => Err(RuntimeError::Protocol {
                reason: format!("unexpected frame while awaiting a reply: {other:?}"),
            }),
        }
    }

    /// Reads the next frame, expecting the server's health snapshot.
    /// Only valid when no inference reply is pending ahead of it (health
    /// frames share the reply stream).
    ///
    /// # Errors
    ///
    /// Transport failures as [`RuntimeError::Io`]; any frame other than
    /// `Health` as [`RuntimeError::Protocol`].
    pub fn recv_health(&mut self) -> Result<WireHealth, RuntimeError> {
        match Message::read(&mut self.reader, wire::MAX_FRAME)? {
            None => Err(eof()),
            Some(Message::Health(health)) => Ok(health),
            Some(other) => Err(RuntimeError::Protocol {
                reason: format!("expected a health frame, got {other:?}"),
            }),
        }
    }

    /// Reads until the server's `Goodbye` (discarding any stray
    /// replies), confirming an orderly close.
    ///
    /// # Errors
    ///
    /// Transport failures as [`RuntimeError::Io`]; an unexpected close
    /// before `Goodbye` as [`RuntimeError::Io`] (unexpected EOF).
    pub fn await_goodbye(mut self) -> Result<(), RuntimeError> {
        loop {
            match Message::read(&mut self.reader, wire::MAX_FRAME)? {
                Some(Message::Goodbye) => return Ok(()),
                Some(_) => continue,
                None => return Err(eof()),
            }
        }
    }
}

/// A connected wire-protocol client.
pub struct Client {
    sender: ClientSender,
    receiver: ClientReceiver,
}

impl Client {
    /// Connects to `addr` and performs the hello handshake.
    ///
    /// # Errors
    ///
    /// Transport failures as [`RuntimeError::Io`]; a bad server hello as
    /// [`RuntimeError::Protocol`].
    pub fn connect(addr: &str) -> Result<Self, RuntimeError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone()?;
        let mut sender = ClientSender {
            writer: BufWriter::new(write_half),
            next_id: 1,
        };
        let mut receiver = ClientReceiver {
            reader: BufReader::new(stream),
        };
        wire::write_hello(&mut sender.writer)?;
        wire::read_hello(&mut receiver.reader)?;
        Ok(Client { sender, receiver })
    }

    /// Pipelines: writes one request frame without waiting for a reply.
    ///
    /// # Errors
    ///
    /// Same contract as [`ClientSender::submit`].
    pub fn submit(&mut self, tenant: &str, input: Tensor) -> Result<u64, RuntimeError> {
        self.sender.submit(tenant, input)
    }

    /// [`Client::submit`] with a relative deadline in milliseconds
    /// (`0` = none).
    ///
    /// # Errors
    ///
    /// Same contract as [`ClientSender::submit`].
    pub fn submit_with_deadline(
        &mut self,
        tenant: &str,
        input: Tensor,
        deadline_ms: u32,
    ) -> Result<u64, RuntimeError> {
        self.sender.submit_with_deadline(tenant, input, deadline_ms)
    }

    /// Reads the next reply (in the server's completion order).
    ///
    /// # Errors
    ///
    /// Same contract as [`ClientReceiver::recv_reply`].
    pub fn recv_reply(&mut self) -> Result<Reply, RuntimeError> {
        self.receiver.recv_reply()
    }

    /// One health round trip: probes the server and reads its snapshot.
    /// Only valid when no inference reply is pending on this client.
    ///
    /// # Errors
    ///
    /// Transport failures as [`RuntimeError::Io`]; a non-health reply as
    /// [`RuntimeError::Protocol`].
    pub fn health(&mut self) -> Result<WireHealth, RuntimeError> {
        self.sender.probe_health()?;
        self.receiver.recv_health()
    }

    /// One round trip: submit, then block for this request's reply.
    /// Only valid when no other request is in flight on this client
    /// (otherwise an earlier request's reply may arrive first; use
    /// [`Client::submit`] / [`Client::recv_reply`] and correlate ids).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures as [`RuntimeError`]; a reply that
    /// answers a different id as [`RuntimeError::Protocol`].
    pub fn infer(&mut self, tenant: &str, input: Tensor) -> Result<Reply, RuntimeError> {
        let id = self.submit(tenant, input)?;
        let reply = self.recv_reply()?;
        let got = match &reply {
            Ok(resp) => resp.id,
            Err(err) => err.id,
        };
        if got != id && got != wire::NO_REQUEST {
            return Err(RuntimeError::Protocol {
                reason: format!("reply for id {got} while only {id} was in flight"),
            });
        }
        Ok(reply)
    }

    /// Splits into independently-owned sender and receiver halves, for
    /// open-loop drivers that pace submissions on one thread and collect
    /// replies on another.
    pub fn split(self) -> (ClientSender, ClientReceiver) {
        (self.sender, self.receiver)
    }

    /// Orderly close: goodbye, drain, confirm the server's goodbye.
    ///
    /// # Errors
    ///
    /// Transport failures as [`RuntimeError::Io`].
    pub fn close(self) -> Result<(), RuntimeError> {
        let (sender, receiver) = self.split();
        sender.goodbye()?;
        receiver.await_goodbye()
    }
}

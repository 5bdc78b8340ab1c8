//! The length-prefixed binary wire protocol.
//!
//! A connection opens with a fixed 6-byte hello in each direction —
//! the [`MAGIC`] bytes `"EPIM"` followed by the little-endian protocol
//! [`VERSION`] — and then carries frames. Every frame is a `u32`
//! little-endian body length followed by the body; the first body byte is
//! the frame type:
//!
//! | type | frame     | body after the type byte                                   |
//! |------|-----------|------------------------------------------------------------|
//! | 0x01 | Request   | `u64` id, `u16` name len + tenant name, `u32` deadline ms (`0` = none), `u8` rank, rank × `u32` dims, `f32` payload |
//! | 0x02 | Response  | `u64` id, `u32` batch size, `u64` latency ns, `u8` rank, rank × `u32` dims, `f32` payload |
//! | 0x03 | Error     | `u64` id ([`NO_REQUEST`] when connection-level), `u16` code, `u16` message len + message |
//! | 0x04 | Goodbye   | empty                                                      |
//! | 0x05 | HealthReq | empty (client → server probe)                              |
//! | 0x06 | Health    | `u8` draining, `u16` tenant count, count × (`u16` len + name) |
//!
//! All integers and floats are little-endian. Request ids are chosen by
//! the client and echoed verbatim; the server never interprets them
//! beyond routing the reply. A frame longer than the negotiated
//! [`MAX_FRAME`] or with any structural defect (bad type byte, truncated
//! body, trailing bytes, non-UTF-8 tenant name, dims/payload mismatch)
//! decodes to [`RuntimeError::Protocol`] — connection-fatal on the server
//! side: it replies with a typed error frame and closes.

use epim_runtime::RuntimeError;
use epim_tensor::Tensor;
use std::io::{Read, Write};

/// The 4-byte connection preamble.
pub const MAGIC: [u8; 4] = *b"EPIM";
/// Protocol version carried in the hello exchange. Version 2 added the
/// request deadline field and the health probe frames.
pub const VERSION: u16 = 2;
/// Default upper bound on a frame body. Large enough for any zoo-model
/// tensor, small enough that a hostile length prefix cannot make the
/// server allocate gigabytes.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// The request id used in connection-level error frames that do not
/// answer any particular request.
pub const NO_REQUEST: u64 = u64::MAX;

/// Frame type tags (first body byte).
pub const TYPE_REQUEST: u8 = 0x01;
/// See [`TYPE_REQUEST`].
pub const TYPE_RESPONSE: u8 = 0x02;
/// See [`TYPE_REQUEST`].
pub const TYPE_ERROR: u8 = 0x03;
/// See [`TYPE_REQUEST`].
pub const TYPE_GOODBYE: u8 = 0x04;
/// See [`TYPE_REQUEST`].
pub const TYPE_HEALTH_REQ: u8 = 0x05;
/// See [`TYPE_REQUEST`].
pub const TYPE_HEALTH: u8 = 0x06;

/// Typed error codes carried by error frames, mapped from
/// [`RuntimeError`] by [`error_code`].
pub mod code {
    /// The tenant's bounded queue was full and the request was shed.
    pub const OVERLOADED: u16 = 1;
    /// The request named a tenant the fleet does not serve.
    pub const UNKNOWN_TENANT: u16 = 2;
    /// The server is draining and no longer accepts requests.
    pub const SHUTTING_DOWN: u16 = 3;
    /// The peer violated the wire protocol; the connection closes.
    pub const PROTOCOL: u16 = 4;
    /// Reserved: once sent when a bounded server-side wait expired. No
    /// error maps to it any more and it is no longer sent; the number is
    /// kept so it never takes on another meaning.
    pub const TIMEOUT: u16 = 5;
    /// The request failed inside the execution engine.
    pub const EXECUTION: u16 = 6;
    /// A transport-level I/O failure.
    pub const IO: u16 = 7;
    /// The request's deadline passed before execution started; the
    /// scheduler shed it instead of computing an answer nobody waits
    /// for.
    pub const DEADLINE: u16 = 8;
}

/// Maps a runtime error onto its wire error code.
pub fn error_code(err: &RuntimeError) -> u16 {
    match err {
        RuntimeError::Overloaded { .. } => code::OVERLOADED,
        RuntimeError::UnknownTenant { .. } => code::UNKNOWN_TENANT,
        RuntimeError::ShuttingDown => code::SHUTTING_DOWN,
        RuntimeError::Protocol { .. } => code::PROTOCOL,
        RuntimeError::DeadlineExceeded => code::DEADLINE,
        RuntimeError::Io(_) => code::IO,
        _ => code::EXECUTION,
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A client inference request.
    Request(WireRequest),
    /// A server reply carrying the output tensor.
    Response(WireResponse),
    /// A typed failure reply.
    Error(WireError),
    /// Orderly end-of-stream marker (sent by both sides).
    Goodbye,
    /// A client health probe; the server answers with
    /// [`Message::Health`] without touching any tenant queue.
    HealthReq,
    /// The server's health snapshot.
    Health(WireHealth),
}

/// The request frame payload.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen id, echoed in the reply.
    pub id: u64,
    /// Which fleet tenant serves this request.
    pub tenant: String,
    /// Relative completion deadline in milliseconds, measured from
    /// server-side decode; `0` means "no deadline". Carried relative
    /// (not as a wall-clock instant) so client/server clock skew cannot
    /// spuriously expire requests.
    pub deadline_ms: u32,
    /// The input tensor.
    pub input: Tensor,
}

/// The response frame payload.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Echo of the request id.
    pub id: u64,
    /// How many requests shared the executed batch server-side.
    pub batch_size: u32,
    /// Server-side submission-to-delivery latency in nanoseconds.
    pub latency_ns: u64,
    /// The output tensor.
    pub output: Tensor,
}

/// The health frame payload: enough for a load balancer (or an
/// operator's probe) to decide whether to keep routing traffic here.
#[derive(Debug, Clone, PartialEq)]
pub struct WireHealth {
    /// `true` once the server has begun draining: in-flight requests
    /// still complete but new connections should go elsewhere.
    pub draining: bool,
    /// The tenant names this fleet serves, in registration order.
    pub tenants: Vec<String>,
}

/// The error frame payload.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Echo of the offending request id, or [`NO_REQUEST`].
    pub id: u64,
    /// One of the [`code`] constants.
    pub code: u16,
    /// Human-readable detail (the runtime error's `Display`).
    pub message: String,
}

fn proto(reason: impl Into<String>) -> RuntimeError {
    RuntimeError::Protocol {
        reason: reason.into(),
    }
}

/// Writes the 6-byte hello preamble.
///
/// # Errors
///
/// Transport failures as [`RuntimeError::Io`].
pub fn write_hello(w: &mut impl Write) -> Result<(), RuntimeError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads and validates the peer's hello preamble.
///
/// # Errors
///
/// [`RuntimeError::Protocol`] on a wrong magic or an unsupported
/// version; transport failures as [`RuntimeError::Io`].
pub fn read_hello(r: &mut impl Read) -> Result<(), RuntimeError> {
    let mut buf = [0u8; 6];
    r.read_exact(&mut buf)?;
    if buf[..4] != MAGIC {
        return Err(proto(format!(
            "bad magic {:02x?}, want \"EPIM\"",
            &buf[..4]
        )));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(proto(format!(
            "unsupported protocol version {version}, want {VERSION}"
        )));
    }
    Ok(())
}

/// Writes one already-encoded frame body behind its length prefix.
///
/// # Errors
///
/// Transport failures as [`RuntimeError::Io`].
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), RuntimeError> {
    let len = u32::try_from(body.len()).map_err(|_| proto("frame body over 4 GiB"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    Ok(())
}

/// Reads one raw frame body. Returns `Ok(None)` on a clean end-of-stream
/// at a frame boundary.
///
/// # Errors
///
/// [`RuntimeError::Protocol`] when the announced length exceeds
/// `max_frame`; transport failures (including EOF mid-frame) as
/// [`RuntimeError::Io`].
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Vec<u8>>, RuntimeError> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte is an orderly close; EOF after
    // a partial prefix is a transport error.
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(RuntimeError::Io(std::sync::Arc::new(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF mid frame prefix",
                ))))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_frame {
        return Err(proto(format!(
            "frame of {len} bytes exceeds the {max_frame}-byte limit"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// A little-endian byte writer for frame bodies.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn tensor(&mut self, t: &Tensor) -> Result<(), RuntimeError> {
        let rank = u8::try_from(t.shape().len()).map_err(|_| proto("tensor rank over 255"))?;
        self.u8(rank);
        for &d in t.shape() {
            let d = u32::try_from(d).map_err(|_| proto("tensor dim over u32"))?;
            self.u32(d);
        }
        self.buf.reserve(t.data().len() * 4);
        for &x in t.data() {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        Ok(())
    }
}

/// A bounds-checked little-endian byte reader for frame bodies.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], RuntimeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| proto("truncated frame body"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, RuntimeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, RuntimeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, RuntimeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, RuntimeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn string(&mut self, len: usize) -> Result<String, RuntimeError> {
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| proto("non-UTF-8 string field"))
    }
    fn tensor(&mut self) -> Result<Tensor, RuntimeError> {
        let rank = self.u8()? as usize;
        let mut shape = Vec::with_capacity(rank);
        let mut numel: usize = 1;
        for _ in 0..rank {
            let d = self.u32()? as usize;
            numel = numel
                .checked_mul(d)
                .ok_or_else(|| proto("tensor element count overflows"))?;
            shape.push(d);
        }
        // Bound the element count by what the frame can actually hold
        // before allocating, so a hostile dim cannot force a huge alloc.
        let remaining = self.buf.len() - self.pos;
        if numel.checked_mul(4).map(|b| b > remaining).unwrap_or(true) {
            return Err(proto(format!(
                "tensor payload wants {numel} f32s but {remaining} bytes remain in the frame"
            )));
        }
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            let b = self.take(4)?;
            data.push(f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        Tensor::from_vec(data, &shape).map_err(|e| proto(format!("bad tensor in frame: {e}")))
    }
    fn finish(self) -> Result<(), RuntimeError> {
        if self.pos != self.buf.len() {
            return Err(proto(format!(
                "{} trailing bytes after frame payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Message {
    /// Encodes this message into a frame body (no length prefix).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Protocol`] when a field exceeds its wire range
    /// (tenant name over `u16`, tensor rank over `u8`).
    pub fn encode(&self) -> Result<Vec<u8>, RuntimeError> {
        let mut e = Enc::default();
        match self {
            Message::Request(req) => {
                e.u8(TYPE_REQUEST);
                e.u64(req.id);
                let name_len = u16::try_from(req.tenant.len())
                    .map_err(|_| proto("tenant name over 64 KiB"))?;
                e.u16(name_len);
                e.buf.extend_from_slice(req.tenant.as_bytes());
                e.u32(req.deadline_ms);
                e.tensor(&req.input)?;
            }
            Message::Response(resp) => {
                e.u8(TYPE_RESPONSE);
                e.u64(resp.id);
                e.u32(resp.batch_size);
                e.u64(resp.latency_ns);
                e.tensor(&resp.output)?;
            }
            Message::Error(err) => {
                e.u8(TYPE_ERROR);
                e.u64(err.id);
                e.u16(err.code);
                // Truncate to the u16 length field at a char boundary:
                // the peer rejects a message that is not UTF-8.
                let mut take = err.message.len().min(u16::MAX as usize);
                while !err.message.is_char_boundary(take) {
                    take -= 1;
                }
                e.u16(take as u16);
                e.buf.extend_from_slice(&err.message.as_bytes()[..take]);
            }
            Message::Goodbye => e.u8(TYPE_GOODBYE),
            Message::HealthReq => e.u8(TYPE_HEALTH_REQ),
            Message::Health(h) => {
                e.u8(TYPE_HEALTH);
                e.u8(u8::from(h.draining));
                let count = u16::try_from(h.tenants.len())
                    .map_err(|_| proto("over 65535 tenants in health frame"))?;
                e.u16(count);
                for name in &h.tenants {
                    let len =
                        u16::try_from(name.len()).map_err(|_| proto("tenant name over 64 KiB"))?;
                    e.u16(len);
                    e.buf.extend_from_slice(name.as_bytes());
                }
            }
        }
        Ok(e.buf)
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Protocol`] on any structural defect: empty body,
    /// unknown type byte, truncated fields, non-UTF-8 strings,
    /// dims/payload mismatch or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Message, RuntimeError> {
        let mut d = Dec::new(body);
        let msg = match d.u8()? {
            TYPE_REQUEST => {
                let id = d.u64()?;
                let name_len = d.u16()? as usize;
                let tenant = d.string(name_len)?;
                let deadline_ms = d.u32()?;
                let input = d.tensor()?;
                Message::Request(WireRequest {
                    id,
                    tenant,
                    deadline_ms,
                    input,
                })
            }
            TYPE_RESPONSE => {
                let id = d.u64()?;
                let batch_size = d.u32()?;
                let latency_ns = d.u64()?;
                let output = d.tensor()?;
                Message::Response(WireResponse {
                    id,
                    batch_size,
                    latency_ns,
                    output,
                })
            }
            TYPE_ERROR => {
                let id = d.u64()?;
                let code = d.u16()?;
                let msg_len = d.u16()? as usize;
                let message = d.string(msg_len)?;
                Message::Error(WireError { id, code, message })
            }
            TYPE_GOODBYE => Message::Goodbye,
            TYPE_HEALTH_REQ => Message::HealthReq,
            TYPE_HEALTH => {
                let draining = d.u8()? != 0;
                let count = d.u16()? as usize;
                let mut tenants = Vec::with_capacity(count.min(256));
                for _ in 0..count {
                    let len = d.u16()? as usize;
                    tenants.push(d.string(len)?);
                }
                Message::Health(WireHealth { draining, tenants })
            }
            t => return Err(proto(format!("unknown frame type 0x{t:02x}"))),
        };
        d.finish()?;
        Ok(msg)
    }

    /// Writes this message as one length-prefixed frame.
    ///
    /// # Errors
    ///
    /// Encoding range errors as [`RuntimeError::Protocol`]; transport
    /// failures as [`RuntimeError::Io`].
    pub fn write(&self, w: &mut impl Write) -> Result<(), RuntimeError> {
        write_frame(w, &self.encode()?)
    }

    /// Reads and decodes one frame. `Ok(None)` is a clean end-of-stream.
    ///
    /// # Errors
    ///
    /// Same contract as [`read_frame`] plus [`Message::decode`].
    pub fn read(r: &mut impl Read, max_frame: u32) -> Result<Option<Message>, RuntimeError> {
        match read_frame(r, max_frame)? {
            None => Ok(None),
            Some(body) => Message::decode(&body).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_tensor::{init, rng};

    fn roundtrip(msg: &Message) -> Message {
        let body = msg.encode().unwrap();
        Message::decode(&body).unwrap()
    }

    #[test]
    fn frames_roundtrip_bitwise() {
        let mut r = rng::seeded(3);
        let t = init::uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut r);
        let req = Message::Request(WireRequest {
            id: 42,
            tenant: "resnet-a".into(),
            deadline_ms: 0,
            input: t.clone(),
        });
        assert_eq!(roundtrip(&req), req);

        let req = Message::Request(WireRequest {
            id: 43,
            tenant: "resnet-a".into(),
            deadline_ms: 250,
            input: t.clone(),
        });
        assert_eq!(roundtrip(&req), req);

        let resp = Message::Response(WireResponse {
            id: 42,
            batch_size: 8,
            latency_ns: 1_234_567,
            output: t,
        });
        assert_eq!(roundtrip(&resp), resp);

        let err = Message::Error(WireError {
            id: NO_REQUEST,
            code: code::OVERLOADED,
            message: "queue full".into(),
        });
        assert_eq!(roundtrip(&err), err);
        assert_eq!(roundtrip(&Message::Goodbye), Message::Goodbye);
        assert_eq!(roundtrip(&Message::HealthReq), Message::HealthReq);

        let health = Message::Health(WireHealth {
            draining: true,
            tenants: vec!["resnet-a".into(), "vgg-b".into()],
        });
        assert_eq!(roundtrip(&health), health);
        let health = Message::Health(WireHealth {
            draining: false,
            tenants: Vec::new(),
        });
        assert_eq!(roundtrip(&health), health);
    }

    /// An error message over the `u16` length field is cut at a char
    /// boundary, so the frame still decodes.
    #[test]
    fn long_multibyte_error_message_truncates_to_utf8() {
        let msg = Message::Error(WireError {
            id: 7,
            code: code::UNKNOWN_TENANT,
            message: "é".repeat(40_000),
        });
        let Message::Error(err) = roundtrip(&msg) else {
            panic!("an error frame decodes as an error frame");
        };
        assert_eq!((err.id, err.code), (7, code::UNKNOWN_TENANT));
        assert_eq!(err.message, "é".repeat(usize::from(u16::MAX) / 2));
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        let is_proto = |r: Result<Message, RuntimeError>| {
            assert!(matches!(r, Err(RuntimeError::Protocol { .. })), "{r:?}");
        };
        is_proto(Message::decode(&[]));
        is_proto(Message::decode(&[0x7f]));
        // Truncated request: claims an 8-byte tenant name, body ends.
        let mut body = vec![TYPE_REQUEST];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&8u16.to_le_bytes());
        is_proto(Message::decode(&body));
        // Dims promising more payload than the frame carries.
        let mut body = vec![TYPE_REQUEST];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(b'a');
        body.push(1); // rank 1
        body.extend_from_slice(&1_000_000u32.to_le_bytes());
        is_proto(Message::decode(&body));
        // Trailing garbage after a well-formed goodbye.
        is_proto(Message::decode(&[TYPE_GOODBYE, 0xaa]));
        // Non-UTF-8 tenant name.
        let mut body = vec![TYPE_REQUEST];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&2u16.to_le_bytes());
        body.extend_from_slice(&[0xff, 0xfe]);
        body.push(0);
        is_proto(Message::decode(&body));
    }

    #[test]
    fn oversize_and_eof_framing() {
        // Oversize announced length is rejected before allocation.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut buf.as_slice(), MAX_FRAME).unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol { .. }), "{err:?}");

        // Clean EOF at a frame boundary is not an error.
        assert!(read_frame(&mut [].as_slice(), MAX_FRAME).unwrap().is_none());

        // EOF mid-prefix and mid-body are I/O errors.
        let err = read_frame(&mut [1u8, 0].as_slice(), MAX_FRAME).unwrap_err();
        assert!(matches!(err, RuntimeError::Io(_)), "{err:?}");
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.push(TYPE_GOODBYE);
        let err = read_frame(&mut buf.as_slice(), MAX_FRAME).unwrap_err();
        assert!(matches!(err, RuntimeError::Io(_)), "{err:?}");
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        write_hello(&mut buf).unwrap();
        assert_eq!(buf.len(), 6);
        read_hello(&mut buf.as_slice()).unwrap();

        let err = read_hello(&mut b"EPIN\x01\x00".as_slice()).unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol { .. }), "{err:?}");
        let err = read_hello(&mut b"EPIM\x63\x00".as_slice()).unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn error_codes_cover_runtime_errors() {
        assert_eq!(
            error_code(&RuntimeError::Overloaded {
                tenant: Some("a".into()),
                capacity: 1
            }),
            code::OVERLOADED
        );
        assert_eq!(
            error_code(&RuntimeError::UnknownTenant { id: 9 }),
            code::UNKNOWN_TENANT
        );
        assert_eq!(error_code(&RuntimeError::ShuttingDown), code::SHUTTING_DOWN);
        assert_eq!(
            error_code(&RuntimeError::Protocol { reason: "x".into() }),
            code::PROTOCOL
        );
        assert_eq!(
            error_code(&RuntimeError::ExecutionPanicked),
            code::EXECUTION
        );
        assert_eq!(error_code(&RuntimeError::DeadlineExceeded), code::DEADLINE);
        assert_eq!(
            error_code(&RuntimeError::CrashLoop { restarts: 3 }),
            code::EXECUTION,
            "a crash-looped fleet reports the execution failure class"
        );
    }

    #[test]
    fn truncated_health_frame_is_a_protocol_error() {
        // Claims two tenants but carries only one.
        let mut body = vec![TYPE_HEALTH, 1];
        body.extend_from_slice(&2u16.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(b'a');
        let r = Message::decode(&body);
        assert!(matches!(r, Err(RuntimeError::Protocol { .. })), "{r:?}");
    }
}

//! The typed submission message: [`InferRequest`].
//!
//! [`crate::MultiEngine`]'s submission methods take
//! `impl Into<InferRequest>`: a bare [`Tensor`] works wherever no request
//! metadata is needed, and the wire path attaches the client/connection
//! tag it threads into enqueue trace spans.

use epim_tensor::Tensor;
use std::time::Instant;

/// A client tag meaning "not attributed to any connection".
pub const CLIENT_NONE: u64 = 0;

/// One typed inference request: the input tensor plus submission
/// metadata. This is the message shared by the in-process path (where it
/// is built from a bare [`Tensor`] via `From`) and the wire path (where
/// `epim-serve` decodes it from a request frame and tags it with the
/// originating connection).
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// The input tensor, shaped as the serving plan expects.
    pub input: Tensor,
    /// Originating client/connection tag ([`CLIENT_NONE`] when the
    /// request was submitted in-process). Carried into the scheduler's
    /// `Enqueue` trace span payload so per-connection request flow is
    /// visible in exported traces; never affects execution.
    pub client: u64,
    /// Optional completion deadline. A request whose deadline passes
    /// before its batch starts executing is shed with
    /// [`crate::RuntimeError::DeadlineExceeded`] instead of wasting a
    /// batch slot; a wait for queue space is bounded by it too. `None`
    /// (the default) lets a request wait for queue space indefinitely.
    pub deadline: Option<Instant>,
}

impl InferRequest {
    /// A request for `input` with no client attribution.
    pub fn new(input: Tensor) -> Self {
        InferRequest {
            input,
            client: CLIENT_NONE,
            deadline: None,
        }
    }

    /// This request tagged as originating from `client` (builder-style).
    pub fn with_client(mut self, client: u64) -> Self {
        self.client = client;
        self
    }

    /// This request bounded by an absolute completion `deadline`
    /// (builder-style). See [`InferRequest::deadline`].
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl From<Tensor> for InferRequest {
    fn from(input: Tensor) -> Self {
        InferRequest::new(input)
    }
}

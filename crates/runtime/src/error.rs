use std::error::Error;
use std::fmt;
use std::sync::Arc;

use epim_pim::PimError;

/// Error type for the serving runtime and its network front-end.
#[derive(Debug, Clone)]
pub enum RuntimeError {
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// A runtime configuration value was invalid (zero batch size).
    InvalidConfig {
        /// What was wrong.
        what: String,
    },
    /// The request's batch execution panicked; the engine survives and the
    /// request is reported failed rather than left hanging.
    ExecutionPanicked,
    /// The bounded submission queue was full and a non-waiting submission
    /// (`try_infer`) was shed instead of blocking. Queues (and therefore
    /// overloads) are per-tenant: only the named tenant's traffic was
    /// affected.
    Overloaded {
        /// The overloaded tenant's name (the scheduler always sets it).
        tenant: Option<String>,
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// A request referenced a tenant index that is not registered with the
    /// engine (e.g. a `TenantId` from a different engine).
    UnknownTenant {
        /// The unregistered tenant index.
        id: usize,
    },
    /// The request's own deadline ([`crate::InferRequest::deadline`])
    /// passed before execution started: the scheduler shed the request
    /// instead of spending a batch slot on an answer nobody is waiting
    /// for.
    DeadlineExceeded,
    /// Scheduler workers panicked more times than the restart budget
    /// allows; the fleet shut itself down rather than limp on with a
    /// panic loop. Every queued request is failed with this error.
    CrashLoop {
        /// Worker restarts performed before giving up.
        restarts: u32,
    },
    /// An I/O failure on the serving transport (socket read/write, bind,
    /// accept). Wrapped in an [`Arc`] so the error type stays cheaply
    /// cloneable when one failure answers many requests.
    Io(Arc<std::io::Error>),
    /// The peer violated the wire protocol (bad magic, unsupported
    /// version, malformed or oversized frame). Protocol errors are
    /// connection-fatal: the server replies with a typed error frame and
    /// closes.
    Protocol {
        /// What was malformed.
        reason: String,
    },
    /// Error from the PIM simulation layer (plan compilation or execution).
    Pim(PimError),
}

/// Structural equality; [`RuntimeError::Io`] compares by
/// [`std::io::ErrorKind`] (the payload `std::io::Error` itself is not
/// comparable).
impl PartialEq for RuntimeError {
    fn eq(&self, other: &Self) -> bool {
        use RuntimeError::*;
        match (self, other) {
            (ShuttingDown, ShuttingDown) => true,
            (ExecutionPanicked, ExecutionPanicked) => true,
            (DeadlineExceeded, DeadlineExceeded) => true,
            (CrashLoop { restarts: a }, CrashLoop { restarts: b }) => a == b,
            (InvalidConfig { what: a }, InvalidConfig { what: b }) => a == b,
            (
                Overloaded {
                    tenant: ta,
                    capacity: ca,
                },
                Overloaded {
                    tenant: tb,
                    capacity: cb,
                },
            ) => ta == tb && ca == cb,
            (UnknownTenant { id: a }, UnknownTenant { id: b }) => a == b,
            (Io(a), Io(b)) => a.kind() == b.kind(),
            (Protocol { reason: a }, Protocol { reason: b }) => a == b,
            (Pim(a), Pim(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for RuntimeError {}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::ShuttingDown => write!(f, "engine is shutting down"),
            RuntimeError::InvalidConfig { what } => {
                write!(f, "invalid runtime configuration: {what}")
            }
            RuntimeError::ExecutionPanicked => {
                write!(f, "batch execution panicked; request not completed")
            }
            RuntimeError::Overloaded { tenant, capacity } => match tenant {
                Some(name) => write!(
                    f,
                    "request shed: tenant {name:?} submission queue full ({capacity} pending)"
                ),
                None => write!(
                    f,
                    "request shed: submission queue full ({capacity} pending)"
                ),
            },
            RuntimeError::UnknownTenant { id } => {
                write!(
                    f,
                    "unknown tenant index {id}: not registered with this engine"
                )
            }
            RuntimeError::DeadlineExceeded => {
                write!(f, "request deadline exceeded before execution started")
            }
            RuntimeError::CrashLoop { restarts } => {
                write!(
                    f,
                    "scheduler workers crash-looped ({restarts} restarts used); fleet shut down"
                )
            }
            RuntimeError::Io(e) => write!(f, "serving i/o error: {e}"),
            RuntimeError::Protocol { reason } => {
                write!(f, "wire protocol violation: {reason}")
            }
            RuntimeError::Pim(e) => write!(f, "pim error: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Pim(e) => Some(e),
            RuntimeError::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<PimError> for RuntimeError {
    fn from(e: PimError) -> Self {
        RuntimeError::Pim(e)
    }
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(Arc::new(e))
    }
}

impl RuntimeError {
    /// Convenience constructor for [`RuntimeError::InvalidConfig`].
    pub fn config(what: impl Into<String>) -> Self {
        RuntimeError::InvalidConfig { what: what.into() }
    }

    /// Convenience constructor for [`RuntimeError::Protocol`].
    pub fn protocol(reason: impl Into<String>) -> Self {
        RuntimeError::Protocol {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(RuntimeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        let e = RuntimeError::Overloaded {
            tenant: Some("resnet-a".into()),
            capacity: 4,
        };
        assert!(e.to_string().contains("resnet-a"));
        let e = RuntimeError::Overloaded {
            tenant: None,
            capacity: 4,
        };
        assert!(e.to_string().contains("queue full"));
        assert!(RuntimeError::UnknownTenant { id: 7 }
            .to_string()
            .contains('7'));
        let e = RuntimeError::config("bad");
        assert!(e.to_string().contains("bad"));
        assert!(e.source().is_none());
        let e: RuntimeError = PimError::config("x").into();
        assert!(e.source().is_some());
    }

    #[test]
    fn io_and_protocol_variants() {
        let e: RuntimeError =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer gone").into();
        assert!(e.to_string().contains("peer gone"));
        assert!(e.source().is_some(), "Io exposes the underlying error");
        // Io equality is by kind: the payload error is not comparable.
        let same_kind: RuntimeError =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "other text").into();
        let other_kind: RuntimeError =
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone").into();
        assert_eq!(e, same_kind);
        assert_ne!(e, other_kind);

        let p = RuntimeError::protocol("bad magic");
        assert!(p.to_string().contains("bad magic"));
        assert_eq!(p, RuntimeError::protocol("bad magic"));
        assert_ne!(p, RuntimeError::protocol("bad version"));
    }

    #[test]
    fn deadline_and_crash_loop_variants() {
        let d = RuntimeError::DeadlineExceeded;
        assert!(d.to_string().contains("deadline"));
        assert_eq!(d, RuntimeError::DeadlineExceeded);
        assert_ne!(d, RuntimeError::ShuttingDown);

        let c = RuntimeError::CrashLoop { restarts: 8 };
        assert!(c.to_string().contains("8 restarts"));
        assert_eq!(c, RuntimeError::CrashLoop { restarts: 8 });
        assert_ne!(c, RuntimeError::CrashLoop { restarts: 7 });
        assert!(c.source().is_none());
    }
}

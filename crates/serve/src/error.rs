//! Typed errors of the serving layer.
//!
//! Every failure on the ingress path — admission, enqueue, geometry — is a
//! [`ServeError`]; nothing reachable from a client-supplied frame panics.
//! Processing errors from the underlying pipeline arrive wrapped as
//! [`ServeError::Pipeline`] via `From`, so engine code propagates them
//! with `?`.

use crate::wire::WireError;
use mmhand_core::PipelineError;
use std::error::Error;
use std::fmt;

/// An error raised by the streaming inference service.
#[derive(Debug)]
pub enum ServeError {
    /// A pipeline-level failure (frame geometry, cube shapes, model state).
    Pipeline(PipelineError),
    /// The session's bounded ingress queue is full — backpressure: the
    /// client must drain results or slow down before pushing more frames.
    QueueFull {
        /// The session whose queue is full.
        session: u64,
        /// The configured queue capacity in frames.
        capacity: usize,
    },
    /// Admission control: the engine is at its configured session limit.
    SessionLimit {
        /// The configured maximum number of concurrent sessions.
        max_sessions: usize,
    },
    /// The session id was never opened (or has been closed).
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
    /// The session was evicted after exceeding the idle-step budget.
    SessionEvicted {
        /// The evicted session id.
        session: u64,
    },
    /// The serving configuration is invalid.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// A client sent a structurally invalid byte stream.
    Wire(WireError),
    /// A socket operation failed (bind, accept, read, write).
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ServeError::QueueFull { session, capacity } => write!(
                f,
                "session {session}: ingress queue full ({capacity} frames); \
                 drain results or reduce the push rate"
            ),
            ServeError::SessionLimit { max_sessions } => {
                write!(f, "session limit reached ({max_sessions} concurrent sessions)")
            }
            ServeError::UnknownSession { session } => {
                write!(f, "unknown session id {session}")
            }
            ServeError::SessionEvicted { session } => {
                write!(f, "session {session} was evicted after idling past its budget")
            }
            ServeError::InvalidConfig { field, reason } => {
                write!(f, "invalid serve configuration `{field}`: {reason}")
            }
            ServeError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ServeError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Pipeline(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        ServeError::Pipeline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = ServeError::QueueFull { session: 3, capacity: 8 };
        assert!(e.to_string().contains("session 3"));
        assert!(e.to_string().contains("8 frames"));
        let e = ServeError::SessionLimit { max_sessions: 4 };
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn pipeline_errors_convert_and_chain() {
        let p = PipelineError::EmptyInput { what: "frames" };
        let e = ServeError::from(p);
        assert!(matches!(e, ServeError::Pipeline(PipelineError::EmptyInput { .. })));
        assert!(e.source().is_some());
    }
}

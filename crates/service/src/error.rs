//! The service's typed failure surface.
//!
//! Every way the service declines, abandons, or rejects work is a variant
//! here — load shedding, deadline expiry, generation churn, failed
//! publication — so callers can tell "retry later" apart from "your snapshot
//! is bad" without parsing strings. Probe-level failures from the runtime
//! pass through wrapped, keeping their own typed detail.

use std::error::Error;
use std::fmt;

use avglocal_graph::GraphError;
use avglocal_runtime::RuntimeError;

/// Errors reported by [`crate::RadiusQueryService`].
///
/// `#[non_exhaustive]`: later versions may add variants (e.g. new admission
/// policies), so downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded admission queue is full; the request was shed without
    /// touching a generation. Retry after backing off.
    Overloaded {
        /// Requests in flight when this one arrived.
        in_flight: usize,
        /// The configured admission bound it hit.
        limit: usize,
    },
    /// The request's deadline budget expired mid-probe; the probe was
    /// cooperatively cancelled at a ball-growth step boundary.
    DeadlineExceeded {
        /// The tick budget the request was admitted with.
        budget: u64,
        /// The ball radius the probe had reached when it was cancelled.
        radius: usize,
    },
    /// A latest-generation request kept losing its pinned generation to
    /// concurrent swaps and exhausted its retry budget.
    StaleGeneration {
        /// Re-probes made after the first attempt; all `retries + 1`
        /// attempts were invalidated by a swap.
        retries: u32,
    },
    /// Candidate snapshot bytes failed to decode
    /// ([`crate::RadiusQueryService::publish_bytes`]) and were rolled back;
    /// the previously published generation is untouched.
    PublishRejected {
        /// The codec's typed rejection.
        source: GraphError,
    },
    /// A candidate generation's build panicked and was rolled back; the
    /// previously published generation is untouched.
    PublishPanicked {
        /// The panic payload, when it carried a message.
        reason: String,
    },
    /// The probe itself failed (non-terminating algorithm, out-of-bounds
    /// node, ...); the underlying runtime error, verbatim.
    Probe(RuntimeError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { in_flight, limit } => {
                write!(f, "overloaded: {in_flight} requests in flight at the limit of {limit}")
            }
            ServiceError::DeadlineExceeded { budget, radius } => {
                write!(f, "deadline of {budget} ticks expired at ball radius {radius}")
            }
            ServiceError::StaleGeneration { retries } => {
                write!(f, "every attempt lost its generation to a swap ({retries} retries)")
            }
            ServiceError::PublishRejected { source } => {
                write!(f, "candidate generation rejected: {source}")
            }
            ServiceError::PublishPanicked { reason } => {
                write!(f, "candidate generation build panicked: {reason}")
            }
            ServiceError::Probe(e) => write!(f, "probe failed: {e}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::PublishRejected { source } => Some(source),
            ServiceError::Probe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for ServiceError {
    fn from(e: RuntimeError) -> Self {
        ServiceError::Probe(e)
    }
}

/// Convenience alias for results whose error type is [`ServiceError`].
pub type Result<T> = std::result::Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::NodeId;

    #[test]
    fn display_messages_are_informative() {
        let e = ServiceError::Overloaded { in_flight: 64, limit: 64 };
        assert!(e.to_string().contains("64"));

        let e = ServiceError::DeadlineExceeded { budget: 120, radius: 4 };
        assert!(e.to_string().contains("120"));
        assert!(e.to_string().contains("radius 4"));

        let e = ServiceError::StaleGeneration { retries: 3 };
        assert!(e.to_string().contains('3'));

        let e = ServiceError::PublishRejected {
            source: GraphError::CorruptSnapshot { offset: 0, reason: "bad magic".into() },
        };
        assert!(e.to_string().contains("bad magic"));
        assert!(e.source().is_some());

        let e = ServiceError::PublishPanicked { reason: "boom".into() };
        assert!(e.to_string().contains("boom"));

        let e = ServiceError::Probe(RuntimeError::NonTerminating { node: NodeId::new(2) });
        assert!(e.to_string().contains("v2"));
        assert!(e.source().is_some());
    }

    #[test]
    fn runtime_errors_convert() {
        let re = RuntimeError::Cancelled { node: NodeId::new(1), radius: 2 };
        let se: ServiceError = re.clone().into();
        assert_eq!(se, ServiceError::Probe(re));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ServiceError>();
    }
}

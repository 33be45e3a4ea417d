//! Protocol-level error type.

use crate::handshake::SessionParams;
use abnn2_gc::GcError;
use abnn2_net::TransportError;
use abnn2_ot::OtError;

/// Errors raised by the ABNN² protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The peer disconnected.
    Channel,
    /// The peer went silent past the configured transport deadline.
    TimedOut,
    /// An oblivious-transfer subprotocol failed.
    Ot(OtError),
    /// A garbled-circuit subprotocol failed.
    Gc(GcError),
    /// The session handshake frame itself was unreadable (wrong magic,
    /// wrong length): the peer is not speaking this protocol at all.
    Handshake(&'static str),
    /// The handshake completed but the two parties want incompatible
    /// sessions; both views are carried so either side can log the delta.
    Negotiation {
        /// The parameters this party proposed.
        ours: SessionParams,
        /// The parameters the peer proposed.
        theirs: SessionParams,
    },
    /// A received message had an unexpected length or structure.
    Malformed(&'static str),
    /// Caller-supplied dimensions are inconsistent.
    Dimension(&'static str),
    /// The server refused admission: its accept queue is full or it is
    /// draining for shutdown. Deliberately *not* retryable under the
    /// resilient drivers' immediate reconnect loop — hammering an
    /// overloaded server makes the overload worse; callers that want to
    /// retry should wait at least the server's hint first.
    Overloaded {
        /// Server-suggested wait before the next admission attempt,
        /// derived from its live-session occupancy and precompute-pool
        /// depth. `0` means the server offered no hint (e.g. an older
        /// peer); callers fall back to their own backoff.
        retry_after_ms: u32,
    },
}

impl ProtocolError {
    /// Whether reconnecting and retrying could plausibly clear the error:
    /// transient link conditions (`Channel`, `TimedOut`, and their nested
    /// OT/GC counterparts) are retryable; protocol violations, negotiation
    /// failures, and caller bugs are fatal.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            ProtocolError::Channel | ProtocolError::TimedOut => true,
            ProtocolError::Ot(e) => e.is_retryable(),
            ProtocolError::Gc(e) => e.is_retryable(),
            ProtocolError::Handshake(_)
            | ProtocolError::Negotiation { .. }
            | ProtocolError::Malformed(_)
            | ProtocolError::Dimension(_)
            | ProtocolError::Overloaded { .. } => false,
        }
    }
}

impl abnn2_net::Retryable for ProtocolError {
    fn is_retryable(&self) -> bool {
        ProtocolError::is_retryable(self)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Channel => write!(f, "peer disconnected during protocol"),
            ProtocolError::TimedOut => write!(f, "peer silent past deadline during protocol"),
            ProtocolError::Ot(e) => write!(f, "oblivious transfer failed: {e}"),
            ProtocolError::Gc(e) => write!(f, "garbled circuit failed: {e}"),
            ProtocolError::Handshake(what) => write!(f, "handshake failed: {what}"),
            ProtocolError::Negotiation { ours, theirs } => write!(
                f,
                "session negotiation failed: we proposed {ours:?}, peer proposed {theirs:?}"
            ),
            ProtocolError::Malformed(what) => write!(f, "malformed protocol message: {what}"),
            ProtocolError::Dimension(what) => write!(f, "dimension mismatch: {what}"),
            ProtocolError::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "server refused admission (overloaded or draining; retry after {retry_after_ms} ms)"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Ot(e) => Some(e),
            ProtocolError::Gc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for ProtocolError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Closed => ProtocolError::Channel,
            // WouldBlock is an event-loop starvation signal; the session
            // driver intercepts it before it can escape, so mapping the
            // stray case to the retryable TimedOut is honest.
            TransportError::TimedOut | TransportError::WouldBlock => ProtocolError::TimedOut,
            TransportError::Malformed(what) => ProtocolError::Malformed(what),
        }
    }
}

impl From<OtError> for ProtocolError {
    fn from(e: OtError) -> Self {
        ProtocolError::Ot(e)
    }
}

impl From<GcError> for ProtocolError {
    fn from(e: GcError) -> Self {
        ProtocolError::Gc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        assert_eq!(ProtocolError::from(TransportError::Closed), ProtocolError::Channel);
        assert_eq!(
            ProtocolError::from(TransportError::Malformed("u64 message length")),
            ProtocolError::Malformed("u64 message length")
        );
        let e = ProtocolError::from(OtError::InvalidPoint);
        assert!(e.to_string().contains("oblivious transfer"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ProtocolError::from(GcError::Channel);
        assert!(matches!(e, ProtocolError::Gc(_)));
        assert!(ProtocolError::Dimension("batch").to_string().contains("batch"));
        assert_eq!(ProtocolError::from(TransportError::TimedOut), ProtocolError::TimedOut);
    }

    #[test]
    fn retryability_tracks_transience() {
        use crate::handshake::SessionParams;
        use crate::relu::ReluVariant;
        use abnn2_math::{FragmentScheme, Ring};
        use abnn2_nn::graph::LayerGraph;
        use abnn2_nn::quant::QuantConfig;

        assert!(ProtocolError::Channel.is_retryable());
        assert!(ProtocolError::TimedOut.is_retryable());
        assert!(ProtocolError::Ot(OtError::TimedOut).is_retryable());
        assert!(ProtocolError::Gc(GcError::Ot(OtError::Channel)).is_retryable());
        assert!(!ProtocolError::Ot(OtError::InvalidPoint).is_retryable());
        assert!(!ProtocolError::Malformed("x").is_retryable());
        assert!(!ProtocolError::Dimension("x").is_retryable());
        assert!(!ProtocolError::Handshake("bad magic").is_retryable());

        let graph = LayerGraph::mlp(
            &[4, 2],
            QuantConfig {
                ring: Ring::new(32),
                frac_bits: 8,
                weight_frac_bits: 4,
                scheme: FragmentScheme::binary(),
            },
        );
        let p = SessionParams::for_graph(&graph, ReluVariant::Oblivious, 1);
        let e = ProtocolError::Negotiation { ours: p, theirs: p };
        assert!(!e.is_retryable());
        assert!(e.to_string().contains("negotiation"));
    }
}

//! Client driver for the serving frontend.
//!
//! A client is built from the served model's [`PublicModel`] (its layer
//! graph, never the weights) via [`ServeClient::for_model`], for every
//! topology. [`ServeClient`] is a TCP front for [`ResilientClient`], the
//! one client session flow: reconnect-and-resume under a [`RetryPolicy`],
//! warm-bundle negotiation and busy-rejection backoff all live there. This
//! module adds what a caller talking to a [`Server`](crate::Server) needs
//! on top: TCP connection minting and per-phase instrumentation of every
//! attempt.
//! The returned [`ServeReport`] carries the merged phase stats across all
//! attempts, so callers (and the acceptance tests) can verify a warm
//! request moved *zero* offline-phase bytes.

use abnn2_core::{
    ProtocolError, PublicModel, ReluVariant, ResilientClient, RunReport, SecureClient,
    SessionDeadlines,
};
use abnn2_math::Matrix;
use abnn2_net::{InstrumentHandle, InstrumentedTransport, PhaseStats, RetryPolicy, TcpTransport};
use rand::Rng;
use std::net::SocketAddr;

/// Outcome of one served request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Connection attempts consumed (1 = no failure).
    pub attempts: u32,
    /// Whether any attempt resumed from a checkpoint.
    pub resumed: bool,
    /// Whether the final attempt ran warm (server-supplied bundle instead
    /// of an interactive offline phase).
    pub warm: bool,
    /// Per-phase traffic merged across all attempts, in first-seen order.
    pub phases: Vec<(String, PhaseStats)>,
}

impl ServeReport {
    /// Total traffic for the phase, zero if the phase never ran.
    ///
    /// Matches the exact phase name *and* any sub-phase labelled
    /// `"{name}:..."`, so `phase("offline")` still covers the per-op
    /// labels (`offline:op0/dense`, …) the graph executor emits.
    #[must_use]
    pub fn phase(&self, name: &str) -> PhaseStats {
        let prefix = format!("{name}:");
        let mut total = PhaseStats::default();
        for (n, s) in &self.phases {
            if n == name || n.starts_with(&prefix) {
                total.merge(s);
            }
        }
        total
    }
}

/// A reconnecting, bundle-aware client for the serving frontend: a
/// [`ResilientClient`] requesting warm bundles, over instrumented TCP.
#[derive(Debug, Clone)]
pub struct ServeClient {
    client: ResilientClient,
}

impl ServeClient {
    /// Client for any served topology (MLP, CNN or transformer) described
    /// by a [`PublicModel`], requesting warm bundles, with the default retry
    /// policy and LAN deadlines. Its default execution options match
    /// `ServeConfig`'s, so a default client and a default server
    /// negotiate successfully out of the box.
    #[must_use]
    pub fn for_model(model: impl Into<PublicModel>) -> Self {
        let client = ResilientClient::new(SecureClient::for_model(model)).with_bundles(true);
        ServeClient { client }
    }

    /// Selects the activation variant (must match the server's).
    #[must_use]
    pub fn with_variant(self, variant: ReluVariant) -> Self {
        ServeClient { client: self.client.map_client(|c| c.with_variant(variant)) }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_policy(self, policy: RetryPolicy) -> Self {
        ServeClient { client: self.client.with_policy(policy) }
    }

    /// Replaces the deadline budget.
    #[must_use]
    pub fn with_deadlines(self, deadlines: SessionDeadlines) -> Self {
        ServeClient { client: self.client.with_deadlines(deadlines) }
    }

    /// Whether to ask the server for a precomputed bundle (default true).
    /// With `false` every request pays the interactive offline phase.
    #[must_use]
    pub fn with_bundles(self, request: bool) -> Self {
        ServeClient { client: self.client.with_bundles(request) }
    }

    /// Whether to advertise silent-OT capability in the hello (default
    /// false). When the server grants it, the cold offline phase expands
    /// OT correlations locally from LPN instead of streaming IKNP columns;
    /// falls back to IKNP transparently against older servers.
    #[must_use]
    pub fn with_silent(self, silent: bool) -> Self {
        ServeClient { client: self.client.map_client(|c| c.with_silent(silent)) }
    }

    /// Runs one batch of predictions against the server at `addr`,
    /// reconnecting and resuming as needed
    /// ([`ResilientClient::run_raw`]). Returns the raw logits
    /// (`out_dim × batch`), bit-identical to
    /// `QuantizedNetwork::forward_exact`, plus a [`ServeReport`].
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::run_raw`]: [`ProtocolError::Overloaded`]
    /// once busy rejections have used up the retry budget (each honoring
    /// the server's `retry_after_ms` hint), otherwise the first fatal
    /// error or the last transient one.
    pub fn run<R: Rng + ?Sized>(
        &self,
        addr: SocketAddr,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<(Matrix, ServeReport), ProtocolError> {
        let mut handles: Vec<InstrumentHandle> = Vec::new();
        let connect = |_attempt| {
            let ch = InstrumentedTransport::new(TcpTransport::connect(addr)?);
            handles.push(ch.handle());
            Ok(ch)
        };
        let (logits, RunReport { attempts, resumed, warm }) =
            self.client.run_raw(connect, inputs_fp, rng)?;
        let phases = merge_handles(&handles);
        Ok((logits, ServeReport { attempts, resumed, warm, phases }))
    }
}

/// Folds per-attempt instrument handles into one phase list, first-seen
/// order preserved.
fn merge_handles(handles: &[InstrumentHandle]) -> Vec<(String, PhaseStats)> {
    let mut order: Vec<String> = Vec::new();
    let mut merged: std::collections::HashMap<String, PhaseStats> =
        std::collections::HashMap::new();
    for handle in handles {
        for (name, stats) in handle.phases() {
            merged
                .entry(name.clone())
                .or_insert_with(|| {
                    order.push(name.clone());
                    PhaseStats::default()
                })
                .merge(&stats);
        }
    }
    order
        .into_iter()
        .map(|name| {
            let stats = merged[&name];
            (name, stats)
        })
        .collect()
}

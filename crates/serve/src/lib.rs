//! `abnn2-serve`: a concurrent multi-client secure-inference service.
//!
//! The protocol crates answer "how do two parties run one prediction";
//! this crate answers "how does one model holder serve *many* clients at
//! once without paying the offline phase on the critical path". Four
//! pieces:
//!
//! * [`Server`] — a TCP frontend with a bounded accept queue and a fixed
//!   set of **event-loop workers**. Each worker multiplexes up to
//!   `sessions_per_worker` live sessions, each a suspendable
//!   [`SessionDriver`](abnn2_core::driver::SessionDriver) state machine
//!   (handshake → base-OT setup → offline-or-bundle → online) fed by a
//!   non-blocking [`FrameBuffer`](abnn2_net::FrameBuffer), so peak thread
//!   count scales with workers, not connected clients. When the queue is
//!   full or the server is draining, new connections are rejected *in
//!   protocol* (a busy hello frame) so clients see a typed
//!   [`ProtocolError::Overloaded`], never a hang. Resume checkpoints live
//!   in a [`ShardedCheckpointStore`] (one shard per worker, tokens hashed
//!   to shards) reachable from any worker.
//! * [`PrecomputePool`] — a background producer thread that keeps a
//!   bounded buffer of ready offline-triplet bundle pairs per
//!   [`BundleKey`] (model digest, scheme digest, batch). The server runs
//!   one pool shard per worker; a worker takes from its own shard first
//!   and steals from siblings on a miss. A client that
//!   asks for a bundle in its hello skips the interactive offline phase
//!   entirely: the server pops a pair, sends the client half in a
//!   dedicated `"bundle"` instrumentation phase, and proceeds straight to
//!   the online phase. See DESIGN.md §6 for the dealer trust model this
//!   implies — the pool is an opt-in trade of offline latency for trust.
//! * [`GovernorConfig`] — per-session resource budgets enforced by every
//!   worker sweep (idle-park eviction, outbound-queue byte cap,
//!   plan-keyed inbound quotas) plus the supervisor rules: each session
//!   step runs under `catch_unwind` so a panicking session is
//!   quarantined — torn down, its checkpoint discarded — while its worker
//!   and sibling sessions keep running, and a supervisor thread respawns
//!   dead or wedged workers. Overload rejections carry a
//!   `retry_after_ms` hint derived from queue depth and occupancy, which
//!   [`ServeClient`] honors with bounded backoff.
//! * [`MetricsRegistry`] — thread-safe serving metrics: admission
//!   counters, live session gauge, pool hit/miss counters, and per-phase
//!   traffic aggregated across every connection's
//!   [`InstrumentHandle`](abnn2_net::InstrumentHandle).
//! * [`ServeClient`] — the matching client: a TCP front for
//!   [`ResilientClient`](abnn2_core::ResilientClient) (reconnect-and-resume,
//!   warm-bundle negotiation, busy backoff) that instruments every attempt
//!   and returns a per-request [`ServeReport`] with per-phase byte counts.
//!
//! Logits are bit-identical to
//! [`QuantizedNetwork::forward_exact`](abnn2_nn::quant::QuantizedNetwork::forward_exact)
//! on every path — cold, warm, resumed, or downgraded.
//!
//! [`ProtocolError::Overloaded`]: abnn2_core::ProtocolError::Overloaded

pub mod client;
pub mod governor;
pub mod metrics;
pub mod pool;
pub mod server;

pub use abnn2_core::bundle::BundleKey;
pub use client::{ServeClient, ServeReport};
pub use governor::GovernorConfig;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use pool::{PoolSnapshot, PrecomputePool};
pub use server::{ServeConfig, Server, ShardedCheckpointStore};

//! Suspendable server-side session engine (§3g of DESIGN.md).
//!
//! [`SessionDriver`] re-expresses the server side of the protocol —
//! hello/handshake → base OT → IKNP/KK13 offline → blinded-input/online →
//! output — as a resumable state machine whose only I/O is a stream of
//! [`DriverEffect`]s: frames to send, flushes, and phase marks. Inbound
//! frames are [`fed`](SessionDriver::feed) in whole; when the driver needs
//! a frame that has not arrived it parks with [`DriverStep::NeedRecv`]
//! instead of blocking a thread, which lets one event-loop worker
//! multiplex many live sessions over readiness-based I/O.
//!
//! # How suspension works
//!
//! The protocol stack (base OT, IKNP, KK13, garbled circuits) is written
//! as straight-line blocking code against the [`Transport`] trait, and
//! rewriting it in continuation-passing style would fork every
//! cryptographic code path. The driver instead runs the server side as a
//! sequence of **steps** — the same cursors the blocking
//! [`SecureServer`] calls loop over:
//!
//! | stage | steps |
//! |---|---|
//! | handshake | 1: receive the hello, consult the host, reply |
//! | setup | 2: fragment-OT base setup, then Yao base setup (plus the pooled bundle send) |
//! | offline | per linear op and fragment: 1 extension + 1 masked-triplet receive/decode; 1 per `MatMulSS` op |
//! | online | 1 blinded-input step, then 1 per graph op (the output op sends the shares) |
//!
//! Three properties make a step replayable:
//!
//! 1. every step is a **deterministic** function of its stage's state,
//!    the RNG stream, and the prefix of inbound frames it consumes;
//! 2. a step mutates its cursor only after its last recv, working on
//!    copies of what it changes before (the fragment chooser, the Yao
//!    evaluator), so a failed step leaves the stage as it was;
//! 3. the protocol is strictly turn-based, so a step consumes a small,
//!    bounded number of frames.
//!
//! Each [`step`](SessionDriver::step) therefore runs the current step
//! against the buffered inbox. A recv past the end of the inbox raises
//! [`TransportError::WouldBlock`], marks the attempt starved, and parks
//! the driver; effects performed before the starvation point are
//! externalized once and suppressed by count on the next attempt. When
//! the step returns `Ok`, its consumed frames leave the inbox and the
//! cursor moves on. A parked session thus re-runs only the step it
//! parked in: replay work is bounded by one step per suspension
//! ([`SessionDriver::replayed_steps`]). The transcript this
//! produces is byte-identical to the blocking path —
//! `tests/graph_parity.rs` pins that equivalence against pre-refactor
//! goldens — and [`drive_blocking`] reimplements the blocking flow as a
//! thin adapter over the driver.

use crate::bundle::{ClientBundle, ServerBundle};
use crate::frames::Bundle;
use crate::handshake::{handshake_server_ext, ResumeToken, SessionParams};
use crate::inference::{SecureServer, ServerOffline};
use crate::session::{ServerSession, SetupCursor};
use crate::stepper::{OfflineCursor, OnlineCursor};
use crate::ProtocolError;
use abnn2_math::Matrix;
use abnn2_net::{CommSnapshot, Transport, TransportError};
use abnn2_ot::OfflineMode;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Duration;

/// Where a session's side data (parameters, resume checkpoints, warm
/// bundles) comes from, and where its checkpoint goes when it ends. The
/// serving layer implements this over its per-worker stores, the
/// resilient server over its checkpoint store; [`NullHost`] declines
/// everything for the plain blocking flow.
///
/// The driver consults the first three methods at most once per session,
/// during the handshake phase, and only for a parameter-matched peer — so
/// a claim or take may have side effects (removal from a store) without
/// risking double consumption on replay. The last two are called only by
/// [`SessionDriver::settle`].
pub trait SessionHost {
    /// Our session parameters for the batch size the client announced.
    fn params_for(&self, batch: usize) -> SessionParams;

    /// Claims (removes) the resume checkpoint for `token`, if held.
    fn claim_checkpoint(&self, token: &ResumeToken) -> Option<ServerBundle>;

    /// Takes a warm precomputed bundle pair matching the negotiated
    /// parameters *and offline mode*, if one is ready. Answering `Some`
    /// commits the session to sending the client half right after base-OT
    /// setup. Bundles pooled for silent sessions must never be handed to
    /// IKNP sessions (the pool keys on [`crate::bundle::BundleKey`], which
    /// includes the mode).
    fn take_bundle(
        &self,
        params: &SessionParams,
        mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)>;

    /// Keeps the checkpoint of a session that stopped retryably, so the
    /// client's reconnect can resume it. Hosts without a store drop it.
    fn park_checkpoint(&self, _token: ResumeToken, _bundle: ServerBundle) {}

    /// Forgets any checkpoint held for `token`: its session completed.
    fn release_checkpoint(&self, _token: &ResumeToken) {}
}

/// A host that never resumes and never deals bundles: the
/// [`SecureServer::run`] flow, where the server announces fixed
/// parameters regardless of the client's batch (a mismatch is a
/// negotiation failure, not something to adopt).
#[derive(Debug, Clone)]
pub struct NullHost {
    /// The parameters announced to every client.
    pub ours: SessionParams,
}

impl SessionHost for NullHost {
    fn params_for(&self, _batch: usize) -> SessionParams {
        self.ours
    }
    fn claim_checkpoint(&self, _token: &ResumeToken) -> Option<ServerBundle> {
        None
    }
    fn take_bundle(
        &self,
        _params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        None
    }
}

/// One externally visible I/O action of a driver step, in execution
/// order. `Send` and `Flush` must be performed against the peer
/// connection; `Recv` and `Mark` are bookkeeping mirrors (a frame was
/// consumed from the inbox / the session entered an instrumentation
/// phase) so an event loop can meter per-phase traffic and arm phase
/// budgets without looking inside the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverEffect {
    /// Send this frame (tag byte + payload) to the peer.
    Send(Vec<u8>),
    /// Push any write-coalescing buffer down to the wire.
    Flush,
    /// The driver consumed one inbound frame with this leading tag byte
    /// and this total length (tag byte included).
    Recv {
        /// The frame's leading tag byte (0 for an empty frame).
        tag: u8,
        /// The frame's total length in bytes.
        len: usize,
    },
    /// The session entered the named instrumentation phase.
    Mark(String),
}

/// Outcome of one [`SessionDriver::step`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverStep {
    /// Parked: the driver needs at least one more inbound frame
    /// ([`SessionDriver::feed`]) before it can advance.
    NeedRecv,
    /// The session ran to completion.
    Done,
    /// The session failed. Pending effects (e.g. the hello reply of a
    /// failed negotiation) must still be externalized.
    Failed(ProtocolError),
}

/// Deterministic replay channel: protocol code runs against the buffered
/// inbox; a recv past its end raises [`TransportError::WouldBlock`] and
/// flags starvation, and outbound traffic is captured as
/// [`DriverEffect`]s. Events performed by an earlier starved attempt of
/// the same step are suppressed by count on replay — sound because each
/// step is a deterministic function of its stage's state and the inbox
/// prefix it reads.
#[derive(Debug, Default)]
struct ReplayTransport {
    /// Buffered inbound frames; consumed only when a step completes.
    inbox: Vec<Vec<u8>>,
    /// Next inbox index the current attempt will read.
    cursor: usize,
    /// Events already externalized by earlier attempts of this step.
    committed: usize,
    /// Events performed so far by the current attempt.
    events: usize,
    /// Fresh effects from the current attempt, in order.
    effects: Vec<DriverEffect>,
    /// The current attempt read past the end of the inbox.
    starved: bool,
    sent: u64,
    received: u64,
    messages_sent: u64,
}

impl ReplayTransport {
    fn begin_attempt(&mut self) {
        debug_assert!(self.effects.is_empty(), "effects drained between attempts");
        self.cursor = 0;
        self.events = 0;
        self.starved = false;
    }

    /// Counts one event; returns whether it is fresh (not yet
    /// externalized by an earlier attempt) and records its effect if so.
    fn note_event(&mut self, effect: impl FnOnce() -> DriverEffect) -> bool {
        let fresh = self.events >= self.committed;
        self.events += 1;
        if fresh {
            self.effects.push(effect());
        }
        fresh
    }
}

impl Transport for ReplayTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let len = payload.len() as u64;
        if self.note_event(|| DriverEffect::Send(payload.to_vec())) {
            self.sent += len;
            self.messages_sent += 1;
        }
        Ok(())
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        let len = payload.len() as u64;
        if self.note_event(|| DriverEffect::Send(payload)) {
            self.sent += len;
            self.messages_sent += 1;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let Some(frame) = self.inbox.get(self.cursor) else {
            self.starved = true;
            return Err(TransportError::WouldBlock);
        };
        let frame = frame.clone();
        self.cursor += 1;
        let (tag, len) = (frame.first().copied().unwrap_or(0), frame.len());
        if self.note_event(|| DriverEffect::Recv { tag, len }) {
            self.received += len as u64;
        }
        Ok(frame)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.note_event(|| DriverEffect::Flush);
        Ok(())
    }

    fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            bytes_sent: self.sent,
            bytes_received: self.received,
            messages_sent: self.messages_sent,
            vtime: Duration::ZERO,
        }
    }

    fn mark_phase(&mut self, label: &str) {
        let label = label.to_string();
        self.note_event(|| DriverEffect::Mark(label));
    }
}

/// Where the session's offline state comes from, as the handshake
/// settled it with the host.
enum Source {
    /// Generate it: the IKNP/KK13 (or silent) offline phase.
    Cold,
    /// A claimed resume checkpoint.
    Resume(ServerBundle),
    /// A pooled bundle pair; the client half is sent after setup.
    Pooled(ServerBundle, ClientBundle),
}

/// A live stage of the protocol: the cursor whose next step the driver
/// runs. Between steps a stage *is* the session's snapshot — steps commit
/// only after their last recv — so a starved step is retried from it.
enum Stage {
    Handshake,
    Setup(Box<Setup>),
    Offline(Box<OfflineCursor>),
    Online(Box<OnlineCursor>),
}

/// The setup stage: base-OT setup, then routing by [`Source`].
struct Setup {
    batch: usize,
    source: Source,
    cursor: SetupCursor,
}

/// The machine's position in the protocol.
enum State {
    Live(Stage),
    Done,
    Failed(ProtocolError),
}

/// A failed step attempt: the stage to retry from — `None` when the
/// failure came after the step's last recv, which cannot be starvation —
/// and the error.
type Stall = (Option<Stage>, ProtocolError);

/// Resumable server-side protocol session. See the module docs for the
/// step mechanics; see [`drive_blocking`] for the synchronous adapter
/// and `abnn2-serve` for the event-loop host.
pub struct SessionDriver<H: SessionHost> {
    server: Arc<SecureServer>,
    host: H,
    rng: StdRng,
    replay: ReplayTransport,
    state: State,
    token: Option<ResumeToken>,
    batch: Option<usize>,
    checkpoint: Option<ServerBundle>,
    pending: Vec<DriverEffect>,
    /// Inbox length at the last starvation, to skip no-progress replays;
    /// set exactly while the current step's next attempt is a replay.
    parked_at: Option<usize>,
    completed_steps: u32,
    replayed_steps: u32,
}

impl<H: SessionHost> std::fmt::Debug for SessionDriver<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionDriver")
            .field("phase", &self.phase())
            .field("inbox", &self.replay.inbox.len())
            .field("pending_effects", &self.pending.len())
            .field("completed_steps", &self.completed_steps)
            .field("replayed_steps", &self.replayed_steps)
            .finish()
    }
}

impl<H: SessionHost> SessionDriver<H> {
    /// A driver at the start of the handshake. `rng` feeds base-OT setup
    /// and the matrix-triple shares of secret×secret matmul ops (the only
    /// server steps that consume randomness).
    #[must_use]
    pub fn new(server: Arc<SecureServer>, host: H, rng: StdRng) -> Self {
        SessionDriver {
            server,
            host,
            rng,
            replay: ReplayTransport::default(),
            state: State::Live(Stage::Handshake),
            token: None,
            batch: None,
            checkpoint: None,
            pending: Vec::new(),
            parked_at: None,
            completed_steps: 0,
            replayed_steps: 0,
        }
    }

    /// Buffers one complete inbound frame for the next [`step`](Self::step).
    pub fn feed(&mut self, frame: Vec<u8>) {
        self.replay.inbox.push(frame);
    }

    /// Drains the effects produced so far, in execution order. `Send` and
    /// `Flush` effects must be applied to the peer connection — including
    /// after [`DriverStep::Failed`], which may leave a negotiation reply
    /// pending.
    pub fn take_effects(&mut self) -> Vec<DriverEffect> {
        std::mem::take(&mut self.pending)
    }

    /// The resume token the client presented (known once the handshake
    /// phase has completed).
    #[must_use]
    pub fn token(&self) -> Option<ResumeToken> {
        self.token
    }

    /// The batch size the client negotiated (known once the handshake
    /// phase has completed). Serving governors key per-session resource
    /// quotas off the plan this batch selects.
    #[must_use]
    pub fn batch(&self) -> Option<usize> {
        self.batch
    }

    /// Settles a finished session's checkpoint with the host, by the one
    /// rule every host shares: on success the token's checkpoint is
    /// released for good; on a retryable failure the session's
    /// connection-independent offline state is parked for the client's
    /// reconnect; a fatal failure drops it. Returns `outcome`.
    ///
    /// # Errors
    ///
    /// `outcome`'s error, unchanged.
    pub fn settle(&mut self, outcome: Result<(), ProtocolError>) -> Result<(), ProtocolError> {
        if let Some(token) = self.token {
            match &outcome {
                Ok(()) => self.host.release_checkpoint(&token),
                Err(e) if e.is_retryable() => {
                    if let Some(bundle) = self.checkpoint.take() {
                        self.host.park_checkpoint(token, bundle);
                    }
                }
                Err(_) => {}
            }
        }
        outcome
    }

    /// The error a failed driver stopped with.
    #[must_use]
    pub fn error(&self) -> Option<ProtocolError> {
        match self.state {
            State::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// Protocol steps run to completion so far. A session's step count
    /// depends only on its graph and path (cold, resumed, pooled), never
    /// on how its frames arrived.
    #[must_use]
    pub fn completed_steps(&self) -> u32 {
        self.completed_steps
    }

    /// Step attempts that starved on a missing frame and ran again once
    /// it arrived: at most one per suspension, since a completed step is
    /// never re-run.
    #[must_use]
    pub fn replayed_steps(&self) -> u32 {
        self.replayed_steps
    }

    /// The top-level phase the machine is in: `"handshake"`, `"setup"`,
    /// `"offline"`, `"online"`, `"done"`, or `"failed"`. Event loops key
    /// phase deadline budgets off this.
    #[must_use]
    pub fn phase(&self) -> &'static str {
        match self.state {
            State::Live(Stage::Handshake) => "handshake",
            State::Live(Stage::Setup(_)) => "setup",
            State::Live(Stage::Offline(_)) => "offline",
            State::Live(Stage::Online(_)) => "online",
            State::Done => "done",
            State::Failed(_) => "failed",
        }
    }

    /// Advances the machine as far as the buffered inbox allows: steps
    /// complete and chain until one parks on a missing frame, fails, or
    /// the session finishes. Idempotent once `Done`/`Failed` is reached.
    pub fn step(&mut self) -> DriverStep {
        loop {
            let stage = match std::mem::replace(&mut self.state, State::Done) {
                State::Live(stage) => stage,
                State::Done => return DriverStep::Done,
                State::Failed(e) => {
                    self.state = State::Failed(e);
                    return DriverStep::Failed(e);
                }
            };
            // Replaying with no new frames since the last starvation
            // cannot make progress; skip the wasted work.
            if self.parked_at == Some(self.replay.inbox.len()) {
                self.state = State::Live(stage);
                return DriverStep::NeedRecv;
            }
            if self.parked_at.take().is_some() {
                self.replayed_steps += 1;
            }

            // Each attempt runs on a clone of the RNG so a starved
            // attempt leaves the stream untouched and the replay is
            // bit-reproducible.
            let mut rng = self.rng.clone();
            self.replay.begin_attempt();
            let outcome = self.advance(stage, &mut rng);
            let cursor = self.replay.cursor;
            let events = self.replay.events;
            self.pending.append(&mut self.replay.effects);
            match outcome {
                Ok(next) => {
                    self.replay.inbox.drain(..cursor);
                    self.replay.committed = 0;
                    self.rng = rng;
                    self.completed_steps += 1;
                    self.state = next;
                }
                Err((Some(stage), _)) if self.replay.starved => {
                    self.replay.committed = events;
                    self.parked_at = Some(self.replay.inbox.len());
                    self.state = State::Live(stage);
                    return DriverStep::NeedRecv;
                }
                Err((_, e)) => self.state = State::Failed(e),
            }
        }
    }

    /// Runs one step of `stage` over the replay channel, returning the
    /// next state. A step that fails hands its stage back untouched (see
    /// [`Stage`]); driver fields other than the replay channel change
    /// only after a step's last recv.
    fn advance(&mut self, stage: Stage, rng: &mut StdRng) -> Result<State, Stall> {
        match stage {
            Stage::Handshake => {
                let ch = &mut self.replay;
                ch.mark_phase("handshake");
                let host = &self.host;
                let (mut claimed, mut pooled) = (None, None);
                // The host closures run at most once: the handshake's
                // only suspension point is its initial recv, before they
                // are consulted, and everything after that recv is
                // non-blocking.
                let (batch, token, reply) = handshake_server_ext(
                    ch,
                    |b| host.params_for(b),
                    |t| {
                        claimed = host.claim_checkpoint(t);
                        claimed.is_some()
                    },
                    |p, mode| {
                        pooled = host.take_bundle(p, mode);
                        pooled.is_some()
                    },
                )
                .map_err(|e| (Some(Stage::Handshake), e))?;
                self.token = Some(token);
                self.batch = Some(batch);
                // The reply accepted a resume exactly when a checkpoint
                // was claimed, and a bundle exactly when a pair was
                // pooled (never both).
                let source = match (claimed, pooled) {
                    (Some(bundle), _) => Source::Resume(bundle),
                    (None, Some((sb, cb))) => Source::Pooled(sb, cb),
                    (None, None) => Source::Cold,
                };
                ch.mark_phase("setup");
                let cursor = SetupCursor::new(reply.mode());
                Ok(State::Live(Stage::Setup(Box::new(Setup { batch, source, cursor }))))
            }
            Stage::Setup(mut setup) => match setup.cursor.step(&mut self.replay, rng) {
                Ok(None) => Ok(State::Live(Stage::Setup(setup))),
                Ok(Some(session)) => {
                    let Setup { batch, source, .. } = *setup;
                    self.after_setup(session, batch, source).map_err(|e| (None, e))
                }
                Err(e) => Err((Some(Stage::Setup(setup)), e)),
            },
            Stage::Offline(mut cursor) => {
                if let Err(e) = cursor.step(&mut self.replay, &self.server.model, rng) {
                    return Err((Some(Stage::Offline(cursor)), e));
                }
                if cursor.is_done() {
                    self.finish_offline(*cursor).map_err(|e| (None, e))
                } else {
                    Ok(State::Live(Stage::Offline(cursor)))
                }
            }
            Stage::Online(mut cursor) => match cursor.step(&mut self.replay, &self.server.model) {
                Ok(None) => Ok(State::Live(Stage::Online(cursor))),
                Ok(Some(y0)) => self.finish_online(&y0).map_err(|e| (None, e)),
                Err(e) => Err((Some(Stage::Online(cursor)), e)),
            },
        }
    }

    /// Routes an established session by where its offline state comes
    /// from: generate it, resume it, or ship a pooled bundle.
    fn after_setup(
        &mut self,
        session: ServerSession,
        batch: usize,
        source: Source,
    ) -> Result<State, ProtocolError> {
        match source {
            Source::Resume(bundle) => {
                if bundle.batch != batch {
                    return Err(ProtocolError::Malformed("resumed checkpoint batch mismatch"));
                }
                self.checkpoint = Some(bundle.clone());
                self.enter_online(ServerOffline::from_bundle(session, bundle))
            }
            Source::Pooled(sb, cb) => {
                let ch = &mut self.replay;
                ch.mark_phase("bundle");
                ch.send_frame(&Bundle(cb.encode(self.server.model.config().ring)))?;
                ch.flush()?;
                let state = ServerOffline::from_bundle(session, sb);
                self.checkpoint = Some(state.to_bundle());
                self.enter_online(state)
            }
            Source::Cold => {
                self.replay.mark_phase("offline");
                let sg = self.server.secure_graph(batch)?;
                let cursor = OfflineCursor::new(session, sg, self.server.exec);
                if cursor.is_done() {
                    self.finish_offline(cursor)
                } else {
                    Ok(State::Live(Stage::Offline(Box::new(cursor))))
                }
            }
        }
    }

    fn finish_offline(&mut self, cursor: OfflineCursor) -> Result<State, ProtocolError> {
        let state = cursor.finish();
        self.checkpoint = Some(state.to_bundle());
        self.enter_online(state)
    }

    fn finish_online(&mut self, y0: &Matrix) -> Result<State, ProtocolError> {
        self.server.send_output(&mut self.replay, y0)?;
        self.replay.flush()?;
        Ok(State::Done)
    }

    fn enter_online(&mut self, state: ServerOffline) -> Result<State, ProtocolError> {
        self.replay.mark_phase("online");
        let sg = self.server.secure_graph(state.batch)?;
        let cursor = OnlineCursor::new(state, sg, self.server.exec)?;
        Ok(State::Live(Stage::Online(Box::new(cursor))))
    }
}

/// What a completed [`drive_frames`] run observed about the driver's
/// suspension behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriveStats {
    /// How many times the driver parked on a missing frame and was fed
    /// one from the transport.
    pub suspensions: u32,
    /// Step attempts that starved and ran again
    /// ([`SessionDriver::replayed_steps`]); never more than
    /// `suspensions`.
    pub replayed_steps: u32,
}

/// Runs a [`SessionDriver`] to completion over a blocking transport,
/// applying every externalized effect and feeding every parked recv. A
/// peer fault — negotiation mismatch, malformed frame, disconnect —
/// surfaces as a typed [`ProtocolError`] return; this loop never panics
/// on peer behavior. `observe` sees each effect before it is applied
/// (pass `|_| {}` when the caller does not care).
///
/// # Errors
///
/// Returns the driver's [`ProtocolError`] or any transport failure. The
/// driver's pending effects — including a negotiation reply produced
/// *after* the failure — are applied before the error is returned, so
/// the peer observes the symmetric error instead of hanging.
pub fn drive_frames<T: Transport, H: SessionHost>(
    ch: &mut T,
    driver: &mut SessionDriver<H>,
    mut observe: impl FnMut(&DriverEffect),
) -> Result<DriveStats, ProtocolError> {
    drive_with(ch, driver, |_, effect| {
        observe(effect);
        Ok(())
    })
}

/// [`drive_frames`] with a hook that also sees the transport, so a host
/// can act on a mark (arm a phase budget, inject a fault) before the
/// effects that follow it reach the wire.
pub(crate) fn drive_with<T: Transport, H: SessionHost>(
    ch: &mut T,
    driver: &mut SessionDriver<H>,
    mut hook: impl FnMut(&mut T, &DriverEffect) -> Result<(), ProtocolError>,
) -> Result<DriveStats, ProtocolError> {
    let mut stats = DriveStats::default();
    loop {
        let step = driver.step();
        for effect in driver.take_effects() {
            hook(ch, &effect)?;
            match effect {
                DriverEffect::Send(bytes) => ch.send_owned(bytes)?,
                DriverEffect::Flush => ch.flush()?,
                DriverEffect::Mark(label) => ch.mark_phase(&label),
                DriverEffect::Recv { .. } => {}
            }
        }
        stats.replayed_steps = driver.replayed_steps();
        match step {
            DriverStep::Done => return Ok(stats),
            DriverStep::Failed(e) => return Err(e),
            DriverStep::NeedRecv => {
                stats.suspensions += 1;
                driver.feed(ch.recv()?);
            }
        }
    }
}

/// Runs a [`SessionDriver`] to completion over a blocking transport: the
/// pre-event-loop server flow, now a thin adapter over [`drive_frames`].
/// Effects map one-to-one onto transport calls, so the wire transcript is
/// byte-identical to the historical straight-line implementation.
///
/// # Errors
///
/// Returns the driver's [`ProtocolError`] or any transport failure.
pub fn drive_blocking<T: Transport, H: SessionHost>(
    ch: &mut T,
    driver: &mut SessionDriver<H>,
) -> Result<(), ProtocolError> {
    drive_frames(ch, driver, |_| {}).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{handshake_client_ext, HelloRequest};
    use crate::inference::SecureClient;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_net::{wire, Endpoint, NetworkModel};
    use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
    use abnn2_nn::Network;
    use rand::SeedableRng;

    fn tiny_model() -> QuantizedNetwork {
        let net = Network::new(&[10, 6, 4], 77);
        QuantizedNetwork::quantize(
            &net,
            QuantConfig {
                ring: Ring::new(32),
                frac_bits: 8,
                weight_frac_bits: 2,
                scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
            },
        )
    }

    fn params_for(server: &SecureServer, batch: usize) -> SessionParams {
        let sg = server.secure_graph(batch).expect("graph");
        SessionParams::for_graph(sg.graph(), server.exec.variant, batch)
    }

    fn driver_for(server: &Arc<SecureServer>, seed: u64) -> SessionDriver<NullHost> {
        let ours = params_for(server, 1);
        SessionDriver::new(Arc::clone(server), NullHost { ours }, StdRng::seed_from_u64(seed))
    }

    /// A fresh driver with nothing fed parks immediately, emitting only
    /// the handshake phase mark, and re-stepping without new frames
    /// neither loops nor duplicates effects.
    #[test]
    fn empty_driver_parks_on_the_hello() {
        let server = Arc::new(SecureServer::for_model(tiny_model()));
        let mut driver = driver_for(&server, 1);
        assert_eq!(driver.step(), DriverStep::NeedRecv);
        assert_eq!(driver.take_effects(), vec![DriverEffect::Mark("handshake".into())]);
        assert_eq!(driver.phase(), "handshake");
        assert_eq!(driver.step(), DriverStep::NeedRecv);
        assert!(driver.take_effects().is_empty());
    }

    /// Frame-at-a-time event pump: every inbound frame is fed
    /// individually, so the driver suspends at each protocol recv and
    /// replays each phase many times — yet the session produces
    /// bit-exact logits and sends the hello reply exactly once.
    #[test]
    fn suspension_at_every_recv_is_bit_exact() {
        let q = tiny_model();
        let x: Vec<u64> = (0..10).map(|j| (j * 37 + 5) & 0xFFF).collect();
        let expected = q.forward_exact(&x);
        let server = Arc::new(SecureServer::for_model(q));
        let client = SecureClient::for_model(server.public_model());
        let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());

        let (suspensions, hello_replies, y) = std::thread::scope(|scope| {
            let x2 = x.clone();
            let cli = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(11);
                let state = client.offline(&mut cch, 1, &mut rng).expect("offline");
                client
                    .online_raw(&mut cch, state, std::slice::from_ref(&x2), &mut rng)
                    .expect("online")
            });
            let mut driver = driver_for(&server, 10);
            let mut hello_replies = 0u32;
            let stats = drive_frames(&mut sch, &mut driver, |effect| {
                if let DriverEffect::Send(bytes) = effect {
                    if bytes.first() == Some(&wire::tags::HELLO) {
                        hello_replies += 1;
                    }
                }
            })
            .expect("server");
            (stats.suspensions, hello_replies, cli.join().expect("client thread"))
        });

        assert_eq!(y.col(0), expected, "driver-served logits must equal forward_exact");
        assert_eq!(hello_replies, 1, "replay must suppress duplicate hello replies");
        // The session has real protocol depth: hello, base OTs, KK13
        // extensions, GC rounds, blinded input — each a separate park.
        assert!(suspensions >= 8, "expected many suspension points, got {suspensions}");
    }

    /// `drive_blocking` replaces the old straight-line server flow.
    #[test]
    fn drive_blocking_completes_a_session() {
        let q = tiny_model();
        let x: Vec<u64> = (0..10).map(|j| (j * 13 + 1) & 0xFFF).collect();
        let expected = q.forward_exact(&x);
        let server = Arc::new(SecureServer::for_model(q));
        let client = SecureClient::for_model(server.public_model());
        let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());
        let y = std::thread::scope(|scope| {
            let x2 = x.clone();
            let cli = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(21);
                let state = client.offline(&mut cch, 1, &mut rng).expect("offline");
                client
                    .online_raw(&mut cch, state, std::slice::from_ref(&x2), &mut rng)
                    .expect("online")
            });
            let mut driver = driver_for(&server, 20);
            drive_blocking(&mut sch, &mut driver).expect("server");
            cli.join().expect("client thread")
        });
        assert_eq!(y.col(0), expected);
    }

    /// A mismatched client fails negotiation on both sides: the drive
    /// loop returns the typed error — it never panics on a peer fault —
    /// and still externalizes the hello reply after `Failed` so the peer
    /// observes the symmetric error instead of hanging.
    #[test]
    fn negotiation_failure_externalizes_the_reply() {
        let server = Arc::new(SecureServer::for_model(tiny_model()));
        let other = SecureServer::for_model(QuantizedNetwork::quantize(
            &Network::new(&[10, 8, 4], 78),
            QuantConfig {
                ring: Ring::new(32),
                frac_bits: 8,
                weight_frac_bits: 2,
                scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
            },
        ));
        let theirs = params_for(&other, 1);
        let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());
        std::thread::scope(|scope| {
            let cli = scope.spawn(move || {
                handshake_client_ext(&mut cch, theirs, &[0u8; 16], HelloRequest::default())
            });
            let mut driver = driver_for(&server, 30);
            let mut sent_reply = false;
            let err = drive_frames(&mut sch, &mut driver, |effect| {
                if matches!(effect, DriverEffect::Send(_)) {
                    sent_reply = true;
                }
            })
            .expect_err("mismatched session must fail, not complete");
            assert!(matches!(err, ProtocolError::Negotiation { .. }), "server got {err}");
            assert!(sent_reply, "failed negotiation must still send the hello reply");
            assert_eq!(driver.phase(), "failed");
            let cli_err = cli.join().expect("client thread").expect_err("client must fail too");
            assert!(matches!(cli_err, ProtocolError::Negotiation { .. }), "client got {cli_err}");
        });
    }
}

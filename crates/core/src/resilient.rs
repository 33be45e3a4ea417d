//! Reconnect-and-resume drivers for secure inference.
//!
//! The offline phase is by far the expensive part of an ABNN² prediction
//! (per-layer dot-product triplets via 1-out-of-N OT); the per-connection
//! session setup (base OTs) and the online phase are cheap. The resilient
//! drivers exploit that asymmetry: when a connection dies mid-protocol,
//! they checkpoint the *triplet shares* — plain ring elements with no
//! connection-bound state — reconnect under a capped-backoff
//! [`RetryPolicy`], re-run the handshake presenting a session-resume
//! token, redo only the cheap base-OT setup, and replay the online phase.
//! Because the online outputs are a deterministic function of the triplets
//! and the input (GC label randomness never reaches the opened shares),
//! the resumed run produces logits bit-identical to an uninterrupted one.
//!
//! Each side has one session flow. [`ResilientServer`] runs every attempt
//! through the [`SessionDriver`] — the same engine as
//! [`SecureServer::run`] and the serving workers — over a
//! [`SessionHost`] backed by its [`CheckpointStore`].
//! [`ResilientClient::run_raw`] is the only client retry flow: it also
//! negotiates warm bundles, marks the session's phases and backs off on
//! busy rejections, and `abnn2-serve`'s `ServeClient` is a TCP front for
//! it.
//!
//! Failure handling is strictly typed: transient errors
//! ([`ProtocolError::is_retryable`]) trigger reconnection until the policy
//! is exhausted; fatal ones ([`ProtocolError::Negotiation`],
//! [`ProtocolError::Malformed`], …) abort immediately. A peer that answers
//! a resume request with "unknown token" (it lost its checkpoint) is not
//! an error — the client falls back to a fresh offline phase on the same
//! connection.

use crate::bundle::{ClientBundle, ServerBundle};
use crate::config::SessionDeadlines;
use crate::driver::{drive_with, DriverEffect, SessionDriver, SessionHost};
use crate::frames::Bundle;
use crate::handshake::{handshake_client_ext, HelloRequest, ResumeToken, SessionParams};
use crate::inference::{ClientOffline, SecureClient, SecureServer};
use crate::relu::ReluVariant;
use crate::session::ClientSession;
use crate::ProtocolError;
use abnn2_math::Matrix;
use abnn2_net::{ResilientDriver, RetryPolicy, Transport, TransportError};
use abnn2_nn::graph::LayerGraph;
use abnn2_ot::OfflineMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Outcome summary of a resilient run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Connection attempts consumed (1 = no failure).
    pub attempts: u32,
    /// Whether any attempt resumed from a checkpoint instead of running a
    /// fresh offline phase.
    pub resumed: bool,
    /// Whether the last attempt that established offline state ran warm:
    /// a server-supplied bundle instead of an interactive offline phase.
    pub warm: bool,
}

/// Default checkpoint capacity for a [`ResilientServer`]'s store.
pub const DEFAULT_CHECKPOINT_CAPACITY: usize = 256;

/// Bounded, thread-safe store of server-side offline checkpoints, keyed by
/// the client's resume token.
///
/// A long-running server accumulates checkpoints from every interrupted
/// session; without a bound that is an unbounded memory leak driven by
/// remote behavior. The store enforces a hard `capacity`: inserting beyond
/// it evicts the least-recently-used entry. An evicted token simply
/// downgrades the client's next resume attempt to a fresh offline run —
/// exactly the path a stale token already takes — so eviction is always
/// safe, never an error.
///
/// Resume claims are **single-use and atomic**: [`claim`](Self::claim)
/// removes the entry, so two concurrent connections presenting the same
/// token can never both resume from (and interleave over) the same
/// checkpointed triplets — the loser of the race runs a fresh offline
/// phase. The entry is re-inserted only when the session later fails
/// *retryably* (the client will be back); while a session is live its
/// checkpoint is out of the store, which is what closes the duplicate
/// window, and on success it is gone for good.
#[derive(Debug)]
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    /// token → (recency stamp, checkpointed bundle).
    entries: HashMap<ResumeToken, (u64, ServerBundle)>,
    /// Monotonic recency counter.
    clock: u64,
    capacity: usize,
}

impl CheckpointStore {
    /// Creates a store holding at most `capacity` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "checkpoint capacity must be positive");
        CheckpointStore {
            inner: Mutex::new(StoreInner { entries: HashMap::new(), clock: 0, capacity }),
        }
    }

    /// Inserts (or replaces) the checkpoint for `token`, evicting the
    /// least-recently-used entry if the store is at capacity.
    pub fn insert(&self, token: ResumeToken, bundle: ServerBundle) {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        inner.clock += 1;
        let stamp = inner.clock;
        inner.entries.insert(token, (stamp, bundle));
        while inner.entries.len() > inner.capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(t, _)| *t)
                .expect("non-empty over capacity");
            inner.entries.remove(&oldest);
        }
    }

    /// Atomically removes and returns the checkpoint for `token`, if the
    /// store still holds it. At most one of any number of concurrent
    /// claimants succeeds.
    #[must_use]
    pub fn claim(&self, token: &ResumeToken) -> Option<ServerBundle> {
        self.inner.lock().expect("checkpoint lock").entries.remove(token).map(|(_, b)| b)
    }

    /// Drops the checkpoint for `token`, if present (end-of-job cleanup).
    pub fn remove(&self, token: &ResumeToken) {
        self.inner.lock().expect("checkpoint lock").entries.remove(token);
    }

    /// Whether the store currently holds `token` (refreshes its recency).
    #[must_use]
    pub fn contains(&self, token: &ResumeToken) -> bool {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.entries.get_mut(token) {
            Some(entry) => {
                entry.0 = stamp;
                true
            }
            None => false,
        }
    }

    /// Number of checkpoints currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("checkpoint lock").entries.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Client-side resilient driver: wraps a [`SecureClient`] with
/// reconnection, deadlines, warm-bundle negotiation and offline-phase
/// checkpointing.
#[derive(Debug, Clone)]
pub struct ResilientClient {
    client: SecureClient,
    policy: RetryPolicy,
    deadlines: SessionDeadlines,
    request_bundle: bool,
}

impl ResilientClient {
    /// Wraps `client` with the default retry policy and LAN deadlines,
    /// requesting no bundles.
    #[must_use]
    pub fn new(client: SecureClient) -> Self {
        ResilientClient {
            client,
            policy: RetryPolicy::default(),
            deadlines: SessionDeadlines::lan(),
            request_bundle: false,
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the deadline budget.
    #[must_use]
    pub fn with_deadlines(mut self, deadlines: SessionDeadlines) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Whether to ask the server for a precomputed bundle (default
    /// false). A server that grants it skips the interactive offline
    /// phase; one that does not runs it as usual.
    #[must_use]
    pub fn with_bundles(mut self, request: bool) -> Self {
        self.request_bundle = request;
        self
    }

    /// Applies `f` to the wrapped [`SecureClient`] (its variant, threads
    /// or silent-OT capability).
    #[must_use]
    pub fn map_client(mut self, f: impl FnOnce(SecureClient) -> SecureClient) -> Self {
        self.client = f(self.client);
        self
    }

    /// Runs one batch of predictions over connections minted by `connect`,
    /// reconnecting and resuming as needed. Returns the raw logits (ring
    /// elements, `out_dim × batch`) plus a [`RunReport`].
    ///
    /// `connect(attempt)` is called once per attempt (0-based, counted
    /// across admission retries) and must return a fresh transport to the
    /// same server. Each attempt marks its phases on the transport
    /// (`handshake`, `setup`, then `bundle` or `offline` unless resumed,
    /// then `online`) and re-arms the phase budget at `setup` and
    /// `online`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Overloaded`] when the server refuses admission
    /// and the retry budget is exhausted. A busy rejection carries the
    /// server's `retry_after_ms` hint; this driver honors it — sleeping
    /// the hinted amount (or its own jittered backoff when the hint is
    /// zero) before re-dialing, each wait consuming one attempt from the
    /// retry policy — so turned-away clients back off instead of
    /// hot-looping against a full queue. Otherwise the first fatal error
    /// or the last transient one once the retry policy is exhausted.
    pub fn run_raw<T, C, R>(
        &self,
        mut connect: C,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<(Matrix, RunReport), ProtocolError>
    where
        T: Transport,
        C: FnMut(u32) -> Result<T, TransportError>,
        R: Rng + ?Sized,
    {
        let batch = inputs_fp.len();
        if batch == 0 {
            return Err(ProtocolError::Dimension("batch must be positive"));
        }
        let graph = self.client.secure_graph(batch)?;
        let ours = SessionParams::for_graph(graph.graph(), self.client.exec.variant, batch);
        let mut token: ResumeToken = [0; 16];
        rng.fill(&mut token);

        // Checkpoint of a completed offline phase (or a received bundle):
        // client randomness R and triplet shares V per layer. Survives
        // reconnects by construction.
        let mut checkpoint: Option<ClientBundle> = None;
        let mut report = RunReport::default();
        let mut shed_waits = 0u32;

        // Admission loop: a busy rejection is not retryable inside the
        // resilient driver (re-dialing instantly would hammer a full
        // queue), so it is retried out here, after honoring the server's
        // backoff hint.
        loop {
            let base = report.attempts;
            let outcome = ResilientDriver::new(self.policy).run(
                |attempt| connect(base + attempt),
                |ch, attempt| -> Result<Matrix, ProtocolError> {
                    report.attempts = base + attempt + 1;
                    ch.set_read_timeout(self.deadlines.read_timeout)?;

                    self.deadlines.enter_phase(ch, "handshake")?;
                    let request = HelloRequest {
                        resume: checkpoint.is_some(),
                        bundle: self.request_bundle && checkpoint.is_none(),
                        silent: self.client.silent,
                    };
                    let reply = handshake_client_ext(ch, ours, &token, request)?;

                    self.deadlines.enter_phase(ch, "setup")?;
                    let session = ClientSession::setup_with(ch, reply.mode(), rng)?;
                    let state = match checkpoint.clone().filter(|_| reply.resume) {
                        Some(bundle) => {
                            report.resumed = true;
                            ClientOffline::from_bundle(session, bundle)
                        }
                        None if reply.bundle => {
                            report.warm = true;
                            self.deadlines.enter_phase(ch, "bundle")?;
                            let Bundle(bytes) = ch.recv_frame()?;
                            let bundle = ClientBundle::decode(&bytes, &graph)?;
                            checkpoint = Some(bundle.clone());
                            ClientOffline::from_bundle(session, bundle)
                        }
                        None => {
                            // The server had neither our checkpoint nor a
                            // pooled bundle (fresh run, or it lost state):
                            // drop ours and pay for a full offline phase.
                            report.warm = false;
                            checkpoint = None;
                            self.deadlines.enter_phase(ch, "offline")?;
                            let state = self.client.offline_with(ch, session, batch, rng)?;
                            checkpoint = Some(state.to_bundle());
                            state
                        }
                    };

                    self.deadlines.enter_phase(ch, "online")?;
                    self.client.online_raw(ch, state, inputs_fp, rng)
                },
            );
            match outcome {
                Err(ProtocolError::Overloaded { retry_after_ms })
                    if shed_waits + 1 < self.policy.max_attempts.max(1) =>
                {
                    let wait = if retry_after_ms > 0 {
                        Duration::from_millis(u64::from(retry_after_ms))
                    } else {
                        self.policy.backoff(shed_waits)
                    };
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    shed_waits += 1;
                }
                other => return other.map(|y| (y, report)),
            }
        }
    }
}

/// The [`ResilientServer`]'s [`SessionHost`]: adopts the client's
/// announced batch (a prediction service has no a-priori batch
/// expectation), claims and parks resume checkpoints in the store, and
/// never deals bundles.
struct CheckpointHost<'a> {
    graph: &'a LayerGraph,
    variant: ReluVariant,
    store: &'a CheckpointStore,
    /// Set once an attempt's resume request is accepted.
    resumed: &'a Cell<bool>,
}

impl SessionHost for CheckpointHost<'_> {
    fn params_for(&self, batch: usize) -> SessionParams {
        SessionParams::for_graph(self.graph, self.variant, batch)
    }

    fn claim_checkpoint(&self, token: &ResumeToken) -> Option<ServerBundle> {
        let claimed = self.store.claim(token);
        if claimed.is_some() {
            self.resumed.set(true);
        }
        claimed
    }

    fn take_bundle(
        &self,
        _params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        None
    }

    fn park_checkpoint(&self, token: ResumeToken, bundle: ServerBundle) {
        self.store.insert(token, bundle);
    }

    fn release_checkpoint(&self, token: &ResumeToken) {
        self.store.remove(token);
    }
}

/// Server-side resilient driver: accepts reconnections for one logical
/// prediction job, checkpointing its triplet shares between attempts in a
/// bounded, shareable [`CheckpointStore`].
#[derive(Debug)]
pub struct ResilientServer {
    server: Arc<SecureServer>,
    policy: RetryPolicy,
    deadlines: SessionDeadlines,
    store: Arc<CheckpointStore>,
}

impl ResilientServer {
    /// Wraps `server` with the default retry policy, LAN deadlines, and a
    /// private checkpoint store of [`DEFAULT_CHECKPOINT_CAPACITY`] entries.
    #[must_use]
    pub fn new(server: SecureServer) -> Self {
        ResilientServer {
            server: Arc::new(server),
            policy: RetryPolicy::default(),
            deadlines: SessionDeadlines::lan(),
            store: Arc::new(CheckpointStore::new(DEFAULT_CHECKPOINT_CAPACITY)),
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the deadline budget.
    #[must_use]
    pub fn with_deadlines(mut self, deadlines: SessionDeadlines) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Replaces the checkpoint store. Multiple `ResilientServer`s (e.g. the
    /// workers of a serving frontend) can share one store so a client may
    /// reconnect to any worker and still find its checkpoint.
    #[must_use]
    pub fn with_checkpoint_store(mut self, store: Arc<CheckpointStore>) -> Self {
        self.store = store;
        self
    }

    /// The checkpoint store backing this driver.
    #[must_use]
    pub fn checkpoint_store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// Serves one prediction job to completion across reconnections minted
    /// by `accept`.
    ///
    /// # Errors
    ///
    /// The first fatal [`ProtocolError`], or the last transient one once
    /// the retry policy is exhausted.
    pub fn serve_one<T, C, R>(&self, accept: C, rng: &mut R) -> Result<RunReport, ProtocolError>
    where
        T: Transport,
        C: FnMut(u32) -> Result<T, TransportError>,
        R: Rng + ?Sized,
    {
        self.serve_one_with(accept, |_ch: &mut T, _attempt| {}, rng)
    }

    /// [`serve_one`](Self::serve_one) with a hook invoked after the offline
    /// phase of each attempt, before the online phase begins (on the
    /// driver's `online` mark). Chaos and resume tests use the hook to arm
    /// transport faults at a protocol point that cannot be addressed by a
    /// hardcoded message index.
    ///
    /// # Errors
    ///
    /// The first fatal [`ProtocolError`], or the last transient one once
    /// the retry policy is exhausted.
    pub fn serve_one_with<T, C, H, R>(
        &self,
        accept: C,
        mut after_offline: H,
        rng: &mut R,
    ) -> Result<RunReport, ProtocolError>
    where
        T: Transport,
        C: FnMut(u32) -> Result<T, TransportError>,
        H: FnMut(&mut T, u32),
        R: Rng + ?Sized,
    {
        // Checkpoints live in the shared bounded store, keyed by the
        // client's resume token, so any driver holding the same store can
        // pick the job up; the driver settles them (`SessionDriver::settle`).
        let graph = self.server.model.graph();
        let resumed = Cell::new(false);
        let mut attempts = 0u32;
        ResilientDriver::new(self.policy).run(
            accept,
            |ch, attempt| -> Result<(), ProtocolError> {
                attempts = attempt + 1;
                ch.set_read_timeout(self.deadlines.read_timeout)?;
                let host = CheckpointHost {
                    graph: &graph,
                    variant: self.server.exec.variant,
                    store: &self.store,
                    resumed: &resumed,
                };
                let driver_rng = StdRng::seed_from_u64(rng.next_u64());
                let mut driver = SessionDriver::new(Arc::clone(&self.server), host, driver_rng);
                let outcome = drive_with(ch, &mut driver, |ch, effect| {
                    if let DriverEffect::Mark(label) = effect {
                        if label == "online" {
                            after_offline(ch, attempt);
                        }
                        if let Some(budget) = self.deadlines.budget_at(label) {
                            ch.set_phase_budget(budget)?;
                        }
                    }
                    Ok(())
                });
                driver.settle(outcome.map(|_| ()))
            },
        )?;
        Ok(RunReport { attempts, resumed: resumed.get(), warm: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_net::{sim_link, Fault, FaultyTransport, NetworkModel};
    use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
    use abnn2_nn::{Network, SyntheticMnist};
    use rand::SeedableRng;
    use std::time::Duration;

    fn tiny_model(seed: u64) -> QuantizedNetwork {
        let data = SyntheticMnist::generate(40, 0, seed);
        let mut net = Network::new(&[784, 6, 4, 10], seed);
        net.train_epoch(&data.train, 0.05);
        let config = QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 4,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
        };
        QuantizedNetwork::quantize(&net, config)
    }

    fn sample_inputs(q: &QuantizedNetwork, batch: usize, seed: u64) -> Vec<Vec<u64>> {
        let data = SyntheticMnist::generate(batch, 0, seed);
        let codec = q.config.activation_codec();
        data.train.iter().take(batch).map(|s| codec.encode_vec(&s.pixels)).collect()
    }

    fn fast_deadlines() -> SessionDeadlines {
        SessionDeadlines::uniform(Duration::from_secs(2))
    }

    #[test]
    fn no_failure_single_attempt() {
        let q = tiny_model(90);
        let inputs = sample_inputs(&q, 1, 91);
        let expected = q.forward_exact(&inputs[0]);

        let (dialer, listener) = sim_link(NetworkModel::instant());
        let server = ResilientServer::new(SecureServer::for_model(q))
            .with_policy(RetryPolicy::no_delay(2))
            .with_deadlines(fast_deadlines());
        let client = ResilientClient::new(SecureClient::for_model(server.server.public_model()))
            .with_policy(RetryPolicy::no_delay(2))
            .with_deadlines(fast_deadlines());

        std::thread::scope(|scope| {
            let srv = scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(92);
                server.serve_one(|_| listener.accept_timeout(Duration::from_secs(5)), &mut rng)
            });
            let mut rng = rand::rngs::StdRng::seed_from_u64(93);
            let (y, report) = client.run_raw(|_| dialer.dial(), &inputs, &mut rng).unwrap();
            assert_eq!(y.col(0), expected);
            assert_eq!(report, RunReport { attempts: 1, resumed: false, warm: false });
            let srv_report = srv.join().unwrap().unwrap();
            assert_eq!(srv_report, RunReport { attempts: 1, resumed: false, warm: false });
        });
    }

    #[test]
    fn mid_online_cut_resumes_with_identical_logits() {
        let q = tiny_model(94);
        let inputs = sample_inputs(&q, 2, 95);
        let expected: Vec<Vec<u64>> = inputs.iter().map(|x| q.forward_exact(x)).collect();

        let (dialer, listener) = sim_link(NetworkModel::instant());
        let server = ResilientServer::new(SecureServer::for_model(q))
            .with_policy(RetryPolicy::no_delay(3))
            .with_deadlines(fast_deadlines());
        let client = ResilientClient::new(SecureClient::for_model(server.server.public_model()))
            .with_policy(RetryPolicy::no_delay(3))
            .with_deadlines(fast_deadlines());

        std::thread::scope(|scope| {
            let srv = scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(96);
                server.serve_one_with(
                    |_| {
                        listener
                            .accept_timeout(Duration::from_secs(5))
                            .map(|ep| FaultyTransport::new(ep, Fault::None))
                    },
                    |ch, attempt| {
                        if attempt == 0 {
                            // Cut the connection two messages into the
                            // online phase of the first attempt only.
                            ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                        }
                    },
                    &mut rng,
                )
            });
            let mut rng = rand::rngs::StdRng::seed_from_u64(97);
            let (y, report) = client.run_raw(|_| dialer.dial(), &inputs, &mut rng).unwrap();
            for (k, exp) in expected.iter().enumerate() {
                assert_eq!(&y.col(k), exp, "sample {k} must match forward_exact after resume");
            }
            assert!(report.attempts >= 2, "client must have reconnected");
            assert!(report.resumed, "client must have resumed from checkpoint");
            let srv_report = srv.join().unwrap().unwrap();
            assert!(srv_report.resumed, "server must have accepted the resume token");
        });
    }

    fn dummy_bundle(tag: u64) -> ServerBundle {
        ServerBundle { us: vec![Matrix::new(1, 1, vec![tag])], mats: Vec::new(), batch: 1 }
    }

    #[test]
    fn checkpoint_store_evicts_least_recently_used() {
        let store = CheckpointStore::new(2);
        let (t1, t2, t3) = ([1u8; 16], [2u8; 16], [3u8; 16]);
        store.insert(t1, dummy_bundle(1));
        store.insert(t2, dummy_bundle(2));
        assert!(store.contains(&t1)); // refresh t1 → t2 is now oldest
        store.insert(t3, dummy_bundle(3));
        assert_eq!(store.len(), 2);
        assert!(store.contains(&t1));
        assert!(!store.contains(&t2), "t2 was least recently used");
        assert!(store.contains(&t3));
    }

    #[test]
    fn checkpoint_store_claim_is_single_use() {
        let store = CheckpointStore::new(4);
        let t = [7u8; 16];
        store.insert(t, dummy_bundle(7));
        assert_eq!(store.claim(&t), Some(dummy_bundle(7)));
        assert_eq!(store.claim(&t), None, "second claim must miss");
        assert!(store.is_empty());
    }

    #[test]
    fn checkpoint_store_concurrent_claims_yield_one_winner() {
        let store = Arc::new(CheckpointStore::new(4));
        let t = [9u8; 16];
        store.insert(t, dummy_bundle(9));
        let winners: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || usize::from(store.claim(&t).is_some()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1, "exactly one concurrent claim may succeed");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn checkpoint_store_rejects_zero_capacity() {
        let _ = CheckpointStore::new(0);
    }

    #[test]
    fn resume_after_eviction_downgrades_to_fresh_run() {
        let q = tiny_model(102);
        let inputs = sample_inputs(&q, 1, 103);
        let expected = q.forward_exact(&inputs[0]);

        let (dialer, listener) = sim_link(NetworkModel::instant());
        // Capacity-1 store: a rogue insert between the cut and the
        // reconnect evicts the job's own checkpoint.
        let store = Arc::new(CheckpointStore::new(1));
        let server = ResilientServer::new(SecureServer::for_model(q))
            .with_policy(RetryPolicy::no_delay(3))
            .with_deadlines(fast_deadlines())
            .with_checkpoint_store(Arc::clone(&store));
        // A real backoff (≥150ms after jitter) gives the watcher thread
        // below time to evict before the reconnect presents the token.
        let client_policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(300),
            max_delay: Duration::from_millis(300),
            jitter_seed: 1,
        };
        let client = ResilientClient::new(SecureClient::for_model(server.server.public_model()))
            .with_policy(client_policy)
            .with_deadlines(fast_deadlines());

        std::thread::scope(|scope| {
            let srv = scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(104);
                server.serve_one_with(
                    |_| {
                        listener
                            .accept_timeout(Duration::from_secs(5))
                            .map(|ep| FaultyTransport::new(ep, Fault::None))
                    },
                    |ch, attempt| {
                        if attempt == 0 {
                            // Die two messages into the online phase; the
                            // server then checkpoints the job under the
                            // client's token.
                            ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                        }
                    },
                    &mut rng,
                )
            });
            // Watcher: the moment the failure checkpoint appears, shove a
            // rogue entry into the capacity-1 store to evict it.
            let evict_store = Arc::clone(&store);
            let watcher = scope.spawn(move || {
                for _ in 0..5000 {
                    if evict_store.len() == 1 {
                        evict_store.insert([0xEE; 16], dummy_bundle(0));
                        return true;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                false
            });
            let mut rng = rand::rngs::StdRng::seed_from_u64(105);
            let (y, report) = client.run_raw(|_| dialer.dial(), &inputs, &mut rng).unwrap();
            assert_eq!(y.col(0), expected, "downgraded fresh run must stay bit-exact");
            assert!(report.attempts >= 2, "client must have reconnected");
            assert!(watcher.join().unwrap(), "watcher must have seen the checkpoint");
            let srv_report = srv.join().unwrap().unwrap();
            assert!(
                !srv_report.resumed,
                "evicted token must downgrade to a fresh offline run, not resume"
            );
        });
    }

    #[test]
    fn retry_budget_exhaustion_reports_last_error() {
        let q = tiny_model(98);
        let inputs = sample_inputs(&q, 1, 99);
        let client = ResilientClient::new(SecureClient::for_model(LayerGraph::from(&q)))
            .with_policy(RetryPolicy::no_delay(2))
            .with_deadlines(fast_deadlines());

        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let err = client
            .run_raw(|_| Err::<abnn2_net::Endpoint, _>(TransportError::Closed), &inputs, &mut rng)
            .unwrap_err();
        assert_eq!(err, ProtocolError::Channel);
    }
}

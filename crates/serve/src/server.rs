//! The TCP serving frontend: bounded accept queue, event-loop workers
//! multiplexing suspendable sessions, admission control, and graceful
//! drain.
//!
//! Life of a connection:
//!
//! 1. The acceptor thread takes it off the (blocking) listener. If the
//!    server is draining or the accept queue is full, it answers with a
//!    busy hello frame ([`abnn2_core::handshake::reject_busy_with`]) and closes
//!    — the client surfaces [`ProtocolError::Overloaded`]. Otherwise the
//!    raw stream is queued.
//! 2. An **event-loop worker** claims it, wraps the socket in a
//!    non-blocking [`FrameBuffer`], and hosts one
//!    [`SessionDriver`] — the server-side protocol as a resumable state
//!    machine. Each worker sweeps up to `sessions_per_worker` live
//!    drivers: complete inbound frames are fed in, the driver advances as
//!    far as it can, and its effects (sends, phase marks) are applied to
//!    the socket and the metrics meter. A driver waiting on the peer
//!    costs no thread — it is simply parked until its socket turns
//!    readable — so peak thread count scales with *workers*, not clients.
//! 3. The [`PrecomputePool`] and the resume [`CheckpointStore`] are
//!    sharded per worker: each worker prefers its own pool shard (and
//!    steals from siblings rather than strand warm bundles), and
//!    checkpoints hash onto a shard by token, so any worker can resume a
//!    session that died on another.
//! 4. [`Server::begin_drain`] flips admission off while in-flight
//!    sessions run to completion; the acceptor is woken by a throwaway
//!    self-connection when the drain completes — no sleep-polling —
//!    and [`Server::shutdown`] additionally joins every thread.
//! 5. A **governor** ([`GovernorConfig`]) budgets every sweep: idle-parked
//!    sessions, non-draining peers, and inbound-quota violators are
//!    checkpointed (when resumable) and evicted, so one bad peer cannot
//!    pin a slot its warm siblings need. Each session sweep runs under
//!    `catch_unwind`: a panicking session is quarantined — torn down, its
//!    possibly-poisoned checkpoint discarded — while the worker and its
//!    sibling sessions keep running. A **supervisor** thread watches
//!    per-worker heartbeats and respawns dead or wedged workers; the
//!    respawned worker reuses its index, so its pool shard and checkpoint
//!    shard re-home automatically. Busy rejections carry a
//!    `retry_after_ms` hint derived from queue depth and occupancy.
//!
//! Byte accounting is preserved exactly: every driver effect is mirrored
//! through a per-session [`InstrumentedTransport`] meter, so per-phase
//! and per-tag counters equal the pre-event-loop blocking server's.
//!
//! [`CheckpointStore`]: abnn2_core::CheckpointStore

use crate::governor::{GovernorConfig, PRE_HANDSHAKE_BYTES, PRE_HANDSHAKE_FRAMES};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::pool::{PoolSnapshot, PrecomputePool};
use abnn2_core::bundle::{BundleKey, ClientBundle, ServerBundle};
use abnn2_core::driver::{DriverEffect, DriverStep, SessionDriver, SessionHost};
use abnn2_core::handshake::{reject_busy_with, ResumeToken, SessionParams};
use abnn2_core::resilient::DEFAULT_CHECKPOINT_CAPACITY;
use abnn2_core::OfflineMode;
use abnn2_core::{
    CheckpointStore, CommCeiling, ExecConfig, ProtocolError, SecureServer, ServedModel,
    SessionDeadlines,
};
use abnn2_net::{
    CommSnapshot, FrameBuffer, InstrumentedTransport, TcpTransport, Transport, TransportError,
};
use abnn2_nn::graph::LayerGraph;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Event-loop worker threads running protocol sessions.
    pub workers: usize,
    /// Accepted-but-unclaimed connections allowed to wait; beyond this the
    /// acceptor busy-rejects.
    pub queue_capacity: usize,
    /// Live sessions each worker multiplexes concurrently. Total session
    /// capacity is `workers * sessions_per_worker`; the default of 1
    /// reproduces the classic one-session-per-worker admission behaviour.
    pub sessions_per_worker: usize,
    /// Ready bundle pairs to keep per batch size *per worker shard*; zero
    /// disables the precompute pool (every session pays the interactive
    /// offline phase).
    pub pool_depth: usize,
    /// Batch sizes the pool precomputes for.
    pub pool_batches: Vec<usize>,
    /// Offline modes the pool keys bundles under. Dealer bundles are
    /// mode-independent *content*, but a session may only consume a
    /// bundle pooled under its own negotiated mode, so a deployment
    /// expecting silent-capable clients lists [`OfflineMode::Silent`]
    /// here too.
    pub pool_modes: Vec<OfflineMode>,
    /// Per-session transport deadlines.
    pub deadlines: SessionDeadlines,
    /// Total capacity of the resume-checkpoint store, split across one
    /// shard per worker (each shard holds at least one entry).
    pub checkpoint_capacity: usize,
    /// Execution options (activation variant must match the clients').
    pub exec: ExecConfig,
    /// Per-session resource budgets and supervisor rules.
    pub governor: GovernorConfig,
    /// Seed for the per-worker and pool RNGs.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 8,
            sessions_per_worker: 1,
            pool_depth: 2,
            pool_batches: vec![1],
            pool_modes: vec![OfflineMode::Iknp],
            deadlines: SessionDeadlines::lan(),
            checkpoint_capacity: DEFAULT_CHECKPOINT_CAPACITY,
            exec: ExecConfig::new(),
            governor: GovernorConfig::default(),
            seed: 0xAB22_5E21,
        }
    }
}

/// Resume checkpoints sharded by token hash: one
/// [`CheckpointStore`] per worker, so checkpoint traffic from different
/// sessions contends on different locks. A token always hashes to the
/// same shard, which means any worker can claim a checkpoint no matter
/// which worker inserted it, and per-shard LRU eviction is deterministic
/// per token.
#[derive(Debug)]
pub struct ShardedCheckpointStore {
    shards: Vec<CheckpointStore>,
}

impl ShardedCheckpointStore {
    /// `capacity` is the total budget; each of the `shards` stores gets an
    /// equal slice (at least one entry each).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedCheckpointStore {
            shards: (0..shards).map(|_| CheckpointStore::new(per_shard)).collect(),
        }
    }

    fn shard(&self, token: &ResumeToken) -> &CheckpointStore {
        let lo = u64::from_le_bytes(token[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(token[8..].try_into().expect("8 bytes"));
        // Multiply-fold the halves so shard choice uses every token byte.
        let mixed = (lo ^ hi).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    /// Inserts (or refreshes) the checkpoint for `token` in its shard.
    pub fn insert(&self, token: ResumeToken, bundle: ServerBundle) {
        self.shard(&token).insert(token, bundle);
    }

    /// Removes and returns the checkpoint for `token`, if present.
    pub fn claim(&self, token: &ResumeToken) -> Option<ServerBundle> {
        self.shard(token).claim(token)
    }

    /// Drops the checkpoint for `token`, if present.
    pub fn remove(&self, token: &ResumeToken) {
        self.shard(token).remove(token);
    }

    /// Whether a checkpoint for `token` is currently held.
    #[must_use]
    pub fn contains(&self, token: &ResumeToken) -> bool {
        self.shard(token).contains(token)
    }

    /// Total checkpoints held across every shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(CheckpointStore::len).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(CheckpointStore::is_empty)
    }
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    draining: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    work: Condvar,
    server: Arc<SecureServer>,
    /// The served model's graph: every hello and bundle key derives from it.
    graph: LayerGraph,
    config: ServeConfig,
    store: ShardedCheckpointStore,
    /// One pool shard per worker (empty when `pool_depth` is zero).
    pools: Vec<PrecomputePool>,
    metrics: MetricsRegistry,
    /// The bound listen address, used for the drain-complete wake dial.
    addr: SocketAddr,
    /// Per-worker heartbeat: millis since `started`, bumped every loop
    /// iteration, read by the supervisor to detect wedged workers.
    hearts: Vec<AtomicU64>,
    /// Epoch for the heartbeat clock.
    started: Instant,
    /// Admission ordinal assigned to each live session, keyed by the
    /// governor's chaos knobs.
    session_seq: AtomicU64,
    /// Latch so a chaos injection (session or worker panic) fires once.
    chaos_fired: AtomicBool,
}

fn now_millis(shared: &Shared) -> u64 {
    u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// A running multi-client inference service. Dropping the handle drains
/// and joins all threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    /// Worker handle table shared with the supervisor, which swaps in
    /// fresh handles when it respawns a worker.
    workers: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
    supervisor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the acceptor, event-loop worker, and pool threads. Accepts
    /// any served topology — anything that converts into a
    /// [`ServedModel`].
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    ///
    /// # Panics
    ///
    /// Panics when `config.pool_batches` holds a batch size the model's
    /// graph rejects (spatial graphs run with batch 1).
    pub fn start(
        model: impl Into<ServedModel>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "need a positive accept queue");
        assert!(config.sessions_per_worker > 0, "need at least one session per worker");
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;

        let model = Arc::new(model.into());
        let pools = if config.pool_depth > 0 {
            (0..config.workers)
                .map(|i| {
                    PrecomputePool::start_with_modes(
                        Arc::clone(&model),
                        &config.pool_batches,
                        &config.pool_modes,
                        config.pool_depth,
                        // Distinct stream from the workers, distinct per shard.
                        (config.seed ^ 0x706F_6F6C).wrapping_add(i as u64),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let graph = model.graph();
        let server =
            Arc::new(SecureServer::for_model(model.as_ref().clone()).with_exec(config.exec));
        let store = ShardedCheckpointStore::new(config.checkpoint_capacity, config.workers);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { conns: VecDeque::new(), draining: false }),
            work: Condvar::new(),
            server,
            graph,
            config: config.clone(),
            store,
            pools,
            metrics: MetricsRegistry::new(),
            addr: bound,
            hearts: (0..config.workers).map(|_| AtomicU64::new(0)).collect(),
            started: Instant::now(),
            session_seq: AtomicU64::new(0),
            chaos_fired: AtomicBool::new(false),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("abnn2-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        let workers: Arc<Mutex<Vec<Option<JoinHandle<()>>>>> = Arc::new(Mutex::new(
            (0..config.workers)
                .map(|i| Some(spawn_worker(&shared, i, config.seed.wrapping_add(1 + i as u64))))
                .collect(),
        ));
        let supervisor = {
            let shared = Arc::clone(&shared);
            let table = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("abnn2-supervisor".into())
                .spawn(move || supervisor_loop(&shared, &table))
                .expect("spawn supervisor")
        };

        Ok(Server {
            addr: bound,
            shared,
            acceptor: Some(acceptor),
            workers,
            supervisor: Some(supervisor),
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics, with pool gauges summed across every worker shard.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(pool_totals(&self.shared))
    }

    /// The sharded resume-checkpoint store reachable from all workers.
    #[must_use]
    pub fn checkpoint_store(&self) -> &ShardedCheckpointStore {
        &self.shared.store
    }

    /// Blocks until **every worker's pool shard** holds `count` ready
    /// pairs for batch size `batch` under every configured offline mode
    /// (or `timeout` passes). Returns false when no pool is attached or
    /// the target was not reached — callers use this to guarantee a warm
    /// first request on whichever worker claims it.
    #[must_use]
    pub fn warm_up(&self, batch: usize, count: usize, timeout: Duration) -> bool {
        if self.shared.pools.is_empty() {
            return false;
        }
        let base = BundleKey::for_graph(&self.shared.graph, batch);
        let deadline = Instant::now() + timeout;
        self.shared.pools.iter().all(|p| {
            self.shared.config.pool_modes.iter().all(|&mode| {
                let remaining = deadline.saturating_duration_since(Instant::now());
                p.wait_ready(&base.with_mode(mode), count, remaining)
            })
        })
    }

    /// Stops admitting connections (new arrivals get a busy rejection)
    /// while in-flight and queued sessions run to completion. Idempotent,
    /// non-blocking.
    pub fn begin_drain(&self) {
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.draining = true;
        }
        self.shared.work.notify_all();
        for pool in &self.shared.pools {
            pool.shutdown();
        }
        // If nothing is in flight the drain is already complete; wake the
        // acceptor so it can observe that and exit without polling.
        if drain_complete(&self.shared) {
            wake_acceptor(&self.shared);
        }
    }

    /// Drains and joins every thread: in-flight sessions finish, new
    /// connections are rejected, and the call returns once the last worker
    /// exits. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        self.begin_drain();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The supervisor joins every worker once the drain completes.
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let mut table = self.workers.lock().expect("worker table");
        for h in table.iter_mut().filter_map(Option::take) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn pool_totals(shared: &Shared) -> PoolSnapshot {
    shared.pools.iter().fold(PoolSnapshot::default(), |acc, p| {
        let s = p.snapshot();
        PoolSnapshot {
            produced: acc.produced + s.produced,
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
            ready: acc.ready + s.ready,
        }
    })
}

/// Whether the acceptor may stop listening: draining was requested AND
/// every queued and in-flight session has finished. Exiting any earlier
/// would close the listener while sessions are still running, turning a
/// late dialer's typed busy rejection into a raw connection reset.
fn drain_complete(shared: &Shared) -> bool {
    let queued = {
        let q = shared.queue.lock().expect("queue lock");
        if !q.draining {
            return false;
        }
        q.conns.len()
    };
    queued == 0 && shared.metrics.snapshot(PoolSnapshot::default()).active == 0
}

/// Unblocks the acceptor's blocking `accept` with a throwaway
/// self-connection so it re-checks the drain state event-driven instead
/// of sleep-polling. Failures are ignored: if the listener is already
/// gone, there is nothing left to wake.
fn wake_acceptor(shared: &Shared) {
    let _ = TcpStream::connect(shared.addr);
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Drain-complete wake (or a final straggler): stop
                // listening. The wake connection is simply dropped.
                if drain_complete(shared) {
                    return;
                }
                let rejected = {
                    let mut q = shared.queue.lock().expect("queue lock");
                    if q.draining || q.conns.len() >= shared.config.queue_capacity {
                        Some(stream)
                    } else {
                        q.conns.push_back(stream);
                        None
                    }
                };
                match rejected {
                    None => {
                        shared.metrics.connection_accepted();
                        shared.work.notify_one();
                    }
                    Some(stream) => {
                        shared.metrics.connection_rejected();
                        send_busy(shared, stream);
                    }
                }
            }
            Err(_) => {
                // Transient accept failure (aborted handshake, fd
                // pressure): back off briefly; drain wake-ups arrive as
                // successful accepts, not errors.
                if drain_complete(shared) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Answers a connection the server will not serve with an in-protocol
/// busy frame, so the peer sees a typed `Overloaded` instead of a reset.
/// The frame carries a `retry_after_ms` hint sized to how loaded the
/// server actually is, so turned-away clients spread their retries
/// instead of hammering a full queue in lockstep. Failures are ignored —
/// the peer is being turned away either way.
fn send_busy(shared: &Shared, stream: TcpStream) {
    let hint = retry_after_hint(shared);
    let _ = stream.set_nonblocking(false);
    if let Ok(mut ch) = TcpTransport::from_stream(stream) {
        let _ = reject_busy_with(
            &mut ch,
            SessionParams::for_graph(&shared.graph, shared.config.exec.variant, 0),
            hint,
        );
    }
}

/// Load-derived backoff hint: roughly one session-service quantum (25 ms)
/// per connection ahead of the rejected peer, plus a cold-pool penalty,
/// capped so a hint can never park a client for more than five seconds.
fn retry_after_hint(shared: &Shared) -> u32 {
    let active = shared.metrics.snapshot(PoolSnapshot::default()).active;
    let queued = shared.queue.lock().expect("queue lock").conns.len() as u64;
    let mut hint = 25 * (active + queued + 1);
    if !shared.pools.is_empty() && pool_totals(shared).ready == 0 {
        hint += 100;
    }
    u32::try_from(hint.min(5_000)).expect("capped at 5000")
}

/// Sink inner transport for the per-session metrics meter: sends vanish
/// (the real bytes ride the [`FrameBuffer`]) and nothing is ever received
/// through it (driver `Recv` effects are metered by shape with
/// [`InstrumentedTransport::record_recv`]).
#[derive(Debug)]
struct SinkTransport;

impl Transport for SinkTransport {
    fn send(&mut self, _payload: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        Err(TransportError::WouldBlock)
    }

    fn snapshot(&self) -> CommSnapshot {
        CommSnapshot { bytes_sent: 0, bytes_received: 0, messages_sent: 0, vtime: Duration::ZERO }
    }
}

/// Per-worker [`SessionHost`]: parameters from the shared factory,
/// checkpoints from the token-sharded store, warm bundles from this
/// worker's pool shard first, stealing from siblings on a miss so a busy
/// worker cannot strand warm bundles in an idle worker's shard.
struct WorkerHost<'a> {
    shared: &'a Shared,
    worker: usize,
}

impl SessionHost for WorkerHost<'_> {
    fn params_for(&self, batch: usize) -> SessionParams {
        SessionParams::for_graph(&self.shared.graph, self.shared.config.exec.variant, batch)
    }

    fn claim_checkpoint(&self, token: &ResumeToken) -> Option<ServerBundle> {
        self.shared.store.claim(token)
    }

    fn park_checkpoint(&self, token: ResumeToken, bundle: ServerBundle) {
        self.shared.store.insert(token, bundle);
    }

    fn release_checkpoint(&self, token: &ResumeToken) {
        self.shared.store.remove(token);
    }

    fn take_bundle(
        &self,
        params: &SessionParams,
        mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        let pools = &self.shared.pools;
        if pools.is_empty() {
            return None;
        }
        // Keyed on the negotiated offline mode: an IKNP session can never
        // drain a silent-keyed bundle (or vice versa), so per-mode pool
        // accounting stays truthful under a mixed fleet.
        let key = BundleKey::from_params(params).with_mode(mode);
        (0..pools.len()).find_map(|i| pools[(self.worker + i) % pools.len()].take(&key))
    }
}

/// Outcome of one sweep of one live session.
enum Sweep {
    /// Still parked waiting for the peer; nothing happened.
    Idle,
    /// Frames moved or the driver advanced; still live.
    Progress,
    /// The session ended (`true` = completed successfully).
    Finished(bool),
}

fn spawn_worker(shared: &Arc<Shared>, worker: usize, seed: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("abnn2-worker-{worker}"))
        .spawn(move || worker_loop(&shared, worker, seed))
        .expect("spawn worker")
}

/// Watches worker liveness and respawns casualties. A worker thread that
/// finished while the server is not draining died abnormally (an injected
/// chaos panic, or a bug severe enough to escape the per-session
/// `catch_unwind`); its replacement reuses the same worker index, so the
/// pool shard and checkpoint shard re-home automatically and queued
/// connections are simply claimed by the new thread. A worker whose
/// heartbeat is older than `wedge_timeout` while its thread is still
/// alive is presumed stuck inside a sweep; it is detached (a truly wedged
/// thread never reaches the claim loop again) and replaced the same way.
/// On drain the supervisor joins every worker and exits.
fn supervisor_loop(shared: &Arc<Shared>, table: &Mutex<Vec<Option<JoinHandle<()>>>>) {
    let mut generation: u64 = 0;
    loop {
        std::thread::sleep(Duration::from_millis(25));
        let draining = shared.queue.lock().expect("queue lock").draining;
        let mut t = table.lock().expect("worker table");
        if draining {
            // Workers exit on their own during a drain; once the last one
            // is finished, reap them all and retire.
            if t.iter().all(|h| h.as_ref().is_none_or(JoinHandle::is_finished)) {
                for h in t.iter_mut().filter_map(Option::take) {
                    let _ = h.join();
                }
                return;
            }
            continue;
        }
        for i in 0..t.len() {
            let dead = t[i].as_ref().is_some_and(JoinHandle::is_finished);
            let wedged = !dead
                && t[i].is_some()
                && shared.config.governor.wedge_timeout.is_some_and(|w| {
                    let age =
                        now_millis(shared).saturating_sub(shared.hearts[i].load(Ordering::Relaxed));
                    age > u64::try_from(w.as_millis()).unwrap_or(u64::MAX)
                });
            if !(dead || wedged) {
                continue;
            }
            // Draining is monotonic: re-check so a worker that exited
            // legitimately between the snapshot above and here is not
            // resurrected mid-drain.
            if shared.queue.lock().expect("queue lock").draining {
                break;
            }
            if dead {
                if let Some(h) = t[i].take() {
                    let _ = h.join();
                }
            } else {
                // Wedged but alive: detach the stuck thread. It holds no
                // lock (heartbeats are bumped right after lock release),
                // so the replacement can serve immediately.
                drop(t[i].take());
            }
            generation += 1;
            shared.hearts[i].store(now_millis(shared), Ordering::Relaxed);
            let seed = shared
                .config
                .seed
                .wrapping_add(1 + i as u64)
                .wrapping_add(0x5750_0000_0000_0000_u64.wrapping_mul(generation));
            t[i] = Some(spawn_worker(shared, i, seed));
            shared.metrics.worker_respawned();
        }
    }
}

/// One multiplexed session: a suspendable driver, its non-blocking frame
/// pump, and the metrics meter that mirrors the driver's effects.
struct LiveSession<'a> {
    driver: SessionDriver<WorkerHost<'a>>,
    fb: FrameBuffer,
    meter: InstrumentedTransport<SinkTransport>,
    /// Wall-clock of the last inbound frame, for the read timeout while
    /// the driver is parked.
    last_inbound: Instant,
    /// Deadline of the current phase budget, re-armed on the marks
    /// [`SessionDeadlines::budget_at`] names.
    phase_deadline: Option<Instant>,
    /// Admission ordinal, keyed by the governor's chaos knobs.
    ordinal: u64,
    /// Inbound frames accepted so far, against the governor quota.
    inbound_frames: u64,
    /// Inbound bytes accepted so far, against the governor quota.
    inbound_bytes: u64,
    /// Plan-keyed inbound ceiling, computed once the handshake fixes the
    /// batch; `None` until then (the pre-handshake allowance applies).
    quota: Option<CommCeiling>,
    /// Whether the driver has entered the online phase (`Mark("online")`
    /// observed), for the chaos session-panic injection.
    online: bool,
    /// The driver's replayed-step count already reported to the metrics.
    replayed_steps: u32,
}

impl<'a> LiveSession<'a> {
    fn new(
        shared: &'a Shared,
        worker: usize,
        stream: TcpStream,
        rng: &mut StdRng,
    ) -> Result<Self, TransportError> {
        let fb = FrameBuffer::new(stream)?;
        let meter = InstrumentedTransport::new(SinkTransport);
        shared.metrics.register(meter.handle());
        let driver = SessionDriver::new(
            Arc::clone(&shared.server),
            WorkerHost { shared, worker },
            StdRng::seed_from_u64(rng.next_u64()),
        );
        Ok(LiveSession {
            driver,
            fb,
            meter,
            last_inbound: Instant::now(),
            phase_deadline: None,
            ordinal: shared.session_seq.fetch_add(1, Ordering::Relaxed),
            inbound_frames: 0,
            inbound_bytes: 0,
            quota: None,
            online: false,
            replayed_steps: 0,
        })
    }

    /// Feeds readable frames, advances the driver, applies its effects,
    /// and enforces deadlines and governor budgets. Returns what happened.
    fn sweep(&mut self, shared: &Shared) -> Sweep {
        // Chaos: the governed session panics at the top of its first
        // online-phase sweep, exercising the worker's quarantine path.
        if shared.config.governor.inject_panic_session == Some(self.ordinal)
            && self.online
            && !shared.chaos_fired.swap(true, Ordering::SeqCst)
        {
            panic!("governor chaos: injected session panic in online phase");
        }

        // Pull every complete inbound frame the kernel has for us. A read
        // error (EOF, reset) is noted but NOT acted on yet: the final
        // frames of a session routinely arrive in the same sweep as the
        // peer's close, and the driver must consume them before the error
        // is allowed to matter — exactly when the blocking path would have
        // seen it, at the next starved recv.
        let mut fed = false;
        let mut read_err: Option<ProtocolError> = None;
        loop {
            match self.fb.poll_read() {
                Ok(Some(frame)) => {
                    self.last_inbound = Instant::now();
                    self.inbound_frames += 1;
                    self.inbound_bytes += frame.len() as u64;
                    self.driver.feed(frame);
                    fed = true;
                }
                Ok(None) => break,
                Err(e) => {
                    read_err = Some(e.into());
                    break;
                }
            }
        }

        let step = self.driver.step();
        let replayed = self.driver.replayed_steps();
        shared.metrics.steps_replayed(replayed - self.replayed_steps);
        self.replayed_steps = replayed;
        self.apply_effects(shared);
        // Push freshly queued (and any previously unfinished) output.
        let write_err: Option<ProtocolError> = self.fb.poll_write().err().map(Into::into);

        match step {
            // A post-completion read error is moot — the protocol never
            // reads again after the output shares — but a failed final
            // write is a failed session, as it was on the blocking path.
            DriverStep::Done => match write_err {
                Some(e) => self.finish(Err(e)),
                None => self.finish(Ok(())),
            },
            DriverStep::Failed(e) => self.finish(Err(e)),
            DriverStep::NeedRecv => {
                if let Some(e) = read_err.or(write_err) {
                    return self.finish(Err(e));
                }
                let now = Instant::now();
                if self.phase_deadline.is_some_and(|dl| now >= dl) {
                    return self.finish(Err(ProtocolError::TimedOut));
                }
                if let Some(rt) = shared.config.deadlines.read_timeout {
                    if now.duration_since(self.last_inbound) >= rt {
                        return self.finish(Err(ProtocolError::TimedOut));
                    }
                }
                let governor = &shared.config.governor;
                // Idle park budget: a parked session whose peer has sent
                // nothing for idle_timeout gives its slot back. Distinct
                // from read_timeout so operators can run generous blocking
                // deadlines with a tight multiplexing budget.
                if let Some(it) = governor.idle_timeout {
                    if now.duration_since(self.last_inbound) >= it {
                        return self.finish_evict(shared);
                    }
                }
                // Outbound cap: the peer is not draining its socket and
                // the frame buffer is absorbing the difference.
                if let Some(cap) = governor.max_outbound_bytes {
                    if self.fb.pending_write_bytes() as u64 > cap {
                        return self.finish_evict(shared);
                    }
                }
                if governor.inbound_quota && self.over_inbound_quota(shared) {
                    return self.finish_evict(shared);
                }
                if fed {
                    Sweep::Progress
                } else {
                    Sweep::Idle
                }
            }
        }
    }

    /// Whether the session has received more than the planner says a
    /// well-formed peer could ever send. Before the handshake fixes the
    /// batch a small fixed allowance applies; after it, the plan-keyed
    /// [`CommCeiling`] (computed once and cached).
    fn over_inbound_quota(&mut self, shared: &Shared) -> bool {
        if self.quota.is_none() {
            if let Some(batch) = self.driver.batch() {
                self.quota = shared.server.inbound_ceiling(batch).ok();
            }
        }
        match self.quota {
            Some(q) => self.inbound_frames > q.frames || self.inbound_bytes > q.bytes,
            None => {
                self.inbound_frames > PRE_HANDSHAKE_FRAMES
                    || self.inbound_bytes > PRE_HANDSHAKE_BYTES
            }
        }
    }

    /// Mirrors the driver's effects onto the socket (sends) and the
    /// metrics meter (everything), and arms phase budgets off the marks.
    fn apply_effects(&mut self, shared: &Shared) {
        for effect in self.driver.take_effects() {
            match effect {
                DriverEffect::Send(bytes) => {
                    self.fb.queue_send(&bytes);
                    // The sink cannot fail; metering counts phase + tag.
                    let _ = self.meter.send(&bytes);
                }
                DriverEffect::Flush => {}
                DriverEffect::Recv { tag, len } => self.meter.record_recv(tag, len),
                DriverEffect::Mark(label) => {
                    self.meter.enter_phase(&label);
                    if let Some(budget) = shared.config.deadlines.budget_at(&label) {
                        self.phase_deadline = budget.map(|b| Instant::now() + b);
                    }
                    self.online |= label == "online";
                }
            }
        }
    }

    /// Ends the session: the driver settles its checkpoint with the host
    /// ([`SessionDriver::settle`]), then queued output gets a bounded
    /// flush.
    fn finish(&mut self, outcome: Result<(), ProtocolError>) -> Sweep {
        let ok = self.driver.settle(outcome).is_ok();
        self.flush_outbound();
        Sweep::Finished(ok)
    }

    /// Governor eviction: park the resumable offline state for a future
    /// resume, count the eviction, and give the slot back. Unlike
    /// [`finish`](Self::finish) this does NOT wait on
    /// `flush_outbound` — the peer being evicted is by definition not
    /// draining, and a 5-second courtesy flush per eviction would let
    /// slow peers serialize the very sweep the governor protects.
    fn finish_evict(&mut self, shared: &Shared) -> Sweep {
        // An eviction stops the session retryably: its peer may reconnect
        // and resume.
        let _ = self.driver.settle(Err(ProtocolError::TimedOut));
        shared.metrics.session_evicted();
        Sweep::Finished(false)
    }

    /// Best-effort bounded drain of queued output (the negotiation reply,
    /// the final logit shares) before the socket closes.
    fn flush_outbound(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.fb.has_pending_write() && Instant::now() < deadline {
            match self.fb.poll_write() {
                Ok(true) | Err(_) => break,
                Ok(false) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sessions: Vec<LiveSession<'_>> = Vec::new();
    loop {
        shared.hearts[worker].store(now_millis(shared), Ordering::Relaxed);

        // Chaos: die right before claiming, while the queue is non-empty
        // and no lock is held — the queued connection must survive the
        // crash and be served by the supervisor's replacement worker.
        if shared.config.governor.inject_worker_panic == Some(worker) {
            let armed = !shared.queue.lock().expect("queue lock").conns.is_empty();
            if armed && !shared.chaos_fired.swap(true, Ordering::SeqCst) {
                panic!("governor chaos: injected worker panic");
            }
        }

        // Claim queued connections up to the multiplexing cap; block on
        // the condvar only when there is nothing at all to do — and only
        // in bounded slices, so the heartbeat keeps beating while idle.
        {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                while sessions.len() < shared.config.sessions_per_worker {
                    let Some(stream) = q.conns.pop_front() else {
                        break;
                    };
                    // Counted before the lock drops so `drain_complete`
                    // never sees an empty queue with the pop unaccounted.
                    shared.metrics.session_started();
                    match LiveSession::new(shared, worker, stream, &mut rng) {
                        Ok(live) => sessions.push(live),
                        Err(_) => shared.metrics.session_ended(false),
                    }
                }
                if !sessions.is_empty() {
                    break;
                }
                if q.draining {
                    drop(q);
                    if drain_complete(shared) {
                        wake_acceptor(shared);
                    }
                    return;
                }
                q = shared.work.wait_timeout(q, Duration::from_millis(100)).expect("queue lock").0;
                shared.hearts[worker].store(now_millis(shared), Ordering::Relaxed);
            }
        }

        // Sweep every live session once, each under its own unwind guard:
        // a panicking session is quarantined — its possibly-poisoned
        // checkpoint discarded so a resume can never replay the state
        // that panicked — while this worker and the sibling sessions in
        // this very Vec keep running.
        let mut progressed = false;
        let mut ended = 0usize;
        sessions.retain_mut(|live| match catch_unwind(AssertUnwindSafe(|| live.sweep(shared))) {
            Ok(Sweep::Idle) => true,
            Ok(Sweep::Progress) => {
                progressed = true;
                true
            }
            Ok(Sweep::Finished(ok)) => {
                shared.metrics.session_ended(ok);
                progressed = true;
                ended += 1;
                false
            }
            Err(_) => {
                if let Some(token) = live.driver.token() {
                    shared.store.remove(&token);
                }
                shared.metrics.session_panicked();
                shared.metrics.session_ended(false);
                progressed = true;
                ended += 1;
                false
            }
        });
        if ended > 0 && drain_complete(shared) {
            wake_acceptor(shared);
        }
        if !progressed {
            // Every session is parked on its socket: yield briefly
            // instead of spinning the sweep loop hot.
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

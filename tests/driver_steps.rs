//! Per-step suspension guard for the session driver.
//!
//! The driver runs the server side as a sequence of steps and re-runs
//! only the step a missing frame parked it in. This suite feeds it one
//! frame at a time — the worst case, a park at every recv — and checks,
//! on an MLP whose first layer crosses the 4096-OT parallel threshold
//! (run with two worker threads) and on the 14-op encoder block, in both
//! IKNP and silent offline mode, that:
//!
//! * the served logits equal the plaintext `forward_exact` oracle;
//! * the effect stream (sends, flushes, recvs, phase marks) is the same
//!   as when every inbound frame is fed up front, and the same as the
//!   blocking `SecureServer::offline`/`online` path records through a
//!   recording transport (which has no top-level phase marks);
//! * replay work is bounded: at most one replayed step per suspension,
//!   and the number of completed steps does not depend on how frames
//!   arrived — no completed step ever runs again.
//!
//! A driver that replayed whole phases would run O(steps²) step
//! executions on this schedule and fail the bound.

use abnn2::core::{
    drive_frames, DriverEffect, DriverStep, ExecConfig, NullHost, PublicModel, SecureClient,
    SecureGraph, SecureServer, ServedModel, SessionDriver, SessionParams,
};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{CommSnapshot, Endpoint, NetworkModel, Transport, TransportError};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SERVER_SEED: u64 = 0x5e;
const CLIENT_SEED: u64 = 0xc1;

/// Records every transport call as the [`DriverEffect`] the driver would
/// emit for it, plus every inbound frame.
struct Recording<T> {
    inner: T,
    effects: Vec<DriverEffect>,
    inbound: Vec<Vec<u8>>,
}

impl<T: Transport> Transport for Recording<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.effects.push(DriverEffect::Send(payload.to_vec()));
        self.inner.send(payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = self.inner.recv()?;
        let tag = frame.first().copied().unwrap_or(0);
        self.effects.push(DriverEffect::Recv { tag, len: frame.len() });
        self.inbound.push(frame.clone());
        Ok(frame)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.effects.push(DriverEffect::Flush);
        self.inner.flush()
    }

    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }

    fn mark_phase(&mut self, label: &str) {
        self.effects.push(DriverEffect::Mark(label.to_string()));
    }
}

/// One workload: a served model, its client, an input and the oracle's
/// logits.
struct Case {
    name: &'static str,
    server: Arc<SecureServer>,
    client: SecureClient,
    input: Vec<u64>,
    expected: Vec<u64>,
    graph: SecureGraph,
}

impl Case {
    fn new(
        name: &'static str,
        model: ServedModel,
        public: PublicModel,
        input: Vec<u64>,
        expected: Vec<u64>,
        silent: bool,
    ) -> Self {
        // Two workers: the sharded KK13/IKNP and triplet-decode paths run.
        let exec = ExecConfig::new().with_threads(2);
        let graph = SecureGraph::new(public.graph(), 1).expect("graph");
        Case {
            name,
            server: Arc::new(SecureServer::for_model(model).with_exec(exec)),
            client: SecureClient::for_model(public).with_exec(exec).with_silent(silent),
            input,
            expected,
            graph,
        }
    }

    fn driver(&self) -> SessionDriver<NullHost> {
        let ours = SessionParams::for_graph(self.graph.graph(), ExecConfig::new().variant, 1);
        SessionDriver::new(
            Arc::clone(&self.server),
            NullHost { ours },
            StdRng::seed_from_u64(SERVER_SEED),
        )
    }

    /// Runs the client against `server` on another thread and checks its
    /// logits against the oracle.
    fn with_client<T>(&self, server: impl FnOnce(Endpoint) -> T) -> T {
        let (sch, mut cch) = Endpoint::pair(NetworkModel::instant());
        std::thread::scope(|scope| {
            let cli = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(CLIENT_SEED);
                let state = self.client.offline(&mut cch, 1, &mut rng).expect("client offline");
                let x = std::slice::from_ref(&self.input);
                self.client.online_raw(&mut cch, state, x, &mut rng).expect("client online")
            });
            let out = server(sch);
            let y = cli.join().expect("client thread");
            assert_eq!(y.col(0), self.expected, "{}: logits must equal forward_exact", self.name);
            out
        })
    }

    /// The number of steps a cold session takes on this graph.
    fn expected_steps(&self) -> u32 {
        let g = self.graph.graph();
        let gamma = g.config.scheme.fragments().len();
        let offline = 2 * gamma * g.linear_count() + g.matmul_count();
        let online = 1 + g.ops.len();
        u32::try_from(1 + 2 + offline + online).expect("small graph")
    }
}

/// Drops the top-level phase marks the blocking path does not emit.
fn without_phase_marks(effects: &[DriverEffect]) -> Vec<DriverEffect> {
    effects
        .iter()
        .filter(|e| !matches!(e, DriverEffect::Mark(label) if !label.contains(':')))
        .cloned()
        .collect()
}

fn check(case: &Case) {
    let name = case.name;

    // Blocking path, recorded.
    let (direct, inbound) = case.with_client(|sch| {
        let mut ch = Recording { inner: sch, effects: Vec::new(), inbound: Vec::new() };
        let mut rng = StdRng::seed_from_u64(SERVER_SEED);
        let state = case.server.offline(&mut ch, 1, &mut rng).expect("direct offline");
        case.server.online(&mut ch, state).expect("direct online");
        ch.flush().expect("flush");
        (ch.effects, ch.inbound)
    });

    // Every inbound frame fed up front: no suspension, no replay.
    let mut driver = case.driver();
    for frame in &inbound {
        driver.feed(frame.clone());
    }
    assert_eq!(driver.step(), DriverStep::Done, "{name}: all frames at once must complete");
    let at_once = driver.take_effects();
    assert_eq!(driver.replayed_steps(), 0, "{name}: nothing to replay with a full inbox");
    assert_eq!(driver.completed_steps(), case.expected_steps(), "{name}: step count");
    assert_eq!(
        without_phase_marks(&at_once),
        direct,
        "{name}: driver effects must equal the blocking path's transcript"
    );

    // One frame per park, against a live client.
    let (frame_at_a_time, stats, completed) = case.with_client(|mut sch| {
        let mut driver = case.driver();
        let mut effects = Vec::new();
        let stats =
            drive_frames(&mut sch, &mut driver, |e| effects.push(e.clone())).expect("driver");
        (effects, stats, driver.completed_steps())
    });
    assert_eq!(frame_at_a_time, at_once, "{name}: effects must not depend on frame arrival");
    assert_eq!(completed, case.expected_steps(), "{name}: no completed step may run again");
    assert!(stats.suspensions >= 8, "{name}: expected a park at every recv, got {stats:?}");
    assert!(
        stats.replayed_steps <= stats.suspensions,
        "{name}: at most one replayed step per suspension, got {stats:?}"
    );
}

fn mlp_case(silent: bool) -> Case {
    // 260→16: 4160 fragment OTs per fragment, past the 4096-OT threshold.
    let net = Network::new(&[260, 16, 4], 0x71);
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 2,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
    };
    let q = QuantizedNetwork::quantize(&net, config);
    let mut rng = StdRng::seed_from_u64(0x72);
    let input: Vec<u64> =
        (0..260).map(|_| q.config.ring.reduce(rng.gen_range(0..1 << 10))).collect();
    let expected = q.forward_exact(&input);
    let model = ServedModel::from(q);
    let public = model.public();
    Case::new(
        if silent { "mlp/silent" } else { "mlp/iknp" },
        model,
        public,
        input,
        expected,
        silent,
    )
}

fn encoder_case(silent: bool) -> Case {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(4),
    };
    let mut rng = StdRng::seed_from_u64(0x81);
    let model = QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("transformer");
    let input: Vec<u64> = (0..model.seq * model.d)
        .map(|_| model.config.ring.reduce(rng.gen_range(-64i64..64) as u64))
        .collect();
    let expected = model.forward_exact(&input);
    let model = ServedModel::from(model);
    let public = model.public();
    let name = if silent { "encoder/silent" } else { "encoder/iknp" };
    let case = Case::new(name, model, public, input, expected, silent);
    assert_eq!(case.graph.graph().ops.len(), 14, "the encoder block is a 14-op graph");
    case
}

#[test]
fn mlp_replays_only_the_parked_step_iknp() {
    check(&mlp_case(false));
}

#[test]
fn mlp_replays_only_the_parked_step_silent() {
    check(&mlp_case(true));
}

#[test]
fn encoder_replays_only_the_parked_step_iknp() {
    check(&encoder_case(false));
}

#[test]
fn encoder_replays_only_the_parked_step_silent() {
    check(&encoder_case(true));
}

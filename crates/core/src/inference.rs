//! End-to-end secure inference (Fig 2 of the paper) — thin adapters over
//! the [`crate::graph`] planner/executor.
//!
//! The server holds a [`ServedModel`] (an MLP, CNN or transformer with its
//! weights); the client holds inputs and the [`PublicModel`] — the model's
//! [`LayerGraph`], i.e. architecture plus fixed-point hyper-parameters,
//! never the weights. Both drive the graph executor over that graph:
//!
//! * **offline** — data-independent: the planner emits one dot-product
//!   triplet requirement `U + V = W·R` per linear op, generated from
//!   client-chosen randomness `R` via the §4.1 OT protocols;
//! * **online** — the client blinds its input with `R⁰`, each linear op
//!   costs one local matrix product plus the precomputed triplet, each
//!   re-sharing op runs a §4.2 garbled circuit whose fresh client share
//!   *is* the next linear op's `R`, and the graph's terminal `Output` op
//!   opens the final shares toward the client.
//!
//! The client's reconstructed outputs equal the plaintext model's
//! `forward_exact` bit for bit, for every topology.
//!
//! [`LayerGraph`]: abnn2_nn::graph::LayerGraph

use crate::bundle::{ClientBundle, ServerBundle};
use crate::config::ExecConfig;
use crate::frames::OutputShares;
use crate::graph::{
    client_offline_with, client_online_to_logits, PublicModel, SecureGraph, ServedModel,
};
use crate::handshake::{handshake_client_ext, handshake_server_ext, HelloRequest, SessionParams};
use crate::matbeaver::MatrixTriple;
use crate::relu::ReluVariant;
use crate::session::{ClientSession, ServerSession};
use crate::stepper::{OfflineCursor, OnlineCursor};
use crate::ProtocolError;
use abnn2_math::Matrix;
use abnn2_net::Transport;
use rand::{Rng, SeedableRng};

/// Server-side state after the offline phase: one triplet share `U` per
/// linear op of the graph, in graph order.
#[derive(Debug, Clone)]
pub struct ServerOffline {
    pub(crate) session: ServerSession,
    pub(crate) us: Vec<Matrix>,
    pub(crate) mats: Vec<MatrixTriple>,
    pub(crate) batch: usize,
}

impl ServerOffline {
    /// Reassembles offline state from a fresh session and an offline
    /// bundle — checkpointed after a connection loss (reconnect-and-resume)
    /// or manufactured ahead of time by a precompute pool. Triplets survive
    /// a connection loss; the cheap per-connection session setup does not.
    #[must_use]
    pub fn from_bundle(session: ServerSession, bundle: ServerBundle) -> Self {
        ServerOffline { session, us: bundle.us, mats: bundle.mats, batch: bundle.batch }
    }

    /// Copies the connection-independent part of this state into a bundle
    /// (for checkpointing; the session is consumed by the online phase).
    #[must_use]
    pub fn to_bundle(&self) -> ServerBundle {
        ServerBundle { us: self.us.clone(), mats: self.mats.clone(), batch: self.batch }
    }
}

/// Client-side state after the offline phase: the masks `R` (input mask
/// plus one fresh mask per re-sharing op) and one triplet share `V` per
/// linear op, in graph order.
#[derive(Debug)]
pub struct ClientOffline {
    pub(crate) session: ClientSession,
    pub(crate) rs: Vec<Matrix>,
    pub(crate) vs: Vec<Matrix>,
    pub(crate) mats: Vec<MatrixTriple>,
    pub(crate) batch: usize,
}

impl ClientOffline {
    /// Reassembles offline state from a fresh session and an offline
    /// bundle (the reconnect-and-resume path, or a server-dealt bundle).
    #[must_use]
    pub fn from_bundle(session: ClientSession, bundle: ClientBundle) -> Self {
        ClientOffline {
            session,
            rs: bundle.rs,
            vs: bundle.vs,
            mats: bundle.mats,
            batch: bundle.batch,
        }
    }

    /// Copies the connection-independent part of this state into a bundle.
    #[must_use]
    pub fn to_bundle(&self) -> ClientBundle {
        ClientBundle {
            rs: self.rs.clone(),
            vs: self.vs.clone(),
            mats: self.mats.clone(),
            batch: self.batch,
        }
    }
}

/// The model-serving party. Holds any [`ServedModel`] topology.
#[derive(Debug, Clone)]
pub struct SecureServer {
    pub(crate) model: ServedModel,
    pub(crate) exec: ExecConfig,
}

impl SecureServer {
    /// Serves any supported model topology with the default (fully
    /// oblivious) activation protocol.
    #[must_use]
    pub fn for_model(model: impl Into<ServedModel>) -> Self {
        SecureServer { model: model.into(), exec: ExecConfig::new() }
    }

    /// Replaces the whole execution configuration.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the activation variant (must match the client's).
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.exec = self.exec.with_variant(variant);
        self
    }

    /// Enables multi-core triplet generation (the paper's future-work
    /// optimization; transcript-compatible with any client thread count).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec = self.exec.with_threads(threads);
        self
    }

    /// The public description of the served model, any topology.
    #[must_use]
    pub fn public_model(&self) -> PublicModel {
        self.model.public()
    }

    pub(crate) fn secure_graph(&self, batch: usize) -> Result<SecureGraph, ProtocolError> {
        SecureGraph::new(self.model.graph(), batch)
    }

    /// Per-session inbound traffic quota for a negotiated batch size —
    /// [`SecureGraph::inbound_ceiling`] for this model's plan. Serving
    /// layers evict sessions that exceed it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if `batch` is invalid for the model.
    pub fn inbound_ceiling(
        &self,
        batch: usize,
    ) -> Result<crate::graph::CommCeiling, ProtocolError> {
        Ok(self.secure_graph(batch)?.inbound_ceiling())
    }

    /// Offline phase: handshake, session setup, and per-op triplet
    /// generation for a batch of `batch` predictions.
    ///
    /// The handshake pins down protocol version, ring, fixed-point and
    /// fragmentation parameters, activation variant, batch size and model
    /// graph *before* any base OT flows, so a misconfigured pairing fails
    /// with [`ProtocolError::Negotiation`] at connect time instead of
    /// garbling mid-protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn offline<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        rng: &mut R,
    ) -> Result<ServerOffline, ProtocolError> {
        let sg = self.secure_graph(batch)?;
        // The server derives its parameters for *its own* expected batch:
        // a client announcing a different batch is a negotiation failure,
        // not something to silently adopt.
        let ours = SessionParams::for_graph(sg.graph(), self.exec.variant, batch);
        let (_, _, reply) = handshake_server_ext(ch, |_| ours, |_| false, |_, _| false)?;
        let session = ServerSession::setup_with(ch, reply.mode(), rng)?;
        self.offline_with(ch, session, batch, rng)
    }

    /// Triplet generation over an already-established session. Split from
    /// session setup so a serving layer can attribute the two to separate
    /// instrumentation phases (base OTs are per-connection and cheap;
    /// triplets are the expensive, poolable part). The `rng` feeds the
    /// server's matrix-triple shares for secret×secret matmul ops; plain
    /// MLP/CNN graphs never draw from it.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn offline_with<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        session: ServerSession,
        batch: usize,
        rng: &mut R,
    ) -> Result<ServerOffline, ProtocolError> {
        let mut cursor = OfflineCursor::new(session, self.secure_graph(batch)?, self.exec);
        while !cursor.is_done() {
            cursor.step(ch, &self.model, rng)?;
        }
        Ok(cursor.finish())
    }

    /// Online phase: consumes offline state, processes one batch, opening
    /// the logit shares toward the client (the paper's Fig-2 flow).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn online<T: Transport>(
        &self,
        ch: &mut T,
        state: ServerOffline,
    ) -> Result<(), ProtocolError> {
        let (_, y0) = self.online_to_logits(ch, state)?;
        self.send_output(ch, &y0)
    }

    /// Sends the server's logit shares — the last message of the online
    /// phase.
    pub(crate) fn send_output<T: Transport>(
        &self,
        ch: &mut T,
        y0: &Matrix,
    ) -> Result<(), ProtocolError> {
        let ring = self.model.config().ring;
        Ok(ch.send_frame(&OutputShares(ring.encode_slice(y0.as_slice())))?)
    }

    /// Classification-only online phase (extension): instead of opening the
    /// logits, a masked-argmax circuit reveals *only the class index* to
    /// the client.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn online_classify<T: Transport>(
        &self,
        ch: &mut T,
        state: ServerOffline,
    ) -> Result<(), ProtocolError> {
        let ring = self.model.config().ring;
        let batch = state.batch;
        let (mut session, y0) = self.online_to_logits(ch, state)?;
        for k in 0..batch {
            crate::argmax::argmax_server(ch, &mut session.yao, &y0.col(k), ring)?;
        }
        Ok(())
    }

    /// The online walk up to the output op: the session plus the server's
    /// share of the output op's input.
    fn online_to_logits<T: Transport>(
        &self,
        ch: &mut T,
        state: ServerOffline,
    ) -> Result<(ServerSession, Matrix), ProtocolError> {
        let sg = self.secure_graph(state.batch)?;
        let mut cursor = OnlineCursor::new(state, sg, self.exec)?;
        loop {
            if let Some(y0) = cursor.step(ch, &self.model)? {
                return Ok((cursor.into_session(), y0));
            }
        }
    }

    /// Convenience: offline followed by online, run through the
    /// suspendable [`SessionDriver`](crate::driver::SessionDriver) so the
    /// blocking and event-loop paths exercise one protocol
    /// implementation (the wire transcript is unchanged — see
    /// `tests/graph_parity.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn run<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        rng: &mut R,
    ) -> Result<(), ProtocolError> {
        let sg = self.secure_graph(batch)?;
        let ours = SessionParams::for_graph(sg.graph(), self.exec.variant, batch);
        let mut driver = crate::driver::SessionDriver::new(
            std::sync::Arc::new(self.clone()),
            crate::driver::NullHost { ours },
            rand::rngs::StdRng::seed_from_u64(rng.next_u64()),
        );
        crate::driver::drive_blocking(ch, &mut driver)
    }
}

/// The data-owning party. Holds any [`PublicModel`] topology.
#[derive(Debug, Clone)]
pub struct SecureClient {
    pub(crate) model: PublicModel,
    pub(crate) exec: ExecConfig,
    pub(crate) silent: bool,
}

impl SecureClient {
    /// Creates a client for a served model of any supported topology.
    #[must_use]
    pub fn for_model(model: impl Into<PublicModel>) -> Self {
        SecureClient { model: model.into(), exec: ExecConfig::new(), silent: false }
    }

    /// Opts into the silent (LPN) OT extension for the offline phase. The
    /// session actually uses it only when the server is silent-capable
    /// too; otherwise it falls back to the portable IKNP/KK13 path. Off by
    /// default so existing transcripts stay byte-identical.
    #[must_use]
    pub fn with_silent(mut self, silent: bool) -> Self {
        self.silent = silent;
        self
    }

    /// Replaces the whole execution configuration.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the activation variant (must match the server's).
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.exec = self.exec.with_variant(variant);
        self
    }

    /// Multi-core triplet generation.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec = self.exec.with_threads(threads);
        self
    }

    /// The public model description, any topology.
    #[must_use]
    pub fn public_model(&self) -> &PublicModel {
        &self.model
    }

    pub(crate) fn secure_graph(&self, batch: usize) -> Result<SecureGraph, ProtocolError> {
        SecureGraph::new(self.model.graph(), batch)
    }

    /// Offline phase: handshake, session setup, and per-op triplet
    /// generation (see the server counterpart).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn offline<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        rng: &mut R,
    ) -> Result<ClientOffline, ProtocolError> {
        let sg = self.secure_graph(batch)?;
        let ours = SessionParams::for_graph(sg.graph(), self.exec.variant, batch);
        let request = HelloRequest { silent: self.silent, ..HelloRequest::default() };
        let reply = handshake_client_ext(ch, ours, &[0u8; 16], request)?;
        let session = ClientSession::setup_with(ch, reply.mode(), rng)?;
        self.offline_with(ch, session, batch, rng)
    }

    /// Triplet generation over an already-established session (see the
    /// server counterpart for why this is split out).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn offline_with<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        session: ClientSession,
        batch: usize,
        rng: &mut R,
    ) -> Result<ClientOffline, ProtocolError> {
        let sg = self.secure_graph(batch)?;
        client_offline_with(ch, session, &sg, self.exec, rng)
    }

    /// Runs the graph, returning the session and the client's share of the
    /// final-layer outputs.
    fn online_to_logits<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<(ClientSession, Matrix), ProtocolError> {
        let batch = state.batch;
        let sg = self.secure_graph(batch)?;
        let ring = self.model.config().ring;
        let n0 = sg.graph().input_len();
        if inputs_fp.len() != batch {
            return Err(ProtocolError::Dimension("input count must equal batch"));
        }
        if inputs_fp.iter().any(|x| x.len() != n0) {
            return Err(ProtocolError::Dimension("input dimension mismatch"));
        }

        // x as a n0×batch matrix, one column per sample.
        let mut x = Matrix::zeros(n0, batch);
        for (k, sample) in inputs_fp.iter().enumerate() {
            for (j, &v) in sample.iter().enumerate() {
                x.set(j, k, ring.reduce(v));
            }
        }
        client_online_to_logits(ch, state, &sg, self.exec, &x, rng)
    }

    /// Online phase over ring-encoded inputs: returns the raw output shares
    /// reconstructed into ring elements (`out_dim × batch`, at
    /// `f + f_w` fractional bits).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on failure or if inputs mismatch the batch.
    pub fn online_raw<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<Matrix, ProtocolError> {
        let ring = self.model.config().ring;
        let batch = state.batch;
        let m = self.model.graph().output_len();
        let (_, y1) = self.online_to_logits(ch, state, inputs_fp, rng)?;
        let OutputShares(y0_bytes) = ch.recv_frame()?;
        if y0_bytes.len() != m * batch * ring.byte_len() {
            return Err(ProtocolError::Malformed("output share length"));
        }
        let y0 = Matrix::new(m, batch, ring.decode_slice(&y0_bytes));
        Ok(y0.add(&y1, &ring))
    }

    /// Classification-only online phase (extension): returns just the
    /// predicted class per sample; neither party sees a logit.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on failure or if inputs mismatch the batch.
    pub fn online_classify<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<Vec<usize>, ProtocolError> {
        let ring = self.model.config().ring;
        let batch = state.batch;
        let (mut session, y1) = self.online_to_logits(ch, state, inputs_fp, rng)?;
        (0..batch)
            .map(|k| crate::argmax::argmax_client(ch, &mut session.yao, &y1.col(k), ring, rng))
            .collect()
    }

    /// Online phase over float inputs: returns per-sample logits.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on failure or mismatched inputs.
    pub fn online<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<Vec<Vec<f64>>, ProtocolError> {
        let in_codec = self.model.config().activation_codec();
        let out_codec = self.model.config().output_codec();
        let inputs_fp: Vec<Vec<u64>> = inputs.iter().map(|x| in_codec.encode_vec(x)).collect();
        let y = self.online_raw(ch, state, &inputs_fp, rng)?;
        Ok((0..y.cols()).map(|k| out_codec.decode_vec(&y.col(k))).collect())
    }

    /// Convenience: offline followed by online.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn run<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        inputs: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<Vec<Vec<f64>>, ProtocolError> {
        let state = self.offline(ch, inputs.len(), rng)?;
        self.online(ch, state, inputs, rng)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
    use abnn2_nn::{Network, SyntheticMnist};
    use rand::SeedableRng;

    fn tiny_quantized(seed: u64, scheme: FragmentScheme, fw: u32) -> QuantizedNetwork {
        let data = SyntheticMnist::generate(120, 0, seed);
        let mut net = Network::new(&[784, 12, 8, 10], seed);
        net.train_epoch(&data.train, 0.05);
        let config =
            QuantConfig { ring: Ring::new(32), frac_bits: 8, weight_frac_bits: fw, scheme };
        QuantizedNetwork::quantize(&net, config)
    }

    fn secure_vs_plaintext(q: QuantizedNetwork, batch: usize, variant: ReluVariant, seed: u64) {
        let data = SyntheticMnist::generate(batch, 0, seed + 9);
        let inputs: Vec<Vec<f64>> =
            data.train.iter().take(batch).map(|s| s.pixels.clone()).collect();
        let codec = q.config.activation_codec();
        let inputs_fp: Vec<Vec<u64>> = inputs.iter().map(|x| codec.encode_vec(x)).collect();
        let expected: Vec<Vec<u64>> = inputs_fp.iter().map(|x| q.forward_exact(x)).collect();

        let server = SecureServer::for_model(q.clone()).with_variant(variant);
        let client = SecureClient::for_model(server.public_model()).with_variant(variant);
        let inputs_fp2 = inputs_fp.clone();
        let (srv, y, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                server.run(ch, batch, &mut rng)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let state = client.offline(ch, batch, &mut rng).expect("offline");
                client.online_raw(ch, state, &inputs_fp2, &mut rng).expect("online")
            },
        );
        srv.expect("server");
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(&y.col(k), want, "sample {k} must match forward_exact");
        }
    }

    #[test]
    fn secure_inference_matches_plaintext_8bit_single() {
        let q = tiny_quantized(50, FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4);
        secure_vs_plaintext(q, 1, ReluVariant::Oblivious, 60);
    }

    #[test]
    fn secure_inference_matches_plaintext_8bit_batch() {
        let q = tiny_quantized(51, FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4);
        secure_vs_plaintext(q, 3, ReluVariant::Oblivious, 61);
    }

    #[test]
    fn secure_inference_matches_plaintext_ternary() {
        let q = tiny_quantized(52, FragmentScheme::ternary(), 0);
        secure_vs_plaintext(q, 2, ReluVariant::Oblivious, 62);
    }

    #[test]
    fn secure_inference_optimized_relu() {
        let q = tiny_quantized(53, FragmentScheme::signed_bit_fields(&[3, 3, 2]), 4);
        secure_vs_plaintext(q, 2, ReluVariant::Optimized, 63);
    }

    #[test]
    fn float_logits_classify_like_plaintext() {
        let q = tiny_quantized(54, FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4);
        let data = SyntheticMnist::generate(2, 0, 70);
        let inputs: Vec<Vec<f64>> = data.train.iter().map(|s| s.pixels.clone()).collect();
        let server = SecureServer::for_model(q.clone());
        let client = SecureClient::for_model(server.public_model());
        let inputs2 = inputs.clone();
        let (_, logits, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(71);
                server.run(ch, 2, &mut rng).expect("server");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(72);
                client.run(ch, &inputs2, &mut rng).expect("client")
            },
        );
        for (k, input) in inputs.iter().enumerate() {
            let plain = q.forward(input);
            assert_eq!(abnn2_nn::model::argmax(&logits[k]), abnn2_nn::model::argmax(&plain));
        }
    }

    #[test]
    fn classify_reveals_only_the_class() {
        let q = tiny_quantized(56, FragmentScheme::signed_bit_fields(&[2, 2]), 2);
        let batch = 2;
        let data = SyntheticMnist::generate(batch, 0, 57);
        let inputs: Vec<Vec<f64>> = data.train.iter().map(|s| s.pixels.clone()).collect();
        let codec = q.config.activation_codec();
        let inputs_fp: Vec<Vec<u64>> = inputs.iter().map(|x| codec.encode_vec(x)).collect();
        let server = SecureServer::for_model(q.clone());
        let client = SecureClient::for_model(server.public_model());
        let inputs_fp2 = inputs_fp.clone();
        let (srv, classes, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(58);
                let state = server.offline(ch, batch, &mut rng)?;
                server.online_classify(ch, state)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(59);
                let state = client.offline(ch, batch, &mut rng).expect("offline");
                client.online_classify(ch, state, &inputs_fp2, &mut rng).expect("online")
            },
        );
        srv.expect("server");
        for (k, input) in inputs.iter().enumerate() {
            assert_eq!(classes[k], q.predict(input), "sample {k}");
        }
    }

    #[test]
    fn zero_batch_rejected() {
        let q = tiny_quantized(55, FragmentScheme::binary(), 0);
        let server = SecureServer::for_model(q);
        let (mut a, _b) = Endpoint::pair(NetworkModel::instant());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(
            server.offline(&mut a, 0, &mut rng).err(),
            Some(ProtocolError::Dimension("batch must be positive"))
        );
    }
}

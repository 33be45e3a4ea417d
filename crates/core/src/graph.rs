//! Secure planner and executor over the [`LayerGraph`] IR.
//!
//! The paper describes one protocol pipeline — OT-based dot-product
//! triplets offline (§4.1), share-and-reconstruct non-linear layers online
//! (§4.2) — and both served topologies run it. This module is the single
//! implementation: [`SecureGraph`] pins a validated graph to a batch size,
//! the **planner** ([`SecureGraph::plan`]) emits one [`TripletPlan`] per
//! linear op (dimensions, batch `o`, message-layout mode), and the
//! **executor** halves walk the same op sequence consuming planned state:
//! the client's [`client_offline_with`] / [`client_online_to_logits`] here,
//! and the server's step-at-a-time cursors in the private `stepper`
//! module, which the blocking `SecureServer` calls and the suspendable
//! [`crate::driver::SessionDriver`] share. `SecureServer`/`SecureClient`
//! are thin adapters over these, for every topology.
//!
//! The executor's state invariant, per party:
//!
//! * the server walks with its additive share of the current activation —
//!   after a linear op it holds `W·x⁰ + b + U`, after a re-share op the
//!   garbled circuit's output share;
//! * the client's share is *known offline*: the input mask `R⁰`, then `V`
//!   after each linear op, then the fresh mask it fed the re-sharing
//!   circuit. That is why the triplet randomness for every linear op is
//!   exactly the client share entering it (im2col'ed for conv) — and why
//!   offline state bundles ([`crate::bundle`]) are connection-independent.
//!
//! Executors terminate at the graph's [`LayerOp::Output`] op by
//! construction; a graph missing it fails validation up front.
//!
//! Per-op instrumentation: every phase of the walk calls
//! [`Transport::mark_phase`] with labels like `offline:op0/conv` or
//! `online:op2/relu`, so metering transports report bytes and time per
//! layer while plain transports ignore the calls.

use crate::cnn::maxpool_client;
use crate::config::ExecConfig;
use crate::frames::BlindedInput;
use crate::inference::ClientOffline;
use crate::matbeaver::{generate_matrix_p1, mul_matrix_shares, MatrixTriple};
use crate::matmul::{triplet_client_with, TripletMode};
use crate::nonlinear::{gelu_client, layernorm_client, matmul_close_client, softmax_client};
use crate::relu::relu_client;
use crate::session::ClientSession;
use crate::ProtocolError;
use abnn2_math::{Matrix, Ring};
use abnn2_net::Transport;
use abnn2_nn::conv::im2col;
use abnn2_nn::graph::{LayerGraph, LayerOp, OpResource};
use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2_nn::transformer::QuantizedTransformer;
use abnn2_nn::QuantizedCnn;
use abnn2_ot::{IknpReceiver, IknpSender};
use rand::Rng;

/// A server-side model of any supported topology: the [`LayerGraph`] it
/// lowers to plus its weights. Built from a `QuantizedNetwork`, a
/// `QuantizedCnn` or a `QuantizedTransformer`.
#[derive(Debug, Clone)]
pub struct ServedModel {
    graph: LayerGraph,
    /// `(weights, bias)` per linear op in graph order (row-major `m × n`
    /// weights, one bias entry per output row). A CNN's conv filter is
    /// linear op 0; a transformer's per-token projections are expanded
    /// block-diagonally.
    linear: Vec<(Vec<i64>, Vec<u64>)>,
}

impl From<QuantizedNetwork> for ServedModel {
    fn from(net: QuantizedNetwork) -> Self {
        let graph = LayerGraph::from(&net);
        let linear = net.layers.into_iter().map(|l| (l.weights, l.bias)).collect();
        ServedModel { graph, linear }
    }
}

impl From<QuantizedCnn> for ServedModel {
    fn from(net: QuantizedCnn) -> Self {
        let graph = LayerGraph::from(&net);
        let conv = (net.conv.weights, net.conv.bias);
        let dense = net.dense.into_iter().map(|l| (l.weights, l.bias));
        ServedModel { graph, linear: std::iter::once(conv).chain(dense).collect() }
    }
}

impl From<QuantizedTransformer> for ServedModel {
    fn from(model: QuantizedTransformer) -> Self {
        let graph = LayerGraph::from(&model);
        let linear = (0..graph.linear_count())
            .map(|li| {
                let l = model.linear_params(li);
                (l.weights, l.bias)
            })
            .collect();
        ServedModel { graph, linear }
    }
}

impl ServedModel {
    /// The layer graph this model lowers to.
    #[must_use]
    pub fn graph(&self) -> LayerGraph {
        self.graph.clone()
    }

    /// Fixed-point pipeline hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &QuantConfig {
        &self.graph.config
    }

    /// The weight-free public description to hand to clients.
    #[must_use]
    pub fn public(&self) -> PublicModel {
        PublicModel::from(self.graph())
    }

    /// Weights and bias of the `index`-th linear op, in graph order.
    pub(crate) fn linear_params(&self, index: usize) -> (&[i64], &[u64]) {
        let (weights, bias) = &self.linear[index];
        (weights, bias)
    }
}

/// The client-side view of a served model: its [`LayerGraph`], which
/// carries the architecture and the fixed-point hyper-parameters, never
/// weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicModel {
    graph: LayerGraph,
}

impl From<LayerGraph> for PublicModel {
    fn from(graph: LayerGraph) -> Self {
        PublicModel { graph }
    }
}

impl PublicModel {
    /// The layer graph this model lowers to.
    #[must_use]
    pub fn graph(&self) -> LayerGraph {
        self.graph.clone()
    }

    /// Fixed-point pipeline hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &QuantConfig {
        &self.graph.config
    }
}

/// One linear op's offline triplet requirement, as emitted by the planner:
/// generate `U + V = W·R` with `W` of shape `m × n` and `o` input columns,
/// using the §4.1.2 (`MultiBatch`) or §4.1.3 (`OneBatch`) message layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripletPlan {
    /// Index of the op in the graph's op sequence.
    pub op: usize,
    /// Ordinal among the graph's linear ops (indexes `us`/`vs`).
    pub linear: usize,
    /// Weight rows (output dimension / filter count).
    pub m: usize,
    /// Weight columns (input dimension / im2col patch length).
    pub n: usize,
    /// Input columns: the batch size for dense ops, the number of output
    /// positions for conv ops.
    pub o: usize,
    /// Message layout, per the paper's batch-size selection rule.
    pub mode: TripletMode,
    /// Op kind tag (for instrumentation labels).
    pub kind: &'static str,
}

/// One secret×secret matmul op's offline matrix-triple requirement:
/// generate `(X, Y, Z = X·Y)` with `X` of shape `m × k` and `Y` of shape
/// `k × n` (effective, post-transpose dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulPlan {
    /// Index of the op in the graph's op sequence.
    pub op: usize,
    /// Ordinal among the graph's matmul ops (indexes the `mats` vectors).
    pub index: usize,
    /// Left rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Right cols.
    pub n: usize,
}

/// A validated [`LayerGraph`] pinned to a batch size — the unit the
/// planner and both executor halves operate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureGraph {
    graph: LayerGraph,
    batch: usize,
}

impl SecureGraph {
    /// Validates `graph` and pins it to `batch` samples per prediction.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if the batch is zero, the graph is
    /// structurally ill-formed, or a spatial graph (conv/max-pool) or a
    /// graph with extended tape ops (transformer family) is asked for
    /// multi-sample batching (those ops are laid out per-map/per-tape-slot
    /// and run one sample at a time).
    pub fn new(graph: LayerGraph, batch: usize) -> Result<Self, ProtocolError> {
        if batch == 0 {
            return Err(ProtocolError::Dimension("batch must be positive"));
        }
        graph.validate().map_err(|e| ProtocolError::Dimension(e.message()))?;
        if batch > 1 && graph.has_spatial_ops() {
            return Err(ProtocolError::Dimension("spatial graphs run with batch 1"));
        }
        if batch > 1 && graph.has_extended_ops() {
            return Err(ProtocolError::Dimension("extended graphs run with batch 1"));
        }
        Ok(SecureGraph { graph, batch })
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &LayerGraph {
        &self.graph
    }

    /// Samples per prediction batch.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The offline plan: one triplet requirement per linear op, in graph
    /// order.
    #[must_use]
    pub fn plan(&self) -> Vec<TripletPlan> {
        let mut plans = Vec::with_capacity(self.graph.linear_count());
        for (i, op) in self.graph.ops.iter().enumerate() {
            let (m, n, o) = match *op {
                LayerOp::Dense { out_dim, in_dim } | LayerOp::Linear { out_dim, in_dim, .. } => {
                    (out_dim, in_dim, self.batch)
                }
                LayerOp::Conv { out_channels, in_shape, kh, kw, .. } => {
                    let positions = op.out_len() / out_channels;
                    (out_channels, in_shape.channels * kh * kw, positions)
                }
                _ => continue,
            };
            plans.push(TripletPlan {
                op: i,
                linear: plans.len(),
                m,
                n,
                o,
                mode: TripletMode::for_batch(o),
                kind: op.kind(),
            });
        }
        plans
    }

    /// The matrix-triple plan: one [`MatmulPlan`] per secret×secret matmul
    /// op, in graph order. Dimensions are *effective* (post-transpose):
    /// the triple always lives in `(m × k) · (k × n)` space regardless of
    /// how the graph stores the right operand.
    #[must_use]
    pub fn matmul_plans(&self) -> Vec<MatmulPlan> {
        let mut plans = Vec::with_capacity(self.graph.matmul_count());
        for (i, op) in self.graph.ops.iter().enumerate() {
            if let OpResource::MatTriple { m, k, n } = op.resource() {
                plans.push(MatmulPlan { op: i, index: plans.len(), m, k, n });
            }
        }
        plans
    }

    /// Shapes `(rows, cols)` of the client masks, in consumption order:
    /// the input mask first, then one fresh mask per re-sharing op.
    #[must_use]
    pub fn mask_shapes(&self) -> Vec<(usize, usize)> {
        let mut shapes = vec![(self.graph.input_len(), self.batch)];
        for op in &self.graph.ops {
            if op.is_reshare() {
                shapes.push((op.out_len(), self.batch));
            }
        }
        shapes
    }

    /// Shapes `(rows, cols)` of the per-linear-op triplet shares `U`/`V`.
    #[must_use]
    pub fn triplet_shapes(&self) -> Vec<(usize, usize)> {
        self.plan().iter().map(|p| (p.m, p.o)).collect()
    }

    /// Analytic ceiling on the traffic a *well-behaved* client sends the
    /// server over one full cold session under this plan. Serving
    /// governors use it as the per-session inbound quota: the planner
    /// knows every op's communication shape (the same γ(N−1)·m·n·elem
    /// counts `tests/comm_shape.rs` pins), so a peer whose inbound volume
    /// exceeds the ceiling is provably not running the protocol and can
    /// be evicted.
    ///
    /// The bound is deliberately generous — each term is an over-estimate
    /// of the corresponding protocol phase, and the total carries a 4×
    /// slack factor — because a false eviction of an honest client is far
    /// worse than letting a flood run a few times longer than necessary.
    #[must_use]
    pub fn inbound_ceiling(&self) -> CommCeiling {
        let cfg = &self.graph.config;
        let ring_bytes = cfg.ring.byte_len() as u64;
        let ring_bits = u64::from(cfg.ring.bits());
        let gamma = cfg.scheme.gamma() as u64;
        // Hello, base-OT setup (κ Edwards points + ciphertexts), and
        // per-phase framing slop.
        let mut frames: u64 = 64;
        let mut bytes: u64 = 1 << 16;
        for p in self.plan() {
            // KK13 fragment OTs: the client sends its masked triplet
            // messages — Σ over fragments of (N−1)·m·n messages of
            // `o`-element length (comm_shape.rs pins this count exactly) —
            // plus per-extension column/correction overhead folded into
            // the slack below.
            let elem = p.o as u64 * ring_bytes;
            let masked: u64 = cfg
                .scheme
                .fragments()
                .iter()
                .map(|f| (f.n - 1) * (p.m as u64) * (p.n as u64) * elem)
                .sum();
            bytes += masked;
            frames += gamma + 8;
        }
        for p in self.matmul_plans() {
            // Interactive matrix-triple generation: m·n·k scalar Gilboa
            // products at ℓ correlated OTs each. The client's IKNP column
            // matrices (16 bytes per OT), corrections (one ring element per
            // OT) and base-OT setup stay under 64 bytes per OT.
            let ots = (p.m * p.k * p.n) as u64 * ring_bits;
            bytes += ots * 64;
            // Online openings `D‖E` plus framing.
            bytes += (p.m * p.k + p.k * p.n) as u64 * ring_bytes;
            frames += 16;
        }
        for op in &self.graph.ops {
            if op.is_reshare() {
                // GC evaluation: the client garbles, so its tables and the
                // OT-extension traffic for the server's input labels flow
                // inbound. For the cheap comparison-style circuits (ReLU,
                // max-pool, the matmul closing trunc-reshare) 64 bytes per
                // output wire dominates; the extended nonlinearities
                // (softmax/GELU/LayerNorm) garble multiply/divide/isqrt
                // cores of O(ℓ²) AND gates per element, bounded by an extra
                // 256·ℓ bytes per wire.
                let per_wire = if op.is_extended() { 64 + 256 * ring_bits } else { 64 };
                let wires = (op.out_len() * self.batch) as u64 * ring_bits;
                bytes += wires * per_wire;
                frames += 32;
            }
        }
        // Online: blinded input shares plus small per-op exchanges.
        bytes += (self.graph.input_len() * self.batch) as u64 * ring_bytes;
        bytes += self.graph.ops.len() as u64 * 4096;
        frames += self.graph.ops.len() as u64 * 8;
        CommCeiling { frames: frames * 4, bytes: bytes * 4 }
    }
}

/// Upper bound on one direction of a session's traffic, as computed by
/// [`SecureGraph::inbound_ceiling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommCeiling {
    /// Maximum number of frames.
    pub frames: u64,
    /// Maximum total payload bytes.
    pub bytes: u64,
}

/// `W·X + b + U` — the server's online share of any linear op. `weights`
/// is row-major `m × n`, `bias` has one entry per output row (broadcast
/// over the `o` input columns). Exposed so baseline protocols can share
/// the identical online linear step with their own offline triplets.
///
/// # Panics
///
/// Panics if `weights`, `bias`, `x` or `u` disagree with `m × n` and
/// `x.cols()`.
#[must_use]
pub fn linear_share(
    weights: &[i64],
    bias: &[u64],
    m: usize,
    n: usize,
    x: &Matrix,
    u: &Matrix,
    ring: Ring,
) -> Matrix {
    assert_eq!(weights.len(), m * n, "weight shape mismatch");
    assert_eq!(bias.len(), m, "bias shape mismatch");
    assert_eq!(x.rows(), n, "input rows mismatch");
    assert_eq!((u.rows(), u.cols()), (m, x.cols()), "triplet share shape mismatch");
    let o = x.cols();
    let mut y = Matrix::zeros(m, o);
    for i in 0..m {
        let row = &weights[i * n..(i + 1) * n];
        for k in 0..o {
            let mut acc = ring.add(bias[i], u.get(i, k));
            for (j, &w) in row.iter().enumerate() {
                acc = acc.wrapping_add(x.get(j, k).wrapping_mul(w as u64));
            }
            y.set(i, k, ring.reduce(acc));
        }
    }
    y
}

/// `W·R` over the ring — the right-hand side of the triplet relation,
/// shared by the dealer ([`crate::bundle::dealer_bundle_for`]) and tests.
#[must_use]
pub fn weight_product(weights: &[i64], m: usize, n: usize, r: &Matrix, ring: Ring) -> Matrix {
    assert_eq!(weights.len(), m * n, "weight shape mismatch");
    assert_eq!(r.rows(), n, "randomness rows mismatch");
    let o = r.cols();
    let mut wr = Matrix::zeros(m, o);
    for i in 0..m {
        let row = &weights[i * n..(i + 1) * n];
        for k in 0..o {
            let mut acc = 0u64;
            for (j, &w) in row.iter().enumerate() {
                acc = acc.wrapping_add(r.get(j, k).wrapping_mul(w as u64));
            }
            wr.set(i, k, ring.reduce(acc));
        }
    }
    wr
}

pub(crate) fn check_shapes(
    matrices: &[Matrix],
    shapes: &[(usize, usize)],
    what: &'static str,
) -> Result<(), ProtocolError> {
    if matrices.len() != shapes.len()
        || matrices.iter().zip(shapes).any(|(m, &(r, c))| m.rows() != r || m.cols() != c)
    {
        return Err(ProtocolError::Malformed(what));
    }
    Ok(())
}

pub(crate) fn check_mat_shapes(
    mats: &[MatrixTriple],
    plans: &[MatmulPlan],
) -> Result<(), ProtocolError> {
    if mats.len() != plans.len() || mats.iter().zip(plans).any(|(t, p)| !t.fits(p.m, p.k, p.n)) {
        return Err(ProtocolError::Malformed("offline state does not fit the graph"));
    }
    Ok(())
}

/// Reshapes a party's flat tape slot into the effective `k × n` right
/// operand of a secret×secret matmul. With `transpose_b` the slot stores
/// `B` row-major as `n × k`; transposition is linear, so each party
/// transposes its share locally and the matrix triple never sees the
/// storage layout.
pub(crate) fn reshape_rhs(slot: &Matrix, k: usize, n: usize, transpose_b: bool) -> Matrix {
    let data = slot.as_slice().to_vec();
    if transpose_b {
        Matrix::new(n, k, data).transpose()
    } else {
        Matrix::new(k, n, data)
    }
}

/// Offline phase, client half: walks the graph as a tape machine sampling
/// the input mask, one fresh mask per re-sharing op, one §4.1 triplet per
/// linear op, and one matrix Beaver triple per secret×secret matmul op.
/// The tape carries the client's offline-known share of every activation:
/// the input mask `R⁰`, `V` after each linear op (im2col'ed for conv), and
/// the fresh mask after each re-sharing op — which is exactly the triplet
/// randomness each downstream linear op consumes.
///
/// # Errors
///
/// Returns [`ProtocolError`] on any subprotocol failure.
pub fn client_offline_with<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    mut session: ClientSession,
    sg: &SecureGraph,
    exec: ExecConfig,
    rng: &mut R,
) -> Result<ClientOffline, ProtocolError> {
    let config = &sg.graph().config;
    let (ring, scheme) = (config.ring, config.scheme.clone());
    // Parallel offline schedule: worker threads for local OT compute only,
    // the wire transcript is byte-identical for any thread count.
    session.kk.set_threads(exec.threads);
    let batch = sg.batch();
    let mut rs = Vec::with_capacity(sg.graph().mask_count());
    let mut vs = Vec::with_capacity(sg.graph().linear_count());
    let mut mats = Vec::with_capacity(sg.graph().matmul_count());
    let mut ots: Option<(IknpSender, IknpReceiver)> = None;
    let mut tape: Vec<Matrix> = Vec::with_capacity(sg.graph().ops.len() + 1);
    tape.push(Matrix::random(sg.graph().input_len(), batch, &ring, rng));
    rs.push(tape[0].clone());
    for (i, op) in sg.graph().ops.iter().enumerate() {
        let out = match *op {
            LayerOp::Dense { out_dim, .. } => {
                ch.mark_phase(&format!("offline:op{i}/dense"));
                let v = triplet_client_with(
                    ch,
                    &mut session.kk,
                    &tape[i],
                    out_dim,
                    &scheme,
                    ring,
                    exec.triplet(TripletMode::for_batch(batch)),
                    rng,
                )?;
                vs.push(v.clone());
                v
            }
            LayerOp::Linear { out_dim, src, .. } => {
                ch.mark_phase(&format!("offline:op{i}/linear"));
                let v = triplet_client_with(
                    ch,
                    &mut session.kk,
                    &tape[src],
                    out_dim,
                    &scheme,
                    ring,
                    exec.triplet(TripletMode::for_batch(batch)),
                    rng,
                )?;
                vs.push(v.clone());
                v
            }
            LayerOp::Conv { out_channels, in_shape, kh, kw, stride } => {
                ch.mark_phase(&format!("offline:op{i}/conv"));
                let r_col = im2col(tape[i].as_slice(), in_shape, kh, kw, stride);
                let mode = TripletMode::for_batch(r_col.cols());
                let v = triplet_client_with(
                    ch,
                    &mut session.kk,
                    &r_col,
                    out_channels,
                    &scheme,
                    ring,
                    exec.triplet(mode),
                    rng,
                )?;
                vs.push(v.clone());
                v
            }
            LayerOp::MatMulSS { m, k, n, .. } => {
                ch.mark_phase(&format!("offline:op{i}/matmulss"));
                let pair = match &mut ots {
                    Some(pair) => pair,
                    slot @ None => {
                        // Mirror of the server's lazy setup: sender first.
                        let mut s = IknpSender::setup(ch, rng)?;
                        let mut r = IknpReceiver::setup(ch, rng)?;
                        s.set_threads(exec.threads);
                        r.set_threads(exec.threads);
                        slot.insert((s, r))
                    }
                };
                mats.push(generate_matrix_p1(ch, &mut pair.0, &mut pair.1, m, k, n, ring, rng)?);
                let fresh = Matrix::random(m * n, batch, &ring, rng);
                rs.push(fresh.clone());
                fresh
            }
            LayerOp::Relu { .. }
            | LayerOp::MaxPool { .. }
            | LayerOp::Softmax { .. }
            | LayerOp::Gelu { .. }
            | LayerOp::LayerNorm { .. } => {
                let fresh = Matrix::random(op.out_len(), batch, &ring, rng);
                rs.push(fresh.clone());
                fresh
            }
            LayerOp::Output { .. } => break,
        };
        tape.push(out);
    }
    Ok(ClientOffline { session, rs, vs, mats, batch })
}

/// Online phase, client half: blinds the input with the offline mask,
/// walks the graph supplying its half of each re-sharing circuit, and
/// returns the session plus the client's share of the output op's input
/// (the final linear op's `V`).
///
/// # Errors
///
/// [`ProtocolError::Dimension`] if `x` does not match the graph's input
/// shape; [`ProtocolError::Malformed`] if the offline state does not fit
/// the graph; any subprotocol error otherwise.
pub fn client_online_to_logits<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    state: ClientOffline,
    sg: &SecureGraph,
    exec: ExecConfig,
    x: &Matrix,
    rng: &mut R,
) -> Result<(ClientSession, Matrix), ProtocolError> {
    let ClientOffline { mut session, rs, vs, mats, batch } = state;
    let config = &sg.graph().config;
    let (ring, f, fw) = (config.ring, config.frac_bits, config.weight_frac_bits);
    if batch != sg.batch() {
        return Err(ProtocolError::Malformed("offline state batch mismatch"));
    }
    check_shapes(&rs, &sg.mask_shapes(), "offline state does not fit the graph")?;
    check_shapes(&vs, &sg.triplet_shapes(), "offline state does not fit the graph")?;
    check_mat_shapes(&mats, &sg.matmul_plans())?;
    if x.rows() != sg.graph().input_len() || x.cols() != batch {
        return Err(ProtocolError::Dimension("input dimension mismatch"));
    }

    ch.mark_phase("online:input");
    let x0 = x.sub(&rs[0], &ring);
    ch.send_frame(&BlindedInput(ring.encode_slice(x0.as_slice())))?;

    let (mut li, mut mi, mut qi) = (0usize, 1usize, 0usize);
    let mut tape: Vec<&Matrix> = Vec::with_capacity(sg.graph().ops.len() + 1);
    tape.push(&rs[0]);
    for (i, op) in sg.graph().ops.iter().enumerate() {
        ch.mark_phase(&format!("online:op{i}/{}", op.kind()));
        let out = match *op {
            LayerOp::Dense { .. } | LayerOp::Linear { .. } | LayerOp::Conv { .. } => {
                li += 1;
                &vs[li - 1]
            }
            LayerOp::Relu { .. } => {
                relu_client(
                    ch,
                    &mut session.yao,
                    tape[i].as_slice(),
                    rs[mi].as_slice(),
                    ring,
                    fw,
                    exec.variant,
                    rng,
                )?;
                mi += 1;
                &rs[mi - 1]
            }
            LayerOp::MaxPool { shape, window } => {
                maxpool_client(
                    ch,
                    &mut session.yao,
                    tape[i].as_slice(),
                    rs[mi].as_slice(),
                    shape,
                    window,
                    ring,
                    rng,
                )?;
                mi += 1;
                &rs[mi - 1]
            }
            LayerOp::MatMulSS { m, k, n, transpose_b, shift, a_src, b_src } => {
                let a = Matrix::new(m, k, tape[a_src].as_slice().to_vec());
                let b = reshape_rhs(tape[b_src], k, n, transpose_b);
                let p1 = mul_matrix_shares(ch, &mats[qi], &a, &b, ring, 1)?;
                qi += 1;
                matmul_close_client(
                    ch,
                    &mut session.yao,
                    p1.as_slice(),
                    rs[mi].as_slice(),
                    ring,
                    shift,
                    rng,
                )?;
                mi += 1;
                &rs[mi - 1]
            }
            LayerOp::Softmax { rows, cols, shift } => {
                softmax_client(
                    ch,
                    &mut session.yao,
                    tape[i].as_slice(),
                    rs[mi].as_slice(),
                    rows,
                    cols,
                    ring,
                    shift,
                    f,
                    rng,
                )?;
                mi += 1;
                &rs[mi - 1]
            }
            LayerOp::Gelu { shift, .. } => {
                gelu_client(
                    ch,
                    &mut session.yao,
                    tape[i].as_slice(),
                    rs[mi].as_slice(),
                    ring,
                    shift,
                    f,
                    rng,
                )?;
                mi += 1;
                &rs[mi - 1]
            }
            LayerOp::LayerNorm { tokens, dim, a_src, b_src, shift_a, shift_b } => {
                layernorm_client(
                    ch,
                    &mut session.yao,
                    tape[a_src].as_slice(),
                    tape[b_src].as_slice(),
                    rs[mi].as_slice(),
                    tokens,
                    dim,
                    ring,
                    shift_a,
                    shift_b,
                    f,
                    rng,
                )?;
                mi += 1;
                &rs[mi - 1]
            }
            LayerOp::Output { .. } => {
                let y1 = tape[i].clone();
                return Ok((session, y1));
            }
        };
        tape.push(out);
    }
    Err(ProtocolError::Dimension("graph missing output op"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::FragmentScheme;

    fn config() -> QuantConfig {
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        }
    }

    #[test]
    fn mlp_plan_follows_the_batch_rule() {
        let g = LayerGraph::mlp(&[12, 8, 6, 4], config());
        let sg = SecureGraph::new(g, 3).unwrap();
        let plan = sg.plan();
        assert_eq!(plan.len(), 3);
        assert_eq!((plan[0].m, plan[0].n, plan[0].o), (8, 12, 3));
        assert!(plan.iter().all(|p| p.mode == TripletMode::MultiBatch));
        let sg1 = SecureGraph::new(sg.graph().clone(), 1).unwrap();
        assert!(sg1.plan().iter().all(|p| p.mode == TripletMode::OneBatch));
        assert_eq!(sg1.mask_shapes(), vec![(12, 1), (8, 1), (6, 1)]);
        assert_eq!(sg1.triplet_shapes(), vec![(8, 1), (6, 1), (4, 1)]);
    }

    #[test]
    fn cnn_plan_uses_positions_as_batch() {
        let in_shape = abnn2_nn::ConvShape { channels: 1, height: 8, width: 8 };
        let g = LayerGraph::cnn(in_shape, 2, (3, 3, 1), 2, &[18, 6, 4], config());
        let sg = SecureGraph::new(g, 1).unwrap();
        let plan = sg.plan();
        assert_eq!(plan.len(), 3);
        // conv: 2 filters over 1·3·3 patches at 6×6 = 36 positions.
        assert_eq!((plan[0].m, plan[0].n, plan[0].o), (2, 9, 36));
        assert_eq!(plan[0].mode, TripletMode::MultiBatch);
        assert_eq!(plan[0].kind, "conv");
        assert_eq!((plan[1].o, plan[1].mode), (1, TripletMode::OneBatch));
        // masks: input image, conv-relu map, pooled map, dense-relu vector.
        assert_eq!(sg.mask_shapes(), vec![(64, 1), (72, 1), (18, 1), (6, 1)]);
        assert_eq!(sg.triplet_shapes(), vec![(2, 36), (6, 1), (4, 1)]);
    }

    #[test]
    fn spatial_graphs_reject_multi_sample_batches() {
        let in_shape = abnn2_nn::ConvShape { channels: 1, height: 8, width: 8 };
        let g = LayerGraph::cnn(in_shape, 2, (3, 3, 1), 2, &[18, 4], config());
        assert!(matches!(SecureGraph::new(g, 2), Err(ProtocolError::Dimension(_))));
        let g = LayerGraph::mlp(&[12, 4], config());
        assert!(SecureGraph::new(g, 2).is_ok());
    }

    #[test]
    fn linear_share_and_weight_product_agree_with_triplet_relation() {
        let ring = Ring::new(32);
        let weights: Vec<i64> = vec![1, -2, 3, 0, 5, -1];
        let bias = vec![7u64, 11];
        let r = Matrix::new(3, 2, vec![1, 2, 3, 4, 5, 6]);
        let u = Matrix::new(2, 2, vec![9, 8, 7, 6]);
        let y = linear_share(&weights, &bias, 2, 3, &r, &u, ring);
        let wr = weight_product(&weights, 2, 3, &r, ring);
        for (i, &b) in bias.iter().enumerate() {
            for k in 0..2 {
                let expect = ring.add(ring.add(wr.get(i, k), b), u.get(i, k));
                assert_eq!(y.get(i, k), expect);
            }
        }
    }
}

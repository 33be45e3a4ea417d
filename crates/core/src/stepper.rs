//! The server's protocol executor, one step at a time.
//!
//! Both server flows — the blocking [`crate::SecureServer`] calls and the
//! suspendable [`crate::driver::SessionDriver`] — walk the same cursors:
//!
//! * [`SetupCursor`](crate::session::SetupCursor): fragment-OT base
//!   setup, then Yao base setup;
//! * [`OfflineCursor`]: for each linear op and fragment, one step for the
//!   fragment-OT extension and one to receive and decode the masked
//!   triplet messages ([`TripletCursor`]), plus one step per
//!   secret×secret matmul op;
//! * [`OnlineCursor`]: the blinded-input step, then one step per graph op.
//!
//! **Step invariant.** A step mutates its cursor only after its last
//! recv; state a step changes before or while receiving (the fragment
//! chooser, the Yao evaluator, the matmul IKNP pair) is worked on as a
//! copy and committed at the end. So a step that fails — in particular
//! one that parks on a frame that has not arrived — leaves the cursor
//! exactly as it was, and the driver re-runs only that step. The blocking
//! flows call `step` in a loop over a blocking transport, where no step
//! ever parks.

use crate::cnn::maxpool_server;
use crate::config::ExecConfig;
use crate::frames::BlindedInput;
use crate::graph::{check_mat_shapes, check_shapes, linear_share, reshape_rhs};
use crate::graph::{SecureGraph, ServedModel, TripletPlan};
use crate::inference::ServerOffline;
use crate::matbeaver::{generate_matrix_p0, mul_matrix_shares, MatrixTriple};
use crate::matmul::TripletCursor;
use crate::nonlinear::{gelu_server, layernorm_server, matmul_close_server, softmax_server};
use crate::relu::relu_server;
use crate::session::ServerSession;
use crate::ProtocolError;
use abnn2_gc::YaoEvaluator;
use abnn2_math::Matrix;
use abnn2_net::Transport;
use abnn2_nn::conv::im2col;
use abnn2_nn::graph::{LayerOp, OpResource};
use abnn2_ot::{IknpReceiver, IknpSender};
use rand::Rng;

/// Offline phase, server half: one §4.1 triplet per linear op and one
/// matrix Beaver triple per secret×secret matmul op, generated over an
/// established session. The Gilboa cross products behind matrix triples
/// run over a dedicated IKNP pair, set up lazily at the first matmul op —
/// graphs without matmul ops (MLP/CNN) send exactly the same bytes as
/// before the extension.
#[derive(Debug)]
pub(crate) struct OfflineCursor {
    session: ServerSession,
    sg: SecureGraph,
    plans: Vec<TripletPlan>,
    exec: ExecConfig,
    /// The graph op the next step works on; always an op with an offline
    /// resource, or `ops.len()` once the walk is complete.
    op: usize,
    /// The linear op in progress, between its fragment steps.
    triplet: Option<TripletCursor>,
    us: Vec<Matrix>,
    mats: Vec<MatrixTriple>,
    ots: Option<(IknpReceiver, IknpSender)>,
}

impl OfflineCursor {
    pub(crate) fn new(mut session: ServerSession, sg: SecureGraph, exec: ExecConfig) -> Self {
        // Parallel offline schedule: worker threads for local OT compute
        // only, the wire transcript is byte-identical for any thread count.
        session.kk.set_threads(exec.threads);
        let graph = sg.graph();
        let (us, mats) =
            (Vec::with_capacity(graph.linear_count()), Vec::with_capacity(graph.matmul_count()));
        let mut cursor = OfflineCursor {
            plans: sg.plan(),
            session,
            sg,
            exec,
            op: 0,
            triplet: None,
            us,
            mats,
            ots: None,
        };
        cursor.skip_to_resource();
        cursor
    }

    /// Whether every offline resource has been generated.
    pub(crate) fn is_done(&self) -> bool {
        self.op == self.sg.graph().ops.len()
    }

    /// Advances `op` past ops that need no offline resource.
    fn skip_to_resource(&mut self) {
        let ops = &self.sg.graph().ops;
        while self.op < ops.len()
            && matches!(ops[self.op].resource(), OpResource::FreshMask { .. } | OpResource::Output)
        {
            self.op += 1;
        }
    }

    /// Runs the next offline step. The `rng` feeds the server's
    /// matrix-triple shares; plain MLP/CNN graphs never draw from it.
    pub(crate) fn step<T: Transport, R: Rng + ?Sized>(
        &mut self,
        ch: &mut T,
        model: &ServedModel,
        rng: &mut R,
    ) -> Result<(), ProtocolError> {
        let i = self.op;
        let config = &self.sg.graph().config;
        let ring = config.ring;
        if let Some(triplet) = &mut self.triplet {
            let u = if triplet.awaiting_masks() {
                triplet.step(ch, &mut self.session.kk, ring)?
            } else {
                let mut kk = self.session.kk.clone();
                let u = triplet.step(ch, &mut kk, ring)?;
                self.session.kk = kk;
                u
            };
            if let Some(u) = u {
                self.us.push(u);
                self.triplet = None;
                self.op += 1;
                self.skip_to_resource();
            }
            return Ok(());
        }
        match self.sg.graph().ops.get(i).map(LayerOp::resource) {
            Some(OpResource::Triplet { m, n }) => {
                let plan = self.plans[self.us.len()];
                let (weights, _) = model.linear_params(plan.linear);
                if weights.len() != m * n {
                    return Err(ProtocolError::Dimension("model does not match graph"));
                }
                ch.mark_phase(&format!("offline:op{i}/{}", plan.kind));
                let cfg = self.exec.triplet(plan.mode);
                let mut triplet =
                    TripletCursor::new(weights, plan.m, plan.n, plan.o, &config.scheme, cfg)?;
                let mut kk = self.session.kk.clone();
                triplet.step(ch, &mut kk, ring)?;
                self.session.kk = kk;
                self.triplet = Some(triplet);
            }
            Some(OpResource::MatTriple { m, k, n }) => {
                ch.mark_phase(&format!("offline:op{i}/matmulss"));
                let mut pair = match &self.ots {
                    Some(pair) => pair.clone(),
                    None => {
                        let mut r = IknpReceiver::setup(ch, rng)?;
                        let mut s = IknpSender::setup(ch, rng)?;
                        r.set_threads(self.exec.threads);
                        s.set_threads(self.exec.threads);
                        (r, s)
                    }
                };
                let triple = generate_matrix_p0(ch, &mut pair.0, &mut pair.1, m, k, n, ring, rng)?;
                self.ots = Some(pair);
                self.mats.push(triple);
                self.op += 1;
                self.skip_to_resource();
            }
            // invariant: `op` only rests on a resource op or past the end,
            // and the driver stops stepping once `is_done`.
            Some(OpResource::FreshMask { .. } | OpResource::Output) | None => {
                return Err(ProtocolError::Dimension("offline walk has no step left"));
            }
        }
        Ok(())
    }

    /// The offline state, once [`is_done`](Self::is_done).
    pub(crate) fn finish(self) -> ServerOffline {
        ServerOffline {
            session: self.session,
            us: self.us,
            mats: self.mats,
            batch: self.sg.batch(),
        }
    }
}

/// Online phase, server half: receives the blinded input, then walks the
/// graph combining planned triplets with garbled-circuit re-shares, and
/// ends with the server's share of the output op's input — the caller
/// decides whether to open it ([`crate::SecureServer::online`]) or feed it
/// to a masked argmax ([`crate::SecureServer::online_classify`]).
#[derive(Debug)]
pub(crate) struct OnlineCursor {
    session: ServerSession,
    us: Vec<Matrix>,
    mats: Vec<MatrixTriple>,
    sg: SecureGraph,
    exec: ExecConfig,
    /// Slot 0 holds the blinded input, slot `i + 1` op `i`'s output
    /// share; its length is the cursor (empty: the input step is next).
    tape: Vec<Matrix>,
    /// Linear ops and matmul ops walked so far (index `us` / `mats`).
    linear: usize,
    matmul: usize,
}

impl OnlineCursor {
    /// Checks that the offline state fits the graph.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on a batch or shape mismatch.
    pub(crate) fn new(
        state: ServerOffline,
        sg: SecureGraph,
        exec: ExecConfig,
    ) -> Result<Self, ProtocolError> {
        let ServerOffline { session, us, mats, batch } = state;
        if batch != sg.batch() {
            return Err(ProtocolError::Malformed("offline state batch mismatch"));
        }
        check_shapes(&us, &sg.triplet_shapes(), "offline state does not fit the graph")?;
        check_mat_shapes(&mats, &sg.matmul_plans())?;
        let tape = Vec::with_capacity(sg.graph().ops.len() + 1);
        Ok(OnlineCursor { session, us, mats, sg, exec, tape, linear: 0, matmul: 0 })
    }

    /// Runs the next online step; returns the server's share of the
    /// output op's input once the walk reaches the output op.
    pub(crate) fn step<T: Transport>(
        &mut self,
        ch: &mut T,
        model: &ServedModel,
    ) -> Result<Option<Matrix>, ProtocolError> {
        let graph = self.sg.graph();
        let (ring, batch) = (graph.config.ring, self.sg.batch());
        let Some(i) = self.tape.len().checked_sub(1) else {
            ch.mark_phase("online:input");
            let n0 = graph.input_len();
            let BlindedInput(x0_bytes) = ch.recv_frame()?;
            if x0_bytes.len() != n0 * batch * ring.byte_len() {
                return Err(ProtocolError::Malformed("blinded input length"));
            }
            self.tape.push(Matrix::new(n0, batch, ring.decode_slice(&x0_bytes)));
            return Ok(None);
        };
        let op = graph.ops.get(i).ok_or(ProtocolError::Dimension("graph missing output op"))?;
        ch.mark_phase(&format!("online:op{i}/{}", op.kind()));
        let (tape, li) = (&self.tape, self.linear);
        let out = match *op {
            LayerOp::Dense { out_dim, in_dim } => {
                let (weights, bias) = model.linear_params(li);
                linear_share(weights, bias, out_dim, in_dim, &tape[i], &self.us[li], ring)
            }
            LayerOp::Linear { out_dim, in_dim, src } => {
                let (weights, bias) = model.linear_params(li);
                linear_share(weights, bias, out_dim, in_dim, &tape[src], &self.us[li], ring)
            }
            LayerOp::Conv { out_channels, in_shape, kh, kw, stride } => {
                let (weights, bias) = model.linear_params(li);
                let x_col = im2col(tape[i].as_slice(), in_shape, kh, kw, stride);
                let patch = in_shape.channels * kh * kw;
                linear_share(weights, bias, out_channels, patch, &x_col, &self.us[li], ring)
            }
            LayerOp::Output { .. } => return Ok(Some(tape[i].clone())),
            _ => {
                // Re-sharing ops receive mid-op: run on a copy of the Yao
                // evaluator, committed with the op's output.
                let mut yao = self.session.yao.clone();
                let out = self.reshare(ch, &mut yao, op, i)?;
                self.session.yao = yao;
                if matches!(op, LayerOp::MatMulSS { .. }) {
                    self.matmul += 1;
                }
                self.tape.push(out);
                return Ok(None);
            }
        };
        self.linear += 1;
        self.tape.push(out);
        Ok(None)
    }

    /// The server's output share of re-sharing op `i` (a garbled circuit,
    /// preceded by the Beaver openings for a secret×secret matmul).
    fn reshare<T: Transport>(
        &self,
        ch: &mut T,
        yao: &mut YaoEvaluator,
        op: &LayerOp,
        i: usize,
    ) -> Result<Matrix, ProtocolError> {
        let config = &self.sg.graph().config;
        let (ring, f, fw) = (config.ring, config.frac_bits, config.weight_frac_bits);
        let (tape, batch) = (&self.tape, self.sg.batch());
        Ok(match *op {
            LayerOp::Relu { dim } => {
                let z0 = relu_server(ch, yao, tape[i].as_slice(), ring, fw, self.exec.variant)?;
                Matrix::new(dim, batch, z0)
            }
            LayerOp::MaxPool { shape, window } => {
                Matrix::column(maxpool_server(ch, yao, tape[i].as_slice(), shape, window, ring)?)
            }
            LayerOp::MatMulSS { m, k, n, transpose_b, shift, a_src, b_src } => {
                let a = Matrix::new(m, k, tape[a_src].as_slice().to_vec());
                let b = reshape_rhs(&tape[b_src], k, n, transpose_b);
                let p0 = mul_matrix_shares(ch, &self.mats[self.matmul], &a, &b, ring, 0)?;
                let z0 = matmul_close_server(ch, yao, p0.as_slice(), ring, shift)?;
                Matrix::new(m * n, batch, z0)
            }
            LayerOp::Softmax { rows, cols, shift } => {
                let z0 = softmax_server(ch, yao, tape[i].as_slice(), rows, cols, ring, shift, f)?;
                Matrix::new(rows * cols, batch, z0)
            }
            LayerOp::Gelu { dim, shift } => {
                let z0 = gelu_server(ch, yao, tape[i].as_slice(), ring, shift, f)?;
                Matrix::new(dim, batch, z0)
            }
            LayerOp::LayerNorm { tokens, dim, a_src, b_src, shift_a, shift_b } => {
                let z0 = layernorm_server(
                    ch,
                    yao,
                    tape[a_src].as_slice(),
                    tape[b_src].as_slice(),
                    tokens,
                    dim,
                    ring,
                    shift_a,
                    shift_b,
                    f,
                )?;
                Matrix::new(tokens * dim, batch, z0)
            }
            // invariant: `step` routes only re-sharing ops here.
            LayerOp::Dense { .. }
            | LayerOp::Linear { .. }
            | LayerOp::Conv { .. }
            | LayerOp::Output { .. } => {
                return Err(ProtocolError::Dimension("not a re-sharing op"));
            }
        })
    }

    /// The session, for a post-output protocol (masked argmax).
    pub(crate) fn into_session(self) -> ServerSession {
        self.session
    }
}

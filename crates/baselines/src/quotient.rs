//! QUOTIENT's ternary multiplication (Agrawal et al., CCS 2019).
//!
//! QUOTIENT restricts weights to {−1, 0, 1} and evaluates each ternary
//! product as **two binary products** via correlated 1-out-of-2 OTs:
//! `w = w⁺ − w⁻` with `w⁺ = [w = 1]`, `w⁻ = [w = −1]`, so
//! `w·r = w⁺·r − w⁻·r`. ABNN² instead spends a single 1-out-of-3 OT
//! (Table 5's comparison).
//!
//! As in [`crate::secureml`], the server (weight holder) is the OT chooser
//! and the client supplies correlations built from its randomness `r`.

use abnn2_core::ProtocolError;
use abnn2_math::{Matrix, Ring};
use abnn2_net::Transport;
use abnn2_ot::{IknpReceiver, IknpSender};

/// Server side: learns `u` with `u + v = W·r (mod 2^ℓ)` for ternary
/// weights.
///
/// # Errors
///
/// Returns [`ProtocolError`] on dimension mismatch, out-of-domain weights,
/// or OT failure.
pub fn matvec_server<T: Transport>(
    ch: &mut T,
    ot: &mut IknpReceiver,
    weights: &[i64],
    m: usize,
    n: usize,
    ring: Ring,
) -> Result<Vec<u64>, ProtocolError> {
    if weights.len() != m * n {
        return Err(ProtocolError::Dimension("weights length must be m*n"));
    }
    if !weights.iter().all(|&w| (-1..=1).contains(&w)) {
        return Err(ProtocolError::Dimension("weight outside ternary domain"));
    }
    // Two choice bits per weight: [w = 1] then [w = −1].
    let choices: Vec<bool> = weights.iter().flat_map(|&w| [w == 1, w == -1]).collect();
    let got = ot.recv_correlated(ch, &choices, ring)?;
    let mut u = vec![0u64; m];
    for (t, &x) in got.iter().enumerate() {
        let idx = t / 2;
        let i = idx / n;
        // The second OT of each pair carries the negative branch.
        if t % 2 == 0 {
            u[i] = ring.add(u[i], x);
        } else {
            u[i] = ring.sub(u[i], x);
        }
    }
    Ok(u)
}

/// Client side: learns `v` with `u + v = W·r (mod 2^ℓ)`.
///
/// # Errors
///
/// Returns [`ProtocolError`] on OT failure.
pub fn matvec_client<T: Transport>(
    ch: &mut T,
    ot: &mut IknpSender,
    r: &[u64],
    m: usize,
    ring: Ring,
) -> Result<Vec<u64>, ProtocolError> {
    let n = r.len();
    // Correlation r_j for both the positive and the negative OT of each
    // weight.
    let deltas: Vec<u64> = (0..m * n * 2).map(|t| r[(t / 2) % n]).collect();
    let x0s = ot.send_correlated(ch, &deltas, ring)?;
    let mut v = vec![0u64; m];
    for (t, &x0) in x0s.iter().enumerate() {
        let idx = t / 2;
        let i = idx / n;
        if t % 2 == 0 {
            v[i] = ring.sub(v[i], x0);
        } else {
            v[i] = ring.add(v[i], x0);
        }
    }
    Ok(v)
}

/// Batched matrix-triplet server: like [`matvec_server`] but each OT packs
/// the whole batch row (QUOTIENT amortizes across a batch the same way
/// ABNN²'s multi-batch mode does). Output `U` is `m×o`.
///
/// # Errors
///
/// Returns [`ProtocolError`] on dimension mismatch or OT failure.
pub fn matmul_server<T: Transport>(
    ch: &mut T,
    ot: &mut IknpReceiver,
    weights: &[i64],
    m: usize,
    n: usize,
    o: usize,
    ring: Ring,
) -> Result<Matrix, ProtocolError> {
    if weights.len() != m * n {
        return Err(ProtocolError::Dimension("weights length must be m*n"));
    }
    if !weights.iter().all(|&w| (-1..=1).contains(&w)) {
        return Err(ProtocolError::Dimension("weight outside ternary domain"));
    }
    let choices: Vec<bool> = weights.iter().flat_map(|&w| [w == 1, w == -1]).collect();
    let got = ot.recv_correlated_vec(ch, &choices, o, ring)?;
    let mut u = Matrix::zeros(m, o);
    for (t, xs) in got.iter().enumerate() {
        let i = (t / 2) / n;
        for (k, &x) in xs.iter().enumerate() {
            let cur = u.get(i, k);
            u.set(i, k, if t % 2 == 0 { ring.add(cur, x) } else { ring.sub(cur, x) });
        }
    }
    Ok(u)
}

/// Batched matrix-triplet client for its random `R` (`n×o`).
///
/// # Errors
///
/// Returns [`ProtocolError`] on OT failure.
pub fn matmul_client<T: Transport>(
    ch: &mut T,
    ot: &mut IknpSender,
    r: &Matrix,
    m: usize,
    ring: Ring,
) -> Result<Matrix, ProtocolError> {
    let n = r.rows();
    let o = r.cols();
    let deltas: Vec<Vec<u64>> = (0..m * n * 2).map(|t| r.row((t / 2) % n).to_vec()).collect();
    let x0s = ot.send_correlated_vec(ch, &deltas, ring)?;
    let mut v = Matrix::zeros(m, o);
    for (t, xs) in x0s.iter().enumerate() {
        let i = (t / 2) / n;
        for (k, &x0) in xs.iter().enumerate() {
            let cur = v.get(i, k);
            v.set(i, k, if t % 2 == 0 { ring.sub(cur, x0) } else { ring.add(cur, x0) });
        }
    }
    Ok(v)
}

pub use inference::{QuotientClient, QuotientServer};

/// End-to-end QUOTIENT inference: their ternary triplets for the offline
/// linear layers, ABNN²'s shared online machinery for everything else.
pub mod inference {
    use super::{matmul_client, matmul_server};
    use crate::mlp_dims;
    use abnn2_core::graph::linear_share;
    use abnn2_core::relu::{relu_client, relu_server, ReluVariant};
    use abnn2_core::{ProtocolError, PublicModel};
    use abnn2_gc::{YaoEvaluator, YaoGarbler};
    use abnn2_math::Matrix;
    use abnn2_net::Transport;
    use abnn2_nn::graph::LayerGraph;
    use abnn2_nn::quant::QuantizedNetwork;
    use abnn2_ot::{IknpReceiver, IknpSender};
    use rand::Rng;

    /// The QUOTIENT model-serving party (ternary weights only).
    #[derive(Debug, Clone)]
    pub struct QuotientServer {
        net: QuantizedNetwork,
    }

    /// The QUOTIENT data-owning party.
    #[derive(Debug, Clone)]
    pub struct QuotientClient {
        model: PublicModel,
    }

    impl QuotientServer {
        /// Serves a ternary-quantized network.
        ///
        /// # Panics
        ///
        /// Panics if any weight is outside {−1, 0, 1}.
        #[must_use]
        pub fn new(net: QuantizedNetwork) -> Self {
            assert!(
                net.layers.iter().all(|l| l.weights.iter().all(|&w| (-1..=1).contains(&w))),
                "QUOTIENT requires ternary weights"
            );
            QuotientServer { net }
        }

        /// The public model description.
        #[must_use]
        pub fn public_model(&self) -> PublicModel {
            PublicModel::from(LayerGraph::from(&self.net))
        }

        /// Offline + online secure inference, server side.
        ///
        /// # Errors
        ///
        /// Returns [`ProtocolError`] on any failure.
        pub fn run<T: Transport, R: Rng + ?Sized>(
            &self,
            ch: &mut T,
            batch: usize,
            rng: &mut R,
        ) -> Result<(), ProtocolError> {
            let ring = self.net.config.ring;
            let fw = self.net.config.weight_frac_bits;
            let mut ot = IknpReceiver::setup(ch, rng)?;
            let mut yao = YaoEvaluator::setup(ch, rng)?;
            let mut us = Vec::with_capacity(self.net.layers.len());
            for layer in &self.net.layers {
                us.push(matmul_server(
                    ch,
                    &mut ot,
                    &layer.weights,
                    layer.out_dim,
                    layer.in_dim,
                    batch,
                    ring,
                )?);
            }
            let n0 = self.net.layers[0].in_dim;
            let x0_bytes = ch.recv()?;
            if x0_bytes.len() != n0 * batch * ring.byte_len() {
                return Err(ProtocolError::Malformed("blinded input length"));
            }
            let mut cur = Matrix::new(n0, batch, ring.decode_slice(&x0_bytes));
            let last = self.net.layers.len() - 1;
            for (l, layer) in self.net.layers.iter().enumerate() {
                let y0 = linear_share(
                    &layer.weights,
                    &layer.bias,
                    layer.out_dim,
                    layer.in_dim,
                    &cur,
                    &us[l],
                    ring,
                );
                if l == last {
                    ch.send(&ring.encode_slice(y0.as_slice()))?;
                    return Ok(());
                }
                let z0 =
                    relu_server(ch, &mut yao, y0.as_slice(), ring, fw, ReluVariant::Oblivious)?;
                cur = Matrix::new(layer.out_dim, batch, z0);
            }
            unreachable!("loop returns at the last layer")
        }
    }

    impl QuotientClient {
        /// Creates a client for a served ternary model.
        #[must_use]
        pub fn new(model: PublicModel) -> Self {
            QuotientClient { model }
        }

        /// Offline + online secure inference, client side; returns the raw
        /// reconstructed outputs (`out_dim × batch`).
        ///
        /// # Errors
        ///
        /// Returns [`ProtocolError`] on any failure.
        pub fn run<T: Transport, R: Rng + ?Sized>(
            &self,
            ch: &mut T,
            inputs_fp: &[Vec<u64>],
            rng: &mut R,
        ) -> Result<Matrix, ProtocolError> {
            let dims = mlp_dims(&self.model)?;
            let ring = self.model.config().ring;
            let fw = self.model.config().weight_frac_bits;
            let batch = inputs_fp.len();
            let n0 = dims[0];
            if batch == 0 || inputs_fp.iter().any(|x| x.len() != n0) {
                return Err(ProtocolError::Dimension("inputs must be batch × n0"));
            }
            let mut ot = IknpSender::setup(ch, rng)?;
            let mut yao = YaoGarbler::setup(ch, rng)?;
            let n_layers = dims.len() - 1;
            let mut rs = Vec::with_capacity(n_layers);
            let mut vs = Vec::with_capacity(n_layers);
            for l in 0..n_layers {
                let r = Matrix::random(dims[l], batch, &ring, rng);
                let v = matmul_client(ch, &mut ot, &r, dims[l + 1], ring)?;
                rs.push(r);
                vs.push(v);
            }
            let mut x = Matrix::zeros(n0, batch);
            for (k, sample) in inputs_fp.iter().enumerate() {
                for (j, &val) in sample.iter().enumerate() {
                    x.set(j, k, ring.reduce(val));
                }
            }
            let x0 = x.sub(&rs[0], &ring);
            ch.send(&ring.encode_slice(x0.as_slice()))?;
            for l in 0..n_layers {
                let y1 = &vs[l];
                if l == n_layers - 1 {
                    let m = dims[n_layers];
                    let y0_bytes = ch.recv()?;
                    if y0_bytes.len() != m * batch * ring.byte_len() {
                        return Err(ProtocolError::Malformed("output share length"));
                    }
                    let y0 = Matrix::new(m, batch, ring.decode_slice(&y0_bytes));
                    return Ok(y0.add(y1, &ring));
                }
                relu_client(
                    ch,
                    &mut yao,
                    y1.as_slice(),
                    rs[l + 1].as_slice(),
                    ring,
                    fw,
                    ReluVariant::Oblivious,
                    rng,
                )?;
            }
            unreachable!("loop returns at the last layer")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::{Rng, SeedableRng};

    fn run_matvec(
        weights: Vec<i64>,
        m: usize,
        n: usize,
        seed: u64,
    ) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r = ring.sample_vec(&mut rng, n);
        let r2 = r.clone();
        let (u, v, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                let mut ot = IknpReceiver::setup(ch, &mut rng).expect("setup");
                matvec_server(ch, &mut ot, &weights, m, n, ring).expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let mut ot = IknpSender::setup(ch, &mut rng).expect("setup");
                matvec_client(ch, &mut ot, &r2, m, ring).expect("client")
            },
        );
        (u, v, r)
    }

    #[test]
    fn ternary_triplets_correct() {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (m, n) = (4, 7);
        let weights: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-1i64..=1)).collect();
        let (u, v, r) = run_matvec(weights.clone(), m, n, 30);
        for i in 0..m {
            let mut expect = 0u64;
            for j in 0..n {
                expect = ring.add(expect, ring.mul_signed(r[j], weights[i * n + j]));
            }
            assert_eq!(ring.add(u[i], v[i]), expect, "row {i}");
        }
    }

    #[test]
    fn all_weight_values_exercised() {
        let (u, v, r) = run_matvec(vec![-1, 0, 1], 1, 3, 40);
        let ring = Ring::new(32);
        let expect = ring.sub(r[2], r[0]);
        assert_eq!(ring.add(u[0], v[0]), expect);
    }

    #[test]
    fn batched_matmul_triplets_correct() {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let (m, n, o) = (3, 5, 4);
        let weights: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-1i64..=1)).collect();
        let r = abnn2_math::Matrix::random(n, o, &ring, &mut rng);
        let (w2, r2) = (weights.clone(), r.clone());
        let (u, v, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(51);
                let mut ot = IknpReceiver::setup(ch, &mut rng).expect("setup");
                matmul_server(ch, &mut ot, &w2, m, n, o, ring).expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(52);
                let mut ot = IknpSender::setup(ch, &mut rng).expect("setup");
                matmul_client(ch, &mut ot, &r2, m, ring).expect("client")
            },
        );
        let w_ring: Vec<u64> = weights.iter().map(|&w| ring.from_i64(w)).collect();
        let expect = abnn2_math::Matrix::new(m, n, w_ring).mul(&r, &ring);
        assert_eq!(u.add(&v, &ring), expect);
    }

    #[test]
    fn quotient_end_to_end_matches_plaintext() {
        use abnn2_math::FragmentScheme;
        use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
        use abnn2_nn::{Network, SyntheticMnist};
        let data = SyntheticMnist::generate(60, 0, 55);
        let mut net = Network::new(&[784, 8, 10], 55);
        net.train_epoch(&data.train, 0.05);
        let config = QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 0,
            scheme: FragmentScheme::ternary(),
        };
        let q = QuantizedNetwork::quantize(&net, config);
        let batch = 2;
        let codec = q.config.activation_codec();
        let inputs_fp: Vec<Vec<u64>> =
            data.train.iter().take(batch).map(|s| codec.encode_vec(&s.pixels)).collect();
        let expected: Vec<Vec<u64>> = inputs_fp.iter().map(|x| q.forward_exact(x)).collect();
        let server = inference::QuotientServer::new(q.clone());
        let client = inference::QuotientClient::new(server.public_model());
        let inputs2 = inputs_fp.clone();
        let (srv, y, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(56);
                server.run(ch, batch, &mut rng)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(57);
                client.run(ch, &inputs2, &mut rng).expect("client")
            },
        );
        srv.expect("server");
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(&y.col(k), want, "sample {k}");
        }
    }

    #[test]
    fn out_of_domain_rejected() {
        let ring = Ring::new(32);
        // Weight 5 is not ternary: the server errors before any OT and the
        // client observes the aborted protocol.
        let (server_res, client_res, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                let mut ot = IknpReceiver::setup(ch, &mut rng).expect("setup");
                matvec_server(ch, &mut ot, &[5], 1, 1, ring)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                let mut ot = IknpSender::setup(ch, &mut rng).expect("setup");
                matvec_client(ch, &mut ot, &[9], 1, ring)
            },
        );
        assert!(matches!(server_res, Err(ProtocolError::Dimension(_))));
        assert!(client_res.is_err());
    }
}

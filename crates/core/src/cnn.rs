//! Secure CNN inference (extension beyond the paper's FC-only evaluation).
//!
//! Convolutions reduce to the paper's §4.1 matrix protocol through the
//! im2col lowering — a *local linear rearrangement*, so each party applies
//! it to its own share and the triplet protocol runs unchanged with
//! `o = oh·ow` output positions (multi-batch packing for free). Max-pooling
//! mixes shared values non-linearly and runs in a garbled circuit
//! ([`abnn2_gc::circuits::max_pool_reshare_vec_circuit`]), re-sharing each
//! window maximum just like the ReLU layers.
//!
//! The pipeline (conv → ReLU(+truncation) → max-pool → dense stack) lowers
//! to the [`LayerGraph`] IR and runs on the shared planner/executor in
//! [`crate::graph`]: [`SecureServer::for_model`] takes a `QuantizedCnn`
//! directly, and [`SecureClient::for_model`] takes its public graph. This
//! module holds only the max-pool circuit halves. Results match
//! [`QuantizedCnn::forward_exact`] share-for-share.
//!
//! [`LayerGraph`]: abnn2_nn::graph::LayerGraph
//! [`QuantizedCnn::forward_exact`]: abnn2_nn::QuantizedCnn::forward_exact
//! [`SecureServer::for_model`]: crate::inference::SecureServer::for_model
//! [`SecureClient::for_model`]: crate::inference::SecureClient::for_model

use crate::ProtocolError;
use abnn2_gc::circuit::{bits_to_u64, u64_to_bits};
use abnn2_gc::{circuits, YaoEvaluator, YaoGarbler};
use abnn2_math::Ring;
use abnn2_net::Transport;
use abnn2_nn::conv::{pool_windows, ConvShape};
use rand::Rng;

/// Secure max-pool, server (evaluator) side: pools its shares of a CHW map
/// into fresh shares of the window maxima.
///
/// # Errors
///
/// Returns [`ProtocolError`] on mismatch or garbling failure.
pub fn maxpool_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    shares: &[u64],
    shape: ConvShape,
    window: usize,
    ring: Ring,
) -> Result<Vec<u64>, ProtocolError> {
    if shares.len() != shape.len() {
        return Err(ProtocolError::Dimension("share map length mismatch"));
    }
    let windows = pool_windows(shape, window);
    let bits = ring.bits() as usize;
    let circuit = circuits::max_pool_reshare_vec_circuit(bits, window * window, windows.len());
    let mut my_bits = Vec::with_capacity(windows.len() * window * window * bits);
    for w in &windows {
        for &idx in w {
            my_bits.extend(u64_to_bits(shares[idx], bits));
        }
    }
    let out = yao.run(ch, &circuit, &my_bits)?;
    Ok(out.chunks(bits).map(bits_to_u64).collect())
}

/// Secure max-pool, client (garbler) side: supplies its shares and the
/// fresh output masks `z1` (one per window).
///
/// # Errors
///
/// Returns [`ProtocolError`] on mismatch or garbling failure.
#[allow(clippy::too_many_arguments)]
pub fn maxpool_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    shares: &[u64],
    z1: &[u64],
    shape: ConvShape,
    window: usize,
    ring: Ring,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    if shares.len() != shape.len() {
        return Err(ProtocolError::Dimension("share map length mismatch"));
    }
    let windows = pool_windows(shape, window);
    if z1.len() != windows.len() {
        return Err(ProtocolError::Dimension("mask count must equal window count"));
    }
    let bits = ring.bits() as usize;
    let circuit = circuits::max_pool_reshare_vec_circuit(bits, window * window, windows.len());
    let mut my_bits = Vec::with_capacity((windows.len() * (window * window + 1)) * bits);
    for w in &windows {
        for &idx in w {
            my_bits.extend(u64_to_bits(shares[idx], bits));
        }
    }
    for &z in z1 {
        my_bits.extend(u64_to_bits(z, bits));
    }
    yao.run(ch, &circuit, &my_bits, rng)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::{SecureClient, SecureServer};
    use abnn2_math::FragmentScheme;
    use abnn2_net::{run_pair, NetworkModel};
    use abnn2_nn::conv::{QuantizedCnn, QuantizedConv};
    use abnn2_nn::quant::{QuantConfig, QuantizedDense};
    use rand::SeedableRng;

    fn small_cnn(seed: u64, scheme: FragmentScheme) -> QuantizedCnn {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (lo, hi) = scheme.weight_range();
        let in_shape = ConvShape { channels: 1, height: 8, width: 8 };
        let conv = QuantizedConv {
            out_channels: 2,
            in_shape,
            kh: 3,
            kw: 3,
            stride: 1,
            weights: (0..2 * 9).map(|_| rng.gen_range(lo..=hi)).collect(),
            bias: vec![5, 3],
        };
        // conv out 2×6×6 → pool 2 → 2×3×3 = 18 → dense 18→6→4.
        let mk_dense =
            |out_dim: usize, in_dim: usize, rng: &mut rand::rngs::StdRng| QuantizedDense {
                out_dim,
                in_dim,
                weights: (0..out_dim * in_dim).map(|_| rng.gen_range(lo..=hi)).collect(),
                bias: (0..out_dim as u64).collect(),
            };
        let d1 = mk_dense(6, 18, &mut rng);
        let d2 = mk_dense(4, 6, &mut rng);
        let config = QuantConfig {
            ring: Ring::new(32),
            frac_bits: 6,
            weight_frac_bits: if scheme.eta() <= 2 { 0 } else { 3 },
            scheme,
        };
        QuantizedCnn { config, conv, pool_window: 2, dense: vec![d1, d2] }
    }

    fn check_cnn(scheme: FragmentScheme, seed: u64) {
        let cnn = small_cnn(seed, scheme);
        let ring = cnn.config.ring;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
        // A mildly-scaled fixed-point image.
        let image: Vec<u64> = (0..cnn.conv.in_shape.len())
            .map(|_| ring.reduce(rng.gen_range(0..1u64 << cnn.config.frac_bits)))
            .collect();
        let expect = cnn.forward_exact(&image);

        let server = SecureServer::for_model(cnn.clone());
        let client = SecureClient::for_model(server.public_model());
        let image2 = image.clone();
        let (srv, got, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                server.run(ch, 1, &mut rng)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 3);
                let state = client.offline(ch, 1, &mut rng).expect("offline");
                client.online_raw(ch, state, &[image2], &mut rng).expect("client")
            },
        );
        srv.expect("server");
        assert_eq!(got.col(0), expect, "secure CNN must equal forward_exact");
    }

    #[test]
    fn secure_cnn_matches_plaintext_8bit() {
        check_cnn(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 200);
    }

    #[test]
    fn secure_cnn_matches_plaintext_ternary() {
        check_cnn(FragmentScheme::ternary(), 210);
    }

    #[test]
    fn wrong_image_length_rejected_before_any_online_io() {
        let cnn = small_cnn(240, FragmentScheme::ternary());
        let server = SecureServer::for_model(cnn);
        let client = SecureClient::for_model(server.public_model());
        let (srv, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(241);
                server.run(ch, 1, &mut rng)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(242);
                let state = client.offline(ch, 1, &mut rng).expect("offline");
                let sent = ch.snapshot().bytes_sent;
                assert_eq!(
                    client.online_raw(ch, state, &[vec![0u64; 3]], &mut rng).err(),
                    Some(ProtocolError::Dimension("input dimension mismatch"))
                );
                assert_eq!(ch.snapshot().bytes_sent, sent, "no online traffic before the check");
            },
        );
        assert!(srv.is_err(), "the server must see the client walk away");
    }

    #[test]
    fn secure_maxpool_standalone() {
        let ring = Ring::new(32);
        let shape = ConvShape { channels: 2, height: 4, width: 4 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(220);
        let values: Vec<i64> = (0..shape.len() as i64).map(|i| (i * 37 % 101) - 50).collect();
        let x: Vec<u64> = values.iter().map(|&v| ring.from_i64(v)).collect();
        let x1 = ring.sample_vec(&mut rng, x.len());
        let x0 = ring.sub_vec(&x, &x1);
        let z1 = ring.sample_vec(&mut rng, 2 * 2 * 2);
        let (x1c, z1c) = (x1.clone(), z1.clone());
        let (z0, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(221);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                maxpool_server(ch, &mut yao, &x0, shape, 2, ring).expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(222);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                maxpool_client(ch, &mut yao, &x1c, &z1c, shape, 2, ring, &mut rng).expect("client");
            },
        );
        let (expect, _) = abnn2_nn::conv::maxpool_ring(&x, shape, 2, ring);
        for (w, &e) in expect.iter().enumerate() {
            assert_eq!(ring.add(z0[w], z1[w]), e, "window {w}");
        }
    }

    #[test]
    fn mismatched_mask_count_rejected() {
        // z1 must have one entry per pooling window; mismatches are caught
        // before any garbling.
        let ring = Ring::new(32);
        let shape = ConvShape { channels: 1, height: 4, width: 4 };
        let (z0_res, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(230);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                maxpool_server(ch, &mut yao, &[0u64; 16], shape, 2, ring)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(231);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                // 3 masks instead of 4 windows: dimension error, no I/O.
                let err =
                    maxpool_client(ch, &mut yao, &[0u64; 16], &[0u64; 3], shape, 2, ring, &mut rng)
                        .expect_err("must reject");
                assert!(matches!(err, ProtocolError::Dimension(_)));
            },
        );
        // Server fails because the garbler never sent material.
        assert!(z0_res.is_err());
    }
}

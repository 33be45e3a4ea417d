//! End-to-end acceptance of the silent-OT offline subsystem: a session
//! negotiated onto the silent (LPN) backend must produce **bit-exact**
//! logits against both the plaintext oracle and an identical IKNP/KK13
//! session, for MLP and CNN topologies across the paper's η sweep.

use abnn2::core::{SecureClient, SecureServer};
use abnn2::math::{FragmentScheme, Matrix, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2::nn::{ConvShape, Network, QuantizedCnn, QuantizedConv};
use rand::{Rng, SeedableRng};

/// The η ∈ {2, 3, 4, 8} sweep.
fn schemes() -> Vec<(&'static str, FragmentScheme)> {
    vec![
        ("eta2-ternary", FragmentScheme::ternary()),
        ("eta3", FragmentScheme::signed_bit_fields(&[3])),
        ("eta4", FragmentScheme::signed_bit_fields(&[2, 2])),
        ("eta8", FragmentScheme::signed_bit_fields(&[2, 2, 2, 2])),
    ]
}

fn mlp_model(seed: u64, scheme: FragmentScheme) -> QuantizedNetwork {
    let net = Network::new(&[12, 8, 6, 4], seed);
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: if scheme.eta() <= 2 { 0 } else { 2 },
        scheme,
    };
    QuantizedNetwork::quantize(&net, config)
}

fn cnn_model(seed: u64, scheme: FragmentScheme) -> QuantizedCnn {
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
    let mk_dense = |out_dim: usize, in_dim: usize, rng: &mut rand::rngs::StdRng| QuantizedDense {
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

/// One full session (any served topology) with the client's silent
/// capability bit set or cleared, fixed seeds, returning raw logits.
fn run_session(server: &SecureServer, inputs_fp: &[Vec<u64>], silent: bool, seed: u64) -> Matrix {
    let batch = inputs_fp.len();
    let client = SecureClient::for_model(server.public_model()).with_silent(silent);
    let inputs2 = inputs_fp.to_vec();
    let server = server.clone();
    let (srv, y, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            server.run(ch, batch, &mut rng)
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
            let state = client.offline(ch, batch, &mut rng).expect("offline");
            client.online_raw(ch, state, &inputs2, &mut rng).expect("online")
        },
    );
    srv.expect("server");
    y
}

/// MLP: for every η, the silent session's logits equal the plaintext
/// oracle *and* an IKNP session run with the same seeds — the backend is
/// observable only on the wire, never in the function computed.
#[test]
fn silent_mlp_logits_bit_exact_across_eta_sweep() {
    for (label, scheme) in schemes() {
        let q = mlp_model(300, scheme);
        let ring = q.config.ring;
        let mut rng = rand::rngs::StdRng::seed_from_u64(301);
        let batch = 2usize;
        let inputs_fp: Vec<Vec<u64>> = (0..batch)
            .map(|_| (0..12).map(|_| ring.reduce(rng.gen_range(0..1u64 << 10))).collect())
            .collect();
        let expected: Vec<Vec<u64>> = inputs_fp.iter().map(|x| q.forward_exact(x)).collect();

        let server = SecureServer::for_model(q.clone());
        let silent = run_session(&server, &inputs_fp, true, 302);
        let iknp = run_session(&server, &inputs_fp, false, 302);
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(&silent.col(k), want, "{label}: silent MLP logits diverge from oracle");
            assert_eq!(silent.col(k), iknp.col(k), "{label}: silent vs IKNP MLP logits diverge");
        }
    }
}

/// CNN: same bit-exactness through the spatial graph (conv → pool →
/// dense), batch 1, for every η.
#[test]
fn silent_cnn_logits_bit_exact_across_eta_sweep() {
    for (label, scheme) in schemes() {
        let cnn = cnn_model(310, scheme);
        let ring = cnn.config.ring;
        let mut rng = rand::rngs::StdRng::seed_from_u64(311);
        let image: Vec<u64> = (0..cnn.conv.in_shape.len())
            .map(|_| ring.reduce(rng.gen_range(0..1u64 << cnn.config.frac_bits)))
            .collect();
        let expected = cnn.forward_exact(&image);

        let server = SecureServer::for_model(cnn.clone());
        let inputs = vec![image];
        let silent = run_session(&server, &inputs, true, 312);
        let iknp = run_session(&server, &inputs, false, 312);
        assert_eq!(silent.col(0), expected, "{label}: silent CNN logits diverge from oracle");
        assert_eq!(silent.col(0), iknp.col(0), "{label}: silent vs IKNP CNN logits diverge");
    }
}

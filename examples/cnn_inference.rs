//! Extension demo: secure inference of a small **convolutional** network —
//! conv → ReLU → max-pool → dense — built entirely from the paper's
//! machinery: the conv layer reduces to the §4.1 OT matmul through im2col
//! (applied locally to shares) and max-pooling runs as a garbled circuit
//! like the ReLU layers. Also shows the multi-core triplet option (the
//! paper's stated future work).
//!
//! ```sh
//! cargo run --release --example cnn_inference
//! ```

use abnn2::core::{SecureClient, SecureServer};
use abnn2::math::{FixedPoint, FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::conv::{ConvShape, QuantizedCnn, QuantizedConv};
use abnn2::nn::quant::{QuantConfig, QuantizedDense};
use rand::{Rng, SeedableRng};

fn main() {
    println!("Secure CNN: 1×12×12 input → conv 4@3×3 → ReLU → pool 2×2 → dense 100→32→10\n");
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
    let (lo, hi) = scheme.weight_range();
    let config = QuantConfig { ring: Ring::new(32), frac_bits: 8, weight_frac_bits: 4, scheme };

    let in_shape = ConvShape { channels: 1, height: 12, width: 12 };
    let conv = QuantizedConv {
        out_channels: 4,
        in_shape,
        kh: 3,
        kw: 3,
        stride: 1,
        weights: (0..4 * 9).map(|_| rng.gen_range(lo..=hi)).collect(),
        bias: vec![0; 4],
    };
    // conv out 4×10×10 → pool 2 → 4×5×5 = 100.
    let mk_dense = |out_dim: usize, in_dim: usize, rng: &mut rand::rngs::StdRng| QuantizedDense {
        out_dim,
        in_dim,
        weights: (0..out_dim * in_dim).map(|_| rng.gen_range(lo..=hi)).collect(),
        bias: vec![0; out_dim],
    };
    let dense = vec![mk_dense(32, 100, &mut rng), mk_dense(10, 32, &mut rng)];
    let cnn = QuantizedCnn { config, conv, pool_window: 2, dense };

    // A fixed-point "image" in [0, 1).
    let codec = FixedPoint::new(cnn.config.ring, cnn.config.frac_bits);
    let image: Vec<u64> =
        (0..in_shape.len()).map(|i| codec.encode((i as f64 * 0.37).fract())).collect();
    let expect = cnn.forward_exact(&image);

    for threads in [1usize, 4] {
        let server = SecureServer::for_model(cnn.clone()).with_threads(threads);
        let client = SecureClient::for_model(server.public_model()).with_threads(threads);
        let image2 = image.clone();
        let (srv, got, report) = run_pair(
            NetworkModel::lan(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(100);
                server.run(ch, 1, &mut rng)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(101);
                let state = client.offline(ch, 1, &mut rng).expect("offline");
                client.online_raw(ch, state, &[image2], &mut rng).expect("client")
            },
        );
        srv.expect("server");
        assert_eq!(got.col(0), expect, "secure CNN output must match the plaintext oracle");
        println!(
            "threads = {threads}: {:.2}s simulated, {:.2} MiB — output matches plaintext exactly ✓",
            report.simulated_time().as_secs_f64(),
            report.total_mib()
        );
    }

    let out = FixedPoint::new(cnn.config.ring, cnn.config.frac_bits + cnn.config.weight_frac_bits);
    let logits = out.decode_vec(&expect);
    println!("\nlogits: {:?}", logits.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>());
    println!("predicted class: {}", abnn2::nn::model::argmax(&logits));
}

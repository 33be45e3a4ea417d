//! Cross-crate integration: the full secure-inference pipeline against the
//! plaintext oracle, and agreement between ABNN² and both end-to-end
//! baselines on identical models and inputs.

use abnn2::core::inference::{SecureClient, SecureServer};
use abnn2::core::relu::ReluVariant;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::{Network, SyntheticMnist};
use rand::SeedableRng;

fn trained_quantized(
    scheme: FragmentScheme,
    fw: u32,
    ring_bits: u32,
    seed: u64,
) -> QuantizedNetwork {
    let data = SyntheticMnist::generate(100, 0, seed);
    let mut net = Network::new(&[784, 10, 8, 10], seed);
    net.train_epoch(&data.train, 0.05);
    let config =
        QuantConfig { ring: Ring::new(ring_bits), frac_bits: 8, weight_frac_bits: fw, scheme };
    QuantizedNetwork::quantize(&net, config)
}

fn inputs_fp(q: &QuantizedNetwork, batch: usize, seed: u64) -> Vec<Vec<u64>> {
    let data = SyntheticMnist::generate(batch, 0, seed);
    let codec = q.config.activation_codec();
    data.train.iter().map(|s| codec.encode_vec(&s.pixels)).collect()
}

fn run_abnn2(
    q: &QuantizedNetwork,
    inputs: &[Vec<u64>],
    variant: ReluVariant,
    seed: u64,
) -> Vec<Vec<u64>> {
    let batch = inputs.len();
    let server = SecureServer::for_model(q.clone()).with_variant(variant);
    let client = SecureClient::for_model(server.public_model()).with_variant(variant);
    let inputs2 = inputs.to_vec();
    let (_, y, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            server.run(ch, batch, &mut rng).expect("server");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
            let state = client.offline(ch, batch, &mut rng).expect("offline");
            client.online_raw(ch, state, &inputs2, &mut rng).expect("online")
        },
    );
    (0..batch).map(|k| y.col(k)).collect()
}

#[test]
fn secure_inference_matches_oracle_across_schemes_and_rings() {
    for (scheme, fw, ring_bits) in [
        (FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4, 32),
        (FragmentScheme::signed_bit_fields(&[3, 3, 2]), 4, 32),
        (FragmentScheme::signed_bit_fields(&[2, 1]), 2, 64),
        (FragmentScheme::ternary(), 0, 32),
        (FragmentScheme::binary(), 0, 32),
    ] {
        let label = scheme.label();
        let q = trained_quantized(scheme, fw, ring_bits, 100);
        let inputs = inputs_fp(&q, 2, 101);
        let expected: Vec<Vec<u64>> = inputs.iter().map(|x| q.forward_exact(x)).collect();
        let got = run_abnn2(&q, &inputs, ReluVariant::Oblivious, 102);
        assert_eq!(got, expected, "scheme {label} ring {ring_bits}");
    }
}

#[test]
fn optimized_and_oblivious_relu_agree() {
    let q = trained_quantized(FragmentScheme::signed_bit_fields(&[2, 2]), 2, 32, 110);
    let inputs = inputs_fp(&q, 3, 111);
    let a = run_abnn2(&q, &inputs, ReluVariant::Oblivious, 112);
    let b = run_abnn2(&q, &inputs, ReluVariant::Optimized, 113);
    assert_eq!(a, b);
}

#[test]
fn abnn2_and_minionn_produce_identical_predictions() {
    use abnn2::baselines::minionn::{MinionnClient, MinionnServer};
    let q = trained_quantized(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4, 32, 120);
    let inputs = inputs_fp(&q, 2, 121);
    let ours = run_abnn2(&q, &inputs, ReluVariant::Oblivious, 122);

    let server = MinionnServer::new(q.clone(), 256);
    let client = MinionnClient::new(server.public_model(), 256);
    let inputs2 = inputs.clone();
    let (_, y, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(123);
            server.run(ch, 2, &mut rng).expect("server");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(124);
            client.run(ch, &inputs2, &mut rng).expect("client")
        },
    );
    let theirs: Vec<Vec<u64>> = (0..2).map(|k| y.col(k)).collect();
    assert_eq!(ours, theirs, "two different offline protocols, same function");
}

#[test]
fn abnn2_and_quotient_produce_identical_predictions_on_ternary() {
    use abnn2::baselines::quotient::{QuotientClient, QuotientServer};
    let q = trained_quantized(FragmentScheme::ternary(), 0, 32, 130);
    let inputs = inputs_fp(&q, 2, 131);
    let ours = run_abnn2(&q, &inputs, ReluVariant::Oblivious, 132);

    let server = QuotientServer::new(q.clone());
    let client = QuotientClient::new(server.public_model());
    let inputs2 = inputs.clone();
    let (_, y, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(133);
            server.run(ch, 2, &mut rng).expect("server");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(134);
            client.run(ch, &inputs2, &mut rng).expect("client")
        },
    );
    let theirs: Vec<Vec<u64>> = (0..2).map(|k| y.col(k)).collect();
    assert_eq!(ours, theirs);
}

#[test]
fn logits_track_plaintext_classification() {
    let q = trained_quantized(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4, 32, 140);
    let data = SyntheticMnist::generate(3, 0, 141);
    let inputs: Vec<Vec<f64>> = data.train.iter().map(|s| s.pixels.clone()).collect();
    let server = SecureServer::for_model(q.clone());
    let client = SecureClient::for_model(server.public_model());
    let inputs2 = inputs.clone();
    let (_, logits, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(142);
            server.run(ch, 3, &mut rng).expect("server");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(143);
            client.run(ch, &inputs2, &mut rng).expect("client")
        },
    );
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(abnn2::nn::model::argmax(&logits[k]), q.predict(input), "sample {k}");
    }
}

//! Arbitrary-bitwidth post-training quantization and the bit-exact
//! fixed-point forward pass.
//!
//! Semantics shared with the secure protocol (`abnn2-core`):
//!
//! * activations carry `f` fractional bits in ℤ_{2^ℓ},
//! * weights are integers in the [`FragmentScheme`] domain with implicit
//!   scale `2^{-f_w}`,
//! * a linear layer accumulates at `f + f_w` fractional bits and the
//!   activation step truncates back to `f` with an arithmetic right shift
//!   (performed *inside* the garbled circuit in the secure version, so the
//!   two pipelines agree bit for bit),
//! * the last layer returns raw accumulators at `f + f_w` fractional bits.

use crate::data::Sample;
use crate::model::{argmax, Network};
use abnn2_math::{FixedPoint, FragmentScheme, Ring};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the fixed-point pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantConfig {
    /// The share/activation ring ℤ_{2^ℓ}.
    pub ring: Ring,
    /// Fractional bits `f` of activations.
    pub frac_bits: u32,
    /// Fractional bits `f_w` of weights (weight value = integer · 2^{-f_w}).
    pub weight_frac_bits: u32,
    /// Weight domain and OT fragmentation.
    pub scheme: FragmentScheme,
}

impl QuantConfig {
    /// A sensible default: ℤ_{2^32}, 8 activation fraction bits, 4 weight
    /// fraction bits, signed 8-bit weights fragmented as (2,2,2,2).
    #[must_use]
    pub fn default_8bit() -> Self {
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 4,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
        }
    }

    /// The fixed-point codec for network inputs/activations.
    #[must_use]
    pub fn activation_codec(&self) -> FixedPoint {
        FixedPoint::new(self.ring, self.frac_bits)
    }

    /// The fixed-point codec for raw network outputs (last-layer
    /// accumulators at `f + f_w` fractional bits).
    #[must_use]
    pub fn output_codec(&self) -> FixedPoint {
        FixedPoint::new(self.ring, self.frac_bits + self.weight_frac_bits)
    }
}

/// A dense layer with integer weights and ring-encoded bias.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedDense {
    /// Output dimension m.
    pub out_dim: usize,
    /// Input dimension n.
    pub in_dim: usize,
    /// Row-major integer weights in the scheme domain.
    pub weights: Vec<i64>,
    /// Bias encoded in the ring at `f + f_w` fractional bits.
    pub bias: Vec<u64>,
}

impl QuantizedDense {
    /// Weight row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn row(&self, i: usize) -> &[i64] {
        assert!(i < self.out_dim, "row {i} out of bounds");
        &self.weights[i * self.in_dim..(i + 1) * self.in_dim]
    }

    /// `W·x + b` over the ring, with `x` at `f` fractional bits; the result
    /// carries `f + f_w` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn forward_ring(&self, x: &[u64], ring: Ring) -> Vec<u64> {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        (0..self.out_dim)
            .map(|i| {
                let mut acc = self.bias[i];
                for (&w, &xv) in self.row(i).iter().zip(x) {
                    acc = acc.wrapping_add(xv.wrapping_mul(w as u64));
                }
                ring.reduce(acc)
            })
            .collect()
    }
}

/// A fully quantized network: the exact object the secure protocol
/// evaluates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedNetwork {
    /// Pipeline hyper-parameters.
    pub config: QuantConfig,
    /// Dense layers; ReLU+truncation after each except the last.
    pub layers: Vec<QuantizedDense>,
}

/// Arithmetic shift right by `k` on the signed lift (the truncation step).
#[must_use]
pub fn sar(ring: Ring, v: u64, k: u32) -> u64 {
    ring.from_i64(ring.to_i64(v) >> k)
}

impl QuantizedNetwork {
    /// Quantizes a trained float network under `config`.
    ///
    /// Weights are rounded to `w · 2^{f_w}` and clamped into the scheme
    /// domain; biases are encoded at `f + f_w` fractional bits.
    #[must_use]
    pub fn quantize(net: &Network, config: QuantConfig) -> Self {
        let wscale = (config.weight_frac_bits as f64).exp2();
        let bcodec = config.output_codec();
        let layers = net
            .layers
            .iter()
            .map(|l| QuantizedDense {
                out_dim: l.out_dim,
                in_dim: l.in_dim,
                weights: l
                    .weights
                    .iter()
                    .map(|&w| config.scheme.clamp((w * wscale).round() as i64))
                    .collect(),
                bias: l.bias.iter().map(|&b| bcodec.encode(b)).collect(),
            })
            .collect();
        QuantizedNetwork { config, layers }
    }

    /// Layer dimensions `[in, hidden…, out]`.
    #[must_use]
    pub fn dims(&self) -> Vec<usize> {
        let mut d = vec![self.layers[0].in_dim];
        d.extend(self.layers.iter().map(|l| l.out_dim));
        d
    }

    /// Total number of weights (the paper's OT-count driver `Σ mₗ·nₗ`).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len()).sum()
    }

    /// The bit-exact fixed-point forward pass.
    ///
    /// Input: activations at `f` fractional bits; output: last-layer
    /// accumulators at `f + f_w` fractional bits. Secure inference must
    /// reproduce this value exactly (shares summing to it).
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches the first layer.
    #[must_use]
    pub fn forward_exact(&self, x_fp: &[u64]) -> Vec<u64> {
        let ring = self.config.ring;
        let fw = self.config.weight_frac_bits;
        let mut a = x_fp.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let acc = layer.forward_ring(&a, ring);
            if i == last {
                return acc;
            }
            a = acc
                .iter()
                .map(|&v| {
                    let t = sar(ring, v, fw);
                    if ring.is_negative(t) {
                        0
                    } else {
                        t
                    }
                })
                .collect();
        }
        unreachable!("loop returns at the last layer")
    }

    /// Float-in/float-out convenience around [`Self::forward_exact`].
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let in_codec = self.config.activation_codec();
        let out_codec = self.config.output_codec();
        out_codec.decode_vec(&self.forward_exact(&in_codec.encode_vec(x)))
    }

    /// Predicted class.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.forward(x))
    }

    /// Classification accuracy on labelled samples.
    #[must_use]
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples.iter().filter(|s| self.predict(&s.pixels) == s.label).count();
        correct as f64 / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticMnist;
    use proptest::prelude::*;

    fn tiny_trained(seed: u64) -> (Network, SyntheticMnist) {
        let data = SyntheticMnist::generate(300, 100, seed);
        let mut net = Network::new(&[784, 24, 10], seed + 1);
        for _ in 0..4 {
            net.train_epoch(&data.train, 0.05);
        }
        (net, data)
    }

    #[test]
    fn sar_matches_signed_shift() {
        let ring = Ring::new(16);
        assert_eq!(ring.to_i64(sar(ring, ring.from_i64(-8), 2)), -2);
        assert_eq!(ring.to_i64(sar(ring, ring.from_i64(7), 1)), 3);
        assert_eq!(ring.to_i64(sar(ring, ring.from_i64(-7), 1)), -4); // floor
    }

    #[test]
    fn quantized_weights_in_domain() {
        let (net, _) = tiny_trained(21);
        let q = QuantizedNetwork::quantize(&net, QuantConfig::default_8bit());
        let (lo, hi) = q.config.scheme.weight_range();
        for l in &q.layers {
            assert!(l.weights.iter().all(|&w| (lo..=hi).contains(&w)));
        }
        assert_eq!(q.dims(), vec![784, 24, 10]);
        assert_eq!(q.weight_count(), 784 * 24 + 24 * 10);
    }

    #[test]
    fn eight_bit_quantization_preserves_accuracy() {
        let (net, data) = tiny_trained(22);
        let float_acc = net.accuracy(&data.test);
        let q = QuantizedNetwork::quantize(&net, QuantConfig::default_8bit());
        let q_acc = q.accuracy(&data.test);
        assert!(
            q_acc >= float_acc - 0.15,
            "8-bit accuracy dropped too far: {float_acc} -> {q_acc}"
        );
    }

    #[test]
    fn forward_exact_is_deterministic_and_wrapped() {
        let (net, data) = tiny_trained(23);
        let q = QuantizedNetwork::quantize(&net, QuantConfig::default_8bit());
        let x = q.config.activation_codec().encode_vec(&data.test[0].pixels);
        let a = q.forward_exact(&x);
        let b = q.forward_exact(&x);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v <= q.config.ring.mask()));
    }

    #[test]
    fn ternary_and_binary_quantization_run() {
        let (net, data) = tiny_trained(24);
        for scheme in [FragmentScheme::ternary(), FragmentScheme::binary()] {
            let config =
                QuantConfig { ring: Ring::new(32), frac_bits: 8, weight_frac_bits: 0, scheme };
            let q = QuantizedNetwork::quantize(&net, config);
            // Low-bitwidth nets lose accuracy but the pipeline must still run.
            let _ = q.forward(&data.test[0].pixels);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn forward_matches_manual_reference(seed in 0u64..100) {
            // A 1-layer network: forward_exact == ring dot product + bias.
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let config = QuantConfig::default_8bit();
            let ring = config.ring;
            let layer = QuantizedDense {
                out_dim: 2,
                in_dim: 3,
                weights: (0..6).map(|_| rng.gen_range(-128i64..128)).collect(),
                bias: vec![ring.sample(&mut rng), ring.sample(&mut rng)],
            };
            let q = QuantizedNetwork { config, layers: vec![layer.clone()] };
            let x: Vec<u64> = ring.sample_vec(&mut rng, 3);
            let got = q.forward_exact(&x);
            for (i, &b) in layer.bias.iter().enumerate() {
                let mut acc = b;
                for (j, &xj) in x.iter().enumerate() {
                    acc = ring.add(acc, ring.mul_signed(xj, layer.weights[i * 3 + j]));
                }
                prop_assert_eq!(got[i], acc);
            }
        }
    }
}

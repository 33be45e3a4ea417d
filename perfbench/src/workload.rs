//! The benchmark's workloads: which model is served, whether sessions
//! are warm, and the inputs, all from a seed. Every workload is driven
//! by one closed-loop client.

use abnn2_core::{PublicModel, ServedModel};
use abnn2_math::{FragmentScheme, Ring};
use abnn2_nn::model::{paper_network_dims, Network};
use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2_nn::transformer::QuantizedTransformer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paper Table 4 bytes of one Fig-4 prediction at η=4 (2,2), ring
/// 2^32, batch 1: handshake + base-OT setup + offline, and online.
pub const FIG4_OFFLINE_BYTES: u64 = 10_422_532;
/// See [`FIG4_OFFLINE_BYTES`].
pub const FIG4_ONLINE_BYTES: u64 = 1_429_620;

/// The served model of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's Fig-4 MLP 784-128-128-10, η=4 with fragments (2,2),
    /// ring 2^32.
    Fig4,
    /// A quantized encoder block: seq 8, d 8, d_ff 16, 3 classes, η=4,
    /// ring 2^16.
    Encoder,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The served model.
    pub model: ModelKind,
    /// Whether clients ask for pooled dealer bundles.
    pub warm: bool,
    /// Percentile reported as `latency_tail_ms`.
    pub tail_pct: f64,
}

/// Every workload.
pub const WORKLOADS: [Workload; 3] = [
    // About four 8 s sessions per run: no percentile has ten samples
    // beyond it, so the tail is the slowest session.
    Workload { name: "fig4_cold", model: ModelKind::Fig4, warm: false, tail_pct: 100.0 },
    // About 85-96 sessions per run: p80 leaves 17-19 beyond it, p90 fewer
    // than 10.
    Workload { name: "fig4_warm", model: ModelKind::Fig4, warm: true, tail_pct: 80.0 },
    // About 41-48 sessions per run: p75 leaves 10-12 beyond it, p80 fewer
    // than 10.
    Workload { name: "encoder_warm", model: ModelKind::Encoder, warm: true, tail_pct: 75.0 },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A built model plus what the benchmark needs to feed and check it.
#[derive(Debug, Clone)]
pub enum Model {
    /// An MLP.
    Mlp(QuantizedNetwork),
    /// An encoder block.
    Encoder(Box<QuantizedTransformer>),
}

impl Model {
    /// Builds the workload's model with weights drawn from `seed`.
    #[must_use]
    pub fn build(kind: ModelKind, seed: u64) -> Self {
        match kind {
            ModelKind::Fig4 => {
                let net = Network::new(&paper_network_dims(), seed);
                Model::Mlp(QuantizedNetwork::quantize(
                    &net,
                    QuantConfig {
                        ring: Ring::new(32),
                        frac_bits: 8,
                        weight_frac_bits: 4,
                        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
                    },
                ))
            }
            ModelKind::Encoder => {
                let config = QuantConfig {
                    ring: Ring::new(16),
                    frac_bits: 6,
                    weight_frac_bits: 2,
                    scheme: FragmentScheme::optimal(4),
                };
                let mut rng = StdRng::seed_from_u64(seed);
                Model::Encoder(Box::new(
                    QuantizedTransformer::random(8, 8, 16, 3, config, &mut rng)
                        .expect("the encoder shape is valid"),
                ))
            }
        }
    }

    /// The model as the server holds it.
    #[must_use]
    pub fn served(&self) -> ServedModel {
        match self {
            Model::Mlp(q) => q.clone().into(),
            Model::Encoder(t) => (**t).clone().into(),
        }
    }

    /// The model as the client knows it.
    #[must_use]
    pub fn public(&self) -> PublicModel {
        self.served().public()
    }

    /// One ring-encoded input drawn from `rng`.
    pub fn input(&self, rng: &mut StdRng) -> Vec<u64> {
        match self {
            Model::Mlp(q) => {
                let pixels: Vec<f64> = (0..q.layers[0].in_dim).map(|_| rng.gen::<f64>()).collect();
                q.config.activation_codec().encode_vec(&pixels)
            }
            Model::Encoder(t) => (0..t.seq * t.d)
                .map(|_| t.config.ring.reduce(rng.gen_range(-64i64..64) as u64))
                .collect(),
        }
    }

    /// The plaintext oracle: the logits a served prediction must equal.
    #[must_use]
    pub fn expected(&self, x: &[u64]) -> Vec<u64> {
        match self {
            Model::Mlp(q) => q.forward_exact(x),
            Model::Encoder(t) => t.forward_exact(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_resolve_by_name() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let model = Model::build(ModelKind::Encoder, 5);
        let draw = |seed| model.input(&mut StdRng::seed_from_u64(seed));
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_eq!(model.expected(&draw(1)).len(), 3);
    }
}

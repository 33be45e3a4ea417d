//! Shared harness for the table-regeneration binaries.
//!
//! Each `table{1..5}` binary reproduces one table of the paper's evaluation
//! (see `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for recorded
//! paper-vs-measured numbers). All binaries accept `--quick` (or the
//! environment variable `ABNN2_BENCH_QUICK=1`) to run reduced parameter
//! sweeps on slow machines.

use abnn2_core::inference::{SecureClient, SecureServer};
use abnn2_core::relu::ReluVariant;
use abnn2_math::{FragmentScheme, Matrix, Ring};
use abnn2_net::{run_pair, CommSnapshot, NetworkModel};
use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2_nn::{Network, SyntheticMnist};
use rand::SeedableRng;
use std::time::Duration;

/// True when a reduced sweep was requested.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("ABNN2_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Prints a fixed-width ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats seconds with 2–3 significant decimals.
#[must_use]
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats a byte count in MiB.
#[must_use]
pub fn fmt_mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Builds the Fig-4 network (784→128→128→10) quantized under `scheme`,
/// with deterministic weights (training is irrelevant to protocol cost).
#[must_use]
pub fn paper_quantized(scheme: FragmentScheme, ring_bits: u32) -> QuantizedNetwork {
    let net = Network::new(&abnn2_nn::model::paper_network_dims(), 42);
    let weight_frac_bits = if scheme.eta() <= 2 { 0 } else { scheme.eta().min(4) };
    let config = QuantConfig { ring: Ring::new(ring_bits), frac_bits: 8, weight_frac_bits, scheme };
    QuantizedNetwork::quantize(&net, config)
}

/// Random weights uniformly drawn from a scheme's domain (for matmul
/// microbenchmarks, where the values are irrelevant to cost).
#[must_use]
pub fn random_weights(scheme: &FragmentScheme, count: usize, seed: u64) -> Vec<i64> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (lo, hi) = scheme.weight_range();
    (0..count).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// Timing/traffic outcome of one offline triplet generation.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Simulated end-to-end duration (compute + modelled network).
    pub time: Duration,
    /// Bytes on the wire, both directions.
    pub bytes: u64,
}

/// Runs the ABNN² offline triplet generation for a whole network's layers
/// over the IKNP/KK13 backend.
#[must_use]
pub fn run_offline_triplets(
    net: &QuantizedNetwork,
    batch: usize,
    model: NetworkModel,
    seed: u64,
) -> PhaseStats {
    run_offline_triplets_with(net, batch, model, abnn2_ot::OfflineMode::Iknp, seed)
}

/// As [`run_offline_triplets`], but over the selected offline OT backend,
/// so callers can put silent-OT and IKNP traffic side by side.
#[must_use]
pub fn run_offline_triplets_with(
    net: &QuantizedNetwork,
    batch: usize,
    model: NetworkModel,
    ot: abnn2_ot::OfflineMode,
    seed: u64,
) -> PhaseStats {
    use abnn2_core::matmul::{triplet_client, triplet_server, TripletMode};
    use abnn2_ot::{FragmentChooser, FragmentSender};
    let ring = net.config.ring;
    let scheme = net.config.scheme.clone();
    let scheme2 = scheme.clone();
    let layers: Vec<(Vec<i64>, usize, usize)> =
        net.layers.iter().map(|l| (l.weights.clone(), l.out_dim, l.in_dim)).collect();
    let dims_in: Vec<usize> = net.layers.iter().map(|l| l.in_dim).collect();
    let dims_out: Vec<usize> = net.layers.iter().map(|l| l.out_dim).collect();
    let mode = TripletMode::for_batch(batch);
    let ((), (), report) = run_pair(
        model,
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut kk = FragmentChooser::setup(ch, ot, &mut rng).expect("chooser setup");
            for (w, m, n) in &layers {
                let _ = triplet_server(ch, &mut kk, w, *m, *n, batch, &scheme, ring, mode)
                    .expect("server");
            }
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
            let mut kk = FragmentSender::setup(ch, ot, &mut rng).expect("sender setup");
            for (n, m) in dims_in.iter().zip(&dims_out) {
                let r = Matrix::random(*n, batch, &ring, &mut rng);
                let _ = triplet_client(ch, &mut kk, &r, *m, &scheme2, ring, mode, &mut rng)
                    .expect("client");
            }
        },
    );
    PhaseStats { time: report.simulated_time(), bytes: report.total_bytes() }
}

/// End-to-end statistics (offline + online split).
#[derive(Debug, Clone, Copy)]
pub struct E2eStats {
    /// Simulated offline duration.
    pub offline: Duration,
    /// Simulated online duration.
    pub online: Duration,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Bytes on the wire during the offline phase only.
    pub offline_bytes: u64,
    /// Bytes on the wire during the online phase only.
    pub online_bytes: u64,
}

impl E2eStats {
    /// Offline + online.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.offline + self.online
    }
}

/// Runs a full secure inference (ABNN²) and reports phase timings.
#[must_use]
pub fn run_abnn2_e2e(
    net: &QuantizedNetwork,
    batch: usize,
    model: NetworkModel,
    variant: ReluVariant,
    seed: u64,
) -> E2eStats {
    let data = SyntheticMnist::generate(batch, 0, seed);
    let inputs: Vec<Vec<f64>> = data.train.iter().map(|s| s.pixels.clone()).collect();
    let server = SecureServer::for_model(net.clone()).with_variant(variant);
    let client = SecureClient::for_model(server.public_model()).with_variant(variant);
    let (s_mid, c_mid, report) = run_pair(
        model,
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
            let state = server.offline(ch, batch, &mut rng).expect("offline");
            let mid = ch.snapshot();
            server.online(ch, state).expect("online");
            mid
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
            let state = client.offline(ch, batch, &mut rng).expect("offline");
            let mid = ch.snapshot();
            let _ = client.online(ch, state, &inputs, &mut rng).expect("online");
            mid
        },
    );
    split_phases(s_mid, c_mid, report.server, report.client, report.total_bytes())
}

/// Runs a full secure inference through the MiniONN baseline.
#[must_use]
pub fn run_minionn_e2e(
    net: &QuantizedNetwork,
    batch: usize,
    model: NetworkModel,
    key_bits: usize,
    seed: u64,
) -> E2eStats {
    use abnn2_baselines::minionn::{MinionnClient, MinionnServer};
    let data = SyntheticMnist::generate(batch, 0, seed);
    let codec = net.config.activation_codec();
    let inputs_fp: Vec<Vec<u64>> = data.train.iter().map(|s| codec.encode_vec(&s.pixels)).collect();
    let server = MinionnServer::new(net.clone(), key_bits);
    let client = MinionnClient::new(server.public_model(), key_bits);
    let (s_mid, c_mid, report) = run_pair(
        model,
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
            let state = server.offline(ch, batch, &mut rng).expect("offline");
            let mid = ch.snapshot();
            server.online(ch, state).expect("online");
            mid
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
            let state = client.offline(ch, batch, &mut rng).expect("offline");
            let mid = ch.snapshot();
            let _ = client.online_raw(ch, state, &inputs_fp, &mut rng).expect("online");
            mid
        },
    );
    split_phases(s_mid, c_mid, report.server, report.client, report.total_bytes())
}

/// Runs a full secure inference through the QUOTIENT baseline (ternary
/// model required). Offline/online are not split (QUOTIENT interleaves
/// them); the total lands in `online = 0`-style reporting via `offline`.
#[must_use]
pub fn run_quotient_e2e(
    net: &QuantizedNetwork,
    batch: usize,
    model: NetworkModel,
    seed: u64,
) -> E2eStats {
    use abnn2_baselines::quotient::{QuotientClient, QuotientServer};
    let data = SyntheticMnist::generate(batch, 0, seed);
    let codec = net.config.activation_codec();
    let inputs_fp: Vec<Vec<u64>> = data.train.iter().map(|s| codec.encode_vec(&s.pixels)).collect();
    let server = QuotientServer::new(net.clone());
    let client = QuotientClient::new(server.public_model());
    let ((), _, report) = run_pair(
        model,
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
            server.run(ch, batch, &mut rng).expect("server");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
            client.run(ch, &inputs_fp, &mut rng).expect("client")
        },
    );
    E2eStats {
        offline: report.simulated_time(),
        online: Duration::ZERO,
        bytes: report.total_bytes(),
        offline_bytes: report.total_bytes(),
        online_bytes: 0,
    }
}

/// Derives offline/online phase stats from mid-run snapshots.
#[must_use]
pub fn split_phases(
    s_mid: CommSnapshot,
    c_mid: CommSnapshot,
    s_end: CommSnapshot,
    c_end: CommSnapshot,
    total_bytes: u64,
) -> E2eStats {
    let offline = s_mid.vtime.max(c_mid.vtime);
    let total = s_end.vtime.max(c_end.vtime);
    let offline_bytes = s_mid.bytes_sent + c_mid.bytes_sent;
    E2eStats {
        offline,
        online: total.saturating_sub(offline),
        bytes: total_bytes,
        offline_bytes,
        online_bytes: total_bytes.saturating_sub(offline_bytes),
    }
}

//! Machine-readable benchmark emitter: writes a `BENCH_*.json` with one
//! entry per table workload (offline/online bytes plus wall-clock), and —
//! as the **first entry** — the silent-vs-IKNP offline comparison, with
//! the ≥10× OT-extension reduction enforced at generation time so a
//! regression can never be committed inside a fresh benchmark file.
//!
//! Run via `scripts/check.sh --bench`, or directly:
//!
//! ```text
//! cargo run --release -p abnn2-bench --bin bench_json -- BENCH_foo.json
//! ```
//!
//! The output path is the first non-flag argument (default
//! `BENCH_latest.json` in the current directory). The JSON is
//! hand-serialized — the workspace deliberately carries no serde
//! dependency.
//!
//! With `--transformer` the file instead carries the quantized-encoder
//! workload: cold (interactive matrix-triple) and warm (dealer-bundle)
//! offline costs plus the online phase of one transformer prediction,
//! bit-exactness against the plaintext oracle asserted at generation
//! time.
//!
//! With `--crypto` the file carries the primitive-layer microbench:
//! blocks/sec per [`CryptoBackend`] for raw
//! AES, MMO hashing, and CTR-mode PRG fill, plus the IKNP bit-matrix
//! transpose wall time at one and four worker threads. When the CPU has
//! AES-NI the ≥ 4× speedup over the portable backend on AES and MMO is
//! asserted at generation time, so a regression in the accelerated path
//! can never be committed inside a fresh benchmark file.
//! `scripts/check.sh --bench` writes all three files.

use abnn2_bench::{paper_quantized, run_abnn2_e2e, run_offline_triplets_with, run_quotient_e2e};
use abnn2_core::bundle::dealer_bundle_for;
use abnn2_core::complexity;
use abnn2_core::graph::{SecureGraph, ServedModel};
use abnn2_core::inference::{SecureClient, SecureServer};
use abnn2_core::matmul::{triplet_client, triplet_server, TripletMode};
use abnn2_core::relu::ReluVariant;
use abnn2_crypto::{aes_ni_available, choose_backend, Aes128, Block, CryptoBackend};
use abnn2_math::{FragmentScheme, Matrix, Ring};
use abnn2_net::wire::tags;
use abnn2_net::{Endpoint, InstrumentedTransport, NetworkModel};
use abnn2_nn::quant::QuantConfig;
use abnn2_nn::transformer::QuantizedTransformer;
use abnn2_ot::{FragmentChooser, FragmentSender, OfflineMode};
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Formats a metric value: integers stay integers, everything else gets
/// four decimals (enough for seconds and reduction factors).
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// One JSON entry; `metrics` keys are emitted in order.
fn entry(name: &str, workload: &str, kind: &str, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> =
        metrics.iter().map(|(k, v)| format!("      \"{k}\": {}", num(*v))).collect();
    format!(
        "    {{\n      \"name\": \"{name}\",\n      \"workload\": \"{workload}\",\n      \
         \"kind\": \"{kind}\",\n{}\n    }}",
        body.join(",\n")
    )
}

/// Per-tag traffic of one triplet generation on a single `m×n` layer
/// (batch `o`) under `ot`: (extension bytes, total bytes).
fn triplet_tagged(ot: OfflineMode, m: usize, n: usize, o: usize) -> (u64, u64) {
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
    let ring = Ring::new(32);
    let weights = {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let (lo, hi) = scheme.weight_range();
        (0..m * n).map(|_| rng.gen_range(lo..=hi)).collect::<Vec<i64>>()
    };
    let (server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut client_ch = InstrumentedTransport::new(client_ep);
    let handle = client_ch.handle();
    let (s1, s2) = (scheme.clone(), scheme);
    let mode = TripletMode::for_batch(o);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut ch = server_ep;
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let mut kk = FragmentChooser::setup(&mut ch, ot, &mut rng).expect("setup");
            triplet_server(&mut ch, &mut kk, &weights, m, n, o, &s1, ring, mode).expect("server");
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut kk = FragmentSender::setup(&mut client_ch, ot, &mut rng).expect("setup");
        let r = Matrix::random(n, o, &ring, &mut rng);
        triplet_client(&mut client_ch, &mut kk, &r, m, &s2, ring, mode, &mut rng).expect("client");
    });
    let ext = match ot {
        OfflineMode::Iknp => handle.tag(tags::KK_COLUMNS).total_bytes(),
        OfflineMode::Silent => [
            tags::SILENT_BASE_COLUMNS,
            tags::SILENT_DERAND,
            tags::SILENT_SPCOT_MASKS,
            tags::SILENT_SPCOT_SUMS,
        ]
        .iter()
        .map(|&t| handle.tag(t).total_bytes())
        .sum(),
    };
    (ext, handle.total().total_bytes())
}

/// The transformer workload: one quantized encoder block (4 tokens of
/// width 4, feed-forward 8, 3 classes) predicted end to end, measured
/// cold (interactive Gilboa matrix triples) and warm (dealer bundle).
fn transformer_entries(entries: &mut Vec<String>) {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(4),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(81);
    let model = QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("transformer");
    let x: Vec<u64> = (0..model.seq * model.d)
        .map(|_| model.config.ring.reduce(rng.gen_range(-64i64..64) as u64))
        .collect();
    let expected = model.forward_exact(&x);
    let workload = "encoder block seq 4, d 4, d_ff 8, 3 classes, eta 4, ring 2^16, batch 1";

    // Cold path: interactive offline (matrix Beaver triples over Gilboa
    // cross-products) then the online phase, instrumented client-side.
    let (server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut cch = InstrumentedTransport::new(client_ep);
    let handle = cch.handle();
    let server = SecureServer::for_model(model.clone());
    let client = SecureClient::for_model(server.public_model());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut ch = server_ep;
            let mut rng = rand::rngs::StdRng::seed_from_u64(82);
            server.run(&mut ch, 1, &mut rng).expect("bench server");
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let state = client.offline(&mut cch, 1, &mut rng).expect("bench offline");
        let y = client
            .online_raw(&mut cch, state, std::slice::from_ref(&x), &mut rng)
            .expect("bench online");
        assert_eq!(y.col(0), expected, "bench transformer must be bit-exact");
    });
    let wall = t0.elapsed();
    // The executors mark per-op sub-phases (`offline:op3/matmulss`, …);
    // fold them back into the two headline phases by label prefix.
    let sum_prefix = |prefix: &str| -> u64 {
        handle
            .phases()
            .iter()
            .filter(|(n, _)| n.split(':').next() == Some(prefix))
            .map(|(_, s)| s.total_bytes())
            .sum()
    };
    let offline = sum_prefix("offline");
    let online = sum_prefix("online");
    let openings = handle.tag(tags::MATMUL_OPENINGS).total_bytes();
    eprintln!(
        "[transformer_e2e_cold] offline {offline} B + online {online} B \
         (matmul openings {openings} B)"
    );
    entries.push(entry(
        "transformer_e2e_cold",
        workload,
        "measured",
        &[
            ("offline_bytes", offline as f64),
            ("online_bytes", online as f64),
            ("matmul_opening_bytes", openings as f64),
            ("wall_secs", wall.as_secs_f64()),
        ],
    ));

    // Warm path: the dealer bundle a precompute pool would hand over in
    // place of the whole interactive offline phase.
    let served = ServedModel::from(model.clone());
    let sg = SecureGraph::new(model.graph().clone(), 1).expect("secure graph");
    let t1 = Instant::now();
    let (_, cb) = dealer_bundle_for(&served, &sg, &mut rng);
    let deal_wall = t1.elapsed();
    let bundle_bytes = cb.encode(model.config.ring).len() as u64;
    eprintln!("[transformer_warm_bundle] bundle {bundle_bytes} B vs cold offline {offline} B");
    entries.push(entry(
        "transformer_warm_bundle",
        workload,
        "measured",
        &[
            ("bundle_bytes", bundle_bytes as f64),
            ("cold_offline_bytes", offline as f64),
            ("offline_reduction", offline as f64 / bundle_bytes as f64),
            ("deal_wall_secs", deal_wall.as_secs_f64()),
        ],
    ));
}

/// Blocks per primitive-microbench batch: large enough that the 8-lane
/// AES-NI main loop dominates, small enough to stay L2-resident.
const CRYPTO_BATCH: usize = 1 << 14;

/// Runs `op` on a fresh `CRYPTO_BATCH`-block buffer, doubling the
/// repetition count until the timed region exceeds 50 ms, and returns
/// blocks/sec from the final (longest, least noisy) run.
fn blocks_per_sec(mut op: impl FnMut(&mut [Block])) -> f64 {
    let mut reps = 1usize;
    loop {
        let mut buf: Vec<Block> = (0..CRYPTO_BATCH)
            .map(|i| Block::from(0x9e37_79b9_7f4a_7c15u128.wrapping_mul(i as u128 + 1)))
            .collect();
        let t0 = Instant::now();
        for _ in 0..reps {
            op(&mut buf);
        }
        let secs = t0.elapsed().as_secs_f64();
        if secs >= 0.05 || reps >= 1 << 20 {
            return (reps * CRYPTO_BATCH) as f64 / secs;
        }
        reps *= 2;
    }
}

/// Times one IKNP-shaped bit-matrix transpose (κ = 128 columns of `m`
/// bits) under `threads` workers, returning seconds per transpose.
fn transpose_secs(m: usize, threads: usize) -> f64 {
    let cols: Vec<Vec<u8>> = (0..abnn2_ot::KAPPA)
        .map(|i| (0..m.div_ceil(8)).map(|j| (i * 31 + j * 7) as u8).collect())
        .collect();
    let mut reps = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(abnn2_ot::bits::transpose_columns_par(
                std::hint::black_box(&cols),
                m,
                threads,
            ));
        }
        let secs = t0.elapsed().as_secs_f64();
        if secs >= 0.05 || reps >= 1 << 20 {
            return secs / reps as f64;
        }
        reps *= 2;
    }
}

/// The `--crypto` workload: per-backend blocks/sec for the three
/// [`CryptoBackend`] primitives plus the IKNP transpose wall time. With
/// AES-NI present, asserts the ≥ 4× AES/MMO speedup the backend exists
/// to deliver.
fn crypto_entries(entries: &mut Vec<String>) {
    let workload = format!("{CRYPTO_BATCH} blocks/batch, fixed key, single core per backend");
    let mut throughput = Vec::new(); // (backend name, aes, mmo, prg)
    let mut backends: Vec<&'static dyn CryptoBackend> = vec![choose_backend(Some("portable"))];
    if aes_ni_available() {
        backends.push(choose_backend(Some("aesni")));
    }
    for be in backends {
        let aes = Aes128::new(Block::from(0x2b7e_1516_28ae_d2a6_abf7_1588_09cf_4f3cu128));
        let aes_bps = blocks_per_sec(|buf| be.aes_encrypt_blocks(&aes, buf));
        let mmo_bps = blocks_per_sec(|buf| be.mmo_hash_blocks(&aes, buf));
        let prg_bps = blocks_per_sec(|buf| be.prg_fill(&aes, 7, buf));
        eprintln!(
            "[crypto_backend_{}] aes {:.1} Mblk/s, mmo {:.1} Mblk/s, prg {:.1} Mblk/s",
            be.name(),
            aes_bps / 1e6,
            mmo_bps / 1e6,
            prg_bps / 1e6
        );
        entries.push(entry(
            &format!("crypto_backend_{}", be.name()),
            &workload,
            "measured",
            &[
                ("aes_blocks_per_sec", aes_bps),
                ("mmo_blocks_per_sec", mmo_bps),
                ("prg_blocks_per_sec", prg_bps),
            ],
        ));
        throughput.push((be.name(), aes_bps, mmo_bps, prg_bps));
    }

    if let [(_, p_aes, p_mmo, _), (_, n_aes, n_mmo, _)] = throughput[..] {
        let (aes_x, mmo_x) = (n_aes / p_aes, n_mmo / p_mmo);
        assert!(
            aes_x >= 4.0 && mmo_x >= 4.0,
            "AES-NI backend must be >= 4x portable: aes {aes_x:.2}x, mmo {mmo_x:.2}x"
        );
        entries.push(entry(
            "crypto_backend_speedup",
            &workload,
            "pinned",
            &[("aes_speedup", aes_x), ("mmo_speedup", mmo_x)],
        ));
    } else {
        eprintln!("[crypto_backend_speedup] skipped: CPU has no AES-NI");
    }

    // The other half of the offline hot path: the KAPPA-column bit-matrix
    // transpose, at the silent-OT refill size, single-threaded and with
    // the parallel schedule's sharded workers.
    let m = 1 << 13;
    let t1 = transpose_secs(m, 1);
    let t4 = transpose_secs(m, 4);
    eprintln!("[iknp_transpose] {m} OTs: {:.3} ms at 1 thread, {:.3} ms at 4", t1 * 1e3, t4 * 1e3);
    entries.push(entry(
        "iknp_transpose",
        &format!("128 columns x {m} bits, sharded rows"),
        "measured",
        &[("wall_secs_1_thread", t1), ("wall_secs_4_threads", t4)],
    ));
}

fn main() {
    let transformer = std::env::args().any(|a| a == "--transformer");
    let crypto = std::env::args().any(|a| a == "--crypto");
    let out_path = std::env::args().skip(1).find(|a| !a.starts_with("--")).unwrap_or_else(|| {
        if transformer {
            "BENCH_transformer.json"
        } else if crypto {
            "BENCH_crypto.json"
        } else {
            "BENCH_latest.json"
        }
        .to_owned()
    });
    let mut entries = Vec::new();

    if transformer || crypto {
        if transformer {
            transformer_entries(&mut entries);
        } else {
            crypto_entries(&mut entries);
        }
        let json = format!(
            "{{\n  \"schema\": \"abnn2-bench/v1\",\n  \"entries\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out_path, &json).expect("write BENCH json");
        println!("wrote {out_path}");
        return;
    }

    // First entry: the silent subsystem's headline, on the Fig-4 first
    // layer (128×784) at η = 8. The ≥10× extension-bytes reduction is
    // asserted here so every generated BENCH file re-proves the claim.
    {
        let (m, n, o) = (128usize, 784usize, 1usize);
        let t0 = Instant::now();
        let (iknp_ext, iknp_total) = triplet_tagged(OfflineMode::Iknp, m, n, o);
        let iknp_wall = t0.elapsed();
        let t1 = Instant::now();
        let (silent_ext, silent_total) = triplet_tagged(OfflineMode::Silent, m, n, o);
        let silent_wall = t1.elapsed();
        let ext_reduction = iknp_ext as f64 / silent_ext as f64;
        assert!(
            silent_ext * 10 <= iknp_ext,
            "silent extension bytes regressed below 10x: {silent_ext} vs {iknp_ext}"
        );
        eprintln!(
            "[silent_vs_iknp_offline] extension {iknp_ext} -> {silent_ext} B ({ext_reduction:.1}x), \
             offline total {iknp_total} -> {silent_total} B"
        );
        entries.push(entry(
            "silent_vs_iknp_offline",
            "Fig-4 layer 1 (128x784), eta 8 (2,2,2,2), ring 2^32, batch 1",
            "pinned",
            &[
                ("iknp_extension_bytes", iknp_ext as f64),
                ("silent_extension_bytes", silent_ext as f64),
                ("extension_reduction", ext_reduction),
                ("iknp_offline_bytes", iknp_total as f64),
                ("silent_offline_bytes", silent_total as f64),
                ("offline_reduction", iknp_total as f64 / silent_total as f64),
                ("iknp_wall_secs", iknp_wall.as_secs_f64()),
                ("silent_wall_secs", silent_wall.as_secs_f64()),
            ],
        ));
    }

    // Table 1: analytic OT complexity — no wire traffic to measure.
    {
        let (m, n, l) = (128usize, 784usize, 32u32);
        let sml = complexity::secureml(m, n, 1, l);
        let ours = complexity::ours_one_batch(m, n, l, 4, 4);
        entries.push(entry(
            "table1_analytic_complexity",
            "128x784 matrix-vector, ring 2^32, eta 8 (gamma=4, N=4)",
            "analytic",
            &[
                ("secureml_comm_bytes", sml.comm_bits / 8.0),
                ("ours_comm_bytes", ours.comm_bits / 8.0),
                ("secureml_ot_count", sml.ot_count),
                ("ours_ot_count", ours.ot_count),
            ],
        ));
    }

    // Table 2: offline triplet generation for the whole Fig-4 network.
    {
        let net = paper_quantized(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 32);
        let t0 = Instant::now();
        let iknp =
            run_offline_triplets_with(&net, 1, NetworkModel::instant(), OfflineMode::Iknp, 51);
        let iknp_wall = t0.elapsed();
        let t1 = Instant::now();
        let silent =
            run_offline_triplets_with(&net, 1, NetworkModel::instant(), OfflineMode::Silent, 51);
        let silent_wall = t1.elapsed();
        eprintln!("[table2_offline_triplets] iknp {} B, silent {} B", iknp.bytes, silent.bytes);
        entries.push(entry(
            "table2_offline_triplets",
            "Fig-4 network (784-128-128-10), eta 8 (2,2,2,2), ring 2^32, batch 1",
            "measured",
            &[
                ("iknp_offline_bytes", iknp.bytes as f64),
                ("silent_offline_bytes", silent.bytes as f64),
                ("iknp_simulated_secs", iknp.time.as_secs_f64()),
                ("silent_simulated_secs", silent.time.as_secs_f64()),
                ("iknp_wall_secs", iknp_wall.as_secs_f64()),
                ("silent_wall_secs", silent_wall.as_secs_f64()),
            ],
        ));
    }

    // Table 3: single-layer matmul microbenchmark (quick shape d=100).
    {
        let t0 = Instant::now();
        let (_, bytes) = triplet_tagged(OfflineMode::Iknp, 128, 100, 1);
        let wall = t0.elapsed();
        entries.push(entry(
            "table3_matmul_microbench",
            "128x100 matrix-vector triplet, eta 8 (2,2,2,2), ring 2^32",
            "measured",
            &[("offline_bytes", bytes as f64), ("wall_secs", wall.as_secs_f64())],
        ));
    }

    // Table 4: end-to-end secure prediction (quick shape: batch 1, LAN).
    {
        let net = paper_quantized(FragmentScheme::signed_bit_fields(&[2, 2]), 32);
        let t0 = Instant::now();
        let st = run_abnn2_e2e(&net, 1, NetworkModel::lan(), ReluVariant::Oblivious, 61);
        let wall = t0.elapsed();
        eprintln!(
            "[table4_e2e] offline {} B + online {} B, simulated {:.2}s",
            st.offline_bytes,
            st.online_bytes,
            st.total().as_secs_f64()
        );
        entries.push(entry(
            "table4_e2e_prediction",
            "Fig-4 network, eta 4 (2,2), ring 2^32, batch 1, LAN",
            "measured",
            &[
                ("offline_bytes", st.offline_bytes as f64),
                ("online_bytes", st.online_bytes as f64),
                ("total_bytes", st.bytes as f64),
                ("offline_simulated_secs", st.offline.as_secs_f64()),
                ("online_simulated_secs", st.online.as_secs_f64()),
                ("wall_secs", wall.as_secs_f64()),
            ],
        ));
    }

    // Table 5: QUOTIENT comparison at ternary weights (quick shape).
    {
        let net = paper_quantized(FragmentScheme::ternary(), 32);
        let t0 = Instant::now();
        let ours = run_abnn2_e2e(&net, 1, NetworkModel::lan(), ReluVariant::Oblivious, 71);
        let quo = run_quotient_e2e(&net, 1, NetworkModel::lan(), 72);
        let wall = t0.elapsed();
        entries.push(entry(
            "table5_quotient_comparison",
            "Fig-4 network, ternary, ring 2^32, batch 1, LAN",
            "measured",
            &[
                ("ours_offline_bytes", ours.offline_bytes as f64),
                ("ours_online_bytes", ours.online_bytes as f64),
                ("ours_simulated_secs", ours.total().as_secs_f64()),
                ("quotient_total_bytes", quo.bytes as f64),
                ("quotient_simulated_secs", quo.total().as_secs_f64()),
                ("wall_secs", wall.as_secs_f64()),
            ],
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"abnn2-bench/v1\",\n  \"entries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH json");
    println!("wrote {out_path}");
}

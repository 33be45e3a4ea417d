//! Load generator for the serving frontend: N concurrent clients fire M
//! requests each at one [`Server`], every logit is checked against the
//! plaintext oracle (`forward_exact`), and the run ends with the server's
//! metrics — admission counters, pool hit rate, per-phase traffic.
//!
//! ```sh
//! cargo run --release --example serve_load -- --clients 8 --requests 2
//! cargo run --release --example serve_load -- --cnn --clients 4 --requests 2
//! cargo run --release --example serve_load -- --clients 4 --requests 1 --metrics-out metrics.prom
//! ```
//!
//! `--metrics-out FILE` additionally writes the final server metrics in
//! the Prometheus text exposition format
//! ([`MetricsSnapshot::render_prometheus`](abnn2::serve::MetricsSnapshot::render_prometheus)),
//! including the per-frame-tag byte counters.
//!
//! `--sessions-per-worker N` lets each event-loop worker multiplex N
//! suspendable sessions at once (default 1); deadlines are widened when
//! multiplexing, since sessions legitimately time-share their worker.
//! `./scripts/check.sh --async-serve-smoke` uses this to drive more
//! concurrent clients than worker threads through the frontend.
//!
//! `--cnn` serves a conv→pool→dense model instead of the MLP — same
//! frontend, same pool, same graph executor underneath.
//!
//! `--transformer` serves a quantized encoder block (secret×secret
//! matmuls, softmax, GELU, layer-norm) through the identical event-loop
//! workers and pool, checked against the same oracle.
//!
//! Exits nonzero on any mismatch or failed request, so CI can use it as a
//! smoke test (`./scripts/check.sh --serve-smoke` / `--cnn-serve-smoke` /
//! `--transformer-smoke`).

use abnn2::math::{FragmentScheme, Ring};
use abnn2::nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::{ConvShape, LayerGraph, Network, QuantizedCnn, QuantizedConv, SyntheticMnist};
use abnn2::serve::{GovernorConfig, ServeClient, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn build_model() -> QuantizedNetwork {
    let data = SyntheticMnist::generate(100, 0, 800);
    let mut net = Network::new(&[784, 10, 8, 10], 800);
    net.train_epoch(&data.train, 0.05);
    QuantizedNetwork::quantize(
        &net,
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 4,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
        },
    )
}

/// A conv→pool→dense model in the paper's CNN shape, scaled down so the
/// smoke test stays fast: 1×8×8 input, conv 2@3×3 → 2×6×6, pool 2 →
/// 2×3×3 = 18, dense 18→8→10.
fn build_cnn() -> QuantizedCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(802);
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2]);
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
    let mk_dense = |out_dim: usize, in_dim: usize, rng: &mut rand::rngs::StdRng| QuantizedDense {
        out_dim,
        in_dim,
        weights: (0..out_dim * in_dim).map(|_| rng.gen_range(lo..=hi)).collect(),
        bias: (0..out_dim as u64).collect(),
    };
    let d1 = mk_dense(8, 18, &mut rng);
    let d2 = mk_dense(10, 8, &mut rng);
    QuantizedCnn {
        config: QuantConfig { ring: Ring::new(32), frac_bits: 6, weight_frac_bits: 3, scheme },
        conv,
        pool_window: 2,
        dense: vec![d1, d2],
    }
}

struct Args {
    clients: usize,
    requests: usize,
    cnn: bool,
    transformer: bool,
    metrics_out: Option<PathBuf>,
    sessions_per_worker: usize,
    governor: bool,
    inject_panic: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        clients: 8,
        requests: 2,
        cnn: false,
        transformer: false,
        metrics_out: None,
        sessions_per_worker: 1,
        governor: false,
        inject_panic: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |name: &str| {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} requires a positive integer"))
        };
        match arg.as_str() {
            "--clients" => parsed.clients = grab("--clients"),
            "--requests" => parsed.requests = grab("--requests"),
            "--sessions-per-worker" => {
                parsed.sessions_per_worker = grab("--sessions-per-worker");
            }
            "--cnn" => parsed.cnn = true,
            "--transformer" => parsed.transformer = true,
            "--governor" => parsed.governor = true,
            "--inject-panic" => parsed.inject_panic = Some(grab("--inject-panic") as u64),
            "--metrics-out" => {
                parsed.metrics_out =
                    Some(args.next().expect("--metrics-out requires a file path").into());
            }
            other => panic!(
                "unknown argument: {other} \
                 (use [--cnn | --transformer] --clients N --requests M \
                 [--sessions-per-worker K] [--governor] [--inject-panic ORDINAL] \
                 [--metrics-out FILE])"
            ),
        }
    }
    assert!(
        parsed.clients > 0 && parsed.requests > 0 && parsed.sessions_per_worker > 0,
        "need at least one client, one request, and one session per worker"
    );
    parsed
}

/// Governor budgets for the run. `--governor` tightens every limit well
/// below the defaults (while staying above what an honest multiplexed
/// load needs); `--inject-panic N` kills the Nth admitted session at the
/// top of its first online sweep, which a clean run must absorb via
/// quarantine + client retry — zero worker deaths either way.
fn governor_for(args: &Args) -> GovernorConfig {
    let mut g = if args.governor {
        GovernorConfig {
            idle_timeout: Some(Duration::from_secs(30)),
            max_outbound_bytes: Some(8 * 1024 * 1024),
            inbound_quota: true,
            ..GovernorConfig::default()
        }
    } else {
        GovernorConfig::default()
    };
    g.inject_panic_session = args.inject_panic;
    g
}

/// Deadlines for the run: the LAN defaults when every worker runs one
/// session at a time, widened when sessions multiplex — a session can
/// legitimately wait far longer than a LAN round trip for its worker's
/// attention while other sessions time-share the event loop.
fn deadlines_for(sessions_per_worker: usize) -> abnn2::core::SessionDeadlines {
    if sessions_per_worker > 1 {
        abnn2::core::SessionDeadlines::uniform(Duration::from_secs(120))
    } else {
        abnn2::core::SessionDeadlines::lan()
    }
}

/// Waits for the workers' session bookkeeping to settle, prints the
/// server's metrics (optionally also dumping the Prometheus exposition to
/// `metrics_out`), and asserts a clean run.
fn report_metrics(
    server: &Server,
    total: usize,
    n_clients: usize,
    n_requests: usize,
    metrics_out: Option<&Path>,
) {
    let settle = Instant::now();
    while server.metrics().completed < (total as u64) && settle.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let m = server.metrics();
    println!("\nserver metrics:");
    println!(
        "  accepted {} | rejected {} | completed {} | failed {}",
        m.accepted, m.rejected, m.completed, m.failed
    );
    println!(
        "  governor: evicted {} | panicked {} | worker respawns {}",
        m.evicted, m.panicked, m.worker_respawns
    );
    println!(
        "  pool: produced {} | hits {} | misses {} | ready {}",
        m.pool.produced, m.pool.hits, m.pool.misses, m.pool.ready
    );
    println!("  per-phase traffic (server side):");
    for (name, s) in &m.phases {
        println!(
            "    {name:<16} {:>10} B sent {:>10} B recv {:>6} msgs",
            s.bytes_sent,
            s.bytes_received,
            s.messages_sent + s.messages_received
        );
    }
    println!("  per-frame-tag traffic (server side, tag byte excluded):");
    for (tag, s) in &m.tags {
        println!(
            "    0x{tag:02x} {:<24} {:>10} B sent {:>10} B recv {:>6} frames",
            abnn2::net::wire::tags::name(*tag),
            s.bytes_sent,
            s.bytes_received,
            s.messages_sent + s.messages_received
        );
    }

    if let Some(path) = metrics_out {
        std::fs::write(path, m.render_prometheus()).expect("write --metrics-out file");
        println!("  wrote Prometheus metrics to {}", path.display());
    }

    // Clean load fails no session; with an injected panic, exactly the
    // quarantined sessions fail — never a neighbor, never a worker.
    assert_eq!(m.failed, m.panicked, "only quarantined sessions may fail under clean load");
    assert_eq!(m.evicted, 0, "no honest session may trip a governor budget");
    assert_eq!(m.worker_respawns, 0, "a session panic must never cost a worker");
    assert_eq!(total, n_clients * n_requests);
    println!("\nserve load test passed.");
}

/// Drives `n_clients × n_requests` MLP requests and checks every logit.
fn run_mlp(args: &Args, metrics_out: Option<&Path>) {
    let (n_clients, n_requests, spw) = (args.clients, args.requests, args.sessions_per_worker);
    let q = build_model();
    let info = LayerGraph::from(&q);
    let codec = q.config.activation_codec();

    let deadlines = deadlines_for(spw);
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 2 * n_clients.max(4),
        sessions_per_worker: spw,
        pool_depth: n_clients.min(8),
        deadlines,
        governor: governor_for(args),
        ..ServeConfig::default()
    };
    let server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");
    let addr = server.addr();
    println!(
        "serving MLP on {addr} with 4 workers x {spw} sessions, pool depth {}",
        n_clients.min(8)
    );

    // Give the pool a head start so at least the first wave runs warm.
    let warmed = server.warm_up(1, n_clients.min(8), Duration::from_secs(30));
    println!("pool warm: {warmed}");

    let data = SyntheticMnist::generate(n_clients * n_requests, 0, 801);
    let started = Instant::now();
    let per_client: Vec<(usize, usize, u32)> = std::thread::scope(|scope| {
        (0..n_clients)
            .map(|c| {
                let client = ServeClient::for_model(info.clone()).with_deadlines(deadlines);
                let q = &q;
                let codec = &codec;
                let samples = &data.train;
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(900 + c as u64);
                    let mut exact = 0usize;
                    let mut warm = 0usize;
                    let mut attempts = 0u32;
                    for r in 0..n_requests {
                        let sample = &samples[c * n_requests + r];
                        let input = codec.encode_vec(&sample.pixels);
                        let expected = q.forward_exact(&input);
                        let (y, report) = client
                            .run(addr, std::slice::from_ref(&input), &mut rng)
                            .expect("request failed");
                        assert_eq!(
                            y.col(0),
                            expected,
                            "client {c} request {r}: served logits diverge from forward_exact"
                        );
                        exact += 1;
                        warm += usize::from(report.warm);
                        attempts += report.attempts;
                    }
                    (exact, warm, attempts)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let total: usize = per_client.iter().map(|(e, _, _)| e).sum();
    let warm: usize = per_client.iter().map(|(_, w, _)| w).sum();
    println!(
        "\n{total} requests from {n_clients} clients in {elapsed:?} — all bit-exact, {warm} warm"
    );
    report_metrics(&server, total, n_clients, n_requests, metrics_out);
}

/// Drives `n_clients × n_requests` CNN requests through the same frontend
/// and checks every logit — exercising graph-keyed pool bundles and the
/// unified executor over a spatial topology.
fn run_cnn(args: &Args, metrics_out: Option<&Path>) {
    let (n_clients, n_requests, spw) = (args.clients, args.requests, args.sessions_per_worker);
    let cnn = build_cnn();
    let ring = cnn.config.ring;
    let info = LayerGraph::from(&cnn);

    let deadlines = deadlines_for(spw);
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 2 * n_clients.max(4),
        sessions_per_worker: spw,
        pool_depth: n_clients.min(8),
        deadlines,
        governor: governor_for(args),
        ..ServeConfig::default()
    };
    let server = Server::start(cnn.clone(), "127.0.0.1:0", config).expect("start server");
    let addr = server.addr();
    println!(
        "serving CNN on {addr} with 4 workers x {spw} sessions, pool depth {}",
        n_clients.min(8)
    );

    let warmed = server.warm_up(1, n_clients.min(8), Duration::from_secs(30));
    println!("pool warm: {warmed}");

    let started = Instant::now();
    let per_client: Vec<(usize, usize, u32)> = std::thread::scope(|scope| {
        (0..n_clients)
            .map(|c| {
                let client = ServeClient::for_model(info.clone()).with_deadlines(deadlines);
                let cnn = &cnn;
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(950 + c as u64);
                    let mut exact = 0usize;
                    let mut warm = 0usize;
                    let mut attempts = 0u32;
                    for r in 0..n_requests {
                        let image: Vec<u64> = (0..cnn.conv.in_shape.len())
                            .map(|_| ring.reduce(rng.gen_range(0..1u64 << cnn.config.frac_bits)))
                            .collect();
                        let expected = cnn.forward_exact(&image);
                        let (y, report) = client
                            .run(addr, std::slice::from_ref(&image), &mut rng)
                            .expect("request failed");
                        assert_eq!(
                            y.col(0),
                            expected,
                            "client {c} request {r}: served CNN logits diverge from forward_exact"
                        );
                        exact += 1;
                        warm += usize::from(report.warm);
                        attempts += report.attempts;
                    }
                    (exact, warm, attempts)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let total: usize = per_client.iter().map(|(e, _, _)| e).sum();
    let warm: usize = per_client.iter().map(|(_, w, _)| w).sum();
    println!(
        "\n{total} CNN requests from {n_clients} clients in {elapsed:?} — all bit-exact, {warm} warm"
    );
    report_metrics(&server, total, n_clients, n_requests, metrics_out);
}

/// A quantized encoder block sized for the smoke test: 4 tokens of width
/// 4, feed-forward 8, 3 classes — both secret×secret matmuls plus
/// softmax, GELU and two layer-norms on every request's execution path.
fn build_transformer() -> QuantizedTransformer {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(4),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(803);
    QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("valid transformer")
}

/// Drives `n_clients × n_requests` transformer requests through the same
/// event-loop frontend — matrix-triple bundles from the pool for warm
/// sessions, interactive Gilboa generation for cold ones.
fn run_transformer(args: &Args, metrics_out: Option<&Path>) {
    let (n_clients, n_requests, spw) = (args.clients, args.requests, args.sessions_per_worker);
    let model = build_transformer();
    let ring = model.config.ring;
    let info = LayerGraph::from(&model);

    let deadlines = deadlines_for(spw);
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 2 * n_clients.max(4),
        sessions_per_worker: spw,
        pool_depth: n_clients.min(8),
        deadlines,
        governor: governor_for(args),
        ..ServeConfig::default()
    };
    let server = Server::start(model.clone(), "127.0.0.1:0", config).expect("start server");
    let addr = server.addr();
    println!(
        "serving transformer on {addr} with 4 workers x {spw} sessions, pool depth {}",
        n_clients.min(8)
    );

    let warmed = server.warm_up(1, n_clients.min(8), Duration::from_secs(30));
    println!("pool warm: {warmed}");

    let started = Instant::now();
    let per_client: Vec<(usize, usize, u32)> = std::thread::scope(|scope| {
        (0..n_clients)
            .map(|c| {
                let client = ServeClient::for_model(info.clone()).with_deadlines(deadlines);
                let model = &model;
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(970 + c as u64);
                    let mut exact = 0usize;
                    let mut warm = 0usize;
                    let mut attempts = 0u32;
                    for r in 0..n_requests {
                        let tokens: Vec<u64> = (0..model.seq * model.d)
                            .map(|_| ring.reduce(rng.gen_range(-64i64..64) as u64))
                            .collect();
                        let expected = model.forward_exact(&tokens);
                        let (y, report) = client
                            .run(addr, std::slice::from_ref(&tokens), &mut rng)
                            .expect("request failed");
                        assert_eq!(
                            y.col(0),
                            expected,
                            "client {c} request {r}: served transformer logits diverge \
                             from forward_exact"
                        );
                        exact += 1;
                        warm += usize::from(report.warm);
                        attempts += report.attempts;
                    }
                    (exact, warm, attempts)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let total: usize = per_client.iter().map(|(e, _, _)| e).sum();
    let warm: usize = per_client.iter().map(|(_, w, _)| w).sum();
    println!(
        "\n{total} transformer requests from {n_clients} clients in {elapsed:?} — \
         all bit-exact, {warm} warm"
    );
    report_metrics(&server, total, n_clients, n_requests, metrics_out);
}

fn main() {
    let args = parse_args();
    assert!(!(args.cnn && args.transformer), "--cnn and --transformer are mutually exclusive");
    if args.transformer {
        run_transformer(&args, args.metrics_out.as_deref());
    } else if args.cnn {
        run_cnn(&args, args.metrics_out.as_deref());
    } else {
        run_mlp(&args, args.metrics_out.as_deref());
    }
}

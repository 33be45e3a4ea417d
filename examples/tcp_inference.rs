//! Two-process secure inference over real TCP.
//!
//! Each party runs as its own OS process connected by a localhost socket —
//! the same [`SecureServer`]/[`SecureClient`] code that drives the simulated
//! [`Endpoint`], now over [`TcpTransport`], because every protocol layer is
//! generic over [`Transport`]:
//!
//! ```sh
//! cargo run --release --example tcp_inference                   # both roles
//! cargo run --release --example tcp_inference -- server 7878    # party 0
//! cargo run --release --example tcp_inference -- client 7878    # party 1
//! ```
//!
//! The client verifies two properties:
//!
//! 1. **Bit-exactness** — the logits received over TCP equal
//!    [`QuantizedNetwork::forward_exact`] on the plaintext input, bit for
//!    bit (and equal a simulated in-process run of the same protocol).
//! 2. **Byte parity** — the application bytes counted by the TCP transport
//!    equal the simulated run's count exactly: the paper's "Comm." numbers
//!    are properties of the protocol, not of the wire.

use abnn2::core::inference::{SecureClient, SecureServer};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel, TcpTransport, Transport};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::{Network, SyntheticMnist};
use rand::SeedableRng;
use std::net::TcpListener;
use std::process::{exit, Command};

const MODEL_SEED: u64 = 700;
const DATA_SEED: u64 = 701;

/// Both processes derive the identical model from the shared seed, standing
/// in for the out-of-band model exchange a deployment would do. Training is
/// deterministic, so server and client agree on every weight.
fn build_model() -> QuantizedNetwork {
    let data = SyntheticMnist::generate(100, 0, MODEL_SEED);
    let mut net = Network::new(&[784, 10, 8, 10], MODEL_SEED);
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

/// The client's fixed-point input, identical in every role.
fn build_input(q: &QuantizedNetwork) -> Vec<u64> {
    let sample = &SyntheticMnist::generate(1, 0, DATA_SEED).train[0];
    q.config.activation_codec().encode_vec(&sample.pixels)
}

fn run_server(port: u16) {
    let q = build_model();
    let mut ch = TcpTransport::accept(("127.0.0.1", port)).expect("accept");
    let server = SecureServer::for_model(q);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    server.run(&mut ch, 1, &mut rng).expect("server protocol failed");
    ch.flush().expect("flush");
    let snap = ch.snapshot();
    println!(
        "[server] done: sent {} B, received {} B over TCP",
        snap.bytes_sent, snap.bytes_received
    );
}

fn run_client(port: u16) {
    let q = build_model();
    let input = build_input(&q);
    let expected = q.forward_exact(&input);

    // Reference run over the simulated endpoint: same model, same input.
    let (sim_logits, sim_bytes) = {
        let server = SecureServer::for_model(q.clone());
        let client = SecureClient::for_model(server.public_model());
        let input2 = input.clone();
        let (_, y, report) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                server.run(ch, 1, &mut rng).expect("sim server");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                let state = client.offline(ch, 1, &mut rng).expect("sim offline");
                client.online_raw(ch, state, &[input2], &mut rng).expect("sim online")
            },
        );
        (y.col(0), report.total_bytes())
    };

    // The real thing: the same client code over a socket.
    let mut ch = TcpTransport::connect(("127.0.0.1", port)).expect("connect");
    let client = SecureClient::for_model(SecureServer::for_model(q.clone()).public_model());
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let state = client.offline(&mut ch, 1, &mut rng).expect("offline phase failed");
    let y = client.online_raw(&mut ch, state, &[input], &mut rng).expect("online phase failed");
    let tcp_logits = y.col(0);
    let snap = ch.snapshot();
    let tcp_bytes = snap.bytes_sent + snap.bytes_received;

    println!("[client] logits over TCP:       {tcp_logits:?}");
    println!("[client] forward_exact oracle:  {expected:?}");
    assert_eq!(tcp_logits, expected, "TCP logits must equal the plaintext oracle bit-for-bit");
    assert_eq!(sim_logits, expected, "simulated logits must equal the oracle too");
    println!(
        "[client] bytes on the wire: {tcp_bytes} (TCP, payload only) vs {sim_bytes} (simulated)"
    );
    assert_eq!(tcp_bytes, sim_bytes, "application-layer byte counts must be transport-independent");
    println!("[client] bit-exact outputs and byte-count parity verified ✓");
}

/// Orchestrates both roles as separate OS processes.
fn run_both() {
    // Probe a free port, then hand it to both children. The tiny window
    // between dropping the probe listener and the server's bind is fine for
    // an example.
    let port = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").port()
    };
    let exe = std::env::current_exe().expect("current_exe");
    println!("spawning server and client processes on 127.0.0.1:{port}…");
    let mut server =
        Command::new(&exe).args(["server", &port.to_string()]).spawn().expect("spawn server");
    let mut client =
        Command::new(&exe).args(["client", &port.to_string()]).spawn().expect("spawn client");
    let client_status = client.wait().expect("wait client");
    let server_status = server.wait().expect("wait server");
    assert!(server_status.success(), "server process failed: {server_status}");
    assert!(client_status.success(), "client process failed: {client_status}");
    println!("two-process run complete ✓");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None => run_both(),
        Some("server") => {
            let port: u16 = args.get(2).map_or(7878, |p| p.parse().expect("port"));
            run_server(port);
        }
        Some("client") => {
            let port: u16 = args.get(2).map_or(7878, |p| p.parse().expect("port"));
            run_client(port);
        }
        Some(other) => {
            eprintln!("unknown role {other:?}; use `server <port>`, `client <port>`, or no args");
            exit(2);
        }
    }
}

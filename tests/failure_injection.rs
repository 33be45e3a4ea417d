//! Failure injection across crate boundaries: disconnections, truncated and
//! corrupted messages must surface as typed errors — `Channel` for a dead
//! peer, `Malformed` for framing violations — never as silent wrong answers
//! or hangs. The [`FaultyTransport`] decorator injects the faults at the
//! transport layer, exercising the same code paths a flaky real network
//! would.

use abnn2::core::inference::{SecureClient, SecureServer};
use abnn2::core::ProtocolError;
use abnn2::crypto::Block;
use abnn2::gc::{circuits, GcError, YaoEvaluator, YaoGarbler};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, Endpoint, Fault, FaultyTransport, NetworkModel, TransportError};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::{ConvShape, Network, QuantizedCnn, QuantizedConv};
use abnn2::ot::OtError;
use rand::SeedableRng;

#[test]
fn dropped_peer_fails_base_ot_setup() {
    let (mut a, b) = Endpoint::pair(NetworkModel::instant());
    drop(b);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    assert!(abnn2::ot::KkChooser::setup(&mut a, &mut rng).is_err());
    assert!(abnn2::ot::IknpSender::setup(&mut a, &mut rng).is_err());
}

#[test]
fn client_abort_mid_inference_surfaces_to_server() {
    let net = Network::new(&[16, 8, 4], 2);
    let q = QuantizedNetwork::quantize(
        &net,
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        },
    );
    let server = SecureServer::for_model(q);
    let info = server.public_model();
    let (server_result, (), _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            server.run(ch, 1, &mut rng)
        },
        move |ch| {
            // The client handshakes and sets up the session, then walks
            // away before the offline phase.
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let ours = abnn2::core::SessionParams::for_graph(
                &info.graph(),
                abnn2::core::ReluVariant::Oblivious,
                1,
            );
            let request = abnn2::core::HelloRequest::default();
            abnn2::core::handshake::handshake_client_ext(ch, ours, &[0; 16], request)
                .expect("handshake");
            let _ = abnn2::core::session::ClientSession::setup(ch, &mut rng).expect("setup");
        },
    );
    assert!(server_result.is_err(), "server must observe the aborted client");
}

/// The chooser's transport dies mid-way through the base-OT setup: the
/// chooser sees the cut as `Channel` (Closed), and the sender — starved of
/// the chooser's reply — also fails with `Channel`, not `Malformed`.
#[test]
fn faulty_cut_mid_setup_distinguishes_closed_from_malformed() {
    let (pair_a, pair_b) = Endpoint::pair(NetworkModel::instant());
    let (sender_result, chooser_result) = std::thread::scope(|s| {
        let h1 = s.spawn(move || {
            let mut ch = pair_a;
            let mut rng = rand::rngs::StdRng::seed_from_u64(15);
            abnn2::ot::IknpSender::setup(&mut ch, &mut rng)
        });
        let h2 = s.spawn(move || {
            // The IKNP sender's setup runs base OTs as chooser: its first
            // send is the point batch. Cutting at message 0 kills the
            // session before any protocol byte leaves this side.
            let mut ch = FaultyTransport::new(pair_b, Fault::CutAfterMessages(0));
            let mut rng = rand::rngs::StdRng::seed_from_u64(16);
            abnn2::ot::IknpReceiver::setup(&mut ch, &mut rng)
        });
        (h1.join().expect("sender"), h2.join().expect("receiver"))
    });
    assert_eq!(sender_result.err(), Some(OtError::Channel));
    assert_eq!(chooser_result.err(), Some(OtError::Channel));
}

#[test]
fn truncated_gc_tables_detected() {
    let circuit = circuits::relu_reshare_circuit(8);
    let (evaluator_result, (), _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
            yao.run(ch, &circuit, &[false; 8])
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let mut garbler = YaoGarbler::setup(ch, &mut rng).expect("setup");
            // A malicious/buggy garbler for a *different* circuit: the
            // evaluator's size checks must reject the material.
            let small = circuits::relu_sign_circuit(8);
            garbler.run(ch, &small, &[false; 8], &mut rng).ok();
        },
    );
    assert!(
        matches!(
            evaluator_result,
            Err(GcError::Malformed(_)) | Err(GcError::Channel) | Err(GcError::Ot(_))
        ),
        "got {evaluator_result:?}"
    );
}

/// A truncated AND-table message — injected at the transport, as a lossy
/// middlebox would — must be rejected as `Malformed`, not misevaluated.
#[test]
fn faulty_truncated_gc_table_is_malformed() {
    let circuit = circuits::relu_reshare_circuit(8);
    let circuit2 = circuit.clone();
    let (pair_g, pair_e) = Endpoint::pair(NetworkModel::instant());
    let (garbler_result, evaluator_result) = std::thread::scope(|s| {
        let h1 = s.spawn(move || {
            // Garbler send order: 0 = base-OT points (inside setup),
            // 1 = its own input labels, 2 = the AND tables. Truncating the
            // table message to a non-multiple of 16 breaks block framing.
            let mut ch =
                FaultyTransport::new(pair_g, Fault::TruncateMessage { index: 2, keep: 21 });
            let mut rng = rand::rngs::StdRng::seed_from_u64(25);
            let mut garbler = YaoGarbler::setup(&mut ch, &mut rng).expect("setup");
            garbler.run(&mut ch, &circuit, &[false; 16], &mut rng)
        });
        let h2 = s.spawn(move || {
            let mut ch = pair_e;
            let mut rng = rand::rngs::StdRng::seed_from_u64(26);
            let mut yao = YaoEvaluator::setup(&mut ch, &mut rng).expect("setup");
            yao.run(&mut ch, &circuit2, &[false; 8])
        });
        (h1.join().expect("garbler"), h2.join().expect("evaluator"))
    });
    assert_eq!(
        evaluator_result.err(),
        Some(GcError::Malformed("garbled table stream frame length")),
        "truncation must be typed as Malformed, not Closed"
    );
    // The garbler may or may not notice (the evaluator hangs up); it must
    // not report success with a corrupted transcript unless it finished
    // sending before the peer vanished.
    let _ = garbler_result;
}

/// A single flipped byte in the chooser's base-OT point batch must be
/// caught by curve-point validation — never decrypt to a wrong message.
#[test]
fn faulty_corrupted_ot_message_detected() {
    let (pair_s, pair_c) = Endpoint::pair(NetworkModel::instant());
    let (sender_result, chooser_result) = std::thread::scope(|s| {
        let h1 = s.spawn(move || {
            let mut ch = pair_s;
            let mut rng = rand::rngs::StdRng::seed_from_u64(35);
            abnn2::ot::base::send(&mut ch, &[(Block::ZERO, Block::ONES)], &mut rng)
        });
        let h2 = s.spawn(move || {
            // Chooser send 0 is the R point batch; flip one byte of the
            // y-coordinate in flight.
            let mut ch = FaultyTransport::new(pair_c, Fault::CorruptMessage { index: 0, byte: 40 });
            let mut rng = rand::rngs::StdRng::seed_from_u64(36);
            abnn2::ot::base::recv(&mut ch, &[true], &mut rng)
        });
        (h1.join().expect("sender"), h2.join().expect("chooser"))
    });
    assert_eq!(sender_result.err(), Some(OtError::InvalidPoint));
    // The sender aborts without replying, so the honest chooser sees the
    // hangup as a channel failure (or an invalid reply), never success.
    assert!(chooser_result.is_err());
}

#[test]
fn wrong_length_triplet_payload_rejected() {
    use abnn2::core::matmul::{triplet_server, TripletMode};
    use abnn2::ot::{FragmentChooser, KkSender, OfflineMode};
    let ring = Ring::new(32);
    let scheme = FragmentScheme::binary();
    let (server_result, (), _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut kk = FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
            triplet_server(ch, &mut kk, &[1, 0], 1, 2, 1, &scheme, ring, TripletMode::OneBatch)
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            let mut kk = KkSender::setup(ch, &mut rng).expect("setup");
            // Participate in the OT extension but then send a correctly
            // tagged ciphertext batch of the wrong length: the frame layer
            // passes it through, the triplet length check must reject it.
            let _ = kk.extend(ch, 2).expect("extend");
            ch.send(&[abnn2::net::wire::tags::TRIPLET_MASKED, 0, 0, 0]).expect("send");
        },
    );
    assert_eq!(
        server_result.err(),
        Some(ProtocolError::Malformed("triplet ciphertext batch length"))
    );
}

#[test]
fn invalid_curve_point_rejected_by_base_ot() {
    let (pair_a, pair_b) = Endpoint::pair(NetworkModel::instant());
    let (sender_result, ()) = std::thread::scope(|s| {
        let h1 = s.spawn(move || {
            let mut ch = pair_a;
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            abnn2::ot::base::send(&mut ch, &[(Block::ZERO, Block::ONES)], &mut rng)
        });
        let h2 = s.spawn(move || {
            let mut ch = pair_b;
            // Receive the setup point, then reply with a well-framed
            // 64-byte batch that is not a curve point: framing passes,
            // curve validation must reject it.
            let _ = ch.recv().expect("setup point");
            let mut junk = vec![abnn2::net::wire::tags::BASE_POINT_BATCH];
            junk.extend_from_slice(&[0xFFu8; 64]);
            ch.send(&junk).expect("send junk");
        });
        (h1.join().expect("sender"), h2.join().expect("receiver"))
    });
    assert_eq!(sender_result.err(), Some(OtError::InvalidPoint));
}

#[test]
fn transport_errors_convert_through_the_stack() {
    // TransportError → {Ot,Gc,Protocol}Error conversions preserve the
    // Closed/Malformed distinction and display meaningfully.
    let p: ProtocolError = TransportError::Closed.into();
    assert_eq!(p, ProtocolError::Channel);
    let p: ProtocolError = TransportError::Malformed("u64 frame length").into();
    assert_eq!(p, ProtocolError::Malformed("u64 frame length"));
    let p: ProtocolError = OtError::Channel.into();
    assert!(p.to_string().contains("oblivious transfer"));
    let p: ProtocolError = GcError::Malformed("x").into();
    assert!(p.to_string().contains("garbled circuit"));
    let g: GcError = TransportError::Malformed("block batch frame length").into();
    assert_eq!(g, GcError::Malformed("block batch frame length"));
    let o: OtError = TransportError::Closed.into();
    assert_eq!(o, OtError::Channel);
}

#[test]
fn mismatched_batch_dimensions_rejected_before_io() {
    let net = Network::new(&[8, 4], 10);
    let q = QuantizedNetwork::quantize(
        &net,
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 0,
            scheme: FragmentScheme::ternary(),
        },
    );
    let server = SecureServer::for_model(q);
    let client = SecureClient::for_model(server.public_model());
    let (mut a, _b) = Endpoint::pair(NetworkModel::instant());
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    assert_eq!(
        server.offline(&mut a, 0, &mut rng).err(),
        Some(ProtocolError::Dimension("batch must be positive"))
    );
    let (mut c, _d) = Endpoint::pair(NetworkModel::instant());
    assert_eq!(
        client.offline(&mut c, 0, &mut rng).err(),
        Some(ProtocolError::Dimension("batch must be positive"))
    );
}

/// A CNN with an empty dense stack lowers to an empty graph. Handing its
/// public model to a client must not panic; the client's offline phase and
/// the server's inbound quota both reject the graph with a typed error
/// before any I/O.
#[test]
fn cnn_without_dense_layers_fails_typed_instead_of_panicking() {
    let cnn = QuantizedCnn {
        config: QuantConfig {
            ring: Ring::new(32),
            frac_bits: 6,
            weight_frac_bits: 0,
            scheme: FragmentScheme::ternary(),
        },
        conv: QuantizedConv {
            out_channels: 2,
            in_shape: ConvShape { channels: 1, height: 8, width: 8 },
            kh: 3,
            kw: 3,
            stride: 1,
            weights: vec![1; 18],
            bias: vec![0, 0],
        },
        pool_window: 2,
        dense: vec![],
    };
    let server = SecureServer::for_model(cnn);
    let client = SecureClient::for_model(server.public_model());
    let (mut a, _b) = Endpoint::pair(NetworkModel::instant());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    assert_eq!(
        client.offline(&mut a, 1, &mut rng).err(),
        Some(ProtocolError::Dimension("graph has no ops"))
    );
    assert_eq!(server.inbound_ceiling(1).err(), Some(ProtocolError::Dimension("graph has no ops")));
}

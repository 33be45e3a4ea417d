//! Versioned session handshake (§3c of DESIGN.md).
//!
//! Before any base OT flows, the two parties exchange one fixed-size hello
//! frame each and agree on every parameter that must match for the
//! transcript to make sense: protocol version, ring width ℓ, fixed-point
//! fraction bits, weight-fragmentation scheme, activation variant, batch
//! size, and a digest of the model architecture. A mismatch that previously
//! surfaced deep inside the protocol as a garbled-circuit failure — or
//! worse, as silently wrong logits — now fails at connect time with a typed
//! [`ProtocolError::Negotiation`] carrying both parties' views.
//!
//! The hello frame also carries a 16-byte session-resume token: a client
//! reconnecting after a mid-protocol failure presents the token of its
//! checkpointed offline state, and the server answers whether it still
//! holds the matching checkpoint, so both sides agree on *fresh run* versus
//! *resume* before spending any cryptography.
//!
//! Wire layout (56 bytes, little-endian):
//!
//! ```text
//! magic[4]=b"ABN2" | version[2] | variant[1] | flags[1]
//! ring_bits[4] | frac_bits[4] | weight_frac_bits[4] | batch[4]
//! scheme_digest[8] | model_digest[8] | token[16]
//! ```
//!
//! `flags` bit 0 is the resume bit: set by the client to *request*
//! resumption, set by the server to *accept* it. The digests are the
//! leading 8 bytes of SHA-256 over a canonical description, so two models
//! with the same dimensions but different fragmentation cannot be confused.
//!
//! The client speaks first (the server cannot know the batch size until the
//! client announces it); the server replies with its own hello *even when
//! the parameters mismatch*, so both sides observe the same symmetric
//! [`ProtocolError::Negotiation`] rather than one of them seeing a bare
//! `Closed`.

use crate::frames::Hello;
use crate::relu::ReluVariant;
use crate::ProtocolError;
use abnn2_crypto::sha256::sha256;
use abnn2_net::{Transport, TransportError};
use abnn2_nn::graph::LayerGraph;

/// First four bytes of every hello frame.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"ABN2";

/// Version of the wire protocol spoken after the handshake. Bump on any
/// transcript-incompatible change.
///
/// v2: model digests are derived from the canonical [`LayerGraph`]
/// description (covering CNN topologies), and offline bundles carry a
/// leading layout-version byte.
///
/// v3: every protocol message carries a one-byte frame tag
/// ([`abnn2_net::wire::tags`]) ahead of its payload, checked on receive.
///
/// v4: the hello flags carry a silent-OT capability bit; sessions where
/// both sides set it run the offline phase over the LPN-based silent
/// extension (new frame tags `0x40..=0x43`) instead of IKNP/KK13. The
/// frame layout is unchanged — a v3 peer simply never sets the bit — but
/// the version is bumped because a v4 transcript with the bit set is
/// unreadable to v3.
///
/// v5: the op pipeline is extensible — graphs may contain secret×secret
/// matmul (matrix Beaver triplets, `MATMUL_OPENINGS` frames), softmax,
/// GELU, and layer-norm ops, and offline bundles use layout version 3
/// (matrix-triple sections). MLP/CNN transcripts are byte-identical to
/// v4 apart from the version field and the bundle layout byte.
pub const PROTOCOL_VERSION: u16 = 5;

/// Length of the hello frame in bytes.
pub const HELLO_LEN: usize = 56;

/// Opaque identifier of a resumable offline-phase checkpoint.
pub type ResumeToken = [u8; 16];

/// Everything that must match between the two parties for the protocol
/// transcript to be meaningful. Exchanged inside the hello frame and
/// compared field-for-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionParams {
    /// Wire-protocol version ([`PROTOCOL_VERSION`]).
    pub version: u16,
    /// Ring width ℓ of ℤ_{2^ℓ}.
    pub ring_bits: u32,
    /// Fractional bits of activations.
    pub frac_bits: u32,
    /// Fractional bits of weights.
    pub weight_frac_bits: u32,
    /// Leading 8 bytes of SHA-256 over the fragment scheme's canonical
    /// label and weight range.
    pub scheme_digest: [u8; 8],
    /// Activation variant (`0` = oblivious, `1` = optimized).
    pub variant: u8,
    /// Number of samples per prediction batch.
    pub batch: u32,
    /// Leading 8 bytes of SHA-256 over the model architecture (layer
    /// dimensions plus fixed-point configuration).
    pub model_digest: [u8; 8],
}

fn variant_code(variant: ReluVariant) -> u8 {
    match variant {
        ReluVariant::Oblivious => 0,
        ReluVariant::Optimized => 1,
    }
}

fn digest8(data: &[u8]) -> [u8; 8] {
    let full = sha256(data);
    full[..8].try_into().expect("8 bytes")
}

/// The `(scheme_digest, model_digest)` pair for a layer graph — the
/// canonical derivation shared by the handshake and the offline-bundle
/// pool key ([`crate::bundle::BundleKey`]). The model digest covers the
/// canonical op-by-op graph description plus the fixed-point
/// configuration, so any two architectures that lower to different graphs
/// (MLP or CNN alike) get distinct digests.
#[must_use]
pub fn graph_digests(graph: &LayerGraph) -> ([u8; 8], [u8; 8]) {
    let scheme = &graph.config.scheme;
    let (lo, hi) = scheme.weight_range();
    let scheme_desc = format!("{} [{lo},{hi}]", scheme.label());

    let model_desc = format!(
        "{}|ring{}|f{}|fw{}|{}",
        graph.describe(),
        graph.config.ring.bits(),
        graph.config.frac_bits,
        graph.config.weight_frac_bits,
        scheme_desc,
    );

    (digest8(scheme_desc.as_bytes()), digest8(model_desc.as_bytes()))
}

impl SessionParams {
    /// Derives the parameters both parties must agree on from the layer
    /// graph a model lowers to, the chosen activation variant, and the
    /// batch size. This is the only derivation: a server passes its
    /// served model's graph, a client its public model's.
    #[must_use]
    pub fn for_graph(graph: &LayerGraph, variant: ReluVariant, batch: usize) -> Self {
        let (scheme_digest, model_digest) = graph_digests(graph);
        SessionParams {
            version: PROTOCOL_VERSION,
            ring_bits: graph.config.ring.bits(),
            frac_bits: graph.config.frac_bits,
            weight_frac_bits: graph.config.weight_frac_bits,
            scheme_digest,
            variant: variant_code(variant),
            batch: batch as u32,
            model_digest,
        }
    }

    fn encode(&self, flags: u8, token: &ResumeToken) -> [u8; HELLO_LEN] {
        let mut frame = [0u8; HELLO_LEN];
        frame[0..4].copy_from_slice(&HANDSHAKE_MAGIC);
        frame[4..6].copy_from_slice(&self.version.to_le_bytes());
        frame[6] = self.variant;
        frame[7] = flags;
        frame[8..12].copy_from_slice(&self.ring_bits.to_le_bytes());
        frame[12..16].copy_from_slice(&self.frac_bits.to_le_bytes());
        frame[16..20].copy_from_slice(&self.weight_frac_bits.to_le_bytes());
        frame[20..24].copy_from_slice(&self.batch.to_le_bytes());
        frame[24..32].copy_from_slice(&self.scheme_digest);
        frame[32..40].copy_from_slice(&self.model_digest);
        frame[40..56].copy_from_slice(token);
        frame
    }

    fn decode(frame: &[u8]) -> Result<(Self, u8, ResumeToken), ProtocolError> {
        if frame.len() != HELLO_LEN {
            return Err(ProtocolError::Handshake("hello frame length"));
        }
        if frame[0..4] != HANDSHAKE_MAGIC {
            return Err(ProtocolError::Handshake("bad magic (peer is not ABNN2)"));
        }
        let le_u16 =
            |r: std::ops::Range<usize>| u16::from_le_bytes(frame[r].try_into().expect("2 bytes"));
        let le_u32 =
            |r: std::ops::Range<usize>| u32::from_le_bytes(frame[r].try_into().expect("4 bytes"));
        let params = SessionParams {
            version: le_u16(4..6),
            variant: frame[6],
            ring_bits: le_u32(8..12),
            frac_bits: le_u32(12..16),
            weight_frac_bits: le_u32(16..20),
            batch: le_u32(20..24),
            scheme_digest: frame[24..32].try_into().expect("8 bytes"),
            model_digest: frame[32..40].try_into().expect("8 bytes"),
        };
        let token: ResumeToken = frame[40..56].try_into().expect("16 bytes");
        Ok((params, frame[7], token))
    }
}

const FLAG_RESUME: u8 = 1;
const FLAG_BUNDLE: u8 = 2;
const FLAG_BUSY: u8 = 4;
const FLAG_SILENT: u8 = 8;

/// A hello that fails wire-level framing (wrong tag, wrong length) means
/// the peer is not speaking this protocol: classify it as
/// [`ProtocolError::Handshake`] rather than the generic `Malformed` used
/// for post-handshake traffic.
fn hello_err(e: TransportError) -> ProtocolError {
    match e {
        TransportError::Malformed(what) => ProtocolError::Handshake(what),
        other => other.into(),
    }
}

/// What the client asks of a session beyond the baseline protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HelloRequest {
    /// Resume the offline checkpoint identified by the hello's token.
    pub resume: bool,
    /// Install a server-precomputed offline bundle (dealer mode) so the
    /// interactive offline phase can be skipped. Ignored by the server when
    /// a resume was requested and accepted.
    pub bundle: bool,
    /// This client can run the offline phase over the silent (LPN) OT
    /// extension; the session uses it only if the server sets the bit too.
    pub silent: bool,
}

/// The server's answer to a [`HelloRequest`], read from the reply flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HelloReply {
    /// The server holds the checkpoint and will resume it.
    pub resume: bool,
    /// The server has a warm precomputed bundle and will send it right
    /// after session setup.
    pub bundle: bool,
    /// Both sides are silent-OT capable: the offline phase (and any pooled
    /// bundle) uses [`abnn2_ot::OfflineMode::Silent`].
    pub silent: bool,
}

impl HelloReply {
    /// The negotiated offline mode this reply implies.
    #[must_use]
    pub fn mode(&self) -> abnn2_ot::OfflineMode {
        if self.silent {
            abnn2_ot::OfflineMode::Silent
        } else {
            abnn2_ot::OfflineMode::Iknp
        }
    }
}

/// Client side of the handshake: sends our hello carrying the
/// [`HelloRequest`] (resume and/or warm-bundle), receives the server's
/// hello, and verifies agreement.
///
/// # Errors
///
/// [`ProtocolError::Overloaded`] if the server refused admission,
/// [`ProtocolError::Handshake`] if the reply is not a valid hello frame,
/// [`ProtocolError::Negotiation`] if the parameters disagree, or a
/// transport-level error.
pub fn handshake_client_ext<T: Transport>(
    ch: &mut T,
    ours: SessionParams,
    token: &ResumeToken,
    request: HelloRequest,
) -> Result<HelloReply, ProtocolError> {
    let mut flags = 0;
    if request.resume {
        flags |= FLAG_RESUME;
    }
    if request.bundle {
        flags |= FLAG_BUNDLE;
    }
    if request.silent {
        flags |= FLAG_SILENT;
    }
    ch.send_frame(&Hello(ours.encode(flags, token).to_vec()))?;
    let Hello(reply) = ch.recv_frame().map_err(hello_err)?;
    let (theirs, reply_flags, reply_token) = SessionParams::decode(&reply)?;
    // Admission rejection outranks the parameter check: an overloaded
    // server replies with a minimal busy frame, not its real parameters.
    // The token field of a busy frame is repurposed to carry the server's
    // retry-after hint in its leading four bytes (zero from older peers).
    if reply_flags & FLAG_BUSY != 0 {
        let retry_after_ms =
            u32::from_le_bytes(reply_token[..4].try_into().expect("token is 16 bytes"));
        return Err(ProtocolError::Overloaded { retry_after_ms });
    }
    if theirs != ours {
        return Err(ProtocolError::Negotiation { ours, theirs });
    }
    Ok(HelloReply {
        resume: request.resume && reply_flags & FLAG_RESUME != 0,
        bundle: request.bundle && reply_flags & FLAG_BUNDLE != 0,
        silent: request.silent && reply_flags & FLAG_SILENT != 0,
    })
}

/// Server side of the handshake: receives the client hello, derives our
/// own parameters for the announced batch via `ours_for`, decides on the
/// client's [`HelloRequest`] via `can_resume`/`offer_bundle`, and replies.
///
/// `offer_bundle` is consulted only when the client asked for a bundle and
/// no resume was accepted (a resumed session already has its offline
/// state); it receives the negotiated parameters *and the negotiated
/// offline mode* so it can look up the matching pool key — bundles pooled
/// for silent sessions are keyed apart from IKNP ones — and, when it
/// answers `true`, it has *committed* to sending the bundle right after
/// session setup.
///
/// The reply is sent *before* the mismatch check so a disagreeing client
/// observes the same [`ProtocolError::Negotiation`] we do.
///
/// Returns `(batch, client_token, reply)`.
///
/// # Errors
///
/// [`ProtocolError::Handshake`] if the hello is not a valid frame,
/// [`ProtocolError::Negotiation`] if the parameters disagree, or a
/// transport-level error.
pub fn handshake_server_ext<T: Transport>(
    ch: &mut T,
    ours_for: impl FnOnce(usize) -> SessionParams,
    can_resume: impl FnOnce(&ResumeToken) -> bool,
    offer_bundle: impl FnOnce(&SessionParams, abnn2_ot::OfflineMode) -> bool,
) -> Result<(usize, ResumeToken, HelloReply), ProtocolError> {
    let Hello(hello) = ch.recv_frame().map_err(hello_err)?;
    let (theirs, flags, token) = SessionParams::decode(&hello)?;
    let batch = theirs.batch as usize;
    let ours = ours_for(batch);
    // Only honor requests from a matching peer: a client that is about to
    // fail negotiation must not consume a checkpoint or a pooled bundle.
    let matched = theirs == ours;
    // The server is always silent-capable; the client's bit decides. A
    // mixed fleet thus degrades per-connection: silent clients get silent
    // sessions, IKNP clients keep the KK13 path, on one server.
    let silent_ok = matched && flags & FLAG_SILENT != 0;
    let mode = if silent_ok { abnn2_ot::OfflineMode::Silent } else { abnn2_ot::OfflineMode::Iknp };
    let resume_ok = matched && flags & FLAG_RESUME != 0 && can_resume(&token);
    let bundle_ok = matched && !resume_ok && flags & FLAG_BUNDLE != 0 && offer_bundle(&ours, mode);
    let mut reply_flags = 0;
    if resume_ok {
        reply_flags |= FLAG_RESUME;
    }
    if bundle_ok {
        reply_flags |= FLAG_BUNDLE;
    }
    if silent_ok {
        reply_flags |= FLAG_SILENT;
    }
    ch.send_frame(&Hello(ours.encode(reply_flags, &token).to_vec()))?;
    ch.flush()?;
    if !matched {
        return Err(ProtocolError::Negotiation { ours, theirs });
    }
    Ok((batch, token, HelloReply { resume: resume_ok, bundle: bundle_ok, silent: silent_ok }))
}

/// Admission-control rejection: sent by a server that will not serve this
/// connection (accept queue full, or draining for shutdown), *without*
/// reading the client's hello. The busy frame carries the server's
/// parameters for batch 0 purely to satisfy the frame format; the client
/// checks the busy flag before anything else and surfaces
/// [`ProtocolError::Overloaded`].
///
/// The frame carries a load-shedding hint: the client should wait at
/// least `retry_after_ms` (0 for no hint) before its next admission
/// attempt. The hint rides in the leading four bytes of the busy frame's
/// otherwise-unused token field, so the frame format and protocol version
/// are unchanged; clients that predate the hint see only the busy flag
/// they already understand.
///
/// # Errors
///
/// Transport-level errors only; a peer that vanished mid-rejection is not
/// worth reporting beyond that.
pub fn reject_busy_with<T: Transport>(
    ch: &mut T,
    ours: SessionParams,
    retry_after_ms: u32,
) -> Result<(), ProtocolError> {
    let mut token = [0u8; 16];
    token[..4].copy_from_slice(&retry_after_ms.to_le_bytes());
    ch.send_frame(&Hello(ours.encode(FLAG_BUSY, &token).to_vec()))?;
    ch.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_net::{Endpoint, NetworkModel};
    use abnn2_nn::quant::QuantConfig;

    fn info(dims: &[usize], ring_bits: u32) -> LayerGraph {
        LayerGraph::mlp(
            dims,
            QuantConfig {
                ring: Ring::new(ring_bits),
                frac_bits: 8,
                weight_frac_bits: 4,
                scheme: FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
            },
        )
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = SessionParams::for_graph(&info(&[784, 16, 10], 32), ReluVariant::Optimized, 3);
        let token: ResumeToken = [7; 16];
        let frame = p.encode(FLAG_RESUME, &token);
        assert_eq!(frame.len(), HELLO_LEN);
        let (q, flags, t) = SessionParams::decode(&frame).unwrap();
        assert_eq!(q, p);
        assert_eq!(flags, FLAG_RESUME);
        assert_eq!(t, token);
    }

    #[test]
    fn digests_distinguish_models_and_schemes() {
        let base = SessionParams::for_graph(&info(&[784, 16, 10], 32), ReluVariant::Oblivious, 1);
        let other_dims =
            SessionParams::for_graph(&info(&[784, 12, 10], 32), ReluVariant::Oblivious, 1);
        assert_ne!(base.model_digest, other_dims.model_digest);

        let mut ternary = info(&[784, 16, 10], 32);
        ternary.config.scheme = FragmentScheme::ternary();
        let other_scheme = SessionParams::for_graph(&ternary, ReluVariant::Oblivious, 1);
        assert_ne!(base.scheme_digest, other_scheme.scheme_digest);
    }

    #[test]
    fn matching_parties_agree_and_resume_flows_through() {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_graph(&i, ReluVariant::Oblivious, 2);
        let token: ResumeToken = [3; 16];

        let i2 = i.clone();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_graph(&i2, ReluVariant::Oblivious, batch),
                    |t| *t == [3; 16],
                    |_, _| false,
                )
                .map(|(batch, token, reply)| (batch, token, reply.resume))
            });
            let request = HelloRequest { resume: true, ..HelloRequest::default() };
            let accepted = handshake_client_ext(&mut c, ours, &token, request).unwrap().resume;
            assert!(accepted);
            let (batch, seen_token, resumed) = server.join().unwrap().unwrap();
            assert_eq!(batch, 2);
            assert_eq!(seen_token, token);
            assert!(resumed);
        });
    }

    #[test]
    fn mismatched_parties_both_see_negotiation() {
        let client_info = info(&[8, 4, 2], 32);
        let server_info = info(&[8, 4, 2], 16); // different ring width
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_graph(&client_info, ReluVariant::Oblivious, 1);

        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_graph(&server_info, ReluVariant::Oblivious, batch),
                    |_| false,
                    |_, _| false,
                )
            });
            let client_err =
                handshake_client_ext(&mut c, ours, &[0; 16], HelloRequest::default()).unwrap_err();
            let server_err = server.join().unwrap().unwrap_err();
            match (client_err, server_err) {
                (
                    ProtocolError::Negotiation { ours: co, theirs: ct },
                    ProtocolError::Negotiation { ours: so, theirs: st },
                ) => {
                    // Each party's "theirs" is the other's "ours".
                    assert_eq!(co, st);
                    assert_eq!(so, ct);
                    assert_ne!(co.ring_bits, ct.ring_bits);
                }
                other => panic!("expected symmetric negotiation errors, got {other:?}"),
            }
        });
    }

    #[test]
    fn variant_mismatch_is_negotiation() {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_graph(&i, ReluVariant::Optimized, 1);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _ = handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_graph(&i2, ReluVariant::Oblivious, batch),
                    |_| false,
                    |_, _| false,
                );
            });
            let err =
                handshake_client_ext(&mut c, ours, &[0; 16], HelloRequest::default()).unwrap_err();
            assert!(matches!(err, ProtocolError::Negotiation { .. }));
        });
    }

    #[test]
    fn busy_rejection_surfaces_overloaded_before_negotiation() {
        // The server's busy frame carries mismatching parameters (batch 0),
        // but the busy flag must win: the client reports Overloaded, not
        // Negotiation.
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_graph(&i, ReluVariant::Oblivious, 3);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                reject_busy_with(
                    &mut s,
                    SessionParams::for_graph(&i2, ReluVariant::Oblivious, 0),
                    250,
                )
                .unwrap();
                // Drain the client's hello so the link stays open until the
                // client has sent it (a real acceptor closes after reject;
                // the hello sits in the socket buffer either way). Raw
                // recv on purpose: the frame is discarded unparsed.
                let _ = Transport::recv(&mut s);
            });
            let err =
                handshake_client_ext(&mut c, ours, &[0; 16], HelloRequest::default()).unwrap_err();
            assert_eq!(err, ProtocolError::Overloaded { retry_after_ms: 250 });
        });
    }

    #[test]
    fn plain_busy_rejection_carries_no_hint() {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_graph(&i, ReluVariant::Oblivious, 1);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                reject_busy_with(
                    &mut s,
                    SessionParams::for_graph(&i2, ReluVariant::Oblivious, 0),
                    0,
                )
                .unwrap();
                let _ = Transport::recv(&mut s);
            });
            let err =
                handshake_client_ext(&mut c, ours, &[0; 16], HelloRequest::default()).unwrap_err();
            assert_eq!(err, ProtocolError::Overloaded { retry_after_ms: 0 });
        });
    }

    #[test]
    fn bundle_request_honored_for_matching_peer() {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_graph(&i, ReluVariant::Oblivious, 2);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_graph(&i2, ReluVariant::Oblivious, batch),
                    |_| false,
                    |params, _| params.batch == 2,
                )
            });
            let reply = handshake_client_ext(
                &mut c,
                ours,
                &[0; 16],
                HelloRequest { bundle: true, ..HelloRequest::default() },
            )
            .unwrap();
            assert_eq!(reply, HelloReply { bundle: true, ..HelloReply::default() });
            let (_, _, srv_reply) = server.join().unwrap().unwrap();
            assert_eq!(srv_reply, reply);
        });
    }

    #[test]
    fn resume_wins_over_bundle() {
        // A client asking for both gets the resume; the pool must not also
        // commit a bundle to a session that already has offline state.
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_graph(&i, ReluVariant::Oblivious, 1);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_graph(&i2, ReluVariant::Oblivious, batch),
                    |_| true,
                    |_, _| true,
                )
            });
            let reply = handshake_client_ext(
                &mut c,
                ours,
                &[5; 16],
                HelloRequest { resume: true, bundle: true, ..HelloRequest::default() },
            )
            .unwrap();
            assert_eq!(reply, HelloReply { resume: true, bundle: false, silent: false });
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn silent_capability_negotiates_per_connection() {
        use abnn2_ot::OfflineMode;
        // A silent-capable client gets a silent session; a legacy client on
        // the same server silently (pun intended) keeps the KK13 path.
        let i = info(&[8, 4, 2], 32);
        for client_silent in [true, false] {
            let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
            let ours = SessionParams::for_graph(&i, ReluVariant::Oblivious, 1);
            let i2 = i.clone();
            std::thread::scope(|scope| {
                let server = scope.spawn(move || {
                    handshake_server_ext(
                        &mut s,
                        |batch| SessionParams::for_graph(&i2, ReluVariant::Oblivious, batch),
                        |_| false,
                        |_, _| false,
                    )
                });
                let reply = handshake_client_ext(
                    &mut c,
                    ours,
                    &[0; 16],
                    HelloRequest { silent: client_silent, ..HelloRequest::default() },
                )
                .unwrap();
                assert_eq!(reply.silent, client_silent);
                let expect = if client_silent { OfflineMode::Silent } else { OfflineMode::Iknp };
                assert_eq!(reply.mode(), expect);
                let (_, _, srv_reply) = server.join().unwrap().unwrap();
                assert_eq!(srv_reply, reply);
            });
        }
    }

    #[test]
    fn mismatched_peer_cannot_consume_bundle_or_checkpoint() {
        let client_info = info(&[8, 4, 2], 32);
        let server_info = info(&[8, 4, 2], 16);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_graph(&client_info, ReluVariant::Oblivious, 1);
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let consulted = std::cell::Cell::new(false);
                let r = handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_graph(&server_info, ReluVariant::Oblivious, batch),
                    |_| {
                        consulted.set(true);
                        true
                    },
                    |_, _| {
                        consulted.set(true);
                        true
                    },
                );
                (r, consulted.get())
            });
            let err = handshake_client_ext(
                &mut c,
                ours,
                &[9; 16],
                HelloRequest { resume: true, bundle: true, ..HelloRequest::default() },
            )
            .unwrap_err();
            assert!(matches!(err, ProtocolError::Negotiation { .. }));
            let (result, consulted) = server.join().unwrap();
            assert!(matches!(result, Err(ProtocolError::Negotiation { .. })));
            assert!(!consulted, "mismatched peers must not reach the store or pool");
        });
    }

    #[test]
    fn garbage_hello_is_handshake_error() {
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let our_params =
            |_: usize| SessionParams::for_graph(&info(&[2, 2], 32), ReluVariant::Oblivious, 1);

        // Raw sends on purpose: these messages simulate a peer that does
        // not speak the framed protocol at all.
        Transport::send(&mut c, b"GET / HTTP/1.1\r\n").unwrap();
        let err = handshake_server_ext(&mut s, our_params, |_| false, |_, _| false).unwrap_err();
        assert_eq!(err, ProtocolError::Handshake("hello frame tag"));

        // Right tag, wrong payload length.
        Transport::send(&mut c, &[abnn2_net::wire::tags::HELLO, 1, 2, 3]).unwrap();
        let err = handshake_server_ext(&mut s, our_params, |_| false, |_, _| false).unwrap_err();
        assert_eq!(err, ProtocolError::Handshake("hello frame length"));

        // Right tag and length, wrong magic.
        let mut msg = vec![abnn2_net::wire::tags::HELLO];
        msg.extend_from_slice(&[0u8; HELLO_LEN]);
        msg[1..5].copy_from_slice(b"HTTP");
        Transport::send(&mut c, &msg).unwrap();
        let err = handshake_server_ext(&mut s, our_params, |_| false, |_, _| false).unwrap_err();
        assert_eq!(err, ProtocolError::Handshake("bad magic (peer is not ABNN2)"));
    }
}

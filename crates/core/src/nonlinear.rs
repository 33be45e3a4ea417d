//! Online protocols for the nonlinear-op family (transformer extension).
//!
//! Each op follows the same shape as the §4.2 ReLU: the client garbles one
//! circuit that reconstructs the shared input, applies the fixed-point
//! function, and re-shares under a fresh client mask `z₁` chosen offline —
//! so the invariant that the client knows its share of every activation
//! before the online phase starts is preserved. The server evaluates and
//! learns only its share `z₀ = f(y) − z₁`.
//!
//! * [`matmul_close_server`]/[`matmul_close_client`] — the closing step of
//!   a secret×secret matmul: after the matrix-Beaver open-and-combine
//!   ([`crate::matbeaver::mul_matrix_shares`]) both parties hold shares of
//!   the *untruncated* product; one reconstruct-truncate-reshare circuit
//!   applies the fixed-point shift and refreshes the sharing.
//! * [`softmax_server`]/[`softmax_client`] — row-wise fixed-point softmax
//!   over a `rows × cols` score matrix.
//! * [`gelu_server`]/[`gelu_client`] — elementwise fixed-point GELU.
//! * [`layernorm_server`]/[`layernorm_client`] — per-token LayerNorm with
//!   the residual add folded in at mismatched scales (`a ≫ₐ shift_a` plus
//!   `b ≫ₐ shift_b`).

use crate::relu::{bits_to_words, words_to_bits};
use crate::ProtocolError;
use abnn2_gc::{circuits, YaoEvaluator, YaoGarbler};
use abnn2_math::Ring;
use abnn2_net::Transport;
use rand::Rng;

/// Server (evaluator) side of the matmul closing step: holds product
/// shares `p0`, obtains fresh shares `z0` of the truncated product.
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
pub fn matmul_close_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    p0: &[u64],
    ring: Ring,
    shift: u32,
) -> Result<Vec<u64>, ProtocolError> {
    let bits = ring.bits() as usize;
    if p0.is_empty() {
        return Ok(Vec::new());
    }
    let circuit = circuits::reconstruct_trunc_reshare_vec_circuit(bits, p0.len(), shift as usize);
    let out = yao.run(ch, &circuit, &words_to_bits(p0, bits))?;
    Ok(bits_to_words(&out, bits))
}

/// Client (garbler) side of the matmul closing step: holds product shares
/// `p1` and its fresh output mask `z1`.
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
///
/// # Panics
///
/// Panics if `p1.len() != z1.len()`.
pub fn matmul_close_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    p1: &[u64],
    z1: &[u64],
    ring: Ring,
    shift: u32,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    assert_eq!(p1.len(), z1.len(), "share vectors must align");
    let bits = ring.bits() as usize;
    if p1.is_empty() {
        return Ok(());
    }
    let circuit = circuits::reconstruct_trunc_reshare_vec_circuit(bits, p1.len(), shift as usize);
    let mut gbits = words_to_bits(p1, bits);
    gbits.extend(words_to_bits(z1, bits));
    yao.run(ch, &circuit, &gbits, rng)?;
    Ok(())
}

/// Server side of the softmax op over a `rows × cols` score matrix
/// (row-major shares `y0`, `rows * cols` elements).
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
///
/// # Panics
///
/// Panics if `y0.len() != rows * cols`.
#[allow(clippy::too_many_arguments)]
pub fn softmax_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    y0: &[u64],
    rows: usize,
    cols: usize,
    ring: Ring,
    shift: u32,
    f: u32,
) -> Result<Vec<u64>, ProtocolError> {
    assert_eq!(y0.len(), rows * cols, "softmax input must be rows*cols");
    let bits = ring.bits() as usize;
    let circuit =
        circuits::softmax_reshare_vec_circuit(bits, rows, cols, shift as usize, f as usize);
    let out = yao.run(ch, &circuit, &words_to_bits(y0, bits))?;
    Ok(bits_to_words(&out, bits))
}

/// Client side of the softmax op; `z1` is the fresh output mask.
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
///
/// # Panics
///
/// Panics if the share vectors do not match `rows * cols`.
#[allow(clippy::too_many_arguments)]
pub fn softmax_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    y1: &[u64],
    z1: &[u64],
    rows: usize,
    cols: usize,
    ring: Ring,
    shift: u32,
    f: u32,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    assert_eq!(y1.len(), rows * cols, "softmax input must be rows*cols");
    assert_eq!(y1.len(), z1.len(), "share vectors must align");
    let bits = ring.bits() as usize;
    let circuit =
        circuits::softmax_reshare_vec_circuit(bits, rows, cols, shift as usize, f as usize);
    let mut gbits = words_to_bits(y1, bits);
    gbits.extend(words_to_bits(z1, bits));
    yao.run(ch, &circuit, &gbits, rng)?;
    Ok(())
}

/// Server side of the elementwise GELU op.
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
pub fn gelu_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    y0: &[u64],
    ring: Ring,
    shift: u32,
    f: u32,
) -> Result<Vec<u64>, ProtocolError> {
    let bits = ring.bits() as usize;
    if y0.is_empty() {
        return Ok(Vec::new());
    }
    let circuit =
        circuits::gelu_trunc_reshare_vec_circuit(bits, y0.len(), shift as usize, f as usize);
    let out = yao.run(ch, &circuit, &words_to_bits(y0, bits))?;
    Ok(bits_to_words(&out, bits))
}

/// Client side of the elementwise GELU op; `z1` is the fresh output mask.
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
///
/// # Panics
///
/// Panics if `y1.len() != z1.len()`.
#[allow(clippy::too_many_arguments)]
pub fn gelu_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    y1: &[u64],
    z1: &[u64],
    ring: Ring,
    shift: u32,
    f: u32,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    assert_eq!(y1.len(), z1.len(), "share vectors must align");
    let bits = ring.bits() as usize;
    if y1.is_empty() {
        return Ok(());
    }
    let circuit =
        circuits::gelu_trunc_reshare_vec_circuit(bits, y1.len(), shift as usize, f as usize);
    let mut gbits = words_to_bits(y1, bits);
    gbits.extend(words_to_bits(z1, bits));
    yao.run(ch, &circuit, &gbits, rng)?;
    Ok(())
}

/// Server side of the LayerNorm op over `tokens` tokens of `d` values:
/// holds shares `a0` of the primary input and `b0` of the residual.
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
///
/// # Panics
///
/// Panics if the share vectors do not match `tokens * d`.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    a0: &[u64],
    b0: &[u64],
    tokens: usize,
    d: usize,
    ring: Ring,
    shift_a: u32,
    shift_b: u32,
    f: u32,
) -> Result<Vec<u64>, ProtocolError> {
    assert_eq!(a0.len(), tokens * d, "layernorm input must be tokens*d");
    assert_eq!(a0.len(), b0.len(), "residual must align with input");
    let bits = ring.bits() as usize;
    let circuit = circuits::layernorm_reshare_vec_circuit(
        bits,
        tokens,
        d,
        shift_a as usize,
        shift_b as usize,
        f as usize,
    );
    let mut ebits = words_to_bits(a0, bits);
    ebits.extend(words_to_bits(b0, bits));
    let out = yao.run(ch, &circuit, &ebits)?;
    Ok(bits_to_words(&out, bits))
}

/// Client side of the LayerNorm op; `z1` is the fresh output mask.
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
///
/// # Panics
///
/// Panics if the share vectors do not match `tokens * d`.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    a1: &[u64],
    b1: &[u64],
    z1: &[u64],
    tokens: usize,
    d: usize,
    ring: Ring,
    shift_a: u32,
    shift_b: u32,
    f: u32,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    assert_eq!(a1.len(), tokens * d, "layernorm input must be tokens*d");
    assert_eq!(a1.len(), b1.len(), "residual must align with input");
    assert_eq!(a1.len(), z1.len(), "share vectors must align");
    let bits = ring.bits() as usize;
    let circuit = circuits::layernorm_reshare_vec_circuit(
        bits,
        tokens,
        d,
        shift_a as usize,
        shift_b as usize,
        f as usize,
    );
    let mut gbits = words_to_bits(a1, bits);
    gbits.extend(words_to_bits(b1, bits));
    gbits.extend(words_to_bits(z1, bits));
    yao.run(ch, &circuit, &gbits, rng)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::fixedops;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::SeedableRng;

    const BITS: u32 = 16;

    /// Splits `vals` into additive shares and runs server/client closures
    /// over an in-memory pair, returning the reconstructed outputs.
    fn run_op(
        vals: &[u64],
        seed: u64,
        server: impl FnOnce(&mut abnn2_net::Endpoint, &mut YaoEvaluator, &[u64]) -> Vec<u64> + Send,
        client: impl FnOnce(&mut abnn2_net::Endpoint, &mut YaoGarbler, &[u64], &[u64]) + Send,
    ) -> Vec<u64> {
        let ring = Ring::new(BITS);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let y1 = ring.sample_vec(&mut rng, vals.len());
        let y0 = ring.sub_vec(vals, &y1);
        let z1 = ring.sample_vec(&mut rng, vals.len());
        let (z1s, z1c) = (z1.clone(), z1);
        let (z0, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                server(ch, &mut yao, &y0)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                client(ch, &mut yao, &y1, &z1c);
            },
        );
        let ring = Ring::new(BITS);
        ring.add_vec(&z0, &z1s)
    }

    #[test]
    fn matmul_close_truncates_and_reshares() {
        let ring = Ring::new(BITS);
        let vals: Vec<u64> =
            [4096i64, -4096, 255, -255, 0].iter().map(|&v| ring.from_i64(v)).collect();
        let got = run_op(
            &vals,
            900,
            |ch, yao, p0| matmul_close_server(ch, yao, p0, Ring::new(BITS), 4).expect("server"),
            |ch, yao, p1, z1| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(902);
                matmul_close_client(ch, yao, p1, z1, Ring::new(BITS), 4, &mut rng).expect("client");
            },
        );
        for (i, (&g, &v)) in got.iter().zip(&vals).enumerate() {
            assert_eq!(g, fixedops::sar(&ring, v, 4), "elem {i}");
        }
    }

    #[test]
    fn softmax_matches_the_fixed_point_oracle() {
        let ring = Ring::new(BITS);
        let f = 6u32;
        let shift = 2u32;
        // Two rows of three logits each, pre-shift.
        let vals: Vec<u64> =
            [80i64, -40, 160, 0, 0, 512].iter().map(|&v| ring.from_i64(v)).collect();
        let got = run_op(
            &vals,
            910,
            move |ch, yao, y0| {
                softmax_server(ch, yao, y0, 2, 3, Ring::new(BITS), shift, f).expect("server")
            },
            move |ch, yao, y1, z1| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(912);
                softmax_client(ch, yao, y1, z1, 2, 3, Ring::new(BITS), shift, f, &mut rng)
                    .expect("client");
            },
        );
        for r in 0..2 {
            let row: Vec<u64> =
                vals[r * 3..(r + 1) * 3].iter().map(|&v| fixedops::sar(&ring, v, shift)).collect();
            let want = fixedops::softmax_row(&ring, f, &row);
            assert_eq!(&got[r * 3..(r + 1) * 3], &want[..], "row {r}");
        }
    }

    #[test]
    fn gelu_matches_the_fixed_point_oracle() {
        let ring = Ring::new(BITS);
        let f = 6u32;
        let shift = 2u32;
        let vals: Vec<u64> =
            [256i64, -256, 64, -64, 0, 1000].iter().map(|&v| ring.from_i64(v)).collect();
        let got = run_op(
            &vals,
            920,
            move |ch, yao, y0| gelu_server(ch, yao, y0, Ring::new(BITS), shift, f).expect("server"),
            move |ch, yao, y1, z1| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(922);
                gelu_client(ch, yao, y1, z1, Ring::new(BITS), shift, f, &mut rng).expect("client");
            },
        );
        for (i, (&g, &v)) in got.iter().zip(&vals).enumerate() {
            let want = fixedops::gelu(&ring, f, fixedops::sar(&ring, v, shift));
            assert_eq!(g, want, "elem {i}");
        }
    }

    #[test]
    fn layernorm_folds_the_residual_and_matches_the_oracle() {
        let ring = Ring::new(BITS);
        let f = 6u32;
        let (sa, sb) = (2u32, 0u32);
        let (tokens, d) = (2usize, 4usize);
        let mut rng = rand::rngs::StdRng::seed_from_u64(930);
        let a_vals: Vec<u64> =
            (0..tokens * d).map(|_| ring.from_i64(rng.gen_range(-800i64..800))).collect();
        let b_vals: Vec<u64> =
            (0..tokens * d).map(|_| ring.from_i64(rng.gen_range(-200i64..200))).collect();

        // Share both inputs and the fresh mask by hand (two-input op, so the
        // generic single-input harness doesn't fit).
        let a1 = ring.sample_vec(&mut rng, tokens * d);
        let a0 = ring.sub_vec(&a_vals, &a1);
        let b1 = ring.sample_vec(&mut rng, tokens * d);
        let b0 = ring.sub_vec(&b_vals, &b1);
        let z1 = ring.sample_vec(&mut rng, tokens * d);
        let z1c = z1.clone();
        let (z0, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(931);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                layernorm_server(ch, &mut yao, &a0, &b0, tokens, d, Ring::new(BITS), sa, sb, f)
                    .expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(932);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                layernorm_client(
                    ch,
                    &mut yao,
                    &a1,
                    &b1,
                    &z1c,
                    tokens,
                    d,
                    Ring::new(BITS),
                    sa,
                    sb,
                    f,
                    &mut rng,
                )
                .expect("client");
            },
        );
        let got = ring.add_vec(&z0, &z1);
        for t in 0..tokens {
            let a_tok = &a_vals[t * d..(t + 1) * d];
            let b_tok = &b_vals[t * d..(t + 1) * d];
            let want = fixedops::layernorm_token(&ring, f, a_tok, b_tok, sa, sb);
            assert_eq!(&got[t * d..(t + 1) * d], &want[..], "token {t}");
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        let got = run_op(
            &[],
            940,
            |ch, yao, p0| matmul_close_server(ch, yao, p0, Ring::new(BITS), 0).expect("server"),
            |ch, yao, p1, z1| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(942);
                matmul_close_client(ch, yao, p1, z1, Ring::new(BITS), 0, &mut rng).expect("client");
            },
        );
        assert!(got.is_empty());
    }
}

//! Quantized matrix-multiplication triplet generation (§4.1).
//!
//! Computes additive shares of `W·R` where the server holds the quantized
//! weight matrix `W ∈ 𝔻^{m×n}` (𝔻 the scheme's weight domain) and the
//! client holds a random matrix `R ∈ ℤ_{2^ℓ}^{n×o}` — the offline half of a
//! linear layer, `o` being the prediction batch size.
//!
//! For every weight `w_ij` and fragment `g`, one 1-out-of-N OT runs with the
//! server's digit `w_ij[g]` as the choice symbol. The client's message for
//! symbol `t` is the packed vector `{scaleᵍ·t·r_jk − s_k}_{k<o}` — so a
//! single OT finishes the whole batch row (§4.1.2, "multi-batch"). With
//! `o = 1`, the correlated-OT trick of §4.1.3 kicks in: the symbol-0
//! message is *derived from the chooser's own mask* instead of being sent,
//! reducing traffic to N−1 ciphertexts per OT.

use crate::frames::TripletMasked;
use crate::ProtocolError;
use abnn2_math::{FragmentScheme, Matrix, Ring};
use abnn2_net::Transport;
use abnn2_ot::{FragmentChooser, FragmentChooserKeys, FragmentSender};
use rand::Rng;

/// Which §4.1 message layout to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripletMode {
    /// §4.1.2: N messages per OT, each packing `o` ring elements.
    MultiBatch,
    /// §4.1.3: N−1 messages per OT; the symbol-0 plaintext is derived from
    /// the random-oracle output itself (correlated-OT style).
    OneBatch,
}

impl TripletMode {
    /// The paper's selection rule: the correlated trick for single
    /// predictions, message packing otherwise.
    #[must_use]
    pub fn for_batch(o: usize) -> Self {
        if o == 1 {
            TripletMode::OneBatch
        } else {
            TripletMode::MultiBatch
        }
    }
}

/// Execution options for the triplet protocols.
///
/// The paper's conclusion notes its measurements are single-core and that
/// "our protocols are more efficient when optimized with multi-cores
/// parallelization" — `threads > 1` implements that future work: the
/// per-OT mask derivations and message packing are sharded across worker
/// threads (the transcript layout is unchanged, only who computes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripletConfig {
    /// Message layout (§4.1.2 vs §4.1.3).
    pub mode: TripletMode,
    /// Worker threads for mask computation (1 = the paper's setting).
    pub threads: usize,
}

impl TripletConfig {
    /// Single-threaded execution with the given mode.
    #[must_use]
    pub fn new(mode: TripletMode) -> Self {
        TripletConfig { mode, threads: 1 }
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = crate::config::checked_threads(threads);
        self
    }

    /// Mode chosen by the paper's batch rule, single-threaded.
    #[must_use]
    pub fn for_batch(o: usize) -> Self {
        TripletConfig::new(TripletMode::for_batch(o))
    }
}

impl From<TripletMode> for TripletConfig {
    fn from(mode: TripletMode) -> Self {
        TripletConfig::new(mode)
    }
}

/// Server side (model holder, OT chooser): learns `U` with
/// `U + V = W·R (mod 2^ℓ)`.
///
/// `weights` is row-major `m×n` with entries in `scheme`'s domain.
///
/// # Errors
///
/// Returns [`ProtocolError`] on dimension mismatch, disconnection, or
/// malformed client messages.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn triplet_server<T: Transport>(
    ch: &mut T,
    kk: &mut FragmentChooser,
    weights: &[i64],
    m: usize,
    n: usize,
    o: usize,
    scheme: &FragmentScheme,
    ring: Ring,
    mode: TripletMode,
) -> Result<Matrix, ProtocolError> {
    triplet_server_with(ch, kk, weights, m, n, o, scheme, ring, mode.into())
}

/// [`triplet_server`] with explicit execution options (thread count).
///
/// # Errors
///
/// As [`triplet_server`].
#[allow(clippy::too_many_arguments)]
pub fn triplet_server_with<T: Transport>(
    ch: &mut T,
    kk: &mut FragmentChooser,
    weights: &[i64],
    m: usize,
    n: usize,
    o: usize,
    scheme: &FragmentScheme,
    ring: Ring,
    cfg: TripletConfig,
) -> Result<Matrix, ProtocolError> {
    let mut cursor = TripletCursor::new(weights, m, n, o, scheme, cfg)?;
    loop {
        if let Some(u) = cursor.step(ch, kk, ring)? {
            return Ok(u);
        }
    }
}

/// The server half of one triplet, split at its suspension points: per
/// fragment, one step extends the fragment OTs and the next receives and
/// decodes the client's masked messages. A step mutates the cursor only
/// after its last recv, so the session driver can re-run exactly the
/// step that parked on a missing frame (it hands the extension step a
/// copy of the chooser for the same reason).
#[derive(Debug)]
pub(crate) struct TripletCursor {
    m: usize,
    n: usize,
    o: usize,
    cfg: TripletConfig,
    /// `choices[g][idx]`: digit `g` of weight `idx`, the fragment-`g` OT
    /// choice symbol.
    choices: Vec<Vec<u64>>,
    /// Radix `N` of each fragment.
    radices: Vec<u64>,
    /// Fragments fully decoded into `u`.
    frag: usize,
    /// Keys of the current fragment's extension, awaiting its masked
    /// messages.
    keys: Option<FragmentChooserKeys>,
    u: Matrix,
}

impl TripletCursor {
    /// Validates the weights against `m × n` and the scheme's domain and
    /// decomposes them into per-fragment choice symbols.
    pub(crate) fn new(
        weights: &[i64],
        m: usize,
        n: usize,
        o: usize,
        scheme: &FragmentScheme,
        cfg: TripletConfig,
    ) -> Result<Self, ProtocolError> {
        if weights.len() != m * n {
            return Err(ProtocolError::Dimension("weights length must be m*n"));
        }
        if !weights.iter().all(|&w| scheme.contains(w)) {
            return Err(ProtocolError::Dimension("weight outside scheme domain"));
        }
        let digits: Vec<Vec<u64>> = weights.iter().map(|&w| scheme.decompose(w)).collect();
        let radices: Vec<u64> = scheme.fragments().iter().map(|f| f.n).collect();
        let choices = (0..radices.len()).map(|g| digits.iter().map(|d| d[g]).collect()).collect();
        Ok(TripletCursor {
            m,
            n,
            o,
            cfg,
            choices,
            radices,
            frag: 0,
            keys: None,
            u: Matrix::zeros(m, o),
        })
    }

    /// Whether the next step receives masked messages (otherwise it
    /// extends, mutating the chooser).
    pub(crate) fn awaiting_masks(&self) -> bool {
        self.keys.is_some()
    }

    /// Runs the next step; returns `U` after the last fragment's decode.
    pub(crate) fn step<T: Transport>(
        &mut self,
        ch: &mut T,
        kk: &mut FragmentChooser,
        ring: Ring,
    ) -> Result<Option<Matrix>, ProtocolError> {
        let g = self.frag;
        let Some(keys) = &self.keys else {
            self.keys = Some(kk.extend(ch, &self.choices[g], self.radices[g])?);
            return Ok(None);
        };
        let (m, n, o, mode) = (self.m, self.n, self.o, self.cfg.mode);
        let choices = &self.choices[g];
        let elem_len = o * ring.byte_len();
        let TripletMasked(data) = ch.recv_frame()?;
        let per_ot = match mode {
            TripletMode::MultiBatch => self.radices[g] as usize,
            TripletMode::OneBatch => self.radices[g] as usize - 1,
        };
        if data.len() != m * n * per_ot * elem_len {
            return Err(ProtocolError::Malformed("triplet ciphertext batch length"));
        }

        // Per-OT decryption is independent; shard it across workers and
        // merge the partial share matrices.
        let decode_range = |range: std::ops::Range<usize>| -> Matrix {
            let mut u_part = Matrix::zeros(m, o);
            for idx in range {
                let digit = choices[idx];
                let mut mask = keys.mask(idx, elem_len);
                let vals = match (mode, digit) {
                    (TripletMode::OneBatch, 0) => {
                        // Symbol 0: the plaintext *is* the chooser's mask.
                        ring.decode_slice(&mask)
                    }
                    (TripletMode::OneBatch, d) => {
                        let off = (idx * per_ot + (d as usize - 1)) * elem_len;
                        for (mb, db) in mask.iter_mut().zip(&data[off..off + elem_len]) {
                            *mb ^= db;
                        }
                        ring.decode_slice(&mask)
                    }
                    (TripletMode::MultiBatch, d) => {
                        let off = (idx * per_ot + d as usize) * elem_len;
                        for (mb, db) in mask.iter_mut().zip(&data[off..off + elem_len]) {
                            *mb ^= db;
                        }
                        ring.decode_slice(&mask)
                    }
                };
                let i = idx / n;
                for (k, &v) in vals.iter().enumerate() {
                    let cur = u_part.get(i, k);
                    u_part.set(i, k, ring.add(cur, v));
                }
            }
            u_part
        };
        let u_frag = run_sharded(m * n, self.cfg.threads, &decode_range)
            .into_iter()
            .fold(Matrix::zeros(m, o), |acc, part| acc.add(&part, &ring));
        self.u = self.u.add(&u_frag, &ring);
        self.keys = None;
        self.frag += 1;
        if self.frag < self.radices.len() {
            return Ok(None);
        }
        Ok(Some(std::mem::replace(&mut self.u, Matrix::zeros(m, o))))
    }
}

/// SplitMix64 finalizer: decorrelates the per-OT mask streams derived
/// from one group seed in [`triplet_client_with`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Splits `0..total` into up to `threads` contiguous ranges and runs `f`
/// on each (on scoped worker threads when `threads > 1`), returning the
/// results in range order.
fn run_sharded<T, F>(total: usize, threads: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let threads = threads.max(1).min(total.max(1));
    if threads <= 1 {
        return vec![f(0..total)];
    }
    let chunk = total.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let start = t * chunk;
                let end = ((t + 1) * chunk).min(total);
                scope.spawn(move || f(start..end))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// Client side (data owner, OT sender): learns `V` with
/// `U + V = W·R (mod 2^ℓ)` for its own random `R` (`n×o`).
///
/// `m` is the public output dimension of the layer.
///
/// # Errors
///
/// Returns [`ProtocolError`] on dimension mismatch or disconnection.
#[allow(clippy::too_many_arguments)]
pub fn triplet_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    kk: &mut FragmentSender,
    r: &Matrix,
    m: usize,
    scheme: &FragmentScheme,
    ring: Ring,
    mode: TripletMode,
    rng: &mut RNG,
) -> Result<Matrix, ProtocolError> {
    triplet_client_with(ch, kk, r, m, scheme, ring, mode.into(), rng)
}

/// [`triplet_client`] with explicit execution options (thread count).
///
/// # Errors
///
/// As [`triplet_client`].
#[allow(clippy::too_many_arguments)]
pub fn triplet_client_with<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    kk: &mut FragmentSender,
    r: &Matrix,
    m: usize,
    scheme: &FragmentScheme,
    ring: Ring,
    cfg: TripletConfig,
    rng: &mut RNG,
) -> Result<Matrix, ProtocolError> {
    let mode = cfg.mode;
    let n = r.rows();
    let o = r.cols();
    let elem_len = o * ring.byte_len();
    let mut v = Matrix::zeros(m, o);

    for frag in scheme.fragments() {
        let nn = frag.n as usize;
        let keys = kk.extend(ch, m * n, frag.n)?;
        let per_ot = match mode {
            TripletMode::MultiBatch => nn,
            TripletMode::OneBatch => nn - 1,
        };

        // Message packing per OT is independent; shard across workers and
        // concatenate the buffers in index order. One group seed is drawn
        // here — exactly one `rng` call for any thread count — and each
        // OT derives its own mask stream from (seed, index), so the frame
        // is byte-identical no matter how the index range is sharded.
        let mask_seed: u64 = rng.gen();
        let pack_range = |range: std::ops::Range<usize>| -> (Vec<u8>, Matrix) {
            use rand::SeedableRng;
            let mut v_part = Matrix::zeros(m, o);
            let mut data = Vec::with_capacity(range.len() * per_ot * elem_len);
            for idx in range {
                let i = idx / n;
                let j = idx % n;
                let r_row = r.row(j);
                // The client's per-OT masks s_k and the symbols it encrypts.
                let (s_vec, t_start) = match mode {
                    TripletMode::MultiBatch => {
                        let mut ot_rng = rand::rngs::StdRng::seed_from_u64(splitmix64(
                            mask_seed ^ splitmix64(idx as u64),
                        ));
                        (ring.sample_vec(&mut ot_rng, o), 0u64)
                    }
                    TripletMode::OneBatch => {
                        // s_k := contribution(0, r_k) − decode(mask₀)_k, so
                        // the chooser's symbol-0 plaintext equals its own
                        // mask and needs no transmission.
                        let mask0 = ring.decode_slice(&keys.mask(idx, 0, elem_len));
                        let s: Vec<u64> = r_row
                            .iter()
                            .zip(&mask0)
                            .map(|(&rk, &m0)| ring.sub(frag.contribution(0, rk, &ring), m0))
                            .collect();
                        (s, 1u64)
                    }
                };
                for (k, &sk) in s_vec.iter().enumerate() {
                    let cur = v_part.get(i, k);
                    v_part.set(i, k, ring.add(cur, sk));
                }
                for t in t_start..frag.n {
                    let plain: Vec<u64> = r_row
                        .iter()
                        .zip(&s_vec)
                        .map(|(&rk, &sk)| ring.sub(frag.contribution(t, rk, &ring), sk))
                        .collect();
                    let mut ct = ring.encode_slice(&plain);
                    let mask = keys.mask(idx, t, elem_len);
                    for (c, mb) in ct.iter_mut().zip(&mask) {
                        *c ^= mb;
                    }
                    data.extend_from_slice(&ct);
                }
            }
            (data, v_part)
        };
        let parts = run_sharded(m * n, cfg.threads, &pack_range);
        let mut data = Vec::with_capacity(m * n * per_ot * elem_len);
        for (buf, v_part) in parts {
            data.extend_from_slice(&buf);
            v = v.add(&v_part, &ring);
        }
        ch.send_frame(&TripletMasked(data))?;
    }
    Ok(v)
}

/// Algorithm 1 (dot-product triplets): the `m = 1`, `o = 1` special case.
/// Server output `u` with `u + v = w·r`.
///
/// # Errors
///
/// Propagates [`triplet_server`] failures.
pub fn dot_product_server<T: Transport>(
    ch: &mut T,
    kk: &mut FragmentChooser,
    w: &[i64],
    scheme: &FragmentScheme,
    ring: Ring,
) -> Result<u64, ProtocolError> {
    let u = triplet_server(ch, kk, w, 1, w.len(), 1, scheme, ring, TripletMode::OneBatch)?;
    Ok(u.get(0, 0))
}

/// Algorithm 1, client side: `v` with `u + v = w·r` for the client's `r`.
///
/// # Errors
///
/// Propagates [`triplet_client`] failures.
pub fn dot_product_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    kk: &mut FragmentSender,
    r: &[u64],
    scheme: &FragmentScheme,
    ring: Ring,
    rng: &mut RNG,
) -> Result<u64, ProtocolError> {
    let rm = Matrix::column(r.to_vec());
    let v = triplet_client(ch, kk, &rm, 1, scheme, ring, TripletMode::OneBatch, rng)?;
    Ok(v.get(0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, NetworkModel, TrafficReport};
    use abnn2_ot::OfflineMode;
    use rand::SeedableRng;

    /// Runs the full triplet protocol (including session setup) over the
    /// portable KK13 backend and returns (U, V, R, traffic).
    fn run_triplet(
        weights: Vec<i64>,
        (m, n, o): (usize, usize, usize),
        scheme: FragmentScheme,
        ring: Ring,
        mode: TripletMode,
        seed: u64,
    ) -> (Matrix, Matrix, Matrix, TrafficReport) {
        run_triplet_over(OfflineMode::Iknp, weights, m, n, o, scheme, ring, mode, seed)
    }

    /// [`run_triplet`] with an explicit OT backend.
    #[allow(clippy::too_many_arguments)]
    fn run_triplet_over(
        ot: OfflineMode,
        weights: Vec<i64>,
        m: usize,
        n: usize,
        o: usize,
        scheme: FragmentScheme,
        ring: Ring,
        mode: TripletMode,
        seed: u64,
    ) -> (Matrix, Matrix, Matrix, TrafficReport) {
        let scheme2 = scheme.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r = Matrix::random(n, o, &ring, &mut rng);
        let r2 = r.clone();
        let (u, v, report) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                let mut kk = FragmentChooser::setup(ch, ot, &mut rng).expect("chooser setup");
                triplet_server(ch, &mut kk, &weights, m, n, o, &scheme, ring, mode).expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let mut kk = FragmentSender::setup(ch, ot, &mut rng).expect("sender setup");
                triplet_client(ch, &mut kk, &r2, m, &scheme2, ring, mode, &mut rng).expect("client")
            },
        );
        (u, v, r, report)
    }

    fn expected_product(weights: &[i64], m: usize, n: usize, r: &Matrix, ring: Ring) -> Matrix {
        let w_ring: Vec<u64> = weights.iter().map(|&w| ring.from_i64(w)).collect();
        Matrix::new(m, n, w_ring).mul(r, &ring)
    }

    #[test]
    fn one_batch_ternary_dot_product() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::ternary();
        let weights = vec![-1i64, 0, 1, 1, -1];
        let (u, v, r, _) =
            run_triplet(weights.clone(), (1, 5, 1), scheme, ring, TripletMode::OneBatch, 100);
        let expect = expected_product(&weights, 1, 5, &r, ring);
        assert_eq!(u.add(&v, &ring), expect);
    }

    #[test]
    fn multi_batch_signed_8bit() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (m, n, o) = (4, 6, 3);
        let weights: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-128i64..128)).collect();
        let (u, v, r, _) =
            run_triplet(weights.clone(), (m, n, o), scheme, ring, TripletMode::MultiBatch, 200);
        let expect = expected_product(&weights, m, n, &r, ring);
        assert_eq!(u.add(&v, &ring), expect);
    }

    #[test]
    fn all_paper_schemes_produce_correct_triplets() {
        let ring = Ring::new(32);
        let mut seed = 300;
        for eta in [8u32, 6, 4, 3] {
            for scheme in FragmentScheme::paper_schemes(eta) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let (lo, hi) = scheme.weight_range();
                let weights: Vec<i64> = (0..6).map(|_| rng.gen_range(lo..=hi)).collect();
                let (u, v, r, _) = run_triplet(
                    weights.clone(),
                    (2, 3, 1),
                    scheme.clone(),
                    ring,
                    TripletMode::OneBatch,
                    seed,
                );
                let expect = expected_product(&weights, 2, 3, &r, ring);
                assert_eq!(u.add(&v, &ring), expect, "scheme {scheme} η={eta}");
                seed += 1;
            }
        }
    }

    #[test]
    fn non_power_of_two_radixes_produce_correct_triplets() {
        // The optimizer's balanced base-7 scheme and a signed base-6 scheme
        // run through the same KK13 machinery (any N ≤ 256).
        let ring = Ring::new(32);
        for (seed, scheme) in (600..).zip([
            FragmentScheme::balanced(7, 3),
            FragmentScheme::base_n_signed(6, 3),
            FragmentScheme::base_n(5, 2),
            FragmentScheme::optimize(8, 1, 32),
        ]) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (lo, hi) = scheme.weight_range();
            let weights: Vec<i64> = (0..12).map(|_| rng.gen_range(lo..=hi)).collect();
            let (u, v, r, _) = run_triplet(
                weights.clone(),
                (3, 4, 2),
                scheme.clone(),
                ring,
                TripletMode::MultiBatch,
                seed,
            );
            let expect = expected_product(&weights, 3, 4, &r, ring);
            assert_eq!(u.add(&v, &ring), expect, "scheme {scheme}");
        }
    }

    #[test]
    fn sixty_four_bit_ring() {
        let ring = Ring::new(64);
        let scheme = FragmentScheme::signed_bit_fields(&[4, 4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let weights: Vec<i64> = (0..8).map(|_| rng.gen_range(-128i64..128)).collect();
        let (u, v, r, _) =
            run_triplet(weights.clone(), (2, 4, 2), scheme, ring, TripletMode::MultiBatch, 400);
        assert_eq!(u.add(&v, &ring), expected_product(&weights, 2, 4, &r, ring));
    }

    #[test]
    fn silent_backend_produces_correct_triplets() {
        // Same protocol, silent (LPN) OT backend: both §4.1 layouts must
        // still reconstruct W·R exactly.
        let ring = Ring::new(32);
        let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (m, n) = (3, 5);
        let weights: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-128i64..128)).collect();
        for (o, mode) in [(1usize, TripletMode::OneBatch), (2, TripletMode::MultiBatch)] {
            let (u, v, r, _) = run_triplet_over(
                OfflineMode::Silent,
                weights.clone(),
                m,
                n,
                o,
                scheme.clone(),
                ring,
                mode,
                700 + o as u64,
            );
            let expect = expected_product(&weights, m, n, &r, ring);
            assert_eq!(u.add(&v, &ring), expect, "mode {mode:?}");
        }
    }

    #[test]
    fn one_batch_saves_communication() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::signed_bit_fields(&[4, 4]); // N = 16: big gap
        let weights: Vec<i64> = (0..32).map(|i| (i % 20) - 10).collect();
        let (_, _, _, rep1) = run_triplet(
            weights.clone(),
            (4, 8, 1),
            scheme.clone(),
            ring,
            TripletMode::OneBatch,
            500,
        );
        let (_, _, _, rep2) =
            run_triplet(weights, (4, 8, 1), scheme, ring, TripletMode::MultiBatch, 501);
        assert!(
            rep1.total_bytes() < rep2.total_bytes(),
            "one-batch {} should beat multi-batch {}",
            rep1.total_bytes(),
            rep2.total_bytes()
        );
    }

    #[test]
    fn dot_product_wrappers() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::binary();
        let w = vec![1i64, 0, 1, 1];
        let w2 = w.clone();
        let scheme2 = scheme.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let r: Vec<u64> = ring.sample_vec(&mut rng, 4);
        let r2 = r.clone();
        let (u, v, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(8);
                let mut kk =
                    FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                dot_product_server(ch, &mut kk, &w2, &scheme, ring).expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(9);
                let mut kk = FragmentSender::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                dot_product_client(ch, &mut kk, &r2, &scheme2, ring, &mut rng).expect("client")
            },
        );
        let expect = ring.dot(&w.iter().map(|&x| x as u64).collect::<Vec<_>>(), &r);
        assert_eq!(ring.add(u, v), expect);
    }

    #[test]
    fn weight_domain_enforced() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::binary();
        let scheme2 = scheme.clone();
        // Weight 7 is outside {0,1}: the server must error out before any
        // OT, and the client then fails on the dropped channel.
        let (server_res, client_res, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                let mut kk =
                    FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                triplet_server(ch, &mut kk, &[7], 1, 1, 1, &scheme, ring, TripletMode::OneBatch)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                let mut kk = FragmentSender::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                let r = Matrix::column(vec![5]);
                triplet_client(ch, &mut kk, &r, 1, &scheme2, ring, TripletMode::OneBatch, &mut rng)
            },
        );
        assert_eq!(
            server_res.err(),
            Some(ProtocolError::Dimension("weight outside scheme domain"))
        );
        assert!(client_res.is_err(), "client must observe the aborted protocol");
    }

    #[test]
    fn mode_selection_rule() {
        assert_eq!(TripletMode::for_batch(1), TripletMode::OneBatch);
        assert_eq!(TripletMode::for_batch(32), TripletMode::MultiBatch);
        assert_eq!(TripletConfig::for_batch(1).threads, 1);
        assert_eq!(TripletConfig::for_batch(1).with_threads(4).threads, 4);
    }

    #[test]
    fn multithreaded_triplets_remain_correct() {
        // The paper's future-work parallelization: any mix of thread counts
        // between the parties must produce valid triplets.
        let ring = Ring::new(32);
        let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let (m, n, o) = (6, 9, 4);
        let weights: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-128i64..128)).collect();
        let r = Matrix::random(n, o, &ring, &mut rng);
        for (st, ct) in [(1usize, 3usize), (4, 1), (3, 2)] {
            let (w2, r2, s1, s2) = (weights.clone(), r.clone(), scheme.clone(), scheme.clone());
            let (u, v, _) = run_pair(
                NetworkModel::instant(),
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(78);
                    let mut kk =
                        FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                    let cfg = TripletConfig::new(TripletMode::MultiBatch).with_threads(st);
                    triplet_server_with(ch, &mut kk, &w2, m, n, o, &s1, ring, cfg).expect("server")
                },
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(79);
                    let mut kk =
                        FragmentSender::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                    let cfg = TripletConfig::new(TripletMode::MultiBatch).with_threads(ct);
                    triplet_client_with(ch, &mut kk, &r2, m, &s2, ring, cfg, &mut rng)
                        .expect("client")
                },
            );
            let expect = expected_product(&weights, m, n, &r, ring);
            assert_eq!(u.add(&v, &ring), expect, "server {st} threads, client {ct} threads");
        }
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        let _ = TripletConfig::for_batch(1).with_threads(0);
    }
}

//! KK13 1-out-of-N OT extension (Kolesnikov–Kumaresan, CRYPTO 2013).
//!
//! The generalization of IKNP that ABNN² builds on: the receiver's choice is
//! a *symbol* `w ∈ [N]` rather than a bit, encoded with a binary code of
//! minimum distance κ. We use the 256-bit Walsh–Hadamard code (codeword
//! `c(w)ᵢ = ⟨w, i⟩ mod 2`), whose pairwise distance is exactly 128 for any
//! two distinct symbols below 256 — so a single instantiation covers every
//! radix the paper uses (N ≤ 16) with the `2κ` column cost that appears in
//! Table 1.
//!
//! The API hands out *key handles* instead of performing message transfer:
//! ABNN²'s matrix-multiplication protocol needs direct access to the per-
//! symbol masks to implement the one-batch "N−1 messages" optimization
//! (§4.1.3), where the mask for symbol 0 is itself the sender's share.

use crate::bits::{get_bit, transpose_columns_par, xor_in_place};
use crate::frames::KkColumns;
use crate::iknp::PAR_MIN_OTS;
use crate::{base, OtError};
use abnn2_crypto::{Block, Prg, RoHash};
use abnn2_net::Transport;
use rand::Rng;

/// Code length 2κ = 256: the column count of the extension matrix.
pub const CODE_LEN: usize = 256;

/// Maximum supported radix (limited by the Walsh–Hadamard code length).
pub const MAX_N: u64 = 256;

/// The Walsh–Hadamard codeword of symbol `v`: bit `i` is `parity(v & i)`.
///
/// # Panics
///
/// Panics if `v >= 256`.
#[must_use]
pub fn codeword(v: u64) -> [u8; 32] {
    assert!(v < MAX_N, "symbol {v} exceeds the WH code domain");
    let mut out = [0u8; 32];
    for i in 0..CODE_LEN {
        if ((v & i as u64).count_ones() & 1) == 1 {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// OT-extension **sender**: after `extend`, can derive the mask for *every*
/// symbol of every OT. In ABNN² this is the client (data owner).
pub struct KkSender {
    s: [u8; 32],
    prgs: Vec<Prg>,
    tweak: u64,
    threads: usize,
}

impl std::fmt::Debug for KkSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KkSender").field("tweak", &self.tweak).finish()
    }
}

/// OT-extension **chooser**: learns only the mask of its chosen symbol per
/// OT. In ABNN² this is the server (model owner) choosing weight fragments.
#[derive(Clone)]
pub struct KkChooser {
    prg_pairs: Vec<(Prg, Prg)>,
    tweak: u64,
    threads: usize,
}

impl std::fmt::Debug for KkChooser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KkChooser").field("tweak", &self.tweak).finish()
    }
}

/// Key material the sender obtains from one `extend` call.
#[derive(Debug)]
pub struct KkSenderKeys {
    rows: Vec<[u8; 32]>,
    s: [u8; 32],
    base_tweak: u64,
    hash: RoHash,
}

/// Key material the chooser obtains from one `extend` call.
#[derive(Debug)]
pub struct KkChooserKeys {
    rows: Vec<[u8; 32]>,
    base_tweak: u64,
    hash: RoHash,
}

impl KkSender {
    /// One-time setup: 2κ base OTs with this party as base-OT chooser
    /// holding the correlation secret `s`.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        let s_bits: Vec<bool> = (0..CODE_LEN).map(|_| rng.gen()).collect();
        let seeds = base::recv(ch, &s_bits, rng)?;
        let mut s = [0u8; 32];
        for (i, &b) in s_bits.iter().enumerate() {
            if b {
                s[i / 8] |= 1 << (i % 8);
            }
        }
        Ok(KkSender {
            s,
            prgs: seeds.into_iter().map(Prg::from_seed).collect(),
            tweak: 0,
            threads: 1,
        })
    }

    /// Sets the worker-thread count for column expansion and transposes.
    /// Local compute only: the transcript is byte-identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Extends to `m` fresh 1-out-of-N OTs (any N ≤ 256 at mask time),
    /// consuming the chooser's column message.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed chooser messages.
    pub fn extend<T: Transport>(&mut self, ch: &mut T, m: usize) -> Result<KkSenderKeys, OtError> {
        let col_bytes = m.div_ceil(8);
        let KkColumns(u) = ch.recv_frame()?;
        if u.len() != CODE_LEN * col_bytes {
            return Err(OtError::Malformed("KK13 column batch has wrong length"));
        }
        let threads = if m < PAR_MIN_OTS { 1 } else { self.threads };
        let mut cols: Vec<Vec<u8>> = vec![Vec::new(); CODE_LEN];
        if threads <= 1 {
            for (i, (prg, out)) in self.prgs.iter_mut().zip(cols.iter_mut()).enumerate() {
                let mut col = prg.bytes(col_bytes);
                if get_bit(&self.s, i) {
                    xor_in_place(&mut col, &u[i * col_bytes..(i + 1) * col_bytes]);
                }
                *out = col;
            }
        } else {
            // Contiguous column shards per worker: identical output to the
            // sequential loop, so the derived keys (and hence any masked
            // traffic) cannot change.
            let shard = CODE_LEN.div_ceil(threads);
            let s = &self.s;
            std::thread::scope(|scope| {
                for (w, (prgs, (outs, us))) in self
                    .prgs
                    .chunks_mut(shard)
                    .zip(cols.chunks_mut(shard).zip(u.chunks(shard * col_bytes)))
                    .enumerate()
                {
                    let start = w * shard;
                    scope.spawn(move || {
                        for (k, ((prg, out), ui)) in prgs
                            .iter_mut()
                            .zip(outs.iter_mut())
                            .zip(us.chunks(col_bytes))
                            .enumerate()
                        {
                            let mut col = prg.bytes(col_bytes);
                            if get_bit(s, start + k) {
                                xor_in_place(&mut col, ui);
                            }
                            *out = col;
                        }
                    });
                }
            });
        }
        let rows = transpose_columns_par(&cols, m, threads)
            .into_iter()
            .map(|r| {
                let arr: [u8; 32] = r.try_into().expect("32-byte row");
                arr
            })
            .collect();
        let base_tweak = self.tweak;
        self.tweak += m as u64;
        Ok(KkSenderKeys { rows, s: self.s, base_tweak, hash: RoHash::new() })
    }
}

impl KkSenderKeys {
    /// Number of OTs in this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `len`-byte mask of symbol `v` in OT `j` — XOR a plaintext with
    /// this before sending; only a chooser that picked `v` can remove it.
    ///
    /// # Panics
    ///
    /// Panics if `j` or `v` is out of range.
    #[must_use]
    pub fn mask(&self, j: usize, v: u64, len: usize) -> Vec<u8> {
        // Sender key for symbol v: H(j, q_j ⊕ (c(v) ∧ s)). For the chooser's
        // actual symbol this cancels to its t0 row.
        let mut row = self.rows[j];
        let cw = codeword(v);
        for (i, r) in row.iter_mut().enumerate() {
            *r ^= cw[i] & self.s[i];
        }
        self.hash.hash_expand((self.base_tweak + j as u64) as u128, &row, len)
    }
}

impl KkChooserKeys {
    /// Number of OTs in this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `len`-byte mask of the symbol this chooser selected in OT `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn mask(&self, j: usize, len: usize) -> Vec<u8> {
        self.hash.hash_expand((self.base_tweak + j as u64) as u128, &self.rows[j], len)
    }
}

impl KkChooser {
    /// One-time setup: 2κ base OTs with this party as base-OT sender holding
    /// random seed pairs.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        let seed_pairs: Vec<(Block, Block)> =
            (0..CODE_LEN).map(|_| (Block::random(rng), Block::random(rng))).collect();
        base::send(ch, &seed_pairs, rng)?;
        Ok(KkChooser {
            prg_pairs: seed_pairs
                .into_iter()
                .map(|(a, b)| (Prg::from_seed(a), Prg::from_seed(b)))
                .collect(),
            tweak: 0,
            threads: 1,
        })
    }

    /// Sets the worker-thread count for column expansion and transposes.
    /// Local compute only: the transcript is byte-identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Extends with one choice symbol per OT; all symbols must be below `n`.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    ///
    /// # Panics
    ///
    /// Panics if any choice is ≥ `n` or `n` exceeds [`MAX_N`].
    pub fn extend<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[u64],
        n: u64,
    ) -> Result<KkChooserKeys, OtError> {
        assert!((2..=MAX_N).contains(&n), "radix {n} out of range");
        assert!(choices.iter().all(|&c| c < n), "choice symbol out of range");
        let m = choices.len();
        let col_bytes = m.div_ceil(8);

        // D matrix: row j is codeword(w_j); build its columns directly.
        let codewords: Vec<[u8; 32]> = (0..n).map(codeword).collect();
        let threads = if m < PAR_MIN_OTS { 1 } else { self.threads };
        let mut t0_cols: Vec<Vec<u8>> = vec![Vec::new(); CODE_LEN];
        let mut u = vec![0u8; CODE_LEN * col_bytes];
        let expand_col =
            |i: usize, prg0: &mut Prg, prg1: &mut Prg, out: &mut Vec<u8>, ui: &mut [u8]| {
                let t0 = prg0.bytes(col_bytes);
                let t1 = prg1.bytes(col_bytes);
                ui.copy_from_slice(&t0);
                xor_in_place(ui, &t1);
                // XOR in column i of D.
                for (j, &w) in choices.iter().enumerate() {
                    if get_bit(&codewords[w as usize], i) {
                        ui[j / 8] ^= 1 << (j % 8);
                    }
                }
                *out = t0;
            };
        if threads <= 1 {
            for (i, ((prg0, prg1), (out, ui))) in self
                .prg_pairs
                .iter_mut()
                .zip(t0_cols.iter_mut().zip(u.chunks_exact_mut(col_bytes)))
                .enumerate()
            {
                expand_col(i, prg0, prg1, out, ui);
            }
        } else {
            // Contiguous column shards per worker: identical to the
            // sequential loop, so the wire message is byte-identical.
            let shard = CODE_LEN.div_ceil(threads);
            let expand_col = &expand_col;
            std::thread::scope(|scope| {
                for (w, (prgs, (outs, us))) in self
                    .prg_pairs
                    .chunks_mut(shard)
                    .zip(t0_cols.chunks_mut(shard).zip(u.chunks_mut(shard * col_bytes)))
                    .enumerate()
                {
                    let start = w * shard;
                    scope.spawn(move || {
                        for (k, ((prg0, prg1), (out, ui))) in prgs
                            .iter_mut()
                            .zip(outs.iter_mut().zip(us.chunks_exact_mut(col_bytes)))
                            .enumerate()
                        {
                            expand_col(start + k, prg0, prg1, out, ui);
                        }
                    });
                }
            });
        }
        ch.send_frame(&KkColumns(u))?;

        let rows = transpose_columns_par(&t0_cols, m, threads)
            .into_iter()
            .map(|r| {
                let arr: [u8; 32] = r.try_into().expect("32-byte row");
                arr
            })
            .collect();
        let base_tweak = self.tweak;
        self.tweak += m as u64;
        Ok(KkChooserKeys { rows, base_tweak, hash: RoHash::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use rand::SeedableRng;

    fn run_kk<A: Send, B: Send>(
        f_s: impl FnOnce(&mut KkSender, &mut Endpoint) -> A + Send,
        f_c: impl FnOnce(&mut KkChooser, &mut Endpoint) -> B + Send,
    ) -> (A, B) {
        let (a, b, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(11);
                let mut s = KkSender::setup(ch, &mut rng).expect("sender setup");
                f_s(&mut s, ch)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(12);
                let mut c = KkChooser::setup(ch, &mut rng).expect("chooser setup");
                f_c(&mut c, ch)
            },
        );
        (a, b)
    }

    #[test]
    fn codeword_distance_is_kappa() {
        for v1 in 0..16u64 {
            for v2 in 0..16u64 {
                let (c1, c2) = (codeword(v1), codeword(v2));
                let dist: u32 = c1.iter().zip(&c2).map(|(a, b)| (a ^ b).count_ones()).sum();
                if v1 == v2 {
                    assert_eq!(dist, 0);
                } else {
                    assert_eq!(dist, 128, "v1={v1} v2={v2}");
                }
            }
        }
    }

    #[test]
    fn chooser_mask_matches_sender_mask_at_choice() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let n = 16u64;
        let m = 50;
        let choices: Vec<u64> = (0..m).map(|_| rng.gen_range(0..n)).collect();
        let choices2 = choices.clone();
        let (sender_keys, chooser_keys) = run_kk(
            move |s, ch| s.extend(ch, m).expect("extend"),
            move |c, ch| c.extend(ch, &choices2, n).expect("extend"),
        );
        for (j, &choice) in choices.iter().enumerate() {
            let want = sender_keys.mask(j, choice, 24);
            assert_eq!(chooser_keys.mask(j, 24), want, "ot {j}");
            // Masks for other symbols must differ.
            for v in 0..n {
                if v != choice {
                    assert_ne!(sender_keys.mask(j, v, 24), chooser_keys.mask(j, 24));
                }
            }
        }
    }

    #[test]
    fn binary_and_ternary_radix() {
        for n in [2u64, 3, 4] {
            let m = 17;
            let choices: Vec<u64> = (0..m as u64).map(|j| j % n).collect();
            let choices2 = choices.clone();
            let (sk, ck) = run_kk(
                move |s, ch| s.extend(ch, m).expect("extend"),
                move |c, ch| c.extend(ch, &choices2, n).expect("extend"),
            );
            for (j, &choice) in choices.iter().enumerate() {
                assert_eq!(ck.mask(j, 8), sk.mask(j, choice, 8), "n={n} ot={j}");
            }
        }
    }

    #[test]
    fn sequential_extends_are_independent() {
        let (masks_s, masks_c) = run_kk(
            |s, ch| {
                let k1 = s.extend(ch, 4).expect("extend 1");
                let k2 = s.extend(ch, 4).expect("extend 2");
                (k1.mask(0, 1, 16), k2.mask(0, 1, 16))
            },
            |c, ch| {
                let k1 = c.extend(ch, &[1, 0, 1, 0], 2).expect("extend 1");
                let k2 = c.extend(ch, &[1, 1, 1, 1], 2).expect("extend 2");
                (k1.mask(0, 16), k2.mask(0, 16))
            },
        );
        assert_eq!(masks_s.0, masks_c.0);
        assert_eq!(masks_s.1, masks_c.1);
        assert_ne!(masks_s.0, masks_s.1, "tweaks must separate batches");
    }

    #[test]
    #[should_panic(expected = "choice symbol out of range")]
    fn oversized_choice_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (mut a, _b) = Endpoint::pair(NetworkModel::instant());
        // Construct a chooser directly to test the assertion without a peer.
        let mut chooser = KkChooser {
            prg_pairs: (0..CODE_LEN)
                .map(|_| {
                    (
                        Prg::from_seed(Block::random(&mut rng)),
                        Prg::from_seed(Block::random(&mut rng)),
                    )
                })
                .collect(),
            tweak: 0,
            threads: 1,
        };
        let _ = chooser.extend(&mut a, &[4], 4);
    }

    #[test]
    fn variable_mask_lengths_are_prefix_consistent() {
        let (sk, ck) = run_kk(
            |s, ch| s.extend(ch, 1).expect("extend"),
            |c, ch| c.extend(ch, &[2], 4).expect("extend"),
        );
        let long = sk.mask(0, 2, 64);
        let short = ck.mask(0, 32);
        assert_eq!(&long[..32], &short[..]);
    }
}

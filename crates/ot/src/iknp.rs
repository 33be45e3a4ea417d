//! IKNP 1-out-of-2 OT extension with chosen, correlated and random variants.
//!
//! After a one-time setup of κ = 128 base OTs (with roles reversed), any
//! number of OTs cost only symmetric operations plus κ bits per OT from the
//! receiver. The correlated variant (`C-OT`) is what SecureML's triplet
//! generation uses: the sender's first message is pseudorandom and only an
//! ℓ-bit correction word crosses the wire.

use crate::bits::{pack_bits, transpose_columns_par, xor_in_place};
use crate::frames::{IknpColumns, IknpCts, OtCorrections, OtVecPayload, SilentBaseColumns};
use crate::{base, OtError, KAPPA};
use abnn2_crypto::{Block, Prg, RoHash};
use abnn2_math::Ring;
use abnn2_net::Transport;
use rand::Rng;

/// Extensions below this many OTs run single-threaded regardless of the
/// configured worker count: spawn/join overhead would dominate. The gate
/// depends only on the batch size, so the schedule stays deterministic.
pub(crate) const PAR_MIN_OTS: usize = 4096;

/// Sender side of IKNP extension (holds the message pairs).
#[derive(Clone)]
pub struct IknpSender {
    s_bits: Vec<bool>,
    s_block: Block,
    prgs: Vec<Prg>,
    hash: RoHash,
    tweak: u64,
    threads: usize,
}

impl std::fmt::Debug for IknpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IknpSender").field("tweak", &self.tweak).finish()
    }
}

/// Receiver side of IKNP extension (holds the choice bits).
#[derive(Clone)]
pub struct IknpReceiver {
    prg_pairs: Vec<(Prg, Prg)>,
    hash: RoHash,
    tweak: u64,
    threads: usize,
}

impl std::fmt::Debug for IknpReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IknpReceiver").field("tweak", &self.tweak).finish()
    }
}

impl IknpSender {
    /// Runs setup: κ base OTs with this party as base-OT chooser holding the
    /// global secret `s`.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        let s_bits: Vec<bool> = (0..KAPPA).map(|_| rng.gen()).collect();
        let seeds = base::recv(ch, &s_bits, rng)?;
        let s_block = Block::from_bytes(pack_bits(&s_bits).try_into().expect("16 bytes"));
        Ok(IknpSender {
            s_bits,
            s_block,
            prgs: seeds.into_iter().map(Prg::from_seed).collect(),
            hash: RoHash::new(),
            tweak: 0,
            threads: 1,
        })
    }

    /// Sets the worker-thread count for column expansion, transposes and
    /// per-OT hashing. Local compute only: the transcript is byte-identical
    /// for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The global correlation block `s`: for every extension row,
    /// `q_j = t_j ⊕ c_j·s`. The silent-OT bootstrap reads this as its Δ.
    #[must_use]
    pub fn delta(&self) -> Block {
        self.s_block
    }

    /// Core extension step: receives the masked columns and returns the row
    /// values `q_j`, from which both message keys derive.
    fn extend_rows<T: Transport>(&mut self, ch: &mut T, m: usize) -> Result<Vec<Block>, OtError> {
        let IknpColumns(u) = ch.recv_frame()?;
        self.rows_from_columns(&u, m)
    }

    /// Raw correlated-OT extension for the silent-OT bootstrap: returns the
    /// *unhashed* rows `q_j = t_j ⊕ c_j·Δ` (Δ = [`delta`](Self::delta)),
    /// moved under the dedicated silent bootstrap frame so silent traffic
    /// stays fully self-labelled on the wire.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    pub fn extend_cot<T: Transport>(
        &mut self,
        ch: &mut T,
        m: usize,
    ) -> Result<Vec<Block>, OtError> {
        let SilentBaseColumns(u) = ch.recv_frame()?;
        let rows = self.rows_from_columns(&u, m)?;
        self.bump_tweak(m);
        Ok(rows)
    }

    fn rows_from_columns(&mut self, u: &[u8], m: usize) -> Result<Vec<Block>, OtError> {
        let col_bytes = m.div_ceil(8);
        if u.len() != KAPPA * col_bytes {
            return Err(OtError::Malformed("IKNP column batch has wrong length"));
        }
        if m == 0 {
            return Ok(Vec::new());
        }
        let threads = if m < PAR_MIN_OTS { 1 } else { self.threads };
        let mut cols: Vec<Vec<u8>> = vec![Vec::new(); KAPPA];
        if threads <= 1 {
            for ((prg, &bit), (out, ui)) in self
                .prgs
                .iter_mut()
                .zip(&self.s_bits)
                .zip(cols.iter_mut().zip(u.chunks_exact(col_bytes)))
            {
                let mut col = prg.bytes(col_bytes);
                if bit {
                    xor_in_place(&mut col, ui);
                }
                *out = col;
            }
        } else {
            // Each worker owns a contiguous column shard: PRG states,
            // output slots and `u` slices split identically, so the result
            // matches the sequential loop byte for byte.
            let shard = KAPPA.div_ceil(threads);
            std::thread::scope(|scope| {
                for ((prgs, bits), (outs, us)) in self
                    .prgs
                    .chunks_mut(shard)
                    .zip(self.s_bits.chunks(shard))
                    .zip(cols.chunks_mut(shard).zip(u.chunks(shard * col_bytes)))
                {
                    scope.spawn(move || {
                        for ((prg, &bit), (out, ui)) in prgs
                            .iter_mut()
                            .zip(bits)
                            .zip(outs.iter_mut().zip(us.chunks_exact(col_bytes)))
                        {
                            let mut col = prg.bytes(col_bytes);
                            if bit {
                                xor_in_place(&mut col, ui);
                            }
                            *out = col;
                        }
                    });
                }
            });
        }
        let rows = transpose_columns_par(&cols, m, threads);
        Ok(rows
            .into_iter()
            .map(|r| Block::from_bytes(r.try_into().expect("16-byte row")))
            .collect())
    }

    /// Sends `pairs.len()` chosen-message OTs of one block each.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    pub fn send_chosen<T: Transport>(
        &mut self,
        ch: &mut T,
        pairs: &[(Block, Block)],
    ) -> Result<(), OtError> {
        let qs = self.extend_rows(ch, pairs.len())?;
        let base_tweak = self.bump_tweak(pairs.len());
        let hs = self.hash_both(&qs, base_tweak);
        let cts = pairs
            .iter()
            .zip(hs.chunks_exact(2))
            .flat_map(|(pair, h)| [pair.0 ^ h[0], pair.1 ^ h[1]])
            .collect();
        ch.send_frame(&IknpCts(cts))?;
        Ok(())
    }

    /// One batched hash pass over `H(t, q)` and `H(t, q ⊕ s)` for every
    /// row, interleaved `[h0, h1, h0, h1, …]`.
    fn hash_both(&self, qs: &[Block], base_tweak: u64) -> Vec<Block> {
        let mut sigmas = Vec::with_capacity(qs.len() * 2);
        for (j, q) in qs.iter().enumerate() {
            let t = Block::from((base_tweak + j as u64) as u128);
            sigmas.push(*q ^ t);
            sigmas.push(*q ^ self.s_block ^ t);
        }
        self.hash.hash_blocks_par(&mut sigmas, self.threads);
        sigmas
    }

    /// Random OT: returns `m` pseudorandom pairs with no extra message
    /// beyond the extension itself.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    pub fn send_random<T: Transport>(
        &mut self,
        ch: &mut T,
        m: usize,
    ) -> Result<Vec<(Block, Block)>, OtError> {
        let qs = self.extend_rows(ch, m)?;
        let base_tweak = self.bump_tweak(m);
        let hs = self.hash_both(&qs, base_tweak);
        Ok(hs.chunks_exact(2).map(|h| (h[0], h[1])).collect())
    }

    /// Correlated OT over a ring: for each `delta`, the sender learns a
    /// pseudorandom `x0` and the receiver learns `x0` or `x0 + delta`.
    /// Only one ⌈ℓ/8⌉-byte correction per OT crosses the wire.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    pub fn send_correlated<T: Transport>(
        &mut self,
        ch: &mut T,
        deltas: &[u64],
        ring: Ring,
    ) -> Result<Vec<u64>, OtError> {
        let qs = self.extend_rows(ch, deltas.len())?;
        let base_tweak = self.bump_tweak(deltas.len());
        let hs = self.hash_both(&qs, base_tweak);
        let mut x0s = Vec::with_capacity(deltas.len());
        let mut corrections = Vec::with_capacity(deltas.len());
        for (h, &delta) in hs.chunks_exact(2).zip(deltas) {
            let x0 = ring.reduce(h[0].as_u128() as u64);
            let mask1 = ring.reduce(h[1].as_u128() as u64);
            // correction = x0 + delta − H(q ⊕ s): receiver with bit 1 adds its
            // mask back to recover x0 + delta.
            corrections.push(ring.sub(ring.add(x0, delta), mask1));
            x0s.push(x0);
        }
        ch.send_frame(&OtCorrections(ring.encode_slice(&corrections)))?;
        Ok(x0s)
    }

    /// Vector correlated OT: like [`IknpSender::send_correlated`] but each
    /// OT carries a whole vector of ring elements (the batch-packing used
    /// by amortized triplet generation). Returns the per-OT `x0` vectors.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    ///
    /// # Panics
    ///
    /// Panics if the delta vectors are ragged.
    pub fn send_correlated_vec<T: Transport>(
        &mut self,
        ch: &mut T,
        deltas: &[Vec<u64>],
        ring: Ring,
    ) -> Result<Vec<Vec<u64>>, OtError> {
        let width = deltas.first().map_or(0, Vec::len);
        assert!(deltas.iter().all(|d| d.len() == width), "ragged delta vectors");
        let qs = self.extend_rows(ch, deltas.len())?;
        let base_tweak = self.bump_tweak(deltas.len());
        let elem_len = width * ring.byte_len();
        let mut x0s = Vec::with_capacity(deltas.len());
        let mut payload = Vec::with_capacity(deltas.len() * elem_len);
        for (j, (q, delta)) in qs.iter().zip(deltas).enumerate() {
            let t = (base_tweak + j as u64) as u128;
            let x0 = ring.decode_slice(&self.hash.hash_expand(t, &q.to_bytes(), elem_len));
            let mask1 = ring.decode_slice(&self.hash.hash_expand(
                t,
                &(*q ^ self.s_block).to_bytes(),
                elem_len,
            ));
            for k in 0..width {
                payload.extend_from_slice(
                    &ring.encode_slice(&[ring.sub(ring.add(x0[k], delta[k]), mask1[k])]),
                );
            }
            x0s.push(x0);
        }
        ch.send_frame(&OtVecPayload(payload))?;
        Ok(x0s)
    }

    fn bump_tweak(&mut self, m: usize) -> u64 {
        let t = self.tweak;
        self.tweak += m as u64;
        t
    }
}

impl IknpReceiver {
    /// Runs setup: κ base OTs with this party as base-OT sender holding
    /// random seed pairs.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        let seed_pairs: Vec<(Block, Block)> =
            (0..KAPPA).map(|_| (Block::random(rng), Block::random(rng))).collect();
        base::send(ch, &seed_pairs, rng)?;
        Ok(IknpReceiver {
            prg_pairs: seed_pairs
                .into_iter()
                .map(|(a, b)| (Prg::from_seed(a), Prg::from_seed(b)))
                .collect(),
            hash: RoHash::new(),
            tweak: 0,
            threads: 1,
        })
    }

    /// Sets the worker-thread count for column expansion, transposes and
    /// per-OT hashing. Local compute only: the transcript is byte-identical
    /// for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Core extension step: sends masked columns, returns per-row blocks
    /// `t_j` (the key for the chosen message).
    fn extend_rows<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
    ) -> Result<Vec<Block>, OtError> {
        let (u, rows) = self.derive_rows(choices);
        ch.send_frame(&IknpColumns(u))?;
        Ok(rows)
    }

    /// Raw correlated-OT extension for the silent-OT bootstrap: returns the
    /// *unhashed* rows `t_j` with `q_j = t_j ⊕ c_j·Δ` on the sender side,
    /// moved under the dedicated silent bootstrap frame.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    pub fn extend_cot<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
    ) -> Result<Vec<Block>, OtError> {
        let (u, rows) = self.derive_rows(choices);
        ch.send_frame(&SilentBaseColumns(u))?;
        self.bump_tweak(choices.len());
        Ok(rows)
    }

    fn derive_rows(&mut self, choices: &[bool]) -> (Vec<u8>, Vec<Block>) {
        let m = choices.len();
        if m == 0 {
            return (Vec::new(), Vec::new());
        }
        let col_bytes = m.div_ceil(8);
        let b = pack_bits(choices);
        let threads = if m < PAR_MIN_OTS { 1 } else { self.threads };
        let mut t_cols: Vec<Vec<u8>> = vec![Vec::new(); KAPPA];
        let mut u = vec![0u8; KAPPA * col_bytes];
        if threads <= 1 {
            for ((prg0, prg1), (out, ui)) in
                self.prg_pairs.iter_mut().zip(t_cols.iter_mut().zip(u.chunks_exact_mut(col_bytes)))
            {
                let t0 = prg0.bytes(col_bytes);
                let t1 = prg1.bytes(col_bytes);
                ui.copy_from_slice(&t0);
                xor_in_place(ui, &t1);
                xor_in_place(ui, &b);
                *out = t0;
            }
        } else {
            // Each worker owns a contiguous column shard: PRG states,
            // output slots and `u` slices split identically, so the result
            // matches the sequential loop byte for byte.
            let shard = KAPPA.div_ceil(threads);
            let b = &b;
            std::thread::scope(|scope| {
                for (prgs, (outs, us)) in self
                    .prg_pairs
                    .chunks_mut(shard)
                    .zip(t_cols.chunks_mut(shard).zip(u.chunks_mut(shard * col_bytes)))
                {
                    scope.spawn(move || {
                        for ((prg0, prg1), (out, ui)) in
                            prgs.iter_mut().zip(outs.iter_mut().zip(us.chunks_exact_mut(col_bytes)))
                        {
                            let t0 = prg0.bytes(col_bytes);
                            let t1 = prg1.bytes(col_bytes);
                            ui.copy_from_slice(&t0);
                            xor_in_place(ui, &t1);
                            xor_in_place(ui, b);
                            *out = t0;
                        }
                    });
                }
            });
        }
        let rows = transpose_columns_par(&t_cols, m, threads)
            .into_iter()
            .map(|r| Block::from_bytes(r.try_into().expect("16-byte row")))
            .collect();
        (u, rows)
    }

    /// One batched hash pass over `H(t, t_j)` for every row.
    fn hash_rows(&self, ts: &[Block], base_tweak: u64) -> Vec<Block> {
        let mut sigmas: Vec<Block> = ts
            .iter()
            .enumerate()
            .map(|(j, t)| *t ^ Block::from((base_tweak + j as u64) as u128))
            .collect();
        self.hash.hash_blocks_par(&mut sigmas, self.threads);
        sigmas
    }

    /// Receives chosen-message OTs: one block per choice bit.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn recv<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
    ) -> Result<Vec<Block>, OtError> {
        let ts = self.extend_rows(ch, choices)?;
        let base_tweak = self.bump_tweak(choices.len());
        let IknpCts(cts) = ch.recv_frame()?;
        if cts.len() != 2 * choices.len() {
            return Err(OtError::Malformed("IKNP ciphertext batch has wrong length"));
        }
        let hs = self.hash_rows(&ts, base_tweak);
        Ok(hs
            .iter()
            .zip(choices)
            .enumerate()
            .map(|(j, (h, &c))| cts[2 * j + c as usize] ^ *h)
            .collect())
    }

    /// Random OT receiver: learns `x_c` for pseudorandom pairs.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn recv_random<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
    ) -> Result<Vec<Block>, OtError> {
        let ts = self.extend_rows(ch, choices)?;
        let base_tweak = self.bump_tweak(choices.len());
        Ok(self.hash_rows(&ts, base_tweak))
    }

    /// Correlated OT receiver: learns `x0 + c·delta` per OT.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn recv_correlated<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
        ring: Ring,
    ) -> Result<Vec<u64>, OtError> {
        let ts = self.extend_rows(ch, choices)?;
        let base_tweak = self.bump_tweak(choices.len());
        let OtCorrections(corr_bytes) = ch.recv_frame()?;
        if corr_bytes.len() != ring.byte_len() * choices.len() {
            return Err(OtError::Malformed("C-OT correction batch has wrong length"));
        }
        let corrections = ring.decode_slice(&corr_bytes);
        let hs = self.hash_rows(&ts, base_tweak);
        Ok(hs
            .iter()
            .zip(choices)
            .zip(&corrections)
            .map(|((h, &c), &corr)| {
                let mask = ring.reduce(h.as_u128() as u64);
                if c {
                    ring.add(corr, mask)
                } else {
                    mask
                }
            })
            .collect())
    }

    /// Vector correlated OT receiver: learns `x0 + c·delta` element-wise
    /// per OT.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn recv_correlated_vec<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
        width: usize,
        ring: Ring,
    ) -> Result<Vec<Vec<u64>>, OtError> {
        let ts = self.extend_rows(ch, choices)?;
        let base_tweak = self.bump_tweak(choices.len());
        let elem_len = width * ring.byte_len();
        let OtVecPayload(payload) = ch.recv_frame()?;
        if payload.len() != elem_len * choices.len() {
            return Err(OtError::Malformed("vector C-OT correction batch length"));
        }
        Ok(ts
            .iter()
            .zip(choices)
            .enumerate()
            .map(|(j, (t, &c))| {
                let tw = (base_tweak + j as u64) as u128;
                let mask = ring.decode_slice(&self.hash.hash_expand(tw, &t.to_bytes(), elem_len));
                if c {
                    let corr = ring.decode_slice(&payload[j * elem_len..(j + 1) * elem_len]);
                    ring.add_vec(&corr, &mask)
                } else {
                    mask
                }
            })
            .collect())
    }

    fn bump_tweak(&mut self, m: usize) -> u64 {
        let t = self.tweak;
        self.tweak += m as u64;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use rand::SeedableRng;

    fn setup_pair(
        test: impl FnOnce(&mut IknpSender, &mut Endpoint) -> Vec<(Block, Block)> + Send,
        choices: Vec<bool>,
    ) -> (Vec<(Block, Block)>, Vec<Block>) {
        run_two(test, move |r, ch| r.recv(ch, &choices).expect("recv"))
    }

    fn run_two<A: Send, B: Send>(
        f_s: impl FnOnce(&mut IknpSender, &mut Endpoint) -> A + Send,
        f_r: impl FnOnce(&mut IknpReceiver, &mut Endpoint) -> B + Send,
    ) -> (A, B) {
        let (a, b, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                let mut s = IknpSender::setup(ch, &mut rng).expect("sender setup");
                f_s(&mut s, ch)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                let mut r = IknpReceiver::setup(ch, &mut rng).expect("receiver setup");
                f_r(&mut r, ch)
            },
        );
        (a, b)
    }

    #[test]
    fn chosen_message_ot() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let m = 300;
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let choices2 = choices.clone();
        let (pairs, got) = setup_pair(
            move |s, ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                let pairs: Vec<(Block, Block)> =
                    (0..m).map(|_| (Block::random(&mut rng), Block::random(&mut rng))).collect();
                s.send_chosen(ch, &pairs).expect("send");
                pairs
            },
            choices2,
        );
        for (j, &c) in choices.iter().enumerate() {
            assert_eq!(got[j], if c { pairs[j].1 } else { pairs[j].0 }, "ot {j}");
        }
    }

    #[test]
    fn random_ot_agrees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = 100;
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let choices2 = choices.clone();
        let (pairs, got) = run_two(
            move |s, ch| s.send_random(ch, m).expect("send_random"),
            move |r, ch| r.recv_random(ch, &choices2).expect("recv_random"),
        );
        for (j, &c) in choices.iter().enumerate() {
            assert_eq!(got[j], if c { pairs[j].1 } else { pairs[j].0 });
            assert_ne!(pairs[j].0, pairs[j].1);
        }
    }

    #[test]
    fn correlated_ot_over_rings() {
        for bits in [8u32, 32, 64] {
            let ring = Ring::new(bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let m = 200;
            let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
            let deltas: Vec<u64> = ring.sample_vec(&mut rng, m);
            let (choices2, deltas2) = (choices.clone(), deltas.clone());
            let (x0s, xcs) = run_two(
                move |s, ch| s.send_correlated(ch, &deltas2, ring).expect("send_correlated"),
                move |r, ch| r.recv_correlated(ch, &choices2, ring).expect("recv_correlated"),
            );
            for j in 0..m {
                let expect = if choices[j] { ring.add(x0s[j], deltas[j]) } else { x0s[j] };
                assert_eq!(xcs[j], expect, "bits={bits} ot {j}");
            }
        }
    }

    #[test]
    fn vector_correlated_ot() {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let (m, width) = (50, 3);
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let deltas: Vec<Vec<u64>> = (0..m).map(|_| ring.sample_vec(&mut rng, width)).collect();
        let (choices2, deltas2) = (choices.clone(), deltas.clone());
        let (x0s, xcs) = run_two(
            move |s, ch| s.send_correlated_vec(ch, &deltas2, ring).expect("send"),
            move |r, ch| r.recv_correlated_vec(ch, &choices2, width, ring).expect("recv"),
        );
        for j in 0..m {
            for k in 0..width {
                let expect = if choices[j] { ring.add(x0s[j][k], deltas[j][k]) } else { x0s[j][k] };
                assert_eq!(xcs[j][k], expect, "ot {j} slot {k}");
            }
        }
    }

    #[test]
    fn multiple_extends_use_fresh_tweaks() {
        let choices = vec![true, false, true];
        let choices2 = choices.clone();
        let ((p1, p2), (g1, g2)) = run_two(
            move |s, ch| {
                let pairs: Vec<(Block, Block)> = (0..3)
                    .map(|i| (Block::from(i as u128), Block::from((i + 10) as u128)))
                    .collect();
                s.send_chosen(ch, &pairs).expect("send 1");
                s.send_chosen(ch, &pairs).expect("send 2");
                (pairs.clone(), pairs)
            },
            move |r, ch| {
                let g1 = r.recv(ch, &choices2).expect("recv 1");
                let g2 = r.recv(ch, &choices2).expect("recv 2");
                (g1, g2)
            },
        );
        for (j, &c) in choices.iter().enumerate() {
            assert_eq!(g1[j], if c { p1[j].1 } else { p1[j].0 });
            assert_eq!(g2[j], if c { p2[j].1 } else { p2[j].0 });
        }
    }

    #[test]
    fn raw_cot_rows_satisfy_the_correlation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(70);
        let m = 77;
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let choices2 = choices.clone();
        let ((qs, delta), ts) = run_two(
            move |s, ch| {
                let qs = s.extend_cot(ch, m).expect("sender cot");
                (qs, s.delta())
            },
            move |r, ch| r.extend_cot(ch, &choices2).expect("receiver cot"),
        );
        for (j, &c) in choices.iter().enumerate() {
            let want = if c { qs[j] ^ delta } else { qs[j] };
            assert_eq!(ts[j], want, "ot {j}");
        }
    }

    #[test]
    fn non_multiple_of_eight_batch() {
        let choices = vec![true; 13];
        let (pairs, got) = setup_pair(
            move |s, ch| {
                let pairs: Vec<(Block, Block)> = (0..13)
                    .map(|i| (Block::from(i as u128), Block::from((100 + i) as u128)))
                    .collect();
                s.send_chosen(ch, &pairs).expect("send");
                pairs
            },
            choices,
        );
        assert!(got.iter().zip(&pairs).all(|(g, p)| *g == p.1));
    }
}

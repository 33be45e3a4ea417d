//! Packed-bit helpers and the column→row transposition used by OT extension.

/// Reads bit `i` from a packed little-endian bit buffer.
#[inline]
#[must_use]
pub fn get_bit(buf: &[u8], i: usize) -> bool {
    (buf[i / 8] >> (i % 8)) & 1 == 1
}

/// Sets bit `i` in a packed little-endian bit buffer.
#[inline]
pub fn set_bit(buf: &mut [u8], i: usize, v: bool) {
    if v {
        buf[i / 8] |= 1 << (i % 8);
    } else {
        buf[i / 8] &= !(1 << (i % 8));
    }
}

/// Packs a slice of bools into little-endian bytes.
#[must_use]
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// XORs `src` into `dst` element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Transposes `k` packed bit columns of `m` bits each into `m` packed rows
/// of `k` bits (⌈k/8⌉ bytes) each.
///
/// This is the matrix transposition at the heart of IKNP-style OT extension:
/// the PRG naturally produces columns, the hash needs rows.
///
/// # Panics
///
/// Panics if any column is shorter than ⌈m/8⌉ bytes.
#[must_use]
pub fn transpose_columns(cols: &[Vec<u8>], m: usize) -> Vec<Vec<u8>> {
    let k = cols.len();
    let row_bytes = k.div_ceil(8);
    let col_bytes = m.div_ceil(8);
    for (i, c) in cols.iter().enumerate() {
        assert!(c.len() >= col_bytes, "column {i} too short: {} < {col_bytes}", c.len());
    }
    let mut rows = vec![vec![0u8; row_bytes]; m];
    for (i, col) in cols.iter().enumerate() {
        let (byte_i, mask_i) = (i / 8, 1u8 << (i % 8));
        for (j, row) in rows.iter_mut().enumerate() {
            if (col[j / 8] >> (j % 8)) & 1 == 1 {
                row[byte_i] |= mask_i;
            }
        }
    }
    rows
}

/// [`transpose_columns`] with the output rows sharded across `threads`
/// scoped workers.
///
/// Each worker owns a contiguous row range and reads all columns, so the
/// result is byte-identical to the sequential transpose for any thread
/// count — this is the local-compute half of the parallel offline
/// schedule; nothing about the wire transcript can change. Small matrices
/// stay on the calling thread.
///
/// # Panics
///
/// Panics if any column is shorter than ⌈m/8⌉ bytes.
#[must_use]
pub fn transpose_columns_par(cols: &[Vec<u8>], m: usize, threads: usize) -> Vec<Vec<u8>> {
    /// Below this many rows the spawn/join overhead dominates the work.
    const MIN_PAR_ROWS: usize = 512;
    if threads <= 1 || m < MIN_PAR_ROWS {
        return transpose_columns(cols, m);
    }
    let k = cols.len();
    let row_bytes = k.div_ceil(8);
    let col_bytes = m.div_ceil(8);
    for (i, c) in cols.iter().enumerate() {
        assert!(c.len() >= col_bytes, "column {i} too short: {} < {col_bytes}", c.len());
    }
    let mut rows = vec![vec![0u8; row_bytes]; m];
    let shard = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (w, chunk) in rows.chunks_mut(shard).enumerate() {
            let start = w * shard;
            scope.spawn(move || {
                for (i, col) in cols.iter().enumerate() {
                    let (byte_i, mask_i) = (i / 8, 1u8 << (i % 8));
                    for (jj, row) in chunk.iter_mut().enumerate() {
                        let j = start + jj;
                        if (col[j / 8] >> (j % 8)) & 1 == 1 {
                            row[byte_i] |= mask_i;
                        }
                    }
                }
            });
        }
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_round_trip() {
        let mut buf = vec![0u8; 4];
        set_bit(&mut buf, 0, true);
        set_bit(&mut buf, 9, true);
        set_bit(&mut buf, 31, true);
        assert!(get_bit(&buf, 0));
        assert!(get_bit(&buf, 9));
        assert!(get_bit(&buf, 31));
        assert!(!get_bit(&buf, 1));
        set_bit(&mut buf, 9, false);
        assert!(!get_bit(&buf, 9));
    }

    #[test]
    fn pack_matches_get() {
        let bits = [true, false, true, true, false, false, false, true, true];
        let packed = pack_bits(&bits);
        assert_eq!(packed.len(), 2);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(get_bit(&packed, i), b);
        }
    }

    #[test]
    fn xor_is_involutive() {
        let mut a = vec![1u8, 2, 3];
        let b = vec![7u8, 7, 7];
        xor_in_place(&mut a, &b);
        xor_in_place(&mut a, &b);
        assert_eq!(a, vec![1, 2, 3]);
    }

    #[test]
    fn parallel_transpose_is_byte_identical() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Above and below the parallel threshold, ragged thread splits.
        for m in [13usize, 511, 512, 700, 2048, 2049] {
            let cols: Vec<Vec<u8>> =
                (0..128).map(|_| (0..m.div_ceil(8)).map(|_| rng.gen()).collect()).collect();
            let want = transpose_columns(&cols, m);
            for threads in [1, 2, 3, 4, 7] {
                assert_eq!(transpose_columns_par(&cols, m, threads), want, "m={m} t={threads}");
            }
        }
    }

    proptest! {
        #[test]
        fn transpose_is_correct(m in 1usize..70, k_bytes in 1usize..5, seed: u64) {
            use rand::{Rng, SeedableRng};
            let k = k_bytes * 8;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cols: Vec<Vec<u8>> = (0..k).map(|_| {
                (0..m.div_ceil(8)).map(|_| rng.gen()).collect()
            }).collect();
            let rows = transpose_columns(&cols, m);
            prop_assert_eq!(rows.len(), m);
            for (i, col) in cols.iter().enumerate() {
                for (j, row) in rows.iter().enumerate() {
                    prop_assert_eq!(get_bit(row, i), get_bit(col, j));
                }
            }
        }
    }
}

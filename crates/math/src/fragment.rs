//! N-base fragment decomposition of quantized weights (§4.1 of the paper).
//!
//! An η-bit weight `w` is split into γ fragments so that
//! `w · r = Σᵢ scaleᵢ · w[i] · r`, and each fragment multiplication is done
//! with one 1-out-of-Nᵢ OT. The paper allows mixed fragment widths — e.g.
//! η = 8 split as `(2,2,2,2)`, `(3,3,2)` or `(4,4)` (Table 2) — plus the
//! special *ternary* ({−1,0,1}) and *binary* ({0,1}) weight domains.
//!
//! Signed weights are handled by interpreting the **top** fragment of a
//! bit-field scheme in two's complement: the OT sender simply enumerates the
//! digit values, so a signed digit costs nothing extra.

use crate::Ring;
use serde::{Deserialize, Serialize};

/// One fragment of a decomposition: a digit in `0..n` scaled by `scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fragment {
    /// Radix of the digit; the fragment's OT is a 1-out-of-`n` OT.
    pub n: u64,
    /// Multiplier applied to the digit value (`Nⁱ`, i.e. `2^offset` for
    /// bit-field schemes).
    pub scale: u64,
    /// How a choice index `j ∈ 0..n` maps to an integer digit value.
    pub kind: DigitKind,
}

/// Interpretation of a fragment's choice index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DigitKind {
    /// `value = j`.
    Unsigned,
    /// `value = j` if `j < n/2`, else `j − n` (two's complement top field).
    TwosComplement,
    /// `value = j − (n−1)/2` (e.g. ternary digits −1, 0, 1 for n = 3).
    Centered,
}

impl Fragment {
    /// Integer value of choice index `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n`.
    #[must_use]
    pub fn digit_value(&self, j: u64) -> i64 {
        assert!(j < self.n, "digit index {j} out of radix {}", self.n);
        match self.kind {
            DigitKind::Unsigned => j as i64,
            DigitKind::TwosComplement => {
                if j < self.n / 2 {
                    j as i64
                } else {
                    j as i64 - self.n as i64
                }
            }
            DigitKind::Centered => j as i64 - ((self.n - 1) / 2) as i64,
        }
    }

    /// The ring element `digit_value(j) · scale · r`, i.e. the plaintext of
    /// the j-th OT message in the fragment-multiplication protocol.
    #[must_use]
    pub fn contribution(&self, j: u64, r: u64, ring: &Ring) -> u64 {
        ring.mul_signed(ring.mul(self.scale & ring.mask(), r), self.digit_value(j))
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum Repr {
    /// Contiguous bit fields, lowest field first; if `signed`, the top field
    /// is two's complement.
    BitFields { widths: Vec<u32>, signed: bool },
    /// A single centered digit (ternary `n = 3`, or any odd radix).
    Centered { n: u64 },
    /// A single unsigned digit (binary `n = 2` weights `{0,1}`).
    Plain { n: u64 },
    /// Uniform base-N with γ digits for **arbitrary** N (the paper's "all
    /// possible combinations of N and γ"). Unsigned digits; when `signed`,
    /// the top digit is interpreted radix-complement style (for even N) —
    /// for odd N use [`Repr::Balanced`] instead.
    BaseN { n: u64, gamma: u32, signed: bool },
    /// Balanced (signed-digit) base-N for odd N: every digit is in
    /// `[−(N−1)/2, (N−1)/2]`, giving a symmetric weight range.
    Balanced { n: u64, gamma: u32 },
}

/// A complete decomposition scheme for one weight domain.
///
/// ```
/// use abnn2_math::FragmentScheme;
/// let s = FragmentScheme::signed_bit_fields(&[3, 3, 2]); // η = 8, signed
/// let digits = s.decompose(-100);
/// assert_eq!(s.recompose_i64(&digits), -100);
/// assert_eq!(s.gamma(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FragmentScheme {
    repr: Repr,
    fragments: Vec<Fragment>,
}

impl FragmentScheme {
    fn from_repr(repr: Repr) -> Self {
        let fragments = match &repr {
            Repr::BitFields { widths, signed } => {
                assert!(!widths.is_empty(), "at least one fragment required");
                assert!(
                    widths.iter().all(|&w| (1..=16).contains(&w)),
                    "fragment widths must be 1..=16 bits"
                );
                let eta: u32 = widths.iter().sum();
                assert!(eta <= 32, "total weight bitwidth must be <= 32");
                let mut out = Vec::with_capacity(widths.len());
                let mut offset = 0u32;
                for (i, &w) in widths.iter().enumerate() {
                    let top = i + 1 == widths.len();
                    out.push(Fragment {
                        n: 1u64 << w,
                        scale: 1u64 << offset,
                        kind: if *signed && top {
                            DigitKind::TwosComplement
                        } else {
                            DigitKind::Unsigned
                        },
                    });
                    offset += w;
                }
                out
            }
            Repr::Centered { n } => {
                assert!(*n >= 2, "radix must be >= 2");
                vec![Fragment { n: *n, scale: 1, kind: DigitKind::Centered }]
            }
            Repr::Plain { n } => {
                assert!(*n >= 2, "radix must be >= 2");
                vec![Fragment { n: *n, scale: 1, kind: DigitKind::Unsigned }]
            }
            Repr::BaseN { n, gamma, signed } => {
                assert!((2..=256).contains(n), "radix must be 2..=256");
                assert!(*gamma >= 1, "at least one fragment required");
                assert!(
                    !*signed || *n % 2 == 0,
                    "signed base-N needs an even radix (use balanced for odd)"
                );
                capacity(*n, *gamma); // panics on overflow
                (0..*gamma)
                    .map(|i| Fragment {
                        n: *n,
                        scale: n.pow(i),
                        kind: if *signed && i + 1 == *gamma {
                            DigitKind::TwosComplement
                        } else {
                            DigitKind::Unsigned
                        },
                    })
                    .collect()
            }
            Repr::Balanced { n, gamma } => {
                assert!(
                    (3..=255).contains(n) && *n % 2 == 1,
                    "balanced radix must be odd and 3..=255"
                );
                assert!(*gamma >= 1, "at least one fragment required");
                capacity(*n, *gamma);
                (0..*gamma)
                    .map(|i| Fragment { n: *n, scale: n.pow(i), kind: DigitKind::Centered })
                    .collect()
            }
        };
        FragmentScheme { repr, fragments }
    }

    /// Bit-field scheme with unsigned weights in `[0, 2^η)`.
    ///
    /// `widths` lists the fragment bit lengths from the **lowest** bits to
    /// the highest, following the paper's tuple notation — `(3,3,2)` means
    /// "the rightmost 3 bits are the first fragment".
    #[must_use]
    pub fn unsigned(widths: &[u32]) -> Self {
        Self::from_repr(Repr::BitFields { widths: widths.to_vec(), signed: false })
    }

    /// Bit-field scheme with two's-complement weights in `[−2^{η−1}, 2^{η−1})`.
    #[must_use]
    pub fn signed_bit_fields(widths: &[u32]) -> Self {
        Self::from_repr(Repr::BitFields { widths: widths.to_vec(), signed: true })
    }

    /// Uniform base-N scheme: γ = ⌈η / log₂N⌉ fragments of `frag_bits` bits
    /// each (Equation 2 of the paper), unsigned.
    #[must_use]
    pub fn uniform(eta: u32, frag_bits: u32) -> Self {
        assert!(frag_bits >= 1 && eta >= 1, "eta and frag_bits must be positive");
        let gamma = eta.div_ceil(frag_bits);
        let mut widths = vec![frag_bits; gamma as usize];
        let last = eta - frag_bits * (gamma - 1);
        *widths.last_mut().expect("gamma >= 1") = last;
        Self::unsigned(&widths)
    }

    /// The ternary weight domain {−1, 0, 1} served by a single 1-out-of-3 OT.
    #[must_use]
    pub fn ternary() -> Self {
        Self::from_repr(Repr::Centered { n: 3 })
    }

    /// The binary weight domain {0, 1} served by a single 1-out-of-2 OT.
    #[must_use]
    pub fn binary() -> Self {
        Self::from_repr(Repr::Plain { n: 2 })
    }

    /// Uniform base-N decomposition with γ unsigned digits for **any**
    /// radix 2..=256 — the full parameter space the paper's "all possible
    /// combinations of N and γ" sweep refers to. Weight domain `[0, N^γ)`.
    #[must_use]
    pub fn base_n(n: u64, gamma: u32) -> Self {
        Self::from_repr(Repr::BaseN { n, gamma, signed: false })
    }

    /// Signed uniform base-N (even radix): the top digit is interpreted
    /// radix-complement style, giving the domain `[−N^γ/2, N^γ/2)`.
    #[must_use]
    pub fn base_n_signed(n: u64, gamma: u32) -> Self {
        Self::from_repr(Repr::BaseN { n, gamma, signed: true })
    }

    /// Balanced (signed-digit) base-N for odd radixes: every digit lies in
    /// `[−(N−1)/2, (N−1)/2]`, weight domain `±(N^γ−1)/2`.
    #[must_use]
    pub fn balanced(n: u64, gamma: u32) -> Self {
        Self::from_repr(Repr::Balanced { n, gamma })
    }

    /// One-batch communication cost per weight in bits under this scheme:
    /// `Σ_fragments (ℓ·(N−1) + 2κ)` with κ = 128 (§4.1.3 / Table 1).
    #[must_use]
    pub fn one_batch_bits_per_weight(&self, ring_bits: u32) -> u64 {
        self.fragments.iter().map(|f| u64::from(ring_bits) * (f.n - 1) + 256).sum()
    }

    /// Multi-batch communication cost per weight in bits for batch `o`:
    /// `Σ_fragments (o·ℓ·N + 2κ)` (§4.1.2 / Table 1).
    #[must_use]
    pub fn multi_batch_bits_per_weight(&self, o: usize, ring_bits: u32) -> u64 {
        self.fragments.iter().map(|f| o as u64 * u64::from(ring_bits) * f.n + 256).sum()
    }

    /// Searches **all** radixes N ∈ 2..=16 (the paper's cap) for the
    /// signed scheme with minimum predicted communication for η-bit weights
    /// at batch size `o` over ℤ_{2^ring_bits} — the "optimal parameter
    /// values for different bitwidth" of the paper's contribution list,
    /// extended to non-power-of-two radixes.
    ///
    /// ```
    /// use abnn2_math::FragmentScheme;
    /// // 8-bit weights, one-batch, ℓ = 32: balanced base-7 with 3 digits
    /// // beats the paper's (2,2,2,2) by ~5%.
    /// let best = FragmentScheme::optimize(8, 1, 32);
    /// assert_eq!(best.label(), "balanced-7^3");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `eta` is 0 or greater than 30.
    #[must_use]
    pub fn optimize(eta: u32, o: usize, ring_bits: u32) -> Self {
        assert!((1..=30).contains(&eta), "eta must be 1..=30");
        let mut best: Option<(u64, FragmentScheme)> = None;
        for n in 2u64..=16 {
            // Smallest γ whose capacity covers the 2^eta-value domain.
            let mut gamma = 1u32;
            while capacity_checked(n, gamma).is_some_and(|c| c < (1u128 << eta)) {
                gamma += 1;
            }
            let scheme = if n % 2 == 0 {
                FragmentScheme::base_n_signed(n, gamma)
            } else {
                FragmentScheme::balanced(n, gamma)
            };
            let cost = if o <= 1 {
                scheme.one_batch_bits_per_weight(ring_bits)
            } else {
                scheme.multi_batch_bits_per_weight(o, ring_bits)
            };
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, scheme));
            }
        }
        best.expect("non-empty search space").1
    }

    /// Number of fragments γ.
    #[must_use]
    pub fn gamma(&self) -> usize {
        self.fragments.len()
    }

    /// The fragments, lowest scale first.
    #[must_use]
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// The largest radix N over all fragments (the paper caps this at 16).
    #[must_use]
    pub fn max_radix(&self) -> u64 {
        self.fragments.iter().map(|f| f.n).max().expect("non-empty")
    }

    /// Total bitwidth η of the represented weights (⌈log₂ of the domain
    /// size⌉ for non-power-of-two domains).
    #[must_use]
    pub fn eta(&self) -> u32 {
        match &self.repr {
            Repr::BitFields { widths, .. } => widths.iter().sum(),
            Repr::Centered { n } | Repr::Plain { n } => 64 - (n - 1).leading_zeros(),
            Repr::BaseN { n, gamma, .. } | Repr::Balanced { n, gamma } => {
                128 - (capacity(*n, *gamma) - 1).leading_zeros()
            }
        }
    }

    /// Inclusive range of representable weight values.
    #[must_use]
    pub fn weight_range(&self) -> (i64, i64) {
        match &self.repr {
            Repr::BitFields { widths, signed } => {
                let eta: u32 = widths.iter().sum();
                if *signed {
                    (-(1i64 << (eta - 1)), (1i64 << (eta - 1)) - 1)
                } else {
                    (0, (1i64 << eta) - 1)
                }
            }
            Repr::Centered { n } => {
                let half = ((n - 1) / 2) as i64;
                (-half, (*n as i64 - 1) - half)
            }
            Repr::Plain { n } => (0, *n as i64 - 1),
            Repr::BaseN { n, gamma, signed } => {
                let cap = capacity(*n, *gamma) as i64;
                if *signed {
                    (-(cap / 2), cap / 2 - 1)
                } else {
                    (0, cap - 1)
                }
            }
            Repr::Balanced { n, gamma } => {
                let half = ((capacity(*n, *gamma) - 1) / 2) as i64;
                (-half, half)
            }
        }
    }

    /// True if `w` is representable in this scheme.
    #[must_use]
    pub fn contains(&self, w: i64) -> bool {
        let (lo, hi) = self.weight_range();
        (lo..=hi).contains(&w)
    }

    /// Clamps a weight into the representable range.
    #[must_use]
    pub fn clamp(&self, w: i64) -> i64 {
        let (lo, hi) = self.weight_range();
        w.clamp(lo, hi)
    }

    /// Splits a weight into per-fragment choice indices (`w[i]` in the
    /// paper's notation), lowest fragment first.
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside [`FragmentScheme::weight_range`].
    #[must_use]
    pub fn decompose(&self, w: i64) -> Vec<u64> {
        assert!(self.contains(w), "weight {w} outside domain {:?}", self.weight_range());
        match &self.repr {
            Repr::BitFields { widths, .. } => {
                let eta: u32 = widths.iter().sum();
                let mut pattern = (w as u64) & if eta == 64 { u64::MAX } else { (1u64 << eta) - 1 };
                widths
                    .iter()
                    .map(|&b| {
                        let d = pattern & ((1u64 << b) - 1);
                        pattern >>= b;
                        d
                    })
                    .collect()
            }
            Repr::Centered { n } => vec![(w + ((n - 1) / 2) as i64) as u64],
            Repr::Plain { .. } => vec![w as u64],
            Repr::BaseN { n, gamma, .. } => {
                // Radix-complement pattern: reduce into [0, N^γ), then plain
                // base-N digits (the signed top digit falls out naturally).
                let cap = capacity(*n, *gamma) as i64;
                let mut pattern = w.rem_euclid(cap) as u64;
                (0..*gamma)
                    .map(|_| {
                        let d = pattern % n;
                        pattern /= n;
                        d
                    })
                    .collect()
            }
            Repr::Balanced { n, gamma } => {
                let half = ((n - 1) / 2) as i64;
                let mut rem = w;
                let digits: Vec<u64> = (0..*gamma)
                    .map(|_| {
                        let mut d = rem.rem_euclid(*n as i64);
                        if d > half {
                            d -= *n as i64;
                        }
                        rem = (rem - d) / *n as i64;
                        (d + half) as u64
                    })
                    .collect();
                debug_assert_eq!(rem, 0, "balanced decomposition must terminate");
                digits
            }
        }
    }

    /// Reconstructs the integer weight value from choice indices.
    ///
    /// # Panics
    ///
    /// Panics if the digit count or any index is out of range.
    #[must_use]
    pub fn recompose_i64(&self, digits: &[u64]) -> i64 {
        assert_eq!(digits.len(), self.gamma(), "digit count mismatch");
        self.fragments.iter().zip(digits).map(|(f, &j)| f.digit_value(j) * f.scale as i64).sum()
    }

    /// Reconstructs the weight as a residue in `ring` (the value that the
    /// secure fragment multiplications sum to).
    ///
    /// # Panics
    ///
    /// Panics if the digit count or any index is out of range.
    #[must_use]
    pub fn recompose(&self, digits: &[u64], ring: &Ring) -> u64 {
        ring.from_i64(self.recompose_i64(digits))
    }

    /// A short label matching the paper's table notation, e.g. `"(2,2,2,2)"`,
    /// `"ternary"`, `"binary"`.
    #[must_use]
    pub fn label(&self) -> String {
        match &self.repr {
            Repr::BitFields { widths, .. } => {
                let parts: Vec<String> = widths.iter().map(|w| w.to_string()).collect();
                format!("({})", parts.join(","))
            }
            Repr::Centered { n: 3 } => "ternary".to_owned(),
            Repr::Centered { n } => format!("centered-{n}"),
            Repr::Plain { n: 2 } => "binary".to_owned(),
            Repr::Plain { n } => format!("plain-{n}"),
            Repr::BaseN { n, gamma, signed } => {
                format!("{}base-{n}^{gamma}", if *signed { "signed-" } else { "" })
            }
            Repr::Balanced { n, gamma } => format!("balanced-{n}^{gamma}"),
        }
    }

    /// The communication-optimal scheme for η-bit weights per the paper's
    /// Table 2 finding: 2-bit fragments minimize one-batch communication.
    #[must_use]
    pub fn optimal(eta: u32) -> Self {
        match eta {
            1 => Self::binary(),
            2 => Self::ternary(),
            _ => Self::uniform(eta, 2),
        }
    }

    /// All fragmentations evaluated in Table 2 for a given η, with the
    /// paper's labels: `(1,…,1)`, 2-bit, 3-bit and wider splits.
    #[must_use]
    pub fn paper_schemes(eta: u32) -> Vec<Self> {
        match eta {
            8 => vec![
                Self::unsigned(&[1; 8]),
                Self::unsigned(&[2, 2, 2, 2]),
                Self::unsigned(&[3, 3, 2]),
                Self::unsigned(&[4, 4]),
            ],
            6 => vec![Self::unsigned(&[1; 6]), Self::unsigned(&[2, 2, 2]), Self::unsigned(&[3, 3])],
            4 => vec![Self::unsigned(&[1; 4]), Self::unsigned(&[2, 2]), Self::unsigned(&[4])],
            3 => vec![Self::unsigned(&[1; 3]), Self::unsigned(&[2, 1]), Self::unsigned(&[3])],
            _ => vec![Self::uniform(eta, 1), Self::optimal(eta)],
        }
    }
}

/// `n^gamma` as u128, panicking on (absurd) overflow.
fn capacity(n: u64, gamma: u32) -> u128 {
    capacity_checked(n, gamma).expect("fragment domain capacity overflow")
}

fn capacity_checked(n: u64, gamma: u32) -> Option<u128> {
    let mut acc: u128 = 1;
    for _ in 0..gamma {
        acc = acc.checked_mul(n as u128)?;
        if acc > (1u128 << 63) {
            return None;
        }
    }
    Some(acc)
}

impl std::fmt::Display for FragmentScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unsigned_decompose_matches_paper_example() {
        // η = 3 with (2,1): rightmost 2 bits are the first fragment.
        let s = FragmentScheme::unsigned(&[2, 1]);
        assert_eq!(s.decompose(0b110), vec![0b10, 0b1]);
        assert_eq!(s.label(), "(2,1)");
        assert_eq!(s.gamma(), 2);
    }

    #[test]
    fn uniform_gamma_matches_equation_2() {
        // 8-bit weights decomposed into 2-bit fragments: γ = 4.
        let s = FragmentScheme::uniform(8, 2);
        assert_eq!(s.gamma(), 4);
        assert_eq!(s.max_radix(), 4);
        // γ = ⌈η/log N⌉ for η=5, N=4 → 3 fragments (2,2,1).
        let s = FragmentScheme::uniform(5, 2);
        assert_eq!(s.gamma(), 3);
        assert_eq!(s.eta(), 5);
    }

    #[test]
    fn ternary_digits() {
        let s = FragmentScheme::ternary();
        assert_eq!(s.weight_range(), (-1, 1));
        assert_eq!(s.decompose(-1), vec![0]);
        assert_eq!(s.decompose(0), vec![1]);
        assert_eq!(s.decompose(1), vec![2]);
        assert_eq!(s.recompose_i64(&[0]), -1);
        assert_eq!(s.label(), "ternary");
    }

    #[test]
    fn binary_digits() {
        let s = FragmentScheme::binary();
        assert_eq!(s.weight_range(), (0, 1));
        assert_eq!(s.recompose_i64(&s.decompose(1)), 1);
        assert_eq!(s.label(), "binary");
    }

    #[test]
    fn signed_scheme_round_trip_extremes() {
        let s = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        assert_eq!(s.weight_range(), (-128, 127));
        for w in [-128i64, -1, 0, 1, 127] {
            assert_eq!(s.recompose_i64(&s.decompose(w)), w, "w = {w}");
        }
    }

    #[test]
    fn contribution_matches_scaled_product() {
        let ring = Ring::new(32);
        let s = FragmentScheme::signed_bit_fields(&[3, 3, 2]);
        let r = 0xDEAD_BEEFu64 & ring.mask();
        let w = -97i64;
        let digits = s.decompose(w);
        let mut acc = 0u64;
        for (f, &j) in s.fragments().iter().zip(&digits) {
            acc = ring.add(acc, f.contribution(j, r, &ring));
        }
        assert_eq!(acc, ring.mul(ring.from_i64(w), r));
    }

    #[test]
    fn paper_schemes_cover_table_2() {
        assert_eq!(FragmentScheme::paper_schemes(8).len(), 4);
        assert_eq!(FragmentScheme::paper_schemes(6).len(), 3);
        assert_eq!(FragmentScheme::paper_schemes(4).len(), 3);
        assert_eq!(FragmentScheme::paper_schemes(3).len(), 3);
        let labels: Vec<String> =
            FragmentScheme::paper_schemes(8).iter().map(FragmentScheme::label).collect();
        assert_eq!(labels, vec!["(1,1,1,1,1,1,1,1)", "(2,2,2,2)", "(3,3,2)", "(4,4)"]);
    }

    #[test]
    fn optimal_uses_two_bit_fragments() {
        assert_eq!(FragmentScheme::optimal(8).gamma(), 4);
        assert_eq!(FragmentScheme::optimal(2).label(), "ternary");
        assert_eq!(FragmentScheme::optimal(1).label(), "binary");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_weight_rejected() {
        let _ = FragmentScheme::binary().decompose(2);
    }

    #[test]
    fn base_n_unsigned_round_trip() {
        let s = FragmentScheme::base_n(5, 3); // domain [0, 125)
        assert_eq!(s.weight_range(), (0, 124));
        for w in [0i64, 1, 4, 5, 24, 124] {
            assert_eq!(s.recompose_i64(&s.decompose(w)), w, "w = {w}");
        }
        assert_eq!(s.label(), "base-5^3");
        assert_eq!(s.eta(), 7);
    }

    #[test]
    fn base_n_signed_round_trip() {
        let s = FragmentScheme::base_n_signed(6, 3); // domain [−108, 108)
        assert_eq!(s.weight_range(), (-108, 107));
        for w in [-108i64, -1, 0, 1, 107] {
            assert_eq!(s.recompose_i64(&s.decompose(w)), w, "w = {w}");
        }
    }

    #[test]
    fn balanced_round_trip() {
        let s = FragmentScheme::balanced(7, 3); // domain ±171
        assert_eq!(s.weight_range(), (-171, 171));
        for w in [-171i64, -100, -1, 0, 1, 100, 171] {
            assert_eq!(s.recompose_i64(&s.decompose(w)), w, "w = {w}");
        }
        assert_eq!(s.gamma(), 3);
        assert_eq!(s.max_radix(), 7);
    }

    #[test]
    #[should_panic(expected = "even radix")]
    fn signed_base_n_rejects_odd_radix() {
        let _ = FragmentScheme::base_n_signed(7, 2);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn balanced_rejects_even_radix() {
        let _ = FragmentScheme::balanced(6, 2);
    }

    #[test]
    fn optimizer_beats_paper_default_for_8_bit() {
        let best = FragmentScheme::optimize(8, 1, 32);
        let paper = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        assert!(
            best.one_batch_bits_per_weight(32) <= paper.one_batch_bits_per_weight(32),
            "optimizer must never lose to the paper's default"
        );
        // The full N-sweep finds the balanced base-7 representation.
        assert_eq!(best.label(), "balanced-7^3");
        assert_eq!(best.one_batch_bits_per_weight(32), 3 * (32 * 6 + 256));
    }

    #[test]
    fn optimizer_covers_all_etas() {
        for eta in 1..=16u32 {
            for o in [1usize, 32] {
                let s = FragmentScheme::optimize(eta, o, 32);
                let (lo, hi) = s.weight_range();
                assert!(
                    (hi - lo + 1) as u128 >= (1u128 << eta),
                    "η={eta}: domain {lo}..={hi} too small"
                );
                // Round-trip the extremes of the η-bit domain.
                let need_lo = -(1i64 << (eta - 1));
                let need_hi = (1i64 << (eta - 1)) - 1;
                for w in [need_lo, 0, need_hi] {
                    if s.contains(w) {
                        assert_eq!(s.recompose_i64(&s.decompose(w)), w);
                    }
                }
            }
        }
    }

    #[test]
    fn cost_formulas_match_table_1() {
        // (2,2,2,2): γ = 4, N = 4 → one-batch 4·(3ℓ + 2κ).
        let s = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        assert_eq!(s.one_batch_bits_per_weight(32), 4 * (3 * 32 + 256));
        assert_eq!(s.multi_batch_bits_per_weight(128, 32), 4 * (128 * 32 * 4 + 256));
    }

    proptest! {
        #[test]
        fn unsigned_round_trip(w in 0i64..256) {
            for s in [FragmentScheme::unsigned(&[2,2,2,2]), FragmentScheme::unsigned(&[3,3,2]),
                      FragmentScheme::unsigned(&[4,4]), FragmentScheme::unsigned(&[1;8])] {
                prop_assert_eq!(s.recompose_i64(&s.decompose(w)), w);
            }
        }

        #[test]
        fn signed_round_trip(w in -128i64..128) {
            for s in [FragmentScheme::signed_bit_fields(&[2,2,2,2]),
                      FragmentScheme::signed_bit_fields(&[3,3,2]),
                      FragmentScheme::signed_bit_fields(&[4,4])] {
                prop_assert_eq!(s.recompose_i64(&s.decompose(w)), w);
            }
        }

        #[test]
        fn ring_recompose_equals_signed_embedding(w in -128i64..128, bits in 2u32..=64) {
            let ring = Ring::new(bits);
            let s = FragmentScheme::signed_bit_fields(&[4, 4]);
            let digits = s.decompose(w);
            prop_assert_eq!(s.recompose(&digits, &ring), ring.from_i64(w));
        }

        #[test]
        fn base_n_round_trip_all(w in -50i64..50, n in 2u64..=16, gamma in 2u32..4) {
            let s = if n.is_multiple_of(2) {
                FragmentScheme::base_n_signed(n, gamma)
            } else {
                FragmentScheme::balanced(n, gamma)
            };
            if s.contains(w) {
                prop_assert_eq!(s.recompose_i64(&s.decompose(w)), w);
            }
        }

        #[test]
        fn base_n_contributions_sum_to_product(w in -50i64..50, r: u64, n in 2u64..=16) {
            let ring = Ring::new(32);
            let r = ring.reduce(r);
            let s = if n.is_multiple_of(2) {
                FragmentScheme::base_n_signed(n, 3)
            } else {
                FragmentScheme::balanced(n, 3)
            };
            prop_assume!(s.contains(w));
            let digits = s.decompose(w);
            let mut acc = 0u64;
            for (f, &j) in s.fragments().iter().zip(&digits) {
                acc = ring.add(acc, f.contribution(j, r, &ring));
            }
            prop_assert_eq!(acc, ring.mul(ring.from_i64(w), r));
        }

        #[test]
        fn fragment_contributions_sum_to_product(w in -8i64..8, r: u64, bits in 8u32..=64) {
            let ring = Ring::new(bits);
            let r = ring.reduce(r);
            for s in [FragmentScheme::signed_bit_fields(&[2, 2]), FragmentScheme::ternary(), FragmentScheme::binary()] {
                if !s.contains(w) { continue; }
                let digits = s.decompose(w);
                let mut acc = 0u64;
                for (f, &j) in s.fragments().iter().zip(&digits) {
                    acc = ring.add(acc, f.contribution(j, r, &ring));
                }
                prop_assert_eq!(acc, ring.mul(ring.from_i64(w), r));
            }
        }
    }
}

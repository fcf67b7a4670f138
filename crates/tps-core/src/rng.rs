//! Small deterministic PRNG used by workload generators and the
//! fragmentation engine.
//!
//! Every experiment in the reproduction must be exactly repeatable, so we
//! use an in-tree xoshiro256++ generator (seeded through SplitMix64, as its
//! authors recommend) instead of an external crate whose stream might change
//! across versions.
//!
//! # Example
//!
//! ```
//! use tps_core::rng::Rng;
//! let mut a = Rng::new(42);
//! let mut b = Rng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
//! let x = a.below(10);
//! assert!(x < 10);
//! ```

/// SplitMix64: used to expand a 64-bit seed into xoshiro state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The low 256 coefficients of the characteristic polynomial p(x) of the
/// xoshiro256 state transition, which is linear over GF(2): p(x) = x²⁵⁶ +
/// the terms whose bits are set here, bit i of the little-endian words being
/// the coefficient of xⁱ. x^(2¹²⁸) mod p is the published `jump()` constant
/// (pinned by a test), which pins p too.
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// A polynomial over GF(2) reduced mod p, in [`CHAR_POLY`]'s layout.
type Poly = [u64; 4];

/// Whether the coefficient of xⁱ in `a` is set.
fn coeff(a: &Poly, i: usize) -> bool {
    a[i / 64] >> (i % 64) & 1 != 0
}

fn xor_into(acc: &mut [u64; 4], x: [u64; 4]) {
    for (a, x) in acc.iter_mut().zip(x) {
        *a ^= x;
    }
}

/// `a · x mod p`: a shift, and x²⁵⁶ ≡ the low terms of p on carry-out.
fn mul_x(a: Poly) -> Poly {
    let mut r = [
        a[0] << 1,
        a[1] << 1 | a[0] >> 63,
        a[2] << 1 | a[1] >> 63,
        a[3] << 1 | a[2] >> 63,
    ];
    if a[3] >> 63 != 0 {
        xor_into(&mut r, CHAR_POLY);
    }
    r
}

/// `a · b mod p`, by Horner's rule over `b`'s coefficients.
fn mul_mod(a: Poly, b: Poly) -> Poly {
    let mut r = [0; 4];
    for i in (0..256).rev() {
        r = mul_x(r);
        if coeff(&b, i) {
            xor_into(&mut r, a);
        }
    }
    r
}

/// `xⁿ mod p`, by square-and-multiply from `n`'s highest bit.
fn x_pow_mod(n: u64) -> Poly {
    let mut r = [1, 0, 0, 0];
    for bit in (0..u64::BITS - n.leading_zeros()).rev() {
        r = mul_mod(r, r);
        if n >> bit & 1 != 0 {
            r = mul_x(r);
        }
    }
    r
}

/// xoshiro256++ deterministic PRNG.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Moves the generator `n` draws ahead in O(log n) steps: afterwards it
    /// is exactly as if [`Rng::next_u64`] had been called `n` times.
    ///
    /// The state transition T is linear over GF(2), and p(T) = 0 for its
    /// characteristic polynomial p, so Tⁿ = r(T) with r(x) = xⁿ mod p. r is
    /// applied the way the reference `jump()` applies its constant: step the
    /// state 256 times and XOR together the states at r's set coefficients.
    ///
    /// ```
    /// use tps_core::rng::Rng;
    /// let mut stepped = Rng::new(7);
    /// let mut jumped = stepped.clone();
    /// for _ in 0..1000 {
    ///     stepped.next_u64();
    /// }
    /// jumped.advance(1000);
    /// assert_eq!(stepped.next_u64(), jumped.next_u64());
    /// ```
    pub fn advance(&mut self, n: u64) {
        let r = x_pow_mod(n);
        let mut acc = [0; 4];
        for i in 0..256 {
            if coeff(&r, i) {
                xor_into(&mut acc, self.s);
            }
            self.next_u64();
        }
        self.s = acc;
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Unbiased enough for simulation purposes (bias < 2^-64 * bound).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(3);
        for bound in [1u64, 2, 7, 1000, 1 << 40] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut r = Rng::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(13);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "shuffle of 100 elements should move something");
    }

    fn advanced(seed: u64, n: u64) -> Rng {
        let mut r = Rng::new(seed);
        r.advance(n);
        r
    }

    #[test]
    fn advance_equals_stepping() {
        let mut r = Rng::new(17);
        for n in 0..=600 {
            // `r` has taken n single steps; compare states, not one output.
            assert_eq!(advanced(17, n).s, r.s, "n {n}");
            r.next_u64();
        }
        for n in [12_345, (1 << 20) + 7] {
            let mut r = Rng::new(3);
            for _ in 0..n {
                r.next_u64();
            }
            assert_eq!(advanced(3, n).s, r.s, "n {n}");
        }
    }

    #[test]
    fn advances_compose() {
        for (a, b) in [
            (0, 5),
            (1, 1),
            (255, 257),
            (1 << 40, 12_345),
            (u64::MAX / 3, 99),
        ] {
            let mut r = advanced(0x6500, a);
            r.advance(b);
            assert_eq!(r.s, advanced(0x6500, a + b).s, "a {a} b {b}");
        }
    }

    #[test]
    fn two_to_the_128_is_the_reference_jump() {
        let mut r = [2, 0, 0, 0]; // x
        for _ in 0..128 {
            r = mul_mod(r, r);
        }
        let jump = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        assert_eq!(r, jump);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }
}

//! Montgomery multiplication context.

use crate::error::BigIntError;
use crate::uint::{adc, mac, Uint};

/// Precomputed context for arithmetic modulo a fixed odd modulus `n`, with
/// operands kept in Montgomery form (`x·R mod n`).
///
/// `R = 2^(64·len)` where `len` is the number of *significant* limbs of
/// `n`, not the container width `L`. The multiply loops over `len` limbs
/// only, so a 264-bit modulus carried in a 512-bit `Uint<8>` pays
/// 5-limb arithmetic (25 macs per product row-set instead of 64). When
/// the modulus fills the container the loops degenerate to the classic
/// full-width form.
///
/// [`MontCtx::mul`] is the only Montgomery product: squares and
/// exponentiations go through it too. A dedicated squaring kernel and
/// separated (multiply-then-reduce) kernels for lazy reduction both
/// measured slower than this fused one at the 264- and 512-bit pairing
/// fields.
///
/// # Example
///
/// ```
/// use sp_bigint::{MontCtx, Uint};
///
/// let p = Uint::<4>::from_u64(101);
/// let ctx = MontCtx::new(p)?;
/// let x = ctx.to_mont(&Uint::from_u64(17));
/// let x5 = ctx.pow(&x, &Uint::<4>::from_u64(5));
/// assert_eq!(ctx.from_mont(&x5), Uint::from_u64(17u64.pow(5) % 101));
/// # Ok::<(), sp_bigint::BigIntError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontCtx<const L: usize> {
    n: Uint<L>,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R mod n` — the Montgomery form of `1`.
    one: Uint<L>,
    /// `R² mod n` — used to convert into Montgomery form.
    r2: Uint<L>,
    /// Significant limbs of `n`; `R = 2^(64·len)`.
    len: usize,
}

impl<const L: usize> MontCtx<L> {
    /// Creates a context for the odd modulus `n > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`BigIntError::EvenModulus`] if `n` is even or `n <= 1`.
    pub fn new(n: Uint<L>) -> Result<Self, BigIntError> {
        if !n.is_odd() || n == Uint::ONE {
            return Err(BigIntError::EvenModulus);
        }
        // n' = -n^{-1} mod 2^64 via Newton–Hensel lifting.
        let n0 = n.limbs()[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n_prime = inv.wrapping_neg();
        let len = (n.bit_len() as usize).div_ceil(64);
        // R mod n by 64·len modular doublings of 1 (n > 1, so 1 is
        // reduced), then R² mod n by 64·len more.
        let double_mod = |mut x: Uint<L>, rounds: usize| {
            for _ in 0..rounds {
                let (shifted, carry) = x.shl1();
                x = shifted;
                if carry || x >= n {
                    x = x.wrapping_sub(&n);
                }
            }
            x
        };
        let one = double_mod(Uint::ONE, 64 * len);
        let r2 = double_mod(one, 64 * len);
        Ok(Self { n, n_prime, one, r2, len })
    }

    /// The modulus.
    pub fn modulus(&self) -> &Uint<L> {
        &self.n
    }

    /// The Montgomery form of `1` (`R mod n`).
    pub fn one(&self) -> &Uint<L> {
        &self.one
    }

    /// Converts a canonical residue into Montgomery form.
    ///
    /// # Panics
    ///
    /// Debug-panics if `x >= n`.
    pub fn to_mont(&self, x: &Uint<L>) -> Uint<L> {
        debug_assert!(x < &self.n, "to_mont: operand must be reduced");
        self.mul(x, &self.r2)
    }

    /// Converts a Montgomery-form value back to a canonical residue.
    pub fn from_mont(&self, x: &Uint<L>) -> Uint<L> {
        self.mul(x, &Uint::ONE)
    }

    /// Montgomery multiplication: `a·b·R^{-1} mod n` (CIOS algorithm,
    /// looping over the `len` significant limbs only).
    ///
    /// Each arm calls the `#[inline(always)]` body with a constant `len`,
    /// so constant propagation unrolls the limb loops and elides the
    /// bounds checks per size; the fallback arm covers container widths
    /// beyond 8 limbs.
    pub fn mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        match self.len {
            1 => self.mul_impl(a, b, 1),
            2 => self.mul_impl(a, b, 2),
            3 => self.mul_impl(a, b, 3),
            4 => self.mul_impl(a, b, 4),
            5 => self.mul_impl(a, b, 5),
            6 => self.mul_impl(a, b, 6),
            7 => self.mul_impl(a, b, 7),
            8 => self.mul_impl(a, b, 8),
            len => self.mul_impl(a, b, len),
        }
    }

    #[allow(clippy::needless_range_loop)] // lockstep limb indexing
    #[inline(always)]
    fn mul_impl(&self, a: &Uint<L>, b: &Uint<L>, len: usize) -> Uint<L> {
        let al = a.limbs();
        let bl = b.limbs();
        let nl = self.n.limbs();
        let mut t = [0u64; L];
        let mut t_hi: u64 = 0; // limb `len`
        for i in 0..len {
            // t += a[i] * b
            let mut carry = 0u64;
            for j in 0..len {
                let (lo, c) = mac(t[j], al[i], bl[j], carry);
                t[j] = lo;
                carry = c;
            }
            let (s, overflow) = adc(t_hi, carry, 0);
            t_hi = s;
            // m = t[0] * n' mod 2^64; t = (t + m*n) / 2^64
            let m = t[0].wrapping_mul(self.n_prime);
            let (_, mut carry) = mac(t[0], m, nl[0], 0);
            for j in 1..len {
                let (lo, c) = mac(t[j], m, nl[j], carry);
                t[j - 1] = lo;
                carry = c;
            }
            let (s, c) = adc(t_hi, carry, 0);
            t[len - 1] = s;
            t_hi = overflow + c;
        }
        self.correct(t, t_hi, len)
    }

    /// Final CIOS/REDC correction: the value `carry·R + t` lies in
    /// `[0, 2n)`; subtract `n` once if needed. The borrow out of limb
    /// `len` cancels against `carry`, so the subtraction runs over the
    /// significant limbs only and any final borrow is dropped.
    #[inline(always)]
    fn correct(&self, mut t: [u64; L], carry: u64, len: usize) -> Uint<L> {
        if carry == 1 || Uint::from_limbs(t) >= self.n {
            let nl = self.n.limbs();
            let mut borrow = false;
            for j in 0..len {
                let (d, b1) = t[j].overflowing_sub(nl[j]);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                t[j] = d;
                borrow = b1 || b2;
            }
        }
        Uint::from_limbs(t)
    }

    /// Modular addition of two reduced residues (works in either domain).
    pub fn add(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        let (sum, carry) = a.overflowing_add(b);
        if carry || sum >= self.n {
            sum.wrapping_sub(&self.n)
        } else {
            sum
        }
    }

    /// Modular subtraction of two reduced residues (works in either domain).
    pub fn sub(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        let (diff, borrow) = a.overflowing_sub(b);
        if borrow {
            diff.wrapping_add(&self.n)
        } else {
            diff
        }
    }

    /// Modular negation of a reduced residue (works in either domain).
    pub fn neg(&self, a: &Uint<L>) -> Uint<L> {
        if a.is_zero() {
            Uint::ZERO
        } else {
            self.n.wrapping_sub(a)
        }
    }

    /// Modular exponentiation: `base^exp · R mod n` for `base` in
    /// Montgomery form (square-and-multiply, most-significant bit first).
    pub fn pow<const E: usize>(&self, base: &Uint<L>, exp: &Uint<E>) -> Uint<L> {
        let bits = exp.bit_len();
        if bits == 0 {
            return self.one;
        }
        let mut acc = *base;
        for i in (0..bits - 1).rev() {
            acc = self.mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }

    /// Convenience: `base^exp mod n` entirely in the canonical domain.
    pub fn pow_canonical<const E: usize>(&self, base: &Uint<L>, exp: &Uint<E>) -> Uint<L> {
        let bm = self.to_mont(base);
        self.from_mont(&self.pow(&bm, exp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    type U4 = Uint<4>;

    fn ctx_1e6_3() -> MontCtx<4> {
        MontCtx::new(U4::from_u64(1_000_003)).unwrap()
    }

    #[test]
    fn rejects_even_and_one() {
        assert_eq!(MontCtx::new(U4::from_u64(10)), Err(BigIntError::EvenModulus));
        assert_eq!(MontCtx::new(U4::ONE), Err(BigIntError::EvenModulus));
        assert!(MontCtx::new(U4::from_u64(3)).is_ok());
    }

    #[test]
    fn roundtrip() {
        let ctx = ctx_1e6_3();
        for v in [0u64, 1, 2, 999_999, 1_000_002] {
            let x = U4::from_u64(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
        }
    }

    #[test]
    fn mul_matches_u64() {
        let ctx = ctx_1e6_3();
        let a = 123_456u64;
        let b = 654_321u64;
        let am = ctx.to_mont(&U4::from_u64(a));
        let bm = ctx.to_mont(&U4::from_u64(b));
        assert_eq!(ctx.from_mont(&ctx.mul(&am, &bm)), U4::from_u64(a * b % 1_000_003));
    }

    #[test]
    fn add_sub_neg() {
        let ctx = ctx_1e6_3();
        let a = U4::from_u64(1_000_000);
        let b = U4::from_u64(7);
        assert_eq!(ctx.add(&a, &b), U4::from_u64(4));
        assert_eq!(ctx.sub(&b, &a), U4::from_u64(1_000_003 + 7 - 1_000_000));
        assert_eq!(ctx.neg(&b), U4::from_u64(1_000_003 - 7));
        assert_eq!(ctx.neg(&U4::ZERO), U4::ZERO);
        assert_eq!(ctx.add(&ctx.neg(&a), &a), U4::ZERO);
    }

    #[test]
    fn pow_small() {
        let ctx = ctx_1e6_3();
        let b = ctx.to_mont(&U4::from_u64(2));
        assert_eq!(
            ctx.from_mont(&ctx.pow(&b, &U4::from_u64(20))),
            U4::from_u64((1u64 << 20) % 1_000_003)
        );
        assert_eq!(ctx.from_mont(&ctx.pow(&b, &U4::ZERO)), U4::ONE);
        assert_eq!(ctx.from_mont(&ctx.pow(&b, &U4::ONE)), U4::from_u64(2));
    }

    #[test]
    fn fermat_little_theorem_large_prime() {
        // p = 2^255 - 19 is prime; a^(p-1) = 1 mod p.
        let p = U4::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .unwrap();
        let ctx = MontCtx::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let pm1 = p.wrapping_sub(&U4::ONE);
        for _ in 0..4 {
            let a = U4::random_below(&mut rng, &p);
            if a.is_zero() {
                continue;
            }
            assert_eq!(ctx.pow_canonical(&a, &pm1), U4::ONE);
        }
    }

    #[test]
    fn distributivity_randomized() {
        let p = U4::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
            .unwrap(); // NIST P-256 prime
        let ctx = MontCtx::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let a = ctx.to_mont(&U4::random_below(&mut rng, &p));
            let b = ctx.to_mont(&U4::random_below(&mut rng, &p));
            let c = ctx.to_mont(&U4::random_below(&mut rng, &p));
            let left = ctx.mul(&a, &ctx.add(&b, &c));
            let right = ctx.add(&ctx.mul(&a, &b), &ctx.mul(&a, &c));
            assert_eq!(left, right);
        }
    }

    #[test]
    fn wide_modulus_512() {
        let p = Uint::<8>::from_hex(
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
             fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffdc7",
        )
        .unwrap(); // 2^512 - 569, a known prime
        let ctx = MontCtx::new(p).unwrap();
        let a = Uint::<8>::from_u64(3);
        let pm1 = p.wrapping_sub(&Uint::ONE);
        assert_eq!(ctx.pow_canonical(&a, &pm1), Uint::ONE);
    }

    #[test]
    fn one_is_identity() {
        let ctx = ctx_1e6_3();
        let x = ctx.to_mont(&U4::from_u64(424_242));
        assert_eq!(ctx.mul(&x, ctx.one()), x);
    }

    /// The canonical square `x² mod n` by the independent route: a plain
    /// widening multiply and a bit-serial wide reduction.
    fn widening_square_mod<const L: usize>(x: &Uint<L>, n: &Uint<L>) -> Uint<L> {
        let (lo, hi) = x.widening_mul(x);
        crate::reduce_wide(&hi, &lo, n)
    }

    #[test]
    fn squares_match_wide_reduce_randomized() {
        // Across small, 255-bit, 256-bit, and 512-bit moduli, squaring
        // through the CIOS multiply must agree with the widening route.
        let p255 = U4::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .unwrap();
        let p256 = U4::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for p in [U4::from_u64(1_000_003), p255, p256] {
            let ctx = MontCtx::new(p).unwrap();
            for _ in 0..100 {
                let x = U4::random_below(&mut rng, &p);
                let xm = ctx.to_mont(&x);
                assert_eq!(ctx.from_mont(&ctx.mul(&xm, &xm)), widening_square_mod(&x, &p));
            }
        }
        let p512 = Uint::<8>::from_hex(
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
             fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffdc7",
        )
        .unwrap();
        let ctx = MontCtx::new(p512).unwrap();
        for _ in 0..100 {
            let x = Uint::<8>::random_below(&mut rng, &p512);
            let xm = ctx.to_mont(&x);
            assert_eq!(ctx.from_mont(&ctx.mul(&xm, &xm)), widening_square_mod(&x, &p512));
        }
        // Degenerate operands: 0² = 0 and 1² = 1, in the Montgomery domain.
        assert_eq!(ctx.mul(&Uint::ZERO, &Uint::ZERO), Uint::ZERO);
        assert_eq!(ctx.mul(ctx.one(), ctx.one()), *ctx.one());
        let top = p512.wrapping_sub(&Uint::ONE);
        assert_eq!(ctx.from_mont(&ctx.mul(&ctx.to_mont(&top), &ctx.to_mont(&top))), Uint::ONE);
    }
}

//! The quadratic extension `F_{p²} = F_p[i]/(i² + 1)`.
//!
//! Requires `p ≡ 3 (mod 4)` so that `−1` is a quadratic non-residue and
//! `x² + 1` is irreducible. This is the target field of the Type-A
//! pairing: pairing values live in the order-`p+1` "norm-one" subgroup of
//! `F_{p²}^*`, where inversion is conjugation.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

use rand::Rng;
use sp_bigint::{MontCtx, Uint};

use crate::error::FieldError;
use crate::fp::{FieldCtx, Fp};

/// An element `c0 + c1·i` of `F_{p²}`.
#[derive(Clone, PartialEq, Eq)]
pub struct Fp2<const L: usize> {
    c0: Fp<L>,
    c1: Fp<L>,
}

impl<const L: usize> Fp2<L> {
    /// Builds an element from its two coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::Not3Mod4`] if the base field modulus is not
    /// `3 (mod 4)` (the extension would not be a field).
    pub fn new(c0: Fp<L>, c1: Fp<L>) -> Result<Self, FieldError> {
        if !c0.ctx().is_3mod4() {
            return Err(FieldError::Not3Mod4);
        }
        Ok(Self { c0, c1 })
    }

    /// The zero element.
    pub fn zero(ctx: &Arc<FieldCtx<L>>) -> Self {
        Self { c0: ctx.zero(), c1: ctx.zero() }
    }

    /// The one element.
    pub fn one(ctx: &Arc<FieldCtx<L>>) -> Self {
        Self { c0: ctx.one(), c1: ctx.zero() }
    }

    /// Embeds a base-field element (imaginary part zero).
    pub fn from_fp(c0: Fp<L>) -> Self {
        let c1 = c0.ctx().zero();
        Self { c0, c1 }
    }

    /// Uniformly random element.
    pub fn random<R: Rng + ?Sized>(ctx: &Arc<FieldCtx<L>>, rng: &mut R) -> Self {
        Self { c0: ctx.random(rng), c1: ctx.random(rng) }
    }

    /// The real coefficient.
    pub fn c0(&self) -> &Fp<L> {
        &self.c0
    }

    /// The imaginary coefficient.
    pub fn c1(&self) -> &Fp<L> {
        &self.c1
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Returns `true` for the multiplicative identity.
    pub fn is_one(&self) -> bool {
        self.c0.is_one() && self.c1.is_zero()
    }

    /// Complex conjugate `c0 − c1·i`. This is also the `p`-power Frobenius
    /// endomorphism, since `i^p = −i` when `p ≡ 3 (mod 4)`.
    pub fn conjugate(&self) -> Self {
        Self { c0: self.c0.clone(), c1: -&self.c1 }
    }

    /// Squares the element: `(c0+c1)(c0−c1) + (2·c0·c1)·i`
    /// ([`fp2_square_raw`]).
    pub fn square(&self) -> Self {
        let ctx = self.c0.ctx();
        Self::from_raw(ctx, fp2_square_raw(ctx.mont(), &self.raw()))
    }

    /// Field norm `c0² + c1² ∈ F_p` (the product with the conjugate).
    pub fn norm(&self) -> Fp<L> {
        &self.c0.square() + &self.c1.square()
    }

    /// Exponentiation specialized to the norm-one subgroup: squarings
    /// driven by a signed-digit (non-adjacent form) walk of the exponent,
    /// using conjugation as the cost-free inversion the NAF digits `−1`
    /// need. Callers must ensure `norm(self) = 1`.
    ///
    /// The squarings are the generic [`Fp2::square`]: the norm-one
    /// formula `(2·c0² − 1) + ((c0+c1)² − 1)·i` also costs two products,
    /// and measured slower than the raw-coefficient complex squaring.
    pub fn pow_norm1<const E: usize>(&self, exp: &Uint<E>) -> Self {
        let ctx = self.c0.ctx();
        if exp.is_zero() {
            return Self::one(ctx);
        }
        let digits = naf(exp);
        let inv = self.conjugate();
        let mut acc = Self::one(ctx);
        let mut started = false;
        for &d in digits.iter().rev() {
            if started {
                acc = acc.square();
            }
            match d {
                1 => {
                    acc = if started { &acc * self } else { self.clone() };
                    started = true;
                }
                -1 => {
                    acc = if started { &acc * &inv } else { inv.clone() };
                    started = true;
                }
                _ => {}
            }
        }
        acc
    }

    /// Multiplicative inverse: `conj(z) / norm(z)`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] for zero.
    pub fn invert(&self) -> Result<Self, FieldError> {
        let norm_inv = self.norm().invert()?;
        Ok(Self { c0: &self.c0 * &norm_inv, c1: &(-&self.c1) * &norm_inv })
    }

    /// Raises to the power `exp` (square-and-multiply).
    pub fn pow<const E: usize>(&self, exp: &Uint<E>) -> Self {
        let ctx = self.c0.ctx();
        let bits = exp.bit_len();
        if bits == 0 {
            return Self::one(ctx);
        }
        let mut acc = self.clone();
        for i in (0..bits - 1).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc = &acc * self;
            }
        }
        acc
    }

    /// Multiplies by a base-field scalar.
    pub fn mul_by_fp(&self, s: &Fp<L>) -> Self {
        Self { c0: &self.c0 * s, c1: &self.c1 * s }
    }

    /// The raw Montgomery-form coefficients `[c0, c1]`.
    fn raw(&self) -> [Uint<L>; 2] {
        [*self.c0.mont_repr(), *self.c1.mont_repr()]
    }

    /// Rebuilds an element from raw Montgomery-form coefficients.
    fn from_raw(ctx: &Arc<FieldCtx<L>>, [c0, c1]: [Uint<L>; 2]) -> Self {
        Self { c0: Fp::from_mont_repr(ctx, c0), c1: Fp::from_mont_repr(ctx, c1) }
    }

    /// Fixed-length big-endian encoding: `c0 ‖ c1`, `16·L` bytes.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = self.c0.to_be_bytes();
        out.extend_from_slice(&self.c1.to_be_bytes());
        out
    }

    /// Decodes an element produced by [`Fp2::to_be_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::BadEncoding`] if the length is wrong.
    pub fn from_be_bytes(ctx: &Arc<FieldCtx<L>>, bytes: &[u8]) -> Result<Self, FieldError> {
        if bytes.len() != 16 * L {
            return Err(FieldError::BadEncoding);
        }
        let c0 = ctx.from_be_bytes(&bytes[..8 * L])?;
        let c1 = ctx.from_be_bytes(&bytes[8 * L..])?;
        Ok(Self { c0, c1 })
    }
}

impl<const L: usize> fmt::Debug for Fp2<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp2({} + {}·i)", self.c0, self.c1)
    }
}

impl<const L: usize> fmt::Display for Fp2<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {}·i", self.c0, self.c1)
    }
}

impl<const L: usize> Add<&Fp2<L>> for &Fp2<L> {
    type Output = Fp2<L>;
    fn add(self, rhs: &Fp2<L>) -> Fp2<L> {
        Fp2 { c0: &self.c0 + &rhs.c0, c1: &self.c1 + &rhs.c1 }
    }
}

impl<const L: usize> Sub<&Fp2<L>> for &Fp2<L> {
    type Output = Fp2<L>;
    fn sub(self, rhs: &Fp2<L>) -> Fp2<L> {
        Fp2 { c0: &self.c0 - &rhs.c0, c1: &self.c1 - &rhs.c1 }
    }
}

impl<const L: usize> Mul<&Fp2<L>> for &Fp2<L> {
    type Output = Fp2<L>;
    fn mul(self, rhs: &Fp2<L>) -> Fp2<L> {
        let ctx = self.c0.ctx();
        Fp2::from_raw(ctx, fp2_mul_raw(ctx.mont(), &self.raw(), &rhs.raw()))
    }
}

/// Karatsuba `F_{p²}` multiply on raw Montgomery-form coefficients
/// `[c0, c1]`: `(a0 + a1·i)(b0 + b1·i) = (a0·b0 − a1·b1) +
/// ((a0+a1)(b0+b1) − a0·b0 − a1·b1)·i`, three products through the fused
/// [`MontCtx::mul`]. The `Mul` operator and the pairing's Miller loop,
/// which works on bare coefficients, both run on it.
pub fn fp2_mul_raw<const L: usize>(
    m: &MontCtx<L>,
    a: &[Uint<L>; 2],
    b: &[Uint<L>; 2],
) -> [Uint<L>; 2] {
    let v0 = m.mul(&a[0], &b[0]);
    let v1 = m.mul(&a[1], &b[1]);
    let s = m.mul(&m.add(&a[0], &a[1]), &m.add(&b[0], &b[1]));
    [m.sub(&v0, &v1), m.sub(&m.sub(&s, &v0), &v1)]
}

/// Complex squaring on raw Montgomery-form coefficients:
/// `(a0 + a1·i)² = (a0+a1)(a0−a1) + (2·a0·a1)·i`, two products through
/// the fused [`MontCtx::mul`]. [`Fp2::square`] and the Miller loop both
/// run on it.
pub fn fp2_square_raw<const L: usize>(m: &MontCtx<L>, a: &[Uint<L>; 2]) -> [Uint<L>; 2] {
    let t = m.mul(&a[0], &a[1]);
    [m.mul(&m.add(&a[0], &a[1]), &m.sub(&a[0], &a[1])), m.add(&t, &t)]
}

/// Non-adjacent form of `exp`: little-endian digits in `{−1, 0, 1}` with
/// no two adjacent nonzeros, so a signed-digit exponentiation pays
/// roughly `bits/3` multiplies instead of `bits/2`.
fn naf<const E: usize>(exp: &Uint<E>) -> Vec<i8> {
    let mut v = *exp;
    // `overflow` models a conceptual bit at 2^BITS (reachable only when
    // a −1 digit increments a value at the very top of the range).
    let mut overflow = false;
    let mut digits = Vec::with_capacity(Uint::<E>::BITS as usize + 1);
    while !v.is_zero() || overflow {
        if v.is_odd() {
            if v.low_u64() & 3 == 1 {
                digits.push(1);
                v = v.wrapping_sub(&Uint::ONE);
            } else {
                digits.push(-1);
                let (nv, carry) = v.overflowing_add(&Uint::ONE);
                v = nv;
                overflow = overflow || carry;
            }
        } else {
            digits.push(0);
        }
        v = v.shr1();
        if overflow {
            v = v.wrapping_add(&Uint::ONE.shl(Uint::<E>::BITS - 1));
            overflow = false;
        }
    }
    digits
}

impl<const L: usize> Add for Fp2<L> {
    type Output = Fp2<L>;
    fn add(self, rhs: Fp2<L>) -> Fp2<L> {
        &self + &rhs
    }
}

impl<const L: usize> Sub for Fp2<L> {
    type Output = Fp2<L>;
    fn sub(self, rhs: Fp2<L>) -> Fp2<L> {
        &self - &rhs
    }
}

impl<const L: usize> Mul for Fp2<L> {
    type Output = Fp2<L>;
    fn mul(self, rhs: Fp2<L>) -> Fp2<L> {
        &self * &rhs
    }
}

impl<const L: usize> Neg for &Fp2<L> {
    type Output = Fp2<L>;
    fn neg(self) -> Fp2<L> {
        Fp2 { c0: -&self.c0, c1: -&self.c1 }
    }
}

impl<const L: usize> Neg for Fp2<L> {
    type Output = Fp2<L>;
    fn neg(self) -> Fp2<L> {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn f103() -> Arc<FieldCtx<4>> {
        FieldCtx::new(Uint::from_u64(103)).unwrap()
    }

    fn el(ctx: &Arc<FieldCtx<4>>, a: u64, b: u64) -> Fp2<4> {
        Fp2::new(ctx.from_u64(a), ctx.from_u64(b)).unwrap()
    }

    #[test]
    fn requires_3mod4() {
        let f13 = FieldCtx::<4>::new(Uint::from_u64(13)).unwrap();
        assert_eq!(Fp2::new(f13.from_u64(1), f13.from_u64(2)).unwrap_err(), FieldError::Not3Mod4);
    }

    #[test]
    fn i_squared_is_minus_one() {
        let f = f103();
        let i = el(&f, 0, 1);
        let minus_one = Fp2::from_fp(-&f.one());
        assert_eq!(&i * &i, minus_one);
        assert_eq!(i.square(), &i * &i);
    }

    /// The oracle for the Karatsuba multiply and the complex squaring:
    /// the 4-product schoolbook form `(a0·b0 − a1·b1) + (a0·b1 + a1·b0)·i`
    /// built from `Fp` operations, sharing no formula with either.
    fn schoolbook(a: &Fp2<4>, b: &Fp2<4>) -> Fp2<4> {
        let c0 = &(a.c0() * b.c0()) - &(a.c1() * b.c1());
        let c1 = &(a.c0() * b.c1()) + &(a.c1() * b.c0());
        Fp2::new(c0, c1).unwrap()
    }

    #[test]
    fn mul_matches_schoolbook() {
        let f = f103();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let a = Fp2::random(&f, &mut rng);
            let b = Fp2::random(&f, &mut rng);
            assert_eq!(&a * &b, schoolbook(&a, &b));
            assert_eq!(a.square(), &a * &a);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let f = f103();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..30 {
            let a = Fp2::random(&f, &mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = a.invert().unwrap();
            assert!((&a * &inv).is_one());
        }
        assert_eq!(Fp2::zero(&f).invert(), Err(FieldError::DivisionByZero));
    }

    #[test]
    fn conjugate_properties() {
        let f = f103();
        let a = el(&f, 5, 7);
        let c = a.conjugate();
        assert_eq!(c.c0(), a.c0());
        assert_eq!(c.c1(), &-a.c1());
        // z * conj(z) = norm(z) (real)
        let prod = &a * &c;
        assert!(prod.c1().is_zero());
        assert_eq!(prod.c0(), &a.norm());
        // Frobenius: conj(z) == z^p for p = 103.
        assert_eq!(c, a.pow(&Uint::<4>::from_u64(103)));
    }

    #[test]
    fn pow_and_order() {
        let f = f103();
        let mut rng = StdRng::seed_from_u64(14);
        // |Fp2*| = p² − 1
        let order = Uint::<4>::from_u64(103 * 103 - 1);
        for _ in 0..10 {
            let a = Fp2::random(&f, &mut rng);
            if a.is_zero() {
                continue;
            }
            assert!(a.pow(&order).is_one());
        }
        let a = el(&f, 2, 3);
        assert!(a.pow(&Uint::<4>::ZERO).is_one());
        assert_eq!(a.pow(&Uint::<4>::ONE), a);
        assert_eq!(a.pow(&Uint::<4>::from_u64(5)), {
            let a2 = a.square();
            let a4 = a2.square();
            &a4 * &a
        });
    }

    #[test]
    fn norm_is_multiplicative() {
        let f = f103();
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..20 {
            let a = Fp2::random(&f, &mut rng);
            let b = Fp2::random(&f, &mut rng);
            assert_eq!((&a * &b).norm(), &a.norm() * &b.norm());
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let f = f103();
        let a = el(&f, 42, 99);
        let bytes = a.to_be_bytes();
        assert_eq!(bytes.len(), 64);
        assert_eq!(Fp2::from_be_bytes(&f, &bytes).unwrap(), a);
        assert!(Fp2::from_be_bytes(&f, &bytes[1..]).is_err());
    }

    #[test]
    fn ring_axioms() {
        let f = f103();
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..20 {
            let a = Fp2::random(&f, &mut rng);
            let b = Fp2::random(&f, &mut rng);
            let c = Fp2::random(&f, &mut rng);
            assert_eq!(&(&a + &b) * &c, &(&a * &c) + &(&b * &c));
            assert_eq!(&a * &b, &b * &a);
            assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
            assert_eq!(&a - &a, Fp2::zero(&f));
            assert_eq!(-(-&a), a);
        }
    }

    #[test]
    fn mul_by_fp_matches_embedding() {
        let f = f103();
        let a = el(&f, 4, 9);
        let s = f.from_u64(6);
        assert_eq!(a.mul_by_fp(&s), &a * &Fp2::from_fp(s));
    }

    /// secp256k1's base field: a full-width 256-bit prime ≡ 3 (mod 4), so
    /// the multiply's final correction runs with no spare top bits.
    fn f256() -> Arc<FieldCtx<4>> {
        let p = Uint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap();
        FieldCtx::new(p).unwrap()
    }

    #[test]
    fn karatsuba_mul_matches_schoolbook() {
        for (seed, f) in [(31u64, f103()), (32, f256())] {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                let a = Fp2::random(&f, &mut rng);
                let b = Fp2::random(&f, &mut rng);
                assert_eq!(&a * &b, schoolbook(&a, &b));
            }
            // Degenerate coefficients.
            let zero = Fp2::zero(&f);
            let one = Fp2::one(&f);
            let a = Fp2::random(&f, &mut rng);
            assert_eq!(&a * &zero, schoolbook(&a, &zero));
            assert_eq!(&a * &one, schoolbook(&a, &one));
            // Maximal coefficients p−1 + (p−1)i.
            let top = Fp2::new(-&f.one(), -&f.one()).unwrap();
            assert_eq!(&top * &top, schoolbook(&top, &top));
            assert_eq!(&a * &top, schoolbook(&a, &top));
        }
    }

    /// A uniformish norm-1 element: `conj(z)/z` for random nonzero `z`.
    fn norm1(f: &Arc<FieldCtx<4>>, rng: &mut StdRng) -> Fp2<4> {
        loop {
            let z = Fp2::random(f, rng);
            if z.is_zero() {
                continue;
            }
            let u = &z.conjugate() * &z.invert().unwrap();
            assert!(u.norm().is_one());
            return u;
        }
    }

    #[test]
    fn pow_norm1_matches_generic_pow() {
        for (seed, f) in [(43u64, f103()), (44, f256())] {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                let u = norm1(&f, &mut rng);
                let e = Uint::<4>::random(&mut rng);
                assert_eq!(u.pow_norm1(&e), u.pow(&e));
                let small = Uint::<4>::from_u64(rng.gen::<u64>() % 100);
                assert_eq!(u.pow_norm1(&small), u.pow(&small));
            }
            let u = norm1(&f, &mut rng);
            assert!(u.pow_norm1(&Uint::<4>::ZERO).is_one());
            assert_eq!(u.pow_norm1(&Uint::<4>::ONE), u);
            // The overflow guard: an exponent at the very top of the range.
            assert_eq!(u.pow_norm1(&Uint::<4>::MAX), u.pow(&Uint::<4>::MAX));
        }
    }

    #[test]
    fn complex_square_matches_schoolbook() {
        for (seed, f) in [(33u64, f103()), (34, f256())] {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                let a = Fp2::random(&f, &mut rng);
                assert_eq!(a.square(), schoolbook(&a, &a));
                assert_eq!(a.square(), &a * &a);
            }
            let top = Fp2::new(-&f.one(), -&f.one()).unwrap();
            for edge in [top, Fp2::zero(&f), Fp2::one(&f)] {
                assert_eq!(edge.square(), schoolbook(&edge, &edge));
            }
        }
    }
}

//! The prime field `F_p`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::Arc;

use rand::Rng;
use sp_bigint::{modops, MontCtx, Uint};

use crate::error::FieldError;

/// Shared context for a prime field `F_p`.
///
/// Construct once with [`FieldCtx::new`] and mint elements from it; the
/// returned [`Arc`] is cloned into every element, so elements can be moved
/// around freely and combined with plain operators.
#[derive(Debug)]
pub struct FieldCtx<const L: usize> {
    mont: MontCtx<L>,
    is_3mod4: bool,
}

impl<const L: usize> FieldCtx<L> {
    /// Creates a field context for the odd modulus `p > 1`.
    ///
    /// Primality is the caller's responsibility (the pairing and ABE layers
    /// always pass generated primes); compositeness only costs the loss of
    /// inverses for non-units.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::BadModulus`] if `p` is even or `p <= 1`.
    pub fn new(p: Uint<L>) -> Result<Arc<Self>, FieldError> {
        let mont = MontCtx::new(p)?;
        let is_3mod4 = p.low_u64() & 3 == 3;
        Ok(Arc::new(Self { mont, is_3mod4 }))
    }

    /// The field modulus.
    pub fn modulus(&self) -> &Uint<L> {
        self.mont.modulus()
    }

    /// Whether `p ≡ 3 (mod 4)` (required for [`crate::Fp2`] and fast
    /// square roots).
    pub fn is_3mod4(&self) -> bool {
        self.is_3mod4
    }

    /// The additive identity.
    pub fn zero(self: &Arc<Self>) -> Fp<L> {
        Fp { ctx: Arc::clone(self), repr: Uint::ZERO }
    }

    /// The multiplicative identity.
    pub fn one(self: &Arc<Self>) -> Fp<L> {
        Fp { ctx: Arc::clone(self), repr: *self.mont.one() }
    }

    /// Creates an element from a canonical integer, reducing mod `p`.
    pub fn element(self: &Arc<Self>, v: Uint<L>) -> Fp<L> {
        let reduced =
            if v < *self.modulus() { v } else { sp_bigint::div_rem(&v, self.modulus()).1 };
        Fp { ctx: Arc::clone(self), repr: self.mont.to_mont(&reduced) }
    }

    /// Creates an element from a `u64`.
    pub fn from_u64(self: &Arc<Self>, v: u64) -> Fp<L> {
        self.element(Uint::from_u64(v))
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(self: &Arc<Self>, rng: &mut R) -> Fp<L> {
        self.element(Uint::random_below(rng, self.modulus()))
    }

    /// Uniformly random nonzero field element.
    pub fn random_nonzero<R: Rng + ?Sized>(self: &Arc<Self>, rng: &mut R) -> Fp<L> {
        loop {
            let e = self.random(rng);
            if !e.is_zero() {
                return e;
            }
        }
    }

    /// Creates an element from big-endian bytes (value reduced mod `p`).
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::BadEncoding`] if the bytes encode a value too
    /// wide for `Uint<L>`.
    pub fn from_be_bytes(self: &Arc<Self>, bytes: &[u8]) -> Result<Fp<L>, FieldError> {
        let v = Uint::from_be_bytes(bytes)?;
        Ok(self.element(v))
    }

    /// The underlying Montgomery context, for raw-representation hot
    /// paths (e.g. the Miller loop) that carry `Uint` Montgomery values
    /// directly instead of paying an `Arc` clone per `Fp` temporary.
    /// Combine with [`Fp::mont_repr`] / [`Fp::from_mont_repr`] at the
    /// boundary.
    pub fn mont(&self) -> &MontCtx<L> {
        &self.mont
    }
}

/// An element of `F_p`, stored in Montgomery form.
///
/// Elements hold an `Arc` to their [`FieldCtx`]; mixing elements from
/// different contexts is a logic error and debug-panics.
#[derive(Clone)]
pub struct Fp<const L: usize> {
    ctx: Arc<FieldCtx<L>>,
    repr: Uint<L>,
}

impl<const L: usize> Fp<L> {
    /// The field context this element belongs to.
    pub fn ctx(&self) -> &Arc<FieldCtx<L>> {
        &self.ctx
    }

    /// Canonical (non-Montgomery) integer value in `[0, p)`.
    pub fn to_uint(&self) -> Uint<L> {
        self.ctx.mont.from_mont(&self.repr)
    }

    /// Big-endian canonical encoding, `8·L` bytes.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        self.to_uint().to_be_bytes()
    }

    /// Appends the big-endian canonical encoding (`8·L` bytes) to `out`
    /// without an intermediate allocation.
    pub fn write_be_bytes(&self, out: &mut Vec<u8>) {
        self.to_uint().write_be_bytes(out);
    }

    /// Returns `true` if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.repr.is_zero()
    }

    /// Returns `true` if this is the multiplicative identity.
    pub fn is_one(&self) -> bool {
        self.repr == *self.ctx.mont.one()
    }

    /// Doubles the element.
    pub fn double(&self) -> Self {
        self.with(self.ctx.mont.add(&self.repr, &self.repr))
    }

    /// Squares the element.
    pub fn square(&self) -> Self {
        self.with(self.ctx.mont.mul(&self.repr, &self.repr))
    }

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] for zero (and, for composite
    /// moduli, for non-units).
    pub fn invert(&self) -> Result<Self, FieldError> {
        let canonical = self.to_uint();
        let inv =
            modops::mod_inv(&canonical, self.ctx.modulus()).ok_or(FieldError::DivisionByZero)?;
        Ok(self.with(self.ctx.mont.to_mont(&inv)))
    }

    /// Raises to the power `exp`.
    pub fn pow<const E: usize>(&self, exp: &Uint<E>) -> Self {
        self.with(self.ctx.mont.pow(&self.repr, exp))
    }

    /// Square root for fields with `p ≡ 3 (mod 4)`; `None` if the element
    /// is a non-residue.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is not `3 (mod 4)`.
    pub fn sqrt(&self) -> Option<Self> {
        assert!(self.ctx.is_3mod4, "sqrt requires p ≡ 3 mod 4");
        let canonical = self.to_uint();
        modops::sqrt_3mod4(self.ctx.mont(), &canonical)
            .map(|root| self.with(self.ctx.mont.to_mont(&root)))
    }

    /// Legendre symbol: `1` for nonzero residues, `-1` for non-residues,
    /// `0` for zero.
    pub fn legendre(&self) -> i32 {
        modops::jacobi(&self.to_uint(), self.ctx.modulus())
    }

    /// Raw Montgomery representation (for serialization by sibling crates).
    pub fn mont_repr(&self) -> &Uint<L> {
        &self.repr
    }

    /// Rebuilds an element from a Montgomery representation produced by
    /// [`Fp::mont_repr`] under the same context.
    pub fn from_mont_repr(ctx: &Arc<FieldCtx<L>>, repr: Uint<L>) -> Self {
        Fp { ctx: Arc::clone(ctx), repr }
    }

    fn with(&self, repr: Uint<L>) -> Self {
        Fp { ctx: Arc::clone(&self.ctx), repr }
    }

    fn check_ctx(&self, other: &Self) {
        debug_assert_eq!(
            self.ctx.modulus(),
            other.ctx.modulus(),
            "field elements from different contexts"
        );
    }
}

impl<const L: usize> PartialEq for Fp<L> {
    fn eq(&self, other: &Self) -> bool {
        self.ctx.modulus() == other.ctx.modulus() && self.repr == other.repr
    }
}

impl<const L: usize> Eq for Fp<L> {}

impl<const L: usize> fmt::Debug for Fp<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp(0x{})", self.to_uint().to_hex())
    }
}

impl<const L: usize> fmt::Display for Fp<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_uint().to_hex())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $inner:expr) => {
        impl<'a, 'b, const L: usize> $trait<&'b Fp<L>> for &'a Fp<L> {
            type Output = Fp<L>;
            fn $method(self, rhs: &'b Fp<L>) -> Fp<L> {
                self.check_ctx(rhs);
                #[allow(clippy::redundant_closure_call)]
                let repr = ($inner)(&self.ctx.mont, &self.repr, &rhs.repr);
                self.with(repr)
            }
        }
        impl<const L: usize> $trait<Fp<L>> for Fp<L> {
            type Output = Fp<L>;
            fn $method(self, rhs: Fp<L>) -> Fp<L> {
                (&self).$method(&rhs)
            }
        }
        impl<'a, const L: usize> $trait<&'a Fp<L>> for Fp<L> {
            type Output = Fp<L>;
            fn $method(self, rhs: &'a Fp<L>) -> Fp<L> {
                (&self).$method(rhs)
            }
        }
        impl<'a, const L: usize> $trait<Fp<L>> for &'a Fp<L> {
            type Output = Fp<L>;
            fn $method(self, rhs: Fp<L>) -> Fp<L> {
                self.$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, |m: &MontCtx<L>, a, b| m.add(a, b));
impl_binop!(Sub, sub, |m: &MontCtx<L>, a, b| m.sub(a, b));
impl_binop!(Mul, mul, |m: &MontCtx<L>, a, b| m.mul(a, b));

impl<const L: usize> AddAssign<&Fp<L>> for Fp<L> {
    fn add_assign(&mut self, rhs: &Fp<L>) {
        self.check_ctx(rhs);
        self.repr = self.ctx.mont.add(&self.repr, &rhs.repr);
    }
}

impl<const L: usize> SubAssign<&Fp<L>> for Fp<L> {
    fn sub_assign(&mut self, rhs: &Fp<L>) {
        self.check_ctx(rhs);
        self.repr = self.ctx.mont.sub(&self.repr, &rhs.repr);
    }
}

impl<const L: usize> MulAssign<&Fp<L>> for Fp<L> {
    fn mul_assign(&mut self, rhs: &Fp<L>) {
        self.check_ctx(rhs);
        self.repr = self.ctx.mont.mul(&self.repr, &rhs.repr);
    }
}

impl<const L: usize> Neg for &Fp<L> {
    type Output = Fp<L>;
    fn neg(self) -> Fp<L> {
        self.with(self.ctx.mont.neg(&self.repr))
    }
}

impl<const L: usize> Neg for Fp<L> {
    type Output = Fp<L>;
    fn neg(self) -> Fp<L> {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn f101() -> Arc<FieldCtx<4>> {
        FieldCtx::new(Uint::from_u64(103)).unwrap() // 103 ≡ 3 mod 4
    }

    #[test]
    fn identities() {
        let f = f101();
        let a = f.from_u64(42);
        assert_eq!(&a + &f.zero(), a);
        assert_eq!(&a * &f.one(), a);
        assert!(f.zero().is_zero());
        assert!(f.one().is_one());
        assert!(!a.is_zero() && !a.is_one());
    }

    #[test]
    fn arithmetic_small() {
        let f = f101();
        let a = f.from_u64(50);
        let b = f.from_u64(60);
        assert_eq!(&a + &b, f.from_u64(7)); // 110 mod 103
        assert_eq!(&a - &b, f.from_u64(93)); // -10 mod 103
        assert_eq!(&a * &b, f.from_u64(50 * 60 % 103));
        assert_eq!(-&a, f.from_u64(53));
        assert_eq!(a.double(), f.from_u64(100));
        assert_eq!(a.square(), f.from_u64(50 * 50 % 103));
    }

    #[test]
    fn assign_ops() {
        let f = f101();
        let mut a = f.from_u64(10);
        a += &f.from_u64(5);
        assert_eq!(a, f.from_u64(15));
        a -= &f.from_u64(20);
        assert_eq!(a, f.from_u64(103 - 5));
        a *= &f.from_u64(2);
        assert_eq!(a, f.from_u64(196 % 103));
    }

    #[test]
    fn inversion() {
        let f = f101();
        for v in 1..103u64 {
            let a = f.from_u64(v);
            let inv = a.invert().unwrap();
            assert!((&a * &inv).is_one(), "v = {v}");
        }
        assert_eq!(f.zero().invert(), Err(FieldError::DivisionByZero));
    }

    #[test]
    fn element_reduces_large_input() {
        let f = f101();
        assert_eq!(f.element(Uint::from_u64(103 * 7 + 11)), f.from_u64(11));
        let huge = Uint::<4>::MAX;
        let reduced = f.element(huge);
        assert!(reduced.to_uint() < Uint::from_u64(103));
    }

    #[test]
    fn sqrt_3mod4() {
        let f = f101();
        let mut residues = 0;
        for v in 1..103u64 {
            let a = f.from_u64(v);
            match a.sqrt() {
                Some(r) => {
                    assert_eq!(r.square(), a);
                    assert_eq!(a.legendre(), 1);
                    residues += 1;
                }
                None => assert_eq!(a.legendre(), -1),
            }
        }
        assert_eq!(residues, 51); // (p-1)/2 residues
        assert!(f.zero().sqrt().unwrap().is_zero());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = f101();
        let a = f.from_u64(5);
        let mut acc = f.one();
        for e in 0..20u64 {
            assert_eq!(a.pow(&Uint::<4>::from_u64(e)), acc, "e = {e}");
            acc = &acc * &a;
        }
    }

    #[test]
    fn random_is_reduced() {
        let f = f101();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let a = f.random(&mut rng);
            assert!(a.to_uint() < Uint::from_u64(103));
        }
        assert!(!f.random_nonzero(&mut rng).is_zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let f = FieldCtx::<4>::new(
            Uint::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
                .unwrap(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let a = f.random(&mut rng);
        let b = f.from_be_bytes(&a.to_be_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mont_repr_roundtrip() {
        let f = f101();
        let a = f.from_u64(77);
        let b = Fp::from_mont_repr(&f, *a.mont_repr());
        assert_eq!(a, b);
    }

    #[test]
    fn field_axioms_randomized() {
        let f = FieldCtx::<4>::new(
            Uint::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
                .unwrap(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let a = f.random(&mut rng);
            let b = f.random(&mut rng);
            let c = f.random(&mut rng);
            assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
            assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
            assert_eq!(&a + &b, &b + &a);
            assert_eq!(&a * &b, &b * &a);
            assert_eq!(&a - &a, f.zero());
        }
    }

    #[test]
    fn rejects_bad_modulus() {
        assert!(FieldCtx::<4>::new(Uint::from_u64(0)).is_err());
        assert!(FieldCtx::<4>::new(Uint::from_u64(1)).is_err());
        assert!(FieldCtx::<4>::new(Uint::from_u64(4)).is_err());
    }

    #[test]
    fn display_and_debug() {
        let f = f101();
        let a = f.from_u64(255); // 255 mod 103 = 49 = 0x31
        assert_eq!(format!("{a}"), "0x31");
        assert_eq!(format!("{a:?}"), "Fp(0x31)");
    }
}

//! The target group `Gt ⊂ F_{q²}^*`.

use std::fmt;
use std::sync::Arc;

use sp_bigint::Uint;
use sp_field::{FieldCtx, Fp2};

use crate::error::PairingError;

/// An element of the order-`r` target group, written multiplicatively.
///
/// Values are produced by [`crate::Pairing::pair`] (and powers/products of
/// its results). After the final exponentiation every element lies in the
/// norm-1 subgroup of `F_{q²}^*`, so inversion is just conjugation.
#[derive(Clone, PartialEq, Eq)]
pub struct Gt {
    value: Fp2<8>,
}

impl Gt {
    pub(crate) fn from_fp2(value: Fp2<8>) -> Self {
        Self { value }
    }

    /// The group identity.
    pub fn one(fq: &Arc<FieldCtx<8>>) -> Self {
        Self { value: Fp2::one(fq) }
    }

    /// Returns `true` for the identity.
    pub fn is_one(&self) -> bool {
        self.value.is_one()
    }

    /// Group operation.
    pub fn mul(&self, other: &Self) -> Self {
        Self { value: &self.value * &other.value }
    }

    /// Exponentiation by a canonical integer.
    ///
    /// Pairing outputs live in the norm-1 subgroup of `F_{q²}^*`, where
    /// the signed-digit (NAF) chain gets inversions for free by
    /// conjugation; that fast path is taken whenever the element's norm
    /// checks out. Elements
    /// decoded from untrusted bytes ([`Gt::from_bytes`] does not enforce
    /// subgroup membership) fall back to the generic square-and-multiply
    /// chain.
    pub fn pow<const E: usize>(&self, exp: &Uint<E>) -> Self {
        if self.value.norm().is_one() {
            crate::stats::record_cyclotomic_pow();
            Self { value: self.value.pow_norm1(exp) }
        } else {
            crate::stats::record_generic_pow();
            Self { value: self.value.pow(exp) }
        }
    }

    /// Exponentiation through the generic square-and-multiply chain,
    /// regardless of subgroup membership — the differential-test twin of
    /// the cyclotomic fast path in [`Gt::pow`].
    pub fn pow_reference<const E: usize>(&self, exp: &Uint<E>) -> Self {
        Self { value: self.value.pow(exp) }
    }

    /// Exponentiation by a scalar (element of `Z_r`).
    pub fn pow_scalar(&self, s: &crate::params::Scalar) -> Self {
        self.pow(&s.to_uint())
    }

    /// Group inverse (conjugation — elements have norm 1).
    pub fn inverse(&self) -> Self {
        Self { value: self.value.conjugate() }
    }

    /// Division: `self · other^{-1}`.
    pub fn div(&self, other: &Self) -> Self {
        self.mul(&other.inverse())
    }

    /// The underlying `F_{q²}` value (read-only).
    pub fn as_fp2(&self) -> &Fp2<8> {
        &self.value
    }

    /// Fixed-length encoding (`c0 ‖ c1`, 128 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.value.to_be_bytes()
    }

    /// Decodes an element produced by [`Gt::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::BadGtEncoding`] for malformed encodings.
    /// Subgroup membership is *not* checked (128-byte encodings of
    /// arbitrary `F_{q²}` values decode successfully); callers that accept
    /// untrusted elements should treat them as blinding factors only.
    pub fn from_bytes(fq: &Arc<FieldCtx<8>>, bytes: &[u8]) -> Result<Self, PairingError> {
        let value = Fp2::from_be_bytes(fq, bytes).map_err(|_| PairingError::BadGtEncoding)?;
        Ok(Self { value })
    }
}

impl fmt::Debug for Gt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gt({})", self.value)
    }
}

impl fmt::Display for Gt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pairing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cyclotomic_pow_matches_reference_on_pairing_outputs() {
        let p = Pairing::insecure_test_params();
        let mut rng = StdRng::seed_from_u64(62);
        let before = crate::stats::snapshot();
        for _ in 0..4 {
            let e = p.random_gt(&mut rng);
            assert!(e.as_fp2().norm().is_one(), "pairing outputs are norm-1");
            let s = p.random_scalar(&mut rng).to_uint();
            assert_eq!(e.pow(&s), e.pow_reference(&s));
        }
        let after = crate::stats::snapshot();
        assert!(after.cyclotomic_pow > before.cyclotomic_pow, "fast path was exercised");
    }

    #[test]
    fn generic_fallback_for_non_subgroup_elements() {
        let p = Pairing::insecure_test_params();
        // A raw field element with norm ≠ 1 (decoded bytes are unchecked).
        let mut bytes = vec![0u8; 128];
        bytes[63] = 2; // c0 = 2, c1 = 0 → norm 4
        let e = Gt::from_bytes(p.fq(), &bytes).unwrap();
        assert!(!e.as_fp2().norm().is_one());
        let before = crate::stats::snapshot();
        let s = sp_bigint::Uint::<4>::from_u64(12345);
        assert_eq!(e.pow(&s), e.pow_reference(&s));
        let after = crate::stats::snapshot();
        assert!(after.generic_pow > before.generic_pow, "fallback path was taken");
    }
}

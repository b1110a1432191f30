//! Pairing parameters and the top-level [`Pairing`] API.

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_bigint::prime::{generate_type_a, TypeAPrimes};
use sp_bigint::Uint;
use sp_crypto::sha256::sha256_concat;
use sp_field::{FieldCtx, Fp, Fp2};

use crate::cache::LineCache;
use crate::curve::{FixedBaseTable, G1};
use crate::error::PairingError;
use crate::gt::Gt;
use crate::miller::{
    final_exponentiation, final_exponentiation_reference, miller_loop, miller_loop_precomputed,
    miller_loop_product, tate_pairing, tate_pairing_reference, LinePrecomp,
};

/// An element of the scalar field `Z_r` (`r` = group order).
pub type Scalar = Fp<4>;

/// Bit size of the base-field prime `q` for production parameters —
/// matches PBC's stock `a.param` (512-bit `q`, 160-bit `r`).
pub const DEFAULT_Q_BITS: u32 = 512;

/// Smaller `q` used by [`Pairing::insecure_test_params`]; fine for tests
/// and benchmarks of protocol logic, but NOT cryptographically strong.
pub const TEST_Q_BITS: u32 = 264;

/// Generated Type-A pairing parameters: fields, cofactor and generator.
pub struct PairingParams {
    fq: Arc<FieldCtx<8>>,
    zr: Arc<FieldCtx<4>>,
    r: Uint<4>,
    h: Uint<8>,
    generator: G1,
    /// Lazily built fixed-base window table for the generator; every
    /// `[s]G` in Setup/Encrypt/KeyGen goes through it.
    gen_table: OnceLock<FixedBaseTable>,
    /// Lazily computed `ê(G, G)`, the generator of `Gt`.
    gt_gen: OnceLock<Gt>,
}

impl fmt::Debug for PairingParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PairingParams")
            .field("q_bits", &self.fq.modulus().bit_len())
            .field("r_bits", &self.r.bit_len())
            .finish()
    }
}

/// A symmetric bilinear pairing `ê : G1 × G1 → Gt` on a Type-A curve.
///
/// Cheap to clone (shared parameters).
///
/// # Example
///
/// ```
/// use sp_pairing::Pairing;
///
/// let pairing = Pairing::insecure_test_params();
/// let g = pairing.generator();
/// let e = pairing.pair(g, g).unwrap();
/// assert!(!e.is_one(), "modified pairing is non-degenerate");
/// ```
#[derive(Clone, Debug)]
pub struct Pairing {
    params: Arc<PairingParams>,
}

impl Pairing {
    /// Generates fresh parameters with a `q_bits`-bit base field.
    ///
    /// # Panics
    ///
    /// Panics if `q_bits` is out of the supported range
    /// `(200, 512]`.
    pub fn generate<R: Rng + ?Sized>(q_bits: u32, rng: &mut R) -> Self {
        assert!(q_bits <= 512, "Uint<8> holds at most 512 bits");
        let TypeAPrimes { q, r, h } = generate_type_a::<8, R>(q_bits, rng);
        let fq = FieldCtx::new(q).expect("generated q is an odd prime");
        let r4: Uint<4> = r.truncate().expect("r is 160 bits");
        let zr = FieldCtx::new(r4).expect("r is an odd prime");
        let mut params = PairingParams {
            fq,
            zr,
            r: r4,
            h,
            generator: G1::identity(),
            gen_table: OnceLock::new(),
            gt_gen: OnceLock::new(),
        };
        params.generator = hash_to_g1_inner(&params, b"social-puzzles/type-a/generator/v1");
        assert!(!params.generator.is_identity());
        Self { params: Arc::new(params) }
    }

    /// Process-wide cached 512-bit parameters (deterministic generation, so
    /// every component in a process agrees on the group).
    pub fn default_params() -> Self {
        static DEFAULT: OnceLock<Pairing> = OnceLock::new();
        DEFAULT
            .get_or_init(|| {
                let mut rng = StdRng::seed_from_u64(0x5050_4243_5A45_5441); // "PPBCZETA"
                Self::generate(DEFAULT_Q_BITS, &mut rng)
            })
            .clone()
    }

    /// Process-wide cached small parameters for tests and benchmarks.
    ///
    /// The group sizes are far below cryptographic strength — the name
    /// says so on purpose.
    pub fn insecure_test_params() -> Self {
        static TEST: OnceLock<Pairing> = OnceLock::new();
        TEST.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0x7465_7374);
            Self::generate(TEST_Q_BITS, &mut rng)
        })
        .clone()
    }

    /// The base-field context `F_q`.
    pub fn fq(&self) -> &Arc<FieldCtx<8>> {
        &self.params.fq
    }

    /// The scalar-field context `Z_r`.
    pub fn zr(&self) -> &Arc<FieldCtx<4>> {
        &self.params.zr
    }

    /// The prime group order `r`.
    pub fn order(&self) -> &Uint<4> {
        &self.params.r
    }

    /// The cofactor `h = (q + 1)/r`.
    pub fn cofactor(&self) -> &Uint<8> {
        &self.params.h
    }

    /// A fixed generator of `G1`.
    pub fn generator(&self) -> &G1 {
        &self.params.generator
    }

    /// The modified Tate pairing `ê(P, Q)` (projective Miller loop — no
    /// per-step field inversions). Identity operands yield the `Gt`
    /// identity.
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::DegeneratePairing`] if the Miller value
    /// vanishes — only reachable with points outside the order-`r`
    /// subgroup (e.g. the 2-torsion point `(0, 0)`).
    pub fn pair(&self, p: &G1, q: &G1) -> Result<Gt, PairingError> {
        if p.is_identity() || q.is_identity() {
            return Ok(Gt::one(&self.params.fq));
        }
        Ok(Gt::from_fp2(tate_pairing(p, q, &self.params.r, &self.params.h)?))
    }

    /// The original affine-Miller-loop pairing, retained as the reference
    /// implementation the optimized path is differential-tested and
    /// benchmarked against.
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::DegeneratePairing`] if the Miller value
    /// vanishes (same contract as [`Pairing::pair`]).
    pub fn pair_reference(&self, p: &G1, q: &G1) -> Result<Gt, PairingError> {
        if p.is_identity() || q.is_identity() {
            return Ok(Gt::one(&self.params.fq));
        }
        Ok(Gt::from_fp2(tate_pairing_reference(p, q, &self.params.r, &self.params.h)?))
    }

    /// Product of pairing ratios `Π_j ê(Pⱼ, Qⱼ) / Π_k ê(P'ₖ, Q'ₖ)` with a
    /// **single** shared Miller accumulator and **one** final
    /// exponentiation — the multi-pairing shape CP-ABE decryption reduces
    /// to once the per-leaf Lagrange exponents are folded into the `G1`
    /// arguments. Terms containing the identity contribute `1`.
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::DegeneratePairing`] if the shared Miller
    /// accumulator vanishes (only reachable with points outside the
    /// order-`r` subgroup).
    pub fn pair_product(&self, num: &[(&G1, &G1)], den: &[(&G1, &G1)]) -> Result<Gt, PairingError> {
        let terms: Vec<(&G1, &G1, bool)> = num
            .iter()
            .map(|&(p, q)| (p, q, false))
            .chain(den.iter().map(|&(p, q)| (p, q, true)))
            .collect();
        if terms.iter().all(|(p, q, _)| p.is_identity() || q.is_identity()) {
            return Ok(Gt::one(&self.params.fq));
        }
        let f = miller_loop_product(&terms, &self.params.r);
        Ok(Gt::from_fp2(final_exponentiation(&f, &self.params.h)?))
    }

    /// The pre-optimization pairing ratio: two *affine* Miller loops (one
    /// field inversion per curve step) sharing one final exponentiation.
    /// This is what [`Pairing::pair_ratio`] computed before the projective
    /// multi-pairing rewrite; it stays as the differential-test and
    /// benchmark baseline.
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::DegeneratePairing`] if either Miller value
    /// vanishes.
    pub fn pair_ratio_reference(
        &self,
        p1: &G1,
        q1: &G1,
        p2: &G1,
        q2: &G1,
    ) -> Result<Gt, PairingError> {
        let mut f = Fp2::one(&self.params.fq);
        if !(p1.is_identity() || q1.is_identity()) {
            f = &f * &miller_loop(p1, q1, &self.params.r);
        }
        if !(p2.is_identity() || q2.is_identity()) {
            let f2 = miller_loop(p2, q2, &self.params.r);
            f = &f * &f2.invert().map_err(|_| PairingError::DegeneratePairing)?;
        }
        if f.is_one() {
            return Ok(Gt::one(&self.params.fq));
        }
        Ok(Gt::from_fp2(final_exponentiation_reference(&f, &self.params.h)?))
    }

    /// The pairing ratio `ê(P₁, Q₁) / ê(P₂, Q₂)`, computed with a single
    /// shared final exponentiation — the exact shape CP-ABE's
    /// `DecryptNode` evaluates once per satisfied leaf
    /// (`e(D_j, C_y) / e(D'_j, C'_y)`), at roughly half the
    /// final-exponentiation cost of two independent pairings.
    ///
    /// # Errors
    ///
    /// Same contract as [`Pairing::pair_product`].
    pub fn pair_ratio(&self, p1: &G1, q1: &G1, p2: &G1, q2: &G1) -> Result<Gt, PairingError> {
        self.pair_product(&[(p1, q1)], &[(p2, q2)])
    }

    /// [`Pairing::pair`] with the *first* argument's Miller walk served
    /// from `cache` (computed and stored under `tag` on a miss). The
    /// pairing is symmetric, so callers put the long-lived point — e.g. a
    /// puzzle's ciphertext-side public input — in the first slot and the
    /// per-request point in the second.
    ///
    /// # Errors
    ///
    /// Same contract as [`Pairing::pair`].
    pub fn pair_cached(
        &self,
        cache: &LineCache,
        tag: &[u8],
        fixed: &G1,
        q: &G1,
    ) -> Result<Gt, PairingError> {
        self.pair_product_cached(cache, tag, &[(fixed, q)], &[])
    }

    /// [`Pairing::pair_product`] with every term's *first* argument served
    /// from the line-evaluation cache — the warm-path shape of CP-ABE
    /// decryption, where the ciphertext-side points repeat across every
    /// display of the same puzzle. Produces exactly the value
    /// [`Pairing::pair_product`] computes for the same terms.
    ///
    /// # Errors
    ///
    /// Same contract as [`Pairing::pair_product`].
    pub fn pair_product_cached(
        &self,
        cache: &LineCache,
        tag: &[u8],
        num: &[(&G1, &G1)],
        den: &[(&G1, &G1)],
    ) -> Result<Gt, PairingError> {
        let pres: Vec<(Arc<LinePrecomp>, &G1, bool)> = num
            .iter()
            .map(|&(p, q)| (p, q, false))
            .chain(den.iter().map(|&(p, q)| (p, q, true)))
            .filter(|(p, q, _)| !p.is_identity() && !q.is_identity())
            .map(|(p, q, conj)| (cache.get_or_precompute(tag, p, &self.params.r), q, conj))
            .collect();
        if pres.is_empty() {
            return Ok(Gt::one(&self.params.fq));
        }
        let terms: Vec<(&LinePrecomp, &G1, bool)> =
            pres.iter().map(|(pre, q, conj)| (pre.as_ref(), *q, *conj)).collect();
        let f = miller_loop_precomputed(&terms, &self.params.r);
        Ok(Gt::from_fp2(final_exponentiation(&f, &self.params.h)?))
    }

    /// Uniformly random scalar in `Z_r`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        self.params.zr.random(rng)
    }

    /// Uniformly random *nonzero* scalar.
    pub fn random_nonzero_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        self.params.zr.random_nonzero(rng)
    }

    /// Derives a scalar from arbitrary bytes (hash-to-`Z_r`).
    pub fn scalar_from_bytes(&self, data: &[u8]) -> Scalar {
        // 64 bytes of digest material, reduced mod r: bias ≤ 2^-96.
        let d1 = sha256_concat(&[b"sp/h2s/1", data]);
        let d2 = sha256_concat(&[b"sp/h2s/2", data]);
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d1);
        wide[32..].copy_from_slice(&d2);
        let hi = Uint::<4>::from_be_bytes(&wide[..32]).expect("exact width");
        let lo = Uint::<4>::from_be_bytes(&wide[32..]).expect("exact width");
        let reduced = sp_bigint::reduce_wide(&hi, &lo, &self.params.r);
        self.params.zr.element(reduced)
    }

    /// Hashes arbitrary bytes to a point of `G1` (try-and-increment on the
    /// x-coordinate, then cofactor clearing).
    pub fn hash_to_g1(&self, data: &[u8]) -> G1 {
        hash_to_g1_inner(&self.params, data)
    }

    /// Scalar multiplication `[s]P` by a scalar in `Z_r`
    /// (sliding-window ladder).
    pub fn mul(&self, p: &G1, s: &Scalar) -> G1 {
        p.mul_uint_window(&s.to_uint())
    }

    /// Fixed-base scalar multiplication `[s]G` of the generator off the
    /// cached window table — no doublings, one mixed addition per nonzero
    /// scalar digit. First use per parameter set builds the table.
    pub fn mul_generator(&self, s: &Scalar) -> G1 {
        self.generator_table().mul(&s.to_uint())
    }

    /// The table covers `r`'s width: every [`Scalar`] is below `r`.
    fn generator_table(&self) -> &FixedBaseTable {
        self.params
            .gen_table
            .get_or_init(|| FixedBaseTable::new(&self.params.generator, self.params.r.bit_len()))
    }

    /// `ê(G, G)`, which generates `Gt`; computed once per parameter set.
    /// By bilinearity `ê([a]G, [b]G)` is its `ab`-th power, so a power of
    /// the generator costs one `Gt` exponentiation instead of a pairing.
    pub fn gt_generator(&self) -> &Gt {
        self.params.gt_gen.get_or_init(|| {
            self.pair(&self.params.generator, &self.params.generator)
                .expect("generator pairing is non-degenerate")
        })
    }

    /// A uniformly random point of `G1`.
    pub fn random_g1<R: Rng + ?Sized>(&self, rng: &mut R) -> G1 {
        self.mul(self.generator(), &self.random_scalar(rng))
    }

    /// A uniformly random element of `Gt` (a random power of
    /// [`Pairing::gt_generator`]).
    pub fn random_gt<R: Rng + ?Sized>(&self, rng: &mut R) -> Gt {
        self.gt_generator().pow_scalar(&self.random_scalar(rng))
    }

    /// Decodes a `G1` point (see [`G1::from_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::BadPointEncoding`] for malformed encodings.
    pub fn g1_from_bytes(&self, bytes: &[u8]) -> Result<G1, PairingError> {
        G1::from_bytes(&self.params.fq, bytes)
    }

    /// Decodes a `Gt` element (see [`Gt::from_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::BadGtEncoding`] for malformed encodings.
    pub fn gt_from_bytes(&self, bytes: &[u8]) -> Result<Gt, PairingError> {
        Gt::from_bytes(&self.params.fq, bytes)
    }

    /// The identity of `Gt`.
    pub fn gt_one(&self) -> Gt {
        Gt::one(&self.params.fq)
    }
}

fn hash_to_g1_inner(params: &PairingParams, data: &[u8]) -> G1 {
    let fq = &params.fq;
    for counter in 0u32.. {
        let digest1 = sha256_concat(&[b"sp/h2g/1", &counter.to_be_bytes(), data]);
        let digest2 = sha256_concat(&[b"sp/h2g/2", &counter.to_be_bytes(), data]);
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&digest1);
        wide[32..].copy_from_slice(&digest2);
        let x = fq.from_be_bytes(&wide).expect("64 bytes fit Uint<8>");
        // y² = x³ + x
        let rhs = &(&x.square() * &x) + &x;
        if let Some(y) = rhs.sqrt() {
            // Canonicalize the root deterministically (pick the "even" one).
            let y = if y.to_uint().is_odd() { -&y } else { y };
            let point = G1::from_affine_unchecked(x, y);
            debug_assert!(point.is_on_curve());
            // Clear the cofactor to land in the order-r subgroup.
            let cleared = point.mul_uint_window(&params.h);
            if !cleared.is_identity() {
                return cleared;
            }
        }
    }
    unreachable!("hash-to-curve succeeds within a few counter increments")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairing() -> Pairing {
        Pairing::insecure_test_params()
    }

    #[test]
    fn parameters_are_consistent() {
        let p = pairing();
        // q + 1 = h·r
        let (prod, hi) = p.cofactor().widening_mul(&p.order().widen::<8>());
        assert!(hi.is_zero());
        assert_eq!(prod, p.fq().modulus().wrapping_add(&Uint::ONE));
        assert_eq!(p.fq().modulus().low_u64() & 3, 3);
        assert_eq!(p.zr().modulus(), p.order());
    }

    #[test]
    fn generator_has_order_r() {
        let p = pairing();
        let g = p.generator();
        assert!(g.is_on_curve());
        assert!(!g.is_identity());
        assert!(g.mul_uint(p.order()).is_identity());
    }

    #[test]
    fn group_laws() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(40);
        let a = p.random_g1(&mut rng);
        let b = p.random_g1(&mut rng);
        let c = p.random_g1(&mut rng);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        assert_eq!(a.add(&G1::identity()), a);
        assert!(a.add(&a.negate()).is_identity());
        assert_eq!(a.double(), a.add(&a));
        assert_eq!(a.sub(&b), a.add(&b.negate()));
    }

    #[test]
    fn scalar_mul_matches_addition() {
        let p = pairing();
        let g = p.generator();
        let mut acc = G1::identity();
        for k in 0u64..8 {
            assert_eq!(g.mul_uint(&Uint::<4>::from_u64(k)), acc, "k = {k}");
            acc = acc.add(g);
        }
    }

    #[test]
    fn jacobian_mul_matches_affine_reference() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..5 {
            let point = p.random_g1(&mut rng);
            let s = p.random_scalar(&mut rng);
            assert_eq!(point.mul_uint(&s.to_uint()), point.mul_uint_affine(&s.to_uint()));
        }
        // Edge scalars.
        let g = p.generator();
        for k in [0u64, 1, 2, 3] {
            assert_eq!(
                g.mul_uint(&Uint::<4>::from_u64(k)),
                g.mul_uint_affine(&Uint::<4>::from_u64(k))
            );
        }
        // Order and order±1.
        let r = *p.order();
        assert!(g.mul_uint(&r).is_identity());
        assert_eq!(g.mul_uint(&r.wrapping_add(&Uint::ONE)), *g);
        assert_eq!(g.mul_uint(&r.wrapping_sub(&Uint::ONE)), g.negate());
    }

    #[test]
    fn pairing_bilinearity() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(41);
        let g = p.generator();
        let a = p.random_nonzero_scalar(&mut rng);
        let b = p.random_nonzero_scalar(&mut rng);
        let lhs = p.pair(&p.mul(g, &a), &p.mul(g, &b)).unwrap();
        let ab = &a * &b;
        let e = p.pair(g, g).unwrap();
        let rhs = e.pow(&ab.to_uint());
        assert_eq!(lhs, rhs);
        // And one argument at a time:
        assert_eq!(p.pair(&p.mul(g, &a), g).unwrap(), e.pow(&a.to_uint()));
        assert_eq!(p.pair(g, &p.mul(g, &b)).unwrap(), e.pow(&b.to_uint()));
    }

    #[test]
    fn pairing_non_degenerate_and_order_r() {
        let p = pairing();
        let g = p.generator();
        let e = p.pair(g, g).unwrap();
        assert!(!e.is_one());
        assert!(e.pow(p.order()).is_one());
    }

    #[test]
    fn pairing_identity_rules() {
        let p = pairing();
        let g = p.generator();
        assert!(p.pair(&G1::identity(), g).unwrap().is_one());
        assert!(p.pair(g, &G1::identity()).unwrap().is_one());
        assert!(p.pair(&G1::identity(), &G1::identity()).unwrap().is_one());
        // The reference path and the multi-pairing path agree on identities.
        assert!(p.pair_reference(&G1::identity(), g).unwrap().is_one());
        assert!(p.pair_product(&[(&G1::identity(), g)], &[(g, &G1::identity())]).unwrap().is_one());
    }

    #[test]
    fn pairing_symmetry() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(42);
        let a = p.random_g1(&mut rng);
        let b = p.random_g1(&mut rng);
        assert_eq!(p.pair(&a, &b).unwrap(), p.pair(&b, &a).unwrap());
    }

    #[test]
    fn pair_ratio_matches_division_of_pairings() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(48);
        for _ in 0..3 {
            let a = p.random_g1(&mut rng);
            let b = p.random_g1(&mut rng);
            let c = p.random_g1(&mut rng);
            let d = p.random_g1(&mut rng);
            let naive = p.pair(&a, &b).unwrap().div(&p.pair(&c, &d).unwrap());
            assert_eq!(p.pair_ratio(&a, &b, &c, &d).unwrap(), naive);
        }
        // Identity slots behave like e(...) = 1 in that slot.
        let g = p.generator();
        let e = p.pair(g, g).unwrap();
        assert_eq!(p.pair_ratio(&G1::identity(), g, g, g).unwrap(), e.inverse());
        assert_eq!(p.pair_ratio(g, g, &G1::identity(), g).unwrap(), e);
        assert!(p.pair_ratio(&G1::identity(), g, g, &G1::identity()).unwrap().is_one());
    }

    #[test]
    fn pairing_negation() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(43);
        let a = p.random_g1(&mut rng);
        let b = p.random_g1(&mut rng);
        let e = p.pair(&a, &b).unwrap();
        assert_eq!(p.pair(&a.negate(), &b).unwrap(), e.inverse());
        assert!(e.mul(&p.pair(&a.negate(), &b).unwrap()).is_one());
    }

    #[test]
    fn hash_to_g1_properties() {
        let p = pairing();
        let h1 = p.hash_to_g1(b"attribute: where=lakeside");
        let h2 = p.hash_to_g1(b"attribute: where=lakeside");
        let h3 = p.hash_to_g1(b"attribute: who=priya");
        assert_eq!(h1, h2, "deterministic");
        assert_ne!(h1, h3, "input-sensitive");
        assert!(h1.is_on_curve());
        assert!(h1.mul_uint(p.order()).is_identity(), "in the order-r subgroup");
    }

    #[test]
    fn scalar_from_bytes_is_deterministic_and_reduced() {
        let p = pairing();
        let s1 = p.scalar_from_bytes(b"seed");
        let s2 = p.scalar_from_bytes(b"seed");
        let s3 = p.scalar_from_bytes(b"other");
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert!(s1.to_uint() < *p.order());
    }

    #[test]
    fn point_serialization_roundtrip() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(44);
        let a = p.random_g1(&mut rng);
        let bytes = a.to_bytes();
        assert_eq!(p.g1_from_bytes(&bytes).unwrap(), a);
        let inf = G1::identity();
        assert_eq!(p.g1_from_bytes(&inf.to_bytes()).unwrap(), inf);
        // Corrupt encoding: flip a byte in y.
        let mut bad = bytes.clone();
        bad[100] ^= 1;
        assert_eq!(p.g1_from_bytes(&bad).unwrap_err(), PairingError::BadPointEncoding);
        assert!(p.g1_from_bytes(&[]).is_err());
        assert!(p.g1_from_bytes(&[2]).is_err());
    }

    #[test]
    fn double_scalar_mul_matches_separate_ladders() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(50);
        for _ in 0..5 {
            let g = p.random_g1(&mut rng);
            let h = p.random_g1(&mut rng);
            let a = p.random_scalar(&mut rng).to_uint();
            let b = p.random_scalar(&mut rng).to_uint();
            let fused = g.double_scalar_mul(&a, &h, &b);
            let separate = g.mul_uint(&a).add(&h.mul_uint(&b));
            assert_eq!(fused, separate);
            assert_eq!(fused, g.double_scalar_mul_reference(&a, &h, &b));
        }
        // Degenerate scalars.
        let g = p.generator();
        let zero = Uint::<4>::ZERO;
        let one = Uint::<4>::ONE;
        assert!(g.double_scalar_mul(&zero, g, &zero).is_identity());
        assert_eq!(g.double_scalar_mul(&one, g, &zero), *g);
        assert_eq!(g.double_scalar_mul(&zero, g, &one), *g);
        assert_eq!(g.double_scalar_mul(&one, g, &one), g.double());
        // a·G + b·(−G) with a == b cancels.
        let neg = g.negate();
        let s = p.random_scalar(&mut rng).to_uint();
        assert!(g.double_scalar_mul(&s, &neg, &s).is_identity());
    }

    #[test]
    fn compressed_point_roundtrip() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(49);
        for _ in 0..10 {
            let a = p.random_g1(&mut rng);
            let compressed = a.to_bytes_compressed();
            assert_eq!(compressed.len(), 65);
            let back = G1::from_bytes_compressed(p.fq(), &compressed).unwrap();
            assert_eq!(back, a);
        }
        let inf = G1::identity();
        assert_eq!(G1::from_bytes_compressed(p.fq(), &inf.to_bytes_compressed()).unwrap(), inf);
        // Bad tag / bad length / non-residue x.
        assert!(G1::from_bytes_compressed(p.fq(), &[7u8; 65]).is_err());
        assert!(G1::from_bytes_compressed(p.fq(), &[2u8; 10]).is_err());
        // Find an x with no curve point (x³+x a non-residue).
        let mut probe = p.fq().from_u64(2);
        loop {
            let rhs = &(&probe.square() * &probe) + &probe;
            if rhs.sqrt().is_none() {
                let mut enc = vec![2u8];
                enc.extend_from_slice(&probe.to_be_bytes());
                assert!(G1::from_bytes_compressed(p.fq(), &enc).is_err());
                break;
            }
            probe = &probe + &p.fq().one();
        }
    }

    #[test]
    fn gt_serialization_roundtrip() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(45);
        let e = p.random_gt(&mut rng);
        assert_eq!(p.gt_from_bytes(&e.to_bytes()).unwrap(), e);
        assert!(p.gt_from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn gt_group_laws() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(46);
        let a = p.random_gt(&mut rng);
        let b = p.random_gt(&mut rng);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert!(a.div(&a).is_one());
        assert!(a.mul(&a.inverse()).is_one());
        assert_eq!(a.pow(&Uint::<4>::from_u64(3)), a.mul(&a).mul(&a));
        assert!(a.pow(p.order()).is_one(), "Gt elements have order dividing r");
    }

    #[test]
    fn window_mul_matches_textbook_ladder() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..8 {
            let point = p.random_g1(&mut rng);
            let s = p.random_scalar(&mut rng);
            assert_eq!(point.mul_uint_window(&s.to_uint()), point.mul_uint(&s.to_uint()));
        }
        let g = p.generator();
        for k in [0u64, 1, 2, 3, 15, 16, 17, 255] {
            let k = Uint::<4>::from_u64(k);
            assert_eq!(g.mul_uint_window(&k), g.mul_uint(&k));
        }
        let r = *p.order();
        assert!(g.mul_uint_window(&r).is_identity());
        assert_eq!(g.mul_uint_window(&r.wrapping_sub(&Uint::ONE)), g.negate());
        // Wide (cofactor-sized) scalars as used by cofactor clearing.
        assert_eq!(g.mul_uint_window(p.cofactor()), g.mul_uint(p.cofactor()));
    }

    #[test]
    fn fixed_base_table_matches_textbook_ladder() {
        let p = pairing();
        let g = p.generator();
        // Sized like the generator's table: to r's width.
        let table = crate::curve::FixedBaseTable::new(g, p.order().bit_len());
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..8 {
            let s = p.random_scalar(&mut rng);
            assert_eq!(table.mul(&s.to_uint()), g.mul_uint(&s.to_uint()));
        }
        for k in [0u64, 1, 2, 15, 16, u64::MAX] {
            let k = Uint::<4>::from_u64(k);
            assert_eq!(table.mul(&k), g.mul_uint(&k));
        }
        let r = *p.order();
        assert!(table.mul(&r).is_identity());
        assert_eq!(table.mul(&r.wrapping_add(&Uint::ONE)), *g);
        // Scalars wider than the table fall back to the windowed ladder.
        assert_eq!(table.mul(&Uint::<4>::MAX), g.mul_uint(&Uint::<4>::MAX));
        // Identity base.
        let empty = crate::curve::FixedBaseTable::new(&G1::identity(), 64 * 4);
        assert!(empty.mul(&Uint::<4>::from_u64(7)).is_identity());
    }

    #[test]
    fn random_gt_is_a_power_of_the_generator_pairing() {
        for p in [pairing(), Pairing::default_params()] {
            let g = p.generator();
            let e_gg = p.pair(g, g).unwrap();
            assert_eq!(*p.gt_generator(), e_gg);
            for seed in 58..61 {
                let x = p.random_scalar(&mut StdRng::seed_from_u64(seed));
                assert_eq!(p.random_gt(&mut StdRng::seed_from_u64(seed)), e_gg.pow(&x.to_uint()));
            }
        }
    }

    #[test]
    fn mul_generator_uses_the_cached_table() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..4 {
            let s = p.random_scalar(&mut rng);
            assert_eq!(p.mul_generator(&s), p.mul(p.generator(), &s));
        }
    }

    #[test]
    fn projective_pairing_matches_affine_reference() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(54);
        for _ in 0..4 {
            let a = p.random_g1(&mut rng);
            let b = p.random_g1(&mut rng);
            assert_eq!(p.pair(&a, &b).unwrap(), p.pair_reference(&a, &b).unwrap());
        }
        let g = p.generator();
        assert_eq!(p.pair(g, g).unwrap(), p.pair_reference(g, g).unwrap());
    }

    #[test]
    fn pair_product_matches_naive_products() {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(55);
        let points: Vec<G1> = (0..8).map(|_| p.random_g1(&mut rng)).collect();
        // Π e(p_i, p_{i+1}) over pairs, divided by Π of the reversed pairs.
        let num: Vec<(&G1, &G1)> = vec![(&points[0], &points[1]), (&points[2], &points[3])];
        let den: Vec<(&G1, &G1)> = vec![(&points[4], &points[5]), (&points[6], &points[7])];
        let naive = p
            .pair(&points[0], &points[1])
            .unwrap()
            .mul(&p.pair(&points[2], &points[3]).unwrap())
            .div(&p.pair(&points[4], &points[5]).unwrap())
            .div(&p.pair(&points[6], &points[7]).unwrap());
        assert_eq!(p.pair_product(&num, &den).unwrap(), naive);
        // Numerator-only and denominator-only shapes.
        assert_eq!(
            p.pair_product(&num, &[]).unwrap(),
            p.pair(&points[0], &points[1]).unwrap().mul(&p.pair(&points[2], &points[3]).unwrap())
        );
        assert_eq!(
            p.pair_product(&[], &den[..1]).unwrap(),
            p.pair(&points[4], &points[5]).unwrap().inverse()
        );
        // Identity terms drop out.
        let id = G1::identity();
        assert_eq!(
            p.pair_product(&[(&points[0], &points[1]), (&id, &points[2])], &[]).unwrap(),
            p.pair(&points[0], &points[1]).unwrap()
        );
        assert!(p.pair_product(&[(&id, &points[0])], &[(&points[1], &id)]).unwrap().is_one());
        assert!(p.pair_product(&[], &[]).unwrap().is_one());
    }

    #[test]
    fn cached_pairing_matches_uncached() {
        let _serial = crate::stats::line_cache_test_lock();
        let p = pairing();
        let cache = LineCache::new();
        let mut rng = StdRng::seed_from_u64(56);
        let fixed = p.random_g1(&mut rng);
        let before = crate::stats::snapshot();
        for _ in 0..3 {
            let q = p.random_g1(&mut rng);
            assert_eq!(
                p.pair_cached(&cache, b"tag", &fixed, &q).unwrap(),
                p.pair(&fixed, &q).unwrap()
            );
        }
        let after = crate::stats::snapshot();
        assert_eq!(after.line_cache_misses - before.line_cache_misses, 1);
        assert_eq!(after.line_cache_hits - before.line_cache_hits, 2);
        // Identity slots short-circuit without touching the cache.
        let g = p.generator();
        assert!(p.pair_cached(&cache, b"tag", &G1::identity(), g).unwrap().is_one());
        assert!(p.pair_cached(&cache, b"tag", g, &G1::identity()).unwrap().is_one());
    }

    #[test]
    fn cached_pair_product_matches_uncached() {
        let _serial = crate::stats::line_cache_test_lock();
        let p = pairing();
        let cache = LineCache::new();
        let mut rng = StdRng::seed_from_u64(57);
        let points: Vec<G1> = (0..6).map(|_| p.random_g1(&mut rng)).collect();
        let num: Vec<(&G1, &G1)> = vec![(&points[0], &points[1]), (&points[2], &points[3])];
        let den: Vec<(&G1, &G1)> = vec![(&points[4], &points[5])];
        let want = p.pair_product(&num, &den).unwrap();
        // Cold, then warm: the answer never changes.
        assert_eq!(p.pair_product_cached(&cache, b"pz", &num, &den).unwrap(), want);
        assert_eq!(p.pair_product_cached(&cache, b"pz", &num, &den).unwrap(), want);
        assert_eq!(cache.len(), 3);
        // Identity terms drop out like in the uncached product.
        let id = G1::identity();
        assert_eq!(
            p.pair_product_cached(
                &cache,
                b"pz",
                &[(&points[0], &points[1]), (&id, &points[2])],
                &[]
            )
            .unwrap(),
            p.pair(&points[0], &points[1]).unwrap()
        );
        assert!(p.pair_product_cached(&cache, b"pz", &[], &[]).unwrap().is_one());
        // Invalidation empties the tag and the next call still agrees.
        assert_eq!(cache.invalidate(b"pz"), 3);
        assert_eq!(p.pair_product_cached(&cache, b"pz", &num, &den).unwrap(), want);
    }

    #[test]
    fn default_params_are_cached_and_512_bit() {
        let p1 = Pairing::default_params();
        let p2 = Pairing::default_params();
        assert_eq!(p1.fq().modulus(), p2.fq().modulus());
        assert_eq!(p1.fq().modulus().bit_len(), 512);
        assert_eq!(p1.order().bit_len(), 160);
    }
}

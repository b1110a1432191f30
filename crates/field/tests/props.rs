//! Property-based tests of the field axioms over `F_p` and `F_{p²}`.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_bigint::Uint;
use sp_field::{FieldCtx, Fp2};

fn f_large() -> Arc<FieldCtx<4>> {
    // 2^255 - 19 (≡ 1 mod 4 is fine for Fp; Fp2 tests use the 3 mod 4 one)
    FieldCtx::new(
        Uint::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed").unwrap(),
    )
    .unwrap()
}

fn f_3mod4() -> Arc<FieldCtx<4>> {
    // The NIST P-256 prime is ≡ 3 mod 4.
    FieldCtx::new(
        Uint::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff").unwrap(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fp_field_axioms(seed in any::<u64>()) {
        let f = f_large();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = f.random(&mut rng);
        let b = f.random(&mut rng);
        let c = f.random(&mut rng);
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a - &a, f.zero());
        prop_assert_eq!(&a * &f.one(), a.clone());
        prop_assert_eq!(-(-&a), a);
    }

    #[test]
    fn fp_inverse_and_sqrt(seed in any::<u64>()) {
        let f = f_3mod4();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = f.random_nonzero(&mut rng);
        let inv = a.invert().unwrap();
        prop_assert!((&a * &inv).is_one());
        // a² is always a residue; its root squares back.
        let sq = a.square();
        let root = sq.sqrt().expect("squares are residues");
        prop_assert_eq!(root.square(), sq);
        prop_assert_eq!(a.square().legendre(), 1);
    }

    #[test]
    fn fp_pow_laws(seed in any::<u64>(), e1 in 0u64..1000, e2 in 0u64..1000) {
        let f = f_large();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = f.random_nonzero(&mut rng);
        let lhs = a.pow(&Uint::<4>::from_u64(e1 + e2));
        let rhs = &a.pow(&Uint::<4>::from_u64(e1)) * &a.pow(&Uint::<4>::from_u64(e2));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn fp2_field_axioms(seed in any::<u64>()) {
        let f = f_3mod4();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Fp2::random(&f, &mut rng);
        let b = Fp2::random(&f, &mut rng);
        let c = Fp2::random(&f, &mut rng);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(a.square(), &a * &a);
        if !a.is_zero() {
            prop_assert!((&a * &a.invert().unwrap()).is_one());
        }
    }

    #[test]
    fn fp2_conjugation_is_field_automorphism(seed in any::<u64>()) {
        let f = f_3mod4();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Fp2::random(&f, &mut rng);
        let b = Fp2::random(&f, &mut rng);
        prop_assert_eq!((&a * &b).conjugate(), &a.conjugate() * &b.conjugate());
        prop_assert_eq!((&a + &b).conjugate(), &a.conjugate() + &b.conjugate());
        prop_assert_eq!(a.conjugate().conjugate(), a.clone());
        // Norm = a · conj(a) is in the base field and multiplicative.
        prop_assert_eq!((&a * &b).norm(), &a.norm() * &b.norm());
    }

    #[test]
    fn fp_serialization_roundtrip(seed in any::<u64>()) {
        let f = f_3mod4();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = f.random(&mut rng);
        prop_assert_eq!(f.from_be_bytes(&a.to_be_bytes()).unwrap(), a.clone());
        let x = Fp2::random(&f, &mut rng);
        prop_assert_eq!(Fp2::from_be_bytes(&f, &x.to_be_bytes()).unwrap(), x);
    }
}

// Batch-inversion equivalence: Montgomery's trick must agree with the
// per-element inversion it amortizes, with zeros anywhere in the batch
// left in place rather than poisoning their neighbors.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_invert_matches_per_element_inversion(
        seed in any::<u64>(),
        len in 0usize..24,
        zero_mask in any::<u32>(),
    ) {
        let f = f_3mod4();
        let mut rng = StdRng::seed_from_u64(seed);
        let original: Vec<_> = (0..len)
            .map(|i| if zero_mask & (1 << i) != 0 { f.zero() } else { f.random(&mut rng) })
            .collect();
        let mut batch = original.clone();
        let inverted = sp_field::batch_invert(&mut batch);
        let mut nonzero = 0usize;
        for (got, orig) in batch.iter().zip(&original) {
            match orig.invert() {
                Ok(inv) => {
                    nonzero += 1;
                    prop_assert_eq!(got.clone(), inv);
                }
                Err(_) => prop_assert_eq!(got.clone(), orig.clone()),
            }
        }
        prop_assert_eq!(inverted, nonzero);
    }
}

/// The 4-product schoolbook `F_{p²}` product built from `Fp` operations:
/// the oracle for the Karatsuba multiply and the complex squaring.
fn schoolbook(a: &Fp2<4>, b: &Fp2<4>) -> Fp2<4> {
    let c0 = &(a.c0() * b.c0()) - &(a.c1() * b.c1());
    let c1 = &(a.c0() * b.c1()) + &(a.c1() * b.c0());
    Fp2::new(c0, c1).unwrap()
}

// Kernel-equivalence suite: the Karatsuba F_{p²} multiply, the complex
// squaring and the cyclotomic (norm-1) exponentiation ladder must agree
// with independent formulations on every random input.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fp2_kernels_match_schoolbook(seed in any::<u64>()) {
        let f = f_3mod4();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Fp2::random(&f, &mut rng);
        let b = Fp2::random(&f, &mut rng);
        prop_assert_eq!(&a * &b, schoolbook(&a, &b));
        prop_assert_eq!(a.square(), schoolbook(&a, &a));
        prop_assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn cyclotomic_ops_match_generic_on_norm1(seed in any::<u64>(), e in any::<[u64; 4]>()) {
        let f = f_3mod4();
        let mut rng = StdRng::seed_from_u64(seed);
        // conj(a)/a has norm 1 for any nonzero a — the cyclotomic
        // subgroup the final exponentiation lands in.
        let mut a = Fp2::random(&f, &mut rng);
        while a.is_zero() {
            a = Fp2::random(&f, &mut rng);
        }
        let u = &a.conjugate() * &a.invert().unwrap();
        let e = Uint::<4>::from_limbs(e);
        prop_assert_eq!(u.pow_norm1(&e), u.pow(&e));
        prop_assert!(u.pow_norm1(&Uint::<4>::ZERO).is_one());
    }
}

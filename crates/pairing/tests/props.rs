//! Property-based tests of the pairing's algebraic laws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_field::Fp2;
use sp_pairing::{Pairing, G1};

fn pairing() -> Pairing {
    Pairing::insecure_test_params()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bilinearity_in_both_slots(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = p.generator();
        let a = p.random_nonzero_scalar(&mut rng);
        let b = p.random_nonzero_scalar(&mut rng);
        let ga = p.mul(g, &a);
        let gb = p.mul(g, &b);
        let e_gg = p.pair(g, g).unwrap();
        prop_assert_eq!(p.pair(&ga, &gb).unwrap(), e_gg.pow_scalar(&(&a * &b)));
        prop_assert_eq!(p.pair(&ga, g).unwrap(), e_gg.pow_scalar(&a));
        prop_assert_eq!(p.pair(g, &gb).unwrap(), e_gg.pow_scalar(&b));
    }

    #[test]
    fn pairing_of_sum_is_product(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = p.random_g1(&mut rng);
        let b = p.random_g1(&mut rng);
        let c = p.random_g1(&mut rng);
        // e(a + b, c) = e(a, c) · e(b, c)
        prop_assert_eq!(
            p.pair(&a.add(&b), &c).unwrap(),
            p.pair(&a, &c).unwrap().mul(&p.pair(&b, &c).unwrap())
        );
    }

    #[test]
    fn group_is_abelian_and_associative(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = p.random_g1(&mut rng);
        let b = p.random_g1(&mut rng);
        let c = p.random_g1(&mut rng);
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        prop_assert!(a.sub(&a).is_identity());
        prop_assert!(a.add(&G1::identity()) == a);
    }

    #[test]
    fn scalar_mul_distributes(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = p.random_g1(&mut rng);
        let a = p.random_scalar(&mut rng);
        let b = p.random_scalar(&mut rng);
        // (a + b)·G = a·G + b·G
        prop_assert_eq!(
            p.mul(&g, &(&a + &b)),
            p.mul(&g, &a).add(&p.mul(&g, &b))
        );
        // (a·b)·G = a·(b·G)
        prop_assert_eq!(
            p.mul(&g, &(&a * &b)),
            p.mul(&p.mul(&g, &b), &a)
        );
    }

    #[test]
    fn points_serialize_roundtrip(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = p.random_g1(&mut rng);
        prop_assert_eq!(p.g1_from_bytes(&g.to_bytes()).unwrap(), g);
        let e = p.random_gt(&mut rng);
        prop_assert_eq!(p.gt_from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn hash_to_g1_lands_in_subgroup(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let p = pairing();
        let h = p.hash_to_g1(&data);
        prop_assert!(h.is_on_curve());
        prop_assert!(!h.is_identity());
        prop_assert!(h.mul_uint(p.order()).is_identity());
    }
}

// Fast-path equivalence: the optimized routines (sliding-window and
// fixed-base-table scalar multiplication, product-of-pairings Miller
// loop) must agree with the textbook shapes they replaced on every
// random input, including identity and small-order corner cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn windowed_and_table_muls_match_textbook(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let base = p.random_g1(&mut rng);
        let s = p.random_nonzero_scalar(&mut rng);
        let want = base.mul_uint(&s.to_uint());
        prop_assert_eq!(base.mul_uint_window(&s.to_uint()), want.clone());
        let table = sp_pairing::FixedBaseTable::new(&base, 256);
        prop_assert_eq!(table.mul(&s.to_uint()), want);
        // The cached generator table behind mul_generator too.
        prop_assert_eq!(p.mul_generator(&s), p.generator().mul_uint(&s.to_uint()));
        // Degenerate scalars.
        prop_assert!(table.mul(&sp_bigint::Uint::<4>::ZERO).is_identity());
        prop_assert!(G1::identity().mul_uint_window(&s.to_uint()).is_identity());
    }

    #[test]
    fn product_of_pairings_matches_individual_pairings(
        seed in any::<u64>(),
        n_num in 1usize..4,
        n_den in 0usize..3,
    ) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let num: Vec<(G1, G1)> =
            (0..n_num).map(|_| (p.random_g1(&mut rng), p.random_g1(&mut rng))).collect();
        let den: Vec<(G1, G1)> =
            (0..n_den).map(|_| (p.random_g1(&mut rng), p.random_g1(&mut rng))).collect();
        let mut want = p.gt_one();
        for (a, b) in &num {
            want = want.mul(&p.pair_reference(a, b).unwrap());
        }
        for (a, b) in &den {
            want = want.div(&p.pair_reference(a, b).unwrap());
        }
        let num_refs: Vec<(&G1, &G1)> = num.iter().map(|(a, b)| (a, b)).collect();
        let den_refs: Vec<(&G1, &G1)> = den.iter().map(|(a, b)| (a, b)).collect();
        prop_assert_eq!(p.pair_product(&num_refs, &den_refs).unwrap(), want);
        // Identity terms drop out instead of poisoning the product.
        let id = G1::identity();
        let with_id: Vec<(&G1, &G1)> = num_refs
            .iter()
            .copied()
            .chain(std::iter::once((&id, &num[0].1)))
            .collect();
        prop_assert_eq!(
            p.pair_product(&with_id, &den_refs).unwrap(),
            p.pair_product(&num_refs, &den_refs).unwrap()
        );
    }
}

// Second-wave kernel equivalence: cyclotomic final exponentiation,
// split/Straus scalar multiplication, the norm-1 Gt::pow fast path, and
// the line-evaluation cache must each reproduce their reference twin
// bit-for-bit on random inputs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optimized_pairing_matches_reference(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = p.random_g1(&mut rng);
        let b = p.random_g1(&mut rng);
        // Precomputed Miller loop + cyclotomic final exponentiation vs
        // the affine loop + generic-pow final exponentiation.
        prop_assert_eq!(p.pair(&a, &b).unwrap(), p.pair_reference(&a, &b).unwrap());
    }

    #[test]
    fn straus_muls_match_reference(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = p.random_g1(&mut rng);
        let h = p.random_g1(&mut rng);
        let a = p.random_scalar(&mut rng).to_uint();
        let b = p.random_scalar(&mut rng).to_uint();
        prop_assert_eq!(
            g.double_scalar_mul(&a, &h, &b),
            g.double_scalar_mul_reference(&a, &h, &b)
        );
        prop_assert_eq!(
            g.double_scalar_mul(&a, &h, &b),
            g.mul_uint(&a).add(&h.mul_uint(&b))
        );
        // Degenerate shapes.
        let zero = sp_bigint::Uint::<4>::ZERO;
        prop_assert_eq!(g.double_scalar_mul(&a, &h, &zero), g.mul_uint(&a));
        prop_assert!(G1::identity().double_scalar_mul(&a, &h, &zero).is_identity());
    }

    #[test]
    fn gt_pow_fast_path_matches_reference(seed in any::<u64>(), e in any::<[u64; 4]>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = p.random_gt(&mut rng); // norm 1: takes the cyclotomic path
        let e = sp_bigint::Uint::<4>::from_limbs(e);
        prop_assert_eq!(x.pow(&e), x.pow_reference(&e));
    }

    #[test]
    fn cached_pairing_matches_uncached(seed in any::<u64>()) {
        let p = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let cache = sp_pairing::LineCache::new();
        let a = p.random_g1(&mut rng);
        let b = p.random_g1(&mut rng);
        let c = p.random_g1(&mut rng);
        let want = p.pair(&a, &b).unwrap();
        // Cold miss, then warm hit, must both equal the uncached value.
        prop_assert_eq!(p.pair_cached(&cache, b"t", &a, &b).unwrap(), want.clone());
        prop_assert_eq!(p.pair_cached(&cache, b"t", &a, &b).unwrap(), want);
        // Product form against its uncached twin, reusing the cached walk.
        let num = [(&a, &b), (&c, &b)];
        let den = [(&a, &c)];
        prop_assert_eq!(
            p.pair_product_cached(&cache, b"t", &num, &den).unwrap(),
            p.pair_product(&num, &den).unwrap()
        );
        // Invalidation forces a recompute that still agrees.
        cache.invalidate(b"t");
        prop_assert_eq!(
            p.pair_cached(&cache, b"t", &a, &b).unwrap(),
            p.pair(&a, &b).unwrap()
        );
    }
}

/// The 4-product schoolbook `F_{q²}` product built from `Fp` operations:
/// the oracle for the Karatsuba multiply and the complex squaring that
/// `Fp2` and the Miller loop both run on.
fn schoolbook(a: &Fp2<8>, b: &Fp2<8>) -> Fp2<8> {
    let c0 = &(a.c0() * b.c0()) - &(a.c1() * b.c1());
    let c1 = &(a.c0() * b.c1()) + &(a.c1() * b.c0());
    Fp2::new(c0, c1).unwrap()
}

#[test]
fn fp2_kernels_match_schoolbook_in_both_pairing_fields() {
    // The 264-bit test field and the 512-bit production field.
    for (seed, p) in [(61u64, pairing()), (62, Pairing::default_params())] {
        let fq = p.fq();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let a = Fp2::random(fq, &mut rng);
            let b = Fp2::random(fq, &mut rng);
            assert_eq!(&a * &b, schoolbook(&a, &b));
            assert_eq!(a.square(), schoolbook(&a, &a));
        }
        let top = Fp2::new(-&fq.one(), -&fq.one()).unwrap();
        let a = Fp2::random(fq, &mut rng);
        for edge in [top, Fp2::zero(fq), Fp2::one(fq)] {
            assert_eq!(&a * &edge, schoolbook(&a, &edge));
            assert_eq!(edge.square(), schoolbook(&edge, &edge));
        }
    }
}

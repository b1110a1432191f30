//! Property-based tests of big-integer arithmetic laws (crate-local;
//! the workspace-level suite has cross-crate variants).

use proptest::prelude::*;
use sp_bigint::{div_rem, modops, prime, MontCtx, Uint};

type U8 = Uint<8>;

fn u8_from(limbs: [u64; 8]) -> U8 {
    U8::from_limbs(limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mul_distributes_over_add_512(a in any::<[u64; 8]>(), b in any::<[u64; 8]>(), c in any::<[u64; 8]>()) {
        // (a + b)·c ≡ a·c + b·c  (mod 2^512): check the low halves.
        let (a, b, c) = (u8_from(a), u8_from(b), u8_from(c));
        let lhs = a.wrapping_add(&b).wrapping_mul(&c);
        let rhs = a.wrapping_mul(&c).wrapping_add(&b.wrapping_mul(&c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn widening_mul_matches_schoolbook_low(a in any::<[u64; 8]>(), b in any::<u64>()) {
        // a · b (single limb) via widening_mul agrees with mul_u64.
        let a = u8_from(a);
        let (lo1, hi1) = a.widening_mul(&U8::from_u64(b));
        let (lo2, carry) = a.mul_u64(b);
        prop_assert_eq!(lo1, lo2);
        prop_assert_eq!(hi1.low_u64(), carry);
    }

    #[test]
    fn rem_u64_matches_div_rem(a in any::<[u64; 8]>(), m in 1u64..) {
        let a = u8_from(a);
        prop_assert_eq!(a.rem_u64(m), div_rem(&a, &U8::from_u64(m)).1.low_u64());
    }

    #[test]
    fn shl_shr_compose(a in any::<[u64; 8]>(), s in 0u32..512, t in 0u32..512) {
        let a = u8_from(a);
        // shr(s) then shr(t) == shr(s + t) (saturating at width).
        let both = a.shr(s).shr(t);
        let combined = if s.checked_add(t).map(|v| v >= 512).unwrap_or(true) {
            U8::ZERO
        } else {
            a.shr(s + t)
        };
        prop_assert_eq!(both, combined);
    }

    #[test]
    fn bit_len_is_consistent(a in any::<[u64; 8]>()) {
        let a = u8_from(a);
        let bits = a.bit_len();
        if bits > 0 {
            prop_assert!(a.bit(bits - 1));
        }
        prop_assert!(!a.bit(bits));
        if bits < 512 {
            prop_assert!(a < U8::ONE.shl(bits));
        }
    }

    #[test]
    fn montgomery_mul_matches_wide_reduce(a in any::<[u64; 8]>(), b in any::<[u64; 8]>()) {
        // Validate Montgomery multiplication against an independent
        // route: plain widening multiply + bit-serial wide reduction.
        let p = U8::from_hex(
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
             fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffdc7",
        ).unwrap(); // 2^512 - 569, prime
        let ctx = MontCtx::new(p).unwrap();
        let a = div_rem(&u8_from(a), &p).1;
        let b = div_rem(&u8_from(b), &p).1;
        let (lo, hi) = a.widening_mul(&b);
        let expected = sp_bigint::reduce_wide(&hi, &lo, &p);
        let got = ctx.from_mont(&ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn fermat_for_random_bases(a in any::<[u64; 4]>()) {
        let p = Uint::<4>::from_hex(
            "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed"
        ).unwrap();
        let ctx = MontCtx::new(p).unwrap();
        let a = div_rem(&Uint::from_limbs(a), &p).1;
        prop_assume!(!a.is_zero());
        let pm1 = p.wrapping_sub(&Uint::ONE);
        prop_assert_eq!(ctx.pow_canonical(&a, &pm1), Uint::ONE);
    }

    #[test]
    fn jacobi_multiplicativity(a in any::<[u64; 4]>(), b in any::<[u64; 4]>()) {
        let p = Uint::<4>::from_u64(1_000_003);
        let a = div_rem(&Uint::from_limbs(a), &p).1;
        let b = div_rem(&Uint::from_limbs(b), &p).1;
        let ab = div_rem(&a.wrapping_mul(&b), &p).1;
        prop_assert_eq!(
            modops::jacobi(&ab, &p),
            modops::jacobi(&a, &p) * modops::jacobi(&b, &p)
        );
    }
}

#[test]
fn generated_primes_pass_independent_mr_rounds() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(77);
    for bits in [48u32, 96, 160] {
        let p: Uint<4> = prime::random_prime(bits, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(0xD00D);
        assert!(prime::miller_rabin(&p, 40, &mut rng2), "{p} (bits = {bits})");
    }
}

// The length-truncated multiply: the CIOS loops run over the modulus'
// significant limbs only, with one monomorphic copy per count 1..=8 —
// exactly where a wrong loop bound or carry placement would hide. Each
// product (and each square, the only squaring route) is checked against
// a plain widening multiply and a bit-serial wide reduction.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_mul_matches_wide_reduce(
        n_limbs in any::<[u64; 8]>(),
        len in 1usize..=8,
        a in any::<[u64; 8]>(),
        b in any::<[u64; 8]>(),
    ) {
        // A random odd modulus with exactly `len` significant limbs.
        let mut nl = n_limbs;
        for l in &mut nl[len..] {
            *l = 0;
        }
        nl[len - 1] |= 1;
        nl[0] |= 0b11; // odd, and > 1 even at len == 1
        let n = u8_from(nl);
        let ctx = MontCtx::new(n).unwrap();
        let a = div_rem(&u8_from(a), &n).1;
        let b = div_rem(&u8_from(b), &n).1;
        let (am, bm) = (ctx.to_mont(&a), ctx.to_mont(&b));
        for (x, y, xm, ym) in [(a, b, am, bm), (a, a, am, am), (b, b, bm, bm)] {
            let (lo, hi) = x.widening_mul(&y);
            let expected = sp_bigint::reduce_wide(&hi, &lo, &n);
            prop_assert_eq!(ctx.from_mont(&ctx.mul(&xm, &ym)), expected);
        }
    }
}

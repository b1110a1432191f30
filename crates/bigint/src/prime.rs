//! Primality testing and prime generation.
//!
//! Includes the *Type-A* pairing-parameter generation procedure from the
//! PBC library (used by the CP-ABE toolkit the paper's second prototype is
//! built on): a Solinas trinomial group order `r` and a base-field prime
//! `q = h·r − 1 ≡ 3 (mod 4)`.

use rand::Rng;

use crate::mont::MontCtx;
use crate::uint::Uint;

/// The first few hundred primes, for cheap trial division.
const SMALL_PRIMES: [u64; 168] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// Default number of Miller–Rabin rounds used by [`is_prime`].
pub const DEFAULT_MR_ROUNDS: u32 = 30;

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// Returns `false` for `n < 2` and for even `n > 2`. The error probability
/// is at most `4^-rounds` for composite `n`.
pub fn miller_rabin<const L: usize, R: Rng + ?Sized>(
    n: &Uint<L>,
    rounds: u32,
    rng: &mut R,
) -> bool {
    let two = Uint::<L>::from_u64(2);
    let three = Uint::<L>::from_u64(3);
    if *n < two {
        return false;
    }
    if *n == two || *n == three {
        return true;
    }
    if n.is_even() {
        return false;
    }
    let ctx = match MontCtx::new(*n) {
        Ok(c) => c,
        Err(_) => return false,
    };
    let n_m1 = n.wrapping_sub(&Uint::ONE);
    let s = n_m1.trailing_zeros();
    let d = n_m1.shr(s);
    let one_m = *ctx.one();
    let neg_one_m = ctx.neg(&one_m);

    'witness: for _ in 0..rounds {
        // Base in [2, n-2].
        let span = n.wrapping_sub(&three); // n - 3
        let a = Uint::random_below(rng, &span).wrapping_add(&two);
        let am = ctx.to_mont(&a);
        let mut x = ctx.pow(&am, &d);
        if x == one_m || x == neg_one_m {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = ctx.mul(&x, &x);
            if x == neg_one_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Deterministic small-prime screening; `None` means "undecided".
fn trial_division<const L: usize>(n: &Uint<L>) -> Option<bool> {
    for &p in &SMALL_PRIMES {
        if *n == Uint::from_u64(p) {
            return Some(true);
        }
        if n.rem_u64(p) == 0 {
            return Some(false);
        }
    }
    None
}

/// Primality test: trial division by small primes, then
/// [`DEFAULT_MR_ROUNDS`] rounds of Miller–Rabin.
pub fn is_prime<const L: usize, R: Rng + ?Sized>(n: &Uint<L>, rng: &mut R) -> bool {
    if *n < Uint::from_u64(2) {
        return false;
    }
    match trial_division(n) {
        Some(verdict) => verdict,
        None => miller_rabin(n, DEFAULT_MR_ROUNDS, rng),
    }
}

/// Generates a random prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 2` or `bits` exceeds the width of `Uint<L>`.
pub fn random_prime<const L: usize, R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Uint<L> {
    assert!(bits >= 2 && bits <= Uint::<L>::BITS, "random_prime: bad bit count");
    loop {
        let mut candidate = Uint::<L>::random_bits(rng, bits);
        // Force odd (except the sole even prime, reachable only at bits=2).
        if bits > 2 {
            let mut limbs = *candidate.limbs();
            limbs[0] |= 1;
            candidate = Uint::from_limbs(limbs);
        }
        if is_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// The 160-bit Solinas prime `2^159 + 2^107 + 1`, the default group order
/// of PBC *Type-A* pairing parameters.
pub fn solinas_159_107<const L: usize>() -> Uint<L> {
    assert!(Uint::<L>::BITS >= 160, "solinas prime needs at least 160 bits");
    Uint::ONE.shl(159).wrapping_add(&Uint::ONE.shl(107)).wrapping_add(&Uint::ONE)
}

/// Parameters produced by [`generate_type_a`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeAPrimes<const L: usize> {
    /// The base-field prime, `q = h·r − 1`, with `q ≡ 3 (mod 4)`.
    pub q: Uint<L>,
    /// The prime group order `r` (divides `q + 1`).
    pub r: Uint<L>,
    /// The cofactor `h` (a multiple of 4).
    pub h: Uint<L>,
}

/// Generates PBC Type-A style pairing primes: a supersingular curve
/// `y² = x³ + x` over `F_q` has `q + 1 = h·r` points, with `r` the prime
/// subgroup order.
///
/// `q_bits` is the target size of `q`; `r` is the fixed Solinas prime
/// `2^159 + 2^107 + 1`. The search picks random cofactors `h ≡ 0 (mod 4)`
/// until `q = h·r − 1` is prime (which also forces `q ≡ 3 (mod 4)`).
///
/// # Panics
///
/// Panics if `q_bits` is not comfortably larger than 160 or exceeds the
/// width of `Uint<L>`.
pub fn generate_type_a<const L: usize, R: Rng + ?Sized>(
    q_bits: u32,
    rng: &mut R,
) -> TypeAPrimes<L> {
    assert!(q_bits > 200 && q_bits <= Uint::<L>::BITS, "generate_type_a: bad q size");
    let r = solinas_159_107::<L>();
    debug_assert!({
        let mut check_rng = rand::rngs::mock::StepRng::new(0x9e3779b97f4a7c15, 0x2545f4914f6cdd1d);
        miller_rabin(&r, 8, &mut check_rng)
    });
    let h_bits = q_bits - r.bit_len() + 1;
    loop {
        // h: random with top bit set and low two bits clear (multiple of 4).
        let mut h = Uint::<L>::random_bits(rng, h_bits);
        let mut limbs = *h.limbs();
        limbs[0] &= !3u64;
        h = Uint::from_limbs(limbs);
        if h.is_zero() {
            continue;
        }
        let (q_plus_1, hi) = h.widening_mul(&r);
        if !hi.is_zero() || q_plus_1.bit_len() != q_bits {
            continue;
        }
        let q = q_plus_1.wrapping_sub(&Uint::ONE);
        debug_assert_eq!(q.low_u64() & 3, 3);
        if is_prime(&q, rng) {
            return TypeAPrimes { q, r, h };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    type U4 = Uint<4>;

    #[test]
    fn small_primes_classified() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 97, 997, 65_537, 1_000_003] {
            assert!(is_prime(&U4::from_u64(p), &mut rng), "{p} should be prime");
        }
        for c in [0u64, 1, 4, 9, 15, 1_000_001, 65_535] {
            assert!(!is_prime(&U4::from_u64(c), &mut rng), "{c} should be composite");
        }
    }

    #[test]
    fn known_large_primes() {
        let mut rng = StdRng::seed_from_u64(2);
        // 2^255 - 19
        let p = U4::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .unwrap();
        assert!(is_prime(&p, &mut rng));
        // p + 2 is composite
        assert!(!is_prime(&p.wrapping_add(&U4::from_u64(2)), &mut rng));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        // Fermat pseudoprimes that Miller-Rabin must reject.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825_265] {
            assert!(!is_prime(&U4::from_u64(c), &mut rng), "Carmichael {c}");
        }
    }

    #[test]
    fn solinas_prime_value_and_primality() {
        let r: U4 = solinas_159_107();
        assert_eq!(r, U4::from_dec("730750818665451621361119245571504901405976559617").unwrap());
        assert_eq!(r.bit_len(), 160);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(is_prime(&r, &mut rng));
    }

    #[test]
    fn random_prime_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [32u32, 64, 128] {
            let p: U4 = random_prime(bits, &mut rng);
            assert_eq!(p.bit_len(), bits);
            assert!(is_prime(&p, &mut rng));
        }
    }

    #[test]
    fn type_a_generation_properties() {
        let mut rng = StdRng::seed_from_u64(6);
        let params: TypeAPrimes<8> = generate_type_a(256, &mut rng);
        assert_eq!(params.q.bit_len(), 256);
        assert_eq!(params.q.low_u64() & 3, 3, "q ≡ 3 mod 4");
        assert!(is_prime(&params.q, &mut rng));
        // q + 1 = h * r
        let (prod, hi) = params.h.widening_mul(&params.r);
        assert!(hi.is_zero());
        assert_eq!(prod, params.q.wrapping_add(&Uint::ONE));
        // h multiple of 4
        assert_eq!(params.h.low_u64() & 3, 0);
    }

    #[test]
    fn miller_rabin_edge_inputs() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(!miller_rabin(&U4::ZERO, 10, &mut rng));
        assert!(!miller_rabin(&U4::ONE, 10, &mut rng));
        assert!(miller_rabin(&U4::from_u64(2), 10, &mut rng));
        assert!(miller_rabin(&U4::from_u64(3), 10, &mut rng));
        assert!(!miller_rabin(&U4::from_u64(4), 10, &mut rng));
    }
}

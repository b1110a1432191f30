//! Miller's algorithm for the modified Tate pairing on Type-A curves.
//!
//! The pairing computed is `ê(P, Q) = e_r(P, ψ(Q))^{(q²−1)/r}` where
//! `ψ(x, y) = (−x, i·y)` is the distortion map into `E(F_{q²})` and `e_r`
//! is the Tate pairing. Because the embedding degree is 2 and `ψ(Q)` has
//! its x-coordinate in the base field, all *vertical* line values lie in
//! `F_q^*` and are annihilated by the `(q−1)` factor of the final
//! exponentiation — so the Miller loop only multiplies in the non-vertical
//! line numerators (denominator elimination, BKLS).

use std::sync::Arc;

use sp_bigint::{MontCtx, Uint};
use sp_field::{fp2_mul_raw, fp2_square_raw, FieldCtx, Fp, Fp2};

use crate::curve::G1;
use crate::error::PairingError;

type U = Uint<8>;

/// An `F_{q²}` element as raw Montgomery-domain coefficients: the Miller
/// loop's working representation. `Fp`'s operator overloads clone and
/// drop an `Arc` (two atomic ops) per temporary, which at ~45 ns field
/// multiplications is a double-digit share of the whole pairing — so the
/// hot loop runs on bare `Uint`s against one borrowed [`MontCtx`] and
/// converts to [`Fp2`] only at the boundary. The multiply and square are
/// the same raw-coefficient formulas `Fp2` itself runs on.
#[derive(Clone, Copy)]
struct RawFp2([U; 2]);

impl RawFp2 {
    fn one(m: &MontCtx<8>) -> Self {
        Self([*m.one(), U::ZERO])
    }

    fn mul(&self, m: &MontCtx<8>, rhs: &Self) -> Self {
        Self(fp2_mul_raw(m, &self.0, &rhs.0))
    }

    fn square(&self, m: &MontCtx<8>) -> Self {
        Self(fp2_square_raw(m, &self.0))
    }

    fn conjugate(&self, m: &MontCtx<8>) -> Self {
        Self([self.0[0], m.neg(&self.0[1])])
    }

    fn into_fp2(self, ctx: &Arc<FieldCtx<8>>) -> Fp2<8> {
        let [c0, c1] = self.0;
        Fp2::new(Fp::from_mont_repr(ctx, c0), Fp::from_mont_repr(ctx, c1))
            .expect("base field is 3 mod 4")
    }
}

/// Evaluates the line through `t` (with slope `lambda`) at `ψ(Q)` for
/// `Q = (xq, yq)`.
///
/// `l(ψQ) = y_{ψQ} − y_T − λ(x_{ψQ} − x_T)` with `x_{ψQ} = −x_Q ∈ F_q`
/// and `y_{ψQ} = i·y_Q`, i.e. real part `λ(x_Q + x_T) − y_T`, imaginary
/// part `y_Q`.
fn line_value(lambda: &Fp<8>, xt: &Fp<8>, yt: &Fp<8>, xq: &Fp<8>, yq: &Fp<8>) -> Fp2<8> {
    let c0 = &(lambda * &(xq + xt)) - yt;
    Fp2::new(c0, yq.clone()).expect("base field is 3 mod 4")
}

/// Computes the modified Tate pairing `ê(P, Q)` before any [`crate::Gt`]
/// wrapping: Miller loop over the bits of `r`, then the two-stage final
/// exponentiation `f ↦ (f^{q−1})^h` with `h = (q+1)/r`.
///
/// `P` and `Q` must be non-identity points of order dividing `r` (the
/// caller handles identity operands).
///
/// # Panics
///
/// Panics if either point is the identity.
///
/// # Errors
///
/// Returns [`PairingError::DegeneratePairing`] if the Miller value
/// vanishes (operands outside the order-`r` subgroup).
pub(crate) fn tate_pairing(
    p: &G1,
    q: &G1,
    r: &Uint<4>,
    h: &Uint<8>,
) -> Result<Fp2<8>, PairingError> {
    final_exponentiation(&miller_loop_product(&[(p, q, false)], r), h)
}

/// The affine reference pairing: the original per-step-inversion Miller
/// loop and generic final-exponentiation chain, retained as the
/// differential-testing and benchmark baseline for [`tate_pairing`].
///
/// # Errors
///
/// Returns [`PairingError::DegeneratePairing`] if the Miller value
/// vanishes.
pub(crate) fn tate_pairing_reference(
    p: &G1,
    q: &G1,
    r: &Uint<4>,
    h: &Uint<8>,
) -> Result<Fp2<8>, PairingError> {
    final_exponentiation_reference(&miller_loop(p, q, r), h)
}

/// A (projectively scaled) Miller line in coefficient form: evaluated at
/// `ψ(Q)` for `Q = (x_Q, y_Q)` the line value is
/// `(a·x_Q + b) + i·(c·y_Q)`. The coefficients depend only on the Miller
/// walk of the first pairing argument — **not** on `Q` — which is what
/// the line-evaluation cache stores per fixed argument.
#[derive(Clone)]
pub(crate) struct LineCoeffs {
    a: U,
    b: U,
    c: U,
}

impl LineCoeffs {
    /// Evaluates the line at `ψ(Q)`: two base-field multiplications and
    /// one addition, instead of the full coefficient derivation.
    fn eval(&self, m: &MontCtx<8>, xq: &U, yq: &U) -> RawFp2 {
        RawFp2([m.add(&m.mul(&self.a, xq), &self.b), m.mul(&self.c, yq)])
    }
}

/// The Q-independent part of one pairing term: the running point `T` of
/// the Miller walk in Jacobian coordinates. Keeping `T` projective
/// removes the per-step field inversion the affine loop pays for the line
/// slope — line values pick up extra `F_q^*` factors, which the `(q − 1)`
/// stage of the final exponentiation annihilates (the same argument BKLS
/// denominator elimination rests on).
struct MillerWalk<'a> {
    m: &'a MontCtx<8>,
    xp: U,
    yp: U,
    x: U,
    y: U,
    z: U,
    /// `T` reached the identity (final addition `T = −P`); no further
    /// line contributions.
    done: bool,
}

impl<'a> MillerWalk<'a> {
    fn new(m: &'a MontCtx<8>, xp: U, yp: U) -> Self {
        Self { m, xp, yp, x: xp, y: yp, z: *m.one(), done: false }
    }

    /// Doubling step: returns the coefficients of `l_{T,T}` and advances
    /// `T ← 2T`. Squarings go through the CIOS multiply: at truncated
    /// limb counts the fused multiply beats the separated SOS square.
    fn double_step(&mut self) -> Option<LineCoeffs> {
        if self.done {
            return None;
        }
        if self.y.is_zero() {
            // 2-torsion: tangent is vertical (value in F_q, eliminated).
            self.done = true;
            return None;
        }
        let m = self.m;
        let z2 = m.mul(&self.z, &self.z);
        let slope = {
            let x2 = m.mul(&self.x, &self.x);
            let z4 = m.mul(&z2, &z2);
            m.add(&m.add(&x2, &x2), &m.add(&x2, &z4)) // 3X² + Z⁴ (a = 1)
        };
        let y2 = m.mul(&self.y, &self.y);
        let s = {
            let xy2 = m.mul(&self.x, &y2);
            let t = m.add(&xy2, &xy2);
            m.add(&t, &t) // 4XY²
        };
        let x3 = m.sub(&m.mul(&slope, &slope), &m.add(&s, &s));
        let z3 = {
            let yz = m.mul(&self.y, &self.z);
            m.add(&yz, &yz)
        };
        let y3 = {
            let y4 = m.mul(&y2, &y2);
            let t = m.add(&y4, &y4);
            let t = m.add(&t, &t);
            m.sub(&m.mul(&slope, &m.sub(&s, &x3)), &m.add(&t, &t)) // − 8Y⁴
        };
        // l·(2YZ³) = (M·Z²)·x_Q + (M·X − 2Y²) + i·((Z'·Z²)·y_Q)
        let a = m.mul(&slope, &z2);
        let b = m.sub(&m.mul(&slope, &self.x), &m.add(&y2, &y2));
        let c = m.mul(&z3, &z2);
        self.x = x3;
        self.y = y3;
        self.z = z3;
        Some(LineCoeffs { a, b, c })
    }

    /// Mixed addition step: returns the coefficients of `l_{T,P}` (or
    /// `None` for the vertical `T = −P` case) and advances `T ← T + P`.
    fn add_step(&mut self) -> Option<LineCoeffs> {
        if self.done {
            return None;
        }
        let m = self.m;
        let z2 = m.mul(&self.z, &self.z);
        let u2 = m.mul(&self.xp, &z2);
        let s2 = m.mul(&m.mul(&self.yp, &self.z), &z2);
        let h = m.sub(&u2, &self.x);
        let r = m.sub(&s2, &self.y);
        if h.is_zero() {
            if r.is_zero() {
                // T == P: tangent line (malformed inputs only; kept for
                // robustness, mirroring the affine loop).
                return self.double_step();
            }
            // T == −P: vertical line, eliminated; T becomes the identity.
            self.done = true;
            return None;
        }
        let h2 = m.mul(&h, &h);
        let h3 = m.mul(&h2, &h);
        let xh2 = m.mul(&self.x, &h2);
        let x3 = m.sub(&m.sub(&m.mul(&r, &r), &h3), &m.add(&xh2, &xh2));
        let y3 = m.sub(&m.mul(&r, &m.sub(&xh2, &x3)), &m.mul(&self.y, &h3));
        let z3 = m.mul(&self.z, &h);
        // l·(Z³H) = (R·Z²)·x_Q + (R·X − Y·H) + i·((Z²·Z')·y_Q)
        let a = m.mul(&r, &z2);
        let b = m.sub(&m.mul(&r, &self.x), &m.mul(&self.y, &h));
        let c = m.mul(&z2, &z3);
        self.x = x3;
        self.y = y3;
        self.z = z3;
        Some(LineCoeffs { a, b, c })
    }
}

/// Precomputed line coefficients for every step of the Miller walk of a
/// fixed first argument `P`: pairing against any second argument `Q`
/// replays the stored lines (two `F_q` multiplications each) instead of
/// re-deriving the Jacobian walk. Built by [`precompute_lines`], stored
/// in [`crate::cache::LineCache`].
pub struct LinePrecomp {
    /// All line coefficients in evaluation order.
    lines: Vec<LineCoeffs>,
    /// Number of lines consumed per Miller-loop bit (MSB-first,
    /// `bit_len(r) − 1` entries — 0, 1 or 2 each).
    per_bit: Vec<u8>,
}

impl LinePrecomp {
    /// Approximate heap footprint in bytes (for cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.lines.len() * 3 * 64 + self.per_bit.len()
    }
}

/// Runs the Miller walk of `P` once and stores every line's coefficients.
///
/// # Panics
///
/// Panics if `p` is the identity (callers skip identity terms).
pub(crate) fn precompute_lines(p: &G1, r: &Uint<4>) -> LinePrecomp {
    let (xp, yp) = p.coords().expect("identity handled by caller");
    let m = xp.ctx().mont();
    let mut walk = MillerWalk::new(m, *xp.mont_repr(), *yp.mont_repr());
    let bits = r.bit_len();
    let mut lines = Vec::new();
    let mut per_bit = Vec::with_capacity(bits as usize - 1);
    for i in (0..bits - 1).rev() {
        let mut n = 0u8;
        if let Some(l) = walk.double_step() {
            lines.push(l);
            n += 1;
        }
        if r.bit(i) {
            if let Some(l) = walk.add_step() {
                lines.push(l);
                n += 1;
            }
        }
        per_bit.push(n);
    }
    LinePrecomp { lines, per_bit }
}

/// Product-of-pairings Miller loop over **precomputed** line coefficients:
/// the same shared-squaring accumulator as [`miller_loop_product`], but
/// each term replays its stored lines (evaluated at its `Q`) instead of
/// walking the curve. Produces bit-for-bit the value
/// [`miller_loop_product`] computes for the same `(P, Q)` terms.
pub(crate) fn miller_loop_precomputed(terms: &[(&LinePrecomp, &G1, bool)], r: &Uint<4>) -> Fp2<8> {
    let live: Vec<(&LinePrecomp, U, U, bool)> = terms
        .iter()
        .filter_map(|(pre, q, conj)| {
            let (xq, yq) = q.coords()?;
            Some((*pre, *xq.mont_repr(), *yq.mont_repr(), *conj))
        })
        .collect();
    let ctx = terms
        .iter()
        .find_map(|(_, q, _)| q.coords())
        .map(|(x, _)| x.ctx().clone())
        .expect("miller_loop_precomputed needs at least one non-identity Q");
    let m = ctx.mont();
    let mut f = RawFp2::one(m);
    let n_bits = r.bit_len() as usize - 1;
    let mut cursor = vec![0usize; live.len()];
    for bit in 0..n_bits {
        f = f.square(m);
        for (t, (pre, xq, yq, conj)) in live.iter().enumerate() {
            let n = usize::from(pre.per_bit[bit]);
            for line in &pre.lines[cursor[t]..cursor[t] + n] {
                let v = line.eval(m, xq, yq);
                f = f.mul(m, &(if *conj { v.conjugate(m) } else { v }));
            }
            cursor[t] += n;
        }
    }
    f.into_fp2(&ctx)
}

/// Product-of-pairings Miller loop: computes
/// `Π_j f_{r,P_j}(ψQ_j)^{±1}` (sign per the `invert` flag of each
/// `(p, q, invert)` term) with **one shared accumulator squaring per bit**
/// and no field inversions, up to `F_q^*` factors killed by the final
/// exponentiation. Combined with a single [`final_exponentiation`], this
/// is what lets CP-ABE decryption fold every satisfied leaf into one
/// shared tail instead of `k` independent pairings.
///
/// Terms whose points include the identity contribute `1` and are
/// skipped.
pub(crate) fn miller_loop_product(terms: &[(&G1, &G1, bool)], r: &Uint<4>) -> Fp2<8> {
    struct Term<'a> {
        walk: MillerWalk<'a>,
        xq: U,
        yq: U,
        /// Multiply the conjugate of each line value into the
        /// accumulator, yielding `ê(P, Q)^{-1}` after final
        /// exponentiation (inversion in the norm-1 subgroup is
        /// conjugation, up to an `F_q` factor).
        conjugate: bool,
    }
    // A field context from any non-identity operand; if every term is
    // fully degenerate (each contributes 1) this is still needed for the
    // trivial answer.
    let ctx = terms
        .iter()
        .find_map(|(p, q, _)| p.coords().or_else(|| q.coords()))
        .map(|(x, _)| x.ctx().clone())
        .expect("miller_loop_product needs at least one non-identity operand");
    let m = ctx.mont();
    let mut states: Vec<Term<'_>> = terms
        .iter()
        .filter_map(|(p, q, invert)| {
            let (xp, yp) = p.coords()?;
            let (xq, yq) = q.coords()?;
            Some(Term {
                walk: MillerWalk::new(m, *xp.mont_repr(), *yp.mont_repr()),
                xq: *xq.mont_repr(),
                yq: *yq.mont_repr(),
                conjugate: *invert,
            })
        })
        .collect();
    if states.is_empty() {
        return Fp2::one(&ctx);
    }

    let mut f = RawFp2::one(m);
    let bits = r.bit_len();
    for i in (0..bits - 1).rev() {
        f = f.square(m);
        for st in &mut states {
            if let Some(line) = st.walk.double_step() {
                let v = line.eval(m, &st.xq, &st.yq);
                f = f.mul(m, &(if st.conjugate { v.conjugate(m) } else { v }));
            }
        }
        if r.bit(i) {
            for st in &mut states {
                if let Some(line) = st.walk.add_step() {
                    let v = line.eval(m, &st.xq, &st.yq);
                    f = f.mul(m, &(if st.conjugate { v.conjugate(m) } else { v }));
                }
            }
        }
    }
    f.into_fp2(&ctx)
}

/// The raw Miller loop value `f_{r,P}(ψQ)` (before final exponentiation);
/// exposed within the crate so products/ratios of pairings can share one
/// final exponentiation.
///
/// # Panics
///
/// Panics if either point is the identity.
pub(crate) fn miller_loop(p: &G1, q: &G1, r: &Uint<4>) -> Fp2<8> {
    let (xp, yp) = p.coords().expect("identity handled by Pairing::pair");
    let (xq, yq) = q.coords().expect("identity handled by Pairing::pair");
    let ctx = xp.ctx().clone();

    let mut f = Fp2::one(&ctx);
    let mut xt = xp.clone();
    let mut yt = yp.clone();
    let bits = r.bit_len();

    for i in (0..bits - 1).rev() {
        // Doubling step: f ← f² · l_{T,T}(ψQ); T ← 2T.
        f = f.square();
        debug_assert!(!yt.is_zero(), "odd-order point cannot hit y = 0 mid-loop");
        let lambda = {
            let x2 = xt.square();
            let num = &(&x2.double() + &x2) + &ctx.one(); // 3x² + 1
            let den = yt.double();
            &num * &den.invert().expect("2y nonzero")
        };
        f = &f * &line_value(&lambda, &xt, &yt, xq, yq);
        let x_new = &lambda.square() - &xt.double();
        let y_new = &(&lambda * &(&xt - &x_new)) - &yt;
        xt = x_new;
        yt = y_new;

        if r.bit(i) {
            // Addition step: f ← f · l_{T,P}(ψQ); T ← T + P.
            if xt == *xp {
                if yt == *yp {
                    // T == P: tangent line (only possible in malformed
                    // inputs; handle for robustness).
                    let lambda = {
                        let x2 = xt.square();
                        let num = &(&x2.double() + &x2) + &ctx.one();
                        let den = yt.double();
                        &num * &den.invert().expect("2y nonzero")
                    };
                    f = &f * &line_value(&lambda, &xt, &yt, xq, yq);
                    let x_new = &lambda.square() - &xt.double();
                    let y_new = &(&lambda * &(&xt - &x_new)) - &yt;
                    xt = x_new;
                    yt = y_new;
                } else {
                    // T == −P: vertical line, value in F_q^* — skipped by
                    // denominator elimination. T + P = ∞; this only occurs
                    // on the final iteration for points of exact order r.
                    xt = ctx.zero();
                    yt = ctx.zero();
                    // Mark T as infinity by leaving the loop; any further
                    // iterations would multiply by line values at ∞, which
                    // cannot happen for prime r (the final addition is the
                    // last step).
                    debug_assert_eq!(i, 0, "T = -P before the last bit implies order < r");
                }
            } else {
                let lambda = &(yp - &yt) * &(xp - &xt).invert().expect("xp != xt");
                f = &f * &line_value(&lambda, &xt, &yt, xq, yq);
                let x_new = &(&lambda.square() - &xt) - xp;
                let y_new = &(&lambda * &(&xt - &x_new)) - &yt;
                xt = x_new;
                yt = y_new;
            }
        }
    }

    f
}

/// Final exponentiation: `f ↦ f^((q² − 1)/r)` computed in two stages as
/// `(conj(f)/f)^h`, since `(q² − 1)/r = (q − 1)·h` and `f^q = conj(f)`
/// in `F_{q²}` with `q ≡ 3 (mod 4)`.
///
/// After the first stage `u = conj(f)/f` satisfies `norm(u) = 1`, so the
/// dominating `pow(h)` chain runs a signed-digit exponent walk —
/// conjugation is the free inversion the NAF digits need.
///
/// # Errors
///
/// Returns [`PairingError::DegeneratePairing`] when `f = 0` (the former
/// `invert().expect(..)` panic): only reachable with operands outside the
/// order-`r` subgroup, since lines over valid points are units.
pub(crate) fn final_exponentiation(f: &Fp2<8>, h: &Uint<8>) -> Result<Fp2<8>, PairingError> {
    let f_inv = f.invert().map_err(|_| PairingError::DegeneratePairing)?;
    let u = &f.conjugate() * &f_inv;
    debug_assert!(u.norm().is_one(), "f^(q-1) lies in the norm-1 subgroup");
    Ok(u.pow_norm1(h))
}

/// Reference twin of [`final_exponentiation`]: the generic
/// square-and-multiply `pow(h)` chain instead of the cyclotomic one.
/// Retained for differential testing and as the benchmark baseline.
///
/// # Errors
///
/// Returns [`PairingError::DegeneratePairing`] when `f = 0`.
pub(crate) fn final_exponentiation_reference(
    f: &Fp2<8>,
    h: &Uint<8>,
) -> Result<Fp2<8>, PairingError> {
    let f_inv = f.invert().map_err(|_| PairingError::DegeneratePairing)?;
    let u = &f.conjugate() * &f_inv;
    Ok(u.pow(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_field::FieldCtx;

    #[test]
    fn final_exponentiation_rejects_zero_miller_value() {
        // 2^512 - 569 ≡ 3 (mod 4); any 3-mod-4 context works here.
        let p = Uint::<8>::from_hex(
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
             fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffdc7",
        )
        .unwrap();
        let fq = FieldCtx::new(p).unwrap();
        let zero = Fp2::zero(&fq);
        let h = Uint::<8>::from_u64(12345);
        assert_eq!(final_exponentiation(&zero, &h), Err(PairingError::DegeneratePairing));
        assert_eq!(final_exponentiation_reference(&zero, &h), Err(PairingError::DegeneratePairing));
    }

    #[test]
    fn cyclotomic_final_exp_matches_reference() {
        let p = Uint::<8>::from_hex(
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
             fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffdc7",
        )
        .unwrap();
        let fq = FieldCtx::new(p).unwrap();
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..5 {
            let f = Fp2::random(&fq, &mut rng);
            if f.is_zero() {
                continue;
            }
            let h = Uint::<8>::random(&mut rng);
            assert_eq!(
                final_exponentiation(&f, &h).unwrap(),
                final_exponentiation_reference(&f, &h).unwrap()
            );
        }
    }
}

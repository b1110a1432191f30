//! The group `G1`: the order-`r` subgroup of `E(F_q)` for the
//! supersingular curve `E : y² = x³ + x`.

use std::fmt;
use std::sync::Arc;

use sp_bigint::Uint;
use sp_field::{batch_invert, FieldCtx, Fp};

use crate::error::PairingError;

/// Window width shared by the sliding-window and fixed-base multipliers.
/// 4 divides the 64-bit limb size, so digit extraction never crosses a
/// limb boundary.
const WINDOW: u32 = 4;

/// A point on `E(F_q) : y² = x³ + x`, in affine coordinates (or the point
/// at infinity).
///
/// Library users obtain points from [`crate::Pairing`] (generator, hashing,
/// scalar multiplication); the group operation is written additively.
#[derive(Clone, PartialEq, Eq)]
pub struct G1 {
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Infinity,
    Affine { x: Fp<8>, y: Fp<8> },
}

impl G1 {
    /// The point at infinity (group identity).
    pub fn identity() -> Self {
        Self { repr: Repr::Infinity }
    }

    /// Builds a point from affine coordinates, verifying the curve
    /// equation.
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::BadPointEncoding`] if `(x, y)` is not on
    /// the curve.
    pub fn from_affine(x: Fp<8>, y: Fp<8>) -> Result<Self, PairingError> {
        let p = Self { repr: Repr::Affine { x, y } };
        if p.is_on_curve() {
            Ok(p)
        } else {
            Err(PairingError::BadPointEncoding)
        }
    }

    pub(crate) fn from_affine_unchecked(x: Fp<8>, y: Fp<8>) -> Self {
        Self { repr: Repr::Affine { x, y } }
    }

    /// Returns `true` for the point at infinity.
    pub fn is_identity(&self) -> bool {
        matches!(self.repr, Repr::Infinity)
    }

    /// Affine coordinates, or `None` for the point at infinity.
    pub fn coords(&self) -> Option<(&Fp<8>, &Fp<8>)> {
        match &self.repr {
            Repr::Infinity => None,
            Repr::Affine { x, y } => Some((x, y)),
        }
    }

    /// Checks `y² = x³ + x` (vacuously true at infinity).
    pub fn is_on_curve(&self) -> bool {
        match &self.repr {
            Repr::Infinity => true,
            Repr::Affine { x, y } => {
                let lhs = y.square();
                let rhs = &(&x.square() * x) + x;
                lhs == rhs
            }
        }
    }

    /// Group negation: `(x, y) ↦ (x, −y)`.
    pub fn negate(&self) -> Self {
        match &self.repr {
            Repr::Infinity => Self::identity(),
            Repr::Affine { x, y } => Self { repr: Repr::Affine { x: x.clone(), y: -y } },
        }
    }

    /// Point doubling.
    pub fn double(&self) -> Self {
        match &self.repr {
            Repr::Infinity => Self::identity(),
            Repr::Affine { x, y } => {
                if y.is_zero() {
                    // Order-2 point.
                    return Self::identity();
                }
                // λ = (3x² + 1) / 2y   (curve a-coefficient is 1)
                let ctx = x.ctx();
                let three_x2 = {
                    let x2 = x.square();
                    &x2.double() + &x2
                };
                let num = &three_x2 + &ctx.one();
                let den = y.double();
                let lambda = &num * &den.invert().expect("2y nonzero");
                let x3 = &lambda.square() - &x.double();
                let y3 = &(&lambda * &(x - &x3)) - y;
                Self { repr: Repr::Affine { x: x3, y: y3 } }
            }
        }
    }

    /// Group addition.
    pub fn add(&self, other: &Self) -> Self {
        match (&self.repr, &other.repr) {
            (Repr::Infinity, _) => other.clone(),
            (_, Repr::Infinity) => self.clone(),
            (Repr::Affine { x: x1, y: y1 }, Repr::Affine { x: x2, y: y2 }) => {
                if x1 == x2 {
                    if y1 == y2 {
                        return self.double();
                    }
                    // y1 = −y2: vertical line.
                    return Self::identity();
                }
                let lambda = &(y2 - y1) * &(x2 - x1).invert().expect("x2 != x1");
                let x3 = &(&lambda.square() - x1) - x2;
                let y3 = &(&lambda * &(x1 - &x3)) - y1;
                Self { repr: Repr::Affine { x: x3, y: y3 } }
            }
        }
    }

    /// Subtraction: `self + (−other)`.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.negate())
    }

    /// Scalar multiplication by a canonical integer.
    ///
    /// Uses Jacobian projective coordinates internally (one field
    /// inversion total, instead of one per group operation), with a
    /// double-and-add ladder over the scalar bits.
    pub fn mul_uint<const E: usize>(&self, scalar: &Uint<E>) -> Self {
        let bits = scalar.bit_len();
        if bits == 0 || self.is_identity() {
            return Self::identity();
        }
        let (x, y) = self.coords().expect("non-identity");
        let mut acc = Jacobian::from_affine(x.clone(), y.clone());
        for i in (0..bits - 1).rev() {
            acc = acc.double();
            if scalar.bit(i) {
                acc = acc.add_affine(x, y);
            }
        }
        acc.to_g1()
    }

    /// Sliding-window scalar multiplication: precomputes the odd multiples
    /// `P, 3P, …, 15P` (normalized to affine with one shared inversion via
    /// [`batch_invert`]) and consumes up to [`WINDOW`] scalar bits per
    /// group addition — roughly a third of the additions the textbook
    /// ladder in [`G1::mul_uint`] performs.
    ///
    /// Falls back to the textbook ladder for tiny scalars (precomputation
    /// would dominate) and for points of small order where an odd multiple
    /// hits the identity (possible before cofactor clearing).
    pub fn mul_uint_window<const E: usize>(&self, scalar: &Uint<E>) -> Self {
        let bits = scalar.bit_len();
        if bits == 0 || self.is_identity() {
            return Self::identity();
        }
        if bits <= WINDOW + 1 {
            return self.mul_uint(scalar);
        }
        let table = self.odd_multiples(1 << (WINDOW - 1));
        if table.iter().any(G1::is_identity) {
            return self.mul_uint(scalar);
        }
        let (x, _) = self.coords().expect("non-identity");
        let mut acc = Jacobian::identity(x.ctx());
        let mut i = i64::from(bits) - 1;
        while i >= 0 {
            if !scalar.bit(i as u32) {
                acc = acc.double();
                i -= 1;
                continue;
            }
            // Widest window of at most WINDOW bits that starts and ends
            // with a set bit (so the digit is odd and in the table).
            let mut j = (i - (i64::from(WINDOW) - 1)).max(0);
            while !scalar.bit(j as u32) {
                j += 1;
            }
            let width = (i - j + 1) as u32;
            for _ in 0..width {
                acc = acc.double();
            }
            let mut digit = 0usize;
            for b in (j..=i).rev() {
                digit = (digit << 1) | usize::from(scalar.bit(b as u32));
            }
            let (tx, ty) = table[(digit - 1) / 2].coords().expect("odd multiples checked");
            acc = acc.add_affine(tx, ty);
            i = j - 1;
        }
        acc.to_g1()
    }

    /// The odd multiples `[1]P, [3]P, …, [2·count − 1]P`, batch-normalized
    /// to affine with a single field inversion.
    fn odd_multiples(&self, count: usize) -> Vec<G1> {
        let (x, y) = self.coords().expect("non-identity");
        let first = Jacobian::from_affine(x.clone(), y.clone());
        let twice = first.double();
        let mut jac = Vec::with_capacity(count);
        jac.push(first);
        for i in 1..count {
            jac.push(jac[i - 1].add(&twice));
        }
        Jacobian::batch_to_g1(&jac)
    }

    /// Simultaneous double-scalar multiplication `[a]self + [b]other`:
    /// one shared doubling chain with per-scalar sliding-window tables
    /// (windowed Straus interleaving). This is the exact shape Schnorr
    /// verification evaluates (`[s]G + [−c]P`), at roughly the cost of a
    /// single windowed ladder plus one extra table.
    pub fn double_scalar_mul<const E: usize>(
        &self,
        a: &Uint<E>,
        other: &Self,
        b: &Uint<E>,
    ) -> Self {
        straus_windowed(&[(self, a), (other, b)])
    }

    /// The pre-optimization double-scalar ladder: a shared bit-at-a-time
    /// chain over the 4-entry `{P, Q, P+Q}` table. Retained as the
    /// reference implementation [`G1::double_scalar_mul`] is
    /// differential-tested against.
    pub fn double_scalar_mul_reference<const E: usize>(
        &self,
        a: &Uint<E>,
        other: &Self,
        b: &Uint<E>,
    ) -> Self {
        let bits = a.bit_len().max(b.bit_len());
        if bits == 0 {
            return Self::identity();
        }
        let sum = self.add(other);
        let mut acc = Self::identity();
        for i in (0..bits).rev() {
            acc = acc.double();
            match (a.bit(i), b.bit(i)) {
                (true, true) => acc = acc.add(&sum),
                (true, false) => acc = acc.add(self),
                (false, true) => acc = acc.add(other),
                (false, false) => {}
            }
        }
        acc
    }

    /// Scalar multiplication using the naive affine double-and-add;
    /// retained as the reference implementation the Jacobian path is
    /// tested against.
    pub fn mul_uint_affine<const E: usize>(&self, scalar: &Uint<E>) -> Self {
        let bits = scalar.bit_len();
        if bits == 0 || self.is_identity() {
            return Self::identity();
        }
        let mut acc = self.clone();
        for i in (0..bits - 1).rev() {
            acc = acc.double();
            if scalar.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Exact length of the [`G1::to_bytes`] encoding of this point —
    /// serializers pre-size their buffers from it.
    pub fn encoded_len(&self) -> usize {
        match &self.repr {
            Repr::Infinity => 1,
            Repr::Affine { .. } => 1 + 128,
        }
    }

    /// Fixed-length encoding: a tag byte (`0` infinity, `1` affine)
    /// followed by `x ‖ y` for affine points.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_bytes(&mut out);
        out
    }

    /// Appends the [`G1::to_bytes`] encoding to `out` without intermediate
    /// allocations (the coordinates stream their limbs directly).
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        match &self.repr {
            Repr::Infinity => out.push(0u8),
            Repr::Affine { x, y } => {
                out.reserve(1 + 128);
                out.push(1u8);
                x.write_be_bytes(out);
                y.write_be_bytes(out);
            }
        }
    }

    /// Decodes a point produced by [`G1::to_bytes`], verifying the curve
    /// equation.
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::BadPointEncoding`] for malformed or
    /// off-curve encodings.
    pub fn from_bytes(fq: &Arc<FieldCtx<8>>, bytes: &[u8]) -> Result<Self, PairingError> {
        match bytes.first() {
            Some(0) if bytes.len() == 1 => Ok(Self::identity()),
            Some(1) if bytes.len() == 1 + 128 => {
                let x =
                    fq.from_be_bytes(&bytes[1..65]).map_err(|_| PairingError::BadPointEncoding)?;
                let y = fq
                    .from_be_bytes(&bytes[65..129])
                    .map_err(|_| PairingError::BadPointEncoding)?;
                Self::from_affine(x, y)
            }
            _ => Err(PairingError::BadPointEncoding),
        }
    }

    /// Compressed encoding: a tag byte (`0` infinity; `2`/`3` for even/odd
    /// `y`) followed by `x` — 65 bytes instead of 129 for affine points.
    pub fn to_bytes_compressed(&self) -> Vec<u8> {
        match &self.repr {
            Repr::Infinity => vec![0u8],
            Repr::Affine { x, y } => {
                let mut out = Vec::with_capacity(65);
                out.push(if y.to_uint().is_odd() { 3 } else { 2 });
                x.write_be_bytes(&mut out);
                out
            }
        }
    }

    /// Decodes a compressed point: recomputes `y = ±√(x³ + x)` and picks
    /// the root matching the parity tag.
    ///
    /// # Errors
    ///
    /// Returns [`PairingError::BadPointEncoding`] for malformed tags,
    /// wrong lengths, or `x` values with no square root (off-curve).
    pub fn from_bytes_compressed(
        fq: &Arc<FieldCtx<8>>,
        bytes: &[u8],
    ) -> Result<Self, PairingError> {
        match bytes.first() {
            Some(0) if bytes.len() == 1 => Ok(Self::identity()),
            Some(tag @ (2 | 3)) if bytes.len() == 65 => {
                let x =
                    fq.from_be_bytes(&bytes[1..]).map_err(|_| PairingError::BadPointEncoding)?;
                let rhs = &(&x.square() * &x) + &x;
                let y = rhs.sqrt().ok_or(PairingError::BadPointEncoding)?;
                let want_odd = *tag == 3;
                let y = if y.to_uint().is_odd() == want_odd { y } else { -&y };
                // sqrt(0) = 0 cannot satisfy an odd-parity tag.
                if y.is_zero() && want_odd {
                    return Err(PairingError::BadPointEncoding);
                }
                Ok(Self::from_affine_unchecked(x, y))
            }
            _ => Err(PairingError::BadPointEncoding),
        }
    }
}

/// Sliding-window digit decomposition: `(shift, digit)` pairs in
/// descending shift order with every digit odd and below `2^WINDOW`, such
/// that `scalar = Σ digit·2^shift` (same windowing rule as
/// [`G1::mul_uint_window`]).
fn sliding_window_digits<const E: usize>(scalar: &Uint<E>) -> Vec<(u32, usize)> {
    let mut out = Vec::new();
    let bits = scalar.bit_len();
    let mut i = i64::from(bits) - 1;
    while i >= 0 {
        if !scalar.bit(i as u32) {
            i -= 1;
            continue;
        }
        let mut j = (i - (i64::from(WINDOW) - 1)).max(0);
        while !scalar.bit(j as u32) {
            j += 1;
        }
        let mut digit = 0usize;
        for b in (j..=i).rev() {
            digit = (digit << 1) | usize::from(scalar.bit(b as u32));
        }
        out.push((j as u32, digit));
        i = j - 1;
    }
    out
}

/// Windowed Straus interleaving: one shared doubling chain over the
/// widest scalar, with each term consuming its own sliding-window digits
/// against its own odd-multiples table. Terms with an identity point or a
/// zero scalar contribute nothing.
fn straus_windowed<const E: usize>(terms: &[(&G1, &Uint<E>)]) -> G1 {
    let live: Vec<(&G1, &Uint<E>)> =
        terms.iter().copied().filter(|(p, s)| !p.is_identity() && s.bit_len() > 0).collect();
    let Some((first, _)) = live.first() else {
        return G1::identity();
    };
    // Small-order points can surface the identity among the odd multiples
    // (possible before cofactor clearing); fall back to independent
    // ladders rather than special-casing the tables.
    let tables: Vec<Vec<G1>> =
        live.iter().map(|(p, _)| p.odd_multiples(1 << (WINDOW - 1))).collect();
    if tables.iter().flatten().any(G1::is_identity) {
        return live.iter().fold(G1::identity(), |acc, (p, s)| acc.add(&p.mul_uint(s)));
    }
    let digits: Vec<Vec<(u32, usize)>> =
        live.iter().map(|(_, s)| sliding_window_digits(s)).collect();
    let max_bit = live.iter().map(|(_, s)| s.bit_len() - 1).max().expect("nonempty");
    let ctx = first.coords().expect("non-identity").0.ctx();
    let mut acc = Jacobian::identity(ctx);
    let mut next = vec![0usize; live.len()];
    for i in (0..=max_bit).rev() {
        acc = acc.double();
        for (t, digs) in digits.iter().enumerate() {
            // `shift` is the *low* bit of the window; adding here leaves
            // exactly `shift` doublings, scaling the entry by `2^shift`.
            if let Some(&(shift, digit)) = digs.get(next[t]) {
                if shift == i {
                    let (ex, ey) =
                        tables[t][(digit - 1) / 2].coords().expect("checked non-identity");
                    acc = acc.add_affine(ex, ey);
                    next[t] += 1;
                }
            }
        }
    }
    acc.to_g1()
}

/// A point in Jacobian projective coordinates: `(X, Y, Z)` represents the
/// affine point `(X/Z², Y/Z³)`; `Z = 0` is the identity. Internal to
/// scalar multiplication — only normalized affine points cross the API.
#[derive(Clone)]
struct Jacobian {
    x: Fp<8>,
    y: Fp<8>,
    z: Fp<8>,
}

impl Jacobian {
    fn from_affine(x: Fp<8>, y: Fp<8>) -> Self {
        let z = x.ctx().one();
        Self { x, y, z }
    }

    fn identity(ctx: &Arc<FieldCtx<8>>) -> Self {
        Self { x: ctx.one(), y: ctx.one(), z: ctx.zero() }
    }

    fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Doubling on `y² = x³ + a·x` with `a = 1`:
    /// `S = 4XY²`, `M = 3X² + Z⁴`, `X' = M² − 2S`,
    /// `Y' = M(S − X') − 8Y⁴`, `Z' = 2YZ`.
    fn double(&self) -> Self {
        if self.is_identity() || self.y.is_zero() {
            return Self::identity(self.x.ctx());
        }
        let y2 = self.y.square();
        let s = (&self.x * &y2).double().double(); // 4XY²
        let m = {
            let x2 = self.x.square();
            let z2 = self.z.square();
            &(&x2.double() + &x2) + &z2.square() // 3X² + Z⁴ (a = 1)
        };
        let x3 = &m.square() - &s.double();
        let y3 = &(&m * &(&s - &x3)) - &y2.square().double().double().double(); // 8Y⁴
        let z3 = (&self.y * &self.z).double();
        Self { x: x3, y: y3, z: z3 }
    }

    /// Mixed addition with an affine point `(x2, y2)`.
    fn add_affine(&self, x2: &Fp<8>, y2: &Fp<8>) -> Self {
        if self.is_identity() {
            return Self::from_affine(x2.clone(), y2.clone());
        }
        let z1z1 = self.z.square();
        let u2 = x2 * &z1z1;
        let s2 = &(y2 * &self.z) * &z1z1;
        let h = &u2 - &self.x;
        let r = &s2 - &self.y;
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Self::identity(self.x.ctx());
        }
        let h2 = h.square();
        let h3 = &h2 * &h;
        let x1h2 = &self.x * &h2;
        let x3 = &(&r.square() - &h3) - &x1h2.double();
        let y3 = &(&r * &(&x1h2 - &x3)) - &(&self.y * &h3);
        let z3 = &self.z * &h;
        Self { x: x3, y: y3, z: z3 }
    }

    /// Full Jacobian–Jacobian addition.
    fn add(&self, other: &Self) -> Self {
        if self.is_identity() {
            return other.clone();
        }
        if other.is_identity() {
            return self.clone();
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = &self.x * &z2z2;
        let u2 = &other.x * &z1z1;
        let s1 = &(&self.y * &other.z) * &z2z2;
        let s2 = &(&other.y * &self.z) * &z1z1;
        let h = &u2 - &u1;
        let r = &s2 - &s1;
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Self::identity(self.x.ctx());
        }
        let h2 = h.square();
        let h3 = &h2 * &h;
        let u1h2 = &u1 * &h2;
        let x3 = &(&r.square() - &h3) - &u1h2.double();
        let y3 = &(&r * &(&u1h2 - &x3)) - &(&s1 * &h3);
        let z3 = &(&self.z * &other.z) * &h;
        Self { x: x3, y: y3, z: z3 }
    }

    /// Normalizes back to an affine [`G1`] (the one inversion).
    fn to_g1(&self) -> G1 {
        if self.is_identity() {
            return G1::identity();
        }
        let z_inv = self.z.invert().expect("nonzero z");
        let z_inv2 = z_inv.square();
        let x = &self.x * &z_inv2;
        let y = &(&self.y * &z_inv2) * &z_inv;
        G1::from_affine_unchecked(x, y)
    }

    /// Normalizes a whole slice with **one** field inversion total
    /// (Montgomery's trick over the `Z` coordinates). Identity inputs map
    /// to [`G1::identity`].
    fn batch_to_g1(points: &[Self]) -> Vec<G1> {
        let mut z_invs: Vec<Fp<8>> = points.iter().map(|p| p.z.clone()).collect();
        batch_invert(&mut z_invs);
        points
            .iter()
            .zip(&z_invs)
            .map(|(p, z_inv)| {
                if z_inv.is_zero() {
                    return G1::identity();
                }
                let z_inv2 = z_inv.square();
                let x = &p.x * &z_inv2;
                let y = &(&p.y * &z_inv2) * z_inv;
                G1::from_affine_unchecked(x, y)
            })
            .collect()
    }
}

/// A fixed-base precomputation table: for a base point `P` and window
/// width [`WINDOW`] `= w`, entry `table[i][d − 1]` holds the affine point
/// `[d · 2^{w·i}]P`. A scalar multiplication then reads the scalar in
/// `w`-bit digits and performs one mixed addition per nonzero digit —
/// **no doublings at all** — which is several times faster than the
/// double-and-add ladder for the generator and public-key points that are
/// multiplied thousands of times per protocol run.
///
/// Tables are built once (all entries normalized to affine with a single
/// shared inversion via [`batch_invert`]) and cached by the callers in
/// `Pairing` / `PublicKey`.
pub struct FixedBaseTable {
    /// `table[i][d - 1] = [d · 2^{WINDOW·i}]P`, rows in ascending `i`.
    table: Vec<Vec<G1>>,
    /// The base point, kept for fallback when a scalar outruns the table.
    base: G1,
}

impl FixedBaseTable {
    /// Builds the table covering scalars of up to `bits` bits.
    pub fn new(base: &G1, bits: u32) -> Self {
        let Some((x, y)) = base.coords() else {
            return Self { table: Vec::new(), base: G1::identity() };
        };
        let windows = bits.div_ceil(WINDOW) as usize;
        let per_row = (1usize << WINDOW) - 1;
        // All rows in Jacobian first; one batch normalization at the end.
        let mut jac: Vec<Jacobian> = Vec::with_capacity(windows * per_row);
        let mut row_base = Jacobian::from_affine(x.clone(), y.clone());
        for _ in 0..windows {
            let mut cur = row_base.clone();
            jac.push(cur.clone());
            for _ in 2..=per_row {
                cur = cur.add(&row_base);
                jac.push(cur.clone());
            }
            for _ in 0..WINDOW {
                row_base = row_base.double();
            }
        }
        let affine = Jacobian::batch_to_g1(&jac);
        let table = affine.chunks(per_row).map(<[G1]>::to_vec).collect();
        Self { table, base: base.clone() }
    }

    /// Scalar multiplication `[scalar]P` off the table: one mixed addition
    /// per nonzero `WINDOW`-bit digit of the scalar.
    pub fn mul<const E: usize>(&self, scalar: &Uint<E>) -> G1 {
        let bits = scalar.bit_len();
        if bits == 0 || self.base.is_identity() {
            return G1::identity();
        }
        let windows = bits.div_ceil(WINDOW) as usize;
        if windows > self.table.len() {
            // Scalar wider than the table was built for.
            return self.base.mul_uint_window(scalar);
        }
        let (x, _) = self.base.coords().expect("non-identity base");
        let mut acc = Jacobian::identity(x.ctx());
        let limbs = scalar.limbs();
        let mask = (1u64 << WINDOW) - 1;
        for (i, row) in self.table.iter().enumerate().take(windows) {
            let bit_pos = i as u32 * WINDOW;
            // WINDOW divides 64, so a digit never crosses a limb boundary.
            let digit = (limbs[(bit_pos / 64) as usize] >> (bit_pos % 64)) & mask;
            if digit == 0 {
                continue;
            }
            // The identity case is unreachable for order-r bases
            // (d < 16 < r) but tolerated for small-order points.
            if let Some((ex, ey)) = row[digit as usize - 1].coords() {
                acc = acc.add_affine(ex, ey);
            }
        }
        acc.to_g1()
    }
}

impl fmt::Debug for G1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for G1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Infinity => f.write_str("G1(inf)"),
            Repr::Affine { x, y } => write!(f, "G1({x}, {y})"),
        }
    }
}

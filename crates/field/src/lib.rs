//! Prime fields and quadratic extensions.
//!
//! Builds on [`sp_bigint`] to provide ergonomic field elements:
//!
//! * [`FieldCtx`] — a shared context (modulus + Montgomery tables) for a
//!   prime field `F_p`,
//! * [`Fp`] — an element of `F_p`, carrying an [`std::sync::Arc`] to its
//!   context so elements compose with plain operators,
//! * [`Fp2`] — the quadratic extension `F_p[i]/(i² + 1)` for primes
//!   `p ≡ 3 (mod 4)`, the target-field substrate of the Type-A pairing,
//! * [`fp2_mul_raw`] / [`fp2_square_raw`] — the `F_{p²}` multiply and
//!   square on raw Montgomery coefficients, which [`Fp2`] and the
//!   pairing's Miller loop share.
//!
//! # Example
//!
//! ```
//! use sp_bigint::Uint;
//! use sp_field::FieldCtx;
//!
//! let ctx = FieldCtx::<4>::new(Uint::from_u64(1_000_003))?;
//! let a = ctx.element(Uint::from_u64(2));
//! let b = ctx.element(Uint::from_u64(3));
//! assert_eq!((&a + &b) * &a, ctx.element(Uint::from_u64(10)));
//! assert_eq!(&a * &a.invert().unwrap(), ctx.one());
//! # Ok::<(), sp_field::FieldError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
mod fp;
mod fp2;

pub use batch::batch_invert;
pub use error::FieldError;
pub use fp::{FieldCtx, Fp};
pub use fp2::{fp2_mul_raw, fp2_square_raw, Fp2};

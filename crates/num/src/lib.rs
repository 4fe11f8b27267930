//! # cqa-num — exact arithmetic for CQA/CDB
//!
//! The constraint data model of CQA/CDB is *rational linear* constraints:
//! every coefficient, constant, and query answer is a rational number with
//! arbitrary-precision integer numerator and denominator. Quantifier
//! elimination (Fourier–Motzkin) multiplies constraints together, so
//! coefficients can grow beyond any fixed-width integer; this crate provides
//! the exact arithmetic substrate the rest of the system is built on.
//!
//! Two types are exported:
//!
//! * [`BigInt`] — a sign–magnitude arbitrary-precision integer.
//! * [`Rat`] — a normalized rational number (`BigInt` numerator over a
//!   strictly positive `BigInt` denominator).
//!
//! Both are fully owned, hashable, totally ordered values, suitable as keys
//! in maps and as tuple components in constraint relations.
//!
//! ```
//! use cqa_num::{BigInt, Rat};
//!
//! let a = Rat::from_decimal_str("2.5").unwrap();
//! let b = Rat::new(BigInt::from(1), BigInt::from(2)); // 1/2
//! assert_eq!((a * b).to_string(), "5/4");
//! ```

mod bigint;
pub mod par;
pub mod prng;
mod rat;

pub use bigint::{BigInt, ParseBigIntError, Sign};
pub use rat::{enclose, ParseRatError, Rat, WIDEN_EPS};

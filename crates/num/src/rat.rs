//! Exact rational numbers.
//!
//! A [`Rat`] is always kept in canonical form: numerator and denominator
//! share no common factor, the denominator is strictly positive, and zero is
//! `0/1`. Canonical form makes the derived `Eq`/`Hash` structural equality
//! coincide with numeric equality, so rationals can key hash maps directly.

use crate::bigint::{BigInt, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number with arbitrary-precision components.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: BigInt,
    /// Strictly positive and coprime with `num`.
    den: BigInt,
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    /// The offending input.
    pub input: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {:?}", self.input)
    }
}

impl std::error::Error for ParseRatError {}

/// Relative outward margin of [`enclose`]: [`Rat::to_f64`] errs by less
/// than 2⁻⁵⁰ relative outside the subnormal range, and by less than 2⁻¹⁰²²
/// absolute inside it, so `1e-9·(1 + |x|)` dominates both.
pub const WIDEN_EPS: f64 = 1e-9;

/// The interval `x ∓ WIDEN_EPS·(1 + |x|)`, or `(−∞, +∞)` when `x` is not
/// finite: it encloses every exact value that `x` approximates to within
/// a small fraction of that margin, as [`Rat::to_f64`] does.
pub fn enclose(x: f64) -> (f64, f64) {
    if !x.is_finite() {
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    let pad = WIDEN_EPS * (1.0 + x.abs());
    (x - pad, x + pad)
}

impl Rat {
    /// Builds `num / den` in canonical form.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Rat {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Rat::zero();
        }
        let g = num.gcd(&den);
        let (mut num, mut den) = (&num / &g, &den / &g);
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// The rational zero.
    pub fn zero() -> Rat {
        Rat { num: BigInt::zero(), den: BigInt::one() }
    }

    /// The rational one.
    pub fn one() -> Rat {
        Rat { num: BigInt::one(), den: BigInt::one() }
    }

    /// An integer-valued rational.
    pub fn from_int(v: i64) -> Rat {
        Rat { num: BigInt::from(v), den: BigInt::one() }
    }

    /// `p / q` from machine integers.
    ///
    /// # Panics
    /// Panics if `q` is zero.
    pub fn from_pair(p: i64, q: i64) -> Rat {
        Rat::new(BigInt::from(p), BigInt::from(q))
    }

    /// Parses a decimal literal such as `"3"`, `"-2.75"`, or `".5"`.
    pub fn from_decimal_str(s: &str) -> Result<Rat, ParseRatError> {
        let err = || ParseRatError { input: s.to_string() };
        let (sign, body) = match s.as_bytes().first() {
            Some(b'-') => (-1i64, &s[1..]),
            Some(b'+') => (1, &s[1..]),
            _ => (1, s),
        };
        let (int_part, frac_part) = match body.split_once('.') {
            Some((i, f)) => (i, f),
            None => (body, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(err());
        }
        let digits_ok = |d: &str| d.bytes().all(|b| b.is_ascii_digit());
        if !digits_ok(int_part) || !digits_ok(frac_part) {
            return Err(err());
        }
        let joined = format!("{}{}", int_part, frac_part);
        let num: BigInt = if joined.is_empty() {
            BigInt::zero()
        } else {
            joined.parse().map_err(|_| err())?
        };
        let den = BigInt::from(10i64).pow(frac_part.len() as u32);
        Ok(Rat::new(BigInt::from(sign) * num, den))
    }

    /// The numerator (canonical form).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// The denominator (canonical form, strictly positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Whether this value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Whether this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Whether this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Whether this value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        self.num.sign()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        Rat { num: self.num.abs(), den: self.den.clone() }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rat::new(self.den.clone(), self.num.clone())
    }

    /// Largest integer not greater than `self`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.divrem(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Smallest integer not less than `self`.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.divrem(&self.den);
        if r.is_positive() {
            q + BigInt::one()
        } else {
            q
        }
    }

    /// Best-effort `f64` approximation, finite and nonzero whenever the
    /// value is within the `f64` range.
    ///
    /// Each component keeps only its top 64 bits — shifted separately, so
    /// a short component never truncates to zero next to a long one — and
    /// the exponent difference is applied last. Two truncations (≤ 2⁻⁶³
    /// each) and three roundings (≤ 2⁻⁵³ each) keep the relative error
    /// below 2⁻⁵⁰ outside the subnormal range.
    pub fn to_f64(&self) -> f64 {
        fn top64(b: &BigInt) -> (f64, i64) {
            match b.bits().saturating_sub(64) {
                0 => (b.to_f64(), 0),
                shift => (b.shr(shift as u32).to_f64(), shift as i64),
            }
        }
        let (n, ne) = top64(&self.num);
        let (d, de) = top64(&self.den);
        // |n / d| lies within 2^±64, so an exponent beyond ±1200 already
        // saturates to infinity or zero.
        let mut e = (ne - de).clamp(-1200, 1200);
        let mut q = n / d;
        while e != 0 {
            let step = e.clamp(-1000, 1000);
            q *= f64::from_bits(((1023 + step) as u64) << 52); // 2^step, exact
            e -= step;
        }
        q
    }

    /// An `f64` interval `(lo, hi)` that contains `self`: the
    /// [`Rat::to_f64`] image moved outward by [`enclose`]; `(−∞, +∞)` when
    /// the image is not finite.
    ///
    /// This is the one rounding rule behind every float box a filter step
    /// builds from exact values: such a box must contain the exact one.
    pub fn to_f64_enclosure(&self) -> (f64, f64) {
        enclose(self.to_f64())
    }

    /// Renders as a decimal string with at most `max_frac` fraction
    /// digits. The second component is `true` when the rendering is exact
    /// (the expansion terminates within the limit); otherwise the result
    /// is truncated toward zero.
    pub fn to_decimal(&self, max_frac: usize) -> (String, bool) {
        let negative = self.is_negative();
        let num = self.num.abs();
        let (int_part, mut rem) = num.divrem(&self.den);
        let mut digits = String::new();
        let ten = BigInt::from(10i64);
        for _ in 0..max_frac {
            if rem.is_zero() {
                break;
            }
            rem = &rem * &ten;
            let (d, r) = rem.divrem(&self.den);
            digits.push_str(&d.to_string());
            rem = r;
        }
        let exact = rem.is_zero();
        // Trim trailing zeros in the fraction.
        while digits.ends_with('0') {
            digits.pop();
        }
        let mut out = String::new();
        if negative && (!int_part.is_zero() || !digits.is_empty()) {
            out.push('-');
        }
        out.push_str(&int_part.to_string());
        if !digits.is_empty() {
            out.push('.');
            out.push_str(&digits);
        }
        (out, exact)
    }

    /// Minimum of two rationals (by value).
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals (by value).
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::zero()
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::from_int(v)
    }
}

impl From<BigInt> for Rat {
    fn from(v: BigInt) -> Rat {
        Rat { num: v, den: BigInt::one() }
    }
}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses either `p/q` fraction syntax or decimal syntax.
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        let err = || ParseRatError { input: s.to_string() };
        if let Some((p, q)) = s.split_once('/') {
            let p: BigInt = p.trim().parse().map_err(|_| err())?;
            let q: BigInt = q.trim().parse().map_err(|_| err())?;
            if q.is_zero() {
                return Err(err());
            }
            Ok(Rat::new(p, q))
        } else {
            Rat::from_decimal_str(s.trim())
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({})", self)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -&self.num, den: self.den.clone() }
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(mut self) -> Rat {
        self.num = -self.num;
        self
    }
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, other: &Rat) -> Rat {
        Rat::new(
            &self.num * &other.den + &other.num * &self.den,
            &self.den * &other.den,
        )
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, other: &Rat) -> Rat {
        Rat::new(
            &self.num * &other.den - &other.num * &self.den,
            &self.den * &other.den,
        )
    }
}

impl Mul for &Rat {
    type Output = Rat;
    fn mul(self, other: &Rat) -> Rat {
        Rat::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &Rat {
    type Output = Rat;
    fn div(self, other: &Rat) -> Rat {
        assert!(!other.is_zero(), "rational division by zero");
        Rat::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_owned_binop {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, other: Rat) -> Rat {
                $trait::$method(&self, &other)
            }
        }
        impl $trait<&Rat> for Rat {
            type Output = Rat;
            fn $method(self, other: &Rat) -> Rat {
                $trait::$method(&self, other)
            }
        }
        impl $trait<Rat> for &Rat {
            type Output = Rat;
            fn $method(self, other: Rat) -> Rat {
                $trait::$method(self, &other)
            }
        }
    )*};
}

forward_owned_binop!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, other: &Rat) {
        *self = &*self + other;
    }
}

impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, other: &Rat) {
        *self = &*self - other;
    }
}

impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, other: &Rat) {
        *self = &*self * other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: i64, q: i64) -> Rat {
        Rat::from_pair(p, q)
    }

    #[test]
    fn canonical_form() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rat::zero());
        assert!(r(3, -6).denom().is_positive());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(1, 2).recip(), r(2, 1));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rat::one());
        let mut v = vec![r(1, 2), r(-3, 4), Rat::zero(), r(5, 3)];
        v.sort();
        assert_eq!(v, vec![r(-3, 4), Rat::zero(), r(1, 2), r(5, 3)]);
    }

    #[test]
    fn parse_decimal() {
        assert_eq!(Rat::from_decimal_str("2.5").unwrap(), r(5, 2));
        assert_eq!(Rat::from_decimal_str("-0.25").unwrap(), r(-1, 4));
        assert_eq!(Rat::from_decimal_str(".5").unwrap(), r(1, 2));
        assert_eq!(Rat::from_decimal_str("3.").unwrap(), r(3, 1));
        assert_eq!(Rat::from_decimal_str("007").unwrap(), r(7, 1));
        assert!(Rat::from_decimal_str("").is_err());
        assert!(Rat::from_decimal_str(".").is_err());
        assert!(Rat::from_decimal_str("1.2.3").is_err());
        assert!(Rat::from_decimal_str("a").is_err());
    }

    #[test]
    fn parse_fraction() {
        assert_eq!("7/2".parse::<Rat>().unwrap(), r(7, 2));
        assert_eq!("-7/2".parse::<Rat>().unwrap(), r(-7, 2));
        assert_eq!("7/-2".parse::<Rat>().unwrap(), r(-7, 2));
        assert!("7/0".parse::<Rat>().is_err());
        assert_eq!("2.5".parse::<Rat>().unwrap(), r(5, 2));
    }

    #[test]
    fn display() {
        assert_eq!(r(5, 2).to_string(), "5/2");
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(-1, 3).to_string(), "-1/3");
        assert_eq!(Rat::zero().to_string(), "0");
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(r(6, 2).floor(), BigInt::from(3));
        assert_eq!(r(6, 2).ceil(), BigInt::from(3));
    }

    #[test]
    fn to_f64() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(r(-3, 4).to_f64(), -0.75);
        // Huge magnitudes still give a usable approximation.
        let huge = Rat::new(BigInt::from(3).pow(2000), BigInt::from(3).pow(2000) * BigInt::from(2));
        assert!((huge.to_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn to_f64_beyond_900_bits() {
        let p901 = BigInt::one().shl(901);
        let f901 = 2f64.powi(901);
        assert_eq!(Rat::new(p901.clone(), BigInt::from(3)).to_f64(), f901 / 3.0);
        assert_eq!(Rat::from(p901.clone()).to_f64(), f901);
        assert_eq!(Rat::new(BigInt::from(3), p901.clone()).to_f64(), 3.0 / f901);
        assert_eq!(Rat::new(-p901.clone(), BigInt::from(3)).to_f64(), -f901 / 3.0);
        // Truly out of range: saturates rather than wrapping.
        assert_eq!(Rat::from(BigInt::one().shl(1100)).to_f64(), f64::INFINITY);
        assert_eq!(Rat::new(BigInt::one(), BigInt::one().shl(1100)).to_f64(), 0.0);
    }

    #[test]
    fn min_max() {
        assert_eq!(r(1, 2).min(r(1, 3)), r(1, 3));
        assert_eq!(r(1, 2).max(r(1, 3)), r(1, 2));
    }

    #[test]
    fn to_decimal() {
        assert_eq!(r(5, 2).to_decimal(6), ("2.5".to_string(), true));
        assert_eq!(r(-1, 4).to_decimal(6), ("-0.25".to_string(), true));
        assert_eq!(r(7, 1).to_decimal(6), ("7".to_string(), true));
        assert_eq!(Rat::zero().to_decimal(6), ("0".to_string(), true));
        let (s, exact) = r(1, 3).to_decimal(4);
        assert_eq!(s, "0.3333");
        assert!(!exact);
        let (s, exact) = r(-1, 3).to_decimal(2);
        assert_eq!(s, "-0.33");
        assert!(!exact);
        // Terminates exactly at the limit.
        assert_eq!(r(1, 8).to_decimal(3), ("0.125".to_string(), true));
        let (_, exact) = r(1, 8).to_decimal(2);
        assert!(!exact);
    }

    #[test]
    fn hash_consistency() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(r(2, 4));
        assert!(set.contains(&r(1, 2)));
    }
}

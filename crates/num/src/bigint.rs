//! Sign–magnitude arbitrary-precision integers.
//!
//! The magnitude is a little-endian vector of 32-bit limbs with no trailing
//! zero limbs; the canonical zero has an empty magnitude and [`Sign::Zero`].
//! Division is Knuth's Algorithm D. The representation favours simplicity
//! and correctness: constraint-database coefficients are typically a handful
//! of limbs, so asymptotically fancy multiplication is not worth its
//! complexity here.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

const BASE_BITS: u32 = 32;

/// Sign of a [`BigInt`]. Zero is its own sign so that the representation of
/// zero is unique (empty magnitude), which keeps `Eq`/`Hash` structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Minus,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Plus,
}

impl Sign {
    fn negate(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }

    fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Plus, Sign::Plus) | (Sign::Minus, Sign::Minus) => Sign::Plus,
            _ => Sign::Minus,
        }
    }
}

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian base-2^32 limbs; empty iff the value is zero; the most
    /// significant limb is never zero.
    mag: Vec<u32>,
}

/// Error returned when parsing a [`BigInt`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    /// The offending input.
    pub input: String,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal: {:?}", self.input)
    }
}

impl std::error::Error for ParseBigIntError {}

// ---------------------------------------------------------------------------
// Magnitude (unsigned) helpers. All operate on trimmed little-endian limbs.
// ---------------------------------------------------------------------------

fn trim(mag: &mut Vec<u32>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in long.iter().enumerate() {
        let s = limb as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
        out.push(s as u32);
        carry = s >> BASE_BITS;
    }
    if carry != 0 {
        out.push(carry as u32);
    }
    out
}

/// Requires `a >= b`.
fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i64;
    for (i, &limb) in a.iter().enumerate() {
        let d = limb as i64 - b.get(i).copied().unwrap_or(0) as i64 - borrow;
        if d < 0 {
            out.push((d + (1i64 << BASE_BITS)) as u32);
            borrow = 1;
        } else {
            out.push(d as u32);
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0);
    trim(&mut out);
    out
}

fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u32; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (j, &y) in b.iter().enumerate() {
            let t = x as u64 * y as u64 + out[i + j] as u64 + carry;
            out[i + j] = t as u32;
            carry = t >> BASE_BITS;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u64 + carry;
            out[k] = t as u32;
            carry = t >> BASE_BITS;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

fn shl_mag(a: &[u32], bits: u32) -> Vec<u32> {
    if a.is_empty() {
        return Vec::new();
    }
    let limb_shift = (bits / BASE_BITS) as usize;
    let bit_shift = bits % BASE_BITS;
    let mut out = vec![0u32; limb_shift];
    if bit_shift == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry = 0u32;
        for &x in a {
            out.push((x << bit_shift) | carry);
            carry = x >> (BASE_BITS - bit_shift);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    trim(&mut out);
    out
}

fn shr_mag(a: &[u32], bits: u32) -> Vec<u32> {
    let limb_shift = (bits / BASE_BITS) as usize;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let bit_shift = bits % BASE_BITS;
    let mut out = Vec::with_capacity(a.len() - limb_shift);
    if bit_shift == 0 {
        out.extend_from_slice(&a[limb_shift..]);
    } else {
        let src = &a[limb_shift..];
        for i in 0..src.len() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            out.push((src[i] >> bit_shift) | (hi << (BASE_BITS - bit_shift)));
        }
    }
    trim(&mut out);
    out
}

/// Divide `u` by the single limb `v`, returning (quotient, remainder).
fn divrem_mag_small(u: &[u32], v: u32) -> (Vec<u32>, u32) {
    debug_assert!(v != 0);
    let mut q = vec![0u32; u.len()];
    let mut rem = 0u64;
    for i in (0..u.len()).rev() {
        let cur = (rem << BASE_BITS) | u[i] as u64;
        q[i] = (cur / v as u64) as u32;
        rem = cur % v as u64;
    }
    trim(&mut q);
    (q, rem as u32)
}

/// Knuth Algorithm D long division of magnitudes. Requires `!v.is_empty()`.
fn divrem_mag(u: &[u32], v: &[u32]) -> (Vec<u32>, Vec<u32>) {
    debug_assert!(!v.is_empty());
    match cmp_mag(u, v) {
        Ordering::Less => return (Vec::new(), u.to_vec()),
        Ordering::Equal => return (vec![1], Vec::new()),
        Ordering::Greater => {}
    }
    if v.len() == 1 {
        let (q, r) = divrem_mag_small(u, v[0]);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }

    // Normalize so the divisor's top limb has its high bit set.
    let shift = v.last().unwrap().leading_zeros();
    let vn = shl_mag(v, shift);
    let mut un = shl_mag(u, shift);
    let n = vn.len();
    let m = un.len() - n;
    // Ensure un has m + n + 1 limbs (a virtual leading zero).
    un.push(0);

    let b: u64 = 1 << BASE_BITS;
    let mut q = vec![0u32; m + 1];
    let v_hi = vn[n - 1] as u64;
    let v_next = vn[n - 2] as u64;

    for j in (0..=m).rev() {
        let top = (un[j + n] as u64) * b + un[j + n - 1] as u64;
        let mut qhat = top / v_hi;
        let mut rhat = top % v_hi;
        while qhat >= b || qhat * v_next > rhat * b + un[j + n - 2] as u64 {
            qhat -= 1;
            rhat += v_hi;
            if rhat >= b {
                break;
            }
        }

        // Multiply-subtract: un[j..j+n+1] -= qhat * vn.
        let mut borrow = 0i64;
        let mut carry = 0u64;
        for i in 0..n {
            let p = qhat * vn[i] as u64 + carry;
            carry = p >> BASE_BITS;
            let d = un[j + i] as i64 - (p as u32) as i64 - borrow;
            if d < 0 {
                un[j + i] = (d + b as i64) as u32;
                borrow = 1;
            } else {
                un[j + i] = d as u32;
                borrow = 0;
            }
        }
        let d = un[j + n] as i64 - carry as i64 - borrow;
        if d < 0 {
            // qhat was one too large: add back.
            un[j + n] = (d + b as i64) as u32;
            qhat -= 1;
            let mut c = 0u64;
            for i in 0..n {
                let s = un[j + i] as u64 + vn[i] as u64 + c;
                un[j + i] = s as u32;
                c = s >> BASE_BITS;
            }
            un[j + n] = un[j + n].wrapping_add(c as u32);
        } else {
            un[j + n] = d as u32;
        }
        q[j] = qhat as u32;
    }

    trim(&mut q);
    let mut rem = shr_mag(&un[..n], shift);
    trim(&mut rem);
    (q, rem)
}

// ---------------------------------------------------------------------------
// BigInt API
// ---------------------------------------------------------------------------

impl BigInt {
    /// The integer zero.
    pub fn zero() -> BigInt {
        BigInt { sign: Sign::Zero, mag: Vec::new() }
    }

    /// The integer one.
    pub fn one() -> BigInt {
        BigInt::from(1i64)
    }

    /// Builds a value from a sign and raw limbs (trailing zeros allowed).
    fn from_parts(sign: Sign, mut mag: Vec<u32>) -> BigInt {
        trim(&mut mag);
        if mag.is_empty() {
            BigInt::zero()
        } else {
            debug_assert!(sign != Sign::Zero);
            BigInt { sign, mag }
        }
    }

    /// Whether this value is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Whether this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Plus
    }

    /// Whether this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Whether this value is exactly one.
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Plus && self.mag == [1]
    }

    /// The sign of this value.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The absolute value.
    pub fn abs(&self) -> BigInt {
        if self.sign == Sign::Minus {
            BigInt { sign: Sign::Plus, mag: self.mag.clone() }
        } else {
            self.clone()
        }
    }

    /// Truncating division and remainder (`self = q * other + r`, with `r`
    /// taking the sign of `self`), like Rust's built-in `/` and `%`.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn divrem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "BigInt division by zero");
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (q, r) = divrem_mag(&self.mag, &other.mag);
        let q = BigInt::from_parts(self.sign.mul(other.sign), q);
        let r = BigInt::from_parts(self.sign, r);
        (q, r)
    }

    /// Greatest common divisor; always non-negative, `gcd(0, 0) == 0`.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.divrem(&b).1;
            a = b;
            b = r.abs();
        }
        a
    }

    /// `self * 2^bits`.
    pub fn shl(&self, bits: u32) -> BigInt {
        BigInt::from_parts(self.sign, shl_mag(&self.mag, bits))
    }

    /// `self / 2^bits`, truncated toward zero.
    pub(crate) fn shr(&self, bits: u32) -> BigInt {
        BigInt::from_parts(self.sign, shr_mag(&self.mag, bits))
    }

    /// `self` raised to a small non-negative power.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Number of significant bits in the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.mag.last() {
            None => 0,
            Some(&top) => {
                (self.mag.len() as u64 - 1) * BASE_BITS as u64
                    + (BASE_BITS - top.leading_zeros()) as u64
            }
        }
    }

    /// Best-effort conversion to `f64` (infinite for huge magnitudes).
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.mag.iter().rev() {
            v = v * (1u64 << BASE_BITS) as f64 + limb as f64;
        }
        match self.sign {
            Sign::Minus => -v,
            _ => v,
        }
    }

    /// Serializes as a sign byte (0 zero, 1 plus, 2 minus) followed by the
    /// magnitude as little-endian bytes (no length prefix; the caller frames).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.mag.len() * 4);
        out.push(match self.sign {
            Sign::Zero => 0,
            Sign::Plus => 1,
            Sign::Minus => 2,
        });
        for limb in &self.mag {
            out.extend_from_slice(&limb.to_le_bytes());
        }
        // Trim trailing zero bytes of the top limb for compactness.
        while out.len() > 1 && *out.last().unwrap() == 0 {
            out.pop();
        }
        out
    }

    /// Inverse of [`Self::to_bytes`]. Returns `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<BigInt> {
        let (&sign_byte, mag_bytes) = bytes.split_first()?;
        let sign = match sign_byte {
            0 => Sign::Zero,
            1 => Sign::Plus,
            2 => Sign::Minus,
            _ => return None,
        };
        let mut mag = Vec::with_capacity(mag_bytes.len().div_ceil(4));
        for chunk in mag_bytes.chunks(4) {
            let mut limb = [0u8; 4];
            limb[..chunk.len()].copy_from_slice(chunk);
            mag.push(u32::from_le_bytes(limb));
        }
        trim(&mut mag);
        if mag.is_empty() {
            if sign != Sign::Zero {
                return None; // canonical form violated
            }
            return Some(BigInt::zero());
        }
        if sign == Sign::Zero {
            return None;
        }
        Some(BigInt { sign, mag })
    }

    /// Exact conversion to `i64`, if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        if self.mag.len() > 2 {
            return None;
        }
        let mut v: u64 = 0;
        for &limb in self.mag.iter().rev() {
            v = (v << BASE_BITS) | limb as u64;
        }
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Plus => i64::try_from(v).ok(),
            Sign::Minus => {
                if v <= i64::MAX as u64 + 1 {
                    Some((v as i64).wrapping_neg())
                } else {
                    None
                }
            }
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> BigInt {
        BigInt::from(v as i128)
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> BigInt {
        BigInt::from(v as i128)
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> BigInt {
        BigInt::from(v as i128)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        let sign = match v.cmp(&0) {
            Ordering::Less => Sign::Minus,
            Ordering::Equal => Sign::Zero,
            Ordering::Greater => Sign::Plus,
        };
        let mut mag = Vec::new();
        let mut u = v.unsigned_abs();
        while u != 0 {
            mag.push(u as u32);
            u >>= BASE_BITS;
        }
        BigInt { sign, mag }
    }
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<BigInt, ParseBigIntError> {
        let err = || ParseBigIntError { input: s.to_string() };
        let (sign, digits) = match s.as_bytes().first() {
            Some(b'-') => (Sign::Minus, &s[1..]),
            Some(b'+') => (Sign::Plus, &s[1..]),
            _ => (Sign::Plus, s),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err());
        }
        // Consume nine decimal digits at a time (10^9 < 2^32).
        let mut mag: Vec<u32> = Vec::new();
        for chunk in digits.as_bytes().chunks(9).map(|c| std::str::from_utf8(c).unwrap()) {
            let chunk_val: u32 = chunk.parse().map_err(|_| err())?;
            let scale = 10u32.pow(chunk.len() as u32);
            // mag = mag * scale + chunk_val
            let mut carry = chunk_val as u64;
            for limb in mag.iter_mut() {
                let t = *limb as u64 * scale as u64 + carry;
                *limb = t as u32;
                carry = t >> BASE_BITS;
            }
            while carry != 0 {
                mag.push(carry as u32);
                carry >>= BASE_BITS;
            }
        }
        Ok(BigInt::from_parts(sign, mag))
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut digits = Vec::new();
        let mut mag = self.mag.clone();
        while !mag.is_empty() {
            let (q, r) = divrem_mag_small(&mag, 1_000_000_000);
            digits.push(r);
            mag = q;
        }
        let mut out = String::new();
        if self.sign == Sign::Minus {
            out.push('-');
        }
        out.push_str(&digits.pop().unwrap().to_string());
        while let Some(d) = digits.pop() {
            out.push_str(&format!("{:09}", d));
        }
        f.write_str(&out)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({})", self)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        let rank = |s: Sign| match s {
            Sign::Minus => 0,
            Sign::Zero => 1,
            Sign::Plus => 2,
        };
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => {}
            ord => return ord,
        }
        match self.sign {
            Sign::Zero => Ordering::Equal,
            Sign::Plus => cmp_mag(&self.mag, &other.mag),
            Sign::Minus => cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt { sign: self.sign.negate(), mag: self.mag.clone() }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.negate();
        self
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_parts(a, add_mag(&self.mag, &other.mag)),
            _ => match cmp_mag(&self.mag, &other.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_parts(self.sign, sub_mag(&self.mag, &other.mag))
                }
                Ordering::Less => {
                    BigInt::from_parts(other.sign, sub_mag(&other.mag, &self.mag))
                }
            },
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        self + &(-other)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        BigInt::from_parts(self.sign.mul(other.sign), mul_mag(&self.mag, &other.mag))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.divrem(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.divrem(other).1
    }
}

macro_rules! forward_owned_binop {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                $trait::$method(&self, &other)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, other: &BigInt) -> BigInt {
                $trait::$method(&self, other)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                $trait::$method(self, &other)
            }
        }
    )*};
}

forward_owned_binop!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_is_canonical() {
        assert_eq!(bi(0), BigInt::zero());
        assert!(bi(0).is_zero());
        assert_eq!(bi(5) - bi(5), BigInt::zero());
        assert_eq!((bi(5) - bi(5)).sign(), Sign::Zero);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(bi(2) + bi(3), bi(5));
        assert_eq!(bi(2) - bi(3), bi(-1));
        assert_eq!(bi(-2) * bi(3), bi(-6));
        assert_eq!(bi(-7) / bi(2), bi(-3));
        assert_eq!(bi(-7) % bi(2), bi(-1));
        assert_eq!(bi(7) % bi(-2), bi(1));
    }

    #[test]
    fn large_multiplication_and_division() {
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let b: BigInt = "987654321098765432109876543210".parse().unwrap();
        let p = &a * &b;
        assert_eq!(
            p.to_string(),
            "121932631137021795226185032733622923332237463801111263526900"
        );
        let (q, r) = p.divrem(&a);
        assert_eq!(q, b);
        assert!(r.is_zero());
    }

    #[test]
    fn division_with_remainder_reconstructs() {
        let a: BigInt = "340282366920938463463374607431768211456".parse().unwrap(); // 2^128
        let b: BigInt = "18446744073709551629".parse().unwrap(); // prime > 2^64
        let (q, r) = a.divrem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r >= BigInt::zero() && r < b);
    }

    #[test]
    fn knuth_add_back_case() {
        // Exercise a divisor whose second limb forces qhat correction.
        let u: BigInt = "79228162514264337593543950335".parse().unwrap(); // 2^96 - 1
        let v: BigInt = "79228162514264337593543950336".parse().unwrap(); // 2^96
        let (q, r) = u.divrem(&v);
        assert!(q.is_zero());
        assert_eq!(r, u);
        let (q2, r2) = v.divrem(&u);
        assert_eq!(q2, bi(1));
        assert_eq!(r2, bi(1));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(0)), bi(0));
        assert_eq!(bi(0).gcd(&bi(7)), bi(7));
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        assert_eq!(a.gcd(&a), a);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0", "1", "-1", "999999999", "1000000000", "-123456789012345678901234567890"] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert_eq!("+42".parse::<BigInt>().unwrap(), bi(42));
    }

    #[test]
    fn ordering() {
        let mut v = vec![bi(3), bi(-10), bi(0), bi(7), bi(-2)];
        v.sort();
        assert_eq!(v, vec![bi(-10), bi(-2), bi(0), bi(3), bi(7)]);
        let big: BigInt = "1234567890123456789012345678901234567890".parse().unwrap();
        assert!(big > bi(i128::MAX)); // 40 digits > 39-digit i128::MAX
        assert!(-&big < bi(i128::MIN));
    }

    #[test]
    fn pow_and_bits() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(10).pow(0), bi(1));
        assert_eq!(bi(0).pow(0), bi(1)); // convention: 0^0 = 1
        assert_eq!(bi(1).bits(), 1);
        assert_eq!(bi(2).bits(), 2);
        assert_eq!(bi(0).bits(), 0);
        assert_eq!(bi(2).pow(100).bits(), 101);
    }

    #[test]
    fn conversions() {
        assert_eq!(bi(42).to_i64(), Some(42));
        assert_eq!(bi(-42).to_i64(), Some(-42));
        assert_eq!(bi(i64::MAX as i128).to_i64(), Some(i64::MAX));
        assert_eq!(bi(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(bi(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(bi(i64::MIN as i128 - 1).to_i64(), None);
        assert_eq!(bi(1_000_000).to_f64(), 1e6);
        assert_eq!(bi(-1_000_000).to_f64(), -1e6);
    }

    #[test]
    fn shl_shifts() {
        assert_eq!(bi(1).shl(32), bi(1i128 << 32));
        assert_eq!(bi(3).shl(70), bi(3i128 << 70));
        assert_eq!(bi(0).shl(99), bi(0));
        assert_eq!(bi(-1).shl(5), bi(-32));
    }
}

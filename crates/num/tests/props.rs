//! Property-based tests for `cqa-num`, using `i128` arithmetic as the
//! oracle for values that fit, and algebraic laws for values that do not.

use cqa_num::{BigInt, Rat};
use proptest::prelude::*;

fn big(v: i128) -> BigInt {
    BigInt::from(v)
}

proptest! {
    // ---------------- BigInt vs i128 oracle ----------------

    #[test]
    fn add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(big(a as i128) + big(b as i128), big(a as i128 + b as i128));
    }

    #[test]
    fn sub_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(big(a as i128) - big(b as i128), big(a as i128 - b as i128));
    }

    #[test]
    fn mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(big(a as i128) * big(b as i128), big(a as i128 * b as i128));
    }

    #[test]
    fn divrem_matches_i128(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |v| *v != 0)) {
        let (q, r) = big(a as i128).divrem(&big(b as i128));
        prop_assert_eq!(q, big(a as i128 / b as i128));
        prop_assert_eq!(r, big(a as i128 % b as i128));
    }

    #[test]
    fn cmp_matches_i128(a in any::<i128>(), b in any::<i128>()) {
        prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
    }

    #[test]
    fn display_matches_i128(a in any::<i128>()) {
        prop_assert_eq!(big(a).to_string(), a.to_string());
    }

    #[test]
    fn parse_roundtrip(a in any::<i128>()) {
        let s = big(a).to_string();
        prop_assert_eq!(s.parse::<BigInt>().unwrap(), big(a));
    }

    // ---------------- BigInt algebraic laws (beyond i128 range) ----------------

    #[test]
    fn divrem_reconstructs(a in any::<i128>(), b in any::<i128>(), c in any::<i128>().prop_filter("nonzero", |v| *v != 0)) {
        // Build numbers well beyond 128 bits by multiplication.
        let u = big(a) * big(b) + big(c);
        let v = big(c);
        let (q, r) = u.divrem(&v);
        prop_assert_eq!(&q * &v + &r, u);
        prop_assert!(r.abs() < v.abs());
    }

    #[test]
    fn mul_commutes_large(a in any::<i128>(), b in any::<i128>()) {
        prop_assert_eq!(big(a) * big(b), big(b) * big(a));
    }

    #[test]
    fn mul_distributes_large(a in any::<i128>(), b in any::<i128>(), c in any::<i128>()) {
        let (a, b, c) = (big(a), big(b), big(c));
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
    }

    #[test]
    fn gcd_divides_both(a in any::<i64>(), b in any::<i64>()) {
        let g = big(a as i128).gcd(&big(b as i128));
        if !g.is_zero() {
            prop_assert!((big(a as i128) % &g).is_zero());
            prop_assert!((big(b as i128) % &g).is_zero());
        } else {
            prop_assert_eq!(a, 0);
            prop_assert_eq!(b, 0);
        }
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in any::<i64>(), s in 0u32..100) {
        prop_assert_eq!(big(a as i128).shl(s), big(a as i128) * big(2).pow(s));
    }

    // ---------------- Rat laws ----------------

    #[test]
    fn rat_add_sub_inverse(p1 in any::<i32>(), q1 in 1i32..10_000, p2 in any::<i32>(), q2 in 1i32..10_000) {
        let a = Rat::from_pair(p1 as i64, q1 as i64);
        let b = Rat::from_pair(p2 as i64, q2 as i64);
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn rat_mul_div_inverse(p1 in any::<i32>(), q1 in 1i32..10_000, p2 in any::<i32>().prop_filter("nonzero", |v| *v != 0), q2 in 1i32..10_000) {
        let a = Rat::from_pair(p1 as i64, q1 as i64);
        let b = Rat::from_pair(p2 as i64, q2 as i64);
        prop_assert_eq!(&(&a * &b) / &b, a);
    }

    #[test]
    fn rat_order_total(p1 in any::<i32>(), q1 in 1i32..10_000, p2 in any::<i32>(), q2 in 1i32..10_000) {
        let a = Rat::from_pair(p1 as i64, q1 as i64);
        let b = Rat::from_pair(p2 as i64, q2 as i64);
        // cross-multiplication oracle with i128
        let lhs = p1 as i128 * q2 as i128;
        let rhs = p2 as i128 * q1 as i128;
        prop_assert_eq!(a.cmp(&b), lhs.cmp(&rhs));
    }

    #[test]
    fn rat_canonical_equality(p in any::<i32>(), q in 1i32..1000, k in 1i32..1000) {
        let a = Rat::from_pair(p as i64, q as i64);
        let b = Rat::from_pair(p as i64 * k as i64, q as i64 * k as i64);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rat_parse_display_roundtrip(p in any::<i32>(), q in 1i32..10_000) {
        let a = Rat::from_pair(p as i64, q as i64);
        prop_assert_eq!(a.to_string().parse::<Rat>().unwrap(), a);
    }

    #[test]
    fn rat_floor_ceil_bracket(p in any::<i32>(), q in 1i32..10_000) {
        let a = Rat::from_pair(p as i64, q as i64);
        let fl = Rat::from(a.floor());
        let ce = Rat::from(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(&ce - &fl <= Rat::one());
    }

    #[test]
    fn rat_to_f64_close(p in -1_000_000i64..1_000_000, q in 1i64..1_000_000) {
        let a = Rat::from_pair(p, q);
        let expect = p as f64 / q as f64;
        prop_assert!((a.to_f64() - expect).abs() <= expect.abs() * 1e-12 + 1e-12);
    }
}

/// The exact value of a finite `f64`: its significand times a power of
/// two, read from the bit pattern.
fn exact_f64(x: f64) -> Rat {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    let frac = (bits & ((1 << 52) - 1)) as i64;
    let (mantissa, exp) = if biased == 0 { (frac, -1074) } else { (frac | 1 << 52, biased - 1075) };
    let m = BigInt::from(if x.is_sign_negative() { -mantissa } else { mantissa });
    if exp >= 0 {
        Rat::from(m.shl(exp as u32))
    } else {
        Rat::new(m, BigInt::one().shl((-exp) as u32))
    }
}

proptest! {
    /// `to_f64_enclosure` brackets the exact value, checked in exact
    /// arithmetic; a non-finite image yields `(−∞, +∞)`.
    #[test]
    fn to_f64_enclosure_brackets(shape in 0u8..4, p in any::<i64>(), q in 1i64..i64::MAX, bits in 0u32..1200) {
        let r = match shape {
            // 1e8 plus k tenths of 2⁻²⁶: offsets finer than an ulp of 1e8.
            0 => Rat::from_int(100_000_000) + Rat::from_pair(p % 1000, 10 << 26),
            // Numerators of 900 to 1263 bits, some beyond the f64 range.
            1 => Rat::new(BigInt::from(p).shl(900 + bits % 300), BigInt::from(q)),
            // Down to 2⁻¹²⁶³: tiny, subnormal and below.
            2 => Rat::new(BigInt::from(p), BigInt::from(q).shl(bits)),
            _ => Rat::from_pair(p, q),
        };
        let (lo, hi) = r.to_f64_enclosure();
        if r.to_f64().is_finite() {
            prop_assert!(lo == f64::NEG_INFINITY || exact_f64(lo) <= r, "{} < lo {}", r, lo);
            prop_assert!(hi == f64::INFINITY || r <= exact_f64(hi), "{} > hi {}", r, hi);
        } else {
            prop_assert_eq!((lo, hi), (f64::NEG_INFINITY, f64::INFINITY));
        }
    }

    #[test]
    fn bigint_bytes_roundtrip(a in any::<i128>()) {
        let v = big(a);
        prop_assert_eq!(BigInt::from_bytes(&v.to_bytes()), Some(v.clone()));
        let w = &v * &v * &v; // beyond i128
        prop_assert_eq!(BigInt::from_bytes(&w.to_bytes()), Some(w));
    }
}

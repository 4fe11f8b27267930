//! Rational intervals, possibly open or unbounded on either side.
//!
//! Intervals are what a one-variable conjunction of linear constraints
//! denotes; they are also the bridge between the constraint layer and the
//! multidimensional indexing layer of §5 — the bounding box of a constraint
//! tuple is one [`Interval`] per indexed attribute.

use crate::atom::{Atom, Rel};
use cqa_num::Rat;
use std::cmp::Ordering;
use std::fmt;

/// One endpoint of an interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bound {
    /// The endpoint value.
    pub value: Rat,
    /// Whether the endpoint itself is excluded.
    pub strict: bool,
}

impl Bound {
    /// A closed (inclusive) bound.
    pub fn closed(value: Rat) -> Bound {
        Bound { value, strict: false }
    }

    /// An open (exclusive) bound.
    pub fn open(value: Rat) -> Bound {
        Bound { value, strict: true }
    }
}

/// An interval over the rationals; `lo`/`hi` of `None` mean unbounded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: Option<Bound>,
    hi: Option<Bound>,
    empty: bool,
}

impl Interval {
    /// The full line `(-∞, +∞)`.
    pub fn full() -> Interval {
        Interval { lo: None, hi: None, empty: false }
    }

    /// The empty interval.
    pub fn empty() -> Interval {
        Interval { lo: None, hi: None, empty: true }
    }

    /// The single point `[v, v]`.
    pub fn point(v: Rat) -> Interval {
        Interval::new(Some(Bound::closed(v.clone())), Some(Bound::closed(v)))
    }

    /// The closed interval `[lo, hi]`.
    pub fn closed(lo: Rat, hi: Rat) -> Interval {
        Interval::new(Some(Bound::closed(lo)), Some(Bound::closed(hi)))
    }

    /// Builds an interval from optional endpoints, normalizing emptiness.
    pub fn new(lo: Option<Bound>, hi: Option<Bound>) -> Interval {
        if crosses(&lo, &hi) {
            Interval::empty()
        } else {
            Interval { lo, hi, empty: false }
        }
    }

    /// Narrows in place to the values that also satisfy the one-variable
    /// atom `coeff·v + k rel 0`, where `coeff` is the atom's non-zero
    /// coefficient on `v`. Equal to intersecting with the atom's interval,
    /// without building it.
    pub(crate) fn narrow(&mut self, atom: &Atom, coeff: &Rat) {
        if self.empty {
            return;
        }
        // c·v + k rel 0  ⇔  v rel -k/c (c>0) or -k/c rel v (c<0)
        let value = -(atom.expr().constant_term() / coeff);
        let strict = atom.rel() == Rel::Lt;
        match atom.rel() {
            Rel::Eq => {
                tighten(&mut self.lo, Bound::closed(value.clone()), Ordering::Greater);
                tighten(&mut self.hi, Bound::closed(value), Ordering::Less);
            }
            _ if coeff.is_positive() => {
                tighten(&mut self.hi, Bound { value, strict }, Ordering::Less)
            }
            _ => tighten(&mut self.lo, Bound { value, strict }, Ordering::Greater),
        }
        if crosses(&self.lo, &self.hi) {
            *self = Interval::empty();
        }
    }

    /// The lower endpoint (`None` = unbounded below). Meaningless if empty.
    pub fn lo(&self) -> Option<&Bound> {
        self.lo.as_ref()
    }

    /// The upper endpoint (`None` = unbounded above). Meaningless if empty.
    pub fn hi(&self) -> Option<&Bound> {
        self.hi.as_ref()
    }

    /// Whether the interval contains no points.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Whether the interval is the full line.
    pub fn is_full(&self) -> bool {
        !self.empty && self.lo.is_none() && self.hi.is_none()
    }

    /// Whether the interval is a single point.
    pub fn is_point(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some(l), Some(h)) => !self.empty && l.value == h.value,
            _ => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, v: &Rat) -> bool {
        if self.empty {
            return false;
        }
        if let Some(l) = &self.lo {
            if v < &l.value || (v == &l.value && l.strict) {
                return false;
            }
        }
        if let Some(h) = &self.hi {
            if v > &h.value || (v == &h.value && h.strict) {
                return false;
            }
        }
        true
    }

    /// Intersection of two intervals.
    pub fn intersect(&self, other: &Interval) -> Interval {
        if self.empty || other.empty {
            return Interval::empty();
        }
        let (mut lo, mut hi) = (self.lo.clone(), self.hi.clone());
        if let Some(b) = &other.lo {
            tighten(&mut lo, b.clone(), Ordering::Greater);
        }
        if let Some(b) = &other.hi {
            tighten(&mut hi, b.clone(), Ordering::Less);
        }
        Interval::new(lo, hi)
    }

    /// Whether two intervals overlap.
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.intersect(other).is_empty()
    }

    /// The endpoints as `f64`s (`-∞`/`+∞` when unbounded), for building
    /// index bounding boxes. Strictness is dropped: the result is a
    /// conservative (superset) approximation, which is exactly what a
    /// filter-step index needs.
    pub fn to_f64_bounds(&self) -> (f64, f64) {
        if self.empty {
            return (f64::INFINITY, f64::NEG_INFINITY);
        }
        let lo = self.lo.as_ref().map_or(f64::NEG_INFINITY, |b| b.value.to_f64());
        let hi = self.hi.as_ref().map_or(f64::INFINITY, |b| b.value.to_f64());
        (lo, hi)
    }

    /// Width `hi - lo`; `None` when unbounded or empty.
    pub fn width(&self) -> Option<Rat> {
        if self.empty {
            return None;
        }
        match (&self.lo, &self.hi) {
            (Some(l), Some(h)) => Some(&h.value - &l.value),
            _ => None,
        }
    }
}

/// Whether the endpoints admit no value between them.
fn crosses(lo: &Option<Bound>, hi: &Option<Bound>) -> bool {
    match (lo, hi) {
        (Some(l), Some(h)) => l.value > h.value || (l.value == h.value && (l.strict || h.strict)),
        _ => false,
    }
}

/// Replaces `bound` by `new` when `new` is tighter: further in the
/// `inward` direction, or at the same value and strict.
fn tighten(bound: &mut Option<Bound>, new: Bound, inward: Ordering) {
    let tighter = match bound {
        None => true,
        Some(b) => match new.value.cmp(&b.value) {
            Ordering::Equal => new.strict,
            o => o == inward,
        },
    };
    if tighter {
        *bound = Some(new);
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            return f.write_str("∅");
        }
        match &self.lo {
            None => write!(f, "(-inf, ")?,
            Some(b) => write!(f, "{}{}, ", if b.strict { "(" } else { "[" }, b.value)?,
        }
        match &self.hi {
            None => write!(f, "+inf)"),
            Some(b) => write!(f, "{}{}", b.value, if b.strict { ")" } else { "]" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rat {
        Rat::from_int(v)
    }

    #[test]
    fn emptiness_normalization() {
        assert!(Interval::closed(r(3), r(2)).is_empty());
        assert!(!Interval::closed(r(2), r(2)).is_empty());
        assert!(Interval::new(Some(Bound::open(r(2))), Some(Bound::closed(r(2)))).is_empty());
        assert!(Interval::new(Some(Bound::closed(r(2))), Some(Bound::open(r(2)))).is_empty());
        assert!(Interval::full().is_full());
        assert!(Interval::point(r(1)).is_point());
    }

    #[test]
    fn membership() {
        let i = Interval::new(Some(Bound::open(r(0))), Some(Bound::closed(r(5))));
        assert!(!i.contains(&r(0)));
        assert!(i.contains(&Rat::from_pair(1, 2)));
        assert!(i.contains(&r(5)));
        assert!(!i.contains(&r(6)));
        assert!(Interval::full().contains(&r(-100)));
        assert!(!Interval::empty().contains(&r(0)));
    }

    #[test]
    fn intersection() {
        let a = Interval::closed(r(0), r(10));
        let b = Interval::new(Some(Bound::open(r(5))), None);
        let i = a.intersect(&b);
        assert_eq!(i, Interval::new(Some(Bound::open(r(5))), Some(Bound::closed(r(10)))));
        assert!(a.overlaps(&b));
        let c = Interval::closed(r(11), r(12));
        assert!(!a.overlaps(&c));
        // Strict endpoints kill single-point overlap.
        let d = Interval::new(Some(Bound::open(r(10))), None);
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn f64_bounds() {
        let i = Interval::closed(Rat::from_pair(1, 2), r(4));
        assert_eq!(i.to_f64_bounds(), (0.5, 4.0));
        assert_eq!(Interval::full().to_f64_bounds(), (f64::NEG_INFINITY, f64::INFINITY));
        let (lo, hi) = Interval::empty().to_f64_bounds();
        assert!(lo > hi);
    }

    #[test]
    fn width_and_display() {
        assert_eq!(Interval::closed(r(1), r(4)).width(), Some(r(3)));
        assert_eq!(Interval::full().width(), None);
        assert_eq!(Interval::closed(r(1), r(4)).to_string(), "[1, 4]");
        assert_eq!(
            Interval::new(Some(Bound::open(r(0))), None).to_string(),
            "(0, +inf)"
        );
    }
}

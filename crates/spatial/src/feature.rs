//! Spatial features — the "whole features" of §4.
//!
//! A feature couples an identifier with a geometry in the vector model: a
//! point, a polyline (roads, rivers, hurricane trajectories), or a simple
//! polygon (lakes, towns, temperature zones) — the running examples of §6.2.

use crate::geom::{signed_area2, Point, Segment};
use cqa_num::Rat;
use std::fmt;

/// A geometry in the vector model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Geometry {
    /// A single point.
    Point(Point),
    /// An open chain of segments (at least two points).
    Polyline(Vec<Point>),
    /// A simple polygon given as its ring of vertices in counter-clockwise
    /// order (the closing edge is implicit).
    Polygon(Vec<Point>),
}

/// Validation failures for vector geometries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// A polyline needs at least two points.
    PolylineTooShort,
    /// A polygon needs at least three vertices.
    PolygonTooSmall,
    /// The polygon ring crosses itself.
    SelfIntersecting,
    /// The polygon has zero area.
    DegeneratePolygon,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::PolylineTooShort => write!(f, "polyline needs at least 2 points"),
            GeometryError::PolygonTooSmall => write!(f, "polygon needs at least 3 vertices"),
            GeometryError::SelfIntersecting => write!(f, "polygon ring is self-intersecting"),
            GeometryError::DegeneratePolygon => write!(f, "polygon has zero area"),
        }
    }
}

impl std::error::Error for GeometryError {}

impl Geometry {
    /// Builds a validated polyline.
    pub fn polyline(points: Vec<Point>) -> Result<Geometry, GeometryError> {
        if points.len() < 2 {
            return Err(GeometryError::PolylineTooShort);
        }
        Ok(Geometry::Polyline(points))
    }

    /// Builds a validated simple polygon; a clockwise ring is reversed so
    /// the stored ring is always counter-clockwise.
    pub fn polygon(mut ring: Vec<Point>) -> Result<Geometry, GeometryError> {
        if ring.len() < 3 {
            return Err(GeometryError::PolygonTooSmall);
        }
        let area2 = signed_area2(&ring);
        if area2.is_zero() {
            return Err(GeometryError::DegeneratePolygon);
        }
        if area2.is_negative() {
            ring.reverse();
        }
        // Simplicity: no two non-adjacent edges may intersect.
        let n = ring.len();
        let edge = |i: usize| Segment::new(ring[i].clone(), ring[(i + 1) % n].clone());
        for i in 0..n {
            for j in i + 1..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if adjacent {
                    continue;
                }
                if edge(i).intersects(&edge(j)) {
                    return Err(GeometryError::SelfIntersecting);
                }
            }
        }
        Ok(Geometry::Polygon(ring))
    }

    /// The segments making up the geometry (empty for a point).
    pub fn segments(&self) -> Vec<Segment> {
        match self {
            Geometry::Point(_) => Vec::new(),
            Geometry::Polyline(pts) => pts
                .windows(2)
                .map(|w| Segment::new(w[0].clone(), w[1].clone()))
                .collect(),
            Geometry::Polygon(ring) => (0..ring.len())
                .map(|i| Segment::new(ring[i].clone(), ring[(i + 1) % ring.len()].clone()))
                .collect(),
        }
    }

    /// The vertices of the geometry.
    pub fn points(&self) -> &[Point] {
        match self {
            Geometry::Point(p) => std::slice::from_ref(p),
            Geometry::Polyline(pts) => pts,
            Geometry::Polygon(ring) => ring,
        }
    }

    /// Exact squared distance between two geometries' *boundaries* (for a
    /// polygon, containment also counts as distance zero).
    pub fn dist2(&self, other: &Geometry) -> Rat {
        // Point-in-polygon containment gives distance zero even without
        // boundary contact.
        if self.contains_point_of(other) || other.contains_point_of(self) {
            return Rat::zero();
        }
        let (sa, sb) = (self.segments(), other.segments());
        match (self, other) {
            (Geometry::Point(p), Geometry::Point(q)) => p.dist2(q),
            (Geometry::Point(p), _) => sb
                .iter()
                .map(|s| s.dist2_to_point(p))
                .min()
                .expect("non-point geometry has segments"),
            (_, Geometry::Point(q)) => sa
                .iter()
                .map(|s| s.dist2_to_point(q))
                .min()
                .expect("non-point geometry has segments"),
            _ => sa
                .iter()
                .flat_map(|s1| sb.iter().map(move |s2| s1.dist2_to_segment(s2)))
                .min()
                .expect("both geometries have segments"),
        }
    }

    /// For polygons: whether any vertex of `other` lies strictly inside.
    fn contains_point_of(&self, other: &Geometry) -> bool {
        match self {
            Geometry::Polygon(_) => other.points().iter().any(|p| self.contains_point(p)),
            _ => false,
        }
    }

    /// Point-in-geometry test: on a point it is equality, on a polyline it
    /// is incidence, on a polygon it is (closed) containment, decided
    /// exactly by the even–odd crossing rule.
    pub fn contains_point(&self, p: &Point) -> bool {
        match self {
            Geometry::Point(q) => p == q,
            Geometry::Polyline(_) => self.segments().iter().any(|s| s.contains(p)),
            Geometry::Polygon(ring) => {
                // Boundary counts as inside.
                if self.segments().iter().any(|s| s.contains(p)) {
                    return true;
                }
                // Even–odd rule with exact arithmetic: count edges that
                // cross the upward ray from p.
                let mut inside = false;
                let n = ring.len();
                for i in 0..n {
                    let a = &ring[i];
                    let b = &ring[(i + 1) % n];
                    let (ya, yb) = (&a.y, &b.y);
                    // Does edge straddle the horizontal line through p?
                    if (ya > &p.y) != (yb > &p.y) {
                        // x coordinate of the crossing at height p.y
                        let t = (&p.y - ya) / (yb - ya);
                        let cx = &a.x + &(&(&b.x - &a.x) * &t);
                        if cx > p.x {
                            inside = !inside;
                        }
                    }
                }
                inside
            }
        }
    }

    /// The exact axis-aligned bounding box grown by `d` on every side,
    /// enclosed in an `f64` box by [`Rat::to_f64_enclosure`] (for index
    /// keys, `d = 0`, and buffer-join probes).
    pub fn bbox_f64(&self, d: &Rat) -> ([f64; 2], [f64; 2]) {
        let pts = self.points();
        let axis = |coord: fn(&Point) -> &Rat| {
            let lo = pts.iter().map(coord).min().expect("a geometry has a point");
            let hi = pts.iter().map(coord).max().expect("a geometry has a point");
            ((lo - d).to_f64_enclosure().0, (hi + d).to_f64_enclosure().1)
        };
        let ((xlo, xhi), (ylo, yhi)) = (axis(|p| &p.x), axis(|p| &p.y));
        ([xlo, ylo], [xhi, yhi])
    }
}

/// A feature: an identifier plus a geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feature {
    /// The feature identifier (the key of a spatial constraint relation).
    pub id: String,
    /// The extent.
    pub geom: Geometry,
}

impl Feature {
    /// A feature with the given id and geometry.
    pub fn new(id: impl Into<String>, geom: Geometry) -> Feature {
        Feature { id: id.into(), geom }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }

    #[test]
    fn polygon_validation() {
        assert!(Geometry::polygon(vec![p(0, 0), p(1, 0)]).is_err());
        assert!(matches!(
            Geometry::polygon(vec![p(0, 0), p(1, 1), p(2, 2)]),
            Err(GeometryError::DegeneratePolygon)
        ));
        // An (asymmetric) bowtie is self-intersecting; the symmetric one
        // has zero signed area and is caught as degenerate instead.
        assert!(matches!(
            Geometry::polygon(vec![p(0, 0), p(4, 4), p(4, 0), p(0, 2)]),
            Err(GeometryError::SelfIntersecting)
        ));
        assert!(matches!(
            Geometry::polygon(vec![p(0, 0), p(2, 2), p(2, 0), p(0, 2)]),
            Err(GeometryError::DegeneratePolygon)
        ));
        // Clockwise ring is normalized to counter-clockwise.
        let g = Geometry::polygon(vec![p(0, 0), p(0, 2), p(2, 2), p(2, 0)]).unwrap();
        match &g {
            Geometry::Polygon(ring) => assert!(signed_area2(ring).is_positive()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn polyline_validation() {
        assert!(Geometry::polyline(vec![p(0, 0)]).is_err());
        let g = Geometry::polyline(vec![p(0, 0), p(1, 0), p(1, 1)]).unwrap();
        assert_eq!(g.segments().len(), 2);
    }

    #[test]
    fn point_in_polygon() {
        let square = Geometry::polygon(vec![p(0, 0), p(4, 0), p(4, 4), p(0, 4)]).unwrap();
        assert!(square.contains_point(&p(2, 2)));
        assert!(square.contains_point(&p(0, 0))); // corner
        assert!(square.contains_point(&p(2, 0))); // edge
        assert!(!square.contains_point(&p(5, 2)));
        assert!(!square.contains_point(&p(-1, 2)));
        // Concave: an L-shape.
        let ell = Geometry::polygon(vec![
            p(0, 0),
            p(4, 0),
            p(4, 2),
            p(2, 2),
            p(2, 4),
            p(0, 4),
        ])
        .unwrap();
        assert!(ell.contains_point(&p(1, 3)));
        assert!(!ell.contains_point(&p(3, 3))); // in the notch
    }

    #[test]
    fn distances() {
        let a = Geometry::Point(p(0, 0));
        let b = Geometry::Point(p(3, 4));
        assert_eq!(a.dist2(&b), Rat::from_int(25));

        let square = Geometry::polygon(vec![p(0, 0), p(2, 0), p(2, 2), p(0, 2)]).unwrap();
        let far = Geometry::Point(p(5, 1));
        assert_eq!(square.dist2(&far), Rat::from_int(9));
        // A point inside the polygon has distance zero.
        let inside = Geometry::Point(p(1, 1));
        assert_eq!(square.dist2(&inside), Rat::zero());

        let road = Geometry::polyline(vec![p(0, 5), p(10, 5)]).unwrap();
        assert_eq!(square.dist2(&road), Rat::from_int(9));
        // Polygon containing a polyline vertex.
        let crossing = Geometry::polyline(vec![p(1, 1), p(1, 10)]).unwrap();
        assert_eq!(square.dist2(&crossing), Rat::zero());
    }

    #[test]
    fn bbox() {
        let g = Geometry::polyline(vec![p(1, 2), p(5, -3)]).unwrap();
        let (lo, hi) = g.bbox_f64(&Rat::zero());
        assert!(lo[0] <= 1.0 && hi[0] >= 5.0);
        assert!(lo[1] <= -3.0 && hi[1] >= 2.0);
        let (lo, hi) = g.bbox_f64(&Rat::from_int(2));
        assert!(lo[0] <= -1.0 && hi[0] >= 7.0);
        assert!(lo[1] <= -5.0 && hi[1] >= 4.0);
    }
}

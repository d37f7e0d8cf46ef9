use std::fmt;

use crate::{Interval, Point, RotPoint, GEOM_EPS};

/// A tilted rectangular region (TRR) — the generalized merging segment of
/// DME-style clock routing.
///
/// Stored as an axis-aligned rectangle in rotated (u, v) coordinates, where
/// the Manhattan metric of the layout plane is the Chebyshev metric. The
/// common cases are:
///
/// * a **point** (both intervals degenerate) — the merging segment of a sink;
/// * a **diagonal segment** (exactly one interval degenerate) — the classic
///   slope-±1 merging segment produced by a detour-free zero-skew merge;
/// * a **full region** (neither degenerate) — arises when wire snaking makes
///   the two tap radii sum to more than the segment distance.
///
/// All operations are exact interval arithmetic under the L∞/uv
/// representation: [`Trr::distance`] equals the minimum Manhattan distance
/// between the layout-plane regions, [`Trr::expanded`] is the Minkowski sum
/// with a Manhattan ball, and [`Trr::intersection`] is the region of points
/// lying in both.
///
/// ```
/// use gcr_geometry::{Point, Trr};
///
/// let sink = Trr::point(Point::new(3.0, 4.0));
/// let ball = sink.expanded(2.0);
/// assert!(ball.contains(Point::new(5.0, 4.0)));
/// assert!(ball.contains(Point::new(4.0, 5.0)));
/// assert!(!ball.contains(Point::new(5.0, 5.0))); // Manhattan dist 3
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Trr {
    u: Interval,
    v: Interval,
}

impl Trr {
    /// The degenerate region containing exactly one layout point.
    #[must_use]
    pub fn point(p: Point) -> Self {
        let r = p.to_rotated();
        Self {
            u: Interval::point(r.u),
            v: Interval::point(r.v),
        }
    }

    /// The diagonal segment between two layout points.
    ///
    /// # Panics
    ///
    /// Panics if the two points are not aligned on a slope-±1 diagonal
    /// (within [`GEOM_EPS`]); arbitrary segments are not Manhattan merging
    /// segments and have no valid `Trr` representation.
    #[must_use]
    pub fn diagonal(a: Point, b: Point) -> Self {
        let (ra, rb) = (a.to_rotated(), b.to_rotated());
        let du = (ra.u - rb.u).abs();
        let dv = (ra.v - rb.v).abs();
        assert!(
            du <= GEOM_EPS || dv <= GEOM_EPS,
            "diagonal endpoints must share a rotated coordinate: {a} vs {b}"
        );
        Self {
            u: Interval::new(ra.u, rb.u),
            v: Interval::new(ra.v, rb.v),
        }
    }

    /// The `u` (= x + y) extent of the region.
    #[must_use]
    pub fn u(&self) -> Interval {
        self.u
    }

    /// The `v` (= y − x) extent of the region.
    #[must_use]
    pub fn v(&self) -> Interval {
        self.v
    }

    /// Whether the region is a single point (within [`GEOM_EPS`]).
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.u.length() <= GEOM_EPS && self.v.length() <= GEOM_EPS
    }

    /// Whether the region is a (possibly degenerate) diagonal segment.
    #[must_use]
    pub fn is_segment(&self) -> bool {
        self.u.length() <= GEOM_EPS || self.v.length() <= GEOM_EPS
    }

    /// The center of the region in layout coordinates.
    ///
    /// For a merging segment this is the paper's `mid(ms(v))`, used to
    /// estimate controller star-routing distances during bottom-up merging.
    #[must_use]
    pub fn center(&self) -> Point {
        RotPoint::new(self.u.midpoint(), self.v.midpoint()).to_layout()
    }

    /// The two extreme corners of the region in layout coordinates.
    ///
    /// For a diagonal merging segment these are its endpoints.
    #[must_use]
    pub fn corners(&self) -> (Point, Point) {
        (
            RotPoint::new(self.u.lo(), self.v.lo()).to_layout(),
            RotPoint::new(self.u.hi(), self.v.hi()).to_layout(),
        )
    }

    /// Minimum Manhattan distance between the two regions (zero when they
    /// overlap or touch).
    #[must_use]
    pub fn distance(&self, other: &Trr) -> f64 {
        self.u.gap_to(&other.u).max(self.v.gap_to(&other.v))
    }

    /// Minimum Manhattan distance from `p` to the region.
    #[must_use]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let r = p.to_rotated();
        self.u
            .distance_to_point(r.u)
            .max(self.v.distance_to_point(r.v))
    }

    /// Whether `p` lies inside the region.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.distance_to_point(p) <= GEOM_EPS
    }

    /// The Minkowski sum of the region with a Manhattan ball of radius `r`:
    /// all points within Manhattan distance `r` of the region.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative or not finite.
    #[must_use]
    pub fn expanded(&self, r: f64) -> Self {
        assert!(
            r >= 0.0 && r.is_finite(),
            "expansion radius must be >= 0, got {r}"
        );
        Self {
            u: self.u.expanded(r),
            v: self.v.expanded(r),
        }
    }

    /// The set of points lying in both regions, or `None` when disjoint.
    #[must_use]
    pub fn intersection(&self, other: &Trr) -> Option<Trr> {
        Some(Self {
            u: self.u.intersection(&other.u)?,
            v: self.v.intersection(&other.v)?,
        })
    }

    /// The set of points lying in both regions, tolerating a separation of
    /// up to `slack` in each rotated coordinate.
    ///
    /// Zero-skew merges produce tap radii whose sum equals the region
    /// distance exactly in real arithmetic; at die-scale coordinates the f64
    /// rounding of the expansion can leave a gap of a few ulps. Callers that
    /// construct merge regions should use this variant with a small
    /// magnitude-scaled slack instead of [`Trr::intersection`].
    #[must_use]
    pub fn intersection_with_slack(&self, other: &Trr, slack: f64) -> Option<Trr> {
        Some(Self {
            u: self.u.intersection_with_slack(&other.u, slack)?,
            v: self.v.intersection_with_slack(&other.v, slack)?,
        })
    }

    /// The point of the region closest (in Manhattan distance) to `p`.
    ///
    /// When `p` is inside the region, returns `p` itself.
    #[must_use]
    pub fn closest_point(&self, p: Point) -> Point {
        let r = p.to_rotated();
        RotPoint::new(self.u.clamp(r.u), self.v.clamp(r.v)).to_layout()
    }
}

impl fmt::Display for Trr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, b) = self.corners();
        if self.is_point() {
            write!(f, "Trr{{{a}}}")
        } else if self.is_segment() {
            write!(f, "Trr{{{a} — {b}}}")
        } else {
            write!(f, "Trr{{{a} .. {b}}}")
        }
    }
}

impl From<Point> for Trr {
    fn from(p: Point) -> Self {
        Trr::point(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_region_distance_is_manhattan() {
        let a = Trr::point(Point::new(0.0, 0.0));
        let b = Trr::point(Point::new(3.0, 4.0));
        assert_eq!(a.distance(&b), 7.0);
    }

    #[test]
    fn expanded_point_is_manhattan_ball() {
        let a = Trr::point(Point::new(0.0, 0.0)).expanded(5.0);
        // Boundary points of the diamond.
        for p in [
            Point::new(5.0, 0.0),
            Point::new(0.0, 5.0),
            Point::new(-5.0, 0.0),
            Point::new(2.5, 2.5),
        ] {
            assert!(a.contains(p), "{p} should be on the ball");
        }
        assert!(!a.contains(Point::new(3.0, 3.0)));
    }

    #[test]
    fn merge_of_two_points_is_diagonal_segment() {
        let a = Trr::point(Point::new(0.0, 0.0));
        let b = Trr::point(Point::new(10.0, 0.0));
        let ms = a.expanded(4.0).intersection(&b.expanded(6.0)).unwrap();
        assert!(ms.is_segment());
        // Every corner is exactly 4 from a and 6 from b.
        let (p, q) = ms.corners();
        for pt in [p, q, ms.center()] {
            assert!((pt.manhattan(Point::new(0.0, 0.0)) - 4.0).abs() < 1e-9);
            assert!((pt.manhattan(Point::new(10.0, 0.0)) - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn disjoint_regions_do_not_intersect() {
        let a = Trr::point(Point::new(0.0, 0.0)).expanded(1.0);
        let b = Trr::point(Point::new(10.0, 0.0)).expanded(1.0);
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.distance(&b), 8.0);
    }

    #[test]
    fn closest_point_achieves_distance() {
        let ms = Trr::diagonal(Point::new(0.0, 4.0), Point::new(4.0, 0.0));
        let p = Point::new(5.0, 5.0);
        let c = ms.closest_point(p);
        assert!(ms.contains(c));
        assert!((p.manhattan(c) - ms.distance_to_point(p)).abs() < 1e-9);
        // Interior query returns the query itself.
        let inside = Point::new(2.0, 2.0);
        assert_eq!(ms.closest_point(inside), inside);
    }

    #[test]
    #[should_panic(expected = "diagonal endpoints")]
    fn non_diagonal_segment_is_rejected() {
        let _ = Trr::diagonal(Point::new(0.0, 0.0), Point::new(3.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "expansion radius")]
    fn negative_expansion_is_rejected() {
        let _ = Trr::point(Point::ORIGIN).expanded(-1.0);
    }

    #[test]
    fn segment_classification() {
        assert!(Trr::point(Point::ORIGIN).is_point());
        assert!(Trr::point(Point::ORIGIN).is_segment());
        let seg = Trr::diagonal(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        assert!(seg.is_segment() && !seg.is_point());
        let fat = Trr::point(Point::ORIGIN).expanded(1.0);
        assert!(!fat.is_segment() && !fat.is_point());
    }

    #[test]
    fn center_of_segment_is_midpoint_of_corners() {
        let seg = Trr::diagonal(Point::new(0.0, 4.0), Point::new(4.0, 0.0));
        let (a, b) = seg.corners();
        assert_eq!(seg.center(), a.midpoint(b));
    }

    #[test]
    fn display_is_nonempty() {
        for t in [
            Trr::point(Point::ORIGIN),
            Trr::diagonal(Point::new(0.0, 2.0), Point::new(2.0, 0.0)),
            Trr::point(Point::ORIGIN).expanded(1.0),
        ] {
            assert!(!format!("{t}").is_empty());
        }
    }
}

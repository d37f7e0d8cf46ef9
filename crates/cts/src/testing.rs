//! The engine tests' shared objective.

use gcr_geometry::{Point, Trr};

use crate::{BoundRows, BoundTerms, CtsError, MergeObjective};

/// Objective over plain points: cost = the Manhattan distance (as the
/// region distance of two point regions, so the bound kernel reproduces
/// it bit for bit); a merge creates the midpoint. The distance is its own
/// admissible bound. Subset-closed: a local instance over any member set
/// has bit-identical leaf states, as the coarsened and ECO engines need.
#[derive(Clone)]
pub(crate) struct PointObjective {
    pub(crate) points: Vec<Point>,
}

impl PointObjective {
    pub(crate) fn over(points: &[Point]) -> Self {
        Self {
            points: points.to_vec(),
        }
    }
}

/// The bound terms of a point region.
fn point_terms(p: Point) -> BoundTerms {
    let ms = Trr::point(p);
    BoundTerms {
        region: [ms.u().lo(), ms.u().hi(), ms.v().lo(), ms.v().hi()],
        scalars: [0.0; 2],
    }
}

impl MergeObjective for PointObjective {
    fn cost(&self, a: usize, b: usize) -> f64 {
        Trr::point(self.points[a]).distance(&Trr::point(self.points[b]))
    }
    fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
        self.cost(a, b)
    }
    fn bound_terms(&self, node: usize) -> BoundTerms {
        point_terms(self.points[node])
    }
    fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
        rows.price(center, out, |d, _| d);
    }
    fn cost_lower_bound_at_distance(&self, _node: usize, dist: f64, _floor: [f64; 2]) -> f64 {
        dist
    }
    fn location(&self, node: usize) -> Point {
        self.points[node]
    }
    fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
        assert!(a < b, "merge ({a}, {b}) is not in ascending order");
        assert_eq!(k, self.points.len());
        let mid = self.points[a].midpoint(self.points[b]);
        self.points.push(mid);
        Ok(())
    }
}

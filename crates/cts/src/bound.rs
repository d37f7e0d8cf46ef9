//! The columnar inputs of the batched bound kernels.
//!
//! Every candidate batch of the pruned greedy engine — expansion rings,
//! post-merge floods and re-floods — prices one center node against many
//! partners with
//! [`MergeObjective::bound_kernel`](crate::MergeObjective::bound_kernel).
//! The kernel never sees node ids: it reads each partner's
//! [`BoundTerms`] from contiguous struct-of-arrays columns
//! ([`BoundRows`]), so a flood streams memory instead of gathering six
//! values per candidate through an index list. The engine keeps the live
//! nodes' terms in live order (one row per live node), and copies a ring
//! batch's terms into the same layout before pricing it.

use std::ops::Range;

/// The per-node inputs of a pairwise lower bound: the merging region as
/// its rotated-interval endpoints, plus two objective-defined scalars
/// (the Equation-3 objective stores its merge-independent static term and
/// `P(EN)`; the nearest-neighbour objective stores zeros).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoundTerms {
    /// `[u_lo, u_hi, v_lo, v_hi]` of the merging region, where
    /// `u = x + y` and `v = y − x`.
    pub region: [f64; 4],
    /// Objective-defined per-node scalars.
    pub scalars: [f64; 2],
}

impl BoundTerms {
    /// The largest Manhattan distance from the region's center to any of
    /// its points (0 for a point region, such as a sink leaf).
    #[must_use]
    #[inline]
    pub fn radius(&self) -> f64 {
        let [u_lo, u_hi, v_lo, v_hi] = self.region;
        ((u_hi - u_lo) / 2.0).max((v_hi - v_lo) / 2.0)
    }

    /// The bit patterns of every term, for bitwise comparisons.
    #[must_use]
    pub fn to_bits(&self) -> [u64; 6] {
        let [a, b, c, d] = self.region;
        let [e, f] = self.scalars;
        [a, b, c, d, e, f].map(f64::to_bits)
    }
}

/// Owned struct-of-arrays storage of [`BoundTerms`] rows: one column per
/// term. Columns keep their capacity across [`clear`](Self::clear), so a
/// reused set appends without allocating.
#[derive(Clone, Debug, Default)]
pub struct BoundColumns {
    u_lo: Vec<f64>,
    u_hi: Vec<f64>,
    v_lo: Vec<f64>,
    v_hi: Vec<f64>,
    s0: Vec<f64>,
    s1: Vec<f64>,
}

impl BoundColumns {
    /// Number of rows.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.u_lo.len()
    }

    /// Whether no row is stored.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.u_lo.is_empty()
    }

    /// Drops every row, keeping capacity.
    #[inline]
    pub fn clear(&mut self) {
        for column in self.columns_mut() {
            column.clear();
        }
    }

    /// Reserves room for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        for column in self.columns_mut() {
            column.reserve(additional);
        }
    }

    /// Appends one row.
    #[inline]
    pub fn push(&mut self, terms: BoundTerms) {
        let [u_lo, u_hi, v_lo, v_hi] = terms.region;
        let [s0, s1] = terms.scalars;
        self.u_lo.push(u_lo);
        self.u_hi.push(u_hi);
        self.v_lo.push(v_lo);
        self.v_hi.push(v_hi);
        self.s0.push(s0);
        self.s1.push(s1);
    }

    /// Removes row `i` in O(1) by moving the last row into its slot.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[inline]
    pub fn swap_remove(&mut self, i: usize) {
        for column in self.columns_mut() {
            column.swap_remove(i);
        }
    }

    /// All rows, as a borrowed view.
    #[must_use]
    #[inline]
    pub fn rows(&self) -> BoundRows<'_> {
        BoundRows {
            u_lo: &self.u_lo,
            u_hi: &self.u_hi,
            v_lo: &self.v_lo,
            v_hi: &self.v_hi,
            s0: &self.s0,
            s1: &self.s1,
        }
    }

    fn columns_mut(&mut self) -> [&mut Vec<f64>; 6] {
        [
            &mut self.u_lo,
            &mut self.u_hi,
            &mut self.v_lo,
            &mut self.v_hi,
            &mut self.s0,
            &mut self.s1,
        ]
    }
}

/// A borrowed run of [`BoundTerms`] rows in column form: what a bound
/// kernel prices. Cheap to copy, split and sub-slice, so the engine can
/// hand disjoint runs of one batch to separate threads.
#[derive(Clone, Copy, Debug)]
pub struct BoundRows<'a> {
    u_lo: &'a [f64],
    u_hi: &'a [f64],
    v_lo: &'a [f64],
    v_hi: &'a [f64],
    s0: &'a [f64],
    s1: &'a [f64],
}

impl<'a> BoundRows<'a> {
    /// Number of rows.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.u_lo.len()
    }

    /// Whether the view holds no row.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.u_lo.is_empty()
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[must_use]
    #[inline]
    pub fn row(&self, i: usize) -> BoundTerms {
        BoundTerms {
            region: [self.u_lo[i], self.u_hi[i], self.v_lo[i], self.v_hi[i]],
            scalars: [self.s0[i], self.s1[i]],
        }
    }

    /// The rows in `range`.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds.
    #[must_use]
    #[inline]
    pub fn slice(self, range: Range<usize>) -> Self {
        Self {
            u_lo: &self.u_lo[range.clone()],
            u_hi: &self.u_hi[range.clone()],
            v_lo: &self.v_lo[range.clone()],
            v_hi: &self.v_hi[range.clone()],
            s0: &self.s0[range.clone()],
            s1: &self.s1[range],
        }
    }

    /// Prices every row against `center`: writes
    /// `combine(d, row.scalars)` into `out[i]`, where `d` is the region
    /// distance from `center` to row `i` — the same max-chain as
    /// `Trr::distance` with `center` first, so it is bit-identical to the
    /// per-pair distance. The loop runs over zipped column slices with no
    /// index arithmetic and no branches, which LLVM unrolls and
    /// vectorizes; this is the one loop every objective's
    /// [`bound_kernel`](crate::MergeObjective::bound_kernel) runs.
    ///
    /// # Panics
    ///
    /// Panics when `out` and the view differ in length.
    #[inline]
    pub fn price(
        self,
        center: &BoundTerms,
        out: &mut [f64],
        combine: impl Fn(f64, [f64; 2]) -> f64,
    ) {
        assert_eq!(out.len(), self.len(), "bound kernel output length");
        let [c_ulo, c_uhi, c_vlo, c_vhi] = center.region;
        let region = self
            .u_lo
            .iter()
            .zip(self.u_hi)
            .zip(self.v_lo.iter().zip(self.v_hi));
        let scalars = self.s0.iter().zip(self.s1);
        for (o, (((&u_lo, &u_hi), (&v_lo, &v_hi)), (&s0, &s1))) in
            out.iter_mut().zip(region.zip(scalars))
        {
            let du = (c_ulo - u_hi).max(u_lo - c_uhi).max(0.0);
            let dv = (c_vlo - v_hi).max(v_lo - c_vhi).max(0.0);
            *o = combine(du.max(dv), [s0, s1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(i: usize) -> BoundTerms {
        let f = i as f64;
        BoundTerms {
            region: [f, f + 1.0, -f, 2.0 - f],
            scalars: [0.5 * f, 1.0 / (1.0 + f)],
        }
    }

    #[test]
    fn columns_round_trip_rows_and_swap_remove() {
        let mut cols = BoundColumns::default();
        for i in 0..5 {
            cols.push(terms(i));
        }
        assert_eq!(cols.len(), 5);
        assert_eq!(cols.rows().row(3), terms(3));
        cols.swap_remove(1);
        assert_eq!(cols.len(), 4);
        assert_eq!(cols.rows().row(1), terms(4), "the last row fills the hole");
        cols.push(terms(9));
        assert_eq!(cols.rows().slice(4..5).row(0), terms(9));
        cols.clear();
        assert!(cols.is_empty() && cols.rows().is_empty());
    }

    #[test]
    fn radius_is_half_the_longer_rotated_extent() {
        let point = BoundTerms {
            region: [3.0, 3.0, -1.0, -1.0],
            scalars: [0.0; 2],
        };
        assert_eq!(point.radius().to_bits(), 0.0_f64.to_bits());
        let segment = BoundTerms {
            region: [0.0, 10.0, 4.0, 4.0],
            scalars: [0.0; 2],
        };
        assert_eq!(segment.radius(), 5.0);
    }
}

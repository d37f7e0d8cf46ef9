//! Struct-of-arrays storage for the bottom-up merge engine.
//!
//! During greedy topology construction every candidate evaluation needs a
//! handful of per-subtree scalars: the merging region, the Elmore delay
//! polynomial coefficients, and the capacitance the subtree presents to a
//! prospective parent. [`MergeArena`] stores each of those as its own
//! dense vector indexed by topology node, so the hot loops of the greedy
//! engine scan contiguous memory instead of chasing per-node structs, and
//! the per-merge coefficient computation of
//! [`SubtreeState::delay_coefficients`] happens **once per node** (at
//! push time) instead of once per candidate evaluation.

use gcr_geometry::{Point, Trr};
use gcr_rctree::{Device, Technology};

use crate::merge::{balanced_tap_split, merge_region};
use crate::{CtsError, MergeOutcome, Sink, SubtreeState};

/// u32-indexable struct-of-arrays arena of subtree electrical summaries.
///
/// Each node `i` caches the derived quantities of its [`SubtreeState`]:
///
/// * `ms[i]` — the merging region;
/// * `t0[i]`, `alpha[i]` (plus the shared `beta`) — the Elmore delay
///   polynomial `D(e) = t0 + α·e + β·e²` through the feeding edge;
/// * `pc0[i]`, `pc1[i]` — the presented capacitance as the linear form
///   `pc1·e + pc0` (`pc1 = 0`, `pc0 = C_in` for a gated edge; `pc1 = c`,
///   `pc0 = C_subtree` for a plain wire).
///
/// All values are computed with exactly the expressions of
/// [`SubtreeState::delay_coefficients`] / `presented_cap`, so
/// [`MergeArena::try_merge`] is bit-identical to
/// [`zero_skew_merge`](crate::zero_skew_merge) on the reconstructed
/// states. Entries are immutable once pushed — a merge invalidates
/// nothing, it only appends the new node — which is what lets heap entries
/// of the greedy engine never go stale.
#[derive(Debug)]
pub struct MergeArena {
    unit_res: f64,
    unit_cap: f64,
    /// Shared quadratic coefficient `β = r·c/2` of every delay polynomial.
    beta: f64,
    ms: Vec<Trr>,
    delay: Vec<f64>,
    cap: Vec<f64>,
    t0: Vec<f64>,
    alpha: Vec<f64>,
    pc0: Vec<f64>,
    pc1: Vec<f64>,
    device: Vec<Option<Device>>,
}

/// Copies a vector without shedding its spare capacity, so a cloned
/// objective keeps the zero-reallocation guarantee of its original.
/// (`Vec::clone` allocates exactly `len`, which would make the first
/// merges after a clone reallocate every column.)
#[must_use]
pub fn clone_preserving_capacity<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend(v.iter().cloned());
    out
}

impl Clone for MergeArena {
    fn clone(&self) -> Self {
        Self {
            unit_res: self.unit_res,
            unit_cap: self.unit_cap,
            beta: self.beta,
            ms: clone_preserving_capacity(&self.ms),
            delay: clone_preserving_capacity(&self.delay),
            cap: clone_preserving_capacity(&self.cap),
            t0: clone_preserving_capacity(&self.t0),
            alpha: clone_preserving_capacity(&self.alpha),
            pc0: clone_preserving_capacity(&self.pc0),
            pc1: clone_preserving_capacity(&self.pc1),
            device: clone_preserving_capacity(&self.device),
        }
    }
}

/// Largest node count the packed-entry / u32 indexing supports: node
/// indices live in 31-bit fields of the greedy engine's packed heap tags
/// (and in u32 [`TreeNode`](crate::TreeNode) children), so `2·n − 1` must
/// stay at or below `2³¹ − 1`.
pub(crate) const NODE_INDEX_LIMIT: usize = (1 << 31) - 1;

impl MergeArena {
    /// Creates an empty arena for `capacity` nodes (pass `2·n − 1` for an
    /// `n`-sink run so the greedy loop never reallocates).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` exceeds the 31-bit node-index budget; use
    /// [`MergeArena::try_new`] to get a [`CtsError::CapacityExceeded`]
    /// instead.
    #[must_use]
    pub fn new(tech: &Technology, capacity: usize) -> Self {
        match Self::try_new(tech, capacity) {
            Ok(arena) => arena,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`MergeArena::new`]: rejects capacities whose node indices
    /// would not fit the engine's packed 31-bit / u32 representation,
    /// *before* any column is allocated — silent index truncation
    /// downstream is never an option.
    ///
    /// # Errors
    ///
    /// Returns [`CtsError::CapacityExceeded`] when `capacity` exceeds
    /// `2³¹ − 1` nodes.
    pub fn try_new(tech: &Technology, capacity: usize) -> Result<Self, CtsError> {
        if capacity > NODE_INDEX_LIMIT {
            return Err(CtsError::CapacityExceeded {
                nodes: capacity,
                limit: NODE_INDEX_LIMIT,
            });
        }
        let unit_res = tech.unit_res();
        let unit_cap = tech.unit_cap();
        Ok(Self {
            unit_res,
            unit_cap,
            beta: unit_res * unit_cap / 2.0,
            ms: Vec::with_capacity(capacity),
            delay: Vec::with_capacity(capacity),
            cap: Vec::with_capacity(capacity),
            t0: Vec::with_capacity(capacity),
            alpha: Vec::with_capacity(capacity),
            pc0: Vec::with_capacity(capacity),
            pc1: Vec::with_capacity(capacity),
            device: Vec::with_capacity(capacity),
        })
    }

    /// Number of stored nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Whether the arena holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// Appends a subtree state, caching its delay-polynomial and
    /// presented-capacitance coefficients. Returns the new node's index.
    pub fn push_state(&mut self, state: &SubtreeState) -> usize {
        let i = self.ms.len();
        self.ms.push(state.ms);
        self.delay.push(state.delay);
        self.cap.push(state.cap);
        match state.edge_device {
            Some(d) => {
                self.t0
                    .push(state.delay + d.intrinsic_delay() + d.output_res() * state.cap);
                self.alpha
                    .push(self.unit_res * state.cap + d.output_res() * self.unit_cap);
                self.pc0.push(d.input_cap());
                self.pc1.push(0.0);
            }
            None => {
                self.t0.push(state.delay);
                self.alpha.push(self.unit_res * state.cap);
                self.pc0.push(state.cap);
                self.pc1.push(self.unit_cap);
            }
        }
        self.device.push(state.edge_device);
        i
    }

    /// Appends a sink leaf whose feeding edge carries `device`.
    pub fn push_leaf(&mut self, sink: &Sink, device: Option<Device>) -> usize {
        self.push_state(&SubtreeState::leaf_with_device(sink, device))
    }

    /// The merging region of node `i`.
    #[must_use]
    pub fn ms(&self, i: usize) -> &Trr {
        &self.ms[i]
    }

    /// The center of node `i`'s merging region.
    #[must_use]
    pub fn center(&self, i: usize) -> Point {
        self.ms[i].center()
    }

    /// Distance (layout units) between the merging regions of `a` and `b`.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.ms[a].distance(&self.ms[b])
    }

    /// The merging region of node `i` as the `[u_lo, u_hi, v_lo, v_hi]`
    /// rotated-interval endpoints of a [`BoundTerms`](crate::BoundTerms)
    /// row, so bound kernels price it with `Trr::distance`'s exact
    /// expression.
    #[inline]
    #[must_use]
    pub fn region(&self, i: usize) -> [f64; 4] {
        let ms = &self.ms[i];
        [ms.u().lo(), ms.u().hi(), ms.v().lo(), ms.v().hi()]
    }

    /// The Elmore delay (ps) below node `i`.
    #[must_use]
    pub fn delay(&self, i: usize) -> f64 {
        self.delay[i]
    }

    /// The downstream capacitance (pF) at node `i`.
    #[must_use]
    pub fn cap(&self, i: usize) -> f64 {
        self.cap[i]
    }

    /// The device at the top of node `i`'s feeding edge, if any.
    #[must_use]
    pub fn device(&self, i: usize) -> Option<Device> {
        self.device[i]
    }

    /// Reconstructs node `i`'s [`SubtreeState`] (for interop with the
    /// non-arena merge path and for tests).
    #[must_use]
    pub fn state(&self, i: usize) -> SubtreeState {
        SubtreeState {
            ms: self.ms[i],
            delay: self.delay[i],
            cap: self.cap[i],
            edge_device: self.device[i],
        }
    }

    /// Truncates the arena to its first `len` nodes, keeping every
    /// column's spare capacity. This is the rewind primitive of the
    /// incremental ECO engine: leaf rows survive across re-routes while
    /// internal rows from a superseded search are dropped and their
    /// storage reused, so a warm ECO loop appends without reallocating.
    ///
    /// Truncating to a length at or above [`MergeArena::len`] is a no-op.
    pub fn truncate(&mut self, len: usize) {
        self.ms.truncate(len);
        self.delay.truncate(len);
        self.cap.truncate(len);
        self.t0.truncate(len);
        self.alpha.truncate(len);
        self.pc0.truncate(len);
        self.pc1.truncate(len);
        self.device.truncate(len);
    }

    /// The zero-skew merge of nodes `a` and `b` from the cached
    /// coefficients — bit-identical to
    /// [`zero_skew_merge`](crate::zero_skew_merge) on the reconstructed
    /// states, without recomputing the delay polynomials.
    ///
    /// # Errors
    ///
    /// Returns [`CtsError::MergeRegionDisjoint`] exactly when
    /// `zero_skew_merge` would (non-finite geometry).
    pub fn try_merge(&self, a: usize, b: usize) -> Result<MergeOutcome, CtsError> {
        let d = self.ms[a].distance(&self.ms[b]);
        let (ea, eb) = balanced_tap_split(
            d,
            self.t0[a],
            self.alpha[a],
            self.t0[b],
            self.alpha[b],
            self.beta,
        );
        let ms = merge_region(&self.ms[a], &self.ms[b], d, ea, eb)?;
        // Delay measured down either side is identical in exact
        // arithmetic; average the two evaluations to symmetrize rounding.
        let da = self.t0[a] + self.alpha[a] * ea + self.beta * ea * ea;
        let db = self.t0[b] + self.alpha[b] * eb + self.beta * eb * eb;
        let delay = 0.5 * (da + db);
        let cap = (self.pc1[a] * ea + self.pc0[a]) + (self.pc1[b] * eb + self.pc0[b]);
        Ok(MergeOutcome {
            ea,
            eb,
            ms,
            delay,
            cap,
        })
    }

    /// Merges `a` and `b` and pushes the resulting node (whose future
    /// parent edge carries `device`), returning the merge outcome.
    ///
    /// # Errors
    ///
    /// As [`MergeArena::try_merge`].
    pub fn merge_push(
        &mut self,
        a: usize,
        b: usize,
        device: Option<Device>,
    ) -> Result<MergeOutcome, CtsError> {
        let outcome = self.try_merge(a, b)?;
        self.push_state(&outcome.gated_state(device));
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zero_skew_merge, BoundColumns, BoundTerms};
    use gcr_geometry::Point;

    fn sinks() -> Vec<Sink> {
        vec![
            Sink::new(Point::new(0.0, 0.0), 0.05),
            Sink::new(Point::new(1000.0, 0.0), 0.11),
            Sink::new(Point::new(300.0, 800.0), 0.02),
            Sink::new(Point::new(5.0, 5.0), 0.07),
        ]
    }

    /// Every cached quantity and every merge must be bit-identical to the
    /// non-arena [`zero_skew_merge`] path, gated and ungated.
    #[test]
    fn arena_merges_match_zero_skew_merge_bitwise() {
        let tech = Technology::default();
        for device in [None, Some(tech.and_gate()), Some(tech.buffer())] {
            let sinks = sinks();
            let mut arena = MergeArena::new(&tech, 2 * sinks.len() - 1);
            let mut states: Vec<SubtreeState> = sinks
                .iter()
                .map(|s| SubtreeState::leaf_with_device(s, device))
                .collect();
            for s in &sinks {
                arena.push_leaf(s, device);
            }
            // Merge in a fixed order, comparing outcomes at every step.
            for (a, b) in [(0usize, 1usize), (2, 3), (4, 5)] {
                let expect = zero_skew_merge(&tech, &states[a], &states[b]).unwrap();
                let got = arena.try_merge(a, b).unwrap();
                assert_eq!(got, expect, "try_merge({a}, {b}) with {device:?}");
                let pushed = arena.merge_push(a, b, device).unwrap();
                assert_eq!(pushed, expect);
                states.push(expect.gated_state(device));
                let k = arena.len() - 1;
                assert_eq!(arena.state(k), states[k]);
                assert_eq!(arena.distance(a, b), states[a].distance(&states[b]));
                assert_eq!(arena.center(k), states[k].ms.center());
            }
        }
    }

    /// Region rows priced by the columnar kernel must agree bitwise with
    /// the per-pair distance on every (center, candidate) combination,
    /// including region-vs-region (non-point) distances and runs whose
    /// length is not a multiple of any vector width.
    #[test]
    fn region_rows_match_per_pair_distance_bitwise() {
        let tech = Technology::default();
        let sinks: Vec<Sink> = (0..23)
            .map(|i| {
                Sink::new(
                    Point::new(f64::from(i * 131 % 1009), f64::from(i * 197 % 977)),
                    0.02 + 0.01 * f64::from(i % 4),
                )
            })
            .collect();
        let mut arena = MergeArena::new(&tech, 2 * sinks.len() - 1);
        for s in &sinks {
            arena.push_leaf(s, None);
        }
        // A few merges so some nodes carry segment (non-point) regions.
        for (a, b) in [(0usize, 1usize), (2, 3), (23, 24), (4, 25)] {
            arena.merge_push(a, b, None).unwrap();
        }
        let n = arena.len();
        let terms = |i: usize| BoundTerms {
            region: arena.region(i),
            scalars: [0.0; 2],
        };
        let mut cols = BoundColumns::default();
        for y in 0..n {
            cols.push(terms(y));
        }
        let mut out = vec![0.0; n];
        for center in 0..n {
            for len in [n, 5] {
                let rows = cols.rows().slice(0..len);
                rows.price(&terms(center), &mut out[..len], |d, _| d);
                for (y, &got) in out[..len].iter().enumerate() {
                    let want = arena.distance(center, y);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "distance({center}, {y}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_state_surfaces_as_disjoint_error() {
        let tech = Technology::default();
        let mut arena = MergeArena::new(&tech, 3);
        let mut bad = SubtreeState::leaf(&Sink::new(Point::ORIGIN, 0.05));
        bad.delay = f64::NAN;
        arena.push_state(&bad);
        arena.push_leaf(&Sink::new(Point::new(100.0, 0.0), 0.05), None);
        let err = arena.try_merge(0, 1).unwrap_err();
        assert!(matches!(err, CtsError::MergeRegionDisjoint { .. }), "{err}");
    }

    /// An arena sized past the 31-bit node budget must refuse up front —
    /// with `try_new` as an error, with `new` as a panic — rather than
    /// hand out indices that would later truncate in u32/packed storage.
    #[test]
    fn oversized_capacity_is_rejected_before_allocation() {
        let tech = Technology::default();
        let over = NODE_INDEX_LIMIT + 1;
        let err = MergeArena::try_new(&tech, over).unwrap_err();
        assert_eq!(
            err,
            CtsError::CapacityExceeded {
                nodes: over,
                limit: NODE_INDEX_LIMIT,
            }
        );
        assert!(MergeArena::try_new(&tech, 8).is_ok());
    }

    /// Rewinding to the leaf count and re-merging must reproduce the
    /// dropped internal rows bitwise, without growing any column's
    /// capacity (the warm-ECO reuse contract).
    #[test]
    fn truncate_rewinds_to_leaves_and_remerge_is_bitwise_stable() {
        let tech = Technology::default();
        let sinks = sinks();
        let mut arena = MergeArena::new(&tech, 2 * sinks.len() - 1);
        for s in &sinks {
            arena.push_leaf(s, Some(tech.and_gate()));
        }
        let first = arena.merge_push(0, 1, None).unwrap();
        let second = arena.merge_push(2, 3, None).unwrap();
        let cap_before = arena.ms.capacity();
        arena.truncate(sinks.len());
        assert_eq!(arena.len(), sinks.len());
        assert_eq!(arena.merge_push(0, 1, None).unwrap(), first);
        assert_eq!(arena.merge_push(2, 3, None).unwrap(), second);
        assert_eq!(arena.ms.capacity(), cap_before, "capacity must survive");
        // Truncating past the end is a no-op.
        arena.truncate(100);
        assert_eq!(arena.len(), sinks.len() + 2);
    }

    #[test]
    fn accessors_expose_pushed_state() {
        let tech = Technology::default();
        let mut arena = MergeArena::new(&tech, 1);
        assert!(arena.is_empty());
        let s = Sink::new(Point::new(3.0, 4.0), 0.02);
        let i = arena.push_leaf(&s, Some(tech.and_gate()));
        assert_eq!(i, 0);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.delay(0), 0.0);
        assert_eq!(arena.cap(0), 0.02);
        assert_eq!(arena.device(0), Some(tech.and_gate()));
        assert_eq!(arena.center(0), Point::new(3.0, 4.0));
        assert!(arena.ms(0).is_point());
    }
}

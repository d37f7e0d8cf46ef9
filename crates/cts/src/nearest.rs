use gcr_geometry::Point;
use gcr_rctree::{Device, Technology};

use crate::{
    embed, run_greedy_with_scratch, BoundRows, BoundTerms, ClockTree, CtsError, DeviceAssignment,
    GreedyParams, GreedyScratch, MergeArena, MergeObjective, Sink, Topology,
};

/// A uniform bucket grid over a fixed point set, in the spirit of
/// Edahiro's nearest-neighbor decomposition \[3\]: cells of side
/// [`cell_size`](Self::cell_size) hold point indices and are queried in
/// concentric Chebyshev *rings* of cells around a query point.
///
/// The geometric guarantee the pruned greedy engine builds on: once rings
/// `0..=r` of a query point have been visited, every unvisited point sits
/// in a cell whose Chebyshev cell-distance is at least `r + 1`, so some
/// coordinate differs by more than `r` whole cells — its Manhattan
/// distance from the query point exceeds `r * cell_size()`.
/// Cell membership is stored in CSR form — one flat `items` array of
/// point indices plus per-cell `starts` offsets — so a ring sweep is a
/// series of contiguous `memcpy`-style slice reads instead of a walk over
/// per-cell heap vectors.
#[derive(Clone, Debug)]
pub struct BucketGrid {
    origin: Point,
    cell: f64,
    nx: usize,
    ny: usize,
    /// `starts[c]..starts[c + 1]` indexes `items` for cell `c = cy*nx+cx`.
    starts: Vec<u32>,
    /// Point indices, grouped by cell, ascending within each cell.
    items: Vec<u32>,
    /// One occupancy bit per cell (row-major, `words_per_row` words per
    /// row), set while the cell still holds at least one live point.
    /// Ring sweeps walk set bits instead of visiting every perimeter
    /// cell, so sweeps over dead regions cost a few word reads.
    occupied: Vec<u64>,
    words_per_row: usize,
    /// The same occupancy bits column-major (`words_per_col` words per
    /// column), so a ring's two side columns are walked by set bit as
    /// well as its rows.
    occupied_cols: Vec<u64>,
    words_per_col: usize,
    /// Live points remaining per cell ([`Self::mark_dead`] decrements).
    cell_live: Vec<u32>,
    /// Cell index of each point, for O(1) removal.
    point_cell: Vec<u32>,
}

/// Smallest admissible cell side. A *tiny but nonzero* extent (think a
/// coarsened region whose sinks sit within a few nanometers, or subnormal
/// coordinate spreads) would otherwise produce `cell = extent / √n`
/// rounding to `0.0` — and a zero cell turns [`BucketGrid::dimension`]
/// into `extent / 0 = inf`, saturating the cell counts. Any positive cell
/// keeps the ring distance guarantee valid (members of ring `r` are
/// farther than `(r − 1) · cell`), so clamping only trades pruning
/// sharpness, never correctness.
const MIN_CELL: f64 = 1e-9;

impl BucketGrid {
    /// Builds a grid over `points`, sized at roughly one point per cell
    /// (`cell ≈ extent / √n`, clamped below by a positive minimum).
    /// Degenerate inputs (coincident points, non-finite coordinates)
    /// collapse to a single bucket, which keeps every query correct —
    /// just unpruned.
    ///
    /// # Panics
    ///
    /// Panics when `points` is empty.
    #[must_use]
    pub fn build(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "bucket grid needs at least one point");
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min = Point::new(min.x.min(p.x), min.y.min(p.y));
            max = Point::new(max.x.max(p.x), max.y.max(p.y));
        }
        let (w, h) = (max.x - min.x, max.y - min.y);
        let extent = w.max(h);
        let cell = if extent.is_finite() && extent > 0.0 {
            (extent / (points.len() as f64).sqrt()).max(MIN_CELL)
        } else {
            1.0
        };
        let nx = Self::dimension(w, cell);
        let ny = Self::dimension(h, cell);
        let origin = if min.x.is_finite() && min.y.is_finite() {
            min
        } else {
            Point::ORIGIN
        };
        let words_per_row = nx.div_ceil(64);
        let words_per_col = ny.div_ceil(64);
        let mut grid = Self {
            origin,
            cell,
            nx,
            ny,
            starts: vec![0; nx * ny + 1],
            items: vec![0; points.len()],
            occupied: vec![0; words_per_row * ny],
            words_per_row,
            occupied_cols: vec![0; words_per_col * nx],
            words_per_col,
            cell_live: vec![0; nx * ny],
            point_cell: vec![0; points.len()],
        };
        // Counting sort into CSR: per-cell counts, prefix sums, then a
        // second pass placing each point. Scanning `points` in order both
        // times keeps indices ascending within every cell — the iteration
        // order the deterministic ring sweeps rely on.
        for &p in points {
            let (cx, cy) = grid.cell_of(p);
            grid.starts[cy * nx + cx + 1] += 1;
        }
        for c in 0..nx * ny {
            grid.starts[c + 1] += grid.starts[c];
        }
        let mut cursor: Vec<u32> = grid.starts[..nx * ny].to_vec();
        for (i, &p) in points.iter().enumerate() {
            let (cx, cy) = grid.cell_of(p);
            let c = cy * nx + cx;
            let slot = &mut cursor[c];
            grid.items[*slot as usize] = i as u32;
            *slot += 1;
            grid.point_cell[i] = c as u32;
            grid.cell_live[c] += 1;
            grid.occupied[cy * words_per_row + cx / 64] |= 1_u64 << (cx % 64);
            grid.occupied_cols[cx * words_per_col + cy / 64] |= 1_u64 << (cy % 64);
        }
        grid
    }

    /// Records that `point` is no longer live. The point stays in the CSR
    /// arrays (callers filter dead indices themselves); what changes is
    /// that a cell whose last live point dies stops being visited by
    /// [`Self::ring_members`], so sweeps shrink as the live set does.
    pub fn mark_dead(&mut self, point: usize) {
        let c = self.point_cell[point] as usize;
        self.cell_live[c] -= 1;
        if self.cell_live[c] == 0 {
            let (cx, cy) = (c % self.nx, c / self.nx);
            self.occupied[cy * self.words_per_row + cx / 64] &= !(1_u64 << (cx % 64));
            self.occupied_cols[cx * self.words_per_col + cy / 64] &= !(1_u64 << (cy % 64));
        }
    }

    /// Number of cells along one axis of extent `extent`.
    fn dimension(extent: f64, cell: f64) -> usize {
        if extent.is_finite() && extent > 0.0 {
            (extent / cell).floor() as usize + 1
        } else {
            1
        }
    }

    /// The side length of one cell (layout units).
    #[must_use]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// The cell containing `p`, clamped into the grid.
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let clamp = |v: f64, n: usize| -> usize {
            if v.is_finite() && v > 0.0 {
                (v as usize).min(n - 1)
            } else {
                0
            }
        };
        (
            clamp((p.x - self.origin.x) / self.cell, self.nx),
            clamp((p.y - self.origin.y) / self.cell, self.ny),
        )
    }

    /// Collects into `out` the indices of every point whose cell is at
    /// Chebyshev cell-distance exactly `ring` from `p`'s cell (`ring` 0 is
    /// `p`'s own cell) and still holds at least one live point. `out` is
    /// cleared first; indices come out in ascending order within each
    /// cell, cells scanned deterministically (top row, bottom row, then
    /// the side columns row by row, left cell before right). Every part
    /// walks set occupancy bits, so a sweep costs O(words) plus its
    /// output, not O(ring).
    pub fn ring_members(&self, p: Point, ring: usize, out: &mut Vec<u32>) {
        out.clear();
        let (cx, cy) = self.cell_of(p);
        let (cx, cy) = (cx as i64, cy as i64);
        let r = ring as i64;
        if r == 0 {
            self.visit_row(cy, cx, cx, out);
            return;
        }
        self.visit_row(cy - r, cx - r, cx + r, out);
        self.visit_row(cy + r, cx - r, cx + r, out);
        self.visit_sides(cy - r + 1, cy + r - 1, cx - r, cx + r, out);
    }

    /// Appends the members of every occupied cell of columns `xl` and
    /// `xr` (either may lie off the grid), rows `y0..=y1` (clamped),
    /// walking the set bits of both columns' occupancy words together:
    /// ascending rows, and on a row holding both, the left cell first.
    fn visit_sides(&self, y0: i64, y1: i64, xl: i64, xr: i64, out: &mut Vec<u32>) {
        let Some((lo, hi)) = clamp_span(y0, y1, self.ny) else {
            return;
        };
        let column = |x: i64| -> &[u64] {
            if (0..self.nx as i64).contains(&x) {
                let x = x as usize;
                &self.occupied_cols[x * self.words_per_col..(x + 1) * self.words_per_col]
            } else {
                &[]
            }
        };
        let (left, right) = (column(xl), column(xr));
        for w in lo / 64..=hi / 64 {
            let mask = word_mask(w, lo, hi);
            let mut l = left.get(w).map_or(0, |&word| word & mask);
            let mut r = right.get(w).map_or(0, |&word| word & mask);
            while l | r != 0 {
                // `trailing_zeros` of an empty word is 64, past any row.
                let (bl, br) = (l.trailing_zeros(), r.trailing_zeros());
                let (x, bit) = if bl <= br {
                    l &= l - 1;
                    (xl as usize, bl as usize)
                } else {
                    r &= r - 1;
                    (xr as usize, br as usize)
                };
                let c = (w * 64 + bit) * self.nx + x;
                out.extend_from_slice(
                    &self.items[self.starts[c] as usize..self.starts[c + 1] as usize],
                );
            }
        }
    }

    /// Appends the members of every occupied cell of row `iy`, columns
    /// `x0..=x1` (clamped to the grid), walking only the set bits of the
    /// row's occupancy words.
    fn visit_row(&self, iy: i64, x0: i64, x1: i64, out: &mut Vec<u32>) {
        if iy < 0 || iy as usize >= self.ny {
            return;
        }
        let Some((lo, hi)) = clamp_span(x0, x1, self.nx) else {
            return;
        };
        let iy = iy as usize;
        let words = &self.occupied[iy * self.words_per_row..(iy + 1) * self.words_per_row];
        for (w, &word) in words.iter().enumerate().take(hi / 64 + 1).skip(lo / 64) {
            let mut word = word & word_mask(w, lo, hi);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let c = iy * self.nx + w * 64 + bit;
                out.extend_from_slice(
                    &self.items[self.starts[c] as usize..self.starts[c + 1] as usize],
                );
            }
        }
    }

    /// The largest ring around `p`'s cell that still overlaps the grid;
    /// rings beyond it are empty forever.
    #[must_use]
    pub fn max_ring(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_of(p);
        (cx.max(self.nx - 1 - cx)).max(cy.max(self.ny - 1 - cy))
    }
}

/// The cells `a..=b` of an axis of `n` cells, clamped to the grid, or
/// `None` when none of them lies on it.
fn clamp_span(a: i64, b: i64, n: usize) -> Option<(usize, usize)> {
    if b < 0 {
        return None;
    }
    let (lo, hi) = (a.max(0) as usize, (b as usize).min(n - 1));
    (lo <= hi).then_some((lo, hi))
}

/// The bits of occupancy word `w` that cover cells `lo..=hi`.
fn word_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let mut mask = !0_u64;
    if w == lo / 64 {
        mask &= !0_u64 << (lo % 64);
    }
    if w == hi / 64 {
        mask &= !0_u64 >> (63 - hi % 64);
    }
    mask
}

/// The nearest-neighbor merge objective (Edahiro \[3\]): merge the two live
/// subtrees whose merging regions are geometrically closest.
///
/// This is the topology generator of the paper's buffered baseline (§5.1)
/// and the reference point for the switched-capacitance objective's
/// ablation.
#[derive(Clone, Debug)]
pub struct NearestNeighborObjective {
    /// Device assumed at the top of every edge as the tree is built
    /// (affects the electrical state seen by later merges), or `None` for
    /// a plain wire tree.
    edge_device: Option<Device>,
    /// Subtree states in struct-of-arrays form, pre-reserved for the full
    /// `2n - 1` nodes so merges never reallocate.
    arena: MergeArena,
}

impl NearestNeighborObjective {
    /// Creates the objective over `sinks`, assuming `edge_device` on every
    /// edge during construction.
    #[must_use]
    pub fn new(tech: &Technology, sinks: &[Sink], edge_device: Option<Device>) -> Self {
        let capacity = sinks.len().saturating_mul(2).saturating_sub(1);
        let mut arena = MergeArena::new(tech, capacity);
        for s in sinks {
            arena.push_leaf(s, edge_device);
        }
        Self { edge_device, arena }
    }
}

impl MergeObjective for NearestNeighborObjective {
    fn cost(&self, a: usize, b: usize) -> f64 {
        self.arena.distance(a, b)
    }

    // The cost *is* the region distance, so it is its own tightest
    // admissible bound; for a leaf (a point region), any partner at
    // Manhattan distance >= dist costs at least dist.
    fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
        self.cost(a, b)
    }

    #[inline]
    fn bound_terms(&self, node: usize) -> BoundTerms {
        BoundTerms {
            region: self.arena.region(node),
            scalars: [0.0; 2],
        }
    }

    // The bound is the region distance itself.
    fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
        rows.price(center, out, |d, _| d);
    }

    fn cost_lower_bound_at_distance(&self, _node: usize, dist: f64, _floor: [f64; 2]) -> f64 {
        dist
    }

    fn location(&self, node: usize) -> Point {
        self.arena.center(node)
    }

    fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
        debug_assert_eq!(k, self.arena.len());
        self.arena.merge_push(a, b, self.edge_device)?;
        Ok(())
    }
}

/// Builds a clock-tree [`Topology`] with the nearest-neighbor heuristic.
///
/// `edge_device` is the device assumed at the top of every edge *during
/// construction* (it changes subtree caps and hence later merge
/// geometry); pass the technology's buffer for the buffered baseline.
///
/// # Errors
///
/// Returns [`CtsError::NoSinks`] when `sinks` is empty.
pub fn nearest_neighbor_topology(
    tech: &Technology,
    sinks: &[Sink],
    edge_device: Option<Device>,
) -> Result<Topology, CtsError> {
    let mut objective = NearestNeighborObjective::new(tech, sinks, edge_device);
    let params = GreedyParams::default();
    run_greedy_with_scratch(
        sinks.len(),
        &mut objective,
        &params,
        &mut GreedyScratch::new(),
    )
    .map(|(topology, _, _)| topology)
}

/// Builds the paper's §5.1 baseline in one call: nearest-neighbor
/// topology, a buffer (half the AND-gate size) on every edge, zero-skew
/// embedding rooted toward `source`.
///
/// # Errors
///
/// Returns [`CtsError::NoSinks`] when `sinks` is empty.
pub fn build_buffered_tree(
    tech: &Technology,
    sinks: &[Sink],
    source: Point,
) -> Result<ClockTree, CtsError> {
    let buffer = tech.buffer();
    let topology = nearest_neighbor_topology(tech, sinks, Some(buffer))?;
    let assignment = DeviceAssignment::everywhere(&topology, buffer);
    embed(&topology, sinks, tech, &assignment, source)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_sinks() -> Vec<Sink> {
        vec![
            Sink::new(Point::new(0.0, 0.0), 0.05),
            Sink::new(Point::new(50.0, 0.0), 0.05),
            Sink::new(Point::new(5000.0, 5000.0), 0.05),
            Sink::new(Point::new(5050.0, 5000.0), 0.05),
        ]
    }

    #[test]
    fn clusters_merge_first() {
        let tech = Technology::default();
        let topo = nearest_neighbor_topology(&tech, &clustered_sinks(), None).unwrap();
        assert_eq!(
            topo.node(4),
            crate::TopoNode::Internal { left: 0, right: 1 }
        );
        assert_eq!(
            topo.node(5),
            crate::TopoNode::Internal { left: 2, right: 3 }
        );
    }

    #[test]
    fn buffered_tree_is_zero_skew() {
        let tech = Technology::default();
        let tree =
            build_buffered_tree(&tech, &clustered_sinks(), Point::new(2500.0, 2500.0)).unwrap();
        assert!(tree.verify_skew(&tech) < 1e-6);
        // A buffer on every edge (7 nodes including the root stub).
        assert_eq!(tree.device_count(), 7);
        for (_, d) in tree.devices() {
            assert_eq!(d, tech.buffer());
        }
    }

    #[test]
    fn buffering_reduces_source_delay_on_spread_sinks() {
        // With widely spread, heavily loaded sinks, buffers decouple the
        // root from the full subtree capacitance.
        let tech = Technology::default();
        let sinks: Vec<Sink> = (0..16)
            .map(|i| {
                Sink::new(
                    Point::new(f64::from(i % 4) * 20_000.0, f64::from(i / 4) * 20_000.0),
                    0.2,
                )
            })
            .collect();
        let src = Point::new(30_000.0, 30_000.0);
        let buffered = build_buffered_tree(&tech, &sinks, src).unwrap();
        let topo = nearest_neighbor_topology(&tech, &sinks, None).unwrap();
        let plain = embed(&topo, &sinks, &tech, &DeviceAssignment::none(&topo), src).unwrap();
        assert!(
            buffered.source_to_sink_delay(&tech) < plain.source_to_sink_delay(&tech),
            "buffered {} >= plain {}",
            buffered.source_to_sink_delay(&tech),
            plain.source_to_sink_delay(&tech)
        );
    }

    #[test]
    fn empty_sinks_error() {
        let tech = Technology::default();
        assert_eq!(
            nearest_neighbor_topology(&tech, &[], None).unwrap_err(),
            CtsError::NoSinks
        );
        assert!(build_buffered_tree(&tech, &[], Point::ORIGIN).is_err());
    }

    #[test]
    fn bucket_grid_rings_partition_all_points() {
        let points: Vec<Point> = (0..200)
            .map(|i| Point::new(f64::from(i * 131 % 1009), f64::from(i * 197 % 977)))
            .collect();
        let grid = BucketGrid::build(&points);
        let mut members = Vec::new();
        for &query in &points[..10] {
            let mut seen = vec![false; points.len()];
            for ring in 0..=grid.max_ring(query) {
                grid.ring_members(query, ring, &mut members);
                for &m in &members {
                    assert!(!seen[m as usize], "point {m} appeared in two rings");
                    seen[m as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "rings must cover every point");
        }
    }

    #[test]
    fn bucket_grid_distance_guarantee() {
        // Any point in ring r >= 1 of `query` must be farther than
        // (r - 1) * cell in Manhattan distance — the admissibility basis
        // of the pruned engine's expansion entries.
        let points: Vec<Point> = (0..150)
            .map(|i| Point::new(f64::from(i * 37 % 499), f64::from(i * 61 % 503)))
            .collect();
        let grid = BucketGrid::build(&points);
        let mut members = Vec::new();
        for &query in &points[..8] {
            for ring in 1..=grid.max_ring(query) {
                grid.ring_members(query, ring, &mut members);
                let floor = (ring - 1) as f64 * grid.cell_size();
                for &m in &members {
                    let d = query.manhattan(points[m as usize]);
                    assert!(
                        d >= floor,
                        "ring {ring}: point {m} at distance {d} < floor {floor}"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_grid_handles_degenerate_point_sets() {
        // Coincident points: one bucket, ring 0 holds everything.
        let coincident = vec![Point::new(5.0, 5.0); 7];
        let grid = BucketGrid::build(&coincident);
        assert_eq!(grid.max_ring(coincident[0]), 0);
        let mut members = Vec::new();
        grid.ring_members(coincident[0], 0, &mut members);
        assert_eq!(members.len(), 7);
        // Collinear points still partition.
        let line: Vec<Point> = (0..30)
            .map(|i| Point::new(f64::from(i) * 10.0, 0.0))
            .collect();
        let grid = BucketGrid::build(&line);
        let mut count = 0;
        for ring in 0..=grid.max_ring(line[0]) {
            grid.ring_members(line[0], ring, &mut members);
            count += members.len();
        }
        assert_eq!(count, 30);
        // A single point.
        let one = BucketGrid::build(&[Point::ORIGIN]);
        assert_eq!(one.max_ring(Point::ORIGIN), 0);
    }

    /// A positive-but-tiny extent must not underflow the cell size to
    /// zero: pre-clamp, `extent / √n` on a subnormal spread rounded to
    /// `0.0`, `dimension()` divided by it and saturated the cell counts.
    /// Post-clamp the grid stays small, the cell positive, and rings
    /// still cover every point.
    #[test]
    fn bucket_grid_clamps_tiny_extents() {
        // Two x positions one subnormal ulp apart: the extent is positive,
        // but dividing it by √9 underflows to 0.0 without the clamp.
        let tiny = f64::from_bits(1);
        let points: Vec<Point> = (0..9)
            .map(|i| Point::new(if i < 5 { 0.0 } else { tiny }, 5.0))
            .collect();
        let grid = BucketGrid::build(&points);
        assert!(grid.cell_size() >= MIN_CELL, "cell {}", grid.cell_size());
        assert!(grid.max_ring(points[0]) <= 4, "grid blew up");
        let mut members = Vec::new();
        let mut count = 0;
        for ring in 0..=grid.max_ring(points[0]) {
            grid.ring_members(points[0], ring, &mut members);
            count += members.len();
        }
        assert_eq!(count, 9);
    }

    /// The bit-walked ring sweep against a brute-force oracle on a
    /// non-square grid wider than one occupancy word on both axes: ring
    /// `r` holds exactly the points whose cell sits at Chebyshev
    /// cell-distance `r` and still holds a live point, before and after
    /// half the points die, and repeated sweeps agree on the order.
    #[test]
    fn bucket_grid_rings_match_brute_force_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64
        };
        let points: Vec<Point> = (0..6_000)
            .map(|_| Point::new(next() * 1_000.0, next() * 900.0))
            .collect();
        let mut grid = BucketGrid::build(&points);
        assert!(grid.nx > 64 && grid.ny > 64 && grid.nx != grid.ny);
        let cells: Vec<(i64, i64)> = points
            .iter()
            .map(|&p| {
                let (x, y) = grid.cell_of(p);
                (x as i64, y as i64)
            })
            .collect();
        let mut alive = vec![true; points.len()];
        let (mut got, mut again) = (Vec::new(), Vec::new());
        for phase in 0..2 {
            if phase == 1 {
                for (i, live) in alive.iter_mut().enumerate() {
                    if next() < 0.5 {
                        *live = false;
                        grid.mark_dead(i);
                    }
                }
            }
            let live_cells: std::collections::HashSet<(i64, i64)> = cells
                .iter()
                .zip(&alive)
                .filter(|&(_, &a)| a)
                .map(|(&c, _)| c)
                .collect();
            for q in (0..points.len()).step_by(750) {
                let (qx, qy) = cells[q];
                for ring in 0..=grid.max_ring(points[q]) {
                    grid.ring_members(points[q], ring, &mut got);
                    grid.ring_members(points[q], ring, &mut again);
                    assert_eq!(got, again, "ring {ring} order is not stable");
                    let mut want: Vec<u32> = (0..points.len() as u32)
                        .filter(|&i| {
                            let (x, y) = cells[i as usize];
                            (x - qx).abs().max((y - qy).abs()) == ring as i64
                                && live_cells.contains(&(x, y))
                        })
                        .collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "phase {phase}, query {q}, ring {ring}");
                }
            }
        }
    }

    #[test]
    fn single_sink_buffered_tree() {
        let tech = Technology::default();
        let sinks = vec![Sink::new(Point::new(3.0, 4.0), 0.02)];
        let tree = build_buffered_tree(&tech, &sinks, Point::ORIGIN).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.device_count(), 1); // source buffer on the root stub
    }
}

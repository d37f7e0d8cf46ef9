//! Hierarchical region coarsening for large sink sets.
//!
//! The flat greedy engine is quadratic-ish in practice once the instance
//! outgrows its pruning radius; at 10⁵–10⁶ sinks even the pruned
//! best-first loop spends most of its time re-flooding enormous live
//! sets. This module makes such instances tractable with the classic
//! regional decomposition (cf. "Regional Clock Tree Generation by
//! Abutment"): partition the sinks into geometric regions of roughly
//! [`CoarsenParams::target_region_size`] members, build each region's
//! subtree with the **unchanged pruned greedy engine**, then merge the
//! region roots with the exhaustive engine — a few hundred roots, where
//! exhaustive search is both trivial and exactly the paper's loop.
//!
//! # Exactness caveat
//!
//! Unlike the pruned flat engine — which is *bit-identical* to the
//! exhaustive reference — coarsening is a heuristic: a sink near a region
//! border can only merge across that border at the root level, so the
//! committed merges may differ from the flat greedy's. What **is**
//! preserved:
//!
//! * every committed merge is an exact-cost zero-skew merge under the
//!   same objective (regions see bit-identical leaf states);
//! * the run is deterministic: the partition, the per-region runs, the
//!   replay order, and the root-level merge are all independent of the
//!   worker-thread count, so decision logs are bit-identical across
//!   `GCR_THREADS` settings;
//! * the merge loops stay allocation-free on warm scratches — the
//!   aggregated [`GreedyProfile::loop_allocs`] counts every constituent
//!   engine's loop phase (orchestration work — partitioning, local
//!   objective construction, result collection — happens outside the
//!   loop windows, like any seed phase).
//!
//! # Determinism & replay
//!
//! Regions are solved on worker threads against **local** objectives
//! (local node `i` = the region's `i`-th member, ascending), each worker
//! reusing its own [`GreedyScratch`] and pulling the next region, largest
//! first, from one shared cursor. The local decision logs are then
//! replayed *sequentially, in region order* into the global objective,
//! assigning global node ids in replay order. The local→global node map
//! is strictly monotone (members ascend; internals are created in local
//! order), so the canonical `a < b` orientation of every local decision
//! survives the translation, and the global log passes the `gcr-verify`
//! determinism pass unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gcr_geometry::Point;
use gcr_trace::Tracer;

use crate::greedy::{
    elapsed_ns, run_greedy_exhaustive_with_scratch, run_greedy_with_scratch, GreedyParams,
    GreedyProfile, GreedyScratch, GreedyStats, MergeDecision, MergeObjective,
};
use crate::{BoundRows, BoundTerms, CtsError, Topology};

/// Tuning knobs of a coarsened run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoarsenParams {
    /// Worker threads and decision logging. The threads size the region
    /// pool, the one reader of [`GreedyParams::threads`], resolved as it
    /// describes (explicit, then `GCR_THREADS`, then available
    /// parallelism); every region run and the root merge price on their
    /// own thread. The count lives in `GreedyParams` rather than here
    /// only because `flowbench` names it in `GreedyParams` literals.
    pub greedy: GreedyParams,
    /// Aimed-for sinks per region; `0` picks [`DEFAULT_REGION_SIZE`].
    /// Instances below twice this size skip coarsening entirely and run
    /// the flat pruned engine.
    pub target_region_size: usize,
}

/// Default [`CoarsenParams::target_region_size`]: large enough that a
/// region amortizes its seed phase. Parallelism comes from solving
/// regions concurrently; the pruned engine prices each region on its
/// worker's own thread.
pub const DEFAULT_REGION_SIZE: usize = 2_048;

impl CoarsenParams {
    fn region_size(&self) -> usize {
        if self.target_region_size == 0 {
            DEFAULT_REGION_SIZE
        } else {
            self.target_region_size
        }
    }
}

/// Reusable buffers of [`run_greedy_coarsened`]: one [`GreedyScratch`]
/// per worker slot for the region runs, one for the flat fallback and
/// the root-level merge, plus the replay buffers. Reusing one across
/// runs keeps every constituent merge loop allocation-free.
#[derive(Debug, Default)]
pub struct CoarsenScratch {
    /// Per-worker scratches for the parallel region runs.
    region: Vec<GreedyScratch>,
    /// Per-worker persistent result slabs (see [`WorkerLog`]).
    worker_logs: Vec<WorkerLog>,
    /// Region ids in schedule order: size descending, ties by id.
    order: Vec<u32>,
    /// Per region, the `(worker, start, len)` slab row holding its log.
    slots: Vec<(u32, u32, u32)>,
    /// Scratch of the root-level merge (and of the flat fallback path).
    top: GreedyScratch,
    /// Local→global node map of the region currently being replayed.
    map: Vec<u32>,
    /// Global merge list, in commit order.
    merges: Vec<(usize, usize)>,
    /// Global decision log of the last run (under
    /// [`GreedyParams::log_decisions`]).
    decisions: Vec<MergeDecision>,
}

impl CoarsenScratch {
    /// Creates an empty scratch. Buffers grow on first use and are then
    /// reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The decision log of the most recent coarsened run — empty unless
    /// that run set [`GreedyParams::log_decisions`].
    #[must_use]
    pub fn decisions(&self) -> &[MergeDecision] {
        &self.decisions
    }

    /// Takes ownership of the last run's decision log.
    #[must_use]
    pub fn take_decisions(&mut self) -> Vec<MergeDecision> {
        std::mem::take(&mut self.decisions)
    }
}

/// Partitions `locations` into geometric regions of roughly `target`
/// members: a `k × k` grid over the bounding box with
/// `k = ⌈√(n / target)⌉`, cells emitted in row-major order, empty cells
/// dropped, members ascending within each region. Degenerate extents
/// (coincident or collinear points, non-finite coordinates) collapse the
/// affected axis to a single row or column — the result is always a
/// partition of `0..locations.len()`.
///
/// The partition is a pure function of the locations and `target` —
/// no thread count, no hash order — which is the root of the coarsened
/// flow's cross-thread determinism.
#[must_use]
pub fn partition_regions(locations: &[Point], target: usize) -> Vec<Vec<u32>> {
    let n = locations.len();
    if n == 0 {
        return Vec::new();
    }
    let target = target.max(1);
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let k = ((n as f64 / target as f64).sqrt().ceil() as usize).max(1);
    let mut min = Point::new(f64::INFINITY, f64::INFINITY);
    let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in locations {
        min = Point::new(min.x.min(p.x), min.y.min(p.y));
        max = Point::new(max.x.max(p.x), max.y.max(p.y));
    }
    let axis_cells = |lo: f64, hi: f64| -> usize {
        let extent = hi - lo;
        if extent.is_finite() && extent > 0.0 {
            k
        } else {
            1
        }
    };
    let (kx, ky) = (axis_cells(min.x, max.x), axis_cells(min.y, max.y));
    let cell_index = |v: f64, lo: f64, hi: f64, cells: usize| -> usize {
        if cells == 1 {
            return 0;
        }
        let t = (v - lo) / (hi - lo) * cells as f64;
        if t.is_finite() && t > 0.0 {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let i = t as usize;
            i.min(cells - 1)
        } else {
            0
        }
    };
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); kx * ky];
    for (i, p) in locations.iter().enumerate() {
        let cx = cell_index(p.x, min.x, max.x, kx);
        let cy = cell_index(p.y, min.y, max.y, ky);
        cells[cy * kx + cx].push(i as u32);
    }
    cells.retain(|c| !c.is_empty());
    cells
}

/// One worker's persistent result slab: every region it solved, as rows
/// into a single flat decision vector, plus its pre-aggregated counters.
///
/// Living in [`CoarsenScratch`] rather than per-region heap boxes, the
/// slab rows are appended in place and keep their capacity across runs —
/// workers stop contending on the shared allocator for per-region
/// decision copies, and the warm coarsened loop sheds one allocation per
/// region per run. Which regions a worker visits depends on timing; each
/// row names its region, so the orchestrator replays in region order
/// whatever the visit order was.
#[derive(Debug, Default)]
struct WorkerLog {
    /// Region decision logs, concatenated in this worker's visit order.
    decisions: Vec<MergeDecision>,
    /// `(region, start, len)` row per visited region (len 0 for
    /// single-sink regions, which need no merges).
    rows: Vec<(u32, u32, u32)>,
    /// Search counters summed over this worker's regions.
    stats: GreedyStats,
    /// Engine profile summed over this worker's regions.
    profile: GreedyProfile,
    /// Wall time spent solving regions (objective set-up, engine run,
    /// log copy), read once before and once after each region.
    busy_ns: u64,
}

impl WorkerLog {
    /// Rewinds the slab for a new run, keeping row capacity.
    fn reset(&mut self) {
        self.decisions.clear();
        self.rows.clear();
        self.stats = GreedyStats::default();
        self.profile = GreedyProfile::default();
        self.busy_ns = 0;
    }
}

/// A sub-run's view of a larger objective: local node `i` is `map[i]` in
/// the global index space, and each local merge creates global node
/// `next_global`. The coarsened flow runs its region replays and root
/// merge through it, the ECO engine its splice search.
///
/// Pairs are canonicalized to ascending *global* order before touching
/// the inner objective. The map need not be monotone — a single-sink
/// region's root is its leaf, lower than an earlier region's internal
/// nodes — so local order does not imply global order; canonicalizing
/// keeps the executed merges, and the decision log built from them, in
/// the canonical `a < b` orientation the determinism pass requires.
pub(crate) struct MappedObjective<'a, O: MergeObjective> {
    pub(crate) inner: &'a mut O,
    /// Local node → global node; grows by one entry per merge.
    pub(crate) map: &'a mut Vec<u32>,
    /// Next unused global node id.
    pub(crate) next_global: usize,
}

impl<O: MergeObjective> MappedObjective<'_, O> {
    fn pair(&self, a: usize, b: usize) -> (usize, usize) {
        let (ga, gb) = (self.map[a] as usize, self.map[b] as usize);
        if ga < gb {
            (ga, gb)
        } else {
            (gb, ga)
        }
    }

    /// Appends the sub-run decisions `local`, already merged through this
    /// view, in global ids: one canonical pair each to `merges` and, when
    /// `log` is set, the decision with `node = map[d.node]` and its
    /// `key_bits` to `decisions`.
    pub(crate) fn stitch(
        &self,
        local: &[MergeDecision],
        merges: &mut Vec<(usize, usize)>,
        decisions: &mut Vec<MergeDecision>,
        log: bool,
    ) {
        for d in local {
            let (a, b) = self.pair(d.a as usize, d.b as usize);
            merges.push((a, b));
            if log {
                decisions.push(MergeDecision {
                    a: a as u32,
                    b: b as u32,
                    node: self.map[d.node as usize],
                    key_bits: d.key_bits,
                });
            }
        }
    }

    /// Commits a recorded sub-run: merges each decision of `local` in
    /// order, then [`stitch`](Self::stitch)es it.
    pub(crate) fn replay(
        &mut self,
        local: &[MergeDecision],
        merges: &mut Vec<(usize, usize)>,
        decisions: &mut Vec<MergeDecision>,
        log: bool,
    ) -> Result<(), CtsError> {
        for d in local {
            self.merge(d.a as usize, d.b as usize, d.node as usize)?;
        }
        self.stitch(local, merges, decisions, log);
        Ok(())
    }
}

impl<O: MergeObjective> MergeObjective for MappedObjective<'_, O> {
    fn cost(&self, a: usize, b: usize) -> f64 {
        let (x, y) = self.pair(a, b);
        self.inner.cost(x, y)
    }

    fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
        let (x, y) = self.pair(a, b);
        self.inner.cost_lower_bound(x, y)
    }

    #[inline]
    fn bound_terms(&self, node: usize) -> BoundTerms {
        self.inner.bound_terms(self.map[node] as usize)
    }

    // Rows carry the inner objective's terms, so its kernel prices them
    // as is.
    fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
        self.inner.bound_kernel(center, rows, out);
    }

    // An ECO splice's leaves are super-leaves: added and dirtied sinks,
    // and the roots of surviving subtrees. The engine takes the floor
    // over them through `leaf_floor`, so an internal root's static term
    // and enable probability bound it too; and it shrinks `dist` by the
    // region radii (read from `bound_terms`), so a survivor root's
    // segment reaching past its center is covered as well
    // (docs/algorithms.md §Incremental ECO).
    fn cost_lower_bound_at_distance(&self, node: usize, dist: f64, floor: [f64; 2]) -> f64 {
        self.inner
            .cost_lower_bound_at_distance(self.map[node] as usize, dist, floor)
    }

    fn leaf_floor(&self, leaf: usize) -> [f64; 2] {
        self.inner.leaf_floor(self.map[leaf] as usize)
    }

    fn location(&self, node: usize) -> Point {
        self.inner.location(self.map[node] as usize)
    }

    fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
        debug_assert_eq!(k, self.map.len());
        let (x, y) = self.pair(a, b);
        self.inner.merge(x, y, self.next_global)?;
        self.map.push(self.next_global as u32);
        self.next_global += 1;
        Ok(())
    }
}

/// Builds a topology over `num_leaves` sinks by hierarchical region
/// coarsening (see the module docs for the flow and its guarantees).
///
/// `objective` is the **global** objective — it ends the run having
/// merged every internal node, exactly as after a flat run.
/// `region_objective(members)` must build a *local* objective over the
/// given ascending global sink indices whose leaf states are
/// bit-identical to the global objective's (same technology, tables and
/// module mapping restricted to the subset); region merges are then
/// replayed into the global objective verbatim.
///
/// Instances smaller than twice the target region size (or whose
/// partition collapses to one region) run the flat pruned engine — same
/// results, same decision log, none of the coarsening caveats.
///
/// Emits `coarsen.partition` / `coarsen.regions` / `coarsen.replay` /
/// `coarsen.top` phase spans under a `coarsen.run` span through
/// [`Tracer::current`], plus the `coarsen.regions`,
/// `coarsen.region_max_sinks` and `coarsen.worker_idle_frac` counters
/// after the region phase. The region and root-level engine runs inside
/// it are not traced; a flat fallback traces as the flat engine.
///
/// # Errors
///
/// As [`run_greedy_with_scratch`], for any constituent engine run or
/// replayed merge.
///
/// # Panics
///
/// Panics if an objective returns a NaN cost or bound, or if a region
/// worker panics.
#[expect(
    clippy::expect_used,
    reason = "a panicking region worker must propagate, not be swallowed"
)]
#[expect(
    clippy::too_many_lines,
    reason = "one function per engine flow, like the flat engines"
)]
pub fn run_greedy_coarsened<O, R, F>(
    num_leaves: usize,
    objective: &mut O,
    region_objective: F,
    params: &CoarsenParams,
    scratch: &mut CoarsenScratch,
) -> Result<(Topology, GreedyStats, GreedyProfile), CtsError>
where
    O: MergeObjective,
    R: MergeObjective,
    F: Fn(&[u32]) -> R + Sync,
{
    let tracer = &Tracer::current();
    // Below the cut-over nothing is partitioned and no `coarsen.*` span
    // opens; above it, partition over the leaf locations (a pure
    // function of the input).
    let coarsen = num_leaves >= 2 * params.region_size();
    let _run = coarsen.then(|| tracer.span("coarsen.run"));
    let regions = if coarsen {
        let part_start = tracer.now_ns();
        let t0 = Instant::now();
        let locations: Vec<Point> = (0..num_leaves).map(|i| objective.location(i)).collect();
        let regions = partition_regions(&locations, params.region_size());
        tracer.complete_span("coarsen.partition", part_start, elapsed_ns(t0.elapsed()));
        regions
    } else {
        Vec::new()
    };
    if regions.len() <= 1 {
        let out = run_greedy_with_scratch(num_leaves, objective, &params.greedy, &mut scratch.top)?;
        scratch.decisions.clear();
        scratch.decisions.extend_from_slice(scratch.top.decisions());
        return Ok(out);
    }
    let threads = gcr_trace::threads::resolve(params.greedy.threads, "greedy.threads", tracer);

    // Solve every region on the worker pool: each worker pulls the next
    // region from one shared cursor over the schedule and solves it with
    // its own scratch and a fresh local objective. Greedy time grows
    // about quadratically with region size, so the schedule runs the
    // largest regions first and the small ones fill the tail. Each
    // region runs on its worker's thread and always logs decisions —
    // the log *is* the replay script. The schedule decides only which worker computes a region,
    // never its result.
    let regions_start = tracer.now_ns();
    let t0 = Instant::now();
    scratch.order.clear();
    scratch.order.extend(0..regions.len() as u32);
    scratch.order.sort_unstable_by(|&a, &b| {
        let (la, lb) = (regions[a as usize].len(), regions[b as usize].len());
        lb.cmp(&la).then(a.cmp(&b))
    });
    let workers = threads.min(regions.len());
    if scratch.region.len() < workers {
        scratch.region.resize_with(workers, GreedyScratch::new);
    }
    if scratch.worker_logs.len() < workers {
        scratch.worker_logs.resize_with(workers, WorkerLog::default);
    }
    let logged = GreedyParams {
        log_decisions: true,
        ..GreedyParams::default()
    };
    let region_objective = &region_objective;
    let regions_ref = &regions;
    let order = &scratch.order;
    let cursor = &AtomicUsize::new(0);
    let worker_outs: Vec<Result<(), CtsError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scratch
            .region
            .iter_mut()
            .zip(scratch.worker_logs.iter_mut())
            .take(workers)
            .map(|(region_scratch, log)| {
                scope.spawn(move || {
                    log.reset();
                    while let Some(&r) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let members = &regions_ref[r as usize];
                        if members.len() == 1 {
                            log.rows.push((r, log.decisions.len() as u32, 0));
                            continue;
                        }
                        let busy = Instant::now();
                        // A spawned thread has no tracer entered, so the
                        // region runs are untraced.
                        let mut local = region_objective(members);
                        let (_, stats, profile) = run_greedy_with_scratch(
                            members.len(),
                            &mut local,
                            &logged,
                            region_scratch,
                        )?;
                        let start = log.decisions.len() as u32;
                        log.decisions.extend_from_slice(region_scratch.decisions());
                        log.rows
                            .push((r, start, log.decisions.len() as u32 - start));
                        add_stats(&mut log.stats, &stats);
                        add_profile(&mut log.profile, &profile);
                        log.busy_ns += elapsed_ns(busy.elapsed());
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("region worker panicked"))
            .collect()
    });
    for worker_out in worker_outs {
        worker_out?;
    }
    let regions_ns = elapsed_ns(t0.elapsed());
    let mut stats = GreedyStats::default();
    let mut profile = GreedyProfile::default();
    let mut busy_ns = 0_u64;
    scratch.slots.clear();
    scratch.slots.resize(regions.len(), (0, 0, 0));
    for (w, log) in scratch.worker_logs.iter().take(workers).enumerate() {
        add_stats(&mut stats, &log.stats);
        add_profile(&mut profile, &log.profile);
        busy_ns += log.busy_ns;
        for &(r, start, len) in &log.rows {
            scratch.slots[r as usize] = (w as u32, start, len);
        }
    }
    tracer.complete_span("coarsen.regions", regions_start, regions_ns);
    tracer.counter("coarsen.regions", regions.len() as f64);
    let largest = &regions[scratch.order[0] as usize];
    tracer.counter("coarsen.region_max_sinks", largest.len() as f64);
    tracer.counter(
        "coarsen.worker_idle_frac",
        1.0 - busy_ns as f64 / (workers as f64 * regions_ns.max(1) as f64),
    );

    // Sequential replay into the global objective, in region order.
    let replay_start = tracer.now_ns();
    let t0 = Instant::now();
    let log = params.greedy.log_decisions;
    scratch.merges.clear();
    scratch.decisions.clear();
    let mut next_global = num_leaves;
    // Sized for the root-level merge up front: `MappedObjective::merge`
    // pushes one map entry per merge, and a mid-loop reallocation would
    // show up in the engine's `loop_allocs` profile.
    let mut roots: Vec<u32> = Vec::with_capacity(2 * regions.len() - 1);
    for (members, &(w, start, len)) in regions.iter().zip(&scratch.slots) {
        scratch.map.clear();
        scratch.map.extend_from_slice(members);
        let mut region = MappedObjective {
            inner: &mut *objective,
            map: &mut scratch.map,
            next_global,
        };
        let local = &scratch.worker_logs[w as usize].decisions;
        region.replay(
            &local[start as usize..(start + len) as usize],
            &mut scratch.merges,
            &mut scratch.decisions,
            log,
        )?;
        next_global = region.next_global;
        roots.push(scratch.map[scratch.map.len() - 1]);
    }
    tracer.complete_span("coarsen.replay", replay_start, elapsed_ns(t0.elapsed()));

    // Merge the region roots with the exhaustive engine — a few hundred
    // roots, so all-pairs evaluation is cheap, and it needs nothing from
    // the objective beyond exact costs (no bound admissibility at the
    // root level, where merging regions are wide).
    let top_start = tracer.now_ns();
    let t0 = Instant::now();
    let num_roots = roots.len();
    let mut top = MappedObjective {
        inner: objective,
        map: &mut roots,
        next_global,
    };
    let (_, top_stats, top_profile) = {
        let _untraced = Tracer::disabled().enter();
        run_greedy_exhaustive_with_scratch(num_roots, &mut top, &logged, &mut scratch.top)?
    };
    add_stats(&mut stats, &top_stats);
    add_profile(&mut profile, &top_profile);
    top.stitch(
        scratch.top.decisions(),
        &mut scratch.merges,
        &mut scratch.decisions,
        log,
    );
    tracer.complete_span("coarsen.top", top_start, elapsed_ns(t0.elapsed()));

    Ok((
        Topology::from_merges(num_leaves, &scratch.merges)?,
        stats,
        profile,
    ))
}

fn add_stats(acc: &mut GreedyStats, s: &GreedyStats) {
    acc.exact_cost_evals += s.exact_cost_evals;
    acc.bound_evals += s.bound_evals;
    acc.ring_expansions += s.ring_expansions;
    acc.heap_pops += s.heap_pops;
    acc.bound_batches += s.bound_batches;
    acc.bounds_filtered += s.bounds_filtered;
}

fn add_profile(acc: &mut GreedyProfile, p: &GreedyProfile) {
    acc.seed_ms += p.seed_ms;
    acc.loop_ms += p.loop_ms;
    acc.seed_allocs += p.seed_allocs;
    acc.loop_allocs += p.loop_allocs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_greedy_with_scratch;
    use crate::testing::PointObjective;

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(((i * 131) % 10_007) as f64, ((i * 197) % 9_973) as f64))
            .collect()
    }

    fn region_factory(points: &[Point]) -> impl Fn(&[u32]) -> PointObjective + Sync + '_ {
        move |members: &[u32]| PointObjective {
            points: members.iter().map(|&i| points[i as usize]).collect(),
        }
    }

    fn coarse_params(target: usize) -> CoarsenParams {
        CoarsenParams {
            greedy: GreedyParams {
                threads: Some(2),
                log_decisions: true,
            },
            target_region_size: target,
        }
    }

    /// The sub-run view's bound kernel must stay bitwise equal to its
    /// scalar bound under a non-monotone map — where it canonicalizes
    /// pairs and the kernel prices center-first — over segment regions
    /// (merged nodes) and point leaves, on odd sub-slices of the rows.
    #[test]
    fn mapped_kernel_is_bitwise_scalar_under_a_non_monotone_map() {
        use crate::{BoundColumns, NearestNeighborObjective, Sink};
        let tech = gcr_rctree::Technology::default();
        let sinks: Vec<Sink> = scatter(24)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Sink::new(p, 0.02 + 0.01 * (i % 3) as f64))
            .collect();
        let mut inner = NearestNeighborObjective::new(&tech, &sinks, None);
        for (k, (a, b)) in [(0, 5), (7, 9), (24, 11), (2, 3)].into_iter().enumerate() {
            inner.merge(a, b, 24 + k).unwrap();
        }
        let mut map: Vec<u32> = vec![25, 4, 26, 1, 27, 8, 6, 13, 12, 10, 14];
        let n = map.len();
        let mapped = MappedObjective {
            inner: &mut inner,
            map: &mut map,
            next_global: 28,
        };
        let mut rows = BoundColumns::default();
        for y in 0..n {
            rows.push(mapped.bound_terms(y));
        }
        for center in 0..n {
            let terms = mapped.bound_terms(center);
            for (start, end) in [(0, n), (1, n), (3, 8)] {
                let mut out = vec![f64::NAN; end - start];
                mapped.bound_kernel(&terms, rows.rows().slice(start..end), &mut out);
                for (y, got) in (start..end).zip(out) {
                    let want = mapped.cost_lower_bound(center, y);
                    assert_eq!(got.to_bits(), want.to_bits(), "({center}, {y})");
                }
            }
        }
    }

    #[test]
    fn partition_covers_every_point_exactly_once() {
        let points = scatter(500);
        let regions = partition_regions(&points, 50);
        assert!(regions.len() > 1);
        let mut seen = vec![false; points.len()];
        for region in &regions {
            assert!(!region.is_empty());
            let mut prev = None;
            for &m in region {
                assert!(!seen[m as usize], "point {m} in two regions");
                seen[m as usize] = true;
                assert!(prev.is_none_or(|p| p < m), "members must ascend");
                prev = Some(m);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partition_handles_degenerate_extents() {
        // Coincident points: one region.
        let coincident = vec![Point::new(7.0, 7.0); 40];
        assert_eq!(partition_regions(&coincident, 8).len(), 1);
        // Collinear points: the degenerate axis collapses to one row.
        let line: Vec<Point> = (0..60).map(|i| Point::new(f64::from(i), 0.0)).collect();
        let regions = partition_regions(&line, 10);
        assert!(regions.len() > 1);
        assert_eq!(regions.iter().map(Vec::len).sum::<usize>(), 60);
        // Empty input.
        assert!(partition_regions(&[], 8).is_empty());
    }

    /// `MappedObjective` over a non-monotone map: local 0 is an earlier
    /// region's internal node (global 8) and the other roots are leaves
    /// in no particular order. The inner objective sees ascending pairs
    /// (its `merge` asserts so) and fresh sequential nodes, the map grows
    /// by one global id per merge, the stitched log is canonical, and
    /// replaying the recorded run reproduces it bit for bit.
    #[test]
    fn mapped_objective_canonicalizes_a_non_monotone_map() {
        let points = scatter(8);
        let roots = [8_u32, 3, 5, 2, 7];
        let fresh = || {
            let mut obj = PointObjective {
                points: points.clone(),
            };
            obj.merge(0, 1, 8).unwrap();
            (obj, roots.to_vec(), Vec::new(), Vec::new())
        };
        let params = GreedyParams {
            threads: Some(1),
            log_decisions: true,
        };
        let (mut run_obj, mut map, mut merges, mut decisions) = fresh();
        let mut view = MappedObjective {
            inner: &mut run_obj,
            map: &mut map,
            next_global: 9,
        };
        let mut scratch = GreedyScratch::new();
        run_greedy_exhaustive_with_scratch(roots.len(), &mut view, &params, &mut scratch).unwrap();
        view.stitch(scratch.decisions(), &mut merges, &mut decisions, true);
        assert_eq!(view.next_global, 13);
        assert_eq!(map, [8, 3, 5, 2, 7, 9, 10, 11, 12]);
        let local = scratch.decisions();
        assert!(local.iter().any(|l| map[l.a as usize] > map[l.b as usize]));
        assert_eq!(decisions.len(), local.len());
        for ((d, l), &m) in decisions.iter().zip(local).zip(&merges) {
            let (x, y) = (map[l.a as usize], map[l.b as usize]);
            assert_eq!((d.a, d.b), (x.min(y), x.max(y)));
            assert_eq!((d.a as usize, d.b as usize), m);
            assert_eq!((d.node, d.key_bits), (map[l.node as usize], l.key_bits));
        }

        let (mut replay_obj, mut replay_map, mut replay_merges, mut replay_decisions) = fresh();
        let mut view = MappedObjective {
            inner: &mut replay_obj,
            map: &mut replay_map,
            next_global: 9,
        };
        view.replay(local, &mut replay_merges, &mut replay_decisions, true)
            .unwrap();
        let mut unlogged = Vec::new();
        view.stitch(local, &mut Vec::new(), &mut unlogged, false);
        assert!(unlogged.is_empty());
        assert_eq!(
            (replay_map, replay_merges, replay_decisions),
            (map, merges, decisions)
        );
        assert_eq!(replay_obj.points, run_obj.points);
    }

    #[test]
    fn small_instances_fall_back_to_the_flat_engine() {
        let points = scatter(60);
        let params = coarse_params(256); // 60 < 2 * 256
        let mut flat_obj = PointObjective {
            points: points.clone(),
        };
        let mut flat_scratch = GreedyScratch::new();
        let flat_params = GreedyParams {
            threads: Some(2),
            log_decisions: true,
        };
        let (flat, _, _) =
            run_greedy_with_scratch(60, &mut flat_obj, &flat_params, &mut flat_scratch).unwrap();
        let mut obj = PointObjective {
            points: points.clone(),
        };
        let mut scratch = CoarsenScratch::new();
        let (topo, _, _) =
            run_greedy_coarsened(60, &mut obj, region_factory(&points), &params, &mut scratch)
                .unwrap();
        assert_eq!(topo, flat);
        assert_eq!(scratch.decisions(), flat_scratch.decisions());
    }

    #[test]
    fn coarsened_run_builds_a_valid_deterministic_topology() {
        let points = scatter(700);
        let params = coarse_params(64);
        let run = |threads: usize| {
            let mut obj = PointObjective {
                points: points.clone(),
            };
            let mut scratch = CoarsenScratch::new();
            let mut p = params;
            p.greedy.threads = Some(threads);
            let (topo, stats, _) =
                run_greedy_coarsened(700, &mut obj, region_factory(&points), &p, &mut scratch)
                    .unwrap();
            (topo, stats, scratch.take_decisions(), obj)
        };
        let (topo, stats, log, obj) = run(1);
        assert_eq!(topo.num_leaves(), 700);
        assert_eq!(topo.len(), 2 * 700 - 1);
        assert_eq!(topo.subtree_sizes()[topo.root()], 700);
        assert!(stats.exact_cost_evals > 0);
        assert_eq!(log.len(), 699, "one decision per merge");
        for (i, d) in log.iter().enumerate() {
            assert_eq!(d.node as usize, 700 + i, "nodes created in order");
            assert!(d.a < d.b && d.b < d.node, "canonical orientation");
            assert!(d.key().is_finite());
        }
        // The global objective saw every merge: its point store covers
        // the full node range.
        assert_eq!(obj.points.len(), 2 * 700 - 1);
        // Bit-identical decisions at any worker count.
        for threads in [2, 4, 8] {
            let (topo_t, _, log_t, _) = run(threads);
            assert_eq!(topo_t, topo, "{threads} threads changed the topology");
            assert_eq!(log_t, log, "{threads} threads changed the decision log");
        }
    }

    #[test]
    fn warm_coarsened_scratch_reuses_buffers() {
        let points = scatter(600);
        let params = coarse_params(64);
        let mut scratch = CoarsenScratch::new();
        let run = |scratch: &mut CoarsenScratch| {
            let mut obj = PointObjective {
                points: points.clone(),
            };
            run_greedy_coarsened(600, &mut obj, region_factory(&points), &params, scratch)
                .unwrap()
                .0
        };
        let cold = run(&mut scratch);
        let warm = run(&mut scratch);
        assert_eq!(cold, warm, "scratch reuse must not change results");
    }

    /// The region phase reports its shape: region count, largest region,
    /// and an idle fraction in `[0, 1)`.
    #[test]
    fn region_phase_emits_schedule_counters() {
        use gcr_trace::MemorySink;
        use std::sync::Arc;

        let points = scatter(600);
        let regions = partition_regions(&points, 64);
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn gcr_trace::TraceSink>);
        let mut obj = PointObjective {
            points: points.clone(),
        };
        {
            let _entered = tracer.enter();
            run_greedy_coarsened(
                600,
                &mut obj,
                region_factory(&points),
                &coarse_params(64),
                &mut CoarsenScratch::new(),
            )
            .unwrap();
        }
        let largest = regions.iter().map(Vec::len).max().unwrap();
        assert_eq!(sink.counter("coarsen.regions"), Some(regions.len() as f64));
        assert_eq!(
            sink.counter("coarsen.region_max_sinks"),
            Some(largest as f64)
        );
        let idle = sink.counter("coarsen.worker_idle_frac").unwrap();
        assert!((0.0..1.0).contains(&idle), "idle fraction {idle}");
    }

    /// Coincident sink clusters (degenerate region extents) route fine:
    /// the per-region bucket grids collapse to single cells and the
    /// clamped cell size keeps their dimensions finite.
    #[test]
    fn coarsened_run_survives_coincident_clusters() {
        let mut points = Vec::new();
        for c in 0..6 {
            let base = Point::new(f64::from(c) * 1_000.0, f64::from(c % 2) * 1_000.0);
            points.extend(std::iter::repeat_n(base, 40));
        }
        let params = coarse_params(16);
        let mut obj = PointObjective {
            points: points.clone(),
        };
        let mut scratch = CoarsenScratch::new();
        let (topo, _, _) = run_greedy_coarsened(
            points.len(),
            &mut obj,
            region_factory(&points),
            &params,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(topo.num_leaves(), 240);
    }
}

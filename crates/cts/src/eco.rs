//! Incremental ECO re-routing: dirty-frontier invalidation with arena
//! reuse.
//!
//! Production gated-clock flows re-route after small engineering change
//! orders (sink adds, moves, removals, activity-table swaps) thousands of
//! times per design. Rebuilding the whole tree from scratch repeats work
//! that the edit never touched; this module re-runs the greedy search
//! only where the edit actually perturbed it:
//!
//! 1. **Frontier** — mark the *dirty* old nodes: every moved or removed
//!    leaf, every leaf in the bucket-grid rings `0..=1` around each edit
//!    location (the neighborhood whose nearest-neighbor and bound
//!    structure the edit perturbs), and — by upward closure — every
//!    ancestor of a dirty node up to the root.
//! 2. **Replay** — every *clean* old internal node has two clean
//!    children, so its merge is re-committed verbatim into the caller's
//!    (fresh, new-leaf-set) objective: the surviving subtrees are rebuilt
//!    bottom-up without any search.
//! 3. **Splice search** — the surviving subtree roots, the dirty-but-kept
//!    leaves, and the added leaves become the *locals*: pre-priced
//!    super-leaves over which the unchanged pruned best-first engine
//!    ([`run_greedy_with_scratch`]) runs a full greedy merge,
//!    splicing the survivors back into one tree.
//!
//! # Soundness and the ε contract
//!
//! The frontier radius (grid rings `0..=1`) is a *quality* heuristic,
//! never a correctness assumption: whatever the frontier, every committed
//! merge is an exact-cost zero-skew merge under the caller's objective
//! and the result is a structurally valid topology over the new leaf set,
//! so the scoped verifier passes over the dirty region by construction of
//! the splice. What the radius trades is how closely the incremental tree
//! tracks a from-scratch re-route:
//!
//! * **Pure replay** (no geometric edit — activity swaps or an empty
//!   batch): the topology is bit-identical to the old one, and every
//!   downstream quantity (enable statistics, embedding) matches a
//!   from-scratch rebuild over the same topology bitwise.
//! * **Splice** (geometric edits): the merges *inside* surviving subtrees
//!   are bit-identical to the old tree's; merges at and above the
//!   frontier are re-searched greedily over super-leaves, so the
//!   objective value may differ from a from-scratch run by a bounded
//!   factor — the `gcr-verify` ECO oracle enforces the documented ε (see
//!   `docs/algorithms.md` §Incremental ECO).
//!
//! # Allocation profile
//!
//! Like the flat engine, the work splits into a seed-like window (the
//! frontier: bucket-grid construction over the old leaves, plus the
//! splice engine's own seed phase) and a loop window (replay merges, the
//! splice engine's merge loop, and the stitch that remaps splice
//! decisions). On a **warm** [`EcoScratch`] with an objective whose
//! columns were pre-reserved (or rewound with
//! [`MergeArena::truncate`](crate::MergeArena::truncate)), the loop
//! window performs zero heap allocations — [`EcoProfile::loop_allocs`]
//! stays 0, which the `zero_alloc` gate enforces. Final topology
//! assembly ([`Topology::from_merges`]) is excluded from the loop window,
//! exactly as in the flat engine.

use std::time::Instant;

use gcr_geometry::Point;
use gcr_trace::{alloc_count, Tracer};

use crate::arena::NODE_INDEX_LIMIT;
use crate::coarsen::MappedObjective;
use crate::greedy::{
    elapsed_ns, run_greedy_with_scratch, GreedyParams, GreedyScratch, GreedyStats, MergeDecision,
    MergeObjective,
};
use crate::nearest::BucketGrid;
use crate::topology::TopoNode;
use crate::{CtsError, Sink, Topology};

/// One engineering-change-order edit against a completed routing.
///
/// Geometric edits (`AddSink`, `MoveSink`, `RemoveSink`) perturb the leaf
/// set and trigger a dirty-frontier re-search; `SwapActivity` records
/// that a module's activity statistics changed — it dirties nothing
/// geometrically, because the caller rebuilds the objective over the new
/// activity tables and the replay re-prices every gating decision along
/// the way.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EcoEdit {
    /// Append a new sink, gated by activity-model module `module`.
    AddSink {
        /// The sink to add (location and load capacitance).
        sink: Sink,
        /// Module tag for the caller's activity mapping (opaque here).
        module: usize,
    },
    /// Move old sink `index` to a new location (same load, same module).
    MoveSink {
        /// Old sink index.
        index: usize,
        /// New location.
        to: Point,
    },
    /// Remove old sink `index` from the design.
    RemoveSink {
        /// Old sink index.
        index: usize,
    },
    /// A module's activity statistics changed (table swap). Listed for
    /// observability and edit-stream bookkeeping; correctness does not
    /// depend on the list being complete, since the replay re-prices
    /// every node from the caller's new tables unconditionally.
    SwapActivity {
        /// Module tag whose `P(EN)`/`P_tr(EN)` changed (opaque here).
        module: usize,
    },
}

/// Sentinel in old→new index maps for nodes with no new counterpart.
const DEAD: u32 = u32::MAX;
/// Sentinel in the parent array for the root.
const NO_PARENT: u32 = u32::MAX;

/// Bucket-grid rings marked dirty around each edit location (`0..=DIRTY_RINGS`).
/// Ring 1 covers every point within one grid cell (≈ the mean sink
/// spacing) of the edit — the neighborhood whose nearest-neighbor choice
/// the edit can actually flip. A larger radius re-searches more and
/// tracks the from-scratch result more closely; correctness never
/// depends on it (see the module docs).
const DIRTY_RINGS: usize = 1;

/// Per-old-leaf edit classification.
const KEEP: u8 = 0;
const MOVED: u8 = 1;
const REMOVED: u8 = 2;

/// How an edit batch reshapes the leaf set: the shared indexing
/// convention between [`apply_eco`], the `gcr-core` ECO entry points,
/// and every oracle that compares incremental against from-scratch
/// results.
///
/// Surviving old leaves compact downward in ascending old order: a kept
/// leaf's new index is its old index minus the number of removed leaves
/// below it. Added sinks append after them in edit order; a moved leaf
/// keeps its compacted index with the new location.
#[derive(Clone, Debug, PartialEq)]
pub struct EcoLeafPlan {
    /// Old leaf index → new leaf index; [`EcoLeafPlan::REMOVED`] for
    /// removed leaves.
    pub new_of_old: Vec<u32>,
    /// Number of leaves after the batch (kept + added).
    pub num_new_leaves: usize,
    /// `(old index, new location)` per `MoveSink`, in edit order.
    pub moved: Vec<(usize, Point)>,
    /// `(sink, module)` per `AddSink`, in edit order.
    pub added: Vec<(Sink, usize)>,
}

impl EcoLeafPlan {
    /// Marker in [`EcoLeafPlan::new_of_old`] for a removed leaf.
    pub const REMOVED: u32 = DEAD;

    /// The new sink list under this plan: kept sinks compacted (moved
    /// ones at their new location), then the added sinks.
    #[must_use]
    pub fn new_sinks(&self, old_sinks: &[Sink]) -> Vec<Sink> {
        let mut out = Vec::with_capacity(self.num_new_leaves);
        for (l, s) in old_sinks.iter().enumerate() {
            if self.new_of_old[l] != DEAD {
                out.push(*s);
            }
        }
        for &(index, to) in &self.moved {
            out[self.new_of_old[index] as usize] = Sink::new(to, old_sinks[index].cap());
        }
        for &(sink, _) in &self.added {
            out.push(sink);
        }
        out
    }

    /// The new per-leaf module map under this plan: kept entries
    /// compacted, then the added sinks' modules.
    #[must_use]
    pub fn new_module_of(&self, old_module_of: &[usize]) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.num_new_leaves);
        for (l, &m) in old_module_of.iter().enumerate() {
            if self.new_of_old[l] != DEAD {
                out.push(m);
            }
        }
        for &(_, module) in &self.added {
            out.push(module);
        }
        out
    }
}

/// Validates `edits` against an `old_num_leaves`-sink routing and fills
/// `leaf_edit` with each old leaf's classification. Returns
/// `(adds, removes)`.
fn scan_edits(
    old_num_leaves: usize,
    edits: &[EcoEdit],
    leaf_edit: &mut Vec<u8>,
) -> Result<(usize, usize), CtsError> {
    leaf_edit.clear();
    leaf_edit.resize(old_num_leaves, KEEP);
    let (mut adds, mut removes) = (0usize, 0usize);
    for e in edits {
        let (index, kind) = match *e {
            EcoEdit::AddSink { .. } => {
                adds += 1;
                continue;
            }
            EcoEdit::SwapActivity { .. } => continue,
            EcoEdit::MoveSink { index, .. } => (index, MOVED),
            EcoEdit::RemoveSink { index } => {
                removes += 1;
                (index, REMOVED)
            }
        };
        if index >= old_num_leaves {
            return Err(CtsError::InvalidEco {
                reason: format!(
                    "edit references sink {index} but the routing has {old_num_leaves} sinks"
                ),
            });
        }
        if leaf_edit[index] != KEEP {
            return Err(CtsError::InvalidEco {
                reason: format!("sink {index} is addressed by more than one geometric edit"),
            });
        }
        leaf_edit[index] = kind;
    }
    Ok((adds, removes))
}

/// Computes the [`EcoLeafPlan`] of an edit batch without touching any
/// routing state — the convenience entry point `gcr-core` and the
/// benchmarks use to build the new sink and module lists.
///
/// # Errors
///
/// [`CtsError::InvalidEco`] for an out-of-range or doubly-edited sink
/// index, [`CtsError::NoSinks`] when the batch removes every sink
/// without adding any.
pub fn plan_eco_leaves(old_num_leaves: usize, edits: &[EcoEdit]) -> Result<EcoLeafPlan, CtsError> {
    let mut leaf_edit = Vec::new();
    let (adds, removes) = scan_edits(old_num_leaves, edits, &mut leaf_edit)?;
    let num_new_leaves = old_num_leaves - removes + adds;
    if num_new_leaves == 0 {
        return Err(CtsError::NoSinks);
    }
    let mut new_of_old = vec![DEAD; old_num_leaves];
    let mut next = 0u32;
    for (l, &kind) in leaf_edit.iter().enumerate() {
        if kind != REMOVED {
            new_of_old[l] = next;
            next += 1;
        }
    }
    let mut moved = Vec::new();
    let mut added = Vec::new();
    for e in edits {
        match *e {
            EcoEdit::MoveSink { index, to } => moved.push((index, to)),
            EcoEdit::AddSink { sink, module } => added.push((sink, module)),
            _ => {}
        }
    }
    Ok(EcoLeafPlan {
        new_of_old,
        num_new_leaves,
        moved,
        added,
    })
}

/// Per-phase wall times and allocation counts of one [`apply_eco`] call.
///
/// The windows follow the flat engine's convention: the frontier (plus
/// the splice engine's seed phase) is the seed-like window — it builds a
/// bucket grid over the old leaves, so it allocates even warm — while
/// replay, the splice merge loop, and the decision stitch form the loop
/// window, which is allocation-free on a warm scratch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EcoProfile {
    /// Wall time (ms) of the dirty-frontier computation.
    pub frontier_ms: f64,
    /// Wall time (ms) of the clean-subtree replay.
    pub replay_ms: f64,
    /// Wall time (ms) of the splice search (the inner greedy run).
    pub search_ms: f64,
    /// Heap allocations in the seed-like window (frontier + inner seed).
    pub seed_allocs: u64,
    /// Heap allocations in the loop window (replay + inner loop +
    /// stitch). 0 on a warm scratch with a pre-reserved objective.
    pub loop_allocs: u64,
}

/// The result of one incremental re-route.
#[derive(Clone, Debug)]
pub struct EcoOutcome {
    /// The topology over the new leaf set.
    pub topology: Topology,
    /// Search counters of the splice run (all zero on a pure replay).
    pub stats: GreedyStats,
    /// Phase timings and allocation counts.
    pub profile: EcoProfile,
    /// New-topology node ids the edit actually re-routed — the splice
    /// super-leaves (survivor roots, dirty-but-kept leaves, added
    /// leaves) plus every internal node the splice search created. This
    /// is the node set to hand to the scoped verifier.
    pub dirty_nodes: Vec<u32>,
    /// Number of leaves after the batch.
    pub num_leaves: usize,
    /// Clean old merges re-committed without search.
    pub replayed: usize,
    /// Merges the splice search performed.
    pub spliced: usize,
    /// Whether the topology was reproduced verbatim (no geometric dirt,
    /// no added sinks) — the case with a bit-identity oracle.
    pub pure_replay: bool,
}

/// Reusable buffers of the ECO engine: one [`GreedyScratch`] for the
/// splice search plus the frontier/replay index maps. Reusing one across
/// ECOs keeps the loop window allocation-free.
#[derive(Debug, Default)]
pub struct EcoScratch {
    /// Scratch of the splice search.
    greedy: GreedyScratch,
    /// Per-old-leaf edit classification.
    leaf_edit: Vec<u8>,
    /// Old leaf → new leaf compaction map.
    new_of_leaf: Vec<u32>,
    /// Old node → parent old node (`NO_PARENT` for the root).
    parent: Vec<u32>,
    /// Old node dirty flags.
    dirty: Vec<bool>,
    /// Old node → new node replay map (`DEAD` for dirty/removed nodes).
    map: Vec<u32>,
    /// Splice super-leaves, as new node ids, ascending.
    locals: Vec<u32>,
    /// Local → new-node map of the splice run (leaves, then merges).
    splice_map: Vec<u32>,
    /// Bucket-grid ring gather buffer.
    ring: Vec<u32>,
    /// Edit locations whose neighborhoods get dirtied.
    dirt: Vec<Point>,
    /// New-topology merge list (replayed, then spliced).
    merges: Vec<(usize, usize)>,
    /// Splice decisions, remapped to new node ids.
    decisions: Vec<MergeDecision>,
}

impl EcoScratch {
    /// Creates an empty scratch. Buffers grow on first use and are then
    /// reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The splice decision log of the most recent [`apply_eco`] call, in
    /// new-topology node ids and canonical `a < b` orientation. Replayed
    /// merges are not logged — the old topology *is* their script.
    #[must_use]
    pub fn decisions(&self) -> &[MergeDecision] {
        &self.decisions
    }
}

/// Incrementally re-routes `old` under an edit batch (see the module
/// docs for the frontier → replay → splice flow).
///
/// `old_locations[l]` is the location of old leaf `l`. `objective` must
/// be a **fresh** objective over the *new* leaf set — leaves only, laid
/// out by the [`EcoLeafPlan`] convention (kept leaves compacted in old
/// order, moved leaves at their new locations, added leaves appended) —
/// typically either newly built or rewound with an arena `truncate`.
/// After a successful call it has committed every internal node of the
/// returned topology, exactly as after a flat run.
///
/// Emits an `eco.apply` span with `eco.frontier` / `eco.splice` /
/// `eco.search` sub-phase spans and `eco.*` counters through
/// [`Tracer::current`]; tracing never changes the result.
///
/// # Errors
///
/// [`CtsError::InvalidEco`] for an inconsistent edit batch,
/// [`CtsError::NoSinks`] when the batch removes every sink,
/// [`CtsError::CapacityExceeded`] when the new design outgrows the node
/// index budget, and any error the objective's merges raise.
///
/// # Panics
///
/// As [`run_greedy_with_scratch`], if the objective returns a NaN
/// cost or bound during the splice search.
#[expect(
    clippy::too_many_lines,
    reason = "one function per engine flow, like the flat and coarsened engines"
)]
pub fn apply_eco<O: MergeObjective>(
    old: &Topology,
    old_locations: &[Point],
    edits: &[EcoEdit],
    objective: &mut O,
    scratch: &mut EcoScratch,
) -> Result<EcoOutcome, CtsError> {
    let tracer = &Tracer::current();
    let old_n = old.num_leaves();
    if old_locations.len() != old_n {
        return Err(CtsError::InvalidEco {
            reason: format!(
                "old_locations has {} entries but the topology has {old_n} leaves",
                old_locations.len()
            ),
        });
    }
    let _apply = tracer.span("eco.apply");
    let EcoScratch {
        greedy,
        leaf_edit,
        new_of_leaf,
        parent,
        dirty,
        map,
        locals,
        splice_map,
        ring,
        dirt,
        merges,
        decisions,
    } = scratch;

    // ---- Frontier (seed-like window) -------------------------------
    let frontier_span_start = tracer.now_ns();
    let frontier_t0 = Instant::now();
    let frontier_allocs0 = alloc_count();

    let (adds, removes) = scan_edits(old_n, edits, leaf_edit)?;
    let kept = old_n - removes;
    let new_n = kept + adds;
    if new_n == 0 {
        return Err(CtsError::NoSinks);
    }
    let total = new_n.saturating_mul(2).saturating_sub(1);
    if total > NODE_INDEX_LIMIT {
        return Err(CtsError::CapacityExceeded {
            nodes: total,
            limit: NODE_INDEX_LIMIT,
        });
    }

    new_of_leaf.clear();
    new_of_leaf.resize(old_n, DEAD);
    let mut next_new = 0u32;
    for l in 0..old_n {
        if leaf_edit[l] != REMOVED {
            new_of_leaf[l] = next_new;
            next_new += 1;
        }
    }

    parent.clear();
    parent.resize(old.len(), NO_PARENT);
    for (k, node) in old.bottom_up() {
        if let TopoNode::Internal { left, right } = node {
            parent[left] = k as u32;
            parent[right] = k as u32;
        }
    }

    dirty.clear();
    dirty.resize(old.len(), false);
    dirt.clear();
    for e in edits {
        match *e {
            EcoEdit::MoveSink { index, to } => {
                dirty[index] = true;
                dirt.push(old_locations[index]);
                dirt.push(to);
            }
            EcoEdit::RemoveSink { index } => {
                dirty[index] = true;
                dirt.push(old_locations[index]);
            }
            EcoEdit::AddSink { sink, .. } => dirt.push(sink.location()),
            EcoEdit::SwapActivity { .. } => {}
        }
    }
    if !dirt.is_empty() {
        let grid = BucketGrid::build(old_locations);
        for &p in dirt.iter() {
            let rings = DIRTY_RINGS.min(grid.max_ring(p));
            for r in 0..=rings {
                grid.ring_members(p, r, ring);
                for &m in ring.iter() {
                    dirty[m as usize] = true;
                }
            }
        }
    }
    // Upward closure: children precede parents in index order.
    for i in 0..old.len() {
        if dirty[i] && parent[i] != NO_PARENT {
            dirty[parent[i] as usize] = true;
        }
    }
    let dirty_any = dirty.iter().any(|&d| d);
    let dirty_count = dirty.iter().filter(|&&d| d).count();

    let frontier_ns = elapsed_ns(frontier_t0.elapsed());
    let frontier_allocs = alloc_count() - frontier_allocs0;

    // The caller's objective must hold exactly the planned new leaf set:
    // kept, un-moved leaves sit at their old locations. Tolerance, not
    // bit-identity: a leaf's reported location may round through the
    // objective's merging-segment arithmetic (1-ulp drift), and this
    // check only guards against a permuted or stale leaf set.
    if cfg!(debug_assertions) {
        for l in 0..old_n {
            if leaf_edit[l] == KEEP {
                let got = objective.location(new_of_leaf[l] as usize);
                let want = old_locations[l];
                let tol = 1e-9 * (want.x.abs() + want.y.abs()).max(1.0);
                debug_assert!(
                    (got.x - want.x).abs() <= tol && (got.y - want.y).abs() <= tol,
                    "objective leaf layout does not follow the EcoLeafPlan convention \
                     (leaf {l}: got {got:?}, want {want:?})"
                );
            }
        }
    }

    // ---- Replay (loop window, part 1) ------------------------------
    let replay_span_start = tracer.now_ns();
    let replay_t0 = Instant::now();
    let replay_allocs0 = alloc_count();

    map.clear();
    map.resize(old.len(), DEAD);
    map[..old_n].copy_from_slice(&new_of_leaf[..old_n]);
    merges.clear();
    let mut next_global = new_n;
    let mut replayed = 0usize;
    for (k, node) in old.bottom_up() {
        if let TopoNode::Internal { left, right } = node {
            if dirty[k] {
                continue;
            }
            let (ml, mr) = (map[left] as usize, map[right] as usize);
            debug_assert!(
                ml < mr && mr < next_global,
                "monotone replay map must preserve orientation"
            );
            objective.merge(ml, mr, next_global)?;
            merges.push((ml, mr));
            map[k] = next_global as u32;
            next_global += 1;
            replayed += 1;
        }
    }

    // Splice super-leaves, ascending by new node id: kept leaves whose
    // parent dissolved, then added leaves, then survivor subtree roots.
    locals.clear();
    if dirty_any {
        for l in 0..old_n {
            if leaf_edit[l] == REMOVED {
                continue;
            }
            let p = parent[l];
            if p == NO_PARENT || dirty[p as usize] {
                locals.push(new_of_leaf[l]);
            }
        }
        locals.extend((kept..new_n).map(|i| i as u32));
        for k in old_n..old.len() {
            if dirty[k] {
                continue;
            }
            let p = parent[k];
            if p != NO_PARENT && dirty[p as usize] {
                locals.push(map[k]);
            }
        }
    } else {
        locals.extend((kept..new_n).map(|i| i as u32));
        locals.push(map[old.root()]);
    }
    let num_locals = locals.len();

    let replay_ns = elapsed_ns(replay_t0.elapsed());
    let replay_allocs = alloc_count() - replay_allocs0;

    // ---- Splice search + stitch ------------------------------------
    let first_spliced = next_global;
    let mut stats = GreedyStats::default();
    let mut search_span_start = 0;
    let mut search_ns = 0;
    let mut inner_seed_allocs = 0;
    let mut inner_loop_allocs = 0;
    let mut stitch_ns = 0;
    let mut stitch_allocs = 0;
    decisions.clear();
    if num_locals >= 2 {
        splice_map.clear();
        splice_map.extend_from_slice(locals);
        let mut splice = MappedObjective {
            inner: &mut *objective,
            map: &mut *splice_map,
            next_global,
        };
        let inner_params = GreedyParams {
            log_decisions: true,
            ..GreedyParams::default()
        };
        search_span_start = tracer.now_ns();
        let search_t0 = Instant::now();
        let (_, inner_stats, inner_profile) =
            run_greedy_with_scratch(num_locals, &mut splice, &inner_params, greedy)?;
        search_ns = elapsed_ns(search_t0.elapsed());
        next_global = splice.next_global;
        stats = inner_stats;
        inner_seed_allocs = inner_profile.seed_allocs;
        inner_loop_allocs = inner_profile.loop_allocs;

        // Stitch (loop window, part 2): the splice merges and decisions
        // in new-topology ids, appended after the replay.
        let stitch_t0 = Instant::now();
        let stitch_allocs0 = alloc_count();
        splice.stitch(greedy.decisions(), merges, decisions, true);
        stitch_ns = elapsed_ns(stitch_t0.elapsed());
        stitch_allocs = alloc_count() - stitch_allocs0;
    }
    let spliced = next_global - first_spliced;
    debug_assert_eq!(next_global, total, "every new node must be committed");

    // Windows are closed: emit the aggregated trace events.
    tracer.complete_span("eco.frontier", frontier_span_start, frontier_ns);
    tracer.complete_span("eco.splice", replay_span_start, replay_ns);
    if num_locals >= 2 {
        tracer.complete_span("eco.search", search_span_start, search_ns);
        tracer.complete_span("eco.splice", search_span_start + search_ns, stitch_ns);
    }
    if tracer.enabled() {
        tracer.counter("eco.dirty_nodes", dirty_count as f64);
        tracer.counter("eco.locals", num_locals as f64);
        tracer.counter("eco.replayed", replayed as f64);
        tracer.counter("eco.spliced", spliced as f64);
    }

    let profile = EcoProfile {
        frontier_ms: frontier_ns as f64 / 1e6,
        replay_ms: replay_ns as f64 / 1e6,
        search_ms: (search_ns + stitch_ns) as f64 / 1e6,
        seed_allocs: frontier_allocs + inner_seed_allocs,
        loop_allocs: replay_allocs + inner_loop_allocs + stitch_allocs,
    };

    let topology = if new_n == 1 {
        Topology::single_sink()?
    } else {
        Topology::from_merges(new_n, merges)?
    };
    let mut dirty_nodes: Vec<u32> = Vec::with_capacity(num_locals + spliced);
    dirty_nodes.extend_from_slice(locals);
    dirty_nodes.extend((first_spliced..next_global).map(|i| i as u32));

    Ok(EcoOutcome {
        topology,
        stats,
        profile,
        dirty_nodes,
        num_leaves: new_n,
        replayed,
        spliced,
        pure_replay: !dirty_any && adds == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::run_greedy_with_scratch;
    use crate::testing::PointObjective;

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(((i * 131) % 10_007) as f64, ((i * 197) % 9_973) as f64))
            .collect()
    }

    fn route(points: &[Point]) -> Topology {
        let mut obj = PointObjective::over(points);
        let mut scratch = GreedyScratch::new();
        let params = GreedyParams::default();
        run_greedy_with_scratch(points.len(), &mut obj, &params, &mut scratch)
            .unwrap()
            .0
    }

    #[test]
    fn plan_compacts_moves_and_appends() {
        let edits = [
            EcoEdit::RemoveSink { index: 1 },
            EcoEdit::MoveSink {
                index: 2,
                to: Point::new(5.0, 5.0),
            },
            EcoEdit::AddSink {
                sink: Sink::new(Point::new(9.0, 9.0), 0.07),
                module: 3,
            },
            EcoEdit::SwapActivity { module: 0 },
        ];
        let plan = plan_eco_leaves(4, &edits).unwrap();
        assert_eq!(plan.num_new_leaves, 4);
        assert_eq!(plan.new_of_old, vec![0, EcoLeafPlan::REMOVED, 1, 2]);
        let old_sinks = [
            Sink::new(Point::new(0.0, 0.0), 0.01),
            Sink::new(Point::new(1.0, 0.0), 0.02),
            Sink::new(Point::new(2.0, 0.0), 0.03),
            Sink::new(Point::new(3.0, 0.0), 0.04),
        ];
        let sinks = plan.new_sinks(&old_sinks);
        assert_eq!(sinks.len(), 4);
        assert_eq!(sinks[0], old_sinks[0]);
        // The moved sink keeps its load at the new location.
        assert_eq!(sinks[1], Sink::new(Point::new(5.0, 5.0), 0.03));
        assert_eq!(sinks[2], old_sinks[3]);
        assert_eq!(sinks[3], Sink::new(Point::new(9.0, 9.0), 0.07));
        assert_eq!(plan.new_module_of(&[10, 11, 12, 13]), vec![10, 12, 13, 3]);
    }

    #[test]
    fn invalid_batches_are_rejected() {
        let out_of_range = plan_eco_leaves(3, &[EcoEdit::RemoveSink { index: 3 }]);
        assert!(matches!(out_of_range, Err(CtsError::InvalidEco { .. })));
        let double = plan_eco_leaves(
            3,
            &[
                EcoEdit::RemoveSink { index: 1 },
                EcoEdit::MoveSink {
                    index: 1,
                    to: Point::ORIGIN,
                },
            ],
        );
        assert!(matches!(double, Err(CtsError::InvalidEco { .. })));
        let empty = plan_eco_leaves(1, &[EcoEdit::RemoveSink { index: 0 }]);
        assert!(matches!(empty, Err(CtsError::NoSinks)));
    }

    /// An activity-only batch replays the old topology bit-identically:
    /// same merges, zero splice work, `pure_replay` set.
    #[test]
    fn activity_only_batch_is_a_pure_replay() {
        let points = scatter(60);
        let old = route(&points);
        let mut obj = PointObjective::over(&points);
        let mut scratch = EcoScratch::new();
        let out = apply_eco(
            &old,
            &points,
            &[EcoEdit::SwapActivity { module: 7 }],
            &mut obj,
            &mut scratch,
        )
        .unwrap();
        assert!(out.pure_replay);
        assert_eq!(out.topology, old);
        assert_eq!(out.spliced, 0);
        assert_eq!(out.replayed, 59);
        assert_eq!(out.stats, GreedyStats::default());
        assert!(scratch.decisions().is_empty());
        // The objective committed every internal node.
        assert_eq!(obj.points.len(), 2 * 60 - 1);
        // The single dirty node is the surviving root.
        assert_eq!(out.dirty_nodes, vec![old.root() as u32]);
    }

    /// A single-sink move re-routes locally: most merges replay, the
    /// spliced region stays small, and the result is a valid topology
    /// over the same leaf count.
    #[test]
    fn move_edit_splices_locally() {
        let points = scatter(200);
        let old = route(&points);
        let mut new_points = points.clone();
        new_points[100] = Point::new(new_points[100].x + 40.0, new_points[100].y + 40.0);
        let mut obj = PointObjective::over(&new_points);
        let mut scratch = EcoScratch::new();
        let out = apply_eco(
            &old,
            &points,
            &[EcoEdit::MoveSink {
                index: 100,
                to: new_points[100],
            }],
            &mut obj,
            &mut scratch,
        )
        .unwrap();
        assert!(!out.pure_replay);
        assert_eq!(out.num_leaves, 200);
        assert_eq!(out.topology.num_leaves(), 200);
        assert_eq!(out.topology.subtree_sizes()[out.topology.root()], 200);
        assert_eq!(out.replayed + out.spliced, 199);
        assert!(
            out.spliced < 100,
            "a single move must not re-search half the tree ({} spliced)",
            out.spliced
        );
        assert_eq!(scratch.decisions().len(), out.spliced);
        for d in scratch.decisions() {
            assert!(d.a < d.b && (d.b as usize) < d.node as usize);
        }
        assert_eq!(obj.points.len(), 2 * 200 - 1);
    }

    /// Removing a leaf yields a full-coverage topology over the
    /// compacted survivors, one leaf fewer.
    #[test]
    fn remove_edit_compacts_leaves() {
        let points = scatter(80);
        let old = route(&points);
        let mut new_points = points.clone();
        new_points.remove(17);
        let mut obj = PointObjective::over(&new_points);
        let mut scratch = EcoScratch::new();
        let out = apply_eco(
            &old,
            &points,
            &[EcoEdit::RemoveSink { index: 17 }],
            &mut obj,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(out.num_leaves, 79);
        assert_eq!(out.topology.num_leaves(), 79);
        assert_eq!(out.topology.subtree_sizes()[out.topology.root()], 79);
    }

    /// Adding a sink in empty space far from every old leaf still works:
    /// the old root survives and the splice merges it with the new leaf.
    #[test]
    fn add_in_far_corner_splices_root_and_leaf() {
        let points: Vec<Point> = (0..30)
            .map(|i| {
                Point::new(
                    f64::from(i as u32 % 6) * 10.0,
                    f64::from(i as u32 / 6) * 10.0,
                )
            })
            .collect();
        let old = route(&points);
        let far = Point::new(1.0e6, 1.0e6);
        let mut new_points = points.clone();
        new_points.push(far);
        let mut obj = PointObjective::over(&new_points);
        let mut scratch = EcoScratch::new();
        let out = apply_eco(
            &old,
            &points,
            &[EcoEdit::AddSink {
                sink: Sink::new(far, 0.01),
                module: 0,
            }],
            &mut obj,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(out.num_leaves, 31);
        assert_eq!(out.topology.subtree_sizes()[out.topology.root()], 31);
        assert!(!out.pure_replay);
        assert!(out.spliced >= 1);
    }

    /// Warm ECO loop: the second identical call through the same scratch
    /// (with a fresh objective) reproduces the first bitwise and keeps
    /// the loop window allocation-free by accounting.
    #[test]
    fn warm_eco_is_deterministic() {
        let points = scatter(150);
        let old = route(&points);
        let mut new_points = points.clone();
        new_points[75] = Point::new(new_points[75].x + 25.0, new_points[75].y);
        let edits = [EcoEdit::MoveSink {
            index: 75,
            to: new_points[75],
        }];
        let mut scratch = EcoScratch::new();
        let run = |scratch: &mut EcoScratch| {
            let mut obj = PointObjective::over(&new_points);
            let out = apply_eco(&old, &points, &edits, &mut obj, scratch).unwrap();
            (out.topology, scratch.decisions().to_vec())
        };
        let (cold_topo, cold_log) = run(&mut scratch);
        let (warm_topo, warm_log) = run(&mut scratch);
        assert_eq!(cold_topo, warm_topo);
        assert_eq!(cold_log, warm_log);
    }

    /// Down to one sink: the engine returns the single-sink topology, and
    /// an add on it grows the two-sink tree.
    #[test]
    fn shrinking_to_one_sink_works() {
        let points = scatter(2);
        let old = route(&points);
        let new_points = vec![points[0]];
        let mut obj = PointObjective::over(&new_points);
        let mut scratch = EcoScratch::new();
        let out = apply_eco(
            &old,
            &points,
            &[EcoEdit::RemoveSink { index: 1 }],
            &mut obj,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(out.num_leaves, 1);
        assert_eq!(out.topology.len(), 1);
        // …and back up: an added sink pairs with the survivor at the root.
        let mut obj = PointObjective::over(&points);
        let grown = apply_eco(
            &out.topology,
            &new_points,
            &[EcoEdit::AddSink {
                sink: Sink::new(points[1], 0.0),
                module: 0,
            }],
            &mut obj,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(grown.num_leaves, 2);
        assert_eq!(
            grown.topology.node(grown.topology.root()),
            TopoNode::Internal { left: 0, right: 1 }
        );
    }

    /// The traced run is bit-identical to the untraced one and emits the
    /// `eco.*` span family.
    #[test]
    fn traced_eco_matches_untraced_and_emits_spans() {
        use gcr_trace::{MemorySink, Tracer};
        use std::sync::Arc;
        let points = scatter(120);
        let old = route(&points);
        let mut new_points = points.clone();
        new_points[60] = Point::new(new_points[60].x + 30.0, new_points[60].y + 10.0);
        let edits = [EcoEdit::MoveSink {
            index: 60,
            to: new_points[60],
        }];
        let mut scratch = EcoScratch::new();
        let mut obj = PointObjective::over(&new_points);
        let plain = apply_eco(&old, &points, &edits, &mut obj, &mut scratch).unwrap();
        let sink = Arc::new(MemorySink::new());
        let _entered = Tracer::new(sink.clone()).enter();
        let mut obj2 = PointObjective::over(&new_points);
        let traced = apply_eco(&old, &points, &edits, &mut obj2, &mut scratch).unwrap();
        assert_eq!(plain.topology, traced.topology);
        let names: Vec<&str> = sink
            .events()
            .iter()
            .map(gcr_trace::TraceEvent::name)
            .collect();
        for required in ["eco.apply", "eco.frontier", "eco.splice", "eco.search"] {
            assert!(names.contains(&required), "missing span {required}");
        }
        assert!(sink.counter("eco.locals").unwrap() >= 2.0);
        assert_eq!(
            sink.counter("eco.replayed").unwrap() + sink.counter("eco.spliced").unwrap(),
            119.0
        );
    }
}

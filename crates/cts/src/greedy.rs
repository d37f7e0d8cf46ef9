use std::time::Instant;

use gcr_geometry::Point;
use gcr_trace::{alloc_count, Tracer};

use crate::arena::NODE_INDEX_LIMIT;
use crate::nearest::BucketGrid;
use crate::{BoundColumns, BoundRows, BoundTerms, CtsError, Topology};

/// The pluggable cost model of the bottom-up greedy merger.
///
/// The engine owns the *control flow* of the paper's `GatedClockRouting`
/// loop ("pick the pair whose SC is minimum … until only the root is
/// left"); the objective owns the *state*: subtree electrical summaries,
/// activity statistics, whatever the cost needs. Implementations:
///
/// * [`NearestNeighborObjective`](crate::NearestNeighborObjective) — cost =
///   geometric distance between merging regions (Edahiro \[3\], the paper's
///   buffered baseline);
/// * the Equation-3 switched-capacitance objective in `gcr-core` (the
///   paper's contribution).
///
/// `cost` and the bound methods take `&self`; all mutation happens in
/// `merge`.
///
/// # Exactness contract
///
/// The pruned engine ([`run_greedy_with_scratch`]) commits exactly the merges the
/// exhaustive engine ([`run_greedy_exhaustive_with_scratch`]) would, *provided* the
/// bound methods are **admissible**:
///
/// * `cost_lower_bound(a, b) <= cost(a, b)` for every live pair, and
/// * `cost_lower_bound_at_distance(x, dist, floor) <= cost(x, y)` for
///   every leaf `y` whose merging region lies at distance `>= dist` from
///   `x`'s and whose [`leaf_floor`](Self::leaf_floor) is componentwise
///   `>= floor`.
///
/// The engine passes as `floor` the componentwise minimum of `leaf_floor`
/// over the leaves still alive when it prices the ring, and as `dist` the
/// ring's center distance shrunk by the region radii (0 for point
/// leaves; see [`BoundTerms::radius`]). Leaves only ever
/// die, so that minimum only rises, and a key priced earlier still
/// bounds every pair it stands in for.
///
/// Both inequalities must hold **as computed in floating point**, not
/// just in exact arithmetic: a bound that overshoots its exact cost by
/// one ULP is inadmissible. Objectives whose bound and cost sum their
/// terms in different orders scale the bound down by a stated margin.
///
/// An inadmissible bound does not corrupt the tree — every committed merge
/// still uses the exact `cost` — but the merge *order* can then diverge
/// from the exhaustive engine. [`run_greedy_checked`] asserts the
/// equivalence at runtime.
pub trait MergeObjective {
    /// Cost of merging the live subtrees rooted at topology nodes `a` and
    /// `b`. Must depend only on the states of `a` and `b` (both immutable
    /// once created) so that heap entries never go stale.
    fn cost(&self, a: usize, b: usize) -> f64;

    /// Cheap admissible lower bound on [`cost`](Self::cost) for the pair
    /// `(a, b)`: must never exceed the exact cost, and must be computable
    /// without a zero-skew merge (for Equation 3 this is the
    /// distance-driven wire-capacitance term plus the merge-independent
    /// static terms).
    fn cost_lower_bound(&self, a: usize, b: usize) -> f64;

    /// The per-node inputs of the batched bound: `node`'s merging region
    /// and the two scalars [`bound_kernel`](Self::bound_kernel) reads.
    /// Like the cost, it must depend only on `node`'s (immutable) state:
    /// the engine copies a node's terms once, into a live-ordered column
    /// mirror, and prices every later flood from that copy.
    fn bound_terms(&self, node: usize) -> BoundTerms;

    /// Batched [`cost_lower_bound`](Self::cost_lower_bound) over columns:
    /// writes the bound of `(c, y_i)` into `out[i]`, where `center` is
    /// `bound_terms(c)` and row `i` of `rows` is `bound_terms(y_i)`. The
    /// engine prices every candidate set (expansion rings, post-merge
    /// floods and re-floods) through this one kernel, so implementations
    /// should be a single [`BoundRows::price`] pass.
    ///
    /// **Contract:** each `out[i]` must be bit-identical to
    /// `cost_lower_bound(c, y_i)`: a single differing bit in a heap key
    /// could reorder pops.
    ///
    /// # Panics
    ///
    /// Implementations may assume (and [`BoundRows::price`] asserts) that
    /// `rows` and `out` have equal lengths.
    fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]);

    /// Admissible lower bound on `cost(node, y)` over every **leaf** `y`
    /// whose merging region lies at distance at least `dist` from
    /// `node`'s and whose [`leaf_floor`](Self::leaf_floor) is
    /// componentwise at least `floor`. Used to price the not-yet-generated
    /// bucket-grid rings of a leaf, so `node` is always a leaf when the
    /// engine calls this.
    fn cost_lower_bound_at_distance(&self, node: usize, dist: f64, floor: [f64; 2]) -> f64;

    /// The per-leaf terms the at-distance bound takes its floor over: the
    /// engine keeps the componentwise minimum of these over the live
    /// leaves and passes it to
    /// [`cost_lower_bound_at_distance`](Self::cost_lower_bound_at_distance).
    /// Objectives whose at-distance bound reads no partner state keep the
    /// default `[0.0; 2]`.
    fn leaf_floor(&self, _leaf: usize) -> [f64; 2] {
        [0.0; 2]
    }

    /// Representative location of `node` (the center of its merging
    /// region; for a leaf, the sink location). Leaf locations seed the
    /// candidate-generation bucket grid.
    fn location(&self, node: usize) -> Point;

    /// Commit the merge of `a` and `b` into the new topology node `k`
    /// (`k` is always the next unused index). The objective must create
    /// and cache whatever state node `k` needs for future cost queries.
    ///
    /// # Errors
    ///
    /// Implementations that run a zero-skew merge propagate its
    /// [`CtsError::MergeRegionDisjoint`] instead of panicking.
    fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError>;
}

/// Instrumentation counters of one greedy run, exposed so benchmarks (and
/// the acceptance gate on pruning effectiveness) can compare engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Exact [`MergeObjective::cost`] evaluations (each runs a full
    /// zero-skew merge under the Equation-3 objective) — the number the
    /// pruned engine exists to minimize.
    pub exact_cost_evals: u64,
    /// Cheap [`MergeObjective::cost_lower_bound`] evaluations.
    pub bound_evals: u64,
    /// Bucket-grid expansion rings generated (0 for the exhaustive
    /// engine).
    pub ring_expansions: u64,
    /// Heap entries popped, including lazily-deleted dead ones.
    pub heap_pops: u64,
    /// Candidate batches priced through [`MergeObjective::bound_kernel`]
    /// (each ring expansion, post-merge flood and re-flood counts once).
    pub bound_batches: u64,
    /// Candidates parked in the deferred-candidate slab instead of
    /// becoming heap entries, less those a row reopen later released.
    /// Every priced batch parks all its candidates but the cheapest (its
    /// lead, which goes straight to the heap), or only the next 64
    /// cheapest when the batch is truncated.
    pub bounds_filtered: u64,
}

/// Tuning knobs of a greedy run. All fields default to "decide at
/// runtime", so `GreedyParams::default()` reproduces the historical
/// behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedyParams {
    /// Worker threads of the coarsened engine's region pool
    /// ([`run_greedy_coarsened`](crate::run_greedy_coarsened)), the
    /// field's only reader: the pruned and exhaustive engines price every
    /// batch on the calling thread. It stays in `GreedyParams` rather
    /// than [`CoarsenParams`](crate::CoarsenParams) because `flowbench`
    /// names it in struct literals. Resolution order: this field,
    /// then the `GCR_THREADS` environment variable, then
    /// `std::thread::available_parallelism()`; the result is clamped to
    /// `1..=16`; an unparsable `GCR_THREADS` warns under `greedy.threads`
    /// and resolves to 1. Pin it (or set `GCR_THREADS=1`) for reproducible
    /// timings on shared CI runners — the committed merges are identical
    /// at any thread count, only wall time varies.
    pub threads: Option<usize>,
    /// Record a [`MergeDecision`] per committed merge into the scratch's
    /// decision log (read back with [`GreedyScratch::decisions`]). Off by
    /// default: the log is one push per merge — cheap, but it may grow a
    /// cold scratch's buffer, so the zero-allocation warm-loop invariant
    /// is only guaranteed with logging off or a warmed log buffer.
    pub log_decisions: bool,
}

/// One committed merge of a greedy run: the canonical decision-log record
/// the determinism auditor diffs across thread counts and tracing
/// configurations.
///
/// The winning pair is stored in canonical `a < b` orientation and the
/// winning exact cost as raw `f64` bits, so two logs are equal **iff**
/// the runs took bit-identical decisions (same merge order, same chosen
/// partners, same tie-break keys).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MergeDecision {
    /// Lower-indexed merge partner.
    pub a: u32,
    /// Higher-indexed merge partner.
    pub b: u32,
    /// The node index the merge created (`num_leaves + step`).
    pub node: u32,
    /// The winning exact cost, as `f64::to_bits` for bit-exact diffing.
    pub key_bits: u64,
}

impl MergeDecision {
    /// The winning exact cost as a float.
    #[must_use]
    pub fn key(&self) -> f64 {
        f64::from_bits(self.key_bits)
    }
}

impl std::fmt::Display for MergeDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "merge v{} <- (v{}, v{}) key=0x{:016x}",
            self.node, self.a, self.b, self.key_bits
        )
    }
}

/// Renders a decision log in its canonical text form: one
/// `merge v<node> <- (v<a>, v<b>) key=0x<bits>` line per committed merge.
/// Two runs are bit-identical iff their canonical logs are equal strings.
#[must_use]
pub fn canonical_decision_log(decisions: &[MergeDecision]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in decisions {
        let _ = writeln!(out, "{d}");
    }
    out
}

/// Per-phase wall times and allocation counts of one greedy run.
///
/// Allocation counts are read from the probe installed with
/// [`gcr_trace::set_alloc_probe`] (benchmarks install a counting global
/// allocator); without a probe they stay 0. The engine's steady-state
/// invariant is `loop_allocs == 0` on a **warm** run — one that reuses a
/// [`GreedyScratch`] and an objective whose buffers were pre-reserved —
/// since every loop-phase buffer then already has capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GreedyProfile {
    /// Wall time (ms) of the seed phase: location gathering, bucket-grid
    /// construction and one ring-0 expansion entry per leaf.
    pub seed_ms: f64,
    /// Wall time (ms) of the merge loop (topology assembly excluded).
    pub loop_ms: f64,
    /// Heap allocations performed during the seed phase.
    pub seed_allocs: u64,
    /// Heap allocations performed during the merge loop.
    pub loop_allocs: u64,
}

/// A duration as saturating `u64` nanoseconds (the trace event width).
pub(crate) fn elapsed_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Heap-entry kinds, in tie-break order. At equal keys, every non-exact
/// kind (expansion, deferred-slab, bound) must resolve **before** any
/// exact entry commits, so that every pair whose true cost ties the
/// minimum is present as an exact entry when the winner is chosen — this
/// is what makes the pruned engine's tie-breaking identical to the
/// exhaustive engine's.
const KIND_EXPAND: u8 = 0;
const KIND_DEFER: u8 = 1;
const KIND_BOUND: u8 = 2;
const KIND_EXACT: u8 = 3;

/// Indices must fit in 31 bits so `(kind, a, b)` packs into one `u64` tag.
const INDEX_BITS: u32 = 31;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// A prioritized work item in the lazy best-first heap, packed to 16
/// bytes: the f64 key plus a `u64` tag holding `(kind << 62) | (a << 31)
/// | b`. Because `a` and `b` are below `2^31`, ascending tag order is
/// exactly ascending `(kind, a, b)` lexicographic order, so one integer
/// compare replaces the old three-field tie-break while preserving the
/// strict total order that makes the pop sequence — and therefore the
/// committed merges — implementation-independent.
///
/// * `KIND_EXPAND`: generate ring `b` of leaf `a`'s bucket-grid
///   neighborhood; `key` bounds the cost of every not-yet-generated pair
///   of `a`.
/// * `KIND_DEFER`: slab row `b` of filtered candidates of center node `a`
///   (`b` is a row index, **not** a node); `key` is the minimum bound of
///   the row's still-deferred candidates, so the row as a whole stays an
///   admissible stand-in for every pair it covers.
/// * `KIND_BOUND`: pair `(a, b)` with `key = cost_lower_bound(a, b)`.
/// * `KIND_EXACT`: pair `(a, b)` with `key = cost(a, b)`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry {
    key: f64,
    tag: u64,
}

impl Entry {
    fn new(key: f64, kind: u8, a: u32, b: u32) -> Self {
        debug_assert!(u64::from(a) <= INDEX_MASK && u64::from(b) <= INDEX_MASK);
        Self {
            key,
            tag: (u64::from(kind) << (2 * INDEX_BITS))
                | (u64::from(a) << INDEX_BITS)
                | u64::from(b),
        }
    }

    fn kind(self) -> u8 {
        (self.tag >> (2 * INDEX_BITS)) as u8
    }

    fn a(self) -> u32 {
        ((self.tag >> INDEX_BITS) & INDEX_MASK) as u32
    }

    fn b(self) -> u32 {
        (self.tag & INDEX_MASK) as u32
    }

    /// Min-first order: key, then the packed `(kind, a, b)` tag.
    fn precedes(self, other: Self) -> bool {
        match self.key.total_cmp(&other.key) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.tag < other.tag,
        }
    }

    /// Whether this entry can still do useful work. Expansion and deferred
    /// entries need only their center node (`b` is a ring or slab-row
    /// index); pair entries need both endpoints.
    fn is_live(self, alive: &[bool]) -> bool {
        if self.kind() < KIND_BOUND {
            alive[self.a() as usize]
        } else {
            alive[self.a() as usize] && alive[self.b() as usize]
        }
    }
}

/// Children per heap node. A 4-ary layout keeps the tree half as deep as
/// a binary heap — pops on the multi-hundred-thousand-entry heaps of
/// r4/r5 are sift-down bound — while one node's children still share a
/// cache line (4 × 16 B entries).
const ARITY: usize = 4;

/// Min-first d-ary heap of [`Entry`] values with hole-based sifting (the
/// moving entry is held in a register and written once, instead of
/// swapping at every level) and in-place compaction of lazily-deleted
/// entries.
#[derive(Clone, Debug, Default)]
struct MinHeap {
    data: Vec<Entry>,
}

impl MinHeap {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn push(&mut self, entry: Entry) {
        self.data.push(entry);
        let mut i = self.data.len() - 1;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if entry.precedes(self.data[parent]) {
                self.data[i] = self.data[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.data[i] = entry;
    }

    /// The minimum entry, without removing it.
    fn peek(&self) -> Option<Entry> {
        self.data.first().copied()
    }

    fn pop(&mut self) -> Option<Entry> {
        let top = *self.data.first()?;
        let last = self.data.pop();
        if let Some(last) = last {
            if !self.data.is_empty() {
                self.data[0] = last;
                self.sift_down(0);
            }
        }
        Some(top)
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.data.len();
        let entry = self.data[i];
        loop {
            let first = i * ARITY + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            for child in (first + 1)..(first + ARITY).min(n) {
                if self.data[child].precedes(self.data[best]) {
                    best = child;
                }
            }
            if self.data[best].precedes(entry) {
                self.data[i] = self.data[best];
                i = best;
            } else {
                break;
            }
        }
        self.data[i] = entry;
    }

    /// Restores the heap property over arbitrary `data` in O(n).
    fn rebuild(&mut self) {
        let n = self.data.len();
        if n < 2 {
            return;
        }
        let mut i = (n - 2) / ARITY;
        loop {
            self.sift_down(i);
            if i == 0 {
                break;
            }
            i -= 1;
        }
    }

    /// Drops every lazily-deleted entry and re-heapifies in place. Safe at
    /// any time because removing elements never violates the order of the
    /// survivors' eventual pops — the heap is rebuilt from scratch.
    fn retain_live(&mut self, alive: &[bool]) {
        self.data.retain(|e| e.is_live(alive));
        self.rebuild();
    }
}

/// One row of the deferred-candidate slab: the [`row_key`]-packed
/// `(bound, partner)` candidates of `center` (the `a` of the owning
/// `KIND_DEFER` entry) in the slab range `start..start + len`. Rows are
/// written unordered (pricing is the hot path and most rows are never
/// reopened) and sorted once, on the first deferred pop; reopens then
/// release candidates in bound order by advancing `start`.
///
/// A row with a `cutoff` holds only the [`ROW_KEEP`] cheapest candidates
/// after the lead of its truncated batch, and `cutoff` is the `(bound, partner)` of the
/// most expensive one it kept. Draining it re-prices its center against
/// the current live set, keeping only candidates strictly above the
/// cutoff — the cutoff rises with every re-flood, so the row converges
/// instead of re-materializing pairs it already surfaced.
#[derive(Clone, Copy, Debug)]
struct SlabRow {
    start: u32,
    len: u32,
    cutoff: Option<(f64, u32)>,
    sorted: bool,
}

/// Append-only storage for the parked candidates of every priced batch.
/// Rows never move once pushed (a reopen only advances a
/// row's `start`), and the backing vectors retain their high-water
/// capacity across runs, preserving the zero-allocation warm loop.
#[derive(Clone, Debug, Default)]
struct CandidateSlab {
    /// [`row_key`]-packed candidates, grouped by row.
    items: Vec<u128>,
    rows: Vec<SlabRow>,
}

impl CandidateSlab {
    fn clear(&mut self) {
        self.items.clear();
        self.rows.clear();
    }
}

/// Minimum number of slab candidates a deferred pop materializes (when
/// that many remain). Reopening a row costs a heap pop and a re-push, so
/// draining strictly by need — often a single candidate per pop — would
/// thrash the heap; batching keeps reopen traffic negligible while still
/// materializing only a sliver of each row.
const DEFER_BATCH: usize = 16;

/// Number of candidates a truncated row retains. Flood batches span the
/// whole live set, but only the cheapest few bounds ever become
/// competitive before the center itself merges; keeping a fixed-size
/// prefix keeps the slab inside the cache instead of growing
/// quadratically with the instance.
const ROW_KEEP: usize = 64;

/// Maximum rings one `KIND_EXPAND` pop consumes. Batching rings whose
/// keys fall inside the run-ahead window trades a bounded amount of
/// eager pricing for a proportional drop in heap pop/push cycles; the
/// cap keeps a pathologically wide window from dragging a whole quadrant
/// into one batch.
const RING_GATHER: usize = 16;

/// Reusable buffers of the greedy engines. Constructing one per run
/// reproduces the historical allocation profile; **reusing** one across
/// runs (plus an objective with pre-reserved storage) makes the merge
/// loop allocation-free, since every buffer here retains its high-water
/// capacity.
#[derive(Clone, Debug, Default)]
pub struct GreedyScratch {
    heap: MinHeap,
    alive: Vec<bool>,
    /// The live nodes, in no particular order: removal swaps the last
    /// node into the hole.
    live: Vec<u32>,
    /// Each live node's slot in `live` (stale for dead nodes).
    live_pos: Vec<u32>,
    /// The live nodes' [`BoundTerms`], row `i` belonging to `live[i]`:
    /// floods price straight from these columns.
    live_terms: BoundColumns,
    members: Vec<u32>,
    batch: Vec<(u32, u32)>,
    entries: Vec<Entry>,
    locations: Vec<Point>,
    merges: Vec<(usize, usize)>,
    /// Candidate node indices of the ring batch being priced.
    cand: Vec<u32>,
    /// The [`BoundTerms`] of a ring batch's `cand`, row for row.
    cand_terms: BoundColumns,
    /// Bound kernel output column: parallel to `cand` for ring batches,
    /// to `live` for floods. Only ever grows, so pricing a batch
    /// never zero-fills it.
    bounds: Vec<f64>,
    /// Best known exact cost touching each node (+∞ until its first
    /// exact evaluation) — the filtering threshold of the pruned engine.
    best_seen: Vec<f64>,
    /// The packed row keys [`select_flood`] keeps from a batch.
    selbuf: Vec<u128>,
    slab: CandidateSlab,
    /// Floors of the at-distance ring bound over the live leaves.
    live_floor: LiveFloor<3>,
    /// Decision log of the last run, populated only under
    /// [`GreedyParams::log_decisions`].
    decisions: Vec<MergeDecision>,
}

/// The componentwise minimum of `N` per-leaf terms over the live leaves,
/// in amortized O(1) per query. The engine floors three: the two of
/// [`MergeObjective::leaf_floor`] and the negated region radius (so the
/// third floor is minus the largest live radius). Each term keeps the
/// leaves sorted by that term (once per run, `total_cmp` with ties by
/// leaf index) and a cursor that only moves forward, past leaves that
/// have died; leaves never come back to life, so a skipped slot never
/// needs revisiting. Every order keeps its capacity across runs, so a
/// warm run sorts without allocating.
#[derive(Clone, Debug)]
struct LiveFloor<const N: usize> {
    /// Per floor term: `(term, leaf)`, ascending.
    order: [Vec<(f64, u32)>; N],
    /// Per floor term: the first slot of `order` that may still be alive.
    cursor: [usize; N],
}

impl<const N: usize> Default for LiveFloor<N> {
    fn default() -> Self {
        Self {
            order: std::array::from_fn(|_| Vec::new()),
            cursor: [0; N],
        }
    }
}

impl<const N: usize> LiveFloor<N> {
    /// Sorts the leaves by each floor term; `floors` yields the terms of
    /// leaves `0, 1, …` in order.
    fn reset(&mut self, floors: impl Iterator<Item = [f64; N]>) {
        for order in &mut self.order {
            order.clear();
        }
        for (leaf, terms) in floors.enumerate() {
            for (order, term) in self.order.iter_mut().zip(terms) {
                order.push((term, leaf as u32));
            }
        }
        for order in &mut self.order {
            order.sort_unstable_by(|p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
        }
        self.cursor = [0; N];
    }

    /// The current floor: per term, the least value any live leaf holds
    /// (`+∞` once no leaf is alive).
    fn floor(&mut self, alive: &[bool]) -> [f64; N] {
        let mut floor = [f64::INFINITY; N];
        for ((order, cursor), out) in self.order.iter().zip(&mut self.cursor).zip(&mut floor) {
            while let Some(&(term, leaf)) = order.get(*cursor) {
                if alive[leaf as usize] {
                    *out = term;
                    break;
                }
                *cursor += 1;
            }
        }
        floor
    }
}

impl GreedyScratch {
    /// Creates an empty scratch. Buffers grow on first use and are then
    /// reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The decision log of the most recent run through this scratch —
    /// empty unless that run set [`GreedyParams::log_decisions`].
    #[must_use]
    pub fn decisions(&self) -> &[MergeDecision] {
        &self.decisions
    }

    /// Takes ownership of the last run's decision log, leaving the
    /// scratch's buffer empty (it regrows on the next logged run).
    #[must_use]
    pub fn take_decisions(&mut self) -> Vec<MergeDecision> {
        std::mem::take(&mut self.decisions)
    }

    /// Clears every buffer and sizes the liveness state for a run over
    /// `total = 2 * num_leaves - 1` nodes with leaves `0..num_leaves`
    /// initially alive. With `mirror` (the pruned engine) it also sizes
    /// `live_pos` and reserves the live mirror's rows, so the merge loop
    /// never grows them.
    fn reset(&mut self, total: usize, num_leaves: usize, mirror: bool) {
        self.heap.data.clear();
        self.alive.clear();
        self.alive.resize(total, false);
        self.alive[..num_leaves].fill(true);
        self.live.clear();
        self.live.extend(0..num_leaves as u32);
        self.live_pos.clear();
        self.live_terms.clear();
        if mirror {
            self.live_pos.extend(0..num_leaves as u32);
            self.live_pos.resize(total, u32::MAX);
            self.live_terms.reserve(num_leaves);
        }
        self.members.clear();
        self.batch.clear();
        self.entries.clear();
        self.locations.clear();
        self.merges.clear();
        self.cand.clear();
        self.cand_terms.clear();
        self.best_seen.clear();
        self.best_seen.resize(total, f64::INFINITY);
        self.selbuf.clear();
        self.slab.clear();
        self.decisions.clear();
    }
}

/// Shadow-invariant micro-checks, compiled into the greedy warm loop by
/// the `shadow-invariants` cargo feature. Each hook is an `#[inline]`
/// assertion over values the loop already holds in registers; with the
/// feature off the functions below are empty and vanish entirely, so the
/// default build's hot loop (and its zero-allocation profile) is
/// untouched.
#[cfg(feature = "shadow-invariants")]
mod shadow {
    use super::{BoundColumns, Entry, MergeObjective, MinHeap, Point};

    /// Before a flood prices from the live mirror: `live_pos` must invert
    /// `live`, and every mirror row must equal its node's
    /// [`bound_terms`](MergeObjective::bound_terms) bit for bit — a stale
    /// or misplaced row would price a pair from another node's state.
    pub(super) fn live_mirror<O: MergeObjective>(
        objective: &O,
        live: &[u32],
        live_pos: &[u32],
        terms: &BoundColumns,
    ) {
        assert_eq!(
            terms.len(),
            live.len(),
            "shadow-invariants: live mirror holds {} rows for {} live nodes",
            terms.len(),
            live.len()
        );
        let rows = terms.rows();
        for (i, &node) in live.iter().enumerate() {
            assert_eq!(
                live_pos[node as usize] as usize, i,
                "shadow-invariants: live_pos of node {node} does not point at its live slot {i}"
            );
            assert_eq!(
                rows.row(i).to_bits(),
                objective.bound_terms(node as usize).to_bits(),
                "shadow-invariants: live mirror row {i} differs from node {node}'s bound terms"
            );
        }
    }

    /// After a pop, the new heap top must not precede the popped entry in
    /// the strict `(key, kind, a, b)` total order — a cheap online probe
    /// of the 4-ary sift-down.
    #[inline]
    pub(super) fn heap_monotone(heap: &MinHeap, popped: Entry) {
        if let Some(top) = heap.peek() {
            assert!(
                !top.precedes(popped),
                "shadow-invariants: heap top {top:?} precedes the entry just popped {popped:?}"
            );
        }
    }

    /// Admissibility, observed online: the exact cost evaluated for a
    /// popped `KIND_BOUND` entry must not undercut the bound it was
    /// priced at (non-negative bound slack).
    #[inline]
    pub(super) fn bound_slack(bound: f64, exact: f64, a: usize, b: usize) {
        assert!(
            exact >= bound,
            "shadow-invariants: exact cost {exact} of ({a}, {b}) undercuts its lower bound \
             {bound}; the bound is inadmissible"
        );
    }

    /// Ring coverage, observed online: every candidate a ring sweep of
    /// leaf `x` gathers must have a pairwise bound at or above the popped
    /// expansion key that stood in for it. Exact, not approximate: IEEE
    /// rounding is monotone, so an admissible objective whose pairwise
    /// and at-distance bounds share one expression meets it to the bit.
    #[inline]
    pub(super) fn expansion_covers(key: f64, x: usize, cand: &[u32], bounds: &[f64]) {
        for (&y, &bound) in cand.iter().zip(bounds) {
            assert!(
                bound >= key,
                "shadow-invariants: bound {bound} of ({x}, {y}) undercuts the expansion key \
                 {key} that covered it; the at-distance bound is inadmissible"
            );
        }
    }

    /// Arena index consistency at a merge commit: partners below the new
    /// node, the new node inside the run's index budget.
    #[inline]
    pub(super) fn merge_indices(a: usize, b: usize, next: usize, total: usize) {
        assert!(
            a < b && b < next && next < total,
            "shadow-invariants: merge ({a}, {b}) -> {next} breaks index order (total {total})"
        );
    }

    /// The merged node's location must be finite — a NaN or infinite
    /// coordinate here poisons every later distance and bound.
    #[inline]
    pub(super) fn finite_location(loc: Point, node: usize) {
        assert!(
            loc.x.is_finite() && loc.y.is_finite(),
            "shadow-invariants: merged node {node} placed at non-finite ({}, {})",
            loc.x,
            loc.y
        );
    }
}

/// No-op twins of the shadow hooks: empty `#[inline]` functions that the
/// optimizer erases, keeping call sites unconditional.
#[cfg(not(feature = "shadow-invariants"))]
mod shadow {
    use super::{BoundColumns, Entry, MergeObjective, MinHeap, Point};

    #[inline]
    pub(super) fn live_mirror<O: MergeObjective>(
        _objective: &O,
        _live: &[u32],
        _live_pos: &[u32],
        _terms: &BoundColumns,
    ) {
    }

    #[inline]
    pub(super) fn heap_monotone(_heap: &MinHeap, _popped: Entry) {}

    #[inline]
    pub(super) fn bound_slack(_bound: f64, _exact: f64, _a: usize, _b: usize) {}

    #[inline]
    pub(super) fn expansion_covers(_key: f64, _x: usize, _cand: &[u32], _bounds: &[f64]) {}

    #[inline]
    pub(super) fn merge_indices(_a: usize, _b: usize, _next: usize, _total: usize) {}

    #[inline]
    pub(super) fn finite_location(_loc: Point, _node: usize) {}
}

/// Evaluates the exact cost of every pair on the calling thread,
/// appending `KIND_EXACT` entries to `out` (the exhaustive engine's batch
/// path).
fn evaluate_exact_pairs_into<O: MergeObjective>(
    objective: &O,
    pairs: &[(u32, u32)],
    out: &mut Vec<Entry>,
) {
    out.extend(pairs.iter().map(|&(a, b)| {
        let key = objective.cost(a as usize, b as usize);
        assert!(!key.is_nan(), "merge cost of ({a}, {b}) is NaN");
        Entry::new(key, KIND_EXACT, a, b)
    }));
}

/// The first `n` slots of the kernel output column, growing it only when
/// a batch outgrows every earlier one (stale values are overwritten by
/// the kernel, so nothing is zero-filled per batch).
fn out_column(bounds: &mut Vec<f64>, n: usize) -> &mut [f64] {
    if bounds.len() < n {
        bounds.resize(n, 0.0);
    }
    &mut bounds[..n]
}

/// Routes one priced batch of `center` — a ring batch, a post-merge
/// flood or a re-flood (`ids[i]` priced at `bounds[i]`). The cheapest
/// candidate goes straight to the heap (it is the candidate a greedy
/// commit will want, so parking it would only force a row reopen later).
/// The rest, up to the [`ROW_KEEP`] next cheapest (see
/// [`select_flood`]), are parked in a fresh slab row covered by a single
/// `KIND_DEFER` entry keyed at their minimum bound — an admissible stand-in for every parked pair, so
/// deferral never changes the committed merges. A longer batch is
/// truncated: the rest stay representable by the row's cutoff and are
/// re-priced when the row drains. A re-flood passes the `floor` of the
/// drained row it replaces, dropping every candidate at or below that
/// cutoff so re-floods stay disjoint from what earlier rows surfaced.
/// No parked candidate touches the heap until the row's key actually
/// surfaces; rows whose center merges first cost one lazy-deleted pop in
/// total.
#[allow(clippy::too_many_arguments)]
fn defer_flood(
    heap: &mut MinHeap,
    slab: &mut CandidateSlab,
    selbuf: &mut Vec<u128>,
    stats: &mut GreedyStats,
    center: u32,
    ids: &[u32],
    bounds: &[f64],
    floor: Option<(f64, u32)>,
) {
    let Some(row) = select_flood(center, ids, bounds, floor, selbuf) else {
        return;
    };
    push_bound(heap, center, row.lead.1, row.lead.0);
    let Some(&deferred_min) = selbuf.iter().min() else {
        // A truncated batch always stores ROW_KEEP candidates.
        debug_assert!(row.cutoff.is_none());
        return;
    };
    let row_id = slab.rows.len() as u32;
    debug_assert!(u64::from(row_id) <= INDEX_MASK);
    slab.rows.push(SlabRow {
        start: slab.items.len() as u32,
        len: selbuf.len() as u32,
        cutoff: row.cutoff,
        sorted: false,
    });
    slab.items.extend_from_slice(selbuf);
    stats.bounds_filtered += selbuf.len() as u64;
    heap.push(Entry::new(
        row_unkey(deferred_min).0,
        KIND_DEFER,
        center,
        row_id,
    ));
}

/// Candidates a truncated row keeps: the lead plus [`ROW_KEEP`] stored
/// ones.
const FLOOD_KEEP: usize = ROW_KEEP + 1;

/// Packs `(bound, partner)` into one integer whose unsigned order is
/// exactly the `(bound, partner)` order of the main heap's tie-break
/// (`total_cmp` on the bound, then the partner): the bound's bits,
/// remapped so that unsigned order is `f64::total_cmp` order (flip
/// every bit of a negative, only the sign bit of a positive), above the
/// partner in the low 32 bits.
fn row_key((key, y): (f64, u32)) -> u128 {
    let bits = key.to_bits();
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
    (u128::from(ordered) << 32) | u128::from(y)
}

/// Inverse of [`row_key`].
fn row_unkey(packed: u128) -> (f64, u32) {
    let ordered = (packed >> 32) as u64;
    let bits = ordered ^ ((!((ordered as i64) >> 63) as u64) | (1 << 63));
    (f64::from_bits(bits), packed as u32)
}

/// What [`select_flood`] chose from one priced batch.
#[derive(Clone, Copy, Debug, PartialEq)]
struct FloodRow {
    /// The cheapest candidate, which goes straight to the heap.
    lead: (f64, u32),
    /// The most expensive kept candidate, set only when the batch held
    /// more than [`FLOOD_KEEP`] candidates above the floor.
    cutoff: Option<(f64, u32)>,
}

/// Kept candidates [`select_flood`] buffers before it compacts the
/// buffer back to the [`FLOOD_KEEP`] least.
const SELECT_SPAN: usize = 2 * FLOOD_KEEP;

/// Candidates [`keep_cheapest`] screens per block against one limit.
const SCREEN_BLOCK: usize = 128;

/// Picks the [`FLOOD_KEEP`] least `(bound, partner)` candidates of a
/// priced batch (`ids[i]` priced at `bounds[i]`) strictly above `floor`,
/// as [`row_key`]s in `sel`. A ring batch or a first flood has no floor
/// and `ids` does not hold `center`; a re-flood has a floor, and the
/// center's own row in `ids` (the live set) is skipped. Returns `None`
/// when no candidate qualifies; otherwise the lead is removed from
/// `sel`, which is left holding the stored set.
///
/// The result is exactly that of a quickselect over the whole batch in
/// `(bound, partner)` order: the same lead, stored set, cutoff and
/// truncation flag, since `row_key` order is that order and every
/// partner is distinct.
fn select_flood(
    center: u32,
    ids: &[u32],
    bounds: &[f64],
    floor: Option<(f64, u32)>,
    sel: &mut Vec<u128>,
) -> Option<FloodRow> {
    sel.clear();
    let truncated = if let Some(floor) = floor {
        // Until its first compaction `keep_cheapest` keeps everything
        // above the floor: either `sel` holds every qualifying candidate,
        // or at least SELECT_SPAN of them qualified.
        let compacted = keep_cheapest(center, ids, bounds, row_key(floor), f64::INFINITY, sel);
        compacted || sel.len() > FLOOD_KEEP
    } else {
        debug_assert!(
            !ids.contains(&center),
            "an unfloored batch holds its center"
        );
        // No key packs to 0 (that would be a NaN), so nothing is floored.
        keep_cheapest(center, ids, bounds, 0, flood_limit(bounds), sel);
        ids.len() > FLOOD_KEEP
    };
    if sel.is_empty() {
        return None;
    }
    let max = if sel.len() > FLOOD_KEEP {
        keep_least(sel)
    } else {
        sel.iter().copied().fold(0, u128::max)
    };
    let cutoff = truncated.then(|| row_unkey(max));
    let mut lead_i = 0;
    for i in 1..sel.len() {
        if sel[i] < sel[lead_i] {
            lead_i = i;
        }
    }
    let lead = row_unkey(sel.swap_remove(lead_i));
    Some(FloodRow { lead, cutoff })
}

/// A bound at or above the [`FLOOD_KEEP`]-th least of an unfloored
/// batch, from one vectorizable pass over the column: the minima of the
/// [`SELECT_SPAN`] strided groups `{k, k + SELECT_SPAN, …}` are distinct
/// candidates, so at least `FLOOD_KEEP` candidates lie at or below the
/// `FLOOD_KEEP`-th least minimum, found by an integer select on the
/// minima's `total_cmp`-ordered bits. (The compare-select skips NaNs, so
/// a group of NaNs keeps its `+∞` start, which only loosens the limit.)
/// `+∞` for batches too short to fill every group.
fn flood_limit(bounds: &[f64]) -> f64 {
    if bounds.len() <= SELECT_SPAN {
        return f64::INFINITY;
    }
    let mut minima = [f64::INFINITY; SELECT_SPAN];
    let mut rows = bounds.chunks_exact(SELECT_SPAN);
    for row in &mut rows {
        for (m, &b) in minima.iter_mut().zip(row) {
            *m = if b < *m { b } else { *m };
        }
    }
    for (m, &b) in minima.iter_mut().zip(rows.remainder()) {
        *m = if b < *m { b } else { *m };
    }
    let mut keys = minima.map(|m| (row_key((m, 0)) >> 32) as u64);
    let (_, &mut limit, _) = keys.select_nth_unstable(FLOOD_KEEP - 1);
    row_unkey(u128::from(limit) << 32).0
}

/// Adds to `sel` the candidates of a batch that can still be among its
/// [`FLOOD_KEEP`] least strictly above `floor`, `center` skipped; returns
/// whether the buffer was ever compacted.
///
/// Each block of [`SCREEN_BLOCK`] bounds is first screened against
/// `limit_key` by a branch-free float compare that only collects the
/// survivors' offsets; `limit_key` must be at or above the `FLOOD_KEEP`-th
/// least qualifying bound. Survivors are packed and ordered exactly, and
/// every [`SELECT_SPAN`] kept ones the buffer is cut back to its
/// `FLOOD_KEEP` least, tightening the limit. A screened-out bound is
/// above the limit and so out of the running (and above the floor too,
/// which lies below every kept key); NaN, ties and signed zeros all pass
/// the screen to the exact integer order, where NaN is rejected.
fn keep_cheapest(
    center: u32,
    ids: &[u32],
    bounds: &[f64],
    floor: u128,
    mut limit_key: f64,
    sel: &mut Vec<u128>,
) -> bool {
    let mut limit = u128::MAX;
    let mut compacted = false;
    let mut survivors = [0_u32; SCREEN_BLOCK];
    for (ids, bounds) in ids.chunks(SCREEN_BLOCK).zip(bounds.chunks(SCREEN_BLOCK)) {
        let mut n = 0;
        for (j, &key) in bounds.iter().enumerate() {
            survivors[n] = j as u32;
            // NaN compares false, so it survives to be rejected below.
            n += 1 - usize::from(key > limit_key);
        }
        for &j in &survivors[..n] {
            let (y, key) = (ids[j as usize], bounds[j as usize]);
            if y == center {
                continue;
            }
            assert!(!key.is_nan(), "merge bound of ({y}, {center}) is NaN");
            let packed = row_key((key, y));
            if packed <= floor || packed >= limit {
                continue;
            }
            sel.push(packed);
            if sel.len() == SELECT_SPAN {
                limit = keep_least(sel);
                limit_key = row_unkey(limit).0;
                compacted = true;
            }
        }
    }
    compacted
}

/// Cuts `sel` (longer than [`FLOOD_KEEP`]) back to its `FLOOD_KEEP`
/// least keys and returns the largest of them.
fn keep_least(sel: &mut Vec<u128>) -> u128 {
    let (_, &mut max, _) = sel.select_nth_unstable(FLOOD_KEEP - 1);
    sel.truncate(FLOOD_KEEP);
    max
}

/// Pushes the `KIND_BOUND` entry of `(center, y)` in canonical `(lo, hi)`
/// orientation.
fn push_bound(heap: &mut MinHeap, center: u32, y: u32, key: f64) {
    let (lo, hi) = if y < center { (y, center) } else { (center, y) };
    heap.push(Entry::new(key, KIND_BOUND, lo, hi));
}

/// Heap key of leaf `x`'s next expansion entry, which stands in for every
/// pair of `x` not yet generated: those partners live in grid rings
/// `>= ring`, hence have locations at Manhattan distance at least
/// `(ring - 1) * cell` (clamped at 0: ring 0 is `x`'s own cell), and are
/// live leaves, hence at or above the live-leaf `floor` — an admissible
/// bound by the `cost_lower_bound_at_distance` contract. `None` once
/// every cell has been swept.
///
/// A leaf's location is the center of its merging region, and a
/// super-leaf (an ECO splice's survivor root) holds a segment reaching
/// its radius past that center, so the region distance the pairwise
/// bound uses can fall short of the center distance by `x`'s radius plus
/// the partner's. The ring distance is shrunk by `x`'s radius plus the
/// largest live radius (`-floor[2]`); both are 0 for point leaves, whose
/// keys stay exactly the plain ring distance's.
fn expansion_key<O: MergeObjective>(
    objective: &O,
    grid: &BucketGrid,
    x: usize,
    location: Point,
    ring: usize,
    floor: [f64; 3],
) -> Option<f64> {
    if ring > grid.max_ring(location) {
        return None;
    }
    let mut dist = grid.cell_size() * ring.saturating_sub(1) as f64;
    let reach = objective.bound_terms(x).radius() - floor[2];
    if reach > 0.0 {
        dist = (dist - reach).max(0.0);
    }
    let key = objective.cost_lower_bound_at_distance(x, dist, [floor[0], floor[1]]);
    assert!(!key.is_nan(), "expansion bound of leaf {x} is NaN");
    Some(key)
}

/// Runs the paper's greedy bottom-up merge loop: repeatedly merge the live
/// pair of minimum cost until a single root remains, returning the
/// resulting [`Topology`] with its [`GreedyStats`] and per-phase
/// [`GreedyProfile`].
///
/// This is the **pruned** engine: candidates start as cheap admissible
/// lower bounds generated from a bucket grid over the sink locations
/// (Edahiro \[3\]) in on-demand expansion rings, and the exact cost is
/// computed only when a bound surfaces at the top of the heap — i.e. only
/// when it is competitive with the best known exact cost. Every leaf
/// starts with one expansion entry at its own cell, so ring expansion is
/// the only candidate generator besides the post-merge floods. Candidate
/// batches (ring expansions, floods, re-floods) are priced by
/// the objective's columnar [`bound_kernel`](MergeObjective::bound_kernel)
/// — floods straight from a live-ordered mirror of the live nodes'
/// [`BoundTerms`] — and only each batch's cheapest candidate becomes a
/// heap entry. Up to 64 of the rest wait in a slab row covered by a
/// single deferred entry keyed at their minimum bound, released in small
/// batches only when that minimum becomes competitive with the center's
/// best known cost; a longer batch is truncated and re-priced when its
/// row drains (see docs/performance.md §Bound kernels and candidate
/// filtering). Best-first
/// search with admissible bounds commits exactly the merges of
/// [`run_greedy_exhaustive_with_scratch`], bit-identically (see
/// [`MergeObjective`]'s exactness contract), while evaluating a small
/// fraction of the exact costs.
///
/// `params` fixes whether the decision log is kept (every batch is
/// priced on the calling thread, so `params.threads` goes unread);
/// `scratch` is caller-owned, and on a warm scratch (second run of the
/// same size) the merge loop performs no heap allocations.
///
/// Reports phase spans, per-kind loop sub-phases (`greedy.ring` /
/// `greedy.defer` / `greedy.bound` / `greedy.merge`) and the
/// [`GreedyStats`] counters through [`Tracer::current`]. The merge loop
/// itself never calls the tracer: per-kind wall time is accumulated in
/// plain stack integers and emitted as aggregated
/// [`complete-span`](Tracer::complete_span) events after the loop's
/// allocation window closes, so `loop_allocs == 0` holds on a warm
/// scratch even under an **active** sink, and the committed merges are
/// the same at any tracing state.
///
/// # Errors
///
/// Returns [`CtsError::NoSinks`] when `num_leaves == 0`,
/// [`CtsError::CapacityExceeded`] when `2 * num_leaves - 1` overflows the
/// 31-bit node-index budget of the packed heap entries, and propagates
/// [`CtsError::MergeRegionDisjoint`] from the objective's `merge`.
///
/// # Panics
///
/// Panics if the objective returns a NaN cost or bound.
#[expect(
    clippy::expect_used,
    reason = "every live pair is covered by a bound, exact, expansion, or \
              deferred entry until one root remains (see the coverage \
              argument in docs/algorithms.md §Candidate pruning)"
)]
pub fn run_greedy_with_scratch<O: MergeObjective>(
    num_leaves: usize,
    objective: &mut O,
    params: &GreedyParams,
    scratch: &mut GreedyScratch,
) -> Result<(Topology, GreedyStats, GreedyProfile), CtsError> {
    let tracer = &Tracer::current();
    let mut stats = GreedyStats::default();
    let mut profile = GreedyProfile::default();
    if num_leaves == 0 {
        return Err(CtsError::NoSinks);
    }
    if num_leaves == 1 {
        return Ok((Topology::single_sink()?, stats, profile));
    }

    let _run = tracer.span("greedy.run");
    let seed_span_start = tracer.now_ns();
    let seed_start = Instant::now();
    let seed_allocs0 = alloc_count();
    // Checked before any storage is sized: past this limit the packed
    // heap tags and the u32 arena/tree columns would silently truncate
    // node indices, so the only safe answer is an error up front.
    let total = num_leaves.saturating_mul(2).saturating_sub(1);
    if total > NODE_INDEX_LIMIT {
        return Err(CtsError::CapacityExceeded {
            nodes: total,
            limit: NODE_INDEX_LIMIT,
        });
    }
    scratch.reset(total, num_leaves, true);
    let GreedyScratch {
        heap,
        alive,
        live,
        live_pos,
        live_terms,
        members,
        locations,
        merges,
        cand,
        cand_terms,
        bounds,
        best_seen,
        selbuf,
        slab,
        live_floor,
        decisions,
        ..
    } = scratch;

    locations.extend((0..num_leaves).map(|i| objective.location(i)));
    for leaf in 0..num_leaves {
        live_terms.push(objective.bound_terms(leaf));
    }
    let mut grid = BucketGrid::build(locations);
    live_floor.reset((0..num_leaves).map(|leaf| {
        let [static_floor, signal_floor] = objective.leaf_floor(leaf);
        [
            static_floor,
            signal_floor,
            -live_terms.rows().row(leaf).radius(),
        ]
    }));

    // Seed: one expansion entry per leaf at its own cell (ring 0, at
    // distance 0), standing in for every pair of the leaf; the merge
    // loop's ring sweeps generate all candidates from there.
    let seed_floor = live_floor.floor(alive);
    for (x, &loc) in locations.iter().enumerate() {
        if let Some(key) = expansion_key(&*objective, &grid, x, loc, 0, seed_floor) {
            heap.push(Entry::new(key, KIND_EXPAND, x as u32, 0));
        }
    }
    profile.seed_ms = seed_start.elapsed().as_secs_f64() * 1e3;
    profile.seed_allocs = alloc_count() - seed_allocs0;
    tracer.complete_span(
        "greedy.seed",
        seed_span_start,
        elapsed_ns(seed_start.elapsed()),
    );

    // Per-kind loop time, accumulated in stack integers so the measured
    // loop window stays free of tracer calls (and of their allocations).
    // Each iteration charges the interval since the previous pop to the
    // previous entry's kind — `continue`-safe, since the charge happens
    // at the *top* of the iteration.
    let trace_kinds = tracer.enabled();
    let mut kind_ns = [0_u64; 4];
    let mut last_kind: Option<u8> = None;
    let loop_span_start = tracer.now_ns();
    let loop_start = Instant::now();
    let mut t_last = loop_start;
    let loop_allocs0 = alloc_count();
    let mut next = num_leaves;
    // Compact the heap (drop lazily-deleted entries) whenever it doubles
    // past the last compacted size — amortized O(total work) while keeping
    // the heap within a constant factor of its live contents.
    let mut watermark = heap.len() * 2 + 1024;
    while next < total {
        if trace_kinds {
            let now = Instant::now();
            if let Some(k) = last_kind {
                kind_ns[k as usize] += elapsed_ns(now - t_last);
            }
            t_last = now;
        }
        let entry = heap.pop().expect("heap exhausted before root was formed");
        shadow::heap_monotone(heap, entry);
        stats.heap_pops += 1;
        last_kind = Some(entry.kind());
        let (a, b) = (entry.a(), entry.b());
        match entry.kind() {
            KIND_EXPAND => {
                let x = a as usize;
                if !alive[x] {
                    continue;
                }
                let mut ring = b as usize;
                // Gather several rings per pop. A ring whose expansion
                // key is below the next heap entry would pop right back
                // as the very next entry anyway, and one inside the
                // center's best known exact cost is all but certain to
                // pop before `x` merges; consuming those rings now — one
                // combined kernel batch and one slab row instead of a
                // pop/push cycle per ring — removes heap traffic without
                // changing the committed merges (pricing extra pairs at
                // admissible keys never can). A batch of fewer than
                // DEFER_BATCH candidates keeps gathering regardless, for
                // the reason deferred pops release that many: a pop that
                // yields one or two pairs would thrash the heap.
                let mut tau = heap.peek().map_or(entry.key, |top| entry.key.max(top.key));
                if best_seen[x].is_finite() {
                    tau = tau.max(best_seen[x]);
                }
                // The live set cannot change during this pop, so one
                // floor prices every ring it gathers.
                let ring_floor = live_floor.floor(alive);
                cand.clear();
                let mut gathered = 0_usize;
                let next_key = loop {
                    stats.ring_expansions += 1;
                    grid.ring_members(locations[x], ring, members);
                    cand.extend(
                        members
                            .iter()
                            .copied()
                            .filter(|&y| (y as usize) > x && alive[y as usize]),
                    );
                    gathered += 1;
                    ring += 1;
                    let next = expansion_key(&*objective, &grid, x, locations[x], ring, ring_floor);
                    match next {
                        Some(key)
                            if (key <= tau || cand.len() < DEFER_BATCH)
                                && gathered < RING_GATHER
                                && cand.len() < ROW_KEEP =>
                        {
                            continue;
                        }
                        _ => break next,
                    }
                };
                if !cand.is_empty() {
                    cand_terms.clear();
                    for &y in cand.iter() {
                        cand_terms.push(objective.bound_terms(y as usize));
                    }
                    let out = out_column(bounds, cand.len());
                    let center = objective.bound_terms(x);
                    objective.bound_kernel(&center, cand_terms.rows(), out);
                    shadow::expansion_covers(entry.key, x, cand, out);
                    stats.bound_batches += 1;
                    stats.bound_evals += cand.len() as u64;
                    defer_flood(heap, slab, selbuf, &mut stats, a, cand, out, None);
                }
                if let Some(key) = next_key {
                    heap.push(Entry::new(key, KIND_EXPAND, a, ring as u32));
                }
            }
            KIND_DEFER => {
                let center = a as usize;
                if !alive[center] {
                    continue; // lazy deletion
                }
                // Re-open the slab row: the popped key (the row's minimum
                // remaining bound) is now competitive. Sort the row on
                // first reopen, then release candidates in bound order —
                // up to the center's best known exact cost, and at least
                // DEFER_BATCH live candidates, so a row drained under
                // heap pressure doesn't thrash one pop per candidate —
                // and re-cover the remainder at its minimum bound.
                let mut row = slab.rows[b as usize];
                let items = &mut slab.items[row.start as usize..][..row.len as usize];
                if !row.sorted {
                    items.sort_unstable();
                    row.sorted = true;
                }
                let tau = if best_seen[center].is_finite() {
                    entry.key.max(best_seen[center])
                } else {
                    entry.key
                };
                let mut pushed = 0usize;
                let mut taken = 0usize;
                for &packed in items.iter() {
                    let (key, y) = row_unkey(packed);
                    if key > tau && pushed >= DEFER_BATCH {
                        break;
                    }
                    taken += 1;
                    if alive[y as usize] {
                        push_bound(heap, a, y, key);
                        pushed += 1;
                    }
                }
                stats.bounds_filtered -= pushed as u64;
                row.start += taken as u32;
                row.len -= taken as u32;
                slab.rows[b as usize] = row;
                if row.len > 0 {
                    let key = row_unkey(slab.items[row.start as usize]).0;
                    heap.push(Entry::new(key, KIND_DEFER, a, b));
                } else if let Some(cutoff) = row.cutoff {
                    // The stored prefix is spent but the batch this row
                    // came from was truncated: re-price the center
                    // against the current live set, keeping only
                    // candidates strictly above the recorded cutoff.
                    // Everything at or below it was either stored here
                    // or is covered by another entry (a younger node's
                    // flood row, or another ring of a leaf center), and
                    // the cutoff rises strictly per re-flood, so this
                    // converges. The live mirror holds the center
                    // too; its self-bound is priced and then skipped.
                    if live.len() > 1 {
                        shadow::live_mirror(&*objective, live, live_pos, live_terms);
                        let out = out_column(bounds, live.len());
                        let center_terms = live_terms.rows().row(live_pos[center] as usize);
                        objective.bound_kernel(&center_terms, live_terms.rows(), out);
                        stats.bound_batches += 1;
                        stats.bound_evals += live.len() as u64 - 1;
                        defer_flood(heap, slab, selbuf, &mut stats, a, live, out, Some(cutoff));
                    }
                }
            }
            KIND_BOUND => {
                let (x, y) = (a as usize, b as usize);
                if !alive[x] || !alive[y] {
                    continue; // lazy deletion
                }
                let key = objective.cost(x, y);
                stats.exact_cost_evals += 1;
                assert!(!key.is_nan(), "merge cost of ({x}, {y}) is NaN");
                shadow::bound_slack(entry.key, key, x, y);
                best_seen[x] = best_seen[x].min(key);
                best_seen[y] = best_seen[y].min(key);
                heap.push(Entry::new(key, KIND_EXACT, a, b));
            }
            _ => {
                let (x, y) = (a as usize, b as usize);
                if !alive[x] || !alive[y] {
                    continue; // lazy deletion
                }
                shadow::merge_indices(x, y, next, total);
                alive[x] = false;
                alive[y] = false;
                // Retire dead leaves from the bucket grid so later ring
                // sweeps skip their cells entirely.
                if x < num_leaves {
                    grid.mark_dead(x);
                }
                if y < num_leaves {
                    grid.mark_dead(y);
                }
                objective.merge(x, y, next)?;
                shadow::finite_location(objective.location(next), next);
                merges.push((x, y));
                if params.log_decisions {
                    decisions.push(MergeDecision {
                        a,
                        b,
                        node: next as u32,
                        key_bits: entry.key.to_bits(),
                    });
                }
                for dead in [x, y] {
                    let pos = live_pos[dead] as usize;
                    live.swap_remove(pos);
                    live_terms.swap_remove(pos);
                    if let Some(&moved) = live.get(pos) {
                        live_pos[moved as usize] = pos as u32;
                    }
                }
                // Flood: price the new node against the whole live set in
                // one streaming kernel pass over the live mirror and keep
                // the cheapest of the batch in the slab. Nothing reaches
                // the heap unless the row's minimum bound becomes
                // competitive before the new node itself merges.
                let next_terms = objective.bound_terms(next);
                if !live.is_empty() {
                    shadow::live_mirror(&*objective, live, live_pos, live_terms);
                    let out = out_column(bounds, live.len());
                    objective.bound_kernel(&next_terms, live_terms.rows(), out);
                    stats.bound_batches += 1;
                    stats.bound_evals += live.len() as u64;
                    defer_flood(heap, slab, selbuf, &mut stats, next as u32, live, out, None);
                }
                alive[next] = true;
                live_pos[next] = live.len() as u32;
                live.push(next as u32);
                live_terms.push(next_terms);
                next += 1;
                if heap.len() > watermark {
                    heap.retain_live(alive);
                    watermark = heap.len() * 2 + 1024;
                }
            }
        }
    }
    profile.loop_ms = loop_start.elapsed().as_secs_f64() * 1e3;
    profile.loop_allocs = alloc_count() - loop_allocs0;
    if trace_kinds {
        if let Some(k) = last_kind {
            kind_ns[k as usize] += elapsed_ns(t_last.elapsed());
        }
        // The loop's allocation window is closed; events may allocate now.
        tracer.complete_span(
            "greedy.loop",
            loop_span_start,
            elapsed_ns(loop_start.elapsed()),
        );
        // Aggregated per-kind sub-phases, laid out back to back inside the
        // loop interval so a Chrome-trace viewer shows their proportions.
        let mut at = loop_span_start;
        for (name, ns) in [
            ("greedy.ring", kind_ns[KIND_EXPAND as usize]),
            ("greedy.defer", kind_ns[KIND_DEFER as usize]),
            ("greedy.bound", kind_ns[KIND_BOUND as usize]),
            ("greedy.merge", kind_ns[KIND_EXACT as usize]),
        ] {
            tracer.complete_span(name, at, ns);
            at = at.saturating_add(ns);
        }
        emit_greedy_counters(tracer, &stats, &profile);
    }

    Ok((Topology::from_merges(num_leaves, merges)?, stats, profile))
}

/// Reports the [`GreedyStats`] counters and the profile's allocation
/// counts through `tracer` (names under `greedy.`; see
/// `docs/observability.md`).
fn emit_greedy_counters(tracer: &Tracer, stats: &GreedyStats, profile: &GreedyProfile) {
    tracer.counter("greedy.exact_cost_evals", stats.exact_cost_evals as f64);
    tracer.counter("greedy.bound_evals", stats.bound_evals as f64);
    tracer.counter("greedy.ring_expansions", stats.ring_expansions as f64);
    tracer.counter("greedy.heap_pops", stats.heap_pops as f64);
    tracer.counter("greedy.bound_batches", stats.bound_batches as f64);
    tracer.counter("greedy.bounds_filtered", stats.bounds_filtered as f64);
    tracer.counter("greedy.seed_allocs", profile.seed_allocs as f64);
    tracer.counter("greedy.loop_allocs", profile.loop_allocs as f64);
}

/// The pre-pruning engine: evaluates the exact cost of **every** live pair
/// (~N²/2 initial candidates plus a full live-set sweep per merge). Kept
/// as the reference implementation for [`run_greedy_checked`], the
/// property tests, and the `BENCH_greedy` baselines. Takes the same
/// `params` and caller-owned `scratch` as [`run_greedy_with_scratch`]
/// (every batch, the all-pairs seed included, is priced on the calling
/// thread, so `params.threads` goes unread), and reports through
/// [`Tracer::current`] (outer span `greedy.exhaustive`, phases
/// `greedy.seed` / `greedy.loop`).
///
/// # Errors
///
/// As [`run_greedy_with_scratch`].
///
/// # Panics
///
/// As [`run_greedy_with_scratch`].
#[expect(
    clippy::expect_used,
    reason = "the heap holds a candidate for every live pair until one root remains"
)]
pub fn run_greedy_exhaustive_with_scratch<O: MergeObjective>(
    num_leaves: usize,
    objective: &mut O,
    params: &GreedyParams,
    scratch: &mut GreedyScratch,
) -> Result<(Topology, GreedyStats, GreedyProfile), CtsError> {
    let tracer = &Tracer::current();
    let mut stats = GreedyStats::default();
    let mut profile = GreedyProfile::default();
    if num_leaves == 0 {
        return Err(CtsError::NoSinks);
    }
    if num_leaves == 1 {
        return Ok((Topology::single_sink()?, stats, profile));
    }

    let _run = tracer.span("greedy.exhaustive");
    let seed_span_start = tracer.now_ns();
    let seed_start = Instant::now();
    let seed_allocs0 = alloc_count();
    // Checked before any storage is sized: past this limit the packed
    // heap tags and the u32 arena/tree columns would silently truncate
    // node indices, so the only safe answer is an error up front.
    let total = num_leaves.saturating_mul(2).saturating_sub(1);
    if total > NODE_INDEX_LIMIT {
        return Err(CtsError::CapacityExceeded {
            nodes: total,
            limit: NODE_INDEX_LIMIT,
        });
    }
    scratch.reset(total, num_leaves, false);
    let GreedyScratch {
        heap,
        alive,
        live,
        batch,
        entries,
        merges,
        decisions,
        ..
    } = scratch;

    // Initial candidate set: all leaf pairs, evaluated, then heapified in
    // one shot.
    for i in 0..num_leaves {
        for j in (i + 1)..num_leaves {
            batch.push((i as u32, j as u32));
        }
    }
    stats.exact_cost_evals += batch.len() as u64;
    evaluate_exact_pairs_into(&*objective, batch, &mut heap.data);
    heap.rebuild();
    profile.seed_ms = seed_start.elapsed().as_secs_f64() * 1e3;
    profile.seed_allocs = alloc_count() - seed_allocs0;
    tracer.complete_span(
        "greedy.seed",
        seed_span_start,
        elapsed_ns(seed_start.elapsed()),
    );

    let loop_span_start = tracer.now_ns();
    let loop_start = Instant::now();
    let loop_allocs0 = alloc_count();
    let mut next = num_leaves;
    while next < total {
        let entry = heap.pop().expect("heap exhausted before root was formed");
        shadow::heap_monotone(heap, entry);
        stats.heap_pops += 1;
        let (a, b) = (entry.a() as usize, entry.b() as usize);
        if !alive[a] || !alive[b] {
            continue; // lazy deletion
        }
        alive[a] = false;
        alive[b] = false;
        objective.merge(a, b, next)?;
        merges.push((a, b));
        if params.log_decisions {
            decisions.push(MergeDecision {
                a: entry.a(),
                b: entry.b(),
                node: next as u32,
                key_bits: entry.key.to_bits(),
            });
        }
        live.retain(|&n| alive[n as usize]);
        batch.clear();
        batch.extend(live.iter().map(|&n| (n, next as u32)));
        stats.exact_cost_evals += batch.len() as u64;
        entries.clear();
        evaluate_exact_pairs_into(&*objective, batch, entries);
        for &e in &*entries {
            heap.push(e);
        }
        alive[next] = true;
        live.push(next as u32);
        next += 1;
    }
    profile.loop_ms = loop_start.elapsed().as_secs_f64() * 1e3;
    profile.loop_allocs = alloc_count() - loop_allocs0;
    if tracer.enabled() {
        tracer.complete_span(
            "greedy.loop",
            loop_span_start,
            elapsed_ns(loop_start.elapsed()),
        );
        emit_greedy_counters(tracer, &stats, &profile);
    }

    Ok((Topology::from_merges(num_leaves, merges)?, stats, profile))
}

/// `ExhaustiveCheck` debug mode: runs **both** engines on clones of the
/// same objective, asserts their decision logs are **bit-identical** —
/// same merge order, same partners, same winning keys down to the `f64`
/// bits, a strictly stronger check than topology equality — and returns
/// the pruned run's topology and decision log. Meant for tests and
/// debugging sessions: it deliberately pays the exhaustive engine's full
/// cost. The log feeds the `determinism` verifier pass and the per-merge
/// scoped verification in `gcr-verify` (which owns the tree-level
/// replay, since the verifier depends on this crate and not vice versa).
///
/// # Errors
///
/// As [`run_greedy_with_scratch`].
///
/// # Panics
///
/// Panics when the pruned topology or decision log differs from the
/// exhaustive one, i.e. when an objective violates the admissibility
/// contract.
pub fn run_greedy_checked<O: MergeObjective + Clone>(
    num_leaves: usize,
    objective: &mut O,
) -> Result<(Topology, Vec<MergeDecision>), CtsError> {
    let params = GreedyParams {
        log_decisions: true,
        ..GreedyParams::default()
    };
    let mut reference = objective.clone();
    let mut scratch = GreedyScratch::new();
    let (expected, _, _) =
        run_greedy_exhaustive_with_scratch(num_leaves, &mut reference, &params, &mut scratch)?;
    let expected_log = scratch.take_decisions();
    let (topology, _, _) = run_greedy_with_scratch(num_leaves, objective, &params, &mut scratch)?;
    let log = scratch.take_decisions();
    assert_eq!(
        topology, expected,
        "pruned greedy diverged from the exhaustive engine: inadmissible bound?"
    );
    assert_eq!(
        canonical_decision_log(&log),
        canonical_decision_log(&expected_log),
        "pruned and exhaustive topologies agree but the decision logs differ"
    );
    Ok((topology, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::PointObjective;

    /// The pruned engine on a cold scratch with default params.
    fn run_pruned<O: MergeObjective>(
        n: usize,
        objective: &mut O,
    ) -> Result<(Topology, GreedyStats), CtsError> {
        let mut scratch = GreedyScratch::new();
        run_greedy_with_scratch(n, objective, &GreedyParams::default(), &mut scratch)
            .map(|(topology, stats, _)| (topology, stats))
    }

    /// The exhaustive engine on a cold scratch with default params.
    fn run_exhaustive<O: MergeObjective>(
        n: usize,
        objective: &mut O,
    ) -> Result<(Topology, GreedyStats), CtsError> {
        let mut scratch = GreedyScratch::new();
        run_greedy_exhaustive_with_scratch(n, objective, &GreedyParams::default(), &mut scratch)
            .map(|(topology, stats, _)| (topology, stats))
    }

    #[test]
    fn merges_closest_pairs_first() {
        // Two tight clusters far apart: the first two merges must be
        // intra-cluster.
        let mut obj = PointObjective {
            points: vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(100.0, 0.0),
                Point::new(101.0, 0.0),
            ],
        };
        let topo = run_pruned(4, &mut obj).unwrap().0;
        // Nodes 4 and 5 are the cluster merges; the root merges them.
        assert_eq!(
            topo.node(4),
            crate::TopoNode::Internal { left: 0, right: 1 }
        );
        assert_eq!(
            topo.node(5),
            crate::TopoNode::Internal { left: 2, right: 3 }
        );
        assert_eq!(
            topo.node(6),
            crate::TopoNode::Internal { left: 4, right: 5 }
        );
    }

    #[test]
    fn produces_valid_topology_for_various_sizes() {
        for n in [1usize, 2, 3, 7, 16, 33] {
            let mut obj = PointObjective {
                points: (0..n)
                    .map(|i| Point::new((i * 13 % 97) as f64, (i * 29 % 83) as f64))
                    .collect(),
            };
            let topo = run_pruned(n, &mut obj).unwrap().0;
            assert_eq!(topo.num_leaves(), n);
            assert_eq!(topo.len(), 2 * n - 1);
            assert_eq!(topo.subtree_sizes()[topo.root()], n);
        }
    }

    #[test]
    fn zero_sinks_is_an_error() {
        let mut obj = PointObjective { points: vec![] };
        assert_eq!(run_pruned(0, &mut obj).unwrap_err(), CtsError::NoSinks);
        let mut obj = PointObjective { points: vec![] };
        assert_eq!(run_exhaustive(0, &mut obj).unwrap_err(), CtsError::NoSinks);
    }

    #[test]
    fn oversized_designs_error_before_any_work() {
        // Past the 31-bit node budget both engines must refuse up front;
        // the check runs before the objective is ever consulted, so an
        // empty point store is fine.
        let n = (1usize << 30) + 1;
        let expected = CtsError::CapacityExceeded {
            nodes: 2 * n - 1,
            limit: NODE_INDEX_LIMIT,
        };
        let mut obj = PointObjective { points: vec![] };
        assert_eq!(run_pruned(n, &mut obj).unwrap_err(), expected);
        let mut obj = PointObjective { points: vec![] };
        assert_eq!(run_exhaustive(n, &mut obj).unwrap_err(), expected);
    }

    #[test]
    fn deterministic_under_ties() {
        // Four corners of a square: all intra-side distances tie; the
        // tie-break on indices must make runs reproducible.
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
        ];
        let run = || {
            let mut obj = PointObjective {
                points: points.clone(),
            };
            run_pruned(4, &mut obj).unwrap().0
        };
        assert_eq!(run(), run());
    }

    /// The pruned engine must commit the exact same merges as the
    /// exhaustive engine — including on highly degenerate (tied, collinear,
    /// coincident) inputs.
    #[test]
    fn pruned_matches_exhaustive_on_assorted_layouts() {
        let layouts: Vec<Vec<Point>> = vec![
            // Pseudo-random scatter.
            (0..97)
                .map(|i| Point::new(f64::from(i * 131 % 1009), f64::from(i * 197 % 977)))
                .collect(),
            // Degenerate: everything on one horizontal line.
            (0..40)
                .map(|i| Point::new(f64::from(i * i % 211), 0.0))
                .collect(),
            // Degenerate: many coincident points.
            (0..24).map(|i| Point::new(f64::from(i % 3), 0.0)).collect(),
            // Tiny instances.
            vec![Point::new(3.0, 4.0), Point::new(5.0, 6.0)],
            vec![Point::ORIGIN; 2],
        ];
        for points in layouts {
            let n = points.len();
            let mut pruned_obj = PointObjective {
                points: points.clone(),
            };
            let mut exhaustive_obj = PointObjective { points };
            let (pruned, stats) = run_pruned(n, &mut pruned_obj).unwrap();
            let (exhaustive, ref_stats) = run_exhaustive(n, &mut exhaustive_obj).unwrap();
            assert_eq!(pruned, exhaustive, "n = {n}");
            assert!(
                stats.exact_cost_evals <= ref_stats.exact_cost_evals,
                "pruning must not evaluate more exact costs: {stats:?} vs {ref_stats:?}"
            );
        }
    }

    /// On a large scattered instance the pruned engine must do far fewer
    /// exact evaluations — here at least 5x fewer.
    #[test]
    fn pruning_cuts_exact_evaluations() {
        let points: Vec<Point> = (0..300)
            .map(|i| Point::new(f64::from(i * 131 % 10_007), f64::from(i * 197 % 9_973)))
            .collect();
        let mut pruned_obj = PointObjective {
            points: points.clone(),
        };
        let mut exhaustive_obj = PointObjective { points };
        let (pruned, stats) = run_pruned(300, &mut pruned_obj).unwrap();
        let (exhaustive, ref_stats) = run_exhaustive(300, &mut exhaustive_obj).unwrap();
        assert_eq!(pruned, exhaustive);
        assert!(
            stats.exact_cost_evals * 5 <= ref_stats.exact_cost_evals,
            "expected >=5x fewer exact evals, got {} vs {}",
            stats.exact_cost_evals,
            ref_stats.exact_cost_evals
        );
        assert!(stats.ring_expansions > 0);
    }

    #[test]
    fn checked_mode_validates_equivalence() {
        let mut obj = PointObjective {
            points: (0..50)
                .map(|i| Point::new(f64::from(i * 37 % 199), f64::from(i * 53 % 211)))
                .collect(),
        };
        let (topo, _) = run_greedy_checked(50, &mut obj).unwrap();
        assert_eq!(topo.num_leaves(), 50);
    }

    /// The decision log records exactly the committed merges, in order,
    /// canonically oriented, and bit-identically across both engines.
    #[test]
    fn decision_log_is_canonical_and_engine_independent() {
        let obj = PointObjective {
            points: (0..40)
                .map(|i| Point::new(f64::from(i * 37 % 199), f64::from(i * 53 % 211)))
                .collect(),
        };
        let params = GreedyParams {
            log_decisions: true,
            ..GreedyParams::default()
        };
        let mut scratch = GreedyScratch::new();
        let mut pruned_obj = obj.clone();
        let (topo, _, _) =
            run_greedy_with_scratch(40, &mut pruned_obj, &params, &mut scratch).unwrap();
        let pruned_log = scratch.take_decisions();
        let mut exhaustive_obj = obj.clone();
        let (_, _, _) =
            run_greedy_exhaustive_with_scratch(40, &mut exhaustive_obj, &params, &mut scratch)
                .unwrap();
        let exhaustive_log = scratch.take_decisions();

        assert_eq!(pruned_log.len(), 39, "one record per committed merge");
        for (i, d) in pruned_log.iter().enumerate() {
            assert_eq!(d.node as usize, 40 + i, "nodes are created in order");
            assert!(d.a < d.b, "partners are canonically oriented");
            assert!(d.b < d.node, "partners precede the node they form");
            assert!(d.key().is_finite());
        }
        assert_eq!(
            pruned_log, exhaustive_log,
            "decision logs are bit-identical"
        );
        let text = canonical_decision_log(&pruned_log);
        assert_eq!(text.lines().count(), 39);
        assert!(text.starts_with("merge v40 <- "), "{text}");
        assert_eq!(topo.num_leaves(), 40);
    }

    /// Without the flag the log stays empty — no branch taken, nothing
    /// recorded, identical committed merges.
    #[test]
    fn decision_log_is_off_by_default() {
        let mut obj = PointObjective {
            points: (0..20)
                .map(|i| Point::new(f64::from(i * 13 % 71), f64::from(i * 29 % 83)))
                .collect(),
        };
        let mut scratch = GreedyScratch::new();
        let (_, _, _) =
            run_greedy_with_scratch(20, &mut obj, &GreedyParams::default(), &mut scratch).unwrap();
        assert!(scratch.decisions().is_empty());
    }

    /// `run_greedy_checked` returns the log the plain flag-driven
    /// run would have produced.
    #[test]
    fn checked_logged_returns_the_pruned_log() {
        let mut obj = PointObjective {
            points: (0..24)
                .map(|i| Point::new(f64::from(i * 41 % 113), f64::from(i * 59 % 127)))
                .collect(),
        };
        let (topo, log) = run_greedy_checked(24, &mut obj).unwrap();
        assert_eq!(topo.num_leaves(), 24);
        assert_eq!(log.len(), 23);
    }

    /// With the feature on, a clean objective sails through every shadow
    /// hook; an objective with an inadmissible bound trips the online
    /// bound-slack check *during* the run, before the checked-mode
    /// topology diff would see it.
    #[cfg(feature = "shadow-invariants")]
    mod shadow_feature {
        use super::*;

        #[test]
        fn clean_run_passes_all_shadow_hooks() {
            let mut obj = PointObjective {
                points: (0..60)
                    .map(|i| Point::new(f64::from(i * 37 % 199), f64::from(i * 53 % 211)))
                    .collect(),
            };
            let topo = run_pruned(60, &mut obj).unwrap().0;
            assert_eq!(topo.num_leaves(), 60);
        }

        #[test]
        #[should_panic(expected = "shadow-invariants")]
        fn inadmissible_bound_trips_the_online_slack_check() {
            #[derive(Clone)]
            struct Lying(PointObjective);
            impl MergeObjective for Lying {
                fn cost(&self, a: usize, b: usize) -> f64 {
                    self.0.cost(a, b)
                }
                fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
                    self.0.cost(a, b) + 1.0 // overshoots every exact cost
                }
                fn bound_terms(&self, node: usize) -> BoundTerms {
                    self.0.bound_terms(node)
                }
                fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
                    rows.price(center, out, |d, _| d + 1.0);
                }
                fn cost_lower_bound_at_distance(
                    &self,
                    _node: usize,
                    dist: f64,
                    _floor: [f64; 2],
                ) -> f64 {
                    dist
                }
                fn location(&self, node: usize) -> Point {
                    self.0.location(node)
                }
                fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
                    self.0.merge(a, b, k)
                }
            }
            let mut obj = Lying(PointObjective {
                points: (0..12)
                    .map(|i| Point::new(f64::from(i * 31 % 89), f64::from(i * 17 % 97)))
                    .collect(),
            });
            let _ = run_pruned(12, &mut obj);
        }

        /// A ring key that overshoots the pairwise bounds of the partners
        /// its sweep then gathers trips the coverage check at that sweep.
        /// Every exact cost carries a large constant, so the ring entries
        /// (still admissible against the exact costs) pop while most
        /// leaves are alive and the engine sweeps rings instead of the
        /// live set.
        #[test]
        #[should_panic(expected = "undercuts the expansion key")]
        fn inadmissible_ring_bound_trips_the_coverage_check() {
            #[derive(Clone)]
            struct Overreaching(PointObjective);
            impl MergeObjective for Overreaching {
                fn cost(&self, a: usize, b: usize) -> f64 {
                    self.0.cost(a, b) + 1e9
                }
                fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
                    self.0.cost(a, b)
                }
                fn bound_terms(&self, node: usize) -> BoundTerms {
                    self.0.bound_terms(node)
                }
                fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
                    self.0.bound_kernel(center, rows, out);
                }
                fn cost_lower_bound_at_distance(
                    &self,
                    _node: usize,
                    dist: f64,
                    _floor: [f64; 2],
                ) -> f64 {
                    3.0 * dist // prices ring partners as if three times farther
                }
                fn location(&self, node: usize) -> Point {
                    self.0.location(node)
                }
                fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
                    self.0.merge(a, b, k)
                }
            }
            let n = 400;
            let mut obj = Overreaching(PointObjective {
                points: (0..n)
                    .map(|i| Point::new(f64::from(i * 37 % 1009), f64::from(i * 53 % 997)))
                    .collect(),
            });
            let _ = run_pruned(n as usize, &mut obj);
        }
    }

    /// Leaves `0..floors.len()` with the given floor terms.
    fn live_floor_over(floors: &[[f64; 2]]) -> LiveFloor<2> {
        let mut floor = LiveFloor::default();
        floor.reset(floors.iter().copied());
        floor
    }

    #[test]
    fn live_floor_skips_dead_leaves() {
        // Each term's minimum sits on a different leaf; ties resolve by
        // index, so killing leaf 1 exposes leaf 3's equal static term.
        let floors = [[4.0, 0.5], [1.0, 0.9], [3.0, 0.2], [1.0, 0.7]];
        let mut floor = live_floor_over(&floors);
        let mut alive = vec![true; floors.len()];
        assert_eq!(floor.floor(&alive), [1.0, 0.2]);
        alive[1] = false;
        alive[2] = false;
        assert_eq!(floor.floor(&alive), [1.0, 0.5]);
        alive[3] = false;
        assert_eq!(floor.floor(&alive), [4.0, 0.5]);
    }

    #[test]
    fn live_floor_is_finite_while_any_leaf_lives() {
        let n = 50_usize;
        let floors: Vec<[f64; 2]> = (0..n)
            .map(|i| [((i * 7) % 13) as f64, ((i * 11) % 17) as f64 / 17.0])
            .collect();
        let mut floor = live_floor_over(&floors);
        let mut alive = vec![true; n];
        // Kill leaves in an order unrelated to either term's order.
        for step in 0..n {
            let want = (0..n)
                .filter(|&i| alive[i])
                .fold([f64::INFINITY; 2], |m, i| {
                    [m[0].min(floors[i][0]), m[1].min(floors[i][1])]
                });
            let got = floor.floor(&alive);
            assert!(got.iter().all(|t| t.is_finite()), "step {step}: {got:?}");
            assert_eq!(got, want, "step {step}");
            alive[(step * 23) % n] = false;
        }
        assert_eq!(floor.floor(&alive), [f64::INFINITY; 2]);
    }

    /// An inadmissible bound must be caught by the checked mode (or, with
    /// `shadow-invariants` on, by the online slack check even earlier —
    /// both panics name the inadmissible bound).
    #[test]
    #[should_panic(expected = "inadmissible")]
    fn checked_mode_catches_inadmissible_bounds() {
        #[derive(Clone)]
        struct Lying(PointObjective);
        impl MergeObjective for Lying {
            fn cost(&self, a: usize, b: usize) -> f64 {
                self.0.cost(a, b)
            }
            fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
                // Inverts the ordering: near pairs get huge "bounds".
                1e9 - self.0.cost(a, b)
            }
            fn bound_terms(&self, node: usize) -> BoundTerms {
                self.0.bound_terms(node)
            }
            fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
                rows.price(center, out, |d, _| 1e9 - d);
            }
            fn cost_lower_bound_at_distance(
                &self,
                _node: usize,
                _dist: f64,
                _floor: [f64; 2],
            ) -> f64 {
                1e9
            }
            fn location(&self, node: usize) -> Point {
                self.0.location(node)
            }
            fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
                self.0.merge(a, b, k)
            }
        }
        let mut obj = Lying(PointObjective {
            points: (0..12)
                .map(|i| Point::new(f64::from(i * 31 % 89), f64::from(i * 17 % 97)))
                .collect(),
        });
        let _ = run_greedy_checked(12, &mut obj);
    }

    /// `(bound, partner)` order — the same `(key, index)` tie-break the
    /// main heap uses — that [`row_key`] packs into one integer.
    fn row_lt(p: (f64, u32), q: (f64, u32)) -> bool {
        p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)).is_lt()
    }

    /// Non-NaN keys the packed order must get right, edge values first.
    fn edge_key() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::MIN_POSITIVE),
            Just(-f64::MIN_POSITIVE),
            Just(f64::from_bits(1)),
            Just(-f64::from_bits(1)),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MAX),
            Just(f64::MIN),
            Just(1.0),
            any::<f64>(),
            // Any bit pattern, with NaNs folded onto the infinities.
            any::<u64>().prop_map(|w| {
                let x = f64::from_bits(w);
                if x.is_nan() {
                    f64::INFINITY.copysign(x)
                } else {
                    x
                }
            }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(2_000))]

        /// Packed row keys sort exactly as `row_lt` and unpack bitwise.
        #[test]
        fn row_key_order_is_row_lt_order(
            p in (edge_key(), proptest::prelude::any::<u32>()),
            q in (edge_key(), proptest::prelude::any::<u32>()),
        ) {
            proptest::prop_assert_eq!(row_key(p) < row_key(q), row_lt(p, q));
            proptest::prop_assert_eq!(row_key(q) < row_key(p), row_lt(q, p));
            for x in [p, q] {
                let (key, y) = row_unkey(row_key(x));
                proptest::prop_assert_eq!((key.to_bits(), y), (x.0.to_bits(), x.1));
            }
        }
    }

    /// The per-batch quickselect `select_flood` replaced, kept as its
    /// oracle: stage every candidate above the floor, select the
    /// `ROW_KEEP + 1` least under `row_lt`, and take the least as the lead
    /// and the pivot as the cutoff. It returns the lead, the stored set
    /// (sorted) and the cutoff. One deliberate difference from the old
    /// engine: without a floor it drops nothing, where the old sentinel
    /// floor `(−∞, 0)` silently dropped a `(−∞, 0)` candidate.
    fn quickselect_oracle(
        center: u32,
        ids: &[u32],
        bounds: &[f64],
        floor: Option<(f64, u32)>,
    ) -> Selection {
        let below_floor = |key: f64, y: u32| {
            floor.is_some_and(|(fkey, fy)| key <= fkey && !row_lt((fkey, fy), (key, y)))
        };
        let mut selbuf: Vec<(f64, u32)> = ids
            .iter()
            .zip(bounds)
            .map(|(&y, &key)| (key, y))
            .filter(|&(key, y)| y != center && !below_floor(key, y))
            .collect();
        if selbuf.is_empty() {
            return None;
        }
        let truncated = selbuf.len() > ROW_KEEP + 1;
        let mut cutoff = None;
        if truncated {
            selbuf.select_nth_unstable_by(ROW_KEEP, |p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
            cutoff = Some(selbuf[ROW_KEEP]);
            selbuf.truncate(ROW_KEEP + 1);
        }
        let mut best_i = 0;
        for i in 1..selbuf.len() {
            if row_lt(selbuf[i], selbuf[best_i]) {
                best_i = i;
            }
        }
        let lead = selbuf.swap_remove(best_i);
        selbuf.sort_by(|p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
        Some((lead, selbuf, cutoff))
    }

    /// `select_flood`'s answer in the oracle's form.
    fn streamed(center: u32, ids: &[u32], bounds: &[f64], floor: Option<(f64, u32)>) -> Selection {
        let mut sel = Vec::new();
        let row = select_flood(center, ids, bounds, floor, &mut sel)?;
        let mut stored: Vec<(f64, u32)> = sel.into_iter().map(row_unkey).collect();
        stored.sort_by(|p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
        Some((row.lead, stored, row.cutoff))
    }

    /// A flood row's selection: lead, sorted stored set and cutoff.
    type Selection = Option<((f64, u32), Vec<(f64, u32)>, Option<(f64, u32)>)>;

    /// Bitwise view of a selection, so `-0.0` and `0.0` differ.
    type Bits = Option<((u64, u32), Vec<(u64, u32)>, Option<(u64, u32)>)>;

    fn bits(sel: Selection) -> Bits {
        let b = |(k, y): (f64, u32)| (k.to_bits(), y);
        sel.map(|(lead, stored, cutoff)| {
            (b(lead), stored.into_iter().map(b).collect(), cutoff.map(b))
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(400))]

        /// Streamed truncation equals the quickselect oracle — lead,
        /// stored set, cutoff and truncation flag — on batches around the
        /// row size and on long ones, with duplicate and edge keys, first
        /// floods (no floor, center absent) and re-floods (a floor from
        /// the batch, the center's own row present).
        #[test]
        fn streamed_truncation_matches_quickselect(
            len in proptest::prop_oneof![
                proptest::strategy::Just(0_usize),
                proptest::strategy::Just(1),
                proptest::strategy::Just(ROW_KEEP),
                proptest::strategy::Just(ROW_KEEP + 1),
                proptest::strategy::Just(ROW_KEEP + 2),
                proptest::strategy::Just(2 * ROW_KEEP + 3),
                900_usize..1100,
            ],
            seed in proptest::prelude::any::<u64>(),
            pool in 1_usize..40,
            refloor in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = proptest::test_runner::TestRng::seeded(seed);
            // Keys drawn from a small pool repeat; edge keys mix in.
            let keys: Vec<f64> = (0..pool)
                .map(|i| match i % 5 {
                    0 => [0.0, -0.0, f64::INFINITY, f64::from_bits(1), f64::MAX][rng.index(5)],
                    _ => (rng.next_u64() % 1_000) as f64 * 0.25,
                })
                .collect();
            let mut ids: Vec<u32> = (0..len as u32).map(|i| i * 7 + 3).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.index(i + 1));
            }
            let bounds: Vec<f64> = (0..len).map(|_| keys[rng.index(pool)]).collect();
            let (center, floor) = if refloor && len > 0 {
                let at = rng.index(len);
                let floor = (bounds[at], ids[at]);
                (ids[rng.index(len)], Some(floor))
            } else {
                (1, None)
            };
            proptest::prop_assert_eq!(
                bits(streamed(center, &ids, &bounds, floor)),
                bits(quickselect_oracle(center, &ids, &bounds, floor))
            );
        }
    }

    /// The one place the streamed selection departs from the old
    /// quickselect: a first flood keeps a `(−∞, 0)` candidate that the
    /// old sentinel floor silently dropped, leaving its pair uncovered.
    #[test]
    fn unfloored_flood_keeps_every_candidate() {
        let ids = [0_u32, 5, 9];
        let bounds = [f64::NEG_INFINITY, 1.0, 2.0];
        let (lead, stored, cutoff) = streamed(7, &ids, &bounds, None).unwrap();
        assert_eq!(lead.1, 0);
        assert_eq!(lead.0, f64::NEG_INFINITY);
        assert_eq!(stored, vec![(1.0, 5), (2.0, 9)]);
        assert_eq!(cutoff, None);
    }

    /// The packed tag must order exactly like the `(kind, a, b)` triple.
    #[test]
    fn packed_tag_roundtrips_and_orders_lexicographically() {
        let samples = [
            (KIND_EXPAND, 0u32, 0u32),
            (KIND_EXPAND, 0, 1),
            (KIND_EXPAND, 7, 2),
            (KIND_DEFER, 0, 0),
            (KIND_DEFER, 3, 9),
            (KIND_BOUND, 0, 0),
            (KIND_BOUND, 0, (1 << 31) - 1),
            (KIND_BOUND, 1, 0),
            (KIND_EXACT, 0, 5),
            (KIND_EXACT, (1 << 31) - 1, (1 << 31) - 1),
        ];
        for &(kind, a, b) in &samples {
            let e = Entry::new(1.5, kind, a, b);
            assert_eq!((e.kind(), e.a(), e.b()), (kind, a, b));
        }
        // The sample list above is in (kind, a, b) lexicographic order.
        for pair in samples.windows(2) {
            let lo = Entry::new(0.0, pair[0].0, pair[0].1, pair[0].2);
            let hi = Entry::new(0.0, pair[1].0, pair[1].1, pair[1].2);
            assert!(lo.tag < hi.tag, "{pair:?}");
            assert!(lo.precedes(hi) && !hi.precedes(lo));
        }
    }

    #[test]
    fn entry_ordering_is_min_first_with_kind_tiebreak() {
        let mut h = MinHeap::default();
        h.push(Entry::new(5.0, KIND_EXACT, 0, 1));
        h.push(Entry::new(1.0, KIND_EXACT, 2, 3));
        h.push(Entry::new(1.0, KIND_BOUND, 4, 5));
        h.push(Entry::new(1.0, KIND_DEFER, 5, 0));
        h.push(Entry::new(1.0, KIND_EXPAND, 6, 2));
        // Equal keys: expansion, then deferred, then bound, then exact —
        // every non-exact kind resolves before a commit at the same key.
        assert_eq!(h.pop().unwrap().kind(), KIND_EXPAND);
        assert_eq!(h.pop().unwrap().kind(), KIND_DEFER);
        assert_eq!(h.pop().unwrap().kind(), KIND_BOUND);
        assert_eq!(h.pop().unwrap().kind(), KIND_EXACT);
        assert_eq!(h.pop().unwrap().key, 5.0);
        assert_eq!(h.pop(), None);
    }

    /// Pushing in scrambled order must pop in the strict total order, and
    /// `rebuild` must agree with incremental pushes.
    #[test]
    fn minheap_pops_in_total_order() {
        let keys = [
            3.25, -1.0, 0.0, -0.0, 7.5, 3.25, 2.0, 100.0, -55.5, 0.5, 3.25, 2.0,
        ];
        let mut pushed = MinHeap::default();
        let mut bulk = MinHeap::default();
        for (i, &k) in keys.iter().enumerate() {
            let e = Entry::new(k, KIND_BOUND, i as u32, (i * 2 + 1) as u32);
            pushed.push(e);
            bulk.data.push(e);
        }
        bulk.rebuild();
        let mut prev: Option<Entry> = None;
        for _ in 0..keys.len() {
            let a = pushed.pop().unwrap();
            let b = bulk.pop().unwrap();
            assert_eq!(a, b);
            if let Some(p) = prev {
                assert!(p.precedes(a), "{p:?} must precede {a:?}");
            }
            prev = Some(a);
        }
        assert_eq!(pushed.pop(), None);
        assert_eq!(bulk.pop(), None);
    }

    /// Compaction must drop exactly the dead entries and preserve the pop
    /// order of the survivors.
    #[test]
    fn retain_live_preserves_survivor_order() {
        let mut alive = vec![true; 10];
        alive[3] = false;
        alive[7] = false;
        let mut full = MinHeap::default();
        for a in 0..10u32 {
            for b in (a + 1)..10u32 {
                full.push(Entry::new(
                    f64::from((a * 7 + b * 13) % 11),
                    KIND_BOUND,
                    a,
                    b,
                ));
            }
            full.push(Entry::new(f64::from(a % 3), KIND_EXPAND, a, 2));
            // Deferred entries are live iff their center is — `b` is a slab
            // row index, not a node, and must not affect liveness.
            full.push(Entry::new(f64::from(a % 5), KIND_DEFER, a, 3));
        }
        let mut compacted = full.clone();
        compacted.retain_live(&alive);
        assert!(compacted.len() < full.len());
        // Popping the full heap and skipping dead entries must equal
        // popping the compacted heap.
        loop {
            let want = loop {
                match full.pop() {
                    Some(e) if e.is_live(&alive) => break Some(e),
                    Some(_) => {}
                    None => break None,
                }
            };
            let got = compacted.pop();
            assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// A scratch reused across runs (including runs of different sizes)
    /// must not change results.
    #[test]
    fn scratch_reuse_is_deterministic() {
        let mut scratch = GreedyScratch::new();
        let params = GreedyParams::default();
        let mut last = None;
        for n in [33usize, 8, 33] {
            let mut obj = PointObjective {
                points: (0..n)
                    .map(|i| Point::new((i * 13 % 97) as f64, (i * 29 % 83) as f64))
                    .collect(),
            };
            let (topo, _, _) = run_greedy_with_scratch(n, &mut obj, &params, &mut scratch).unwrap();
            assert_eq!(topo.num_leaves(), n);
            let mut fresh_obj = PointObjective {
                points: (0..n)
                    .map(|i| Point::new((i * 13 % 97) as f64, (i * 29 % 83) as f64))
                    .collect(),
            };
            let fresh = run_pruned(n, &mut fresh_obj).unwrap().0;
            assert_eq!(topo, fresh, "n = {n}");
            if n == 33 {
                if let Some(prev) = last.take() {
                    assert_eq!(topo, prev);
                }
                last = Some(topo);
            }
        }
    }

    /// A pruned run under an active memory sink commits the same topology
    /// as an untraced run, reports balanced greedy spans with the four
    /// loop sub-phases, and mirrors the [`GreedyStats`] counters.
    #[test]
    fn traced_run_is_identical_and_reports_phases() {
        use gcr_trace::{MemorySink, TraceEvent};
        use std::sync::Arc;

        let points: Vec<Point> = (0..60)
            .map(|i| Point::new(f64::from(i * 37 % 101), f64::from(i * 53 % 89)))
            .collect();
        let mut plain_obj = PointObjective {
            points: points.clone(),
        };
        let (plain, plain_stats) = run_pruned(60, &mut plain_obj).unwrap();

        let sink = Arc::new(MemorySink::new());
        let mut traced_obj = PointObjective { points };
        let (traced, _) = {
            let _entered = Tracer::new(sink.clone()).enter();
            run_pruned(60, &mut traced_obj).unwrap()
        };
        assert_eq!(traced, plain, "tracing must not influence the search");

        let nesting = sink.nesting().unwrap();
        assert_eq!(nesting[0], ("greedy.run", 0));
        for phase in [
            "greedy.seed",
            "greedy.loop",
            "greedy.ring",
            "greedy.defer",
            "greedy.bound",
            "greedy.merge",
        ] {
            assert!(
                nesting
                    .iter()
                    .any(|&(name, depth)| name == phase && depth == 1),
                "missing sub-phase {phase} in {nesting:?}"
            );
        }
        assert_eq!(
            sink.counter("greedy.exact_cost_evals"),
            Some(plain_stats.exact_cost_evals as f64)
        );
        assert_eq!(
            sink.counter("greedy.heap_pops"),
            Some(plain_stats.heap_pops as f64)
        );
        // The four sub-phase intervals partition the loop span.
        let events = sink.events();
        let loop_ns = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Complete { name, dur_ns, .. } if *name == "greedy.loop" => {
                    Some(*dur_ns)
                }
                _ => None,
            })
            .unwrap();
        let sub_ns: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Complete { name, dur_ns, .. }
                    if [
                        "greedy.ring",
                        "greedy.defer",
                        "greedy.bound",
                        "greedy.merge",
                    ]
                    .contains(name) =>
                {
                    Some(*dur_ns)
                }
                _ => None,
            })
            .sum();
        assert!(
            sub_ns <= loop_ns,
            "sub-phases ({sub_ns} ns) exceed the loop ({loop_ns} ns)"
        );
    }
}

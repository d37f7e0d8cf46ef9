//! Streaming, memory-bounded, parallel construction of [`ActivityTables`].
//!
//! Every table scan runs through [`scan_source`]: [`ActivityTables::scan`]
//! is this pipeline over a [`crate::SliceSource`] at one thread. The
//! independent two-pass reference ([`Ift::scan`] + [`Itmatt::scan`])
//! survives as the test oracle.
//!
//! * **One pass, pairs only.** Workers count the B−1 consecutive pairs as
//!   exact `u64` integers and never count cycles. Every cycle but the last
//!   opens exactly one pair, so the IFT count of instruction `a` is the
//!   row sum `Σ_b pairs[a][b]`, plus one if `a` is the trace's last cycle.
//!   The merge window derives it once. Integer addition is exact and
//!   commutative, so partial tables merge deterministically regardless of
//!   worker scheduling, and the single `count as f64 / denominator` divide
//!   at the end uses exactly the arithmetic of the two-pass reference —
//!   the result is **bit-identical** at every thread count and chunk size.
//! * **Lane tables for small K.** A persistent trace repeats one pair for
//!   thousands of cycles; counting it into one slot serializes every
//!   increment on the previous one. Dense tables with K ≤ 64 count pair
//!   `j` of a block into lane `j % 4` of four interleaved `u32` counters
//!   and flush them into the `u64` table every 64 Ki pairs.
//! * **Zero copy for in-memory traces.** A source that lends its ids
//!   ([`TraceSource::take_slice`]) is split into `chunk_cycles` blocks that
//!   workers claim through an atomic counter. Block `[s, e)` counts every
//!   pair ending inside it, including its incoming pair
//!   `(ids[s−1], ids[s])`, so each pair is counted exactly once with no
//!   lock and no copy.
//! * **Boundary-pair stitching for pulled sources.** Generator and text
//!   sources are read into per-worker buffers behind a mutex that also
//!   carries the last instruction of the previous chunk; the worker that
//!   reads the next chunk counts the spanning pair.
//! * **Bounded memory.** Peak usage is O(threads · chunk) buffer space
//!   (none for borrowed traces) plus the per-worker count tables: dense
//!   K×K `u64` up to 1 024 instructions, a sparse hash map above —
//!   O(observed pairs), not O(K²), per worker. The layout follows from K
//!   alone.
//! * **Warm-rescan reuse.** A [`ScanScratch`] keeps buffers and count
//!   tables across scans; a warm single-threaded rescan performs zero
//!   heap allocations in the chunk loop (enforced by the allocation-probe
//!   test, reported in [`ScanProfile`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use gcr_trace::{alloc_count, Tracer};

use crate::{ActivityError, ActivityTables, Ift, InstructionId, Itmatt, Rtl, TraceSource};

/// Default cycles per chunk: 64 Ki cycles = 128 KiB per worker buffer,
/// small enough to stay cache-friendly, large enough that the mutex on
/// the source is uncontended.
pub const DEFAULT_CHUNK_CYCLES: usize = 64 * 1024;

/// Largest K whose per-worker counts use a dense K×K array (8 MiB of
/// `u64` at the limit); above it they fall back to sparse accumulation so
/// per-worker memory tracks the observed pairs instead of K².
const DENSE_LIMIT: usize = 1024;

/// Largest K whose dense table counts through [`LANES`] lanes: 64 KiB of
/// lanes at the limit, so a flush costs at most a quarter of an add per
/// pair counted.
const LANE_K_LIMIT: usize = 64;

/// Interleaved `u32` counters per pair slot.
const LANES: usize = 4;

/// Pairs counted into the lanes between flushes into the `u64` table —
/// far below `u32::MAX`, so no lane can overflow.
const LANE_FLUSH_PAIRS: usize = 64 * 1024;

/// Tuning knobs of [`scan_source`].
#[derive(Clone, Debug)]
pub struct ScanParams {
    /// Worker threads; `None` resolves `GCR_THREADS`, then
    /// `available_parallelism()`. Clamped to `1..=16`; an unparsable
    /// `GCR_THREADS` warns under `activity.threads` and resolves to 1.
    pub threads: Option<usize>,
    /// Cycles per chunk read or borrowed block (min 1; default
    /// [`DEFAULT_CHUNK_CYCLES`]).
    pub chunk_cycles: usize,
}

impl Default for ScanParams {
    fn default() -> Self {
        Self {
            threads: None,
            chunk_cycles: DEFAULT_CHUNK_CYCLES,
        }
    }
}

/// Wall times and allocation counts of one streaming scan, measured on
/// the calling thread like the greedy engine's `GreedyProfile`.
///
/// Allocation counts come from the probe installed with
/// [`gcr_trace::set_alloc_probe`]; without a probe they stay 0. The
/// steady-state invariant is `chunk_allocs == 0` on a **warm
/// single-threaded** rescan (reused [`ScanScratch`], an in-memory or
/// generator source): every chunk-loop buffer then already has capacity.
/// Multi-threaded runs spawn scoped workers inside the chunk window,
/// which allocates thread stacks; those runs report honest nonzero
/// counts. The merge window builds the
/// returned tables and always allocates (it is the output).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScanProfile {
    /// Cycles scanned (the paper's B).
    pub cycles: u64,
    /// Chunks read from the source, or blocks of a borrowed trace.
    pub chunks: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time (ms) of the chunk loop (read + count, all workers).
    pub chunk_ms: f64,
    /// Wall time (ms) of the merge + final normalization.
    pub merge_ms: f64,
    /// Heap allocations during the chunk loop.
    pub chunk_allocs: u64,
    /// Heap allocations during merge + normalization.
    pub merge_allocs: u64,
}

impl ScanProfile {
    /// Scan throughput in cycles per second (0 when nothing was timed).
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = (self.chunk_ms + self.merge_ms) / 1e3;
        if secs > 0.0 {
            self.cycles as f64 / secs
        } else {
            0.0
        }
    }
}

/// One worker's exact `u64` pair counts (the ITMATT numerators, from
/// which the merge window also derives the IFT numerators). Dense K×K
/// storage up to [`DENSE_LIMIT`] instructions — through lane tables when
/// K is small — and sparse hash accumulation (key `a·K + b`) above it.
#[derive(Clone, Debug, Default)]
struct PartialCounts {
    k: usize,
    dense_mode: bool,
    /// Dense row-major K×K pair counts (dense mode), else empty.
    dense: Vec<u64>,
    /// Counts not yet flushed into `dense`, slot `(a·K + b)·LANES + lane`
    /// (dense mode with K ≤ [`LANE_K_LIMIT`]), else empty.
    lanes: Vec<u32>,
    /// Pairs counted into `lanes` since the last flush.
    lane_pairs: usize,
    /// Sparse pair counts keyed `a·K + b` (sparse mode), else empty.
    sparse: HashMap<u32, u64>,
}

impl PartialCounts {
    /// (Re)shapes for `k` instructions and zeroes all counts. Keeps
    /// existing capacity when the shape is unchanged, so warm rescans do
    /// not allocate here.
    fn reset(&mut self, k: usize) {
        let dense_mode = k <= DENSE_LIMIT;
        if self.k != k || self.dense_mode != dense_mode {
            self.k = k;
            self.dense_mode = dense_mode;
            let lane_mode = dense_mode && k <= LANE_K_LIMIT;
            self.dense.clear();
            self.dense.resize(if dense_mode { k * k } else { 0 }, 0);
            self.lanes.clear();
            self.lanes
                .resize(if lane_mode { k * k * LANES } else { 0 }, 0);
        } else {
            self.dense.fill(0);
            self.lanes.fill(0);
        }
        self.lane_pairs = 0;
        self.sparse.clear();
    }

    /// Adds `count` to pair slot `a·K + b`.
    fn add(&mut self, slot: usize, count: u64) {
        if self.dense_mode {
            self.dense[slot] += count;
        } else {
            *self.sparse.entry(slot as u32).or_insert(0) += count;
        }
    }

    /// Counts one consecutive pair (a chunk-boundary stitch).
    fn count_pair(&mut self, a: InstructionId, b: InstructionId) {
        self.add(a.index() * self.k + b.index(), 1);
    }

    /// The counting kernel: counts every consecutive pair of `ids` once.
    fn count_pairs(&mut self, ids: &[InstructionId]) {
        let k = self.k;
        if !self.lanes.is_empty() {
            let mut start = 0;
            while start + 1 < ids.len() {
                if self.lane_pairs == LANE_FLUSH_PAIRS {
                    self.flush_lanes();
                }
                let take = (ids.len() - 1 - start).min(LANE_FLUSH_PAIRS - self.lane_pairs);
                count_lanes(&mut self.lanes, k, &ids[start..=start + take]);
                self.lane_pairs += take;
                start += take;
            }
        } else if self.dense_mode {
            for w in ids.windows(2) {
                self.dense[w[0].index() * k + w[1].index()] += 1;
            }
        } else {
            for w in ids.windows(2) {
                let key = (w[0].index() * k + w[1].index()) as u32;
                *self.sparse.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// Moves the lane counts into the `u64` table.
    fn flush_lanes(&mut self) {
        for (total, lanes) in self
            .dense
            .iter_mut()
            .zip(self.lanes.chunks_exact_mut(LANES))
        {
            *total += lanes.iter().map(|&c| u64::from(c)).sum::<u64>();
            lanes.fill(0);
        }
        self.lane_pairs = 0;
    }

    /// Calls `f(slot, count)` once for every nonzero pair count, unflushed
    /// lanes included.
    fn for_each_count(&self, mut f: impl FnMut(usize, u64)) {
        let mut emit = |slot, count| {
            if count > 0 {
                f(slot, count);
            }
        };
        if !self.lanes.is_empty() {
            let slots = self.dense.iter().zip(self.lanes.chunks_exact(LANES));
            for (slot, (&total, lanes)) in slots.enumerate() {
                emit(
                    slot,
                    total + lanes.iter().map(|&c| u64::from(c)).sum::<u64>(),
                );
            }
        } else if self.dense_mode {
            for (slot, &count) in self.dense.iter().enumerate() {
                emit(slot, count);
            }
        } else {
            for (&key, &count) in &self.sparse {
                emit(key as usize, count);
            }
        }
    }

    /// Adds `other`'s counts into `self`. Slot-wise exact integer adds:
    /// the result is independent of merge order.
    fn absorb(&mut self, other: &PartialCounts) {
        debug_assert_eq!(self.k, other.k);
        other.for_each_count(|slot, count| self.add(slot, count));
    }

    /// The single final normalization over a `cycles`-cycle trace ending
    /// in `last`. The IFT counts are the pair-table row sums plus one for
    /// `last`, which opens no pair; zero pair slots stay `+0.0`, exactly
    /// as the reference's `0 / pairs`.
    fn to_tables(
        &self,
        rtl: &Rtl,
        last: InstructionId,
        cycles: u64,
    ) -> Result<ActivityTables, ActivityError> {
        let k = self.k;
        let pairs = (cycles - 1) as f64;
        let mut instr = vec![0u64; k];
        instr[last.index()] = 1;
        let mut pair_probs = vec![0.0f64; k * k];
        self.for_each_count(|slot, count| {
            instr[slot / k] += count;
            pair_probs[slot] = count as f64 / pairs;
        });
        debug_assert_eq!(instr.iter().sum::<u64>(), cycles);
        let ift = Ift::from_counts(&instr, cycles);
        let itmatt = Itmatt::from_dense(k, pair_probs)?;
        Ok(ActivityTables::from_parts(rtl.clone(), ift, itmatt))
    }
}

/// The lane kernel: pair `j` of `ids` adds one to lane `j % LANES` of its
/// slot, so a run of one repeated pair spreads over independent counters.
fn count_lanes(lanes: &mut [u32], k: usize, ids: &[InstructionId]) {
    let Some(pairs) = ids.len().checked_sub(1) else {
        return;
    };
    let slot = |a: InstructionId, b: InstructionId| (a.index() * k + b.index()) * LANES;
    let mut heads = ids[..pairs].chunks_exact(LANES);
    let mut tails = ids[1..].chunks_exact(LANES);
    for (h, t) in (&mut heads).zip(&mut tails) {
        lanes[slot(h[0], t[0])] += 1;
        lanes[slot(h[1], t[1]) + 1] += 1;
        lanes[slot(h[2], t[2]) + 2] += 1;
        lanes[slot(h[3], t[3]) + 3] += 1;
    }
    for (&a, &b) in heads.remainder().iter().zip(tails.remainder()) {
        lanes[slot(a, b)] += 1;
    }
}

/// The error for traces too short to hold a pair.
fn too_short(cycles: u64) -> ActivityError {
    ActivityError::InvalidStream {
        reason: format!("need at least 2 cycles for transition statistics, got {cycles}"),
    }
}

/// One worker's reusable state: a chunk buffer (pulled sources only)
/// plus its partial counts.
#[derive(Clone, Debug, Default)]
struct WorkerSlot {
    buf: Vec<InstructionId>,
    counts: PartialCounts,
}

/// Reusable buffers of [`scan_source`]. A warm rescan with the same
/// shape (instructions, chunk size, threads) performs zero chunk-loop
/// allocations when single-threaded.
#[derive(Clone, Debug, Default)]
pub struct ScanScratch {
    workers: Vec<WorkerSlot>,
}

impl ScanScratch {
    /// An empty scratch; the first scan grows it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Shapes `threads` worker slots for `k` instructions and `buf`-cycle
    /// chunk buffers, zeroing counts but keeping capacity.
    fn ensure(&mut self, k: usize, buf: usize, threads: usize) {
        if self.workers.len() < threads {
            self.workers.resize_with(threads, WorkerSlot::default);
        }
        for slot in &mut self.workers[..threads] {
            if slot.buf.len() != buf {
                slot.buf.clear();
                slot.buf.resize(buf, InstructionId::default());
            }
            slot.counts.reset(k);
        }
    }
}

/// What the chunk window observed of the trace.
struct Counted {
    cycles: u64,
    chunks: u64,
    last: Option<InstructionId>,
}

/// Runs `work` once per worker slot: inline for one slot (no spawn, so a
/// warm single-threaded window allocates nothing), else on scoped
/// threads. A panicking worker propagates when the scope closes.
fn run_workers(workers: &mut [WorkerSlot], work: impl Fn(&mut WorkerSlot) + Sync) {
    if let [only] = workers {
        work(only);
        return;
    }
    let work = &work;
    std::thread::scope(|scope| {
        for slot in workers {
            scope.spawn(move || work(slot));
        }
    });
}

/// The borrowed path: workers claim `chunk`-cycle blocks of `ids` through
/// an atomic counter. Block `[s, e)` counts the pairs ending inside it,
/// its incoming pair `(ids[s−1], ids[s])` included.
fn count_borrowed(ids: &[InstructionId], chunk: usize, workers: &mut [WorkerSlot]) -> Counted {
    let blocks = ids.len().div_ceil(chunk);
    let next = AtomicUsize::new(0);
    run_workers(workers, |slot| loop {
        // Relaxed: the counter only hands out block indices. Each
        // worker's table is published to the merge by the scope's join.
        let block = next.fetch_add(1, Ordering::Relaxed);
        if block >= blocks {
            return;
        }
        let start = block * chunk;
        let end = start.saturating_add(chunk).min(ids.len());
        slot.counts.count_pairs(&ids[start.saturating_sub(1)..end]);
    });
    Counted {
        cycles: ids.len() as u64,
        chunks: blocks as u64,
        last: ids.last().copied(),
    }
}

/// The shared cursor workers pull chunks through. Reads are serialized,
/// which is what makes the boundary stitch exact: `prev_last` always
/// holds the final instruction of the chunk read immediately before.
struct SourceCursor<'s> {
    source: &'s mut dyn TraceSource,
    prev_last: Option<InstructionId>,
    cycles: u64,
    chunks: u64,
    done: bool,
    failed: Option<ActivityError>,
}

/// The pulled path: each worker reads a chunk under the lock, counts the
/// boundary pair, releases the lock and counts the chunk into its own
/// table.
fn count_pulled(
    source: &mut dyn TraceSource,
    workers: &mut [WorkerSlot],
) -> Result<Counted, ActivityError> {
    let shared = Mutex::new(SourceCursor {
        source,
        prev_last: None,
        cycles: 0,
        chunks: 0,
        done: false,
        failed: None,
    });
    run_workers(workers, |slot| loop {
        let mut cursor = shared.lock().unwrap_or_else(PoisonError::into_inner);
        if cursor.done || cursor.failed.is_some() {
            return;
        }
        match cursor.source.next_chunk(&mut slot.buf) {
            Ok(0) => {
                cursor.done = true;
                return;
            }
            Ok(n) => {
                let n = n.min(slot.buf.len());
                if let Some(prev) = cursor.prev_last {
                    slot.counts.count_pair(prev, slot.buf[0]);
                }
                cursor.prev_last = Some(slot.buf[n - 1]);
                cursor.cycles += n as u64;
                cursor.chunks += 1;
                drop(cursor);
                slot.counts.count_pairs(&slot.buf[..n]);
            }
            Err(e) => {
                cursor.failed = Some(e);
                return;
            }
        }
    });
    let cursor = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    match cursor.failed {
        Some(err) => Err(err),
        None => Ok(Counted {
            cycles: cursor.cycles,
            chunks: cursor.chunks,
            last: cursor.prev_last,
        }),
    }
}

/// Builds [`ActivityTables`] by streaming `source` through a chunked,
/// parallel count pipeline. Bit-identical to the two-pass reference
/// ([`Ift::scan`] + [`Itmatt::scan`]) over the same trace at every thread
/// count and chunk size. A source that lends its ids
/// ([`TraceSource::take_slice`]) is counted in place; any other is pulled
/// chunk by chunk and never materialized, so peak memory is
/// O(threads · chunk + observed pairs).
///
/// Reports `activity.scan > activity.chunks / activity.merge` spans and
/// cycle/throughput counters through [`Tracer::current`] (see
/// `docs/observability.md`). The two inner spans and the counters are
/// emitted after their timed windows close, so tracing does not perturb
/// the allocation counts.
///
/// # Errors
///
/// Returns [`ActivityError::CapacityExceeded`] for oversized RTLs,
/// [`ActivityError::InvalidStream`] when the source yields fewer than two
/// cycles, and any error the source itself reports.
///
/// # Panics
///
/// The source must only yield ids of `rtl` (sources constructed through
/// this crate only yield validated ids); an id outside it panics or
/// corrupts the counts. Panics if a worker thread panics.
#[expect(
    clippy::expect_used,
    reason = "ensure() shapes at least one worker slot"
)]
pub fn scan_source(
    rtl: &Rtl,
    source: &mut dyn TraceSource,
    params: &ScanParams,
    scratch: &mut ScanScratch,
) -> Result<(ActivityTables, ScanProfile), ActivityError> {
    let tracer = &Tracer::current();
    let _scan = tracer.span("activity.scan");
    let k = rtl.num_instructions();
    Itmatt::check_capacity(k)?;
    let chunk = params.chunk_cycles.max(1);
    let threads = gcr_trace::threads::resolve(params.threads, "activity.threads", tracer);
    let borrowed = source.take_slice();
    let buf = if borrowed.is_some() { 0 } else { chunk };
    scratch.ensure(k, buf, threads);
    let workers = &mut scratch.workers[..threads];

    let chunks_start_ns = tracer.now_ns();
    let chunk_start = Instant::now();
    let allocs_before = alloc_count();
    let counted = match borrowed {
        Some(ids) => Ok(count_borrowed(ids, chunk, workers)),
        None => count_pulled(source, workers),
    };
    let chunk_ms = chunk_start.elapsed().as_secs_f64() * 1e3;
    let chunk_allocs = alloc_count() - allocs_before;
    let Counted {
        cycles,
        chunks,
        last,
    } = counted?;
    let last = match last {
        Some(last) if cycles >= 2 => last,
        _ => return Err(too_short(cycles)),
    };

    // Merge window: fold the partial tables (slot-wise integer adds, so
    // the fold order cannot affect the result) and normalize once.
    let merge_start_ns = tracer.now_ns();
    let merge_start = Instant::now();
    let merge_allocs_before = alloc_count();
    let (first, rest) = workers
        .split_first_mut()
        .expect("threads >= 1 worker slots");
    for other in rest.iter() {
        first.counts.absorb(&other.counts);
    }
    let tables = first.counts.to_tables(rtl, last, cycles)?;
    let merge_ms = merge_start.elapsed().as_secs_f64() * 1e3;
    let merge_allocs = alloc_count() - merge_allocs_before;

    let profile = ScanProfile {
        cycles,
        chunks,
        threads,
        chunk_ms,
        merge_ms,
        chunk_allocs,
        merge_allocs,
    };

    if tracer.enabled() {
        let ns = |ms: f64| (ms * 1e6) as u64;
        tracer.complete_span("activity.chunks", chunks_start_ns, ns(chunk_ms));
        tracer.complete_span("activity.merge", merge_start_ns, ns(merge_ms));
        tracer.counter("activity.cycles", cycles as f64);
        tracer.counter("activity.chunks", chunks as f64);
        tracer.counter("activity.threads", threads as f64);
        tracer.counter("activity.cycles_per_sec", profile.cycles_per_sec());
        tracer.counter("activity.instructions", k as f64);
        tracer.counter("activity.modules", rtl.num_modules() as f64);
        tracer.counter(
            "activity.itmatt_nonzero",
            tables.itmatt().nonzero_len() as f64,
        );
    }

    Ok((tables, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_example_rtl, InstructionStream, SliceSource};

    fn paper_stream(rtl: &Rtl) -> InstructionStream {
        InstructionStream::from_indices(
            rtl,
            [0, 1, 3, 0, 2, 1, 0, 0, 1, 0, 2, 0, 1, 2, 0, 0, 1, 1, 3, 1],
        )
        .unwrap()
    }

    /// The independent two-pass reference.
    fn reference(rtl: &Rtl, stream: &InstructionStream) -> (Ift, Itmatt) {
        (Ift::scan(rtl, stream), Itmatt::scan(rtl, stream))
    }

    fn assert_matches_reference(tables: &ActivityTables, stream: &InstructionStream) {
        let (ift, itmatt) = reference(tables.rtl(), stream);
        assert_eq!(tables.ift(), &ift);
        assert_eq!(tables.itmatt(), &itmatt);
    }

    /// One past the dense limit: `DENSE_LIMIT + 1` instructions over one
    /// module, so every scan of it counts sparsely.
    fn sparse_rtl() -> Rtl {
        let mut builder = Rtl::builder(1);
        for i in 0..=DENSE_LIMIT {
            builder = builder.instruction(&format!("I{i}"), [0]).unwrap();
        }
        builder.build().unwrap()
    }

    #[test]
    fn scan_source_matches_sequential_scan_exactly() {
        let rtl = paper_example_rtl();
        let stream = paper_stream(&rtl);
        for chunk_cycles in [1, 2, 3, 7, 64] {
            for threads in [1, 2, 4] {
                let params = ScanParams {
                    threads: Some(threads),
                    chunk_cycles,
                };
                let mut scratch = ScanScratch::new();
                let mut source = SliceSource::new(&stream);
                let (tables, profile) =
                    scan_source(&rtl, &mut source, &params, &mut scratch).unwrap();
                assert_matches_reference(&tables, &stream);
                assert_eq!(profile.cycles, 20);
                assert_eq!(profile.chunks, 20u64.div_ceil(chunk_cycles as u64));
                assert_eq!(profile.threads, threads);
            }
        }
    }

    #[test]
    fn sparse_accumulation_matches_dense() {
        let rtl = sparse_rtl();
        let stream =
            InstructionStream::from_indices(&rtl, (0..400).map(|i| (i * 37) % 1_025)).unwrap();
        let params = ScanParams {
            threads: Some(2),
            chunk_cycles: 3,
        };
        let mut scratch = ScanScratch::new();
        let mut source = SliceSource::new(&stream);
        let (tables, _) = scan_source(&rtl, &mut source, &params, &mut scratch).unwrap();
        assert!(scratch.workers.iter().all(|w| !w.counts.dense_mode));
        assert_matches_reference(&tables, &stream);
    }

    #[test]
    fn scratch_reuse_across_scans_is_exact() {
        let rtl = paper_example_rtl();
        let stream = paper_stream(&rtl);
        let params = ScanParams {
            threads: Some(1),
            chunk_cycles: 4,
        };
        let mut scratch = ScanScratch::new();
        for _ in 0..3 {
            let mut source = SliceSource::new(&stream);
            let (tables, _) = scan_source(&rtl, &mut source, &params, &mut scratch).unwrap();
            assert_matches_reference(&tables, &stream);
        }
    }

    /// One instruction repeated for more than three lane flush blocks:
    /// every pair lands on the same slot, so a lost or doubled flush (or a
    /// lane overflow) shows in the exact count.
    #[test]
    fn single_instruction_trace_longer_than_the_flush_block() {
        let rtl = Rtl::builder(1)
            .instruction("I1", [0])
            .unwrap()
            .build()
            .unwrap();
        let b = 3 * LANE_FLUSH_PAIRS + 7;
        let stream = InstructionStream::from_indices(&rtl, std::iter::repeat_n(0, b)).unwrap();
        let mut counts = PartialCounts::default();
        counts.reset(1);
        assert!(!counts.lanes.is_empty(), "K = 1 must take the lane path");
        counts.count_pairs(stream.instructions());
        let mut total = 0;
        counts.for_each_count(|_, count| total += count);
        assert_eq!(total, (b - 1) as u64);
        counts.flush_lanes();
        assert_eq!(counts.dense, vec![(b - 1) as u64]);

        for chunk_cycles in [DEFAULT_CHUNK_CYCLES, b] {
            let params = ScanParams {
                threads: Some(1),
                chunk_cycles,
            };
            let mut source = SliceSource::new(&stream);
            let (tables, _) =
                scan_source(&rtl, &mut source, &params, &mut ScanScratch::new()).unwrap();
            assert_matches_reference(&tables, &stream);
        }
    }

    /// The last instruction occurs nowhere else, so its ITMATT row is
    /// empty: its IFT count comes only from the "+1 for the last cycle"
    /// term of the row-sum identity. Checked for the dense (paper RTL)
    /// and sparse (K past the dense limit) layouts.
    #[test]
    fn last_instruction_opening_no_pair_keeps_its_ift_count() {
        for (rtl, last) in [(paper_example_rtl(), 3), (sparse_rtl(), DENSE_LIMIT)] {
            let stream = InstructionStream::from_indices(&rtl, [0, 1, 0, 0, 2, 1, last]).unwrap();
            let i_last = rtl.instruction(last).unwrap();
            for threads in [1, 2] {
                let params = ScanParams {
                    threads: Some(threads),
                    chunk_cycles: 2,
                };
                let mut source = SliceSource::new(&stream);
                let (tables, _) =
                    scan_source(&rtl, &mut source, &params, &mut ScanScratch::new()).unwrap();
                assert_matches_reference(&tables, &stream);
                assert_eq!(tables.ift().probability(i_last), 1.0 / 7.0);
                assert!(rtl
                    .instruction_ids()
                    .all(|b| tables.itmatt().pair_probability(i_last, b) == 0.0));
            }
        }
    }

    #[test]
    fn scan_source_rejects_short_traces() {
        let rtl = paper_example_rtl();
        let stream = paper_stream(&rtl);
        let one = [stream.instructions()[0]];
        for ids in [&one[..], &[]] {
            let mut source = SliceSource::from_ids(ids);
            let mut scratch = ScanScratch::new();
            let err =
                scan_source(&rtl, &mut source, &ScanParams::default(), &mut scratch).unwrap_err();
            assert!(matches!(err, ActivityError::InvalidStream { .. }));
        }
    }

    #[test]
    fn traced_scan_is_identical_and_emits_taxonomy() {
        use std::sync::Arc;

        let rtl = paper_example_rtl();
        let stream = paper_stream(&rtl);
        let sink = Arc::new(gcr_trace::ChromeTraceSink::new());
        let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn gcr_trace::TraceSink>);
        let params = ScanParams {
            threads: Some(2),
            chunk_cycles: 5,
        };
        let mut scratch = ScanScratch::new();
        let mut source = SliceSource::new(&stream);
        let _entered = tracer.enter();
        let (tables, _) = scan_source(&rtl, &mut source, &params, &mut scratch).unwrap();
        assert_matches_reference(&tables, &stream);
        let json = sink.to_json();
        for name in [
            "activity.scan",
            "activity.chunks",
            "activity.merge",
            "activity.cycles_per_sec",
        ] {
            assert!(json.contains(name), "trace missing {name}");
        }
    }
}

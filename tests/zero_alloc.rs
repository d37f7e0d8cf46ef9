//! Steady-state allocation discipline of the arena-backed greedy engine:
//! with warmed scratch buffers and pre-reserved objective columns, the
//! merge loop must perform **zero** heap allocations. A counting global
//! allocator feeds the engine's phase profile via
//! [`gcr_trace::set_alloc_probe`]; the assertion is on the warm run's
//! `loop_allocs`.
//!
//! Single `#[test]` on purpose: the allocation counter is process-global,
//! and a concurrently running test would inflate the deltas.
#![allow(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Arc;

use gcr_activity::{ActivityTables, CpuModel, ScanParams, ScanScratch, SliceSource};
use gcr_core::{GatedObjective, RouterConfig};
use gcr_cts::{
    apply_eco, plan_eco_leaves, run_greedy_with_scratch, EcoEdit, EcoScratch, GreedyParams,
    GreedyScratch, MergeObjective, NearestNeighborObjective, Sink,
};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_trace::{ChromeTraceSink, TraceSink, Tracer};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_probe() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

const SIDE: f64 = 30_000.0;

fn spread_sinks(n: usize) -> Vec<Sink> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 2_654.435) % SIDE;
            let y = (i as f64 * 1_618.034) % SIDE;
            Sink::new(Point::new(x, y), 0.03 + 0.01 * (i % 5) as f64)
        })
        .collect()
}

/// Cold run to grow the scratch, then a warm run whose loop phase must
/// not allocate.
fn warm_loop_allocs<O: MergeObjective + Clone>(n: usize, objective: &O) -> u64 {
    let params = GreedyParams::default();
    let mut scratch = GreedyScratch::new();
    let mut cold = objective.clone();
    run_greedy_with_scratch(n, &mut cold, &params, &mut scratch).unwrap();
    let mut warm = objective.clone();
    let (_, _, profile) = run_greedy_with_scratch(n, &mut warm, &params, &mut scratch).unwrap();
    profile.loop_allocs
}

#[test]
fn warm_greedy_loop_performs_zero_allocations() {
    gcr_trace::set_alloc_probe(alloc_probe);

    // Warm streaming activity scan: after a cold scan grows the
    // ScanScratch, a single-threaded warm rescan must not allocate in the
    // chunk loop — reads land in the reused buffer, counts in the reused
    // per-worker table. (The merge window builds the returned tables and
    // is expected to allocate; only the chunk window is gated.) Checked
    // for both an in-memory source and the incremental model generator,
    // and for the dense and sparse per-worker count layouts: the scan
    // picks the layout from K, sparse past 1 024 instructions.
    for instructions in [16, 1_025] {
        let scan_model = CpuModel::builder(64)
            .instructions(instructions)
            .persistence(0.8)
            .seed(42)
            .build()
            .unwrap();
        let scan_stream = scan_model.generate_stream(50_000);
        let scan_params = ScanParams {
            threads: Some(1),
            chunk_cycles: 4_096,
        };
        let mut scan_scratch = ScanScratch::new();
        let mut cold_source = SliceSource::new(&scan_stream);
        gcr_activity::scan_source(
            scan_model.rtl(),
            &mut cold_source,
            &scan_params,
            &mut scan_scratch,
        )
        .unwrap();
        let mut warm_source = SliceSource::new(&scan_stream);
        let (_, profile) = gcr_activity::scan_source(
            scan_model.rtl(),
            &mut warm_source,
            &scan_params,
            &mut scan_scratch,
        )
        .unwrap();
        assert_eq!(
            profile.chunk_allocs, 0,
            "warm slice-source chunk loop allocated {} times (K = {instructions})",
            profile.chunk_allocs
        );
        let mut model_source = scan_model.trace_source(50_000);
        let (_, profile) = gcr_activity::scan_source(
            scan_model.rtl(),
            &mut model_source,
            &scan_params,
            &mut scan_scratch,
        )
        .unwrap();
        assert_eq!(
            profile.chunk_allocs, 0,
            "warm generator chunk loop allocated {} times (K = {instructions})",
            profile.chunk_allocs
        );
    }
    let n = 300;
    let sinks = spread_sinks(n);
    let tech = Technology::default();

    // Nearest-neighbor objective (arena-only state).
    let nn = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
    let nn_allocs = warm_loop_allocs(n, &nn);
    assert_eq!(
        nn_allocs, 0,
        "nearest-neighbor warm loop allocated {nn_allocs} times"
    );

    // Equation-3 objective (arena + activity aggregates).
    let model = CpuModel::builder(n)
        .instructions(8)
        .seed(11)
        .build()
        .unwrap();
    let tables = ActivityTables::scan(model.rtl(), &model.generate_stream(800));
    let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
    let config = RouterConfig::new(tech, die);
    let module_of: Vec<usize> = (0..n).collect();
    let gated = GatedObjective::new(
        config.tech(),
        config.controller(),
        &tables,
        &sinks,
        &module_of,
    );
    let gated_allocs = warm_loop_allocs(n, &gated);
    assert_eq!(
        gated_allocs, 0,
        "equation-3 warm loop allocated {gated_allocs} times"
    );

    // Objective setup writes each leaf's activation row and module bit
    // into the pre-reserved columns, so it allocates a fixed number of
    // times whatever the sink count.
    let setup_allocs = |count: usize| {
        let setup_sinks = spread_sinks(count);
        let setup_modules: Vec<usize> = (0..count).map(|i| i % n).collect();
        let before = alloc_probe();
        let objective = GatedObjective::new(
            config.tech(),
            config.controller(),
            &tables,
            &setup_sinks,
            &setup_modules,
        );
        let allocs = alloc_probe() - before;
        drop(objective);
        allocs
    };
    let (small, large) = (setup_allocs(40), setup_allocs(4_000));
    assert_eq!(
        small, large,
        "GatedObjective::new allocated {small} times for 40 sinks but {large} for 4000"
    );

    // An active trace sink must not break the invariant: the engine times
    // the loop phases on the stack and defers all event emission until
    // after the allocation window closes.
    let sink = Arc::new(ChromeTraceSink::new());
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let params = GreedyParams::default();
    let mut scratch = GreedyScratch::new();
    let mut cold = gated.clone();
    run_greedy_with_scratch(n, &mut cold, &params, &mut scratch).unwrap();
    let mut warm = gated.clone();
    let entered = tracer.enter();
    let (_, _, profile) = run_greedy_with_scratch(n, &mut warm, &params, &mut scratch).unwrap();
    drop(entered);
    assert_eq!(
        profile.loop_allocs, 0,
        "traced warm loop allocated {} times",
        profile.loop_allocs
    );
    let json = sink.to_json();
    for name in [
        "greedy.run",
        "greedy.ring",
        "greedy.bound",
        "greedy.defer",
        "greedy.merge",
    ] {
        assert!(json.contains(name), "trace missing {name}");
    }

    // Warm incremental-ECO loop: same discipline. One objective and one
    // EcoScratch stay alive; `truncate()` rewinds the objective to its
    // leaf rows between re-applications, and the replay + splice-search
    // + stitch window (the engine's `loop_allocs`) must not allocate.
    let params = GreedyParams::default();
    let mut topo_scratch = GreedyScratch::new();
    let mut topo_obj = gated.clone();
    let (old_topology, _, _) =
        run_greedy_with_scratch(n, &mut topo_obj, &params, &mut topo_scratch).unwrap();
    let old_locations: Vec<Point> = sinks.iter().map(Sink::location).collect();
    let moved = sinks[n / 2].location();
    let edits = [EcoEdit::MoveSink {
        index: n / 2,
        to: Point::new((moved.x + 600.0) % SIDE, (moved.y + 450.0) % SIDE),
    }];
    let plan = plan_eco_leaves(n, &edits).unwrap();
    let new_sinks = plan.new_sinks(&sinks);
    let new_modules = plan.new_module_of(&module_of);
    let mut eco_obj = GatedObjective::new(
        config.tech(),
        config.controller(),
        &tables,
        &new_sinks,
        &new_modules,
    );
    let mut eco_scratch = EcoScratch::new();
    // Cold application grows every buffer…
    apply_eco(
        &old_topology,
        &old_locations,
        &edits,
        &mut eco_obj,
        &mut eco_scratch,
    )
    .unwrap();
    // …then warm re-applications must keep the loop window silent.
    for _ in 0..3 {
        eco_obj.truncate(n);
        let outcome = apply_eco(
            &old_topology,
            &old_locations,
            &edits,
            &mut eco_obj,
            &mut eco_scratch,
        )
        .unwrap();
        assert_eq!(
            outcome.profile.loop_allocs, 0,
            "warm ECO loop allocated {} times",
            outcome.profile.loop_allocs
        );
        assert!(!outcome.pure_replay);
        assert!(outcome.spliced > 0);
    }
}

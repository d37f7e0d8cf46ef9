//! Regression test for the shared worker-thread resolver
//! (`gcr_trace::threads`): the greedy merge engine and the streaming
//! activity scanner used to carry near-identical private copies of
//! `resolve_threads`, and their warning wording had every opportunity
//! to drift. Both now delegate to the shared resolver; this test drives
//! an unparsable `GCR_THREADS` through **both engines end to end** and
//! asserts they emit the same warn event (same message, their own
//! category names) and both pin to a single worker. The greedy side runs
//! the coarsened engine over two regions: its region pool is the one
//! reader of `GreedyParams::threads`, and the pruned and exhaustive
//! engines it runs underneath never read a thread setting.
//!
//! One `#[test]` only: the test mutates the process environment, which
//! must not race another test in this binary.

// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gcr_activity::{scan_source, CpuModel, ScanParams, ScanScratch, SliceSource};
use gcr_cts::{
    partition_regions, run_greedy_coarsened, CoarsenParams, CoarsenScratch, GreedyParams,
    NearestNeighborObjective, Sink,
};
use gcr_geometry::Point;
use gcr_rctree::Technology;
use gcr_trace::{MemorySink, Tracer};

#[test]
fn greedy_and_activity_emit_identical_threads_warning() {
    std::env::set_var("GCR_THREADS", "not-a-number");

    // Greedy engine path: params.threads = None forces the env read.
    let greedy_sink = Arc::new(MemorySink::new());
    let greedy_tracer = Tracer::new(greedy_sink.clone());
    let entered = greedy_tracer.enter();
    let tech = Technology::default();
    let sinks: Vec<Sink> = (0..6)
        .map(|i| {
            let offset = f64::from(i) * 100.0;
            Sink::new(Point::new(offset, 50.0 + offset), 0.03)
        })
        .collect();
    let mut objective = NearestNeighborObjective::new(&tech, &sinks, None);
    let region_objective = |members: &[u32]| {
        let members: Vec<Sink> = members.iter().map(|&i| sinks[i as usize]).collect();
        NearestNeighborObjective::new(&tech, &members, None)
    };
    // Regions of about 2 sinks: the 6 sinks reach the cut-over (2 × 2)
    // and the diagonal splits into 2 grid cells, so the pool resolves
    // its thread count.
    let params = CoarsenParams {
        greedy: GreedyParams {
            threads: None,
            log_decisions: false,
        },
        target_region_size: 2,
    };
    let locations: Vec<Point> = sinks.iter().map(Sink::location).collect();
    assert!(partition_regions(&locations, params.target_region_size).len() >= 2);
    let mut scratch = CoarsenScratch::new();
    run_greedy_coarsened(
        sinks.len(),
        &mut objective,
        region_objective,
        &params,
        &mut scratch,
    )
    .unwrap();
    drop(entered);

    // Activity scanner path: same env, same `threads: None`.
    let activity_sink = Arc::new(MemorySink::new());
    let activity_tracer = Tracer::new(activity_sink.clone());
    let _entered = activity_tracer.enter();
    let model = CpuModel::builder(6)
        .instructions(4)
        .usage_fraction(0.5)
        .seed(7)
        .build()
        .unwrap();
    let stream = model.generate_stream(64);
    let mut source = SliceSource::new(&stream);
    let scan_params = ScanParams {
        threads: None,
        ..ScanParams::default()
    };
    let mut scan_scratch = ScanScratch::new();
    scan_source(model.rtl(), &mut source, &scan_params, &mut scan_scratch).unwrap();

    std::env::remove_var("GCR_THREADS");

    let greedy_warnings = greedy_sink.warnings("greedy.threads");
    let activity_warnings = activity_sink.warnings("activity.threads");
    assert_eq!(
        greedy_warnings.len(),
        1,
        "greedy engine must warn exactly once on unparsable GCR_THREADS"
    );
    assert_eq!(
        activity_warnings.len(),
        1,
        "activity scanner must warn exactly once on unparsable GCR_THREADS"
    );
    // The regression: both engines route through the shared resolver,
    // so the message text is identical — only the category differs.
    assert_eq!(greedy_warnings[0], activity_warnings[0]);
    assert!(greedy_warnings[0].contains("\"not-a-number\""));
    assert!(greedy_warnings[0].contains("single-threaded"));
}

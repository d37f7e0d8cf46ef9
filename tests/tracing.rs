//! Observability contract of the `gcr-trace` instrumentation: traced
//! runs must (a) report a well-nested span tree covering every pipeline
//! layer with counters matching the engine's own statistics, and (b) be
//! **bit-identical** to untraced runs — tracing observes the flow, it
//! never steers it. Every traced run enters its tracer, which each
//! engine picks up with `Tracer::current`. See `docs/observability.md`
//! for the span taxonomy.
// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gcr_core::{evaluate, route_gated, DeviceRole, RouterConfig};
use gcr_cts::{
    run_greedy_with_scratch, GreedyParams, GreedyScratch, NearestNeighborObjective, Sink, Topology,
};
use gcr_geometry::Point;
use gcr_rctree::Technology;
use gcr_trace::{MemorySink, NullSink, TraceSink, Tracer};
use gcr_verify::{Verifier, VerifyInput};
use gcr_workloads::{TsayBenchmark, Workload, WorkloadParams};
use proptest::prelude::*;

/// A small r1 workload: real benchmark geometry, short stream.
fn small_r1() -> Workload {
    let params = WorkloadParams::smoke().with_stream_len(400);
    Workload::generate(TsayBenchmark::R1, &params).unwrap()
}

#[test]
fn full_flow_trace_covers_every_layer_with_correct_nesting() {
    let params = WorkloadParams::smoke().with_stream_len(400);
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let _entered = tracer.enter();

    let workload = Workload::generate(TsayBenchmark::R1, &params).unwrap();
    let n = workload.benchmark.sinks.len();
    let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
    let routing = route_gated(&workload.benchmark.sinks, &workload.tables, &config).unwrap();
    let report = evaluate(
        &routing.tree,
        &routing.node_stats,
        config.controller(),
        config.tech(),
        DeviceRole::Gate,
    );
    assert!(report.total_switched_cap.is_finite());

    let nesting = sink.nesting().expect("span stream must be balanced");
    let depth_of = |name: &str| {
        nesting
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, d)| d)
            .unwrap_or_else(|| panic!("span {name} missing from trace"))
    };

    // Workload synthesis: activity scan nests under workload.generate.
    assert_eq!(depth_of("workload.generate"), 0);
    assert_eq!(depth_of("activity.scan"), 1);
    assert_eq!(depth_of("activity.chunks"), 2);
    assert_eq!(depth_of("activity.merge"), 2);

    // Routing: greedy + embedding nest under route.gated; the merge-loop
    // sub-phases sit inside greedy.run.
    assert_eq!(depth_of("route.gated"), 0);
    assert_eq!(depth_of("route.objective"), 1);
    assert_eq!(depth_of("greedy.run"), 1);
    for phase in [
        "greedy.seed",
        "greedy.loop",
        "greedy.ring",
        "greedy.defer",
        "greedy.bound",
        "greedy.merge",
    ] {
        assert_eq!(depth_of(phase), 2, "{phase} not nested in greedy.run");
    }
    assert_eq!(depth_of("embed.run"), 1);
    assert_eq!(depth_of("embed.bottom_up"), 2);
    assert_eq!(depth_of("embed.top_down"), 2);
    assert_eq!(depth_of("evaluate.equation3"), 0);

    // Counters agree with the flow's own bookkeeping.
    assert_eq!(sink.counter("workload.sinks"), Some(n as f64));
    assert_eq!(sink.counter("route.sinks"), Some(n as f64));
    assert_eq!(sink.counter("activity.cycles"), Some(400.0));
    assert_eq!(sink.counter("embed.nodes"), Some((2 * n - 1) as f64));
    assert!(sink.counter("greedy.heap_pops").unwrap() > 0.0);
    assert_eq!(sink.counter("greedy.loop_allocs"), Some(0.0));
    assert_eq!(
        sink.counter("evaluate.total_switched_cap"),
        Some(report.total_switched_cap)
    );
}

#[test]
fn traced_routing_is_bit_identical_on_r1() {
    let workload = small_r1();
    let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
    let plain = route_gated(&workload.benchmark.sinks, &workload.tables, &config).unwrap();
    let traced = {
        let _entered = Tracer::new(Arc::new(NullSink)).enter();
        route_gated(&workload.benchmark.sinks, &workload.tables, &config).unwrap()
    };
    assert_eq!(plain.topology, traced.topology);
    assert_eq!(plain.tree, traced.tree);
}

#[test]
fn verifier_spans_follow_pass_order() {
    let workload = small_r1();
    let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
    let routing = route_gated(&workload.benchmark.sinks, &workload.tables, &config).unwrap();

    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let verifier = Verifier::with_default_lints();
    let input = VerifyInput::new(&routing.tree, config.tech()).with_tables(&workload.tables);
    let report = {
        let _entered = tracer.enter();
        verifier.run(&input)
    };

    let nesting = sink.nesting().expect("span stream must be balanced");
    assert_eq!(nesting[0], ("verify.run", 0));
    let pass_spans: Vec<&str> = nesting
        .iter()
        .filter(|&&(_, d)| d == 1)
        .map(|&(n, _)| n)
        .collect();
    assert_eq!(pass_spans, report.passes_run());
    assert_eq!(
        sink.counter("verify.passes_run"),
        Some(report.passes_run().len() as f64)
    );
}

const SIDE: f64 = 40_000.0;

fn sinks_strategy(max: usize) -> impl Strategy<Value = Vec<Sink>> {
    prop::collection::vec((0.0..SIDE, 0.0..SIDE, 0.005..0.3f64), 2..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, c)| Sink::new(Point::new(x, y), c))
            .collect()
    })
}

/// The pruned engine on a cold scratch, under whatever tracer is entered.
fn pruned(n: usize, objective: &mut NearestNeighborObjective) -> Topology {
    let params = GreedyParams::default();
    let (topology, _, _) =
        run_greedy_with_scratch(n, objective, &params, &mut GreedyScratch::new()).unwrap();
    topology
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tracing through an active (Null) sink never changes the topology:
    /// the instrumented engine must commit the same merges bit-for-bit.
    #[test]
    fn traced_greedy_is_bit_identical(sinks in sinks_strategy(48)) {
        let tech = Technology::default();
        let n = sinks.len();
        let mut plain_obj = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
        let plain = pruned(n, &mut plain_obj);
        let _entered = Tracer::new(Arc::new(NullSink)).enter();
        let mut traced_obj = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
        let traced = pruned(n, &mut traced_obj);
        prop_assert_eq!(plain, traced);
    }
}

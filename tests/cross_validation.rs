//! Cross-crate consistency: the router's incremental bookkeeping must
//! agree with the from-scratch oracles in `gcr-rctree` and `gcr-activity`.
// Test code: unwrap/expect on infallible setup is idiomatic here, in
// helpers as well as in #[test] functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_activity::ModuleSet;
use gcr_core::{evaluate, route_gated, DeviceRole, RouterConfig};
use gcr_rctree::Technology;
use gcr_workloads::{Benchmark, Workload, WorkloadParams};

fn routed() -> (Workload, gcr_core::GatedRouting, RouterConfig) {
    let params = WorkloadParams {
        stream_len: 4_000,
        groups: 8,
        ..WorkloadParams::default()
    };
    let w = Workload::for_benchmark(Benchmark::uniform(48, 24_000.0, 9), &params).unwrap();
    let tech = Technology::default();
    let config = RouterConfig::new(tech, w.benchmark.die);
    let routing = route_gated(&w.benchmark.sinks, &w.tables, &config).unwrap();
    (w, routing, config)
}

/// The per-node enable statistics cached by the router equal a fresh
/// table-driven computation over the node's module set, which in turn
/// equals a brute-force rescan of the instruction stream.
#[test]
fn router_stats_match_tables_and_stream() {
    let (w, routing, _) = routed();
    let n = w.tables.rtl().num_modules();
    for i in 0..routing.topology.len() {
        let set: ModuleSet = ModuleSet::with_modules(n, routing.node_modules[i].iter());
        let fresh = w.tables.enable_stats(&set);
        let cached = routing.node_stats[i];
        assert!(
            (fresh.signal - cached.signal).abs() < 1e-12,
            "node {i} signal"
        );
        assert!(
            (fresh.transition - cached.transition).abs() < 1e-12,
            "node {i} transition"
        );
    }
}

/// The module sets the router accumulates are exactly the union of sink
/// indices below each topology node.
#[test]
fn router_module_sets_match_topology() {
    let (_, routing, _) = routed();
    let sizes = routing.topology.subtree_sizes();
    for (i, &size) in sizes.iter().enumerate() {
        assert_eq!(routing.node_modules[i].len(), size, "node {i} module count");
    }
    // Leaves own exactly their sink's module.
    for leaf in 0..routing.topology.num_leaves() {
        assert!(routing.node_modules[leaf].contains(leaf));
        assert_eq!(routing.node_modules[leaf].len(), 1);
    }
}

/// The embedded tree's delays, measured by the independent RC oracle, are
/// equal across sinks (zero skew) and positive.
#[test]
fn embedded_tree_agrees_with_rc_oracle() {
    let (_, routing, config) = routed();
    let (rc, sinks) = routing.tree.to_rc_tree(config.tech());
    let analysis = rc.analyze();
    let max = analysis.max_arrival(&sinks);
    let min = analysis.min_arrival(&sinks);
    assert!(min > 0.0);
    assert!(max - min <= 1e-9 * max, "skew {} of {max}", max - min);
}

/// The evaluator's clock switched capacitance with all enables forced to 1
/// equals the raw capacitance inventory of the tree (wires + loads + device
/// pins) — no double counting, nothing missed.
#[test]
fn evaluator_counts_every_farad_once() {
    let (_, routing, config) = routed();
    let tech = config.tech();
    let always_on = vec![
        gcr_activity::EnableStats {
            signal: 1.0,
            transition: 0.0
        };
        routing.tree.len()
    ];
    let report = evaluate(
        &routing.tree,
        &always_on,
        config.controller(),
        tech,
        DeviceRole::Gate,
    );
    let tree = &routing.tree;
    let mut inventory = tech.wire_cap(tree.total_wire_length());
    for i in 0..tree.num_sinks() {
        inventory += tree.sink_cap(i);
    }
    for (_, d) in tree.devices() {
        inventory += d.input_cap();
    }
    assert!(
        (report.clock_switched_cap - inventory).abs() < 1e-9,
        "evaluator {} vs inventory {inventory}",
        report.clock_switched_cap
    );
}

/// The production router (`route_gated`, which runs the lower-bound
/// pruned greedy engine) picks exactly the topology the exhaustive
/// reference engine picks on the same Equation-3 objective — the pruning
/// is an optimization, never a heuristic.
#[test]
fn route_gated_matches_exhaustive_reference() {
    let (w, routing, config) = routed();
    let sinks = &w.benchmark.sinks;
    let module_of: Vec<usize> = (0..sinks.len()).collect();
    let mut objective = gcr_core::GatedObjective::new(
        config.tech(),
        config.controller(),
        &w.tables,
        sinks,
        &module_of,
    );
    let (reference, _, _) = gcr_cts::run_greedy_exhaustive_with_scratch(
        sinks.len(),
        &mut objective,
        &gcr_cts::GreedyParams::default(),
        &mut gcr_cts::GreedyScratch::new(),
    )
    .unwrap();
    assert_eq!(
        routing.topology, reference,
        "pruned router topology diverged from the exhaustive reference"
    );
}

/// Gate sizing during embedding preserves total input-pin inventory within
/// the sizing limits, and every resized device stays in range.
#[test]
fn sized_devices_stay_within_limits() {
    let (_, routing, config) = routed();
    let nominal = config.tech().and_gate();
    let limits = gcr_cts::SizingLimits::default();
    for (_, d) in routing.tree.devices() {
        let scale = d.input_cap() / nominal.input_cap();
        assert!(
            scale >= limits.min - 1e-9 && scale <= limits.max * limits.max + 1e-9,
            "device scale {scale} outside limits"
        );
    }
}

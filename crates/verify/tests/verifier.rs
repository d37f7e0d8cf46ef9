//! End-to-end tests of the verifier: the routing flows in this workspace
//! must come out clean, and a deliberately corrupted design must trip the
//! specific pass guarding the broken invariant.
// Test code: unwrap/expect on infallible setup is idiomatic here, in
// helpers as well as in #[test] functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_core::{
    evaluate_with_mask, reduce_gates_untied, route_gated, ControllerPlan, DeviceRole,
    ReductionParams, RouterConfig,
};
use gcr_cts::{build_buffered_tree, ClockTree, Sink};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_verify::{Severity, Verifier, VerifyInput};
use gcr_workloads::{Benchmark, Workload, WorkloadParams};

fn workload(num_sinks: usize, seed: u64) -> Workload {
    let params = WorkloadParams {
        instructions: 8,
        stream_len: 2_000,
        ..WorkloadParams::default()
    };
    Workload::for_benchmark(Benchmark::uniform(num_sinks, 20_000.0, seed), &params)
        .expect("workload generation is infallible for uniform benchmarks")
}

fn assert_clean(report: &gcr_verify::VerifyReport) {
    assert!(
        !report.has_errors(),
        "expected a clean design, got:\n{}",
        report.render_text()
    );
}

fn assert_errors_from(report: &gcr_verify::VerifyReport, lint_id: &str) {
    assert!(
        report
            .by_lint(lint_id)
            .any(|d| d.severity == Severity::Error),
        "expected an Error from `{lint_id}`, got:\n{}",
        report.render_text()
    );
}

#[test]
fn buffered_baseline_is_clean() {
    let tech = Technology::default();
    let die = BBox::new(Point::new(0.0, 0.0), Point::new(20_000.0, 20_000.0));
    let sinks: Vec<Sink> = (0..9)
        .map(|i| {
            Sink::new(
                Point::new(f64::from(i % 3) * 9_000.0, f64::from(i / 3) * 9_000.0),
                0.05,
            )
        })
        .collect();
    let tree = build_buffered_tree(&tech, &sinks, die.center()).expect("routable");
    let input = VerifyInput::new(&tree, &tech)
        .with_role(DeviceRole::Buffer)
        .with_die(die);
    let report = Verifier::with_default_lints().run(&input);
    assert_clean(&report);
    assert_eq!(report.passes_run().len(), 7, "all passes must run");
}

#[test]
fn gated_routing_is_clean_including_activity_and_gating_passes() {
    let wl = workload(12, 7);
    let tech = Technology::default();
    let config = RouterConfig::new(tech.clone(), wl.benchmark.die);
    let routing = route_gated(&wl.benchmark.sinks, &wl.tables, &config).expect("routable");
    let input = VerifyInput::new(&routing.tree, &tech)
        .with_die(wl.benchmark.die)
        .with_tables(&wl.tables)
        .with_node_stats(&routing.node_stats)
        .with_controller(config.controller());
    let report = Verifier::with_default_lints().run(&input);
    assert_clean(&report);
}

#[test]
fn reduced_gating_mask_and_stored_report_are_clean() {
    let wl = workload(10, 11);
    let tech = Technology::default();
    let config = RouterConfig::new(tech.clone(), wl.benchmark.die);
    let routing = route_gated(&wl.benchmark.sinks, &wl.tables, &config).expect("routable");
    let star_len = wl.benchmark.die.half_perimeter() / 8.0;
    let mask = reduce_gates_untied(
        &routing,
        &tech,
        &ReductionParams::from_strength_scaled(0.5, &tech, star_len),
    );
    let stored = evaluate_with_mask(
        &routing.tree,
        &routing.node_stats,
        config.controller(),
        &tech,
        &mask,
    );
    let input = VerifyInput::new(&routing.tree, &tech)
        .with_die(wl.benchmark.die)
        .with_node_stats(&routing.node_stats)
        .with_controller(config.controller())
        .with_controlled(&mask)
        .with_power_report(&stored);
    let report = Verifier::with_default_lints().run(&input);
    assert_clean(&report);
}

/// A small clean gated design plus the context needed to verify it; the
/// negative tests below corrupt one aspect each.
fn gated_fixture() -> (
    ClockTree,
    Technology,
    ControllerPlan,
    Vec<gcr_activity::EnableStats>,
    BBox,
) {
    let wl = workload(8, 3);
    let tech = Technology::default();
    let config = RouterConfig::new(tech.clone(), wl.benchmark.die);
    let routing = route_gated(&wl.benchmark.sinks, &wl.tables, &config).expect("routable");
    (
        routing.tree,
        tech,
        config.controller().clone(),
        routing.node_stats,
        wl.benchmark.die,
    )
}

#[test]
fn corrupted_sink_binding_trips_tree_structure_and_skips_electrical_passes() {
    let (tree, tech, ..) = gated_fixture();
    let (mut nodes, caps) = tree.to_raw_parts();
    // Bind two leaves to the same sink: the sink map is no longer a
    // bijection.
    let dup = nodes[0].sink.expect("leaf 0 carries a sink");
    nodes[1].sink = Some(dup);
    let bad = ClockTree::from_raw_parts(nodes, caps);
    let report = Verifier::with_default_lints().run(&VerifyInput::new(&bad, &tech));
    assert_errors_from(&report, "tree-structure");
    assert!(
        !report.passes_run().contains(&"zero-skew")
            && !report.passes_run().contains(&"switched-cap"),
        "electrical passes must not traverse a structurally broken tree"
    );
}

#[test]
fn shortened_wire_trips_geometry() {
    let (tree, tech, ..) = gated_fixture();
    let (mut nodes, caps) = tree.to_raw_parts();
    // Claim an electrical length shorter than the Manhattan distance the
    // wire must physically span.
    let victim = (0..nodes.len())
        .find(|&i| {
            nodes[i]
                .parent
                .is_some_and(|p| nodes[i].location.manhattan(nodes[p].location) > 1.0)
        })
        .expect("some edge spans a nonzero distance");
    nodes[victim].electrical_length = 0.0;
    let bad = ClockTree::from_raw_parts(nodes, caps);
    let report = Verifier::with_default_lints().run(&VerifyInput::new(&bad, &tech));
    assert_errors_from(&report, "geometry");
}

#[test]
fn snaked_leaf_edge_trips_zero_skew() {
    let (tree, tech, controller, stats, die) = gated_fixture();
    let (mut nodes, caps) = tree.to_raw_parts();
    // Extra snaking on one leaf edge delays that sink alone; the geometry
    // pass allows it (snaking is legal) but zero skew is gone.
    nodes[0].electrical_length += 2_000.0;
    let bad = ClockTree::from_raw_parts(nodes, caps);
    let input = VerifyInput::new(&bad, &tech)
        .with_die(die)
        .with_node_stats(&stats)
        .with_controller(&controller);
    let report = Verifier::with_default_lints().run(&input);
    assert!(
        report.by_lint("geometry").count() == 0,
        "snaking alone is geometrically legal:\n{}",
        report.render_text()
    );
    assert_errors_from(&report, "zero-skew");
}

#[test]
fn impossible_transition_probability_trips_activity_tables() {
    let (tree, tech, controller, mut stats, die) = gated_fixture();
    // P_tr(EN) = 0.9 with P(EN) = 0.01 violates the stationary bound
    // P_tr <= 2*min(P, 1-P): a signal that is almost never 1 cannot
    // toggle nearly every cycle.
    let root = tree.root().index();
    stats[root].transition = 0.9;
    for s in &mut stats {
        s.signal = s.signal.min(0.01);
    }
    let input = VerifyInput::new(&tree, &tech)
        .with_die(die)
        .with_node_stats(&stats)
        .with_controller(&controller);
    let report = Verifier::with_default_lints().run(&input);
    assert_errors_from(&report, "activity-tables");
}

#[test]
fn controlled_gates_without_a_star_plan_trip_gating() {
    let (tree, tech, _, stats, die) = gated_fixture();
    // Every edge claims a controlled gate, but no controller plan exists
    // to route the enables.
    let input = VerifyInput::new(&tree, &tech)
        .with_die(die)
        .with_node_stats(&stats);
    let report = Verifier::with_default_lints().run(&input);
    assert_errors_from(&report, "gating");
}

#[test]
fn mask_pointing_at_a_missing_gate_trips_gating() {
    let (tree, tech, controller, stats, die) = gated_fixture();
    let (mut nodes, caps) = tree.to_raw_parts();
    // Remove one gate but leave it marked as controlled: the enable net
    // now drives nothing.
    let victim = (0..nodes.len())
        .find(|&i| nodes[i].device.is_some())
        .expect("gated tree has devices");
    nodes[victim].device = None;
    let bad = ClockTree::from_raw_parts(nodes, caps);
    let input = VerifyInput::new(&bad, &tech)
        .with_die(die)
        .with_node_stats(&stats)
        .with_controller(&controller);
    let report = Verifier::with_default_lints().run(&input);
    assert_errors_from(&report, "gating");
}

#[test]
fn falsified_power_report_trips_switched_cap() {
    let (tree, tech, controller, stats, die) = gated_fixture();
    let mut stored = evaluate_with_mask(&tree, &stats, &controller, &tech, &vec![true; tree.len()]);
    stored.total_switched_cap *= 0.5;
    let input = VerifyInput::new(&tree, &tech)
        .with_die(die)
        .with_node_stats(&stats)
        .with_controller(&controller)
        .with_power_report(&stored);
    let report = Verifier::with_default_lints().run(&input);
    assert_errors_from(&report, "switched-cap");
}

#[test]
fn switched_cap_rederivation_agrees_with_evaluate_on_many_masks() {
    // The first-principles W recomputation inside the switched-cap pass
    // must agree with gcr-core::evaluate for *any* mask, not just the
    // all-gated one; sweep reduction strengths to vary the mask.
    let wl = workload(10, 5);
    let tech = Technology::default();
    let config = RouterConfig::new(tech.clone(), wl.benchmark.die);
    let routing = route_gated(&wl.benchmark.sinks, &wl.tables, &config).expect("routable");
    let star_len = wl.benchmark.die.half_perimeter() / 8.0;
    for strength in [0.0, 0.2, 0.5, 0.9] {
        let mask = reduce_gates_untied(
            &routing,
            &tech,
            &ReductionParams::from_strength_scaled(strength, &tech, star_len),
        );
        let input = VerifyInput::new(&routing.tree, &tech)
            .with_node_stats(&routing.node_stats)
            .with_controller(config.controller())
            .with_controlled(&mask);
        let report = Verifier::with_default_lints().run(&input);
        assert!(
            report.by_lint("switched-cap").count() == 0,
            "strength {strength}:\n{}",
            report.render_text()
        );
    }
}

/// Nodes of the subtree under `top` (inclusive), from the raw child lists.
fn subtree(nodes: &[gcr_cts::RawTreeNode], top: usize) -> Vec<usize> {
    let mut out = vec![top];
    let mut i = 0;
    while i < out.len() {
        out.extend(nodes[out[i]].children.iter().copied());
        i += 1;
    }
    out.sort_unstable();
    out
}

/// A child `a` of the root together with an internal child `b` of `a`.
fn root_child_with_internal_child(nodes: &[gcr_cts::RawTreeNode]) -> (usize, usize) {
    let root = nodes.len() - 1;
    nodes[root]
        .children
        .iter()
        .find_map(|&a| {
            let b = nodes[a]
                .children
                .iter()
                .find(|&&g| !nodes[g].children.is_empty())?;
            Some((a, *b))
        })
        .expect("a child of the root has an internal child")
}

/// Locations of the `code` diagnostics a report carries, sorted.
fn node_locations(report: &gcr_verify::VerifyReport, code: &str) -> Vec<usize> {
    let mut at: Vec<usize> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == Some(code))
        .map(|d| match d.location {
            gcr_verify::Location::Node(i) => i,
            ref other => panic!("{code} anchored at {other:?}"),
        })
        .collect();
    at.sort_unstable();
    at
}

#[test]
fn parent_cycle_trips_tree_structure_for_exactly_the_nodes_above_it() {
    let (tree, tech, ..) = gated_fixture();
    let (mut nodes, caps) = tree.to_raw_parts();
    // Two internal nodes name each other as parent: a child `a` of the
    // root and `a`'s internal child `b`. Every node under `a` now climbs
    // into the a <-> b loop; the root's own chain is untouched.
    let (a, b) = root_child_with_internal_child(&nodes);
    let cyclic = subtree(&nodes, a);
    nodes[a].parent = Some(b);
    let bad = ClockTree::from_raw_parts(nodes, caps);
    let report = Verifier::with_default_lints().run(&VerifyInput::new(&bad, &tech));
    assert_eq!(
        node_locations(&report, "GCR-TS10"),
        cyclic,
        "{}",
        report.render_text()
    );
    // `a` claims `b`, which lists it as no child of its own.
    assert_eq!(node_locations(&report, "GCR-TS09"), vec![a]);
    assert!(
        !report.passes_run().contains(&"zero-skew")
            && !report.passes_run().contains(&"switched-cap"),
        "electrical passes must not traverse a cyclic tree"
    );
}

#[test]
fn descending_parent_indices_trip_only_the_index_order_check() {
    let (tree, tech, ..) = gated_fixture();
    let (nodes, caps) = tree.to_raw_parts();
    // Swap the indices of the root's child `a` and `a`'s internal child
    // `b`: `a` now sits below its own child in index order, so parent
    // indices no longer ascend along every chain. The shape is otherwise
    // intact.
    let (a, b) = root_child_with_internal_child(&nodes);
    let relabel = |i: usize| match i {
        i if i == a => b,
        i if i == b => a,
        i => i,
    };
    let mut swapped = nodes.clone();
    for (i, node) in nodes.iter().enumerate() {
        let mut node = node.clone();
        node.parent = node.parent.map(relabel);
        node.children = node.children.iter().map(|&c| relabel(c)).collect();
        swapped[relabel(i)] = node;
    }
    let bad = ClockTree::from_raw_parts(swapped, caps);
    let report = Verifier::with_default_lints().run(&VerifyInput::new(&bad, &tech));
    let structure: Vec<_> = report.by_lint("tree-structure").collect();
    assert!(
        !structure.is_empty()
            && structure
                .iter()
                .all(|d| d.code == Some("GCR-TS06") && d.location == gcr_verify::Location::Node(b)),
        "only the index-order check may fire, at the relabeled parent v{b}:\n{}",
        report.render_text()
    );
}

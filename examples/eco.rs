//! Incremental ECO re-routing: a routed benchmark design absorbs a
//! stream of engineering change orders — sink moves, insertions,
//! removals, activity swaps — through the dirty-frontier engine
//! (`gcr_core::route_gated_eco`), and **every batch is verified**
//! against the from-scratch oracle (`gcr_verify::check_eco`): scoped
//! verification over the dirty-node set, bit-identity with the
//! same-topology rebuild, and the ε quality contract against a full
//! re-route. The process exits nonzero on any oracle mismatch, so this
//! example doubles as a CI smoke test of the ECO contract.
//!
//! Run with: `cargo run --release -p gcr-report --example eco`
// Test code: unwrap/expect on infallible setup is idiomatic here, in
// helpers as well as in #[test] functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use gcr_core::{route_gated_eco, route_gated_mapped, GatedObjective, RouterConfig};
use gcr_cts::{apply_eco, plan_eco_leaves, EcoEdit, EcoScratch, Sink};
use gcr_geometry::Point;
use gcr_rctree::Technology;
use gcr_verify::{check_eco, DEFAULT_QUALITY_EPS};
use gcr_workloads::{
    generate_eco_stream, EcoStreamParams, TsayBenchmark, Workload, WorkloadParams,
};

/// One-word label for a single-edit batch (the stream's default shape).
fn describe(batch: &[EcoEdit]) -> &'static str {
    match batch.first() {
        Some(EcoEdit::MoveSink { .. }) => "move",
        Some(EcoEdit::AddSink { .. }) => "add",
        Some(EcoEdit::RemoveSink { .. }) => "remove",
        Some(EcoEdit::SwapActivity { .. }) => "swap",
        None => "empty",
    }
}

/// Warm-loop re-applications in the closing demo.
const WARM: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::generate(TsayBenchmark::R1, &WorkloadParams::smoke())?;
    let die = workload.benchmark.die;
    let tables = &workload.tables;
    let config = RouterConfig::new(Technology::default(), die);
    let mut sinks = workload.benchmark.sinks.clone();
    let mut module_of = workload.module_of();

    let mut routing = route_gated_mapped(&sinks, &module_of, tables, &config)?;
    println!(
        "v0: {} sinks, wire {:.0} kλ, skew {:.1e} ps",
        routing.tree.num_sinks(),
        routing.tree.total_wire_length() / 1e3,
        routing.tree.verify_skew(config.tech()),
    );

    // A placement-refinement session: mostly small moves, occasional
    // adds/removes, activity swaps in between. Deterministic per seed.
    let num_modules = tables.rtl().num_modules();
    let stream = generate_eco_stream(&sinks, die, num_modules, &EcoStreamParams::default());

    let mut scratch = EcoScratch::new();
    let mut mismatches = 0usize;
    for (i, batch) in stream.iter().enumerate() {
        let t = Instant::now();
        let eco = route_gated_eco(
            &routing,
            &sinks,
            &module_of,
            batch,
            tables,
            &config,
            &mut scratch,
        )?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let report = check_eco(&routing, &eco, tables, &config, DEFAULT_QUALITY_EPS)?;
        println!(
            "batch {i:>2} ({:<6}): {} sinks, replayed {:>3} + spliced {:>2}, \
             {} in {:.2} ms, quality {:.4} — {}",
            describe(batch),
            eco.sinks.len(),
            eco.outcome.replayed,
            eco.outcome.spliced,
            if eco.outcome.pure_replay {
                "pure replay"
            } else {
                "splice"
            },
            ms,
            report.quality_ratio,
            if report.passed() {
                "verified"
            } else {
                "MISMATCH"
            },
        );
        if !report.passed() {
            mismatches += 1;
            for failure in &report.failures {
                eprintln!("  oracle mismatch: {failure}");
            }
        }
        routing = eco.routing;
        sinks = eco.sinks;
        module_of = eco.module_of;
    }
    if mismatches > 0 {
        return Err(format!("{mismatches} ECO batches failed the from-scratch oracle").into());
    }

    // The steady-state warm loop behind the benchmark numbers: one
    // objective and one scratch stay alive, and `truncate()` rewinds
    // the objective to its leaf rows between re-applications. Its
    // zero-allocation contract is gated in `tests/zero_alloc.rs` and
    // by `greedy_bench --eco`.
    let n = sinks.len();
    let from = sinks[n / 2].location();
    let reach = 0.02 * (die.max().x - die.min().x).max(die.max().y - die.min().y);
    let to = Point::new(
        (from.x + reach).min(die.max().x),
        (from.y + reach).min(die.max().y),
    );
    let edits = [EcoEdit::MoveSink { index: n / 2, to }];
    let plan = plan_eco_leaves(n, &edits)?;
    let new_sinks = plan.new_sinks(&sinks);
    let new_modules = plan.new_module_of(&module_of);
    let old_locations: Vec<Point> = sinks.iter().map(Sink::location).collect();
    let mut objective = GatedObjective::new(
        config.tech(),
        config.controller(),
        tables,
        &new_sinks,
        &new_modules,
    );
    apply_eco(
        &routing.topology,
        &old_locations,
        &edits,
        &mut objective,
        &mut scratch,
    )?;
    let t = Instant::now();
    for _ in 0..WARM {
        objective.truncate(n);
        apply_eco(
            &routing.topology,
            &old_locations,
            &edits,
            &mut objective,
            &mut scratch,
        )?;
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nwarm loop: {WARM} re-applications of a single-sink move in {ms:.2} ms \
         ({:.3} ms each); every batch above passed the from-scratch oracle.",
        ms / WARM as f64
    );
    Ok(())
}

//! Parity between the scalar evaluator and the per-depth breakdown:
//! summing `evaluate_breakdown` rows must reproduce the clock and control
//! switched capacitance of `evaluate_with_mask` for the **same mask** —
//! on the Tsay benchmarks r1–r3 and on randomized trees and masks, where
//! the W-only `evaluate_switched_cap` must also reproduce the report's
//! switched capacitance bit for bit. Also pins `evaluate`'s totals, skew
//! and delay bit for bit on r1–r4.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_activity::{ActivityTables, CpuModel};
use gcr_core::{
    evaluate, evaluate_breakdown, evaluate_switched_cap, evaluate_with_mask, route_gated,
    DeviceRole, GatedRouting, RouterConfig,
};
use gcr_cts::Sink;
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_workloads::{TsayBenchmark, Workload, WorkloadParams};
use proptest::prelude::*;

/// Relative tolerance: the breakdown must reproduce the totals to
/// floating-point accumulation noise, nothing more.
const TOL: f64 = 1e-9;

/// Asserts the breakdown rows sum to the masked totals for one mask.
fn assert_breakdown_sums_to_total(
    routing: &GatedRouting,
    config: &RouterConfig,
    controlled: &[bool],
    label: &str,
) {
    let report = evaluate_with_mask(
        &routing.tree,
        &routing.node_stats,
        config.controller(),
        config.tech(),
        controlled,
    );
    let w = evaluate_switched_cap(
        &routing.tree,
        &routing.node_stats,
        config.controller(),
        config.tech(),
        controlled,
    );
    let bits = |v: [f64; 3]| v.map(f64::to_bits);
    assert_eq!(
        bits([w.clock, w.control, w.control_wire_length]),
        bits([
            report.clock_switched_cap,
            report.control_switched_cap,
            report.control_wire_length
        ]),
        "{label}: the W-only path differs from the report"
    );
    let breakdown = evaluate_breakdown(
        &routing.tree,
        &routing.node_stats,
        config.controller(),
        config.tech(),
        controlled,
    );
    let clock_sum: f64 = breakdown.iter().map(|l| l.clock_switched_cap).sum();
    let control_sum: f64 = breakdown.iter().map(|l| l.control_switched_cap).sum();
    let nodes: usize = breakdown.iter().map(|l| l.nodes).sum();
    assert_eq!(nodes, routing.tree.len(), "{label}: breakdown misses nodes");
    let clock_tol = TOL * report.clock_switched_cap.abs().max(1.0);
    assert!(
        (clock_sum - report.clock_switched_cap).abs() <= clock_tol,
        "{label}: clock breakdown sum {clock_sum} != total {}",
        report.clock_switched_cap
    );
    let control_tol = TOL * report.control_switched_cap.abs().max(1.0);
    assert!(
        (control_sum - report.control_switched_cap).abs() <= control_tol,
        "{label}: control breakdown sum {control_sum} != total {}",
        report.control_switched_cap
    );
    let total_tol = TOL * report.total_switched_cap.abs().max(1.0);
    assert!(
        (clock_sum + control_sum - report.total_switched_cap).abs() <= total_tol,
        "{label}: breakdown total diverges from W"
    );
}

/// Exercises all-gated, ungated, and two striped masks on one routing.
fn check_masks(routing: &GatedRouting, config: &RouterConfig, label: &str) {
    let n = routing.tree.len();
    let masks: [Vec<bool>; 4] = [
        vec![true; n],
        vec![false; n],
        (0..n).map(|i| i % 2 == 0).collect(),
        (0..n).map(|i| i % 3 != 0).collect(),
    ];
    for (m, mask) in masks.iter().enumerate() {
        assert_breakdown_sums_to_total(routing, config, mask, &format!("{label} mask {m}"));
    }
}

#[test]
fn breakdown_matches_masked_totals_on_r1_r2_r3() {
    let params = WorkloadParams::smoke();
    for which in [TsayBenchmark::R1, TsayBenchmark::R2, TsayBenchmark::R3] {
        let workload = Workload::generate(which, &params).unwrap();
        let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
        let routing = route_gated(&workload.benchmark.sinks, &workload.tables, &config).unwrap();
        check_masks(&routing, &config, which.name());
    }
}

const SIDE: f64 = 30_000.0;

fn tables_for(num_sinks: usize, seed: u64) -> ActivityTables {
    let model = CpuModel::builder(num_sinks)
        .instructions(6)
        .seed(seed)
        .build()
        .unwrap();
    let stream = model.generate_stream(500);
    ActivityTables::scan(model.rtl(), &stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized trees and random masks keep the parity.
    #[test]
    fn breakdown_matches_masked_totals_on_random_trees(
        raw in prop::collection::vec((0.0..SIDE, 0.0..SIDE, 0.01..0.2f64), 2..40),
        seed in 1u64..500,
        mask_seed in 0u64..64,
    ) {
        let sinks: Vec<Sink> = raw
            .into_iter()
            .map(|(x, y, c)| Sink::new(Point::new(x, y), c))
            .collect();
        let tables = tables_for(sinks.len(), seed);
        let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
        let config = RouterConfig::new(Technology::default(), die);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        check_masks(&routing, &config, "random");
        // One pseudo-random mask on top of the striped ones.
        let mask: Vec<bool> = (0..routing.tree.len())
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == mask_seed % 2)
            .collect();
        assert_breakdown_sums_to_total(&routing, &config, &mask, "random mask");
    }
}

/// `evaluate`'s total switched capacitance, skew and delay on the smoke
/// r1–r4 routings, pinned bit for bit: the Elmore oracle behind skew and
/// delay, and the Equation-3 sum behind W, must not move by one ulp.
#[test]
fn evaluate_is_pinned_bit_for_bit_on_smoke_r1_r4() {
    const PINS: [(TsayBenchmark, [u64; 3]); 4] = [
        (
            TsayBenchmark::R1,
            [
                0x4052_af5b_3810_76a4,
                0x3d78_0000_0000_0000,
                0x4099_1c37_0952_969f,
            ],
        ),
        (
            TsayBenchmark::R2,
            [
                0x4069_8e80_a9f5_3732,
                0x3d84_0000_0000_0000,
                0x40a2_a58e_4580_5f27,
            ],
        ),
        (
            TsayBenchmark::R3,
            [
                0x4074_3042_46c7_a8a8,
                0x3d84_0000_0000_0000,
                0x40a2_5678_50af_e85f,
            ],
        ),
        (
            TsayBenchmark::R4,
            [
                0x408f_721e_bd82_c23a,
                0x3d9c_0000_0000_0000,
                0x40b1_2e25_83f2_f6ab,
            ],
        ),
    ];
    let params = WorkloadParams::smoke();
    for (which, pins) in PINS {
        let workload = Workload::generate(which, &params).unwrap();
        let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
        let routing = route_gated(&workload.benchmark.sinks, &workload.tables, &config).unwrap();
        let report = evaluate(
            &routing.tree,
            &routing.node_stats,
            config.controller(),
            config.tech(),
            DeviceRole::Gate,
        );
        let bits: [u64; 3] = [
            report.total_switched_cap.to_bits(),
            report.skew.to_bits(),
            report.delay.to_bits(),
        ];
        assert_eq!(
            bits,
            pins,
            "{}: evaluate moved (total W, skew, delay bits)",
            which.name()
        );
    }
}

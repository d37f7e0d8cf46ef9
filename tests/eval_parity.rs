//! Parity between the scalar evaluator and the per-depth breakdown:
//! summing `evaluate_breakdown` rows must reproduce the clock and control
//! switched capacitance of `evaluate_with_mask` for the **same mask** —
//! on the Tsay benchmarks r1–r3 and on randomized trees and masks, where
//! the W-only `evaluate_switched_cap` must also reproduce the report's
//! switched capacitance bit for bit. Also pins `evaluate`'s totals, skew
//! and delay bit for bit on r1–r4, and `route_activity_driven`'s total W
//! and merge order on r1–r3.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_activity::{ActivityTables, CpuModel};
use gcr_core::{
    evaluate, evaluate_breakdown, evaluate_switched_cap, evaluate_with_mask, route_activity_driven,
    route_gated, DeviceRole, GatedRouting, RouterConfig,
};
use gcr_cts::{Sink, TopoNode, Topology};
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

/// 64-bit FNV-1a of a topology's merges in node order, each child index
/// as four little-endian bytes: any change to one merge moves it.
fn merge_digest(topology: &Topology) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (_, node) in topology.bottom_up() {
        if let TopoNode::Internal { left, right } = node {
            for child in [left, right] {
                for byte in (child as u32).to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    hash
}

/// `route_activity_driven` on the smoke r1–r3 designs, pinned bit for
/// bit: its total W bits and the FNV-1a digest of its merge order must
/// not move.
#[test]
fn activity_driven_routing_is_pinned_bit_for_bit_on_smoke_r1_r3() {
    const PINS: [(TsayBenchmark, u64, u64); 3] = [
        (
            TsayBenchmark::R1,
            0x4057_4e79_99a2_3749,
            0xc363_34df_fd77_62c9,
        ),
        (
            TsayBenchmark::R2,
            0x406f_b5b0_1d21_d780,
            0xc164_7507_7002_0860,
        ),
        (
            TsayBenchmark::R3,
            0x407c_c5a4_6d10_c1a9,
            0xbbfa_4f98_4ec9_956c,
        ),
    ];
    let params = WorkloadParams::smoke();
    for (which, w_bits, digest) in PINS {
        let workload = Workload::generate(which, &params).unwrap();
        let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
        let routing =
            route_activity_driven(&workload.benchmark.sinks, &workload.tables, &config).unwrap();
        let report = evaluate(
            &routing.tree,
            &routing.node_stats,
            config.controller(),
            config.tech(),
            DeviceRole::Gate,
        );
        let got = (
            report.total_switched_cap.to_bits(),
            merge_digest(&routing.topology),
        );
        assert_eq!(
            got,
            (w_bits, digest),
            "{}: activity-driven routing moved (total W bits, merge digest)",
            which.name()
        );
    }
}

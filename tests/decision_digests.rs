//! Pinned decision-log digests: the FNV-1a (64-bit, standard basis) of
//! `canonical_decision_log` from `run_greedy_coarsened` on the smoke
//! workloads, under the Equation-3 and nearest-neighbour objectives, at
//! 1 and 2 threads. Any change to the engine, the objectives or the
//! bound kernels that moves a single committed merge, partner or key bit
//! changes a digest here.
//!
//! r1–r4 run in the default suite. r5, r6 and r7 (the coarsened scale
//! path; r7 takes about half a minute on two cores) are `#[ignore]`d and
//! run in release mode:
//!
//! ```text
//! cargo test --release -p gcr-report --test decision_digests -- --ignored
//! ```
// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_core::{gated_region_factory, ControllerPlan, GatedObjective};
use gcr_cts::{
    canonical_decision_log, run_greedy_coarsened, CoarsenParams, CoarsenScratch, GreedyParams,
    MergeObjective, NearestNeighborObjective, Sink,
};
use gcr_rctree::Technology;
use gcr_workloads::{TsayBenchmark, Workload, WorkloadParams};

/// 64-bit FNV-1a with the standard offset basis and prime.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two objectives the digests pin.
#[derive(Clone, Copy, Debug)]
enum Objective {
    Equation3,
    NearestNeighbor,
}

/// Routes `which` through `run_greedy_coarsened` with default coarsening
/// parameters and returns the digest of its canonical decision log.
fn digest(which: TsayBenchmark, objective: Objective, threads: usize) -> u64 {
    let workload = Workload::generate(which, &WorkloadParams::smoke()).unwrap();
    let sinks = &workload.benchmark.sinks;
    let tech = Technology::default();
    let params = CoarsenParams {
        greedy: GreedyParams {
            threads: Some(threads),
            log_decisions: true,
        },
        ..CoarsenParams::default()
    };
    let mut scratch = CoarsenScratch::new();
    match objective {
        Objective::Equation3 => {
            let controller = ControllerPlan::Centralized {
                location: workload.benchmark.die.center(),
            };
            let module_of = workload.module_of();
            let mut global =
                GatedObjective::new(&tech, &controller, &workload.tables, sinks, &module_of);
            let factory =
                gated_region_factory(&tech, &controller, &workload.tables, sinks, &module_of);
            coarsened(sinks.len(), &mut global, factory, &params, &mut scratch);
        }
        Objective::NearestNeighbor => {
            let device = Some(tech.buffer());
            let mut global = NearestNeighborObjective::new(&tech, sinks, device);
            let factory = |members: &[u32]| {
                let sub: Vec<Sink> = members.iter().map(|&i| sinks[i as usize]).collect();
                NearestNeighborObjective::new(&tech, &sub, device)
            };
            coarsened(sinks.len(), &mut global, factory, &params, &mut scratch);
        }
    }
    fnv1a(canonical_decision_log(scratch.decisions()).as_bytes())
}

fn coarsened<O, R, F>(
    n: usize,
    objective: &mut O,
    factory: F,
    params: &CoarsenParams,
    scratch: &mut CoarsenScratch,
) where
    O: MergeObjective,
    R: MergeObjective,
    F: Fn(&[u32]) -> R + Sync,
{
    run_greedy_coarsened(n, objective, factory, params, scratch).unwrap();
    assert_eq!(scratch.decisions().len(), n - 1, "one decision per merge");
}

/// Asserts the digest of `which` under `objective` at 1 and 2 threads.
fn check(which: TsayBenchmark, objective: Objective, want: u64) {
    for threads in [1, 2] {
        let got = digest(which, objective, threads);
        assert_eq!(
            got,
            want,
            "{} {objective:?} at {threads} thread(s): digest {got:016x}, pinned {want:016x}",
            which.name()
        );
    }
}

#[test]
fn r1_digests() {
    check(
        TsayBenchmark::R1,
        Objective::Equation3,
        0x82b2_e4e6_43d4_7afd,
    );
    check(
        TsayBenchmark::R1,
        Objective::NearestNeighbor,
        0xcd81_e261_a150_1151,
    );
}

#[test]
fn r2_digests() {
    check(
        TsayBenchmark::R2,
        Objective::Equation3,
        0xf0a4_efa9_9f21_3ea7,
    );
    check(
        TsayBenchmark::R2,
        Objective::NearestNeighbor,
        0x5859_55cc_fe16_5c43,
    );
}

#[test]
fn r3_digests() {
    check(
        TsayBenchmark::R3,
        Objective::Equation3,
        0xb294_bbc9_f1d0_dada,
    );
    check(
        TsayBenchmark::R3,
        Objective::NearestNeighbor,
        0x8c0b_3da5_f928_dabf,
    );
}

#[test]
fn r4_digests() {
    check(
        TsayBenchmark::R4,
        Objective::Equation3,
        0xaddd_31c1_cc1d_7e73,
    );
    check(
        TsayBenchmark::R4,
        Objective::NearestNeighbor,
        0x1b67_402c_63ba_16cd,
    );
}

#[test]
#[ignore = "release-mode scale check; run with --ignored"]
fn r5_digests() {
    check(
        TsayBenchmark::R5,
        Objective::Equation3,
        0xe035_038d_8d7c_dba8,
    );
    check(
        TsayBenchmark::R5,
        Objective::NearestNeighbor,
        0xa30c_adc0_4e2f_57e8,
    );
}

#[test]
#[ignore = "release-mode scale check (coarsened path); run with --ignored"]
fn r6_digests() {
    check(
        TsayBenchmark::R6,
        Objective::Equation3,
        0x9a0c_5ece_66b3_f4e9,
    );
    check(
        TsayBenchmark::R6,
        Objective::NearestNeighbor,
        0x067e_e4a8_dd8a_ebd6,
    );
}

#[test]
#[ignore = "release-mode scale check (300 000 sinks, coarsened path); run with --ignored"]
fn r7_digests() {
    check(
        TsayBenchmark::R7,
        Objective::Equation3,
        0xe421_5335_1683_3d24,
    );
    check(
        TsayBenchmark::R7,
        Objective::NearestNeighbor,
        0x67cb_36dc_272d_ed64,
    );
}

//! Pinned instruction-stream digests: the 64-bit FNV-1a of every cycle's
//! instruction index (as little-endian `u32` bytes) of
//! `CpuModel::generate_stream`, for the three `ActivityScenario` presets
//! (96 modules, seed 1998, 1 M cycles) and the default `WorkloadParams`
//! model of r1 and r4 (20 000 cycles), recorded before the table-driven
//! base sampler replaced the binary search. Any change to the base sampler,
//! the Markov step or the RNG call order that moves one cycle changes a
//! digest here. Each model's `trace_source`, drained in chunks of 1, 7
//! and 65 536 cycles, must reproduce the same digest.
// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_activity::{CpuModel, InstructionId, TraceSource};
use gcr_workloads::{ActivityScenario, TsayBenchmark, Workload, WorkloadParams};

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the cycles of `ids` into a running 64-bit FNV-1a.
fn fnv1a(mut h: u64, ids: &[InstructionId]) -> u64 {
    for id in ids {
        let index = u32::try_from(id.index()).unwrap();
        for b in index.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The model `Workload::generate` builds for `which` under the default
/// parameters.
fn workload_model(which: TsayBenchmark) -> CpuModel {
    let p = WorkloadParams::default();
    CpuModel::builder(Workload::num_modules_for(which.num_sinks()))
        .instructions(p.instructions)
        .usage_fraction(p.usage_fraction)
        .persistence(p.persistence)
        .groups(p.groups)
        .seed(p.seed)
        .build()
        .unwrap()
}

/// Digest of `len` cycles drained from the model's trace source in
/// chunks of `chunk` cycles.
fn drained_digest(model: &CpuModel, len: usize, chunk: usize) -> u64 {
    let mut source = model.trace_source(len as u64);
    let mut buf = vec![InstructionId::default(); chunk];
    let mut h = FNV_BASIS;
    let mut total = 0usize;
    loop {
        let n = source.next_chunk(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        h = fnv1a(h, &buf[..n]);
        total += n;
    }
    assert_eq!(total, len);
    h
}

fn check(name: &str, model: &CpuModel, len: usize, pinned: u64) {
    let stream = model.generate_stream(len);
    let got = fnv1a(FNV_BASIS, stream.instructions());
    assert_eq!(got, pinned, "{name}: stream digest {got:#018x}");
    for chunk in [1, 7, 65_536] {
        assert_eq!(
            drained_digest(model, len, chunk),
            pinned,
            "{name}: trace_source drained in chunks of {chunk}"
        );
    }
}

#[test]
fn scenario_streams_are_pinned() {
    let pins = [
        (ActivityScenario::Bursty, 0xd124_b070_27a2_93e0),
        (ActivityScenario::PhaseChanging, 0xe34c_d1e4_386c_8ddf),
        (ActivityScenario::LowPersistence, 0x4cfe_067b_50f7_3d78),
    ];
    for (scenario, pinned) in pins {
        let model = scenario.model(96, 1998).unwrap();
        check(scenario.name(), &model, 1_000_000, pinned);
    }
}

#[test]
fn workload_streams_are_pinned() {
    // The stream depends on the seed, K, the skew and the persistence,
    // not on the module count, so r1 and r4 share one digest.
    for (which, pinned) in [
        (TsayBenchmark::R1, 0xa6bd_0517_da6d_10c1),
        (TsayBenchmark::R4, 0xa6bd_0517_da6d_10c1),
    ] {
        let len = WorkloadParams::default().stream_len;
        check(which.name(), &workload_model(which), len, pinned);
    }
}

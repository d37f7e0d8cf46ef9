//! Drive the router from plain-text inputs — the paper's own Table-1 RTL
//! and a hand-written trace — then cross-check the analytic power numbers
//! with the cycle-accurate simulator. The second half scales the same
//! activity pipeline to a **multi-million-cycle trace streamed in bounded
//! memory**: a tracking global allocator proves the chunked scan never
//! materializes the trace, and the resulting tables are compared
//! bit-for-bit against the two-pass oracle — the process exits nonzero
//! on any mismatch or memory-bound violation, so this example doubles as
//! a CI smoke test of the streaming contract.
//!
//! Run with: `cargo run --release -p gcr-report --example trace_import`
// Test code: unwrap/expect on infallible setup is idiomatic here, in
// helpers as well as in #[test] functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]
// One allowed exception to the workspace unsafe ban (same as
// tests/zero_alloc.rs): the live-bytes tracking allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gcr_activity::{io, ActivityTables, Ift, InstructionId, Itmatt, ScanParams, ScanScratch};
use gcr_core::{
    evaluate_with_mask, reduce_gates_optimal, route_gated, simulate_stream, RouterConfig,
};
use gcr_cts::Sink;
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_workloads::ActivityScenario;

/// Global allocator that tracks live heap bytes and their high-water
/// mark, so the streaming section can *prove* its memory stays bounded
/// instead of asserting it rhetorically.
struct TrackingAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        PEAK_BYTES.fetch_max(live + layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        PEAK_BYTES.fetch_max(live + new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const RTL: &str = "
# Table 1 of Oh & Pedram, DATE 1998
I1: M1 M2 M3 M5
I2: M1 M4
I3: M2 M5 M6
I4: M3 M4
";

const TRACE: &str = "
I1 I2 I4 I1 I3 I2 I1 I1 I2 I1
I3 I1 I2 I3 I1 I1 I2 I2 I4 I2
";

/// Streamed trace length: long enough that materializing it (2 bytes per
/// cycle) would dwarf the scan's working set, short enough for CI.
const STREAM_CYCLES: u64 = 2_000_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rtl = io::parse_rtl(RTL, None)?;
    let stream = io::parse_trace(&rtl, TRACE)?;
    println!(
        "parsed {} instructions over {} modules; trace of {} cycles",
        rtl.num_instructions(),
        rtl.num_modules(),
        stream.len()
    );
    let tables = ActivityTables::scan(&rtl, &stream);

    // Six modules on a small die.
    let sinks: Vec<Sink> = [
        (1_000.0, 1_000.0),
        (5_000.0, 1_200.0),
        (1_500.0, 5_000.0),
        (5_200.0, 5_100.0),
        (3_000.0, 3_000.0),
        (5_500.0, 3_000.0),
    ]
    .iter()
    .map(|&(x, y)| Sink::new(Point::new(x, y), 0.05))
    .collect();
    let die = BBox::new(Point::ORIGIN, Point::new(6_000.0, 6_000.0));
    let tech = Technology::default();
    let config = RouterConfig::new(tech.clone(), die);

    let routing = route_gated(&sinks, &tables, &config)?;
    let mask = reduce_gates_optimal(&routing, &tech, config.controller());
    let analytic = evaluate_with_mask(
        &routing.tree,
        &routing.node_stats,
        config.controller(),
        &tech,
        &mask,
    );
    let simulated = simulate_stream(
        &routing.tree,
        &routing.node_modules,
        &mask,
        &rtl,
        &stream,
        config.controller(),
        &tech,
    );

    println!("analytic : {analytic}");
    println!(
        "simulated: W(T)={:.3}pF W(S)={:.3}pF total={:.3}pF over {} cycles",
        simulated.clock_switched_cap,
        simulated.control_switched_cap,
        simulated.total_switched_cap,
        simulated.cycles
    );
    let diff = (simulated.total_switched_cap - analytic.total_switched_cap).abs();
    println!("agreement: |simulated - analytic| = {diff:.2e} pF (exact by construction)");

    // ── Streaming at production scale ────────────────────────────────
    // The same tables, but from a 2-million-cycle scenario trace that is
    // never materialized: the CPU model generates chunk by chunk straight
    // into the scan's reused buffers. The tracking allocator's high-water
    // mark bounds the scan's transient memory against the size the trace
    // *would* occupy if collected.
    let scenario = ActivityScenario::PhaseChanging;
    let model = scenario.model(96, 17)?;
    let trace_bytes = STREAM_CYCLES * std::mem::size_of::<InstructionId>() as u64;
    println!(
        "\nstreaming {STREAM_CYCLES} cycles of the `{scenario}` scenario \
         ({}; materialized the trace would be {:.1} MiB)",
        scenario.description(),
        trace_bytes as f64 / (1024.0 * 1024.0),
    );

    let mut scratch = ScanScratch::new();
    let params = ScanParams::default(); // threads from GCR_THREADS
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live_before, Ordering::Relaxed);
    let t = Instant::now();
    let mut source = model.trace_source(STREAM_CYCLES);
    let (streamed, profile) =
        gcr_activity::scan_source(model.rtl(), &mut source, &params, &mut scratch)?;
    let wall = t.elapsed().as_secs_f64();
    let peak_delta = PEAK_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(live_before);
    println!(
        "streamed : {} cycles in {} chunks on {} thread(s), {:.2} s \
         ({:.1} Mcycles/s)",
        profile.cycles,
        profile.chunks,
        profile.threads,
        wall,
        profile.cycles_per_sec() / 1e6,
    );
    println!(
        "memory   : peak transient {:.2} MiB vs {:.1} MiB materialized \
         ({:.1}% of the trace)",
        peak_delta as f64 / (1024.0 * 1024.0),
        trace_bytes as f64 / (1024.0 * 1024.0),
        100.0 * peak_delta as f64 / trace_bytes as f64,
    );
    if peak_delta >= trace_bytes / 2 {
        return Err(format!(
            "streaming scan used {peak_delta} bytes at peak — not bounded \
             against the {trace_bytes}-byte materialized trace"
        )
        .into());
    }

    // Two-pass oracle: materialize the identical trace and count it the
    // classic way, cycles for the IFT and pairs for the ITMATT. The
    // streamed tables must match **bit for bit** — u64 counts merge
    // exactly, and the single final normalization performs the same f64
    // divides as the reference.
    let oracle_stream = model.generate_stream(STREAM_CYCLES as usize);
    let oracle_ift = Ift::scan(model.rtl(), &oracle_stream);
    let oracle_itmatt = Itmatt::scan(model.rtl(), &oracle_stream);
    if streamed.ift() != &oracle_ift || streamed.itmatt() != &oracle_itmatt {
        eprintln!("streamed tables diverge from the two-pass oracle");
        std::process::exit(1);
    }
    println!(
        "oracle   : two-pass scan of the materialized trace matches \
         bit-for-bit ({} nonzero ITMATT pairs)",
        streamed.itmatt().nonzero_len(),
    );
    Ok(())
}

//! `flow_bench` entry point: runs one workload and prints its result as
//! the last line of standard output. See the crate docs and `README.md`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use flow_bench::cli::{parse_args, USAGE};
use flow_bench::harness::{provenance, result_line, result_metrics, summarize, write_or_report};
use flow_bench::spans::chrome_json;
use flow_bench::{batch, daemon};

/// Pass-through allocator that counts allocation events, so the greedy
/// engine and the streaming scan can report their loop allocations.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter is a relaxed statistic that publishes
// no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_probe() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

fn main() -> ExitCode {
    gcr_cts::set_alloc_probe(alloc_probe);
    gcr_activity::set_alloc_probe(alloc_probe);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("flow_bench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let result = if args.workload.is_batch() {
        batch::run(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            threads,
            args.smoke,
        )
    } else {
        std::env::current_exe()
            .map_err(|e| format!("cannot locate the flow_bench executable: {e}"))
            .and_then(|exe| {
                daemon::run(
                    args.workload,
                    &exe.with_file_name("gcrd"),
                    args.seed,
                    args.seconds,
                    args.trace,
                    threads,
                    args.smoke,
                )
            })
    };
    let (outcome, spans) = match result {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("flow_bench: {}: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let stamp = provenance(args.workload.name(), args.seed, threads);
    let summary = summarize(&outcome.op_ms);
    let stamp_text: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let tail = summary
        .tail
        .map_or_else(|| "none".to_owned(), |(p, v)| format!("p{p}={v:.3}ms"));
    println!(
        "# flow_bench {} ops={} p50={:.3}ms tail={tail} setup_s={:.3}",
        stamp_text.join(" "),
        summary.n,
        summary.p50,
        outcome.setup_s
    );
    for e in &outcome.errors {
        eprintln!("flow_bench: FAIL: {e}");
    }
    let mut ok = outcome.failed == 0;
    if let Some(path) = &args.trace_out {
        ok &= write_or_report(path, &chrome_json(&spans, &stamp));
    }
    let metrics = result_metrics(&outcome, args.trace);
    println!(
        "{}",
        result_line(ok, outcome.attempted, outcome.failed, &metrics)
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Harness code shared by the `greedy_bench` and `activity_bench`
//! binaries: the counting global allocator behind their allocation
//! columns, and the output-file writer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator that counts allocation events (alloc +
/// realloc), so the engines can report how many their phases perform.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Feeds the counting allocator to [`gcr_trace::set_alloc_probe`], which
/// backs every engine's allocation profile.
pub fn install_alloc_probe() {
    gcr_trace::set_alloc_probe(|| ALLOC_EVENTS.load(Ordering::Relaxed));
}

/// Writes `contents` to `path`, reporting failure on stderr. The caller
/// must turn `false` into a nonzero exit status.
pub fn write_or_report(path: &str, contents: &str) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            false
        }
    }
}

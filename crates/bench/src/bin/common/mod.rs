//! Harness code shared by the `greedy_bench` and `activity_bench`
//! binaries: the counting global allocator behind their allocation
//! columns, the provenance stamp of their `params`, and the output-file
//! writer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
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

/// The provenance fields appended to a BENCH file's `params` object: the
/// resolved worker-thread count and the git revision of the working
/// directory (`unknown` outside a checkout). `bench_diff` ignores both.
pub fn provenance(threads: usize) -> String {
    format!(
        "\"threads\": {threads}, \"rev\": \"{}\"",
        git_revision(Path::new("."))
    )
}

/// The commit checked out under `root`, or `unknown` when `root` is not
/// a git checkout (or names something other than a plain revision).
pub fn git_revision(root: &Path) -> String {
    let read = |p: &str| {
        std::fs::read_to_string(root.join(".git").join(p))
            .ok()
            .map(|s| s.trim().to_owned())
    };
    let rev = read("HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(reference) => read(reference).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        }),
    });
    rev.filter(|r| !r.is_empty() && r.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_owned())
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

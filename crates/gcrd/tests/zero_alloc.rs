//! The daemon's warm-loop allocation gate: once a worker's reusable
//! scratch is warm, a forced re-route's merge loop performs **zero**
//! heap allocations — decision logging included — because the daemon
//! copies the decision log out of the scratch instead of stealing its
//! buffer.
//!
//! A counting global allocator feeds `gcr_trace::set_alloc_probe`; this
//! file holds exactly one `#[test]` because the counter is
//! process-global and any parallel test would pollute the window. The
//! service runs one worker with the engine pinned single-threaded, and
//! the client waits for each response before sending the next request,
//! so nothing else allocates during the measured merge loops.

// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
// The counting allocator is the one sanctioned unsafe exception (see
// the CI forbid-unsafe gate: crate roots forbid, test binaries may
// count allocations).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use gcr_trace::json::{self, Json};
use gcr_trace::Tracer;
use gcrd::{Service, ServiceConfig};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

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

fn alloc_probe() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

#[test]
fn warm_cache_bypass_route_has_zero_loop_allocs() {
    gcr_trace::set_alloc_probe(alloc_probe);
    let service = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            threads: Some(1),
            ..ServiceConfig::default()
        },
        Tracer::disabled(),
    )
    .unwrap();
    let addr = service.local_addr().unwrap().to_string();
    let daemon = thread::spawn(move || service.run());

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut loop_allocs = Vec::new();
    for i in 0..3 {
        // `force` bypasses the routing-cache read: every request runs
        // the full merge loop through the worker's (warming) scratch.
        let request = format!(
            "{{\"id\":\"za{i}\",\"cmd\":\"route\",\"benchmark\":\"r1\",\
             \"stream_len\":400,\"log\":true,\"force\":true}}\n"
        );
        stream.write_all(request.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let resp = json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        loop_allocs.push(
            resp.get("loop_allocs")
                .and_then(Json::as_f64)
                .expect("route response carries loop_allocs"),
        );
    }
    assert_eq!(
        loop_allocs[2], 0.0,
        "third forced route on a warm worker scratch must have a \
         zero-allocation merge loop (got {loop_allocs:?})"
    );

    stream
        .write_all(b"{\"id\":\"sd\",\"cmd\":\"shutdown\"}\n")
        .unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    daemon.join().unwrap();
}

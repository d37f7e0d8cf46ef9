//! The daemon itself: TCP acceptor, bounded work queue, blocking worker
//! pool, the per-key cache, counters, and graceful shutdown.
//!
//! ## Concurrency model
//!
//! One nonblocking acceptor loop (the thread that called
//! [`Service::run`]) spawns a thread per connection. A connection thread
//! parses each request line and answers it inline when no engine work is
//! needed: `ping` / `stats` / `shutdown`, and every non-forced `route` /
//! `evaluate` / `verify` whose key has a filled, unlocked cache slot — a
//! replay plus, for `verify`, the linear-time lint suite. Everything
//! else (misses, forced routes, `eco`, the debug commands) is enqueued
//! as a `Job` on the bounded queue. `workers` threads pop jobs and
//! compute through per-worker reusable engine scratch
//! ([`WorkerScratch`]) — so a warm worker's flat-engine merge loop
//! allocates nothing. A connection thread never builds a design or
//! routes, and it handles one request at a time. Responses go back
//! through a per-connection writer mutex, so a worker and the connection
//! thread never interleave bytes on one socket.
//!
//! ## One cache slot per design key
//!
//! A filled slot holds a key's design and its routing, so neither
//! outlives the other. A worker fills an empty slot while holding the
//! slot's lock (never the LRU's), so concurrent requests for the key
//! wait for that fill and are hits: each key is routed once. The
//! connection thread only `try_lock`s a slot and never waits.
//!
//! ## Backpressure and deadlines
//!
//! A full queue answers immediately with `status: "rejected"` and a
//! `retry_after_ms` hint — the daemon never blocks an enqueue on a slow
//! pool (the NDJSON analogue of HTTP 429 + Retry-After). Only engine
//! work is shed this way: a cache hit takes no queue slot. A request may
//! carry `deadline_ms`; if it spends longer than that *queued*, the
//! worker answers with an error instead of doing stale work. A hit
//! answered inline never queues, so its deadline cannot expire.
//!
//! ## Panics
//!
//! A panicking request is caught with [`std::panic::catch_unwind`], on a
//! worker or on a connection thread alike; the request is answered with
//! an error, the `gcrd.panics` counter is bumped, and serving continues
//! (a worker also discards its possibly inconsistent scratch for a fresh
//! one). A bug in one request's input never wedges the daemon. Every
//! shared lock is poison-tolerant ([`PoisonError::into_inner`]), so
//! even a panic at an unlucky point cannot poison another thread's
//! path; a panic or engine error while filling a slot leaves it empty,
//! and the next request for the key fills it again.
//!
//! ## Graceful shutdown
//!
//! `shutdown` flips the service into draining: new work, hits included,
//! is rejected (`"draining"`), queued, in-flight and inline requests
//! finish and are answered, then the shutdown request itself is answered
//! with the lifetime `drained` count and the acceptor and workers exit.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, TryLockError};
use std::thread;
use std::time::{Duration, Instant};

use gcr_trace::Tracer;
use gcr_workloads::TsayBenchmark;

use crate::cache::LruCache;
use crate::engine::{
    build_design, eco_design, route_design, verify_routing, DesignEntry, DesignKey, RoutingEntry,
    WorkerScratch,
};
use crate::protocol::{
    parse_request, Command, Request, Response, StatsSnapshot, MAX_LINE_BYTES, MAX_STREAM_LEN,
};

/// Service deployment knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads computing routings.
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with a retry hint.
    pub queue_capacity: usize,
    /// Cached design keys; each entry holds the design (parsed workload
    /// and scanned tables) and its routing (a hit is pure replay).
    pub cache: usize,
    /// Engine worker-thread count; `None` resolves once at startup via
    /// [`gcr_trace::threads::resolve`] and is pinned from then on —
    /// request handling never re-reads `GCR_THREADS`.
    pub threads: Option<usize>,
    /// `retry_after_ms` hint sent with backpressure rejections.
    pub retry_after_ms: u64,
    /// Default activity-stream length when a request omits `stream_len`.
    pub default_stream_len: usize,
    /// Default workload seed when a request omits `seed`.
    pub default_seed: u64,
    /// Enable the `sleep` / `panic` test commands. Never on by default.
    pub debug_commands: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            cache: 32,
            threads: None,
            retry_after_ms: 100,
            default_stream_len: 2_000,
            default_seed: 1_998,
            debug_commands: false,
        }
    }
}

/// Locks `m` tolerating poison: the daemon's shared state is counters
/// and cache slots whose invariants hold between operations, so a
/// panicking holder leaves them usable.
fn lock_tolerant<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Writes `line` and its newline in one `write_all`, so a reply is
    /// one write on the socket.
    fn send(&self, mut line: String) {
        line.push('\n');
        let mut guard = lock_tolerant(&self.stream);
        // A vanished client is its own problem; the daemon drops the
        // bytes and keeps serving everyone else.
        let _ = guard.write_all(line.as_bytes());
        let _ = guard.flush();
    }
}

struct Job {
    request: Request,
    enqueued: Instant,
    writer: Arc<ConnWriter>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Queue {
    capacity: usize,
    inner: Mutex<QueueInner>,
    cond: Condvar,
}

enum PushError {
    Full,
    Closed,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                open: true,
            }),
            cond: Condvar::new(),
        }
    }

    fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut inner = lock_tolerant(&self.inner);
        if !inner.open {
            return Err(PushError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and
    /// drained (the worker-exit signal).
    fn pop(&self) -> Option<Job> {
        let mut inner = lock_tolerant(&self.inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if !inner.open {
                return None;
            }
            inner = self
                .cond
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock_tolerant(&self.inner).open = false;
        self.cond.notify_all();
    }

    fn depth(&self) -> usize {
        lock_tolerant(&self.inner).jobs.len()
    }
}

/// A filled cache slot: one design key's design and its routing.
struct Entry {
    design: Arc<DesignEntry>,
    routing: Arc<RoutingEntry>,
}

/// One design key's cache slot, empty until a worker fills it while
/// holding its lock.
type Slot = Arc<Mutex<Option<Arc<Entry>>>>;

struct Shared {
    config: ServiceConfig,
    /// Engine thread count, resolved exactly once at startup.
    threads: usize,
    tracer: Tracer,
    queue: Queue,
    cache: Mutex<LruCache<Slot>>,
    /// Work requests accepted (enqueued or being answered inline) but
    /// not yet answered. Bumped *before* the queue push or the inline
    /// lookup, so `draining && outstanding == 0` means truly idle.
    outstanding: AtomicU64,
    draining: AtomicBool,
    stopped: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    panics: AtomicU64,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            inflight: self.outstanding.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            queue_depth: self.queue.depth() as u64,
        }
    }
}

/// A bound, not-yet-running daemon. [`Service::run`] blocks until a
/// `shutdown` request completes; tests spawn it on a thread and talk to
/// [`Service::local_addr`] over real TCP.
pub struct Service {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Service {
    /// Binds `addr` (e.g. `"127.0.0.1:4517"` or `"127.0.0.1:0"`) and
    /// resolves the engine thread count once — the only environment
    /// read the daemon ever performs for threading.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        tracer: Tracer,
    ) -> std::io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let threads = gcr_trace::threads::resolve(config.threads, "gcrd.threads", &tracer);
        let shared = Arc::new(Shared {
            threads,
            queue: Queue::new(config.queue_capacity),
            cache: Mutex::new(LruCache::new(config.cache)),
            outstanding: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            tracer,
            config,
        });
        Ok(Service { listener, shared })
    }

    /// The bound address (read the ephemeral port back after `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon: spawns the worker pool, accepts connections,
    /// and returns after a `shutdown` request has drained all in-flight
    /// work and every worker has exited.
    pub fn run(self) {
        let Service { listener, shared } = self;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .filter_map(|i| {
                let s = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gcrd-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .ok()
            })
            .collect();
        if listener.set_nonblocking(true).is_err() {
            shared.stopped.store(true, Ordering::SeqCst);
        }
        while !shared.stopped.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let s = Arc::clone(&shared);
                    let _ = thread::Builder::new()
                        .name("gcrd-conn".to_owned())
                        .spawn(move || connection_loop(&s, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        }
        shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
    }
}

/// Consumes buffered input up to and including the next newline.
/// Returns `false` on EOF or a read error.
fn skip_to_newline(reader: &mut impl BufRead) -> bool {
    loop {
        let (found, used) = {
            let Ok(buf) = reader.fill_buf() else {
                return false;
            };
            if buf.is_empty() {
                return false;
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => (true, i + 1),
                None => (false, buf.len()),
            }
        };
        reader.consume(used);
        if found {
            return true;
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    // Inline replies (the verifier among them) trace to the daemon's
    // tracer, as a worker's engine calls do.
    let _entered = shared.tracer.enter();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(write_half),
    });
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        let mut limited = std::io::Read::take(&mut reader, MAX_LINE_BYTES as u64 + 1);
        match limited.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => return,
        }
        if line.len() > MAX_LINE_BYTES {
            writer.send(
                Response::error("", format!("request line exceeds {MAX_LINE_BYTES} bytes"))
                    .render(),
            );
            if !skip_to_newline(&mut reader) {
                return;
            }
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        handle_line(shared, trimmed, &writer);
        if shared.stopped.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn handle_line(shared: &Arc<Shared>, line: &str, writer: &Arc<ConnWriter>) {
    let parse_start = shared.tracer.now_ns();
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            writer.send(Response::error("", msg).render());
            return;
        }
    };
    shared.tracer.complete_span(
        "gcrd.parse",
        parse_start,
        shared.tracer.now_ns() - parse_start,
    );
    match request.cmd {
        Command::Ping => {
            let mut resp = Response::ok(&request.id);
            resp.cmd = Some("ping");
            writer.send(resp.render());
        }
        Command::Stats => {
            let mut resp = Response::ok(&request.id);
            resp.cmd = Some("stats");
            resp.stats = Some(shared.snapshot());
            writer.send(resp.render());
        }
        Command::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            while shared.outstanding.load(Ordering::SeqCst) != 0 {
                thread::sleep(Duration::from_millis(2));
            }
            let mut resp = Response::ok(&request.id);
            resp.cmd = Some("shutdown");
            resp.drained = Some(shared.completed.load(Ordering::Relaxed));
            writer.send(resp.render());
            shared.stopped.store(true, Ordering::SeqCst);
            shared.queue.close();
        }
        Command::Route | Command::Evaluate | Command::Verify if !request.force => {
            if !answer_hit(shared, &request, writer) {
                enqueue_work(shared, request, writer);
            }
        }
        _ => enqueue_work(shared, request, writer),
    }
}

/// Answers `request` on the connection thread if it is a cache hit: its
/// key's slot is filled and not locked by a worker. Returns `false`,
/// having sent nothing, when the service is draining or the slot is
/// missing, empty or busy; the caller then enqueues the request, and
/// the worker's lookup counts the hit or miss.
fn answer_hit(shared: &Shared, request: &Request, writer: &ConnWriter) -> bool {
    // Bumped before the draining check, so a `shutdown` that saw
    // `outstanding == 0` is seen here as draining.
    shared.outstanding.fetch_add(1, Ordering::SeqCst);
    if shared.draining.load(Ordering::SeqCst) {
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    let start = shared.tracer.now_ns();
    let response = match catch_unwind(AssertUnwindSafe(|| cached_reply(shared, request))) {
        Ok(Some(resp)) => resp,
        Ok(None) => {
            shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        Err(_) => panicked(shared, &request.id),
    };
    finish(shared, writer, start, response);
    true
}

/// The reply to a non-forced `route` / `evaluate` / `verify` built from
/// the cache alone, or `None` if its key's slot is missing, empty or
/// locked by a worker.
fn cached_reply(shared: &Shared, request: &Request) -> Option<Response> {
    let key = design_key(shared, request).ok()?;
    let canonical = key.canonical();
    let hash = key.hash();
    let cache_start = shared.tracer.now_ns();
    let slot = lock_tolerant(&shared.cache).get(hash, &canonical)?;
    let entry = match slot.try_lock() {
        Ok(filled) => filled.clone(),
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner().clone(),
        Err(TryLockError::WouldBlock) => None,
    }?;
    count_hit(shared, cache_start);
    Some(routing_reply(request, key, &entry, true))
}

/// Counts a panic while answering request `id` and returns its reply.
fn panicked(shared: &Shared, id: &str) -> Response {
    shared.panics.fetch_add(1, Ordering::Relaxed);
    shared
        .tracer
        .counter("gcrd.panics", shared.panics.load(Ordering::Relaxed) as f64);
    Response::error(id, "worker panicked while handling request")
}

/// Sends the reply to an accepted request whose handling began at
/// `start`, records its `gcrd.respond` and `gcrd.request` spans, and
/// retires it from `outstanding` into `completed`.
fn finish(shared: &Shared, writer: &ConnWriter, start: u64, response: Response) {
    let respond_start = shared.tracer.now_ns();
    writer.send(response.render());
    let end = shared.tracer.now_ns();
    shared
        .tracer
        .complete_span("gcrd.respond", respond_start, end - respond_start);
    shared
        .tracer
        .complete_span("gcrd.request", start, end - start);
    shared.outstanding.fetch_sub(1, Ordering::SeqCst);
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.tracer.counter(
        "gcrd.completed",
        shared.completed.load(Ordering::Relaxed) as f64,
    );
    shared.tracer.counter(
        "gcrd.inflight",
        shared.outstanding.load(Ordering::Relaxed) as f64,
    );
}

fn enqueue_work(shared: &Arc<Shared>, request: Request, writer: &Arc<ConnWriter>) {
    if matches!(request.cmd, Command::Sleep | Command::Panic) && !shared.config.debug_commands {
        writer.send(
            Response::error(
                &request.id,
                format!("{:?} requires debug_commands", request.cmd.name()),
            )
            .render(),
        );
        return;
    }
    if shared.draining.load(Ordering::SeqCst) {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        shared.tracer.counter(
            "gcrd.rejected",
            shared.rejected.load(Ordering::Relaxed) as f64,
        );
        writer.send(
            Response::rejected(&request.id, "draining", shared.config.retry_after_ms).render(),
        );
        return;
    }
    let id = request.id.clone();
    shared.outstanding.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        request,
        enqueued: Instant::now(),
        writer: Arc::clone(writer),
    };
    if let Err(err) = shared.queue.try_push(job) {
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        shared.tracer.counter(
            "gcrd.rejected",
            shared.rejected.load(Ordering::Relaxed) as f64,
        );
        let reason = match err {
            PushError::Full => "queue full",
            PushError::Closed => "draining",
        };
        writer.send(Response::rejected(&id, reason, shared.config.retry_after_ms).render());
    } else {
        shared.tracer.counter(
            "gcrd.inflight",
            shared.outstanding.load(Ordering::Relaxed) as f64,
        );
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    // Every engine this worker calls traces to the daemon's tracer.
    let _entered = shared.tracer.enter();
    let mut scratch = WorkerScratch::new();
    while let Some(job) = shared.queue.pop() {
        let start = shared.tracer.now_ns();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_job(shared, &job.request, job.enqueued, &mut scratch)
        }));
        let response = outcome.unwrap_or_else(|_| {
            // The scratch may be mid-mutation; replace it rather than
            // risk a poisoned arena on the next request.
            scratch = WorkerScratch::new();
            panicked(shared, &job.request.id)
        });
        finish(shared, &job.writer, start, response);
    }
}

fn design_key(shared: &Shared, request: &Request) -> Result<DesignKey, String> {
    let name = request
        .benchmark
        .as_deref()
        .ok_or("missing \"benchmark\"")?;
    let benchmark =
        TsayBenchmark::from_name(name).ok_or_else(|| format!("unknown benchmark {name:?}"))?;
    let stream_len = request
        .stream_len
        .unwrap_or(shared.config.default_stream_len);
    if stream_len < 2 {
        return Err(format!("stream_len {stream_len} is below the minimum 2"));
    }
    if stream_len > MAX_STREAM_LEN {
        return Err(format!(
            "stream_len {stream_len} exceeds the maximum {MAX_STREAM_LEN}"
        ));
    }
    Ok(DesignKey {
        benchmark,
        stream_len,
        seed: request.seed.unwrap_or(shared.config.default_seed),
    })
}

/// Fetches (or builds, routes and caches) the entry for `key`. Returns
/// the entry plus whether it was a cache hit; a request that waited for
/// another worker's fill of the key is a hit. `force` re-routes a filled
/// slot's design and then stores the new routing.
fn entry_for(
    shared: &Shared,
    key: DesignKey,
    force: bool,
    scratch: &mut WorkerScratch,
) -> Result<(Arc<Entry>, bool), String> {
    let canonical = key.canonical();
    let hash = key.hash();
    let cache_start = shared.tracer.now_ns();
    let slot = {
        let mut cache = lock_tolerant(&shared.cache);
        match cache.get(hash, &canonical) {
            Some(slot) => slot,
            None => {
                let slot = Slot::default();
                cache.insert(hash, &canonical, Arc::clone(&slot));
                slot
            }
        }
    };
    let filled = lock_tolerant(&slot);
    let cached = filled.clone();
    if let (Some(entry), false) = (&cached, force) {
        drop(filled);
        count_hit(shared, cache_start);
        return Ok((Arc::clone(entry), true));
    }
    shared.tracer.complete_span(
        "gcrd.cache",
        cache_start,
        shared.tracer.now_ns() - cache_start,
    );
    // An empty slot stays locked while it is filled, so requests for the
    // key wait for this fill instead of routing it again; a forced route
    // releases its slot, so hits keep replaying the old entry meanwhile.
    let (design, filling) = match cached {
        Some(entry) => {
            drop(filled);
            (Arc::clone(&entry.design), None)
        }
        None => (Arc::new(build_design(key)?), Some(filled)),
    };
    let route_start = shared.tracer.now_ns();
    let routing = Arc::new(route_design(&design, shared.threads, scratch)?);
    shared.tracer.complete_span(
        "gcrd.route",
        route_start,
        shared.tracer.now_ns() - route_start,
    );
    shared.misses.fetch_add(1, Ordering::Relaxed);
    shared
        .tracer
        .counter("gcrd.misses", shared.misses.load(Ordering::Relaxed) as f64);
    let entry = Arc::new(Entry { design, routing });
    *filling.unwrap_or_else(|| lock_tolerant(&slot)) = Some(Arc::clone(&entry));
    Ok((entry, false))
}

/// Counts a cache hit and records its `gcrd.cache` span, begun at
/// `cache_start`.
fn count_hit(shared: &Shared, cache_start: u64) {
    shared.hits.fetch_add(1, Ordering::Relaxed);
    shared
        .tracer
        .counter("gcrd.hits", shared.hits.load(Ordering::Relaxed) as f64);
    shared.tracer.complete_span(
        "gcrd.cache",
        cache_start,
        shared.tracer.now_ns() - cache_start,
    );
}

/// The reply to a `route` / `evaluate` / `verify` request answered from
/// `entry`, on a worker or inline alike; a `verify` reply runs the lint
/// suite over the entry's routing.
fn routing_reply(request: &Request, key: DesignKey, entry: &Entry, hit: bool) -> Response {
    let routing = &entry.routing;
    let mut resp = Response::ok(&request.id);
    resp.cmd = Some(request.cmd.name());
    resp.cache = Some(if hit { "hit" } else { "miss" });
    resp.benchmark = Some(key.benchmark.name().to_owned());
    resp.sinks = Some(key.benchmark.num_sinks() as u64);
    resp.merges = Some(routing.decisions.len() as u64);
    resp.loop_allocs = Some(routing.loop_allocs);
    resp.log_hash = Some(routing.log_hash);
    if request.want_log {
        resp.decision_log = Some(Arc::clone(&routing.log));
    }
    resp.total_switched_cap = Some(routing.report.total_switched_cap);
    resp.clock_switched_cap = Some(routing.report.clock_switched_cap);
    resp.control_switched_cap = Some(routing.report.control_switched_cap);
    if request.cmd == Command::Evaluate {
        resp.total_area = Some(routing.report.total_area);
        resp.num_devices = Some(routing.report.num_devices as u64);
    }
    if request.cmd == Command::Verify {
        let (errors, warns) = verify_routing(&entry.design, routing);
        resp.verify_errors = Some(errors);
        resp.verify_warnings = Some(warns);
    }
    resp
}

/// The reply to a `route` / `evaluate` / `verify` / `eco` request on a
/// worker; an `eco` re-routes its key's cached entry incrementally,
/// outside every lock.
fn engine_reply(
    shared: &Shared,
    request: &Request,
    scratch: &mut WorkerScratch,
) -> Result<Response, String> {
    let key = design_key(shared, request)?;
    let eco = request.cmd == Command::Eco;
    let (entry, hit) = entry_for(shared, key, request.force && !eco, scratch)?;
    if !eco {
        return Ok(routing_reply(request, key, &entry, hit));
    }
    let answer = eco_design(&entry.design, &entry.routing, &request.edits, scratch)?;
    let mut resp = Response::ok(&request.id);
    resp.cmd = Some("eco");
    resp.cache = Some(if hit { "hit" } else { "miss" });
    resp.benchmark = Some(key.benchmark.name().to_owned());
    resp.pure_replay = Some(answer.outcome.pure_replay);
    resp.replayed = Some(answer.outcome.replayed as u64);
    resp.spliced = Some(answer.outcome.spliced as u64);
    resp.dirty_nodes = Some(answer.outcome.dirty_nodes.len() as u64);
    resp.loop_allocs = Some(answer.outcome.profile.loop_allocs);
    resp.total_switched_cap = Some(answer.report.total_switched_cap);
    resp.clock_switched_cap = Some(answer.report.clock_switched_cap);
    resp.control_switched_cap = Some(answer.report.control_switched_cap);
    Ok(resp)
}

fn handle_job(
    shared: &Shared,
    request: &Request,
    enqueued: Instant,
    scratch: &mut WorkerScratch,
) -> Response {
    if let Some(deadline) = request.deadline_ms {
        if enqueued.elapsed() > Duration::from_millis(deadline) {
            return Response::error(
                &request.id,
                format!("deadline of {deadline}ms exceeded while queued"),
            );
        }
    }
    match request.cmd {
        Command::Sleep => {
            thread::sleep(Duration::from_millis(request.sleep_ms));
            let mut resp = Response::ok(&request.id);
            resp.cmd = Some("sleep");
            resp
        }
        Command::Panic => panic!("injected test panic"),
        Command::Route | Command::Evaluate | Command::Verify | Command::Eco => {
            engine_reply(shared, request, scratch)
                .unwrap_or_else(|msg| Response::error(&request.id, msg))
        }
        // Inline commands never reach the queue.
        Command::Ping | Command::Stats | Command::Shutdown => {
            Response::error(&request.id, "control command on worker path")
        }
    }
}

//! The serving core: bounded admission, deadline shedding, fair
//! dispatch, graceful drain, and hot catalog reload.
//!
//! Threading model (std-only, no async runtime):
//!
//! ```text
//! accept thread ──► reader thread per connection ──► admission queue
//!                                                        │ (bounded,
//!                                                        │  round-robin)
//!                                   worker pool ◄────────┘
//!                                        │
//!                            responses via per-connection writer mutex
//! ```
//!
//! Overload never blocks: a full queue sheds with `EXRQ0006`, an
//! expired deadline sheds with `EXRQ0007` (before *or* during
//! execution — the deadline rides into the engine's budget meter), and
//! a draining server refuses with `EXRQ0008`. Every rejection is a
//! typed response, not a hang.
//!
//! Catalog reload is zero-downtime: `load` parses into a staging
//! builder under a load-serialization lock while queries keep cloning
//! the *previous* [`Executor`] snapshot; the swap itself holds the
//! snapshot write lock only long enough to replace one pointer.
//!
//! Fault containment has two layers (see DESIGN.md "Fault containment &
//! self-healing"):
//!
//! 1. **`catch_unwind` at the job boundary** — a panic anywhere in a
//!    query or load answers `EXRQ0009` and the worker takes the next
//!    job; a drop guard releases the job's in-flight accounting even
//!    during the unwind, and a canary probe checks the default snapshot
//!    still answers.
//! 2. **Poison-recovering locks** — every shared mutex recovers from
//!    `PoisonError` instead of propagating it, so a single crash never
//!    cascades into every later lock acquisition.
//!
//! Counters reconcile at all times:
//! `admitted == completed + failed + shed_deadline + drained + crashed`
//! (see [`StatsSnapshot::reconciles`]).

use crate::chaos::ChaosState;
use crate::json::Value;
use crate::proto::{err_response, ok_response, parse_request, Op, MAX_LINE_BYTES};
use exrquy::{Error, Executor, QueryOptions, RunOptions, Session};
use exrquy_diag::{CancellationToken, ErrorCode, Failpoints, MemoryGauge};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Lock a mutex, recovering from poisoning. Shared serving state stays
/// structurally valid across a panicking lock holder (counters and
/// collections are updated in place, never left half-rebuilt), and with
/// panics contained per job, a poisoned lock must degrade to "keep
/// serving", not "every future request panics too".
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for a daemon instance. `Default` matches the CLI
/// defaults documented in `xqd --help`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Worker pool size (queries + loads execute here).
    pub workers: usize,
    /// Global admission-queue bound; beyond it requests shed `EXRQ0006`.
    pub queue_capacity: usize,
    /// Per-client in-flight cap — one chatty connection cannot occupy
    /// the whole pool while others starve.
    pub max_inflight_per_client: usize,
    /// How long drain waits for in-flight work before cancelling it.
    pub drain_grace: Duration,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Deterministic fault injection, re-armed per request.
    pub failpoints: Failpoints,
    /// Scheduler workers per request: independent operators of one plan
    /// run concurrently (0 = serial evaluation). Request-level
    /// concurrency comes from `workers`.
    pub threads: usize,
    /// Plan-cache capacity override for freshly swapped catalogs.
    pub plan_cache: Option<usize>,
    /// Memory high-watermark in bytes over the approximate
    /// constructed-node footprint of all in-flight requests. Above it,
    /// runnable work stays queued (already-expired jobs still shed
    /// cheaply) until in-flight executions release memory. `None`
    /// disables the governor.
    pub mem_watermark: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_inflight_per_client: 2,
            drain_grace: Duration::from_millis(2_000),
            default_deadline: None,
            failpoints: Failpoints::none(),
            threads: 0,
            plan_cache: None,
            mem_watermark: None,
        }
    }
}

/// Monotonic serving counters; every shed path is individually visible
/// so the chaos soak can assert "rejected, not wedged".
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    active_connections: AtomicU64,
    received: AtomicU64,
    proto_errors: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_draining: AtomicU64,
    queue_peak: AtomicU64,
    loads: AtomicU64,
    /// Jobs (queries or loads) that panicked, caught at the job
    /// boundary and answered `EXRQ0009`.
    crashed: AtomicU64,
    /// Admitted requests shed from the queue at drain time (the
    /// dispatch-time refusal of *unadmitted* work stays in
    /// `shed_draining`, so admission arithmetic reconciles).
    drained: AtomicU64,
    /// Times a worker found only memory-deferred work (watermark
    /// governor held runnable jobs back).
    mem_deferred: AtomicU64,
}

/// Point-in-time view of the counters, exposed via the `stats` op and
/// [`ServerHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub connections: u64,
    pub active_connections: u64,
    pub received: u64,
    pub proto_errors: u64,
    pub admitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed_overload: u64,
    pub shed_deadline: u64,
    pub shed_draining: u64,
    pub queue_depth: u64,
    pub queue_peak: u64,
    pub loads: u64,
    pub crashed: u64,
    pub drained: u64,
    pub mem_deferred: u64,
    pub mem_inflight_bytes: u64,
    pub mem_peak_bytes: u64,
}

impl StatsSnapshot {
    /// Total requests shed (any reason) — the "no hangs" denominator.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_deadline + self.shed_draining + self.drained
    }

    /// The admission ledger balances: every admitted request is
    /// accounted exactly once as completed, failed, deadline-shed,
    /// drain-shed, or crashed. (`shed_overload` and `shed_draining`
    /// refuse *before* admission, so they are outside the ledger.)
    /// Only meaningful when nothing is queued or in flight.
    pub fn reconciles(&self) -> bool {
        self.admitted
            == self.completed + self.failed + self.shed_deadline + self.drained + self.crashed
    }
}

/// One admitted unit of work.
struct Job {
    client: u64,
    id: Value,
    op: Op,
    deadline: Option<Instant>,
    cancel: CancellationToken,
    writer: Arc<ConnWriter>,
}

/// Admission state: per-client FIFO queues plus a round-robin rotation
/// of clients with pending work. Fairness is by *client*, not by
/// arrival order — a burst from one connection cannot starve others.
#[derive(Default)]
struct Sched {
    queues: HashMap<u64, VecDeque<Job>>,
    rotation: VecDeque<u64>,
    queued: usize,
    /// One entry per dequeued job not yet finished: its client, for the
    /// per-client in-flight cap, and its cancellation token, cancelled
    /// when the drain grace period expires.
    running: Vec<(u64, CancellationToken)>,
    stopped: bool,
}

/// One named catalog beyond the default: its staging session plus the
/// executor snapshot queries routed at it will clone. Same split as the
/// default `exec`/`loader` pair on [`Shared`].
struct NamedCatalog {
    exec: RwLock<Executor>,
    loader: Mutex<Session>,
}

struct Shared {
    cfg: ServerConfig,
    /// Current executor snapshot; queries clone it (two `Arc` bumps) and
    /// run lock-free afterwards.
    exec: RwLock<Executor>,
    /// Serializes catalog loads; owns the staging session.
    loader: Mutex<Session>,
    /// Named catalogs, created lazily by the first `load` that names
    /// one. Queries carrying a `catalog` field route here; the map lock
    /// is held only long enough to clone the entry's `Arc`.
    catalogs: RwLock<HashMap<String, Arc<NamedCatalog>>>,
    sched: Mutex<Sched>,
    work_ready: Condvar,
    draining: AtomicBool,
    /// Catalog loads staging right now, into any catalog — `/ready` is
    /// off while any is (see [`LoadGuard`]).
    loads_in_flight: AtomicUsize,
    stop_readers: AtomicBool,
    shutdown_requested: AtomicBool,
    shutdown_cv: Condvar,
    shutdown_mx: Mutex<()>,
    counters: Counters,
    /// Shared memory gauge for the watermark governor; every in-flight
    /// engine publishes its constructed-node bytes here.
    gauge: MemoryGauge,
    started_at: Instant,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let queued = lock_recover(&self.sched).queued as u64;
        let c = &self.counters;
        StatsSnapshot {
            connections: c.connections.load(Ordering::Relaxed),
            active_connections: c.active_connections.load(Ordering::Relaxed),
            received: c.received.load(Ordering::Relaxed),
            proto_errors: c.proto_errors.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed_overload: c.shed_overload.load(Ordering::Relaxed),
            shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
            shed_draining: c.shed_draining.load(Ordering::Relaxed),
            queue_depth: queued,
            queue_peak: c.queue_peak.load(Ordering::Relaxed),
            loads: c.loads.load(Ordering::Relaxed),
            crashed: c.crashed.load(Ordering::Relaxed),
            drained: c.drained.load(Ordering::Relaxed),
            mem_deferred: c.mem_deferred.load(Ordering::Relaxed),
            mem_inflight_bytes: self.gauge.bytes_in_flight() as u64,
            mem_peak_bytes: self.gauge.peak_bytes() as u64,
        }
    }

    fn request_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.shutdown_requested.store(true, Ordering::SeqCst);
        let _guard = lock_recover(&self.shutdown_mx);
        self.shutdown_cv.notify_all();
    }
}

/// Per-connection serialized writer. Workers and the reader thread both
/// respond through this, so response lines never interleave. Carries
/// the connection's chaos-transport state when `net-*` failpoints are
/// armed.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    chaos: Option<Arc<ChaosState>>,
}

impl ConnWriter {
    /// Best-effort write; a dead client is not an error worth handling
    /// beyond dropping the bytes.
    fn send(&self, line: &str) {
        // One frame, one write: a line and its terminator sent as two
        // segments would leave the second waiting out the peer's
        // delayed ACK.
        let frame = format!("{line}\n");
        let mut guard = lock_recover(&self.stream);
        let _ = match &self.chaos {
            None => guard
                .write_all(frame.as_bytes())
                .and_then(|()| guard.flush()),
            Some(chaos) => chaos.write_frame(&mut guard, frame.as_bytes()),
        };
    }
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves threads running; tests and the
/// binary always drain explicitly.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// True once a `shutdown` op or [`request_shutdown`] fired.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Trigger drain from outside the protocol (SIGTERM path).
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until shutdown is requested (protocol `shutdown` op or
    /// [`request_shutdown`]), polling `interrupted` so a signal flag can
    /// break the wait.
    pub fn wait_for_shutdown(&self, interrupted: impl Fn() -> bool) {
        let mut guard = lock_recover(&self.shared.shutdown_mx);
        while !self.shared.shutdown_requested.load(Ordering::SeqCst) && !interrupted() {
            let (g, _) = self
                .shared
                .shutdown_cv
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }

    /// Drain and stop: refuse new work, shed the queue with `EXRQ0008`,
    /// give in-flight requests `drain_grace` to finish, cancel whatever
    /// is still running, then join every thread. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        let shared = Arc::clone(&self.shared);
        shared.request_shutdown();

        // Shed everything still queued — typed refusal, not silence.
        // These were *admitted*, so they count as `drained`, keeping the
        // admission ledger in balance.
        {
            let mut sched = lock_recover(&shared.sched);
            for (_, queue) in sched.queues.iter_mut() {
                for job in queue.drain(..) {
                    shared.counters.drained.fetch_add(1, Ordering::Relaxed);
                    job.writer.send(&err_response(
                        &job.id,
                        ErrorCode::EXRQ0008.as_str(),
                        "server draining: request rejected during shutdown",
                    ));
                }
            }
            sched.queues.clear();
            sched.rotation.clear();
            sched.queued = 0;
            shared.work_ready.notify_all();
        }

        // Grace period for in-flight work.
        let deadline = Instant::now() + shared.cfg.drain_grace;
        {
            let mut sched = lock_recover(&shared.sched);
            while !sched.running.is_empty() && Instant::now() < deadline {
                let timeout = deadline.saturating_duration_since(Instant::now());
                let (g, _) = shared
                    .work_ready
                    .wait_timeout(sched, timeout)
                    .unwrap_or_else(PoisonError::into_inner);
                sched = g;
            }
        }

        // Grace expired: cancel stragglers, then wait for them to yield
        // at the next budget poll.
        for (_, token) in &lock_recover(&shared.sched).running {
            token.cancel();
        }
        {
            let hard_stop = Instant::now() + shared.cfg.drain_grace;
            let mut sched = lock_recover(&shared.sched);
            while !sched.running.is_empty() && Instant::now() < hard_stop {
                let timeout = hard_stop.saturating_duration_since(Instant::now());
                let (g, _) = shared
                    .work_ready
                    .wait_timeout(sched, timeout)
                    .unwrap_or_else(PoisonError::into_inner);
                sched = g;
            }
        }

        // Stop accepting before stopping the pool. The workers then exit
        // last, and glibc hands the arena a thread releases to the next
        // thread created, so a daemon spawned after this one in the same
        // process gives its workers the heap these workers grew instead
        // of growing a fresh one.
        shared.stop_readers.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.accept_thread.take() {
            let _ = acceptor.join();
        }
        {
            let mut sched = lock_recover(&shared.sched);
            sched.stopped = true;
            shared.work_ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let readers = std::mem::take(&mut *lock_recover(&self.readers));
        for reader in readers {
            let _ = reader.join();
        }
        shared.snapshot()
    }
}

/// Bind, spawn the pool, and start accepting. `session` supplies the
/// initial catalog (documents already loaded) and stays on as the
/// staging area for `load` ops.
pub fn spawn(cfg: ServerConfig, session: Session) -> io::Result<ServerHandle> {
    let session = staging_session(&cfg, session);
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        exec: RwLock::new(session.executor().clone()),
        loader: Mutex::new(session),
        catalogs: RwLock::new(HashMap::new()),
        sched: Mutex::new(Sched::default()),
        work_ready: Condvar::new(),
        draining: AtomicBool::new(false),
        loads_in_flight: AtomicUsize::new(0),
        stop_readers: AtomicBool::new(false),
        shutdown_requested: AtomicBool::new(false),
        shutdown_cv: Condvar::new(),
        shutdown_mx: Mutex::new(()),
        counters: Counters::default(),
        gauge: MemoryGauge::new(),
        started_at: Instant::now(),
        cfg,
    });

    let workers = (0..shared.cfg.workers.max(1))
        .map(|n| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("xqd-worker-{n}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let readers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_shared = Arc::clone(&shared);
    let accept_readers = Arc::clone(&readers);
    let accept_thread = thread::Builder::new()
        .name("xqd-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared, accept_readers))?;

    Ok(ServerHandle {
        shared,
        addr,
        accept_thread: Some(accept_thread),
        workers,
        readers,
    })
}

/// Apply the daemon's session settings — plan-cache capacity and
/// failpoints — to a staging session: the default catalog's and every
/// named catalog's alike.
fn staging_session(cfg: &ServerConfig, mut session: Session) -> Session {
    if let Some(capacity) = cfg.plan_cache {
        session.set_plan_cache_capacity(capacity);
    }
    session.set_failpoints(cfg.failpoints.clone());
    session
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    readers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    let mut next_client = 0u64;
    loop {
        if shared.stop_readers.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                next_client += 1;
                let client = next_client;
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .active_connections
                    .fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name(format!("xqd-conn-{client}"))
                    .spawn(move || {
                        connection_loop(conn_shared.as_ref(), stream, client);
                    });
                match handle {
                    Ok(h) => lock_recover(&readers).push(h),
                    Err(_) => {
                        // Thread spawn failed (resource exhaustion):
                        // shed the connection rather than wedging.
                        shared
                            .counters
                            .active_connections
                            .fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Outcome of pulling one line off a connection.
enum Line {
    /// A complete line within the size cap.
    Full(String),
    /// The line blew past [`MAX_LINE_BYTES`]; the excess was *discarded
    /// in bounded chunks*, never buffered.
    TooLong,
    /// Peer closed (EOF or reset) or the server is stopping.
    Closed,
}

fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
    chaos: Option<&ChaosState>,
) -> Line {
    // Chaos read-delay fires per line read, not per poll iteration, so
    // the per-connection counter stays deterministic.
    if let Some(chaos) = chaos {
        chaos.before_read();
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        if shared.stop_readers.load(Ordering::SeqCst) {
            return Line::Closed;
        }
        let (copied, done) = {
            let available = match reader.fill_buf() {
                Ok([]) => return Line::Closed,
                Ok(data) => data,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Line::Closed,
            };
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !discarding {
                        buf.extend_from_slice(&available[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if !discarding {
                        buf.extend_from_slice(available);
                    }
                    (available.len(), false)
                }
            }
        };
        reader.consume(copied);
        if !discarding && buf.len() > MAX_LINE_BYTES {
            buf = Vec::new();
            discarding = true;
        }
        if done {
            if discarding {
                return Line::TooLong;
            }
            match String::from_utf8(buf) {
                Ok(mut s) => {
                    if s.ends_with('\r') {
                        s.pop();
                    }
                    return Line::Full(s);
                }
                Err(_) => return Line::TooLong,
            }
        }
    }
}

/// Per-connection keep-alive state, surfaced through the `stats` op.
struct ConnState {
    /// Requests received on this connection (valid or not).
    requests: AtomicU64,
    opened: Instant,
}

fn connection_loop(shared: &Shared, stream: TcpStream, client: u64) {
    // Short read timeouts keep the reader responsive to shutdown even
    // when the peer holds the connection open silently.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let chaos = ChaosState::arm(&shared.cfg.failpoints);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter {
            stream: Mutex::new(w),
            chaos: chaos.clone(),
        }),
        Err(_) => {
            shared
                .counters
                .active_connections
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let conn = ConnState {
        requests: AtomicU64::new(0),
        opened: Instant::now(),
    };

    loop {
        match read_line_capped(&mut reader, shared, chaos.as_deref()) {
            Line::Closed => break,
            Line::TooLong => {
                shared.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                conn.requests.fetch_add(1, Ordering::Relaxed);
                writer.send(&err_response(
                    &Value::Null,
                    ErrorCode::EPROTO.as_str(),
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ));
            }
            Line::Full(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                shared.counters.received.fetch_add(1, Ordering::Relaxed);
                conn.requests.fetch_add(1, Ordering::Relaxed);
                let request = match parse_request(&line) {
                    Ok(r) => r,
                    Err(e) => {
                        shared.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                        writer.send(&err_response(&e.id, ErrorCode::EPROTO.as_str(), &e.message));
                        continue;
                    }
                };
                dispatch(shared, client, &writer, request.id, request.op, &conn);
            }
        }
    }
    shared
        .counters
        .active_connections
        .fetch_sub(1, Ordering::Relaxed);
}

/// Route one parsed request: cheap ops answer inline on the reader
/// thread; queries and loads go through admission control. Probe ops
/// (`health`, `ready`) deliberately answer inline *before* the draining
/// check — probes must respond even while the server refuses work.
fn dispatch(
    shared: &Shared,
    client: u64,
    writer: &Arc<ConnWriter>,
    id: Value,
    op: Op,
    conn: &ConnState,
) {
    match op {
        Op::Ping => writer.send(&ok_response(&id, vec![("pong", Value::Bool(true))])),
        Op::Health => {
            writer.send(&ok_response(
                &id,
                vec![
                    ("alive", Value::Bool(true)),
                    ("workers", Value::Int(shared.cfg.workers.max(1) as i64)),
                    (
                        "crashed",
                        Value::Int(shared.counters.crashed.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "uptime_ms",
                        Value::Int(shared.started_at.elapsed().as_millis() as i64),
                    ),
                ],
            ));
        }
        Op::Ready => {
            let draining = shared.draining.load(Ordering::SeqCst);
            let reloading = shared.loads_in_flight.load(Ordering::SeqCst) > 0;
            writer.send(&ok_response(
                &id,
                vec![
                    ("ready", Value::Bool(!draining && !reloading)),
                    ("draining", Value::Bool(draining)),
                    ("reloading", Value::Bool(reloading)),
                ],
            ));
        }
        Op::Stats => {
            let s = shared.snapshot();
            let nodelay = lock_recover(&writer.stream).nodelay().unwrap_or(false);
            let cache = shared
                .exec
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .cache_stats();
            writer.send(&ok_response(
                &id,
                vec![
                    ("connections", Value::Int(s.connections as i64)),
                    (
                        "active_connections",
                        Value::Int(s.active_connections as i64),
                    ),
                    ("received", Value::Int(s.received as i64)),
                    ("proto_errors", Value::Int(s.proto_errors as i64)),
                    ("admitted", Value::Int(s.admitted as i64)),
                    ("completed", Value::Int(s.completed as i64)),
                    ("failed", Value::Int(s.failed as i64)),
                    ("shed_overload", Value::Int(s.shed_overload as i64)),
                    ("shed_deadline", Value::Int(s.shed_deadline as i64)),
                    ("shed_draining", Value::Int(s.shed_draining as i64)),
                    ("queue_depth", Value::Int(s.queue_depth as i64)),
                    ("queue_peak", Value::Int(s.queue_peak as i64)),
                    ("loads", Value::Int(s.loads as i64)),
                    ("crashed", Value::Int(s.crashed as i64)),
                    ("drained", Value::Int(s.drained as i64)),
                    ("mem_deferred", Value::Int(s.mem_deferred as i64)),
                    (
                        "mem_inflight_bytes",
                        Value::Int(s.mem_inflight_bytes as i64),
                    ),
                    ("mem_peak_bytes", Value::Int(s.mem_peak_bytes as i64)),
                    (
                        "conn_requests",
                        Value::Int(conn.requests.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "conn_lifetime_ms",
                        Value::Int(conn.opened.elapsed().as_millis() as i64),
                    ),
                    ("conn_nodelay", Value::Bool(nodelay)),
                    ("plan_cache_hits", Value::Int(cache.hits as i64)),
                    ("plan_cache_misses", Value::Int(cache.misses as i64)),
                ],
            ));
        }
        Op::Shutdown => {
            writer.send(&ok_response(&id, vec![("draining", Value::Bool(true))]));
            shared.request_shutdown();
        }
        op @ (Op::Query { .. } | Op::Load { .. }) => {
            if shared.draining.load(Ordering::SeqCst) {
                shared
                    .counters
                    .shed_draining
                    .fetch_add(1, Ordering::Relaxed);
                writer.send(&err_response(
                    &id,
                    ErrorCode::EXRQ0008.as_str(),
                    "server draining: no new work admitted",
                ));
                return;
            }
            let deadline_ms = match &op {
                Op::Query { deadline_ms, .. } => *deadline_ms,
                _ => None,
            };
            let deadline = deadline_ms
                .map(Duration::from_millis)
                .or(shared.cfg.default_deadline)
                .map(|d| Instant::now() + d);
            let job = Job {
                client,
                id,
                op,
                deadline,
                cancel: CancellationToken::new(),
                writer: Arc::clone(writer),
            };
            submit(shared, job);
        }
    }
}

/// Admission control: bounded queue, queue-depth-aware rejection.
fn submit(shared: &Shared, job: Job) {
    let mut sched = lock_recover(&shared.sched);
    if sched.queued >= shared.cfg.queue_capacity {
        shared
            .counters
            .shed_overload
            .fetch_add(1, Ordering::Relaxed);
        drop(sched);
        job.writer.send(&err_response(
            &job.id,
            ErrorCode::EXRQ0006.as_str(),
            &format!(
                "server overloaded: admission queue full ({} queued)",
                shared.cfg.queue_capacity
            ),
        ));
        return;
    }
    let client = job.client;
    sched.queues.entry(client).or_default().push_back(job);
    if !sched.rotation.contains(&client) {
        sched.rotation.push_back(client);
    }
    sched.queued += 1;
    shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .queue_peak
        .fetch_max(sched.queued as u64, Ordering::Relaxed);
    shared.work_ready.notify_one();
}

/// Pop the next runnable job respecting round-robin fairness, the
/// per-client in-flight cap, and the memory watermark. Returns `None`
/// when nothing is eligible.
fn next_job(shared: &Shared, sched: &mut Sched) -> Option<Job> {
    let cap = shared.cfg.max_inflight_per_client.max(1);
    // Over the watermark, runnable work stays queued until in-flight
    // executions release memory; jobs already past their deadline still
    // pop (they shed immediately without running, freeing the queue).
    let over_watermark = shared
        .cfg
        .mem_watermark
        .is_some_and(|w| shared.gauge.bytes_in_flight() > w);
    let mut deferred = false;
    for _ in 0..sched.rotation.len() {
        // Invariant: the loop runs at most rotation.len() times and only
        // rotates (never drains) within an iteration, so front() exists.
        let client = *sched.rotation.front().unwrap();
        let running = sched.running.iter().filter(|(c, _)| *c == client).count();
        if running >= cap {
            // At its cap: rotate past, give others a chance.
            sched.rotation.rotate_left(1);
            continue;
        }
        if over_watermark {
            let expired = sched.queues[&client]
                .front()
                .is_some_and(|j| j.deadline.is_some_and(|at| Instant::now() >= at));
            if !expired {
                deferred = true;
                sched.rotation.rotate_left(1);
                continue;
            }
        }
        // Invariant: a client stays in the rotation only while its queue
        // is non-empty (both are pruned together below), so the queue
        // exists and has a front job.
        let queue = sched.queues.get_mut(&client).unwrap();
        let job = queue.pop_front().unwrap();
        if queue.is_empty() {
            sched.queues.remove(&client);
            sched.rotation.pop_front();
        } else {
            sched.rotation.rotate_left(1);
        }
        sched.queued -= 1;
        sched.running.push((client, job.cancel.clone()));
        return Some(job);
    }
    if deferred {
        shared.counters.mem_deferred.fetch_add(1, Ordering::Relaxed);
    }
    None
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut sched = lock_recover(&shared.sched);
            loop {
                if sched.stopped {
                    return;
                }
                if let Some(job) = next_job(shared, &mut sched) {
                    break job;
                }
                // With a watermark configured the wait must time out:
                // memory can drain without a scheduler event (a parallel
                // engine's workers release as they go), so re-check
                // periodically instead of sleeping until notified.
                sched = if shared.cfg.mem_watermark.is_some() {
                    shared
                        .work_ready
                        .wait_timeout(sched, Duration::from_millis(25))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                } else {
                    shared
                        .work_ready
                        .wait(sched)
                        .unwrap_or_else(PoisonError::into_inner)
                };
            }
        };
        let _running = JobGuard { shared, job: &job };
        // Panic containment: the job's one region, queries and loads
        // alike. Unwind-safety audit of what a caught panic leaves:
        //  - a query runs on its own clone of an executor snapshot; the
        //    shared pieces are the immutable `Arc<Catalog>` (never
        //    mutated by execution) and the plan cache, whose lock
        //    recovers from poisoning and whose map operations leave it
        //    structurally valid;
        //  - the `FragArena` overlay is created *inside* `execute_with`
        //    and dropped by the unwind itself — a half-built overlay
        //    cannot leak into any other request because no other request
        //    can reach it;
        //  - the memory gauge charge is released by `MemoryTracker::Drop`
        //    during the unwind;
        //  - a load stages behind its catalog's loader lock (poison
        //    recovering); `load_document` swaps the session's executor
        //    only on success and publishing is one pointer store, so a
        //    panic mid-load leaves the catalog serving what it held, and
        //    `LoadGuard` restores readiness during the unwind;
        //  - the job's scheduler entry is released by `_running`'s drop.
        // Hence `AssertUnwindSafe` is sound: observing this state after a
        // panic cannot expose a broken invariant.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_job(shared, &job)));
        if let Err(payload) = outcome {
            shared.counters.crashed.fetch_add(1, Ordering::Relaxed);
            // Poison detection: the panicking job's overlay died with its
            // arena; the shared snapshot must still answer. A canary
            // probe (no failpoints, no deadline) turns that from an
            // assumption into a checked invariant. Wrapped in its own
            // catch_unwind so a truly poisoned pool degrades to a typed
            // response, not a dead worker.
            let exec = shared
                .exec
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            let canary = panic::catch_unwind(AssertUnwindSafe(|| {
                exec.prepare("1", &QueryOptions::order_indifferent())
                    .and_then(|plan| exec.execute_with(&plan, &RunOptions::default()))
                    .is_ok()
            }));
            let pool_intact = matches!(canary, Ok(true));
            debug_assert!(pool_intact, "shared executor poisoned by a contained panic");
            if !pool_intact {
                eprintln!("xqd: WARNING: canary probe failed after contained panic");
            }
            job.writer.send(&err_response(
                &job.id,
                ErrorCode::EXRQ0009.as_str(),
                &format!(
                    "internal error: request execution panicked ({}); overlay discarded",
                    panic_message(payload.as_ref())
                ),
            ));
        }
    }
}

/// A dequeued job's entry in [`Sched::running`], taken by
/// [`next_job`] and released on drop — also during an unwind — so a
/// crashed job can neither wedge its client at the in-flight cap nor
/// make drain wait out the grace period.
struct JobGuard<'a> {
    shared: &'a Shared,
    job: &'a Job,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        let mut sched = lock_recover(&self.shared.sched);
        sched.running.retain(|(_, t)| !t.same_as(&self.job.cancel));
        // A completion can unblock a capped client *and* the drain wait.
        self.shared.work_ready.notify_all();
    }
}

fn run_job(shared: &Shared, job: &Job) {
    // Shed before spending any work if the deadline already passed
    // while the request sat in the queue.
    if let Some(at) = job.deadline {
        if Instant::now() >= at {
            shared
                .counters
                .shed_deadline
                .fetch_add(1, Ordering::Relaxed);
            job.writer.send(&err_response(
                &job.id,
                ErrorCode::EXRQ0007.as_str(),
                "request deadline exceeded while queued",
            ));
            return;
        }
    }
    let response = match &job.op {
        Op::Query {
            query,
            baseline,
            catalog,
            ..
        } => run_query(shared, job, query, *baseline, catalog.as_deref()),
        Op::Load {
            url,
            xml,
            catalog,
            shards,
        } => run_load(shared, job, url, xml, catalog.as_deref(), *shards),
        // Ping/Stats/probes/Shutdown never reach the queue.
        _ => err_response(
            &job.id,
            ErrorCode::EPROTO.as_str(),
            "op not valid for worker",
        ),
    };
    job.writer.send(&response);
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic payload of unknown type")
}

fn run_query(
    shared: &Shared,
    job: &Job,
    query: &str,
    baseline: bool,
    catalog: Option<&str>,
) -> String {
    let exec = match catalog {
        None => shared
            .exec
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone(),
        Some(name) => {
            let entry = shared
                .catalogs
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(name)
                .cloned();
            match entry {
                Some(c) => c
                    .exec
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
                None => {
                    // An admitted request must settle the ledger even
                    // when routing fails before the engine runs.
                    shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                    return err_response(
                        &job.id,
                        ErrorCode::FODC0002.as_str(),
                        &format!("unknown catalog `{name}` (load into it first)"),
                    );
                }
            }
        }
    };
    let mut opts = if baseline {
        QueryOptions::baseline()
    } else {
        QueryOptions::order_indifferent()
    };
    if shared.cfg.threads > 0 {
        opts = opts.with_threads(shared.cfg.threads);
    }
    let run = RunOptions {
        deadline: job.deadline,
        cancel: Some(job.cancel.clone()),
        failpoints: if shared.cfg.failpoints.is_empty() {
            None
        } else {
            Some(shared.cfg.failpoints.clone())
        },
        gauge: Some(shared.gauge.clone()),
    };
    match exec
        .prepare(query, &opts)
        .and_then(|plan| exec.execute_with(&plan, &run))
    {
        Ok(out) => {
            // Serialize before counting: a panic in between is counted
            // once, as `crashed`, at the job boundary.
            let response = ok_response(&job.id, vec![("result", Value::Str(out.to_xml()))]);
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            response
        }
        Err(e) => query_error_response(shared, &job.id, &e),
    }
}

fn query_error_response(shared: &Shared, id: &Value, e: &Error) -> String {
    let code = e.code();
    if code == ErrorCode::EXRQ0007 {
        shared
            .counters
            .shed_deadline
            .fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
    }
    err_response(id, code.as_str(), &e.render_line())
}

/// Hot catalog reload: parse into the staging session under the load
/// lock, then swap the executor snapshot. Queries in flight keep their
/// pre-swap snapshot; new queries see the new catalog immediately.
/// Readiness flips off for the duration — a probe-driven balancer stops
/// routing to an instance that is mid-reload.
fn run_load(
    shared: &Shared,
    job: &Job,
    url: &str,
    xml: &str,
    catalog: Option<&str>,
    shards: Option<usize>,
) -> String {
    let _loading = LoadGuard::enter(&shared.loads_in_flight);
    match catalog {
        None => {
            let mut session = lock_recover(&shared.loader);
            load_into(shared, job, &mut session, &shared.exec, url, xml, shards)
        }
        Some(name) => {
            // Get-or-create the named catalog, then stage under *its*
            // loader lock — loads into different catalogs do not
            // serialize against each other or against the default.
            let entry = {
                let mut map = shared
                    .catalogs
                    .write()
                    .unwrap_or_else(PoisonError::into_inner);
                map.entry(name.to_string())
                    .or_insert_with(|| {
                        let session = staging_session(&shared.cfg, Session::new());
                        Arc::new(NamedCatalog {
                            exec: RwLock::new(session.executor().clone()),
                            loader: Mutex::new(session),
                        })
                    })
                    .clone()
            };
            let mut session = lock_recover(&entry.loader);
            load_into(shared, job, &mut session, &entry.exec, url, xml, shards)
        }
    }
}

/// One in-flight catalog load: counted in on entry, out on drop — also
/// when the load panics. Loads into different catalogs run concurrently,
/// so readiness needs the count, not a flag the first finisher clears.
struct LoadGuard<'a>(&'a AtomicUsize);

impl<'a> LoadGuard<'a> {
    fn enter(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        LoadGuard(count)
    }
}

impl Drop for LoadGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Parse `url` into `session`, apply a requested shard count, and
/// publish the fresh executor snapshot. A malformed document is
/// rejected here, at the `load` op, and the catalog keeps serving what
/// it held before.
fn load_into(
    shared: &Shared,
    job: &Job,
    session: &mut Session,
    exec: &RwLock<Executor>,
    url: &str,
    xml: &str,
    shards: Option<usize>,
) -> String {
    match session.load_document(url, xml) {
        Ok(()) => {
            if let Some(n) = shards {
                session.set_shards(n);
            }
            let fresh = session.executor().clone();
            *exec.write().unwrap_or_else(PoisonError::into_inner) = fresh;
            shared.counters.loads.fetch_add(1, Ordering::Relaxed);
            // A load is an admitted request that ran to success: it
            // counts into `completed` (and `loads`), keeping the
            // admission ledger in balance.
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            ok_response(
                &job.id,
                vec![
                    ("nodes", Value::Int(session.store_nodes() as i64)),
                    ("shards", Value::Int(session.shard_count() as i64)),
                ],
            )
        }
        Err(e) => query_error_response(shared, &job.id, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_waits_for_every_load_in_flight() {
        let count = AtomicUsize::new(0);
        let ready = || count.load(Ordering::SeqCst) == 0;
        let first = LoadGuard::enter(&count);
        let second = LoadGuard::enter(&count);
        assert!(!ready());
        drop(first);
        assert!(!ready(), "one load still staging");
        drop(second);
        assert!(ready());
    }
}

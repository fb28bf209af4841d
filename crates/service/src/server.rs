//! The `sweep serve` daemon: accept loop, connection threads, shard
//! scheduler and result streaming.
//!
//! Thread anatomy (one process):
//!
//! ```text
//!   accept loop (main)  ──spawn──►  connection threads (1 per client,
//!        │                           at most MAX_CONNECTIONS; one more
//!        │                           ⇒ queue-full error frame; no first
//!        │                           frame by FIRST_FRAME_DEADLINE ⇒ closed)
//!        │                             │ parse line frames; cancel registry
//!        ▼                             │ each job frame runs here, in order:
//!   shutdown flag  ◄─────────────────  │ per case: shard_ranges → warm/cold split
//!                                      │ cold shards ──►  persistent worker pool
//!                                      │                   (fold_shard_stats each)
//!                                      ◄── completions; streams shard-done
//!                                      └─ ordered merge → job-done
//!                                         (typed error frame on failure)
//! ```
//!
//! A connection runs its jobs one after another on its own thread; jobs
//! on different connections run at once and share one worker pool, so a
//! long job never blocks a warm cache replay on another connection.  No
//! job starts a thread of its own: the daemon's threads are the accept
//! loop, the connection threads, the pool workers and the lease sweeper.
//! *Within* a job, each case's block-aligned shards fan out across the
//! pool and complete in any order.  Determinism is unaffected: `run_case`
//! owns the daemon's one shard-replay path, cutting the space with
//! `sweep::shard_ranges`, folding cold shards with
//! `sweep::fold_shard_stats` and merging accumulators in shard order, so
//! the streamed final fold is bit-identical to an in-process
//! `sweep::sweep_with_stats` at any worker count, warm or cold — the
//! end-to-end tests pin this.  Every replayed or remote accumulator's
//! range is checked against the partition before it can reach the merge:
//! a forged persisted entry terminates *that job* with a typed `merge`
//! error frame; the daemon itself never panics on cache contents.
//!
//! The shard cache is one `cache::ShardCache` over one
//! `store::DurableStore` — memory-only by default, persisted under
//! `--cache-dir`, byte-budgeted and LRU-evicted under `--cache-budget`;
//! see `store` for the format and recovery rules.  Shard accumulators are
//! inserted into the store *before* their `shard-done` frame is streamed,
//! so with a cache dir any shard a client observed as done is durably
//! replayable after a crash.
//!
//! **Distributed execution.**  Remote `sweep worker` processes register
//! over the same endpoint (a `register` frame turns the connection into a
//! worker session) and the shard scheduler offers every cold shard to the
//! fleet first, through the [`crate::lease`] table: leases carry TTLs,
//! heartbeats keep workers alive, and a shard the fleet does not finish
//! — its worker died, went silent or rejected it — *falls back* to the
//! local pool at once; with zero workers registered the daemon behaves
//! exactly as before.  Remote accumulators take the same
//! insert-before-stream path into the cache as local ones, and late
//! duplicate completions are dropped by lease generation, so the merged
//! fold stays bit-identical under any crash schedule.  On TCP endpoints
//! an optional shared-secret `hello` handshake (constant-time compared)
//! gates every connection; Unix sockets are exempt.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use adversary::PatternModel;
use sweep::experiments::{self, Fig4Query, QueryAcc, Thm1Query, Thm3Query};
use sweep::{
    check_count, check_shard_count, fold_shard_stats, shard_ranges, Reducer, ScenarioSource,
    SweepConfig, SweepStats, MAX_THREADS,
};
use synchrony::ModelError;

use crate::cache::ShardCache;
use crate::fingerprint::{code_version, JobFingerprint};
use crate::lease::{LeaseTable, RemoteTask, TaskOutcome, DEFAULT_LEASE_TTL_MS};
use crate::net::{Endpoint, FrameReader, FrameWriter, Listener, Stream};
use crate::pool::WorkerPool;
use crate::query::ServedQuery;
use crate::store::DurableStore;
use crate::wire::{
    ErrorFrame, ErrorKind, Frame, FromWire, JobDone, JobSpec, QueryKind, QueryResult, ShardDone,
    TaskSpec,
};
use crate::ServiceError;
use telemetry::{Counter, Histogram, MetricsSnapshot, Registry};

/// Log target of every structured line the daemon emits (`--log-json`
/// routes them through `telemetry::log` as JSON objects; the default human
/// mode prints the historical messages byte-identically).
const LOG_TARGET: &str = "service::server";

/// How the daemon is launched.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Size of the persistent worker pool, at most [`sweep::MAX_THREADS`];
    /// `0` picks the machine's available parallelism.
    pub workers: usize,
    /// Persist the shard-accumulator cache under this directory
    /// (append-log + snapshot; see `store::DurableStore`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte budget of the shard-accumulator cache (LRU eviction above
    /// it); `None` leaves the cache unbounded.
    pub cache_budget: Option<u64>,
    /// Lease TTL for remote workers in milliseconds: a worker silent for
    /// longer loses its lease (re-run on the local pool).  `0` picks
    /// [`crate::lease::DEFAULT_LEASE_TTL_MS`].
    pub lease_ttl_ms: u64,
    /// Shared secret required from connections on TCP endpoints (as a
    /// `hello` first frame, constant-time compared).  `None` disables the
    /// handshake; Unix sockets never require it.
    pub auth_token: Option<String>,
    /// Metrics registry the daemon records into.  `None` uses the
    /// process-wide [`telemetry::global`] registry; tests embedding
    /// several daemons in one process inject fresh registries here so
    /// their counters never bleed into each other.
    pub metrics: Option<Arc<Registry>>,
}

impl ServeOptions {
    /// The most client and worker connections the daemon serves at once,
    /// and so the most jobs running at once.  Each costs a thread from its
    /// first byte (before any `hello`), so the accept loop answers one more
    /// with a `queue-full` error frame and closes it.  Fixed, not an
    /// option.
    pub const MAX_CONNECTIONS: usize = 128;
    /// How long a new connection may take to complete its first frame.
    /// Past it the daemon answers with a `protocol` error frame and closes
    /// the connection, so clients that connect and never speak cannot hold
    /// every [`ServeOptions::MAX_CONNECTIONS`] slot (and lock out
    /// `shutdown`).  Real clients and workers send their first frame as
    /// soon as they connect.  Fixed, not an option.
    pub const FIRST_FRAME_DEADLINE: Duration = Duration::from_secs(5);

    /// Options with every hardening knob at its default: in-memory
    /// unbounded cache, default lease TTL, no auth token.
    pub fn new(endpoint: Endpoint, workers: usize) -> Self {
        ServeOptions {
            endpoint,
            workers,
            cache_dir: None,
            cache_budget: None,
            lease_ttl_ms: 0,
            auth_token: None,
            metrics: None,
        }
    }

    /// Checks the count that sizes what [`Server::run`] creates: the
    /// workers against [`sweep::MAX_THREADS`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTaskParameter`] when the worker count
    /// is over its bound.
    pub fn check_bounds(&self) -> Result<(), ModelError> {
        check_count(self.workers, MAX_THREADS, "workers")?;
        Ok(())
    }
}

/// The daemon's recording half of the telemetry subsystem: the registry
/// plus cached hot-path handles (`Registry::counter` takes a lock, so the
/// jobs record through these lock-free atomics instead), and the snapshot
/// assembler.
///
/// The registry owns only the metrics that are *new* with telemetry (job
/// counters, phase histograms, uptime).  Subsystems that already kept
/// their own counters — the shard cache, the lease table, the durable
/// store — are **sampled** into the snapshot at stats time, so nothing is
/// double-counted by mirroring them live.
struct ServerTelemetry {
    registry: Arc<Registry>,
    started: Instant,
    jobs_total: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    shards_cached: Counter,
    shards_executed: Counter,
    shards_remote: Counter,
    engine_scenarios: Counter,
    engine_knowledge_hits: Counter,
    engine_knowledge_misses: Counter,
    engine_runs_simulated: Counter,
    engine_runs_reused: Counter,
    engine_cursor_stepped: Counter,
    engine_cursor_materialized: Counter,
    engine_patterns_unranked: Counter,
    dispatch_us: Histogram,
    shard_exec_us: Histogram,
    merge_us: Histogram,
    job_us: Histogram,
}

impl ServerTelemetry {
    fn new(registry: Arc<Registry>) -> Self {
        ServerTelemetry {
            started: Instant::now(),
            jobs_total: registry.counter("jobs.total"),
            jobs_completed: registry.counter("jobs.completed"),
            jobs_failed: registry.counter("jobs.failed"),
            shards_cached: registry.counter("jobs.shards_cached"),
            shards_executed: registry.counter("jobs.shards_executed"),
            shards_remote: registry.counter("jobs.shards_remote"),
            engine_scenarios: registry.counter("engine.scenarios"),
            engine_knowledge_hits: registry.counter("engine.knowledge_hits"),
            engine_knowledge_misses: registry.counter("engine.knowledge_misses"),
            engine_runs_simulated: registry.counter("engine.runs_simulated"),
            engine_runs_reused: registry.counter("engine.runs_reused"),
            engine_cursor_stepped: registry.counter("engine.cursor_stepped"),
            engine_cursor_materialized: registry.counter("engine.cursor_materialized"),
            engine_patterns_unranked: registry.counter("engine.patterns_unranked"),
            dispatch_us: registry.histogram("phase.dispatch_us"),
            shard_exec_us: registry.histogram("phase.shard_exec_us"),
            merge_us: registry.histogram("phase.merge_us"),
            job_us: registry.histogram("phase.job_us"),
            registry,
        }
    }

    /// Folds one finished job's summary into the lifetime counters.
    fn absorb_job(&self, summary: &JobSummary) {
        self.shards_cached.add(summary.shards_cached);
        self.shards_executed.add(summary.shards_executed);
        self.shards_remote.add(summary.shards_remote);
        let stats = &summary.stats;
        self.engine_scenarios.add(stats.scenarios);
        self.engine_knowledge_hits.add(stats.cache.hits);
        self.engine_knowledge_misses.add(stats.cache.misses);
        self.engine_runs_simulated.add(stats.runs.simulated);
        self.engine_runs_reused.add(stats.runs.reused);
        self.engine_cursor_stepped.add(stats.cursor.stepped);
        self.engine_cursor_materialized.add(stats.cursor.materialized);
        self.engine_patterns_unranked.add(stats.cursor.patterns_unranked);
    }

    /// Assembles the `stats-result` payload: the registry's own metrics
    /// plus point-in-time samples of the shard cache, its store and the
    /// lease table.  `cache.replays` — the headline "warm submits replayed
    /// instead of re-executed" number — is the hit sum across the queries.
    fn snapshot(&self, cache: &ShardCache, fleet: &LeaseTable) -> MetricsSnapshot {
        self.registry.gauge("uptime.seconds").set(self.started.elapsed().as_secs() as i64);
        let mut snapshot = self.registry.snapshot();
        let mut replays = 0u64;
        let mut misses_total = 0u64;
        for kind in QueryKind::ALL {
            let name = kind.name();
            let (hits, misses) = (cache.hits(name), cache.misses(name));
            snapshot.push_counter(&format!("cache.{name}.hits"), hits);
            snapshot.push_counter(&format!("cache.{name}.misses"), misses);
            replays += hits;
            misses_total += misses;
        }
        snapshot.push_counter("cache.replays", replays);
        snapshot.push_counter("cache.misses_total", misses_total);
        let store = cache.store();
        let accounting = store.accounting();
        snapshot.push_gauge("store.entries", accounting.entries as i64);
        snapshot.push_gauge("store.bytes", accounting.bytes as i64);
        if let Some(budget) = accounting.budget {
            snapshot.push_gauge("store.budget_bytes", budget as i64);
        }
        snapshot.push_counter("store.evictions", accounting.evictions);
        snapshot.push_counter("store.loaded", accounting.loaded as u64);
        snapshot.push_counter("store.dropped_damaged", accounting.dropped_damaged as u64);
        snapshot.push_counter("store.dropped_stale", accounting.dropped_stale as u64);
        snapshot.push_gauge("store.recovery_us", store.recovery_us() as i64);
        snapshot.histograms.push(store.append_timings().snapshot("store.append_us"));
        snapshot.histograms.push(store.compact_timings().snapshot("store.compact_us"));
        snapshot.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot.push_counter("lease.granted", fleet.granted_total());
        snapshot.push_counter("lease.completed", fleet.completed_total());
        snapshot.push_counter("lease.expired", fleet.expired_total());
        snapshot.push_counter("lease.requeued", fleet.requeued_total());
        snapshot.push_counter("lease.fallbacks", fleet.fallbacks_total());
        snapshot.push_counter("lease.duplicates", fleet.duplicates_total());
        snapshot.push_gauge("fleet.workers", fleet.live_workers() as i64);
        snapshot.push_gauge("fleet.active_leases", fleet.active_leases() as i64);
        for (worker, age_ms) in fleet.heartbeat_ages_ms(Instant::now()) {
            snapshot.push_gauge(&format!("fleet.worker.{worker}.heartbeat_age_ms"), age_ms as i64);
        }
        snapshot
    }
}

/// How one job failed — each variant maps to a wire [`ErrorKind`], so
/// clients can distinguish a revoked job from a poisoned merge without
/// parsing messages.
#[derive(Debug)]
enum JobError {
    /// The sweep engine rejected the job parameters.
    Model(ModelError),
    /// A replayed shard's stored range is not the partition's range for
    /// that shard — a forged or corrupted cache entry, refused before it
    /// can reach the merge.
    Merge {
        /// The replayed shard.
        shard: usize,
        /// The range its cache entry claims.
        stored: (usize, usize),
        /// The range the partition assigns it.
        expected: (usize, usize),
    },
    /// The job was revoked by a `cancel` frame.
    Cancelled,
}

impl JobError {
    fn kind(&self) -> ErrorKind {
        match self {
            JobError::Model(_) => ErrorKind::Model,
            JobError::Merge { .. } => ErrorKind::Merge,
            JobError::Cancelled => ErrorKind::Cancelled,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Model(error) => write!(f, "{error}"),
            JobError::Merge { shard, stored, expected } => write!(
                f,
                "shard merge failed: shard {shard} replayed range {stored:?}, but the partition \
                 assigns it {expected:?}"
            ),
            JobError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl From<ModelError> for JobError {
    fn from(error: ModelError) -> Self {
        JobError::Model(error)
    }
}

/// Job id → cancel token of every running job.  Ids are
/// client-chosen; a resubmitted id overwrites the previous token, so
/// clients wanting reliable cancel semantics should keep ids unique.
type CancelRegistry = Mutex<HashMap<u64, Arc<AtomicBool>>>;

/// What every connection thread of one daemon shares.
struct Shared {
    pool: WorkerPool,
    cache: ShardCache,
    registry: CancelRegistry,
    fleet: Arc<LeaseTable>,
    metrics: ServerTelemetry,
    shutdown: Arc<AtomicBool>,
    endpoint: Endpoint,
    auth_token: Option<String>,
}

/// A bound, not-yet-running daemon.
///
/// Splitting [`Server::bind`] from [`Server::run`] lets callers learn the
/// resolved endpoint (TCP port `0`) and move `run` onto its own thread —
/// the shape the end-to-end tests and `sweep serve` both use.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    workers: usize,
    cache: ShardCache,
    lease_ttl: Duration,
    auth_token: Option<String>,
    metrics: Arc<Registry>,
}

impl Server {
    /// Checks the options' bounds ([`ServeOptions::check_bounds`]), binds
    /// the endpoint, resolves the worker count, and opens the
    /// shard cache's store: persisted under [`ServeOptions::cache_dir`],
    /// memory-only without it.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Model`] for a count over its bound, before
    /// anything is bound or spawned.  Propagates bind failures (address in
    /// use, stale socket file, …) and cache-directory I/O failures.
    /// Damaged cache *content* is never an error: the store drops the
    /// damage and recovers (see `store::DurableStore::open`).
    pub fn bind(options: &ServeOptions) -> Result<Server, ServiceError> {
        options.check_bounds()?;
        let listener = Listener::bind(&options.endpoint)?;
        let endpoint = listener.local_endpoint();
        let workers = if options.workers > 0 {
            options.workers
        } else {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        };
        let lease_ttl_ms =
            if options.lease_ttl_ms > 0 { options.lease_ttl_ms } else { DEFAULT_LEASE_TTL_MS };
        let store = match &options.cache_dir {
            Some(dir) => DurableStore::open(dir, options.cache_budget, &code_version())?,
            None => DurableStore::in_memory(options.cache_budget),
        };
        Ok(Server {
            listener,
            endpoint,
            workers,
            cache: ShardCache::new(store),
            lease_ttl: Duration::from_millis(lease_ttl_ms),
            auth_token: options.auth_token.clone(),
            metrics: options.metrics.clone().unwrap_or_else(telemetry::global),
        })
    }

    /// The endpoint actually bound.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the daemon until a client sends a `shutdown` frame, then
    /// finishes every running job, joins every thread (no orphaned
    /// workers), removes a Unix socket file, and returns.
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind — transient accept
    /// failures are logged and survived, never propagated (a long-running
    /// daemon must outlive ECONNABORTED and fd exhaustion).  Clients that
    /// stay connected without submitting do not block shutdown: their
    /// connection threads wake on a read timeout, observe the flag and
    /// exit.
    pub fn run(self) -> Result<(), ServiceError> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let fleet = Arc::new(LeaseTable::new(self.lease_ttl));

        // The sweeper expires workers whose heartbeats stopped, falling
        // their leases back to the local pool.  While no worker is
        // registered it sleeps until one registers, so an idle daemon
        // makes no periodic wake-ups.  During the shutdown drain the
        // worker sessions exit and hand their leases back through
        // `worker_gone`, so jobs finishing after the sweeper stops still
        // fall back to local execution.
        let sweeper = {
            let fleet = Arc::clone(&fleet);
            let shutdown = Arc::clone(&shutdown);
            let interval =
                Duration::from_millis((self.lease_ttl.as_millis() as u64 / 4).clamp(10, 100));
            thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) && fleet.wait_for_worker() {
                    fleet.tick(Instant::now());
                    thread::sleep(interval);
                }
            })
        };

        telemetry::log::info(
            LOG_TARGET,
            format!(
                "sweep serve: listening on {} with {} worker(s), {}",
                self.endpoint,
                self.workers,
                code_version()
            ),
            &[
                ("endpoint", self.endpoint.to_string().into()),
                ("workers", self.workers.into()),
                ("code_version", code_version().into()),
            ],
        );
        let accounting = self.cache.store().accounting();
        telemetry::log::info(
            LOG_TARGET,
            format!(
                "sweep serve: cache store ready: {accounting}; {} loaded from disk, \
                 {} damaged line(s) dropped, {} stale entr(ies) dropped",
                accounting.loaded, accounting.dropped_damaged, accounting.dropped_stale
            ),
            &[
                ("entries", accounting.entries.into()),
                ("bytes", accounting.bytes.into()),
                ("loaded", accounting.loaded.into()),
                ("dropped_damaged", accounting.dropped_damaged.into()),
                ("dropped_stale", accounting.dropped_stale.into()),
            ],
        );

        // Every connection's jobs share the pool, the cache and the fleet's
        // lease table: shards go to remote workers when any are registered
        // and fan out across the persistent local workers otherwise.
        let shared = Arc::new(Shared {
            pool: WorkerPool::new(self.workers),
            cache: self.cache,
            registry: Mutex::new(HashMap::new()),
            fleet: Arc::clone(&fleet),
            metrics: ServerTelemetry::new(self.metrics),
            shutdown: Arc::clone(&shutdown),
            endpoint: self.endpoint.clone(),
            auth_token: self.auth_token,
        });

        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok(stream) => {
                    // A shutdown request wakes this blocked accept with a
                    // connection of its own; whatever was accepted, the
                    // loop ends.
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    // Reap finished connection threads so the handle list
                    // holds the *live* connections only, then refuse one
                    // over the bound before it costs a thread.
                    connections.retain(|handle| !handle.is_finished());
                    if connections.len() >= ServeOptions::MAX_CONNECTIONS {
                        refuse_connection(stream);
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    connections.push(thread::spawn(move || handle_connection(stream, &shared)));
                }
                Err(error) => {
                    // Transient accept failures (ECONNABORTED, fd
                    // exhaustion under load) must not kill a long-running
                    // daemon — log, back off, keep serving.  A persistent
                    // condition will keep logging rather than silently
                    // wedging.
                    telemetry::log::warn(
                        LOG_TARGET,
                        format!("sweep serve: accept failed (continuing): {error}"),
                        &[("error", error.to_string().into())],
                    );
                    thread::sleep(Duration::from_millis(100));
                }
            }
        }
        fleet.stop_waiting();
        // Joining the connections lets every running job finish.
        for connection in connections {
            let _ = connection.join();
        }
        sweeper.join().expect("sweeper thread panicked");
        // Dropping the last handle drops the pool, which closes its queue
        // and joins the workers.
        drop(shared);
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        telemetry::log::info(LOG_TARGET, "sweep serve: shut down cleanly", &[]);
        Ok(())
    }
}

/// How often a connection thread parked on an idle client wakes to check
/// the shutdown flag — bounds the graceful-shutdown latency contributed by
/// clients that connect and never submit.
const CONNECTION_READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Wakes `Server::run`'s accept loop, blocked in `accept`, once the
/// shutdown flag is set: one connection to the daemon's own endpoint,
/// closed at once.
fn wake_accept_loop(endpoint: &Endpoint) {
    if let Err(error) = Stream::connect(endpoint) {
        telemetry::log::warn(
            LOG_TARGET,
            format!("sweep serve: could not wake the accept loop for shutdown: {error}"),
            &[("error", error.to_string().into())],
        );
    }
}

/// Compares two secrets without an early exit, so the comparison time
/// does not leak how long a matching prefix an attacker has guessed.
/// Length is folded into the accumulator rather than short-circuited.
fn constant_time_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Reads line frames off one connection until EOF or shutdown, running
/// each job to its terminal frame before reading the next frame, flipping
/// cancel tokens, and acknowledging shutdown requests.  On a
/// token-protected TCP endpoint the first frame must be a matching
/// `hello`; a `register` frame turns the connection into a worker
/// session.
fn handle_connection(stream: Stream, shared: &Shared) {
    let Shared { cache, registry, fleet, metrics, shutdown, endpoint, auth_token, .. } = shared;
    let auth_token = auth_token.as_deref();
    // Unix sockets are gated by filesystem permissions already; the
    // shared-secret handshake protects only TCP endpoints.
    let requires_auth = auth_token.is_some() && matches!(stream, Stream::Tcp(_));
    let mut authed = !requires_auth;
    let Ok(write_half) = stream.try_clone() else { return };
    // The read timeout is what keeps shutdown graceful even while a client
    // (e.g. a human on `nc -U`) sits connected and idle: without it this
    // thread would block in its read forever and `Server::run` could
    // never join it.
    if stream.set_read_timeout(Some(CONNECTION_READ_TIMEOUT)).is_err() {
        return;
    }
    let reply = FrameWriter::new(write_half);
    let mut reader = FrameReader::new(stream, Some(shutdown.as_ref()))
        .with_first_frame_deadline(ServeOptions::FIRST_FRAME_DEADLINE);
    loop {
        let frame = match reader.read_frame() {
            Ok(Some(frame)) => frame,
            // A line that does not decode was read whole: report it and
            // read on.
            Err(ServiceError::Wire(error)) => {
                reply.send(&error_frame(None, ErrorKind::Protocol, error.to_string()));
                continue;
            }
            // A line refused undecoded (over the bound, or not UTF-8):
            // report it and close, since an over-long line cannot be
            // skipped without reading it to its end.
            Err(ServiceError::Protocol(message)) => {
                reply.send(&error_frame(None, ErrorKind::Protocol, message));
                break;
            }
            Ok(None) | Err(_) => break,
        };
        match frame {
            Frame::Hello { token } => {
                // Ignored where no auth is required (a client configured
                // with a token may talk to an open daemon).
                if requires_auth {
                    if constant_time_eq(&token, auth_token.unwrap_or_default()) {
                        authed = true;
                    } else {
                        reply.send(&error_frame(
                            None,
                            ErrorKind::Unauthorized,
                            "invalid auth token",
                        ));
                        break;
                    }
                }
            }
            _ if !authed => {
                reply.send(&error_frame(
                    None,
                    ErrorKind::Unauthorized,
                    "this endpoint requires a hello frame with the auth token",
                ));
                break;
            }
            Frame::Register { fold } => {
                // A worker of other fold semantics would cut the shard
                // ranges differently, or fold them differently: refuse it.
                let ours = code_version();
                if fold.as_deref() != Some(ours.as_str()) {
                    let theirs = fold.as_deref().unwrap_or("none (a worker that predates it)");
                    reply.send(&error_frame(
                        None,
                        ErrorKind::Protocol,
                        format!(
                            "worker fold semantics {theirs} do not match this coordinator's \
                             {ours}; run workers built from the coordinator's version"
                        ),
                    ));
                    break;
                }
                // The connection becomes a worker session: it stops
                // accepting job frames and serves the lease protocol
                // until EOF or shutdown.
                worker_session(reader, &reply, fleet);
                return;
            }
            Frame::Job(spec) => execute_job(shared, &spec, &reply),
            Frame::Cancel { job } => {
                let token = registry.lock().expect("cancel registry lock").get(&job).cloned();
                let found = token.is_some();
                if let Some(token) = token {
                    token.store(true, Ordering::Relaxed);
                }
                reply.send(&Frame::CancelAck { job, found });
            }
            Frame::Shutdown => {
                // Ack, then stop accepting: jobs running on other
                // connections still run to completion.
                reply.send(&Frame::ShuttingDown);
                shutdown.store(true, Ordering::Relaxed);
                wake_accept_loop(endpoint);
                break;
            }
            Frame::Stats => {
                // Live introspection: assemble a fresh snapshot (registry
                // metrics plus sampled cache/store/lease counters) and
                // stream it back on this connection.
                reply.send(&Frame::StatsResult(metrics.snapshot(cache, fleet)));
            }
            _ => {
                reply.send(&error_frame(
                    None,
                    ErrorKind::Protocol,
                    "unexpected frame (clients send job, cancel, stats, shutdown or register)",
                ));
            }
        }
    }
}

/// Answers a connection over [`ServeOptions::MAX_CONNECTIONS`] with one
/// `queue-full` error frame and closes it.
fn refuse_connection(stream: Stream) {
    let message = format!(
        "the daemon already serves {} connections; reconnect later",
        ServeOptions::MAX_CONNECTIONS
    );
    FrameWriter::new(stream).send(&error_frame(None, ErrorKind::QueueFull, message));
}

/// An `error` frame about `job`, or about the connection when `None`.
fn error_frame(job: Option<u64>, kind: ErrorKind, message: impl Into<String>) -> Frame {
    Frame::Error(ErrorFrame { job, kind, message: message.into() })
}

/// Serves one registered worker connection: announces the worker to the
/// lease table, then relays heartbeats and lease completions until EOF or
/// shutdown.  Leaving the loop — however it happens — hands the worker's
/// in-flight lease back to the table, which falls it back to the local
/// pool, so a SIGKILLed worker can never strand a shard.
fn worker_session(mut reader: FrameReader<'_>, reply: &FrameWriter, fleet: &Arc<LeaseTable>) {
    // `registered` must be on the wire before any lease frame, so the
    // worker id handshake happens before the table may grant (the table
    // only grants from submit/tick/completion events, never from
    // `register` itself).
    let worker = fleet.register(
        {
            let reply = reply.clone();
            Box::new(move |frame: &Frame| reply.send(frame))
        },
        Instant::now(),
    );
    if !reply.send(&Frame::Registered {
        worker,
        lease_ttl_ms: fleet.lease_ttl().as_millis() as u64,
        heartbeat_ms: fleet.heartbeat_ms(),
        fold: Some(code_version()),
    }) {
        fleet.worker_gone(worker);
        return;
    }
    telemetry::log::info(
        LOG_TARGET,
        format!("sweep serve: worker {worker} registered ({} in fleet)", fleet.live_workers()),
        &[("worker", worker.into()), ("fleet", fleet.live_workers().into())],
    );
    loop {
        let frame = match reader.read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(ServiceError::Io { .. }) => break,
            Err(error) => {
                telemetry::log::warn(
                    LOG_TARGET,
                    format!("sweep serve: worker {worker} sent a malformed frame: {error}"),
                    &[("worker", worker.into()), ("error", error.to_string().into())],
                );
                break;
            }
        };
        // The session's own worker id is authoritative throughout — a
        // frame cannot heartbeat or complete on behalf of another worker.
        match frame {
            Frame::Heartbeat { .. } => fleet.heartbeat(worker, Instant::now()),
            Frame::LeaseDone(done) => {
                fleet.lease_done(
                    done.lease,
                    done.generation,
                    worker,
                    done.payload,
                    (done.start, done.end),
                    done.stats,
                    Instant::now(),
                );
            }
            Frame::LeaseFailed(failed) => {
                telemetry::log::warn(
                    LOG_TARGET,
                    format!(
                        "sweep serve: worker {worker} rejected lease {}: {}",
                        failed.lease, failed.message
                    ),
                    &[
                        ("worker", worker.into()),
                        ("lease", failed.lease.into()),
                        ("message", failed.message.as_str().into()),
                    ],
                );
                fleet.lease_failed(failed.lease, failed.generation, worker, Instant::now());
            }
            other => {
                telemetry::log::warn(
                    LOG_TARGET,
                    format!("sweep serve: worker {worker} sent an unexpected frame {other:?}"),
                    &[("worker", worker.into())],
                );
                break;
            }
        }
    }
    // Best effort: tell a still-connected worker the session is over so
    // its process exits instead of blocking on a dead read.
    reply.send(&Frame::ShuttingDown);
    fleet.worker_gone(worker);
    telemetry::log::info(
        LOG_TARGET,
        format!("sweep serve: worker {worker} disconnected ({} in fleet)", fleet.live_workers()),
        &[("worker", worker.into()), ("fleet", fleet.live_workers().into())],
    );
}

/// Everything [`JobDone`] reports about one finished job.
struct JobSummary {
    result: QueryResult,
    stats: SweepStats,
    shards_total: u64,
    shards_cached: u64,
    shards_executed: u64,
    shards_remote: u64,
    leases_requeued: u64,
}

impl JobSummary {
    fn new(result: QueryResult) -> Self {
        JobSummary {
            result,
            stats: SweepStats::default(),
            shards_total: 0,
            shards_cached: 0,
            shards_executed: 0,
            shards_remote: 0,
            leases_requeued: 0,
        }
    }
}

/// Runs one job end to end on its connection's thread and streams its
/// terminal frame to `reply`.  A job failure — model error, poisoned
/// merge, cancellation — terminates the job with a typed error frame and
/// leaves the daemon (and this connection) serving.  A disconnected
/// client never aborts a job — its shards keep warming the cache — so
/// sends ignore whether the client is still there.
fn execute_job(shared: &Shared, spec: &JobSpec, reply: &FrameWriter) {
    let Shared { pool, cache, registry, fleet, metrics, .. } = shared;
    let start = Instant::now();
    metrics.jobs_total.inc();
    let cancel = Arc::new(AtomicBool::new(false));
    registry.lock().expect("cancel registry lock").insert(spec.id, Arc::clone(&cancel));
    let job = JobContext { pool, cache, fleet, metrics, spec, reply, cancel: &cancel };
    let outcome = run_query(&job);
    registry.lock().expect("cancel registry lock").remove(&spec.id);
    match outcome {
        Ok(summary) => {
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            metrics.job_us.observe(start.elapsed());
            metrics.jobs_completed.inc();
            metrics.absorb_job(&summary);
            // The daemon-side job trailer, reusing the canonical stats-line
            // renderer of the sweep crate, plus the cache store accounting
            // and the fleet accounting
            // (lifetime counters of the lease table — the CI smoke leg and
            // the e2e tests grep this line).
            telemetry::log::info(
                LOG_TARGET,
                format!(
                    "sweep serve: job {} ({}) done in {:.0} ms; shards: {} total, {} cached, \
                     {} executed ({} remote); {}; cache store: {}; fleet: {} workers, {} leases active, \
                     {} granted, {} expired, {} re-queued, {} duplicates dropped",
                    spec.id,
                    spec.query.name(),
                    wall_ms,
                    summary.shards_total,
                    summary.shards_cached,
                    summary.shards_executed,
                    summary.shards_remote,
                    summary.stats.stats_line(),
                    cache.store().accounting(),
                    fleet.live_workers(),
                    fleet.active_leases(),
                    fleet.granted_total(),
                    fleet.expired_total(),
                    fleet.requeued_total(),
                    fleet.duplicates_total(),
                ),
                &[
                    ("job", spec.id.into()),
                    ("query", spec.query.name().into()),
                    ("wall_ms", wall_ms.into()),
                    ("shards_total", summary.shards_total.into()),
                    ("shards_cached", summary.shards_cached.into()),
                    ("shards_executed", summary.shards_executed.into()),
                    ("shards_remote", summary.shards_remote.into()),
                ],
            );
            reply.send(&Frame::JobDone(JobDone {
                job: spec.id,
                result: summary.result,
                stats: summary.stats,
                shards_total: summary.shards_total,
                shards_cached: summary.shards_cached,
                shards_executed: summary.shards_executed,
                fleet_workers: fleet.live_workers(),
                shards_remote: summary.shards_remote,
                leases_requeued: summary.leases_requeued,
                wall_ms,
            }));
        }
        Err(error) => {
            metrics.jobs_failed.inc();
            telemetry::log::warn(
                LOG_TARGET,
                format!(
                    "sweep serve: job {} ({}) failed ({}): {error}",
                    spec.id,
                    spec.query.name(),
                    error.kind().name()
                ),
                &[
                    ("job", spec.id.into()),
                    ("query", spec.query.name().into()),
                    ("kind", error.kind().name().into()),
                    ("error", error.to_string().into()),
                ],
            );
            reply.send(&error_frame(Some(spec.id), error.kind(), error.to_string()));
        }
    }
}

/// Resolves `shards = 0` to `4 × workers`, mirroring
/// [`SweepConfig::resolved_shards`] over the pool size, and refuses a
/// count above [`sweep::MAX_SHARDS`] before any partition is cut.
fn resolved_shards(spec: &JobSpec, pool: &WorkerPool) -> Result<usize, ModelError> {
    check_shard_count(if spec.shards > 0 { spec.shards } else { pool.workers() * 4 })
}

/// What the runners of one job share: the daemon's pool, cache, fleet
/// and telemetry, plus the job's spec, reply stream and cancel token.
struct JobContext<'a> {
    pool: &'a WorkerPool,
    cache: &'a ShardCache,
    fleet: &'a Arc<LeaseTable>,
    metrics: &'a ServerTelemetry,
    spec: &'a JobSpec,
    reply: &'a FrameWriter,
    cancel: &'a Arc<AtomicBool>,
}

fn run_query(job: &JobContext<'_>) -> Result<JobSummary, JobError> {
    match job.spec.query {
        QueryKind::Thm1 => run_sharded(Thm1Query::CRASH, job),
        QueryKind::Omission => run_sharded(Thm1Query::OMISSION, job),
        QueryKind::Thm3 => run_sharded(Thm3Query, job),
        QueryKind::Fig4 => run_sharded(Fig4Query, job),
        QueryKind::Prop2 => run_prop2(job),
    }
}

/// Runs a sharded query: every case of the job (the built-in ones, or the
/// one its explicit scope names) is fingerprinted, scheduled by
/// [`run_case`] and turned into rows, all by the query's descriptor.
fn run_sharded<Q: ServedQuery>(query: Q, job: &JobContext<'_>) -> Result<JobSummary, JobError> {
    let cases = query.job_cases(job.spec.scope.as_ref())?;
    let shards = resolved_shards(job.spec, job.pool)?;
    let seed = if Q::SEEDED { job.spec.seed } else { 0 };
    let mut rows = Vec::new();
    let mut summary = JobSummary::new(query.result(Vec::new()));
    for (index, case) in cases.iter().enumerate() {
        let source = Arc::new(query.source(case, seed)?);
        let fingerprint = JobFingerprint {
            query: query.name().into(),
            model: query.model().name().into(),
            scope: query.scope_string(case),
            protocols: Q::PROTOCOLS.into(),
            seed,
            shards,
            code_version: code_version(),
        };
        // What a remote worker needs to rebuild the case: its explicit
        // scope where the query has one (even for built-in cases), its
        // index among the built-in cases otherwise.
        let lease = TaskSpec {
            query: job.spec.query,
            case: index,
            scope: query.case_scope(case),
            seed,
            shards,
            shard: 0,
        };
        let acc = run_case::<Q>(job, &source, lease, cases.len(), fingerprint, &mut summary)?;
        rows.extend(query.rows(case, &source, &acc)?);
    }
    summary.result = query.result(rows);
    Ok(summary)
}

/// Proposition 2 mixes sweeps with global protocol-complex builds, so it
/// is cached at job granularity (one "shard" covering the whole report)
/// and executed as one pool task at one thread, so a prop2 job starts no
/// thread of its own.  The report does not depend on the thread count.
fn run_prop2(job: &JobContext<'_>) -> Result<JobSummary, JobError> {
    let JobContext { pool, cache, spec, reply, cancel, .. } = *job;
    if spec.scope.is_some() {
        return Err(JobError::Model(ModelError::InvalidTaskParameter {
            reason: "custom scopes are only supported for thm1 and omission jobs".into(),
        }));
    }
    let shards = resolved_shards(spec, pool)?;
    let fingerprint = JobFingerprint {
        query: "prop2".into(),
        model: PatternModel::Crash.name().into(),
        scope: "builtin".into(),
        protocols: "none".into(),
        seed: spec.seed,
        shards: 1,
        code_version: code_version(),
    };
    let key = fingerprint.shard(0);
    let cached = if spec.shard_cache { cache.get(&key) } else { None };
    let (report, stats, range, was_cached) = match cached {
        Some((report, range)) => (report, SweepStats::default(), range, true),
        None => {
            let config = SweepConfig { shards, threads: 1, seed: spec.seed };
            let (done_tx, done_rx) = mpsc::channel();
            let cancel = Arc::clone(cancel);
            pool.submit(Box::new(move |_| {
                let folded = if cancel.load(Ordering::Relaxed) {
                    Err(JobError::Cancelled)
                } else {
                    experiments::prop2_with_stats(&config).map_err(JobError::Model)
                };
                let _ = done_tx.send(folded);
            }));
            let (report, stats) = done_rx.recv().expect("pool workers alive")?;
            let range = (0, stats.scenarios as usize);
            if spec.shard_cache {
                cache.insert(&key, range, &report);
            }
            (report, stats, range, false)
        }
    };
    reply.send(&Frame::ShardDone(ShardDone {
        job: spec.id,
        case: 0,
        cases: 1,
        shard: 0,
        shards: 1,
        start: range.0,
        end: range.1,
        cached: was_cached,
        stats,
    }));
    Ok(JobSummary {
        result: QueryResult::Prop2(report),
        stats,
        shards_total: 1,
        shards_cached: u64::from(was_cached),
        shards_executed: u64::from(!was_cached),
        shards_remote: 0,
        leases_requeued: 0,
    })
}

/// Schedules one case: splits its scenario range into block-aligned
/// shards, replays warm shards from the accumulator cache, fans the cold
/// ones out across the remote fleet and the persistent pool, streams a
/// `shard-done` frame as each lands, and merges everything in shard
/// order.
///
/// This is the one warm/cold shard protocol of the stack: the partition
/// is `sweep::shard_ranges` and the per-shard kernel
/// `sweep::fold_shard_stats`, exactly as in `sweep::sweep_with_stats`, so
/// the folds are bit-identical by construction.  Two hardening details:
///
/// * a cold shard's accumulator is inserted into the cache **before** its
///   `shard-done` frame is streamed, so with a durable store any shard a
///   client observed is replayable after a crash;
/// * every accumulator that crossed a trust boundary is checked against
///   the partition: a replayed shard whose stored range is not
///   `ranges[shard]` (a forged or corrupted persisted entry) fails the job
///   with a typed [`JobError::Merge`] (daemon stays alive), and a remote
///   result with the wrong range re-runs locally.  The merge itself then
///   only ever sees the partition, in order.
///
/// `lease` is the shard-lease template of the case (every field but the
/// shard index); `cases` is the job's case count, for the streamed frames.
/// The case's shard accounting (warm/cold split, executed statistics,
/// fleet counts) is added to `summary`; the merged accumulator returned.
fn run_case<Q: ServedQuery>(
    job: &JobContext<'_>,
    source: &Arc<Q::Source>,
    lease: TaskSpec,
    cases: usize,
    fingerprint: JobFingerprint,
    summary: &mut JobSummary,
) -> Result<QueryAcc<Q>, JobError> {
    let JobContext { pool, cache, fleet, metrics, spec, reply, cancel } = *job;
    let (job_id, case, use_shard_cache) = (spec.id, lease.case, spec.shard_cache);
    let reducer = Q::Reducer::default();
    let ranges = shard_ranges(source.len(), lease.shards, source.structure_block());
    let shard_count = ranges.len();
    let mut accs: Vec<Option<QueryAcc<Q>>> = (0..shard_count).map(|_| None).collect();
    let mut cold = Vec::new();

    let stream_shard = |shard: usize, cached: bool, stats: SweepStats| {
        reply.send(&Frame::ShardDone(ShardDone {
            job: job_id,
            case,
            cases,
            shard,
            shards: shard_count,
            start: ranges[shard].0,
            end: ranges[shard].1,
            cached,
            stats,
        }));
    };

    // Warm pass, in shard order: replayed shards stream before any
    // execution starts.
    for (shard, &range) in ranges.iter().enumerate() {
        let warm = if use_shard_cache { cache.get(&fingerprint.shard(shard)) } else { None };
        match warm {
            Some((_, stored)) if stored != range => {
                return Err(JobError::Merge { shard, stored, expected: range });
            }
            Some((acc, _)) => {
                summary.shards_cached += 1;
                stream_shard(shard, true, SweepStats::default());
                accs[shard] = Some(acc);
            }
            None => cold.push(shard),
        }
    }

    // Cold pass: offer every cold shard to the remote fleet first; shards
    // the fleet cannot take (zero workers) or does not finish (a lost
    // worker, a typed rejection) fall back to the local pool, so an empty
    // fleet degrades to exactly the pre-distributed scheduler.  Each local
    // task re-checks the cancel token just before executing, so a revoked
    // job's pending shards drain as fast cancellations instead of
    // occupying the pool.
    enum Completion<A> {
        Local { shard: usize, folded: Result<(A, SweepStats), JobError> },
        Remote { shard: usize, outcome: TaskOutcome },
    }
    let (done_tx, done_rx) = mpsc::channel::<Completion<QueryAcc<Q>>>();
    let dispatch_local = |shard: usize| {
        let source = Arc::clone(source);
        let cancel = Arc::clone(cancel);
        let done_tx = done_tx.clone();
        let range = ranges[shard];
        // The histogram handle is an atomic-backed clone — recording from
        // the pool thread costs two shifts and a relaxed fetch_add.
        let shard_exec_us = metrics.shard_exec_us.clone();
        pool.submit(Box::new(move |runner| {
            let folded = if cancel.load(Ordering::Relaxed) {
                Err(JobError::Cancelled)
            } else {
                let exec_started = Instant::now();
                let folded =
                    fold_shard_stats(&*source, &Q::Reducer::default(), &Q::JOB, runner, range)
                        .map_err(JobError::Model);
                shard_exec_us.observe(exec_started.elapsed());
                folded
            };
            // The job outlives every task it queues, so the send only
            // fails if it already gave up on the job — nothing to do.
            let _ = done_tx.send(Completion::Local { shard, folded });
        }));
    };
    let dispatch_started = Instant::now();
    for &shard in &cold {
        let remote_tx = done_tx.clone();
        let task = RemoteTask {
            spec: TaskSpec { shard, ..lease.clone() },
            complete: Box::new(move |outcome| {
                // Fires under the lease-table lock — forward and return.
                let _ = remote_tx.send(Completion::Remote { shard, outcome });
            }),
        };
        if !fleet.submit(task) {
            dispatch_local(shard);
        }
    }
    if !cold.is_empty() {
        metrics.dispatch_us.observe(dispatch_started.elapsed());
    }

    // Every cold shard produces exactly one terminal completion; a remote
    // shard the fleet hands back re-enters the count via `dispatch_local`
    // (pending unchanged), so the counter is exact.
    let mut first_error: Option<(usize, JobError)> = None;
    let mut pending = cold.len();
    while pending > 0 {
        let landed = match done_rx.recv().expect("pool workers alive") {
            Completion::Local { shard, folded } => {
                pending -= 1;
                match folded {
                    Ok((acc, stats)) => Some((shard, acc, stats)),
                    Err(error) => {
                        if first_error.as_ref().is_none_or(|(s, _)| shard < *s) {
                            first_error = Some((shard, error));
                        }
                        None
                    }
                }
            }
            // Remote completions honour cancellation here (the worker has
            // no cancel token), so a fully remote job stays cancellable.
            Completion::Remote { shard, .. } if cancel.load(Ordering::Relaxed) => {
                pending -= 1;
                if first_error.as_ref().is_none_or(|(s, _)| shard < *s) {
                    first_error = Some((shard, JobError::Cancelled));
                }
                None
            }
            Completion::Remote { shard, outcome } => match outcome {
                TaskOutcome::Done { payload, range, stats } => {
                    let decoded = if range == ranges[shard] {
                        QueryAcc::<Q>::from_wire(&payload).ok()
                    } else {
                        None
                    };
                    match decoded {
                        Some(acc) => {
                            pending -= 1;
                            summary.shards_remote += 1;
                            Some((shard, acc, stats))
                        }
                        None => {
                            // A range that disagrees with the partition or
                            // a payload that does not decode never reaches
                            // the merge — the shard re-runs locally.
                            telemetry::log::warn(
                                LOG_TARGET,
                                format!(
                                    "sweep serve: job {job_id}: dropping malformed remote \
                                     result for shard {shard} (range {:?}, expected {:?}); \
                                     re-running locally",
                                    range, ranges[shard]
                                ),
                                &[("job", job_id.into()), ("shard", shard.into())],
                            );
                            if first_error.is_some() {
                                pending -= 1;
                            } else {
                                dispatch_local(shard);
                            }
                            None
                        }
                    }
                }
                TaskOutcome::Fallback { lost } => {
                    summary.leases_requeued += u64::from(lost);
                    if first_error.is_some() {
                        pending -= 1;
                    } else {
                        dispatch_local(shard);
                    }
                    None
                }
            },
        };
        if let Some((shard, acc, stats)) = landed {
            // Insert before streaming: a client that saw shard-done may
            // rely on the shard being durably cached.  Remote results take
            // the same store-before-stream path as local ones.
            if use_shard_cache {
                cache.insert(&fingerprint.shard(shard), ranges[shard], &acc);
            }
            summary.stats.merge(stats);
            stream_shard(shard, false, stats);
            accs[shard] = Some(acc);
        }
    }
    if let Some((_, error)) = first_error {
        return Err(error);
    }

    summary.shards_total += shard_count as u64;
    summary.shards_executed += cold.len() as u64;
    let merge_started = Instant::now();
    let merged = accs.into_iter().fold(reducer.empty(), |merged, acc| {
        reducer.merge(merged, acc.expect("every shard completed"))
    });
    metrics.merge_us.observe(merge_started.elapsed());
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker count over its bound is refused by `bind` before the
    /// endpoint is bound, so `run` never gets to spawn the threads.
    #[test]
    fn oversized_worker_counts_are_refused_before_binding() {
        let path = std::env::temp_dir().join(format!("sweep-bounds-{}.sock", std::process::id()));
        let base = ServeOptions::new(Endpoint::Unix(path.clone()), 1);
        let at_bound = ServeOptions { workers: sweep::MAX_THREADS, ..base.clone() };
        assert_eq!(at_bound.check_bounds(), Ok(()));
        match Server::bind(&ServeOptions { workers: sweep::MAX_THREADS + 1, ..base }) {
            Err(ServiceError::Model(error)) => {
                assert!(error.to_string().contains("the limit of"), "{error}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert!(!path.exists(), "a refused daemon binds nothing");
    }
}

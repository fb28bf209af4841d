//! The `sweep serve` daemon: accept loop, bounded job queue, concurrent
//! dispatchers, shard scheduler and result streaming.
//!
//! Thread anatomy (one process):
//!
//! ```text
//!   accept loop (main)  ──spawn──►  connection threads (1 per client)
//!        │                             │ parse line frames; cancel registry
//!        │                             ▼
//!        │                          job queue (bounded sync_channel;
//!        │                           full ⇒ queue-full error frame)
//!        ▼                             │
//!   shutdown flag  ◄──────────  dispatcher threads (N, sharing the queue)
//!                                  │ per case: shard_ranges → warm/cold split
//!                                  │ cold shards ──►  persistent worker pool
//!                                  │                   (fold_shard_stats each)
//!                                  ◄── completions; streams shard-done/partial
//!                                  └─ ordered merge → job-done
//!                                     (typed error frame on failure)
//! ```
//!
//! Jobs are popped FIFO but up to `dispatchers` of them run concurrently,
//! sharing one worker pool — a long job no longer blocks a warm
//! cache-replay behind it.  *Within* a job, each case's block-aligned
//! shards fan out across the pool and complete in any order.  Determinism
//! is unaffected: `run_case` owns the daemon's one shard-replay path,
//! cutting the space with `sweep::shard_ranges`, folding cold shards with
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
//! heartbeats keep workers alive, a dead worker's shard is re-queued with
//! capped backoff, and a shard the fleet cannot finish *falls back* to
//! the local pool — with zero workers registered the daemon behaves
//! exactly as before.  Remote accumulators take the same
//! insert-before-stream path into the cache as local ones, and late
//! duplicate completions are dropped by lease generation, so the merged
//! fold stays bit-identical under any crash schedule.  On TCP endpoints
//! an optional shared-secret `hello` handshake (constant-time compared)
//! gates every connection; Unix sockets are exempt.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use adversary::PatternModel;
use sweep::experiments::{self, Fig4Query, QueryAcc, Thm1Query, Thm3Query};
use sweep::{fold_shard_stats, shard_ranges, Reducer, ScenarioSource, SweepConfig, SweepStats};
use synchrony::ModelError;

use crate::cache::ShardCache;
use crate::fingerprint::{code_version, JobFingerprint};
use crate::lease::{FleetConfig, LeaseTable, RemoteTask, TaskOutcome};
use crate::net::{Endpoint, Listener, Stream};
use crate::pool::WorkerPool;
use crate::query::ServedQuery;
use crate::store::DurableStore;
use crate::wire::{
    self, encode_line, ErrorFrame, ErrorKind, Frame, FromWire, JobDone, JobSpec, Partial,
    QueryKind, QueryResult, ShardDone, TaskSpec, ToWire,
};
use crate::ServiceError;
use telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};

/// Log target of every structured line the daemon emits (`--log-json`
/// routes them through `telemetry::log` as JSON objects; the default human
/// mode prints the historical messages byte-identically).
const LOG_TARGET: &str = "service::server";

/// How the daemon is launched.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Size of the persistent worker pool; `0` picks the machine's
    /// available parallelism.
    pub workers: usize,
    /// Concurrent job dispatchers (jobs running at once); `0` picks
    /// [`ServeOptions::DEFAULT_DISPATCHERS`].
    pub dispatchers: usize,
    /// Bound of the job queue: jobs admitted but not yet dispatched.  A
    /// submit hitting a full queue is rejected with a `queue-full` error
    /// frame instead of growing the queue without bound.  `0` picks
    /// [`ServeOptions::DEFAULT_QUEUE_CAPACITY`].
    pub queue_capacity: usize,
    /// Persist the shard-accumulator cache under this directory
    /// (append-log + snapshot; see `store::DurableStore`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte budget of the shard-accumulator cache (LRU eviction above
    /// it); `None` leaves the cache unbounded.
    pub cache_budget: Option<u64>,
    /// Lease TTL for remote workers in milliseconds: a worker silent for
    /// longer loses its lease (re-queued elsewhere).  `0` picks
    /// [`crate::lease::DEFAULT_LEASE_TTL_MS`].
    pub lease_ttl_ms: u64,
    /// Shared secret required from connections on TCP endpoints (as a
    /// `hello` first frame, constant-time compared).  `None` disables the
    /// handshake; Unix sockets never require it.
    pub auth_token: Option<String>,
    /// Emit a one-line telemetry heartbeat on stderr at this interval
    /// (`sweep serve --stats-interval SECS`); `None` disables it.
    pub stats_interval: Option<Duration>,
    /// Metrics registry the daemon records into.  `None` uses the
    /// process-wide [`telemetry::global`] registry; tests embedding
    /// several daemons in one process inject fresh registries here so
    /// their counters never bleed into each other.
    pub metrics: Option<Arc<Registry>>,
}

impl ServeOptions {
    /// Dispatcher count used when [`ServeOptions::dispatchers`] is `0`.
    pub const DEFAULT_DISPATCHERS: usize = 2;
    /// Queue bound used when [`ServeOptions::queue_capacity`] is `0`.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

    /// Options with every hardening knob at its default: in-memory
    /// unbounded cache, default dispatcher count and queue bound.
    pub fn new(endpoint: Endpoint, workers: usize) -> Self {
        ServeOptions {
            endpoint,
            workers,
            dispatchers: 0,
            queue_capacity: 0,
            cache_dir: None,
            cache_budget: None,
            lease_ttl_ms: 0,
            auth_token: None,
            stats_interval: None,
            metrics: None,
        }
    }
}

/// The daemon's recording half of the telemetry subsystem: the registry
/// plus cached hot-path handles (`Registry::counter` takes a lock, so the
/// dispatchers record through these lock-free atomics instead), and the
/// snapshot assembler.
///
/// The registry owns only the metrics that are *new* with telemetry (job
/// counters, phase histograms, queue depth, uptime).  Subsystems that
/// already kept their own counters — the shard cache, the lease
/// table, the durable store — are **sampled** into the snapshot at stats
/// time, so nothing is double-counted by mirroring them live.
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
    queue_depth: Gauge,
    queue_wait_us: Histogram,
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
            queue_depth: registry.gauge("queue.depth"),
            queue_wait_us: registry.histogram("phase.queue_wait_us"),
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

/// A queued job: the parsed spec, the submitting connection's writer, and
/// the cancel token the registry can flip.
struct JobTask {
    spec: JobSpec,
    reply: Reply,
    cancel: Arc<AtomicBool>,
    /// When the job was admitted to the queue — the dispatcher that pops
    /// it records the difference as the `phase.queue_wait_us` histogram.
    queued_at: Instant,
}

/// Job id → cancel token of every queued or running job.  Ids are
/// client-chosen; a resubmitted id overwrites the previous token, so
/// clients wanting reliable cancel semantics should keep ids unique.
type CancelRegistry = Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>>;

/// The shared writer of one connection; `shard-done`/`partial`/`job-done`
/// frames of a job go to the connection that submitted it.
type Reply = Arc<Mutex<Stream>>;

/// Sends one frame, reporting whether the client is still connected (a
/// disconnected client never aborts a job — its shards keep warming the
/// cache).
fn send_frame(reply: &Reply, frame: &Frame) -> bool {
    let line = encode_line(frame);
    let mut writer = reply.lock().expect("reply lock");
    writer.write_all(line.as_bytes()).and_then(|_| writer.flush()).is_ok()
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
    dispatchers: usize,
    queue_capacity: usize,
    cache: Arc<ShardCache>,
    fleet_config: FleetConfig,
    auth_token: Option<String>,
    stats_interval: Option<Duration>,
    metrics: Arc<Registry>,
}

impl Server {
    /// Binds the endpoint, resolves the worker/dispatcher counts, and
    /// opens the shard cache's store: persisted under
    /// [`ServeOptions::cache_dir`], memory-only without it.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, stale socket file, …) and
    /// cache-directory I/O failures.  Damaged cache *content* is never an
    /// error: the store drops the damage and recovers (see
    /// `store::DurableStore::open`).
    pub fn bind(options: &ServeOptions) -> Result<Server, ServiceError> {
        let listener = Listener::bind(&options.endpoint)?;
        let endpoint = listener.local_endpoint();
        let workers = if options.workers > 0 {
            options.workers
        } else {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        };
        let dispatchers = if options.dispatchers > 0 {
            options.dispatchers
        } else {
            ServeOptions::DEFAULT_DISPATCHERS
        };
        let queue_capacity = if options.queue_capacity > 0 {
            options.queue_capacity
        } else {
            ServeOptions::DEFAULT_QUEUE_CAPACITY
        };
        let store = match &options.cache_dir {
            Some(dir) => DurableStore::open(dir, options.cache_budget, &code_version())?,
            None => DurableStore::in_memory(options.cache_budget),
        };
        Ok(Server {
            listener,
            endpoint,
            workers,
            dispatchers,
            queue_capacity,
            cache: Arc::new(ShardCache::new(store)),
            fleet_config: FleetConfig::with_ttl_ms(options.lease_ttl_ms),
            auth_token: options.auth_token.clone(),
            stats_interval: options.stats_interval,
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

    /// The resolved dispatcher count.
    pub fn dispatchers(&self) -> usize {
        self.dispatchers
    }

    /// Runs the daemon until a client sends a `shutdown` frame, then
    /// finishes every queued job, joins every thread (no orphaned
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
        let (job_tx, job_rx) = mpsc::sync_channel::<JobTask>(self.queue_capacity);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let registry: CancelRegistry = Arc::new(Mutex::new(HashMap::new()));

        // The dispatchers share the pool, the cache and the fleet's lease
        // table: jobs are popped FIFO, up to `dispatchers` run at once,
        // shards go to remote workers when any are registered and fan out
        // across the persistent local workers otherwise.
        let pool = Arc::new(WorkerPool::new(self.workers));
        let fleet = Arc::new(LeaseTable::new(self.fleet_config.clone()));
        let metrics = Arc::new(ServerTelemetry::new(Arc::clone(&self.metrics)));
        let dispatchers: Vec<_> = (0..self.dispatchers)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let pool = Arc::clone(&pool);
                let cache = Arc::clone(&self.cache);
                let registry = Arc::clone(&registry);
                let fleet = Arc::clone(&fleet);
                let metrics = Arc::clone(&metrics);
                thread::spawn(move || loop {
                    // Hold the queue lock only while popping, never while
                    // executing a job.
                    let task = job_rx.lock().expect("job queue lock").recv();
                    match task {
                        Ok(task) => execute_job(&pool, &cache, &registry, &fleet, &metrics, task),
                        Err(_) => break, // queue closed: shutdown
                    }
                })
            })
            .collect();

        // The sweeper expires workers whose heartbeats stopped and grants
        // re-queued shards once their backoff elapses.  During the
        // shutdown drain the worker sessions exit and hand their leases
        // back through `worker_gone`, so jobs finishing after the sweeper
        // stops still fall back to local execution.
        let sweeper = {
            let fleet = Arc::clone(&fleet);
            let shutdown = Arc::clone(&shutdown);
            let interval = Duration::from_millis(
                (self.fleet_config.lease_ttl.as_millis() as u64 / 4).clamp(10, 100),
            );
            thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    fleet.tick(Instant::now());
                    thread::sleep(interval);
                }
            })
        };

        // The opt-in telemetry heartbeat: a one-line snapshot summary on
        // stderr every `--stats-interval`.  The short sleep keeps shutdown
        // latency bounded by ~50 ms rather than by the interval.
        let heartbeat = self.stats_interval.map(|interval| {
            let metrics = Arc::clone(&metrics);
            let cache = Arc::clone(&self.cache);
            let fleet = Arc::clone(&fleet);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || {
                let mut last = Instant::now();
                while !shutdown.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(50));
                    if last.elapsed() < interval {
                        continue;
                    }
                    last = Instant::now();
                    let snapshot = metrics.snapshot(&cache, &fleet);
                    let uptime = snapshot.gauge("uptime.seconds").unwrap_or(0);
                    let jobs = snapshot.counter("jobs.total").unwrap_or(0);
                    let depth = snapshot.gauge("queue.depth").unwrap_or(0);
                    let replays = snapshot.counter("cache.replays").unwrap_or(0);
                    let workers = snapshot.gauge("fleet.workers").unwrap_or(0);
                    telemetry::log::info(
                        LOG_TARGET,
                        format!(
                            "sweep serve: stats: up {uptime} s; {jobs} job(s), queue depth \
                             {depth}; {replays} cache replay(s); fleet: {workers} worker(s)"
                        ),
                        &[
                            ("uptime_s", uptime.into()),
                            ("jobs_total", jobs.into()),
                            ("queue_depth", depth.into()),
                            ("cache_replays", replays.into()),
                            ("fleet_workers", workers.into()),
                        ],
                    );
                }
            })
        });

        telemetry::log::info(
            LOG_TARGET,
            format!(
                "sweep serve: listening on {} with {} worker(s), {} dispatcher(s), {}",
                self.endpoint,
                self.workers,
                self.dispatchers,
                code_version()
            ),
            &[
                ("endpoint", self.endpoint.to_string().into()),
                ("workers", self.workers.into()),
                ("dispatchers", self.dispatchers.into()),
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

        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shutdown.load(Ordering::Relaxed) {
            // Reap finished connection threads so the handle list stays
            // bounded by the number of *live* connections, not by the
            // daemon-lifetime total.
            connections.retain(|handle| !handle.is_finished());
            match self.listener.try_accept() {
                Ok(Some(stream)) => {
                    let job_tx = job_tx.clone();
                    let registry = Arc::clone(&registry);
                    let shutdown = Arc::clone(&shutdown);
                    let fleet = Arc::clone(&fleet);
                    let cache = Arc::clone(&self.cache);
                    let metrics = Arc::clone(&metrics);
                    let auth_token = self.auth_token.clone();
                    connections.push(thread::spawn(move || {
                        handle_connection(
                            stream,
                            &job_tx,
                            &registry,
                            &shutdown,
                            &fleet,
                            &cache,
                            &metrics,
                            auth_token.as_deref(),
                        );
                    }));
                }
                Ok(None) => thread::sleep(Duration::from_millis(5)),
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
        drop(job_tx);
        for connection in connections {
            let _ = connection.join();
        }
        for dispatcher in dispatchers {
            dispatcher.join().expect("dispatcher thread panicked");
        }
        sweeper.join().expect("sweeper thread panicked");
        if let Some(heartbeat) = heartbeat {
            heartbeat.join().expect("stats heartbeat thread panicked");
        }
        // Dropping the last pool handle closes its queue and joins the
        // workers.
        drop(pool);
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

/// Reads line frames off one connection until EOF or shutdown, queueing
/// jobs (bounded — a full queue rejects with a `queue-full` error frame),
/// flipping cancel tokens, and acknowledging shutdown requests.  On a
/// token-protected TCP endpoint the first frame must be a matching
/// `hello`; a `register` frame turns the connection into a worker
/// session.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: Stream,
    job_tx: &SyncSender<JobTask>,
    registry: &CancelRegistry,
    shutdown: &AtomicBool,
    fleet: &Arc<LeaseTable>,
    cache: &ShardCache,
    metrics: &Arc<ServerTelemetry>,
    auth_token: Option<&str>,
) {
    // Unix sockets are gated by filesystem permissions already; the
    // shared-secret handshake protects only TCP endpoints.
    let requires_auth = auth_token.is_some() && matches!(stream, Stream::Tcp(_));
    let mut authed = !requires_auth;
    let Ok(write_half) = stream.try_clone() else { return };
    // The read timeout is what keeps shutdown graceful even while a client
    // (e.g. a human on `nc -U`) sits connected and idle: without it this
    // thread would block in `read_line` forever and `Server::run` could
    // never join it.
    if stream.set_read_timeout(Some(CONNECTION_READ_TIMEOUT)).is_err() {
        return;
    }
    let reply: Reply = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    'connection: loop {
        line.clear();
        // Assemble one full line, waking on every read timeout to check
        // the shutdown flag.  A timeout may leave a partial line in the
        // buffer; `read_line` appends, so nothing is lost across retries.
        let read = loop {
            match reader.read_line(&mut line) {
                Ok(read) => break read,
                Err(error)
                    if matches!(
                        error.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if shutdown.load(Ordering::Relaxed) {
                        break 'connection;
                    }
                }
                Err(_) => break 'connection,
            }
        };
        if read == 0 {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        match wire::decode_line(&line) {
            Ok(Frame::Hello { token }) => {
                // Ignored where no auth is required (a client configured
                // with a token may talk to an open daemon).
                if requires_auth {
                    if constant_time_eq(&token, auth_token.unwrap_or_default()) {
                        authed = true;
                    } else {
                        send_frame(
                            &reply,
                            &Frame::Error(ErrorFrame {
                                job: None,
                                kind: ErrorKind::Unauthorized,
                                message: "invalid auth token".into(),
                            }),
                        );
                        break;
                    }
                }
            }
            Ok(_) if !authed => {
                send_frame(
                    &reply,
                    &Frame::Error(ErrorFrame {
                        job: None,
                        kind: ErrorKind::Unauthorized,
                        message: "this endpoint requires a hello frame with the auth token".into(),
                    }),
                );
                break;
            }
            Ok(Frame::Register) => {
                // The connection becomes a worker session: it stops
                // accepting job frames and serves the lease protocol
                // until EOF or shutdown.
                worker_session(reader, &reply, fleet, shutdown);
                return;
            }
            Ok(Frame::Job(spec)) => {
                let id = spec.id;
                let cancel = Arc::new(AtomicBool::new(false));
                // Register before queueing, so a cancel can never race past
                // a job that is queued but not yet visible.
                registry.lock().expect("cancel registry lock").insert(id, Arc::clone(&cancel));
                let task =
                    JobTask { spec, reply: Arc::clone(&reply), cancel, queued_at: Instant::now() };
                match job_tx.try_send(task) {
                    Ok(()) => metrics.queue_depth.add(1),
                    Err(TrySendError::Full(_)) => {
                        registry.lock().expect("cancel registry lock").remove(&id);
                        send_frame(
                            &reply,
                            &Frame::Error(ErrorFrame {
                                job: Some(id),
                                kind: ErrorKind::QueueFull,
                                message: "job queue is full; resubmit later".into(),
                            }),
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        registry.lock().expect("cancel registry lock").remove(&id);
                        break;
                    }
                }
            }
            Ok(Frame::Cancel { job }) => {
                let token = registry.lock().expect("cancel registry lock").get(&job).cloned();
                let found = token.is_some();
                if let Some(token) = token {
                    token.store(true, Ordering::Relaxed);
                }
                send_frame(&reply, &Frame::CancelAck { job, found });
            }
            Ok(Frame::Shutdown) => {
                // Ack, then stop accepting: jobs already queued (including
                // this connection's) still run to completion.
                send_frame(&reply, &Frame::ShuttingDown);
                shutdown.store(true, Ordering::Relaxed);
                break;
            }
            Ok(Frame::Stats) => {
                // Live introspection: assemble a fresh snapshot (registry
                // metrics plus sampled cache/store/lease counters) and
                // stream it back on this connection.
                send_frame(&reply, &Frame::StatsResult(metrics.snapshot(cache, fleet)));
            }
            Ok(_) => {
                send_frame(
                    &reply,
                    &Frame::Error(ErrorFrame {
                        job: None,
                        kind: ErrorKind::Protocol,
                        message: "unexpected frame (clients send job, cancel, stats, \
                                  shutdown or register)"
                            .into(),
                    }),
                );
            }
            Err(error) => {
                send_frame(
                    &reply,
                    &Frame::Error(ErrorFrame {
                        job: None,
                        kind: ErrorKind::Protocol,
                        message: error.to_string(),
                    }),
                );
            }
        }
    }
}

/// Serves one registered worker connection: announces the worker to the
/// lease table, then relays heartbeats and lease completions until EOF or
/// shutdown.  Leaving the loop — however it happens — hands the worker's
/// in-flight lease back to the table, which re-queues or falls it back,
/// so a SIGKILLed worker can never strand a shard.
fn worker_session(
    mut reader: BufReader<Stream>,
    reply: &Reply,
    fleet: &Arc<LeaseTable>,
    shutdown: &AtomicBool,
) {
    // `registered` must be on the wire before any lease frame, so the
    // worker id handshake happens before the table may grant (the table
    // only grants from submit/tick/completion events, never from
    // `register` itself).
    let worker = fleet.register(
        {
            let reply = Arc::clone(reply);
            Box::new(move |frame: &Frame| send_frame(&reply, frame))
        },
        Instant::now(),
    );
    let config = fleet.config();
    if !send_frame(
        reply,
        &Frame::Registered {
            worker,
            lease_ttl_ms: config.lease_ttl.as_millis() as u64,
            heartbeat_ms: config.heartbeat_ms(),
        },
    ) {
        fleet.worker_gone(worker, Instant::now());
        return;
    }
    telemetry::log::info(
        LOG_TARGET,
        format!("sweep serve: worker {worker} registered ({} in fleet)", fleet.live_workers()),
        &[("worker", worker.into()), ("fleet", fleet.live_workers().into())],
    );
    let mut line = String::new();
    'session: loop {
        line.clear();
        let read = loop {
            match reader.read_line(&mut line) {
                Ok(read) => break read,
                Err(error)
                    if matches!(
                        error.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if shutdown.load(Ordering::Relaxed) {
                        break 'session;
                    }
                }
                Err(_) => break 'session,
            }
        };
        if read == 0 {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        // The session's own worker id is authoritative throughout — a
        // frame cannot heartbeat or complete on behalf of another worker.
        match wire::decode_line(&line) {
            Ok(Frame::Heartbeat { .. }) => fleet.heartbeat(worker, Instant::now()),
            Ok(Frame::LeaseDone(done)) => {
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
            Ok(Frame::LeaseFailed(failed)) => {
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
            Ok(other) => {
                telemetry::log::warn(
                    LOG_TARGET,
                    format!("sweep serve: worker {worker} sent an unexpected frame {other:?}"),
                    &[("worker", worker.into())],
                );
                break;
            }
            Err(error) => {
                telemetry::log::warn(
                    LOG_TARGET,
                    format!("sweep serve: worker {worker} sent a malformed frame: {error}"),
                    &[("worker", worker.into()), ("error", error.to_string().into())],
                );
                break;
            }
        }
    }
    // Best effort: tell a still-connected worker the session is over so
    // its process exits instead of blocking on a dead read.
    send_frame(reply, &Frame::ShuttingDown);
    fleet.worker_gone(worker, Instant::now());
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

/// Runs one queued job end to end and streams its terminal frame.  A job
/// failure — model error, poisoned merge, cancellation — terminates the
/// job with a typed error frame and leaves the daemon (and this
/// dispatcher) serving.
fn execute_job(
    pool: &WorkerPool,
    cache: &ShardCache,
    registry: &CancelRegistry,
    fleet: &Arc<LeaseTable>,
    metrics: &ServerTelemetry,
    task: JobTask,
) {
    let JobTask { spec, reply, cancel, queued_at } = task;
    let start = Instant::now();
    metrics.queue_depth.add(-1);
    metrics.jobs_total.inc();
    metrics.queue_wait_us.observe(start.saturating_duration_since(queued_at));
    let outcome = if cancel.load(Ordering::Relaxed) {
        // Revoked while still queued: never starts executing.
        Err(JobError::Cancelled)
    } else {
        let job =
            JobContext { pool, cache, fleet, metrics, spec: &spec, reply: &reply, cancel: &cancel };
        run_query(&job)
    };
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
            send_frame(
                &reply,
                &Frame::JobDone(JobDone {
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
                }),
            );
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
            send_frame(
                &reply,
                &Frame::Error(ErrorFrame {
                    job: Some(spec.id),
                    kind: error.kind(),
                    message: error.to_string(),
                }),
            );
        }
    }
}

/// Resolves `shards = 0` to `4 × workers`, mirroring
/// [`SweepConfig::resolved_shards`] over the pool size.
fn resolved_shards(spec: &JobSpec, pool: &WorkerPool) -> usize {
    if spec.shards > 0 {
        spec.shards
    } else {
        pool.workers() * 4
    }
}

/// What the runners of one job share: the daemon's pool, cache, fleet
/// and telemetry, plus the job's spec, reply stream and cancel token.
struct JobContext<'a> {
    pool: &'a WorkerPool,
    cache: &'a ShardCache,
    fleet: &'a Arc<LeaseTable>,
    metrics: &'a ServerTelemetry,
    spec: &'a JobSpec,
    reply: &'a Reply,
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
    let shards = resolved_shards(job.spec, job.pool);
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
/// and executed on the dispatcher thread with the engine's own scoped
/// parallelism.
fn run_prop2(job: &JobContext<'_>) -> Result<JobSummary, JobError> {
    let JobContext { pool, cache, spec, reply, .. } = *job;
    if spec.scope.is_some() {
        return Err(JobError::Model(ModelError::InvalidTaskParameter {
            reason: "custom scopes are only supported for thm1 and omission jobs".into(),
        }));
    }
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
            let config = SweepConfig {
                shards: resolved_shards(spec, pool),
                threads: pool.workers(),
                seed: spec.seed,
            };
            let (report, stats) = experiments::prop2_with_stats(&config)?;
            let range = (0, stats.scenarios as usize);
            if spec.shard_cache {
                cache.insert(&key, range, &report);
            }
            (report, stats, range, false)
        }
    };
    send_frame(
        reply,
        &Frame::ShardDone(ShardDone {
            job: spec.id,
            case: 0,
            cases: 1,
            shard: 0,
            shards: 1,
            start: range.0,
            end: range.1,
            cached: was_cached,
            stats,
        }),
    );
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
/// ones out across the remote fleet and the persistent pool, streams
/// `shard-done`/`partial` frames as they land, and merges everything in
/// shard order.
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
    let mut prefix = PrefixFold::new(&reducer);
    let mut cold = Vec::new();

    let stream_shard = |shard: usize, cached: bool, stats: SweepStats| {
        send_frame(
            reply,
            &Frame::ShardDone(ShardDone {
                job: job_id,
                case,
                cases,
                shard,
                shards: shard_count,
                start: ranges[shard].0,
                end: ranges[shard].1,
                cached,
                stats,
            }),
        );
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
    prefix.emit_if_grown(reply, job_id, case, &ranges, &accs, &reducer);

    // Cold pass: offer every cold shard to the remote fleet first; shards
    // the fleet cannot take (zero workers) or gives up on (exhausted
    // retries, typed rejection) fall back to the local pool, so an empty
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
        pool.submit(Box::new(move |state| {
            let folded = if cancel.load(Ordering::Relaxed) {
                Err(JobError::Cancelled)
            } else {
                let exec_started = Instant::now();
                let folded = fold_shard_stats(
                    &*source,
                    &Q::Reducer::default(),
                    &Q::JOB,
                    &mut state.runner,
                    &mut state.scratch,
                    range,
                )
                .map_err(JobError::Model);
                shard_exec_us.observe(exec_started.elapsed());
                folded
            };
            // The dispatcher outlives every task it queues, so the send
            // only fails if it already gave up on the job — nothing to do.
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
        if !fleet.submit(task, Instant::now()) {
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
                TaskOutcome::Done { payload, range, stats, requeues } => {
                    summary.leases_requeued += requeues;
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
                TaskOutcome::Fallback { requeues } => {
                    summary.leases_requeued += requeues;
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
            prefix.emit_if_grown(reply, job_id, case, &ranges, &accs, &reducer);
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

/// The streamed-preview state of one case: the contiguous completed
/// prefix of its shards, with a running fold so each newly completed
/// shard is merged exactly once (not re-merged from the identity per
/// frame).  Only a contiguous prefix can be previewed — the `Reducer`
/// laws cover merging adjacent slices in order and nothing else.
struct PrefixFold<A> {
    done: usize,
    acc: A,
}

impl<A: Clone + ToWire> PrefixFold<A> {
    fn new<R: Reducer<Acc = A>>(reducer: &R) -> Self {
        PrefixFold { done: 0, acc: reducer.empty() }
    }

    /// Extends the prefix over newly completed shards and emits a
    /// `partial` frame, carrying the prefix accumulator in its wire codec,
    /// if it grew.
    fn emit_if_grown<R: Reducer<Acc = A>>(
        &mut self,
        reply: &Reply,
        job_id: u64,
        case: usize,
        ranges: &[(usize, usize)],
        accs: &[Option<A>],
        reducer: &R,
    ) {
        let before = self.done;
        while self.done < accs.len() {
            let Some(acc) = &accs[self.done] else { break };
            let merged =
                reducer.merge(std::mem::replace(&mut self.acc, reducer.empty()), acc.clone());
            self.acc = merged;
            self.done += 1;
        }
        if self.done == before || self.done == 0 {
            return;
        }
        send_frame(
            reply,
            &Frame::Partial(Partial {
                job: job_id,
                case,
                shards_done: self.done,
                shards: accs.len(),
                scenarios_done: ranges[self.done - 1].1 as u64,
                fold: self.acc.to_wire(),
            }),
        );
    }
}

//! The two service workloads: `daemon-mixed` (an in-process daemon with a
//! durable cache under a seeded closed-loop job stream) and `fleet-cold`
//! (a coordinator daemon plus two worker processes on cold jobs).
//!
//! Every daemon lives in its own directory under [`RUN_DIR`] in the
//! current directory, holding its socket and cache.  [`Daemon`]'s `Drop`
//! shuts the server down, kills and reaps its worker processes and
//! removes the directory, so every exit path — a failed check, an error,
//! a panic — leaves nothing behind.

use std::fs;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use service::wire::{self, Frame, JobDone};
use service::{
    client, ConnectOptions, Endpoint, JobOutcome, JobSpec, QueryKind, QueryResult, ServeOptions,
    Server, ServiceError, WorkerOptions,
};
use sweep::experiments;
use sweep::{SweepConfig, SweepStats};
use telemetry::MetricsSnapshot;

use crate::stats::{median, reportable_tail, SplitMix};
use crate::{gate, Report, Run};

/// Where daemons keep their sockets and caches, relative to the current
/// directory.
pub const RUN_DIR: &str = ".bench_run";

/// The flag that turns this binary into a fleet worker process.
pub const WORKER_FLAG: &str = "--fleet-worker";

/// Local pool workers of the `daemon-mixed` daemon.
const DAEMON_POOL: usize = 2;

/// Remote worker processes of `fleet-cold`, and the coordinator's local
/// pool (used only for shards the fleet cannot finish).
const FLEET_WORKERS: usize = 2;
const FLEET_POOL: usize = 1;

/// Shards per case of a fleet job: several leases per worker.
const FLEET_SHARDS: usize = 8;

/// Entry point of a worker process: serve leases until the coordinator
/// shuts down or goes away.
pub fn worker_main(socket: &str) -> ExitCode {
    telemetry::log::set_level(telemetry::log::Level::Warn);
    let options = WorkerOptions {
        endpoint: Endpoint::Unix(socket.into()),
        connect: ConnectOptions { timeout: Duration::from_secs(10), auth_token: None },
        heartbeat_ms: None,
    };
    match service::worker::run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench worker: {error}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon, its worker processes and its directory.
struct Daemon {
    endpoint: Endpoint,
    dir: PathBuf,
    server: Option<JoinHandle<Result<(), ServiceError>>>,
    workers: Vec<Child>,
}

impl Daemon {
    /// Binds a daemon with `pool` local workers (and a durable cache in
    /// its directory when `durable`) and runs it on its own thread.
    fn start(tag: &str, pool: usize, durable: bool) -> Result<Daemon, String> {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(RUN_DIR).join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            STARTED.fetch_add(1, Ordering::Relaxed)
        ));
        let mut daemon = Daemon {
            endpoint: Endpoint::Unix(dir.join("d.sock")),
            dir,
            server: None,
            workers: Vec::new(),
        };
        fs::create_dir_all(&daemon.dir)
            .map_err(|e| format!("creating {}: {e}", daemon.dir.display()))?;
        let options = ServeOptions {
            cache_dir: durable.then(|| daemon.dir.join("cache")),
            metrics: Some(Arc::new(telemetry::Registry::new())),
            ..ServeOptions::new(daemon.endpoint.clone(), pool)
        };
        let server = Server::bind(&options).map_err(|e| format!("binding the daemon: {e}"))?;
        daemon.server = Some(thread::spawn(move || server.run()));
        Ok(daemon)
    }

    /// Starts `count` worker processes and waits until all registered.
    fn spawn_workers(&mut self, count: usize) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let Endpoint::Unix(socket) = &self.endpoint else {
            unreachable!("daemons bind unix sockets")
        };
        for _ in 0..count {
            let child = Command::new(&exe)
                .arg(WORKER_FLAG)
                .arg(socket)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning a worker: {e}"))?;
            self.workers.push(child);
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let snapshot = self.stats()?;
            if snapshot.gauge("fleet.workers") == Some(count as i64) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "only {:?} of {count} workers registered",
                    snapshot.gauge("fleet.workers")
                ));
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    fn stats(&self) -> Result<MetricsSnapshot, String> {
        client::stats(&self.endpoint).map_err(|e| format!("stats: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            // A daemon that is already gone refuses the connection; the
            // join then returns at once.
            let _ = client::shutdown(&self.endpoint);
            let _ = server.join();
        }
        for worker in &mut self.workers {
            let _ = worker.kill();
            let _ = worker.wait();
        }
        let _ = fs::remove_dir_all(&self.dir);
        // Removed only once no other daemon's directory is left in it.
        let _ = fs::remove_dir(RUN_DIR);
    }
}

/// What a job stream's traced run adds up, per job.
#[derive(Debug, Default)]
struct Trace {
    jobs: f64,
    client_ms: f64,
    server_ms: f64,
    wire_bytes: f64,
    wire_ns: f64,
    stats: SweepStats,
    shards_cached: f64,
    shards_executed: f64,
    shards_remote: f64,
}

impl Trace {
    /// Re-encodes and re-decodes the frames the job streamed back, timing
    /// the wire codec on exactly that traffic.
    fn absorb(
        &mut self,
        spec: &JobSpec,
        outcome: &JobOutcome,
        client_ms: f64,
    ) -> Result<(), String> {
        let mut frames: Vec<Frame> =
            outcome.shard_frames.iter().cloned().map(Frame::ShardDone).collect();
        frames.push(Frame::JobDone(JobDone {
            job: spec.id,
            result: outcome.result.clone(),
            stats: outcome.stats,
            shards_total: outcome.shards_total,
            shards_cached: outcome.shards_cached,
            shards_executed: outcome.shards_executed,
            fleet_workers: outcome.fleet_workers,
            shards_remote: outcome.shards_remote,
            leases_requeued: outcome.leases_requeued,
            wall_ms: outcome.wall_ms,
        }));
        let start = Instant::now();
        for frame in &frames {
            let line = wire::encode_line(frame);
            self.wire_bytes += line.len() as f64;
            let decoded = wire::decode_line(&line).map_err(|e| format!("wire round trip: {e}"))?;
            if &decoded != frame {
                return Err("a frame changed over a wire round trip".into());
            }
        }
        self.wire_ns += start.elapsed().as_nanos() as f64;
        self.jobs += 1.0;
        self.client_ms += client_ms;
        self.server_ms += outcome.wall_ms;
        self.stats.merge(outcome.stats);
        self.shards_cached += outcome.shards_cached as f64;
        self.shards_executed += outcome.shards_executed as f64;
        self.shards_remote += outcome.shards_remote as f64;
        Ok(())
    }

    /// The per-layer metrics, from the stream's own sums and the daemon's
    /// phase histograms and counters over the traced stream.
    fn layers(
        &self,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        width: f64,
        report: &mut Report,
    ) {
        let jobs = self.jobs.max(1.0);
        let histogram_us = |name: &str| {
            let sum = |snapshot: &MetricsSnapshot| snapshot.histogram(name).map_or(0, |h| h.sum_us);
            (sum(after) - sum(before)) as f64
        };
        let counter = |name: &str| {
            let value = |snapshot: &MetricsSnapshot| snapshot.counter(name).unwrap_or(0);
            (value(after) - value(before)) as f64
        };
        let (dispatch, exec, merge) = (
            histogram_us("phase.dispatch_us"),
            histogram_us("phase.shard_exec_us"),
            histogram_us("phase.merge_us"),
        );
        let overhead_ms = self.client_ms - self.server_ms;
        let covered_ms = overhead_ms + (dispatch + exec / width + merge) / 1e3;
        let s = &self.stats;
        let per_job = [
            ("service.queue_wait_us", histogram_us("phase.queue_wait_us")),
            ("service.dispatch_us", dispatch),
            ("service.shard_exec_us", exec),
            ("service.merge_us", merge),
            ("service.store.append_us", histogram_us("store.append_us")),
            ("service.wire_bytes_per_job", self.wire_bytes),
            ("service.wire_us_per_job", self.wire_ns / 1e3),
            ("service.client_overhead_ms", overhead_ms),
            ("lease.granted", counter("lease.granted")),
            ("lease.requeued", counter("lease.requeued")),
            ("lease.expired", counter("lease.expired")),
            ("lease.duplicates", counter("lease.duplicates")),
            ("count.scenarios", s.scenarios as f64),
            ("count.runs_simulated", s.runs.simulated as f64),
            ("count.runs_reused", s.runs.reused as f64),
            ("count.analyses_requested", s.cache.lookups() as f64),
            ("count.analyses_constructed", s.cache.constructions() as f64),
            ("count.patterns_unranked", s.cursor.patterns_unranked as f64),
            ("count.shards_cached", self.shards_cached),
            ("count.shards_executed", self.shards_executed),
            ("count.cache_replays", counter("cache.replays")),
            ("count.cache_misses", counter("cache.misses_total")),
            ("trace.wall_ms", self.client_ms + self.wire_ns / 1e6),
            ("trace.untraced_wall_ms", self.client_ms),
        ];
        for (name, total) in per_job {
            report.layers.insert(name, total / jobs);
        }
        if self.shards_executed > 0.0 {
            report
                .layers
                .insert("service.shards_remote_frac", self.shards_remote / self.shards_executed);
        }
        report.layers.insert("trace.coverage", covered_ms / self.client_ms);
        report.lines.push(format!(
            "traced jobs: {}; per job: client wall {:.3} ms, wire round trip {:.1} us; phases \
             cover {:.1}% of the client wall",
            self.jobs,
            self.client_ms / jobs,
            self.wire_ns / jobs / 1e3,
            covered_ms / self.client_ms * 100.0
        ));
    }
}

/// One job of a stream: the spec, its kind (metric name) and whether the
/// daemon must replay it entirely from its cache.
struct Job {
    spec: JobSpec,
    kind: &'static str,
    warm: bool,
}

/// The job kinds of the service streams.
#[derive(Debug, Clone, Copy)]
enum Mix {
    /// A built-in job executed with the shard cache off.
    ColdThm1,
    ColdOmission,
    /// A built-in job replayed from the shard cache.
    WarmThm1,
    WarmOmission,
    /// Theorem 3 on a new seed: executes and appends to the store.
    WriteThm3,
    /// Theorem 3 on a seed written before: a replay.
    WarmThm3,
}

impl Mix {
    fn job(self, id: u64, seed: u64, shards: usize) -> Job {
        let (kind, query, warm) = match self {
            Mix::ColdThm1 => ("cold_job_ms.thm1", QueryKind::Thm1, false),
            Mix::ColdOmission => ("cold_job_ms.omission", QueryKind::Omission, false),
            // A replay runs the same code whatever the query: one kind.
            Mix::WarmThm1 => ("warm_job_ms", QueryKind::Thm1, true),
            Mix::WarmOmission => ("warm_job_ms", QueryKind::Omission, true),
            Mix::WriteThm3 => ("write_job_ms.thm3", QueryKind::Thm3, false),
            Mix::WarmThm3 => ("warm_job_ms", QueryKind::Thm3, true),
        };
        let shard_cache = !matches!(self, Mix::ColdThm1 | Mix::ColdOmission);
        Job { spec: JobSpec { id, query, scope: None, shards, seed, shard_cache }, kind, warm }
    }
}

/// One block of the `daemon-mixed` stream, in a seeded order: one cold
/// and one warm job of each daemon query.  There is no recorded traffic
/// to weight them by, so each appears once per block.
const BLOCK: [Mix; 6] = [
    Mix::ColdThm1,
    Mix::WarmThm1,
    Mix::ColdOmission,
    Mix::WarmOmission,
    Mix::WriteThm3,
    Mix::WarmThm3,
];

/// Submits one job, checks its cache behaviour, and returns its result
/// and client wall in milliseconds.
fn submit(
    daemon: &Daemon,
    job: &Job,
    trace: Option<&mut Trace>,
) -> (f64, Result<QueryResult, String>) {
    let began = Instant::now();
    let outcome = client::submit(&daemon.endpoint, &job.spec);
    let ms = began.elapsed().as_secs_f64() * 1e3;
    let checked =
        outcome.map_err(|e| format!("job {} failed: {e}", job.spec.id)).and_then(|outcome| {
            let expected = if job.warm { outcome.shards_total } else { 0 };
            if outcome.shards_cached != expected || outcome.shards_total == 0 {
                return Err(format!(
                    "{} of {} shards cached, expected {expected}",
                    outcome.shards_cached, outcome.shards_total
                ));
            }
            if let Some(trace) = trace {
                trace.absorb(&job.spec, &outcome, ms)?;
            }
            Ok(outcome.result)
        });
    (ms, checked)
}

/// Client-side summary lines: the job latencies of the service
/// workloads, by the names the metric table uses.
fn describe_jobs(report: &mut Report) {
    report.describe_walls();
    let all = report.walls.all();
    let by_prefix = |prefix: &str| -> Vec<f64> {
        let kinds = report.walls.kinds().iter().filter(|kind| kind.starts_with(prefix));
        kinds.flat_map(|kind| report.walls.of(kind).iter().copied()).collect()
    };
    let mut lines = vec![format!("job_ms.p50: {:.3} ms over {} jobs", median(&all), all.len())];
    if let Some((label, value)) = reportable_tail(&all).filter(|&(label, _)| label != "p50") {
        lines.push(format!("job_ms.{label}: {value:.3} ms"));
    }
    let cold: Vec<f64> = [by_prefix("cold_"), by_prefix("write_")].concat();
    let warm = by_prefix("warm_");
    for (name, values) in [("cold_job_ms.p50", cold), ("warm_job_ms.p50", warm)] {
        if !values.is_empty() {
            lines.push(format!("{name}: {:.3} ms over {} jobs", median(&values), values.len()));
        }
    }
    lines
        .push(format!("jobs_per_s: {:.3} 1/s", all.len() as f64 / (report.walls.total_ms() / 1e3)));
    report.lines.extend(lines);
}

/// The in-process reference folds of the built-in Theorem 1 and omission
/// jobs, checked against the paper's claims.
fn reference(query: QueryKind) -> Result<QueryResult, String> {
    let config = SweepConfig::default();
    let error = |e: synchrony::ModelError| format!("{} reference: {e}", query.name());
    let result = match query {
        QueryKind::Thm1 => experiments::thm1(&config).map(QueryResult::Thm1).map_err(error)?,
        QueryKind::Omission => {
            experiments::omission(&config).map(QueryResult::Omission).map_err(error)?
        }
        _ => unreachable!("only thm1 and omission jobs are built in"),
    };
    match &result {
        QueryResult::Thm1(rows) => gate::thm1(rows)?,
        QueryResult::Omission(rows) => gate::omission(rows)?,
        _ => {}
    }
    Ok(result)
}

fn thm3_reference(seed: u64) -> Result<QueryResult, String> {
    let rows = experiments::thm3(&SweepConfig { seed, ..SweepConfig::default() })
        .map_err(|e| format!("thm3 reference: {e}"))?;
    gate::thm3(&rows)?;
    Ok(QueryResult::Thm3(rows))
}

/// `daemon-mixed`: the built-in Theorem 1 and omission jobs run cold,
/// then a seeded closed-loop stream of cold executions, Theorem 3 jobs on
/// new seeds (which append to the durable store) and warm replays.
pub fn daemon_mixed(run: Run) -> Result<Report, String> {
    let mut report = Report::default();
    let (daemon, thm1, omission) = report.time_setup(|| {
        let daemon = Daemon::start("daemon", DAEMON_POOL, true)?;
        let (thm1, omission) = (reference(QueryKind::Thm1)?, reference(QueryKind::Omission)?);
        daemon.stats()?;
        Ok((daemon, thm1, omission))
    })?;
    let mut order = SplitMix::new(run.seed, 3);
    let mut new_seeds = SplitMix::new(run.seed, 4);
    let mut written: Vec<u64> = Vec::new();
    let mut thm3_results: Vec<(&'static str, f64, u64, QueryResult)> = Vec::new();
    let mut trace = run.trace.then(Trace::default);
    let before = if run.trace { Some(daemon.stats()?) } else { None };
    // The prelude runs each built-in job cold with the cache on, filling
    // it for the warm replays, and writes a first Theorem 3 seed.
    let mut slots = vec![Mix::ColdThm1, Mix::ColdOmission, Mix::WriteThm3];
    let mut id = 0u64;
    let start = Instant::now();
    loop {
        for mix in slots {
            id += 1;
            let seed = match mix {
                Mix::WriteThm3 => {
                    written.push(new_seeds.next_u64() >> 1);
                    written[written.len() - 1]
                }
                Mix::WarmThm3 => written[order.below(written.len())],
                _ => SweepConfig::DEFAULT_SEED,
            };
            let mut job = mix.job(id, seed, 0);
            job.spec.shard_cache |= id <= 2;
            let (ms, result) = submit(&daemon, &job, trace.as_mut());
            match (job.spec.query, result) {
                (QueryKind::Thm3, Ok(result)) => thm3_results.push((job.kind, ms, seed, result)),
                (QueryKind::Thm1, Ok(result)) => {
                    report.op(job.kind, ms, gate::same("thm1 job", &result, &thm1))
                }
                (_, Ok(result)) => {
                    report.op(job.kind, ms, gate::same("omission job", &result, &omission))
                }
                (_, Err(reason)) => report.op(job.kind, ms, Err(reason)),
            }
        }
        if run.over(start) {
            break;
        }
        slots = BLOCK.to_vec();
        order.shuffle(&mut slots);
    }
    // Theorem 3 results are checked against references computed after
    // the timed stream, one per seed.
    let mut references: Vec<(u64, QueryResult)> = Vec::new();
    for (kind, ms, seed, result) in thm3_results {
        if !references.iter().any(|(s, _)| *s == seed) {
            references.push((seed, thm3_reference(seed)?));
        }
        let reference = &references.iter().find(|(s, _)| *s == seed).expect("computed above").1;
        report.op(kind, ms, gate::same("thm3 job", &result, reference));
    }
    if let (Some(trace), Some(before)) = (trace, before) {
        trace.layers(&before, &daemon.stats()?, DAEMON_POOL as f64, &mut report);
    }
    describe_jobs(&mut report);
    drop(daemon);
    Ok(report)
}

/// `fleet-cold`: cold built-in Theorem 1 jobs over two worker processes.
pub fn fleet_cold(run: Run) -> Result<Report, String> {
    let mut report = Report::default();
    let (daemon, thm1) = report.time_setup(|| {
        let mut daemon = Daemon::start("fleet", FLEET_POOL, false)?;
        daemon.spawn_workers(FLEET_WORKERS)?;
        Ok((daemon, reference(QueryKind::Thm1)?))
    })?;
    let mut trace = run.trace.then(Trace::default);
    let before = if run.trace { Some(daemon.stats()?) } else { None };
    let start = Instant::now();
    for id in 1u64.. {
        let job = Mix::ColdThm1.job(id, SweepConfig::DEFAULT_SEED, FLEET_SHARDS);
        let (ms, result) = submit(&daemon, &job, trace.as_mut());
        report.op(job.kind, ms, result.and_then(|result| gate::same("fleet job", &result, &thm1)));
        if run.over(start) {
            break;
        }
    }
    if let (Some(trace), Some(before)) = (trace, before) {
        let width = (FLEET_WORKERS + FLEET_POOL) as f64;
        trace.layers(&before, &daemon.stats()?, width, &mut report);
    }
    describe_jobs(&mut report);
    drop(daemon);
    Ok(report)
}

//! End-to-end daemon tests: determinism of the streamed fold against the
//! in-process engine (cold and warm cache, several shard/worker combos),
//! the job-granularity Proposition 2 path, concurrent dispatch,
//! cancellation, queue backpressure, the thread-scaling smoke hook, and
//! graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use service::net::Stream;
use service::wire::{self, encode_line, ErrorKind, Frame, QueryResult};
use service::{client, Endpoint, JobSpec, QueryKind, ScopeSpec, ServeOptions, Server};
use sweep::experiments::{self, Thm1Reducer};
use sweep::{sweep_with_stats, SweepConfig};

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sweep-e2e-{tag}-{}-{}.sock",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Binds a daemon with explicit options and runs it on its own thread.
fn start_daemon_with(options: ServeOptions) -> (Endpoint, JoinHandle<()>) {
    let server = Server::bind(&options).expect("bind the daemon");
    let endpoint = server.endpoint().clone();
    let handle = thread::spawn(move || server.run().expect("daemon run"));
    (endpoint, handle)
}

/// Binds a daemon on a fresh Unix socket and runs it on its own thread.
fn start_daemon(tag: &str, workers: usize) -> (Endpoint, JoinHandle<()>) {
    start_daemon_with(ServeOptions::new(Endpoint::Unix(temp_socket(tag)), workers))
}

/// Options for the hardening tests: explicit dispatcher count and queue
/// bound so the scheduling scenarios are deterministic.
fn hardened_options(tag: &str, dispatchers: usize, queue_capacity: usize) -> ServeOptions {
    ServeOptions {
        dispatchers,
        queue_capacity,
        ..ServeOptions::new(Endpoint::Unix(temp_socket(tag)), 1)
    }
}

/// A raw client connection: lets a test hold a job open (streamed frames
/// unread) while doing other things — the piece `client::submit`'s
/// blocking loop can't express.
struct RawConnection {
    writer: Stream,
    reader: BufReader<Stream>,
}

impl RawConnection {
    fn connect(endpoint: &Endpoint) -> RawConnection {
        let stream = Stream::connect(endpoint).expect("raw connect");
        let writer = stream.try_clone().expect("raw write half");
        RawConnection { writer, reader: BufReader::new(stream) }
    }

    fn send(&mut self, frame: &Frame) {
        self.writer.write_all(encode_line(frame).as_bytes()).expect("raw send");
        self.writer.flush().expect("raw flush");
    }

    fn read_frame(&mut self) -> Frame {
        let mut line = String::new();
        loop {
            line.clear();
            let read = self.reader.read_line(&mut line).expect("raw read");
            assert!(read > 0, "daemon closed the connection mid-stream");
            if !line.trim().is_empty() {
                return wire::decode_line(&line).expect("well-formed frame");
            }
        }
    }

    /// Reads until the first `shard-done` of `job` — the witness that the
    /// job has been popped off the queue and is executing.
    fn wait_for_first_shard(&mut self, job: u64) {
        loop {
            if let Frame::ShardDone(frame) = self.read_frame() {
                assert_eq!(frame.job, job);
                return;
            }
        }
    }
}

/// A scope big enough (1040 scenarios) that a 1-worker daemon is reliably
/// still executing it while a test submits, cancels or queues other jobs.
const LONG_SCOPE: ScopeSpec =
    ScopeSpec { n: 4, t: 1, k: 1, max_value: 1, max_crash_round: 2, partial_delivery: true };

fn long_scope_spec(id: u64, shards: usize) -> JobSpec {
    JobSpec {
        id,
        query: QueryKind::Thm1,
        scope: Some(LONG_SCOPE),
        shards,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache: false,
    }
}

fn stop_daemon(endpoint: &Endpoint, handle: JoinHandle<()>) {
    client::shutdown(endpoint).expect("graceful shutdown");
    handle.join().expect("daemon thread");
}

/// The small Theorem 1 scope every determinism test uses: 200 scenarios.
const SMALL_SCOPE: ScopeSpec =
    ScopeSpec { n: 3, t: 1, k: 1, max_value: 1, max_crash_round: 2, partial_delivery: true };

fn small_scope_spec(id: u64, shards: usize, shard_cache: bool) -> JobSpec {
    JobSpec {
        id,
        query: QueryKind::Thm1,
        scope: Some(SMALL_SCOPE),
        shards,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache,
    }
}

/// The in-process reference: `sweep_with_stats` over the same scope —
/// the fold the daemon must reproduce bit-identically.
fn in_process_reference(shards: usize, threads: usize) -> (experiments::Thm1Case, u64) {
    let scope = SMALL_SCOPE.to_crash();
    let source = experiments::thm1_source(scope, SMALL_SCOPE.k).expect("small scope");
    let adversaries = source.space().len();
    let config = SweepConfig { shards, threads, ..SweepConfig::default() };
    let (acc, stats) = sweep_with_stats(&source, &config, &Thm1Reducer, experiments::thm1_job)
        .expect("in-process sweep");
    (experiments::thm1_case_row(&scope, SMALL_SCOPE.k, adversaries, acc), stats.scenarios)
}

/// Acceptance: for thm1 on a small scope, the daemon-streamed final fold
/// is bit-identical to the in-process `sweep_with_stats` result at several
/// `(shards, workers)` combos, both cold-cache and warm-cache — and the
/// warm run executes zero non-cold shards (asserted via the streamed
/// stats).
#[test]
fn daemon_fold_is_bit_identical_to_in_process_cold_and_warm() {
    for (daemon_index, workers) in [1usize, 2].into_iter().enumerate() {
        let (endpoint, handle) = start_daemon("determinism", workers);
        for (job_index, shards) in [1usize, 2, 5].into_iter().enumerate() {
            let (reference, total_scenarios) = in_process_reference(shards, workers);
            let expected = QueryResult::Thm1(vec![reference.clone()]);
            let id = (daemon_index * 100 + job_index * 10) as u64;

            // Cold: a fingerprint this daemon has never seen.  Every shard
            // executes; the streamed stats cover the whole scope.
            let cold = client::submit(&endpoint, &small_scope_spec(id, shards, true))
                .expect("cold submit");
            assert_eq!(cold.result, expected, "cold fold at {shards} shards, {workers} workers");
            assert_eq!(cold.shards_cached, 0, "first run of a fingerprint must be fully cold");
            assert_eq!(cold.shards_executed, cold.shards_total);
            assert_eq!(cold.stats.scenarios, total_scenarios);
            assert_eq!(cold.shard_frames.len() as u64, cold.shards_total);
            assert!(cold.partials > 0, "a cold run must stream partial folds");
            // No `sweep worker` ever registered with this daemon: the
            // fleet accounting must report a purely local execution.
            assert_eq!(cold.fleet_workers, 0, "no remote workers in local mode");
            assert_eq!(cold.shards_remote, 0, "no shard may claim remote execution");
            assert_eq!(cold.leases_requeued, 0, "no lease activity without a fleet");

            // Warm: the identical job replays every shard from the
            // accumulator cache and executes nothing.
            let warm = client::submit(&endpoint, &small_scope_spec(id + 1, shards, true))
                .expect("warm submit");
            assert_eq!(warm.result, expected, "warm fold at {shards} shards, {workers} workers");
            assert_eq!(warm.shards_cached, warm.shards_total, "warm run must be 100% cached");
            assert_eq!(warm.shards_executed, 0, "warm run must execute no shards");
            assert_eq!(warm.stats.scenarios, 0, "warm run must execute no scenarios");
            assert!(
                warm.shard_frames.iter().all(|f| f.cached),
                "every warm shard frame must be marked cached"
            );

            // Bypassing the cache forces a cold execution again — and still
            // the same fold.
            let bypass = client::submit(&endpoint, &small_scope_spec(id + 2, shards, false))
                .expect("bypass submit");
            assert_eq!(bypass.result, expected);
            assert_eq!(bypass.shards_cached, 0);
            assert_eq!(bypass.stats.scenarios, total_scenarios);
        }
        stop_daemon(&endpoint, handle);
    }
}

/// The same scope under the omission model: `max_crash_round` carries the
/// omission round horizon, so this is `OmissionConfig { n: 3, t: 1,
/// max_value: 1, rounds: 2 }` — 800 scenarios.
fn omission_scope_spec(id: u64, shards: usize, shard_cache: bool) -> JobSpec {
    JobSpec { query: QueryKind::Omission, ..small_scope_spec(id, shards, shard_cache) }
}

/// The in-process omission reference over the same scope shape.
fn omission_reference(shards: usize, threads: usize) -> experiments::Thm1Case {
    let scope = experiments::omission_scope(SMALL_SCOPE.n, SMALL_SCOPE.t, SMALL_SCOPE.k);
    let source = experiments::omission_source(scope, SMALL_SCOPE.k).expect("small omission scope");
    let adversaries = source.space().len();
    let config = SweepConfig { shards, threads, ..SweepConfig::default() };
    let (acc, _) = sweep_with_stats(&source, &config, &Thm1Reducer, experiments::thm1_job)
        .expect("in-process omission sweep");
    experiments::omission_case_row(&scope, SMALL_SCOPE.k, adversaries, acc)
}

/// Cross-model cache isolation, end to end: a thm1 job and an omission job
/// on the *same* scope shape share a daemon (and its shard cache) without
/// ever replaying each other's shards — each model is cold on first sight,
/// 100% cached on its own repeat, and each fold matches its in-process
/// reference bit-identically.
#[test]
fn crash_and_omission_jobs_share_a_daemon_without_cross_replay() {
    let shards = 4;
    let (endpoint, handle) = start_daemon("cross-model", 1);

    let crash_expected = QueryResult::Thm1(vec![in_process_reference(shards, 1).0]);
    let omission_expected = QueryResult::Omission(vec![omission_reference(shards, 1)]);
    assert_ne!(crash_expected, omission_expected, "the two models must disagree on this scope");

    let crash_cold =
        client::submit(&endpoint, &small_scope_spec(41, shards, true)).expect("crash cold");
    assert_eq!(crash_cold.result, crash_expected);
    assert_eq!(crash_cold.shards_cached, 0);

    // The omission job sees a warm crash cache for the identical scope
    // string — and must not replay a single shard from it.
    let omission_cold =
        client::submit(&endpoint, &omission_scope_spec(42, shards, true)).expect("omission cold");
    assert_eq!(omission_cold.result, omission_expected);
    assert_eq!(omission_cold.shards_cached, 0, "omission must never replay crash shards");
    assert_eq!(omission_cold.shards_executed, omission_cold.shards_total);

    // Each model replays only its own accumulators on repeat.
    let crash_warm =
        client::submit(&endpoint, &small_scope_spec(43, shards, true)).expect("crash warm");
    assert_eq!(crash_warm.result, crash_expected);
    assert_eq!(crash_warm.shards_cached, crash_warm.shards_total);
    let omission_warm =
        client::submit(&endpoint, &omission_scope_spec(44, shards, true)).expect("omission warm");
    assert_eq!(omission_warm.result, omission_expected);
    assert_eq!(omission_warm.shards_cached, omission_warm.shards_total);

    stop_daemon(&endpoint, handle);
}

/// Proposition 2 through the daemon, which caches it at job granularity (one
/// "shard" covering the whole report): a cold and a warm job both equal the
/// in-process `experiments::prop2`, the warm job is 100% cached, and both
/// `ShardDone` frames carry the same scenario range.
#[test]
fn prop2_jobs_match_in_process_cold_and_warm() {
    let (endpoint, handle) = start_daemon("prop2", 2);
    let expected = QueryResult::Prop2(
        experiments::prop2(&SweepConfig { threads: 2, ..SweepConfig::default() })
            .expect("in-process prop2"),
    );
    let spec = |id: u64| JobSpec {
        id,
        query: QueryKind::Prop2,
        scope: None,
        shards: 0,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache: true,
    };

    let cold = client::submit(&endpoint, &spec(51)).expect("cold prop2 submit");
    assert_eq!(cold.result, expected, "cold prop2 report");
    assert_eq!((cold.shards_total, cold.shards_cached, cold.shards_executed), (1, 0, 1));
    let warm = client::submit(&endpoint, &spec(52)).expect("warm prop2 submit");
    assert_eq!(warm.result, expected, "warm prop2 report");
    assert_eq!(warm.shards_cached, warm.shards_total, "warm prop2 must be 100% cached");
    assert_eq!(warm.shards_executed, 0);
    assert_eq!(warm.stats.scenarios, 0, "warm prop2 must execute no scenarios");

    let [cold_frame] = cold.shard_frames.as_slice() else { panic!("one cold shard frame") };
    let [warm_frame] = warm.shard_frames.as_slice() else { panic!("one warm shard frame") };
    assert!(!cold_frame.cached && warm_frame.cached);
    assert!(cold_frame.end > 0, "the cold frame covers the executed scenarios");
    assert_eq!(
        (warm_frame.start, warm_frame.end),
        (cold_frame.start, cold_frame.end),
        "the warm frame reports the cached range"
    );
    stop_daemon(&endpoint, handle);
}

/// Theorem 3 and Fig. 4 through the daemon: a cold job at 2 shards on a
/// 2-worker pool equals the in-process fold, and its warm repeat replays
/// every shard from the cache with the same result.
#[test]
fn thm3_and_fig4_jobs_match_in_process_cold_and_warm() {
    let seed = 777;
    let config = SweepConfig { seed, ..SweepConfig::default() };
    let expected = [
        (QueryKind::Thm3, QueryResult::Thm3(experiments::thm3(&config).expect("in-process thm3"))),
        (QueryKind::Fig4, QueryResult::Fig4(experiments::fig4(&config).expect("in-process fig4"))),
    ];
    let (endpoint, handle) = start_daemon("thm3-fig4", 2);
    for (index, (query, expected)) in expected.into_iter().enumerate() {
        let spec = |id: u64| JobSpec { id, query, scope: None, shards: 2, seed, shard_cache: true };
        let id = 60 + 10 * index as u64;
        let cold = client::submit(&endpoint, &spec(id)).expect("cold submit");
        assert_eq!(cold.result, expected, "cold {} fold", query.name());
        assert_eq!(cold.shards_cached, 0, "first {} run must be fully cold", query.name());
        assert_eq!(cold.shards_executed, cold.shards_total);
        let warm = client::submit(&endpoint, &spec(id + 1)).expect("warm submit");
        assert_eq!(warm.result, expected, "warm {} fold", query.name());
        assert_eq!(
            warm.shards_cached,
            warm.shards_total,
            "warm {} must be 100% cached",
            query.name()
        );
        assert_eq!(warm.shards_executed, 0);
    }
    stop_daemon(&endpoint, handle);
}

/// A shard count that does not match the cached partition is a different
/// fingerprint: it must re-execute (no unsound partial replay) and still
/// fold identically.
#[test]
fn mismatched_shard_partitions_never_replay() {
    let (endpoint, handle) = start_daemon("partition", 1);
    let cold = client::submit(&endpoint, &small_scope_spec(1, 2, true)).expect("cold submit");
    let other = client::submit(&endpoint, &small_scope_spec(2, 3, true)).expect("other submit");
    assert_eq!(cold.result, other.result, "folds agree across shard counts");
    assert_eq!(other.shards_cached, 0, "a different partition must not replay");
    stop_daemon(&endpoint, handle);
}

/// A malformed job (custom scope on a non-thm1 query) gets a clean error
/// frame, and the daemon keeps serving afterwards.
#[test]
fn invalid_jobs_error_without_killing_the_daemon() {
    let (endpoint, handle) = start_daemon("invalid", 1);
    let bad = JobSpec {
        id: 7,
        query: QueryKind::Fig4,
        scope: Some(SMALL_SCOPE),
        shards: 1,
        seed: 0,
        shard_cache: true,
    };
    let error = client::submit(&endpoint, &bad).expect_err("scoped fig4 must be rejected");
    assert!(error.to_string().contains("custom scopes"), "unexpected error text: {error}");
    let good = client::submit(&endpoint, &small_scope_spec(8, 1, true));
    assert!(good.is_ok(), "daemon must survive a rejected job");
    stop_daemon(&endpoint, handle);
}

/// An idle client (connected, never submitting — the `nc -U` use the wire
/// docs advertise) must not block graceful shutdown: connection threads
/// wake on a read timeout and observe the flag.
#[test]
fn shutdown_is_not_blocked_by_idle_connections() {
    use service::net::Stream;
    let (endpoint, handle) = start_daemon("idle", 1);
    let idle = Stream::connect(&endpoint).expect("idle connect");
    stop_daemon(&endpoint, handle); // joins the daemon — must not hang
    drop(idle);
}

/// Graceful shutdown: the ack arrives, every thread joins, and the socket
/// file is removed.
#[test]
fn shutdown_is_graceful_and_removes_the_socket() {
    let (endpoint, handle) = start_daemon("shutdown", 1);
    let outcome =
        client::submit(&endpoint, &small_scope_spec(3, 2, true)).expect("submit before shutdown");
    assert_eq!(outcome.shards_total, 2);
    let Endpoint::Unix(path) = &endpoint else { panic!("unix endpoint expected") };
    assert!(path.exists(), "socket file exists while serving");
    stop_daemon(&endpoint, handle);
    assert!(!path.exists(), "socket file must be removed on shutdown");
    assert!(
        client::submit(&endpoint, &small_scope_spec(4, 1, true)).is_err(),
        "a stopped daemon must not accept jobs"
    );
}

/// Thread-scaling smoke, gated on real parallelism: on a multi-core
/// machine it exercises a >1-worker pool end to end and reports the scaling
/// ratio; with a single core it skips.  (The ratio is printed, not
/// asserted, because hardware varies.)
#[test]
fn thread_scaling_smoke() {
    let cores = thread::available_parallelism().map(usize::from).unwrap_or(1);
    if cores < 2 {
        eprintln!("thread_scaling_smoke: skipped (available_parallelism = {cores})");
        return;
    }
    // A somewhat larger scope so the parallel arm has work to spread:
    // n = 4, t = 1 ⇒ 1040 scenarios.
    let scope =
        ScopeSpec { n: 4, t: 1, k: 1, max_value: 1, max_crash_round: 2, partial_delivery: true };
    let spec = |id: u64| JobSpec {
        id,
        query: QueryKind::Thm1,
        scope: Some(scope),
        shards: 8,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache: false, // both arms cold: this measures execution
    };

    let (sequential_endpoint, sequential_handle) = start_daemon("scale-1", 1);
    let start = Instant::now();
    let sequential = client::submit(&sequential_endpoint, &spec(1)).expect("1-worker submit");
    let sequential_wall = start.elapsed();
    stop_daemon(&sequential_endpoint, sequential_handle);

    let workers = cores.min(4);
    let (parallel_endpoint, parallel_handle) = start_daemon("scale-n", workers);
    let start = Instant::now();
    let parallel = client::submit(&parallel_endpoint, &spec(2)).expect("n-worker submit");
    let parallel_wall = start.elapsed();
    stop_daemon(&parallel_endpoint, parallel_handle);

    assert_eq!(sequential.result, parallel.result, "worker count must never change the fold");
    eprintln!(
        "thread_scaling_smoke: 1 worker {:.0} ms, {workers} workers {:.0} ms ({:.2}x)",
        sequential_wall.as_secs_f64() * 1e3,
        parallel_wall.as_secs_f64() * 1e3,
        sequential_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9),
    );
}

/// A job cancelled while still queued never executes: with one dispatcher
/// occupied by a long job, the queued job's cancel is acknowledged as
/// found, and the job terminates with a `cancelled` error frame once the
/// dispatcher reaches it — while the long job completes untouched.
#[test]
fn queued_jobs_can_be_cancelled_before_running() {
    let (endpoint, handle) = start_daemon_with(hardened_options("cancel-queued", 1, 8));

    let mut long = RawConnection::connect(&endpoint);
    long.send(&Frame::Job(long_scope_spec(1, 8)));
    long.wait_for_first_shard(1); // the one dispatcher is now occupied

    let mut queued = RawConnection::connect(&endpoint);
    queued.send(&Frame::Job(small_scope_spec(2, 2, false)));
    // The job registers on its connection thread; retry until the cancel
    // finds it (it stays registered — the dispatcher is busy).
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while !client::cancel(&endpoint, 2).expect("cancel") {
        assert!(Instant::now() < deadline, "queued job never became cancellable");
        thread::sleep(std::time::Duration::from_millis(2));
    }

    // The queued job's only frame is the typed cancellation error.
    match queued.read_frame() {
        Frame::Error(error) => {
            assert_eq!(error.kind, ErrorKind::Cancelled);
            assert_eq!(error.job, Some(2));
        }
        other => panic!("expected a cancelled error frame, got {other:?}"),
    }

    // The long job is unaffected.
    loop {
        match long.read_frame() {
            Frame::JobDone(done) => {
                assert_eq!(done.job, 1);
                break;
            }
            Frame::ShardDone(_) | Frame::Partial(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    stop_daemon(&endpoint, handle);
}

/// Cancelling a *running* job drains its pending shards as fast
/// cancellations: the job terminates with a `cancelled` error frame and
/// the daemon keeps serving.
#[test]
fn running_jobs_can_be_cancelled() {
    let (endpoint, handle) = start_daemon_with(hardened_options("cancel-running", 1, 8));

    let mut long = RawConnection::connect(&endpoint);
    long.send(&Frame::Job(long_scope_spec(31, 8)));
    long.wait_for_first_shard(31);
    assert!(client::cancel(&endpoint, 31).expect("cancel"), "running job must be found");

    // In-flight shards may still land; the terminal frame is the typed
    // cancellation error.
    loop {
        match long.read_frame() {
            Frame::Error(error) => {
                assert_eq!(error.kind, ErrorKind::Cancelled);
                assert_eq!(error.job, Some(31));
                break;
            }
            Frame::ShardDone(_) | Frame::Partial(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // A cancel for a finished (deregistered) job reports not-found.
    assert!(!client::cancel(&endpoint, 31).expect("cancel after the fact"));

    // The daemon survives and still serves.
    let next = client::submit(&endpoint, &small_scope_spec(32, 2, true));
    assert!(next.is_ok(), "daemon must keep serving after a cancellation");
    stop_daemon(&endpoint, handle);
}

/// A full job queue rejects further submissions with a typed `queue-full`
/// error frame — and the job that *did* fit still runs to completion.
#[test]
fn full_job_queue_rejects_with_typed_error() {
    let (endpoint, handle) = start_daemon_with(hardened_options("backpressure", 1, 1));

    let mut long = RawConnection::connect(&endpoint);
    long.send(&Frame::Job(long_scope_spec(11, 8)));
    long.wait_for_first_shard(11); // popped: the queue itself is empty again

    // Same connection ⇒ strictly ordered handling: the first job fills the
    // 1-slot queue, the second must bounce.
    let mut queued = RawConnection::connect(&endpoint);
    queued.send(&Frame::Job(small_scope_spec(12, 2, false)));
    queued.send(&Frame::Job(small_scope_spec(13, 2, false)));

    // The rejection arrives first (sent synchronously by the connection
    // thread); the admitted job's frames follow once the dispatcher frees.
    match queued.read_frame() {
        Frame::Error(error) => {
            assert_eq!(error.kind, ErrorKind::QueueFull);
            assert_eq!(error.job, Some(13));
        }
        other => panic!("expected a queue-full error frame, got {other:?}"),
    }
    loop {
        match queued.read_frame() {
            Frame::JobDone(done) => {
                assert_eq!(done.job, 12, "the admitted job must still complete");
                break;
            }
            Frame::ShardDone(_) | Frame::Partial(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    loop {
        if let Frame::JobDone(done) = long.read_frame() {
            assert_eq!(done.job, 11);
            break;
        }
    }
    stop_daemon(&endpoint, handle);
}

/// With more than one dispatcher, a warm (fully cached) job overtakes a
/// long cold job instead of waiting behind it in FIFO order — the point of
/// concurrent per-connection dispatch.
#[test]
fn concurrent_dispatch_lets_warm_jobs_overtake_long_ones() {
    let (endpoint, handle) = start_daemon_with(hardened_options("overtake", 2, 8));

    // Warm the small scope so the overtaking job is pure cache replay.
    let cold = client::submit(&endpoint, &small_scope_spec(21, 2, true)).expect("warming submit");
    assert_eq!(cold.shards_cached, 0);

    let mut long = RawConnection::connect(&endpoint);
    long.send(&Frame::Job(long_scope_spec(22, 8)));
    long.wait_for_first_shard(22);

    // The long job holds one dispatcher; the warm job rides the other.
    let overtake_started = Instant::now();
    let warm = client::submit(&endpoint, &small_scope_spec(23, 2, true)).expect("warm submit");
    let warm_done = Instant::now();
    assert_eq!(warm.shards_executed, 0, "overtaking job must be pure replay");

    let long_done = loop {
        if let Frame::JobDone(done) = long.read_frame() {
            assert_eq!(done.job, 22);
            break Instant::now();
        }
    };
    assert!(
        warm_done < long_done,
        "warm job must finish while the long job is still executing \
         (warm took {:?} from submit)",
        warm_done - overtake_started
    );
    stop_daemon(&endpoint, handle);
}

/// The TCP flavor works end to end (port 0 resolves to a free port).
#[test]
fn tcp_endpoint_serves_jobs() {
    let options = ServeOptions::new(Endpoint::Tcp("127.0.0.1:0".into()), 1);
    let server = Server::bind(&options).expect("bind tcp");
    let endpoint = server.endpoint().clone();
    assert!(!matches!(&endpoint, Endpoint::Tcp(addr) if addr.ends_with(":0")));
    let handle = thread::spawn(move || server.run().expect("daemon run"));
    let outcome = client::submit(&endpoint, &small_scope_spec(1, 2, true)).expect("tcp submit");
    let QueryResult::Thm1(rows) = &outcome.result else { panic!("thm1 result expected") };
    assert_eq!(rows.len(), 1);
    stop_daemon(&endpoint, handle);
}

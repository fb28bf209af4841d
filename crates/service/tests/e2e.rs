//! End-to-end daemon tests: determinism of the streamed fold against the
//! in-process engine (cold and warm cache, several shard/worker combos),
//! the job-granularity Proposition 2 path, jobs on concurrent
//! connections and back to back on one, cancellation, the connection
//! bound, the thread-scaling smoke hook, and graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use service::net::{Stream, MAX_FRAME_BYTES};
use service::wire::{self, encode_line, ErrorKind, Frame, QueryResult};
use service::{
    client, Endpoint, JobSpec, QueryKind, ScopeSpec, ServeOptions, Server, ServiceError,
};
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

/// Binds a daemon on a fresh Unix socket and runs it on its own thread.
fn start_daemon(tag: &str, workers: usize) -> (Endpoint, JoinHandle<()>) {
    let options = ServeOptions::new(Endpoint::Unix(temp_socket(tag)), workers);
    let server = Server::bind(&options).expect("bind the daemon");
    let endpoint = server.endpoint().clone();
    let handle = thread::spawn(move || server.run().expect("daemon run"));
    (endpoint, handle)
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
            if let Some(frame) = wire::decode_stream_line(&line).expect("well-formed frame") {
                return frame;
            }
        }
    }

    /// Reads until the first `shard-done` of `job` — the witness that the
    /// job is executing.
    fn wait_for_first_shard(&mut self, job: u64) {
        loop {
            if let Frame::ShardDone(frame) = self.read_frame() {
                assert_eq!(frame.job, job);
                return;
            }
        }
    }
}

/// A scope far bigger than any test waits for (839,565 scenarios, about
/// 2.4 s on one release-build worker and many times that in a debug build),
/// so a 1-worker daemon is still executing it while a test submits or
/// cancels other jobs.  Every test that starts it cancels it
/// rather than waiting for it to finish; its 64 shards keep the in-flight
/// work a cancellation waits for short.
const LONG_SCOPE: ScopeSpec =
    ScopeSpec { n: 5, t: 3, k: 2, max_value: 2, max_crash_round: 2, partial_delivery: true };

/// Cancels the running long job `job` and reads its connection up to the
/// terminal frame, which must be the typed cancellation error.
fn cancel_long_job(endpoint: &Endpoint, long: &mut RawConnection, job: u64) {
    assert!(client::cancel(endpoint, job).expect("cancel"), "the long job must still be running");
    loop {
        match long.read_frame() {
            Frame::Error(error) => {
                assert_eq!(error.kind, ErrorKind::Cancelled);
                assert_eq!(error.job, Some(job));
                return;
            }
            Frame::ShardDone(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

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

/// A job frame asking for more than `sweep::MAX_SHARDS` shards (here
/// 2^40, whose range list alone would need 16 TiB) gets a typed `model`
/// error frame before any partition is cut — for a sharded query and for
/// prop2 — and the same daemon then completes a normal job.
#[test]
fn oversized_shard_counts_are_refused_and_the_daemon_keeps_serving() {
    let (endpoint, handle) = start_daemon("shards", 1);
    let mut raw = RawConnection::connect(&endpoint);
    for (id, query) in [(21, QueryKind::Thm1), (22, QueryKind::Prop2)] {
        let scope = (query == QueryKind::Thm1).then_some(SMALL_SCOPE);
        raw.send(&Frame::Job(JobSpec {
            scope,
            query,
            ..small_scope_spec(id, 1_099_511_627_776, true)
        }));
        match raw.read_frame() {
            Frame::Error(error) => {
                assert_eq!((error.job, error.kind), (Some(id), ErrorKind::Model), "{query:?}");
                assert!(error.message.contains("65536"), "{}", error.message);
            }
            other => panic!("expected a model error frame for {query:?}, got {other:?}"),
        }
    }
    let outcome = client::submit(&endpoint, &small_scope_spec(23, 2, true));
    assert!(outcome.is_ok(), "the daemon keeps serving: {outcome:?}");
    stop_daemon(&endpoint, handle);
}

/// A line longer than the frame bound is refused — a `protocol` error
/// frame naming the bound, then EOF — instead of being buffered without
/// end, and the daemon keeps serving fresh connections.  The read timeout
/// turns a daemon that waits for the newline into a failure, not a hang.
#[test]
fn an_oversized_frame_line_is_refused_and_the_daemon_keeps_serving() {
    let (endpoint, handle) = start_daemon("oversized", 1);
    let mut stream = Stream::connect(&endpoint).expect("raw connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("raw read half"));
    stream.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1]).expect("oversized write");
    stream.flush().expect("raw flush");
    let mut line = String::new();
    let read = reader.read_line(&mut line).expect("the daemon answers the oversized line");
    if read > 0 {
        match wire::decode_line(&line).expect("well-formed frame") {
            Frame::Error(error) => {
                assert_eq!(error.kind, ErrorKind::Protocol);
                assert!(error.message.contains(&MAX_FRAME_BYTES.to_string()), "{}", error.message);
            }
            other => panic!("expected a protocol error frame, got {other:?}"),
        }
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("read after the error"), 0, "then EOF");
    }
    let outcome = client::submit(&endpoint, &small_scope_spec(9, 2, true));
    assert!(outcome.is_ok(), "a fresh connection still gets served: {outcome:?}");
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

/// The daemon serves at most `ServeOptions::MAX_CONNECTIONS` connections
/// at once: one more gets a single `queue-full` error frame and is closed,
/// while the sessions already open keep working, and a slot freed by a
/// closed session is reused.
#[test]
fn a_connection_over_the_bound_is_refused_and_open_sessions_keep_working() {
    let (endpoint, handle) = start_daemon("connection-bound", 1);
    let mut open: Vec<RawConnection> =
        (0..ServeOptions::MAX_CONNECTIONS).map(|_| RawConnection::connect(&endpoint)).collect();
    // A round trip on each: every bounded slot has been accepted, and each
    // session has completed its first frame, so none is closed as idle.
    for session in &mut open {
        session.send(&Frame::Stats);
        assert!(matches!(session.read_frame(), Frame::StatsResult(_)));
    }

    let mut excess = RawConnection::connect(&endpoint);
    // Fail rather than hang if the daemon serves it instead.
    excess.reader.get_ref().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match excess.read_frame() {
        Frame::Error(error) => {
            assert_eq!(error.kind, ErrorKind::QueueFull);
            assert_eq!(error.job, None);
        }
        other => panic!("expected a queue-full error frame, got {other:?}"),
    }
    let mut rest = String::new();
    assert_eq!(excess.reader.read_line(&mut rest).expect("read to EOF"), 0, "then EOF");

    // An open session still runs a job to completion.
    let first = &mut open[0];
    first.send(&Frame::Job(small_scope_spec(41, 2, false)));
    loop {
        match first.read_frame() {
            Frame::JobDone(done) => break assert_eq!(done.job, 41),
            Frame::ShardDone(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // Closing one session frees its slot once its thread has ended; the
    // session that takes it shuts the daemon down.
    drop(open.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = loop {
        let mut retry = RawConnection::connect(&endpoint);
        // A refused connection may already be closed: ignore a failed
        // send and read the refusal.
        let _ = retry.writer.write_all(encode_line(&Frame::Stats).as_bytes());
        match retry.read_frame() {
            Frame::StatsResult(_) => break retry,
            Frame::Error(error) if error.kind == ErrorKind::QueueFull => {
                assert!(Instant::now() < deadline, "the freed slot was never reused");
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };
    last.send(&Frame::Shutdown);
    assert!(matches!(last.read_frame(), Frame::ShuttingDown));
    drop(open);
    handle.join().expect("daemon thread");
}

/// Connections that never complete a first frame are closed once
/// `ServeOptions::FIRST_FRAME_DEADLINE` passes, so a full house of idle
/// clients locks `shutdown` out only until then.
#[test]
fn idle_connections_are_closed_at_the_first_frame_deadline() {
    let (endpoint, handle) = start_daemon("idle-deadline", 1);
    let start = Instant::now();
    let mut idle: Vec<RawConnection> =
        (0..ServeOptions::MAX_CONNECTIONS).map(|_| RawConnection::connect(&endpoint)).collect();

    // While they hold every slot, a shutdown request is refused ...
    let early = client::shutdown(&endpoint);
    if start.elapsed() < ServeOptions::FIRST_FRAME_DEADLINE {
        assert!(
            matches!(early, Err(ServiceError::Remote { kind: ErrorKind::QueueFull, .. })),
            "every slot is held, so shutdown must be refused: {early:?}"
        );
    }

    // ... and each idle connection gets a protocol error frame, then EOF.
    for connection in &mut idle {
        // Fail rather than hang if the daemon never closes it.
        let patience = ServeOptions::FIRST_FRAME_DEADLINE + Duration::from_secs(10);
        connection.reader.get_ref().set_read_timeout(Some(patience)).unwrap();
        match connection.read_frame() {
            Frame::Error(error) => {
                assert_eq!(error.kind, ErrorKind::Protocol);
                assert_eq!(error.job, None);
            }
            other => panic!("expected a protocol error frame, got {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(connection.reader.read_line(&mut rest).expect("read to EOF"), 0, "then EOF");
    }
    assert!(start.elapsed() >= ServeOptions::FIRST_FRAME_DEADLINE);

    // The freed slots take a shutdown request once their threads have ended.
    let deadline = Instant::now() + Duration::from_secs(10);
    while let Err(error) = client::shutdown(&endpoint) {
        assert!(Instant::now() < deadline, "shutdown still refused: {error}");
        thread::sleep(Duration::from_millis(20));
    }
    handle.join().expect("daemon thread");
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
    // n = 4, t = 1 ⇒ 144 scenarios (one failure pattern per relabeling
    // orbit).
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

/// Cancelling a *running* job drains its pending shards as fast
/// cancellations: the job terminates with a `cancelled` error frame and
/// the daemon keeps serving.
#[test]
fn running_jobs_can_be_cancelled() {
    let (endpoint, handle) = start_daemon("cancel-running", 1);

    let mut long = RawConnection::connect(&endpoint);
    long.send(&Frame::Job(long_scope_spec(31, 64)));
    long.wait_for_first_shard(31);
    // In-flight shards may still land; the terminal frame is the typed
    // cancellation error.
    cancel_long_job(&endpoint, &mut long, 31);

    // A cancel for a finished (deregistered) job reports not-found.
    assert!(!client::cancel(&endpoint, 31).expect("cancel after the fact"));

    // The daemon survives and still serves.
    let next = client::submit(&endpoint, &small_scope_spec(32, 2, true));
    assert!(next.is_ok(), "daemon must keep serving after a cancellation");
    stop_daemon(&endpoint, handle);
}

/// Jobs on different connections run at once: a warm (fully cached) job
/// overtakes a long cold job instead of waiting behind it.
#[test]
fn concurrent_dispatch_lets_warm_jobs_overtake_long_ones() {
    let (endpoint, handle) = start_daemon("overtake", 1);

    // Warm the small scope so the overtaking job is pure cache replay.
    let cold = client::submit(&endpoint, &small_scope_spec(21, 2, true)).expect("warming submit");
    assert_eq!(cold.shards_cached, 0);

    let mut long = RawConnection::connect(&endpoint);
    long.send(&Frame::Job(long_scope_spec(22, 64)));
    long.wait_for_first_shard(22);

    // The long job holds the one pool worker; the warm job runs on its own
    // connection thread and needs no worker.
    let warm = client::submit(&endpoint, &small_scope_spec(23, 2, true)).expect("warm submit");
    assert_eq!(warm.shards_executed, 0, "overtaking job must be pure replay");

    // The warm job finished while the long job is still executing: the
    // cancel finds it running.
    cancel_long_job(&endpoint, &mut long, 22);
    stop_daemon(&endpoint, handle);
}

/// Two `job` frames sent back to back on one connection run in order: the
/// first job's `job-done` arrives before any frame of the second, and each
/// result equals its in-process fold.
#[test]
fn back_to_back_jobs_on_one_connection_complete_in_order() {
    let shards = 2;
    let (endpoint, handle) = start_daemon("back-to-back", 2);
    let mut raw = RawConnection::connect(&endpoint);
    let jobs = [
        (
            small_scope_spec(81, shards, false),
            QueryResult::Thm1(vec![in_process_reference(shards, 2).0]),
        ),
        (
            omission_scope_spec(82, shards, false),
            QueryResult::Omission(vec![omission_reference(shards, 2)]),
        ),
    ];
    for (spec, _) in &jobs {
        raw.send(&Frame::Job(spec.clone()));
    }
    for (spec, expected) in jobs {
        loop {
            match raw.read_frame() {
                Frame::ShardDone(frame) => assert_eq!(frame.job, spec.id, "frames stay in order"),
                Frame::JobDone(done) => {
                    assert_eq!(done.job, spec.id, "jobs finish in order");
                    assert_eq!(done.result, expected, "job {} fold", spec.id);
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
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

//! Distributed-fleet end-to-end tests: real `sweep worker` child
//! processes registering with an in-thread daemon, SIGKILL fault
//! injection mid-shard, dropped heartbeats with late duplicate
//! completions, empty-fleet degradation, the TCP auth handshake and the
//! connect-retry budget.
//!
//! The worker children are this very test binary re-executed with
//! `--exact child_worker_entry` (the same trick `persistence.rs` uses for
//! a killable daemon): the only way to get a real, separately SIGKILLable
//! worker process without adding a fixture binary.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use service::fingerprint::code_version;
use service::net::Stream;
use service::wire::{self, encode_line, ErrorKind, Frame, LeaseDone, QueryResult, Value};
use service::{
    client, ConnectOptions, Endpoint, JobSpec, QueryKind, ScopeSpec, ServeOptions, Server,
    ServiceError, WorkerOptions,
};
use sweep::experiments::{self, Thm1Reducer};
use sweep::{sweep_with_stats, SweepConfig, SweepStats};

/// When spawned with the environment below, this "test" is a remote
/// worker child: it serves leases until killed or the daemon shuts down.
/// In a normal test run the variable is absent and it passes as a no-op.
#[test]
fn child_worker_entry() {
    let Ok(socket) = std::env::var("SWEEP_FLEET_WORKER_SOCKET") else { return };
    let options = WorkerOptions {
        endpoint: Endpoint::Unix(socket.into()),
        connect: ConnectOptions {
            timeout: Duration::from_secs(10),
            auth_token: std::env::var("SWEEP_FLEET_TOKEN").ok(),
        },
        heartbeat_ms: std::env::var("SWEEP_FLEET_HEARTBEAT_MS")
            .ok()
            .map(|ms| ms.parse().expect("heartbeat override")),
    };
    // A SIGKILLed daemon (or test teardown races) surfaces as an error
    // here; the parent asserts on folds and frames, not on child exits.
    let _ = service::worker::run(&options);
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sweep-fleet-{tag}-{}-{}.sock",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Binds a daemon with explicit options and runs it on its own thread.
fn start_daemon(options: ServeOptions) -> (Endpoint, JoinHandle<()>) {
    let server = Server::bind(&options).expect("bind the daemon");
    let endpoint = server.endpoint().clone();
    let handle = thread::spawn(move || server.run().expect("daemon run"));
    (endpoint, handle)
}

fn stop_daemon(endpoint: &Endpoint, handle: JoinHandle<()>) {
    client::shutdown(endpoint).expect("graceful shutdown");
    handle.join().expect("daemon thread");
}

/// Fleet-flavored serve options: one local pool worker and an explicit
/// lease TTL so expiry is fast in tests.  Each daemon gets its own
/// metrics registry — several run in this one process, and sharing the
/// global registry would cross-contaminate their snapshots.
fn fleet_options(tag: &str, lease_ttl_ms: u64) -> ServeOptions {
    ServeOptions {
        lease_ttl_ms,
        metrics: Some(Arc::new(telemetry::Registry::new())),
        ..ServeOptions::new(Endpoint::Unix(temp_socket(tag)), 1)
    }
}

/// A real `sweep worker` child process with its stderr piped back, so
/// tests can wait for registration ("registered as worker") and lease
/// execution ("executing lease") before injecting faults.
struct Worker {
    child: Child,
    lines: Receiver<String>,
}

impl Worker {
    fn spawn(socket: &PathBuf, heartbeat_ms: Option<u64>) -> Worker {
        let mut command = Command::new(std::env::current_exe().expect("test binary path"));
        command
            .args(["child_worker_entry", "--exact", "--nocapture", "--test-threads", "1"])
            .env("SWEEP_FLEET_WORKER_SOCKET", socket)
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(ms) = heartbeat_ms {
            command.env("SWEEP_FLEET_HEARTBEAT_MS", ms.to_string());
        }
        let mut child = command.spawn().expect("spawn worker child");
        let stderr = child.stderr.take().expect("worker stderr piped");
        let (line_tx, lines) = mpsc::channel();
        thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if line_tx.send(line).is_err() {
                    break;
                }
            }
        });
        Worker { child, lines }
    }

    /// Blocks until the worker logs a line containing `needle`.
    fn wait_for(&self, needle: &str) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(remaining) {
                Ok(line) if line.contains(needle) => return,
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    panic!("worker never logged {needle:?}")
                }
            }
        }
    }

    /// SIGKILL — no goodbye frame, no flush: the crash under test.
    fn sigkill(mut self) {
        self.child.kill().expect("kill worker child");
        self.child.wait().expect("reap worker child");
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Never leak a worker on a failed assertion.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A raw wire connection — lets a test impersonate a worker (register,
/// hold a lease, go silent, send a late duplicate) or hold a job open.
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
}

/// The chaos scope: n = 4, t = 2 ⇒ 25,616 adversaries in 97 relabeling
/// orbits, 1,552 scenarios — long enough that two workers are reliably
/// mid-shard when one is SIGKILLed.
const CHAOS_SCOPE: ScopeSpec =
    ScopeSpec { n: 4, t: 2, k: 1, max_value: 1, max_crash_round: 2, partial_delivery: true };

/// The small scope of the cheaper tests: 200 adversaries, 56 scenarios.
const SMALL_SCOPE: ScopeSpec =
    ScopeSpec { n: 3, t: 1, k: 1, max_value: 1, max_crash_round: 2, partial_delivery: true };

fn spec(id: u64, scope: ScopeSpec, shards: usize) -> JobSpec {
    JobSpec {
        id,
        query: QueryKind::Thm1,
        scope: Some(scope),
        shards,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache: false, // every run cold: these tests measure execution
    }
}

/// The in-process reference fold the daemon must reproduce bit-identically
/// regardless of which mix of local pool and remote fleet executed it.
fn in_process_reference(scope: ScopeSpec, shards: usize) -> QueryResult {
    let config = scope.to_crash();
    let source = experiments::thm1_source(config, scope.k).expect("reference scope");
    let adversaries = source.space().len();
    let sweep_config = SweepConfig { shards, ..SweepConfig::default() };
    let (acc, _stats) =
        sweep_with_stats(&source, &sweep_config, &Thm1Reducer, experiments::thm1_job)
            .expect("in-process sweep");
    QueryResult::Thm1(vec![experiments::thm1_case_row(&config, scope.k, adversaries, acc)])
}

/// Acceptance (chaos leg): two real worker processes execute an 8-shard
/// job; one is SIGKILLed while it is mid-lease.  The dead worker's shard
/// re-runs on the coordinator's local pool and the merged fold stays
/// bit-identical to the in-process engine — no lost shard, no duplicate
/// merge.
#[test]
fn sigkilled_worker_mid_shard_requeues_and_fold_stays_bit_identical() {
    let (endpoint, handle) = start_daemon(fleet_options("chaos", 2_000));
    let Endpoint::Unix(socket) = &endpoint else { panic!("unix endpoint expected") };

    let victim = Worker::spawn(socket, None);
    let survivor = Worker::spawn(socket, None);
    victim.wait_for("registered as worker");
    survivor.wait_for("registered as worker");

    // Submit the 8-shard chaos job on a raw connection so the test can
    // interleave the kill with the stream.
    let mut job = RawConnection::connect(&endpoint);
    job.send(&Frame::Job(spec(41, CHAOS_SCOPE, 8)));

    // Kill the victim the moment it logs a lease execution: it provably
    // holds a lease, so the daemon must re-run that shard locally.
    victim.wait_for("executing lease");
    victim.sigkill();

    let done = loop {
        match job.read_frame() {
            Frame::JobDone(done) => break done,
            Frame::ShardDone(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert_eq!(done.job, 41);
    assert_eq!(
        done.result,
        in_process_reference(CHAOS_SCOPE, 8),
        "chaos fold must be bit-identical to the in-process engine"
    );
    assert_eq!(done.shards_total, 8);
    assert_eq!(done.shards_executed, 8, "nothing was cached — every shard executed");
    assert!(
        done.leases_requeued >= 1,
        "killing a mid-lease worker must re-queue at least one shard"
    );
    assert!(done.shards_remote >= 1, "the surviving worker must have executed shards");
    assert!(done.fleet_workers >= 1, "the survivor is still registered");

    // The daemon's own telemetry must agree with what the job observed:
    // the kill shows up in the lease counters, the survivor in the fleet
    // gauges and a per-worker heartbeat-age gauge.
    let snapshot = client::stats(&endpoint).expect("stats frame");
    assert_eq!(
        snapshot.counter("lease.requeued"),
        Some(done.leases_requeued),
        "the stats frame and the job-done frame count the same re-queues"
    );
    assert!(snapshot.counter("lease.granted").expect("granted counter") >= 1);
    assert_eq!(snapshot.counter("jobs.shards_remote"), Some(done.shards_remote));
    assert_eq!(snapshot.gauge("fleet.workers"), Some(1), "only the survivor is live");
    assert!(
        snapshot.gauges.iter().any(
            |(name, _)| name.starts_with("fleet.worker.") && name.ends_with("heartbeat_age_ms")
        ),
        "the survivor exports a heartbeat-age gauge: {:?}",
        snapshot.gauges
    );

    survivor.sigkill();
    stop_daemon(&endpoint, handle);
}

/// Degradation: with zero workers (never registered, or registered and
/// lost), every shard runs on the local pool and the fold is bit-identical
/// to the in-process engine — the pre-distributed behavior.
#[test]
fn empty_fleet_degrades_to_local_execution() {
    let (endpoint, handle) = start_daemon(fleet_options("degrade", 1_000));
    let Endpoint::Unix(socket) = &endpoint else { panic!("unix endpoint expected") };
    let expected = in_process_reference(SMALL_SCOPE, 3);

    // Never-registered fleet.
    let outcome = client::submit(&endpoint, &spec(51, SMALL_SCOPE, 3)).expect("local submit");
    assert_eq!(outcome.result, expected);
    assert_eq!(outcome.fleet_workers, 0);
    assert_eq!(outcome.shards_remote, 0);
    assert_eq!(outcome.leases_requeued, 0);

    // Register a worker, lose it, and poll until the daemon noticed: the
    // daemon must degrade back to purely local execution.
    let worker = Worker::spawn(socket, None);
    worker.wait_for("registered as worker");
    worker.sigkill();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut id = 52;
    loop {
        let outcome =
            client::submit(&endpoint, &spec(id, SMALL_SCOPE, 3)).expect("degraded submit");
        assert_eq!(outcome.result, expected, "fold must survive fleet loss");
        if outcome.fleet_workers == 0 && outcome.shards_remote == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never noticed the dead worker");
        id += 1;
        thread::sleep(Duration::from_millis(10));
    }
    stop_daemon(&endpoint, handle);
}

/// Fault injection without processes: a fake worker registers over the
/// raw wire, accepts a lease, drops its heartbeats, and — after the TTL
/// expires it and its shard falls back — sends a late duplicate
/// completion with a forged payload.  The duplicate must be dropped on
/// the floor: the job already finished with the correct fold, and the
/// next job still folds identically.
#[test]
fn dropped_heartbeats_expire_the_lease_and_late_duplicates_are_dropped() {
    let (endpoint, handle) = start_daemon(fleet_options("silent", 300));
    let expected = in_process_reference(SMALL_SCOPE, 2);

    let mut fake = RawConnection::connect(&endpoint);
    fake.send(&Frame::Register { fold: Some(code_version()) });
    let Frame::Registered { worker, lease_ttl_ms, .. } = fake.read_frame() else {
        panic!("registered frame expected")
    };
    assert_eq!(lease_ttl_ms, 300);

    let mut job = RawConnection::connect(&endpoint);
    job.send(&Frame::Job(spec(61, SMALL_SCOPE, 2)));

    // The fake worker receives a grant and goes silent (no heartbeat, no
    // completion): the TTL must expire it.  With the only worker expired,
    // both shards fall back to the local pool and the job completes with
    // the exact fold.
    let Frame::Lease(grant) = fake.read_frame() else { panic!("lease grant expected") };
    let done = loop {
        match job.read_frame() {
            Frame::JobDone(done) => break done,
            Frame::ShardDone(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert_eq!(done.result, expected, "expired lease must fall back without losing the fold");
    assert_eq!(done.shards_remote, 0, "the silent worker completed nothing");
    assert_eq!(done.fleet_workers, 0, "the silent worker was expired");
    assert_eq!(done.leases_requeued, 1, "only the granted shard was lost by a worker");

    // The late duplicate: stale (lease, generation) and a forged payload.
    // A daemon that merged it would corrupt some future fold; one that
    // crashes on it would fail the next submit.  Both must not happen.
    fake.send(&Frame::LeaseDone(LeaseDone {
        lease: grant.lease,
        generation: grant.generation,
        worker,
        start: 0,
        end: 100,
        stats: SweepStats::default(),
        payload: Value::Object(vec![
            ("violations".into(), Value::Int(999)),
            ("beaten_earlyfloodmin".into(), Value::Bool(true)),
            ("beaten_floodmin".into(), Value::Bool(true)),
            ("structure_violations".into(), Value::Int(999)),
        ]),
    }));
    let after = client::submit(&endpoint, &spec(62, SMALL_SCOPE, 2)).expect("post-forgery submit");
    assert_eq!(after.result, expected, "a dropped duplicate must not corrupt later folds");
    let deadline = Instant::now() + Duration::from_secs(30);
    while client::stats(&endpoint).expect("stats frame").counter("lease.duplicates") != Some(1) {
        assert!(Instant::now() < deadline, "the forged completion was never counted");
        thread::sleep(Duration::from_millis(10));
    }
    stop_daemon(&endpoint, handle);
}

/// Cross-version fleets fail loudly, coordinator side: a `register` with
/// no fold semantics (a worker that predates them) or with other ones is
/// refused with a typed `protocol` error, and the connection closes before
/// any lease could cut a shard by the other version's partition.
#[test]
fn a_coordinator_refuses_workers_of_other_fold_semantics() {
    let (endpoint, handle) = start_daemon(fleet_options("fold-refused", 1_000));
    for fold in [None, Some("0.1.0+fold.v2".to_string())] {
        let mut stale = RawConnection::connect(&endpoint);
        stale.send(&Frame::Register { fold: fold.clone() });
        let Frame::Error(error) = stale.read_frame() else {
            panic!("{fold:?}: an error frame expected")
        };
        assert_eq!(error.kind, ErrorKind::Protocol, "{fold:?}");
        assert!(error.message.contains(&code_version()), "{fold:?}: {}", error.message);
        let mut rest = String::new();
        assert_eq!(stale.reader.read_line(&mut rest).expect("read to EOF"), 0, "{fold:?}");
    }
    let outcome = client::submit(&endpoint, &spec(91, SMALL_SCOPE, 2)).expect("local submit");
    assert_eq!(outcome.fleet_workers, 0, "no refused worker joined the fleet");
    stop_daemon(&endpoint, handle);
}

/// Cross-version fleets fail loudly, worker side: a coordinator whose
/// `registered` frame carries no fold semantics (one that predates them)
/// makes `sweep worker` exit with an error instead of serving leases.
#[test]
fn a_worker_leaves_a_coordinator_of_other_fold_semantics() {
    let socket = temp_socket("fold-left");
    let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind fake coordinator");
    let coordinator = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("worker connects");
        let mut reader = BufReader::new(stream.try_clone().expect("read half"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("register line");
        let Frame::Register { fold } = wire::decode_line(&line).expect("a frame") else {
            panic!("register expected, got {line}")
        };
        assert_eq!(fold, Some(code_version()), "a worker announces its fold semantics");
        let parent = r#"{"type":"registered","worker":1,"lease_ttl_ms":5000,"heartbeat_ms":1000}"#;
        let mut writer = stream;
        writer.write_all(format!("{parent}\n").as_bytes()).expect("registered line");
        // Hold the connection open until the worker hangs up.
        let _ = reader.read_line(&mut line);
    });
    let error = service::worker::run(&WorkerOptions::new(Endpoint::Unix(socket.clone())))
        .expect_err("the worker must refuse the coordinator");
    assert!(
        matches!(&error, ServiceError::Protocol(message) if message.contains("fold semantics")),
        "{error}"
    );
    coordinator.join().expect("fake coordinator");
    let _ = std::fs::remove_file(socket);
}

/// TCP endpoints with a configured token require the `hello` handshake:
/// no token and a wrong token get a typed `unauthorized` error, the right
/// token serves the job — and Unix sockets are exempt.
#[test]
fn tcp_auth_handshake_gates_connections() {
    let options = ServeOptions {
        auth_token: Some("sesame".into()),
        ..ServeOptions::new(Endpoint::Tcp("127.0.0.1:0".into()), 1)
    };
    let (endpoint, handle) = start_daemon(options);

    let unauthorized = |result: Result<_, ServiceError>, label: &str| match result {
        Err(ServiceError::Remote { kind, .. }) => {
            assert_eq!(kind, ErrorKind::Unauthorized, "{label}")
        }
        other => panic!("{label}: expected an unauthorized error, got {other:?}"),
    };
    unauthorized(client::submit(&endpoint, &spec(71, SMALL_SCOPE, 2)), "no token");
    let wrong =
        ConnectOptions { auth_token: Some("open says me".into()), ..ConnectOptions::default() };
    unauthorized(client::submit_with(&endpoint, &spec(72, SMALL_SCOPE, 2), &wrong), "wrong token");

    let right = ConnectOptions { auth_token: Some("sesame".into()), ..ConnectOptions::default() };
    let outcome =
        client::submit_with(&endpoint, &spec(73, SMALL_SCOPE, 2), &right).expect("authed submit");
    assert_eq!(outcome.result, in_process_reference(SMALL_SCOPE, 2));
    client::shutdown_with(&endpoint, &right).expect("authed shutdown");
    handle.join().expect("daemon thread");

    // Unix sockets never require the handshake even with a token set.
    let unix_options = ServeOptions {
        auth_token: Some("sesame".into()),
        ..ServeOptions::new(Endpoint::Unix(temp_socket("auth-unix")), 1)
    };
    let (unix_endpoint, unix_handle) = start_daemon(unix_options);
    client::submit(&unix_endpoint, &spec(74, SMALL_SCOPE, 2))
        .expect("unix submit is exempt from auth");
    stop_daemon(&unix_endpoint, unix_handle);
}

/// The connect-retry budget: a client with a timeout connects to a daemon
/// that binds *after* the first attempt would have failed, while the
/// zero-timeout default fails immediately.
#[test]
fn connect_retries_until_the_daemon_binds() {
    let socket = temp_socket("retry");
    let endpoint = Endpoint::Unix(socket.clone());

    // Nothing is listening: the single-attempt default fails now.
    assert!(
        client::submit(&endpoint, &spec(81, SMALL_SCOPE, 2)).is_err(),
        "no retries without a timeout budget"
    );

    let binder = thread::spawn({
        let socket = socket.clone();
        move || {
            thread::sleep(Duration::from_millis(300));
            let server =
                Server::bind(&ServeOptions::new(Endpoint::Unix(socket), 1)).expect("late bind");
            server.run().expect("late daemon run");
        }
    });
    let patient = ConnectOptions { timeout: Duration::from_secs(30), ..ConnectOptions::default() };
    let outcome = client::submit_with(&endpoint, &spec(82, SMALL_SCOPE, 2), &patient)
        .expect("retrying submit reaches the late daemon");
    assert_eq!(outcome.result, in_process_reference(SMALL_SCOPE, 2));
    client::shutdown_with(&endpoint, &patient).expect("shutdown late daemon");
    binder.join().expect("binder thread");
}

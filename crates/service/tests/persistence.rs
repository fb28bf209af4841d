//! Crash-restart recovery: a daemon process is SIGKILLed (mid-job and
//! after a completed job) and restarted on the same cache directory; the
//! re-submitted fold must be bit-identical to the in-process engine, with
//! persisted shards replaying warm.  Also the poisoned-cache regression:
//! a forged persisted entry fails its job with a typed merge error while
//! the daemon keeps serving.
//!
//! The daemon child is this very test binary re-executed with
//! `--exact child_daemon_entry` and environment variables set — the only
//! way to get a real, separately killable process without adding a
//! fixture binary.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use service::fingerprint::{code_version, JobFingerprint};
use service::wire::{QueryResult, ToWire};
use service::{
    client, DurableStore, Endpoint, ErrorKind, JobSpec, QueryKind, ScopeSpec, ServeOptions, Server,
    ServiceError, StoredEntry,
};
use sweep::experiments::{self, Query, Thm1Query, Thm1Reducer};
use sweep::{shard_ranges, sweep_with_stats, ScenarioSource, SweepConfig};

/// When spawned with the environment below, this "test" is the daemon
/// child: it serves until killed or shut down.  In a normal test run the
/// variable is absent and it passes as a no-op.
#[test]
fn child_daemon_entry() {
    let Ok(socket) = std::env::var("SWEEP_PERSISTENCE_SOCKET") else { return };
    let cache_dir = std::env::var("SWEEP_PERSISTENCE_CACHE_DIR").ok().map(PathBuf::from);
    let options = ServeOptions {
        dispatchers: 1,
        queue_capacity: 8,
        cache_dir,
        ..ServeOptions::new(Endpoint::Unix(socket.into()), 1)
    };
    let server = Server::bind(&options).expect("child daemon bind");
    server.run().expect("child daemon run");
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sweep-persist-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A running daemon child process; kill it hard with [`Daemon::sigkill`]
/// or stop it gracefully with [`Daemon::shutdown`].
struct Daemon {
    child: Child,
    endpoint: Endpoint,
    socket: PathBuf,
}

impl Daemon {
    /// Re-executes this test binary as a daemon on a fresh socket over
    /// `cache_dir`, waiting until the socket is connectable.
    fn spawn(tag: &str, cache_dir: &PathBuf) -> Daemon {
        let socket = temp_path(&format!("{tag}-sock"));
        let child = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["child_daemon_entry", "--exact", "--nocapture", "--test-threads", "1"])
            .env("SWEEP_PERSISTENCE_SOCKET", &socket)
            .env("SWEEP_PERSISTENCE_CACHE_DIR", cache_dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon child");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon child never bound {}", socket.display());
            std::thread::sleep(Duration::from_millis(5));
        }
        Daemon { child, endpoint: Endpoint::Unix(socket.clone()), socket }
    }

    /// SIGKILL — no flush, no cleanup, the crash under test.
    fn sigkill(mut self) {
        self.child.kill().expect("kill daemon child");
        self.child.wait().expect("reap daemon child");
        let _ = std::fs::remove_file(&self.socket); // a killed daemon leaves it behind
    }

    fn shutdown(mut self) {
        client::shutdown(&self.endpoint).expect("graceful shutdown");
        let status = self.child.wait().expect("reap daemon child");
        assert!(status.success(), "daemon child exited uncleanly: {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Never leak a daemon on a failed assertion.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

const SCOPE: ScopeSpec =
    ScopeSpec { n: 3, t: 1, k: 1, max_value: 1, max_crash_round: 2, partial_delivery: true };
const SHARDS: usize = 4;

fn spec(id: u64) -> JobSpec {
    JobSpec {
        id,
        query: QueryKind::Thm1,
        scope: Some(SCOPE),
        shards: SHARDS,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache: true,
    }
}

/// The in-process fold the daemon must reproduce bit-identically.
fn in_process_reference() -> QueryResult {
    let source = experiments::thm1_source(SCOPE.to_crash(), SCOPE.k).expect("scope");
    let adversaries = source.space().len();
    let config = SweepConfig { shards: SHARDS, threads: 1, ..SweepConfig::default() };
    let (acc, _) = sweep_with_stats(&source, &config, &Thm1Reducer, experiments::thm1_job)
        .expect("in-process sweep");
    QueryResult::Thm1(vec![experiments::thm1_case_row(
        &SCOPE.to_crash(),
        SCOPE.k,
        adversaries,
        acc,
    )])
}

/// The fingerprint the daemon computes for this job's shards — used to
/// forge a poisoned persisted entry at the exact key the server will look
/// up.  The protocol list mirrors the server's thm1 batch order.
fn job_fingerprint() -> JobFingerprint {
    JobFingerprint {
        query: "thm1".into(),
        model: "crash".into(),
        scope: Thm1Query::CRASH.scope_string(&SCOPE),
        protocols: "optmin,earlyfloodmin,floodmin".into(),
        seed: 0,
        shards: SHARDS,
        code_version: code_version(),
    }
}

/// Acceptance: complete a job, SIGKILL the daemon, restart on the same
/// cache directory — the re-submitted job is 100% cached, executes zero
/// scenarios, and its fold is bit-identical to the in-process engine.
#[test]
fn warm_restart_after_sigkill_replays_everything() {
    let cache_dir = temp_path("warm-dir");
    let expected = in_process_reference();

    let first = Daemon::spawn("warm-a", &cache_dir);
    let cold = client::submit(&first.endpoint, &spec(1)).expect("cold submit");
    assert_eq!(cold.result, expected, "cold daemon fold must match in-process");
    assert_eq!(cold.shards_cached, 0);
    first.sigkill();

    let second = Daemon::spawn("warm-b", &cache_dir);
    let warm = client::submit(&second.endpoint, &spec(2)).expect("warm submit after restart");
    assert_eq!(warm.result, expected, "fold must survive the crash bit-identically");
    assert_eq!(warm.shards_cached, warm.shards_total, "restart must replay 100% cached");
    assert_eq!(warm.shards_executed, 0, "restart must execute zero shards");
    assert_eq!(warm.stats.scenarios, 0, "restart must execute zero scenarios");
    second.shutdown();

    std::fs::remove_dir_all(&cache_dir).expect("cleanup cache dir");
}

/// SIGKILL *mid-job*: every shard the client observed as done before the
/// crash is durable — the restarted daemon replays at least those shards
/// warm, and the completed fold is still bit-identical.
#[test]
fn shards_observed_before_a_mid_job_sigkill_replay_after_restart() {
    use service::net::Stream;
    use service::wire::{self, encode_line, Frame};
    use std::io::{BufRead, BufReader, Write};

    let cache_dir = temp_path("midjob-dir");
    let expected = in_process_reference();

    let first = Daemon::spawn("midjob-a", &cache_dir);
    let stream = Stream::connect(&first.endpoint).expect("raw connect");
    let mut writer = stream.try_clone().expect("write half");
    writer.write_all(encode_line(&Frame::Job(spec(1))).as_bytes()).expect("send job");
    writer.flush().expect("flush job");
    let mut reader = BufReader::new(stream);
    let mut observed = 0u64;
    let mut line = String::new();
    // Kill as soon as the first shard lands: the job is provably mid-way.
    while observed < 1 {
        line.clear();
        let read = reader.read_line(&mut line).expect("read frame");
        assert!(read > 0, "daemon closed before any shard landed");
        if line.trim().is_empty() {
            continue;
        }
        match wire::decode_line(&line).expect("frame") {
            Frame::ShardDone(frame) => {
                assert!(!frame.cached);
                observed += 1;
            }
            Frame::Partial(_) => {}
            other => panic!("unexpected frame before the kill: {other:?}"),
        }
    }
    first.sigkill();

    let second = Daemon::spawn("midjob-b", &cache_dir);
    let resumed = client::submit(&second.endpoint, &spec(2)).expect("resubmit after crash");
    assert_eq!(resumed.result, expected, "fold after crash recovery must match in-process");
    assert!(
        resumed.shards_cached >= observed,
        "every observed shard-done ({observed}) must be durable; only {} replayed",
        resumed.shards_cached
    );
    second.shutdown();

    std::fs::remove_dir_all(&cache_dir).expect("cleanup cache dir");
}

/// The poisoned-cache regression: a forged persisted entry whose scenario
/// range disagrees with the partition makes the job fail with a typed
/// `merge` error frame — the daemon survives and completes the next job.
/// Two forgeries, each in a cache dir of its own: shard 0 with a range
/// that cannot tile the partition, and the last shard with the right start
/// but a wrong end, which no check of where a range *starts* can catch.
#[test]
fn forged_cache_ranges_fail_the_job_with_a_merge_error_and_daemon_survives() {
    let source = experiments::thm1_source(SCOPE.to_crash(), SCOPE.k).expect("scope");
    let ranges = shard_ranges(source.len(), SHARDS, source.structure_block());
    let last = SHARDS - 1;
    let forgeries = [(0, (0, 5)), (last, (ranges[last].0, ranges[last].1 + 1))];
    for (shard, (start, end)) in forgeries {
        assert_ne!((start, end), ranges[shard], "the forged range must be wrong");
        let cache_dir = temp_path("poison-dir");

        // Forge the shard at the exact key the daemon will look up, with a
        // well-formed accumulator but the wrong range.
        {
            let store = DurableStore::open(&cache_dir, None, &code_version()).expect("open store");
            let poisoned = experiments::Thm1Outcome::default().to_wire().render();
            store.store(
                &job_fingerprint().shard(shard).canonical_string(),
                StoredEntry { start, end, payload: poisoned },
            );
        }

        let daemon = Daemon::spawn(&format!("poison-{shard}"), &cache_dir);
        let error = client::submit(&daemon.endpoint, &spec(1)).expect_err("poisoned job must fail");
        match &error {
            ServiceError::Remote { kind, message } => {
                assert_eq!(*kind, ErrorKind::Merge, "unexpected kind for: {message}");
                assert!(message.contains("merge"), "message should name the merge: {message}");
            }
            other => panic!("shard {shard}: expected a remote merge error, got {other:?}"),
        }

        // The daemon is alive and the next job — bypassing the poisoned
        // cache — completes with the true fold.
        let mut clean = spec(2);
        clean.shard_cache = false;
        let next =
            client::submit(&daemon.endpoint, &clean).expect("daemon must survive the poison");
        assert_eq!(next.result, in_process_reference());
        daemon.shutdown();

        std::fs::remove_dir_all(&cache_dir).expect("cleanup cache dir");
    }
}

//! End-to-end telemetry tests: the `stats` frame served by a live daemon
//! must report exactly what the jobs it ran actually did — cache replays
//! on a warm resubmit, job and phase counts, a drained queue — and
//! injected registries must isolate daemons sharing one process.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use service::{client, Endpoint, JobSpec, QueryKind, ScopeSpec, ServeOptions, Server};
use sweep::SweepConfig;
use telemetry::Registry;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sweep-telemetry-{tag}-{}-{}.sock",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A daemon with its own metrics registry: test binaries run several
/// daemons in one process, and without injection they would all share
/// (and cross-contaminate) the global registry.
fn start_daemon(tag: &str) -> (Endpoint, JoinHandle<()>, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let options = ServeOptions {
        metrics: Some(Arc::clone(&registry)),
        ..ServeOptions::new(Endpoint::Unix(temp_socket(tag)), 2)
    };
    let server = Server::bind(&options).expect("bind the daemon");
    let endpoint = server.endpoint().clone();
    let handle = thread::spawn(move || server.run().expect("daemon run"));
    (endpoint, handle, registry)
}

fn stop_daemon(endpoint: &Endpoint, handle: JoinHandle<()>) {
    client::shutdown(endpoint).expect("graceful shutdown");
    handle.join().expect("daemon thread");
}

/// 200 scenarios: enough to shard, cheap enough to run twice.
const SMALL_SCOPE: ScopeSpec =
    ScopeSpec { n: 3, t: 1, k: 1, max_value: 1, max_crash_round: 2, partial_delivery: true };

fn cached_spec(id: u64, shards: usize) -> JobSpec {
    JobSpec {
        id,
        query: QueryKind::Thm1,
        scope: Some(SMALL_SCOPE),
        shards,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache: true,
    }
}

/// Acceptance: a cold submit followed by a warm resubmit of the same
/// fingerprint, then `stats` — every counter in the snapshot must match
/// the behavior the two `job-done` frames already proved.
#[test]
fn stats_counters_match_cold_then_warm_submits() {
    let (endpoint, handle, _registry) = start_daemon("warm");
    const SHARDS: u64 = 4;

    let cold = client::submit(&endpoint, &cached_spec(1, SHARDS as usize)).expect("cold submit");
    assert_eq!(cold.shards_cached, 0, "first submit finds an empty cache");
    assert_eq!(cold.shards_executed, SHARDS);

    let warm = client::submit(&endpoint, &cached_spec(2, SHARDS as usize)).expect("warm submit");
    assert_eq!(warm.shards_cached, SHARDS, "same fingerprint replays every shard");
    assert_eq!(warm.shards_executed, 0);
    assert_eq!(warm.result, cold.result, "replayed fold is bit-identical");

    let snapshot = client::stats(&endpoint).expect("stats frame");

    // Job counters: two submits, both completed, none failed.
    assert_eq!(snapshot.counter("jobs.total"), Some(2));
    assert_eq!(snapshot.counter("jobs.completed"), Some(2));
    assert_eq!(snapshot.counter("jobs.failed"), Some(0));
    assert_eq!(snapshot.counter("jobs.shards_cached"), Some(SHARDS), "warm run replayed");
    assert_eq!(snapshot.counter("jobs.shards_executed"), Some(SHARDS), "cold run executed");
    assert_eq!(snapshot.counter("jobs.shards_remote"), Some(0), "no fleet registered");

    // Cache counters sampled from the shard cache, per query: the cold
    // run missed every shard, the warm run hit every shard, and the
    // headline replay counter is the hit sum (only thm1 was looked up).
    assert_eq!(snapshot.counter("cache.thm1.hits"), Some(SHARDS));
    assert_eq!(snapshot.counter("cache.thm1.misses"), Some(SHARDS));
    assert_eq!(snapshot.counter("cache.replays"), Some(SHARDS));
    assert_eq!(snapshot.counter("cache.misses_total"), Some(SHARDS));
    assert_eq!(snapshot.counter("cache.omission.hits"), Some(0));

    // A daemon started with neither a cache dir nor a budget still caches
    // through its one (memory-only) store: one entry per cached shard.
    assert_eq!(snapshot.gauge("store.entries"), Some(SHARDS as i64));

    // No leases ever existed.
    assert_eq!(snapshot.counter("lease.granted"), Some(0));
    assert_eq!(snapshot.counter("lease.requeued"), Some(0));
    assert_eq!(snapshot.gauge("fleet.workers"), Some(0));
    assert!(snapshot.gauge("uptime.seconds").expect("uptime gauge") >= 0);

    // Phase histograms: one whole-job observation per job, one per
    // executed shard, one merge per case per job, and one dispatch for
    // the only job that had cold shards.
    let count = |name: &str| snapshot.histogram(name).expect(name).count;
    assert_eq!(count("phase.job_us"), 2);
    assert_eq!(count("phase.shard_exec_us"), SHARDS);
    assert_eq!(count("phase.merge_us"), 2);
    assert_eq!(count("phase.dispatch_us"), 1, "the warm job had nothing to dispatch");

    // The rendered forms carry the same numbers.
    let table = snapshot.to_table();
    assert!(table.contains("jobs.total"), "table lists the counter:\n{table}");
    let prom = snapshot.to_prometheus();
    assert!(prom.contains("sweep_jobs_total 2"), "prometheus text exposes it:\n{prom}");

    stop_daemon(&endpoint, handle);
}

/// Two daemons in one process with injected registries: work submitted to
/// one must never appear in the other's snapshot — the isolation that
/// makes every other test in this binary trustworthy.
#[test]
fn injected_registries_isolate_daemons_in_one_process() {
    let (busy, busy_handle, _busy_registry) = start_daemon("busy");
    let (idle, idle_handle, _idle_registry) = start_daemon("idle");

    client::submit(&busy, &cached_spec(11, 2)).expect("submit to the busy daemon");

    let busy_stats = client::stats(&busy).expect("busy stats");
    let idle_stats = client::stats(&idle).expect("idle stats");
    assert_eq!(busy_stats.counter("jobs.total"), Some(1));
    assert_eq!(idle_stats.counter("jobs.total"), Some(0), "no bleed between daemons");
    assert_eq!(idle_stats.histogram("phase.job_us").expect("registered").count, 0);

    stop_daemon(&busy, busy_handle);
    stop_daemon(&idle, idle_handle);
}

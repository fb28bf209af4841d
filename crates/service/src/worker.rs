//! The remote sweep worker behind `sweep worker --connect`.
//!
//! A worker is deliberately thin: it registers with a coordinator, then
//! loops — pull one lease, rebuild the scenario source self-containedly
//! from the [`TaskSpec`] (or keep the last lease's, for the same case),
//! recompute the identical block-aligned shard
//! partition with `sweep::shard_ranges`, execute the shard through the
//! very same `sweep::fold_shard_stats` kernel the local pool uses, and
//! stream the accumulator back as a `lease-done` frame.  All policy
//! (TTLs, dedup, fallback) lives coordinator-side in
//! [`crate::lease`]; the worker's only liveness duty is the heartbeat
//! thread, which keeps beating while a long fold occupies the read loop.
//!
//! Determinism note: the per-shard accumulators are integers and booleans
//! throughout, so their wire round-trip is lossless and a remotely
//! executed shard merges bit-identically to a locally executed one.  A
//! worker that dies mid-shard simply never completes its lease; the
//! coordinator re-runs the shard on its local pool and the fold is
//! unaffected.

use std::any::Any;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use set_consensus::BatchRunner;
use sweep::experiments::{Fig4Query, Thm1Query, Thm3Query};
use sweep::{check_shard_count, fold_shard_stats, shard_ranges, ScenarioSource, SweepStats};
use synchrony::ModelError;

use crate::client::open;
use crate::fingerprint::code_version;
use crate::net::{ConnectOptions, Endpoint};
use crate::query::ServedQuery;
use crate::wire::{Frame, LeaseDone, LeaseFailed, QueryKind, TaskSpec, ToWire, Value};
use crate::ServiceError;

/// Log target of the worker's structured stderr lines.
const LOG_TARGET: &str = "service::worker";

/// What a worker keeps between leases: the warm runner a pool worker
/// keeps, and the scenario source of the last case it was leased.
struct LeaseState {
    runner: BatchRunner,
    /// The last case's source, under its lease's task with the shard index
    /// zeroed.  Building a Theorem 1 or omission source lists the scope's
    /// relabeling orbits, so a run of leases of one case builds it once.
    source: Option<(TaskSpec, Box<dyn Any>)>,
}

impl LeaseState {
    fn new() -> Self {
        LeaseState { runner: BatchRunner::new(), source: None }
    }
}

/// How a worker process is launched.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The coordinator to register with.
    pub endpoint: Endpoint,
    /// Connect behavior: retry budget and the TCP auth token.
    pub connect: ConnectOptions,
    /// Heartbeat interval override in milliseconds.  `None` follows the
    /// cadence the coordinator advertises in `registered`; `Some(0)`
    /// disables heartbeats entirely (fault-injection harnesses use this
    /// to simulate a worker whose heartbeat thread died).
    pub heartbeat_ms: Option<u64>,
}

impl WorkerOptions {
    /// Options following the coordinator-advertised heartbeat cadence.
    pub fn new(endpoint: Endpoint) -> Self {
        WorkerOptions { endpoint, connect: ConnectOptions::default(), heartbeat_ms: None }
    }
}

/// Connects to the coordinator, registers, and serves leases until the
/// coordinator shuts down or the connection drops.
///
/// # Errors
///
/// Returns connect/auth failures and protocol violations during the
/// handshake.  After registration the worker is fault-tolerant by
/// construction: a dropped connection ends the loop cleanly (`Ok`),
/// because the coordinator re-runs whatever this worker was holding on
/// its local pool.
pub fn run(options: &WorkerOptions) -> Result<(), ServiceError> {
    // The heartbeat thread and the lease loop both send on `writer`.
    let (mut reader, writer) = open(&options.endpoint, &options.connect)?;
    let ours = code_version();
    if !writer.send(&Frame::Register { fold: Some(ours.clone()) }) {
        return Err(ServiceError::Protocol("connection closed during registration".into()));
    }
    let (worker_id, advertised_heartbeat_ms) = match reader.read_frame()? {
        Some(Frame::Registered { worker, heartbeat_ms, fold, .. }) => {
            if fold.as_deref() != Some(ours.as_str()) {
                let theirs = fold.as_deref().unwrap_or("none (a coordinator that predates it)");
                return Err(ServiceError::Protocol(format!(
                    "coordinator fold semantics {theirs} do not match this worker's {ours}; \
                     run a worker built from the coordinator's version"
                )));
            }
            (worker, heartbeat_ms)
        }
        Some(Frame::Error(error)) => {
            return Err(ServiceError::Remote { kind: error.kind, message: error.message })
        }
        Some(other) => {
            return Err(ServiceError::Protocol(format!(
                "expected a registered frame, got {other:?}"
            )))
        }
        None => return Err(ServiceError::Protocol("connection closed during registration".into())),
    };
    let heartbeat_ms = options.heartbeat_ms.unwrap_or(advertised_heartbeat_ms);
    telemetry::log::info(
        LOG_TARGET,
        format!(
            "sweep worker: registered as worker {worker_id} with {} (heartbeat {heartbeat_ms} ms)",
            options.endpoint
        ),
        &[
            ("worker", worker_id.into()),
            ("endpoint", options.endpoint.to_string().into()),
            ("heartbeat_ms", heartbeat_ms.into()),
        ],
    );

    // The heartbeat thread keeps the worker alive in the coordinator's
    // lease table while a long fold occupies the lease loop below.  The
    // stop channel makes shutdown responsive: a plain sleep loop would
    // hold the process open for up to one interval.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let heartbeat = (heartbeat_ms > 0).then(|| {
        let writer = writer.clone();
        let interval = Duration::from_millis(heartbeat_ms);
        thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                if !writer.send(&Frame::Heartbeat { worker: worker_id }) {
                    break;
                }
            }
        })
    });

    // One warm runner, reused across leases — the same
    // warmth the local pool keeps, with the same bit-identity guarantee.
    let mut state = LeaseState::new();
    loop {
        match reader.read_frame()? {
            Some(Frame::Lease(grant)) => {
                telemetry::log::info(
                    LOG_TARGET,
                    format!(
                        "sweep worker {worker_id}: executing lease {} (gen {}): \
                         shard {}/{} of {} case {}",
                        grant.lease,
                        grant.generation,
                        grant.task.shard,
                        grant.task.shards,
                        grant.task.query.name(),
                        grant.task.case,
                    ),
                    &[
                        ("worker", worker_id.into()),
                        ("lease", grant.lease.into()),
                        ("generation", grant.generation.into()),
                        ("shard", grant.task.shard.into()),
                        ("shards", grant.task.shards.into()),
                        ("query", grant.task.query.name().into()),
                        ("case", grant.task.case.into()),
                    ],
                );
                let reply = match execute_task(&grant.task, &mut state) {
                    Ok((payload, range, stats)) => Frame::LeaseDone(LeaseDone {
                        lease: grant.lease,
                        generation: grant.generation,
                        worker: worker_id,
                        start: range.0,
                        end: range.1,
                        stats,
                        payload,
                    }),
                    Err(error) => Frame::LeaseFailed(LeaseFailed {
                        lease: grant.lease,
                        generation: grant.generation,
                        message: error.to_string(),
                    }),
                };
                if !writer.send(&reply) {
                    break;
                }
            }
            Some(Frame::ShuttingDown) | None => break,
            Some(other) => {
                return Err(ServiceError::Protocol(format!("unexpected frame {other:?}")));
            }
        }
    }
    drop(stop_tx);
    if let Some(handle) = heartbeat {
        let _ = handle.join();
    }
    telemetry::log::info(
        LOG_TARGET,
        format!("sweep worker {worker_id}: disconnected"),
        &[("worker", worker_id.into())],
    );
    Ok(())
}

/// Rebuilds the task's scenario source (unless `state` keeps it from the
/// last lease) and executes its shard through the shared
/// `fold_shard_stats` kernel, returning the accumulator's wire rendering,
/// the range actually covered, and the execution statistics.
fn execute_task(
    task: &TaskSpec,
    state: &mut LeaseState,
) -> Result<(Value, (usize, usize), SweepStats), ModelError> {
    match task.query {
        QueryKind::Thm1 => fold_task(Thm1Query::CRASH, task, state),
        QueryKind::Omission => fold_task(Thm1Query::OMISSION, task, state),
        QueryKind::Thm3 => fold_task(Thm3Query, task, state),
        QueryKind::Fig4 => fold_task(Fig4Query, task, state),
        QueryKind::Prop2 => Err(ModelError::InvalidTaskParameter {
            reason: "prop2 is job-level work and is never shard-leased".into(),
        }),
    }
}

/// Executes one leased shard of a sharded query: the descriptor resolves
/// the task's case (rejecting one the query does not have) and builds its
/// source; the worker recomputes the coordinator's partition.
fn fold_task<Q: ServedQuery>(
    query: Q,
    task: &TaskSpec,
    state: &mut LeaseState,
) -> Result<(Value, (usize, usize), SweepStats), ModelError> {
    let case = query.task_case(task.case, task.scope.as_ref())?;
    check_shard_count(task.shards)?;
    let LeaseState { runner, source: last } = state;
    let key = TaskSpec { shard: 0, ..task.clone() };
    if !last.as_ref().is_some_and(|(spec, source)| *spec == key && source.is::<Q::Source>()) {
        *last = Some((key, Box::new(query.source(&case, task.seed)?)));
    }
    let source = last
        .as_ref()
        .and_then(|(_, source)| source.downcast_ref::<Q::Source>())
        .expect("the case's source was just kept");
    let ranges = shard_ranges(source.len(), task.shards, source.structure_block());
    let range =
        ranges.get(task.shard).copied().ok_or_else(|| ModelError::InvalidTaskParameter {
            reason: format!(
                "shard {} out of range (partition has {} shards)",
                task.shard,
                ranges.len()
            ),
        })?;
    let (acc, stats) = fold_shard_stats(source, &Q::Reducer::default(), &Q::JOB, runner, range)?;
    Ok((acc.to_wire(), range, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FromWire, ScopeSpec};
    use sweep::experiments::{self, Fig4Reducer, Thm1Reducer, Thm3Reducer, THM3_CASES};
    use sweep::{Reducer, Scenario};

    /// A lease of fig4's single case; each test overrides what it probes.
    const LEASE: TaskSpec =
        TaskSpec { query: QueryKind::Fig4, case: 0, scope: None, seed: 0, shards: 2, shard: 0 };

    /// Executes `task` on `state` as a worker would and folds the same
    /// shard directly from `source`; the decoded payload and covered range
    /// must agree.
    fn assert_matches_local_fold<S, R>(
        state: &mut LeaseState,
        task: &TaskSpec,
        source: &S,
        reducer: &R,
        job: fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError>,
    ) where
        S: ScenarioSource,
        R: Reducer,
        R::Acc: FromWire + PartialEq + std::fmt::Debug,
    {
        let (payload, range, _) = execute_task(task, state).expect("task executes");
        let ranges = shard_ranges(source.len(), task.shards, source.structure_block());
        assert_eq!(range, ranges[task.shard], "{} range", task.query.name());
        let (expected, _) =
            fold_shard_stats(source, reducer, &job, &mut BatchRunner::new(), range).unwrap();
        assert_eq!(R::Acc::from_wire(&payload).unwrap(), expected, "{} fold", task.query.name());
    }

    /// One lease state serves every lease in turn, so consecutive leases
    /// of one case reuse its source and a lease of another case replaces
    /// it.
    #[test]
    fn every_leasable_task_matches_the_local_fold() {
        let scope = ScopeSpec {
            n: 3,
            t: 1,
            k: 1,
            max_value: 1,
            max_crash_round: 1,
            partial_delivery: false,
        };
        let state = &mut LeaseState::new();
        let thm1 = experiments::thm1_source(scope.to_crash(), 1).unwrap();
        for shard in [1, 2] {
            assert_matches_local_fold(
                state,
                &TaskSpec { query: QueryKind::Thm1, scope: Some(scope), shards: 3, shard, ..LEASE },
                &thm1,
                &Thm1Reducer,
                experiments::thm1_job,
            );
        }
        // Shared wire frame: `max_crash_round` is the omission round horizon.
        assert_matches_local_fold(
            state,
            &TaskSpec {
                query: QueryKind::Omission,
                scope: Some(scope),
                shards: 3,
                shard: 2,
                ..LEASE
            },
            &experiments::omission_source(scope.to_omission(), 1).unwrap(),
            &Thm1Reducer,
            experiments::thm1_job,
        );
        let (n, t, k) = THM3_CASES[1];
        assert_matches_local_fold(
            state,
            &TaskSpec { query: QueryKind::Thm3, case: 1, seed: 5, shards: 3, shard: 2, ..LEASE },
            &experiments::thm3_source(n, t, k, 5).unwrap(),
            &Thm3Reducer,
            experiments::thm3_job,
        );
        assert_matches_local_fold(
            state,
            &TaskSpec { shards: 4, shard: 1, ..LEASE },
            &experiments::fig4_source().unwrap().0,
            &Fig4Reducer,
            experiments::fig4_job,
        );
    }

    #[test]
    fn malformed_tasks_are_typed_rejections() {
        let mut state = LeaseState::new();
        for (what, task) in [
            ("thm1 without a scope", TaskSpec { query: QueryKind::Thm1, ..LEASE }),
            ("thm3 with an unknown case", TaskSpec { query: QueryKind::Thm3, case: 99, ..LEASE }),
            ("fig4 with an unknown case", TaskSpec { case: 5, ..LEASE }),
            ("prop2, never leasable", TaskSpec { query: QueryKind::Prop2, ..LEASE }),
            ("a shard beyond the partition", TaskSpec { shard: 7, ..LEASE }),
            ("a shard count over the bound", TaskSpec { shards: sweep::MAX_SHARDS + 1, ..LEASE }),
        ] {
            let error = execute_task(&task, &mut state).expect_err(what);
            assert!(matches!(error, ModelError::InvalidTaskParameter { .. }), "{what}: {error}");
        }
    }
}

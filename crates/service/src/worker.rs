//! The remote sweep worker behind `sweep worker --connect`.
//!
//! A worker is deliberately thin: it registers with a coordinator, then
//! loops — pull one lease, rebuild the scenario source self-containedly
//! from the [`TaskSpec`], recompute the identical block-aligned shard
//! partition with `sweep::shard_ranges`, execute the shard through the
//! very same `sweep::fold_shard_stats` kernel the local pool uses, and
//! stream the accumulator back as a `lease-done` frame.  All policy
//! (TTLs, re-queue, dedup, fallback) lives coordinator-side in
//! [`crate::lease`]; the worker's only liveness duty is the heartbeat
//! thread, which keeps beating while a long fold occupies the read loop.
//!
//! Determinism note: the per-shard accumulators are integers and booleans
//! throughout, so their wire round-trip is lossless and a remotely
//! executed shard merges bit-identically to a locally executed one.  A
//! worker that dies mid-shard simply never completes its lease; the
//! coordinator re-queues the shard and the fold is unaffected.

use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use set_consensus::BatchRunner;
use sweep::experiments::{Fig4Query, Thm1Query, Thm3Query};
use sweep::{fold_shard_stats, shard_ranges, ScenarioSource, SweepStats};
use synchrony::ModelError;

use crate::client::open;
use crate::net::{ConnectOptions, Endpoint, Stream};
use crate::pool::WorkerState;
use crate::query::ServedQuery;
use crate::wire::{
    self, encode_line, Frame, LeaseDone, LeaseFailed, QueryKind, TaskSpec, ToWire, Value,
};
use crate::ServiceError;

/// Log target of the worker's structured stderr lines.
const LOG_TARGET: &str = "service::worker";

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

/// The shared write half of the worker's connection (the heartbeat thread
/// and the lease loop both send on it).
type Writer = Arc<Mutex<Stream>>;

fn send(writer: &Writer, frame: &Frame) -> bool {
    let line = encode_line(frame);
    let mut stream = writer.lock().expect("worker writer lock");
    stream.write_all(line.as_bytes()).and_then(|_| stream.flush()).is_ok()
}

/// Connects to the coordinator, registers, and serves leases until the
/// coordinator shuts down or the connection drops.
///
/// # Errors
///
/// Returns connect/auth failures and protocol violations during the
/// handshake.  After registration the worker is fault-tolerant by
/// construction: a dropped connection ends the loop cleanly (`Ok`),
/// because the coordinator re-queues whatever this worker was holding.
pub fn run(options: &WorkerOptions) -> Result<(), ServiceError> {
    let stream = open(&options.endpoint, &options.connect)?;
    let write_half = stream.try_clone()?;
    let writer: Writer = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);

    if !send(&writer, &Frame::Register) {
        return Err(ServiceError::Protocol("connection closed during registration".into()));
    }
    let (worker_id, advertised_heartbeat_ms) = match read_frame(&mut reader)? {
        Some(Frame::Registered { worker, heartbeat_ms, .. }) => (worker, heartbeat_ms),
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
        let writer = Arc::clone(&writer);
        let interval = Duration::from_millis(heartbeat_ms);
        thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                if !send(&writer, &Frame::Heartbeat { worker: worker_id }) {
                    break;
                }
            }
        })
    });

    // One warm runner + scratch slot, reused across leases — the same
    // warmth the local pool keeps, with the same bit-identity guarantee.
    let mut state = WorkerState { runner: BatchRunner::new(), scratch: None };
    loop {
        match read_frame(&mut reader)? {
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
                if !send(&writer, &reply) {
                    break;
                }
            }
            Some(Frame::LeaseRevoke { lease, generation }) => {
                // Informational: the grant expired coordinator-side while
                // this worker was silent.  Execution here is synchronous,
                // so by the time a revoke is read any result was already
                // sent — and will be dropped by its stale generation.
                telemetry::log::warn(
                    LOG_TARGET,
                    format!("sweep worker {worker_id}: lease {lease} (gen {generation}) revoked"),
                    &[
                        ("worker", worker_id.into()),
                        ("lease", lease.into()),
                        ("generation", generation.into()),
                    ],
                );
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

/// Reads one frame, `None` on EOF.
fn read_frame(reader: &mut BufReader<Stream>) -> Result<Option<Frame>, ServiceError> {
    let mut line = String::new();
    loop {
        line.clear();
        let read =
            reader.read_line(&mut line).map_err(|e| ServiceError::io("reading a frame", e))?;
        if read == 0 {
            return Ok(None);
        }
        if line.trim().is_empty() {
            continue;
        }
        return Ok(Some(wire::decode_line(&line)?));
    }
}

/// Rebuilds the task's scenario source and executes its shard through the
/// shared `fold_shard_stats` kernel, returning the accumulator's wire
/// rendering, the range actually covered, and the execution statistics.
pub(crate) fn execute_task(
    task: &TaskSpec,
    state: &mut WorkerState,
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
    state: &mut WorkerState,
) -> Result<(Value, (usize, usize), SweepStats), ModelError> {
    let case = query.task_case(task.case, task.scope.as_ref())?;
    let source = query.source(&case, task.seed)?;
    let ranges = shard_ranges(source.len(), task.shards, source.structure_block());
    let range =
        ranges.get(task.shard).copied().ok_or_else(|| ModelError::InvalidTaskParameter {
            reason: format!(
                "shard {} out of range (partition has {} shards)",
                task.shard,
                ranges.len()
            ),
        })?;
    let (acc, stats) = fold_shard_stats(
        &source,
        &Q::Reducer::default(),
        &Q::JOB,
        &mut state.runner,
        &mut state.scratch,
        range,
    )?;
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

    fn warm_state() -> WorkerState {
        WorkerState { runner: BatchRunner::new(), scratch: None }
    }

    /// Executes `task` as a worker would and folds the same shard directly
    /// from `source`; the decoded payload and covered range must agree.
    fn assert_matches_local_fold<S, R>(
        task: &TaskSpec,
        source: &S,
        reducer: &R,
        job: fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError>,
    ) where
        S: ScenarioSource,
        R: Reducer,
        R::Acc: FromWire + PartialEq + std::fmt::Debug,
    {
        let (payload, range, _) = execute_task(task, &mut warm_state()).expect("task executes");
        let ranges = shard_ranges(source.len(), task.shards, source.structure_block());
        assert_eq!(range, ranges[task.shard], "{} range", task.query.name());
        let mut reference = warm_state();
        let (expected, _) = fold_shard_stats(
            source,
            reducer,
            &job,
            &mut reference.runner,
            &mut reference.scratch,
            range,
        )
        .unwrap();
        assert_eq!(R::Acc::from_wire(&payload).unwrap(), expected, "{} fold", task.query.name());
    }

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
        assert_matches_local_fold(
            &TaskSpec { query: QueryKind::Thm1, scope: Some(scope), shards: 3, shard: 1, ..LEASE },
            &experiments::thm1_source(scope.to_crash(), 1).unwrap(),
            &Thm1Reducer,
            experiments::thm1_job,
        );
        // Shared wire frame: `max_crash_round` is the omission round horizon.
        assert_matches_local_fold(
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
            &TaskSpec { query: QueryKind::Thm3, case: 1, seed: 5, shards: 3, shard: 2, ..LEASE },
            &experiments::thm3_source(n, t, k, 5).unwrap(),
            &Thm3Reducer,
            experiments::thm3_job,
        );
        assert_matches_local_fold(
            &TaskSpec { shards: 4, shard: 1, ..LEASE },
            &experiments::fig4_source().unwrap().0,
            &Fig4Reducer,
            experiments::fig4_job,
        );
    }

    #[test]
    fn malformed_tasks_are_typed_rejections() {
        let mut state = warm_state();
        for (what, task) in [
            ("thm1 without a scope", TaskSpec { query: QueryKind::Thm1, ..LEASE }),
            ("thm3 with an unknown case", TaskSpec { query: QueryKind::Thm3, case: 99, ..LEASE }),
            ("fig4 with an unknown case", TaskSpec { case: 5, ..LEASE }),
            ("prop2, never leasable", TaskSpec { query: QueryKind::Prop2, ..LEASE }),
            ("a shard beyond the partition", TaskSpec { shard: 7, ..LEASE }),
        ] {
            let error = execute_task(&task, &mut state).expect_err(what);
            assert!(matches!(error, ModelError::InvalidTaskParameter { .. }), "{what}: {error}");
        }
    }
}

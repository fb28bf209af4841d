//! The coordinator-side lease table of the distributed sweep fleet.
//!
//! A *lease* is one shard of one case granted to one remote worker: a
//! `(lease id, generation)` pair plus a [`TaskSpec`] the worker can
//! execute self-containedly.  The table owns the full failure policy —
//! liveness, expiry, fallback — and nothing else: it talks to workers only
//! through injected [`WorkerSender`] closures and reports task outcomes
//! only through per-task completion callbacks, so every policy decision is
//! unit-testable without sockets or threads (every method that reads the
//! clock takes the current [`Instant`] explicitly).
//!
//! The policy, in one paragraph: a worker's deadline is its last frame
//! time plus the lease TTL — heartbeats and completions extend it, and a
//! worker past its deadline is expired wholesale.  A lease that does not
//! complete — its worker expired, disconnected or could not be sent to,
//! the worker rejected it, or the fleet became empty — leaves the table
//! and its shard *falls back* to the local pool at once; it is never
//! granted again.  Like a crashed process in the synchronous crash model,
//! a lost worker is simply gone: while any worker is registered the
//! coordinator's local pool is otherwise idle, so it re-runs the shard
//! without waiting.  Remote execution is an accelerator, never a point of
//! failure.  A completion whose `(lease, generation)` no longer names an
//! assigned grant — the late `lease-done` of an expired worker — is
//! counted and dropped: the shard's accumulator enters the fold exactly
//! once, which is what keeps the merged result bit-identical to the
//! in-process sweep under any crash schedule.  The lease TTL is the one
//! setting (`--lease-ttl-ms`).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sweep::SweepStats;

use crate::wire::{Frame, LeaseGrant, TaskSpec, Value};

/// Default lease TTL when the daemon is started without an override.
pub const DEFAULT_LEASE_TTL_MS: u64 = 10_000;

/// Sends one frame to a registered worker, returning `false` when the
/// worker's connection is gone (which expires the worker).
pub type WorkerSender = Box<dyn Fn(&Frame) -> bool + Send>;

/// What became of a submitted remote task.
#[derive(Debug)]
pub enum TaskOutcome {
    /// A worker executed the shard; `payload` is the accumulator's wire
    /// rendering and `range` the scenario range the worker covered.
    Done {
        /// Wire rendering of the per-shard accumulator.
        payload: Value,
        /// Scenario range the worker reports for the shard.
        range: (usize, usize),
        /// Execution statistics of the shard.
        stats: SweepStats,
    },
    /// The fleet did not finish the shard — execute it on the local pool.
    Fallback {
        /// Whether a worker held the lease and lost it (expired,
        /// disconnected or could not be sent to), rather than rejecting it
        /// or never being granted it.
        lost: bool,
    },
}

/// Called exactly once per submitted task, under the table lock — keep it
/// non-blocking (the server hands the outcome to an unbounded channel).
pub type CompleteFn = Box<dyn FnOnce(TaskOutcome) + Send>;

/// A shard submitted for remote execution.
pub struct RemoteTask {
    /// What to execute.
    pub spec: TaskSpec,
    /// Completion callback; receives [`TaskOutcome::Fallback`] when the
    /// fleet gives up on the shard.
    pub complete: CompleteFn,
}

impl fmt::Debug for RemoteTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteTask").field("spec", &self.spec).finish_non_exhaustive()
    }
}

struct WorkerEntry {
    send: WorkerSender,
    /// The lease currently granted to this worker, if any (one at a time —
    /// a worker executes shards sequentially on its read thread).
    busy: Option<u64>,
    /// Instant past which the worker is declared dead.
    deadline: Instant,
}

struct TaskState {
    spec: TaskSpec,
    complete: CompleteFn,
    /// Set by the grant; a completion must match it *and* find the lease
    /// assigned to the sending worker, so late or forged duplicates never
    /// land.
    generation: u64,
    /// The worker currently holding the grant, when assigned.
    assigned: Option<u64>,
}

struct Inner {
    workers: HashMap<u64, WorkerEntry>,
    /// Every live task, keyed by lease id (queued or assigned).
    leases: HashMap<u64, TaskState>,
    /// Lease ids awaiting assignment, oldest first.
    queue: VecDeque<u64>,
    next_worker: u64,
    next_lease: u64,
    /// Set by [`LeaseTable::stop_waiting`]: no caller waits for a worker
    /// any more.
    stopped: bool,
}

/// The lease table: registered workers, queued and granted shards, and
/// the counters the daemon stats line reports.
pub struct LeaseTable {
    inner: Mutex<Inner>,
    /// Signalled when a worker registers or waiting stops; see
    /// [`LeaseTable::wait_for_worker`].
    worker_arrived: Condvar,
    /// A worker silent for longer than this is declared dead and its
    /// in-flight lease falls back.
    lease_ttl: Duration,
    granted: AtomicU64,
    completed: AtomicU64,
    expired: AtomicU64,
    requeued: AtomicU64,
    fallbacks: AtomicU64,
    duplicates: AtomicU64,
}

impl std::fmt::Debug for LeaseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseTable")
            .field("lease_ttl", &self.lease_ttl)
            .field("granted", &self.granted)
            .field("completed", &self.completed)
            .field("expired", &self.expired)
            .field("requeued", &self.requeued)
            .field("fallbacks", &self.fallbacks)
            .field("duplicates", &self.duplicates)
            .finish_non_exhaustive()
    }
}

impl LeaseTable {
    /// Creates an empty table whose workers expire after `lease_ttl` of
    /// silence.
    pub fn new(lease_ttl: Duration) -> Self {
        LeaseTable {
            inner: Mutex::new(Inner {
                workers: HashMap::new(),
                leases: HashMap::new(),
                queue: VecDeque::new(),
                next_worker: 0,
                next_lease: 0,
                stopped: false,
            }),
            worker_arrived: Condvar::new(),
            lease_ttl,
            granted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// The lease TTL the table enforces.
    pub fn lease_ttl(&self) -> Duration {
        self.lease_ttl
    }

    /// The heartbeat cadence advertised to workers: a quarter of the TTL,
    /// floored so short test TTLs still leave room for several beats.
    pub fn heartbeat_ms(&self) -> u64 {
        (self.lease_ttl.as_millis() as u64 / 4).max(25)
    }

    /// Registers a worker connection and returns its id.  Deliberately
    /// grants nothing: the caller still owes the worker its `registered`
    /// frame, which must precede any lease on the wire.  Queued shards
    /// reach the new worker on the next tick, submit or completion.
    pub fn register(&self, send: WorkerSender, now: Instant) -> u64 {
        let mut inner = self.inner.lock().expect("lease table lock");
        inner.next_worker += 1;
        let id = inner.next_worker;
        inner.workers.insert(id, WorkerEntry { send, busy: None, deadline: now + self.lease_ttl });
        self.worker_arrived.notify_all();
        id
    }

    /// Blocks while no worker is registered, and returns `true` once one
    /// is, or `false` once [`LeaseTable::stop_waiting`] was called.  With
    /// no worker there is nothing to expire and no lease to grant (every
    /// call that removes the last worker falls its queue back), so the
    /// periodic sweep waits here instead of ticking an empty table.
    pub fn wait_for_worker(&self) -> bool {
        let inner = self.inner.lock().expect("lease table lock");
        let inner = self
            .worker_arrived
            .wait_while(inner, |inner| inner.workers.is_empty() && !inner.stopped)
            .expect("lease table lock");
        !inner.stopped
    }

    /// Makes every current and future [`LeaseTable::wait_for_worker`]
    /// return `false`.
    pub fn stop_waiting(&self) {
        self.inner.lock().expect("lease table lock").stopped = true;
        self.worker_arrived.notify_all();
    }

    /// Extends a worker's liveness deadline.  Unknown ids (a worker
    /// already expired) are ignored.
    pub fn heartbeat(&self, worker: u64, now: Instant) {
        let mut inner = self.inner.lock().expect("lease table lock");
        if let Some(entry) = inner.workers.get_mut(&worker) {
            entry.deadline = now + self.lease_ttl;
        }
    }

    /// Removes a worker whose connection ended, falling its in-flight
    /// lease back.
    pub fn worker_gone(&self, worker: u64) {
        let mut inner = self.inner.lock().expect("lease table lock");
        self.kill_worker(&mut inner, worker, false);
        self.dispatch(&mut inner);
    }

    /// Submits a shard for remote execution.  Returns `false` — without
    /// consuming the task's completion callback against a fallback — when
    /// no workers are registered, so the caller can dispatch locally
    /// without a round trip through the outcome channel.
    pub fn submit(&self, task: RemoteTask) -> bool {
        let mut inner = self.inner.lock().expect("lease table lock");
        if inner.workers.is_empty() {
            return false;
        }
        inner.next_lease += 1;
        let lease = inner.next_lease;
        inner.leases.insert(
            lease,
            TaskState { spec: task.spec, complete: task.complete, generation: 0, assigned: None },
        );
        inner.queue.push_back(lease);
        self.dispatch(&mut inner);
        true
    }

    /// Lands a worker's completion.  Returns `false` (and counts a
    /// duplicate) when the `(lease, generation)` pair no longer names the
    /// active grant — a late or forged `lease-done` — in which case the
    /// payload is dropped on the floor.
    #[allow(clippy::too_many_arguments)]
    pub fn lease_done(
        &self,
        lease: u64,
        generation: u64,
        worker: u64,
        payload: Value,
        range: (usize, usize),
        stats: SweepStats,
        now: Instant,
    ) -> bool {
        let mut inner = self.inner.lock().expect("lease table lock");
        if !self.settle(&mut inner, lease, generation, worker, now) {
            return false;
        }
        let state = inner.leases.remove(&lease).expect("settled lease present");
        self.completed.fetch_add(1, Ordering::Relaxed);
        (state.complete)(TaskOutcome::Done { payload, range, stats });
        self.dispatch(&mut inner);
        true
    }

    /// Lands a worker's typed rejection of a lease: the shard falls back
    /// to local execution, which surfaces the same model error as a typed
    /// error frame.
    pub fn lease_failed(&self, lease: u64, generation: u64, worker: u64, now: Instant) {
        let mut inner = self.inner.lock().expect("lease table lock");
        if self.settle(&mut inner, lease, generation, worker, now) {
            self.fall_back(&mut inner, lease, false);
            self.dispatch(&mut inner);
        }
    }

    /// The periodic sweep: expires workers past their deadline, falling
    /// their leases back.
    pub fn tick(&self, now: Instant) {
        let mut inner = self.inner.lock().expect("lease table lock");
        let dead: Vec<u64> = inner
            .workers
            .iter()
            .filter(|(_, entry)| entry.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for worker in dead {
            self.kill_worker(&mut inner, worker, true);
        }
        self.dispatch(&mut inner);
    }

    /// Number of currently registered workers.
    pub fn live_workers(&self) -> u64 {
        self.inner.lock().expect("lease table lock").workers.len() as u64
    }

    /// Number of leases currently granted or queued.
    pub fn active_leases(&self) -> u64 {
        self.inner.lock().expect("lease table lock").leases.len() as u64
    }

    /// Lifetime grants sent to workers.
    pub fn granted_total(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Lifetime completions merged.
    pub fn completed_total(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Lifetime workers expired by TTL.
    pub fn expired_total(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Lifetime leases a worker lost whose shards went to the local pool.
    pub fn requeued_total(&self) -> u64 {
        self.requeued.load(Ordering::Relaxed)
    }

    /// Lifetime shards handed back to the local pool.
    pub fn fallbacks_total(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Lifetime late/stale/forged completions dropped.
    pub fn duplicates_total(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    /// Milliseconds since each live worker's last frame, by worker id
    /// (sorted) — the per-worker heartbeat-age gauges of the daemon's
    /// metrics snapshot.  Derived from the liveness deadline: a worker's
    /// deadline is its last frame time plus the TTL, so its age is the TTL
    /// minus the time still left.
    pub fn heartbeat_ages_ms(&self, now: Instant) -> Vec<(u64, u64)> {
        let inner = self.inner.lock().expect("lease table lock");
        let ttl = self.lease_ttl;
        let mut ages: Vec<(u64, u64)> = inner
            .workers
            .iter()
            .map(|(&id, entry)| {
                let remaining = entry.deadline.saturating_duration_since(now);
                (id, ttl.saturating_sub(remaining).as_millis() as u64)
            })
            .collect();
        ages.sort_unstable();
        ages
    }

    /// Takes a worker's answer to a grant: extends the worker's deadline,
    /// then checks that `(lease, generation)` names the grant the worker
    /// holds and frees the worker if so.  Anything else — a late or forged
    /// frame — is counted as a duplicate and `false` returned.
    fn settle(
        &self,
        inner: &mut Inner,
        lease: u64,
        generation: u64,
        worker: u64,
        now: Instant,
    ) -> bool {
        let valid = inner
            .leases
            .get(&lease)
            .is_some_and(|state| state.generation == generation && state.assigned == Some(worker));
        if let Some(entry) = inner.workers.get_mut(&worker) {
            entry.deadline = now + self.lease_ttl;
            if valid {
                entry.busy = None;
            }
        }
        if !valid {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        valid
    }

    /// Removes a worker (TTL expiry when `expired`, clean disconnect or
    /// send failure otherwise), falling its in-flight lease back.
    fn kill_worker(&self, inner: &mut Inner, worker: u64, expired: bool) {
        let Some(entry) = inner.workers.remove(&worker) else {
            return;
        };
        if expired {
            self.expired.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(lease) = entry.busy {
            self.fall_back(inner, lease, true);
        }
    }

    /// Removes a lease from the table and hands its shard to the local
    /// pool; `lost` marks a lease a worker held and lost.  The lease is
    /// never granted again, so a late completion for it finds no entry and
    /// is dropped as a duplicate.
    fn fall_back(&self, inner: &mut Inner, lease: u64, lost: bool) {
        let state = inner.leases.remove(&lease).expect("a falling-back lease is in the table");
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        if lost {
            self.requeued.fetch_add(1, Ordering::Relaxed);
            telemetry::log::warn(
                "service::lease",
                format!(
                    "sweep serve: re-queued shard {} of {} (case {}) on the local pool",
                    state.spec.shard,
                    state.spec.query.name(),
                    state.spec.case,
                ),
                &[
                    ("shard", state.spec.shard.into()),
                    ("query", state.spec.query.name().into()),
                    ("case", state.spec.case.into()),
                ],
            );
        }
        (state.complete)(TaskOutcome::Fallback { lost });
    }

    /// Grants queued shards to idle workers, oldest shard first and
    /// smallest idle worker id first.  A send failure removes the target
    /// worker, which falls the shard back; an empty fleet drains the whole
    /// queue to the local pool instead of stranding it.
    fn dispatch(&self, inner: &mut Inner) {
        while let Some(&lease) = inner.queue.front() {
            if inner.workers.is_empty() {
                inner.queue.pop_front();
                self.fall_back(inner, lease, false);
                continue;
            }
            let idle =
                inner.workers.iter().filter(|(_, entry)| entry.busy.is_none()).map(|(&id, _)| id);
            let Some(worker) = idle.min() else {
                return;
            };
            inner.queue.pop_front();
            let state = inner.leases.get_mut(&lease).expect("a queued lease is in the table");
            state.generation += 1;
            state.assigned = Some(worker);
            let grant = Frame::Lease(LeaseGrant {
                lease,
                generation: state.generation,
                task: state.spec.clone(),
            });
            let entry = inner.workers.get_mut(&worker).expect("idle worker present");
            entry.busy = Some(lease);
            if (entry.send)(&grant) {
                self.granted.fetch_add(1, Ordering::Relaxed);
            } else {
                self.kill_worker(inner, worker, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn spec(shard: usize) -> TaskSpec {
        TaskSpec {
            query: crate::wire::QueryKind::Thm1,
            case: 0,
            scope: None,
            seed: 0,
            shards: 4,
            shard,
        }
    }

    /// A worker whose sent frames land on a channel.
    fn channel_worker() -> (WorkerSender, mpsc::Receiver<Frame>) {
        let (tx, rx) = mpsc::channel();
        (Box::new(move |frame: &Frame| tx.send(frame.clone()).is_ok()), rx)
    }

    /// A task whose outcome lands on a channel.
    fn channel_task(shard: usize) -> (RemoteTask, mpsc::Receiver<TaskOutcome>) {
        let (tx, rx) = mpsc::channel();
        (
            RemoteTask {
                spec: spec(shard),
                complete: Box::new(move |outcome| {
                    let _ = tx.send(outcome);
                }),
            },
            rx,
        )
    }

    fn grant_of(frame: Frame) -> LeaseGrant {
        match frame {
            Frame::Lease(grant) => grant,
            other => panic!("expected a lease grant, got {other:?}"),
        }
    }

    fn ttl() -> Duration {
        Duration::from_millis(1_000)
    }

    #[test]
    fn empty_fleet_rejects_submissions_without_consuming_them() {
        let table = LeaseTable::new(ttl());
        let (task, outcomes) = channel_task(0);
        assert!(!table.submit(task));
        assert!(outcomes.try_recv().is_err(), "no outcome may fire on a rejected submit");
        assert_eq!(table.active_leases(), 0);
    }

    #[test]
    fn grant_complete_round_trip() {
        let table = LeaseTable::new(ttl());
        let now = Instant::now();
        let (sender, frames) = channel_worker();
        let worker = table.register(sender, now);
        let (task, outcomes) = channel_task(2);
        assert!(table.submit(task));
        let grant = grant_of(frames.try_recv().expect("a grant goes out immediately"));
        assert_eq!(grant.task.shard, 2);
        let stats = SweepStats::default();
        assert!(table.lease_done(
            grant.lease,
            grant.generation,
            worker,
            Value::Null,
            (10, 20),
            stats,
            now
        ));
        match outcomes.try_recv().expect("outcome fires") {
            TaskOutcome::Done { range, .. } => assert_eq!(range, (10, 20)),
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(table.completed_total(), 1);
        assert_eq!(table.active_leases(), 0);
    }

    #[test]
    fn duplicate_and_stale_completions_are_dropped() {
        let table = LeaseTable::new(ttl());
        let now = Instant::now();
        let (sender, frames) = channel_worker();
        let worker = table.register(sender, now);
        let (task, outcomes) = channel_task(0);
        assert!(table.submit(task));
        let grant = grant_of(frames.try_recv().unwrap());
        // Wrong generation: dropped.
        assert!(!table.lease_done(
            grant.lease,
            grant.generation + 7,
            worker,
            Value::Null,
            (0, 5),
            SweepStats::default(),
            now
        ));
        // Right generation: lands.
        assert!(table.lease_done(
            grant.lease,
            grant.generation,
            worker,
            Value::Null,
            (0, 5),
            SweepStats::default(),
            now
        ));
        // Exact duplicate of an already-merged completion: dropped.
        assert!(!table.lease_done(
            grant.lease,
            grant.generation,
            worker,
            Value::Null,
            (0, 5),
            SweepStats::default(),
            now
        ));
        assert_eq!(table.duplicates_total(), 2);
        assert_eq!(outcomes.iter().count(), 1, "the outcome fires exactly once");
    }

    #[test]
    fn expiry_falls_back_at_once_and_drops_the_late_done() {
        let table = LeaseTable::new(ttl());
        let t0 = Instant::now();
        let (sender_a, frames_a) = channel_worker();
        let (sender_b, frames_b) = channel_worker();
        let worker_a = table.register(sender_a, t0);
        let worker_b = table.register(sender_b, t0);
        let (task, outcomes) = channel_task(1);
        assert!(table.submit(task));
        // Smallest idle worker id wins the first grant.
        let first = grant_of(frames_a.try_recv().expect("worker A granted first"));
        // Worker B heartbeats; worker A goes silent past the TTL.
        let late = t0 + table.lease_ttl() + Duration::from_millis(1);
        table.heartbeat(worker_b, late);
        table.tick(late);
        assert_eq!(table.expired_total(), 1);
        assert_eq!(table.live_workers(), 1);
        // The shard goes to the local pool at once, marked as lost...
        assert!(matches!(outcomes.try_recv(), Ok(TaskOutcome::Fallback { lost: true })));
        assert_eq!(table.requeued_total(), 1);
        assert_eq!(table.fallbacks_total(), 1);
        assert_eq!(table.active_leases(), 0);
        // ...and is never granted again, not even to the idle worker B.
        table.tick(late + table.lease_ttl() / 2);
        assert!(frames_b.try_recv().is_err(), "a lost lease is never re-granted");
        assert!(frames_a.try_recv().is_err(), "the expired worker is sent nothing more");
        // The late completion from the dead worker is dropped.
        assert!(!table.lease_done(
            first.lease,
            first.generation,
            worker_a,
            Value::Null,
            (0, 5),
            SweepStats::default(),
            late
        ));
        assert_eq!(table.duplicates_total(), 1);
        assert!(outcomes.try_recv().is_err(), "the outcome fires exactly once");
    }

    #[test]
    fn losing_the_whole_fleet_falls_back_immediately() {
        let table = LeaseTable::new(ttl());
        let now = Instant::now();
        let (sender, _frames) = channel_worker();
        let worker = table.register(sender, now);
        let (task, outcomes) = channel_task(3);
        assert!(table.submit(task));
        table.worker_gone(worker);
        match outcomes.try_recv().expect("fallback fires when the fleet empties") {
            TaskOutcome::Fallback { lost } => assert!(lost, "the worker held the lease"),
            other => panic!("expected Fallback, got {other:?}"),
        }
        assert_eq!(table.live_workers(), 0);
    }

    #[test]
    fn losing_the_last_worker_drains_queued_leases_to_fallback() {
        let table = LeaseTable::new(ttl());
        let now = Instant::now();
        let (sender, frames) = channel_worker();
        let worker = table.register(sender, now);
        // First task is granted (worker busy), second waits in the queue.
        let (task_a, out_a) = channel_task(0);
        let (task_b, out_b) = channel_task(1);
        assert!(table.submit(task_a));
        assert!(table.submit(task_b));
        assert!(frames.try_recv().is_ok(), "first task is granted");
        table.worker_gone(worker);
        // Both the busy lease and the never-granted queued one fall back;
        // only the busy one was lost by a worker.
        assert!(matches!(out_a.try_recv(), Ok(TaskOutcome::Fallback { lost: true })));
        assert!(matches!(out_b.try_recv(), Ok(TaskOutcome::Fallback { lost: false })));
        assert_eq!(table.active_leases(), 0);
        assert_eq!(table.fallbacks_total(), 2);
        assert_eq!(table.requeued_total(), 1);
    }

    #[test]
    fn lease_failed_falls_back_without_retry() {
        let table = LeaseTable::new(ttl());
        let now = Instant::now();
        let (sender, frames) = channel_worker();
        let worker = table.register(sender, now);
        let (task, outcomes) = channel_task(0);
        assert!(table.submit(task));
        let grant = grant_of(frames.try_recv().unwrap());
        table.lease_failed(grant.lease, grant.generation, worker, now);
        assert!(matches!(outcomes.try_recv(), Ok(TaskOutcome::Fallback { lost: false })));
        // The worker is idle again and serves the next submission.
        let (task, _outcomes) = channel_task(1);
        assert!(table.submit(task));
        assert!(frames.try_recv().is_ok());
    }

    #[test]
    fn send_failure_expires_the_worker_and_falls_back() {
        let table = LeaseTable::new(ttl());
        let now = Instant::now();
        let dead: WorkerSender = Box::new(|_| false);
        table.register(dead, now);
        let (task, outcomes) = channel_task(0);
        // The submit sees one worker, the grant fails to send, the worker
        // dies, and its lease falls back.
        assert!(table.submit(task));
        assert!(matches!(outcomes.try_recv(), Ok(TaskOutcome::Fallback { lost: true })));
        assert_eq!(table.live_workers(), 0);
    }

    /// A waiter on an empty table stays blocked until a worker registers,
    /// returns at once while one is registered, blocks again once the
    /// last worker is gone, and is released by `stop_waiting`.
    #[test]
    fn waiting_for_a_worker_blocks_until_one_registers_or_waiting_stops() {
        let table = Arc::new(LeaseTable::new(ttl()));
        let waiter = |table: &Arc<LeaseTable>| {
            let (tx, rx) = mpsc::channel();
            let table = Arc::clone(table);
            std::thread::spawn(move || tx.send(table.wait_for_worker()).unwrap());
            rx
        };
        let quiet = Duration::from_millis(100);

        let woken = waiter(&table);
        assert!(woken.recv_timeout(quiet).is_err(), "no worker: the waiter must block");
        let (sender, _frames) = channel_worker();
        let worker = table.register(sender, Instant::now());
        assert_eq!(woken.recv_timeout(ttl()), Ok(true), "register wakes the waiter");
        assert_eq!(waiter(&table).recv_timeout(ttl()), Ok(true), "a registered worker");

        table.worker_gone(worker);
        let stopped = waiter(&table);
        assert!(stopped.recv_timeout(quiet).is_err(), "the last worker left: block again");
        table.stop_waiting();
        assert_eq!(stopped.recv_timeout(ttl()), Ok(false), "stop_waiting releases the waiter");
        assert_eq!(waiter(&table).recv_timeout(ttl()), Ok(false), "and every later one");
    }

    #[test]
    fn one_worker_runs_shards_sequentially() {
        let table = LeaseTable::new(ttl());
        let now = Instant::now();
        let (sender, frames) = channel_worker();
        let worker = table.register(sender, now);
        let (task_a, _out_a) = channel_task(0);
        let (task_b, _out_b) = channel_task(1);
        assert!(table.submit(task_a));
        assert!(table.submit(task_b));
        let first = grant_of(frames.try_recv().expect("first grant"));
        assert!(frames.try_recv().is_err(), "a busy worker gets no second grant");
        assert!(table.lease_done(
            first.lease,
            first.generation,
            worker,
            Value::Null,
            (0, 5),
            SweepStats::default(),
            now
        ));
        let second = grant_of(frames.try_recv().expect("completion frees the worker"));
        assert_eq!(second.task.shard, 1);
    }

    #[test]
    fn callbacks_may_live_on_other_threads() {
        // Compile-time style check: the table is Sync and outcomes can be
        // routed through Arc across threads.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<LeaseTable>();
        let table = Arc::new(LeaseTable::new(ttl()));
        let handle = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.live_workers())
        };
        assert_eq!(handle.join().unwrap(), 0);
    }
}

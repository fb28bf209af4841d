//! The daemon's persistent worker pool.
//!
//! Unlike the in-process engine — which spawns scoped threads per sweep —
//! the daemon keeps `workers` threads alive for its whole lifetime, each
//! owning a warm [`set_consensus::BatchRunner`] (analysis cache, run
//! structures, transcript and check buffers) and a scratch
//! [`sweep::Scenario`] slot.  Shard tasks from *all* jobs and connections
//! share the pool, so a worker's caches stay warm across requests — the
//! runner-level analogue of the shard-accumulator cache one level up.
//!
//! Tasks are type-erased closures: the scheduler in `server` monomorphizes
//! per query and the pool stays ignorant of reducers and accumulators.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use set_consensus::BatchRunner;
use sweep::Scenario;

/// The long-lived state a pool worker threads through every task it runs.
#[derive(Debug)]
pub struct WorkerState {
    /// A cached, structure-reusing batch runner, warm across tasks and
    /// jobs.  Both reuse layers are speed-only (bit-identity at any warmth
    /// is pinned by the determinism tests), so sharing the runner across
    /// jobs never changes a fold.
    pub runner: BatchRunner,
    /// The worker's scratch scenario slot for block-cursor walks — any
    /// source's cursor overwrites it wholesale on first advance, so it may
    /// carry state from a different job's source.
    pub scratch: Option<Scenario>,
}

type Task = Box<dyn FnOnce(&mut WorkerState) + Send>;

/// A fixed-size pool of persistent worker threads consuming a shared task
/// queue.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` (at least one) persistent worker threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|_| {
                let receiver: Arc<Mutex<Receiver<Task>>> = Arc::clone(&receiver);
                std::thread::spawn(move || {
                    let mut state = WorkerState { runner: BatchRunner::new(), scratch: None };
                    loop {
                        // Hold the queue lock only while popping, never
                        // while running a task.
                        let task = receiver.lock().expect("worker queue lock").recv();
                        match task {
                            Ok(task) => task(&mut state),
                            Err(_) => break, // queue closed: shutdown
                        }
                    }
                })
            })
            .collect();
        WorkerPool { sender: Some(sender), handles, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a task; some worker will run it.
    ///
    /// # Panics
    ///
    /// Panics if the pool is already shut down.
    pub fn submit(&self, task: Task) {
        self.sender.as_ref().expect("pool not shut down").send(task).expect("pool workers alive");
    }

    /// Closes the queue and joins every worker after it drains — the
    /// graceful-shutdown path ([`Drop`] does the same, so simply dropping
    /// the pool never orphans a worker thread).
    pub fn shutdown(&mut self) {
        self.sender.take(); // closes the channel; workers drain and exit
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tasks_run_and_shutdown_joins() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let (tx, rx) = mpsc::channel();
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(Box::new(move |state| {
                // The worker state is genuinely threaded through.
                let _ = &state.runner;
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).expect("test receiver alive");
            }));
        }
        for _ in 0..10 {
            rx.recv().expect("task completed");
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_workers_still_means_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}

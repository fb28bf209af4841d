//! In-memory spans around calls into each layer's public functions.
//!
//! Every wrapper here delegates, so a traced fold is bit-identical to an
//! untraced one (the correctness gate compares them).  Spans of a traced
//! pass accumulate into thread-local cells: traced passes whose layer
//! split is reported run at one engine thread, on the calling thread.
//! Calls too short and too frequent to time one by one (decisions,
//! observer callbacks, reducer folds) are counted on every call and timed
//! on one call in [`SAMPLE_EVERY`]; their totals are estimated as the
//! sampled mean times the call count, less the calibrated cost of reading
//! the clock.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use set_consensus::{DecisionContext, Protocol};
use sweep::Reducer;
use synchrony::Value;

/// One in this many calls of a sampled span is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// The accumulators of one traced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Slot {
    /// Job closures (per scenario), whole.
    Job,
    /// `BatchRunner::execute_*` and `simulate` calls, whole.
    Execute,
    /// `BatchRunner::simulate` calls of a simulate-only pass.
    Simulate,
    /// `CheckScratch::check` calls.
    Check,
    /// Number of `CheckScratch::check` calls.
    CheckCalls,
    /// `ProtocolComplex::build` calls.
    ComplexBuild,
    /// Star/link homology checks.
    StarCheck,
    /// `Protocol::decide`: calls, timed samples, sampled nanoseconds.
    DecideCalls,
    DecideSamples,
    DecideSampledNs,
    /// The Lemma-3 observer: calls, samples, sampled nanoseconds.
    ObserveCalls,
    ObserveSamples,
    ObserveSampledNs,
    /// `Reducer::fold`: calls, samples, sampled nanoseconds.
    FoldCalls,
    FoldSamples,
    FoldSampledNs,
}

const SLOTS: usize = Slot::FoldSampledNs as usize + 1;

thread_local! {
    static CELLS: [Cell<u64>; SLOTS] = const { [const { Cell::new(0) }; SLOTS] };
}

fn add(slot: Slot, value: u64) {
    CELLS.with(|cells| cells[slot as usize].set(cells[slot as usize].get() + value));
}

fn bump(slot: Slot) -> u64 {
    CELLS.with(|cells| {
        let cell = &cells[slot as usize];
        let value = cell.get();
        cell.set(value + 1);
        value
    })
}

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span of `slot`.
pub fn span<T>(slot: Slot, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = f();
    add(slot, nanos(start));
    result
}

/// Runs `f`, counting the call in `calls` and timing one in
/// [`SAMPLE_EVERY`] into `sampled_ns` / `samples`.
fn sampled<T>(calls: Slot, samples: Slot, sampled_ns: Slot, f: impl FnOnce() -> T) -> T {
    if !bump(calls).is_multiple_of(SAMPLE_EVERY) {
        return f();
    }
    let start = Instant::now();
    let result = f();
    add(sampled_ns, nanos(start));
    add(samples, 1);
    result
}

/// Counts `calls` calls of `slot` without timing them.
pub fn count(slot: Slot, calls: u64) {
    add(slot, calls);
}

/// The median cost of one `Instant::now()` + `elapsed()` pair, in
/// nanoseconds, measured once per process.
pub fn clock_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut costs: Vec<f64> = (0..64)
            .map(|_| {
                let outer = Instant::now();
                for _ in 0..64 {
                    std::hint::black_box(Instant::now().elapsed());
                }
                outer.elapsed().as_nanos() as f64 / 64.0
            })
            .collect();
        costs.sort_by(f64::total_cmp);
        costs[costs.len() / 2]
    })
}

/// The layer totals of one traced pass, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub job_ns: f64,
    pub execute_ns: f64,
    pub simulate_ns: f64,
    pub check_ns: f64,
    pub check_calls: f64,
    pub complex_build_ns: f64,
    pub star_check_ns: f64,
    pub decide_ns: f64,
    pub decide_calls: f64,
    pub observe_ns: f64,
    pub fold_ns: f64,
}

/// Takes (and resets) this thread's accumulators.
pub fn take() -> Spans {
    let raw: [u64; SLOTS] = CELLS.with(|cells| std::array::from_fn(|i| cells[i].replace(0)));
    let get = |slot: Slot| raw[slot as usize] as f64;
    let estimate = |calls: Slot, samples: Slot, sampled_ns: Slot| {
        if get(samples) == 0.0 {
            return 0.0;
        }
        let per_call = (get(sampled_ns) / get(samples) - clock_cost_ns()).max(0.0);
        per_call * get(calls)
    };
    Spans {
        job_ns: get(Slot::Job),
        execute_ns: get(Slot::Execute),
        simulate_ns: get(Slot::Simulate),
        check_ns: get(Slot::Check),
        check_calls: get(Slot::CheckCalls),
        complex_build_ns: get(Slot::ComplexBuild),
        star_check_ns: get(Slot::StarCheck),
        decide_ns: estimate(Slot::DecideCalls, Slot::DecideSamples, Slot::DecideSampledNs),
        decide_calls: get(Slot::DecideCalls),
        observe_ns: estimate(Slot::ObserveCalls, Slot::ObserveSamples, Slot::ObserveSampledNs),
        fold_ns: estimate(Slot::FoldCalls, Slot::FoldSamples, Slot::FoldSampledNs),
    }
}

/// Runs an observer callback inside the sampled observe span.
pub fn observe<T>(f: impl FnOnce() -> T) -> T {
    sampled(Slot::ObserveCalls, Slot::ObserveSamples, Slot::ObserveSampledNs, f)
}

/// A delegating [`Protocol`] whose decisions are counted and sampled.
pub struct TimedProtocol<'a>(pub &'a dyn Protocol);

impl Protocol for TimedProtocol<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        sampled(Slot::DecideCalls, Slot::DecideSamples, Slot::DecideSampledNs, || {
            self.0.decide(ctx)
        })
    }
}

/// A delegating [`Reducer`] whose folds are counted and sampled.
pub struct TimedReducer<R>(pub R);

impl<R: Reducer> Reducer for TimedReducer<R> {
    type Item = R::Item;
    type Acc = R::Acc;

    fn empty(&self) -> R::Acc {
        self.0.empty()
    }

    fn fold(&self, acc: &mut R::Acc, item: R::Item) {
        sampled(Slot::FoldCalls, Slot::FoldSamples, Slot::FoldSampledNs, || self.0.fold(acc, item));
    }

    fn merge(&self, left: R::Acc, right: R::Acc) -> R::Acc {
        self.0.merge(left, right)
    }
}

/// Job time summed over every engine thread of a multi-threaded pass —
/// the numerator of `sweep.busy_frac.t2`.  Threads add into separate
/// cache lines so the meter does not serialize them.
#[derive(Debug, Default)]
pub struct BusyMeter {
    slots: [Padded; 4],
}

#[derive(Debug, Default)]
#[repr(align(64))]
struct Padded(AtomicU64);

impl BusyMeter {
    /// Runs `f`, adding its duration to the calling thread's slot.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        let start = Instant::now();
        let result = f();
        let slot = INDEX.with(|index| *index) % 4;
        self.slots[slot].0.fetch_add(nanos(start), Ordering::Relaxed);
        result
    }

    /// The summed busy time, in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.slots.iter().map(|slot| slot.0.load(Ordering::Relaxed) as f64).sum()
    }
}

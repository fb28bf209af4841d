//! Execution of a protocol against an adversary.

use knowledge::{AnalysisCache, CacheStats, ViewAnalysis};
use synchrony::{Adversary, ModelError, Node, Run, StructureReuse, Time};

use crate::check::CheckScratch;
use crate::{Decision, DecisionContext, Protocol, TaskParams, TaskVariant, Transcript};

/// Executes `protocol` on the (already simulated) communication structure of
/// `run`, producing the decision transcript.  The run must be simulated
/// through its horizon, as [`Run::generate`] leaves it.
///
/// At every time `m = 0, 1, …` up to the run's horizon, every process that is
/// still active and undecided is offered the chance to decide based on its
/// knowledge analysis at `⟨i, m⟩`.  Decisions are irrevocable.
///
/// # Errors
///
/// Propagates any model error raised while analyzing nodes (which can only
/// happen if the run and parameters are inconsistent).
pub fn execute_on_run(
    protocol: &dyn Protocol,
    params: &TaskParams,
    run: &Run,
) -> Result<Transcript, ModelError> {
    let n = run.n();
    let mut decisions: Vec<Option<Decision>> = vec![None; n];
    for m in 0..=run.horizon().index() {
        let time = Time::new(m as u32);
        for i in 0..n {
            if decisions[i].is_some() || !run.is_active(i, time) {
                continue;
            }
            let analysis = ViewAnalysis::new(run, Node::new(i, time))?;
            let ctx = DecisionContext::new(params, &analysis);
            if let Some(value) = protocol.decide(&ctx) {
                decisions[i] = Some(Decision { time, value });
            }
        }
    }
    Ok(Transcript::new(protocol.name().to_owned(), decisions, run.horizon()))
}

/// Simulates the run induced by `adversary` (with a horizon generous enough
/// for every protocol in this crate) and executes `protocol` on it.
///
/// # Errors
///
/// Returns an error if the adversary is inconsistent with the parameters.
pub fn execute(
    protocol: &dyn Protocol,
    params: &TaskParams,
    adversary: Adversary,
) -> Result<(Run, Transcript), ModelError> {
    let run = Run::generate(params.system(), adversary, params.horizon())?;
    let transcript = execute_on_run(protocol, params, &run)?;
    Ok((run, transcript))
}

/// Communication-structure simulation counters of a [`BatchRunner`].
///
/// `simulated + reused` is the total number of runs the runner prepared; a
/// *reused* run kept the rows already simulated — up to `O(horizon² · n²)`
/// layer unions of `⌈n/64⌉` words each — because its failure pattern (and
/// parameters and horizon) matched the previous run's — see
/// [`synchrony::StructureReuse`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReuseStats {
    /// Runs whose communication structure was started afresh; its rows
    /// are simulated as far as the batch reads them.
    pub simulated: u64,
    /// Runs that reused the previous communication structure outright.
    pub reused: u64,
}

impl RunReuseStats {
    /// Returns the total number of runs prepared.
    pub fn total(&self) -> u64 {
        self.simulated + self.reused
    }

    /// Returns the fraction of runs that skipped simulation, in `[0, 1]`
    /// (`0` when no run was prepared).
    pub fn reuse_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.reused as f64 / self.total() as f64
        }
    }

    /// Adds another counter pair into this one (for aggregating per-worker
    /// runners into sweep-level stats).
    pub fn merge(&mut self, other: RunReuseStats) {
        self.simulated += other.simulated;
        self.reused += other.reused;
    }

    fn record(&mut self, reuse: StructureReuse) {
        match reuse {
            StructureReuse::Simulated => self.simulated += 1,
            StructureReuse::Reused => self.reused += 1,
        }
    }
}

/// A per-node observer invoked by [`BatchRunner::execute_batch_observed`]:
/// the run, the node, its knowledge analysis, and the transcripts as decided
/// *up to and including* that node (one per protocol, in batch order).
pub type NodeObserver<'a> =
    &'a mut dyn FnMut(&Run, Node, &ViewAnalysis, &[Transcript]) -> Result<(), ModelError>;

/// A reusable execution context for batches of runs.
///
/// The one-shot [`execute`] entry point allocates a fresh [`Run`] and
/// [`Transcript`] per call and recomputes every node's [`ViewAnalysis`] per
/// protocol.  Sweeping large adversary spaces (see the `sweep` crate) makes
/// those allocations the dominant cost, so a `BatchRunner` keeps them alive
/// across the runs of a batch:
///
/// * the simulated [`Run`] is re-targeted **in place** via
///   [`Run::retarget`]; when consecutive adversaries share a failure
///   pattern (the structure-major order of exhaustive sweeps), the rows
///   already simulated are kept and only the input overlay is swapped —
///   counted in [`BatchRunner::run_stats`];
/// * rows are simulated **on demand**: a batch extends the run just
///   before the first node it analyzes at each time, so an early-deciding
///   protocol never pays for the rows after its last decision, and the run
///   a plain batch ([`BatchRunner::execute_batch`]) returns is simulated
///   only through the last time it analyzed (its [`Run::frontier`]).  An
///   observed batch analyzes every active node, and some process is
///   active at every time up to the horizon (t ≤ n − 1), so its run ends
///   at the horizon; [`BatchRunner::simulate`] simulates through the
///   horizon directly;
/// * the per-protocol decision buffers (and the [`Transcript`]s wrapping
///   them, including their protocol-name strings) are reused across runs;
/// * each node's knowledge analysis is computed **once per run** and shared
///   by every protocol in the batch, instead of once per protocol;
/// * the runner keeps **one analysis per node slot** `(m, i)` for its whole
///   lifetime and refills it in its own buffers: after a re-simulation a
///   node's first analysis is a full in-place
///   [`ViewAnalysis::recompute`], which takes `HC⟨i, m − 1⟩` from the slot
///   of `⟨i, m − 1⟩`; while the structure is reused — and at every time-0
///   node of a run with the same `(n, t)`, which sees only itself — only
///   the value-dependent fields are refreshed
///   ([`ViewAnalysis::refresh_values`]) — counted in
///   [`BatchRunner::analysis_stats`];
/// * a [`CheckScratch`] rides along for the specification checks, so job
///   code can verify every transcript of the batch without allocating —
///   see [`BatchRunner::batch_parts`] and [`BatchRunner::count_violations`].
///
/// The produced transcripts are identical (`==`) to those of
/// [`execute_on_run`] executed per protocol.
///
/// ```
/// use set_consensus::{executor::BatchRunner, Optmin, FloodMin, TaskParams};
/// use synchrony::{Adversary, InputVector, SystemParams};
///
/// let params = TaskParams::new(SystemParams::new(4, 2)?, 2)?;
/// let adversary = Adversary::failure_free(InputVector::from_values([0, 1, 2, 2]))?;
/// let mut runner = BatchRunner::new();
/// let (run, transcripts) =
///     runner.execute_batch(&[&Optmin, &FloodMin], &params, &adversary)?;
/// assert_eq!(transcripts.len(), 2);
/// assert!(transcripts.iter().all(|t| t.all_correct_decided(run)));
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug)]
pub struct BatchRunner {
    run: Option<Run>,
    transcripts: Vec<Transcript>,
    /// The analysis of node `⟨i, m⟩` at index `m · n + i`.
    slots: Vec<AnalysisSlot>,
    /// Counts the run structures simulated into `run`; a slot filled under
    /// an older one is stale.
    generation: u64,
    /// Slot work: in-place recomputes (misses) and value-only refreshes
    /// (hits).
    slot_stats: CacheStats,
    /// Served to job code only; the executor never consults it.
    cache: AnalysisCache,
    run_stats: RunReuseStats,
    /// Reusable buffers for the correctness checks of the runner's batches
    /// — see [`BatchRunner::batch_parts`] and
    /// [`BatchRunner::count_violations`].
    checks: CheckScratch,
}

/// One node slot of a [`BatchRunner`].
#[derive(Debug, Default)]
struct AnalysisSlot {
    analysis: Option<ViewAnalysis>,
    /// The structure generation `analysis` was last fully computed under.
    generation: u64,
}

impl AnalysisSlot {
    /// Returns the slot's analysis of `node` in `run`, whose structure is
    /// generation `generation`: refreshed in place when the slot already
    /// holds this structure's analysis of the node — or the node's time-0
    /// analysis in a system of the same `(n, t)`, since `⟨i, 0⟩` sees only
    /// itself in every run — and recomputed in place otherwise, from
    /// `prev_capacity` = `HC⟨i, m − 1⟩`.
    fn analyze(
        &mut self,
        run: &Run,
        node: Node,
        generation: u64,
        prev_capacity: Option<usize>,
        stats: &mut CacheStats,
    ) -> Result<&ViewAnalysis, ModelError> {
        match &mut self.analysis {
            Some(analysis)
                if self.generation == generation
                    || (node.time == Time::ZERO
                        && analysis.node() == node
                        && analysis.n() == run.n()
                        && analysis.t() == run.t()) =>
            {
                analysis.refresh_values(run);
                stats.hits += 1;
            }
            Some(analysis) => {
                analysis.recompute(run, node, prev_capacity)?;
                stats.misses += 1;
            }
            None => {
                // A fresh slot starts from the process's time-0 analysis,
                // which costs `O(n / 64)`, and is recomputed in place like
                // any other: that spares `ViewAnalysis::new`'s walk over
                // the previous node's layers.
                let fresh = ViewAnalysis::new(run, Node::new(node.process, Time::ZERO))?;
                self.analysis.insert(fresh).recompute(run, node, prev_capacity)?;
                stats.misses += 1;
            }
        }
        self.generation = generation;
        Ok(self.analysis.as_ref().expect("the slot was just filled"))
    }

    /// Returns `HC` of the slot's node, which the batch analyzed under
    /// structure generation `generation`.
    fn hidden_capacity(&self, node: Node, generation: u64) -> usize {
        let analysis = self.analysis.as_ref().expect("the batch analyzed this node");
        debug_assert!(self.generation == generation && analysis.node() == node);
        analysis.hidden_capacity()
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// Creates an empty runner; buffers are allocated lazily by the first
    /// batch.
    pub fn new() -> Self {
        BatchRunner {
            run: None,
            transcripts: Vec::new(),
            slots: Vec::new(),
            generation: 0,
            slot_stats: CacheStats::default(),
            cache: AnalysisCache::new(),
            run_stats: RunReuseStats::default(),
            checks: CheckScratch::new(),
        }
    }

    /// Returns a handle to the runner's [`AnalysisCache`], for job code that
    /// analyzes nodes beyond the executor's own (clone it *before*
    /// borrowing the runner's run).  The executor itself never consults it;
    /// its lookups count in [`BatchRunner::analysis_stats`].
    pub fn cache(&self) -> &AnalysisCache {
        &self.cache
    }

    /// Returns the analysis work of this runner so far: the node slots'
    /// in-place recomputes (misses) and value-only refreshes (hits), plus
    /// the lookups of [`BatchRunner::cache`].
    pub fn analysis_stats(&self) -> CacheStats {
        let mut stats = self.slot_stats;
        stats.merge(self.cache.stats());
        stats
    }

    /// Returns a snapshot of the run-structure simulation counters.
    pub fn run_stats(&self) -> RunReuseStats {
        self.run_stats
    }

    /// Returns the last batch's run and transcripts together with the
    /// runner's [`CheckScratch`] — the allocation-free way to check a batch.
    ///
    /// The three borrows are disjoint, so job code can check each
    /// transcript through the scratch while still reading the run and the
    /// other transcripts:
    ///
    /// ```
    /// use set_consensus::{executor::BatchRunner, Optmin, FloodMin, Protocol, TaskParams, TaskVariant};
    /// use synchrony::{Adversary, InputVector, SystemParams};
    ///
    /// let params = TaskParams::new(SystemParams::new(4, 2)?, 2)?;
    /// let adversary = Adversary::failure_free(InputVector::from_values([0, 1, 2, 2]))?;
    /// let mut runner = BatchRunner::new();
    /// let protocols: [&dyn Protocol; 2] = [&Optmin, &FloodMin];
    /// runner.execute_batch(&protocols, &params, &adversary)?;
    ///
    /// let (run, transcripts, checks) = runner.batch_parts();
    /// for transcript in transcripts {
    ///     assert!(checks.check(run, transcript, &params, TaskVariant::Nonuniform).is_empty());
    /// }
    /// # Ok::<(), synchrony::ModelError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if no batch has been executed yet.
    pub fn batch_parts(&mut self) -> (&Run, &[Transcript], &mut CheckScratch) {
        (
            self.run.as_ref().expect("no batch executed on this runner yet"),
            &self.transcripts,
            &mut self.checks,
        )
    }

    /// Sums the specification violations of every transcript of the last
    /// batch under `variant`, through the runner's [`CheckScratch`] —
    /// allocation-free, and exactly `check::check(..).len()` summed over
    /// the batch.
    ///
    /// # Panics
    ///
    /// Panics if no batch has been executed yet.
    pub fn count_violations(&mut self, params: &TaskParams, variant: TaskVariant) -> u64 {
        let run = self.run.as_ref().expect("no batch executed on this runner yet");
        let mut total = 0u64;
        for transcript in &self.transcripts {
            total += self.checks.check(run, transcript, params, variant).len() as u64;
        }
        total
    }

    /// Simulates the run induced by `adversary` (rebuilding the previous
    /// run's buffers in place) and executes every protocol on it, reusing
    /// the decision buffers of the previous batch.
    ///
    /// Returns the shared run together with one transcript per protocol, in
    /// the order given.  The borrows are valid until the next batch.  The
    /// run is simulated only through the last time the batch analyzed a
    /// node ([`Run::frontier`]): its activity, inputs and failure pattern
    /// are complete, but reading a later row panics — clone it and call
    /// [`Run::simulate_through`] for those.
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary is inconsistent with the
    /// parameters.
    pub fn execute_batch(
        &mut self,
        protocols: &[&dyn Protocol],
        params: &TaskParams,
        adversary: &Adversary,
    ) -> Result<(&Run, &[Transcript]), ModelError> {
        self.run_batch(protocols, params, adversary, None)?;
        Ok((self.run.as_ref().expect("the run was just simulated"), &self.transcripts))
    }

    /// [`BatchRunner::execute_batch`], additionally invoking `observer` at
    /// **every** active node of the run, exactly once, with the node's
    /// knowledge analysis and the decision state so far.
    ///
    /// This is the hook for per-node structure checks that would otherwise
    /// re-analyze the whole run in a second pass (e.g. the Theorem 1
    /// Lemma 3 scan): the observer runs inside the executor's decision loop,
    /// right *after* the node's protocols were offered their decision, so
    /// `transcripts[p].decision_time(i)` reflects every decision taken up to
    /// and including the observed node.  Unlike the plain batch loop —
    /// which skips analyzing nodes once every protocol has decided — the
    /// observed loop analyzes every active node, so the observer sees all of
    /// them.  Rows are simulated on demand, as in the plain loop: the run
    /// the observer sees is simulated through the observed node's time, and
    /// the returned run through the horizon.
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary is inconsistent with the
    /// parameters, or propagates the first error returned by `observer`.
    pub fn execute_batch_observed(
        &mut self,
        protocols: &[&dyn Protocol],
        params: &TaskParams,
        adversary: &Adversary,
        mut observer: impl FnMut(&Run, Node, &ViewAnalysis, &[Transcript]) -> Result<(), ModelError>,
    ) -> Result<(&Run, &[Transcript]), ModelError> {
        self.run_batch(protocols, params, adversary, Some(&mut observer))?;
        Ok((self.run.as_ref().expect("the run was just simulated"), &self.transcripts))
    }

    /// The shared batch loop behind [`BatchRunner::execute_batch`] and
    /// [`BatchRunner::execute_batch_observed`].
    ///
    /// Both re-target the run at time 0 and extend it just before the
    /// first node they analyze at each later time.  A plain batch skips
    /// the nodes whose protocols have all decided, so rows past the last
    /// decision are never simulated; an observed batch analyzes every
    /// active node and so reaches the horizon.
    fn run_batch(
        &mut self,
        protocols: &[&dyn Protocol],
        params: &TaskParams,
        adversary: &Adversary,
        mut observer: Option<NodeObserver<'_>>,
    ) -> Result<(), ModelError> {
        let horizon = params.horizon();
        self.retarget(params.system(), adversary, horizon)?;
        let BatchRunner { run, transcripts, slots, generation, slot_stats, .. } = self;
        let run = run.as_mut().expect("the run was just re-targeted");
        let n = run.n();
        let num_nodes = (horizon.index() + 1) * n;
        if slots.len() < num_nodes {
            slots.resize_with(num_nodes, AnalysisSlot::default);
        }

        // Reshape the transcript pool, reusing the decision buffers — and the
        // protocol-name strings, which are rewritten only when the protocol
        // in that slot actually changed (names are compared, not rebuilt, so
        // steady-state batches allocate nothing here).
        transcripts.truncate(protocols.len());
        while transcripts.len() < protocols.len() {
            transcripts.push(Transcript {
                protocol: String::new(),
                decisions: Vec::new(),
                horizon,
            });
        }
        for (transcript, protocol) in transcripts.iter_mut().zip(protocols) {
            let name = protocol.name();
            if transcript.protocol != name {
                transcript.protocol.clear();
                transcript.protocol.push_str(name);
            }
            transcript.horizon = horizon;
            transcript.decisions.clear();
            transcript.decisions.resize(n, None);
        }

        for m in 0..=horizon.index() {
            let time = Time::new(m as u32);
            for i in 0..n {
                if !run.is_active(i, time) {
                    continue;
                }
                // Without an observer, a node whose every protocol has
                // already decided needs no analysis; an observer must see
                // every active node exactly once.
                if observer.is_none() && transcripts.iter().all(|t| t.decisions[i].is_some()) {
                    continue;
                }
                if run.frontier() < time {
                    run.simulate_through(time);
                }
                let node = Node::new(i, time);
                // ⟨i, m⟩ is analyzed only if ⟨i, m − 1⟩ was: the process was
                // active then, and no decision is ever taken back.
                let prev_capacity = (m > 0).then(|| {
                    slots[(m - 1) * n + i].hidden_capacity(Node::new(i, time - 1), *generation)
                });
                let analysis =
                    slots[m * n + i].analyze(run, node, *generation, prev_capacity, slot_stats)?;
                let ctx = DecisionContext::new(params, analysis);
                for (transcript, protocol) in transcripts.iter_mut().zip(protocols) {
                    if transcript.decisions[i].is_none() {
                        if let Some(value) = protocol.decide(&ctx) {
                            transcript.decisions[i] = Some(Decision { time, value });
                        }
                    }
                }
                if let Some(observe) = observer.as_mut() {
                    observe(run, node, analysis, transcripts)?;
                }
            }
        }
        Ok(())
    }

    /// Re-targets the reused run at `adversary` (time 0 only; see
    /// [`Run::retarget`]), counting the structure switch.
    fn retarget(
        &mut self,
        system: synchrony::SystemParams,
        adversary: &Adversary,
        horizon: Time,
    ) -> Result<&mut Run, ModelError> {
        let reuse = match self.run.as_mut() {
            Some(run) => run.retarget(system, adversary, horizon)?,
            None => {
                self.run = Some(Run::generate(system, adversary.clone(), horizon)?);
                StructureReuse::Simulated
            }
        };
        self.run_stats.record(reuse);
        if reuse == StructureReuse::Simulated {
            self.generation += 1;
        }
        Ok(self.run.as_mut().expect("the run was just re-targeted"))
    }

    /// Simulates the run induced by `adversary` through `horizon` into the
    /// reused run buffer without executing any protocol — for jobs that
    /// only need the communication structure (e.g. topology sweeps).  When
    /// the adversary's failure pattern matches the previous run's, the rows
    /// already simulated are kept and only the input overlay is swapped.
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary is inconsistent with `system` or
    /// the horizon is zero.
    pub fn simulate(
        &mut self,
        system: synchrony::SystemParams,
        adversary: &Adversary,
        horizon: Time,
    ) -> Result<&Run, ModelError> {
        let run = self.retarget(system, adversary, horizon)?;
        run.simulate_through(horizon);
        Ok(run)
    }

    /// Single-protocol convenience wrapper around [`BatchRunner::execute_batch`].
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary is inconsistent with the
    /// parameters.
    pub fn execute_one(
        &mut self,
        protocol: &dyn Protocol,
        params: &TaskParams,
        adversary: &Adversary,
    ) -> Result<(&Run, &Transcript), ModelError> {
        let (run, transcripts) = self.execute_batch(&[protocol], params, adversary)?;
        Ok((run, &transcripts[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrony::{InputVector, SystemParams, Value};

    /// Decides the process's own initial value at time 1.
    struct OwnValueAtOne;

    impl Protocol for OwnValueAtOne {
        fn name(&self) -> &str {
            "OwnValueAtOne"
        }

        fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
            (ctx.analysis.time() == Time::new(1)).then(|| ctx.analysis.min_value())
        }
    }

    #[test]
    fn executor_respects_decision_times_and_activity() {
        let params = TaskParams::new(SystemParams::new(3, 1).unwrap(), 1).unwrap();
        let mut failures = synchrony::FailurePattern::crash_free(3);
        failures.crash_silent(0, 1).unwrap();
        let adversary = Adversary::new(InputVector::from_values([0, 1, 1]), failures).unwrap();
        let (run, transcript) = execute(&OwnValueAtOne, &params, adversary).unwrap();
        // p0 crashed before time 1 and never decides.
        assert_eq!(transcript.decision(0), None);
        assert_eq!(transcript.decision_time(1), Some(Time::new(1)));
        assert_eq!(transcript.decision_time(2), Some(Time::new(1)));
        assert!(transcript.all_correct_decided(&run));
        assert_eq!(transcript.protocol(), "OwnValueAtOne");
    }

    #[test]
    fn decisions_are_irrevocable_and_unique() {
        struct EveryRound;
        impl Protocol for EveryRound {
            fn name(&self) -> &str {
                "EveryRound"
            }
            fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
                Some(Value::new(ctx.analysis.time().value() as u64))
            }
        }
        let params = TaskParams::with_max_value(SystemParams::new(2, 0).unwrap(), 1, 9).unwrap();
        let adversary = Adversary::failure_free(InputVector::from_values([0, 1])).unwrap();
        let (_, transcript) = execute(&EveryRound, &params, adversary).unwrap();
        // The first offer is at time 0 and later offers must not overwrite it.
        assert_eq!(transcript.decision_time(0), Some(Time::ZERO));
        assert_eq!(transcript.decision_value(0), Some(Value::new(0)));
    }

    fn random_adversary(rng: &mut impl rand::Rng, n: usize, t: usize, k: usize) -> Adversary {
        let values: Vec<u64> = (0..n).map(|_| rng.random_range(0..=k as u64)).collect();
        let mut failures = synchrony::FailurePattern::crash_free(n);
        let mut crashed = 0usize;
        for p in 0..n {
            if crashed < t && rng.random_bool(0.4) {
                let round = rng.random_range(1..=2u32);
                let delivered: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.5)).collect();
                failures.crash(p, round, delivered).unwrap();
                crashed += 1;
            }
        }
        Adversary::new(InputVector::from_values(values), failures).unwrap()
    }

    #[test]
    fn batch_runner_matches_per_protocol_execution() {
        use crate::{EarlyFloodMin, FloodMin, Optmin};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (n, t, k) = (6usize, 4usize, 2usize);
        let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
        let protocols: [&dyn Protocol; 3] = [&Optmin, &EarlyFloodMin, &FloodMin];
        let mut rng = StdRng::seed_from_u64(99);
        let mut runner = BatchRunner::new();
        let mut partial = 0;
        for batch in 0..25 {
            let adversary = random_adversary(&mut rng, n, t, k);
            let before = (runner.analysis_stats(), runner.run_stats());

            // Slots refilled across runs must not change a single decision.
            let (run, batched) = runner.execute_batch(&protocols, &params, &adversary).unwrap();
            let reference_run =
                synchrony::Run::generate(params.system(), adversary.clone(), params.horizon())
                    .unwrap();
            // The rows the batch simulated are the reference rows, and the
            // rest follow on demand.
            assert_eq!(run, &reference_run);
            partial += usize::from(run.frontier() < params.horizon());
            let mut completed = run.clone();
            completed.simulate_through(params.horizon());
            assert_eq!(completed, reference_run);
            for (protocol, transcript) in protocols.iter().zip(batched) {
                let reference = execute_on_run(*protocol, &params, &reference_run).unwrap();
                assert_eq!(transcript, &reference);
            }
            // A re-simulated batch refreshes only time-0 slots: `⟨i, 0⟩`
            // sees only itself, so every later analysis of the new structure
            // is a full recompute.
            let after = runner.analysis_stats();
            assert!(after.misses > before.0.misses);
            if runner.run_stats().simulated > before.1.simulated {
                let time_zero = if batch == 0 { 0 } else { n as u64 };
                assert_eq!(after.hits - before.0.hits, time_zero, "a stale slot was refreshed");
            }
        }
        assert!(partial > 0, "no batch stopped simulating before the horizon");
        assert_eq!(runner.cache().stats().lookups(), 0, "the executor never consults the cache");
    }

    /// Replaying input vectors over a fixed failure pattern must reuse the
    /// communication structure and produce transcripts identical to one-shot
    /// execution.
    #[test]
    fn reused_structures_are_counted_and_invisible() {
        use crate::Optmin;

        let params = TaskParams::new(SystemParams::new(4, 2).unwrap(), 2).unwrap();
        let mut failures = synchrony::FailurePattern::crash_free(4);
        failures.crash(0, 1, [1]).unwrap();
        let inputs = [[0u64, 1, 2, 2], [2, 2, 1, 0], [1, 1, 1, 1], [0, 0, 2, 1]];

        let mut reusing = BatchRunner::new();
        for values in inputs {
            let adversary =
                Adversary::new(InputVector::from_values(values), failures.clone()).unwrap();
            let (_, expected) = execute(&Optmin, &params, adversary.clone()).unwrap();
            let (_, transcript) = reusing.execute_one(&Optmin, &params, &adversary).unwrap();
            assert_eq!(transcript, &expected);
        }
        assert_eq!(
            reusing.run_stats(),
            RunReuseStats { simulated: 1, reused: inputs.len() as u64 - 1 }
        );
        assert!(reusing.run_stats().reuse_rate() > 0.7);
    }

    /// The observed batch loop must visit every active node exactly once, in
    /// time-major order, with decision state that matches the final
    /// transcripts truncated at the observed time.
    #[test]
    fn observed_execution_sees_every_active_node_once_with_live_decisions() {
        use crate::{FloodMin, Optmin};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (n, t, k) = (5usize, 3usize, 2usize);
        let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
        let protocols: [&dyn Protocol; 2] = [&Optmin, &FloodMin];
        let mut rng = StdRng::seed_from_u64(7);
        let mut runner = BatchRunner::new();
        for _ in 0..10 {
            let adversary = random_adversary(&mut rng, n, t, k);
            let mut visited: Vec<Node> = Vec::new();
            let mut live_optmin: Vec<(Node, Option<Time>)> = Vec::new();
            let (run, transcripts) = runner
                .execute_batch_observed(
                    &protocols,
                    &params,
                    &adversary,
                    |run, node, analysis, transcripts| {
                        assert_eq!(analysis.time(), node.time);
                        assert!(run.is_active(node.process, node.time));
                        assert!(run.frontier() >= node.time, "row {} unsimulated", node.time);
                        visited.push(node);
                        live_optmin.push((node, transcripts[0].decision_time(node.process)));
                        Ok(())
                    },
                )
                .unwrap();

            // Exactly the active nodes, each once, time-major.
            let mut expected: Vec<Node> = Vec::new();
            for m in 0..=run.horizon().index() {
                let time = Time::new(m as u32);
                for i in 0..run.n() {
                    if run.is_active(i, time) {
                        expected.push(Node::new(i, time));
                    }
                }
            }
            assert_eq!(visited, expected);
            assert_eq!(run.frontier(), run.horizon(), "an observed batch reaches the horizon");

            // The live decision state equals the final transcript, truncated
            // at the observed node's time.
            for (node, live) in live_optmin {
                let finalized =
                    transcripts[0].decision_time(node.process).filter(|&d| d <= node.time);
                assert_eq!(live, finalized, "live decision state diverged at {node}");
            }

            // And the transcripts equal the plain batch path.
            let reference_run =
                synchrony::Run::generate(params.system(), adversary, params.horizon()).unwrap();
            for (protocol, transcript) in protocols.iter().zip(transcripts) {
                let reference = execute_on_run(*protocol, &params, &reference_run).unwrap();
                assert_eq!(transcript, &reference);
            }
        }
    }

    /// `batch_parts` and `count_violations` must mirror the free check
    /// functions exactly, across reused batches (correct and violating
    /// transcripts alike).
    #[test]
    fn batch_checks_match_free_functions() {
        use crate::{check, FloodMin, Optmin};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (n, t, k) = (5usize, 3usize, 2usize);
        let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
        let protocols: [&dyn Protocol; 2] = [&Optmin, &FloodMin];
        let mut rng = StdRng::seed_from_u64(17);
        let mut runner = BatchRunner::new();
        for _ in 0..10 {
            let adversary = random_adversary(&mut rng, n, t, k);
            runner.execute_batch(&protocols, &params, &adversary).unwrap();
            for variant in [crate::TaskVariant::Nonuniform, crate::TaskVariant::Uniform] {
                let (run, transcripts, checks) = runner.batch_parts();
                let mut expected = 0u64;
                for transcript in transcripts {
                    let reference = check::check(run, transcript, &params, variant);
                    assert_eq!(checks.check(run, transcript, &params, variant), reference);
                    expected += reference.len() as u64;
                }
                assert_eq!(runner.count_violations(&params, variant), expected);
            }
        }
    }

    #[test]
    fn execute_one_reuses_buffers_across_calls() {
        let params = TaskParams::new(SystemParams::new(3, 1).unwrap(), 1).unwrap();
        let mut runner = BatchRunner::new();
        for inputs in [[0u64, 1, 1], [1, 0, 1], [1, 1, 0]] {
            let adversary = Adversary::failure_free(InputVector::from_values(inputs)).unwrap();
            let (run, transcript) =
                runner.execute_one(&crate::Optmin, &params, &adversary).unwrap();
            let (expected_run, expected) = execute(&crate::Optmin, &params, adversary).unwrap();
            assert_eq!(run, &expected_run);
            assert_eq!(transcript, &expected);
        }
        // All three adversaries are failure-free: one simulation, two reuses.
        assert_eq!(runner.run_stats(), RunReuseStats { simulated: 1, reused: 2 });
    }
}

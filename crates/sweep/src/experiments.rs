//! The paper's headline experiments, ported onto the sweep engine.
//!
//! Each function here computes the fold behind one `sweep <query>` table,
//! sharded and work-stealing: the same [`SweepConfig::seed`] produces
//! bit-identical results for every shard and thread count, so
//! `sweep thm1 --threads 16` and `sweep thm1 --threads 1` print the same
//! tables.  Formatting lives in `bench_harness::report`; this module only
//! produces the data.
//!
//! Every sharded experiment is defined once, as a [`Query`] descriptor:
//! [`Thm1Query`] (over the crash or the send-omission pattern space),
//! [`Thm3Query`] and [`Fig4Query`].  The in-process fold ([`fold_cases`]),
//! the service daemon's shard scheduler and its remote workers all read
//! that one definition.  Proposition 2 mixes sweeps with global
//! protocol-complex builds and stays a plain function ([`prop2`]).

use std::collections::{BTreeMap, BTreeSet};

use adversary::enumerate::{self, AdversarySpace, EnumerationConfig};
use adversary::{scenarios, OmissionConfig, PatternModel, RandomConfig};
use knowledge::ViewAnalysis;
use set_consensus::{
    BatchRunner, EarlyFloodMin, EarlyUniformFloodMin, FloodMin, Optmin, Protocol, TaskParams,
    TaskVariant, Transcript, UPmin,
};
use synchrony::{
    Adversary, FailurePattern, InputVector, ModelError, Node, Run, SystemParams, Time,
};
use topology::{homology, ProtocolComplex};

use crate::engine::{sweep_with_stats, Reducer, Scenario, ScenarioSource, SweepConfig, SweepStats};
use crate::source::{ExhaustiveSource, FixedSource, RandomSource};

/// Latest decision time among the correct processes of a run (`0` if no
/// correct process decided), matching `bench_harness::summarize().latest`.
fn latest_correct_decision(run: &Run, transcript: &Transcript) -> u32 {
    (0..run.n())
        .filter(|&i| run.is_correct(i))
        .filter_map(|i| transcript.decision_time(i).map(Time::value))
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Query descriptors.
// ---------------------------------------------------------------------------

/// An explicit exhaustive scope — the fields of [`EnumerationConfig`] plus
/// the agreement degree — naming a custom Theorem 1 case.  The omission
/// model reads `max_crash_round` as its round horizon and ignores
/// `partial_delivery`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopeSpec {
    /// Number of processes.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Agreement degree.
    pub k: usize,
    /// Largest initial value.
    pub max_value: u64,
    /// Latest round in which a crash may occur.
    pub max_crash_round: u32,
    /// Whether crashing processes may deliver to arbitrary subsets.
    pub partial_delivery: bool,
}

impl ScopeSpec {
    /// The built-in scope of an `(n, t, k)` case: values `0..=k`, a
    /// two-round horizon, and partial crash delivery up to four processes.
    pub fn builtin(n: usize, t: usize, k: usize) -> Self {
        ScopeSpec { n, t, k, max_value: k as u64, max_crash_round: 2, partial_delivery: n <= 4 }
    }

    /// The crash-model enumeration this scope names.
    pub fn to_crash(&self) -> EnumerationConfig {
        let ScopeSpec { n, t, max_value, max_crash_round, partial_delivery, .. } = *self;
        EnumerationConfig { n, t, max_value, max_crash_round, partial_delivery }
    }

    /// The send-omission enumeration this scope names.
    pub fn to_omission(&self) -> OmissionConfig {
        let ScopeSpec { n, t, max_value, max_crash_round: rounds, .. } = *self;
        OmissionConfig { n, t, max_value, rounds }
    }
}

/// The accumulator type of a query's reducer.
pub type QueryAcc<Q> = <<Q as Query>::Reducer as Reducer>::Acc;

/// The per-scenario job of a query, as a plain function pointer (shard
/// schedulers capture it without boxing).
pub type JobFn<Q> =
    fn(&mut BatchRunner, &Scenario) -> Result<<<Q as Query>::Reducer as Reducer>::Item, ModelError>;

/// One sharded experiment, defined once: its cases, the source, reducer
/// and job of a case, the cache-fingerprint fields and the row builder —
/// read by [`fold_cases`], the service daemon and its remote workers alike.
/// The fingerprint fields ([`Query::name`], [`Query::model`],
/// [`Query::scope_string`], [`Query::PROTOCOLS`]) key persisted shard
/// caches: changing their bytes orphans every stored accumulator.
pub trait Query: Copy + Send + Sync + 'static {
    /// One sub-sweep of the query.
    type Case;
    /// The scenario source of a case.
    type Source: ScenarioSource + Send + Sync + 'static;
    /// The reducer folding the job outcomes of a case.
    type Reducer: Reducer + Default + Send + Sync + 'static;
    /// One table row.
    type Row;

    /// The protocol set the job folds, in batch order.
    const PROTOCOLS: &'static str;
    /// Whether the sources draw from the job seed; unseeded queries are
    /// fingerprinted and leased with seed 0.
    const SEEDED: bool = false;
    /// The per-scenario job.
    const JOB: JobFn<Self>;

    /// The query name: the wire name and the fingerprint `query` field.
    fn name(self) -> &'static str;

    /// The pattern space the query folds over.
    fn model(self) -> PatternModel {
        PatternModel::Crash
    }

    /// The built-in cases, in table order.
    fn cases(self) -> Vec<Self::Case>;

    /// The case an explicit scope names (`None`: built-in cases only).
    fn scoped_case(self, _scope: &ScopeSpec) -> Option<Self::Case> {
        None
    }

    /// The scope a shard lease ships for `case` (`None`: workers look the
    /// case up by its index in [`Query::cases`]).
    fn case_scope(self, _case: &Self::Case) -> Option<ScopeSpec> {
        None
    }

    /// The canonical fingerprint scope string of a case.
    fn scope_string(self, case: &Self::Case) -> String;

    /// Builds the scenario source of a case, rejecting invalid parameters
    /// and oversized scopes.
    fn source(self, case: &Self::Case, seed: u64) -> Result<Self::Source, ModelError>;

    /// The table rows of one folded case.
    fn rows(
        self,
        case: &Self::Case,
        source: &Self::Source,
        acc: &QueryAcc<Self>,
    ) -> Result<Vec<Self::Row>, ModelError>;

    /// The cases of a job: the built-in ones, or the one its scope names
    /// (an error on a query without scoped cases).
    fn job_cases(self, scope: Option<&ScopeSpec>) -> Result<Vec<Self::Case>, ModelError> {
        let Some(scope) = scope else { return Ok(self.cases()) };
        let case = self.scoped_case(scope).ok_or_else(|| ModelError::InvalidTaskParameter {
            reason: "custom scopes are only supported for thm1 and omission jobs".into(),
        })?;
        Ok(vec![case])
    }

    /// The case a shard lease names: its scope, or else its built-in index.
    /// A case leased with a scope must arrive with one; a lease naming no
    /// case of the query is an error.
    fn task_case(self, index: usize, scope: Option<&ScopeSpec>) -> Result<Self::Case, ModelError> {
        let case = match scope {
            Some(scope) => self.scoped_case(scope),
            None => self.cases().into_iter().nth(index).filter(|c| self.case_scope(c).is_none()),
        };
        case.ok_or_else(|| ModelError::InvalidTaskParameter {
            reason: format!("{} lease names no case (case {index}, scope {scope:?})", self.name()),
        })
    }
}

/// Folds every built-in case of `query` in process and returns the table
/// rows, plus the execution statistics summed over the per-case sweeps.
///
/// # Errors
///
/// Propagates source-construction and executor errors.
pub fn fold_cases<Q: Query>(
    query: Q,
    config: &SweepConfig,
) -> Result<(Vec<Q::Row>, SweepStats), ModelError> {
    let mut rows = Vec::new();
    let mut stats = SweepStats::default();
    for case in query.cases() {
        let source = query.source(&case, config.seed)?;
        let (acc, case_stats) = sweep_with_stats(&source, config, &Q::Reducer::default(), Q::JOB)?;
        stats.merge(case_stats);
        rows.extend(query.rows(&case, &source, &acc)?);
    }
    Ok((rows, stats))
}

// ---------------------------------------------------------------------------
// Theorem 1 (experiment E7): exhaustive unbeatability spot-checks.
// ---------------------------------------------------------------------------

/// One `(n, t, k)` row of the Theorem 1 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thm1Case {
    /// Number of processes.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Agreement degree.
    pub k: usize,
    /// Size of the exhaustive adversary scope.
    pub adversaries: u128,
    /// Correctness violations summed over every protocol and adversary.
    pub correctness_violations: u64,
    /// Number of competitors with a run in which some process decides
    /// strictly earlier than under `Optmin[k]` (i.e. that are not weakly
    /// dominated — Theorem 1 predicts zero).
    pub beaten_by: usize,
    /// Nodes violating the Lemma 3 decide-exactly-when-enabled structure.
    pub structure_violations: u64,
}

/// Per-scenario (and, folded, per-shard) accumulator of the Theorem 1
/// sweep — public so external schedulers (the `service` daemon's
/// shard-accumulator cache) can store and replay it per shard.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Thm1Outcome {
    /// Correctness violations summed over every protocol.
    pub violations: u64,
    /// Whether each competitor (EarlyFloodMin, FloodMin) beat `Optmin[k]`
    /// in some folded run.
    pub beaten: [bool; 2],
    /// Lemma-3 decide-exactly-when-enabled violations.
    pub structure: u64,
}

/// The [`Reducer`] of the Theorem 1 sweep (saturating flags, summed
/// counters — trivially concatenation-compatible).
#[derive(Debug, Clone, Copy, Default)]
pub struct Thm1Reducer;

impl Reducer for Thm1Reducer {
    type Item = Thm1Outcome;
    type Acc = Thm1Outcome;

    fn empty(&self) -> Thm1Outcome {
        Thm1Outcome::default()
    }

    fn fold(&self, acc: &mut Thm1Outcome, item: Thm1Outcome) {
        acc.violations += item.violations;
        acc.beaten[0] |= item.beaten[0];
        acc.beaten[1] |= item.beaten[1];
        acc.structure += item.structure;
    }

    fn merge(&self, mut left: Thm1Outcome, right: Thm1Outcome) -> Thm1Outcome {
        self.fold(&mut left, right);
        left
    }
}

/// Sweeps the exhaustive small-system scopes of experiment E7 and returns
/// one row per `(n, t, k)` case.
///
/// Equivalent to [`thm1_with_stats`] with the statistics discarded.
///
/// # Errors
///
/// Propagates model errors from the executor (none occur for the built-in
/// scopes).
pub fn thm1(config: &SweepConfig) -> Result<Vec<Thm1Case>, ModelError> {
    thm1_with_stats(config).map(|(rows, _)| rows)
}

/// The `(n, t, k)` cases of the built-in Theorem 1 experiment, in table
/// order.
pub const THM1_CASES: [(usize, usize, usize); 4] = [(3, 1, 1), (4, 2, 1), (4, 2, 2), (5, 2, 2)];

/// The exhaustive enumeration scope of one Theorem 1 case — the scope the
/// built-in cases use, parameterized so the service daemon can serve the
/// same query over custom `(n, t, k)` scopes.
pub fn thm1_scope(n: usize, t: usize, k: usize) -> EnumerationConfig {
    ScopeSpec::builtin(n, t, k).to_crash()
}

/// Builds the exhaustive [`ExhaustiveSource`] of a Theorem 1 case over an
/// arbitrary scope.
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters and oversized scopes.
pub fn thm1_source(scope: EnumerationConfig, k: usize) -> Result<ExhaustiveSource, ModelError> {
    let space = AdversarySpace::new(scope)?;
    let params = TaskParams::new(SystemParams::new(scope.n, scope.t)?, k)?;
    ExhaustiveSource::new(space, params, TaskVariant::Nonuniform)
}

/// The per-scenario job of the Theorem 1 sweep: execute `Optmin[k]` and
/// its competitors against the scenario's adversary and fold correctness,
/// domination and Lemma-3 structure into a [`Thm1Outcome`].
///
/// A plain `fn` (not a closure) so shard schedulers outside this crate —
/// the service daemon's worker pool — can enqueue it without boxing.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn thm1_job(
    runner: &mut set_consensus::BatchRunner,
    scenario: &Scenario,
) -> Result<Thm1Outcome, ModelError> {
    let protocols: [&dyn Protocol; 3] = [&Optmin, &EarlyFloodMin, &FloodMin];
    let mut outcome = Thm1Outcome::default();
    let case_k = scenario.params.k();
    // (3) Lemma-3 structure: Optmin[k] decides exactly when low-or-HC<k
    // first holds.  Checked *inside* the executor's decision loop via the
    // per-node observer — transcripts[0] (Optmin) reflects every decision
    // up to the observed node, and each node is analyzed exactly once per
    // run instead of in a second full pass.
    runner.execute_batch_observed(
        &protocols,
        &scenario.params,
        &scenario.adversary,
        |_, node, analysis, transcripts| {
            let enabled = analysis.is_low(case_k) || analysis.hidden_capacity() < case_k;
            let decided_by_now =
                transcripts[0].decision_time(node.process).is_some_and(|d| d <= node.time);
            if enabled != decided_by_now {
                outcome.structure += 1;
            }
            Ok(())
        },
    )?;

    // (1) correctness of every implemented nonuniform protocol, through
    // the runner's check scratch (no per-scenario allocations — this check
    // runs three times per adversary).
    let (run, transcripts, checks) = runner.batch_parts();
    for transcript in transcripts {
        outcome.violations +=
            checks.check(run, transcript, &scenario.params, TaskVariant::Nonuniform).len() as u64;
    }

    // (2) a competitor "beats" Optmin[k] if any process decides strictly
    // earlier under it in this run (the second-improvement condition of
    // the domination comparison).
    let optmin = &transcripts[0];
    for (slot, competitor) in transcripts[1..].iter().enumerate() {
        for i in 0..run.n() {
            let improves = match (optmin.decision_time(i), competitor.decision_time(i)) {
                (Some(a), Some(b)) => b < a,
                (None, Some(_)) => true,
                _ => false,
            };
            if improves {
                outcome.beaten[slot] = true;
            }
        }
    }

    Ok(outcome)
}

/// Assembles the [`Thm1Case`] row of one swept scope from its folded
/// accumulator.
pub fn thm1_case_row(
    scope: &EnumerationConfig,
    k: usize,
    adversaries: u128,
    acc: Thm1Outcome,
) -> Thm1Case {
    Thm1Case {
        n: scope.n,
        t: scope.t,
        k,
        adversaries,
        correctness_violations: acc.violations,
        beaten_by: acc.beaten.iter().filter(|&&b| b).count(),
        structure_violations: acc.structure,
    }
}

/// [`thm1`], plus the execution statistics summed over the per-case sweeps.
///
/// This experiment is the headline scope of the sweep-performance work:
///
/// * every per-node analysis — including the Lemma-3 structure check, which
///   runs *inside* the executor's decision loop via the per-node observer,
///   analyzing each node exactly once per run — goes through each worker's
///   view-keyed cache, so `stats.cache.constructions()` is the number of
///   full `ViewAnalysis` constructions the whole experiment performed;
/// * the exhaustive scopes are swept pattern-major, so `stats.runs` shows
///   one communication-structure simulation per failure pattern with every
///   other input vector reusing it.
///
/// # Errors
///
/// Propagates model errors from the executor (none occur for the built-in
/// scopes).
pub fn thm1_with_stats(config: &SweepConfig) -> Result<(Vec<Thm1Case>, SweepStats), ModelError> {
    fold_cases(Thm1Query::CRASH, config)
}

// ---------------------------------------------------------------------------
// Omission scan: the Theorem 1 fold re-run over the send-omission space.
// ---------------------------------------------------------------------------

/// The `(n, t, k)` cases of the built-in omission scan, in table order.
///
/// The scopes are smaller than [`THM1_CASES`]: the mobile-omission space
/// grows as `(Σ C(n,f)·(2^(n-1)-1)^f)^rounds`, so two rounds of `(4, 2)`
/// already exceed a hundred million patterns.
pub const OMISSION_CASES: [(usize, usize, usize); 2] = [(3, 1, 1), (4, 1, 1)];

/// The exhaustive send-omission scope of one omission-scan case,
/// mirroring [`thm1_scope`]'s two-round horizon.
pub fn omission_scope(n: usize, t: usize, k: usize) -> OmissionConfig {
    ScopeSpec::builtin(n, t, k).to_omission()
}

/// Builds the exhaustive [`ExhaustiveSource`] of an omission-scan case
/// over an arbitrary omission scope.
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters and oversized scopes.
pub fn omission_source(scope: OmissionConfig, k: usize) -> Result<ExhaustiveSource, ModelError> {
    let space = AdversarySpace::omission(scope)?;
    let params = TaskParams::new(SystemParams::new(scope.n, scope.t)?, k)?;
    ExhaustiveSource::new(space, params, TaskVariant::Nonuniform)
}

/// Assembles the [`Thm1Case`] row of one swept omission scope from its
/// folded accumulator (the omission twin of [`thm1_case_row`]).
pub fn omission_case_row(
    scope: &OmissionConfig,
    k: usize,
    adversaries: u128,
    acc: Thm1Outcome,
) -> Thm1Case {
    thm1_case_row(&thm1_scope(scope.n, scope.t, k), k, adversaries, acc)
}

/// Sweeps the exhaustive send-omission scopes of [`OMISSION_CASES`] and
/// returns one row per `(n, t, k)` case.
///
/// Equivalent to [`omission_with_stats`] with the statistics discarded.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn omission(config: &SweepConfig) -> Result<Vec<Thm1Case>, ModelError> {
    omission_with_stats(config).map(|(rows, _)| rows)
}

/// [`omission`], plus the execution statistics summed over the per-case
/// sweeps.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn omission_with_stats(
    config: &SweepConfig,
) -> Result<(Vec<Thm1Case>, SweepStats), ModelError> {
    fold_cases(Thm1Query::OMISSION, config)
}

/// The Theorem 1 query over one pattern space: `thm1` over crashes,
/// `omission` over mobile send omissions.  The job ([`thm1_job`]), reducer
/// and row shape are shared; the model picks the cases, the source and the
/// fingerprint scope string.  The omission scan measures how the
/// crash-model claims fare when faulty senders stay alive and drop
/// messages instead, so its columns other than the adversary count are
/// *observations*, not theorems: the paper proves unbeatability in the
/// crash model only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thm1Query {
    /// The pattern space folded.
    pub model: PatternModel,
}

impl Thm1Query {
    /// The crash-model query (`thm1`).
    pub const CRASH: Thm1Query = Thm1Query { model: PatternModel::Crash };
    /// The send-omission query (`omission`).
    pub const OMISSION: Thm1Query = Thm1Query { model: PatternModel::Omission };
}

impl Query for Thm1Query {
    type Case = ScopeSpec;
    type Source = ExhaustiveSource;
    type Reducer = Thm1Reducer;
    type Row = Thm1Case;

    const PROTOCOLS: &'static str = "optmin,earlyfloodmin,floodmin";
    const JOB: JobFn<Self> = thm1_job;

    fn name(self) -> &'static str {
        match self.model {
            PatternModel::Crash => "thm1",
            PatternModel::Omission => "omission",
        }
    }

    fn model(self) -> PatternModel {
        self.model
    }

    fn cases(self) -> Vec<ScopeSpec> {
        let cases = match self.model {
            PatternModel::Crash => &THM1_CASES[..],
            PatternModel::Omission => &OMISSION_CASES[..],
        };
        cases
            .iter()
            .filter_map(|&(n, t, k)| self.scoped_case(&ScopeSpec::builtin(n, t, k)))
            .collect()
    }

    fn scoped_case(self, scope: &ScopeSpec) -> Option<ScopeSpec> {
        // The omission space has no delivery choice to make.
        let omission = self.model == PatternModel::Omission;
        Some(ScopeSpec { partial_delivery: scope.partial_delivery && !omission, ..*scope })
    }

    fn case_scope(self, case: &ScopeSpec) -> Option<ScopeSpec> {
        Some(*case)
    }

    fn scope_string(self, case: &ScopeSpec) -> String {
        let ScopeSpec { n, t, k, max_value, max_crash_round, partial_delivery } = *case;
        match self.model {
            PatternModel::Crash => format!(
                "n={n},t={t},k={k},maxv={max_value},mcr={max_crash_round},pd={partial_delivery}"
            ),
            PatternModel::Omission => {
                format!("n={n},t={t},k={k},maxv={max_value},rounds={max_crash_round}")
            }
        }
    }

    fn source(self, case: &ScopeSpec, _seed: u64) -> Result<ExhaustiveSource, ModelError> {
        match self.model {
            PatternModel::Crash => thm1_source(case.to_crash(), case.k),
            PatternModel::Omission => omission_source(case.to_omission(), case.k),
        }
    }

    fn rows(
        self,
        case: &ScopeSpec,
        source: &ExhaustiveSource,
        acc: &Thm1Outcome,
    ) -> Result<Vec<Thm1Case>, ModelError> {
        Ok(vec![thm1_case_row(&case.to_crash(), case.k, source.space().len(), *acc)])
    }
}

// ---------------------------------------------------------------------------
// Theorem 3 (experiment E6): u-Pmin[k] decision times vs the uniform bound.
// ---------------------------------------------------------------------------

/// One `(n, t, k, f)` row of the Theorem 3 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thm3Row {
    /// Number of processes.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Agreement degree.
    pub k: usize,
    /// Number of failures actually realized in the runs of this row.
    pub f: usize,
    /// Number of sampled runs with exactly `f` failures.
    pub runs: u64,
    /// Worst (latest) correct decision time observed among them.
    pub worst: u32,
    /// The Theorem 3 bound `min{⌊t/k⌋ + 1, ⌊f/k⌋ + 2}`.
    pub bound: u32,
    /// Uniform-variant check violations over the whole `(n, t, k)` sample
    /// (Theorem 3 predicts zero; repeated on each row like the original
    /// binary).
    pub violations: u64,
}

/// Per-shard accumulator of the Theorem 3 sweep: worst decision time and
/// run count per realized failure count, plus the uniform-check violation
/// sum.  Public (and clonable) so the service daemon can cache it per
/// shard.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Thm3Acc {
    /// `f → (worst decision time, runs)` over the folded scenarios.
    pub per_f: BTreeMap<usize, (u32, u64)>,
    /// Uniform-variant check violations summed over the folded scenarios.
    pub violations: u64,
}

/// The [`Reducer`] of the Theorem 3 sweep (keyed maxima and sums — both
/// concatenation-compatible).
#[derive(Debug, Clone, Copy, Default)]
pub struct Thm3Reducer;

impl Reducer for Thm3Reducer {
    /// `(f, latest, violations)` per run.
    type Item = (usize, u32, u64);
    type Acc = Thm3Acc;

    fn empty(&self) -> Thm3Acc {
        Thm3Acc::default()
    }

    fn fold(&self, acc: &mut Thm3Acc, (f, latest, violations): Self::Item) {
        let entry = acc.per_f.entry(f).or_insert((0, 0));
        entry.0 = entry.0.max(latest);
        entry.1 += 1;
        acc.violations += violations;
    }

    fn merge(&self, mut left: Thm3Acc, right: Thm3Acc) -> Thm3Acc {
        for (f, (worst, runs)) in right.per_f {
            let entry = left.per_f.entry(f).or_insert((0, 0));
            entry.0 = entry.0.max(worst);
            entry.1 += runs;
        }
        left.violations += right.violations;
        left
    }
}

/// Number of random adversaries sampled per `(n, t, k)` case of the
/// Theorem 3 experiment.
pub const THM3_SAMPLES: usize = 400;

/// The `(n, t, k)` cases of the built-in Theorem 3 experiment, in table
/// order.
pub const THM3_CASES: [(usize, usize, usize); 3] = [(8, 5, 2), (10, 6, 3), (12, 9, 4)];

/// Builds the seeded random scenario source of one Theorem 3 case.
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters.
pub fn thm3_source(n: usize, t: usize, k: usize, seed: u64) -> Result<RandomSource, ModelError> {
    let params = TaskParams::new(SystemParams::new(n, t)?, k)?;
    let distribution = RandomConfig { crash_probability: 0.7, ..RandomConfig::new(n, t, k) };
    Ok(RandomSource::new(distribution, params, TaskVariant::Uniform, seed, THM3_SAMPLES))
}

/// The per-scenario job of the Theorem 3 sweep: run `u-Pmin[k]`, check the
/// uniform variant, and report `(f, latest decision, violations)`.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn thm3_job(
    runner: &mut set_consensus::BatchRunner,
    scenario: &Scenario,
) -> Result<(usize, u32, u64), ModelError> {
    runner.execute_one(&UPmin, &scenario.params, &scenario.adversary)?;
    let (run, transcripts, checks) = runner.batch_parts();
    let transcript = &transcripts[0];
    let violations =
        checks.check(run, transcript, &scenario.params, TaskVariant::Uniform).len() as u64;
    Ok((run.num_failures(), latest_correct_decision(run, transcript), violations))
}

/// Expands the folded accumulator of one Theorem 3 case into its table
/// rows.
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters.
pub fn thm3_rows(n: usize, t: usize, k: usize, acc: &Thm3Acc) -> Result<Vec<Thm3Row>, ModelError> {
    let params = TaskParams::new(SystemParams::new(n, t)?, k)?;
    Ok(acc
        .per_f
        .iter()
        .map(|(&f, &(worst, runs))| Thm3Row {
            n,
            t,
            k,
            f,
            runs,
            worst,
            bound: params.uniform_early_bound(f).value(),
            violations: acc.violations,
        })
        .collect())
}

/// Sweeps seeded random adversaries under `u-Pmin[k]` and reports, per
/// realized failure count `f`, the worst decision time against the
/// Theorem 3 bound.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn thm3(config: &SweepConfig) -> Result<Vec<Thm3Row>, ModelError> {
    fold_cases(Thm3Query, config).map(|(rows, _)| rows)
}

/// The Theorem 3 query: one seeded random case per [`THM3_CASES`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thm3Query;

impl Query for Thm3Query {
    type Case = (usize, usize, usize);
    type Source = RandomSource;
    type Reducer = Thm3Reducer;
    type Row = Thm3Row;

    const PROTOCOLS: &'static str = "upmin";
    const SEEDED: bool = true;
    const JOB: JobFn<Self> = thm3_job;

    fn name(self) -> &'static str {
        "thm3"
    }

    fn cases(self) -> Vec<(usize, usize, usize)> {
        THM3_CASES.to_vec()
    }

    fn scope_string(self, &(n, t, k): &(usize, usize, usize)) -> String {
        format!("n={n},t={t},k={k},samples={THM3_SAMPLES}")
    }

    fn source(
        self,
        &(n, t, k): &(usize, usize, usize),
        seed: u64,
    ) -> Result<RandomSource, ModelError> {
        thm3_source(n, t, k, seed)
    }

    fn rows(
        self,
        &(n, t, k): &(usize, usize, usize),
        _: &RandomSource,
        acc: &Thm3Acc,
    ) -> Result<Vec<Thm3Row>, ModelError> {
        thm3_rows(n, t, k, acc)
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 (experiment E4): the unbounded uniform gap.
// ---------------------------------------------------------------------------

/// One `(k, rounds)` row of the Fig. 4 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig4Row {
    /// Agreement degree.
    pub k: usize,
    /// Failure bound `t = k · rounds`.
    pub t: usize,
    /// Number of processes.
    pub n: usize,
    /// The failure-counting bound `⌊t/k⌋ + 1`.
    pub bound: usize,
    /// Latest correct decision time per protocol, in the order `u-Pmin[k]`,
    /// `Optmin[k]`, `EarlyUniformFloodMin`, `FloodMin` (the column order of
    /// `bench_harness::report::fig4_table`).
    pub latest: [u32; 4],
    /// Uniform-variant check violations summed over the four protocols.
    pub violations: u64,
}

/// Per-shard accumulator of the Fig. 4 sweep: scenario index → (latest
/// decision time per protocol, violations).  Public so the service daemon
/// can cache it per shard.
pub type Fig4Acc = BTreeMap<usize, ([u32; 4], u64)>;

/// The [`Reducer`] of the Fig. 4 sweep (a keyed first-writer map — each
/// scenario index is written exactly once, so extension order is
/// irrelevant).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig4Reducer;

impl Reducer for Fig4Reducer {
    /// `(scenario index, latest per protocol, violations)`.
    type Item = (usize, [u32; 4], u64);
    type Acc = Fig4Acc;

    fn empty(&self) -> Self::Acc {
        BTreeMap::new()
    }

    fn fold(&self, acc: &mut Self::Acc, (index, latest, violations): Self::Item) {
        acc.insert(index, (latest, violations));
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        left.extend(right);
        left
    }
}

/// The `(k, t, n)` shape of one Fig. 4 family point.
pub type Fig4Shape = (usize, usize, usize);

/// Builds the Fig. 4 uniform-gap scenario family as a [`FixedSource`],
/// together with the `(k, t, n)` shape of each point (needed to assemble
/// the rows after the fold).
///
/// # Errors
///
/// Propagates scenario-construction errors.
pub fn fig4_source() -> Result<(FixedSource, Vec<Fig4Shape>), ModelError> {
    let mut points = Vec::new();
    let mut shapes = Vec::new();
    for k in [1usize, 2, 3, 5] {
        for rounds in [2usize, 4, 8, 16] {
            let scenario = scenarios::uniform_gap(k, rounds, 3)?;
            let n = scenario.adversary.n();
            let t = scenario.t;
            let params = TaskParams::new(SystemParams::new(n, t)?, k)?;
            shapes.push((k, t, n));
            points.push(Scenario {
                index: points.len(),
                params,
                variant: TaskVariant::Uniform,
                adversary: scenario.adversary,
            });
        }
    }
    Ok((FixedSource::new(points), shapes))
}

/// The per-scenario job of the Fig. 4 sweep: run all four uniform-capable
/// protocols on the point and report their latest correct decision times.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn fig4_job(
    runner: &mut set_consensus::BatchRunner,
    scenario: &Scenario,
) -> Result<(usize, [u32; 4], u64), ModelError> {
    let protocols: [&dyn Protocol; 4] = [&UPmin, &Optmin, &EarlyUniformFloodMin, &FloodMin];
    runner.execute_batch(&protocols, &scenario.params, &scenario.adversary)?;
    let (run, transcripts, checks) = runner.batch_parts();
    let mut latest = [0u32; 4];
    let mut violations = 0u64;
    for (slot, transcript) in transcripts.iter().enumerate() {
        latest[slot] = latest_correct_decision(run, transcript);
        violations +=
            checks.check(run, transcript, &scenario.params, TaskVariant::Uniform).len() as u64;
    }
    Ok((scenario.index, latest, violations))
}

/// Assembles the Fig. 4 rows from the point shapes and the folded
/// accumulator.
pub fn fig4_rows(shapes: &[(usize, usize, usize)], acc: &Fig4Acc) -> Vec<Fig4Row> {
    shapes
        .iter()
        .enumerate()
        .map(|(index, &(k, t, n))| {
            let (latest, violations) = acc[&index];
            Fig4Row { k, t, n, bound: t / k + 1, latest, violations }
        })
        .collect()
}

/// Sweeps the Fig. 4 uniform-gap family over `k × rounds` and reports the
/// latest correct decision time of each protocol.
///
/// # Errors
///
/// Propagates scenario-construction and executor errors.
pub fn fig4(config: &SweepConfig) -> Result<Vec<Fig4Row>, ModelError> {
    fold_cases(Fig4Query, config).map(|(rows, _)| rows)
}

/// The Fig. 4 query: one case, the whole uniform-gap family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig4Query;

impl Query for Fig4Query {
    type Case = ();
    type Source = FixedSource;
    type Reducer = Fig4Reducer;
    type Row = Fig4Row;

    const PROTOCOLS: &'static str = "upmin,optmin,earlyuniformfloodmin,floodmin";
    const JOB: JobFn<Self> = fig4_job;

    fn name(self) -> &'static str {
        "fig4"
    }

    fn cases(self) -> Vec<()> {
        vec![()]
    }

    fn scope_string(self, _: &()) -> String {
        "uniform-gap builtin k*rounds".into()
    }

    fn source(self, _: &(), _seed: u64) -> Result<FixedSource, ModelError> {
        fig4_source().map(|(source, _)| source)
    }

    fn rows(self, _: &(), _: &FixedSource, acc: &Fig4Acc) -> Result<Vec<Fig4Row>, ModelError> {
        let (_, shapes) = fig4_source()?;
        Ok(fig4_rows(&shapes, acc))
    }
}

// ---------------------------------------------------------------------------
// Proposition 2 (experiment E9): hidden capacity and star connectivity.
// ---------------------------------------------------------------------------

/// One `(n, t)` row of the exhaustive `k = 1` connectivity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prop2ExhaustiveRow {
    /// Number of processes.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Number of states of the one-round protocol complex.
    pub states: usize,
    /// States with hidden capacity at least 1.
    pub with_capacity: usize,
    /// Among those, states whose star complex is connected.
    pub connected: usize,
    /// Counterexamples (Proposition 2 predicts zero).
    pub counterexamples: usize,
}

/// The targeted `k = 2` star analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prop2Targeted {
    /// Hidden capacity of the observer in the reference run.
    pub hidden_capacity: usize,
    /// Number of executions indistinguishable to the observer.
    pub executions: usize,
    /// States of the star complex.
    pub star_states: usize,
    /// Facets of the star complex.
    pub star_facets: usize,
    /// Reduced Betti numbers of the star.
    pub star_betti: Vec<usize>,
    /// Whether the star is `(k − 1)`-connected.
    pub star_connected: bool,
    /// Reduced Betti numbers of the observer's link.
    pub link_betti: Vec<usize>,
    /// Whether the link is `(k − 2)`-connected.
    pub link_connected: bool,
}

/// The full Proposition 2 report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prop2Report {
    /// The exhaustive `k = 1` rows.
    pub exhaustive: Vec<Prop2ExhaustiveRow>,
    /// The targeted `k = 2` analysis.
    pub targeted: Prop2Targeted,
}

struct Prop2Reducer;

impl Reducer for Prop2Reducer {
    /// State ids with hidden capacity ≥ 1 met in one run.
    type Item = Vec<usize>;
    /// The deduplicated set of those state ids.
    type Acc = BTreeSet<usize>;

    fn empty(&self) -> Self::Acc {
        BTreeSet::new()
    }

    fn fold(&self, acc: &mut Self::Acc, item: Self::Item) {
        acc.extend(item);
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        left.extend(right);
        left
    }
}

/// Runs the Proposition 2 experiment in two phases: the protocol-complex
/// build stays sequential (it is a global structure), the per-run knowledge
/// analyses that discover hidden-capacity states are swept in parallel
/// (reusing each worker's run buffer), and the expensive star-connectivity
/// check then runs exactly **once per unique state** — the sweep
/// deduplicates first, unlike a per-run check, which would recompute the
/// homology for every adversary that revisits a state.
///
/// # Errors
///
/// Propagates model errors from enumeration or the complex build.
pub fn prop2(config: &SweepConfig) -> Result<Prop2Report, ModelError> {
    prop2_with_stats(config).map(|(report, _)| report)
}

/// [`prop2`], plus the execution statistics of the exhaustive per-run
/// sweeps (the protocol-complex build and the homology checks are not
/// sweeps and contribute nothing).
///
/// # Errors
///
/// Propagates model errors from enumeration or the complex build.
pub fn prop2_with_stats(config: &SweepConfig) -> Result<(Prop2Report, SweepStats), ModelError> {
    let mut stats = SweepStats::default();
    let mut exhaustive = Vec::new();
    for (n, t) in [(3usize, 1usize), (4, 2)] {
        let scope =
            EnumerationConfig { n, t, max_value: 1, max_crash_round: 1, partial_delivery: true };
        let adversaries = enumerate::adversaries(&scope)?;
        let system = SystemParams::new(n, t)?;
        let time = Time::new(1);
        let complex = ProtocolComplex::build(system, &adversaries, time)?;

        let params = TaskParams::new(system, 1)?;
        let space = AdversarySpace::new(scope)?;
        let source = ExhaustiveSource::new(space, params, TaskVariant::Nonuniform)?;
        let complex_ref = &complex;
        let (with_capacity, sweep_stats) =
            sweep_with_stats(&source, config, &Prop2Reducer, move |runner, scenario| {
                let analyzer = runner.cache().clone();
                let run = runner.simulate(system, &scenario.adversary, time)?;
                let mut found = Vec::new();
                for i in 0..n {
                    if !run.is_active(i, time) {
                        continue;
                    }
                    let Some(id) = complex_ref.state_id(run, Node::new(i, time)) else {
                        continue;
                    };
                    let analysis = analyzer.analyze(run, Node::new(i, time))?;
                    if analysis.hidden_capacity() >= 1 {
                        found.push(id);
                    }
                }
                Ok(found)
            })?;
        stats.merge(sweep_stats);

        let connected =
            with_capacity.iter().filter(|&&id| complex.star_is_q_connected(id, 0)).count();
        exhaustive.push(Prop2ExhaustiveRow {
            n,
            t,
            states: complex.num_states(),
            with_capacity: with_capacity.len(),
            connected,
            counterexamples: with_capacity.len() - connected,
        });
    }
    Ok((Prop2Report { exhaustive, targeted: prop2_targeted()? }, stats))
}

/// The targeted `k = 2` analysis of experiment E9b, unchanged from the
/// original binary (a single star; nothing to shard).
fn prop2_targeted() -> Result<Prop2Targeted, ModelError> {
    let k = 2usize;
    let n = 5usize;
    let t = 2usize;
    let system = SystemParams::new(n, t)?;
    let time = Time::new(1);
    let observer = 4usize;

    // The reference run: processes 0 and 1 crash silently in round 1, so the
    // observer's hidden capacity at time 1 is exactly 2.
    let mut reference_failures = FailurePattern::crash_free(n);
    reference_failures.crash_silent(0, 1)?;
    reference_failures.crash_silent(1, 1)?;
    let reference =
        Adversary::new(InputVector::from_values([2u64, 2, 2, 2, 2]), reference_failures)?;
    let reference_run = Run::generate(system, reference, time)?;
    let analysis = ViewAnalysis::new(&reference_run, Node::new(observer, time))?;

    // Every execution indistinguishable to the observer: the two missing
    // processes crashed in round 1 with arbitrary values and arbitrary
    // deliveries not reaching the observer.
    let mut consistent = Vec::new();
    for v0 in 0..=k as u64 {
        for v1 in 0..=k as u64 {
            let inputs = InputVector::from_values([v0, v1, 2, 2, 2]);
            for mask0 in 0u32..8 {
                for mask1 in 0u32..8 {
                    let others0: Vec<usize> = [1usize, 2, 3]
                        .iter()
                        .enumerate()
                        .filter(|(bit, _)| mask0 & (1 << bit) != 0)
                        .map(|(_, &p)| p)
                        .collect();
                    let others1: Vec<usize> = [0usize, 2, 3]
                        .iter()
                        .enumerate()
                        .filter(|(bit, _)| mask1 & (1 << bit) != 0)
                        .map(|(_, &p)| p)
                        .collect();
                    let mut failures = FailurePattern::crash_free(n);
                    failures.crash(0, 1, others0)?;
                    failures.crash(1, 1, others1)?;
                    consistent.push(Adversary::new(inputs.clone(), failures)?);
                }
            }
        }
    }

    let star = ProtocolComplex::build(system, &consistent, time)?;
    let star_betti = homology::betti_numbers(star.complex());
    let observer_id = star
        .state_id(&reference_run, Node::new(observer, time))
        .expect("the reference run belongs to its own star");
    let link = star.complex().link(observer_id);
    let link_betti = homology::betti_numbers(&link);

    Ok(Prop2Targeted {
        hidden_capacity: analysis.hidden_capacity(),
        executions: consistent.len(),
        star_states: star.num_states(),
        star_facets: star.num_facets(),
        star_betti: star_betti.all().to_vec(),
        star_connected: homology::is_q_connected(star.complex(), k - 1),
        link_betti: link_betti.all().to_vec(),
        link_connected: homology::is_q_connected(&link, k.saturating_sub(2)),
    })
}

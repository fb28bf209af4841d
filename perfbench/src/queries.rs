//! The in-process queries the benchmark times, each in three forms: plain
//! (the library's own entry point), traced (delegating wrappers around
//! every layer call, at one engine thread), and busy-metered (the plain
//! job with its time summed per thread).  All three fold the same value.
//!
//! The library's jobs hard-wire their protocols and call the executor and
//! checker directly, so the traced form cannot wrap them from outside.
//! It runs copies instead: `thm1_job`, `thm3_job`, `fig4_job` and
//! `prop2_traced` here mirror `experiments::{thm1_job, thm3_job, fig4_job,
//! prop2_with_stats}` with spans added, and `fresh_source` mirrors
//! `experiments::thm3_source` with more samples.  Keep them in step with
//! `crates/sweep/src/experiments.rs`.  The gate catches a copy that folds
//! a different value; the traced run also fails when a query's traced wall
//! leaves its band around the untraced wall, which a copy whose cost has
//! drifted from the library's would do.

use std::collections::BTreeSet;
use std::time::Instant;

use adversary::enumerate::{self, AdversarySpace, EnumerationConfig};
use adversary::RandomConfig;
use knowledge::ViewAnalysis;
use set_consensus::{
    BatchRunner, EarlyFloodMin, EarlyUniformFloodMin, FloodMin, Optmin, Protocol, TaskParams,
    TaskVariant, Transcript, UPmin,
};
use sweep::experiments::{
    self, Fig4Reducer, Prop2ExhaustiveRow, Prop2Report, Prop2Targeted, Thm1Case, Thm1Outcome,
    Thm1Reducer, Thm3Reducer, Thm3Row, OMISSION_CASES, THM1_CASES, THM3_CASES,
};
use sweep::source::{ExhaustiveSource, RandomSource};
use sweep::{reduce, sweep_with_stats, Reducer, Scenario, SweepConfig, SweepStats};
use synchrony::{
    Adversary, FailurePattern, InputVector, ModelError, Node, Run, SystemParams, Time,
};
use topology::{homology, ProtocolComplex};

use crate::gate;
use crate::trace::{self, BusyMeter, Slot, TimedProtocol, TimedReducer};

/// The result of one query, comparable across runs and forms.
#[derive(Debug, Clone, PartialEq)]
pub enum Fold {
    Thm1(Vec<Thm1Case>),
    Omission(Vec<Thm1Case>),
    Prop2(Prop2Report),
    Thm3(Vec<Thm3Row>),
    Fig4(Vec<experiments::Fig4Row>),
}

impl Fold {
    /// The paper's claim this result must show.
    pub fn gate(&self) -> Result<(), String> {
        match self {
            Fold::Thm1(rows) => gate::thm1(rows),
            Fold::Omission(rows) => gate::omission(rows),
            Fold::Prop2(report) => gate::prop2(report),
            Fold::Thm3(rows) => gate::thm3(rows),
            Fold::Fig4(rows) => gate::fig4(rows),
        }
    }
}

/// One in-process query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The built-in Theorem 1 scopes.
    Thm1,
    /// The built-in send-omission scan.
    Omission,
    /// Proposition 2: protocol complexes, per-run analyses, star homology.
    Prop2,
    /// Seeded random `u-Pmin` sweeps over the Theorem 3 cases.
    Thm3 { seed: u64, samples: usize },
    /// The Fig. 4 uniform-gap family.
    Fig4,
}

type Outcome = Result<(Fold, SweepStats), ModelError>;

impl Query {
    /// The query's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Query::Thm1 => "thm1",
            Query::Omission => "omission",
            Query::Prop2 => "prop2",
            Query::Thm3 { .. } => "thm3",
            Query::Fig4 => "fig4",
        }
    }

    /// Runs the query through the library's own entry points.
    pub fn run(self, config: &SweepConfig) -> Outcome {
        match self {
            Query::Thm1 => experiments::thm1_with_stats(config).map(|(r, s)| (Fold::Thm1(r), s)),
            Query::Omission => {
                experiments::omission_with_stats(config).map(|(r, s)| (Fold::Omission(r), s))
            }
            Query::Prop2 => experiments::prop2_with_stats(config).map(|(r, s)| (Fold::Prop2(r), s)),
            Query::Thm3 { seed, samples } => {
                thm3_cases(seed, samples, config, &Thm3Reducer, experiments::thm3_job)
            }
            Query::Fig4 => fig4_sweep(config, &Fig4Reducer, experiments::fig4_job),
        }
    }

    /// Runs the query with every layer call wrapped in a span; the spans
    /// land in the calling thread's accumulators (`trace::take`).
    pub fn traced(self, config: &SweepConfig) -> Outcome {
        let reducer1 = TimedReducer(Thm1Reducer);
        match self {
            Query::Thm1 => thm1_cases(false, config, &reducer1, |r, s| traced_job(thm1_job, r, s)),
            Query::Omission => {
                thm1_cases(true, config, &reducer1, |r, s| traced_job(thm1_job, r, s))
            }
            Query::Prop2 => prop2_traced(config),
            Query::Thm3 { seed, samples } => {
                thm3_cases(seed, samples, config, &TimedReducer(Thm3Reducer), |r, s| {
                    traced_job(thm3_job, r, s)
                })
            }
            Query::Fig4 => {
                fig4_sweep(config, &TimedReducer(Fig4Reducer), |r, s| traced_job(fig4_job, r, s))
            }
        }
    }

    /// Runs the library's own job with its time added to `meter`, per
    /// engine thread — for the queries timed at two threads.
    pub fn metered(self, config: &SweepConfig, meter: &BusyMeter) -> Option<Outcome> {
        Some(match self {
            Query::Thm1 | Query::Omission => {
                thm1_cases(self == Query::Omission, config, &Thm1Reducer, |r, s| {
                    meter.time(|| experiments::thm1_job(r, s))
                })
            }
            Query::Thm3 { seed, samples } => {
                thm3_cases(seed, samples, config, &Thm3Reducer, |r, s| {
                    meter.time(|| experiments::thm3_job(r, s))
                })
            }
            Query::Prop2 | Query::Fig4 => return None,
        })
    }

    /// A pass over the query's scenarios at one engine thread whose job
    /// does only `probe`, in nanoseconds: with [`Probe::Enumerate`] the
    /// pass's wall (sources, cursor, shard scheduling and a counting
    /// reducer), with [`Probe::Simulate`] the time spent in
    /// `BatchRunner::simulate`, the simulation share of `core.execute_ns`.
    pub fn probe_ns(self, probe: Probe) -> Result<f64, ModelError> {
        let config = SweepConfig { threads: 1, ..SweepConfig::default() };
        let job = |horizon: Option<Time>| {
            move |runner: &mut BatchRunner, scenario: &Scenario| {
                if probe == Probe::Simulate {
                    let horizon = horizon.unwrap_or_else(|| scenario.params.horizon());
                    trace::span(Slot::Simulate, || {
                        runner.simulate(scenario.params.system(), &scenario.adversary, horizon)
                    })?;
                }
                Ok(1)
            }
        };
        let _ = trace::take();
        let start = Instant::now();
        match self {
            Query::Thm1 | Query::Omission => {
                for source in thm1_sources(self == Query::Omission)? {
                    sweep_with_stats(&source.0, &config, &reduce::Count, job(None))?;
                }
            }
            Query::Prop2 => {
                for (n, t) in PROP2_SYSTEMS {
                    let source = ExhaustiveSource::new(
                        AdversarySpace::new(prop2_scope(n, t))?,
                        TaskParams::new(SystemParams::new(n, t)?, 1)?,
                        TaskVariant::Nonuniform,
                    )?;
                    sweep_with_stats(&source, &config, &reduce::Count, job(PROP2_TIME))?;
                }
            }
            Query::Thm3 { seed, samples } => {
                for (n, t, k) in THM3_CASES {
                    let source = fresh_source(n, t, k, seed, samples)?;
                    sweep_with_stats(&source, &config, &reduce::Count, job(None))?;
                }
            }
            Query::Fig4 => {
                let (source, _) = experiments::fig4_source()?;
                sweep_with_stats(&source, &config, &reduce::Count, job(None))?;
            }
        }
        let wall_ns = start.elapsed().as_nanos() as f64;
        Ok(match probe {
            Probe::Enumerate => wall_ns,
            Probe::Simulate => trace::take().simulate_ns,
        })
    }
}

/// The per-scenario work of a [`Query::probe_ns`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Nothing: the pass measures enumeration.
    Enumerate,
    /// Simulate the scenario's run, as the executor would.
    Simulate,
}

/// A random `u-Pmin` source of `thm3_source`'s shape (a copy of its
/// distribution) with `samples` scenarios instead of the built-in few
/// hundred.
pub fn fresh_source(
    n: usize,
    t: usize,
    k: usize,
    seed: u64,
    samples: usize,
) -> Result<RandomSource, ModelError> {
    let params = TaskParams::new(SystemParams::new(n, t)?, k)?;
    let distribution = RandomConfig { crash_probability: 0.7, ..RandomConfig::new(n, t, k) };
    Ok(RandomSource::new(distribution, params, TaskVariant::Uniform, seed, samples))
}

fn traced_job<T>(
    job: fn(&mut BatchRunner, &Scenario) -> Result<T, ModelError>,
    runner: &mut BatchRunner,
    scenario: &Scenario,
) -> Result<T, ModelError> {
    trace::span(Slot::Job, || job(runner, scenario))
}

/// The sources of the built-in Theorem 1 (or omission) cases, each with
/// the row builder of its case.
#[allow(clippy::type_complexity)]
fn thm1_sources(
    omission: bool,
) -> Result<Vec<(ExhaustiveSource, Box<dyn Fn(Thm1Outcome) -> Thm1Case>)>, ModelError> {
    let mut sources: Vec<(ExhaustiveSource, Box<dyn Fn(Thm1Outcome) -> Thm1Case>)> = Vec::new();
    if omission {
        for (n, t, k) in OMISSION_CASES {
            let scope = experiments::omission_scope(n, t, k);
            let source = experiments::omission_source(scope, k)?;
            let adversaries = source.space().len();
            let row = move |acc| experiments::omission_case_row(&scope, k, adversaries, acc);
            sources.push((source, Box::new(row)));
        }
    } else {
        for (n, t, k) in THM1_CASES {
            let scope = experiments::thm1_scope(n, t, k);
            let source = experiments::thm1_source(scope, k)?;
            let adversaries = source.space().len();
            let row = move |acc| experiments::thm1_case_row(&scope, k, adversaries, acc);
            sources.push((source, Box::new(row)));
        }
    }
    Ok(sources)
}

fn thm1_cases<R, F>(omission: bool, config: &SweepConfig, reducer: &R, job: F) -> Outcome
where
    R: Reducer<Item = Thm1Outcome, Acc = Thm1Outcome>,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<Thm1Outcome, ModelError> + Sync,
{
    let mut rows = Vec::new();
    let mut stats = SweepStats::default();
    for (source, row) in thm1_sources(omission)? {
        let (acc, case_stats) = sweep_with_stats(&source, config, reducer, &job)?;
        stats.merge(case_stats);
        rows.push(row(acc));
    }
    Ok((if omission { Fold::Omission(rows) } else { Fold::Thm1(rows) }, stats))
}

fn thm3_cases<R, F>(seed: u64, samples: usize, config: &SweepConfig, reducer: &R, job: F) -> Outcome
where
    R: Reducer<Item = (usize, u32, u64), Acc = experiments::Thm3Acc>,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<(usize, u32, u64), ModelError> + Sync,
{
    let mut rows = Vec::new();
    let mut stats = SweepStats::default();
    for (n, t, k) in THM3_CASES {
        let source = fresh_source(n, t, k, seed, samples)?;
        let (acc, case_stats) = sweep_with_stats(&source, config, reducer, &job)?;
        stats.merge(case_stats);
        rows.extend(experiments::thm3_rows(n, t, k, &acc)?);
    }
    Ok((Fold::Thm3(rows), stats))
}

fn fig4_sweep<R, F>(config: &SweepConfig, reducer: &R, job: F) -> Outcome
where
    R: Reducer<Item = (usize, [u32; 4], u64), Acc = experiments::Fig4Acc>,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<(usize, [u32; 4], u64), ModelError> + Sync,
{
    let (source, shapes) = experiments::fig4_source()?;
    let (acc, stats) = sweep_with_stats(&source, config, reducer, job)?;
    Ok((Fold::Fig4(experiments::fig4_rows(&shapes, &acc)), stats))
}

/// Latest decision time among the correct processes (`0` if none decided).
fn latest_correct_decision(run: &Run, transcript: &Transcript) -> u32 {
    (0..run.n())
        .filter(|&i| run.is_correct(i))
        .filter_map(|i| transcript.decision_time(i).map(Time::value))
        .max()
        .unwrap_or(0)
}

/// `experiments::thm1_job` with spans around the executor, the observer,
/// every decision and every check.
fn thm1_job(runner: &mut BatchRunner, scenario: &Scenario) -> Result<Thm1Outcome, ModelError> {
    let (optmin, early, flood) =
        (TimedProtocol(&Optmin), TimedProtocol(&EarlyFloodMin), TimedProtocol(&FloodMin));
    let protocols: [&dyn Protocol; 3] = [&optmin, &early, &flood];
    let mut outcome = Thm1Outcome::default();
    let case_k = scenario.params.k();
    trace::span(Slot::Execute, || {
        runner.execute_batch_observed(
            &protocols,
            &scenario.params,
            &scenario.adversary,
            |_, node, analysis, transcripts| {
                trace::observe(|| {
                    let enabled = analysis.is_low(case_k) || analysis.hidden_capacity() < case_k;
                    let decided_by_now =
                        transcripts[0].decision_time(node.process).is_some_and(|d| d <= node.time);
                    if enabled != decided_by_now {
                        outcome.structure += 1;
                    }
                });
                Ok(())
            },
        )
    })?;
    let (run, transcripts, checks) = runner.batch_parts();
    trace::span(Slot::Check, || {
        for transcript in transcripts {
            outcome.violations += checks
                .check(run, transcript, &scenario.params, TaskVariant::Nonuniform)
                .len() as u64;
        }
    });
    trace::count(Slot::CheckCalls, transcripts.len() as u64);
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

/// `experiments::thm3_job` with spans.
fn thm3_job(
    runner: &mut BatchRunner,
    scenario: &Scenario,
) -> Result<(usize, u32, u64), ModelError> {
    let upmin = TimedProtocol(&UPmin);
    trace::span(Slot::Execute, || {
        runner.execute_one(&upmin, &scenario.params, &scenario.adversary).map(|_| ())
    })?;
    let (run, transcripts, checks) = runner.batch_parts();
    let transcript = &transcripts[0];
    let violations = trace::span(Slot::Check, || {
        checks.check(run, transcript, &scenario.params, TaskVariant::Uniform).len() as u64
    });
    trace::count(Slot::CheckCalls, 1);
    Ok((run.num_failures(), latest_correct_decision(run, transcript), violations))
}

/// `experiments::fig4_job` with spans.
fn fig4_job(
    runner: &mut BatchRunner,
    scenario: &Scenario,
) -> Result<(usize, [u32; 4], u64), ModelError> {
    let (upmin, optmin, early, flood) = (
        TimedProtocol(&UPmin),
        TimedProtocol(&Optmin),
        TimedProtocol(&EarlyUniformFloodMin),
        TimedProtocol(&FloodMin),
    );
    let protocols: [&dyn Protocol; 4] = [&upmin, &optmin, &early, &flood];
    trace::span(Slot::Execute, || {
        runner.execute_batch(&protocols, &scenario.params, &scenario.adversary).map(|_| ())
    })?;
    let (run, transcripts, checks) = runner.batch_parts();
    let mut latest = [0u32; 4];
    let mut violations = 0u64;
    for (slot, transcript) in transcripts.iter().enumerate() {
        latest[slot] = latest_correct_decision(run, transcript);
        violations += trace::span(Slot::Check, || {
            checks.check(run, transcript, &scenario.params, TaskVariant::Uniform).len() as u64
        });
    }
    trace::count(Slot::CheckCalls, transcripts.len() as u64);
    Ok((scenario.index, latest, violations))
}

/// The `(n, t)` systems of the exhaustive Proposition 2 check.
const PROP2_SYSTEMS: [(usize, usize); 2] = [(3, 1), (4, 2)];

/// Proposition 2 looks at one-round states.
const PROP2_TIME: Option<Time> = Some(Time::new(1));

fn prop2_scope(n: usize, t: usize) -> EnumerationConfig {
    EnumerationConfig { n, t, max_value: 1, max_crash_round: 1, partial_delivery: true }
}

/// The state ids with hidden capacity ≥ 1, deduplicated.
struct StateSet;

impl Reducer for StateSet {
    type Item = Vec<usize>;
    type Acc = BTreeSet<usize>;

    fn empty(&self) -> BTreeSet<usize> {
        BTreeSet::new()
    }

    fn fold(&self, acc: &mut BTreeSet<usize>, item: Vec<usize>) {
        acc.extend(item);
    }

    fn merge(&self, mut left: BTreeSet<usize>, right: BTreeSet<usize>) -> BTreeSet<usize> {
        left.extend(right);
        left
    }
}

/// `experiments::prop2_with_stats` with spans around the protocol-complex
/// builds, the per-run simulation and analyses, and the homology checks.
/// Execute spans stay inside job spans, so self times nest.
fn prop2_traced(config: &SweepConfig) -> Outcome {
    let time = Time::new(1);
    let mut stats = SweepStats::default();
    let mut exhaustive = Vec::new();
    for (n, t) in PROP2_SYSTEMS {
        let scope = prop2_scope(n, t);
        let adversaries = enumerate::adversaries(&scope)?;
        let system = SystemParams::new(n, t)?;
        let complex =
            trace::span(Slot::ComplexBuild, || ProtocolComplex::build(system, &adversaries, time))?;
        let params = TaskParams::new(system, 1)?;
        let source =
            ExhaustiveSource::new(AdversarySpace::new(scope)?, params, TaskVariant::Nonuniform)?;
        let complex = &complex;
        let (with_capacity, sweep_stats) =
            sweep_with_stats(&source, config, &TimedReducer(StateSet), |runner, scenario| {
                trace::span(Slot::Job, || {
                    let analyzer = runner.cache().clone();
                    let run = trace::span(Slot::Execute, || {
                        runner.simulate(system, &scenario.adversary, time)
                    })?;
                    let mut found = Vec::new();
                    for i in 0..n {
                        if !run.is_active(i, time) {
                            continue;
                        }
                        let Some(id) = complex.state_id(run, Node::new(i, time)) else {
                            continue;
                        };
                        let analysis = trace::span(Slot::Execute, || {
                            analyzer.analyze(run, Node::new(i, time))
                        })?;
                        if analysis.hidden_capacity() >= 1 {
                            found.push(id);
                        }
                    }
                    Ok(found)
                })
            })?;
        stats.merge(sweep_stats);
        let connected = trace::span(Slot::StarCheck, || {
            with_capacity.iter().filter(|&&id| complex.star_is_q_connected(id, 0)).count()
        });
        exhaustive.push(Prop2ExhaustiveRow {
            n,
            t,
            states: complex.num_states(),
            with_capacity: with_capacity.len(),
            connected,
            counterexamples: with_capacity.len() - connected,
        });
    }
    let report = Prop2Report { exhaustive, targeted: prop2_targeted()? };
    Ok((Fold::Prop2(report), stats))
}

/// The targeted `k = 2` star of `experiments::prop2`, with spans.
fn prop2_targeted() -> Result<Prop2Targeted, ModelError> {
    let (k, n, t, observer) = (2usize, 5usize, 2usize, 4usize);
    let system = SystemParams::new(n, t)?;
    let time = Time::new(1);
    let mut reference_failures = FailurePattern::crash_free(n);
    reference_failures.crash_silent(0, 1)?;
    reference_failures.crash_silent(1, 1)?;
    let reference =
        Adversary::new(InputVector::from_values([2u64, 2, 2, 2, 2]), reference_failures)?;
    let reference_run = Run::generate(system, reference, time)?;
    let analysis = ViewAnalysis::new(&reference_run, Node::new(observer, time))?;

    let mut consistent = Vec::new();
    for v0 in 0..=k as u64 {
        for v1 in 0..=k as u64 {
            let inputs = InputVector::from_values([v0, v1, 2, 2, 2]);
            for mask0 in 0u32..8 {
                for mask1 in 0u32..8 {
                    let subset = |mask: u32, others: [usize; 3]| -> Vec<usize> {
                        (0..3).filter(|bit| mask & (1 << bit) != 0).map(|bit| others[bit]).collect()
                    };
                    let mut failures = FailurePattern::crash_free(n);
                    failures.crash(0, 1, subset(mask0, [1, 2, 3]))?;
                    failures.crash(1, 1, subset(mask1, [0, 2, 3]))?;
                    consistent.push(Adversary::new(inputs.clone(), failures)?);
                }
            }
        }
    }

    let star =
        trace::span(Slot::ComplexBuild, || ProtocolComplex::build(system, &consistent, time))?;
    trace::span(Slot::StarCheck, || {
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
    })
}

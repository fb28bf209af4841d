//! The two in-process workloads: `exhaustive` (the built-in Theorem 1
//! scopes, the omission scan and Proposition 2) and `fresh-patterns`
//! (seeded random `u-Pmin` sweeps and the Fig. 4 family).

use std::collections::BTreeMap;
use std::time::Instant;

use sweep::{SweepConfig, SweepStats};

use crate::queries::{Fold, Probe, Query};
use crate::stats::SplitMix;
use crate::trace::{self, BusyMeter, Spans};
use crate::{Report, Run};

/// Scenarios per Theorem 3 case in one `fresh-patterns` pass — enough
/// that a pass outlasts the clock's and the scheduler's noise.
pub const FRESH_SAMPLES: usize = 3_000;

/// The band a query's traced wall must keep around its untraced wall over
/// a traced run.  The spans cost -2% to +10% per query on the reference
/// machine; the band leaves room for a one-round run's noise, and a traced
/// copy of a job whose library original got much cheaper or dearer leaves
/// it.
const TRACE_RATIO: std::ops::RangeInclusive<f64> = 0.75..=1.6;

/// One timed arm: a query, its engine-thread count, and how often one
/// round runs it.  Short queries run more often, so that every kind's
/// median rests on enough samples to average out the machine's bursts.
type Arm = (Query, usize, usize);

/// Exhaustive passes over the built-in scopes at one and two threads.
pub fn exhaustive(run: Run) -> Result<Report, String> {
    let arms = [
        (Query::Thm1, 1, 1),
        (Query::Thm1, 2, 1),
        (Query::Omission, 1, 3),
        (Query::Omission, 2, 3),
        (Query::Prop2, 1, 5),
    ];
    drive(run, &arms)
}

/// Seeded random sweeps in which no two scenarios share a failure
/// pattern, plus the fixed Fig. 4 family.
pub fn fresh_patterns(run: Run) -> Result<Report, String> {
    let thm3 = Query::Thm3 { seed: SplitMix::new(run.seed, 1).next_u64(), samples: FRESH_SAMPLES };
    drive(run, &[(thm3, 1, 1), (thm3, 2, 1), (Query::Fig4, 1, 3)])
}

fn config(threads: usize) -> SweepConfig {
    SweepConfig { threads, ..SweepConfig::default() }
}

fn kind(query: Query, threads: usize) -> String {
    format!("{}_ms.t{threads}", query.name())
}

/// The counts that do not depend on timing, as one comparable line.
fn counts_line(stats: &SweepStats) -> String {
    format!(
        "scenarios={} runs_simulated={} runs_reused={} analyses_requested={} \
         analyses_constructed={} patterns_unranked={}",
        stats.scenarios,
        stats.runs.simulated,
        stats.runs.reused,
        stats.cache.lookups(),
        stats.cache.constructions(),
        stats.cursor.patterns_unranked
    )
}

/// The verdicts of one pass: the fold equals the sequential reference,
/// and at one thread the work counters repeat those of the first pass.
struct Verifier {
    references: Vec<(Query, Fold)>,
    counts: BTreeMap<&'static str, SweepStats>,
}

impl Verifier {
    fn verdict(
        &mut self,
        query: Query,
        threads: usize,
        outcome: Result<(Fold, SweepStats), synchrony::ModelError>,
    ) -> (Result<(), String>, SweepStats) {
        let (fold, stats) = match outcome {
            Ok(outcome) => outcome,
            Err(error) => return (Err(format!("model error: {error}")), SweepStats::default()),
        };
        let reference = &self.references.iter().find(|(q, _)| *q == query).expect("a reference").1;
        if let Err(reason) = crate::gate::same(query.name(), &fold, reference) {
            return (Err(reason), stats);
        }
        if threads == 1 {
            let first = *self.counts.entry(query.name()).or_insert(stats);
            if first != stats {
                let reason = format!(
                    "work counters changed between passes: {} then {}",
                    counts_line(&first),
                    counts_line(&stats)
                );
                return (Err(reason), stats);
            }
        }
        (Ok(()), stats)
    }
}

fn drive(run: Run, arms: &[Arm]) -> Result<Report, String> {
    let mut report = Report::default();
    let mut queries: Vec<Query> = Vec::new();
    for &(query, _, _) in arms {
        if !queries.contains(&query) {
            queries.push(query);
        }
    }
    // Set-up: the sequential reference fold of every query, which every
    // timed pass must reproduce bit for bit.
    let references = report.time_setup(|| {
        queries
            .iter()
            .map(|&query| {
                let (fold, _) = query
                    .run(&SweepConfig::sequential())
                    .map_err(|e| format!("{} reference: {e}", query.name()))?;
                Ok((query, fold))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    for (query, fold) in &references {
        report.check(&format!("{} reference", query.name()), fold.gate());
    }
    let mut verifier = Verifier { references, counts: BTreeMap::new() };
    if run.trace {
        traced_rounds(run, arms, &queries, &mut verifier, &mut report);
    } else {
        timed_rounds(run, arms, &mut verifier, &mut report);
    }
    for (name, stats) in &verifier.counts {
        report.lines.push(format!("counts {name}.t1: {}", counts_line(stats)));
    }
    Ok(report)
}

/// Rounds of every arm, in a seeded order per round, until the run's time
/// is used up.
fn timed_rounds(run: Run, arms: &[Arm], verifier: &mut Verifier, report: &mut Report) {
    let mut rng = SplitMix::new(run.seed, 2);
    let start = Instant::now();
    loop {
        let mut order: Vec<(Query, usize)> = arms
            .iter()
            .flat_map(|&(query, threads, per_round)| {
                std::iter::repeat_n((query, threads), per_round)
            })
            .collect();
        rng.shuffle(&mut order);
        for (query, threads) in order {
            let began = Instant::now();
            let outcome = query.run(&config(threads));
            let ms = began.elapsed().as_secs_f64() * 1e3;
            let (verdict, _) = verifier.verdict(query, threads, outcome);
            report.op(&kind(query, threads), ms, verdict);
        }
        if run.over(start) {
            break;
        }
    }
    report.describe_walls();
}

/// Layer totals summed over the traced passes of a run.
#[derive(Debug, Default)]
struct Totals {
    spans: Spans,
    stats: SweepStats,
    /// Traced and untraced wall per query.
    walls: BTreeMap<&'static str, (f64, f64)>,
    enumerate_ns: f64,
    simulate_ns: f64,
    busy_ns: f64,
    busy_wall_ns: f64,
}

impl Totals {
    fn absorb(&mut self, spans: Spans) {
        let s = &mut self.spans;
        s.job_ns += spans.job_ns;
        s.execute_ns += spans.execute_ns;
        s.check_ns += spans.check_ns;
        s.check_calls += spans.check_calls;
        s.complex_build_ns += spans.complex_build_ns;
        s.star_check_ns += spans.star_check_ns;
        s.decide_ns += spans.decide_ns;
        s.decide_calls += spans.decide_calls;
        s.observe_ns += spans.observe_ns;
        s.fold_ns += spans.fold_ns;
    }

    fn traced_ns(&self) -> f64 {
        self.walls.values().map(|&(traced, _)| traced).sum()
    }

    fn untraced_ns(&self) -> f64 {
        self.walls.values().map(|&(_, untraced)| untraced).sum()
    }
}

/// Rounds of: a traced pass of every query at one thread, an untraced
/// pass of the same (the overhead baseline), an enumerate-only and a
/// simulate-only pass, and a busy-metered pass of every two-thread arm.
fn traced_rounds(
    run: Run,
    arms: &[Arm],
    queries: &[Query],
    verifier: &mut Verifier,
    report: &mut Report,
) {
    let mut rng = SplitMix::new(run.seed, 2);
    let mut totals = Totals::default();
    let mut rounds = 0u32;
    let start = Instant::now();
    trace::clock_cost_ns();
    loop {
        let mut order = queries.to_vec();
        rng.shuffle(&mut order);
        for &query in &order {
            let _ = trace::take();
            let began = Instant::now();
            let outcome = query.traced(&config(1));
            let traced_ns = began.elapsed().as_nanos() as f64;
            totals.absorb(trace::take());
            let (verdict, stats) = verifier.verdict(query, 1, outcome);
            totals.stats.merge(stats);
            report.check(&format!("traced {}", query.name()), verdict);

            let began = Instant::now();
            let outcome = query.run(&config(1));
            let untraced_ns = began.elapsed().as_nanos() as f64;
            report.check(
                &format!("untraced {}", query.name()),
                verifier.verdict(query, 1, outcome).0,
            );
            let walls = totals.walls.entry(query.name()).or_default();
            walls.0 += traced_ns;
            walls.1 += untraced_ns;

            for (probe, total) in [
                (Probe::Enumerate, &mut totals.enumerate_ns),
                (Probe::Simulate, &mut totals.simulate_ns),
            ] {
                match query.probe_ns(probe) {
                    Ok(ns) => *total += ns,
                    Err(error) => report.check("probe pass", Err(error.to_string())),
                }
            }
        }
        for &(query, threads, _) in arms.iter().filter(|&&(_, threads, _)| threads > 1) {
            let meter = BusyMeter::default();
            let began = Instant::now();
            let Some(outcome) = query.metered(&config(threads), &meter) else { continue };
            totals.busy_wall_ns += began.elapsed().as_nanos() as f64 * threads as f64;
            totals.busy_ns += meter.total_ns();
            report.check(
                &format!("metered {}", query.name()),
                verifier.verdict(query, threads, outcome).0,
            );
        }
        rounds += 1;
        if run.over(start) {
            break;
        }
    }
    for (&name, &(traced, untraced)) in &totals.walls {
        let ratio = traced / untraced;
        report.lines.push(format!("trace overhead {name}: {:+.1}%", (ratio - 1.0) * 100.0));
        let verdict = if TRACE_RATIO.contains(&ratio) {
            Ok(())
        } else {
            Err(format!("traced/untraced wall {ratio:.3} outside {TRACE_RATIO:?}"))
        };
        report.check(&format!("trace overhead {name}"), verdict);
    }
    layers(&totals, f64::from(rounds), report);
}

/// Self times per round: each span less the spans it encloses, and the
/// enumerate-only pass for the engine's own share.
fn layers(totals: &Totals, rounds: f64, report: &mut Report) {
    let s = &totals.spans;
    let job = s.job_ns - s.execute_ns - s.check_ns;
    let execute = s.execute_ns - s.decide_ns - s.observe_ns;
    let covered = totals.enumerate_ns
        + job.max(0.0)
        + execute.max(0.0)
        + s.decide_ns
        + s.observe_ns
        + s.check_ns
        + s.fold_ns
        + s.complex_build_ns
        + s.star_check_ns;
    let (traced_ns, untraced_ns) = (totals.traced_ns(), totals.untraced_ns());
    let stats = &totals.stats;
    let per_round = [
        ("sweep.enumerate_ns", totals.enumerate_ns),
        ("sweep.job_ns", job),
        ("core.execute_ns", execute),
        ("synchrony.simulate_ns", totals.simulate_ns),
        ("core.decide_ns", s.decide_ns),
        ("core.decide_calls", s.decide_calls),
        ("core.observe_ns", s.observe_ns),
        ("core.check_ns", s.check_ns),
        ("core.check_calls", s.check_calls),
        ("sweep.fold_ns", s.fold_ns),
        ("topology.complex_build_ns", s.complex_build_ns),
        ("topology.star_check_ns", s.star_check_ns),
        ("count.scenarios", stats.scenarios as f64),
        ("count.runs_simulated", stats.runs.simulated as f64),
        ("count.runs_reused", stats.runs.reused as f64),
        ("count.analyses_requested", stats.cache.lookups() as f64),
        ("count.analyses_constructed", stats.cache.constructions() as f64),
        ("count.patterns_unranked", stats.cursor.patterns_unranked as f64),
        ("trace.wall_ms", traced_ns / 1e6),
        ("trace.untraced_wall_ms", untraced_ns / 1e6),
    ];
    for (name, total) in per_round {
        report.layers.insert(name, total / rounds);
    }
    if totals.busy_wall_ns > 0.0 {
        report.layers.insert("sweep.busy_frac.t2", totals.busy_ns / totals.busy_wall_ns);
    }
    report.layers.insert("trace.coverage", covered / traced_ns);
    report.lines.push(format!(
        "traced rounds: {rounds}; traced wall {:.3} ms vs untraced {:.3} ms per round \
         (tracing overhead {:+.1}%); measured self times cover {:.1}% of the traced wall",
        traced_ns / rounds / 1e6,
        untraced_ns / rounds / 1e6,
        (traced_ns / untraced_ns - 1.0) * 100.0,
        covered / traced_ns * 100.0
    ));
}

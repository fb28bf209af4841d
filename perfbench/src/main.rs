//! The checker's benchmark: one command that runs a workload, checks every
//! result against the paper's claims and an in-process reference fold,
//! and prints each metric by name and unit.
//!
//! ```text
//! perfbench --workload <exhaustive|fresh-patterns|daemon-mixed|fleet-cold>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a separate traced run.  Lines before it are a human-readable table
//! of every operation kind.  The exit code is nonzero when the
//! correctness gate fails.  See `perfbench/README.md` for the workloads,
//! the metrics and the layer → metric → workload table.

mod daemon;
mod gate;
mod inprocess;
mod queries;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, Walls};

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms.gmean", "ms"), ("ops_per_s", "1/s")];

/// The per-layer metrics every workload reports with `--trace 1` (zero
/// where the workload does not reach the layer).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sweep.enumerate_ns", "ns"),
    ("sweep.job_ns", "ns"),
    ("core.execute_ns", "ns"),
    ("synchrony.simulate_ns", "ns"),
    ("core.decide_ns", "ns"),
    ("core.decide_calls", "count"),
    ("core.observe_ns", "ns"),
    ("core.check_ns", "ns"),
    ("core.check_calls", "count"),
    ("sweep.fold_ns", "ns"),
    ("topology.complex_build_ns", "ns"),
    ("topology.star_check_ns", "ns"),
    ("sweep.busy_frac.t2", "fraction"),
    ("service.queue_wait_us", "us"),
    ("service.dispatch_us", "us"),
    ("service.shard_exec_us", "us"),
    ("service.merge_us", "us"),
    ("service.store.append_us", "us"),
    ("service.wire_bytes_per_job", "bytes"),
    ("service.wire_us_per_job", "us"),
    ("service.client_overhead_ms", "ms"),
    ("service.shards_remote_frac", "fraction"),
    ("lease.granted", "count"),
    ("lease.requeued", "count"),
    ("lease.expired", "count"),
    ("lease.duplicates", "count"),
    ("count.scenarios", "count"),
    ("count.runs_simulated", "count"),
    ("count.runs_reused", "count"),
    ("count.analyses_requested", "count"),
    ("count.analyses_constructed", "count"),
    ("count.patterns_unranked", "count"),
    ("count.shards_cached", "count"),
    ("count.shards_executed", "count"),
    ("count.cache_replays", "count"),
    ("count.cache_misses", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.coverage", "fraction"),
];

/// The parsed command line of one run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// `true` once a measurement that started at `start` has used up the
    /// run's time.
    pub fn over(&self, start: Instant) -> bool {
        start.elapsed() >= Duration::from_secs_f64(self.seconds)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub walls: Walls,
    pub layers: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

impl Report {
    /// Counts one checked result; a failed check is reported on stderr.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            eprintln!("perfbench: correctness gate: {what}: {reason}");
        }
    }

    /// Records one timed operation of `kind` and its checked result.
    pub fn op(&mut self, kind: &str, ms: f64, verdict: Result<(), String>) {
        self.walls.record(kind, ms);
        self.check(kind, verdict);
    }

    /// Times `setup` [`SETUP_REPS`] times, keeping the last result.
    pub fn time_setup<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let value = setup()?;
            self.setup_s.push(start.elapsed().as_secs_f64());
            kept = Some(value);
        }
        Ok(kept.expect("at least one set-up"))
    }

    /// One human-readable line per operation kind.
    pub fn describe_walls(&mut self) {
        for kind in self.walls.kinds().to_vec() {
            let ms = self.walls.of(&kind);
            let (min, max) =
                ms.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            self.lines.push(format!(
                "{kind}: median {:.3} ms over {} ({min:.3} .. {max:.3})",
                median(ms),
                ms.len()
            ));
        }
    }

    fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            let values = [
                median(&self.setup_s),
                self.walls.gmean_of_medians(),
                self.walls.ops_per_s_at_medians(),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| (name, value, unit))
                .collect()
        }
    }

    /// The JSON result line.
    fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(trace)
            .into_iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

const USAGE: &str =
    "usage: perfbench --workload <exhaustive|fresh-patterns|daemon-mixed|fleet-cold> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&parsed) {
                    return Err("--seconds must lie in 0..=600".into());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let run = Run {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((workload, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The fleet workload re-executes this binary as its worker processes.
    if let [flag, socket] = args.as_slice() {
        if flag == daemon::WORKER_FLAG {
            return daemon::worker_main(socket);
        }
    }
    let (workload, run) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Per-job lifecycle lines of the embedded daemon would interleave
    // with (and slow) the measurement; warnings still reach stderr.
    telemetry::log::set_level(telemetry::log::Level::Warn);
    let result = match workload.as_str() {
        "exhaustive" => inprocess::exhaustive(run),
        "fresh-patterns" => inprocess::fresh_patterns(run),
        "daemon-mixed" => daemon::daemon_mixed(run),
        "fleet-cold" => daemon::fleet_cold(run),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {workload}: {message}");
            return ExitCode::from(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json(run.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

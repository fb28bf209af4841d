//! Shared infrastructure for the `sweep` CLI, the experiment binaries and
//! the Criterion benches.
//!
//! This library provides the shared plumbing they need:
//!
//! * [`Table`] — the plain-text result tables the binaries print, mirroring
//!   the rows the paper reports;
//! * [`summarize`] — decision-time statistics over the correct processes of
//!   a run, and [`run_sweep`] — every protocol on one shared adversary;
//! * [`report`] — renderers for the result structs of
//!   `sweep::experiments`, shared by the `sweep` CLI's one-shot and daemon
//!   paths so both print byte-identical output.
//!
//! The headline experiments (Theorem 1, Theorem 3, Fig. 4, Proposition 2,
//! the omission scan) run on the sharded sweep engine of the `sweep` crate
//! behind `sweep thm1|thm3|fig4|prop2|omission`, which accepts `--shards`,
//! `--threads` and `--seed` flags; the fold results are independent of both
//! parallelism knobs.  The `exp_*` binaries are small single-scenario
//! demonstrations and stay sequential.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod report;

use std::fmt;

use set_consensus::{execute, Protocol, TaskParams, Transcript};
use synchrony::{Adversary, ModelError, Run, Time};

/// A plain-text table printed by the experiment binaries, mirroring the rows
/// the paper reports.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match headers");
        self.rows.push(cells.to_vec());
    }

    /// Appends a row built from displayable values.
    pub fn push<D: fmt::Display>(&mut self, cells: &[D]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Returns the number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:width$}  ", cell, width = widths[i])?;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Parses the sweep flags of the `sweep` CLI — `--shards N`, `--threads N`,
/// `--seed N` — into a [`sweep::SweepConfig`], starting from the engine
/// defaults (automatic parallelism, seed 1605).
///
/// # Errors
///
/// Returns a usage message naming the offending flag or value.
pub fn sweep_config_from_args(
    args: impl Iterator<Item = String>,
) -> Result<sweep::SweepConfig, String> {
    let mut config = sweep::SweepConfig::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value_of =
            |flag: &str| args.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--shards" => {
                config.shards = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("invalid --shards value: {e}"))?;
            }
            "--threads" => {
                config.threads = value_of("--threads")?
                    .parse()
                    .map_err(|e| format!("invalid --threads value: {e}"))?;
            }
            "--seed" => {
                config.seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed value: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(config)
}

/// Decision-time statistics over the correct processes of a single run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionSummary {
    /// Earliest decision time among correct processes.
    pub earliest: u32,
    /// Latest decision time among correct processes.
    pub latest: u32,
    /// Mean decision time among correct processes.
    pub mean: f64,
    /// Number of correct processes that decided.
    pub decided: usize,
    /// Number of correct processes.
    pub correct: usize,
}

/// Summarizes the decision times of the correct processes in a transcript.
pub fn summarize(run: &Run, transcript: &Transcript) -> DecisionSummary {
    let times: Vec<u32> = (0..run.n())
        .filter(|&i| run.is_correct(i))
        .filter_map(|i| transcript.decision_time(i).map(Time::value))
        .collect();
    let correct = (0..run.n()).filter(|&i| run.is_correct(i)).count();
    DecisionSummary {
        earliest: times.iter().copied().min().unwrap_or(0),
        latest: times.iter().copied().max().unwrap_or(0),
        mean: if times.is_empty() {
            0.0
        } else {
            times.iter().copied().sum::<u32>() as f64 / times.len() as f64
        },
        decided: times.len(),
        correct,
    }
}

/// Runs every protocol on the same adversary and returns the transcripts
/// together with the (shared) run.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn run_sweep(
    protocols: &[Box<dyn Protocol>],
    params: &TaskParams,
    adversary: &Adversary,
) -> Result<(Run, Vec<Transcript>), ModelError> {
    let mut transcripts = Vec::with_capacity(protocols.len());
    let mut shared_run = None;
    for protocol in protocols {
        let (run, transcript) = execute(protocol.as_ref(), params, adversary.clone())?;
        shared_run.get_or_insert(run);
        transcripts.push(transcript);
    }
    Ok((shared_run.expect("at least one protocol"), transcripts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use set_consensus::{all_protocols, TaskVariant};
    use synchrony::{InputVector, SystemParams};

    #[test]
    fn table_formats_rows_and_headers() {
        let mut table = Table::new("demo", &["a", "bb"]);
        table.push(&[1, 22]);
        table.push(&[333, 4]);
        let text = table.to_string();
        assert!(text.contains("== demo =="));
        assert!(text.contains("333"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut table = Table::new("demo", &["a", "b"]);
        table.push(&[1]);
    }

    #[test]
    fn summarize_and_sweep_work_together() {
        let params = TaskParams::new(SystemParams::new(4, 2).unwrap(), 2).unwrap();
        let adversary = Adversary::failure_free(InputVector::from_values([2, 2, 1, 0])).unwrap();
        let protocols = all_protocols(TaskVariant::Nonuniform);
        let (run, transcripts) = run_sweep(&protocols, &params, &adversary).unwrap();
        assert_eq!(transcripts.len(), protocols.len());
        for transcript in &transcripts {
            let summary = summarize(&run, transcript);
            assert_eq!(summary.decided, summary.correct);
            assert!(summary.earliest <= summary.latest);
            assert!(summary.mean >= summary.earliest as f64);
        }
    }
}

//! The benchmark's own smoke test: every workload for one round
//! (`--seconds 0`), untraced and traced.  Each run must pass its
//! correctness gate, print a JSON result line naming exactly the metrics
//! `BENCHMARK.json` declares, and clean up after itself; the work
//! counters must repeat for a repeated seed.
//!
//! The workloads run the release-built checker at full size, so these
//! tests are skipped in debug builds: run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark directory")
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json = benchmark_json();
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_owned())
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> Output {
    // The daemons put their sockets and caches under the current
    // directory; keep them out of the source tree.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(leftovers.is_empty(), "{workload} left {leftovers:?} behind");
    output
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).unwrap()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the checker at full size; use --release")]
fn every_workload_passes_its_gate_and_reports_every_declared_metric() {
    for workload in declared("workloads") {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let output = run(&workload, 7, trace);
            let text = stdout(&output);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed: {text}{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = text.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
            let names = declared(section);
            let reported = last.matches("{\"value\": ").count();
            assert_eq!(reported, names.len(), "{workload}: exactly the declared metrics: {last}");
            for name in names {
                assert!(last.contains(&format!("\"{name}\": {{\"value\": ")), "{workload}: {name}");
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the checker at full size; use --release")]
fn work_counters_repeat_for_a_repeated_seed() {
    for workload in ["exhaustive", "fresh-patterns"] {
        let counts = |output: Output| -> Vec<String> {
            stdout(&output)
                .lines()
                .filter(|line| line.starts_with("counts "))
                .map(str::to_owned)
                .collect()
        };
        let first = counts(run(workload, 11, 0));
        assert!(!first.is_empty(), "{workload} prints its counters");
        assert_eq!(first, counts(run(workload, 11, 0)), "{workload}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nonesuch", "--seed", "1", "--seconds", "0", "--trace", "0"][..],
        &["--workload", "exhaustive", "--seed", "x", "--seconds", "0", "--trace", "0"],
        &["--workload", "exhaustive", "--seconds", "0"],
        &["--workload", "exhaustive", "--seed", "1", "--seconds", "0", "--trace", "2"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

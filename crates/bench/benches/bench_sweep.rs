//! Criterion benchmark: sweep-engine throughput — sequential vs parallel
//! shard execution on an exhaustive enumeration sweep, and the batched
//! executor vs the one-shot executor it replaces.
//!
//! On a machine with ≥ 4 cores the `sweep_scaling` group shows the ≥ 2×
//! speedup of `threads=4` over `threads=1` (the runs are independent and
//! the engine's only shared state is the shard cursor); the speedup is
//! capped by the core count.

use adversary::enumerate::{AdversarySpace, EnumerationConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use set_consensus::{
    check, execute, BatchRunner, EarlyFloodMin, FloodMin, Optmin, Protocol, TaskParams, TaskVariant,
};
use sweep::reduce::Count;
use sweep::source::ExhaustiveSource;
use sweep::{sweep, SweepConfig};
use synchrony::SystemParams;

fn exhaustive_source() -> ExhaustiveSource {
    // ~3.2k adversaries; one full sweep is a few tens of milliseconds.
    let scope =
        EnumerationConfig { n: 4, t: 2, max_value: 1, max_crash_round: 2, partial_delivery: false };
    let params = TaskParams::new(SystemParams::new(4, 2).unwrap(), 1).unwrap();
    ExhaustiveSource::new(AdversarySpace::new(scope).unwrap(), params, TaskVariant::Nonuniform)
        .unwrap()
}

fn bench_sweep_scaling(c: &mut Criterion) {
    let source = exhaustive_source();
    let mut group = c.benchmark_group("sweep_scaling");
    for threads in [1usize, 2, 4] {
        let config = SweepConfig { shards: 16, threads, ..SweepConfig::default() };
        group.bench_with_input(
            BenchmarkId::new("exhaustive_optmin", format!("threads{threads}")),
            &config,
            |b, config| {
                b.iter(|| {
                    let violations = sweep(&source, config, &Count, |runner, scenario| {
                        let (run, transcript) =
                            runner.execute_one(&Optmin, &scenario.params, &scenario.adversary)?;
                        Ok(check::check(run, transcript, &scenario.params, scenario.variant).len()
                            as u64)
                    })
                    .unwrap();
                    assert_eq!(violations, 0);
                });
            },
        );
    }
    group.finish();
}

fn bench_batched_executor(c: &mut Criterion) {
    let source = exhaustive_source();
    let adversaries: Vec<_> = (0..256u128).map(|i| source.space().nth(i)).collect();
    let params = TaskParams::new(SystemParams::new(4, 2).unwrap(), 1).unwrap();
    let mut group = c.benchmark_group("batched_executor");

    group.bench_with_input(
        BenchmarkId::new("one_shot", "3protocols_256advs"),
        &adversaries,
        |b, adversaries| {
            b.iter(|| {
                let protocols: [&dyn Protocol; 3] = [&Optmin, &EarlyFloodMin, &FloodMin];
                for adversary in adversaries {
                    for protocol in protocols {
                        let (_, transcript) =
                            execute(protocol, &params, adversary.clone()).unwrap();
                        std::hint::black_box(transcript);
                    }
                }
            });
        },
    );

    group.bench_with_input(
        BenchmarkId::new("batched", "3protocols_256advs"),
        &adversaries,
        |b, adversaries| {
            b.iter(|| {
                let protocols: [&dyn Protocol; 3] = [&Optmin, &EarlyFloodMin, &FloodMin];
                let mut runner = BatchRunner::new();
                for adversary in adversaries {
                    let (_, transcripts) =
                        runner.execute_batch(&protocols, &params, adversary).unwrap();
                    std::hint::black_box(transcripts.len());
                }
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_sweep_scaling, bench_batched_executor);
criterion_main!(benches);

//! Bench + regeneration harness for **Fig. 3** (branch coverage versus number
//! of tests on CVA6, Rocket and BOOM).
//!
//! Running `cargo bench --bench fig3_coverage_curves` first prints the
//! coverage-versus-tests series for every processor and fuzzer (the data
//! behind the three panels of Fig. 3), then measures the throughput of a
//! fixed-size coverage campaign per fuzzer on each core.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mabfuzz_bench::{
    campaign_config, campaign_spec, fig3, processor_with_native_bugs, Campaign, ExperimentBudget,
    FuzzerKind, LocalRunner, Parallelism, ShardPlan,
};
use proc_sim::ProcessorKind;

fn print_fig3_reproduction() {
    let budget = ExperimentBudget {
        coverage_tests: 800,
        detection_cap: 0,
        repetitions: 2,
        base_seed: 2024,
    };
    println!(
        "\n=== Fig. 3 reproduction ({} tests per campaign, {} repetitions) ===",
        budget.coverage_tests, budget.repetitions
    );
    let runner = LocalRunner::new(Parallelism::default());
    let result = fig3::run_for_on(&ProcessorKind::ALL, &budget, &ShardPlan::serial(), &runner)
        .expect("local runs cannot fail");
    for curves in &result.processors {
        println!("-- {} ({} coverage points) --", curves.processor, curves.space_len);
        println!("{}", result.to_table(curves.processor, 10));
    }
}

fn bench_coverage_campaigns(c: &mut Criterion) {
    print_fig3_reproduction();

    let mut group = c.benchmark_group("fig3_coverage_campaign");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    for core in ProcessorKind::ALL {
        for fuzzer in [FuzzerKind::TheHuzz, FuzzerKind::MabFuzz(mab::BanditKind::Ucb1)] {
            let id = BenchmarkId::new(core.name(), fuzzer.name());
            let spec = campaign_spec(fuzzer, campaign_config(100), 5, &ShardPlan::serial());
            group.bench_with_input(id, &(core, spec), |b, (core, spec)| {
                b.iter(|| {
                    Campaign::from_spec_on(processor_with_native_bugs(*core), spec)
                        .expect("valid spec")
                        .execute()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_coverage_campaigns);
criterion_main!(benches);

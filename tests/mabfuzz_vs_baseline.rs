//! Cross-crate integration test: the qualitative claims of the paper hold on
//! the simulated substrate — MABFuzz keeps up with or beats the static
//! baseline on coverage under an equal test budget, and its dynamic seed
//! scheduling actually exercises the reset machinery.

use std::sync::Arc;

use mabfuzz_suite::fuzzer::{CampaignConfig, TheHuzzFuzzer};
use mabfuzz_suite::mab::BanditKind;
use mabfuzz_suite::mabfuzz::{Campaign, CampaignSpec, MabFuzzOutcome};
use mabfuzz_suite::proc_sim::{Processor, ProcessorKind};

const TESTS: u64 = 500;

fn campaign() -> CampaignConfig {
    CampaignConfig {
        max_tests: TESTS,
        max_steps_per_test: 250,
        sample_interval: 25,
        ..CampaignConfig::default()
    }
}

fn target(kind: ProcessorKind) -> Arc<dyn Processor> {
    Arc::from(kind.build_with_native_bugs())
}

/// Runs a paper-default MABFuzz campaign of `kind` over `campaign`.
fn mabfuzz(
    core: ProcessorKind,
    kind: BanditKind,
    campaign: CampaignConfig,
    seed: u64,
) -> MabFuzzOutcome {
    let spec = CampaignSpec::builder()
        .algorithm(kind)
        .campaign(campaign)
        .rng_seed(seed)
        .build()
        .expect("valid spec");
    Campaign::from_spec_on(target(core), &spec).expect("valid spec").execute()
}

#[test]
fn some_mabfuzz_variant_matches_or_beats_the_baseline_on_cva6_coverage() {
    // CVA6 is the design with the most headroom (lowest baseline coverage in
    // the paper); at least one MABFuzz algorithm should reach at least the
    // baseline's coverage under the same budget. Like the paper's evaluation,
    // the comparison averages independent repetitions — any single seed can
    // favour either side on a budget this small.
    const SEEDS: [u64; 3] = [21, 22, 23];
    let baseline: usize = SEEDS
        .iter()
        .map(|&seed| {
            TheHuzzFuzzer::new(target(ProcessorKind::Cva6), campaign(), seed)
                .run()
                .final_coverage()
        })
        .sum();
    let mut best = 0usize;
    for kind in BanditKind::ALL {
        let total: usize = SEEDS
            .iter()
            .map(|&seed| {
                mabfuzz(ProcessorKind::Cva6, kind, campaign(), seed).stats.final_coverage()
            })
            .sum();
        best = best.max(total);
    }
    assert!(
        best * 100 >= baseline * 98,
        "best MABFuzz mean coverage {best} fell more than 2% short of the baseline {baseline}"
    );
}

#[test]
fn mabfuzz_resets_arms_during_long_campaigns() {
    let config =
        CampaignConfig { max_tests: TESTS, max_steps_per_test: 250, ..CampaignConfig::default() };
    let outcome = mabfuzz(ProcessorKind::Rocket, BanditKind::Ucb1, config, 8);
    assert!(
        outcome.total_resets > 0,
        "a {TESTS}-test campaign with gamma=3 should hit saturated arms"
    );
    // Resets replace seeds, so the arms' lifetime pull counts must still sum
    // to at least the number of executed tests.
    let pulls: u64 = outcome.arms.iter().map(|arm| arm.pulls).sum();
    assert!(pulls >= outcome.stats.tests_executed());
}

#[test]
fn equal_budgets_are_enforced_for_a_fair_comparison() {
    let baseline = TheHuzzFuzzer::new(target(ProcessorKind::Boom), campaign(), 2).run();
    let outcome = mabfuzz(ProcessorKind::Boom, BanditKind::EpsilonGreedy, campaign(), 2);
    assert_eq!(baseline.tests_executed(), TESTS);
    assert_eq!(outcome.stats.tests_executed(), TESTS);
    // BOOM is the design with the least headroom: both fuzzers should end up
    // in the same coverage ballpark (within 20% of each other under this
    // short budget), mirroring the paper's observation that there is little
    // room for improvement there.
    let a = baseline.final_coverage() as f64;
    let b = outcome.stats.final_coverage() as f64;
    assert!((a - b).abs() / a < 0.20, "baseline {a} vs MABFuzz {b} diverged unexpectedly far");
}

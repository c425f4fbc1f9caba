//! The sharded campaign's headline guarantee, exhaustively: for every core
//! (rocket / cva6 / boom) × bandit (ε-greedy / UCB1 / EXP3), the **full
//! campaign report** — coverage series, cumulative history, rewards as
//! observed through the final bandit-driven arm statistics, detections and
//! reset counts — is byte-identical for 1, 2, 3, 4 and 7 shards.
//!
//! The suite pins the three rules of the determinism contract documented in
//! `fuzzer::shard`: per-test RNG streams derived from
//! `(campaign_seed, round, test_index)`, a pure simulation map, and a
//! reduction folded in `test_index` order. If any of them breaks, some
//! (core, bandit, shard-count) cell here diverges from its 1-shard
//! reference.
//!
use std::sync::Arc;

use mabfuzz_suite::mab::BanditKind;
use mabfuzz_suite::mabfuzz::{Campaign, CampaignSpec, CampaignSpecBuilder, MabFuzzOutcome};
use mabfuzz_suite::proc_sim::{BugSet, Processor, ProcessorKind, Vulnerability};

/// Batch size shared by every plan in the suite: cross-shard-count
/// equivalence only holds at a fixed batch size.
const BATCH: usize = 5;

/// Campaign budget: small enough that the full 3×3×4 grid stays fast, large
/// enough that every campaign goes through refills, interesting-test
/// mutations and (with γ=2) arm resets.
const MAX_TESTS: u64 = 45;

/// Shard counts every campaign is compared across.
const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 4, 7];

/// Runs the campaign `spec` describes on `processor`, split across `shards`
/// shard workers at the suite's fixed batch size.
fn run_sharded(
    processor: Arc<dyn Processor>,
    spec: CampaignSpecBuilder,
    shards: usize,
) -> MabFuzzOutcome {
    let spec = spec.shards(shards).batch_size(BATCH).build().expect("valid spec");
    Campaign::from_spec_on(processor, &spec).expect("valid spec").execute()
}

fn campaign(core: ProcessorKind, kind: BanditKind, shards: usize) -> MabFuzzOutcome {
    let spec = CampaignSpec::builder()
        .algorithm(kind)
        .arms(4)
        .gamma(2)
        .max_tests(MAX_TESTS)
        .max_steps_per_test(200)
        .sample_interval(5)
        .mutations_per_interesting_test(2)
        .rng_seed(0xD15E + core as u64);
    run_sharded(Arc::from(core.build(BugSet::none())), spec, shards)
}

#[test]
fn campaign_reports_are_byte_identical_across_shard_counts() {
    for core in ProcessorKind::ALL {
        for kind in BanditKind::ALL {
            let reference = campaign(core, kind, 1);
            assert_eq!(reference.stats.tests_executed(), MAX_TESTS, "{core} {kind}");
            assert!(reference.stats.final_coverage() > 0, "{core} {kind}");
            for shards in SHARD_COUNTS {
                let sharded = campaign(core, kind, shards);
                // Structured equality over the whole outcome first …
                assert_eq!(
                    reference, sharded,
                    "{core} × {kind}: {shards} shards diverged from the 1-shard reference"
                );
                // … then byte equality of the rendered report, which also
                // covers formatting-relevant state the derives might not.
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{sharded:?}"),
                    "{core} × {kind}: rendered report differs at {shards} shards"
                );
                // Spot-check the order-sensitive pieces explicitly so a
                // future PartialEq change cannot silently weaken the suite.
                assert_eq!(
                    reference.stats.cumulative().history(),
                    sharded.stats.cumulative().history(),
                    "{core} × {kind}: per-test coverage history differs at {shards} shards"
                );
                assert_eq!(
                    reference.stats.series().points(),
                    sharded.stats.series().points(),
                    "{core} × {kind}: coverage series differs at {shards} shards"
                );
                assert_eq!(reference.stats.detections(), sharded.stats.detections());
                assert_eq!(reference.total_resets, sharded.total_resets);
            }
        }
    }
}

/// Detection-mode campaigns (the Table I shape: stop at the first
/// architectural mismatch) are equally shard-count independent, including
/// *which* test number detects the bug.
#[test]
fn detection_campaigns_are_byte_identical_across_shard_counts() {
    let run = |shards: usize| {
        let processor: Arc<dyn Processor> =
            Arc::from(ProcessorKind::Cva6.build(BugSet::only(Vulnerability::V5MissingAccessFault)));
        let spec = CampaignSpec::builder()
            .algorithm(BanditKind::Ucb1)
            .arms(4)
            .max_tests(600)
            .max_steps_per_test(200)
            .stop_on_first_detection(true)
            .rng_seed(3);
        run_sharded(processor, spec, shards)
    };
    let reference = run(1);
    let detection =
        reference.stats.first_detection().expect("V5 must be detected within the budget");
    assert_eq!(reference.stats.tests_executed(), detection);
    for shards in SHARD_COUNTS {
        let sharded = run(shards);
        assert_eq!(reference, sharded, "{shards} shards changed the detection outcome");
        assert_eq!(sharded.stats.first_detection(), Some(detection));
    }
}

/// The same campaign at two different batch sizes is *not* expected to
/// match — batching is a deliberate change of the RNG contract. This guard
/// documents that asymmetry so nobody "fixes" the equivalence suite by
/// comparing across batch sizes.
#[test]
fn equivalence_holds_per_batch_size_not_across() {
    let processor = || -> Arc<dyn Processor> {
        Arc::from(ProcessorKind::Rocket.build(BugSet::none()))
    };
    let run = |batch: usize| {
        let spec = CampaignSpec::builder()
            .algorithm(BanditKind::EpsilonGreedy)
            .arms(4)
            .max_tests(40)
            .max_steps_per_test(200)
            .rng_seed(11)
            .shards(2)
            .batch_size(batch)
            .build()
            .expect("valid spec");
        Campaign::from_spec_on(processor(), &spec).expect("valid spec").execute()
    };
    let small = run(2);
    let large = run(8);
    assert_eq!(small.stats.tests_executed(), large.stats.tests_executed());
    assert_ne!(
        small.stats.cumulative().history(),
        large.stats.cumulative().history(),
        "different batch sizes are different campaigns by design"
    );
}

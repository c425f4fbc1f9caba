//! Cross-crate integration test: complete fuzzing campaigns (baseline and
//! MABFuzz) detect injected vulnerabilities end to end, and never report
//! mismatches on bug-free designs.

use std::sync::Arc;

use mabfuzz_suite::fuzzer::{CampaignConfig, TheHuzzFuzzer};
use mabfuzz_suite::mab::BanditKind;
use mabfuzz_suite::mabfuzz::{Campaign, CampaignSpec, MabFuzzOutcome};
use mabfuzz_suite::proc_sim::{BugSet, Processor, ProcessorKind, Vulnerability};

/// Runs a paper-default MABFuzz campaign of `kind` over `campaign`.
fn mabfuzz(
    processor: Arc<dyn Processor>,
    kind: BanditKind,
    campaign: CampaignConfig,
    rng_seed: u64,
) -> MabFuzzOutcome {
    let spec = CampaignSpec::builder()
        .algorithm(kind)
        .campaign(campaign)
        .rng_seed(rng_seed)
        .build()
        .expect("valid spec");
    Campaign::from_spec_on(processor, &spec).expect("valid spec").execute()
}

fn detection_campaign(max_tests: u64) -> CampaignConfig {
    CampaignConfig {
        max_tests,
        max_steps_per_test: 250,
        stop_on_first_detection: true,
        ..CampaignConfig::default()
    }
}

fn cva6_with(vulnerability: Vulnerability) -> Arc<dyn Processor> {
    Arc::from(ProcessorKind::Cva6.build(BugSet::only(vulnerability)))
}

#[test]
fn thehuzz_detects_the_easy_vulnerabilities() {
    for vulnerability in [Vulnerability::V5MissingAccessFault, Vulnerability::V6UnimplCsrJunk] {
        let stats =
            TheHuzzFuzzer::new(cva6_with(vulnerability), detection_campaign(1500), 2).run();
        assert!(
            stats.first_detection().is_some(),
            "TheHuzz failed to detect {vulnerability} within 1500 tests"
        );
    }
}

#[test]
fn every_mabfuzz_algorithm_detects_an_easy_vulnerability() {
    for kind in BanditKind::ALL {
        let outcome = mabfuzz(
            cva6_with(Vulnerability::V5MissingAccessFault),
            kind,
            detection_campaign(1500),
            5,
        );
        assert!(
            outcome.stats.first_detection().is_some(),
            "MABFuzz ({kind}) failed to detect V5 within 1500 tests"
        );
    }
}

#[test]
fn detection_stops_the_campaign_immediately() {
    let stats = TheHuzzFuzzer::new(
        cva6_with(Vulnerability::V6UnimplCsrJunk),
        detection_campaign(2000),
        9,
    )
    .run();
    if let Some(first) = stats.first_detection() {
        assert_eq!(stats.tests_executed(), first);
    }
}

#[test]
fn bug_free_campaigns_stay_clean() {
    // A bug-free BOOM: long campaign, not a single mismatch allowed.
    let processor: Arc<dyn Processor> = Arc::from(ProcessorKind::Boom.build(BugSet::none()));
    let config = CampaignConfig {
        max_tests: 300,
        max_steps_per_test: 250,
        ..CampaignConfig::default()
    };
    let baseline = TheHuzzFuzzer::new(processor.clone(), config.clone(), 4).run();
    assert_eq!(baseline.mismatching_tests(), 0);

    let outcome = mabfuzz(processor, BanditKind::Exp3, config, 4);
    assert_eq!(outcome.stats.mismatching_tests(), 0);
}

#[test]
fn campaign_statistics_are_internally_consistent() {
    let config =
        CampaignConfig { max_tests: 200, max_steps_per_test: 250, ..CampaignConfig::default() };
    let outcome = mabfuzz(
        Arc::from(ProcessorKind::Rocket.build_with_native_bugs()),
        BanditKind::Ucb1,
        config,
        13,
    );
    let stats = &outcome.stats;
    assert_eq!(stats.tests_executed(), 200);
    // The coverage series ends at the cumulative coverage.
    assert_eq!(stats.series().final_coverage(), stats.final_coverage());
    // History is monotone and bounded by the space size.
    let history = stats.cumulative().history();
    assert!(history.windows(2).all(|w| w[1] >= w[0]));
    // Every test was pulled from some arm.
    let pulls: u64 = outcome.arms.iter().map(|arm| arm.pulls).sum();
    assert!(pulls >= stats.tests_executed());
}

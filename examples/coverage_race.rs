//! Coverage race: run all four fuzzers with the same test budget on one of
//! the simulated cores and print their coverage curves side by side — a
//! one-processor slice of the paper's Fig. 3 and Fig. 4.
//!
//! ```sh
//! cargo run --example coverage_race                 # defaults to cva6
//! cargo run --example coverage_race rocket 800      # core and test budget
//! ```

use std::env;

use fuzzer::{CampaignConfig, CampaignStats};
use mab::BanditKind;
use mabfuzz::{BugSpec, Campaign, CampaignSpec, PolicySpec};
use proc_sim::ProcessorKind;

fn main() {
    let core_kind = env::args()
        .nth(1)
        .and_then(|arg| ProcessorKind::parse(&arg))
        .unwrap_or(ProcessorKind::Cva6);
    let budget: u64 = env::args().nth(2).and_then(|arg| arg.parse().ok()).unwrap_or(600);

    let space = core_kind.build_with_native_bugs().coverage_space().len();
    println!("coverage race on {core_kind} ({space} coverage points, {budget} tests per fuzzer)\n");

    let campaign = CampaignConfig {
        max_tests: budget,
        max_steps_per_test: 300,
        sample_interval: (budget / 10).max(1),
        ..CampaignConfig::default()
    };
    let run = |policy: PolicySpec| {
        let spec = CampaignSpec::builder()
            .policy(policy)
            .campaign(campaign.clone())
            .rng_seed(3)
            .processor(core_kind, BugSpec::Native)
            .build()
            .expect("valid spec");
        Campaign::from_spec(&spec).expect("valid spec").execute().stats
    };

    let results: Vec<CampaignStats> = std::iter::once(PolicySpec::Baseline)
        .chain(BanditKind::ALL.map(PolicySpec::Bandit))
        .map(run)
        .collect();

    // Print the coverage curve samples side by side.
    println!("{:>8} {:>12} {:>12} {:>12} {:>12}", "#tests", "TheHuzz", "eps-greedy", "UCB", "EXP3");
    for point in results[0].series().downsample(10).points() {
        print!("{:>8}", point.tests);
        for stats in &results {
            print!(" {:>12}", stats.series().coverage_at(point.tests));
        }
        println!();
    }

    println!();
    let baseline_final = results[0].final_coverage();
    let baseline_to_final = results[0].tests_to_reach(baseline_final).unwrap_or(budget);
    for stats in &results {
        let speedup = stats
            .tests_to_reach(baseline_final)
            .map(|tests| baseline_to_final as f64 / tests as f64);
        let increment =
            (stats.final_coverage() as f64 - baseline_final as f64) / baseline_final as f64 * 100.0;
        println!(
            "{:<24} final coverage {:>6} ({:>6.2}% of the space)  speedup {}  increment {:+.2}%",
            stats.label(),
            stats.final_coverage(),
            stats.cumulative().ratio() * 100.0,
            speedup.map_or("   n/a".to_owned(), |s| format!("{s:5.2}x")),
            increment,
        );
    }
}

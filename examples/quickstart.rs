//! Quickstart: fuzz a simulated Rocket core with MABFuzz for a few hundred
//! tests and print what happened.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use mab::BanditKind;
use mabfuzz::{Campaign, CampaignSpec};
use proc_sim::{cores::RocketCore, Processor};

fn main() {
    // The Rocket model with its paper-native vulnerability (V7: `ebreak` does
    // not increment the retired-instruction counter).
    let processor = Arc::new(RocketCore::with_native_bugs());
    println!(
        "target: {} ({} branch-coverage points, {})",
        processor.name(),
        processor.coverage_space().len(),
        processor.bugs()
    );

    // Paper-default MABFuzz configuration: 10 arms, alpha = 0.25, gamma = 3,
    // UCB as the bandit algorithm.
    let spec = CampaignSpec::builder()
        .algorithm(BanditKind::Ucb1)
        .max_tests(400)
        .rng_seed(42)
        .build()
        .expect("valid spec");
    let outcome = Campaign::from_spec_on(processor, &spec).expect("valid spec").execute();

    println!("\n{}", outcome.stats);
    println!("arm resets during the campaign: {}", outcome.total_resets);
    println!("\nper-arm activity:");
    for arm in &outcome.arms {
        println!(
            "  arm {:>2}: {:>4} pulls, {:>2} resets, {:>5} local coverage points",
            arm.index, arm.pulls, arm.resets, arm.final_local_coverage
        );
    }

    match outcome.stats.first_detection() {
        Some(test_number) => {
            println!("\nfirst architectural mismatch detected at test #{test_number}:");
            println!("  {}", outcome.stats.detections()[0].summary);
        }
        None => println!(
            "\nno architectural mismatch within the budget — try more tests \
             (the V7 bug needs an ebreak followed by a counter read)"
        ),
    }
}

//! The MABFuzz orchestrator of Fig. 2: the campaign loop behind every
//! bandit-driven [`Campaign`](crate::Campaign).
//!
//! One MABFuzz iteration (one "pull") follows Fig. 2 of the paper:
//!
//! 1. the bandit selects an arm,
//! 2. the next test from that arm's pool is simulated on the DUT and the
//!    golden model (differential testing),
//! 3. the test's coverage is folded into the arm-local and global coverage,
//!    yielding `|cov_L|` and `|cov_G|`,
//! 4. if the test found new coverage it is mutated and its children join the
//!    arm's pool,
//! 5. the reward `α·|cov_L| + (1 − α)·|cov_G|` (normalised for EXP3) updates
//!    the bandit,
//! 6. the γ-window monitor decides whether the arm is depleted; if so the arm
//!    is reset: fresh seed, cleared pool and local coverage, and re-initialised
//!    bandit statistics.
//!
//! Everything the loop needs — α, γ, the arm count, the label, the
//! `CampaignConfig`, the RNG seed and the shard plan — is read from the
//! validated [`CampaignSpec`]; the harness and bandit come from
//! [`Campaign::from_spec`](crate::Campaign::from_spec) /
//! [`from_spec_on`](crate::Campaign::from_spec_on).

use std::sync::Arc;

use coverage::CoverageMap;
use fuzzer::shard::derive_stream_seed;
use fuzzer::{
    CampaignStats, DiffReport, ExecScratch, FuzzHarness, MutationEngine, SeedGenerator, ShardPool,
    TestCase,
};
use mab::Bandit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use riscv::Program;

use crate::arm::Arm;
use crate::campaign::{ArmSummary, MabFuzzOutcome};
use crate::cancel::CancelToken;
use crate::monitor::SaturationMonitor;
use crate::observer::{
    ArmReset, ArmSelected, BatchFolded, CampaignFinished, CampaignObserver, CoverageMilestone,
    DecileTracker, DetectionObserved, TestFolded,
};
use crate::reward::RewardParams;
use crate::spec::CampaignSpec;

/// The MABFuzz campaign loop (Fig. 2 of the paper, batched): select an arm,
/// assemble the round's batch, simulate it (in place or across the shard
/// pool), fold the outcomes in `test_index` order.
///
/// # Panics
///
/// Panics if the bandit does not have exactly one arm per seed — campaign
/// assembly rejects such policies up front with
/// [`SpecError::ArmCountMismatch`](crate::SpecError::ArmCountMismatch).
pub(crate) fn execute_mab(
    harness: &FuzzHarness,
    bandit: Box<dyn Bandit>,
    spec: &CampaignSpec,
    observers: Vec<Box<dyn CampaignObserver>>,
    cancel: Option<&CancelToken>,
) -> MabFuzzOutcome {
    assert_eq!(bandit.arms(), spec.arms(), "the bandit must have exactly one arm per seed");
    let campaign = &spec.campaign;
    let plan = spec.plan();
    let label = format!("{} on {}", spec.label(), harness.processor().name());
    let space_len = harness.coverage_space_len();
    let max_tests = campaign.max_tests;
    let campaign_seed = spec.rng_seed;
    // Per-test derived RNG streams are a batched-mode feature; the
    // batch-size-1 plan keeps every draw on the main RNG so the serial plan
    // reproduces the pre-sharding serial campaigns byte for byte.
    let legacy_stream = plan.batch_size() == 1;
    let pool = (plan.shards() > 1).then(|| ShardPool::new(harness, plan.shards()));
    let mut scratch = ExecScratch::new();

    let mut fold = CampaignFold {
        stats: CampaignStats::new(label, space_len, campaign.sample_interval),
        arms: Vec::new(),
        monitor: SaturationMonitor::new(spec.arms(), spec.gamma),
        bandit,
        rng: StdRng::seed_from_u64(campaign_seed),
        seeds: SeedGenerator::new(campaign.generator.clone()),
        mutator: MutationEngine::new(campaign.generator.clone()),
        reward_params: RewardParams::new(spec.alpha),
        space_len,
        mutations_per_interesting_test: campaign.mutations_per_interesting_test,
        stop_on_first_detection: campaign.stop_on_first_detection,
        total_resets: 0,
        pending_rewards: Vec::with_capacity(plan.batch_size()),
        arm_index: 0,
        round: 0,
        round_tests: 0,
        deciles: DecileTracker::new(space_len),
        observers,
    };
    // One seed per arm (Fig. 2: "Given a seed pool with each seed
    // corresponding to an arm").
    fold.arms = (0..spec.arms())
        .map(|index| Arm::new(index, fold.seeds.generate_seed(&mut fold.rng), space_len))
        .collect();

    let mut round: u64 = 0;
    while fold.stats.tests_executed() < max_tests {
        // Cooperative cancellation cuts the campaign at a round (fold)
        // boundary: every round that started folds completely, so the event
        // stream so far is a strict prefix of the uncancelled stream.
        if let Some(token) = cancel {
            if token.is_cancelled() {
                token.mark_interrupted();
                break;
            }
        }
        let remaining =
            usize::try_from(max_tests - fold.stats.tests_executed()).unwrap_or(usize::MAX);
        let batch_len = plan.batch_size().min(remaining);

        // 1. Select the round's arm.
        fold.begin_round(round, batch_len);

        // Derived per-test streams for this round (batched mode only).
        let mut lanes: Vec<StdRng> = if legacy_stream {
            Vec::new()
        } else {
            (0..batch_len)
                .map(|index| {
                    StdRng::seed_from_u64(derive_stream_seed(campaign_seed, round, index as u64))
                })
                .collect()
        };

        // 2. Assemble the batch before the fork: pool pops and refills
        //    happen serially, so batch contents are shard-independent.
        let batch = fold.assemble_batch(batch_len, &mut lanes);

        // 3. Simulate — fork/join across the shard pool, or in place on
        //    the campaign thread — and 4. fold in test order.
        let stopped = match &pool {
            Some(pool) => {
                let programs: Arc<Vec<Program>> =
                    Arc::new(batch.iter().map(|test| test.program.clone()).collect());
                let outcomes = pool.simulate(&programs);
                let mut stopped = false;
                for (slot, (test, outcome)) in batch.iter().zip(&outcomes).enumerate() {
                    if fold.fold_test(test, &outcome.coverage, &outcome.diff, lanes.get_mut(slot)) {
                        stopped = true;
                        break;
                    }
                }
                // Hand the batch's outcome buffers back to the workers so
                // the next round reuses their allocations (coverage bitmap,
                // diff vector) instead of cloning afresh per test.
                pool.recycle(outcomes);
                stopped
            }
            None => {
                let mut stopped = false;
                for (slot, test) in batch.iter().enumerate() {
                    let view = harness.run_program_into(&test.program, &mut scratch);
                    if fold.fold_test(test, view.coverage, view.diff, lanes.get_mut(slot)) {
                        stopped = true;
                        break;
                    }
                }
                stopped
            }
        };
        fold.flush_rewards();
        fold.finish_round();
        if stopped {
            break;
        }
        round += 1;
    }

    fold.stats.finish();
    let arm_summaries = fold
        .arms
        .iter()
        .map(|arm| ArmSummary {
            index: arm.index(),
            pulls: arm.total_pulls(),
            resets: arm.resets(),
            final_local_coverage: arm.local_coverage().count(),
        })
        .collect();
    // An interrupted campaign's stream stays a strict prefix of the full
    // run's stream: the finished event is withheld (see `cancel`).
    if !cancel.is_some_and(CancelToken::was_interrupted) {
        let finished = CampaignFinished {
            tests_executed: fold.stats.tests_executed(),
            final_coverage: fold.stats.final_coverage(),
            total_resets: fold.total_resets,
        };
        for observer in &mut fold.observers {
            observer.campaign_finished(&finished);
        }
    }
    MabFuzzOutcome { stats: fold.stats, arms: arm_summaries, total_resets: fold.total_resets }
}

/// The serial half of a campaign round: everything the ordered reduction
/// mutates, gathered so the fold runs identically whether outcomes arrive
/// from the campaign thread (1 shard) or from the shard pool.
///
/// The fold *is* the built-in observer: its direct `stats` bookkeeping
/// performs exactly what `impl CampaignObserver for CampaignStats` performs,
/// and every attached observer receives the corresponding event right after
/// the reduction step it describes.
struct CampaignFold {
    stats: CampaignStats,
    arms: Vec<Arm>,
    monitor: SaturationMonitor,
    bandit: Box<dyn Bandit>,
    rng: StdRng,
    seeds: SeedGenerator,
    mutator: MutationEngine,
    reward_params: RewardParams,
    space_len: usize,
    mutations_per_interesting_test: usize,
    stop_on_first_detection: bool,
    total_resets: u64,
    pending_rewards: Vec<f64>,
    arm_index: usize,
    round: u64,
    round_tests: usize,
    deciles: DecileTracker,
    observers: Vec<Box<dyn CampaignObserver>>,
}

impl CampaignFold {
    /// Starts a round: the bandit picks the arm the whole batch pulls.
    fn begin_round(&mut self, round: u64, batch_len: usize) {
        self.arm_index = self.bandit.select(&mut self.rng);
        self.round = round;
        self.round_tests = 0;
        if !self.observers.is_empty() {
            let event = ArmSelected { round, arm: self.arm_index, batch_len };
            for observer in &mut self.observers {
                observer.arm_selected(&event);
            }
        }
    }

    /// Ends a round after its rewards were flushed.
    fn finish_round(&mut self) {
        if !self.observers.is_empty() {
            let event =
                BatchFolded { round: self.round, arm: self.arm_index, tests: self.round_tests };
            for observer in &mut self.observers {
                observer.batch_folded(&event);
            }
        }
    }

    /// Pops the round's batch from the selected arm's pool, refilling an
    /// empty pool by mutating the arm's seed. Refill randomness comes from
    /// the slot's derived lane when one exists (batched rounds) and from
    /// the main RNG otherwise (the legacy batch-size-1 stream).
    fn assemble_batch(&mut self, batch_len: usize, lanes: &mut [StdRng]) -> Vec<TestCase> {
        let mut batch = Vec::with_capacity(batch_len);
        for slot in 0..batch_len {
            let arm = &mut self.arms[self.arm_index];
            let test = match arm.next_test() {
                Some(test) => test,
                None => {
                    let rng = match lanes.get_mut(slot) {
                        Some(lane) => lane,
                        None => &mut self.rng,
                    };
                    let (mutant, _) = self.mutator.mutate(&arm.seed().program, rng);
                    let child = self.seeds.adopt_child(&arm.seed().clone(), mutant);
                    arm.pool_mut().push(child);
                    arm.next_test().expect("pool was just refilled")
                }
            };
            batch.push(test);
        }
        batch
    }

    /// Folds one simulated test into the campaign state, in `test_index`
    /// order. Returns `true` when the campaign must stop (detection mode
    /// hit a mismatch); the remaining outcomes of the round are then
    /// discarded unrecorded, exactly like the tests a serial campaign would
    /// never have simulated.
    fn fold_test(
        &mut self,
        test: &TestCase,
        coverage: &CoverageMap,
        diff: &DiffReport,
        lane: Option<&mut StdRng>,
    ) -> bool {
        // Global novelty first (cov_G), then the arm-local novelty
        // (cov_L ⊇ cov_G). Only the counts are needed for the reward, so no
        // id vectors are materialised.
        let detected = !diff.is_clean();
        let global_new = self.stats.record_test_count(test.id, coverage, diff);
        let local_new = self.arms[self.arm_index].absorb_coverage(coverage);
        self.round_tests += 1;

        if self.stop_on_first_detection && detected {
            self.emit_test_events(test, coverage, diff, local_new, global_new, 0.0, detected);
            return true;
        }

        // Mutate interesting tests into the arm's pool.
        if local_new > 0 {
            let mutation_count = self.mutations_per_interesting_test;
            let CampaignFold { rng, seeds, mutator, arms, arm_index, .. } = self;
            let rng = match lane {
                Some(lane) => lane,
                None => rng,
            };
            for _ in 0..mutation_count {
                let (mutant, _) = mutator.mutate(&test.program, rng);
                let child = seeds.adopt_child(test, mutant);
                arms[*arm_index].pool_mut().push(child);
            }
        }

        // Queue the reward; the round flush (or a reset) folds the pending
        // rewards into the bandit in order via `update_batch`.
        let reward = self.reward_params.policy_reward(
            self.bandit.kind(),
            local_new,
            global_new,
            self.space_len,
        );
        self.pending_rewards.push(reward);
        self.emit_test_events(test, coverage, diff, local_new, global_new, reward, detected);

        // Reset saturated arms. Pending rewards are flushed first so the
        // bandit observes update-then-reset in the same order as a serial
        // campaign.
        if self.monitor.record(self.arm_index, local_new) {
            self.flush_rewards();
            let fresh = self.seeds.generate_seed(&mut self.rng);
            self.arms[self.arm_index].reset(fresh);
            self.bandit.reset_arm(self.arm_index);
            self.monitor.reset_arm(self.arm_index);
            self.total_resets += 1;
            if !self.observers.is_empty() {
                let event = ArmReset {
                    arm: self.arm_index,
                    test_number: self.stats.tests_executed(),
                    total_resets: self.total_resets,
                };
                for observer in &mut self.observers {
                    observer.arm_reset(&event);
                }
            }
        }
        false
    }

    /// Streams the per-test events (test folded, detection, coverage
    /// milestone) to the attached observers.
    #[allow(clippy::too_many_arguments)]
    fn emit_test_events(
        &mut self,
        test: &TestCase,
        coverage: &CoverageMap,
        diff: &DiffReport,
        local_new: usize,
        global_new: usize,
        reward: f64,
        detected: bool,
    ) {
        // Observer-less campaigns (the whole experiment grid, the golden
        // runs, the benches) skip all event bookkeeping: observers can only
        // attach before `execute()` consumes the campaign, so nothing can
        // ever observe state tracked while this list is empty.
        if self.observers.is_empty() {
            return;
        }
        let covered = self.stats.final_coverage();
        let crossed = self.deciles.crossed(covered);
        let test_number = self.stats.tests_executed();
        let event = TestFolded {
            test_number,
            test_id: test.id,
            arm: self.arm_index,
            local_new,
            global_new,
            covered,
            reward,
            detected,
            coverage,
            diff,
        };
        for observer in &mut self.observers {
            observer.test_folded(&event);
        }
        if detected {
            let event = DetectionObserved {
                test_number,
                test_id: test.id,
                arm: self.arm_index,
                diff,
            };
            for observer in &mut self.observers {
                observer.detection(&event);
            }
        }
        for decile in crossed {
            let event = CoverageMilestone {
                decile,
                covered,
                space_len: self.space_len,
                test_number,
            };
            for observer in &mut self.observers {
                observer.coverage_milestone(&event);
            }
        }
    }

    /// Folds the queued rewards of the current round into the bandit, in
    /// `test_index` order.
    fn flush_rewards(&mut self) {
        if !self.pending_rewards.is_empty() {
            self.bandit.update_batch(self.arm_index, &self.pending_rewards);
            self.pending_rewards.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use fuzzer::ShardPlan;
    use mab::BanditKind;
    use proc_sim::cores::{Cva6Core, RocketCore};
    use proc_sim::{BugSet, Processor, Vulnerability};

    use crate::campaign::Campaign;
    use crate::spec::PolicySpec;

    fn quick_spec(kind: BanditKind, max_tests: u64) -> CampaignSpec {
        CampaignSpec::builder()
            .algorithm(kind)
            .arms(4)
            .max_tests(max_tests)
            .max_steps_per_test(200)
            .mutations_per_interesting_test(2)
            .sample_interval(5)
            .rng_seed(3)
            .build()
            .expect("valid spec")
    }

    fn on_rocket(spec: &CampaignSpec) -> MabFuzzOutcome {
        Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), spec)
            .expect("valid spec")
            .execute()
    }

    fn v5_cva6() -> Arc<dyn Processor> {
        Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault)))
    }

    #[test]
    fn campaign_runs_to_the_test_budget_for_every_algorithm() {
        for kind in BanditKind::ALL {
            let outcome = on_rocket(&quick_spec(kind, 25));
            assert_eq!(outcome.stats.tests_executed(), 25, "{kind}");
            assert!(outcome.stats.final_coverage() > 100, "{kind}");
            assert_eq!(outcome.arms.len(), 4);
            let pulls: u64 = outcome.arms.iter().map(|a| a.pulls).sum();
            assert!(pulls >= 25, "every executed test is a pull of some arm");
        }
    }

    #[test]
    fn campaigns_are_reproducible_per_rng_seed() {
        let spec = CampaignSpec { rng_seed: 11, ..quick_spec(BanditKind::Ucb1, 20) };
        let first = on_rocket(&spec);
        assert_eq!(first, on_rocket(&spec), "same spec, same outcome");
        let other = on_rocket(&CampaignSpec { rng_seed: 12, ..spec });
        assert_ne!(first.stats.cumulative().history(), other.stats.cumulative().history());
    }

    #[test]
    fn saturated_arms_get_reset_in_long_campaigns() {
        let mut spec = quick_spec(BanditKind::EpsilonGreedy, 120);
        spec.gamma = 2;
        spec.campaign.mutations_per_interesting_test = 1;
        spec.rng_seed = 5;
        let outcome = on_rocket(&spec);
        assert!(outcome.total_resets > 0, "a 120-test campaign with gamma=2 must reset arms");
        let resets_from_arms: u64 = outcome.arms.iter().map(|a| a.resets).sum();
        assert_eq!(resets_from_arms, outcome.total_resets);
    }

    #[test]
    fn detection_mode_stops_on_the_first_mismatch() {
        let mut spec = quick_spec(BanditKind::Ucb1, 400);
        spec.campaign.stop_on_first_detection = true;
        spec.rng_seed = 2;
        let outcome = Campaign::from_spec_on(v5_cva6(), &spec).unwrap().execute();
        let detection = outcome.stats.first_detection().expect("V5 triggers quickly");
        assert_eq!(outcome.stats.tests_executed(), detection);
    }

    #[test]
    fn sharded_detection_mode_stops_on_the_first_mismatch() {
        let mut spec = quick_spec(BanditKind::Ucb1, 400);
        spec.campaign.stop_on_first_detection = true;
        spec.rng_seed = 2;
        spec.shards = 2;
        spec.batch_size = 8;
        let outcome = Campaign::from_spec_on(v5_cva6(), &spec).unwrap().execute();
        let detection = outcome.stats.first_detection().expect("V5 triggers quickly");
        assert_eq!(
            outcome.stats.tests_executed(),
            detection,
            "outcomes after the detection are discarded unrecorded"
        );
    }

    #[test]
    fn sharded_reports_are_identical_for_every_shard_count() {
        // Arm resets land mid-batch here (γ = 2), so the fold's reset path
        // is held to the same contract as the plain fold: same batch size,
        // different shard counts, identical outcome including arm summaries.
        let mut spec = quick_spec(BanditKind::EpsilonGreedy, 60);
        spec.gamma = 2;
        spec.campaign.mutations_per_interesting_test = 1;
        spec.rng_seed = 9;
        spec.batch_size = 5;
        let reference = on_rocket(&spec);
        assert_eq!(reference.stats.tests_executed(), 60);
        assert!(reference.total_resets > 0, "the campaign exercises arm resets");
        for shards in [2usize, 3] {
            let sharded = on_rocket(&CampaignSpec { shards, ..spec.clone() });
            assert_eq!(reference, sharded, "{shards} shards diverged from 1 shard");
        }
    }

    #[test]
    fn serial_plan_reproduces_run_exactly() {
        // Batch size 1 keeps every draw on the campaign RNG, so the serial
        // stream does not depend on where tests simulate: a shard pool at
        // batch size 1 reproduces the in-place serial run exactly.
        let serial = CampaignSpec { rng_seed: 17, ..quick_spec(BanditKind::Exp3, 30) };
        assert_eq!(serial.plan(), ShardPlan::serial());
        let pooled = CampaignSpec { shards: 3, ..serial.clone() };
        assert_eq!(on_rocket(&serial), on_rocket(&pooled));
    }

    /// A deliberately naive policy: round-robin over the arms.
    struct RoundRobin {
        kind: BanditKind,
        next: usize,
        pulls: Vec<u64>,
    }

    impl Bandit for RoundRobin {
        fn kind(&self) -> BanditKind {
            self.kind
        }
        fn arms(&self) -> usize {
            self.pulls.len()
        }
        fn select(&mut self, _rng: &mut dyn rand::RngCore) -> usize {
            let arm = self.next;
            self.next = (self.next + 1) % self.pulls.len();
            arm
        }
        fn update(&mut self, arm: usize, _reward: f64) {
            self.pulls[arm] += 1;
        }
        fn reset_arm(&mut self, arm: usize) {
            self.pulls[arm] = 0;
        }
        fn value(&self, _arm: usize) -> f64 {
            0.0
        }
        fn pulls(&self, arm: usize) -> u64 {
            self.pulls[arm]
        }
    }

    #[test]
    fn custom_bandits_can_drive_the_fuzzer() {
        mab::register_policy("orchestrator-test-round-robin", |params: &mab::PolicyParams| {
            Box::new(RoundRobin { kind: params.kind, next: 0, pulls: vec![0; params.arms] })
        })
        .expect("fresh name");
        let mut spec = quick_spec(BanditKind::Ucb1, 12);
        spec.policy = PolicySpec::parse("orchestrator-test-round-robin").unwrap();
        let outcome = on_rocket(&spec);
        assert_eq!(outcome.stats.tests_executed(), 12);
        assert!(outcome.stats.label().contains("orchestrator-test-round-robin"));
        // Round-robin spreads the twelve pulls evenly over the four arms.
        assert!(outcome.arms.iter().all(|a| a.pulls == 3), "{:?}", outcome.arms);
    }

    #[test]
    #[should_panic(expected = "one arm per seed")]
    fn mismatched_bandit_arm_count_panics() {
        // `Campaign` assembly turns this into `SpecError::ArmCountMismatch`
        // before the loop starts; the loop itself still refuses to run it.
        let spec = quick_spec(BanditKind::Ucb1, 5);
        let harness = FuzzHarness::new(
            Arc::new(RocketCore::new(BugSet::none())),
            spec.campaign.max_steps_per_test,
        );
        let _ = execute_mab(&harness, Box::new(mab::Ucb1::new(2)), &spec, Vec::new(), None);
    }

    #[test]
    fn debug_format_names_the_configuration() {
        let campaign = Campaign::from_spec_on(
            Arc::new(RocketCore::new(BugSet::none())),
            &quick_spec(BanditKind::Exp3, 5),
        )
        .unwrap();
        let text = format!("{campaign:?}");
        assert!(text.contains("MABFuzz: EXP3 on rocket"), "{text}");
    }
}

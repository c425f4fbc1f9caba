//! Campaign configuration: the fluent [`CampaignSpecBuilder`] and the
//! paper's default parameters.
//!
//! A fresh builder ([`CampaignSpec::builder`]) starts from the values of
//! §IV-A of the paper: UCB, 10 arms, `α = 0.25` (a globally new point is
//! worth 3× an arm-locally new point), reset threshold `γ = 3`, ε-greedy
//! exploration `ε = 0.1` and EXP3 learning rate `η = 0.1`, on the legacy
//! serial plan with RNG seed 0. Every setter is infallible;
//! [`build`](CampaignSpecBuilder::build) validates the assembled spec once,
//! so an out-of-range parameter surfaces as a [`SpecError`] and never
//! reaches a running campaign.

use fuzzer::{CampaignConfig, CoverageSignal, ShardPlan};
use mab::BanditKind;
use proc_sim::ProcessorKind;
use riscv::gen::GeneratorConfig;

use crate::spec::{BugSpec, CampaignSpec, PolicySpec, ProcessorSpec, SpecError};

/// Fluent builder for [`CampaignSpec`]; every setter is infallible and
/// [`build`](CampaignSpecBuilder::build) validates the assembled spec.
#[derive(Debug, Clone)]
pub struct CampaignSpecBuilder {
    policy: PolicyChoice,
    /// The spec under construction (the JSON codec fills it field by field).
    pub(crate) spec: CampaignSpec,
}

/// A policy either resolved already or deferred to build-time name lookup
/// (so `policy_named("thom pson")` surfaces its error in `build`'s
/// `Result`, not as a panic in the middle of a fluent chain).
#[derive(Debug, Clone)]
enum PolicyChoice {
    Resolved(PolicySpec),
    Named(String),
}

impl Default for CampaignSpecBuilder {
    fn default() -> Self {
        CampaignSpecBuilder {
            policy: PolicyChoice::Resolved(PolicySpec::Bandit(BanditKind::Ucb1)),
            spec: CampaignSpec {
                policy: PolicySpec::Bandit(BanditKind::Ucb1),
                alpha: 0.25,
                gamma: 3,
                epsilon: 0.1,
                eta: 0.1,
                rng_seed: 0,
                shards: 1,
                batch_size: 1,
                coverage_signal: CoverageSignal::Point,
                processor: None,
                campaign: CampaignConfig::default(),
            },
        }
    }
}

impl CampaignSpecBuilder {
    /// Selects the scheduling policy.
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = PolicyChoice::Resolved(policy);
        self
    }

    /// Selects a MABFuzz bandit policy.
    pub fn algorithm(self, kind: BanditKind) -> Self {
        self.policy(PolicySpec::Bandit(kind))
    }

    /// Selects the TheHuzz baseline (no bandit).
    pub fn baseline(self) -> Self {
        self.policy(PolicySpec::Baseline)
    }

    /// Selects the policy by name; resolution (and its error) happens in
    /// [`build`](CampaignSpecBuilder::build).
    pub fn policy_named(mut self, name: &str) -> Self {
        self.policy = PolicyChoice::Named(name.to_owned());
        self
    }

    /// Sets the number of arms / initial seeds.
    pub fn arms(mut self, arms: usize) -> Self {
        self.spec.campaign.num_seeds = arms;
        self
    }

    /// Sets the reward weight α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.spec.alpha = alpha;
        self
    }

    /// Sets the saturation window γ.
    pub fn gamma(mut self, gamma: usize) -> Self {
        self.spec.gamma = gamma;
        self
    }

    /// Sets the ε-greedy exploration probability.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.spec.epsilon = epsilon;
        self
    }

    /// Sets the EXP3 learning rate η.
    pub fn eta(mut self, eta: f64) -> Self {
        self.spec.eta = eta;
        self
    }

    /// Sets the campaign test budget.
    pub fn max_tests(mut self, max_tests: u64) -> Self {
        self.spec.campaign.max_tests = max_tests;
        self
    }

    /// Sets the per-test committed-instruction budget.
    pub fn max_steps_per_test(mut self, max_steps: usize) -> Self {
        self.spec.campaign.max_steps_per_test = max_steps;
        self
    }

    /// Sets how many mutants each interesting test spawns.
    pub fn mutations_per_interesting_test(mut self, mutations: usize) -> Self {
        self.spec.campaign.mutations_per_interesting_test = mutations;
        self
    }

    /// Sets the coverage-series sampling interval.
    pub fn sample_interval(mut self, interval: u64) -> Self {
        self.spec.campaign.sample_interval = interval;
        self
    }

    /// Stops the campaign at the first architectural mismatch (Table I
    /// detection mode).
    pub fn stop_on_first_detection(mut self, stop: bool) -> Self {
        self.spec.campaign.stop_on_first_detection = stop;
        self
    }

    /// Replaces the program-generator configuration.
    pub fn generator(mut self, generator: GeneratorConfig) -> Self {
        self.spec.campaign.generator = generator;
        self
    }

    /// Replaces the whole shared campaign configuration (budget, mutation
    /// counts, generator, number of seeds) in one call.
    pub fn campaign(mut self, campaign: CampaignConfig) -> Self {
        self.spec.campaign = campaign;
        self
    }

    /// Sets the campaign RNG seed.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.spec.rng_seed = seed;
        self
    }

    /// Sets the shard-worker count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Sets the per-round batch size (1 = the legacy serial stream).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.spec.batch_size = batch_size;
        self
    }

    /// Adopts a whole shard plan.
    pub fn plan(self, plan: &ShardPlan) -> Self {
        self.shards(plan.shards()).batch_size(plan.batch_size())
    }

    /// Selects the coverage signal feeding the reward (default: point).
    pub fn coverage_signal(mut self, signal: CoverageSignal) -> Self {
        self.spec.coverage_signal = signal;
        self
    }

    /// Names the processor the spec runs against, making it self-contained.
    pub fn processor(mut self, core: ProcessorKind, bugs: BugSpec) -> Self {
        self.spec.processor = Some(ProcessorSpec { core, bugs });
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// The first violated invariant (see [`SpecError`]); name-based policy
    /// selection resolves here and reports unknown names with the full list
    /// of valid policies.
    pub fn build(mut self) -> Result<CampaignSpec, SpecError> {
        self.spec.policy = match &self.policy {
            PolicyChoice::Resolved(policy) => *policy,
            PolicyChoice::Named(name) => PolicySpec::parse(name)?,
        };
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::monitor::SaturationMonitor;
    use crate::reward::RewardParams;

    #[test]
    fn defaults_match_the_paper() {
        let spec = CampaignSpecBuilder::default().spec;
        assert_eq!(spec.policy, PolicySpec::Bandit(BanditKind::Ucb1));
        assert_eq!(spec.arms(), 10);
        assert!((spec.alpha - 0.25).abs() < 1e-12);
        assert_eq!(spec.gamma, 3);
        assert!((spec.eta - 0.1).abs() < 1e-12);
        assert!((spec.epsilon - 0.1).abs() < 1e-12);
        assert_eq!(spec.rng_seed, 0);
        assert_eq!(spec.plan(), ShardPlan::serial());
        assert_eq!(spec.coverage_signal, CoverageSignal::Point);
        assert_eq!(spec.processor, None);
        assert_eq!(CampaignSpec::builder().build().unwrap(), spec, "the defaults validate as-is");
    }

    #[test]
    fn builders_adjust_fields() {
        let campaign = CampaignConfig { max_tests: 123, num_seeds: 4, ..CampaignConfig::default() };
        let generator = GeneratorConfig { instr_count: 17, ..GeneratorConfig::default() };
        let spec = CampaignSpec::builder()
            .policy_named("exp3")
            .alpha(0.5)
            .gamma(7)
            .campaign(campaign.clone())
            .generator(generator.clone())
            .plan(&ShardPlan::sharded(2).with_batch_size(8))
            .coverage_signal(CoverageSignal::Edge)
            .build()
            .unwrap();
        assert_eq!(spec.arms(), 4);
        assert_eq!(spec.gamma, 7);
        assert!((spec.alpha - 0.5).abs() < 1e-12);
        assert_eq!(spec.campaign.max_tests, 123);
        assert_eq!(spec.campaign.generator, generator);
        assert_eq!(spec.plan(), ShardPlan::sharded(2).with_batch_size(8));
        assert_eq!(spec.coverage_signal, CoverageSignal::Edge);
        assert_eq!(spec.label(), "MABFuzz: EXP3");

        // Later setters win, including over a whole-config replacement.
        let spec = CampaignSpec::builder()
            .campaign(campaign)
            .max_tests(9)
            .algorithm(BanditKind::Ucb1)
            .baseline()
            .build()
            .unwrap();
        assert_eq!(spec.campaign.max_tests, 9);
        assert_eq!(spec.label(), "TheHuzz");
    }

    #[test]
    fn build_bandit_matches_the_algorithm() {
        for kind in BanditKind::ALL {
            let spec = CampaignSpec::builder().algorithm(kind).arms(6).build().unwrap();
            assert_eq!(spec.policy, PolicySpec::Bandit(kind));
            let bandit = kind.build_with(&spec.policy_params(kind));
            assert_eq!(bandit.kind(), kind);
            assert_eq!(bandit.arms(), 6);
        }
    }

    #[test]
    #[should_panic(expected = "alpha must lie in [0, 1]")]
    fn invalid_alpha_panics() {
        // `build` rejects the value; the reward a campaign would assemble
        // from it refuses it on its own as well.
        let error = CampaignSpec::builder().alpha(1.5).build().unwrap_err();
        assert_eq!(error, SpecError::AlphaOutOfRange(1.5));
        let _ = RewardParams::new(1.5);
    }

    #[test]
    #[should_panic(expected = "gamma must be at least 1")]
    fn invalid_gamma_panics() {
        // `build` rejects the value; the saturation monitor a campaign would
        // assemble from it refuses it on its own as well.
        let error = CampaignSpec::builder().gamma(0).build().unwrap_err();
        assert_eq!(error, SpecError::ZeroGamma);
        let _ = SaturationMonitor::new(4, 0);
    }
}

//! The campaign session type: spec in, outcome out.
//!
//! [`Campaign`] is the single execution entry point behind every fuzzing
//! run in the workspace. It is built from a declarative
//! [`CampaignSpec`] — either self-contained
//! ([`Campaign::from_spec`]) or against a caller-supplied processor
//! ([`Campaign::from_spec_on`]) — optionally decorated with streaming
//! [`CampaignObserver`]s, and consumed by [`execute`](Campaign::execute).
//! The examples, the experiment grid, the benches and the campaign daemon
//! all run through it.
//!
//! Both scheduling worlds run through here, and both speak the full
//! [`CampaignObserver`] event protocol:
//!
//! * [`PolicySpec::Baseline`](crate::spec::PolicySpec) executes the
//!   TheHuzz-style FIFO baseline (no bandit, no arms — the outcome's arm
//!   summary is empty) through the instrumented per-test fold of
//!   `TheHuzzFuzzer::run_with`: observers stream [`TestFolded`],
//!   [`DetectionObserved`] and [`CoverageMilestone`] per executed test
//!   (under the baseline conventions documented in
//!   [`observer`](crate::observer)) and the final [`CampaignFinished`];
//! * [`PolicySpec::Bandit`](crate::spec::PolicySpec) executes the MABFuzz
//!   loop of Fig. 2 (the crate's `orchestrator` module), serial or sharded
//!   per the spec's plan, with the determinism contract of `fuzzer::shard`
//!   intact: attaching observers or changing the shard count never changes
//!   a single byte of the report — nor of the event stream, which always
//!   fires in `test_index` fold order.

use std::sync::Arc;

use fuzzer::{CampaignStats, FuzzHarness, TheHuzzFuzzer};
use mab::Bandit;
use proc_sim::Processor;
use serde::{Deserialize, Serialize};

use crate::cancel::CancelToken;
use crate::observer::{
    CampaignFinished, CampaignObserver, CoverageMilestone, DecileTracker, DetectionObserved,
    TestFolded,
};
use crate::orchestrator::execute_mab;
use crate::spec::{CampaignSpec, PolicySpec, SpecError};

/// Per-arm summary included in the campaign outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmSummary {
    /// Arm index.
    pub index: usize,
    /// Total pulls across the campaign.
    pub pulls: u64,
    /// Number of times the arm was reset.
    pub resets: u64,
    /// Coverage points reached by the arm's final seed family.
    pub final_local_coverage: usize,
}

/// The result of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MabFuzzOutcome {
    /// The shared campaign statistics (coverage curve, detections, …).
    pub stats: CampaignStats,
    /// Per-arm activity summary (empty for the baseline).
    pub arms: Vec<ArmSummary>,
    /// Total number of arm resets across the campaign.
    pub total_resets: u64,
}

enum CampaignKind {
    Baseline(TheHuzzFuzzer),
    /// A MABFuzz campaign: the harness and bandit built from `spec`, which
    /// supplies everything else (α, γ, arms, budget, RNG seed, shard plan).
    Mab { harness: FuzzHarness, bandit: Box<dyn Bandit>, spec: CampaignSpec },
}

/// One fuzzing campaign, assembled and ready to
/// [`execute`](Campaign::execute).
///
/// # Example
///
/// A custom policy registered at runtime drives a full campaign through a
/// spec, with no edit to any core type:
///
/// ```
/// use mab::{register_policy, BanditKind, EpsilonGreedy, PolicyParams};
/// use mabfuzz::{BugSpec, Campaign, CampaignSpec};
/// use proc_sim::ProcessorKind;
///
/// // A "custom" policy (here simply uniform-random exploration).
/// register_policy("doc-uniform", |params: &PolicyParams| {
///     Box::new(EpsilonGreedy::new(params.arms, 1.0))
/// })
/// .expect("fresh name");
///
/// let spec = CampaignSpec::builder()
///     .policy_named("doc-uniform")
///     .arms(4)
///     .max_tests(16)
///     .processor(ProcessorKind::Rocket, BugSpec::None)
///     .rng_seed(3)
///     .build()
///     .unwrap();
/// let outcome = Campaign::from_spec(&spec).unwrap().execute();
/// assert_eq!(outcome.stats.tests_executed(), 16);
/// assert!(outcome.stats.label().contains("doc-uniform"));
/// ```
pub struct Campaign {
    kind: CampaignKind,
    observers: Vec<Box<dyn CampaignObserver>>,
    cancel: Option<CancelToken>,
}

impl Campaign {
    /// Assembles a self-contained campaign: the spec names the processor.
    ///
    /// # Errors
    ///
    /// [`SpecError::MissingProcessor`] when the spec has no processor
    /// section, or any validation error of the spec.
    pub fn from_spec(spec: &CampaignSpec) -> Result<Campaign, SpecError> {
        spec.validate()?;
        let processor = spec.processor.ok_or(SpecError::MissingProcessor)?;
        Campaign::assemble(Arc::from(processor.build()), spec)
    }

    /// Assembles a campaign from a spec against a caller-supplied processor
    /// (the experiment grid's path — cells build their processors once and
    /// reuse the spec).
    ///
    /// # Errors
    ///
    /// Any validation error of the spec.
    pub fn from_spec_on(
        processor: Arc<dyn Processor>,
        spec: &CampaignSpec,
    ) -> Result<Campaign, SpecError> {
        spec.validate()?;
        Campaign::assemble(processor, spec)
    }

    /// Assembles a campaign from an already-validated spec (both `from_spec`
    /// entry points funnel through here, so validation runs exactly once per
    /// construction and error ordering cannot drift between them).
    fn assemble(processor: Arc<dyn Processor>, spec: &CampaignSpec) -> Result<Campaign, SpecError> {
        let kind = match spec.policy {
            PolicySpec::Baseline => {
                let mut fuzzer = TheHuzzFuzzer::new(processor, spec.campaign.clone(), spec.rng_seed);
                fuzzer.set_coverage_signal(spec.coverage_signal);
                CampaignKind::Baseline(fuzzer)
            }
            PolicySpec::Bandit(kind) => {
                let bandit = kind.build_with(&spec.policy_params(kind));
                if bandit.arms() != spec.arms() {
                    return Err(SpecError::ArmCountMismatch {
                        bandit: bandit.arms(),
                        spec: spec.arms(),
                    });
                }
                let mut harness = FuzzHarness::new(processor, spec.campaign.max_steps_per_test);
                // Shard workers clone this harness, so the signal propagates
                // to every worker and `coverage_space_len` sizes the stats
                // and arms for the selected space automatically.
                harness.set_coverage_signal(spec.coverage_signal);
                CampaignKind::Mab { harness, bandit, spec: spec.clone() }
            }
        };
        Ok(Campaign { kind, observers: Vec::new(), cancel: None })
    }

    /// Attaches a streaming observer (builder style). Observers receive the
    /// campaign's event stream in deterministic fold order and cannot affect
    /// the outcome.
    pub fn with_observer(mut self, observer: Box<dyn CampaignObserver>) -> Campaign {
        self.observers.push(observer);
        self
    }

    /// Attaches a streaming observer in place.
    pub fn attach_observer(&mut self, observer: Box<dyn CampaignObserver>) {
        self.observers.push(observer);
    }

    /// Attaches a cooperative cancellation token (builder style). Any clone
    /// of the token may request cancellation from any thread; the campaign
    /// stops at the next deterministic fold boundary — between bandit rounds
    /// for MABFuzz campaigns, between FIFO tests for the baseline. An
    /// interrupted campaign finalises its statistics over the tests it
    /// folded and does **not** emit [`CampaignFinished`], so its event
    /// stream is a strict prefix of the uncancelled run's stream; check
    /// [`CancelToken::was_interrupted`] after [`execute`](Campaign::execute)
    /// to learn whether the run was cut short.
    pub fn with_cancellation(mut self, token: CancelToken) -> Campaign {
        self.cancel = Some(token);
        self
    }

    /// Returns the campaign's report label (`"TheHuzz on rocket"`,
    /// `"MABFuzz: UCB on cva6"`, …).
    pub fn label(&self) -> String {
        match &self.kind {
            CampaignKind::Baseline(fuzzer) => format!("TheHuzz on {}", fuzzer.processor_name()),
            CampaignKind::Mab { harness, spec, .. } => {
                format!("{} on {}", spec.label(), harness.processor().name())
            }
        }
    }

    /// Returns the size of the processor's coverage space — what the
    /// campaign's [`CoverageMilestone`] deciles and coverage percentages
    /// (e.g. a [`ProgressMonitor`](crate::ProgressMonitor)) are measured
    /// against.
    pub fn coverage_space_len(&self) -> usize {
        match &self.kind {
            CampaignKind::Baseline(fuzzer) => fuzzer.coverage_space_len(),
            CampaignKind::Mab { harness, .. } => harness.coverage_space_len(),
        }
    }

    /// Runs the campaign to completion.
    ///
    /// Baseline campaigns return an outcome with an empty arm summary (there
    /// are no bandit arms to report); MABFuzz campaigns produce the full
    /// per-arm report. Both stream the complete event protocol to attached
    /// observers (see the baseline vocabulary in
    /// [`observer`](crate::observer)). Reports — and event streams — are
    /// byte-identical for every shard count of the plan at a fixed batch
    /// size, and independent of attached observers.
    pub fn execute(mut self) -> MabFuzzOutcome {
        match self.kind {
            CampaignKind::Baseline(fuzzer) => {
                execute_baseline(fuzzer, &mut self.observers, self.cancel.as_ref())
            }
            CampaignKind::Mab { harness, bandit, spec } => {
                execute_mab(&harness, bandit, &spec, self.observers, self.cancel.as_ref())
            }
        }
    }
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("label", &self.label())
            .field("observers", &self.observers.len())
            .finish()
    }
}

/// The baseline (TheHuzz) campaign path: the FIFO loop of
/// `fuzzer::thehuzz`, instrumented with the shared per-test event protocol.
///
/// Observer-less campaigns (the whole experiment grid, the golden runs, the
/// benches) take the sink-less `run()` and pay nothing for the seam;
/// observed campaigns stream [`TestFolded`], [`DetectionObserved`] and
/// [`CoverageMilestone`] per executed test in FIFO order — draw-for-draw the
/// same campaign, since the sink cannot perturb the loop.
fn execute_baseline(
    fuzzer: TheHuzzFuzzer,
    observers: &mut [Box<dyn CampaignObserver>],
    cancel: Option<&CancelToken>,
) -> MabFuzzOutcome {
    // The stop probe marks the token the moment the FIFO loop observes it,
    // so `was_interrupted` reflects an actual early cut, not merely a
    // request that arrived after the budget was already exhausted.
    let should_stop = || {
        cancel.is_some_and(|token| {
            let cancelled = token.is_cancelled();
            if cancelled {
                token.mark_interrupted();
            }
            cancelled
        })
    };
    let stats = if observers.is_empty() && cancel.is_none() {
        fuzzer.run()
    } else {
        let space_len = fuzzer.coverage_space_len();
        let mut deciles = DecileTracker::new(space_len);
        fuzzer.run_with_stop(should_stop, |record| {
            let event = TestFolded {
                test_number: record.test_number,
                test_id: record.test_id,
                // Baseline conventions (see the observer module docs): no
                // arms (0), one global pool (local == global novelty), no
                // bandit to reward (0.0).
                arm: 0,
                local_new: record.new_points,
                global_new: record.new_points,
                covered: record.covered,
                reward: 0.0,
                detected: record.detected,
                coverage: record.coverage,
                diff: record.diff,
            };
            for observer in observers.iter_mut() {
                observer.test_folded(&event);
            }
            if record.detected {
                let event = DetectionObserved {
                    test_number: record.test_number,
                    test_id: record.test_id,
                    arm: 0,
                    diff: record.diff,
                };
                for observer in observers.iter_mut() {
                    observer.detection(&event);
                }
            }
            for decile in deciles.crossed(record.covered) {
                let event = CoverageMilestone {
                    decile,
                    covered: record.covered,
                    space_len,
                    test_number: record.test_number,
                };
                for observer in observers.iter_mut() {
                    observer.coverage_milestone(&event);
                }
            }
        })
    };
    // An interrupted campaign's stream stays a strict prefix of the full
    // run's stream: the finished event is withheld (see `cancel`).
    if !cancel.is_some_and(CancelToken::was_interrupted) {
        let finished = CampaignFinished {
            tests_executed: stats.tests_executed(),
            final_coverage: stats.final_coverage(),
            total_resets: 0,
        };
        for observer in observers.iter_mut() {
            observer.campaign_finished(&finished);
        }
    }
    MabFuzzOutcome { stats, arms: Vec::new(), total_resets: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use mab::BanditKind;
    use proc_sim::cores::{Cva6Core, RocketCore};
    use proc_sim::{BugSet, Processor, ProcessorKind, Vulnerability};

    use crate::observer::{ArmReset, ArmSelected, BatchFolded};
    use crate::spec::BugSpec;

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

    fn v5_cva6() -> Arc<dyn Processor> {
        Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault)))
    }

    #[test]
    fn factories_ignoring_the_arm_count_are_rejected() {
        mab::register_policy("campaign-test-two-arms", |_: &mab::PolicyParams| {
            Box::new(mab::Ucb1::new(2))
        })
        .expect("fresh name");
        let mut spec = quick_spec(BanditKind::Ucb1, 5);
        spec.policy = PolicySpec::parse("campaign-test-two-arms").unwrap();
        let error = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .expect_err("two bandit arms for four seeds");
        assert_eq!(error, SpecError::ArmCountMismatch { bandit: 2, spec: 4 });
    }

    #[test]
    fn self_contained_specs_build_their_processor() {
        let spec = CampaignSpec::builder()
            .arms(4)
            .max_tests(10)
            .processor(ProcessorKind::Rocket, BugSpec::None)
            .build()
            .unwrap();
        let outcome = Campaign::from_spec(&spec).unwrap().execute();
        assert_eq!(outcome.stats.tests_executed(), 10);
        assert!(outcome.stats.label().contains("rocket"));
    }

    #[test]
    fn specs_without_a_processor_require_from_spec_on() {
        let spec = CampaignSpec::builder().build().unwrap();
        assert_eq!(
            Campaign::from_spec(&spec).err(),
            Some(SpecError::MissingProcessor),
            "self-contained execution needs a processor section"
        );
    }

    #[test]
    fn baseline_specs_run_thehuzz() {
        let spec = CampaignSpec::builder()
            .baseline()
            .max_tests(15)
            .processor(ProcessorKind::Rocket, BugSpec::None)
            .rng_seed(1)
            .build()
            .unwrap();
        let campaign = Campaign::from_spec(&spec).unwrap();
        assert!(campaign.label().starts_with("TheHuzz on rocket"), "{}", campaign.label());
        let outcome = campaign.execute();
        assert_eq!(outcome.stats.tests_executed(), 15);
        assert!(outcome.arms.is_empty(), "the baseline has no bandit arms");
        assert_eq!(outcome.total_resets, 0);
        assert!(outcome.stats.label().contains("TheHuzz"));
    }

    #[test]
    fn baseline_campaigns_stream_the_per_test_event_protocol() {
        let spec = CampaignSpec::builder()
            .baseline()
            .max_tests(30)
            .max_steps_per_test(200)
            .sample_interval(5)
            .rng_seed(1)
            .build()
            .unwrap();
        let plain = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .execute();

        let log = Arc::new(Mutex::new(Vec::new()));
        let observed = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(Recorder { log: Arc::clone(&log) }))
            .execute();
        assert_eq!(plain, observed, "observers must never change the baseline campaign");

        let log = log.lock().unwrap();
        let tests = log.iter().filter(|l| l.starts_with("test:")).count();
        assert_eq!(tests, 30, "one TestFolded per executed FIFO test");
        assert!(
            !log.iter().any(|l| l.starts_with("select:") || l.starts_with("batch:")),
            "the baseline has no bandit rounds: {log:?}"
        );
        assert!(
            log.iter().any(|l| l.starts_with("decile:")),
            "baseline coverage crosses deciles too"
        );
        assert_eq!(log.last().unwrap(), &format!("finish:{}", observed.stats.tests_executed()));
    }

    #[test]
    fn routed_baseline_matches_the_legacy_wrapper_in_detection_mode() {
        // Satellite check: TheHuzz breaks out of the loop after recording the
        // detecting test but before enqueuing mutants; the Campaign-routed
        // path must reproduce that ordering draw-for-draw.
        let spec = CampaignSpec::builder()
            .baseline()
            .max_tests(400)
            .max_steps_per_test(200)
            .mutations_per_interesting_test(2)
            .arms(4)
            .sample_interval(5)
            .stop_on_first_detection(true)
            .rng_seed(3)
            .build()
            .unwrap();
        let cva6 = || Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault)));
        let legacy = fuzzer::TheHuzzFuzzer::new(cva6(), spec.campaign.clone(), spec.rng_seed).run();

        let log = Arc::new(Mutex::new(Vec::new()));
        let routed = Campaign::from_spec_on(cva6(), &spec)
            .unwrap()
            .with_observer(Box::new(Recorder { log: Arc::clone(&log) }))
            .execute();

        assert_eq!(legacy, routed.stats, "routed baseline diverged from the legacy wrapper");
        let detection = legacy.first_detection().expect("V5 is easy to trigger");
        assert_eq!(legacy.tests_executed(), detection, "the campaign stops on the detecting test");
        assert_eq!(routed.stats.tests_executed(), detection);
        let log = log.lock().unwrap();
        assert!(
            log.contains(&format!("detect:{detection}")),
            "the stopping detection streams as an event: {log:?}"
        );
        assert_eq!(
            log.iter().filter(|l| l.starts_with("test:")).count() as u64,
            detection,
            "the detecting test is the last TestFolded"
        );
    }

    /// Records every event category, to pin dispatch order and content.
    #[derive(Default)]
    struct Recorder {
        log: Arc<Mutex<Vec<String>>>,
    }

    impl CampaignObserver for Recorder {
        fn arm_selected(&mut self, event: &ArmSelected) {
            self.log.lock().unwrap().push(format!("select:{}:{}", event.round, event.arm));
        }
        fn test_folded(&mut self, event: &TestFolded<'_>) {
            self.log.lock().unwrap().push(format!("test:{}", event.test_number));
        }
        fn batch_folded(&mut self, event: &BatchFolded) {
            self.log.lock().unwrap().push(format!("batch:{}:{}", event.round, event.tests));
        }
        fn detection(&mut self, event: &DetectionObserved<'_>) {
            self.log.lock().unwrap().push(format!("detect:{}", event.test_number));
        }
        fn arm_reset(&mut self, event: &ArmReset) {
            self.log.lock().unwrap().push(format!("reset:{}", event.arm));
        }
        fn coverage_milestone(&mut self, event: &CoverageMilestone) {
            self.log.lock().unwrap().push(format!("decile:{}", event.decile));
        }
        fn campaign_finished(&mut self, event: &CampaignFinished) {
            self.log.lock().unwrap().push(format!("finish:{}", event.tests_executed));
        }
    }

    #[test]
    fn observers_stream_the_campaign_without_changing_it() {
        let spec = quick_spec(BanditKind::Ucb1, 30);
        let plain = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .execute();

        let log = Arc::new(Mutex::new(Vec::new()));
        let shadow_stats = CampaignStats::new(
            plain.stats.label().to_owned(),
            RocketCore::new(BugSet::none()).coverage_space().len(),
            spec.campaign.sample_interval,
        );
        let shadow = Arc::new(Mutex::new(Some(shadow_stats)));

        /// Routes events into a shared `CampaignStats` — the "shadow stats"
        /// monitoring pattern from the module docs.
        struct Shadow(Arc<Mutex<Option<CampaignStats>>>);
        impl CampaignObserver for Shadow {
            fn test_folded(&mut self, event: &TestFolded<'_>) {
                self.0.lock().unwrap().as_mut().unwrap().test_folded(event);
            }
            fn campaign_finished(&mut self, event: &CampaignFinished) {
                self.0.lock().unwrap().as_mut().unwrap().campaign_finished(event);
            }
        }

        let observed = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(Recorder { log: Arc::clone(&log) }))
            .with_observer(Box::new(Shadow(Arc::clone(&shadow))))
            .execute();

        assert_eq!(plain, observed, "observers must never change the campaign");

        let log = log.lock().unwrap();
        let selects = log.iter().filter(|l| l.starts_with("select:")).count();
        let tests = log.iter().filter(|l| l.starts_with("test:")).count();
        let batches = log.iter().filter(|l| l.starts_with("batch:")).count();
        assert_eq!(tests, 30, "one test event per executed test");
        assert_eq!(selects, 30, "batch size 1: one selection per test");
        assert_eq!(batches, selects, "every round closes with a batch event");
        assert!(log.iter().any(|l| l.starts_with("decile:")), "coverage crosses deciles");
        assert_eq!(log.last().unwrap(), &format!("finish:{}", observed.stats.tests_executed()));

        // The shadow stats replayed from events match the built-in collection.
        let shadow = shadow.lock().unwrap().take().unwrap();
        assert_eq!(shadow, observed.stats, "CampaignStats-as-observer replays the campaign");
    }

    #[test]
    fn detection_events_fire_in_detection_mode() {
        let spec = CampaignSpec::builder()
            .algorithm(BanditKind::Ucb1)
            .arms(4)
            .max_tests(400)
            .max_steps_per_test(200)
            .mutations_per_interesting_test(2)
            .sample_interval(5)
            .stop_on_first_detection(true)
            .rng_seed(2)
            .build()
            .unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let outcome = Campaign::from_spec_on(v5_cva6(), &spec)
            .unwrap()
            .with_observer(Box::new(Recorder { log: Arc::clone(&log) }))
            .execute();
        let detection = outcome.stats.first_detection().expect("V5 triggers quickly");
        let log = log.lock().unwrap();
        assert!(
            log.contains(&format!("detect:{detection}")),
            "the stopping detection streams as an event"
        );
    }

    #[test]
    fn cancellation_cuts_a_mab_campaign_to_a_stream_prefix() {
        let spec = quick_spec(BanditKind::Ucb1, 400);
        // The full reference stream of the uncancelled campaign.
        let full = {
            let buffer = crate::SharedBuffer::new();
            Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
                .unwrap()
                .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
                .execute();
            buffer.contents()
        };
        // A token flipped by an observer mid-stream cuts at the next round.
        struct CancelAt {
            token: CancelToken,
            at: u64,
        }
        impl CampaignObserver for CancelAt {
            fn test_folded(&mut self, event: &TestFolded<'_>) {
                if event.test_number == self.at {
                    self.token.cancel();
                }
            }
        }
        let token = CancelToken::new();
        let buffer = crate::SharedBuffer::new();
        let outcome = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(CancelAt { token: token.clone(), at: 37 }))
            .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
            .with_cancellation(token.clone())
            .execute();
        assert!(token.was_interrupted(), "the campaign observed the request");
        assert_eq!(outcome.stats.tests_executed(), 37, "batch size 1: cut right after the fold");
        let partial = buffer.contents();
        assert!(partial.len() < full.len(), "the cut stream is shorter");
        assert!(full.starts_with(&partial), "the cut stream is a strict prefix");
        assert!(
            !partial.contains("campaign_finished"),
            "an interrupted campaign withholds the finished event"
        );
    }

    #[test]
    fn cancellation_cuts_a_baseline_campaign_to_a_stream_prefix() {
        let spec = CampaignSpec::builder()
            .baseline()
            .max_tests(200)
            .max_steps_per_test(200)
            .sample_interval(5)
            .rng_seed(1)
            .build()
            .unwrap();
        let full = {
            let buffer = crate::SharedBuffer::new();
            Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
                .unwrap()
                .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
                .execute();
            buffer.contents()
        };
        let token = CancelToken::new();
        struct CancelAt {
            token: CancelToken,
            at: u64,
        }
        impl CampaignObserver for CancelAt {
            fn test_folded(&mut self, event: &TestFolded<'_>) {
                if event.test_number == self.at {
                    self.token.cancel();
                }
            }
        }
        let buffer = crate::SharedBuffer::new();
        let outcome = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(CancelAt { token: token.clone(), at: 11 }))
            .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
            .with_cancellation(token.clone())
            .execute();
        assert!(token.was_interrupted());
        assert_eq!(outcome.stats.tests_executed(), 11, "the FIFO loop stops at a test boundary");
        let partial = buffer.contents();
        assert!(full.starts_with(&partial) && partial.len() < full.len());
        assert!(!partial.contains("campaign_finished"));
    }

    #[test]
    fn late_cancellation_leaves_the_campaign_complete() {
        let spec = quick_spec(BanditKind::Exp3, 20);
        let plain = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .execute();
        let token = CancelToken::new();
        let buffer = crate::SharedBuffer::new();
        let observed = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
            .with_cancellation(token.clone())
            .execute();
        // Never cancelled: the token is inert and the stream is complete.
        assert_eq!(plain, observed, "an unused token cannot perturb the campaign");
        assert!(!token.was_interrupted());
        assert!(buffer.contents().contains("campaign_finished"));
        // A request landing after execute() changes nothing retroactively.
        token.cancel();
        assert!(!token.was_interrupted());
    }

    #[test]
    fn sharded_spec_execution_is_shard_count_independent() {
        let spec = |shards: usize| {
            CampaignSpec::builder()
                .algorithm(BanditKind::Ucb1)
                .arms(4)
                .max_tests(42)
                .max_steps_per_test(200)
                .mutations_per_interesting_test(2)
                .sample_interval(5)
                .rng_seed(9)
                .shards(shards)
                .batch_size(5)
                .build()
                .unwrap()
        };
        let reference = Campaign::from_spec_on(
            Arc::new(RocketCore::new(BugSet::none())),
            &spec(1),
        )
        .unwrap()
        .execute();
        for shards in [2usize, 3] {
            let sharded = Campaign::from_spec_on(
                Arc::new(RocketCore::new(BugSet::none())),
                &spec(shards),
            )
            .unwrap()
            .execute();
            assert_eq!(reference, sharded, "{shards} shards diverged");
        }
    }

    #[test]
    fn edge_signal_campaigns_are_shard_count_independent() {
        use fuzzer::CoverageSignal;
        let spec = |shards: usize| {
            CampaignSpec::builder()
                .algorithm(BanditKind::Ucb1)
                .arms(4)
                .max_tests(42)
                .max_steps_per_test(200)
                .mutations_per_interesting_test(2)
                .sample_interval(5)
                .rng_seed(9)
                .shards(shards)
                .batch_size(5)
                .coverage_signal(CoverageSignal::Edge)
                .build()
                .unwrap()
        };
        let campaign =
            Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec(1)).unwrap();
        assert_eq!(
            campaign.coverage_space_len(),
            coverage::EdgeSpace::DEFAULT_LEN,
            "edge campaigns measure against the fixed edge space"
        );
        let reference = campaign.execute();
        assert!(reference.stats.final_coverage() > 0, "the edge signal observes coverage");
        for shards in [2usize, 4] {
            let sharded =
                Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec(shards))
                    .unwrap()
                    .execute();
            assert_eq!(reference, sharded, "{shards} shards diverged under the edge signal");
        }
    }
}

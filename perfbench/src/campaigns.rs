//! In-process campaign runs: reference runs, set-up, timed passes and the
//! traced pass with its replays.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fuzzer::ExecScratch;
use mabfuzz::report::campaign_json;
use mabfuzz::{Campaign, CampaignSpec, EventLog, MabFuzzOutcome, PolicySpec, SharedBuffer};
use proc_sim::Processor;

use crate::layers::LayerTotals;
use crate::probe::{
    take_mab_counts, timed_policy, ByteCounter, FoldProbe, FoldTally, ProbedProcessor,
};
use crate::replay::{replay_merges, replay_simulation};

/// The exact, deterministic outputs of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    /// Tests executed.
    pub tests: u64,
    /// Final coverage points.
    pub coverage: u64,
    /// Test number of the first detection.
    pub first_detection: Option<u64>,
    /// Tests exposing a mismatch.
    pub mismatching: u64,
    /// Arm resets.
    pub resets: u64,
    /// Instructions the DUT committed.
    pub commits: u64,
}

impl Exact {
    fn of(outcome: &MabFuzzOutcome, commits: u64) -> Exact {
        let stats = &outcome.stats;
        Exact {
            tests: stats.tests_executed(),
            coverage: stats.final_coverage() as u64,
            first_detection: stats.first_detection(),
            mismatching: stats.mismatching_tests(),
            resets: outcome.total_resets,
            commits,
        }
    }

    /// Tests until the first detection; a campaign without one counts its
    /// whole budget.
    pub fn tests_to_first_detection(&self, spec: &CampaignSpec) -> u64 {
        self.first_detection.unwrap_or(spec.campaign.max_tests)
    }
}

/// A campaign run outside every timed window, that timed runs are checked
/// against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The campaign report (`campaign_json`).
    pub report: String,
    /// The `EventLog` stream, when requested.
    pub events: Option<String>,
    /// The exact outputs.
    pub exact: Exact,
}

/// Sets environment variables for its lifetime, restoring the previous
/// values on drop. Only used while the process runs no other thread.
struct EnvOverride(Vec<(&'static str, Option<String>)>);

impl EnvOverride {
    fn set(vars: &[(&'static str, &str)]) -> EnvOverride {
        let saved = vars
            .iter()
            .map(|&(name, value)| {
                let previous = std::env::var(name).ok();
                std::env::set_var(name, value);
                (name, previous)
            })
            .collect();
        EnvOverride(saved)
    }
}

impl Drop for EnvOverride {
    fn drop(&mut self) {
        for (name, previous) in &self.0 {
            match previous {
                Some(value) => std::env::set_var(name, value),
                None => std::env::remove_var(name),
            }
        }
    }
}

fn build_processor(spec: &CampaignSpec) -> Box<dyn Processor> {
    spec.processor
        .expect("benchmark specs name their processor")
        .build()
}

/// Runs every spec once on a counting processor. `oracle` selects the
/// interpreted decode path and full-reinit resets (the repository's
/// differential oracle); `events` attaches an `EventLog`.
///
/// `oracle` changes process environment variables, so it must be called
/// while no other thread of this process runs.
pub fn reference_runs(specs: &[CampaignSpec], oracle: bool, events: bool) -> Vec<Reference> {
    let _oracle = oracle.then(|| {
        EnvOverride::set(&[
            (ExecScratch::DECODE_CACHE_ENV, "off"),
            (ExecScratch::SNAPSHOT_RESET_ENV, "off"),
        ])
    });
    specs
        .iter()
        .map(|spec| {
            let processor = Arc::new(ProbedProcessor::new(build_processor(spec), false));
            let mut campaign =
                Campaign::from_spec_on(processor.clone(), spec).expect("benchmark specs are valid");
            let buffer = SharedBuffer::new();
            if events {
                campaign.attach_observer(Box::new(EventLog::new(buffer.clone())));
            }
            let outcome = campaign.execute();
            Reference {
                report: campaign_json(spec, &outcome),
                events: events.then(|| buffer.contents()),
                exact: Exact::of(&outcome, processor.counts().commits),
            }
        })
        .collect()
}

/// Builds every cell's processor and assembles its campaign: the state a
/// pass starts from. Returns the processors; the campaigns are dropped.
pub fn setup(specs: &[CampaignSpec]) -> Vec<Arc<dyn Processor>> {
    let processors: Vec<Arc<dyn Processor>> = specs
        .iter()
        .map(|spec| Arc::from(build_processor(spec)))
        .collect();
    for (spec, processor) in specs.iter().zip(&processors) {
        std::hint::black_box(
            Campaign::from_spec_on(Arc::clone(processor), spec).expect("benchmark specs are valid"),
        );
    }
    processors
}

/// One untraced pass over every spec.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of each campaign (assembly plus execution).
    pub campaign_walls: Vec<Duration>,
    /// Campaigns whose report differs from the reference.
    pub failed: u64,
}

/// Runs every spec once on the prebuilt processors, checking each report
/// byte for byte against its reference (outside the timed span).
pub fn run_pass(
    specs: &[CampaignSpec],
    processors: &[Arc<dyn Processor>],
    references: &[Reference],
) -> Pass {
    let mut pass = Pass::default();
    for ((spec, processor), reference) in specs.iter().zip(processors).zip(references) {
        let start = Instant::now();
        let outcome = Campaign::from_spec_on(Arc::clone(processor), spec)
            .expect("benchmark specs are valid")
            .execute();
        pass.campaign_walls.push(start.elapsed());
        if campaign_json(spec, &outcome) != reference.report {
            pass.failed += 1;
        }
    }
    pass
}

/// One traced pass: every campaign on a capturing processor, a timed policy
/// twin and a fold probe, followed (outside its span) by the replays.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// The exact outputs per campaign.
    pub exact: Vec<Exact>,
    /// Layer totals over the pass.
    pub layers: LayerTotals,
    /// Campaigns whose replayed diff count disagrees with the campaign's own
    /// mismatch count (a replay that does not reproduce the campaign).
    pub replay_mismatches: u64,
}

/// Runs the traced pass over `specs`.
pub fn traced_pass(specs: &[CampaignSpec]) -> TracedPass {
    let mut pass = TracedPass::default();
    for spec in specs {
        let baseline = matches!(spec.policy, PolicySpec::Baseline);
        let mut traced = spec.clone();
        if let PolicySpec::Bandit(kind) = spec.policy {
            traced.policy = PolicySpec::Bandit(timed_policy(kind));
        }
        let processor = Arc::new(ProbedProcessor::new(build_processor(spec), true));
        let tally = Arc::new(Mutex::new(FoldTally::default()));
        let bytes = ByteCounter::default();
        take_mab_counts();

        let start = Instant::now();
        let probe = FoldProbe::new(baseline, bytes.clone(), Arc::clone(&tally));
        let outcome = Campaign::from_spec_on(processor.clone(), &traced)
            .expect("benchmark specs are valid")
            .with_observer(Box::new(probe))
            .execute();
        let wall = start.elapsed();

        let mab = take_mab_counts();
        let dut = processor.counts();
        let exact = Exact::of(&outcome, dut.commits);
        let sim = replay_simulation(&processor.take_stream());
        let tally = std::mem::take(&mut *tally.lock().expect("probe lock poisoned"));
        let merge_ns = replay_merges(&tally.folds, !baseline);
        if sim.mismatching_tests != exact.mismatching {
            pass.replay_mismatches += 1;
        }
        let layers = LayerTotals::campaign(
            spec,
            wall,
            exact.tests,
            dut,
            sim,
            merge_ns,
            mab,
            &tally,
            bytes.bytes(),
        );
        pass.layers.merge(&layers);
        pass.exact.push(exact);
    }
    pass
}

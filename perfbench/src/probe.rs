//! Outside-in probes: wrappers that time and count calls into a layer's
//! public functions without editing the layer.
//!
//! * [`ProbedProcessor`] wraps a `proc_sim::Processor` handed to
//!   `Campaign::from_spec_on`: it counts DUT calls and commits, times each
//!   call and, when capturing, keeps the program stream and DUT traces for
//!   the replays in `replay`.
//! * [`TimedBandit`] wraps a built-in policy registered through
//!   `mab::register_policy` with the same `PolicyParams`.
//! * [`FoldProbe`] is a `CampaignObserver` timing the round gap and counting
//!   events and their `EventLog` bytes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use coverage::{CoverageMap, CoverageSpace};
use isa_sim::{DecodedProgram, ExecTrace};
use mab::{register_policy, Bandit, BanditKind, PolicyParams};
use mabfuzz::{
    ArmReset, ArmSelected, BatchFolded, CampaignFinished, CampaignObserver, CoverageMilestone,
    DetectionObserved, EventLog, TestFolded,
};
use proc_sim::{BugSet, DutResult, Processor, SimScratch};
use riscv::Program;

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// One captured DUT call: the program, its step budget and the DUT's commit
/// trace, tagged with the simulating thread (each thread owns its own decode
/// cache and reset state, so replays group by thread).
#[derive(Debug)]
pub struct DutCall {
    /// The simulating thread.
    pub thread: ThreadId,
    /// The program simulated.
    pub program: Program,
    /// The per-test instruction budget.
    pub max_steps: usize,
    /// The DUT's commit trace.
    pub trace: ExecTrace,
}

/// A processor wrapper counting (and optionally capturing) every DUT call.
pub struct ProbedProcessor {
    inner: Box<dyn Processor>,
    capture: bool,
    calls: AtomicU64,
    commits: AtomicU64,
    busy_ns: AtomicU64,
    capture_ns: AtomicU64,
    stream: Mutex<Vec<DutCall>>,
}

/// The counters of a [`ProbedProcessor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DutCounts {
    /// DUT simulations run.
    pub calls: u64,
    /// Instructions the DUT committed.
    pub commits: u64,
    /// Time inside the wrapped processor, summed over threads.
    pub busy_ns: u64,
    /// Time spent copying the captured stream (tracing cost).
    pub capture_ns: u64,
}

impl ProbedProcessor {
    /// Wraps `inner`; `capture` keeps every call's program and trace.
    pub fn new(inner: Box<dyn Processor>, capture: bool) -> ProbedProcessor {
        ProbedProcessor {
            inner,
            capture,
            calls: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            capture_ns: AtomicU64::new(0),
            stream: Mutex::new(Vec::new()),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> DutCounts {
        DutCounts {
            calls: self.calls.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            capture_ns: self.capture_ns.load(Ordering::Relaxed),
        }
    }

    /// Takes the captured stream, in call order per thread.
    pub fn take_stream(&self) -> Vec<DutCall> {
        std::mem::take(&mut *self.stream.lock().expect("capture lock poisoned"))
    }

    fn record(&self, program: &Program, max_steps: usize, out: &DutResult, start: Instant) {
        let end = Instant::now();
        self.busy_ns
            .fetch_add(nanos(end - start), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.commits
            .fetch_add(out.trace.len() as u64, Ordering::Relaxed);
        if self.capture {
            let call = DutCall {
                thread: std::thread::current().id(),
                program: program.clone(),
                max_steps,
                trace: out.trace.clone(),
            };
            self.stream
                .lock()
                .expect("capture lock poisoned")
                .push(call);
            self.capture_ns
                .fetch_add(nanos(end.elapsed()), Ordering::Relaxed);
        }
    }
}

impl Processor for ProbedProcessor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn coverage_space(&self) -> &CoverageSpace {
        self.inner.coverage_space()
    }

    fn bugs(&self) -> &BugSet {
        self.inner.bugs()
    }

    fn run_into(
        &self,
        program: &Program,
        max_steps: usize,
        scratch: &mut SimScratch,
        out: &mut DutResult,
    ) {
        let start = Instant::now();
        self.inner.run_into(program, max_steps, scratch, out);
        self.record(program, max_steps, out, start);
    }

    fn run_decoded_into(
        &self,
        program: &Program,
        decoded: &DecodedProgram,
        max_steps: usize,
        scratch: &mut SimScratch,
        out: &mut DutResult,
    ) {
        let start = Instant::now();
        self.inner
            .run_decoded_into(program, decoded, max_steps, scratch, out);
        self.record(program, max_steps, out, start);
    }
}

/// Bandit work counted on the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MabCounts {
    /// `select` calls.
    pub selects: u64,
    /// Rewards folded (`update` calls plus every reward of `update_batch`).
    pub updates: u64,
    /// `reset_arm` calls.
    pub arm_resets: u64,
    /// Time in `select`.
    pub select_ns: u64,
    /// Time in `update`, `update_batch` and `reset_arm`.
    pub update_ns: u64,
}

thread_local! {
    // A campaign's bandit is built and driven on the thread that executes
    // the campaign, so a per-thread tally is a per-campaign tally even when
    // campaigns run concurrently on other threads.
    static MAB: RefCell<MabCounts> = RefCell::new(MabCounts::default());
}

/// Takes (and zeroes) this thread's bandit tally.
pub fn take_mab_counts() -> MabCounts {
    MAB.with(|counts| std::mem::take(&mut *counts.borrow_mut()))
}

fn tally(update: impl FnOnce(&mut MabCounts)) {
    MAB.with(|counts| update(&mut counts.borrow_mut()));
}

/// A built-in policy behind a timing wrapper.
struct TimedBandit {
    inner: Box<dyn Bandit>,
}

impl Bandit for TimedBandit {
    // The wrapped built-in's kind, not the registered custom kind: the
    // campaign picks the reward normalisation by kind (EXP3 normalises), so
    // the traced campaign must see the same kind as the untraced one.
    fn kind(&self) -> BanditKind {
        self.inner.kind()
    }

    fn arms(&self) -> usize {
        self.inner.arms()
    }

    fn select(&mut self, rng: &mut dyn rand::RngCore) -> usize {
        let start = Instant::now();
        let arm = self.inner.select(rng);
        let elapsed = nanos(start.elapsed());
        tally(|counts| {
            counts.selects += 1;
            counts.select_ns += elapsed;
        });
        arm
    }

    fn update(&mut self, arm: usize, reward: f64) {
        let start = Instant::now();
        self.inner.update(arm, reward);
        let elapsed = nanos(start.elapsed());
        tally(|counts| {
            counts.updates += 1;
            counts.update_ns += elapsed;
        });
    }

    fn update_batch(&mut self, arm: usize, rewards: &[f64]) {
        let start = Instant::now();
        self.inner.update_batch(arm, rewards);
        let elapsed = nanos(start.elapsed());
        tally(|counts| {
            counts.updates += rewards.len() as u64;
            counts.update_ns += elapsed;
        });
    }

    fn reset_arm(&mut self, arm: usize) {
        let start = Instant::now();
        self.inner.reset_arm(arm);
        let elapsed = nanos(start.elapsed());
        tally(|counts| {
            counts.arm_resets += 1;
            counts.update_ns += elapsed;
        });
    }

    fn value(&self, arm: usize) -> f64 {
        self.inner.value(arm)
    }

    fn pulls(&self, arm: usize) -> u64 {
        self.inner.pulls(arm)
    }
}

/// Returns the registered timing twin of one of the paper's three policies,
/// registering the twins on first use.
pub fn timed_policy(kind: BanditKind) -> BanditKind {
    static TWINS: OnceLock<BTreeMap<&'static str, BanditKind>> = OnceLock::new();
    let twins = TWINS.get_or_init(|| {
        [
            BanditKind::EpsilonGreedy,
            BanditKind::Ucb1,
            BanditKind::Exp3,
        ]
        .into_iter()
        .map(|builtin| {
            let twin = register_policy(&format!("perfbench-timed-{}", builtin.name()), {
                move |params: &PolicyParams| -> Box<dyn Bandit> {
                    let params = PolicyParams {
                        kind: builtin,
                        ..*params
                    };
                    Box::new(TimedBandit {
                        inner: builtin.build_with(&params),
                    })
                }
            })
            .expect("the twin names are not reserved");
            (builtin.name(), twin)
        })
        .collect()
    });
    *twins
        .get(kind.name())
        .unwrap_or_else(|| panic!("no timing twin for policy `{kind}`"))
}

/// A `Write` sink that only counts bytes.
#[derive(Debug, Clone, Default)]
pub struct ByteCounter(Arc<AtomicU64>);

impl ByteCounter {
    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One folded test's coverage, in fold order, for the merge replay.
#[derive(Debug)]
pub enum FoldRecord {
    /// A test folded into `arm` (always 0 for the baseline).
    Test { arm: usize, coverage: CoverageMap },
    /// `arm`'s local coverage was reset.
    Reset { arm: usize },
}

/// What a [`FoldProbe`] measured.
#[derive(Debug, Default)]
pub struct FoldTally {
    /// Time the fold waited from a round's arm selection (or, for the
    /// baseline, the previous fold) to the round's first folded test.
    pub round_wait_ns: u64,
    /// Time spent inside the probe itself (tracing cost).
    pub probe_ns: u64,
    /// Events observed.
    pub events: u64,
    /// The folded coverage stream.
    pub folds: Vec<FoldRecord>,
}

/// A timing observer; it also feeds an `EventLog` into a byte counter so the
/// event volume is measured with the production serialiser.
pub struct FoldProbe {
    log: EventLog<ByteCounter>,
    tally: Arc<Mutex<FoldTally>>,
    /// Baseline campaigns have no rounds; every test is its own wait.
    baseline: bool,
    wait_start: Option<Instant>,
}

impl FoldProbe {
    /// A probe for one campaign, created right before it executes.
    pub fn new(baseline: bool, bytes: ByteCounter, tally: Arc<Mutex<FoldTally>>) -> FoldProbe {
        FoldProbe {
            log: EventLog::new(bytes),
            tally,
            baseline,
            wait_start: baseline.then(Instant::now),
        }
    }

    /// Runs `body` and charges its time to the probe.
    fn timed(&mut self, body: impl FnOnce(&mut FoldProbe)) {
        let start = Instant::now();
        body(self);
        let mut tally = self.tally.lock().expect("probe lock poisoned");
        tally.events += 1;
        tally.probe_ns += nanos(start.elapsed());
    }
}

impl CampaignObserver for FoldProbe {
    fn arm_selected(&mut self, event: &ArmSelected) {
        self.timed(|probe| probe.log.arm_selected(event));
        self.wait_start = Some(Instant::now());
    }

    fn test_folded(&mut self, event: &TestFolded<'_>) {
        let now = Instant::now();
        if let Some(start) = self.wait_start.take() {
            self.tally
                .lock()
                .expect("probe lock poisoned")
                .round_wait_ns += nanos(now - start);
        }
        self.timed(|probe| {
            probe.log.test_folded(event);
            let record = FoldRecord::Test {
                arm: event.arm,
                coverage: event.coverage.clone(),
            };
            probe
                .tally
                .lock()
                .expect("probe lock poisoned")
                .folds
                .push(record);
        });
        if self.baseline {
            self.wait_start = Some(Instant::now());
        }
    }

    fn batch_folded(&mut self, event: &BatchFolded) {
        self.timed(|probe| probe.log.batch_folded(event));
    }

    fn detection(&mut self, event: &DetectionObserved<'_>) {
        self.timed(|probe| probe.log.detection(event));
    }

    fn arm_reset(&mut self, event: &ArmReset) {
        self.timed(|probe| {
            probe.log.arm_reset(event);
            let record = FoldRecord::Reset { arm: event.arm };
            probe
                .tally
                .lock()
                .expect("probe lock poisoned")
                .folds
                .push(record);
        });
    }

    fn coverage_milestone(&mut self, event: &CoverageMilestone) {
        self.timed(|probe| probe.log.coverage_milestone(event));
    }

    fn campaign_finished(&mut self, event: &CampaignFinished) {
        self.timed(|probe| probe.log.campaign_finished(event));
    }
}

//! The simulate-and-compare harness shared by every fuzzer.

use std::sync::Arc;

use analysis::{ProgramFacts, Transition};
use coverage::{CoverageMap, EdgeSpace};
use isa_sim::{DecodeCache, DecodeCacheStats, ExecTrace, GoldenScratch, GoldenSim, ResetPolicy};
use proc_sim::{DutResult, Processor, SimScratch};
use riscv::Program;
use serde::{Deserialize, Serialize};

use crate::diff::{compare_traces_into, DiffReport};

/// Which coverage signal a harness reports per test.
///
/// The signal only changes *what* [`TestOutcome::coverage`] contains — the
/// simulate-and-compare semantics, the differential oracle and every other
/// outcome field are identical in both modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageSignal {
    /// The DUT's branch-coverage bitmap (the paper's signal; the default).
    #[default]
    Point,
    /// Static CFG edges traversed by the DUT's commit stream, hashed into a
    /// fixed-size [`EdgeSpace`] (see the `analysis` crate for the CFG and the
    /// edge-id stability guarantee).
    Edge,
}

impl CoverageSignal {
    /// Stable lower-case name, as spelled in campaign specs and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            CoverageSignal::Point => "point",
            CoverageSignal::Edge => "edge",
        }
    }

    /// Parses the spec/CLI spelling (`"point"` / `"edge"`).
    pub fn parse(text: &str) -> Option<CoverageSignal> {
        match text {
            "point" => Some(CoverageSignal::Point),
            "edge" => Some(CoverageSignal::Edge),
            _ => None,
        }
    }
}

/// The result of running one test program through the harness.
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// The branch-coverage bitmap the DUT reported for this test.
    pub coverage: CoverageMap,
    /// The differential-testing report (empty when the DUT matched the golden
    /// model).
    pub diff: DiffReport,
    /// Number of instructions the DUT committed.
    pub dut_commits: usize,
    /// Number of instructions the golden model committed.
    pub golden_commits: usize,
}

impl TestOutcome {
    /// Returns `true` when the test exposed at least one architectural
    /// mismatch (a potential vulnerability).
    pub fn detected_mismatch(&self) -> bool {
        !self.diff.is_clean()
    }
}

/// Runs test programs on a processor model and the golden reference model,
/// returning coverage and differential-testing results.
///
/// The harness is the single place both TheHuzz and MABFuzz call into, so the
/// simulation and comparison semantics are identical across fuzzers — the only
/// thing that differs between them is *which* test gets simulated next.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use fuzzer::FuzzHarness;
/// use proc_sim::{cores::RocketCore, BugSet};
/// use riscv::{Program, Instr, Gpr, Op};
///
/// let harness = FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 1000);
/// let program = Program::from_instrs(vec![
///     Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, 1),
///     Instr::nullary(Op::Ecall),
/// ]);
/// let outcome = harness.run_program(&program);
/// assert!(!outcome.detected_mismatch());
/// ```
#[derive(Clone)]
pub struct FuzzHarness {
    processor: Arc<dyn Processor>,
    golden: GoldenSim,
    max_steps: usize,
    signal: CoverageSignal,
    edge_space: EdgeSpace,
}

impl FuzzHarness {
    /// Creates a harness for `processor`; each simulation commits at most
    /// `max_steps` instructions. The coverage signal defaults to
    /// [`CoverageSignal::Point`].
    pub fn new(processor: Arc<dyn Processor>, max_steps: usize) -> FuzzHarness {
        FuzzHarness {
            processor,
            golden: GoldenSim::new(),
            max_steps,
            signal: CoverageSignal::Point,
            edge_space: EdgeSpace::new(),
        }
    }

    /// Selects the coverage signal this harness reports.
    ///
    /// Shard workers clone the harness, so setting the signal before a
    /// campaign starts propagates it to every worker automatically.
    pub fn set_coverage_signal(&mut self, signal: CoverageSignal) {
        self.signal = signal;
    }

    /// The coverage signal this harness reports.
    pub fn coverage_signal(&self) -> CoverageSignal {
        self.signal
    }

    /// Returns the processor under test.
    pub fn processor(&self) -> &Arc<dyn Processor> {
        &self.processor
    }

    /// Returns the per-test instruction budget.
    pub fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// Returns the length of every coverage map this harness reports: the
    /// DUT's coverage-space size under the point signal, the fixed
    /// [`EdgeSpace`] length under the edge signal.
    pub fn coverage_space_len(&self) -> usize {
        match self.signal {
            CoverageSignal::Point => self.processor.coverage_space().len(),
            CoverageSignal::Edge => self.edge_space.len(),
        }
    }

    /// Simulates `program` on the DUT and the golden model and compares the
    /// traces.
    ///
    /// Convenience wrapper that allocates fresh buffers per call; campaign
    /// loops use [`run_program_into`](FuzzHarness::run_program_into) with a
    /// long-lived [`ExecScratch`] instead.
    pub fn run_program(&self, program: &Program) -> TestOutcome {
        let mut scratch = ExecScratch::new();
        self.run_program_into(program, &mut scratch);
        let coverage = match self.signal {
            CoverageSignal::Point => scratch.dut.coverage,
            CoverageSignal::Edge => scratch.edge_coverage,
        };
        TestOutcome {
            coverage,
            diff: scratch.diff,
            dut_commits: scratch.dut.trace.len(),
            golden_commits: scratch.golden_trace.len(),
        }
    }

    /// Simulates `program` like [`run_program`](FuzzHarness::run_program) but
    /// into the caller's reusable scratch buffers, returning a borrowed view
    /// of the outcome.
    ///
    /// One `ExecScratch` per campaign makes the steady-state
    /// simulate–compare loop allocation-free in its buffers: the DUT trace
    /// and coverage bitmap, the golden trace, both memory images and the
    /// diff report are all cleared and refilled in place. Under the default
    /// snapshot-reset policy even the per-test architectural state is
    /// recycled: both simulators restore only the state the previous test
    /// dirtied (see `isa_sim::snapshot`), restoring the prior run's state in
    /// place instead of rebuilding it. Results are identical to
    /// [`run_program`](FuzzHarness::run_program).
    pub fn run_program_into<'s>(
        &self,
        program: &Program,
        scratch: &'s mut ExecScratch,
    ) -> TestOutcomeView<'s> {
        let edge_signal = self.signal == CoverageSignal::Edge;
        let fresh_facts;
        let facts = match scratch.decode_cache.as_mut() {
            Some(cache) => {
                // One lookup per test serves both simulators; facts are
                // analyzed only under the edge signal.
                let (decoded, facts) = if edge_signal {
                    let (decoded, facts) = cache.get_or_decode_with_facts(program);
                    (decoded, Some(facts))
                } else {
                    (cache.get_or_decode(program), None)
                };
                self.processor.run_decoded_into(
                    program,
                    decoded,
                    self.max_steps,
                    &mut scratch.sim,
                    &mut scratch.dut,
                );
                self.golden.run_decoded_into(
                    program,
                    decoded,
                    self.max_steps,
                    &mut scratch.golden_trace,
                    &mut scratch.golden_scratch,
                );
                facts
            }
            // Oracle mode (`MABFUZZ_DECODE_CACHE=off`): the interpreted
            // fetch/decode path, kept alive as the differential reference
            // the pre-decoded path is byte-compared against in tests and CI.
            // Analysis is a pure function of the text bytes, so its fresh
            // facts are interchangeable with the memo's.
            None => {
                self.processor.run_into(
                    program,
                    self.max_steps,
                    &mut scratch.sim,
                    &mut scratch.dut,
                );
                self.golden.run_into(
                    program,
                    self.max_steps,
                    &mut scratch.golden_trace,
                    &mut scratch.golden_scratch,
                );
                fresh_facts = edge_signal.then(|| ProgramFacts::analyze(&program.text_bytes()));
                fresh_facts.as_ref()
            }
        };
        if let Some(facts) = facts {
            map_edge_coverage(
                facts,
                &self.edge_space,
                &scratch.dut.trace,
                &mut scratch.edge_coverage,
            );
        }
        compare_traces_into(&scratch.dut.trace, &scratch.golden_trace, &mut scratch.diff);
        TestOutcomeView {
            coverage: if edge_signal { &scratch.edge_coverage } else { &scratch.dut.coverage },
            diff: &scratch.diff,
            dut_commits: scratch.dut.trace.len(),
            golden_commits: scratch.golden_trace.len(),
        }
    }
}

/// Marks the edge-coverage slot of every static CFG edge the DUT's commit
/// stream traversed.
///
/// Each commit maps through [`ProgramFacts::map_transition`]; internal
/// (sequential, non-terminator) steps contribute nothing, and a commit that
/// fits no static edge — possible only for a commit stream deviating from the
/// golden semantics, i.e. a buggy DUT — is silently dropped rather than
/// hashed to an arbitrary slot. The static-vs-dynamic consistency suite pins
/// that golden traces (and every modelled bug's DUT traces) never hit that
/// case.
fn map_edge_coverage(
    facts: &ProgramFacts,
    space: &EdgeSpace,
    trace: &ExecTrace,
    map: &mut CoverageMap,
) {
    map.reset_for_len(space.len());
    for commit in trace.iter() {
        match facts.map_transition(commit.pc, commit.next_pc, commit.exception.is_some()) {
            Transition::Edge(index) => {
                let edge = &facts.edges()[index];
                map.cover(space.slot(edge.from_pc, edge.to, edge.kind.code()));
            }
            Transition::Internal | Transition::Unmatched => {}
        }
    }
}

/// Reusable per-campaign simulation buffers for
/// [`FuzzHarness::run_program_into`].
///
/// Owns everything a simulate–compare iteration writes: the DUT result
/// (trace + coverage bitmap), the DUT's microarchitectural scratch, the
/// golden model's trace and memory image, the differential report — and the
/// worker's private [`DecodeCache`], which holds the image of the last
/// program simulated. Because the memo lives *inside* the scratch, every
/// campaign and every shard worker owns its own: the hot path shares no
/// mutable state, and a worker's hit/miss sequence is a pure function of the
/// programs it simulates (never of shard count or thread interleaving). The
/// same per-worker reasoning covers the snapshot/dirty reset state inside
/// both simulators' scratches: what a restore cleans is a pure function of
/// what the same worker's previous test dirtied, and the restored state is
/// byte-identical to a fresh one either way.
#[derive(Debug)]
pub struct ExecScratch {
    sim: SimScratch,
    dut: DutResult,
    golden_trace: ExecTrace,
    golden_scratch: GoldenScratch,
    diff: DiffReport,
    decode_cache: Option<DecodeCache>,
    /// Edge-signal coverage bitmap, reshaped to the harness's [`EdgeSpace`]
    /// per test (allocation-free in the steady state). Stays empty under the
    /// point signal.
    edge_coverage: CoverageMap,
}

impl ExecScratch {
    /// Environment variable controlling whether new scratches carry a decode
    /// cache: `on`/`1`/`true` (also unset) enable it, `off`/`0`/`false`
    /// select the interpreted oracle path, anything else panics loudly
    /// (mirroring `MABFUZZ_SNAPSHOT_RESET`).
    pub const DECODE_CACHE_ENV: &'static str = "MABFUZZ_DECODE_CACHE";

    /// Environment variable controlling how new scratches reset the
    /// simulators between tests: `on`/`1`/`true` (also unset) select the
    /// snapshot/dirty-restore path, `off`/`0`/`false` the full-reinit
    /// differential oracle, anything else panics loudly. Same variable
    /// `isa_sim::ResetPolicy::from_env` reads.
    pub const SNAPSHOT_RESET_ENV: &'static str = ResetPolicy::ENV_VAR;

    /// Creates empty scratch buffers, honouring
    /// [`DECODE_CACHE_ENV`](ExecScratch::DECODE_CACHE_ENV) for the decode
    /// cache and [`SNAPSHOT_RESET_ENV`](ExecScratch::SNAPSHOT_RESET_ENV) for
    /// the reset policy (both enabled by default).
    pub fn new() -> ExecScratch {
        ExecScratch::build(decode_cache_enabled_from_env(), ResetPolicy::from_env())
    }

    /// Creates empty scratch buffers with the decode cache explicitly on or
    /// off, ignoring the environment — tests and benches use this to compare
    /// the cached and interpreted paths side by side. The reset policy stays
    /// at its default (snapshot reset).
    pub fn with_decode_cache(enabled: bool) -> ExecScratch {
        ExecScratch::build(enabled, ResetPolicy::SnapshotReset)
    }

    /// Creates empty scratch buffers with the reset policy explicitly set
    /// (`false` selects the full-reinit differential oracle), ignoring the
    /// environment. The decode cache stays at its default (enabled).
    pub fn with_snapshot_reset(enabled: bool) -> ExecScratch {
        let policy = if enabled { ResetPolicy::SnapshotReset } else { ResetPolicy::FullReinit };
        ExecScratch::build(true, policy)
    }

    fn build(decode_cache: bool, policy: ResetPolicy) -> ExecScratch {
        ExecScratch {
            sim: SimScratch::with_policy(policy),
            dut: DutResult::default(),
            golden_trace: ExecTrace::default(),
            golden_scratch: GoldenScratch::with_policy(policy),
            diff: DiffReport::default(),
            decode_cache: decode_cache.then(DecodeCache::new),
            edge_coverage: CoverageMap::with_len(0),
        }
    }

    /// Returns `true` when this scratch runs the pre-decoded path.
    pub fn decode_cache_enabled(&self) -> bool {
        self.decode_cache.is_some()
    }

    /// Returns `true` when this scratch resets both simulators via the
    /// snapshot/dirty-restore path instead of full reinitialisation.
    pub fn snapshot_reset_enabled(&self) -> bool {
        self.sim.reset_policy().is_snapshot()
    }

    /// Returns the decode memo's hit/miss counters (all zero in oracle
    /// mode).
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.decode_cache.as_ref().map(DecodeCache::stats).unwrap_or_default()
    }
}

impl Default for ExecScratch {
    fn default() -> ExecScratch {
        ExecScratch::new()
    }
}

fn decode_cache_enabled_from_env() -> bool {
    match std::env::var(ExecScratch::DECODE_CACHE_ENV) {
        Err(std::env::VarError::NotPresent) => true,
        Err(error) => panic!("{}: {error}", ExecScratch::DECODE_CACHE_ENV),
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "" | "on" | "1" | "true" => true,
            "off" | "0" | "false" => false,
            other => panic!(
                "{}: expected on/off (or 1/0, true/false), got {other:?}",
                ExecScratch::DECODE_CACHE_ENV
            ),
        },
    }
}

/// A borrowed view of one test's outcome inside an [`ExecScratch`] — the
/// allocation-free counterpart of [`TestOutcome`].
#[derive(Debug)]
pub struct TestOutcomeView<'s> {
    /// The branch-coverage bitmap the DUT reported for this test.
    pub coverage: &'s CoverageMap,
    /// The differential-testing report (empty when the DUT matched the golden
    /// model).
    pub diff: &'s DiffReport,
    /// Number of instructions the DUT committed.
    pub dut_commits: usize,
    /// Number of instructions the golden model committed.
    pub golden_commits: usize,
}

impl TestOutcomeView<'_> {
    /// Returns `true` when the test exposed at least one architectural
    /// mismatch (a potential vulnerability).
    pub fn detected_mismatch(&self) -> bool {
        !self.diff.is_clean()
    }

    /// Clones the borrowed view into an owned [`TestOutcome`].
    ///
    /// The sharded campaign path uses this to materialise batch outcomes
    /// that outlive the worker's scratch buffers; the serial hot path keeps
    /// borrowing instead.
    pub fn to_outcome(&self) -> TestOutcome {
        TestOutcome {
            coverage: self.coverage.clone(),
            diff: self.diff.clone(),
            dut_commits: self.dut_commits,
            golden_commits: self.golden_commits,
        }
    }

    /// Writes the view into an existing [`TestOutcome`], reusing its
    /// coverage-bitmap and mismatch-vector allocations.
    ///
    /// Equivalent to `*out = self.to_outcome()` but allocation-free in the
    /// steady state — this is how the shard pool refills recycled outcome
    /// buffers (see `ShardPool::recycle`).
    pub fn clone_into_outcome(&self, out: &mut TestOutcome) {
        out.coverage.copy_from(self.coverage);
        out.diff.copy_from(self.diff);
        out.dut_commits = self.dut_commits;
        out.golden_commits = self.golden_commits;
    }
}

impl std::fmt::Debug for FuzzHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuzzHarness")
            .field("processor", &self.processor.name())
            .field("max_steps", &self.max_steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proc_sim::{cores::Cva6Core, cores::RocketCore, BugSet, Vulnerability};
    use riscv::asm::parse_program;

    fn program(asm: &str) -> Program {
        Program::from_instrs(parse_program(asm).expect("valid asm"))
    }

    #[test]
    fn clean_core_reports_coverage_without_mismatches() {
        let harness = FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 500);
        let outcome = harness.run_program(&program("addi a0, zero, 5\nmul a1, a0, a0\necall\n"));
        assert!(!outcome.detected_mismatch());
        assert!(outcome.coverage.count() > 0);
        assert_eq!(outcome.dut_commits, outcome.golden_commits);
        assert_eq!(harness.coverage_space_len(), outcome.coverage.len());
        assert_eq!(harness.max_steps(), 500);
        assert_eq!(harness.processor().name(), "rocket");
    }

    #[test]
    fn buggy_core_reports_a_mismatch_when_triggered() {
        let harness = FuzzHarness::new(
            Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V6UnimplCsrJunk))),
            500,
        );
        let clean = harness.run_program(&program("addi a0, zero, 1\necall\n"));
        assert!(!clean.detected_mismatch(), "no trigger, no mismatch");
        let triggered = harness.run_program(&program("csrrw a0, 0x5c0, zero\necall\n"));
        assert!(triggered.detected_mismatch());
    }

    #[test]
    fn scratch_reuse_matches_fresh_buffers_exactly() {
        // The same harness, one scratch reused across many different
        // programs (clean and buggy cores, mismatching and clean tests):
        // every outcome must equal the allocating path's.
        let programs = [
            program("addi a0, zero, 5\nmul a1, a0, a0\necall\n"),
            program("lui gp, 0x80010\nsd a0, 0(gp)\nld a1, 0(gp)\necall\n"),
            program("csrrw a0, 0x5c0, zero\necall\n"),
            program("addi a0, zero, 1\necall\n"),
        ];
        for processor in [
            FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 500),
            FuzzHarness::new(
                Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V6UnimplCsrJunk))),
                500,
            ),
        ] {
            let mut scratch = ExecScratch::new();
            for prog in &programs {
                let fresh = processor.run_program(prog);
                let reused = processor.run_program_into(prog, &mut scratch);
                assert_eq!(fresh.coverage, *reused.coverage);
                assert_eq!(fresh.diff, *reused.diff);
                assert_eq!(fresh.dut_commits, reused.dut_commits);
                assert_eq!(fresh.golden_commits, reused.golden_commits);
                assert_eq!(fresh.detected_mismatch(), reused.detected_mismatch());
            }
        }
    }

    #[test]
    fn clone_into_outcome_matches_to_outcome() {
        let harness = FuzzHarness::new(
            Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V6UnimplCsrJunk))),
            500,
        );
        let programs = [
            program("addi a0, zero, 5\nmul a1, a0, a0\necall\n"),
            program("csrrw a0, 0x5c0, zero\necall\n"), // mismatching
            program("addi a0, zero, 1\necall\n"),
        ];
        let mut scratch = ExecScratch::new();
        // Seed the recycled buffer with unrelated content so stale state
        // would be caught.
        let mut recycled = harness.run_program(&programs[1]);
        for prog in &programs {
            let view = harness.run_program_into(prog, &mut scratch);
            let fresh = view.to_outcome();
            view.clone_into_outcome(&mut recycled);
            assert_eq!(recycled.coverage, fresh.coverage);
            assert_eq!(recycled.diff, fresh.diff);
            assert_eq!(recycled.dut_commits, fresh.dut_commits);
            assert_eq!(recycled.golden_commits, fresh.golden_commits);
        }
    }

    #[test]
    fn debug_format_names_the_processor() {
        let harness = FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 100);
        let text = format!("{harness:?}");
        assert!(text.contains("rocket"));
    }

    fn mixed_program_set() -> Vec<Program> {
        let mut garbage = program("addi a0, zero, 1\nnop\necall\n");
        garbage.set_raw(1, 0xffff_ffff);
        vec![
            program("addi a0, zero, 5\nmul a1, a0, a0\necall\n"),
            program("lui gp, 0x80010\nsd a0, 0(gp)\nld a1, 0(gp)\necall\n"),
            program("csrrw a0, 0x5c0, zero\necall\n"),
            garbage,
            Program::new(),
        ]
    }

    #[test]
    fn cached_and_interpreted_scratches_agree_on_every_outcome() {
        for harness in [
            FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 500),
            FuzzHarness::new(Arc::new(Cva6Core::new(BugSet::all())), 500),
        ] {
            let mut cached = ExecScratch::with_decode_cache(true);
            let mut oracle = ExecScratch::with_decode_cache(false);
            assert!(cached.decode_cache_enabled());
            assert!(!oracle.decode_cache_enabled());
            // Each program runs twice back to back, so the memo also hits.
            let programs = mixed_program_set();
            for prog in programs.iter().flat_map(|prog| [prog, prog]) {
                let a = harness.run_program_into(prog, &mut cached).to_outcome();
                let b = harness.run_program_into(prog, &mut oracle).to_outcome();
                assert_eq!(a.coverage, b.coverage);
                assert_eq!(a.diff, b.diff);
                assert_eq!(a.dut_commits, b.dut_commits);
                assert_eq!(a.golden_commits, b.golden_commits);
            }
            let stats = cached.decode_cache_stats();
            assert_eq!(stats.misses, 5, "each first run decodes");
            assert_eq!(stats.hits, 5, "each back-to-back repeat hits");
            assert_eq!(oracle.decode_cache_stats().lookups(), 0, "oracle mode never looks up");
        }
    }

    #[test]
    fn snapshot_and_reinit_scratches_agree_on_every_outcome() {
        for harness in [
            FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 500),
            FuzzHarness::new(Arc::new(Cva6Core::new(BugSet::all())), 500),
        ] {
            let mut restored = ExecScratch::with_snapshot_reset(true);
            let mut oracle = ExecScratch::with_snapshot_reset(false);
            assert!(restored.snapshot_reset_enabled());
            assert!(!oracle.snapshot_reset_enabled());
            // Two passes, so the restored scratch re-runs every program on
            // top of each possible predecessor's dirt.
            let programs = mixed_program_set();
            for prog in programs.iter().chain(programs.iter()) {
                let a = harness.run_program_into(prog, &mut restored).to_outcome();
                let b = harness.run_program_into(prog, &mut oracle).to_outcome();
                assert_eq!(a.coverage, b.coverage);
                assert_eq!(a.diff, b.diff);
                assert_eq!(a.dut_commits, b.dut_commits);
                assert_eq!(a.golden_commits, b.golden_commits);
            }
        }
    }

    #[test]
    fn edge_signal_reports_the_fixed_edge_space() {
        let mut harness = FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 500);
        assert_eq!(harness.coverage_signal(), CoverageSignal::Point);
        harness.set_coverage_signal(CoverageSignal::Edge);
        assert_eq!(harness.coverage_signal(), CoverageSignal::Edge);
        assert_eq!(harness.coverage_space_len(), EdgeSpace::DEFAULT_LEN);
        let outcome =
            harness.run_program(&program("addi a0, zero, 5\nbeq a0, a0, 8\nnop\necall\n"));
        assert_eq!(outcome.coverage.len(), EdgeSpace::DEFAULT_LEN);
        // At least the taken branch edge and the halting ecall's trap exit.
        assert!(outcome.coverage.count() >= 2, "count = {}", outcome.coverage.count());
        assert!(!outcome.detected_mismatch());
    }

    #[test]
    fn edge_signal_does_not_perturb_the_differential_verdict() {
        for signal in [CoverageSignal::Point, CoverageSignal::Edge] {
            let mut harness = FuzzHarness::new(
                Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V6UnimplCsrJunk))),
                500,
            );
            harness.set_coverage_signal(signal);
            let triggered = harness.run_program(&program("csrrw a0, 0x5c0, zero\necall\n"));
            assert!(triggered.detected_mismatch(), "signal {} lost the mismatch", signal.name());
        }
    }

    #[test]
    fn edge_cached_and_oracle_scratches_agree_on_every_outcome() {
        // The oracle path re-analyzes the image per test; purity of the
        // analysis makes it byte-identical to the cached facts path.
        for mut harness in [
            FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 500),
            FuzzHarness::new(Arc::new(Cva6Core::new(BugSet::all())), 500),
        ] {
            harness.set_coverage_signal(CoverageSignal::Edge);
            let mut cached = ExecScratch::with_decode_cache(true);
            let mut oracle = ExecScratch::with_decode_cache(false);
            let programs = mixed_program_set();
            for prog in programs.iter().flat_map(|prog| [prog, prog]) {
                let a = harness.run_program_into(prog, &mut cached).to_outcome();
                let b = harness.run_program_into(prog, &mut oracle).to_outcome();
                assert_eq!(a.coverage, b.coverage);
                assert_eq!(a.diff, b.diff);
                assert_eq!(a.coverage.len(), EdgeSpace::DEFAULT_LEN);
            }
            assert_eq!(cached.decode_cache_stats().misses, 5);
            assert_eq!(cached.decode_cache_stats().hits, 5);
        }
    }

    #[test]
    fn coverage_signal_round_trips_its_name() {
        for signal in [CoverageSignal::Point, CoverageSignal::Edge] {
            assert_eq!(CoverageSignal::parse(signal.name()), Some(signal));
        }
        assert_eq!(CoverageSignal::parse("edges"), None);
        assert_eq!(CoverageSignal::default(), CoverageSignal::Point);
    }

    #[test]
    fn cache_stats_depend_only_on_the_program_sequence() {
        // Two workers fed the same program sequence report identical
        // counters, regardless of what any other scratch did in between —
        // the property that makes hit behaviour shard-count invariant
        // (shard workers each own their scratch and see a deterministic
        // subsequence).
        let harness = FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 500);
        let programs = mixed_program_set();
        let order = [0usize, 1, 0, 2, 3, 0, 4, 1];
        let run = |scratch: &mut ExecScratch| {
            // Each program runs twice back to back: a miss, then a hit.
            for &i in order.iter().flat_map(|i| [i, i]) {
                harness.run_program_into(&programs[i], scratch);
            }
            scratch.decode_cache_stats()
        };
        let mut first = ExecScratch::with_decode_cache(true);
        let stats_first = run(&mut first);
        // Perturb an unrelated scratch between the two measurements.
        let mut noise = ExecScratch::with_decode_cache(true);
        harness.run_program_into(&programs[3], &mut noise);
        let mut second = ExecScratch::with_decode_cache(true);
        let stats_second = run(&mut second);
        assert_eq!(stats_first, stats_second);
        assert_eq!(stats_first.misses, 8);
        assert_eq!(stats_first.hits, 8);
    }
}

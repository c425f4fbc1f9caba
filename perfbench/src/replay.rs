//! Replays of a traced campaign's captured streams through the layers the
//! campaign calls internally (decode cache, golden model, trace diff, static
//! analysis, coverage merge), timing each layer's public function.
//!
//! Each simulating thread owns its own decode cache and golden scratch in
//! the campaign, so the DUT stream is replayed per thread, in call order:
//! hit/miss sequences and reset work match the campaign's exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use analysis::ProgramFacts;
use coverage::CoverageMap;
use fuzzer::diff::compare_traces_into;
use fuzzer::DiffReport;
use isa_sim::{DecodeCache, ExecTrace, GoldenScratch, GoldenSim};

use crate::probe::{DutCall, FoldRecord};

/// What replaying one campaign's DUT stream measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimReplay {
    /// Time in `DecodeCache::get_or_decode`.
    pub decode_ns: u64,
    /// Decode-cache hits.
    pub decode_hits: u64,
    /// Decode-cache misses (distinct images per thread).
    pub decode_misses: u64,
    /// Time in `GoldenSim::run_decoded_into`.
    pub golden_ns: u64,
    /// Instructions the golden model committed.
    pub golden_commits: u64,
    /// Memory units the golden scratch restored between tests.
    pub reset_units: u64,
    /// Time in `compare_traces_into`.
    pub diff_ns: u64,
    /// Tests whose DUT and golden traces differ.
    pub mismatching_tests: u64,
    /// Time in `ProgramFacts::analyze`, once per decode miss.
    pub analyze_ns: u64,
    /// Images analysed.
    pub images: u64,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays the DUT stream through decode, golden simulation, trace diff and
/// (once per distinct image) static analysis.
pub fn replay_simulation(calls: &[DutCall]) -> SimReplay {
    let mut threads: Vec<_> = Vec::new();
    for call in calls {
        match threads
            .iter_mut()
            .find(|(thread, _): &&mut (_, Vec<&DutCall>)| *thread == call.thread)
        {
            Some((_, stream)) => stream.push(call),
            None => threads.push((call.thread, vec![call])),
        }
    }

    let golden = GoldenSim::new();
    let mut out = SimReplay::default();
    for (_, stream) in threads {
        let mut cache = DecodeCache::new();
        let mut scratch = GoldenScratch::new();
        let mut trace = ExecTrace::default();
        let mut report = DiffReport::default();
        for call in stream {
            let misses = cache.stats().misses;
            let start = Instant::now();
            let decoded = cache.get_or_decode(&call.program);
            out.decode_ns += elapsed_ns(start);

            let start = Instant::now();
            golden.run_decoded_into(
                &call.program,
                decoded,
                call.max_steps,
                &mut trace,
                &mut scratch,
            );
            out.golden_ns += elapsed_ns(start);
            out.golden_commits += trace.len() as u64;

            let start = Instant::now();
            compare_traces_into(&call.trace, &trace, &mut report);
            out.diff_ns += elapsed_ns(start);
            out.mismatching_tests += u64::from(!report.is_clean());

            if cache.stats().misses > misses {
                let text = call.program.text_bytes();
                let start = Instant::now();
                black_box(ProgramFacts::analyze(black_box(&text)));
                out.analyze_ns += elapsed_ns(start);
                out.images += 1;
            }
        }
        let stats = cache.stats();
        out.decode_hits += stats.hits;
        out.decode_misses += stats.misses;
        out.reset_units += scratch.reset_stats().units_restored;
    }
    out
}

/// Replays the fold's coverage merges: every test into the campaign-global
/// map and, for bandit campaigns, into its arm's local map.
/// Returns the time spent in `CoverageMap::merge_counting`.
pub fn replay_merges(folds: &[FoldRecord], per_arm: bool) -> u64 {
    let mut global: Option<CoverageMap> = None;
    let mut arms: BTreeMap<usize, CoverageMap> = BTreeMap::new();
    let mut merge_ns = 0;
    for record in folds {
        match record {
            FoldRecord::Test { arm, coverage } => {
                let global = global.get_or_insert_with(|| CoverageMap::with_len(coverage.len()));
                let local = arms
                    .entry(*arm)
                    .or_insert_with(|| CoverageMap::with_len(coverage.len()));
                let start = Instant::now();
                black_box(global.merge_counting(coverage));
                if per_arm {
                    black_box(local.merge_counting(coverage));
                }
                merge_ns += elapsed_ns(start);
            }
            FoldRecord::Reset { arm } => {
                if let Some(local) = arms.get_mut(arm) {
                    local.clear();
                }
            }
        }
    }
    merge_ns
}

//! Intra-campaign sharded simulation with deterministic reduction.
//!
//! A bandit round (MABFuzz §III: select arm → generate batch → simulate →
//! reward) is an embarrassingly parallel *map* over the batch's test
//! programs followed by an order-sensitive *reduce* into the campaign and
//! arm state. This module provides the map side: a [`ShardPlan`] describing
//! how a campaign splits its rounds, a persistent fork/join [`ShardPool`]
//! whose workers each own their own [`ExecScratch`], and the
//! [`derive_stream_seed`] per-test RNG derivation. The ordered reduce lives
//! in the campaign loop (`mabfuzz::Campaign::execute`).
//!
//! # Determinism contract
//!
//! A sharded campaign report is **byte-identical for every shard count**
//! (at a fixed batch size). The contract has three rules; everything else
//! follows from them:
//!
//! 1. **Seed derivation.** Randomness consumed on behalf of an individual
//!    test of a batched round — refilling an empty pool, mutating an
//!    interesting test — comes from a per-test stream seeded with
//!    [`derive_stream_seed`]`(campaign_seed, round, test_index)` (a
//!    SplitMix64 chain). The stream depends only on those three values,
//!    never on which shard simulated the test or on pool/fold history.
//!    Round-level randomness (arm selection, replacement seeds for reset
//!    arms) stays on the campaign's main RNG, which is only ever drawn from
//!    in the serial sections (batch assembly and the ordered fold), so its
//!    draw sequence is also shard-independent.
//! 2. **Pure map.** Simulating one program is a pure function of the
//!    program: `FuzzHarness::run_program_into` writes the same trace,
//!    coverage bitmap and diff regardless of which scratch buffers it reuses
//!    (the harness tests pin this). The scratch's decode cache preserves the
//!    rule: it is private to the worker (no shared mutable state on the hot
//!    path) and holds only the decoded image of the worker's previous
//!    program, reused when the next program has the same text, so a hit and
//!    a miss produce identical outcomes — and therefore shard count can
//!    change neither results nor, for a given worker subsequence, hit
//!    behaviour. The snapshot/dirty reset (`isa_sim::snapshot`) preserves
//!    the rule the same way: the dirty state a restore cleans is private to
//!    the worker's scratch and a function only of the worker's own previous
//!    test, and a restored simulator is byte-identical to a freshly
//!    reinitialised one (pinned by the restore-equivalence tests and the
//!    `MABFUZZ_SNAPSHOT_RESET=off` oracle in CI) — so *which* test ran
//!    before on the same worker is as unobservable as whether the decode
//!    cache hit. Shards therefore only decide *where* a
//!    test runs, never *what* it produces. Workers claim the fixed strided
//!    slice `test_index % shards == shard` — assignment is static, not
//!    load-stealing — but because the map is pure even a dynamic assignment
//!    would produce the same outcomes.
//! 3. **Ordered reduce.** Batch outcomes are folded in ascending
//!    `test_index` order, whatever order the shards finished in: global
//!    coverage absorption ([`CoverageMap::merge_counting`] — associative,
//!    so the union is order-free, while the novelty *deltas* the rewards
//!    are made of are recovered by the ordered fold), arm-local absorption,
//!    detection recording, mutation of interesting tests, bandit reward
//!    updates (`mab::Bandit::update_batch`) and saturation/reset checks.
//!    The bandit and the statistics therefore observe the exact sequence a
//!    serial (1-shard) run of the same plan observes.
//!
//! A batch size of **1** additionally reproduces the pre-sharding serial
//! campaign draw-for-draw (all randomness stays on the main RNG in that
//! degenerate case), which is why a campaign on `ShardPlan::serial()` — the
//! plan every published paper artefact uses — is a special case of the
//! sharded loop and stayed byte-identical.
//!
//! ## Edge-coverage folds
//!
//! The contract is stated over coverage *maps*, not over the point signal
//! specifically, and the edge signal ([`crate::CoverageSignal::Edge`]) satisfies it
//! with no new rules. Rule 2 holds because the static CFG an edge bitmap is
//! keyed by is itself a pure function of the program's text bytes
//! (`analysis::ProgramFacts::analyze`, pinned by the purity proptest in
//! `isa_sim::decoded`), and the per-worker decode cache computes the facts
//! of the image it holds and drops them when the image changes — a hit and
//! a miss hand the harness the same edge ids. Rule 3 holds because an edge map is a fixed-length
//! [`coverage::EdgeSpace`] bitmap folded with the same associative
//! `merge_counting` union as the point bitmap; the ordered fold recovers the
//! novelty deltas identically. Shard-count independence of edge campaigns is
//! pinned end to end by `mabfuzz::campaign`'s
//! `edge_signal_campaigns_are_shard_count_independent` and the
//! `oracle-equivalence` CI job.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use coverage::CoverageMap;
use riscv::Program;

use crate::harness::{ExecScratch, FuzzHarness, TestOutcome};

/// How a campaign splits each bandit round across simulation shards.
///
/// Two independent knobs:
///
/// * `batch_size` — how many tests one arm pull simulates before the
///   ordered fold runs. This **changes the campaign's RNG contract** (see
///   the module docs): batch size 1 is the legacy serial stream, batch
///   sizes above 1 use the derived per-test streams.
/// * `shards` — how many worker threads the batch's simulations spread
///   over. This **never changes results**: reports are byte-identical for
///   every shard count at a fixed batch size.
///
/// To keep that split honest, [`ShardPlan::sharded`] always pairs the
/// requested shard count with the fixed [`ShardPlan::DEFAULT_BATCH`], so
/// `sharded(1)` and `sharded(8)` are comparable runs of the same campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    batch_size: usize,
}

impl ShardPlan {
    /// The batch size every [`ShardPlan::sharded`] plan uses, independent of
    /// the shard count, so results stay comparable across shard counts.
    pub const DEFAULT_BATCH: usize = 32;

    /// The legacy plan: one test per round on the calling thread. This is
    /// the reference behaviour every published experiment artefact uses.
    pub fn serial() -> ShardPlan {
        ShardPlan { shards: 1, batch_size: 1 }
    }

    /// A batched plan simulating [`DEFAULT_BATCH`](ShardPlan::DEFAULT_BATCH)
    /// tests per round across `shards` worker shards (clamped to at least
    /// one).
    pub fn sharded(shards: usize) -> ShardPlan {
        ShardPlan { shards: shards.max(1), batch_size: ShardPlan::DEFAULT_BATCH }
    }

    /// Returns a copy with a different per-round batch size (clamped to at
    /// least one test).
    pub fn with_batch_size(mut self, batch_size: usize) -> ShardPlan {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Returns a copy with a different shard count (clamped to at least
    /// one).
    pub fn with_shards(mut self, shards: usize) -> ShardPlan {
        self.shards = shards.max(1);
        self
    }

    /// Number of simulation shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Tests simulated per bandit round.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Returns `true` for the legacy one-test-per-round plan.
    pub fn is_serial(&self) -> bool {
        self.shards == 1 && self.batch_size == 1
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        ShardPlan::serial()
    }
}

impl std::fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} shard(s) x {} test(s)/round", self.shards, self.batch_size)
    }
}

/// SplitMix64 finalizer: the statistically strong 64-bit mix underneath
/// [`derive_stream_seed`].
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG stream seed of one test of one batched round:
/// `splitmix(splitmix(splitmix(campaign_seed) ^ round) ^ test_index)`.
///
/// The derivation is the first rule of the determinism contract (module
/// docs): a test's generation randomness is a function of the campaign
/// seed, the round number and the test's index within the round — nothing
/// else — so results cannot depend on which shard ran the test. The chained
/// SplitMix64 finalizer decorrelates neighbouring `(round, test_index)`
/// pairs, which plain XOR-ing into the seed would not.
pub fn derive_stream_seed(campaign_seed: u64, round: u64, test_index: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(campaign_seed) ^ round) ^ test_index)
}

/// Simulates `programs` on the calling thread, materialising one owned
/// [`TestOutcome`] per program (in input order).
///
/// This is the *reference implementation* the unit suite compares the
/// [`ShardPool`] against byte-for-byte. Campaign loops inline a borrowing
/// variant of the same per-program walk instead (the 1-shard path never
/// needs owned outcomes), so changing the orchestrator does not require
/// keeping this helper in sync — the pool-equivalence tests do.
pub fn simulate_serial<'p>(
    harness: &FuzzHarness,
    programs: impl IntoIterator<Item = &'p Program>,
    scratch: &mut ExecScratch,
) -> Vec<TestOutcome> {
    programs
        .into_iter()
        .map(|program| harness.run_program_into(program, scratch).to_outcome())
        .collect()
}

/// The message a worker sends back per simulated test: `None` signals that
/// the simulation panicked (the worker re-raises right after, and the
/// collector turns the marker into a panic on the campaign thread instead
/// of deadlocking on a missing slot).
type ShardResult = (usize, Option<TestOutcome>);

/// A persistent fork/join pool of simulation shards for one campaign.
///
/// Each worker owns a clone of the campaign's [`FuzzHarness`] and its own
/// [`ExecScratch`], so the per-shard steady state keeps the allocation-free
/// simulate–compare hot path. Work assignment is the static stride
/// `test_index % shards == shard`: deterministic, balanced for the
/// homogeneous per-test costs of the simulators, and free of claim-order
/// races. Workers live as long as the pool, so the per-round cost is two
/// channel hops per test rather than a thread spawn per round.
pub struct ShardPool {
    job_txs: Vec<Sender<Arc<Vec<Program>>>>,
    results_rx: Receiver<ShardResult>,
    recycle_txs: Vec<Sender<TestOutcome>>,
    handles: Vec<JoinHandle<()>>,
    shards: usize,
}

impl ShardPool {
    /// Spawns `shards` worker threads simulating on clones of `harness`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(harness: &FuzzHarness, shards: usize) -> ShardPool {
        assert!(shards > 0, "a shard pool needs at least one shard");
        let (results_tx, results_rx) = channel::<ShardResult>();
        let mut job_txs = Vec::with_capacity(shards);
        let mut recycle_txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (job_tx, job_rx) = channel::<Arc<Vec<Program>>>();
            let (recycle_tx, recycle_rx) = channel::<TestOutcome>();
            let results = results_tx.clone();
            let harness = harness.clone();
            handles.push(std::thread::spawn(move || {
                shard_worker(shard, shards, harness, job_rx, results, recycle_rx)
            }));
            job_txs.push(job_tx);
            recycle_txs.push(recycle_tx);
        }
        ShardPool { job_txs, results_rx, recycle_txs, handles, shards }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Hands consumed outcome buffers back to the workers that produced
    /// them, so subsequent batches refill the buffers in place
    /// ([`crate::TestOutcomeView::clone_into_outcome`]) instead of cloning a fresh
    /// coverage bitmap and mismatch vector per test.
    ///
    /// Outcome `i` of a [`simulate`](ShardPool::simulate) batch was produced
    /// by worker `i % shards`, and that is where it returns — each worker
    /// only ever reuses buffers it sized itself. Purely an allocation
    /// optimisation: recycling (or not recycling, or dropping some of the
    /// outcomes first) never changes simulation results.
    pub fn recycle(&self, outcomes: Vec<TestOutcome>) {
        for (index, outcome) in outcomes.into_iter().enumerate() {
            // A worker that already exited (campaign teardown) just drops
            // the returned buffer.
            let _ = self.recycle_txs[index % self.shards].send(outcome);
        }
    }

    /// Simulates one batch across the shards and returns the outcomes in
    /// input order (outcome `i` belongs to `programs[i]`), independent of
    /// shard completion order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any shard's simulation.
    pub fn simulate(&self, programs: &Arc<Vec<Program>>) -> Vec<TestOutcome> {
        for job_tx in &self.job_txs {
            job_tx.send(Arc::clone(programs)).expect("shard worker alive");
        }
        let mut slots: Vec<Option<TestOutcome>> = (0..programs.len()).map(|_| None).collect();
        for _ in 0..programs.len() {
            let (index, outcome) = self.results_rx.recv().expect("shard worker alive");
            let outcome =
                outcome.unwrap_or_else(|| panic!("shard worker panicked on test index {index}"));
            assert!(slots[index].replace(outcome).is_none(), "test index {index} simulated twice");
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every test index simulated exactly once"))
            .collect()
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops; join so no worker
        // outlives the campaign that owns the pool.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool").field("shards", &self.shards).finish()
    }
}

fn shard_worker(
    shard: usize,
    shards: usize,
    harness: FuzzHarness,
    jobs: Receiver<Arc<Vec<Program>>>,
    results: Sender<ShardResult>,
    recycle: Receiver<TestOutcome>,
) {
    let mut scratch = ExecScratch::new();
    // Outcome buffers returned through `ShardPool::recycle`, refilled in
    // place for the next test instead of cloning fresh allocations.
    let mut free: Vec<TestOutcome> = Vec::new();
    while let Ok(batch) = jobs.recv() {
        for index in (shard..batch.len()).step_by(shards) {
            while let Ok(returned) = recycle.try_recv() {
                free.push(returned);
            }
            let recycled = free.pop();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let view = harness.run_program_into(&batch[index], &mut scratch);
                match recycled {
                    Some(mut outcome) => {
                        view.clone_into_outcome(&mut outcome);
                        outcome
                    }
                    None => view.to_outcome(),
                }
            }));
            match outcome {
                Ok(outcome) => {
                    if results.send((index, Some(outcome))).is_err() {
                        return; // the campaign is gone; stop quietly
                    }
                }
                Err(panic) => {
                    let _ = results.send((index, None));
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// Folds the coverage maps of a batch of outcomes into one union via
/// [`CoverageMap::merge_counting`].
///
/// A convenience for tests and tooling that want the round's merged
/// coverage view without replaying the campaign's per-test reduction (the
/// campaign itself folds per test, in order, to recover novelty deltas).
pub fn merged_coverage(outcomes: &[TestOutcome], space_len: usize) -> CoverageMap {
    let mut union = CoverageMap::with_len(space_len);
    for outcome in outcomes {
        union.merge_counting(&outcome.coverage);
    }
    union
}

#[cfg(test)]
mod tests {
    use super::*;
    use proc_sim::{cores::RocketCore, BugSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use riscv::gen::{GeneratorConfig, ProgramGenerator};

    fn harness() -> FuzzHarness {
        FuzzHarness::new(Arc::new(RocketCore::new(BugSet::none())), 300)
    }

    fn programs(count: usize) -> Vec<Program> {
        let generator = ProgramGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(42);
        (0..count).map(|_| generator.generate_seed(&mut rng)).collect()
    }

    #[test]
    fn plan_builders_clamp_and_report() {
        let plan = ShardPlan::serial();
        assert!(plan.is_serial());
        assert_eq!(plan, ShardPlan::default());
        let sharded = ShardPlan::sharded(0);
        assert_eq!(sharded.shards(), 1);
        assert_eq!(sharded.batch_size(), ShardPlan::DEFAULT_BATCH);
        assert!(!sharded.is_serial(), "batched single-shard mode is not the legacy plan");
        let tuned = ShardPlan::sharded(4).with_batch_size(0).with_shards(6);
        assert_eq!(tuned.shards(), 6);
        assert_eq!(tuned.batch_size(), 1);
        assert!(ShardPlan::sharded(3).to_string().contains("3 shard"));
    }

    #[test]
    fn sharded_plans_share_one_batch_size_across_shard_counts() {
        // The cross-shard-count equivalence guarantee only holds at a fixed
        // batch size, so `sharded(n)` must not derive the batch from `n`.
        for shards in [1usize, 2, 7, 64] {
            assert_eq!(ShardPlan::sharded(shards).batch_size(), ShardPlan::DEFAULT_BATCH);
        }
    }

    #[test]
    fn derived_streams_depend_on_every_input() {
        let base = derive_stream_seed(1, 2, 3);
        assert_eq!(base, derive_stream_seed(1, 2, 3), "derivation is a pure function");
        assert_ne!(base, derive_stream_seed(2, 2, 3));
        assert_ne!(base, derive_stream_seed(1, 3, 3));
        assert_ne!(base, derive_stream_seed(1, 2, 4));
        // Neighbouring rounds/indices must not collide the way raw XOR
        // chains do (seed ^ round ^ index is symmetric in round and index).
        assert_ne!(derive_stream_seed(1, 2, 3), derive_stream_seed(1, 3, 2));
    }

    #[test]
    fn pool_matches_serial_simulation_for_every_shard_count() {
        let harness = harness();
        let batch = programs(11);
        let mut scratch = ExecScratch::new();
        let reference = simulate_serial(&harness, &batch, &mut scratch);
        assert_eq!(reference.len(), 11);
        let arc = Arc::new(batch);
        for shards in [1usize, 2, 3, 7] {
            let pool = ShardPool::new(&harness, shards);
            assert_eq!(pool.shards(), shards);
            let outcomes = pool.simulate(&arc);
            assert_eq!(outcomes.len(), reference.len(), "{shards} shards");
            for (index, (sharded, serial)) in outcomes.iter().zip(&reference).enumerate() {
                assert_eq!(sharded.coverage, serial.coverage, "{shards} shards, test {index}");
                assert_eq!(sharded.diff, serial.diff, "{shards} shards, test {index}");
                assert_eq!(sharded.dut_commits, serial.dut_commits);
                assert_eq!(sharded.golden_commits, serial.golden_commits);
            }
        }
    }

    #[test]
    fn recycled_buffers_produce_identical_outcomes() {
        // Same batch simulated three times through one pool, recycling the
        // outcome buffers in between: every run must equal the serial
        // reference byte for byte (recycling is purely an allocation
        // optimisation).
        let harness = harness();
        let batch = programs(9);
        let mut scratch = ExecScratch::new();
        let reference = simulate_serial(&harness, &batch, &mut scratch);
        let arc = Arc::new(batch);
        let pool = ShardPool::new(&harness, 3);
        for round in 0..3 {
            let outcomes = pool.simulate(&arc);
            for (index, (pooled, serial)) in outcomes.iter().zip(&reference).enumerate() {
                assert_eq!(pooled.coverage, serial.coverage, "round {round}, test {index}");
                assert_eq!(pooled.diff, serial.diff, "round {round}, test {index}");
                assert_eq!(pooled.dut_commits, serial.dut_commits);
                assert_eq!(pooled.golden_commits, serial.golden_commits);
            }
            pool.recycle(outcomes);
        }
    }

    #[test]
    fn recycling_tolerates_partial_and_foreign_batches() {
        let harness = harness();
        let pool = ShardPool::new(&harness, 2);
        let first = Arc::new(programs(6));
        let mut outcomes = pool.simulate(&first);
        // Drop a few outcomes before recycling (detection-mode campaigns
        // stop folding mid-batch and may consume buffers).
        outcomes.truncate(3);
        pool.recycle(outcomes);
        pool.recycle(Vec::new());
        let second = Arc::new(programs(4));
        let mut scratch = ExecScratch::new();
        let reference = simulate_serial(&harness, second.iter(), &mut scratch);
        let pooled = pool.simulate(&second);
        for (index, (pooled, serial)) in pooled.iter().zip(&reference).enumerate() {
            assert_eq!(pooled.coverage, serial.coverage, "test {index}");
            assert_eq!(pooled.diff, serial.diff, "test {index}");
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let harness = harness();
        let pool = ShardPool::new(&harness, 2);
        let first = Arc::new(programs(5));
        let second = Arc::new(programs(3));
        assert_eq!(pool.simulate(&first).len(), 5);
        assert_eq!(pool.simulate(&second).len(), 3);
        assert_eq!(pool.simulate(&Arc::new(Vec::new())).len(), 0, "empty batches are fine");
    }

    #[test]
    fn merged_coverage_equals_per_test_union() {
        let harness = harness();
        let batch = programs(6);
        let mut scratch = ExecScratch::new();
        let outcomes = simulate_serial(&harness, &batch, &mut scratch);
        let merged = merged_coverage(&outcomes, harness.coverage_space_len());
        let mut reference = CoverageMap::with_len(harness.coverage_space_len());
        for outcome in &outcomes {
            reference.union_with(&outcome.coverage);
        }
        assert_eq!(merged, reference);
        assert!(merged.count() > 0);
    }

    #[test]
    fn per_worker_decode_caches_never_perturb_sharded_results() {
        // Shard workers default to cached scratches (`ExecScratch::new`);
        // every shard count must still reproduce the *interpreted* serial
        // reference byte for byte, even when the batch repeats programs so
        // a worker's private cache genuinely hits (at 7 shards each worker
        // sees its program twice back to back). Together with the
        // harness tests (hit stats are a pure function of the per-worker
        // program subsequence, which rule (2) of the determinism contract
        // fixes for every shard count), this pins that shard count never
        // changes cache behaviour and the cache never changes results.
        let harness = harness();
        let mut batch = programs(7);
        let repeats = batch.clone();
        batch.extend(repeats); // 14 tests, each program seen twice
        let mut oracle = ExecScratch::with_decode_cache(false);
        let reference = simulate_serial(&harness, &batch, &mut oracle);
        let arc = Arc::new(batch);
        for shards in [1usize, 2, 3, 7] {
            let pool = ShardPool::new(&harness, shards);
            let outcomes = pool.simulate(&arc);
            assert_eq!(outcomes.len(), reference.len());
            for (index, (pooled, serial)) in outcomes.iter().zip(&reference).enumerate() {
                assert_eq!(pooled.coverage, serial.coverage, "{shards} shards, test {index}");
                assert_eq!(pooled.diff, serial.diff, "{shards} shards, test {index}");
                assert_eq!(pooled.dut_commits, serial.dut_commits);
                assert_eq!(pooled.golden_commits, serial.golden_commits);
            }
        }
    }

    #[test]
    fn campaign_state_is_send() {
        // Compile-time Send checks for everything a shard worker or a
        // pooled campaign moves across threads.
        fn assert_send<T: Send>() {}
        assert_send::<FuzzHarness>();
        assert_send::<ExecScratch>();
        assert_send::<TestOutcome>();
        assert_send::<ShardPool>();
        assert_send::<ShardPlan>();
    }
}

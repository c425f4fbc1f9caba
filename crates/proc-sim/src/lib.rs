//! Simulated RISC-V processor DUTs (designs under test).
//!
//! The MABFuzz paper fuzzes RTL simulations of three real cores — CVA6,
//! Rocket and BOOM — through Synopsys VCS. That substrate is not available
//! here, so this crate provides the closest synthetic equivalent that
//! exercises the same fuzzing interfaces:
//!
//! * an **architectural trace** per test (the same [`ExecTrace`]
//!   the golden model produces), consumed by the differential-testing engine;
//! * a **branch-coverage bitmap** per test over a per-design
//!   [`CoverageSpace`], consumed by the fuzzers'
//!   feedback loops.
//!
//! Each core is an instruction-level micro-architectural simulator: for every
//! committed instruction it updates models of the frontend (branch predictor,
//! instruction cache), decoder, execute units, load/store unit (data cache +
//! store buffer), CSR file and the core-specific back-end (scoreboard or
//! re-order buffer), and records which direction every modelled decision took.
//! The three cores instantiate the components with different parameters and
//! different extra cross-product coverage sites, giving them coverage spaces
//! of different sizes and reachability profiles:
//!
//! * [`cores::Cva6Core`] — application-class in-order issue / out-of-order
//!   writeback core with a scoreboard and an FPU-stub; the smallest space but
//!   with the largest share of deep, hard-to-reach points.
//! * [`cores::RocketCore`] — classic in-order five-stage pipeline.
//! * [`cores::BoomCore`] — superscalar out-of-order core with a re-order
//!   buffer; the largest space, most of it easy to reach.
//!
//! Seven vulnerabilities mirroring Table I of the paper are injected behind
//! [`Vulnerability`] flags; see [`bugs`] for the exact trigger and effect of
//! each.
//!
//! # Example
//!
//! ```
//! use proc_sim::{Processor, cores::RocketCore, bugs::BugSet};
//! use riscv::{Program, Instr, Gpr, Op};
//!
//! let core = RocketCore::new(BugSet::none());
//! let program = Program::from_instrs(vec![
//!     Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, 3),
//!     Instr::nullary(Op::Ecall),
//! ]);
//! let result = core.run(&program, 100);
//! assert_eq!(result.trace.final_state().reg(Gpr::A0), 3);
//! assert!(result.coverage.count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bugs;
pub mod cores;
pub mod pipeline;

use std::any::Any;

use coverage::{CoverageMap, CoverageSpace};
use isa_sim::{DecodedProgram, ExecTrace, Memory, ResetPolicy, Snapshot};
use riscv::Program;

pub use bugs::{BugSet, Vulnerability};
pub use cores::{BoomCore, Cva6Core, ProcessorKind, RocketCore};

/// The result of simulating one test program on a processor model.
///
/// A `DutResult` doubles as a reusable output buffer: the scratch-based
/// [`Processor::run_into`] clears and refills the trace and coverage bitmap
/// in place, so steady-state fuzzing performs no per-test allocation here.
#[derive(Debug, Clone, Default)]
pub struct DutResult {
    /// The architectural commit trace, directly comparable against the golden
    /// model's trace.
    pub trace: ExecTrace,
    /// The branch-coverage bitmap for this test.
    pub coverage: CoverageMap,
}

/// Reusable per-campaign simulation state for [`Processor::run_into`].
///
/// Holds the memory image, the encoded-text buffer, a type-erased slot for
/// model-specific microarchitectural component state, the pristine-state
/// [`Snapshot`] and the [`ResetPolicy`] governing how all of it is brought
/// back between tests (snapshot/dirty restore by default; full reinit as the
/// differential oracle — see `isa_sim::snapshot`). A scratch belongs to
/// one processor instance at a time (models validate and rebuild the
/// component slot if handed a foreign scratch), and one scratch per harness
/// is enough — campaigns are single-threaded internally; parallelism happens
/// at campaign granularity.
#[derive(Default)]
pub struct SimScratch {
    mem: Memory,
    text: Vec<u8>,
    model_state: Option<Box<dyn Any + Send>>,
    snapshot: Snapshot,
    policy: ResetPolicy,
}

impl std::fmt::Debug for SimScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimScratch")
            .field("text_len", &self.text.len())
            .field("has_model_state", &self.model_state.is_some())
            .field("policy", &self.policy)
            .finish()
    }
}

impl SimScratch {
    /// Creates an empty scratch with the default
    /// [`ResetPolicy::SnapshotReset`] (safe on a fresh scratch: nothing is
    /// dirty yet).
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// Creates an empty scratch with an explicit reset policy
    /// ([`ResetPolicy::FullReinit`] selects the differential-oracle path).
    pub fn with_policy(policy: ResetPolicy) -> SimScratch {
        SimScratch { policy, ..SimScratch::default() }
    }

    /// Returns the reset policy this scratch recycles its state with. Read
    /// this *before* [`parts`](SimScratch::parts) — the policy is `Copy`, the
    /// parts borrow lasts the whole simulation.
    pub fn reset_policy(&self) -> ResetPolicy {
        self.policy
    }

    /// Splits the scratch into its memory image, text buffer, model-state
    /// slot and pristine-state snapshot (for `Processor` implementations).
    pub fn parts(
        &mut self,
    ) -> (&mut Memory, &mut Vec<u8>, &mut Option<Box<dyn Any + Send>>, &Snapshot) {
        (&mut self.mem, &mut self.text, &mut self.model_state, &self.snapshot)
    }
}

/// A processor design under test.
///
/// Implementations are immutable descriptions of a design (configuration,
/// coverage space, enabled bugs); every [`run`](Processor::run) starts from
/// the reset state, so a `Processor` can be shared across tests and threads.
pub trait Processor: Send + Sync {
    /// Returns the design's name (e.g. `"cva6"`).
    fn name(&self) -> &str;

    /// Returns the design's coverage-point registry.
    fn coverage_space(&self) -> &CoverageSpace;

    /// Returns the set of vulnerabilities injected into this instance.
    fn bugs(&self) -> &BugSet;

    /// Simulates `program` for at most `max_steps` committed instructions.
    fn run(&self, program: &Program, max_steps: usize) -> DutResult {
        let mut scratch = SimScratch::new();
        let mut out = DutResult::default();
        self.run_into(program, max_steps, &mut scratch, &mut out);
        out
    }

    /// Simulates `program` like [`run`](Processor::run), reusing the caller's
    /// scratch state and writing the result into `out` in place.
    ///
    /// This is the allocation-free fuzzing hot path: a harness keeps one
    /// [`SimScratch`] and one [`DutResult`] for the whole campaign and the
    /// model clears and refills them per test. The output is bit-identical to
    /// [`run`](Processor::run).
    fn run_into(
        &self,
        program: &Program,
        max_steps: usize,
        scratch: &mut SimScratch,
        out: &mut DutResult,
    );

    /// Simulates `program` like [`run_into`](Processor::run_into), fetching
    /// from a pre-decoded text image instead of decoding each word per step.
    ///
    /// `decoded` must be the image of `program`'s current text (a
    /// `DecodeCache` lookup of `program` guarantees the pairing). Results are bit-identical to
    /// [`run_into`](Processor::run_into) — the built-in cores override this
    /// to skip per-step decoding, while the default implementation simply
    /// falls back to the interpreted path, so foreign `Processor`
    /// implementations stay correct without opting in.
    fn run_decoded_into(
        &self,
        program: &Program,
        decoded: &DecodedProgram,
        max_steps: usize,
        scratch: &mut SimScratch,
        out: &mut DutResult,
    ) {
        let _ = decoded;
        self.run_into(program, max_steps, scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_trait_is_object_safe() {
        fn takes_dyn(_p: &dyn Processor) {}
        let core = cores::RocketCore::new(BugSet::none());
        takes_dyn(&core);
    }
}

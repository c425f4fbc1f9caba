//! Architectural state: program counter, integer registers and CSRs.

use std::collections::BTreeMap;
use std::fmt;

use riscv::program::TEXT_BASE;
use riscv::{CsrAddr, Gpr};
use serde::{Deserialize, Serialize};

use crate::trap::Exception;

/// The number of CSRs held in [`ArchState`]'s dense table.
const SLOTS: usize = CsrAddr::IMPLEMENTED.len();
const _: () = assert!(SLOTS <= u32::BITS as usize, "one presence bit per slot");

/// The dense-table slot of an implemented CSR.
const fn slot(addr: CsrAddr) -> usize {
    match addr.slot() {
        Some(slot) => slot,
        None => panic!("not an implemented CSR"),
    }
}

const MINSTRET: usize = slot(CsrAddr::MINSTRET);
const INSTRET: usize = slot(CsrAddr::INSTRET);
const MCYCLE: usize = slot(CsrAddr::MCYCLE);
const CYCLE: usize = slot(CsrAddr::CYCLE);

/// The architectural state of a hart.
///
/// Only machine mode is modelled, which matches the bare-metal test programs
/// generated by the fuzzer. The state is plain data: it can be cloned,
/// compared and serialised, which is what the differential-testing engine
/// relies on.
///
/// # CSR storage
///
/// The CSRs of [`CsrAddr::IMPLEMENTED`] live in a fixed array indexed by
/// [`CsrAddr::slot`], with a presence bit per slot, so the per-commit
/// [`retire`](ArchState::retire) and every CSR instruction touch no map.
/// Other addresses, which only direct [`set_csr`](ArchState::set_csr) callers
/// write, go to a fallback map. The state behaves as one map from address to
/// value: a CSR that was never written reads zero, and equality compares which
/// CSRs are held and their values, so a CSR set to 0 differs from one never
/// set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    regs: [u64; 32],
    /// Implemented CSRs by slot. A slot whose `present` bit is clear holds 0,
    /// which keeps the derived equality exact.
    csrs: [u64; SLOTS],
    /// Bit `i` is set once slot `i` has been written.
    present: u32,
    /// CSRs outside [`CsrAddr::IMPLEMENTED`].
    other_csrs: BTreeMap<u16, u64>,
}

impl ArchState {
    /// Creates the reset state: `pc` at the text base, all registers and CSRs
    /// zero except `misa` (RV64IM) and `mhartid` (0).
    pub fn new() -> ArchState {
        let mut state = ArchState::hollow();
        state.pc = TEXT_BASE;
        // MXL=2 (RV64), extensions I and M.
        let misa = (2u64 << 62) | (1 << 8) | (1 << 12);
        state.set_csr(CsrAddr::MISA, misa);
        state
    }

    /// Reads an integer register; `x0` always reads zero.
    #[inline]
    pub fn reg(&self, gpr: Gpr) -> u64 {
        self.regs[gpr.index() as usize]
    }

    /// Writes an integer register; writes to `x0` are discarded.
    #[inline]
    pub fn set_reg(&mut self, gpr: Gpr, value: u64) {
        if !gpr.is_zero() {
            self.regs[gpr.index() as usize] = value;
        }
    }

    /// Returns all 32 register values in architectural order.
    pub fn regs(&self) -> [u64; 32] {
        self.regs
    }

    /// Reads a CSR without checking whether it is implemented; unknown CSRs
    /// read zero.
    #[inline]
    pub fn csr(&self, addr: CsrAddr) -> u64 {
        match addr.slot() {
            Some(slot) => self.csrs[slot],
            None => self.other_csrs.get(&addr.value()).copied().unwrap_or(0),
        }
    }

    /// Writes a CSR without any permission checks.
    #[inline]
    pub fn set_csr(&mut self, addr: CsrAddr, value: u64) {
        match addr.slot() {
            Some(slot) => self.set_slot(slot, value),
            None => {
                self.other_csrs.insert(addr.value(), value);
            }
        }
    }

    #[inline]
    fn set_slot(&mut self, slot: usize, value: u64) {
        self.csrs[slot] = value;
        self.present |= 1 << slot;
    }

    /// Returns the retired-instruction counter (`minstret`).
    #[inline]
    pub fn instret(&self) -> u64 {
        self.csrs[MINSTRET]
    }

    /// Increments the retired-instruction counter and cycle counter.
    #[inline]
    pub fn retire(&mut self) {
        let instret = self.csrs[MINSTRET].wrapping_add(1);
        self.set_slot(MINSTRET, instret);
        self.set_slot(INSTRET, instret);
        let cycle = self.csrs[MCYCLE].wrapping_add(1);
        self.set_slot(MCYCLE, cycle);
        self.set_slot(CYCLE, cycle);
    }

    /// Records a taken exception: updates `mepc`, `mcause` and `mtval`, and
    /// returns the redirect target (`mtvec`) if one is configured inside the
    /// program text.
    pub fn take_exception(&mut self, exception: Exception, epc: u64, text_end: u64) -> Option<u64> {
        self.set_csr(CsrAddr::MEPC, epc);
        self.set_csr(CsrAddr::MCAUSE, exception.cause());
        self.set_csr(CsrAddr::MTVAL, exception.tval());
        let mtvec = self.csr(CsrAddr::MTVEC) & !0b11 & crate::PHYS_ADDR_MASK;
        (mtvec >= TEXT_BASE && mtvec < text_end).then_some(mtvec)
    }

    /// Restores this state to `baseline` in place, reusing the fallback CSR
    /// map's allocated nodes instead of building a fresh map.
    ///
    /// After the call `self == baseline` exactly as if it had been cloned:
    /// CSRs the baseline does not hold are removed (so a CSR the previous
    /// test wrote does not linger at a stale value, which would also break
    /// the unknown-CSRs-read-zero contract), and every baseline CSR is
    /// written back. This is the
    /// [`Snapshot::restore`](crate::snapshot::Snapshot) workhorse.
    pub fn restore_from(&mut self, baseline: &ArchState) {
        self.pc = baseline.pc;
        self.regs = baseline.regs;
        self.csrs = baseline.csrs;
        self.present = baseline.present;
        self.other_csrs.retain(|addr, _| baseline.other_csrs.contains_key(addr));
        for (addr, value) in &baseline.other_csrs {
            self.other_csrs.insert(*addr, *value);
        }
    }

    /// An empty placeholder state with no allocations and no CSRs, used when
    /// moving a real state out of a buffer that will be overwritten before
    /// reuse.
    pub(crate) fn hollow() -> ArchState {
        ArchState { pc: 0, regs: [0; 32], csrs: [0; SLOTS], present: 0, other_csrs: BTreeMap::new() }
    }

    /// Returns a compact digest of the register file, used by coverage-style
    /// sanity checks in tests.
    pub fn reg_digest(&self) -> u64 {
        self.regs
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, v)| acc ^ v.rotate_left((i as u32 * 7) % 64))
    }
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState::new()
    }
}

impl fmt::Display for ArchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pc = {:#018x}", self.pc)?;
        for (i, chunk) in self.regs.chunks(4).enumerate() {
            for (j, value) in chunk.iter().enumerate() {
                let gpr = Gpr::from_index((i * 4 + j) as u8);
                write!(f, "{:>4} = {:#018x}  ", gpr.abi_name(), value)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "minstret = {}", self.instret())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reset_state_matches_conventions() {
        let state = ArchState::new();
        assert_eq!(state.pc, TEXT_BASE);
        for gpr in riscv::gpr::ALL_GPRS {
            assert_eq!(state.reg(gpr), 0);
        }
        assert_eq!(state.instret(), 0);
        assert_ne!(state.csr(CsrAddr::MISA), 0);
    }

    #[test]
    fn x0_is_hardwired_to_zero() {
        let mut state = ArchState::new();
        state.set_reg(Gpr::Zero, 0xdead_beef);
        assert_eq!(state.reg(Gpr::Zero), 0);
        state.set_reg(Gpr::A0, 0xdead_beef);
        assert_eq!(state.reg(Gpr::A0), 0xdead_beef);
    }

    #[test]
    fn retire_increments_both_counter_views() {
        let mut state = ArchState::new();
        state.retire();
        state.retire();
        assert_eq!(state.csr(CsrAddr::MINSTRET), 2);
        assert_eq!(state.csr(CsrAddr::INSTRET), 2);
        assert_eq!(state.csr(CsrAddr::MCYCLE), 2);
    }

    #[test]
    fn take_exception_updates_trap_csrs() {
        let mut state = ArchState::new();
        let redirect =
            state.take_exception(Exception::IllegalInstruction { word: 0xffff_ffff }, 0x8000_0010, TEXT_BASE + 0x100);
        assert_eq!(redirect, None, "mtvec unset: no redirect");
        assert_eq!(state.csr(CsrAddr::MEPC), 0x8000_0010);
        assert_eq!(state.csr(CsrAddr::MCAUSE), 2);
        assert_eq!(state.csr(CsrAddr::MTVAL), 0xffff_ffff);

        state.set_csr(CsrAddr::MTVEC, TEXT_BASE + 0x40);
        let redirect =
            state.take_exception(Exception::Breakpoint, 0x8000_0020, TEXT_BASE + 0x100);
        assert_eq!(redirect, Some(TEXT_BASE + 0x40));
    }

    #[test]
    fn mtvec_outside_text_does_not_redirect() {
        let mut state = ArchState::new();
        state.set_csr(CsrAddr::MTVEC, 0x1000);
        let redirect = state.take_exception(Exception::Breakpoint, TEXT_BASE, TEXT_BASE + 0x100);
        assert_eq!(redirect, None);
    }

    #[test]
    fn restore_from_matches_a_clone_of_the_baseline() {
        let mut baseline = ArchState::new();
        baseline.set_reg(Gpr::S0, 11);
        baseline.set_csr(CsrAddr::MSCRATCH, 0x55);

        let mut state = ArchState::new();
        state.pc = 0x8000_0100;
        state.set_reg(Gpr::A0, 99);
        // A CSR the baseline does not hold must disappear, or it would read
        // back nonzero where the baseline reads zero.
        state.set_csr(CsrAddr::MTVEC, 0x8000_0040);
        state.retire();

        state.restore_from(&baseline);
        assert_eq!(state, baseline);
        assert_eq!(state.csr(CsrAddr::MTVEC), 0);

        // Restoring to the reset baseline reproduces `ArchState::new()`.
        state.set_csr(CsrAddr::MEPC, 4);
        state.restore_from(&ArchState::new());
        assert_eq!(state, ArchState::new());
    }

    #[test]
    fn display_lists_registers() {
        let mut state = ArchState::new();
        state.set_reg(Gpr::A0, 42);
        let text = state.to_string();
        assert!(text.contains("a0"));
        assert!(text.contains("minstret"));
    }

    /// Addresses the CSR property draws from: every implemented CSR plus
    /// unimplemented ones across the address space.
    fn csr_pool() -> Vec<CsrAddr> {
        let mut pool = CsrAddr::IMPLEMENTED.to_vec();
        pool.extend([0x000, 0x306, 0x5c0, 0x7a0, 0xb03, 0xc01, 0xfff].map(CsrAddr::new));
        pool
    }

    /// The reference model: the CSRs as one ordered map, which is what
    /// `ArchState` stored before its dense table.
    #[derive(Clone, PartialEq)]
    struct Model(BTreeMap<u16, u64>);

    impl Model {
        fn new() -> Model {
            Model(BTreeMap::from([(CsrAddr::MISA.value(), ArchState::new().csr(CsrAddr::MISA))]))
        }

        fn get(&self, addr: CsrAddr) -> u64 {
            self.0.get(&addr.value()).copied().unwrap_or(0)
        }

        fn set(&mut self, addr: CsrAddr, value: u64) {
            self.0.insert(addr.value(), value);
        }
    }

    /// Runs one random operation sequence on a state and on the model, with
    /// a checkpoint for `restore_from`, checking every operation's result.
    fn run_sequence(ops: &[(u8, usize, u64)]) -> (ArchState, Model) {
        let pool = csr_pool();
        let text_end = TEXT_BASE + 0x100;
        let (mut state, mut model) = (ArchState::new(), Model::new());
        let (mut checkpoint, mut checkpoint_model) = (state.clone(), model.clone());
        for &(kind, pick, raw) in ops {
            let addr = pool[pick % pool.len()];
            // One value in four is zero: a CSR written with 0 must still be
            // told apart from one never written.
            let value = if raw % 4 == 0 { 0 } else { raw };
            match kind {
                0..=4 => {
                    state.set_csr(addr, value);
                    model.set(addr, value);
                }
                5 => {
                    state.retire();
                    let instret = model.get(CsrAddr::MINSTRET).wrapping_add(1);
                    model.set(CsrAddr::MINSTRET, instret);
                    model.set(CsrAddr::INSTRET, instret);
                    let cycle = model.get(CsrAddr::MCYCLE).wrapping_add(1);
                    model.set(CsrAddr::MCYCLE, cycle);
                    model.set(CsrAddr::CYCLE, cycle);
                }
                6 => {
                    let exception = Exception::IllegalInstruction { word: raw as u32 };
                    let redirect = state.take_exception(exception, value, text_end);
                    model.set(CsrAddr::MEPC, value);
                    model.set(CsrAddr::MCAUSE, exception.cause());
                    model.set(CsrAddr::MTVAL, exception.tval());
                    let mtvec = model.get(CsrAddr::MTVEC) & !0b11 & crate::PHYS_ADDR_MASK;
                    assert_eq!(redirect, (TEXT_BASE..text_end).contains(&mtvec).then_some(mtvec));
                }
                7 => {
                    state.restore_from(&checkpoint);
                    model = checkpoint_model.clone();
                }
                _ => {
                    checkpoint = state.clone();
                    checkpoint_model = model.clone();
                }
            }
            for addr in &pool {
                assert_eq!(state.csr(*addr), model.get(*addr), "{addr} after op {kind}");
            }
        }
        (state, model)
    }

    proptest! {
        #[test]
        fn csrs_behave_like_an_ordered_map(
            first in proptest::collection::vec((0u8..9, 0usize..64, any::<u64>()), 0..24),
            second in proptest::collection::vec((0u8..9, 0usize..64, any::<u64>()), 0..6),
        ) {
            let (state, model) = run_sequence(&first);
            for addr in (0u16..0x1000).map(CsrAddr::new) {
                prop_assert_eq!(state.csr(addr), model.get(addr), "{}", addr);
            }
            // Equality agrees with the model's for an independent sequence...
            let (other, other_model) = run_sequence(&second);
            prop_assert_eq!(state == other, model == other_model);
            // ...for the same contents written in another order...
            let mut rebuilt = ArchState::new();
            for (addr, value) in model.0.iter().rev() {
                rebuilt.set_csr(CsrAddr::new(*addr), *value);
            }
            prop_assert_eq!(&rebuilt, &state);
            // ...and a CSR written with 0 is not one never written.
            if let Some(absent) = csr_pool().into_iter().find(|addr| !model.0.contains_key(&addr.value())) {
                rebuilt.set_csr(absent, 0);
                prop_assert_ne!(&rebuilt, &state);
                prop_assert_eq!(rebuilt.csr(absent), 0);
            }
        }
    }
}

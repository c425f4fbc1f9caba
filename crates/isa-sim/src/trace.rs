//! Commit traces: the per-instruction record stream compared by the
//! differential-testing engine.

use std::fmt;

use riscv::{Gpr, Instr};
use serde::{Deserialize, Serialize};

use crate::state::ArchState;
use crate::trap::Exception;

/// A data-memory access performed by a committed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Effective (physical) address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u8,
    /// Value loaded or stored (zero-extended).
    pub value: u64,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

/// One committed instruction, as observed at the architectural interface.
///
/// This mirrors the per-instruction comparison performed by TheHuzz between
/// the DUT trace log and the SPIKE trace: program counter, instruction,
/// destination-register writeback, memory access and exception information.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitRecord {
    /// Index of the committed instruction in commit order (0-based).
    pub seq: u64,
    /// Address of the instruction.
    pub pc: u64,
    /// The decoded instruction, if the word was decodable.
    pub instr: Option<Instr>,
    /// The raw instruction word.
    pub word: u32,
    /// Destination register and the value written, when the instruction wrote one.
    pub writeback: Option<(Gpr, u64)>,
    /// Data-memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// Exception raised by this instruction, if any.
    pub exception: Option<Exception>,
    /// The program counter of the next instruction in program order.
    pub next_pc: u64,
    /// Value of `minstret` *after* this instruction.
    pub instret: u64,
}

impl fmt::Display for CommitRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>5}] {:#010x}: ", self.seq, self.pc)?;
        match &self.instr {
            Some(instr) => write!(f, "{instr:<30}")?,
            None => write!(f, "<illegal {:#010x}>          ", self.word)?,
        }
        if let Some((rd, value)) = self.writeback {
            write!(f, " {rd} <- {value:#x}")?;
        }
        if let Some(mem) = &self.mem {
            let dir = if mem.is_store { "store" } else { "load" };
            write!(f, " [{dir} {:#x} w{}]", mem.addr, mem.width)?;
        }
        if let Some(e) = &self.exception {
            write!(f, " !{e}")?;
        }
        Ok(())
    }
}

/// Why a simulation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HaltReason {
    /// The program executed its terminating `ecall`.
    Ecall,
    /// The program counter left the text region (ran off the end or jumped
    /// out) and no trap vector was configured.
    PcOutOfText,
    /// The step budget was exhausted before the program terminated.
    StepLimit,
}

impl fmt::Display for HaltReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            HaltReason::Ecall => "ecall",
            HaltReason::PcOutOfText => "pc left text region",
            HaltReason::StepLimit => "step limit reached",
        };
        f.write_str(text)
    }
}

/// The result of simulating one test program: the commit records plus the
/// final architectural state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecTrace {
    commits: Vec<CommitRecord>,
    final_state: ArchState,
    halt: HaltReason,
}

impl Default for ExecTrace {
    /// An empty trace in the reset state — the starting point for
    /// [`clear`](ExecTrace::clear)-based buffer reuse.
    fn default() -> ExecTrace {
        ExecTrace { commits: Vec::new(), final_state: ArchState::new(), halt: HaltReason::StepLimit }
    }
}

impl ExecTrace {
    /// Creates a trace from its parts (used by the simulators).
    pub fn new(commits: Vec<CommitRecord>, final_state: ArchState, halt: HaltReason) -> ExecTrace {
        ExecTrace { commits, final_state, halt }
    }

    /// Resets the trace for reuse, keeping the commit buffer's allocation.
    ///
    /// The simulators call this at the start of every `run_into`-style
    /// simulation so that steady-state fuzzing performs no per-test trace
    /// allocation. The final state is deliberately left untouched (stale
    /// from the previous run): every simulator ends its run with
    /// [`finish`](ExecTrace::finish), which overwrites it, and resetting it
    /// here would be work thrown away.
    pub fn clear(&mut self) {
        self.commits.clear();
        self.halt = HaltReason::StepLimit;
    }

    /// Appends one commit record (used by the simulators while running).
    pub fn push_commit(&mut self, commit: CommitRecord) {
        self.commits.push(commit);
    }

    /// Records the final architectural state and halt reason (used by the
    /// simulators when a run finishes).
    pub fn finish(&mut self, final_state: ArchState, halt: HaltReason) {
        self.final_state = final_state;
        self.halt = halt;
    }

    /// Moves the final state out of the trace, leaving an allocation-free
    /// placeholder behind.
    ///
    /// This is the snapshot-reset recycling step: a simulator takes the
    /// previous run's state, restores it to the baseline in place, and hands
    /// it back via [`finish`](ExecTrace::finish) at the end of the run — so the
    /// placeholder is never observed. Calling
    /// [`final_state`](ExecTrace::final_state) between a take and the next
    /// `finish` would see the hollow state; the simulators never do.
    pub fn take_final_state(&mut self) -> ArchState {
        std::mem::replace(&mut self.final_state, ArchState::hollow())
    }

    /// Returns the commit records in commit order.
    pub fn commits(&self) -> &[CommitRecord] {
        &self.commits
    }

    /// Returns the architectural state after the last committed instruction.
    pub fn final_state(&self) -> &ArchState {
        &self.final_state
    }

    /// Returns why the simulation stopped.
    pub fn halt_reason(&self) -> HaltReason {
        self.halt
    }

    /// Returns the number of committed instructions.
    pub fn len(&self) -> usize {
        self.commits.len()
    }

    /// Returns `true` when nothing committed.
    pub fn is_empty(&self) -> bool {
        self.commits.is_empty()
    }

    /// Returns an iterator over the commit records.
    pub fn iter(&self) -> std::slice::Iter<'_, CommitRecord> {
        self.commits.iter()
    }

    /// Returns the exceptions raised during the run, with their commit index.
    pub fn exceptions(&self) -> impl Iterator<Item = (usize, Exception)> + '_ {
        self.commits
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.exception.map(|e| (i, e)))
    }

    /// Returns the *faults* raised during the run: every exception except the
    /// terminating `ecall`, which is part of the test calling convention
    /// rather than an error.
    pub fn faults(&self) -> impl Iterator<Item = (usize, Exception)> + '_ {
        self.exceptions().filter(|(_, e)| *e != Exception::EcallM)
    }

    /// Formats the full trace as a multi-line log (one commit per line).
    pub fn to_log(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for commit in &self.commits {
            let _ = writeln!(out, "{commit}");
        }
        let _ = writeln!(out, "halt: {}", self.halt);
        out
    }
}

impl<'a> IntoIterator for &'a ExecTrace {
    type Item = &'a CommitRecord;
    type IntoIter = std::slice::Iter<'a, CommitRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.commits.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv::Op;

    fn record(seq: u64, exception: Option<Exception>) -> CommitRecord {
        CommitRecord {
            seq,
            pc: 0x8000_0000 + seq * 4,
            instr: Some(Instr::nop()),
            word: Instr::nop().encode(),
            writeback: Some((Gpr::A0, seq)),
            mem: None,
            exception,
            next_pc: 0x8000_0000 + (seq + 1) * 4,
            instret: seq + 1,
        }
    }

    #[test]
    fn trace_accessors() {
        let commits = vec![record(0, None), record(1, Some(Exception::Breakpoint))];
        let trace = ExecTrace::new(commits, ArchState::new(), HaltReason::Ecall);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.halt_reason(), HaltReason::Ecall);
        let exceptions: Vec<_> = trace.exceptions().collect();
        assert_eq!(exceptions, vec![(1, Exception::Breakpoint)]);
        assert_eq!(trace.iter().count(), 2);
        assert_eq!((&trace).into_iter().count(), 2);
    }

    #[test]
    fn commit_display_contains_key_fields() {
        let mut commit = record(3, Some(Exception::Breakpoint));
        commit.instr = Some(Instr::nullary(Op::Ebreak));
        commit.mem = Some(MemAccess { addr: 0x8001_0000, width: 8, value: 7, is_store: true });
        let text = commit.to_string();
        assert!(text.contains("ebreak"));
        assert!(text.contains("breakpoint"));
        assert!(text.contains("store"));
    }

    #[test]
    fn log_lists_every_commit_and_the_halt_reason() {
        let trace = ExecTrace::new(vec![record(0, None)], ArchState::new(), HaltReason::StepLimit);
        let log = trace.to_log();
        assert_eq!(log.lines().count(), 2);
        assert!(log.contains("step limit"));
    }

    #[test]
    fn take_final_state_moves_the_state_out_until_the_next_finish() {
        let mut state = ArchState::new();
        state.set_reg(Gpr::A0, 7);
        let mut trace = ExecTrace::new(Vec::new(), state.clone(), HaltReason::Ecall);
        let taken = trace.take_final_state();
        assert_eq!(taken, state);
        trace.finish(taken, HaltReason::Ecall);
        assert_eq!(trace.final_state(), &state);
    }

    #[test]
    fn halt_reason_display() {
        assert_eq!(HaltReason::Ecall.to_string(), "ecall");
        assert_eq!(HaltReason::PcOutOfText.to_string(), "pc left text region");
    }
}

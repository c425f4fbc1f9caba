//! The architectural executor: instruction semantics and the golden simulator
//! driver built on top of them.
//!
//! The per-instruction semantics live in [`execute_instr`], which is shared
//! with the processor models in `proc-sim`: a bug-free processor applies
//! exactly these semantics, and each injected vulnerability is a small,
//! controlled deviation layered on top.

use riscv::op::Format;
use riscv::program::TEXT_BASE;
use riscv::{decode, CsrAddr, Gpr, Instr, Op, Program};
use serde::{Deserialize, Serialize};

use crate::decoded::DecodedProgram;
use crate::mem::Memory;
use crate::snapshot::{ResetPolicy, ResetStats, Snapshot};
use crate::state::ArchState;
use crate::trace::{CommitRecord, ExecTrace, HaltReason, MemAccess};
use crate::trap::Exception;
use crate::PHYS_ADDR_MASK;

/// The architectural outcome of executing a single instruction.
///
/// Produced by [`execute_instr`]. When `exception` is `Some`, no architectural
/// side effects were applied (registers, CSRs and memory are untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrOutcome {
    /// Destination register and value written, if the instruction wrote one.
    pub writeback: Option<(Gpr, u64)>,
    /// Data-memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// Exception raised, if any.
    pub exception: Option<Exception>,
    /// Address of the next instruction in program order.
    pub next_pc: u64,
}

impl InstrOutcome {
    fn fall_through(pc: u64) -> InstrOutcome {
        InstrOutcome { writeback: None, mem: None, exception: None, next_pc: pc.wrapping_add(4) }
    }

    fn except(pc: u64, exception: Exception) -> InstrOutcome {
        InstrOutcome {
            writeback: None,
            mem: None,
            exception: Some(exception),
            next_pc: pc.wrapping_add(4),
        }
    }
}

/// Executes one instruction against the architectural state and memory,
/// returning the outcome.
///
/// This function applies the side effects (register writeback, CSR update,
/// memory store) of a *successful* execution. When an exception is returned,
/// the state has not been modified; it is the caller's responsibility to
/// update the trap CSRs (see [`ArchState::take_exception`]) and decide where
/// execution resumes.
pub fn execute_instr(
    state: &mut ArchState,
    mem: &mut Memory,
    instr: Instr,
    pc: u64,
) -> InstrOutcome {
    let rs1 = state.reg(instr.rs1);
    let rs2 = state.reg(instr.rs2);
    let mut out = InstrOutcome::fall_through(pc);

    let write_rd = |state: &mut ArchState, out: &mut InstrOutcome, value: u64| {
        state.set_reg(instr.rd, value);
        // x0 writes are architecturally invisible; report the stored value so
        // DUT/golden comparison sees the same thing (always 0 for x0).
        out.writeback = Some((instr.rd, state.reg(instr.rd)));
    };

    match instr.op {
        // ---- upper immediates and jumps -------------------------------------------------
        Op::Lui => write_rd(state, &mut out, instr.imm as u64),
        Op::Auipc => write_rd(state, &mut out, pc.wrapping_add(instr.imm as u64)),
        Op::Jal => {
            let target = pc.wrapping_add(instr.imm as u64);
            if !target.is_multiple_of(4) {
                return InstrOutcome::except(pc, Exception::InstrAddrMisaligned { target });
            }
            write_rd(state, &mut out, pc.wrapping_add(4));
            out.next_pc = target;
        }
        Op::Jalr => {
            let target = rs1.wrapping_add(instr.imm as u64) & !1;
            if !target.is_multiple_of(4) {
                return InstrOutcome::except(pc, Exception::InstrAddrMisaligned { target });
            }
            write_rd(state, &mut out, pc.wrapping_add(4));
            out.next_pc = target;
        }
        // ---- conditional branches --------------------------------------------------------
        Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
            let taken = match instr.op {
                Op::Beq => rs1 == rs2,
                Op::Bne => rs1 != rs2,
                Op::Blt => (rs1 as i64) < (rs2 as i64),
                Op::Bge => (rs1 as i64) >= (rs2 as i64),
                Op::Bltu => rs1 < rs2,
                Op::Bgeu => rs1 >= rs2,
                _ => unreachable!(),
            };
            if taken {
                let target = pc.wrapping_add(instr.imm as u64);
                if !target.is_multiple_of(4) {
                    return InstrOutcome::except(pc, Exception::InstrAddrMisaligned { target });
                }
                out.next_pc = target;
            }
        }
        // ---- loads and stores --------------------------------------------------------------
        Op::Lb | Op::Lh | Op::Lw | Op::Ld | Op::Lbu | Op::Lhu | Op::Lwu => {
            let width = u64::from(instr.op.memory_width().expect("load has a width"));
            let addr = rs1.wrapping_add(instr.imm as u64) & PHYS_ADDR_MASK;
            if !addr.is_multiple_of(width) {
                return InstrOutcome::except(pc, Exception::LoadAddrMisaligned { addr });
            }
            if !mem.can_load(addr, width) {
                return InstrOutcome::except(pc, Exception::LoadAccessFault { addr });
            }
            let raw = mem.read_uint(addr, width);
            let value = match instr.op {
                Op::Lb => raw as i8 as i64 as u64,
                Op::Lh => raw as i16 as i64 as u64,
                Op::Lw => raw as i32 as i64 as u64,
                Op::Ld | Op::Lbu | Op::Lhu | Op::Lwu => raw,
                _ => unreachable!(),
            };
            write_rd(state, &mut out, value);
            out.mem = Some(MemAccess { addr, width: width as u8, value: raw, is_store: false });
        }
        Op::Sb | Op::Sh | Op::Sw | Op::Sd => {
            let width = u64::from(instr.op.memory_width().expect("store has a width"));
            let addr = rs1.wrapping_add(instr.imm as u64) & PHYS_ADDR_MASK;
            if !addr.is_multiple_of(width) {
                return InstrOutcome::except(pc, Exception::StoreAddrMisaligned { addr });
            }
            if !mem.can_store(addr, width) {
                return InstrOutcome::except(pc, Exception::StoreAccessFault { addr });
            }
            let value = rs2 & width_mask(width);
            mem.write_uint(addr, value, width);
            out.mem = Some(MemAccess { addr, width: width as u8, value, is_store: true });
        }
        // ---- register-immediate integer ops --------------------------------------------------
        Op::Addi => write_rd(state, &mut out, rs1.wrapping_add(instr.imm as u64)),
        Op::Slti => write_rd(state, &mut out, u64::from((rs1 as i64) < instr.imm)),
        Op::Sltiu => write_rd(state, &mut out, u64::from(rs1 < instr.imm as u64)),
        Op::Xori => write_rd(state, &mut out, rs1 ^ instr.imm as u64),
        Op::Ori => write_rd(state, &mut out, rs1 | instr.imm as u64),
        Op::Andi => write_rd(state, &mut out, rs1 & instr.imm as u64),
        Op::Slli => write_rd(state, &mut out, rs1 << (instr.imm as u32 & 0x3f)),
        Op::Srli => write_rd(state, &mut out, rs1 >> (instr.imm as u32 & 0x3f)),
        Op::Srai => write_rd(state, &mut out, ((rs1 as i64) >> (instr.imm as u32 & 0x3f)) as u64),
        Op::Addiw => write_rd(state, &mut out, sext32(rs1.wrapping_add(instr.imm as u64))),
        Op::Slliw => write_rd(state, &mut out, sext32((rs1 as u32 as u64) << (instr.imm as u32 & 0x1f))),
        Op::Srliw => write_rd(state, &mut out, sext32(u64::from(rs1 as u32 >> (instr.imm as u32 & 0x1f)))),
        Op::Sraiw => {
            write_rd(state, &mut out, ((rs1 as i32) >> (instr.imm as u32 & 0x1f)) as i64 as u64)
        }
        // ---- register-register integer ops --------------------------------------------------
        Op::Add => write_rd(state, &mut out, rs1.wrapping_add(rs2)),
        Op::Sub => write_rd(state, &mut out, rs1.wrapping_sub(rs2)),
        Op::Sll => write_rd(state, &mut out, rs1 << (rs2 & 0x3f)),
        Op::Slt => write_rd(state, &mut out, u64::from((rs1 as i64) < (rs2 as i64))),
        Op::Sltu => write_rd(state, &mut out, u64::from(rs1 < rs2)),
        Op::Xor => write_rd(state, &mut out, rs1 ^ rs2),
        Op::Srl => write_rd(state, &mut out, rs1 >> (rs2 & 0x3f)),
        Op::Sra => write_rd(state, &mut out, ((rs1 as i64) >> (rs2 & 0x3f)) as u64),
        Op::Or => write_rd(state, &mut out, rs1 | rs2),
        Op::And => write_rd(state, &mut out, rs1 & rs2),
        Op::Addw => write_rd(state, &mut out, sext32(rs1.wrapping_add(rs2))),
        Op::Subw => write_rd(state, &mut out, sext32(rs1.wrapping_sub(rs2))),
        Op::Sllw => write_rd(state, &mut out, sext32(u64::from((rs1 as u32) << (rs2 & 0x1f)))),
        Op::Srlw => write_rd(state, &mut out, sext32(u64::from(rs1 as u32 >> (rs2 & 0x1f)))),
        Op::Sraw => write_rd(state, &mut out, ((rs1 as i32) >> (rs2 & 0x1f)) as i64 as u64),
        // ---- M extension ----------------------------------------------------------------------
        Op::Mul => write_rd(state, &mut out, rs1.wrapping_mul(rs2)),
        Op::Mulh => {
            let product = (rs1 as i64 as i128) * (rs2 as i64 as i128);
            write_rd(state, &mut out, (product >> 64) as u64)
        }
        Op::Mulhsu => {
            let product = (rs1 as i64 as i128) * (rs2 as u128 as i128);
            write_rd(state, &mut out, (product >> 64) as u64)
        }
        Op::Mulhu => {
            let product = (rs1 as u128) * (rs2 as u128);
            write_rd(state, &mut out, (product >> 64) as u64)
        }
        Op::Div => write_rd(state, &mut out, div_signed(rs1 as i64, rs2 as i64) as u64),
        Op::Divu => write_rd(state, &mut out, rs1.checked_div(rs2).unwrap_or(u64::MAX)),
        Op::Rem => write_rd(state, &mut out, rem_signed(rs1 as i64, rs2 as i64) as u64),
        Op::Remu => write_rd(state, &mut out, if rs2 == 0 { rs1 } else { rs1 % rs2 }),
        Op::Mulw => write_rd(state, &mut out, sext32(rs1.wrapping_mul(rs2))),
        Op::Divw => {
            write_rd(state, &mut out, div_signed(rs1 as i32 as i64, rs2 as i32 as i64) as i32 as i64 as u64)
        }
        Op::Divuw => {
            let (a, b) = (rs1 as u32, rs2 as u32);
            let q = a.checked_div(b).unwrap_or(u32::MAX);
            write_rd(state, &mut out, q as i32 as i64 as u64)
        }
        Op::Remw => {
            write_rd(state, &mut out, rem_signed(rs1 as i32 as i64, rs2 as i32 as i64) as i32 as i64 as u64)
        }
        Op::Remuw => {
            let (a, b) = (rs1 as u32, rs2 as u32);
            let r = if b == 0 { a } else { a % b };
            write_rd(state, &mut out, r as i32 as i64 as u64)
        }
        // ---- Zicsr ----------------------------------------------------------------------------
        Op::Csrrw | Op::Csrrs | Op::Csrrc | Op::Csrrwi | Op::Csrrsi | Op::Csrrci => {
            let csr = instr.csr_addr().expect("csr instruction has an address");
            if !csr.is_implemented() {
                return InstrOutcome::except(pc, Exception::IllegalInstruction { word: instr.encode() });
            }
            let src = if instr.op.format() == Format::CsrImm {
                u64::from(instr.csr_zimm().unwrap_or(0))
            } else {
                rs1
            };
            let writes = match instr.op {
                Op::Csrrw | Op::Csrrwi => true,
                // csrrs/csrrc only write when the source is non-trivial.
                Op::Csrrs | Op::Csrrc => instr.rs1 != Gpr::Zero,
                Op::Csrrsi | Op::Csrrci => src != 0,
                _ => unreachable!(),
            };
            if writes && csr.is_read_only() {
                return InstrOutcome::except(pc, Exception::IllegalInstruction { word: instr.encode() });
            }
            let old = state.csr(csr);
            if writes {
                let new = match instr.op {
                    Op::Csrrw | Op::Csrrwi => src,
                    Op::Csrrs | Op::Csrrsi => old | src,
                    Op::Csrrc | Op::Csrrci => old & !src,
                    _ => unreachable!(),
                };
                state.set_csr(csr, new);
            }
            write_rd(state, &mut out, old);
        }
        // ---- fences and system ----------------------------------------------------------------
        Op::Fence | Op::FenceI | Op::Wfi => {}
        Op::Mret => {
            out.next_pc = state.csr(CsrAddr::MEPC) & !0b11;
        }
        Op::Ecall => return InstrOutcome::except(pc, Exception::EcallM),
        Op::Ebreak => return InstrOutcome::except(pc, Exception::Breakpoint),
    }
    out
}

fn sext32(value: u64) -> u64 {
    value as u32 as i32 as i64 as u64
}

fn width_mask(width: u64) -> u64 {
    if width == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * width)) - 1
    }
}

fn div_signed(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else if a == i64::MIN && b == -1 {
        i64::MIN
    } else {
        a / b
    }
}

fn rem_signed(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else if a == i64::MIN && b == -1 {
        0
    } else {
        a % b
    }
}

/// Configuration of the golden simulator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Whether `ebreak` retires (increments `minstret`). The golden model and
    /// the bug-free processors use `true`; the V7 vulnerability is the DUT
    /// deviating from it.
    pub ebreak_retires: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { ebreak_retires: true }
    }
}

/// The golden-reference simulator.
///
/// See the [crate-level documentation](crate) for the simulation conventions.
#[derive(Debug, Clone, Default)]
pub struct GoldenSim {
    config: ExecConfig,
}

impl GoldenSim {
    /// Creates a simulator with the default configuration.
    pub fn new() -> GoldenSim {
        GoldenSim::default()
    }

    /// Creates a simulator with an explicit configuration.
    pub fn with_config(config: ExecConfig) -> GoldenSim {
        GoldenSim { config }
    }

    /// Runs `program` for at most `max_steps` committed instructions and
    /// returns the commit trace.
    pub fn run(&self, program: &Program, max_steps: usize) -> ExecTrace {
        let mut scratch = GoldenScratch::new();
        let mut trace = ExecTrace::default();
        self.run_into(program, max_steps, &mut trace, &mut scratch);
        trace
    }

    /// Runs `program` like [`run`](GoldenSim::run), writing the commit trace
    /// into a caller-owned buffer and reusing the scratch's memory image and
    /// text buffer.
    ///
    /// This is the fuzzing hot path: a harness keeps one `ExecTrace` and one
    /// [`GoldenScratch`] alive for the whole campaign, so steady-state
    /// simulation performs no per-test trace or memory allocation.
    pub fn run_into(
        &self,
        program: &Program,
        max_steps: usize,
        trace: &mut ExecTrace,
        scratch: &mut GoldenScratch,
    ) {
        program.text_bytes_into(&mut scratch.text);
        let state = begin_run(
            scratch.policy,
            &scratch.snapshot,
            &mut scratch.mem,
            &scratch.text,
            program.data(),
            trace,
        );
        self.run_loop(&mut scratch.mem, state, max_steps, trace, |mem, pc| {
            mem.fetch(pc).map(|word| (word, decode(word).ok()))
        });
    }

    /// Runs `program` like [`run_into`](GoldenSim::run_into), but fetches
    /// pre-decoded instructions from `decoded` instead of decoding each word
    /// on every step.
    ///
    /// `decoded` must be the pre-decoded image of `program`'s current text
    /// (asserted in debug builds); [`DecodeCache`](crate::DecodeCache)
    /// guarantees that pairing. The commit trace is byte-identical to the
    /// interpreted path — the interpreter stays alive as the differential
    /// oracle for exactly this claim (see the [`decoded`](crate::decoded)
    /// module docs).
    pub fn run_decoded_into(
        &self,
        program: &Program,
        decoded: &DecodedProgram,
        max_steps: usize,
        trace: &mut ExecTrace,
        scratch: &mut GoldenScratch,
    ) {
        debug_assert!(decoded.matches(program), "pre-decoded image is not this program's text");
        let state = begin_run(
            scratch.policy,
            &scratch.snapshot,
            &mut scratch.mem,
            decoded.text(),
            program.data(),
            trace,
        );
        self.run_loop(&mut scratch.mem, state, max_steps, trace, |_mem, pc| {
            decoded.fetch(pc).map(|slot| (slot.word, slot.instr))
        });
    }

    /// The shared commit loop behind both fetch paths. `fetch` returns the
    /// raw word and its architectural decode for a pc, or `None` when the pc
    /// leaves the text region; the two closures (live `Memory::fetch` +
    /// `decode`, or a [`DecodedProgram`] lookup) are proven equivalent in the
    /// `decoded` module's tests.
    fn run_loop(
        &self,
        mem: &mut Memory,
        mut state: ArchState,
        max_steps: usize,
        trace: &mut ExecTrace,
        fetch: impl Fn(&Memory, u64) -> Option<(u32, Option<Instr>)>,
    ) {
        trace.clear();
        let text_end = TEXT_BASE + mem.text_len();
        let mut halt = HaltReason::StepLimit;

        for seq in 0..max_steps as u64 {
            let pc = state.pc;
            let Some((word, decoded)) = fetch(&*mem, pc) else {
                halt = HaltReason::PcOutOfText;
                break;
            };
            let outcome = match decoded {
                Some(instr) => execute_instr(&mut state, mem, instr, pc),
                None => InstrOutcome::except(pc, Exception::IllegalInstruction { word }),
            };

            let mut next_pc = outcome.next_pc;
            let mut retired = false;
            match outcome.exception {
                None => {
                    state.retire();
                    retired = true;
                }
                Some(Exception::EcallM) => {
                    halt = HaltReason::Ecall;
                }
                Some(Exception::Breakpoint) => {
                    if self.config.ebreak_retires {
                        state.retire();
                        retired = true;
                    }
                    if let Some(vector) = state.take_exception(Exception::Breakpoint, pc, text_end) {
                        next_pc = vector;
                    }
                }
                Some(exception) => {
                    if let Some(vector) = state.take_exception(exception, pc, text_end) {
                        next_pc = vector;
                    }
                }
            }
            let _ = retired;

            trace.push_commit(CommitRecord {
                seq,
                pc,
                instr: decoded,
                word,
                writeback: outcome.writeback,
                mem: outcome.mem,
                exception: outcome.exception,
                next_pc,
                instret: state.instret(),
            });

            if halt == HaltReason::Ecall {
                break;
            }
            state.pc = next_pc;
        }

        trace.finish(state, halt);
    }
}

/// Brings the scratch's memory and architectural state to the test-start
/// point according to `policy`, returning the state the run begins from.
///
/// The snapshot path recycles the previous run's final state out of `trace`
/// ([`Snapshot::restore`] rewrites it in place) and zeroes only the dirty
/// memory pages. The full-reinit path is
/// the pre-snapshot code, kept verbatim as the differential oracle. Both hand
/// `run_loop` identical starting conditions — pinned by the equivalence tests
/// below and end-to-end by `tests/snapshot_reset_equivalence.rs`.
fn begin_run(
    policy: ResetPolicy,
    snapshot: &Snapshot,
    mem: &mut Memory,
    text: &[u8],
    data: &[u8],
    trace: &mut ExecTrace,
) -> ArchState {
    match policy {
        ResetPolicy::SnapshotReset => {
            mem.restore_with_program(text, data);
            let mut state = trace.take_final_state();
            snapshot.restore(&mut state);
            state
        }
        ResetPolicy::FullReinit => {
            mem.reset_with_program(text, data);
            ArchState::new()
        }
    }
}

/// Reusable per-campaign buffers for [`GoldenSim::run_into`]: the memory
/// image, the encoded text bytes, the pristine-state [`Snapshot`] and the
/// [`ResetPolicy`] governing how they are brought back between tests.
#[derive(Debug, Clone, Default)]
pub struct GoldenScratch {
    mem: Memory,
    text: Vec<u8>,
    snapshot: Snapshot,
    policy: ResetPolicy,
}

impl GoldenScratch {
    /// Creates empty scratch buffers using the default
    /// [`ResetPolicy::SnapshotReset`] (safe on a fresh scratch: nothing is
    /// dirty yet, so the first restore is trivially a full image load).
    ///
    /// The policy is a scratch property, not a simulator property, because it
    /// describes how *this* scratch's buffers are recycled; the environment
    /// switch lives one level up in `fuzzer::ExecScratch`, beside the decode
    /// cache's `MABFUZZ_DECODE_CACHE` switch.
    pub fn new() -> GoldenScratch {
        GoldenScratch::default()
    }

    /// Creates scratch buffers with an explicit reset policy
    /// ([`ResetPolicy::FullReinit`] selects the differential-oracle path).
    pub fn with_policy(policy: ResetPolicy) -> GoldenScratch {
        GoldenScratch { policy, ..GoldenScratch::default() }
    }

    /// Returns the reset policy this scratch recycles its buffers with.
    pub fn policy(&self) -> ResetPolicy {
        self.policy
    }

    /// Returns the dirty-page restore counters of the scratch's memory, for
    /// tests and benches.
    pub fn reset_stats(&self) -> ResetStats {
        self.mem.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv::asm::parse_program;
    use riscv::program::DATA_BASE;

    fn run_asm(asm: &str) -> ExecTrace {
        let program = Program::from_instrs(parse_program(asm).expect("valid asm"));
        GoldenSim::new().run(&program, 1000)
    }

    #[test]
    fn arithmetic_and_termination() {
        let trace = run_asm(
            "addi a0, zero, 21\n\
             add a0, a0, a0\n\
             ecall\n",
        );
        assert_eq!(trace.halt_reason(), HaltReason::Ecall);
        assert_eq!(trace.final_state().reg(Gpr::A0), 42);
        // ecall does not retire.
        assert_eq!(trace.final_state().instret(), 2);
    }

    #[test]
    fn branches_follow_the_comparison() {
        let trace = run_asm(
            "addi a0, zero, 5\n\
             addi a1, zero, 5\n\
             beq a0, a1, 8\n\
             addi a2, zero, 99\n\
             addi a3, zero, 7\n\
             ecall\n",
        );
        assert_eq!(trace.final_state().reg(Gpr::A2), 0, "skipped instruction must not execute");
        assert_eq!(trace.final_state().reg(Gpr::A3), 7);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let trace = run_asm(
            "lui gp, 0x80010\n\
             addi t0, zero, -2\n\
             sd t0, 16(gp)\n\
             ld t1, 16(gp)\n\
             lw t2, 16(gp)\n\
             lbu t3, 16(gp)\n\
             ecall\n",
        );
        let state = trace.final_state();
        assert_eq!(state.reg(Gpr::T1), (-2i64) as u64);
        assert_eq!(state.reg(Gpr::T2), (-2i64) as u64, "lw sign-extends");
        assert_eq!(state.reg(Gpr::T3), 0xfe, "lbu zero-extends");
    }

    #[test]
    fn word_ops_sign_extend() {
        let trace = run_asm(
            "lui a0, 0x7ffff\n\
             addiw a1, a0, 2047\n\
             addw a2, a0, a0\n\
             ecall\n",
        );
        let state = trace.final_state();
        assert_eq!(state.reg(Gpr::A1), 0x7fff_f7ff);
        assert_eq!(state.reg(Gpr::A2) as i64, (0x7fff_f000i64 * 2) as i32 as i64);
    }

    #[test]
    fn division_corner_cases_follow_the_spec() {
        let trace = run_asm(
            "addi a0, zero, 10\n\
             addi a1, zero, 0\n\
             div a2, a0, a1\n\
             rem a3, a0, a1\n\
             divu a4, a0, a1\n\
             remu a5, a0, a1\n\
             ecall\n",
        );
        let state = trace.final_state();
        assert_eq!(state.reg(Gpr::A2), u64::MAX, "signed div by zero gives -1");
        assert_eq!(state.reg(Gpr::A3), 10, "signed rem by zero gives dividend");
        assert_eq!(state.reg(Gpr::A4), u64::MAX);
        assert_eq!(state.reg(Gpr::A5), 10);
    }

    #[test]
    fn mulh_variants_compute_the_high_half() {
        let trace = run_asm(
            "addi a0, zero, -1\n\
             addi a1, zero, -1\n\
             mulhu a2, a0, a1\n\
             mulh a3, a0, a1\n\
             ecall\n",
        );
        let state = trace.final_state();
        assert_eq!(state.reg(Gpr::A2), 0xffff_ffff_ffff_fffe, "(-1)*(-1) unsigned high half");
        assert_eq!(state.reg(Gpr::A3), 0, "(-1)*(-1) signed high half");
    }

    #[test]
    fn csr_accesses_read_and_write() {
        let trace = run_asm(
            "addi t0, zero, 55\n\
             csrrw zero, mscratch, t0\n\
             csrrs t1, mscratch, zero\n\
             csrrwi t2, mscratch, 9\n\
             csrrc t3, mscratch, zero\n\
             ecall\n",
        );
        let state = trace.final_state();
        assert_eq!(state.reg(Gpr::T1), 55);
        assert_eq!(state.reg(Gpr::T2), 55, "csrrwi returns the old value");
        assert_eq!(state.reg(Gpr::T3), 9);
    }

    #[test]
    fn unimplemented_csr_raises_illegal_instruction() {
        let trace = run_asm(
            "csrrw t0, 0x5c0, zero\n\
             addi a0, zero, 1\n\
             ecall\n",
        );
        let exceptions: Vec<_> = trace.faults().map(|(_, e)| e).collect();
        assert!(matches!(exceptions.as_slice(), [Exception::IllegalInstruction { .. }]));
        // Execution continues after the fault (no trap vector configured).
        assert_eq!(trace.final_state().reg(Gpr::A0), 1);
    }

    #[test]
    fn write_to_read_only_csr_is_illegal_but_read_is_not() {
        let trace = run_asm(
            "csrrw t0, mhartid, zero\n\
             csrrs t1, mhartid, zero\n\
             ecall\n",
        );
        let exceptions: Vec<_> = trace.faults().map(|(_, e)| e).collect();
        assert_eq!(exceptions.len(), 1, "only the write faults");
    }

    #[test]
    fn invalid_address_access_faults() {
        let trace = run_asm(
            "addi t0, zero, 64\n\
             ld t1, 0(t0)\n\
             sd t0, 0(t0)\n\
             ecall\n",
        );
        let exceptions: Vec<_> = trace.faults().map(|(_, e)| e).collect();
        assert_eq!(exceptions.len(), 2);
        assert!(exceptions.iter().all(|e| e.is_access_fault()));
    }

    #[test]
    fn misaligned_access_raises_misaligned_exception() {
        let trace = run_asm(
            "lui gp, 0x80010\n\
             ld t1, 3(gp)\n\
             ecall\n",
        );
        let exceptions: Vec<_> = trace.faults().map(|(_, e)| e).collect();
        assert!(matches!(exceptions.as_slice(), [Exception::LoadAddrMisaligned { .. }]));
    }

    #[test]
    fn ebreak_retires_and_updates_trap_csrs() {
        let trace = run_asm(
            "ebreak\n\
             addi a0, zero, 3\n\
             ecall\n",
        );
        assert_eq!(trace.final_state().csr(CsrAddr::MCAUSE), 3);
        // ebreak + addi retire; ecall does not.
        assert_eq!(trace.final_state().instret(), 2);
        assert_eq!(trace.final_state().reg(Gpr::A0), 3);
    }

    #[test]
    fn trap_vector_redirects_when_configured() {
        // mtvec = TEXT_BASE + 0x14 (the 6th instruction), so the illegal CSR
        // access jumps to the handler instead of falling through.
        let trace = run_asm(
            "lui t0, 0x80000\n\
             addi t0, t0, 20\n\
             csrrw zero, mtvec, t0\n\
             csrrw t1, 0x5c0, zero\n\
             addi a0, zero, 111\n\
             addi a1, zero, 222\n\
             ecall\n",
        );
        let state = trace.final_state();
        assert_eq!(state.reg(Gpr::A0), 0, "instruction skipped by the trap redirect");
        assert_eq!(state.reg(Gpr::A1), 222);
    }

    #[test]
    fn mret_returns_to_mepc() {
        let trace = run_asm(
            "lui t0, 0x80000\n\
             addi t0, t0, 16\n\
             csrrw zero, mepc, t0\n\
             mret\n\
             addi a0, zero, 5\n\
             ecall\n",
        );
        assert_eq!(trace.final_state().reg(Gpr::A0), 5);
        assert_eq!(trace.halt_reason(), HaltReason::Ecall);
    }

    #[test]
    fn running_off_the_text_ends_the_run() {
        let trace = run_asm("addi a0, zero, 1\naddi a1, zero, 2\n");
        assert_eq!(trace.halt_reason(), HaltReason::PcOutOfText);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn step_limit_is_respected() {
        // An infinite loop: jal zero, 0 jumps to itself.
        let program = Program::from_instrs(vec![Instr::jal(Gpr::Zero, 0)]);
        let trace = GoldenSim::new().run(&program, 25);
        assert_eq!(trace.halt_reason(), HaltReason::StepLimit);
        assert_eq!(trace.len(), 25);
    }

    #[test]
    fn jalr_links_and_jumps() {
        let trace = run_asm(
            "lui t0, 0x80000\n\
             addi t0, t0, 16\n\
             jalr ra, 0(t0)\n\
             addi a0, zero, 99\n\
             addi a1, zero, 1\n\
             ecall\n",
        );
        let state = trace.final_state();
        assert_eq!(state.reg(Gpr::A0), 0, "skipped by the jump");
        assert_eq!(state.reg(Gpr::A1), 1);
        assert_eq!(state.reg(Gpr::Ra), TEXT_BASE + 12);
    }

    #[test]
    fn instret_visible_through_csr_reads() {
        let trace = run_asm(
            "addi a0, zero, 1\n\
             addi a0, zero, 2\n\
             csrrs a1, minstret, zero\n\
             ecall\n",
        );
        assert_eq!(trace.final_state().reg(Gpr::A1), 2);
    }

    #[test]
    fn commit_records_carry_memory_accesses() {
        let trace = run_asm(
            "lui gp, 0x80010\n\
             addi t0, zero, 77\n\
             sd t0, 0(gp)\n\
             ecall\n",
        );
        let store = trace.commits().iter().find(|c| c.mem.is_some()).expect("store committed");
        let access = store.mem.unwrap();
        assert!(access.is_store);
        assert_eq!(access.addr, DATA_BASE);
        assert_eq!(access.value, 77);
    }

    #[test]
    fn deterministic_across_runs() {
        let program = Program::from_instrs(parse_program("addi a0, zero, 9\nmul a1, a0, a0\necall\n").unwrap());
        let sim = GoldenSim::new();
        assert_eq!(sim.run(&program, 100), sim.run(&program, 100));
    }

    #[test]
    fn store_to_text_is_rejected_so_predecoded_images_stay_valid() {
        // The decode cache relies on text being immutable during execution:
        // this pins that a store aimed at the text region faults instead of
        // landing (see `Memory::fetch` and the `decoded` module docs).
        let trace = run_asm(
            "lui t0, 0x80000\n\
             addi t1, zero, 1\n\
             sw t1, 0(t0)\n\
             sb t1, 4(t0)\n\
             lw a0, 0(t0)\n\
             ecall\n",
        );
        let exceptions: Vec<_> = trace.faults().map(|(_, e)| e).collect();
        assert!(
            matches!(
                exceptions.as_slice(),
                [Exception::StoreAccessFault { .. }, Exception::StoreAccessFault { .. }]
            ),
            "both stores into text must fault, got {exceptions:?}"
        );
        // The word at TEXT_BASE is still the original `lui` encoding, not 1.
        let load = trace.commits().iter().find(|c| matches!(c.mem, Some(m) if !m.is_store));
        assert_eq!(load.expect("load committed").mem.unwrap().value & 0xffff_ffff, 0x8000_02b7);
    }

    /// A corpus exercising stores, traps, step limits, undecodable words and
    /// the empty program — shared by the decode-cache and snapshot-reset
    /// differential tests.
    fn differential_corpus() -> Vec<Program> {
        let mut programs = vec![
            Program::new(), // empty: one phantom zero word, PcOutOfText
            Program::from_instrs(parse_program("addi a0, zero, 9\nmul a1, a0, a0\necall\n").unwrap()),
            Program::from_instrs(parse_program(
                "lui gp, 0x80010\n\
                 addi t0, zero, -2\n\
                 sd t0, 16(gp)\n\
                 ld t1, 16(gp)\n\
                 ebreak\n\
                 csrrw t2, 0x5c0, zero\n\
                 ecall\n",
            ).unwrap()),
            Program::from_instrs(vec![Instr::jal(Gpr::Zero, 0)]), // step limit
        ];
        // An undecodable raw-override word exercises the cached decode-fault
        // slot (`instr == None`).
        let mut with_raw = Program::from_instrs(
            parse_program("addi a0, zero, 1\nnop\necall\n").unwrap(),
        );
        with_raw.set_raw(1, 0xffff_ffff);
        programs.push(with_raw);
        programs
    }

    #[test]
    fn snapshot_restore_runs_are_byte_identical_to_full_reinit_runs() {
        let sim = GoldenSim::new();
        let mut restored_scratch = GoldenScratch::new();
        assert!(restored_scratch.policy().is_snapshot(), "snapshot reset is the default");
        let mut reinit_scratch = GoldenScratch::with_policy(ResetPolicy::FullReinit);
        let mut restored = ExecTrace::default();
        let mut reinit = ExecTrace::default();
        // Two passes over the corpus so each program also runs with dirt left
        // behind by *every other* program, not just its predecessor.
        for pass in 0..2 {
            for program in &differential_corpus() {
                sim.run_into(program, 50, &mut restored, &mut restored_scratch);
                sim.run_into(program, 50, &mut reinit, &mut reinit_scratch);
                assert_eq!(restored, reinit, "pass {pass}: restore diverged for:\n{program}");
                // The decoded fast path must agree under both policies too.
                let decoded = DecodedProgram::from_program(program);
                sim.run_decoded_into(program, &decoded, 50, &mut restored, &mut restored_scratch);
                sim.run_decoded_into(program, &decoded, 50, &mut reinit, &mut reinit_scratch);
                assert_eq!(restored, reinit, "pass {pass}: decoded restore diverged for:\n{program}");
            }
        }
        let stats = restored_scratch.reset_stats();
        assert!(stats.restores > 0 && stats.units_restored > 0, "the snapshot path really ran dirty restores: {stats:?}");
        assert_eq!(reinit_scratch.reset_stats().restores, 0, "the oracle path never dirty-restores");
    }

    #[test]
    fn decoded_path_is_byte_identical_to_the_interpreted_path() {
        use crate::decoded::DecodedProgram;

        let mut programs = vec![
            Program::new(), // empty: one phantom zero word, PcOutOfText
            Program::from_instrs(parse_program("addi a0, zero, 9\nmul a1, a0, a0\necall\n").unwrap()),
            Program::from_instrs(parse_program(
                "lui gp, 0x80010\n\
                 addi t0, zero, -2\n\
                 sd t0, 16(gp)\n\
                 ld t1, 16(gp)\n\
                 ebreak\n\
                 csrrw t2, 0x5c0, zero\n\
                 ecall\n",
            ).unwrap()),
            Program::from_instrs(vec![Instr::jal(Gpr::Zero, 0)]), // step limit
        ];
        // An undecodable raw-override word exercises the cached decode-fault
        // slot (`instr == None`).
        let mut with_raw = Program::from_instrs(
            parse_program("addi a0, zero, 1\nnop\necall\n").unwrap(),
        );
        with_raw.set_raw(1, 0xffff_ffff);
        programs.push(with_raw);

        let sim = GoldenSim::new();
        let mut scratch = GoldenScratch::new();
        let mut interpreted = ExecTrace::default();
        let mut cached = ExecTrace::default();
        for program in &programs {
            let decoded = DecodedProgram::from_program(program);
            sim.run_into(program, 50, &mut interpreted, &mut scratch);
            sim.run_decoded_into(program, &decoded, 50, &mut cached, &mut scratch);
            assert_eq!(cached, interpreted, "decoded run diverged for:\n{program}");
        }
    }
}

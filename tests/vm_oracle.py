"""The symbolic VM's differential oracle: the original HS32 stepper.

:class:`LegacyExecutor` is :class:`repro.vm.SymbolicExecutor` with the
original per-instruction stepper in place of the predecoded tier. Every
step fetches the word from memory, decodes it afresh and dispatches
through one if/elif chain, and concrete ALU and branch operations use
the if-chains below, not the semantics tables of :mod:`repro.isa.cpu`
that the executor and the concrete core share. The symbolic helpers
(branch forking, memory, intrinsics, bug reporting) are the executor's
own, so a divergence lies in fetch, dispatch or concrete semantics.

The differential suites (``test_vm_dispatch_differential.py``,
``test_executor_differential.py``) and E12's reference row
(``benchmarks/test_vm_throughput.py``) run against it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import VmError
from repro.isa import encoding as enc
from repro.vm import detectors as D
from repro.vm.executor import (MASK32, StepOutcome, SymbolicExecutor,
                               _symbolic_alu_i, _symbolic_alu_r)
from repro.vm.memory import Value
from repro.vm.state import STATUS_ACTIVE, STATUS_HALTED, ExecState


class LegacyExecutor(SymbolicExecutor):
    """Byte fetch, fresh decode and if/elif dispatch per instruction."""

    def step(self, state: ExecState) -> StepOutcome:
        outcome = StepOutcome()
        word = self._fetch(state, outcome)
        if word is None:
            return outcome
        instr = enc.decode(word)
        if not enc.is_valid_opcode(instr.opcode):
            self._bug(state, outcome, D.KIND_ILLEGAL_INSTR,
                      f"opcode 0x{instr.opcode:02x}")
            return outcome
        self.coverage.add(state.pc)
        state.recent_pcs.append(state.pc)
        state.steps += 1
        self.instructions_executed += 1
        self._execute(state, instr, outcome)
        return outcome

    def step_block(self, state: ExecState, max_steps: int,
                   pre_step: Optional[Callable[[ExecState], None]] = None,
                   post_step: Optional[Callable[[], None]] = None
                   ) -> StepOutcome:
        """:meth:`step` in the executor's hook and stop-condition
        envelope, so engine-level runs compare byte for byte."""
        outcome = StepOutcome()
        executed = 0
        while True:
            if pre_step is not None:
                pre_step(state)
            executed += 1
            step_out = self.step(state)
            outcome.forks.extend(step_out.forks)
            if step_out.bug is not None:
                outcome.bug = step_out.bug
            if post_step is not None:
                post_step()
            if (outcome.forks or outcome.bug is not None
                    or state.status != STATUS_ACTIVE
                    or executed >= max_steps):
                break
        outcome.executed = executed
        return outcome

    def _execute(self, state: ExecState, instr: enc.Instruction,
                 outcome: StepOutcome) -> None:
        op = instr.opcode
        next_pc = state.pc + 4
        if op in enc.R_TYPE:
            state.set_reg(instr.rd, self._alu_r(state, op, instr.rs1,
                                                instr.rs2))
        elif op in enc.I_ALU:
            state.set_reg(instr.rd, self._alu_i(state, op, instr.rs1,
                                                instr.imm))
        elif op in enc.LOADS:
            if not self._load(state, instr, outcome):
                return
        elif op in enc.STORES:
            if not self._store(state, instr, outcome):
                return
        elif op in enc.BRANCHES:
            taken_pc = (state.pc + instr.imm) & MASK32
            a, b = state.reg(instr.rd), state.reg(instr.rs1)
            if isinstance(a, int) and isinstance(b, int):
                state.pc = taken_pc if _branch_taken(op, a, b) else next_pc
            else:
                self._branch(state, instr, taken_pc, next_pc, outcome)
            return
        elif op == enc.JAL:
            if instr.rd:
                state.set_reg(instr.rd, next_pc)
            state.pc = (state.pc + instr.imm) & MASK32
            return
        elif op == enc.JALR:
            target = self._jalr_target(state, instr, outcome)
            if target is None:
                return
            if instr.rd:
                state.set_reg(instr.rd, next_pc)
            state.pc = target
            return
        elif op == enc.HALT:
            code = state.reg(instr.rs1)
            if not isinstance(code, int):
                code = self.solver.eval_one(code, state.constraints) or 0
            state.status = STATUS_HALTED
            state.halt_code = code
            return
        elif op == enc.IRET:
            if not state.in_irq:
                self._bug(state, outcome, D.KIND_ILLEGAL_INSTR,
                          "iret outside interrupt")
                return
            state.in_irq = False
            state.pc = state.irq_return_pc
            return
        elif op == enc.HS:
            if not self._intrinsic(state, instr, outcome):
                return
        else:  # pragma: no cover - guarded by is_valid_opcode
            raise VmError(f"unhandled opcode {op:#x}")
        state.pc = next_pc

    def _alu_r(self, state: ExecState, op: int, rs1: int, rs2: int) -> Value:
        a, b = state.reg(rs1), state.reg(rs2)
        if isinstance(a, int) and isinstance(b, int):
            return _concrete_alu_r(op, a, b)
        return _symbolic_alu_r(op, state.reg_expr(rs1), state.reg_expr(rs2))

    def _alu_i(self, state: ExecState, op: int, rs1: int, imm: int) -> Value:
        a = state.reg(rs1)
        if isinstance(a, int):
            return _concrete_alu_i(op, a, imm)
        return _symbolic_alu_i(op, state.reg_expr(rs1), imm)


# ---------------------------------------------------------------------------
# Concrete semantics, written out independently of repro.isa.cpu's tables
# ---------------------------------------------------------------------------

def _signed(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value & 0x80000000 else value


def _concrete_alu_r(op: int, a: int, b: int) -> int:
    if op == enc.ADD:
        return (a + b) & MASK32
    if op == enc.SUB:
        return (a - b) & MASK32
    if op == enc.AND:
        return a & b
    if op == enc.OR:
        return a | b
    if op == enc.XOR:
        return a ^ b
    if op == enc.SLL:
        return (a << (b & 31)) & MASK32
    if op == enc.SRL:
        return a >> (b & 31)
    if op == enc.SRA:
        return (_signed(a) >> (b & 31)) & MASK32
    if op == enc.MUL:
        return (a * b) & MASK32
    if op == enc.DIVU:
        return MASK32 if b == 0 else (a // b) & MASK32
    if op == enc.REMU:
        return a if b == 0 else a % b
    if op == enc.SLT:
        return int(_signed(a) < _signed(b))
    if op == enc.SLTU:
        return int(a < b)
    raise VmError(f"not an R-type op {op:#x}")


def _concrete_alu_i(op: int, a: int, imm: int) -> int:
    if op == enc.ADDI:
        return (a + imm) & MASK32
    if op == enc.ANDI:
        return a & (imm & MASK32)
    if op == enc.ORI:
        return a | (imm & MASK32)
    if op == enc.XORI:
        return a ^ (imm & MASK32)
    if op == enc.SLLI:
        return (a << (imm & 31)) & MASK32
    if op == enc.SRLI:
        return a >> (imm & 31)
    if op == enc.SRAI:
        return (_signed(a) >> (imm & 31)) & MASK32
    if op == enc.LUI:
        return (imm & 0xFFFF) << 16
    raise VmError(f"not an I-type op {op:#x}")


def _branch_taken(op: int, a: int, b: int) -> bool:
    if op == enc.BEQ:
        return a == b
    if op == enc.BNE:
        return a != b
    if op == enc.BLT:
        return _signed(a) < _signed(b)
    if op == enc.BGE:
        return _signed(a) >= _signed(b)
    if op == enc.BLTU:
        return a < b
    if op == enc.BGEU:
        return a >= b
    raise VmError(f"not a branch op {op:#x}")

"""The selective symbolic executor for HS32 firmware.

Executes firmware symbolically (KLEE-style: fork on feasible symbolic
branches, path conditions checked by the bitvector solver) while
*concretely* forwarding every access that crosses the VM boundary into
the hardware domain — HardSnap's selective symbolic execution (§III-B).

Forking discipline at the hardware boundary: when a state must fork
because a symbolic address/value reaches MMIO under the completeness
policy, the siblings are forked *before* the access executes — they
re-execute the access against their own hardware snapshot when
scheduled. Only the currently scheduled state ever touches live
hardware, which is what keeps Algorithm 1's per-state hardware ownership
sound.

Dispatch: the firmware image is predecoded once into a pc-keyed
instruction table shared by every state, instructions dispatch through a
per-opcode handler table built at construction, and fully-concrete
ALU/branch operations run through the plain-int semantics tables of
:mod:`repro.isa.cpu` without touching BitVec boxing or the solver.
:meth:`SymbolicExecutor.step_block` is the one stepping entry: up to *n*
instructions on one state per call with per-instruction engine hooks.
The differential oracle (``tests/vm_oracle.py``) is the original
fetch → decode → if/elif stepper with its own concrete semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.errors import VmError
from repro.isa import encoding as enc
from repro.isa.assembler import Program
from repro.isa.cpu import ALU_I_OPS, ALU_R_OPS, BRANCH_OPS
from repro.isa.predecode import DecodedImage, decoded_image
from repro.solver import Solver
from repro.solver import expr as E
from repro.vm import detectors as D
from repro.vm.forwarding import MmioBridge
from repro.vm.memory import SymbolicMemory, Value
from repro.vm.state import (STATUS_ACTIVE, STATUS_ERROR, STATUS_HALTED,
                            STATUS_TERMINATED, ExecState)

MASK32 = 0xFFFFFFFF


@dataclass
class StepOutcome:
    """Result of executing one instruction (or one block of them) on
    one state."""

    forks: List[ExecState] = field(default_factory=list)
    bug: Optional[D.Bug] = None
    #: Engine-visible instruction slots consumed (fetch faults included,
    #: matching the per-step engine loop's accounting). Always 1 for
    #: :meth:`SymbolicExecutor.step`; up to *n* for ``step_block``.
    executed: int = 1


class SymbolicExecutor:
    """Instruction-level symbolic execution engine."""

    def __init__(self, program: Program, bridge: Optional[MmioBridge],
                 solver: Optional[Solver] = None,
                 ram_size: int = 64 * 1024,
                 mmio_base: int = 0x4000_0000):
        self.program = program
        self.bridge = bridge
        self.solver = solver or (bridge.solver if bridge else Solver())
        self.ram_size = ram_size
        self.mmio_base = mmio_base
        self.bugs: List[D.Bug] = []
        self.coverage: Set[int] = set()
        self._sym_counter = 0
        self.instructions_executed = 0
        self.sat_forks = 0
        #: The program predecoded once: pc -> Instruction for every
        #: valid word of the (static) image, shared across all states.
        self._image: DecodedImage = decoded_image(program)
        self._itab = self._image.itab
        self._handlers = self._build_handlers()

    def _build_handlers(self) -> Dict[int, Callable[..., None]]:
        """Per-opcode handler table (built once at construction)."""
        handlers: Dict[int, Callable[..., None]] = {}
        for op in enc.R_TYPE:
            handlers[op] = self._op_alu_r
        for op in enc.I_ALU:
            handlers[op] = self._op_alu_i
        for op in enc.LOADS:
            handlers[op] = self._op_load
        for op in enc.STORES:
            handlers[op] = self._op_store
        for op in enc.BRANCHES:
            handlers[op] = self._op_branch
        handlers[enc.JAL] = self._op_jal
        handlers[enc.JALR] = self._op_jalr
        handlers[enc.HALT] = self._op_halt
        handlers[enc.IRET] = self._op_iret
        handlers[enc.HS] = self._op_hs
        return handlers

    # -- state construction ---------------------------------------------------

    def make_initial_state(self) -> ExecState:
        memory = SymbolicMemory.from_image(self.ram_size, self._image)
        state = ExecState(memory=memory, pc=self.program.entry)
        state.set_reg(enc.REG_SP, self.ram_size - 16)
        return state

    # -- interrupts (called by the engine loop) -----------------------------------

    @staticmethod
    def deliverable(state: ExecState) -> bool:
        """Whether *state* would take a pending interrupt now: IRQs
        enabled, no handler running, and a handler installed. The
        engine reads the IRQ lines only while this holds."""
        return (state.irq_enabled and not state.in_irq
                and state.irq_handler is not None)

    def maybe_interrupt(self, state: ExecState, pending: bool) -> bool:
        """Vector into the handler if an IRQ is pending and deliverable.

        Interrupt service is atomic at the engine level (Inception's
        timing-violation avoidance): the engine keeps scheduling this
        state until ``in_irq`` drops.
        """
        if not (pending and self.deliverable(state)):
            return False
        state.irq_return_pc = state.pc
        state.in_irq = True
        state.pc = state.irq_handler
        return True

    # -- stepping -------------------------------------------------------------------

    def step(self, state: ExecState) -> StepOutcome:
        """Execute one instruction; may fork, halt, or record a bug."""
        return self.step_block(state, 1)

    def step_block(self, state: ExecState, max_steps: int,
                   pre_step: Optional[Callable[[ExecState], None]] = None,
                   post_step: Optional[Callable[[], None]] = None
                   ) -> StepOutcome:
        """Execute up to *max_steps* instructions on one state in a
        tight loop.

        The loop shares the predecode and handler tables across every
        iteration and hoists the hot lookups into locals, so dispatch
        overhead is paid once per block instead of once per instruction.
        It stops early on a fork, a bug, or any status change, so the
        caller observes exactly the same event boundaries as *max_steps*
        calls to :meth:`step`.

        ``pre_step``/``post_step`` are the engine's per-instruction
        hooks (interrupt polling before, hardware clocking after); both
        also run for fetch-fault slots, matching the per-step engine
        loop.
        """
        outcome = StepOutcome()
        itab = self._itab
        handlers = self._handlers
        coverage_add = self.coverage.add
        recent = state.recent_pcs.append
        mem = state.memory
        predecodable = mem.image_digest == self._image.digest
        executed = 0
        decoded = 0
        while True:
            if pre_step is not None:
                pre_step(state)
            executed += 1
            instr = itab.get(state.pc) \
                if (predecodable and mem.code_clean) else None
            if instr is None:
                # Slow fetch: unmatched image, touched code region, data
                # words, out-of-image pcs — byte-accurate fetch.
                word = self._fetch(state, outcome)
                if word is not None:
                    fetched = enc.decode(word)
                    if enc.is_valid_opcode(fetched.opcode):
                        instr = fetched
                    else:
                        self._bug(state, outcome, D.KIND_ILLEGAL_INSTR,
                                  f"opcode 0x{fetched.opcode:02x}")
            if instr is not None:
                coverage_add(state.pc)
                recent(state.pc)
                state.steps += 1
                decoded += 1
                handlers[instr.opcode](state, instr, outcome)
            if post_step is not None:
                post_step()
            if (outcome.forks or outcome.bug is not None
                    or state.status != STATUS_ACTIVE
                    or executed >= max_steps):
                break
        self.instructions_executed += decoded
        outcome.executed = executed
        return outcome

    def _fetch(self, state: ExecState, outcome: StepOutcome) -> Optional[int]:
        if state.pc % 4 or state.pc + 4 > self.ram_size or state.pc < 0:
            self._bug(state, outcome, D.KIND_OOB_READ,
                      f"instruction fetch at 0x{state.pc:x}")
            return None
        word = state.memory.read(state.pc, 4)
        if not isinstance(word, int):
            self._bug(state, outcome, D.KIND_ILLEGAL_INSTR,
                      "symbolic instruction word (self-modifying code?)")
            return None
        return word

    # -- per-opcode handlers ------------------------------------------------------------
    #
    # Reached through the handler table, with the fully-concrete cases
    # inlined over the plain-int semantics tables (no BitVec boxing, no
    # solver).

    def _op_alu_r(self, state: ExecState, instr: enc.Instruction,
                  outcome: StepOutcome) -> None:
        regs = state.regs
        a, b = regs[instr.rs1], regs[instr.rs2]
        if isinstance(a, int) and isinstance(b, int):
            regs[instr.rd] = ALU_R_OPS[instr.opcode](a, b)
        else:
            state.set_reg(instr.rd, _symbolic_alu_r(
                instr.opcode, state.reg_expr(instr.rs1),
                state.reg_expr(instr.rs2)))
        state.pc += 4

    def _op_alu_i(self, state: ExecState, instr: enc.Instruction,
                  outcome: StepOutcome) -> None:
        regs = state.regs
        a = regs[instr.rs1]
        if isinstance(a, int):
            regs[instr.rd] = ALU_I_OPS[instr.opcode](a, instr.imm)
        else:
            state.set_reg(instr.rd, _symbolic_alu_i(
                instr.opcode, state.reg_expr(instr.rs1), instr.imm))
        state.pc += 4

    def _op_load(self, state: ExecState, instr: enc.Instruction,
                 outcome: StepOutcome) -> None:
        if self._load(state, instr, outcome):
            state.pc += 4

    def _op_store(self, state: ExecState, instr: enc.Instruction,
                  outcome: StepOutcome) -> None:
        if self._store(state, instr, outcome):
            state.pc += 4

    def _op_branch(self, state: ExecState, instr: enc.Instruction,
                   outcome: StepOutcome) -> None:
        regs = state.regs
        a, b = regs[instr.rd], regs[instr.rs1]
        if isinstance(a, int) and isinstance(b, int):
            if BRANCH_OPS[instr.opcode](a, b):
                state.pc = (state.pc + instr.imm) & MASK32
            else:
                state.pc += 4
            return
        self._branch(state, instr, (state.pc + instr.imm) & MASK32,
                     state.pc + 4, outcome)

    def _op_jal(self, state: ExecState, instr: enc.Instruction,
                outcome: StepOutcome) -> None:
        if instr.rd:
            state.regs[instr.rd] = (state.pc + 4) & MASK32
        state.pc = (state.pc + instr.imm) & MASK32

    def _op_jalr(self, state: ExecState, instr: enc.Instruction,
                 outcome: StepOutcome) -> None:
        target = self._jalr_target(state, instr, outcome)
        if target is None:
            return
        if instr.rd:
            state.regs[instr.rd] = (state.pc + 4) & MASK32
        state.pc = target

    def _op_halt(self, state: ExecState, instr: enc.Instruction,
                 outcome: StepOutcome) -> None:
        code = state.reg(instr.rs1)
        if not isinstance(code, int):
            code = self.solver.eval_one(code, state.constraints) or 0
        state.status = STATUS_HALTED
        state.halt_code = code

    def _op_iret(self, state: ExecState, instr: enc.Instruction,
                 outcome: StepOutcome) -> None:
        if not state.in_irq:
            self._bug(state, outcome, D.KIND_ILLEGAL_INSTR,
                      "iret outside interrupt")
            return
        state.in_irq = False
        state.pc = state.irq_return_pc

    def _op_hs(self, state: ExecState, instr: enc.Instruction,
               outcome: StepOutcome) -> None:
        if self._intrinsic(state, instr, outcome):
            state.pc += 4

    # -- branches ------------------------------------------------------------------------------

    def _branch(self, state: ExecState, instr: enc.Instruction,
                taken_pc: int, fall_pc: int, outcome: StepOutcome) -> None:
        """A branch with a symbolic operand: fork when both directions
        are feasible."""
        cond = _symbolic_branch(instr.opcode, state.reg_expr(instr.rd),
                                state.reg_expr(instr.rs1))
        can_take = self.solver.may_be_true(cond, state.constraints)
        can_fall = self.solver.may_be_true(E.not_(cond), state.constraints)
        if can_take and can_fall:
            # Fork: the scheduled state takes the branch, the fork falls
            # through. Per Algorithm 1, the fork owns a cloned snapshot.
            fork = state.fork()
            fork.add_constraint(E.not_(cond))
            fork.pc = fall_pc
            state.add_constraint(cond)
            state.pc = taken_pc
            outcome.forks.append(fork)
            self.sat_forks += 1
        elif can_take:
            state.add_constraint(cond)
            state.pc = taken_pc
        elif can_fall:
            state.add_constraint(E.not_(cond))
            state.pc = fall_pc
        else:
            state.status = STATUS_TERMINATED
            state.error = "infeasible path condition"

    def _jalr_target(self, state: ExecState, instr: enc.Instruction,
                     outcome: StepOutcome) -> Optional[int]:
        base = state.reg(instr.rs1)
        if isinstance(base, int):
            return (base + instr.imm) & MASK32
        expr = E.add(state.reg_expr(instr.rs1), E.const(instr.imm, 32))
        pairs = self.bridge.concretize(state, expr, "jump target") \
            if self.bridge else [(state, self.solver.eval_one(
                expr, state.constraints) or 0)]
        # Siblings (completeness mode) re-execute the jalr when scheduled.
        outcome.forks.extend(s for s, _ in pairs[1:])
        return pairs[0][1]

    # -- memory ----------------------------------------------------------------------------------

    def _resolve_addr(self, state: ExecState, instr: enc.Instruction,
                      outcome: StepOutcome) -> Optional[int]:
        base = state.reg(instr.rs1)
        if isinstance(base, int):
            return (base + instr.imm) & MASK32
        expr = E.add(state.reg_expr(instr.rs1), E.const(instr.imm, 32))
        if self.bridge is not None:
            pairs = self.bridge.concretize(state, expr, "memory address")
        else:
            got = self.solver.eval_one(expr, state.constraints)
            if got is None:
                state.status = STATUS_TERMINATED
                return None
            state.add_constraint(E.eq(expr, E.const(got, 32)))
            pairs = [(state, got)]
        outcome.forks.extend(s for s, _ in pairs[1:])
        return pairs[0][1]

    def _load(self, state: ExecState, instr: enc.Instruction,
              outcome: StepOutcome) -> bool:
        addr = self._resolve_addr(state, instr, outcome)
        if addr is None:
            return False
        size = 4 if instr.opcode == enc.LW else 1
        if addr >= self.mmio_base:
            if self.bridge is None:
                self._bug(state, outcome, D.KIND_UNMAPPED_MMIO,
                          f"MMIO load at 0x{addr:x} without hardware")
                return False
            word = self.bridge.read(addr & ~3)
            if size == 1:
                word = (word >> ((addr & 3) * 8)) & 0xFF
            value: Value = word
        else:
            if addr + size > self.ram_size:
                self._bug(state, outcome, D.KIND_OOB_READ,
                          f"load at 0x{addr:x}")
                return False
            value = state.memory.read(addr, size)
        if instr.opcode == enc.LB:
            value = _sign_extend_byte(value)
        elif instr.opcode == enc.LBU and isinstance(value, E.BitVec):
            value = E.zext(value, 32)
        state.set_reg(instr.rd, value)
        return True

    def _store(self, state: ExecState, instr: enc.Instruction,
               outcome: StepOutcome) -> bool:
        addr = self._resolve_addr(state, instr, outcome)
        if addr is None:
            return False
        size = 4 if instr.opcode == enc.SW else 1
        value = state.reg(instr.rd)
        if addr >= self.mmio_base:
            if self.bridge is None:
                self._bug(state, outcome, D.KIND_UNMAPPED_MMIO,
                          f"MMIO store at 0x{addr:x} without hardware")
                return False
            pairs = self.bridge.concretize(state, value, "MMIO store value")
            outcome.forks.extend(s for s, _ in pairs[1:])
            state, concrete = pairs[0]
            if size == 1:
                # Read-modify-write for byte stores into 32-bit registers.
                word = self.bridge.read(addr & ~3)
                shift = (addr & 3) * 8
                word = (word & ~(0xFF << shift)) | ((concrete & 0xFF) << shift)
                self.bridge.write(addr & ~3, word)
            else:
                self.bridge.write(addr & ~3, concrete)
            return True
        if addr + size > self.ram_size:
            self._bug(state, outcome, D.KIND_OOB_WRITE,
                      f"store at 0x{addr:x}")
            return False
        state.memory.write(addr, value, size)
        return True

    # -- intrinsics ----------------------------------------------------------------------------------

    def _intrinsic(self, state: ExecState, instr: enc.Instruction,
                   outcome: StepOutcome) -> bool:
        func = instr.imm & 0xFF
        if func == enc.HS_SYMBOLIC:
            self._sym_counter += 1
            state.set_reg(instr.rd,
                          E.var(f"sym_{self._sym_counter}", 32))
            return True
        if func == enc.HS_SYMBOLIC_BYTES:
            # symbuf rptr(rs1), rlen(rd): make the buffer symbolic.
            ptr = state.reg(instr.rs1)
            length = state.reg(instr.rd)
            if not isinstance(ptr, int) or not isinstance(length, int):
                self._bug(state, outcome, D.KIND_ILLEGAL_INSTR,
                          "symbuf needs concrete pointer and length")
                return False
            if ptr + length > self.ram_size:
                self._bug(state, outcome, D.KIND_OOB_WRITE,
                          f"symbuf range 0x{ptr:x}+{length}")
                return False
            self._sym_counter += 1
            base = self._sym_counter
            for i in range(length):
                state.memory.write_byte(
                    ptr + i, E.var(f"buf_{base}_{i}", 8))
            return True
        if func == enc.HS_ASSUME:
            cond = _truthy(state, instr.rs1)
            if isinstance(cond, bool):
                if not cond:
                    state.status = STATUS_TERMINATED
                    state.error = "assume failed (concrete)"
                    return False
                return True
            if not self.solver.may_be_true(cond, state.constraints):
                state.status = STATUS_TERMINATED
                state.error = "assume infeasible"
                return False
            state.add_constraint(cond)
            return True
        if func == enc.HS_ASSERT:
            cond = _truthy(state, instr.rs1)
            if isinstance(cond, bool):
                if not cond:
                    self._bug(state, outcome, D.KIND_ASSERTION,
                              "concrete assertion failed")
                    return False
                return True
            neg = E.not_(cond)
            counterexample = self.solver.check(
                list(state.constraints) + [neg])
            if counterexample.is_sat:
                self._bug(state, outcome, D.KIND_ASSERTION,
                          "assertion can fail",
                          model=counterexample.model)
                return False
            state.add_constraint(cond)
            return True
        if func == enc.HS_SET_IVT:
            handler = state.reg(instr.rs1)
            if not isinstance(handler, int):
                handler = self.solver.eval_one(handler, state.constraints) or 0
            state.irq_handler = handler
            return True
        if func == enc.HS_EI:
            state.irq_enabled = True
            return True
        if func == enc.HS_DI:
            state.irq_enabled = False
            return True
        if func == enc.HS_TRACE:
            mark = state.reg(instr.rs1)
            if not isinstance(mark, int):
                mark = self.solver.eval_one(mark, state.constraints) or 0
            state.trace_marks.append(mark)
            return True
        self._bug(state, outcome, D.KIND_ILLEGAL_INSTR,
                  f"unknown intrinsic {func}")
        return False

    # -- bug reporting ------------------------------------------------------------------------------------

    def _bug(self, state: ExecState, outcome: StepOutcome, kind: str,
             detail: str, model=None) -> None:
        if model is None:
            result = self.solver.check(state.constraints)
            model = result.model if result.is_sat else {}
        bug = D.Bug(
            kind=kind,
            pc=state.pc,
            state_id=state.state_id,
            detail=detail,
            test_case=D.model_to_test_case(model),
            hw_snapshot=state.hw_snapshot,
            backtrace=list(state.recent_pcs),
            steps=state.steps,
        )
        self.bugs.append(bug)
        outcome.bug = bug
        state.status = STATUS_ERROR
        state.error = f"{kind}: {detail}"


# ---------------------------------------------------------------------------
# ALU helpers
# ---------------------------------------------------------------------------

def _symbolic_alu_r(op: int, a: E.BitVec, b: E.BitVec) -> E.BitVec:
    amount = E.and_(b, E.const(31, 32))
    if op == enc.ADD:
        return E.add(a, b)
    if op == enc.SUB:
        return E.sub(a, b)
    if op == enc.AND:
        return E.and_(a, b)
    if op == enc.OR:
        return E.or_(a, b)
    if op == enc.XOR:
        return E.xor(a, b)
    if op == enc.SLL:
        return E.shl(a, amount)
    if op == enc.SRL:
        return E.lshr(a, amount)
    if op == enc.SRA:
        return E.ashr(a, amount)
    if op == enc.MUL:
        return E.mul(a, b)
    if op == enc.DIVU:
        return E.ite(E.eq(b, E.const(0, 32)), E.const(MASK32, 32),
                     E.udiv(a, b))
    if op == enc.REMU:
        return E.ite(E.eq(b, E.const(0, 32)), a, E.urem(a, b))
    if op == enc.SLT:
        return E.zext(E.slt(a, b), 32)
    if op == enc.SLTU:
        return E.zext(E.ult(a, b), 32)
    raise VmError(f"not an R-type op {op:#x}")


def _symbolic_alu_i(op: int, a: E.BitVec, imm: int) -> E.BitVec:
    c = E.const(imm, 32)
    if op == enc.ADDI:
        return E.add(a, c)
    if op == enc.ANDI:
        return E.and_(a, c)
    if op == enc.ORI:
        return E.or_(a, c)
    if op == enc.XORI:
        return E.xor(a, c)
    if op == enc.SLLI:
        return E.shl(a, E.const(imm & 31, 32))
    if op == enc.SRLI:
        return E.lshr(a, E.const(imm & 31, 32))
    if op == enc.SRAI:
        return E.ashr(a, E.const(imm & 31, 32))
    if op == enc.LUI:
        return E.const((imm & 0xFFFF) << 16, 32)
    raise VmError(f"not an I-type op {op:#x}")


def _symbolic_branch(op: int, a: E.BitVec, b: E.BitVec) -> E.BitVec:
    if op == enc.BEQ:
        return E.eq(a, b)
    if op == enc.BNE:
        return E.ne(a, b)
    if op == enc.BLT:
        return E.slt(a, b)
    if op == enc.BGE:
        return E.sge(a, b)
    if op == enc.BLTU:
        return E.ult(a, b)
    if op == enc.BGEU:
        return E.uge(a, b)
    raise VmError(f"not a branch op {op:#x}")


def _sign_extend_byte(value: Value) -> Value:
    if isinstance(value, int):
        return (value - 256 if value & 0x80 else value) & MASK32
    if value.width > 8:
        value = E.extract(value, 7, 0)
    return E.sext(value, 32)


def _truthy(state: ExecState, reg: int):
    """Register as a boolean: Python bool if concrete, else a 1-bit expr."""
    value = state.reg(reg)
    if isinstance(value, int):
        return value != 0
    return E.ne(value, E.const(0, 32))

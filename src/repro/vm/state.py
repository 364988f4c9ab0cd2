"""Execution state: the paper's combined hardware/software state S.

    "We extended Inception's symbolic virtual machine state
    representation from software only to also consider hardware state...
    Each software state S_sw is associated to a unique hardware snapshot
    identifier." (§IV-B)

:class:`ExecState` is S: the software 3-tuple {PC, F, G} — program
counter, registers/stack, global memory — *plus* ``hw_snapshot``, the
hardware snapshot this path owns. The snapshot controller in
:mod:`repro.core` keeps the invariant that the live hardware state
matches the scheduled ExecState's snapshot.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.isa import encoding as enc
from repro.solver import expr as E
from repro.targets.base import HwSnapshot
from repro.vm.memory import SymbolicMemory, Value

_state_ids = itertools.count(1)

STATUS_ACTIVE = "active"
STATUS_HALTED = "halted"
STATUS_ERROR = "error"
STATUS_TERMINATED = "terminated"  # infeasible / assume-failed / killed

TRACE_DEPTH = 64


@dataclass(eq=False)
class ExecState:
    """One explored execution path (software state + hardware snapshot id).

    Identity semantics (``eq=False``): two states are the same only if
    they are the same object — searchers track states by identity."""

    memory: SymbolicMemory
    pc: int = 0
    regs: List[Value] = field(default_factory=lambda: [0] * enc.NUM_REGS)
    constraints: List[E.BitVec] = field(default_factory=list)
    status: str = STATUS_ACTIVE
    # Hardware side of S. None = "no snapshot yet" (fresh reset state).
    hw_snapshot: Optional[HwSnapshot] = None
    # Interrupt state.
    irq_enabled: bool = False
    irq_handler: Optional[int] = None
    in_irq: bool = False
    irq_return_pc: int = 0
    # Bookkeeping.
    state_id: int = field(default_factory=lambda: next(_state_ids))
    parent_id: int = 0
    depth: int = 0          # number of forks on this path
    steps: int = 0          # instructions executed
    #: Fork-tree address: the root is ``()``; each fork appends the
    #: parent's fork ordinal. Unlike ``state_id`` (a process-local
    #: counter), the lineage is schedule- and process-independent, which
    #: is what lets a parallel run renumber merged paths identically to
    #: the serial engine.
    lineage: Tuple[int, ...] = ()
    #: Number of forks this state has spawned (the next child's ordinal).
    fork_count: int = 0
    halt_code: Optional[int] = None
    error: Optional[str] = None
    trace_marks: List[int] = field(default_factory=list)
    recent_pcs: Deque[int] = field(default_factory=lambda: deque(maxlen=TRACE_DEPTH))

    # -- forking -------------------------------------------------------------

    def fork(self) -> "ExecState":
        """Fork at a symbolic branch: COW memory, private constraint list,
        and — per Algorithm 1 — a cloned, non-shared hardware snapshot."""
        child = ExecState(
            memory=self.memory.fork(),
            pc=self.pc,
            regs=list(self.regs),
            constraints=list(self.constraints),
            hw_snapshot=(self.hw_snapshot.clone()
                         if self.hw_snapshot is not None else None),
            irq_enabled=self.irq_enabled,
            irq_handler=self.irq_handler,
            in_irq=self.in_irq,
            irq_return_pc=self.irq_return_pc,
            parent_id=self.state_id,
            depth=self.depth + 1,
            steps=self.steps,
            lineage=self.lineage + (self.fork_count,),
            trace_marks=list(self.trace_marks),
        )
        self.fork_count += 1
        child.recent_pcs = deque(self.recent_pcs, maxlen=TRACE_DEPTH)
        return child

    # -- value helpers ---------------------------------------------------------------

    def reg(self, index: int) -> Value:
        return self.regs[index]

    def set_reg(self, index: int, value: Value) -> None:
        if isinstance(value, int):
            value &= 0xFFFFFFFF
        self.regs[index] = value

    def reg_expr(self, index: int) -> E.BitVec:
        """Register as a 32-bit expression (wrapping concrete ints)."""
        value = self.regs[index]
        if isinstance(value, int):
            return E.const(value, 32)
        return value

    def add_constraint(self, cond: E.BitVec) -> None:
        if not (cond.is_const and cond.value == 1):
            self.constraints.append(cond)

    @property
    def is_active(self) -> bool:
        return self.status == STATUS_ACTIVE

    def __repr__(self) -> str:
        return (f"ExecState(id={self.state_id}, pc=0x{self.pc:x}, "
                f"status={self.status}, depth={self.depth}, "
                f"constraints={len(self.constraints)})")

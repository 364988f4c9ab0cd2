"""Snapshot-based coverage-guided fuzzing.

The paper motivates hardware snapshotting for fuzzers as much as for DSE
(§II, citing Muench et al.):

    "fuzzing embedded systems requires to restart the target under test
    after each fuzzing input to reset a clean state for further test
    inputs. Without HardSnap, restarting the embedded systems requires a
    complete reboot of the device which is extremely slow."

This module is that use case: a small mutational, coverage-guided fuzzer
(AFL-style: seed corpus, havoc mutations, keep inputs that reach new
edges) running firmware *concretely* against a hardware target. The
harness contract: the firmware reads its input from a fixed RAM buffer
(``INPUT_ADDR``: one length word followed by the bytes).

Two reset backends, matching Fig. 1's cost axis:

* ``reset="snapshot"`` — capture the post-boot hardware state once, then
  restore it per input (HardSnap),
* ``reset="reboot"`` — full device reset per input, charged at the
  configured reboot time (the naive baseline).

Executions per second (modelled) is the headline metric the two differ
on; the explored coverage is identical by construction.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Set, Tuple

from repro.core.shutdown import shutdown_requested
from repro.core.snapshot import SnapshotController
from repro.errors import FirmwarePanic, VmError
from repro.resilience import ResilienceStats
from repro.isa.assembler import Program
from repro.isa.cpu import Cpu, CpuExit
from repro.targets.base import HardwareTarget, HwSnapshot

INPUT_ADDR = 0xF000
MAX_INPUT = 0x400


@dataclass
class FuzzCrash:
    """One crashing input."""

    input_bytes: bytes
    reason: str
    pc: int
    execution: int


@dataclass
class FuzzReport:
    executions: int = 0
    crashes: List[FuzzCrash] = field(default_factory=list)
    corpus_size: int = 0
    edges_covered: int = 0
    modelled_time_s: float = 0.0
    host_time_s: float = 0.0
    resets: int = 0
    #: The full covered edge set (pc → pc pairs); lets merged parallel
    #: coverage be compared bit-for-bit against a serial run.
    edge_set: FrozenSet[Tuple[int, int]] = frozenset()
    #: Recovery events over the run (kept out of
    #: :meth:`verdict_summary` — recovery cost is schedule-dependent).
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: "completed" | "interrupted" — why the loop ended. Excluded from
    #: :meth:`verdict_summary`: an interrupted-then-resumed campaign
    #: must still match the uninterrupted verdict byte for byte.
    stop_reason: str = "completed"

    @property
    def execs_per_modelled_second(self) -> float:
        if self.modelled_time_s == 0:
            return 0.0
        return self.executions / self.modelled_time_s

    @property
    def execs_per_host_second(self) -> float:
        if self.host_time_s == 0:
            return 0.0
        return self.executions / self.host_time_s

    def summary(self) -> str:
        return (f"[fuzz] execs={self.executions} crashes={len(self.crashes)} "
                f"corpus={self.corpus_size} edges={self.edges_covered} "
                f"modelled={self.modelled_time_s:.4f}s "
                f"({self.execs_per_modelled_second:.0f} exec/s) "
                f"host={self.host_time_s:.3f}s "
                f"({self.execs_per_host_second:.0f} exec/s)")

    def verdict_summary(self) -> str:
        """Schedule-independent outcome string: executions, every crash
        (global index, reason, input), and a digest of the exact edge
        set. A parallel run sharding the same batches must reproduce it
        byte-identically whatever the worker count."""
        edge_blob = ",".join(f"{a:x}>{b:x}"
                             for a, b in sorted(self.edge_set))
        digest = hashlib.blake2b(edge_blob.encode("ascii"),
                                 digest_size=8).hexdigest()
        crashes = ";".join(
            f"{c.execution}:{c.reason}@0x{c.pc:x}:{c.input_bytes.hex()}"
            for c in self.crashes)
        return (f"[fuzz] execs={self.executions} corpus={self.corpus_size} "
                f"edges={self.edges_covered}:{digest} "
                f"crashes=<{crashes}>")


# ---------------------------------------------------------------------------
# Shared harness pieces (used by the serial fuzzer and repro.parallel)
# ---------------------------------------------------------------------------

_INTERESTING = (0, 1, 0x7F, 0x80, 0xFF, 0x10, 0x41)


def _draws(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``: a uniform draw from ``range(n)``, n > 0, by the
    algorithm of :meth:`random.Random._randbelow` over
    ``rng.getrandbits``. ``randrange(n)`` and ``choice(seq)`` make
    exactly this draw and ``randint(a, b)`` is ``a + below(b - a + 1)``,
    so the stream is theirs without their argument checks."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r
    return below


def mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """One havoc mutation round (1-4 stacked AFL-style edits)."""
    below = _draws(rng)
    out = bytearray(data or b"\x00")
    for _ in range(1 + below(4)):
        choice = below(5)
        if choice == 0 and out:  # bit flip
            i = below(len(out))
            out[i] ^= 1 << below(8)
        elif choice == 1 and out:  # byte set
            out[below(len(out))] = below(256)
        elif choice == 2 and len(out) < MAX_INPUT:  # insert
            out.insert(below(len(out) + 1), below(256))
        elif choice == 3 and len(out) > 1:  # delete
            del out[below(len(out))]
        else:  # interesting values
            value = _INTERESTING[below(len(_INTERESTING))]
            if out:
                out[below(len(out))] = value
    return bytes(out)


def _check_input(data: bytes, what: str) -> None:
    """Reject *data* the harness buffer cannot hold: the firmware reads
    the length word and would copy bytes that were never staged."""
    if len(data) > MAX_INPUT:
        raise VmError(f"{what} is {len(data)} bytes; the harness buffer "
                      f"at 0x{INPUT_ADDR + 4:x} holds at most {MAX_INPUT}")


class ExecutionContext:
    """One fuzz campaign's execution context: its target, the post-boot
    snapshot and one :class:`~repro.isa.cpu.Cpu`, reused for every
    input. Both fuzz harnesses (:class:`SnapshotFuzzer` and the parallel
    fuzzer's workers) run each input as :meth:`fresh_hardware` then
    :meth:`execute`, so every input starts from the same state."""

    def __init__(self, program: Program, target: HardwareTarget,
                 max_steps: int = 20_000, reset: str = "snapshot",
                 reboot_time_s: float = 0.25):
        if reset not in ("snapshot", "reboot"):
            raise VmError(f"unknown reset mode {reset!r}")
        self.program = program
        self.target = target
        self.max_steps = max_steps
        self.reset_mode = reset
        self.reboot_time_s = reboot_time_s
        # Snapshots go through the controller so the boot image lands in
        # the content-addressed store (per-input restores dedup to it).
        self.controller = SnapshotController(target)
        self.boot: Optional[HwSnapshot] = None
        #: Built by the first :func:`execute_input` handed this context,
        #: reset in place by every later one.
        self.cpu: Optional[Cpu] = None

    def fresh_hardware(self) -> None:
        """Bring the hardware to the clean post-boot state: capture it
        on the first call and restore it on every later one, or reboot
        at the configured cost."""
        if self.reset_mode == "reboot":
            self.target.reset()
            self.target.timer.add_fixed(self.reboot_time_s)
            return
        if self.boot is None:
            self.controller.reset()
            self.boot = self.controller.save()
        else:
            self.controller.restore(self.boot)

    def execute(self, data: bytes) -> Tuple[Optional[CpuExit],
                                            Set[Tuple[int, int]],
                                            Optional[str], int]:
        """:func:`execute_input` of *data* in this context."""
        return execute_input(self.program, self.target, data,
                             max_steps=self.max_steps, context=self)


def execute_input(program: Program, target: HardwareTarget, data: bytes,
                  max_steps: int = 20_000,
                  context: Optional[ExecutionContext] = None
                  ) -> Tuple[Optional[CpuExit], Set[Tuple[int, int]],
                             Optional[str], int]:
    """One concrete execution of *data* against live hardware; returns
    (exit, edges, crash reason, pc). Deterministic given the hardware's
    starting state — which is what lets parallel workers reproduce the
    serial fuzzer's per-input results exactly. *context*, made for this
    program and target, lends its cpu, reset in place; without one a
    new cpu runs the input."""
    _check_input(data, "input")
    cpu = None if context is None else context.cpu
    if cpu is None:
        def irq_poll() -> bool:
            target.step(1)
            return any(target.irq_lines().values())

        cpu = Cpu(program, mmio_read=target.read, mmio_write=target.write,
                  irq_poll=irq_poll)
        if context is not None:
            context.cpu = cpu
    else:
        cpu.reset()
    cpu.store_bytes(INPUT_ADDR, len(data).to_bytes(4, "little") + data)
    edges: Set[Tuple[int, int]] = set()
    try:
        exit_ = cpu.run(max_steps, edges)
    except FirmwarePanic as exc:
        return None, edges, str(exc), cpu.pc
    if exit_.reason == "limit":
        return None, edges, None, cpu.pc  # hang: treated as non-crash
    return exit_, edges, None, cpu.pc


class CorpusScheduler:
    """The fuzzer's *deterministic* half: mutation scheduling and the
    corpus/coverage update rule, with no hardware attached.

    Batches are generated up front from the current RNG stream and
    corpus, and results merge back **in input order** — so the final
    corpus, edge set and crash list depend only on (seeds, rng seed,
    batch size), never on which worker executed which input or when.
    Each input's execution is corpus-independent (every run starts from
    the same post-boot snapshot), which is what makes the batch/merge
    split sound.
    """

    def __init__(self, seeds: Optional[List[bytes]] = None, seed: int = 0):
        self.rng = random.Random(seed)
        self.corpus: List[bytes] = list(seeds or [b"\x00"])
        for index, data in enumerate(self.corpus):
            _check_input(data, f"seed {index}")
        self.edges: Set[Tuple[int, int]] = set()

    def next_batch(self, count: int) -> List[bytes]:
        """The next *count* inputs of the mutation schedule."""
        rng, corpus = self.rng, self.corpus
        below = _draws(rng)
        return [mutate_bytes(rng, corpus[below(len(corpus))])
                for _ in range(count)]

    def state_dict(self) -> dict:
        """The scheduler's complete resumable state (picklable). A
        scheduler restored from this dict generates byte-identical
        future batches — the anchor of journal checkpoint/resume."""
        return {"rng": self.rng.getstate(),
                "corpus": list(self.corpus),
                "edges": set(self.edges)}

    def restore_state(self, state: dict) -> None:
        self.rng.setstate(state["rng"])
        self.corpus = list(state["corpus"])
        self.edges = set(state["edges"])

    def merge(self, report: FuzzReport, data: bytes,
              edges: Set[Tuple[int, int]], crash: Optional[str],
              pc: int, index: int) -> None:
        """Apply one execution's result (the serial update rule)."""
        report.executions += 1
        if crash is not None:
            report.crashes.append(FuzzCrash(data, crash, pc, index))
            return
        if not edges <= self.edges:  # new edges
            self.edges |= edges
            self.corpus.append(data)

    def finalize(self, report: FuzzReport) -> None:
        report.corpus_size = len(self.corpus)
        report.edges_covered = len(self.edges)
        report.edge_set = frozenset(self.edges)


class SnapshotFuzzer:
    """Mutational coverage-guided fuzzer over a hardware target."""

    def __init__(self, program: Program, target: HardwareTarget,
                 seeds: Optional[List[bytes]] = None,
                 reset: str = "snapshot",
                 reboot_time_s: float = 0.25,
                 max_steps_per_exec: int = 20_000,
                 seed: int = 0):
        self.context = ExecutionContext(program, target, max_steps_per_exec,
                                        reset, reboot_time_s)
        self.program = program
        self.target = target
        self.scheduler = CorpusScheduler(seeds, seed)
        self.controller = self.context.controller

    # The mutation/coverage state lives on the scheduler; these aliases
    # keep the original public attributes working.
    @property
    def rng(self) -> random.Random:
        return self.scheduler.rng

    @property
    def corpus(self) -> List[bytes]:
        return self.scheduler.corpus

    @property
    def edges(self) -> Set[Tuple[int, int]]:
        return self.scheduler.edges

    # -- main loop -------------------------------------------------------------------

    def run(self, executions: int = 200, batch_size: int = 1) -> FuzzReport:
        """Fuzz for *executions* inputs.

        ``batch_size`` sets the mutation scheduling granularity: each
        round generates a whole batch from the current corpus before any
        of its results merge back. The default of 1 is the classic
        serial schedule; a parallel run with the same ``batch_size``
        (and seeds/seed) reproduces this run's crashes, corpus and edge
        set exactly, whatever its worker count.
        """
        import time
        report = FuzzReport()
        start = time.perf_counter()
        modelled_start = self.target.timer.total_s
        resilience0 = (self.target.resilience.as_dict()
                       if getattr(self.target, "resilience", None) else None)
        context = self.context
        done = 0
        while done < executions:
            if shutdown_requested():
                report.stop_reason = "interrupted"
                break
            batch = self.scheduler.next_batch(
                min(max(1, batch_size), executions - done))
            for data in batch:
                context.fresh_hardware()
                report.resets += 1
                exit_, edges, crash, pc = context.execute(data)
                self.scheduler.merge(report, data, edges, crash, pc, done)
                done += 1
        self.scheduler.finalize(report)
        report.host_time_s = time.perf_counter() - start
        report.modelled_time_s = self.target.timer.total_s - modelled_start
        if resilience0 is not None:
            report.resilience.merge(
                self.target.resilience.delta(resilience0))
        return report

"""Snapshot and finding persistence.

The paper's snapshot controller stores checkpoints "on a persistent
storage (i.e., the file system)" (§III-C), and the whole point of
carrying the hardware state in a bug report is crash reproduction and
root-cause analysis *after* the run. This module provides both:

* :func:`save_snapshot` / :func:`load_snapshot` — JSON round trip for a
  :class:`~repro.targets.base.HwSnapshot` (human-inspectable, diffable
  with ordinary tools),
* :func:`export_crash_pack` — one directory per analysis run: a
  manifest, and per finding the concrete test case, the control-flow
  tail (disassembled when the program is provided) and the full hardware
  snapshot. :func:`replay_crash` replays a finding's test case on the
  concrete core against a live target, clocked as the analysis engine
  clocks it.
* :class:`SnapshotWire` — the pickle-safe, content-addressed form a
  snapshot travels as between the parallel runtime's processes: chunk
  *references* (digest + cycle per instance) plus only the chunk
  payloads the receiver does not already hold — the cross-process
  analogue of :class:`~repro.targets.orchestrator.TransferRecord`'s
  ``delta_bits``.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.core.engine import AnalysisReport
from repro.core.store import chunk_digest
from repro.errors import SnapshotError
from repro.isa.assembler import Program
from repro.isa.cpu import Cpu, CpuExit
from repro.isa.disassembler import disassemble_word
from repro.targets.base import (CYCLES_PER_INSTRUCTION, HardwareTarget,
                                HwSnapshot)

PathLike = Union[str, pathlib.Path]
_FORMAT_VERSION = 1


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write *text* so a crash can never leave a torn or empty file:
    the bytes land in a temp file in the same directory and are moved
    into place with ``os.replace`` (atomic on POSIX — readers see the
    old contents or the new, never a prefix)."""
    target = pathlib.Path(path)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def atomic_write_json(path: PathLike, payload, **json_kwargs) -> None:
    """JSON counterpart of :func:`atomic_write_text` (reports, BENCH_*
    artifacts — anything a gate or a human later reads back)."""
    atomic_write_text(path, json.dumps(payload, **json_kwargs) + "\n")


def snapshot_to_dict(snapshot: HwSnapshot) -> dict:
    out = {
        "format": _FORMAT_VERSION,
        "method": snapshot.method,
        "bits": snapshot.bits,
        "modelled_cost_s": snapshot.modelled_cost_s,
        "states": snapshot.states,
        # Persisted images are always sealed: a file can rot in ways a
        # live snapshot cannot.
        "digest": snapshot.digest or snapshot.compute_digest(),
    }
    if snapshot.snapshot_id is not None:
        out["snapshot_id"] = snapshot.snapshot_id
    return out


def snapshot_from_dict(data: dict) -> HwSnapshot:
    if data.get("format") != _FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format {data.get('format')!r}")
    snapshot = HwSnapshot(
        states=data["states"],
        method=data.get("method", "file"),
        bits=int(data.get("bits", 0)),
        modelled_cost_s=float(data.get("modelled_cost_s", 0.0)),
        snapshot_id=data.get("snapshot_id"),
        digest=data.get("digest"),
    )
    # Pre-resilience files carry no digest and load unchecked; sealed
    # files are verified before any target sees the state. A
    # ``parent_id`` key, which older files carry, is ignored.
    snapshot.verify()
    return snapshot


def save_snapshot(snapshot: HwSnapshot, path: PathLike) -> None:
    """Write a hardware snapshot as JSON."""
    atomic_write_text(path, json.dumps(snapshot_to_dict(snapshot),
                                       indent=1, sort_keys=True))


def load_snapshot(path: PathLike) -> HwSnapshot:
    """Read a hardware snapshot written by :func:`save_snapshot`."""
    return snapshot_from_dict(json.loads(pathlib.Path(path).read_text()))


# ---------------------------------------------------------------------------
# Cross-process wire format (the parallel runtime's snapshot transport)
# ---------------------------------------------------------------------------

@dataclass
class SnapshotWire:
    """One hardware snapshot as content-addressed references + the chunk
    payloads the peer is missing.

    Everything here is plain picklable data (strings, ints, dicts): a
    wire crosses a ``multiprocessing`` queue. ``refs`` names each
    instance's state by chunk digest (the store's :func:`chunk_digest`,
    cycle counter excluded) plus the cycle it travels with; ``chunks``
    carries digest → (canonical body, state bits) only for digests the
    sender believes the receiver lacks. Chunk bodies are immutable by
    convention — receivers must never mutate them (restores copy).
    """

    #: instance name -> (chunk digest, cycle counter, state bits)
    refs: Dict[str, Tuple[str, int, int]]
    #: digest -> (canonical state body without cycle, state bits)
    chunks: Dict[str, Tuple[dict, int]] = field(default_factory=dict)
    method: str = "direct"
    bits: int = 0

    @property
    def logical_bits(self) -> int:
        """Full-image size of the referenced snapshot."""
        return sum(bits for _, _, bits in self.refs.values())

    @property
    def payload_bits(self) -> int:
        """Bits actually carried as chunk payloads (the delta)."""
        return sum(bits for _, bits in self.chunks.values())


def snapshot_to_wire(snapshot: HwSnapshot,
                     known: Optional[Set[str]] = None,
                     bits_of: Optional[Mapping[str, int]] = None
                     ) -> SnapshotWire:
    """Encode *snapshot* for the wire, omitting chunk payloads whose
    digest appears in *known* (the receiver's chunk pool, as tracked by
    the sender). ``bits_of`` maps instance name → state bits for the
    transfer accounting; unknown instances count 0.
    """
    refs: Dict[str, Tuple[str, int, int]] = {}
    chunks: Dict[str, Tuple[dict, int]] = {}
    for name, state in snapshot.states.items():
        body = {k: v for k, v in state.items() if k != "cycle"}
        digest = chunk_digest(state)
        bits = int(bits_of.get(name, 0)) if bits_of else 0
        refs[name] = (digest, int(state.get("cycle", 0)), bits)
        if known is None or digest not in known:
            chunks[digest] = (body, bits)
    return SnapshotWire(refs=refs, chunks=chunks,
                        method=snapshot.method, bits=snapshot.bits)


def snapshot_from_wire(wire: SnapshotWire,
                       pool: Mapping[str, dict]) -> HwSnapshot:
    """Reassemble a :class:`HwSnapshot` from a wire plus the receiver's
    digest → body chunk pool (which must already contain every digest
    the wire references; callers merge ``wire.chunks`` in first).

    The result is a *foreign* snapshot (no store record); like every
    save, the receiver's next save hashes every instance into its own
    store.
    """
    states: Dict[str, dict] = {}
    for name, (digest, cycle, _bits) in wire.refs.items():
        body = pool.get(digest)
        if body is None:
            raise SnapshotError(
                f"wire references chunk {digest!r} for instance {name!r} "
                f"but the local pool does not hold it")
        states[name] = {"cycle": cycle, **body}
    return HwSnapshot(states=states, method=wire.method, bits=wire.bits)


def export_crash_pack(report: AnalysisReport, directory: PathLike,
                      program: Optional[Program] = None) -> List[pathlib.Path]:
    """Persist every finding of *report* for offline reproduction.

    Returns the list of per-finding directories created. Layout::

        <dir>/manifest.json
        <dir>/finding_000/report.json     test case, kind, backtrace
        <dir>/finding_000/hardware.json   the full HW snapshot (if any)
    """
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    out: List[pathlib.Path] = []
    manifest = {
        "strategy": report.strategy,
        "instructions": report.instructions,
        "findings": len(report.bugs),
        "paths": len(report.paths),
    }
    atomic_write_text(root / "manifest.json", json.dumps(manifest, indent=1))
    for i, bug in enumerate(report.bugs):
        bug_dir = root / f"finding_{i:03d}"
        bug_dir.mkdir(exist_ok=True)
        backtrace = []
        for pc in bug.backtrace:
            entry = {"pc": pc}
            if program is not None and pc in program.words:
                entry["asm"] = disassemble_word(program.words[pc], pc)
            backtrace.append(entry)
        atomic_write_text(bug_dir / "report.json", json.dumps({
            "kind": bug.kind,
            "pc": bug.pc,
            "detail": bug.detail,
            "state_id": bug.state_id,
            "steps": bug.steps,
            "test_case": bug.test_case,
            "backtrace": backtrace,
        }, indent=1))
        if bug.hw_snapshot is not None:
            save_snapshot(bug.hw_snapshot, bug_dir / "hardware.json")
        out.append(bug_dir)
    return out


def replay_crash(finding_dir: PathLike, program: Program,
                 target: HardwareTarget,
                 max_steps: int = 200_000) -> CpuExit:
    """Reproduce a persisted finding concretely.

    Replays the test case's symbolic values on the concrete core with
    MMIO forwarded to *target*, under the analysis engine's hardware
    time: the IRQ lines are polled before each instruction and the
    hardware is clocked :data:`~repro.targets.base.CYCLES_PER_INSTRUCTION`
    cycles after it, so timer, watchdog and interrupt findings replay
    too. Returns the concrete exit (``"limit"`` after *max_steps*); a
    reproduced crash raises :class:`~repro.errors.FirmwarePanic` exactly
    like the original.
    """
    finding = pathlib.Path(finding_dir)
    data = json.loads((finding / "report.json").read_text())
    hw_path = finding / "hardware.json"
    if hw_path.exists():
        snapshot = load_snapshot(hw_path)
        # The persisted snapshot is the state AT detection; reproduction
        # starts from clean hardware and re-runs the input instead.
        target.reset()
        del snapshot  # loaded above to validate the file round-trips
    sym_values = [value for _, value in sorted(data["test_case"].items())]
    cpu = Cpu(program, mmio_read=target.read, mmio_write=target.write,
              irq_poll=lambda: any(target.irq_lines().values()),
              sym_values=sym_values)
    for _ in range(max_steps):
        exit_ = cpu.step()
        target.step(CYCLES_PER_INSTRUCTION)
        if exit_ is not None:
            return exit_
    return CpuExit("limit", pc=cpu.pc, steps=cpu.steps)

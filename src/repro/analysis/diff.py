"""Hardware snapshot diffing — the root-cause analysis aid.

Paper §III: "Snapshots can reduce the time to fix bugs by offering a
complete view of the peripheral state." In practice the first question
is *what changed*: between the last known-good snapshot and the state at
the failure, or between a passing and a failing path's hardware.

:func:`diff_snapshots` produces a structured, per-instance delta of net
values and memory words; :func:`format_diff` renders it for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.targets.base import HwSnapshot


@dataclass
class NetDelta:
    instance: str
    net: str
    before: int
    after: int


@dataclass
class MemoryDelta:
    instance: str
    memory: str
    word: int
    before: int
    after: int


@dataclass
class SnapshotDiff:
    nets: List[NetDelta] = field(default_factory=list)
    memories: List[MemoryDelta] = field(default_factory=list)
    #: Instances present in only one snapshot.
    only_before: List[str] = field(default_factory=list)
    only_after: List[str] = field(default_factory=list)

    @property
    def changed_count(self) -> int:
        return len(self.nets) + len(self.memories)

    @property
    def is_empty(self) -> bool:
        return (self.changed_count == 0 and not self.only_before
                and not self.only_after)


def diff_snapshots(before: HwSnapshot, after: HwSnapshot) -> SnapshotDiff:
    """Structured delta between two hardware snapshots."""
    diff = SnapshotDiff()
    before_names = set(before.states)
    after_names = set(after.states)
    diff.only_before = sorted(before_names - after_names)
    diff.only_after = sorted(after_names - before_names)
    for name in sorted(before_names & after_names):
        state_a = before.states[name]
        state_b = after.states[name]
        nets_a: Dict[str, int] = state_a.get("nets", {})
        nets_b: Dict[str, int] = state_b.get("nets", {})
        for net in sorted(set(nets_a) | set(nets_b)):
            va, vb = nets_a.get(net, 0), nets_b.get(net, 0)
            if va != vb:
                diff.nets.append(NetDelta(name, net, va, vb))
        mems_a = state_a.get("memories", {})
        mems_b = state_b.get("memories", {})
        for mem in sorted(set(mems_a) | set(mems_b)):
            words_a = mems_a.get(mem, [])
            words_b = mems_b.get(mem, [])
            depth = max(len(words_a), len(words_b))
            for i in range(depth):
                va = words_a[i] if i < len(words_a) else 0
                vb = words_b[i] if i < len(words_b) else 0
                if va != vb:
                    diff.memories.append(MemoryDelta(name, mem, i, va, vb))
    return diff


def format_diff(diff: SnapshotDiff, limit: int = 40) -> str:
    """Human-readable rendering of a snapshot delta."""
    if diff.is_empty:
        return "snapshots are identical"
    lines: List[str] = [f"{diff.changed_count} state element(s) differ"]
    for d in diff.nets[:limit]:
        lines.append(f"  {d.instance}.{d.net}: "
                     f"0x{d.before:x} -> 0x{d.after:x}")
    for d in diff.memories[:max(0, limit - len(diff.nets))]:
        lines.append(f"  {d.instance}.{d.memory}[{d.word}]: "
                     f"0x{d.before:x} -> 0x{d.after:x}")
    shown = min(diff.changed_count, limit)
    if shown < diff.changed_count:
        lines.append(f"  ... {diff.changed_count - shown} more")
    for name in diff.only_before:
        lines.append(f"  instance {name!r} only in the first snapshot")
    for name in diff.only_after:
        lines.append(f"  instance {name!r} only in the second snapshot")
    return "\n".join(lines)

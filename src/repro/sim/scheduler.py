"""Combinational scheduling: order comb blocks by data dependency.

A cycle-based simulator evaluates combinational logic once per delta in
dependency order (Verilator's approach) instead of re-triggering events.
This module computes that order: block ``A`` must run before block ``B``
when ``A`` writes a signal ``B`` reads. Self-dependencies (a block reading
bits of a net it partially writes) are ignored — they model latching /
read-modify-write inside one process, not an inter-block loop.

A strongly connected component of size > 1, or a true self-loop through
two blocks, means a combinational loop: rejected with
:class:`CombinationalLoopError`, as Verilator's UNOPTFLAT does.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, List

from repro.errors import CombinationalLoopError
from repro.hdl.ir import CombBlock, Design


def order_comb_blocks(design: Design) -> List[CombBlock]:
    """Topologically order the design's comb blocks; raise on loops."""
    blocks = design.comb_blocks
    writers: Dict[str, List[int]] = defaultdict(list)
    for i, block in enumerate(blocks):
        for name in block.writes:
            writers[name].append(i)
    # Edge i -> j when block i writes something block j reads.
    succ: Dict[int, set] = defaultdict(set)
    indegree = [0] * len(blocks)
    for j, block in enumerate(blocks):
        deps = set()
        for name in block.reads:
            for i in writers.get(name, ()):
                if i != j:
                    deps.add(i)
        for i in deps:
            if j not in succ[i]:
                succ[i].add(j)
                indegree[j] += 1
    queue = deque(i for i in range(len(blocks)) if indegree[i] == 0)
    order: List[int] = []
    while queue:
        i = queue.popleft()
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    if len(order) != len(blocks):
        stuck = [blocks[i].name for i in range(len(blocks))
                 if indegree[i] > 0][:8]
        raise CombinationalLoopError(
            f"combinational loop through blocks: {', '.join(stuck)}")
    return [blocks[i] for i in order]


def clock_domain(design: Design, clock_name: str) -> set:
    """Names of nets identical to *clock_name* through identity comb assigns.

    Hierarchical flattening connects a child's clock port to the parent
    clock with a glue assignment (``c0.clk = clk``). Sequential blocks deep
    in the hierarchy reference their local clock net; this closure lets the
    simulator recognise them as belonging to the stepped clock.
    """
    from repro.hdl.ir import LNet, Ref, SAssign

    aliases = {clock_name}
    changed = True
    while changed:
        changed = False
        for block in design.comb_blocks:
            if len(block.stmts) != 1:
                continue
            stmt = block.stmts[0]
            if not isinstance(stmt, SAssign):
                continue
            if not (isinstance(stmt.target, LNet) and stmt.target.hi is None):
                continue
            if not isinstance(stmt.value, Ref):
                continue
            src, dst = stmt.value.net.name, stmt.target.net.name
            if src in aliases and dst not in aliases:
                aliases.add(dst)
                changed = True
            elif dst in aliases and src not in aliases:
                aliases.add(src)
                changed = True
    return aliases


"""Forward constant propagation over a design.

:func:`constant_map` runs the whole-design forward analysis on
top of the bit lattice: inputs are unknown, every other net starts at
its reset/initial value, and processes are abstractly executed to a
fixpoint.  The result maps each net to the bits that hold the same
value at *every* observable instant — exactly the bits the lint rules
may report as provably constant.

Soundness notes:

* memories are never tracked (every read returns unknown),
* inputs (including the clock and the scan-chain pins of instrumented
  designs) are unknown, so anything externally drivable stays unknown,
* sequential updates *join* into the net's invariant — the pre-edge
  value remains observable between edges,
* a bounded widening pass guarantees termination: nets still changing
  after several sweeps are pinned to fully-unknown.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from repro.hdl import ir
from repro.opt.lattice import BitsVal, eval_expr, join, of_const, top
from repro.sim.scheduler import order_comb_blocks

#: Sweeps before still-unstable nets are widened to fully-unknown.
_WIDEN_AFTER = 12
#: Hard bound on fixpoint sweeps (widening converges well before this).
_MAX_SWEEPS = 48


# ---------------------------------------------------------------------------
# Forward constant propagation
# ---------------------------------------------------------------------------

class _AbstractExec:
    """Abstract interpreter for one process, over a shared environment."""

    def __init__(self, env: Dict[str, BitsVal], pinned: Set[str]):
        self.env = env
        self.pinned = pinned  # nets forced to stay unknown (inputs, widened)
        self.overlay: Dict[str, BitsVal] = {}

    def lookup(self, name: str) -> BitsVal:
        if name in self.overlay:
            return self.overlay[name]
        return self.env[name]

    # -- statement walk ----------------------------------------------------

    def run(self, stmts: List[ir.Stmt], updates: Dict[str, BitsVal]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ir.SAssign):
                value = eval_expr(stmt.value, self.lookup)
                self._write(stmt.target, value, updates,
                            blocking=stmt.blocking)
            elif isinstance(stmt, ir.SIf):
                cond = eval_expr(stmt.cond, self.lookup)
                if cond.known_nonzero:
                    self.run(stmt.then, updates)
                elif cond.known_zero:
                    self.run(stmt.other, updates)
                else:
                    self._run_branches([stmt.then, stmt.other], updates)
            elif isinstance(stmt, ir.SCase):
                subject = eval_expr(stmt.subject, self.lookup)
                bodies: List[List[ir.Stmt]] = []
                matched = False
                for item in stmt.items:
                    hit, maybe = _labels_match(subject, item.labels)
                    if hit:
                        bodies.append(item.body)
                        matched = True
                        break
                    if maybe:
                        bodies.append(item.body)
                if not matched:
                    bodies.append(stmt.default)
                if len(bodies) == 1:
                    self.run(bodies[0], updates)
                else:
                    self._run_branches(bodies, updates)

    def _run_branches(self, bodies: List[List[ir.Stmt]],
                      updates: Dict[str, BitsVal]) -> None:
        snapshots: List[Tuple[Dict[str, BitsVal], Dict[str, BitsVal]]] = []
        base_overlay = dict(self.overlay)
        base_updates = dict(updates)
        for body in bodies:
            self.overlay = dict(base_overlay)
            branch_updates = dict(base_updates)
            self.run(body, branch_updates)
            snapshots.append((self.overlay, branch_updates))
        # A net missing from a branch's dict was not written there: its
        # observable value is the (pre-branch, pre-edge) environment one.
        fallback = self.env.__getitem__
        self.overlay = _join_dicts([s[0] for s in snapshots],
                                   base_overlay, fallback)
        merged = _join_dicts([s[1] for s in snapshots],
                             base_updates, fallback)
        updates.clear()
        updates.update(merged)

    # -- abstract writes ---------------------------------------------------

    def _write(self, target: ir.LValue, value: BitsVal,
               updates: Dict[str, BitsVal], blocking: bool) -> None:
        if isinstance(target, ir.LConcat):
            offset = 0
            for part in reversed(target.parts):
                piece_known = (value.known >> offset) & ((1 << part.width) - 1)
                piece_value = (value.value >> offset) & piece_known
                piece = BitsVal(part.width, piece_known, piece_value)
                self._write(part, piece, updates, blocking)
                offset += part.width
            return
        store = self.overlay if blocking else updates
        if isinstance(target, ir.LNet):
            name = target.net.name
            if name in self.pinned:
                return
            current = store.get(name)
            if current is None:
                # Non-blocking partial writes merge against the pre-edge
                # value; blocking ones against the running overlay/env.
                current = (self.env[name] if not blocking
                           else self.lookup(name))
            if target.hi is None or target.lo is None:
                new = value.zext(target.net.width)
            else:
                width = target.hi - target.lo + 1
                sel = ((1 << width) - 1) << target.lo
                piece = value.zext(width)
                known = ((current.known & ~sel)
                         | ((piece.known << target.lo) & sel))
                val = ((current.value & ~sel)
                       | ((piece.value << target.lo) & sel))
                new = BitsVal(target.net.width, known & current.mask,
                              val & known & current.mask)
            store[name] = new
        elif isinstance(target, ir.LNetDyn):
            name = target.net.name
            if name in self.pinned:
                return
            current = store.get(name)
            if current is None:
                current = (self.env[name] if not blocking
                           else self.lookup(name))
            bit = value.zext(1)
            # One (unknown) bit becomes ``bit``; every bit individually is
            # either its old value or ``bit``, so join per bit.
            if bit.known:
                rep = BitsVal(current.width, current.mask,
                              current.mask if bit.value else 0)
                store[name] = join(current, rep)
            else:
                store[name] = top(current.width)
        elif isinstance(target, ir.LMem):
            pass  # memories are not tracked


def _join_dicts(dicts: List[Dict[str, BitsVal]], base: Dict[str, BitsVal],
                fallback: Callable[[str], BitsVal]) -> Dict[str, BitsVal]:
    keys: Set[str] = set()
    for d in dicts:
        keys.update(d)
    out = dict(base)
    for key in keys:
        values = []
        for d in dicts:
            if key in d:
                values.append(d[key])
            elif key in base:
                values.append(base[key])
            else:
                values.append(fallback(key))
        acc = values[0]
        for v in values[1:]:
            acc = join(acc, v)
        out[key] = acc
    return out


def _labels_match(subject: BitsVal,
                  labels: List[Tuple[int, int]]) -> Tuple[bool, bool]:
    """(definitely matches, possibly matches) for a case item's labels.

    Mirrors the interpreter: a label ``(value, care)`` hits when
    ``(subject & care) == value``.
    """
    definite = False
    possible = False
    for value, care in labels:
        conflict = (subject.value ^ value) & care & subject.known
        if conflict:
            continue  # a known subject bit contradicts the label
        possible = True
        if (care & ~subject.known) == 0:
            definite = True
    return definite, possible


def constant_map(design: ir.Design,
                 extra_unknown: Tuple[str, ...] = ()) -> Dict[str, BitsVal]:
    """Map every net to the bits provably constant at all observable
    instants.  ``extra_unknown`` pins additional nets to unknown (used
    when a caller plans to poke non-input nets)."""
    pinned = {net.name for net in design.inputs}
    pinned.update(extra_unknown)
    env: Dict[str, BitsVal] = {}
    for name, net in design.nets.items():
        if name in pinned:
            env[name] = top(net.width)
        else:
            env[name] = of_const(net.initial, net.width)

    try:
        ordered_comb = order_comb_blocks(design)
    except Exception:
        ordered_comb = list(design.comb_blocks)

    for block in design.init_blocks:
        ex = _AbstractExec(env, pinned)
        updates: Dict[str, BitsVal] = {}
        ex.run(block.stmts, updates)
        for name, value in ex.overlay.items():
            env[name] = value
        for name, value in updates.items():
            env[name] = value

    for sweep in range(_MAX_SWEEPS):
        changed: Set[str] = set()
        for block in ordered_comb:
            ex = _AbstractExec(env, pinned)
            updates = {}
            ex.run(block.stmts, updates)
            ex.overlay.update(updates)  # comb stmts are blocking anyway
            for name, value in ex.overlay.items():
                if name in pinned:
                    continue
                # The join-with-previous machinery inside branch merges
                # already accounts for not-taken paths, so a straight
                # update is sound here; still-oscillating nets are caught
                # by the widening pass below.
                if env[name] != value:
                    env[name] = value
                    changed.add(name)
        for block in design.seq_blocks:
            ex = _AbstractExec(env, pinned)
            updates = {}
            ex.run(block.stmts, updates)
            for name, value in ex.overlay.items():
                updates[name] = (join(updates[name], value)
                                 if name in updates else value)
            for name, value in updates.items():
                if name in pinned:
                    continue
                new = join(env[name], value)
                if env[name] != new:
                    env[name] = new
                    changed.add(name)
        if not changed:
            break
        if sweep >= _WIDEN_AFTER:
            for name in changed:
                env[name] = top(design.nets[name].width)
                pinned.add(name)
    return env

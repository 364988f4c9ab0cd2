"""Single-use wire fusion.

A wire driven by one continuous assignment and read from exactly one
combinational site is pure plumbing, so its defining expression is
grafted into the consumer and the intermediate net disappears from the
compiled netlist.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Type

from repro.hdl import ir

#: Refuse to graft defining expressions larger than this many nodes —
#: duplicating work is cheap, but exploding a consumer expression isn't.
_INLINE_NODE_LIMIT = 64


#: The fields of each IR node type that can hold a reference: child
#: expressions, lvalues, statements, case items, or lists of them.
_CHILD_FIELDS: Dict[Type[Any], Tuple[str, ...]] = {
    ir.Unary: ("operand",), ir.Binary: ("left", "right"),
    ir.Ternary: ("cond", "then", "other"), ir.Concat: ("parts",),
    ir.Slice: ("value",), ir.DynBit: ("value", "index"),
    ir.MemRead: ("index",), ir.LNetDyn: ("index",), ir.LMem: ("index",),
    ir.LConcat: ("parts",), ir.SAssign: ("target", "value"),
    ir.SIf: ("cond", "then", "other"),
    ir.SCase: ("subject", "items", "default"), ir.SCaseItem: ("body",),
}


def _graft(node: Any, ref: ir.Ref, replacement: ir.Expr) -> Any:
    """*node* with the expression node *ref* (by identity) replaced.

    Only the nodes on the path down to *ref* are copied; every other
    subtree is shared, and *node* itself comes back when *ref* is not
    below it. Nothing is mutated.
    """
    if node is ref:
        return replacement
    if isinstance(node, list):
        items = [_graft(item, ref, replacement) for item in node]
        if any(new is not old for new, old in zip(items, node)):
            return items
        return node
    grafted = node
    for name in _CHILD_FIELDS.get(type(node), ()):
        child = getattr(node, name)
        new = _graft(child, ref, replacement)
        if new is not child:
            if grafted is node:
                grafted = copy.copy(node)
            setattr(grafted, name, new)
    return grafted


@dataclass(eq=False)
class _Slot:
    """One comb block's place in the design; ``block`` follows it as
    grafts replace it, and is None once it was fused away."""

    block: Optional[ir.CombBlock]


@dataclass(eq=False)
class _Site:
    """One reference to a net: the Ref node and the comb block holding
    it (None when a sequential or initial process holds it)."""

    slot: Optional[_Slot]
    ref: ir.Ref


def _nodes(node: Any) -> Iterator[Any]:
    """Every IR node under *node* — a statement list, statement, lvalue
    or expression — with shared subtrees once per occurrence."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
            continue
        yield node
        stack.extend(getattr(node, name)
                     for name in _CHILD_FIELDS.get(type(node), ()))


def _refs(node: Any) -> Iterator[ir.Ref]:
    return (sub for sub in _nodes(node) if isinstance(sub, ir.Ref))


def _index(design: ir.Design) -> Tuple[List[_Slot],
                                        Dict[str, List[Optional[_Slot]]],
                                        Dict[str, List[_Site]]]:
    """One pass over *design*: a slot per comb block, the writers of
    each net (None for a sequential or initial writer) and every
    reference site of each net."""
    slots = [_Slot(block) for block in design.comb_blocks]
    writers: Dict[str, List[Optional[_Slot]]] = {}
    processes: List[Tuple[Optional[_Slot], List[ir.Stmt]]] = []
    for slot, block in zip(slots, design.comb_blocks):
        for name in block.writes:
            writers.setdefault(name, []).append(slot)
        processes.append((slot, block.stmts))
    for other in (*design.seq_blocks, *design.init_blocks):
        for name in ir.stmt_reads_writes(other.stmts)[1]:
            writers.setdefault(name, []).append(None)
        processes.append((None, other.stmts))
    sites: Dict[str, List[_Site]] = {}
    for holder, stmts in processes:
        for ref in _refs(stmts):
            sites.setdefault(ref.net.name, []).append(_Site(holder, ref))
    return slots, writers, sites


def inline_single_use_wires(design: ir.Design,
                            protected: Set[str]) -> List[str]:
    """Fuse single-writer, single-reader wires into their consumers.

    Drops each fused net and its producer from *design*'s net map and
    comb-block list, and returns the fused names. Blocks, statements and
    expressions are never mutated: a consumer is replaced by a copy
    rebuilt along the path to the grafted reference, so *design* may
    share its processes with other designs. Only wires whose sole
    driver is a one-statement full-width continuous assignment, and
    whose sole reference sits in another combinational block, are
    considered.

    Each round indexes every writer and reference site once and keeps
    the index current across grafts: the grafted expression's
    references move from the producer to the consumer, and no count
    changes, because the expression moved rather than vanished.
    """
    inlined: List[str] = []
    for _ in range(16):  # chains resolve over a few passes
        progress = False
        slots, writers, sites = _index(design)
        for name, net in list(design.nets.items()):
            if name in protected:
                continue
            written_by = writers.get(name, [])
            producer_slot = written_by[0] if len(written_by) == 1 else None
            if producer_slot is None:
                continue
            producer = producer_slot.block
            if producer is None or len(producer.stmts) != 1:
                continue
            stmt = producer.stmts[0]
            if not (isinstance(stmt, ir.SAssign)
                    and isinstance(stmt.target, ir.LNet)
                    and stmt.target.net.name == name
                    and stmt.target.hi is None):
                continue
            if sum(1 for _ in _nodes(stmt.value)) > _INLINE_NODE_LIMIT:
                continue
            read_at = sites.get(name, [])
            if len(read_at) != 1:
                continue
            consumer_slot = read_at[0].slot
            if consumer_slot is None or consumer_slot is producer_slot:
                continue
            consumer = consumer_slot.block
            assert consumer is not None
            replacement = stmt.value
            if replacement.width != net.width:
                # Reads see the stored (masked) value; a slice reproduces
                # both the truncation and the zero extension.
                replacement = ir.Slice(replacement, net.width - 1, 0,
                                       width=net.width)
            stmts: List[ir.Stmt] = _graft(consumer.stmts, read_at[0].ref,
                                          replacement)
            reads, writes = ir.stmt_reads_writes(stmts)
            consumer_slot.block = replace(
                consumer, stmts=stmts, reads=frozenset(reads),
                writes=frozenset(writes))
            producer_slot.block = None
            for moved in _refs(stmt.value):
                for site in sites[moved.net.name]:
                    if site.ref is moved and site.slot is producer_slot:
                        site.slot = consumer_slot
            del design.nets[name]
            inlined.append(name)
            progress = True
        design.comb_blocks = [slot.block for slot in slots
                              if slot.block is not None]
        if not progress:
            break
    return inlined

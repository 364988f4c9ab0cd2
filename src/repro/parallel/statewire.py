"""Delta-encoded software-state wire: ExecState without the full pickle.

HardSnap ships *hardware* state incrementally — only the scan-chain
bits that changed cross the boundary — and :mod:`repro.parallel.wire`
reproduced that for snapshots. This module does the same for the
*software* half of a lease, which until now crossed the pool boundary
as a full ``pickle.dumps(ExecState)``: every COW memory page, the whole
constraint list, and re-pickled BitVec DAGs, per lease.

The codec exploits three structural facts:

* :class:`~repro.vm.memory.SymbolicMemory` is paged copy-on-write — a
  page shared between forks is never mutated in place, so pages are
  content-addressable and the endpoint's
  :class:`~repro.parallel.wire.ContentPool` (shared with its
  :class:`~repro.parallel.wire.ChunkChannel`) lets a lease ship only
  the pages its peer has not seen: everything else travels as a
  16-byte digest reference.
* ``constraints`` is **append-only along the lineage tree** — a state's
  list extends its fork ancestors'. Each endpoint keeps a per-peer
  **base registry** (lineage → last-shipped constraint list, grown
  symmetrically on send and receive, so both sides agree without a
  handshake); a ship names its nearest registered ancestor and carries
  only ``constraints[k:]``, where ``k`` is the verified identity-prefix
  length (guarded by an 8-byte checksum over canonical expression
  hashes — a registry mismatch fails loudly, it cannot corrupt
  verdicts).
* BitVec nodes are hash-consed — shared DAG nodes are *identical*
  objects. A per-peer, per-direction **expression table** assigns each
  node a u32 id the first time it crosses to a peer; constraint
  suffixes and symbolic registers then serialize new nodes once
  (topologically, opcode + width + arg ids) and repeats as ids.

Registers, pc and flags travel as a small fixed struct. Everything is
deterministic: both directions of every peer conversation see messages
in a single total order (one batch in flight per worker), so sender and
receiver tables stay in lock-step without acknowledgements.

**Fallback rules.** ``KIND_FULL`` records (a plain pickle) are emitted
only when delta encoding is disabled (``--no-delta-state``, the
measurement baseline). They still warm both registries symmetrically.
A peer whose process died is forgotten (:meth:`StateWire.forget_peer`):
its registries and its set in the endpoint's
:class:`~repro.parallel.wire.ContentPool` go, so the next delta record
to its successor names no base and ships every page body — it refers
to no earlier message. A delta record that references an unknown page
or base is a protocol violation and raises
:class:`~repro.errors.SnapshotIntegrityError` — decode never guesses.

Page bodies returned by :meth:`StateWire.encode_state` ride the same
envelope as the record (:mod:`repro.parallel.envelope`), pickled next
to it like hardware snapshot chunks.
"""

from __future__ import annotations

import pickle
import struct
from collections import OrderedDict, deque
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.counters import Counters
from repro.errors import SnapshotIntegrityError
from repro.parallel.wire import ContentPool
from repro.solver import expr as E
from repro.vm.memory import SymbolicMemory
from repro.vm.state import TRACE_DEPTH, ExecState

#: State-record kinds (the u8 tag the envelope layer writes).
KIND_NONE = 0    # no state payload (root lease)
KIND_FULL = 1    # pickle.dumps(ExecState) — self-contained fallback
KIND_DELTA = 2   # packed delta record + content-addressed page bodies

_PICKLE = pickle.HIGHEST_PROTOCOL

#: The package's scalar wire formats (little-endian), shared with
#: :mod:`repro.parallel.envelope`.
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
#: Fixed numeric header: pc, state_id, parent_id, steps, depth,
#: fork_count, irq_return_pc, mem_size, code_limit, flags.
_HEADER = struct.Struct("<IQQQIIIIIB")

_FLAG_IRQ_ENABLED = 1
_FLAG_IN_IRQ = 2
_FLAG_CODE_CLEAN = 4

#: Opcode table for the expression wire. Append-only — the numeric
#: codes are part of the (per-run, both-ends-same-version) protocol.
_OPS: Tuple[str, ...] = (
    E.CONST, E.VAR, E.ADD, E.SUB, E.MUL, E.UDIV, E.UREM, E.AND, E.OR,
    E.XOR, E.NOT, E.NEG, E.SHL, E.LSHR, E.ASHR, E.CONCAT, E.EXTRACT,
    E.ZEXT, E.SEXT, E.EQ, E.ULT, E.ULE, E.SLT, E.SLE, E.ITE)
_OP_CODE: Dict[str, int] = {op: i for i, op in enumerate(_OPS)}


class _Cursor:
    """Sequential reader over a memoryview: state records here, batch
    envelopes in :mod:`repro.parallel.envelope`."""

    __slots__ = ("mv", "pos")

    def __init__(self, buf) -> None:
        self.mv = memoryview(buf)
        self.pos = 0

    def _take(self, fmt: struct.Struct):
        value, = fmt.unpack_from(self.mv, self.pos)
        self.pos += fmt.size
        return value

    def u8(self) -> int:
        return self._take(_U8)

    def u16(self) -> int:
        return self._take(_U16)

    def u32(self) -> int:
        return self._take(_U32)

    def u64(self) -> int:
        return self._take(_U64)

    def i64(self) -> int:
        return self._take(_I64)

    def f64(self) -> float:
        return self._take(_F64)

    def read(self, n: int) -> bytes:
        data = bytes(self.mv[self.pos:self.pos + n])
        self.pos += n
        return data

    def blob(self) -> bytes:
        return self.read(self.u32())

    def text(self) -> str:
        return self.read(self.u16()).decode("utf-8")

    def obj(self) -> Any:
        return pickle.loads(self.blob())


@dataclass
class StateWireStats(Counters):
    """Per-endpoint software-state transfer accounting (summed over
    peers)."""

    states_sent: int = 0
    states_received: int = 0
    #: States shipped as self-contained pickles (fallback path).
    full_states: int = 0
    #: States shipped as delta records.
    delta_states: int = 0
    #: Encoded bytes by kind — the before/after of this codec.
    state_bytes_full: int = 0
    state_bytes_delta: int = 0
    #: Memory pages shipped as bodies vs. resolved by reference.
    pages_shipped: int = 0
    pages_referenced: int = 0
    page_bytes_shipped: int = 0
    #: Constraint counts: total across shipped states vs. suffix
    #: entries actually serialized (the rest travelled as a base ref).
    constraints_total: int = 0
    constraints_suffix: int = 0
    #: Expression nodes newly serialized vs. repeated as table ids.
    expr_nodes_sent: int = 0
    expr_nodes_reused: int = 0

    @property
    def delta_ratio(self) -> float:
        """Mean full-pickle bytes over mean delta bytes per state
        (≥ 1 when the codec wins). Finite for JSON artifacts."""
        if not self.delta_states or not self.state_bytes_delta:
            return 1.0
        mean_delta = self.state_bytes_delta / self.delta_states
        if not self.full_states:
            return 1.0
        mean_full = self.state_bytes_full / self.full_states
        return mean_full / mean_delta

    def as_dict(self) -> Dict[str, Any]:
        out = super().as_dict()
        out["delta_ratio"] = round(self.delta_ratio, 3)
        return out


class _PeerCtx:
    """One peer conversation's registries (per direction where order
    matters: the expression tables count nodes in message order)."""

    __slots__ = ("bases", "expr_out", "expr_in")

    def __init__(self) -> None:
        #: lineage → last constraint list that crossed this boundary
        #: (either direction — both ends register the same events in
        #: the same order). Entries are O(pointer-list); unbounded per
        #: campaign by design: a campaign's lineage count is its path
        #: count, and each entry shares its BitVec nodes with the
        #: states themselves.
        self.bases: Dict[Tuple[int, ...], List[E.BitVec]] = {}
        #: Nodes we have serialized *to* this peer, → their table id.
        self.expr_out: Dict[E.BitVec, int] = {}
        #: Nodes received *from* this peer, indexed by table id.
        self.expr_in: List[E.BitVec] = []


class StateWire:
    """One endpoint's software-state codec for all its peers. Page
    bodies (live page lists) live in the endpoint's
    :class:`~repro.parallel.wire.ContentPool` (a private one when none
    is given)."""

    #: Page-digest cache bound (id(page) → digest; holds the page
    #: alive so ids cannot be recycled under it).
    DIGEST_CACHE_CAP = 16384
    #: Canonical expression-hash cache bound.
    EXPR_HASH_CACHE_CAP = 65536

    def __init__(self, delta: bool = True,
                 pool: Optional[ContentPool] = None) -> None:
        #: When False every state ships as ``KIND_FULL`` (the
        #: ``--no-delta-state`` baseline the benchmarks compare against).
        self.delta = delta
        self.pool = pool if pool is not None else ContentPool()
        self.peers: Dict[object, _PeerCtx] = {}
        self.stats = StateWireStats()
        self._page_digests: "OrderedDict[int, Tuple[list, str]]" = \
            OrderedDict()
        self._expr_hashes: Dict[int, Tuple[E.BitVec, bytes]] = {}

    def _ctx(self, peer: object) -> _PeerCtx:
        ctx = self.peers.get(peer)
        if ctx is None:
            ctx = self.peers[peer] = _PeerCtx()
        return ctx

    # -- canonical content hashes -------------------------------------------

    def _expr_hash(self, node: E.BitVec) -> bytes:
        """Canonical 8-byte content hash of an expression DAG node —
        deterministic across processes (unlike ``pickle.dumps``, whose
        memo layout depends on object history), so page digests and
        base checksums computed by different endpoints always agree."""
        cache = self._expr_hashes
        hit = cache.get(id(node))
        if hit is not None:
            return hit[1]
        if len(cache) > self.EXPR_HASH_CACHE_CAP:
            cache.clear()
        stack = [node]
        while stack:
            n = stack.pop()
            if id(n) in cache:
                continue
            missing = [a for a in n.args if id(a) not in cache]
            if missing:
                stack.append(n)
                stack.extend(missing)
                continue
            h = blake2b(digest_size=8)
            h.update(n.op.encode("ascii"))
            h.update(_U32.pack(n.width))
            if n.value is not None:
                h.update(b"v")
                h.update(n.value.to_bytes(
                    (n.value.bit_length() + 7) // 8 or 1, "little"))
            if n.name is not None:
                h.update(b"n" + n.name.encode("utf-8"))
            for a in n.args:
                h.update(cache[id(a)][1])
            cache[id(n)] = (n, h.digest())
        return cache[id(node)][1]

    def _page_digest(self, page: list) -> str:
        """Content digest of one memory page (hex, 32 chars). Cached by
        object identity: a page list reachable from two holders is
        never mutated in place (COW), and the cache keeps the list
        alive so its id cannot be recycled."""
        cache = self._page_digests
        hit = cache.get(id(page))
        if hit is not None:
            cache.move_to_end(id(page))
            return hit[1]
        h = blake2b(digest_size=16)
        if all(type(v) is int for v in page):
            h.update(b"i")
            h.update(bytes(page))
        else:
            h.update(b"s")
            for v in page:
                if isinstance(v, int):
                    h.update(b"\x00" + _U8.pack(v))
                else:
                    h.update(b"\x01" + self._expr_hash(v))
        digest = h.hexdigest()
        cache[id(page)] = (page, digest)
        while len(cache) > self.DIGEST_CACHE_CAP:
            cache.popitem(last=False)
        return digest

    @staticmethod
    def _page_body(page: list) -> bytes:
        """Serialized page body: raw bytes for all-concrete pages
        (the common case — firmware image, data, stack), pickle for
        pages holding symbolic bytes."""
        if all(type(v) is int for v in page):
            return b"i" + bytes(page)
        return b"s" + pickle.dumps(page, protocol=_PICKLE)

    @staticmethod
    def _decode_page(body: bytes) -> list:
        if body[:1] == b"i":
            return list(body[1:])
        return pickle.loads(body[1:])

    def forget_peer(self, peer: object) -> None:
        """The peer's process died (respawn/degrade): its registries
        and its content pool died with it."""
        self.peers.pop(peer, None)
        self.pool.forget_peer(peer)

    # -- ancestor selection --------------------------------------------------

    @staticmethod
    def _best_base(ctx: _PeerCtx, state: ExecState
                   ) -> Tuple[Optional[Tuple[int, ...]], int]:
        """Longest registered lineage-prefix whose constraint list is a
        verified identity-prefix of the state's. Verification by ``is``
        is exact (hash-consing makes identity structural equality), and
        necessary: a parent keeps appending constraints after forking,
        so the registry's entry for an ancestor lineage may have grown
        past the point the fork shares."""
        best_lineage: Optional[Tuple[int, ...]] = None
        best_k = 0
        cons = state.constraints
        lineage = state.lineage
        for cut in range(len(lineage), -1, -1):
            cand = ctx.bases.get(lineage[:cut])
            if not cand:
                continue
            limit = min(len(cand), len(cons))
            k = 0
            while k < limit and cand[k] is cons[k]:
                k += 1
            if k > best_k:
                best_lineage, best_k = lineage[:cut], k
            if k == len(cons):
                break
        return best_lineage, best_k

    def _base_checksum(self, base: List[E.BitVec], k: int) -> bytes:
        h = blake2b(digest_size=8)
        for c in base[:k]:
            h.update(self._expr_hash(c))
        return h.digest()

    # -- expression table ----------------------------------------------------

    def _encode_exprs(self, roots: List[E.BitVec], ctx: _PeerCtx,
                      out: List[bytes]) -> List[int]:
        """Serialize every node of *roots* not yet in the peer's table
        (topological order, new nodes get the next ids) and return the
        root ids."""
        expr_out = ctx.expr_out
        new_nodes: List[E.BitVec] = []
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in expr_out:
                continue
            missing = [a for a in n.args if a not in expr_out]
            if missing:
                stack.append(n)
                stack.extend(missing)
                continue
            expr_out[n] = len(expr_out)
            new_nodes.append(n)
        out.append(_U32.pack(len(new_nodes)))
        for n in new_nodes:
            out.append(_U8.pack(_OP_CODE[n.op]))
            out.append(_U32.pack(n.width))
            if n.op == E.CONST:
                out.append(n.value.to_bytes((n.width + 7) // 8, "little"))
            elif n.op == E.VAR:
                name = n.name.encode("utf-8")
                out.append(_U16.pack(len(name)))
                out.append(name)
            elif n.op == E.EXTRACT:
                out.append(_U32.pack(n.value))
                out.append(_U32.pack(expr_out[n.args[0]]))
            else:
                out.append(_U8.pack(len(n.args)))
                for a in n.args:
                    out.append(_U32.pack(expr_out[a]))
        self.stats.expr_nodes_sent += len(new_nodes)
        new_set = set(new_nodes)
        self.stats.expr_nodes_reused += sum(
            1 for r in roots if r not in new_set)
        return [expr_out[r] for r in roots]

    @staticmethod
    def _decode_exprs(rd: _Cursor, ctx: _PeerCtx) -> None:
        """Mirror of :meth:`_encode_exprs`: append the peer's new nodes
        to our receive table. Reconstruction goes through ``E._intern``
        directly — the same reconstructor ``BitVec.__reduce__`` uses —
        NOT the builder functions, whose constant folding could
        re-simplify a node and break byte-identity."""
        table = ctx.expr_in
        for _ in range(rd.u32()):
            op = _OPS[rd.u8()]
            width = rd.u32()
            if op == E.CONST:
                value = int.from_bytes(rd.read((width + 7) // 8), "little")
                node = E._intern(op, width, value=value)
            elif op == E.VAR:
                node = E._intern(op, width, name=rd.text())
            elif op == E.EXTRACT:
                value = rd.u32()
                node = E._intern(op, width, (table[rd.u32()],), value=value)
            else:
                args = tuple(table[rd.u32()] for _ in range(rd.u8()))
                node = E._intern(op, width, args)
            table.append(node)

    # -- registry warming (full records) -------------------------------------

    def _warm_from_state(self, peer: object, state: ExecState) -> None:
        """Register a full-pickled state's pages and constraint list as
        if they had crossed as a delta. Called symmetrically by the
        KIND_FULL encode and decode paths, so a full ship still warms
        both registries."""
        for page in state.memory._pages.values():
            self.pool.share(peer, self._page_digest(page), page)
        self._ctx(peer).bases[state.lineage] = list(state.constraints)

    # -- encode --------------------------------------------------------------

    def encode_state(self, state: ExecState, peer: object
                     ) -> Tuple[int, bytes, Dict[str, bytes]]:
        """Encode *state* for *peer*. Returns ``(kind, record,
        page_bodies)``; ``page_bodies`` maps page digests to serialized
        bodies the peer is missing (empty for ``KIND_FULL``) — the
        caller packs them next to the record.

        The state's ``hw_snapshot`` must already be detached (hardware
        travels separately as a :class:`SnapshotWire`)."""
        self.stats.states_sent += 1
        if not self.delta:
            record = pickle.dumps(state, protocol=_PICKLE)
            self._warm_from_state(peer, state)
            self.stats.full_states += 1
            self.stats.state_bytes_full += len(record)
            return KIND_FULL, record, {}

        ctx = self._ctx(peer)
        pool = self.pool
        mem = state.memory
        out: List[bytes] = []
        flags = ((_FLAG_IRQ_ENABLED if state.irq_enabled else 0)
                 | (_FLAG_IN_IRQ if state.in_irq else 0)
                 | (_FLAG_CODE_CLEAN if mem.code_clean else 0))
        out.append(_HEADER.pack(
            state.pc, state.state_id, state.parent_id, state.steps,
            state.depth, state.fork_count, state.irq_return_pc,
            mem.size, mem.code_limit, flags))
        rest = pickle.dumps(
            (state.status, state.irq_handler, state.halt_code, state.error,
             state.lineage, state.trace_marks, list(state.recent_pcs),
             mem.image_digest), protocol=_PICKLE)
        out.append(_U32.pack(len(rest)))
        out.append(rest)

        # Dirty pages: refs for everything the peer holds, bodies only
        # for the rest (packed next to the record).
        bodies: Dict[str, bytes] = {}
        pages = sorted(mem._pages.items())
        out.append(_U32.pack(len(pages)))
        for page_no, page in pages:
            digest = self._page_digest(page)
            out.append(_U32.pack(page_no))
            out.append(bytes.fromhex(digest))
            if pool.holds(peer, digest):
                self.stats.pages_referenced += 1
            else:
                body = self._page_body(page)
                bodies[digest] = body
                self.stats.pages_shipped += 1
                self.stats.page_bytes_shipped += len(body)
                pool.share(peer, digest, page)

        # Constraint suffix beyond the nearest registered ancestor.
        base_lineage, k = self._best_base(ctx, state)
        suffix = state.constraints[k:]
        sym_regs = [(i, r) for i, r in enumerate(state.regs)
                    if not isinstance(r, int)]
        root_ids = self._encode_exprs(
            list(suffix) + [r for _, r in sym_regs], ctx, out)
        suffix_ids = root_ids[:len(suffix)]
        reg_ids = root_ids[len(suffix):]
        if base_lineage is None:
            out.append(_U8.pack(0))
        else:
            out.append(_U8.pack(1))
            out.append(_U16.pack(len(base_lineage)))
            for ordinal in base_lineage:
                out.append(_U32.pack(ordinal))
            out.append(_U32.pack(k))
            out.append(self._base_checksum(ctx.bases[base_lineage], k))
        out.append(_U32.pack(len(suffix_ids)))
        for i in suffix_ids:
            out.append(_U32.pack(i))

        # Registers: u8 tag (0 = concrete u32, 1 = expr-table id).
        out.append(_U8.pack(len(state.regs)))
        reg_iter = iter(reg_ids)
        for r in state.regs:
            if isinstance(r, int):
                out.append(_U8.pack(0))
                out.append(_U32.pack(r))
            else:
                out.append(_U8.pack(1))
                out.append(_U32.pack(next(reg_iter)))

        # Register *after* ancestor selection (a state may be its own
        # best base's refresh); symmetric with decode.
        ctx.bases[state.lineage] = list(state.constraints)
        record = b"".join(out)
        self.stats.delta_states += 1
        self.stats.state_bytes_delta += (
            len(record) + sum(len(b) for b in bodies.values()))
        self.stats.constraints_total += len(state.constraints)
        self.stats.constraints_suffix += len(suffix)
        return KIND_DELTA, record, bodies

    # -- decode --------------------------------------------------------------

    def decode_state(self, kind: int, record: bytes,
                     bodies: Dict[str, bytes], peer: object) -> ExecState:
        """Rebuild an ExecState from a record (and the page bodies
        that travelled with it). Byte-identical to the encoder's input:
        ``pickle.dumps(decoded) == pickle.dumps(original)``."""
        self.stats.states_received += 1
        if kind == KIND_FULL:
            state: ExecState = pickle.loads(record)
            self._warm_from_state(peer, state)
            return state
        if kind != KIND_DELTA:
            raise SnapshotIntegrityError(
                f"unknown state record kind {kind!r}")

        ctx = self._ctx(peer)
        pool = self.pool
        rd = _Cursor(record)
        (pc, state_id, parent_id, steps, depth, fork_count, irq_return_pc,
         mem_size, code_limit, flags) = _HEADER.unpack_from(record, 0)
        rd.pos = _HEADER.size
        (status, irq_handler, halt_code, error, lineage, trace_marks,
         recent_pcs, image_digest) = rd.obj()

        mem_pages: Dict[int, list] = {}
        used_ids: Set[int] = set()
        for _ in range(rd.u32()):
            page_no = rd.u32()
            digest = rd.read(16).hex()
            body = bodies.get(digest)
            if body is not None:
                page = self._decode_page(body)
                if self._page_digest(page) != digest:
                    raise SnapshotIntegrityError(
                        f"page {page_no} body does not match its "
                        f"digest {digest}")
            else:
                page = pool.bodies.get(digest)
                if page is None:
                    raise SnapshotIntegrityError(
                        f"state delta references unknown page {digest} "
                        f"(page {page_no}); sender/receiver page pools "
                        f"diverged")
            pool.share(peer, digest, page)
            if id(page) in used_ids:
                # Two page slots with equal content resolved to one
                # pool object. An executed memory never aliases its own
                # slots (COW creates fresh lists), so copy to keep the
                # decoded pickle byte-identical to the original's.
                page = list(page)
            used_ids.add(id(page))
            mem_pages[page_no] = page

        self._decode_exprs(rd, ctx)
        table = ctx.expr_in
        constraints: List[E.BitVec] = []
        if rd.u8():
            base_lineage = tuple(rd.u32() for _ in range(rd.u16()))
            k = rd.u32()
            checksum = rd.read(8)
            base = ctx.bases.get(base_lineage)
            if base is None or len(base) < k:
                raise SnapshotIntegrityError(
                    f"state delta references unknown constraint base "
                    f"{base_lineage} (k={k}); registry is cold — the "
                    f"sender should have fallen back to a full pickle")
            if self._base_checksum(base, k) != checksum:
                raise SnapshotIntegrityError(
                    f"constraint base {base_lineage}[:{k}] checksum "
                    f"mismatch; sender/receiver registries diverged")
            constraints.extend(base[:k])
        for _ in range(rd.u32()):
            constraints.append(table[rd.u32()])

        regs: List[Any] = []
        for _ in range(rd.u8()):
            tag = rd.u8()
            value = rd.u32()
            regs.append(value if tag == 0 else table[value])

        mem = SymbolicMemory.__new__(SymbolicMemory)
        mem.size = mem_size
        mem._pages = mem_pages
        mem._owned = set()
        mem.image_digest = image_digest
        mem.code_limit = code_limit
        mem.code_clean = bool(flags & _FLAG_CODE_CLEAN)

        state = ExecState(
            memory=mem, pc=pc, regs=regs, constraints=constraints,
            status=status, hw_snapshot=None,
            irq_enabled=bool(flags & _FLAG_IRQ_ENABLED),
            irq_handler=irq_handler,
            in_irq=bool(flags & _FLAG_IN_IRQ),
            irq_return_pc=irq_return_pc, state_id=state_id,
            parent_id=parent_id, depth=depth, steps=steps,
            lineage=lineage, fork_count=fork_count, halt_code=halt_code,
            error=error, trace_marks=trace_marks,
            recent_pcs=deque(recent_pcs, maxlen=TRACE_DEPTH))
        ctx.bases[lineage] = list(constraints)
        return state


__all__ = ["StateWire", "StateWireStats",
           "KIND_NONE", "KIND_FULL", "KIND_DELTA"]

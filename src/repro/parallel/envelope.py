"""Packed binary job envelopes for the batch protocol.

One ``mp.Queue`` message used to carry one pickled job dict per lease or
fuzz shard. This module replaces that with struct-packed **batch**
envelopes: little-endian framed headers, length-prefixed bodies read
through ``memoryview`` slices (no intermediate copies on the decode
path), and pickle confined to the payloads that are genuinely Python
objects (execution states, chunk bodies, stats dataclasses). The
reader and the scalar formats are the ones the state records use
(:mod:`repro.parallel.statewire`).

Software states travel as :mod:`~repro.parallel.statewire` records —
a u8 kind (full pickle or delta), the packed record, and for deltas
the missing page bodies.

Snapshot wires are packed field-by-field (refs table, method, bits)
with their chunk bodies pickled inline. The receiving side reassembles
a :class:`SnapshotWire` whose bodies then pass through
``ChunkChannel.absorb``'s digest verification: the envelope changes how
bytes travel, not what is trusted.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.persistence import SnapshotWire
from repro.parallel.statewire import (_F64, _I64, _U8, _U16, _U32, _U64,
                                      KIND_DELTA, _Cursor)

#: The two worker-time floats at the head of every result envelope.
_STAMPS = struct.Struct("<dd")

_PICKLE = pickle.HIGHEST_PROTOCOL


def _put_blob(out: List[bytes], data: bytes) -> None:
    out.append(_U32.pack(len(data)))
    out.append(data)


def _put_text(out: List[bytes], text: str) -> None:
    data = text.encode("utf-8")
    out.append(_U16.pack(len(data)))
    out.append(data)


def _put_obj(out: List[bytes], obj: Any) -> None:
    _put_blob(out, pickle.dumps(obj, protocol=_PICKLE))


# -- snapshot wires ----------------------------------------------------------

def _put_wire(out: List[bytes], wire: SnapshotWire) -> None:
    """Pack *wire*: the refs table field by field, the chunk bodies as
    one pickled dict."""
    _put_text(out, wire.method)
    out.append(_U64.pack(wire.bits))
    out.append(_U32.pack(len(wire.refs)))
    for name, (digest, cycle, bits) in wire.refs.items():
        _put_text(out, name)
        _put_text(out, digest)
        out.append(_U64.pack(cycle))
        out.append(_U64.pack(bits))
    _put_obj(out, wire.chunks)


def _read_wire(cur: _Cursor) -> SnapshotWire:
    method = cur.text()
    bits = cur.u64()
    refs = {}
    for _ in range(cur.u32()):
        name = cur.text()
        digest = cur.text()
        cycle = cur.u64()
        ref_bits = cur.u64()
        refs[name] = (digest, cycle, ref_bits)
    return SnapshotWire(refs=refs, chunks=cur.obj(), method=method,
                        bits=bits)


def _put_state_record(out: List[bytes], kind: int, record: bytes,
                      bodies: Dict[str, bytes]) -> None:
    """One software-state record: u8 kind, record blob, and (delta
    kind only) the pickled page bodies the peer lacks."""
    out.append(_U8.pack(kind))
    _put_blob(out, record)
    if kind == KIND_DELTA:
        _put_obj(out, bodies)


def _read_state_record(cur: _Cursor) -> Tuple[int, bytes, Dict[str, bytes]]:
    kind = cur.u8()
    record = cur.blob()
    bodies: Dict[str, bytes] = cur.obj() if kind == KIND_DELTA else {}
    return kind, record, bodies


def _put_shipped(out: List[bytes],
                 shipped: Tuple[int, bytes, Dict[str, bytes], SnapshotWire]
                 ) -> None:
    kind, record, bodies, wire = shipped
    _put_state_record(out, kind, record, bodies)
    _put_wire(out, wire)


def _read_shipped(cur: _Cursor
                  ) -> Tuple[int, bytes, Dict[str, bytes], SnapshotWire]:
    kind, record, bodies = _read_state_record(cur)
    return kind, record, bodies, _read_wire(cur)


# -- lease batches (coordinator -> worker) -----------------------------------

def pack_lease_batch(leases: Sequence[Dict[str, Any]], peer: object,
                     statewire=None) -> bytes:
    """Each lease: ``{budget, sym_base, state: ExecState|None,
    wire: SnapshotWire|None}``, the wire already addressed to *peer*.
    Live states are encoded *here* — at pack time — through
    *statewire* (required unless every lease is a root lease) against
    *peer*'s registries, so a re-pack after a respawn re-encodes
    against the fresh peer context."""
    out: List[bytes] = [_U32.pack(len(leases))]
    for lease in leases:
        out.append(_U64.pack(lease["budget"]))
        out.append(_U64.pack(lease["sym_base"]))
        state = lease["state"]
        if state is None:
            out.append(_U8.pack(0))
            continue
        kind, record, bodies = statewire.encode_state(state, peer)
        _put_state_record(out, kind, record, bodies)
        _put_wire(out, lease["wire"])
    return b"".join(out)


def unpack_lease_batch(buf) -> List[Dict[str, Any]]:
    cur = _Cursor(buf)
    leases = []
    for _ in range(cur.u32()):
        lease: Dict[str, Any] = {"budget": cur.u64(),
                                 "sym_base": cur.u64()}
        kind = cur.u8()
        if kind:
            cur.pos -= 1
            kind, record, bodies = _read_state_record(cur)
            lease["state"] = record
            lease["state_kind"] = kind
            lease["state_chunks"] = bodies
            lease["wire"] = _read_wire(cur)
        else:
            lease["state"] = None
            lease["state_kind"] = 0
            lease["state_chunks"] = {}
            lease["wire"] = None
        leases.append(lease)
    return leases


# -- lease results (worker -> coordinator) -----------------------------------

def pack_lease_results(results: Sequence[Dict[str, Any]],
                       encode_s: float = 0.0,
                       decode_s: float = 0.0) -> bytes:
    """Each result is one ``EngineWorker.run_lease`` dict; shipped
    states (continuation + children) are packed as
    (kind, record, page bodies, wire) tuples, everything else rides as
    one pickled meta blob.

    The two timing floats sit at offset 0 so the sender can
    :func:`stamp_encode_time` *after* packing (the pack time is only
    known once packing finished)."""
    out: List[bytes] = []
    out.append(_F64.pack(encode_s))
    out.append(_F64.pack(decode_s))
    out.append(_U32.pack(len(results)))
    for res in results:
        meta = {k: v for k, v in res.items()
                if k not in ("continuation", "children")}
        _put_obj(out, meta)
        continuation = res["continuation"]
        if continuation is None:
            out.append(_U8.pack(0))
        else:
            out.append(_U8.pack(1))
            _put_shipped(out, continuation)
        children = res["children"]
        out.append(_U32.pack(len(children)))
        for child in children:
            _put_shipped(out, child)
    return b"".join(out)


def unpack_lease_results(buf) -> Tuple[float, float, List[Dict[str, Any]]]:
    cur = _Cursor(buf)
    encode_s = cur.f64()
    decode_s = cur.f64()
    results = []
    for _ in range(cur.u32()):
        res = cur.obj()
        res["continuation"] = _read_shipped(cur) if cur.u8() else None
        res["children"] = [_read_shipped(cur) for _ in range(cur.u32())]
        results.append(res)
    return encode_s, decode_s, results


# -- fuzz batches (coordinator -> worker) ------------------------------------

def pack_fuzz_batch(items: Sequence[Tuple[int, bytes]]) -> bytes:
    out: List[bytes] = [_U32.pack(len(items))]
    for index, data in items:
        out.append(_U32.pack(index))
        _put_blob(out, data)
    return b"".join(out)


def unpack_fuzz_batch(buf) -> List[Tuple[int, bytes]]:
    cur = _Cursor(buf)
    return [(cur.u32(), cur.blob()) for _ in range(cur.u32())]


# -- fuzz results (worker -> coordinator) ------------------------------------

def pack_fuzz_results(res: Dict[str, Any], encode_s: float = 0.0,
                      decode_s: float = 0.0) -> bytes:
    """*res* is one ``FuzzWorker.run_batch`` dict: results are
    ``(index, packed_edges, crash|None, pc)`` rows (the coordinator
    holds the inputs). Timing floats sit at offset 0 for
    :func:`stamp_encode_time`."""
    out: List[bytes] = []
    out.append(_F64.pack(encode_s))
    out.append(_F64.pack(decode_s))
    out.append(_F64.pack(res["modelled_dt"]))
    out.append(_U32.pack(res["resets"]))
    _put_obj(out, res["resilience"])
    out.append(_U32.pack(len(res["results"])))
    for index, edges, crash, pc in res["results"]:
        out.append(_U32.pack(index))
        _put_blob(out, edges)
        if crash is None:
            out.append(_U8.pack(0))
        else:
            out.append(_U8.pack(1))
            _put_text(out, crash)
        out.append(_I64.pack(pc))
    return b"".join(out)


def unpack_fuzz_results(buf) -> Tuple[float, float, Dict[str, Any]]:
    cur = _Cursor(buf)
    encode_s = cur.f64()
    decode_s = cur.f64()
    res: Dict[str, Any] = {"modelled_dt": cur.f64(),
                           "resets": cur.u32(),
                           "resilience": cur.obj()}
    results: List[Tuple[int, bytes, Optional[str], int]] = []
    for _ in range(cur.u32()):
        index = cur.u32()
        edges = cur.blob()
        crash = cur.text() if cur.u8() else None
        pc = cur.i64()
        results.append((index, edges, crash, pc))
    res["results"] = results
    return encode_s, decode_s, res


def stamp_encode_time(buf: bytearray, seconds: float) -> None:
    """Patch a result envelope's ``encode_s`` field (offset 0) after
    packing — the pack time is only measurable once packing is done."""
    _F64.pack_into(buf, 0, seconds)


def read_stamps(buf) -> Tuple[float, float]:
    """A result envelope's ``(encode_s, decode_s)`` worker stamps."""
    return _STAMPS.unpack_from(buf, 0)


__all__ = [
    "pack_lease_batch", "unpack_lease_batch",
    "pack_lease_results", "unpack_lease_results",
    "pack_fuzz_batch", "unpack_fuzz_batch",
    "pack_fuzz_results", "unpack_fuzz_results",
    "stamp_encode_time", "read_stamps",
]

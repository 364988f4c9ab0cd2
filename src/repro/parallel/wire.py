"""Content-addressed transfer bookkeeping for cross-process state.

The wire format itself lives in :mod:`repro.core.persistence`
(:class:`SnapshotWire`). This module adds what a *conversation* needs:

* :class:`ContentPool` — one per endpoint (the coordinator and each
  engine worker), shared by the endpoint's :class:`ChunkChannel`
  (hardware chunks) and its :class:`~repro.parallel.statewire.StateWire`
  (memory pages). It keeps every body the endpoint has sent or received
  for the whole campaign, and, per peer, the digests that peer holds.
* :class:`ChunkChannel` — snapshot resends carry only the chunks the
  receiver is missing. Chunk digests come from
  :func:`repro.core.store.chunk_digest`, the same content addresses the
  snapshot store deduplicates on; shipping a state to a worker
  that already explored a sibling path typically moves reference-sized
  metadata, not state payloads (the cross-process analogue of
  ``TransferRecord.delta_bits``).

Nothing is ever evicted from a pool. A reference can be in flight
towards an endpoint at any moment (later in the same envelope, in a
batch packed before the receiver's last reply was decoded, or from
another worker), so a receiver that dropped a body could not resolve
it. A peer's set is dropped only when its process dies
(:meth:`ContentPool.forget_peer`); the next message to its successor
then ships every body it lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Set

from repro.core.persistence import (SnapshotWire, snapshot_from_wire,
                                    snapshot_to_wire)
from repro.core.store import chunk_digest
from repro.counters import Counters
from repro.errors import SnapshotIntegrityError
from repro.targets.base import HwSnapshot


class ContentPool:
    """One endpoint's digest → body map plus each peer's digest set.

    ``held[peer]`` grows symmetrically on send and receive, so both
    endpoints agree on it without a handshake. Every digest in a held
    set has its body in ``bodies``.
    """

    def __init__(self) -> None:
        self.bodies: Dict[str, Any] = {}
        self.held: Dict[object, Set[str]] = {}

    def share(self, peer: object, digest: str, body: Any) -> None:
        """*digest* crossed the boundary with *peer*, either way: keep
        its body and credit the peer with it."""
        self.bodies.setdefault(digest, body)
        self.held.setdefault(peer, set()).add(digest)

    def holds(self, peer: object, digest: str) -> bool:
        held = self.held.get(peer)
        return held is not None and digest in held

    def forget_peer(self, peer: object) -> None:
        """The peer's process died, and its pool with it."""
        self.held.pop(peer, None)


@dataclass
class WireStats(Counters):
    """Transfer accounting for one endpoint (summed over all peers)."""

    snapshots_sent: int = 0
    snapshots_received: int = 0
    #: Chunk references resolved from the peer's pool (no payload moved).
    chunk_hits: int = 0
    #: Chunk payloads actually shipped.
    chunk_misses: int = 0
    #: Full-image bits of every snapshot sent (the naive transfer cost).
    logical_bits_sent: int = 0
    #: Bits actually carried as chunk payloads (the delta transfer cost).
    payload_bits_sent: int = 0

    @property
    def delta_ratio(self) -> float:
        """Logical bits over transferred bits (≥ 1; higher = more
        dedup). Always finite — when everything moved by reference the
        ratio is reported against a one-bit floor so report/bench JSON
        artifacts stay serializable."""
        if self.payload_bits_sent == 0:
            return 1.0 if self.logical_bits_sent == 0 \
                else float(self.logical_bits_sent)
        return self.logical_bits_sent / self.payload_bits_sent


class ChunkChannel:
    """One endpoint's view of snapshot traffic with its peers, over the
    endpoint's :class:`ContentPool` (a private one when none is given).
    """

    def __init__(self, pool: Optional[ContentPool] = None) -> None:
        self.pool = pool if pool is not None else ContentPool()
        self.stats = WireStats()

    def _sent(self, wire: SnapshotWire) -> SnapshotWire:
        self.stats.snapshots_sent += 1
        self.stats.logical_bits_sent += wire.logical_bits
        self.stats.payload_bits_sent += wire.payload_bits
        return wire

    # -- sending ------------------------------------------------------------

    def encode(self, snapshot: HwSnapshot, peer: object,
               bits_of: Optional[Mapping[str, int]] = None) -> SnapshotWire:
        """Encode *snapshot* for *peer*, omitting chunks it holds."""
        pool = self.pool
        wire = snapshot_to_wire(snapshot, known=pool.held.get(peer),
                                bits_of=bits_of)
        for digest, _cycle, _bits in wire.refs.values():
            if pool.holds(peer, digest):
                self.stats.chunk_hits += 1
            else:
                self.stats.chunk_misses += 1
                # Keep our own copy: the peer may later reference this
                # digest back at us without a payload.
                pool.share(peer, digest, wire.chunks[digest][0])
        return self._sent(wire)

    def reencode(self, wire: SnapshotWire, peer: object) -> SnapshotWire:
        """Re-address a received wire to another peer (coordinator
        forwarding a state between workers), filling payloads from the
        pool for chunks the new peer lacks."""
        pool = self.pool
        chunks = {}
        for digest, _cycle, bits in wire.refs.values():
            if pool.holds(peer, digest):
                self.stats.chunk_hits += 1
            else:
                self.stats.chunk_misses += 1
                body = pool.bodies[digest]
                chunks[digest] = (body, bits)
                pool.share(peer, digest, body)
        return self._sent(SnapshotWire(refs=dict(wire.refs), chunks=chunks,
                                       method=wire.method, bits=wire.bits))

    # -- receiving ----------------------------------------------------------

    def absorb(self, wire: SnapshotWire, peer: object) -> None:
        """Merge a received wire's chunks into the pool and credit the
        sender with everything it referenced.

        Every shipped payload is verified against its content address
        before entering the pool: chunk digests *are* the transfer's
        integrity check (delta-sized cost — references are not re-hashed,
        their bodies were verified when they first arrived)."""
        pool = self.pool
        for digest, (body, _bits) in wire.chunks.items():
            actual = chunk_digest(body)
            if actual != digest:
                raise SnapshotIntegrityError(
                    f"chunk from peer {peer!r} fails verification: "
                    f"declared {digest}, body hashes to {actual}")
            pool.share(peer, digest, body)
        for name, (digest, _cycle, _bits) in wire.refs.items():
            body = pool.bodies.get(digest)
            if body is None:
                raise SnapshotIntegrityError(
                    f"wire from peer {peer!r} references chunk {digest} "
                    f"for instance {name!r} without a payload, and this "
                    f"endpoint does not hold it")
            pool.share(peer, digest, body)
        self.stats.snapshots_received += 1

    def decode(self, wire: SnapshotWire, peer: object) -> HwSnapshot:
        """absorb + reassemble into a (foreign) HwSnapshot."""
        self.absorb(wire, peer)
        return snapshot_from_wire(wire, self.pool.bodies)

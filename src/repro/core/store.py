"""Content-addressed snapshot store.

HardSnap's first evaluation question — "How long does it take to
save/restore a hardware state?" — is dominated, for snapshot-heavy
workloads (DSE fork trees, fuzzing loops), not by one save but by
*thousands* of near-identical saves: sibling states differ in a handful
of registers. Deep-copying the full canonical state per save makes a
snapshot cost O(design) in both bits and host time no matter how small
the actual change.

This module is the copy-on-write layer under the snapshot controller:

* **Chunks** — each peripheral instance's canonical state dict (the
  :meth:`~repro.sim.base.BaseSimulation.save_state` form) is hashed into
  an immutable, content-addressed chunk. Two snapshots whose ``uart``
  states are bit-identical share one chunk, whichever target or method
  produced them.
* **Records** — a snapshot is the complete mapping *instance → (chunk
  digest, cycle counter)*. An instance whose registers did not change
  maps to a chunk already in the pool, so saving a child stores
  O(changed registers) bits, and restoring any record reads that one
  record.

The store holds *storage*, not *mechanism*: targets still pay their
method's modelled cost (a scan chain shifts its full length regardless
of how little changed), while the simulator's CRIU model prices
incremental dumps by dirty state only. See ``docs/SNAPSHOT_STORE.md``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.counters import Counters
from repro.errors import SnapshotError


def chunk_digest(state: Mapping) -> str:
    """Content address of one canonical per-instance state dict.

    The canonical form is JSON-representable by construction (ints,
    lists, dicts); sorted-key serialisation makes the digest independent
    of dict insertion order, so the same hardware state always hashes
    identically whichever target captured it. The ``cycle`` counter is
    excluded: peripherals advance in lockstep, so every instance's cycle
    moves on any activity — folding it into the digest would defeat
    dedup for instances whose *registers* never changed. Cycles are
    round-tripped exactly via per-record metadata instead.
    """
    body = {k: v for k, v in state.items() if k != "cycle"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("ascii"), digest_size=16).hexdigest()


def _split(state: Mapping) -> tuple:
    """(body-without-cycle, cycle) of one canonical state dict."""
    return ({k: v for k, v in state.items() if k != "cycle"},
            int(state.get("cycle", 0)))


@dataclass(frozen=True)
class Chunk:
    """One immutable, content-addressed per-instance state image."""

    digest: str
    payload: dict  # canonical state body (no cycle); MUST never be mutated


@dataclass(frozen=True)
class SnapshotRecord:
    """One stored snapshot: every instance's chunk digest and cycle.

    ``cycle_map`` carries each instance's cycle counter — O(instances)
    words of record metadata, like the instance names, not counted in
    ``stored_bits`` (which tracks state *payload* bits: the chunks this
    record added to the pool).
    """

    snapshot_id: int
    chunk_map: Dict[str, str]
    cycle_map: Dict[str, int]
    logical_bits: int
    stored_bits: int


@dataclass
class StoreStats(Counters):
    """Dedup accounting across the store's lifetime."""

    snapshots: int = 0
    chunks: int = 0
    chunk_hits: int = 0
    chunk_misses: int = 0
    logical_bits: int = 0
    stored_bits: int = 0
    resolves: int = 0

    @property
    def capture_skips(self) -> int:  # read by benchmarks/e2e/trace.py
        return 0

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of instance captures that deduplicated to an
        existing chunk."""
        total = self.chunk_hits + self.chunk_misses
        if total == 0:
            return 0.0
        return self.chunk_hits / total

    @property
    def compression_ratio(self) -> float:
        """Logical (naive full-image) bits over actually stored bits."""
        if self.stored_bits == 0:
            return 1.0 if self.logical_bits == 0 else float("inf")
        return self.logical_bits / self.stored_bits


class SnapshotStore:
    """Content-addressed snapshot storage."""

    def __init__(self):
        self._chunks: Dict[str, Chunk] = {}
        self._records: Dict[int, SnapshotRecord] = {}
        #: record id -> its image, built by the first resolve.
        self._images: Dict[int, Dict[str, dict]] = {}
        self._ids = itertools.count(1)
        self.stats = StoreStats()

    def next_id(self) -> int:
        """Allocate a fresh store id. Store ids are their own keyspace —
        distinct from mechanism-level ids like FPGA SRAM slots — so
        several controllers can share one store without collisions."""
        return next(self._ids)

    # -- save path ----------------------------------------------------------

    def put(self, snapshot_id: int, states: Mapping[str, dict],
            bits_of: Mapping[str, int]) -> SnapshotRecord:
        """Store one snapshot; returns its record.

        ``states`` maps instance name to canonical state dict;
        ``bits_of`` gives each instance's state size in bits. Every
        instance is hashed and deduplicated against the chunk pool.
        """
        if snapshot_id in self._records:
            raise SnapshotError(f"duplicate snapshot id {snapshot_id}")
        digests: Dict[str, str] = {}
        cycles: Dict[str, int] = {}
        logical_bits = 0
        stored_bits = 0
        for name, state in states.items():
            bits = int(bits_of.get(name, 0))
            logical_bits += bits
            body, cycle = _split(state)
            digest = chunk_digest(state)
            digests[name] = digest
            cycles[name] = cycle
            if digest in self._chunks:
                self.stats.chunk_hits += 1
            else:
                self._chunks[digest] = Chunk(digest, body)
                self.stats.chunk_misses += 1
                self.stats.stored_bits += bits
                stored_bits += bits

        record = SnapshotRecord(
            snapshot_id=snapshot_id, chunk_map=digests, cycle_map=cycles,
            logical_bits=logical_bits, stored_bits=stored_bits)
        self._records[snapshot_id] = record
        self.stats.snapshots += 1
        self.stats.chunks = len(self._chunks)
        self.stats.logical_bits += logical_bits
        return record

    # -- restore path -------------------------------------------------------

    def record(self, snapshot_id: int) -> SnapshotRecord:
        record = self._records.get(snapshot_id)
        if record is None:
            raise SnapshotError(f"unknown snapshot {snapshot_id}")
        return record

    def resolve(self, snapshot_id: int) -> Dict[str, dict]:
        """The full canonical image of one snapshot.

        The first call joins the record's chunks with its cycle
        counters; records never change, so every later call returns
        that same image. The whole image is shared — the outer dict,
        each instance's state dict and their ``nets``/``memories``
        chunks — and no caller may mutate any of it.
        """
        self.stats.resolves += 1
        image = self._images.get(snapshot_id)
        if image is None:
            record = self.record(snapshot_id)
            image = self._images[snapshot_id] = {
                name: {"cycle": record.cycle_map[name],
                       **self._chunks[digest].payload}
                for name, digest in record.chunk_map.items()}
        return image

    def __contains__(self, snapshot_id: int) -> bool:
        return snapshot_id in self._records

    def __len__(self) -> int:
        return len(self._records)


# ---------------------------------------------------------------------------
# Persistent blob storage (the campaign journal's payload layer)
# ---------------------------------------------------------------------------

def blob_digest(data: bytes) -> str:
    """Content address of one opaque blob (same blake2b-16 keyspace as
    :func:`chunk_digest`, but over raw bytes — journal setup and
    checkpoint payloads are pickles, not canonical state dicts)."""
    return hashlib.blake2b(bytes(data), digest_size=16).hexdigest()


class FileBlobStore:
    """Content-addressed blobs on disk: ``<dir>/<digest>`` per blob.

    The durable sibling of the in-memory chunk pool, used by
    :mod:`repro.core.journal` so the event log holds digests while the
    bodies live here. Writes are atomic (temp file + ``os.replace`` in
    the same directory) and idempotent — a digest that already exists is
    never rewritten, which is what gives cross-checkpoint dedup: a
    corpus entry or frontier chunk that survives unchanged between
    checkpoints is stored once. Reads verify the content address, so a
    torn or tampered blob can never be returned as valid data.
    """

    def __init__(self, directory) -> None:
        import pathlib
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str):
        return self.directory / digest

    def put(self, data: bytes) -> str:
        """Store *data*; returns its digest. The blob is on disk before
        the rename lands, so it is durable *before* the journal record
        referencing it."""
        import os
        digest = blob_digest(data)
        path = self._path(digest)
        if path.exists():
            return digest
        tmp = path.with_name(f".{digest}.tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return digest

    def get(self, digest: str) -> bytes:
        """Fetch and verify one blob; raises
        :class:`~repro.errors.JournalCorruptError` when the body no
        longer hashes to its name (rot, torn write by a pre-atomic
        version) and :class:`SnapshotError` when it is absent."""
        from repro.errors import JournalCorruptError
        path = self._path(digest)
        if not path.exists():
            raise SnapshotError(f"unknown blob {digest!r}")
        data = path.read_bytes()
        actual = blob_digest(data)
        if actual != digest:
            raise JournalCorruptError(
                f"blob {digest} fails verification: body hashes to "
                f"{actual}", digest=digest)
        return data

"""Content-addressed snapshot store with delta encoding.

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
* **Delta records** — a snapshot is a mapping *instance → chunk digest*
  plus a parent pointer. A child snapshot records only the instances
  whose digest differs from its parent's; unchanged instances are
  inherited through the chain. Saving a child therefore stores
  O(changed registers) bits.
* **Flatten threshold** — :meth:`SnapshotStore.resolve` reassembles a
  full image by walking the delta chain root-ward. To keep restores
  O(1)-ish, every ``flatten_threshold`` deltas the store materializes a
  *full* record (all instances listed explicitly — which costs no extra
  chunk storage, since chunks are shared) and the chain depth resets.

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
from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from repro.errors import SnapshotError

#: Materialize a full record every N delta records (chain depth bound).
DEFAULT_FLATTEN_THRESHOLD = 8


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
    bits: int


@dataclass(frozen=True)
class SnapshotRecord:
    """One stored snapshot: a (possibly partial) instance → chunk map.

    ``full`` records list every instance; delta records list only the
    instances that changed relative to ``parent_id`` (different body
    digest *or* different cycle counter) and inherit the rest through
    the chain. ``cycle_map`` carries each listed instance's cycle
    counter — O(instances) words of record metadata, like the parent
    pointer and the instance names, not counted in ``stored_bits``
    (which tracks state *payload* bits).
    """

    snapshot_id: int
    parent_id: Optional[int]
    chunk_map: Dict[str, str]
    cycle_map: Dict[str, int]
    full: bool
    depth: int
    method: str
    logical_bits: int
    stored_bits: int


@dataclass
class StoreStats:
    """Dedup accounting across the store's lifetime."""

    snapshots: int = 0
    chunks: int = 0
    chunk_hits: int = 0
    chunk_misses: int = 0
    capture_skips: int = 0
    logical_bits: int = 0
    stored_bits: int = 0
    flattens: int = 0
    max_chain_depth: int = 0
    resolves: int = 0

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of instance captures that deduplicated to an
        existing chunk (including version-tracked capture skips)."""
        total = self.chunk_hits + self.chunk_misses + self.capture_skips
        if total == 0:
            return 0.0
        return (self.chunk_hits + self.capture_skips) / total

    @property
    def compression_ratio(self) -> float:
        """Logical (naive full-image) bits over actually stored bits."""
        if self.stored_bits == 0:
            return 1.0 if self.logical_bits == 0 else float("inf")
        return self.logical_bits / self.stored_bits


class SnapshotStore:
    """Content-addressed, delta-encoded snapshot storage."""

    def __init__(self, flatten_threshold: int = DEFAULT_FLATTEN_THRESHOLD):
        if flatten_threshold < 1:
            raise SnapshotError("flatten_threshold must be >= 1")
        self.flatten_threshold = flatten_threshold
        self._chunks: Dict[str, Chunk] = {}
        self._chunk_refs: Dict[str, int] = {}
        self._records: Dict[int, SnapshotRecord] = {}
        self._children: Dict[int, int] = {}  # record id -> live child count
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
            bits_of: Mapping[str, int],
            parent_id: Optional[int] = None,
            method: str = "direct",
            unchanged: Iterable[str] = ()) -> SnapshotRecord:
        """Store one snapshot; returns its record.

        ``states`` maps instance name to canonical state dict;
        ``bits_of`` gives each instance's state size in bits. Instances
        listed in ``unchanged`` are trusted (via the target's state
        version tracking) to be bit-identical to the parent's image and
        reuse the parent's digest without re-hashing — the incremental
        capture fast path. Everything else is hashed and deduplicated
        against the chunk pool.
        """
        if snapshot_id in self._records:
            raise SnapshotError(f"duplicate snapshot id {snapshot_id}")
        parent = self._records.get(parent_id) if parent_id is not None else None
        if parent_id is not None and parent is None:
            raise SnapshotError(f"unknown parent snapshot {parent_id}")
        if parent is not None:
            parent_digests, parent_cycles = self._resolve_maps(parent)
        else:
            parent_digests, parent_cycles = {}, {}
        skip: FrozenSet[str] = frozenset(unchanged)

        digests: Dict[str, str] = {}
        cycles: Dict[str, int] = {}
        logical_bits = 0
        stored_bits = 0
        for name, state in states.items():
            bits = int(bits_of.get(name, 0))
            logical_bits += bits
            if name in skip and name in parent_digests:
                # Version-tracked as untouched: bit-identical to the
                # parent, cycle counter included.
                digests[name] = parent_digests[name]
                cycles[name] = parent_cycles[name]
                self.stats.capture_skips += 1
                continue
            body, cycle = _split(state)
            digest = chunk_digest(state)
            digests[name] = digest
            cycles[name] = cycle
            if digest in self._chunks:
                self.stats.chunk_hits += 1
            else:
                self._chunks[digest] = Chunk(digest, body, bits)
                self._chunk_refs[digest] = 0
                self.stats.chunk_misses += 1
                self.stats.stored_bits += bits
                stored_bits += bits

        changed = {name for name, digest in digests.items()
                   if parent_digests.get(name) != digest
                   or parent_cycles.get(name) != cycles[name]}
        make_full = (parent is None
                     or set(digests) != set(parent_digests)
                     or parent.depth + 1 >= self.flatten_threshold)
        if make_full:
            chunk_map, cycle_map, depth = dict(digests), dict(cycles), 0
            if parent is not None and parent.depth + 1 >= self.flatten_threshold:
                self.stats.flattens += 1
        else:
            chunk_map = {name: digests[name] for name in changed}
            cycle_map = {name: cycles[name] for name in changed}
            depth = parent.depth + 1

        record = SnapshotRecord(
            snapshot_id=snapshot_id,
            parent_id=parent_id if not make_full else None,
            chunk_map=chunk_map, cycle_map=cycle_map,
            full=make_full, depth=depth,
            method=method, logical_bits=logical_bits,
            stored_bits=stored_bits)
        self._records[snapshot_id] = record
        for digest in chunk_map.values():
            self._chunk_refs[digest] += 1
        if record.parent_id is not None:
            self._children[record.parent_id] = \
                self._children.get(record.parent_id, 0) + 1
        self.stats.snapshots += 1
        self.stats.chunks = len(self._chunks)
        self.stats.logical_bits += logical_bits
        self.stats.max_chain_depth = max(self.stats.max_chain_depth, depth)
        return record

    # -- restore path -------------------------------------------------------

    def record(self, snapshot_id: int) -> SnapshotRecord:
        record = self._records.get(snapshot_id)
        if record is None:
            raise SnapshotError(f"unknown snapshot {snapshot_id}")
        return record

    def _resolve_maps(self, record: SnapshotRecord) -> tuple:
        """(instance → digest, instance → cycle) maps for one snapshot,
        walking the delta chain root-ward (newest entry wins)."""
        digests: Dict[str, str] = {}
        cycles: Dict[str, int] = {}
        while True:
            for name, digest in record.chunk_map.items():
                if name not in digests:
                    digests[name] = digest
                    cycles[name] = record.cycle_map[name]
            if record.full or record.parent_id is None:
                return digests, cycles
            record = self.record(record.parent_id)

    def resolve_digests(self, snapshot_id: int) -> Dict[str, str]:
        return self._resolve_maps(self.record(snapshot_id))[0]

    def resolve(self, snapshot_id: int) -> Dict[str, dict]:
        """The full canonical image of one snapshot.

        The first call walks the delta chain root-ward collecting the
        newest chunk per instance (the flatten threshold bounds the
        walk); records never change, so every later call returns that
        same image until :meth:`forget` drops the record. The whole
        image is shared — the outer dict, each instance's state dict and
        their ``nets``/``memories`` chunks — and no caller may mutate any
        of it.
        """
        self.stats.resolves += 1
        image = self._images.get(snapshot_id)
        if image is None:
            digests, cycles = self._resolve_maps(self.record(snapshot_id))
            image = self._images[snapshot_id] = {
                name: {"cycle": cycles[name],
                       **self._chunks[digest].payload}
                for name, digest in digests.items()}
        return image

    def chunk(self, digest: str) -> Chunk:
        chunk = self._chunks.get(digest)
        if chunk is None:
            raise SnapshotError(f"unknown chunk {digest!r}")
        return chunk

    def chain_depth(self, snapshot_id: int) -> int:
        return self.record(snapshot_id).depth

    def __contains__(self, snapshot_id: int) -> bool:
        return snapshot_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    # -- garbage collection -------------------------------------------------

    def forget(self, snapshot_id: int) -> None:
        """Drop one snapshot record and free now-unreferenced chunks.

        Only leaf records (no delta children inheriting through them)
        can be forgotten; forgetting an interior record would break its
        descendants' chains.
        """
        record = self.record(snapshot_id)
        if self._children.get(snapshot_id, 0) > 0:
            raise SnapshotError(
                f"snapshot {snapshot_id} has delta children; "
                f"forget them first")
        del self._records[snapshot_id]
        self._images.pop(snapshot_id, None)
        if record.parent_id is not None:
            self._children[record.parent_id] -= 1
        for digest in record.chunk_map.values():
            self._chunk_refs[digest] -= 1
            if self._chunk_refs[digest] == 0:
                freed = self._chunks.pop(digest)
                del self._chunk_refs[digest]
                self.stats.stored_bits -= freed.bits
        self.stats.chunks = len(self._chunks)


# ---------------------------------------------------------------------------
# Persistent blob storage (the campaign journal's payload layer)
# ---------------------------------------------------------------------------

def blob_digest(data: bytes) -> str:
    """Content address of one opaque blob (same blake2b-16 keyspace as
    :func:`chunk_digest`, but over raw bytes — journal checkpoint and
    shard-result payloads are pickles, not canonical state dicts)."""
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

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    def put(self, data: bytes, fsync: bool = False) -> str:
        """Store *data*; returns its digest. ``fsync`` forces the blob
        to disk before the rename lands (checkpoint blobs must be
        durable *before* the journal record referencing them)."""
        import os
        digest = blob_digest(data)
        path = self._path(digest)
        if path.exists():
            return digest
        tmp = path.with_name(f".{digest}.tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(data)
            if fsync:
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

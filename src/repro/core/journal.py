"""Event-sourced campaign journal: crash-safe exploration state.

Exploration state used to live only in coordinator memory — PR 5's
respawn/reissue/degrade ladder survives *worker* death, but a
coordinator crash, OOM-kill or Ctrl-C lost the whole campaign. This
module is the durability tier underneath the parallel coordinators: an
append-only event log recording every campaign-level transition, with
the content-addressed blob store as the payload layer (the log holds
digests, never bodies).

Layout::

    <journal>/events.log      framed, per-record-checksummed event log
    <journal>/blobs/<digest>  content-addressed pickles (the campaign
                              setup and the checkpoints)

**Record framing.** Each record is ``4-byte LE payload length ·
16-byte blake2b(payload) checksum · payload`` where the payload is
canonical JSON (sorted keys). Appends go through one buffered file,
flushed per record (so a SIGKILL'd coordinator loses nothing the OS
already has) and fsync'd every :data:`FSYNC_EVERY` records — checkpoints,
campaign open and seal always fsync, so a power cut can only cost
events *after* the last checkpoint, which resume re-executes anyway.
Every blob is written through and fsync'd before the record that
names it is appended; a torn or rotten blob is still detected at read
time, and resume falls back to an older checkpoint.

**Recovery semantics** (:meth:`Journal.open`):

* the file ends mid-record (torn tail — the classic crash-during-append
  shape), or the *final* record's checksum fails: the tail is truncated
  to the last intact record and recovery proceeds from there. Never
  silently — the truncation is recorded both on
  :attr:`Journal.recovery` and, for writable opens, as a
  ``tail-recovered`` event in the log itself;
* an *interior* record fails its checksum (bit rot, tampering — records
  follow it, so this was never an interrupted append):
  :class:`~repro.errors.JournalCorruptError` naming the byte offset.
  Resume refuses to guess what a damaged history meant.

**Checkpoint + re-execution.** Coordinators write periodic ``checkpoint``
records whose blob holds the full resumable state (DSE frontier /
fuzzing scheduler); the other events (``lease-issued``,
``envelope-merged``, ``state-forked``, ``bug-found``,
``snapshot-sealed``) narrate the campaign and are never read back.
Resume restores the newest loadable checkpoint and re-executes
everything after it — sound because lease and fuzz-batch outcomes are
deterministic and schedule-independent, the PR-4/5 invariant this
module extends across process lifetimes.

**Deterministic crash injection.** ``REPRO_JOURNAL_KILL_AFTER=<n>``
SIGKILLs the process after the *n*-th appended record (the record
itself is flushed first). The resilience suite uses it to die at seeded
points mid-campaign and assert that ``repro resume`` reaches a verdict
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import signal
import struct
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.core.store import FileBlobStore
from repro.errors import JournalCorruptError, JournalError

PathLike = Union[str, pathlib.Path]

#: events.log frame header: 4-byte LE payload length + 16-byte checksum.
_LEN = struct.Struct("<I")
_DIGEST_SIZE = 16
_HEADER_SIZE = _LEN.size + _DIGEST_SIZE

#: Journal format version, carried by the first record of every log.
FORMAT_VERSION = 1

#: Appends per fsync of the event log (checkpoints, campaign open and
#: seal always fsync).
FSYNC_EVERY = 16

#: Env hook: SIGKILL this process after appending record #n.
KILL_AFTER_ENV = "REPRO_JOURNAL_KILL_AFTER"


def config_fingerprint(config: Any) -> str:
    """Short digest of a session config (any stable-``repr`` object),
    recorded at campaign open so a resume against drifted settings is
    detectable in the journal."""
    return hashlib.blake2b(repr(config).encode("utf-8"),
                           digest_size=8).hexdigest()


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()


def _frame(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + _checksum(payload) + payload


def read_frames(data: bytes) -> Iterator[tuple]:
    """Parse ``events.log`` bytes into ``(offset, payload)`` frames.

    Raises :class:`JournalCorruptError` for interior checksum damage;
    yields a final ``(offset, None)`` marker instead of a frame when the
    tail is torn (truncated mid-record, or the last record's checksum
    fails) — callers truncate there.
    """
    offset, size = 0, len(data)
    while offset < size:
        if size - offset < _HEADER_SIZE:
            yield offset, None  # torn: partial header
            return
        (length,) = _LEN.unpack_from(data, offset)
        digest = data[offset + _LEN.size:offset + _HEADER_SIZE]
        end = offset + _HEADER_SIZE + length
        if end > size:
            yield offset, None  # torn: partial payload
            return
        payload = data[offset + _HEADER_SIZE:end]
        if _checksum(payload) != digest:
            if end == size:
                yield offset, None  # damaged final record: torn tail
                return
            raise JournalCorruptError(
                f"journal record at byte offset {offset} fails its "
                f"checksum (interior damage, not a torn tail)",
                offset=offset)
        yield offset, payload
        offset = end


class Journal:
    """One campaign's append-only, checksummed event log + blob store."""

    def __init__(self, directory: PathLike, readonly: bool = False):
        self.directory = pathlib.Path(directory)
        self.path = self.directory / "events.log"
        self.blobs = FileBlobStore(self.directory / "blobs")
        self.readonly = readonly
        self.records: List[Dict[str, Any]] = []
        #: Torn-tail recovery info from :meth:`open` (``None`` when the
        #: log was intact): ``{"truncated_at": offset, "dropped": n}``.
        self.recovery: Optional[Dict[str, int]] = None
        self._fh = None
        self._seq = 0
        self._unsynced = 0
        self._appended = 0
        kill_after = os.environ.get(KILL_AFTER_ENV, "")
        self._kill_after = int(kill_after) if kill_after else 0

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, directory: PathLike) -> "Journal":
        """Start a fresh journal. Refuses to reuse an existing one —
        an interrupted campaign is resumed, never overwritten."""
        journal = cls(directory)
        if journal.path.exists():
            raise JournalError(
                f"journal {journal.path} already exists; resume it "
                f"(repro resume) instead of overwriting")
        journal.directory.mkdir(parents=True, exist_ok=True)
        journal._fh = open(journal.path, "ab")
        journal.append("journal-opened", version=FORMAT_VERSION)
        journal.commit()
        return journal

    @classmethod
    def open(cls, directory: PathLike,
             readonly: bool = False) -> "Journal":
        """Open an existing journal, recovering a torn tail.

        Interior corruption raises :class:`JournalCorruptError`; a torn
        tail is truncated (writable opens persist the truncation and
        log a ``tail-recovered`` event so the repair is never silent).
        """
        journal = cls(directory, readonly=readonly)
        if not journal.path.exists():
            raise JournalError(f"no journal at {journal.path}")
        data = journal.path.read_bytes()
        good_end = 0
        for offset, payload in read_frames(data):
            if payload is None:
                journal.recovery = {"truncated_at": offset,
                                    "dropped": len(data) - offset}
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise JournalCorruptError(
                    f"journal record at byte offset {offset} is not "
                    f"valid JSON despite an intact checksum: {exc}",
                    offset=offset)
            journal.records.append(record)
            good_end = offset + _HEADER_SIZE + len(payload)
        journal._seq = len(journal.records)
        if not journal.records:
            raise JournalError(
                f"journal {journal.path} holds no intact records")
        if journal.records[0].get("kind") != "journal-opened":
            raise JournalError(
                f"journal {journal.path} does not start with a "
                f"journal-opened record")
        version = journal.records[0].get("version")
        if version != FORMAT_VERSION:
            raise JournalError(
                f"unsupported journal format {version!r}")
        if readonly:
            return journal
        if journal.recovery is not None:
            with open(journal.path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                os.fsync(fh.fileno())
        journal._fh = open(journal.path, "ab")
        if journal.recovery is not None:
            journal.append("tail-recovered", **journal.recovery)
            journal.commit()
        return journal

    def close(self) -> None:
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appending ----------------------------------------------------------

    def append(self, kind: str, /, **fields: Any) -> int:
        """Append one event record; returns its sequence number.

        Fields must be JSON-serialisable — anything heavier goes to the
        blob store first and rides as a digest (:meth:`put_blob`). Every
        record's ``seq`` and ``kind`` are the journal's own, so no field
        may take either name.
        """
        for name in ("seq", "kind"):
            if name in fields:
                raise JournalError(f"a {kind!r} record may not carry a "
                                   f"{name!r} field: it is the journal's own")
        if self._fh is None:
            raise JournalError(
                "journal is closed or readonly" if self.readonly
                else "journal is closed")
        self._seq += 1
        record = {"seq": self._seq, "kind": kind, **fields}
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        self._fh.write(_frame(payload))
        # Per-record flush: a SIGKILL'd process loses nothing the OS
        # already holds. fsync (power-cut durability) is batched.
        self._fh.flush()
        self.records.append(record)
        self._unsynced += 1
        if self._unsynced >= FSYNC_EVERY:
            self.commit()
        self._appended += 1
        if self._kill_after and self._appended >= self._kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        return record["seq"]

    def commit(self) -> None:
        """Force appended records to stable storage (fsync)."""
        if self._fh is not None and self._unsynced:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._unsynced = 0

    # -- blobs --------------------------------------------------------------

    def put_blob(self, obj: Any) -> str:
        """Pickle *obj* into the content-addressed blob store, written
        through to stable storage; returns the digest an event record
        carries in the object's place."""
        return self.blobs.put(pickle.dumps(obj))

    def get_blob(self, digest: str) -> Any:
        """Load + verify one blob (raises
        :class:`JournalCorruptError` on checksum mismatch)."""
        return pickle.loads(self.blobs.get(digest))

    # -- reading ------------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        return [r for r in self.records
                if kind is None or r["kind"] == kind]

    def first(self, kind: str) -> Optional[Dict[str, Any]]:
        for record in self.records:
            if record["kind"] == kind:
                return record
        return None

    def last(self, kind: str) -> Optional[Dict[str, Any]]:
        for record in reversed(self.records):
            if record["kind"] == kind:
                return record
        return None

    @property
    def sealed(self) -> bool:
        return self.last("campaign-sealed") is not None

    @staticmethod
    def campaign_mode(directory: PathLike) -> str:
        """Peek the campaign mode ("dse" | "fuzz") without holding the
        journal open — the CLI's resume/replay dispatcher."""
        journal = Journal.open(directory, readonly=True)
        opened = journal.first("campaign-opened")
        if opened is None:
            raise JournalError(
                f"journal {directory} records no campaign-opened event")
        return opened["mode"]

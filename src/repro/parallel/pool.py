"""The worker pool: process lifecycle and job plumbing.

One process per worker, each with a private job queue (so the
coordinator chooses *which* worker runs *which* lease — required for
chunk-channel bookkeeping, since delta encoding is per-peer) and a
private result channel (a worker killed mid-send dies holding its
channel's write lock; with a shared channel no worker could deliver
again). Workers start by fork where the platform has it (they inherit
the imported modules) and by spawn elsewhere, which works because every
job payload and the recipe are plain picklable data.

Batch job kinds (``lease-batch`` / ``fuzz-batch``) travel as packed
envelopes (:mod:`repro.parallel.envelope`) inline on the queues; they
keep their *structured* payload in :class:`InFlightJob` next to a
``pack`` callable — packed bytes exist only on the way to a job
handler (a worker's queue, or :class:`InlinePool`'s direct call), so
the recovery ladder re-addresses the structured payload and re-packs
it.

Every job carries a coordinator-assigned **job id**; the pool tracks
jobs in flight, so:

* :meth:`WorkerPool.next_result` polls worker liveness while waiting —
  a dead worker raises a structured :class:`WorkerDeath` naming the
  worker and its in-flight jobs instead of blocking forever,
* duplicate result deliveries (fault-injected, or a re-issue racing its
  original) are discarded exactly once,
* a crashed worker can be :meth:`respawned <WorkerPool.respawn>` and its
  in-flight jobs :meth:`resubmitted <WorkerPool.resubmit>` (the
  coordinator's recovery hook forgets the dead incarnation's chunk-pool
  contents), and
* when the respawn cap is exhausted, :class:`InlinePool` offers the same
  surface executed in-process (graceful degradation to serial) through
  the workers' own job handler.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import queue as queue_mod
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.counters import Counters
from repro.errors import VmError
from repro.parallel.recipe import SessionRecipe
from repro.parallel.statewire import StateWireStats
from repro.parallel.wire import WireStats
from repro.parallel.workers import STOP, _worker_main, handle_job
from repro.resilience import ResilienceStats
from repro.solver.solver import SatCounters, SolverStats

#: Every live WorkerPool, so signal handlers and interpreter exit can
#: run the escalating close (child reaping) even when the owning
#: coordinator never got the chance — the leak path SIGTERM used to
#: take. Weak references: a pool that was garbage collected after
#: close() needs no sweeping.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()

#: How worker processes start: fork where available, else spawn.
START_METHOD = ("fork" if "fork" in mp.get_all_start_methods()
                else "spawn")


def close_all_pools(timeout: float = 2.0) -> int:
    """Escalatingly close every live pool (idempotent); returns how
    many were still open. Called by the shutdown signal path and
    registered atexit as a last-resort reaper."""
    closed = 0
    for pool in list(_LIVE_POOLS):
        if not pool._closed:
            closed += 1
        try:
            pool.close(timeout=timeout)
        except Exception:
            pass  # last-resort cleanup must never mask the exit path
    return closed


atexit.register(close_all_pools)


def check_transport(transport: str) -> None:
    """Validate the coordinators' legacy ``transport`` keyword. The
    pool has one IPC path (packed envelopes over ``mp.Queue``), so only
    ``"auto"`` and ``"queue"`` are accepted; the value is not used."""
    if transport not in ("auto", "queue"):
        raise ValueError(
            f"transport {transport!r} is not available: the "
            f"shared-memory transport was removed and every pool uses "
            f"queues (pass 'auto' or 'queue')")


class WorkerError(VmError):
    """A worker failed; carries the remote traceback (when the worker
    reported one), the worker id and the affected job ids."""

    def __init__(self, message: str, worker_id: Optional[int] = None,
                 jobs: Tuple[int, ...] = ()):
        self.worker_id = worker_id
        self.jobs = tuple(jobs)
        super().__init__(message)


class WorkerDeath(WorkerError):
    """A worker *process* died with work in flight (found by the
    liveness poll — the hang :meth:`WorkerPool.next_result` used to be
    vulnerable to). Recoverable: respawn + resubmit, or degrade."""


class PoolTimeout(VmError):
    """No result arrived within the deadline; every in-flight worker is
    still alive (a dead one raises :class:`WorkerDeath` instead), so the
    likely cause is a lost result message — re-issue the jobs."""

    def __init__(self, message: str, jobs: Tuple[int, ...] = ()):
        self.jobs = tuple(jobs)
        super().__init__(message)


@dataclass
class InFlightJob:
    """Coordinator-side record of one submitted, unanswered job.

    ``payload`` is always the structured form (dicts, SnapshotWires) so
    the recovery ladder can re-address it; ``pack`` (batch kinds only)
    turns it into envelope bytes at enqueue time — re-invoked on every
    resubmit, so a re-issue gets a fresh encoding and fresh eviction
    notices rather than a stale copy."""

    worker_id: int
    kind: str
    payload: Any
    reissues: int = 0
    pack: Optional[Callable[[Any, int], bytes]] = None


@dataclass
class IpcStats(Counters):
    """Envelope traffic of one pool (coordinator side, plus the
    workers' encode/decode seconds stamped on their result envelopes)."""

    messages_out: int = 0
    messages_in: int = 0
    #: Bytes that crossed the mp.Queue (packed envelope sizes).
    queue_bytes_out: int = 0
    queue_bytes_in: int = 0
    #: Wall time spent packing / unpacking envelopes, by side.
    encode_s: float = 0.0
    decode_s: float = 0.0
    worker_encode_s: float = 0.0
    worker_decode_s: float = 0.0

    @property
    def shm_bytes_out(self) -> int:  # read by benchmarks/e2e/trace.py
        return 0

    @property
    def shm_bytes_in(self) -> int:  # read by benchmarks/e2e/trace.py
        return 0


@dataclass
class PoolStats:
    """Coordinator-side accounting for one parallel run (the CLI's
    ``--workers`` epilogue)."""

    workers: int = 0
    leases: int = 0
    batches: int = 0
    states_shipped: int = 0
    wire: WireStats = field(default_factory=WireStats)
    #: Software-state delta-wire accounting (StateWire codec) — full
    #: vs delta bytes, pages shipped/referenced, constraint suffixes.
    state_wire: StateWireStats = field(default_factory=StateWireStats)
    #: Chunk and page bodies the coordinator's content pool holds at
    #: the end of the run (it never evicts; 0 for fuzz campaigns).
    held_bodies: int = 0
    host_time_s: float = 0.0
    #: Envelope byte + time accounting (coordinator side; worker-side
    #: encode/decode times merge in from result envelopes).
    ipc: IpcStats = field(default_factory=IpcStats)
    #: Pool-boundary recovery events (respawns, reissues, duplicates,
    #: degraded flag); link-layer events merge in from the workers.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: The workers' solver and SAT-core counters, merged per lease
    #: (DSE campaigns only).
    solver: SolverStats = field(default_factory=SolverStats)
    sat: SatCounters = field(default_factory=SatCounters)

    def summary(self) -> str:
        lines = [f"[pool] workers={self.workers} leases={self.leases} "
                 f"batches={self.batches} held={self.held_bodies} "
                 f"host={self.host_time_s:.3f}s"]
        if self.wire.snapshots_sent or self.wire.snapshots_received:
            lines.append(
                f"[pool] snapshots shipped={self.wire.snapshots_sent} "
                f"received={self.wire.snapshots_received} "
                f"chunk-hits={self.wire.chunk_hits} "
                f"misses={self.wire.chunk_misses} "
                f"logical={self.wire.logical_bits_sent}b "
                f"sent={self.wire.payload_bits_sent}b "
                f"(delta x{self.wire.delta_ratio:.1f})")
        if self.state_wire.states_sent:
            sw = self.state_wire
            lines.append(
                f"[pool] state-wire full={sw.full_states} "
                f"delta={sw.delta_states} "
                f"bytes full={sw.state_bytes_full}B "
                f"delta={sw.state_bytes_delta}B "
                f"pages shipped={sw.pages_shipped}/"
                f"ref={sw.pages_referenced} "
                f"constraints {sw.constraints_suffix}/"
                f"{sw.constraints_total} suffix "
                f"(delta x{sw.delta_ratio:.1f})")
        if self.ipc.messages_out or self.ipc.messages_in:
            lines.append(
                f"[pool] ipc queue={self.ipc.queue_bytes_out}B out/"
                f"{self.ipc.queue_bytes_in}B in "
                f"enc={self.ipc.encode_s + self.ipc.worker_encode_s:.3f}s "
                f"dec={self.ipc.decode_s + self.ipc.worker_decode_s:.3f}s")
        if self.leases:
            lines.append(self.solver.summary(self.sat.as_dict()))
        return "\n".join(lines)


class WorkerPool:
    """N worker processes serving engine leases and fuzz batches."""

    #: Result-queue poll slice; bounds how stale the liveness check can be.
    _POLL_S = 0.05

    def __init__(self, recipe: SessionRecipe, workers: int):
        if workers < 1:
            raise VmError(f"need at least one worker, got {workers}")
        self._ctx = mp.get_context(START_METHOD)
        self._recipe = recipe
        self.workers = workers
        self.stats = PoolStats(workers=workers)
        self._jobs = [self._ctx.Queue() for _ in range(workers)]
        self._results = [self._ctx.Queue() for _ in range(workers)]
        self._incarnations = [0] * workers
        self._job_seq = 0
        self._in_flight: Dict[int, InFlightJob] = {}
        self._closed = False
        self._procs = [self._spawn(i) for i in range(workers)]
        _LIVE_POOLS.add(self)

    def _spawn(self, worker_id: int) -> mp.Process:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._recipe, self._jobs[worker_id],
                  self._results[worker_id], self._incarnations[worker_id]),
            daemon=True, name=f"repro-worker-{worker_id}")
        proc.start()
        return proc

    # -- job plumbing -------------------------------------------------------

    def _encode_job(self, info: InFlightJob) -> Any:
        """Structured payload → the object that rides the queue. Batch
        kinds pack to envelope bytes (timed and counted)."""
        if info.pack is None:
            return info.payload
        t0 = time.perf_counter()
        blob = info.pack(info.payload, info.worker_id)
        stats = self.stats.ipc
        stats.encode_s += time.perf_counter() - t0
        stats.messages_out += 1
        stats.queue_bytes_out += len(blob)
        return blob

    def submit(self, worker_id: int, kind: str, payload: Any,
               pack: Optional[Callable[[Any, int], bytes]] = None) -> int:
        """Queue a job; returns its id (tracked until its result lands)."""
        self._job_seq += 1
        job_id = self._job_seq
        info = InFlightJob(worker_id, kind, payload, pack=pack)
        self._in_flight[job_id] = info
        self._jobs[worker_id].put((kind, job_id, self._encode_job(info)))
        return job_id

    def _accept(self, message) -> Optional[Tuple[str, int, Any]]:
        """Common result handling: duplicate drop, error re-raise,
        envelope accounting. Returns the ``(kind, worker_id, data)``
        triple or ``None`` to keep waiting."""
        kind, worker_id, job_id, data = message
        info = self._in_flight.pop(job_id, None)
        if info is None:
            self.stats.resilience.duplicate_results += 1
            return None
        if kind == "error":
            raise WorkerError(f"worker {worker_id} failed:\n{data}",
                              worker_id=worker_id, jobs=(job_id,))
        if info.pack is not None:  # a batch kind: envelope bytes back
            self.stats.ipc.messages_in += 1
            self.stats.ipc.queue_bytes_in += len(data)
        return kind, worker_id, data

    def next_result(self, timeout: Optional[float] = None
                    ) -> Tuple[str, int, Any]:
        """Blocking wait for the next worker result.

        Polls worker liveness while waiting: a dead worker with jobs in
        flight raises :class:`WorkerDeath` (naming worker and leases)
        instead of hanging forever; a missed *timeout* (all workers
        alive) raises :class:`PoolTimeout`; a worker-reported exception
        re-raises as :class:`WorkerError` with the remote traceback.
        Duplicate deliveries of an already-answered job are discarded.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            channels = {q._reader: q for q in self._results}
            ready = wait(list(channels), timeout=self._POLL_S)
            if not ready:
                self._check_liveness()
                if deadline is not None and time.monotonic() >= deadline:
                    jobs = tuple(sorted(self._in_flight))
                    raise PoolTimeout(
                        f"no worker result within {timeout:.1f}s; "
                        f"jobs in flight: {list(jobs)}", jobs=jobs)
                continue
            try:
                message = channels[ready[0]].get_nowait()
            except queue_mod.Empty:
                continue
            accepted = self._accept(message)
            if accepted is not None:
                return accepted

    def drain_results(self) -> List[Tuple[str, int, Any]]:
        """Non-blocking sweep of every already-delivered result — the
        coordinator's async-draining half: collect finished work (and
        free those workers for the next dispatch) before paying the
        decode cost of any of it."""
        drained: List[Tuple[str, int, Any]] = []
        for channel in self._results:
            while True:
                try:
                    message = channel.get_nowait()
                except (queue_mod.Empty, OSError, ValueError):
                    break
                accepted = self._accept(message)
                if accepted is not None:
                    drained.append(accepted)
        return drained

    def _check_liveness(self) -> None:
        for worker_id, proc in enumerate(self._procs):
            if proc.is_alive():
                continue
            jobs = tuple(sorted(
                job_id for job_id, info in self._in_flight.items()
                if info.worker_id == worker_id))
            if jobs:
                raise WorkerDeath(
                    f"worker {worker_id} (pid {proc.pid}, exit code "
                    f"{proc.exitcode}) died with lease(s) "
                    f"{list(jobs)} in flight",
                    worker_id=worker_id, jobs=jobs)

    def broadcast(self, kind: str, payload: Any) -> List[int]:
        return [self.submit(i, kind, payload) for i in range(self.workers)]

    def warm(self, harness: str) -> None:
        """Pre-build every worker's harness (target elaboration is the
        expensive part) so benchmarks measure execution, not setup."""
        self.broadcast("warm", {"kind": harness})
        for _ in range(self.workers):
            kind, _, _ = self.next_result(timeout=120)
            assert kind == "warmed"

    # -- recovery -----------------------------------------------------------

    def in_flight(self, job_id: int) -> InFlightJob:
        return self._in_flight[job_id]

    def in_flight_payloads(self) -> List[Tuple[str, Any]]:
        """Every unanswered job's ``(kind, structured payload)`` in
        submission order — the journal checkpoint's view of work that
        must be re-issued after a coordinator crash (payloads hold the
        parked live states, exactly what the recovery ladder re-packs).
        """
        return [(info.kind, info.payload)
                for _job_id, info in sorted(self._in_flight.items())]

    def take_in_flight(self) -> List[Tuple[int, InFlightJob]]:
        """Remove and return every in-flight job (the degrade path hands
        them to an :class:`InlinePool`)."""
        items = sorted(self._in_flight.items())
        self._in_flight.clear()
        return items

    def respawn(self, worker_id: int) -> List[int]:
        """Replace a dead (or wedged) worker with a fresh process under
        the next incarnation number. The worker gets a **fresh** job
        queue: a process killed while blocked in ``get()`` dies holding
        the queue's reader lock, which would wedge its successor — and
        any queued copies of in-flight jobs are stale anyway (their
        delta wires were encoded against the dead incarnation's content
        pool), so the caller must :meth:`resubmit` them, which re-packs
        them. It also gets a fresh result channel: a process killed
        while sending dies holding the channel's write lock (and may
        leave a torn message), so the old channel is closed unread.

        Everything the dead incarnation held dies with it, including
        its content pool: the coordinator's recovery hook
        (``Campaign._forget_peer``) clears what it believed that pool
        held, so the re-packed jobs ship everything the fresh
        incarnation lacks.

        Returns the worker's in-flight job ids."""
        proc = self._procs[worker_id]
        if proc.is_alive():
            proc.terminate()
            proc.join(1.0)
        old = (self._jobs[worker_id], self._results[worker_id])
        self._jobs[worker_id] = self._ctx.Queue()
        self._results[worker_id] = self._ctx.Queue()
        self._drain(old[0])  # stale jobs; the result channel stays unread
        for queue in old:
            try:
                queue.close()
                queue.cancel_join_thread()
            except (OSError, ValueError):
                pass
        self._incarnations[worker_id] += 1
        self._procs[worker_id] = self._spawn(worker_id)
        self.stats.resilience.worker_respawns += 1
        return sorted(job_id for job_id, info in self._in_flight.items()
                      if info.worker_id == worker_id)

    def resubmit(self, job_id: int, worker_id: Optional[int] = None) -> None:
        """Re-queue an in-flight job (after a respawn or a missed
        deadline). Batch kinds are re-packed (fresh envelope, encoded
        against what the peer holds now)."""
        info = self._in_flight[job_id]
        if worker_id is not None:
            info.worker_id = worker_id
        info.reissues += 1
        self._jobs[info.worker_id].put(
            (info.kind, job_id, self._encode_job(info)))
        self.stats.resilience.lease_reissues += 1

    # -- lifecycle ----------------------------------------------------------

    @staticmethod
    def _drain(queue) -> None:
        try:
            while True:
                queue.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            pass

    def close(self, timeout: float = 5.0) -> None:
        """Shut the pool down: STOP sentinels, then join → terminate →
        kill escalation, then drain the queues so their feeder threads
        cannot wedge interpreter exit. Idempotent, and safe when workers
        already crashed (joining a dead process is a no-op)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        for queue in self._jobs:
            try:
                queue.put_nowait(STOP)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            try:
                proc.join(max(0.1, deadline - time.monotonic()))
            except (OSError, ValueError, AssertionError):
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        for proc in self._procs:
            if proc.is_alive():
                # terminate (SIGTERM) was ignored: escalate to SIGKILL.
                kill = getattr(proc, "kill", proc.terminate)
                kill()
                proc.join(1.0)
        for queue in [*self._jobs, *self._results]:
            self._drain(queue)
            try:
                queue.close()
                queue.cancel_join_thread()
            except (OSError, ValueError):
                pass
        self._in_flight.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlinePool:
    """Degraded-mode stand-in for :class:`WorkerPool`: the same submit /
    next_result / close surface, executed synchronously in-process by
    one set of harnesses (fault-free — there is no process left to
    kill).

    The coordinator swaps this in when the respawn cap is exhausted and
    :class:`~repro.resilience.RetryPolicy` allows degradation; the run
    finishes serially with identical verdicts. Every job runs through
    the workers' own :func:`~repro.parallel.workers.handle_job`, packed
    by the job's ``pack`` hook first, so results are the same envelope
    bytes a worker process would send.
    """

    def __init__(self, recipe: SessionRecipe,
                 stats: Optional[PoolStats] = None):
        self._recipe = recipe
        self.workers = 1
        self.stats = stats if stats is not None else PoolStats(workers=1)
        self.stats.resilience.degraded = True
        self._harnesses: Dict[str, Any] = {}
        # Entries are (kind, worker_id, result, payload): the payload
        # rides along until its result is consumed, so a journal
        # checkpoint taken while results sit here still sees the leases
        # (in_flight_payloads) — parity with the real pool.
        self._pending: Deque[Tuple[str, int, Any, Any]] = deque()

    def submit(self, worker_id: int, kind: str, payload: Any,
               pack: Optional[Callable[[Any, int], bytes]] = None) -> int:
        """Execute the job now; the result is delivered (echoing the
        requested worker id, so coordinator bookkeeping is undisturbed)
        on the next :meth:`next_result`."""
        job = payload if pack is None else pack(payload, worker_id)
        result_kind, data = handle_job(self._harnesses, self._recipe,
                                       kind, job)
        self._pending.append((result_kind, worker_id, data, payload))
        return 0

    def next_result(self, timeout: Optional[float] = None
                    ) -> Tuple[str, int, Any]:
        if not self._pending:
            raise VmError("degraded pool has no pending results "
                          "(submit executes synchronously)")
        kind, worker_id, data, _payload = self._pending.popleft()
        return kind, worker_id, data

    def drain_results(self) -> List[Tuple[str, int, Any]]:
        drained = [(kind, worker_id, data)
                   for kind, worker_id, data, _payload in self._pending]
        self._pending.clear()
        return drained

    def in_flight_payloads(self) -> List[Tuple[str, Any]]:
        return [(kind, payload)
                for kind, _worker_id, _data, payload in self._pending]

    def broadcast(self, kind: str, payload: Any) -> List[int]:
        return [self.submit(i, kind, payload) for i in range(self.workers)]

    def warm(self, harness: str) -> None:
        self.broadcast("warm", {"kind": harness})
        for _ in range(self.workers):
            kind, _, _ = self.next_result()
            assert kind == "warmed"

    def close(self, timeout: float = 5.0) -> None:
        self._pending.clear()

    def __enter__(self) -> "InlinePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

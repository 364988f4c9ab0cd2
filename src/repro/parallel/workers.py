"""Worker-process side of the parallel runtime.

Each worker process owns a complete private analysis stack — target,
solver, snapshot store, engine — rebuilt from the coordinator's
:class:`~repro.parallel.recipe.SessionRecipe`. Work arrives as jobs on a
queue; results go back on the worker's own result channel. Two
harnesses:

* :class:`EngineWorker` — executes state *leases*
  (:meth:`~repro.core.engine.AnalysisEngine.run_lease`): restore the
  leased state's snapshot, run until it completes, forks, or exhausts
  its budget, ship resulting states back as delta-encoded
  :class:`~repro.core.persistence.SnapshotWire` packets,
* :class:`FuzzWorker` — executes fuzz input batches from the shared
  post-boot snapshot (captured once per worker, then restored per
  input — the HardSnap fuzzing loop).

:func:`handle_job` is the one job switch, shared by the worker
processes and the degraded in-process pool. ``_worker_main`` is the
process entry point; it must stay module-level and import-light so it
survives ``spawn`` start methods.
"""

from __future__ import annotations

import os
import queue
import signal
import struct
import time
import traceback
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.fuzzer import ExecutionContext
from repro.core.store import chunk_digest
from repro.counters import Counters
from repro.errors import VmError
from repro.parallel.envelope import (pack_fuzz_results, pack_lease_results,
                                     stamp_encode_time, unpack_fuzz_batch,
                                     unpack_lease_batch)
from repro.parallel.recipe import SessionRecipe
from repro.parallel.statewire import StateWire
from repro.parallel.wire import ChunkChannel, ContentPool
from repro.resilience import FaultInjector
from repro.solver.solver import SatCounters
from repro.targets.base import HwSnapshot
from repro.vm.state import ExecState

#: Queue sentinel that shuts a worker down.
STOP = "__stop__"

#: Peer id workers use for the coordinator in their chunk channel.
COORD = "coord"

def pack_edges(edges: Set[Tuple[int, int]]) -> bytes:
    """Edge set -> compact sorted wire form (pc pairs, little-endian
    u32s). Cuts per-input result pickling to a fraction of a tuple
    list's cost — fuzz results are the parallel fuzzer's bulk traffic."""
    return b"".join(struct.pack("<II", a, b) for a, b in sorted(edges))


def unpack_edges(blob: bytes) -> Set[Tuple[int, int]]:
    return {(a, b) for a, b in struct.iter_unpack("<II", blob)}


#: Spacing between per-lease symbolic-variable counter bases. A single
#: lease never allocates this many fresh symbols, so bases assigned from
#: distinct lease sequence numbers can never collide — regardless of
#: which worker runs which lease.
SYM_BASE_STRIDE = 1_000_000


def _strip_snapshot(snapshot: Optional[HwSnapshot]) -> Optional[HwSnapshot]:
    """A picklable, store-record-free copy of *snapshot* (for bug
    reports crossing the process boundary)."""
    if snapshot is None:
        return None
    return HwSnapshot(states=dict(snapshot.states), method=snapshot.method,
                      bits=snapshot.bits,
                      modelled_cost_s=snapshot.modelled_cost_s)


class EngineWorker:
    """One worker's engine harness: a full HardSnap session plus the
    chunk channel and state wire its states travel over, sharing one
    content pool."""

    def __init__(self, recipe: SessionRecipe):
        self.session = recipe.build_session()
        self.engine = self.session.engine
        pool = ContentPool()
        self.channel = ChunkChannel(pool)
        self.statewire = StateWire(
            delta=getattr(recipe, "delta_state", True), pool=pool)
        self.bits_of = {name: inst.state_bits
                        for name, inst in
                        self.session.target.instances.items()}
        self._started = False

    # -- state (de)materialisation ------------------------------------------

    def _ship_state(self, state: ExecState
                    ) -> Tuple[int, bytes, Dict[str, bytes], Any]:
        """(state-record kind, record, page bodies, wire for its
        snapshot) — the software half delta-encoded against the
        coordinator's registries, the hardware half as a chunk wire."""
        snapshot = state.hw_snapshot
        if snapshot is None:
            # Active states always carry a snapshot by the time they
            # leave a lease (update_state/on_fork refreshed it); guard
            # anyway by capturing live hardware.
            snapshot = self.engine.controller.save()
            state.hw_snapshot = snapshot
        wire = self.channel.encode(snapshot, COORD, bits_of=self.bits_of)
        state.hw_snapshot = None
        try:
            kind, record, bodies = self.statewire.encode_state(state, COORD)
        finally:
            state.hw_snapshot = snapshot
        return kind, record, bodies, wire

    def _materialise(self, payload: Dict[str, Any]) -> ExecState:
        if payload["state"] is None:
            # Root lease: fresh hardware, fresh initial state.
            self.engine.strategy.on_start(None)  # controller.reset()
            return self.session.make_initial_state()
        state = self.statewire.decode_state(
            payload["state_kind"], payload["state"], payload["state_chunks"],
            COORD)
        state.hw_snapshot = self.channel.decode(payload["wire"], COORD)
        return state

    # -- lease execution ----------------------------------------------------

    def _records(self) -> Dict[str, Counters]:
        """The stats records a lease result reports, by name (the SAT
        counters as a record read off the live dict)."""
        controller = self.engine.controller
        solver = self.session.solver
        return {"controller": controller.stats,
                "store": controller.store.stats,
                "channel": self.channel.stats,
                "statewire": self.statewire.stats,
                "resilience": self.session.target.resilience,
                "solver": solver.stats,
                "sat": SatCounters(**solver.sat_stats)}

    def run_lease(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        executor = self.engine.executor
        timer = self.session.target.timer

        # Baselines before the lease's state is decoded, so that its
        # decode traffic is counted.
        baselines = {name: record.as_dict()
                     for name, record in self._records().items()}
        executor._sym_counter = int(payload["sym_base"])
        state = self._materialise(payload)

        bugs_before = len(executor.bugs)
        coverage_before = set(executor.coverage)
        modelled0 = timer.total_s

        outcome = self.engine.run_lease(
            state, max_instructions=int(payload.get("budget", 0)))

        continuation = (self._ship_state(state) if state.is_active
                        else None)
        children = [self._ship_state(fork) for fork in outcome.forks]
        new_bugs = [(replace(b, hw_snapshot=_strip_snapshot(b.hw_snapshot)),
                     state.lineage)
                    for b in executor.bugs[bugs_before:]]
        return {
            "executed": outcome.executed,
            "paused": outcome.paused,
            "continuation": continuation,
            "children": children,
            "completed": outcome.completed,
            "bugs": new_bugs,
            "coverage": sorted(set(executor.coverage) - coverage_before),
            "modelled_dt": timer.total_s - modelled0,
            "stats": {name: record.delta(baselines[name])
                      for name, record in self._records().items()},
        }


class FuzzWorker:
    """One worker's fuzz harness: target + post-boot snapshot, no VM,
    in the serial fuzzer's execution context."""

    def __init__(self, recipe: SessionRecipe):
        self.target = recipe.target.build(recipe.config)
        plan = getattr(recipe.config, "fault_plan", None)
        if plan is not None:
            self.target.attach_resilience(plan, recipe.config.retry_policy)
        self.context = ExecutionContext(recipe.program, self.target,
                                        recipe.max_steps_per_exec)

    def boot_digests(self) -> Dict[str, str]:
        """Chunk digests of the post-boot snapshot (per instance) — lets
        the coordinator verify all workers fuzz from the same state."""
        self.context.fresh_hardware()
        return {name: chunk_digest(state)
                for name, state in self.context.boot.states.items()}

    def run_batch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        modelled0 = self.target.timer.total_s
        resilience0 = self.target.resilience.as_dict()
        context = self.context
        results: List[Tuple[int, bytes, Optional[str], int]] = []
        for index, data in payload["items"]:
            context.fresh_hardware()
            _exit, edges, crash, pc = context.execute(data)
            results.append((index, pack_edges(edges), crash, pc))
        return {
            "results": results,
            "modelled_dt": self.target.timer.total_s - modelled0,
            "resets": len(payload["items"]),
            "resilience": self.target.resilience.delta(resilience0),
        }


_HARNESS_TYPES = {"engine": EngineWorker, "fuzz": FuzzWorker}


def run_lease_batch(engine: EngineWorker, blob: bytes) -> bytes:
    """One ``lease-batch`` envelope in, its result envelope out."""
    t0 = time.perf_counter()
    leases = unpack_lease_batch(blob)
    decode_s = time.perf_counter() - t0
    outcomes = [engine.run_lease(lease) for lease in leases]
    t0 = time.perf_counter()
    packed = bytearray(pack_lease_results(outcomes, decode_s=decode_s))
    stamp_encode_time(packed, time.perf_counter() - t0)
    return bytes(packed)


def run_fuzz_batch(fuzz: FuzzWorker, blob: bytes) -> bytes:
    """One ``fuzz-batch`` envelope in, its result envelope out."""
    t0 = time.perf_counter()
    items = unpack_fuzz_batch(blob)
    decode_s = time.perf_counter() - t0
    res = fuzz.run_batch({"items": items})
    t0 = time.perf_counter()
    packed = bytearray(pack_fuzz_results(res, decode_s=decode_s))
    stamp_encode_time(packed, time.perf_counter() - t0)
    return bytes(packed)


def handle_job(harnesses: Dict[str, Any], recipe: SessionRecipe,
               kind: str, payload: Any) -> Tuple[str, Any]:
    """Run one job on this process's harnesses (built from *recipe* on
    first use and kept in *harnesses*); returns the result's
    ``(kind, data)``. The one job switch: worker processes and the
    degraded :class:`~repro.parallel.pool.InlinePool` both call it, so
    batch kinds take packed envelope bytes and return envelope bytes
    on every path; the control kinds (``warm`` / ``boot-digests``) take
    and return plain objects."""
    def harness(name: str):
        if name not in harnesses:
            harnesses[name] = _HARNESS_TYPES[name](recipe)
        return harnesses[name]

    if kind == "warm":
        harness(payload["kind"])
        return "warmed", None
    if kind == "lease-batch":
        return kind, run_lease_batch(harness("engine"), payload)
    if kind == "fuzz-batch":
        return kind, run_fuzz_batch(harness("fuzz"), payload)
    if kind == "boot-digests":
        return kind, harness("fuzz").boot_digests()
    raise VmError(f"unknown job kind {kind!r}")


#: Completed-envelope cache depth. The coordinator can only re-issue a
#: handful of jobs at once (bounded by in-flight jobs + reissue caps),
#: so a shallow cache suffices to answer every duplicate delivery.
_COMPLETED_CACHE = 32

#: Idle-loop cadence for the orphan check: how often a job-starved
#: worker confirms its coordinator is still alive (ppid unchanged).
_ORPHAN_POLL_S = 2.0


def _worker_main(worker_id: int, recipe: SessionRecipe,
                 jobs, results, incarnation: int = 0) -> None:
    """Worker process entry point: serve jobs through
    :func:`handle_job` until the STOP sentinel arrives. Any exception
    is reported to the coordinator as an ``("error", id, job_id,
    traceback)`` message rather than killing the process silently.

    Jobs arrive on *jobs* as ``(kind, job_id, payload)``; results leave
    on this worker's own *results* channel as
    ``(kind, worker_id, job_id, data)``.

    Completed envelopes are cached by job id so a re-issued job (the
    coordinator missed our answer) is answered from the cache instead
    of being re-executed — execution mutates harness state (coverage
    baselines, chunk-channel bookkeeping), so exactly-once execution is
    what keeps re-issues deterministic.

    When the recipe's config carries a :class:`FaultPlan`, this loop is
    also the pool-boundary fault site: scheduled/stochastic worker kills
    (``os._exit`` before execution, as a real crash would land), lost
    result messages (computed and cached, never sent — the coordinator's
    deadline recovers via re-issue) and duplicated deliveries.
    """
    # Shed the coordinator's inherited signal dispositions. Its
    # cooperative shutdown handler (graceful_shutdown) only sets a
    # coordinator-side flag; carried across fork it would make this
    # process *ignore* SIGTERM — wedging pool-close escalation and
    # multiprocessing's atexit join. Shutdown reaches workers as the
    # STOP sentinel (or terminate/kill), never as a signal to
    # interpret: ignore Ctrl-C's process-group SIGINT so the
    # coordinator can drain gracefully, die on SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    harnesses: Dict[str, Any] = {}
    plan = getattr(recipe.config, "fault_plan", None)
    injector = (FaultInjector(plan, scope="pool")
                if plan is not None and not plan.is_empty else None)
    completed: "OrderedDict[int, tuple]" = OrderedDict()
    job_index = 0

    parent_pid = os.getppid()
    while True:
        try:
            job = jobs.get(timeout=_ORPHAN_POLL_S)
        except queue.Empty:
            # No STOP will ever come from a dead coordinator (SIGKILL
            # skips every cleanup path): a reparented worker exits
            # instead of orphaning forever with the coordinator's
            # pipes held open.
            if os.getppid() != parent_pid:
                break
            continue
        if job == STOP:
            break
        kind, job_id, payload = job
        try:
            cached = completed.get(job_id)
            if cached is not None:
                # Re-issued job we already ran: resend, never re-execute.
                results.put(cached)
                continue
            if kind in ("lease-batch", "fuzz-batch"):
                index = job_index
                job_index += 1
                if (injector is not None
                        and injector.should_kill(worker_id, index,
                                                 incarnation)):
                    os._exit(17)
            result_kind, data = handle_job(harnesses, recipe, kind, payload)
            envelope = (result_kind, worker_id, job_id, data)
            completed[job_id] = envelope
            while len(completed) > _COMPLETED_CACHE:
                completed.popitem(last=False)
            if injector is not None and injector.roll(
                    f"result_loss:w{worker_id}", plan.result_loss_rate):
                continue  # cached above; the re-issue will resend it
            results.put(envelope)
            if injector is not None and injector.roll(
                    f"result_dup:w{worker_id}", plan.result_dup_rate):
                results.put(envelope)
        except BaseException:
            results.put(("error", worker_id, job_id,
                         traceback.format_exc()))

"""Coordinator for parallel dynamic symbolic execution.

The coordinator owns Algorithm 1's *scheduling* half — the searcher and
the stop conditions — and leases the actual execution of states to the
worker pool. A lease runs one state until it completes, forks, or
exhausts its instruction budget; the resulting states come back as
delta-encoded snapshots and re-enter the searcher. Because per-path
outcomes are schedule-independent (branch feasibility does not depend on
execution order, and every path's hardware travels with it), a
run-to-exhaustion merge reproduces the serial engine's
``verdict_summary()`` byte-for-byte, whatever the worker count — the
property ``tests/test_parallel.py`` pins down.

Each lease carries a share of the instructions the campaign has left
(``max_instructions`` less those merged and those already leased out),
and nothing is dispatched once none are left, so a path that never
forks or ends still returns its lease and the run stops at its budget,
never past it, as the serial engine does. A lease's share returns to
the campaign when its envelope merges.

A lease result carries the changed fields of each of the worker's stats
records (:mod:`repro.counters`); the coordinator merges them into one
record per kind.

Leases travel in **coalesced batches** (up to :data:`LEASE_BATCH` per
envelope, struct-packed — see :mod:`repro.parallel.envelope`) and the
main loop is a **pipelined merge**: every already-delivered result is
drained without blocking, freed workers are re-dispatched from parked
states *first*, and the decode of the drained envelopes is interleaved
with further dispatch — after each envelope's states are adopted into
the searcher, any worker that went idle meanwhile is fed immediately,
so batch *i+1* executes while the coordinator is still merging batch
*i*. Per-lease ``sym_base`` assignment, lineage-keyed merging and the
final identity renumbering are unchanged, which is why batching and
pipelining cannot perturb verdicts.

Software state crosses the process boundary through the
:class:`~repro.parallel.statewire.StateWire` delta codec, hardware
state through the :class:`~repro.parallel.wire.ChunkChannel`; both
share the coordinator's one
:class:`~repro.parallel.wire.ContentPool`. Leases park the *live*
state and its refs-only chunk wire coordinator-side, and both halves
are addressed to the worker at pack time (the chunks and dirty pages
the peer lacks, the constraint suffix beyond a shared ancestor). A
re-pack after a respawn or a degrade therefore ships everything the
fresh peer lacks, with no special case.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (Any, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

from repro.core.config import SessionConfig
from repro.core.engine import AnalysisReport
from repro.core.hardsnap import make_session_searcher
from repro.core.journal import Journal, PathLike
from repro.core.persistence import SnapshotWire
from repro.core.shutdown import shutdown_requested
from repro.core.snapshot import SnapshotStats
from repro.core.store import StoreStats
from repro.counters import Counters
from repro.isa.assembler import Program
from repro.parallel.campaign import Campaign
from repro.parallel.envelope import pack_lease_batch, unpack_lease_results
from repro.parallel.recipe import SessionRecipe
from repro.parallel.statewire import StateWire, StateWireStats
from repro.parallel.wire import ChunkChannel, ContentPool, WireStats
from repro.parallel.workers import SYM_BASE_STRIDE
from repro.vm.state import ExecState

#: Max leases coalesced into one job envelope.
LEASE_BATCH = 4


class ParallelAnalysisEngine(Campaign):
    """Drop-in parallel counterpart of
    :meth:`~repro.core.hardsnap.HardSnapSession.run`.

    Takes the same firmware/peripherals/config arguments as
    :class:`~repro.core.hardsnap.HardSnapSession` plus a worker count;
    only the ``hardsnap`` strategy is supported (snapshots are what make
    states portable across processes). With ``journal=<dir>`` the
    campaign is event-sourced and :meth:`resume` restores the frontier
    (parked *and* in-flight states, with their snapshot chunks),
    coverage, merged paths and bugs from the last loadable checkpoint.
    """

    HARNESS = "engine"
    MODE = "dse"

    def __init__(self, firmware: Optional[Union[str, Program]] = None,
                 peripherals: Sequence[Tuple[object, int]] = (),
                 config: Optional[SessionConfig] = None,
                 workers: int = 2,
                 transport: str = "auto",
                 delta_state: bool = True,
                 journal: Optional[PathLike] = None,
                 checkpoint_every: int = 8,
                 recipe: Optional[SessionRecipe] = None,
                 **overrides):
        super().__init__(firmware, peripherals, config, recipe, transport,
                         workers=workers, journal=journal,
                         checkpoint_every=checkpoint_every,
                         delta_state=delta_state, **overrides)
        content = ContentPool()
        self.channel = ChunkChannel(content)
        self.statewire = StateWire(delta=self.recipe.delta_state,
                                   pool=content)
        self._coverage: Set[int] = set()
        self._lease_seq = 0

    @classmethod
    def _from_setup(cls, setup: Dict[str, Any],
                    workers: int) -> "ParallelAnalysisEngine":
        # Older setups also record "lease_budget" and "lease_batch":
        # unread, since every lease's budget follows from run_kwargs.
        engine = cls(recipe=setup["recipe"], workers=workers)
        engine._resume_run_kwargs = dict(setup["run_kwargs"])
        return engine

    # -- leasing ------------------------------------------------------------

    def _pack_leases(self, payload: Dict[str, Any],
                     worker_id: int) -> bytes:
        """``pack`` hook for the pool: structured batch → envelope
        bytes, each parked chunk wire re-addressed to the peer here, as
        the state wire encodes the software state here."""
        peer = self._peer(worker_id)
        leases = [lease if lease["state"] is None else
                  dict(lease, wire=self.channel.reencode(lease["wire"], peer))
                  for lease in payload["leases"]]
        return pack_lease_batch(leases, peer, statewire=self.statewire)

    def _dispatch_batch(self, worker_id: int,
                        states: Sequence[Optional[ExecState]],
                        budgets: Sequence[int]) -> None:
        leases = []
        for state, budget in zip(states, budgets):
            self._lease_seq += 1
            lease: Dict[str, Any] = {
                "budget": budget,
                "sym_base": self._lease_seq * SYM_BASE_STRIDE}
            if state is None:
                lease["state"] = None
                lease["wire"] = None
            else:
                # The lease parks the *live* state and its wire; both
                # are encoded at pack time (_pack_leases), so a recovery
                # re-pack encodes against the new peer's registries
                # instead of replaying stale bytes.
                lease["state"] = state
                lease["wire"] = state._wire
                del state._wire
            leases.append(lease)
        self.pool.submit(worker_id, "lease-batch", {"leases": leases},
                         pack=self._pack_leases)
        if self._journal is not None:
            self._journal.append(
                "lease-issued", worker=worker_id, leases=len(leases),
                budget=sum(budgets), lease_seq=self._lease_seq,
                root=any(lease["state"] is None for lease in leases))
        self.pool.stats.leases += len(leases)
        self.pool.stats.batches += 1
        self.pool.stats.states_shipped += sum(
            1 for lease in leases if lease["state"] is not None)

    def _adopt(self, shipped, worker_id: int) -> ExecState:
        """Decode a shipped ``(kind, record, page bodies, wire)`` state
        and remember which chunks back its snapshot: the snapshot is
        not rebuilt, its refs are resolved from the content pool when
        the state is leased out again."""
        kind, record, bodies, wire = shipped
        peer = self._peer(worker_id)
        self.channel.absorb(wire, peer)
        state = self.statewire.decode_state(kind, record, bodies, peer)
        state._wire = wire
        return state

    # -- recovery hooks (see Campaign) ----------------------------------------

    def _forget_peer(self, worker_id: object) -> None:
        # The content pool is shared: this drops the peer's chunks too.
        self.statewire.forget_peer(worker_id)

    # -- journal --------------------------------------------------------------

    def _write_checkpoint(self, journal: Journal, report: AnalysisReport,
                          searcher, executed: int,
                          records: Dict[str, Counters],
                          bugs: List[Tuple[object, Tuple[int, ...]]],
                          root_unsent: bool) -> None:
        """Seal the campaign's complete resumable state.

        The frontier (parked states) and every in-flight lease's state
        travel as ``(pickled ExecState, refs-only wire)`` pairs plus one
        shared ``digest → (body, bits)`` chunk map resolved from the
        coordinator's content pool, which keeps every body it absorbed.
        The boot lease is pending while it is *root_unsent* or in flight.
        """
        entries: List[Tuple[ExecState, SnapshotWire]] = []
        chunks: Dict[str, Tuple[dict, int]] = {}
        root_pending = root_unsent

        def add_state(state: ExecState, wire: SnapshotWire) -> None:
            for digest, _cycle, bits in wire.refs.values():
                if digest not in chunks:
                    chunks[digest] = (self.channel.pool.bodies[digest], bits)
            entries.append((state, SnapshotWire(
                refs=dict(wire.refs), chunks={},
                method=wire.method, bits=wire.bits)))

        # Frontier states carry their wire as an attribute; strip it for
        # pickling (the wire rides separately) and restore after.
        stripped: List[Tuple[ExecState, SnapshotWire]] = []
        for state in list(searcher.states):
            wire = state._wire
            del state._wire
            stripped.append((state, wire))
            add_state(state, wire)
        for _kind, payload in self.pool.in_flight_payloads():
            for lease in payload["leases"]:
                if lease.get("state") is None:
                    root_pending = True  # the boot lease never returned
                else:
                    add_state(lease["state"], lease["wire"])
        try:
            blob = journal.put_blob(
                {"executed": executed,
                 "lease_seq": self._lease_seq,
                 "coverage": sorted(self._coverage),
                 "paths": list(report.paths),
                 "forks": report.forks,
                 "max_live_states": report.max_live_states,
                 "modelled_time_s": report.modelled_time_s,
                 "resilience": report.resilience.as_dict(),
                 "controller": records["controller"].as_dict(),
                 "store": records["store"].as_dict(),
                 "bugs": list(bugs),
                 "root_pending": root_pending,
                 "states": entries,
                 "chunks": chunks})
        finally:
            for state, wire in stripped:
                state._wire = wire
        journal.append("snapshot-sealed", states=len(entries),
                       chunks=len(chunks),
                       bits=sum(bits for _body, bits in chunks.values()))
        journal.append("checkpoint", executed=executed,
                       states=len(entries), blob=blob)
        journal.commit()

    def _restore_checkpoint(self, state: Dict[str, Any],
                            report: AnalysisReport, searcher,
                            records: Dict[str, Counters]
                            ) -> Tuple[int,
                                       List[Tuple[object, Tuple[int, ...]]],
                                       bool]:
        """Rebuild coordinator state from a checkpoint blob, merging its
        snapshot and store records into *records*; returns the
        ``(executed, bugs, root_pending)`` loop-local state :meth:`run`
        continues from."""
        self._lease_seq = state["lease_seq"]
        self._coverage.clear()
        self._coverage.update(state["coverage"])
        report.paths = list(state["paths"])
        report.forks = state["forks"]
        report.max_live_states = state["max_live_states"]
        report.modelled_time_s = state["modelled_time_s"]
        report.resilience.merge(state["resilience"])
        if "stats_sums" in state:
            # An older checkpoint: one mapping whose keys each name a
            # field of exactly one of the two records (its chain-depth
            # high-water mark is ignored).
            sums = state["stats_sums"]
            state = dict(state, controller=sums, store=sums)
        records["controller"].merge(state["controller"])
        records["store"].merge(state["store"])
        chunks = state["chunks"]
        for parked, wire in state["states"]:
            carry = SnapshotWire(
                refs=dict(wire.refs),
                chunks={digest: chunks[digest]
                        for _n, (digest, _c, _b) in wire.refs.items()},
                method=wire.method, bits=wire.bits)
            # The journal acts as the sending peer: absorb verifies every
            # chunk body against its content address on the way in.
            self.channel.absorb(carry, "journal")
            parked._wire = SnapshotWire(refs=dict(wire.refs), chunks={},
                                        method=wire.method, bits=wire.bits)
            searcher.add(parked)
        return (state["executed"], list(state["bugs"]),
                state["root_pending"])

    # -- main loop ----------------------------------------------------------

    def run(self, max_instructions: int = 1_000_000,
            max_states: int = 4096,
            stop_after_bugs: int = 0) -> AnalysisReport:
        """Run the leased Algorithm 1 to completion or budget."""
        report = AnalysisReport(strategy="hardsnap")
        run_kwargs = {"max_instructions": max_instructions,
                      "max_states": max_states,
                      "stop_after_bugs": stop_after_bugs}
        journal = self._open_journal(
            {"recipe": self.recipe, "workers": self.workers,
             "run_kwargs": dict(run_kwargs)}, **run_kwargs)
        start = time.perf_counter()
        searcher = make_session_searcher(self.config, self._coverage)
        pool = self.pool  # starts the workers
        resilience0 = pool.stats.resilience.as_dict()
        # Where each lease result's stats deltas merge, by record name
        # (see EngineWorker._records).
        records: Dict[str, Counters] = {
            "controller": SnapshotStats(), "store": StoreStats(),
            "channel": pool.stats.wire, "statewire": pool.stats.state_wire,
            "resilience": report.resilience, "solver": pool.stats.solver,
            "sat": pool.stats.sat}
        idle: Deque[int] = deque(range(self.workers))
        bugs: List[Tuple[object, Tuple[int, ...]]] = []
        executed = 0
        outstanding = 0  # leases awaiting results
        batches_out = 0  # envelopes awaiting results
        #: Per worker, the instructions leased out in each envelope not
        #: yet merged, in send order (a worker's envelopes merge in it).
        leased: Dict[int, Deque[int]] = {
            worker_id: deque() for worker_id in range(self.workers)}
        stop: Optional[str] = None
        merged_envelopes = 0  # since the last periodic checkpoint
        root_pending = True
        if self._resume_state is not None:
            state, self._resume_state = self._resume_state, None
            executed, bugs, root_pending = self._restore_checkpoint(
                state, report, searcher, records)

        def send(worker_id: int, states: Sequence[Optional[ExecState]],
                 budgets: Sequence[int]) -> None:
            nonlocal outstanding, batches_out
            self._dispatch_batch(worker_id, states, budgets)
            leased[worker_id].append(sum(budgets))
            outstanding += len(states)
            batches_out += 1

        def dispatch() -> None:
            """Feed every idle worker from the searcher, coalescing up
            to :data:`LEASE_BATCH` leases per envelope (spread evenly so
            one worker never hoards the backlog while others starve).
            The instructions the campaign has left, less those already
            leased out, are split across the leases sent, at least one
            each, so no more leases go out than instructions are left."""
            left = (max_instructions - executed
                    - sum(map(sum, leased.values())))
            batches: List[List[ExecState]] = []
            leases = 0
            while len(batches) < len(idle) and len(searcher) \
                    and leases < left:
                free = len(idle) - len(batches)
                share = -(-len(searcher) // free)  # ceil
                take = min(LEASE_BATCH, share, left - leases)
                batches.append([searcher.pop_next(None)
                                for _ in range(take)])
                leases += take
            if not leases:
                return
            each, extra = divmod(left, leases)
            budgets = iter([each + (i < extra) for i in range(leases)])
            for states in batches:
                send(idle.popleft(), states, [next(budgets) for _ in states])

        # Root lease: worker 0 builds the initial state itself. A resumed
        # campaign only re-issues it when the checkpoint recorded the
        # boot lease as still un-returned. With no budget at all the run
        # stops before it, as the serial engine does.
        if root_pending and executed < max_instructions:
            send(idle.popleft(), [None], [max_instructions - executed])
            root_pending = False
        elif root_pending:
            stop = "instruction-budget"

        while True:
            if stop is None:
                if shutdown_requested():
                    # Cooperative shutdown: stop dispatching, drain every
                    # outstanding envelope (merged below as usual), then
                    # fall out with a checkpoint-current journal.
                    stop = "interrupted"
                elif executed >= max_instructions and \
                        (len(searcher) or outstanding):
                    stop = "instruction-budget"
                elif stop_after_bugs and len(bugs) >= stop_after_bugs:
                    stop = "bug-budget"
            if stop is None:
                dispatch()
            if batches_out == 0:
                break
            # Async draining: collect every envelope already delivered
            # (first one blocking), hand the freed workers new leases,
            # and only then pay the decode cost.
            # (self.pool, not the local: the recovery ladder may have
            # swapped in an InlinePool since the loop started.)
            arrived = [self._await_result()]
            arrived.extend(self.pool.drain_results())
            for _kind, worker_id, _data in arrived:
                idle.append(worker_id)
                batches_out -= 1
            if stop is None:
                dispatch()
            for _kind, worker_id, data in arrived:
                # Pipelined merge: decode one envelope, fold its states
                # into the searcher, then (below) immediately feed any
                # idle worker before decoding the next envelope — batch
                # i+1 executes while batch i+2..n are still merging.
                _enc, _dec, results = self._unpack_result(
                    unpack_lease_results, data)
                if journal is not None:
                    journal.append("envelope-merged", worker=worker_id,
                                   leases=len(results))
                leased[worker_id].popleft()  # its budget returns
                for res in results:
                    outstanding -= 1
                    executed += res["executed"]
                    self._coverage.update(res["coverage"])
                    report.modelled_time_s += res["modelled_dt"]
                    for name, delta in res["stats"].items():
                        records[name].merge(delta)
                    bugs.extend(res["bugs"])
                    if journal is not None:
                        for bug, lineage in res["bugs"]:
                            journal.append("bug-found", bug=bug.kind,
                                           pc=bug.pc,
                                           lineage=list(lineage))
                    if res["completed"] is not None:
                        report.paths.append(res["completed"])
                    # Serial parity: forks count before the
                    # max_states cap.
                    report.forks += len(res["children"])
                    incoming = []
                    if res["continuation"] is not None:
                        incoming.append(res["continuation"])
                    incoming.extend(res["children"])
                    for i, shipped in enumerate(incoming):
                        state = self._adopt(shipped, worker_id)
                        if journal is not None and (
                                res["continuation"] is None or i > 0):
                            journal.append("state-forked",
                                           lineage=list(state.lineage))
                        if len(searcher) + outstanding < max_states:
                            searcher.add(state)
                    report.max_live_states = max(
                        report.max_live_states,
                        len(searcher) + outstanding)
                merged_envelopes += 1
                if stop is None:
                    dispatch()
            if journal is not None and \
                    merged_envelopes >= self.checkpoint_every:
                self._write_checkpoint(journal, report, searcher,
                                       executed, records, bugs,
                                       root_pending)
                merged_envelopes = 0

        report.stop_reason = stop or "exhausted"
        report.instructions = executed
        report.coverage = len(self._coverage)
        self._finalise_identity(report, bugs)
        report.record_snapshot_stats(records["controller"], records["store"])
        report.host_time_s = time.perf_counter() - start
        pool.stats.host_time_s += report.host_time_s
        pool.stats.held_bodies = len(self.channel.pool.bodies)
        # The coordinator's own traffic joins the workers' deltas.
        pool.stats.wire.merge(self.channel.stats)
        self.channel.stats = WireStats()
        pool.stats.state_wire.merge(self.statewire.stats)
        self.statewire.stats = StateWireStats()
        # Pool-boundary recovery (respawns/reissues/duplicates/degraded)
        # joins the link-layer events the workers reported per lease.
        report.resilience.merge(pool.stats.resilience.delta(resilience0))
        if journal is not None:
            # Final checkpoint: a budget-stopped campaign's frontier is
            # resumable; an exhausted one restores to an empty frontier
            # and re-derives the identical report.
            self._write_checkpoint(journal, report, searcher, executed,
                                   records, bugs, root_pending)
        self._seal(journal, report, {"executed": executed},
                   {"executed": executed})
        return report

    @staticmethod
    def _finalise_identity(report: AnalysisReport,
                           bugs: List[Tuple[object, Tuple[int, ...]]]
                           ) -> None:
        """Renumber merged paths deterministically: state ids are
        assigned 1..N in lineage order (worker-local ids mean nothing
        globally), and bugs are remapped onto the renumbered paths."""
        report.paths.sort(key=lambda p: p.lineage)
        ids: Dict[Tuple[int, ...], int] = {}
        for i, path in enumerate(report.paths, start=1):
            path.state_id = i
            ids[path.lineage] = i
        ordered = sorted(bugs, key=lambda item: (item[1], item[0].steps))
        report.bugs = []
        for bug, lineage in ordered:
            bug.state_id = ids.get(lineage, 0)
            report.bugs.append(bug)

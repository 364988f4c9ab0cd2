"""Input-sharded parallel fuzzing from a shared post-boot snapshot.

The serial :class:`~repro.core.fuzzer.SnapshotFuzzer` already splits
into a deterministic scheduler (mutation batches, corpus/coverage update
rule) and a hardware harness (restore boot snapshot, execute input).
This coordinator keeps the scheduler and shards the harness across the
worker pool: each worker rebuilds the target from the recipe, captures
the post-boot snapshot **once**, then restores it per input — the
HardSnap fuzzing loop, N times over.

Because every input executes from the same boot state, per-input results
are corpus-independent; merging them back **in global input order**
makes the run bit-identical to a serial run with the same ``batch_size``
(see :meth:`~repro.core.fuzzer.FuzzReport.verdict_summary`), whatever
the worker count.

Shards travel as packed ``fuzz-batch`` envelopes over the pool's
queues, each worker gets one
**contiguous** slice of the batch (one envelope per worker instead of
round-robin message-per-input), and the coordinator merges **streamed**:
as each shard lands, every result whose global index is next in line
feeds the scheduler immediately, so merge work overlaps the stragglers.
The merge *order* is still the global input order — identical verdicts.
A result row is ``(index, packed_edges, crash, pc)``: the input itself
never travels back, since the coordinator generated the batch and
merges its own bytes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import SessionConfig
from repro.core.fuzzer import CorpusScheduler, FuzzReport
from repro.core.journal import Journal, PathLike
from repro.core.shutdown import shutdown_requested
from repro.errors import VmError
from repro.isa.assembler import Program
from repro.parallel.campaign import Campaign
from repro.parallel.envelope import pack_fuzz_batch, unpack_fuzz_results
from repro.parallel.recipe import SessionRecipe
from repro.parallel.workers import unpack_edges


class ParallelFuzzer(Campaign):
    """N-worker counterpart of :class:`~repro.core.fuzzer.SnapshotFuzzer`
    (snapshot reset mode only — rebooting per input is exactly what the
    snapshot runtime exists to avoid).

    With ``journal=<dir>`` the campaign is journaled: the run's setup,
    every crash and a periodic checkpoint (every ``checkpoint_every``
    batches) land in an append-only log (:mod:`repro.core.journal`).
    :meth:`resume` reopens such a journal after a coordinator crash,
    restores the newest loadable checkpoint and re-executes every batch
    after it, to a verdict byte-identical to the uninterrupted run. A
    sparser cadence trades resume re-execution for per-batch fsync
    cost, never safety.
    """

    HARNESS = "fuzz"
    MODE = "fuzz"

    def __init__(self, firmware: Optional[Union[str, Program]] = None,
                 peripherals: Sequence[Tuple[object, int]] = (),
                 seeds: Optional[List[bytes]] = None,
                 workers: int = 2,
                 batch_size: int = 32,
                 seed: int = 0,
                 max_steps_per_exec: int = 20_000,
                 config: Optional[SessionConfig] = None,
                 transport: str = "auto",
                 journal: Optional[PathLike] = None,
                 checkpoint_every: int = 8,
                 recipe: Optional[SessionRecipe] = None,
                 **overrides):
        if batch_size < 1:
            raise VmError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(firmware, peripherals, config, recipe, transport,
                         workers=workers, journal=journal,
                         checkpoint_every=checkpoint_every,
                         max_steps_per_exec=max_steps_per_exec, **overrides)
        self.batch_size = batch_size
        self.scheduler = CorpusScheduler(seeds, seed)
        self._seeds = None if seeds is None else [bytes(s) for s in seeds]
        self._seed = seed

    def boot_digests(self) -> Dict[int, Dict[str, str]]:
        """Each worker's post-boot snapshot chunk digests — they must all
        be identical (every worker fuzzes the same machine)."""
        pool = self.pool
        pool.broadcast("boot-digests", None)
        out: Dict[int, Dict[str, str]] = {}
        for _ in range(self.workers):
            _, worker_id, digests = pool.next_result(timeout=120)
            out[worker_id] = digests
        return out

    # -- journal --------------------------------------------------------------

    @classmethod
    def _from_setup(cls, setup: Dict[str, Any],
                    workers: int) -> "ParallelFuzzer":
        fuzzer = cls(recipe=setup["recipe"], seeds=setup["seeds"],
                     seed=setup["seed"], batch_size=setup["batch_size"],
                     workers=workers)
        fuzzer._resume_run_kwargs = {"executions": setup["executions"]}
        return fuzzer

    def _checkpoint(self, journal: Optional[Journal],
                    report: FuzzReport, done: int) -> None:
        """Seal the campaign's resumable state at a batch boundary."""
        if journal is None:
            return
        blob = journal.put_blob(
            {"done": done,
             "scheduler": self.scheduler.state_dict(),
             "report": {"executions": report.executions,
                        "crashes": list(report.crashes),
                        "resets": report.resets,
                        "modelled_time_s": report.modelled_time_s,
                        "resilience": report.resilience.as_dict()}})
        journal.append("checkpoint", done=done, blob=blob)
        journal.commit()

    # -- main loop ----------------------------------------------------------

    @staticmethod
    def _pack_items(payload: Dict[str, Any], worker_id: int) -> bytes:
        """``pack`` hook for the pool: shard dict → envelope bytes."""
        return pack_fuzz_batch(payload["items"])

    def run(self, executions: int = 200) -> FuzzReport:
        """Fuzz for *executions* inputs across the pool.

        Equivalent to ``SnapshotFuzzer.run(executions,
        batch_size=self.batch_size)`` with the same seeds and seed: the
        batch is generated up front from the shared scheduler, sharded
        contiguously across workers, and merged back in input order —
        streamed, so early shards feed the scheduler while late shards
        are still executing.
        """
        report = FuzzReport()
        journal = self._open_journal(
            {"recipe": self.recipe, "seeds": self._seeds,
             "seed": self._seed, "batch_size": self.batch_size,
             "workers": self.workers, "executions": executions},
            batch_size=self.batch_size, executions=executions)
        pool = self.pool
        resilience0 = pool.stats.resilience.as_dict()
        start = time.perf_counter()
        done = 0
        dirty = 0  # batches since the last checkpoint
        if self._resume_state is not None:
            state, self._resume_state = self._resume_state, None
            done = state["done"]
            self.scheduler.restore_state(state["scheduler"])
            saved = state["report"]
            report.executions = saved["executions"]
            report.crashes = list(saved["crashes"])
            report.resets = saved["resets"]
            report.modelled_time_s = saved["modelled_time_s"]
            report.resilience.merge(saved["resilience"])
        while done < executions:
            if shutdown_requested():
                report.stop_reason = "interrupted"
                break
            batch = self.scheduler.next_batch(
                min(max(1, self.batch_size), executions - done))
            self._execute_batch(journal, report, batch, done)
            done += len(batch)
            dirty += 1
            if dirty >= self.checkpoint_every:
                self._checkpoint(journal, report, done)
                dirty = 0
        if dirty:
            self._checkpoint(journal, report, done)
        self.scheduler.finalize(report)
        report.host_time_s = time.perf_counter() - start
        pool.stats.host_time_s += report.host_time_s
        report.resilience.merge(pool.stats.resilience.delta(resilience0))
        self._seal(journal, report, {"done": done}, {"executions": done})
        return report

    def _execute_batch(self, journal: Optional[Journal],
                       report: FuzzReport, batch: List[bytes],
                       done: int) -> None:
        pool = self.pool
        indexed = list(enumerate(batch))
        per = -(-len(indexed) // self.workers)  # ceil
        shards = 0
        for worker_id in range(self.workers):
            items = indexed[worker_id * per:(worker_id + 1) * per]
            if not items:
                continue
            self.pool.submit(worker_id, "fuzz-batch",
                             {"items": items}, pack=self._pack_items)
            shards += 1
        pool.stats.batches += 1
        merged: Dict[int, Tuple[bytes, Optional[str], int]] = {}
        next_i = 0
        arrived = 0
        while arrived < shards:
            results = [self._await_result()]
            results.extend(self.pool.drain_results())
            for _, _worker_id, data in results:
                arrived += 1
                _enc, _dec, res = self._unpack_result(unpack_fuzz_results,
                                                      data)
                report.resets += res["resets"]
                report.modelled_time_s += res["modelled_dt"]
                report.resilience.merge(res["resilience"])
                for index, edges, crash, pc in res["results"]:
                    merged[index] = (edges, crash, pc)
            # Streaming merge: consume the longest in-order prefix
            # available so far (scheduler order == input order).
            while next_i in merged:
                edges, crash, pc = merged.pop(next_i)
                if crash is not None and journal is not None:
                    journal.append("bug-found", bug="fuzz-crash",
                                   index=done + next_i, reason=crash,
                                   pc=pc)
                self.scheduler.merge(report, batch[next_i],
                                     unpack_edges(edges), crash, pc,
                                     done + next_i)
                next_i += 1

"""One coordinator skeleton for the parallel campaigns.

:class:`~repro.parallel.engine.ParallelAnalysisEngine` (DSE) and
:class:`~repro.parallel.fuzzer.ParallelFuzzer` run the same campaign
around different work units. :class:`Campaign` holds what they share:

* the worker pool's lifecycle (:attr:`Campaign.pool`, :meth:`warm`,
  :meth:`close`, the context manager),
* the journal (:mod:`repro.core.journal`): the ``campaign-opened``
  record, :meth:`resume`'s mode check and newest-loadable-checkpoint
  fallback, :meth:`resume_run` and the final ``campaign-interrupted`` /
  ``campaign-sealed`` record. Resume has one rule: restore the newest
  loadable checkpoint, then re-execute everything after it,
* result-envelope decode accounting (:meth:`_unpack_result`),
* the recovery ladder for one wait on a worker result
  (:meth:`_await_result`):

  1. a **dead worker** (:class:`~repro.parallel.pool.WorkerDeath` from
     the liveness poll) is respawned under a fresh incarnation and its
     in-flight jobs re-issued — until the
     :attr:`~repro.resilience.RetryPolicy.respawn_cap` is spent, after
     which the run **degrades to serial** (an in-process
     :class:`~repro.parallel.pool.InlinePool` runs the remaining jobs
     through the workers' own job handler, fault-free) or, with
     degradation disabled, the death propagates;
  2. a **missed deadline** (:class:`~repro.parallel.pool.PoolTimeout` —
     every in-flight worker still alive, so a result message was lost)
     re-issues the stalled jobs, each at most
     :attr:`~repro.resilience.RetryPolicy.max_reissues` times.

  Workers serve re-issued jobs from their completed-envelope cache,
  never re-executing them, so recovery cannot perturb verdicts; see
  ``docs/RESILIENCE.md``.

A subclass supplies the work unit and its merge: ``run`` (which starts
from ``_resume_state`` when :meth:`resume` restored one), the
:attr:`HARNESS` and :attr:`MODE` constants, a ``_from_setup(setup,
workers)`` classmethod that rebuilds the campaign from its
``campaign-opened`` setup blob for :meth:`resume` (setting
``_resume_run_kwargs``), and — when it ships delta-encoded states —
the :meth:`_forget_peer` hook that drops a dead worker's per-peer wire
registries. Jobs are packed by their ``pack`` hook on every (re)send,
so a re-issued job is encoded against whatever the peer holds then and
needs no special re-addressing.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core.journal import Journal, PathLike, config_fingerprint
from repro.errors import JournalCorruptError, JournalError, VmError
from repro.parallel.envelope import read_stamps
from repro.parallel.pool import (InlinePool, PoolTimeout, WorkerDeath,
                                 WorkerError, WorkerPool, check_transport)
from repro.parallel.recipe import SessionRecipe
from repro.resilience import RetryPolicy


class Campaign:
    """Pool, journal and recovery shared by the parallel coordinators."""

    #: Worker harness this campaign's jobs run on (:meth:`warm` builds it).
    HARNESS = ""
    #: ``mode`` of the journal's ``campaign-opened`` record.
    MODE = ""

    def __init__(self, firmware, peripherals, config,
                 recipe: Optional[SessionRecipe], transport: str,
                 workers: int, journal: Optional[PathLike],
                 checkpoint_every: int, **recipe_kwargs):
        check_transport(transport)
        if recipe is None:
            if firmware is None:
                raise VmError("pass firmware or a prebuilt recipe")
            recipe = SessionRecipe.create(firmware, peripherals,
                                          config=config, **recipe_kwargs)
        self.recipe = recipe
        self.config = recipe.config
        self.workers = workers
        self.retry_policy = self.config.retry_policy or RetryPolicy()
        #: Work units (DSE envelopes, fuzz batches) merged between
        #: periodic checkpoints.
        self.checkpoint_every = max(1, checkpoint_every)
        self._pool = None
        self._last_stats = None
        self._degraded = False
        self._journal_path = journal
        self._journal: Optional[Journal] = None
        #: Checkpoint blob restored by :meth:`resume`, consumed by the
        #: next ``run``.
        self._resume_state: Optional[Dict[str, Any]] = None
        #: The recorded ``run`` keywords :meth:`resume_run` continues
        #: under (set by ``_from_setup``).
        self._resume_run_kwargs: Optional[Dict[str, Any]] = None

    # -- pool lifecycle -----------------------------------------------------

    @property
    def pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.recipe, self.workers)
        return self._pool

    @property
    def pool_stats(self):
        """Stats of the live pool, or the last closed pool's — reading
        stats must never spawn workers (a post-``close`` read that
        resurrected the pool would leak processes past the campaign)."""
        if self._pool is not None:
            return self._pool.stats
        return self._last_stats

    def warm(self) -> None:
        self.pool.warm(self.HARNESS)

    def close(self) -> None:
        if self._pool is not None:
            self._last_stats = self._pool.stats
            self._pool.close()
            self._pool = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- journal lifecycle ---------------------------------------------------

    @classmethod
    def resume(cls, journal_dir: PathLike, workers: Optional[int] = None):
        """Reopen an interrupted (or completed) journaled campaign.

        The next ``run`` continues from the last loadable checkpoint and
        re-executes everything after it; :meth:`resume_run` calls it
        under the recorded budgets. A
        corrupt checkpoint blob falls back to the previous checkpoint —
        recorded in the journal as ``checkpoint-skipped``, never
        silently. Worker count may differ from the original run:
        verdicts are worker-count-independent.
        """
        journal = Journal.open(journal_dir)
        opened = journal.first("campaign-opened")
        if opened is None:
            raise JournalError(
                f"journal {journal_dir} records no campaign-opened event")
        if opened.get("mode") != cls.MODE:
            raise JournalError(
                f"journal {journal_dir} holds a {opened.get('mode')!r} "
                f"campaign, not a {cls.MODE!r} one")
        setup = journal.get_blob(opened["blob"])
        campaign = cls._from_setup(setup, workers or setup["workers"])
        campaign._journal = journal
        for checkpoint in reversed(journal.events("checkpoint")):
            digest = checkpoint["blob"]
            try:
                campaign._resume_state = journal.get_blob(digest)
                break
            except JournalCorruptError:
                journal.append("checkpoint-skipped", blob=digest,
                               seq_skipped=checkpoint["seq"])
        return campaign

    def resume_run(self):
        """Continue the resumed campaign under its recorded budgets."""
        if self._resume_run_kwargs is None:
            raise JournalError("resume_run() requires resume()")
        return self.run(**self._resume_run_kwargs)

    def _open_journal(self, setup: Dict[str, Any],
                      **fields: Any) -> Optional[Journal]:
        """The campaign's journal: the resumed one, or a new one whose
        ``campaign-opened`` record carries *setup* as its blob plus
        *fields* — ``None`` when the campaign is not journaled."""
        if self._journal is not None or self._journal_path is None:
            return self._journal
        journal = Journal.create(self._journal_path)
        blob = journal.put_blob(setup)
        journal.append("campaign-opened", mode=self.MODE, blob=blob,
                       workers=self.workers,
                       config=config_fingerprint(self.config), **fields)
        journal.commit()
        self._journal = journal
        return journal

    @staticmethod
    def _seal(journal: Optional[Journal], report,
              interrupted: Dict[str, Any], sealed: Dict[str, Any]) -> None:
        """Close the campaign's record: ``campaign-interrupted`` with
        *interrupted* after a cooperative shutdown, otherwise (once)
        ``campaign-sealed`` with *sealed* and the verdict."""
        if journal is None:
            return
        if report.stop_reason == "interrupted":
            journal.append("campaign-interrupted", **interrupted)
        elif not journal.sealed:
            journal.append("campaign-sealed",
                           verdict=report.verdict_summary(), **sealed)
        journal.commit()

    # -- results --------------------------------------------------------------

    def _unpack_result(self, unpack: Callable[[Any], Any], data) -> Any:
        """``unpack(data)`` for one result envelope, with the decode time
        and the worker's stamped encode/decode seconds charged to the
        pool's IPC stats. Subclasses pass the envelope function from
        their own module, where it is looked up."""
        t0 = time.perf_counter()
        fields = unpack(data)
        stats = self.pool.stats.ipc
        stats.decode_s += time.perf_counter() - t0
        worker_encode_s, worker_decode_s = read_stamps(data)
        stats.worker_encode_s += worker_encode_s
        stats.worker_decode_s += worker_decode_s
        return fields

    # -- recovery ladder ------------------------------------------------------

    def _peer(self, worker_id: int) -> object:
        """Wire peer key for a worker. After degrading to the in-process
        pool all results come from one harness whatever worker id they
        echo, so they share one peer identity."""
        return "degraded" if self._degraded else worker_id

    def _await_result(self, timeout: Optional[float] = None
                      ) -> Tuple[str, int, Any]:
        """``pool.next_result`` with the recovery ladder applied.

        With an active fault plan a finite deadline
        (:attr:`~repro.resilience.RetryPolicy.result_deadline_s`) is
        always armed, so lost result messages cannot hang the run; with
        no plan the wait is free (liveness polling still catches real
        worker deaths)."""
        while True:
            armed = timeout
            if armed is None and not self._degraded:
                plan = self.config.fault_plan
                if plan is not None and not plan.is_empty:
                    armed = self.retry_policy.result_deadline_s
            try:
                return self.pool.next_result(timeout=armed)
            except WorkerDeath as death:
                self._recover_death(death)
            except PoolTimeout as stalled:
                self._reissue(stalled.jobs)

    def _recover_death(self, death: WorkerDeath) -> None:
        pool = self.pool
        policy = self.retry_policy
        if pool.stats.resilience.worker_respawns < policy.respawn_cap:
            jobs = pool.respawn(death.worker_id)
            # The dead incarnation's registries died with it: forget what
            # we believed it held, so the re-pack ships everything.
            self._forget_peer(death.worker_id)
            for job_id in jobs:
                pool.resubmit(job_id)
            return
        if policy.degrade_to_serial:
            self._degrade()
            return
        raise death

    def _reissue(self, jobs: Iterable[int]) -> None:
        """Re-queue stalled jobs on their (live) workers. The worker's
        registries are intact; if it already executed the job it
        answers from its completed cache."""
        pool = self.pool
        policy = self.retry_policy
        for job_id in jobs:
            try:
                info = pool.in_flight(job_id)
            except KeyError:
                continue  # answered while the timeout was raised
            if info.reissues >= policy.max_reissues:
                raise WorkerError(
                    f"job {job_id} ({info.kind}) produced no result after "
                    f"{info.reissues} re-issues on worker {info.worker_id}",
                    worker_id=info.worker_id, jobs=(job_id,))
            pool.resubmit(job_id)

    def _degrade(self) -> None:
        """Respawn cap exhausted: finish the run serially in-process.

        The real pool's in-flight jobs transfer to an
        :class:`InlinePool` built from a fault-free copy of the recipe
        (there is no worker process left to kill) that shares the pool's
        stats object, so accounting — including the ``degraded`` flag —
        survives the swap. Each job is re-packed by its own ``pack``
        hook against the harness's cold ``"degraded"`` peer."""
        pool = self.pool
        stats = pool.stats
        stats.resilience.degraded = True
        pending = pool.take_in_flight()
        pool.close()
        inline = InlinePool(self.recipe.with_config(fault_plan=None),
                            stats=stats)
        self._pool = inline
        self._degraded = True
        for _job_id, info in pending:
            inline.submit(info.worker_id, info.kind, info.payload,
                          pack=info.pack)
            stats.resilience.lease_reissues += 1

    # -- hooks ---------------------------------------------------------------

    def _forget_peer(self, worker_id: object) -> None:
        """A peer's process (and with it, its content pool) is gone."""

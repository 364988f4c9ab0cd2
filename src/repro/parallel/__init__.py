"""repro.parallel — sharded exploration over a snapshot-fed worker pool.

HardSnap's core claim is that hardware snapshotting makes *concurrent*
path exploration possible at all: once a path's complete hardware state
is a serializable artefact, any idle target instance can continue any
path. This package is that runtime:

* :class:`WorkerPool` — N processes, each owning its own simulator/FPGA
  target, solver and snapshot store, built from a picklable
  :class:`SessionRecipe` (targets are reconstructed from peripheral
  catalog names, never shipped live),
* states move between processes as content-addressed delta snapshots
  (:class:`~repro.core.persistence.SnapshotWire`): a peer only receives
  the chunks it doesn't already hold — the cross-process analogue of
  :class:`~repro.targets.orchestrator.TransferRecord`'s ``delta_bits``,
* the *software* half of a state travels the same way: the
  :class:`StateWire` codec (:mod:`repro.parallel.statewire`) ships
  dirty memory pages + constraint suffixes against per-peer
  registries instead of full pickles; chunks and pages share each
  endpoint's one :class:`ContentPool`,
* :class:`ParallelAnalysisEngine` — the coordinator runs the searcher
  and leases pending states to workers; merged reports reproduce the
  serial engine's ``verdict_summary()`` byte-identically,
* :class:`ParallelFuzzer` — input-sharded fuzzing from a shared
  post-boot snapshot; merged coverage/crashes reproduce the serial
  fuzzer's ``verdict_summary()`` for the same batch size,
* both coordinators subclass one :class:`~repro.parallel.campaign.Campaign`,
  which owns the pool lifecycle, the journal and the recovery ladder,
* jobs and results travel as packed batch envelopes
  (:mod:`repro.parallel.envelope`) over plain ``mp.Queue`` pipes, one
  job queue and one result channel per worker; the degraded
  :class:`InlinePool` runs the same envelopes through the workers' own
  job handler.

See ``docs/PARALLEL.md`` for the architecture and determinism rules.
"""

from repro.parallel.engine import ParallelAnalysisEngine
from repro.parallel.fuzzer import ParallelFuzzer
from repro.parallel.pool import (InlinePool, IpcStats, PoolStats,
                                 PoolTimeout, WorkerDeath, WorkerError,
                                 WorkerPool)
from repro.parallel.recipe import SessionRecipe, TargetRecipe
from repro.parallel.statewire import StateWire, StateWireStats
from repro.parallel.wire import ChunkChannel, ContentPool, WireStats

__all__ = [
    "ParallelAnalysisEngine", "ParallelFuzzer", "WorkerPool", "InlinePool",
    "PoolStats", "WorkerError", "WorkerDeath", "PoolTimeout",
    "SessionRecipe", "TargetRecipe", "ChunkChannel", "ContentPool",
    "WireStats",
    "StateWire", "StateWireStats", "IpcStats",
]

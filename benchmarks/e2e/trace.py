"""Outside-in per-layer tracer for the end-to-end benchmark.

The tracer changes nothing under ``src/``: :meth:`Tracer.install` wraps
the public entry point of every layer from here, patching classes and
the module globals where module-level functions are looked up. Worker
processes inherit the wrappers through ``fork``; an ``at_fork`` hook
clears the inherited tallies, and each worker flushes its own to
``out/trace/<workload>-<pid>.json`` after every lease or fuzz batch.

Per layer the tracer keeps aggregates in memory — calls, total, self
and max seconds — where a layer's self time is its span minus the time
its traced callees took. Full span records are kept only at coarse
boundaries: campaigns, lease/batch jobs and solver queries of at least
:data:`SLOW_QUERY_S`. In the coordinator only calls made inside a
campaign span are timed, so layer self times plus ``other`` (the
campaign span's own self time) add up to the campaigns' wall time; in
a worker every traced call is timed, and the top-level spans add up to
the worker's busy time.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: Solver queries at least this long are kept as full span records.
SLOW_QUERY_S = 1e-3

#: (layer, module, class, attributes) of the public entry points each
#: layer is timed at. A class of None means module-level functions,
#: which are also replaced in every module of :data:`FUNCTION_USERS`.
HOOKS = [
    ("solver", "repro.solver.solver", "Solver", ["check"]),
    ("solver.sat", "repro.solver.sat", "SatSolver", ["solve"]),
    ("vm", "repro.vm.executor", "SymbolicExecutor", ["step_block"]),
    ("isa", "repro.core.fuzzer", None, ["execute_input"]),
    ("vm.forwarding", "repro.vm.forwarding", "MmioBridge", ["read", "write"]),
    ("bus", "repro.targets.base", "HardwareTarget", ["read", "write"]),
    ("sim", "repro.targets.base", "HardwareTarget", ["step"]),
    ("core.snapshot", "repro.core.snapshot", "SnapshotController",
     ["save", "restore", "update_state"]),
    ("targets.scan", "repro.targets.fpga", "FpgaTarget",
     ["save_snapshot", "restore_snapshot"]),
    ("core.store", "repro.core.store", "SnapshotStore", ["put", "resolve"]),
    ("core.fuzzer", "repro.core.fuzzer", "SnapshotFuzzer", ["run"]),
    ("core.engine", "repro.core.engine", "AnalysisEngine", ["run"]),
    ("parallel.pool", "repro.parallel.pool", "WorkerPool",
     ["submit", "next_result", "drain_results"]),
    ("parallel.envelope", "repro.parallel.envelope", None,
     ["pack_lease_batch", "unpack_lease_batch", "pack_lease_results",
      "unpack_lease_results", "pack_fuzz_batch", "unpack_fuzz_batch",
      "pack_fuzz_results", "unpack_fuzz_results"]),
    ("parallel.statewire", "repro.parallel.statewire", "StateWire",
     ["encode_state", "decode_state"]),
    ("parallel.wire", "repro.parallel.wire", "ChunkChannel",
     ["encode", "decode"]),
    ("parallel.workers", "repro.parallel.workers", "EngineWorker",
     ["run_lease"]),
    ("parallel.workers", "repro.parallel.workers", "FuzzWorker",
     ["run_batch"]),
    ("core.journal", "repro.core.journal", "Journal",
     ["append", "put_blob"]),
]

#: Modules that import a hooked module-level function by name: callers
#: there look the name up in their own globals.
FUNCTION_USERS = {
    "repro.core.fuzzer": ["repro.parallel.workers"],
    "repro.parallel.envelope": ["repro.parallel.engine",
                                "repro.parallel.fuzzer",
                                "repro.parallel.workers"],
}

LAYERS = sorted({layer for layer, *_ in HOOKS})

#: The per-layer metrics of a traced run: (name, unit, better).
#: ``<layer>.self_pct`` is the layer's self time as a share of the
#: traced time (coordinator campaign wall time + worker busy time);
#: ``other.self_pct`` is the coordinator time no layer claims. Modelled
#: (paper cost-model) seconds are kept apart, in :data:`MODELLED`.
METRICS = [
    ("solver.queries", "count", "lower"),
    ("solver.cache_hits", "count", "higher"),
    ("solver.model_cache_hits", "count", "higher"),
    ("solver.sat.calls", "count", "lower"),
    ("solver.sat.conflicts", "count", "lower"),
    ("solver.sat.propagations", "count", "lower"),
    ("solver.sat.decisions", "count", "lower"),
    ("solver.sat.clauses_max", "count", "lower"),
    ("vm.calls", "count", "lower"),
    ("vm.instructions", "count", "higher"),
    ("isa.execs", "count", "higher"),
    ("vm.forwarding.accesses", "count", "lower"),
    ("bus.accesses", "count", "lower"),
    ("sim.calls", "count", "lower"),
    ("sim.cycles", "count", "lower"),
    ("core.snapshot.saves", "count", "lower"),
    ("core.snapshot.restores", "count", "lower"),
    ("core.snapshot.bits_saved", "bit", "lower"),
    ("core.snapshot.bits_restored", "bit", "lower"),
    ("targets.scan.calls", "count", "lower"),
    ("core.store.calls", "count", "lower"),
    ("core.store.stored_bits", "bit", "lower"),
    ("core.store.dedup_hit_pct", "%", "higher"),
    ("parallel.pool.jobs", "count", "lower"),
    ("parallel.envelope.bytes_out", "B", "lower"),
    ("parallel.envelope.bytes_in", "B", "lower"),
    ("parallel.statewire.states", "count", "lower"),
    ("parallel.statewire.bytes", "B", "lower"),
    ("parallel.wire.chunk_bytes", "B", "lower"),
    ("parallel.workers.jobs", "count", "lower"),
    ("parallel.workers.busy_pct", "%", "higher"),
    ("core.journal.events", "count", "lower"),
    ("core.journal.blobs", "count", "lower"),
    ("core.journal.bytes", "B", "lower"),
] + [(f"{layer}.self_pct", "%", "lower") for layer in LAYERS + ["other"]]

#: Modelled seconds: charged by the snapshot controller, and in total
#: by the campaigns' targets.
MODELLED = ("core.snapshot.modelled_save_s",
            "core.snapshot.modelled_restore_s", "targets.modelled_s")

#: Layer call counts reported under their own metric names.
CALL_COUNTS = {
    "solver.sat.calls": "solver.sat", "vm.calls": "vm",
    "isa.execs": "isa", "vm.forwarding.accesses": "vm.forwarding",
    "bus.accesses": "bus", "sim.calls": "sim",
    "targets.scan.calls": "targets.scan", "core.store.calls": "core.store",
    "parallel.workers.jobs": "parallel.workers",
}


def _stat() -> List[float]:
    # [calls, total_s, self_s, max_s, depth]. Total counts only the
    # outermost call of a layer, so a layer re-entering itself (e.g.
    # update_state -> save) is not counted twice.
    return [0, 0.0, 0.0, 0.0, 0]


# -- bookkeeping run after a traced call returns ------------------------------

def _keep(kind: str) -> Callable:
    """Remember the called object; its own stats are read at dump time."""
    def after(tracer, args, kwargs, result, start, end):
        tracer.objects[kind][id(args[0])] = args[0]
    return after


def _count(key: str) -> Callable:
    def after(tracer, args, kwargs, result, start, end):
        tracer.counts[key] += 1
    return after


def _solver_check(tracer, args, kwargs, result, start, end):
    tracer.objects["solver"][id(args[0])] = args[0]
    if end - start >= SLOW_QUERY_S:
        tracer.record("solver.query", start, end)


def _step_block(tracer, args, kwargs, result, start, end):
    tracer.counts["vm.instructions"] += result.executed


def _sim_step(tracer, args, kwargs, result, start, end):
    tracer.counts["sim.cycles"] += (
        args[1] if len(args) > 1 else kwargs.get("cycles", 1))


def _pool_submit(tracer, args, kwargs, result, start, end):
    tracer.objects["pool"][id(args[0])] = args[0]
    tracer.counts["parallel.pool.jobs"] += 1


def _worker_job(tracer, args, kwargs, result, start, end):
    tracer.flush()


AFTER = {
    ("solver", "check"): _solver_check,
    ("solver.sat", "solve"): _keep("sat"),
    ("vm", "step_block"): _step_block,
    ("sim", "step"): _sim_step,
    ("core.snapshot", "save"): _keep("snapshot"),
    ("core.snapshot", "restore"): _keep("snapshot"),
    ("core.store", "put"): _keep("store"),
    ("core.store", "resolve"): _keep("store"),
    ("parallel.pool", "submit"): _pool_submit,
    ("parallel.workers", "run_lease"): _worker_job,
    ("parallel.workers", "run_batch"): _worker_job,
    ("core.journal", "append"): _count("core.journal.events"),
    ("core.journal", "put_blob"): _count("core.journal.blobs"),
}

#: Hooks whose calls are recorded as full "job" spans.
JOB_SPANS = {("parallel.workers", "run_lease"),
             ("parallel.workers", "run_batch")}


class Tracer:
    """One process's tallies, plus the wrappers that feed them."""

    def __init__(self, workload: str, trace_dir: str):
        self.workload = workload
        self.trace_dir = trace_dir
        self.epoch = time.perf_counter()
        self.layers: Dict[str, List[float]] = {
            name: _stat() for name in LAYERS + ["other"]}
        #: Open timing frames: [start, seconds spent in traced callees].
        self.stack: List[List[float]] = []
        #: Ids of the open recorded spans (the parents of new records).
        self.span_ids: List[str] = []
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Layer objects whose own stats are read at dump time.
        self.objects: Dict[str, Dict[int, Any]] = defaultdict(dict)
        #: Name of the campaign being set up or run (set by the harness).
        self.campaign = ""
        self.busy_s = 0.0
        self.worker = False
        self.pid = os.getpid()
        self._seq = 0
        self._patches: List[tuple] = []

    # -- process lifecycle ---------------------------------------------------

    def _after_fork(self) -> None:
        """A forked pool worker starts with empty tallies. Containers
        are emptied in place: the wrappers hold references to them."""
        for stat in self.layers.values():
            stat[:] = _stat()
        self.stack.clear()
        self.spans.clear()
        self.counts.clear()
        self.objects.clear()
        self.span_ids[:] = [f"campaign:{self.campaign}"]
        self.busy_s = 0.0
        self.worker = True
        self.pid = os.getpid()

    def install(self) -> "Tracer":
        for layer, module_name, owner, attrs in HOOKS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                key = (layer, attr)
                if owner is None:
                    wrapped = self._wrap(getattr(module, attr), layer, key)
                    for name in [module_name] + FUNCTION_USERS.get(
                            module_name, []):
                        user = importlib.import_module(name)
                        if hasattr(user, attr):
                            self._patch(user, attr, wrapped)
                else:
                    cls = getattr(module, owner)
                    self._patch(cls, attr,
                                self._wrap(cls.__dict__[attr], layer, key))
        os.register_at_fork(after_in_child=self._after_fork)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (tests trace in-process).
        The at-fork hook cannot be unregistered; it only empties this
        tracer's own containers."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapped: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # -- timing ---------------------------------------------------------------

    def _wrap(self, original: Callable, layer: str, key: tuple) -> Callable:
        stat = self.layers[layer]
        stack = self.stack
        span_ids = self.span_ids
        clock = time.perf_counter
        after = AFTER.get(key)
        job = key in JOB_SPANS
        tracer = self

        def traced(*args, **kwargs):
            if not stack and not tracer.worker:
                return original(*args, **kwargs)  # coordinator set-up
            frame = [clock(), 0.0]
            stack.append(frame)
            stat[4] += 1
            if job:
                tracer._seq += 1
                span_ids.append(f"{tracer.pid}.{tracer._seq}")
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[4] -= 1
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.busy_s += duration
                stat[0] += 1
                if not stat[4]:
                    stat[1] += duration
                stat[2] += duration - frame[1]
                if duration > stat[3]:
                    stat[3] = duration
                if job:
                    tracer.record("job", frame[0], end, span_ids.pop())
            if after is not None:
                after(tracer, args, kwargs, result, frame[0], end)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        return traced

    @contextmanager
    def campaign_span(self, name: str):
        """Time one campaign's run. Traced calls inside it are charged
        to their layers, the rest of its time to ``other``."""
        stat = self.layers["other"]
        frame = [time.perf_counter(), 0.0]
        self.stack.append(frame)
        span_id = f"campaign:{name}"
        self.span_ids.append(span_id)
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.span_ids.pop()
            duration = end - frame[0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            stat[3] = max(stat[3], duration)
            self.record("campaign", frame[0], end, span_id, parent=None)

    def record(self, name: str, start: float, end: float,
               span_id: Optional[str] = None,
               parent: Optional[str] = "") -> None:
        """Keep one full span record: name, start, end (seconds since
        the traced process tree started), id, parent id, campaign, pid."""
        if span_id is None:
            self._seq += 1
            span_id = f"{self.pid}.{self._seq}"
        if parent == "":
            parent = self.span_ids[-1] if self.span_ids else None
        self.spans.append([name, round(start - self.epoch, 6),
                           round(end - self.epoch, 6), span_id, parent,
                           self.campaign, self.pid])

    # -- reporting ------------------------------------------------------------

    def _object_counts(self) -> Dict[str, float]:
        """Counts read from the layers' own stats objects."""
        out: Dict[str, float] = defaultdict(float)
        for solver in self.objects["solver"].values():
            out["solver.queries"] += solver.stats.queries
            out["solver.cache_hits"] += solver.stats.query_cache_hits
            out["solver.model_cache_hits"] += solver.stats.model_cache_hits
        for sat in self.objects["sat"].values():
            for key in ("conflicts", "propagations", "decisions"):
                out[f"solver.sat.{key}"] += sat.stats[key]
            out["solver.sat.clauses_max"] = max(
                out["solver.sat.clauses_max"], len(sat.clauses))
        for ctl in self.objects["snapshot"].values():
            stats = ctl.stats
            out["core.snapshot.saves"] += stats.saves
            out["core.snapshot.restores"] += stats.restores
            out["core.snapshot.bits_saved"] += stats.bits_saved
            out["core.snapshot.bits_restored"] += stats.bits_restored
            out["core.snapshot.modelled_save_s"] += stats.modelled_save_s
            out["core.snapshot.modelled_restore_s"] += \
                stats.modelled_restore_s
        for store in self.objects["store"].values():
            stats = store.stats
            out["core.store.stored_bits"] += stats.stored_bits
            out["core.store.dedup_hits"] += (stats.chunk_hits
                                             + stats.capture_skips)
            out["core.store.dedup_lookups"] += (stats.chunk_hits
                                                + stats.chunk_misses
                                                + stats.capture_skips)
        # Pool stats hold both ends of the wire: the coordinator folds
        # every worker's wire/state-wire stats into them at run end.
        for pool in self.objects["pool"].values():
            stats = pool.stats
            out["parallel.envelope.bytes_out"] += (stats.ipc.queue_bytes_out
                                                   + stats.ipc.shm_bytes_out)
            out["parallel.envelope.bytes_in"] += (stats.ipc.queue_bytes_in
                                                  + stats.ipc.shm_bytes_in)
            out["parallel.statewire.states"] += stats.state_wire.states_sent
            out["parallel.statewire.bytes"] += (
                stats.state_wire.state_bytes_full
                + stats.state_wire.state_bytes_delta)
            out["parallel.wire.chunk_bytes"] += \
                stats.wire.payload_bits_sent / 8
        return out

    def dump(self) -> Dict[str, Any]:
        """This process's tallies as JSON-able data."""
        counts = dict(self.counts)
        for key, value in self._object_counts().items():
            counts[key] = counts.get(key, 0) + value
        return {"pid": self.pid, "worker": self.worker,
                "campaign": self.campaign, "busy_s": self.busy_s,
                "layers": {name: stat[:4] for name, stat
                           in self.layers.items() if stat[0]},
                "counts": counts, "spans": list(self.spans)}

    def flush(self) -> None:
        """Write this worker's tallies. Atomic, because the pool may
        stop the worker between any two jobs."""
        path = os.path.join(self.trace_dir,
                            f"{self.workload}-{self.pid}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.dump(), fh)
        os.replace(tmp, path)

    def _worker_files(self) -> List[str]:
        prefix = f"{self.workload}-"
        return [os.path.join(self.trace_dir, name)
                for name in sorted(os.listdir(self.trace_dir))
                if name.startswith(prefix)]

    def clear_worker_files(self) -> None:
        for path in self._worker_files():
            os.unlink(path)

    def worker_dumps(self) -> List[Dict[str, Any]]:
        out = []
        for path in self._worker_files():
            if path.endswith(".json"):
                with open(path) as fh:
                    out.append(json.load(fh))
        return out


def summarize(dumps: List[Dict[str, Any]], wall_s: float, workers: int,
              extra_counts: Dict[str, float]) -> Dict[str, Any]:
    """Merge the coordinator's and the workers' dumps into one
    per-layer breakdown plus the per-layer metrics.

    ``wall_s`` is the coordinator's campaign wall time. Worker busy time
    is added to it, so the self-time shares cover every traced second
    of every process and sum to 100 %.
    """
    layers: Dict[str, List[float]] = {}
    counts: Dict[str, float] = defaultdict(float)
    spans: List[list] = []
    busy = 0.0
    self_s = {"coordinator": 0.0, "worker": 0.0}
    for dump in dumps:
        side = "worker" if dump["worker"] else "coordinator"
        if dump["worker"]:
            busy += dump["busy_s"]
        for name, (calls, total, own, longest) in dump["layers"].items():
            row = layers.setdefault(name, [0, 0.0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
            row[3] = max(row[3], longest)
            self_s[side] += own
        for key, value in dump["counts"].items():
            if key == "solver.sat.clauses_max":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
        spans.extend(dump["spans"])
    for key, value in extra_counts.items():
        counts[key] += value
    for metric, layer in CALL_COUNTS.items():
        counts[metric] = layers.get(layer, [0])[0]
    lookups = counts.pop("core.store.dedup_lookups", 0)
    hits = counts.pop("core.store.dedup_hits", 0)
    counts["core.store.dedup_hit_pct"] = 100 * hits / lookups if lookups else 0
    counts["parallel.workers.busy_pct"] = (
        100 * busy / (workers * wall_s) if workers else 0)
    traced = wall_s + busy
    metrics = {}
    for name, unit, _better in METRICS:
        if name.endswith(".self_pct"):
            own = layers.get(name[:-len(".self_pct")], [0, 0, 0])[2]
            value = 100 * own / traced
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return {
        "wall_s": wall_s,
        "coordinator_self_s": self_s["coordinator"],
        "parallel.workers.busy_s": busy,
        "worker_self_s": self_s["worker"],
        "solver.query_max_s": layers.get("solver", [0, 0, 0, 0])[3],
        "modelled_s": {key: counts.get(key, 0) for key in MODELLED},
        "layers": {name: {"calls": row[0], "total_s": row[1],
                          "self_s": row[2], "max_s": row[3]}
                   for name, row in sorted(layers.items())},
        "metrics": metrics,
        "spans": sorted(spans, key=lambda span: (span[1], span[3])),
    }

"""E0's ``fuzz-serial`` repetition, pinned count for count.

The eight seed-3 campaigns of the end-to-end benchmark's ``fuzz-serial``
workload, built here the way that workload builds them: a functional
scan TIMER target with the netlist optimizer on, the packet-parser
firmware, the E9 seeds, batches of 32, 2 500 executions each, mutation
seeds 3000-3007. A change to the concrete core, the bus, the snapshot
layer or the scheduler that moves any simulated count (instructions
executed, TIMER accesses, saves and restores, crashes, modelled
seconds) or any verdict string fails here, in tier-1, instead of only
in a traced benchmark run.
"""

import hashlib

import pytest

import repro.core.fuzzer as fuzzer_module
from repro.core import SnapshotFuzzer
from repro.firmware import TIMER_BASE, fuzz_packet_parser
from repro.isa import Cpu, assemble
from repro.peripherals import catalog
from repro.targets import FpgaTarget

SEEDS = (bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 0x1F]))
BATCH = 32
EXECUTIONS = 2500
RNG_SEEDS = range(3000, 3008)

PINNED = {
    "executions": 20_000,
    "instructions": 1_473_796,
    "timer_accesses": 25_393,
    "saves": 8,
    "restores": 19_992,
    "crashes": 723,
}
PINNED_MODELLED_S = 0.670857510000096
#: blake2b of the eight ``verdict_summary()`` strings, one per line.
PINNED_VERDICT_DIGEST = "d3f5b828e8b370bdb52b77897030f88e"


@pytest.fixture
def counted_steps(monkeypatch):
    """Make ``execute_input`` build cpus that add their ``steps`` to
    the returned list's single entry when ``run`` returns or raises."""
    total = [0]

    class CountingCpu(Cpu):
        def run(self, *args, **kwargs):
            try:
                return super().run(*args, **kwargs)
            finally:
                total[0] += self.steps

    monkeypatch.setattr(fuzzer_module, "Cpu", CountingCpu)
    return total


def test_fuzz_serial_counts_are_pinned(counted_steps):
    program = assemble(fuzz_packet_parser())
    counts = dict.fromkeys(PINNED, 0)
    modelled = 0.0
    verdicts = []
    for rng_seed in RNG_SEEDS:
        target = FpgaTarget(scan_mode="functional", opt=True)
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        fuzzer = SnapshotFuzzer(program, target, seeds=list(SEEDS),
                                reset="snapshot", seed=rng_seed)
        report = fuzzer.run(executions=EXECUTIONS, batch_size=BATCH)
        counts["executions"] += report.executions
        counts["crashes"] += len(report.crashes)
        counts["saves"] += fuzzer.controller.stats.saves
        counts["restores"] += fuzzer.controller.stats.restores
        bus = target.instances["timer"].bus.stats
        counts["timer_accesses"] += bus.reads + bus.writes
        modelled += report.modelled_time_s
        verdicts.append(report.verdict_summary())
    counts["instructions"] = counted_steps[0]
    assert counts == PINNED
    assert modelled == pytest.approx(PINNED_MODELLED_S, abs=1e-12)
    digest = hashlib.blake2b("\n".join(verdicts).encode("ascii"),
                             digest_size=16).hexdigest()
    assert digest == PINNED_VERDICT_DIGEST

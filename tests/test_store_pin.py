"""The snapshot store's accounting, pinned count for count.

Two workloads:

* E0's ten ``dse-serial`` campaigns (``tests/test_persistence.py``'s
  ``E0_DSE``: functional scan, netlist optimizer on, run to exhaustion);
* E1d's fork-depth-100 chain (``benchmarks/test_snapshot_store.py``: a
  functional-scan FPGA target with SHA256, AES128 and GPIO, one GPIO
  write and one save per fork).

Each pins the store's ``StoreStats`` (snapshots, chunks, chunk hits and
misses, capture skips, logical and stored bits, resolves) and the
controller's ``SnapshotStats`` (saves, restores, bits saved, bits
stored). A change to how the store records, dedups or resolves a
snapshot that moves what is stored or looked up fails here, whatever
shape its records take.
"""

import pytest

from repro import HardSnapSession
from repro.core.snapshot import SnapshotController
from repro.peripherals import catalog
from repro.targets import FpgaTarget
from tests.test_persistence import E0_DSE

STORE_FIELDS = ("snapshots", "chunks", "chunk_hits", "chunk_misses",
                "capture_skips", "logical_bits", "stored_bits", "resolves")
SNAPSHOT_FIELDS = ("saves", "restores", "bits_saved", "bits_stored")

#: campaign -> (StoreStats fields, SnapshotStats fields), in the order
#: of STORE_FIELDS and SNAPSHOT_FIELDS.
PINNED_DSE = {
    "dispatcher-6": ((6, 2, 4, 2, 0, 990, 330, 11), (6, 5, 984, 330)),
    "dispatcher-16": ((16, 2, 14, 2, 0, 2640, 330, 31),
                      (16, 15, 2624, 330)),
    "dispatcher-32": ((32, 2, 30, 2, 0, 5280, 330, 63),
                      (32, 31, 5248, 330)),
    "dispatcher-64": ((64, 2, 62, 2, 0, 10560, 330, 127),
                      (64, 63, 10496, 330)),
    "init_heavy": ((16, 4, 28, 4, 0, 7888, 986, 31), (16, 15, 7600, 986)),
    "vuln_irq_race": ((32, 4, 28, 4, 0, 5280, 660, 63),
                      (32, 31, 5248, 660)),
    "vuln_buffer_overflow": ((64, 6, 58, 6, 0, 20992, 1968, 127),
                             (64, 63, 19904, 1968)),
    "vuln_peripheral_misuse": ((32, 4, 28, 4, 0, 19424, 2428, 63),
                               (32, 31, 19392, 2428)),
    "vuln_wdt_starvation": ((32, 23, 9, 23, 0, 4960, 3565, 63),
                            (32, 31, 4928, 3565)),
    "fig1_two_paths": ((2, 2, 0, 2, 0, 330, 330, 3), (2, 1, 328, 330)),
}

PINNED_FORK_CHAIN = ((100, 102, 198, 102, 0, 202500, 28953, 100),
                     (100, 0, 199000, 28953))

GPIO_BASE = 0x4001_0000
GPIO_OUT = GPIO_BASE + 0x04
FORK_DEPTH = 100


def _accounting(controller):
    return (tuple(getattr(controller.store.stats, name)
                  for name in STORE_FIELDS),
            tuple(getattr(controller.stats, name)
                  for name in SNAPSHOT_FIELDS))


@pytest.mark.parametrize("name, firmware, peripherals", E0_DSE,
                         ids=[name for name, _, _ in E0_DSE])
def test_e0_dse_store_accounting_is_pinned(name, firmware, peripherals):
    session = HardSnapSession(firmware, peripherals,
                              scan_mode="functional", opt=True)
    report = session.run(max_instructions=1_000_000)
    assert report.stop_reason == "exhausted"
    assert _accounting(session.engine.controller) == PINNED_DSE[name]


def test_e1d_fork_chain_store_accounting_is_pinned():
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.SHA256, 0x4000_0000)
    target.add_peripheral(catalog.AES128, 0x4002_0000)
    target.add_peripheral(catalog.GPIO, GPIO_BASE)
    target.reset()
    controller = SnapshotController(target)
    for i in range(FORK_DEPTH):
        target.write(GPIO_OUT, i)
        controller.save()
    assert _accounting(controller) == PINNED_FORK_CHAIN

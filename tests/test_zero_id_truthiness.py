"""Regression tests for the snapshot-id-0 truthiness bug class.

Snapshot ids, content digests, and interrupt vectors are all values
where ``0`` (or an empty container) is legal but falsy — any
``if value:`` guard silently treats them as absent. These tests pin the
``is not None`` semantics at every spot the audit covered:
``vm/state.py`` (``hw_snapshot`` forking, ``irq_handler`` at address 0),
``core/store.py``/``core/snapshot.py`` (id 0 records), and the
parallel wire format (id 0 survives ship/materialise).
"""

from repro.core.snapshot import SnapshotController
from repro.core.store import SnapshotStore
from repro.instrument import insert_scan_chain  # noqa: F401 (target dep)
from repro.peripherals import catalog
from repro.solver import Solver
from repro.targets.base import HwSnapshot
from repro.targets.fpga import FpgaTarget
from repro.vm.executor import SymbolicExecutor
from repro.vm.forwarding import MmioBridge
from repro.vm.memory import SymbolicMemory
from repro.vm.state import ExecState


def _empty_state() -> ExecState:
    return ExecState(memory=SymbolicMemory(4096))


def test_fork_clones_falsy_looking_snapshot():
    # Empty states dict + id 0: every field of this snapshot is falsy.
    snap = HwSnapshot(states={}, snapshot_id=0)
    parent = _empty_state()
    parent.hw_snapshot = snap
    child = parent.fork()
    assert child.hw_snapshot is not None
    assert child.hw_snapshot is not snap  # cloned, not shared
    assert child.hw_snapshot.snapshot_id == 0


def test_fork_without_snapshot_stays_none():
    child = _empty_state().fork()
    assert child.hw_snapshot is None


def test_irq_handler_at_address_zero_is_deliverable():
    program_src = "start:\n    halt\n"
    from repro.isa.assembler import assemble
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, 0x4000_0000)
    bridge = MmioBridge(target, Solver())
    executor = SymbolicExecutor(assemble(program_src), bridge, Solver())
    state = executor.make_initial_state()
    state.irq_enabled = True
    state.irq_handler = 0  # handler vector at address 0 is legal
    assert executor.maybe_interrupt(state, pending=True)
    assert state.in_irq and state.pc == 0


def test_store_id_zero_roundtrip():
    # Store-allocated ids start at 1, but id 0 arrives from outside (an
    # FPGA SRAM slot number) and must behave like any other key.
    store = SnapshotStore()
    store.put(0, {"u0": {"nets": {"q": 1}, "cycle": 3}}, bits_of={"u0": 8})
    assert 0 in store
    assert store.resolve(0)["u0"]["nets"]["q"] == 1


def test_controller_preserves_target_assigned_id_zero():
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, 0x4000_0000)
    controller = SnapshotController(target)
    controller.reset()
    # A target that hands out its own ids may legitimately assign slot 0;
    # the controller must not mistake it for "unassigned" and overwrite.
    original_save = target.save_snapshot

    def save_with_slot_zero():
        snap = original_save()
        snap.snapshot_id = 0
        return snap

    target.save_snapshot = save_with_slot_zero
    snap = controller.save()
    assert snap.snapshot_id == 0
    target.step(10)
    controller.restore(snap)
    again = controller.save()
    assert again.states == snap.states

"""The FPGA emulation target (paper §III-A "FPGA Target").

Hosts peripherals on the compiled backend — fast, like fabric — with the
FPGA's honest limitations and HardSnap's two remedies:

* **visibility = pins**: only port nets can be peeked; internal state is
  reachable exclusively through the scan chain or the readback feature,
* **scan-chain snapshots**: every hosted design is instrumented by
  :func:`~repro.instrument.scan_chain.insert_scan_chain` once per
  peripheral source (see :func:`~repro.sim.compiler.hosted_design`);
  the on-board :class:`~repro.targets.snapshot_ip.SnapshotIp` drives
  the chain and caches snapshot streams in SRAM (paper §III-C),
* **readback**: capture-only vendor path, priced by
  :class:`~repro.instrument.readback.ReadbackModel` (§V compares it
  against the scan chain).

The target is reached through the USB3 debugger transport (the modified
Inception debugger that translates USB commands to AXI transactions).

``scan_mode`` selects how the scan shift is *executed*:

* ``"shift"`` (default) models the chain rotation in bulk: the stream is
  packed/unpacked directly from the chain map while the scan ports are
  toggled once and the sim clock advances by the full chain length —
  O(chain elements) host work instead of one full design evaluation per
  chain bit, with the identical modelled shift cost. The reference
  mechanism, which shifts the chain bit by bit through the instrumented
  RTL, is its equivalence oracle (``tests/scan_oracle.py``,
  ``tests/test_scan_bulk.py``),
* ``"functional"`` moves the state directly while charging identical
  modelled costs; benchmarks with thousands of context switches use it.
  ``tests/test_targets.py`` asserts the modes produce identical states
  and identical modelled costs.
"""

from __future__ import annotations

import json
import zlib
from typing import Callable, Dict, Optional, Tuple

from repro.bus.transport import USB3, Transport
from repro.errors import ScanShiftError, SnapshotError, TargetError
from repro.hdl.ir import Design
from repro.instrument.readback import ReadbackModel
from repro.instrument.scan_chain import ScanChainResult, insert_scan_chain
from repro.peripherals.catalog import PeripheralSpec
from repro.sim.compiler import CompiledSimulation, hosted_design
from repro.targets.base import HardwareTarget, HwSnapshot, PeripheralInstance
from repro.targets.snapshot_ip import SnapshotIp

DEFAULT_FPGA_CLOCK_HZ = 100e6

#: Whether newly built FPGA targets run hosted designs through the
#: :mod:`repro.opt` netlist optimizer (single-use wire fusion) and the
#: fast code generator before compiling — the synthesis step of the
#: flow.  Scan state, ports and observable behaviour are preserved
#: (enforced by the differential gate in
#: ``tests/test_opt_differential.py``), so this is on by default.
DEFAULT_OPT = True


class FpgaTarget(HardwareTarget):
    """Compiled-backend target with scan-chain snapshotting."""

    visibility = "pins"

    def __init__(self, name: str = "fpga",
                 clock_hz: float = DEFAULT_FPGA_CLOCK_HZ,
                 transport: Transport = USB3,
                 scan_mode: str = "shift",
                 sram_bits: Optional[int] = None,
                 readback: Optional[ReadbackModel] = None,
                 has_readback: bool = True,
                 scan_include: Optional[Tuple[str, ...]] = None,
                 sram_dedup: bool = False,
                 opt: bool = DEFAULT_OPT):
        super().__init__(name, clock_hz, transport)
        if scan_mode not in ("shift", "functional"):
            raise TargetError(f"unknown scan_mode {scan_mode!r}")
        self.scan_mode = scan_mode
        #: Run the dataflow optimizer over each hosted (instrumented)
        #: design before code generation.
        self.opt = opt
        #: When enabled, the snapshot IP stores delta-compressed streams:
        #: SRAM occupancy per snapshot is the chain footprint of the
        #: instances that changed since the previous capture (the shift
        #: itself still traverses — and is priced at — the full chain).
        self.sram_dedup = sram_dedup
        #: Optional sub-component scoping for the scan chain (paper
        #: §IV-A): only state under these hierarchical prefixes is
        #: snapshottable; None instruments the whole design.
        self.scan_include = scan_include
        self.ip = SnapshotIp(clock_hz, transport,
                             **({"sram_bits": sram_bits} if sram_bits else {}))
        self.readback_model = readback or ReadbackModel()
        self.has_readback = has_readback
        self.snapshots_taken = 0
        self.snapshots_restored = 0
        #: Per-instance canonical body (no cycle counter) at the last
        #: save/restore — the baseline the IP's delta streams diff
        #: against when ``sram_dedup`` is enabled.
        self._sram_baseline: Dict[str, dict] = {}

    # -- construction -------------------------------------------------------

    def _prepare_design(self, spec: PeripheralSpec) -> Tuple[Design, dict]:
        # Scan insertion is a one-time RTL-to-RTL pass per peripheral:
        # every target hosting the same source and scoping shares the
        # elaborated design, its chain and the instrumented design.
        include = (None if self.scan_include is None
                   else tuple(self.scan_include))

        def build() -> Tuple[Design, Tuple[Design, ScanChainResult]]:
            design = spec.elaborate()
            scan = insert_scan_chain(design, include=include)
            return scan.design, (design, scan)

        design, (original, scan) = hosted_design(
            (spec.name, spec.verilog(), include), build)
        return design, {"scan": scan, "original": original}

    def _make_sim(self, design: Design) -> CompiledSimulation:
        return CompiledSimulation(design, opt=self.opt)

    # -- scan plumbing -----------------------------------------------------------

    def _chain(self, instance: PeripheralInstance) -> ScanChainResult:
        return instance.extra["scan"]

    # -- CRC-verified link (fault injection + bounded retransmit) -----------

    def _link_fault(self, instance: PeripheralInstance, operation: str,
                    state: dict) -> Optional[str]:
        """Model the scan stream crossing the CRC-framed debugger link.

        The canonical state is serialised into a frame, the injector may
        flip one bit of the *transmitted copy*, and the receiver's CRC32
        is checked against the sender's — a real end-to-end check, not a
        coin toss. Returns a fault description (CRC mismatch, dropped
        frame, stall) or None when the frame verified.
        """
        inj = self._injector
        site = f"scan_{operation}:{instance.name}"
        frame = json.dumps(state, sort_keys=True,
                           separators=(",", ":")).encode("ascii")
        sent_crc = zlib.crc32(frame)
        received = frame
        if inj.roll(f"{site}:corrupt", inj.plan.scan_corrupt_rate):
            flipped = bytearray(frame)
            bit = inj.draw(f"{site}:bit", len(flipped) * 8)
            flipped[bit // 8] ^= 1 << (bit % 8)
            received = bytes(flipped)
        if zlib.crc32(received) != sent_crc:
            return "CRC mismatch on received stream"
        if inj.roll(f"{site}:drop", inj.plan.scan_drop_rate):
            return "frame dropped by the link"
        if inj.roll(f"{site}:stall", inj.plan.scan_stall_rate):
            self.resilience.stalls += 1
            return "link stalled past the operation deadline"
        return None

    def _shift_verified(self, instance: PeripheralInstance, operation: str,
                        fn: Callable[[], Optional[dict]],
                        payload: Optional[dict] = None) -> Optional[dict]:
        """Run one scan operation with CRC verification and bounded
        retransmit + exponential backoff. Each retransmit re-runs the
        physical shift (a circular rotation preserves the state, so a
        re-shift is safe) and charges the full chain shift plus backoff
        to the modelled timer. Exhaustion raises
        :class:`~repro.errors.ScanShiftError` with context.
        """
        if self._injector is None:
            return fn()
        policy = self._retry_policy
        chain_bits = self._chain(instance).chain_length
        attempts = 0
        while True:
            attempts += 1
            result = fn()
            fault = self._link_fault(
                instance, operation,
                payload if payload is not None else (result or {}))
            if fault is None:
                return result
            if attempts > policy.max_link_retries:
                raise ScanShiftError(fault, instance=instance.name,
                                     operation=operation, attempts=attempts)
            backoff = policy.backoff_s(attempts - 1)
            self.timer.add_fixed(self.ip.shift_cost_s(chain_bits) + backoff)
            self.resilience.link_retries += 1
            self.resilience.backoff_s += backoff

    def _capture_instance(self, instance: PeripheralInstance) -> dict:
        return self._shift_verified(
            instance, "capture",
            lambda: self._capture_instance_raw(instance))

    def _capture_instance_raw(self, instance: PeripheralInstance) -> dict:
        """Scan the instance's state out (circular, state-preserving) and
        return the canonical state dict."""
        scan = self._chain(instance)
        sim = instance.sim
        if self.scan_mode == "functional":
            state = self._strip_scan_artifacts(instance, sim.save_state())
            if self.scan_include is not None:
                # Scoped chain: only chain-covered elements (plus pins)
                # are snapshottable, exactly as in shift mode.
                chain_nets = {e.name for e in scan.elements
                              if e.kind == "net"}
                chain_mems = {e.name for e in scan.elements
                              if e.kind == "mem"}
                pin_names = {n.name for n in
                             instance.extra["original"].inputs}
                state = {
                    "cycle": state["cycle"],
                    "nets": {k: v for k, v in state["nets"].items()
                             if k in chain_nets or k in pin_names},
                    "memories": {k: v for k, v in state["memories"].items()
                                 if k in chain_mems},
                }
        else:  # "shift": bulk rotation
            nets, mems = self._read_chain(instance)
            # A circular rotation returns every chain element to its
            # original value; what remains visible is the port traffic
            # and the elapsed time. Reproduce exactly that: toggle the
            # scan ports once, leave the last rotated bit (the stream
            # MSB = the first element's MSB) on scan_in, and advance the
            # clock by the full chain length.
            sim.poke("scan_enable", 1)
            sim.poke("scan_in", self._stream_msb(scan, nets, mems))
            sim.cycle += scan.chain_length
            sim.state_version += 1
            sim.poke("scan_enable", 0)
            state = self._canonical_from_chain(instance, nets, mems)
        return state

    @staticmethod
    def _read_chain(instance: PeripheralInstance) -> Tuple[dict, dict]:
        """Chain element values straight off the live simulation, in the
        same ``(nets, mems)`` shape :meth:`ScanChainResult.unpack` yields."""
        scan: ScanChainResult = instance.extra["scan"]
        sim = instance.sim
        nets: Dict[str, int] = {}
        mems: Dict[str, dict] = {}
        for element in scan.elements:
            if element.kind == "net":
                nets[element.name] = sim.values[element.name]
            else:
                mems.setdefault(element.name, {})[element.word] = \
                    sim.memories[element.name][element.word]
        return nets, mems

    @staticmethod
    def _stream_msb(scan: ScanChainResult, nets: dict, mems: dict) -> int:
        """Bit ``chain_length - 1`` of the packed stream — the last bit a
        per-bit shift drives onto ``scan_in``. Per the pack convention
        (bit 0 = LSB of the last element) this is the first element's MSB."""
        first = scan.elements[0]
        value = (nets[first.name] if first.kind == "net"
                 else mems[first.name][first.word])
        return (value >> (first.width - 1)) & 1

    def _strip_scan_artifacts(self, instance: PeripheralInstance,
                              state: dict) -> dict:
        """Drop instrumentation-only elements so the canonical state is
        expressed purely in terms of the original design — the form every
        target understands (needed for cross-target transfer)."""
        original: Design = instance.extra["original"]
        return {
            "cycle": state["cycle"],
            "nets": {k: v for k, v in state["nets"].items()
                     if k in original.nets},
            "memories": {k: v for k, v in state["memories"].items()
                         if k in original.memories},
        }

    def _load_instance(self, instance: PeripheralInstance, state: dict) -> None:
        self._shift_verified(
            instance, "load",
            lambda: self._load_instance_raw(instance, state),
            payload=state)

    def _load_instance_raw(self, instance: PeripheralInstance,
                           state: dict) -> None:
        scan = self._chain(instance)
        sim = instance.sim
        if self.scan_mode == "functional":
            sim.load_state(state)
            return
        # "shift": bulk load
        sim.poke("scan_enable", 1)
        for element in scan.elements:
            if element.kind == "net":
                mask = sim.design.nets[element.name].mask
                sim.values[element.name] = state["nets"][element.name] & mask
            else:
                mem = sim.design.memories[element.name]
                sim.memories[element.name][element.word] = \
                    state["memories"][element.name][element.word] & mem.mask
        sim.state_version += 1
        # The per-bit shift ends with the stream's final bit on scan_in:
        # the first element's (target-value) MSB.
        first = scan.elements[0]
        target_nets = {first.name: state["nets"].get(first.name, 0)}
        target_mems = ({first.name:
                        {first.word:
                         state["memories"][first.name][first.word]}}
                       if first.kind == "mem" else {})
        sim.poke("scan_in", self._stream_msb(scan, target_nets, target_mems))
        sim.poke("scan_enable", 0)
        # Input pins are environment, not chain state: re-drive them.
        for net in instance.design.inputs:
            if net.name in state["nets"] and net.name not in (
                    "scan_enable", "scan_in"):
                sim.poke(net.name, state["nets"][net.name])
        sim.cycle = int(state.get("cycle", sim.cycle))

    def _canonical_from_chain(self, instance: PeripheralInstance,
                              nets: dict, mems: dict) -> dict:
        """Build a :meth:`BaseSimulation.save_state`-shaped dict from
        unpacked chain values plus pin levels, expressed purely in terms
        of the original (uninstrumented) design."""
        sim = instance.sim
        original: Design = instance.extra["original"]
        state_nets = dict(nets)
        for net in original.inputs:
            state_nets[net.name] = sim.peek(net.name)  # pins are visible
        memories = {}
        for name, words in mems.items():
            depth = original.memories[name].depth
            memories[name] = [words.get(i, 0) for i in range(depth)]
        return {"cycle": sim.cycle, "nets": state_nets, "memories": memories}

    # -- snapshotting -------------------------------------------------------------------

    def save_snapshot(self) -> HwSnapshot:
        """Scan all hosted chains into the snapshot SRAM (daisy-chained:
        costs are summed).

        Every save captures every instance, and its modelled cost covers
        a full-chain rotation: a scan shift traverses every flip-flop no
        matter how few changed.
        """
        self.settle()
        self._check_link("save")
        states, _ = self.capture_states()
        total_bits = sum(self._chain(inst).chain_length
                         for inst in self.instances.values())
        stored_bits = None
        if self.sram_dedup:
            # Content-based delta: lockstep time moves every cycle
            # counter, so version-dirty overstates what actually needs
            # storing — diff the register content itself.
            changed = self._sram_changed(states)
            stored_bits = sum(self._chain(self.instances[name]).chain_length
                              for name in changed)
        slot, cost = self.ip.save(total_bits, stored_bits=stored_bits)
        self.timer.add_fixed(cost)
        self.snapshots_taken += 1
        snapshot = HwSnapshot(states, method="scan", bits=total_bits,
                              modelled_cost_s=cost, snapshot_id=slot)
        if self._injector is not None:
            snapshot.seal()
        self._mark_verified(snapshot)
        return snapshot

    def restore_snapshot(self, snapshot: HwSnapshot) -> None:
        self.settle()
        missing = set(snapshot.states) - set(self.instances)
        if missing:
            raise SnapshotError(
                f"snapshot references unknown instances {sorted(missing)}")
        self._check_link("restore")
        self._verify_integrity(snapshot)
        # Functional mode on an infallible link: an instance untouched
        # since it last held this very state object (the store hands out
        # one image per record) is already in it; only the modelled cost
        # is charged.
        cache = (self._capture_cache if self._injector is None
                 and self.scan_mode == "functional" else {})
        total_bits = 0
        for name, state in snapshot.states.items():
            instance = self.instances[name]
            cached = cache.get(name)
            if (cached is None or cached.state is not state
                    or cached.version != instance.sim.state_version):
                self._load_instance(instance, state)
            total_bits += self._chain(instance).chain_length
        cost = self.ip.restore(snapshot.snapshot_id, total_bits)
        self.timer.add_fixed(cost)
        self.snapshots_restored += 1
        self._note_restored(snapshot)
        self._mark_verified(snapshot)
        if self.sram_dedup:
            self._sram_changed(snapshot.states)  # re-baseline

    def _sram_changed(self, states: Dict[str, dict]) -> list:
        """Instances whose canonical body differs from the SRAM delta
        baseline; updates the baseline to *states*."""
        changed = []
        for name, state in states.items():
            body = {k: v for k, v in state.items() if k != "cycle"}
            if self._sram_baseline.get(name) != body:
                changed.append(name)
                self._sram_baseline[name] = body
        return changed

    # -- readback -------------------------------------------------------------------------

    def readback_snapshot(self) -> HwSnapshot:
        """Capture-only snapshot through the vendor readback feature.

        Only available when the modelled device has readback
        (``has_readback``). The values are read directly — modelling the
        hardware feature, which bypasses the RTL — and the cost comes from
        the frame/bandwidth model.
        """
        self.settle()
        if not self.has_readback:
            raise TargetError(
                f"{self.name}: device has no readback capability")
        states: Dict[str, dict] = {}
        bits = 0
        for name, instance in self.instances.items():
            # Canonical (instrumentation-free) form, like the scan paths:
            # readback snapshots are transferable and store-dedupable.
            states[name] = self._strip_scan_artifacts(
                instance, instance.sim.save_state())
            bits += instance.state_bits
        cost = self.readback_model.capture_latency_s(bits)
        self.timer.add_fixed(cost)
        return HwSnapshot(states, method="readback", bits=bits,
                          modelled_cost_s=cost)

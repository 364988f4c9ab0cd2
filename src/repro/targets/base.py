"""Hardware target abstraction.

A *target* hosts a set of peripherals behind a memory map and exposes the
four capabilities HardSnap's virtual machine needs:

* MMIO access (``read``/``write``) — the Inception-style memory
  forwarding path, priced by the target's transport,
* time (``step``) — peripherals advance in lockstep on a shared clock,
* interrupt lines (``irq_lines``),
* hardware snapshotting (``save_snapshot``/``restore_snapshot``), each
  target with its own method and cost model.

Every operation accounts *modelled* time on the target's
:class:`~repro.bus.transport.ModelledTimer`: executed cycles divided by
the target's effective clock rate plus transport latencies. See
DESIGN.md's substitution ledger for how these stand in for the paper's
wall-clock measurements.

The clock is lazy (temporal decoupling, as in loosely-timed SystemC
TLM): ``step`` charges its cycles to ``cycles`` and the timer at once
but only adds them to a cycle debt. Every entry point that reads or
writes peripheral state first settles the debt with one fused
``sim.step(debt)`` per instance (:meth:`HardwareTarget.settle`), so
what anything observes is exactly what per-cycle stepping would show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.bus.axi4lite import Axi4LiteMaster
from repro.bus.memory_map import MemoryMap, Region
from repro.bus.wishbone import WishboneMaster
from repro.bus.transport import ModelledTimer, Transport
from repro.errors import LinkError, SnapshotIntegrityError, TargetError
from repro.resilience import FaultInjector, FaultPlan, ResilienceStats, RetryPolicy
from repro.hdl.ir import Design
from repro.peripherals.catalog import PeripheralSpec
from repro.sim.base import BaseSimulation

#: Hardware clock cycles per executed firmware instruction. Algorithm 1
#: (§III) clocks the hardware after every instruction; the analysis
#: engine, the reboot-and-replay baseline and crash replay all charge
#: this one rule, so a finding replays on the hardware it was found on.
CYCLES_PER_INSTRUCTION = 1

#: Modelled wall time of one device reboot. Muench et al. report
#: multi-second resets on real boards; the model charges 250 ms.
REBOOT_TIME_S = 0.25


@dataclass
class HwSnapshot:
    """A complete hardware state image.

    ``states`` maps instance name -> the canonical state dict produced by
    :meth:`BaseSimulation.save_state` (state nets, state memories, input
    pin levels, cycle counter). The canonical form is target-independent,
    which is what makes multi-target state transfer possible.

    When a snapshot has been interned into a
    :class:`~repro.core.store.SnapshotStore` (``record`` is set), its
    per-instance state dicts are the store's shared immutable chunks:
    cloning then shares them instead of deep-copying, which is what makes
    fork-heavy exploration O(changed state) instead of O(design). A
    snapshot carries no lineage: the store deduplicates every save on
    content alone.
    """

    states: Dict[str, dict]
    method: str = "direct"
    bits: int = 0
    modelled_cost_s: float = 0.0
    snapshot_id: Optional[int] = None
    #: The store's :class:`~repro.core.store.SnapshotRecord`, once interned.
    record: Optional[object] = None
    #: Integrity digest over the canonical state bodies (cycle counters
    #: excluded — they are transport metadata, not state). None until
    #: :meth:`seal` runs; verified by :meth:`verify` before a restore.
    digest: Optional[str] = None

    def clone(self) -> "HwSnapshot":
        if self.record is not None:
            # Store-backed states are immutable shared chunks: a shallow
            # copy of the instance map is a safe, O(instances) clone.
            return HwSnapshot(dict(self.states), self.method, self.bits,
                              self.modelled_cost_s, self.snapshot_id,
                              self.record, self.digest)
        import copy
        return HwSnapshot(copy.deepcopy(self.states), self.method, self.bits,
                          self.modelled_cost_s, self.snapshot_id,
                          digest=self.digest)

    # -- integrity ----------------------------------------------------------

    def compute_digest(self) -> str:
        """blake2b over every instance's canonical (cycle-less) body,
        in name order — the per-chunk content addresses the snapshot
        store deduplicates on, combined into one image digest."""
        import hashlib

        from repro.core.store import chunk_digest  # lazy: avoids a cycle
        h = hashlib.blake2b(digest_size=16)
        for name in sorted(self.states):
            h.update(name.encode("utf-8"))
            h.update(chunk_digest(self.states[name]).encode("ascii"))
        return h.hexdigest()

    def seal(self) -> "HwSnapshot":
        """Stamp the integrity digest (idempotent on unchanged content)."""
        self.digest = self.compute_digest()
        return self

    def verify(self) -> None:
        """Check the content against the sealed digest.

        No-op for unsealed snapshots; raises
        :class:`~repro.errors.SnapshotIntegrityError` on mismatch so
        corrupt state is rejected instead of silently loaded.
        """
        if self.digest is None:
            return
        actual = self.compute_digest()
        if actual != self.digest:
            raise SnapshotIntegrityError(
                f"snapshot integrity digest mismatch: sealed "
                f"{self.digest}, content hashes to {actual}")


@dataclass
class PeripheralInstance:
    """One hosted peripheral: spec + elaborated design + live simulation."""

    name: str
    spec: PeripheralSpec
    design: Design
    sim: BaseSimulation
    bus: object  # Axi4LiteMaster or WishboneMaster (same read/write API)
    region: Region
    extra: dict = field(default_factory=dict)  # target-specific (scan map…)

    @property
    def state_bits(self) -> int:
        return self.design.state_bit_count

    def irq(self) -> bool:
        if not self.spec.has_irq:
            return False
        return bool(self.sim.peek("irq"))


@dataclass
class _CachedCapture:
    """Last canonical capture of one instance + the sim version it had."""

    version: int
    state: dict


class HardwareTarget:
    """Base class for the simulator and FPGA targets."""

    #: "full" (every net inspectable) or "pins" (ports only).
    visibility = "full"

    def __init__(self, name: str, clock_hz: float, transport: Transport):
        self.name = name
        self.clock_hz = clock_hz
        self.transport = transport
        self.timer = ModelledTimer()
        self.memory_map = MemoryMap()
        self.instances: Dict[str, PeripheralInstance] = {}
        self.cycles = 0
        #: Cycles charged by :meth:`step` and not yet simulated.
        self._debt = 0
        #: name -> last canonical capture or restore and the sim's state
        #: version after it: what the dirty set of the next capture and
        #: the FPGA target's restore skip compare against.
        self._capture_cache: Dict[str, _CachedCapture] = {}
        #: Recovery accounting for this target's link (always present;
        #: stays zero without an attached fault plan).
        self.resilience = ResilienceStats()
        self._injector: Optional[FaultInjector] = None
        self._retry_policy = RetryPolicy()
        #: Last snapshot whose save/restore completed verification — the
        #: image a reconnect re-syncs the board to (link state after a
        #: drop is untrusted).
        self._last_verified: Optional[HwSnapshot] = None

    # -- resilience ---------------------------------------------------------

    def attach_resilience(self, plan: Optional[FaultPlan],
                          policy: Optional[RetryPolicy] = None) -> None:
        """Arm fault injection + recovery on this target's link. With a
        plan attached, snapshots are sealed with integrity digests and
        every link operation runs under the retry policy; ``None``
        detaches (the infallible-hardware fast path)."""
        # An empty plan can never fire: stay on the fast path (no
        # sealing, no health checks) so a blanket --fault-plan default
        # costs nothing.
        self._injector = (FaultInjector(plan, scope=self.name)
                          if plan is not None and not plan.is_empty
                          else None)
        if policy is not None:
            self._retry_policy = policy

    def _check_link(self, operation: str) -> None:
        """Pre-operation health check: a dropped link is re-established
        before the snapshot operation proceeds. Before a *restore* the
        board is also re-synced to the last verified image (the restore
        overwrites it anyway, but the scan logic must be in a known
        state); before a *save* the board kept its live state — only the
        link is re-established."""
        inj = self._injector
        if inj is None:
            return
        self.resilience.health_checks += 1
        if inj.roll("link_down", inj.plan.link_down_rate):
            self._reconnect(resync=(operation == "restore"))

    def _reconnect(self, resync: bool) -> None:
        self.resilience.reconnects += 1
        self.timer.add_fixed(self._retry_policy.reconnect_cost_s)
        if resync and self._last_verified is not None:
            for name, state in self._last_verified.states.items():
                instance = self.instances.get(name)
                if instance is not None:
                    self._load_instance(instance, state)
            self._note_restored(self._last_verified)

    def _load_instance(self, instance: "PeripheralInstance",
                       state: dict) -> None:
        """Load one instance's canonical state (reconnect re-sync path);
        targets with a non-trivial mechanism override this."""
        instance.sim.load_state(state)

    def _verify_integrity(self, snapshot: "HwSnapshot") -> None:
        if snapshot.digest is not None:
            snapshot.verify()
            self.resilience.integrity_checks += 1

    def _mark_verified(self, snapshot: "HwSnapshot") -> None:
        if self._injector is not None:
            self._last_verified = snapshot

    # -- construction ------------------------------------------------------

    def add_peripheral(self, spec: PeripheralSpec, base: int,
                       instance_name: Optional[str] = None) -> PeripheralInstance:
        self.settle()  # the new instance owes none of the earlier cycles
        name = instance_name or spec.name
        if name in self.instances:
            raise TargetError(f"duplicate instance name {name!r}")
        region = self.memory_map.add(name, base, spec.window_size)
        design, extra = self._prepare_design(spec)
        sim = self._make_sim(design)
        # The memory-bus abstraction is modular (paper §IV-A): pick the
        # BFM matching the peripheral's interface.
        if spec.bus == "wishbone":
            bus = WishboneMaster(sim)
        else:
            bus = Axi4LiteMaster(sim)
        instance = PeripheralInstance(name, spec, design, sim, bus, region,
                                      extra)
        self.instances[name] = instance
        return instance

    def _prepare_design(self, spec: PeripheralSpec) -> Tuple[Design, dict]:
        """Elaborate (and possibly instrument) the peripheral design."""
        return spec.elaborate(), {}

    def _make_sim(self, design: Design) -> BaseSimulation:
        raise NotImplementedError

    # -- reset / time ------------------------------------------------------------

    def reset(self) -> None:
        """Power-on reset of every hosted peripheral (a 'reboot')."""
        self.settle()
        for instance in self.instances.values():
            instance.sim.reset_state()
            instance.sim.poke("rst", 1)
            instance.sim.step(2)
            instance.sim.poke("rst", 0)
            instance.sim.step(1)
        self.cycles += 3
        self.timer.add_cycles(3, self.clock_hz)

    def step(self, cycles: int = 1) -> None:
        """Advance all peripherals by *cycles* clock cycles: charged now,
        simulated when anything next observes the hardware."""
        self._debt += cycles
        self.cycles += cycles
        self.timer.add_cycles(cycles, self.clock_hz)

    def settle(self) -> None:
        """Simulate the cycles :meth:`step` charged, one fused
        ``sim.step`` per instance. Every entry point that reads or
        writes peripheral state calls this first."""
        debt = self._debt
        if debt:
            self._debt = 0
            for instance in self.instances.values():
                instance.sim.step(debt)

    # -- MMIO ----------------------------------------------------------------------

    def _route(self, addr: int) -> Tuple[PeripheralInstance, int]:
        hit = self.memory_map.resolve(addr)
        if hit is None:
            raise TargetError(f"unmapped MMIO address 0x{addr:08x}")
        region, offset = hit
        return self.instances[region.name], offset

    def read(self, addr: int) -> int:
        """MMIO read, forwarded over the target's transport."""
        self.settle()
        instance, offset = self._route(addr)
        value, cycles = instance.bus.read(offset)
        self._after_access(instance, cycles)
        return value

    def write(self, addr: int, value: int) -> None:
        """MMIO write, forwarded over the target's transport."""
        self.settle()
        instance, offset = self._route(addr)
        cycles = instance.bus.write(offset, value)
        self._after_access(instance, cycles)

    def _after_access(self, accessed: PeripheralInstance, cycles: int) -> None:
        # Keep all peripherals in lockstep: the bus transaction consumed
        # `cycles` on the accessed peripheral; advance the others too.
        for instance in self.instances.values():
            if instance is not accessed:
                instance.sim.step(cycles)
        self.cycles += cycles
        self.timer.add_cycles(cycles, self.clock_hz)
        self.timer.add_transport(self.transport.access_latency_s(1))
        if self._injector is not None:
            self._mmio_retransmit(accessed)

    def _mmio_retransmit(self, accessed: PeripheralInstance) -> None:
        """Recover a lost MMIO response: the bus transaction completed on
        the peripheral (the access is not re-executed — that would
        double its side effects); only the *response* crosses the link
        again, priced at one transport access plus backoff."""
        inj = self._injector
        policy = self._retry_policy
        site = f"mmio_drop:{accessed.name}"
        attempt = 0
        while inj.roll(site, inj.plan.mmio_drop_rate):
            if attempt >= policy.max_link_retries:
                raise LinkError(
                    f"{self.name}: MMIO response from {accessed.name!r} "
                    f"lost; {attempt} retransmits exhausted")
            backoff = policy.backoff_s(attempt)
            attempt += 1
            self.timer.add_transport(self.transport.access_latency_s(1))
            self.timer.add_fixed(backoff)
            self.resilience.mmio_retries += 1
            self.resilience.backoff_s += backoff

    # -- interrupts -------------------------------------------------------------------

    def irq_lines(self) -> Dict[str, bool]:
        """Current level of each peripheral's irq output pin."""
        self.settle()
        return {name: inst.irq() for name, inst in self.instances.items()}

    # -- introspection ------------------------------------------------------------------

    def peek(self, instance_name: str, net: str) -> int:
        """Inspect a net; targets restrict this to their visibility level."""
        self.settle()
        instance = self._instance(instance_name)
        self._check_visibility(instance, net)
        return instance.sim.peek(net)

    def _instance(self, name: str) -> PeripheralInstance:
        instance = self.instances.get(name)
        if instance is None:
            raise TargetError(f"unknown instance {name!r}")
        return instance

    def _check_visibility(self, instance: PeripheralInstance, net: str) -> None:
        if self.visibility == "full":
            return
        design = instance.design
        port_names = {n.name for n in design.inputs}
        port_names |= {n.name for n in design.outputs}
        if net not in port_names:
            raise TargetError(
                f"{self.name}: net {net!r} is internal; the FPGA target "
                f"only exposes pins — use the scan chain or readback")

    # -- snapshotting ------------------------------------------------------------------

    def _capture_instance(self, instance: PeripheralInstance) -> dict:
        """Produce one instance's canonical state dict. Targets with a
        non-trivial mechanism (scan chains) override this."""
        instance.sim.settle()
        return instance.sim.save_state()

    def capture_states(self) -> Tuple[Dict[str, dict], frozenset]:
        """Capture every instance's canonical state, plus the set of
        instances that are *dirty*: their sim state version changed
        since the previous capture/restore (what CRIU's incremental
        dump prices)."""
        self.settle()
        states: Dict[str, dict] = {}
        dirty = set()
        for name, instance in self.instances.items():
            cached = self._capture_cache.get(name)
            if cached is None or cached.version != instance.sim.state_version:
                dirty.add(name)
            state = states[name] = self._capture_instance(instance)
            # The capture itself may advance the version (scan shifting);
            # record the post-capture version so the next save sees an
            # untouched instance as clean.
            self._capture_cache[name] = _CachedCapture(
                instance.sim.state_version, state)
        return states, frozenset(dirty)

    def _note_restored(self, snapshot: HwSnapshot) -> None:
        """Sync the capture cache after a restore: the live state now
        equals the snapshot's canonical states."""
        for name, state in snapshot.states.items():
            instance = self.instances.get(name)
            if instance is not None:
                self._capture_cache[name] = _CachedCapture(
                    instance.sim.state_version, state)

    def save_snapshot(self) -> HwSnapshot:
        raise NotImplementedError

    def restore_snapshot(self, snapshot: HwSnapshot) -> None:
        raise NotImplementedError

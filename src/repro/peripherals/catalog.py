"""Peripheral corpus catalog.

The paper evaluates HardSnap "on a corpus of 4 synthetic real world and
open-source peripherals... selected because they are common on embedded
systems and have different design complexities" (§V). Our corpus spans
the same axes:

========== ============ =============================================
peripheral state bits   role
========== ============ =============================================
timer      ~160         tiny control-dominated block with IRQ
uart       ~310         serial + FIFOs (communication interface)
aes128     ~600         crypto accelerator, wide datapath
sha256     ~1100        crypto accelerator, datapath + RAM schedule
========== ============ =============================================

``EXTENDED_CORPUS`` adds gpio (minimal), intc (IRQ aggregation) and dma
(memory-dominated state) for the wider experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Dict, List

from repro.hdl import elaborate
from repro.hdl.ir import Design
from repro.peripherals import (aes128, dma, gpio, gpio_wb, intc, sha256,
                               timer, uart, wdt)


@dataclass(frozen=True)
class PeripheralSpec:
    """Static description of one corpus peripheral."""

    name: str
    module: ModuleType
    addr_bits: int
    has_irq: bool
    registers: Dict[str, int]
    #: Bus interface the module exposes: "axi" (AXI4-Lite) or "wishbone".
    bus: str = "axi"

    @property
    def window_size(self) -> int:
        """Size of the MMIO window the peripheral decodes."""
        return 1 << self.addr_bits

    def verilog(self) -> str:
        return self.module.verilog()

    def elaborate(self) -> Design:
        return elaborate(self.verilog(), self.name)


def _spec(mod: ModuleType) -> PeripheralSpec:
    return PeripheralSpec(
        name=mod.NAME,
        module=mod,
        addr_bits=mod.ADDR_BITS,
        has_irq=mod.IRQ,
        registers=dict(mod.REGISTERS),
        bus=getattr(mod, "BUS", "axi"),
    )


GPIO = _spec(gpio)
GPIO_WB = _spec(gpio_wb)
TIMER = _spec(timer)
UART = _spec(uart)
SHA256 = _spec(sha256)
AES128 = _spec(aes128)
INTC = _spec(intc)
DMA = _spec(dma)
WDT = _spec(wdt)

#: The paper's four-peripheral evaluation corpus.
CORPUS: List[PeripheralSpec] = [TIMER, UART, AES128, SHA256]

#: Corpus plus the supporting blocks (gpio_wb is the Wishbone variant
#: demonstrating the modular bus abstraction).
EXTENDED_CORPUS: List[PeripheralSpec] = [GPIO, GPIO_WB, TIMER, UART, AES128,
                                         SHA256, INTC, DMA, WDT]

_BY_NAME = {spec.name: spec for spec in EXTENDED_CORPUS}


def get(name: str) -> PeripheralSpec:
    spec = _BY_NAME.get(name)
    if spec is None:
        raise KeyError(f"unknown peripheral {name!r}; "
                       f"available: {sorted(_BY_NAME)}")
    return spec


def names() -> List[str]:
    return sorted(_BY_NAME)

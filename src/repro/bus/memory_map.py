"""System memory map: address decoding for MMIO forwarding.

The selective symbolic VM forwards loads/stores that fall into peripheral
address windows to the hardware target hosting that peripheral. A
:class:`MemoryMap` owns the set of windows and resolves an address to
``(region, offset)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import BusError


@dataclass(frozen=True)
class Region:
    """One MMIO window: ``[base, base + size)`` mapped to a peripheral."""

    name: str
    base: int
    size: int

    def __post_init__(self):
        if self.size <= 0 or self.base < 0:
            raise BusError(f"bad region {self.name}: base=0x{self.base:x} "
                           f"size={self.size}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def overlaps(self, other: "Region") -> bool:
        return self.base < other.end and other.base < self.end


class MemoryMap:
    """Ordered, non-overlapping collection of MMIO regions."""

    def __init__(self) -> None:
        self._regions: List[Region] = []

    def add(self, name: str, base: int, size: int) -> Region:
        region = Region(name, base, size)
        for existing in self._regions:
            if existing.overlaps(region):
                raise BusError(
                    f"region {name!r} [0x{region.base:x}, 0x{region.end:x}) "
                    f"overlaps {existing.name!r}")
            if existing.name == name:
                raise BusError(f"duplicate region name {name!r}")
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        return region

    def resolve(self, addr: int) -> Optional[Tuple[Region, int]]:
        """Return ``(region, offset)`` for *addr*, or None if unmapped."""
        for region in self._regions:
            if region.contains(addr):
                return region, addr - region.base
        return None

    def region(self, name: str) -> Region:
        for region in self._regions:
            if region.name == name:
                return region
        raise BusError(f"unknown region {name!r}")

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

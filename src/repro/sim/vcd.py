"""Value Change Dump (VCD) trace writer.

Full execution tracing is the distinguishing capability of the simulator
target: HardSnap's multi-target orchestration exists precisely to move a
hardware state from the fast, opaque FPGA target onto the simulator when a
full trace of a window of interest is needed.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, TextIO

from repro.hdl.ir import Design

_ID_CHARS = "".join(chr(c) for c in range(33, 127))

#: One simulation cycle per VCD time unit.
TIMESCALE = "1 ns"


def _identifier(index: int) -> str:
    """Short VCD identifier code for signal *index*."""
    out = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        out.append(_ID_CHARS[rem])
    return "".join(out)


class VcdWriter:
    """Streams net value changes in VCD format.

    Usage::

        writer = VcdWriter(open("trace.vcd", "w"))
        sim.attach_vcd(writer)   # calls declare() + initial sample
        sim.step(100)            # sampled once per cycle
        writer.close()
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 signals: Optional[List[str]] = None):
        self.stream = stream if stream is not None else io.StringIO()
        self._filter = set(signals) if signals is not None else None
        self._ids: Dict[str, str] = {}
        self._widths: Dict[str, int] = {}
        self._last: Dict[str, Optional[int]] = {}
        self._declared = False
        self.changes = 0

    def declare(self, design: Design) -> None:
        """Write the VCD header for all (or the filtered) nets."""
        if self._declared:
            return
        self._declared = True
        write = self.stream.write
        write(f"$timescale {TIMESCALE} $end\n")
        write(f"$scope module {design.name} $end\n")
        index = 0
        for name, net in sorted(design.nets.items()):
            if self._filter is not None and name not in self._filter:
                continue
            ident = _identifier(index)
            index += 1
            self._ids[name] = ident
            self._widths[name] = net.width
            self._last[name] = None
            safe = name.replace(".", "__")
            write(f"$var wire {net.width} {ident} {safe} $end\n")
        write("$upscope $end\n$enddefinitions $end\n")

    def sample(self, cycle: int, values: Dict[str, int]) -> None:
        """Record changed values at *cycle* (one timestamp per cycle)."""
        pending: List[str] = []
        for name, ident in self._ids.items():
            value = values.get(name, 0)
            if self._last[name] == value:
                continue
            self._last[name] = value
            width = self._widths[name]
            if width == 1:
                pending.append(f"{value}{ident}")
            else:
                pending.append(f"b{value:b} {ident}")
            self.changes += 1
        if pending:
            self.stream.write(f"#{cycle}\n")
            self.stream.write("\n".join(pending) + "\n")

    def close(self) -> None:
        if hasattr(self.stream, "close") and not isinstance(self.stream, io.StringIO):
            self.stream.close()

    def getvalue(self) -> str:
        if isinstance(self.stream, io.StringIO):
            return self.stream.getvalue()
        raise ValueError("getvalue() only available for in-memory traces")

"""FPGA configuration-readback model.

High-end FPGAs can dump the values of all configuration memory cells —
including flip-flop contents — through a dedicated readback port (paper
§III-A: "Some manufacturers offer logic readback capability... this
feature is only present on a few high-end FPGAs"). HardSnap's evaluation
compares the latency of this vendor feature against its own scan chain.

The model follows the Xilinx SelectMAP/ICAP readback architecture:

* state bits live in fixed-size *frames* (FRAME_BITS configuration bits
  each); capturing one flip-flop requires reading back its entire frame,
* a readback session pays a fixed setup cost (GCAPTURE + command
  sequence), then streams frames at the configuration-port bandwidth,
* readback is *capture-only*: restoring state still requires the scan
  chain (or full partial reconfiguration), which is why HardSnap inserts
  a chain even on devices with readback.

Frame geometry and bandwidth default to 7-series-like numbers; both are
configurable so the benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hdl.ir import Design

#: Bits per configuration frame (Xilinx 7-series: 101 words x 32 bits).
DEFAULT_FRAME_BITS = 3232
#: Configuration port bandwidth in bits/second (ICAP: 32 bit @ 100 MHz).
DEFAULT_PORT_BITS_PER_S = 3.2e9
#: Fixed command/capture overhead per readback session, seconds.
DEFAULT_SETUP_S = 250e-6
#: Average fraction of a frame's bits that are *state* bits; the rest is
#: routing/LUT configuration that is read back but discarded.
DEFAULT_STATE_DENSITY = 0.04


@dataclass
class ReadbackModel:
    """Latency model for configuration readback of a design's state."""

    frame_bits: int = DEFAULT_FRAME_BITS
    port_bits_per_s: float = DEFAULT_PORT_BITS_PER_S
    setup_s: float = DEFAULT_SETUP_S
    state_density: float = DEFAULT_STATE_DENSITY

    def frames_for(self, state_bits: int) -> int:
        """Number of frames that must be read to capture *state_bits*.

        State bits are sparse in configuration frames: each frame holds
        only ``frame_bits * state_density`` useful bits.
        """
        useful_per_frame = max(1, int(self.frame_bits * self.state_density))
        return max(1, -(-state_bits // useful_per_frame))

    def capture_latency_s(self, state_bits: int) -> float:
        """Modelled time to read back the frames covering *state_bits*."""
        frames = self.frames_for(state_bits)
        return self.setup_s + frames * self.frame_bits / self.port_bits_per_s

    def capture_design(self, design: Design) -> Dict[str, float]:
        bits = design.state_bit_count
        return {
            "state_bits": bits,
            "frames": self.frames_for(bits),
            "latency_s": self.capture_latency_s(bits),
        }

"""Predecoded firmware images — the shared front end of every HS32
interpreter.

A firmware image is static: the assembler fixes every instruction word
before execution begins. Decoding the same words again on every fetch
(and worse, re-materialising the RAM image for every fuzzing execution)
is pure per-instruction overhead. :class:`DecodedImage` does that work
exactly once per program:

* ``itab`` — pc -> :class:`~repro.isa.encoding.Instruction` for every
  word-aligned, *valid-opcode* word of the image. Data words and
  out-of-image addresses are deliberately absent so executors fall back
  to the byte-accurate fetch path (which raises the same faults the
  un-predecoded interpreter would).
* ``digest`` — a content digest of the image bytes. Executors compare
  it against the digest stamped on a state's memory to prove the
  predecode table matches what that memory actually contains (states
  built from a different image, or never image-loaded at all, miss the
  fast path instead of silently executing the wrong program).
* ``ram_proto(size)`` — the prototype RAM contents, built once; a core
  copies it into its RAM with one C-level ``bytearray`` copy, and copies
  back only the lines it wrote when it resets.

The fast path is guarded against self-modifying code by the executors:
any store below ``code_limit`` clears their ``code clean`` flag and all
subsequent fetches take the slow byte-accurate path.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, Optional, Tuple

from repro.isa import encoding as enc
from repro.isa.assembler import Program


def image_digest(image: Dict[int, int]) -> bytes:
    """Content digest of a byte-addressed concrete image."""
    h = hashlib.blake2b(digest_size=8)
    for addr in sorted(image):
        h.update(addr.to_bytes(4, "little"))
        h.update(bytes((image[addr] & 0xFF,)))
    return h.digest()


class DecodedImage:
    """One program's image, decoded once and shared by every interpreter."""

    def __init__(self, program: Program):
        self.entry = program.entry
        #: Byte-addressed concrete image (what ``load_image`` consumes).
        self.image: Dict[int, int] = program.as_bytes()
        #: First address above the image; stores below it invalidate
        #: predecoded fetches (self-modifying code guard).
        self.code_limit = (max(self.image) + 1) if self.image else 0
        self.digest = image_digest(self.image)
        #: pc -> decoded instruction, valid opcodes only.
        self.itab: Dict[int, enc.Instruction] = {}
        for addr, word in program.words.items():
            if addr % 4 == 0 and enc.is_valid_opcode((word >> 26) & 0x3F):
                self.itab[addr] = enc.decode(word)
        self._ram_protos: Dict[int, bytes] = {}

    def ram_proto(self, ram_size: int) -> bytes:
        """RAM of *ram_size* bytes with the image loaded (built once)."""
        proto = self._ram_protos.get(ram_size)
        if proto is None:
            ram = bytearray(ram_size)
            for addr, byte in self.image.items():
                if addr < ram_size:
                    ram[addr] = byte
            proto = bytes(ram)
            self._ram_protos[ram_size] = proto
        return proto


#: id(program) -> (weakref to the program, its decoded image). Keyed by
#: identity because Program is a mutable (unhashable) dataclass; the
#: weakref check guards against id reuse after collection.
_CACHE: Dict[int, Tuple[weakref.ref, DecodedImage]] = {}


def decoded_image(program: Program) -> DecodedImage:
    """The (cached) :class:`DecodedImage` for *program*."""
    key = id(program)
    hit = _CACHE.get(key)
    if hit is not None and hit[0]() is program:
        return hit[1]
    image = DecodedImage(program)
    try:
        ref = weakref.ref(program, lambda _ref, _key=key: _CACHE.pop(_key, None))
    except TypeError:  # pragma: no cover - Program is weakrefable today
        return image
    _CACHE[key] = (ref, image)
    return image
